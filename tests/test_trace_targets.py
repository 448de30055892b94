"""Every function the benchmark's tracer wraps exists in the package.

`bench/spans.py` names its targets by module and attribute; a rename or a
deletion in the library would make `bench/run.py --trace 1` fail at install
time, so the names are checked here.
"""
import importlib
import importlib.util
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _layers():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize("layer,entry", sorted(_layers().items()))
def test_traced_targets_resolve(layer, entry):
    modname, targets = entry
    mod = importlib.import_module(f"wittburnside.{modname}")
    for target in targets:
        if "." in target:
            cls_name, meth = target.split(".")
            assert meth in vars(getattr(mod, cls_name)), f"{layer}: {target}"
        else:
            assert callable(getattr(mod, target, None)), f"{layer}: {target}"
