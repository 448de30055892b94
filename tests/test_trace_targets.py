"""Every function the benchmark's tracer wraps exists in the package.

`bench/spans.py` names its targets by module and attribute; a rename or a
deletion in the library would make `bench/run.py --trace 1` fail at install
time, so the names are checked here.  The tracer looks each traced module
up in `sys.modules` when it installs, so a CLI process must hold every one
of them once `wittburnside.cli` is imported, even those its verb never runs.
"""
import importlib
import importlib.util
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

SPANS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"
CLI_TRACED = SPANS.parent / "cli_traced.py"


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


@pytest.mark.parametrize("argv", [("group", "info", "--group", "C6"),
                                  ("qpoly", "tau", "--n", "4")], ids=" ".join)
def test_traced_cli_bootstrap_installs_and_records(tmp_path, argv):
    path = tmp_path / "run.spans"
    out = subprocess.run([sys.executable, str(CLI_TRACED), str(path), *argv],
                         capture_output=True, text=True, env=dict(os.environ, WB_CACHE_DIR=""))
    assert out.returncode == 0, out.stderr
    with open(path, "rb") as fh:
        spans = pickle.load(fh)
    assert len(spans["fid"]) > 0
