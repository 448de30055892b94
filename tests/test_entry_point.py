"""The entry point prints what `cli.main` prints in process, byte for byte.

`python -m wittburnside` ends with `os._exit` once its output is flushed
(`cli.run`), so nothing the interpreter's teardown used to do may be needed
for the output: each verb shape of a cli-session round must write the bytes
that `cli.main` writes in process and exit 0, and every Witt-flavor
derivation must leave a complete, readable export entry in WB_CACHE_DIR.
"""
import json
import os
import subprocess
import sys

import pytest

from wittburnside import build_group, subgroup_classes, subgroup_group
from wittburnside.cli import main
from wittburnside.universal import index_labels

D4, S3, C6, D6 = map(build_group, ("D4", "S3", "C6", "D6"))
D6_6A = subgroup_group(D6, subgroup_classes(D6).index_of_label("6a"))

# name -> (group, or truncation set's members, flavor, ring, components)
FILES = {
    "w_D4_a": (D4, "Witt", "Z", ["3", "-1", "2", "0", "5", "1", "-2", "4"]),
    "w_D4_b": (D4, "Witt", "Z", ["1", "2", "-3", "1", "0", "2", "1", "-1"]),
    "n_S3_a": (S3, "Necklace", "Z", ["2", "-1", "3", "1"]),
    "n_S3_b": (S3, "Necklace", "Z", ["-1", "4", "0", "2"]),
    "n_D4": (D4, "Necklace", "Z", ["1", "0", "2", "-1", "3", "1", "0", "2"]),
    "n_D6_6a": (D6_6A, "Necklace", "Z", ["2", "1", "-1", "3"]),
    "a_C6_a": (C6, "Aperiodic", "Z", ["1", "3", "-2", "5"]),
    "a_C6_b": (C6, "Aperiodic", "Z", ["4", "-1", "2", "1"]),
    "cw12_a": ((1, 2, 3, 4, 6, 12), "Witt", "Z", ["2", "-1", "3", "0", "1", "-2"]),
    "cw12_b": ((1, 2, 3, 4, 6, 12), "Witt", "Z", ["1", "4", "-1", "2", "0", "3"]),
    "cw8_a": (tuple(range(1, 9)), "Witt", "Z", ["1", "2", "-1", "0", "3", "1", "-2", "1"]),
    "cw8_b": (tuple(range(1, 9)), "Witt", "Z", ["2", "0", "1", "-3", "1", "2", "0", "-1"]),
    "cq6_a": ((1, 2, 3, 6), "Witt", "Q[q]", ["2*q^1+1", "-1", "3*q^2+2", "1"]),
    "cq6_b": ((1, 2, 3, 6), "Witt", "Q[q]", ["1", "q+2", "-2", "4*q^1"]),
}

# each verb shape of a cli-session round: (argv, whether it derives a Witt-flavor
# system); "@name" is an input file of FILES
CASES = (
    (("group", "info", "--group", "C6"), False),
    (("witt", "add", "@w_D4_a", "@w_D4_b"), True),
    (("witt", "mul", "@w_D4_a", "@w_D4_b"), True),
    (("necklace", "add", "@n_S3_a", "@n_S3_b"), False),
    (("necklace", "mul", "@n_S3_a", "@n_S3_b"), False),
    (("aperiodic", "add", "@a_C6_a", "@a_C6_b"), False),
    (("aperiodic", "mul", "@a_C6_a", "@a_C6_b"), False),
    (("ghost", "@w_D4_a"), False),
    (("teichmuller", "@w_D4_a"), False),
    (("teichmuller", "--inverse", "@n_D4"), False),
    (("theta", "@n_S3_a"), False),
    (("ind", "--group", "D6", "--class", "6a", "@n_D6_6a"), False),
    (("res", "--group", "D4", "--class", "4a", "@n_D4"), False),
    (("universal", "--group", "D4", "--op", "prod"), True),
    (("cyclic", "witt", "mul", "@cw12_a", "@cw12_b"), True),
    (("cyclic", "frobenius", "--r", "2", "@cw12_a"), True),
    (("cyclic", "verschiebung", "--r", "3", "@cw12_a"), False),
    (("qwitt", "mul", "--q", "2", "@cw8_a", "@cw8_b"), True),
    (("qwitt", "mul", "--q", "q", "@cq6_a", "@cq6_b"), True),
    (("qwitt", "ghost", "--q", "2", "@cw8_a"), False),
    (("qpoly", "P", "--n", "12"), False),
    (("quniversal", "--op", "prod", "--trunc", "8"), True),
    (("artinhasse", "--q", "2", "@cw8_a"), False),
)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("inputs")
    for name, (index, flavor, ring, components) in FILES.items():
        if isinstance(index, tuple):
            group, labels = {"cyclic_trunc": list(index)}, list(index)
        else:
            group, labels = index.name, list(index_labels(index))
        doc = {"schema_version": 1, "group": group, "flavor": flavor, "ring": ring,
               "components": components, "labels": labels}
        (directory / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    return directory


def resolve(argv, directory):
    return [str(directory / f"{a[1:]}.json") if a.startswith("@") else a for a in argv]


def in_process(argv, capsys):
    assert main(argv) == 0
    return capsys.readouterr().out.encode()


def entry_point(argv, cache):
    return subprocess.run([sys.executable, "-m", "wittburnside", *argv],
                          capture_output=True, env=dict(os.environ, WB_CACHE_DIR=str(cache)))


@pytest.mark.parametrize("argv,derives", CASES, ids=[" ".join(argv) for argv, _ in CASES])
def test_the_entry_point_prints_what_main_prints(argv, derives, inputs, tmp_path, capsys,
                                                 monkeypatch):
    argv = resolve(argv, inputs)
    monkeypatch.delenv("WB_CACHE_DIR", raising=False)
    want = in_process(argv, capsys)
    cache = tmp_path / "cache"
    proc = entry_point(argv, cache)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b""
    assert proc.stdout == want
    if derives:
        entries = sorted(cache.iterdir())
        assert entries and all(e.name.endswith(".json") for e in entries), entries
        for entry in entries:
            doc = json.loads(entry.read_text(encoding="utf-8"))
            assert sorted(doc) == ["polys", "vars"] and doc["polys"]


def test_an_output_larger_than_a_pipe_buffer_arrives_whole(tmp_path, capsys, monkeypatch):
    argv = ["universal", "--group", "D6", "--op", "prod"]
    monkeypatch.delenv("WB_CACHE_DIR", raising=False)
    want = in_process(argv, capsys)
    assert len(want) > 65536  # Linux's default pipe capacity
    proc = entry_point(argv, tmp_path / "cache")  # stdout is a pipe
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == want
