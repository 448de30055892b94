"""The CLI's help and usage text, byte for byte.

Every parser's `--help`, every parser path given with no further arguments
(its usage error) and a few malformed command lines are run in-process
through `main()` at a fixed terminal width.  Their stdout, stderr and exit
code are pinned in tests/goldens/cli_usage.json; argparse's layout changes
between Python minor versions, so the goldens hold for the version that
recorded them.  To re-record after a deliberate change to the parser:

    PYTHONPATH=src python tests/test_cli_usage.py
"""
import argparse
import json
import pathlib
import sys

import pytest

from wittburnside.cli import _parser, main

GOLDEN = pathlib.Path(__file__).resolve().parent / "goldens" / "cli_usage.json"
COLUMNS = "80"

_FAMILIES = ("witt", "necklace", "aperiodic")
_OPS = ("add", "mul", "neg")
_QWITT = ("add", "mul", "neg", "ghost", "teichmuller", "theta", "frobenius",
          "verschiebung", "tryone")

# every parser, named by the words that reach it
PATHS = (
    (), ("group",), ("group", "info"),
    *((f, *op) for f in _FAMILIES for op in ((), *((o,) for o in _OPS))),
    ("ghost",), ("teichmuller",), ("theta",), ("ind",), ("res",), ("universal",),
    ("cyclic",),
    *(("cyclic", f, *op) for f in _FAMILIES for op in ((), *((o,) for o in _OPS))),
    *(("cyclic", v) for v in ("ghost", "theta", "frobenius", "verschiebung")),
    ("qpoly",), ("quniversal",),
    ("qwitt",), *(("qwitt", v) for v in _QWITT),
    ("artinhasse",), ("verify",),
)

MALFORMED = (
    ("bogus",), ("--bogus",), ("Witt",), ("wit",), ("-h", "witt"), ("witt", "-h", "mul"),
    ("witt", "mul"), ("cyclic", "bogus"),
)

# a bare `verify` runs the suite instead of failing, so it has no usage case
CASES = tuple(dict.fromkeys((
    *(path + ("--help",) for path in PATHS),
    *(path for path in PATHS if path != ("verify",)),
    *MALFORMED,
)))


def _run(argv):
    try:
        code = main(list(argv))
    except SystemExit as e:
        code = e.code
    return code


def test_every_parser_is_covered():
    assert len(PATHS) == 52 and len(set(PATHS)) == 52


@pytest.fixture(scope="module")
def golden():
    doc = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if doc["python"] != "%d.%d" % sys.version_info[:2]:
        pytest.skip(f"argparse layout recorded under Python {doc['python']}")
    return doc["cases"]


@pytest.mark.parametrize("argv", CASES, ids=lambda argv: " ".join(argv) or "(bare)")
def test_usage_text_is_pinned(golden, argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    code = _run(argv)
    out = capsys.readouterr()
    assert {"code": code, "stdout": out.out, "stderr": out.err} == golden[" ".join(argv)]


# one valid command line per leaf parser; the files need not exist to parse
LEAVES = (
    ("group", "info", "--group", "S3"),
    *((f, op, "a.json", "b.json") for f in _FAMILIES for op in ("add", "mul")),
    *((f, "neg", "a.json", "--ring", "Z") for f in _FAMILIES),
    ("ghost", "a.json", "--flavor", "Witt"),
    ("teichmuller", "--inverse", "a.json"),
    ("theta", "a.json", "--ring", "Q"),
    ("ind", "--group", "D6", "--class", "6a", "a.json"),
    ("res", "--class", "2a", "--group", "S3", "a.json"),
    ("universal", "--group", "D4", "--op", "prod"),
    *(("cyclic", f, "add", "a.json", "b.json") for f in _FAMILIES),
    *(("cyclic", f, "mul", "a.json") for f in _FAMILIES),
    *(("cyclic", f, "neg", "a.json") for f in _FAMILIES),
    ("cyclic", "ghost", "a.json", "--flavor", "Necklace"),
    ("cyclic", "theta", "--inverse", "a.json"),
    ("cyclic", "frobenius", "--r", "2", "a.json"),
    ("cyclic", "verschiebung", "--r", "3", "a.json"),
    ("qpoly", "tau", "--n", "6"),
    ("quniversal", "--op", "sum", "--trunc", "6"),
    ("qwitt", "add", "--q", "2", "a.json", "b.json"),
    ("qwitt", "mul", "--q", "q", "a.json", "b.json", "--ring", "Q[q]"),
    ("qwitt", "neg", "--q", "-1", "a.json"),
    ("qwitt", "ghost", "--q", "2", "a.json"),
    ("qwitt", "teichmuller", "--q", "2", "--inverse", "a.json"),
    ("qwitt", "theta", "a.json"),
    ("qwitt", "frobenius", "--q", "3", "--r", "2", "a.json"),
    ("qwitt", "verschiebung", "--r", "2", "a.json"),
    ("qwitt", "tryone", "--q", "2", "--trunc-set", "1,2,4"),
    ("artinhasse", "--q", "2", "--inverse", "--trunc", "4", "c.json"),
    ("verify", "--suite", "diagrams", "--seed", "7", "--size", "2", "--inject-fault"),
)


def _path(argv):
    return max((p for p in PATHS if argv[:len(p)] == p), key=len)


def test_every_leaf_parser_has_a_command_line():
    leaves = {p for p in PATHS if not any(q[:len(p)] == p and q != p for q in PATHS)}
    assert sorted(map(_path, LEAVES)) == sorted(leaves)


@pytest.mark.parametrize("argv", LEAVES, ids=" ".join)
def test_verb_parser_parses_like_the_full_one(argv):
    assert vars(_parser(argv).parse_args(argv)) == vars(_parser().parse_args(argv))


def _verb_parsers(ap):
    action = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


@pytest.mark.parametrize("verb", ["witt", "cyclic", "qwitt", "verify"])
def test_only_the_named_verb_is_filled_in(verb):
    verbs = _verb_parsers(_parser([verb, "--help"]))
    full = _verb_parsers(_parser())
    assert list(verbs) == list(full)
    for name, p in verbs.items():
        if name == verb:
            assert p.format_help() == full[name].format_help()
        else:
            assert [a.dest for a in p._actions] == ["help"], name


def _record():
    import contextlib
    import io
    import os

    os.environ["COLUMNS"] = COLUMNS
    cases = {}
    for argv in CASES:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = _run(argv)
        cases[" ".join(argv)] = {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    doc = {"python": "%d.%d" % sys.version_info[:2], "cases": cases}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _record()
