"""The CLI's help and usage text, byte for byte.

Every parser's `--help`, every parser path given with no further arguments
(its usage error) and a few malformed command lines are run in-process
through `main()` at a fixed terminal width.  Their stdout, stderr and exit
code are pinned in tests/goldens/cli_usage.json; argparse's layout changes
between Python minor versions, so the goldens hold for the version that
recorded them.  The parse without argparse (`cli._match`) must give
argparse's namespace on every leaf command line and leave seeded near
misses to argparse; those tests run on every Python version.  To re-record
after a deliberate change to the parser:

    PYTHONPATH=src python tests/test_cli_usage.py
"""
import contextlib
import io
import json
import pathlib
import random
import sys

import pytest

from wittburnside.cli import _match, _parser, main

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
    # a top-level error after a named verb prints the usage with every verb
    ("witt", "mul", "A", "B", "--bogus"), ("cyclic", "witt", "mul", "A", "B", "--bogus"),
    ("qwitt", "ghost", "--q", "2", "A", "--bogus"),
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
    full = vars(_parser().parse_args(argv))
    assert vars(_parser(argv).parse_args(argv)) == full
    matched = _match(argv)  # the parse without argparse, when it takes argv
    assert matched is None or vars(matched) == full


def test_the_fast_parse_takes_every_plain_leaf_command_line():
    # a value that starts with "-" is argparse's to read: its rule for
    # negative numbers differs between Python versions
    assert [argv for argv in LEAVES if _match(argv) is None] == [
        ("qwitt", "neg", "--q", "-1", "a.json")]


# --- near misses: what the fast parse must leave to argparse ---------------------

FLAGS = ("--inverse", "--inject-fault")
# option values: negative, not an int, outside every choice, int() forms
VALUES = ("-1", "-q", "0", "x", "1.5", "1_0", " 7 ", "\u0663", "", "Bogus", "witt", "1" * 4400)


def _items(argv):
    """The verb words of a leaf argv, and its options (each with its value,
    if any) and positionals, as lists."""
    path, items = list(_path(argv)), []
    rest = list(argv[len(path):])
    while rest:
        word = rest.pop(0)
        items.append([word, rest.pop(0)] if word.startswith("--") and word not in FLAGS
                     else [word])
    return path, items


def _near_miss(rng):
    path, items = _items(rng.choice(LEAVES))
    options = [item for item in items if item[0].startswith("--")]
    valued = [item for item in items if len(item) == 2]
    kind = rng.choice(("abbreviate", "joined", "repeat", "value", "drop", "extra",
                       "interleave", "help", "verb"))
    if kind == "abbreviate" and options:
        option = rng.choice(options)
        option[0] = option[0][:rng.randint(3, max(3, len(option[0]) - 1))]
    elif kind == "joined" and valued:
        option = rng.choice(valued)
        option[:] = ["=".join(option)]
    elif kind == "repeat" and options:
        items.insert(rng.randint(0, len(items)), list(rng.choice(options)))
    elif kind == "value" and valued:
        rng.choice(valued)[1] = rng.choice(VALUES)
    elif kind == "drop" and items:
        items.pop(rng.randrange(len(items)))
    elif kind == "extra":
        items.insert(rng.randint(0, len(items)), ["x.json"])
    elif kind == "interleave":  # most leaves take --ring, and some two positionals
        items += [] if ["--ring"] in [item[:1] for item in items] else [["--ring", "Z"]]
        rng.shuffle(items)
    elif kind == "verb":
        depth = rng.randrange(len(path))
        path[depth] = rng.choice((path[depth][:-1], path[depth].capitalize(), "bogus"))
    argv = path + [word for item in items for word in item]
    if kind == "help":  # at any depth, and the end of options
        argv.insert(rng.randint(0, len(argv)), rng.choice(("-h", "--help", "--")))
    return tuple(argv)


def test_near_misses_are_left_to_argparse(capsys):
    # a command line argparse refuses gets no namespace from the fast parse,
    # and one it takes gets argparse's namespace or none
    rng, outcomes = random.Random("near-miss"), set()
    for argv in dict.fromkeys(_near_miss(rng) for _ in range(600)):
        try:
            want = vars(_parser(argv).parse_args(argv))
        except SystemExit:
            want = None
        got = _match(argv)
        assert got is None or vars(got) == want, argv
        outcomes.add((want is None, got is None))
    capsys.readouterr()  # argparse's help and usage errors
    # refused, parsed by both, and parsed by argparse alone each occurred
    assert outcomes == {(True, True), (False, False), (False, True)}


def _help(ap, argv):
    """What parsing argv with ap prints to stdout (argv asks for help)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
        ap.parse_args(argv)
    return out.getvalue()


@pytest.mark.parametrize("verb", ["witt", "cyclic", "qwitt", "verify", "cyclic witt",
                                  "qwitt mul", "group info"])
def test_named_verb_parser_prints_the_full_help_and_usage(verb, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    argv = verb.split() + ["--help"]
    assert _parser(argv).format_usage() == _parser().format_usage()
    assert _help(_parser(argv), argv) == _help(_parser(), argv)


def _record():
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
