"""Seeded fuzzing of the text parsers (ring values, ring specs, group descriptors),
of the vector loader's nesting depth and of the CLI's integer flags.

Every input must parse, or fail with SchemaError or DomainError, and each
must do so within a time budget: a parser that accepts text it then takes
seconds to read (such as an exponent of ten million digits' worth) fails
here as surely as one that lets another exception escape.  Stdlib only.
"""
import json
import pathlib
import random
import time

import pytest

from wittburnside.cli import _match, _parser, main
from wittburnside.errors import DomainError, SchemaError
from wittburnside.groups import build_group
from wittburnside.rings import RingValue, parse_ring

RINGS = ("Z", "Q", "Z/8", "Q[q]", "ZPoly(x,y)", "QPoly(x,y)")
# the number and polynomial grammar's characters, the cycle and group
# notation's, and one non-ASCII digit (Arabic-Indic three)
ALPHABET = "0123456789xyq+-*/^.eE_(),ZQPolyCDS ٣"
BUDGET_S = 0.25  # per input and parser; every accepted input here takes well under 10 ms
COUNT = 1500

FIXED = [
    "1e5000", "-1E-5000", "1e9999999", "225E65893٣6", "1e4000", "1" * 4301,
    "10" * 200 + "e-4000", "x^" + "9" * 4301, "q^99999999999", "q^1000001",
    "(1 999999999999)", "(1 99999999)", "(1,10001)", "C" + "9" * 5000, "Z/" + "7" * 4301,
    "", "()", "(", ")", "^", "e", "1/0", "1__0", "٣", "x-1", "-q^2",
]


def random_inputs(seed, count):
    rng = random.Random(seed)
    return ["".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 14))) for _ in range(count)]


def parsers():
    for name in RINGS:
        R = parse_ring(name)
        yield name, lambda text, R=R: RingValue.parse(R, text)
    yield "parse_ring", parse_ring
    yield "build_group", build_group


def check(parse, text):
    """Whether text parsed; it fails unless it parsed or was refused in time."""
    start = time.perf_counter()
    try:
        parse(text)
        parsed = True
    except (SchemaError, DomainError):
        parsed = False
    elapsed = time.perf_counter() - start
    assert elapsed < BUDGET_S, f"{text!r} took {elapsed:.2f} s"
    return parsed


@pytest.mark.parametrize("name,parse", list(parsers()), ids=[n for n, _ in parsers()])
def test_fixed_inputs_parse_or_are_refused_in_time(name, parse):
    for text in FIXED:
        check(parse, text)


@pytest.mark.parametrize("name,parse", list(parsers()), ids=[n for n, _ in parsers()])
def test_random_inputs_parse_or_are_refused_in_time(name, parse):
    outcomes = {check(parse, text) for text in random_inputs(f"fuzz:{name}", COUNT)}
    # some inputs parse and some do not, or only a parser's first check ran
    assert outcomes == {True, False}


@pytest.mark.parametrize("text", ["[" * 100_000, "[" * 100_000 + "]" * 100_000,
                                  '{"schema_version": 1, "group": {"cyclic_trunc": '
                                  + "[" * 100_000 + "]" * 100_000 + "}}"],
                         ids=("open", "closed", "in a document"))
def test_deeply_nested_json_is_refused(tmp_path, capsys, text):
    # the JSON decoder recurses once per level, so a deep document cannot be read
    path = tmp_path / "deep.json"
    path.write_text(text, encoding="utf-8")
    for argv in (("ghost", str(path)), ("cyclic", "ghost", str(path))):
        assert main(list(argv)) == 2
        assert "nests JSON deeper than the decoder can read" in capsys.readouterr().err


def nested(depth):
    component = "1"
    for _ in range(depth):
        component = [component]
    return component


@pytest.mark.parametrize("ring", RINGS)
@pytest.mark.parametrize("component", ["1" * 200_000, "x" * 200_000, nested(900)],
                         ids=("long number", "long word", "nested 900 deep"))
def test_an_unreadable_component_is_quoted_in_an_excerpt(tmp_path, capsys, ring, component):
    # the message names the component, but never echoes all of it
    doc = {"schema_version": 1, "group": "C2", "flavor": "Witt", "ring": ring,
           "labels": ["G", "1"], "components": [component, "0"]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["ghost", str(path)]) == 2
    err = capsys.readouterr().err
    assert "does not parse" in err and len(err.encode()) < 1024, err[:2000]


# --- the integer flags -------------------------------------------------------

WITT_DIV12 = str(pathlib.Path(__file__).resolve().parent / "goldens" / "inputs"
                 / "witt_div12_a.json")
# command lines per integer flag, None where its value goes; these verbs run
RUN = {
    "--r": (("cyclic", "frobenius", "--r", None, WITT_DIV12),
            ("cyclic", "verschiebung", "--r", None, WITT_DIV12),
            ("qwitt", "frobenius", "--q", "2", "--r", None, WITT_DIV12)),
    "--n": (("qpoly", "tau", "--n", None),),
    "--seed": (("verify", "--suite", "ghosts", "--seed", None),),
    # an integer q is still unbounded: one of a thousand digits on a set with
    # members near 10^4 takes about 20 s before it exits 3 (the open stall of
    # ROADMAP's "One work budget for the q-model"), so q stays at most 10^18
    # here, on div(12)
    "--q": (("qwitt", "ghost", "--q", None, WITT_DIV12),
            ("qwitt", "frobenius", "--q", None, "--r", "2", WITT_DIV12)),
}
# these verbs can run for seconds at a valid value, so they are only parsed
PARSE = {
    "--trunc": (("quniversal", "--op", "neg", "--trunc", None),
                ("qwitt", "tryone", "--q", "2", "--trunc", None),
                ("artinhasse", "--q", "2", "--trunc", None, "c.json")),
    "--size": (("verify", "--suite", "ghosts", "--size", None),),
}
FLAG_BUDGET_S = 1.0  # per command line; every case here takes well under 0.1 s
ARABIC_INDIC = {ord("0") + d: 0x660 + d for d in range(10)}  # for str.translate


def flag_cases(flag, templates, count=40):
    """count seeded command lines: each template with flag's value in one of
    the forms int() and argparse read, given as --flag VALUE, --flag=VALUE
    or abbreviated."""
    rng = random.Random(f"flags:{flag}")
    for _ in range(count):
        n = str(rng.choice((1, 2, 3, 6, 12, 120, 121, 10**6, 10**18)))
        value = rng.choice((n, "-" + n, "0", "_".join(n), f" {n} ", n.translate(ARABIC_INDIC),
                            "", "9" * 4400))
        short = flag[:-1] if len(flag) > 3 else flag  # "--r" has no abbreviation
        words = rng.choice(([flag, value], [f"{flag}={value}"], [short, value]))
        argv = list(rng.choice(templates))
        at = argv.index(None)
        argv[at - 1:at + 1] = words
        yield argv


def parse(argv):
    """argv parsed as main parses it, checking that the parse without argparse,
    when it takes argv, agrees; None when argparse refuses argv."""
    try:
        args = _parser(argv).parse_args(argv)
    except SystemExit as e:
        assert e.code == 2, argv
        assert _match(argv) is None, argv
        return None
    matched = _match(argv)
    assert matched is None or vars(matched) == vars(args), argv
    return args


@pytest.mark.parametrize("flag", [*RUN, *PARSE])
def test_integer_flags_exit_0_2_or_3_in_time(flag, capsys):
    run = flag in RUN
    for argv in flag_cases(flag, RUN[flag] if run else PARSE[flag]):
        start = time.perf_counter()
        args = parse(argv)
        if run and args is not None:
            code = main(argv)
            assert code in (0, 2, 3), argv
        elapsed = time.perf_counter() - start
        assert elapsed < FLAG_BUDGET_S, f"{' '.join(argv)[:200]} took {elapsed:.2f} s"
        assert "Traceback" not in capsys.readouterr().err
