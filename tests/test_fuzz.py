"""Seeded fuzzing of the text parsers (ring values, ring specs, group descriptors)
and of the vector loader's nesting depth.

Every input must parse, or fail with SchemaError or DomainError, and each
must do so within a time budget: a parser that accepts text it then takes
seconds to read (such as an exponent of ten million digits' worth) fails
here as surely as one that lets another exception escape.  Stdlib only.
"""
import random
import time

import pytest

from wittburnside.cli import main
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
