"""The point route of `GhostSystem.apply` against the polynomial route.

Over ZPoly, and over QPoly at integer coefficients, `apply` solves an
operation over Z at one point where `universal._point_room` says that pays
(`GhostSystem._at_point`); `GhostSystem._solve` is the polynomial route
itself.  Both must give the same polynomials and the same refusals, on every
table the route takes: the Witt, necklace and aperiodic tables of groups and
truncation sets, their Frobenius, and the q-model's at an integer q.  Inputs
are seeded, and each test checks that the route ran, so that a rule that
sent everything back could not pass unnoticed.
"""
import random

import pytest

from wittburnside.cyclic import TruncationSet
from wittburnside.errors import DomainError, IntegralityViolation
from wittburnside.groups import build_group
from wittburnside.qdeform import q_universal
from wittburnside.rings import MultiPoly, PolyRing
from wittburnside.universal import (
    APERIODIC,
    NECKLACE,
    OPS,
    WITT,
    GhostSystem,
    flavor_table,
    ghost_system,
)

GROUPS = ("C1", "C2", "C3", "C4", "S3", "C6", "D4", "Q8", "C12", "D6", "S4")
TRUNCATIONS = {"div12": TruncationSet.div(12), "1..8": TruncationSet(range(1, 9)),
               "1..32": TruncationSet(range(1, 33)), "{1,3,5,15}": TruncationSet([1, 3, 5, 15])}
BIG = 2 ** 63


def ring(rng, nvars=None):
    nvars = nvars or rng.randint(1, 3)
    return PolyRing(("x", "y", "z")[:nvars], rational=rng.random() < 0.3)


def payload(rng, R, big=False):
    """0, a constant, or a constant and up to two terms of exponents up to 2,
    with coefficients up to 9 (times about 2^63 when big)."""
    scale = (lambda: BIG + rng.randint(0, 999)) if big else (lambda: 1)
    kind = rng.random()
    if kind < 0.1:
        return R.zero()
    terms = {(0,) * len(R.vars): rng.choice((-1, 1)) * rng.randint(1, 9) * scale()}
    if kind > 0.25:
        for _ in range(rng.randint(1, 2)):
            e = tuple(rng.randint(0, 2) for _ in R.vars)
            terms[e] = terms.get(e, 0) + rng.choice((-1, 1)) * rng.randint(1, 9) * scale()
    return MultiPoly(R.vars, terms)


def outcome(f, *args):
    try:
        return f(*args)
    except DomainError as e:
        return type(e), str(e)


def routed(system, R, xs, q=None):
    """Compare the point route with the polynomial route at xs; whether the
    point route ran."""
    want = outcome(system._solve, R, xs, q)
    assert outcome(system.apply, R, xs, q) == want
    got = outcome(system._at_point, R, xs, q) if system._pointwise else None
    if got is None:
        return False
    assert got == want
    return True


def run_cases(rng, system, count, q=None, nvars=None, wide=0.2):
    """count seeded cases of system, a share `wide` of them with wide
    coefficients; how many took the point route."""
    taken = 0
    arity = 2 if system.op in ("sum", "prod") else 1
    for _ in range(count):
        R = ring(rng, nvars)
        big = rng.random() < wide
        xs = [payload(rng, R, big) for _ in range(arity * len(system.table))]
        taken += routed(system, R, xs, q)
    return taken


@pytest.mark.parametrize("name", GROUPS)
def test_groups(name):
    rng = random.Random(f"point:{name}")
    G = build_group(name)
    taken = 0
    for flavor, ops in ((WITT, OPS), (NECKLACE, ("prod",)), (APERIODIC, ("prod",))):
        for op in ops:
            # one variable on the largest groups keeps the polynomial route cheap
            taken += run_cases(rng, ghost_system(G, op, flavor, False, None), 6,
                               nvars=1 if name in ("D6", "S4") else None)
    assert taken


@pytest.mark.parametrize("name", sorted(TRUNCATIONS))
def test_truncation_sets(name):
    rng = random.Random(f"point:{name}")
    T = TRUNCATIONS[name]
    nvars = 1 if name == "1..32" else None
    taken = 0
    for flavor, ops in ((WITT, OPS), (NECKLACE, ("prod",)), (APERIODIC, ("prod",))):
        for op in ops:
            taken += run_cases(rng, ghost_system(T, op, flavor, False, None), 8, nvars=nvars)
    for r in (2, 3):
        if any(r * n in T for n in T):
            for flavor in (WITT, NECKLACE):
                taken += run_cases(rng, ghost_system(T, f"frob{r}", flavor, False, r), 8,
                                   nvars=nvars)
    assert taken


@pytest.mark.parametrize("q", (-1, 2, 3))
def test_q_model_at_an_integer_q(q):
    rng = random.Random(f"point:q{q}")
    taken = 0
    # the polynomial route scales by powers of q: few variables keep it cheap
    for T in (TruncationSet.div(12), TruncationSet(range(1, 9))):
        for op in OPS:
            taken += run_cases(rng, ghost_system(T, op, WITT, True, None), 6, q, 1, 0.1)
        taken += run_cases(rng, ghost_system(T, "prod", NECKLACE, True, None), 6, q, 2, 0.1)
        for r in (2, 3):
            taken += run_cases(rng, ghost_system(T, f"frob{r}", WITT, True, r), 6, q, 2, 0.1)
    assert taken


def test_zero_constant_and_wide_payloads():
    """All-zero inputs, constants alone, and coefficients of 2^63 and more,
    whose digits are wider than a machine word."""
    T = TruncationSet(range(1, 5))
    system = ghost_system(T, "prod", WITT, False, None)
    for nvars in (1, 2, 3):
        R = PolyRing(("x", "y", "z")[:nvars], rational=False)
        k = 2 * len(system.table)
        assert routed(system, R, [R.zero()] * k)
        assert routed(system, R, [R.from_int(c) for c in range(-4, k - 4)])
        assert routed(system, R, [R.from_int(BIG + c) for c in range(k)])
        x = R.variable("x")
        assert routed(system, R, [x * (BIG - 1) + R.from_int(BIG * 3 + c) for c in range(k)])


def test_digits_as_wide_as_the_bound():
    """Monomial payloads meet the 1-norm bound exactly: the product of
    +-3.1e9 x and 3.1e9 y has absolute value between 2^63 and 2^64, so its
    digit takes 9 bytes, where half the bound would give 8."""
    system = ghost_system(TruncationSet([1]), "prod", WITT, False, None)
    R = PolyRing(("x", "y"), rational=False)
    x, y = R.variable("x"), R.variable("y")
    c = 3_100_000_000
    for s in (1, -1):
        assert routed(system, R, [x * (s * c), y * c])
        assert system.apply(R, [x * (s * c), y * c]) == [x * y * (s * c * c)]


def test_a_row_that_is_not_integral():
    """A row whose diagonal weight does not divide it: over ZPoly both routes
    refuse it naming the row, over QPoly the point route leaves the solve to
    the polynomial route, which divides."""
    T = TruncationSet([1, 2])
    # w_1 = x_1, w_2 = x_1^2 + 3 x_2: the sum's second row is
    # a_2 + b_2 - 2 a_1 b_1 / 3
    table = (((0, 1, 1, 0),), ((0, 1, 2, 0), (1, 3, 1, 0)))
    system = GhostSystem(T, table, "sum")
    Z, Q = PolyRing(("x",), rational=False), PolyRing(("x",), rational=True)
    for R in (Z, Q):
        x = R.variable("x")
        xs = [x, R.zero(), R.from_int(1), R.zero()]
        assert system._pointwise
        if R is Z:
            with pytest.raises(IntegralityViolation, match="sum has fractional coefficients "
                                                           "at index 2 over ZPoly"):
                system._at_point(R, xs, None)
        else:
            assert system._at_point(R, xs, None) is None
        assert routed(system, R, xs) is (R is Z)
    assert system.apply(Q, [Q.variable("x"), Q.zero(), Q.from_int(3), Q.zero()], None) == [
        Q.variable("x") + Q.from_int(3), Q.variable("x") * -2]


def test_universal_derivations_keep_the_polynomial_route(monkeypatch):
    def refuse(*args):
        raise AssertionError("a universal derivation took the point route")

    monkeypatch.setattr(GhostSystem, "_at_point", refuse)
    D4, S4, T = build_group("D4"), build_group("S4"), TruncationSet.div(8)
    fresh = [GhostSystem(D4, flavor_table(D4, WITT), "prod"),
             GhostSystem(S4, flavor_table(S4, WITT), "prod"),
             GhostSystem(T, flavor_table(T, WITT, True), "prod", True)]
    for system in fresh:
        assert system.polys
    assert q_universal(T, "prod").polys == fresh[2].polys
