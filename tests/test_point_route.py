"""The point route of `GhostSystem.apply` against the polynomial route.

Over ZPoly and QPoly `apply` solves an operation over Z at one point where
`universal._point_room` says that pays (`GhostSystem._at_point`), and over
QPoly a row that needs a denominator carries one; `GhostSystem._solve` is
the polynomial route itself.  Both must give the same polynomials and the
same refusals, on every table the route takes: the Witt, necklace and
aperiodic tables of groups and truncation sets, their Frobenius, the
q-model's at an integer q, and the transports, witt_v and witt_f, compared
through their public maps with the route forced off.  Inputs are seeded,
and each test checks that the route ran, so that a rule that sent
everything back could not pass unnoticed.
"""
import math
import random
from fractions import Fraction

import pytest

from wittburnside.burnside import (
    IndexedVector,
    _transport_system,
    gamma,
    gamma_inv,
    teichmuller,
    teichmuller_inv,
    witt_f,
    witt_v,
)
from wittburnside.cyclic import CyclicVector, TruncationSet
from wittburnside.errors import DomainError, IntegralityViolation, NotInImage
from wittburnside.groups import build_group, subgroup_classes, subgroup_group
from wittburnside.qdeform import QContext, q_teichmuller, q_teichmuller_inv, q_universal
from wittburnside.rings import POWER_BOUND, ZZ, MultiPoly, PolyRing, cached_power
from wittburnside.universal import (
    APERIODIC,
    NECKLACE,
    OPS,
    POINT_BYTES,
    WITT,
    GhostSystem,
    _packed_power,
    _point_room,
    flavor_table,
    ghost_system,
    index_labels,
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
    refuse it naming the row, over QPoly the point route carries the row's
    denominator and gives the polynomial route's quotient."""
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
            assert system._at_point(R, xs, None) == [x + R.one(), x * R.from_fraction(Fraction(-2, 3))]
        assert routed(system, R, xs)
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


# --- the transports, witt_v and witt_f through their public maps -------------

ZXY, QXY = PolyRing(("x", "y"), rational=False), PolyRing(("x", "y"), rational=True)
DENOMINATORS = (2, 3, 4, 6, 2 ** 64 + 13)
# A4 x C2, given by generators: its class of C2^3 has 16 subgroup classes to
# G's 12, so witt_v's system there reads more payloads than it has rows
A4xC2 = "(1 2 3),(1 2)(3 4),(5 6)"
MAP_GROUPS = ("C1", "C6", "S3", "D4", "Q8", "D6", "S4", A4xC2)
KINDS = ("zero", "constant", "integral", "rational")


def map_payload(rng, R, kind, degree):
    """A payload of one kind: 0, a constant, or a constant and up to two terms
    of degree up to `degree` per variable, with integer coefficients or (over
    QPoly) coefficients over the DENOMINATORS."""
    def c():
        den = rng.choice(DENOMINATORS) if kind == "rational" and rng.random() < 0.7 else 1
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), den)

    if kind == "zero" or kind != "constant" and rng.random() < 0.1:
        return R.zero()
    terms = {(0, 0): c()}
    if kind != "constant":
        for _ in range(rng.randint(1, 2)):
            e = (rng.randint(0, degree), rng.randint(0, degree))
            terms[e] = terms.get(e, 0) + c()
    return MultiPoly(R.vars, terms)


def forced(monkeypatch, f, *args):
    """(point, polynomial): f's outcomes with the point route allowed, and
    forced off; point is None when the route solved or refused at no
    system."""
    ran = []
    at_point = GhostSystem._at_point

    def counted(self, R, xs, q):
        ran.append(True)  # a refusal has run the route
        out = at_point(self, R, xs, q)
        ran[-1] = out is not None
        return out

    with monkeypatch.context() as m:
        m.setattr(GhostSystem, "_at_point", counted)
        got = outcome(f, *args)
    with monkeypatch.context() as m:
        m.setattr(GhostSystem, "_at_point", lambda self, R, xs, q: None)
        want = outcome(f, *args)
    return (got if any(ran) else None), want


def same(got, want):
    """The same vector, and the same format() bytes, or the same refusal."""
    assert got == want
    if not isinstance(want, tuple):
        assert [c.format() for c in got.components] == [c.format() for c in want.components]


def vector(rng, index, flavor, R, kind, degree, cls=IndexedVector):
    return cls.from_payloads(index, flavor, R, [map_payload(rng, R, kind, degree)
                                                for _ in index_labels(index)])


def group_cases(G, fam):
    """(function of a vector, the vector's index and flavor) for each map
    case on G: every subgroup class but G for witt_v and witt_f, at most
    four of them."""
    if fam in ("witt_v", "witt_f"):
        classes = range(1, len(subgroup_classes(G))) or [0]
        for ci in list(classes)[:4]:
            if fam == "witt_v":
                yield (lambda x, ci=ci: witt_v(G, ci, x)), subgroup_group(G, ci), WITT
            else:
                yield (lambda x, ci=ci: witt_f(G, ci, x)), G, WITT
        return
    source = {"teichmuller": WITT, "teichmuller_inv": NECKLACE, "gamma": WITT,
              "gamma_inv": APERIODIC}[fam]
    yield {"teichmuller": teichmuller, "teichmuller_inv": teichmuller_inv, "gamma": gamma,
           "gamma_inv": gamma_inv}[fam], G, source


@pytest.mark.parametrize("name", MAP_GROUPS)
@pytest.mark.parametrize("fam", ("teichmuller", "teichmuller_inv", "gamma", "gamma_inv",
                                 "witt_v", "witt_f"))
def test_group_maps(monkeypatch, fam, name):
    rng = random.Random(f"maps:{fam}:{name}")
    G = build_group(name)
    # the groups past order 8 raise payloads to powers up to 12 and 24:
    # linear payloads keep the polynomial route cheap
    degree = 1 if G.order > 8 else 2
    taken = 0
    for R in (ZXY, QXY):
        for kind in KINDS[:3] if R is ZXY else KINDS:
            for f, index, flavor in group_cases(G, fam):
                got, want = forced(monkeypatch, f, vector(rng, index, flavor, R, kind, degree))
                if got is not None:
                    same(got, want)
                    taken += 1
    assert taken


@pytest.mark.parametrize("tname", ("1..8", "div12"))
@pytest.mark.parametrize("q", (2, -1))
@pytest.mark.parametrize("inverse", (False, True), ids=("q_teichmuller", "q_teichmuller_inv"))
def test_q_transports(monkeypatch, tname, q, inverse):
    rng = random.Random(f"maps:q{q}:{tname}:{inverse}")
    T = TRUNCATIONS[tname] if tname in TRUNCATIONS else TruncationSet(range(1, 9))
    ctx = QContext(q)
    f = q_teichmuller_inv if inverse else q_teichmuller
    taken = 0
    for R in (ZXY, QXY):
        for kind in KINDS[:3] if R is ZXY else KINDS:
            for _ in range(2):
                x = vector(rng, T, NECKLACE if inverse else WITT, R, kind, 1, CyclicVector)
                got, want = forced(monkeypatch, f, ctx, x)
                if got is not None:
                    same(got, want)
                    taken += 1
    assert taken


@pytest.mark.parametrize("name", ("C6", "S3", "D4"))
def test_refusals_over_zpoly_name_the_same_row(monkeypatch, name):
    """A necklace vector outside the Teichmuller image over ZPoly, and an
    aperiodic one outside gamma's: the point route refuses it with the
    polynomial route's exception and text, naming the same row."""
    G = build_group(name)
    x = ZXY.variable("x")
    k = len(subgroup_classes(G))
    # x at G and 0 elsewhere: the row of the next class divides x - x^2 by
    # its diagonal mark, which does not divide it
    outside = IndexedVector.from_payloads(G, NECKLACE, ZXY, [x] + [ZXY.zero()] * (k - 1))
    got, want = forced(monkeypatch, teichmuller_inv, outside)
    assert got is not None and got == want
    assert want[0] is NotInImage
    assert want[1].startswith("vector is not a teichmuller image over ZPoly(x,y) at class ")
    ap = IndexedVector.from_payloads(G, APERIODIC, ZXY, outside.payloads())
    got, want = forced(monkeypatch, gamma_inv, ap)
    assert got == want and want[0] is NotInImage


def test_rational_rows_read_back_over_their_denominators():
    """Non-integral payloads over QPoly take the route, as do the rows of
    the Teichmuller image that need a denominator; a denominator above 2^64
    comes back exactly."""
    G = build_group("S3")
    big = 2 ** 64 + 13
    x, y = QXY.variable("x"), QXY.variable("y")
    c = QXY.from_fraction
    alpha = IndexedVector.from_payloads(
        G, WITT, QXY, [x * c(Fraction(1, 2)), y * c(Fraction(5, big)), c(Fraction(1, 3)),
                       x * y * c(Fraction(3, 4)) + c(Fraction(1, 6))])
    system = _transport_system(G, WITT, NECKLACE, False, IntegralityViolation,
                               "teichmuller escaped {ring} at {row}")
    assert system._at_point(QXY, alpha.payloads(), None) is not None
    tau = teichmuller(alpha)
    assert teichmuller_inv(tau) == alpha
    assert any(type(c) is Fraction and c.denominator % big == 0
               for p in tau.payloads() for c in p.terms.values())


# --- powers at the point, and the boxes the size rule admits -----------------


def test_a_packed_power_squares_its_cached_half():
    """`_packed_power` is x ** e at every e in 2..24, for signed integers up to
    300 bits, whether the powers below e are cached or not; an even power is
    its cached half squared, and an odd one does not read the cache."""
    rng = random.Random("point:powers")
    for _ in range(30):
        x = rng.choice((-1, 1)) * rng.getrandbits(rng.randint(1, 300))
        chained = {}
        for e in range(2, 25):
            assert _packed_power([x], 0, e, chained) == x ** e
            assert _packed_power([x], 0, e, {}) == x ** e
        assert chained == {(0, e): x ** e for e in range(2, 25)}
    assert _packed_power([3], 0, 6, {(0, 3): 5}) == 25
    assert _packed_power([3], 0, 7, {(0, 3): 5}) == 3 ** 7


def test_a_packed_power_above_the_bound_is_refused_as_cached_power_refuses_it():
    e = POWER_BOUND + 2
    for x in (2, -3, 2 ** 70):
        want = outcome(cached_power, ZZ, [x], 0, e, {})
        assert want[0] is DomainError
        for powers in ({}, {(0, e // 2): x ** (e // 2)}):
            assert outcome(_packed_power, [x], 0, e, powers) == want
    for x in (0, 1, -1):
        for powers in ({}, {(0, e // 2): x ** (e // 2)}):
            assert _packed_power([x], 0, e, powers) == x ** e


def symbolic_payload(rng, R, share=0.6, low=1):
    """A payload drawn as the symbolic-mix benchmark draws one: a constant and,
    for each variable with probability `share`, one term of degree low..2."""
    k = len(R.vars)
    terms = {(0,) * k: rng.choice((-1, 1)) * rng.randint(1, 9)}
    for i in range(k):
        if rng.random() < share:
            terms[tuple(rng.randint(low, 2) if j == i else 0 for j in range(k))] = rng.choice(
                (-2, -1, 1, 2, 3))
    return MultiPoly(R.vars, terms)


def square_payload(rng, R):
    """A symbolic-mix payload at its widest: a constant, x^2 and y^2."""
    return symbolic_payload(rng, R, 1, 2)


def packed(monkeypatch, system, R, xs):
    """(box, digit bytes) of the point solve at xs, or None where the size
    rule kept the polynomial route."""
    seen = []
    solve = GhostSystem._point_solve

    def spy(self, R, xs, values, dens, q, dims, n, before):
        seen.append((math.prod(dims), n))
        return solve(self, R, xs, values, dens, q, dims, n, before)

    with monkeypatch.context() as m:
        m.setattr(GhostSystem, "_point_solve", spy)
        out = system._at_point(R, xs, None)
    return None if out is None else seen[-1]


def refit_system(where, op):
    if where in ("D4", "C6", "Q8"):
        return ghost_system(build_group(where), op, WITT, False, None)
    T = TRUNCATIONS[where]
    if op.startswith("frob"):
        return ghost_system(T, op, WITT, False, int(op[4:]))
    return ghost_system(T, op, WITT, False, None)


@pytest.mark.parametrize("where, op, R, draw", [
    ("D4", "prod", QXY, symbolic_payload), ("C6", "prod", QXY, symbolic_payload),
    ("div12", "sum", ZXY, square_payload), ("div12", "frob2", ZXY, square_payload),
    ("div12", "frob3", ZXY, square_payload)],
    ids=("D4-prod-QPoly", "C6-prod-QPoly", "div12-sum", "div12-frob2", "div12-frob3"))
def test_two_variable_boxes_the_point_route_now_takes(monkeypatch, where, op, R, draw):
    """Two-variable boxes of machine-width digits past POINT_BYTES / 2! packed
    bytes, which the nvars! rule kept on the polynomial route, take the point
    route and give the polynomial route's polynomials and format() bytes."""
    rng = random.Random(f"point:refit:{where}:{op}")
    system = refit_system(where, op)
    arity = 2 if op in ("sum", "prod") else 1
    newly = 0
    for _ in range(12):
        xs = [draw(rng, R) for _ in range(arity * len(system.labels))]
        got = packed(monkeypatch, system, R, xs)
        want = system._solve(R, xs, None)
        assert system.apply(R, xs, None) == want
        if got is not None:
            out = system._at_point(R, xs, None)
            assert out == want
            assert [p.format() for p in out] == [p.format() for p in want]
            box, n = got
            newly += n <= 8 and box * n * 2 > POINT_BYTES
    assert newly


@pytest.mark.parametrize("where, op, R, draw", [
    ("div12", "prod", ZXY, symbolic_payload),
    ("Q8", "sum", PolyRing(("x", "y", "z"), rational=False), payload)],
    ids=("div12-prod", "Q8-sum-xyz"))
def test_boxes_that_lose_at_the_point_keep_the_polynomial_route(monkeypatch, where, op, R, draw):
    """The div(12) product at symbolic-mix shapes (about 12-17 kB packed, in
    9-11 byte digits) and the Q8 sum over ZPoly(x,y,z) take longer at the
    point even with the halving chain: the size rule declines them."""
    rng = random.Random(f"point:declined:{where}:{op}")
    system = refit_system(where, op)
    declined = 0
    for _ in range(8):
        xs = [draw(rng, R) for _ in range(2 * len(system.labels))]
        if packed(monkeypatch, system, R, xs) is None:
            declined += 1
            assert system.apply(R, xs, None) == system._solve(R, xs, None)
    assert declined >= 6


def test_a_first_solve_that_a_target_denominator_fails_is_skipped(monkeypatch):
    """x/2^20 times y/3 on {1}: the target's denominator 3 * 2^20 passes the
    1-byte digits that the numerators need, so the only solve is the one in
    digits wide enough for it."""
    system = GhostSystem(TruncationSet([1]), (((0, 1, 1, 0),),), "prod")
    x, y, c = QXY.variable("x"), QXY.variable("y"), QXY.from_fraction
    xs = [x * c(Fraction(1, 2 ** 20)), y * c(Fraction(1, 3))]
    digits = []
    solve = GhostSystem._point_solve

    def spy(self, R, xs, values, dens, q, dims, n, before):
        digits.append(n)
        return solve(self, R, xs, values, dens, q, dims, n, before)

    monkeypatch.setattr(GhostSystem, "_point_solve", spy)
    assert system._at_point(QXY, xs, None) == system._solve(QXY, xs, None) == [
        x * y * c(Fraction(1, 3 * 2 ** 20))]
    assert digits == [4]


def test_the_size_rule():
    """box * n <= POINT_BYTES in one and two variables, over nvars! from
    three on; a digit wider than a machine word counts as whole words."""
    assert _point_room(768, 1) == _point_room(768, 2) == 8
    assert _point_room(769, 2) == 7 and _point_room(128, 3) == 8 and _point_room(32, 4) == 8
    assert _point_room(129, 3) == 7 and _point_room(33, 4) == 7
    # 6144 // 361 is 17: a 9- to 16-byte digit fits, a 17-byte one does not
    assert _point_room(361, 2) == 16
    assert _point_room(6145, 1) == 0
