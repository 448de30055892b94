"""Necklace/aperiodic products and Frobenius against their term-by-term loops.

Every necklace and aperiodic product, and on a truncation set the
necklace/aperiodic Frobenius, is a ghost solve; only the aperiodic product
outside a Q-algebra on a group with a subgroup that is not normal sums a
sparse constant table.  The reference here computes
them term by term, as the library once did: the group model over
`structure_constants(G).p` and `.a`, the cyclic model over lcm/gcd, the
q-model with P_{n,i,j}(q) and r tau^q(rn/[r,d], rn/d) evaluated for every
term on every call.  Results must agree exactly, and a
refused input must raise the same exception class with the same message.
All randomness is seeded.
"""
import math
import random
from fractions import Fraction

import pytest

from wittburnside.burnside import (
    APERIODIC,
    NECKLACE,
    IndexedVector,
    ap_op,
    nr_op,
)
from wittburnside.cyclic import (
    CyclicVector,
    TruncationSet,
    cyc_ap_mul,
    cyc_frobenius,
    cyc_nr_mul,
)
from wittburnside.errors import (
    DomainError,
    NonIntegralConstant,
    NumericalityViolation,
    SchemaError,
    TruncationTooSmall,
)
from wittburnside.groups import build_group, structure_constants, subgroup_classes
from wittburnside.qdeform import (
    QContext,
    p_poly,
    q_ap_mul,
    q_ap_op,
    q_frobenius,
    q_nr_mul,
    q_nr_op,
    tau_q,
)
from wittburnside.rings import QQ_Q, ZZ, divisors, parse_ring

GROUPS = ("C6", "S3", "D4", "Q8", "C12", "D6", "S4")
RINGS = ("Z", "Q", "Z/8", "ZPoly(x,y)", "QPoly(x,y)", "Q[q]")
TRUNCATIONS = {"div12": TruncationSet.div(12), "1..12": TruncationSet(range(1, 13)),
               "1..24": TruncationSet(range(1, 25))}
QS = (-2, -1, 0, 1, 2, 3, None)


# --- the reference: the term-by-term loops -------------------------------------


def ref_ap_coeff(R, f):
    if f.denominator == 1:
        return R.from_int(f.numerator)
    if R.is_qalgebra:
        return R.from_fraction(f)
    raise NonIntegralConstant(
        f"aperiodic product: constant {f} needs rational coefficients in {R.name}")


def ref_nr_mul(x, y):
    R = x.ring
    xs, ys = x.payloads(), y.payloads()
    out = [R.zero() for _ in xs]
    for (i, j, k), c in structure_constants(x.group).p.items():
        if R.is_zero(xs[i]) or R.is_zero(ys[j]):
            continue
        out[k] = R.add(out[k], R.mul(R.from_int(c), R.mul(xs[i], ys[j])))
    return IndexedVector.from_payloads(x.group, NECKLACE, R, out)


def ref_ap_mul(x, y):
    R = x.ring
    xs, ys = x.payloads(), y.payloads()
    out = [R.zero() for _ in xs]
    for (i, j, k), f in structure_constants(x.group).a.items():
        if R.is_zero(xs[i]) or R.is_zero(ys[j]):
            continue
        c = ref_ap_coeff(R, f)
        out[k] = R.add(out[k], R.mul(c, R.mul(xs[i], ys[j])))
    return IndexedVector.from_payloads(x.group, APERIODIC, R, out)


def ref_lcm_mul(x, y):
    R, T = x.ring, x.truncation
    out = [R.zero() for _ in T]
    for i in T:
        xi = x.component(i).payload
        if R.is_zero(xi):
            continue
        for j in T:
            n = math.lcm(i, j)
            if n not in T:
                continue
            yj = y.component(j).payload
            if R.is_zero(yj):
                continue
            term = R.mul(xi, yj)
            if x.flavor == NECKLACE:
                term = R.mul(R.from_int(math.gcd(i, j)), term)
            out[T.position(n)] = R.add(out[T.position(n)], term)
    return CyclicVector.from_payloads(T, x.flavor, R, out)


def ref_cyc_frobenius(r, x):
    R, T = x.ring, x.truncation
    if r not in T:
        raise TruncationTooSmall(f"frobenius({r}) needs {r} in the truncation set {list(T.members)}")
    Tout = TruncationSet([n for n in T if r * n in T])
    out = []
    for n in Tout:
        s = R.zero()
        for d in divisors(r * n):
            if math.lcm(r, d) != r * n:
                continue
            p = x.component(d).payload
            if x.flavor == NECKLACE:
                p = R.mul(R.from_int(math.gcd(r, d)), p)
            s = R.add(s, p)
        out.append(s)
    return CyclicVector.from_payloads(Tout, x.flavor, R, out)


def ref_int_scalar(ctx, R, p, what):
    if ctx.q is None:
        if R is not QQ_Q:
            raise SchemaError(f"indeterminate q requires the Q[q] ring, not {R.name}")
        return p
    v = p(ctx.q)
    if v.denominator != 1:
        raise NumericalityViolation(f"{what} evaluates to {v} at q={ctx.q}")
    return R.from_int(v.numerator)


def ref_q_mul(ctx, x, y):
    R, T = x.ring, x.truncation
    out = [R.zero() for _ in T]
    for i in T:
        xi = x.component(i).payload
        if R.is_zero(xi):
            continue
        for j in T:
            yj = y.component(j).payload
            if R.is_zero(yj):
                continue
            l = math.lcm(i, j)
            if l not in T:
                continue
            xy = R.mul(xi, yj)
            for n in T:
                if n % l != 0:
                    continue
                w = (n // l) if x.flavor == APERIODIC else math.gcd(i, j)
                c = p_poly(n, i, j) * w
                if c.is_zero():
                    continue
                payload = ref_int_scalar(ctx, R, c, f"P weight at ({n},{i},{j})")
                if R.is_zero(payload):
                    continue
                out[T.position(n)] = R.add(out[T.position(n)], R.mul(payload, xy))
    return CyclicVector.from_payloads(T, x.flavor, R, out)


def ref_q_frobenius(ctx, r, x):
    R, T = x.ring, x.truncation
    if r not in T:
        raise TruncationTooSmall(f"frobenius({r}) needs {r} in the truncation set {list(T.members)}")
    Tout = TruncationSet([n for n in T if r * n in T])
    out = []
    for n in Tout:
        s = R.zero()
        for d in divisors(r * n):
            p = x.component(d).payload
            if R.is_zero(p):
                continue
            c = tau_q(r * n // math.lcm(r, d), r * n // d) * r
            assert c.is_numerical()
            if x.flavor == APERIODIC:
                c = c * Fraction(n, d)
                assert c.is_numerical()
            if c.is_zero():
                continue
            s = R.add(s, R.mul(ref_int_scalar(ctx, R, c, "frobenius weight"), p))
        out.append(s)
    return CyclicVector.from_payloads(Tout, x.flavor, R, out)


# --- helpers -------------------------------------------------------------------


def payload(R, rng):
    if rng.random() < 0.3:
        return R.zero()
    if R.name.startswith(("ZPoly", "QPoly")):
        den = rng.choice((1, 2)) if R.is_qalgebra else 1
        text = f"{rng.randint(-3, 3)}/{den}*x+{rng.randint(-2, 2)}*y+{rng.randint(-3, 3)}"
        return R.parse_value(text)
    if R is QQ_Q:
        return R.parse_value(f"{rng.randint(-3, 3)}*q+{rng.randint(-3, 3)}/{rng.choice((1, 3))}")
    if R.is_qalgebra:
        return R.parse_value(f"{rng.randint(-9, 9)}/{rng.randint(1, 4)}")
    return R.from_int(rng.randint(-9, 9))


def draw(index, flavor, R, rng):
    k = len(index) if isinstance(index, TruncationSet) else len(subgroup_classes(index))
    return IndexedVector.from_payloads(index, flavor, R, [payload(R, rng) for _ in range(k)])


def outcome(fn, *args):
    """fn's result, or the class and message of what it raised."""
    try:
        return fn(*args)
    except (DomainError, SchemaError) as exc:
        return type(exc), str(exc)


def symbolic(R):
    return R.name.startswith(("ZPoly", "QPoly")) or R is QQ_Q


# --- group model -----------------------------------------------------------------


@pytest.mark.parametrize("gname", GROUPS)
@pytest.mark.parametrize("rname", RINGS)
def test_group_products_match_structure_constant_loops(gname, rname):
    G, R = build_group(gname), parse_ring(rname)
    rng = random.Random(f"products:{gname}:{rname}")
    for _ in range(1 if symbolic(R) else 3):
        x, y = draw(G, NECKLACE, R, rng), draw(G, NECKLACE, R, rng)
        assert nr_op("prod", x, y) == ref_nr_mul(x, y)
        u, v = draw(G, APERIODIC, R, rng), draw(G, APERIODIC, R, rng)
        assert outcome(ap_op, "prod", u, v) == outcome(ref_ap_mul, u, v)


@pytest.mark.parametrize("gname", ("S3", "D4", "Q8", "D6", "S4"))
def test_group_aperiodic_product_refuses_fractions_in_the_same_order(gname):
    # over Z the first fractional constant met in the table's order names the
    # message; Q8, whose subgroups are all normal, has none
    G = build_group(gname)
    k = len(subgroup_classes(G))
    rng = random.Random(f"refuse:{gname}")
    for _ in range(4):
        x = IndexedVector.from_ints(G, APERIODIC, ZZ, [rng.randint(0, 3) for _ in range(k)])
        y = IndexedVector.from_ints(G, APERIODIC, ZZ, [rng.randint(0, 3) for _ in range(k)])
        assert outcome(ap_op, "prod", x, y) == outcome(ref_ap_mul, x, y)
    ones = IndexedVector.from_ints(G, APERIODIC, ZZ, [1] * k)
    got = outcome(ap_op, "prod", ones, ones)
    assert got == outcome(ref_ap_mul, ones, ones)
    assert isinstance(got, IndexedVector) if gname == "Q8" else got[0] is NonIntegralConstant


# --- cyclic model ----------------------------------------------------------------


@pytest.mark.parametrize("tname", sorted(TRUNCATIONS))
@pytest.mark.parametrize("rname", RINGS)
def test_cyclic_products_and_frobenius_match_lcm_loops(tname, rname):
    T, R = TRUNCATIONS[tname], parse_ring(rname)
    rng = random.Random(f"cyclic:{tname}:{rname}")
    for flavor, mul in ((NECKLACE, cyc_nr_mul), (APERIODIC, cyc_ap_mul)):
        x, y = draw(T, flavor, R, rng), draw(T, flavor, R, rng)
        assert mul(x, y) == ref_lcm_mul(x, y)
        for r in list(T) + [5 * max(T)]:
            assert outcome(cyc_frobenius, r, x) == outcome(ref_cyc_frobenius, r, x)


# --- q-model ---------------------------------------------------------------------


def q_cells():
    for tname in sorted(TRUNCATIONS):
        for q in QS:
            # the symbolic rings are covered on the smaller sets
            for rname in RINGS[:3] + ("Q[q]",) if tname == "1..24" else RINGS:
                yield tname, q, rname


def agrees(got, want):
    """got is want, except at the indeterminate over a ring other than Q[q],
    where a map the loops evaluated to zeros now refuses the ring as well."""
    refusal = isinstance(got, tuple) and got[0] is SchemaError and "indeterminate q" in got[1]
    zeros = isinstance(want, IndexedVector) and all(c.is_zero() for c in want.components)
    return got == want or refusal and zeros


@pytest.mark.parametrize("tname,q,rname", list(q_cells()))
def test_q_products_and_frobenius_match_p_and_tau_loops(tname, q, rname):
    T, R, ctx = TRUNCATIONS[tname], parse_ring(rname), QContext(q)
    rng = random.Random(f"q:{tname}:{q}:{rname}")
    frobenius_rs = [r for r in T if r <= 6] + [5 * max(T)]
    for flavor, mul, op in ((NECKLACE, q_nr_mul, q_nr_op), (APERIODIC, q_ap_mul, q_ap_op)):
        x, y = draw(T, flavor, R, rng), draw(T, flavor, R, rng)
        want = outcome(ref_q_mul, ctx, x, y)
        assert agrees(outcome(mul, ctx, x, y), want)
        assert agrees(outcome(op, ctx, "prod", x, y), want)
        for r in frobenius_rs:
            assert agrees(outcome(q_frobenius, ctx, r, x), outcome(ref_q_frobenius, ctx, r, x))


@pytest.mark.parametrize("rname", ("Z", "Q", "Z/8", "ZPoly(x,y)"))
def test_q_maps_at_the_indeterminate_refuse_zero_operands_too(rname):
    # the constants at the indeterminate are Q[q] payloads, so the ring is
    # checked before any term; the term-by-term loops returned zeros here
    T, R, ctx = TRUNCATIONS["div12"], parse_ring(rname), QContext(None)
    want = (SchemaError, f"indeterminate q requires the Q[q] ring, not {R.name}")
    for flavor, mul in ((NECKLACE, q_nr_mul), (APERIODIC, q_ap_mul)):
        zero = IndexedVector.zero(T, flavor, R)
        assert ref_q_mul(ctx, zero, zero) == zero
        assert outcome(mul, ctx, zero, zero) == want
        assert outcome(q_frobenius, ctx, 2, zero) == want


@pytest.mark.parametrize("q", (0, 1))
def test_q_tables_at_q_0_and_1_are_never_the_classical_ones(q):
    # the classical tables are built first, so a cache keyed without telling
    # a classical marker from an integer q would hand them to the q-model
    T, ctx = TRUNCATIONS["1..12"], QContext(q)
    rng = random.Random(f"collision:{q}")
    for flavor, cyc_mul, mul in ((NECKLACE, cyc_nr_mul, q_nr_mul),
                                 (APERIODIC, cyc_ap_mul, q_ap_mul)):
        x = IndexedVector.from_ints(T, flavor, ZZ, [rng.randint(1, 9) for _ in T])
        y = IndexedVector.from_ints(T, flavor, ZZ, [rng.randint(1, 9) for _ in T])
        classical = cyc_mul(x, y), {r: cyc_frobenius(r, x) for r in (2, 3)}
        got = mul(ctx, x, y), {r: q_frobenius(ctx, r, x) for r in (2, 3)}
        assert got == (ref_q_mul(ctx, x, y), {r: ref_q_frobenius(ctx, r, x) for r in (2, 3)})
        if q == 0:
            assert got[0] != classical[0] and got[1] != classical[1]


# --- the group products' ghost route ---------------------------------------------

# a product on the ghost route never builds `structure_constants`; only the
# aperiodic product outside a Q-algebra on a group with a subgroup that is not
# normal keeps the loop over them
INTEGRAL_APERIODIC = ("C6", "C12", "Q8")


@pytest.mark.parametrize("gname", GROUPS)
def test_group_products_over_z9_and_at_zero_and_one(gname):
    G = build_group(gname)
    rng = random.Random(f"z9:{gname}")
    for flavor, op, ref in ((NECKLACE, nr_op, ref_nr_mul), (APERIODIC, ap_op, ref_ap_mul)):
        Z9 = parse_ring("Z/9")
        for _ in range(3):
            x, y = draw(G, flavor, Z9, rng), draw(G, flavor, Z9, rng)
            assert outcome(op, "prod", x, y) == outcome(ref, x, y)
        for rname in RINGS + ("Z/9",):
            R = parse_ring(rname)
            x = draw(G, flavor, R, rng)
            zero, one = IndexedVector.zero(G, flavor, R), IndexedVector.one(G, flavor, R)
            for a, b, want in ((x, zero, zero), (zero, x, zero), (x, one, x), (one, x, x)):
                assert op("prod", a, b) == ref(a, b) == want


def test_ghost_route_products_build_no_structure_constants():
    rng = random.Random("no-structure-constants")
    structure_constants.cache_clear()
    for gname in GROUPS:
        G = build_group(gname)
        for rname in RINGS + ("Z/9",):
            R = parse_ring(rname)
            x, y = draw(G, NECKLACE, R, rng), draw(G, NECKLACE, R, rng)
            nr_op("prod", x, y)
            if R.is_qalgebra or (R is ZZ and gname in INTEGRAL_APERIODIC):
                u, v = draw(G, APERIODIC, R, rng), draw(G, APERIODIC, R, rng)
                ap_op("prod", u, v)
    assert structure_constants.cache_info().misses == 0
    # the one case left to the loop
    S3 = build_group("S3")
    zero = IndexedVector.zero(S3, APERIODIC, ZZ)
    ap_op("prod", zero, zero)
    assert structure_constants.cache_info().misses == 1
