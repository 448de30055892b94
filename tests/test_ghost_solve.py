"""The ghost solve against the universal polynomials evaluated term by term.

Every Witt-type operation solves its ghost equations at the payloads
(`GhostSystem.apply`).  The reference here evaluates the derived universal
polynomials monomial by monomial instead, as the operations once did: the
integer coefficients directly, a q-coefficient as the integer it takes at an
integer q (reduced mod m only afterwards), or as itself at the indeterminate q.
All randomness is seeded; every comparison is exact.
"""
import random

import pytest

from wittburnside.burnside import NECKLACE, WITT, IndexedVector, derive_universal, nr_op, wg_op
from wittburnside.cyclic import (
    CyclicVector,
    TruncationSet,
    cyc_frobenius,
    cyc_universal,
    cyc_witt_op,
)
from wittburnside.groups import build_group, subgroup_classes
from wittburnside.qdeform import (
    QContext,
    q_frobenius,
    q_nr_op,
    q_teichmuller,
    q_universal,
    q_witt_op,
)
from wittburnside.rings import QQ_Q, ZZ, parse_ring
from wittburnside.universal import ghost_system

GROUPS = ("C6", "S3", "D4", "Q8", "C12", "D6")
RINGS = ("Z", "Q", "Z/8", "ZPoly(x,y)", "QPoly(x,y)")
TRUNCATIONS = {"div12": TruncationSet.div(12), "1..12": TruncationSet(range(1, 13))}
QS = (-1, 0, 2, 3, 10)


def evaluate(terms, R, payloads):
    """One compiled polynomial at the payloads in R, monomial by monomial."""
    powcache = {}
    total = R.zero()
    for coeff, factors in terms:
        term = R.from_int(coeff) if type(coeff) is int else coeff
        for vi, e in factors:
            p = powcache.get((vi, e))
            if p is None:
                p = powcache[(vi, e)] = R.pow(payloads[vi], e)
            term = R.mul(term, p)
        total = R.add(total, term)
    return total


def reference(ups, R, payloads, q=None):
    """ups's polynomials evaluated term by term in R at the payloads."""
    terms = ups.compiled
    if ups.q and q is not None:
        # a numerical coefficient is an integer at the integer q itself
        terms = [[(c(q).numerator, mono) for c, mono in t] for t in terms]
    return [evaluate(t, R, payloads) for t in terms]


def payload(R, rng):
    if R.name.startswith(("ZPoly", "QPoly")):
        den = rng.choice((1, 2)) if R.is_qalgebra else 1
        text = f"{rng.randint(-3, 3)}/{den}*x+{rng.randint(-2, 2)}*y+{rng.randint(-3, 3)}"
        return R.parse_value(text)
    if R is QQ_Q:
        return R.parse_value(f"{rng.randint(-3, 3)}*q+{rng.randint(-3, 3)}/{rng.choice((1, 3))}")
    if R.is_qalgebra:
        return R.parse_value(f"{rng.randint(-9, 9)}/{rng.randint(1, 4)}")
    return R.from_int(rng.randint(-9, 9))


def pairs(R):
    return 2 if R.name.startswith(("ZPoly", "QPoly")) else 5


@pytest.mark.parametrize("gname", GROUPS)
@pytest.mark.parametrize("rname", RINGS)
def test_group_witt_ops_match_universal_polynomials(gname, rname):
    G = build_group(gname)
    R = parse_ring(rname)
    k = len(subgroup_classes(G))
    rng = random.Random(f"ghost-solve:{gname}:{rname}")
    for _ in range(pairs(R)):
        xs = [payload(R, rng) for _ in range(k)]
        ys = [payload(R, rng) for _ in range(k)]
        a = IndexedVector.from_payloads(G, WITT, R, xs)
        b = IndexedVector.from_payloads(G, WITT, R, ys)
        for op in ("sum", "prod"):
            want = reference(derive_universal(G, op), R, xs + ys)
            assert list(wg_op(op, a, b).payloads()) == want
        assert list(wg_op("neg", a).payloads()) == reference(derive_universal(G, "neg"), R, xs)


@pytest.mark.parametrize("gname", ("D4", "D6"))
def test_coordinate_backed_necklace_ops_match(gname):
    G = build_group(gname)
    R = parse_ring("Z/8")
    k = len(subgroup_classes(G))
    rng = random.Random(f"ghost-solve-coords:{gname}")
    xs = [payload(R, rng) for _ in range(k)]
    ys = [payload(R, rng) for _ in range(k)]
    x = IndexedVector.from_payloads(G, NECKLACE, R, xs, coord_form=True)
    y = IndexedVector.from_payloads(G, NECKLACE, R, ys, coord_form=True)
    got = nr_op("prod", x, y)
    assert got.coord_form
    assert list(got.payloads()) == reference(derive_universal(G, "prod"), R, xs + ys)


@pytest.mark.parametrize("tname", sorted(TRUNCATIONS))
@pytest.mark.parametrize("rname", RINGS)
def test_cyclic_witt_ops_and_frobenius_match(tname, rname):
    T = TRUNCATIONS[tname]
    R = parse_ring(rname)
    rng = random.Random(f"ghost-solve-cyc:{tname}:{rname}")
    for _ in range(pairs(R)):
        xs = [payload(R, rng) for _ in T]
        ys = [payload(R, rng) for _ in T]
        a = CyclicVector.from_payloads(T, WITT, R, xs)
        b = CyclicVector.from_payloads(T, WITT, R, ys)
        for op in ("sum", "prod"):
            want = reference(cyc_universal(T, op), R, xs + ys)
            assert list(cyc_witt_op(op, a, b).payloads()) == want
        assert list(cyc_witt_op("neg", a).payloads()) == reference(cyc_universal(T, "neg"), R, xs)
        for r in (2, 3):
            fu = ghost_system(T, f"frob{r}", WITT, False, r)
            got = cyc_frobenius(r, a)
            assert got.truncation == fu.structure
            assert list(got.payloads()) == reference(fu, R, xs)


@pytest.mark.parametrize("tname", sorted(TRUNCATIONS))
@pytest.mark.parametrize("rname", ("Z", "Z/8"))
@pytest.mark.parametrize("q", QS)
def test_q_witt_ops_and_frobenius_match_at_integer_q(tname, rname, q):
    T = TRUNCATIONS[tname]
    R = parse_ring(rname)
    ctx = QContext(q)
    rng = random.Random(f"ghost-solve-q:{tname}:{rname}:{q}")
    for _ in range(3):
        xs = [payload(R, rng) for _ in T]
        ys = [payload(R, rng) for _ in T]
        a = CyclicVector.from_payloads(T, WITT, R, xs)
        b = CyclicVector.from_payloads(T, WITT, R, ys)
        for op in ("sum", "prod"):
            want = reference(q_universal(T, op), R, xs + ys, q)
            assert list(q_witt_op(ctx, op, a, b).payloads()) == want
        want = reference(q_universal(T, "neg"), R, xs, q)
        assert list(q_witt_op(ctx, "neg", a).payloads()) == want
        for r in (2, 3):
            fu = ghost_system(T, f"frob{r}", WITT, True, r)
            assert list(q_frobenius(ctx, r, a).payloads()) == reference(fu, R, xs, q)


@pytest.mark.parametrize("q", QS)
def test_q_ops_on_coordinate_backed_necklace_vectors_match(q):
    T = TRUNCATIONS["div12"]
    R = parse_ring("Z/8")
    ctx = QContext(q)
    rng = random.Random(f"ghost-solve-qcoords:{q}")
    xs = [payload(R, rng) for _ in T]
    ys = [payload(R, rng) for _ in T]
    x = q_teichmuller(ctx, CyclicVector.from_payloads(T, WITT, R, xs))
    y = q_teichmuller(ctx, CyclicVector.from_payloads(T, WITT, R, ys))
    assert x.coord_form and x.flavor == NECKLACE
    got = q_nr_op(ctx, "prod", x, y)
    assert got.coord_form
    assert list(got.payloads()) == reference(q_universal(T, "prod"), R, xs + ys, q)
    for r in (2, 3):
        fu = ghost_system(T, f"frob{r}", WITT, True, r)
        got = q_frobenius(ctx, r, x)
        assert got.coord_form and got.truncation == fu.structure
        assert list(got.payloads()) == reference(fu, R, xs, q)


@pytest.mark.parametrize("tname", sorted(TRUNCATIONS))
def test_q_witt_ops_and_frobenius_match_at_indeterminate_q(tname):
    T = TRUNCATIONS[tname]
    ctx = QContext(None)
    rng = random.Random(f"ghost-solve-qq:{tname}")
    xs = [payload(QQ_Q, rng) for _ in T]
    ys = [payload(QQ_Q, rng) for _ in T]
    a = CyclicVector.from_payloads(T, WITT, QQ_Q, xs)
    b = CyclicVector.from_payloads(T, WITT, QQ_Q, ys)
    for op in ("sum", "prod"):
        want = reference(q_universal(T, op), QQ_Q, xs + ys)
        assert list(q_witt_op(ctx, op, a, b).payloads()) == want
    assert list(q_witt_op(ctx, "neg", a).payloads()) == reference(q_universal(T, "neg"), QQ_Q, xs)
    for r in (2, 3):
        fu = ghost_system(T, f"frob{r}", WITT, True, r)
        assert list(q_frobenius(ctx, r, a).payloads()) == reference(fu, QQ_Q, xs)


def test_operations_leave_the_universal_polynomials_unsolved(monkeypatch):
    # an operation reads only the ghost system; the polynomials are solved for
    # when read, so a process that only computes holds none of them
    monkeypatch.delenv("WB_CACHE_DIR", raising=False)
    G = build_group("D6")
    ghost_system.cache_clear()
    a = IndexedVector.from_ints(G, WITT, parse_ring("Z"), range(len(subgroup_classes(G))))
    wg_op("prod", a, a)
    ups = ghost_system(G, "prod", WITT, False, None)
    assert ups._polys is None
    assert list(wg_op("prod", a, a).payloads()) == reference(ups, ZZ, list(a.payloads()) * 2)
    assert ups._polys is not None
