import json
import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from wittburnside.burnside import APERIODIC, GHOST, NECKLACE, WITT
from wittburnside.cyclic import (
    CyclicVector,
    TruncationSet,
    cyc_ap_mul,
    cyc_frobenius,
    cyc_ghost,
    cyc_nr_mul,
    cyc_theta,
    cyc_universal,
    cyc_verschiebung,
    cyc_witt_ghost,
    cyc_witt_op,
)
from wittburnside.errors import (
    DomainError,
    NotInImage,
    NotInvertibleIndex,
    SchemaError,
    TruncationTooSmall,
)
from wittburnside.qdeform import (
    CURVE_DEGREE_BOUND,
    Q_SYMBOLIC_BOUND,
    Q_SYMBOLIC_PROD_BOUND,
    QContext,
    TruncatedCurve,
    artin_hasse,
    artin_hasse_inv,
    curve_add,
    curve_mul,
    curve_neg,
    p_poly,
    q_ap_mul,
    q_frobenius,
    q_ghost,
    q_ghost_inv,
    q_necklace_poly,
    q_nr_mul,
    q_teichmuller,
    q_teichmuller_inv,
    q_universal,
    q_verschiebung,
    q_witt_ghost,
    q_witt_op,
    tau_q,
    theta_q,
    theta_q_inv,
    try_one,
    zeta_mu_q,
)
from wittburnside.rings import (
    QQ,
    QQ_Q,
    ZZ,
    QPolynomial,
    RingValue,
    divisors,
    mobius,
    parse_ring,
)
from wittburnside.universal import ghost_system

QP = QPolynomial
D2 = TruncationSet.div(2)
D4 = TruncationSet.div(4)
D6 = TruncationSet.div(6)
D12 = TruncationSet.div(12)
Z8 = parse_ring("Z/8")

SMALL_Q = (-2, -1, 0, 1, 2, 3)


def wvec(T, vals, R=ZZ, flavor=WITT):
    return CyclicVector.from_payloads(T, flavor, R, vals)


def rand_vec(rng, T, R=ZZ, flavor=WITT, lo=-9, hi=9):
    return CyclicVector.from_payloads(T, flavor, R, [rng.randint(lo, hi) for _ in T])


def mq_vector(ctx, x, T, R):
    """(M^q(x, n))_{n in T} as a Necklace vector."""
    return CyclicVector.from_payloads(
        T, NECKLACE, R,
        [q_necklace_poly(ctx, RingValue.from_int(R, x), n).payload for n in T],
    )


# ---------------------------------------------------------------------------
# lattice scalars and P polynomials


def test_zeta_mu_frozen():
    assert zeta_mu_q(1) == (QP.constant(1), QP.constant(1))
    assert zeta_mu_q(2) == (QP([0, Fraction(1, 2)]), QP([0, Fraction(-1, 2)]))
    assert zeta_mu_q(3)[0] == QP([0, 0, Fraction(1, 3)])  # zeta^q(2, 6) = (2/6) q^2
    # by hand from the recurrence: -q^3/4 + q^2/4 and -q^5/6 + q^3/3
    assert zeta_mu_q(4)[1] == QP([0, 0, Fraction(1, 4), Fraction(-1, 4)])
    assert zeta_mu_q(6)[1] == QP([0, 0, 0, Fraction(1, 3), 0, Fraction(-1, 6)])
    # at q = 1, zeta^q is 1/k, whose Dirichlet inverse is mobius(k)/k
    for k in range(1, 61):
        assert zeta_mu_q(k)[1](1) == Fraction(mobius(k), k), k
    # the lattice matrices zeta^q(d1, d2) and mu^q(d1, d2) on D(12) are inverse
    D = divisors(12)
    for d1 in D:
        for d3 in D:
            total = QP()
            for d2 in D:
                if d2 % d1 == 0 and d3 % d2 == 0:
                    total = total + zeta_mu_q(d2 // d1)[0] * zeta_mu_q(d3 // d2)[1]
            assert total == (QP.constant(1) if d1 == d3 else QP()), (d1, d3)
    with pytest.raises(ValueError):
        zeta_mu_q(0)


def test_tau_frozen():
    assert tau_q(1, 1) == QP.constant(1)
    assert tau_q(1, 2) == QP([0, Fraction(1, 2)])
    assert tau_q(2, 2).is_zero()
    with pytest.raises(ValueError):
        tau_q(2, 3)


def test_p_poly_frozen():
    assert p_poly(1, 1, 1) == QP.constant(1)
    assert p_poly(2, 1, 1) == QP([0, Fraction(-1, 2), Fraction(1, 2)])  # (q^2-q)/2
    assert p_poly(2, 1, 2) == QP.variable()
    assert p_poly(2, 2, 1) == QP.variable()
    assert p_poly(2, 2, 2) == QP.constant(1)
    with pytest.raises(ValueError):
        p_poly(4, 2, 3)  # lcm does not divide n


def test_p_poly_numerical_and_delta_at_one():
    for n in range(1, 13):
        for i in divisors(n):
            for j in divisors(n):
                if n % math.lcm(i, j):
                    continue
                p = p_poly(n, i, j)
                assert p.is_numerical()
                assert p(1) == Fraction(int(math.lcm(i, j) == n))


def test_p_poly_coefficient_identity():
    # sum over [i,j] | d | n of (d/[i,j]) q^(n/d-1) P_{d,i,j} telescopes to a power of q
    for n in range(1, 13):
        for i in divisors(n):
            for j in divisors(n):
                l = math.lcm(i, j)
                if n % l:
                    continue
                acc = QP()
                for d in divisors(n):
                    if d % l:
                        continue
                    acc = acc + p_poly(d, i, j) * Fraction(d, l) * QP.monomial(1, n // d - 1)
                assert acc == QP.monomial(1, n // i + n // j - 2)


# ---------------------------------------------------------------------------
# q-universal polynomials


def test_q_universal_frozen_div2():
    us = q_universal(D2, "sum")
    assert [p.format() for p in us.polys] == [
        "1*a_1^1+1*b_1^1",
        "-1*q^1*a_1^1*b_1^1+1*a_2^1+1*b_2^1",
    ]
    un = q_universal(D2, "neg")
    assert [p.format() for p in un.polys] == [
        "-1*a_1^1",
        "-1*q^1*a_1^2+-1*a_2^1",
    ]
    up = q_universal(D2, "prod")
    # the a_1^2 b_1^2 coefficient is (q^2-q)/2: numerical, not in Z[q]
    assert [p.format() for p in up.polys] == [
        "1*a_1^1*b_1^1",
        "1/2*q^2*a_1^2*b_1^2+-1/2*q^1*a_1^2*b_1^2"
        "+1*q^1*a_1^2*b_2^1+1*q^1*a_2^1*b_1^2+2*a_2^1*b_2^1",
    ]


def test_q_universal_coefficients_numerical_div12():
    for op in ("sum", "prod", "neg"):
        cu = q_universal(D12, op)
        for grouped in cu.compiled:
            for qpoly, _mono in grouped:
                assert qpoly.is_numerical()
        if op != "prod":
            # sum and negation do land in Z[q]
            assert all(c.denominator == 1 for p in cu.polys for c in p.terms.values())


def test_q_universal_q1_equals_classical():
    for op in ("sum", "prod", "neg"):
        qcu = q_universal(D12, op)
        ccu = cyc_universal(D12, op)
        for qp, cp in zip(qcu.polys, ccu.polys):
            at1 = {}
            for e, c in qp.terms.items():
                key = e[1:]  # drop the q exponent
                at1[key] = at1.get(key, Fraction(0)) + c
            at1 = {k: v for k, v in at1.items() if v}
            assert at1 == cp.terms


def test_q_scaling_identity():
    # s^q_n(a, b) = (1/q) s_n(q a, q b) formally: check on random integer points
    rng = random.Random(3)
    cu = q_universal(D6, "sum")
    ccu = cyc_universal(D6, "sum")
    for q0 in (1, 2, 3, 5):
        ctx = QContext(q0)
        for _ in range(10):
            a = [rng.randint(-6, 6) for _ in D6]
            b = [rng.randint(-6, 6) for _ in D6]
            qa = wvec(D6, a, QQ)
            qb = wvec(D6, b, QQ)
            lhs = q_witt_op(ctx, "sum", qa, qb).payloads()
            scaled = cyc_witt_op(
                "sum",
                wvec(D6, [Fraction(q0) * v for v in a], QQ),
                wvec(D6, [Fraction(q0) * v for v in b], QQ),
            ).payloads()
            assert lhs == tuple(v / q0 for v in scaled)


# ---------------------------------------------------------------------------
# ghosts and ring structure


def test_q_witt_ghost_frozen():
    ctx = QContext(2)
    assert q_witt_ghost(ctx, wvec(D2, [3, 5])).payloads() == (3, 2 * 9 + 2 * 5)
    sym = QContext(None)
    a = CyclicVector.from_payloads(D2, WITT, QQ_Q, [QP.variable(), QP.constant(0)])
    g = q_witt_ghost(sym, a)
    assert g.payloads() == (QP.variable(), QP([0, 0, 0, 1]))  # q * q^2


def test_q_ghost_homomorphism_int_q():
    rng = random.Random(17)
    for q0 in SMALL_Q:
        ctx = QContext(q0)
        for R in (ZZ, Z8):
            for _ in range(6):
                x = rand_vec(rng, D12, R)
                y = rand_vec(rng, D12, R)
                gx = q_witt_ghost(ctx, x).payloads()
                gy = q_witt_ghost(ctx, y).payloads()
                s = q_witt_op(ctx, "sum", x, y)
                p = q_witt_op(ctx, "prod", x, y)
                n = q_witt_op(ctx, "neg", x)
                assert q_witt_ghost(ctx, s).payloads() == tuple(
                    R.add(u, v) for u, v in zip(gx, gy))
                assert q_witt_ghost(ctx, p).payloads() == tuple(
                    R.mul(u, v) for u, v in zip(gx, gy))
                assert q_witt_ghost(ctx, n).payloads() == tuple(R.neg(u) for u in gx)


def test_q_ghost_homomorphism_symbolic():
    rng = random.Random(23)
    ctx = QContext(None)
    for _ in range(4):
        x = CyclicVector.from_payloads(
            D6, WITT, QQ_Q, [QP([rng.randint(-3, 3), rng.randint(-2, 2)]) for _ in D6])
        y = CyclicVector.from_payloads(
            D6, WITT, QQ_Q, [QP([rng.randint(-3, 3), rng.randint(-2, 2)]) for _ in D6])
        gx = q_witt_ghost(ctx, x).payloads()
        gy = q_witt_ghost(ctx, y).payloads()
        p = q_witt_op(ctx, "prod", x, y)
        assert q_witt_ghost(ctx, p).payloads() == tuple(u * v for u, v in zip(gx, gy))


def test_symbolic_q_requires_q_ring():
    ctx = QContext(None)
    with pytest.raises(SchemaError):
        q_witt_ghost(ctx, wvec(D2, [1, 2]))  # ZZ vector, symbolic q


def test_q_nr_ap_mul_ghost_hom():
    rng = random.Random(29)
    for q0 in SMALL_Q:
        ctx = QContext(q0)
        for _ in range(5):
            x = rand_vec(rng, D12, ZZ, NECKLACE, -5, 5)
            y = rand_vec(rng, D12, ZZ, NECKLACE, -5, 5)
            gx = q_ghost(ctx, x).payloads()
            gy = q_ghost(ctx, y).payloads()
            pr = q_nr_mul(ctx, x, y)
            assert q_ghost(ctx, pr).payloads() == tuple(u * v for u, v in zip(gx, gy))
            xa, ya = x.retag(APERIODIC), y.retag(APERIODIC)
            gxa = q_ghost(ctx, xa).payloads()
            gya = q_ghost(ctx, ya).payloads()
            pa = q_ap_mul(ctx, xa, ya)
            assert q_ghost(ctx, pa).payloads() == tuple(u * v for u, v in zip(gxa, gya))


def test_q1_paths_match_classical():
    rng = random.Random(31)
    ctx = QContext(1)
    for _ in range(6):
        x = rand_vec(rng, D12)
        y = rand_vec(rng, D12)
        for op in ("sum", "prod"):
            assert q_witt_op(ctx, op, x, y) == cyc_witt_op(op, x, y)
        assert q_witt_op(ctx, "neg", x) == cyc_witt_op("neg", x)
        assert q_ghost(ctx, x) == cyc_witt_ghost(x)
        xn, yn = x.retag(NECKLACE), y.retag(NECKLACE)
        assert q_nr_mul(ctx, xn, yn) == cyc_nr_mul(xn, yn)
        xa, ya = x.retag(APERIODIC), y.retag(APERIODIC)
        assert q_ap_mul(ctx, xa, ya) == cyc_ap_mul(xa, ya)
        assert q_ghost(ctx, xn) == cyc_ghost(xn)
        assert theta_q(xn) == cyc_theta(xn)
        for r in (2, 3):
            for v in (x, xn, xa):
                assert q_frobenius(ctx, r, v) == cyc_frobenius(r, v)
                assert q_verschiebung(r, v) == cyc_verschiebung(r, v)


def test_try_one():
    ctx = QContext(2)
    one = try_one(ctx, D4, QQ)
    assert one is not None
    x = wvec(D4, [Fraction(2), Fraction(-1), Fraction(5)], QQ)
    assert q_witt_op(ctx, "prod", one, x).payloads() == x.payloads()
    assert q_witt_op(ctx, "prod", x, one).payloads() == x.payloads()
    # over Z: a_2 = (1-q)/2 exists only for odd q
    assert try_one(ctx, D2, ZZ) is None
    one3 = try_one(QContext(3), D2, ZZ)
    assert one3 is not None and one3.payloads() == (1, -1)
    assert q_witt_ghost(QContext(3), one3).payloads() == (1, 1)


# ---------------------------------------------------------------------------
# exponentials


def test_mq_frozen_and_cross_path():
    sym = QContext(None)
    # M^q(x, 2) = (q/2)(x^2 - x): at the constant payload 7 gives 21 q
    m = q_necklace_poly(sym, RingValue(QQ_Q, QP.constant(7)), 2)
    assert m.payload == QP([0, 21])
    for q0 in SMALL_Q:
        ctx = QContext(q0)
        for r in range(-4, 5):
            for n in (1, 2, 3, 4, 6, 12):
                over_q = q_necklace_poly(ctx, RingValue.from_int(QQ, r), n)
                if q0 == 1:
                    from wittburnside.cyclic import necklace_poly
                    assert over_q.payload == necklace_poly(RingValue.from_int(QQ, r), n).payload
                if q0 != 0 or True:
                    over_z = q_necklace_poly(ctx, RingValue.from_int(ZZ, r), n)
                    assert Fraction(over_z.payload) == over_q.payload


def test_mq_nonmultiplicative_witness_and_corrected_identity():
    ctx = QContext(2)
    m6 = mq_vector(ctx, 6, D2, ZZ)
    m2 = mq_vector(ctx, 2, D2, ZZ)
    m3 = mq_vector(ctx, 3, D2, ZZ)
    prod = q_nr_mul(ctx, m2, m3)
    assert m6.payloads() == (6, 30)
    assert prod.payloads() == (6, 66)  # 30 != 66: M^2 is not multiplicative
    m12 = mq_vector(ctx, 12, D2, ZZ)  # 12 = q*2*3
    doubled = prod.with_components([c + c for c in prod.components])
    assert m12 == doubled  # M^q(qxy) = q M^q(x) M^q(y)
    for q0 in (2, 3, -2):
        ctxq = QContext(q0)
        for x, y in ((2, 3), (-1, 4), (5, 2)):
            lhs = mq_vector(ctxq, q0 * x * y, D12, QQ)
            pr = q_nr_mul(ctxq, mq_vector(ctxq, x, D12, QQ), mq_vector(ctxq, y, D12, QQ))
            rhs = pr.with_components(
                [RingValue(QQ, QQ.mul(Fraction(q0), c.payload)) for c in pr.components])
            assert lhs == rhs


# ---------------------------------------------------------------------------
# transports


def test_q_teichmuller_diagrams():
    rng = random.Random(41)
    for q0 in SMALL_Q:
        ctx = QContext(q0)
        for R, lo, hi in ((QQ, -9, 9), (ZZ, -6, 6)):
            for _ in range(5):
                a = rand_vec(rng, D12, R, WITT, lo, hi)
                t = q_teichmuller(ctx, a)
                assert t.flavor == NECKLACE and not t.coord_form
                assert q_ghost(ctx, t).payloads() == q_witt_ghost(ctx, a).payloads()
                assert q_teichmuller_inv(ctx, t) == a
                ap = theta_q(t)
                assert ap.flavor == APERIODIC
                assert q_ghost(ctx, ap).payloads() == q_ghost(ctx, t).payloads()
                assert theta_q_inv(ap) == t


def test_q_teichmuller_symbolic():
    ctx = QContext(None)
    a = CyclicVector.from_payloads(D4, WITT, QQ_Q, [QP([1, 1]), QP.constant(2), QP.variable()])
    t = q_teichmuller(ctx, a)
    assert q_ghost(ctx, t).payloads() == q_witt_ghost(ctx, a).payloads()
    assert q_teichmuller_inv(ctx, t) == a


def test_q_teichmuller_one_hot():
    ctx = QContext(2)
    one_hot = wvec(D12, [3] + [0] * (len(D12) - 1))
    t = q_teichmuller(ctx, one_hot)
    assert t.payloads() == tuple(
        q_necklace_poly(ctx, RingValue.from_int(ZZ, 3), n).payload for n in D12)


def test_q_teichmuller_quotient_coordinates():
    ctx = QContext(2)
    a = wvec(D4, [3, 5, 7], Z8)
    t = q_teichmuller(ctx, a)
    assert t.coord_form and t.flavor == NECKLACE
    assert q_teichmuller_inv(ctx, t) == a
    b = wvec(D4, [1, 0, 2], Z8)
    tb = q_teichmuller(ctx, b)
    prod = q_nr_mul(ctx, t, tb)
    assert prod.coord_form
    assert q_teichmuller_inv(ctx, prod) == q_witt_op(ctx, "prod", a, b)
    ap = theta_q(t)
    assert ap.coord_form and ap.flavor == APERIODIC
    assert theta_q_inv(ap) == t
    # ghost of a coordinate-backed vector reads the Witt ghost of its coordinates
    assert q_ghost(ctx, t).payloads() == q_witt_ghost(ctx, a).payloads()
    with pytest.raises(DomainError):
        q_teichmuller_inv(ctx, CyclicVector.from_payloads(D4, NECKLACE, Z8, [1, 2, 3]))


def test_theta_q_units():
    ctx = QContext(2)
    x = CyclicVector.from_payloads(D4, NECKLACE, ZZ, [5, -2, 7])
    y = theta_q(x)
    assert y.payloads() == (5, -4, 28)
    assert theta_q_inv(y) == x
    with pytest.raises(NotInvertibleIndex):
        theta_q_inv(CyclicVector.from_payloads(D2, APERIODIC, ZZ, [1, 1]))


def test_q_ghost_inverses():
    rng = random.Random(43)
    for q0 in (-2, 2, 3):
        ctx = QContext(q0)
        for _ in range(5):
            g = CyclicVector.from_payloads(
                D12, GHOST, QQ, [Fraction(rng.randint(-9, 9)) for _ in D12])
            xn = q_ghost_inv(ctx, g, NECKLACE)
            assert q_ghost(ctx, xn).payloads() == g.payloads()
            xa = q_ghost_inv(ctx, g, APERIODIC)
            assert q_ghost(ctx, xa).payloads() == g.payloads()
    ctx = QContext(2)
    # aperiodic inverse is integral, so it works over Z
    g = CyclicVector.from_payloads(D12, GHOST, ZZ, [rng.randint(-9, 9) for _ in D12])
    assert q_ghost(ctx, q_ghost_inv(ctx, g, APERIODIC)).payloads() == g.payloads()
    # necklace inverse over Z detects membership
    x0 = CyclicVector.from_payloads(D4, NECKLACE, ZZ, [2, -1, 3])
    assert q_ghost_inv(ctx, q_ghost(ctx, x0), NECKLACE) == x0
    with pytest.raises(NotInImage):
        q_ghost_inv(ctx, CyclicVector.from_payloads(D2, GHOST, ZZ, [0, 1]), NECKLACE)


# ---------------------------------------------------------------------------
# operators


def test_q_verschiebung():
    x = CyclicVector.from_payloads(D4, APERIODIC, ZZ, [1, 2, 4])
    assert q_verschiebung(2, x).payloads() == (0, 2, 4)
    xn = x.retag(NECKLACE)
    assert q_verschiebung(2, xn).payloads() == (0, 1, 2)
    xw = x.retag(WITT)
    assert q_verschiebung(2, xw).payloads() == (0, 1, 2)
    with pytest.raises(ValueError):
        q_verschiebung(2, CyclicVector.from_payloads(D4, GHOST, ZZ, [1, 2, 4]))


def test_q_frobenius_identity_at_one():
    rng = random.Random(47)
    ctx = QContext(2)
    x = rand_vec(rng, D12)
    f = q_frobenius(ctx, 1, x)
    assert f == x


def test_q_frobenius_frozen_div4():
    cu = ghost_system(D4, "frob2", WITT, True, 2)
    assert cu.structure.members == (1, 2)
    assert [p.format() for p in cu.polys] == [
        "1*q^1*a_1^2+2*a_2^1",
        "-2*q^2*a_1^2*a_2^1+-1*q^1*a_2^2+2*a_4^1",
    ]


def test_q_frobenius_ghost_shift():
    rng = random.Random(53)
    for q0 in SMALL_Q:
        ctx = QContext(q0)
        for flavor in (WITT, NECKLACE, APERIODIC, GHOST):
            for r in (2, 3):
                x = rand_vec(rng, D12, ZZ, flavor, -6, 6)
                f = q_frobenius(ctx, r, x)
                assert f.truncation.members == tuple(n for n in D12 if r * n in D12)
                g_in = q_ghost(ctx, x) if flavor != GHOST else x
                g_out = q_ghost(ctx, f) if flavor != GHOST else f
                for n in f.truncation:
                    assert g_out.component(n).payload == g_in.component(r * n).payload


def test_q_frobenius_ring_hom():
    rng = random.Random(59)
    ctx = QContext(2)
    for _ in range(8):
        x = rand_vec(rng, D12, ZZ, WITT, -4, 4)
        y = rand_vec(rng, D12, ZZ, WITT, -4, 4)
        f = lambda v: q_frobenius(ctx, 2, v)
        assert f(q_witt_op(ctx, "sum", x, y)) == q_witt_op(ctx, "sum", f(x), f(y))
        assert f(q_witt_op(ctx, "prod", x, y)) == q_witt_op(ctx, "prod", f(x), f(y))


def test_cold_q_products_and_frobenius_form_no_structure_scalars(monkeypatch):
    # both are ghost solves: no P_{n,i,j}(q) or tau^q is formed, even cold
    import wittburnside.qdeform as qdeform

    def formed(*args):
        raise AssertionError(f"a structure scalar was formed at {args}")

    monkeypatch.setattr(qdeform, "p_poly", formed)
    monkeypatch.setattr(qdeform, "tau_q", formed)
    rng = random.Random(67)
    T, ctx = TruncationSet.div(30), QContext(5)  # cached by no other test
    for flavor, mul in ((NECKLACE, q_nr_mul), (APERIODIC, q_ap_mul)):
        x = rand_vec(rng, T, ZZ, flavor)
        y = rand_vec(rng, T, ZZ, flavor)
        gx, gy = q_ghost(ctx, x), q_ghost(ctx, y)
        assert q_ghost(ctx, mul(ctx, x, y)).payloads() == tuple(
            u * v for u, v in zip(gx.payloads(), gy.payloads()))
        for r in (2, 3, 5):
            f = q_frobenius(ctx, r, x)
            assert q_ghost(ctx, f).payloads() == tuple(gx.component(r * n).payload for n in f.truncation)


# The child runs every q-model entry point on {1, 10^18 + 9} under a memory
# limit: a regression that tries to form q^(10^18 + 8) then fails the test
# instead of exhausting the machine's memory.
_HUGE_MEMBER_CHILD = r"""
import json, os, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from wittburnside.burnside import APERIODIC, NECKLACE, WITT
from wittburnside.cli import main
from wittburnside.cyclic import CyclicVector, TruncationSet
from wittburnside.errors import DomainError
from wittburnside.qdeform import QContext, q_ap_mul, q_frobenius, q_ghost, q_nr_mul, q_witt_op
from wittburnside.rings import QQ_Q, ZZ

big = 10 ** 18 + 9
T = TruncationSet([1, big])


def timed(name, call):
    start = time.perf_counter()
    try:
        outcome = call()
    except DomainError as exc:
        outcome = str(exc)
    print(json.dumps([name, outcome if type(outcome) in (int, str) else "returned",
                      time.perf_counter() - start < 2.0]), flush=True)


for q, R in ((2, ZZ), (None, QQ_Q)):
    ctx = QContext(q)
    vec = lambda flavor: CyclicVector.from_payloads(T, flavor, R, [R.from_int(2), R.from_int(3)])
    timed(f"q_ghost/{q}", lambda: q_ghost(ctx, vec(NECKLACE)))
    timed(f"q_witt_ghost/{q}", lambda: q_ghost(ctx, vec(WITT)))
    timed(f"q_nr_mul/{q}", lambda: q_nr_mul(ctx, vec(NECKLACE), vec(NECKLACE)))
    timed(f"q_ap_mul/{q}", lambda: q_ap_mul(ctx, vec(APERIODIC), vec(APERIODIC)))
    timed(f"q_frobenius/{q}", lambda: q_frobenius(ctx, 1, vec(NECKLACE)))
    timed(f"q_witt_frobenius/{q}", lambda: q_frobenius(ctx, big, vec(WITT)))
    timed(f"q_witt_op/{q}", lambda: q_witt_op(ctx, "prod", vec(WITT), vec(WITT)))


def write(name, **fields):
    path = os.path.join(sys.argv[1], name)
    with open(path, "w") as fh:
        json.dump({"schema_version": 1, **fields}, fh)
    return path


def vector(name, flavor, ring):
    return write(name, group={"cyclic_trunc": [1, big]}, labels=[1, big], flavor=flavor,
                 ring=ring, components=["2", "3"])


w, n = vector("w.json", "Witt", "Z"), vector("n.json", "Necklace", "Z")
a = vector("a.json", "Aperiodic", "Q[q]")
curve = write("curve.json", kind="curve", q=2, ring="Z", degree=3, coefficients=["1", "2", "3"])
for argv in (
    ["qwitt", "ghost", "--q", "2", n],
    ["qwitt", "mul", "--q", "2", n, n],
    ["qwitt", "mul", "--q", "q", a, a],
    ["qwitt", "mul", "--q", "2", w, w],
    ["qwitt", "frobenius", "--q", "q", "--r", "1", a],
    ["qwitt", "tryone", "--q", "2", "--trunc", str(10 ** 18)],
    ["qwitt", "tryone", "--q", "q", "--ring", "Q[q]", "--trunc-set", f"1,{big}"],
    ["artinhasse", "--q", "2", w],
    ["artinhasse", "--q", "2", "--inverse", "--trunc", str(10 ** 18), curve],
    ["quniversal", "--op", "sum", "--trunc", str(10 ** 18)],
):
    timed(" ".join(argv[:2]), lambda: main(argv))
"""


def test_q_model_refuses_members_above_its_bound(tmp_path):
    pytest.importorskip("resource")
    proc = subprocess.run([sys.executable, "-c", _HUGE_MEMBER_CHILD, str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(results) == 24
    refusal = f"truncation set member {10 ** 18 + 9} exceeds the q-model bound 10000"
    for name, outcome, fast in results[:14]:
        assert (outcome, fast) == (refusal, True), name
    for name, outcome, fast in results[14:]:
        assert (outcome, fast) == (3, True), name  # the CLI's DomainError exit
    assert proc.stderr.count("DomainError: truncation set member") == 10


def test_symbolic_q_product_is_bounded_after_the_ring_check():
    ctx = QContext(None)

    def vec(T, R=QQ_Q):
        return CyclicVector.from_payloads(T, WITT, R, [R.from_int(3)] * len(T))

    a = vec(TruncationSet.div(Q_SYMBOLIC_PROD_BOUND))
    ghost = q_witt_ghost(ctx, a).payloads()
    prod = q_witt_op(ctx, "prod", a, a)
    assert q_witt_ghost(ctx, prod).payloads() == tuple(g * g for g in ghost)
    over = TruncationSet.div(Q_SYMBOLIC_PROD_BOUND + 1)
    with pytest.raises(DomainError, match=f"^truncation set member {over.members[-1]} exceeds "
                                          f"the bound {Q_SYMBOLIC_PROD_BOUND} of the product"):
        q_witt_op(ctx, "prod", vec(over), vec(over))
    # the sum, the negation and an integer q stay accepted
    q_witt_op(ctx, "sum", vec(over), vec(over))
    q_witt_op(ctx, "neg", vec(over))
    q_witt_op(QContext(2), "prod", vec(over, ZZ), vec(over, ZZ))
    # the refusals that come first keep their class and message
    with pytest.raises(SchemaError, match="requires the Q\\[q\\] ring"):
        q_witt_op(ctx, "prod", vec(over, ZZ), vec(over, ZZ))
    huge = TruncationSet([1, 10007])
    with pytest.raises(DomainError, match="^truncation set member 10007 exceeds the q-model"):
        q_witt_op(ctx, "prod", vec(huge), vec(huge))


def test_symbolic_q_sum_negation_and_frobenius_are_bounded_after_the_ring_check():
    ctx = QContext(None)

    def vec(T, R=QQ_Q, flavor=WITT):
        return CyclicVector.from_payloads(T, flavor, R, [R.from_int(3)] * len(T))

    a = vec(TruncationSet.div(Q_SYMBOLIC_BOUND))
    ghost = q_witt_ghost(ctx, a).payloads()
    assert q_witt_ghost(ctx, q_witt_op(ctx, "sum", a, a)).payloads() == tuple(g + g for g in ghost)
    assert q_witt_ghost(ctx, q_witt_op(ctx, "neg", a)).payloads() == tuple(-g for g in ghost)
    f = q_frobenius(ctx, 2, a)
    assert q_witt_ghost(ctx, f).payloads() == tuple(
        q_witt_ghost(ctx, a).component(2 * n).payload for n in f.truncation)
    over = TruncationSet.div(Q_SYMBOLIC_BOUND + 2)  # 258 = 2 * 3 * 43
    refusal = f"^truncation set member 258 exceeds the bound {Q_SYMBOLIC_BOUND} of the "
    with pytest.raises(DomainError, match=refusal + "sum at the indeterminate q$"):
        q_witt_op(ctx, "sum", vec(over), vec(over))
    with pytest.raises(DomainError, match=refusal + "negation at the indeterminate q$"):
        q_witt_op(ctx, "neg", vec(over))
    with pytest.raises(DomainError, match=refusal + "Witt Frobenius at the indeterminate q$"):
        q_frobenius(ctx, 2, vec(over))
    # an integer q and the linear Frobenius stay accepted
    q_witt_op(QContext(2), "sum", vec(over, ZZ), vec(over, ZZ))
    q_frobenius(QContext(2), 2, vec(over, ZZ))
    q_frobenius(ctx, 2, vec(over, flavor=NECKLACE))
    # the refusals that come first keep their class and message
    with pytest.raises(SchemaError, match="requires the Q\\[q\\] ring"):
        q_witt_op(ctx, "neg", vec(over, ZZ))
    with pytest.raises(SchemaError, match="requires the Q\\[q\\] ring"):
        q_frobenius(ctx, 2, vec(over, ZZ))
    with pytest.raises(ValueError, match="^op must be one of"):
        q_witt_op(ctx, "div", vec(over), vec(over))


@pytest.mark.parametrize("q,R", [(2, ZZ), (None, QQ_Q)], ids=["q=2", "q=q"])
@pytest.mark.parametrize("flavor", [WITT, NECKLACE, APERIODIC])
def test_frobenius_names_the_largest_member_above_the_q_model_bound(q, R, flavor):
    # f_2 reads {1, 10007} of {1, 2, 10007, 20014}; every flavor builds the
    # input set's table first, so each names the set's own largest member
    T = TruncationSet([1, 2, 10007, 20014])
    x = CyclicVector.from_payloads(T, flavor, R, [R.from_int(3)] * len(T))
    with pytest.raises(DomainError) as err:
        q_frobenius(QContext(q), 2, x)
    assert str(err.value) == "truncation set member 20014 exceeds the q-model bound 10000"


def test_huge_member_is_refused_before_the_indeterminate_meets_its_ring():
    # every q-model map builds its table, and checks the member bound, before
    # it asks Z for the indeterminate q (which only Q[q] has)
    big = 10 ** 18 + 9
    T = TruncationSet([1, big])
    ctx = QContext(None)

    def vec(flavor):
        return CyclicVector.from_payloads(T, flavor, ZZ, [2, 3])

    calls = {
        "q_ghost": lambda: q_ghost(ctx, vec(NECKLACE)),
        "q_frobenius/Witt": lambda: q_frobenius(ctx, big, vec(WITT)),
        "q_witt_op": lambda: q_witt_op(ctx, "prod", vec(WITT), vec(WITT)),
        "q_teichmuller": lambda: q_teichmuller(ctx, vec(WITT)),
        "q_ghost_inv": lambda: q_ghost_inv(ctx, vec(GHOST), NECKLACE),
        "try_one": lambda: try_one(ctx, T, ZZ),
        "q_frobenius/Necklace": lambda: q_frobenius(ctx, 1, vec(NECKLACE)),
        "q_nr_mul": lambda: q_nr_mul(ctx, vec(NECKLACE), vec(NECKLACE)),
        "q_ap_mul": lambda: q_ap_mul(ctx, vec(APERIODIC), vec(APERIODIC)),
    }
    for name, call in calls.items():
        with pytest.raises(DomainError, match=f"^truncation set member {big} exceeds"):
            call()


def test_q_frobenius_truncation_too_small():
    ctx = QContext(2)
    with pytest.raises(TruncationTooSmall):
        q_frobenius(ctx, 5, wvec(D12, [0] * len(D12)))


def test_theta_q_transports_operators():
    rng = random.Random(61)
    ctx = QContext(2)
    for _ in range(5):
        x = rand_vec(rng, D12, ZZ, NECKLACE, -6, 6)
        # theta^q(V_r x) = V_r(theta^q x) and theta^q(f_r^q x) = f_r^q(theta^q x)
        for r in (2, 3):
            assert theta_q(q_verschiebung(r, x)) == q_verschiebung(r, theta_q(x))
            assert theta_q(q_frobenius(ctx, r, x)) == q_frobenius(ctx, r, theta_q(x))


def test_q_operator_coord_forms():
    ctx = QContext(2)
    a = wvec(D4, [3, 5, 7], Z8)
    t = q_teichmuller(ctx, a)
    f = q_frobenius(ctx, 2, t)
    assert f.coord_form and f.flavor == NECKLACE
    assert q_teichmuller_inv(ctx, f) == q_frobenius(ctx, 2, a)
    v = q_verschiebung(2, t)
    assert v.coord_form
    assert q_teichmuller_inv(ctx, v) == q_verschiebung(2, a)


# ---------------------------------------------------------------------------
# Artin-Hasse curves


def test_artin_hasse_low_coefficients():
    # H^q(x) = x_1 t + x_2 t^2 + (x_3 - q x_1 x_2) t^3 + (x_4 - q x_1 x_3) t^4 + ...
    T = TruncationSet(range(1, 5))
    rng = random.Random(67)
    for q0 in SMALL_Q:
        ctx = QContext(q0)
        for _ in range(8):
            xs = [rng.randint(-4, 4) for _ in range(4)]
            c = artin_hasse(ctx, wvec(T, xs))
            x1, x2, x3, x4 = xs
            assert c.coefficient(1).payload == x1
            assert c.coefficient(2).payload == x2
            assert c.coefficient(3).payload == x3 - q0 * x1 * x2
            assert c.coefficient(4).payload == x4 - q0 * x1 * x3
            assert artin_hasse_inv(ctx, c, T).payloads() == tuple(xs)


def test_artin_hasse_additive():
    T = TruncationSet(range(1, 9))
    rng = random.Random(71)
    ctx = QContext(2)
    for _ in range(10):
        a = rand_vec(rng, T, ZZ, WITT, -3, 3)
        b = rand_vec(rng, T, ZZ, WITT, -3, 3)
        s = q_witt_op(ctx, "sum", a, b)
        assert artin_hasse(ctx, s) == curve_add(ctx, artin_hasse(ctx, a), artin_hasse(ctx, b))


def test_artin_hasse_divisor_truncation():
    # on div(4) the t^3 coefficient of the image is forced: x_3 = 0, so -q x_1 x_2
    ctx = QContext(2)
    a = wvec(D4, [1, 2, -1])
    c = artin_hasse(ctx, a)
    assert c.degree == 4
    assert c.coefficient(3).payload == -2 * 1 * 2
    assert artin_hasse_inv(ctx, c, D4) == a
    # tampering with a forced coefficient leaves the image
    bad = TruncatedCurve.from_payloads(
        ZZ, [c.coefficient(1).payload, c.coefficient(2).payload, 0, c.coefficient(4).payload])
    with pytest.raises(NotInImage):
        artin_hasse_inv(ctx, bad, D4)


def test_curve_group_and_product():
    ctx = QContext(2)
    T = TruncationSet(range(1, 7))
    rng = random.Random(73)
    zero = TruncatedCurve.from_ints(ZZ, [0] * 6)
    for _ in range(6):
        a = rand_vec(rng, T, ZZ, WITT, -3, 3)
        b = rand_vec(rng, T, ZZ, WITT, -3, 3)
        c = rand_vec(rng, T, ZZ, WITT, -3, 3)
        ca, cb, cc = (artin_hasse(ctx, v) for v in (a, b, c))
        assert curve_add(ctx, ca, curve_neg(ctx, ca)) == zero
        assert curve_add(ctx, ca, cb) == curve_add(ctx, cb, ca)
        # multiplication transported from the q-Witt product
        assert curve_mul(ctx, ca, cb) == artin_hasse(ctx, q_witt_op(ctx, "prod", a, b))
        assert curve_mul(ctx, curve_mul(ctx, ca, cb), cc) == curve_mul(
            ctx, ca, curve_mul(ctx, cb, cc))
        lhs = curve_mul(ctx, ca, curve_add(ctx, cb, cc))
        rhs = curve_add(ctx, curve_mul(ctx, ca, cb), curve_mul(ctx, ca, cc))
        assert lhs == rhs


def _peeled_by_refolding(ctx, c, T):
    """The reference for artin_hasse_inv: each component peeled off a fresh
    Artin-Hasse fold of those before it, and one more fold to verify."""
    R = c.ring
    N = max(T.members)
    if c.degree != N:
        raise ValueError(f"curve degree {c.degree} does not match max(T) = {N}")
    payloads = []
    for pos, n in enumerate(T):
        partial = CyclicVector.from_payloads(T, WITT, R, payloads + [R.zero()] * (len(T) - pos))
        h = artin_hasse(ctx, partial)
        payloads.append(R.add(c.coefficient(n).payload, R.neg(h.coefficient(n).payload)))
    result = CyclicVector.from_payloads(T, WITT, R, payloads)
    if artin_hasse(ctx, result) != c:
        raise NotInImage("curve is not an Artin-Hasse image on this truncation set")
    return result


def _outcome(call):
    try:
        return call()
    except (ValueError, DomainError, SchemaError) as exc:
        return type(exc), str(exc)


def test_artin_hasse_inv_matches_the_refolding_peel():
    rng = random.Random(89)
    draws = {
        ZZ: lambda: rng.randint(-4, 4),
        QQ: lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
        Z8: lambda: rng.randrange(8),
        QQ_Q: lambda: QP([Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                          for _ in range(rng.randint(0, 3))]),
    }
    sets = (TruncationSet(range(1, 7)), D4, D6, TruncationSet([1, 2, 3, 6]), TruncationSet([1, 3, 5]))
    kinds = {}
    for q in (-1, 0, 1, 2, "q"):
        ctx = QContext(q)
        for R, draw in draws.items():
            for T in sets:
                N = T.members[-1]
                curves = [TruncatedCurve.from_payloads(R, [draw() for _ in range(k)])
                          for k in (N, N, N + 1)]
                try:
                    curves.append(artin_hasse(ctx, CyclicVector.from_payloads(
                        T, WITT, R, [draw() for _ in T])))
                except SchemaError:  # the indeterminate outside Q[q]
                    pass
                for c in curves:
                    got = _outcome(lambda: artin_hasse_inv(ctx, c, T))
                    assert got == _outcome(lambda: _peeled_by_refolding(ctx, c, T)), (q, R, T, c)
                    kind = got[0].__name__ if type(got) is tuple else "vector"
                    kinds[kind] = kinds.get(kind, 0) + 1
    assert set(kinds) == {"vector", "NotInImage", "ValueError", "SchemaError"}, kinds
    assert min(kinds.values()) >= 20, kinds


def test_artin_hasse_curves_are_bounded():
    ctx = QContext(2)
    T = TruncationSet(range(1, CURVE_DEGREE_BOUND + 1))
    a = wvec(T, [1] * len(T))
    assert artin_hasse_inv(ctx, artin_hasse(ctx, a), T) == a
    over = TruncationSet(range(1, CURVE_DEGREE_BOUND + 2))
    refusal = (f"^truncation set member {CURVE_DEGREE_BOUND + 1} exceeds the bound "
               f"{CURVE_DEGREE_BOUND} of the Artin-Hasse curves$")
    with pytest.raises(DomainError, match=refusal):
        artin_hasse(ctx, wvec(over, [1] * len(over)))
    with pytest.raises(DomainError, match=refusal):
        artin_hasse_inv(ctx, TruncatedCurve.from_ints(ZZ, [1] * len(over)), over)
    # the refusals that come first keep their class and message
    with pytest.raises(SchemaError, match="requires the Q\\[q\\] ring"):
        artin_hasse(QContext(None), wvec(over, [1] * len(over)))
    with pytest.raises(ValueError, match="^curve degree 2 does not match"):
        artin_hasse_inv(ctx, TruncatedCurve.from_ints(ZZ, [1, 1]), over)


def test_qcontext_validation():
    assert QContext("q").q is None
    assert QContext(3).q == 3
    with pytest.raises(SchemaError):
        QContext("x")
    with pytest.raises(SchemaError):
        QContext(Fraction(1, 2))
