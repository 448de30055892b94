"""Acceptance suite: ten exact criteria, one pass/fail line each.

Every check is exact (integer / Fraction / polynomial equality — no
tolerances).  Sample counts are fixed and all randomness is seeded, so
the run is deterministic.  Criteria appear in dependency-friendly order:
early tests warm the in-process universal-polynomial caches that later
tests reuse, keeping the whole file well under the five-minute budget.

Polynomial-coefficient cells (the 2-variable integer-polynomial ring)
run at a reduced triple count, 50 instead of 200: one exact Witt product
of sparse bivariate polynomials on the 8-class dihedral group costs about
5 ms (2-vCPU Xeon, Python 3.11), but the nested products of the
associativity checks grow fast.  Every cell is still exercised, with zero
tolerance.
"""
import json
import math
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

from wittburnside import (
    APERIODIC,
    GHOST,
    NECKLACE,
    WITT,
    CyclicVector,
    IndexedVector,
    QContext,
    QPolynomial,
    RingValue,
    TruncationSet,
    ap_ghost,
    ap_op,
    aperiodic_poly,
    artin_hasse,
    artin_hasse_inv,
    build_group,
    curve_add,
    curve_mul,
    curve_neg,
    cyc_ap_mul,
    cyc_ap_op,
    cyc_frobenius,
    cyc_ghost,
    cyc_ghost_inv,
    cyc_nr_mul,
    cyc_nr_op,
    cyc_theta,
    cyc_theta_inv,
    cyc_universal,
    cyc_verschiebung,
    cyc_witt_ghost,
    cyc_witt_op,
    derive_universal,
    divisors,
    gamma,
    gamma_inv,
    ghost_F,
    ghost_nu,
    ind_ap,
    ind_nr,
    marks_matrix,
    necklace_poly,
    nr_ghost,
    nr_op,
    p_poly,
    parse_ring,
    q_frobenius,
    q_ghost,
    q_necklace_poly,
    q_nr_mul,
    q_nr_op,
    q_ap_mul,
    q_ap_op,
    q_teichmuller,
    q_universal,
    q_verschiebung,
    q_witt_ghost,
    q_witt_op,
    res_ap,
    res_nr,
    subgroup_classes,
    subgroup_group,
    teichmuller,
    teichmuller_inv,
    theta,
    theta_inv,
    theta_q,
    theta_q_inv,
    wg_ghost,
    wg_op,
    witt_f,
    witt_v,
)
from wittburnside.rings import QQ, ZZ

Z8 = parse_ring("Z/8")
ZXY = parse_ring("ZPoly(x,y)")

GROUPS5 = ("C2", "C4", "C6", "S3", "D4")
GOLDENS = pathlib.Path(__file__).resolve().parent / "goldens"

_GROUPS = {}


def _G(name):
    if name not in _GROUPS:
        _GROUPS[name] = build_group(name)
    return _GROUPS[name]


class Checker:
    """Collects exact-equality failures and emits one line per criterion."""

    def __init__(self, num):
        self.num = num
        self.count = 0
        self.bad = []

    def eq(self, tag, lhs, rhs):
        self.count += 1
        if lhs != rhs:
            if len(self.bad) < 5:
                self.bad.append(f"{tag}: {lhs!r} != {rhs!r}")
            else:
                self.bad.append(tag)

    def true(self, tag, cond):
        self.eq(tag, bool(cond), True)

    def done(self):
        status = "PASS" if not self.bad else "FAIL"
        print(f"criterion {self.num:02d}: {status} ({self.count} checks)")
        assert not self.bad, f"criterion {self.num:02d}: " + "; ".join(self.bad[:5])


def _rand_scalar(R, rng, lo=-9, hi=9):
    v = RingValue.from_int(R, rng.randint(lo, hi))
    if R is QQ and rng.random() < 0.5:
        v = v + RingValue(QQ, Fraction(rng.randint(lo, hi), rng.choice((2, 3, 4))))
    return v


def _rand_poly(rng):
    # sparse on purpose: exact products through degree-8 universal forms
    v = RingValue.from_int(ZXY, rng.randint(-3, 3))
    if rng.random() < 0.5:
        c = rng.choice((-2, -1, 1, 2))
        v = v + RingValue.parse(ZXY, f"{c}*{rng.choice(('x', 'y'))}^1")
    return v


def _rand_val(R, rng, lo=-9, hi=9):
    if R is ZXY:
        return _rand_poly(rng)
    return _rand_scalar(R, rng, lo, hi)


def _gvec(G, flavor, R, rng, lo=-9, hi=9):
    k = len(subgroup_classes(G))
    return IndexedVector(G, flavor, R, [_rand_val(R, rng, lo, hi) for _ in range(k)])


def _cvec(T, flavor, R, rng, lo=-9, hi=9):
    return CyclicVector(T, flavor, R, [_rand_val(R, rng, lo, hi) for _ in range(len(T))])


def _cw(gx, gy, f):
    # combine ghost vectors through in-ring arithmetic so residue rings reduce
    return tuple(f(u, v).payload for u, v in zip(gx.components, gy.components))


# ring cells: (name, ring, triples, lo, hi); polynomial cells run reduced
CELLS = (
    ("Z", ZZ, 200, -9, 9),
    ("Q", QQ, 200, -9, 9),
    ("Z/8", Z8, 200, 0, 7),
    ("ZPoly(x,y)", ZXY, 50, -3, 3),
)


def _ap_defined(G, R):
    return G.is_abelian() or R.is_qalgebra


def test_criterion_01():
    """Ring axioms in W_G, NR_G and (where defined) AP_G, exactly."""
    c = Checker(1)
    ops = {WITT: wg_op, NECKLACE: nr_op, APERIODIC: ap_op}
    for gname in GROUPS5:
        G = _G(gname)
        for rname, R, triples, lo, hi in CELLS:
            rng = random.Random(f"acc1:{gname}:{rname}")
            for flavor in (WITT, NECKLACE, APERIODIC):
                if flavor == APERIODIC and not _ap_defined(G, R):
                    continue
                op = ops[flavor]
                for t in range(triples):
                    tag = f"{gname}/{rname}/{flavor}/{t}"
                    x = _gvec(G, flavor, R, rng, lo, hi)
                    y = _gvec(G, flavor, R, rng, lo, hi)
                    z = _gvec(G, flavor, R, rng, lo, hi)
                    c.eq(f"{tag}/sum-comm", op("sum", x, y), op("sum", y, x))
                    c.eq(
                        f"{tag}/sum-assoc",
                        op("sum", op("sum", x, y), z),
                        op("sum", x, op("sum", y, z)),
                    )
                    c.eq(f"{tag}/prod-comm", op("prod", x, y), op("prod", y, x))
                    c.eq(
                        f"{tag}/prod-assoc",
                        op("prod", op("prod", x, y), z),
                        op("prod", x, op("prod", y, z)),
                    )
                    c.eq(
                        f"{tag}/distrib",
                        op("prod", x, op("sum", y, z)),
                        op("sum", op("prod", x, y), op("prod", x, z)),
                    )
    c.done()


def test_criterion_02():
    """Ghost maps are ring homomorphisms on every configuration."""
    c = Checker(2)
    for gname in GROUPS5:
        G = _G(gname)
        for rname, R, triples, lo, hi in CELLS:
            pairs = 100 if triples == 200 else triples
            rng = random.Random(f"acc2:{gname}:{rname}")
            for t in range(pairs):
                tag = f"{gname}/{rname}/{t}"
                a = _gvec(G, WITT, R, rng, lo, hi)
                b = _gvec(G, WITT, R, rng, lo, hi)
                ga, gb = wg_ghost(a), wg_ghost(b)
                c.eq(
                    f"{tag}/witt-sum",
                    wg_ghost(wg_op("sum", a, b)).payloads(),
                    _cw(ga, gb, lambda u, v: u + v),
                )
                c.eq(
                    f"{tag}/witt-prod",
                    wg_ghost(wg_op("prod", a, b)).payloads(),
                    _cw(ga, gb, lambda u, v: u * v),
                )
                x = _gvec(G, NECKLACE, R, rng, lo, hi)
                y = _gvec(G, NECKLACE, R, rng, lo, hi)
                gx, gy = nr_ghost(x), nr_ghost(y)
                c.eq(
                    f"{tag}/nr-sum",
                    nr_ghost(nr_op("sum", x, y)).payloads(),
                    _cw(gx, gy, lambda u, v: u + v),
                )
                c.eq(
                    f"{tag}/nr-prod",
                    nr_ghost(nr_op("prod", x, y)).payloads(),
                    _cw(gx, gy, lambda u, v: u * v),
                )
                if _ap_defined(G, R):
                    u = _gvec(G, APERIODIC, R, rng, lo, hi)
                    v = _gvec(G, APERIODIC, R, rng, lo, hi)
                    gu, gv = ap_ghost(u), ap_ghost(v)
                    c.eq(
                        f"{tag}/ap-sum",
                        ap_ghost(ap_op("sum", u, v)).payloads(),
                        _cw(gu, gv, lambda s, w: s + w),
                    )
                    c.eq(
                        f"{tag}/ap-prod",
                        ap_ghost(ap_op("prod", u, v)).payloads(),
                        _cw(gu, gv, lambda s, w: s * w),
                    )
    T = TruncationSet.div(12)
    rng = random.Random("acc2:cyclic")
    for t in range(100):
        tag = f"cyclic-div12/{t}"
        a, b = _cvec(T, WITT, ZZ, rng), _cvec(T, WITT, ZZ, rng)
        ga, gb = cyc_witt_ghost(a), cyc_witt_ghost(b)
        c.eq(
            f"{tag}/witt-prod",
            cyc_witt_ghost(cyc_witt_op("prod", a, b)).payloads(),
            _cw(ga, gb, lambda u, v: u * v),
        )
        x, y = _cvec(T, NECKLACE, ZZ, rng), _cvec(T, NECKLACE, ZZ, rng)
        c.eq(
            f"{tag}/nr-prod",
            cyc_ghost(cyc_nr_mul(x, y)).payloads(),
            _cw(cyc_ghost(x), cyc_ghost(y), lambda u, v: u * v),
        )
        u, v = _cvec(T, APERIODIC, ZZ, rng), _cvec(T, APERIODIC, ZZ, rng)
        c.eq(
            f"{tag}/ap-prod",
            cyc_ghost(cyc_ap_mul(u, v)).payloads(),
            _cw(cyc_ghost(u), cyc_ghost(v), lambda s, w: s * w),
        )
    c.done()


def test_criterion_03():
    """tau/theta/gamma round-trip and commute with the ghost maps."""
    c = Checker(3)
    for gname in GROUPS5:
        G = _G(gname)
        # genuine component transports over the binomial ring and over Q
        for R in (ZZ, QQ):
            rng = random.Random(f"acc3:{gname}:{R.name}")
            for t in range(100):
                tag = f"{gname}/{R.name}/{t}"
                a = _gvec(G, WITT, R, rng)
                tau = teichmuller(a)
                c.eq(f"{tag}/tau-roundtrip", teichmuller_inv(tau), a)
                c.eq(f"{tag}/gamma-roundtrip", gamma_inv(gamma(a)), a)
                c.eq(f"{tag}/theta-roundtrip", theta_inv(theta(tau)), tau)
                c.eq(
                    f"{tag}/ghost-through-tau",
                    nr_ghost(tau).payloads(),
                    wg_ghost(a).payloads(),
                )
                if _ap_defined(G, R):
                    c.eq(
                        f"{tag}/theta-completes-triangle",
                        ap_ghost(theta(tau)).payloads(),
                        nr_ghost(tau).payloads(),
                    )
                    c.eq(
                        f"{tag}/ghost-through-gamma",
                        ap_ghost(gamma(a)).payloads(),
                        wg_ghost(a).payloads(),
                    )
        # residue ring: coordinate-backed transports
        rng = random.Random(f"acc3:{gname}:Z8")
        for t in range(100):
            tag = f"{gname}/Z8/{t}"
            a = _gvec(G, WITT, Z8, rng, 0, 7)
            b = _gvec(G, WITT, Z8, rng, 0, 7)
            ta = teichmuller(a)
            c.eq(f"{tag}/tau-roundtrip", teichmuller_inv(ta), a)
            c.eq(f"{tag}/gamma-roundtrip", gamma_inv(gamma(a)), a)
            c.eq(f"{tag}/theta-roundtrip", theta_inv(theta(ta)), ta)
            c.eq(
                f"{tag}/ghost-through-tau",
                nr_ghost(ta).payloads(),
                wg_ghost(a).payloads(),
            )
            c.eq(
                f"{tag}/coord-product",
                nr_op("prod", ta, teichmuller(b)).payloads(),
                wg_op("prod", a, b).payloads(),
            )
        # polynomial ring: the image lives in the rationalisation
        rng = random.Random(f"acc3:{gname}:ZPoly")
        for t in range(10):
            tag = f"{gname}/ZPoly/{t}"
            a = _gvec(G, WITT, ZXY, rng)
            tau = teichmuller(a)
            c.eq(
                f"{tag}/tau-roundtrip",
                teichmuller_inv(tau).payloads(),
                a.payloads(),
            )
            c.eq(
                f"{tag}/gamma-roundtrip",
                gamma_inv(gamma(a)).payloads(),
                a.payloads(),
            )
            c.eq(f"{tag}/theta-roundtrip", theta_inv(theta(tau)), tau)
            c.eq(
                f"{tag}/ghost-through-tau",
                nr_ghost(tau).payloads(),
                wg_ghost(a).payloads(),
            )
    # cyclic model: theta round-trips and intertwines the products
    T = TruncationSet.div(12)
    rng = random.Random("acc3:cyclic")
    for t in range(100):
        tag = f"cyclic-div12/{t}"
        x = _cvec(T, NECKLACE, QQ, rng)
        y = _cvec(T, NECKLACE, QQ, rng)
        c.eq(f"{tag}/theta-roundtrip", cyc_theta_inv(cyc_theta(x)), x)
        c.eq(
            f"{tag}/theta-intertwines",
            cyc_theta(cyc_nr_mul(x, y)),
            cyc_ap_mul(cyc_theta(x), cyc_theta(y)),
        )
        c.eq(
            f"{tag}/nr-ghost-roundtrip",
            cyc_ghost_inv(cyc_ghost(x), NECKLACE),
            x,
        )
    c.done()


def test_criterion_04():
    """Integrality of all universal polynomials; numericality of P_{n,i,j}."""
    c = Checker(4)
    for gname in GROUPS5:
        G = _G(gname)
        for op in ("sum", "prod", "neg"):
            uni = derive_universal(G, op)
            c.true(
                f"{gname}/{op}/integer-coeffs",
                all(
                    coef.denominator == 1
                    for p in uni.polys
                    for coef in p.terms.values()
                ),
            )
    T = TruncationSet.div(12)
    for op in ("sum", "prod", "neg"):
        uni = cyc_universal(T, op)
        c.true(
            f"div12/{op}/integer-coeffs",
            all(
                coef.denominator == 1
                for p in uni.polys
                for coef in p.terms.values()
            ),
        )
    # q-deformed forms: grouped q-coefficients are numerical polynomials;
    # sum and negation are genuinely integer polynomials in q
    for op in ("sum", "prod", "neg"):
        uni = q_universal(T, op)
        c.true(
            f"qdiv12/{op}/numerical",
            all(poly.is_numerical() for comp in uni.compiled for poly, _ in comp),
        )
        if op != "prod":
            c.true(
                f"qdiv12/{op}/integer-q-coeffs",
                all(
                    coef.denominator == 1
                    for comp in uni.compiled
                    for poly, _ in comp
                    for coef in poly.coeffs
                ),
            )
    for n in range(1, 13):
        for i in divisors(n):
            for j in divisors(n):
                if n % math.lcm(i, j):
                    continue
                p = p_poly(n, i, j)
                c.true(f"P/{n},{i},{j}/numerical", p.is_numerical())
                want = Fraction(1 if math.lcm(i, j) == n else 0)
                c.eq(f"P/{n},{i},{j}/at-1", p(1), want)
    c.done()


def test_criterion_05():
    """Frozen oracles: second-component structure polynomials, the
    degree-2 product weight, small necklace counts, and marks tables."""
    c = Checker(5)
    T2 = TruncationSet.div(2)
    su, pu, ng = (cyc_universal(T2, op) for op in ("sum", "prod", "neg"))
    c.eq("s/vars", su.vars, ("a_1", "a_2", "b_1", "b_2"))
    c.eq(
        "s2",
        [p.format() for p in su.polys],
        ["1*a_1^1+1*b_1^1", "-1*a_1^1*b_1^1+1*a_2^1+1*b_2^1"],
    )
    c.eq(
        "p2",
        [p.format() for p in pu.polys],
        ["1*a_1^1*b_1^1", "1*a_1^2*b_2^1+1*a_2^1*b_1^2+2*a_2^1*b_2^1"],
    )
    c.eq("iota2", [p.format() for p in ng.polys], ["-1*a_1^1", "-1*a_1^2+-1*a_2^1"])
    qsu = q_universal(T2, "sum")
    c.eq(
        "s2q",
        [p.format() for p in qsu.polys],
        ["1*a_1^1+1*b_1^1", "-1*q^1*a_1^1*b_1^1+1*a_2^1+1*b_2^1"],
    )
    # independent evaluation of the same oracles on a full small grid
    grid = range(-2, 3)
    for a1 in grid:
        for a2 in grid:
            for b1 in grid:
                for b2 in grid:
                    a = CyclicVector.from_ints(T2, WITT, ZZ, [a1, a2])
                    b = CyclicVector.from_ints(T2, WITT, ZZ, [b1, b2])
                    c.eq(
                        f"s2@{a1},{a2},{b1},{b2}",
                        cyc_witt_op("sum", a, b).payloads(),
                        (a1 + b1, a2 + b2 - a1 * b1),
                    )
                    c.eq(
                        f"p2@{a1},{a2},{b1},{b2}",
                        cyc_witt_op("prod", a, b).payloads(),
                        (a1 * b1, a1 * a1 * b2 + a2 * b1 * b1 + 2 * a2 * b2),
                    )
                    c.eq(
                        f"iota2@{a1},{a2}",
                        cyc_witt_op("neg", a).payloads(),
                        (-a1, -a2 - a1 * a1),
                    )
                    for q0 in range(-2, 4):
                        c.eq(
                            f"s2q@{q0};{a1},{a2},{b1},{b2}",
                            q_witt_op(QContext(q0), "sum", a, b).payloads(),
                            (a1 + b1, a2 + b2 - q0 * a1 * b1),
                        )
    c.eq(
        "P211",
        p_poly(2, 1, 1).coeffs,
        (Fraction(0), Fraction(-1, 2), Fraction(1, 2)),
    )
    c.eq(
        "M(2,n)",
        tuple(
            necklace_poly(RingValue.from_int(ZZ, 2), n).payload for n in range(1, 7)
        ),
        (2, 1, 2, 3, 6, 9),
    )
    c.eq("marks-C2", marks_matrix(_G("C2")).zeta.rows, ((1, 1), (0, 2)))
    c.eq(
        "marks-S3",
        marks_matrix(_G("S3")).zeta.rows,
        ((1, 1, 1, 1), (0, 2, 0, 2), (0, 0, 1, 3), (0, 0, 0, 6)),
    )
    c.done()


def test_criterion_06():
    """Necklace-count identities, ghost-inverse products, the q-weight
    convolution identity, and the corrected q-count multiplicativity."""
    c = Checker(6)
    # product formula through the lcm-graded convolution, and its
    # index-weighted (aperiodic-count) analogue
    for r in range(-3, 4):
        for s in range(-3, 4):
            for n in range(1, 13):
                lhs = necklace_poly(RingValue.from_int(ZZ, r * s), n).payload
                rhs = sum(
                    math.gcd(i, j)
                    * necklace_poly(RingValue.from_int(ZZ, r), i).payload
                    * necklace_poly(RingValue.from_int(ZZ, s), j).payload
                    for i in divisors(n)
                    for j in divisors(n)
                    if math.lcm(i, j) == n
                )
                c.eq(f"necklace-product/{r},{s},{n}", lhs, rhs)
                lhs_s = aperiodic_poly(RingValue.from_int(ZZ, r * s), n).payload
                rhs_s = sum(
                    aperiodic_poly(RingValue.from_int(ZZ, r), i).payload
                    * aperiodic_poly(RingValue.from_int(ZZ, s), j).payload
                    for i in divisors(n)
                    for j in divisors(n)
                    if math.lcm(i, j) == n
                )
                c.eq(f"aperiodic-product/{r},{s},{n}", lhs_s, rhs_s)
    # products transported through the ghost map land on the structure
    # constants (corrected componentwise form)
    T = TruncationSet.div(12)
    rng = random.Random("acc6:ghost-inverse")
    for t in range(30):
        a = _cvec(T, GHOST, QQ, rng)
        b = _cvec(T, GHOST, QQ, rng)
        prod = a.with_components(
            [u * v for u, v in zip(a.components, b.components)]
        )
        c.eq(
            f"ghost-inverse-nr/{t}",
            cyc_ghost_inv(prod, NECKLACE),
            cyc_nr_mul(cyc_ghost_inv(a, NECKLACE), cyc_ghost_inv(b, NECKLACE)),
        )
        ai = _cvec(T, GHOST, ZZ, rng)
        bi = _cvec(T, GHOST, ZZ, rng)
        prod_i = ai.with_components(
            [u * v for u, v in zip(ai.components, bi.components)]
        )
        c.eq(
            f"ghost-inverse-ap/{t}",
            cyc_ghost_inv(prod_i, APERIODIC),
            cyc_ap_mul(cyc_ghost_inv(ai, APERIODIC), cyc_ghost_inv(bi, APERIODIC)),
        )
    # convolving the product weights against the divisor-shifted q-powers
    # recovers the pure ghost monomial
    for n in range(1, 13):
        for i in divisors(n):
            for j in divisors(n):
                ell = math.lcm(i, j)
                if n % ell:
                    continue
                acc = QPolynomial()
                for d in divisors(n):
                    if d % ell:
                        continue
                    shift = QPolynomial.monomial(Fraction(d, ell), n // d - 1)
                    acc = acc + shift * p_poly(d, i, j)
                c.eq(
                    f"coeff-identity/{n},{i},{j}",
                    acc,
                    QPolynomial.monomial(Fraction(1), n // i + n // j - 2),
                )
    # corrected multiplicativity: the q-count of q*x*y equals q times the
    # deformed product of the q-counts (rational samples, q = 2)
    ctx2 = QContext(2)
    T2 = TruncationSet.div(2)

    def mq(val):
        return CyclicVector(
            T2,
            NECKLACE,
            QQ,
            [q_necklace_poly(ctx2, RingValue(QQ, Fraction(val)), n) for n in T2],
        )

    rng = random.Random("acc6:qcount")
    for t in range(50):
        x0 = Fraction(rng.randint(-8, 8), rng.choice((1, 2, 3, 4)))
        y0 = Fraction(rng.randint(-8, 8), rng.choice((1, 2, 3, 4)))
        got = q_nr_mul(ctx2, mq(x0), mq(y0))
        scaled = got.with_components(
            [RingValue(QQ, 2 * v.payload) for v in got.components]
        )
        c.eq(f"corrected-identity/{t}", mq(2 * x0 * y0), scaled)
    # frozen witness: the raw q-count map itself is NOT multiplicative
    m6, m2, m3, m12 = mq(6), mq(2), mq(3), mq(12)
    prod23 = q_nr_mul(ctx2, m2, m3)
    c.eq(
        "witness/M6-vs-M2M3",
        (m6.payloads()[1], prod23.payloads()[1]),
        (30, 66),
    )
    doubled = prod23.with_components(
        [RingValue(QQ, 2 * v.payload) for v in prod23.components]
    )
    c.eq("witness/M12-corrected", m12, doubled)
    c.done()


def test_criterion_07():
    """Induction/restriction transports, ghost companions, additivity of
    Ind and multiplicativity of Res, on 50 samples per (G, U)."""
    c = Checker(7)
    for gname in GROUPS5:
        G = _G(gname)
        for ci in range(1, len(subgroup_classes(G))):
            U = subgroup_group(G, ci)
            rng = random.Random(f"acc7:{gname}:{ci}")
            for t in range(50):
                tag = f"{gname}/class{ci}/{t}"
                au = _gvec(U, WITT, QQ, rng)
                c.eq(
                    f"{tag}/ind-tau",
                    ind_nr(G, ci, teichmuller(au)),
                    teichmuller(witt_v(G, ci, au)),
                )
                c.eq(
                    f"{tag}/ind-gamma",
                    ind_ap(G, ci, gamma(au)),
                    gamma(witt_v(G, ci, au)),
                )
                xu = _gvec(U, NECKLACE, QQ, rng)
                c.eq(
                    f"{tag}/ind-theta",
                    ind_ap(G, ci, theta(xu)),
                    theta(ind_nr(G, ci, xu)),
                )
                ag = _gvec(G, WITT, QQ, rng)
                c.eq(
                    f"{tag}/res-tau",
                    res_nr(G, ci, teichmuller(ag)),
                    teichmuller(witt_f(G, ci, ag)),
                )
                c.eq(
                    f"{tag}/res-gamma",
                    res_ap(G, ci, gamma(ag)),
                    gamma(witt_f(G, ci, ag)),
                )
                xg = _gvec(G, NECKLACE, QQ, rng)
                c.eq(
                    f"{tag}/res-theta",
                    res_ap(G, ci, theta(xg)),
                    theta(res_nr(G, ci, xg)),
                )
                yu = _gvec(U, NECKLACE, QQ, rng)
                c.eq(
                    f"{tag}/ind-additive",
                    ind_nr(G, ci, nr_op("sum", xu, yu)),
                    nr_op("sum", ind_nr(G, ci, xu), ind_nr(G, ci, yu)),
                )
                yg = _gvec(G, NECKLACE, QQ, rng)
                c.eq(
                    f"{tag}/res-multiplicative",
                    res_nr(G, ci, nr_op("prod", xg, yg)),
                    nr_op("prod", res_nr(G, ci, xg), res_nr(G, ci, yg)),
                )
                c.eq(
                    f"{tag}/res-additive",
                    res_nr(G, ci, nr_op("sum", xg, yg)),
                    nr_op("sum", res_nr(G, ci, xg), res_nr(G, ci, yg)),
                )
                aw = _gvec(G, WITT, ZZ, rng)
                bw = _gvec(G, WITT, ZZ, rng)
                c.eq(
                    f"{tag}/frobenius-hom",
                    witt_f(G, ci, wg_op("prod", aw, bw)),
                    wg_op("prod", witt_f(G, ci, aw), witt_f(G, ci, bw)),
                )
                cu = _gvec(U, WITT, ZZ, rng)
                du = _gvec(U, WITT, ZZ, rng)
                c.eq(
                    f"{tag}/verschiebung-additive",
                    witt_v(G, ci, wg_op("sum", cu, du)),
                    wg_op("sum", witt_v(G, ci, cu), witt_v(G, ci, du)),
                )
                xn = _gvec(U, NECKLACE, ZZ, rng, 0, 9)
                c.eq(
                    f"{tag}/ghost-nu",
                    ghost_nu(G, ci, nr_ghost(xn)),
                    nr_ghost(ind_nr(G, ci, xn)),
                )
                yn = _gvec(G, NECKLACE, ZZ, rng, 0, 9)
                c.eq(
                    f"{tag}/ghost-F",
                    ghost_F(G, ci, nr_ghost(yn)),
                    nr_ghost(res_nr(G, ci, yn)),
                )
                c.eq(
                    f"{tag}/ghost-of-v",
                    wg_ghost(witt_v(G, ci, cu)),
                    ghost_nu(G, ci, wg_ghost(cu)),
                )
                c.eq(
                    f"{tag}/ghost-of-f",
                    wg_ghost(witt_f(G, ci, aw)),
                    ghost_F(G, ci, wg_ghost(aw)),
                )
    c.done()


def test_criterion_08():
    """Cyclic truncation-set model vs the group functors on C_N,
    bit-for-bit, and q = 1 paths vs the classical paths."""
    c = Checker(8)
    for N in (2, 4, 6, 12):
        G = _G(f"C{N}")
        T = TruncationSet.div(N)
        rng = random.Random(f"acc8:C{N}")
        for t in range(25):
            tag = f"C{N}/{t}"
            xs = [rng.randint(-9, 9) for _ in T]
            ys = [rng.randint(-9, 9) for _ in T]
            gw = IndexedVector.from_ints(G, WITT, ZZ, xs)
            hw = IndexedVector.from_ints(G, WITT, ZZ, ys)
            cw = CyclicVector.from_ints(T, WITT, ZZ, xs)
            dw = CyclicVector.from_ints(T, WITT, ZZ, ys)
            c.eq(
                f"{tag}/witt-ghost",
                wg_ghost(gw).payloads(),
                cyc_witt_ghost(cw).payloads(),
            )
            for op in ("sum", "prod"):
                c.eq(
                    f"{tag}/witt-{op}",
                    wg_op(op, gw, hw).payloads(),
                    cyc_witt_op(op, cw, dw).payloads(),
                )
            c.eq(
                f"{tag}/witt-neg",
                wg_op("neg", gw).payloads(),
                cyc_witt_op("neg", cw).payloads(),
            )
            gn, hn = gw.retag(NECKLACE), hw.retag(NECKLACE)
            cn, dn = cw.retag(NECKLACE), dw.retag(NECKLACE)
            c.eq(
                f"{tag}/nr-ghost",
                nr_ghost(gn).payloads(),
                cyc_ghost(cn).payloads(),
            )
            for op in ("sum", "prod", "neg"):
                c.eq(
                    f"{tag}/nr-{op}",
                    nr_op(op, gn, None if op == "neg" else hn).payloads(),
                    cyc_nr_op(op, cn, None if op == "neg" else dn).payloads(),
                )
            ga, ha = gw.retag(APERIODIC), hw.retag(APERIODIC)
            ca, da = cw.retag(APERIODIC), dw.retag(APERIODIC)
            c.eq(
                f"{tag}/ap-ghost",
                ap_ghost(ga).payloads(),
                cyc_ghost(ca).payloads(),
            )
            for op in ("sum", "prod", "neg"):
                c.eq(
                    f"{tag}/ap-{op}",
                    ap_op(op, ga, None if op == "neg" else ha).payloads(),
                    cyc_ap_op(op, ca, None if op == "neg" else da).payloads(),
                )
        # operator dictionary: Verschiebung is index dilation, Frobenius
        # restricts along it
        ct = subgroup_classes(G)
        for ci in range(1, len(ct)):
            r = ct.classes[ci].index
            U = subgroup_group(G, ci)
            Tu = TruncationSet([n for n in T if r * n in T.members])
            for t in range(10):
                tag = f"C{N}/ops/class{ci}/{t}"
                alphas = [rng.randint(-9, 9) for _ in Tu]
                au = IndexedVector.from_ints(U, WITT, ZZ, alphas)
                xs = [0] * len(T)
                for pos, n in enumerate(Tu):
                    xs[T.position(n)] = alphas[pos]
                cx = CyclicVector.from_ints(T, WITT, ZZ, xs)
                c.eq(
                    f"{tag}/verschiebung",
                    witt_v(G, ci, au).payloads(),
                    cyc_verschiebung(r, cx).payloads(),
                )
                ys = [rng.randint(-9, 9) for _ in T]
                ag = IndexedVector.from_ints(G, WITT, ZZ, ys)
                cg = CyclicVector.from_ints(T, WITT, ZZ, ys)
                c.eq(
                    f"{tag}/frobenius",
                    witt_f(G, ci, ag).payloads(),
                    cyc_frobenius(r, cg).payloads(),
                )
    # q = 1 recovers every classical path bit-for-bit
    ctx1 = QContext(1)
    T = TruncationSet.div(12)
    rng = random.Random("acc8:q1")
    for t in range(25):
        tag = f"q1/{t}"
        a, b = _cvec(T, WITT, ZZ, rng), _cvec(T, WITT, ZZ, rng)
        for op in ("sum", "prod"):
            c.eq(
                f"{tag}/witt-{op}",
                q_witt_op(ctx1, op, a, b),
                cyc_witt_op(op, a, b),
            )
        c.eq(f"{tag}/witt-neg", q_witt_op(ctx1, "neg", a), cyc_witt_op("neg", a))
        c.eq(f"{tag}/witt-ghost", q_witt_ghost(ctx1, a), cyc_witt_ghost(a))
        x, y = _cvec(T, NECKLACE, ZZ, rng), _cvec(T, NECKLACE, ZZ, rng)
        c.eq(f"{tag}/nr-mul", q_nr_mul(ctx1, x, y), cyc_nr_mul(x, y))
        c.eq(f"{tag}/nr-ghost", q_ghost(ctx1, x), cyc_ghost(x))
        c.eq(f"{tag}/theta", theta_q(x), cyc_theta(x))
        u, v = _cvec(T, APERIODIC, ZZ, rng), _cvec(T, APERIODIC, ZZ, rng)
        c.eq(f"{tag}/ap-mul", q_ap_mul(ctx1, u, v), cyc_ap_mul(u, v))
        c.eq(f"{tag}/ap-ghost", q_ghost(ctx1, u), cyc_ghost(u))
        for r in (2, 3):
            c.eq(
                f"{tag}/frobenius{r}",
                q_frobenius(ctx1, r, a),
                cyc_frobenius(r, a),
            )
            c.eq(
                f"{tag}/verschiebung{r}",
                q_verschiebung(r, a),
                cyc_verschiebung(r, a),
            )
        aq = _cvec(T, WITT, QQ, rng)
        gq = IndexedVector(_G("C12"), WITT, QQ, list(aq.components))
        c.eq(
            f"{tag}/tau-q1-vs-group",
            q_teichmuller(ctx1, aq).payloads(),
            teichmuller(gq).payloads(),
        )
    for r in range(-5, 6):
        for n in range(1, 13):
            c.eq(
                f"q1/necklace-poly/{r},{n}",
                q_necklace_poly(ctx1, RingValue.from_int(ZZ, r), n).payload,
                necklace_poly(RingValue.from_int(ZZ, r), n).payload,
            )
    c.done()


def test_criterion_09():
    """q-deformed suite: ghost homomorphism, exponential-curve round
    trip with its low-degree displays, Frobenius laws, theta transport."""
    c = Checker(9)
    T6 = TruncationSet.div(6)
    T12 = TruncationSet.div(12)
    for q0 in range(-2, 4):
        ctx = QContext(q0)
        for R, lo, hi in ((ZZ, -6, 6), (Z8, 0, 7)):
            rng = random.Random(f"acc9:ghost:{q0}:{R.name}")
            for t in range(25):
                tag = f"ghost-hom/q{q0}/{R.name}/{t}"
                a = _cvec(T6, WITT, R, rng, lo, hi)
                b = _cvec(T6, WITT, R, rng, lo, hi)
                ga, gb = q_witt_ghost(ctx, a), q_witt_ghost(ctx, b)
                c.eq(
                    f"{tag}/sum",
                    q_witt_ghost(ctx, q_witt_op(ctx, "sum", a, b)).payloads(),
                    _cw(ga, gb, lambda u, v: u + v),
                )
                c.eq(
                    f"{tag}/prod",
                    q_witt_ghost(ctx, q_witt_op(ctx, "prod", a, b)).payloads(),
                    _cw(ga, gb, lambda u, v: u * v),
                )
    # exponential curves: coefficients through t^4 follow the closed
    # displays, and the curve maps are the Witt operations in disguise
    T8 = TruncationSet(range(1, 9))
    for q0 in (-1, 0, 1, 2, 3):
        ctx = QContext(q0)
        rng = random.Random(f"acc9:curve:{q0}")
        for t in range(20):
            tag = f"curves/q{q0}/{t}"
            R = ZZ if t % 2 else QQ
            a = _cvec(T8, WITT, R, rng, -6, 6)
            b = _cvec(T8, WITT, R, rng, -6, 6)
            ca, cb = artin_hasse(ctx, a), artin_hasse(ctx, b)
            c.eq(f"{tag}/roundtrip", artin_hasse_inv(ctx, ca, T8), a)
            x1, x2, x3, x4 = (a.components[k].payload for k in range(4))
            c.eq(f"{tag}/t1", ca.coefficient(1).payload, x1)
            c.eq(f"{tag}/t3", ca.coefficient(3).payload, x3 - q0 * x1 * x2)
            c.eq(f"{tag}/t4", ca.coefficient(4).payload, x4 - q0 * x1 * x3)
            c.eq(
                f"{tag}/additivity",
                artin_hasse(ctx, q_witt_op(ctx, "sum", a, b)),
                curve_add(ctx, ca, cb),
            )
            c.eq(
                f"{tag}/neg",
                curve_add(ctx, ca, curve_neg(ctx, ca)).payloads(),
                (0,) * 8,
            )
            c.eq(
                f"{tag}/multiplicativity",
                curve_mul(ctx, ca, cb),
                artin_hasse(ctx, q_witt_op(ctx, "prod", a, b)),
            )
    # Frobenius: ring map, ghost shift n -> rn for rn <= 12, and the
    # Verschiebung ghost companion
    for q0 in (-2, -1, 0, 1, 2, 3):
        ctx = QContext(q0)
        rng = random.Random(f"acc9:frob:{q0}")
        for t in range(10):
            tag = f"frobenius/q{q0}/{t}"
            a = _cvec(T12, WITT, ZZ, rng, -6, 6)
            b = _cvec(T12, WITT, ZZ, rng, -6, 6)
            ga = q_witt_ghost(ctx, a).payloads()
            for r in (2, 3, 4, 6, 12):
                c.eq(
                    f"{tag}/f{r}-prod-hom",
                    q_frobenius(ctx, r, q_witt_op(ctx, "prod", a, b)),
                    q_witt_op(
                        ctx, "prod", q_frobenius(ctx, r, a), q_frobenius(ctx, r, b)
                    ),
                )
                c.eq(
                    f"{tag}/f{r}-sum-hom",
                    q_frobenius(ctx, r, q_witt_op(ctx, "sum", a, b)),
                    q_witt_op(
                        ctx, "sum", q_frobenius(ctx, r, a), q_frobenius(ctx, r, b)
                    ),
                )
                gf = q_witt_ghost(ctx, q_frobenius(ctx, r, a)).payloads()
                c.eq(
                    f"{tag}/f{r}-ghost-shift",
                    gf,
                    tuple(
                        ga[T12.position(r * n)] for n in T12 if r * n in T12.members
                    ),
                )
                gv = q_witt_ghost(ctx, q_verschiebung(r, a)).payloads()
                c.eq(
                    f"{tag}/v{r}-ghost",
                    gv,
                    tuple(
                        r * ga[T12.position(n // r)] if n % r == 0 else 0
                        for n in T12
                    ),
                )
    # theta transports both operator families
    for q0 in (-1, 2):
        ctx = QContext(q0)
        rng = random.Random(f"acc9:theta:{q0}")
        for t in range(10):
            tag = f"theta-transport/q{q0}/{t}"
            x = _cvec(T12, NECKLACE, ZZ, rng, -6, 6)
            for r in (2, 3, 4, 6):
                c.eq(
                    f"{tag}/V{r}",
                    theta_q(q_verschiebung(r, x)),
                    q_verschiebung(r, theta_q(x)),
                )
                c.eq(
                    f"{tag}/f{r}",
                    theta_q(q_frobenius(ctx, r, x)),
                    q_frobenius(ctx, r, theta_q(x)),
                )
    c.done()


def _cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "wittburnside", *argv],
        capture_output=True,
        text=True,
    )


def test_criterion_10():
    """CLI: byte-exact goldens, a clean full verify run, and a faulted
    self-test that must fail."""
    c = Checker(10)
    for argv, golden in (
        (("group", "info", "--group", "S3"), "group_info_S3.json"),
        (("universal", "--group", "C2", "--op", "prod"), "universal_C2_prod.json"),
        (("qpoly", "P", "--n", "6"), "qpoly_P_6.json"),
    ):
        proc = _cli(*argv)
        c.eq(f"golden/{golden}/exit", proc.returncode, 0)
        c.eq(f"golden/{golden}/bytes", proc.stdout, (GOLDENS / golden).read_text(encoding="utf-8"))
    clean = _cli("verify", "--suite", "all", "--seed", "7")
    c.eq("verify-all/exit", clean.returncode, 0)
    report = json.loads(clean.stdout)
    c.eq("verify-all/failures", report["failures"], [])
    c.true("verify-all/cases", report["cases_run"] > 2000)
    faulted = _cli("verify", "--suite", "diagrams", "--seed", "7", "--inject-fault")
    c.eq("fault/exit", faulted.returncode, 1)
    freport = json.loads(faulted.stdout)
    c.eq(
        "fault/case",
        [f["case"] for f in freport["failures"]],
        ["diagrams/sanity/identity-ghost"],
    )
    c.done()
