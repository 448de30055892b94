"""Seeded verification suites behind the command-line `verify` verb.

Each suite replays a family of algebraic identities on reproducible
pseudo-random inputs and collects mismatches as structured records.
The report dictionary is JSON-ready; an empty failure list is the
machine-readable "all invariants held" signal (exit status 0).

Every suite opens with a fixed sanity check whose expected constant is
negated when `inject_fault` is set, so the reporting path itself can be
exercised end to end: a faulted run must produce a named failing case
and a nonzero exit, proving failures are not silently swallowed.
"""
import math
import random
import time
from fractions import Fraction

from .burnside import (
    APERIODIC,
    GHOST,
    NECKLACE,
    WITT,
    IndexedVector,
    ap_ghost,
    ap_op,
    exp_M,
    gamma,
    gamma_inv,
    ghost_F,
    ghost_nu,
    ind_ap,
    ind_nr,
    nr_ghost,
    nr_op,
    res_ap,
    res_nr,
    teichmuller,
    teichmuller_inv,
    theta,
    theta_inv,
    wg_ghost,
    wg_op,
    witt_f,
    witt_v,
)
from .cyclic import (
    TruncationSet,
    aperiodic_poly,
    cyc_ap_mul,
    cyc_frobenius,
    cyc_ghost,
    cyc_ghost_inv,
    cyc_nr_mul,
    cyc_theta,
    cyc_theta_inv,
    cyc_verschiebung,
    cyc_witt_ghost,
    cyc_witt_op,
    necklace_poly,
)
from .errors import DomainError, SchemaError
from .groups import build_group, subgroup_classes, subgroup_group
from .qdeform import (
    QContext,
    artin_hasse,
    artin_hasse_inv,
    curve_add,
    curve_mul,
    curve_neg,
    p_poly,
    q_frobenius,
    q_ghost,
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
)
from .rings import QQ, QPolynomial, RingValue, ZZ, divisors, parse_ring
from .universal import index_labels

SUITES = (
    "rings",
    "ghosts",
    "diagrams",
    "indres",
    "qpolys",
    "qrings",
    "artinhasse",
    "cyclic-identities",
)

Z8 = parse_ring("Z/8")
ZXY = parse_ring("ZPoly(x,y)")
QXY = parse_ring("QPoly(x,y)")

_GROUPS = {}


def _G(name):
    if name not in _GROUPS:
        _GROUPS[name] = build_group(name)
    return _GROUPS[name]


def _show(v):
    if isinstance(v, IndexedVector):
        return "[" + ", ".join(c.format() for c in v.components) + "]"
    if isinstance(v, RingValue):
        return v.format()
    if isinstance(v, (tuple, list)):
        return "(" + ", ".join(_show(c) for c in v) + ")"
    if hasattr(v, "components"):  # curves
        return "[" + ", ".join(c.format() for c in v.components) + "]"
    return repr(v)


class _Run:
    __slots__ = ("seed", "size", "inject_fault", "cases", "failures")

    def __init__(self, seed, size, inject_fault):
        self.seed = seed
        self.size = size
        self.inject_fault = inject_fault
        self.cases = 0
        self.failures = []

    def rng(self, label):
        return random.Random(f"{self.seed}:{label}")

    def check(self, case, lhs, rhs):
        self.cases += 1
        if lhs != rhs:
            self.failures.append(
                {"case": case, "lhs": _show(lhs), "rhs": _show(rhs)}
            )

    def sanity(self, suite):
        # the one-point class has the all-ones ghost vector; a faulted
        # build expects the negated constant and must therefore fail here
        expect = -1 if self.inject_fault else 1
        got = wg_ghost(IndexedVector.one(_G("C4"), WITT, ZZ)).payloads()
        self.check(f"{suite}/sanity/identity-ghost", got, (expect,) * 3)


def _rand_val(R, rng, lo=-9, hi=9):
    v = RingValue.from_int(R, rng.randint(lo, hi))
    if R is QQ and rng.random() < 0.5:
        v = v + RingValue(QQ, Fraction(rng.randint(lo, hi), rng.choice((2, 3, 4))))
    elif R in (ZXY, QXY):
        for var in ("x", "y"):
            if rng.random() < 0.6:
                c = rng.choice((-2, -1, 1, 2, 3))
                v = v + RingValue.parse(R, f"{c}*{var}^{rng.randint(1, 2)}")
    return v


def _rand_vec(index, flavor, R, rng, lo=-9, hi=9):
    return IndexedVector(index, flavor, R, [_rand_val(R, rng, lo, hi) for _ in index_labels(index)])


# --- suite: rings ------------------------------------------------------------


def _suite_rings(run):
    run.sanity("rings")
    rng = run.rng("rings")
    rings = (("Z", ZZ), ("Q", QQ), ("Z/8", Z8), ("ZPoly(x,y)", ZXY))
    ops = {WITT: wg_op, NECKLACE: nr_op, APERIODIC: ap_op}
    for gname in ("C2", "C4", "C6", "S3", "D4"):
        G = _G(gname)
        for rname, R in rings:
            for flavor in (WITT, NECKLACE, APERIODIC):
                if flavor == APERIODIC and not (G.is_abelian() or R.is_qalgebra):
                    # nonabelian aperiodic structure constants need rational
                    # scalars; run those combinations over Q instead
                    R_use, rname_use = QQ, "Q*"
                else:
                    R_use, rname_use = R, rname
                op = ops[flavor]
                for t in range(run.size):
                    tag = f"rings/{gname}/{rname_use}/{flavor}/{t}"
                    x = _rand_vec(G, flavor, R_use, rng)
                    y = _rand_vec(G, flavor, R_use, rng)
                    z = _rand_vec(G, flavor, R_use, rng)
                    run.check(f"{tag}/sum-comm", op("sum", x, y), op("sum", y, x))
                    run.check(
                        f"{tag}/sum-assoc",
                        op("sum", op("sum", x, y), z),
                        op("sum", x, op("sum", y, z)),
                    )
                    run.check(f"{tag}/prod-comm", op("prod", x, y), op("prod", y, x))
                    run.check(
                        f"{tag}/prod-assoc",
                        op("prod", op("prod", x, y), z),
                        op("prod", x, op("prod", y, z)),
                    )
                    run.check(
                        f"{tag}/distrib",
                        op("prod", x, op("sum", y, z)),
                        op("sum", op("prod", x, y), op("prod", x, z)),
                    )
                    run.check(
                        f"{tag}/neg",
                        op("sum", x, op("neg", x)),
                        IndexedVector.zero(G, flavor, R_use),
                    )
                    run.check(
                        f"{tag}/one",
                        op("prod", IndexedVector.one(G, flavor, R_use), x),
                        x,
                    )


# --- suite: ghosts -----------------------------------------------------------


def _componentwise(gx, gy, f):
    # combine ghost vectors through in-ring arithmetic so residue rings reduce
    return tuple(f(u, v).payload for u, v in zip(gx.components, gy.components))


def _lcm_product(x, y):
    """The necklace or aperiodic product on a truncation set, term by term:
    (x y)_n = sum over lcm(i, j) = n of x_i y_j, weighted gcd(i, j) in the
    necklace flavor.  The library solves it on the ghosts instead."""
    T = x.truncation
    out = [RingValue.from_int(x.ring, 0) for _ in T]
    for i in T:
        for j in T:
            n = math.lcm(i, j)
            if n in T:
                w = math.gcd(i, j) if x.flavor == NECKLACE else 1
                out[T.position(n)] += x.component(i) * y.component(j) * w
    return x.with_components(out)


def _suite_ghosts(run):
    run.sanity("ghosts")
    rng = run.rng("ghosts")
    grid = (("C4", ZZ), ("C6", Z8), ("S3", ZZ), ("S3", QQ), ("D4", ZZ))
    for gname, R in grid:
        G = _G(gname)
        for t in range(2 * run.size):
            tag = f"ghosts/{gname}/{R.name}/{t}"
            a = _rand_vec(G, WITT, R, rng)
            b = _rand_vec(G, WITT, R, rng)
            ga, gb = wg_ghost(a), wg_ghost(b)
            run.check(
                f"{tag}/witt-sum",
                wg_ghost(wg_op("sum", a, b)).payloads(),
                _componentwise(ga, gb, lambda u, v: u + v),
            )
            run.check(
                f"{tag}/witt-prod",
                wg_ghost(wg_op("prod", a, b)).payloads(),
                _componentwise(ga, gb, lambda u, v: u * v),
            )
            x = _rand_vec(G, NECKLACE, R, rng)
            y = _rand_vec(G, NECKLACE, R, rng)
            gx, gy = nr_ghost(x), nr_ghost(y)
            run.check(
                f"{tag}/nr-prod",
                nr_ghost(nr_op("prod", x, y)).payloads(),
                _componentwise(gx, gy, lambda u, v: u * v),
            )
            Ra = R if (G.is_abelian() or R.is_qalgebra) else QQ
            u = _rand_vec(G, APERIODIC, Ra, rng)
            v = _rand_vec(G, APERIODIC, Ra, rng)
            gu, gv = ap_ghost(u), ap_ghost(v)
            run.check(
                f"{tag}/ap-prod",
                ap_ghost(ap_op("prod", u, v)).payloads(),
                _componentwise(gu, gv, lambda s, w: s * w),
            )
    T = TruncationSet.div(12)
    for t in range(3 * run.size):
        tag = f"ghosts/cyclic-div12/{t}"
        a = _rand_vec(T, WITT, ZZ, rng)
        b = _rand_vec(T, WITT, ZZ, rng)
        ga, gb = cyc_witt_ghost(a), cyc_witt_ghost(b)
        run.check(
            f"{tag}/witt-prod",
            cyc_witt_ghost(cyc_witt_op("prod", a, b)).payloads(),
            _componentwise(ga, gb, lambda u, v: u * v),
        )
        x = _rand_vec(T, NECKLACE, ZZ, rng)
        y = _rand_vec(T, NECKLACE, ZZ, rng)
        run.check(f"{tag}/nr-mul", cyc_nr_mul(x, y), _lcm_product(x, y))
        u = _rand_vec(T, APERIODIC, ZZ, rng)
        v = _rand_vec(T, APERIODIC, ZZ, rng)
        run.check(f"{tag}/ap-mul", cyc_ap_mul(u, v), _lcm_product(u, v))


# --- suite: diagrams ---------------------------------------------------------


def _suite_diagrams(run):
    run.sanity("diagrams")
    rng = run.rng("diagrams")
    for gname in ("C4", "C6", "S3", "D4"):
        G = _G(gname)
        for R in (ZZ, QQ):
            for t in range(2 * run.size):
                tag = f"diagrams/{gname}/{R.name}/{t}"
                a = _rand_vec(G, WITT, R, rng)
                tau = teichmuller(a)
                run.check(f"{tag}/tau-roundtrip", teichmuller_inv(tau), a)
                run.check(f"{tag}/gamma-roundtrip", gamma_inv(gamma(a)), a)
                run.check(f"{tag}/theta-roundtrip", theta_inv(theta(tau)), tau)
                run.check(
                    f"{tag}/ghost-through-tau",
                    nr_ghost(tau).payloads(),
                    wg_ghost(a).payloads(),
                )
                if R.is_qalgebra or G.is_abelian():
                    run.check(
                        f"{tag}/ghost-through-gamma",
                        ap_ghost(gamma(a)).payloads(),
                        wg_ghost(a).payloads(),
                    )
                    run.check(
                        f"{tag}/theta-completes-triangle",
                        ap_ghost(theta(tau)).payloads(),
                        nr_ghost(tau).payloads(),
                    )
    # coordinate-backed transports over a residue ring
    for t in range(2 * run.size):
        tag = f"diagrams/coord-Z8/{t}"
        a = _rand_vec(_G("C4"), WITT, Z8, rng, 0, 7)
        b = _rand_vec(_G("C4"), WITT, Z8, rng, 0, 7)
        ta, tb = teichmuller(a), teichmuller(b)
        run.check(f"{tag}/tau-roundtrip", teichmuller_inv(ta), a)
        run.check(
            f"{tag}/coord-product",
            nr_op("prod", ta, tb).payloads(),
            wg_op("prod", a, b).payloads(),
        )
    T = TruncationSet.div(12)
    for t in range(2 * run.size):
        tag = f"diagrams/cyclic-div12/{t}"
        x = _rand_vec(T, NECKLACE, QQ, rng)
        y = _rand_vec(T, NECKLACE, QQ, rng)
        run.check(
            f"{tag}/theta-intertwines",
            cyc_theta(cyc_nr_mul(x, y)),
            cyc_ap_mul(cyc_theta(x), cyc_theta(y)),
        )
        run.check(f"{tag}/theta-roundtrip", cyc_theta_inv(cyc_theta(x)), x)
        run.check(
            f"{tag}/nr-ghost-roundtrip", cyc_ghost_inv(cyc_ghost(x), NECKLACE), x
        )
        u = _rand_vec(T, APERIODIC, ZZ, rng)
        run.check(
            f"{tag}/ap-ghost-roundtrip", cyc_ghost_inv(cyc_ghost(u), APERIODIC), u
        )


# --- suite: indres -----------------------------------------------------------


def _suite_indres(run):
    run.sanity("indres")
    rng = run.rng("indres")
    for gname in ("C6", "S3", "D4"):
        G = _G(gname)
        for ci in range(1, len(subgroup_classes(G))):
            U = subgroup_group(G, ci)
            for t in range(run.size):
                tag = f"indres/{gname}/class{ci}/{t}"
                au = _rand_vec(U, WITT, QQ, rng)
                run.check(
                    f"{tag}/ind-tau",
                    ind_nr(G, ci, teichmuller(au)),
                    teichmuller(witt_v(G, ci, au)),
                )
                run.check(
                    f"{tag}/ind-gamma",
                    ind_ap(G, ci, gamma(au)),
                    gamma(witt_v(G, ci, au)),
                )
                xu = _rand_vec(U, NECKLACE, QQ, rng)
                run.check(
                    f"{tag}/ind-theta",
                    ind_ap(G, ci, theta(xu)),
                    theta(ind_nr(G, ci, xu)),
                )
                ag = _rand_vec(G, WITT, QQ, rng)
                run.check(
                    f"{tag}/res-tau",
                    res_nr(G, ci, teichmuller(ag)),
                    teichmuller(witt_f(G, ci, ag)),
                )
                xg = _rand_vec(G, NECKLACE, QQ, rng)
                run.check(
                    f"{tag}/res-theta",
                    res_ap(G, ci, theta(xg)),
                    theta(res_nr(G, ci, xg)),
                )
                yu = _rand_vec(U, NECKLACE, QQ, rng)
                run.check(
                    f"{tag}/ind-additive",
                    ind_nr(G, ci, nr_op("sum", xu, yu)),
                    nr_op("sum", ind_nr(G, ci, xu), ind_nr(G, ci, yu)),
                )
                yg = _rand_vec(G, NECKLACE, QQ, rng)
                run.check(
                    f"{tag}/res-multiplicative",
                    res_nr(G, ci, nr_op("prod", xg, yg)),
                    nr_op("prod", res_nr(G, ci, xg), res_nr(G, ci, yg)),
                )
                aw = _rand_vec(G, WITT, ZZ, rng)
                bw = _rand_vec(G, WITT, ZZ, rng)
                run.check(
                    f"{tag}/frobenius-hom",
                    witt_f(G, ci, wg_op("prod", aw, bw)),
                    wg_op("prod", witt_f(G, ci, aw), witt_f(G, ci, bw)),
                )
                cu = _rand_vec(U, WITT, ZZ, rng)
                du = _rand_vec(U, WITT, ZZ, rng)
                run.check(
                    f"{tag}/verschiebung-additive",
                    witt_v(G, ci, wg_op("sum", cu, du)),
                    wg_op("sum", witt_v(G, ci, cu), witt_v(G, ci, du)),
                )
                xn = _rand_vec(U, NECKLACE, ZZ, rng, 0, 9)
                run.check(
                    f"{tag}/ghost-nu",
                    ghost_nu(G, ci, nr_ghost(xn)),
                    nr_ghost(ind_nr(G, ci, xn)),
                )
                yn = _rand_vec(G, NECKLACE, ZZ, rng, 0, 9)
                run.check(
                    f"{tag}/ghost-F",
                    ghost_F(G, ci, nr_ghost(yn)),
                    nr_ghost(res_nr(G, ci, yn)),
                )
                run.check(
                    f"{tag}/ghost-of-v",
                    wg_ghost(witt_v(G, ci, cu)),
                    ghost_nu(G, ci, wg_ghost(cu)),
                )
                run.check(
                    f"{tag}/ghost-of-f",
                    wg_ghost(witt_f(G, ci, aw)),
                    ghost_F(G, ci, wg_ghost(aw)),
                )


# --- suite: qpolys -----------------------------------------------------------


def _suite_qpolys(run):
    run.sanity("qpolys")
    rng = run.rng("qpolys")
    for n in range(1, 13):
        for i in divisors(n):
            for j in divisors(n):
                if n % math.lcm(i, j):
                    continue
                p = p_poly(n, i, j)
                run.check(f"qpolys/P/{n}-{i}-{j}/numerical", p.is_numerical(), True)
                want = Fraction(1 if math.lcm(i, j) == n else 0)
                run.check(f"qpolys/P/{n}-{i}-{j}/at-1", p(1), want)
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
                    q_shift = QPolynomial.monomial(Fraction(d, ell), n // d - 1)
                    acc = acc + q_shift * p_poly(d, i, j)
                want = QPolynomial.monomial(Fraction(1), n // i + n // j - 2)
                run.check(f"qpolys/coeff-identity/{n}-{i}-{j}", acc, want)
    T = TruncationSet.div(12)
    for op in ("sum", "prod", "neg"):
        uni = q_universal(T, op)
        numerical = all(
            poly.is_numerical() for comp in uni.compiled for poly, _ in comp
        )
        run.check(f"qpolys/universal-div12/{op}/numerical", numerical, True)
        if op != "prod":
            integral = all(
                c.denominator == 1
                for comp in uni.compiled
                for poly, _ in comp
                for c in poly.coeffs
            )
            run.check(f"qpolys/universal-div12/{op}/integer-coeffs", integral, True)
    ctx1 = QContext(1)
    for t in range(3 * run.size):
        tag = f"qpolys/q1-matches-classical/{t}"
        a = _rand_vec(T, WITT, ZZ, rng)
        b = _rand_vec(T, WITT, ZZ, rng)
        for op in ("sum", "prod"):
            run.check(
                f"{tag}/{op}",
                q_witt_op(ctx1, op, a, b).payloads(),
                cyc_witt_op(op, a, b).payloads(),
            )
        run.check(
            f"{tag}/neg",
            q_witt_op(ctx1, "neg", a).payloads(),
            cyc_witt_op("neg", a).payloads(),
        )
    # tau collapses the weighted zeta column back to the delta at 1
    for n in range(2, 13):
        run.check(f"qpolys/tau-top/{n}", tau_q(n, n).is_zero(), True)
        run.check(
            f"qpolys/tau-bottom/{n}",
            tau_q(1, n),
            QPolynomial.monomial(Fraction(1, n), n - 1),
        )


# --- suite: qrings -----------------------------------------------------------


def _suite_qrings(run):
    run.sanity("qrings")
    rng = run.rng("qrings")
    T6, T12 = TruncationSet.div(6), TruncationSet.div(12)
    for q0 in (-2, -1, 0, 1, 2, 3):
        ctx = QContext(q0)
        for R, lo, hi in ((ZZ, -6, 6), (Z8, 0, 7)):
            for t in range(run.size):
                tag = f"qrings/ghost-hom/q{q0}/{R.name}/{t}"
                a = _rand_vec(T6, WITT, R, rng, lo, hi)
                b = _rand_vec(T6, WITT, R, rng, lo, hi)
                ga = q_witt_ghost(ctx, a)
                gb = q_witt_ghost(ctx, b)
                run.check(
                    f"{tag}/sum",
                    q_witt_ghost(ctx, q_witt_op(ctx, "sum", a, b)).payloads(),
                    _componentwise(ga, gb, lambda u, v: u + v),
                )
                run.check(
                    f"{tag}/prod",
                    q_witt_ghost(ctx, q_witt_op(ctx, "prod", a, b)).payloads(),
                    _componentwise(ga, gb, lambda u, v: u * v),
                )
    for q0 in (-1, 2, 3):
        ctx = QContext(q0)
        for t in range(run.size):
            tag = f"qrings/transport/q{q0}/{t}"
            a = _rand_vec(T12, WITT, QQ, rng)
            tau = q_teichmuller(ctx, a)
            run.check(
                f"{tag}/ghost-through-tau",
                q_ghost(ctx, tau).payloads(),
                q_witt_ghost(ctx, a).payloads(),
            )
            run.check(f"{tag}/tau-roundtrip", q_teichmuller_inv(ctx, tau), a)
            ap = theta_q(tau)
            run.check(
                f"{tag}/theta-preserves-ghost",
                q_ghost(ctx, ap).payloads(),
                q_ghost(ctx, tau).payloads(),
            )
            run.check(f"{tag}/theta-roundtrip", theta_q_inv(ap), tau)
            x = _rand_vec(T12, NECKLACE, ZZ, rng, -6, 6)
            for r in (2, 3):
                run.check(
                    f"{tag}/theta-transports-V{r}",
                    theta_q(q_verschiebung(r, x)),
                    q_verschiebung(r, theta_q(x)),
                )
                run.check(
                    f"{tag}/theta-transports-f{r}",
                    theta_q(q_frobenius(ctx, r, x)),
                    q_frobenius(ctx, r, theta_q(x)),
                )
            aw = _rand_vec(T12, WITT, ZZ, rng, -6, 6)
            bw = _rand_vec(T12, WITT, ZZ, rng, -6, 6)
            for r in (2, 3):
                run.check(
                    f"{tag}/frobenius{r}-hom",
                    q_frobenius(ctx, r, q_witt_op(ctx, "prod", aw, bw)),
                    q_witt_op(
                        ctx, "prod", q_frobenius(ctx, r, aw), q_frobenius(ctx, r, bw)
                    ),
                )
                gf = q_witt_ghost(ctx, q_frobenius(ctx, r, aw)).payloads()
                ga = q_witt_ghost(ctx, aw).payloads()
                shifted = tuple(
                    ga[T12.position(r * n)] for n in T12 if r * n in T12.members
                )
                run.check(f"{tag}/frobenius{r}-ghost-shift", gf, shifted)
                gv = q_witt_ghost(ctx, q_verschiebung(r, aw)).payloads()
                want = tuple(
                    r * ga[T12.position(n // r)] if n % r == 0 else 0 for n in T12
                )
                run.check(f"{tag}/verschiebung{r}-ghost", gv, want)
    # the necklace-count map is not multiplicative into the q-deformed ring,
    # while its q-scaled corrected form is; frozen witness at q = 2
    ctx2 = QContext(2)
    T2 = TruncationSet.div(2)

    def mq(val):
        return IndexedVector(
            T2,
            NECKLACE,
            QQ,
            [q_necklace_poly(ctx2, RingValue(QQ, Fraction(val)), n) for n in T2],
        )

    m6, m2, m3, m12 = mq(6), mq(2), mq(3), mq(12)
    prod23 = q_nr_mul(ctx2, m2, m3)
    run.check("qrings/witness/M6-vs-M2M3", (m6.payloads()[1], prod23.payloads()[1]), (30, 66))
    doubled = prod23.map_ring(QQ, lambda p: 2 * p)
    run.check("qrings/witness/corrected-identity", m12, doubled)
    for t in range(run.size):
        x0 = Fraction(rng.randint(-5, 5))
        y0 = Fraction(rng.randint(-5, 5))
        got = q_nr_mul(ctx2, mq(x0), mq(y0))
        scaled = got.map_ring(QQ, lambda p: 2 * p)
        run.check(f"qrings/corrected-identity/{t}", mq(2 * x0 * y0), scaled)
    # the q-deformed unit exists over Z exactly when solvable: q odd on div(2)
    run.check("qrings/try-one/q2-over-Z", try_one(ctx2, T2, ZZ), None)
    one3 = try_one(QContext(3), T2, ZZ)
    run.check(
        "qrings/try-one/q3-over-Z",
        None if one3 is None else one3.payloads(),
        (1, -1),
    )
    oneq = try_one(ctx2, T6, QQ)
    x = _rand_vec(T6, WITT, QQ, rng)
    run.check(
        "qrings/try-one/identity-law",
        None if oneq is None else q_witt_op(ctx2, "prod", oneq, x).payloads(),
        x.payloads(),
    )


# --- suite: artinhasse -------------------------------------------------------


def _suite_artinhasse(run):
    run.sanity("artinhasse")
    rng = run.rng("artinhasse")
    T8 = TruncationSet(range(1, 9))
    for q0 in (-1, 0, 1, 2):
        ctx = QContext(q0)
        for R, lo, hi in ((ZZ, -6, 6), (QQ, -9, 9)):
            for t in range(run.size):
                tag = f"artinhasse/q{q0}/{R.name}/{t}"
                a = _rand_vec(T8, WITT, R, rng, lo, hi)
                c = artin_hasse(ctx, a)
                run.check(f"{tag}/roundtrip", artin_hasse_inv(ctx, c, T8), a)
                x1, x2, x3, x4 = a.payloads()[:4]
                run.check(f"{tag}/t1", c.coefficient(1).payload, x1)
                run.check(f"{tag}/t3", c.coefficient(3).payload, x3 - q0 * x1 * x2)
                run.check(f"{tag}/t4", c.coefficient(4).payload, x4 - q0 * x1 * x3)
                b = _rand_vec(T8, WITT, R, rng, lo, hi)
                run.check(
                    f"{tag}/additivity",
                    artin_hasse(ctx, q_witt_op(ctx, "sum", a, b)),
                    curve_add(ctx, artin_hasse(ctx, a), artin_hasse(ctx, b)),
                )
                c2 = artin_hasse(ctx, b)
                run.check(f"{tag}/add-comm", curve_add(ctx, c, c2), curve_add(ctx, c2, c))
                run.check(
                    f"{tag}/neg",
                    curve_add(ctx, c, curve_neg(ctx, c)).payloads(),
                    (0,) * 8,
                )
                run.check(
                    f"{tag}/mul-matches-witt-prod",
                    curve_mul(ctx, c, c2),
                    artin_hasse(ctx, q_witt_op(ctx, "prod", a, b)),
                )
    # divisor-stable truncation: membership detection through padding
    ctx = QContext(2)
    T4 = TruncationSet.div(4)
    for t in range(run.size):
        a = _rand_vec(T4, WITT, ZZ, rng, -5, 5)
        c = artin_hasse(ctx, a)
        run.check(
            f"artinhasse/div4-roundtrip/{t}", artin_hasse_inv(ctx, c, T4), a
        )


# --- suite: cyclic-identities -------------------------------------------------


def _suite_cyclic_identities(run):
    run.sanity("cyclic-identities")
    rng = run.rng("cyclic-identities")
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
                run.check(f"cyclic-identities/necklace-product/{r},{s},{n}", lhs, rhs)
                lhs_s = aperiodic_poly(RingValue.from_int(ZZ, r * s), n).payload
                rhs_s = sum(
                    aperiodic_poly(RingValue.from_int(ZZ, r), i).payload
                    * aperiodic_poly(RingValue.from_int(ZZ, s), j).payload
                    for i in divisors(n)
                    for j in divisors(n)
                    if math.lcm(i, j) == n
                )
                run.check(
                    f"cyclic-identities/aperiodic-product/{r},{s},{n}", lhs_s, rhs_s
                )
    T = TruncationSet.div(12)
    for t in range(2 * run.size):
        tag = f"cyclic-identities/ghost-inverse-products/{t}"
        a = _rand_vec(T, GHOST, QQ, rng)
        b = _rand_vec(T, GHOST, QQ, rng)
        prod = a.with_components([u * v for u, v in zip(a.components, b.components)])
        run.check(
            f"{tag}/necklace",
            cyc_ghost_inv(prod, NECKLACE),
            _lcm_product(cyc_ghost_inv(a, NECKLACE), cyc_ghost_inv(b, NECKLACE)),
        )
        ai = _rand_vec(T, GHOST, ZZ, rng)
        bi = _rand_vec(T, GHOST, ZZ, rng)
        prod_i = ai.with_components(
            [u * v for u, v in zip(ai.components, bi.components)]
        )
        run.check(
            f"{tag}/aperiodic",
            cyc_ghost_inv(prod_i, APERIODIC),
            _lcm_product(cyc_ghost_inv(ai, APERIODIC), cyc_ghost_inv(bi, APERIODIC)),
        )
    # cross-model agreement with the group functors on cyclic groups
    for N in (2, 6, 12):
        G = _G(f"C{N}")
        T = TruncationSet.div(N)
        for t in range(run.size):
            tag = f"cyclic-identities/cross-model/C{N}/{t}"
            xs = [rng.randint(-9, 9) for _ in T]
            ys = [rng.randint(-9, 9) for _ in T]
            gw = IndexedVector.from_ints(G, WITT, ZZ, xs)
            hw = IndexedVector.from_ints(G, WITT, ZZ, ys)
            cw = IndexedVector.from_ints(T, WITT, ZZ, xs)
            dw = IndexedVector.from_ints(T, WITT, ZZ, ys)
            run.check(
                f"{tag}/ghost",
                wg_ghost(gw).payloads(),
                cyc_witt_ghost(cw).payloads(),
            )
            for op in ("sum", "prod"):
                run.check(
                    f"{tag}/witt-{op}",
                    wg_op(op, gw, hw).payloads(),
                    cyc_witt_op(op, cw, dw).payloads(),
                )
            run.check(
                f"{tag}/nr-mul",
                nr_op(
                    "prod", gw.retag(NECKLACE), hw.retag(NECKLACE)
                ).payloads(),
                cyc_nr_mul(cw.retag(NECKLACE), dw.retag(NECKLACE)).payloads(),
            )
            run.check(
                f"{tag}/ap-mul",
                ap_op(
                    "prod", gw.retag(APERIODIC), hw.retag(APERIODIC)
                ).payloads(),
                cyc_ap_mul(cw.retag(APERIODIC), dw.retag(APERIODIC)).payloads(),
            )
        for r in (-3, 0, 2, 5):
            run.check(
                f"cyclic-identities/exp-M/C{N}/r{r}",
                exp_M(G, RingValue.from_int(ZZ, r)).payloads(),
                tuple(necklace_poly(RingValue.from_int(ZZ, r), n).payload for n in T),
            )
    # operator dictionary: induction is dilation, restriction is frobenius
    G, T = _G("C6"), TruncationSet.div(6)
    ct = subgroup_classes(G)
    for ci in range(1, len(ct)):
        r = ct.classes[ci].index
        U = subgroup_group(G, ci)
        Tu = TruncationSet([n for n in T if r * n in T.members])
        for t in range(run.size):
            tag = f"cyclic-identities/operators/C6-class{ci}/{t}"
            alphas = [rng.randint(-9, 9) for _ in Tu]
            au = IndexedVector.from_ints(U, WITT, ZZ, alphas)
            xs = [0] * len(T)
            for pos, n in enumerate(Tu):
                xs[T.position(n)] = alphas[pos]
            cx = IndexedVector.from_ints(T, WITT, ZZ, xs)
            run.check(
                f"{tag}/verschiebung",
                witt_v(G, ci, au).payloads(),
                cyc_verschiebung(r, cx).payloads(),
            )
            ys = [rng.randint(-9, 9) for _ in T]
            ag = IndexedVector.from_ints(G, WITT, ZZ, ys)
            cg = IndexedVector.from_ints(T, WITT, ZZ, ys)
            run.check(
                f"{tag}/frobenius",
                witt_f(G, ci, ag).payloads(),
                cyc_frobenius(r, cg).payloads(),
            )


_SUITE_FNS = {
    "rings": _suite_rings,
    "ghosts": _suite_ghosts,
    "diagrams": _suite_diagrams,
    "indres": _suite_indres,
    "qpolys": _suite_qpolys,
    "qrings": _suite_qrings,
    "artinhasse": _suite_artinhasse,
    "cyclic-identities": _suite_cyclic_identities,
}


# The cases grow linearly with --size: "all" takes 1.2 s at size 1, 12 s at 32
# and 21 s at 64 through the CLI, on one Intel Xeon vCPU.
SIZE_BOUND = 64


def run_suite(suite, seed=0, size=1, inject_fault=False):
    """Run one suite (or "all") and return the JSON-ready report dict."""
    if size < 1:
        raise SchemaError("--size must be a positive integer")
    if size > SIZE_BOUND:
        raise DomainError(f"--size {size} exceeds supported bound {SIZE_BOUND}")
    if suite != "all" and suite not in _SUITE_FNS:
        raise SchemaError(f"unknown suite {suite!r}; choose from {SUITES + ('all',)}")
    t0 = time.perf_counter()
    run = _Run(seed, size, inject_fault)
    names = SUITES if suite == "all" else (suite,)
    for name in names:
        _SUITE_FNS[name](run)
    return {
        "suite": suite,
        "cases_run": run.cases,
        "failures": sorted(run.failures, key=lambda f: f["case"]),
        "seed": seed,
        "runtime_ms": int((time.perf_counter() - t0) * 1000),
    }
