"""Seeded verification suites behind the command-line `verify` verb.

Each suite replays a family of algebraic identities on reproducible
pseudo-random inputs and collects mismatches as structured records.
The report dictionary is JSON-ready; an empty failure list is the
machine-readable "all invariants held" signal (exit status 0).

Every suite opens with a fixed sanity check whose expected constant is
negated when `inject_fault` is set, so the reporting path itself can be
exercised end to end: a faulted run must produce a named failing case
and a nonzero exit, proving failures are not silently swallowed.

A case passes its two sides as thunks (`_Run.check`), and a value that
several cases share is computed once, inside the first case that reads it
(`_later`), so an Exception the engine raises while computing a case
becomes that case's failure, with its class and message, and the run goes
on to the next case.  Only the drawing of inputs runs outside the cases.
"""
import math
import random
import time
from fractions import Fraction
from functools import cache

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
from .errors import DomainError, SchemaError, excerpt
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
        """The case holds when lhs() equals rhs().  An Exception raised while
        computing or showing them is the case's failure instead, naming its
        class and its message (through `excerpt`)."""
        self.cases += 1
        try:
            left, right = lhs(), rhs()
            if left != right:
                self.failures.append({"case": case, "lhs": _show(left), "rhs": _show(right)})
        except Exception as e:
            self.failures.append(
                {"case": case, "error": type(e).__name__, "message": excerpt(str(e))})

    def sanity(self, suite):
        # the one-point class has the all-ones ghost vector; a faulted
        # build expects the negated constant and must therefore fail here
        expect = -1 if self.inject_fault else 1
        self.check(f"{suite}/sanity/identity-ghost",
                   lambda: wg_ghost(IndexedVector.one(_G("C4"), WITT, ZZ)).payloads(),
                   lambda: (expect,) * 3)


def _later(f, *args):
    """f(*args), computed on the first call and kept: a value that several
    cases share, computed inside the first case that reads it.  A call that
    raises raises again on the next."""
    return cache(lambda: f(*args))


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
                    run.check(f"{tag}/sum-comm", lambda: op("sum", x, y), lambda: op("sum", y, x))
                    run.check(
                        f"{tag}/sum-assoc",
                        lambda: op("sum", op("sum", x, y), z),
                        lambda: op("sum", x, op("sum", y, z)),
                    )
                    run.check(f"{tag}/prod-comm", lambda: op("prod", x, y),
                              lambda: op("prod", y, x))
                    run.check(
                        f"{tag}/prod-assoc",
                        lambda: op("prod", op("prod", x, y), z),
                        lambda: op("prod", x, op("prod", y, z)),
                    )
                    run.check(
                        f"{tag}/distrib",
                        lambda: op("prod", x, op("sum", y, z)),
                        lambda: op("sum", op("prod", x, y), op("prod", x, z)),
                    )
                    run.check(
                        f"{tag}/neg",
                        lambda: op("sum", x, op("neg", x)),
                        lambda: IndexedVector.zero(G, flavor, R_use),
                    )
                    run.check(
                        f"{tag}/one",
                        lambda: op("prod", IndexedVector.one(G, flavor, R_use), x),
                        lambda: x,
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
            ga, gb = _later(wg_ghost, a), _later(wg_ghost, b)
            run.check(
                f"{tag}/witt-sum",
                lambda: wg_ghost(wg_op("sum", a, b)).payloads(),
                lambda: _componentwise(ga(), gb(), lambda u, v: u + v),
            )
            run.check(
                f"{tag}/witt-prod",
                lambda: wg_ghost(wg_op("prod", a, b)).payloads(),
                lambda: _componentwise(ga(), gb(), lambda u, v: u * v),
            )
            x = _rand_vec(G, NECKLACE, R, rng)
            y = _rand_vec(G, NECKLACE, R, rng)
            run.check(
                f"{tag}/nr-prod",
                lambda: nr_ghost(nr_op("prod", x, y)).payloads(),
                lambda: _componentwise(nr_ghost(x), nr_ghost(y), lambda u, v: u * v),
            )
            Ra = R if (G.is_abelian() or R.is_qalgebra) else QQ
            u = _rand_vec(G, APERIODIC, Ra, rng)
            v = _rand_vec(G, APERIODIC, Ra, rng)
            run.check(
                f"{tag}/ap-prod",
                lambda: ap_ghost(ap_op("prod", u, v)).payloads(),
                lambda: _componentwise(ap_ghost(u), ap_ghost(v), lambda s, w: s * w),
            )
    T = TruncationSet.div(12)
    for t in range(3 * run.size):
        tag = f"ghosts/cyclic-div12/{t}"
        a = _rand_vec(T, WITT, ZZ, rng)
        b = _rand_vec(T, WITT, ZZ, rng)
        run.check(
            f"{tag}/witt-prod",
            lambda: cyc_witt_ghost(cyc_witt_op("prod", a, b)).payloads(),
            lambda: _componentwise(cyc_witt_ghost(a), cyc_witt_ghost(b), lambda u, v: u * v),
        )
        x = _rand_vec(T, NECKLACE, ZZ, rng)
        y = _rand_vec(T, NECKLACE, ZZ, rng)
        run.check(f"{tag}/nr-mul", lambda: cyc_nr_mul(x, y), lambda: _lcm_product(x, y))
        u = _rand_vec(T, APERIODIC, ZZ, rng)
        v = _rand_vec(T, APERIODIC, ZZ, rng)
        run.check(f"{tag}/ap-mul", lambda: cyc_ap_mul(u, v), lambda: _lcm_product(u, v))


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
                tau = _later(teichmuller, a)
                run.check(f"{tag}/tau-roundtrip", lambda: teichmuller_inv(tau()), lambda: a)
                run.check(f"{tag}/gamma-roundtrip", lambda: gamma_inv(gamma(a)), lambda: a)
                run.check(f"{tag}/theta-roundtrip", lambda: theta_inv(theta(tau())), tau)
                run.check(
                    f"{tag}/ghost-through-tau",
                    lambda: nr_ghost(tau()).payloads(),
                    lambda: wg_ghost(a).payloads(),
                )
                if R.is_qalgebra or G.is_abelian():
                    run.check(
                        f"{tag}/ghost-through-gamma",
                        lambda: ap_ghost(gamma(a)).payloads(),
                        lambda: wg_ghost(a).payloads(),
                    )
                    run.check(
                        f"{tag}/theta-completes-triangle",
                        lambda: ap_ghost(theta(tau())).payloads(),
                        lambda: nr_ghost(tau()).payloads(),
                    )
    # coordinate-backed transports over a residue ring
    for t in range(2 * run.size):
        tag = f"diagrams/coord-Z8/{t}"
        a = _rand_vec(_G("C4"), WITT, Z8, rng, 0, 7)
        b = _rand_vec(_G("C4"), WITT, Z8, rng, 0, 7)
        ta = _later(teichmuller, a)
        run.check(f"{tag}/tau-roundtrip", lambda: teichmuller_inv(ta()), lambda: a)
        run.check(
            f"{tag}/coord-product",
            lambda: nr_op("prod", ta(), teichmuller(b)).payloads(),
            lambda: wg_op("prod", a, b).payloads(),
        )
    T = TruncationSet.div(12)
    for t in range(2 * run.size):
        tag = f"diagrams/cyclic-div12/{t}"
        x = _rand_vec(T, NECKLACE, QQ, rng)
        y = _rand_vec(T, NECKLACE, QQ, rng)
        run.check(
            f"{tag}/theta-intertwines",
            lambda: cyc_theta(cyc_nr_mul(x, y)),
            lambda: cyc_ap_mul(cyc_theta(x), cyc_theta(y)),
        )
        run.check(f"{tag}/theta-roundtrip", lambda: cyc_theta_inv(cyc_theta(x)), lambda: x)
        run.check(
            f"{tag}/nr-ghost-roundtrip", lambda: cyc_ghost_inv(cyc_ghost(x), NECKLACE), lambda: x
        )
        u = _rand_vec(T, APERIODIC, ZZ, rng)
        run.check(
            f"{tag}/ap-ghost-roundtrip", lambda: cyc_ghost_inv(cyc_ghost(u), APERIODIC), lambda: u
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
                    lambda: ind_nr(G, ci, teichmuller(au)),
                    lambda: teichmuller(witt_v(G, ci, au)),
                )
                run.check(
                    f"{tag}/ind-gamma",
                    lambda: ind_ap(G, ci, gamma(au)),
                    lambda: gamma(witt_v(G, ci, au)),
                )
                xu = _rand_vec(U, NECKLACE, QQ, rng)
                run.check(
                    f"{tag}/ind-theta",
                    lambda: ind_ap(G, ci, theta(xu)),
                    lambda: theta(ind_nr(G, ci, xu)),
                )
                ag = _rand_vec(G, WITT, QQ, rng)
                run.check(
                    f"{tag}/res-tau",
                    lambda: res_nr(G, ci, teichmuller(ag)),
                    lambda: teichmuller(witt_f(G, ci, ag)),
                )
                xg = _rand_vec(G, NECKLACE, QQ, rng)
                run.check(
                    f"{tag}/res-theta",
                    lambda: res_ap(G, ci, theta(xg)),
                    lambda: theta(res_nr(G, ci, xg)),
                )
                yu = _rand_vec(U, NECKLACE, QQ, rng)
                run.check(
                    f"{tag}/ind-additive",
                    lambda: ind_nr(G, ci, nr_op("sum", xu, yu)),
                    lambda: nr_op("sum", ind_nr(G, ci, xu), ind_nr(G, ci, yu)),
                )
                yg = _rand_vec(G, NECKLACE, QQ, rng)
                run.check(
                    f"{tag}/res-multiplicative",
                    lambda: res_nr(G, ci, nr_op("prod", xg, yg)),
                    lambda: nr_op("prod", res_nr(G, ci, xg), res_nr(G, ci, yg)),
                )
                aw = _rand_vec(G, WITT, ZZ, rng)
                bw = _rand_vec(G, WITT, ZZ, rng)
                run.check(
                    f"{tag}/frobenius-hom",
                    lambda: witt_f(G, ci, wg_op("prod", aw, bw)),
                    lambda: wg_op("prod", witt_f(G, ci, aw), witt_f(G, ci, bw)),
                )
                cu = _rand_vec(U, WITT, ZZ, rng)
                du = _rand_vec(U, WITT, ZZ, rng)
                run.check(
                    f"{tag}/verschiebung-additive",
                    lambda: witt_v(G, ci, wg_op("sum", cu, du)),
                    lambda: wg_op("sum", witt_v(G, ci, cu), witt_v(G, ci, du)),
                )
                xn = _rand_vec(U, NECKLACE, ZZ, rng, 0, 9)
                run.check(
                    f"{tag}/ghost-nu",
                    lambda: ghost_nu(G, ci, nr_ghost(xn)),
                    lambda: nr_ghost(ind_nr(G, ci, xn)),
                )
                yn = _rand_vec(G, NECKLACE, ZZ, rng, 0, 9)
                run.check(
                    f"{tag}/ghost-F",
                    lambda: ghost_F(G, ci, nr_ghost(yn)),
                    lambda: nr_ghost(res_nr(G, ci, yn)),
                )
                run.check(
                    f"{tag}/ghost-of-v",
                    lambda: wg_ghost(witt_v(G, ci, cu)),
                    lambda: ghost_nu(G, ci, wg_ghost(cu)),
                )
                run.check(
                    f"{tag}/ghost-of-f",
                    lambda: wg_ghost(witt_f(G, ci, aw)),
                    lambda: ghost_F(G, ci, wg_ghost(aw)),
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
                p = _later(p_poly, n, i, j)
                run.check(f"qpolys/P/{n}-{i}-{j}/numerical", lambda: p().is_numerical(),
                          lambda: True)
                want = Fraction(1 if math.lcm(i, j) == n else 0)
                run.check(f"qpolys/P/{n}-{i}-{j}/at-1", lambda: p()(1), lambda: want)
    for n in range(1, 13):
        for i in divisors(n):
            for j in divisors(n):
                if n % math.lcm(i, j):
                    continue
                want = QPolynomial.monomial(Fraction(1), n // i + n // j - 2)
                run.check(f"qpolys/coeff-identity/{n}-{i}-{j}", lambda: _shifted_p_sum(n, i, j),
                          lambda: want)
    T = TruncationSet.div(12)
    for op in ("sum", "prod", "neg"):
        compiled = _later(lambda op: q_universal(T, op).compiled, op)
        run.check(
            f"qpolys/universal-div12/{op}/numerical",
            lambda: all(poly.is_numerical() for comp in compiled() for poly, _ in comp),
            lambda: True,
        )
        if op != "prod":
            run.check(
                f"qpolys/universal-div12/{op}/integer-coeffs",
                lambda: all(c.denominator == 1 for comp in compiled() for poly, _ in comp
                            for c in poly.coeffs),
                lambda: True,
            )
    ctx1 = QContext(1)
    for t in range(3 * run.size):
        tag = f"qpolys/q1-matches-classical/{t}"
        a = _rand_vec(T, WITT, ZZ, rng)
        b = _rand_vec(T, WITT, ZZ, rng)
        for op in ("sum", "prod"):
            run.check(
                f"{tag}/{op}",
                lambda: q_witt_op(ctx1, op, a, b).payloads(),
                lambda: cyc_witt_op(op, a, b).payloads(),
            )
        run.check(
            f"{tag}/neg",
            lambda: q_witt_op(ctx1, "neg", a).payloads(),
            lambda: cyc_witt_op("neg", a).payloads(),
        )
    # tau collapses the weighted zeta column back to the delta at 1
    for n in range(2, 13):
        run.check(f"qpolys/tau-top/{n}", lambda: tau_q(n, n).is_zero(), lambda: True)
        run.check(
            f"qpolys/tau-bottom/{n}",
            lambda: tau_q(1, n),
            lambda: QPolynomial.monomial(Fraction(1, n), n - 1),
        )


def _shifted_p_sum(n, i, j):
    """The sum of (d / lcm(i, j)) q^(n/d - 1) P_{d,i,j} over the divisors d of
    n that lcm(i, j) divides."""
    ell = math.lcm(i, j)
    acc = QPolynomial()
    for d in divisors(n):
        if d % ell == 0:
            acc = acc + QPolynomial.monomial(Fraction(d, ell), n // d - 1) * p_poly(d, i, j)
    return acc


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
                ga, gb = _later(q_witt_ghost, ctx, a), _later(q_witt_ghost, ctx, b)
                run.check(
                    f"{tag}/sum",
                    lambda: q_witt_ghost(ctx, q_witt_op(ctx, "sum", a, b)).payloads(),
                    lambda: _componentwise(ga(), gb(), lambda u, v: u + v),
                )
                run.check(
                    f"{tag}/prod",
                    lambda: q_witt_ghost(ctx, q_witt_op(ctx, "prod", a, b)).payloads(),
                    lambda: _componentwise(ga(), gb(), lambda u, v: u * v),
                )
    for q0 in (-1, 2, 3):
        ctx = QContext(q0)
        for t in range(run.size):
            tag = f"qrings/transport/q{q0}/{t}"
            a = _rand_vec(T12, WITT, QQ, rng)
            tau = _later(q_teichmuller, ctx, a)
            run.check(
                f"{tag}/ghost-through-tau",
                lambda: q_ghost(ctx, tau()).payloads(),
                lambda: q_witt_ghost(ctx, a).payloads(),
            )
            run.check(f"{tag}/tau-roundtrip", lambda: q_teichmuller_inv(ctx, tau()), lambda: a)
            ap = _later(lambda tau: theta_q(tau()), tau)
            run.check(
                f"{tag}/theta-preserves-ghost",
                lambda: q_ghost(ctx, ap()).payloads(),
                lambda: q_ghost(ctx, tau()).payloads(),
            )
            run.check(f"{tag}/theta-roundtrip", lambda: theta_q_inv(ap()), tau)
            x = _rand_vec(T12, NECKLACE, ZZ, rng, -6, 6)
            for r in (2, 3):
                run.check(
                    f"{tag}/theta-transports-V{r}",
                    lambda: theta_q(q_verschiebung(r, x)),
                    lambda: q_verschiebung(r, theta_q(x)),
                )
                run.check(
                    f"{tag}/theta-transports-f{r}",
                    lambda: theta_q(q_frobenius(ctx, r, x)),
                    lambda: q_frobenius(ctx, r, theta_q(x)),
                )
            aw = _rand_vec(T12, WITT, ZZ, rng, -6, 6)
            bw = _rand_vec(T12, WITT, ZZ, rng, -6, 6)
            for r in (2, 3):
                run.check(
                    f"{tag}/frobenius{r}-hom",
                    lambda: q_frobenius(ctx, r, q_witt_op(ctx, "prod", aw, bw)),
                    lambda: q_witt_op(
                        ctx, "prod", q_frobenius(ctx, r, aw), q_frobenius(ctx, r, bw)
                    ),
                )
                ga = _later(lambda aw: q_witt_ghost(ctx, aw).payloads(), aw)
                run.check(
                    f"{tag}/frobenius{r}-ghost-shift",
                    lambda: q_witt_ghost(ctx, q_frobenius(ctx, r, aw)).payloads(),
                    lambda: tuple(ga()[T12.position(r * n)] for n in T12 if r * n in T12.members),
                )
                run.check(
                    f"{tag}/verschiebung{r}-ghost",
                    lambda: q_witt_ghost(ctx, q_verschiebung(r, aw)).payloads(),
                    lambda: tuple(r * ga()[T12.position(n // r)] if n % r == 0 else 0
                                  for n in T12),
                )
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

    def doubled_product(x0, y0):
        return q_nr_mul(ctx2, mq(x0), mq(y0)).map_ring(QQ, lambda p: 2 * p)

    run.check("qrings/witness/M6-vs-M2M3",
              lambda: (mq(6).payloads()[1], q_nr_mul(ctx2, mq(2), mq(3)).payloads()[1]),
              lambda: (30, 66))
    run.check("qrings/witness/corrected-identity", lambda: mq(12), lambda: doubled_product(2, 3))
    for t in range(run.size):
        x0 = Fraction(rng.randint(-5, 5))
        y0 = Fraction(rng.randint(-5, 5))
        run.check(f"qrings/corrected-identity/{t}", lambda: mq(2 * x0 * y0),
                  lambda: doubled_product(x0, y0))
    # the q-deformed unit exists over Z exactly when solvable: q odd on div(2)
    run.check("qrings/try-one/q2-over-Z", lambda: try_one(ctx2, T2, ZZ), lambda: None)

    def payloads_or_none(v):
        return None if v is None else v.payloads()

    run.check("qrings/try-one/q3-over-Z",
              lambda: payloads_or_none(try_one(QContext(3), T2, ZZ)), lambda: (1, -1))
    x = _rand_vec(T6, WITT, QQ, rng)

    def identity_law():
        one = try_one(ctx2, T6, QQ)
        return None if one is None else q_witt_op(ctx2, "prod", one, x).payloads()

    run.check("qrings/try-one/identity-law", identity_law, lambda: x.payloads())


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
                c = _later(artin_hasse, ctx, a)
                run.check(f"{tag}/roundtrip", lambda: artin_hasse_inv(ctx, c(), T8), lambda: a)
                x1, x2, x3, x4 = a.payloads()[:4]
                run.check(f"{tag}/t1", lambda: c().coefficient(1).payload, lambda: x1)
                run.check(f"{tag}/t3", lambda: c().coefficient(3).payload,
                          lambda: x3 - q0 * x1 * x2)
                run.check(f"{tag}/t4", lambda: c().coefficient(4).payload,
                          lambda: x4 - q0 * x1 * x3)
                b = _rand_vec(T8, WITT, R, rng, lo, hi)
                run.check(
                    f"{tag}/additivity",
                    lambda: artin_hasse(ctx, q_witt_op(ctx, "sum", a, b)),
                    lambda: curve_add(ctx, artin_hasse(ctx, a), artin_hasse(ctx, b)),
                )
                c2 = _later(artin_hasse, ctx, b)
                run.check(f"{tag}/add-comm", lambda: curve_add(ctx, c(), c2()),
                          lambda: curve_add(ctx, c2(), c()))
                run.check(
                    f"{tag}/neg",
                    lambda: curve_add(ctx, c(), curve_neg(ctx, c())).payloads(),
                    lambda: (0,) * 8,
                )
                run.check(
                    f"{tag}/mul-matches-witt-prod",
                    lambda: curve_mul(ctx, c(), c2()),
                    lambda: artin_hasse(ctx, q_witt_op(ctx, "prod", a, b)),
                )
    # divisor-stable truncation: membership detection through padding
    ctx = QContext(2)
    T4 = TruncationSet.div(4)
    for t in range(run.size):
        a = _rand_vec(T4, WITT, ZZ, rng, -5, 5)
        run.check(
            f"artinhasse/div4-roundtrip/{t}",
            lambda: artin_hasse_inv(ctx, artin_hasse(ctx, a), T4),
            lambda: a,
        )


# --- suite: cyclic-identities -------------------------------------------------


def _lcm_sum(poly, r, s, n, weight):
    """The sum of weight(i, j) poly(r, i) poly(s, j) over the divisors i, j of
    n with lcm(i, j) = n, at the integers r and s."""
    return sum(
        weight(i, j)
        * poly(RingValue.from_int(ZZ, r), i).payload
        * poly(RingValue.from_int(ZZ, s), j).payload
        for i in divisors(n)
        for j in divisors(n)
        if math.lcm(i, j) == n
    )


def _ghost_product(a, b):
    return a.with_components([u * v for u, v in zip(a.components, b.components)])


def _suite_cyclic_identities(run):
    run.sanity("cyclic-identities")
    rng = run.rng("cyclic-identities")
    for r in range(-3, 4):
        for s in range(-3, 4):
            for n in range(1, 13):
                run.check(
                    f"cyclic-identities/necklace-product/{r},{s},{n}",
                    lambda: necklace_poly(RingValue.from_int(ZZ, r * s), n).payload,
                    lambda: _lcm_sum(necklace_poly, r, s, n, math.gcd),
                )
                run.check(
                    f"cyclic-identities/aperiodic-product/{r},{s},{n}",
                    lambda: aperiodic_poly(RingValue.from_int(ZZ, r * s), n).payload,
                    lambda: _lcm_sum(aperiodic_poly, r, s, n, lambda i, j: 1),
                )
    T = TruncationSet.div(12)
    for t in range(2 * run.size):
        tag = f"cyclic-identities/ghost-inverse-products/{t}"
        a = _rand_vec(T, GHOST, QQ, rng)
        b = _rand_vec(T, GHOST, QQ, rng)
        run.check(
            f"{tag}/necklace",
            lambda: cyc_ghost_inv(_ghost_product(a, b), NECKLACE),
            lambda: _lcm_product(cyc_ghost_inv(a, NECKLACE), cyc_ghost_inv(b, NECKLACE)),
        )
        ai = _rand_vec(T, GHOST, ZZ, rng)
        bi = _rand_vec(T, GHOST, ZZ, rng)
        run.check(
            f"{tag}/aperiodic",
            lambda: cyc_ghost_inv(_ghost_product(ai, bi), APERIODIC),
            lambda: _lcm_product(cyc_ghost_inv(ai, APERIODIC), cyc_ghost_inv(bi, APERIODIC)),
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
                lambda: wg_ghost(gw).payloads(),
                lambda: cyc_witt_ghost(cw).payloads(),
            )
            for op in ("sum", "prod"):
                run.check(
                    f"{tag}/witt-{op}",
                    lambda: wg_op(op, gw, hw).payloads(),
                    lambda: cyc_witt_op(op, cw, dw).payloads(),
                )
            run.check(
                f"{tag}/nr-mul",
                lambda: nr_op(
                    "prod", gw.retag(NECKLACE), hw.retag(NECKLACE)
                ).payloads(),
                lambda: cyc_nr_mul(cw.retag(NECKLACE), dw.retag(NECKLACE)).payloads(),
            )
            run.check(
                f"{tag}/ap-mul",
                lambda: ap_op(
                    "prod", gw.retag(APERIODIC), hw.retag(APERIODIC)
                ).payloads(),
                lambda: cyc_ap_mul(cw.retag(APERIODIC), dw.retag(APERIODIC)).payloads(),
            )
        for r in (-3, 0, 2, 5):
            run.check(
                f"cyclic-identities/exp-M/C{N}/r{r}",
                lambda: exp_M(G, RingValue.from_int(ZZ, r)).payloads(),
                lambda: tuple(necklace_poly(RingValue.from_int(ZZ, r), n).payload for n in T),
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
                lambda: witt_v(G, ci, au).payloads(),
                lambda: cyc_verschiebung(r, cx).payloads(),
            )
            ys = [rng.randint(-9, 9) for _ in T]
            ag = IndexedVector.from_ints(G, WITT, ZZ, ys)
            cg = IndexedVector.from_ints(T, WITT, ZZ, ys)
            run.check(
                f"{tag}/frobenius",
                lambda: witt_f(G, ci, ag).payloads(),
                lambda: cyc_frobenius(r, cg).payloads(),
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
        raise DomainError(f"--size {excerpt(size)} exceeds supported bound {SIZE_BOUND}")
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
