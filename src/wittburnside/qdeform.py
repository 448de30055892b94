"""q-deformed cyclic Witt/necklace/aperiodic rings and Artin-Hasse curves.

Everything rests on the one-parameter formal group law
F_q(X, Y) = X + Y - q X Y.  Every ring operation and Frobenius solves a
q-ghost system at its payloads, at a concrete integer q or the
indeterminate: the Witt flavor on the q-ghost table, the necklace and
aperiodic flavors on its linear tables, each system built once
(`universal.ghost_system`).  The divisor-lattice scalars zeta^q and mu^q,
which depend on d2/d1 alone (mu^q is the Dirichlet inverse of zeta^q,
`zeta_mu_q`), and the numerical polynomials P_{n,i,j}(q) that the solved
products amount to are kept as scalars of their own (`qpoly`, the
q-necklace polynomials, the checks).
The Witt operations' universal polynomials, with numerical coefficients in
Q[q] (q an extra variable), are derived once per truncation set by the
same solve.  The q-ghost maps, the q-Teichmuller transport and f_r are the
classical maps (`burnside._ghost`, `_teichmuller`, `cyclic._frobenius`) on
the q-ghost tables, given `QContext.ghost_q`.  Over Q[q] each of these
solves is made at one point where that pays (`GhostSystem._at_point`): at
the indeterminate q that point's one variable is q itself.

A QContext fixes q: a concrete integer works over every coefficient ring
(the solves stay integral by numericality), while the indeterminate
requires vectors over the Q[q] ring, and its Witt product a truncation set
with no member above Q_SYMBOLIC_PROD_BOUND (its sum, negation and Witt
Frobenius, above Q_SYMBOLIC_BOUND).  Quotient-ring images of the
q-Teichmuller transport are kept in Witt coordinates (coord_form), exactly
as the group-indexed module does, because componentwise reduction of the
transport is not well defined mod m.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .burnside import (
    APERIODIC,
    GHOST,
    NECKLACE,
    WITT,
    _check_operands,
    _expect,
    _flavor_op,
    _ghost,
    _ghost_inv,
    _solve,
    _teichmuller,
    _teichmuller_inv,
    theta,
    theta_inv,
)
from .cyclic import (
    CyclicVector,
    TruncationSet,
    _dilate,
    _frobenius,
    necklace_poly,
)
from .errors import (
    DomainError,
    NotInImage,
    NumericalityViolation,
    SchemaError,
    excerpt,
)
from .rings import (
    QQ_Q,
    QPolynomial,
    ResidueRing,
    RingSpec,
    RingValue,
    divisors,
    mobius,
)
from .universal import (
    GhostSystem,
    check_op,
    ghost_system,
    row_error,
)


class QContext:
    """Chosen q: an integer, or None for the indeterminate.  The vector and
    curve operations read sizes off their operands."""

    __slots__ = ("q",)

    def __init__(self, q):
        if isinstance(q, str):
            if q.strip() != "q":
                raise SchemaError(f"q must be an integer or the letter q, not {excerpt(q)}")
            q = None
        if q is not None and not isinstance(q, int):
            raise SchemaError("q must be an integer or the indeterminate")
        self.q = q

    def q_payload(self, R: RingSpec):
        """The element q of R; the indeterminate only lives in Q[q]."""
        if self.q is None:
            if R is not QQ_Q:
                raise SchemaError(f"indeterminate q requires the Q[q] ring, not {R.name}")
            return QPolynomial.variable()
        return R.from_int(self.q)

    def ghost_q(self, R: RingSpec):
        """The q that ghost rows over R are evaluated and solved at: the
        integer q itself, or the indeterminate (in the Q[q] ring only)."""
        return self.q_payload(R) if self.q is None else self.q

    def __repr__(self):
        return f"QContext(q={'q' if self.q is None else self.q})"


def _q_scalar(ctx: QContext, R: RingSpec, p: QPolynomial, what: str):
    """Payload of a Q[q]-scalar p at ctx's q; a value that is not an integer
    is refused as non-numerical, naming `what`."""
    if ctx.q is None:
        ctx.q_payload(R)  # the indeterminate lives in the Q[q] ring only
        return p
    v = p(ctx.q)
    if v.denominator != 1:
        raise NumericalityViolation(f"{what} evaluates to {v} at q={ctx.q}")
    return R.from_int(v.numerator)


# ---------------------------------------------------------------------------
# divisor-lattice scalars: zeta^q, mu^q, tau^q, P_{n,i,j}


@lru_cache(maxsize=None)
def zeta_mu_q(k: int) -> tuple[QPolynomial, QPolynomial]:
    """(zeta^q(k), mu^q(k)): zeta^q(d1, d2) = (d1/d2) q^(d2/d1 - 1) on D(n) and
    its inverse mu^q(d1, d2) depend only on k = d2/d1.  mu^q is the Dirichlet
    inverse of k -> q^(k-1)/k: mu^q(1) = 1 and, for k > 1,
    mu^q(k) = -sum_{d | k, d < k} mu^q(d) (d/k) q^(k/d - 1)."""
    if k < 1:
        raise ValueError("lattice index must be positive")
    zeta = QPolynomial.monomial(Fraction(1, k), k - 1)
    if k == 1:
        return zeta, zeta
    return zeta, -sum((zeta_mu_q(d)[1] * QPolynomial.monomial(Fraction(d, k), k // d - 1)
                       for d in divisors(k)[:-1]), QPolynomial())


@lru_cache(maxsize=None)
def tau_q(i: int, n: int) -> QPolynomial:
    """tau^q(i, n) = sum_{d|i} mu^q(1, d) zeta^q(d, n), for i | n."""
    if n % i != 0:
        raise ValueError(f"tau^q({i}, {n}) needs {i} | {n}")
    acc = QPolynomial()
    for d in divisors(i):
        acc = acc + zeta_mu_q(d)[1] * zeta_mu_q(n // d)[0]
    return acc


def _classical_s(x: QPolynomial, d: int) -> QPolynomial:
    """S(x, d) = sum_{e|d} mu(e) x^(d/e) with x a monomial in q."""
    acc = QPolynomial()
    for e in divisors(d):
        m = mobius(e)
        if m:
            acc = acc + x ** (d // e) * m
    return acc


@lru_cache(maxsize=None)
def p_poly(n: int, i: int, j: int) -> QPolynomial:
    """The numerical structure polynomial P_{n,i,j}(q), for [i,j] | n."""
    l = math.lcm(i, j)
    if n % l != 0:
        raise ValueError(f"P_({n},{i},{j}) needs lcm({i},{j}) | {n}")
    g = math.gcd(i, j)
    x = QPolynomial.monomial(1, l // j)
    acc = QPolynomial()
    for d in divisors(n // l):
        acc = acc + tau_q(n // (l * d), n // i) * _classical_s(x, d)
    # exact division by (i,j) q / j; a remainder would be a bug, not bad input
    p = (acc * Fraction(j, g)).divexact(QPolynomial.variable())
    if not p.is_numerical():
        raise NumericalityViolation(f"P_({n},{i},{j}) is not numerical: {p.format()}")
    return p


# ---------------------------------------------------------------------------
# q-ghost maps


def q_witt_ghost(ctx: QContext, a: CyclicVector) -> CyclicVector:
    """Phi^q_n(a) = sum_{d|n} d q^(n/d - 1) a_d^(n/d)."""
    return _ghost(_expect("q_witt_ghost", WITT, a), ctx.ghost_q)


def q_ghost(ctx: QContext, x: CyclicVector) -> CyclicVector:
    """Ghost of any non-ghost flavor; coordinate-backed vectors use Phi^q."""
    if x.flavor == GHOST:
        raise ValueError("vector is already a Ghost vector")
    return _ghost(x, ctx.ghost_q)


def q_ghost_inv(ctx: QContext, b: CyclicVector, flavor: str) -> CyclicVector:
    """Invert the necklace/aperiodic q-ghost by a triangular solve.

    The aperiodic rows have diagonal 1, so that inverse exists over every
    ring; the necklace rows divide by n.
    """
    _expect("q_ghost_inv", GHOST, b)
    if flavor not in (NECKLACE, APERIODIC):
        raise ValueError("q_ghost_inv recovers Necklace or Aperiodic vectors")
    T = b.truncation

    def fail(u, R):
        if isinstance(R, ResidueRing):
            return NotInImage(f"ghost vector has no necklace preimage over {R.name}")
        return NotInImage(f"ghost vector leaves {R.name} at index {T.members[u]}")

    return _ghost_inv(b, T, flavor, fail, ctx.ghost_q)


# ---------------------------------------------------------------------------
# q-universal polynomials and the q-Witt operations
#
# The structure polynomials live in Q[q][a, b] with every grouped coefficient
# a numerical polynomial in q (the product already needs (q^2-q)/2).  That
# numericality is what keeps the operations' q-ghost solve at an integer q,
# and at Z/m payloads lifted to Z, inside Z.


def q_universal(T: TruncationSet, op: str) -> GhostSystem:
    """The q-ghost system of one q-Witt ring operation; its polynomials,
    solved when first read, have numerical coefficients."""
    check_op(op)
    return ghost_system(T, op, WITT, True, None)


# At the indeterminate q the Witt operations solve in Q[q] payloads whose
# degrees grow with the members, at a cost that grows steeply with the largest
# one.  With components alternating 3 and 1/2, on one Intel Xeon vCPU: the
# product takes 0.4-0.75 s on 1..128 (the costliest set with that largest
# member; 0.85 s through the CLI), 0.8-1.4 s on 1..160, 4-5 s on 1..240 and
# over 30 s on div(720); the sum takes 0.9-1.5 s, the negation 0.7-1.1 s and
# the Witt Frobenius f_2 0.5-0.9 s on 1..256, and 1.7-2.1 s on 1..320.  These
# sizes pass the point route's room, so they keep the polynomial route, and
# the per-row degree and 1-norm bounds that size a point solve at the
# indeterminate (`GhostSystem._q_top`, `_norms`) would bound a work budget
# too.  Above these bounds they are refused.
Q_SYMBOLIC_PROD_BOUND = 128
Q_SYMBOLIC_BOUND = 256


def _bounded_q(ctx: QContext, T: TruncationSet, what: str, bound: int):
    """ctx.ghost_q, which at the indeterminate then refuses a truncation set T
    with a member above bound: after the ring check, once the table is built."""
    def q(R):
        qv = ctx.ghost_q(R)
        if ctx.q is None and T.members[-1] > bound:
            raise DomainError(f"truncation set member {T.members[-1]} exceeds the bound "
                              f"{bound} of the {what} at the indeterminate q")
        return qv

    return q


def q_witt_op(ctx: QContext, op: str, a: CyclicVector, b: CyclicVector | None = None) -> CyclicVector:
    _check_operands("q_witt_op", WITT, op, a, b)
    system = q_universal(a.truncation, op)  # refuses an unknown op
    what, bound = {"sum": ("sum", Q_SYMBOLIC_BOUND), "neg": ("negation", Q_SYMBOLIC_BOUND),
                   "prod": ("product", Q_SYMBOLIC_PROD_BOUND)}[op]
    return _solve(system, a, b, _bounded_q(ctx, a.truncation, what, bound))


def try_one(ctx: QContext, T: TruncationSet, R: RingSpec) -> CyclicVector | None:
    """The multiplicative identity of the q-Witt ring, when it exists in R.

    Solves sum_{d|n} d q^(n/d-1) a_d^(n/d) = 1 on the q-ghost table; each
    row needs an exact division by n, so the identity may be absent (None).
    """
    one = CyclicVector.from_payloads(T, GHOST, R, [R.one()] * len(T))
    try:
        return _ghost_inv(one, T, WITT, row_error(
            NotInImage, "no q-Witt identity over {ring} at {row}", T), ctx.ghost_q)
    except NotInImage:
        return None


# ---------------------------------------------------------------------------
# q-necklace / q-aperiodic multiplication


def _q_flavor_op(ctx: QContext, op, x, y):
    """_flavor_op at ctx's q: the q-Witt operation for coordinate-backed vectors,
    the product as the solve of the q-ghosts' product."""
    return _flavor_op(op, x, y, lambda op, a, b: q_witt_op(ctx, op, a, b), ctx.ghost_q)


def q_nr_mul(ctx: QContext, x: CyclicVector, y: CyclicVector) -> CyclicVector:
    """(x y)_n = sum over [i,j] | n of (i,j) P_{n,i,j}(q) x_i y_j."""
    _check_operands("q_nr_mul", NECKLACE, "prod", x, y)
    return _q_flavor_op(ctx, "prod", x, y)


def q_ap_mul(ctx: QContext, x: CyclicVector, y: CyclicVector) -> CyclicVector:
    """(x y)_n = sum over [i,j] | n of (n/[i,j]) P_{n,i,j}(q) x_i y_j."""
    _check_operands("q_ap_mul", APERIODIC, "prod", x, y)
    return _q_flavor_op(ctx, "prod", x, y)


def q_nr_op(ctx: QContext, op: str, x: CyclicVector, y: CyclicVector | None = None) -> CyclicVector:
    if op == "prod":
        return q_nr_mul(ctx, x, y)
    _check_operands("q_nr_op", NECKLACE, op, x, y)
    return _q_flavor_op(ctx, op, x, y)


def q_ap_op(ctx: QContext, op: str, x: CyclicVector, y: CyclicVector | None = None) -> CyclicVector:
    if op == "prod":
        return q_ap_mul(ctx, x, y)
    _check_operands("q_ap_op", APERIODIC, op, x, y)
    return _q_flavor_op(ctx, op, x, y)


# ---------------------------------------------------------------------------
# q-exponentials and the Teichmuller-type transports


def q_necklace_poly(ctx: QContext, r: RingValue, n: int) -> RingValue:
    """M^q(x, n) = sum_{d|n} mu^q(d, n) q^(d-1)/d x^d, by its numerical
    rewriting M^q(x, n) = sum_{d|n} (d tau^q(n/d, n)) M(x, d), which is exact
    over every ring with the classical necklace scalars M(x, d): a Q-algebra
    or a binomial ring.  Anything else inherits NotBinomial from M(x, d).
    """
    if n < 1:
        raise ValueError("necklace index must be positive")
    R = r.spec
    s = R.zero()
    for d in divisors(n):
        c = tau_q(n // d, n) * d
        if c.is_zero():
            continue
        if not c.is_numerical():
            raise NumericalityViolation(f"{d} tau^q({n // d},{n}) is not numerical")
        m = necklace_poly(r, d)
        s = R.add(s, R.mul(_q_scalar(ctx, R, c, "exponential weight"), m.payload))
    return RingValue(R, s)


def q_aperiodic_poly(ctx: QContext, r: RingValue, n: int) -> RingValue:
    """S^q(x, n) = n M^q(x, n)."""
    m = q_necklace_poly(ctx, r, n)
    return RingValue(r.spec, r.spec.mul(r.spec.from_int(n), m.payload))


def q_teichmuller(ctx: QContext, a: CyclicVector) -> CyclicVector:
    """T^q(a): the necklace q-ghost solve of Phi^q(a), so q_ghost(T^q(a)) =
    Phi^q(a); it equals sum_{n|m} M^q(a_n, m/n) at m.

    Over Z every division is exact (the M^q are numerical); an integer
    polynomial ring, which is not binomial, is rationalised first; quotient
    rings keep Witt coordinates, and there refuse the indeterminate q, which
    no table asks for, as every other q-map does.
    """
    if isinstance(_expect("q_teichmuller", WITT, a).ring, ResidueRing):
        ctx.q_payload(a.ring)
    return _teichmuller(a, "q-teichmuller", ctx.ghost_q)


def q_teichmuller_inv(ctx: QContext, x: CyclicVector) -> CyclicVector:
    """The inverse of T^q: the Witt q-ghost solve of q_ghost(x).

    Over a binomial ring such as Z every necklace vector has a preimage;
    over an integer polynomial ring a row leaving the ring raises NotInImage.
    A quotient ring refuses the indeterminate q, as in `q_teichmuller`.
    """
    if isinstance(_expect("q_teichmuller_inv", NECKLACE, x).ring, ResidueRing):
        ctx.q_payload(x.ring)
    return _teichmuller_inv(
        x,
        "componentwise Necklace vectors over {ring} have no canonical coordinate lift; "
        "only coordinate-backed images are invertible",
        "vector has no q-Witt preimage over {ring} at {row}", ctx.ghost_q)


def theta_q(x: CyclicVector) -> CyclicVector:
    """theta^q(x)_n = n x_n (q-independent); coordinates pass through."""
    return theta(x)


def theta_q_inv(y: CyclicVector) -> CyclicVector:
    return theta_inv(y)


# ---------------------------------------------------------------------------
# q-Frobenius and Verschiebung


def q_verschiebung(r: int, x: CyclicVector) -> CyclicVector:
    """Index dilation, independent of q; aperiodic components pick up r."""
    return _dilate(r, x)


def q_frobenius(ctx: QContext, r: int, x: CyclicVector) -> CyclicVector:
    """The operator with q-ghost behaviour n -> rn, on truncation {n : rn in T}."""
    if x.flavor != WITT:
        return _frobenius(r, x, ctx.ghost_q)
    return _frobenius(r, x, _bounded_q(ctx, x.truncation, "Witt Frobenius", Q_SYMBOLIC_BOUND))


# ---------------------------------------------------------------------------
# curves in F_q and the Artin-Hasse isomorphism


class TruncatedCurve:
    """A curve x_1 t + x_2 t^2 + ... + x_N t^N in F_q (no constant term)."""

    __slots__ = ("ring", "components")

    def __init__(self, ring, components):
        comps = tuple(components)
        if not comps:
            raise ValueError("curves need degree bound at least 1")
        for c in comps:
            if not isinstance(c, RingValue) or c.spec != ring:
                raise ValueError("coefficients must be RingValues over the declared ring")
        self.ring = ring
        self.components = comps

    @classmethod
    def from_payloads(cls, ring, payloads):
        return cls(ring, [RingValue(ring, p) for p in payloads])

    @classmethod
    def from_ints(cls, ring, ints):
        return cls(ring, [RingValue.from_int(ring, n) for n in ints])

    @property
    def degree(self) -> int:
        return len(self.components)

    def payloads(self):
        return tuple(c.payload for c in self.components)

    def coefficient(self, k: int) -> RingValue:
        # 1-based: the coefficient of t^k
        return self.components[k - 1]

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedCurve)
            and self.ring == other.ring
            and self.components == other.components
        )

    def __repr__(self):
        vals = ", ".join(c.format() for c in self.components)
        return f"<curve over {self.ring.name} deg {self.degree} [{vals}]>"


def _series_mul(R, u, v):
    n = len(u)
    out = [R.zero()] * n
    for i in range(1, n):
        a = u[i - 1]
        if R.is_zero(a):
            continue
        for j in range(1, n - i + 1):
            b = v[j - 1]
            if R.is_zero(b):
                continue
            out[i + j - 1] = R.add(out[i + j - 1], R.mul(a, b))
    return out


def curve_add(ctx: QContext, c1: TruncatedCurve, c2: TruncatedCurve) -> TruncatedCurve:
    """Group law of F_q on curves: c1 + c2 - q c1 c2, truncated."""
    if c1.ring != c2.ring or c1.degree != c2.degree:
        raise ValueError("curves live over different rings or degrees")
    R = c1.ring
    qv = ctx.q_payload(R)
    u, v = c1.payloads(), c2.payloads()
    return TruncatedCurve.from_payloads(
        R, [R.add(R.add(a, b), R.neg(R.mul(qv, p))) for a, b, p in zip(u, v, _series_mul(R, u, v))]
    )


def _fold(R, qv, acc, n, p):
    """F_q-add the monomial curve p t^n to the curve acc, in place: the
    coefficient at t^k loses q p acc_(k-n) for k from the top down to n + 1,
    so each acc_(k-n) is read before it changes, and the one at t^n then
    gains p.  One product per coefficient, where the sum of two whole
    curves (`curve_add`) takes one per pair."""
    qp = R.mul(qv, p)
    for k in range(len(acc), n, -1):
        a = acc[k - n - 1]
        if not R.is_zero(a):
            acc[k - 1] = R.add(acc[k - 1], R.neg(R.mul(qp, a)))
    acc[n - 1] = R.add(acc[n - 1], p)


def curve_neg(ctx: QContext, c: TruncatedCurve) -> TruncatedCurve:
    """F_q-inverse of a curve, solved degree by degree."""
    R = c.ring
    qv = ctx.q_payload(R)
    g = c.payloads()
    n = len(g)
    iota = [R.zero()] * n
    for k in range(1, n + 1):
        s = R.zero()
        for i in range(1, k):
            if R.is_zero(g[i - 1]):
                continue
            s = R.add(s, R.mul(g[i - 1], iota[k - i - 1]))
        iota[k - 1] = R.add(R.neg(g[k - 1]), R.mul(qv, s))
    return TruncatedCurve.from_payloads(R, iota)


# An Artin-Hasse fold F_q-adds a monomial per member into a curve of N
# coefficients in place (`_fold`), each addition at most N products of
# payloads that grow with N.  On 1..128, on one Intel Xeon vCPU, either
# direction takes 3 ms with every component 1 over Z at q = 2, 0.06 s over Q
# at q = 2 and 0.11 s at the indeterminate q, and 0.06 s with components
# alternating 3 and 1/2 over Q at q = 2 and 0.4 s over Q[q]; 1..192 takes
# 0.25-1.1 s at the indeterminate.  Both directions refuse a larger degree.
CURVE_DEGREE_BOUND = 128


def check_curve_degree(N: int):
    if N > CURVE_DEGREE_BOUND:
        raise DomainError(f"truncation set member {N} exceeds the bound {CURVE_DEGREE_BOUND} "
                          f"of the Artin-Hasse curves")


def artin_hasse(ctx: QContext, a: CyclicVector) -> TruncatedCurve:
    """H^q(a) = F_q-sum of the monomial curves a_n t^n, truncated at max(T)."""
    R = _expect("artin_hasse", WITT, a).ring
    qv = ctx.q_payload(R)
    N = max(a.truncation.members)
    check_curve_degree(N)  # before a curve of N coefficients
    acc = [R.zero()] * N
    for n, p in zip(a.truncation, a.payloads()):
        if not R.is_zero(p):
            _fold(R, qv, acc, n, p)
    return TruncatedCurve.from_payloads(R, acc)


def artin_hasse_inv(ctx: QContext, c: TruncatedCurve, T: TruncationSet) -> CyclicVector:
    """Peel Witt components off a curve in one fold: a_n is c_n less the
    coefficient at t^n of the F_q-sum so far, to which a_n t^n is then added;
    the curve is in the image when that sum ends equal to it."""
    R = c.ring
    N = max(T.members)
    if c.degree != N:
        raise ValueError(f"curve degree {c.degree} does not match max(T) = {N}")
    qv = ctx.q_payload(R)
    check_curve_degree(N)
    acc = [R.zero()] * N
    payloads = []
    for n in T:
        p = R.add(c.coefficient(n).payload, R.neg(acc[n - 1]))
        payloads.append(p)
        if not R.is_zero(p):
            _fold(R, qv, acc, n, p)
    if TruncatedCurve.from_payloads(R, acc) != c:
        raise NotInImage("curve is not an Artin-Hasse image on this truncation set")
    return CyclicVector.from_payloads(T, WITT, R, payloads)


def curve_mul(ctx: QContext, c1: TruncatedCurve, c2: TruncatedCurve) -> TruncatedCurve:
    """Ring product transported through H^q from the q-Witt product."""
    if c1.ring != c2.ring or c1.degree != c2.degree:
        raise ValueError("curves live over different rings or degrees")
    T = TruncationSet(range(1, c1.degree + 1))
    a = artin_hasse_inv(ctx, c1, T)
    b = artin_hasse_inv(ctx, c2, T)
    return artin_hasse(ctx, q_witt_op(ctx, "prod", a, b))
