"""Classical (cyclic/profinite) Witt, necklace and aperiodic vectors.

The vectors are the group model's IndexedVector (CyclicVector is a second
name of that class) with a finite divisor-closed truncation set T as their
index: the member n stands for the open subgroup of index n of the
profinite cyclic group, so T = div(N) reproduces the finite cyclic group of
order N component-for-component.

The flavor dictionary matches the group-indexed module: Witt coordinates
with ghost w_n = sum_{d|n} d a_d^{n/d}, the necklace ring with
(x y)_n = sum_{[i,j]=n} (i,j) x_i y_j, and the aperiodic ring with the same
sum without the gcd weight; both add componentwise.  The Witt operations
and the necklace and aperiodic products are solved on ghost tables
(`universal.GhostSystem`): a product is the solve of the pointwise product
of the ghosts.  The Frobenius f_r, characterised by the ghost shift
n -> rn, is the solve of the shifted ghost; on the necklace and aperiodic
flavors it is an integer linear map, so defined over every coefficient
ring.  Verschiebung reindexes by r.

The ghost maps, their inverses, the product and Frobenius solves and the
tables are the group module's (`burnside._ghost`, `_flavor_mul`, `_solve`,
`universal.ghost_table`); every system, the Frobenius' among them, is
built and memoised by `universal.ghost_system`, and `_frobenius` serves the
q-model too; the public names here check flavors and name their errors.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .burnside import (
    APERIODIC,
    GHOST,
    NECKLACE,
    WITT,
    IndexedVector,
    _check_operands,
    _expect,
    _flavor_mul,
    _flavor_op,
    _ghost,
    _ghost_inv,
    _solve,
    theta,
    theta_inv,
)
from .errors import (
    NotBinomial,
    NotInImage,
    SchemaError,
    TruncationTooSmall,
    excerpt,
)
from .rings import RingSpec, RingValue, divisors, mobius
from .universal import (  # Q_MEMBER_BOUND and check_q_member for the CLI
    Q_MEMBER_BOUND,
    GhostSystem,
    check_op,
    check_q_member,
    ghost_system,
    row_error,
)


# Miller-Rabin with these bases is exact below 3.3e24 (Sorenson-Webster 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Exact primality of n below _MR_EXACT_BELOW."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True  # a strong probable prime to every base, so prime below the bound


def _factor(n: int) -> int:
    """A nontrivial factor of the composite n (Pollard's rho)."""
    if n % 2 == 0:
        return 2
    c = 1
    while True:
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(x - y, n)
        if d != n:
            return d
        c += 1


def _missing_divisor(n: int, members, have) -> int | None:
    """A divisor of n missing from `have`, or None when all are there.

    `members` is `have` ascending, and every member below n must already be
    known divisor-closed.  n is closed iff n/p is a member for each prime
    p | n.  Those primes are found by trial division by members only: when
    the smaller members are closed, the smallest member above 1 dividing a
    cofactor is its smallest prime factor.
    """
    m = n
    for p in itertools.islice(members, 1, None):
        if p * p > m:
            break
        if m % p == 0:
            if n // p not in have:
                return n // p
            while m % p == 0:
                m //= p
    if m == 1:
        return None
    if m < n:
        # no member up to sqrt(m) divides m: a member m is prime, else m is missing
        if m not in have:
            return m
        return None if n // m in have else n // m
    # no member up to sqrt(n) divides n, so a member factor d is above sqrt(n)
    # and then n/d, below it, is missing
    if n >= _MR_EXACT_BELOW:
        # else n is closed only if prime, which _is_prime decides below the bound only
        d = next((d for d in itertools.islice(members, 1, None) if d < n and n % d == 0), None)
        if d is None:
            raise SchemaError(f"truncation set member {n} has no smaller member above 1 "
                              f"dividing it; such a member must be below {_MR_EXACT_BELOW}")
        return n // d
    if _is_prime(n):
        return None
    d = _factor(n)
    return n // d if d in have else d


class TruncationSet:
    """Finite divisor-closed set of positive integers containing 1."""

    __slots__ = ("members", "_pos")

    def __init__(self, members):
        try:
            ms = sorted(set(members))
        except TypeError:
            ms = None
        if ms is None or not all(type(n) is int for n in ms):
            raise SchemaError(
                f"truncation set must be a collection of integers, not {excerpt(members)}")
        if not ms or ms[0] < 1:
            raise SchemaError("truncation set must contain positive integers")
        if 1 not in ms:
            raise SchemaError("truncation set must contain 1")
        have = set(ms)
        for n in ms:
            d = _missing_divisor(n, ms, have)
            if d is not None:
                raise SchemaError(f"truncation set not divisor-closed: {d} | {n} missing")
        self.members = tuple(ms)
        self._pos = {n: i for i, n in enumerate(self.members)}

    @classmethod
    def div(cls, N: int):
        if N < 1:
            raise SchemaError("div(N) needs N >= 1")
        return cls(divisors(N))

    def __contains__(self, n):
        return n in self._pos

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    def position(self, n: int) -> int:
        return self._pos[n]

    def divisors(self, n: int) -> tuple[int, ...]:
        """The members dividing n, ascending: for a member n all its divisors,
        found in pairs (d, n/d) with d <= sqrt(n)."""
        if n not in self._pos:  # then a cofactor n/d need not be a member
            return tuple(d for d in self.members if d <= n and n % d == 0)
        small = [d for d in itertools.takewhile(lambda d: d * d <= n, self.members) if n % d == 0]
        return tuple(small + [n // d for d in reversed(small) if d * d != n])

    def __eq__(self, other):
        return isinstance(other, TruncationSet) and self.members == other.members

    def __hash__(self):
        return hash(self.members)

    def __repr__(self):
        return f"TruncationSet({list(self.members)})"


CyclicVector = IndexedVector


def _require_components(x: CyclicVector):
    """The classical model's operations refuse coordinate-backed vectors."""
    if x.coord_form:
        raise ValueError(
            "vector is stored in Witt coordinates; use the q-deformed operations"
        )
    return x


# ---------------------------------------------------------------------------
# ghosts


def cyc_witt_ghost(a: CyclicVector) -> CyclicVector:
    return _ghost(_expect("cyc_witt_ghost", WITT, a))


def cyc_ghost(x: CyclicVector) -> CyclicVector:
    """Ghost of any non-ghost flavor over the truncation set."""
    if _require_components(x).flavor == GHOST:
        raise ValueError("vector is already a Ghost vector")
    return _ghost(x)


def cyc_ghost_inv(b: CyclicVector, flavor: str) -> CyclicVector:
    """Invert the necklace/aperiodic ghost by a triangular solve."""
    _expect("cyc_ghost_inv", GHOST, b)
    if flavor not in (NECKLACE, APERIODIC):
        raise ValueError("cyc_ghost_inv recovers Necklace or Aperiodic vectors")
    T = b.truncation
    return _ghost_inv(b, T, flavor, row_error(
        NotInImage, "ghost vector is not a necklace ghost over {ring} at {row}", T))


# ---------------------------------------------------------------------------
# universal polynomials and the Witt operations


def cyc_universal(T: TruncationSet, op: str) -> GhostSystem:
    """The ghost system of one truncated-Witt ring operation; its
    polynomials, solved when first read, have integer coefficients."""
    check_op(op)
    return ghost_system(T, op, WITT, False, None)


def cyc_witt_op(op: str, a: CyclicVector, b: CyclicVector | None = None) -> CyclicVector:
    _check_operands("cyc_witt_op", WITT, op, a, b)
    return _solve(cyc_universal(a.truncation, op), a, b)


# ---------------------------------------------------------------------------
# necklace / aperiodic operations


def cyc_nr_mul(x: CyclicVector, y: CyclicVector) -> CyclicVector:
    """(x y)_n = sum over lcm(i, j) = n of gcd(i, j) x_i y_j."""
    _check_operands("cyc_nr_mul", NECKLACE, "prod", x, y)
    return _flavor_mul(_require_components(x), y)


def cyc_ap_mul(x: CyclicVector, y: CyclicVector) -> CyclicVector:
    """(x y)_n = sum over lcm(i, j) = n of x_i y_j, valid over every ring."""
    _check_operands("cyc_ap_mul", APERIODIC, "prod", x, y)
    return _flavor_mul(_require_components(x), y)


def cyc_nr_op(op: str, x: CyclicVector, y: CyclicVector | None = None) -> CyclicVector:
    _check_operands("cyc_nr_op", NECKLACE, op, x, y)
    return _flavor_op(op, _require_components(x), y, None)


def cyc_ap_op(op: str, x: CyclicVector, y: CyclicVector | None = None) -> CyclicVector:
    _check_operands("cyc_ap_op", APERIODIC, op, x, y)
    return _flavor_op(op, _require_components(x), y, None)


# ---------------------------------------------------------------------------
# necklace polynomials and the index scaling


def _necklace_fraction(r, n: int, Rq: RingSpec):
    s = Rq.zero()
    for d in divisors(n):
        m = mobius(d)
        if m:
            s = Rq.add(s, Rq.mul(Rq.from_fraction(Fraction(m, n)), Rq.pow(r, n // d)))
    return s


def necklace_poly(r: RingValue, n: int) -> RingValue:
    """M(r, n) = (1/n) sum_{d|n} mu(d) r^{n/d} (the necklace count for r >= 0)."""
    if n < 1:
        raise ValueError("necklace index must be positive")
    R = r.spec
    if R.is_qalgebra:
        return RingValue(R, _necklace_fraction(r.payload, n, R))
    Rq = R.rationalized()
    if Rq == R:
        raise NotBinomial(f"necklace scalars over {R.name} have no canonical value")
    val = _necklace_fraction(R.to_rationalized(r.payload), n, Rq)
    back = R.from_rationalized(val)
    if back is None:
        raise NotBinomial(f"M(r, {n}) escapes {R.name}; no binomial structure")
    return RingValue(R, back)


def aperiodic_poly(r: RingValue, n: int) -> RingValue:
    """S(r, n) = n M(r, n)."""
    m = necklace_poly(r, n)
    return RingValue(r.spec, r.spec.mul(r.spec.from_int(n), m.payload))


def cyc_theta(x: CyclicVector) -> CyclicVector:
    """theta(x)_n = n x_n."""
    return theta(_require_components(x))


def cyc_theta_inv(y: CyclicVector) -> CyclicVector:
    return theta_inv(_require_components(y))


# ---------------------------------------------------------------------------
# Frobenius and Verschiebung


def cyc_verschiebung(r: int, x: CyclicVector) -> CyclicVector:
    """Index dilation by r on the same truncation set (top components drop).

    (V_r x)_n = x_{n/r} when r | n, else 0; the aperiodic flavor scales the
    moved component by r.  Only positions {m : rm in T} of the input are
    read, matching the truncated-Witt convention.
    """
    return _dilate(r, _require_components(x))


def _dilate(r: int, x: CyclicVector) -> CyclicVector:
    """V_r on any flavor but Ghost; coordinate-backed vectors move unscaled."""
    if r < 1:
        raise ValueError("verschiebung index must be positive")
    if x.flavor == GHOST:
        raise ValueError("verschiebung acts on Witt/Necklace/Aperiodic vectors")
    R = x.ring
    out = []
    for n in x.truncation:
        if n % r == 0:
            p = x.component(n // r).payload
            if x.flavor == APERIODIC and not x.coord_form:
                p = R.mul(R.from_int(r), p)
            out.append(RingValue(R, p))
        else:
            out.append(RingValue(R, R.zero()))
    return x.with_components(out)


def _frobenius(r: int, x: CyclicVector, q=None) -> CyclicVector:
    """f_r, the operator with ghost behaviour n -> rn, on {n : rn in T}; q is
    the q-model's q as a function of the ring (see `burnside._ghost`), None
    in the classical model, which refuses coordinate-backed vectors."""
    if r < 1:
        raise ValueError("frobenius index must be positive")
    if q is None:
        _require_components(x)
    T, R = x.truncation, x.ring
    if r not in T:
        raise TruncationTooSmall(
            f"frobenius({r}) needs {r} in the truncation set {list(T.members)}"
        )
    if x.flavor == GHOST:
        Tout = TruncationSet([n for n in T if r * n in T])
        return CyclicVector(Tout, GHOST, R, [x.component(r * n) for n in Tout])
    flavor = WITT if x.coord_form else x.flavor
    return _solve(ghost_system(T, f"frob{r}", flavor, q is not None, r), x, q=q)


def cyc_frobenius(r: int, x: CyclicVector) -> CyclicVector:
    """The operator with ghost behaviour n -> rn, on truncation {n : rn in T}."""
    return _frobenius(r, x)
