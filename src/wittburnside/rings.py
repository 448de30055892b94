"""Exact scalar arithmetic: the rings of coefficients.

Every computation in this package is exact.  Supported coefficient rings:

    Z           integers
    Q           rationals
    Z/<m>       integers mod m (canonical representatives 0..m-1)
    Q[q]        univariate rational polynomials in q (dense)
    ZPoly(...)  multivariate integer polynomials (sparse)
    QPoly(...)  multivariate rational polynomials (sparse)

Payloads are plain data (int / Fraction / QPolynomial / MultiPoly); a RingSpec
knows how to combine them and a RingValue pairs a payload with its spec for
use at API boundaries.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
import re
import sys
from fractions import Fraction

from .errors import (
    DomainError,
    NonExactDivision,
    SchemaError,
    excerpt,
)


def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, ascending."""
    if n <= 0:
        raise ValueError("divisors expects a positive integer")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


def mobius(n: int) -> int:
    """Number-theoretic Mobius function."""
    if n <= 0:
        raise ValueError("mobius expects a positive integer")
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _exact(x):
    """x as a stored coefficient: an int when integral, else a Fraction.
    The exact types come first; an exact Fraction's slots are read without
    its numerator and denominator properties."""
    if type(x) is int:
        return x
    if type(x) is Fraction:
        return x._numerator if x._denominator == 1 else x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _canon(x):
    """A sum or product of stored coefficients, stored again (int when integral)."""
    return x if type(x) is int or x.denominator != 1 else x.numerator


def _ratio(num: int, den: int):
    """num/den as a stored coefficient; a Fraction only when not integral."""
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


_denominator = operator.attrgetter("denominator")


def _over_common_denominator(coeffs):
    """(den, ints) with ints[i] == coeffs[i] * den, den the lcm of the denominators."""
    den = math.lcm(*map(_denominator, coeffs))
    if den == 1:
        return 1, coeffs
    return den, [c.numerator * (den // c.denominator) for c in coeffs]


def _horner(nums, x):
    """sum of nums[i] * x^i, by Horner's rule."""
    acc = 0
    for c in reversed(nums):
        acc = acc * x + c
    return acc


def power(mul, base, n: int, one):
    """base ** n by square-and-multiply, where mul(a, b) is the product.

    The bits of n are read from the top: n.bit_length() - 1 squarings and
    popcount(n) - 1 further products, each by base itself, so a sparse
    polynomial's large partial powers are only ever squared.  n == 0 gives
    `one` without a product.
    """
    if n < 0:
        raise ValueError("negative exponent")
    if not n:
        return one
    result = base
    for bit in bin(n)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, base)
    return result


# The largest exponent a payload other than 0 and +-1 is raised to outside a
# residue ring: a ghost row at a truncation set member n raises to powers up
# to n, and 3^(10^18) could never be formed.
POWER_BOUND = 10_000


def cached_power(R, xs, v, e, cache):
    """xs[v] ** e in R (e >= 1), memoised in `cache`: the payload's own
    power, pow(x, e, m) in a residue ring.  A polynomial picks its own
    method (see MultiPoly.__pow__ and QPolynomial.__pow__).  The scalar
    rows raise each power afresh; the packed integers of the point route
    come here only for a power whose half is not cached, since
    `universal._packed_power` squares that half.

    Outside a residue ring, which reduces its powers, an exponent above
    POWER_BOUND is refused with DomainError unless xs[v] is 0 or +-1.
    """
    p = cache.get((v, e))
    if p is None:
        x = xs[v]
        if isinstance(R, ResidueRing):
            p = pow(x, e, R.modulus)
        elif e > POWER_BOUND and not any(x == R.from_int(k) for k in (0, 1, -1)):
            raise DomainError(f"exponent {e} exceeds the power bound {POWER_BOUND} over {R.name}")
        else:
            p = x ** e
        cache[v, e] = p
    return p


def _strides(dims):
    """The place value of each variable's exponent in the box `dims`, the
    last variable fastest: a monomial's slot is its mixed-radix index, so
    slots add as exponents do."""
    strides = []
    size = 1
    for d in reversed(dims):
        strides.append(size)
        size *= d
    strides.reverse()
    return strides


def _digit_bytes(bound: int) -> int:
    """The bytes n of a balanced digit, offset by half = 2^(8n-1), that
    holds every integer of absolute value at most bound.  An n of at most 8
    is widened to 1, 2, 4 or 8, so that the digits read back as machine
    integers."""
    n = bound.bit_length() // 8 + 1
    return 1 << (n - 1).bit_length() if n <= 8 else n


@functools.lru_cache(maxsize=64)
def _offsets(n: int, count: int) -> int:
    """half = 2^(8n-1) in each of count n-byte digits; the few digit widths
    and box sizes of a solve recur, so the last 64 are kept."""
    return int.from_bytes((1 << (8 * n - 1)).to_bytes(n, "little") * count, "little")


def _pack(slots, cs, count: int, n: int) -> int:
    """The sum of c * 2^(8 n s) over the slots s and integers c, each
    |c| < 2^(8n-1), in count n-byte digits.  A machine-width digit is stored
    through a typed memoryview as a two's-complement integer, which XOR-ing
    the offsets in turns into c + half; a wider one is written as c + half,
    byte by byte."""
    offsets = _offsets(n, count)
    if n <= 8:
        buf = bytearray(n * count)
        digits = memoryview(buf).cast("bhiq"[n.bit_length() - 1])
        if sys.byteorder == "big":  # the last slot comes first
            digits = digits[::-1]
        for s, c in zip(slots, cs):
            digits[s] = c
        return (int.from_bytes(buf, sys.byteorder) ^ offsets) - offsets
    half = 1 << (8 * n - 1)
    buf = bytearray(offsets.to_bytes(n * count, "little"))
    for s, c in zip(slots, cs):
        buf[s * n:s * n + n] = (c + half).to_bytes(n, "little")
    return int.from_bytes(buf, "little") - offsets


def _unpack(value: int, n: int, size: int):
    """The size balanced n-byte digits of value, lowest first: the inverse
    of _pack.  Adding the offsets makes each digit c + half; a machine-width
    one, XOR-ed with half, is c in two's complement, and one memoryview.cast
    reads them all; a wider one is read one byte slice at a time."""
    offsets = _offsets(n, size)
    if n <= 8:
        raw = ((value + offsets) ^ offsets).to_bytes(n * size, sys.byteorder)
        cs = memoryview(raw).cast("bhiq"[n.bit_length() - 1])
        return cs[::-1] if sys.byteorder == "big" else cs  # the last slot came first
    half = 1 << (8 * n - 1)
    raw = (value + offsets).to_bytes(n * size, "little")
    return [int.from_bytes(raw[i:i + n], "little") - half for i in range(0, n * size, n)]


def _slot_terms(cs, dims, den=1):
    """{exponents: c / den} over the non-zero digits cs of the exponent box
    `dims`, in slot order: the terms of a polynomial read back by _unpack."""
    slots = itertools.compress(itertools.product(*map(range, dims)), cs)
    values = filter(None, cs)
    if den != 1:
        values = (_ratio(c, den) for c in values)
    return dict(zip(slots, values))


def _kronecker_pays(box: int, nvars: int, terms: int, e: int, n: int) -> bool:
    """Whether p ** e, for p of `terms` terms in nvars variables packed in
    n-byte digits, is cheaper by Kronecker substitution than by the chain.

    Kronecker substitution costs about one unit per slot of the power's
    exponent box, per variable of the slot's exponent tuple and per machine
    word of its digit, plus 16.  The chain's work grows with the terms of
    p ** e, at most C(terms + e - 1, e), the multisets of e of p's terms;
    one such term weighs 16 units (fitted to the powers of symbolic-mix and
    of the universal solves, and to random ones in 1-4 variables up to
    e = 24).  So a dense power in few variables packs, and a sparse one in
    many variables takes the chain.
    """
    return box * nvars * -(-n // 8) + 16 <= 16 * math.comb(terms + e - 1, e)


def _divide_terms(terms, d: int, rational: bool):
    """{e: c / d} over the non-zero coefficients c of terms, stored; None when
    a quotient is not an integer and `rational` is false.  Integers divide by
    divmod; a Fraction is built only for a non-integral quotient."""
    if d == 1:
        return {e: _canon(c) for e, c in terms.items() if c}
    out = {}
    for e, c in terms.items():
        if not c:
            continue
        if type(c) is int:
            q, r = divmod(c, d)
            if r:
                if not rational:
                    return None
                q = Fraction(c, d)
        else:
            q = _canon(c / d)
            if type(q) is not int and not rational:
                return None
        out[e] = q
    return out


class QPolynomial:
    """Dense univariate polynomial over Q, used for the q-weighted lattice scalars.

    coeffs[i] is the coefficient of q^i: an int when integral, else a Fraction.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_exact(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def constant(cls, c):
        return cls((c,))

    @classmethod
    def variable(cls):
        return cls((0, 1))

    @classmethod
    def monomial(cls, c, e: int):
        return cls((0,) * e + (c,))

    @property
    def degree(self) -> int:
        # degree of the zero polynomial is -1 by convention
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, QPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("QPolynomial", self.coeffs))

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPolynomial(out)

    def __neg__(self):
        return QPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QPolynomial.constant(other)
        if self.is_zero() or other.is_zero():
            return QPolynomial()
        # integer products over each operand's common denominator
        da, xs = _over_common_denominator(self.coeffs)
        db, ys = _over_common_denominator(other.coeffs)
        out = [0] * (len(xs) + len(ys) - 1)
        for i, a in enumerate(xs):
            if not a:
                continue
            for j, b in enumerate(ys, i):
                out[j] += a * b
        den = da * db
        return QPolynomial(out if den == 1 else [_ratio(c, den) for c in out])

    __rmul__ = __mul__

    def _power(self, e: int):
        """self ** e (e >= 2, self not zero) by Kronecker substitution: the
        integer coefficients over their common denominator packed once, one
        big-int power, and e * degree + 1 digits read back once over den^e."""
        den, xs = _over_common_denominator(self.coeffs)
        n = _digit_bytes(sum(map(abs, xs)) ** e)
        cs = _unpack(_pack(range(len(xs)), xs, len(xs), n) ** e, n, e * self.degree + 1)
        if den == 1:
            return QPolynomial(cs)
        den **= e
        return QPolynomial([_ratio(c, den) for c in cs])

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative exponent")
        if n == 0:
            return QPolynomial.constant(1)
        if n == 1 or not self.coeffs:
            return self
        return self._power(n)

    def divexact(self, other) -> "QPolynomial":
        """Exact polynomial division; raises NonExactDivision on a remainder."""
        if isinstance(other, (int, Fraction)):
            other = QPolynomial.constant(other)
        if other.is_zero():
            raise NonExactDivision("division by zero polynomial")
        rem = list(self.coeffs)
        d = other.degree
        lead = other.coeffs[-1]
        out = [0] * max(len(rem) - d, 0)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            f = _canon(Fraction(c) / lead)
            out[i - d] = f
            for j, b in enumerate(other.coeffs):
                rem[i - d + j] -= f * b
        if any(c != 0 for c in rem):
            raise NonExactDivision("polynomial division left a remainder")
        return QPolynomial(out)

    def __call__(self, x) -> Fraction:
        # Horner over the common denominator: integer arithmetic at an integer x
        den, nums = _over_common_denominator(self.coeffs)
        return Fraction(_horner(nums, x), den)

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def is_numerical(self) -> bool:
        """True when the polynomial takes integer values on all integers.

        An integral polynomial does at once.  Otherwise integer values at
        degree+1 consecutive integers force integrality everywhere (finite
        differences), so only those points are tested, over one common denominator.
        """
        if self.is_integral():
            return True
        den, nums = _over_common_denominator(self.coeffs)
        return not any(_horner(nums, k) % den for k in range(self.degree + 2))

    def format(self, var: str = "q") -> str:
        if self.is_zero():
            return "0"
        parts = []
        for e in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[e]
            if c == 0:
                continue
            if e == 0:
                parts.append(_format_coeff(c))
            else:
                parts.append(f"{_format_coeff(c)}*{var}^{e}")
        return "+".join(parts)

    def __repr__(self):
        return f"QPolynomial({self.format()})"


# CPython converts an int of at most 4,300 digits to or from text unless
# PYTHONINTMAXSTRDIGITS says otherwise; the library applies that bound itself,
# so whether a number reads or prints does not depend on the setting.  Number
# text with more digits, or with a decimal exponent above the bound (1e9999999
# takes seconds to form), is refused before it is read; a number beyond the
# bound is refused where it would be printed.
DIGIT_BOUND = 4300
_DIGIT_CEILING = 10 ** DIGIT_BOUND


def check_digits(text: str, what: str) -> str:
    """text, unless its digits or its decimal exponent exceed DIGIT_BOUND."""
    exp = re.search(r"[eE][-+]?([\d_]+)", text)
    exp = exp[1].replace("_", "").lstrip("0") if exp else ""
    if (len(exp) > len(str(DIGIT_BOUND)) or exp and int(exp) > DIGIT_BOUND
            or len(text) > DIGIT_BOUND and sum(map(str.isdecimal, text)) > DIGIT_BOUND):
        raise SchemaError(f"{what} {text[:40]!r} exceeds the digit bound {DIGIT_BOUND}")
    return text


def _format_int(n: int) -> str:
    if -_DIGIT_CEILING < n < _DIGIT_CEILING:
        return str(n)
    raise DomainError(f"a number of more than {DIGIT_BOUND} digits has no text form")


def _format_coeff(c: Fraction) -> str:
    if c.denominator == 1:
        return _format_int(c.numerator)
    return f"{_format_int(c.numerator)}/{_format_int(c.denominator)}"


def _parse_coeff(text: str) -> Fraction:
    try:
        return Fraction(check_digits(text, "coefficient"))
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad coefficient {excerpt(text)}") from exc


class MultiPoly:
    """Sparse multivariate polynomial with exact rational coefficients.

    terms maps exponent tuples (aligned with `vars`) to nonzero coefficients,
    each an int when integral and a Fraction otherwise.  All operands of an
    arithmetic operation must share the same variable tuple.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars: tuple[str, ...], terms=None):
        self.vars = tuple(vars)
        clean = {}
        if terms:
            # _exact inline for the exact types, and a tuple key kept as it is
            for exps, c in terms.items():
                if type(c) is Fraction:
                    if c._denominator == 1:
                        c = c._numerator
                elif type(c) is not int:
                    c = _exact(c)
                if c:
                    clean[exps if type(exps) is tuple else tuple(exps)] = c
        self.terms = clean

    @classmethod
    def _of(cls, vars, terms):
        """Wrap terms that are already clean (tuple keys, nonzero stored coefficients)."""
        p = object.__new__(cls)
        p.vars = vars
        p.terms = terms
        return p

    @classmethod
    def zero(cls, vars):
        return cls(vars)

    @classmethod
    def constant(cls, vars, c):
        vars = tuple(vars)
        return cls(vars, {(0,) * len(vars): c})

    @classmethod
    def variable(cls, vars, name):
        vars = tuple(vars)
        i = vars.index(name)
        e = [0] * len(vars)
        e[i] = 1
        return cls(vars, {tuple(e): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(("MultiPoly", self.vars, tuple(sorted(self.terms.items()))))

    def _check(self, other):
        if self.vars != other.vars:
            raise ValueError("mixed variable sets in polynomial arithmetic")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = _canon(s)
            else:
                del out[e]
        return MultiPoly._of(self.vars, out)

    def __neg__(self):
        return MultiPoly._of(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            k = _exact(other)
            return MultiPoly._of(
                self.vars, {e: _canon(c * k) for e, c in self.terms.items()} if k else {}
            )
        self._check(other)
        a, b = self.terms, other.terms
        if not a or not b:
            return MultiPoly._of(self.vars, {})
        # Kronecker substitution pays off once the operands' monomial pairs
        # exceed 1.5 times the product's exponent box, whose slots its
        # unpacking visits, plus 32 for its fixed cost (measured on 1-3
        # variables, degrees 1-24): 3 * box + 64 <= 2 * pairs.  Every other
        # product takes the packed-exponent loop.
        top_a, top_b = list(map(max, zip(*a))), list(map(max, zip(*b)))
        dims = [x + y + 1 for x, y in zip(top_a, top_b)]
        if 3 * math.prod(dims) + 64 <= 2 * len(a) * len(b):
            return self._kronecker(other, dims, top_a, top_b)
        return self._packed(other, dims)

    def _packed(self, other, dims):
        """The product of sparse operands: each exponent tuple packed into
        one int, one bit field per variable wide enough for the product's
        exponents `dims`, so a monomial product is one int add
        (Monagan-Pearce packed exponents).

        A square (a is b, as `power` forms it) visits each unordered pair
        once, the pairs i <= j in the full product's order; every exponent
        first occurs at such a pair, so the terms keep the order of the
        full product."""
        a, b = self.terms, other.terms
        width = (max(dims, default=1) - 1).bit_length()
        shifts = [width * i for i in range(len(self.vars))]
        da, xs = _over_common_denominator(a.values())
        db, ys = (da, xs) if a is b else _over_common_denominator(b.values())
        pa = [(sum(map(operator.lshift, e, shifts)), x) for e, x in zip(a, xs)]
        pb = pa if a is b else [(sum(map(operator.lshift, e, shifts)), y) for e, y in zip(b, ys)]
        out = {}
        get = out.get
        i = 0
        for ka, x in pa:
            row = pb
            if pa is pb:  # a square: x*x, then 2x*y over the later terms y
                i += 1
                k = ka + ka
                out[k] = get(k, 0) + x * x
                x += x
                row = pa[i:]
            for kb, y in row:
                k = ka + kb
                out[k] = get(k, 0) + x * y
        mask = (1 << width) - 1
        den = da * db
        terms = {}
        for k, c in out.items():
            if c:
                terms[tuple([k >> s & mask for s in shifts])] = c if den == 1 else _ratio(c, den)
        return MultiPoly._of(self.vars, terms)

    def _kronecker(self, other, dims, top_a, top_b):
        """The product of dense operands by Kronecker substitution (Harvey 2009).

        Each operand's integer coefficients over their common denominator
        become the balanced digits of one integer (see _pack), at each
        monomial's slot in the product's exponent box `dims`.  A digit holds
        every product coefficient, of absolute value at most
        min(n_a, n_b) max|x| max|y|.  One big-int multiply (a square for
        a * a) then computes every coefficient.
        """
        strides = _strides(dims)
        da, xs = _over_common_denominator(self.terms.values())
        db, ys = (da, xs) if self is other else _over_common_denominator(other.terms.values())
        n = _digit_bytes(min(len(xs), len(ys)) * max(map(abs, xs)) * max(map(abs, ys)))

        def pack(terms, cs, top):
            slots = [sum(map(operator.mul, e, strides)) for e in terms]
            return _pack(slots, cs, sum(map(operator.mul, top, strides)) + 1, n)

        packed = pack(self.terms, xs, top_a)
        product = packed * (packed if self is other else pack(other.terms, ys, top_b))
        return self._from_digits(product, dims, n, da * db)

    def _from_digits(self, value, dims, n, den):
        """The polynomial whose coefficients, times den, are the n-byte
        balanced digits of value at the slots of the exponent box `dims`."""
        return MultiPoly._of(self.vars, _slot_terms(_unpack(value, n, math.prod(dims)), dims, den))

    def _power(self, e: int):
        """self ** e (e >= 2) by Kronecker substitution, or None for the zero
        polynomial or a power whose exponent box is too sparse for it (see
        _kronecker_pays).  A monomial's power is its coefficient's.

        The integer coefficients over their common denominator are packed
        once, in the box of e * deg_i + 1 slots per variable, with digits
        wide enough for their 1-norm to the e; one big-int power computes
        every coefficient, which is read back once over den^e.
        """
        a = self.terms
        if e < 2 or not a:
            return None
        if len(a) == 1:
            (k, c), = a.items()
            return MultiPoly._of(self.vars, {tuple(d * e for d in k): c ** e})
        top = list(map(max, zip(*a)))
        dims = [e * d + 1 for d in top]
        den, xs = _over_common_denominator(a.values())
        n = _digit_bytes(sum(map(abs, xs)) ** e)
        if not _kronecker_pays(math.prod(dims), len(dims), len(a), e, n):
            return None
        strides = _strides(dims)
        slots = [sum(map(operator.mul, k, strides)) for k in a]
        packed = _pack(slots, xs, sum(map(operator.mul, top, strides)) + 1, n)
        return self._from_digits(packed ** e, dims, n, den ** e)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        p = self._power(n)
        return power(operator.mul, self, n, MultiPoly.constant(self.vars, 1)) if p is None else p

    def is_integral(self) -> bool:
        return all(type(c) is int for c in self.terms.values())

    def substitute_scalar(self, name: str, value) -> "MultiPoly":
        """Plug a rational constant in for one variable, dropping it."""
        value = _exact(value)
        i = self.vars.index(name)
        new_vars = self.vars[:i] + self.vars[i + 1:]
        out = {}
        for e, c in self.terms.items():
            ne = e[:i] + e[i + 1:]
            out[ne] = out.get(ne, 0) + c * value ** e[i]
        return MultiPoly(new_vars, out)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: t[0], reverse=True)

    def compiled(self):
        """Term list [(coeff, ((var_index, exp), ...)), ...] for fast evaluation."""
        out = []
        for e, c in self.sorted_terms():
            out.append((c, tuple((i, k) for i, k in enumerate(e) if k)))
        return tuple(out)

    def format(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = [_format_coeff(c)]
            for name, k in zip(self.vars, e):
                if k:
                    factors.append(f"{name}^{_format_int(k)}")
            parts.append("*".join(factors))
        return "+".join(parts)

    def __repr__(self):
        return f"MultiPoly({self.format()})"


# patterns for re's cache, compiled on first use rather than at every import
_VAR_POWER = r"(-\s*)?([A-Za-z_][A-Za-z_0-9]*)(?:\^(\d+))?"
# a '-' after a variable or a whole number ("1e-5" is one) starts a term
_TERM_MINUS = (r"([A-Za-z_][A-Za-z_0-9]*|(?:[0-9][0-9_]*\.?|\.[0-9])[0-9_]*(?:[eE]-[0-9_]+)?)"
               r"(\s*-\s*)?")


def _parse_poly_terms(text: str, vars: tuple[str, ...]):
    """Parse signed monomials 'coef*v^e*...' into an exponent->coeff dict; a
    '-' before a term or a factor is a sign ("-x", "x+-1", "x*-1")."""
    text = re.sub(_TERM_MINUS, lambda m: m[1] + "+-" if m[2] else m[1], text.strip())
    if text in ("0", ""):
        return {}
    index = {v: i for i, v in enumerate(vars)}
    terms = {}
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if not chunk:
            raise SchemaError("empty monomial in polynomial value")
        coeff = Fraction(1)
        exps = [0] * len(vars)
        seen_coeff = False
        for f in chunk.split("*"):
            f = f.strip()
            m = re.fullmatch(_VAR_POWER, f)
            if m and m.group(2) in index:
                exps[index[m.group(2)]] += int(check_digits(m.group(3) or "1", "exponent"))
                coeff = -coeff if m.group(1) else coeff
            elif not seen_coeff:
                coeff *= _parse_coeff(f)
                seen_coeff = True
            else:
                raise SchemaError(f"unknown factor {excerpt(f)} in polynomial value")
        key = tuple(exps)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return terms


# ---------------------------------------------------------------------------
# ring specs


class RingSpec:
    """Interface for exact coefficient rings.  Instances are value-like."""

    name = "?"
    is_qalgebra = False

    def __eq__(self, other):
        return type(self) is type(other) and self.name == other.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return f"<ring {self.name}>"

    # -- payload algebra -----------------------------------------------------
    def zero(self):
        raise NotImplementedError

    def one(self):
        return self.from_int(1)

    def from_int(self, n: int):
        raise NotImplementedError

    def from_fraction(self, fr: Fraction):
        """Image of a rational scalar, when it exists in this ring."""
        fr = _as_fraction(fr)
        if fr.denominator == 1:
            return self.from_int(fr.numerator)
        raise NonExactDivision(f"{fr} has no image in {self.name}")

    # the payload's own operators; a residue ring reduces after each
    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        return a * b

    def pow(self, a, n: int):
        return power(self.mul, a, n, self.one())

    def is_zero(self, a) -> bool:
        return a == self.zero()

    def try_div(self, a, b):
        """Unique x with b*x == a, or None when absent/ambiguous."""
        raise NotImplementedError

    def row_sum(self, acc, sign, entries, xs, powers, q, refuse, divisor=1):
        """(acc + sign * the sum of weight * q^qpow * xs[v]^exp) / divisor, over
        the ghost-table entries (v, weight, exp, qpow); None when the int
        divisor leaves no quotient in the ring.

        powers caches the powers of xs (see cached_power); q is an int or a
        payload.  A weight is an int or a Fraction, never a payload.  A
        Fraction weight on a non-zero power needs a Q-algebra; elsewhere
        refuse() is raised.
        Each entry is added in turn with the payloads' own operators, so a
        residue is left unreduced.
        """
        for v, weight, exp, qpow in entries:
            if not xs[v]:  # a zero int or Fraction adds nothing
                continue
            p = xs[v] if exp == 1 else cached_power(self, xs, v, exp, powers)
            if type(weight) is Fraction and not (self.is_qalgebra or self.is_zero(p)):
                raise refuse()
            k = weight * q ** qpow if qpow else weight
            acc = acc + k * p if sign > 0 else acc - k * p
        return acc if divisor == 1 else self.try_div(acc, self.from_int(divisor))

    # -- textual form ----------------------------------------------------------
    def parse_value(self, text: str):
        raise NotImplementedError

    def format_value(self, a) -> str:
        raise NotImplementedError

    # -- relation to the rationalisation ----------------------------------------
    def rationalized(self) -> "RingSpec":
        return self

    def to_rationalized(self, a):
        return a

    def from_rationalized(self, a):
        """Pull a rationalised payload back, or None when it is not in the ring."""
        return a


class IntegerRing(RingSpec):
    name = "Z"

    def zero(self):
        return 0

    def from_int(self, n):
        return int(n)

    def try_div(self, a, b):
        if b == 0:
            return None
        q, r = divmod(a, b)
        return q if r == 0 else None

    def parse_value(self, text):
        try:
            return int(check_digits(text.strip(), "integer"))
        except ValueError as exc:
            raise SchemaError(f"bad integer {excerpt(text)}") from exc

    def format_value(self, a):
        return _format_int(a)

    def rationalized(self):
        return QQ

    def to_rationalized(self, a):
        return Fraction(a)

    def from_rationalized(self, a):
        a = _as_fraction(a)
        return a.numerator if a.denominator == 1 else None


class RationalRing(RingSpec):
    name = "Q"
    is_qalgebra = True

    def zero(self):
        return Fraction(0)

    def from_int(self, n):
        return Fraction(n)

    def from_fraction(self, fr):
        return _as_fraction(fr)

    def try_div(self, a, b):
        if b == 0:
            return None
        return _as_fraction(a) / b

    def parse_value(self, text):
        try:
            return Fraction(check_digits(text.strip(), "rational"))
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"bad rational {excerpt(text)}") from exc

    def format_value(self, a):
        return _format_coeff(a)


class ResidueRing(RingSpec):
    def __init__(self, modulus: int):
        if modulus < 2:
            raise SchemaError("residue modulus must be at least 2")
        self.modulus = modulus
        self.name = f"Z/{modulus}"

    def zero(self):
        return 0

    def is_zero(self, a) -> bool:
        return a % self.modulus == 0  # a solve carries unreduced ints

    def from_int(self, n):
        return n % self.modulus

    def from_fraction(self, fr):
        fr = _as_fraction(fr)
        den = fr.denominator % self.modulus
        if math.gcd(den, self.modulus) != 1:
            raise NonExactDivision(f"{fr} has no image in {self.name}")
        return fr.numerator * pow(den, -1, self.modulus) % self.modulus

    def add(self, a, b):
        return (a + b) % self.modulus

    def neg(self, a):
        return -a % self.modulus

    def mul(self, a, b):
        return (a * b) % self.modulus

    def try_div(self, a, b):
        # unique solutions only: b must be a unit mod m
        if math.gcd(b, self.modulus) != 1:
            return None
        return a * pow(b, -1, self.modulus) % self.modulus

    def parse_value(self, text):
        try:
            return int(check_digits(text.strip(), "residue")) % self.modulus
        except ValueError as exc:
            raise SchemaError(f"bad residue {excerpt(text)}") from exc

    def format_value(self, a):
        return str(a % self.modulus)


# A Q[q] value is dense: one parsed at this degree takes about 0.3 s and
# 8 MB, and "q^99999999999" would exhaust the memory.
Q_DEGREE_BOUND = 1_000_000


class QPolyRing(RingSpec):
    """Univariate Q[q]."""

    name = "Q[q]"
    is_qalgebra = True

    def zero(self):
        return QPolynomial()

    def from_int(self, n):
        return QPolynomial.constant(n)

    def from_fraction(self, fr):
        return QPolynomial.constant(fr)

    def try_div(self, a, b):
        if b.is_zero():
            return None
        try:
            return a.divexact(b)
        except NonExactDivision:
            return None

    def row_sum(self, acc, sign, entries, xs, powers, q, refuse, divisor=1):
        # one pass over a coefficient list, and one QPolynomial for the row
        out = list(acc.coeffs)
        shift = False
        if type(q) is QPolynomial:
            if q.coeffs == (0, 1):  # the indeterminate shifts coefficients
                shift = True
            elif len(q.coeffs) < 2:  # a constant scales the weight
                q = q.coeffs[0] if q.coeffs else 0
        for v, weight, exp, qpow in entries:
            p = xs[v] if exp == 1 else cached_power(self, xs, v, exp, powers)
            if not p.coeffs:
                continue
            k = weight if sign > 0 else -weight
            at = 0
            if qpow and shift:
                at = qpow
            elif qpow and type(q) is QPolynomial:
                p = p * q ** qpow
            elif qpow:
                k = k * q ** qpow
            cs = p.coeffs
            if len(out) < at + len(cs):
                out.extend([0] * (at + len(cs) - len(out)))
            for i, c in enumerate(cs, at):
                out[i] += k * c
        if divisor != 1:
            out = [_ratio(c, divisor) if type(c) is int else c / divisor for c in out]
        return QPolynomial(out)

    def parse_value(self, text):
        terms = _parse_poly_terms(text, ("q",))
        coeffs = {}
        for (e,), c in terms.items():
            coeffs[e] = coeffs.get(e, Fraction(0)) + c
        top = max(coeffs, default=0)
        if top > Q_DEGREE_BOUND:  # before a dense list of top + 1 coefficients
            raise SchemaError(f"degree {excerpt(top)} in q exceeds the bound {Q_DEGREE_BOUND}")
        out = [Fraction(0)] * (top + 1)
        for e, c in coeffs.items():
            out[e] = c
        return QPolynomial(out)

    def format_value(self, a):
        return a.format("q")


class PolyRing(RingSpec):
    """Multivariate polynomials, with integer or rational coefficients."""

    def __init__(self, vars: tuple[str, ...], rational: bool):
        vars = tuple(vars)
        if not vars or len(set(vars)) != len(vars):
            raise SchemaError("polynomial ring needs distinct variable names")
        for v in vars:
            if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", v):
                raise SchemaError(f"bad variable name {excerpt(v)}")
        self.vars = vars
        self.rational = rational
        base = "QPoly" if rational else "ZPoly"
        self.name = f"{base}({','.join(vars)})"
        self.is_qalgebra = rational

    def zero(self):
        return MultiPoly(self.vars)

    def from_int(self, n):
        if n == 0:
            return MultiPoly(self.vars)
        return MultiPoly.constant(self.vars, n)

    def from_fraction(self, fr):
        fr = _as_fraction(fr)
        if not self.rational and fr.denominator != 1:
            raise NonExactDivision(f"{fr} has no image in {self.name}")
        if fr == 0:
            return MultiPoly(self.vars)
        return MultiPoly.constant(self.vars, fr)

    def variable(self, name):
        return MultiPoly.variable(self.vars, name)

    def try_div(self, a, b):
        # supports only the scalar divisions the solvers need
        one = (0,) * len(self.vars)
        if list(b.terms) != [one]:
            return None
        d = b.terms[one]
        if type(d) is int:
            terms = _divide_terms(a.terms, d, self.rational)
            return None if terms is None else MultiPoly._of(self.vars, terms)
        out = a * (1 / d)
        return out if self.rational or out.is_integral() else None

    def row_sum(self, acc, sign, entries, xs, powers, q, refuse, divisor=1):
        # one pass over a coefficient dict, and one MultiPoly for the row
        out = dict(acc.terms)
        get = out.get
        for v, weight, exp, qpow in entries:
            p = xs[v] if exp == 1 else cached_power(self, xs, v, exp, powers)
            if not p.terms:
                continue
            if type(weight) is Fraction and not self.rational:
                raise refuse()
            k = weight if sign > 0 else -weight
            if qpow and type(q) is int:
                k *= q ** qpow
            elif qpow:  # q is a payload: a universal solve's indeterminate, or a constant
                p = p * q ** qpow
            for e, c in p.terms.items():
                out[e] = get(e, 0) + k * c
        terms = _divide_terms(out, divisor, self.rational)
        return None if terms is None else MultiPoly._of(self.vars, terms)

    def parse_value(self, text):
        terms = _parse_poly_terms(text, self.vars)
        poly = MultiPoly(self.vars, terms)
        if not self.rational and not poly.is_integral():
            raise SchemaError(f"non-integer coefficients for {self.name}")
        return poly

    def format_value(self, a):
        return a.format()

    def rationalized(self):
        if self.rational:
            return self
        return PolyRing(self.vars, rational=True)

    def from_rationalized(self, a):
        if self.rational:
            return a
        return a if a.is_integral() else None


ZZ = IntegerRing()
QQ = RationalRing()
QQ_Q = QPolyRing()


def parse_ring(text: str) -> RingSpec:
    """Parse the textual ring grammar: Z, Q, Z/<m>, Q[q], ZPoly(...), QPoly(...)."""
    text = text.strip()
    if text == "Z":
        return ZZ
    if text == "Q":
        return QQ
    if text == "Q[q]":
        return QQ_Q
    m = re.fullmatch(r"Z/(\d+)", text)
    if m:
        return ResidueRing(int(check_digits(m.group(1), "modulus")))
    m = re.fullmatch(r"(ZPoly|QPoly)\(([^)]*)\)", text)
    if m:
        vars = tuple(v.strip() for v in m.group(2).split(",") if v.strip())
        return PolyRing(vars, rational=(m.group(1) == "QPoly"))
    raise SchemaError(f"unknown ring spec {excerpt(text)}")


class RingValue:
    """A payload tagged with its ring; arithmetic checks the specs match."""

    __slots__ = ("spec", "payload")

    def __init__(self, spec: RingSpec, payload):
        self.spec = spec
        self.payload = payload

    @classmethod
    def parse(cls, spec: RingSpec, text: str):
        return cls(spec, spec.parse_value(text))

    @classmethod
    def from_int(cls, spec: RingSpec, n: int):
        return cls(spec, spec.from_int(n))

    def format(self) -> str:
        return self.spec.format_value(self.payload)

    def _coerce(self, other):
        if isinstance(other, RingValue):
            if other.spec != self.spec:
                raise ValueError(f"mixed rings {self.spec.name} and {other.spec.name}")
            return other.payload
        if isinstance(other, int):
            return self.spec.from_int(other)
        raise TypeError(f"cannot combine RingValue with {type(other).__name__}")

    def __add__(self, other):
        return RingValue(self.spec, self.spec.add(self.payload, self._coerce(other)))

    __radd__ = __add__

    def __neg__(self):
        return RingValue(self.spec, self.spec.neg(self.payload))

    def __sub__(self, other):
        return RingValue(self.spec, self.spec.sub(self.payload, self._coerce(other)))

    def __rsub__(self, other):
        return RingValue(self.spec, self.spec.sub(self._coerce(other), self.payload))

    def __mul__(self, other):
        return RingValue(self.spec, self.spec.mul(self.payload, self._coerce(other)))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return RingValue(self.spec, self.spec.pow(self.payload, n))

    def is_zero(self) -> bool:
        return self.spec.is_zero(self.payload)

    def __eq__(self, other):
        return (
            isinstance(other, RingValue)
            and self.spec == other.spec
            and self.payload == other.payload
        )

    def __hash__(self):
        p = self.payload
        if isinstance(p, MultiPoly):
            p = tuple(sorted(p.terms.items()))
        return hash((self.spec, p))

    def __repr__(self):
        return f"RingValue({self.spec.name}, {self.format()})"


def is_integral(x) -> bool:
    """Whether a scalar has integer content (all coefficients in Z)."""
    if isinstance(x, RingValue):
        x = x.payload
    if isinstance(x, int):
        return True
    if isinstance(x, Fraction):
        return x.denominator == 1
    if isinstance(x, (QPolynomial, MultiPoly)):
        return x.is_integral()
    raise TypeError(f"is_integral: unsupported {type(x).__name__}")


def is_numerical(p) -> bool:
    """Whether a univariate rational polynomial is integer-valued on Z."""
    if isinstance(p, RingValue):
        p = p.payload
    if isinstance(p, QPolynomial):
        return p.is_numerical()
    raise TypeError("is_numerical expects a QPolynomial")
