"""The exact polynomial kernel against a naive Fraction schoolbook reference.

MultiPoly and QPolynomial store an integral coefficient as an int and keep
a Fraction only for a non-integral one; their products, sums and powers
must equal the reference on seeded random inputs.  The shared power
routine squares only while bits of the exponent remain.
"""
import random
from fractions import Fraction

import pytest

from wittburnside.rings import (
    QQ,
    MultiPoly,
    QPolynomial,
    RingSpec,
    parse_ring,
    power,
)


def stored(c):
    """A coefficient in stored form: an int, or a non-integral Fraction."""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def rand_coeff(rng):
    if rng.random() < 0.5:
        return rng.randint(-9, 9)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


# -- reference: dicts and lists of Fractions, schoolbook ----------------------


def ref_clean(d):
    return {e: c for e, c in d.items() if c != 0}


def ref_add(a, b):
    out = {e: Fraction(c) for e, c in a.items()}
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return ref_clean(out)


def ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + Fraction(c1) * Fraction(c2)
    return ref_clean(out)


def ref_pow(a, n, nv):
    out = {(0,) * nv: Fraction(1)}
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def ref_qmul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += Fraction(x) * Fraction(y)
    while out and out[-1] == 0:
        out.pop()
    return out


def ref_qadd(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] += y
    while out and out[-1] == 0:
        out.pop()
    return out


# -- MultiPoly ----------------------------------------------------------------


def rand_terms(rng, nv):
    terms = {}
    top = rng.choice((2, 4, 40))  # 40 needs wider packed exponent fields
    for _ in range(rng.randint(0, 7)):
        e = tuple(rng.randint(0, top) for _ in range(nv))
        terms[e] = terms.get(e, Fraction(0)) + rand_coeff(rng)
    return ref_clean(terms)


def mp(vars, terms):
    p = MultiPoly(vars, terms)
    assert all(stored(c) for c in p.terms.values())
    return p


def check_mp(p, want):
    assert p.terms == want
    assert all(stored(c) for c in p.terms.values()), p.terms


@pytest.mark.parametrize("seed", range(40))
def test_multipoly_matches_schoolbook_reference(seed):
    rng = random.Random(seed)
    nv = rng.randint(1, 4)
    vars = tuple("xyzw"[:nv])
    a, b = rand_terms(rng, nv), rand_terms(rng, nv)
    pa, pb = mp(vars, a), mp(vars, b)
    check_mp(pa * pb, ref_mul(a, b))
    check_mp(pa + pb, ref_add(a, b))
    check_mp(pa - pb, ref_add(a, {e: -c for e, c in b.items()}))
    n = rng.randint(0, 5)
    check_mp(pa ** n, ref_pow(a, n, nv))
    k = rand_coeff(rng)
    check_mp(pa * k, ref_clean({e: c * k for e, c in a.items()}))
    check_mp(k * pa, ref_clean({e: c * k for e, c in a.items()}))


@pytest.mark.parametrize("nv", range(1, 5))
def test_multipoly_cancellation_and_zero(nv):
    rng = random.Random(100 + nv)
    vars = tuple("xyzw"[:nv])
    a = rand_terms(rng, nv) or {(1,) * nv: Fraction(3, 2)}
    pa = mp(vars, a)
    zero = MultiPoly.zero(vars)
    check_mp(pa - pa, {})
    check_mp(pa * zero, {})
    check_mp(zero * pa, {})
    check_mp(pa + zero, a)
    check_mp(zero ** 3, {})
    check_mp(zero ** 0, {(0,) * nv: 1})
    # (u - v)(u + v) = u^2 - v^2: the cross terms cancel to zero
    u = mp(vars, {(1,) + (0,) * (nv - 1): Fraction(1, 2)})
    v = mp(vars, {(0,) * (nv - 1) + (2,): Fraction(3, 4)})
    check_mp((u - v) * (u + v), ref_add(ref_mul(u.terms, u.terms),
                                        {e: -c for e, c in ref_mul(v.terms, v.terms).items()}))
    # halves that sum to integers are stored as ints again
    h = mp(vars, {(0,) * nv: Fraction(1, 2)})
    check_mp(h + h, {(0,) * nv: 1})
    check_mp(h * 2, {(0,) * nv: 1})
    check_mp(h * h * 4, {(0,) * nv: 1})


def test_multipoly_input_coefficients_are_stored_int_first():
    p = MultiPoly(("x",), {(1,): Fraction(4, 2), (2,): Fraction(1, 3), (3,): True, (4,): 0})
    assert p.terms == {(1,): 2, (2,): Fraction(1, 3), (3,): 1}
    assert [type(c) for c in p.terms.values()] == [int, Fraction, int]
    with pytest.raises(TypeError):
        MultiPoly(("x",), {(1,): 0.5})
    assert p.substitute_scalar("x", Fraction(3)).terms == {(): 2 * 3 + 3 + 27}


# -- QPolynomial ----------------------------------------------------------------


def rand_coeffs(rng):
    cs = [rand_coeff(rng) if rng.random() < 0.7 else 0 for _ in range(rng.randint(0, 7))]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def check_qp(p, want):
    assert list(p.coeffs) == want
    assert all(stored(c) for c in p.coeffs), p.coeffs


@pytest.mark.parametrize("seed", range(40))
def test_qpolynomial_matches_schoolbook_reference(seed):
    rng = random.Random(1000 + seed)
    a, b = rand_coeffs(rng), rand_coeffs(rng)
    pa, pb = QPolynomial(a), QPolynomial(b)
    check_qp(pa * pb, ref_qmul(a, b))
    check_qp(pa + pb, ref_qadd(a, b))
    check_qp(pa - pb, ref_qadd(a, [-c for c in b]))
    check_qp(pa - pa, [])
    n = rng.randint(0, 5)
    want = [Fraction(1)]
    for _ in range(n):
        want = ref_qmul(want, a)
    check_qp(pa ** n, want)
    if pb.degree >= 0:
        check_qp((pa * pb).divexact(pb), [Fraction(c) for c in a])
    assert pa(3) == sum(Fraction(c) * 3 ** i for i, c in enumerate(a))


def test_qpolynomial_stores_int_first():
    half = QPolynomial([Fraction(1, 2), Fraction(2, 2)])
    assert [type(c) for c in half.coeffs] == [Fraction, int]
    check_qp(half + half, [1, 2])
    check_qp(half * 2, [1, 2])
    check_qp(QPolynomial.monomial(Fraction(3, 3), 2), [0, 0, 1])
    check_qp(QPolynomial([3, 0, 6]).divexact(QPolynomial([2])), [Fraction(3, 2), 0, 3])


# -- exact division ----------------------------------------------------------------


def test_try_div_is_exact():
    for name, want in (("ZPoly(x)", None), ("QPoly(x)", {(1,): Fraction(3, 2)})):
        R = parse_ring(name)
        x = R.variable("x")
        got = R.try_div(R.mul(R.from_int(6), x), R.from_int(4))
        assert (got if got is None else got.terms) == want
        assert got is None or all(stored(c) for c in got.terms.values())
    Z = parse_ring("ZPoly(x)")
    got = Z.try_div(Z.mul(Z.from_int(6), Z.variable("x")), Z.from_int(3))
    assert got.terms == {(1,): 2} and type(got.terms[(1,)]) is int
    assert QQ.try_div(6, 4) == Fraction(3, 2) and type(QQ.try_div(6, 4)) is Fraction


# -- the power routine ----------------------------------------------------------------


class CountingRing(RingSpec):
    """Payloads are exponents of one base; counts squarings and other products."""

    name = "counting"

    def __init__(self):
        self.squarings = self.products = 0

    def one(self):
        return 0

    def mul(self, a, b):
        # the accumulated low bits stay below the current square, so a == b
        # only for a squaring
        if a == b:
            self.squarings += 1
        else:
            self.products += 1
        return a + b


@pytest.mark.parametrize("n", list(range(1, 70)) + [255, 256, 1000, 12345])
def test_power_does_no_wasted_squaring(n):
    R = CountingRing()
    assert R.pow(1, n) == n
    assert R.squarings == n.bit_length() - 1
    assert R.products == bin(n).count("1") - 1


def test_power_edge_cases():
    R = CountingRing()
    assert R.pow(1, 0) == 0 and R.squarings == R.products == 0
    with pytest.raises(ValueError):
        R.pow(1, -1)
    with pytest.raises(ValueError):
        MultiPoly.variable(("x",), "x") ** -1
    assert power(lambda a, b: a * b, 3, 5, 1) == 243
