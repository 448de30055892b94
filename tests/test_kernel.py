"""The exact polynomial kernel against a naive Fraction schoolbook reference.

MultiPoly and QPolynomial store an integral coefficient as an int and keep
a Fraction only for a non-integral one; their products, sums and powers
must equal the reference on seeded random inputs, on each of the two
product routes: Kronecker substitution for dense operands and the
packed-exponent loop for every other product, small ones included.  The
one-pass row sums of the polynomial rings and of Q[q] must equal the
per-entry loop the scalar rings run, and a polynomial ring's exact
division by an integer constant the product with that constant's
inverse.  The shared power routine squares only while bits of the
exponent remain, and a power by Kronecker substitution, or by the chain
where its box is too sparse, equals that routine's.
"""
import itertools
import operator
import random
from fractions import Fraction

import pytest

from wittburnside import rings
from wittburnside.errors import DomainError, NonIntegralConstant
from wittburnside.rings import (
    POWER_BOUND,
    QQ,
    QQ_Q,
    MultiPoly,
    QPolynomial,
    RingSpec,
    cached_power,
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


def rand_dense(rng, nv, deg, big=False):
    """Most monomials with every exponent <= deg, each with a random coefficient."""
    terms = {}
    for e in itertools.product(range(deg + 1), repeat=nv):
        if rng.random() < 0.9:
            c = rand_coeff(rng) or 1
            if big:  # near 10^40, of either sign
                c = rng.choice((-1, 1)) * 10 ** 40 + c * rng.randint(1, 10 ** 6)
            terms[e] = Fraction(c)
    return ref_clean(terms)


@pytest.fixture
def kronecker_calls(monkeypatch):
    """Counts the products that take the dense path."""
    calls = []
    dense = MultiPoly._kronecker

    def counted(self, *args):
        calls.append(len(self.vars))
        return dense(self, *args)

    monkeypatch.setattr(MultiPoly, "_kronecker", counted)
    return calls


@pytest.fixture
def routed(monkeypatch):
    """routed(a, b) is (a * b, the route it took): "dense" or "packed".
    A product of two non-zero polynomials must run exactly one of them."""
    taken = []
    for name, route in (("_kronecker", "dense"), ("_packed", "packed")):
        def counted(self, *args, _method=getattr(MultiPoly, name), _route=route):
            taken.append(_route)
            return _method(self, *args)

        monkeypatch.setattr(MultiPoly, name, counted)

    def product(a, b):
        before = len(taken)
        got = a * b
        assert len(taken) == before + 1, "the product ran no route, or two"
        return got, taken[before]

    return product


@pytest.mark.parametrize("seed", range(24))
def test_dense_products_match_schoolbook_reference(seed, kronecker_calls):
    rng = random.Random(2000 + seed)
    nv = 1 + seed % 3
    deg = rng.randint(*((12, 24), (4, 10), (3, 4))[nv - 1])
    big = seed % 4 == 3
    vars = tuple("xyz"[:nv])
    a, b = rand_dense(rng, nv, deg, big), rand_dense(rng, nv, rng.randint(deg // 2, deg), big)
    pa, pb = mp(vars, a), mp(vars, b)
    check_mp(pa * pb, ref_mul(a, b))
    check_mp(pb * pa, ref_mul(a, b))
    n = 3 if nv == 1 else 2
    check_mp(pb ** n, ref_pow(b, n, nv))
    before = len(kronecker_calls)
    check_mp(pa * pa, ref_mul(a, a))
    assert len(kronecker_calls) == before + 1


@pytest.mark.parametrize("nv", (1, 2, 3))
def test_dense_products_that_cancel(nv, kronecker_calls):
    # a(x) * a(-x) is even: every slot of odd total degree cancels to zero
    rng = random.Random(3000 + nv)
    vars = tuple("xyz"[:nv])
    for scale in (1, Fraction(-1, 2), 10 ** 40, Fraction(3, 10 ** 40)):
        a = {e: c * scale for e, c in rand_dense(rng, nv, (16, 8, 3)[nv - 1]).items()}
        b = {e: -c if sum(e) % 2 else c for e, c in a.items()}
        got = mp(vars, a) * mp(vars, b)
        check_mp(got, ref_mul(a, b))
        assert got.terms and all(sum(e) % 2 == 0 for e in got.terms)
    assert kronecker_calls.count(nv) == 4


def test_sparse_products_allocate_no_box(monkeypatch):
    def refused(*args):
        raise AssertionError("a sparse product took the dense path")

    monkeypatch.setattr(MultiPoly, "_kronecker", refused)
    vars = ("x", "y")
    x, y = MultiPoly.variable(vars, "x"), MultiPoly.variable(vars, "y")
    one = MultiPoly.constant(vars, 1)
    got = (x ** 10 ** 9 + one) * (y - one)
    assert got.terms == {(10 ** 9, 1): 1, (10 ** 9, 0): -1, (0, 1): 1, (0, 0): -1}
    # many variables and few terms, as in a universal solve
    many = tuple(f"a_{i}" for i in range(12))
    p = MultiPoly(many, {tuple(3 * (i == j) for j in range(12)): 2 + i for i in range(12)})
    check_mp(p * p, ref_mul(p.terms, p.terms))


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


def rand_sparse(rng, nv, n, top):
    """n terms with distinct exponents in 0..top, at most 3 variables each."""
    terms = {}
    while len(terms) < n:
        e = [0] * nv
        for i in rng.sample(range(nv), min(nv, 3)):
            e[i] = rng.randint(0, top)
        terms[tuple(e)] = Fraction(rand_coeff(rng) or rng.choice((1, -1)))
    return terms


# (n_a, n_b): from 33 to 81 pairs, with one to 34 terms a side; every shape
# takes the packed loop
SPARSE_SHAPES = ((3, 11), (1, 33), (11, 3), (2, 17), (34, 1), (6, 6), (9, 9))


@pytest.mark.parametrize("nv", (1, 2, 3, 6, 17))
@pytest.mark.parametrize("shape", SPARSE_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_sparse_products_match_schoolbook_reference(nv, shape, routed):
    rng = random.Random(f"sparse:{nv}:{shape}")
    vars = tuple(f"v{i}" for i in range(nv))
    n_a, n_b = shape
    for trial in range(4):
        a, b = rand_sparse(rng, nv, n_a, 60), rand_sparse(rng, nv, n_b, 60)
        if trial == 1:  # integer coefficients only, negatives among them
            a = {e: Fraction(c.numerator) for e, c in a.items()}
            b = {e: -Fraction(c.numerator) for e, c in b.items()}
        if trial == 2:  # b(v) = a(-v) where the shapes agree: odd cross terms cancel
            b = {e: -c if sum(e) % 2 else c for e, c in a.items()} if n_a == n_b else b
        pa, pb = mp(vars, a), mp(vars, b)
        got, route = routed(pa, pb)
        check_mp(got, ref_mul(a, b))
        assert route == "packed"
        got, route = routed(pb, pa)
        check_mp(got, ref_mul(a, b))
        assert route == "packed"
    # a * a: 25 and 36 pairs, both packed
    for n in (5, 6):
        a = rand_sparse(rng, nv, n, 60)
        pa = mp(vars, a)
        got, route = routed(pa, pa)
        check_mp(got, ref_mul(a, a))
        assert route == "packed"


@pytest.mark.parametrize("nv", (1, 2, 3, 6, 17))
def test_sparse_products_that_cancel(nv, routed):
    # (u - v)(u + v) = u^2 - v^2 from 4 to 100 pairs; the cross terms
    # cancel to zero and must leave no stored zero behind
    rng = random.Random(f"cancel:{nv}")
    vars = tuple(f"v{i}" for i in range(nv))
    for n in (1, 2, 3, 5):
        items = list(rand_sparse(rng, nv, 2 * n, 60).items())
        u, v = dict(items[:n]), dict(items[n:])
        pu, pv = mp(vars, u), mp(vars, v)
        got, route = routed(pu - pv, pu + pv)
        check_mp(got, ref_add(ref_mul(u, u), {e: -c for e, c in ref_mul(v, v).items()}))
        assert route == "packed"
        x = mp(vars, {e: c * 10 ** 30 for e, c in u.items()})
        got, _ = routed(x, -x)
        check_mp(got, {e: -c for e, c in ref_mul(x.terms, x.terms).items()})


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


@pytest.mark.parametrize("name", ("ZPoly(x,y)", "QPoly(x,y)"))
def test_try_div_by_an_integer_constant_equals_the_inverse_scaling(name):
    # the quotient the solves and theta_inv read: equal, in value and stored
    # type, to the product with 1/d, and None over ZPoly exactly when that
    # product has a fractional coefficient
    R = parse_ring(name)
    rng = random.Random(f"try_div:{name}")
    polys = [R.zero(), R.one(), R.from_int(-12)]
    for _ in range(12):
        terms = rand_terms(rng, 2)
        if not R.is_qalgebra:
            terms = {e: Fraction(c.numerator) for e, c in terms.items()}
        polys.append(mp(R.vars, terms))
    for a in polys:
        for d in (1, -1, 2, -2, 3, -6, 7, 10 ** 30):
            got = R.try_div(a, R.from_int(d))
            want = a * Fraction(1, d)
            if not R.is_qalgebra and not want.is_integral():
                want = None
            assert got == want, (a, d)
            if got is not None:
                check_mp(got, want.terms)
        assert R.try_div(a, R.zero()) is None
    assert R.try_div(R.zero(), R.from_int(-5)).terms == {}
    x = R.variable("x")
    assert R.try_div(x, x) is None  # only constant divisors are supported


def refused():
    return NonIntegralConstant("refused")


def outcome(fn, *args):
    try:
        return fn(*args)
    except NonIntegralConstant as exc:
        return str(exc)


@pytest.mark.parametrize("name", ("ZPoly(x,y)", "QPoly(x,y)"))
def test_polynomial_row_sum_matches_the_per_entry_loop(name):
    # PolyRing.row_sum against the RingSpec default that the scalar rings run
    R = parse_ring(name)
    rng = random.Random(f"row_sum:{name}")
    for _ in range(60):
        xs = []
        for _ in range(4):
            terms = rand_terms(rng, 2) if rng.random() < 0.8 else {}
            if not R.is_qalgebra:
                terms = {e: Fraction(c.numerator) for e, c in terms.items()}
            xs.append(mp(R.vars, terms))
        entries = [(rng.randrange(4), rng.choice((1, -2, 3, Fraction(1, 2), Fraction(-3, 4))),
                    rng.randint(1, 3), rng.choice((0, 0, 1, 2)))
                   for _ in range(rng.randint(0, 5))]
        q = rng.choice((2, -3, R.variable("y")))
        acc = xs[rng.randrange(4)]
        sign = rng.choice((1, -1))
        divisor = rng.choice((1, 1, 2, -3, 6))
        got = outcome(R.row_sum, acc, sign, entries, xs, {}, q, refused, divisor)
        want = outcome(RingSpec.row_sum, R, acc, sign, entries, xs, {}, q, refused, divisor)
        assert got == want, (entries, q, sign, divisor)
        if isinstance(got, MultiPoly):
            check_mp(got, want.terms)


def never_refused():
    raise AssertionError("Q[q] is a Q-algebra and refuses no weight")


def test_qpoly_row_sum_matches_the_per_entry_loop():
    # QPolyRing.row_sum against the RingSpec default: q an int, a constant
    # payload, the indeterminate or another payload; int and Fraction
    # weights; both signs; divisors that leave integer coefficients and ones
    # that do not
    rng = random.Random("row_sum:Q[q]")
    qs = (2, -3, 0, QPolynomial.constant(5), QPolynomial.constant(Fraction(-1, 2)),
          QPolynomial(), QPolynomial.variable(), QPolynomial((1, 1)), QPolynomial((0, 2)))
    integral = 0
    for t in range(270):
        q = qs[t % len(qs)]
        divides = t % 3 == 0  # integer data scaled by the divisor
        divisor = rng.choice((1, 2, -3, 6))
        scale = divisor if divides else 1
        xs = []
        for _ in range(4):
            cs = rand_coeffs(rng) if rng.random() < 0.85 else []
            xs.append(QPolynomial([Fraction(c).numerator for c in cs] if divides else cs))
        weights = (1, -2, 3) if divides else (1, -2, 3, Fraction(1, 2), Fraction(-3, 4))
        entries = [(rng.randrange(4), rng.choice(weights) * scale, rng.randint(1, 3),
                    rng.choice((0, 0, 1, 2, 3)))
                   for _ in range(rng.randint(0, 5))]
        acc = xs[rng.randrange(4)] * scale
        sign = rng.choice((1, -1))
        got = QQ_Q.row_sum(acc, sign, entries, xs, {}, q, never_refused, divisor)
        want = RingSpec.row_sum(QQ_Q, acc, sign, entries, xs, {}, q, never_refused, divisor)
        assert got == want, (entries, q, sign, divisor)
        assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]
        assert all(stored(c) for c in got.coeffs)
        if divides and (type(q) is int or q.is_integral()):
            assert got.is_integral()
            integral += divisor != 1
    assert integral > 20


# -- the power routine ----------------------------------------------------------------


class CountingRing(RingSpec):
    """Payloads are exponents of one base; counts squarings and other products."""

    name = "counting"

    def __init__(self):
        self.squarings = self.products = 0

    def one(self):
        return 0

    def mul(self, a, b):
        # a == b only for a squaring; every other product must be by the
        # base itself (1), so a sparse power's partial powers are only squared
        if a == b:
            self.squarings += 1
        else:
            assert b == 1, "a product of two partial powers"
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
    for p in (MultiPoly.variable(("x",), "x"), QPolynomial.variable()):
        with pytest.raises(ValueError):
            p ** -1
    p = QPolynomial([Fraction(1, 2), -3])
    assert QPolynomial() ** 0 == p ** 0 == QPolynomial.constant(1)
    assert p ** 1 == p
    assert QPolynomial() ** 1 == QPolynomial() ** 5 == QPolynomial()
    assert power(lambda a, b: a * b, 3, 5, 1) == 243


# -- squares and the word-at-a-time read-back ------------------------------------


def same_terms(p, q):
    """p and q hold the same terms in the same order, with the same stored types."""
    assert list(p.terms.items()) == list(q.terms.items())
    assert [type(c) for c in p.terms.values()] == [type(c) for c in q.terms.values()]


def same_values(p, q):
    """p and q hold the same terms, with the same stored types, in any order."""
    assert p.terms == q.terms
    assert {e: type(c) for e, c in p.terms.items()} == {e: type(c) for e, c in q.terms.items()}


@pytest.mark.parametrize("nv", (1, 2, 3))
@pytest.mark.parametrize("case", ("tuples", "packed", "dense"))
def test_a_square_matches_the_product_with_an_equal_copy(nv, case, routed):
    # p * p visits each unordered pair of terms once; it must give the terms
    # of p * copy(p), which visits every pair, in the same order.  "tuples"
    # names sparse operands of 5 terms (25 pairs), below the size where a
    # loop over exponent tuples once took over; they too take the packed loop
    rng = random.Random(f"square:{nv}:{case}")
    vars = tuple("xyz"[:nv])
    route = "dense" if case == "dense" else "packed"
    size = {"dense": (12, 5, 3)[nv - 1], "packed": 9, "tuples": 5}[case]
    for trial in range(4):
        if case == "dense":  # trial 3 has digits wider than 8 bytes
            a = rand_dense(rng, nv, size, big=trial == 3)
        else:
            a = rand_sparse(rng, nv, size, 60)
        if trial == 1:  # integer coefficients only
            a = {e: Fraction(c.numerator) for e, c in a.items()}
        pa = mp(vars, a)
        got, taken = routed(pa, pa)
        assert taken == route
        check_mp(got, ref_mul(a, a))
        want, taken = routed(pa, MultiPoly(vars, pa.terms))
        assert taken == route
        same_terms(got, want)
        # a power by Kronecker substitution fills its terms in slot order
        same_values(pa ** 2, want)


def test_a_qpolynomial_square_matches_the_product_with_an_equal_copy():
    rng = random.Random("qsquare")
    for _ in range(40):
        a = rand_coeffs(rng)
        pa = QPolynomial(a)
        got, want = pa * pa, pa * QPolynomial(a)
        check_qp(got, ref_qmul(a, a))
        assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]


# (digit bytes, m, X, Y): m * X * Y is the largest coefficient that digit
# holds, 2^(8n-1) - 1, except at 4 bytes, where 2^31 - 1 is prime and no
# product of operands of two terms or more reaches it, so it is 2^31 - 2
WORD_EXTREMES = (
    (1, 127, 1, 1),
    (2, 7, 31, 151),
    (4, 9, 4774, 49981),
    (8, 7, 21870289, 60247241209),
)


@pytest.mark.parametrize("n, m, X, Y", WORD_EXTREMES, ids=lambda v: str(v))
def test_kronecker_read_back_at_each_digit_width(n, m, X, Y, kronecker_calls):
    # a = X (1 + x + ... + x^(m-1)) and b = Y (sum_{j<L} x^j (1 - y^2) + y - xy):
    # the slots x^k y^0 for m-1 <= k < L reach +m X Y, the slots x^k y^2
    # reach -m X Y, and the slots x^k y for 1 <= k < m cancel to zero.
    # The coefficient bound min(n_a, n_b) max|x| max|y| is m X Y, whose
    # bit length picks a digit of n bytes.
    top = m * X * Y
    assert top.bit_length() == 8 * n - 1
    L = m + 1
    vars = ("x", "y")
    a = {(i, 0): Fraction(X) for i in range(m)}
    b = {(j, t): Fraction(s * Y) for j in range(L) for t, s in ((0, 1), (2, -1))}
    b.update({(0, 1): Fraction(Y), (1, 1): Fraction(-Y)})
    for scale_a, scale_b in ((1, 1), (1, -1), (Fraction(1, 3), Fraction(1, 5))):
        sa = {e: c * scale_a for e, c in a.items()}
        sb = {e: c * scale_b for e, c in b.items()}
        pa, pb = mp(vars, sa), mp(vars, sb)
        got = pa * pb
        want = ref_mul(sa, sb)
        check_mp(got, want)
        scale = scale_a * scale_b
        assert got.terms[m - 1, 0] == top * scale and got.terms[m - 1, 2] == -top * scale
        assert not any((k, 1) in got.terms for k in range(1, m))
        assert (0, 1) in got.terms and (m, 1) in got.terms
        same_terms(pb * pa, got)  # both in slot order
    assert kronecker_calls == [2] * 6


@pytest.mark.parametrize("nv", (1, 2, 3))
def test_a_dense_qpoly_product_with_a_denominator(nv, kronecker_calls, kronecker_powers):
    # each product coefficient is an integer over the operands' common
    # denominators, stored as an int where the denominator divides it
    rng = random.Random(f"ratio:{nv}")
    vars = tuple("xyz"[:nv])
    deg = (12, 4, 2)[nv - 1]
    for _ in range(3):
        a, b = rand_dense(rng, nv, deg), rand_dense(rng, nv, deg)
        got = mp(vars, a) * mp(vars, b)
        check_mp(got, ref_mul(a, b))
        assert {type(c) for c in got.terms.values()} == {int, Fraction}
        pa = mp(vars, a)
        check_mp(pa * pa, ref_mul(a, a))  # a square on the dense product route
        check_mp(pa ** 2, ref_mul(a, a))  # and as a power
    assert kronecker_calls == [nv] * 6
    assert kronecker_powers[0] == ["MultiPoly"] * 3


# -- powers by Kronecker substitution ---------------------------------------------


@pytest.fixture
def kronecker_powers(monkeypatch):
    """Counts the powers MultiPoly._power and QPolynomial._power form
    themselves, by payload type, and the digit widths they pack."""
    calls, widths = [], []
    for cls in (MultiPoly, QPolynomial):
        def counted(self, e, _method=cls._power, _name=cls.__name__):
            p = _method(self, e)
            if p is not None:
                calls.append(_name)
            return p

        monkeypatch.setattr(cls, "_power", counted)
    digit_bytes = rings._digit_bytes

    def recorded(bound):
        widths.append(digit_bytes(bound))
        return widths[-1]

    monkeypatch.setattr(rings, "_digit_bytes", recorded)
    return calls, widths


def chain_power(p, e):
    """p ** e as the square-and-multiply chain of products forms it."""
    one = QPolynomial.constant(1) if type(p) is QPolynomial else MultiPoly.constant(p.vars, 1)
    return power(operator.mul, p, e, one)


def check_power(p, e, R):
    """p ** e and cached_power equal the chain, coefficient types and all."""
    want = chain_power(p, e)
    got = [p ** e] + ([cached_power(R, [p], 0, e, {})] if e else [])
    for g in got:
        assert g == want, (p, e)
        if type(p) is QPolynomial:
            assert [type(c) for c in g.coeffs] == [type(c) for c in want.coeffs]
        else:
            same_values(g, want)
            assert all(stored(c) for c in g.terms.values())


def rand_power_coeff(rng, kind):
    """A non-zero int, negative-or-positive int, or Fraction coefficient."""
    if kind == "int":
        return rng.randint(1, 9)
    if kind == "negative":
        return rng.randint(-9, 9) or -1
    return Fraction(rng.randint(-9, 9) or 1, rng.randint(2, 6))


def rand_power_base(rng, nv, kind):
    """A small polynomial's terms: 2 to 4 monomials of degree at most 2 in
    each variable."""
    return {tuple(rng.randint(0, 2) for _ in range(nv)): rand_power_coeff(rng, kind)
            for _ in range(rng.randint(2, 4))}


@pytest.mark.parametrize("nv", (1, 2, 3))
@pytest.mark.parametrize("kind", ("int", "negative", "fraction"))
def test_a_power_equals_the_chain(nv, kind, kronecker_powers):
    rng = random.Random(f"power:{nv}:{kind}")
    vars = tuple("xyz"[:nv])
    R = parse_ring(f"QPoly({','.join(vars)})")
    x = (1,) + (0,) * (nv - 1)
    shapes = {"zero": {}, "constant": {(0,) * nv: 3 if kind == "int" else Fraction(-2, 3)},
              "monomial": {x: -2 if kind == "negative" else 1}}
    for e in range(25):
        shapes["random"] = rand_power_base(rng, nv, kind)
        # every monomial of degree at most 1 in each variable, while the
        # chain that checks it stays cheap
        shapes["dense"] = {} if e > 24 // nv else {
            m: rand_power_coeff(rng, kind) for m in itertools.product((0, 1), repeat=nv)}
        for terms in shapes.values():
            p = MultiPoly(vars, terms)
            check_power(p, e, R)
            if nv == 1:  # the same coefficients as a polynomial in q
                q = QPolynomial([terms.get((i,), 0) for i in range(3)])
                check_power(q, e, QQ_Q)
    calls = kronecker_powers[0]
    assert calls.count("MultiPoly") >= 10
    assert calls.count("QPolynomial") >= (100 if nv == 1 else 0)


# (digit bytes, a, e): the coefficients of (a + x)^e are packed in digits of
# the width that the bound (|a| + 1)^e picks; at 2, 4 and 8 bytes a^e, the
# constant term, uses the digit's top bit below its sign
POWER_WIDTHS = ((1, 2, 4), (2, 12, 4), (4, 214, 4), (8, 55107, 4), (26, 10 ** 10, 6))


@pytest.mark.parametrize("n, a, e", POWER_WIDTHS, ids=lambda v: str(v))
def test_a_power_reads_back_at_each_digit_width(n, a, e, kronecker_powers):
    calls, widths = kronecker_powers
    assert n == 1 or 8 * n - 1 >= (a ** e).bit_length() >= min(8 * n - 1, 63)
    R = parse_ring("QPoly(x)")
    for b, c in ((a, 1), (-a, 1), (Fraction(a, 3), Fraction(1, 3))):
        p = MultiPoly(("x",), {(0,): b, (1,): c})
        check_power(p, e, R)
        assert p ** e == MultiPoly(("x",), ref_pow(p.terms, e, 1))
        check_power(QPolynomial([b, c]), e, QQ_Q)
    assert calls == ["MultiPoly"] * 3 + ["QPolynomial"] * 2 + ["MultiPoly"] * 3 + [
        "QPolynomial"] * 2 + ["MultiPoly"] * 3 + ["QPolynomial"] * 2
    assert set(widths) == {n}


def test_a_sparse_power_in_many_variables_takes_the_chain(kronecker_powers):
    # x1 + ... + x6 to the 4th: a box of 5^6 slots for 126 terms
    vars = tuple(f"x{i}" for i in range(1, 7))
    p = MultiPoly(vars, {tuple(int(i == j) for j in range(6)): 1 for i in range(6)})
    assert p._power(4) is None
    check_power(p, 4, parse_ring(f"ZPoly({','.join(vars)})"))
    assert len((p ** 4).terms) == 126
    assert kronecker_powers[0] == []


def test_an_exponent_above_the_power_bound_is_refused_before_any_power(monkeypatch):
    def formed(*args):
        raise AssertionError("a power was formed")

    for cls in (MultiPoly, QPolynomial):
        monkeypatch.setattr(cls, "_power", formed)
    monkeypatch.setattr(rings, "power", formed)
    R = parse_ring("ZPoly(x,y)")
    xy = MultiPoly(("x", "y"), {(1, 0): 1, (0, 1): 1})
    for ring, x in ((R, xy), (QQ_Q, QPolynomial([1, 1])), (QQ, Fraction(3, 2))):
        with pytest.raises(DomainError, match="power bound"):
            cached_power(ring, [x], 0, POWER_BOUND + 1, {})
