"""Scalar layer: divisor/mobius oracles and polynomial algebra."""
import random
import sys
import time
from fractions import Fraction

import pytest

from wittburnside.errors import DomainError, NonExactDivision, SchemaError
from wittburnside.rings import (
    DIGIT_BOUND,
    Q_DEGREE_BOUND,
    MultiPoly,
    QPolynomial,
    RingValue,
    ZZ,
    QQ,
    QQ_Q,
    divisors,
    is_integral,
    is_numerical,
    mobius,
    parse_ring,
)


def brute_divisors(n):
    return tuple(d for d in range(1, n + 1) if n % d == 0)


def brute_mobius(n):
    # independent oracle: count prime factors, detect squares, by sieve
    if n == 1:
        return 1
    count = 0
    m = n
    for p in range(2, n + 1):
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            count += 1
    return (-1) ** count


def test_divisors_against_brute_force():
    for n in range(1, 200):
        assert divisors(n) == brute_divisors(n)


def test_mobius_against_brute_force():
    for n in range(1, 200):
        assert mobius(n) == brute_mobius(n)
    # frozen spot values
    assert [mobius(n) for n in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


def test_mobius_divisor_sum_is_delta():
    for n in range(1, 100):
        assert sum(mobius(d) for d in divisors(n)) == (1 if n == 1 else 0)


# -- QPolynomial -------------------------------------------------------------


def test_qpolynomial_basic_algebra():
    q = QPolynomial.variable()
    p = (q + QPolynomial.constant(1)) * (q - QPolynomial.constant(1))
    assert p == q * q - QPolynomial.constant(1)
    assert p(3) == 8
    assert (q ** 5).degree == 5
    assert QPolynomial().is_zero()
    assert (p - p).is_zero()


def test_qpolynomial_divexact():
    q = QPolynomial.variable()
    num = q ** 3 - q  # q(q-1)(q+1)
    assert num.divexact(q) == q * q - QPolynomial.constant(1)
    with pytest.raises(NonExactDivision):
        (q + QPolynomial.constant(1)).divexact(q)


def test_numericality_binomial_polynomial():
    # q(q-1)/2 is integer valued but has fractional coefficients
    q = QPolynomial.variable()
    p = (q * q - q) * Fraction(1, 2)
    assert not p.is_integral()
    assert p.is_numerical()
    # brute-force oracle on a wide window
    assert all(p(k).denominator == 1 for k in range(-50, 51))
    assert not (p + QPolynomial.constant(Fraction(1, 2))).is_numerical()
    assert is_numerical(p)
    # integer coefficients: numerical at once, whatever the degree
    integral = QPolynomial([3, -1] + [0] * 500 + [7])
    assert integral.is_integral() and integral.is_numerical()
    assert all(integral(k).denominator == 1 for k in range(-5, 6))


def numerical_by_fraction(p):
    """The former definition, kept as the reference: a Fraction value at each
    of the degree+2 points 0, 1, ..., degree+1."""
    if all(Fraction(c).denominator == 1 for c in p.coeffs):
        return True
    return all(sum(Fraction(c) * k ** i for i, c in enumerate(p.coeffs)).denominator == 1
               for k in range(p.degree + 2))


def test_numericality_agrees_with_evaluation_by_fraction():
    # integer combinations of the binomial polynomials C(q, i) are numerical;
    # a small rational perturbation mostly is not, and a fraction of C(q, i)
    # is an integer at 0, ..., i - 1 and not at i
    rng = random.Random(26)
    q = QPolynomial.variable()
    binomials = [QPolynomial.constant(1)]
    for i in range(1, 12):
        binomials.append(binomials[-1] * (q - QPolynomial.constant(i - 1)) * Fraction(1, i))
    seen = set()
    for _ in range(400):
        p = QPolynomial()
        for b in rng.sample(binomials, rng.randint(1, 5)):
            p = p + b * rng.randint(-9, 9)
        r = rng.random()
        if r < 0.3:
            p = p + QPolynomial.monomial(Fraction(rng.randint(-5, 5), rng.choice((2, 3, 4, 6, 12))),
                                         rng.randint(0, 11))
        elif r < 0.6:
            p = p + rng.choice(binomials) * Fraction(rng.randint(1, 5), rng.choice((2, 3, 5)))
        want = numerical_by_fraction(p)
        assert p.is_numerical() == want, p
        seen.add((p.is_integral(), want))
    assert seen == {(True, True), (False, True), (False, False)}


# -- MultiPoly ---------------------------------------------------------------


def test_multipoly_algebra_and_eval():
    vars = ("x", "y")
    x = MultiPoly.variable(vars, "x")
    y = MultiPoly.variable(vars, "y")
    p = (x + y) ** 2
    assert p == x * x + 2 * (x * y) + y * y
    assert p.is_integral()
    assert (p * Fraction(1, 2)).is_integral() is False
    q = p.substitute_scalar("y", 3)
    # (x+3)^2 in the remaining variable
    xx = MultiPoly.variable(("x",), "x")
    assert q == xx * xx + 6 * xx + MultiPoly.constant(("x",), 9)


def test_multipoly_format_parse_round_trip():
    spec = parse_ring("ZPoly(x,y)")
    v = RingValue.parse(spec, "3*x^2*y^1+-1*y^3+7")
    assert v.format() == "3*x^2*y^1+-1*y^3+7"
    w = RingValue.parse(spec, v.format())
    assert v == w


@pytest.mark.parametrize("ring,text,plus_form", [
    ("ZPoly(x,y)", "-x", "-1*x"),
    ("ZPoly(x,y)", "x-1", "x+-1"),
    ("ZPoly(x,y)", "-x^2", "-1*x^2"),
    ("ZPoly(x,y)", "x - y*x", "x+-1*y*x"),
    ("Q[q]", "-q^2", "-1*q^2"),
    ("Q[q]", "q^3-2", "q^3+-2"),
    ("Q[q]", "2*q-1", "2*q+-1"),
    ("Q[q]", "q-1e-2", "q+-1/100"),  # the exponent's '-' is no term
    ("Q[q]", "1e2-q", "100+-1*q"),
    ("ZPoly(a1e)", "a1e-1", "a1e+-1"),  # a variable, not a number's exponent
])
def test_minus_signs_in_polynomial_text(ring, text, plus_form):
    spec = parse_ring(ring)
    assert RingValue.parse(spec, text) == RingValue.parse(spec, plus_form)


def test_polynomial_text_signs_keep_their_values():
    xy, q = parse_ring("ZPoly(x,y)"), QQ_Q
    x = MultiPoly.variable(("x", "y"), "x")
    assert xy.parse_value("x+-1") == x - MultiPoly.constant(("x", "y"), 1)
    assert xy.parse_value("x*-1") == -x
    assert q.parse_value("-1/2*q") == QPolynomial([0, Fraction(-1, 2)])
    assert q.parse_value("q^3+-2") == QPolynomial([-2, 0, 0, 1])
    for bad in ("x+--1", "x-", "-", "x--1", "-*x"):
        with pytest.raises(SchemaError):
            xy.parse_value(bad)


# -- ring specs ---------------------------------------------------------------


def test_parse_ring_grammar():
    assert parse_ring("Z") is ZZ
    assert parse_ring("Q") is QQ
    assert parse_ring("Q[q]") is QQ_Q
    assert parse_ring("Z/8").modulus == 8
    assert parse_ring("QPoly(u,v)").is_qalgebra
    assert not parse_ring("ZPoly(u,v)").is_qalgebra
    for bad in ("Z/1", "F7", "QPoly()", "Z/"):
        with pytest.raises(SchemaError):
            parse_ring(bad)


def test_residue_arithmetic_and_division():
    R = parse_ring("Z/8")
    assert R.from_int(-1) == 7
    assert R.add(5, 6) == 3
    assert R.try_div(R.from_int(6), 3) == R.from_int(2)  # 3 is a unit mod 8
    assert R.try_div(R.from_int(4), 2) is None  # 2x=4 has two solutions mod 8
    assert R.from_fraction(Fraction(1, 3)) == 3  # 3*3=9=1 mod 8
    with pytest.raises(NonExactDivision):
        R.from_fraction(Fraction(1, 2))


def test_integer_try_div():
    assert ZZ.try_div(6, 3) == 2
    assert ZZ.try_div(7, 3) is None
    assert ZZ.try_div(0, 5) == 0
    assert ZZ.try_div(3, 0) is None


def test_value_parse_format_round_trip():
    rng = random.Random(11)
    for spec_text in ("Z", "Q", "Z/12", "Q[q]", "ZPoly(x,y)"):
        spec = parse_ring(spec_text)
        for _ in range(30):
            v = _random_value(spec, rng)
            assert RingValue.parse(spec, v.format()) == v


def _random_value(spec, rng):
    if spec is ZZ:
        return RingValue.from_int(spec, rng.randint(-40, 40))
    if spec is QQ:
        return RingValue(spec, Fraction(rng.randint(-30, 30), rng.randint(1, 12)))
    if spec.name.startswith("Z/"):
        return RingValue.from_int(spec, rng.randrange(spec.modulus))
    if spec is QQ_Q:
        return RingValue(
            spec,
            QPolynomial([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)]),
        )
    terms = {}
    for _ in range(rng.randint(0, 3)):
        terms[(rng.randint(0, 3), rng.randint(0, 3))] = Fraction(rng.randint(-9, 9))
    return RingValue(spec, MultiPoly(spec.vars, terms))


@pytest.fixture(params=[None, 0], ids=["default-limit", "no-limit"])
def int_str_limit(request):
    """Run under CPython's default int/str digit limit, and with none at all:
    the library's own bound must decide either way."""
    if request.param is None:
        yield
        return
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int/str digit limit")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(request.param)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


LONG = "1" * (DIGIT_BOUND + 1)


@pytest.mark.parametrize("ring,text", [
    ("Q", "1e5000"),
    ("Q", "-1E-5000"),
    ("Q", "1e9999999"),
    ("Q", "225E65893\u06636"),  # an Arabic-Indic digit three in the exponent
    ("Q", LONG),
    ("Z", LONG),
    ("Z/7", LONG),
    ("Q[q]", "1e5000*q"),
    ("QPoly(x)", "x+1e-9999999"),
    ("ZPoly(x)", "x^" + LONG),
], ids=["Q-1e5000", "Q-1E-5000", "Q-1e9999999", "Q-arabic-indic-exponent", "Q-long", "Z-long",
        "Z/7-long", "Q[q]-1e5000", "QPoly-1e-9999999", "ZPoly-long-exponent"])
def test_number_text_beyond_the_digit_bound_is_refused_at_once(int_str_limit, ring, text):
    start = time.perf_counter()
    with pytest.raises(SchemaError, match=f"exceeds the digit bound {DIGIT_BOUND}"):
        RingValue.parse(parse_ring(ring), text)
    assert time.perf_counter() - start < 0.5


def test_numbers_beyond_the_digit_bound_have_no_text_form(int_str_limit):
    big = 10 ** DIGIT_BOUND  # the least number of DIGIT_BOUND + 1 digits
    x = ("x",)
    for spec, payload in ((ZZ, big), (ZZ, -big), (QQ, Fraction(1, big)), (QQ, Fraction(-big, 7)),
                          (QQ_Q, QPolynomial([0, big])),
                          (parse_ring("ZPoly(x)"), MultiPoly.constant(x, big)),
                          (parse_ring("ZPoly(x)"), MultiPoly(x, {(big,): 1}))):
        with pytest.raises(DomainError, match=f"more than {DIGIT_BOUND} digits"):
            spec.format_value(payload)
    assert ZZ.format_value(1 - big) == "-" + "9" * DIGIT_BOUND
    assert RingValue.parse(QQ, "1e4000").format() == "1" + "0" * 4000
    assert RingValue.parse(ZZ, "9" * DIGIT_BOUND).payload == big - 1
    with pytest.raises(SchemaError, match="digit bound"):
        parse_ring("Z/" + "7" * (DIGIT_BOUND + 1))


def test_q_degree_is_bounded_before_the_dense_list():
    assert QQ_Q.parse_value("q^3-1").coeffs == (-1, 0, 0, 1)
    for text in (f"q^{Q_DEGREE_BOUND + 1}", "1+q^99999999999"):
        with pytest.raises(SchemaError, match=f"exceeds the bound {Q_DEGREE_BOUND}$"):
            QQ_Q.parse_value(text)


def test_ringvalue_guards_mixed_rings():
    a = RingValue.from_int(ZZ, 3)
    b = RingValue.from_int(parse_ring("Z/8"), 3)
    with pytest.raises(ValueError):
        a + b
    assert is_integral(a)
