"""Tests for truncated cyclic Witt/necklace/aperiodic vectors.

Classical oracles (necklace counts, one-prime Witt polynomials, Frobenius
formulas) were frozen by hand before the module was written.
"""
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from wittburnside.burnside import (
    APERIODIC,
    GHOST,
    NECKLACE,
    WITT,
    IndexedVector,
    ap_ghost,
    ap_ghost_inv,
    ap_op,
    exp_M,
    nr_ghost,
    nr_ghost_inv,
    nr_op,
    res_ap,
    res_nr,
    teichmuller,
    teichmuller_inv,
    wg_ghost,
    wg_op,
    witt_f,
    witt_v,
)
from wittburnside.cyclic import (
    CyclicVector,
    TruncationSet,
    aperiodic_poly,
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
    necklace_poly,
)
from wittburnside.errors import (
    DomainError,
    NotBinomial,
    NotInImage,
    NotInvertibleIndex,
    SchemaError,
    TruncationTooSmall,
)
from wittburnside.groups import build_group, subgroup_classes, subgroup_group
from wittburnside.qdeform import QContext, q_teichmuller, q_teichmuller_inv
from wittburnside.rings import QQ, RingValue, ZZ, divisors, mobius, parse_ring

D12 = TruncationSet.div(12)
D6 = TruncationSet.div(6)
D4 = TruncationSet.div(4)
D2 = TruncationSet.div(2)
Z8 = parse_ring("Z/8")


def cvec(T, flavor, ring, vals):
    return CyclicVector.from_ints(T, flavor, ring, vals)


def rand_cvec(T, flavor, ring, rng, lo=-9, hi=9):
    return cvec(T, flavor, ring, [rng.randint(lo, hi) for _ in T])


def brute_M(r, n):
    return Fraction(sum(mobius(d) * r ** (n // d) for d in divisors(n)), n)


def test_truncation_set_validation():
    assert D12.members == (1, 2, 3, 4, 6, 12)
    assert TruncationSet.div(1).members == (1,)
    with pytest.raises(SchemaError):
        TruncationSet([1, 4])
    with pytest.raises(SchemaError):
        TruncationSet([2])
    with pytest.raises(SchemaError):
        TruncationSet([])
    assert 6 in D12 and 5 not in D12


def _missing_divisor_named(members, err):
    """The rejection names a divisor d | n of a member n that is not a member."""
    m = re.search(r"not divisor-closed: (\d+) \| (\d+) missing", str(err))
    d, n = int(m.group(1)), int(m.group(2))
    return n in members and n % d == 0 and d not in members


def test_truncation_set_closure_matches_divisor_enumeration():
    # every subset of 1..16 containing 1, against the full divisor lists
    for bits in range(1 << 15):
        members = [1] + [n for n in range(2, 17) if bits >> (n - 2) & 1]
        closed = all(d in members for n in members for d in divisors(n))
        try:
            TruncationSet(members)
        except SchemaError as err:
            assert not closed, members
            assert _missing_divisor_named(members, err), (members, err)
        else:
            assert closed, members


@pytest.mark.parametrize(
    "members",
    [
        [1, 10 ** 18],
        [1, 10 ** 14],
        [1, 5, 15],  # only a member above sqrt(15) divides 15
        [1, 7, 11, 385],
        [1, 1000003, 1000003 * 999999000001],  # two large prime factors
        [1, 3825123056546413051],  # a strong pseudoprime to the bases 2..23
    ],
)
def test_truncation_set_rejects_large_members_fast(members):
    start = time.perf_counter()
    with pytest.raises(SchemaError) as err:
        TruncationSet(members)
    assert time.perf_counter() - start < 2.0
    assert _missing_divisor_named(members, err.value), err.value


def test_truncation_set_accepts_large_primes_fast():
    start = time.perf_counter()
    for p in (2 ** 61 - 1, 10 ** 18 + 9, 1000003):
        assert TruncationSet([1, p]).members == (1, p)
    assert TruncationSet([1, 2, 2 ** 61 - 1, 2 ** 62 - 2]).members[-1] == 2 ** 62 - 2
    assert time.perf_counter() - start < 2.0


def test_a_long_interval_builds_fast():
    # the divisor check once copied the member list for every member, which
    # made 1..40000 take about 5.5 s; it takes about 0.3 s without the copies
    start = time.perf_counter()
    assert len(TruncationSet(range(1, 40001))) == 40000
    assert time.perf_counter() - start < 3.0
    with pytest.raises(SchemaError) as err:
        TruncationSet([n for n in range(1, 40001) if n != 19997])
    assert str(err.value) == "truncation set not divisor-closed: 19997 | 39994 missing"


def test_truncation_set_divisors_are_the_members_dividing_n():
    for T in (D12, TruncationSet(range(1, 25))):
        for n in T:
            assert T.divisors(n) == divisors(n)
        assert T.divisors(5) == tuple(d for d in (1, 5) if d in T)
    assert TruncationSet([1, 5]).divisors(15) == (1, 5)  # a member above sqrt(15)
    assert TruncationSet([1, 10 ** 18 + 9]).divisors(10 ** 18 + 9) == (1, 10 ** 18 + 9)


def test_ghost_on_a_large_member_reads_divisors_off_the_set():
    # trial division up to sqrt(n) once stalled here
    start = time.perf_counter()
    x = CyclicVector.from_ints(TruncationSet([1, 10 ** 18 + 9]), NECKLACE, ZZ, [3, 5])
    assert [c.payload for c in cyc_ghost(x).components] == [3, 5000000000000000048]
    assert time.perf_counter() - start < 2.0


# The child runs the classical Witt maps on {1, 10^18 + 9} under a memory
# limit: forming 3^(10^18 + 9) then fails the test instead of exhausting the
# machine's memory.  Payloads 0 and +-1, and Z/8, whose powers reduce, answer.
_HUGE_POWER_CHILD = r"""
import json, os, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from wittburnside.burnside import WITT
from wittburnside.cli import main
from wittburnside.cyclic import CyclicVector, TruncationSet, cyc_frobenius, cyc_witt_ghost, cyc_witt_op
from wittburnside.errors import DomainError
from wittburnside.rings import QQ, ZZ, parse_ring

big = 10 ** 18 + 9
T = TruncationSet([1, big])


def timed(name, call):
    start = time.perf_counter()
    try:
        out = call()
        outcome = out if type(out) is int else [c.format() for c in out.components]
    except DomainError as exc:
        outcome = str(exc)
    print(json.dumps([name, outcome, time.perf_counter() - start < 2.0]), flush=True)


for R in (ZZ, QQ):
    a = CyclicVector.from_ints(T, WITT, R, [3, 5])
    timed(f"cyc_witt_ghost/{R.name}", lambda: cyc_witt_ghost(a))
    timed(f"cyc_witt_op sum/{R.name}", lambda: cyc_witt_op("sum", a, a))
    timed(f"cyc_witt_op prod/{R.name}", lambda: cyc_witt_op("prod", a, a))
    timed(f"cyc_witt_op neg/{R.name}", lambda: cyc_witt_op("neg", a))
    timed(f"cyc_frobenius/{R.name}", lambda: cyc_frobenius(big, a))

path = os.path.join(sys.argv[1], "w.json")
with open(path, "w") as fh:
    json.dump({"schema_version": 1, "group": {"cyclic_trunc": [1, big]}, "labels": [1, big],
               "flavor": "Witt", "ring": "Z", "components": ["3", "5"]}, fh)
timed("cli cyclic ghost", lambda: main(["cyclic", "ghost", path]))
timed("cli cyclic witt mul", lambda: main(["cyclic", "witt", "mul", path, path]))
os.environ["WB_CACHE_DIR"] = sys.argv[1]  # the universal polynomials are solved at once
timed("cli cyclic witt mul, cached", lambda: main(["cyclic", "witt", "mul", path, path]))

vec = lambda R, xs: CyclicVector.from_ints(T, WITT, R, xs)
Z8 = parse_ring("Z/8")
timed("ghost/Z/8", lambda: cyc_witt_ghost(vec(Z8, [3, 5])))
timed("witt_op prod/Z/8", lambda: cyc_witt_op("prod", vec(Z8, [1, 5]), vec(Z8, [0, 7])))
timed("ghost/0", lambda: cyc_witt_ghost(vec(ZZ, [0, 5])))
timed("ghost/1", lambda: cyc_witt_ghost(vec(ZZ, [1, 5])))
timed("ghost/-1", lambda: cyc_witt_ghost(vec(QQ, [-1, 5])))
timed("witt_op prod/+-1", lambda: cyc_witt_op("prod", vec(ZZ, [1, 5]), vec(ZZ, [-1, 7])))
timed("witt_op neg/1", lambda: cyc_witt_op("neg", vec(ZZ, [1, 5])))
timed("frobenius/-1", lambda: cyc_frobenius(big, vec(ZZ, [-1, 5])))
"""


def test_classical_witt_maps_refuse_powers_above_the_bound(tmp_path):
    pytest.importorskip("resource")
    env = {k: v for k, v in os.environ.items() if k != "WB_CACHE_DIR"}
    proc = subprocess.run([sys.executable, "-c", _HUGE_POWER_CHILD, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(results) == 21
    big = 10 ** 18 + 9
    for (name, outcome, fast), ring in zip(results[:10], ["Z"] * 5 + ["Q"] * 5):
        assert (outcome, fast) == (f"exponent {big} exceeds the power bound 10000 over {ring}",
                                   True), name
    for name, outcome, fast in results[10:13]:
        assert (outcome, fast) == (3, True), name  # the CLI's DomainError exit
    assert proc.stderr.count("exceeds the power bound 10000") == 3
    assert [outcome for _, outcome, _ in results[13:]] == [
        ["3", "0"],  # 3^N + 5N = 3 + 5 mod 8, N odd and 1 mod 8
        ["0", "2"],  # (1 + 5N) 7N = N s_N, s_N = 7 + 35N = 42 mod 8
        ["0", str(5 * big)],
        ["1", str(1 + 5 * big)],
        ["-1", str(-1 + 5 * big)],
        ["-1", str(2 + 35 * big)],  # (1 + 5N) (-1 + 7N) = -1 + N s_N
        ["-1", "-5"],
        [str(-1 + 5 * big)],
    ]
    assert all(fast for _, _, fast in results[13:])


def test_witt_ghost_examples():
    one = TruncationSet.div(1)
    assert cyc_witt_ghost(cvec(one, WITT, ZZ, [7])).payloads() == (7,)
    rng = random.Random(0)
    for _ in range(10):
        a1, a2 = rng.randint(-9, 9), rng.randint(-9, 9)
        assert cyc_witt_ghost(cvec(D2, WITT, ZZ, [a1, a2])).payloads() == (
            a1, a1 * a1 + 2 * a2,
        )
        r = rng.randint(-5, 5)
        got = cyc_witt_ghost(cvec(D6, WITT, ZZ, [r, 0, 0, 0])).payloads()
        assert got == (r, r ** 2, r ** 3, r ** 6)


def test_universal_frozen_div2():
    s = cyc_universal(D2, "sum")
    assert [p.format() for p in s.polys] == [
        "1*a_1^1+1*b_1^1",
        "-1*a_1^1*b_1^1+1*a_2^1+1*b_2^1",
    ]
    p = cyc_universal(D2, "prod")
    assert [q.format() for q in p.polys] == [
        "1*a_1^1*b_1^1",
        "1*a_1^2*b_2^1+1*a_2^1*b_1^2+2*a_2^1*b_2^1",
    ]
    n = cyc_universal(D2, "neg")
    assert [q.format() for q in n.polys] == ["-1*a_1^1", "-1*a_1^2+-1*a_2^1"]


def test_universal_div12_integral():
    for op in ("sum", "prod", "neg"):
        for poly in cyc_universal(D12, op).polys:
            assert poly.is_integral()


def test_witt_op_ghost_homomorphism():
    rng = random.Random(1)
    for _ in range(8):
        a = rand_cvec(D12, WITT, ZZ, rng)
        b = rand_cvec(D12, WITT, ZZ, rng)
        ga, gb = cyc_witt_ghost(a).payloads(), cyc_witt_ghost(b).payloads()
        assert cyc_witt_ghost(cyc_witt_op("sum", a, b)).payloads() == tuple(
            u + v for u, v in zip(ga, gb)
        )
        assert cyc_witt_ghost(cyc_witt_op("prod", a, b)).payloads() == tuple(
            u * v for u, v in zip(ga, gb)
        )
        assert cyc_witt_ghost(cyc_witt_op("neg", a)).payloads() == tuple(-u for u in ga)


def test_witt_ring_axioms_mod8():
    rng = random.Random(2)
    for _ in range(5):
        x = rand_cvec(D12, WITT, Z8, rng, 0, 7)
        y = rand_cvec(D12, WITT, Z8, rng, 0, 7)
        z = rand_cvec(D12, WITT, Z8, rng, 0, 7)
        assert cyc_witt_op("prod", x, y) == cyc_witt_op("prod", y, x)
        assert cyc_witt_op("prod", x, cyc_witt_op("prod", y, z)) == cyc_witt_op(
            "prod", cyc_witt_op("prod", x, y), z
        )
        lhs = cyc_witt_op("prod", x, cyc_witt_op("sum", y, z))
        rhs = cyc_witt_op("sum", cyc_witt_op("prod", x, y), cyc_witt_op("prod", x, z))
        assert lhs == rhs


def test_nr_ap_mul_examples():
    assert cyc_nr_mul(cvec(D2, NECKLACE, ZZ, [0, 1]), cvec(D2, NECKLACE, ZZ, [0, 1])
                      ).payloads() == (0, 2)
    assert cyc_ap_mul(cvec(D2, APERIODIC, ZZ, [0, 1]), cvec(D2, APERIODIC, ZZ, [0, 1])
                      ).payloads() == (0, 1)
    e = CyclicVector.one(D12, NECKLACE, ZZ)
    rng = random.Random(3)
    x = rand_cvec(D12, NECKLACE, ZZ, rng)
    assert cyc_nr_mul(e, x) == x
    assert cyc_ap_mul(CyclicVector.one(D12, APERIODIC, ZZ), x.retag(APERIODIC)
                      ) == x.retag(APERIODIC)
    hot = cvec(D4, NECKLACE, ZZ, [0, 1, 0])
    assert cyc_nr_mul(hot, hot).payloads() == (0, 2, 0)


def test_ap_mul_mod3_matches_lift_reduce():
    Z3 = parse_ring("Z/3")
    rng = random.Random(4)
    for _ in range(10):
        xs = [rng.randint(0, 2) for _ in D6]
        ys = [rng.randint(0, 2) for _ in D6]
        lifted = cyc_ap_mul(cvec(D6, APERIODIC, ZZ, xs), cvec(D6, APERIODIC, ZZ, ys))
        direct = cyc_ap_mul(cvec(D6, APERIODIC, Z3, xs), cvec(D6, APERIODIC, Z3, ys))
        assert direct.payloads() == tuple(p % 3 for p in lifted.payloads())


def test_necklace_poly_frozen_values():
    got = [necklace_poly(RingValue.from_int(ZZ, 2), n).payload for n in range(1, 7)]
    assert got == [2, 1, 2, 3, 6, 9]
    assert necklace_poly(RingValue.from_int(ZZ, 4), 2).payload == 6
    assert aperiodic_poly(RingValue.from_int(ZZ, 2), 2).payload == 2
    assert aperiodic_poly(RingValue.from_int(ZZ, 4), 2).payload == 12
    # brute-force Mobius-sum oracle over a window
    for r in range(-6, 7):
        for n in range(1, 13):
            assert necklace_poly(RingValue.from_int(ZZ, r), n).payload == brute_M(r, n)


def test_necklace_poly_domain_errors():
    R = parse_ring("ZPoly(x)")
    x = RingValue.parse(R, "1*x^1")
    with pytest.raises(NotBinomial):
        necklace_poly(x, 2)
    with pytest.raises(NotBinomial):
        necklace_poly(RingValue.from_int(Z8, 3), 2)
    # but rational-coefficient polynomials work
    Rq = parse_ring("QPoly(x)")
    xq = RingValue.parse(Rq, "1*x^1")
    assert necklace_poly(xq, 2).format() == "1/2*x^2+-1/2*x^1"


def test_product_formula_for_necklace_counts():
    # M(rs, n) = sum over lcm(i,j) = n of gcd(i,j) M(r,i) M(s,j)
    for r in range(-3, 4):
        for s in range(-3, 4):
            for n in range(1, 13):
                lhs = necklace_poly(RingValue.from_int(ZZ, r * s), n).payload
                rhs = 0
                for i in divisors(n):
                    for j in divisors(n):
                        if math.lcm(i, j) == n:
                            rhs += (
                                math.gcd(i, j)
                                * necklace_poly(RingValue.from_int(ZZ, r), i).payload
                                * necklace_poly(RingValue.from_int(ZZ, s), j).payload
                            )
                assert lhs == rhs
                lhs_s = aperiodic_poly(RingValue.from_int(ZZ, r * s), n).payload
                rhs_s = sum(
                    aperiodic_poly(RingValue.from_int(ZZ, r), i).payload
                    * aperiodic_poly(RingValue.from_int(ZZ, s), j).payload
                    for i in divisors(n)
                    for j in divisors(n)
                    if math.lcm(i, j) == n
                )
                assert lhs_s == rhs_s


def test_ghost_formulas_and_inverses():
    x = cvec(D4, NECKLACE, ZZ, [5, 7, 11])
    assert cyc_ghost(x).payloads() == (5, 5 + 14, 5 + 14 + 44)
    y = cvec(D4, APERIODIC, ZZ, [5, 7, 11])
    assert cyc_ghost(y).payloads() == (5, 12, 23)
    rng = random.Random(5)
    for _ in range(8):
        a = rand_cvec(D12, APERIODIC, ZZ, rng)
        assert cyc_ghost_inv(cyc_ghost(a), APERIODIC) == a
        b = rand_cvec(D12, NECKLACE, QQ, rng)
        assert cyc_ghost_inv(cyc_ghost(b), NECKLACE) == b
    with pytest.raises(NotInImage):
        cyc_ghost_inv(cvec(D2, GHOST, ZZ, [0, 1]), NECKLACE)


def test_ghost_inverse_transports_products():
    # corrected readings: the ghost inverses transport componentwise products
    # to the necklace (with gcd weights) and aperiodic structure constants
    rng = random.Random(6)
    for _ in range(8):
        a = rand_cvec(D12, GHOST, QQ, rng)
        b = rand_cvec(D12, GHOST, QQ, rng)
        prod = a.with_components([u * v for u, v in zip(a.components, b.components)])
        na = cyc_ghost_inv(a, NECKLACE)
        nb = cyc_ghost_inv(b, NECKLACE)
        assert cyc_ghost_inv(prod, NECKLACE) == cyc_nr_mul(na, nb)
    for _ in range(8):
        a = rand_cvec(D12, GHOST, ZZ, rng)
        b = rand_cvec(D12, GHOST, ZZ, rng)
        prod = a.with_components([u * v for u, v in zip(a.components, b.components)])
        assert cyc_ghost_inv(prod, APERIODIC) == cyc_ap_mul(
            cyc_ghost_inv(a, APERIODIC), cyc_ghost_inv(b, APERIODIC)
        )


def test_theta_intertwines_products():
    rng = random.Random(7)
    for _ in range(8):
        x = rand_cvec(D12, NECKLACE, QQ, rng)
        y = rand_cvec(D12, NECKLACE, QQ, rng)
        assert cyc_theta(cyc_nr_mul(x, y)) == cyc_ap_mul(cyc_theta(x), cyc_theta(y))
        assert cyc_theta_inv(cyc_theta(x)) == x
    with pytest.raises(NotInvertibleIndex):
        cyc_theta_inv(cvec(D2, APERIODIC, ZZ, [0, 1]))


def test_verschiebung_formulas():
    x = cvec(D4, NECKLACE, ZZ, [3, 5, 7])
    assert cyc_verschiebung(1, x) == x
    assert cyc_verschiebung(2, x).payloads() == (0, 3, 5)
    y = cvec(D4, APERIODIC, ZZ, [3, 5, 7])
    assert cyc_verschiebung(2, y).payloads() == (0, 6, 10)
    w = cvec(D4, WITT, ZZ, [3, 5, 7])
    assert cyc_verschiebung(2, w).payloads() == (0, 3, 5)
    # ghost behaviour: n -> r * (value at n/r), zero off multiples
    rng = random.Random(8)
    for flavor, ghost in ((WITT, cyc_witt_ghost), (NECKLACE, cyc_ghost), (APERIODIC, cyc_ghost)):
        for r in (2, 3):
            a = rand_cvec(D12, flavor, ZZ, rng)
            gv = ghost(cyc_verschiebung(r, a)).payloads()
            g = ghost(a).payloads()
            for pos, n in enumerate(D12):
                want = r * g[D12.position(n // r)] if n % r == 0 else 0
                assert gv[pos] == want


def test_frobenius_ghost_shift():
    rng = random.Random(9)
    for flavor, ghost in ((WITT, cyc_witt_ghost), (NECKLACE, cyc_ghost), (APERIODIC, cyc_ghost)):
        for r in (1, 2, 3):
            a = rand_cvec(D12, flavor, ZZ, rng)
            f = cyc_frobenius(r, a)
            assert f.truncation.members == tuple(n for n in D12 if r * n in D12)
            gf = ghost(f).payloads()
            g = ghost(a).payloads()
            for pos, n in enumerate(f.truncation):
                assert gf[pos] == g[D12.position(r * n)]
    with pytest.raises(TruncationTooSmall):
        cyc_frobenius(5, rand_cvec(D12, WITT, ZZ, rng))


def test_frobenius_frozen_universal_div4():
    a1, a2, a4 = 3, -2, 5
    f = cyc_frobenius(2, cvec(D4, WITT, ZZ, [a1, a2, a4]))
    assert f.truncation.members == (1, 2)
    assert f.payloads() == (
        a1 * a1 + 2 * a2,
        2 * a4 - a2 * a2 - 2 * a1 * a1 * a2,
    )


def test_frobenius_defined_over_residue_rings():
    rng = random.Random(10)
    for flavor in (WITT, NECKLACE, APERIODIC):
        for _ in range(5):
            xs = [rng.randint(0, 7) for _ in D12]
            lifted = cyc_frobenius(2, cvec(D12, flavor, ZZ, xs))
            direct = cyc_frobenius(2, cvec(D12, flavor, Z8, xs))
            assert direct.payloads() == tuple(p % 8 for p in lifted.payloads())


def test_frobenius_multiplicative_on_witt_and_necklace():
    rng = random.Random(11)
    for _ in range(5):
        a = rand_cvec(D12, WITT, ZZ, rng)
        b = rand_cvec(D12, WITT, ZZ, rng)
        assert cyc_frobenius(2, cyc_witt_op("prod", a, b)) == cyc_witt_op(
            "prod", cyc_frobenius(2, a), cyc_frobenius(2, b)
        )
        x = rand_cvec(D12, NECKLACE, ZZ, rng)
        y = rand_cvec(D12, NECKLACE, ZZ, rng)
        assert cyc_frobenius(3, cyc_nr_mul(x, y)) == cyc_nr_mul(
            cyc_frobenius(3, x), cyc_frobenius(3, y)
        )


# --- cross-model agreement with the group-indexed functors ------------------


def group_and_trunc(N):
    return build_group(f"C{N}"), TruncationSet.div(N)


# The group model's tables come from permutations and marks, the truncation
# set's from divisors: on C_N, with each subgroup class matched to its index,
# these compare two implementations of the same rings and operators.
CROSS_RINGS = tuple(parse_ring(name) for name in ("Z", "Q", "Z/8", "ZPoly(x,y)"))


def rand_payloads(R, T, rng):
    if R.name.startswith("ZPoly"):
        texts = [f"{rng.randint(-3, 3)}*x+{rng.randint(-2, 2)}*y+{rng.randint(-3, 3)}" for _ in T]
    elif R is QQ:
        texts = [f"{rng.randint(-9, 9)}/{rng.randint(1, 4)}" for _ in T]
    else:
        texts = [str(rng.randint(-9, 9)) for _ in T]
    return [R.parse_value(t) for t in texts]


def both_models(G, T, flavor, R, payloads):
    return (IndexedVector.from_payloads(G, flavor, R, payloads),
            CyclicVector.from_payloads(T, flavor, R, payloads))


Q1 = QContext(1)  # the q-model at q = 1 is the classical one


def outcome(f, *args):
    """The payloads of f(*args), or the class of the DomainError it raises."""
    try:
        return f(*args).payloads()
    except DomainError as exc:
        return type(exc)


def test_cyclic_matches_group_model_ops():
    rng = random.Random(12)
    for N in (2, 4, 6, 8, 12, 24):
        G, T = group_and_trunc(N)
        indices = [c.index for c in subgroup_classes(G).classes]
        assert indices == list(T.members)
        for R in CROSS_RINGS:
            for _ in range(4):
                xs, ys = rand_payloads(R, T, rng), rand_payloads(R, T, rng)
                gw, cw = both_models(G, T, WITT, R, xs)
                hw, dw = both_models(G, T, WITT, R, ys)
                assert wg_ghost(gw).payloads() == cyc_witt_ghost(cw).payloads()
                for op in ("sum", "prod"):
                    assert wg_op(op, gw, hw).payloads() == cyc_witt_op(op, cw, dw).payloads()
                assert wg_op("neg", gw).payloads() == cyc_witt_op("neg", cw).payloads()
                gn, cn = both_models(G, T, NECKLACE, R, xs)
                hn, dn = both_models(G, T, NECKLACE, R, ys)
                assert nr_op("prod", gn, hn).payloads() == cyc_nr_mul(cn, dn).payloads()
                ga, ca = both_models(G, T, APERIODIC, R, xs)
                ha, da = both_models(G, T, APERIODIC, R, ys)
                assert ap_op("prod", ga, ha).payloads() == cyc_ap_mul(ca, da).payloads()
                # the transports, wherever they are defined: the same payloads
                # or the same error class
                for (g, c), ghost, ghost_inv in (((gn, cn), nr_ghost, nr_ghost_inv),
                                                 ((ga, ca), ap_ghost, ap_ghost_inv)):
                    assert outcome(ghost, g) == outcome(cyc_ghost, c)
                    for gb, cb in (both_models(G, T, GHOST, R, ys), (ghost(g), cyc_ghost(c))):
                        assert outcome(ghost_inv, gb) == outcome(cyc_ghost_inv, cb, g.flavor)
                assert outcome(teichmuller, gw) == outcome(q_teichmuller, Q1, cw)
                assert outcome(teichmuller_inv, gn) == outcome(q_teichmuller_inv, Q1, cn)
                gt, ct = teichmuller(gw), q_teichmuller(Q1, cw)
                assert outcome(teichmuller_inv, gt) == outcome(q_teichmuller_inv, Q1, ct)


def test_cyclic_matches_group_model_exponentials():
    for N in (2, 4, 6, 12):
        G, T = group_and_trunc(N)
        for r in (-3, 0, 2, 5):
            got = exp_M(G, RingValue.from_int(ZZ, r)).payloads()
            want = tuple(necklace_poly(RingValue.from_int(ZZ, r), n).payload for n in T)
            assert got == want


def test_cyclic_matches_group_model_operators():
    rng = random.Random(13)
    G, T = group_and_trunc(6)
    ct = subgroup_classes(G)
    for ci in range(1, len(ct)):
        r = ct.classes[ci].index
        U = subgroup_group(G, ci)
        Tu = TruncationSet([n for n in T if r * n in T])
        assert [c.index for c in subgroup_classes(U).classes] == list(Tu.members)
        for _ in range(4):
            # verschiebung: inject the subgroup vector at the read positions
            alphas = [rng.randint(-9, 9) for _ in Tu]
            au = IndexedVector.from_ints(U, WITT, ZZ, alphas)
            # junk at positions the dilation never reads must not matter
            xs = [rng.randint(-99, 99) for _ in T]
            for pos, n in enumerate(Tu):
                xs[T.position(n)] = alphas[pos]
            cx = cvec(T, WITT, ZZ, xs)
            assert witt_v(G, ci, au).payloads() == cyc_verschiebung(r, cx).payloads()
            # frobenius: restrict the parent vector
            ys = [rng.randint(-9, 9) for _ in T]
            ag = IndexedVector.from_ints(G, WITT, ZZ, ys)
            cg = cvec(T, WITT, ZZ, ys)
            assert witt_f(G, ci, ag).payloads() == cyc_frobenius(r, cg).payloads()
    # necklace and aperiodic restriction to the class of index r is f_r
    checked = 0
    for N in (4, 6, 8, 12, 24):
        G, T = group_and_trunc(N)
        for ci in range(1, len(subgroup_classes(G))):
            r = subgroup_classes(G).classes[ci].index
            for R in CROSS_RINGS:
                for flavor, res in ((NECKLACE, res_nr), (APERIODIC, res_ap)):
                    g, c = both_models(G, T, flavor, R, rand_payloads(R, T, rng))
                    assert res(G, ci, g).payloads() == cyc_frobenius(r, c).payloads()
                    checked += 1
    assert checked == 160
