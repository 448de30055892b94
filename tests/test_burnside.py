"""Tests for the Witt/necklace/aperiodic functors and their transports.

Oracle values (classical one-variable Witt and necklace formulas, hand
computations on C2/C4/S3) were frozen before the module was written.
"""
import os
import random
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
    delta_membership,
    delta_reduce,
    derive_universal,
    exp_M,
    exp_S,
    gamma,
    gamma_inv,
    ghost_F,
    ghost_nu,
    ind_ap,
    ind_nr,
    nr_ghost,
    nr_ghost_inv,
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
from wittburnside.errors import (
    DomainError,
    NonIntegralConstant,
    NotInImage,
    NotInvertibleIndex,
)
from wittburnside.groups import build_group, subgroup_classes, subgroup_group
from wittburnside.rings import QQ, RingValue, ZZ, parse_ring
from wittburnside.universal import ghost_system

C2 = build_group("C2")
C4 = build_group("C4")
C6 = build_group("C6")
S3 = build_group("S3")
D4 = build_group("D4")
Z8 = parse_ring("Z/8")


def vec(G, flavor, ring, vals, coord_form=False):
    return IndexedVector.from_ints(G, flavor, ring, vals, coord_form)


def rand_vec(G, flavor, ring, rng, lo=-9, hi=9):
    n = len(subgroup_classes(G))
    return vec(G, flavor, ring, [rng.randint(lo, hi) for _ in range(n)])


# --- universal polynomials -------------------------------------------------


def test_universal_c2_matches_classical_witt_forms():
    # frozen from the classical one-prime formulas: s = a2+b2-a1b1,
    # p = a1^2 b2 + a2 b1^2 + 2 a2 b2, neg = (-a1, -a2-a1^2)
    s = derive_universal(C2, "sum")
    assert [p.format() for p in s.polys] == [
        "1*a_G^1+1*b_G^1",
        "-1*a_G^1*b_G^1+1*a_1^1+1*b_1^1",
    ]
    p = derive_universal(C2, "prod")
    assert [q.format() for q in p.polys] == [
        "1*a_G^1*b_G^1",
        "1*a_G^2*b_1^1+1*a_1^1*b_G^2+2*a_1^1*b_1^1",
    ]
    n = derive_universal(C2, "neg")
    assert [q.format() for q in n.polys] == ["-1*a_G^1", "-1*a_G^2+-1*a_1^1"]


def test_universal_top_class_is_plain_ring_op():
    for G in (C2, C4, C6, S3, D4):
        labels = subgroup_classes(G).labels()
        s = derive_universal(G, "sum")
        assert s.polys[0].format() == f"1*a_{labels[0]}^1+1*b_{labels[0]}^1"
        p = derive_universal(G, "prod")
        assert p.polys[0].format() == f"1*a_{labels[0]}^1*b_{labels[0]}^1"
        n = derive_universal(G, "neg")
        assert n.polys[0].format() == f"-1*a_{labels[0]}^1"


def test_universal_disk_cache_round_trip(tmp_path):
    os.environ["WB_CACHE_DIR"] = str(tmp_path)
    try:
        ghost_system.cache_clear()
        first = derive_universal(C4, "prod")
        assert os.listdir(tmp_path)
        ghost_system.cache_clear()
        second = derive_universal(C4, "prod")
        assert first.vars == second.vars
        assert first.polys == second.polys
    finally:
        del os.environ["WB_CACHE_DIR"]
        ghost_system.cache_clear()


# --- ghosts ----------------------------------------------------------------


def test_wg_ghost_c4_closed_form():
    rng = random.Random(0)
    for _ in range(20):
        a, b, c = (rng.randint(-9, 9) for _ in range(3))
        g = wg_ghost(vec(C4, WITT, ZZ, [a, b, c])).payloads()
        assert g == (a, a * a + 2 * b, a ** 4 + 2 * b * b + 4 * c)


def test_wg_op_agrees_with_ghost_arithmetic():
    rng = random.Random(1)
    for G in (C2, C4, S3):
        for _ in range(10):
            x = rand_vec(G, WITT, ZZ, rng)
            y = rand_vec(G, WITT, ZZ, rng)
            gx, gy = wg_ghost(x).payloads(), wg_ghost(y).payloads()
            assert wg_ghost(wg_op("sum", x, y)).payloads() == tuple(
                u + v for u, v in zip(gx, gy)
            )
            assert wg_ghost(wg_op("prod", x, y)).payloads() == tuple(
                u * v for u, v in zip(gx, gy)
            )
            assert wg_ghost(wg_op("neg", x)).payloads() == tuple(-u for u in gx)


def test_wg_ring_axioms_spot_checks():
    rng = random.Random(2)
    for R in (Z8, ZZ):
        for _ in range(5):
            x = rand_vec(D4, WITT, R, rng, 0, 7)
            y = rand_vec(D4, WITT, R, rng, 0, 7)
            z = rand_vec(D4, WITT, R, rng, 0, 7)
            assert wg_op("sum", x, y) == wg_op("sum", y, x)
            assert wg_op("prod", x, y) == wg_op("prod", y, x)
            assert wg_op("prod", x, wg_op("prod", y, z)) == wg_op(
                "prod", wg_op("prod", x, y), z
            )
            lhs = wg_op("prod", x, wg_op("sum", y, z))
            rhs = wg_op("sum", wg_op("prod", x, y), wg_op("prod", x, z))
            assert lhs == rhs
            assert wg_op("sum", x, wg_op("neg", x)) == IndexedVector.zero(D4, WITT, R)


def test_identity_elements_all_flavors():
    for G in (C4, S3):
        one_w = IndexedVector.one(G, WITT, ZZ)
        x = vec(G, WITT, ZZ, list(range(2, 2 + len(subgroup_classes(G)))))
        assert wg_op("prod", one_w, x) == x
        n = nr_op("prod", IndexedVector.one(G, NECKLACE, ZZ), x.retag(NECKLACE))
        assert n == x.retag(NECKLACE)
        a = ap_op("prod", IndexedVector.one(G, APERIODIC, ZZ), x.retag(APERIODIC))
        assert a == x.retag(APERIODIC)
        assert wg_ghost(one_w).payloads() == (1,) * len(subgroup_classes(G))


# --- necklace / aperiodic components ---------------------------------------


def test_nr_prod_c2_frozen():
    assert nr_op("prod", vec(C2, NECKLACE, ZZ, [0, 1]), vec(C2, NECKLACE, ZZ, [0, 1])
                 ).payloads() == (0, 2)
    assert ap_op("prod", vec(C2, APERIODIC, ZZ, [0, 1]), vec(C2, APERIODIC, ZZ, [0, 1])
                 ).payloads() == (0, 1)


def test_nr_ghost_homomorphism():
    rng = random.Random(3)
    for G in (C4, C6, S3, D4):
        for _ in range(8):
            x = rand_vec(G, NECKLACE, ZZ, rng)
            y = rand_vec(G, NECKLACE, ZZ, rng)
            gx, gy = nr_ghost(x).payloads(), nr_ghost(y).payloads()
            assert nr_ghost(nr_op("sum", x, y)).payloads() == tuple(
                u + v for u, v in zip(gx, gy)
            )
            assert nr_ghost(nr_op("prod", x, y)).payloads() == tuple(
                u * v for u, v in zip(gx, gy)
            )
            assert nr_ghost_inv(nr_ghost(x), group=G) == x


def test_ap_ghost_homomorphism():
    rng = random.Random(4)
    for G, R in ((C4, ZZ), (C6, ZZ), (S3, QQ), (D4, QQ)):
        for _ in range(8):
            x = rand_vec(G, APERIODIC, R, rng)
            y = rand_vec(G, APERIODIC, R, rng)
            gx, gy = ap_ghost(x).payloads(), ap_ghost(y).payloads()
            assert ap_ghost(ap_op("prod", x, y)).payloads() == tuple(
                u * v for u, v in zip(gx, gy)
            )
            assert ap_ghost_inv(ap_ghost(x), group=G) == x


def test_ap_nonintegral_constant_policy():
    # two reflections multiply through a 1/3 constant on S3: undefined over Z
    x = vec(S3, APERIODIC, ZZ, [0, 0, 1, 0])
    with pytest.raises(NonIntegralConstant):
        ap_op("prod", x, x)
    # supported away from the bad class the product stays integral
    y = vec(S3, APERIODIC, ZZ, [0, 1, 0, 0])
    assert ap_op("prod", y, y).payloads() == (0, 1, 0, 0)
    # and the same vectors multiply fine over Q
    xq = x.map_ring(QQ, Fraction)
    prod = ap_op("prod", xq, xq)
    assert prod.payloads() == (0, 0, Fraction(1, 3), Fraction(2, 3))


# --- exponential scalars and transports ------------------------------------


def test_exp_scalars_cyclic_match_necklace_counts():
    # frozen classical counts M(2, n) for n = 1, 2, 3, 6
    got = exp_M(C6, RingValue.from_int(ZZ, 2))
    assert got.payloads() == (2, 1, 2, 9)
    assert exp_S(C6, RingValue.from_int(ZZ, 2)).payloads() == (2, 2, 6, 54)
    assert exp_M(C2, RingValue.from_int(ZZ, 2)).payloads() == (2, 1)
    assert exp_S(C2, RingValue.from_int(ZZ, 2)).payloads() == (2, 2)


def test_teichmuller_c2_closed_form():
    rng = random.Random(5)
    for _ in range(20):
        r, s = rng.randint(-9, 9), rng.randint(-9, 9)
        t = teichmuller(vec(C2, WITT, ZZ, [r, s]))
        assert t.payloads() == (r, (r * r - r) // 2 + s)
        g = gamma(vec(C2, WITT, ZZ, [r, s]))
        assert g.payloads() == (r, r * r - r + 2 * s)


def test_transport_round_trips_and_factorizations():
    rng = random.Random(6)
    for G in (C4, C6, S3, D4):
        for R in (ZZ, QQ):
            for _ in range(6):
                a = rand_vec(G, WITT, R, rng)
                t = teichmuller(a)
                assert teichmuller_inv(t) == a
                assert gamma_inv(gamma(a)) == a
                assert theta_inv(theta(t)) == t
                # ghost factorizations through the transports; the aperiodic
                # ghost needs rational constants unless the group is abelian
                assert nr_ghost(t) == wg_ghost(a)
                if R.is_qalgebra or G.is_abelian():
                    assert ap_ghost(gamma(a)) == wg_ghost(a)
                    assert nr_ghost(t).payloads() == ap_ghost(theta(t)).payloads()


def test_teichmuller_zpoly_lands_in_rationalization():
    R = parse_ring("ZPoly(x)")
    Rq = R.rationalized()
    x = RingValue.parse(R, "1*x^1")
    zero = RingValue.from_int(R, 0)
    a = IndexedVector(C2, WITT, R, [x, zero])
    t = teichmuller(a)
    assert t.ring == Rq
    assert t.components[0].format() == "1*x^1"
    assert t.components[1].format() == "1/2*x^2+-1/2*x^1"
    # the inverse starting from the integral model refuses non-members
    with pytest.raises(NotInImage):
        teichmuller_inv(IndexedVector(C2, NECKLACE, R, [x, zero]))


def test_theta_inv_needs_invertible_indices():
    with pytest.raises(NotInvertibleIndex):
        theta_inv(vec(C2, APERIODIC, ZZ, [0, 1]))
    Z9 = parse_ring("Z/9")
    y = vec(C2, APERIODIC, Z9, [4, 1])
    assert theta_inv(y).payloads() == (4, 5)  # 2*5 = 10 = 1 mod 9


def test_componentwise_reduction_of_tau_is_ill_defined():
    # the reason residue-ring necklace images are coordinate-backed: two
    # integer Witt vectors congruent mod 8 with incongruent tau components
    t1 = teichmuller(vec(C2, WITT, ZZ, [8, 0])).payloads()
    t2 = teichmuller(vec(C2, WITT, ZZ, [0, 0])).payloads()
    assert (t1[0] - t2[0]) % 8 == 0
    assert (t1[1] - t2[1]) % 8 != 0


def test_residue_transports_are_coordinate_backed():
    a = vec(C4, WITT, Z8, [3, 5, 7])
    t = teichmuller(a)
    assert t.flavor == NECKLACE and t.coord_form
    assert teichmuller_inv(t) == a
    g = gamma(a)
    assert g.flavor == APERIODIC and g.coord_form
    assert gamma_inv(g) == a
    b = vec(C4, WITT, Z8, [1, 2, 6])
    assert nr_op("prod", teichmuller(a), teichmuller(b)).payloads() == wg_op(
        "prod", a, b
    ).payloads()
    assert ap_op("sum", gamma(a), gamma(b)).payloads() == wg_op("sum", a, b).payloads()
    assert wg_ghost(a).payloads() == nr_ghost(t).payloads()
    with pytest.raises(DomainError):
        teichmuller_inv(vec(C4, NECKLACE, Z8, [1, 2, 3]))


def test_delta_reduce_well_defined_on_products():
    rng = random.Random(7)
    for _ in range(5):
        a = rand_vec(C4, WITT, ZZ, rng)
        b = rand_vec(C4, WITT, ZZ, rng)
        x, y = teichmuller(a), teichmuller(b)
        direct = delta_reduce(nr_op("prod", x, y), 8)
        reduced = nr_op("prod", delta_reduce(x, 8), delta_reduce(y, 8))
        assert direct == reduced


def test_delta_membership():
    t = teichmuller(vec(S3, WITT, ZZ, [1, -2, 3, 5])).map_ring(QQ, Fraction)
    assert delta_membership(t, ZZ)
    shifted = t.with_components(
        [c + RingValue(QQ, Fraction(1, 2)) for c in t.components]
    )
    assert not delta_membership(shifted, ZZ)


# the targets with the rationalisation of the vector's ring, and the answer
MEMBERSHIP = {"Z": {"Z": True, "Q": True},
              "ZPoly(x,y)": {"ZPoly(x,y)": False, "QPoly(x,y)": True}}


@pytest.mark.parametrize("source", sorted(MEMBERSHIP))
@pytest.mark.parametrize("target", ("Z", "Q", "Z/8", "ZPoly(x,y)", "QPoly(x,y)", "Q[q]"))
def test_delta_membership_needs_the_rationalisation_of_the_vector_ring(source, target):
    # (3, 5) over Z and (x, y) over ZPoly(x,y); any other target once raised
    # TypeError or AttributeError, or answered True
    R = parse_ring(source)
    values = ("3", "5") if R == ZZ else ("x", "y")
    x = IndexedVector.from_payloads(C2, NECKLACE, R, [R.parse_value(v) for v in values])
    want = MEMBERSHIP[source].get(target)
    if want is None:
        with pytest.raises(DomainError, match="rationalisation"):
            delta_membership(x, parse_ring(target))
    else:
        assert delta_membership(x, parse_ring(target)) is want


# --- induction / restriction / operator families ---------------------------


def subgroup_positions(G):
    # proper classes only; position 0 is G itself where ind/res are identities
    return range(1, len(subgroup_classes(G)))


def test_induction_preserves_transports():
    rng = random.Random(8)
    for G in (C6, S3, D4):
        for ci in subgroup_positions(G):
            U = subgroup_group(G, ci)
            for _ in range(4):
                a = rand_vec(U, WITT, QQ, rng)
                assert ind_nr(G, ci, teichmuller(a)) == teichmuller(witt_v(G, ci, a))
                x = rand_vec(U, NECKLACE, QQ, rng)
                assert ind_ap(G, ci, theta(x)) == theta(ind_nr(G, ci, x))
                assert ind_ap(G, ci, gamma(a)) == gamma(witt_v(G, ci, a))


def test_restriction_preserves_transports():
    rng = random.Random(9)
    for G in (C6, S3, D4):
        for ci in subgroup_positions(G):
            for _ in range(4):
                a = rand_vec(G, WITT, QQ, rng)
                assert res_nr(G, ci, teichmuller(a)) == teichmuller(witt_f(G, ci, a))
                x = rand_vec(G, NECKLACE, QQ, rng)
                assert res_ap(G, ci, theta(x)) == theta(res_nr(G, ci, x))
                assert res_ap(G, ci, gamma(a)) == gamma(witt_f(G, ci, a))


def test_ind_additive_res_ring_hom():
    rng = random.Random(10)
    for G in (S3, D4):
        for ci in subgroup_positions(G):
            U = subgroup_group(G, ci)
            for _ in range(4):
                x = rand_vec(U, NECKLACE, QQ, rng)
                y = rand_vec(U, NECKLACE, QQ, rng)
                assert ind_nr(G, ci, nr_op("sum", x, y)) == nr_op(
                    "sum", ind_nr(G, ci, x), ind_nr(G, ci, y)
                )
                u = rand_vec(G, NECKLACE, QQ, rng)
                v = rand_vec(G, NECKLACE, QQ, rng)
                assert res_nr(G, ci, nr_op("prod", u, v)) == nr_op(
                    "prod", res_nr(G, ci, u), res_nr(G, ci, v)
                )
                assert res_nr(G, ci, nr_op("sum", u, v)) == nr_op(
                    "sum", res_nr(G, ci, u), res_nr(G, ci, v)
                )


def test_witt_f_is_ring_homomorphism():
    rng = random.Random(11)
    for _ in range(5):
        a = rand_vec(S3, WITT, ZZ, rng)
        b = rand_vec(S3, WITT, ZZ, rng)
        for ci in subgroup_positions(S3):
            lhs = witt_f(S3, ci, wg_op("prod", a, b))
            rhs = wg_op("prod", witt_f(S3, ci, a), witt_f(S3, ci, b))
            assert lhs == rhs


def test_witt_v_f_commute_with_mod_m_reduction():
    rng = random.Random(12)
    for G in (C6, S3):
        for ci in subgroup_positions(G):
            U = subgroup_group(G, ci)
            for _ in range(3):
                au = rand_vec(U, WITT, ZZ, rng)
                v = witt_v(G, ci, au)
                got = witt_v(G, ci, au.map_ring(Z8, lambda p: p % 8))
                assert got.payloads() == tuple(p % 8 for p in v.payloads())
                ag = rand_vec(G, WITT, ZZ, rng)
                f = witt_f(G, ci, ag)
                got = witt_f(G, ci, ag.map_ring(Z8, lambda p: p % 8))
                assert got.payloads() == tuple(p % 8 for p in f.payloads())



def _ind_res_transports(R, rng, lo, hi, aperiodic=True):
    """The ind/res maps against witt_v/witt_f through teichmuller (and gamma), on D4."""
    for ci in range(len(subgroup_classes(D4))):
        U = subgroup_group(D4, ci)
        a = rand_vec(D4, WITT, ZZ, rng, lo, hi).map_ring(R, lambda p: p)
        b = rand_vec(U, WITT, ZZ, rng, lo, hi).map_ring(R, lambda p: p)
        assert res_nr(D4, ci, teichmuller(a)) == teichmuller(witt_f(D4, ci, a))
        assert ind_nr(D4, ci, teichmuller(b)) == teichmuller(witt_v(D4, ci, b))
        if aperiodic:
            assert res_ap(D4, ci, gamma(a)) == gamma(witt_f(D4, ci, a))
            assert ind_ap(D4, ci, gamma(b)) == gamma(witt_v(D4, ci, b))


def test_ind_res_of_coordinate_backed_vectors():
    # over Z/8 the transports carry Witt coordinates; ind/res must act on them
    _ind_res_transports(Z8, random.Random(31), 0, 7)
    x = teichmuller(rand_vec(D4, WITT, ZZ, random.Random(32), 0, 7).map_ring(Z8, lambda p: p))
    out = res_nr(D4, 0, x)
    assert out.coord_form and out.flavor == NECKLACE and out.ring == Z8


def test_ind_res_plain_path_over_z():
    # the aperiodic restriction needs rational constants, so over Z only the necklace maps
    _ind_res_transports(ZZ, random.Random(33), -4, 4, aperiodic=False)

def test_ghost_level_companions():
    rng = random.Random(13)
    for G, R in ((C6, ZZ), (C6, Z8), (S3, ZZ), (S3, QQ), (D4, ZZ)):
        for ci in subgroup_positions(G):
            U = subgroup_group(G, ci)
            for _ in range(3):
                x = rand_vec(U, NECKLACE, R, rng, 0, 9)
                assert ghost_nu(G, ci, nr_ghost(x)) == nr_ghost(ind_nr(G, ci, x))
                y = rand_vec(G, NECKLACE, R, rng, 0, 9)
                assert ghost_F(G, ci, nr_ghost(y)) == nr_ghost(res_nr(G, ci, y))


def test_ghost_companions_match_witt_operators():
    rng = random.Random(14)
    for ci in subgroup_positions(S3):
        U = subgroup_group(S3, ci)
        for _ in range(3):
            au = rand_vec(U, WITT, ZZ, rng)
            assert wg_ghost(witt_v(S3, ci, au)) == ghost_nu(S3, ci, wg_ghost(au))
            ag = rand_vec(S3, WITT, ZZ, rng)
            assert wg_ghost(witt_f(S3, ci, ag)) == ghost_F(S3, ci, wg_ghost(ag))


def test_ghost_nu_residue_nonabelian_rejected():
    b = vec(subgroup_group(S3, 1), GHOST, Z8, [1, 2])
    with pytest.raises(NonIntegralConstant):
        ghost_nu(S3, 1, b)


def test_nr_ghost_inv_not_in_image():
    with pytest.raises(NotInImage):
        nr_ghost_inv(vec(C2, GHOST, ZZ, [0, 1]), group=C2)


# --- the vector type ---------------------------------------------------------


def test_indexed_vector_refuses_malformed_components():
    one = RingValue(ZZ, 1)
    foreign = "^components must be RingValues over the declared ring$"
    with pytest.raises(ValueError, match=foreign):
        IndexedVector(C2, WITT, ZZ, [one, RingValue(QQ, Fraction(1))])
    with pytest.raises(ValueError, match=foreign):
        IndexedVector(C2, WITT, Z8, [RingValue(parse_ring("Z/4"), 1)] * 2)
    with pytest.raises(ValueError, match=foreign):
        IndexedVector(C2, WITT, ZZ, [one, 1])  # a bare payload
    with pytest.raises(ValueError, match=r"^expected 2 components on .*, got 3$"):
        IndexedVector(C2, WITT, ZZ, [one] * 3)
    with pytest.raises(ValueError, match="^unknown flavor 'Burnside'$"):
        IndexedVector(C2, "Burnside", ZZ, [one] * 2)
    # an equal ring that is another object is the declared ring
    assert IndexedVector(C2, WITT, Z8, [RingValue(parse_ring("Z/8"), 3)] * 2).payloads() == (3, 3)


def test_from_payloads_keeps_the_shape_checks():
    with pytest.raises(ValueError, match="^unknown flavor 'Burnside'$"):
        IndexedVector.from_payloads(C2, "Burnside", ZZ, [1, 1])
    with pytest.raises(ValueError, match="^coordinate form applies to Necklace/Aperiodic"):
        IndexedVector.from_payloads(C2, WITT, ZZ, [1, 1], coord_form=True)
    with pytest.raises(ValueError, match=r"^expected 2 components on .*, got 1$"):
        IndexedVector.from_payloads(C2, WITT, ZZ, [1])


@pytest.mark.parametrize("flavor", (WITT, NECKLACE, APERIODIC, GHOST))
def test_from_payloads_equals_the_checked_constructor(flavor):
    from wittburnside.cyclic import TruncationSet

    zpoly = parse_ring("ZPoly(x,y)")
    cases = (
        (S3, ZZ, [3, 0, -1, 2]),
        (S3, QQ, [Fraction(1, 2), Fraction(0), Fraction(-3), Fraction(7, 3)]),
        (D4, Z8, [1, 7, 0, 3, 5, 2, 6, 4]),
        (C2, zpoly, [zpoly.parse_value("x+2*y"), zpoly.zero()]),
        (TruncationSet.div(6), ZZ, [1, -2, 3, 0]),
    )
    for index, ring, payloads in cases:
        for cf in (False, True) if flavor in (NECKLACE, APERIODIC) else (False,):
            fast = IndexedVector.from_payloads(index, flavor, ring, payloads, cf)
            full = IndexedVector(index, flavor, ring, [RingValue(ring, p) for p in payloads], cf)
            assert fast == full and repr(fast) == repr(full)
            assert fast.coord_form is full.coord_form is cf
            assert type(fast.components) is tuple
