"""The linear transports between the flavors against their term-by-term loops.

`ap_ghost`, `ap_ghost_inv`, induction, restriction, `ghost_nu` and the
index scaling theta each run on one sparse linear table.  The reference
here computes them as the library once did, one hand-written loop each:
the aperiodic ghost as the marks transpose scaled column by column by
1/(G:V), induction along class fusion, restriction over the orbit counts
of the subgroup on each G/V (input classes outermost), and theta as a
componentwise scaling by (G:V) or n.  Results must agree exactly; a
refused input must raise the same exception class with the same message,
down to the fractional constant a `NonIntegralConstant` names.  Every draw
has a zero component: a zero polynomial is truthy, so only `is_zero` may
skip it.  All randomness is seeded.
"""
import random
from fractions import Fraction

import pytest

from wittburnside import burnside
from wittburnside.burnside import (
    APERIODIC,
    GHOST,
    NECKLACE,
    WITT,
    IndexedVector,
    _ind_table,
    _nu_table,
    ap_ghost,
    ap_ghost_inv,
    ghost_nu,
    ind_ap,
    ind_nr,
    nr_ghost,
    nr_ghost_inv,
    res_ap,
    res_nr,
    teichmuller,
    teichmuller_inv,
    theta,
    theta_inv,
    wg_ghost,
    witt_f,
    witt_v,
)
from wittburnside.cyclic import TruncationSet, cyc_ghost, cyc_ghost_inv, cyc_theta, cyc_theta_inv
from wittburnside.errors import (
    DomainError,
    NonIntegralConstant,
    NotInImage,
    NotInvertibleIndex,
    SchemaError,
)
from wittburnside.groups import (
    build_group,
    ind_class_map,
    marks_matrix,
    res_orbit_data,
    subgroup_classes,
    subgroup_group,
)
from wittburnside.rings import ZZ, ResidueRing, parse_ring

GROUPS = ("C2", "C6", "S3", "D4", "Q8", "C12", "D6", "S4")
RINGS = ("Z", "Q", "Z/8", "Z/9", "ZPoly(x,y)", "QPoly(x,y)")
TRUNCATIONS = {"div12": TruncationSet.div(12), "1..12": TruncationSet(range(1, 13))}


def _strategy(R):
    """The reference's class of a coefficient ring."""
    if R.is_qalgebra:
        return "qalgebra"
    return "quotient" if isinstance(R, ResidueRing) else "torsionfree"


# --- the reference: the term-by-term loops -------------------------------------


def ref_ap_coeff(R, f, context):
    if f.denominator == 1:
        return R.from_int(f.numerator)
    if R.is_qalgebra:
        return R.from_fraction(f)
    raise NonIntegralConstant(f"{context}: constant {f} needs rational coefficients in {R.name}")


def ref_ap_ghost(x):
    if x.coord_form:
        return wg_ghost(x.retag(WITT, coord_form=False))
    G = x.group
    ct = subgroup_classes(G)
    mm = marks_matrix(G)
    R = x.ring
    xs = x.payloads()
    out = []
    for u in range(len(xs)):
        s = R.zero()
        for v in range(u + 1):
            m = mm.zeta.entry(v, u)
            if m == 0 or R.is_zero(xs[v]):
                continue
            c = ref_ap_coeff(R, Fraction(m, ct.classes[v].index), "aperiodic ghost")
            s = R.add(s, R.mul(c, xs[v]))
        out.append(s)
    return IndexedVector.from_payloads(G, GHOST, R, out)


def ref_ap_ghost_inv(b, group=None):
    G = group or b.group
    ct = subgroup_classes(G)
    mm = marks_matrix(G)
    R = b.ring
    bs = b.payloads()
    xs = []
    for u in range(len(bs)):
        acc = bs[u]
        for v in range(u):
            m = mm.zeta.entry(v, u)
            if m == 0 or R.is_zero(xs[v]):
                continue
            c = ref_ap_coeff(R, Fraction(m, ct.classes[v].index), "aperiodic ghost inverse")
            acc = R.sub(acc, R.mul(c, xs[v]))
        diag = Fraction(mm.zeta.entry(u, u), ct.classes[u].index)
        if diag.denominator == 1:
            q = R.try_div(acc, R.from_int(diag.numerator))
        elif R.is_qalgebra:
            q = R.try_div(acc, R.from_fraction(diag))
        else:
            # the forward map refuses this constant on a non-zero payload
            q = R.zero() if R.is_zero(acc) else None
        if q is None:
            raise NotInImage(
                f"ghost vector is not an aperiodic ghost over {R.name} at class "
                f"{ct.classes[u].label}"
            )
        xs.append(q)
    return IndexedVector.from_payloads(G, APERIODIC, R, xs)


def ref_ind_nr(G, ci, x):
    if x.coord_form:
        return witt_v(G, ci, x.retag(WITT, coord_form=False)).retag(x.flavor, coord_form=True)
    R = x.ring
    out = [R.zero()] * len(subgroup_classes(G))
    for pos, w in enumerate(ind_class_map(G, ci)):
        out[w] = R.add(out[w], x.payloads()[pos])
    return IndexedVector.from_payloads(G, NECKLACE, R, out)


def ref_ind_ap(G, ci, x):
    if x.coord_form:
        return witt_v(G, ci, x.retag(WITT, coord_form=False)).retag(x.flavor, coord_form=True)
    R = x.ring
    idx = subgroup_classes(G).classes[ci].index
    out = [R.zero()] * len(subgroup_classes(G))
    for pos, w in enumerate(ind_class_map(G, ci)):
        out[w] = R.add(out[w], R.mul(R.from_int(idx), x.payloads()[pos]))
    return IndexedVector.from_payloads(G, APERIODIC, R, out)


def ref_res_nr(G, ci, x):
    if x.coord_form:
        return witt_f(G, ci, x.retag(WITT, coord_form=False)).retag(x.flavor, coord_form=True)
    U = subgroup_group(G, ci)
    R = x.ring
    out = [R.zero()] * len(subgroup_classes(U))
    for cj, p in enumerate(x.payloads()):
        if R.is_zero(p):
            continue
        for (w, m) in res_orbit_data(G, ci, cj):
            out[w] = R.add(out[w], R.mul(R.from_int(m), p))
    return IndexedVector.from_payloads(U, NECKLACE, R, out)


def ref_res_ap(G, ci, x):
    if x.coord_form:
        return witt_f(G, ci, x.retag(WITT, coord_form=False)).retag(x.flavor, coord_form=True)
    ct = subgroup_classes(G)
    U = subgroup_group(G, ci)
    ut = subgroup_classes(U)
    R = x.ring
    out = [R.zero()] * len(ut)
    for cj, p in enumerate(x.payloads()):
        if R.is_zero(p):
            continue
        gv = ct.classes[cj].index
        for (w, m) in res_orbit_data(G, ci, cj):
            uw = U.order // ut.classes[w].order
            c = ref_ap_coeff(R, Fraction(m * uw, gv), "aperiodic restriction")
            out[w] = R.add(out[w], R.mul(c, p))
    return IndexedVector.from_payloads(U, APERIODIC, R, out)


def ref_ghost_nu(G, ci, b):
    R = b.ring
    ct = subgroup_classes(G)
    if G.is_abelian():
        idx = R.from_int(ct.classes[ci].index)
        back = {w: pos for pos, w in enumerate(ind_class_map(G, ci))}
        out = []
        for w in range(len(ct)):
            if w in back:
                out.append(R.mul(idx, b.payloads()[back[w]]))
            else:
                out.append(R.zero())
        return IndexedVector.from_payloads(G, GHOST, R, out)
    U = subgroup_group(G, ci)
    if R.is_qalgebra:
        return nr_ghost(ref_ind_nr(G, ci, nr_ghost_inv(b, group=U)))
    if _strategy(R) == "quotient":
        raise NonIntegralConstant(
            "ghost-level induction over a residue ring needs an abelian group"
        )
    vec = b.map_ring(R.rationalized(), R.to_rationalized)
    res = nr_ghost(ref_ind_nr(G, ci, nr_ghost_inv(vec, group=U)))
    out = []
    for p, cls in zip(res.payloads(), ct.classes):
        w = R.from_rationalized(p)
        if w is None:
            raise NotInImage(f"ghost induction leaves {R.name} at class {cls.label}")
        out.append(w)
    return IndexedVector.from_payloads(G, GHOST, R, out)


def ref_theta(x):
    if x.coord_form:
        return x.retag(APERIODIC)
    R = x.ring
    out = [R.mul(R.from_int(c.index), p)
           for c, p in zip(subgroup_classes(x.group).classes, x.payloads())]
    return IndexedVector.from_payloads(x.group, APERIODIC, R, out)


def ref_theta_inv(y):
    if y.coord_form:
        return y.retag(NECKLACE)
    R = y.ring
    out = []
    for c, p in zip(subgroup_classes(y.group).classes, y.payloads()):
        q = R.try_div(p, R.from_int(c.index))
        if q is None:
            raise NotInvertibleIndex(c.label)
        out.append(q)
    return IndexedVector.from_payloads(y.group, NECKLACE, R, out)


def ref_cyc_theta(x):
    R = x.ring
    out = [R.mul(R.from_int(n), x.component(n).payload) for n in x.truncation]
    return IndexedVector.from_payloads(x.truncation, APERIODIC, R, out)


def ref_cyc_theta_inv(y):
    R = y.ring
    out = []
    for n in y.truncation:
        q = R.try_div(y.component(n).payload, R.from_int(n))
        if q is None:
            raise NotInvertibleIndex(str(n))
        out.append(q)
    return IndexedVector.from_payloads(y.truncation, NECKLACE, R, out)


def ref_cyc_ap_ghost(x):
    R, T = x.ring, x.truncation
    out = []
    for n in T:
        s = R.zero()
        for d in T.divisors(n):
            s = R.add(s, x.component(d).payload)
        out.append(s)
    return IndexedVector.from_payloads(T, GHOST, R, out)


def ref_cyc_ap_ghost_inv(b):
    # the aperiodic ghost rows are unitriangular: subtract the proper divisors
    R, T = b.ring, b.truncation
    xs = {}
    for n in T:
        acc = b.component(n).payload
        for d in T.divisors(n)[:-1]:
            acc = R.sub(acc, xs[d])
        xs[n] = acc
    return IndexedVector.from_payloads(T, APERIODIC, R, [xs[n] for n in T])


# --- helpers -------------------------------------------------------------------


def payload(R, rng):
    if rng.random() < 0.3:
        return R.zero()
    if R.name.startswith(("ZPoly", "QPoly")):
        den = rng.choice((1, 2)) if R.is_qalgebra else 1
        text = f"{rng.randint(-3, 3)}/{den}*x+{rng.randint(-2, 2)}*y+{rng.randint(-3, 3)}"
        return R.parse_value(text)
    if R.is_qalgebra:
        return R.parse_value(f"{rng.randint(-9, 9)}/{rng.randint(1, 4)}")
    return R.from_int(rng.randint(-9, 9))


def draw(index, flavor, R, rng):
    """Random payloads with at least one zero component."""
    k = len(index) if isinstance(index, TruncationSet) else len(subgroup_classes(index))
    ps = [payload(R, rng) for _ in range(k)]
    ps[rng.randrange(k)] = R.zero()
    return IndexedVector.from_payloads(index, flavor, R, ps)


def outcome(fn, *args):
    """fn's result, or the class and message of what it raised."""
    try:
        return fn(*args)
    except (DomainError, SchemaError) as exc:
        return type(exc), str(exc)


def same(fn, ref, *args):
    got, want = outcome(fn, *args), outcome(ref, *args)
    assert got == want, (fn.__name__, args, got, want)
    return got


def symbolic(R):
    return R.name.startswith(("ZPoly", "QPoly"))


def coordinate_backed(G, R, rng):
    """A necklace vector over Z/m stored through its Witt coordinates."""
    return teichmuller(draw(G, WITT, R, rng))


# --- group model -----------------------------------------------------------------


@pytest.mark.parametrize("gname", GROUPS)
@pytest.mark.parametrize("rname", RINGS)
def test_aperiodic_ghost_and_inverse_match_marks_loops(gname, rname):
    G, R = build_group(gname), parse_ring(rname)
    rng = random.Random(f"ap_ghost:{gname}:{rname}")
    k = len(subgroup_classes(G))
    for _ in range(2 if symbolic(R) else 4):
        x = draw(G, APERIODIC, R, rng)
        ghost = same(ap_ghost, ref_ap_ghost, x)
        if isinstance(ghost, IndexedVector):
            same(ap_ghost_inv, ref_ap_ghost_inv, ghost)
        same(ap_ghost_inv, ref_ap_ghost_inv, draw(G, GHOST, R, rng))
    same(ap_ghost_inv, ref_ap_ghost_inv, IndexedVector.zero(G, GHOST, R))
    ones = IndexedVector.from_ints(G, APERIODIC, R, [1] * k)
    same(ap_ghost, ref_ap_ghost, ones)
    same(ap_ghost_inv, ref_ap_ghost_inv, IndexedVector.from_ints(G, GHOST, R, [1] * k))
    if R.name.startswith("Z/"):
        x = coordinate_backed(G, R, rng).retag(APERIODIC)
        same(ap_ghost, ref_ap_ghost, x)


@pytest.mark.parametrize("gname", ("S3", "D4", "D6"))
@pytest.mark.parametrize("rname", ("Z", "Z/8", "Z/9", "ZPoly(x,y)", "QPoly(x,y)"))
def test_aperiodic_ghost_inverse_returns_exactly_the_preimages(gname, rname):
    # outside a Q-algebra the ghost takes only a zero payload at a class V
    # that is not normal, where the diagonal weight is 1/(G:N(V)); in Z/8
    # and Z/9 the index 2 or 3 under it is a zero divisor; a refusal names
    # the class the marks loop names
    G, R = build_group(gname), parse_ring(rname)
    normal = [c.normalizer_index == 1 for c in subgroup_classes(G).classes]
    assert not all(normal)
    rng = random.Random(f"ap round trip:{gname}:{rname}")
    # a vector supported on normal subgroups is in the ghost's domain
    vectors = [IndexedVector.one(G, APERIODIC, R), IndexedVector.zero(G, APERIODIC, R)]
    for _ in range(8):
        vectors.append(IndexedVector.from_ints(
            G, APERIODIC, R, [rng.randint(-9, 9) if n else 0 for n in normal]))
    for x in vectors:
        assert ap_ghost_inv(ap_ghost(x)) == x
    # any other ghost has a preimage or is refused
    k = len(normal)
    ghosts = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(40)]
    ghosts += [[c if i == j else 0 for i in range(k)] for j in range(k) for c in (1, 2, 3, 4)]
    for ints in ghosts:
        b = IndexedVector.from_ints(G, GHOST, R, ints)
        x = same(ap_ghost_inv, ref_ap_ghost_inv, b)
        if isinstance(x, IndexedVector):
            assert ap_ghost(x) == b
        else:
            assert x[0] is NotInImage


@pytest.mark.parametrize("gname", GROUPS)
@pytest.mark.parametrize("rname", RINGS)
def test_theta_and_inverse_match_index_scaling(gname, rname):
    G, R = build_group(gname), parse_ring(rname)
    rng = random.Random(f"theta:{gname}:{rname}")
    for _ in range(3):
        x = draw(G, NECKLACE, R, rng)
        y = same(theta, ref_theta, x)
        same(theta_inv, ref_theta_inv, y)
        same(theta_inv, ref_theta_inv, draw(G, APERIODIC, R, rng))
    if R.name.startswith("Z/"):
        x = coordinate_backed(G, R, rng)
        same(theta_inv, ref_theta_inv, same(theta, ref_theta, x))


@pytest.mark.parametrize("gname", GROUPS)
@pytest.mark.parametrize("rname", RINGS)
def test_induction_and_restriction_match_fusion_and_orbit_loops(gname, rname):
    G, R = build_group(gname), parse_ring(rname)
    rng = random.Random(f"indres:{gname}:{rname}")
    for ci in range(len(subgroup_classes(G))):
        U = subgroup_group(G, ci)
        same(ind_nr, ref_ind_nr, G, ci, draw(U, NECKLACE, R, rng))
        same(ind_ap, ref_ind_ap, G, ci, draw(U, APERIODIC, R, rng))
        same(res_nr, ref_res_nr, G, ci, draw(G, NECKLACE, R, rng))
        same(res_ap, ref_res_ap, G, ci, draw(G, APERIODIC, R, rng))
        same(ghost_nu, ref_ghost_nu, G, ci, draw(U, GHOST, R, rng))
        if R.name.startswith("Z/") and G.order <= 12:
            x = coordinate_backed(G, R, rng)
            same(res_nr, ref_res_nr, G, ci, x)
            same(res_ap, ref_res_ap, G, ci, x.retag(APERIODIC))


@pytest.mark.parametrize("gname", ("S3", "D4", "D6", "S4"))
def test_aperiodic_restriction_names_constants_in_input_order(gname):
    # over Z and ZPoly the first fractional constant met, scanning input
    # classes outermost, names the message
    G = build_group(gname)
    k = len(subgroup_classes(G))
    for R in (ZZ, parse_ring("ZPoly(x,y)")):
        rng = random.Random(f"res_ap order:{gname}")
        ones = IndexedVector.from_ints(G, APERIODIC, R, [1] * k)
        for ci in range(k):
            same(res_ap, ref_res_ap, G, ci, ones)
            for _ in range(12):
                # sparse supports: several fractional constants, met in different orders
                x = IndexedVector.from_ints(G, APERIODIC, R, [rng.random() < 0.3 for _ in range(k)])
                same(res_ap, ref_res_ap, G, ci, x)


@pytest.mark.parametrize("gname", GROUPS + ("D12",))
def test_mobius_table_inverts_the_marks(gname):
    # the Mobius table, solved row by row on the necklace ghost table, is the
    # inverse of the table of marks on both sides
    mm = marks_matrix(build_group(gname))
    n = len(mm.zeta.rows)
    for i in range(n):
        for k in range(n):
            left = sum(mm.mobius.entry(i, j) * mm.zeta.entry(j, k) for j in range(n))
            right = sum(mm.zeta.entry(i, j) * mm.mobius.entry(j, k) for j in range(n))
            assert left == right == (i == k), (gname, i, k)


ABELIAN = tuple(f"C{n}" for n in range(1, 25)) + ("D2",)


@pytest.mark.parametrize("gname", GROUPS + ("D12", "C24"))
def test_nu_table_weights_are_positive_ints(gname):
    G = build_group(gname)
    for ci in range(len(subgroup_classes(G))):
        table = _nu_table(G, ci)
        assert len(table) == len(subgroup_classes(G))
        for row in table:
            for w, count, exp, qpow in row:
                assert type(count) is int and count > 0 and (exp, qpow) == (1, 0), (gname, ci, row)


NAMED = (tuple(f"C{n}" for n in range(1, 25)) + tuple(f"D{n}" for n in range(2, 13))
         + ("S1", "S2", "S3", "S4", "Q8"))
# A4, C3 wr C2, S3 x C2, C7 : C3 and S4, given by generators in cycle notation
CYCLE_NOTATION = ("(1 2 3), (1 2)(3 4)", "(1 2 3), (1 4)(2 5)(3 6)", "(1 2 3), (1 2), (4 5)",
                  "(1 2 3 4 5 6 7), (2 3 5)(4 7 6)", "(1 2 3 4), (1 2)")


def composite_nu_table(G, ci):
    """ghost_nu's table as the rational composite nr_ghost(ind_nr(nr_ghost_inv(e_W)))
    at each unit ghost e_W of U = rep(ci): column W, with its zero entries left out."""
    U = subgroup_group(G, ci)
    k = len(subgroup_classes(U))
    cols = []
    for w in range(k):
        e_w = IndexedVector.from_ints(U, GHOST, parse_ring("Q"), [int(v == w) for v in range(k)])
        cols.append(nr_ghost(ind_nr(G, ci, nr_ghost_inv(e_w))).payloads())
    return tuple(tuple((w, col[v], 1, 0) for w, col in enumerate(cols) if col[v])
                 for v in range(len(subgroup_classes(G))))


@pytest.mark.parametrize("gname", NAMED + CYCLE_NOTATION)
def test_nu_table_counts_what_the_composite_of_the_transports_gives(gname):
    # the orbit count of ghost-level induction against its definition through
    # the necklace ghost and induction, solved over Q
    G = build_group(gname)
    for ci in range(len(subgroup_classes(G))):
        assert _nu_table(G, ci) == composite_nu_table(G, ci), (gname, ci)


@pytest.mark.parametrize("gname", ABELIAN)
def test_nu_table_on_an_abelian_group_is_aperiodic_induction(gname):
    # fusion is injective on an abelian group, so ghost_nu scales by (G:U)
    G = build_group(gname)
    for ci in range(len(subgroup_classes(G))):
        assert _nu_table(G, ci) == _ind_table(G, ci, APERIODIC), (gname, ci)


def former_witt_v(G, ci, alpha):
    """witt_v by its former route: the Witt coordinates of the induced
    teichmuller image, over Z/m lifted to Z and reduced."""
    R = alpha.ring
    if isinstance(R, ResidueRing):
        return former_witt_v(G, ci, alpha.map_ring(ZZ, int)).map_ring(R, R.from_int)
    return teichmuller_inv(ind_nr(G, ci, teichmuller(alpha))).map_ring(R, R.from_rationalized)


@pytest.mark.parametrize("gname", ("S3", "D4", "D6", "S4"))
def test_witt_v_solves_without_teichmuller_or_induction(gname, monkeypatch):
    G = build_group(gname)
    rng = random.Random(f"witt_v:{gname}")
    cases = [(ci, draw(subgroup_group(G, ci), WITT, parse_ring(rname), rng))
             for rname in ("Z", "Q", "ZPoly(x,y)", "Z/8")
             for ci in range(len(subgroup_classes(G)))]
    want = [former_witt_v(G, ci, a) for ci, a in cases]

    def refuse(*args):
        raise AssertionError("witt_v went through teichmuller or ind_nr")

    monkeypatch.setattr(burnside, "teichmuller", refuse)
    monkeypatch.setattr(burnside, "ind_nr", refuse)
    burnside._nu_table.cache_clear()  # the table is built under the patch too
    assert [witt_v(G, ci, a) for ci, a in cases] == want


# --- cyclic model ----------------------------------------------------------------


@pytest.mark.parametrize("tname", sorted(TRUNCATIONS))
@pytest.mark.parametrize("rname", RINGS)
def test_cyclic_theta_and_aperiodic_ghost_match_loops(tname, rname):
    T, R = TRUNCATIONS[tname], parse_ring(rname)
    rng = random.Random(f"cyclic:{tname}:{rname}")
    for _ in range(3):
        x = draw(T, NECKLACE, R, rng)
        y = same(cyc_theta, ref_cyc_theta, x)
        same(cyc_theta_inv, ref_cyc_theta_inv, y)
        same(cyc_theta_inv, ref_cyc_theta_inv, draw(T, APERIODIC, R, rng))
        a = draw(T, APERIODIC, R, rng)
        same(cyc_ghost, ref_cyc_ap_ghost, a)
        b = draw(T, GHOST, R, rng)
        assert outcome(cyc_ghost_inv, b, APERIODIC) == outcome(ref_cyc_ap_ghost_inv, b)
