"""The Witt <-> necklace transports against their lattice-exponential sums.

`teichmuller`, its inverse, `witt_f`/`witt_v`, `exp_M` and the q-transports
are each solved on the ghost tables.  The reference here computes them as
the library once did: sums of lattice exponentials M_U(r) over a Q-algebra,
peeled off class by class for the inverse, pulled back to the ring and
conjugated through teichmuller for F and V; and in the q-model the sums
T^q(a)_m = sum_{n|m} M^q(a_n, m/n) of `q_necklace_poly`, inverted by
subtraction.  Results must agree exactly, and inputs outside an image must
raise the same exception class with the same message.  The necklace and
aperiodic ghost inverses, solved on the same tables, keep the outcomes of
their earlier term-by-term loops, pinned verbatim.  All randomness is seeded.
"""
import random

import pytest

from wittburnside.burnside import (
    APERIODIC,
    GHOST,
    NECKLACE,
    WITT,
    IndexedVector,
    _is_binomial,
    exp_M,
    gamma_inv,
    ind_nr,
    nr_ghost_inv,
    res_nr,
    teichmuller,
    teichmuller_inv,
    theta_inv,
    witt_f,
    witt_v,
)
from wittburnside.cyclic import CyclicVector, TruncationSet, cyc_ghost_inv
from wittburnside.errors import (
    DomainError,
    IntegralityViolation,
    NotBinomial,
    NotInImage,
    SchemaError,
)
from wittburnside.groups import build_group, ind_class_map, subgroup_classes, subgroup_group
from wittburnside.qdeform import (
    QContext,
    q_ghost_inv,
    q_necklace_poly,
    q_teichmuller,
    q_teichmuller_inv,
)
from wittburnside.rings import QQ_Q, ZZ, ResidueRing, RingValue, divisors, parse_ring

GROUPS = ("C6", "S3", "D4", "Q8", "C12", "D6", "S4")
RINGS = ("Z", "Q", "Z/8", "ZPoly(x,y)", "QPoly(x,y)")
TRUNCATIONS = {"div12": TruncationSet.div(12), "1..12": TruncationSet(range(1, 13))}
QS = (-1, 0, 2, 3, None)


def _strategy(R):
    """The reference's class of a coefficient ring."""
    if R.is_qalgebra:
        return "qalgebra"
    return "quotient" if isinstance(R, ResidueRing) else "torsionfree"


# --- the reference: lattice exponentials -------------------------------------


def ref_exp_payloads(G, r, Rq):
    """(M_G(r, V))_V over a Q-algebra: Mobius inversion of the power ghost."""
    ghost = [Rq.pow(r, c.index) for c in subgroup_classes(G).classes]
    vec = IndexedVector.from_payloads(G, GHOST, Rq, ghost)
    return nr_ghost_inv(vec, group=G).payloads()


def ref_teichmuller_payloads(G, alphas, Rq):
    out = [Rq.zero()] * len(subgroup_classes(G))
    for ci, r in enumerate(alphas):
        if Rq.is_zero(r):
            continue
        vals = ref_exp_payloads(subgroup_group(G, ci), r, Rq)
        for pos, w in enumerate(ind_class_map(G, ci)):
            out[w] = Rq.add(out[w], vals[pos])
    return out


def ref_pull_back(vec, R, what):
    out = []
    for p, cls in zip(vec.payloads(), subgroup_classes(vec.group).classes):
        w = R.from_rationalized(p)
        if w is None:
            raise IntegralityViolation(f"{what} escaped {R.name} at class {cls.label}")
        out.append(w)
    return IndexedVector.from_payloads(vec.group, vec.flavor, R, out)


def ref_teichmuller(alpha):
    R = alpha.ring
    strat = _strategy(R)
    if strat == "quotient":
        return alpha.retag(NECKLACE, coord_form=True)
    if strat == "qalgebra":
        vals = ref_teichmuller_payloads(alpha.group, alpha.payloads(), R)
        return IndexedVector.from_payloads(alpha.group, NECKLACE, R, vals)
    Rq = R.rationalized()
    lifted = [R.to_rationalized(p) for p in alpha.payloads()]
    image = IndexedVector.from_payloads(
        alpha.group, NECKLACE, Rq, ref_teichmuller_payloads(alpha.group, lifted, Rq))
    return ref_pull_back(image, R, "teichmuller") if _is_binomial(R) else image


def ref_teichmuller_inv(x):
    if x.coord_form:
        return x.retag(WITT, coord_form=False)
    if _strategy(x.ring) == "quotient":
        raise DomainError(
            "component vectors over a residue ring have no canonical Witt "
            "coordinates; only coordinate-backed vectors invert"
        )
    G, R = x.group, x.ring
    Rq = R.rationalized()
    ct = subgroup_classes(G)
    residue = [R.to_rationalized(p) for p in x.payloads()]
    alphas = []
    for ci in range(len(ct)):
        a = residue[ci]
        alphas.append(a)
        if Rq.is_zero(a):
            continue
        vals = ref_exp_payloads(subgroup_group(G, ci), a, Rq)
        for pos, w in enumerate(ind_class_map(G, ci)):
            residue[w] = Rq.sub(residue[w], vals[pos])
    assert all(Rq.is_zero(r) for r in residue)
    out = []
    for v, cls in zip(alphas, ct.classes):
        w = R.from_rationalized(v)
        if w is None:
            raise NotInImage(
                f"vector is not a teichmuller image over {R.name} at class {cls.label}")
        out.append(w)
    return IndexedVector.from_payloads(G, WITT, R, out)


def ref_through_teichmuller(nr_map, alpha, what):
    R = alpha.ring
    strat = _strategy(R)
    if strat == "qalgebra":
        return ref_teichmuller_inv(nr_map(ref_teichmuller(alpha)))
    if strat == "quotient":
        lifted = alpha.map_ring(ZZ, lambda p: p)
        return ref_through_teichmuller(nr_map, lifted, what).map_ring(R, lambda p: p % R.modulus)
    Rq = R.rationalized()
    vec = alpha.map_ring(Rq, R.to_rationalized)
    return ref_pull_back(ref_teichmuller_inv(nr_map(ref_teichmuller(vec))), R, what)


def ref_q_teichmuller(ctx, a):
    R = a.ring
    if _strategy(R) == "quotient":
        return a.retag(NECKLACE, coord_form=True)
    if not (R.is_qalgebra or _is_binomial(R)):
        a = a.map_ring(R.rationalized(), R.to_rationalized)
    Rw, T = a.ring, a.truncation
    out = []
    for m in T:
        s = Rw.zero()
        for n in divisors(m):
            if n in T:
                s = Rw.add(s, q_necklace_poly(ctx, a.component(n), m // n).payload)
        out.append(s)
    return CyclicVector.from_payloads(T, NECKLACE, Rw, out)


def ref_q_teichmuller_inv(ctx, x):
    R, T = x.ring, x.truncation
    if x.coord_form:
        return x.retag(WITT, coord_form=False)
    if _strategy(R) == "quotient":
        raise DomainError(
            f"componentwise Necklace vectors over {R.name} have no canonical "
            "coordinate lift; only coordinate-backed images are invertible"
        )
    Rw = R if R.is_qalgebra or _is_binomial(R) else R.rationalized()
    targets = x.payloads() if Rw is R else [R.to_rationalized(p) for p in x.payloads()]
    solved = []
    for m, acc in zip(T, targets):
        for n in divisors(m):
            if n != m and n in T:
                prior = RingValue(Rw, solved[T.position(n)])
                acc = Rw.sub(acc, q_necklace_poly(ctx, prior, m // n).payload)
        solved.append(acc)
    out = []
    for m, p in zip(T, solved):
        back = R.from_rationalized(p) if Rw is not R else p
        if back is None:
            raise NotInImage(f"vector has no q-Witt preimage over {R.name} at index {m}")
        out.append(back)
    return CyclicVector.from_payloads(T, WITT, R, out)


# --- helpers -----------------------------------------------------------------


def payload(R, rng):
    if R.name.startswith(("ZPoly", "QPoly")):
        den = rng.choice((1, 2)) if R.is_qalgebra else 1
        text = f"{rng.randint(-3, 3)}/{den}*x+{rng.randint(-2, 2)}*y+{rng.randint(-3, 3)}"
        return R.parse_value(text)
    if R is QQ_Q:
        return R.parse_value(f"{rng.randint(-3, 3)}*q+{rng.randint(-3, 3)}/{rng.choice((1, 3))}")
    if R.is_qalgebra:
        return R.parse_value(f"{rng.randint(-9, 9)}/{rng.randint(1, 4)}")
    return R.from_int(rng.randint(-9, 9))


def outcome(fn, *args):
    """fn's result, or the class and message of what it raised."""
    try:
        return fn(*args)
    except (DomainError, SchemaError) as exc:
        return type(exc), str(exc)


def draw(index, flavor, R, rng):
    k = len(subgroup_classes(index)) if not isinstance(index, TruncationSet) else len(index)
    return IndexedVector.from_payloads(index, flavor, R, [payload(R, rng) for _ in range(k)])


def symbolic(R):
    return R.name.startswith(("ZPoly", "QPoly"))


# --- group model -------------------------------------------------------------


@pytest.mark.parametrize("gname", GROUPS)
@pytest.mark.parametrize("rname", RINGS)
def test_teichmuller_and_inverse_match_lattice_exponentials(gname, rname):
    G, R = build_group(gname), parse_ring(rname)
    rng = random.Random(f"transports:{gname}:{rname}")
    for _ in range(1 if symbolic(R) else 4):
        a = draw(G, WITT, R, rng)
        tau = teichmuller(a)
        assert tau == ref_teichmuller(a)
        assert teichmuller_inv(tau) == ref_teichmuller_inv(tau)
        if R.name != "ZPoly(x,y)":  # over ZPoly the image lives over QPoly
            assert teichmuller_inv(tau) == a
        # a random necklace vector: an image over Z and every Q-algebra, refused over Z/8
        x = draw(G, NECKLACE, R, rng)
        assert outcome(teichmuller_inv, x) == outcome(ref_teichmuller_inv, x)


@pytest.mark.parametrize("gname", GROUPS)
@pytest.mark.parametrize("rname", RINGS)
def test_exp_M_matches_lattice_exponentials(gname, rname):
    G, R = build_group(gname), parse_ring(rname)
    r = RingValue(R, payload(R, random.Random(f"exp:{gname}:{rname}")))
    got = outcome(exp_M, G, r)
    if _strategy(R) == "qalgebra" or R == ZZ:
        Rq = R.rationalized()
        want = IndexedVector.from_payloads(
            G, NECKLACE, Rq, ref_exp_payloads(G, R.to_rationalized(r.payload), Rq))
        assert got == (want if Rq == R else ref_pull_back(want, R, "exponential scalar"))
    else:
        assert got[0] is NotBinomial


@pytest.mark.parametrize("gname", GROUPS)
@pytest.mark.parametrize("rname", RINGS)
def test_witt_f_and_witt_v_match_on_every_class(gname, rname):
    G, R = build_group(gname), parse_ring(rname)
    rng = random.Random(f"fv:{gname}:{rname}")
    a = draw(G, WITT, R, rng)
    for ci in range(len(subgroup_classes(G))):
        got = witt_f(G, ci, a)
        assert got == ref_through_teichmuller(
            lambda x: res_nr(G, ci, x), a, "restricted Witt vector")
        b = draw(subgroup_group(G, ci), WITT, R, rng)
        assert witt_v(G, ci, b) == ref_through_teichmuller(
            lambda x: ind_nr(G, ci, x), b, "induced Witt vector")


def test_teichmuller_inv_outside_the_image_names_the_same_class():
    # over Z every necklace vector is an image (Z is binomial); over ZPoly(x,y)
    # x at one class mostly is not
    R = parse_ring("ZPoly(x,y)")
    raised = 0
    for gname in ("S3", "D4", "D6"):
        G = build_group(gname)
        k = len(subgroup_classes(G))
        for u in range(k):
            x = IndexedVector.from_payloads(
                G, NECKLACE, R, [R.parse_value("x" if i == u else "0") for i in range(k)])
            got = outcome(teichmuller_inv, x)
            assert got == outcome(ref_teichmuller_inv, x)
            if isinstance(got, tuple):
                assert got[0] is NotInImage and "at class" in got[1]
                raised += 1
    assert raised >= 3


# --- q-model -----------------------------------------------------------------


def q_rings(q):
    return ("Q[q]",) if q is None else RINGS


@pytest.mark.parametrize("tname", sorted(TRUNCATIONS))
@pytest.mark.parametrize("q", QS)
def test_q_transports_match_q_necklace_sums(tname, q):
    T = TRUNCATIONS[tname]
    ctx = QContext(q)
    for rname in q_rings(q):
        R = parse_ring(rname)
        rng = random.Random(f"qtransports:{tname}:{q}:{rname}")
        for _ in range(1 if symbolic(R) or q is None else 3):
            a = draw(T, WITT, R, rng)
            tau = q_teichmuller(ctx, a)
            assert tau == ref_q_teichmuller(ctx, a)
            assert q_teichmuller_inv(ctx, tau) == ref_q_teichmuller_inv(ctx, tau)
            if R.name != "ZPoly(x,y)":
                assert q_teichmuller_inv(ctx, tau) == a
            x = draw(T, NECKLACE, R, rng)
            assert outcome(q_teichmuller_inv, ctx, x) == outcome(ref_q_teichmuller_inv, ctx, x)


@pytest.mark.parametrize("q", (-1, 2, 3))
def test_q_teichmuller_inv_outside_the_image_names_the_same_index(q):
    R = parse_ring("ZPoly(x,y)")
    ctx = QContext(q)
    T = TRUNCATIONS["div12"]
    raised = 0
    for n in T:
        # x at one index: mostly no q-Witt preimage over ZPoly(x,y)
        comps = [R.parse_value("x") if m == n else R.zero() for m in T]
        x = CyclicVector.from_payloads(T, NECKLACE, R, comps)
        got = outcome(q_teichmuller_inv, ctx, x)
        assert got == outcome(ref_q_teichmuller_inv, ctx, x)
        if isinstance(got, tuple):
            assert got[0] is NotInImage and "at index" in got[1]
            raised += 1
    assert raised >= 3


def test_q_transports_at_the_indeterminate_need_q_ring():
    ctx = QContext(None)
    a = CyclicVector.from_ints(TRUNCATIONS["div12"], WITT, ZZ, range(6))
    assert outcome(q_teichmuller, ctx, a) == outcome(ref_q_teichmuller, ctx, a)
    assert outcome(q_teichmuller, ctx, a)[0] is SchemaError
    x = a.retag(NECKLACE)
    assert outcome(q_teichmuller_inv, ctx, x) == outcome(ref_q_teichmuller_inv, ctx, x)


def test_q_teichmuller_inv_at_the_indeterminate_needs_q_ring_on_one_member():
    # the inverse once returned its input here, though T^q itself refused
    x = CyclicVector.from_ints(TruncationSet([1]), NECKLACE, ZZ, [5])
    assert outcome(q_teichmuller_inv, QContext(None), x)[0] is SchemaError


# --- the linear ghost solves ---------------------------------------------------

# outcomes of the earlier term-by-term inverses on the ghost (0, 1) of C2 and
# of the truncation set {1, 2} (x in place of 1 over ZPoly), pinned verbatim
LINEAR_INVERSES = {
    "Z": ("NotInImage: ghost vector is not a necklace ghost over Z at index 2",
          "NotInImage: ghost vector leaves Z at index 2",
          "<Aperiodic over Z on TruncationSet([1, 2]) [0, 1]>",
          "NotInImage: ghost vector is not a necklace ghost over Z at class 1"),
    "Z/8": ("NotInImage: ghost vector is not a necklace ghost over Z/8 at index 2",
            "NotInImage: ghost vector has no necklace preimage over Z/8",
            "<Aperiodic over Z/8 on TruncationSet([1, 2]) [0, 1]>",
            "NotInImage: ghost vector is not a necklace ghost over Z/8 at class 1"),
    "Z/9": ("<Necklace over Z/9 on TruncationSet([1, 2]) [0, 5]>",
            "<Necklace over Z/9 on TruncationSet([1, 2]) [0, 5]>",
            "<Aperiodic over Z/9 on TruncationSet([1, 2]) [0, 1]>",
            "<Necklace over Z/9 on FiniteGroup(C2, order=2) [0, 5]>"),
    "ZPoly(x,y)": (
        "NotInImage: ghost vector is not a necklace ghost over ZPoly(x,y) at index 2",
        "NotInImage: ghost vector leaves ZPoly(x,y) at index 2",
        "<Aperiodic over ZPoly(x,y) on TruncationSet([1, 2]) [0, 1*x^1]>",
        "NotInImage: ghost vector is not a necklace ghost over ZPoly(x,y) at class 1"),
}


@pytest.mark.parametrize("rname", sorted(LINEAR_INVERSES))
def test_linear_ghost_inverses_keep_their_results_and_messages(rname):
    def text(fn, *args):
        got = outcome(fn, *args)
        return f"{got[0].__name__}: {got[1]}" if isinstance(got, tuple) else repr(got)

    R = parse_ring(rname)
    top = R.parse_value("x" if symbolic(R) else "1")
    g = CyclicVector.from_payloads(TruncationSet([1, 2]), GHOST, R, [R.zero(), top])
    h = IndexedVector.from_payloads(build_group("C2"), GHOST, R, [R.zero(), top])
    ctx = QContext(2)
    assert (text(cyc_ghost_inv, g, NECKLACE), text(q_ghost_inv, ctx, g, NECKLACE),
            text(q_ghost_inv, ctx, g, APERIODIC), text(nr_ghost_inv, h)) == LINEAR_INVERSES[rname]


def test_each_model_names_its_flavor_check():
    # the ghost maps and transports share their bodies across the models; each
    # public name still refuses a wrong flavor in its own words
    import wittburnside.burnside as B
    import wittburnside.cyclic as C
    import wittburnside.qdeform as Q

    G, T, ctx = build_group("S3"), TruncationSet.div(6), QContext(2)
    on = {"group": G, "set": T}
    cases = [
        (B.wg_ghost, "group", (), NECKLACE, "wg_ghost expects a Witt vector"),
        (B.nr_ghost, "group", (), WITT, "nr_ghost expects a Necklace vector"),
        (B.ap_ghost, "group", (), WITT, "ap_ghost expects an Aperiodic vector"),
        (B.nr_ghost_inv, "group", (), WITT, "nr_ghost_inv expects a Ghost vector"),
        (B.ap_ghost_inv, "group", (), APERIODIC, "ap_ghost_inv expects a Ghost vector"),
        (B.teichmuller, "group", (), GHOST, "teichmuller expects a Witt vector"),
        (B.teichmuller_inv, "group", (), APERIODIC, "teichmuller_inv expects a Necklace vector"),
        (C.cyc_witt_ghost, "set", (), GHOST, "cyc_witt_ghost expects a Witt vector"),
        (C.cyc_ghost, "set", (), GHOST, "vector is already a Ghost vector"),
        (C.cyc_ghost_inv, "set", (), WITT, "cyc_ghost_inv expects a Ghost vector"),
        (Q.q_witt_ghost, "set", (ctx,), APERIODIC, "q_witt_ghost expects a Witt vector"),
        (Q.q_ghost, "set", (ctx,), GHOST, "vector is already a Ghost vector"),
        (Q.q_ghost_inv, "set", (ctx,), NECKLACE, "q_ghost_inv expects a Ghost vector"),
        (Q.q_teichmuller, "set", (ctx,), NECKLACE, "q_teichmuller expects a Witt vector"),
        (Q.q_teichmuller_inv, "set", (ctx,), WITT, "q_teichmuller_inv expects a Necklace vector"),
    ]
    for fn, index, head, flavor, message in cases:
        x = IndexedVector.zero(on[index], flavor, ZZ)
        tail = (NECKLACE,) if fn in (C.cyc_ghost_inv, Q.q_ghost_inv) else ()
        with pytest.raises(ValueError) as err:
            fn(*head, x, *tail)
        assert str(err.value) == message, fn.__name__


def test_gamma_inv_refuses_a_coordinate_backed_necklace_vector():
    # gamma_inv is teichmuller_inv after theta_inv, whose flavor check applies
    # to a coordinate-backed vector too; it once returned its coordinates
    x = teichmuller(IndexedVector.from_ints(build_group("S3"), WITT, ResidueRing(8), [3, 5, 1, 2]))
    assert x.coord_form and x.flavor == NECKLACE
    with pytest.raises(ValueError) as want:
        theta_inv(x)
    with pytest.raises(ValueError) as got:
        gamma_inv(x)
    assert str(got.value) == str(want.value) == "theta_inv expects an Aperiodic vector"
