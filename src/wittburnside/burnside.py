"""Witt-Burnside, necklace and aperiodic rings of a finite group.

A vector is a function on classes of open subgroups, with values in one
coefficient ring.  One class, IndexedVector, serves every model: its index is
a finite group (the vector lives on its subgroup classes) or a truncation set
(the indices n of open subgroups of the profinite cyclic group, see
`cyclic`).  This module holds the group model.  Four flavors share the
container:

    Witt       ring operations solved on the ghost table
    Necklace   componentwise addition, double-coset structure constants
    Aperiodic  componentwise addition, index-weighted structure constants
    Ghost      componentwise everything (the product target of ghost maps)

A necklace or aperiodic product, on a group as on a truncation set, is the
solve of the ghosts' pointwise product on the flavor's ghost table
(`_flavor_mul`): the product that makes the ghost map a ring homomorphism.
Only an aperiodic product outside a Q-algebra on a group with a subgroup
that is not normal, whose table has Fraction weights, is one loop
(`_table_mul`) over the group's index-weighted double-coset constants.

Transports between the flavors:

    wg_ghost    Witt      -> Ghost     exponent-weighted fixed-point sums
    nr_ghost    Necklace  -> Ghost     marks transpose (integer, invertible
                                       by a triangular solve)
    ap_ghost    Aperiodic -> Ghost     the nr_ghost table with each weight
                                       over the index (G:V): a Fraction, which
                                       needs a Q-algebra, in the column of a
                                       class V that is not normal
    teichmuller Witt      -> Necklace  the necklace solve of the Witt ghost
    teichmuller_inv                    the Witt solve of the necklace ghost
    theta       Necklace  -> Aperiodic componentwise scaling by the index
                                       (G:V), or n on a truncation set
    gamma       Witt      -> Aperiodic theta after teichmuller
    witt_f      Witt on G -> Witt on U the Witt solve on U of G's ghost read
                                       off along class fusion (ghost_F)
    witt_v      Witt on U -> Witt on G the Witt solve on G of ghost_nu

Every transport is determined by its ghost map (Dress-Siebeneicher), so each
one solves, on the ghost tables the Witt operations use
(`universal.ghost_table`), the necklace table being the Witt table with
every exponent 1 and the aperiodic table that one over the index
(`universal.flavor_table`), for the ghost of its input, read off along an
optional linear map.  Teichmuller and its inverse, witt_v and witt_f are
each one memoised `universal.GhostSystem` (`_transport_system`,
`_witt_v_system`, `_witt_f_system`) applied as a ring operation is
(`_solve`), so polynomial payloads reach its point route; the inverse
ghosts solve a given ghost (`_ghost_inv`).  Induction, restriction and
ghost_nu are linear tables too, run by `universal.ghost_values`.
The ghost, its inverse and Teichmuller and its inverse are written once
(`_ghost`, `_ghost_inv`, `_teichmuller`, `_teichmuller_inv`) for any index
set, with the q-model's q as an optional argument; wg_ghost, cyc_ghost,
q_ghost and the rest check the flavor and name the errors of their model.

Coefficient strategy: over a Q-algebra every solve stays in the ring; over
Z every division is exact (Z is a binomial ring, so that is a theorem, not
a hope; a failing row raises); over integer polynomial rings teichmuller,
whose image needs denominators, is returned over the rationalised ring;
over Z/m the necklace/aperiodic images of Witt vectors have no canonical
component form at all, so they are carried as their Witt coordinates
(`coord_form=True`) and all ring operations delegate to the Witt
operations on those coordinates.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import (
    DomainError,
    IntegralityViolation,
    NonIntegralConstant,
    NotBinomial,
    NotInImage,
    NotInvertibleIndex,
)
from .groups import (
    FiniteGroup,
    ind_class_map,
    res_orbit_data,
    structure_constants,
    subgroup_classes,
    subgroup_group,
)
from .rings import ZZ, PolyRing, QPolyRing, ResidueRing, RingSpec, RingValue, parse_ring
from .universal import (
    APERIODIC,
    GHOST,
    NECKLACE,
    WITT,
    GhostSystem,
    check_op,
    flavor_table,
    ghost_system,
    ghost_table,
    ghost_values,
    index_labels,
    linear_table,
    refused_constant,
    row_error,
    solve_triangular,
    subgroup_indices,
)

FLAVORS = (WITT, NECKLACE, APERIODIC, GHOST)


class IndexedVector:
    """Ring values on an index set, tagged with a flavor.

    The index is a FiniteGroup (one component per subgroup class) or a
    TruncationSet (one per member); `group` and `truncation` are read-only
    names of it.  coord_form marks a Necklace/Aperiodic vector stored through
    its Witt coordinates (the residue-ring presentation of the transports).
    A vector holds the payloads of its components; `components` builds their
    RingValues when read.
    """

    __slots__ = ("index", "flavor", "ring", "_payloads", "coord_form")

    def __init__(self, index, flavor, ring, components, coord_form=False):
        comps = tuple(components)
        self._init(index, flavor, ring, comps, coord_form)  # the shape checks first
        for c in comps:
            if not isinstance(c, RingValue) or (c.spec is not ring and c.spec != ring):
                raise ValueError("components must be RingValues over the declared ring")
        self._payloads = tuple(c.payload for c in comps)

    def _init(self, index, flavor, ring, payloads, coord_form):
        if flavor not in FLAVORS:
            raise ValueError(f"unknown flavor {flavor!r}")
        if coord_form and flavor not in (NECKLACE, APERIODIC):
            raise ValueError("coordinate form applies to Necklace/Aperiodic flavors only")
        n = len(index_labels(index))
        if len(payloads) != n:
            raise ValueError(f"expected {n} components on {index!r}, got {len(payloads)}")
        self.index = index
        self.flavor = flavor
        self.ring = ring
        self._payloads = payloads
        self.coord_form = bool(coord_form)

    group = truncation = property(lambda self: self.index)

    @property
    def components(self):
        return tuple(RingValue(self.ring, p) for p in self._payloads)

    @classmethod
    def from_payloads(cls, index, flavor, ring, payloads, coord_form=False):
        # the library's own payloads are elements of ring: no re-check
        self = cls.__new__(cls)
        self._init(index, flavor, ring, tuple(payloads), coord_form)
        return self

    @classmethod
    def from_ints(cls, index, flavor, ring, ints, coord_form=False):
        return cls.from_payloads(index, flavor, ring, map(ring.from_int, ints), coord_form)

    @classmethod
    def zero(cls, index, flavor, ring):
        return cls.from_ints(index, flavor, ring, [0] * len(index_labels(index)))

    @classmethod
    def one(cls, index, flavor, ring):
        # 1 at the whole group: the one-point G-set, or the index 1
        return cls.from_ints(index, flavor, ring, [1] + [0] * (len(index_labels(index)) - 1))

    def payloads(self):
        return self._payloads

    def labels(self):
        return index_labels(self.index)

    def component(self, n: int):
        """The component at the member n of a truncation set."""
        return RingValue(self.ring, self._payloads[self.index.position(n)])

    def retag(self, flavor, coord_form=None):
        cf = self.coord_form if coord_form is None else coord_form
        return IndexedVector.from_payloads(self.index, flavor, self.ring, self._payloads, cf)

    def with_components(self, components):
        return IndexedVector(self.index, self.flavor, self.ring, components, self.coord_form)

    def map_ring(self, target: RingSpec, fn):
        """Componentwise morphism into another ring (fn acts on payloads)."""
        return IndexedVector.from_payloads(
            self.index, self.flavor, target, map(fn, self._payloads), self.coord_form)

    def __eq__(self, other):
        return (
            isinstance(other, IndexedVector)
            and self.index == other.index
            and self.flavor == other.flavor
            and self.ring == other.ring
            and self.coord_form == other.coord_form
            and self._payloads == other._payloads
        )

    def __repr__(self):
        vals = ", ".join(map(self.ring.format_value, self._payloads))
        tag = "#coords" if self.coord_form else ""
        return f"<{self.flavor}{tag} over {self.ring.name} on {self.index!r} [{vals}]>"


def _is_binomial(ring: RingSpec) -> bool:
    # rings where exponential sums of the lattice are guaranteed integral
    return ring == ZZ


def _check_operands(name, flavor, op, x, y=None):
    """x, and y for a binary op, are operands of the ring operation op of flavor."""
    if x.flavor != flavor:
        raise ValueError(f"{name} expects {flavor} vectors")
    if (y is None) != (op == "neg"):
        raise ValueError("binary ops need two operands, neg exactly one")
    if y is not None and (x.index != y.index or x.ring != y.ring or x.flavor != y.flavor
                          or x.coord_form != y.coord_form):
        raise ValueError("operands live in different index sets/rings/flavors/forms")


def _flavor_op(op, x, y, witt_op, q=None):
    """A Necklace/Aperiodic ring operation: sum and neg componentwise, prod by
    `_flavor_mul` (q as there); a coordinate-backed vector applies witt_op to
    its coordinates."""
    if x.coord_form:
        out = witt_op(op, x.retag(WITT, coord_form=False),
                      y.retag(WITT, coord_form=False) if y is not None else None)
        return out.retag(x.flavor, coord_form=True)
    if op in ("neg", "sum"):
        R = x.ring
        out = map(R.neg, x.payloads()) if op == "neg" else map(R.add, x.payloads(), y.payloads())
        return IndexedVector.from_payloads(x.index, x.flavor, R, out)
    if op != "prod":
        raise ValueError(f"unknown op {op!r}")
    return _flavor_mul(x, y, q)


def _solve(system: GhostSystem, x: IndexedVector, y=None, q=None, flavor=None) -> IndexedVector:
    """The operation of `system` at x (and y), solved on the ghosts: a vector
    on the system's structure with x's ring and form, and x's flavor unless
    a transport names its own.  q is the q-model's q as a function of the
    ring, None outside the q-model, and is taken only here, once the caller
    has built the system's table (as in `_ghost`)."""
    xs = x.payloads() + (y.payloads() if y is not None else ())
    out = system.apply(x.ring, xs, q and q(x.ring))
    return IndexedVector.from_payloads(system.structure, flavor or x.flavor, x.ring, out,
                                       x.coord_form)


@lru_cache(maxsize=None)
def _fractional(index) -> bool:
    """Has the classical aperiodic table of index a Fraction weight?  Only a
    group with a subgroup that is not normal has one."""
    return any(type(w) is Fraction for row in flavor_table(index, APERIODIC)
               for _, w, _, _ in row)


def _flavor_mul(x: IndexedVector, y: IndexedVector, q=None) -> IndexedVector:
    """The necklace or aperiodic product on any index set: the solve of the
    ghosts' product (q as in `_solve`).  Only an aperiodic product
    whose table has a Fraction weight, outside a Q-algebra, runs the loop over
    the structure constants, which refuses a fractional constant on two
    non-zero components (NonIntegralConstant)."""
    if x.flavor == APERIODIC and not x.ring.is_qalgebra and _fractional(x.index):
        return _table_mul(x, y)
    return _solve(ghost_system(x.index, "prod", x.flavor, q is not None, None), x, y, q)


def _table_mul(x, y):
    """The aperiodic product on a group, (x y)_k = sum of c x_i y_j over the
    entries (i, j, k): c of its sparse table of index-weighted double-coset
    constants.  It runs outside a Q-algebra only, so a c that is not an
    integer is refused."""
    R = x.ring
    xs, ys = x.payloads(), y.payloads()
    out = [R.zero() for _ in xs]
    for (i, j, k), c in structure_constants(x.group).a.items():
        if R.is_zero(xs[i]) or R.is_zero(ys[j]):
            continue
        if c.denominator != 1:
            raise refused_constant(R, c, "aperiodic product")
        out[k] = R.add(out[k], R.mul(R.from_int(c.numerator), R.mul(xs[i], ys[j])))
    return IndexedVector.from_payloads(x.index, APERIODIC, R, out)


# ---------------------------------------------------------------------------
# ghost maps


@lru_cache(maxsize=None)
def _ind_table(G: FiniteGroup, ci: int, flavor: str):
    """Induction's rows over G's classes: each class of U = rep(ci) at the
    class it fuses to, weighted (G:U) in the aperiodic flavor."""
    fuse = ind_class_map(G, ci)
    weight = subgroup_indices(G)[ci] if flavor == APERIODIC else 1
    return tuple(tuple((pos, weight, 1, 0) for pos, w in enumerate(fuse) if w == k)
                 for k in range(len(subgroup_classes(G))))


@lru_cache(maxsize=None)
def _res_table(G: FiniteGroup, ci: int, flavor: str):
    """Restriction's rows over the classes W of U = rep(ci): the number m of
    U-orbits on each G/V with stabilizers in W; in the aperiodic flavor
    m (U:W) over the index (G:V)."""
    U = subgroup_group(G, ci)
    u_index = subgroup_indices(U)
    rows = [[] for _ in u_index]
    for cj in range(len(subgroup_classes(G))):
        for w, m in res_orbit_data(G, ci, cj):
            rows[w].append((cj, m if flavor == NECKLACE else m * u_index[w], 1, 0))
    table = tuple(map(tuple, rows))
    return table if flavor == NECKLACE else linear_table(table, subgroup_indices(G))


# The maps below serve the group, truncation-set and q models alike: q is the
# q-model's q as a function of the ring solved in (`qdeform.QContext.ghost_q`),
# None outside it, and is called only once a map knows that ring.


def _expect(name: str, flavor: str, x: IndexedVector) -> IndexedVector:
    """x, once it has the flavor that `name` expects."""
    if x.flavor != flavor:
        raise ValueError(f"{name} expects {'an' if flavor == APERIODIC else 'a'} {flavor} vector")
    return x


@lru_cache(maxsize=None)
def _witt_ghost_system(index, q) -> GhostSystem:
    """The Witt ghost on index as a system whose unknowns' table is the
    identity, so that polynomial payloads sum its rows at the point."""
    table = ghost_table(index, q)
    identity = tuple(((u, 1, 1, 0),) for u in range(len(table)))
    return GhostSystem(index, table, "ghost", q, (index, identity, range(len(table))))


def _ghost(x: IndexedVector, q=None) -> IndexedVector:
    """The ghost of a Witt, Necklace or Aperiodic vector; a coordinate-backed
    vector takes its coordinates' Witt ghost.  Over polynomial payloads the
    Witt ghost's rows are summed at the point where that pays
    (`_witt_ghost_system`); the linear ghosts are cheap sums either way."""
    flavor, R = WITT if x.coord_form else x.flavor, x.ring
    # the table, which checks a q-model member, is built before q meets R
    table = flavor_table(x.index, flavor, q is not None)
    qv = q and q(R)
    if flavor == WITT and isinstance(R, (PolyRing, QPolyRing)):
        out = _witt_ghost_system(x.index, q is not None).apply(R, x.payloads(), qv)
    else:
        # only the aperiodic table over a group has Fraction weights
        out = ghost_values(table, R, x.payloads(), qv, "aperiodic ghost")
    return IndexedVector.from_payloads(x.index, GHOST, R, out)


def _ghost_inv(b: IndexedVector, index, flavor, fail, q=None) -> IndexedVector:
    """The Witt, Necklace or Aperiodic vector on index whose ghost is b,
    solved in b's ring; fail(u, R) is the error of a row u without a solution."""
    out = solve_triangular(flavor_table(index, flavor, q is not None), b.payloads(), b.ring,
                           fail, q and q(b.ring))
    return IndexedVector.from_payloads(index, flavor, b.ring, out)


def wg_ghost(alpha: IndexedVector) -> IndexedVector:
    """Fixed-point ghost of a Witt vector: sums of marks times power maps."""
    return _ghost(_expect("wg_ghost", WITT, alpha))


def nr_ghost(x: IndexedVector) -> IndexedVector:
    """Necklace ghost: transpose of the marks matrix applied to the components."""
    return _ghost(_expect("nr_ghost", NECKLACE, x))


def nr_ghost_inv(b: IndexedVector, group=None) -> IndexedVector:
    """Invert the necklace ghost by a triangular solve staying inside the ring."""
    _expect("nr_ghost_inv", GHOST, b)
    G = group or b.group
    return _ghost_inv(b, G, NECKLACE, row_error(
        NotInImage, "ghost vector is not a necklace ghost over {ring} at {row}", G))


def ap_ghost(x: IndexedVector) -> IndexedVector:
    """Aperiodic ghost: the necklace ghost with each class scaled by 1/(G:V)."""
    return _ghost(_expect("ap_ghost", APERIODIC, x))


def ap_ghost_inv(b: IndexedVector, group=None) -> IndexedVector:
    _expect("ap_ghost_inv", GHOST, b)
    G = group or b.group
    return _ghost_inv(b, G, APERIODIC, row_error(
        NotInImage, "ghost vector is not an aperiodic ghost over {ring} at {row}", G))


# ---------------------------------------------------------------------------
# the Witt flavor: universal polynomials and the ring operations

def derive_universal(G: FiniteGroup, op: str) -> GhostSystem:
    """The memoised ghost system of op on G; its polynomials, solved when
    first read, must come out integral."""
    check_op(op)
    return ghost_system(G, op, WITT, False, None)


def wg_op(op: str, a: IndexedVector, b: IndexedVector | None = None) -> IndexedVector:
    """Witt-flavor ring operation, solved on the ghost table."""
    _check_operands("wg_op", WITT, op, a, b)
    return _solve(derive_universal(a.group, op), a, b)


# ---------------------------------------------------------------------------
# necklace and aperiodic operations


def nr_op(op: str, x: IndexedVector, y: IndexedVector | None = None) -> IndexedVector:
    """Necklace ring operation; the product is the solve of the ghosts'
    product on the necklace table, over every ring (Z/m lifted to Z)."""
    _check_operands("nr_op", NECKLACE, op, x, y)
    return _flavor_op(op, x, y, wg_op)


def ap_op(op: str, x: IndexedVector, y: IndexedVector | None = None) -> IndexedVector:
    """Aperiodic ring operation; the product is the solve of the ghosts'
    product on the aperiodic table, except outside a Q-algebra on a group
    with a subgroup that is not normal, where it sums the index-weighted
    double-coset constants (see `_flavor_mul`)."""
    _check_operands("ap_op", APERIODIC, op, x, y)
    return _flavor_op(op, x, y, wg_op)


# ---------------------------------------------------------------------------
# exponential scalars and the flavor transports


def exp_M(G: FiniteGroup, r: RingValue) -> IndexedVector:
    """Necklace coordinates of the multiplicative lift of a single scalar:
    the teichmuller image of the Witt vector (r, 0, ..., 0)."""
    R = r.spec
    if not (R.is_qalgebra or _is_binomial(R)):
        raise NotBinomial(
            f"exponential scalars over {R.name} need a rational algebra or Z"
        )
    lift = [r.payload] + [R.zero()] * (len(subgroup_classes(G)) - 1)
    return teichmuller(IndexedVector.from_payloads(G, WITT, R, lift))


def exp_S(G: FiniteGroup, r: RingValue) -> IndexedVector:
    """Aperiodic coordinates: the index-scaled exponential scalars."""
    return theta(exp_M(G, r))


@lru_cache(maxsize=None)
def _transport_system(index, source, target, q, error, text) -> GhostSystem:
    """The memoised system of a transport on index, in the q-model when q is
    true: the `target` flavor's solve of the `source` flavor's ghost, row by
    row; a row without a solution raises error(text) (see `row_error`)."""
    table = flavor_table(index, source, q)
    shift = index, flavor_table(index, target, q), range(len(table))
    return GhostSystem(index, table, f"{source}->{target}", q, shift,
                       row_error(error, text, index))


def _teichmuller(alpha: IndexedVector, what: str, q=None) -> IndexedVector:
    """Witt -> Necklace, the necklace ghost solve of the Witt ghost; a row
    leaving the ring raises IntegralityViolation "<what> escaped ..."."""
    R = alpha.ring
    if isinstance(R, ResidueRing):
        # no canonical component form exists mod m; carry Witt coordinates
        return alpha.retag(NECKLACE, coord_form=True)
    if not (R.is_qalgebra or _is_binomial(R)):
        # torsion-free but not binomial: the image lives in the rationalisation
        alpha = alpha.map_ring(R.rationalized(), R.to_rationalized)
    system = _transport_system(alpha.index, WITT, NECKLACE, q is not None,
                               IntegralityViolation, what + " escaped {ring} at {row}")
    return _solve(system, alpha, q=q, flavor=NECKLACE)


def _teichmuller_inv(x: IndexedVector, refused: str, text: str, q=None) -> IndexedVector:
    """Necklace -> Witt, the Witt ghost solve of the necklace ghost; a row
    without a solution raises NotInImage(text).  Mod m only a
    coordinate-backed vector inverts (else DomainError `refused`)."""
    if x.coord_form:
        return x.retag(WITT, coord_form=False)
    if isinstance(x.ring, ResidueRing):
        raise DomainError(refused.format(ring=x.ring.name))
    system = _transport_system(x.index, NECKLACE, WITT, q is not None, NotInImage, text)
    return _solve(system, x, q=q, flavor=WITT)


def teichmuller(alpha: IndexedVector) -> IndexedVector:
    """Witt -> Necklace transport (a ring isomorphism onto its image): the
    necklace ghost solve of the Witt ghost, nr_ghost_inv(wg_ghost(alpha))."""
    return _teichmuller(_expect("teichmuller", WITT, alpha), "teichmuller")


def teichmuller_inv(x: IndexedVector) -> IndexedVector:
    """Recover Witt coordinates from a necklace vector in the teichmuller
    image: the Witt ghost solve of nr_ghost(x)."""
    return _teichmuller_inv(
        _expect("teichmuller_inv", NECKLACE, x),
        "component vectors over a residue ring have no canonical Witt coordinates; "
        "only coordinate-backed vectors invert",
        "vector is not a teichmuller image over {ring} at {row}")


def theta(x: IndexedVector) -> IndexedVector:
    """Necklace -> Aperiodic: scale each component by its subgroup's index,
    (G:V) or n; a coordinate-backed vector is only retagged."""
    if _expect("theta", NECKLACE, x).coord_form:
        return x.retag(APERIODIC)
    R = x.ring
    out = [R.mul(R.from_int(i), p) for i, p in zip(subgroup_indices(x.index), x.payloads())]
    return IndexedVector.from_payloads(x.index, APERIODIC, R, out)


def theta_inv(y: IndexedVector) -> IndexedVector:
    if _expect("theta_inv", APERIODIC, y).coord_form:
        return y.retag(NECKLACE)
    R = y.ring
    out = []
    for label, i, p in zip(y.labels(), subgroup_indices(y.index), y.payloads()):
        q = R.try_div(p, R.from_int(i))
        if q is None:
            raise NotInvertibleIndex(str(label))
        out.append(q)
    return IndexedVector.from_payloads(y.index, NECKLACE, R, out)


def gamma(alpha: IndexedVector) -> IndexedVector:
    """Witt -> Aperiodic transport."""
    return theta(teichmuller(alpha))


def gamma_inv(y: IndexedVector) -> IndexedVector:
    return teichmuller_inv(theta_inv(y))


# ---------------------------------------------------------------------------
# induction and restriction


def _require_subgroup_vector(G, ci, x):
    U = subgroup_group(G, ci)
    if x.group != U:
        raise ValueError("vector is not indexed by the chosen subgroup's classes")
    return U


def _require_parent_vector(G, x):
    if x.group != G:
        raise ValueError("vector is not indexed by the parent group's classes")
    return x


def _induce(name: str, flavor: str, G: FiniteGroup, ci: int, x: IndexedVector) -> IndexedVector:
    """ind of a Necklace or Aperiodic vector on U = rep(ci) to G; a
    coordinate-backed vector takes witt_v of its coordinates (the necklace maps
    commute with teichmuller and the aperiodic ones with gamma, so this is the
    plain map wherever both apply)."""
    _require_subgroup_vector(G, ci, x)
    _expect(name, flavor, x)
    if x.coord_form:
        return witt_v(G, ci, x.retag(WITT, coord_form=False)).retag(flavor, coord_form=True)
    out = ghost_values(_ind_table(G, ci, flavor), x.ring, x.payloads())
    return IndexedVector.from_payloads(G, flavor, x.ring, out)


def _restrict(name: str, flavor: str, G: FiniteGroup, ci: int, x: IndexedVector) -> IndexedVector:
    """res of a Necklace or Aperiodic vector on G to U = rep(ci); a
    coordinate-backed vector takes witt_f of its coordinates (as in `_induce`)."""
    if _require_parent_vector(G, _expect(name, flavor, x)).coord_form:
        return witt_f(G, ci, x.retag(WITT, coord_form=False)).retag(flavor, coord_form=True)
    # only the aperiodic table has Fraction weights
    out = ghost_values(_res_table(G, ci, flavor), x.ring, x.payloads(),
                       context="aperiodic restriction")
    return IndexedVector.from_payloads(subgroup_group(G, ci), flavor, x.ring, out)


def ind_nr(G: FiniteGroup, ci: int, x: IndexedVector) -> IndexedVector:
    """Necklace induction: push classes of the subgroup along class fusion."""
    return _induce("ind_nr", NECKLACE, G, ci, x)


def ind_ap(G: FiniteGroup, ci: int, x: IndexedVector) -> IndexedVector:
    """Aperiodic induction: fusion weighted by the subgroup's index."""
    return _induce("ind_ap", APERIODIC, G, ci, x)


def res_nr(G: FiniteGroup, ci: int, x: IndexedVector) -> IndexedVector:
    """Necklace restriction: orbit counts of the subgroup acting on each G/V."""
    return _restrict("res_nr", NECKLACE, G, ci, x)


def res_ap(G: FiniteGroup, ci: int, x: IndexedVector) -> IndexedVector:
    """Aperiodic restriction: orbits weighted by (U:W)/(G:V)."""
    return _restrict("res_ap", APERIODIC, G, ci, x)


# ---------------------------------------------------------------------------
# Frobenius/Verschiebung on Witt coordinates, ghost-level companions


@lru_cache(maxsize=None)
def _witt_v_system(G: FiniteGroup, ci: int) -> GhostSystem:
    """witt_v's system: ghost_nu's rows folded into U's Witt table, so row V
    reads m times U's ghost row W for each (W, m, 1, 0) of `_nu_table`'s
    row V, and the unknowns solve G's Witt table."""
    U = subgroup_group(G, ci)
    witt = ghost_table(U)
    table = []
    for row in _nu_table(G, ci):
        weights = {}  # (payload, exponent) -> weight, in the order first met
        for w, m, _, _ in row:
            for v, weight, e, _ in witt[w]:
                weights[v, e] = weights.get((v, e), 0) + m * weight
        table.append(tuple((v, weight, e, 0) for (v, e), weight in weights.items()))
    table = tuple(table)
    return GhostSystem(U, table, "witt_v", False, (G, ghost_table(G), range(len(table))),
                       row_error(IntegralityViolation,
                                 "induced Witt vector escaped {ring} at {row}", G))


@lru_cache(maxsize=None)
def _witt_f_system(G: FiniteGroup, ci: int) -> GhostSystem:
    """witt_f's system: G's Witt rows at the classes that U's classes fuse
    to, solved on U's Witt table (the shift form of a Frobenius)."""
    U = subgroup_group(G, ci)
    return GhostSystem(G, ghost_table(G), "witt_f", False,
                       (U, ghost_table(U), ind_class_map(G, ci)),
                       row_error(IntegralityViolation,
                                 "restricted Witt vector escaped {ring} at {row}", U))


def witt_v(G: FiniteGroup, ci: int, alpha: IndexedVector) -> IndexedVector:
    """Verschiebung-type map on Witt coordinates: the Witt solve on G of
    ghost_nu(G, ci, wg_ghost(alpha)), the ghost of the induced necklace
    vector ind_nr(teichmuller(alpha)) (over Z/m lifted to Z and reduced)."""
    _require_subgroup_vector(G, ci, alpha)
    _expect("witt_v", WITT, alpha)
    return _solve(_witt_v_system(G, ci), alpha)


def witt_f(G: FiniteGroup, ci: int, alpha: IndexedVector) -> IndexedVector:
    """Frobenius-type map on Witt coordinates: the Witt solve on U = rep(ci)
    of ghost_F(G, ci, wg_ghost(alpha)), G's ghost read off along class fusion
    (over Z/m lifted to Z and reduced)."""
    _require_parent_vector(G, _expect("witt_f", WITT, alpha))
    return _solve(_witt_f_system(G, ci), alpha)


@lru_cache(maxsize=None)
def _nu_table(G: FiniteGroup, ci: int):
    """ghost_nu's rows over G's classes V: (W, count, 1, 0) for each class W
    of U = rep(ci), count the number of cosets gU fixed by V with g^-1 V g in
    W (Dress-Siebeneicher).  These are the U-orbits U g^-1 V on G/V whose
    stabilizer U meet g^-1 V g is all of g^-1 V g, so the row of V keeps
    `res_orbit_data`'s counts at the classes W of V's order."""
    u_classes = subgroup_classes(subgroup_group(G, ci)).classes
    return tuple(tuple((w, m, 1, 0) for w, m in res_orbit_data(G, ci, v)
                       if u_classes[w].order == cv.order)
                 for v, cv in enumerate(subgroup_classes(G).classes))


def ghost_nu(G: FiniteGroup, ci: int, b: IndexedVector) -> IndexedVector:
    """Ghost-level companion of induction, nu(b)(V) = sum of b(g^-1 V g) over
    the cosets gU that V fixes: the orbit-count table `_nu_table`."""
    _require_subgroup_vector(G, ci, b)
    _expect("ghost_nu", GHOST, b)
    if isinstance(b.ring, ResidueRing) and not G.is_abelian():
        raise NonIntegralConstant(
            "ghost-level induction over a residue ring needs an abelian group"
        )
    out = ghost_values(_nu_table(G, ci), b.ring, b.payloads())
    return IndexedVector.from_payloads(G, GHOST, b.ring, out)


def ghost_F(G: FiniteGroup, ci: int, c: IndexedVector) -> IndexedVector:
    """Ghost-level companion of restriction: read off along class fusion."""
    ps = _require_parent_vector(G, _expect("ghost_F", GHOST, c)).payloads()
    return IndexedVector.from_payloads(subgroup_group(G, ci), GHOST, c.ring,
                                       [ps[w] for w in ind_class_map(G, ci)])


def delta_membership(x: IndexedVector, target: RingSpec) -> bool:
    """Does a rational necklace vector have Witt coordinates inside `target`,
    a ring with the rationalisation of x's ring (else DomainError)?"""
    if isinstance(_expect("delta_membership", NECKLACE, x).ring, ResidueRing):
        raise DomainError("membership testing needs a torsion-free coefficient ring")
    Rq = x.ring.rationalized()
    if target.rationalized() != Rq:
        raise DomainError(f"membership in {target.name} needs a ring whose rationalisation "
                          f"is {Rq.name}, like that of {x.ring.name}")
    # every Witt-table row over Rq divides by a positive integer mark
    alpha = teichmuller_inv(x.map_ring(Rq, x.ring.to_rationalized))
    return all(target.from_rationalized(p) is not None for p in alpha.payloads())


def delta_reduce(x: IndexedVector, m: int) -> IndexedVector:
    """Morphism Z -> Z/m on the necklace/aperiodic picture.

    Mod m the image of the Witt coordinates has no canonical component
    form, so the result is coordinate-backed: the class of x is recorded by
    its Witt coordinates reduced mod m.
    """
    if x.ring != ZZ:
        raise ValueError("delta_reduce starts from integer vectors")
    R = parse_ring(f"Z/{m}")
    if x.flavor == NECKLACE:
        alpha = teichmuller_inv(x)
    elif x.flavor == APERIODIC:
        alpha = gamma_inv(x)
    else:
        raise ValueError("delta_reduce expects a Necklace or Aperiodic vector")
    reduced = alpha.map_ring(R, lambda p: p % m)
    return reduced.retag(x.flavor, coord_form=True)
