"""Finite permutation groups and their subgroup-class combinatorics.

Groups are stored as sorted tuples of permutations (image tuples on
0..deg-1) with a precomputed multiplication table, so subgroups are just
frozensets of element indices.  Everything downstream consumes:

* the table of conjugacy classes of subgroups, ordered by increasing index
  with the whole group first (subconjugate-compatible ordering),
* fixed-coset counts ("marks") and their Mobius inversion,
* double cosets with their stabilizer classes, and the derived structure
  constants of the necklace and aperiodic multiplications,
* orbit data for restrictions and the class fusion map for inductions.

Every orbit count is read off one enumeration, `_double_coset_walk`: the
U-orbits on G/V are the double cosets U g V, each with its point
stabilizer.  A mark counts the orbits of one point, the structure constants
and restriction count orbits by stabilizer class, and ghost-level induction
(`burnside._nu_table`) keeps restriction's orbits whose stabilizer is a
whole conjugate of V.

The supported order bound is 24; everything here is brute force within it.
"""
from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import NotAGroup, OrderBoundExceeded, SchemaError, excerpt
from .rings import QQ, check_digits

ORDER_BOUND = 24
# A permutation lists every point up to the largest one named, so cycle
# notation may name points up to this bound (a group on it builds in
# milliseconds); "(1 999999999999)" is refused before anything is allocated.
POINT_BOUND = 10_000


def compose(p, q):
    """Permutation product acting left: (p*q)(x) = p(q(x))."""
    return tuple(p[q[x]] for x in range(len(p)))


def inverse_perm(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def identity_perm(deg):
    return tuple(range(deg))


def parse_cycles(text: str, degree: int | None = None):
    """One permutation from cycle notation like '(1 2 3)(4 5)', 1-indexed points
    up to POINT_BOUND."""
    text = text.strip()
    cycles = re.findall(r"\(([^()]*)\)", text)
    if not cycles and text not in ("", "()"):
        raise SchemaError(f"bad cycle notation {excerpt(text)}")
    points = []
    parsed = []
    for c in cycles:
        entries = [s for s in re.split(r"[,\s]+", c.strip()) if s]
        try:
            nums = [int(s) for s in entries]
        except ValueError as exc:
            raise SchemaError(f"bad cycle {excerpt(c)}") from exc
        if any(n < 1 for n in nums) or len(set(nums)) != len(nums):
            raise SchemaError(f"bad cycle {excerpt(c)}")
        if max(nums, default=0) > POINT_BOUND:
            raise SchemaError(
                f"cycle point {excerpt(max(nums))} exceeds the point bound {POINT_BOUND}")
        parsed.append(nums)
        points.extend(nums)
    deg = degree or (max(points) if points else 1)
    if points and max(points) > deg:
        raise SchemaError("cycle point exceeds degree")
    img = list(range(deg))
    for nums in parsed:
        for i, n in enumerate(nums):
            img[n - 1] = nums[(i + 1) % len(nums)] - 1
    return tuple(img)


class FiniteGroup:
    """Immutable finite group of permutations with a cached multiplication table."""

    __slots__ = ("name", "elements", "table", "inv", "identity", "_hash")

    def __init__(self, elements, name="G"):
        elems = tuple(sorted(set(elements)))
        if not elems:
            raise NotAGroup("empty element set")
        deg = len(elems[0])
        if any(len(p) != deg for p in elems):
            raise NotAGroup("permutations act on different point sets")
        index = {p: i for i, p in enumerate(elems)}
        ident = identity_perm(deg)
        if ident not in index:
            raise NotAGroup("identity permutation missing")
        table = []
        for p in elems:
            row = []
            for q in elems:
                r = compose(p, q)
                if r not in index:
                    raise NotAGroup("element set is not closed under composition")
                row.append(index[r])
            table.append(tuple(row))
        inv = []
        for p in elems:
            ip = inverse_perm(p)
            if ip not in index:
                raise NotAGroup("element set is not closed under inversion")
            inv.append(index[ip])
        self.name = name
        self.elements = elems
        self.table = tuple(table)
        self.inv = tuple(inv)
        self.identity = index[ident]
        self._hash = hash((name, elems))

    @property
    def order(self) -> int:
        return len(self.elements)

    def conj(self, g: int, x: int) -> int:
        """g x g^-1."""
        return self.table[self.table[g][x]][self.inv[g]]

    def is_abelian(self) -> bool:
        t = self.table
        n = self.order
        return all(t[i][j] == t[j][i] for i in range(n) for j in range(i + 1, n))

    def __eq__(self, other):
        # the name is part of the identity: every memo keyed on a group then
        # returns results that name the group they were asked for
        return (isinstance(other, FiniteGroup) and self.name == other.name
                and self.elements == other.elements)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


def closure(generators, bound=ORDER_BOUND, name="G"):
    """Group generated by permutations; enforces the order bound while growing."""
    if not generators:
        raise SchemaError("need at least one generator")
    deg = len(generators[0])
    if any(len(g) != deg for g in generators):
        raise SchemaError("generators act on different point sets")
    seen = {identity_perm(deg)}
    frontier = [identity_perm(deg)]
    while frontier:
        nxt = []
        for p in frontier:
            for g in generators:
                r = compose(g, p)
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
                    if len(seen) > bound:
                        raise OrderBoundExceeded(len(seen), bound)
        frontier = nxt
    return FiniteGroup(seen, name=name)


def _split_generators(text):
    """Split 'gen, gen, ...' on commas that sit outside parentheses."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def build_group(descriptor: str) -> "FiniteGroup":
    """Named groups (C<n>, D<n>, S<n<=4>, Q8) or generator lists in cycle notation."""
    text = descriptor.strip()
    m = re.fullmatch(r"C(\d+)", text)
    if m:
        n = int(check_digits(m.group(1), "group size"))
        if n < 1:
            raise SchemaError(f"no group {excerpt(text)}: cyclic groups run from C1 "
                              f"to C{ORDER_BOUND}")
        if n > ORDER_BOUND:
            raise OrderBoundExceeded(n, ORDER_BOUND)
        if n == 1:
            return closure([identity_perm(1)], name="C1")
        gen = tuple((i + 1) % n for i in range(n))
        return closure([gen], name=text)
    m = re.fullmatch(r"D(\d+)", text)
    if m:
        n = int(check_digits(m.group(1), "group size"))
        if n < 2:
            raise SchemaError(f"no group {excerpt(text)}: dihedral groups run from D2 "
                              f"to D{ORDER_BOUND // 2}")
        if 2 * n > ORDER_BOUND:
            raise OrderBoundExceeded(2 * n, ORDER_BOUND)
        rot = tuple((i + 1) % n for i in range(n))
        refl = tuple((n - i) % n for i in range(n))
        return closure([rot, refl], name=text)
    m = re.fullmatch(r"S(\d+)", text)
    if m:
        n = int(check_digits(m.group(1), "group size"))
        if n < 1 or n > 4:
            raise SchemaError(f"no group {excerpt(text)}: symmetric groups run from S1 to S4")
        if n == 1:
            return closure([identity_perm(1)], name="S1")
        cyc = tuple((i + 1) % n for i in range(n))
        swap = (1, 0) + tuple(range(2, n))
        return closure([cyc, swap], name=text)
    if text == "Q8":
        i_gen = parse_cycles("(1 2 3 4)(5 6 7 8)")
        j_gen = parse_cycles("(1 5 3 7)(2 8 4 6)")
        return closure([i_gen, j_gen], name="Q8")
    if "(" in text:
        gens = [parse_cycles(p) for p in _split_generators(text)]
        deg = max(len(g) for g in gens)
        gens = [g + tuple(range(len(g), deg)) for g in gens]
        # named by the descriptor itself, so documents over the group read back
        return closure(gens, name=text)
    raise SchemaError(f"unknown group descriptor {excerpt(descriptor)}")


# ---------------------------------------------------------------------------
# subgroup classes


class SubgroupClass:
    __slots__ = ("label", "rep", "order", "index", "normalizer_index", "conjugates")

    def __init__(self, label, rep, order, index, normalizer_index, conjugates):
        self.label = label
        self.rep = rep
        self.order = order
        self.index = index
        self.normalizer_index = normalizer_index
        self.conjugates = conjugates

    def __repr__(self):
        return f"SubgroupClass({self.label}, index={self.index})"


class SubgroupClassTable:
    """Conjugacy classes of subgroups in the canonical order.

    Ordering: increasing index (whole group first); ties broken by the
    element list of the lexicographically least conjugate, so positions are
    reproducible.  If class i is subconjugate-below class j in the sense
    that the class-j rep embeds in a conjugate of the class-i rep, then
    i <= j.
    """

    __slots__ = ("group", "classes", "class_of", "_labels")

    def __init__(self, group, classes, class_of):
        self.group = group
        self.classes = classes
        self.class_of = class_of
        self._labels = tuple(c.label for c in classes)

    def __len__(self):
        return len(self.classes)

    def labels(self):
        return self._labels

    def index_of_label(self, label):
        for i, c in enumerate(self.classes):
            if c.label == label:
                return i
        raise SchemaError(f"no subgroup class labelled {excerpt(label)} in {self.group.name}")


def _subgroup_closure(G, seed):
    """The subgroup generated by seed: {e} closed under right products by the
    seed (in a finite group every inverse is a power)."""
    seen = {G.identity}
    frontier = [G.identity]
    while frontier:
        a = frontier.pop()
        for s in seed:
            c = G.table[a][s]
            if c not in seen:
                seen.add(c)
                frontier.append(c)
    return frozenset(seen)


@lru_cache(maxsize=None)
def all_subgroups(G: FiniteGroup):
    """Every subgroup, found by closing known subgroups with one extra element."""
    trivial = frozenset({G.identity})
    found = {trivial}
    frontier = [trivial]
    while frontier:
        nxt = []
        for H in frontier:
            for g in range(G.order):
                if g in H:
                    continue
                K = _subgroup_closure(G, H | {g})
                if K not in found:
                    found.add(K)
                    nxt.append(K)
        frontier = nxt
    return tuple(sorted(found, key=lambda s: (len(s), sorted(s))))


def _conjugate_set(G, H, g):
    return frozenset(G.conj(g, x) for x in H)


def _canonical_key(G, H):
    return tuple(sorted(G.elements[i] for i in H))


@lru_cache(maxsize=None)
def subgroup_classes(G: FiniteGroup) -> SubgroupClassTable:
    subs = all_subgroups(G)
    remaining = set(subs)
    raw = []
    while remaining:
        H = next(iter(remaining))
        orbit = {_conjugate_set(G, H, g) for g in range(G.order)}
        remaining -= orbit
        key = min(_canonical_key(G, K) for K in orbit)
        rep = min(orbit, key=lambda K: _canonical_key(G, K))
        raw.append((G.order // len(H), key, rep, tuple(sorted(orbit, key=sorted))))
    raw.sort(key=lambda t: (t[0], t[1]))
    classes = []
    seen_order_counts = {}
    for index, _key, rep, orbit in raw:
        order = len(rep)
        if index == 1:
            label = "G"
        elif order == 1:
            label = "1"
        else:
            k = seen_order_counts.get(order, 0)
            seen_order_counts[order] = k + 1
            label = f"{order}{chr(ord('a') + k)}"
        classes.append(
            SubgroupClass(
                label=label,
                rep=rep,
                order=order,
                index=index,
                normalizer_index=len(orbit),  # orbit-stabilizer: (G : N_G(rep))
                conjugates=orbit,
            )
        )
    class_of = {}
    for pos, c in enumerate(classes):
        for K in c.conjugates:
            class_of[K] = pos
    return SubgroupClassTable(G, tuple(classes), class_of)


def _double_coset_walk(G: FiniteGroup, U: frozenset, V: frozenset):
    """Each double coset U g V from its least element g, as (g, the stabilizer
    U meet gVg^-1 of the point gV of G/V, the double coset's size): the
    U-orbits on G/V, which every orbit count of this module reads."""
    seen = [False] * G.order
    for g in range(G.order):
        if seen[g]:
            continue
        block = set()
        for u in U:
            ug = G.table[u][g]
            for v in V:
                block.add(G.table[ug][v])
        for x in block:
            seen[x] = True
        gi = G.inv[g]
        yield g, frozenset(u for u in U if G.table[G.table[gi][u]][g] in V), len(block)


class Rows:
    """A square table held as row tuples."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(tuple(row) for row in rows)

    def entry(self, i: int, j: int):
        return self.rows[i][j]


class MarksMatrix:
    """Table of marks zeta(V, W) = (fixed points of W on G/V) and its inverse.

    A mark counts the one-point W-orbits on G/V of the double-coset walk.

    The Mobius inverse is solved when first read, so the group arithmetic
    never pays for it: the necklace ghost table's rows are the columns of
    zeta, and row k of the inverse is the solve of the unit ghost e_k.
    """

    def __init__(self, table, zeta):
        self.table = table
        self.zeta = zeta

    @cached_property
    def mobius(self) -> Rows:
        from .universal import ghost_table, linear_table, solve_triangular  # imports groups

        ghost = linear_table(ghost_table(self.table.group))
        units = ([QQ.one() if u == k else QQ.zero() for u in range(len(ghost))]
                 for k in range(len(ghost)))
        # no fail callback: over Q each row divides by its positive diagonal mark
        return Rows(solve_triangular(ghost, e, QQ, None) for e in units)


@lru_cache(maxsize=None)
def marks_matrix(G: FiniteGroup) -> MarksMatrix:
    ct = subgroup_classes(G)
    reps = [c.rep for c in ct.classes]
    # a one-point orbit W g V is one whose stabilizer is W itself
    return MarksMatrix(ct, Rows(
        [sum(len(stab) == len(W) for _g, stab, _size in _double_coset_walk(G, W, V))
         if j >= i else 0 for j, W in enumerate(reps)] for i, V in enumerate(reps)))


def subconjugate(G: FiniteGroup, i: int, j: int) -> bool:
    """Class i embeds in a conjugate of class j (positions in the class table)."""
    mm = marks_matrix(G)
    return j <= i and mm.zeta.entry(j, i) > 0


@lru_cache(maxsize=None)
def double_cosets(G: FiniteGroup, ci: int, cj: int):
    """Double cosets V g W for the class reps, as (g, stabilizer class, size).

    The stabilizer recorded for V g W is V meet gWg^-1, reported as a
    position in the subgroup class table.
    """
    ct = subgroup_classes(G)
    return tuple((g, ct.class_of[z], size) for g, z, size
                 in _double_coset_walk(G, ct.classes[ci].rep, ct.classes[cj].rep))


class StructureConstants:
    """Multiplication constants of the necklace and aperiodic products.

    p[(i, j, k)] counts double cosets V_i g V_j whose stabilizer lies in
    class k (integer, valid over every coefficient ring).  a[(i, j, k)] is
    the aperiodic aggregate (G:V_k) p / ((G:V_i)(G:V_j)) as a Fraction.
    """

    __slots__ = ("p", "a")

    def __init__(self, p, a):
        self.p = p
        self.a = a


@lru_cache(maxsize=None)
def structure_constants(G: FiniteGroup) -> StructureConstants:
    ct = subgroup_classes(G)
    n = len(ct)
    p = {}
    for i in range(n):
        for j in range(n):
            for (_g, k, _size) in double_cosets(G, i, j):
                key = (i, j, k)
                p[key] = p.get(key, 0) + 1
    a = {}
    for (i, j, k), cnt in p.items():
        a[(i, j, k)] = Fraction(
            ct.classes[k].index * cnt, ct.classes[i].index * ct.classes[j].index
        )
    return StructureConstants(p, a)


@lru_cache(maxsize=None)
def subgroup_group(G: FiniteGroup, ci: int) -> FiniteGroup:
    """The representative subgroup of a class, as a group in its own right."""
    ct = subgroup_classes(G)
    cls = ct.classes[ci]
    elems = [G.elements[i] for i in cls.rep]
    return FiniteGroup(elems, name=f"{G.name}.{cls.label}")


def _embed_indices(G: FiniteGroup, U: FiniteGroup):
    """Map element indices of subgroup-group U to indices inside G."""
    lookup = {p: i for i, p in enumerate(G.elements)}
    return tuple(lookup[p] for p in U.elements)


@lru_cache(maxsize=None)
def ind_class_map(G: FiniteGroup, ci: int):
    """For each subgroup class of U = rep(ci), the G-class its members fuse into."""
    U = subgroup_group(G, ci)
    ut = subgroup_classes(U)
    gt = subgroup_classes(G)
    emb = _embed_indices(G, U)
    out = []
    for c in ut.classes:
        as_g = frozenset(emb[i] for i in c.rep)
        out.append(gt.class_of[as_g])
    return tuple(out)


@lru_cache(maxsize=None)
def res_orbit_data(G: FiniteGroup, ci: int, cj: int):
    """U-orbit data on G/V for U = rep(ci), V = rep(cj).

    Returns ((u_class, multiplicity), ...) counting U-orbits whose point
    stabilizer U meet gVg^-1 falls in the given class of the class table
    of U as a group.  The U-orbits on G/V are the double cosets U g V.
    """
    ct = subgroup_classes(G)
    Ug = subgroup_group(G, ci)
    ut = subgroup_classes(Ug)
    back = {g: u for u, g in enumerate(_embed_indices(G, Ug))}
    counts = {}
    for _g, stab, _size in _double_coset_walk(G, ct.classes[ci].rep, ct.classes[cj].rep):
        k = ut.class_of[frozenset(back[x] for x in stab)]
        counts[k] = counts.get(k, 0) + 1
    return tuple(sorted(counts.items()))
