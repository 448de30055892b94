"""Group layer: subgroup classification, marks, double cosets, structure constants.

Oracles here are independent code paths: subset-filter subgroup search,
direct coset actions, and the classical identity that fixed-point counts
turn disjoint double-coset decompositions into products.
"""
from fractions import Fraction
from itertools import combinations

import pytest

from wittburnside.errors import OrderBoundExceeded, SchemaError
from wittburnside.groups import (
    POINT_BOUND,
    build_group,
    closure,
    compose,
    double_cosets,
    ind_class_map,
    marks_matrix,
    parse_cycles,
    res_orbit_data,
    structure_constants,
    subconjugate,
    subgroup_classes,
    subgroup_group,
    all_subgroups,
)


def test_parse_cycles():
    assert parse_cycles("(1 2 3)") == (1, 2, 0)
    assert parse_cycles("(1 2)(3 4)") == (1, 0, 3, 2)
    assert parse_cycles("(1 3)", degree=4) == (2, 1, 0, 3)
    with pytest.raises(SchemaError):
        parse_cycles("(1 1)")


def test_cycle_points_are_bounded():
    # a permutation lists every point up to the largest, so a large point is
    # refused before anything is allocated
    assert parse_cycles(f"(1 {POINT_BOUND})")[0] == POINT_BOUND - 1
    for text in ("(1 999999999999)", f"(1,{POINT_BOUND + 1})", f"(1 2)({POINT_BOUND + 1} 3)"):
        with pytest.raises(SchemaError, match=f"exceeds the point bound {POINT_BOUND}$"):
            parse_cycles(text)
        with pytest.raises(SchemaError, match="point bound"):
            build_group(text)


def test_builtin_orders_and_commutativity():
    cases = [
        ("C2", 2, True),
        ("C12", 12, True),
        ("S3", 6, False),
        ("S4", 24, False),
        ("D4", 8, False),
        ("D12", 24, False),
        ("Q8", 8, False),
        ("C1", 1, True),
    ]
    for name, order, abelian in cases:
        G = build_group(name)
        assert G.order == order
        assert G.is_abelian() == abelian


def test_custom_generators_and_bound():
    G = build_group("(1 2 3 4), (1 3)")
    assert G.order == 8  # dihedral on the square
    with pytest.raises(OrderBoundExceeded):
        build_group("C25")
    with pytest.raises(OrderBoundExceeded):
        build_group("D13")
    with pytest.raises(OrderBoundExceeded):
        build_group("(1 2 3 4 5), (1 2)")  # S5


@pytest.mark.parametrize("name, family", [
    ("C0", "cyclic groups run from C1 to C24"),
    ("C00", "cyclic groups run from C1 to C24"),
    ("D0", "dihedral groups run from D2 to D12"),
    ("D1", "dihedral groups run from D2 to D12"),
    ("S0", "symmetric groups run from S1 to S4"),
    ("S5", "symmetric groups run from S1 to S4"),
])
def test_named_group_outside_its_family_is_malformed(name, family):
    # C0, D0 and D1 were once refused as orders above the bound, and S0 as
    # "supported up to S4"
    with pytest.raises(SchemaError, match=f"^no group '{name}': {family}$"):
        build_group(name)


def brute_subgroups(G):
    """Independent oracle: filter all subsets containing the identity (small G only)."""
    found = set()
    idx = range(G.order)
    for r in range(1, G.order + 1):
        if G.order % r:
            continue
        for sub in combinations(idx, r):
            s = set(sub)
            if G.identity not in s:
                continue
            if all(G.table[a][b] in s for a in s for b in s):
                found.add(frozenset(s))
    return found


@pytest.mark.parametrize("name", ["C2", "C6", "S3", "D4", "Q8"])
def test_all_subgroups_against_subset_filter(name):
    G = build_group(name)
    assert set(all_subgroups(G)) == brute_subgroups(G)


def test_subgroup_class_counts():
    # frozen counts: (subgroups, classes)
    expected = {
        "C2": (2, 2),
        "C4": (3, 3),
        "C6": (4, 4),
        "C12": (6, 6),
        "S3": (6, 4),
        "D4": (10, 8),
        "Q8": (6, 6),
        "S4": (30, 11),
    }
    for name, (subs, classes) in expected.items():
        G = build_group(name)
        assert len(all_subgroups(G)) == subs, name
        assert len(subgroup_classes(G)) == classes, name


def test_q8_has_unique_involution_subgroup():
    G = build_group("Q8")
    ct = subgroup_classes(G)
    order2 = [c for c in ct.classes if c.order == 2]
    assert len(order2) == 1 and order2[0].index == 4


def test_class_table_ordering_invariants():
    for name in ("C2", "C6", "S3", "D4", "Q8", "S4"):
        G = build_group(name)
        ct = subgroup_classes(G)
        assert ct.classes[0].index == 1 and ct.classes[0].label == "G"
        indices = [c.index for c in ct.classes]
        assert indices == sorted(indices)
        assert ct.classes[-1].order == 1 and ct.classes[-1].label == "1"
        # subconjugacy never points from later to strictly earlier posets
        for i in range(len(ct)):
            for j in range(len(ct)):
                if subconjugate(G, i, j):
                    assert j <= i


def coset_fix_count(G, U, V):
    """Oracle for marks: build G/V explicitly and count cosets fixed by U."""
    cosets = {frozenset(G.table[g][v] for v in V) for g in range(G.order)}
    fixed = 0
    for c in cosets:
        if all(frozenset(G.table[u][x] for x in c) == c for u in U):
            fixed += 1
    return fixed


def test_mark_against_coset_action_oracle():
    for name in ("S3", "D4", "Q8"):
        G = build_group(name)
        ct = subgroup_classes(G)
        zeta = marks_matrix(G).zeta
        for j, cu in enumerate(ct.classes):
            for i, cv in enumerate(ct.classes):
                assert zeta.entry(i, j) == coset_fix_count(G, cu.rep, cv.rep), (name, i, j)


def test_marks_c2_frozen():
    G = build_group("C2")
    mm = marks_matrix(G)
    assert [list(r) for r in mm.zeta.rows] == [[1, 1], [0, 2]]
    assert [list(r) for r in mm.mobius.rows] == [
        [Fraction(1), Fraction(-1, 2)],
        [Fraction(0), Fraction(1, 2)],
    ]


def test_marks_s3_frozen():
    G = build_group("S3")
    mm = marks_matrix(G)
    assert mm.table.labels() == ("G", "3a", "2a", "1")
    assert [list(r) for r in mm.zeta.rows] == [
        [1, 1, 1, 1],
        [0, 2, 0, 2],
        [0, 0, 1, 3],
        [0, 0, 0, 6],
    ]


def test_marks_structure_invariants():
    for name in ("C6", "S3", "D4", "Q8", "S4"):
        G = build_group(name)
        ct = subgroup_classes(G)
        mm = marks_matrix(G)
        n = len(ct)
        for i, ci in enumerate(ct.classes):
            # diagonal equals (N_G(V) : V)
            assert mm.zeta.entry(i, i) == ci.index // ci.normalizer_index
            # trivial-subgroup column carries the index, top row all ones
            assert mm.zeta.entry(i, n - 1) == ci.index
            assert mm.zeta.entry(0, i) == 1
        # zero pattern matches subconjugacy
        for i in range(n):
            for j in range(n):
                if j < i:
                    continue
                positive = mm.zeta.entry(i, j) > 0
                assert positive == subconjugate(G, j, i)


def brute_double_cosets(G, V, W):
    """Partition G by x ~ v x w and report sorted block sizes."""
    unseen = set(range(G.order))
    sizes = []
    while unseen:
        x = next(iter(unseen))
        block = {G.table[G.table[v][x]][w] for v in V for w in W}
        unseen -= block
        sizes.append(len(block))
    return sorted(sizes)


def test_double_cosets_against_brute_partition():
    for name in ("S3", "D4", "Q8"):
        G = build_group(name)
        ct = subgroup_classes(G)
        for i in range(len(ct)):
            for j in range(len(ct)):
                V, W = ct.classes[i].rep, ct.classes[j].rep
                dcs = double_cosets(G, i, j)
                assert sorted(s for (_g, _k, s) in dcs) == brute_double_cosets(G, V, W)
                assert sum(s for (_g, _k, s) in dcs) == G.order
                for (g, k, size) in dcs:
                    z = ct.classes[k].order
                    # |VgW| = |V||W| / |V meet gWg^-1|
                    assert size * z == len(V) * len(W)


def test_mark_homomorphism_through_double_cosets():
    # fixed-point counts send the double-coset decomposition of G/V x G/W
    # to an ordinary product: a strong cross-check of marks and stabilizers
    for name in ("S3", "D4", "Q8"):
        G = build_group(name)
        ct = subgroup_classes(G)
        sc = structure_constants(G)
        mm = marks_matrix(G)
        n = len(ct)
        # phi_U(G/V_i) * phi_U(G/V_j) = sum_k p_ijk phi_U(G/V_k) for every U,
        # where phi_U(G/V_i) sits at row i, column u of the marks table
        for i in range(n):
            for j in range(n):
                for u in range(n):
                    left = mm.zeta.entry(i, u) if i <= u else 0
                    right = mm.zeta.entry(j, u) if j <= u else 0
                    total = 0
                    for k in range(n):
                        c = sc.p.get((i, j, k), 0)
                        if c and k <= u:
                            total += c * mm.zeta.entry(k, u)
                    assert left * right == total


def test_structure_constants_s3_frozen():
    G = build_group("S3")
    ct = subgroup_classes(G)
    sc = structure_constants(G)
    lbl = {c.label: i for i, c in enumerate(ct.classes)}
    g, c3, c2, e = lbl["G"], lbl["3a"], lbl["2a"], lbl["1"]
    assert sc.p[(c3, c3, c3)] == 2
    assert sc.p[(c2, c2, c2)] == 1
    assert sc.p[(c2, c2, e)] == 1
    assert sc.p[(c3, c2, e)] == 1
    assert (c3, c2, c2) not in sc.p
    assert sc.p[(g, c2, c2)] == 1
    # aperiodic aggregates
    assert sc.a[(c2, c2, c2)] == Fraction(1, 3)
    assert sc.a[(c2, c2, e)] == Fraction(2, 3)
    assert sc.a[(c3, c3, c3)] == 1


def test_structure_constants_symmetry():
    for name in ("S3", "D4", "Q8"):
        G = build_group(name)
        sc = structure_constants(G)
        for (i, j, k), v in sc.p.items():
            assert sc.p[(j, i, k)] == v


def test_abelian_structure_constants_are_unit_on_intersection():
    for name in ("C4", "C6", "C12"):
        G = build_group(name)
        ct = subgroup_classes(G)
        sc = structure_constants(G)
        for i, ci in enumerate(ct.classes):
            for j, cj in enumerate(ct.classes):
                meet = ci.rep & cj.rep
                k = ct.class_of[frozenset(meet)]
                assert sc.a[(i, j, k)] == 1
                assert all(
                    kk == k for (ii, jj, kk) in sc.a if ii == i and jj == j
                )


def test_res_orbit_data_s3():
    G = build_group("S3")
    ct = subgroup_classes(G)
    lbl = {c.label: i for i, c in enumerate(ct.classes)}
    c3, c2, e = lbl["3a"], lbl["2a"], lbl["1"]
    # C3 on G/C2: one free orbit
    U3 = subgroup_group(G, c3)
    u3t = subgroup_classes(U3)
    assert res_orbit_data(G, c3, c2) == ((len(u3t) - 1, 1),)
    # C2 on G/C3: one free orbit
    assert res_orbit_data(G, c2, c3) == ((1, 1),)
    # C2 on G/C2: one fixed coset, one free orbit
    assert res_orbit_data(G, c2, c2) == ((0, 1), (1, 1))
    # orbit sizes add up to the coset count
    for ci in range(len(ct)):
        Ug = subgroup_group(G, ci)
        ut = subgroup_classes(Ug)
        for cj in range(len(ct)):
            total = sum(
                m * (Ug.order // ut.classes[w].order) for (w, m) in res_orbit_data(G, ci, cj)
            )
            assert total == ct.classes[cj].index


def brute_res_orbit_data(G, ci, cj):
    """U-orbits on the cosets gV, V = rep(cj), under left multiplication by
    U = rep(ci), each counted at the class of its point stabilizer in the
    class table of U as a group."""
    ct = subgroup_classes(G)
    U, V = ct.classes[ci].rep, ct.classes[cj].rep
    Ug = subgroup_group(G, ci)
    ut = subgroup_classes(Ug)
    in_u = {G.elements[x]: x for x in U}
    u_index = {in_u[p]: k for k, p in enumerate(Ug.elements)}
    cosets = {frozenset(G.table[g][v] for v in V) for g in range(G.order)}
    counts = {}
    while cosets:
        point = min(cosets, key=sorted)
        orbit = {frozenset(G.table[u][x] for x in point) for u in U}
        cosets -= orbit
        stab = frozenset(u_index[u] for u in U
                         if frozenset(G.table[u][x] for x in point) == point)
        k = ut.class_of[stab]
        counts[k] = counts.get(k, 0) + 1
    return tuple(sorted(counts.items()))


@pytest.mark.parametrize("name", ["S3", "S4", "D4", "D6", "Q8", "C12", "(1 2 3)(4 5), (1 2)"])
def test_res_orbit_data_against_coset_orbits(name):
    G = build_group(name)
    n = len(subgroup_classes(G))
    for ci in range(n):
        for cj in range(n):
            assert res_orbit_data(G, ci, cj) == brute_res_orbit_data(G, ci, cj), (ci, cj)


def test_ind_class_map_s3():
    G = build_group("S3")
    ct = subgroup_classes(G)
    lbl = {c.label: i for i, c in enumerate(ct.classes)}
    c3, c2, e = lbl["3a"], lbl["2a"], lbl["1"]
    assert ind_class_map(G, c3) == (c3, e)
    assert ind_class_map(G, c2) == (c2, e)
    assert ind_class_map(G, 0) == tuple(range(len(ct)))


def test_subgroup_group_is_consistent():
    G = build_group("D4")
    ct = subgroup_classes(G)
    for i, c in enumerate(ct.classes):
        U = subgroup_group(G, i)
        assert U.order == c.order
        assert set(U.elements) <= set(G.elements)
