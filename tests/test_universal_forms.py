"""The derived universal forms, pinned byte for byte, and the large derivations.

DIGESTS holds the first 16 hex digits of the SHA-256 of each universal set's
variables and `.format()` lines, as the schoolbook kernel (Fraction
coefficients, plain exponent tuples) derived them.  A faster kernel must
derive the same bytes.  S4 and div(24) were too slow to derive with that
kernel; their forms are checked through the ghost homomorphism.
"""
import hashlib
import random

import pytest

from wittburnside.burnside import WITT, IndexedVector, derive_universal, wg_ghost, wg_op
from wittburnside.cyclic import (
    CyclicVector,
    TruncationSet,
    cyc_universal,
    cyc_witt_ghost,
    cyc_witt_op,
)
from wittburnside.groups import build_group, subgroup_classes
from wittburnside.qdeform import q_universal
from wittburnside.rings import ZZ
from wittburnside.universal import ghost_system

DIGESTS = {
    'C2/sum': '88191d055c00bb99',
    'C2/prod': '45ef938b12504acc',
    'C2/neg': 'c3f7d0d4c24779fa',
    'C6/sum': '00ff4524b481569c',
    'C6/prod': '711f32f88aca4594',
    'C6/neg': 'b32bc7afb25f8481',
    'S3/sum': '70e325e70dda8be0',
    'S3/prod': '10ac47fd577127af',
    'S3/neg': 'b32bc7afb25f8481',
    'D4/sum': '95f28ef8f9475ed7',
    'D4/prod': 'e37f13f7f891d63d',
    'D4/neg': '7c0f898ecd6090f9',
    'Q8/sum': '80514ddb3fa0536f',
    'Q8/prod': 'd2785b2de7cc42af',
    'Q8/neg': 'f867b162bbd1a3e3',
    'C12/sum': '576c9526dc7c5f77',
    'C12/prod': '5f7755a5a3c90b24',
    'C12/neg': '219dc0b0ba7fef8d',
    'D6/sum': 'e72240896db177b9',
    'D6/prod': 'c6de2f393d6cf775',
    'D6/neg': 'dc90528848d47853',
    'cyc/div6/sum': 'b752583ca8df7830',
    'q/div6/sum': '4497bc5dec2d3006',
    'cyc/div6/prod': '125ea1eb5484ff77',
    'q/div6/prod': 'f204e2f878caee02',
    'cyc/div6/neg': 'be4baab2f3bc65de',
    'q/div6/neg': 'c8ca126f97f864ea',
    'cyc/div6/frob2': 'ffadccf487f6cf7a',
    'q/div6/frob2': 'b5db73bcb45bf805',
    'cyc/div6/frob3': '047bb6bdecf1d55e',
    'q/div6/frob3': 'b6bfec4a1f668809',
    'cyc/div12/sum': '72e117ff129c949e',
    'q/div12/sum': '14a1602f90b52a2d',
    'cyc/div12/prod': '57cae7798276ac1b',
    'q/div12/prod': 'a71ae3f969e21aa3',
    'cyc/div12/neg': 'b08565a5d90f9390',
    'q/div12/neg': 'fac0e92ccee6f515',
    'cyc/div12/frob2': 'da0c6f0359c1ce77',
    'q/div12/frob2': 'c746897c607d2125',
    'cyc/div12/frob3': '8142f41af43f2c36',
    'q/div12/frob3': '9ddd935e0e31fe74',
    'cyc/1..8/sum': 'eadc3179aed7b97e',
    'q/1..8/sum': 'e4d846cd174a368e',
    'cyc/1..8/prod': 'ee3f012e80b2e67e',
    'q/1..8/prod': 'a20c66529fb79107',
    'cyc/1..8/neg': 'fa8d5ce4b1e586ec',
    'q/1..8/neg': 'cbc73f869f73a228',
    'cyc/1..8/frob2': '0f5a4a5aeef989d8',
    'q/1..8/frob2': 'a6609d71e595d996',
    'cyc/1..8/frob3': '08fd60187bb311b8',
    'q/1..8/frob3': '521c1f44734332ce',
}

TRUNCATIONS = {
    "div6": TruncationSet.div(6),
    "div12": TruncationSet.div(12),
    "1..8": TruncationSet(range(1, 9)),
}


def digest(ups):
    text = ",".join(ups.vars) + "\n" + "\n".join(p.format() for p in ups.polys)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def derived(key):
    head, *rest = key.split("/")
    if head not in ("cyc", "q"):
        return derive_universal(build_group(head), rest[0])
    T = TRUNCATIONS[rest[0]]
    op = rest[1]
    if op.startswith("frob"):
        return ghost_system(T, op, WITT, head != "cyc", int(op[4:]))
    return (cyc_universal if head == "cyc" else q_universal)(T, op)


@pytest.mark.parametrize("key", sorted(DIGESTS))
def test_universal_forms_are_unchanged(key):
    assert digest(derived(key)) == DIGESTS[key]


def test_derivations_return_their_memoised_system():
    # each call returns the one memoised system, which names its structure,
    # operation and variables; the benchmark reads these names
    C2 = build_group("C2")
    ups = derive_universal(C2, "prod")
    assert derive_universal(C2, "prod") is ups
    assert (ups.group, ups.structure, ups.op) == (C2, C2, "prod")
    assert ups.vars == ("a_G", "a_1", "b_G", "b_1")
    assert [p.format() for p in ups.polys] == [
        "1*a_G^1*b_G^1", "1*a_G^2*b_1^1+1*a_1^1*b_G^2+2*a_1^1*b_1^1"]
    T = TRUNCATIONS["div6"]
    for derive, q in ((cyc_universal, False), (q_universal, True)):
        ups = derive(T, "neg")
        assert derive(T, "neg") is ups
        assert ups.truncation.members == (1, 2, 3, 6) and ups.group == T and ups.op == "neg"
        assert ups.vars == ("q",) * q + ("a_1", "a_2", "a_3", "a_6")
        assert len(ups.polys) == 4 and digest(ups) == DIGESTS[f"{'q' if q else 'cyc'}/div6/neg"]
    frob = ghost_system(T, "frob2", WITT, True, 2)
    assert ghost_system(T, "frob2", WITT, True, 2) is frob
    assert frob.truncation.members == (1, 3) and frob.op == "qfrob2"
    assert frob.vars == ("q", "a_1", "a_2", "a_3", "a_6") and len(frob.polys) == 2


def test_s4_witt_sum_and_prod_are_ghost_homomorphic():
    G = build_group("S4")
    k = len(subgroup_classes(G))
    rng = random.Random(24)
    for _ in range(3):
        x, y = (IndexedVector.from_ints(G, WITT, ZZ, [rng.randint(-5, 5) for _ in range(k)])
                for _ in range(2))
        gx, gy = wg_ghost(x).payloads(), wg_ghost(y).payloads()
        assert wg_ghost(wg_op("sum", x, y)).payloads() == tuple(u + v for u, v in zip(gx, gy))
        assert wg_ghost(wg_op("prod", x, y)).payloads() == tuple(u * v for u, v in zip(gx, gy))


def test_div24_witt_prod_is_ghost_homomorphic():
    T = TruncationSet.div(24)
    rng = random.Random(24)
    for _ in range(3):
        a, b = (CyclicVector.from_ints(T, WITT, ZZ, [rng.randint(-5, 5) for _ in T])
                for _ in range(2))
        ga, gb = cyc_witt_ghost(a).payloads(), cyc_witt_ghost(b).payloads()
        assert cyc_witt_ghost(cyc_witt_op("prod", a, b)).payloads() == tuple(
            u * v for u, v in zip(ga, gb)
        )
