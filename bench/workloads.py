"""Seeded inputs, operation families and result checks for the two in-process mixes.

`generate(workload, seed)` draws plain data only (ints, fraction pairs and
polynomial term lists), so it needs no library code and its digest depends
on the seed alone.  `Session` turns that data into library objects, runs one
operation and checks its result by an independent identity.

An operation's key is (family, structure, ring, q, r, class): the first call
per key is "first touch" (table builds, derivations), the rest is the warm
stream.
"""
import hashlib
import json
import random
from fractions import Fraction

WORKLOADS = ("scalar-mix", "symbolic-mix")

# subgroup-class labels of the groups (and of the subgroups the CLI induces
# from) in library order; the self-test checks them against the library, so
# inputs can be drawn without library computation
LABELS = {
    "C6": ("G", "3a", "2a", "1"),
    "S3": ("G", "3a", "2a", "1"),
    "D4": ("G", "4a", "4b", "4c", "2a", "2b", "2c", "1"),
    "Q8": ("G", "4a", "4b", "4c", "2a", "1"),
    "C12": ("G", "6a", "4a", "3a", "2a", "1"),
    "D6": ("G", "6a", "6b", "6c", "4a", "3a", "2a", "2b", "2c", "1"),
    "D6.6a": ("G", "3a", "2a", "1"),
    "D4.4a": ("G", "2a", "2b", "2c", "1"),
}
CLASS_COUNT = {g: len(labels) for g, labels in LABELS.items() if "." not in g}
ABELIAN = {"C6", "C12"}
TRUNC = {"div6": (1, 2, 3, 6), "div12": (1, 2, 3, 4, 6, 12),
         "1..8": tuple(range(1, 9)), "1..12": tuple(range(1, 13))}

NONZERO = tuple(range(-9, 0)) + tuple(range(1, 10))
POINT = (2, -3)  # where polynomial results are specialised for checking
RING_OPS = ("sum", "prod", "neg")
GROUP_FLAVOR_FAMS = ("witt", "necklace", "aperiodic")
GHOST_FAMS = ("ghost.witt", "ghost.necklace", "ghost.aperiodic")
TRANSPORT_FAMS = ("teichmuller", "teichmuller_inv", "theta", "theta_inv",
                  "gamma", "gamma_inv")
INDRES_FAMS = ("ind_nr", "ind_ap", "res_nr", "res_ap", "witt_v", "witt_f",
               "ghost_nu", "ghost_F")
CYC_FAMS = ("cyc.witt.sum", "cyc.witt.prod", "cyc.witt.neg", "cyc.nr_mul",
            "cyc.ap_mul", "cyc.frobenius", "cyc.verschiebung", "cyc.theta")
Q_FAMS = ("q.witt.sum", "q.witt.prod", "q.witt.neg", "q.teichmuller",
          "q.teichmuller_inv", "q.theta", "q.frobenius", "q.verschiebung")


def _keys_scalar():
    keys = []
    for g in CLASS_COUNT:
        for ring in ("Z", "Q", "Z/8"):
            for fam in GROUP_FLAVOR_FAMS:
                if fam == "aperiodic" and g not in ABELIAN and ring != "Q":
                    continue  # nonabelian aperiodic constants need Q
                for op in RING_OPS:
                    keys.append((f"{fam}.{op}", g, ring, None, None, None))
            for fam in GHOST_FAMS:
                if fam == "ghost.aperiodic" and g not in ABELIAN and ring != "Q":
                    continue
                keys.append((fam, g, ring, None, None, None))
        for ring in ("Z", "Q"):
            for fam in TRANSPORT_FAMS:
                if fam.endswith("_inv") and fam != "teichmuller_inv" and ring == "Z":
                    continue  # theta and gamma divide by subgroup indices
                keys.append((fam, g, ring, None, None, None))
        for ci in range(1, CLASS_COUNT[g]):
            for fam in INDRES_FAMS:
                keys.append((fam, g, "Q", None, None, ci))
    for t in ("div12", "1..12"):
        for ring in ("Z", "Q", "Z/8"):
            for fam in CYC_FAMS:
                if fam == "cyc.theta" and ring == "Z/8":
                    continue
                for r in ((2, 3) if fam in ("cyc.frobenius", "cyc.verschiebung") else (None,)):
                    keys.append((fam, t, ring, None, r, None))
    for q in (-1, 2, 3):
        for fam in Q_FAMS:
            rings = ("Z", "Z/8") if fam.startswith("q.witt.") else ("Q",)
            for ring in rings:
                for r in ((2, 3) if fam in ("q.frobenius", "q.verschiebung") else (None,)):
                    keys.append((fam, "div12", ring, q, r, None))
        for ring in ("Z", "Q"):
            keys.append(("q.artinhasse", "1..8", ring, q, None, None))
    return keys


def _keys_symbolic():
    keys = []
    for g in ("C6", "S3", "D4"):
        for ring in ("ZPoly(x,y)", "QPoly(x,y)"):
            for fam in GROUP_FLAVOR_FAMS:
                if fam == "aperiodic" and g not in ABELIAN and ring != "QPoly(x,y)":
                    continue
                for op in RING_OPS:
                    keys.append((f"{fam}.{op}", g, ring, None, None, None))
            for fam in GHOST_FAMS:
                if fam == "ghost.aperiodic" and g not in ABELIAN and ring != "QPoly(x,y)":
                    continue
                keys.append((fam, g, ring, None, None, None))
        for fam in TRANSPORT_FAMS:
            keys.append((fam, g, "QPoly(x,y)", None, None, None))
        for ci in range(1, CLASS_COUNT[g]):
            for fam in INDRES_FAMS:
                keys.append((fam, g, "QPoly(x,y)", None, None, ci))
    for t in ("1..8", "div12"):
        for fam in CYC_FAMS:
            for r in ((2, 3) if fam in ("cyc.frobenius", "cyc.verschiebung") else (None,)):
                keys.append((fam, t, "ZPoly(x,y)", None, r, None))
    for t in ("div6", "1..8"):
        for fam in Q_FAMS:
            for r in ((2, 3) if fam in ("q.frobenius", "q.verschiebung") else (None,)):
                keys.append((fam, t, "Q[q]", "q", r, None))
    keys.append(("q.artinhasse", "1..8", "Q[q]", "q", None, None))
    return keys


KEYS = {"scalar-mix": _keys_scalar, "symbolic-mix": _keys_symbolic}

# input sets per key for the warm rounds (round k uses set k % WARM), beyond
# the first-touch call's own inputs
WARM = {"scalar-mix": 4, "symbolic-mix": 3}


def _arity(fam):
    """Number of vector operands an operation family takes."""
    if fam.endswith((".sum", ".prod")) or fam in ("cyc.nr_mul", "cyc.ap_mul"):
        return 2
    return 1


def _size(key):
    fam, s, _, _, _, _ = key
    return CLASS_COUNT[s] if s in CLASS_COUNT else len(TRUNC[s])


class Draw:
    """Values drawn like the `verify` suites draw them.

    Polynomial payloads take their shape (which monomials appear, and their
    exponents) from a stream fixed per operation key and their coefficients
    from the seed, and their constant term is never 0, so the cost of an
    operation depends neither on the seed nor on the round it runs in.
    """

    def __init__(self, workload, seed):
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.shape = random.Random(f"{workload}:shape")

    def reshape(self, key):
        """Restart the shape stream, so every call of a key gets one shape."""
        self.shape = random.Random(f"{self.workload}:shape:{key}")

    def value(self, ring):
        rng = self.rng
        if ring == "Z/8":
            return rng.randint(0, 7)
        if ring == "Z":
            return rng.randint(-9, 9)
        if ring == "Q":
            v = Fraction(rng.randint(-9, 9))
            if rng.random() < 0.5:
                v += Fraction(rng.randint(-9, 9), rng.choice((2, 3, 4)))
            return [v.numerator, v.denominator]
        if ring == "Q[q]":
            return [rng.choice(NONZERO)] + [
                rng.choice((-2, -1, 1, 2, 3)) if self.shape.random() < 0.6 else 0
                for _ in range(2)
            ]
        terms = [[rng.choice(NONZERO), 0, 0]]
        for var in (0, 1):
            if self.shape.random() < 0.6:
                e = [0, 0]
                e[var] = self.shape.randint(1, 2)
                terms.append([rng.choice((-2, -1, 1, 2, 3))] + e)
        return terms

    def vector(self, ring, n):
        return [self.value(ring) for _ in range(n)]


def generate(workload, seed):
    """The plain-data inputs of one run.

    `first` holds one call per key.  `rounds` holds the warm stream: each
    round calls every key once, in a seeded order, so every round has the
    same mix of operations whatever the seed.
    """
    draw = Draw(workload, seed)
    keys = KEYS[workload]()
    per_key = []
    for key in keys:
        n = _size(key)
        specs = []
        for _ in range(1 + WARM[workload]):
            draw.reshape(key)
            specs.append({"key": list(key),
                          "args": [draw.vector(key[2], n) for _ in range(_arity(key[0]))]})
        per_key.append(specs)
    first = [specs[0] for specs in per_key]
    rounds = []
    for i in range(1, 1 + WARM[workload]):
        order = list(range(len(keys)))
        draw.rng.shuffle(order)
        rounds.append([per_key[k][i] for k in order])
    return {"workload": workload, "seed": seed, "first": first, "rounds": rounds}


def digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


class Session:
    """Builds library objects from plain data, runs operations, checks results."""

    def __init__(self, wb):
        from wittburnside import rings

        self.wb = wb
        self.MultiPoly = rings.MultiPoly
        self.QPolynomial = rings.QPolynomial
        self._groups, self._truncs, self._rings = {}, {}, {}
        self.q1 = wb.QContext(1)

    # --- structures and values ---------------------------------------------

    def group(self, name):
        if name not in self._groups:
            self._groups[name] = self.wb.build_group(name)
        return self._groups[name]

    def trunc(self, name):
        if name not in self._truncs:
            self._truncs[name] = self.wb.TruncationSet(TRUNC[name])
        return self._truncs[name]

    def ring(self, name):
        if name not in self._rings:
            self._rings[name] = self.wb.parse_ring(name)
        return self._rings[name]

    def value(self, R, raw):
        if isinstance(raw, int):
            return self.wb.RingValue.from_int(R, raw)
        if R.name == "Q":
            return self.wb.RingValue(R, Fraction(raw[0], raw[1]))
        if R.name == "Q[q]":
            return self.wb.RingValue(R, self.QPolynomial([Fraction(c) for c in raw]))
        return self.wb.RingValue(
            R, self.MultiPoly(R.vars, {(ex, ey): Fraction(c) for c, ex, ey in raw}))

    def gvec(self, G, flavor, R, raw):
        k = len(self.wb.subgroup_classes(G))
        return self.wb.IndexedVector(G, flavor, R, [self.value(R, v) for v in raw[:k]])

    def cvec(self, T, flavor, R, raw):
        return self.wb.CyclicVector(T, flavor, R, [self.value(R, v) for v in raw[:len(T)]])

    def qctx(self, q):
        return self.wb.QContext(None if q == "q" else q)

    # --- running and checking ----------------------------------------------

    def run(self, spec):
        fam = spec["key"][0]
        head = fam.split(".")[0]
        handler = {"cyc": self._run_cyclic, "q": self._run_q}.get(head, self._run_group)
        return handler(spec)

    def check(self, spec, out):
        if spec["key"][2].startswith(("ZPoly", "QPoly")):
            spec, out = self._specialize(spec, out)
        fam = spec["key"][0]
        head = fam.split(".")[0]
        handler = {"cyc": self._check_cyclic, "q": self._check_q}.get(head, self._check_group)
        return bool(handler(spec, out))

    def _specialize(self, spec, out):
        """Evaluate a polynomial-ring operation at x, y = POINT.

        Every operation commutes with that ring map, so the check of the
        specialised inputs and output runs over Z or Q, where ghost powers
        stay cheap."""
        base = "Z" if spec["key"][2].startswith("ZPoly") else "Q"

        def at(terms):
            v = sum(Fraction(c) * POINT[0] ** ex * POINT[1] ** ey for c, ex, ey in terms)
            return v.numerator if base == "Z" else [v.numerator, v.denominator]

        def payload(p):
            v = sum((c * POINT[0] ** e[0] * POINT[1] ** e[1] for e, c in p.terms.items()),
                    Fraction(0))
            if base == "Z" and v.denominator != 1:
                raise ValueError(f"integer polynomial evaluated to {v}")
            return v.numerator if base == "Z" else v

        key = list(spec["key"])
        key[2] = base
        spec = {"key": key, "args": [[at(v) for v in vec] for vec in spec["args"]],
                "specialized": True}
        return spec, out.map_ring(self.ring(base), payload)

    def _gargs(self, spec, flavor, over=None):
        fam, s, ring, _, _, ci = spec["key"]
        G = self.group(s)
        U = self.wb.subgroup_group(G, ci) if over == "sub" else G
        R = self.ring(ring)
        return G, ci, [self.gvec(U, flavor, R, raw) for raw in spec["args"]]

    def _run_group(self, spec):
        wb = self.wb
        fam = spec["key"][0]
        parts = fam.split(".")
        if parts[0] in GROUP_FLAVOR_FAMS:
            flavor = {"witt": wb.WITT, "necklace": wb.NECKLACE,
                      "aperiodic": wb.APERIODIC}[parts[0]]
            fn = {"witt": wb.wg_op, "necklace": wb.nr_op, "aperiodic": wb.ap_op}[parts[0]]
            _, _, xs = self._gargs(spec, flavor)
            return fn(parts[1], *xs)
        if parts[0] == "ghost":
            flavor = {"witt": wb.WITT, "necklace": wb.NECKLACE,
                      "aperiodic": wb.APERIODIC}[parts[1]]
            fn = {"witt": wb.wg_ghost, "necklace": wb.nr_ghost,
                  "aperiodic": wb.ap_ghost}[parts[1]]
            _, _, (x,) = self._gargs(spec, flavor)
            return fn(x)
        if fam in TRANSPORT_FAMS:
            flavor = {"teichmuller": wb.WITT, "gamma": wb.WITT, "theta": wb.NECKLACE,
                      "teichmuller_inv": wb.NECKLACE, "theta_inv": wb.APERIODIC,
                      "gamma_inv": wb.APERIODIC}[fam]
            _, _, (x,) = self._gargs(spec, flavor)
            return getattr(wb, fam)(x)
        flavor, over = {
            "ind_nr": (wb.NECKLACE, "sub"), "ind_ap": (wb.APERIODIC, "sub"),
            "witt_v": (wb.WITT, "sub"), "ghost_nu": (wb.GHOST, "sub"),
            "res_nr": (wb.NECKLACE, None), "res_ap": (wb.APERIODIC, None),
            "witt_f": (wb.WITT, None), "ghost_F": (wb.GHOST, None)}[fam]
        G, ci, (x,) = self._gargs(spec, flavor, over)
        return getattr(wb, fam)(G, ci, x)

    def _check_group(self, spec, out):
        wb = self.wb
        fam = spec["key"][0]
        parts = fam.split(".")
        if parts[0] in GROUP_FLAVOR_FAMS:
            flavor = {"witt": wb.WITT, "necklace": wb.NECKLACE,
                      "aperiodic": wb.APERIODIC}[parts[0]]
            ghost = {"witt": wb.wg_ghost, "necklace": wb.nr_ghost,
                     "aperiodic": wb.ap_ghost}[parts[0]]
            _, _, xs = self._gargs(spec, flavor)
            return ghost(out).components == _combine(parts[1], [ghost(x) for x in xs])
        if parts[0] == "ghost":
            _, _, (x,) = self._gargs(spec, {"witt": wb.WITT, "necklace": wb.NECKLACE,
                                            "aperiodic": wb.APERIODIC}[parts[1]])
            if parts[1] == "necklace" and x.ring.name != "Z/8":
                return wb.nr_ghost_inv(out) == x
            if parts[1] == "aperiodic" and x.ring.name != "Z/8":
                return wb.ap_ghost_inv(out) == x
            # compare against the same map computed over Z, then reduced mod 8
            lift = x.map_ring(wb.parse_ring("Z"), lambda p: p) if x.ring.name == "Z/8" else None
            if parts[1] == "witt" and lift is None:
                return out.payloads() == wb.nr_ghost(wb.teichmuller(x)).payloads()
            fn = {"witt": wb.wg_ghost, "necklace": wb.nr_ghost,
                  "aperiodic": wb.ap_ghost}[parts[1]]
            return [c.payload % 8 for c in fn(lift).components] == list(out.payloads())
        if fam in TRANSPORT_FAMS:
            _, _, (x,) = self._gargs(spec, {
                "teichmuller": wb.WITT, "gamma": wb.WITT, "theta": wb.NECKLACE,
                "teichmuller_inv": wb.NECKLACE, "theta_inv": wb.APERIODIC,
                "gamma_inv": wb.APERIODIC}[fam])
            if fam == "teichmuller":
                return wb.teichmuller_inv(out) == x and wb.nr_ghost(out) == wb.wg_ghost(x)
            inverse = {"teichmuller_inv": wb.teichmuller, "theta": wb.theta_inv,
                       "theta_inv": wb.theta, "gamma": wb.gamma_inv,
                       "gamma_inv": wb.gamma}[fam]
            return inverse(out) == x
        G, ci, (x,) = self._gargs(
            spec, {"ind_nr": wb.NECKLACE, "ind_ap": wb.APERIODIC, "witt_v": wb.WITT,
                   "ghost_nu": wb.GHOST, "res_nr": wb.NECKLACE, "res_ap": wb.APERIODIC,
                   "witt_f": wb.WITT, "ghost_F": wb.GHOST}[fam],
            "sub" if fam in ("ind_nr", "ind_ap", "witt_v", "ghost_nu") else None)
        if fam == "ind_nr":
            return wb.ghost_nu(G, ci, wb.nr_ghost(x)) == wb.nr_ghost(out)
        if fam == "res_nr":
            return wb.ghost_F(G, ci, wb.nr_ghost(x)) == wb.nr_ghost(out)
        if fam == "ind_ap":
            return out == wb.theta(wb.ind_nr(G, ci, wb.theta_inv(x)))
        if fam == "res_ap":
            return out == wb.theta(wb.res_nr(G, ci, wb.theta_inv(x)))
        if fam == "witt_v":
            return wb.wg_ghost(out) == wb.ghost_nu(G, ci, wb.wg_ghost(x))
        if fam == "witt_f":
            return wb.wg_ghost(out) == wb.ghost_F(G, ci, wb.wg_ghost(x))
        if fam == "ghost_nu":
            return out == wb.nr_ghost(wb.ind_nr(G, ci, wb.nr_ghost_inv(x)))
        return out == wb.nr_ghost(wb.res_nr(G, ci, wb.nr_ghost_inv(x)))

    def _cargs(self, spec, flavor):
        _, s, ring, _, _, _ = spec["key"]
        T, R = self.trunc(s), self.ring(ring)
        return T, [self.cvec(T, flavor, R, raw) for raw in spec["args"]]

    def _run_cyclic(self, spec):
        wb = self.wb
        fam, r = spec["key"][0], spec["key"][4]
        if fam.startswith("cyc.witt."):
            _, xs = self._cargs(spec, wb.WITT)
            return wb.cyc_witt_op(fam.split(".")[2], *xs)
        if fam in ("cyc.nr_mul", "cyc.ap_mul"):
            flavor = wb.NECKLACE if fam == "cyc.nr_mul" else wb.APERIODIC
            _, xs = self._cargs(spec, flavor)
            return (wb.cyc_nr_mul if fam == "cyc.nr_mul" else wb.cyc_ap_mul)(*xs)
        if fam == "cyc.theta":
            _, (x,) = self._cargs(spec, wb.NECKLACE)
            return wb.cyc_theta(x)
        _, (x,) = self._cargs(spec, wb.WITT)
        return (wb.cyc_frobenius if fam == "cyc.frobenius" else wb.cyc_verschiebung)(r, x)

    def _check_cyclic(self, spec, out):
        wb = self.wb
        fam, _, ring, _, r, _ = spec["key"]
        if fam.startswith("cyc.witt."):
            T, xs = self._cargs(spec, wb.WITT)
            op = fam.split(".")[2]
            ok = (wb.cyc_witt_ghost(out).components
                  == _combine(op, [wb.cyc_witt_ghost(x) for x in xs]))
            if spec["key"][1] == "div12" and not spec.get("specialized"):
                # the q-model at q = 1 must reproduce the classical operation
                ok = ok and wb.q_witt_op(self.q1, op, *xs) == out
            return ok
        if fam in ("cyc.nr_mul", "cyc.ap_mul"):
            _, xs = self._cargs(spec, wb.NECKLACE if fam == "cyc.nr_mul" else wb.APERIODIC)
            return wb.cyc_ghost(out).components == _combine(
                "prod", [wb.cyc_ghost(x) for x in xs])
        if fam == "cyc.theta":
            _, (x,) = self._cargs(spec, wb.NECKLACE)
            return wb.cyc_theta_inv(out) == x
        T, (x,) = self._cargs(spec, wb.WITT)
        return _shift_ok(fam.endswith("frobenius"), r, T,
                         wb.cyc_witt_ghost(x).components,
                         wb.cyc_witt_ghost(out).components, x.ring)

    def _run_q(self, spec):
        wb = self.wb
        fam, _, _, q, r, _ = spec["key"]
        ctx = self.qctx(q)
        if fam.startswith("q.witt."):
            _, xs = self._cargs(spec, wb.WITT)
            return wb.q_witt_op(ctx, fam.split(".")[2], *xs)
        if fam == "q.artinhasse":
            _, (x,) = self._cargs(spec, wb.WITT)
            return wb.artin_hasse(ctx, x)
        flavor = {"q.teichmuller": wb.WITT, "q.teichmuller_inv": wb.NECKLACE,
                  "q.theta": wb.NECKLACE, "q.frobenius": wb.WITT,
                  "q.verschiebung": wb.WITT}[fam]
        _, (x,) = self._cargs(spec, flavor)
        if fam == "q.teichmuller":
            return wb.q_teichmuller(ctx, x)
        if fam == "q.teichmuller_inv":
            return wb.q_teichmuller_inv(ctx, x)
        if fam == "q.theta":
            return wb.theta_q(x)
        if fam == "q.frobenius":
            return wb.q_frobenius(ctx, r, x)
        return wb.q_verschiebung(r, x)

    def _check_q(self, spec, out):
        wb = self.wb
        fam, _, _, q, r, _ = spec["key"]
        ctx = self.qctx(q)
        if fam.startswith("q.witt."):
            _, xs = self._cargs(spec, wb.WITT)
            return wb.q_witt_ghost(ctx, out).components == _combine(
                fam.split(".")[2], [wb.q_witt_ghost(ctx, x) for x in xs])
        if fam == "q.artinhasse":
            T, (x,) = self._cargs(spec, wb.WITT)
            return (wb.artin_hasse_inv(ctx, out, T) == x
                    and out.coefficient(1) == x.component(1))
        if fam == "q.teichmuller":
            _, (x,) = self._cargs(spec, wb.WITT)
            return (wb.q_teichmuller_inv(ctx, out) == x
                    and wb.q_ghost(ctx, out).payloads() == wb.q_witt_ghost(ctx, x).payloads())
        if fam == "q.teichmuller_inv":
            _, (x,) = self._cargs(spec, wb.NECKLACE)
            return wb.q_teichmuller(ctx, out) == x
        if fam == "q.theta":
            _, (x,) = self._cargs(spec, wb.NECKLACE)
            return wb.theta_q_inv(out) == x
        T, (x,) = self._cargs(spec, wb.WITT)
        return _shift_ok(fam.endswith("frobenius"), r, T,
                         wb.q_witt_ghost(ctx, x).components,
                         wb.q_witt_ghost(ctx, out).components, x.ring)


def _combine(op, ghosts):
    """Componentwise ring operation on ghost vectors (the ghost homomorphism)."""
    if op == "neg":
        return tuple(-c for c in ghosts[0].components)
    a, b = ghosts
    if op == "sum":
        return tuple(u + v for u, v in zip(a.components, b.components))
    return tuple(u * v for u, v in zip(a.components, b.components))


def _shift_ok(frobenius, r, T, ghost_in, ghost_out, R):
    """Frobenius shifts ghost components n -> rn; Verschiebung sends n to
    r times component n/r, and to 0 where r does not divide n."""
    members = list(T.members)
    if frobenius:
        want = [ghost_in[members.index(r * n)] for n in members if r * n in T.members]
    else:
        want = [ghost_in[members.index(n // r)] * r if n % r == 0
                else ghost_in[0] * 0 for n in members]
    return list(ghost_out) == want


def canonical(out):
    """A seed-stable text form of one result, for the result digest."""
    parts = [getattr(out, "flavor", "curve"), out.ring.name]
    return "|".join(parts + [c.format() for c in out.components])
