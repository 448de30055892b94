"""Span tracing of the library's public functions, installed from outside it.

`Tracer.install()` wraps every target function and rebinds the wrapper in
every `wittburnside` module namespace that holds the original (`cyclic`, for
one, imports `_eval_compiled` from `burnside`), so internal calls are traced
too.  Spans are kept in flat arrays and written once, at the end.

`aggregate()` turns a span file into per-layer numbers: `.calls`, `.self_s`
(span duration minus the time its child spans cover), plus the derivation
hit ratios, the derived term count and the first-call time of the cyclic
operators.
"""
import array
import pickle
import sys
import time
from collections import defaultdict

# layer -> targets; "Class.method" names a method, anything else a function
LAYERS = {
    "rings.multipoly_mul": ("rings", ("MultiPoly.__mul__", "MultiPoly.__rmul__")),
    "rings.multipoly_add": ("rings", ("MultiPoly.__add__", "MultiPoly.__sub__")),
    "rings.qpoly_mul": ("rings", ("QPolynomial.__mul__",)),
    "rings.qpoly_eval": ("rings", ("QPolynomial.__call__",)),
    "groups.tables": ("groups", ("build_group", "subgroup_classes", "marks_matrix",
                                 "structure_constants", "double_cosets", "subgroup_group")),
    "burnside.derive": ("burnside", ("derive_universal",)),
    "burnside.witt_op": ("burnside", ("wg_op",)),
    "burnside.necklace_op": ("burnside", ("nr_op",)),
    "burnside.aperiodic_op": ("burnside", ("ap_op",)),
    "burnside.ghost": ("burnside", ("wg_ghost", "nr_ghost", "nr_ghost_inv", "ap_ghost",
                                    "ap_ghost_inv")),
    "burnside.transport": ("burnside", ("teichmuller", "teichmuller_inv", "theta",
                                        "theta_inv", "gamma", "gamma_inv", "exp_M",
                                        "exp_S")),
    "burnside.indres": ("burnside", ("ind_nr", "ind_ap", "res_nr", "res_ap", "witt_v",
                                     "witt_f", "ghost_nu", "ghost_F")),
    "cyclic.derive": ("cyclic", ("cyc_universal",)),
    "cyclic.witt_op": ("cyclic", ("cyc_witt_op",)),
    "cyclic.nr_ap_op": ("cyclic", ("cyc_nr_mul", "cyc_ap_mul", "cyc_nr_op", "cyc_ap_op")),
    "cyclic.operator": ("cyclic", ("cyc_frobenius", "cyc_verschiebung")),
    "cyclic.transport": ("cyclic", ("cyc_theta", "cyc_theta_inv", "cyc_ghost",
                                    "cyc_ghost_inv", "cyc_witt_ghost")),
    "qdeform.scalars": ("qdeform", ("p_poly", "zeta_mu_q", "tau_q")),
    "qdeform.derive": ("qdeform", ("q_universal",)),
    "qdeform.witt_op": ("qdeform", ("q_witt_op",)),
    "qdeform.nr_ap_op": ("qdeform", ("q_nr_mul", "q_ap_mul", "q_nr_op", "q_ap_op")),
    "qdeform.transport": ("qdeform", ("q_teichmuller", "q_teichmuller_inv", "theta_q",
                                      "theta_q_inv", "q_ghost", "q_ghost_inv",
                                      "q_witt_ghost")),
    "qdeform.operator": ("qdeform", ("q_frobenius", "q_verschiebung")),
    "qdeform.artinhasse": ("qdeform", ("artin_hasse", "artin_hasse_inv", "curve_add",
                                       "curve_mul", "curve_neg")),
}
ROOT_LAYER = "bench"  # the harness's own span around the timed phase
PROCESS_LAYER = "cli.process"  # a CLI subprocess's time outside library calls
DERIVE_LAYERS = ("burnside.derive", "cyclic.derive", "qdeform.derive")
FIRST_LAYERS = ("cyclic.operator",)


def _key(args):
    """Cache key of a derivation or operator call: (structure, op) or (r, truncation)."""
    return tuple(getattr(a, "truncation", a) for a in args[:2])


class Tracer:
    def __init__(self):
        self.names = []          # function id -> qualified name
        self.layer_of = []       # function id -> layer
        self.fid = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("q")
        self.stack = [-1]
        self.active = False
        self.seen = defaultdict(set)        # layer -> derivation keys seen
        self.hits = defaultdict(int)
        self.first_s = defaultdict(float)   # layer -> time of first calls per key
        self.terms = 0                      # terms of newly derived polynomials

    def _wrap(self, fn, name, layer):
        fid = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        keyed = layer in DERIVE_LAYERS or layer in FIRST_LAYERS
        pc = time.perf_counter
        fids, starts, ends, parents, stack = self.fid, self.start, self.end, self.parent, self.stack

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = len(starts)
            fids.append(fid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            new = False
            if keyed:
                key = (name,) + _key(args)
                new = key not in self.seen[layer]
                self.seen[layer].add(key)
                if not new:
                    self.hits[layer] += 1
            t0 = starts[i] = pc()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = ends[i] = pc()
                stack.pop()
            if new and layer in FIRST_LAYERS:
                self.first_s[layer] += t1 - t0
            if new and layer in DERIVE_LAYERS:
                self.terms += sum(len(p.terms) for p in getattr(out, "polys", ()))
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self):
        """Wrap every target and rebind it wherever the package holds it."""
        mods = [m for n, m in sorted(sys.modules.items())
                if (n == "wittburnside" or n.startswith("wittburnside.")) and m]
        for layer, (modname, targets) in LAYERS.items():
            mod = sys.modules[f"wittburnside.{modname}"]
            for target in targets:
                if "." in target:
                    cls_name, meth = target.split(".")
                    cls = getattr(mod, cls_name)
                    setattr(cls, meth, self._wrap(cls.__dict__[meth], target, layer))
                    continue
                orig = getattr(mod, target)
                wrapper = self._wrap(orig, target, layer)
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapper)

    def root_begin(self):
        """Open the harness span that the timed phase runs under."""
        self.names.append(ROOT_LAYER)
        self.layer_of.append(ROOT_LAYER)
        self.fid.append(len(self.names) - 1)
        self.parent.append(-1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.stack.append(len(self.start) - 1)
        self.active = True

    def root_end(self):
        self.active = False
        i = self.stack.pop()
        self.end[i] = time.perf_counter()
        return self.end[i] - self.start[i]

    def dump(self, path):
        data = {"names": self.names, "layers": self.layer_of, "fid": self.fid,
                "start": self.start, "end": self.end, "parent": self.parent,
                "hits": dict(self.hits), "first_s": dict(self.first_s),
                "terms": self.terms}
        with open(path, "wb") as fh:
            pickle.dump(data, fh, protocol=pickle.HIGHEST_PROTOCOL)


def load(path):
    """Read a span file this module wrote (never one from elsewhere)."""
    with open(path, "rb") as fh:
        return pickle.load(fh)


def merge(into, part, parent):
    """Append the spans of `part` (another process's file) to `into`, hanging
    its top-level spans under span `parent` of `into`."""
    base = len(into["start"])
    for i, name in enumerate(part["names"]):
        if name not in into["names"]:
            into["names"].append(name)
            into["layers"].append(part["layers"][i])
    remap = [into["names"].index(n) for n in part["names"]]
    into["fid"].extend(remap[f] for f in part["fid"])
    into["start"].extend(part["start"])
    into["end"].extend(part["end"])
    into["parent"].extend(parent if p < 0 else p + base for p in part["parent"])
    for k in ("hits", "first_s"):
        for layer, v in part[k].items():
            into[k][layer] = into[k].get(layer, 0) + v
    into["terms"] += part["terms"]


def aggregate(spans):
    """Per-layer calls and self time, and the traced wall time (the summed
    duration of the top-level spans).

    Raises ValueError when the spans do not nest, so that self times could
    not add up to the root's duration.
    """
    n = len(spans["start"])
    layers = [spans["layers"][f] for f in spans["fid"]]
    child = [0.0] * n
    for i in range(n):
        p = spans["parent"][i]
        if p >= 0:
            if not (spans["start"][p] <= spans["start"][i] <= spans["end"][i] <= spans["end"][p]):
                raise ValueError(f"span {i} lies outside its parent {p}")
            child[p] += spans["end"][i] - spans["start"][i]
    calls, self_s = defaultdict(int), defaultdict(float)
    wall = 0.0
    for i in range(n):
        dur = spans["end"][i] - spans["start"][i]
        s = dur - child[i]
        if s < -1e-6:
            raise ValueError(f"span {i} has negative self time {s}")
        self_s[layers[i]] += s
        calls[layers[i]] += 1
        if spans["parent"][i] < 0:
            wall += dur
    return calls, self_s, wall


def layer_metrics(spans):
    """The per-layer metric dict of one traced run, with its accounting check."""
    calls, self_s, wall = aggregate(spans)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls.get(layer, 0)
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    for layer in DERIVE_LAYERS:
        c = calls.get(layer, 0)
        out[f"{layer}.hit_ratio"] = spans["hits"].get(layer, 0) / c if c else 0.0
    for layer in FIRST_LAYERS:
        out[f"{layer}.first_s"] = spans["first_s"].get(layer, 0.0)
    out["burnside.universal_terms"] = spans["terms"]
    out[f"{PROCESS_LAYER}.calls"] = calls.get(PROCESS_LAYER, 0)
    out[f"{PROCESS_LAYER}.self_s"] = self_s.get(PROCESS_LAYER, 0.0)
    out[f"{ROOT_LAYER}.self_s"] = self_s.get(ROOT_LAYER, 0.0)
    return out, wall, sum(self_s.values())
