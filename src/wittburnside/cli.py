"""Command-line front end: inspection, vector-file arithmetic, table emission,
and the verification suites.

Vector files are JSON documents::

    {"schema_version": 1,
     "group": "S3"  |  {"cyclic_trunc": [1, 2, 3, 6]},
     "flavor": "Witt" | "Necklace" | "Aperiodic" | "Ghost",
     "ring": "Z" | "Q" | "Z/8" | "ZPoly(x,y)" | ...,
     "components": ["3", "-1/2", ...],
     "labels": ["G", "2a", ...]  |  [1, 2, 3, 6],
     "coord_form": true,            # optional: Necklace/Aperiodic in Witt coordinates
     "q": 2 | "q"}                  # the q of a coordinate-backed qwitt vector

A document is read into the one vector type, indexed by the group's subgroup
classes or by the truncation set; one reader, one writer and one handler per
verb kind serve the group, `cyclic` and `qwitt` verbs alike.  A process
pays only for the verb it runs.  A plain command line (exact verb words,
then the verb's exact long options and its positionals) is parsed without
argparse, by `_match`; argparse, the one writer of help and usage errors,
loads only for those and for what `_match` leaves to it, such as an
abbreviated option or --opt=value, which still work.  argparse builds only
the named verb's parser (every verb's when the command line names none),
while the top-level usage and errors still list every verb.  The
truncation-set and q models and the verification suites run their module
code only when a verb uses them.  No
verb reads a WB_CACHE_DIR entry: `universal`, `quniversal` and `verify`
solve the polynomials they print or check, and a derivation only writes a
missing entry (see `universal.ghost_system`).
All output is JSON with sorted keys; byte-for-byte deterministic given the
inputs, flags and seed.  Exit codes: 0 success, 1 verification failures,
2 schema/input errors, 3 domain errors (the message names the error class),
4 the output could not be written (a full device, a closed stdout, a pipe
with no reader).  The entry point `run` flushes the output, then os._exits.
"""
import contextlib
import importlib.util
import json
import math
import os
import sys
import types
from functools import partial

from .burnside import (
    APERIODIC,
    GHOST,
    NECKLACE,
    WITT,
    IndexedVector,
    ap_ghost,
    ap_op,
    derive_universal,
    ghost_F,
    ghost_nu,
    ind_ap,
    ind_nr,
    nr_ghost,
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
from .errors import DomainError, SchemaError, excerpt
from .groups import FiniteGroup, build_group, marks_matrix, subgroup_classes, subgroup_group
from .rings import RingValue, divisors, parse_ring
from .universal import index_labels


def _deferred(name):
    """The module wittburnside.<name>, whose code runs on its first attribute
    access (importlib's LazyLoader).  It is in sys.modules at once, where
    bench/spans.py looks for the modules whose functions it wraps."""
    full = f"{__package__}.{name}"
    module = sys.modules.get(full)
    if module is None:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[full] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


# the truncation-set and q models, and the verification suites
cyclic = _deferred("cyclic")
qdeform = _deferred("qdeform")
verify = _deferred("verify")

_OPWORD = {"add": "sum", "mul": "prod", "neg": "neg"}
_FAMILY = {"witt": WITT, "necklace": NECKLACE, "aperiodic": APERIODIC}
_RING_FLAVORS = (WITT, NECKLACE, APERIODIC)


def _write(text):
    out = sys.stdout
    if out is None:  # the process started with its stdout closed
        raise OSError("standard output is closed")
    out.write(text)
    out.flush()


def _emit(doc):
    _write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


# --- vector file I/O ---------------------------------------------------------


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise SchemaError(f"cannot read {path}: {e}")
    except ValueError as e:
        raise SchemaError(f"{path} is not valid JSON: {e}")
    except RecursionError:  # the decoder recurses once per nested array or object
        raise SchemaError(f"{path} nests JSON deeper than the decoder can read")
    if not isinstance(doc, dict) or doc.get("schema_version") != 1:
        raise SchemaError(f"{path}: expected a schema_version 1 document")
    return doc


def _parse_components(doc, ring, path):
    comps = doc.get("components")
    if not isinstance(comps, list):
        raise SchemaError(f"{path}: components must be a list of strings")
    out = []
    for c in comps:
        try:
            out.append(ring.parse_value(str(c)))
        except (ValueError, KeyError, SchemaError) as e:
            raise SchemaError(f"{path}: component {excerpt(c)} does not parse in {ring.name}: {e}")
    return out


def _check_ring(doc, ring_flag, path):
    name = doc.get("ring")
    if not isinstance(name, str):
        raise SchemaError(f"{path}: missing ring name")
    if ring_flag is not None and ring_flag != name:
        raise SchemaError(
            f"{path}: --ring {ring_flag} disagrees with the file's ring {name}"
        )
    return parse_ring(name)


def _check_flavor(doc, path, allowed):
    flavor = doc.get("flavor")
    if flavor not in (WITT, NECKLACE, APERIODIC, GHOST):
        raise SchemaError(f"{path}: unknown flavor {excerpt(flavor)}")
    if allowed is not None and flavor not in allowed:
        raise SchemaError(
            f"{path}: flavor {flavor} not usable here (expected {'/'.join(allowed)})"
        )
    return flavor


def _build_group(descriptor):
    """A group descriptor, or Base.label[.label...] for a subgroup class (as res writes)."""
    base, *labels = descriptor.split(".")
    G = build_group(base)
    for label in labels:
        G = subgroup_group(G, subgroup_classes(G).index_of_label(label))
    return G


def _read_vector(path, model, ring_flag=None, allowed=None, index=None, ctx=None):
    """The vector document at path, for a verb of model "group", "cyclic" or "qwitt".

    index, when given, is the group or truncation set the document must name
    (a second operand's, or the subgroup or ambient group of ind/res).  A
    coordinate-backed qwitt document must record the q it was made at, and
    a recorded q must be ctx's: Witt coordinates read at another q would
    name another necklace vector.  A recorded indeterminate q needs the Q[q]
    ring, as every q-map does.
    """
    doc = _load(path)
    gf = doc.get("group")
    if model == "group":
        if isinstance(gf, dict):
            raise SchemaError(f"{path}: expected a group vector, found a cyclic one")
        if not isinstance(gf, str):
            raise SchemaError(f"{path}: group must be a descriptor string")
        if index is None:
            index = _build_group(gf)
        elif gf != index.name:
            raise SchemaError(f"{path}: group {excerpt(gf)} does not match expected {index.name}")
        order = "the class order"
    else:
        if not (isinstance(gf, dict) and "cyclic_trunc" in gf):
            raise SchemaError(f"{path}: expected a cyclic vector with a cyclic_trunc group")
        T = cyclic.TruncationSet(gf["cyclic_trunc"])
        if index is not None and T != index:
            raise SchemaError("input files use different truncation sets")
        index, order = T, "the truncation set"
    flavor = _check_flavor(doc, path, allowed)
    ring = _check_ring(doc, ring_flag, path)
    labels = list(index_labels(index))
    if doc.get("labels") != labels:
        raise SchemaError(f"{path}: labels do not match {order} {labels}")
    comps = _parse_components(doc, ring, path)
    if len(comps) != len(labels):
        raise SchemaError(f"{path}: expected {len(labels)} components")
    coord_form = doc.get("coord_form", False)
    if type(coord_form) is not bool:
        raise SchemaError(f"{path}: coord_form must be true or false, not {excerpt(coord_form)}")
    if coord_form and flavor not in (NECKLACE, APERIODIC):
        raise SchemaError(f"{path}: coord_form applies to Necklace/Aperiodic vectors only")
    if coord_form and model == "cyclic":
        raise SchemaError(
            f"{path}: the cyclic verbs take component vectors; use qwitt for coord_form"
        )
    if model == "qwitt" and (coord_form or "q" in doc):
        q = _recorded_q(doc, path)
        if q is None:  # the indeterminate lives in the Q[q] ring only
            qdeform.QContext(None).q_payload(ring)
        if ctx is not None and q != ctx.q:
            raise SchemaError(
                f"{path}: the vector was made at q = {_q_text(q)}, not at --q {_q_text(ctx.q)}"
            )
    return IndexedVector.from_payloads(index, flavor, ring, comps, coord_form)


def _q_text(q):
    return "q" if q is None else q


def _recorded_q(doc, path):
    """The q a document records: an integer, or None for "q", the indeterminate."""
    if "q" not in doc:
        raise SchemaError(f"{path}: a coordinate-backed qwitt vector must record its q")
    q = doc["q"]
    if q != "q" and type(q) is not int:
        raise SchemaError(f'{path}: q must be an integer or "q", not {excerpt(q)}')
    return None if q == "q" else q


def _vector_doc(vec, ctx=None):
    """The document of vec; a coordinate-backed vector on a truncation set
    records ctx's q."""
    labels = list(index_labels(vec.index))
    on_group = isinstance(vec.index, FiniteGroup)
    doc = {
        "schema_version": 1,
        "group": vec.index.name if on_group else {"cyclic_trunc": labels},
        "flavor": vec.flavor,
        "ring": vec.ring.name,
        "components": [c.format() for c in vec.components],
        "labels": labels,
    }
    if vec.coord_form:
        doc["coord_form"] = True
        if not on_group:
            doc["q"] = _q_text(ctx.q)
    return doc


def _curve_doc(curve, q):
    return {
        "schema_version": 1,
        "kind": "curve",
        "q": _q_text(q),
        "ring": curve.ring.name,
        "degree": curve.degree,
        "coefficients": [c.format() for c in curve.components],
    }


def _read_curve(path, ring_flag=None):
    doc = _load(path)
    if doc.get("kind") != "curve":
        raise SchemaError(f"{path}: expected a curve document")
    ring = _check_ring(doc, ring_flag, path)
    coeffs = doc.get("coefficients")
    if not isinstance(coeffs, list) or not coeffs:
        raise SchemaError(f"{path}: coefficients must be a non-empty list")
    vals = []
    for c in coeffs:
        try:
            vals.append(RingValue.parse(ring, str(c)))
        except (ValueError, KeyError, SchemaError) as e:
            raise SchemaError(f"{path}: coefficient {excerpt(c)} does not parse: {e}")
    return qdeform.TruncatedCurve(ring, vals)


def _qcontext(args):
    raw = getattr(args, "q", None)
    if raw is None or raw == "q":
        return qdeform.QContext(None)
    try:
        return qdeform.QContext(int(raw))
    except ValueError:
        raise SchemaError(f"--q must be an integer or the symbol q, got {excerpt(raw)}")


def _truncation(args, default=None):
    """The q-model truncation set of --trunc-set or --trunc, else default; a
    member above the q-model's bound is refused, and --trunc N before div(N)
    factors N."""
    if getattr(args, "trunc_set", None) is not None:
        try:
            members = [int(p) for p in args.trunc_set.split(",")]
        except ValueError:
            raise SchemaError(f"--trunc-set must be a comma list of integers")
        T = cyclic.TruncationSet(members)
        cyclic.check_q_member(T.members[-1])
        return T
    if getattr(args, "trunc", None) is not None:
        cyclic.check_q_member(args.trunc)
        return cyclic.TruncationSet.div(args.trunc)
    if default is not None:
        return default
    raise SchemaError("a truncation set is required (--trunc N or --trunc-set a,b,c)")


# --- command handlers --------------------------------------------------------


def cmd_group_info(args):
    G = _build_group(args.group)
    mm = marks_matrix(G)
    ct = mm.table
    k = len(ct.classes)
    _emit(
        {
            "group": G.name,
            "order": G.order,
            "abelian": G.is_abelian(),
            "classes": [
                {
                    "label": c.label,
                    "order": c.order,
                    "index": c.index,
                    "normalizer_index": c.normalizer_index,
                    "conjugates": len(c.conjugates),
                }
                for c in ct.classes
            ],
            "marks": [[mm.zeta.entry(i, j) for j in range(k)] for i in range(k)],
            "mobius": [
                [str(mm.mobius.entry(i, j)) for j in range(k)] for i in range(k)
            ],
        }
    )
    return 0


def _qwitt_context(args):
    """The q of a qwitt verb, read before its input files: --q, or for a verb
    without it (theta, verschiebung) the q its input file records, if any;
    None for the other models."""
    if args.model != "qwitt":
        return None
    if hasattr(args, "q"):
        return _qcontext(args)
    doc = _load(args.input)
    return qdeform.QContext(_recorded_q(doc, args.input)) if "q" in doc else None


def cmd_flavor_op(args):
    model, op, family = args.model, _OPWORD[args.op], getattr(args, "family", None)
    ctx = _qwitt_context(args)
    x = _read_vector(args.input, model, args.ring, (_FAMILY[family],) if family else _RING_FLAVORS,
                     ctx=ctx)
    y = None
    if op != "neg":
        if args.other is None:
            words = (None if model == "group" else model, family, args.op)
            raise SchemaError(f"{' '.join(w for w in words if w)} needs two input files")
        y = _read_vector(args.other, model, args.ring, (x.flavor,), x.index, ctx)
        if y.ring != x.ring:
            raise SchemaError("input files use different rings")
        if y.coord_form != x.coord_form:
            raise SchemaError("cannot mix coordinate-backed and plain vectors")
    if model == "group":
        fn = {WITT: wg_op, NECKLACE: nr_op, APERIODIC: ap_op}[x.flavor]
    elif model == "cyclic":
        fn = {WITT: cyclic.cyc_witt_op, NECKLACE: cyclic.cyc_nr_op,
              APERIODIC: cyclic.cyc_ap_op}[x.flavor]
    else:
        fn = partial({WITT: qdeform.q_witt_op, NECKLACE: qdeform.q_nr_op,
                      APERIODIC: qdeform.q_ap_op}[x.flavor], ctx)
    out = fn(op, x) if y is None else fn(op, x, y)
    _emit(_vector_doc(out, ctx))
    return 0


def cmd_ghost(args):
    ctx = _qwitt_context(args)
    flavor = getattr(args, "flavor", None)
    x = _read_vector(args.input, args.model, args.ring, (flavor,) if flavor else _RING_FLAVORS,
                     ctx=ctx)
    if args.model == "group":
        out = {WITT: wg_ghost, NECKLACE: nr_ghost, APERIODIC: ap_ghost}[x.flavor](x)
    elif args.model == "cyclic":
        out = cyclic.cyc_witt_ghost(x) if x.flavor == WITT else cyclic.cyc_ghost(x)
    else:
        out = qdeform.q_witt_ghost(ctx, x) if x.flavor == WITT else qdeform.q_ghost(ctx, x)
    _emit(_vector_doc(out))
    return 0


def cmd_teichmuller(args):
    ctx = _qwitt_context(args)
    x = _read_vector(args.input, args.model, args.ring, (NECKLACE,) if args.inverse else (WITT,),
                     ctx=ctx)
    if args.model == "group":
        out = teichmuller_inv(x) if args.inverse else teichmuller(x)
    else:
        out = (qdeform.q_teichmuller_inv if args.inverse else qdeform.q_teichmuller)(ctx, x)
    _emit(_vector_doc(out, ctx))
    return 0


def cmd_theta(args):
    ctx = _qwitt_context(args)
    x = _read_vector(args.input, args.model, args.ring,
                     (APERIODIC,) if args.inverse else (NECKLACE,), ctx=ctx)
    if args.model == "group":
        out = theta_inv(x) if args.inverse else theta(x)
    elif args.model == "cyclic":
        out = cyclic.cyc_theta_inv(x) if args.inverse else cyclic.cyc_theta(x)
    else:
        out = qdeform.theta_q_inv(x) if args.inverse else qdeform.theta_q(x)
    _emit(_vector_doc(out, ctx))
    return 0


def _class_index(G, label):
    return subgroup_classes(G).index_of_label(label)


def cmd_ind(args):
    G = _build_group(args.group)
    ci = _class_index(G, args.cls)
    U = subgroup_group(G, ci)
    x = _read_vector(args.input, "group", args.ring, None, U)
    fn = {WITT: witt_v, NECKLACE: ind_nr, APERIODIC: ind_ap, GHOST: ghost_nu}[x.flavor]
    _emit(_vector_doc(fn(G, ci, x)))
    return 0


def cmd_res(args):
    G = _build_group(args.group)
    ci = _class_index(G, args.cls)
    x = _read_vector(args.input, "group", args.ring, None, G)
    fn = {WITT: witt_f, NECKLACE: res_nr, APERIODIC: res_ap, GHOST: ghost_F}[x.flavor]
    _emit(_vector_doc(fn(G, ci, x)))
    return 0


def cmd_universal(args):
    G = _build_group(args.group)
    uni = derive_universal(G, args.op)
    labels = list(subgroup_classes(G).labels())
    _emit(
        {
            "group": G.name,
            "op": uni.op,
            "vars": list(uni.vars),
            "polys": {lab: p.format() for lab, p in zip(labels, uni.polys)},
        }
    )
    return 0


def _operator_index(args):
    if args.r < 1:
        raise SchemaError(f"--r must be a positive integer, got {args.r}")
    return args.r


def cmd_operator(args):
    r = _operator_index(args)
    frobenius = args.operator == "frobenius"
    ctx = _qwitt_context(args)
    x = _read_vector(args.input, args.model, args.ring, None if frobenius else _RING_FLAVORS,
                     ctx=ctx)
    if args.model == "cyclic":
        out = cyclic.cyc_frobenius(r, x) if frobenius else cyclic.cyc_verschiebung(r, x)
    else:
        out = qdeform.q_frobenius(ctx, r, x) if frobenius else qdeform.q_verschiebung(r, x)
    _emit(_vector_doc(out, ctx))
    return 0


# `qpoly P` computes P_{n,i,j} for every pair of divisors, at a cost that
# grows steeply with n: about 0.7 s at n = 120 and 42 s at n = 720 on one
# Intel Xeon vCPU
QPOLY_N_BOUND = 120


def cmd_qpoly(args):
    n = args.n
    if n < 1:
        raise SchemaError("--n must be a positive integer")
    if n > QPOLY_N_BOUND:
        raise DomainError(f"--n {n} exceeds supported bound {QPOLY_N_BOUND}")
    if args.kind == "P":
        polys = {}
        for i in divisors(n):
            for j in divisors(n):
                if n % math.lcm(i, j) == 0:
                    polys[f"({i},{j})"] = qdeform.p_poly(n, i, j).format()
        _emit({"kind": "P", "n": n, "polys": polys})
    else:
        _emit(
            {
                "kind": "tau",
                "n": n,
                "polys": {str(i): qdeform.tau_q(i, n).format() for i in divisors(n)},
            }
        )
    return 0


# `quniversal` solves every member's polynomials, at a cost that grows
# steeply with the largest member (its divisors and its degree): the prod
# forms take about 0.6 s on 1..16, a superset of every set with members up to
# 16, and 22 s on div(24) on one Intel Xeon vCPU
QUNIVERSAL_N_BOUND = 16


def cmd_quniversal(args):
    T = _truncation(args)
    if T.members[-1] > QUNIVERSAL_N_BOUND:
        raise DomainError(f"truncation set member {T.members[-1]} exceeds supported bound "
                          f"{QUNIVERSAL_N_BOUND}")
    uni = qdeform.q_universal(T, args.op)
    _emit(
        {
            "op": uni.op,
            "trunc": list(T.members),
            "vars": list(uni.vars),
            "polys": {str(n): p.format() for n, p in zip(T.members, uni.polys)},
        }
    )
    return 0


def cmd_qwitt_tryone(args):
    ctx = _qcontext(args)
    T = _truncation(args)
    R = parse_ring(args.ring or "Z")
    one = qdeform.try_one(ctx, T, R)
    if one is None:
        _emit({"exists": False, "trunc": list(T.members), "ring": R.name})
    else:
        doc = _vector_doc(one)
        doc["exists"] = True
        _emit(doc)
    return 0


def cmd_artinhasse(args):
    ctx = _qcontext(args)
    if args.inverse:
        curve = _read_curve(args.input, args.ring)
        if args.trunc is None and args.trunc_set is None:
            # artin_hasse_inv's checks, before the default set 1..degree is built
            ctx.q_payload(curve.ring)
            qdeform.check_curve_degree(curve.degree)
        T = _truncation(args, cyclic.TruncationSet(range(1, curve.degree + 1)))
        if curve.degree != T.members[-1]:
            raise SchemaError(
                f"{args.input}: curve degree {curve.degree} does not match max(T) = {T.members[-1]}"
            )
        _emit(_vector_doc(qdeform.artin_hasse_inv(ctx, curve, T)))
    else:
        x = _read_vector(args.input, "qwitt", args.ring, (WITT,), ctx=ctx)
        _emit(_curve_doc(qdeform.artin_hasse(ctx, x), ctx.q))
    return 0


def cmd_verify(args):
    report = verify.run_suite(args.suite, args.seed, args.size, args.inject_fault)
    _emit(report)
    return 1 if report["failures"] else 0


# --- parser ------------------------------------------------------------------


def _add_ring_flag(p):
    p.add_argument("--ring", help="ring name; must agree with the input files")


def _add_vector_io(p, binary):
    p.add_argument("input", help="input vector file (JSON)")
    if binary:
        p.add_argument("other", nargs="?", help="second input file for binary ops")
    _add_ring_flag(p)


def _verbs(p, dest, rest, verbs):
    """Fill in p's sub-parsers `dest` from verbs {name: (help or None, build)};
    build(parser, rest) fills in a parser, given the words after its name.
    p is an argparse parser, or a `_Spec` that records the same calls for
    `_match`.  Only the verb rest[0] names is built, every one when it names
    none (help, a typo).  A parser built for one verb alone still lists every
    verb in its usage line, which an error after that verb prints.

    In a fresh interpreter (one Intel Xeon vCPU, Python 3.11.7, medians of
    21), `_match` reads `qwitt mul --q 2 a b` in 0.07 ms; argparse would
    take 2.3 ms to import with gettext, 2.1 ms to build this parser (most
    of it gettext lookups, which import locale) and 0.4 ms to parse."""
    named = rest[0] if rest and rest[0] in verbs else None
    sub = p.add_subparsers(dest=dest, required=True,
                           metavar="{" + ",".join(verbs) + "}" if named else None)
    for name, (text, build) in verbs.items():
        if named in (None, name):
            build(sub.add_parser(name, **({} if text is None else {"help": text})), rest[1:])


def _flavor_ops(p, rest, model, family):
    _verbs(p, "op", rest, {op: (None, partial(_flavor_op, model=model, family=family, op=op))
                           for op in _OPWORD})


def _flavor_op(p, rest, model, family, op):
    _add_vector_io(p, op != "neg")
    p.set_defaults(fn=cmd_flavor_op, family=family, op=op, model=model)


def _group_verb(p, rest):
    _verbs(p, "groupverb", rest, {"info": ("classes, marks and Moebius matrix", _group_info)})


def _group_info(p, rest):
    p.add_argument("--group", required=True)
    p.set_defaults(fn=cmd_group_info)


def _ghost_verb(p, rest, model="group"):
    _add_vector_io(p, False)
    p.add_argument("--flavor", choices=_RING_FLAVORS)
    p.set_defaults(fn=cmd_ghost, model=model)


def _inverse_verb(p, rest, fn, model="group"):
    _add_vector_io(p, False)
    p.add_argument("--inverse", action="store_true")
    p.set_defaults(fn=fn, model=model)


def _subgroup_verb(p, rest, fn):
    p.add_argument("--group", required=True, help="ambient group")
    p.add_argument("--class", dest="cls", required=True, help="subgroup class label")
    _add_vector_io(p, False)
    p.set_defaults(fn=fn)


def _universal_verb(p, rest):
    p.add_argument("--group", required=True)
    p.add_argument("--op", required=True, choices=("sum", "prod", "neg"))
    p.set_defaults(fn=cmd_universal)


def _operator_verb(p, rest, operator, model):
    p.add_argument("--r", type=int, required=True)
    _add_vector_io(p, False)
    p.set_defaults(fn=cmd_operator, operator=operator, model=model)


def _cyclic_verb(p, rest):
    _verbs(p, "cyclicverb", rest, {
        **{family: (None, partial(_flavor_ops, model="cyclic", family=family))
           for family in _FAMILY},
        "ghost": (None, partial(_ghost_verb, model="cyclic")),
        "theta": (None, partial(_inverse_verb, fn=cmd_theta, model="cyclic")),
        **{operator: (None, partial(_operator_verb, operator=operator, model="cyclic"))
           for operator in ("frobenius", "verschiebung")},
    })


def _qpoly_verb(p, rest):
    p.add_argument("kind", choices=("P", "tau"))
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_qpoly)


def _quniversal_verb(p, rest):
    p.add_argument("--op", required=True, choices=("sum", "prod", "neg"))
    p.add_argument("--trunc", type=int)
    p.add_argument("--trunc-set")
    p.set_defaults(fn=cmd_quniversal)


def _qwitt_verb(p, rest):
    _verbs(p, "qverb", rest, {
        **{op: (None, partial(_qwitt_op, op=op)) for op in _OPWORD},
        "ghost": (None, _qwitt_ghost),
        "teichmuller": (None, _qwitt_teichmuller),
        "theta": (None, _qwitt_theta),
        "frobenius": (None, _qwitt_frobenius),
        "verschiebung": (None, partial(_operator_verb, operator="verschiebung", model="qwitt")),
        "tryone": (None, _qwitt_tryone),
    })


def _qwitt_op(p, rest, op):
    p.add_argument("--q", required=True, help="integer or the symbol q")
    _flavor_op(p, rest, model="qwitt", family=None, op=op)


def _qwitt_ghost(p, rest):
    p.add_argument("--q", required=True)
    _add_vector_io(p, False)
    p.set_defaults(fn=cmd_ghost, model="qwitt")


def _qwitt_teichmuller(p, rest):
    p.add_argument("--q", required=True)
    p.add_argument("--inverse", action="store_true")
    _add_vector_io(p, False)
    p.set_defaults(fn=cmd_teichmuller, model="qwitt")


def _qwitt_theta(p, rest):
    p.add_argument("--inverse", action="store_true")
    _add_vector_io(p, False)
    p.set_defaults(fn=cmd_theta, model="qwitt")


def _qwitt_frobenius(p, rest):
    p.add_argument("--q", required=True)
    _operator_verb(p, rest, operator="frobenius", model="qwitt")


def _qwitt_tryone(p, rest):
    p.add_argument("--q", required=True)
    p.add_argument("--trunc", type=int)
    p.add_argument("--trunc-set")
    p.add_argument("--ring", default="Z")
    p.set_defaults(fn=cmd_qwitt_tryone)


def _artinhasse_verb(p, rest):
    p.add_argument("--q", required=True)
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--trunc", type=int)
    p.add_argument("--trunc-set")
    _add_vector_io(p, False)
    p.set_defaults(fn=cmd_artinhasse)


def _verify_verb(p, rest):
    p.add_argument("--suite", default="all", choices=verify.SUITES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", type=int, default=1)
    p.add_argument("--inject-fault", action="store_true", help=p.SUPPRESS)
    p.set_defaults(fn=cmd_verify)


# verb -> (help, builder of its arguments and sub-parsers)
_VERBS = {
    "group": ("group inspection", _group_verb),
    **{family: (f"{family} ring ops on group vector files",
                partial(_flavor_ops, model="group", family=family))
       for family in _FAMILY},
    "ghost": ("ghost map of a group vector file", _ghost_verb),
    "teichmuller": ("Witt -> necklace transport", partial(_inverse_verb, fn=cmd_teichmuller)),
    "theta": ("necklace -> aperiodic rescaling", partial(_inverse_verb, fn=cmd_theta)),
    "ind": ("induction along a subgroup class", partial(_subgroup_verb, fn=cmd_ind)),
    "res": ("restriction along a subgroup class", partial(_subgroup_verb, fn=cmd_res)),
    "universal": ("universal operation polynomials", _universal_verb),
    "cyclic": ("truncation-set model", _cyclic_verb),
    "qpoly": ("q-weighted lattice polynomials", _qpoly_verb),
    "quniversal": ("q-deformed universal polynomials", _quniversal_verb),
    "qwitt": ("q-deformed cyclic model", _qwitt_verb),
    "artinhasse": ("Artin-Hasse-type curve of a Witt vector", _artinhasse_verb),
    "verify": ("run a verification suite", _verify_verb),
}


def _parser(argv=()):
    """The argparse parser of argv: at each level only the verb argv names is
    built (see _verbs)."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """argparse's parser, whose help raises the OSError of a failed write
        (argparse's own swallows it); its sub-parsers are of the same class."""

        SUPPRESS = argparse.SUPPRESS  # a help text that argparse checks by identity

        def print_help(self, file=None):
            if file is not None:
                return super().print_help(file)
            _write(self.format_help())

    ap = _Parser(
        prog="wittburnside",
        description="Exact Witt-Burnside / necklace / aperiodic ring arithmetic.",
    )
    _verbs(ap, "verb", list(argv), _VERBS)
    return ap


class _Spec:
    """What the verb builders declare of one parser, recorded without argparse
    for _match: the calls add_argument, set_defaults, add_subparsers and
    add_parser.  add_subparsers returns the spec itself, whose add_parser
    records a sub-verb."""

    SUPPRESS = None  # help texts are argparse's alone

    def __init__(self):
        self.options, self.positionals, self.values = {}, [], {}
        self.dest = self.verbs = None

    def add_argument(self, name, **kw):
        if name.startswith("-"):
            kw.setdefault("dest", name[2:].replace("-", "_"))
            self.options[name] = kw
        else:
            kw["dest"] = name
            self.positionals.append(kw)
        self.values[kw["dest"]] = kw.get("default",
                                         False if kw.get("action") == "store_true" else None)

    def set_defaults(self, **kw):
        self.values.update(kw)

    def add_subparsers(self, dest, **kw):
        self.dest, self.verbs = dest, {}
        return self

    def add_parser(self, name, **kw):
        spec = self.verbs[name] = _Spec()
        return spec


def _value(arg, text):
    """text read as argparse reads arg's value; ValueError where argparse
    would refuse it."""
    value = arg.get("type", str)(text)
    if value not in arg.get("choices", (value,)):
        raise ValueError(value)
    return value


def _match(argv):
    """The namespace argparse makes of argv when argv is plain, else None.

    Plain is an exact verb word at each level, then the leaf parser's exact
    long options, each at most once, each value not starting with "-", and
    its positionals in one run, every required one given.  Anything else
    (help, an abbreviation, --opt=value, a negative value, a usage error)
    is left to argparse."""
    spec, words, values = _Spec(), list(argv), {}
    _verbs(spec, "verb", words, _VERBS)
    while spec.verbs is not None:
        if not words or words[0] not in spec.verbs:
            return None
        values.update(spec.values)
        values[spec.dest] = words[0]
        spec = spec.verbs[words.pop(0)]
    values.update(spec.values)
    operands, closed, words = [], False, iter(words)
    try:
        for word in words:
            if not word.startswith("-"):
                if closed:  # argparse refuses positionals on both sides of an option
                    return None
                operands.append(word)
                continue
            closed = bool(operands)
            arg = spec.options.pop(word, None)  # popped: each option at most once
            if arg is None:
                return None
            if arg.get("action") == "store_true":
                values[arg["dest"]] = True
                continue
            text = next(words, "-")
            if text.startswith("-"):
                return None
            values[arg["dest"]] = _value(arg, text)
        for arg, text in zip(spec.positionals, operands):
            values[arg["dest"]] = _value(arg, text)
    except ValueError:
        return None
    given = len(operands)
    if (any(arg.get("required") for arg in spec.options.values())
            or given > len(spec.positionals)
            or any(arg.get("nargs") is None for arg in spec.positionals[given:])):
        return None
    return types.SimpleNamespace(**values)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        # argparse parses what _match declines, and writes --help to stdout
        args = _match(argv) or _parser(argv).parse_args(argv)
        return args.fn(args)
    except SchemaError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except DomainError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 3
    except OSError as e:  # reading an input or a cache entry raises no OSError: the output failed
        print(f"OSError: {e}", file=sys.stderr)
        if sys.stdout is not None and sys.stdout is sys.__stdout__:
            # the Python docs' recipe for SIGPIPE: what stdout still buffers
            # goes to devnull, so the flush at exit cannot fail a second time
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 4


def run():
    """The process entry point: main, a flush of the output, then os._exit (no teardown)."""
    try:
        code = main()
    except SystemExit as e:  # argparse's usage errors and --help
        code = e.code
        if code is not None and not isinstance(code, int):  # as sys.exit: print it, exit 1
            code = print(code, file=sys.stderr) or 1
    for stream in filter(None, (sys.stdout, sys.stderr)):  # a closed stream is None
        try:
            stream.flush()
        except OSError as e:  # what stayed buffered could not be written
            code = 4
            with contextlib.suppress(OSError):  # stderr may be what failed
                print(f"OSError: {e}", file=sys.stderr)
    os._exit(code or 0)


if __name__ == "__main__":
    run()
