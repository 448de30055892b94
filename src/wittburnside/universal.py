"""Every Witt-type operation, solved on one ghost table.

The Witt-Burnside ring of a finite group, the truncated big Witt vectors and
their q-deformation are each the unique ring structure that makes a
unitriangular ghost map a homomorphism.  A ghost table describes that map:
row u lists the entries (v, weight, exponent, qpower) of

    w_u(x) = sum of weight * q^qpower * x_v^exponent,

and ends with its diagonal entry (u, weight, 1, 0).  Only the tables differ
between the models:

    groups        marks m(V, U) and the index ratios (G:U)/(G:V)
    truncations   d and n/d for d | n
    q-deformed    d q^(n/d - 1) and n/d

The sum, product and negation solve w(s) = w(a) + w(b), w(a) w(b) and
-w(a); a Frobenius solves w_u(s) = w_{shift[u]}(a).  One triangular solve,
`solve_triangular`, serves all of them: at the payloads of an operation
(over Z/m lifted to Z and reduced), and at the variables themselves for the
universal polynomials.  Those are derived once per structure and operation,
when first read (an operation reads only its system); their integral (in
the q-model numerical) coefficients certify that the solve stays in the
ring.  They are memoised in process and, when WB_CACHE_DIR is set, kept on
disk.  An operation only makes sure its entry exists (solving and writing
it if not) and never reads it; where the polynomials themselves are read
(`universal`, `quniversal`, the integrality checks) an entry is used only
after it passes validation, and a rejected one is solved and rewritten.

The transports between the flavors solve on the same tables.  With every
exponent 1 (`linear_table`) a table is the ghost of the necklace flavor;
with each weight then divided by the index of its entry's subgroup ((G:V),
or d itself on a truncation set) it is the ghost of the aperiodic flavor,
as theta multiplies each component by that index (Dress-Siebeneicher).  A
weight stays an int where that quotient is integral and is a Fraction
elsewhere.  A Fraction weight scales by its image in a Q-algebra; outside
one `ghost_values` refuses it on a non-zero payload (NonIntegralConstant,
naming the caller's context) and `solve_triangular` raises its caller's
`fail` for the row.
"""
from __future__ import annotations

import json
import os
import re
import tempfile
from fractions import Fraction

from .errors import (
    DomainError,
    IntegralityViolation,
    NonIntegralConstant,
    NumericalityViolation,
)
from .groups import FiniteGroup, subgroup_classes
from .rings import ZZ, MultiPoly, PolyRing, QPolynomial, ResidueRing

OPS = ("sum", "prod", "neg")
FORMAT = "u2"  # on-disk format tag; part of every cache file name
MEMO: dict = {}  # (group or truncation set, op tag) -> UniversalSet

_SPOT_Q = 2  # q at the ghost-identity spot check of a disk entry
_FRACTION = re.compile(r"-?[0-9]+/[0-9]+")


def check_op(op: str):
    if op not in OPS:
        raise ValueError(f"op must be one of {OPS}")


def index_labels(index):
    """The labels of an index set: a group's subgroup classes (strings), or a
    truncation set's members (integers)."""
    if isinstance(index, FiniteGroup):
        return subgroup_classes(index).labels()
    return index.members


def subgroup_indices(index):
    """The index of the subgroup each label stands for: (G:V) for a group's
    classes, n itself for a truncation set's members."""
    if isinstance(index, FiniteGroup):
        return tuple(c.index for c in subgroup_classes(index).classes)
    return index.members


class UniversalSet:
    """Universal polynomials of one operation: the solution of a GhostSystem.

    `structure` (the system's) is the group or truncation set whose index set
    labels polys (for a Frobenius, the set of n with r n in the input set).
    polys are MultiPoly in `vars`; in the q-model vars[0] is q itself.  They
    are loaded on first access: from the disk entry at `path` if it passes
    validation, else solved for (and written to `path`, if any).  An
    operation reads only `system`.  Fractional coefficients and
    non-numerical q-coefficients are refused.  `compiled` pairs each
    monomial in the other variables,
    given as ((var_index, exp), ...), with its coefficient: an int, or in the
    q-model a numerical QPolynomial.
    """

    __slots__ = ("system", "path", "_polys")

    def __init__(self, system, path=None):
        self.system = system
        self.path = path
        self._polys = None

    @property
    def polys(self):
        if self._polys is None:
            polys = _cache_read(self.path, self.system) if self.path else None
            if polys is None:
                polys = _certified(self.system, self.system.solve())
                if self.path:
                    _cache_write(self.path, self.vars, polys)
            self._polys = polys
        return self._polys

    structure = property(lambda self: self.system.structure)
    op = property(lambda self: self.system.op)
    vars = property(lambda self: self.system.vars)
    # the names the group and the truncation-set models read structure by
    group = structure
    truncation = structure

    @property
    def compiled(self):
        if self.system.q:
            return tuple(_compile_q(self.op, p) for p in self.polys)
        return tuple(p.compiled() for p in self.polys)


def _certified(system, polys):
    """polys as a tuple, once their coefficients are integral (numerical in
    the q-model).  An integral solve reports a failing row itself; this
    guards entries read from disk, and the q-model's coefficients."""
    polys = tuple(polys)
    if system.q:
        for p in polys:
            _compile_q(system.op, p)  # grouping by monomial checks numericality
    elif not all(p.is_integral() for p in polys):
        raise IntegralityViolation(f"universal {system.op} polynomial has fractional coefficients")
    return polys


def _compile_q(op, p: MultiPoly):
    """Group a poly in ("q", x_1, ...) by x-monomial; coefficients must be numerical."""
    groups: dict = {}
    for e, c in p.terms.items():
        mono = tuple((i - 1, ee) for i, ee in enumerate(e) if i > 0 and ee)
        groups[mono] = groups.get(mono, QPolynomial()) + QPolynomial.monomial(c, e[0])
    out = []
    for mono, poly in sorted(groups.items()):
        if poly.is_zero():
            continue
        if not poly.is_numerical():
            raise NumericalityViolation(f"structure coefficient {poly.format()} is not numerical")
        out.append((poly, mono))
    return tuple(out)


def evaluate(terms, R, payloads):
    """One compiled polynomial at the given payloads, computed in R.

    A coefficient is an int, or already an element of R.
    """
    cache = {}
    total = R.zero()
    for coeff, factors in terms:
        term = R.from_int(coeff) if type(coeff) is int else coeff
        for vi, e in factors:
            term = R.mul(term, _pow(R, payloads, vi, e, cache))
        total = R.add(total, term)
    return total


def _pow(R, xs, v, e, cache):
    """xs[v] ** e in R (e >= 1), by squarings and products that `cache` shares."""
    p = cache.get((v, e))
    if p is None:
        if e == 1:
            p = xs[v]
        elif e % 2:
            p = R.mul(_pow(R, xs, v, e - 1, cache), xs[v])
        else:
            h = _pow(R, xs, v, e // 2, cache)
            p = R.mul(h, h)
        cache[v, e] = p
    return p


def linear_table(table, indices=None):
    """The table with every exponent 1: the ghost of the necklace flavor.  With
    the subgroup indices of its index set (`subgroup_indices`), each weight
    is divided by the index of its entry's subgroup: the ghost of the
    aperiodic flavor, since theta scales each component by that index.  A
    quotient stays an int where it is integral and is a Fraction elsewhere."""
    return tuple(tuple((v, weight if indices is None else _quotient(weight, indices[v]), 1, qpow)
                       for v, weight, _, qpow in row)
                 for row in table)


def _quotient(a: int, b: int):
    return a // b if a % b == 0 else Fraction(a, b)


def rational_weight(R, f: Fraction, context: str):
    """The payload of a rational weight f in R.  Outside a Q-algebra only an
    integral f has one; any other is refused, naming the caller's context."""
    if f.denominator == 1:
        return R.from_int(f.numerator)
    if R.is_qalgebra:
        return R.from_fraction(f)
    raise _refused(R, f, context)


def _refused(R, f, context):
    return NonIntegralConstant(f"{context}: constant {f} needs rational coefficients in {R.name}")


def _first_fraction(table, R, xs):
    """The Fraction weight on a non-zero payload met first with the input
    positions outermost, then the rows: the one a loop over the inputs meets."""
    return min((v, u, w) for u, row in enumerate(table) for v, w, _, _ in row
               if type(w) is Fraction and not R.is_zero(xs[v]))[2]


def ghost_values(table, R, xs, qv=None, context=None):
    """The ghost w(x) of payloads xs in R; qv is the payload of q in the q-model.

    A Fraction weight on a non-zero payload needs a Q-algebra; elsewhere it
    raises NonIntegralConstant, naming `context` and the constant that
    `_first_fraction` picks.
    """
    out = []
    cache = {}
    for row in table:
        s = R.zero()
        for v, weight, exp, qpow in row:
            if not xs[v]:  # a zero int or Fraction adds nothing; polynomials are never falsy
                continue
            term = _pow(R, xs, v, exp, cache)
            if type(weight) is Fraction and not (R.is_qalgebra or R.is_zero(term)):
                raise _refused(R, _first_fraction(table, R, xs), context)
            # an int scales every payload; R.add below reduces it in Z/m
            term = weight * term
            if qpow:
                term = R.mul(R.pow(qv, qpow), term)
            s = R.add(s, term)
        out.append(s)
    return out


def solve_triangular(table, want, R, fail, q=None):
    """The payloads s in R with w(s) = want, row by row.

    Row u subtracts the terms of its earlier entries from want[u], using the
    payloads' own operators (an integer weight times a power of an integer q
    scales a payload as a scalar), and divides by its diagonal weight.  q is
    the q-model's q: an int, or the indeterminate as a payload of R.  Outside
    a Q-algebra a Fraction diagonal admits only the zero payload, the one
    payload `ghost_values` takes under that weight, so its row is solved only
    when what remains of want[u] is zero.  When a row has no solution in R,
    the exception fail(u, R) is raised, so each caller names the failing
    class or index in its own terms; so is a Fraction weight outside a
    Q-algebra off the diagonal on a non-zero payload.  Residues are reduced
    at the end.
    """
    solved = []
    powers = {}
    for u, (row, acc) in enumerate(zip(table, want)):
        for v, weight, exp, qpow in row[:-1]:
            if not solved[v]:  # a zero int or Fraction adds nothing; polynomials are never falsy
                continue
            p = solved[v] if exp == 1 else _pow(R, solved, v, exp, powers)
            if type(weight) is Fraction and not (R.is_qalgebra or R.is_zero(p)):
                raise fail(u, R)
            acc = acc - (weight * q ** qpow if qpow else weight) * p
        d = row[-1][1]
        if type(d) is Fraction and R.is_qalgebra:
            acc = acc * (1 / d)
        elif type(d) is Fraction:
            # ghost_values refuses this weight on a non-zero payload, so zero
            # is the only payload that can solve the row
            if not R.is_zero(acc):
                raise fail(u, R)
            acc = R.zero()
        elif d != 1:
            acc = R.try_div(acc, R.from_int(d))
            if acc is None:
                raise fail(u, R)
        solved.append(acc)
    if isinstance(R, ResidueRing):
        return [R.from_int(s) for s in solved]
    return solved


# ---------------------------------------------------------------------------
# the ghost equations of one operation


class GhostSystem:
    """The equations w(s) = target(a, b) of one operation.

    `table` gives the ghost of the inputs, labelled by `labels` (the
    index_labels of the input index set).  A Frobenius passes `shift`, a pair
    (table of the unknowns' index set, input row whose ghost each unknown's
    ghost equals); the ring operations solve over the input index set itself.
    `structure` indexes the solution, as in UniversalSet.
    """

    def __init__(self, structure, labels, table, op, q=False, shift=None):
        self.structure = structure
        self.labels = labels
        self.table = table
        self.op = op
        self.q = q
        self.out_table, self.rows = shift if shift else (table, None)
        avars = tuple(f"a_{l}" for l in labels)
        bvars = tuple(f"b_{l}" for l in labels) if op in ("sum", "prod") else ()
        self.vars = ("q",) * q + avars + bvars

    def targets(self, R, xs, qv=None):
        """Target ghost components at the payloads xs in R (a's, then b's)."""
        ga = ghost_values(self.table, R, xs, qv)
        if self.rows is not None:
            return [ga[i] for i in self.rows]
        if self.op == "neg":
            return [-x for x in ga]
        gb = ghost_values(self.table, R, xs[len(self.table):], qv)
        if self.op == "sum":
            return [x + y for x, y in zip(ga, gb)]
        return [x * y for x, y in zip(ga, gb)]

    def solve(self):
        """The universal polynomials: the solve at the variables themselves."""
        # q-model coefficients are only numerical; UniversalSet checks them
        R = PolyRing(self.vars, rational=bool(self.q))
        gens = [R.variable(v) for v in self.vars]
        return self.apply(R, gens[self.q:], gens[0] if self.q else None)

    def apply(self, R, xs, q=None, fail=None):
        """The operation at payloads xs in R (a's, then b's), by the ghost route.

        q is the q-model's q: an int, or the indeterminate as a payload of R.
        A residue ring's payloads are lifted to Z, solved with the integer q
        itself and reduced; the integral (numerical) universal polynomials
        make that exact.  fail(u, R) is the exception for a row u that leaves
        the ring R solved in (Z for a residue ring); by default an
        IntegralityViolation naming the operation.
        """
        if isinstance(R, ResidueRing):
            return [R.from_int(s) for s in self.apply(ZZ, xs, q, fail)]
        want = self.targets(R, xs, R.from_int(q) if type(q) is int else q)
        return solve_triangular(self.out_table, want, R, fail or (
            lambda u, R: IntegralityViolation(
                f"{self.op} has fractional coefficients at {self._where(u)} over {R.name}")), q)

    def _where(self, u):
        label = index_labels(self.structure)[u]
        return f"index {label}" if type(label) is int else f"class {label} of {self.structure.name}"

    def holds(self, polys) -> bool:
        """Does the ghost identity hold for `polys` at one fixed integer point?"""
        point = list(range(3, 3 + len(self.vars) - self.q))
        # numerical coefficients take integer values at the integer q
        polys = [p.substitute_scalar("q", _SPOT_Q) for p in polys] if self.q else polys
        # the ghost map is injective over Z: the identity holds iff the values solve it
        return [evaluate(p.compiled(), ZZ, point) for p in polys] == self.apply(ZZ, point, _SPOT_Q)


# ---------------------------------------------------------------------------
# memo and disk cache


def derive(structure, tag, system) -> UniversalSet:
    """Operation `tag` over a group or truncation set.

    Memoised under (structure, tag).  `system` is a callable returning the
    GhostSystem, called on a memo miss only; the result hands it back as
    `.system`, whose `apply` the operations evaluate by.  Its polynomials are
    loaded on first access (see UniversalSet); with WB_CACHE_DIR set, a memo
    miss only checks that the entry exists, and solves and writes it at
    once if it does not.
    """
    key = (structure, tag)
    ups = MEMO.get(key)
    if ups is None:
        eqs = system()
        path = _cache_path(structure, eqs.labels, tag)
        ups = UniversalSet(eqs, path)
        if path and not os.path.exists(path):
            ups.polys  # the first read solves and writes the entry
        MEMO[key] = ups
    return ups


def _cache_path(structure, labels, tag):
    root = os.environ.get("WB_CACHE_DIR")
    if not root:
        return None
    # hashlib loads OpenSSL (about 5 ms); CPython's own SHA-256 module, which
    # hashlib falls back on, gives the same digest without it
    try:
        from _sha256 import sha256
    except ImportError:  # renamed _sha2 in Python 3.12
        from hashlib import sha256

    # named by what equality compares: a truncation set's members (its integer
    # labels), a group's elements
    kind, identity = ("cyc", labels) if type(labels[0]) is int else ("wg", structure.elements)
    digest = sha256(repr(identity).encode()).hexdigest()[:16]
    return os.path.join(root, f"{kind}-{digest}-{tag}-{FORMAT}.json")


def _cache_read(path, system: GhostSystem):
    """The polynomials of the validated entry at `path`, or None (missing or
    rejected)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError):
        return None
    vars = system.vars
    nv = len(vars)
    # no universal exponent exceeds twice the largest ghost exponent and q-power
    bound = 2 * max(max(e, k) for row in system.table for _, _, e, k in row) + 2
    try:
        if data["vars"] != list(vars) or len(data["polys"]) != len(system.out_table):
            return None
        polys = []
        for terms in data["polys"]:
            d = {}
            for c, e in terms:
                # a coefficient is a JSON integer or an "n/d" string
                # a non-integer exponent fails when the spot check raises to it
                if (type(c) is not int and not (type(c) is str and _FRACTION.fullmatch(c))
                        or type(e) is not list or len(e) != nv
                        or e and (min(e) < 0 or max(e) > bound)):
                    return None
                d[tuple(e)] = Fraction(c)
            polys.append(MultiPoly(vars, d))
        polys = _certified(system, polys)
        return polys if system.holds(polys) else None
    except (KeyError, TypeError, ValueError, ZeroDivisionError, DomainError):
        return None


def _cache_write(path, vars, polys):
    """Write atomically: a temp file in the same directory, then os.replace."""
    data = {
        "vars": list(vars),
        "polys": [
            [[c.numerator if c.denominator == 1 else str(c), list(e)]
             for e, c in p.sorted_terms()]
            for p in polys
        ],
    }
    try:
        root = os.path.dirname(path)
        os.makedirs(root, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=root, prefix=".tmp-", suffix=".json")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                # one-shot dumps runs the C encoder; json.dump, the pure-Python one
                fh.write(json.dumps(data, sort_keys=True))
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError:
        pass
