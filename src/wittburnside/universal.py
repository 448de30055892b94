"""Every Witt-type operation, solved on one ghost table.

The Witt-Burnside ring of a finite group, the truncated big Witt vectors and
their q-deformation are each the unique ring structure that makes a
unitriangular ghost map a homomorphism.  A ghost table describes that map:
row u lists the entries (v, weight, exponent, qpower) of

    w_u(x) = sum of weight * q^qpower * x_v^exponent,

and ends with its diagonal entry (u, weight, 1, 0).  Only the tables differ
between the models, and `ghost_table` builds every one of them:

    groups        marks m(V, U) and the index ratios (G:U)/(G:V)
    truncations   d and n/d for d | n
    q-deformed    d q^(n/d - 1) and n/d

`flavor_table` derives the necklace and aperiodic tables from them (see
below), and `row_name` names a row in the messages of every model.

The sum, product and negation solve w(s) = w(a) + w(b), w(a) w(b) and
-w(a); a Frobenius f_r on a truncation set solves w_n(s) = w_{rn}(a).
The necklace and aperiodic products, and on a truncation set their
Frobenius, are such systems too, on the linear tables below.  Each is one
`GhostSystem`, built and memoised in process by `ghost_system`, and one
triangular solve, `solve_triangular`, serves all of them: at the payloads
of an operation (over Z/m lifted to Z and reduced), and at the variables
themselves for the universal polynomials.  Those are solved once per
structure and operation, when first read (an operation only applies its
system); their integral (in the q-model numerical) coefficients certify
that the solve stays in the ring.  When WB_CACHE_DIR is set, a memo miss
of a Witt-flavor system also writes its polynomials to a missing entry
there, as an export: nothing reads an entry back, since checking one
soundly costs as much as the solve.

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
import tempfile
from fractions import Fraction
from functools import lru_cache

from .errors import (
    DomainError,
    IntegralityViolation,
    NonIntegralConstant,
    NumericalityViolation,
)
from .groups import FiniteGroup, marks_matrix, subgroup_classes
from .rings import POWER_BOUND, ZZ, MultiPoly, PolyRing, QPolynomial, ResidueRing, _ratio

WITT = "Witt"
NECKLACE = "Necklace"
APERIODIC = "Aperiodic"
GHOST = "Ghost"

OPS = ("sum", "prod", "neg")
FORMAT = "u2"  # on-disk format tag; part of every cache file name


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


def row_name(index, u):
    """Row u of an index set in a message: "class X" on a group, "index n" on
    a truncation set."""
    label = index_labels(index)[u]
    return f"index {label}" if type(label) is int else f"class {label}"


def row_error(error, text, index):
    """fail(u, R) of a solve on index's rows: error(text), with {ring} the
    name of R and {row} the row_name of u."""
    return lambda u, R: error(text.format(ring=R.name, row=row_name(index, u)))


def _compile_q(p: MultiPoly):
    """Group a poly in ("q", x_1, ...) by x-monomial; coefficients must be numerical."""
    groups: dict = {}  # x-monomial -> {power of q: coefficient}
    for e, c in p.terms.items():
        mono = tuple((i - 1, ee) for i, ee in enumerate(e) if i > 0 and ee)
        groups.setdefault(mono, {})[e[0]] = c
    out = []
    for mono, coeffs in sorted(groups.items()):
        poly = QPolynomial([coeffs.get(k, 0) for k in range(max(coeffs) + 1)])
        if not poly.is_numerical():
            raise NumericalityViolation(f"structure coefficient {poly.format()} is not numerical")
        out.append((poly, mono))
    return tuple(out)


def linear_table(table, indices=None):
    """The table with every exponent 1: the ghost of the necklace flavor.  With
    the subgroup indices of its index set (`subgroup_indices`), each weight
    is divided by the index of its entry's subgroup: the ghost of the
    aperiodic flavor, since theta scales each component by that index.  A
    quotient stays an int where it is integral and is a Fraction elsewhere."""
    return tuple(tuple((v, weight if indices is None else _ratio(weight, indices[v]), 1, qpow)
                       for v, weight, _, qpow in row)
                 for row in table)


# ---------------------------------------------------------------------------
# the ghost tables


# The q-model's ghost row at n raises q to the powers n/d - 1: at an integer
# q an integer of up to n bits, at the indeterminate a shift by up to n
# coefficients.  Up to this bound a member costs milliseconds (see the
# README); a member such as 10^18 + 9 could never be formed, so the q-model
# refuses a truncation set with a larger member before it builds a row.  It
# is the bound on the powers of a payload too (`rings.cached_power`), which
# the classical rows meet only where a payload other than 0 and +-1 is
# raised to a member above it.
Q_MEMBER_BOUND = POWER_BOUND


def check_q_member(n: int):
    """Refuse a q-model truncation set member n above Q_MEMBER_BOUND."""
    if n > Q_MEMBER_BOUND:
        raise DomainError(f"truncation set member {n} exceeds the q-model bound {Q_MEMBER_BOUND}")


@lru_cache(maxsize=None)
def ghost_table(index, q=False):
    """The ghost rows of the Witt flavor over a group or a truncation set.

    A group's class U has the rows (V, mark m(V, U), (G:U)/(G:V), 0); a
    truncation set's member n has (d, d, n/d, 0) for d | n, with the q-power
    n/d - 1 in the q-model (q true, truncation sets only).
    """
    if isinstance(index, FiniteGroup):
        ct = subgroup_classes(index)
        zeta = marks_matrix(index).zeta
        return tuple(
            tuple((v, zeta.entry(v, u), ct.classes[u].index // ct.classes[v].index, 0)
                  for v in range(u + 1) if zeta.entry(v, u))
            for u in range(len(ct))
        )
    if q:
        check_q_member(index.members[-1])
    return tuple(
        tuple((index.position(d), d, n // d, n // d - 1 if q else 0) for d in index.divisors(n))
        for n in index
    )


@lru_cache(maxsize=None)
def flavor_table(index, flavor, q=False):
    """The ghost rows of flavor: the ghost table itself for the Witt flavor,
    the ghost table with every exponent 1 for the necklace flavor, and that
    one with each weight over its subgroup's index ((G:V), or d) for the
    aperiodic flavor."""
    if flavor == WITT:
        return ghost_table(index, q)
    indices = subgroup_indices(index) if flavor == APERIODIC else None
    return linear_table(ghost_table(index, q), indices)


def refused_constant(R, f, context):
    """The refusal of a rational constant f in R, naming the caller's context."""
    return NonIntegralConstant(f"{context}: constant {f} needs rational coefficients in {R.name}")


def _first_fraction(table, R, xs):
    """The Fraction weight on a non-zero payload met first with the input
    positions outermost, then the rows: the one a loop over the inputs meets."""
    return min((v, u, w) for u, row in enumerate(table) for v, w, _, _ in row
               if type(w) is Fraction and not R.is_zero(xs[v]))[2]


def ghost_values(table, R, xs, qv=None, context=None):
    """The ghost w(x) of payloads xs in R; qv is the payload of q in the q-model.

    Each row is one `R.row_sum`.  A Fraction weight on a non-zero payload
    needs a Q-algebra; elsewhere it raises NonIntegralConstant, naming
    `context` and the constant that `_first_fraction` picks.
    """
    cache = {}
    zero = R.zero()

    def refuse():
        return refused_constant(R, _first_fraction(table, R, xs), context)

    out = [R.row_sum(zero, 1, row, xs, cache, qv, refuse) for row in table]
    return [R.from_int(s) for s in out] if isinstance(R, ResidueRing) else out


def solve_triangular(table, want, R, fail, q=None):
    """The payloads s in R with w(s) = want, row by row.

    Row u subtracts the terms of its earlier entries from want[u] and
    divides by its diagonal weight, in one `R.row_sum` when that weight is an
    int; an integer weight times a power of an integer q scales a payload as
    a scalar.  q is the q-model's q: an int, or the indeterminate as a
    payload of R.  Outside a Q-algebra a Fraction diagonal admits only the
    zero payload, the one payload `ghost_values` takes under that weight, so
    its row is solved only when what remains of want[u] is zero.  When a row
    has no solution in R, the exception fail(u, R) is raised, so each caller
    names the failing class or index in its own terms; so is a Fraction
    weight outside a Q-algebra off the diagonal on a non-zero payload.
    Residues are reduced at the end.
    """
    solved = []
    powers = {}

    def refuse():
        return fail(u, R)

    for u, (row, acc) in enumerate(zip(table, want)):
        d = row[-1][1]
        acc = R.row_sum(acc, -1, row[:-1], solved, powers, q, refuse,
                        1 if type(d) is Fraction else d)
        if acc is None:
            raise fail(u, R)
        if type(d) is Fraction and R.is_qalgebra:
            acc = acc * (1 / d)
        elif type(d) is Fraction:
            # ghost_values refuses this weight on a non-zero payload, so zero
            # is the only payload that can solve the row
            if not R.is_zero(acc):
                raise fail(u, R)
            acc = R.zero()
        solved.append(acc)
    if isinstance(R, ResidueRing):
        return [R.from_int(s) for s in solved]
    return solved


# ---------------------------------------------------------------------------
# the ghost equations of one operation


class GhostSystem:
    """The equations w(s) = target(a, b) of one operation, and their solution.

    `table` is the ghost table of the input index set `index` (a group or a
    truncation set), whose labels name the variables.  Only a Frobenius
    passes `shift`, a triple (the unknowns' index set, its table, the input
    row whose ghost each unknown's ghost equals); the ring operations solve
    over `index` itself.  `structure`, read also by the names `group` and
    `truncation`, is the index set of the solution.

    An operation evaluates `apply` at its payloads.  `polys` are the
    universal polynomials, MultiPoly in `vars` (in the q-model vars[0] is q
    itself): `apply` at the variables, solved on first read.  The integer
    solve refuses a fractional coefficient itself, and a non-numerical
    q-coefficient is refused there.  `compiled` pairs each monomial in the
    other variables, given as ((var_index, exp), ...), with its coefficient:
    an int, or in the q-model a numerical QPolynomial.
    """

    def __init__(self, index, table, op, q=False, shift=None):
        self.labels = index_labels(index)
        self.table = table
        self.op = op
        self.q = q
        self.structure, self.out_table, self.rows = shift or (index, table, None)
        avars = tuple(f"a_{l}" for l in self.labels)
        bvars = tuple(f"b_{l}" for l in self.labels) if op in ("sum", "prod") else ()
        self.vars = ("q",) * q + avars + bvars
        self._polys = None

    group = truncation = property(lambda self: self.structure)

    @property
    def polys(self):
        if self._polys is None:
            R = PolyRing(self.vars, rational=bool(self.q))
            gens = [R.variable(v) for v in self.vars]
            polys = tuple(self.apply(R, gens[self.q:], gens[0] if self.q else None))
            # grouping by monomial checks numericality; `compiled` returns it
            self._compiled = tuple(map(_compile_q, polys)) if self.q else None
            self._polys = polys
        return self._polys

    @property
    def compiled(self):
        polys = self.polys
        return self._compiled if self.q else tuple(p.compiled() for p in polys)

    def targets(self, R, xs, qv=None):
        """Target ghost components at the payloads xs in R (a's, then b's); qv
        is the q-model's q, an int or a payload of R."""
        if self.rows is not None:  # only the input rows the unknowns read
            return ghost_values([self.table[i] for i in self.rows], R, xs, qv)
        ga = ghost_values(self.table, R, xs, qv)
        if self.op == "neg":
            return [-x for x in ga]
        gb = ghost_values(self.table, R, xs[len(self.table):], qv)
        if self.op == "sum":
            return [x + y for x, y in zip(ga, gb)]
        return [x * y for x, y in zip(ga, gb)]

    def apply(self, R, xs, q=None):
        """The operation at payloads xs in R (a's, then b's), by the ghost route.

        q is the q-model's q: an int, or the indeterminate as a payload of R.
        A residue ring's payloads are lifted to Z, solved with the integer q
        itself and reduced; the integral (numerical) universal polynomials
        make that exact.  A row that leaves the ring solved in (Z for a
        residue ring) raises an IntegralityViolation naming the operation.
        """
        S = ZZ if isinstance(R, ResidueRing) else R
        out = solve_triangular(self.out_table, self.targets(S, xs, q), S, lambda u, R:
                               IntegralityViolation(f"{self.op} has fractional coefficients at "
                                                    f"{self._where(u)} over {R.name}"), q)
        return [R.from_int(s) for s in out] if S is not R else out

    def _where(self, u):
        of = f" of {self.structure.name}" if isinstance(self.structure, FiniteGroup) else ""
        return row_name(self.structure, u) + of


@lru_cache(maxsize=None)
def ghost_system(index, op, flavor, q, r) -> GhostSystem:
    """The memoised ghost system of `op` in `flavor` over a group or a
    truncation set, in the q-model when q is true.

    A ring operation passes r None; f_r on a truncation set T passes op
    "frob<r>" and r, and solves over {n : rn in T}, reading the input row rn
    at each of its members n.  The input set's table is built, and its
    members checked against the q-model bound, before the shift's.  Call it
    with all five arguments positional: lru_cache keys a keyword call apart.

    The tag is op, prefixed with "q" in the q-model; a Frobenius system
    carries it as its op ("qfrob2").  Only the Witt flavor exports: with
    WB_CACHE_DIR set, a memo miss whose entry is missing solves the
    polynomials at once and writes the entry under the tag; an existing
    entry is neither read nor rewritten.
    """
    tag = "q" * q + op
    table, shift = flavor_table(index, flavor, q), None
    if r is not None:
        # type(index) is `cyclic.TruncationSet`, which imports this module
        out = type(index)([n for n in index if r * n in index])
        shift = out, flavor_table(out, flavor, q), [index.position(r * n) for n in out]
    system = GhostSystem(index, table, tag if r else op, q, shift)
    path = _cache_path(index, system.labels, tag) if flavor == WITT else None
    if path and not os.path.exists(path):
        _cache_write(path, system.vars, system.polys)
    return system


# ---------------------------------------------------------------------------
# disk export


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

    # named by a truncation set's members (its integer labels) or a group's
    # elements: the names of one group share its entry, as they share its
    # polynomials
    kind, identity = ("cyc", labels) if type(labels[0]) is int else ("wg", structure.elements)
    digest = sha256(repr(identity).encode()).hexdigest()[:16]
    return os.path.join(root, f"{kind}-{digest}-{tag}-{FORMAT}.json")


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
