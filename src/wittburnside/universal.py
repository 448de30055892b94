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
soundly costs as much as the solve.  Polynomial payloads are solved over Z
too, at one point that packs each payload into one integer
(`GhostSystem._at_point`), where their sizes say that pays (`_point_room`);
over QPoly a row whose quotient is not integral carries one integer
denominator.  The universal polynomials keep the polynomial route.

The transports between the flavors solve on the same tables.  With every
exponent 1 (`linear_table`) a table is the ghost of the necklace flavor;
with each weight then divided by the index of its entry's subgroup ((G:V),
or d itself on a truncation set) it is the ghost of the aperiodic flavor,
as theta multiplies each component by that index (Dress-Siebeneicher).  A
weight stays an int where that quotient is integral and is a Fraction
elsewhere.  A Fraction weight scales by its image in a Q-algebra; outside
one `ghost_values` refuses it on a non-zero payload (NonIntegralConstant,
naming the caller's context) and `solve_triangular` raises its caller's
`fail` for the row.  Teichmuller and its inverse, witt_v and witt_f are
GhostSystems of one input table and the rows they read (`burnside`
memoises them); they export nothing.
"""
from __future__ import annotations

import json
import math
import operator
import os
import tempfile
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import (
    DomainError,
    IntegralityViolation,
    NonIntegralConstant,
    NumericalityViolation,
    excerpt,
)
from .groups import FiniteGroup, marks_matrix, subgroup_classes
from .rings import (
    POWER_BOUND,
    ZZ,
    MultiPoly,
    PolyRing,
    QPolynomial,
    ResidueRing,
    _digit_bytes,
    _over_common_denominator,
    _pack,
    _ratio,
    _slot_terms,
    _strides,
    _unpack,
    cached_power,
)

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
        raise DomainError(
            f"truncation set member {excerpt(n)} exceeds the q-model bound {Q_MEMBER_BOUND}")


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


POINT_BYTES = 6144


def _point_room(box: int, nvars: int) -> int:
    """The widest digit, in bytes, at which a solve whose rows fit an
    exponent box of `box` slots in nvars variables is cheaper over Z at one
    point than over the polynomials (0: at none).

    The point route's big-integer work grows with the packed bytes, box * n,
    where a digit wider than a machine word counts as whole words, since
    `rings._pack` and `rings._unpack` handle it one byte slice at a time.
    The polynomial route's work grows with the terms the rows hold.  In one
    and two variables the two cross at the same packed bytes, once an even
    power squares its half (`_packed_power`); from three variables on, the
    rows leave the box's corners empty and hold about box / nvars! terms.
    So the point route runs while box * n is at most POINT_BYTES, over
    nvars! from three variables on (fitted to random rows in 1-4 variables
    on groups and truncation sets, and to the symbolic-mix keys; see the
    README).
    """
    room = POINT_BYTES // (box * (math.factorial(nvars) if nvars > 2 else 1))
    return room if room < 8 else room - room % 8


def _packed_power(nums, v, e, powers):
    """nums[v] ** e (e >= 2) for packed integers, memoised in `powers` as
    `cached_power` memoises it, and refused above POWER_BOUND as it is.

    The ghost rows raise a payload along the divisor lattice, x_d^(n/d) or
    x_V^((G:U)/(G:V)), so one solve asks for x^2, x^4, x^6 and x^12 of the
    same payload: an even power whose half is cached is that half squared,
    and any other is x ** e."""
    p = powers.get((v, e))
    if p is None:
        half = None if e & 1 or e > POWER_BOUND else powers.get((v, e >> 1))
        if half is None:
            return cached_power(ZZ, nums, v, e, powers)
        p = powers[v, e] = half * half
    return p


def _scaled_sum(entries, nums, dens, powers, q):
    """One row's terms at one point over one denominator: (s, L), L the lcm
    of dens[v]^e over the entries (v, w, e, qpow) at a non-zero nums[v], and
    s = L times the sum of w q^qpow (nums[v] / dens[v])^e.  powers caches
    the powers of nums (see `_packed_power`).  L grows as the entries are
    read, so a row of integers is summed as it is."""
    s, L = 0, 1
    for v, w, e, qp in entries:
        x = nums[v]
        if x:
            p = x if e == 1 else _packed_power(nums, v, e, powers)
            k = w * q ** qp if qp else w
            D = dens[v]
            if D != 1:
                D **= e
                if L % D:
                    M = math.lcm(L, D)
                    s *= M // L
                    L = M
            if L != 1:
                k *= L // D
            s += k * p
    return s, L


class GhostSystem:
    """The equations w(s) = target(a, b) of one operation, and their solution.

    `table` is the ghost table of the input index set `index` (a group or a
    truncation set), whose labels name the variables, one per payload (a's,
    and b's for a sum or product).  witt_v passes other rows over U's
    payloads, one per class of G, so rows and payloads may differ in
    number.  A linear map passes
    `shift`, a triple (the unknowns' index set, its table, the input row
    whose ghost each unknown's ghost equals): a Frobenius, a transport
    between the flavors, witt_v and witt_f.  The ring operations solve over
    `index` itself.  `structure`, read also by the names `group` and
    `truncation`, is the index set of the solution.  fail(u, R) is the
    error of a row u without a solution in R: by default an
    IntegralityViolation naming the operation.

    An operation evaluates `apply` at its payloads.  `polys` are the
    universal polynomials, MultiPoly in `vars` (in the q-model vars[0] is q
    itself): the polynomial route `_solve` at the variables, solved on
    first read.  The integer solve refuses a fractional coefficient itself,
    and a non-numerical q-coefficient is refused there.  `compiled` pairs
    each monomial in the other variables, given as ((var_index, exp), ...),
    with its coefficient: an int, or in the q-model a numerical QPolynomial.
    """

    def __init__(self, index, table, op, q=False, shift=None, fail=None):
        self.labels = index_labels(index)
        self.table = table
        self.op = op
        self.q = q
        self.structure, self.out_table, rows = shift or (index, table, None)
        # the input rows a linear map reads, one per unknown
        self.rows = None if rows is None else tuple(table[i] for i in rows)
        if fail is not None:
            self._fail = fail
        avars = tuple(f"a_{l}" for l in self.labels)
        bvars = tuple(f"b_{l}" for l in self.labels) if op in ("sum", "prod") else ()
        self.vars = ("q",) * q + avars + bvars
        self._polys = None

    group = truncation = property(lambda self: self.structure)

    @cached_property
    def _spread(self):
        """spread[v]: the largest factor by which payload v's degree enters a
        row of the solve, and at least 1, since it is packed; None where the
        point route (`_at_point`) cannot take the system, which needs
        positive int weights and exponents that `cached_power` admits.
        Decided once, from the tables, on the first polynomial payloads."""
        rows = self.table if self.rows is None else self.rows
        entries = [t for row in (*rows, *self.out_table) for t in row]
        if not (max(e for _, _, e, _ in entries) <= POWER_BOUND
                and all(type(w) is int and w > 0 for _, w, _, _ in entries)):
            return None
        # reach[u]: the largest factor by which the degree of row u enters a
        # row of the solve, a product of exponents along the rows, found from
        # the last row back
        reach = [1] * len(self.out_table)
        for u in reversed(range(len(self.out_table))):
            for v, _, e, _ in self.out_table[u][:-1]:
                reach[v] = max(reach[v], e * reach[u])
        spread = [1] * len(self.labels)  # one per payload
        for w, row in enumerate(rows):
            for v, _, e, _ in row:
                spread[v] = max(spread[v], e * reach[w])
        return spread

    _pointwise = property(lambda self: self._spread is not None)

    @property
    def polys(self):
        if self._polys is None:
            R = PolyRing(self.vars, rational=bool(self.q))
            gens = [R.variable(v) for v in self.vars]
            polys = tuple(self._solve(R, gens[self.q:], gens[0] if self.q else None))
            # grouping by monomial checks numericality; `compiled` returns it
            self._compiled = tuple(map(_compile_q, polys)) if self.q else None
            self._polys = polys
        return self._polys

    @property
    def compiled(self):
        polys = self.polys
        return self._compiled if self.q else tuple(p.compiled() for p in polys)

    def targets(self, R, xs, qv=None, dens=None):
        """Target ghost components at the payloads xs in R (a's, then b's); qv
        is the q-model's q, an int or a payload of R.  At the point (R is ZZ)
        xs are numerators over the denominators dens, and each component is
        a pair (s, L): L the lcm of its terms' denominators and s the
        component times L (`_scaled_sum`)."""
        def ghosts(rows, ys, ds):
            if ds is None:
                return ghost_values(rows, R, ys, qv)
            powers = {}
            return [_scaled_sum(row, ys, ds, powers, qv) for row in rows]

        if self.rows is not None:  # only the input rows the unknowns read
            return ghosts(self.rows, xs, dens)
        ga = ghosts(self.table, xs, dens)
        if self.op == "neg":
            return [-x for x in ga] if dens is None else [(-s, L) for s, L in ga]
        k = len(self.labels)
        gb = ghosts(self.table, xs[k:], dens and dens[k:])
        if dens is None:
            return list(map(operator.add if self.op == "sum" else operator.mul, ga, gb))
        if self.op == "prod":
            return [(sa * sb, La * Lb) for (sa, La), (sb, Lb) in zip(ga, gb)]
        out = []
        for (sa, La), (sb, Lb) in zip(ga, gb):
            L = math.lcm(La, Lb)
            out.append((sa * (L // La) + sb * (L // Lb), L))
        return out

    def apply(self, R, xs, q=None):
        """The operation at payloads xs in R (a's, then b's), by the ghost route.

        q is the q-model's q: an int, or the indeterminate as a payload of R.
        A residue ring's payloads are lifted to Z, solved with the integer q
        itself and reduced; the integral (numerical) universal polynomials
        make that exact.  Polynomial payloads at an int or no q are solved
        over Z at one point where that pays (`_at_point`).  A row that
        leaves the ring solved in (Z for a residue ring) raises fail(u, R).
        """
        if isinstance(R, PolyRing) and (q is None or type(q) is int) and self._pointwise:
            out = self._at_point(R, xs, q)
            if out is not None:
                return out
        return self._solve(R, xs, q)

    def _solve(self, R, xs, q):
        """`apply` by the ring's own arithmetic: the route of the universal
        polynomials and of every payload `_at_point` leaves."""
        S = ZZ if isinstance(R, ResidueRing) else R
        out = solve_triangular(self.out_table, self.targets(S, xs, q), S, self._fail, q)
        return [R.from_int(s) for s in out] if S is not R else out

    def _fail(self, u, R):
        return IntegralityViolation(
            f"{self.op} has fractional coefficients at {self._where(u)} over {R.name}")

    def _norms(self, ns, q, limit, ceil=False):
        """Bounds of the 1-norms of the solve's rows before their division by
        the diagonal weight, from bounds ns of the payloads' 1-norms: ||pq||
        <= ||p|| ||q|| and ||p^e|| <= ||p||^e, with |q|^qpow; None once a
        bound passes 2^limit.  A solved row is bounded by its bound over the
        diagonal weight, rounded down for an integral row and up (ceil) for
        one that may be rational."""
        aq = abs(q or 0)

        def row_sum(row, ys, acc=0):
            for v, w, e, qp in row:
                y = ys[v]
                if y:
                    if (y.bit_length() - 1) * e > limit:
                        raise OverflowError
                    acc += w * aq ** qp * y ** e
            return acc

        try:
            if self.rows is not None:
                want = [row_sum(row, ns) for row in self.rows]
            else:
                want = [row_sum(row, ns) for row in self.table]
                if self.op != "neg":
                    gb = [row_sum(row, ns[len(self.labels):]) for row in self.table]
                    want = list(map(operator.add if self.op == "sum" else operator.mul, want, gb))
            solved, before = [], []
            for row, acc in zip(self.out_table, want):
                acc = row_sum(row[:-1], solved, acc)
                if acc.bit_length() > limit:
                    return None
                before.append(acc)
                solved.append(-(-acc // row[-1][1]) if ceil else acc // row[-1][1])
        except OverflowError:
            return None
        return before

    def _at_point(self, R, xs, q):
        """`apply` at polynomial payloads xs, solved over Z at one point, or
        None where the route does not pay.

        The operation is a ring functor's, so it commutes with evaluation at
        x_i = 2^(8 n s_i), s_i the stride of x_i in an exponent box: a ring
        map, one-to-one on the polynomials whose degrees fit the box and
        whose coefficients fit n-byte balanced digits.  From the payloads'
        sizes alone, each row before its division by the diagonal weight is
        bounded in degree per variable (deg_i(p^e) = e deg_i(p), through the
        factors `_spread` of the tables) and in 1-norm (`_norms`); box and
        digits are sized to hold them and the payloads, and `_point_room`
        decides.  `_point_solve` then solves at the point.

        Over QPoly a payload is packed as its numerator over the lcm of its
        coefficients' denominators, and a row may carry a denominator L d
        (see `_point_solve`), which multiplies its bound by L.  Where that
        passes the digits, the solve runs once more with digits sized for
        the largest denominators the rows can reach (`_widest`), or leaves
        the solve to the polynomial route where those do not pay; a target
        whose own denominator passes them skips the first solve.
        """
        flat = (0,) * len(R.vars)
        degs = [tuple(map(max, zip(*x.terms))) if x.terms else flat for x in xs]
        spread, k = self._spread, len(self.labels)  # the a-payloads' count

        def top(degs):
            return [max(map(operator.mul, spread, col)) for col in zip(*degs)]

        dims = top(degs[:k])
        if len(xs) > k:  # the product's degrees add; the sum's are at most these
            dims = list(map(operator.add if self.op == "prod" else max, dims, top(degs[k:])))
        dims = [d + 1 for d in dims]
        room = _point_room(math.prod(dims), len(dims))
        if not room:
            return None
        values = [x.terms.values() for x in xs]
        dens = [1] * len(xs)
        if R.rational:
            over = [_over_common_denominator(list(cs)) for cs in values]
            if any(den != 1 for den, _ in over):
                dens, values = zip(*over)
        norms = [sum(map(abs, cs)) for cs in values]
        # a payload's norm is at most its numerator's over its denominator
        before = self._norms([-(-m // d) for m, d in zip(norms, dens)], q, 8 * room, R.rational)
        if before is None:
            return None
        n = _digit_bytes(max(before + norms))
        if n > room:
            return None
        # the denominators of the targets do not depend on the digits; one
        # that passes them with its row's bound fails the first solve
        scale = [L for _, L in self.targets(ZZ, norms, q, dens)] if max(dens) > 1 else None
        out = None
        if scale is None or all((L * b).bit_length() < 8 * n for L, b in zip(scale, before)):
            out = self._point_solve(R, xs, values, dens, q, dims, n, before)
        if out is None:
            wide = self._widest(scale or [1] * len(before), before, 8 * room)
            n = room + 1 if wide is None else _digit_bytes(max([wide] + norms))
            if n <= room:
                out = self._point_solve(R, xs, values, dens, q, dims, n, before)
        return out

    def _widest(self, scale, before, limit):
        """The largest bound of a row's integer in `_point_solve` when every
        row carries its whole denominator L d, or None once it passes
        2^limit: each L is the lcm of the target's denominator (scale) and
        the d-multiplied L of the rows it reads, raised to their exponents,
        so it is a multiple of any L the solve meets."""
        wide, whole = 0, []
        for row, L, b in zip(self.out_table, scale, before):
            if any(whole[v].bit_length() * e > limit for v, _, e, _ in row[:-1]):
                return None
            L = math.lcm(L, *[whole[v] ** e for v, _, e, _ in row[:-1]])
            wide = max(wide, L * b)
            whole.append(L * row[-1][1])
        return wide if wide.bit_length() <= limit else None

    def _point_solve(self, R, xs, values, dens, q, dims, n, before):
        """The solve at the point, in n-byte digits; None where a row's bound
        passes them.

        Each payload is packed once (`rings._pack`), the targets and the rows
        are solved over Z, and each row is divided and read back once
        (`rings._unpack`): d divides every coefficient of a row exactly when
        it divides the row's integer and d times each digit of the quotient
        fits a digit (balanced digits are unique).  A row it does not divide
        raises fail(u) over ZPoly.

        Over QPoly such a row carries one integer denominator instead, as
        does every row whose terms have one: a row's integer is its terms
        over the lcm L of their denominators, each raised to its exponent
        (`_scaled_sum`), and a row with L = 1 is divided as over ZPoly.
        Otherwise that integer is read back undivided and its coefficients
        taken over L d; the rows that read it take it over L d cut by its
        common factor with the coefficients.
        """
        box = math.prod(dims)
        strides = _strides(dims)
        points = []
        for x, cs in zip(xs, values):
            slots = [sum(map(operator.mul, e, strides)) for e in x.terms]
            points.append(_pack(slots, cs, max(slots, default=0) + 1, n))
        want = self.targets(ZZ, points, q, dens)
        solved, sdens, out, powers = [], [], [], {}
        half = 1 << 8 * n - 1  # a digit c has -half <= c < half
        for u, (row, (acc, Lt)) in enumerate(zip(self.out_table, want)):
            d, entries = row[-1][1], row[:-1]
            s, Ls = _scaled_sum(entries, solved, sdens, powers, q)
            L = math.lcm(Lt, Ls)
            if L == 1:
                acc -= s
                quo, r = divmod(acc, d)
                if not r:
                    cs = _unpack(quo, n, box)
                    if d == 1 or -half <= d * min(cs) and d * max(cs) < half:
                        solved.append(quo)
                        sdens.append(1)
                        out.append(MultiPoly._of(R.vars, _slot_terms(cs, dims)))
                        continue
                if not R.rational:
                    raise self._fail(u, R)
            elif L * before[u] >= half:
                return None
            else:
                acc = acc * (L // Lt) - s * (L // Ls)
            # the row is read back undivided, over L d
            den = L * d
            cs = _unpack(acc, n, box)
            g = math.gcd(den, *cs)
            solved.append(acc // g)
            sdens.append(den // g)
            out.append(MultiPoly._of(R.vars, _slot_terms(cs, dims, den)))
        return out

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
