"""The secant-tangent closure of point sets on a smooth cubic surface.

Starting from a set B of rational points, each round adds the third
intersection point of every line through two current points (secants) and
of every tangent line at a current point (realized as the pencil of lines
through the point inside its tangent plane).  Lines contained in the
surface contribute nothing.  The closure spn(B) is the fixpoint.

For surface points P and Q the restriction of the form to their joining
line has no s^3 or t^3 term, and the two middle coefficients are the
gradient pairings grad F(P).Q and grad F(Q).P.  The third intersection
point is therefore an explicit combination of P and Q, which lets a whole
surface be preprocessed into an integer table of third-point indices;
closure runs are then pure index pushing.

The preprocessing runs on the field's flat add/mul/neg tables
(ExtField.flat_tables) and refuses a field above their limit, so the
point scan and the restrictions under it take surface.py's flat path
too.  Building a table takes the gradients, certifies smoothness and
scans the lines; the rest is computed where it is read, since a span
check reads few pairs and few pencils.  A pair entry starts at UNSOLVED
(-2) and a closure solves it when it reads it.  A secant that meets the
surface in three distinct points is solved once, from whichever of its
pairs comes first, and fills all three pair entries, so the table does
not depend on the order of the solves.  A point's tangent pencil is
taken at its first closure turn or union-find step, and its cone root
count z_P (the rational zeros of the tangent cone on the pencil) at its
first Eckardt, ternary or sum-count read.  The first read of pair_third
or tangent_thirds fills the rest.  The table is the one object per
surface: it also holds the rational lines, scanned once, with their
point indices.  Eckardt and ternary points are read off z_P
(_eckardt_by_cone, _ternary_by_cone), skew pairs off the lines' point
sets, and spanning_lines is counted in closed form from q and the lines.

spn is a closure operator: Q in spn(B) gives spn(Q) in spn(B).  So once
spn(Q) = S(F_q) is known, every closure that reaches Q spans the surface
and can stop there.  verify_skew_singleton_span and verify_span_lemmas
flag each point whose own closure spans, for the length of one call, and
pass the flags to SpanTable.closure, which stops at the first flagged
seed or member.  Their answers are exactly those of full runs.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable, Iterator, Optional

from .errors import (
    BudgetExceeded,
    ConfigurationAbsent,
    HypothesisFailed,
    PointNotOnSurface,
    SingularPoint,
)
from .projgeo import Line3, ProjPoint, skew
from .surface import (
    CubicForm,
    _cubic_zeros,
    _smooth_gradient,
    _tangent_cone,
    is_smooth,
    lines_on_surface,
    zero_points,
)

#: refuse to build a pair table beyond this many (point, point) entries
PAIR_TABLE_BUDGET = 4_000_000

#: the backing entry of a pair whose secant is not solved yet
UNSOLVED = -2

#: largest subset size minimal_generators searches
GENERATOR_SIZE_LIMIT = 3

#: refuse a minimal_generators size level that would push the total number
#: of closure runs past this
GENERATOR_CLOSURE_BUDGET = 20_000


def surface_points(form: CubicForm) -> list[ProjPoint]:
    """All rational points of the surface, in the canonical chart order."""
    f = form.field
    return [ProjPoint(f, c) for c in zero_points(form)]


class SpanTable:
    """Preprocessed secant and tangent third-point tables for one surface.

    pair_third is a flattened N x N array: entry i*N+j holds the index of
    the third intersection point of the line through points i and j, or -1
    when that line lies inside the surface (and on the diagonal).  When the
    secant through i and j meets the surface in three distinct points i, j,
    k, one solve fills the entries of all three pairs; when k is i or j the
    line is tangent there and only the pair (i, j) is filled.

    Pairs are solved on demand.  The backing array starts at UNSOLVED (-2)
    off the diagonal, and closure solves an UNSOLVED entry when it reads
    one.  The first read of pair_third solves every entry still UNSOLVED,
    one flag marks the table filled, and later reads return the same array,
    equal to the one a solve of every pair in row order builds.  Assigning
    pair_third replaces the backing array and marks it filled.

    tangent_thirds[i] lists the third points of the non-contained tangent
    lines at point i, in the order of the pencil from
    surface.tangent_pencil: the line through e0 + t*e1 for each field code
    t, then the line through e1 (e0 and e1 read off the gradient at i); an
    entry equal to i itself records an asymptotic line.  A pencil is taken
    on demand, at most once per point (thirds_at); the first read of
    tangent_thirds takes every pencil left and returns the list the eager
    pass builds, and assigning it installs a filled table.  cone_roots(i)
    is z_P, the number of pencil lines on which the tangent cone vanishes.

    lines come from one surface.lines_on_surface scan; line_indices[m]
    holds the indices of the points of lines[m], in Line3.points() order.
    spanning_lines is the number of lines a closure that reaches every
    point examines, set by the first such closure (see closure).  It is
    the pencil lines and the pairs off the contained lines,
    N(q + 1) - sum_L m_L + C(N, 2) - sum_L C(m_L, 2) over the lines L of
    m_L points: a contained line through a point is a rational line of its
    pencil, a contained secant is rational, and two lines share no pair.
    So it needs no pair solved and no pencil taken.

    A field above the flat-table limit raises BudgetExceeded before any
    point is scanned, and so does a smooth surface over a field with
    (q - 1)^4 > PAIR_TABLE_BUDGET: it has at least (q - 1)^2 points (the
    Weil-Manin count).  Any other point set with more than
    PAIR_TABLE_BUDGET pairs raises it before any gradient is taken.  The
    first rational point whose gradient vanishes raises SingularPoint, and
    so, after the gradients, does a surface that is_smooth finds singular.
    """

    __slots__ = ("form", "points", "index", "lines", "line_indices", "spanning_lines",
                 "_pairs", "_filled", "_solve", "_lookup", "_grads", "_cones", "_roots",
                 "_thirds", "_thirds_filled")

    def __init__(self, form: CubicForm):
        f = form.field
        add, mul, neg = f.flat_tables()
        q = f.q
        smooth = is_smooth(form)
        if (q - 1) ** 4 > PAIR_TABLE_BUDGET and smooth:
            raise BudgetExceeded(f"a smooth surface over GF({q}) has at least {(q - 1) ** 2} points")
        points = surface_points(form)
        n = len(points)
        if n * n > PAIR_TABLE_BUDGET:
            raise BudgetExceeded(f"{n} points need a table of {n * n} pairs")
        self.form = form
        self.points = points
        index = {p.coords: i for i, p in enumerate(points)}
        self.index = index
        grads = [_smooth_gradient(form, p.coords) for p in points]
        if not smooth:
            raise SingularPoint("the surface is singular at a point over an extension field")
        self.lines = lines_on_surface(form)
        self.line_indices = [tuple(index[p.coords] for p in line.points()) for line in self.lines]
        # inverses premultiplied by q, ready to index a row of mul
        inv_row = [0] + [f.inv(a) * q for a in range(1, q)]

        def lookup(w0, w1, w2, w3):
            """The index of the point w, scaled so its first nonzero entry is 1."""
            if w0:
                s = inv_row[w0]
                return index[(1, mul[s + w1], mul[s + w2], mul[s + w3])]
            if w1:
                s = inv_row[w1]
                return index[(0, 1, mul[s + w2], mul[s + w3])]
            if w2:
                return index[(0, 0, 1, mul[inv_row[w2] + w3])]
            return index[(0, 0, 0, 1)]

        coords = [p.coords for p in points]
        grad_rows = [tuple(g * q for g in grad) for grad in grads]
        table = array("i", [UNSOLVED]) * (n * n)
        table[:: n + 1] = array("i", [-1]) * n

        def solve(i, j):
            """Fill the entries of the secant through points i and j; return
            the third point, or -1 when the line lies inside the surface."""
            u0, u1, u2, u3 = coords[i]
            g0, g1, g2, g3 = grad_rows[i]
            v0, v1, v2, v3 = coords[j]
            h0, h1, h2, h3 = grad_rows[j]
            c1 = add[add[add[mul[g0 + v0] * q + mul[g1 + v1]] * q + mul[g2 + v2]] * q + mul[g3 + v3]]
            c2 = add[add[add[mul[h0 + u0] * q + mul[h1 + u1]] * q + mul[h2 + u2]] * q + mul[h3 + u3]]
            if c1 == 0 and c2 == 0:
                table[i * n + j] = table[j * n + i] = -1  # line inside the surface
                return -1
            a = c2 * q
            b = neg[c1] * q
            k = lookup(
                add[mul[a + u0] * q + mul[b + v0]],
                add[mul[a + u1] * q + mul[b + v1]],
                add[mul[a + u2] * q + mul[b + v2]],
                add[mul[a + u3] * q + mul[b + v3]],
            )
            table[i * n + j] = table[j * n + i] = k
            if k != i and k != j:
                # the secant meets the surface in exactly i, j and k
                table[i * n + k] = table[k * n + i] = j
                table[j * n + k] = table[k * n + j] = i
            return k

        self._pairs = table
        self._filled = False
        self._solve = solve
        self._lookup = lookup
        self._grads = grads
        self._cones: list = [None] * n
        self._roots = array("i", [-1]) * n
        self._thirds: list = [None] * n
        self._thirds_filled = False
        self.spanning_lines: Optional[int] = None

    def _cone(self, i: int):
        """(e0, e1, cone) of surface._tangent_cone at point i, cached."""
        cone = self._cones[i]
        if cone is None:
            cone = self._cones[i] = _tangent_cone(self.form, self.points[i].coords, self._grads[i])
        return cone

    def cone_roots(self, i: int) -> int:
        """z_P at point i: the number of pencil lines on which the tangent
        cone vanishes, q + 1 when it vanishes identically.  The affine
        zeros of d0 + d1*t + d2*t^2 come from surface._cubic_zeros, and the
        line through e1 is a zero when d2 = 0; a taken pencil sets it."""
        z = self._roots[i]
        if z < 0:
            d0, d1, d2 = self._cone(i)[2]
            z = self._roots[i] = len(_cubic_zeros(self.form.field, d0, d1, d2, 0)) + (d2 == 0)
        return z

    def _pencil(self, i: int) -> tuple[int, ...]:
        """Take the tangent pencil at point i: store its thirds and return them.

        The pencil is the line of second points e0 + t*e1 (then e1) of the
        cached cone.  F is restricted to that line once, and each pencil
        line reads its two coefficients off the cubic and the cone by
        Horner's rule in t.
        """
        form = self.form
        f = form.field
        add, mul, neg = f.flat_tables()
        q = f.q
        lookup = self._lookup
        u0, u1, u2, u3 = self.points[i].coords
        e0, e1, (d0, d1, d2) = self._cone(i)
        # F and sum_m u_m dF/dx_m along e0 + t*e1, ascending in t
        a0, a1, a2, a3 = form.restrict_to_line(e0, e1)
        f0, f1, f2, f3 = e0
        x0, x1, x2, x3 = (c * q for c in e1)
        thirds = []
        for t in range(q + 1):
            if t < q:
                h = add[mul[a3 * q + t] * q + a2]
                h = add[mul[h * q + t] * q + a1]
                c3 = add[mul[h * q + t] * q + a0]
                h = add[mul[d2 * q + t] * q + d1]
                c2 = add[mul[h * q + t] * q + d0]
                w0 = add[f0 * q + mul[x0 + t]]
                w1 = add[f1 * q + mul[x1 + t]]
                w2 = add[f2 * q + mul[x2 + t]]
                w3 = add[f3 * q + mul[x3 + t]]
            else:  # the line through e1 takes the leading coefficients
                c3, c2 = a3, d2
                w0, w1, w2, w3 = e1
            if c2 == 0 and c3 == 0:
                continue  # pencil line inside the surface
            a = c3 * q
            b = neg[c2] * q
            thirds.append(lookup(
                add[mul[a + u0] * q + mul[b + w0]],
                add[mul[a + u1] * q + mul[b + w1]],
                add[mul[a + u2] * q + mul[b + w2]],
                add[mul[a + u3] * q + mul[b + w3]],
            ))
        thirds = self._thirds[i] = tuple(thirds)
        # the cone is not needed again: z_P counts the entries equal to i
        # and the contained lines, the lines with no entry
        self._roots[i] = q + 1 - len(thirds) + thirds.count(i)
        self._cones[i] = None
        return thirds

    def thirds_at(self, i: int) -> tuple[int, ...]:
        """tangent_thirds[i], taking the pencil at i on the first ask."""
        thirds = self._thirds[i]
        return self._pencil(i) if thirds is None else thirds

    @property
    def tangent_thirds(self) -> list[tuple[int, ...]]:
        """The full tangent table; the first read takes every pencil left."""
        if not self._thirds_filled:
            for i, thirds in enumerate(self._thirds):
                if thirds is None:
                    self._pencil(i)
            self._thirds_filled = True
        return self._thirds

    @tangent_thirds.setter
    def tangent_thirds(self, thirds) -> None:
        self._thirds = thirds
        self._thirds_filled = True

    @property
    def pair_third(self) -> array:
        """The full pair table; the first read solves every pair left."""
        if not self._filled:
            table, solve = self._pairs, self._solve
            n = len(self.points)
            for i in range(n):
                at, stop = i * n + i, (i + 1) * n
                while True:
                    try:
                        at = table.index(UNSOLVED, at + 1, stop)
                    except ValueError:
                        break
                    solve(i, at - i * n)
            self._filled = True
        return self._pairs

    @pair_third.setter
    def pair_third(self, table) -> None:
        self._pairs = table
        self._filled = True

    def skew_pairs(self) -> Iterator[tuple[int, int]]:
        """The positions (a, b), a < b, of the skew pairs of lines, in scan
        order.  Rational lines that meet do so in a Galois-fixed, so
        rational, point: skew lines are those with disjoint point sets."""
        sets = [frozenset(idx) for idx in self.line_indices]
        for a, b in combinations(range(len(sets)), 2):
            if sets[a].isdisjoint(sets[b]):
                yield a, b

    def closure(self, seeds: Iterable[int], spanning: Optional[bytearray] = None):
        """Grow a seed index set to its secant-tangent fixpoint.

        Returns (member flags, members in insertion order, added-per-round
        counts, lines examined).  Each unordered pair of members is examined
        exactly once, at the turn of whichever point entered later, and each
        member's tangent lines once.  A pair read while UNSOLVED is solved
        then, and a member's pencil is taken at its first turn.

        The run stops at the first turn at which every point is a member,
        with the statistics of the full run: later turns add nothing, and a
        full run that reaches every point examines every tangent entry and
        each pair entry that is not -1 once per unordered pair.  That
        constant is self.spanning_lines, computed by the first such run;
        seeds that already cover the surface read no entry.

        spanning, if given, flags the points P already known to have
        spn(P) = S(F_q).  The run then also stops at a flagged seed, before
        it reads any entry, or right after it adds a flagged member.  The
        seeds span: P in spn(B) gives spn(P) in spn(B).  Such a flagged stop
        returns the members and rounds so far, a prefix of the full run's,
        and as lines the entries read so far.  A run that reaches every
        point still returns the full run's constant.  Without flags the run
        is exactly the unflagged one.
        """
        n = len(self.points)
        table = self._pairs
        solve = self._solve
        thirds_at = self.thirds_at
        flags = bytes(n) if spanning is None else spanning
        members = bytearray(n)
        order: list[int] = []
        position = [0] * n
        stop = False
        for i in seeds:
            if not members[i]:
                members[i] = 1
                position[i] = len(order)
                order.append(i)
                if flags[i]:
                    stop = True
        frontier = list(order)
        rounds = [len(frontier)]
        lines = 0
        while frontier:
            new: list[int] = []
            added = 0
            for i in frontier:
                if stop or len(order) == n:
                    if added:
                        rounds.append(added)
                    if len(order) == n:
                        if self.spanning_lines is None:
                            sizes = [len(idx) for idx in self.line_indices]
                            self.spanning_lines = n * (self.form.field.q + 1) - sum(sizes) + comb(
                                n, 2) - sum(comb(m, 2) for m in sizes)
                        lines = self.spanning_lines
                    return members, order, tuple(rounds), lines
                base = i * n
                for k in thirds_at(i):
                    lines += 1
                    if not members[k]:
                        members[k] = 1
                        position[k] = len(order)
                        order.append(k)
                        new.append(k)
                        added += 1
                        if flags[k]:
                            stop = True
                            break
                if stop:
                    continue
                for j in order[: position[i]]:
                    k = table[base + j]
                    if k == UNSOLVED:
                        k = solve(i, j)
                    if k >= 0:
                        lines += 1
                        if not members[k]:
                            members[k] = 1
                            position[k] = len(order)
                            order.append(k)
                            new.append(k)
                            added += 1
                            if flags[k]:
                                stop = True
                                break
            if added:
                rounds.append(added)
            frontier = new
        return members, order, tuple(rounds), lines


@dataclass(frozen=True)
class SpanState:
    """A secant-tangent closure at its fixpoint.

    added_per_round starts with the seed count; rounds here are the eager
    work-list sweeps of the implementation, whose union is the same least
    fixpoint as the by-generation definition.
    """

    points: frozenset[ProjPoint]
    rounds: int
    added_per_round: tuple[int, ...]
    lines_examined: int
    surface_size: int

    @property
    def spans_surface(self) -> bool:
        return len(self.points) == self.surface_size


def span_closure(
    form: CubicForm,
    seeds: Iterable[ProjPoint],
    table: Optional[SpanTable] = None,
) -> SpanState:
    """The least secant-tangent closed superset of the seed points.

    A prebuilt SpanTable for the same surface makes repeated closures on
    one surface cheap; without one it is built on the fly.
    """
    if table is None:
        table = SpanTable(form)
    idx = []
    for p in seeds:
        i = table.index.get(p.coords)
        if i is None:
            raise PointNotOnSurface(f"{p} is not a rational point of the surface")
        idx.append(i)
    members, order, rounds, lines = table.closure(idx)
    pts = frozenset(table.points[i] for i in order)
    return SpanState(pts, len(rounds) - 1, rounds, lines, len(table.points))


def _eckardt_by_cone(table: SpanTable, i: int) -> bool:
    """Whether point i is an Eckardt point: its tangent cone vanishes on
    all q + 1 pencil lines, so identically (a nonzero binary quadratic has
    at most two zeros).  This is surface.is_eckardt's test."""
    return table.cone_roots(i) == table.form.field.q + 1


def _ternary_by_cone(table: SpanTable, i: int) -> bool:
    """Whether point i is ternary: its tangent cone has a rational zero on
    the pencil."""
    return table.cone_roots(i) > 0


def _closure_unless_spanning(
    table: SpanTable, seeds: tuple[int, ...], spanning: bytearray
) -> Optional[bytearray]:
    """The member flags of spn(seeds), or None when it is all of S(F_q).

    spanning flags the points P known to have spn(P) = S(F_q), and the
    closure stops at the first of them it meets.  A closure that spans
    flags its seed when it has only one: spanning a set of several seeds
    says nothing about each seed alone.  A closure that does not span
    meets no flagged point, so it runs to its fixpoint.
    """
    members, order, _, _ = table.closure(seeds, spanning)
    if len(order) == len(members) or any(map(spanning.__getitem__, order)):
        if len(seeds) == 1:
            spanning[seeds[0]] = 1
        return None
    return members


@dataclass(frozen=True)
class SkewSingletonReport:
    """Outcome of the singleton-span check on one skew pair of lines."""

    pair: tuple[Line3, Line3]
    points_checked: int
    eckardt_skipped: int
    all_span: bool
    failures: tuple[ProjPoint, ...]


def verify_skew_singleton_span(
    form: CubicForm,
    table: Optional[SpanTable] = None,
    pair: Optional[tuple[Line3, Line3]] = None,
) -> SkewSingletonReport:
    """Check spn(P) = S(F_q) for every non-Eckardt P on a skew rational pair.

    The pair defaults to the first skew pair of the table's lines
    (SpanTable.skew_pairs); ConfigurationAbsent is raised when the surface
    has none.  A given pair must be two of the table's lines.

    Each point that spans is flagged for the rest of the call, and later
    closures stop at the first flagged point they reach.  That is exact:
    Q in spn(P) gives spn(Q) in spn(P), so spn(Q) = S(F_q) makes spn(P)
    all of S(F_q) too.
    """
    if table is None:
        table = SpanTable(form)
    if pair is None:
        first = next(table.skew_pairs(), None)
        if first is None:
            raise ConfigurationAbsent("the surface has no rational skew pair of lines")
        pair = (table.lines[first[0]], table.lines[first[1]])
    spanning = bytearray(len(table.points))
    checked = 0
    skipped = 0
    failures = []
    seen: set[int] = set()
    for line in pair:
        for i in table.line_indices[table.lines.index(line)]:
            if i in seen:
                continue
            seen.add(i)
            if _eckardt_by_cone(table, i):
                skipped += 1
                continue
            checked += 1
            if _closure_unless_spanning(table, (i,), spanning) is not None:
                failures.append(table.points[i])
    return SkewSingletonReport(pair, checked, skipped, not failures, tuple(failures))


def find_skew_pair(form: CubicForm) -> tuple[Line3, Line3]:
    """The first pair of skew rational lines on the surface, in scan order."""
    for pair in combinations(lines_on_surface(form), 2):
        if skew(*pair):
            return pair
    raise ConfigurationAbsent("the surface has no rational skew pair of lines")


@dataclass(frozen=True)
class SpanLemmaReport:
    """Exhaustive verification of the span lemmas on one surface.

    Each lemma field is True when every applicable configuration passed,
    None when the surface has no configuration the lemma applies to.
    line_in_point_span: a rational line lies in the span of each of its
    non-Eckardt rational points.  skew_line_span: each line of a skew
    rational pair lies in the span of the other line's points.
    skew_union_spans_surface: the union of a skew pair's points spans all
    of S(F_q).
    """

    line_in_point_span: Optional[bool]
    line_in_point_span_checked: int
    skew_line_span: Optional[bool]
    skew_line_span_checked: int
    skew_union_spans_surface: Optional[bool]
    skew_union_checked: int
    counterexample: Optional[str]

    @property
    def all_passed(self) -> bool:
        return all(v is not False for v in (
            self.line_in_point_span,
            self.skew_line_span,
            self.skew_union_spans_surface,
        ))


def verify_span_lemmas(form: CubicForm, table: Optional[SpanTable] = None) -> SpanLemmaReport:
    """Exhaustively verify the three span lemmas over S(F_q), q >= 13.

    Each seed set is closed once: every non-Eckardt point on a line,
    every line's points, and the union of each skew pair.  A point whose
    own closure spans S(F_q) is flagged for the rest of the call, and a
    closure that reaches a flagged point stops there, since Q in spn(B)
    gives spn(Q) in spn(B) and so spn(B) = S(F_q).  A closure that does
    not span runs to its fixpoint.  The line checks read the member flags
    of those closures, held per seed tuple for the length of the call;
    a seed set that spans holds None instead, as every target is in it.
    counterexample describes the first failure met.
    """
    f = form.field
    if f.q < 13:
        raise HypothesisFailed("the span lemmas assume a field with at least 13 elements")
    if table is None:
        table = SpanTable(form)
    lines, indices = table.lines, table.line_indices
    if not lines:
        raise ConfigurationAbsent("the surface has no rational line")
    n = len(table.points)
    counterexample = None
    spanning = bytearray(n)
    closures: dict[tuple[int, ...], Optional[bytearray]] = {}

    def spans(seeds: tuple[int, ...], targets: Iterable[int]) -> bool:
        if seeds not in closures:
            closures[seeds] = _closure_unless_spanning(table, seeds, spanning)
        members = closures[seeds]
        return members is None or all(members[k] for k in targets)

    lemma_a: Optional[bool] = None
    checked_a = 0
    for line, targets in zip(lines, indices):
        for i in sorted(targets):
            if _eckardt_by_cone(table, i):
                continue
            checked_a += 1
            if not spans((i,), targets):
                lemma_a = False
                counterexample = counterexample or (
                    f"line {line} not inside span of {table.points[i]}"
                )
            elif lemma_a is None:
                lemma_a = True

    lemma_b: Optional[bool] = None
    checked_b = 0
    lemma_c: Optional[bool] = None
    checked_c = 0
    for a, b in table.skew_pairs():
        idx1, idx2 = indices[a], indices[b]
        for src, dst in ((idx1, idx2), (idx2, idx1)):
            checked_b += 1
            if not spans(src, dst):
                lemma_b = False
                counterexample = counterexample or (
                    f"span of {lines[a]} misses points of {lines[b]}"
                )
        if lemma_b is None:
            lemma_b = True
        checked_c += 1
        members = _closure_unless_spanning(table, idx1 + idx2, spanning)
        if members is not None:
            lemma_c = False
            counterexample = counterexample or (
                f"skew pair {lines[a]}, {lines[b]} spans only {members.count(1)} of {n} points"
            )
        elif lemma_c is None:
            lemma_c = True

    return SpanLemmaReport(
        lemma_a, checked_a, lemma_b, checked_b, lemma_c, checked_c, counterexample,
    )


@dataclass(frozen=True)
class MinimalGenerators:
    """Result of the exhaustive minimal-generator search.

    exceeded is True when every size up to GENERATOR_SIZE_LIMIT was
    searched without a spanning set; r is then None.
    """

    r: Optional[int]
    witness: tuple[ProjPoint, ...]
    exceeded: bool
    closures_run: int


def minimal_generators(form: CubicForm, table: Optional[SpanTable] = None) -> MinimalGenerators:
    """The least r with a size-r set spanning S(F_q), searched exhaustively.

    Subset size grows from 1 to GENERATOR_SIZE_LIMIT; candidate sets are
    enumerated in point order and the first spanning witness is returned.
    The search refuses to start a size level whose subset count would push
    the total number of closure runs past GENERATOR_CLOSURE_BUDGET.
    """
    if table is None:
        table = SpanTable(form)
    n = len(table.points)
    runs = 0
    for r in range(1, GENERATOR_SIZE_LIMIT + 1):
        level = comb(n, r)
        if runs + level > GENERATOR_CLOSURE_BUDGET:
            raise BudgetExceeded(
                f"size-{r} search needs {level} closures (budget {GENERATOR_CLOSURE_BUDGET})"
            )
        for combo in combinations(range(n), r):
            runs += 1
            _, order, _, _ = table.closure(combo)
            if len(order) == n:
                return MinimalGenerators(
                    r, tuple(table.points[i] for i in combo), False, runs
                )
    return MinimalGenerators(None, (), True, runs)
