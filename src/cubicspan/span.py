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
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable, Optional

from .errors import (
    BudgetExceeded,
    ConfigurationAbsent,
    HypothesisFailed,
    PointNotOnSurface,
)
from .projgeo import Line3, Plane3, ProjPoint, normalize, pencil_second_points, skew
from .surface import (
    CubicForm,
    PointKind,
    classify_point,
    lines_on_surface,
    zero_points,
)

#: refuse to build a pair table beyond this many (point, point) entries
PAIR_TABLE_BUDGET = 4_000_000


def surface_points(form: CubicForm) -> list[ProjPoint]:
    """All rational points of the surface, in the canonical chart order."""
    f = form.field
    return [ProjPoint(f, c) for c in zero_points(form)]


class SpanTable:
    """Preprocessed secant and tangent third-point tables for one surface.

    pair_third is a flattened N x N array: entry i*N+j holds the index of
    the third intersection point of the line through points i and j, or -1
    when that line lies inside the surface.  tangent_thirds[i] lists the
    third points of the non-contained tangent lines at point i; an entry
    equal to i itself records an asymptotic line.
    """

    __slots__ = ("form", "points", "index", "pair_third", "tangent_thirds")

    def __init__(self, form: CubicForm, pair_budget: int = PAIR_TABLE_BUDGET):
        f = form.field
        points = surface_points(form)
        n = len(points)
        if n * n > pair_budget:
            raise BudgetExceeded(f"{n} points need a table of {n * n} pairs")
        self.form = form
        self.points = points
        index = {p.coords: i for i, p in enumerate(points)}
        self.index = index
        grads = [form.gradient(p.coords) for p in points]
        add, mul, neg = f.add, f.mul, f.neg

        def dot(g, c):
            acc = 0
            for a, b in zip(g, c):
                if a and b:
                    acc = add(acc, mul(a, b))
            return acc

        table = array("i", [-1]) * (n * n)
        for i in range(n):
            u = points[i].coords
            gi = grads[i]
            base = i * n
            for j in range(i + 1, n):
                v = points[j].coords
                c1 = dot(gi, v)
                c2 = dot(grads[j], u)
                if c1 == 0 and c2 == 0:
                    continue  # line inside the surface
                nc1 = neg(c1)
                coords = tuple(add(mul(c2, a), mul(nc1, b)) for a, b in zip(u, v))
                k = index[normalize(f, coords)]
                table[base + j] = k
                table[j * n + i] = k
        self.pair_third = table

        tangents = []
        for i in range(n):
            u = points[i].coords
            thirds = []
            for w in pencil_second_points(Plane3(f, grads[i]), u):
                c2 = dot(form.gradient(w), u)
                c3 = form.evaluate(w)
                if c2 == 0 and c3 == 0:
                    continue  # pencil line inside the surface
                coords = tuple(add(mul(c3, a), mul(neg(c2), b)) for a, b in zip(u, w))
                thirds.append(index[normalize(f, coords)])
            tangents.append(tuple(thirds))
        self.tangent_thirds = tangents

    def closure(self, seeds: Iterable[int], stop_when: Optional[set[int]] = None):
        """Grow a seed index set to its secant-tangent fixpoint.

        Returns (member flags, members in insertion order, added-per-round
        counts, lines examined).  stop_when, if given, is a set of indices;
        the run stops early once all of them are members.  Each unordered
        pair of members is examined exactly once, at the turn of whichever
        point entered later.
        """
        n = len(self.points)
        table = self.pair_third
        tangents = self.tangent_thirds
        members = bytearray(n)
        order: list[int] = []
        position = [0] * n
        for i in seeds:
            if not members[i]:
                members[i] = 1
                position[i] = len(order)
                order.append(i)
        frontier = list(order)
        rounds = [len(frontier)]
        lines = 0
        remaining = None
        if stop_when is not None:
            remaining = {i for i in stop_when if not members[i]}
        while frontier and (remaining is None or remaining):
            new: list[int] = []
            added = 0
            for i in frontier:
                base = i * n
                for k in tangents[i]:
                    lines += 1
                    if not members[k]:
                        members[k] = 1
                        position[k] = len(order)
                        order.append(k)
                        new.append(k)
                        added += 1
                        if remaining is not None:
                            remaining.discard(k)
                for j in order[: position[i]]:
                    k = table[base + j]
                    if k >= 0:
                        lines += 1
                        if not members[k]:
                            members[k] = 1
                            position[k] = len(order)
                            order.append(k)
                            new.append(k)
                            added += 1
                            if remaining is not None:
                                remaining.discard(k)
                if remaining is not None and not remaining:
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


def _line_point_indices(table: SpanTable, line: Line3) -> list[int]:
    return [table.index[p.coords] for p in line.points()]


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

    The pair defaults to the first skew pair of rational lines in scan
    order; ConfigurationAbsent is raised when the surface has none.
    """
    if table is None:
        table = SpanTable(form)
    if pair is None:
        pair = find_skew_pair(form)
    n = len(table.points)
    full = set(range(n))
    checked = 0
    skipped = 0
    failures = []
    seen: set[int] = set()
    for line in pair:
        for i in _line_point_indices(table, line):
            if i in seen:
                continue
            seen.add(i)
            if classify_point(form, table.points[i]).kind is PointKind.ECKARDT:
                skipped += 1
                continue
            checked += 1
            _, order, _, _ = table.closure([i], stop_when=full)
            if len(order) != n:
                failures.append(table.points[i])
    return SkewSingletonReport(pair, checked, skipped, not failures, tuple(failures))


def find_skew_pair(form: CubicForm) -> tuple[Line3, Line3]:
    """The first pair of skew rational lines on the surface, in scan order."""
    lines = lines_on_surface(form)
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            if skew(lines[i], lines[j]):
                return lines[i], lines[j]
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
    """Exhaustively verify the three span lemmas over S(F_q), q >= 13."""
    f = form.field
    if f.q < 13:
        raise HypothesisFailed("the span lemmas assume a field with at least 13 elements")
    if table is None:
        table = SpanTable(form)
    lines = lines_on_surface(form)
    if not lines:
        raise ConfigurationAbsent("the surface has no rational line")
    n = len(table.points)
    counterexample = None
    kinds: dict[int, PointKind] = {}

    def kind_of(i: int) -> PointKind:
        k = kinds.get(i)
        if k is None:
            k = classify_point(form, table.points[i]).kind
            kinds[i] = k
        return k

    lemma_a: Optional[bool] = None
    checked_a = 0
    for line in lines:
        targets = set(_line_point_indices(table, line))
        for i in sorted(targets):
            if kind_of(i) is PointKind.ECKARDT:
                continue
            checked_a += 1
            _, order, _, _ = table.closure([i], stop_when=set(targets))
            if not targets.issubset(order):
                lemma_a = False
                counterexample = (
                    f"line {line} not inside span of {table.points[i]}"
                )
            elif lemma_a is None:
                lemma_a = True

    lemma_b: Optional[bool] = None
    checked_b = 0
    lemma_c: Optional[bool] = None
    checked_c = 0
    skew_pairs = [
        (l1, l2)
        for i, l1 in enumerate(lines)
        for l2 in lines[i + 1 :]
        if skew(l1, l2)
    ]
    for l1, l2 in skew_pairs:
        idx1 = _line_point_indices(table, l1)
        idx2 = _line_point_indices(table, l2)
        for src, dst in ((idx1, idx2), (idx2, idx1)):
            checked_b += 1
            _, order, _, _ = table.closure(src, stop_when=set(dst))
            if not set(dst).issubset(order):
                lemma_b = False
                counterexample = counterexample or (
                    f"span of {l1} misses points of {l2}"
                )
        if lemma_b is None:
            lemma_b = True
        checked_c += 1
        members, order, _, _ = table.closure(idx1 + idx2)
        ok = len(order) == n
        if not ok:
            lemma_c = False
            counterexample = counterexample or (
                f"skew pair {l1}, {l2} spans only {len(order)} of {n} points"
            )
        elif lemma_c is None:
            lemma_c = True

    return SpanLemmaReport(
        lemma_a, checked_a, lemma_b, checked_b, lemma_c, checked_c, counterexample,
    )


@dataclass(frozen=True)
class MinimalGenerators:
    """Result of the exhaustive minimal-generator search.

    exceeded is True when every size up to r_max was searched without a
    spanning set; r is then None.
    """

    r: Optional[int]
    witness: tuple[ProjPoint, ...]
    exceeded: bool
    closures_run: int


def minimal_generators(
    form: CubicForm,
    r_max: int = 3,
    table: Optional[SpanTable] = None,
    closure_budget: int = 20_000,
) -> MinimalGenerators:
    """The least r with a size-r set spanning S(F_q), searched exhaustively.

    Subset size grows from 1 to r_max; candidate sets are enumerated in
    point order and the first spanning witness is returned.  The search
    refuses to start a size level whose subset count would push the total
    number of closure runs past closure_budget.
    """
    if table is None:
        table = SpanTable(form)
    n = len(table.points)
    full = set(range(n))
    runs = 0
    for r in range(1, r_max + 1):
        level = comb(n, r)
        if runs + level > closure_budget:
            raise BudgetExceeded(
                f"size-{r} search needs {level} closures (budget {closure_budget})"
            )
        for combo in combinations(range(n), r):
            runs += 1
            _, order, _, _ = table.closure(combo, stop_when=full)
            if len(order) == n:
                return MinimalGenerators(
                    r, tuple(table.points[i] for i in combo), False, runs
                )
    return MinimalGenerators(None, (), True, runs)
