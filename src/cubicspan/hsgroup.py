"""The divisor-class group of a cubic surface cut down by line relations.

G is the free abelian group on S(F_q).  G' is the subgroup generated by
the degree-3 sums P+Q+R arising from (i) lines not on the surface whose
intersection cycle is fully rational, with tangency giving 2P+Q and the
asymptotic case 3P, and (ii) every triple, repetition allowed, of rational
points on a line inside the surface.  G'' is the degree-0 part of G', the
span of the differences g - g0 of the generating sums against a fixed
base sum.  H = G/G'' and its degree-0 part H0 are what this module
presents, together with Smith normal form data for canonical coset
representatives.

The raw presentation is large (tens of thousands of sums on a few
hundred points by q = 13) but collapses: points sharing a contained line
fall into one class, as do all tangent third points of a fixed point.
The quotient by those identifications is exact, since each identification
is itself a difference of two generating sums, so the classes are merged
first and the group is computed in class space.  The merge takes the
tangent pencils in point order and stops once one class remains.  The
sums are counted in closed form off the contained lines and the cone
root counts, and listed only when more than one class remains; with one
class H0 = 0.  A listed sum is kept only as its image, the sorted triple
of class columns it maps to, and the relation matrix has one row per
distinct image after the first, so its size follows the class count,
not the number of sums.

Generation of H0 by differences [P - P0] is read off a triangular
lattice basis; Smith normal form is computed only for the canonical
coset representatives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    BudgetExceeded,
    NoRationalPoints,
    NoTernaryPoint,
    PointNotOnSurface,
)
from .projgeo import Line3, ProjPoint
from .span import SpanTable, _ternary_by_cone, minimal_generators
from .surface import CubicForm


def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


class _SnfWorkspace:
    """Mutable A = U M V with all four transforms tracked exactly."""

    def __init__(self, m: Sequence[Sequence[int]]):
        self.a = [list(row) for row in m]
        rows = len(self.a)
        cols = len(self.a[0]) if rows else 0
        if any(len(row) != cols for row in self.a):
            raise ValueError("matrix rows have unequal lengths")
        self.rows = rows
        self.cols = cols
        self.u = _identity(rows)
        self.uinv = _identity(rows)
        self.v = _identity(cols)
        self.vinv = _identity(cols)

    def swap_rows(self, r1: int, r2: int) -> None:
        if r1 == r2:
            return
        self.a[r1], self.a[r2] = self.a[r2], self.a[r1]
        self.u[r1], self.u[r2] = self.u[r2], self.u[r1]
        for row in self.uinv:
            row[r1], row[r2] = row[r2], row[r1]

    def negate_row(self, r: int) -> None:
        self.a[r] = [-x for x in self.a[r]]
        self.u[r] = [-x for x in self.u[r]]
        for row in self.uinv:
            row[r] = -row[r]

    def add_row(self, r1: int, r2: int, c: int) -> None:
        """row r1 += c * row r2"""
        if c == 0:
            return
        self.a[r1] = [x + c * y for x, y in zip(self.a[r1], self.a[r2])]
        self.u[r1] = [x + c * y for x, y in zip(self.u[r1], self.u[r2])]
        for row in self.uinv:
            row[r2] -= c * row[r1]

    def swap_cols(self, c1: int, c2: int) -> None:
        if c1 == c2:
            return
        for row in self.a:
            row[c1], row[c2] = row[c2], row[c1]
        for row in self.v:
            row[c1], row[c2] = row[c2], row[c1]
        self.vinv[c1], self.vinv[c2] = self.vinv[c2], self.vinv[c1]

    def add_col(self, c1: int, c2: int, k: int) -> None:
        """col c1 += k * col c2"""
        if k == 0:
            return
        for row in self.a:
            row[c1] += k * row[c2]
        for row in self.v:
            row[c1] += k * row[c2]
        self.vinv[c2] = [x - k * y for x, y in zip(self.vinv[c2], self.vinv[c1])]


def snf_with_transforms(m: Sequence[Sequence[int]]):
    """Smith form with inverse transforms: (U, Uinv, D, V, Vinv).

    U M V = D is diagonal with d1 | d2 | ..., and M = Uinv D Vinv, so the
    first rank(M) rows of Vinv are a basis of the saturation of the row
    lattice of M.
    """
    ws = _SnfWorkspace(m)
    a = ws.a
    t = 0
    limit = min(ws.rows, ws.cols)
    while t < limit:
        best = None
        for i in range(t, ws.rows):
            for j in range(t, ws.cols):
                x = a[i][j]
                if x and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
        if best is None:
            break
        while True:
            _, bi, bj = best
            ws.swap_rows(t, bi)
            ws.swap_cols(t, bj)
            if a[t][t] < 0:
                ws.negate_row(t)
            pivot = a[t][t]
            dirty = False
            for i in range(t + 1, ws.rows):
                if a[i][t]:
                    ws.add_row(i, t, -(a[i][t] // pivot))
                    if a[i][t]:
                        dirty = True
            for j in range(t + 1, ws.cols):
                if a[t][j]:
                    ws.add_col(j, t, -(a[t][j] // pivot))
                    if a[t][j]:
                        dirty = True
            if not dirty:
                stray = None
                for i in range(t + 1, ws.rows):
                    for j in range(t + 1, ws.cols):
                        if a[i][j] % pivot:
                            stray = i
                            break
                    if stray is not None:
                        break
                if stray is None:
                    break
                ws.add_row(t, stray, 1)
            best = None
            for i in range(t, ws.rows):
                for j in range(t, ws.cols):
                    x = a[i][j]
                    if x and (best is None or abs(x) < best[0]):
                        best = (abs(x), i, j)
        t += 1
    return ws.u, ws.uinv, ws.a, ws.v, ws.vinv


def smith_normal_form(m: Sequence[Sequence[int]]):
    """Smith normal form (U, D, V) of an integer matrix: U M V = D.

    D is diagonal with non-negative entries satisfying d1 | d2 | ...; U
    and V are unimodular.
    """
    u, _, d, v, _ = snf_with_transforms(m)
    return u, d, v


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, x: int, y: int) -> bool:
        """Merge the classes of x and y under the smaller root, so a root is
        always its class's least index; return whether they were apart."""
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if ry < rx:
            rx, ry = ry, rx
        self.parent[ry] = rx
        return True


@dataclass(frozen=True)
class HsClass:
    """A canonical coset representative in the class group.

    The vector is sparse over point indices (keys are class
    representative points); two classes are equal exactly when their
    canonical vectors are equal.
    """

    presentation: "ZPresentation" = field(compare=False, repr=False)
    vector: tuple[tuple[int, int], ...]
    degree: int

    def __add__(self, other: "HsClass") -> "HsClass":
        if other.presentation is not self.presentation:
            raise ValueError("classes belong to different presentations")
        acc = dict(self.vector)
        for i, c in other.vector:
            acc[i] = acc.get(i, 0) + c
        return self.presentation._canonical_class(acc)

    def __neg__(self) -> "HsClass":
        return self.presentation._canonical_class({i: -c for i, c in self.vector})

    def __sub__(self, other: "HsClass") -> "HsClass":
        return self + (-other)

    @property
    def is_zero(self) -> bool:
        return not self.vector


@dataclass(frozen=True)
class GroupStructure:
    """Shape of H = G/G'' and of its degree-0 part H0.

    invariant_factors lists the non-unit torsion factors d1 | d2 | ...,
    shared by H and H0; the free rank of H exceeds that of H0 by one,
    the degree quotient H/H0 = Z.
    """

    points: int
    classes: int
    relations: int
    h0_free_rank: int
    invariant_factors: tuple[int, ...]
    h0_dim_mod2: int
    h0_dim_mod3: int
    two_torsion_dim: int

    @property
    def h0_trivial(self) -> bool:
        return self.h0_free_rank == 0 and not self.invariant_factors

    @property
    def h0_order_divides_two(self) -> bool:
        return self.h0_free_rank == 0 and all(d == 2 for d in self.invariant_factors)


class ZPresentation:
    """H as an explicit quotient, with SNF data for canonical cosets.

    Points are merged into classes first: the points of each contained
    line, then the tangent third points of each point, in point order,
    until one class remains.  A root is always its class's least point,
    so the stop leaves rep as the full merge makes it, and a surface whose
    lines already make one class takes no pencil.  sum_count, the number
    of distinct generating sums, is counted in closed form (_count_sums)
    off the lines and the cone root counts.  When more than one class
    remains, one pass over the generating sums records the sorted triple
    of class columns each one maps to; the relation matrix is built from
    those class-space images, reduced to a triangular lattice basis, and
    put in Smith normal form with invertible transforms.  With one class
    the matrix is empty and no sum is listed.  The lines, the pencils and
    the cone root counts are read off the table.
    """

    def __init__(self, form: CubicForm, table: Optional[SpanTable] = None):
        if table is None:
            table = SpanTable(form)
        self.form = form
        self.table = table
        self.points = table.points
        n = len(self.points)
        if n == 0:
            raise NoRationalPoints("the surface has no rational point")
        self._line_indices = [sorted(idx) for idx in table.line_indices]

        uf = _UnionFind(n)
        classes = n
        for idx in self._line_indices:
            for x in idx[1:]:
                classes -= uf.union(idx[0], x)
        for i in range(n):
            if classes == 1:  # later pencils merge nothing more
                break
            thirds = table.thirds_at(i)
            for k in thirds[1:]:
                classes -= uf.union(thirds[0], k)
        self.rep = [uf.find(i) for i in range(n)]
        # the points P with 3P a generating sum: asymptotic (a cone zero
        # off the contained lines) or on a contained line
        self._tripled = sorted({x for idx in self._line_indices for x in idx}.union(
            i for i in range(n) if table.cone_roots(i)))
        self.class_reps = sorted(set(self.rep))
        self.column = {r: c for c, r in enumerate(self.class_reps)}
        r = len(self.class_reps)

        self.sum_count = self._count_sums()
        rows = []
        if r > 1:  # one class leaves a degree-0 part of 0, with no row
            col = [self.column[x] for x in self.rep]
            images = {(col[a], col[b], col[c]) for a, b, c in self._generating_sums()}
            # the class columns of a sorted point triple need not be sorted
            base, *rest = sorted({tuple(sorted(img)) for img in images})
            rows = [[img.count(c) - base.count(c) for c in range(r)] for img in rest]
        self.matrix = rows

        reduced = self._triangular_basis(rows, r)
        self.reduced = reduced
        self.snf = snf_with_transforms(reduced) if reduced else None
        self._structure: Optional[GroupStructure] = None

    def _count_sums(self) -> int:
        """The number of distinct generating sums, without listing them.

        Two distinct points lie on one line, of one of three kinds: a
        contained line L with m points, which takes C(m, 2) pairs and
        gives 2*C(m, 2) + C(m, 3) sums; a line tangent at one of the two
        points, which is one tangent-third entry Q != P at P (tangent at
        both, it would meet S in degree 4 and lie in it); or a secant
        through three distinct points, which takes three pairs and gives
        one sum.  Distinct lines share no pair.  3P adds one sum per
        point that is asymptotic or lies on a contained line.

        The entries Q != P at P are the pencil lines on which the tangent
        cone does not vanish, q + 1 - z_P of them (SpanTable.cone_roots);
        a contained pencil line is a cone zero, so none of them is one.
        """
        table = self.table
        pencil_lines = (table.form.field.q + 1) * len(self.points)
        tangent = pencil_lines - sum(map(table.cone_roots, range(len(self.points))))
        sizes = [len(idx) for idx in self._line_indices]
        secant_pairs = comb(len(self.points), 2) - sum(comb(m, 2) for m in sizes) - tangent
        if secant_pairs % 3:
            raise AssertionError("secant pairs do not fall into threes")
        on_lines = sum(2 * comb(m, 2) + comb(m, 3) for m in sizes)
        return secant_pairs // 3 + tangent + len(self._tripled) + on_lines

    def _generating_sums(self) -> Iterator[tuple[int, int, int]]:
        """Each distinct generating sum once, as a sorted point-index triple.

        By the line kinds of _count_sums: a secant from its smallest pair,
        2P + Q from the pair (P, Q), which its tangent third Q repeats, a
        multiset on a contained line from that line, and 3P once per
        point that is asymptotic or lies on a contained line.
        """
        table = self.table
        n = len(self.points)
        pair = table.pair_third
        for i in range(n):
            row = pair[i * n : (i + 1) * n]
            for j in range(i + 1, n):
                k = row[j]
                if k > j:
                    yield (i, j, k)
                elif k == i:
                    yield (i, i, j)
                elif k == j:
                    yield (i, j, j)
        for i in self._tripled:
            yield (i, i, i)
        for idx in self._line_indices:
            for a, b in combinations(idx, 2):
                yield (a, a, b)
                yield (a, b, b)
            yield from combinations(idx, 3)

    @property
    def sums(self) -> list[tuple[int, int, int]]:
        """Every distinct generating sum, sorted; rebuilt on each access."""
        return sorted(self._generating_sums())

    @staticmethod
    def _triangular_basis(rows: list[list[int]], width: int) -> list[list[int]]:
        """A triangular lattice basis for the row span, by online insertion.

        Each incoming row is folded against the held pivot of its leading
        column: either reduced outright when the pivot divides its lead,
        or combined with the pivot by an extended gcd, a unimodular step
        that keeps the accumulated row span exact.  Leading entries come
        out positive.
        """
        pivots: list[Optional[list[int]]] = [None] * width
        for row in rows:
            row = list(row)
            for c in range(width):
                if not row[c]:
                    continue
                held = pivots[c]
                if held is None:
                    if row[c] < 0:
                        row = [-x for x in row]
                    pivots[c] = row
                    break
                a, b = held[c], row[c]
                if b % a == 0:
                    q = b // a
                    row = [y - q * x for x, y in zip(held, row)]
                else:
                    g, s, t = _xgcd(a, b)
                    pivots[c] = [s * x + t * y for x, y in zip(held, row)]
                    row = [(a // g) * y - (b // g) * x for x, y in zip(held, row)]
        return [p for p in pivots if p is not None]

    def _canonical_class(self, sparse: dict[int, int]) -> HsClass:
        r = len(self.class_reps)
        x = [0] * r
        degree = 0
        for rep_point, coeff in sparse.items():
            degree += coeff
            x[self.column[rep_point]] += coeff
        if self.snf is not None:
            _, _, d, v, vinv = self.snf
            y = [sum(x[i] * v[i][j] for i in range(r)) for j in range(r)]
            for j in range(min(len(d), r)):
                dj = d[j][j]
                if dj:
                    y[j] %= dj
            x = [sum(y[i] * vinv[i][j] for i in range(r)) for j in range(r)]
        vec = tuple(
            (self.class_reps[c], coeff) for c, coeff in enumerate(x) if coeff
        )
        return HsClass(self, vec, degree)

    def _point_index(self, point: ProjPoint) -> int:
        i = self.table.index.get(point.coords)
        if i is None:
            raise PointNotOnSurface(f"{point} is not a rational point of the surface")
        return i

    def class_of(self, point: ProjPoint) -> HsClass:
        return self._canonical_class({self.rep[self._point_index(point)]: 1})

    @property
    def structure(self) -> GroupStructure:
        if self._structure is None:
            r = len(self.class_reps)
            rank = len(self.reduced)
            diag = []
            if self.snf is not None:
                d = self.snf[2]
                diag = [d[j][j] for j in range(min(len(d), r)) if d[j][j]]
            if len(diag) != rank:
                raise AssertionError("Smith form rank differs from the lattice basis rank")
            factors = tuple(x for x in diag if x > 1)
            h0_free = r - rank - 1
            self._structure = GroupStructure(
                points=len(self.points),
                classes=r,
                relations=self.sum_count - 1,
                h0_free_rank=h0_free,
                invariant_factors=factors,
                h0_dim_mod2=h0_free + sum(1 for x in diag if x % 2 == 0),
                h0_dim_mod3=h0_free + sum(1 for x in diag if x % 3 == 0),
                two_torsion_dim=sum(1 for x in diag if x % 2 == 0),
            )
        return self._structure


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def hs_structure(
    form: CubicForm, table: Optional[SpanTable] = None, lines: Optional[list[Line3]] = None
) -> GroupStructure:
    """Free rank, invariant factors, and mod-p dimensions of H and H0; lines is unused."""
    return ZPresentation(form, table=table).structure


@dataclass(frozen=True)
class TernaryBoundReport:
    """The rank bound and generation claims checked on one surface."""

    ternary_point: ProjPoint
    h0_dim_mod2: int
    h0_dim_mod3: int
    r: Optional[int]
    bound_consistent: Optional[bool]
    generating_set_size: int
    generates_h0: bool


def ternary_bound_check(
    form: CubicForm,
    table: Optional[SpanTable] = None,
    presentation: Optional[ZPresentation] = None,
) -> TernaryBoundReport:
    """Check r >= dim H0/pH0 for p in {2, 3} and the generation claim.

    The base point is the first ternary point in scan order, read off the
    tangent cone root counts (span._ternary_by_cone).  The bound is
    compared against the exhaustive minimal generator count when that
    search fits its budget; the generation claim is checked for the
    spanning witness (every class [P - P0], P in B, together generating
    H0), falling back to B = S(F_q) when no witness is available.
    """
    if presentation is None:
        presentation = ZPresentation(form, table=table)
    table = presentation.table
    base = next((i for i in range(len(table.points)) if _ternary_by_cone(table, i)), None)
    if base is None:
        raise NoTernaryPoint("no ternary point on the surface")
    base_point = table.points[base]
    structure = presentation.structure

    r = None
    consistent: Optional[bool] = None
    try:
        found = minimal_generators(form, table=table)
        r = found.r
    except BudgetExceeded:
        pass
    if r is not None:
        consistent = r >= structure.h0_dim_mod2 and r >= structure.h0_dim_mod3
    witness = list(found.witness) if r is not None else list(presentation.points)
    generates = _difference_classes_generate(presentation, base_point, witness)
    return TernaryBoundReport(
        base_point,
        structure.h0_dim_mod2,
        structure.h0_dim_mod3,
        r,
        consistent,
        len(witness),
        generates,
    )


def _difference_classes_generate(
    presentation: ZPresentation,
    base_point: ProjPoint,
    points: Iterable[ProjPoint],
) -> bool:
    """Whether the classes [P - P0] span the whole degree-0 part."""
    r = len(presentation.class_reps)
    base_col = presentation.column[presentation.rep[presentation._point_index(base_point)]]
    rows = [row[1:] for row in presentation.reduced]
    for p in points:
        col = presentation.column[presentation.rep[presentation._point_index(p)]]
        if col == base_col:
            continue
        row = [0] * r
        row[col] = 1
        row[base_col] = -1
        rows.append(row[1:])
    # with a fixed column dropped the rows live in Z^(r-1), the lattice of
    # degree-0 vectors; they span it exactly when their triangular basis
    # is square with every leading entry 1
    width = r - 1
    basis = ZPresentation._triangular_basis(rows, width)
    return len(basis) == width and all(row[c] == 1 for c, row in enumerate(basis))
