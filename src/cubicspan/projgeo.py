"""Points, lines and planes of P^3 over a finite field.

Coordinates are field codes (see field.py).  Points and plane covectors are
normalized so the first nonzero coordinate is 1; a line is the row space of
a canonical 2x4 reduced row echelon matrix.

Enumeration orders are part of the contract: codes sort as integers, points
run chart by chart ((1,*,*,*) then (0,1,*,*) then (0,0,1,*) then (0,0,0,1))
with the last free coordinate fastest, and lines ascend lexicographically
by their flattened canonical matrix.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

from .errors import EqualPoints
from .field import ExtField


def normalize(field: ExtField, coords: Sequence[int]) -> tuple[int, ...]:
    """Scale so the first nonzero coordinate is 1; rejects the zero vector."""
    for i, c in enumerate(coords):
        if c:
            if c == 1:
                return tuple(coords)
            inv = field.inv(c)
            return tuple(0 if j < i else field.mul(inv, x) for j, x in enumerate(coords))
    raise ValueError("zero vector has no projective class")


def rref(field: ExtField, rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form and pivot columns of a small matrix."""
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = field.inv(mat[r][col])
        mat[r] = [field.mul(inv, x) for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                c = mat[i][col]
                mat[i] = [field.sub(x, field.mul(c, y)) for x, y in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return mat[:r] + [row for row in mat[r:] if any(row)], pivots


def rank(field: ExtField, rows: Iterable[Sequence[int]]) -> int:
    """Rank of a matrix over the field, by forward elimination on flat tables.

    Each row is reduced against the echelon rows kept so far, in the order
    they were kept; a row left nonzero is scaled to a leading 1 and kept.
    Reading stops once the rank reaches the column count.  Fields above the
    flat-table limit raise BudgetExceeded.
    """
    add, mul, neg = field.flat_tables()
    q = field.q
    echelon: list[tuple[int, list[int]]] = []
    for row in rows:
        row = list(row)
        for lead, tail in echelon:
            c = row[lead]
            if c:
                base = neg[c] * q
                row[lead:] = [add[x * q + mul[base + y]] for x, y in zip(row[lead:], tail)]
        lead = next((i for i, x in enumerate(row) if x), None)
        if lead is None:
            continue
        base = field.inv(row[lead]) * q
        echelon.append((lead, [mul[base + x] for x in row[lead:]]))
        if len(echelon) == len(row):
            break
    return len(echelon)


class ProjPoint:
    """A point of P^3, stored with normalized homogeneous coordinates.

    Every coordinate must be a code of the field; anything else raises
    ValueError, as CubicForm does for its coefficients.
    """

    __slots__ = ("field", "coords")

    def __init__(self, field: ExtField, coords: Iterable[int]):
        coords = tuple(map(int, coords))
        q = field.q
        for c in coords:
            if not 0 <= c < q:
                raise ValueError(f"coordinate {c} is not a code in GF({q})")
        self.field = field
        self.coords = normalize(field, coords)

    def __eq__(self, other):
        return isinstance(other, ProjPoint) and self.field is other.field and self.coords == other.coords

    def __hash__(self):
        return hash((id(self.field), self.coords))

    def __repr__(self):
        return f"ProjPoint{self.coords}"

    def __iter__(self):
        return iter(self.coords)


class Plane3:
    """A plane of P^3 as a normalized covector."""

    __slots__ = ("field", "covector")

    def __init__(self, field: ExtField, covector: Sequence[int]):
        self.field = field
        self.covector = normalize(field, covector)

    def contains(self, point: Union[ProjPoint, Sequence[int]]) -> bool:
        coords = point.coords if isinstance(point, ProjPoint) else point
        return dot4(self.field, self.covector, coords) == 0

    def __eq__(self, other):
        return isinstance(other, Plane3) and self.field is other.field and self.covector == other.covector

    def __hash__(self):
        return hash((id(self.field), self.covector, "plane"))

    def __repr__(self):
        return f"Plane3{self.covector}"


def dot4(field: ExtField, a: Sequence[int], b: Sequence[int]) -> int:
    acc = 0
    for x, y in zip(a, b):
        if x and y:
            acc = field.add(acc, field.mul(x, y))
    return acc


class Line3:
    """A line of P^3: the row space of a canonical 2x4 RREF matrix."""

    __slots__ = ("field", "rows")

    def __init__(self, field: ExtField, rows: Sequence[Sequence[int]], _canonical: bool = False):
        self.field = field
        if _canonical:
            self.rows = (tuple(rows[0]), tuple(rows[1]))
        else:
            mat, _ = rref(field, rows)
            if len(mat) != 2:
                raise ValueError("rows do not span a line")
            self.rows = (tuple(mat[0]), tuple(mat[1]))

    def contains(self, point: Union[ProjPoint, Sequence[int]]) -> bool:
        coords = point.coords if isinstance(point, ProjPoint) else tuple(point)
        mat, _ = rref(self.field, [self.rows[0], self.rows[1], coords])
        return len(mat) == 2

    def point_at(self, s: int, t: int) -> ProjPoint:
        """The point s*row0 + t*row1."""
        f = self.field
        coords = [f.add(f.mul(s, a), f.mul(t, b)) for a, b in zip(self.rows[0], self.rows[1])]
        return ProjPoint(f, coords)

    def points(self) -> list[ProjPoint]:
        """All q+1 points, in the fixed (1, t) then (0, 1) parameter order."""
        out = [self.point_at(1, t) for t in self.field.elements()]
        out.append(self.point_at(0, 1))
        return out

    def __eq__(self, other):
        return isinstance(other, Line3) and self.field is other.field and self.rows == other.rows

    def __hash__(self):
        return hash((id(self.field), self.rows))

    def __repr__(self):
        return f"Line3{self.rows}"


def line_through(p: ProjPoint, q: ProjPoint) -> Line3:
    if p == q:
        raise EqualPoints(f"need two distinct points, got {p} twice")
    return Line3(p.field, [p.coords, q.coords])


def skew(l1: Line3, l2: Line3) -> bool:
    """True when the lines do not meet (their four rows span P^3)."""
    mat, _ = rref(l1.field, [*l1.rows, *l2.rows])
    return len(mat) == 4


def line_plane_pencil_basis(line: Line3) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Canonical basis covectors of the planes through a line.

    Kernel vectors of the canonical 2x4 matrix, one per non-pivot column in
    column order, each normalized.
    """
    f = line.field
    mat, pivots = rref(f, line.rows)
    free = [c for c in range(4) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0, 0, 0, 0]
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = f.neg(mat[r][fc])
        basis.append(normalize(f, vec))
    return basis[0], basis[1]


def planes_through_line(line: Line3) -> list[Plane3]:
    """The pencil of q+1 planes containing the line.

    Indexed by P^1 as (1, c) for each field code c, then (0, 1), over the
    canonical kernel basis; the order is part of the contract.
    """
    f = line.field
    n0, n1 = line_plane_pencil_basis(line)
    out = []
    for c in f.elements():
        cov = [f.add(a, f.mul(c, b)) for a, b in zip(n0, n1)]
        out.append(Plane3(f, cov))
    out.append(Plane3(f, n1))
    return out

