import itertools
import random

import pytest

from cubicspan.errors import BudgetExceeded, EqualPoints
from cubicspan.field import make_extension
from cubicspan.projgeo import (
    Line3,
    Plane3,
    ProjPoint,
    dot4,
    line_through,
    planes_through_line,
    rank,
    rref,
    skew,
)

from oracles import (
    count_lines,
    enumerate_lines,
    enumerate_point_tuples,
    lines_in_plane_through,
    meet,
    plane_point_basis,
    plucker,
)

F2 = make_extension(2, 1)
F3 = make_extension(3, 1)
F5 = make_extension(5, 1)


def test_point_normalization():
    f = make_extension(7, 1)
    p = ProjPoint(f, (0, 3, 5, 1))
    assert p.coords == (0, 1, 4, 5)  # scaled by 3^-1 = 5
    assert p == ProjPoint(f, (0, 6, 3, 2))
    with pytest.raises(ValueError):
        ProjPoint(f, (0, 0, 0, 0))


@pytest.mark.parametrize("p, k, coords", [(13, 1, (1, 25, 0, 0)), (13, 1, (1, -1, 0, 0)), (2, 4, (1, 20, 0, 0))])
def test_point_rejects_coordinates_that_are_not_codes(p, k, coords):
    with pytest.raises(ValueError, match=f"not a code in GF\\({p ** k}\\)"):
        ProjPoint(make_extension(p, k), coords)


def test_point_accepts_a_generator():
    f = make_extension(7, 1)
    assert ProjPoint(f, (c for c in (0, 3, 5, 1))) == ProjPoint(f, (0, 1, 4, 5))


def test_point_count_matches_formula():
    for fld in (F2, F3):
        pts = list(enumerate_point_tuples(fld))
        q = fld.q
        assert len(pts) == q**3 + q**2 + q + 1
        assert len(set(pts)) == len(pts)
        # every tuple is normalized
        for t in pts:
            assert next(c for c in t if c) == 1


def test_line_canonicalization_and_equality():
    f = F5
    p = ProjPoint(f, (1, 2, 3, 4))
    q = ProjPoint(f, (0, 1, 1, 1))
    l1 = line_through(p, q)
    r = l1.point_at(2, 3)
    l2 = line_through(r, p)
    assert l1 == l2 and hash(l1) == hash(l2)
    assert l1.contains(q)
    with pytest.raises(EqualPoints):
        line_through(p, ProjPoint(f, tuple(f.mul(2, c) for c in p.coords)))


def test_points_on_line_f2_axis():
    line = Line3(F2, [(1, 0, 0, 0), (0, 1, 0, 0)])
    pts = {p.coords for p in line.points()}
    assert pts == {(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)}


def test_line_counts_small_fields():
    assert count_lines(2) == 35
    assert count_lines(3) == 130
    for fld, expected in ((F2, 35), (F3, 130)):
        lines = list(enumerate_lines(fld))
        assert len(lines) == expected
        assert len(set(lines)) == expected


def test_enumerate_lines_order_and_canonical_form():
    keys = []
    for line in enumerate_lines(F3):
        keys.append(line.rows[0] + line.rows[1])
        # canonical: re-reducing the rows changes nothing
        mat, _ = rref(F3, line.rows)
        assert (tuple(mat[0]), tuple(mat[1])) == line.rows
    assert keys == sorted(keys)


def test_plucker_quadric_identity():
    for line in enumerate_lines(F3):
        p01, p02, p03, p12, p13, p23 = plucker(line)
        val = F3.add(F3.sub(F3.mul(p01, p23), F3.mul(p02, p13)), F3.mul(p03, p12))
        assert val == 0


def test_plucker_distinguishes_lines():
    seen = {}
    for line in enumerate_lines(F3):
        assert plucker(line) not in seen
        seen[plucker(line)] = line


def test_every_line_has_q_plus_one_points():
    for fld in (F2, F3):
        for line in itertools.islice(enumerate_lines(fld), 40):
            pts = line.points()
            assert len(set(pts)) == fld.q + 1
            assert all(line.contains(p) for p in pts)


def test_meet_examples():
    line = Line3(F2, [(1, 0, 0, 0), (0, 1, 0, 0)])
    assert meet(line, Plane3(F2, (1, 0, 0, 0))) == ProjPoint(F2, (0, 1, 0, 0))
    assert meet(line, Plane3(F2, (0, 0, 1, 0))) == "contained"
    f = make_extension(7, 1)
    l2 = Line3(f, [(1, 0, 3, 5), (0, 1, 2, 6)])
    pl = Plane3(f, (2, 1, 0, 4))
    got = meet(l2, pl)
    assert isinstance(got, ProjPoint)
    assert l2.contains(got) and pl.contains(got)


def test_planes_through_line_pencil():
    for fld in (F2, F5):
        line = Line3(fld, [(1, 0, 1, 2 % fld.q), (0, 1, 1, 0)])
        pencil = planes_through_line(line)
        assert len(pencil) == fld.q + 1
        assert len(set(pencil)) == fld.q + 1
        for pl in pencil:
            assert all(pl.contains(p) for p in line.points())
    # over F_2 the pencil is every plane containing the line
    line = Line3(F2, [(1, 0, 0, 0), (0, 1, 0, 0)])
    pencil = set(planes_through_line(line))
    all_planes = [Plane3(F2, c) for c in enumerate_point_tuples(F2)]
    containing = {pl for pl in all_planes if all(pl.contains(p) for p in line.points())}
    assert pencil == containing


def test_skew_matches_point_disjointness():
    lines = list(enumerate_lines(F2))
    rng = random.Random(5)
    for _ in range(200):
        l1, l2 = rng.choice(lines), rng.choice(lines)
        if l1 == l2:
            continue
        disjoint = not ({p.coords for p in l1.points()} & {p.coords for p in l2.points()})
        assert skew(l1, l2) == disjoint


def test_two_lines_meet_in_at_most_one_point():
    lines = list(enumerate_lines(F2))
    for l1, l2 in itertools.combinations(lines, 2):
        common = {p.coords for p in l1.points()} & {p.coords for p in l2.points()}
        assert len(common) <= 1


def test_dot4():
    f = make_extension(13, 1)
    assert dot4(f, (1, 2, 3, 4), (4, 3, 2, 1)) == (4 + 6 + 6 + 4) % 13


def test_plane_point_basis_spans():
    f = make_extension(5, 1)
    pl = Plane3(f, (1, 2, 3, 4))
    basis = plane_point_basis(pl)
    assert len(basis) == 3
    for vec in basis:
        assert dot4(f, pl.covector, vec) == 0
    _, pivots = rref(f, list(basis))
    assert len(pivots) == 3


def test_lines_in_plane_through():
    f = make_extension(5, 1)
    pl = Plane3(f, (1, 2, 3, 4))
    basis = plane_point_basis(pl)
    coords = tuple(f.add(a, b) for a, b in zip(basis[0], basis[1]))
    point = ProjPoint(f, coords)
    assert pl.contains(point)
    pencil = lines_in_plane_through(pl, point)
    assert len(pencil) == f.q + 1
    assert len(set(pencil)) == f.q + 1
    for line in pencil:
        assert line.contains(point)
        assert all(pl.contains(p) for p in line.points())
    with pytest.raises(ValueError):
        lines_in_plane_through(pl, ProjPoint(f, (1, 0, 0, 0)))


@pytest.mark.parametrize("p, k", [(2, 1), (3, 2), (5, 2)])
def test_rank_matches_rref_pivots(p, k):
    f = make_extension(p, k)
    rng = random.Random(f.q)
    for _ in range(60):
        nrows, ncols = rng.randrange(0, 10), rng.randrange(1, 10)
        # rows drawn from the span of a few random rows, so rank deficits occur
        basis = [[rng.randrange(f.q) for _ in range(ncols)] for _ in range(rng.randrange(1, 6))]
        rows = []
        for _ in range(nrows):
            row = [0] * ncols
            for b in basis:
                c = rng.randrange(f.q)
                row = [f.add(x, f.mul(c, y)) for x, y in zip(row, b)]
            rows.append(row)
        assert rank(f, rows) == len(rref(f, rows)[1])
        assert rank(f, iter(rows)) == rank(f, rows[::-1])


def test_rank_refuses_fields_above_the_flat_table_limit():
    with pytest.raises(BudgetExceeded, match="limit"):
        rank(make_extension(257, 1), [[1, 2], [3, 4]])
