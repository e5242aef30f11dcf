from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from cubicspan.errors import PointNotOnSurface
from cubicspan.field import make_extension
from cubicspan.harness import random_smooth_surface
from cubicspan.hsgroup import (
    GroupStructure,
    ZPresentation,
    _difference_classes_generate,
    hs_structure,
    smith_normal_form,
    snf_with_transforms,
    ternary_bound_check,
)
from cubicspan.projgeo import ProjPoint
from cubicspan.span import SpanTable
from cubicspan.surface import (
    CubicForm,
    fermat_cubic,
    lines_on_surface,
)

from oracles import (
    GammaType,
    bareiss_det,
    class_diff,
    gamma_curve,
    hs_free_rank,
    mat_mul,
    point_level_presentation,
    reference_tangent_thirds,
    smith_difference_classes_generate,
    verify_presentation,
)

F5 = make_extension(5, 1)
F7 = make_extension(7, 1)
F13 = make_extension(13, 1)

ONE_LINE_F7 = {
    (0, 0, 0, 3): 4, (0, 0, 3, 0): 2, (0, 1, 0, 2): 4, (0, 1, 1, 1): 1,
    (0, 1, 2, 0): 6, (0, 2, 0, 1): 2, (0, 2, 1, 0): 2, (0, 3, 0, 0): 5,
    (1, 0, 1, 1): 6, (1, 0, 2, 0): 4, (1, 1, 0, 1): 3, (1, 1, 1, 0): 2,
    (1, 2, 0, 0): 5, (2, 0, 0, 1): 3, (2, 1, 0, 0): 5,
}


@pytest.fixture(scope="module")
def fermat5_presentation():
    return ZPresentation(fermat_cubic(F5))


@pytest.fixture(scope="module")
def fermat13_presentation():
    return ZPresentation(fermat_cubic(F13))


def _diag(d):
    return [d[j][j] for j in range(min(len(d), len(d[0]) if d else 0))]


def test_snf_two_by_two():
    u, d, v = smith_normal_form([[2, 0], [0, 3]])
    assert _diag(d) == [1, 6]
    assert mat_mul(u, mat_mul([[2, 0], [0, 3]], v)) == d
    assert bareiss_det(u) in (1, -1)
    assert bareiss_det(v) in (1, -1)


def test_snf_zero_matrix():
    _, d, _ = smith_normal_form([[0, 0, 0], [0, 0, 0]])
    assert d == [[0, 0, 0], [0, 0, 0]]


def test_snf_ragged_input_rejected():
    with pytest.raises(ValueError):
        smith_normal_form([[1, 2], [3]])


@settings(max_examples=60, deadline=None)
@given(
    m=st.lists(
        st.lists(st.integers(-9, 9), min_size=8, max_size=8),
        min_size=6,
        max_size=6,
    )
)
def test_snf_recomposition_and_chain(m):
    u, uinv, d, v, vinv = snf_with_transforms(m)
    assert mat_mul(u, mat_mul(m, v)) == d
    # exact recomposition through the tracked inverses
    assert mat_mul(uinv, mat_mul(d, vinv)) == m
    assert mat_mul(u, uinv) == [[int(i == j) for j in range(6)] for i in range(6)]
    assert mat_mul(v, vinv) == [[int(i == j) for j in range(8)] for i in range(8)]
    diag = _diag(d)
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    for i, row in enumerate(d):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0


def test_presentation_collapses_fermat_f13(fermat13_presentation):
    s = fermat13_presentation.structure
    assert s.points == 261
    assert s.classes == 1
    assert s.relations == 27437
    assert s.h0_trivial
    assert s.invariant_factors == ()
    assert s.h0_free_rank == 0
    assert hs_free_rank(s) == 1
    assert s.h0_dim_mod2 == 0 and s.h0_dim_mod3 == 0


def test_presentation_fermat_f5(fermat5_presentation):
    s = fermat5_presentation.structure
    assert s.points == 31
    assert s.classes == 5
    assert s.relations == 396
    assert s.h0_trivial
    verify_presentation(fermat5_presentation)


def test_tangent_sums_present(fermat5_presentation):
    pres = fermat5_presentation
    table = pres.table
    found = False
    for i in range(len(table.points)):
        for k in table.tangent_thirds[i]:
            if k != i:
                assert tuple(sorted((i, i, k))) in set(pres.sums)
                found = True
    assert found


def test_matrix_rows_have_degree_zero(fermat5_presentation):
    for row in fermat5_presentation.matrix:
        assert sum(row) == 0


def test_hs_structure_wrapper():
    form = CubicForm(F7, ONE_LINE_F7)
    table = SpanTable(form)
    s = hs_structure(form, table=table)
    assert isinstance(s, GroupStructure)
    assert s.classes == 1
    assert s.h0_trivial
    assert s.h0_order_divides_two


def test_class_diff_same_line_vanishes(fermat5_presentation):
    pres = fermat5_presentation
    line = lines_on_surface(pres.form)[0]
    pts = line.points()
    for q in pts[1:]:
        assert class_diff(pres, pts[0], q).is_zero


def test_class_diff_on_nodal_and_cuspidal_sections(fermat5_presentation):
    pres = fermat5_presentation
    form = pres.form
    seen = set()
    for p in pres.points:
        g = gamma_curve(form, p)
        if g.decomposition not in (
            GammaType.IRREDUCIBLE_NODAL,
            GammaType.IRREDUCIBLE_CUSPIDAL,
        ):
            continue
        seen.add(g.decomposition)
        smooth_pts = [q for q in pres.points if g.plane.contains(q) and q != p]
        assert len(smooth_pts) >= 2
        for q in smooth_pts[1:]:
            assert class_diff(pres, smooth_pts[0], q).is_zero
    assert seen == {GammaType.IRREDUCIBLE_NODAL, GammaType.IRREDUCIBLE_CUSPIDAL}


def test_class_arithmetic(fermat5_presentation):
    pres = fermat5_presentation
    a, b = pres.points[0], pres.points[10]
    assert class_diff(pres, a, a).is_zero
    assert (class_diff(pres, a, b) + class_diff(pres, b, a)).is_zero
    assert pres.class_of(a).degree == 1
    assert class_diff(pres, a, b).degree == 0
    assert (pres.class_of(a) - pres.class_of(a)).is_zero
    assert (-pres.class_of(a)).degree == -1


def test_class_rejects_off_surface_point(fermat5_presentation):
    from cubicspan.projgeo import ProjPoint

    with pytest.raises(PointNotOnSurface):
        fermat5_presentation.class_of(ProjPoint(F5, (1, 1, 0, 0)))


def test_cycle_class_constant_over_all_sums(fermat5_presentation):
    pres = fermat5_presentation
    classes = set()
    for x, y, z in pres.sums:
        total = (
            pres.class_of(pres.points[x])
            + pres.class_of(pres.points[y])
            + pres.class_of(pres.points[z])
        )
        assert total.degree == 3
        classes.add(total.vector)
    assert len(classes) == 1


def _mod_p_rank(rows, p):
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    pivot_row = 0
    for c in range(cols):
        pivot = next(
            (r for r in range(pivot_row, len(rows)) if rows[r][c] % p), None
        )
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        inv = pow(rows[pivot_row][c], -1, p)
        rows[pivot_row] = [(x * inv) % p for x in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][c]:
                f = rows[r][c]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        rank += 1
    return rank


@pytest.mark.parametrize("p", [2, 3])
def test_mod_p_dimensions_against_direct_rank(fermat5_presentation, p):
    # independent oracle: dim H0/pH0 = (classes - 1) - rank_p of the
    # relation matrix with one column dropped
    pres = fermat5_presentation
    trimmed = [row[1:] for row in pres.matrix]
    expected = (pres.structure.classes - 1) - _mod_p_rank(trimmed, p)
    got = pres.structure.h0_dim_mod2 if p == 2 else pres.structure.h0_dim_mod3
    assert got == expected


def test_structure_invariant_under_coordinate_permutation():
    base = CubicForm(F7, ONE_LINE_F7)
    perm = (3, 0, 2, 1)
    permuted = CubicForm(
        F7,
        {
            tuple(e[perm[i]] for i in range(4)): c
            for e, c in ONE_LINE_F7.items()
        },
    )
    s1 = hs_structure(base)
    s2 = hs_structure(permuted)
    assert s1 == s2


def test_ternary_bound_fermat_f13(fermat13_presentation):
    report = ternary_bound_check(fermat13_presentation.form, presentation=fermat13_presentation)
    assert report.h0_dim_mod2 == 0
    assert report.h0_dim_mod3 == 0
    assert report.r == 1
    assert report.bound_consistent
    assert report.generates_h0
    assert report.generating_set_size == 1


def test_ternary_bound_f5(fermat5_presentation):
    report = ternary_bound_check(fermat5_presentation.form, presentation=fermat5_presentation)
    assert report.r == 1
    assert report.bound_consistent
    assert report.generates_h0


def test_verify_detects_nothing_on_clean_builds(fermat13_presentation):
    verify_presentation(fermat13_presentation)


# -- the class-space presentation against the point-level oracle --------

F2 = make_extension(2, 1)

#: surfaces whose presentation is compared with the point-level oracle:
#: Fermat GF(5) (5 classes) and GF(13), draws in characteristic 2 and 3,
#: and the one-line acceptance draw over GF(7)
ORACLE_SURFACES = {
    "fermat-5": lambda: fermat_cubic(F5),
    "fermat-13": lambda: fermat_cubic(F13),
    "gf4-seed1": lambda: random_smooth_surface(make_extension(2, 2), 1),
    "gf8-seed2": lambda: random_smooth_surface(make_extension(2, 3), 2),
    "gf16-seed2": lambda: random_smooth_surface(make_extension(2, 4), 2),
    "gf9-seed1": lambda: random_smooth_surface(make_extension(3, 2), 1),
    "gf9-seed3": lambda: random_smooth_surface(make_extension(3, 2), 3),
    "gf7-seed4": lambda: random_smooth_surface(F7, 4),
}


@pytest.mark.parametrize("name", sorted(ORACLE_SURFACES))
def test_presentation_matches_point_level_oracle(name):
    form = ORACLE_SURFACES[name]()
    table = SpanTable(form)
    lines = lines_on_surface(form)
    pres = ZPresentation(form, table=table)
    oracle = point_level_presentation(table, lines)
    sums = pres.sums
    assert sums == oracle["sums"]
    assert len(set(sums)) == len(sums) == pres.sum_count
    assert pres.structure.relations == len(oracle["sums"]) - 1
    assert pres.rep == oracle["rep"]
    assert pres.class_reps == oracle["class_reps"]
    assert pres.matrix == oracle["matrix"]
    verify_presentation(pres)


@pytest.fixture(scope="module")
def torsion_presentation():
    """The GF(2) draw with sampler seed 48: 3 points, 3 classes, H0 = Z/3."""
    return ZPresentation(random_smooth_surface(F2, 48))


def test_torsion_surface_structure_is_pinned(torsion_presentation):
    pres = torsion_presentation
    assert [p.coords for p in pres.points] == [(1, 1, 1, 0), (1, 1, 1, 1), (0, 0, 0, 1)]
    assert pres.structure == GroupStructure(
        points=3,
        classes=3,
        relations=3,
        h0_free_rank=0,
        invariant_factors=(3,),
        h0_dim_mod2=0,
        h0_dim_mod3=1,
        two_torsion_dim=0,
    )
    assert pres.sums == [(0, 0, 0), (0, 1, 2), (1, 1, 1), (2, 2, 2)]
    assert pres.reduced == [[1, -2, 1], [0, 3, -3]]
    verify_presentation(pres)


def test_torsion_surface_classes_are_pinned(torsion_presentation):
    # canonical vectors recorded with the point-level presentation
    pres = torsion_presentation
    classes = {
        (1, 1, 1, 0): ((1, 2), (2, -1)),
        (1, 1, 1, 1): ((1, 1),),
        (0, 0, 0, 1): ((2, 1),),
    }
    diffs = {
        ((1, 1, 1, 0), (1, 1, 1, 1)): ((1, 1), (2, -1)),
        ((1, 1, 1, 0), (0, 0, 0, 1)): ((1, 2), (2, -2)),
        ((1, 1, 1, 1), (1, 1, 1, 0)): ((1, 2), (2, -2)),
        ((1, 1, 1, 1), (0, 0, 0, 1)): ((1, 1), (2, -1)),
        ((0, 0, 0, 1), (1, 1, 1, 0)): ((1, 1), (2, -1)),
        ((0, 0, 0, 1), (1, 1, 1, 1)): ((1, 2), (2, -2)),
    }
    for coords, vector in classes.items():
        cls = pres.class_of(ProjPoint(F2, coords))
        assert (cls.vector, cls.degree) == (vector, 1)
    for (a, b), vector in diffs.items():
        diff = class_diff(pres, ProjPoint(F2, a), ProjPoint(F2, b))
        assert (diff.vector, diff.degree) == (vector, 0)
        assert not diff.is_zero
        # H0 = Z/3: every nonzero difference has order 3
        assert not (diff + diff).is_zero and (diff + diff + diff).is_zero


def _generation_verdicts(pres, bases):
    verdicts = set()
    for base in bases:
        for size in range(4):
            for subset in combinations(pres.points, size):
                got = _difference_classes_generate(pres, base, subset)
                assert got == smith_difference_classes_generate(pres, base, subset)
                verdicts.add(got)
    return verdicts


def test_triangular_generation_matches_smith_form_with_torsion(torsion_presentation):
    # H0 = Z/3: a subset generates exactly when it leaves the base class
    pres = torsion_presentation
    assert _generation_verdicts(pres, pres.points) == {True, False}


def test_triangular_generation_matches_smith_form_on_fermat5(fermat5_presentation):
    # H0 is trivial here, so every subset generates; one base per class
    pres = fermat5_presentation
    bases = [pres.points[i] for i in pres.class_reps]
    assert _generation_verdicts(pres, bases) == {True}


@settings(max_examples=200, deadline=None)
@given(
    width=st.integers(0, 4),
    data=st.data(),
)
def test_triangular_basis_unimodular_test_matches_smith_form(width, data):
    rows = data.draw(
        st.lists(st.lists(st.integers(-4, 4), min_size=width, max_size=width), max_size=6)
    )
    basis = ZPresentation._triangular_basis(rows, width)
    spans = len(basis) == width and all(row[c] == 1 for c, row in enumerate(basis))
    if rows and width:
        d = snf_with_transforms(rows)[2]
        diag = [d[j][j] for j in range(min(len(d), width))]
        expected = len(diag) == width and all(x == 1 for x in diag)
    else:
        expected = width == 0
    assert spans == expected


def test_generation_check_needs_no_smith_form(
    fermat5_presentation, torsion_presentation, monkeypatch
):
    import cubicspan.hsgroup as hsgroup

    def refuse(m):
        raise AssertionError("Smith form computed for the generation check")

    monkeypatch.setattr(hsgroup, "snf_with_transforms", refuse)
    pres = fermat5_presentation
    assert _difference_classes_generate(pres, pres.points[0], pres.points)
    pres = torsion_presentation
    assert not _difference_classes_generate(pres, pres.points[0], pres.points[:1])


# -- the closed-form sum count -------------------------------------------

F3 = make_extension(3, 1)

#: the surfaces whose union-find keeps several classes
SEVERAL_CLASSES = {
    "gf3-seed4": lambda: random_smooth_surface(F3, 4),
    "fermat-5": ORACLE_SURFACES["fermat-5"],
}


@pytest.mark.parametrize("name, points, classes", [("gf3-seed4", 13, 2), ("fermat-5", 31, 5)])
def test_several_classes_take_the_structure_from_the_listed_sums(
    monkeypatch, name, points, classes
):
    listed = []
    listing = ZPresentation._generating_sums

    def counted(self):
        listed.append(self)
        return listing(self)

    monkeypatch.setattr(ZPresentation, "_generating_sums", counted)
    pres = ZPresentation(SEVERAL_CLASSES[name]())
    assert listed == [pres]
    s = pres.structure
    assert (s.points, s.classes) == (points, classes)
    assert s.h0_trivial
    if name == "gf3-seed4":
        assert s.relations == 57
        assert pres.matrix == [[-1, 1], [-2, 2]]
        assert pres.reduced == [[1, -1]]
    verify_presentation(pres)


@pytest.mark.parametrize("name, relations", [("fermat-13", 27437), ("gf7-seed4", 930)])
def test_one_class_lists_no_sum(monkeypatch, name, relations):
    def refuse(self):
        raise AssertionError("generating sums listed for a single class")

    monkeypatch.setattr(ZPresentation, "_generating_sums", refuse)
    form = ORACLE_SURFACES[name]()
    s = hs_structure(form)
    assert (s.classes, s.relations, s.h0_trivial) == (1, relations, True)
    report = ternary_bound_check(form)
    assert report.r == 1 and report.bound_consistent and report.generates_h0


#: GF(2) to GF(25)
CLOSED_FORM_FIELDS = [
    make_extension(p, k)
    for p, k in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1),
                 (13, 1), (2, 4), (17, 1), (19, 1), (23, 1), (5, 2)]
]


def test_closed_forms_match_the_eager_tangent_table():
    """The counts read off the cone root counts and the lines, against the
    same counts taken from every pencil: the tangent entries Q != P at each
    point (their sum is T of ZPresentation._count_sums), the points P with
    3P a generating sum, and the tangent half of SpanTable.spanning_lines.
    Sampler seeds 0-3 and the Fermat form (smooth for p != 3) over every
    field from GF(2) to GF(25)."""
    for f in CLOSED_FORM_FIELDS:
        forms = [random_smooth_surface(f, seed) for seed in range(4)]
        if f.p != 3:
            forms.append(fermat_cubic(f))
        for form in forms:
            table = SpanTable(form)
            n = len(table.points)
            expected = reference_tangent_thirds(table)
            pres = ZPresentation(form, table=table)
            q = f.q
            for i, thirds in enumerate(expected):
                assert q + 1 - table.cone_roots(i) == len(thirds) - thirds.count(i)
            on_lines = {x for idx in table.line_indices for x in idx}
            assert pres._tripled == sorted(
                on_lines.union(i for i, t in enumerate(expected) if i in t))
            table.closure(range(n))  # spans at once and sets spanning_lines
            pair_half = comb(n, 2) - sum(comb(len(idx), 2) for idx in table.line_indices)
            assert table.spanning_lines - pair_half == sum(map(len, expected))


@pytest.mark.parametrize("name, make_form", [
    ("fermat-13", lambda: fermat_cubic(F13)),
    ("gf13-seed6", lambda: random_smooth_surface(F13, 6)),
])
def test_presentation_takes_at_most_half_the_pencils(name, make_form):
    """The union-find takes pencils in point order and stops at one class:
    Fermat GF(13) is one class from its 27 lines alone, and the GF(13) draw
    with two lines needs the pencils of a prefix of its points."""
    table = SpanTable(make_form())
    pres = ZPresentation(table.form, table=table)
    n = len(table.points)
    taken = [i for i, t in enumerate(table._thirds) if t is not None]
    assert len(pres.class_reps) == 1
    assert 2 * len(taken) <= n
    assert taken == list(range(len(taken)))
