"""Acceptance gate: one test per shipped claim, budgets pinned in seconds.

Every surface below is reproducible from its recorded seed, so the counts
asserted here are exact rather than tolerant.  The module is ordered so
that fixtures shared between criteria are built once.
"""

import random
import time
from collections import Counter
from itertools import combinations

import pytest

from cubicspan.errors import BudgetExceeded
from cubicspan.field import is_prime, make_extension
from cubicspan.harness import random_smooth_surface
from cubicspan.hsgroup import hs_structure, snf_with_transforms
from cubicspan.planecubic import (
    base_point,
    curve_points,
    group_add,
    group_neg,
    is_cube,
    pic_mod,
    two_division_check,
)
from cubicspan.projgeo import planes_through_line, skew
from cubicspan.reduction import (
    good_parametrization,
    point_search,
    rank_lower_bound,
    reduce_to_curve,
    reduction_coverage,
    verify_line_relation,
)
from cubicspan.span import (
    SpanTable,
    minimal_generators,
    span_closure,
    verify_skew_singleton_span,
)
from cubicspan.surface import (
    eckardt_points,
    fermat_cubic,
    lines_on_surface,
    surface_with_27_lines_over_f64,
)

from oracles import (
    close_before_reading,
    reference_pair_table,
    reference_tangent_thirds,
    table_read_verdicts,
)

# Seeds drawn through random_smooth_surface until the sampled surface has
# a rational skew line pair (left column) or exactly one rational line
# (below).  Five surfaces per field, the Fermat surface making the fifth
# over F_13.
SKEW_STOCK = (
    ((13, 1), (6, 8, 12, 16)),
    ((2, 4), (2, 20, 38, 39, 46)),
    ((17, 1), (5, 6, 9, 21, 25)),
    ((19, 1), (6, 9, 16, 27, 37)),
    ((5, 2), (3, 26, 29, 30, 33)),
)

ONE_LINE_STOCK = (
    ((7, 1), (4, 10, 17, 19, 24)),
    ((13, 1), (0, 1, 2, 4, 5)),
)

# Secants through the first points in canonical order already reach both
# reduction branches over S_31: the cone vertex (0:0:0:1) sorts first, so
# its secants reduce into lines through the vertex.
S31_POINT_PREFIX = 60


def _common_plane(line, other):
    for plane in planes_through_line(line):
        if plane.contains(other.rows[0]) and plane.contains(other.rows[1]):
            return plane.covector
    raise AssertionError("meeting lines must span a plane")


@pytest.fixture(scope="module")
def split_lines():
    start = time.perf_counter()
    form = surface_with_27_lines_over_f64()
    lines = lines_on_surface(form, extension=6)
    lifted = form.embed(lines[0].field)
    return {
        "form": lifted,
        "lines": lines,
        "scan_seconds": time.perf_counter() - start,
    }


@pytest.fixture(scope="module")
def skew_surfaces():
    out = []
    for (p, k), seeds in SKEW_STOCK:
        field = make_extension(p, k)
        labelled = [("fermat", fermat_cubic(field))] if (p, k) == (13, 1) else []
        labelled.extend(
            (f"seed {s}", random_smooth_surface(field, s)) for s in seeds
        )
        for label, form in labelled:
            start = time.perf_counter()
            table = SpanTable(form)
            report = verify_skew_singleton_span(form, table=table)
            elapsed = time.perf_counter() - start
            out.append(
                {
                    "q": field.q,
                    "label": label,
                    "form": form,
                    "table": table,
                    "report": report,
                    "seconds": elapsed,
                    "structure": hs_structure(form, table=table),
                }
            )
    return out


@pytest.fixture(scope="module")
def one_line_surfaces():
    out = []
    for (p, k), seeds in ONE_LINE_STOCK:
        field = make_extension(p, k)
        for s in seeds:
            form = random_smooth_surface(field, s)
            lines = lines_on_surface(form)
            table = SpanTable(form)
            out.append(
                {
                    "q": field.q,
                    "seed": s,
                    "lines": lines,
                    "form": form,
                    "table": table,
                    "structure": hs_structure(form, table=table, lines=lines),
                }
            )
    return out


def test_criterion_1_split_surface_has_27_lines_in_coplanar_pairs(split_lines):
    """The char-2 example splits over F_64: 27 lines, each meeting ten
    others two per plane across five planes."""
    lines = split_lines["lines"]
    assert len(lines) == 27
    start = time.perf_counter()
    for i, line in enumerate(lines):
        met = [other for j, other in enumerate(lines) if j != i and not skew(line, other)]
        assert len(met) == 10
        by_plane = Counter(_common_plane(line, other) for other in met)
        assert sorted(by_plane.values()) == [2, 2, 2, 2, 2]
    elapsed = split_lines["scan_seconds"] + time.perf_counter() - start
    assert elapsed <= 600.0


def test_criterion_2_split_surface_eckardt_census(split_lines):
    """13 Eckardt points; three lines carry five apiece, 24 exactly one."""
    points = eckardt_points(split_lines["form"])
    assert len(points) == 13
    per_line = Counter(
        sum(1 for p in points if line.contains(p)) for line in split_lines["lines"]
    )
    assert per_line == Counter({1: 24, 5: 3})


def test_criterion_3_skew_pair_singletons_span_everywhere(skew_surfaces):
    """On five surfaces per field with a rational skew pair, every
    non-Eckardt point of either line spans the whole point set alone."""
    per_field = Counter(s["q"] for s in skew_surfaces)
    assert per_field == Counter({13: 5, 16: 5, 17: 5, 19: 5, 25: 5})
    assert any(s["label"] == "fermat" and s["q"] == 13 for s in skew_surfaces)
    for s in skew_surfaces:
        report = s["report"]
        assert report.points_checked > 0
        assert report.all_span
        assert report.failures == ()
        assert s["seconds"] <= 60.0


def test_criterion_4_h0_vanishes_or_is_two_torsion(skew_surfaces, one_line_surfaces):
    """H0 is trivial alongside a skew pair; with exactly one rational
    line every element still has order dividing two."""
    for s in skew_surfaces:
        assert s["structure"].h0_trivial
    assert len(one_line_surfaces) == 10
    for s in one_line_surfaces:
        assert len(s["lines"]) == 1
        assert s["structure"].h0_order_divides_two


def test_stock_pair_tables_match_the_eager_fill(skew_surfaces, one_line_surfaces):
    """On the criterion-3 and criterion-4 stock, pair_third equals every
    pair solved in row order: read on the fixture's tables once closures
    have solved some of their pairs, and read on fresh tables."""
    for s in skew_surfaces + one_line_surfaces:
        expected = reference_pair_table(s["table"])
        close_before_reading(s["table"])
        assert s["table"].pair_third == expected
        assert SpanTable(s["form"]).pair_third == expected


def test_stock_tangent_tables_match_the_eager_pass(skew_surfaces, one_line_surfaces):
    """On the criterion-3 and criterion-4 stock, tangent_thirds equals every
    pencil taken in point order: read on the fixture's tables, whose skew
    check and presentation took some pencils first, and on fresh tables."""
    for s in skew_surfaces + one_line_surfaces:
        expected = reference_tangent_thirds(s["table"])
        assert s["table"].tangent_thirds == expected
        assert SpanTable(s["form"]).tangent_thirds == expected


def test_stock_presentations_count_the_sums_they_would_list(skew_surfaces, one_line_surfaces):
    """On the criterion-3 and criterion-4 stock the closed-form sum count,
    the Eckardt read and the skew read of the span table agree with the
    listed sums, is_eckardt and projgeo.skew, and one class remains."""
    for s in skew_surfaces + one_line_surfaces:
        classes, _, _ = table_read_verdicts(s["form"], s["table"], lines_on_surface(s["form"]))
        assert classes == 1


def test_criterion_5_generator_count_dominates_h0_dimensions(
    skew_surfaces, one_line_surfaces
):
    """Wherever the exhaustive generator search completes, its r bounds
    dim H0/pH0 from above for p in {2, 3}."""
    completed = 0
    for s in skew_surfaces + one_line_surfaces:
        try:
            found = minimal_generators(s["form"], table=s["table"])
        except BudgetExceeded:
            continue
        if found.r is None:
            continue
        completed += 1
        assert found.r >= s["structure"].h0_dim_mod2
        assert found.r >= s["structure"].h0_dim_mod3
    assert completed == len(skew_surfaces) + len(one_line_surfaces)


def test_criterion_6_picard_quotient_sweep_to_200():
    """For p = 1 mod 3 the cubic's Pic0/3 is (Z/3)^2 with every class a
    point class; with 2 also a cube the same holds mod 2; the splitting
    of 4x^3 - 27 tracks exactly the conjunction.  Whole sweep inside 10s."""
    start = time.perf_counter()
    for p in (n for n in range(5, 201) if is_prime(n)):
        if p % 3 == 1:
            quotient = pic_mod(p, 3)
            assert quotient.dim == 2
            covered = {
                quotient.coordinates(quotient.class_of(pt)) for pt in curve_points(p)
            }
            assert len(covered) == 9
            if is_cube(p, 2):
                quotient = pic_mod(p, 2)
                assert quotient.dim == 2
                covered = {
                    quotient.coordinates(quotient.class_of(pt))
                    for pt in curve_points(p)
                }
                assert len(covered) == 4
        assert two_division_check(p) == (p % 3 == 1 and is_cube(p, 2))
    assert time.perf_counter() - start <= 10.0


def _secant_cycle_sweep(family, m, p, height, prefix=None):
    points = point_search(family, m, height)
    if prefix is not None:
        points = points[:prefix]
    params = {}
    for a, b in combinations(points, 2):
        par = good_parametrization(a.coords, b.coords)
        params.setdefault((par.u, par.v), par)
    branches = Counter()
    failures = []
    on_surface = 0
    for par in params.values():
        try:
            report = verify_line_relation(par, family, m, p)
        except ValueError:
            # the secant lies on the surface; it cuts out no cycle
            on_surface += 1
            continue
        branches[report.branch] += 1
        if not report.relation_holds:
            failures.append((par.u, par.v))
    return len(params), branches, on_surface, failures


def test_criterion_7_cycle_relations_hold_on_both_branches():
    """Every secant cycle found at height 200 sums to zero in the Picard
    quotient, through good and bad reduction alike, on both families."""
    total, branches, on_surface, failures = _secant_cycle_sweep(
        "S_M", 31, 31, 200, prefix=S31_POINT_PREFIX
    )
    assert failures == []
    assert total == 484
    assert branches == Counter({"transverse": 478, "contained": 5})
    assert on_surface == 1

    total, branches, on_surface, failures = _secant_cycle_sweep(
        "Sprime_M", 93, 31, 200
    )
    assert failures == []
    assert total == 532
    assert branches == Counter({"transverse": 526, "contained": 6})
    assert on_surface == 0


def test_criterion_8_reduction_coverage_and_rank_at_height_500():
    """Classes reached by liftable curve points all lie in the image of
    the reduction class map, and that image is non-constant."""
    points = point_search("S_M", 31, 500)
    coverage = reduction_coverage(points, 31)
    print(
        f"curve coverage at height 500: {coverage.hit}/{coverage.total}"
        f" = {100 * float(coverage.fraction):.1f}%"
    )
    missed = set(coverage.missed)
    quotient = pic_mod(31, 2)
    liftable_classes = {
        quotient.coordinates(quotient.class_of(q))
        for q in curve_points(31)
        if q not in missed
    }
    # a reduction depends only on (x, y, z) mod 31: reduce one point per residue
    residues = {}
    for pt in points:
        x, y, z, _ = pt.coords
        residues.setdefault((x % 31, y % 31, z % 31), pt)
    image = set()
    for pt in residues.values():
        reduced = reduce_to_curve(pt, 31)
        if reduced.point is not None:
            image.add(quotient.coordinates(quotient.class_of(reduced.point)))
    assert liftable_classes <= image
    bound = rank_lower_bound("S_M", [31], points)
    assert bound.target_dim == 2
    assert bound.achieved_dim >= 1


def test_criterion_9_closure_snf_and_group_axioms(skew_surfaces):
    """Span closure is monotone and idempotent, Smith recomposition is
    exact, and the curve group law satisfies the axioms exhaustively."""
    fermat = next(s for s in skew_surfaces if s["label"] == "fermat")
    form, table = fermat["form"], fermat["table"]
    rng = random.Random(90)
    n = len(table.points)
    for _ in range(10):
        big = rng.sample(range(n), rng.randrange(1, 5))
        small = rng.sample(big, rng.randrange(1, len(big) + 1))
        closure_small = span_closure(form, [table.points[i] for i in small], table=table)
        closure_big = span_closure(form, [table.points[i] for i in big], table=table)
        assert closure_small.points <= closure_big.points
        again = span_closure(form, list(closure_small.points), table=table)
        assert again.points == closure_small.points
        assert again.rounds == 0

    def matmul(a, b):
        return [
            [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))
        ]

    shapes = [(1, 1), (2, 4), (3, 3), (3, 5), (4, 4), (5, 3)]
    for idx, (rows, cols) in enumerate(shapes):
        entries = [
            [0 if idx == 0 else rng.randrange(-9, 10) for _ in range(cols)]
            for _ in range(rows)
        ]
        u, u_inv, d, v, v_inv = snf_with_transforms(entries)
        assert matmul(matmul(u, entries), v) == d
        assert matmul(matmul(u_inv, d), v_inv) == entries

    for p in (n for n in range(2, 32) if is_prime(n) and n != 3):
        cps = curve_points(p)
        origin = base_point(p)
        for a in cps:
            assert group_add(a, origin) == a
            assert group_add(a, group_neg(a)) == origin
        for a in cps:
            for b in cps:
                ab = group_add(a, b)
                assert ab == group_add(b, a)
                for c in cps:
                    assert group_add(ab, c) == group_add(a, group_add(b, c))
