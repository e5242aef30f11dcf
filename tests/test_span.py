import hashlib
from array import array
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from cubicspan.errors import (
    BudgetExceeded,
    ConfigurationAbsent,
    HypothesisFailed,
    PointNotOnSurface,
    SingularPoint,
)
from cubicspan import span
from cubicspan.field import make_extension
from cubicspan.harness import random_smooth_surface
from cubicspan.hsgroup import hs_structure
from cubicspan.projgeo import (
    ProjPoint,
    line_through,
    skew,
)
from cubicspan.span import (
    UNSOLVED,
    SpanTable,
    find_skew_pair,
    minimal_generators,
    span_closure,
    surface_points,
    verify_skew_singleton_span,
    verify_span_lemmas,
)
from cubicspan.surface import (
    CubicForm,
    PointKind,
    classify_point,
    fermat_cubic,
    lines_on_surface,
    surface_with_27_lines_over_f64,
    zero_points,
)

from oracles import (
    asymptotic_lines,
    close_before_reading,
    enumerate_lines,
    intersect_line,
    lines_in_plane_through,
    reference_closure,
    reference_pair_table,
    reference_span_lemmas,
    reference_tangent_thirds,
    table_read_verdicts,
    tangent_plane,
)

F2 = make_extension(2, 1)
F4 = make_extension(2, 2)
F5 = make_extension(5, 1)
F7 = make_extension(7, 1)
F9 = make_extension(3, 2)
F13 = make_extension(13, 1)
F16 = make_extension(2, 4)

# smooth over F_7, exactly one rational line (so no skew pair)
ONE_LINE_F7 = {
    (0, 0, 0, 3): 4, (0, 0, 3, 0): 2, (0, 1, 0, 2): 4, (0, 1, 1, 1): 1,
    (0, 1, 2, 0): 6, (0, 2, 0, 1): 2, (0, 2, 1, 0): 2, (0, 3, 0, 0): 5,
    (1, 0, 1, 1): 6, (1, 0, 2, 0): 4, (1, 1, 0, 1): 3, (1, 1, 1, 0): 2,
    (1, 2, 0, 0): 5, (2, 0, 0, 1): 3, (2, 1, 0, 0): 5,
}

# smooth over F_13 with no rational line at all
NO_LINE_F13 = {
    (0, 0, 0, 3): 3, (0, 0, 1, 2): 11, (0, 0, 2, 1): 2, (0, 0, 3, 0): 3,
    (0, 1, 0, 2): 10, (0, 1, 1, 1): 10, (0, 1, 2, 0): 8, (0, 2, 0, 1): 3,
    (0, 2, 1, 0): 5, (0, 3, 0, 0): 4, (1, 0, 0, 2): 2, (1, 0, 1, 1): 2,
    (1, 0, 2, 0): 3, (1, 1, 0, 1): 12, (1, 1, 1, 0): 3, (2, 0, 1, 0): 2,
    (2, 1, 0, 0): 2, (3, 0, 0, 0): 7,
}


@pytest.fixture(scope="module")
def fermat5_table():
    return SpanTable(fermat_cubic(F5))


@pytest.fixture(scope="module")
def fermat13_table():
    return SpanTable(fermat_cubic(F13))


def test_surface_points_order_and_membership():
    form = fermat_cubic(F5)
    pts = surface_points(form)
    assert len(pts) == 31
    assert [p.coords for p in pts] == list(zero_points(form))
    assert all(form.evaluate(p.coords) == 0 for p in pts)


def _cycle_multiset(form, line):
    """The intersection cycle as a coords multiset, or None when it is not
    a sum of three rational points."""
    div = intersect_line(form, line)
    if div.contained or not div.fully_rational:
        return None
    out = Counter()
    for entry in div.entries:
        out[entry.point.coords] += entry.multiplicity
    return out


def test_pair_table_matches_intersection_cycles(fermat5_table):
    table = fermat5_table
    form = table.form
    n = len(table.points)
    pairs = table.pair_third
    checked_secant = checked_contained = 0
    for i in range(n):
        for j in range(i + 1, n):
            k = pairs[i * n + j]
            line = line_through(table.points[i], table.points[j])
            div = intersect_line(form, line)
            if k < 0:
                assert div.contained
                checked_contained += 1
                continue
            expected = Counter(
                [table.points[i].coords, table.points[j].coords, table.points[k].coords]
            )
            assert _cycle_multiset(form, line) == expected
            checked_secant += 1
    assert checked_secant > 0
    assert checked_contained > 0  # the three rational lines contribute pairs


@pytest.mark.parametrize("ext", [None, F4])
def test_pair_table_cross_checked_in_characteristic_two(ext):
    form = surface_with_27_lines_over_f64()
    if ext is not None:
        form = form.embed(ext)
    table = SpanTable(form)
    n = len(table.points)
    assert n == (9 if ext is None else 33)
    pairs = table.pair_third
    for i in range(n):
        for j in range(i + 1, n):
            k = pairs[i * n + j]
            line = line_through(table.points[i], table.points[j])
            if k < 0:
                assert intersect_line(form, line).contained
                continue
            expected = Counter(
                [table.points[i].coords, table.points[j].coords, table.points[k].coords]
            )
            assert _cycle_multiset(form, line) == expected


def test_tables_cross_checked_in_odd_characteristic_extension():
    form = random_smooth_surface(F9, 1)
    table = SpanTable(form)
    pts = table.points
    n = len(pts)
    assert n == 100
    pairs = table.pair_third
    contained = 0
    for i in range(n):
        for j in range(i + 1, n):
            k = pairs[i * n + j]
            assert pairs[j * n + i] == k
            line = line_through(pts[i], pts[j])
            if k < 0:
                assert intersect_line(form, line).contained
                contained += 1
                continue
            expected = Counter([pts[i].coords, pts[j].coords, pts[k].coords])
            assert _cycle_multiset(form, line) == expected
    assert contained > 0
    for i, point in enumerate(pts):
        expected = []
        for line in lines_in_plane_through(tangent_plane(form, point), point):
            cycle = _cycle_multiset(form, line)
            if cycle is None:
                continue  # contained in the surface
            rest = cycle - Counter({point.coords: 2})
            assert sum(rest.values()) == 1
            (third,) = rest
            expected.append(third)
        assert [pts[k].coords for k in table.tangent_thirds[i]] == expected


#: SHA-256 of pair_third.tobytes() and of repr(tangent_thirds), recorded
#: before the table build moved to flat field tables and one solve per secant
TABLE_DIGESTS = [
    (
        lambda: fermat_cubic(F13),
        "77a132d08e3b9355ed2288d15db9e41274eabcfb0715ab1a6ba72c217daf04c5",
        "2f1f86c99f3ea654134e250a1ec1d899fa182d527b798f7d99eb437455ca006a",
    ),
    (
        lambda: random_smooth_surface(make_extension(2, 4), 2),
        "565daa4d240f1b9ddff1b4b22aed793ee498f09dbb72c99d429fdfadf25c047d",
        "3253179d9a116a7f251c03389710d30008db4dbc5b0c05be51016297806b9572",
    ),
    (
        lambda: random_smooth_surface(make_extension(5, 2), 3),
        "48aa4562af3fdce77a1c2ce32eedd51ed71b88b55f6260f7c7b0192e5ae30a7c",
        "308fc8d3ccfa4263833549da0eef3b12cab4e21c25b2670af66f2174fc47e718",
    ),
    (
        lambda: random_smooth_surface(F7, 4),
        "375e5d720df34c64364265a52491cb929f31270e0968a2a8337966c02a6b3973",
        "3ac1d0684ac4b6dff5f69ecf204f4b634539c5aff965bf96ac0a4703393d8216",
    ),
]


@pytest.mark.parametrize(
    "make_form, pair_digest, tangent_digest",
    TABLE_DIGESTS,
    ids=["fermat-gf13", "gf16-s2", "gf25-s3", "gf7-s4"],
)
def test_table_bytes_are_pinned(make_form, pair_digest, tangent_digest):
    table = SpanTable(make_form())
    assert hashlib.sha256(table.pair_third.tobytes()).hexdigest() == pair_digest
    assert hashlib.sha256(repr(table.tangent_thirds).encode()).hexdigest() == tangent_digest


def test_span_checks_solve_at_most_a_quarter_of_the_pairs():
    form = fermat_cubic(F13)
    table = SpanTable(form)
    verify_skew_singleton_span(form, table=table)
    verify_span_lemmas(form, table=table)
    hs_structure(form, table=table)
    n = len(table.points)
    off_diagonal = n * n - n
    assert off_diagonal - _unsolved(table) <= off_diagonal // 4


def test_tangent_thirds_match_pencil_cycles(fermat5_table):
    table = fermat5_table
    form = table.form
    for i, point in enumerate(table.points):
        plane = tangent_plane(form, point)
        expected = Counter()
        for line in lines_in_plane_through(plane, point):
            cycle = _cycle_multiset(form, line)
            if cycle is None:
                continue  # contained in the surface
            assert cycle[point.coords] >= 2
            if cycle[point.coords] == 3:
                third = point.coords
            else:
                (third,) = (cycle - Counter({point.coords: 2})).keys()
            expected[third] += 1
        got = Counter(table.points[k].coords for k in table.tangent_thirds[i])
        assert got == expected


def test_tangent_self_entries_match_asymptotic_census(fermat5_table):
    table = fermat5_table
    form = table.form
    contained = set(lines_on_surface(form))
    for i, point in enumerate(table.points):
        asym = asymptotic_lines(form, point)
        expected = sum(1 for line in asym.lines if line not in contained)
        self_entries = sum(1 for k in table.tangent_thirds[i] if k == i)
        assert self_entries == expected


def test_closure_of_full_surface_is_a_fixpoint(fermat5_table):
    pts = fermat5_table.points
    state = span_closure(fermat5_table.form, pts, table=fermat5_table)
    assert state.rounds == 0
    assert state.added_per_round == (31,)
    assert state.spans_surface
    assert state.points == frozenset(pts)


def test_eckardt_singletons_are_fixed(fermat5_table):
    table = fermat5_table
    form = table.form
    sizes = Counter()
    for p in table.points:
        state = span_closure(form, [p], table=table)
        sizes[len(state.points)] += 1
        if len(state.points) == 1:
            assert classify_point(form, p).kind is PointKind.ECKARDT
    # the six Eckardt points span only themselves; everything else spans S
    assert sizes == Counter({31: 25, 1: 6})


@settings(max_examples=40, deadline=None)
@given(
    a=st.lists(st.integers(0, 30), max_size=6),
    b=st.lists(st.integers(0, 30), max_size=6),
)
def test_closure_monotone_and_idempotent(fermat5_table, a, b):
    table = fermat5_table
    form = table.form
    pts = table.points
    small = [pts[i] for i in a]
    large = small + [pts[i] for i in b]
    if not small:
        return
    s1 = span_closure(form, small, table=table)
    s2 = span_closure(form, large, table=table)
    assert s1.points <= s2.points
    again = span_closure(form, s1.points, table=table)
    assert again.points == s1.points
    assert again.rounds == 0


def test_closure_rule_holds_against_every_line(fermat5_table):
    # literal form of the generating rule: any line (not on S) whose cycle
    # P+Q+R is fully rational and has two points in the closure, counted
    # with multiplicity, has its third point there too
    table = fermat5_table
    form = table.form
    cycles = []
    for line in enumerate_lines(F5):
        cycle = _cycle_multiset(form, line)
        if cycle is not None:
            cycles.append(cycle)
    assert len(cycles) == 268
    closed_sets = []
    for p in table.points:
        state = span_closure(form, [p], table=table)
        if len(state.points) == 1:
            closed_sets.append({q.coords for q in state.points})
    closed_sets.append({q.coords for q in table.points})
    assert len(closed_sets) == 7
    for members in closed_sets:
        for cycle in cycles:
            slots = list(cycle.elements())
            if sum(c in members for c in slots) >= 2:
                assert all(c in members for c in slots)


# Fermat surfaces, the one-line acceptance draw GF(7) seed 4 and the
# skew-stock draw GF(16) seed 2
ORACLE_SURFACES = {
    "fermat5": lambda: fermat_cubic(F5),
    "fermat13": lambda: fermat_cubic(F13),
    "one_line_f7_seed4": lambda: random_smooth_surface(F7, 4),
    "f16_seed2": lambda: random_smooth_surface(F16, 2),
}


@pytest.fixture(scope="module", params=sorted(ORACLE_SURFACES))
def oracle_case(request):
    form = ORACLE_SURFACES[request.param]()
    table = SpanTable(form)
    lines = [
        sorted(table.index[p.coords] for p in line.points())
        for line in lines_on_surface(form)
    ]
    assert lines
    return table, lines


def _closure_outputs(result):
    members, order, rounds, lines = result
    return bytes(members), order, rounds, lines


def _assert_matches_reference(table, seeds):
    expected = reference_closure(table, seeds)
    got = table.closure(seeds)
    assert _closure_outputs(got) == _closure_outputs(expected)
    return got


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_closure_matches_reference(oracle_case, data):
    table, _ = oracle_case
    n = len(table.points)
    seeds = data.draw(st.lists(st.integers(0, n - 1), max_size=6))
    _assert_matches_reference(table, seeds)


def test_closure_matches_reference_on_singletons_and_everything(oracle_case):
    table, lines = oracle_case
    form = table.form
    n = len(table.points)
    eckardt = [
        i for i, p in enumerate(table.points)
        if classify_point(form, p).kind is PointKind.ECKARDT
    ]
    for i in eckardt:
        _, order, _, _ = _assert_matches_reference(table, [i])
        assert len(order) < n  # an Eckardt singleton does not span
    for i in range(0, n, max(1, n // 12)):
        _assert_matches_reference(table, [i])
    _assert_matches_reference(table, lines[0])
    _assert_matches_reference(table, range(n))


def _unsolved(table):
    """The number of pair entries no solve has filled yet."""
    return table._pairs.count(UNSOLVED)


def _brute_force_spanning_lines(table):
    """Tangent entries plus the pairs i < j whose secant has a third point."""
    n = len(table.points)
    pairs = table.pair_third
    return sum(len(t) for t in table.tangent_thirds) + sum(
        1 for i in range(n) for j in range(i + 1, n) if pairs[i * n + j] >= 0
    )


@pytest.mark.parametrize("make_form", [
    lambda: fermat_cubic(F5),
    lambda: fermat_cubic(F13),
], ids=["fermat5", "fermat13"])
def test_spanning_line_count_matches_brute_force(make_form):
    table = SpanTable(make_form())
    assert table.spanning_lines is None  # filled by the first spanning run
    n = len(table.points)
    expected = _brute_force_spanning_lines(table)
    _, order, _, lines = table.closure(range(n))
    assert len(order) == n
    assert lines == expected == table.spanning_lines


@pytest.mark.parametrize("make_form", [
    lambda: fermat_cubic(F5),
    lambda: fermat_cubic(F13),
    lambda: random_smooth_surface(F7, 4),
    lambda: CubicForm(F13, NO_LINE_F13),
], ids=["fermat5", "fermat13", "one_line_f7_seed4", "no_line_f13"])
def test_spanning_line_count_is_closed_form_on_an_unsolved_table(make_form):
    table = SpanTable(make_form())
    n = len(table.points)
    _, order, _, lines = table.closure(range(n))
    assert len(order) == n
    assert _unsolved(table) == n * n - n  # no pair was solved
    assert lines == table.spanning_lines == _brute_force_spanning_lines(table)


class _UnreadablePairs:
    """A stand-in for pair_third that fails on any entry read."""

    def __getitem__(self, key):
        raise AssertionError(f"pair entry {key} read")


def test_closure_of_every_point_reads_no_pair():
    table = SpanTable(fermat_cubic(F5))
    n = len(table.points)
    expected = _brute_force_spanning_lines(table)
    assert table.closure(range(n))[2:] == ((n,), expected)
    table.pair_third = _UnreadablePairs()
    members, order, rounds, lines = table.closure(range(n))
    assert bytes(members) == b"\x01" * n
    assert order == list(range(n))
    assert rounds == (n,)
    assert lines == expected


def test_span_closure_rejects_off_surface_point(fermat5_table):
    outside = ProjPoint(F5, (1, 1, 0, 0))
    with pytest.raises(PointNotOnSurface):
        span_closure(fermat5_table.form, [outside], table=fermat5_table)


def test_duplicate_seeds_collapse(fermat5_table):
    p = fermat5_table.points[0]
    state = span_closure(fermat5_table.form, [p, p, p], table=fermat5_table)
    assert state.added_per_round[0] == 1


def test_single_point_spans_fermat_f13(fermat13_table):
    table = fermat13_table
    form = table.form
    assert len(table.points) == 261
    seed = ProjPoint(F13, (1, 1, 4, 4))
    assert classify_point(form, seed).kind is not PointKind.ECKARDT
    state = span_closure(form, [seed], table=table)
    assert state.spans_surface
    assert state.added_per_round[0] == 1
    assert sum(state.added_per_round) == 261


def test_explicit_skew_pair_spans_from_every_line_point(fermat13_table):
    table = fermat13_table
    form = table.form
    ell = line_through(ProjPoint(F13, (1, 12, 0, 0)), ProjPoint(F13, (0, 0, 1, 12)))
    ell2 = line_through(ProjPoint(F13, (1, 4, 0, 0)), ProjPoint(F13, (0, 0, 1, 4)))
    on_surface = set(lines_on_surface(form))
    assert ell in on_surface and ell2 in on_surface
    assert skew(ell, ell2)
    report = verify_skew_singleton_span(form, table=table, pair=(ell, ell2))
    assert report.all_span
    assert report.failures == ()
    # each of the 14 points per line carries 2 Eckardt points
    assert report.points_checked == 24
    assert report.eckardt_skipped == 4


def test_default_skew_pair_report(fermat13_table):
    report = verify_skew_singleton_span(fermat13_table.form, table=fermat13_table)
    assert skew(*report.pair)
    assert report.all_span


def test_minimal_generators_fermat_f13(fermat13_table):
    result = minimal_generators(fermat13_table.form, table=fermat13_table)
    assert result.r == 1
    assert not result.exceeded
    (witness,) = result.witness
    state = span_closure(fermat13_table.form, [witness], table=fermat13_table)
    assert state.spans_surface
    assert result.closures_run >= 1


def test_minimal_generators_budget(fermat13_table, monkeypatch):
    monkeypatch.setattr(span, "GENERATOR_CLOSURE_BUDGET", 100)
    with pytest.raises(BudgetExceeded):
        minimal_generators(fermat13_table.form, table=fermat13_table)


def test_minimal_generators_exceeds_r_max(fermat5_table, monkeypatch):
    monkeypatch.setattr(span, "GENERATOR_SIZE_LIMIT", 0)
    result = minimal_generators(fermat5_table.form, table=fermat5_table)
    assert result.r is None
    assert result.exceeded
    assert result.witness == ()


def test_span_lemmas_fermat_f13(fermat13_table):
    report = verify_span_lemmas(fermat13_table.form, table=fermat13_table)
    assert report.line_in_point_span is True
    assert report.skew_line_span is True
    assert report.skew_union_spans_surface is True
    assert report.counterexample is None
    assert report.all_passed
    # 27 lines x 12 non-Eckardt points; 216 skew pairs, both directions
    assert report.line_in_point_span_checked == 324
    assert report.skew_line_span_checked == 432
    assert report.skew_union_checked == 216


# Fermat over GF(13) and the criterion-3 skew-stock draws with q >= 13
LEMMA_SURFACES = {
    "fermat13": lambda: fermat_cubic(F13),
    "f13_seed6": lambda: random_smooth_surface(F13, 6),
    "f17_seed5": lambda: random_smooth_surface(make_extension(17, 1), 5),
    "f19_seed6": lambda: random_smooth_surface(make_extension(19, 1), 6),
    "f25_seed3": lambda: random_smooth_surface(make_extension(5, 2), 3),
    "f16_seed2": lambda: random_smooth_surface(F16, 2),
}


@pytest.mark.parametrize("name", sorted(LEMMA_SURFACES))
def test_span_lemmas_match_reference(name):
    form = LEMMA_SURFACES[name]()
    table = SpanTable(form)
    report = verify_span_lemmas(form, table=table)
    assert report.all_passed
    assert report.skew_union_checked >= 1
    assert report == reference_span_lemmas(form, table)


def test_span_lemmas_fail_on_a_blank_table():
    form = fermat_cubic(F13)
    table = SpanTable(form)
    n = len(table.points)
    table.pair_third = array("i", [-1]) * (n * n)
    table.tangent_thirds = [()] * n
    report = verify_span_lemmas(form, table=table)
    assert report.line_in_point_span is False
    assert report.skew_line_span is False
    assert report.skew_union_spans_surface is False
    # lemma A reports its first failure, not its last
    assert report.counterexample == (
        "line Line3((1, 0, 0, 4), (0, 1, 4, 0)) not inside span of ProjPoint(1, 1, 4, 4)"
    )
    assert report == reference_span_lemmas(form, table)


def test_span_lemmas_close_each_seed_set_once(fermat13_table, monkeypatch):
    calls = []
    closure = SpanTable.closure

    def counting(self, seeds, spanning=None):
        result = closure(self, seeds, spanning)
        calls.append((tuple(seeds), len(result[1])))
        return result

    monkeypatch.setattr(SpanTable, "closure", counting)
    verify_span_lemmas(fermat13_table.form, table=fermat13_table)
    seed_sets = [seeds for seeds, _ in calls]
    # 243 non-Eckardt line points, 27 lines and 216 skew unions
    assert len(seed_sets) == 486
    assert sum(len(c) == 1 for c in seed_sets) == 243
    assert len(set(seed_sets)) == len(seed_sets)
    # only the first closure reaches every point; each later one stops at
    # a point already shown to span
    assert [size for _, size in calls].count(len(fermat13_table.points)) == 1


def _blank_points(table, blanked):
    """Drop every pair and tangent entry at the given point indices."""
    n = len(table.points)
    pairs = array("i", table.pair_third)
    for i in blanked:
        for j in range(n):
            pairs[i * n + j] = pairs[j * n + i] = -1
    table.pair_third = pairs
    table.tangent_thirds = [() if i in blanked else t for i, t in enumerate(table.tangent_thirds)]


def test_span_lemmas_match_reference_when_only_some_closures_span():
    form = fermat_cubic(F13)
    table = SpanTable(form)
    # the last line, whose Eckardt points lie on lines that are closed
    # first, and a line skew to it
    last = lines_on_surface(form)[-1]
    other = next(line for line in lines_on_surface(form) if skew(line, last))
    _blank_points(table, {table.index[p.coords] for line in (last, other) for p in line.points()})
    report = verify_span_lemmas(form, table=table)
    assert report == reference_span_lemmas(form, table)
    # the blanked lines fail each lemma, and other seed sets still span
    assert (report.line_in_point_span, report.skew_line_span, report.skew_union_spans_surface) == (
        False, False, False,
    )
    n = len(table.points)
    assert any(len(table.closure([i])[1]) == n for i in range(n))


# GF(2) draws on which some checked points span and others do not
MIXED_SKEW_SURFACES = {
    **{f"f2_seed{s}": (lambda s=s: random_smooth_surface(F2, s)) for s in (0, 114, 143, 171)},
    "fermat13": lambda: fermat_cubic(F13),
    "fermat19": lambda: fermat_cubic(make_extension(19, 1)),
}


@pytest.mark.parametrize("name", sorted(MIXED_SKEW_SURFACES))
def test_skew_singleton_report_matches_per_point_reference(name):
    form = MIXED_SKEW_SURFACES[name]()
    table = SpanTable(form)
    n = len(table.points)
    report = verify_skew_singleton_span(form, table=table)
    checked, skipped, failures, seen = 0, 0, [], set()
    for line in report.pair:
        for p in line.points():
            i = table.index[p.coords]
            if i in seen:
                continue
            seen.add(i)
            if classify_point(form, p).kind is PointKind.ECKARDT:
                skipped += 1
                continue
            checked += 1
            if len(reference_closure(table, [i])[1]) != n:
                failures.append(p)
    assert report == span.SkewSingletonReport(
        report.pair, checked, skipped, not failures, tuple(failures)
    )
    if form.field.q == 2:
        assert 0 < len(failures) < checked


# the surfaces above and small-field draws; the GF(3) draw with seed 4
# and Fermat GF(5) keep several classes
TABLE_READ_SURFACES = {
    **ORACLE_SURFACES,
    **MIXED_SKEW_SURFACES,
    "f2_seed48": lambda: random_smooth_surface(F2, 48),
    "f3_seed4": lambda: random_smooth_surface(make_extension(3, 1), 4),
    "f4_seed1": lambda: random_smooth_surface(F4, 1),
    "f8_seed2": lambda: random_smooth_surface(make_extension(2, 3), 2),
    "f9_seed1": lambda: random_smooth_surface(F9, 1),
    "f9_seed3": lambda: random_smooth_surface(F9, 3),
}


def test_table_reads_agree_with_geometry():
    """The sum count, the Eckardt read and the skew read of the span table
    against the listed sums, is_eckardt and projgeo.skew."""
    classes, eckardt, skews = set(), set(), set()
    for name in sorted(TABLE_READ_SURFACES):
        form = TABLE_READ_SURFACES[name]()
        table = SpanTable(form)
        lines = lines_on_surface(form)
        r, eck, sk = table_read_verdicts(form, table, lines)
        classes.add(r)
        eckardt |= eck
        skews |= set(sk)
        if form.field.q >= 13:
            # verify_span_lemmas closes one union per skew pair
            assert verify_span_lemmas(form, table=table).skew_union_checked == sk[True]
    assert 1 in classes and max(classes) > 1
    assert eckardt == skews == {True, False}

def test_flagged_run_is_a_prefix_of_the_full_run(oracle_case):
    table, lines = oracle_case
    n = len(table.points)
    spanning = bytearray(n)
    for i in range(0, n, 3):
        spanning[i] = len(reference_closure(table, [i])[1]) == n
    for seeds in [[i] for i in range(n)] + lines:
        full_members, full_order, _, _ = reference_closure(table, seeds)
        members, order, rounds, lines_read = table.closure(seeds, spanning)
        assert order == full_order[: len(order)]
        assert bytes(members) == bytes(1 if i in order else 0 for i in range(n))
        assert sum(rounds) == len(order)
        if any(spanning[i] for i in seeds):
            # a flagged seed stops the run before it reads an entry
            assert (order, rounds, lines_read) == (list(dict.fromkeys(seeds)), (len(order),), 0)
        elif any(spanning[i] for i in order) and len(order) < n:
            # the run stops at the first flagged member it adds
            assert [i for i in order if spanning[i]] == [order[-1]]
        else:
            assert (bytes(members), order) == (bytes(full_members), full_order)


def test_span_lemmas_require_thirteen_elements():
    with pytest.raises(HypothesisFailed):
        verify_span_lemmas(fermat_cubic(F5))


def test_no_rational_line_reported_absent():
    form = CubicForm(F13, NO_LINE_F13)
    assert lines_on_surface(form) == []
    with pytest.raises(ConfigurationAbsent):
        verify_span_lemmas(form)
    with pytest.raises(ConfigurationAbsent):
        find_skew_pair(form)


def test_one_line_surface_has_no_skew_pair():
    form = CubicForm(F7, ONE_LINE_F7)
    assert len(lines_on_surface(form)) == 1
    with pytest.raises(ConfigurationAbsent):
        find_skew_pair(form)
    table = SpanTable(form)
    assert len(table.points) == 57
    # every singleton still spans this surface
    state = span_closure(form, [table.points[0]], table=table)
    assert state.spans_surface


def test_pair_table_budget(fermat5_table, monkeypatch):
    monkeypatch.setattr(span, "PAIR_TABLE_BUDGET", 100)
    with pytest.raises(BudgetExceeded):
        SpanTable(fermat5_table.form)


def test_table_refuses_a_surface_singular_only_over_an_extension():
    # test_surface's form whose only singular points are a Galois-conjugate
    # triple over F_{13^3}: every rational gradient is nonzero
    form = CubicForm(F13, {
        (3, 0, 0, 0): 1, (0, 3, 0, 0): 11, (0, 0, 3, 0): 4, (0, 0, 0, 3): 1,
        (1, 1, 1, 0): 6, (2, 0, 0, 1): 3, (0, 1, 1, 1): 6,
    })
    assert all(any(form.gradient(c)) for c in zero_points(form))
    for build in (SpanTable, hs_structure, verify_span_lemmas):
        with pytest.raises(SingularPoint, match="extension"):
            build(form)


def test_table_refuses_a_field_above_the_flat_limit_before_scanning(monkeypatch):
    def no_scan(form):
        raise AssertionError("zero_points ran")

    monkeypatch.setattr(span, "zero_points", no_scan)
    with pytest.raises(BudgetExceeded):
        SpanTable(fermat_cubic(make_extension(257, 1)))


@pytest.mark.parametrize("p", [47, 251])
def test_table_refuses_a_smooth_surface_too_large_for_the_budget_before_scanning(p, monkeypatch):
    # a smooth cubic surface has at least (q - 1)^2 points, and (q - 1)^4
    # exceeds PAIR_TABLE_BUDGET from q = 47 on
    def no_scan(form):
        raise AssertionError("zero_points ran")

    monkeypatch.setattr(span, "zero_points", no_scan)
    with pytest.raises(BudgetExceeded, match="has at least"):
        SpanTable(fermat_cubic(make_extension(p, 1)))


# every surface the tests above build a table on, but for those of the
# acceptance stock, whose tables test_acceptance checks the same way
STOCK = {
    "fermat13", "f13_seed6", "f16_seed2", "f17_seed5", "f19_seed6", "f25_seed3",
    "one_line_f7_seed4",
}
PAIR_SURFACES = {
    **{
        name: make
        for name, make in {**TABLE_READ_SURFACES, **LEMMA_SURFACES}.items()
        if name not in STOCK
    },
    "f64_split": surface_with_27_lines_over_f64,
    "f64_split_over_f4": lambda: surface_with_27_lines_over_f64().embed(F4),
    "one_line_f7": lambda: CubicForm(F7, ONE_LINE_F7),
    "no_line_f13": lambda: CubicForm(F13, NO_LINE_F13),
}


@pytest.mark.parametrize("name", sorted(PAIR_SURFACES))
def test_pair_table_matches_the_eager_fill(name):
    """pair_third read on a fresh table, and on one whose closures solved
    some pairs first, against every pair solved in row order."""
    form = PAIR_SURFACES[name]()
    fresh = SpanTable(form)
    expected = reference_pair_table(fresh)
    assert fresh.pair_third == expected
    table = SpanTable(form)
    close_before_reading(table)
    n = len(table.points)
    if form.field.q >= 13:
        assert 0 < _unsolved(table) < n * n - n  # the fill starts part-way
    assert table.pair_third == expected


def _pencils_taken(table):
    """The number of points whose tangent pencil has been taken."""
    return sum(t is not None for t in table._thirds)


@pytest.mark.parametrize("name", sorted(PAIR_SURFACES))
def test_tangent_table_matches_the_eager_pass(name):
    """tangent_thirds read on a fresh table, and on one whose closures and
    presentation took some pencils first, against every pencil taken in
    point order."""
    form = PAIR_SURFACES[name]()
    fresh = SpanTable(form)
    expected = reference_tangent_thirds(fresh)
    assert fresh.tangent_thirds == expected
    table = SpanTable(form)
    close_before_reading(table)
    hs_structure(form, table=table)
    n = len(table.points)
    if form.field.q >= 13:
        assert 0 < _pencils_taken(table) < n  # the fill starts part-way
    assert table.tangent_thirds == expected


def test_building_a_table_takes_no_pencil_and_solves_no_pair(monkeypatch):
    def refuse(*args):
        raise AssertionError("tangent cone or pencil taken")

    monkeypatch.setattr(span, "_tangent_cone", refuse)
    monkeypatch.setattr(SpanTable, "_pencil", refuse)
    table = SpanTable(fermat_cubic(F13))
    n = len(table.points)
    assert _unsolved(table) == n * n - n
    assert _pencils_taken(table) == 0
