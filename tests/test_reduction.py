"""Tests for surface-point reduction, line relations, and the rank pipeline."""

import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cubicspan.errors import (
    AllZero,
    BadPrime,
    BudgetExceeded,
    ConstantsUnavailable,
    EqualPoints,
    FamilyMismatch,
    HypothesisFailed,
    NotFullyRational,
    NotPrime,
    PrimeConditionFailed,
)
from cubicspan.field import is_prime
from cubicspan.reduction import (
    FAMILY_S,
    FAMILY_SPRIME,
    _binary_cubic_roots,
    _family_form,
    base_surface_point,
    family_tag,
    form_value,
    good_parametrization,
    line_cycle,
    newton_polygon,
    point_search,
    rank_bound_m,
    rank_lower_bound,
    reduce_to_curve,
    reduction_class,
    reduction_coverage,
    surface_point,
    verify_line_relation,
)
from oracles import (
    del_pezzo_line_check,
    find_del_pezzo_prime,
    full_point_search,
    line_coordinates,
    line_on_del_pezzo,
    per_point_coverage,
    per_point_rank_bound,
    positive_slope_segments,
    sieve_binary_cubic_roots,
    snf_good_parametrization,
)


@pytest.fixture(scope="module")
def pts31():
    return point_search(FAMILY_S, 31, 10)


@pytest.fixture(scope="module")
def pts93():
    return point_search(FAMILY_SPRIME, 93, 20)


def test_family_tags():
    assert family_tag("S") == FAMILY_S
    assert family_tag("Sprime") == FAMILY_SPRIME
    assert family_tag("S'_M") == FAMILY_SPRIME
    with pytest.raises(FamilyMismatch):
        family_tag("T_M")


def test_form_values():
    assert form_value(FAMILY_S, 31, (-6, -4, 5, 1)) == 0
    assert form_value(FAMILY_S, 31, (1, 1, 1, 1)) == 3 + 31
    assert form_value(FAMILY_SPRIME, 93, (5, -7, 5, 1)) == 0


def test_surface_point_canonicalization():
    a = surface_point(FAMILY_S, 31, (-6, -4, 5, 1))
    b = surface_point(FAMILY_S, 31, (12, 8, -10, -2))
    assert a == b
    assert a.coords == (6, 4, -5, -1)
    with pytest.raises(ValueError):
        surface_point(FAMILY_S, 31, (1, 1, 1, 1))
    with pytest.raises(ValueError):
        surface_point(FAMILY_S, 31, (0, 0, 0, 0))
    with pytest.raises(ValueError):
        surface_point(FAMILY_S, 31, (1, -1, 0))


def test_base_point_on_both_families():
    assert base_surface_point(FAMILY_S, 31).coords == (1, -1, 0, 0)
    assert base_surface_point(FAMILY_SPRIME, 93).coords == (1, -1, 0, 0)


def test_good_parametrization_trivial():
    param = good_parametrization((1, 0, 0, 0), (0, 1, 0, 0))
    assert param.u == (1, 0, 0, 0)
    assert param.v == (0, 1, 0, 0)


def test_good_parametrization_saturates():
    # the difference of the two points is divisible by 5 on the line
    param = good_parametrization((1, 5, 0, 0), (1, 0, 5, 0))
    assert (0, 1, -1, 0) in (param.u, param.v)


def test_good_parametrization_equal_points():
    with pytest.raises(EqualPoints):
        good_parametrization((1, 0, 0, 0), (2, 0, 0, 0))
    with pytest.raises(EqualPoints):
        good_parametrization((3, -3, 0, 3), (-1, 1, 0, -1))


def _minors(u, v):
    return [u[i] * v[j] - u[j] * v[i] for i, j in combinations(range(4), 2)]


@given(
    raw=st.tuples(*[st.integers(min_value=-30, max_value=30) for _ in range(8)])
)
@settings(max_examples=80, deadline=None)
def test_good_parametrization_properties(raw):
    p_raw, q_raw = raw[:4], raw[4:]
    assume(any(p_raw) and any(q_raw))
    assume(any(_minors(p_raw, q_raw)))
    param = good_parametrization(p_raw, q_raw)
    minors = _minors(param.u, param.v)
    g = 0
    for x in minors:
        g = gcd(g, x)
    assert g == 1
    # saturation keeps the basis independent after reduction mod anything
    for p in (2, 3, 5):
        assert any(x % p for x in minors)
    # both input points are coprime integer combinations of the basis
    for coords in (p_raw, q_raw):
        lam, mu = line_coordinates(param, coords)
        assert lam.denominator == 1 and mu.denominator == 1
        assert gcd(lam.numerator, mu.numerator) == 1


@given(
    raw=st.tuples(*[st.integers(min_value=-30, max_value=30) for _ in range(8)])
)
@settings(max_examples=300, deadline=None)
def test_good_parametrization_matches_the_smith_form(raw):
    # the Bezout construction and the Smith form span one lattice, and the
    # Hermite reduction makes the basis depend only on the lattice
    p_raw, q_raw = raw[:4], raw[4:]
    try:
        expected = snf_good_parametrization(p_raw, q_raw)
    except (EqualPoints, ValueError) as exc:
        with pytest.raises(type(exc)):
            good_parametrization(p_raw, q_raw)
        return
    assert good_parametrization(p_raw, q_raw) == expected


def test_line_coordinates_rejects_off_line():
    param = good_parametrization((1, 0, 0, 0), (0, 1, 0, 0))
    with pytest.raises(ValueError):
        line_coordinates(param, (0, 0, 1, 0))


def test_reduce_vertex_is_bad():
    vert = surface_point(FAMILY_S, 31, (0, 0, 0, 1))
    red = reduce_to_curve(vert, 31)
    assert red.bad
    assert red.point is None


def test_reduce_good_points():
    flex = base_surface_point(FAMILY_S, 31)
    wit = surface_point(FAMILY_S, 31, (-6, -4, 5, 1))
    assert reduce_to_curve(flex, 31).point.coords == (1, 30, 0)
    assert reduce_to_curve(wit, 31).point.coords == (1, 11, 25)


def test_reduce_prime_validation():
    flex = base_surface_point(FAMILY_S, 31)
    with pytest.raises(BadPrime):
        reduce_to_curve(flex, 7)
    with pytest.raises(NotPrime):
        reduce_to_curve(flex, 9)
    with pytest.raises(BadPrime):
        reduce_to_curve(surface_point(FAMILY_SPRIME, 93, (1, -1, 0, 0)), 3)


def test_wcubed_family_never_bad(pts93):
    # the bad locus is empty on the w-cubed family
    assert pts93
    for pt in pts93:
        assert not reduce_to_curve(pt, 31).bad


def test_reduction_class_basics():
    flex = base_surface_point(FAMILY_S, 31)
    vert = surface_point(FAMILY_S, 31, (0, 0, 0, 1))
    wit = surface_point(FAMILY_S, 31, (-6, -4, 5, 1))
    assert reduction_class(flex, 31).is_zero
    assert reduction_class(vert, 31).is_zero
    assert not reduction_class(wit, 31).is_zero


def test_reduction_class_representative_independent():
    a = surface_point(FAMILY_S, 31, (-6, -4, 5, 1))
    b = surface_point(FAMILY_S, 31, (18, 12, -15, -3))
    assert reduction_class(a, 31) == reduction_class(b, 31)


def test_line_cycle_vertex_secant():
    param = good_parametrization((0, 0, 0, 1), (-6, -4, 5, 1))
    cycle = line_cycle(param, FAMILY_S, 31)
    assert [c.coords for c in cycle] == [
        (6, 4, -5, -1),
        (6, 4, -5, 1),
        (0, 0, 0, 1),
    ]


def test_line_cycle_contained_line_rejected():
    # x + y = z = 0 lies on the surface, so there is no cycle
    param = good_parametrization((1, -1, 0, 0), (0, 0, 0, 1))
    with pytest.raises(ValueError):
        line_cycle(param, FAMILY_S, 31)


def test_line_cycle_irrational():
    param = good_parametrization((1, 0, 0, 0), (0, 0, 1, 0))
    with pytest.raises(NotFullyRational):
        line_cycle(param, FAMILY_S, 31)


# -- rational cubic roots against the divisor sieve ----------------------


def _sweep_cubics(family, m, height, prefix=None):
    """Restricted forms of the distinct secants of a criterion-7 sweep,
    the one secant on the surface left out."""
    points = point_search(family, m, height)[:prefix]
    params = {}
    for a, b in combinations(points, 2):
        par = good_parametrization(a.coords, b.coords)
        params.setdefault((par.u, par.v), par)
    form = _family_form(family, m)
    cubics = [form.restrict_to_line(par.u, par.v) for par in params.values()]
    return [c for c in cubics if any(c)]


def _roots_or_error(finder, coeffs):
    try:
        return finder(coeffs)
    except NotFullyRational as exc:
        return str(exc)


def test_cubic_roots_match_the_sieve_on_the_acceptance_sweeps():
    cubics = _sweep_cubics(FAMILY_S, 31, 200, prefix=60)
    cubics += _sweep_cubics(FAMILY_SPRIME, 93, 200)
    assert len(cubics) == 1015
    dense_repeated = set()
    for coeffs in cubics:
        found = _roots_or_error(_binary_cubic_roots, coeffs)
        assert found == _roots_or_error(sieve_binary_cubic_roots, coeffs), coeffs
        if coeffs[0] and coeffs[3] and len(set(found)) < 3:
            g = gcd(*coeffs)
            dense_repeated.add(tuple(x // g for x in coeffs))
    assert dense_repeated == {(16, 56, 65, 25)}


def test_cubic_roots_repeated_root_case():
    # the one dense cubic of the sweeps with a zero discriminant:
    # 25 tau^3 + 65 tau^2 + 56 tau + 16 = (5 tau + 4)^2 (tau + 1)
    coeffs = [16, 56, 65, 25]
    assert _binary_cubic_roots(coeffs) == [(1, -1), (5, -4), (5, -4)]
    assert sieve_binary_cubic_roots(coeffs) == _binary_cubic_roots(coeffs)


def _times_linear(poly, a, b):
    """poly * (b*tau - a), coefficients lowest-first."""
    out = [0] * (len(poly) + 1)
    for i, x in enumerate(poly):
        out[i] -= a * x
        out[i + 1] += b * x
    return out


def _planted(roots, scale=1):
    poly = [scale]
    for a, b in roots:
        poly = _times_linear(poly, a, b)
    return poly


# tau = 0 is left out: a root there is listed first, not in ascending order
_ROOTS = st.tuples(
    st.integers(min_value=-400, max_value=400).filter(bool),
    st.integers(min_value=1, max_value=60),
).map(lambda ab: (ab[0] // gcd(*ab), ab[1] // gcd(*ab)))

# products of four of these exceed 2^40 and factor quickly for the sieve
_BIG_PRIMES = [p for p in range(1031, 4096) if is_prime(p)]
_BIG_ROOTS = st.tuples(
    st.lists(st.sampled_from(_BIG_PRIMES), min_size=4, max_size=4, unique=True),
    st.sampled_from([1, -1]),
    st.integers(min_value=1, max_value=1000),
).map(lambda t: (t[1] * t[0][0] * t[0][1] * t[0][2] * t[0][3], t[2]))

_SCALES = st.integers(min_value=1, max_value=12).map(lambda k: k if k % 2 else -k)


@pytest.mark.parametrize("shape", ["distinct", "double", "triple", "big"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_cubic_roots_match_the_sieve_on_planted_roots(shape, data):
    r, s, t = (data.draw(_ROOTS) for _ in range(3))
    if shape == "big":
        t = data.draw(_BIG_ROOTS)
    roots = {"double": [r, r, s], "triple": [r, r, r]}.get(shape, [r, s, t])
    coeffs = _planted(roots, data.draw(_SCALES))
    found = _binary_cubic_roots(coeffs)
    assert found == sieve_binary_cubic_roots(coeffs)
    expected = sorted(Fraction(a, b) for a, b in roots)
    assert found == [(x.denominator, x.numerator) for x in expected]


@given(
    root=_ROOTS,
    p=st.integers(min_value=-50, max_value=50),
    q=st.integers(min_value=-50, max_value=50),
    scale=_SCALES,
)
@settings(max_examples=60, deadline=None)
def test_cubic_roots_reject_an_irrational_pair(root, p, q, scale):
    disc = p * p - 4 * q
    assume(disc < 0 or isqrt(disc) ** 2 != disc)
    coeffs = _times_linear([scale * q, scale * p, scale], *root)
    for finder in (_binary_cubic_roots, sieve_binary_cubic_roots):
        with pytest.raises(NotFullyRational, match=r"only \d of 3"):
            finder(coeffs)


def test_relation_bad_branch_newton():
    param = good_parametrization((0, 0, 0, 1), (-6, -4, 5, 1))
    rep = verify_line_relation(param, FAMILY_S, 31, 31)
    assert rep.relation_holds
    assert rep.branch == "contained"
    assert rep.reduction_contained
    assert rep.z_coord_unit is True
    assert rep.alpha2 == 1
    assert rep.newton.vertices == ((0, 1), (2, 1), (3, 2))
    assert positive_slope_segments(rep.newton) == 1
    assert rep.newton.root_valuations == (Fraction(0), Fraction(0), Fraction(-1))


def test_relation_tangent_through_vertex():
    # tangent at the base flex whose reduction is the ruling through it
    param = good_parametrization((1, -1, 0, 0), (0, 0, 31, 1))
    rep = verify_line_relation(param, FAMILY_S, 31, 31)
    assert [c.coords for c in rep.points] == [(1, -1, 0, 0)] * 3
    assert rep.relation_holds
    assert rep.branch == "contained"
    assert rep.z_coord_unit is False


def test_relation_tangent_multiplicity():
    # cycle 2P + Q: the doubled point is counted twice in the sum
    param = good_parametrization((0, 0, 0, 1), (0, 1, -1, 0))
    rep = verify_line_relation(param, FAMILY_S, 31, 31)
    coords = [c.coords for c in rep.points]
    assert coords.count((0, 1, -1, 0)) == 2
    assert coords.count((0, 0, 0, 1)) == 1
    assert rep.relation_holds


def test_relation_transverse_flex_line():
    param = good_parametrization((1, -1, 0, 0), (0, 1, -1, 0))
    rep = verify_line_relation(param, FAMILY_S, 31, 31)
    assert rep.branch == "transverse"
    assert rep.relation_holds
    assert rep.newton is None
    assert {c.coords for c in rep.points} == {
        (1, -1, 0, 0),
        (1, 0, -1, 0),
        (0, 1, -1, 0),
    }


def test_relation_wcubed_flex_line():
    param = good_parametrization((1, -1, 0, 0), (1, 0, -1, 0))
    rep = verify_line_relation(param, FAMILY_SPRIME, 93, 31)
    assert rep.branch == "transverse"
    assert rep.relation_holds
    assert rep.modulus == 3


def test_relation_validation():
    param = good_parametrization((1, -1, 0, 0), (0, 1, -1, 0))
    with pytest.raises(BadPrime):
        verify_line_relation(param, FAMILY_S, 31, 7)


def test_relation_sweep_no_failures(pts31):
    # every fully rational secant among bounded points satisfies the sum
    pts6 = [p for p in pts31 if max(abs(c) for c in p.coords) <= 6]
    stats = {"transverse": 0, "contained": 0}
    for a, b in combinations(pts6[:40], 2):
        try:
            param = good_parametrization(a.coords, b.coords)
            rep = verify_line_relation(param, FAMILY_S, 31, 31)
        except (NotFullyRational, EqualPoints, ValueError):
            continue
        stats[rep.branch] += 1
        assert rep.relation_holds
    assert stats["transverse"] == 211
    assert stats["contained"] == 8


def test_relation_sweep_wcubed(pts93):
    checked = 0
    for a, b in combinations(pts93, 2):
        try:
            param = good_parametrization(a.coords, b.coords)
            rep = verify_line_relation(param, FAMILY_SPRIME, 93, 31)
        except (NotFullyRational, EqualPoints, ValueError):
            continue
        checked += 1
        assert rep.relation_holds
    assert checked > 0


def test_newton_polygon_mixed_slopes():
    poly = newton_polygon([5, 5, 5, 25], 5)
    assert poly.vertices == ((0, 1), (2, 1), (3, 2))
    assert poly.segments == ((Fraction(0), 2), (Fraction(1), 1))
    assert sorted(poly.root_valuations) == [Fraction(-1), Fraction(0), Fraction(0)]


def test_newton_polygon_flat():
    poly = newton_polygon([1, 0, 0, 1], 5)
    assert poly.segments == ((Fraction(0), 3),)
    assert poly.root_valuations == (Fraction(0),) * 3


def test_newton_polygon_linear_orientation():
    # root of p + t is -p, with valuation +1 under the chosen orientation
    poly = newton_polygon([5, 1], 5)
    assert poly.root_valuations == (Fraction(1),)


def test_newton_polygon_errors():
    with pytest.raises(AllZero):
        newton_polygon([0, 0, 0], 5)
    with pytest.raises(NotPrime):
        newton_polygon([1, 1], 6)


@given(
    coeffs=st.lists(st.integers(min_value=-500, max_value=500), min_size=1, max_size=7),
    p=st.sampled_from([2, 3, 5, 7]),
)
@settings(max_examples=80, deadline=None)
def test_newton_polygon_properties(coeffs, p):
    assume(any(coeffs))
    poly = newton_polygon(coeffs, p)
    slopes = [s for s, _ in poly.segments]
    assert slopes == sorted(slopes)
    assert len(slopes) == len(set(slopes))
    span = poly.vertices[-1][0] - poly.vertices[0][0]
    assert sum(length for _, length in poly.segments) == span
    assert len(poly.root_valuations) == span
    # the hull lies on or below every coefficient point
    for x, y in poly.points:
        for (x0, y0), (x1, y1) in zip(poly.vertices, poly.vertices[1:]):
            if x0 <= x <= x1:
                assert (y - y0) * (x1 - x0) >= (y1 - y0) * (x - x0)


def test_point_search_frozen_counts(pts31, pts93):
    assert len(pts31) == 146
    assert len(pts93) == 12
    coords = {p.coords for p in pts31}
    assert (0, 0, 0, 1) in coords
    assert (1, -1, 0, 0) in coords
    assert (6, 4, -5, -1) in coords


def test_point_search_matches_brute_force():
    found = {p.coords for p in point_search(FAMILY_S, 31, 6)}
    brute = set()
    for x in range(-6, 7):
        for y in range(-6, 7):
            for z in range(-6, 7):
                for w in range(-6, 7):
                    if (x, y, z, w) == (0, 0, 0, 0):
                        continue
                    if x ** 3 + y ** 3 + z ** 3 + 31 * z * w * w:
                        continue
                    g = gcd(gcd(x, y), gcd(z, w))
                    c = (x // g, y // g, z // g, w // g)
                    if next(v for v in c if v) < 0:
                        c = tuple(-v for v in c)
                    brute.add(c)
    assert found == brute


def test_point_search_line_points_every_height():
    for h in (1, 3):
        coords = {p.coords for p in point_search(FAMILY_S, 31, h)}
        assert (1, -1, 0, 0) in coords
        assert (1, -1, 0, 1) in coords
        assert (1, -1, 0, -1) in coords


def test_point_search_exactness(pts93):
    for p in pts93:
        assert form_value(FAMILY_SPRIME, 93, p.coords) == 0


def test_point_search_deterministic():
    a = point_search(FAMILY_S, 31, 4)
    b = point_search(FAMILY_S, 31, 4)
    assert a == b
    assert [p.coords for p in a] == sorted(p.coords for p in a)


def test_point_search_height_monotone():
    small = {p.coords for p in point_search(FAMILY_S, 31, 3)}
    large = {p.coords for p in point_search(FAMILY_S, 31, 6)}
    assert small <= large


def test_point_search_budget():
    with pytest.raises(BudgetExceeded):
        point_search(FAMILY_S, 31, 1001)
    with pytest.raises(ValueError):
        point_search(FAMILY_S, 31, 0)


@pytest.mark.parametrize("family", [FAMILY_S, FAMILY_SPRIME])
def test_point_search_rejects_m_zero(family):
    # M = 0 leaves the singular cone x^3 + y^3 + z^3 = 0
    with pytest.raises(HypothesisFailed, match="M = 0"):
        point_search(family, 0, 3)


def test_coverage(pts31):
    cov = reduction_coverage(pts31, 31)
    assert cov.total == 36
    assert cov.hit == 11
    assert cov.hit + len(cov.missed) == cov.total
    assert cov.fraction == Fraction(11, 36)


def test_rank_bound_achieves_target(pts31):
    rep = rank_lower_bound(FAMILY_S, [31], pts31)
    assert rep.m == 31
    assert rep.modulus == 2
    assert rep.target_dim == 2
    assert rep.achieved_dim == 2
    assert rep.points_used == len(pts31)


def test_rank_bound_wcubed(pts93):
    rep = rank_lower_bound(FAMILY_SPRIME, [31], pts93)
    assert rep.m == 93
    assert rep.modulus == 3
    assert rep.achieved_dim == 2
    assert rep.target_dim == 2


def test_rank_bound_degenerate_point_sets(pts31):
    empty = rank_lower_bound(FAMILY_S, [31], [])
    assert empty.achieved_dim == 0
    line_only = [p for p in pts31 if p.coords[0] + p.coords[1] == 0 and p.coords[2] == 0]
    assert line_only
    rep = rank_lower_bound(FAMILY_S, [31], line_only)
    assert rep.achieved_dim == 0


def test_rank_bound_prime_conditions(pts31):
    with pytest.raises(PrimeConditionFailed):
        rank_lower_bound(FAMILY_S, [7], [])
    with pytest.raises(PrimeConditionFailed):
        rank_lower_bound(FAMILY_S, [13], [])
    with pytest.raises(PrimeConditionFailed):
        rank_lower_bound(FAMILY_SPRIME, [5], [])
    with pytest.raises(NotPrime):
        rank_lower_bound(FAMILY_S, [9], [])
    with pytest.raises(FamilyMismatch):
        rank_lower_bound(FAMILY_S, [43], pts31)
    with pytest.raises(ValueError):
        rank_lower_bound(FAMILY_S, [], [])


def test_rank_bound_checks_m_against_its_convention(pts31, pts93):
    assert rank_bound_m(FAMILY_S, [7, 31]) == 217
    assert rank_bound_m(FAMILY_SPRIME, [7, 31]) == 651
    assert rank_lower_bound(FAMILY_S, [31], pts31, m=31).achieved_dim == 2
    assert rank_lower_bound(FAMILY_SPRIME, [31], pts93, m=93).achieved_dim == 2
    with pytest.raises(HypothesisFailed, match=r"M = 3\*prod\(p\) = 93, not M = 31"):
        rank_lower_bound(FAMILY_SPRIME, [31], pts31, m=31)
    with pytest.raises(HypothesisFailed, match=r"M = prod\(p\) = 31, not M = 93"):
        rank_lower_bound(FAMILY_S, [31], pts93, m=93)
    # a point of another surface is still refused point by point
    with pytest.raises(FamilyMismatch):
        rank_lower_bound(FAMILY_SPRIME, [31], pts31, m=93)


# -- residue deduplication against the per-point oracles ----------------


@pytest.mark.parametrize(
    "family,m,height",
    [(FAMILY_S, 31, h) for h in (1, 2, 3, 17, 120)]
    + [(FAMILY_S, 1333, 40), (FAMILY_SPRIME, 93, 40)]
    # z = -2w needs the sum 0, which every pair x = -y shares
    + [(FAMILY_SPRIME, 8, 30), (FAMILY_SPRIME, 27, 25)]
    + [(FAMILY_S, -31, 20), (FAMILY_SPRIME, -93, 20), (FAMILY_SPRIME, 93, 200)]
    # only z > 0 (z >= 0 on Sprime_M) and, on S_M, w >= 0 are searched;
    # small |M| gives many points (6,213 on Sprime_M with M = 1 at 40)
    + [(FAMILY_S, 1, 40), (FAMILY_S, 2, 60), (FAMILY_SPRIME, 1, 40), (FAMILY_SPRIME, -2, 70)],
)
def test_point_search_matches_the_full_search(family, m, height):
    assert point_search(family, m, height) == full_point_search(family, m, height)


def test_point_search_drops_its_table_before_the_output():
    tracemalloc.start()
    try:
        pts = point_search(FAMILY_S, 31, 200)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(pts) == 49610
    assert peak <= 1.5 * kept


def test_contained_line_points_share_their_ints():
    pts = point_search(FAMILY_S, 31, 300)
    line = [pt for pt in pts if pt.coords[2] == 0]
    assert len(line) > 9 * len(pts) // 10
    assert len({id(pt.coords[3]) for pt in line}) <= 601
    assert not hasattr(line[0], "__dict__")


def test_dedup_matches_per_point_at_height_200():
    pts = point_search(FAMILY_S, 31, 200)
    assert len(pts) == 49610
    assert reduction_coverage(pts, 31) == per_point_coverage(pts, 31)
    rep = rank_lower_bound(FAMILY_S, [31], pts)
    assert rep == per_point_rank_bound(FAMILY_S, [31], pts)
    assert (rep.achieved_dim, rep.target_dim, rep.points_used) == (2, 2, 49610)


def test_dedup_matches_per_point_on_two_primes():
    pts = point_search(FAMILY_S, 1333, 150)
    for p, hit in ((31, 20), (43, 17)):
        cov = reduction_coverage(pts, p)
        assert cov == per_point_coverage(pts, p)
        assert cov.hit == hit
    rep = rank_lower_bound(FAMILY_S, [31, 43], pts)
    assert rep == per_point_rank_bound(FAMILY_S, [31, 43], pts)
    assert (rep.achieved_dim, rep.target_dim) == (4, 4)

    pts = point_search(FAMILY_SPRIME, 3999, 60)
    rep = rank_lower_bound(FAMILY_SPRIME, [31, 43], pts)
    assert rep == per_point_rank_bound(FAMILY_SPRIME, [31, 43], pts)
    assert (rep.achieved_dim, rep.target_dim) == (3, 4)


def test_rank_bound_checks_every_point_and_counts_duplicates(pts31):
    base = base_surface_point(FAMILY_S, 31)
    # same (x, y, z) residues as base, on another surface
    for foreign in (surface_point(FAMILY_S, 62, (1, -1, 0, 0)),
                    surface_point(FAMILY_SPRIME, 31, (1, -1, 0, 0))):
        with pytest.raises(FamilyMismatch):
            rank_lower_bound(FAMILY_S, [31], [base, foreign])
    rep = rank_lower_bound(FAMILY_S, [31], pts31 + pts31)
    assert rep.points_used == 2 * len(pts31)
    assert rep.achieved_dim == 2


def test_coverage_errors_fire_on_repeated_residues():
    # M = 31^3 is not squarefree at 31, and both points reduce to the vertex
    m = 31 ** 3
    good = surface_point(FAMILY_SPRIME, m, (1, -1, 0, 0))
    vertex = [surface_point(FAMILY_SPRIME, m, c) for c in ((31, 0, 0, -1), (31, -31, 31, -1))]
    with pytest.raises(BadPrime, match="not squarefree at 31"):
        reduction_coverage([good] + vertex, 31)
    with pytest.raises(BadPrime, match="not squarefree at 31"):
        reduction_coverage([good, vertex[0], vertex[0]], 31)
    with pytest.raises(NotPrime):
        reduction_coverage([good], 0)


def test_del_pezzo_smallest_prime():
    assert find_del_pezzo_prime(31) == 109


def test_del_pezzo_line_containment():
    rep = del_pezzo_line_check(31, 109)
    p = 109
    assert (rep.zeta ** 2 + rep.zeta + 1) % p == 0
    assert (rep.sqrt_minus_m ** 2 + 31) % p == 0
    assert (rep.theta ** 3 - 2) % p == 0
    assert rep.first_orbit_contained
    assert rep.first_orbit_conjugate_contained
    assert rep.second_orbit_contained
    assert rep.all_contained


def test_del_pezzo_negative_control():
    rep = del_pezzo_line_check(31, 109)
    p, z, s = 109, rep.zeta, rep.sqrt_minus_m
    # flipping the sign of the x-coordinate breaks the first quadric
    perturbed = [((z * lam) % p, lam, (-s * mu) % p, mu, 0) for lam, mu in [(1, 1), (1, 2)]]
    assert not line_on_del_pezzo(31, p, perturbed)


def test_del_pezzo_missing_constants():
    with pytest.raises(ConstantsUnavailable, match="cube root of 2"):
        del_pezzo_line_check(31, 7)
    with pytest.raises(ConstantsUnavailable, match="cube root of unity"):
        del_pezzo_line_check(31, 5)
    with pytest.raises(ConstantsUnavailable):
        del_pezzo_line_check(31, 31)
    with pytest.raises(NotPrime):
        del_pezzo_line_check(31, 9)
    with pytest.raises(BadPrime):
        del_pezzo_line_check(31, 2)
