import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from cubicspan.errors import (
    BudgetExceeded,
    IdenticallyZero,
    LineNotOnSurface,
    PointNotOnSurface,
    SingularPoint,
)
from cubicspan.field import ExtField, embedding, make_extension
from cubicspan import field as fieldlib
from cubicspan import surface
from cubicspan.harness import random_cubic_form, random_smooth_surface
from cubicspan.projgeo import (
    Line3,
    Plane3,
    ProjPoint,
    line_through,
    rref,
)
from cubicspan.surface import (
    MONOMIALS,
    CubicForm,
    PointKind,
    classify_point,
    eckardt_points,
    fermat_cubic,
    is_eckardt,
    is_smooth,
    lines_on_surface,
    surface_with_27_lines_over_f64,
    tangent_pencil,
    zero_points,
)

from oracles import (
    GammaType,
    asymptotic_lines,
    enumerate_lines,
    enumerate_point_tuples,
    gamma_curve,
    gauss_on_line,
    groebner_smooth,
    horner_zeros,
    intersect_line,
    lines_in_plane_through,
    pencil_basis,
    singular_witness,
    tangent_plane,
    tangent_section_class,
)

F5 = make_extension(5, 1)
F7 = make_extension(7, 1)
F13 = make_extension(13, 1)


def test_monomial_table():
    assert len(MONOMIALS) == 20
    assert all(sum(m) == 3 for m in MONOMIALS)
    assert MONOMIALS[0] == (3, 0, 0, 0)
    assert MONOMIALS[-1] == (0, 0, 0, 3)
    assert list(MONOMIALS) == sorted(MONOMIALS, reverse=True)


def test_form_validation():
    with pytest.raises(IdenticallyZero):
        CubicForm(F5, {})
    with pytest.raises(IdenticallyZero):
        CubicForm(F5, {(3, 0, 0, 0): 0})
    with pytest.raises(ValueError):
        CubicForm(F5, {(2, 0, 0, 0): 1})
    with pytest.raises(ValueError):
        CubicForm(F5, {(3, 0, 0, 0): 5})


def test_evaluate_and_gradient():
    form = fermat_cubic(F13)
    assert form.evaluate((1, 12, 0, 0)) == 0
    assert form.evaluate((1, 1, 0, 0)) == 2
    # partials are 3 x_i^2
    assert form.gradient((1, 12, 0, 0)) == (3, 3, 0, 0)
    assert form.gradient((0, 0, 2, 1)) == (0, 0, 12, 3)


def test_family_forms_over_integers():
    s1 = CubicForm.from_family("S_M", 1)
    assert s1.field is None
    assert s1.evaluate((1, -1, 0, 1)) == 0
    assert s1.evaluate((1, 1, 1, 1)) == 4
    assert s1.gradient((0, 0, 1, 2)) == (0, 0, 7, 4)
    s31 = CubicForm.from_family("S'_M", 31)
    assert s31.evaluate((1, -1, 0, 1)) == 31
    with pytest.raises(ValueError):
        CubicForm.from_family("T_M", 1)


def test_integer_form_contains_line():
    # x^3 + y^3 + z^3 + z w^2 vanishes on the line x + y = z = 0
    s1 = CubicForm.from_family("S_M", 1)
    assert s1.restrict_to_line((1, -1, 0, 0), (0, 0, 0, 1)) == (0, 0, 0, 0)


def test_reduce_mod_and_serialization():
    s31 = CubicForm.from_family("S_M", 31)
    mod5 = s31.reduce_mod(F5)
    assert mod5.coeffs == {(3, 0, 0, 0): 1, (0, 3, 0, 0): 1, (0, 0, 3, 0): 1, (0, 0, 1, 2): 1}
    data = mod5.to_dict()
    assert data["coeffs"] == {"3000": 1, "0300": 1, "0030": 1, "0012": 1}
    assert CubicForm.from_dict(data) == mod5
    fam = CubicForm.from_dict({"family": "S'_M", "M": 2, "field": None})
    assert fam.coeffs[(0, 0, 0, 3)] == 2
    # reduction can kill a coefficient without killing the form
    mod31 = CubicForm.from_family("S_M", 31).reduce_mod(make_extension(31, 1))
    assert (0, 0, 1, 2) not in mod31.coeffs


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_euler_identity(data):
    # sum x_i dF/dx_i = 3 F for any cubic form, any point
    monos = data.draw(st.lists(st.sampled_from(MONOMIALS), min_size=1, max_size=6, unique=True))
    coeffs = {m: data.draw(st.integers(min_value=0, max_value=6)) for m in monos}
    if not any(coeffs.values()):
        coeffs[monos[0]] = 1
    form = CubicForm(F7, coeffs)
    coords = tuple(data.draw(st.integers(min_value=0, max_value=6)) for _ in range(4))
    grad = form.gradient(coords)
    lhs = 0
    for x, g in zip(coords, grad):
        lhs = F7.add(lhs, F7.mul(x, g))
    assert lhs == F7.mul(3, form.evaluate(coords))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_restriction_matches_pointwise_evaluation(data):
    monos = data.draw(st.lists(st.sampled_from(MONOMIALS), min_size=1, max_size=5, unique=True))
    coeffs = {m: data.draw(st.integers(min_value=1, max_value=4)) for m in monos}
    form = CubicForm(F5, coeffs)
    u = tuple(data.draw(st.integers(min_value=0, max_value=4)) for _ in range(4))
    v = tuple(data.draw(st.integers(min_value=0, max_value=4)) for _ in range(4))
    c = form.restrict_to_line(u, v)
    for s in range(5):
        for t in range(5):
            point = tuple(F5.add(F5.mul(s, a), F5.mul(t, b)) for a, b in zip(u, v))
            direct = form.evaluate(point)
            s2, s3 = F5.mul(s, s), F5.mul(F5.mul(s, s), s)
            t2, t3 = F5.mul(t, t), F5.mul(F5.mul(t, t), t)
            via = 0
            for coef, mono in zip(c, (s3, F5.mul(s2, t), F5.mul(s, t2), t3)):
                via = F5.add(via, F5.mul(coef, mono))
            assert direct == via


def test_zero_points_matches_brute_force():
    form = fermat_cubic(F5)
    fast = list(zero_points(form))
    brute = [c for c in enumerate_point_tuples(F5) if form.evaluate(c) == 0]
    assert fast == brute
    assert len(fast) == 31


def test_scans_match_brute_force_in_every_coordinate_order():
    f4 = make_extension(2, 2)
    base = surface_with_27_lines_over_f64().embed(f4)
    all_points = list(enumerate_point_tuples(f4))
    all_lines = sorted(enumerate_lines(f4), key=lambda line: line.rows[0] + line.rows[1])
    patterns = Counter()
    # scales outside GF(2), so no Frobenius symmetry can hide a scan error
    scales = (1, 2, 3, 2)
    for perm in itertools.permutations(range(4)):
        basis = [tuple(c if i == j else 0 for i in range(4)) for j, c in zip(perm, scales)]
        form = CubicForm(f4, base.restrict_to_plane(basis))
        assert list(zero_points(form)) == [c for c in all_points if form.evaluate(c) == 0]
        lines = lines_on_surface(form)
        contained = [
            line for line in all_lines
            if all(form.evaluate(p.coords) == 0 for p in line.points())
        ]
        assert lines == contained
        patterns.update(tuple(row.index(1) for row in line.rows) for line in lines)
    # every pivot pattern of the line scan is exercised
    assert patterns == Counter(
        {(0, 1): 128, (0, 2): 34, (0, 3): 24, (1, 2): 12, (1, 3): 10, (2, 3): 8}
    )


def test_fermat_f13_has_27_lines():
    lines = lines_on_surface(fermat_cubic(F13))
    assert len(lines) == 27
    assert len(set(lines)) == 27
    form = fermat_cubic(F13)
    for line in lines:
        assert form.restrict_to_line(*line.rows) == (0, 0, 0, 0)
    flat = [line.rows[0] + line.rows[1] for line in lines]
    assert flat == sorted(flat)


def test_fermat_f13_line_intersection_graph():
    lines = lines_on_surface(fermat_cubic(F13))
    point_sets = [set(line.points()) for line in lines]
    neighbor_counts = [
        sum(1 for j in range(27) if j != i and point_sets[i] & point_sets[j])
        for i in range(27)
    ]
    assert neighbor_counts == [10] * 27


def test_fermat_f7_splits_f5_does_not():
    assert len(lines_on_surface(fermat_cubic(F7))) == 27
    assert len(lines_on_surface(fermat_cubic(F5))) == 3


def test_line_scan_budget():
    with pytest.raises(BudgetExceeded):
        lines_on_surface(fermat_cubic(F13), extension=4)


def test_smooth_surfaces():
    assert is_smooth(fermat_cubic(F13)) is True
    assert is_smooth(fermat_cubic(F5)) is True
    assert singular_witness(fermat_cubic(F13)) is None


#: x0^3 over F_5, singular along the whole plane x0 = 0
TRIPLE_PLANE_F5 = CubicForm(F5, {(3, 0, 0, 0): 1})
#: the cone x0^3 + x1^3 + x2^3 over F_13, singular at (0 : 0 : 0 : 1) only
CONE_F13 = CubicForm(F13, {(3, 0, 0, 0): 1, (0, 3, 0, 0): 1, (0, 0, 3, 0): 1})
#: (x0 + x1)(x2^2 - 2 x3^2) + x0^3 + 2 x1^3 over F_13: the only singular
#: points are the conjugate pair (0, 0, +-sqrt(2), 1) over F_169, far
#: beyond the rational point scan
CONJUGATE_PAIR_F13 = CubicForm(F13, {
    (1, 0, 2, 0): 1, (1, 0, 0, 2): 11,
    (0, 1, 2, 0): 1, (0, 1, 0, 2): 11,
    (3, 0, 0, 0): 1, (0, 3, 0, 0): 2,
})


def test_is_smooth_scans_no_point_and_no_line(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("is_smooth scanned the surface")

    monkeypatch.setattr(surface, "zero_points", refuse)
    monkeypatch.setattr(surface, "lines_on_surface", refuse)
    # x2 (x0^2 + x1^2 + x3^2 + x0 x1) + x0^3 + x1^3 + x3^3 + x0 x1 x3 over
    # F_251 is singular at (0 : 0 : 1 : 0) only, the last chart a point
    # scan reaches
    late = CubicForm(make_extension(251, 1), {
        (2, 0, 1, 0): 1, (0, 2, 1, 0): 1, (0, 0, 1, 2): 1, (1, 1, 1, 0): 1,
        (3, 0, 0, 0): 1, (0, 3, 0, 0): 1, (0, 0, 0, 3): 1, (1, 1, 0, 1): 1,
    })
    assert late.evaluate((0, 0, 1, 0)) == 0
    assert late.gradient((0, 0, 1, 0)) == (0, 0, 0, 0)
    for form in (TRIPLE_PLANE_F5, CONE_F13, CONJUGATE_PAIR_F13, late):
        assert is_smooth(form) is False
    assert is_smooth(fermat_cubic(F13)) is True


def test_singular_witnesses():
    assert is_smooth(TRIPLE_PLANE_F5) is False
    assert singular_witness(TRIPLE_PLANE_F5) == (1, (0, 1, 0, 0))
    assert is_smooth(CONE_F13) is False
    assert singular_witness(CONE_F13) == (1, (0, 0, 0, 1))


def test_conjugate_singular_pair_found_by_line_reinforcement():
    form = CONJUGATE_PAIR_F13
    assert is_smooth(form) is False
    degree, coords = singular_witness(form)
    assert degree == 2
    ext = make_extension(13, 2)
    lifted = form.embed(ext)
    assert lifted.evaluate(coords) == 0
    assert lifted.gradient(coords) == (0, 0, 0, 0)


def test_conjugate_singular_triple_is_found_without_witness():
    # the only singular points are a Galois-conjugate triple over F_{13^3}:
    # no rational point and no rational line carries one
    form = CubicForm(F13, {
        (3, 0, 0, 0): 1, (0, 3, 0, 0): 11, (0, 0, 3, 0): 4, (0, 0, 0, 3): 1,
        (1, 1, 1, 0): 6, (2, 0, 0, 1): 3, (0, 1, 1, 1): 6,
    })
    assert is_smooth(form) is False
    assert singular_witness(form) is None
    lifted = form.embed(make_extension(13, 3))
    assert lifted.evaluate((1, 1014, 78, 0)) == 0
    assert lifted.gradient((1, 1014, 78, 0)) == (0, 0, 0, 0)


def test_certificate_needs_the_form_in_characteristic_three():
    # every partial of x0^3 + x0 x1^2 + x1 x2^2 + x2 x3^2 over F_3 vanishes
    # at (1, 0, 0, 0), which is off the surface
    f3 = make_extension(3, 1)
    form = CubicForm(f3, {(3, 0, 0, 0): 1, (1, 2, 0, 0): 1, (0, 1, 2, 0): 1, (0, 0, 1, 2): 1})
    assert form.gradient((1, 0, 0, 0)) == (0, 0, 0, 0)
    assert form.evaluate((1, 0, 0, 0)) == 1
    assert is_smooth(form) is True
    assert groebner_smooth(form)


def _monomial_value(field, mono, coords):
    value = 1
    for x, e in zip(coords, mono):
        value = field.mul(value, field.pow_(x, e))
    return value


def _form_singular_at(p, degree, rng):
    """A form over F_p singular at a point whose coordinates generate F_{p^degree}.

    F(P) = 0 and grad F(P) = 0 are linear in the 20 coefficients; each
    condition over F_{p^degree} splits into degree conditions over F_p, and
    the form is a seeded nonzero vector of their common kernel.
    """
    base, ext = make_extension(p, 1), make_extension(p, degree)
    coords = (1, p if degree > 1 else rng.randrange(p), rng.randrange(ext.q), rng.randrange(ext.q))
    conditions = [[_monomial_value(ext, m, coords) for m in MONOMIALS]]
    for i in range(4):
        conditions.append([
            ext.mul(m[i] % p, _monomial_value(ext, m[:i] + (m[i] - 1,) + m[i + 1:], coords))
            if m[i] else 0
            for m in MONOMIALS
        ])
    mat, pivots = rref(base, [[ext.decode(v)[j] for v in cond] for cond in conditions for j in range(degree)])
    coeffs = [0] * len(MONOMIALS)
    while not any(coeffs):
        for free in (c for c in range(len(MONOMIALS)) if c not in pivots):
            w = rng.randrange(p)
            coeffs[free] = (coeffs[free] + w) % p
            for r, pc in enumerate(pivots):
                coeffs[pc] = (coeffs[pc] - w * mat[r][free]) % p
    return CubicForm(base, dict(zip(MONOMIALS, coeffs))), coords


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_certificate_matches_groebner_bases(p):
    field = make_extension(p, 1)
    rng = random.Random(p)
    forms = [random_cubic_form(field, rng) for _ in range(8)]
    for degree in (1, 2, 3):
        form, coords = _form_singular_at(p, degree, rng)
        lifted = form.embed(make_extension(p, degree))
        assert lifted.evaluate(coords) == 0 and lifted.gradient(coords) == (0, 0, 0, 0)
        forms.append(form)
    smooth = [is_smooth(form) for form in forms]
    assert smooth == [groebner_smooth(form) for form in forms]
    assert set(smooth[:8]) == {True, False}
    assert not any(smooth[8:])
    for form, flag in zip(forms, smooth):
        witness = None if flag else singular_witness(form)
        if witness is not None:
            degree, coords = witness
            lifted = form.embed(make_extension(p, degree))
            assert lifted.evaluate(coords) == 0 and lifted.gradient(coords) == (0, 0, 0, 0)


def test_intersect_transverse_line():
    form = fermat_cubic(F13)
    line = line_through(ProjPoint(F13, (1, 0, 0, 1)), ProjPoint(F13, (0, 1, 3, 0)))
    div = intersect_line(form, line)
    assert not div.contained
    assert div.total_multiplicity == 3
    assert div.fully_rational
    got = sorted((e.point.coords, e.multiplicity) for e in div.entries)
    assert got == [((1, 4, 12, 1), 1), ((1, 10, 4, 1), 1), ((1, 12, 10, 1), 1)]
    for entry in div.entries:
        assert form.evaluate(entry.point.coords) == 0


def test_intersect_tangent_line():
    form = fermat_cubic(F13)
    point = ProjPoint(F13, (1, 1, 4, 4))
    asym = asymptotic_lines(form, point)
    generic = next(
        line for line in lines_in_plane_through(tangent_plane(form, point), point)
        if line not in asym.lines
    )
    div = intersect_line(form, generic)
    assert div.multiplicity_at(point) == 2
    assert div.total_multiplicity == 3
    other = [e for e in div.entries if e.point != point]
    assert len(other) == 1 and other[0].multiplicity == 1


def test_intersect_contained_line():
    form = fermat_cubic(F13)
    line = lines_on_surface(form)[0]
    div = intersect_line(form, line)
    assert div.contained
    assert div.entries == ()


def test_intersect_resolves_quadratic_points():
    form = fermat_cubic(F5)
    found = None
    for w in range(1, 5):
        line = line_through(ProjPoint(F5, (1, 0, 0, w)), ProjPoint(F5, (0, 1, 1, 0)))
        div = intersect_line(form, line)
        if any(e.degree == 2 for e in div.entries):
            found = div
            break
    assert found is not None
    pair = [e for e in found.entries if e.degree == 2]
    assert len(pair) == 2
    ext = make_extension(5, 2)
    lifted = form.embed(ext)
    for entry in pair:
        assert entry.point.field is ext
        assert lifted.evaluate(entry.point.coords) == 0
    assert found.total_multiplicity == 3
    assert not found.fully_rational


def test_intersect_reports_cubic_factor_unresolved():
    form = fermat_cubic(F5)
    found = None
    for coords in itertools.product(range(5), repeat=3):
        line = line_through(ProjPoint(F5, (1,) + coords), ProjPoint(F5, (0, 0, 1, 1)))
        try:
            div = intersect_line(form, line)
        except Exception:
            continue
        if div.unresolved:
            found = div
            break
    assert found is not None
    assert found.unresolved == ((3, 3),)
    assert found.entries == ()
    assert found.total_multiplicity == 3


def test_tangent_plane_errors():
    form = fermat_cubic(F13)
    with pytest.raises(PointNotOnSurface):
        tangent_plane(form, ProjPoint(F13, (1, 1, 0, 0)))
    cone = CubicForm(F13, {(3, 0, 0, 0): 1, (0, 3, 0, 0): 1, (0, 0, 3, 0): 1})
    with pytest.raises(SingularPoint):
        tangent_plane(cone, ProjPoint(F13, (0, 0, 0, 1)))


def test_eckardt_point_on_fermat():
    form = fermat_cubic(F13)
    cls = classify_point(form, ProjPoint(F13, (1, 12, 0, 0)))
    assert cls.kind is PointKind.ECKARDT
    assert cls.ternary
    assert cls.line_count == 3
    gamma = gamma_curve(form, ProjPoint(F13, (1, 12, 0, 0)))
    assert gamma.decomposition is GammaType.THREE_LINES
    assert gamma.singularity == "triple"
    assert len(gamma.lines_through_base) == 3
    for line in gamma.lines_through_base:
        assert form.restrict_to_line(*line.rows) == (0, 0, 0, 0)


def test_eckardt_census_agrees_with_line_concurrency():
    form = fermat_cubic(F13)
    lines = lines_on_surface(form)
    through = Counter()
    for l1, l2 in itertools.combinations(lines, 2):
        for p in set(l1.points()) & set(l2.points()):
            through[p] += 1
    # three concurrent lines contribute 3 meeting pairs
    concurrency = sorted(p.coords for p, c in through.items() if c == 3)
    census = sorted(p.coords for p in eckardt_points(form))
    assert census == concurrency
    assert len(census) == 18
    assert not [p for p, c in through.items() if c not in (1, 3)]


@pytest.mark.parametrize(
    "p, k, seed",
    [(2, 2, "fermat"), (5, 1, "fermat"), (13, 1, "fermat")]
    + [(p, k, seed) for p, k in ((2, 2), (7, 1), (2, 3)) for seed in (0, 1, 2)],
)
def test_eckardt_census_matches_the_tangent_section_oracle(p, k, seed):
    # the census reads only the tangent cone; the oracle decomposes the
    # whole tangent-plane section
    f = make_extension(p, k)
    form = fermat_cubic(f) if seed == "fermat" else random_smooth_surface(f, seed)
    oracle = [
        coords
        for coords in sorted(zero_points(form))
        if tangent_section_class(form, ProjPoint(f, coords)).kind is PointKind.ECKARDT
    ]
    assert [pt.coords for pt in eckardt_points(form)] == oracle
    if seed == "fermat" and f.q in (4, 13):
        # the Hermitian surface over GF(4) is all 45 of its points; GF(13) has 18
        assert len(oracle) == {4: 45, 13: 18}[f.q]


def test_is_eckardt_rejects_what_classify_point_rejects():
    with pytest.raises(PointNotOnSurface):
        is_eckardt(fermat_cubic(F13), ProjPoint(F13, (1, 0, 0, 0)))
    with pytest.raises(SingularPoint):
        is_eckardt(CONE_F13, ProjPoint(F13, (0, 0, 0, 1)))
    with pytest.raises(SingularPoint):
        eckardt_points(CONE_F13)


def _surface_layer_outputs(form, samples):
    f = form.field
    points = list(zero_points(form))
    grads = [form.gradient(c) for c in points]
    return (
        points,
        [line.rows for line in lines_on_surface(form)],
        [form.restrict_to_line(u, v) for u, v in samples],
        grads,
        [tangent_pencil(form, c, g) for c, g in zip(points, grads)],
        [classify_point(form, ProjPoint(f, c)) for c in points],
        eckardt_points(form),
    )


@pytest.mark.parametrize("p, k", [(2, 2), (7, 1), (3, 2), (2, 4), (5, 2)])
def test_method_path_matches_flat_path(p, k, monkeypatch):
    f = make_extension(p, k)
    q = f.q
    # built first: the sampler's smoothness certificate needs the flat tables
    forms = [random_smooth_surface(f, seed) for seed in (0, 1)]
    if p != 3:  # the Fermat cubic is a cube in characteristic 3
        forms.append(fermat_cubic(f))
    rng = random.Random(q)
    samples = [
        (tuple(rng.randrange(q) for _ in range(4)), tuple(rng.randrange(q) for _ in range(4)))
        for _ in range(30)
    ]
    flat = [_surface_layer_outputs(form, samples) for form in forms]

    def no_tables(field):
        raise AssertionError(f"flat tables of {field} read on the method path")

    # the tables stay cached, so only the limit can send the scans to the methods
    monkeypatch.setattr(fieldlib, "_FLAT_TABLE_LIMIT", 1)
    monkeypatch.setattr(ExtField, "flat_tables", no_tables)
    monkeypatch.setattr(ExtField, "root_tables", no_tables)
    method = [_surface_layer_outputs(form, samples) for form in forms]
    assert method == flat


@pytest.mark.parametrize("p, k", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_table_roots_match_horner_on_every_cubic(p, k):
    f = make_extension(p, k)
    for coeffs in itertools.product(range(f.q), repeat=4):
        assert surface._cubic_zeros(f, *coeffs) == horner_zeros(f, *coeffs), coeffs


def _product_of_roots(f, lead, roots):
    """Ascending coefficients of lead * prod (t - r), padded to four."""
    poly = [lead]
    for r in roots:
        shifted = [0] + poly
        poly = [f.sub(a, f.mul(r, b)) for a, b in zip(shifted, poly + [0])]
    return poly + [0] * (4 - len(poly))


@pytest.mark.parametrize("p, k", [(3, 3), (3, 4), (3, 5), (251, 1), (2, 8)])
def test_table_roots_match_horner_on_sampled_cubics(p, k):
    f = make_extension(p, k)
    q = f.q
    rng = random.Random(q)

    def unit():
        return rng.randrange(1, q)

    cubics = []
    for _ in range(150):
        r, s, t = (rng.randrange(q) for _ in range(3))
        cubics += [
            [rng.randrange(q) for _ in range(4)],
            _product_of_roots(f, unit(), [r, r, r]),  # a triple root
            _product_of_roots(f, unit(), [r, r, s]),
            _product_of_roots(f, unit(), [r, s, t]),
            _product_of_roots(f, unit(), [r, s]),  # the quadratic cases
            _product_of_roots(f, unit(), [r, r]),
            [rng.randrange(q), rng.randrange(q), unit(), 0],
            [rng.randrange(q), unit(), 0, 0],  # linear
            [unit(), 0, 0, 0],  # a nonzero constant
        ]
    cubics.append([0, 0, 0, 0])
    for coeffs in cubics:
        assert surface._cubic_zeros(f, *coeffs) == horner_zeros(f, *coeffs), coeffs


@pytest.mark.parametrize("form", [
    fermat_cubic(make_extension(2, 2)),
    fermat_cubic(F13),
    surface_with_27_lines_over_f64().embed(make_extension(2, 6)),
], ids=["fermat4", "fermat13", "example64"])
def test_pencil_basis_read_off_the_gradient_matches_the_plane_oracle(form):
    f = form.field
    for coords in zero_points(form):
        grad = form.gradient(coords)
        assert surface._pencil_basis(f, coords, grad) == pencil_basis(Plane3(f, grad), coords)


def test_classification_census_f5():
    form = fermat_cubic(F5)
    kinds = Counter()
    gammas = Counter()
    for coords in zero_points(form):
        point = ProjPoint(F5, coords)
        kinds[classify_point(form, point).kind] += 1
        gammas[gamma_curve(form, point).decomposition] += 1
    assert kinds == Counter({
        PointKind.PARABOLIC: 12,
        PointKind.HYPERBOLIC: 9,
        PointKind.ECKARDT: 6,
        PointKind.ELLIPTIC: 4,
    })
    assert gammas == Counter({
        GammaType.IRREDUCIBLE_CUSPIDAL: 12,
        GammaType.THREE_LINES: 9,
        GammaType.CONIC_PLUS_LINE: 6,
        GammaType.IRREDUCIBLE_NODAL: 4,
    })


#: (p, k, seed) of the sampled surfaces the classifier is checked on; with
#: the Fermat surfaces over GF(5), GF(8) and GF(13) they give every kind
#: and every line count in characteristic 2, 3 and above
ORACLE_DRAWS = [(2, 1, 1), (2, 2, 2), (2, 3, 3), (3, 2, 0), (13, 1, 4), (3, 3, 1)]


def test_classify_point_matches_tangent_section_oracle():
    forms = [fermat_cubic(make_extension(p, k)) for p, k in ((5, 1), (2, 3), (13, 1))]
    forms += [random_smooth_surface(make_extension(p, k), seed) for p, k, seed in ORACLE_DRAWS]
    seen = set()
    for form in forms:
        f = form.field
        for coords in zero_points(form):
            point = ProjPoint(f, coords)
            cls = classify_point(form, point)
            assert cls == tangent_section_class(form, point), (f.q, coords)
            seen.add((min(f.p, 5), cls.kind, cls.line_count))
    for char in (2, 3, 5):
        assert {kind for c, kind, _ in seen if c == char} == set(PointKind)
        assert {n for c, _, n in seen if c == char} == {0, 1, 2, 3}


def test_classify_point_builds_no_extension_field(monkeypatch):
    def refuse(*args):
        raise AssertionError("classify_point built an extension field")

    monkeypatch.setattr(surface, "make_extension", refuse)
    form = fermat_cubic(F5)
    kinds = Counter(classify_point(form, ProjPoint(F5, c)).kind for c in zero_points(form))
    assert kinds[PointKind.ELLIPTIC] == 4


def test_classify_point_rejects_a_point_off_the_surface():
    with pytest.raises(PointNotOnSurface):
        classify_point(fermat_cubic(F13), ProjPoint(F13, (1, 0, 0, 0)))


def test_classify_point_rejects_a_singular_point():
    with pytest.raises(SingularPoint):
        classify_point(CONE_F13, ProjPoint(F13, (0, 0, 0, 1)))
    with pytest.raises(SingularPoint):
        classify_point(TRIPLE_PLANE_F5, ProjPoint(F5, (0, 1, 2, 3)))


@pytest.mark.parametrize("p, k, seed", [(7, 1, 4), (2, 2, 2), (3, 2, 0)])
def test_tangent_pencil_identity(p, k, seed):
    """F(lam*u + mu*w) = mu^2 (lam cone(w) + mu cubic(w)) on sampled tangent lines."""
    f = make_extension(p, k)
    form = random_smooth_surface(f, seed)
    add, mul = f.add, f.mul
    rng = random.Random(seed)

    def at(coeffs, s, t):
        acc = 0
        for i, c in enumerate(coeffs):
            term = c
            for _ in range(len(coeffs) - 1 - i):
                term = mul(term, s)
            for _ in range(i):
                term = mul(term, t)
            acc = add(acc, term)
        return acc

    for u in zero_points(form):
        e0, e1, cubic, cone = tangent_pencil(form, u, form.gradient(u))
        for _ in range(3):
            s, t, lam, mu = (rng.randrange(f.q) for _ in range(4))
            w = [add(mul(s, a), mul(t, b)) for a, b in zip(e0, e1)]
            x = [add(mul(lam, a), mul(mu, b)) for a, b in zip(u, w)]
            rhs = mul(mul(mu, mu), add(mul(lam, at(cone, s, t)), mul(mu, at(cubic, s, t))))
            assert form.evaluate(x) == rhs


def test_classification_census_f7():
    form = fermat_cubic(F7)
    kinds = Counter(classify_point(form, ProjPoint(F7, c)).kind for c in zero_points(form))
    assert kinds == Counter({PointKind.HYPERBOLIC: 81, PointKind.ECKARDT: 18})


def test_line_count_distribution_f13():
    form = fermat_cubic(F13)
    counts = Counter(classify_point(form, ProjPoint(F13, c)).line_count for c in zero_points(form))
    assert counts == Counter({1: 162, 2: 81, 3: 18})


def test_ternary_matches_kind():
    form = fermat_cubic(F5)
    for coords in zero_points(form):
        cls = classify_point(form, ProjPoint(F5, coords))
        assert cls.ternary == (cls.kind is not PointKind.ELLIPTIC)


def test_classification_respects_coordinate_permutation():
    form = fermat_cubic(F5)
    sample = [(1, 2, 3, 4), (1, 0, 0, 4), (1, 2, 4, 3)]
    for coords in sample:
        if form.evaluate(coords) != 0:
            continue
        base = classify_point(form, ProjPoint(F5, coords))
        for perm in itertools.permutations(range(4)):
            moved = tuple(coords[i] for i in perm)
            assert classify_point(form, ProjPoint(F5, moved)).kind is base.kind


def test_asymptotic_lines_eckardt():
    form = fermat_cubic(F13)
    asym = asymptotic_lines(form, ProjPoint(F13, (1, 12, 0, 0)))
    assert asym.cardinality == "infinite"
    assert len(asym.lines) == 14


def test_asymptotic_lines_hyperbolic_both_on_surface():
    form = fermat_cubic(F13)
    asym = asymptotic_lines(form, ProjPoint(F13, (1, 1, 4, 4)))
    assert asym.cardinality == 2
    assert len(asym.lines) == 2
    for line in asym.lines:
        assert intersect_line(form, line).contained


def test_asymptotic_line_off_surface_cuts_triple_point():
    form = fermat_cubic(F5)
    for coords in zero_points(form):
        point = ProjPoint(F5, coords)
        gamma = gamma_curve(form, point)
        if gamma.decomposition is not GammaType.CONIC_PLUS_LINE:
            continue
        asym = asymptotic_lines(form, point)
        assert asym.cardinality == 2
        cycles = [intersect_line(form, line) for line in asym.lines]
        contained = [c for c in cycles if c.contained]
        cut = [c for c in cycles if not c.contained]
        assert len(contained) == 1 and len(cut) == 1
        assert cut[0].multiplicity_at(point) == 3
        return
    pytest.fail("no conic-plus-line point found")


def test_asymptotic_line_parabolic():
    form = fermat_cubic(F5)
    for coords in zero_points(form):
        point = ProjPoint(F5, coords)
        if classify_point(form, point).kind is not PointKind.PARABOLIC:
            continue
        asym = asymptotic_lines(form, point)
        assert asym.cardinality == 1
        assert len(asym.lines) == 1
        div = intersect_line(form, asym.lines[0])
        assert div.multiplicity_at(point) == 3
        return
    pytest.fail("no parabolic point found")


def test_elliptic_point_has_no_rational_asymptotic_line():
    form = fermat_cubic(F5)
    for coords in zero_points(form):
        point = ProjPoint(F5, coords)
        if classify_point(form, point).kind is not PointKind.ELLIPTIC:
            continue
        asym = asymptotic_lines(form, point)
        assert asym.cardinality == 2
        assert asym.lines == ()
        return
    pytest.fail("no elliptic point found")


def test_gauss_map_fermat_f13():
    form = fermat_cubic(F13)
    for line in lines_on_surface(form):
        gm = gauss_on_line(form, line)
        assert gm.separable
        assert gm.degree == 2
        assert gm.closure_ramification == 2
        assert len(gm.parabolic_points) == 2
        # on this surface every ramification point is an Eckardt point
        assert gm.eckardt_points == gm.parabolic_points
        ram = set(gm.parabolic_points)
        for point in line.points():
            kind = classify_point(form, point).kind
            if point in ram:
                assert kind is PointKind.ECKARDT
            else:
                assert kind is PointKind.HYPERBOLIC


def test_gauss_map_rejects_transverse_line():
    form = fermat_cubic(F13)
    line = line_through(ProjPoint(F13, (1, 0, 0, 1)), ProjPoint(F13, (0, 1, 3, 0)))
    with pytest.raises(LineNotOnSurface):
        gauss_on_line(form, line)


def test_char2_surface_is_smooth():
    assert is_smooth(surface_with_27_lines_over_f64()) is True


def test_char2_surface_has_27_lines_over_f64():
    form = surface_with_27_lines_over_f64()
    assert len(lines_on_surface(form)) == 3
    lines = lines_on_surface(form, extension=6)
    assert len(lines) == 27
    assert lines[0].field.q == 64


def test_char2_eckardt_census():
    form = surface_with_27_lines_over_f64()
    lines = lines_on_surface(form, extension=6)
    ext = lines[0].field
    lifted = form.embed(ext)
    eck = eckardt_points(lifted)
    assert len(eck) == 13
    eck_set = set(eck)
    histogram = Counter(
        sum(1 for p in line.points() if p in eck_set) for line in lines
    )
    assert histogram == Counter({1: 24, 5: 3})


def test_char2_classification_census_is_pinned():
    ext = make_extension(2, 6)
    lifted = surface_with_27_lines_over_f64().embed(ext)
    classes = [classify_point(lifted, ProjPoint(ext, c)) for c in zero_points(lifted)]
    assert Counter(c.kind.value for c in classes) == Counter(
        {"hyperbolic": 3200, "elliptic": 1152, "parabolic": 180, "eckardt": 13}
    )
    assert Counter(c.line_count for c in classes) == Counter({0: 2912, 1: 1524, 2: 96, 3: 13})


def test_char2_gauss_separability():
    form = surface_with_27_lines_over_f64()
    lines = lines_on_surface(form, extension=6)
    lifted = form.embed(lines[0].field)
    inseparable = []
    for line in lines:
        gm = gauss_on_line(lifted, line)
        if gm.separable:
            assert gm.closure_ramification == 1
            assert len(gm.parabolic_points) == 1
            assert len(gm.eckardt_points) == 1
        else:
            assert gm.closure_ramification == "all"
            assert len(gm.parabolic_points) == 65
            assert len(gm.eckardt_points) == 5
            inseparable.append(line)
    assert len(inseparable) == 3
