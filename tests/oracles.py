"""Brute-force enumerations that the tests compare the fast paths against.

Enumeration orders match the package's contract: points run chart by
chart with the last free coordinate fastest, and lines ascend
lexicographically by their flattened canonical 2x4 matrix.  The
reduction oracles search every (z, w) slice and reduce every point, with
no residue deduplication.  The plane-cubic oracles find third points by
the pencil of each line and group shapes on an independent Weierstrass
model.  The presentation oracle collects every generating sum at the
point level before merging classes, and the generation oracle reads a
full Smith form.

The smoothness witness search singular_witness scans the rational points
and then the contained lines for a singular point; is_smooth decides
smoothness from one matrix rank and looks for no point.

The tangent-section oracle gamma_curve pulls the surface back to the
tangent plane and re-expands it around the point, lifting conjugate
asymptotic directions to GF(q^2); classify_point, which reads the same
answer off the tangent pencil, is compared against it.

The closure oracle reference_closure is SpanTable.closure without its
stops at the point where a fixpoint run has reached every point or a
point already known to span: it reads every remaining turn, so it checks
the statistics the fast path returns.  It also keeps the stop that
SpanTable.closure no longer has, once a given target set is all members.  reference_span_lemmas asks each span
lemma question of its own closure run with that stop, instead of reading
one fixpoint closure per seed set as verify_span_lemmas does.

The reduction kernels have two references: the saturated line basis read
off a full Smith form, and rational cubic roots by the divisor sieve
(signed divisors of c0 over divisors of c3, filtered mod 101 and 103),
which factors both end coefficients.  The del Pezzo line check, which
instantiates both line orbits of the degree-4 model over F_p and tests
containment pointwise, checks a lemma of the paper and has no caller in
the package.

The root tables of the surface scans have the Horner scan at every code
as their oracle (horner_zeros), and the pencil basis read off a gradient
has the spanning points of the normalized tangent plane (pencil_basis).

The rest is geometry and arithmetic only the tests use: Plucker
coordinates, line-plane meets, the intersection cycle of a line with the
surface (intersect_line, the oracle of the secant table), the pencil of
lines of a plane through a point, tangent planes, asymptotic lines, the
Gauss map along a contained line, cube roots of unity, coordinates on a
good line, the rational root count of a binary cubic and whether it
splits, the third point on a line of the plane cubic, the positive
slopes of a Newton polygon, the difference class [P - Q], the free rank
of H, and exact checks of the Smith transforms.
"""

import heapq
from array import array
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Iterable, Iterator, Optional, Sequence, Union

from cubicspan.errors import (
    BadPrime,
    ConfigurationAbsent,
    ConstantsUnavailable,
    EqualPoints,
    HypothesisFailed,
    LineNotOnSurface,
    NotFullyRational,
    NotPrime,
    PointNotOnSurface,
    SingularPoint,
)
from cubicspan.field import (
    CubicRoots,
    ExtField,
    _deflate,
    embedding,
    factorize,
    is_prime,
    make_extension,
    roots_of_cubic,
    solve_quadratic,
    univariate_gcd,
)
from cubicspan.hsgroup import (
    GroupStructure,
    HsClass,
    ZPresentation,
    _identity,
    snf_with_transforms,
)
from cubicspan.planecubic import (
    CurvePoint,
    _normalized,
    _third_coords,
    curve_point,
    curve_points,
    group_structure,
)
from cubicspan.projgeo import (
    Line3,
    Plane3,
    ProjPoint,
    dot4,
    line_through,
    normalize,
    rank,
    skew,
)
from cubicspan.reduction import (
    FAMILY_S,
    GoodLineParam,
    NewtonPolygon,
    RankBoundReport,
    ReductionCoverage,
    SurfacePoint,
    _hnf_pair,
    _primitive4,
    _quadratic_pair,
    base_surface_point,
    family_tag,
    rank_bound_m,
    reduce_to_curve,
    reduction_class,
)
from cubicspan.span import (
    SpanLemmaReport,
    SpanTable,
    _eckardt_by_cone,
    _ternary_by_cone,
    span_closure,
    verify_skew_singleton_span,
)
from cubicspan.surface import (
    FAMILIES,
    CubicForm,
    PointClass,
    PointKind,
    _binary_quadratic_roots,
    _mono_indices,
    _restrict_terms_to_line,
    _smooth_gradient,
    _substitute_linear,
    classify_point,
    is_eckardt,
    lines_on_surface,
    tangent_pencil,
    zero_points,
)


def enumerate_point_tuples(field: ExtField) -> Iterator[tuple[int, ...]]:
    """All points of P^3 as normalized coordinate tuples, chart by chart."""
    q = field.q
    for y in range(q):
        for z in range(q):
            for w in range(q):
                yield (1, y, z, w)
    for z in range(q):
        for w in range(q):
            yield (0, 1, z, w)
    for w in range(q):
        yield (0, 0, 1, w)
    yield (0, 0, 0, 1)


def count_lines(q: int) -> int:
    return (q * q + 1) * (q * q + q + 1)


def _pattern_streams(field: ExtField):
    q = field.q
    elems = range(q)

    def pat01():
        for a in elems:
            for b in elems:
                for c in elems:
                    for d in elems:
                        yield ((1, 0, a, b), (0, 1, c, d))

    def pat02():
        for a in elems:
            for b in elems:
                for c in elems:
                    yield ((1, a, 0, b), (0, 0, 1, c))

    def pat03():
        for a in elems:
            for b in elems:
                yield ((1, a, b, 0), (0, 0, 0, 1))

    def pat12():
        for a in elems:
            for b in elems:
                yield ((0, 1, 0, a), (0, 0, 1, b))

    def pat13():
        for a in elems:
            yield ((0, 1, a, 0), (0, 0, 0, 1))

    def pat23():
        yield ((0, 0, 1, 0), (0, 0, 0, 1))

    return [pat01(), pat02(), pat03(), pat12(), pat13(), pat23()]


def enumerate_canonical_rows(field: ExtField) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Canonical 2x4 RREF row pairs for every line, in flattened lex order."""
    return heapq.merge(*_pattern_streams(field), key=lambda rows: rows[0] + rows[1])


def enumerate_lines(field: ExtField) -> Iterator[Line3]:
    for rows in enumerate_canonical_rows(field):
        yield Line3(field, rows, _canonical=True)


def groebner_smooth(form) -> bool:
    """Smoothness of a cubic surface over GF(p^k) by sympy Groebner bases.

    The field generator becomes a variable a bound by the field's modulus,
    so the bases are computed over GF(p).  The surface is smooth exactly
    when F and its four partials have no common zero in any affine chart
    x_i = 1, that is, when every chart's basis is {1}.
    """
    import sympy

    field = form.field
    a = sympy.Symbol("a")
    xs = sympy.symbols("x0:4")

    def element(code):
        return sum(c * a**i for i, c in enumerate(field.decode(code)))

    cubic = sum(
        element(c) * sympy.Mul(*(x**e for x, e in zip(xs, mono)))
        for mono, c in form.coeffs.items()
    )
    system = [cubic] + [sympy.diff(cubic, x) for x in xs]
    modulus = sum(c * a**i for i, c in enumerate(field.modulus))
    for i, x in enumerate(xs):
        chart = [sympy.expand(g.subs(x, 1)) for g in system]
        gens = [y for y in xs if y is not x]
        if field.k > 1:
            chart.append(modulus)
            gens.append(a)
        basis = sympy.groebner(chart, *gens, modulus=field.p, order="grevlex")
        if list(basis.exprs) != [1]:
            return False
    return True


def full_point_search(family: str, m: int, height: int) -> list[SurfacePoint]:
    """Meet-in-the-middle over every (z, w), the slice z = 0 included."""
    family = family_tag(family)
    h = height
    cube = {i: i ** 3 for i in range(-h, h + 1)}
    pair_sums: dict[int, list[tuple[int, int]]] = {}
    for x in range(-h, h + 1):
        for y in range(x, h + 1):
            pair_sums.setdefault(cube[x] + cube[y], []).append((x, y))
    bound = 2 * h ** 3
    seen = set()
    is_s = family == FAMILY_S
    for z in range(-h, h + 1):
        for w in range(-h, h + 1):
            k = -(cube[z] + (m * z * w * w if is_s else m * cube[w]))
            if k < -bound or k > bound:
                continue
            for x, y in pair_sums.get(k, ()):
                for c in ((x, y, z, w), (y, x, z, w)):
                    if not any(c) or gcd(gcd(c[0], c[1]), gcd(c[2], c[3])) != 1:
                        continue
                    if next(v for v in c if v) < 0:
                        c = tuple(-v for v in c)
                    seen.add(c)
    return [SurfacePoint(family, m, c) for c in sorted(seen)]


def per_point_coverage(points, p: int) -> ReductionCoverage:
    """Curve coverage with every point reduced."""
    hit = set()
    for pt in points:
        red = reduce_to_curve(pt, p)
        if red.point is not None:
            hit.add(red.point)
    everything = curve_points(p)
    missed = tuple(a for a in everything if a not in hit)
    return ReductionCoverage(p=p, hit=len(hit), total=len(everything), missed=missed)


def per_point_rank_bound(family: str, primes, points) -> RankBoundReport:
    """The rank bound with one row per point; no hypothesis checks."""
    family = family_tag(family)
    n = FAMILIES[family].modulus
    primes = tuple(primes)
    m = rank_bound_m(family, primes)

    def classes(pt):
        return [reduction_class(pt, p) for p in primes]

    base = classes(base_surface_point(family, m))
    base_vec = [c for cls in base for c in cls.quotient.coordinates(cls)]
    rows = []
    for pt in points:
        vec = [c for cls in classes(pt) for c in cls.quotient.coordinates(cls)]
        rows.append([(a - b) % n for a, b in zip(vec, base_vec)])
    return RankBoundReport(
        family=family,
        m=m,
        primes=primes,
        modulus=n,
        achieved_dim=rank(make_extension(n, 1), rows),
        target_dim=sum(cls.quotient.dim for cls in base),
        points_used=len(rows),
    )


def _tangent_second_point(a: CurvePoint) -> tuple[int, int, int]:
    """A point other than a itself on the tangent line at a."""
    p = a.p
    n = tuple(3 * x * x % p for x in a.coords)
    j0 = next(i for i, x in enumerate(n) if x)
    basis = []
    for m in range(3):
        if m == j0:
            continue
        vec = [0, 0, 0]
        vec[m] = 1
        vec[j0] = (-n[m] * pow(n[j0], -1, p)) % p
        basis.append(tuple(vec))
    pc = [a.coords[m] for m in range(3) if m != j0]
    m0 = next(i for i, x in enumerate(pc) if x)
    return basis[1 - m0]


def pencil_third_point(a: CurvePoint, b: CurvePoint) -> CurvePoint:
    """The third point on the line through a and b, found in its pencil.

    A chord is the pencil s*a + t*b and a tangent the pencil through a
    and a second point w of the tangent line; the cubic restricted to the
    pencil gives the residual root, validated through curve_point.
    """
    p = a.p
    u = a.coords
    if a != b:
        v = b.coords
        c1 = sum(3 * x * x * y for x, y in zip(u, v)) % p
        c2 = sum(3 * y * y * x for x, y in zip(u, v)) % p
        return curve_point(p, tuple((c2 * x - c1 * y) % p for x, y in zip(u, v)))
    w = _tangent_second_point(a)
    c2 = sum(3 * x * x * y for x, y in zip(w, u)) % p
    c3 = sum(x ** 3 for x in w) % p
    return curve_point(p, tuple((c3 * x - c2 * y) % p for x, y in zip(u, w)))


def third_point(a: CurvePoint, b: CurvePoint) -> CurvePoint:
    """The residual intersection of the line through a and b (tangent when
    a = b) with the curve, by the package's closed form."""
    return _normalized(a.p, _third_coords(a, b))


def flexes(p: int) -> list[CurvePoint]:
    """Points whose tangent meets the curve triply there."""
    return [a for a in curve_points(p) if third_point(a, a) == a]


def weierstrass_model_agrees(p: int) -> bool:
    """Whether y^2 + y = x^3 - 7 has the same count and shape over F_p.

    A model comparison without a coordinate map; only meaningful away
    from 2 and 3.
    """
    if p in (2, 3):
        raise BadPrime("the Weierstrass comparison needs p coprime to 6")
    expected = len(curve_points(p))  # rejects p that is not prime
    count = 1  # the point at infinity
    pts = []
    for x in range(p):
        rhs = (x ** 3 - 7) % p
        for y in range(p):
            if (y * y + y) % p == rhs:
                count += 1
                pts.append((x, y))
    if count != expected:
        return False
    return _weierstrass_structure(p, pts) == group_structure(p)


def _w_add(p, a, b):
    if a is None:
        return b
    if b is None:
        return a
    x1, y1 = a
    x2, y2 = b
    if x1 == x2 and (y1 + y2 + 1) % p == 0:
        return None
    if a == b:
        lam = 3 * x1 * x1 * pow(2 * y1 + 1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    y3 = (-(lam * (x3 - x1) + y1) - 1) % p
    return (x3, y3)


def _weierstrass_structure(p, pts) -> tuple[int, ...]:
    n = len(pts) + 1
    exponent = 1
    for a in pts:
        acc = a
        k = 1
        while acc is not None:
            acc = _w_add(p, acc, a)
            k += 1
        exponent = lcm(exponent, k)
    d1 = n // exponent
    return (exponent,) if d1 == 1 else (d1, exponent)


# -- projective geometry only the tests use -----------------------------


def plucker(line: Line3) -> tuple[int, ...]:
    """Normalized Plucker coordinates (p01, p02, p03, p12, p13, p23)."""
    f = line.field
    r0, r1 = line.rows
    raw = [
        f.sub(f.mul(r0[i], r1[j]), f.mul(r0[j], r1[i]))
        for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    ]
    return normalize(f, raw)


def meet(line: Line3, plane: Plane3) -> Union[ProjPoint, str]:
    """Intersection with a plane: a point, or "contained"."""
    f = line.field
    a = dot4(f, plane.covector, line.rows[0])
    b = dot4(f, plane.covector, line.rows[1])
    if a == 0 and b == 0:
        return "contained"
    # solve a s + b t = 0
    if a == 0:
        return line.point_at(1, 0)
    return line.point_at(f.neg(b), a)


def plane_point_basis(plane: Plane3) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Three spanning points of a plane, one per non-pivot coordinate."""
    f = plane.field
    n = plane.covector
    j0 = next(i for i, c in enumerate(n) if c)
    basis = []
    for m in range(4):
        if m == j0:
            continue
        vec = [0, 0, 0, 0]
        vec[m] = 1
        vec[j0] = f.neg(f.div(n[m], n[j0]))
        basis.append(tuple(vec))
    return basis[0], basis[1], basis[2]


def pencil_basis(plane: Plane3, coords: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The basis pair (e0, e1) that indexes the lines of a plane through a point.

    The point's coordinates must lie in the plane.  The pair is what is left
    of plane_point_basis after dropping the spanning point that carries the
    point's first nonzero coordinate.  It is the oracle of
    surface._pencil_basis, which reads the same pair off a gradient.
    """
    basis = plane_point_basis(plane)
    j0 = next(i for i, c in enumerate(plane.covector) if c)
    pc = [coords[m] for m in range(4) if m != j0]
    m0 = next(i for i, c in enumerate(pc) if c)
    e0, e1 = [basis[i] for i in range(3) if i != m0]
    return e0, e1


def pencil_second_points(plane: Plane3, coords: Sequence[int]) -> list[tuple[int, ...]]:
    """A second point on each of the q+1 lines of a plane through a point.

    The pencil is indexed by P^1 over pencil_basis (e0, e1), as e0 + t*e1
    for each field code t, then e1.  The points are not normalized.
    """
    f = plane.field
    e0, e1 = pencil_basis(plane, coords)
    out = [tuple(f.add(a, f.mul(t, b)) for a, b in zip(e0, e1)) for t in f.elements()]
    out.append(e1)
    return out


def lines_in_plane_through(plane: Plane3, point: ProjPoint) -> list[Line3]:
    """The q+1 lines of a plane through one of its points, in the order of
    pencil_second_points."""
    if not plane.contains(point):
        raise ValueError("point does not lie in the plane")
    return [
        line_through(point, ProjPoint(plane.field, second))
        for second in pencil_second_points(plane, point.coords)
    ]


# -- surface geometry only the tests use --------------------------------


def _quadratic_lift(field: ExtField, quad: Sequence[int], u: Sequence[int], v: Sequence[int]):
    """The quadratic extension and (u + t*v, multiplicity) for each root t of
    quad[0] + quad[1] t + quad[2] t^2 there, by root code."""
    ext = make_extension(field.p, 2 * field.k)
    emb = embedding(field, ext)
    ue = [emb(c) for c in u]
    ve = [emb(c) for c in v]
    points = [
        (tuple(ext.add(a, ext.mul(t, b)) for a, b in zip(ue, ve)), mult)
        for t, mult in solve_quadratic(ext, emb(quad[2]), emb(quad[1]), emb(quad[0]))
    ]
    return ext, points


@dataclass(frozen=True)
class DivisorEntry:
    point: ProjPoint
    multiplicity: int
    degree: int  # of the point's field of definition over the base field


@dataclass(frozen=True)
class IntersectionDivisor:
    """The degree-3 cycle cut on the surface by a line not contained in it.

    Entries carry exact coordinates; rational points live over the base
    field (degree 1) and resolved conjugate pairs over its quadratic
    extension.  Irreducible cubic factors are reported in unresolved as
    (degree, root count) without coordinates.
    """

    line: Line3
    contained: bool
    entries: tuple[DivisorEntry, ...]
    unresolved: tuple[tuple[int, int], ...]

    @property
    def fully_rational(self) -> bool:
        return not self.contained and all(e.degree == 1 for e in self.entries) and not self.unresolved

    @property
    def total_multiplicity(self) -> int:
        return sum(e.multiplicity for e in self.entries) + sum(n for _, n in self.unresolved)

    def multiplicity_at(self, point: ProjPoint) -> int:
        for e in self.entries:
            if e.point == point:
                return e.multiplicity
        return 0


def _leftover_factor(f: ExtField, coeffs: Sequence[int], cr: CubicRoots) -> list[int]:
    """The factor of the cubic (ascending in t at s = 1) left once the
    rational roots that roots_of_cubic found are divided out."""
    work = list(coeffs)
    while work[-1] == 0:
        work.pop()  # a root at infinity lowers the degree in t
    for (s, t), mult in cr.rational:
        for _ in range(mult if s else 0):
            work = _deflate(f, work, t)
    return work


def intersect_line(form: CubicForm, line: Line3) -> IntersectionDivisor:
    """The intersection cycle line . S as a root multiset of a binary cubic."""
    f = form.field
    if f is not line.field:
        raise ValueError("line and surface live over different fields")
    u, v = line.rows
    coeffs = form.restrict_to_line(u, v)
    if not any(coeffs):
        return IntersectionDivisor(line, True, (), ())
    cr = roots_of_cubic(f, coeffs)
    entries = [
        DivisorEntry(line.point_at(s, t), mult, 1) for (s, t), mult in cr.rational
    ]
    unresolved: list[tuple[int, int]] = []
    if cr.extension_roots == 2:
        ext, lifted = _quadratic_lift(f, _leftover_factor(f, coeffs, cr), u, v)
        entries.extend(DivisorEntry(ProjPoint(ext, c), mult, 2) for c, mult in lifted)
    elif cr.extension_roots:
        # an irreducible cubic factor: degree 3, three conjugate roots
        unresolved.append((3, 3))
    return IntersectionDivisor(line, False, tuple(entries), tuple(unresolved))


def singular_witness(form: CubicForm):
    """A singular point of the surface, found by search, or None.

    Rational points are scanned first, then every contained rational line
    for a conjugate pair.  The result is (degree of the point's field over
    the base field, coordinates over that field).  A singular surface whose
    singular points all have degree 3 or more, or a degree-2 pair on no
    rational line, gets None; surface.is_smooth decides smoothness without
    this search.
    """
    for coords in zero_points(form):
        if not any(form.gradient(coords)):
            return (1, coords)
    for line in lines_on_surface(form):
        witness = _singular_point_on_line(form, line)
        if witness is not None:
            return witness
    return None


def partial_on_line(form: CubicForm, i: int, u, v) -> tuple:
    """The i-th partial restricted to s*u + t*v, as (A, B, C) on s^2, st, t^2."""
    return tuple(_restrict_terms_to_line(form.field, form._partials()[i], u, v)[:3])


def _singular_point_on_line(form: CubicForm, line: Line3):
    """A singular point of degree 2 on a contained line, if there is one.

    The partials restrict to binary quadratics along the line, and their
    common roots are its singular points.  singular_witness calls this only
    once no rational point is singular, so the one case left is a gcd (at
    s = 1) that is an irreducible quadratic: a conjugate pair over F_{q^2}.
    """
    f = form.field
    u, v = line.rows
    g: list[int] = []
    for i in range(4):
        g = univariate_gcd(f, g, partial_on_line(form, i, u, v))
    if len(g) != 3 or solve_quadratic(f, g[2], g[1], g[0]):
        return None
    ext, lifted = _quadratic_lift(f, g, u, v)
    return (2, normalize(ext, lifted[0][0]))


def tangent_plane(form: CubicForm, point: ProjPoint) -> Plane3:
    """The plane with covector grad F at a smooth surface point."""
    if form.evaluate(point.coords) != 0:
        raise PointNotOnSurface(f"{point} is not on the surface")
    grad = form.gradient(point.coords)
    if not any(grad):
        raise SingularPoint(f"gradient vanishes at {point}")
    return Plane3(form.field, grad)


class GammaType(Enum):
    """Decomposition over the algebraic closure of a tangent-plane section."""

    THREE_LINES = "three-lines"
    CONIC_PLUS_LINE = "conic-plus-line"
    IRREDUCIBLE_NODAL = "irreducible-nodal"
    IRREDUCIBLE_CUSPIDAL = "irreducible-cuspidal"


@dataclass(frozen=True)
class GammaCurve:
    """The plane cubic cut on the surface by the tangent plane at a point.

    The curve is expressed in coordinates on the tangent plane through the
    three basis vectors; base_point is the distinguished (singular) point in
    those coordinates.  tangent_cone is (A, B, C) for A s^2 + B st + C t^2
    in the local frame whose directions map to local_directions in P^3.
    singularity names the tangent-cone root pattern at the base point:
    "node" for two distinct directions, "cusp" for one double direction,
    "triple" when the quadratic part vanishes identically.
    """

    plane: Plane3
    basis: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    cubic: dict
    base_point: tuple[int, int, int]
    tangent_cone: tuple[int, int, int]
    cone_roots: tuple[tuple[tuple[int, int], int], ...]
    cone_extension_roots: int
    cubic_tail: tuple[int, int, int, int]
    local_directions: tuple[tuple[int, ...], tuple[int, ...]]
    decomposition: GammaType
    singularity: str
    lines_through_base: tuple[Line3, ...]
    closure_lines_through_base: int


def _dict_terms(poly: dict) -> list[tuple[object, tuple[int, ...]]]:
    return [(c, _mono_indices(mono)) for mono, c in poly.items()]


def _curve_contains_line(field, cubic_terms, pa, pb) -> bool:
    """Whether the P^2 line through two plane points lies inside a ternary cubic."""
    return not any(_restrict_terms_to_line(field, cubic_terms, pa, pb))


def gamma_curve(form: CubicForm, point: ProjPoint) -> GammaCurve:
    """The tangent-plane section at a smooth point, with its local analysis."""
    f = form.field
    if form.evaluate(point.coords) != 0:
        raise PointNotOnSurface(f"{point} is not on the surface")
    grad = form.gradient(point.coords)
    if not any(grad):
        raise SingularPoint(f"gradient vanishes at {point}")
    plane = Plane3(f, grad)
    n = plane.covector
    pivot = next(i for i, c in enumerate(n) if c)
    others = [j for j in range(4) if j != pivot]
    basis = []
    for j in others:
        vec = [0, 0, 0, 0]
        vec[j] = 1
        vec[pivot] = f.neg(f.div(n[j], n[pivot]))
        basis.append(tuple(vec))
    basis = tuple(basis)
    cubic = form.restrict_to_plane(basis)
    pp = normalize(f, tuple(point.coords[j] for j in others))
    m = next(i for i, c in enumerate(pp) if c)
    a_idx, b_idx = [i for i in range(3) if i != m]
    ea = tuple(1 if i == a_idx else 0 for i in range(3))
    eb = tuple(1 if i == b_idx else 0 for i in range(3))
    cubic_terms = _dict_terms(cubic)
    shifted = _substitute_linear(f, cubic_terms, (pp, ea, eb))
    get = shifted.get
    if get((3, 0, 0), 0) or get((2, 1, 0), 0) or get((2, 0, 1), 0):
        raise RuntimeError("tangent-plane section is not singular at the base point")
    cone = (get((1, 2, 0), 0), get((1, 1, 1), 0), get((1, 0, 2), 0))
    tail = (get((0, 3, 0), 0), get((0, 2, 1), 0), get((0, 1, 2), 0), get((0, 0, 3), 0))
    dirs = (basis[a_idx], basis[b_idx])

    def plane_dir(s: int, t: int) -> tuple[int, int, int]:
        return tuple(f.add(f.mul(s, x), f.mul(t, y)) for x, y in zip(ea, eb))

    def line_from_dir(s: int, t: int) -> Line3:
        second = [f.add(f.mul(s, x), f.mul(t, y)) for x, y in zip(dirs[0], dirs[1])]
        return line_through(point, ProjPoint(f, second))

    if not any(cone):
        # triple point: the section is three concurrent lines
        cr = roots_of_cubic(f, tail)
        lines = tuple(line_from_dir(s, t) for (s, t), _ in cr.rational)
        closure = len(cr.rational) + cr.extension_roots
        return GammaCurve(
            plane, basis, cubic, pp, cone, (), 0, tail, dirs,
            GammaType.THREE_LINES, "triple", lines, closure,
        )

    roots, ext_count = _binary_quadratic_roots(f, *cone)
    if ext_count:
        # conjugate direction pair: test one of the two lines over the
        # quadratic extension; divisibility is Galois-stable
        ext, lifted = _quadratic_lift(f, cone, ea, eb)
        emb = embedding(f, ext)
        terms_e = [(emb(c), idxs) for c, idxs in cubic_terms]
        pp_e = tuple(emb(c) for c in pp)
        if _curve_contains_line(ext, terms_e, pp_e, lifted[0][0]):
            return GammaCurve(
                plane, basis, cubic, pp, cone, tuple(roots), ext_count, tail, dirs,
                GammaType.THREE_LINES, "node", (), 2,
            )
        return GammaCurve(
            plane, basis, cubic, pp, cone, tuple(roots), ext_count, tail, dirs,
            GammaType.IRREDUCIBLE_NODAL, "node", (), 0,
        )

    contained_dirs = [
        (s, t) for (s, t), _ in roots if _curve_contains_line(f, cubic_terms, pp, plane_dir(s, t))
    ]
    lines = tuple(line_from_dir(s, t) for s, t in contained_dirs)
    if len(roots) == 1:
        # one double direction
        if contained_dirs:
            decomposition = GammaType.CONIC_PLUS_LINE
        else:
            decomposition = GammaType.IRREDUCIBLE_CUSPIDAL
        return GammaCurve(
            plane, basis, cubic, pp, cone, tuple(roots), 0, tail, dirs,
            decomposition, "cusp", lines, len(lines),
        )
    if len(contained_dirs) == 2:
        decomposition = GammaType.THREE_LINES
    elif len(contained_dirs) == 1:
        decomposition = GammaType.CONIC_PLUS_LINE
    else:
        decomposition = GammaType.IRREDUCIBLE_NODAL
    return GammaCurve(
        plane, basis, cubic, pp, cone, tuple(roots), 0, tail, dirs,
        decomposition, "node", lines, len(lines),
    )


def tangent_section_class(form: CubicForm, point: ProjPoint) -> PointClass:
    """The point class read off gamma_curve: the singularity of the tangent
    section gives the kind, and its contained lines the line count."""
    gamma = gamma_curve(form, point)
    if gamma.singularity == "triple":
        kind = PointKind.ECKARDT
    elif gamma.singularity == "cusp":
        kind = PointKind.PARABOLIC
    elif gamma.cone_extension_roots:
        kind = PointKind.ELLIPTIC
    else:
        kind = PointKind.HYPERBOLIC
    return PointClass(kind, kind is not PointKind.ELLIPTIC, gamma.closure_lines_through_base)


@dataclass(frozen=True)
class AsymptoticLines:
    lines: tuple[Line3, ...]
    cardinality: Union[int, str]  # 1, 2 or "infinite" over the closure


def asymptotic_lines(form: CubicForm, point: ProjPoint) -> AsymptoticLines:
    """All rational lines meeting the surface with multiplicity >= 3 at the point."""
    gamma = gamma_curve(form, point)
    f = form.field
    if gamma.singularity == "triple":
        pencil = lines_in_plane_through(gamma.plane, point)
        return AsymptoticLines(tuple(pencil), "infinite")
    lines = []
    for (s, t), _mult in gamma.cone_roots:
        second = [f.add(f.mul(s, x), f.mul(t, y)) for x, y in zip(*gamma.local_directions)]
        lines.append(line_through(point, ProjPoint(f, second)))
    return AsymptoticLines(tuple(lines), 1 if gamma.singularity == "cusp" else 2)


@dataclass(frozen=True)
class GaussMapOnLine:
    """Degree-2 data of P -> tangent plane at P along a line on the surface.

    coordinate_forms holds the two binary quadratics whose ratio realizes
    the map in the pencil of planes through the line; their common zeros
    would be singular surface points, so none exist here.
    """

    line: Line3
    separable: bool
    coordinate_forms: tuple[tuple[int, int, int], tuple[int, int, int]]
    parabolic_points: tuple[ProjPoint, ...]
    eckardt_points: tuple[ProjPoint, ...]
    closure_ramification: Union[int, str]  # 2, 1, or "all"
    degree: int = 2


def gauss_on_line(form: CubicForm, line: Line3) -> GaussMapOnLine:
    """Ramification data of the tangent-plane map along a contained line."""
    f = form.field
    u, v = line.rows
    if any(form.restrict_to_line(u, v)):
        raise LineNotOnSurface(f"{line} is not contained in the surface")
    pivots = [next(i for i, c in enumerate(row) if c) for row in line.rows]
    m1, m2 = [i for i in range(4) if i not in pivots]
    q = partial_on_line(form, m1, u, v)
    r = partial_on_line(form, m2, u, v)
    if f.p == 2:
        if q[1] == 0 and r[1] == 0:
            pts = tuple(line.points())
            eck = tuple(p for p in pts if classify_point(form, p).kind is PointKind.ECKARDT)
            return GaussMapOnLine(line, False, (q, r), pts, eck, "all")
        fiber_s2 = f.sub(f.mul(r[1], q[0]), f.mul(q[1], r[0]))
        fiber_t2 = f.sub(f.mul(r[1], q[2]), f.mul(q[1], r[2]))
        if fiber_s2 == 0 and fiber_t2 == 0:
            raise SingularPoint("the tangent-plane map is degenerate along the line")
        pt = line.point_at(f.sqrt(fiber_t2), f.sqrt(fiber_s2))
        eck = (pt,) if classify_point(form, pt).kind is PointKind.ECKARDT else ()
        return GaussMapOnLine(line, True, (q, r), (pt,), eck, 1)
    two = 2 % f.p
    four = 4 % f.p
    ja = f.mul(two, f.sub(f.mul(q[0], r[1]), f.mul(q[1], r[0])))
    jb = f.mul(four, f.sub(f.mul(q[0], r[2]), f.mul(q[2], r[0])))
    jc = f.mul(two, f.sub(f.mul(q[1], r[2]), f.mul(q[2], r[1])))
    if not (ja or jb or jc):
        raise SingularPoint("the tangent-plane map is degenerate along the line")
    roots, _ext = _binary_quadratic_roots(f, ja, jb, jc)
    pts = tuple(line.point_at(s, t) for (s, t), _ in roots)
    eck = tuple(p for p in pts if classify_point(form, p).kind is PointKind.ECKARDT)
    return GaussMapOnLine(line, True, (q, r), pts, eck, 2)


# -- arithmetic only the tests use --------------------------------------


def horner_zeros(f: ExtField, c0: int, c1: int, c2: int, c3: int) -> list[int]:
    """The codes t with c0 + c1 t + c2 t^2 + c3 t^3 = 0, ascending: Horner's
    rule at every code on the flat tables, the oracle of the root tables."""
    q = f.q
    add, mul, _neg = f.flat_tables()
    c3 *= q
    return [
        t for t in range(q)
        if add[mul[add[mul[add[mul[c3 + t] * q + c2] * q + t] * q + c1] * q + t] * q + c0] == 0
    ]


def fully_rational(roots: CubicRoots) -> bool:
    """Whether a binary cubic splits into rational linear factors."""
    return roots.extension_roots == 0


def rational_count(roots: CubicRoots) -> int:
    """The rational roots of a binary cubic, with multiplicity."""
    return sum(m for _, m in roots.rational)


def positive_slope_segments(newton: NewtonPolygon) -> int:
    """The segments of a Newton polygon with positive slope."""
    return sum(1 for slope, _ in newton.segments if slope > 0)


def cube_roots_of_unity(field: ExtField) -> list[int]:
    """All cube roots of unity in the field, sorted by code."""
    if field.q % 3 != 1:
        return [1]
    roots = solve_quadratic(field, 1, 1, 1)
    return sorted([1] + [r for r, _ in roots])


def line_coordinates(param: GoodLineParam, coords: Iterable[int]) -> tuple[Fraction, Fraction]:
    """Coefficients (lam, mu) with lam*u + mu*v equal to the given point."""
    target = _primitive4(coords)
    u, v = param.u, param.v
    i, j = next(
        (i, j) for i, j in combinations(range(4), 2) if u[i] * v[j] - u[j] * v[i]
    )
    det = u[i] * v[j] - u[j] * v[i]
    lam = Fraction(target[i] * v[j] - target[j] * v[i], det)
    mu = Fraction(u[i] * target[j] - u[j] * target[i], det)
    for k in range(4):
        if lam * u[k] + mu * v[k] != target[k]:
            raise ValueError(f"{target} does not lie on the line")
    return lam, mu


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    if a and b and len(a[0]) != len(b):
        raise ValueError("inner dimensions differ")
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * cols
        for x, brow in zip(row, b):
            if x:
                for j, y in enumerate(brow):
                    if y:
                        acc[j] += x * y
        out.append(acc)
    return out


def bareiss_det(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free elimination."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k]), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


# -- the class-group presentation ---------------------------------------


def class_diff(pres: ZPresentation, p: ProjPoint, q: ProjPoint) -> HsClass:
    """The canonical class of P - Q."""
    return pres.class_of(p) - pres.class_of(q)


def hs_free_rank(structure: GroupStructure) -> int:
    """The free rank of H, one more than that of H0 (H/H0 = Z)."""
    return structure.h0_free_rank + 1


def table_read_verdicts(form: CubicForm, table: SpanTable, lines: list[Line3]):
    """Check the reads taken off a span table against what they replace.

    The table's lines against the given scan and its line_indices against
    Line3.points(), ZPresentation.sum_count against the listed sums,
    span._eckardt_by_cone against is_eckardt and span._ternary_by_cone
    against classify_point at every point, and SpanTable.skew_pairs
    against projgeo.skew on every line pair.  Returns the class count, the
    set of Eckardt verdicts met and a Counter of the skew verdicts.
    """
    assert table.lines == lines
    for line, idx in zip(lines, table.line_indices):
        assert idx == tuple(table.index[p.coords] for p in line.points()), line
    pres = ZPresentation(form, table=table)
    assert pres.sum_count == sum(1 for _ in pres._generating_sums())
    eckardt = set()
    for i, p in enumerate(table.points):
        got = _eckardt_by_cone(table, i)
        assert got == is_eckardt(form, p), p
        eckardt.add(got)
        assert _ternary_by_cone(table, i) == classify_point(form, p).ternary, p
    disjoint = set(table.skew_pairs())
    skews: Counter[bool] = Counter()
    for (a, la), (b, lb) in combinations(enumerate(lines), 2):
        got = (a, b) in disjoint
        assert got == skew(la, lb), (la, lb)
        skews[got] += 1
    return len(pres.class_reps), eckardt, skews


def verify_presentation(pres: ZPresentation) -> None:
    """Exact consistency checks on a presentation's cached decomposition."""
    for row in pres.matrix:
        if sum(row) != 0:
            raise AssertionError("relation row with non-zero degree")
    if pres.snf is None:
        return
    u, uinv, d, v, vinv = pres.snf
    if mat_mul(u, mat_mul(pres.reduced, v)) != d:
        raise AssertionError("U M V differs from D")
    if bareiss_det(u) not in (1, -1) or bareiss_det(v) not in (1, -1):
        raise AssertionError("transform is not unimodular")
    if mat_mul(u, uinv) != _identity(len(u)):
        raise AssertionError("U inverse mismatch")
    if mat_mul(v, vinv) != _identity(len(v)):
        raise AssertionError("V inverse mismatch")


def _point_lookup(table: SpanTable):
    """The index of a nonzero vector's point, read off the flat tables."""
    f = table.form.field
    mul = f.flat_tables()[1]
    q = f.q
    index = table.index
    inv_row = [0] + [f.inv(a) * q for a in range(1, q)]

    def lookup(w0, w1, w2, w3):
        if w0:
            s = inv_row[w0]
            return index[(1, mul[s + w1], mul[s + w2], mul[s + w3])]
        if w1:
            s = inv_row[w1]
            return index[(0, 1, mul[s + w2], mul[s + w3])]
        if w2:
            return index[(0, 0, 1, mul[inv_row[w2] + w3])]
        return index[(0, 0, 0, 1)]

    return lookup


def reference_pair_table(table: SpanTable) -> array:
    """The pair table of table's surface, every pair solved in one pass.

    Pairs are taken in row order, i < j; a secant through three distinct
    points is solved at its first pair and fills all three pair entries.
    Entries of the diagonal and of contained secants are -1.
    """
    form = table.form
    f = form.field
    add, mul, neg = f.flat_tables()
    q = f.q
    coords = [p.coords for p in table.points]
    n = len(coords)
    grad_rows = [tuple(g * q for g in _smooth_gradient(form, c)) for c in coords]
    lookup = _point_lookup(table)
    pairs = array("i", [-1]) * (n * n)
    for i in range(n):
        u0, u1, u2, u3 = coords[i]
        g0, g1, g2, g3 = grad_rows[i]
        base = i * n
        for j in range(i + 1, n):
            if pairs[base + j] >= 0:
                continue  # filled by an earlier solve on the same secant
            v0, v1, v2, v3 = coords[j]
            h0, h1, h2, h3 = grad_rows[j]
            c1 = add[add[add[mul[g0 + v0] * q + mul[g1 + v1]] * q + mul[g2 + v2]] * q + mul[g3 + v3]]
            c2 = add[add[add[mul[h0 + u0] * q + mul[h1 + u1]] * q + mul[h2 + u2]] * q + mul[h3 + u3]]
            if c1 == 0 and c2 == 0:
                continue  # line inside the surface
            a = c2 * q
            b = neg[c1] * q
            k = lookup(
                add[mul[a + u0] * q + mul[b + v0]],
                add[mul[a + u1] * q + mul[b + v1]],
                add[mul[a + u2] * q + mul[b + v2]],
                add[mul[a + u3] * q + mul[b + v3]],
            )
            pairs[base + j] = pairs[j * n + i] = k
            if k != i and k != j:
                pairs[i * n + k] = pairs[k * n + i] = j
                pairs[j * n + k] = pairs[k * n + j] = i
    return pairs


def reference_tangent_thirds(table: SpanTable) -> list[tuple[int, ...]]:
    """The tangent table of table's surface, every pencil taken in one pass.

    At each point u the pencil is surface.tangent_pencil's line of second
    points e0 + t*e1 for each field code t, then e1.  A pencil line on
    which the cubic and the cone both vanish lies inside the surface and
    gives no entry; any other meets the surface again at
    cubic(w)*u - cone(w)*w, which is u itself on an asymptotic line.
    """
    form = table.form
    f = form.field
    add, mul, neg = f.flat_tables()
    q = f.q
    lookup = _point_lookup(table)
    tangents = []
    for p in table.points:
        u = p.coords
        u0, u1, u2, u3 = u
        e0, e1, (a0, a1, a2, a3), (d0, d1, d2) = tangent_pencil(form, u, _smooth_gradient(form, u))
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
            else:
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
        tangents.append(tuple(thirds))
    return tangents


def close_before_reading(table: SpanTable) -> None:
    """Run closures on a table before any full read of its pairs: the
    singleton-span check, where the surface has a skew pair, then the
    closures of a few single points."""
    if next(table.skew_pairs(), None) is not None:
        verify_skew_singleton_span(table.form, table=table)
    n = len(table.points)
    for i in range(0, n, max(1, n // 3)):
        span_closure(table.form, [table.points[i]], table=table)


def reference_closure(table: SpanTable, seeds: Iterable[int], stop_when: Optional[set[int]] = None):
    """SpanTable.closure run to its end: no spanning run stops early.

    Returns (member flags, members in insertion order, added-per-round
    counts, lines examined).  stop_when, if given, is a set of indices;
    the run stops early once all of them are members.  Each unordered
    pair of members is examined exactly once, at the turn of whichever
    point entered later.
    """
    n = len(table.points)
    pair = table.pair_third
    tangents = table.tangent_thirds
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
                k = pair[base + j]
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


def reference_span_lemmas(form: CubicForm, table: SpanTable) -> SpanLemmaReport:
    """verify_span_lemmas with one reference_closure per question.

    Each line question runs its own closure, stopped once the target line
    is inside it; each skew union runs to its end.
    """
    if form.field.q < 13:
        raise HypothesisFailed("the span lemmas assume a field with at least 13 elements")
    lines = lines_on_surface(form)
    if not lines:
        raise ConfigurationAbsent("the surface has no rational line")
    n = len(table.points)
    counterexample = None
    indices = {line: [table.index[p.coords] for p in line.points()] for line in lines}

    lemma_a: Optional[bool] = None
    checked_a = 0
    for line in lines:
        targets = set(indices[line])
        for i in sorted(targets):
            if classify_point(form, table.points[i]).kind is PointKind.ECKARDT:
                continue
            checked_a += 1
            _, order, _, _ = reference_closure(table, [i], stop_when=targets)
            if not targets.issubset(order):
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
    for a, l1 in enumerate(lines):
        for l2 in lines[a + 1 :]:
            if not skew(l1, l2):
                continue
            idx1 = indices[l1]
            idx2 = indices[l2]
            for src, dst in ((idx1, idx2), (idx2, idx1)):
                checked_b += 1
                _, order, _, _ = reference_closure(table, src, stop_when=set(dst))
                if not set(dst).issubset(order):
                    lemma_b = False
                    counterexample = counterexample or (
                        f"span of {l1} misses points of {l2}"
                    )
            if lemma_b is None:
                lemma_b = True
            checked_c += 1
            _, order, _, _ = reference_closure(table, idx1 + idx2)
            if len(order) != n:
                lemma_c = False
                counterexample = counterexample or (
                    f"skew pair {l1}, {l2} spans only {len(order)} of {n} points"
                )
            elif lemma_c is None:
                lemma_c = True

    return SpanLemmaReport(
        lemma_a, checked_a, lemma_b, checked_b, lemma_c, checked_c, counterexample,
    )


def point_level_presentation(table: SpanTable, lines: Sequence[Line3]) -> dict:
    """Sums, classes and relation rows with every sum collected as points.

    Every secant pair, every tangent third and every multiset on a
    contained line goes into one set of sorted point triples; the classes
    come from merging contained lines and tangent thirds, and the rows
    are the images of the sorted sums, deduplicated, against the first.
    """
    n = len(table.points)
    sums: set[tuple[int, int, int]] = set()
    pair = table.pair_third
    for i in range(n):
        for j in range(i + 1, n):
            k = pair[i * n + j]
            if k >= 0:
                sums.add(tuple(sorted((i, j, k))))
        for k in table.tangent_thirds[i]:
            sums.add(tuple(sorted((i, i, k))))
    line_indices = []
    for line in lines:
        idx = sorted(table.index[p.coords] for p in line.points())
        line_indices.append(idx)
        for a in range(len(idx)):
            for b in range(a, len(idx)):
                for c in range(b, len(idx)):
                    sums.add((idx[a], idx[b], idx[c]))
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = sorted((find(x), find(y)))
        parent[ry] = rx

    for idx in line_indices:
        for x in idx[1:]:
            union(idx[0], x)
    for thirds in table.tangent_thirds:
        for k in thirds[1:]:
            union(thirds[0], k)
    rep = [find(i) for i in range(n)]
    class_reps = sorted(set(rep))
    column = {r: c for c, r in enumerate(class_reps)}
    ordered = sorted(sums)
    imgs = sorted({tuple(sorted((rep[a], rep[b], rep[c]))) for a, b, c in ordered})
    rows = []
    if imgs:
        base = [0] * len(class_reps)
        for x in imgs[0]:
            base[column[x]] += 1
        for img in imgs[1:]:
            row = [-x for x in base]
            for x in img:
                row[column[x]] += 1
            rows.append(row)
    return {"sums": ordered, "rep": rep, "class_reps": class_reps, "matrix": rows}


def smith_difference_classes_generate(
    pres: ZPresentation, base_point: ProjPoint, points: Iterable[ProjPoint]
) -> bool:
    """Whether the classes [P - P0] span H0, read off a full Smith form."""
    r = len(pres.class_reps)

    def col(p):
        return pres.column[pres.rep[pres.table.index[p.coords]]]

    base_col = col(base_point)
    rows = [list(row) for row in pres.reduced]
    for p in points:
        c = col(p)
        if c == base_col:
            continue
        row = [0] * r
        row[c] = 1
        row[base_col] = -1
        rows.append(row)
    trimmed = [row[1:] for row in rows]
    if not trimmed:
        return r - 1 == 0
    _, _, d, _, _ = snf_with_transforms(trimmed)
    width = r - 1
    diag = [d[j][j] for j in range(min(len(d), width))]
    rank_ = sum(1 for x in diag if x)
    return rank_ == width and all(x == 1 for x in diag[:rank_])


# -- reduction kernels --------------------------------------------------


def snf_good_parametrization(p_coords: Iterable[int], q_coords: Iterable[int]) -> GoodLineParam:
    """The saturated basis read off a Smith form of the stacked 2x4 matrix:
    the first two rows of V^-1 span the saturation, then Hermite reduced."""
    pu = _primitive4(p_coords)
    qu = _primitive4(q_coords)
    if pu == qu:
        raise EqualPoints("the two points coincide projectively")
    _, _, d, _, vinv = snf_with_transforms([list(pu), list(qu)])
    if d[1][1] == 0:
        raise EqualPoints("the two points coincide projectively")
    u, v = _hnf_pair(vinv[0], vinv[1])
    return GoodLineParam(u, v)


def _divisors(x: int) -> list[int]:
    """Positive divisors of the nonzero integer x, ascending."""
    divs = [1]
    for p, e in factorize(abs(x)):
        block = divs
        divs = []
        power = 1
        for _ in range(e + 1):
            divs.extend(d * power for d in block)
            power *= p
    return sorted(divs)


def _divide_primitive_root(poly: Sequence[int], a: int, b: int) -> list[int]:
    """Exact division of an integer polynomial by (b*x - a), lowest-first.

    Valid only when a/b is a root in lowest terms; every quotient step
    then lands on an integer by the rational root theorem.
    """
    rev = list(poly[::-1])
    out = [rev[0] // b]
    for coef in rev[1:-1]:
        out.append((coef + a * out[-1]) // b)
    if rev[-1] + a * out[-1] != 0:
        raise AssertionError("dividing by a non-root")
    return out[::-1]


# Sieve moduli for the rational root scan.  Any rational root a/b of the
# primitive cubic reduces to a root mod q whenever q does not divide b, so
# candidate pairs failing that test mod both primes can be discarded
# without an exact evaluation.
_FILTER_PRIMES = (101, 103)


def smallest_cubic_root(c: Sequence[int]) -> Optional[tuple[int, int]]:
    """The rational root a/b of the primitive cubic c[0] + c[1]*tau +
    c[2]*tau^2 + c[3]*tau^3 with smallest tau, or None.

    a runs over signed divisors of c[0] and b over divisors of c[3]; pairs
    are bucketed by the residue of a mod the first sieve prime, and only
    those matching a polynomial root survive to the second sieve and the
    exact check.
    """
    tables = []
    for q in _FILTER_PRIMES:
        cq = [x % q for x in c]
        residue_roots = []
        for t in range(q):
            acc = 0
            for x in reversed(cq):
                acc = (acc * t + x) % q
            if acc == 0:
                residue_roots.append(t)
        tables.append((q, residue_roots))
    q1, roots1 = tables[0]
    q2, roots2 = tables[1]
    signed: list[int] = []
    for a in _divisors(c[0]):
        signed.append(a)
        signed.append(-a)
    buckets: dict[int, list[int]] = {}
    for a in signed:
        buckets.setdefault(a % q1, []).append(a)
    survivors: list[tuple[int, int]] = []
    for b in _divisors(c[-1]):
        b1 = b % q1
        if b1:
            pool: list[int] = []
            for t in roots1:
                pool.extend(buckets.get(t * b1 % q1, ()))
        else:
            # q1 divides b, so the root reduces to tau = infinity mod q1
            # and the sieve carries no information for this denominator.
            pool = signed
        b2 = b % q2
        if b2:
            allowed = {t * b2 % q2 for t in roots2}
            pool = [a for a in pool if a % q2 in allowed]
        survivors.extend((a, b) for a in pool if gcd(a, b) == 1)
    survivors.sort(key=lambda st: Fraction(st[0], st[1]))
    for a, b in survivors:
        if sum(x * a ** k * b ** (3 - k) for k, x in enumerate(c)) == 0:
            return a, b
    return None


def sieve_binary_cubic_roots(coeffs: Sequence[int]) -> list[tuple[int, int]]:
    """Projective rational roots of a binary cubic by the divisor sieve:
    the smallest root of a dense cubic is divided out and the quadratic
    cofactor solved.  NotFullyRational as in the package."""
    g = 0
    for x in coeffs:
        g = gcd(g, x)
    c = [x // g for x in coeffs]
    roots: list[tuple[int, int]] = []
    while len(c) > 1 and c[0] == 0:
        roots.append((1, 0))
        c = c[1:]
    trailing = 0
    while len(c) > 1 and c[-1] == 0:
        trailing += 1
        c = c[:-1]
    if len(c) == 2:
        tau = Fraction(-c[0], c[1])
        roots.append((tau.denominator, tau.numerator))
    elif len(c) == 3:
        roots.extend(_quadratic_pair(c[0], c[1], c[2]) or ())
    elif len(c) == 4:
        first = smallest_cubic_root(c)
        if first is not None:
            a, b = first
            roots.append((b, a))
            cofactor = _divide_primitive_root(c, a, b)
            roots.extend(_quadratic_pair(cofactor[0], cofactor[1], cofactor[2]) or ())
    roots.extend([(0, 1)] * trailing)
    if len(roots) != 3:
        raise NotFullyRational(
            f"only {len(roots)} of 3 intersection points are rational"
        )
    return roots


# -- the del Pezzo line check -------------------------------------------


def _quadric_values(m: int, p: int, pt: Sequence[int]) -> tuple[int, int]:
    x, y, z, w, t = pt
    q1 = (x * x - x * y + y * y + z * t) % p
    q2 = (z * z + m * w * w - x * t - y * t) % p
    return q1, q2


def line_on_del_pezzo(m: int, p: int, points: Iterable[Sequence[int]]) -> bool:
    """Whether every listed point satisfies both quadrics of the degree-4
    model x^2 - x y + y^2 + z t = 0, z^2 + M w^2 - x t - y t = 0."""
    return all(_quadric_values(m, p, pt) == (0, 0) for pt in points)


@dataclass(frozen=True)
class DelPezzoLineReport:
    """Containment checks for the two line-orbit representatives."""

    m: int
    p: int
    zeta: int
    sqrt_minus_m: int
    theta: int
    first_orbit_contained: bool
    first_orbit_conjugate_contained: bool
    second_orbit_contained: bool

    @property
    def all_contained(self) -> bool:
        return (
            self.first_orbit_contained
            and self.first_orbit_conjugate_contained
            and self.second_orbit_contained
        )


def _first_orbit_points(p: int, zeta: int, s: int) -> list[tuple[int, int, int, int, int]]:
    pts = []
    for lam, mu in [(1, k) for k in range(p)] + [(0, 1)]:
        pts.append(((-zeta * lam) % p, lam % p, (-s * mu) % p, mu % p, 0))
    return pts


def _second_orbit_points(
    p: int, zeta: int, s: int, theta: int
) -> list[tuple[int, int, int, int, int]]:
    inv3t2 = pow(3 * theta * theta % p, -1, p)
    pts = []
    for z, w in [(1, k) for k in range(p)] + [(0, 1)]:
        t = theta * (z - s * w) % p
        x = (-((2 * zeta - 2) * theta * z + (zeta + 2) * t) * inv3t2) % p
        y = (-((-2 * zeta - 4) * theta * z + (-zeta + 1) * t) * inv3t2) % p
        pts.append((x, y, z % p, w % p, t))
    return pts


def _find_constants(m: int, p: int) -> tuple[int, int, int]:
    missing = []
    zeta = next((z for z in range(2, p) if (z * z + z + 1) % p == 0), None)
    if zeta is None:
        missing.append("a primitive cube root of unity")
    s = next((r for r in range(p) if (r * r + m) % p == 0), None)
    if s is None:
        missing.append(f"a square root of -{m}")
    theta = next((r for r in range(p) if (r ** 3 - 2) % p == 0), None)
    if theta is None:
        missing.append("a cube root of 2")
    if missing:
        raise ConstantsUnavailable(f"F_{p} lacks " + " and ".join(missing))
    return zeta, s, theta


def del_pezzo_line_check(m: int, p: int) -> DelPezzoLineReport:
    """Instantiate both line-orbit representatives over F_p and verify
    containment in the degree-4 del Pezzo model pointwise."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if p == 3 or p == 2:
        raise BadPrime("the model needs p coprime to 6")
    if m % p == 0:
        raise ConstantsUnavailable(
            f"the square root of -M degenerates to zero for p = {p} dividing M"
        )
    zeta, s, theta = _find_constants(m, p)
    first = line_on_del_pezzo(m, p, _first_orbit_points(p, zeta, s))
    conj = line_on_del_pezzo(m, p, _first_orbit_points(p, zeta * zeta % p, s))
    second = line_on_del_pezzo(m, p, _second_orbit_points(p, zeta, s, theta))
    return DelPezzoLineReport(
        m=m,
        p=p,
        zeta=zeta,
        sqrt_minus_m=s,
        theta=theta,
        first_orbit_contained=first,
        first_orbit_conjugate_contained=conj,
        second_orbit_contained=second,
    )


def find_del_pezzo_prime(m: int, limit: int = 500) -> int:
    """Smallest prime over which all three constants exist."""
    for p in range(5, limit + 1):
        if not is_prime(p) or p == 3 or m % p == 0:
            continue
        try:
            _find_constants(m, p)
        except ConstantsUnavailable:
            continue
        return p
    raise ConstantsUnavailable(f"no admissible prime up to {limit}")
