"""Brute-force enumerations that the tests compare the fast paths against.

Enumeration orders match the package's contract: points run chart by
chart with the last free coordinate fastest, and lines ascend
lexicographically by their flattened canonical 2x4 matrix.  The
reduction oracles search every (z, w) slice and reduce every point, with
no residue deduplication.  The plane-cubic oracles find third points by
the pencil of each line and group shapes on an independent Weierstrass
model.
"""

import heapq
from math import gcd, lcm
from typing import Iterator

from cubicspan.errors import BadPrime
from cubicspan.field import ExtField, make_extension
from cubicspan.planecubic import (
    CurvePoint,
    curve_point,
    curve_points,
    group_structure,
    third_point,
)
from cubicspan.projgeo import Line3, rank
from cubicspan.reduction import (
    FAMILY_MODULUS,
    FAMILY_S,
    RankBoundReport,
    ReductionCoverage,
    SurfacePoint,
    base_surface_point,
    family_tag,
    rank_bound_m,
    reduce_to_curve,
    reduction_class,
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
    n = FAMILY_MODULUS[family]
    primes = tuple(primes)
    m = rank_bound_m(family, primes)

    def classes(pt):
        return [reduction_class(pt, p, n) for p in primes]

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
