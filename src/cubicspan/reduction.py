"""Rational points on the twisted Fermat families and their reduction mod p.

Two families of smooth cubic surfaces over the rationals are handled:

    x^3 + y^3 + z^3 + M z w^2 = 0        (tag "S_M")
    x^3 + y^3 + z^3 + M w^3   = 0        (tag "Sprime_M")

For a prime p dividing M (p != 3) the reduction of either surface is the
cone over the plane cubic x^3 + y^3 + z^3 = 0 with vertex (0:0:0:1).
Points reducing to the vertex are the bad locus; every other point maps
to a point of the curve by forgetting w.  Composing with the class map
of the curve and passing to Pic0/n (n = 2 for the first family, 3 for
the second) gives the reduction class of a rational point, and sums of
reduction classes over the intersection cycle of a rational line vanish.
That vanishing, the Newton-polygon bookkeeping behind its bad-reduction
case, and the resulting lower bound on the generator count are what this
module computes.

Everything is exact integer arithmetic: rational points are primitive
integer 4-tuples and p-adic valuations are taken on integers.
"""

from __future__ import annotations

import gc
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, repeat
from math import gcd, isqrt, prod
from typing import Iterable, Optional, Sequence

from .errors import (
    AllZero,
    BadPrime,
    BudgetExceeded,
    EqualPoints,
    FamilyMismatch,
    HypothesisFailed,
    LineOnSurface,
    NotFullyRational,
    NotPrime,
    PrimeConditionFailed,
)
from .field import is_prime, make_extension
from .hsgroup import _xgcd
from .planecubic import (
    CurvePoint,
    PicClass,
    PicQuotient,
    base_point,
    curve_point,
    curve_points,
    pic_mod,
    prime_condition,
)
from .projgeo import rank
from .surface import FAMILIES, CubicForm, family_tag

FAMILY_S = "S_M"
FAMILY_SPRIME = "Sprime_M"

#: cap on the height of point_search, which holds all (H+1)(2H+1) cube
#: sums x^3 + y^3 with y >= x while it searches
MAX_SEARCH_HEIGHT = 1000


@lru_cache(maxsize=None)
def _family_form(tag: str, m: int) -> CubicForm:
    return CubicForm.from_family(tag, m)


def form_value(family: str, m: int, coords: Sequence[int]) -> int:
    """Exact integer value of the family's defining form."""
    return _family_form(family_tag(family), m).evaluate(coords)


@dataclass(frozen=True, slots=True)
class SurfacePoint:
    """A primitive integer point of S_M or Sprime_M, sign-canonical."""

    family: str
    m: int
    coords: tuple[int, int, int, int]


def _primitive4(coords: Iterable[int]) -> tuple[int, ...]:
    c = [int(x) for x in coords]
    if len(c) != 4 or not any(c):
        raise ValueError("expected four integers, not all zero")
    g = gcd(gcd(c[0], c[1]), gcd(c[2], c[3]))
    c = [x // g for x in c]
    if next(x for x in c if x) < 0:
        c = [-x for x in c]
    return tuple(c)


def surface_point(family: str, m: int, coords: Iterable[int]) -> SurfacePoint:
    family = family_tag(family)
    c = _primitive4(coords)
    if form_value(family, m, c) != 0:
        raise ValueError(f"{c} is not on the surface")
    return SurfacePoint(family, m, c)


def base_surface_point(family: str, m: int) -> SurfacePoint:
    """The rational point (1 : -1 : 0 : 0), on both families."""
    return surface_point(family, m, (1, -1, 0, 0))


def _check_reduction_prime(m: int, p: int) -> None:
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if p == 3:
        raise BadPrime("reduction mod 3 hits the singular fibre")
    if m % p:
        raise BadPrime(f"{p} does not divide M = {m}")


@dataclass(frozen=True)
class Reduction:
    """Reduction of a surface point mod p: a curve point, or the vertex."""

    p: int
    point: Optional[CurvePoint]

    @property
    def bad(self) -> bool:
        return self.point is None


def reduce_to_curve(point: SurfacePoint, p: int) -> Reduction:
    """Reduce mod p | M onto the cone's base curve; the vertex is bad.

    On the w-cubed family the vertex cannot occur: primitivity would
    force p^2 | M there, so hitting it means the inputs were invalid.
    """
    _check_reduction_prime(point.m, p)
    x, y, z, w = point.coords
    if x % p == 0 and y % p == 0 and z % p == 0:
        if point.family == FAMILY_SPRIME:
            if point.m % (p * p):
                raise AssertionError(
                    "vertex reduction on the w-cubed family with M squarefree at p"
                )
            raise BadPrime(f"M = {point.m} is not squarefree at {p}")
        return Reduction(p, None)
    return Reduction(p, curve_point(p, (x, y, z)))


@lru_cache(maxsize=None)
def _quotient(p: int, n: int) -> PicQuotient:
    return pic_mod(p, n)


def reduction_class(point: SurfacePoint, p: int) -> PicClass:
    """The class of the reduction minus the base flex in Pic0/n.

    n is the family's modulus (FAMILIES[tag].modulus).  The bad locus maps
    to the zero class, extending the good-reduction map continuously.
    """
    quotient = _quotient(p, FAMILIES[family_tag(point.family)].modulus)
    red = reduce_to_curve(point, p)
    return quotient.class_of(red.point if red.point is not None else base_point(p))


@dataclass(frozen=True)
class GoodLineParam:
    """A basis (u, v) of the saturated integer lattice of a rational line.

    Saturation means the 2x2 minors of the stacked matrix are globally
    coprime, so the basis stays independent after reduction mod every
    prime and every rational point of the line is an integer combination
    with coprime coefficients.
    """

    u: tuple[int, int, int, int]
    v: tuple[int, int, int, int]


def _minors2(u: Sequence[int], v: Sequence[int]) -> list[int]:
    return [u[i] * v[j] - u[j] * v[i] for i, j in combinations(range(4), 2)]


def _hnf_pair(r0: Sequence[int], r1: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    a = list(r0)
    b = list(r1)
    j0 = next(j for j in range(4) if a[j] or b[j])
    g, s, t = _xgcd(a[j0], b[j0])
    new_a = [s * x + t * y for x, y in zip(a, b)]
    new_b = [(a[j0] // g) * y - (b[j0] // g) * x for x, y in zip(a, b)]
    a, b = new_a, new_b
    j1 = next(j for j in range(4) if b[j])
    if b[j1] < 0:
        b = [-x for x in b]
    q = a[j1] // b[j1]
    a = [x - q * y for x, y in zip(a, b)]
    return tuple(a), tuple(b)


def good_parametrization(p_coords: Iterable[int], q_coords: Iterable[int]) -> GoodLineParam:
    """Saturated integer basis for the line through two rational points.

    p is primitive, so a Bezout vector c with c.p = 1 exists and the
    saturation has a basis (p, v) with c.v = 0.  Writing q = mu*p + g*v
    gives mu = c.q, and g is the gcd of the 2x2 minors of (p, q), so
    v = (q - mu*p)/g.  The basis is then Hermite reduced, which makes it
    depend only on the line.
    """
    pu = _primitive4(p_coords)
    qu = _primitive4(q_coords)
    if pu == qu:
        raise EqualPoints("the two points coincide projectively")
    g = 0
    for x in _minors2(pu, qu):
        g = gcd(g, x)
    if g == 0:
        raise EqualPoints("the two points coincide projectively")
    c = [0, 0, 0, 0]
    d = 0
    for i, x in enumerate(pu):
        d, s, t = _xgcd(d, x)
        c = [s * ci for ci in c]
        c[i] = t
    mu = sum(ci * qi for ci, qi in zip(c, qu))
    v = [(qi - mu * pi) // g for pi, qi in zip(pu, qu)]
    u, v = _hnf_pair(pu, v)
    minors = _minors2(u, v)
    g = 0
    for x in minors:
        g = gcd(g, x)
    if g != 1:
        raise AssertionError("saturation failed: basis minors share a factor")
    return GoodLineParam(u, v)


def _quadratic_pair(p0: int, p1: int, p2: int) -> Optional[list[tuple[int, int]]]:
    """Both rational roots of p0 + p1*tau + p2*tau^2 as primitive (s, t)
    pairs in ascending tau, or None when the conjugate pair is irrational."""
    disc = p1 * p1 - 4 * p0 * p2
    if disc < 0:
        return None
    r = isqrt(disc)
    if r * r != disc:
        return None
    lo = Fraction(-p1 - r, 2 * p2)
    hi = Fraction(-p1 + r, 2 * p2)
    if hi < lo:
        lo, hi = hi, lo
    return [(lo.denominator, lo.numerator), (hi.denominator, hi.numerator)]


def _hensel_lift(c: Sequence[int], x: int, ell: int, bound: int) -> tuple[int, int]:
    """Lift a simple root x of the cubic c mod ell to a root mod ell^K > bound.

    Each Newton step squares the modulus, so the lift takes log2(K) steps.
    """
    c0, c1, c2, c3 = c
    mod = ell
    while mod <= bound:
        mod *= mod
        f = ((c3 * x + c2) * x + c1) * x + c0
        df = (3 * c3 * x + 2 * c2) * x + c1
        x = (x - f * pow(df, -1, mod)) % mod
    return x, mod


def _rational_reconstruction(r: int, mod: int, bound: int) -> tuple[int, int]:
    """(a, b) with a = b*r mod mod, |a| <= bound and b > 0.

    The extended gcd of mod and r stops at its first remainder of size at
    most bound.  Any a/b with a = b*r, |a| <= bound and 0 < b <= B is that
    remainder and its cofactor, up to a common factor, once mod > 2*bound*B
    (Wang, Guy & Davenport 1982).
    """
    r0, r1 = mod, r
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _cubic_roots(c: Sequence[int]) -> list[Fraction]:
    """Rational roots, ascending, of c[0] + c[1]*tau + c[2]*tau^2 +
    c[3]*tau^3 with c[0] and c[3] nonzero; repeated roots are listed with
    their multiplicity."""
    c0, c1, c2, c3 = c
    disc = (
        c1 * c1 * c2 * c2 - 4 * c0 * c2 ** 3 - 4 * c1 ** 3 * c3
        - 27 * c0 * c0 * c3 * c3 + 18 * c0 * c1 * c2 * c3
    )
    if disc == 0:
        d = c2 * c2 - 3 * c1 * c3
        if d == 0:
            return [Fraction(-c2, 3 * c3)] * 3
        double = Fraction(9 * c3 * c0 - c1 * c2, 2 * d)
        return sorted([double, double, Fraction(-c2, c3) - 2 * double])
    # a root a/b in lowest terms has a | c0 and b | c3, so ell misses b and
    # a/b is the lift of one of the simple roots mod ell
    ell = 2
    while c3 % ell == 0 or disc % ell == 0 or not is_prime(ell):
        ell += 1
    bound = abs(c0)
    found = []
    for x in range(ell):
        if (((c3 * x + c2) * x + c1) * x + c0) % ell:
            continue
        r, mod = _hensel_lift(c, x, ell, 2 * bound * abs(c3))
        a, b = _rational_reconstruction(r, mod, bound)
        if (
            b <= abs(c3)
            and gcd(a, b) == 1
            and c0 * b ** 3 + c1 * a * b * b + c2 * a * a * b + c3 * a ** 3 == 0
        ):
            found.append(Fraction(a, b))
    return sorted(found)


def _binary_cubic_roots(coeffs: Sequence[int]) -> list[tuple[int, int]]:
    """Projective rational roots, with multiplicity, of a binary cubic.

    Roots are primitive pairs (s, t); the full multiplicity 3 must be
    rational or NotFullyRational is raised.  A dense cubic in tau = t/s is
    solved without factoring: a zero discriminant gives the repeated root
    in closed form, and otherwise the roots mod the first prime ell that
    divides neither the leading coefficient nor the discriminant are
    Hensel lifted and read back as fractions by rational reconstruction,
    each kept only if it is an exact root.
    """
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
    # c is now a dense polynomial in tau = t/s with nonzero ends, and it
    # inherits primitivity from the content division above.  Roots are
    # appended in ascending tau.
    if len(c) == 2:
        tau = Fraction(-c[0], c[1])
        roots.append((tau.denominator, tau.numerator))
    elif len(c) == 3:
        roots.extend(_quadratic_pair(c[0], c[1], c[2]) or ())
    elif len(c) == 4:
        roots.extend((tau.denominator, tau.numerator) for tau in _cubic_roots(c))
    roots.extend([(0, 1)] * trailing)
    if len(roots) != 3:
        raise NotFullyRational(
            f"only {len(roots)} of 3 intersection points are rational"
        )
    return roots


def line_cycle(param: GoodLineParam, family: str, m: int) -> tuple[SurfacePoint, ...]:
    """The three rational surface points cut out by the line, repetition
    marking multiplicity.  LineOnSurface is raised for a line inside the
    surface."""
    return _line_cycle(param, family, m)[0]


def _line_cycle(param: GoodLineParam, family: str, m: int):
    """line_cycle, with the form's binary cubic along the line it solved."""
    coeffs = _family_form(family_tag(family), m).restrict_to_line(param.u, param.v)
    if not any(coeffs):
        raise LineOnSurface("the line lies on the surface; its cycle is undefined")
    pts = []
    for s0, t0 in _binary_cubic_roots(coeffs):
        coords = [s0 * x + t0 * y for x, y in zip(param.u, param.v)]
        pts.append(surface_point(family, m, coords))
    return tuple(pts), coeffs


def _ord_p(value, p: int) -> int:
    frac = Fraction(value)
    num, den = frac.numerator, frac.denominator
    k = 0
    while num % p == 0:
        num //= p
        k += 1
    while den % p == 0:
        den //= p
        k -= 1
    return k


@dataclass(frozen=True)
class NewtonPolygon:
    """Lower hull of (i, ord_p(a_i)) for a polynomial a_0 + ... + a_d t^d.

    Roots counted by the polygon have valuation equal to minus the
    segment slope, with multiplicity the horizontal length; roots at
    infinity from vanishing leading coefficients are not counted.
    """

    p: int
    points: tuple[tuple[int, int], ...]
    vertices: tuple[tuple[int, int], ...]
    segments: tuple[tuple[Fraction, int], ...]
    root_valuations: tuple[Fraction, ...]


def newton_polygon(coeffs: Sequence, p: int) -> NewtonPolygon:
    """Lower convex hull of the coefficient valuations."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    pts = [(i, _ord_p(c, p)) for i, c in enumerate(coeffs) if c != 0]
    if not pts:
        raise AllZero("every coefficient vanishes")
    hull: list[tuple[int, int]] = []
    for pt in pts:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (x1 - x0) * (pt[1] - y0) - (y1 - y0) * (pt[0] - x0) <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    segments = []
    valuations: list[Fraction] = []
    for (x0, y0), (x1, y1) in zip(hull, hull[1:]):
        slope = Fraction(y1 - y0, x1 - x0)
        segments.append((slope, x1 - x0))
        valuations.extend([-slope] * (x1 - x0))
    return NewtonPolygon(
        p=p,
        points=tuple(pts),
        vertices=tuple(hull),
        segments=tuple(segments),
        root_valuations=tuple(valuations),
    )


def _vertex_basis(param: GoodLineParam, p: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """Rebase (u, v) so u has last coordinate 0 and v reduces to the vertex.

    Only valid when the reduced line passes through the cone vertex,
    which holds whenever the reduction is contained in the cone.
    """
    u, v = param.u, param.v
    d, a, b = _xgcd(u[3], v[3])
    if d == 0 or d % p == 0:
        raise AssertionError("the reduced line misses the vertex")
    uu = [(v[3] // d) * x - (u[3] // d) * y for x, y in zip(u, v)]
    vv = [a * x + b * y for x, y in zip(u, v)]
    i = next(i for i in range(3) if uu[i] % p)
    k = (-vv[i] * pow(uu[i], -1, p)) % p
    vv = [x + k * y for x, y in zip(vv, uu)]
    if any(x % p for x in vv[:3]):
        raise AssertionError("the reduced line misses the vertex")
    return tuple(uu), tuple(vv), d


@dataclass(frozen=True)
class LineRelationReport:
    """Outcome of the reduction-class sum over one rational line cycle."""

    family: str
    m: int
    p: int
    modulus: int
    points: tuple[SurfacePoint, ...]
    relation_holds: bool
    reduction_contained: bool
    branch: str
    newton: Optional[NewtonPolygon]
    alpha2: Optional[int]
    z_coord_unit: Optional[bool]


def verify_line_relation(param: GoodLineParam, family: str, m: int, p: int) -> LineRelationReport:
    """Check that the three reduction classes of a line cycle sum to zero.

    The report also says which case applied: a transverse reduction,
    where the reduced line meets the cone properly, or a contained one,
    where the Newton polygon of the restricted form governs the split
    into one bad and two good points (coefficient valuation exactly 1 in
    degree 2 when the z-coordinate of the rebased basis is a unit).
    """
    family = family_tag(family)
    _check_reduction_prime(m, p)
    cycle, coeffs = _line_cycle(param, family, m)
    total = None
    for pt in cycle:
        cls = reduction_class(pt, p)
        total = cls if total is None else total + cls
    contained = all(c % p == 0 for c in coeffs)
    newton = None
    alpha2 = None
    z_unit = None
    if contained:
        form = _family_form(family, m)
        uu, vv, _ = _vertex_basis(param, p)
        # keep the degree-3 term alive so the polygon sees every root
        tries = 0
        while form_value(family, m, vv) == 0:
            vv = tuple(x + p * y for x, y in zip(vv, uu))
            tries += 1
            if tries > 3:
                raise AssertionError("could not move v off the surface")
        a = form.restrict_to_line(uu, vv)
        z_unit = uu[2] % p != 0
        if any(a):
            newton = newton_polygon(a, p)
            alpha2 = _ord_p(a[2], p) if a[2] else None
    return LineRelationReport(
        family=family,
        m=m,
        p=p,
        modulus=FAMILIES[family].modulus,
        points=cycle,
        relation_holds=total.is_zero,
        reduction_contained=contained,
        branch="contained" if contained else "transverse",
        newton=newton,
        alpha2=alpha2,
        z_coord_unit=z_unit,
    )


def _surface_points(
    family: str, m: int, coords: Sequence[tuple[int, int, int, int]]
) -> list[SurfacePoint]:
    """SurfacePoint(family, m, c) for each c, with no Python frame per point.

    The dataclass's __init__ writes the three slots through
    object.__setattr__, that is through the slot descriptors; here the
    same descriptors fill every point under map.
    """
    n = len(coords)
    pts = list(map(object.__new__, repeat(SurfacePoint, n)))
    deque(map(SurfacePoint.family.__set__, pts, repeat(family, n)), maxlen=0)
    deque(map(SurfacePoint.m.__set__, pts, repeat(m, n)), maxlen=0)
    deque(map(SurfacePoint.coords.__set__, pts, coords), maxlen=0)
    return pts


def point_search(family: str, m: int, height: int) -> list[SurfacePoint]:
    """All primitive points with coordinates bounded by the height.

    Meet-in-the-middle on x^3 + y^3 = -(z^3 + M*z*w^2) (S_M) or
    -(z^3 + M*w^3) (Sprime_M).  One row of cube sums x^3 + y^3, y >= x, is
    built per x and all of them go into one set.  Negating all four
    coordinates gives the same projective point, so only z > 0 is searched
    (z >= 0 on Sprime_M), and on S_M, where w enters only as w^2, only
    w >= 0: a hit at (z, w) stands for (z, w) and (z, -w).  For each z the
    sums the (z, w) side needs are intersected with the set in one C-level
    call, so only the hits are looked at in Python and sums out of range
    drop out by themselves.  A second pass over the rows that meet a hit
    key recovers the pairs (x, y).  The rows and the set are dropped before
    any output point is built.  On S_M the M term carries a factor z, so
    the slice z = 0 is exactly the contained line x + y = z = 0; it is
    written down in closed form, (0, 0, 0, 1) and (a, -a, 0, w) with
    gcd(a, w) = 1, and the search skips it.  Output is projectively
    deduplicated and lexicographically sorted.  M = 0 gives the cone
    x^3 + y^3 + z^3 = 0 and raises ``HypothesisFailed``.

    The output is built in two steps: the sorted coordinate tuples first,
    the contained line's runs spliced in where they sort, then every point
    at once by ``_surface_points``.  The cyclic garbage collector is
    paused for the whole call, because otherwise its full passes traverse
    the growing table and output again and again.  The pause is safe:
    everything the call allocates (ints, tuples, row lists, sets and
    slotted points) holds no reference cycle, so reference counting frees
    it all and peak memory is unchanged.  On return or raise the collector
    is re-enabled only if it was enabled on entry, so a caller's own pause
    stays in force.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        family = family_tag(family)
        if m == 0:
            raise HypothesisFailed("M = 0 gives the singular cone x^3 + y^3 + z^3 = 0")
        if height < 1:
            raise ValueError("height must be positive")
        if height > MAX_SEARCH_HEIGHT:
            raise BudgetExceeded(
                f"height {height} exceeds the search cap {MAX_SEARCH_HEIGHT}"
            )
        h = height
        vals = list(range(-h, h + 1))
        cubes = [v ** 3 for v in vals]
        # rows[i] holds x^3 + y^3 for x = i - h and every y >= x
        rows = [[cx + cy for cy in cubes[i:]] for i, cx in enumerate(cubes)]
        sums = set().union(*rows)
        is_s = family == FAMILY_S
        if is_s:
            # z > 0, and w >= 0 with each hit standing for both signs of w
            first_z, ws = h + 1, vals[h:]
            terms = [w * w for w in ws]
        else:
            first_z, ws, terms = h, vals, cubes
        wanted: dict[int, list[tuple[int, int]]] = {}
        for z, cz in zip(vals[first_z:], cubes[first_z:]):
            scale = m * z if is_s else m
            need = [-cz - scale * t for t in terms]
            hit = sums.intersection(need)
            if hit:
                for w, k in zip(ws, need):
                    if k in hit:
                        pairs = wanted.setdefault(k, [])
                        pairs.append((z, w))
                        if is_s and w:
                            pairs.append((z, -w))
        root = dict(zip(cubes, vals))
        seen = set()
        for x, cx, row in zip(vals, cubes, rows):
            for k in wanted.keys() & row:
                y = root[k - cx]
                for z, w in wanted[k]:
                    for c in ((x, y, z, w), (y, x, z, w)):
                        if not any(c):
                            continue
                        g = gcd(gcd(c[0], c[1]), gcd(c[2], c[3]))
                        if g != 1:
                            continue
                        if next(v for v in c if v) < 0:
                            c = tuple(-v for v in c)
                        seen.add(c)
        del rows, sums
        found = sorted(seen)
        if not is_s:
            return _surface_points(family, m, found)
        # The line points with prefix (a, -a, 0) form one contiguous run of
        # the sorted output; splice each run in where it sorts.  One w list
        # and one -a per run let the line's points share their ints.
        coords = []
        start = 0
        for a in range(h + 1):
            na = -a
            cut = bisect_left(found, (a, na, 0), start)
            coords += found[start:cut]
            start = cut
            if a == 0:
                coords.append((0, 0, 0, 1))
            else:
                coords += [(a, na, 0, w) for w in vals if gcd(a, w) == 1]
        coords += found[start:]
        return _surface_points(family, m, coords)
    finally:
        if enabled:
            gc.enable()


@dataclass(frozen=True)
class ReductionCoverage:
    """How much of the base curve bounded-height points reach."""

    p: int
    hit: int
    total: int
    missed: tuple[CurvePoint, ...]

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.hit, self.total)


def reduction_coverage(points: Iterable[SurfacePoint], p: int) -> ReductionCoverage:
    """Residue-level shadow of surjectivity onto the curve's points.

    A reduction depends only on the family, M and (x, y, z) mod p, so one
    point per such key is reduced and later points with that key are
    skipped.
    """
    # p is a modulus in the key before reduce_to_curve gets to check it
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    hit: set[CurvePoint] = set()
    seen = set()
    for pt in points:
        x, y, z, _ = pt.coords
        key = (pt.family, pt.m, x % p, y % p, z % p)
        if key in seen:
            continue
        seen.add(key)
        red = reduce_to_curve(pt, p)
        if red.point is not None:
            hit.add(red.point)
    everything = curve_points(p)
    missed = tuple(a for a in everything if a not in hit)
    return ReductionCoverage(p=p, hit=len(hit), total=len(everything), missed=missed)


@dataclass(frozen=True)
class RankBoundReport:
    """Achieved dimension of the generated subgroup versus the target 2s."""

    family: str
    m: int
    primes: tuple[int, ...]
    modulus: int
    achieved_dim: int
    target_dim: int
    points_used: int


def rank_bound_m(family: str, primes: Sequence[int]) -> int:
    """The M the rank bound works on: prod(p) for S_M, 3*prod(p) for Sprime_M.

    The primes must be distinct: a repeated p adds the same factor
    Pic0(C_p)/n twice, so the target 2s could never be reached, and
    HypothesisFailed names the repeat.
    """
    for i, p in enumerate(primes):
        if p in primes[:i]:
            raise HypothesisFailed(
                f"the primes of the rank bound must be distinct; {p} is repeated"
            )
    m = prod(primes)
    return m if family_tag(family) == FAMILY_S else 3 * m


def rank_lower_bound(
    family: str,
    primes: Sequence[int],
    points: Sequence[SurfacePoint],
    m: Optional[int] = None,
) -> RankBoundReport:
    """Dimension of the subgroup of the product of Pic0/n quotients
    generated by point images, relative to the base point (1:-1:0:0).

    The target 2s comes from each factor having dimension exactly 2
    under the prime conditions; the achieved value never exceeds it
    since surjectivity is a statement about all rational points, not a
    bounded search.  M is fixed by the primes (rank_bound_m); a caller
    that passes the M its points were searched on gets HypothesisFailed
    up front when the two differ.
    """
    family = family_tag(family)
    n = FAMILIES[family].modulus
    primes = tuple(primes)
    if not primes:
        raise ValueError("need at least one prime")
    conventional = rank_bound_m(family, primes)
    if m is None:
        m = conventional
    elif m != conventional:
        factor = "prod(p)" if family == FAMILY_S else "3*prod(p)"
        raise HypothesisFailed(
            f"the rank bound on {family} over primes {list(primes)} takes "
            f"M = {factor} = {conventional}, not M = {m}"
        )
    for p in primes:
        if not is_prime(p) or p == 3:
            raise NotPrime(f"{p} is not an admissible prime")
        cond = prime_condition(p)
        if family == FAMILY_S:
            if not (cond.one_mod_three and cond.two_is_cube):
                raise PrimeConditionFailed(
                    f"{p} fails the congruence or cube condition for {family}"
                )
        else:
            if not cond.one_mod_three:
                raise PrimeConditionFailed(f"{p} is not 1 mod 3")
    quotients = [_quotient(p, n) for p in primes]
    base = base_surface_point(family, m)
    base_vec: list[int] = []
    for p, q in zip(primes, quotients):
        base_vec.extend(q.coordinates(reduction_class(base, p)))
    # (x, y, z) mod M fixes the residues mod every prime, and a repeated
    # row cannot change the rank, so each residue triple gives one row
    rows = []
    seen = set()
    for pt in points:
        if pt.family != family or pt.m != m:
            raise FamilyMismatch(f"{pt} is not a point of {family} with M = {m}")
        x, y, z, _ = pt.coords
        key = (x % m, y % m, z % m)
        if key in seen:
            continue
        seen.add(key)
        vec: list[int] = []
        for p, q in zip(primes, quotients):
            vec.extend(q.coordinates(reduction_class(pt, p)))
        rows.append([(a - b) % n for a, b in zip(vec, base_vec)])
    target = sum(q.dim for q in quotients)
    achieved = rank(make_extension(n, 1), rows)
    if achieved > target:
        raise AssertionError("achieved dimension exceeded the ambient dimension")
    return RankBoundReport(
        family=family,
        m=m,
        primes=primes,
        modulus=n,
        achieved_dim=achieved,
        target_dim=target,
        points_used=len(points),
    )
