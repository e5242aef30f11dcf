"""The plane cubic x^3 + y^3 + z^3 = 0 over a prime field, p != 3.

The chord-tangent construction with base flex O = (1 : -1 : 0) makes the
rational points an abelian group, and P -> [P - O] identifies that group
with Pic0 of the curve.  One closed form gives the third point on a line:

- the chord through a != b meets the curve again at c2*a - c1*b, where
  c1 = sum a_i^2 b_i and c2 = sum b_i^2 a_i (the cubic restricted to
  s*a + t*b is 3st(c1*s + c2*t); the factor 3 drops out projectively);
- the tangent at a = (x : y : z) meets it again at the tangential point
  (x(y^3 - z^3) : y(z^3 - x^3) : z(x^3 - y^3)), which is never the zero
  vector when p != 3.

Every CurvePoint is valid by construction: p is a prime other than 3,
the coordinates lie in [0, p) with leading nonzero coordinate 1, and they
satisfy the equation.  curve_point reduces and normalizes outside input.
Point lists come from a scan, element orders from repeated addition, and
the quotients Pic0/2 and Pic0/3 from the subgroup of multiples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable

from .errors import BadPrime, CharacteristicThree, HypothesisFailed, NotPrime
from .field import is_prime

#: the base flex used for the group law, as unnormalized coordinates
BASE_FLEX = (1, -1, 0)


@lru_cache(maxsize=None)
def _check_prime(p: int) -> None:
    if p == 3:
        raise CharacteristicThree("the curve x^3+y^3+z^3 is singular mod 3")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")


@dataclass(frozen=True)
class CurvePoint:
    """A curve point, valid by construction (see the module docstring)."""

    p: int
    coords: tuple[int, int, int]

    def __post_init__(self) -> None:
        p = self.p
        _check_prime(p)
        x, y, z = self.coords
        if not (0 <= x < p and 0 <= y < p and 0 <= z < p) or (x or y or z) != 1:
            raise ValueError(f"{self.coords} is not normalized mod {p}")
        if (x * x * x + y * y * y + z * z * z) % p:
            raise ValueError(f"{self.coords} does not lie on the curve mod {p}")


def _normalized(p: int, c: tuple[int, int, int]) -> CurvePoint:
    """The point with reduced, not all zero, coordinates c."""
    lead = c[0] or c[1] or c[2]
    if lead != 1:
        inv = pow(lead, -1, p)
        c = (c[0] * inv % p, c[1] * inv % p, c[2] * inv % p)
    return CurvePoint(p, c)


def curve_point(p: int, coords: Iterable[int]) -> CurvePoint:
    """Reduce and normalize homogeneous coordinates of a curve point."""
    _check_prime(p)
    c = tuple(x % p for x in coords)
    if len(c) != 3 or not any(c):
        raise ValueError("expected three coordinates, not all zero")
    return _normalized(p, c)


@lru_cache(maxsize=None)
def base_point(p: int) -> CurvePoint:
    """The flex O = (1 : -1 : 0)."""
    return curve_point(p, BASE_FLEX)


@lru_cache(maxsize=None)
def curve_points(p: int) -> tuple[CurvePoint, ...]:
    """All rational points, chart by chart with the last coordinate fastest."""
    _check_prime(p)
    cubes = [pow(x, 3, p) for x in range(p)]
    out = []
    for a in range(p):
        for b in range(p):
            if (1 + cubes[a] + cubes[b]) % p == 0:
                out.append(CurvePoint(p, (1, a, b)))
    for c in range(p):
        if (1 + cubes[c]) % p == 0:
            out.append(CurvePoint(p, (0, 1, c)))
    # (0:0:1) would need 1 = 0
    return tuple(out)


def _third_coords(a: CurvePoint, b: CurvePoint) -> tuple[int, int, int]:
    """Reduced, not yet normalized coordinates of the third point of a, b."""
    p = a.p
    if b.p != p:
        raise ValueError("points live over different primes")
    x1, y1, z1 = a.coords
    if a.coords == b.coords:
        u, v, w = x1 * x1 * x1, y1 * y1 * y1, z1 * z1 * z1
        return x1 * (v - w) % p, y1 * (w - u) % p, z1 * (u - v) % p
    x2, y2, z2 = b.coords
    c1 = x1 * x1 * x2 + y1 * y1 * y2 + z1 * z1 * z2
    c2 = x2 * x2 * x1 + y2 * y2 * y1 + z2 * z2 * z1
    return (c2 * x1 - c1 * x2) % p, (c2 * y1 - c1 * y2) % p, (c2 * z1 - c1 * z2) % p


def group_neg(a: CurvePoint) -> CurvePoint:
    """-(x : y : z) = (y : x : z): the line through a and O = (1 : -1 : 0)
    holds (x, y, z) + (y - x)(1, -1, 0), and the equation is symmetric."""
    x, y, z = a.coords
    return _normalized(a.p, (y, x, z))


def group_add(a: CurvePoint, b: CurvePoint) -> CurvePoint:
    """The chord-tangent sum with identity O: -(third point of a and b),
    with the negation's swap done before the one normalization."""
    x, y, z = _third_coords(a, b)
    return _normalized(a.p, (y, x, z))


def group_mul(a: CurvePoint, k: int) -> CurvePoint:
    o = base_point(a.p)
    if k < 0:
        a, k = group_neg(a), -k
    acc = o
    while k:
        if k & 1:
            acc = group_add(acc, a)
        a = group_add(a, a)
        k >>= 1
    return acc


def point_order(a: CurvePoint) -> int:
    o = base_point(a.p)
    acc = a
    k = 1
    while acc != o:
        acc = group_add(acc, a)
        k += 1
    return k


@lru_cache(maxsize=None)
def group_structure(p: int) -> tuple[int, ...]:
    """Invariant factors of C(F_p), by exhaustive order computation.

    The group of an elliptic curve over a finite field has at most two
    factors d1 | d2; d2 is the exponent and d1 the index of the cyclic
    part.  The shape is cross-checked by counting d-torsion for every
    divisor d of the exponent.
    """
    pts = curve_points(p)
    n = len(pts)
    orders = [point_order(a) for a in pts]
    exponent = lcm(*orders)
    if n % exponent:
        raise AssertionError("exponent does not divide the group order")
    d1 = n // exponent
    if d1 > 1 and exponent % d1:
        raise AssertionError("group is not a product of two cyclic factors")
    for d in range(1, exponent + 1):
        if exponent % d:
            continue
        torsion = sum(1 for k in orders if d % k == 0)
        if torsion != gcd(d, d1) * gcd(d, exponent):
            raise AssertionError(f"{d}-torsion count does not match the shape")
    return (exponent,) if d1 == 1 else (d1, exponent)


def is_cube(p: int, a: int) -> bool:
    """Whether a is a cube mod p (cubing is onto when p = 2 mod 3)."""
    _check_prime(p)
    a %= p
    if a == 0 or p % 3 != 1:
        return True
    return pow(a, (p - 1) // 3, p) == 1


def two_division_check(p: int) -> bool:
    """Whether 4x^3 - 27 splits completely over F_p.

    Computed by root count and, independently, by the congruence and cube
    conditions on p; the two routes must agree.
    """
    _check_prime(p)
    if p == 2:
        raise BadPrime("the 2-division polynomial check needs p coprime to 6")
    roots = sum(1 for x in range(p) if (4 * x ** 3 - 27) % p == 0)
    by_roots = roots == 3
    by_condition = p % 3 == 1 and is_cube(p, 2)
    if by_roots != by_condition:
        raise AssertionError("the split test routes disagree")
    return by_roots


@dataclass(frozen=True)
class PrimeCondition:
    """Congruence, cube, and splitting conditions on an odd prime p != 3."""

    one_mod_three: bool
    two_is_cube: bool
    t3_minus_2_splits: bool


def prime_condition(p: int) -> PrimeCondition:
    """p = 1 mod 3, 2 a cube mod p, and whether t^3 - 2 splits."""
    _check_prime(p)
    if p == 2:
        raise BadPrime("the prime conditions are for p coprime to 6")
    cond_a = p % 3 == 1
    cond_b = is_cube(p, 2)
    roots = sum(1 for t in range(p) if (t ** 3 - 2) % p == 0)
    splits = roots == 3
    if splits != (cond_a and cond_b):
        raise AssertionError("t^3 - 2 splitting disagrees with the conditions")
    return PrimeCondition(cond_a, cond_b, splits)


@dataclass(frozen=True)
class PicClass:
    """A canonical coset representative in Pic0/n."""

    quotient: "PicQuotient" = field(compare=False, repr=False)
    rep: CurvePoint

    def __add__(self, other: "PicClass") -> "PicClass":
        if other.quotient is not self.quotient:
            raise ValueError("classes belong to different quotients")
        return self.quotient.class_of(group_add(self.rep, other.rep))

    def __neg__(self) -> "PicClass":
        return self.quotient.class_of(group_neg(self.rep))

    def __sub__(self, other: "PicClass") -> "PicClass":
        return self + (-other)

    @property
    def is_zero(self) -> bool:
        return self.rep == self.quotient.zero_rep


class PicQuotient:
    """Pic0(C_p)/n with every class carried by a point representative."""

    def __init__(self, p: int, n: int):
        if n not in (2, 3):
            raise ValueError("the quotient modulus must be 2 or 3")
        _check_prime(p)
        if p % 3 != 1:
            raise HypothesisFailed("the quotient lemmas need p = 1 mod 3")
        if n == 2 and not is_cube(p, 2):
            raise HypothesisFailed("the mod-2 lemma needs 2 to be a cube mod p")
        self.p = p
        self.n = n
        self.points = curve_points(p)
        multiples = {group_mul(a, n) for a in self.points}
        self.subgroup = multiples
        size, dim = len(self.points) // len(multiples), 0
        while size > 1:
            if size % n:
                raise AssertionError("quotient size is not a power of the modulus")
            size //= n
            dim += 1
        self.dim = dim
        rep_of: dict[CurvePoint, CurvePoint] = {}
        reps = []
        for a in self.points:
            if a in rep_of:
                continue
            reps.append(a)
            for g in multiples:
                rep_of[group_add(a, g)] = a
        self.reps = tuple(reps)
        self._rep_of = rep_of
        self.zero_rep = rep_of[base_point(p)]

        self._coord_of: dict[CurvePoint, tuple[int, ...]] | None = None

    def class_of(self, point: CurvePoint) -> PicClass:
        return PicClass(self, self._rep_of[point])

    @property
    def zero(self) -> PicClass:
        return PicClass(self, self.zero_rep)

    def coordinates(self, cls: PicClass) -> tuple[int, ...]:
        """F_n-coordinates of a class against a greedily chosen basis."""
        if cls.quotient is not self:
            raise ValueError("class belongs to a different quotient")
        if self._coord_of is None:
            span = {self.zero_rep: ()}
            for candidate in self.reps:
                if candidate in span:
                    continue
                grown = {}
                for rep, co in span.items():
                    acc = rep
                    for k in range(self.n):
                        grown[self._rep_of[acc]] = co + (k,)
                        acc = group_add(acc, candidate)
                span = grown
            if len(span) != self.n ** self.dim:
                raise AssertionError("coordinate table does not cover the quotient")
            self._coord_of = {rep: co + (0,) * (self.dim - len(co)) for rep, co in span.items()}
        return self._coord_of[cls.rep]


def pic_mod(p: int, n: int) -> PicQuotient:
    """The quotient Pic0(C_p)/n with dimension and point representatives."""
    return PicQuotient(p, n)
