"""Tests for the plane cubic group law and its small quotients."""

import hashlib
from dataclasses import astuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicspan.errors import BadPrime, CharacteristicThree, HypothesisFailed, NotPrime
from cubicspan.field import is_prime
from cubicspan.planecubic import (
    CurvePoint,
    base_point,
    curve_point,
    curve_points,
    group_add,
    group_mul,
    group_neg,
    group_structure,
    is_cube,
    pic_mod,
    point_order,
    prime_condition,
    two_division_check,
)
from oracles import flexes, pencil_third_point, third_point, weierstrass_model_agrees

SMALL_PRIMES = [2, 5, 7, 11, 13, 17, 19, 23, 29, 31]

# frozen by exhaustive order computation
STRUCTURES = {
    2: (3,),
    5: (6,),
    7: (3, 3),
    11: (12,),
    13: (3, 3),
    17: (18,),
    19: (3, 9),
    23: (24,),
    29: (30,),
    31: (6, 6),
}


def test_nine_points_mod_seven():
    pts = [a.coords for a in curve_points(7)]
    assert pts == [
        (1, 0, 3), (1, 0, 5), (1, 0, 6),
        (1, 3, 0), (1, 5, 0), (1, 6, 0),
        (0, 1, 3), (0, 1, 5), (0, 1, 6),
    ]


def test_char_two_curve():
    pts = [a.coords for a in curve_points(2)]
    assert (1, 1, 0) in pts
    assert len(pts) == 3


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_base_flex_present(p):
    assert base_point(p) in curve_points(p)


def test_point_validation():
    with pytest.raises(ValueError):
        curve_point(7, (1, 1, 1))
    with pytest.raises(ValueError):
        curve_point(7, (0, 0, 0))
    with pytest.raises(ValueError):
        curve_point(7, (1, 6))


def test_invalid_points_cannot_be_built():
    # off the curve, not normalized, over a bad modulus, out of range, zero
    with pytest.raises(ValueError):
        CurvePoint(7, (1, 1, 1))
    with pytest.raises(ValueError):
        CurvePoint(7, (2, 12, 0))
    with pytest.raises(NotPrime):
        CurvePoint(9, (1, 2, 0))
    with pytest.raises(CharacteristicThree):
        CurvePoint(3, (1, 2, 0))
    with pytest.raises(ValueError):
        CurvePoint(7, (1, 6, 7))
    with pytest.raises(ValueError):
        CurvePoint(7, (0, 0, 0))
    assert CurvePoint(7, (1, 6, 0)) == base_point(7)


def test_point_normalization():
    assert curve_point(7, (2, 12, 0)) == base_point(7)
    assert curve_point(7, (0, 4, -4)).coords == (0, 1, 6)


def test_bad_characteristic():
    with pytest.raises(CharacteristicThree):
        curve_points(3)
    with pytest.raises(NotPrime):
        curve_points(9)
    with pytest.raises(NotPrime):
        curve_points(1)


def test_known_third_point():
    o = base_point(7)
    r = third_point(o, curve_point(7, (0, 1, -1)))
    assert r == curve_point(7, (1, 0, -1))
    # O is a flex, so its tangent meets the curve only there
    assert third_point(o, o) == o
    # the same collinearity holds over every other small prime
    for p in [2, 5, 13, 31]:
        r = third_point(base_point(p), curve_point(p, (0, 1, -1)))
        assert r == curve_point(p, (1, 0, -1))


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_third_point_symmetric(p):
    pts = curve_points(p)
    for a in pts:
        for b in pts:
            assert third_point(a, b) == third_point(b, a)


def _primes(lo, hi):
    return [p for p in range(lo, hi) if p != 3 and is_prime(p)]


@pytest.mark.parametrize("p", _primes(2, 62))
def test_chords_match_the_pencil_oracle(p):
    pts = curve_points(p)
    for a in pts:
        for b in pts:
            assert third_point(a, b) == pencil_third_point(a, b)


def test_tangents_match_the_pencil_oracle():
    for p in _primes(2, 400):
        for a in curve_points(p):
            assert third_point(a, a) == pencil_third_point(a, a)


def _digest(rows):
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def test_group_structures_to_199_are_pinned():
    # SHA-256 of [(p, group_structure(p)) for prime 5 <= p <= 199], recorded
    # with third points computed by the pencil construction
    shapes = [(p, group_structure(p)) for p in _primes(5, 200)]
    assert _digest(shapes) == "969d66a2d227afb07533281bfc3358f7f5c9ad4dc7047d84da1796df9678195d"


def test_pic_tables_to_199_are_pinned():
    # reps and the coordinates of every point's class in Pic0/3, and in
    # Pic0/2 where 2 is a cube, for p = 1 mod 3; recorded as above
    rows = []
    for p in _primes(7, 200):
        if p % 3 != 1:
            continue
        for n in (3, 2) if is_cube(p, 2) else (3,):
            quotient = pic_mod(p, n)
            rows.append((
                p,
                n,
                [rep.coords for rep in quotient.reps],
                [quotient.coordinates(quotient.class_of(pt)) for pt in curve_points(p)],
            ))
    assert len(rows) == 26
    assert _digest(rows) == "7e9057e5ecdd2ec9c2d7b8a47455138c86e4678a8d6c08ad99c2e369fac1e136"


@pytest.mark.parametrize("p", [2, 5, 7, 13])
def test_collinear_triples_sum_to_zero(p):
    o = base_point(p)
    pts = curve_points(p)
    for a in pts:
        for b in pts:
            r = third_point(a, b)
            assert group_add(group_add(a, b), r) == o


def test_sum_zero_triples_are_collinear():
    # converse direction: a triple summing to zero has each member the
    # third point of the other two, tangent cases included
    pts = curve_points(7)
    o = base_point(7)
    for a in pts:
        for b in pts:
            r = group_neg(group_add(a, b))
            assert third_point(a, b) == r
            assert group_add(group_add(a, b), r) == o


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_group_axioms_exhaustive(p):
    o = base_point(p)
    pts = curve_points(p)
    for a in pts:
        assert group_add(a, o) == a
        assert group_add(a, group_neg(a)) == o
    for a in pts:
        for b in pts:
            assert group_add(a, b) == group_add(b, a)
    for a in pts:
        for b in pts:
            ab = group_add(a, b)
            for c in pts:
                assert group_add(ab, c) == group_add(a, group_add(b, c))


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_group_structure_frozen(p):
    factors = group_structure(p)
    assert factors == STRUCTURES[p]
    total = 1
    for d in factors:
        total *= d
    assert total == len(curve_points(p))


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_orders_divide_exponent(p):
    exponent = group_structure(p)[-1]
    assert point_order(base_point(p)) == 1
    for a in curve_points(p):
        assert exponent % point_order(a) == 0


@given(
    i=st.integers(min_value=0, max_value=8),
    k1=st.integers(min_value=-20, max_value=20),
    k2=st.integers(min_value=-20, max_value=20),
)
@settings(max_examples=60, deadline=None)
def test_scalar_multiples_additive(i, k1, k2):
    a = curve_points(13)[i]
    left = group_mul(a, k1 + k2)
    right = group_add(group_mul(a, k1), group_mul(a, k2))
    assert left == right


@pytest.mark.parametrize("p", [7, 13, 19, 31])
def test_flexes_are_three_torsion(p):
    # p = 1 mod 3, so all nine flexes are rational and give the 3-torsion
    fl = set(flexes(p))
    assert len(fl) == 9
    torsion = {a for a in curve_points(p) if point_order(a) in (1, 3)}
    assert fl == torsion


@pytest.mark.parametrize("p", [5, 11, 17])
def test_flexes_inert_prime(p):
    # cubing is a bijection, so only the three coordinate flexes survive
    fl = flexes(p)
    assert len(fl) == 3
    assert all(0 in a.coords for a in fl)


def test_two_division_check():
    assert two_division_check(31) is True
    assert two_division_check(7) is False
    assert two_division_check(13) is False
    assert two_division_check(5) is False
    with pytest.raises(BadPrime):
        two_division_check(2)


def test_two_not_cube_mod_13():
    # 2^4 = 16 = 3 mod 13, not 1
    assert is_cube(13, 2) is False
    assert is_cube(31, 2) is True
    assert is_cube(5, 2) is True


def test_prime_condition_table():
    assert astuple(prime_condition(31)) == (True, True, True)
    assert astuple(prime_condition(7)) == (True, False, False)
    assert astuple(prime_condition(5)) == (False, True, False)
    with pytest.raises(BadPrime):
        prime_condition(2)


def test_t_cubed_minus_two_roots_mod_31():
    roots = sorted(t for t in range(31) if (t ** 3 - 2) % 31 == 0)
    assert roots == [4, 7, 20]
    assert prime_condition(31).t3_minus_2_splits


@pytest.mark.parametrize(
    "p, n, dim", [(13, 3, 2), (7, 3, 2), (19, 3, 2), (31, 3, 2), (31, 2, 2)]
)
def test_pic_quotient_dimension(p, n, dim):
    quotient = pic_mod(p, n)
    assert quotient.dim == dim
    assert len(quotient.reps) == n ** dim


def test_pic_quotient_matches_invariant_factors():
    # independent route: the dimension is the number of invariant
    # factors the modulus divides
    for p, n in [(7, 3), (13, 3), (19, 3), (31, 3), (31, 2)]:
        expected = sum(1 for d in group_structure(p) if d % n == 0)
        assert pic_mod(p, n).dim == expected


def test_pic_reps_cover_all_points():
    quotient = pic_mod(13, 3)
    seen = {quotient.class_of(a).rep for a in curve_points(13)}
    assert seen == set(quotient.reps)
    for rep in quotient.reps:
        assert quotient.class_of(rep).rep == rep


def test_pic_class_arithmetic():
    quotient = pic_mod(31, 2)
    a = quotient.class_of(curve_points(31)[1])
    b = quotient.class_of(curve_points(31)[2])
    assert (a - a).is_zero
    assert quotient.class_of(base_point(31)).is_zero
    assert quotient.zero.is_zero
    assert (a + b) - b == a
    doubled = a + a
    assert doubled.is_zero  # every class has order dividing 2


def test_pic_hypothesis_failures():
    with pytest.raises(HypothesisFailed):
        pic_mod(5, 3)
    with pytest.raises(HypothesisFailed):
        pic_mod(13, 2)
    with pytest.raises(HypothesisFailed):
        pic_mod(7, 2)
    with pytest.raises(ValueError):
        pic_mod(13, 5)


@pytest.mark.parametrize("p", [5, 7, 13, 31])
def test_weierstrass_model_agreement(p):
    assert weierstrass_model_agrees(p) is True


def test_weierstrass_bad_prime():
    with pytest.raises(BadPrime):
        weierstrass_model_agrees(2)
