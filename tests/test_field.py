import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from cubicspan.errors import BudgetExceeded, DegreeTooLarge, HypothesisFailed, IdenticallyZero, NotPrime
from cubicspan.field import (
    _FLAT_TABLE_LIMIT,
    embedding,
    field_from_dict,
    is_prime,
    make_extension,
)

from oracles import (
    artin_schreier_solve,
    cube_roots_of_unity,
    fully_rational,
    rational_count,
    roots_of_cubic,
    solve_quadratic,
    sqrt,
    univariate_gcd,
)

AXIOM_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (13, 1), (2, 4), (5, 2), (3, 3), (7, 2), (2, 6), (13, 2)]


def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)


def test_deterministic_modulus_examples():
    # smallest-code irreducible choices, frozen
    assert make_extension(2, 6).modulus == (1, 1, 0, 0, 0, 0, 1)  # x^6 + x + 1
    assert make_extension(7, 1).modulus == (0, 1)  # plain x
    assert make_extension(2, 2).modulus == (1, 1, 1)  # x^2 + x + 1
    assert make_extension(3, 2).modulus == (1, 0, 1)  # x^2 + 1
    assert make_extension(2, 6) is make_extension(2, 6)


def test_make_extension_errors():
    with pytest.raises(NotPrime):
        make_extension(4, 1)
    with pytest.raises(NotPrime):
        make_extension(1, 2)
    with pytest.raises(NotPrime):
        make_extension(2**61, 1)
    with pytest.raises(DegreeTooLarge):
        make_extension(2, 25)
    with pytest.raises(DegreeTooLarge):
        make_extension(2, 0)


def test_serialization_round_trip():
    fld = make_extension(2, 6)
    assert fld.to_dict() == {"p": 2, "k": 6, "modulus": [1, 1, 0, 0, 0, 0, 1]}
    assert field_from_dict(fld.to_dict()) is fld
    assert field_from_dict({"p": 7, "k": 1, "modulus": [0, 1]}).q == 7
    with pytest.raises(ValueError):
        field_from_dict({"p": 2, "k": 2, "modulus": [1, 0, 1]})


def test_code_coefficient_round_trip():
    fld = make_extension(5, 3)
    for code in (0, 1, 7, 124):
        assert fld.encode(fld.decode(code)) == code
    assert fld.decode(7) == (2, 1, 0)  # 2 + a


@pytest.mark.parametrize("p,k", AXIOM_FIELDS)
def test_field_axioms_sampled(p, k):
    fld = make_extension(p, k)
    rng = random.Random(10_000 * p + k)
    q = fld.q
    for _ in range(1000):
        a, b, c = rng.randrange(q), rng.randrange(q), rng.randrange(q)
        assert fld.add(a, b) == fld.add(b, a)
        assert fld.mul(a, b) == fld.mul(b, a)
        assert fld.add(fld.add(a, b), c) == fld.add(a, fld.add(b, c))
        assert fld.mul(fld.mul(a, b), c) == fld.mul(a, fld.mul(b, c))
        assert fld.mul(a, fld.add(b, c)) == fld.add(fld.mul(a, b), fld.mul(a, c))
        assert fld.add(a, fld.neg(a)) == 0
        if a:
            assert fld.mul(a, fld.inv(a)) == 1
    assert fld.add(0, 5 % q) == 5 % q
    assert fld.mul(1, 5 % q) == 5 % q


def test_artin_schreier_needs_characteristic_two():
    f8 = make_extension(2, 3)
    d = f8.add(f8.mul(3, 3), 3)
    u = artin_schreier_solve(f8, d)
    assert f8.add(f8.mul(u, u), u) == d
    with pytest.raises(HypothesisFailed):
        artin_schreier_solve(make_extension(3, 2), 1)


def test_sqrt_char2_is_bijective():
    fld = make_extension(2, 6)
    seen = set()
    for a in fld.elements():
        r = sqrt(fld, a)
        assert fld.mul(r, r) == a
        seen.add(r)
    assert len(seen) == 64


@pytest.mark.parametrize("p,k", [(13, 1), (5, 2), (7, 2), (3, 4), (17, 1)])
def test_sqrt_odd_char(p, k):
    fld = make_extension(p, k)
    none_count = 0
    for a in fld.elements():
        r = sqrt(fld, a)
        if r is None:
            none_count += 1
        else:
            assert fld.mul(r, r) == a
    assert none_count == (fld.q - 1) // 2


def test_solve_quadratic_examples():
    f7 = make_extension(7, 1)
    assert solve_quadratic(f7, 1, 0, -1) == [(1, 1), (6, 1)]
    f4 = make_extension(2, 2)
    assert solve_quadratic(f4, 1, 1, 1) == [(2, 1), (3, 1)]
    # double root in odd characteristic: (t-3)^2 over F_7
    assert solve_quadratic(f7, 1, 1, 2) == [(3, 2)]
    with pytest.raises(ValueError):
        solve_quadratic(f7, 0, 1, 1)


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 4), (3, 2), (13, 1), (5, 2), (2, 6), (7, 2), (11, 2)])
def test_solve_quadratic_against_scan(p, k):
    fld = make_extension(p, k)
    rng = random.Random(99 * p + k)
    for _ in range(120):
        a = rng.randrange(1, fld.q)
        b, c = rng.randrange(fld.q), rng.randrange(fld.q)
        got = solve_quadratic(fld, a, b, c)
        brute = [t for t in fld.elements() if fld.add(fld.mul(a, fld.mul(t, t)), fld.add(fld.mul(b, t), c)) == 0]
        assert sorted(r for r, _ in got) == sorted(brute)
        assert sum(m for _, m in got) in (0, 1, 2)
        if sum(m for _, m in got) == 2:
            # reconstruct a(t - r1)(t - r2) and compare coefficients
            roots = [r for r, m in got for _ in range(m)]
            s = fld.add(roots[0], roots[1])
            pr = fld.mul(roots[0], roots[1])
            assert fld.neg(fld.mul(a, s)) == b
            assert fld.mul(a, pr) == c


def test_roots_of_cubic_split_example():
    f31 = make_extension(31, 1)
    res = roots_of_cubic(f31, (29, 0, 0, 1))  # t^3 - 2
    assert res.rational == (((1, 4), 1), ((1, 7), 1), ((1, 20), 1))
    assert res.extension_roots == 0 and fully_rational(res)


def test_roots_of_cubic_irreducible_and_partial():
    f7 = make_extension(7, 1)
    # t^3 - 3 has no roots mod 7 (cubes mod 7 are 0, 1, 6)
    res = roots_of_cubic(f7, (4, 0, 0, 1))
    assert res.rational == () and res.extension_roots == 3
    # t^2 + 1 times (t - 3): exactly one rational root
    # (t-3)(t^2+1) = t^3 - 3t^2 + t - 3
    res = roots_of_cubic(f7, (4, 1, 4, 1))
    assert res.rational == (((1, 3), 1),)
    assert res.extension_roots == 2


def test_roots_of_cubic_multiplicity_and_infinity():
    f7 = make_extension(7, 1)
    # t^3: triple root at t = 0
    assert roots_of_cubic(f7, (0, 0, 0, 1)).rational == (((1, 0), 3),)
    # 6 s^3 + s^2 t: double root at infinity plus t = -6 = 1
    res = roots_of_cubic(f7, (6, 1, 0, 0))
    assert res.rational == (((0, 1), 2), ((1, 1), 1))
    # (t - 2)^2 (t - 5) = t^3 - 9t^2 + 24t - 20
    res = roots_of_cubic(f7, ((-20) % 7, 24 % 7, (-9) % 7, 1))
    assert dict(res.rational) == {(1, 2): 2, (1, 5): 1}
    with pytest.raises(IdenticallyZero):
        roots_of_cubic(f7, (0, 0, 0, 0))


def test_roots_of_cubic_total_is_three_sampled():
    fld = make_extension(13, 1)
    rng = random.Random(7)
    for _ in range(300):
        coeffs = tuple(rng.randrange(13) for _ in range(4))
        if all(c == 0 for c in coeffs):
            continue
        res = roots_of_cubic(fld, coeffs)
        assert rational_count(res) + res.extension_roots == 3
        for (s, t), _ in res.rational:
            # check the root kills the form
            val = fld.add(
                fld.add(fld.mul(coeffs[0], fld.pow_(s, 3)), fld.mul(coeffs[1], fld.mul(fld.mul(s, s), t))),
                fld.add(fld.mul(coeffs[2], fld.mul(s, fld.mul(t, t))), fld.mul(coeffs[3], fld.pow_(t, 3))),
            )
            assert val == 0


def test_cube_roots_of_unity():
    assert cube_roots_of_unity(make_extension(13, 1)) == [1, 3, 9]
    assert cube_roots_of_unity(make_extension(7, 1)) == [1, 2, 4]
    assert cube_roots_of_unity(make_extension(5, 1)) == [1]
    assert cube_roots_of_unity(make_extension(3, 1)) == [1]
    f4 = make_extension(2, 2)
    assert cube_roots_of_unity(f4) == [1, 2, 3]


def test_univariate_helpers():
    f13 = make_extension(13, 1)
    # (t-1)^2 (t-4) = t^3 - 6t^2 + 9t - 4
    poly = [(-4) % 13, 9, (-6) % 13, 1]
    assert roots_of_cubic(f13, poly).rational == (((1, 1), 2), ((1, 4), 1))
    g = univariate_gcd(f13, poly, [(-1) % 13, 1])  # gcd with t - 1
    assert g == [(-1) % 13, 1]
    assert univariate_gcd(f13, poly, [1, 1]) == [1]


def test_embedding_is_a_ring_hom():
    base = make_extension(2, 2)
    ext = make_extension(2, 6)
    emb = embedding(base, ext)
    for a in base.elements():
        for b in base.elements():
            assert emb(base.add(a, b)) == ext.add(emb(a), emb(b))
            assert emb(base.mul(a, b)) == ext.mul(emb(a), emb(b))
    assert emb(0) == 0 and emb(1) == 1
    # distinct elements stay distinct
    assert len({emb(a) for a in base.elements()}) == 4
    # prime field embeds by identity on codes
    emb13 = embedding(make_extension(13, 1), make_extension(13, 2))
    assert [emb13(c) for c in range(13)] == list(range(13))


@given(st.integers(min_value=0, max_value=48), st.integers(min_value=0, max_value=48), st.integers(min_value=0, max_value=48))
def test_field_axioms_hypothesis_f49(a, b, c):
    fld = make_extension(7, 2)
    add, mul = fld.add, fld.mul
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert mul(a, b) == mul(b, a)


def test_large_field_without_tables():
    # beyond the table limit: polynomial arithmetic path
    fld = make_extension(2, 20)
    a, b = 0b1011011, 0b1100101110001
    assert fld.mul(a, fld.inv(a)) == 1
    assert fld.mul(fld.add(a, b), fld.add(a, b)) == fld.add(fld.mul(a, a), fld.mul(b, b))


@pytest.mark.parametrize("pk", [(2, 1), (2, 2), (3, 2), (13, 1), (5, 2)])
def test_flat_tables_agree_with_the_methods(pk):
    f = make_extension(*pk)
    q = f.q
    add, mul, neg = f.flat_tables()
    assert len(add) == len(mul) == q * q and len(neg) == q
    for a in range(q):
        assert neg[a] == f.neg(a)
        for b in range(q):
            assert add[a * q + b] == f.add(a, b)
            assert mul[a * q + b] == f.mul(a, b)
    assert f.flat_tables() is f.flat_tables()
    assert f.root_tables() is f.root_tables()


def test_flat_tables_refuse_large_fields():
    f = make_extension(257, 1)
    assert f.q > _FLAT_TABLE_LIMIT
    for build in (f.flat_tables, f.root_tables):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded):
                build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024  # the q x q tables of GF(257) would take over 1 MB
