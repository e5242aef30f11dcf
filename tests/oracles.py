"""Brute-force enumerations of P^3 that the tests compare the scans against.

Enumeration orders match the package's contract: points run chart by
chart with the last free coordinate fastest, and lines ascend
lexicographically by their flattened canonical 2x4 matrix.
"""

import heapq
from typing import Iterator

from cubicspan.field import ExtField
from cubicspan.projgeo import Line3


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
