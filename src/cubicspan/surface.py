"""Cubic surfaces in P^3: lines, tangency, point types.

A surface is a nonzero homogeneous cubic form in four variables with
coefficients either in a finite field (codes, see field.py) or in the
integers (for the two named rational families).  All geometric routines
work over finite fields; the integer domain supports evaluation,
gradients and restriction, which is what the reduction machinery needs.

One streaming scan, _zeros, lists the surface points of an affine chart:
it restricts the form to the chart's coordinate plane or line and finds
the roots of each binary cubic (_cubic_zeros).  zero_points is that scan
over the four charts whose first nonzero coordinate is 1.
lines_on_surface draws both rows of every canonical line basis from the
same scan, so it does not walk all of the roughly q^4 candidate
matrices: only row pairs whose rows already lie on the surface are
tested for full containment.

Evaluation, restriction to a line and the root scan have two paths with
equal results.  Over a field with at most field._FLAT_TABLE_LIMIT
elements they index ExtField.flat_tables, and the roots are read off
ExtField.root_tables (the flat path); integer forms and larger fields
call the field's methods, or + and *, and scan every code by Horner's
rule (the method path).  _flat selects the path on every call.

The tangent cone at a point u is the polar quadric sum_m u_m dF/dx_m,
restricted once to a line of the tangent plane read off the gradient
(_tangent_cone).  It vanishes identically exactly at the Eckardt points,
so eckardt_points reads the cone and nothing else.  classify_point reads
the kind off the cone's zero count (_quadratic_zero_count) and the lines
off the cubic's remainder mod the cone, or at an Eckardt point off the
cubic's discriminant and Hessian (_binary_cubic_zero_count): it finds no
root, so _cubic_zeros is the layer's one root finder.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Iterator, Optional, Sequence

from . import field as fieldlib
from .errors import (
    BudgetExceeded,
    FamilyMismatch,
    IdenticallyZero,
    PointNotOnSurface,
    SingularPoint,
)
from .field import ExtField, embedding, field_from_dict, make_extension
from .projgeo import Line3, ProjPoint, rank


def _monomials(degree: int) -> tuple[tuple[int, int, int, int], ...]:
    """Exponent vectors of the monomials of one degree in x0..x3, descending."""
    return tuple(
        (e0, e1, e2, degree - e0 - e1 - e2)
        for e0 in range(degree, -1, -1)
        for e1 in range(degree - e0, -1, -1)
        for e2 in range(degree - e0 - e1, -1, -1)
    )


#: exponent vectors of the 20 degree-3 monomials, descending
MONOMIALS = _monomials(3)

_UNIT = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))

#: largest q*q allowed for a single zero-set scan during line enumeration
LINE_SCAN_BUDGET = 1 << 22


@dataclass(frozen=True)
class Family:
    """An integer family x^3 + y^3 + z^3 + M * monomial = 0.

    modulus is the n of the Pic0/n quotient its reduction classes live in.
    """

    aliases: tuple[str, ...]
    monomial: tuple[int, int, int, int]
    modulus: int


#: the two rational families, keyed by canonical tag
FAMILIES = {
    "S_M": Family(("S", "S_M"), (0, 0, 1, 2), 2),
    "Sprime_M": Family(("Sprime", "Sprime_M", "S'_M"), (0, 0, 0, 3), 3),
}

_TAG_BY_ALIAS = {alias: tag for tag, fam in FAMILIES.items() for alias in fam.aliases}


def family_tag(name: str) -> str:
    """The canonical tag of a family name or alias."""
    try:
        return _TAG_BY_ALIAS[name]
    except KeyError:
        raise FamilyMismatch(f"unknown family {name!r}") from None


def _ops(field: Optional[ExtField]):
    if field is None:
        return operator.add, operator.mul
    return field.add, field.mul


def _flat(field: Optional[ExtField]):
    """The field's flat (add, mul, neg) tables, or None for integer forms and
    fields above the flat-table limit.  The limit is read at every call."""
    if field is None or field.q > fieldlib._FLAT_TABLE_LIMIT:
        return None
    return field.flat_tables()


def _mono_indices(mono: Sequence[int]) -> tuple[int, ...]:
    out: list[int] = []
    for i, e in enumerate(mono):
        out.extend([i] * e)
    return tuple(out)


def _evaluate_terms(field, term_lists, coords) -> list:
    """The values of sum c * x_i x_j ... at a point, one per term list."""
    tables = _flat(field)
    if tables is not None:
        return _evaluate_flat(tables, field.q, term_lists, coords)
    add, mul = _ops(field)
    out = []
    for terms in term_lists:
        total = 0
        for c, idxs in terms:
            for i in idxs:
                c = mul(c, coords[i])
            total = add(total, c)
        out.append(total)
    return out


def _evaluate_flat(tables, q, term_lists, coords) -> list:
    """_evaluate_terms's products, read off the flat tables."""
    add, mul, _neg = tables
    out = []
    for terms in term_lists:
        total = 0
        for c, idxs in terms:
            for i in idxs:
                c = mul[c * q + coords[i]]
            total = add[total * q + c]
        out.append(total)
    return out


def _restrict_terms_to_line(field, terms, u, v) -> list:
    """Coefficients of sum c * x_i x_j (x_k) at x = s*u + t*v, s-degree first.

    Each term is a product of linear forms u_i s + v_i t, multiplied out in
    closed form: the first two make a quadratic and a third factor, when the
    term has one, raises it to a cubic.  A term with a factor that vanishes
    on the whole line (u_i = v_i = 0) is skipped.  Integer and field
    coefficients take the same path.  The result always has four entries;
    a quadratic leaves the last at zero.  Within the flat-table limit the
    same products index the field's flat tables instead.
    """
    tables = _flat(field)
    if tables is not None:
        return _restrict_flat(tables, field.q, terms, u, v)
    add, mul = _ops(field)
    c0 = c1 = c2 = c3 = 0
    for c, idxs in terms:
        i, j = idxs[0], idxs[1]
        a1, b1, a2, b2 = u[i], v[i], u[j], v[j]
        if not (a1 or b1) or not (a2 or b2):
            continue
        third = len(idxs) == 3
        if third:
            a3, b3 = u[idxs[2]], v[idxs[2]]
            if not (a3 or b3):
                continue
        p0 = mul(a1, a2)
        p1 = add(mul(a1, b2), mul(b1, a2))
        p2 = mul(b1, b2)
        if third:
            p0, p1, p2, p3 = (
                mul(p0, a3),
                add(mul(p0, b3), mul(p1, a3)),
                add(mul(p1, b3), mul(p2, a3)),
                mul(p2, b3),
            )
            if p3:
                c3 = add(c3, mul(c, p3))
        if p0:
            c0 = add(c0, mul(c, p0))
        if p1:
            c1 = add(c1, mul(c, p1))
        if p2:
            c2 = add(c2, mul(c, p2))
    return [c0, c1, c2, c3]


def _restrict_flat(tables, q, terms, u, v) -> list:
    """_restrict_terms_to_line's products, read off the flat tables."""
    add, mul, _neg = tables
    c0 = c1 = c2 = c3 = 0
    for c, idxs in terms:
        i, j = idxs[0], idxs[1]
        a1, b1, a2, b2 = u[i] * q, v[i] * q, u[j], v[j]
        if not (a1 or b1) or not (a2 or b2):
            continue
        p0, p1, p2 = mul[a1 + a2], add[mul[a1 + b2] * q + mul[b1 + a2]], mul[b1 + b2]
        if len(idxs) == 3:
            a3, b3 = u[idxs[2]], v[idxs[2]]
            if not (a3 or b3):
                continue
            p0, p1, p2, p3 = (
                mul[p0 * q + a3],
                add[mul[p0 * q + b3] * q + mul[p1 * q + a3]],
                add[mul[p1 * q + b3] * q + mul[p2 * q + a3]],
                mul[p2 * q + b3],
            )
            c3 = add[c3 * q + mul[c * q + p3]]
        c *= q
        c0 = add[c0 * q + mul[c + p0]]
        c1 = add[c1 * q + mul[c + p1]]
        c2 = add[c2 * q + mul[c + p2]]
    return [c0, c1, c2, c3]


def _substitute_linear(field, terms, vectors):
    """Expand a form under x_i = sum_j y_j * vectors[j][i].

    terms is a list of (coefficient, variable-index tuple) pairs; the result
    is a dict over exponent tuples in the len(vectors) new variables.
    """
    add, mul = _ops(field)
    m = len(vectors)
    zero_key = (0,) * m
    out: dict = {}
    for coeff, idxs in terms:
        poly = {zero_key: coeff}
        for i in idxs:
            lin = [(j, vec[i]) for j, vec in enumerate(vectors) if vec[i]]
            if not lin:
                poly = None
                break
            new: dict = {}
            for mono, c in poly.items():
                for j, w in lin:
                    key = mono[:j] + (mono[j] + 1,) + mono[j + 1 :]
                    val = c if w == 1 else mul(c, w)
                    prev = new.get(key)
                    new[key] = val if prev is None else add(prev, val)
            poly = new
        if not poly:
            continue
        for mono, c in poly.items():
            if c:
                prev = out.get(mono)
                out[mono] = c if prev is None else add(prev, c)
    return {k: v for k, v in out.items() if v}


class CubicForm:
    """Homogeneous cubic in x0..x3 over a finite field or the integers."""

    __slots__ = ("field", "coeffs", "_terms", "_partial_terms", "_polar_terms")

    def __init__(self, field: Optional[ExtField], coeffs: dict):
        clean: dict = {}
        for mono, c in coeffs.items():
            mono = tuple(int(e) for e in mono)
            if len(mono) != 4 or any(e < 0 for e in mono) or sum(mono) != 3:
                raise ValueError(f"not a degree-3 exponent vector: {mono}")
            if field is not None:
                c = int(c)
                if not 0 <= c < field.q:
                    raise ValueError(f"coefficient {c} is not a code in GF({field.q})")
            if c:
                clean[mono] = c
        if not clean:
            raise IdenticallyZero("the zero form does not define a surface")
        self.field = field
        self.coeffs = clean
        self._terms = [(c, _mono_indices(mono)) for mono, c in sorted(clean.items(), reverse=True)]
        self._partial_terms = None
        self._polar_terms = None

    # -- construction and serialization ---------------------------------

    @classmethod
    def from_family(cls, family: str, m: int) -> "CubicForm":
        """The integer surface x^3+y^3+z^3+M*z*w^2 ("S_M") or +M*w^3
        ("Sprime_M"), named by any alias in FAMILIES."""
        base = {(3, 0, 0, 0): 1, (0, 3, 0, 0): 1, (0, 0, 3, 0): 1}
        base[FAMILIES[family_tag(family)].monomial] = int(m)
        return cls(None, base)

    @classmethod
    def from_dict(cls, data: dict) -> "CubicForm":
        if "family" in data:
            form = cls.from_family(data["family"], data["M"])
            if data.get("field"):
                form = form.reduce_mod(field_from_dict(data["field"]))
            return form
        fld = field_from_dict(data["field"]) if data.get("field") else None
        coeffs = {tuple(int(ch) for ch in key): v for key, v in data["coeffs"].items()}
        return cls(fld, coeffs)

    def to_dict(self) -> dict:
        coeffs = {"".join(map(str, mono)): c for mono, c in sorted(self.coeffs.items(), reverse=True)}
        return {
            "field": self.field.to_dict() if self.field is not None else None,
            "coeffs": coeffs,
        }

    def reduce_mod(self, field: ExtField) -> "CubicForm":
        """Reduce integer coefficients into the prime subfield of a finite field."""
        if self.field is not None:
            raise TypeError("only integer forms can be reduced")
        return CubicForm(field, {m: c % field.p for m, c in self.coeffs.items()})

    def embed(self, ext: ExtField) -> "CubicForm":
        """The same surface with coefficients pushed into an extension field."""
        if ext is self.field:
            return self
        emb = embedding(self.field, ext)
        return CubicForm(ext, {m: emb(c) for m, c in self.coeffs.items()})

    # -- evaluation ------------------------------------------------------

    def evaluate(self, coords: Sequence[int]):
        return _evaluate_terms(self.field, (self._terms,), coords)[0]

    def _partials(self):
        """The terms of the four partials.  Also fills _polar_terms: the monomials
        x_i x_j of sum_m u_m dF/dx_m, and their coefficients as terms c * u_m."""
        if self._partial_terms is None:
            parts = []
            polar: dict = {}
            p = self.field.p if self.field is not None else 0
            for i in range(4):
                terms = []
                for mono, c in sorted(self.coeffs.items(), reverse=True):
                    e = mono[i]
                    if not e:
                        continue
                    if self.field is not None:
                        scaled = self.field.mul(e % p, c)
                    else:
                        scaled = e * c
                    if scaled:
                        idxs = _mono_indices(mono[:i] + (e - 1,) + mono[i + 1:])
                        terms.append((scaled, idxs))
                        polar.setdefault(idxs, []).append((scaled, (i,)))
                parts.append(terms)
            self._partial_terms = parts
            self._polar_terms = (tuple(polar), tuple(polar.values()))
        return self._partial_terms

    def gradient(self, coords: Sequence[int]) -> tuple:
        """The four formal partial derivatives evaluated at a point."""
        return tuple(_evaluate_terms(self.field, self._partials(), coords))

    # -- restriction -----------------------------------------------------

    def restrict_to_line(self, u: Sequence[int], v: Sequence[int]) -> tuple:
        """Coefficients (c0..c3) of F(s*u + t*v), with c_i on s^(3-i) t^i."""
        return tuple(_restrict_terms_to_line(self.field, self._terms, u, v))

    def restrict_to_plane(self, basis: Sequence[Sequence[int]]) -> dict:
        """Ternary cubic of the surface pulled back along three spanning vectors."""
        return _substitute_linear(self.field, self._terms, tuple(tuple(b) for b in basis))

    def __eq__(self, other):
        return (
            isinstance(other, CubicForm)
            and self.field is other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.field), tuple(sorted(self.coeffs.items()))))

    def __repr__(self):
        inside = "ZZ" if self.field is None else f"GF({self.field.q})"
        return f"CubicForm({inside}, {len(self.coeffs)} terms)"


def fermat_cubic(field: ExtField) -> CubicForm:
    """x0^3 + x1^3 + x2^3 + x3^3, smooth whenever the characteristic is not 3."""
    return CubicForm(field, {(3, 0, 0, 0): 1, (0, 3, 0, 0): 1, (0, 0, 3, 0): 1, (0, 0, 0, 3): 1})


def surface_with_27_lines_over_f64() -> CubicForm:
    """A smooth cubic surface over F_2 whose 27 lines all split over F_64.

    Its Eckardt geometry is extreme for characteristic 2: thirteen Eckardt
    points in total, three of the lines carrying five apiece.
    """
    f2 = make_extension(2, 1)
    return CubicForm(
        f2,
        {
            (2, 0, 1, 0): 1,
            (2, 0, 0, 1): 1,
            (1, 2, 0, 0): 1,
            (1, 1, 1, 0): 1,
            (1, 0, 0, 2): 1,
            (0, 2, 1, 0): 1,
            (0, 1, 2, 0): 1,
        },
    )


# -- fast zero-set scans ------------------------------------------------


def _cubic_zeros(f: ExtField, c0, c1, c2, c3) -> list[int]:
    """The codes t with c0 + c1 t + c2 t^2 + c3 t^3 = 0, ascending."""
    tables = _flat(f)
    if tables is not None:
        return _table_roots(f, tables, c0, c1, c2, c3)
    add, mul = f.add, f.mul
    return [t for t in range(f.q) if add(mul(add(mul(add(mul(c3, t), c2), t), c1), t), c0) == 0]


def _table_roots(f: ExtField, tables, c0, c1, c2, c3) -> list[int]:
    """_cubic_zeros by at most three root-table lookups.  The monic
    b^3 + A b^2 + B b + G has a root r = A*y, y a root of
    y^3 + y^2 + (B/A^2) y + G/A^3, when A != 0, a root of y^3 + B y + G
    when A = 0, or none.  Dividing out b - r leaves b^2 + s b + t, with
    s = A + r and t = B + r*s, and roots r1 and -s - r1.  No step divides
    by 2 or 3, so every characteristic takes the same steps."""
    add, mul, neg = tables
    cubic, cubic_sq, quadratic = f.root_tables()
    q = f.q
    roots = set()
    if c3:
        inv = f.inv(c3) * q
        a, b, g = mul[inv + c2], mul[inv + c1], mul[inv + c0]
        if a:
            ia = f.inv(a)
            ia2 = mul[ia * q + ia]
            y = cubic_sq[mul[b * q + ia2] * q + mul[g * q + mul[ia2 * q + ia]]]
            r = mul[a * q + y] if y < q else q
        else:
            r = cubic[b * q + g]
        if r == q:
            return []
        roots.add(r)
        s = add[a * q + r]
        t = add[b * q + mul[r * q + s]]
    elif c2:
        inv = f.inv(c2) * q
        s, t = mul[inv + c1], mul[inv + c0]
    elif c1:
        return [neg[mul[c0 * q + f.inv(c1)]]]
    else:
        return [] if c0 else list(range(q))
    r1 = quadratic[s * q + t]
    if r1 < q:
        roots.update((r1, neg[add[s * q + r1]]))
    return sorted(roots)


def _zeros(form: CubicForm, base, free) -> Iterator[tuple[int, ...]]:
    """Surface points base + sum x_j * e_j over the free coordinates j.

    base is zero at the 0-3 free coordinates; the points come in code order
    with the last free coordinate fastest.
    """
    f = form.field
    if len(free) == 3:
        lead = list(base)
        for x in range(f.q):
            lead[free[0]] = x
            yield from _zeros(form, tuple(lead), free[1:])
    elif len(free) == 2:
        j, k = free
        point = list(base)
        # the coefficient of x_k^e2 is sum c * x_j^e1 over the plane's terms (e0, e1, e2)
        by_power: list[list] = [[], [], [], []]
        for (_e0, e1, e2), c in form.restrict_to_plane((base, _UNIT[j], _UNIT[k])).items():
            by_power[e2].append((c, (0,) * e1))
        for a in range(f.q):
            point[j] = a
            for b in _cubic_zeros(f, *_evaluate_terms(f, by_power, (a,))):
                point[k] = b
                yield tuple(point)
    elif free:
        (j,) = free
        point = list(base)
        for t in _cubic_zeros(f, *form.restrict_to_line(base, _UNIT[j])):
            point[j] = t
            yield tuple(point)
    elif form.evaluate(base) == 0:
        yield base


def zero_points(form: CubicForm) -> Iterator[tuple[int, ...]]:
    """All F_q-points of the surface, in the canonical chart-by-chart order."""
    for lead in range(4):
        yield from _zeros(form, _UNIT[lead], range(lead + 1, 4))


# -- lines on the surface ----------------------------------------------


def lines_on_surface(form: CubicForm, extension: int = 1) -> list[Line3]:
    """Every line of P^3 over F_{q^extension} contained in the surface.

    A line has one canonical basis of two rows in reduced echelon form,
    with pivots p0 < p1.  Both rows are surface points, so for each of the
    six pivot patterns the second rows are the zero set of the form on the
    coordinates after p1 (with x_p1 = 1), and the first rows stream from
    the same scan on the coordinates after p0 other than p1.  A pattern
    with no second row is skipped unscanned; the dense pattern (0, 1) also
    requires the row sum on the surface.  Only the surviving row pairs
    reach the exact containment check: with both rows r0, r1 on the surface,
    F(s*r0 + t*r1) = s^2 t grad F(r0).r1 + s t^2 grad F(r1).r0, so the line
    lies in it when both pairings vanish.  An extension field with q^2
    above LINE_SCAN_BUDGET raises BudgetExceeded.
    """
    f = form.field
    ext = make_extension(f.p, f.k * extension)
    if ext.q * ext.q > LINE_SCAN_BUDGET:
        raise BudgetExceeded(f"line scan over GF({ext.q}) exceeds the pair budget")
    g = form.embed(ext) if ext is not f else form
    add = ext.add
    found = []

    def pairing(row):  # the linear form grad F(row) . x, as terms
        return [(c, (m,)) for m, c in enumerate(g.gradient(row)) if c]

    for p0, p1 in combinations(range(4), 2):
        seconds = [(r1, pairing(r1)) for r1 in _zeros(g, _UNIT[p1], range(p1 + 1, 4))]
        if not seconds:
            continue
        # rows (1,0,a,b), (0,1,c,d) also need (1,1,a+c,b+d) on the surface
        sums = set(_zeros(g, (1, 1, 0, 0), (2, 3))) if (p0, p1) == (0, 1) else None
        for r0 in _zeros(g, _UNIT[p0], [j for j in range(p0 + 1, 4) if j != p1]):
            lin0 = None
            for r1, lin1 in seconds:
                if sums is not None and (1, 1, add(r0[2], r1[2]), add(r0[3], r1[3])) not in sums:
                    continue
                lin0 = pairing(r0) if lin0 is None else lin0
                if _evaluate_terms(ext, (lin0,), r1)[0] == 0 == _evaluate_terms(ext, (lin1,), r0)[0]:
                    found.append((r0, r1))
    found.sort(key=lambda rows: rows[0] + rows[1])
    return [Line3(ext, rows, _canonical=True) for rows in found]


# -- smoothness ---------------------------------------------------------


def is_smooth(form: CubicForm) -> bool:
    """Decide smoothness by the rank of one Macaulay matrix over F_q.

    The four partials have no common zero over the algebraic closure exactly
    when their multiples by the cubic monomials span all 56 quintics
    (Lazard's bound), and by Euler's identity 3F = sum x_i dF/dx_i such a
    zero lies on the surface.  In characteristic 3, F joins the generators
    in degree 6 (84 columns).  Rank is stable under field extension, so
    singular points of every degree count.  No point or line is scanned:
    the rank alone is the answer.
    """
    f = form.field
    if f is None:
        raise TypeError("smoothness is checked over a finite field")
    gens = [
        (2, [(tuple(map(idxs.count, range(4))), c) for c, idxs in terms])
        for terms in form._partials()
    ]
    degree = 5
    if f.p == 3:
        gens.append((3, list(form.coeffs.items())))
        degree = 6
    columns = {mono: j for j, mono in enumerate(_monomials(degree))}

    def rows():
        for gen_degree, terms in gens:
            for shift in _monomials(degree - gen_degree):
                row = [0] * len(columns)
                for mono, c in terms:
                    row[columns[tuple(map(operator.add, mono, shift))]] = c
                yield row

    return rank(f, rows()) == len(columns)


# -- the tangent pencil and point classification ------------------------


def _pencil_basis(f: ExtField, coords: Sequence[int], grad: Sequence[int]):
    """The pair (e0, e1) that indexes the tangent lines at u: of the
    e_m - (grad_m / grad_j0) * e_j0, m != j0, with grad_j0 the first nonzero
    entry, all but the first m with u_m != 0."""
    j0 = 0 if grad[0] else 1 if grad[1] else 2 if grad[2] else 3
    s = f.neg(f.inv(grad[j0]))
    tables = _flat(f)
    pair, dropped = [], False
    for m in range(4):
        # skip j0, and the first other m with u_m != 0
        if m == j0 or (coords[m] and not dropped):
            dropped = dropped or m != j0
            continue
        vec = [0, 0, 0, 0]
        vec[m], vec[j0] = 1, f.mul(s, grad[m]) if tables is None else tables[1][s * f.q + grad[m]]
        pair.append(tuple(vec))
    return pair[0], pair[1]


def _tangent_cone(form: CubicForm, coords: Sequence[int], grad: Sequence[int]):
    """The tangent cone at a smooth surface point u as (e0, e1, cone).

    (e0, e1) is _pencil_basis of the tangent plane at u, so the tangent
    lines are the lines through u and w = s*e0 + t*e1.  cone is the polar
    quadric sum_m u_m dF/dx_m restricted to w, s-degree first; with cubic
    the restriction of F to w, F(u) = 0 and grad F(u).w = 0 give

        F(lam*u + mu*w) = mu^2 * (lam * cone(w) + mu * cubic(w)),

    so the tangent line through w is inside the surface when both vanish,
    meets it to order three at u when only cone does, and otherwise meets
    it again at cubic(w)*u - cone(w)*w.  The polar quadric's coefficients
    are cached linear forms evaluated at u, and it is restricted once, on
    the flat path within the flat-table limit and the method path above.
    """
    f = form.field
    e0, e1 = _pencil_basis(f, coords, grad)
    form._partials()  # fills _polar_terms
    monos, linear = form._polar_terms
    polar = zip(_evaluate_terms(f, linear, coords), monos)
    return e0, e1, tuple(_restrict_terms_to_line(f, polar, e0, e1)[:3])


def _quadratic_zero_count(f: ExtField, d0: int, d1: int, d2: int) -> int:
    """The zeros of d0 s^2 + d1 st + d2 t^2 on P^1(F_q), q + 1 when it
    vanishes identically.  No root is found.  d2 = 0 puts a zero at (0, 1)
    and one more when d1 != 0.  Otherwise odd q reads the discriminant
    d1^2 - 4 d0 d2 by Euler's criterion.  In characteristic 2, t = (d1/d2) y
    turns the affine part into y^2 + y + d0 d2 / d1^2 (up to a unit), which
    has two roots when that constant has absolute trace 0 and none when it
    has trace 1 (Lidl & Niederreiter, Finite Fields, 3.3); d1 = 0 leaves a
    square, one double root."""
    if not d2:
        return 2 if d1 else 1 if d0 else f.q + 1
    mul = f.mul
    if f.p != 2:
        disc = f.sub(mul(d1, d1), mul(4 % f.p, mul(d0, d2)))
        return 1 if not disc else 2 if f.pow_(disc, (f.q - 1) // 2) == 1 else 0
    if not d1:
        return 1
    x = trace = f.div(mul(d0, d2), mul(d1, d1))
    for _ in range(f.k - 1):
        x = mul(x, x)
        trace = f.add(trace, x)
    return 2 - 2 * trace


def _binary_cubic_zero_count(f: ExtField, c0: int, c1: int, c2: int, c3: int) -> int:
    """The distinct zeros of c0 s^3 + c1 s^2 t + c2 s t^2 + c3 t^3 on P^1
    over the closure, with no root found: three when the discriminant
    c1^2 c2^2 + 18 c0 c1 c2 c3 - 4 c0 c2^3 - 4 c1^3 c3 - 27 c0^2 c3^2 is
    nonzero, one (a cube) when the Hessian (c1^2 - 3 c0 c2, c1 c2 - 9 c0 c3,
    c2^2 - 3 c1 c3) vanishes, else two.  Both are covariants with integer
    coefficients, so this holds in every characteristic, 2 and 3 included.
    Raises IdenticallyZero when every coefficient vanishes."""
    if not (c0 or c1 or c2 or c3):
        raise IdenticallyZero("all four coefficients vanish")
    add, mul, p = f.add, f.mul, f.p
    c0c3, c1c2 = mul(c0, c3), mul(c1, c2)
    cubes = add(mul(c0, mul(c2, mul(c2, c2))), mul(c3, mul(c1, mul(c1, c1))))
    plus = add(mul(c1c2, c1c2), mul(18 % p, mul(c0c3, c1c2)))
    if plus != add(mul(4 % p, cubes), mul(27 % p, mul(c0c3, c0c3))):
        return 3
    squares = (mul(c1, c1), c1c2, mul(c2, c2))
    return 1 if squares == (mul(3 % p, mul(c0, c2)), mul(9 % p, c0c3), mul(3 % p, mul(c1, c3))) else 2


def _smooth_gradient(form: CubicForm, coords: Sequence[int]) -> tuple:
    grad = form.gradient(coords)
    if not any(grad):
        raise SingularPoint(f"gradient vanishes at {ProjPoint(form.field, coords)}")
    return grad


def _on_surface(form: CubicForm, point: ProjPoint) -> tuple[int, ...]:
    if form.evaluate(point.coords) != 0:
        raise PointNotOnSurface(f"{point} is not on the surface")
    return point.coords


def _cone_vanishes(form: CubicForm, coords: Sequence[int]) -> bool:
    return not any(_tangent_cone(form, coords, _smooth_gradient(form, coords))[2])


class PointKind(Enum):
    ECKARDT = "eckardt"
    PARABOLIC = "parabolic"  # parabolic and not Eckardt
    HYPERBOLIC = "hyperbolic"
    ELLIPTIC = "elliptic"


@dataclass(frozen=True)
class PointClass:
    kind: PointKind
    ternary: bool
    line_count: int  # lines of the surface through the point, over the closure


def classify_point(form: CubicForm, point: ProjPoint) -> PointClass:
    """Eckardt / parabolic / hyperbolic / elliptic type of a smooth point.

    Read off the tangent cone (see _tangent_cone), with no root found and
    no field code scanned, so it answers at any q.  The
    tangent-plane section is singular at the point, and the zeros of the
    cone are its asymptotic directions.  A cone that vanishes identically
    is a triple point, the Eckardt case, and the section is the lines
    through the point in the directions where the cubic vanishes:
    _binary_cubic_zero_count gives them, three on a smooth surface and
    fewer where the surface is singular on the tangent plane (a tangent
    plane inside the surface raises IdenticallyZero).  Otherwise
    _quadratic_zero_count gives the kind: no rational zero (a conjugate
    pair) is elliptic, one double zero parabolic, two zeros hyperbolic.  A
    line through the point lies on the surface exactly when the cone and
    the cubic both vanish in its direction.  With d2 != 0, d2^2 times the
    cubic is reduced mod the cone to r1 t + r0: a zero remainder makes
    every distinct zero of the cone over the closure a line, and otherwise
    the only candidate is t = -r0/r1.  With d2 = 0 the zeros are the line
    through e1 and (s, t) = (d1, -d0).  Neither reading divides.
    """
    f = form.field
    coords = _on_surface(form, point)
    e0, e1, (d0, d1, d2) = _tangent_cone(form, coords, _smooth_gradient(form, coords))
    z = _quadratic_zero_count(f, d0, d1, d2)
    c0, c1, c2, c3 = form.restrict_to_line(e0, e1)
    if z > 2:
        return PointClass(PointKind.ECKARDT, True, _binary_cubic_zero_count(f, c0, c1, c2, c3))
    kind = (PointKind.ELLIPTIC, PointKind.PARABOLIC, PointKind.HYPERBOLIC)[z]
    add, mul, sub = f.add, f.mul, f.sub
    if d2:
        # d2^2 * cubic = quotient * cone + r1 t + r0, with no division
        h = sub(mul(d2, c2), mul(c3, d1))
        r1 = sub(mul(d2, sub(mul(d2, c1), mul(c3, d0))), mul(h, d1))
        r0 = sub(mul(d2, mul(d2, c0)), mul(h, d0))
        if not (r0 or r1):
            lines = 2 - (z == 1)
        else:
            # r1^2 * cone(-r0/r1), which vanishes only when r1 != 0
            cone = add(sub(mul(d2, mul(r0, r0)), mul(d1, mul(r0, r1))), mul(d0, mul(r1, r1)))
            lines = int(cone == 0)
    else:
        lines = int(c3 == 0)
        if d1:
            s, t = d1, f.neg(d0)
            cubic = add(
                mul(add(mul(c0, s), mul(c1, t)), mul(s, s)), mul(add(mul(c2, s), mul(c3, t)), mul(t, t))
            )
            lines += cubic == 0
    return PointClass(kind, z > 0, lines)


def eckardt_points(form: CubicForm) -> list[ProjPoint]:
    """All rational Eckardt points, sorted by coordinates."""
    f = form.field
    out = [ProjPoint(f, c) for c in zero_points(form) if _cone_vanishes(form, c)]
    out.sort(key=lambda p: p.coords)
    return out
