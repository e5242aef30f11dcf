"""Finite fields GF(p^k) in a fixed polynomial basis.

An element c0 + c1*a + ... + c_{k-1}*a^{k-1} (a the class of x modulo the
modulus polynomial) is represented by the integer code
c0 + c1*p + ... + c_{k-1}*p^{k-1}.  Codes keep scanning, hashing and
serialization cheap.  Decoding a code gives the coefficient vector least
degree first, which is also the serialized form.

The modulus is chosen deterministically: the monic irreducible
x^k + sum c_i x^i whose non-leading coefficient vector, read as base-p
digits least degree first, is the smallest integer.  Two runs therefore
always agree on the representation (GF(64) is F_2[x]/(x^6 + x + 1)).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from .errors import BudgetExceeded, DegreeTooLarge, HypothesisFailed, IdenticallyZero, NotPrime

MAX_CHARACTERISTIC = 2**61
MAX_DEGREE = 24

# Multiplication switches to exp/log tables when the field fits this bound.
_TABLE_LIMIT = 1 << 16

# Flat q x q addition and multiplication tables exist up to this field size.
_FLAT_TABLE_LIMIT = 256

# Root scans brute force the whole field; refuse beyond this size.
_ROOT_SCAN_LIMIT = 1 << 16

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24 (covers 2^61)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of a positive integer, primes ascending.

    Trial division by 2, 3 and then 6k +- 1.  Dividing out each prime as it
    is found keeps the trial bound at the square root of the unfactored
    part.
    """
    factors: list[tuple[int, int]] = []
    for p in (2, 3):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            factors.append((p, e))
    f = 5
    step = 2
    while f * f <= n:
        if n % f == 0:
            e = 0
            while n % f == 0:
                n //= f
                e += 1
            factors.append((f, e))
        f += step
        step = 6 - step
    if n > 1:
        factors.append((n, 1))
    return factors


# ---------------------------------------------------------------------------
# dense univariate polynomials over F_p, least degree first


def _ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pmod(a: Sequence[int], f: Sequence[int], p: int) -> list[int]:
    # f monic
    a = list(a)
    df = len(f) - 1
    while len(a) - 1 >= df and a:
        c = a[-1]
        if c:
            shift = len(a) - 1 - df
            for i in range(df):
                a[shift + i] = (a[shift + i] - c * f[i]) % p
        a.pop()
    return _ptrim(a)


def _ppowmod(base: Sequence[int], e: int, f: Sequence[int], p: int) -> list[int]:
    result = [1]
    base = _pmod(base, f, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, base, p), f, p)
        base = _pmod(_pmul(base, base, p), f, p)
        e >>= 1
    return result


def _pgcd(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    while b:
        a, b = b, _pmod(a, b, p)
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [c * inv % p for c in a]
    return a


def _is_irreducible(p: int, f: Sequence[int]) -> bool:
    k = len(f) - 1
    x = [0, 1]
    # x^(p^k) == x mod f
    t = list(x)
    for _ in range(k):
        t = _ppowmod(t, p, f, p)
    lhs = _ptrim([(t[i] if i < len(t) else 0) - (x[i] if i < len(x) else 0) for i in range(max(len(t), len(x)))])
    lhs = [c % p for c in lhs]
    if _ptrim(lhs):
        return False
    # no factor of degree k/l for prime l | k
    for l, _ in factorize(k):
        t = list(x)
        for _ in range(k // l):
            t = _ppowmod(t, p, f, p)
        diff = [0] * max(len(t), 2)
        for i, c in enumerate(t):
            diff[i] = c
        diff[1] = (diff[1] - 1) % p
        g = _pgcd(f, _ptrim(diff), p)
        if len(g) - 1 > 0:
            return False
    return True


# ---------------------------------------------------------------------------


class ExtField:
    """GF(p^k) with elements as integer codes in [0, p^k)."""

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = modulus  # length k+1, monic, least degree first
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        self._nonresidue: int | None = None
        self._as_matrix: list[int] | None = None  # Artin-Schreier rows as bitmasks
        self._flat: tuple[list[int], list[int], list[int]] | None = None
        self._roots: tuple[array, array, array] | None = None
        # reduction of x^k .. x^(2k-2) mod the modulus, as coefficient tuples
        red = []
        if k > 1:
            cur = [(-c) % p for c in modulus[:k]]
            red.append(tuple(cur))
            for _ in range(k - 2):
                cur = [0] + cur
                top = cur.pop()
                if top:
                    cur = [(cur[i] - top * modulus[i]) % p for i in range(k)]
                red.append(tuple(cur))
        self._xpow_red = red

    # -- representation ----------------------------------------------------

    def decode(self, code: int) -> tuple[int, ...]:
        p = self.p
        out = []
        for _ in range(self.k):
            out.append(code % p)
            code //= p
        return tuple(out)

    def encode(self, coeffs: Iterable[int]) -> int:
        code = 0
        for c in reversed(list(coeffs)):
            code = code * self.p + c % self.p
        return code

    def elements(self) -> range:
        return range(self.q)

    def to_dict(self) -> dict:
        return {"p": self.p, "k": self.k, "modulus": list(self.modulus)}

    def __repr__(self) -> str:
        return f"GF({self.q})"

    def __reduce__(self):
        return (make_extension, (self.p, self.k))

    # -- arithmetic on codes ----------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        p, out, mul = self.p, 0, 1
        for _ in range(self.k):
            out += ((a + b) % p) * mul
            a //= p
            b //= p
            mul *= p
        return out

    def neg(self, a: int) -> int:
        if self.k == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        p, out, mul = self.p, 0, 1
        for _ in range(self.k):
            out += (-a % p) * mul
            a //= p
            mul *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return a * b % self.p
        if a == 0 or b == 0:
            return 0
        if self._exp is None and self.q <= _TABLE_LIMIT:
            self._build_tables()
        if self._exp is not None:
            return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]
        return self._mul_poly(a, b)

    def _mul_poly(self, a: int, b: int) -> int:
        p, k = self.p, self.k
        av, bv = self.decode(a), self.decode(b)
        prod = [0] * (2 * k - 1)
        for i, ai in enumerate(av):
            if ai:
                for j, bj in enumerate(bv):
                    prod[i + j] += ai * bj
        out = [c % p for c in prod[:k]]
        for d, c in enumerate(prod[k:]):
            if c % p:
                red = self._xpow_red[d]
                c %= p
                out = [(out[i] + c * red[i]) % p for i in range(k)]
        return self.encode(out)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        if self._exp is None and self.q <= _TABLE_LIMIT:
            self._build_tables()
        if self._exp is not None:
            return self._exp[(self.q - 1 - self._log[a]) % (self.q - 1)]
        return self.pow_(a, self.q - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow_(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow_(self.inv(a), -e)
        result = self.one
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    # -- tables ------------------------------------------------------------

    def _build_tables(self) -> None:
        q = self.q
        mulf = self._mul_poly if self.k > 1 else (lambda a, b: a * b % self.p)

        def powf(a: int, e: int) -> int:
            r = 1
            while e:
                if e & 1:
                    r = mulf(r, a)
                a = mulf(a, a)
                e >>= 1
            return r

        order_factors = [l for l, _ in factorize(q - 1)]
        g = None
        for cand in range(2, q):
            if all(powf(cand, (q - 1) // l) != 1 for l in order_factors):
                g = cand
                break
        if g is None:  # pragma: no cover - q = 2 has trivial group
            g = 1
        exp = [1] * (q - 1)
        for i in range(1, q - 1):
            exp[i] = self._mul_poly(exp[i - 1], g) if self.k > 1 else exp[i - 1] * g % self.p
        log = [0] * q
        for i, v in enumerate(exp):
            log[v] = i
        self._exp, self._log = exp, log

    def flat_tables(self) -> tuple[list[int], list[int], list[int]]:
        """Flat (add, mul, neg) lookup lists, built on first use.

        add[a*q + b] and mul[a*q + b] hold a + b and a*b, neg[a] holds -a.
        Hot loops bind them as locals and index instead of calling the
        methods.  Fields above _FLAT_TABLE_LIMIT elements raise
        BudgetExceeded before anything is allocated.
        """
        if self._flat is None:
            q = self.q
            if q > _FLAT_TABLE_LIMIT:
                raise BudgetExceeded(
                    f"flat tables over GF({q}) exceed the limit {_FLAT_TABLE_LIMIT}"
                )
            add, mul, neg = self.add, self.mul, self.neg
            self._flat = (
                [add(a, b) for a in range(q) for b in range(q)],
                [mul(a, b) for a in range(q) for b in range(q)],
                [neg(a) for a in range(q)],
            )
        return self._flat

    def root_tables(self) -> tuple[array, array, array]:
        """Smallest-root tables of three normal forms, built on first use:
        entry B*q + G holds the smallest root y of y^3 + B*y + G, of
        y^3 + y^2 + B*y + G and of y^2 + B*y + G, or q when there is none
        (y runs downwards, so the smallest is written last).  Fields above
        _FLAT_TABLE_LIMIT elements raise BudgetExceeded."""
        if self._roots is None:
            add, mul, neg = self.flat_tables()
            q = self.q
            self._roots = tuple(array("H", [q]) * (q * q) for _ in range(3))
            for y in reversed(range(q)):
                y2 = mul[y * q + y]
                y3 = mul[y2 * q + y]
                for table, lead in zip(self._roots, (y3, add[y3 * q + y2], y2)):
                    for b in range(q):
                        table[b * q + neg[add[lead * q + mul[b * q + y]]]] = y
        return self._roots

    # -- roots -------------------------------------------------------------

    def sqrt(self, a: int) -> int | None:
        """A square root of a, or None when a is a nonresidue (odd q)."""
        if self.p == 2:
            return self.pow_(a, self.q // 2) if self.k > 1 else a
        if a == 0:
            return 0
        q = self.q
        if self.pow_(a, (q - 1) // 2) != 1:
            return None
        # Tonelli-Shanks
        m, e = q - 1, 0
        while m % 2 == 0:
            m //= 2
            e += 1
        if e == 1:
            r = self.pow_(a, (q + 1) // 4)
            return min(r, self.neg(r))
        if self._nonresidue is None:
            z = 2
            while self.pow_(z, (q - 1) // 2) == 1:
                z += 1
            self._nonresidue = z
        c = self.pow_(self._nonresidue, m)
        r = self.pow_(a, (m + 1) // 2)
        t = self.pow_(a, m)
        while t != 1:
            t2, i = t, 0
            while t2 != 1:
                t2 = self.mul(t2, t2)
                i += 1
            b = self.pow_(c, 1 << (e - i - 1))
            r = self.mul(r, b)
            c = self.mul(b, b)
            t = self.mul(t, c)
            e = i
        return min(r, self.neg(r))

    def artin_schreier_solve(self, d: int) -> int | None:
        """u with u^2 + u = d over GF(2^k), or None when the trace is 1."""
        if self.p != 2:
            raise HypothesisFailed(f"u^2 + u = d is solved over GF(2^k), not GF({self.q})")
        if self._as_matrix is None:
            k = self.k
            rows = [0] * k  # rows of the map u -> u^2 + u in the power basis
            for j in range(k):
                e = 1 << j if k > 1 else j  # code of basis element x^j
                code = self.encode(tuple(1 if i == j else 0 for i in range(k)))
                img = self.add(self.mul(code, code), code)
                for i in range(k):
                    if (img >> i) & 1:
                        rows[i] |= 1 << j
            self._as_matrix = rows
        rows = list(self._as_matrix)
        rhs = [(d >> i) & 1 for i in range(self.k)]
        # Gaussian elimination over F_2, columns are unknown bits of u
        u = 0
        pivots = []
        for col in range(self.k):
            piv = None
            for r in range(len(rows)):
                if (rows[r] >> col) & 1 and all(r != pr for pr, _ in pivots):
                    piv = r
                    break
            if piv is None:
                continue
            pivots.append((piv, col))
            for r in range(len(rows)):
                if r != piv and (rows[r] >> col) & 1:
                    rows[r] ^= rows[piv]
                    rhs[r] ^= rhs[piv]
        for r in range(len(rows)):
            if rows[r] == 0 and rhs[r]:
                return None
        for piv, col in pivots:
            if rhs[piv]:
                u |= 1 << col
        return u


@lru_cache(maxsize=None)
def make_extension(p: int, k: int) -> ExtField:
    """The field GF(p^k) with the deterministic least modulus (cached)."""
    if p >= MAX_CHARACTERISTIC or not is_prime(p):
        raise NotPrime(f"{p} is not a prime below 2^61")
    if not 1 <= k <= MAX_DEGREE:
        raise DegreeTooLarge(f"extension degree {k} outside 1..{MAX_DEGREE}")
    if k == 1:
        return ExtField(p, 1, (0, 1))
    for m in range(p**k):
        coeffs = []
        mm = m
        for _ in range(k):
            coeffs.append(mm % p)
            mm //= p
        f = coeffs + [1]
        if _is_irreducible(p, f):
            return ExtField(p, k, tuple(f))
    raise RuntimeError("unreachable: irreducible polynomials exist in every degree")


def field_from_dict(data: dict) -> ExtField:
    """Inverse of ExtField.to_dict, insisting on the deterministic modulus."""
    fld = make_extension(int(data["p"]), int(data["k"]))
    mod = data.get("modulus")
    if mod is not None and tuple(int(c) for c in mod) != fld.modulus:
        raise ValueError("modulus does not match the deterministic choice")
    return fld


@lru_cache(maxsize=None)
def embedding(base: ExtField, ext: ExtField) -> Callable[[int], int]:
    """The deterministic embedding GF(p^k) -> GF(p^(k*m)) on codes.

    The base generator is sent to the smallest-code root of the base modulus
    in the extension, so repeated runs agree.
    """
    if base is ext:
        return lambda c: c
    if base.p != ext.p or ext.k % base.k != 0:
        raise ValueError("no embedding between these fields")
    if base.k == 1:
        return lambda c: c
    mod = base.modulus
    root = None
    for cand in range(ext.q):
        acc, power = 0, 1
        for c in mod:
            if c:
                acc = ext.add(acc, ext.mul(c % ext.p, power))
            power = ext.mul(power, cand)
        if acc == 0:
            root = cand
            break
    if root is None:
        raise RuntimeError("unreachable: the base modulus splits in the extension")
    powers = [1]
    for _ in range(base.k - 1):
        powers.append(ext.mul(powers[-1], root))

    def embed(code: int, _powers=tuple(powers), _base=base, _ext=ext) -> int:
        out = 0
        for c, pw in zip(_base.decode(code), _powers):
            if c:
                out = _ext.add(out, _ext.mul(c, pw))
        return out

    return embed


# ---------------------------------------------------------------------------
# small root finders


def solve_quadratic(field: ExtField, a: int, b: int, c: int) -> list[tuple[int, int]]:
    """Roots of a t^2 + b t + c in the field, as (root, multiplicity) pairs.

    Handles characteristic 2 through the Artin-Schreier reduction; the
    returned list is sorted by root code and may be empty.
    """
    a, b, c = _code(field, a), _code(field, b), _code(field, c)
    if a == 0:
        raise ValueError("leading coefficient must be nonzero")
    if field.p == 2:
        if b == 0:
            r = field.sqrt(field.div(c, a))
            return [(r, 2)]
        d = field.div(field.mul(a, c), field.mul(b, b))
        u = field.artin_schreier_solve(d)
        if u is None:
            return []
        scale = field.div(b, a)
        r1 = field.mul(scale, u)
        r2 = field.mul(scale, field.add(u, 1))
        return sorted([(r1, 1), (r2, 1)])
    disc = field.sub(field.mul(b, b), field.mul(field.mul(4 % field.p, a), c))
    two_a_inv = field.inv(field.mul(2 % field.p, a))
    if disc == 0:
        return [(field.mul(field.neg(b), two_a_inv), 2)]
    s = field.sqrt(disc)
    if s is None:
        return []
    r1 = field.mul(field.sub(s, b), two_a_inv)
    r2 = field.mul(field.sub(field.neg(s), b), two_a_inv)
    return sorted([(r1, 1), (r2, 1)])


@dataclass(frozen=True)
class CubicRoots:
    """Roots of a binary cubic over the coefficient field.

    rational: ((s, t), multiplicity) pairs with s in {0, 1}; (0, 1) is the
    root at infinity.  extension_roots counts the remaining roots of the
    form: 0, or the degree (2 or 3) of the irreducible factor left over,
    whose roots live in the extension of that degree.
    """

    rational: tuple[tuple[tuple[int, int], int], ...]
    extension_roots: int


def roots_of_cubic(field: ExtField, coeffs: Sequence[int]) -> CubicRoots:
    """Factor the binary cubic a0 s^3 + a1 s^2 t + a2 s t^2 + a3 t^3.

    Raises IdenticallyZero when every coefficient vanishes (the signal that a
    line lies inside a surface).  Rational roots are found exactly; the
    leftover factor is irreducible of degree 2 or 3 and only counted.
    """
    a0, a1, a2, a3 = (_code(field, c) for c in coeffs)
    if a0 == a1 == a2 == a3 == 0:
        raise IdenticallyZero("all four coefficients vanish")
    if field.q > _ROOT_SCAN_LIMIT:
        raise BudgetExceeded(f"cubic root scan over GF({field.q})")
    # univariate in t at s = 1
    poly = [a0, a1, a2, a3]
    while poly and poly[-1] == 0:
        poly.pop()
    roots: list[tuple[tuple[int, int], int]] = []
    inf_mult = 3 - (len(poly) - 1) if poly else 3
    if inf_mult:
        roots.append(((0, 1), inf_mult))
    work = list(poly)
    for t in field.elements():
        if len(work) <= 1:
            break
        mult = 0
        while len(work) > 1 and _eval_poly(field, work, t) == 0:
            work = _deflate(field, work, t)
            mult += 1
        if mult:
            roots.append(((1, t), mult))
    return CubicRoots(tuple(sorted(roots)), len(work) - 1 if work else 0)


def _eval_poly(field: ExtField, poly: Sequence[int], t: int) -> int:
    acc = 0
    for c in reversed(poly):
        acc = field.add(field.mul(acc, t), c)
    return acc


def _deflate(field: ExtField, poly: Sequence[int], r: int) -> list[int]:
    # divide by (t - r), exact when r is a root
    out = [0] * (len(poly) - 1)
    carry = 0
    for i in range(len(poly) - 1, 0, -1):
        carry = field.add(poly[i], field.mul(carry, r))
        out[i - 1] = carry
    return out


def univariate_gcd(field: ExtField, a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Monic gcd of two univariate polynomials with field-code coefficients."""
    a = [_code(field, c) for c in a]
    b = [_code(field, c) for c in b]
    while a and a[-1] == 0:
        a.pop()
    while b and b[-1] == 0:
        b.pop()
    while b:
        # a mod b
        inv_lead = field.inv(b[-1])
        while len(a) >= len(b) and a:
            c = field.mul(a[-1], inv_lead)
            shift = len(a) - len(b)
            if c:
                for i in range(len(b) - 1):
                    a[shift + i] = field.sub(a[shift + i], field.mul(c, b[i]))
            a.pop()
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    if a:
        inv_lead = field.inv(a[-1])
        a = [field.mul(c, inv_lead) for c in a]
    return a


def _code(field: ExtField, x) -> int:
    return x % field.p if field.k == 1 else int(x)
