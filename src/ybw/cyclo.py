"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A scalar is a vector of rational coordinates in the power basis
1, z, ..., z^(phi(N)-1) of Q(zeta_N), z = exp(2*pi*i/N), reduced modulo the
N-th cyclotomic polynomial.  The power basis is a basis, so the reduced
representation is unique and equality is decidable coefficient-wise.

Internally the vector is stored as integer numerators over one positive
denominator, which keeps products of the signed-monomial scalars that
dominate this codebase (roots of unity times rationals) cheap: multiplying
two monomials is one integer product and one table lookup.

Scalars of different conductors interoperate: arithmetic lifts both
operands to the lcm conductor via zeta_M = zeta_N^(N/M).  A value whose
reduced coordinates are supported on z^0 alone is a rational and is
normalized down to conductor 1.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import FieldArithmeticError

Rational = Fraction


def totient(n: int) -> int:
    """Euler's phi, by trial-division factorization."""
    if n < 1:
        raise ValueError("totient undefined for n < 1")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1 if p == 2 else 2
    if m > 1:
        result -= result // m
    return result


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _poly_divmod_int(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    # long division of integer polynomials, den monic; coefficients low-to-high
    num = list(num)
    q = [0] * max(len(num) - len(den) + 1, 0)
    for k in range(len(num) - len(den), -1, -1):
        c = num[k + len(den) - 1]
        q[k] = c
        if c:
            for j, dj in enumerate(den):
                num[k + j] -= c * dj
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return q, num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, low-to-high degree (monic, integral).

    Computed by dividing z^n - 1 by the product of Phi_d over the proper
    divisors d of n.
    """
    if n < 1:
        raise ValueError("conductor must be >= 1")
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in _divisors(n)[:-1]:
        q, rem = _poly_divmod_int(num, list(cyclotomic_polynomial(d)))
        if rem != [0]:
            raise FieldArithmeticError(
                f"z^{n} - 1 leaves the remainder {rem} on division by Phi_{d}")
        num = q
    return tuple(num)


class _Field:
    """Per-conductor tables: reductions of z^k and the conjugation map."""

    __slots__ = ("n", "phi", "red", "conj_rows")

    def __init__(self, n: int):
        poly = cyclotomic_polynomial(n)
        phi = len(poly) - 1
        self.n = n
        self.phi = phi
        # red[k] = coordinates of z^k in the power basis, 0 <= k < n
        red: list[tuple[int, ...]] = []
        for k in range(phi):
            row = [0] * phi
            row[k] = 1
            red.append(tuple(row))
        for k in range(phi, n):
            prev = red[k - 1]
            shifted = [0] + list(prev[:-1])
            top = prev[-1]
            if top:
                for j in range(phi):
                    shifted[j] -= top * poly[j]
            red.append(tuple(shifted))
        self.red = tuple(red)
        self.conj_rows = tuple(red[(k * (n - 1)) % n] for k in range(phi))


@lru_cache(maxsize=None)
def _field(n: int) -> _Field:
    return _Field(n)


@lru_cache(maxsize=None)
def _root_index(n: int) -> dict[tuple[int, ...], int]:
    """k by the conductor-n coordinates of zeta_n^k."""
    return {row: k for k, row in enumerate(_field(n).red)}


def _poly_egcd(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    # returns (g, u) with u*a = g mod b and g a nonzero constant when
    # gcd(a, b) = 1; coefficients low-to-high
    def strip(p):
        while len(p) > 1 and p[-1] == 0:
            p.pop()
        return p

    r0, r1 = strip(list(a)), strip(list(b))
    s0, s1 = [Fraction(1)], [Fraction(0)]
    while r1 != [Fraction(0)] and r1 != [0]:
        q = [Fraction(0)] * max(len(r0) - len(r1) + 1, 1)
        rem = list(r0)
        for k in range(len(rem) - len(r1), -1, -1):
            c = rem[k + len(r1) - 1] / r1[-1]
            q[k] = c
            if c:
                for j, dj in enumerate(r1):
                    rem[k + j] -= c * dj
        rem = strip(rem)
        # s_next = s0 - q*s1
        prod = [Fraction(0)] * (len(q) + len(s1) - 1)
        for i, qi in enumerate(q):
            if qi:
                for j, sj in enumerate(s1):
                    prod[i + j] += qi * sj
        s_next = [Fraction(0)] * max(len(s0), len(prod))
        for i, c in enumerate(s0):
            s_next[i] += c
        for i, c in enumerate(prod):
            s_next[i] -= c
        r0, r1 = r1, rem
        s0, s1 = s1, strip(s_next)
    return r0, s0


class CycloScalar:
    """An element of Q(zeta_N), immutable, with exact field operations."""

    __slots__ = ("n", "nums", "den")

    def __init__(self, n: int, nums: tuple[int, ...], den: int):
        # trusted constructor: nums reduced mod Phi_n, gcd-normalized, den > 0
        self.n = n
        self.nums = nums
        self.den = den

    # -- construction -------------------------------------------------

    @staticmethod
    def _make(n: int, nums: list[int], den: int) -> CycloScalar:
        if den < 0:
            den = -den
            nums = [-c for c in nums]
        g = gcd(den, *nums)
        if g > 1:
            den //= g
            nums = [c // g for c in nums]
        if not any(nums):
            return CycloScalar(1, (0,), 1)
        if n > 1 and not any(nums[1:]):
            return CycloScalar(1, (nums[0],), den)
        return CycloScalar(n, tuple(nums), den)

    @classmethod
    def from_rational(cls, value: Fraction | int) -> CycloScalar:
        f = Fraction(value)
        return CycloScalar(1, (f.numerator,), f.denominator)

    @classmethod
    def zeta(cls, n: int, k: int = 1) -> CycloScalar:
        """The root of unity zeta_n^k."""
        fld = _field(n)
        row = fld.red[k % n]
        return cls._make(n, list(row), 1)

    @classmethod
    def from_coeffs(cls, n: int, coeffs) -> CycloScalar:
        """Build from phi(n) rational power-basis coordinates."""
        fld = _field(n)
        fracs = [Fraction(c) for c in coeffs]
        if len(fracs) != fld.phi:
            raise ValueError(f"expected {fld.phi} coefficients for conductor {n}")
        den = 1
        for f in fracs:
            den = lcm(den, f.denominator)
        nums = [int(f * den) for f in fracs]
        return cls._make(n, nums, den)

    # -- helpers -------------------------------------------------------

    def _lift(self, n: int) -> tuple[list[int], int]:
        """Coordinates of self in the conductor-n power basis (self.n | n)."""
        if self.n == n:
            return list(self.nums), self.den
        fld = _field(n)
        step = n // self.n
        out = [0] * fld.phi
        for k, c in enumerate(self.nums):
            if c:
                row = fld.red[(k * step) % n]
                for j, rj in enumerate(row):
                    if rj:
                        out[j] += c * rj
        return out, self.den

    @staticmethod
    def _coerce(value) -> CycloScalar | None:
        if isinstance(value, CycloScalar):
            return value
        if isinstance(value, (int, Fraction)):
            return CycloScalar.from_rational(value)
        return None

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return self.n == 1 and self.nums[0] == 0

    def is_one(self) -> bool:
        return self.n == 1 and self.nums == (1,) and self.den == 1

    def is_rational(self) -> bool:
        return self.n == 1

    def as_rational(self) -> Fraction:
        if self.n != 1:
            raise ValueError(f"not a rational number: {self}")
        return Fraction(self.nums[0], self.den)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def root_exponent(self, m: int) -> int | None:
        """The e in 0..m-1 with self = zeta_m^e, or None when self is not a
        root of unity.  The roots of unity of Q(zeta_n) are the +-zeta_n^k,
        so m must be even and a multiple of the conductor n."""
        if m % 2 or m % self.n:
            raise ValueError(f"zeta_{m} does not generate the roots of unity of Q(zeta_{self.n})")
        if self.den != 1:
            return None
        if self.n == 1:
            return {1: 0, -1: m // 2}.get(self.nums[0])
        index = _root_index(self.n)
        k = index.get(self.nums)
        if k is not None:
            return k * (m // self.n)
        k = index.get(tuple(-c for c in self.nums))
        return None if k is None else (k * (m // self.n) + m // 2) % m

    # -- ring operations -----------------------------------------------

    def __add__(self, other) -> CycloScalar:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.n == 1 and other.n == 1:
            # two rationals: the same canonical form with one gcd
            num = self.nums[0] * other.den + other.nums[0] * self.den
            den = self.den * other.den
            g = gcd(num, den)
            return CycloScalar(1, (num // g,), den // g)
        n = lcm(self.n, other.n)
        a, da = self._lift(n)
        b, db = other._lift(n)
        den = lcm(da, db)
        ma, mb = den // da, den // db
        nums = [x * ma + y * mb for x, y in zip(a, b)]
        return self._make(n, nums, den)

    __radd__ = __add__

    def __neg__(self) -> CycloScalar:
        return CycloScalar(self.n, tuple(-c for c in self.nums), self.den)

    def __sub__(self, other) -> CycloScalar:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> CycloScalar:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> CycloScalar:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.n == 1:
            c = self.nums[0]
            if self.den == 1:
                # units dominate in signed-permutation operators
                if c == 1:
                    return other
                if c == -1:
                    return -other
            if other.n == 1:
                # two rationals: the same canonical form with one gcd
                num = c * other.nums[0]
                den = self.den * other.den
                g = gcd(num, den)
                return CycloScalar(1, (num // g,), den // g)
            if c == 0:
                return CycloScalar(1, (0,), 1)
            return self._make(other.n, [c * x for x in other.nums], self.den * other.den)
        if other.n == 1:
            c = other.nums[0]
            if other.den == 1:
                if c == 1:
                    return self
                if c == -1:
                    return -self
            if c == 0:
                return CycloScalar(1, (0,), 1)
            return self._make(self.n, [c * x for x in self.nums], self.den * other.den)
        n = lcm(self.n, other.n)
        a, da = self._lift(n)
        b, db = other._lift(n)
        fld = _field(n)
        red = fld.red
        out = [0] * fld.phi
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        c = ai * bj
                        e = i + j
                        if e < fld.phi:
                            out[e] += c
                        else:
                            row = red[e % n]
                            for k, rk in enumerate(row):
                                if rk:
                                    out[k] += c * rk
        return self._make(n, out, da * db)

    __rmul__ = __mul__

    def inv(self) -> CycloScalar:
        """Multiplicative inverse; raises ZeroDivisionError on zero."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta_N)")
        if self.n == 1:
            f = 1 / Fraction(self.nums[0], self.den)
            return CycloScalar.from_rational(f)
        a = [Fraction(c, self.den) for c in self.nums]
        phi_poly = [Fraction(c) for c in cyclotomic_polynomial(self.n)]
        g, u = _poly_egcd(a, phi_poly)
        if len(g) != 1 or g[0] == 0:
            raise FieldArithmeticError(
                f"gcd of {self} and Phi_{self.n} is {[str(c) for c in g]}, not a nonzero constant")
        inv_coeffs = [c / g[0] for c in u]
        fld = _field(self.n)
        inv_coeffs += [Fraction(0)] * (fld.phi - len(inv_coeffs))
        return CycloScalar.from_coeffs(self.n, inv_coeffs[: fld.phi])

    def __truediv__(self, other) -> CycloScalar:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other) -> CycloScalar:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inv()

    def __pow__(self, k: int) -> CycloScalar:
        if k < 0:
            return self.inv() ** (-k)
        result = CycloScalar.from_rational(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:  # no square after the last bit: it would be the largest product
                base = base * base
        return result

    def conj(self) -> CycloScalar:
        """Complex conjugation, the Galois map zeta_N -> zeta_N^(N-1)."""
        if self.n == 1:
            return self
        fld = _field(self.n)
        out = [0] * fld.phi
        for k, c in enumerate(self.nums):
            if c:
                row = fld.conj_rows[k]
                for j, rj in enumerate(row):
                    if rj:
                        out[j] += c * rj
        return self._make(self.n, out, self.den)

    def norm_sq(self) -> CycloScalar:
        """self * conj(self)."""
        return self * self.conj()

    # -- comparisons ---------------------------------------------------

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.n == other.n:
            return self.nums == other.nums and self.den == other.den
        n = lcm(self.n, other.n)
        a, da = self._lift(n)
        b, db = other._lift(n)
        return [x * db for x in a] == [y * da for y in b]

    __hash__ = None  # unhashable: values with equal content may differ in conductor

    # -- embeddings ----------------------------------------------------

    def to_complex(self) -> complex:
        """Evaluate the power-basis expression at exp(2*pi*i/N).  An int
        past the float range (about 2^1024) is divided by the denominator
        first, which int division rounds correctly (to 0 when tiny)."""
        z = cmath.exp(2j * cmath.pi / self.n)
        big = max(self.den, *map(abs, self.nums)).bit_length() > 1000
        acc = 0 + 0j
        power = 1 + 0j
        for c in self.nums:
            if c:
                acc += (c / self.den if big else c) * power
            power *= z
        return acc if big else acc / self.den

    # -- rendering -----------------------------------------------------

    def _descend(self, p: int) -> CycloScalar | None:
        """self in the power basis of Q(zeta_(n/p)) for a prime p | n, or
        None when self is not in that subfield."""
        n, m = self.n, self.n // p
        if m % p == 0:
            # Phi_n(z) = Phi_m(z^p), so the subfield's basis is 1, z^p, z^2p, ...
            if any(c for k, c in enumerate(self.nums) if k % p):
                return None
            return CycloScalar._make(m, list(self.nums[::p]), self.den)
        # zeta_n^k = zeta_p^(k u) zeta_m^(k v), and 1, zeta_p, ..., zeta_p^(p-2)
        # is a basis of Q(zeta_n) over Q(zeta_m), with zeta_p^(p-1) minus their sum
        u, v, red = pow(m, -1, p), pow(p, -1, m), _field(m).red
        parts = [[0] * len(red[0]) for _ in range(p - 1)]
        for k, c in enumerate(self.nums):
            if not c:
                continue
            a, row = k * u % p, red[k * v % m]
            targets, c = ([parts[a]], c) if a < p - 1 else (parts, -c)
            for part in targets:
                for j, r in enumerate(row):
                    part[j] += c * r
        if any(any(part) for part in parts[1:]):
            return None
        return CycloScalar._make(m, parts[0], self.den)

    def __str__(self) -> str:
        """The value in the power basis of its least conductor, the least
        M != 2 (mod 4) with self in Q(zeta_M), so equal values print alike
        whatever conductor a computation ended in.  The conductors with
        self in Q(zeta_M) are closed under gcd, so dropping one prime
        factor at a time while self stays in the subfield reaches it."""
        if self.n == 1:
            return str(Fraction(self.nums[0], self.den))
        # the prime factors: phi(p) = p - 1 exactly when p is prime
        primes = [p for p in _divisors(self.n)[1:] if totient(p) == p - 1]
        value = self
        while True:
            lower = next((v for p in primes if value.n % p == 0
                          for v in [value._descend(p)] if v is not None), None)
            if lower is None:
                return value._render()
            value = lower

    def _render(self) -> str:
        terms = []
        for k, c in enumerate(self.nums):
            if not c:
                continue
            coeff = Fraction(c, self.den)
            if k == 0:
                terms.append(str(coeff))
                continue
            var = f"z{self.n}" if k == 1 else f"z{self.n}^{k}"
            if coeff == 1:
                terms.append(var)
            elif coeff == -1:
                terms.append(f"-{var}")
            else:
                terms.append(f"{coeff}*{var}")
        out = " + ".join(terms)
        return out.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"<{self}>"


ZERO = CycloScalar.from_rational(0)
ONE = CycloScalar.from_rational(1)
MINUS_ONE = CycloScalar.from_rational(-1)


def zeta(n: int, k: int = 1) -> CycloScalar:
    return CycloScalar.zeta(n, k)


def root_sum(counts, n: int, den: int = 1) -> CycloScalar:
    """sum_e counts[e] * zeta_m^e / den, m = len(counts) = lcm(2, n),
    expressed in the conductor-n power basis (zeta_2n = -zeta_n^((n+1)/2)
    for odd n)."""
    m = len(counts)
    if m != lcm(2, n):
        raise ValueError(f"{m} exponent counts for conductor {n}, expected {lcm(2, n)}")
    red = _field(n).red
    nums = [0] * len(red[0])
    for e, count in enumerate(counts):
        if not count:
            continue
        f = e * (2 * n // m)  # the exponent of zeta_2n
        if f % 2 == 0:
            row = red[f // 2]
        else:
            row, count = red[(f + n) // 2 % n], -count
        for j, c in enumerate(row):
            if c:
                nums[j] += count * c
    return CycloScalar._make(n, nums, den)


def scalar(value) -> CycloScalar:
    """Coerce an int, Fraction or CycloScalar to a CycloScalar."""
    out = CycloScalar._coerce(value)
    if out is None:
        raise TypeError(f"cannot interpret {value!r} as a cyclotomic scalar")
    return out
