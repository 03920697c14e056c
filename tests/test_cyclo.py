import random
import re
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from ybw.cyclo import CycloScalar, cyclotomic_polynomial, root_sum, totient, zeta


def mobius_cyclotomic(n):
    """Independent oracle: Phi_n = prod_{d | n} (z^d - 1)^(mu(n/d)).

    Computed as a quotient of integer polynomial products.
    """
    def mobius(m):
        out, p = 1, 2
        while p * p <= m:
            if m % p == 0:
                m //= p
                if m % p == 0:
                    return 0
                out = -out
            p += 1
        if m > 1:
            out = -out
        return out

    def poly_mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return out

    def poly_div(num, den):
        num = list(num)
        q = [0] * (len(num) - len(den) + 1)
        for k in range(len(num) - len(den), -1, -1):
            c = num[k + len(den) - 1] // den[-1]
            q[k] = c
            for j, dj in enumerate(den):
                num[k + j] -= c * dj
        assert all(v == 0 for v in num)
        return q

    num, den = [1], [1]
    for d in range(1, n + 1):
        if n % d == 0:
            cyclo = [-1] + [0] * (d - 1) + [1]
            mu = mobius(n // d)
            if mu == 1:
                num = poly_mul(num, cyclo)
            elif mu == -1:
                den = poly_mul(den, cyclo)
    return tuple(poly_div(num, den))


def test_cyclotomic_base_cases():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)


def test_cyclotomic_12_against_mobius_oracle():
    # z^12 - 1 divided by Phi_1 Phi_2 Phi_3 Phi_4 Phi_6 gives z^4 - z^2 + 1
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert cyclotomic_polynomial(12) == mobius_cyclotomic(12)


@pytest.mark.parametrize("n", list(range(1, 31)))
def test_cyclotomic_matches_oracle(n):
    assert cyclotomic_polynomial(n) == mobius_cyclotomic(n)
    assert len(cyclotomic_polynomial(n)) == totient(n) + 1


def test_sum_and_product_of_roots():
    assert zeta(3) + zeta(3, 2) == -1
    assert zeta(4) * zeta(4) == -1
    for n in range(2, 25):
        total = CycloScalar.from_rational(0)
        for k in range(n):
            total = total + zeta(n, k)
        assert total == 0
        assert zeta(n) ** n == 1


def test_inverse_of_one_plus_zeta5():
    x = 1 + zeta(5)
    assert x * x.inv() == 1
    assert x.inv() * x == 1


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        CycloScalar.from_rational(0).inv()
    with pytest.raises(ZeroDivisionError):
        zeta(3) / CycloScalar.from_rational(0)


def test_conjugation_examples():
    assert zeta(4).conj() == -zeta(4)
    assert CycloScalar.from_rational(Fraction(3, 2)).conj() == Fraction(3, 2)
    # zeta_3 conjugates to zeta_3^2 = -1 - zeta_3 in the power basis
    assert zeta(3).conj() == zeta(3, 2)
    assert zeta(3).conj() == CycloScalar.from_coeffs(3, [-1, -1])


def test_embedding_examples():
    assert CycloScalar.from_rational(Fraction(1, 2)).to_complex() == 0.5
    assert abs(zeta(4).to_complex() - 1j) < 1e-12
    assert abs((1 + zeta(3)).to_complex() - (0.5 + 0.8660254037844386j)) < 1e-12


CONDUCTORS = [1, 2, 3, 4, 5, 6, 8, 9, 12, 16, 18, 24]


@st.composite
def scalars(draw, max_num=9):
    n = draw(st.sampled_from(CONDUCTORS))
    coeffs = draw(st.lists(
        st.fractions(min_value=-max_num, max_value=max_num, max_denominator=6),
        min_size=totient(n), max_size=totient(n)))
    return CycloScalar.from_coeffs(n, coeffs)


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars())
def test_add_sub_roundtrip(a, b):
    assert (a + b) - b == a


@settings(max_examples=60, deadline=None)
@given(scalars())
def test_inverse_property(a):
    if not a.is_zero():
        assert a * a.inv() == 1


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars())
def test_conjugation_is_ring_map(a, b):
    assert a.conj().conj() == a
    assert (a * b).conj() == a.conj() * b.conj()
    assert (a + b).conj() == a.conj() + b.conj()


@settings(max_examples=60, deadline=None)
@given(scalars(max_num=4), scalars(max_num=4))
def test_embedding_is_multiplicative(a, b):
    lhs = (a * b).to_complex()
    rhs = a.to_complex() * b.to_complex()
    assert abs(lhs - rhs) < 1e-9


@settings(max_examples=40, deadline=None)
@given(scalars())
def test_norm_is_real_nonnegative(a):
    v = a.norm_sq().to_complex()
    assert abs(v.imag) < 1e-9
    assert v.real > -1e-9


def test_root_exponent_finds_every_root_of_unity():
    for n in range(1, 25):
        m = 2 * n
        for k in range(n):
            for sign in (1, -1):
                value = sign * zeta(n, k)
                e = value.root_exponent(m)
                assert value == zeta(m, e) and 0 <= e < m, (n, k, sign)
    for value in (CycloScalar.from_rational(2), CycloScalar.from_rational(Fraction(1, 2)),
                  Fraction(3, 5) + Fraction(4, 5) * zeta(4), 1 + zeta(5), zeta(8) + zeta(8, 7)):
        assert value.root_exponent(2 * value.n) is None, value
    with pytest.raises(ValueError):
        zeta(3).root_exponent(3)  # -zeta_3 is not a power of zeta_3


def test_root_sum_stays_in_the_given_conductor():
    # the sum of zeta_m^e over counts, m = lcm(2, n), against scalar sums
    for n in (1, 2, 3, 4, 5, 6, 8, 9, 12):
        m = 2 * n if n % 2 else n
        for seed in range(20):
            counts = [(seed * 7 + e * e * 3) % 5 - 1 for e in range(m)]
            expected = CycloScalar.from_rational(0)
            for e, count in enumerate(counts):
                expected = expected + count * zeta(m, e)
            got = root_sum(counts, n)
            assert got == expected and got.n in (1, n), (n, counts)
    with pytest.raises(ValueError):
        root_sum([1, 0, 0], 3)


def test_rational_normalization():
    # values supported on z^0 collapse to conductor 1
    x = zeta(6) + zeta(6, 5)  # = 1
    assert x.is_rational() and x.as_rational() == 1
    assert zeta(2) == -1


def test_serialization_forms():
    from ybw.io import scalar_from_json, scalar_to_json
    for value in (zeta(12) + 1, CycloScalar.from_rational(Fraction(-7, 3)), zeta(8, 5)):
        assert scalar_from_json(scalar_to_json(value), "t") == value


def test_rational_sums_match_fraction_in_canonical_form():
    # both operands rational: one gcd, the canonical form of _make
    rng = random.Random(2410)
    for _ in range(600):
        a = Fraction(rng.randint(-60, 60), rng.randint(1, 40))
        b = rng.choice([-a, Fraction(rng.randint(-60, 60), rng.randint(1, 40)), rng.randint(-5, 5)])
        for got in (CycloScalar.from_rational(a) + CycloScalar.from_rational(b),
                    CycloScalar.from_rational(a) + b, b + CycloScalar.from_rational(a)):
            (num,) = got.nums
            assert got.n == 1 and Fraction(num, got.den) == a + b, (a, b)
            assert got.den > 0 and gcd(num, got.den) == 1, (a, b)
            if a + b == 0:
                assert (got.n, got.nums, got.den) == (1, (0,), 1)



def test_rational_products_match_fraction_in_canonical_form():
    # both operands rational: one product and one gcd, the canonical form of _make
    rng = random.Random(2411)
    for _ in range(600):
        a = Fraction(rng.randint(-60, 60), rng.randint(1, 40))
        b = rng.choice([Fraction(0), 1 / a if a else Fraction(-1), rng.randint(-5, 5),
                        Fraction(rng.randint(-60, 60), rng.randint(1, 40))])
        for got in (CycloScalar.from_rational(a) * CycloScalar.from_rational(b),
                    CycloScalar.from_rational(a) * b, b * CycloScalar.from_rational(a)):
            (num,) = got.nums
            assert got.n == 1 and Fraction(num, got.den) == a * b, (a, b)
            assert got.den > 0 and gcd(num, got.den) == 1, (a, b)
            if a * b == 0:
                assert (got.n, got.nums, got.den) == (1, (0,), 1)
    # operands left unreduced by the trusted constructor still give the canonical product
    got = CycloScalar(1, (6,), 4) * CycloScalar(1, (-10,), 6)
    assert (got.n, got.nums, got.den) == (1, (-5,), 2)
    got = CycloScalar(1, (0,), 7) * CycloScalar(1, (-3,), 9)
    assert (got.n, got.nums, got.den) == (1, (0,), 1)
    # _make: one gcd over the denominator and every coordinate, and the drop to conductor 1
    assert CycloScalar.from_coeffs(3, [Fraction(2, 4), Fraction(-6, 4)]).nums == (1, -3)
    assert CycloScalar.from_coeffs(3, [Fraction(2, 4), Fraction(-6, 4)]).den == 2
    x = CycloScalar.from_coeffs(5, [Fraction(-4, 6), 0, 0, 0])
    assert (x.n, x.nums, x.den) == (1, (-2,), 3)

def galois_image(x, a):
    """sigma_a(x) for sigma_a: zeta_N -> zeta_N^a, on the power-basis expansion."""
    out = CycloScalar.from_rational(0)
    for k, c in enumerate(x.nums):
        out = out + Fraction(c, x.den) * zeta(x.n, a * k)
    return out


def least_conductor(x):
    """The least M != 2 (mod 4) with x in Q(zeta_M): x is in Q(zeta_M)
    exactly when every sigma_a with a = 1 (mod M) fixes it."""
    return next(m for m in range(1, x.n + 1) if x.n % m == 0 and m % 4 != 2
                and all(galois_image(x, a) == x for a in range(1, x.n)
                        if gcd(a, x.n) == 1 and a % m == 1 % m))


def test_values_print_in_their_least_conductor():
    assert str(zeta(12, 2)) == str(zeta(6)) == str(1 + zeta(3)) == "1 + z3"
    assert str(zeta(10)) == str(-zeta(5, 3)) and str(zeta(9, 3)) == str(zeta(3))
    # a value drawn in conductor n, written in the power basis of
    # lcm(n, k), prints as before, in its least conductor
    rng = random.Random(2413)
    moved = 0
    for n in (3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16, 18, 20, 24):
        for _ in range(8):
            y = CycloScalar.from_coeffs(n, [
                Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3])) if rng.random() < 0.6 else 0
                for _ in range(totient(n))])
            if y.is_rational():
                continue
            least = least_conductor(y)
            assert set(re.findall(r"z(\d+)", str(y))) == {str(least)}, (y.n, y.nums, str(y))
            moved += least != y.n
            for k in (2, 3, 4, 5, 7):
                nums, den = y._lift(lcm(y.n, k))
                x = CycloScalar.from_coeffs(lcm(y.n, k), [Fraction(c, den) for c in nums])
                assert x == y and x.n == lcm(y.n, k)
                assert str(x) == str(y), (y.n, y.nums, k)
    assert moved > 10


def test_to_complex_past_the_float_range():
    # an int above about 2^1024 has no float: the coordinates are divided
    # by the denominator first, and a quotient below the float range is 0
    half = (zeta(4) * 2 ** 2000 + 2 ** 2000) / 2 ** 2001
    assert half.to_complex() == complex(0.5, 0.5)
    assert (CycloScalar.from_rational(1) / 3 ** 1100).to_complex() == 0


def test_powers_equal_repeated_products_and_stop_squaring_after_the_last_bit(monkeypatch):
    # square-and-multiply makes bit_length - 1 squares and popcount products
    # into the result; a square after the last bit would be the largest one
    bases = [zeta(12) + Fraction(1, 3), CycloScalar.from_rational(Fraction(-5, 7)), zeta(5, 2) * 2 - zeta(5)]
    for base in bases:
        want = {0: CycloScalar.from_rational(1)}
        for k in range(1, 71):
            want[k] = want[k - 1] * base
        for k in range(1, 6):
            want[-k] = want[-k + 1] * base.inv()
        calls = []
        mul = CycloScalar.__mul__
        monkeypatch.setattr(CycloScalar, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
        for k in range(-5, 71):
            del calls[:]
            assert base ** k == want[k], (base, k)
            if k > 0:
                assert len(calls) == (k.bit_length() - 1) + bin(k).count("1"), (base, k, len(calls))
        monkeypatch.undo()
