import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from suturant import CyclotomicScalar, cyclotomic_polynomial
from suturant.errors import CyclotomicArithmeticError

from conftest import SEED


def test_small_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_product_of_divisors_is_xn_minus_one():
    # prod_{d | n} Phi_d = x^n - 1
    for n in (1, 2, 6, 10, 12):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                phi = list(cyclotomic_polynomial(d))
                out = [0] * (len(prod) + len(phi) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi):
                        out[i + j] += a * b
                prod = out
        assert prod == [-1] + [0] * (n - 1) + [1]


@lru_cache(maxsize=None)
def recursive_cyclotomic(n):
    """The reference definition: x^n - 1 divided by Phi_d for every proper
    divisor d, each by long division."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            phi = recursive_cyclotomic(d)
            quot = [0] * (len(poly) - len(phi) + 1)
            for i in range(len(quot) - 1, -1, -1):
                c = quot[i] = poly[i + len(phi) - 1]
                for j, p in enumerate(phi):
                    poly[i + j] -= c * p
            assert not any(poly)
            poly = quot
    return tuple(poly)


def test_the_radical_rule_is_the_recursive_definition():
    for n in range(1, 501):
        assert cyclotomic_polynomial(n) == recursive_cyclotomic(n), n


def totient(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_phi_n_divides_xn_minus_one_at_large_orders():
    """deg Phi_N = phi(N), and prod_{d | N} Phi_d(x0) = x0^N - 1 mod a
    large prime at a seeded x0, for seeded N up to 10^5 and the orders
    55440 and 65536."""
    rng = random.Random(SEED)
    prime = (1 << 61) - 1
    for n in [55440, 65536] + [rng.randrange(2, 10**5) for _ in range(6)]:
        x0 = rng.randrange(2, prime)
        assert len(cyclotomic_polynomial(n)) - 1 == totient(n), n
        prod = 1
        for d in range(1, n + 1):
            if n % d == 0:
                value = 0
                for c in reversed(cyclotomic_polynomial(d)):
                    value = (value * x0 + c) % prime
                prod = prod * value % prime
        assert prod == (pow(x0, n, prime) - 1) % prime, n


def test_reduction_reads_the_sparse_phi():
    # Phi_16 = 1 + x^8, so x^15 = -x^7 and x^8 + x^9 = -1 - x
    assert CyclotomicScalar.root_power(15, 16) == \
        -CyclotomicScalar.root_power(7, 16)
    assert CyclotomicScalar.from_coeffs([0] * 8 + [1, 1], 16) == \
        CyclotomicScalar.from_coeffs([-1, -1], 16)


def test_root_power_and_arithmetic():
    z = CyclotomicScalar.root_power(1, 4)
    assert z * z == CyclotomicScalar.integer(-1, 4)
    assert CyclotomicScalar.root_power(5, 4) == z
    one = CyclotomicScalar.one(4)
    assert z * CyclotomicScalar.root_power(3, 4) == one
    assert (one - one).is_zero()


def test_trefoil_value_vanishes_at_order_six():
    # 1 - q + q^2 is the sixth cyclotomic polynomial itself
    v = (CyclotomicScalar.one(6) - CyclotomicScalar.root_power(1, 6)
         + CyclotomicScalar.root_power(2, 6))
    assert v.is_zero()


def test_unit_equal():
    a = CyclotomicScalar.from_coeffs([1, -1, 1], 5)
    b = CyclotomicScalar.root_power(3, 5) * a
    assert a.unit_equal(b)
    assert a.unit_equal(-b)
    assert not a.unit_equal(CyclotomicScalar.one(5))
    assert CyclotomicScalar.zero(5).unit_equal(CyclotomicScalar.zero(5))
    assert not a.unit_equal(CyclotomicScalar.zero(5))


def test_rational_scaling_must_stay_integral():
    v = CyclotomicScalar.integer(3, 4)
    assert v.scale(Fraction(1, 3)) == CyclotomicScalar.one(4)
    with pytest.raises(ArithmeticError):
        v.scale(Fraction(1, 2))
    # a negative coefficient divides exactly, or is refused with its value
    w = CyclotomicScalar.from_coeffs([-8, 4, 0, 12], 5)
    assert w.scale(Fraction(1, 4)) == \
        CyclotomicScalar.from_coeffs([-2, 1, 0, 3], 5)
    assert w.scale(Fraction(-3, 4)) == \
        CyclotomicScalar.from_coeffs([6, -3, 0, -9], 5)
    with pytest.raises(CyclotomicArithmeticError,
                       match=r"^non-integral coefficient -3/4 after "
                             r"rational scaling$"):
        CyclotomicScalar.from_coeffs([-3, 4], 5).scale(Fraction(1, 4))


def test_str_rendering():
    v = (CyclotomicScalar.one(5) - CyclotomicScalar.root_power(1, 5)
         + CyclotomicScalar.root_power(2, 5))
    assert str(v) == "1 - x + x^2 (mod Φ_5)"
    assert str(CyclotomicScalar.zero(3)) == "0 (mod Φ_3)"
