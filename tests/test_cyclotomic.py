from fractions import Fraction

import pytest

from suturant import CyclotomicScalar, cyclotomic_polynomial
from suturant.errors import CyclotomicArithmeticError


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
