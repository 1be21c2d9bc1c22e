"""Exact arithmetic in Z[x]/(Phi_N(x)).

Scalars produced by the engines live in the ring of integers of the N-th
cyclotomic field, represented by integer coefficient vectors reduced modulo
the N-th cyclotomic polynomial.  All arithmetic is integer-exact; there is
no floating point anywhere in this module (an approximate complex value is
available only through :meth:`CyclotomicScalar.approx`, for display).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import CyclotomicArithmeticError


def _poly_trim(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _poly_trim(out)


def _poly_divmod(a, b):
    """Division of integer polynomials; b must be monic."""
    if not b or b[-1] != 1:
        raise CyclotomicArithmeticError(f"divisor {b} is not monic")
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1]
        if c:
            q[i] = c
            for j, bj in enumerate(b):
                a[i + j] -= c * bj
    return _poly_trim(q), _poly_trim(a)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n):
    """Coefficients of Phi_n, low degree first, computed by exact division
    of x^n - 1 by the proper cyclotomic divisors."""
    if n < 1:
        raise ValueError("order must be >= 1")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _poly_divmod(poly, cyclotomic_polynomial(d))
            assert not rem
    return tuple(poly)


@dataclass(frozen=True)
class CyclotomicScalar:
    """An element of Z[x]/(Phi_N(x)), ``coeffs`` reduced with
    len(coeffs) == deg Phi_N."""

    coeffs: tuple
    order: int

    @staticmethod
    def _reduce(coeffs, order):
        phi = list(cyclotomic_polynomial(order))
        _, rem = _poly_divmod(_poly_trim(coeffs), phi)
        deg = len(phi) - 1
        rem = rem + [0] * (deg - len(rem))
        return tuple(rem)

    @classmethod
    def from_coeffs(cls, coeffs, order):
        return cls(cls._reduce(coeffs, order), order)

    @classmethod
    def zero(cls, order):
        return cls.from_coeffs([], order)

    @classmethod
    def one(cls, order):
        return cls.from_coeffs([1], order)

    @classmethod
    def integer(cls, k, order):
        return cls.from_coeffs([k], order)

    @classmethod
    def root_power(cls, exponent, order):
        """The class of x**(exponent mod N)."""
        e = exponent % order
        return cls.from_coeffs([0] * e + [1], order)

    def _check(self, other):
        if self.order != other.order:
            raise ValueError(
                f"cyclotomic order mismatch: {self.order} vs {other.order}")

    def __add__(self, other):
        self._check(other)
        return CyclotomicScalar(
            tuple(x + y for x, y in zip(self.coeffs, other.coeffs)),
            self.order)

    def __neg__(self):
        return CyclotomicScalar(tuple(-c for c in self.coeffs), self.order)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return CyclotomicScalar(
                tuple(other * c for c in self.coeffs), self.order)
        self._check(other)
        return CyclotomicScalar.from_coeffs(
            _poly_mul(list(self.coeffs), list(other.coeffs)), self.order)

    __rmul__ = __mul__

    def scale(self, q: Fraction):
        """Multiply by an exact rational; every coefficient must stay integral."""
        out = []
        for c in self.coeffs:
            v = c * q
            if v.denominator != 1:
                raise CyclotomicArithmeticError(
                    f"non-integral coefficient {v} after rational scaling")
            out.append(int(v))
        return CyclotomicScalar(tuple(out), self.order)

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def unit_equal(self, other):
        """Equality up to multiplication by +-x^j (canonical unit class)."""
        self._check(other)
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        for j in range(self.order):
            u = CyclotomicScalar.root_power(j, self.order) * other
            if self == u or self == -u:
                return True
        return False

    def approx(self):
        """Float approximation at x = exp(2*pi*i/N); display only."""
        z = cmath.exp(2j * cmath.pi / self.order)
        return sum(c * z ** k for k, c in enumerate(self.coeffs))

    def __str__(self):
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                mono = f"{abs(c)}"
            else:
                mono = "x" if k == 1 else f"x^{k}"
                if abs(c) != 1:
                    mono = f"{abs(c)}*{mono}"
            sign = "-" if c < 0 else "+"
            terms.append((sign, mono))
        if not terms:
            body = "0"
        else:
            first_sign, first = terms[0]
            body = ("-" if first_sign == "-" else "") + first
            for sign, mono in terms[1:]:
                body += f" {sign} {mono}"
        return f"{body} (mod Φ_{self.order})"
