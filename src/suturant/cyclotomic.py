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
from itertools import accumulate, product
from math import prod

from .errors import CyclotomicArithmeticError


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _primes(n):
    """The distinct primes of n >= 1, by trial division."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + [n] * (n > 1)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n):
    """Coefficients of Phi_n, low degree first: the product of
    (x^(n/s) - 1)^mu(s) over the divisors s of the radical of n, taken as
    power series cut after degree phi(n), which is exact since Phi_n is a
    polynomial of that degree.  A factor with mu(s) = 1 is one
    shift-and-subtract pass; dividing by x^d - 1 is one running sum along
    each residue class mod d.  No recursion and no long division."""
    if n < 1:
        raise ValueError("order must be >= 1")
    primes = _primes(n)
    deg = n
    for p in primes:
        deg = deg // p * (p - 1)
    poly = [1] + [0] * deg
    for picked in product((1, 0), repeat=len(primes)):
        d = n // prod(p for p, on in zip(primes, picked) if on)
        if sum(picked) % 2:         # q (x^d - 1) = poly
            for r in range(min(d, deg + 1)):
                poly[r::d] = accumulate(-c for c in poly[r::d])
        else:                       # poly (x^d - 1)
            poly = [-c for c in poly[:d]] + [
                a - b for a, b in zip(poly, poly[d:])]
    return tuple(poly)


@lru_cache(maxsize=None)
def _phi_terms(order):
    """deg Phi_N and its nonzero terms (j, coefficient) below the leading
    one, which is 1."""
    phi = cyclotomic_polynomial(order)
    return len(phi) - 1, tuple((j, c) for j, c in enumerate(phi[:-1]) if c)


@dataclass(frozen=True)
class CyclotomicScalar:
    """An element of Z[x]/(Phi_N(x)), ``coeffs`` reduced with
    len(coeffs) == deg Phi_N."""

    coeffs: tuple
    order: int

    @staticmethod
    def _reduce(coeffs, order):
        """The remainder of ``coeffs`` mod Phi_N, from the top down, each
        step reading Phi_N's nonzero terms only."""
        deg, terms = _phi_terms(order)
        rem = list(coeffs) + [0] * (deg - len(coeffs))
        for i in range(len(rem) - 1, deg - 1, -1):
            c = rem[i]
            if c:
                for j, p in terms:
                    rem[i - deg + j] -= c * p
        return tuple(rem[:deg])

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
            raise CyclotomicArithmeticError(
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
        num, den = q.numerator, q.denominator
        out = []
        for c in self.coeffs:
            v, r = divmod(c * num, den)
            if r:
                raise CyclotomicArithmeticError(
                    f"non-integral coefficient {Fraction(c * num, den)} "
                    "after rational scaling")
            out.append(v)
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
            terms.append((c, mono))
        return f"{signed_sum(terms)} (mod Φ_{self.order})"


def signed_sum(terms):
    """The text of a sum of (coefficient, text) pairs, each text that of
    the coefficient's absolute value: the first term signed only when
    negative, every later one joined by " + " or " - "; "0" when empty."""
    text = ""
    for c, body in terms:
        if text:
            text += " - " if c < 0 else " + "
        elif c < 0:
            text = "-"
        text += body
    return text or "0"
