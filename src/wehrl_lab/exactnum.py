"""Exact arithmetic helpers: rationals scaled by powers of pi, rational
complex numbers, the Pochhammer symbol, and the errors raised where a value
leaves the float range or an integral diverges; and the one Gauss-Jacobi
rule that every quadrature oracle takes its nodes from.

All constants produced by the degree computations are rational multiples of
an integer power of pi, so we never evaluate pi numerically until a float
rendition is explicitly requested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from numbers import Rational
from operator import mul

import numpy as np


class FloatRangeExceeded(ValueError):
    """An exact value to be compared in floats lies beyond the float range."""


class NonIntegrable(ValueError):
    """An integrand's weight exponent lies outside its integrability range."""


def rising_ints(a: int, b: int, k: int) -> list:
    """[prod_{i<m} (a + i b) for m = 0..k] on Python ints: at x = a/b the
    m-th entry is (x)_m b^m, the numerator of (x)_m over b^m."""
    return list(accumulate(range(a, a + k * b, b), mul, initial=1))


def pochhammer(x, k: int) -> Fraction:
    """Rising factorial (x)_k = x(x+1)...(x+k-1), exact; (x)_0 = 1."""
    if k < 0:
        raise ValueError("pochhammer order must be nonnegative")
    x = Fraction(x)
    return Fraction(rising_ints(x.numerator, x.denominator, k)[-1],
                    x.denominator ** k)


def gauss_jacobi(n: int, alpha: float, beta: float):
    """Nodes s and weights w of the n-point Gauss rule for int_0^1
    (1 - s)^alpha s^beta f(s) ds, exact up to degree 2n - 1.  On x = 2s - 1
    the nodes are the Jacobi matrix's eigenvalues (Golub-Welsch); one pass
    of the orthonormal recurrence gives w = mu_0 / K, K = sum_{k<=n} p_k^2
    corrected to first order in the rounding of x by dx = -b_n p_n p_{n-1}/K
    (Newton, by Christoffel-Darboux) and K'/K = ((alpha + beta + 2) x +
    alpha - beta) / (1 - x^2).  p_k^2 <= K = mu_0/w overflows only where w
    underflows; w is 0 there.  4e-13 from 40-digit weights up to n = 514."""
    if n < 1 or alpha <= -1 or beta <= -1:
        raise ValueError(f"a Gauss-Jacobi rule needs n >= 1 and alpha, beta "
                         f"> -1, got n, alpha, beta = {n}, {alpha}, {beta}")
    ab = alpha + beta
    a = [(beta - alpha) / (ab + 2)] + [
        (beta - alpha) * ab / ((2 * k + ab) * (2 * k + ab + 2))
        for k in range(1, n)]
    b = [0.0, 2 * math.sqrt((1 + alpha) * (1 + beta) / (ab + 3)) / (ab + 2)]
    b += [math.sqrt(4 * k * (k + alpha) * (k + beta) * (k + ab)
                    / ((2 * k + ab) ** 2 * ((2 * k + ab) ** 2 - 1)))
          for k in range(2, n + 1)]  # b[k] couples p_{k-1} and p_k
    jacobi = np.zeros((n, n))
    jacobi.flat[::n + 1], jacobi.flat[n::n + 1] = a, b[1:n]  # lower half
    x = np.linalg.eigvalsh(jacobi)
    lg = math.lgamma(alpha + 1) + math.lgamma(beta + 1) - math.lgamma(ab + 2)
    mu0 = math.exp(lg) if ab >= 169 else (  # Gamma is exact at small ints
        math.gamma(alpha + 1) / math.gamma(ab + 2) * math.gamma(beta + 1))
    p0, p1, total = np.zeros(n), np.ones(n), 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n):
            p0, p1 = p1, ((x - a[j]) * p1 - b[j] * p0) / b[j + 1]
            total += p1 * p1
        dx = -b[n] * p1 * p0 / total
        dx = dx if np.isfinite(dx).all() else np.nan_to_num(dx)
        total *= 1 + dx * ((ab + 2) * x + alpha - beta) / (1 - x * x)
        w = mu0 / total
        return (1 + x + dx) / 2, w if np.isfinite(w).all() else np.nan_to_num(w)


@dataclass(frozen=True)
class PiScaledRational:
    """A value coeff * pi**pi_power with an exact rational coeff.

    Multiplication, division and powers combine pi powers.  There is no
    addition: a sum of different pi powers would leave the exact domain.
    """

    coeff: Fraction
    pi_power: int = 0

    def __post_init__(self):
        object.__setattr__(self, "coeff", Fraction(self.coeff))
        object.__setattr__(self, "pi_power", int(self.pi_power))

    def __mul__(self, other):
        if isinstance(other, PiScaledRational):
            return PiScaledRational(self.coeff * other.coeff,
                                    self.pi_power + other.pi_power)
        return PiScaledRational(self.coeff * Fraction(other), self.pi_power)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, PiScaledRational):
            return PiScaledRational(self.coeff / other.coeff,
                                    self.pi_power - other.pi_power)
        return PiScaledRational(self.coeff / Fraction(other), self.pi_power)

    def __pow__(self, n: int):
        return PiScaledRational(self.coeff ** n, self.pi_power * n)

    def __eq__(self, other):
        if isinstance(other, PiScaledRational):
            if self.coeff == 0 and other.coeff == 0:
                return True
            return self.coeff == other.coeff and self.pi_power == other.pi_power
        if isinstance(other, Rational):
            return self == PiScaledRational(Fraction(other), 0)
        return NotImplemented

    def __hash__(self):
        if self.coeff == 0:
            return hash(Fraction(0))
        return hash((self.coeff, self.pi_power))

    def __float__(self):
        return float(self.coeff) * math.pi ** self.pi_power

    def as_rational(self) -> Fraction:
        """The coefficient, asserting the value is pi-free."""
        if self.coeff != 0 and self.pi_power != 0:
            raise ValueError(f"value carries pi^{self.pi_power}, not rational")
        return self.coeff

    def to_json(self) -> dict:
        return {
            "num": str(self.coeff.numerator),
            "den": str(self.coeff.denominator),
            "pi_power": self.pi_power,
            "float": float(self),
        }

    def __repr__(self):
        if self.pi_power == 0:
            return f"{self.coeff}"
        return f"{self.coeff}*pi^{self.pi_power}"


@dataclass(frozen=True)
class QC:
    """Exact rational (re, im) pair; its arithmetic runs on disc's lanes."""

    re: Fraction
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"({self.re}{'+' if self.im >= 0 else ''}{self.im}j)"
