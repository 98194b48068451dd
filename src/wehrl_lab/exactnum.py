"""Exact arithmetic helpers: rationals scaled by powers of pi, rational
complex numbers, the integer rising products behind every Pochhammer
symbol, the errors raised where a value leaves the float range or an
integral diverges, and the one Beta function and Gauss-Jacobi rule of the
numerical oracles.

All constants produced by the degree computations are rational multiples of
an integer power of pi, so we never evaluate pi numerically until a float
rendition is explicitly requested.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from numbers import Integral, Rational
from operator import mul

import numpy as np

_FLOAT_LOOP_NODES = 32  # numpy's dispatch outweighs n^2 float steps below 32-40


class FloatRangeExceeded(ValueError):
    """An exact value to be compared in floats lies beyond the float range."""


class NonIntegrable(ValueError):
    """An integrand's weight exponent lies outside its integrability range."""


def rising_ints(a: int, b: int, k: int) -> list:
    """[prod_{i<m} (a + i b) for m = 0..k] on Python ints: at x = a/b the
    m-th entry is (x)_m b^m, the numerator of (x)_m over b^m."""
    return list(accumulate(range(a, a + k * b, b), mul, initial=1))


def beta_mass(alpha: float, beta: float) -> float:
    """B(alpha + 1, beta + 1) = int_0^1 (1 - s)^alpha s^beta ds."""
    if alpha + beta < 169:  # Gamma is exact at small ints
        return math.gamma(alpha + 1) / math.gamma(alpha + beta + 2) * (
            math.gamma(beta + 1))
    from mpmath import beta as B, mpf, workdps  # exp of a float ln B would
    with workdps(30):  # carry |ln B| eps: B at 30 digits
        return float(B(mpf(alpha) + 1, mpf(beta) + 1))


def _rule(x, steps, alpha, beta, mu0):
    """(s, w) at an eigenvalue x or their array: recurrence, then Newton."""
    p0, p1, total = 0.0, 1.0, 1.0
    for a, b0, b1 in steps:  # (a_j, b_j, b_{j+1}), j < n
        p0, p1 = p1, ((x - a) * p1 - b0 * p0) / b1
        total += p1 * p1
    dx = -b1 * p1 * p0 / total  # b1 = b_n
    ok = math.isfinite(dx) if isinstance(dx, float) else np.isfinite(dx).all()
    dx = dx if ok else (float if isinstance(dx, float) else np.asarray)(
        np.nan_to_num(dx))  # not a numpy scalar: float arithmetic never warns
    total *= 1 + dx * ((alpha + beta + 2) * x + alpha - beta) / (1 - x * x)
    return (1 + x + dx) / 2, mu0 / total


def gauss_jacobi(n: int, alpha: float, beta: float):
    """Nodes s and weights w of the n-point Gauss rule for int_0^1
    (1 - s)^alpha s^beta f(s) ds, exact up to degree 2n - 1.  On x = 2s - 1
    the nodes are the Jacobi matrix's eigenvalues (Golub-Welsch); one pass
    of the orthonormal recurrence gives w = mu_0 / K, K = sum_{k<=n} p_k^2
    corrected to first order in the rounding of x by dx = -b_n p_n p_{n-1}/K
    (Newton, by Christoffel-Darboux) and K'/K = ((alpha + beta + 2) x +
    alpha - beta) / (1 - x^2).  p_k^2 <= K = mu_0/w overflows only where w
    underflows; w is 0 there.  4e-13 from 40-digit weights up to n = 514.
    Up to _FLOAT_LOOP_NODES nodes the same pass runs node by node on floats."""
    if (isinstance(n, bool) or not isinstance(n, Integral) or n < 1
            or not (-1 < alpha < math.inf and -1 < beta < math.inf)):
        raise ValueError(f"Gauss-Jacobi needs int n >= 1 and alpha, beta > -1"
                         f" finite; got n, alpha, beta = {n}, {alpha}, {beta}")
    alpha, beta = float(alpha), float(beta)  # a Fraction alike at every n
    ab = alpha + beta
    if 2 * n + ab >= 1e77:  # (2k + alpha + beta)^4 in b_k would overflow
        raise FloatRangeExceeded(f"Gauss-Jacobi overflows at alpha+beta {ab:g}")
    a = [(beta - alpha) / (ab + 2)] + [
        (beta - alpha) * ab / ((2 * k + ab) * (2 * k + ab + 2))
        for k in range(1, n)]
    b = [0.0, 2 * math.sqrt((1 + alpha) * (1 + beta) / (ab + 3)) / (ab + 2)]
    b += [math.sqrt(4 * k * (k + alpha) * (k + beta) * (k + ab)
                    / ((2 * k + ab) ** 2 * ((2 * k + ab) ** 2 - 1)))
          for k in range(2, n + 1)]  # b[k] couples p_{k-1} and p_k
    jacobi = np.zeros((n, n))
    jacobi.flat[::n + 1], jacobi.flat[n::n + 1] = a, b[1:n]  # lower half
    x = np.array(a) if n == 1 else np.linalg.eigvalsh(jacobi)  # a 1x1 is a[0]
    mu0 = beta_mass(alpha, beta)
    args = list(zip(a, b, b[1:])), alpha, beta, mu0
    w = [math.nan]  # no rule yet
    if n <= _FLOAT_LOOP_NODES:  # node by node on floats, where nothing warns
        with contextlib.suppress(ZeroDivisionError):  # a node x = +-1
            s, w = zip(*[_rule(t, *args) for t in x.tolist()])
    if not math.isfinite(mass := math.fsum(w)):  # on the node array, where
        with np.errstate(all="ignore"):  # 1/0 is inf and x/0 at x = +-1 too
            s, w = _rule(x, *args)
        w = w if np.isfinite(w).all() else np.nan_to_num(w)  # lost weights 0
        mass = math.fsum(w.tolist())
    if not (mu0 > 0 and abs(mass / mu0 - 1) < 1e-9):  # mu_0 mass
        raise FloatRangeExceeded(f"Gauss-Jacobi rule {n, alpha, beta}: weights"
                                 f" sum to {mass}, not mu_0 = {mu0}")
    return np.asarray(s), np.asarray(w)


@dataclass(frozen=True)
class PiScaledRational:
    """A value coeff * pi**pi_power with an exact rational coeff.

    Multiplication, division and powers combine pi powers.  There is no
    addition: a sum of different pi powers would leave the exact domain.
    """

    coeff: Fraction
    pi_power: int = 0

    def __post_init__(self):
        if type(self.coeff) is not Fraction:
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
        if isinstance(other, PiScaledRational):  # a zero has every pi power
            return self.coeff == other.coeff and (
                not self.coeff or self.pi_power == other.pi_power)
        if isinstance(other, Rational):
            return self == PiScaledRational(Fraction(other), 0)
        return NotImplemented

    def __hash__(self):
        return hash((self.coeff, self.pi_power) if self.coeff else Fraction(0))

    def __float__(self):
        c, k = self.coeff, self.pi_power
        e = c.numerator.bit_length() - c.denominator.bit_length()  # ~ log2 c
        if -1000 < e < 1000 and -500 < k < 500 and -1000 < e + 2 * k < 1000:
            return float(c) * math.pi ** k  # float(c), pi^k and product normal
        from decimal import Decimal  # loaded only past a factor's float range
        value = float(c.numerator * Decimal(math.pi) ** k / c.denominator)
        if not math.isinf(value):  # decimal's range is wider than float's
            return value
        raise FloatRangeExceeded(f"~2^{e + 1.65 * k:.0f} > float limit 1.8e308")

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
        return f"{self.coeff}*pi^{self.pi_power}" if self.pi_power else (
            f"{self.coeff}")


@dataclass(frozen=True)
class QC:
    """Exact rational (re, im) pair; its arithmetic runs on disc's lanes."""

    re: Fraction
    im: Fraction = Fraction(0)

    def __post_init__(self):
        self.__dict__.update({k: x if type(x) is Fraction else Fraction(x)
                              for k, x in (("re", self.re), ("im", self.im))})

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"({self.re}{'+' if self.im >= 0 else ''}{self.im}j)"
