"""Exact arithmetic helpers: rationals scaled by powers of pi, rational
complex numbers, the integer rising products behind every Pochhammer symbol,
the one float-range rule and the error of an integral that diverges, the one
gate each on counts, weights and numbers that may be read in floats, and the
one Beta function and Gauss-Jacobi rule of the oracles.

All constants produced by the degree computations are rational multiples of
an integer power of pi, so we never evaluate pi numerically until a float
rendition is explicitly requested.
"""

from __future__ import annotations

import cmath
import contextlib
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, wraps
from itertools import accumulate
from numbers import Rational
from operator import mul

import numpy as np

_RULES_KEPT = 128  # Gauss rules cached: at most 128 * 2 * n * 8 bytes


class FloatRangeExceeded(ValueError):
    """An exact value to be compared in floats lies beyond the float range."""


class NonIntegrable(ValueError):
    """An integrand's weight exponent lies outside its integrability range."""


def in_float_range(read):
    """The one float-range rule: read, where rounding an exact value raises a
    bare OverflowError or np.errstate(over="raise") a FloatingPointError,
    raises FloatRangeExceeded naming read instead."""
    @wraps(read)
    def checked(*args, **kwargs):
        try:
            return read(*args, **kwargs)
        except (OverflowError, FloatingPointError) as exc:
            raise FloatRangeExceeded(f"{read.__name__}: a value exceeds the"
                                     f" float limit 1.8e308 ({exc})") from None
    return checked


def check_counts(*counts) -> None:
    """Refuse each (name, value, least) whose value is not an int or numpy
    integer >= least (a bool is no count), naming the argument."""
    for name, value, least in counts:
        if isinstance(value, bool) or not isinstance(
                value, (int, np.integer)) or value < least:
            raise ValueError(f"{name} must be >= {least} and an int, got "
                             f"{name}={value!r}")


def check_weight(name: str, x) -> Fraction:
    """x as a Fraction of Python ints (numpy's wrap), one such as it is: the
    one intake of a weight, of a PiScaledRational operand and of every number
    read exactly, a Rational (Python or numpy int, Fraction, QC part).  A
    float or numpy float enters at its dyadic value.  A bool, None, a complex
    or non-finite value and all else Fraction() refuses raise one ValueError
    naming x; only x/0 keeps its ZeroDivisionError."""
    if type(x) is Fraction and type(x.numerator) is int is type(x.denominator):
        return x
    if type(x) is int:  # as fast as Fraction(x), for the hot callers
        return Fraction(x)
    with contextlib.suppress(TypeError, ValueError, OverflowError):
        if isinstance(x, np.floating):  # float32 too, which Fraction() refuses
            x = Fraction(*x.as_integer_ratio())
        if not isinstance(x, (bool, complex)):
            return Fraction(int(x.numerator), int(x.denominator)) if (
                isinstance(x, Rational)) else Fraction(x)
    raise ValueError(f"{name} must be a finite rational number, got "
                     f"{name}={x!r}")


def check_number(name: str, x) -> int | Fraction | complex:
    """x by the one rule of a number that may be read in floats: an int as it
    is, a float, complex or numpy float as a finite complex, a str as
    Fraction(str) or else a finite complex(str), all else (a Rational)
    through check_weight.  Each refusal is one ValueError naming x; x/0 keeps
    its ZeroDivisionError."""
    if type(x) is int:  # the hot callers' fast paths, by type
        return x
    if isinstance(x, (float, complex, np.inexact)):
        if cmath.isfinite(x):
            return complex(x)
    elif isinstance(x, str):
        with contextlib.suppress(ValueError):
            return Fraction(x)
        with contextlib.suppress(ValueError):
            if cmath.isfinite(z := complex(x)):
                return z
    else:
        return check_weight(name, x)
    raise ValueError(f"{name} must be a finite number, got {name}={x!r}")


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
    """(s, w) at the array x of eigenvalues: recurrence, then Newton."""
    p0, p1, total = 0.0, 1.0, 1.0
    for a, b0, b1 in steps:  # (a_j, b_j, b_{j+1}), j < n
        p0, p1 = p1, ((x - a) * p1 - b0 * p0) / b1
        total += p1 * p1
    dx = -b1 * p1 * p0 / total  # b1 = b_n
    dx = dx if np.isfinite(dx).all() else np.nan_to_num(dx)
    total *= 1 + dx * ((alpha + beta + 2) * x + alpha - beta) / (1 - x * x)
    return (1 + x + dx) / 2, mu0 / total


@in_float_range
def gauss_jacobi(n: int, alpha: float, beta: float):
    """Nodes s and weights w of the n-point Gauss rule for int_0^1
    (1 - s)^alpha s^beta f(s) ds, exact up to degree 2n - 1, at real alpha,
    beta > -1 (no bool, no array but a 0-d one).  On x = 2s - 1 the nodes
    are the Jacobi matrix's eigenvalues (Golub-Welsch); one pass of the
    orthonormal recurrence on their array gives w = mu_0 / K, K = sum_{k<=n}
    p_k^2, corrected to first order in the rounding of x by dx = -b_n p_n
    p_{n-1}/K (Newton, by Christoffel-Darboux) and K'/K = ((alpha + beta +
    2) x + alpha - beta) / (1 - x^2).  p_k^2 <= K = mu_0/w overflows only
    where w underflows; w is 0 there.  4e-13 from 40-digit weights up to n =
    514.

    The _RULES_KEPT = 128 rules last used are kept, keyed on n and the bits
    of float(alpha), float(beta) (-0.0 is not 0.0, a Fraction is its float):
    at most 128 * 2 * n * 8 bytes; no refusal.  Every caller gets the same
    two read-only arrays.  A build: 33 us at 1 node, 69 at 9 (2-vCPU x86)."""
    check_counts(("n", n, 1))
    for name, x in (("alpha", alpha), ("beta", beta)):
        with contextlib.suppress(TypeError):  # a str, complex or None
            if not (isinstance(x, (bool, np.bool_)) or getattr(x, "ndim", 0)
                    ) and -1 < x < math.inf:
                continue
        raise ValueError(f"Gauss-Jacobi needs alpha, beta > -1 finite; got "
                         f"{name}={x!r}")
    # a Fraction alike at every n: the key is its float's bits
    return _gauss_rule(n, float(alpha).hex(), float(beta).hex())


@lru_cache(maxsize=_RULES_KEPT)
def _gauss_rule(n: int, alpha: str, beta: str):
    """gauss_jacobi's rule at the floats whose hex strings are alpha, beta."""
    alpha, beta = float.fromhex(alpha), float.fromhex(beta)
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
    x = np.linalg.eigvalsh(jacobi)
    mu0 = beta_mass(alpha, beta)
    with np.errstate(all="ignore"):  # 1/0 is inf, and x/0 at x = +-1 too
        s, w = _rule(x, list(zip(a, b, b[1:])), alpha, beta, mu0)
    w = w if np.isfinite(w).all() else np.nan_to_num(w)  # lost weights 0
    mass = math.fsum(w.tolist())
    if not (mu0 > 0 and abs(mass / mu0 - 1) < 1e-9):  # mu_0 mass
        raise FloatRangeExceeded(f"Gauss-Jacobi rule {n, alpha, beta}: weights"
                                 f" sum to {mass}, not mu_0 = {mu0}")
    s.flags.writeable = w.flags.writeable = False
    return s, w


@dataclass(frozen=True)
class PiScaledRational:
    """A value coeff * pi**pi_power with an exact rational coeff.

    Multiplication, division and powers combine pi powers.  There is no
    addition: a sum of different pi powers would leave the exact domain.
    """

    coeff: Fraction
    pi_power: int = 0

    def __post_init__(self):
        if type(k := self.pi_power) is not int:  # numpy's ints become ints
            check_counts(("pi_power", k, -math.inf))
            self.__dict__["pi_power"] = int(k)
        self.__dict__["coeff"] = check_weight("coeff", self.coeff)

    def __mul__(self, other):
        if isinstance(other, PiScaledRational):
            return PiScaledRational(self.coeff * other.coeff,
                                    self.pi_power + other.pi_power)
        return PiScaledRational(self.coeff * check_weight("other", other),
                                self.pi_power)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, PiScaledRational):
            return PiScaledRational(self.coeff / other.coeff,
                                    self.pi_power - other.pi_power)
        return PiScaledRational(self.coeff / check_weight("other", other),
                                self.pi_power)

    def __pow__(self, n: int):
        return PiScaledRational(self.coeff ** n, self.pi_power * n)

    def __eq__(self, other):
        if isinstance(other, PiScaledRational):  # a zero has every pi power
            return self.coeff == other.coeff and (
                not self.coeff or self.pi_power == other.pi_power)
        with contextlib.suppress(ValueError):  # a bool is no number
            if isinstance(other, Rational):
                return self == PiScaledRational(other)
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
        self.__dict__.update(re=check_weight("re", self.re),
                             im=check_weight("im", self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"({self.re}{'+' if self.im >= 0 else ''}{self.im}j)"
