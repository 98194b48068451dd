"""Gamma at positive integers and half-integers from factorials, a
reference for the exact Gamma-product evaluator."""

import math
from fractions import Fraction


def gamma_factorial(x: Fraction) -> tuple[Fraction, int]:
    """Gamma(x) for x in N/2, x > 0, as (q, h) with Gamma(x) = q pi^{h/2}:
    Gamma(k) = (k-1)! and Gamma(k+1/2) = (2k)! sqrt(pi) / (4^k k!)."""
    assert x > 0 and x.denominator in (1, 2)
    if x.denominator == 1:
        return Fraction(math.factorial(int(x) - 1)), 0
    k = int(x - Fraction(1, 2))
    return Fraction(math.factorial(2 * k), 4 ** k * math.factorial(k)), 1
