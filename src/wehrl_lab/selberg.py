"""Selberg-type integrals over the unit hypercube.

These are the integrals

    S(r, a, b, g) = int_{[0,1]^r} prod_j (1-s_j)^g s_j^b
                    prod_{i<j} |s_i - s_j|^a  ds

whose closed-form Gamma-product evaluation underlies the formal degrees.
The numerical evaluators here are deliberately independent of the closed
form so they can act as oracles for the exact degree computations:

* tensor Gauss-Jacobi rules for even a (polynomial interaction factor),
* an ordered-sector substitution s_i = prod_{k>=i} u_k that removes the
  |s_i - s_j| kink and makes tensor quadrature accurate for any integer a,
* importance-sampled Monte Carlo with per-coordinate Beta proposals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .degrees import (NonTelescoping, gamma_ratio_product,
                      scalar_formal_degree)
from .domains import DomainParams, NotAdmissible, hc_admissible
from .exactnum import PiScaledRational

__all__ = [
    "SelbergSpec",
    "NumericEstimate",
    "NonIntegrable",
    "MethodUnsupported",
    "selberg_closed",
    "selberg_closed_hp",
    "laguerre_constant_C",
    "selberg_numeric",
    "ordered_sector_quadrature",
    "verify_degree_integral",
]


class NonIntegrable(ValueError):
    """Exponents outside the integrability range gamma > -1, b > -1."""


class MethodUnsupported(ValueError):
    """Requested numerical method cannot handle these exponents."""


@dataclass(frozen=True)
class SelbergSpec:
    r: int
    a: Fraction
    b: Fraction
    gamma: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        object.__setattr__(self, "gamma", Fraction(self.gamma))
        if self.r < 1:
            raise ValueError("r must be >= 1")
        if self.a < 0:
            raise ValueError("a must be >= 0")
        if self.gamma <= -1 or self.b <= -1:
            raise NonIntegrable(
                f"need gamma > -1 and b > -1, got gamma={self.gamma}, b={self.b}")


@dataclass(frozen=True)
class NumericEstimate:
    value: float
    stderr: float          # Monte Carlo standard error, 0.0 for quadrature
    abs_err_bound: float   # quadrature self-estimate, 0.0 for Monte Carlo
    samples_or_nodes: int
    seed: int
    method: str


def _gamma_args(spec: SelbergSpec) -> tuple[list, list]:
    """Selberg's evaluation S = prod Gamma(nums) / prod Gamma(dens)."""
    r, half_a, b, g = spec.r, spec.a / 2, spec.b, spec.gamma
    nums, dens = [], []
    for j in range(1, r + 1):
        nums += [b + 1 + (j - 1) * half_a, g + 1 + (j - 1) * half_a,
                 1 + j * half_a]
        dens += [g + b + 2 + (r + j - 2) * half_a, 1 + half_a]
    return nums, dens


def selberg_closed(spec: SelbergSpec) -> Fraction | float:
    """Closed-form value: exact Fraction when the Gamma factors telescope
    to a rational, otherwise a float evaluated at 35 significant digits."""
    try:
        return gamma_ratio_product(*_gamma_args(spec))
    except NonTelescoping:
        return float(selberg_closed_hp(spec, 35))


def selberg_closed_hp(spec: SelbergSpec, dps: int = 40) -> mpmath.mpf:
    """Closed-form value at dps significant digits (mpmath)."""
    with mpmath.workdps(dps):
        nums, dens = ([mpmath.mpf(x.numerator) / x.denominator for x in xs]
                      for xs in _gamma_args(spec))
        return mpmath.gammaprod(nums, dens)


def laguerre_constant_C(d: DomainParams) -> PiScaledRational:
    """Polar-decomposition constant

    C = pi^N prod_j Gamma(1 + a/2) / (Gamma(b+1+(j-1)a/2) Gamma(1+j a/2)).

    The Gamma product is rational: for odd a its r half-integer arguments
    above the bar pair with the r below it.
    """
    half_a = Fraction(d.a, 2)
    dens = [y for j in range(1, d.r + 1)
            for y in (d.b + 1 + (j - 1) * half_a, 1 + j * half_a)]
    return PiScaledRational(
        gamma_ratio_product([1 + half_a] * d.r, dens), d.N)


def _jacobi_rule_01(n: int, alpha: float, beta: float):
    """Nodes/weights for int_0^1 (1-s)^alpha s^beta f(s) ds."""
    x, w = roots_jacobi(n, alpha, beta)
    return (x + 1.0) / 2.0, w / 2.0 ** (alpha + beta + 1.0)


def _gauss_jacobi_tensor(spec: SelbergSpec, nodes: int) -> float:
    s1, w1 = _jacobi_rule_01(nodes, float(spec.gamma), float(spec.b))
    grids = np.meshgrid(*([s1] * spec.r), indexing="ij")
    W = np.ones_like(grids[0])
    for wg in np.meshgrid(*([w1] * spec.r), indexing="ij"):
        W = W * wg
    F = np.ones_like(grids[0])
    a_int = int(spec.a)
    for i in range(spec.r):
        for j in range(i + 1, spec.r):
            F = F * (grids[i] - grids[j]) ** a_int
    return float(np.sum(F * W))


def ordered_sector_quadrature(spec: SelbergSpec, nodes: int = 120) -> float:
    """Quadrature of the Selberg integrand via the ordered-sector map.

    On the sector s_1 < ... < s_r the substitution s_i = prod_{k>=i} u_k
    turns |s_i - s_j|^a into a smooth (for integer a, polynomial) factor;
    the remaining (1 - u_r)^gamma weight is absorbed into a Gauss-Jacobi
    rule on the last axis.  Near machine precision for the integer-a cases.
    """
    r = spec.r
    g = float(spec.gamma)
    xl, wl = roots_legendre(nodes)
    xl, wl = (xl + 1.0) / 2.0, wl / 2.0
    xj, wj = _jacobi_rule_01(nodes, g, 0.0)
    axes = [xl] * (r - 1) + [xj]
    wts = [wl] * (r - 1) + [wj]
    grids = np.meshgrid(*axes, indexing="ij")
    W = np.ones_like(grids[0])
    for wg in np.meshgrid(*wts, indexing="ij"):
        W = W * wg
    s = [None] * r
    acc = np.ones_like(grids[0])
    for i in range(r - 1, -1, -1):
        acc = acc * grids[i]
        s[i] = acc.copy()
    F = np.full_like(grids[0], float(math.factorial(r)))
    for j in range(r - 1):  # (1-s_r)^g lives in the Jacobi weight
        F = F * (1.0 - s[j]) ** g
    if spec.b != 0:
        bb = float(spec.b)
        for j in range(r):
            F = F * s[j] ** bb
    aa = float(spec.a)
    for i in range(r):
        for j in range(i + 1, r):
            F = F * (s[j] - s[i]) ** aa
    for k in range(1, r):
        F = F * grids[k] ** k
    return float(np.sum(F * W))


def _monte_carlo(spec: SelbergSpec, budget: int, seed: int):
    """Importance sampling with s_j ~ Beta(b+1, gamma+1) proposals."""
    rng = np.random.default_rng(seed)
    bconst = math.exp(math.lgamma(float(spec.b) + 1.0)
                      + math.lgamma(float(spec.gamma) + 1.0)
                      - math.lgamma(float(spec.b) + float(spec.gamma) + 2.0))
    scale = bconst ** spec.r
    a = float(spec.a)
    total = 0.0
    total_sq = 0.0
    n_done = 0
    chunk = 1 << 18
    while n_done < budget:
        n = min(chunk, budget - n_done)
        s = rng.beta(float(spec.b) + 1.0, float(spec.gamma) + 1.0,
                     size=(n, spec.r))
        vals = np.ones(n)
        for i in range(spec.r):
            for j in range(i + 1, spec.r):
                vals *= np.abs(s[:, i] - s[:, j]) ** a
        total += float(vals.sum())
        total_sq += float((vals ** 2).sum())
        n_done += n
    mean = total / budget
    var = max(total_sq / budget - mean ** 2, 0.0)
    stderr = scale * math.sqrt(var / budget)
    return scale * mean, stderr


def selberg_numeric(spec: SelbergSpec, method: str, budget: int,
                    seed: int = 0) -> NumericEstimate:
    """Numerical estimate of the Selberg integral.

    method "gauss_jacobi": tensor rule, budget = nodes per axis; requires
    the interaction exponent a to be a nonnegative even integer.
    method "monte_carlo": importance sampling, budget = sample count.
    """
    if method == "gauss_jacobi":
        if spec.a.denominator != 1 or int(spec.a) % 2 != 0:
            raise MethodUnsupported(
                f"gauss_jacobi needs even integer a, got a={spec.a}")
        v_n = _gauss_jacobi_tensor(spec, budget)
        v_more = _gauss_jacobi_tensor(spec, budget + 8)
        return NumericEstimate(value=v_more, stderr=0.0,
                               abs_err_bound=abs(v_more - v_n),
                               samples_or_nodes=budget + 8, seed=seed,
                               method=method)
    if method == "monte_carlo":
        value, stderr = _monte_carlo(spec, budget, seed)
        return NumericEstimate(value=value, stderr=stderr, abs_err_bound=0.0,
                               samples_or_nodes=budget, seed=seed,
                               method=method)
    raise MethodUnsupported(f"unknown method {method!r}")


def verify_degree_integral(d: DomainParams, lam, budget: int = 200,
                           seed: int = 0, method: str = "auto") -> dict:
    """Check d_lambda * (numeric value of the defining integral) = 1.

    The defining integral over the domain reduces, through the polar
    decomposition and s = t^2, to C times the Selberg integral with
    gamma = lambda - p.  The numeric route never touches the exact degree
    formula.  method "auto" picks a quadrature: the tensor Gauss-Jacobi
    rule when a is even, the ordered-sector rule otherwise;
    "monte_carlo" forces sampling with the given budget.
    """
    lam = Fraction(lam)
    if not hc_admissible(d, lam):
        raise NotAdmissible(f"lambda={lam} inadmissible for {d.family_label}")
    spec = SelbergSpec(d.r, Fraction(d.a), Fraction(d.b), lam - d.p)
    C = laguerre_constant_C(d)
    C_float = float(C)

    if method == "auto":
        if d.a % 2 == 0:
            est = selberg_numeric(spec, "gauss_jacobi",
                                  max(48, budget), seed)
        else:
            nodes = min(max(64, budget), 200 if d.r <= 2 else 140)
            v = ordered_sector_quadrature(spec, nodes)
            v2 = ordered_sector_quadrature(spec, nodes + 12)
            est = NumericEstimate(value=v2, stderr=0.0,
                                  abs_err_bound=abs(v2 - v),
                                  samples_or_nodes=nodes + 12, seed=seed,
                                  method="ordered_quadrature")
    elif method == "monte_carlo":
        est = selberg_numeric(spec, "monte_carlo", budget, seed)
    else:
        est = selberg_numeric(spec, method, budget, seed)

    d_exact = scalar_formal_degree(d, lam)
    numeric_inverse = C_float * est.value
    product = float(d_exact) * numeric_inverse
    return {
        "domain": d.family_label,
        "lambda": str(lam),
        "d_lambda": d_exact.to_json(),
        "numeric_inverse_degree": numeric_inverse,
        "product": product,
        "deviation": abs(product - 1.0),
        "stderr_product": float(d_exact) * C_float * est.stderr,
        "method": est.method,
        "samples_or_nodes": est.samples_or_nodes,
        "seed": seed,
        # Gindikin Gamma convention: the (2 pi)^{(n1-r)/2} prefactor is
        # omitted throughout, consistently on both routes.
        "gamma_convention": "gindikin_without_2pi_factor",
    }
