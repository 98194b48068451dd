"""Selberg-type integrals over the unit hypercube.

These are the integrals

    S(r, a, b, g) = int_{[0,1]^r} prod_j (1-s_j)^g s_j^b
                    prod_{i<j} |s_i - s_j|^a  ds

whose closed-form Gamma-product evaluation underlies the formal degrees.
The numerical evaluators here are deliberately independent of the closed
form so they can act as oracles for the exact degree computations:

* tensor Gauss-Jacobi rules for even a: against the weight (1-s)^g s^b
  the interaction factor has degree a(r-1) in each s_i, so a(r-1)/2 + 1
  nodes per axis are exact for any real b, g > -1;
* an ordered-sector map 1 - s_j = v_1 ... v_j that removes the |s_i - s_j|
  kink and moves every g-dependent factor into a Gauss-Jacobi weight on
  each axis, exact for integer a, b >= 0 at a node count read off the
  degree of the integrand (see verify_degree_integral);
* importance-sampled Monte Carlo with per-coordinate Beta(b+1, gamma+1)
  proposals.  When b = 0 or gamma = 0 they are drawn as U^(1/c),
  c = (b+1)(gamma+1), for which numpy's Beta sampler takes 5 to 24 times
  as long; at b = 0 this draws 1 - s, which serves as well because the
  importance weight is unchanged by s -> 1 - s (see _monte_carlo).

Node counts come from the integrand's degree, never from the closed form:
each quadrature runs its one exact rule, refusing grids over MAX_GRID_POINTS.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .degrees import NonTelescoping, _gamma_ratio_ints, scalar_formal_degree
from .domains import DomainParams
from .exactnum import (FloatRangeExceeded, NonIntegrable, PiScaledRational,
                       beta_mass, gauss_jacobi)

__all__ = [
    "SelbergSpec", "NumericEstimate", "NonIntegrable", "MethodUnsupported",
    "FloatRangeExceeded", "selberg_closed", "selberg_closed_hp",
    "laguerre_constant_C", "selberg_numeric", "ordered_sector_quadrature",
    "verify_degree_integral"]


MAX_GRID_POINTS = 1 << 21


class MethodUnsupported(ValueError):
    """Requested numerical method cannot handle these exponents."""


@dataclass(frozen=True)
class SelbergSpec:
    r: int
    a: Fraction
    b: Fraction
    gamma: Fraction

    def __post_init__(self):
        for name in ("a", "b", "gamma"):
            if type(value := getattr(self, name)) is not Fraction:
                object.__setattr__(self, name, Fraction(value))
        if not isinstance(self.r, (int, np.integer)) or self.r < 1:
            raise ValueError(f"rank r must be an int >= 1, got r={self.r!r}")
        if self.a < 0:
            raise ValueError("a must be >= 0")
        if self.gamma <= -1 or self.b <= -1:
            raise NonIntegrable(
                f"need gamma > -1 and b > -1, got gamma={self.gamma}, b={self.b}")


@dataclass(frozen=True)
class NumericEstimate:
    value: float
    stderr: float          # Monte Carlo standard error, 0.0 for quadrature
    abs_err_bound: float   # quadrature rounding bound, 0.0 for Monte Carlo
    samples_or_nodes: int
    method: str


def _gamma_args(spec: SelbergSpec) -> tuple[list, list, int]:
    """Selberg's S = prod Gamma(x/D), x in nums, over Gamma(y/D), y in dens."""
    r, a, b, g = spec.r, spec.a, spec.b, spec.gamma
    D = math.lcm(2 * a.denominator, b.denominator, g.denominator)
    h = a.numerator * D // (2 * a.denominator)  # a/2 = h/D
    b1, g1 = (x.numerator * D // x.denominator + D for x in (b, g))
    nums, dens = [], []
    for j in range(r):
        nums += [b1 + j * h, g1 + j * h, D + (j + 1) * h]
        dens += [g1 + b1 + (r + j - 1) * h, D + h]
    return nums, dens, D


def selberg_closed(spec: SelbergSpec) -> Fraction | float:
    """Closed-form value: exact Fraction when the Gamma factors telescope
    to a rational, otherwise a float evaluated at 35 significant digits."""
    try:
        return _gamma_ratio_ints(*_gamma_args(spec))
    except NonTelescoping:
        return float(selberg_closed_hp(spec, 35))


def selberg_closed_hp(spec: SelbergSpec, dps: int = 40):
    """Closed-form value at dps significant digits, an mpmath mpf."""
    import mpmath

    nums, dens, D = _gamma_args(spec)
    with mpmath.workdps(dps):
        return mpmath.gammaprod(*([mpmath.mpf(x) / D for x in xs]
                                  for xs in (nums, dens)))


def laguerre_constant_C(d: DomainParams) -> PiScaledRational:
    """Polar-decomposition constant

    C = pi^N prod_j Gamma(1 + a/2) / (Gamma(b+1+(j-1)a/2) Gamma(1+j a/2)).

    The Gamma product is rational: for odd a its r half-integer arguments
    above the bar pair with the r below it.  Arguments are integers over 2.
    """
    a, b = d.a, d.b
    dens = [y for j in range(d.r) for y in (2 * b + 2 + j * a, 2 + a + j * a)]
    return PiScaledRational(_gamma_ratio_ints([2 + a] * d.r, dens, 2), d.N)


def _tensor_rule(rules):
    """Coordinate grids and product weights of a tensor product of 1-D
    rules; refuses, before building it, a grid over MAX_GRID_POINTS."""
    r, nodes = len(rules), len(rules[0][0])
    if nodes ** r > MAX_GRID_POINTS:
        raise MethodUnsupported(f"a tensor rule at r={r} with {nodes} nodes "
                                f"passes the limit of {MAX_GRID_POINTS} points")
    x, w = ([z.reshape(-1, *(1,) * (r - k - 1)) for k, z in enumerate(v)]
            for v in zip(*rules))  # on axis k of r by broadcasting
    return x, functools.reduce(np.multiply, w)


def _gauss_jacobi_tensor(spec: SelbergSpec, nodes: int) -> float:
    rule = gauss_jacobi(nodes, float(spec.gamma), float(spec.b))
    s, F = _tensor_rule([rule] * spec.r)
    for i, j in itertools.combinations(range(spec.r), 2):
        F = F * (s[i] - s[j]) ** int(spec.a)
    return float(F.sum())


def ordered_sector_quadrature(spec: SelbergSpec, nodes: int = 120) -> float:
    """Quadrature of the Selberg integrand via the ordered-sector map.

    On the sector s_1 < ... < s_r put t_j = 1 - s_j = v_1 ... v_j.  The
    Jacobian prod_k v_k^{r-k} and prod_j t_j^gamma = prod_k
    v_k^{gamma (r-k+1)} make up the Gauss-Jacobi weight v_k^{beta_k},
    beta_k = (r-k) + gamma (r-k+1) > -1, of axis k.  What remains,
    r! prod_j (1-t_j)^b prod_{i<j} (t_i - t_j)^a, is for integer a, b >= 0
    a polynomial of degree b m + a (m(m-1)/2 + (k-1) m) in v_k, m = r-k+1,
    so `nodes` > half the largest of these degrees makes the rule exact.
    """
    r, g = spec.r, float(spec.gamma)
    v, F = _tensor_rule([gauss_jacobi(nodes, 0.0, (r - k) + g * (r - k + 1))
                         for k in range(1, r + 1)])
    t = list(itertools.accumulate(v, np.multiply))
    F = F * float(math.factorial(r))
    if spec.b != 0:
        for tj in t:
            F = F * (1.0 - tj) ** float(spec.b)
    for i, j in itertools.combinations(range(r), 2):
        F = F * (t[i] - t[j]) ** float(spec.a)
    return float(F.sum())


def _exact_rule(rule, spec: SelbergSpec, nodes: int, limit: int,
                method: str) -> NumericEstimate:
    """rule(spec, nodes) at the node count that makes it exact, refused over
    `limit`, with its rounding bound in units of eps |value|, eps = 2^-52.
    Grid terms are >= 0, so relative errors per term bound the sum's: numpy
    adds the nodes^r terms pairwise, eight lanes per block of <= 128, so a
    term meets <= log2(nodes^r) + 17 additions and r(b+2) + (a+3) r(r-1)/2
    roundings (weights, products t_j, powers of 1 - t_j and of differences,
    x^a scaling the error of x a-fold); each axis's (alpha, beta) rule has
    nodes within eps, weights within 16 + 4 nodes + L, L = sum |ln Gamma| at
    alpha + 1, beta + 1, alpha + beta + 2 as mu_0 (1.5x the worst, n <= 30)."""
    if nodes > limit:
        raise MethodUnsupported(f"{method} at r={spec.r} needs {nodes} nodes "
                                f"per axis to be exact; the budget is {limit}")
    value, r = rule(spec, nodes), spec.r
    b, g = float(spec.b), float(spec.gamma)
    axes = ([(g, b)] * r if rule is _gauss_jacobi_tensor
            else [(0.0, k + g * (k + 1)) for k in range(r)])  # sector betas
    steps = ((nodes ** r).bit_length() + 17 + r * (b + 18 + 4 * nodes)
             + r * (r - 1) / 2 * (float(spec.a) + 3) + sum(
                 abs(math.lgamma(x)) for al, be in axes
                 for x in (al + 1, be + 1, al + be + 2)))
    return NumericEstimate(value, 0.0, steps * 2.0 ** -52 * abs(value), nodes,
                           method)


def _monte_carlo(spec: SelbergSpec, budget: int, seed: int):
    """Importance sampling with s_j ~ Beta(b+1, gamma+1) proposals.

    With b = 0 or gamma = 0 the draw is U^(1/c), c = (b+1)(gamma+1): that
    is Beta(c, 1), which is s itself when gamma = 0 and 1 - s when b = 0.
    Both serve, since the weight prod |s_i - s_j|^a and the scale
    B(b+1, gamma+1)^r do not change under s -> 1 - s, and drawing 1 - s
    avoids the cancellation of 1 - U^(1/c) near s = 0.  At Beta(1, 1)
    numpy's sampler (Johnk's rejection loop) takes about 24 times as long
    as this draw; every other shape keeps `rng.beta`.  Samples are drawn,
    weighed and summed in leaves of 2^14 rows, whose np.sum of the weights
    and of their squares add to the totals in draw order.  One leaf stays
    in L2: the arrays of a call peak at 0.5 MB, whatever the budget.
    """
    try:
        scale = beta_mass(float(spec.gamma), float(spec.b)) ** spec.r
    except OverflowError:
        scale = math.inf
    if not sys.float_info.min <= scale < math.inf:  # else a 0 +- 0 estimate
        raise FloatRangeExceeded(
            f"monte_carlo at (r, a, b, gamma) = ({spec.r}, {spec.a}, "
            f"{spec.b}, {spec.gamma}): the scale B(b+1, gamma+1)^r = "
            f"{scale:.3g} is not a normal float")
    rng = np.random.default_rng(seed)
    a, total, total_sq = float(spec.a), 0.0, 0.0
    closed_form = spec.b == 0 or spec.gamma == 0
    leaf = min(1 << 14, budget)
    draws, diffs = np.empty((leaf, spec.r)), np.empty(leaf)
    weights = (np.ones if spec.r == 1 else np.empty)(leaf)  # r = 1: no pairs
    for start in range(0, budget, leaf):
        n = min(leaf, budget - start)
        s, vals, diff = draws[:n], weights[:n], diffs[:n]
        if closed_form:
            rng.random(out=s)
            if spec.b or spec.gamma:  # c = 1 leaves U as it is
                s **= 1.0 / float((spec.b + 1) * (spec.gamma + 1))
        else:
            s = rng.beta(float(spec.b) + 1.0, float(spec.gamma) + 1.0,
                         size=(n, spec.r))
        for p, (i, j) in enumerate(itertools.combinations(range(spec.r), 2)):
            out = diff if p else vals  # the first pair goes straight to vals
            np.abs(np.subtract(s[:, i], s[:, j], out=out), out=out)
            if a != 1.0:
                out **= a
            if p:
                vals *= diff
        total += float(vals.sum())
        total_sq += float(np.square(vals, out=diff).sum())
    mean = total / budget
    var = max(total_sq / budget - mean ** 2, 0.0)
    return scale * mean, scale * math.sqrt(var / budget)


def selberg_numeric(spec: SelbergSpec, method: str, budget: int,
                    seed: int = 0) -> NumericEstimate:
    """Numerical estimate of the Selberg integral.

    method "gauss_jacobi": the tensor rule at a(r-1)/2 + 1 nodes per axis,
    exact for even integer a >= 0; MethodUnsupported when that count
    exceeds budget.  method "monte_carlo": budget = sample count, seed >= 0.
    """
    for name, value, least in (("budget", budget, 1), ("seed", seed, 0)):
        if isinstance(value, bool) or not isinstance(
                value, (int, np.integer)) or value < least:
            raise ValueError(f"{name} must be an int >= {least}, got "
                             f"{name}={value!r}")
    if method == "gauss_jacobi":
        if spec.a.denominator != 1 or int(spec.a) % 2 != 0:
            raise MethodUnsupported(
                f"gauss_jacobi needs even integer a, got a={spec.a}")
        return _exact_rule(_gauss_jacobi_tensor, spec, int(spec.a)
                           * (spec.r - 1) // 2 + 1, budget, method)
    if method == "monte_carlo":
        value, stderr = _monte_carlo(spec, budget, seed)
        return NumericEstimate(value, stderr, 0.0, budget, method)
    raise MethodUnsupported(f"unknown method {method!r}")


def verify_degree_integral(d: DomainParams, lam, budget: int = 200) -> dict:
    """Check d_lambda * (numeric value of the defining integral) = 1.

    The defining integral over the domain reduces, through the polar
    decomposition and s = t^2, to C times the Selberg integral with
    gamma = lambda - p.  The numeric route never touches the exact degree
    formula.  Its one rule is exact: the tensor rule of selberg_numeric for
    even a, else the ordered-sector rule at D // 2 + 1 nodes per axis, D its
    largest degree on any axis, with budgets of at least 48 and 64 nodes.
    error_bound bounds |product - 1|: the rule's rounding bound, scaled as
    the product is, plus 2^-53 |product| times 2 for the two products and
    N + 4 for each of float(d), float(C) (rounding c, pi, pi^N, c pi^(+-N)).
    """
    d_exact, lam = scalar_formal_degree(d, lam), Fraction(lam)  # NotAdmissible
    spec = SelbergSpec(d.r, d.a, d.b, lam - d.p)
    C = laguerre_constant_C(d)
    try:
        C_float, d_float = float(C), float(d_exact)
    except FloatRangeExceeded as exc:
        raise FloatRangeExceeded(f"{d.family_label} {(d.r, d.a, d.b)} at "
                                 f"lambda = {lam}: {exc}") from None
    if d.a % 2 == 0:
        est = selberg_numeric(spec, "gauss_jacobi", max(48, budget))
    else:
        degree = max(d.b * m + d.a * (m * (m - 1) // 2 + (d.r - m) * m)
                     for m in range(1, d.r + 1))
        est = _exact_rule(ordered_sector_quadrature, spec, degree // 2 + 1,
                          max(64, budget), "ordered_quadrature")

    numeric_inverse = C_float * est.value
    product = d_float * numeric_inverse
    roundings = (d.N + 5) * 2.0 ** -52 * abs(product)  # d, C at pi^-N, pi^N
    return {
        "domain": d.family_label,
        "lambda": str(lam),
        "d_lambda": d_exact.to_json(),
        "numeric_inverse_degree": numeric_inverse,
        "product": product,
        "deviation": abs(product - 1.0),
        "error_bound": d_float * C_float * est.abs_err_bound + roundings,
        "method": est.method,
        "samples_or_nodes": est.samples_or_nodes,
        # Gindikin Gamma convention: the (2 pi)^{(n1-r)/2} prefactor is
        # omitted throughout, consistently on both routes.
        "gamma_convention": "gindikin_without_2pi_factor",
    }
