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

Node counts come from the degree of the integrand, never from the closed
form.  Each quadrature is compared with a larger rule; both tensor rules
refuse a grid of more than MAX_GRID_POINTS points before building it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .degrees import (NonTelescoping, gamma_ratio_product,
                      scalar_formal_degree)
from .domains import DomainParams, NotAdmissible, hc_admissible
from .exactnum import (FloatRangeExceeded, NonIntegrable, PiScaledRational,
                       gauss_jacobi)

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


def selberg_closed_hp(spec: SelbergSpec, dps: int = 40):
    """Closed-form value at dps significant digits, an mpmath mpf."""
    import mpmath

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


def _tensor_rule(rules):
    """Coordinate grids and product weights of a tensor product of 1-D
    rules; refuses, before building it, a grid over MAX_GRID_POINTS."""
    r, nodes = len(rules), len(rules[0][0])
    if nodes ** r > MAX_GRID_POINTS:
        raise MethodUnsupported(
            f"a tensor rule at r={r} with {nodes} nodes per axis exceeds "
            f"the limit of {MAX_GRID_POINTS} grid points")
    grids = np.meshgrid(*(x for x, _ in rules), indexing="ij", sparse=True)
    W = np.ones(())
    for wg in np.meshgrid(*(w for _, w in rules), indexing="ij", sparse=True):
        W = W * wg
    return grids, W


def _gauss_jacobi_tensor(spec: SelbergSpec, nodes: int) -> float:
    rule = gauss_jacobi(nodes, float(spec.gamma), float(spec.b))
    s, F = _tensor_rule([rule] * spec.r)
    a_int = int(spec.a)
    for i in range(spec.r):
        for j in range(i + 1, spec.r):
            F = F * (s[i] - s[j]) ** a_int
    return float(np.sum(F))


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
    for i in range(r):
        for j in range(i + 1, r):
            F = F * (t[i] - t[j]) ** float(spec.a)
    return float(np.sum(F))


def _rule_pair(rule, spec: SelbergSpec, nodes: int, extra: int, method: str,
               seed: int) -> NumericEstimate:
    """The rule at nodes + extra per axis, bounded by its distance to the
    rule at nodes; the larger runs first, so no grid is built in vain."""
    v_more, v = rule(spec, nodes + extra), rule(spec, nodes)
    return NumericEstimate(value=v_more, stderr=0.0,
                           abs_err_bound=abs(v_more - v),
                           samples_or_nodes=nodes + extra, seed=seed,
                           method=method)


def _monte_carlo(spec: SelbergSpec, budget: int, seed: int):
    """Importance sampling with s_j ~ Beta(b+1, gamma+1) proposals.

    With b = 0 or gamma = 0 the draw is U^(1/c), c = (b+1)(gamma+1): that
    is Beta(c, 1), which is s itself when gamma = 0 and 1 - s when b = 0.
    Both serve, since the weight prod |s_i - s_j|^a and the scale
    B(b+1, gamma+1)^r do not change under s -> 1 - s, and drawing 1 - s
    avoids the cancellation of 1 - U^(1/c) near s = 0.  At Beta(1, 1)
    numpy's sampler (Johnk's rejection loop) takes about 24 times as long
    per chunk as this draw; every other shape keeps `rng.beta`, so its
    streams are unchanged.  U is drawn into one reused chunk buffer and
    the weights are formed in place, so the PCG64 draws are the floor.  The
    chunk size sets how numpy's pairwise sums group, so it is part of the
    stream.
    """
    rng = np.random.default_rng(seed)
    bconst = math.exp(math.lgamma(float(spec.b) + 1.0)
                      + math.lgamma(float(spec.gamma) + 1.0)
                      - math.lgamma(float(spec.b) + float(spec.gamma) + 2.0))
    scale = bconst ** spec.r
    a = float(spec.a)
    total, total_sq, chunk = 0.0, 0.0, 1 << 18
    closed_form = spec.b == 0 or spec.gamma == 0
    m = min(chunk, budget)
    s, (vals, diff, sq) = np.empty((m, spec.r)), np.empty((3, m))
    for start in range(0, budget, chunk):
        n = min(chunk, budget - start)
        if n < m:  # the last, shorter chunk
            s, vals, diff, sq = s[:n], vals[:n], diff[:n], sq[:n]
        if closed_form:
            rng.random(out=s)
            if spec.b or spec.gamma:  # c = 1 leaves U as it is
                s **= 1.0 / float((spec.b + 1) * (spec.gamma + 1))
        else:
            s = rng.beta(float(spec.b) + 1.0, float(spec.gamma) + 1.0,
                         size=(n, spec.r))
        vals.fill(1.0)
        for i, j in itertools.combinations(range(spec.r), 2):
            np.abs(np.subtract(s[:, i], s[:, j], out=diff), out=diff)
            if a != 1.0:
                diff **= a
            vals *= diff
        total += float(vals.sum())
        total_sq += float(np.square(vals, out=sq).sum())
    mean = total / budget
    var = max(total_sq / budget - mean ** 2, 0.0)
    stderr = scale * math.sqrt(var / budget)
    return scale * mean, stderr


def selberg_numeric(spec: SelbergSpec, method: str, budget: int,
                    seed: int = 0) -> NumericEstimate:
    """Numerical estimate of the Selberg integral.

    method "gauss_jacobi": tensor rule at min(budget, a(r-1)/2 + 1) nodes
    per axis, the exact count, compared with 8 nodes more; requires the
    interaction exponent a to be a nonnegative even integer.
    method "monte_carlo": importance sampling, budget = sample count.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got budget={budget}")
    if method == "gauss_jacobi":
        if spec.a.denominator != 1 or int(spec.a) % 2 != 0:
            raise MethodUnsupported(
                f"gauss_jacobi needs even integer a, got a={spec.a}")
        nodes = min(budget, int(spec.a) * (spec.r - 1) // 2 + 1)
        return _rule_pair(_gauss_jacobi_tensor, spec, nodes, 8, method, seed)
    if method == "monte_carlo":
        value, stderr = _monte_carlo(spec, budget, seed)
        return NumericEstimate(value=value, stderr=stderr, abs_err_bound=0.0,
                               samples_or_nodes=budget, seed=seed,
                               method=method)
    raise MethodUnsupported(f"unknown method {method!r}")


def verify_degree_integral(d: DomainParams, lam, budget: int = 200,
                           seed: int = 0) -> dict:
    """Check d_lambda * (numeric value of the defining integral) = 1.

    The defining integral over the domain reduces, through the polar
    decomposition and s = t^2, to C times the Selberg integral with
    gamma = lambda - p.  The numeric route never touches the exact degree
    formula.  The quadrature is the tensor Gauss-Jacobi rule (sized as in
    selberg_numeric) when a is even, else the ordered-sector rule at
    min(max(64, budget), D // 2 + 1) nodes per axis, D its largest degree on
    any axis, compared with 12 nodes more.
    """
    lam = Fraction(lam)
    if not hc_admissible(d, lam):
        raise NotAdmissible(f"lambda={lam} inadmissible for {d.family_label}")
    spec = SelbergSpec(d.r, Fraction(d.a), Fraction(d.b), lam - d.p)
    C = laguerre_constant_C(d)
    C_float = float(C)
    d_exact = scalar_formal_degree(d, lam)
    try:
        d_float = float(d_exact)
    except OverflowError:
        raise FloatRangeExceeded(
            f"d_lambda of {d.family_label} {(d.r, d.a, d.b)} at lambda = "
            f"{lam} exceeds the float limit 1.8e308") from None

    if d.a % 2 == 0:
        est = selberg_numeric(spec, "gauss_jacobi", max(48, budget), seed)
    else:
        degree = max(d.b * m + d.a * (m * (m - 1) // 2 + (d.r - m) * m)
                     for m in range(1, d.r + 1))
        nodes = min(max(64, budget), degree // 2 + 1)
        est = _rule_pair(ordered_sector_quadrature, spec, nodes, 12,
                         "ordered_quadrature", seed)

    numeric_inverse = C_float * est.value
    product = d_float * numeric_inverse
    return {
        "domain": d.family_label,
        "lambda": str(lam),
        "d_lambda": d_exact.to_json(),
        "numeric_inverse_degree": numeric_inverse,
        "product": product,
        "deviation": abs(product - 1.0),
        "stderr_product": d_float * C_float * est.stderr,
        "method": est.method,
        "samples_or_nodes": est.samples_or_nodes,
        "seed": seed,
        # Gindikin Gamma convention: the (2 pi)^{(n1-r)/2} prefactor is
        # omitted throughout, consistently on both routes.
        "gamma_convention": "gindikin_without_2pi_factor",
    }
