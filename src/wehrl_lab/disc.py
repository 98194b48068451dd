"""Weighted Bergman spaces on the unit disc.

The space H_nu (nu > 1) carries the norm normalized so that <1,1> = 1, which
makes the monomial norms exact rationals:

    <z^m, z^k> = delta_{mk} * m! / (nu)_m.

Everything here is built on truncated power series with exact rational
complex coefficients where possible; quadrature of the defining integrals
acts as the independent numerical oracle.  The module covers the tensor
product projections onto the discrete-series components, the sharp
L^2 -> L^{2n} inequality and its improved form with the second-component
remainder, the kernel ODE characterization, and an L-BFGS ascent searching
for maximizers on the coefficient sphere.

Coefficients are lanes: Gaussian-integer numerators over one common
denominator (below), a float at the dyadic rational it holds.  Products and
projections are exact; float input reads its results rounded once.  Weighted
norms, the SU(2) masses too, go through product_norm2: at an integer nu its
float weights are 1/binom, rounded once, from one running product.  One Hahn
ladder on Python ints per coefficient lane gives every projection; exact
completeness at degree 64 takes 0.106 s (median) on 2 x86-64 vCPUs.
"""

from __future__ import annotations

import math
import sys
from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial, reduce
from itertools import count, islice, pairwise
from operator import add, mul
from typing import Sequence

import numpy as np

from .exactnum import (QC, FloatRangeExceeded, NonIntegrable, check_counts,
                       check_number, check_weight, gauss_jacobi,
                       in_float_range, rising_ints)

__all__ = [
    "PolyFun", "TensorPoly", "KernelFun", "ProjectionSpec", "Projected",
    "NonIntegrable", "OutsideBergman", "NoConvergence",
    "norm2_exact", "norm_p_numeric", "qk_project", "q1_iterated",
    "completeness_check", "wehrl_check", "improved_check", "ode_solve",
    "maximize_wehrl", "matrix_coeff_lp", "product_norm2",
]

class OutsideBergman(ValueError):
    """Kernel parameter |c| >= nu: the ODE solution leaves the space."""


class NoConvergence(RuntimeError):
    """A solver stopped before its tolerance was met; stop_reason says why."""

    def __init__(self, message: str, stop_reason: str):
        super().__init__(message)
        self.stop_reason = stop_reason


# ---------------------------------------------------------------------------
# (lanes, den), the stored coefficients of PolyFun and TensorPoly: numpy object
# arrays of Python int numerators over den, (re,) or (re, im).  Their exact
# flag only says how results are read: as Fractions, or rounded once.

@in_float_range
def _lanes_of(flat: list, shape: tuple) -> tuple:
    """((lanes, den), exact) of coefficients listed in C order, each a QC or
    read by check_number: exactly iff none is read in floats, else each as
    complex(c) at its dyadic value; den is the lcm of their denominators."""
    flat = [c if isinstance(c, QC) else check_number("coeffs", c) for c in flat]
    if exact := all(type(c) is not complex for c in flat):
        pairs = [(c.re, c.im) if isinstance(c, QC) else (c, 0) for c in flat]
    else:
        pairs = [(z.real, z.imag) for z in map(complex, flat)]
    ratios = [[x.as_integer_ratio() for x in part] for part in zip(*pairs)]
    den = math.lcm(*{d for part in ratios for _, d in part})  # each d once
    parts = [[x * (den // d) for x, d in part] for part in ratios] or [[]]
    parts = parts if any(parts[-1]) else parts[:1]
    return (tuple(np.array(x, dtype=object).reshape(shape) for x in parts),
            den), exact


def _rounded(lanes: tuple, den: int) -> np.ndarray:
    """complex128 lanes over den, each part rounded once as float(Fraction(x,
    den)) rounds it (int / int is correctly rounded), as complex(QC) is."""
    return np.frompyfunc(lambda re, im=0: complex(re / den, im / den),
                         len(lanes), 1)(*lanes).astype(complex)


def _from_lanes(cls, weights: tuple, lanes: tuple, den: int, exact: bool):
    """cls(*weights, coeffs) with the coefficients lanes over den."""
    obj = object.__new__(cls)  # the weights by name, as cls.__init__ sets them
    obj.__dict__.update(zip(("mu", "nu")[-len(weights):], weights))
    obj._lanes, obj.exact = (lanes, den), exact
    return obj


def _values(f) -> list:
    """f's coefficients nested as its lanes: QC when exact, else rounded."""
    lanes, den = f._lanes
    if not f.exact:
        return _rounded(lanes, den).tolist()
    return np.frompyfunc(lambda *xs: QC(*(Fraction(x, den) for x in xs)),
                         len(lanes), 1)(*lanes).tolist()


def _product(cls, weights: tuple, f, g, op):
    """cls(*weights, coeffs) of the exact product of f and g under a bilinear
    op on lanes, read exactly only when both factors are."""
    return _from_lanes(cls, weights, *_gaussian(f._lanes, g._lanes, op),
                       f.exact and g.exact)


def _gaussian(f: tuple, g: tuple, op) -> tuple:
    """(lanes, den) of f = (a, da) times g = (b, db): the lanes of (a0 + i
    a1)(b0 + i b1) for a bilinear op on lanes, over da db."""
    terms = [[], []]  # of the real lane, then of the imaginary one
    for i, x in enumerate(f[0]):
        for j, y in enumerate(g[0]):
            terms[(i + j) % 2].append(op(x, y) if i + j < 2 else -op(x, y))
    return tuple(reduce(add, t) for t in terms if t), f[1] * g[1]


def _factorials(nu, count: int) -> tuple:
    """(f, a, b), f[m] = m! b^m for m < count at nu = a/b.  ValueError where
    one (nu)_m, m < count, vanishes: at integer nu = a, 2 - count <= a <= 0."""
    a, b = nu.numerator, nu.denominator  # a gated Fraction or an int -m
    if b == 1 and 2 - count <= a <= 0:
        raise ValueError(f"(nu)_m vanishes at nu = {a} for some m < {count}")
    return rising_ints(b, b, count - 1), a, b


def _binomials(a: int, count: int) -> list:
    """|(a)_m/m!| = |binom(a + m - 1, m)|, m < count: one running product."""
    c, row = 1, [1]
    for m, x in enumerate(range(a, a + count - 1), 1):
        row.append(c := c * abs(x) // m)
    return row


def _rising_pair(nu, count: int) -> tuple:
    """(f, r), |f/r| = |m!/(nu)_m| for m < count; f = 1 at an integer nu."""
    if nu.denominator == 1 and not 2 - count <= nu <= 0:
        return [1] * len(r := _binomials(nu.numerator, count)), r
    f, a, b = _factorials(nu, count)  # ValueError where one (nu)_m vanishes
    return f, rising_ints(a, b, count - 1)


def _weights(nu, count: int) -> list:
    """|m!/(nu)_m| for m < count, each correctly rounded (int / int): the
    float weights of product_norm2 and maximize_wehrl.  FloatRangeExceeded,
    naming nu and the first such m, where one is not a normal float."""
    f, r = _rising_pair(nu, count)
    with suppress(OverflowError):
        weights = [abs(x / y) for x, y in zip(f, r)]
        if min(weights) >= sys.float_info.min:
            return weights
    for m, (x, y) in enumerate(zip(f, r)):  # the first m past the range
        with suppress(OverflowError):
            if abs(x / y) >= sys.float_info.min:
                continue
        raise FloatRangeExceeded(f"weight |m!/(nu)_m| at nu = {Fraction(nu)}"
                                 f", m = {m}, is not a normal float")


def _rising_over_factorial(nu, count: int, exact: bool) -> list:
    """(nu)_m/m! = 1/weight for m < count, exact or correctly rounded;
    FloatRangeExceeded where a rounded one passes the float limit."""
    try:
        return [abs(Fraction(y, x) if exact else y / x)
                for x, y in zip(*_rising_pair(nu, count))]
    except OverflowError:
        raise FloatRangeExceeded(f"(nu)_m/m! at nu = {Fraction(nu)} exceeds "
                                 f"1.8e308 for some m < {count}") from None


def _weighted_sum(sq, table: list, a: int, b: int) -> tuple:
    """(num, den), num/den = sum_{m<=M} sq[m] |m!/(a/b)_m| for table[m] = m!
    b^m, M = len(table) - 1: one Horner pass, den = prod_{i<M} |a + i b|."""
    factors, acc = list(map(abs, range(a, a + (len(table) - 1) * b, b))), 0
    for s, t, y in zip(sq, table, [1, *factors]):
        acc = acc * y + s * t
    return acc, math.prod(factors)


class PolyFun:
    """Polynomial f(z) = sum c_m z^m viewed as an element of H_nu."""

    def __init__(self, nu, coeffs: Sequence = (1,)):
        self.nu = check_weight("nu", nu)
        if self.nu <= 1:
            raise ValueError(f"weight nu must exceed 1, got {self.nu}")
        if len(coeffs) == 0:
            raise ValueError("PolyFun got the empty coefficient list")
        self._lanes, self.exact = _lanes_of(list(coeffs), (-1,))

    @cached_property
    def coeffs(self) -> tuple:
        return tuple(_values(self) if self.exact
                     else self.as_complex_array().tolist())

    @property
    def degree(self) -> int:
        return len(self._lanes[0][0]) - 1

    @in_float_range
    def as_complex_array(self) -> np.ndarray:
        """The coefficients rounded once, one read-only array per object."""
        if "_view" not in vars(self):
            self._view = _rounded(*self._lanes)
            self._view.flags.writeable = False
        return self._view

    def __mul__(self, other: "PolyFun") -> "PolyFun":
        # Product lands in the sum of the weights; degrees add, no truncation.
        return _product(PolyFun, (self.nu + other.nu,), self, other,
                        np.convolve)

    def power(self, n: int) -> "PolyFun":
        check_counts(("n", n, 1))
        return reduce(mul, [self] * (n - 1), self)

    def scale(self, s) -> "PolyFun":
        return _product(PolyFun, (self.nu,), self, PolyFun(self.nu, (s,)),
                        np.multiply)


def product_norm2(factors: Sequence, nu) -> Fraction | float:
    """sum_k |k!/(nu)_k| |[p]_k|^2 for p the product of the factors (PolyFun,
    whose own weight is ignored, exact (lanes, den) pairs or complex arrays):
    _weighted_sum on the lanes, from the first factor's, when every factor is
    exact, else in complex128.  At nu = -deg p weights are 1/binom(deg p, k)."""
    nu = nu if type(nu) is int else check_weight("nu", nu)
    if all(isinstance(f, tuple) or isinstance(f, PolyFun) and f.exact
           for f in factors):
        lanes, den = reduce(partial(_gaussian, op=np.convolve),
                            (getattr(f, "_lanes", f) for f in factors))
        sq = reduce(add, (x * x for x in lanes)).tolist()
        num, w_den = _weighted_sum(sq, *_factorials(nu, len(sq)))
        return Fraction(num, den * den * w_den)
    p = reduce(np.convolve, [f.as_complex_array() if isinstance(f, PolyFun)
                             else f for f in factors])
    with suppress(OverflowError):  # abs(x) ** 2, or fsum, past 1.8e308
        total = math.fsum(abs(x) ** 2 * w for x, w in
                          zip(p.tolist(), _weights(nu, len(p))))
        if math.isfinite(total):
            return total
    raise FloatRangeExceeded(f"the weighted norm at nu = {nu} of a product "
                             f"of degree {len(p) - 1} exceeds the float "
                             f"limit 1.8e308")


def norm2_exact(f: PolyFun) -> Fraction | float:
    """||f||^2_{nu,2} = sum |c_m|^2 m!/(nu)_m; exact for rational coeffs."""
    return product_norm2([f], f.nu)


# ---------------------------------------------------------------------------
# Quadrature of the defining integrals (independent numerical oracle).

def _rule_sizes(degree: int) -> tuple[int, int]:
    """(equispaced angles, Gauss nodes) for an integrand that is a
    trigonometric polynomial of the given degree in the angle and whose
    angular mean is a polynomial of that degree in the radial variable:
    the smallest counts that integrate it exactly."""
    return degree + 1, degree // 2 + 1


def _angular_radial_mean(rows: np.ndarray, size: int, wt: np.ndarray,
                         n: int) -> float:
    """sum_j wt_j mean_k |F_j(theta_k)|^{2n} over size equispaced angles
    theta_k, F_j(theta) = sum_i rows[i, j] e^{i i theta}: the trigonometric
    sums by one inverse FFT per node, the radial rule's weights wt."""
    F = size * np.fft.ifft(rows, size, axis=0)
    mean = np.add.reduce(np.abs(F) ** (2 * n)) / size  # over the angles
    return float(np.add.reduce(wt * mean))


def _finite(value: float) -> float:
    if not math.isfinite(value):
        raise FloatRangeExceeded("the quadrature of |f|^{2n} exceeds the "
                                 "float limit 1.8e308")
    return value


@in_float_range
def norm_p_numeric(f: PolyFun, p: int) -> float:
    """Quadrature of the L^p integral, normalized to match the doubled-weight
    L^2 norm: returns (p*nu/2 - 1) * (1/pi) int |f|^p (1-|z|^2)^{p nu/2 - 2} dm,
    so that for even p it equals ||f^{p/2}||^2 at weight p*nu/2."""
    check_counts(("p", p, 2))
    if p % 2:
        raise ValueError("p must be a positive even integer")
    return _finite(float(p * f.nu / 2 - 1) * matrix_coeff_lp(f, p // 2))


@in_float_range
def matrix_coeff_lp(f: PolyFun, n: int) -> float:
    """(1/pi) int_D (1-|z|^2)^{n nu - 2} |f(z)|^{2n} dm(z), the L^{2n}(G)
    integral of the matrix coefficient against the lowest weight vector.
    Equals ||f^n||^2 at weight n*nu divided by (n*nu - 1)."""
    check_counts(("n", n, 0))
    alpha = float(n * f.nu - 2)
    if alpha <= -1:
        raise NonIntegrable("need n*nu > 1")
    c = f.as_complex_array()
    c = c[:max(np.flatnonzero(c), default=0) + 1]  # up to the top nonzero c_m
    # On z = t^{1/2} e^{i theta}, f = sum_m c_m t^{m/2} e^{i m theta}: |f|^{2n}
    # has degree n deg in theta, and its angular mean degree n deg in t.
    size, nodes = _rule_sizes(n * (len(c) - 1))
    t, wt = gauss_jacobi(nodes, alpha, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):  # _finite refuses inf
        rows = c[:, None] * t ** (np.arange(len(c))[:, None] / 2)
        return _finite(_angular_radial_mean(rows, size, wt, n))


# ---------------------------------------------------------------------------
# Tensor products and component projections.

class TensorPoly:
    """F(z, w) in H_mu (x) H_nu, coefficient rows a[p][q] padded with zeros."""

    def __init__(self, mu, nu, coeffs: Sequence):
        self.mu, self.nu = check_weight("mu", mu), check_weight("nu", nu)
        width = max(map(len, coeffs), default=0)
        if width == 0:
            raise ValueError(f"TensorPoly got no coefficients: {coeffs!r}")
        self._lanes, self.exact = _lanes_of(
            [c for row in coeffs for c in (*row, *[0] * (width - len(row)))],
            (len(coeffs), width))

    @cached_property
    @in_float_range
    def coeffs(self) -> tuple:
        return tuple(map(tuple, _values(self)))

    @staticmethod
    def from_product(f: PolyFun, g: PolyFun) -> "TensorPoly":
        return _product(TensorPoly, (f.nu, g.nu), f, g, np.multiply.outer)

    @in_float_range
    def norm2(self) -> Fraction | float:
        (lanes, den), (P, Q) = self._lanes, self._lanes[0][0].shape
        nu, mu = _factorials(self.nu, Q), _factorials(self.mu, P)
        rows = [_weighted_sum(sq, *nu)  # each row at nu, then at mu
                for sq in reduce(add, (x * x for x in lanes)).tolist()]
        num, mu_den = _weighted_sum([x for x, _ in rows], *mu)
        norm2 = Fraction(num, den * den * mu_den * rows[0][1])
        return norm2 if self.exact else float(norm2)


@dataclass(frozen=True)
class ProjectionSpec:
    mu: Fraction
    nu: Fraction
    k: int
    constant_convention: str = "corrected_minus_one"

    def __post_init__(self):
        check_counts(("k", self.k, 0))
        self.__dict__.update(mu=check_weight("mu", self.mu),
                             nu=check_weight("nu", self.nu))
        if min(self.mu, self.nu) <= 1:
            raise ValueError(f"a projection needs mu, nu > 1, got "
                             f"mu = {self.mu}, nu = {self.nu}")
        if self.constant_convention not in ("paper_plus_one",
                                            "corrected_minus_one"):
            raise ValueError(f"unknown convention {self.constant_convention!r}")

    @property
    def shift(self) -> int:
        """The ±1 in C^{-2}: +1 for paper_plus_one, -1 for corrected."""
        return 1 if self.constant_convention == "paper_plus_one" else -1

    def c_squared(self) -> Fraction:
        """C^2 = (mu)_k (nu)_k / (k! (mu+nu+k±1)_k), one Fraction of ints:
        _q_stream's k-th C^2, run with no tensor, as qk_project reads it."""
        _, scale, (r, s) = next(islice(_q_stream((), self), self.k, None))
        return Fraction(scale * r, s)


@dataclass(frozen=True)
class Projected:
    """Image of a tensor element under the k-th component projection.

    The normalizing constant C is a quadratic irrational in general, so the
    result is kept factored: C * core with C^2 = c2 exact.
    """

    core: PolyFun      # differential expression without the constant
    c2: Fraction       # squared normalization constant

    @in_float_range
    def norm2(self) -> Fraction | float:
        """C^2 ||core||^2, rounded once when the core is read in floats."""
        norm2 = self.c2 * product_norm2([self.core._lanes], self.core.nu)
        return norm2 if self.core.exact else float(norm2)


def qk_project(F: TensorPoly, k: int,
               convention: str = "corrected_minus_one") -> Projected:
    """Project F in H_mu (x) H_nu onto the H_{mu+nu+2k} component via

        C * sum_j (-1)^j binom(k,j) / ((mu)_j (nu)_{k-j})
              d_z^j d_w^{k-j} F |_{z=w}.

    On z^p w^q the sum is W_k(p,q)/E z^{p+q-k} (_q_stream): e_j/E are the
    weights in lowest terms, W_k = sum_j e_j perm(p,j) perm(q,k-j) integers.
    Float F projects its exact values, and its core is read rounded once.
    ProjectionSpec(F.mu, F.nu, k, convention) refuses a bad k or convention.
    """
    return _project(*F._lanes, F.exact,
                    ProjectionSpec(F.mu, F.nu, k, convention))


def _project(lanes: tuple, den: int, exact: bool, spec) -> Projected:
    """qk_project on tensor lanes over den, read exactly when exact is."""
    core, scale, (r, s) = next(islice(_q_stream(lanes, spec), spec.k, None))
    core = _from_lanes(PolyFun, (spec.mu + spec.nu + 2 * spec.k,), tuple(
        np.array(core, dtype=object)), den * scale, exact)
    return Projected(core, Fraction(scale * r, s))


def _hahn_step(mu: Fraction, nu: Fraction, k: int) -> tuple:
    """(alpha, gamma, beta, (c2, c1, c0), D) of step k: V_{k+1} = ((alpha n
    + gamma - beta p) V_k - ((c2 n + c1) n + c0) V_{k-1}) / D, p + q = n."""
    (a, b), (c, d) = mu.as_integer_ratio(), nu.as_integer_ratio()
    L, s, u = b * d, a * d + c * b, k * b * d
    # in units L = bd: x = L (2k + mu + nu), y = L (k + mu + nu - 1), ...
    x, y, am, an = 2 * u + s, u + s - L, a * d + u, c * b + u
    z, g = x - 2 * L, k * x * (am - L) * (an - L)  # C_n = g (nL + y)(n-k+1)
    return (am * z * y + k * (an - L) * x * L, k * y * ((an - L) * x - am * z),
            z * (x - L) * x, (g * L, g * s, g * y * (1 - k)), z * y)


def _hahn_ladder(mu: Fraction, nu: Fraction, n: list, p: list, x: list):
    """Yield U_k = x V_k, k = 0, 1, ..., on lists of Python ints at the
    entries with n >= k, which lead the lists (n must not increase); V_k =
    b^k d^k (mu)_k (nu)_k W_k(p, n - p)/E (qk_project) at mu = a/b, nu = c/d
    vanishes at the others.  On p + q = n, W_k = e_0 perm(n,k) Q_k(p; mu-1,
    nu-1, n) is a Hahn polynomial (Koekoek-Lesky-Swarttouw, Hypergeometric
    Orthogonal Polynomials, 9.5), whose recurrence, linear in V_k, carries U_k
    from U_0 = U_{-1} = x at O(1) integer operations per entry and step."""
    prev, cur, ns = x, x, range(max(n, default=0) + 1)
    for k in count():
        yield cur
        alpha, gamma, beta, (c2, c1, c0), D = _hahn_step(mu, nu, k)
        A = [alpha * N + gamma for N in ns]
        B = [beta * N for N in ns]
        C = [(c2 * N + c1) * N + c0 for N in ns]
        prev, cur = cur, [((A[N] - B[i]) * u - C[N] * w) // D for N, i, u, w
                          in zip(n[:len(cur) - n.count(k)], p, cur, prev)]


def _q_stream(lanes: tuple, spec: ProjectionSpec):
    """Yield (core, scale, (r, s)) for k = 0, 1, ..., spec's k unread: the
    k-th core of qk_project, P + Q - 1 integers a lane over the lanes' den
    times scale = b^k d^k (mu)_k (nu)_k, mu = a/b, nu = c/d; C_k^2 = scale
    r/s.  Each lane's nonzero entries, walked down the antidiagonals N = p +
    q and up p on each, run one _hahn_ladder, and U_k between the counts
    walked before and after N sums to entry N - k.  With L = bd, x0 = L (mu
    + nu +- 1), R(j) = prod_{i<j} (x0 + i L), L^k (mu + nu + k +- 1)_k =
    R(2k)/R(k): r = R(k), s = k! R(2k), running products, no division."""
    (a, b), (c, d) = spec.mu.as_integer_ratio(), spec.nu.as_integer_ratio()
    L, scale, r, s = b * d, 1, 1, 1
    x0 = a * d + c * b + spec.shift * L
    ladders, bounds = [], []
    for lane in lanes:
        rows, (P, Q), counts = lane.tolist(), lane.shape, [0]
        n, p, x = [], [], []  # N = p + q, p and the entry, N going down
        for N in reversed(range(P + Q - 1)):
            for j in range(max(0, N - Q + 1), min(N + 1, P)):
                if value := rows[j][N - j]:
                    n.append(N)
                    p.append(j)
                    x.append(value)
            counts.append(len(x))
        ladders.append(_hahn_ladder(spec.mu, spec.nu, n, p, x))
        bounds.append(list(pairwise(counts))[::-1])  # N = 0, 1, ...
    for k in count():
        yield [[sum(U[i:j]) for i, j in ends[k:]] + [0] * min(k, len(ends))
               for U, ends in zip(map(next, ladders), bounds)], scale, (r, s)
        scale *= (a + k * b) * (c + k * d)
        r *= x0 + k * L
        s *= (k + 1) * (x0 + 2 * k * L) * (x0 + (2 * k + 1) * L)


def q1_iterated(f: PolyFun, n: int,
                convention: str = "corrected_minus_one") -> Projected:
    """Component of f^{(x) n} in the first subleading summand, computed by
    collapsing the leading part of the first n-1 factors and projecting with
    k = 1 against the last.  Identically zero for every f."""
    check_counts(("n", n, 2))
    head = reduce(partial(_gaussian, op=np.convolve), [f._lanes] * (n - 1))
    return _project(*_gaussian(head, f._lanes, np.multiply.outer), f.exact,
                    ProjectionSpec((n - 1) * f.nu, f.nu, 1, convention))


@dataclass(frozen=True)
class CompletenessReport:
    mu: Fraction
    nu: Fraction
    convention: str
    per_k: tuple
    total: Fraction | float
    expected: Fraction | float
    passed: bool


@in_float_range
def completeness_check(f: PolyFun, g: PolyFun,
                       convention: str = "corrected_minus_one"
                       ) -> CompletenessReport:
    """Check sum_k ||Q_k(f (x) g)||^2 = ||f||^2 ||g||^2 over every component,
    k = 0..deg f + deg g, in one pass of _q_stream.  Each mass is one
    Fraction off the core lanes and the stream's scale and C^2, which
    qk_project and ProjectionSpec.c_squared read too, summed over their lcm;
    float input is checked exactly and its report rounded once."""
    spec = ProjectionSpec(f.nu, g.nu, 0, convention)
    lanes, den = _gaussian(f._lanes, g._lanes, np.multiply.outer)
    top = f.degree + g.degree
    table, A, B = _factorials(f.nu + g.nu, top + 1)  # m! B^m
    masses = []
    for k, (core, scale, (r, s)) in enumerate(islice(_q_stream(lanes, spec),
                                                     top + 1)):
        sq = map(sum, zip(*(map(mul, x, x) for x in core))) if core[1:] \
            else map(mul, core[0], core[0])  # |core|^2, a lone lane as it is
        # at weight mu + nu + 2k = (A + 2kB)/B; C^2/scale^2 = r/(scale s)
        num, w_den = _weighted_sum(sq, table[:top - k + 1], A + 2 * k * B, B)
        masses.append(Fraction(num * r, den * den * scale * s * w_den))
    L = math.lcm(*(x.denominator for x in masses))  # normalised once
    total = Fraction(sum(L // x.denominator * x.numerator for x in masses), L)
    expected = math.prod(product_norm2([h._lanes], h.nu) for h in (f, g))
    passed = total == expected
    if not (f.exact and g.exact):  # rounded once
        *masses, total, expected = map(float, (*masses, total, expected))
    return CompletenessReport(f.nu, g.nu, convention, tuple(masses),
                              total, expected, passed)


# ---------------------------------------------------------------------------
# Wehrl inequality, improved form, kernels.

@in_float_range
def wehrl_check(f: PolyFun, n: int) -> tuple[float, float, float]:
    """lhs = ||f^n||^2 at weight n*nu, rhs = ||f||^{2n}; slack = rhs - lhs."""
    check_counts(("n", n, 1))
    lhs, rhs = product_norm2([f] * n, n * f.nu), norm2_exact(f) ** n
    return float(lhs), float(rhs), float(rhs - lhs)


@dataclass(frozen=True)
class ImprovedReport:
    nu: Fraction
    n: int
    convention: str
    lhs: float
    rhs: float
    remainder: float
    slack: float          # rhs - lhs - remainder
    passed: bool
    exact_slack: Fraction


@in_float_range
def improved_check(f: PolyFun, n: int, convention: str = "sharp"
                   ) -> ImprovedReport:
    """Check ||f^n||^2_{n nu} + R(f) <= ||f||^{2n}_nu with the remainder

        R(f) = const(nu) * || (f'' f / (nu)_2 - (f')^2 / nu^2) f^{n-2} ||^2

    at weight n*nu + 4 and const(nu) = 4 C^2 of the k = 2 projection at
    (nu, nu).  convention "sharp" takes the norm-preserving C^2, const =
    2 nu^2 (nu+1)^2 / ((2 nu + 1)(2 nu + 2)); "paper" takes the paper's, with
    the larger denominator (2 nu + 3)(2 nu + 4), a weaker but still valid
    remainder.  Every value is exact, float input at its dyadic values; the
    report holds each one rounded once, and passed is the exact sign.
    """
    check_counts(("n", n, 2))
    projection = {"sharp": "corrected_minus_one", "paper": "paper_plus_one"}
    if convention not in projection:
        raise ValueError(f"unknown remainder convention {convention!r}")
    nu = f.nu
    const = 4 * ProjectionSpec(nu, nu, 2, projection[convention]).c_squared()
    # g = b^2 [a f'' f - (a + b) f'^2] / (a^2 (a + b)) from z f', z^2 f''
    a, b, (lanes, den) = nu.numerator, nu.denominator, f._lanes
    m = np.arange(f.degree + 1).astype(object)
    d1 = tuple(x * m for x in lanes), den  # z f'
    d2f, d1d1 = (_gaussian(x, y, np.convolve) for x, y in (  # z^2 f'' f, d1^2
        ((tuple(x * (m - 1) for x in d1[0]), den), f._lanes), (d1, d1)))
    g = (tuple(b * b * (a * x - (a + b) * y)[min(2, 2 * f.degree):]
               for x, y in zip(d2f[0], d1d1[0])), d2f[1] * a * a * (a + b))
    remainder = const * product_norm2([f._lanes] * (n - 2) + [g], n * nu + 4)
    lhs = product_norm2([f._lanes] * n, n * nu)
    rhs = product_norm2([f._lanes], nu) ** n
    slack = rhs - lhs - remainder
    return ImprovedReport(nu, n, convention, float(lhs), float(rhs),
                          float(remainder), float(slack), slack >= 0, slack)


@dataclass(frozen=True)
class KernelFun:
    """Truncated reproducing kernel K_w(z) = (1 - z conj(w))^{-nu}."""

    nu: Fraction
    w: int | Fraction | complex
    degree: int

    def __post_init__(self):
        check_counts(("degree", self.degree, 0))
        self.__dict__.update(nu=check_weight("nu", self.nu),
                             w=check_number("w", self.w))
        # exact where abs(w) can overflow, else on the float tail_bound reads
        if not (abs(self.w.real) < 1 and float(abs(self.w)) < 1):
            raise OutsideBergman("kernel parameter must satisfy |w| < 1")

    def to_polyfun(self) -> PolyFun:
        wbar, exact = self.w.conjugate(), type(self.w) is not complex
        return PolyFun(self.nu, tuple(
            a * wbar ** m for m, a in enumerate(
                _rising_over_factorial(self.nu, self.degree + 1, exact))))

    @in_float_range
    def tail_bound(self) -> float:
        """An upper bound, at most twice the true value, on the squared-norm
        mass sum_{m > degree} |(nu)_m|/m! |w|^{2m} beyond the truncation, or
        5e-324 (no factor 2 then) where that mass is positive but below floats.

        Where the kept terms past m = 0 hold at most 3/4 of the whole mass
        past m = 0, (1 - |w|^2)^(-nu) - 1, nu > 0 (so wherever the kept terms
        hold at most 1/4 of the whole), it is the difference.  Else terms are
        summed: past m = -nu the ratio |nu+m|/(m+1) |w|^2 tends to |w|^2
        monotonically, so rho = max(ratio, |w|^2) bounds every later ratio
        and term/(1 - rho) the rest once rho < 1, until rho <= 1/2, that rest
        is at most the sum so far, or 1 - rho >= (1 - |w|^2)/2 at nu >= 1,
        where no ratio is below |w|^2.  A term is a float times 2^e, never out
        of range, and so are the whole mass and the kept terms, scaled by 2^-s
        alike; a sum past 2^1024 is refused at once.  |w|^2 and rho are exact.
        A factor 1 + 2^-30 covers the float steps (below 2^-40 to degree
        10^5); the result is rounded up once.
        """
        nu, m, nu_f = self.nu, self.degree + 1, float(self.nu)
        q = 1 - (r := Fraction(self.w.real) ** 2 + Fraction(self.w.imag) ** 2)
        term, e, terms, r2 = 1.0, 0, [], float(r)  # c_k |w|^2k = term 2^e
        for k in range(m):  # terms: k = 1..m, the last one dropped
            term, de = math.frexp(term * abs(nu_f + k) / (k + 1) * r2)
            terms.append((term, e := e + de))
        total = 0.0
        # ln q to a few ulps, so rest is good to 2^-40 at any nu, not nu ulps
        ln_q = math.log(float(q)) if q <= 0.5 else math.log1p(-float(r))
        if nu > 0:  # the whole mass is e^x = 2^b, at most 2^1023 once scaled
            b = (x := -nu_f * ln_q) / math.log(2)
            s = max(0, math.ceil(b) - 1023)
            rest = math.pow(2, b - s) if s else math.expm1(x)
            kept = math.fsum(math.ldexp(t, k - s) for t, k in terms[:-1])
            if kept <= 0.75 * rest:
                total, term, e = rest - kept, 0.0, s
        while term and math.frexp(total + term)[1] + e <= 1024:
            ratio = abs(nu + m) / (m + 1) * r
            rho = max(ratio, r)
            if rho < 1 and m > -nu and (
                    rho <= 0.5 or term / float(1 - rho) <= total
                    or nu >= 1 and 1 - rho >= q / 2):
                total, term = total + term / float(1 - rho), 0.0
            else:
                total, term, m = total + term, term * float(ratio), m + 1
        if total + term and math.frexp(total + term)[1] + e > 1024:
            raise OverflowError("math range error")  # a sum past 2^1024
        bound = Fraction(total * (1 + 2 ** -30)) * Fraction(2) ** e
        y = y if (y := float(bound)) >= bound else math.nextafter(y, math.inf)
        zero = not r or nu.denominator == 1 and -self.degree <= nu <= 0
        return y if zero else max(y, 5e-324)


@in_float_range
def ode_solve(nu, c, degree: int) -> PolyFun:
    """Power-series solution of f'' f = ((nu+1)/nu) (f')^2, f(0)=1, f'(0)=c.

    The recursion from the series relation gives degree + 1 coefficients,
    those of KernelFun(nu, w, degree) with conj(w) = c/nu, the parameter
    matching the initial slope.  Raises OutsideBergman for |c| >= nu.
    """
    nu = check_weight("nu", nu)
    check_counts(("degree", degree, 0))
    rational = type(c := check_number("c", c)) is not complex
    if abs(c) >= nu:  # exact on exact c
        raise OutsideBergman(f"|c| = {abs(c)} >= nu = {nu}")
    rho = (nu + 1) / nu if rational else float((nu + 1) / nu)
    a = [Fraction(1) if rational else 1.0 + 0j, c]
    for m in range(degree - 1):
        rhs = rho * sum((i + 1) * (m - i + 1) * a[i + 1] * a[m - i + 1]
                        for i in range(m + 1))
        rhs -= sum((i + 2) * (i + 1) * a[i + 2] * a[m - i] for i in range(m))
        a.append(rhs / ((m + 2) * (m + 1)))
    return PolyFun(nu, tuple(a[:degree + 1]))


# ---------------------------------------------------------------------------
# Maximizer search on the coefficient sphere.

# _ascend's (s, y) pairs kept, most steps, stopping gradient/objective
_LBFGS_MEMORY, _MAX_ITERS, _GRAD_TOL = 8, 40000, 5e-6
_HALVINGS = [0.5 ** i for i in range(60)]  # steps of both backtracking loops
# Longest product n degree convolved directly, not by FFT (measured: README)
_DIRECT_LENGTH = 512
_SMOOTH = (1, 3, 5, 9, 15)  # FFT lengths m 2^j: at most 1.25x the product's


def _objective_and_gradient(x: np.ndarray, n: int, root: np.ndarray,
                            scale: np.ndarray, H: np.ndarray):
    """Phi(x) = ||f^n||^2_{n nu} and the Wirtinger gradient d Phi / d conj(x)
    for unit x of orthonormal coefficients, x and gradient as real views,
    root = sqrt(h), scale = n / root; by FFTs longer than c^n past
    _DIRECT_LENGTH, so that their cyclic products do not wrap."""
    c = x.view(complex) / root
    if len(H) - 1 <= _DIRECT_LENGTH:
        A = reduce(np.convolve, [c] * (n - 1))  # c^{n-1}
        b = np.convolve(A, c)
        grad = np.correlate(H * b, A, "valid")
    else:
        size = min(m << ((len(H) - 1) // m).bit_length() for m in _SMOOTH)
        C = np.fft.fft(c, size)
        A = C ** (n - 1)
        b = np.fft.ifft(A * C)[:len(H)]
        grad = np.fft.ifft(np.fft.fft(H * b, size) * A.conj())[:len(c)]
    return float((H * np.abs(b) ** 2).sum()), (scale * grad).view(float)


def _lbfgs_direction(S: np.ndarray, Y: np.ndarray, t: np.ndarray):
    """L-BFGS inverse Hessian times t for the pairs in the rows of S and Y
    (oldest first, s.y > 0) in the compact form of Byrd, Nocedal and
    Schnabel (1994): gamma r + S^T R^-T (diag(SY) p - gamma Y r) with SY =
    S Y^T, R = triu(SY), p = R^-1 S t, r = t - Y^T p, gamma of the newest;
    R^-1 and R^-T by substitution on Python floats (diagonal s.y > 0)."""
    SY, gamma = S @ Y.T, (S[-1] @ Y[-1]) / (Y[-1] @ Y[-1])
    R, k, p = SY.tolist(), len(S), (S @ t).tolist()
    for i in reversed(range(k)):  # R p = S t
        for j in range(i + 1, k):
            p[i] -= R[i][j] * p[j]
        p[i] /= R[i][i]
    r = t - np.dot(p, Y)
    q = (SY.diagonal() * p - gamma * (Y @ r)).tolist()
    for i in range(k):  # R^T q = diag(SY) p - gamma Y r, in place
        for j in range(i):
            q[i] -= R[j][i] * q[j]
        q[i] /= R[i][i]
    return gamma * r + np.dot(q, S)


@in_float_range
@np.errstate(over="raise", divide="ignore")  # overflow: FloatRangeExceeded
def _coherent_fit(charts: Sequence[np.ndarray], kappa2: np.ndarray,
                  radius: float) -> float:
    """Distance min_c |x - c k| from the unit vector x, given in each chart's
    coordinates, to one coherent ray k = (kappa_i zeta^i)_i, |zeta| < radius:
    Newton on L = log|g|^2 - log N, g = <x, k>, N = |k|^2, with c = L_zbar =
    conj(g'/g) - zeta phi, A = L_{zeta zbar} = -(r phi)', B = L_{zbar zbar} =
    conj((g'/g)') - zeta^2 phi', phi = N'/N in r = |zeta|^2, from the best
    start: the grid's best, on isqrt(len) + 2 rings of len angles, and x_1
    kappa_0 / (kappa_1 x_0); a climb by c/|A| where L is not concave, steps
    halved until L does not fall.  A Newton step below 1e-8 (1 + |zeta|),
    or one along which L can only stay equal, returns the residual at
    zeta + step; else NoConvergence.  So the value bounds the distance to
    the rays from above (far from them the ascent can stop at a local
    maximum); it is exact on translates and near-kernels."""
    top = math.frexp(kappa2.max())[1]  # 2^(top - 1) <= max kappa2 < 2^top
    # No value of the fit moves under the exact kappa2 / 4^e, unless a value
    # turns subnormal: the largest entry drops below 2^1000, so N'' stays
    # finite near |zeta| = 1 (to m = 1029 on SU(2)).
    kappa2 = kappa2 / 4.0 ** max(0, (top - 999) // 2)
    nc, reach, n = kappa2[::-1], min(radius, 1.0), len(kappa2)
    ratio = math.sqrt(kappa2[1] / kappa2[0]) if n > 1 else 0.0
    i = np.arange(n - 1, 0, -1)  # np.polyder(nc, 2) also forms N''',
    n1, n2 = nc[:-1] * i, nc[:-2] * i[:-1] * i[1:]  # past 1e308 from m = 1003
    # Rings reach (j + 1/2) / R, R = isqrt(n) + 2, resolve the overlap's peak
    # (about n^-1/2 wide); g on a ring's n angles is one inverse FFT.
    rho = reach * (np.arange(math.isqrt(n) + 2) + 0.5) / (math.isqrt(n) + 2)
    grid = rho * np.exp(2j * np.pi / n * np.arange(n))[:, None]
    rows = np.sqrt(kappa2)[:, None] * rho ** np.arange(n)[:, None]
    N = np.square(rows).sum(axis=0)  # |k|^2 on each ring

    def log_overlap(gc, z):
        return np.log(np.abs(np.polyval(gc, z)) ** 2
                      / np.polyval(nc, np.abs(z) ** 2))

    L = None
    for x in charts:
        ring = np.abs(np.fft.ifft(np.conj(x)[:, None] * rows, axis=0)) ** 2
        starts = grid.flat[[np.argmax(ring / N)]]  # ring = |g|^2 / n^2
        if len(x) > 1 and abs(x[1]) < reach * ratio * abs(x[0]):
            starts = np.append(starts, x[1] / (ratio * x[0]))  # exact on rays
        gc_x = (np.conj(x) * np.sqrt(kappa2))[::-1]
        values = log_overlap(gc_x, starts)
        if L is None or values.max() > L:
            L, x_fit, gc, z = values.max(), x, gc_x, starts[values.argmax()]
    g1, g2 = gc[:-1] * i, gc[:-2] * i[:-1] * i[1:]
    for _ in range(100):
        g = np.polyval(gc, z)
        dg, ddg = np.polyval(g1, z) / g, np.polyval(g2, z) / g
        r = abs(z) ** 2
        phi = np.polyval(n1, r) / np.polyval(nc, r)
        dphi = np.polyval(n2, r) / np.polyval(nc, r) - phi * phi
        c = np.conj(dg) - phi * z
        A, B = -(phi + r * dphi), np.conj(ddg - dg * dg) - z * z * dphi
        det = A * A - abs(B) ** 2
        newton = A < 0 and det > 0
        step = ((B * np.conj(c) - A * c) / det if newton
                else c / (abs(A) or 1.0))  # else climb, uphill at any A
        if abs(step) <= 1e-8 * (1 + abs(z)):
            if newton or not B:  # c = A = B = 0 where x has one entry
                break
            step = np.sqrt(B / abs(B))  # a saddle: L is convex along it
        for t in _HALVINGS:
            z_new = z + t * step
            if abs(z_new) < radius:
                L_new = log_overlap(gc, z_new)
                if L_new >= L:
                    break
        else:
            raise NoConvergence(f"coherent fit: no ascent in 60 halvings at "
                                f"{complex(z):.6g}", "line_search_exhausted")
        if newton and L_new == L:  # L no longer resolves the Newton step
            break
        z, L = z_new, L_new
    else:
        raise NoConvergence(f"coherent fit: no Newton step below 1e-8 in 100 "
                            f"steps (zeta = {complex(z):.6g})", "max_iterations")
    k = np.sqrt(kappa2) * (z + step) ** np.arange(len(kappa2))
    return float(np.linalg.norm(x_fit - np.vdot(k, x_fit) / np.vdot(k, k) * k))


@dataclass(frozen=True)
class MaximizeResult:
    objective: float
    kernel_distance: float
    iterations: int
    grad_norm: float
    stop_reason: str  # "gradient_tolerance": |tangent| < _GRAD_TOL objective


def _ascend(objective_and_gradient, x: np.ndarray) -> tuple:
    """Monotone L-BFGS ascent of (phi, gradient) = objective_and_gradient(x)
    on the unit sphere from the unit real x: _lbfgs_direction over the last
    _LBFGS_MEMORY pairs (step, change of negated tangent gradient), s.y > 0,
    projected onto each new tangent space; steps retract by normalising, and
    Armijo backtracking from t = 1 never lowers phi.  Returns (x, phi,
    iterations, |tangent|) once |tangent| < _GRAD_TOL phi; else NoConvergence:
    "line_search_exhausted" (no ascent in 60 halvings), "zero_step" (the step
    rounds back to x, as would all later ones) or "max_iterations"."""
    phi, g = objective_and_gradient(x)
    S, Y = hist = np.empty((2, _LBFGS_MEMORY + 1, x.size))
    k = 0  # the first k rows of S, Y: pairs, oldest first
    for it in range(_MAX_ITERS + 1):
        tangent = g - (x @ g) * x
        gnorm = math.sqrt(tangent @ tangent)
        if gnorm < _GRAD_TOL * phi:
            return x, phi, it, gnorm
        if it == _MAX_ITERS:
            raise NoConvergence(f"tangent gradient {gnorm:.2e} >= {_GRAD_TOL}"
                                f" x objective {phi:.2e} after {it} "
                                f"iterations", "max_iterations")
        d = _lbfgs_direction(S[:k], Y[:k], tangent) if k else tangent
        slope = tangent @ d
        if not slope > 0:  # no ascent: fall back to the tangent gradient
            d, slope = tangent, gnorm ** 2
        for t in _HALVINGS:
            x_new = x + t * d
            x_new /= math.sqrt(x_new @ x_new)
            phi_new, g_new = objective_and_gradient(x_new)
            if phi_new >= phi + 1e-4 * t * slope:
                break
        else:
            raise NoConvergence(
                f"line search found no ascent in 60 halvings at iteration "
                f"{it} (tangent gradient {gnorm:.2e}, objective {phi:.2e})",
                "line_search_exhausted")
        if (x_new == x).all():  # and so would every later step
            raise NoConvergence(f"the step accepted at iteration {it} leaves "
                                f"x unchanged (objective {phi:.2e})", "zero_step")
        S[k], Y[k] = x_new - x, tangent - g_new
        hist[:, :k + 1] -= (hist[:, :k + 1] @ x_new)[..., None] * x_new
        keep = (S[:k + 1] * Y[:k + 1]).sum(axis=1) > 0
        pairs = hist[:, :k + 1][:, keep][:, -_LBFGS_MEMORY:]
        k = pairs.shape[1]
        hist[:, :k] = pairs
        x, phi, g = x_new, phi_new, g_new


def maximize_wehrl(nu, n: int, degree: int, seed: int = 0) -> MaximizeResult:
    """_ascend of ||f^n||^2_{n nu} on the unit sphere of orthonormal truncated
    coefficients from a seeded Gaussian start; the sup is 1 (up to truncation)
    on the kernels, coherent vectors of kappa^2 = (nu)_m/m! = 1/h (the fit)."""
    if (nu := check_weight("nu", nu)) <= 1:
        raise ValueError(f"weight nu must exceed 1, got {nu}")
    check_counts(("n", n, 2), ("degree", degree, 4), ("seed", seed, 0))
    h, H = (np.array(_weights(k * nu, k * degree + 1)) for k in (1, n))
    weights = n, np.sqrt(h), n / np.sqrt(h), H
    rng = np.random.default_rng(seed)
    x = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
    x, phi, it, gnorm = _ascend(lambda x: _objective_and_gradient(
        x, *weights), x.view(float) / np.linalg.norm(x))
    return MaximizeResult(phi, _coherent_fit([x.view(complex)], 1 / h, 1.0),
                          it, gnorm, "gradient_tolerance")
