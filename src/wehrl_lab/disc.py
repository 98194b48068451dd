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
projections are exact; float input reads its results rounded once.
Weighted norms of products, the SU(2) masses too, go through product_norm2.
One Hahn ladder on Python ints per coefficient lane gives every projection;
exact completeness at degree 64 takes 0.15 s on 2 x86-64 vCPUs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce, wraps
from itertools import count, islice, repeat
from operator import mul
from typing import Sequence

import numpy as np

from .exactnum import (QC, FloatRangeExceeded, NonIntegrable, gauss_jacobi,
                       rising_ints)

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

def _lanes_of(flat: list, shape: tuple) -> tuple:
    """((lanes, den), True) of coefficients listed in C order if every entry
    is an int, Fraction or QC; else (an array of complex(c) each, False), and
    ValueError on one that is not finite."""
    if all(isinstance(c, (QC, int, Fraction)) for c in flat):
        return _ratio_lanes([(c.re, c.im) if isinstance(c, QC) else (c, 0)
                             for c in flat], shape), True
    flat = [complex(c) for c in flat]
    if bad := [c for c in flat if not cmath.isfinite(c)]:
        raise ValueError(f"coefficient {bad[0]} is not finite")
    return np.array(flat, dtype=complex) + 0.0, False  # -0.0 read as 0.0


def _ratio_lanes(pairs: list, shape: tuple) -> tuple:
    """(lanes, den) of rational (re, im) pairs in C order, den their lcm."""
    ratios = [[x.as_integer_ratio() for x in part] for part in zip(*pairs)]
    den = math.lcm(*(d for part in ratios for _, d in part))
    parts = [[x * (den // d) for x, d in part] for part in ratios] or [[]]
    parts = parts if any(parts[-1]) else parts[:1]
    return tuple(np.array(x, dtype=object).reshape(shape)
                 for x in parts), den


def _in_float_range(read):
    """read, raising FloatRangeExceeded where rounding an exact value past
    the float range raises a bare OverflowError; it wraps every function
    that returns exact coefficients or norms as floats."""
    @wraps(read)
    def checked(*args, **kwargs):
        try:
            return read(*args, **kwargs)
        except OverflowError as exc:
            raise FloatRangeExceeded(f"{read.__name__}: a value exceeds the"
                                     f" float limit 1.8e308 ({exc})") from None
    return checked


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
    (a, da), (b, db) = f._lanes, g._lanes
    return _from_lanes(cls, weights, _gaussian(a, b, op), da * db,
                       f.exact and g.exact)


def _gaussian(a: tuple, b: tuple, op) -> tuple:
    """Lanes of (a0 + i a1)(b0 + i b1) for a bilinear op on lanes."""
    out = [None, None]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            t = op(x, y) if i + j < 2 else -op(x, y)
            r = (i + j) % 2
            out[r] = t if out[r] is None else out[r] + t
    return tuple(lane for lane in out if lane is not None)


def _rising_pair(nu, count: int) -> tuple:
    """(f, r), f[m] = m! b^m and r[m] = b^m (nu)_m for m < count at nu = a/b:
    |f/r| = |m!/(nu)_m|.  ValueError where one of these (nu)_m vanishes."""
    a, b = Fraction(nu).as_integer_ratio()
    f, r = rising_ints(b, b, count - 1), rising_ints(a, b, count - 1)
    if not r[-1]:
        raise ValueError(f"(nu)_m vanishes at nu = {Fraction(a, b)} for some "
                         f"m < {count}")
    return f, r


def _rising_over_factorial(nu, count: int, exact: bool) -> list:
    """(nu)_m/m! = 1/weight for m < count, exact or correctly rounded."""
    return [abs(Fraction(y, x) if exact else y / x)
            for x, y in zip(*_rising_pair(nu, count))]


def _weighted_sum(sq, table: list, a: int, b: int) -> tuple:
    """(num, den), num/den = sum_{m<=M} sq[m] |m!/(a/b)_m| for table[m] = m!
    b^m, M = len(table) - 1: one Horner pass, den = prod_{i<M} |a + i b|."""
    factors, acc = [abs(x) for x in range(a, a + (len(table) - 1) * b, b)], 0
    for s, t, y in zip(sq, table, [1, *factors]):
        acc = acc * y + s * t
    return acc, math.prod(factors)


class PolyFun:
    """Polynomial f(z) = sum c_m z^m viewed as an element of H_nu."""

    def __init__(self, nu, coeffs: Sequence = (1,)):
        self.nu = Fraction(nu)
        if self.nu <= 1:
            raise ValueError(f"weight nu must exceed 1, got {self.nu}")
        if len(coeffs) == 0:
            raise ValueError("PolyFun got the empty coefficient list")
        values, self.exact = _lanes_of(list(coeffs), (-1,))
        setattr(self, "_lanes" if self.exact else "_view", values)

    @cached_property
    def _lanes(self) -> tuple:  # a float input's, on its first exact read
        return _ratio_lanes([(c.real, c.imag) for c in self._view.tolist()],
                            (-1,))

    @cached_property
    def coeffs(self) -> tuple:
        return tuple(_values(self) if self.exact
                     else self.as_complex_array().tolist())

    @property
    def degree(self) -> int:
        view = vars(self).get("_view")  # a float input's lanes may not exist
        return len(self._lanes[0][0] if view is None else view) - 1

    @_in_float_range
    def as_complex_array(self) -> np.ndarray:
        """The coefficients rounded once, one read-only array per object."""
        if "_view" not in vars(self):
            self._view = _rounded(*self._lanes)
        self._view.flags.writeable = False  # a float input's own values too
        return self._view

    def __mul__(self, other: "PolyFun") -> "PolyFun":
        # Product lands in the sum of the weights; degrees add, no truncation.
        return _product(PolyFun, (self.nu + other.nu,), self, other,
                        np.convolve)

    def power(self, n: int) -> "PolyFun":
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def scale(self, s) -> "PolyFun":
        return _product(PolyFun, (self.nu,), self, PolyFun(self.nu, (s,)),
                        np.multiply)


def product_norm2(factors: Sequence, nu) -> Fraction | float:
    """sum_k |k!/(nu)_k| |[p]_k|^2 for p the product of the factors (PolyFun,
    whose own weight is ignored, exact (lanes, den) pairs or complex arrays):
    _weighted_sum on the lanes when no factor is a float PolyFun or array,
    else in complex128.  At nu = -deg p the weights are 1/binom(deg p, k)."""
    if all(isinstance(f, tuple) or isinstance(f, PolyFun) and f.exact
           for f in factors):
        lanes, den = (np.ones(1, dtype=object),), 1
        for b, db in (getattr(f, "_lanes", f) for f in factors):
            lanes, den = _gaussian(lanes, b, np.convolve), den * db
        num, w_den = _weighted_sum(sum(x * x for x in lanes).tolist(),
                                   _rising_pair(nu, len(lanes[0]))[0],
                                   *Fraction(nu).as_integer_ratio())
        return Fraction(num, den * den * w_den)
    p = np.ones(1, dtype=complex)
    for f in factors:
        p = np.convolve(p, f.as_complex_array() if isinstance(f, PolyFun)
                        else f)
    try:
        total = math.fsum(abs(x) ** 2 * abs(y / z) for x, y, z in
                          zip(p.tolist(), *_rising_pair(nu, len(p))))
        if math.isfinite(total):
            return total
    except OverflowError:
        pass
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


def norm_p_numeric(f: PolyFun, p: int) -> float:
    """Quadrature of the L^p integral, normalized to match the doubled-weight
    L^2 norm: returns (p*nu/2 - 1) * (1/pi) int |f|^p (1-|z|^2)^{p nu/2 - 2} dm,
    so that for even p it equals ||f^{p/2}||^2 at weight p*nu/2."""
    if p % 2 != 0 or p < 2:
        raise ValueError("p must be a positive even integer")
    return _finite(float(p * f.nu / 2 - 1) * matrix_coeff_lp(f, p // 2))


def matrix_coeff_lp(f: PolyFun, n: int) -> float:
    """(1/pi) int_D (1-|z|^2)^{n nu - 2} |f(z)|^{2n} dm(z), the L^{2n}(G)
    integral of the matrix coefficient against the lowest weight vector.
    Equals ||f^n||^2 at weight n*nu divided by (n*nu - 1)."""
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
        self.mu, self.nu = Fraction(mu), Fraction(nu)
        width = max(map(len, coeffs), default=0)
        if width == 0:
            raise ValueError(f"TensorPoly got no coefficients: {coeffs!r}")
        lanes, self.exact = _lanes_of(
            [c for row in coeffs for c in (*row, *[0] * (width - len(row)))],
            (len(coeffs), width))
        self._lanes = lanes if self.exact else _ratio_lanes(
            [(c.real, c.imag) for c in lanes.tolist()], (len(coeffs), width))

    @cached_property
    @_in_float_range
    def coeffs(self) -> tuple:
        return tuple(map(tuple, _values(self)))

    @staticmethod
    def from_product(f: PolyFun, g: PolyFun) -> "TensorPoly":
        return _product(TensorPoly, (f.nu, g.nu), f, g, np.multiply.outer)

    @_in_float_range
    def norm2(self) -> Fraction | float:
        (lanes, den), (P, Q) = self._lanes, self._lanes[0][0].shape
        table, nu = _rising_pair(self.nu, Q)[0], self.nu.as_integer_ratio()
        rows = [_weighted_sum(sq, table, *nu)  # each row at nu, then at mu
                for sq in sum(x * x for x in lanes).tolist()]
        num, mu_den = _weighted_sum([x for x, _ in rows], _rising_pair(
            self.mu, P)[0], *self.mu.as_integer_ratio())
        norm2 = Fraction(num, den * den * mu_den * rows[0][1])
        return norm2 if self.exact else float(norm2)


@dataclass(frozen=True)
class ProjectionSpec:
    mu: Fraction
    nu: Fraction
    k: int
    constant_convention: str = "corrected_minus_one"

    def __post_init__(self):
        object.__setattr__(self, "mu", Fraction(self.mu))
        object.__setattr__(self, "nu", Fraction(self.nu))
        if self.k < 0 or min(self.mu, self.nu) <= 1:
            raise ValueError(f"a projection needs k >= 0 and mu, nu > 1, got "
                             f"k = {self.k}, mu = {self.mu}, nu = {self.nu}")
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
    spec: ProjectionSpec

    @_in_float_range
    def norm2(self) -> Fraction | float:
        """C^2 ||core||^2, rounded once when the core is read in floats."""
        norm2 = self.c2 * product_norm2([self.core._lanes], self.core.nu)
        return norm2 if self.core.exact else float(norm2)


def qk_project(F: TensorPoly, spec: ProjectionSpec) -> Projected:
    """Project F in H_mu (x) H_nu onto the H_{mu+nu+2k} component via

        C * sum_j (-1)^j binom(k,j) / ((mu)_j (nu)_{k-j})
              d_z^j d_w^{k-j} F |_{z=w}.

    On z^p w^q the sum is W_k(p,q)/E z^{p+q-k} (_core_ladder): e_j/E are the
    weights in lowest terms, W_k = sum_j e_j perm(p,j) perm(q,k-j) integers.
    Float F projects its exact values, and its core is read rounded once.
    """
    if (F.mu, F.nu) != (spec.mu, spec.nu):
        raise ValueError(f"tensor weights (mu, nu) = ({F.mu}, {F.nu}) differ "
                         f"from the projection's ({spec.mu}, {spec.nu})")
    return _project(*F._lanes, F.exact, spec)


def _project(lanes: tuple, den: int, exact: bool, spec) -> Projected:
    """qk_project on tensor lanes over den, read exactly when exact is."""
    core, scale, (r, s) = next(islice(_q_stream(lanes, spec), spec.k, None))
    core = _from_lanes(PolyFun, (spec.mu + spec.nu + 2 * spec.k,), tuple(
        np.array(core, dtype=object)), den * scale, exact)
    return Projected(core, Fraction(scale * r, s), spec)


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


def _core_ladder(lanes: tuple, mu: Fraction, nu: Fraction):
    """Yield the k-th core of qk_project for k = 0, 1, ...: one list per
    lane, P + Q - 1 long, of integers over the den of the integer tensor
    lanes a[p, q] times _q_stream's scale.  Each lane runs one _hahn_ladder
    on its nonzero entries, and antidiagonal n sums to entry n - k."""
    p, q = np.indices(lanes[0].shape).reshape(2, -1)
    p, n = np.array((p, p + q))[:, np.lexsort((p, -p - q))]  # n down, then p
    width, ladders, bounds = sum(lanes[0].shape) - 1, [], []
    for lane in lanes:
        keep = lane[p, n - p] != 0
        ladders.append(_hahn_ladder(mu, nu, *(v[keep].tolist() for v in (
            n, p, lane[p, n - p]))))
        # antidiagonal N of U_k is U_k[i:j]: i entries have n > N, j n >= N
        i, j = (np.searchsorted(-n[keep], -np.arange(width), side).tolist()
                for side in ("left", "right"))
        bounds.append(list(zip(i, j)))
    for k, Us in enumerate(zip(*ladders)):
        yield [[sum(U[i:j]) for i, j in b[k:]] + [0] * min(k, width)
               for U, b in zip(Us, bounds)]


def _q_stream(lanes: tuple, spec: ProjectionSpec):
    """Yield (core, scale, (r, s)) for k = 0, 1, ..., spec's k unread: the
    k-th core of _core_ladder (() with no lanes), over the tensor's den
    times scale = b^k d^k (mu)_k (nu)_k at mu = a/b, nu = c/d; C_k^2 =
    scale r/s.  With L = bd, x0 = L (mu + nu +- 1) and R(j) = prod_{i<j} (x0
    + i L), L^k (mu + nu + k +- 1)_k = R(2k)/R(k): r = R(k), s = k! R(2k),
    running products like scale, one small factor each a step, no division."""
    (a, b), (c, d) = spec.mu.as_integer_ratio(), spec.nu.as_integer_ratio()
    L, scale, r, s = b * d, 1, 1, 1
    x0 = a * d + c * b + spec.shift * L
    cores = _core_ladder(lanes, spec.mu, spec.nu) if lanes else repeat(())
    for k, core in enumerate(cores):
        yield core, scale, (r, s)
        scale *= (a + k * b) * (c + k * d)
        r *= x0 + k * L
        s *= (k + 1) * (x0 + 2 * k * L) * (x0 + (2 * k + 1) * L)


def q1_iterated(f: PolyFun, n: int,
                convention: str = "corrected_minus_one") -> Projected:
    """Component of f^{(x) n} in the first subleading summand, computed by
    collapsing the leading part of the first n-1 factors and projecting with
    k = 1 against the last.  Identically zero for every f."""
    if n < 2:
        raise ValueError("n must be >= 2")
    a, da = b, db = f._lanes
    for _ in range(n - 2):  # the head f^{n-1}
        a, da = _gaussian(a, b, np.convolve), da * db
    return _project(_gaussian(a, b, np.multiply.outer), da * db, f.exact,
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


@_in_float_range
def completeness_check(f: PolyFun, g: PolyFun,
                       convention: str = "corrected_minus_one"
                       ) -> CompletenessReport:
    """Check sum_k ||Q_k(f (x) g)||^2 = ||f||^2 ||g||^2 over every component,
    k = 0..deg f + deg g, in one pass of _q_stream.  Each mass is one
    Fraction off the core lanes and the stream's scale and C^2, which
    qk_project and ProjectionSpec.c_squared read too; float input is
    checked exactly, and the masses, total and expected are rounded once."""
    spec = ProjectionSpec(f.nu, g.nu, 0, convention)
    (a, da), (b, db) = f._lanes, g._lanes
    lanes, den = _gaussian(a, b, np.multiply.outer), da * db
    top, (A, B) = f.degree + g.degree, (f.nu + g.nu).as_integer_ratio()
    table = rising_ints(B, B, top)  # m! B^m
    masses = []
    for k, (core, scale, (r, s)) in enumerate(islice(_q_stream(lanes, spec),
                                                     top + 1)):
        sq = map(sum, zip(*(map(mul, x, x) for x in core)))  # |core|^2
        # at weight mu + nu + 2k = (A + 2kB)/B; C^2/scale^2 = r/(scale s)
        num, w_den = _weighted_sum(sq, table[:top - k + 1], A + 2 * k * B, B)
        masses.append(Fraction(num * r, den * den * scale * s * w_den))
    total = sum(masses, Fraction(0))
    expected = product_norm2([(a, da)], f.nu) * product_norm2([(b, db)], g.nu)
    passed = total == expected
    if not (f.exact and g.exact):  # rounded once
        *masses, total, expected = map(float, (*masses, total, expected))
    return CompletenessReport(f.nu, g.nu, convention, tuple(masses),
                              total, expected, passed)


# ---------------------------------------------------------------------------
# Wehrl inequality, improved form, kernels.

@_in_float_range
def wehrl_check(f: PolyFun, n: int) -> tuple[float, float, float]:
    """lhs = ||f^n||^2 at weight n*nu, rhs = ||f||^{2n}; slack = rhs - lhs."""
    if n < 1:
        raise ValueError("n must be >= 1")
    lhs = product_norm2([f] * n, n * f.nu)
    rhs = norm2_exact(f) ** n
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


@_in_float_range
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
    if n < 2:
        raise ValueError("n must be >= 2")
    projection = {"sharp": "corrected_minus_one", "paper": "paper_plus_one"}
    if convention not in projection:
        raise ValueError(f"unknown remainder convention {convention!r}")
    nu = Fraction(f.nu)
    const = 4 * ProjectionSpec(nu, nu, 2, projection[convention]).c_squared()
    # g = b^2 [a f'' f - (a + b) f'^2] / (a^2 (a + b)) from z f', z^2 f''
    a, b, (lanes, den) = nu.numerator, nu.denominator, f._lanes
    m = np.arange(f.degree + 1).astype(object)
    d1 = tuple(x * m for x in lanes)
    d2f = _gaussian(tuple(x * (m - 1) for x in d1), lanes, np.convolve)
    g = (tuple(b * b * (a * x - (a + b) * y)[min(2, 2 * f.degree):]
               for x, y in zip(d2f, _gaussian(d1, d1, np.convolve))),
         den * den * a * a * (a + b))
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
    w: complex
    degree: int

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError(f"kernel degree must be >= 0, got {self.degree}")

    def to_polyfun(self) -> PolyFun:
        if abs(complex(self.w)) >= 1:
            raise OutsideBergman("kernel parameter must satisfy |w| < 1")
        exact = isinstance(self.w, (int, Fraction)) \
            and not isinstance(self.w, bool)
        wbar = Fraction(self.w) if exact else complex(self.w).conjugate()
        return PolyFun(self.nu, tuple(
            a * wbar ** m for m, a in enumerate(
                _rising_over_factorial(self.nu, self.degree + 1, exact))))

    def tail_bound(self) -> float:
        """An upper bound, at most twice the true value, on the squared-norm
        mass sum_{m > degree} (nu)_m/m! |w|^{2m} beyond the truncation.

        The term ratio (nu+m)/(m+1) |w|^2 tends to |w|^2 monotonically, so
        rho = max(ratio, |w|^2) bounds every later ratio and term/(1 - rho)
        bounds the rest once rho < 1.  Terms are summed until rho <= 1/2 or
        that rest is at most the sum so far.
        """
        nu, r2 = float(self.nu), abs(complex(self.w)) ** 2
        if r2 >= 1:
            raise OutsideBergman("kernel parameter must satisfy |w| < 1")
        m = self.degree + 1
        term = _rising_over_factorial(self.nu, m + 1, False)[m] * r2 ** m
        total = 0.0
        while True:
            ratio = (nu + m) / (m + 1) * r2
            rho = max(ratio, r2)
            if rho < 1 and (rho <= 0.5 or term / (1.0 - rho) <= total):
                return total + term / (1.0 - rho)
            total, term, m = total + term, term * ratio, m + 1


def ode_solve(nu, c, degree: int) -> PolyFun:
    """Power-series solution of f'' f = ((nu+1)/nu) (f')^2, f(0)=1, f'(0)=c.

    The recursion from the series relation gives degree + 1 coefficients,
    those of KernelFun(nu, w, degree) with conj(w) = c/nu, the parameter
    matching the initial slope.  Raises OutsideBergman for |c| >= nu.
    """
    nu = Fraction(nu)
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    rational = isinstance(c, (int, Fraction)) and not isinstance(c, bool)
    if abs(complex(c)) >= float(nu):
        raise OutsideBergman(f"|c| = {abs(complex(c))} >= nu = {nu}")
    rho = (nu + 1) / nu if rational else float((nu + 1) / nu)
    a = [Fraction(1), Fraction(c)] if rational else [1.0 + 0j, complex(c)]
    for m in range(degree - 1):
        rhs = rho * sum((i + 1) * (m - i + 1) * a[i + 1] * a[m - i + 1]
                        for i in range(m + 1))
        rhs -= sum((i + 2) * (i + 1) * a[i + 2] * a[m - i] for i in range(m))
        a.append(rhs / ((m + 2) * (m + 1)))
    return PolyFun(nu, tuple(a[:degree + 1]))


# ---------------------------------------------------------------------------
# Maximizer search on the coefficient sphere.

# maximize_wehrl's (s, y) pairs kept, most steps, and stopping tangent gradient
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


def _coherent_fit(charts: Sequence[np.ndarray], kappa2: np.ndarray,
                  radius: float) -> float:
    """Distance min |x - c k| from the unit vector x, given in each chart's
    coordinates, to the coherent rays k = (kappa_i zeta^i)_i, |zeta| <
    radius: Newton on L = log|g|^2 - log N, g = <x, k>, N = |k|^2, with
    L_zbar = conj(g'/g) - zeta phi, L_{zeta zbar} = -(r phi)' and
    L_{zbar zbar} = conj((g'/g)') - zeta^2 phi', phi = N'/N in r = |zeta|^2,
    from the best start on a grid in |zeta| < min(radius, 1) of each chart;
    a gradient step where the Hessian is not negative definite, and steps
    halved until L does not fall.  A Newton step below 1e-8 (1 + |zeta|)
    ends it, returning the residual at zeta + step; else NoConvergence."""
    nc, reach = kappa2[::-1], min(radius, 1.0)
    n1, n2 = np.polyder(nc), np.polyder(nc, 2)
    grid = np.append(0, np.outer([0.3 * reach, 0.6 * reach, 0.9 * reach],
                                 np.exp(0.25j * np.pi * np.arange(8))))

    def log_overlap(gc, z):
        with np.errstate(divide="ignore"):
            return np.log(np.abs(np.polyval(gc, z)) ** 2
                          / np.polyval(nc, np.abs(z) ** 2))

    L = None
    for x in charts:
        starts = grid  # and x_1 / (kappa_1 x_0), exact for a coherent x
        if len(x) > 1 and abs(x[1]) < reach * math.sqrt(kappa2[1]) * abs(x[0]):
            starts = np.append(grid, x[1] / (math.sqrt(kappa2[1]) * x[0]))
        gc_x = (np.conj(x) * np.sqrt(kappa2))[::-1]
        values = log_overlap(gc_x, starts)
        if L is None or values.max() > L:
            L, x_fit, gc, z = values.max(), x, gc_x, starts[values.argmax()]
    g1, g2 = np.polyder(gc), np.polyder(gc, 2)
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
        # c = A = 0 only where x has one entry: every vector is coherent.
        step = ((B * np.conj(c) - A * c) / det if newton
                else c / -A if c else 0.0)
        if (newton or c == 0) and abs(step) <= 1e-8 * (1 + abs(z)):
            k = np.sqrt(kappa2) * (z + step) ** np.arange(len(kappa2))
            return float(np.linalg.norm(
                x_fit - np.vdot(k, x_fit) / np.vdot(k, k) * k))
        for t in _HALVINGS:
            z_new = z + t * step
            if abs(z_new) < radius:
                L_new = log_overlap(gc, z_new)
                if L_new >= L:
                    break
        else:
            raise NoConvergence(f"coherent fit: no ascent in 60 halvings at "
                                f"{complex(z):.6g}", "line_search_exhausted")
        z, L = z_new, L_new
    raise NoConvergence(f"coherent fit: no Newton step below 1e-8 in 100 "
                        f"steps (zeta = {complex(z):.6g})", "max_iterations")


@dataclass(frozen=True)
class MaximizeResult:
    f: PolyFun
    objective: float
    kernel_distance: float
    iterations: int
    grad_norm: float
    stop_reason: str  # "gradient_tolerance": tangent gradient below _GRAD_TOL


def maximize_wehrl(nu, n: int, degree: int, seed: int = 0) -> MaximizeResult:
    """Monotone L-BFGS ascent of ||f^n||^2_{n nu} on the unit sphere of the
    truncated coefficient space; the sup is 1 (up to truncation), on kernels.

    On the real view of x: _lbfgs_direction over the last _LBFGS_MEMORY
    pairs (step, change of the negated tangent gradient) with s.y > 0, all
    projected onto each new tangent space; a step retracts by normalising,
    and Armijo backtracking from t = 1 never lowers the objective.  Stops
    with "gradient_tolerance" once the tangent gradient is below _GRAD_TOL;
    raises NoConvergence with "line_search_exhausted" (60 halvings find no
    ascent) or "max_iterations" (_MAX_ITERS steps).
    """
    if Fraction(nu) <= 1:
        raise ValueError(f"weight nu must exceed 1, got {Fraction(nu)}")
    if degree < 4:
        raise ValueError("degree must be >= 4")
    if n < 2:
        raise ValueError("n must be >= 2")
    # the weights |m!/(nu)_m| at nu and at n nu, each rounded once
    h, H = (np.array([abs(x / y) for x, y in zip(*_rising_pair(
        k * Fraction(nu), k * degree + 1))]) for k in (1, n))
    root = np.sqrt(h)
    weights = n, root, n / root, H
    rng = np.random.default_rng(seed)
    x = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
    x = x.view(float) / np.linalg.norm(x)
    phi, g = _objective_and_gradient(x, *weights)
    S, Y = hist = np.empty((2, _LBFGS_MEMORY + 1, x.size))
    k = 0  # the first k rows of S, Y: pairs, oldest first
    for it in range(_MAX_ITERS + 1):
        tangent = g - (x @ g) * x
        gnorm = math.sqrt(tangent @ tangent)
        if gnorm < _GRAD_TOL:
            break
        if it == _MAX_ITERS:
            raise NoConvergence(f"tangent gradient {gnorm:.2e} >= tol "
                                f"{_GRAD_TOL} after {it} iterations",
                                "max_iterations")
        d = _lbfgs_direction(S[:k], Y[:k], tangent) if k else tangent
        slope = tangent @ d
        if not slope > 0:  # no ascent: fall back to the tangent gradient
            d, slope = tangent, gnorm ** 2
        for t in _HALVINGS:
            x_new = x + t * d
            x_new /= math.sqrt(x_new @ x_new)
            phi_new, g_new = _objective_and_gradient(x_new, *weights)
            if phi_new >= phi + 1e-4 * t * slope:
                break
        else:
            raise NoConvergence(
                f"line search found no ascent in 60 halvings at iteration "
                f"{it} (tangent gradient {gnorm:.2e}, tol {_GRAD_TOL})",
                "line_search_exhausted")
        S[k], Y[k] = x_new - x, tangent - g_new
        hist[:, :k + 1] -= (hist[:, :k + 1] @ x_new)[..., None] * x_new
        keep = (S[:k + 1] * Y[:k + 1]).sum(axis=1) > 0
        pairs = hist[:, :k + 1][:, keep][:, -_LBFGS_MEMORY:]
        k = pairs.shape[1]
        hist[:, :k] = pairs
        x, phi, g = x_new, phi_new, g_new
    # The truncated kernels are the coherent vectors of kappa_m^2 = (nu)_m/m!.
    kappa2 = np.array(_rising_over_factorial(nu, degree + 1, False))
    x = x.view(complex)
    return MaximizeResult(PolyFun(Fraction(nu), tuple(x / root)), phi,
                          _coherent_fit([x], kappa2, 1.0), it, gnorm,
                          "gradient_tolerance")
