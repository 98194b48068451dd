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
denominator (below), or one complex lane for float input, which takes the
same routines.  QC values are built on read of coeffs, Fractions per norm.
Weighted norms of products, the SU(2) masses too, go through product_norm2.
The Hahn ladder runs on Python ints below _INT_LADDER_ENTRIES nonzero
entries; exact completeness at degree 64 takes 0.18 s on 2 x86-64 vCPUs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce, wraps
from itertools import accumulate, count, islice
from operator import add, mul
from typing import Optional, Sequence

import numpy as np

from .exactnum import (QC, FloatRangeExceeded, NonIntegrable, gauss_jacobi,
                       pochhammer, rising_ints)

__all__ = [
    "PolyFun", "TensorPoly", "KernelFun", "ProjectionSpec", "Projected",
    "NonIntegrable", "OutsideBergman", "NoConvergence",
    "norm2_exact", "norm_p_numeric", "qk_project", "q1_iterated",
    "completeness_check", "wehrl_check", "improved_check", "ode_solve",
    "maximize_wehrl", "matrix_coeff_lp", "eval_functional_profile",
    "product_norm2",
]

_INT_LADDER_ENTRIES = 300  # numpy's dispatch outweighs the Hahn steps below


class OutsideBergman(ValueError):
    """Kernel parameter |c| >= nu: the ODE solution leaves the space."""


class NoConvergence(RuntimeError):
    """A solver stopped before its tolerance was met; stop_reason says why."""

    def __init__(self, message: str, stop_reason: str):
        super().__init__(message)
        self.stop_reason = stop_reason


# ---------------------------------------------------------------------------
# (lanes, den), the stored coefficients of PolyFun and TensorPoly: numpy object
# arrays of numerators over den, (re,) or (re, im) of Python ints when exact,
# one lane of Python complex over 1 otherwise.  Python numbers keep ints from
# wrapping and floats rounding as scalar Python arithmetic does.

def _lanes_of(flat: list, shape: tuple) -> tuple:
    """((lanes, den), exact) of coefficients listed in C order: exact iff
    every entry is an int, Fraction or QC; else complex(c) each, over 1."""
    exact = all(isinstance(c, (QC, int, Fraction)) for c in flat)
    if exact:
        pairs = [(c.re, c.im) if isinstance(c, QC) else (c, 0) for c in flat]
        den = math.lcm(*(x.denominator for pair in pairs for x in pair))
        parts = [[x.numerator * (den // x.denominator) for x in part]
                 for part in zip(*pairs)] or [[]]
        parts = parts if any(parts[-1]) else parts[:1]
    else:
        parts, den = ([complex(c) for c in flat],), 1
    return (tuple(np.array(x, dtype=object).reshape(shape)
                  for x in parts), den), exact


def _lanes_as(f, exact: bool) -> tuple:
    """f's (lanes, den), or for exact=False one complex lane over 1 whose
    parts round as float(Fraction(x, den)) does, as complex(QC) would."""
    if exact or not f.exact:
        return f._lanes
    lanes, den = f._lanes
    return (np.frompyfunc(lambda re, im=0: complex(re / den, im / den),
                          len(lanes), 1)(*lanes),), 1


def _from_lanes(cls, weights: tuple, lanes: tuple, den: int, exact: bool):
    """cls(*weights, coeffs) with the coefficients lanes over den; float
    lanes are divided here, complex(x) / den, to one complex lane over 1."""
    if not exact:
        lanes = (np.frompyfunc(lambda x: complex(x) if den == 1
                               else complex(x) / den, 1, 1)(lanes[0]),)
        den = 1
    obj = object.__new__(cls)  # the weights by name, as cls.__init__ sets them
    obj.__dict__.update(zip(("mu", "nu")[-len(weights):], weights))
    obj._lanes, obj.exact = (lanes, den), exact
    return obj


def _values(f) -> list:
    """f's coefficients nested as its lanes: QC when exact, else complex."""
    lanes, den = f._lanes
    if not f.exact:
        return lanes[0].tolist()
    return np.frompyfunc(lambda *xs: QC(*(Fraction(x, den) for x in xs)),
                         len(lanes), 1)(*lanes).tolist()


def _product(cls, weights: tuple, f, g, op):
    """cls(*weights, coeffs) of the product of f and g under a bilinear op
    on lanes, exact only when both factors are."""
    exact = f.exact and g.exact
    (a, da), (b, db) = _lanes_as(f, exact), _lanes_as(g, exact)
    return _from_lanes(cls, weights, _gaussian(a, b, op), da * db, exact)


def _gaussian(a: tuple, b: tuple, op) -> tuple:
    """Lanes of (a0 + i a1)(b0 + i b1) for a bilinear op on lanes."""
    out = [None, None]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            t = op(x, y) if i + j < 2 else -op(x, y)
            r = (i + j) % 2
            out[r] = t if out[r] is None else out[r] + t
    return tuple(lane for lane in out if lane is not None)


def _complex_convolve(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Float lanes convolve in complex128, as numpy does complex input."""
    return np.convolve(x.astype(complex), y.astype(complex)).astype(object)


def _norm_weights(nu: Fraction, count: int, exact: bool) -> tuple:
    """(w, den) with |m!/(nu)_m| = w[m]/den for m < count.  Exact: integers
    over one denominator from suffix products, without divisions.  Float:
    each weight is m! b^m / prod_{i<m} (a + i b), rounded once (nu = a/b).
    At nu = -M and count = M + 1 the weights are 1/binom(M, m)."""
    a, b = nu.numerator, nu.denominator
    if b == 1 and 2 - count <= a <= 0:
        raise ValueError(f"(nu)_m vanishes at nu = {nu} for some m < {count}")
    if not exact:
        w, fact, rising = [], 1, 1
        for m in range(count):
            w.append(abs(fact / rising))
            fact, rising = fact * (m + 1) * b, rising * (a + m * b)
        return w, 1
    # suffix[m] = prod_{m<=i<count-1} (a + i b), from the top factor down
    suffix = rising_ints(a + (count - 2) * b, -b, count - 1)[::-1]
    w, fact = [], 1  # fact = m! b^m
    for m in range(count):
        w.append(abs(fact * suffix[m]))
        fact *= (m + 1) * b
    return w, abs(suffix[0])


def _rising_over_factorial(nu, count: int, exact: bool) -> list:
    """(nu)_m/m! = 1/weight for m < count, exact or correctly rounded."""
    w, den = _norm_weights(Fraction(nu), count, True)
    return [Fraction(den, x) if exact else den / x for x in w]


def _norm2(lanes: tuple, den: int, w: list, w_den: int,
           exact: bool) -> Fraction | float:
    """sum |c|^2 w over the flattened lanes over den, w over w_den."""
    sq = [0] * len(w)
    for lane in lanes:
        sq = [s + abs(x) ** 2 for s, x in zip(sq, lane.ravel().tolist())]
    total = (sum if exact else math.fsum)(s * w_m for s, w_m in zip(sq, w))
    return Fraction(total, den * den * w_den) if exact else total


class PolyFun:
    """Polynomial f(z) = sum c_m z^m viewed as an element of H_nu."""

    def __init__(self, nu, coeffs: Sequence = (1,)):
        self.nu = Fraction(nu)
        if self.nu <= 1:
            raise ValueError(f"weight nu must exceed 1, got {self.nu}")
        if len(coeffs) == 0:
            raise ValueError("PolyFun got the empty coefficient list")
        self._lanes, self.exact = _lanes_of(list(coeffs), (-1,))

    @cached_property
    def coeffs(self) -> tuple:
        return tuple(_values(self))

    def __eq__(self, other):
        return type(other) is PolyFun \
            and (self.nu, self.coeffs) == (other.nu, other.coeffs)

    def __hash__(self):
        return hash((self.nu, self.coeffs))

    @property
    def degree(self) -> int:
        return len(self._lanes[0][0]) - 1

    def as_complex_array(self) -> np.ndarray:
        return _lanes_as(self, False)[0][0].astype(complex)

    def __mul__(self, other: "PolyFun") -> "PolyFun":
        # Product lands in the sum of the weights; degrees add, no truncation.
        conv = np.convolve if self.exact and other.exact else _complex_convolve
        return _product(PolyFun, (self.nu + other.nu,), self, other, conv)

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
    exact on the lanes when no factor is a float PolyFun or array, else in
    complex128.  At nu = -deg p the weights are 1/binom(deg p, k)."""
    if all(isinstance(f, tuple) or isinstance(f, PolyFun) and f.exact
           for f in factors):
        lanes, den = (np.ones(1, dtype=object),), 1
        for b, db in (getattr(f, "_lanes", f) for f in factors):
            lanes, den = _gaussian(lanes, b, np.convolve), den * db
        return _norm2(lanes, den, *_norm_weights(Fraction(nu), len(lanes[0]),
                                                 True), True)
    p = np.ones(1, dtype=complex)
    for f in factors:
        p = np.convolve(p, f.as_complex_array() if isinstance(f, PolyFun)
                        else f)
    try:
        total = _norm2((p,), 1, *_norm_weights(Fraction(nu), len(p), False),
                       False)
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


def _radial_angular_integral(f: PolyFun, power2n: int,
                             weight_exp: float) -> float:
    """(1/pi) int_D |f(z)|^{2n} (1-|z|^2)^{weight_exp} dm(z) with 2n=power2n,
    by Gauss-Jacobi in t=|z|^2 and trigonometric sums in the angle.  The
    integrand has degree n*deg f in the angle, and its angular mean degree
    n*deg f in t."""
    n_ang, n_nodes = _rule_sizes(power2n // 2 * f.degree)
    t, wt = gauss_jacobi(n_nodes, weight_exp, 0.0)
    theta = 2.0 * np.pi * np.arange(n_ang) / n_ang
    z = np.sqrt(t)[:, None] * np.exp(1j * theta)[None, :]
    with np.errstate(over="ignore", invalid="ignore"):  # _finite refuses inf
        vals = np.polyval(f.as_complex_array()[::-1], z)
        ang_avg = np.mean(np.abs(vals) ** power2n, axis=1)
        return _finite(float(np.sum(wt * ang_avg)))


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
    return _radial_angular_integral(f, 2 * n, alpha)


# ---------------------------------------------------------------------------
# Tensor products and component projections.

class TensorPoly:
    """F(z, w) in H_mu (x) H_nu, coefficient rows a[p][q] padded with zeros."""

    def __init__(self, mu, nu, coeffs: Sequence):
        self.mu, self.nu = Fraction(mu), Fraction(nu)
        width = max(map(len, coeffs), default=0)
        if width == 0:
            raise ValueError(f"TensorPoly got no coefficients: {coeffs!r}")
        self._lanes, self.exact = _lanes_of(
            [c for row in coeffs for c in (*row, *[0] * (width - len(row)))],
            (len(coeffs), width))

    @cached_property
    def coeffs(self) -> tuple:
        return tuple(map(tuple, _values(self)))

    def __eq__(self, other):
        return type(other) is TensorPoly and (self.mu, self.nu, self.coeffs) \
            == (other.mu, other.nu, other.coeffs)

    def __hash__(self):
        return hash((self.mu, self.nu, self.coeffs))

    @staticmethod
    def from_product(f: PolyFun, g: PolyFun) -> "TensorPoly":
        return _product(TensorPoly, (f.nu, g.nu), f, g, np.multiply.outer)

    def norm2(self) -> Fraction | float:
        P, Q = self._lanes[0][0].shape
        wp, den_p = _norm_weights(self.mu, P, self.exact)
        wq, den_q = _norm_weights(self.nu, Q, self.exact)
        return _norm2(*self._lanes, [x * y for x in wp for y in wq],
                      den_p * den_q, self.exact)


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
        """C^2 with C^{-2} = k! (mu+nu+k±1)_k / ((mu)_k (nu)_k)."""
        inv = (Fraction(math.factorial(self.k))
               * pochhammer(self.mu + self.nu + self.k + self.shift, self.k)
               / (pochhammer(self.mu, self.k) * pochhammer(self.nu, self.k)))
        return 1 / inv


@dataclass(frozen=True)
class Projected:
    """Image of a tensor element under the k-th component projection.

    The normalizing constant C is a quadratic irrational in general, so the
    result is kept factored: C * core with C^2 = c2 exact.
    """

    core: PolyFun      # differential expression without the constant
    c2: Fraction       # squared normalization constant
    spec: ProjectionSpec

    def norm2(self) -> Fraction | float:
        return self.c2 * norm2_exact(self.core)


def qk_project(F: TensorPoly, spec: ProjectionSpec) -> Projected:
    """Project F in H_mu (x) H_nu onto the H_{mu+nu+2k} component via

        C * sum_j (-1)^j binom(k,j) / ((mu)_j (nu)_{k-j})
              d_z^j d_w^{k-j} F |_{z=w}.

    On z^p w^q the sum is W_k(p,q)/E z^{p+q-k} (_core_ladder): e_j/E are the
    weights in lowest terms, W_k = sum_j e_j perm(p,j) perm(q,k-j) integers.
    """
    if (F.mu, F.nu) != (spec.mu, spec.nu):
        raise ValueError(f"tensor weights (mu, nu) = ({F.mu}, {F.nu}) differ "
                         f"from the projection's ({spec.mu}, {spec.nu})")
    return _project(*F._lanes, F.exact, spec)


def _project(lanes: tuple, den: int, exact: bool, spec) -> Projected:
    """qk_project on tensor lanes over den."""
    core, scale = next(islice(_core_ladder(lanes, spec.mu, spec.nu, exact),
                              spec.k, None))
    return Projected(_from_lanes(PolyFun, (spec.mu + spec.nu + 2 * spec.k,),
                                 tuple(np.array(core, dtype=object)),
                                 den * scale, exact),
                     spec.c_squared(), spec)


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


def _hahn_ladder(mu: Fraction, nu: Fraction, n: np.ndarray, p: np.ndarray):
    """Yield V_k = b^k d^k (mu)_k (nu)_k W_k(p, n - p)/E (qk_project), mu =
    a/b and nu = c/d, for k = 0, 1, ... at the entries with n >= k, which
    lead the arrays (n must not increase); V_k vanishes at the others.  On
    p + q = n, W_k = e_0 perm(n,k) Q_k(p; mu-1, nu-1, n) is a Hahn polynomial
    (Koekoek-Lesky-Swarttouw, Hypergeometric Orthogonal Polynomials, 9.5):
    its recurrence in k costs O(1) integer operations per entry and step."""
    m, down = np.arange(n.max(initial=0) + 1).astype(object), -n  # n, p
    prev = cur = np.ones(len(n), dtype=object)
    for k in count():
        yield cur
        h = down.searchsorted(-k)  # the entries n > k lead
        alpha, gamma, beta, (c2, c1, c0), D = _hahn_step(mu, nu, k)
        step = ((m * alpha + gamma)[n[:h]] - (beta * m)[p[:h]]) * cur[:h] \
            - ((m * c2 + c1) * m + c0)[n[:h]] * prev[:h]
        prev, cur = cur, step // D


def _int_hahn_ladder(mu: Fraction, nu: Fraction, n: list, p: list):
    """_hahn_ladder on lists of Python ints, one comprehension per step."""
    prev, cur, ns = [1] * len(n), [1] * len(n), range(max(n, default=0) + 1)
    for k in count():
        yield cur
        alpha, gamma, beta, (c2, c1, c0), D = _hahn_step(mu, nu, k)
        A = [alpha * N + gamma for N in ns]
        C = [(c2 * N + c1) * N + c0 for N in ns]
        prev, cur = cur, [((A[N] - beta * i) * v - C[N] * w) // D for N, i,
                          v, w in zip(n[:len(cur) - n.count(k)], p, cur, prev)]


def _core_ladder(lanes: tuple, mu: Fraction, nu: Fraction, exact: bool):
    """Yield (core, scale) for k = 0, 1, ...: core / scale (P + Q - 1 long)
    is the k-th core of qk_project on tensor lanes a[p, q] over their den.
    The ladder runs on the nonzero entries only (some lane nonzero), on
    lists of Python ints below _INT_LADDER_ENTRIES of them (core lists).
    Exact: scale = b^k d^k (mu)_k (nu)_k on V_k.  Float: scale = E on W_k =
    V_k / g: sum_p a[p, q] W_k(p, q) in order of p, / E."""
    p, q = np.indices(lanes[0].shape).reshape(2, -1)
    p, n = np.array((p, p + q))[:, np.lexsort((p, -p - q))]  # n down, then p
    values = [lane[p, n - p] for lane in lanes]
    keep = np.logical_or.reduce([x != 0 for x in values])
    p, n, values = p[keep], n[keep], [x[keep] for x in values]
    starts = np.flatnonzero(np.diff(n, prepend=-1))
    width = sum(lanes[0].shape) - 1
    if small := len(n) < _INT_LADDER_ENTRIES:  # Python lists from here on
        bounds = list(zip(n[starts].tolist(), starts.tolist(),
                          [*starts.tolist()[1:], len(n)]))  # N, i, j
        n, p, values = n.tolist(), p.tolist(), [x.tolist() for x in values]
    (a, b), (c, d) = (x.as_integer_ratio() for x in (mu, nu))
    rm, rn = [1], [1]  # b^j (mu)_j and d^j (nu)_j for j <= k
    ladder = (_int_hahn_ladder if small else _hahn_ladder)(mu, nu, n, p)
    for k, V in enumerate(ladder):
        g = 1 if exact else math.gcd(rm[k] * rn[k], *(  # e_j/E, lowest terms
            math.comb(k, j) * b ** j * d ** (k - j)
            * (rm[k] // rm[j]) * (rn[k] // rn[k - j]) for j in range(k + 1)))
        if small:
            V, core = V if exact else [v // g for v in V], []
            bounds = [(N, i, j) for N, i, j in bounds if N >= k]
            for x in values:
                terms, out = list(map(mul, x, V)), [0] * width
                acc = [0, *accumulate(terms)] if exact else None
                for N, i, j in bounds:  # a float sum adds in order of p
                    out[N - k] = (acc[j] - acc[i] if exact
                                  else reduce(add, terms[i:j]))
                core.append(out)
        else:
            V, live = V if exact else V // g, starts[starts < len(V)]
            core = np.zeros((len(lanes), width), dtype=object)
            core[:, n[live] - k] = [np.add.reduceat(x[:len(V)] * V, live)
                                    for x in values]  # antidiagonal n at n - k
        yield core, rm[k] * rn[k] // g
        rm.append(rm[k] * (a + k * b))
        rn.append(rn[k] * (c + k * d))


def q1_iterated(f: PolyFun, n: int,
                convention: str = "corrected_minus_one") -> Projected:
    """Component of f^{(x) n} in the first subleading summand, computed by
    collapsing the leading part of the first n-1 factors and projecting with
    k = 1 against the last.  Identically zero for every f."""
    if n < 2:
        raise ValueError("n must be >= 2")
    head = f.power(n - 1) if n > 2 else f
    (a, da), (b, db) = head._lanes, f._lanes
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


def completeness_check(f: PolyFun, g: PolyFun,
                       convention: str = "corrected_minus_one"
                       ) -> CompletenessReport:
    """Check sum_k ||Q_k(f (x) g)||^2 = ||f||^2 ||g||^2 over every component,
    k = 0..deg f + deg g, in one pass of _core_ladder, on Python ints below
    _INT_LADDER_ENTRIES nonzero tensor entries.  An exact mass is one
    Fraction off the core lanes, with C^2 from integer products; a float
    mass is C^2 times the norm of the core that qk_project builds."""
    shift = ProjectionSpec(f.nu, g.nu, 0, convention).shift
    exact = f.exact and g.exact
    (a, da), (b, db) = _lanes_as(f, exact), _lanes_as(g, exact)
    lanes, den = _gaussian(a, b, np.multiply.outer), da * db
    L = f.nu.denominator * g.nu.denominator
    x0 = int(L * (f.nu + g.nu + shift))
    top, (A, B) = f.degree + g.degree, (f.nu + g.nu).as_integer_ratio()
    table = rising_ints(B, B, top)  # m! B^m
    masses = []
    for k, (core, scale) in zip(range(top + 1),
                                _core_ladder(lanes, f.nu, g.nu, exact)):
        if exact:  # m!/(mu + nu + 2k)_m = m! B^m / prod_{i<m} (A + (2k + i) B)
            sq = map(sum, zip(*(map(mul, x, x) for x in core)))  # |core|^2
            terms = list(map(mul, sq, table[:top - k + 1]))
            factors = range(A + 2 * k * B, A + (2 * k + len(terms) - 1) * B, B)
            acc = terms[0]  # Horner: sum_m terms[m] prod_{m<=i<M} factors[i]
            for t, y in zip(terms[1:], factors):
                acc = acc * y + t
            # C^2/scale^2 = 1/(scale k! L^k (mu+nu+-1+k)_k), L = bd
            c2_den = math.factorial(k) * rising_ints(x0 + k * L, L, k)[k]
            masses.append(Fraction(acc, den * den * scale * c2_den
                                   * math.prod(factors)))
        else:
            masses.append(ProjectionSpec(f.nu, g.nu, k, convention).c_squared()
                          * norm2_exact(_from_lanes(
                              PolyFun, (f.nu + g.nu + 2 * k,), core,
                              den * scale, False)))
    total = sum(masses, Fraction(0) if exact else 0.0)
    expected = norm2_exact(f) * norm2_exact(g)
    if exact:
        passed = total == expected
    else:
        passed = abs(total - expected) <= 1e-10 * max(1.0, abs(expected))
    return CompletenessReport(f.nu, g.nu, convention, tuple(masses),
                              total, expected, passed)


# ---------------------------------------------------------------------------
# Wehrl inequality, improved form, kernels.

def _in_float_range(check):
    """check, raising FloatRangeExceeded where an exact value or a float
    power past the float range raises a bare OverflowError."""
    @wraps(check)
    def checked(*args, **kwargs):
        try:
            return check(*args, **kwargs)
        except OverflowError as exc:
            raise FloatRangeExceeded(f"{check.__name__}: a value exceeds the"
                                     f" float limit 1.8e308 ({exc})") from None
    return checked


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
    exact_slack: Optional[Fraction]


@_in_float_range
def improved_check(f: PolyFun, n: int, convention: str = "sharp"
                   ) -> ImprovedReport:
    """Check ||f^n||^2_{n nu} + R(f) <= ||f||^{2n}_nu with the remainder

        R(f) = const(nu) * || (f'' f / (nu)_2 - (f')^2 / nu^2) f^{n-2} ||^2

    at weight n*nu + 4 and const(nu) = 4 C^2 of the k = 2 projection at
    (nu, nu).  convention "sharp" takes the norm-preserving C^2, const =
    2 nu^2 (nu+1)^2 / ((2 nu + 1)(2 nu + 2)); "paper" takes the paper's, with
    the larger denominator (2 nu + 3)(2 nu + 4), a weaker but still valid
    remainder.  A float slack passes down to -1e-12.
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
    conv = np.convolve if f.exact else _complex_convolve
    d1 = tuple(x * m for x in lanes)
    g = (tuple(b * b * (a * x - (a + b) * y)[min(2, 2 * f.degree):] for x, y
               in zip(_gaussian(tuple(x * (m - 1) for x in d1), lanes, conv),
                      _gaussian(d1, d1, conv))), den * den * a * a * (a + b))
    g = g if f.exact else (g[0][0] / g[1]).astype(complex)
    remainder = const * product_norm2([f] * (n - 2) + [g], n * nu + 4)
    lhs = product_norm2([f] * n, n * nu)
    rhs = norm2_exact(f) ** n
    slack = rhs - lhs - remainder
    exact = slack if isinstance(slack, Fraction) else None
    passed = (slack >= 0) if exact is not None else (float(slack) >= -1e-12)
    return ImprovedReport(nu, n, convention, float(lhs), float(rhs),
                          float(remainder), float(slack), passed, exact)


@dataclass(frozen=True)
class KernelFun:
    """Truncated reproducing kernel K_w(z) = (1 - z conj(w))^{-nu}."""

    nu: Fraction
    w: complex
    degree: int

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


def eval_functional_profile(nu, radii: Sequence[float]
                            ) -> list[tuple[float, float]]:
    """Norm of the point-evaluation functional, ||K_w|| = (1-|w|^2)^{-nu/2}."""
    if Fraction(nu) <= 1:
        raise ValueError(f"weight nu must exceed 1, got {Fraction(nu)}")
    nu_f = float(Fraction(nu))
    out = []
    for r in radii:
        if not 0 <= r < 1:
            raise ValueError("radii must lie in [0, 1)")
        out.append((float(r), (1.0 - float(r) ** 2) ** (-nu_f / 2.0)))
    return out


# ---------------------------------------------------------------------------
# Maximizer search on the coefficient sphere.

# maximize_wehrl's (s, y) pairs kept, most steps, and stopping tangent gradient
_LBFGS_MEMORY, _MAX_ITERS, _GRAD_TOL = 8, 40000, 5e-6
_HALVINGS = [0.5 ** i for i in range(60)]  # steps of both backtracking loops
_UPPER = np.triu(np.ones((_LBFGS_MEMORY, _LBFGS_MEMORY), dtype=bool))


def _objective_and_gradient(x: np.ndarray, n: int, h, H):
    """Phi(x) = ||f^n||^2_{n nu} and the Wirtinger gradient d Phi / d conj(x)
    for unit x of orthonormal coefficients, x and gradient as real views."""
    c = x.view(complex) / np.sqrt(h)
    A = reduce(np.convolve, [c] * (n - 1))  # c^{n-1}
    b = np.convolve(A, c)
    return (float((H * np.abs(b) ** 2).sum()),
            (n / np.sqrt(h) * np.correlate(H * b, A, "valid")).view(float))


def _lbfgs_direction(S: np.ndarray, Y: np.ndarray, t: np.ndarray):
    """L-BFGS inverse Hessian times t for the pairs in the rows of S and Y
    (oldest first, s.y > 0) in the compact form of Byrd, Nocedal and
    Schnabel (1994): gamma r + S^T R^-T (diag(SY) p - gamma Y r) with SY =
    S Y^T, R = triu(SY), p = R^-1 S t, r = t - Y^T p, gamma of the newest."""
    SY, gamma = S @ Y.T, (S[-1] @ Y[-1]) / (Y[-1] @ Y[-1])
    R_inv = np.linalg.inv(SY * _UPPER[:len(S), :len(S)])
    p = R_inv @ (S @ t)
    r = t - p @ Y
    return gamma * r + (SY.diagonal() * p - gamma * (Y @ r)) @ R_inv @ S


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
    trajectory_monotone: bool
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
    h = np.array(_norm_weights(Fraction(nu), degree + 1, False)[0])
    H = np.array(_norm_weights(n * Fraction(nu), n * degree + 1, False)[0])
    rng = np.random.default_rng(seed)
    x = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
    x = x.view(float) / np.linalg.norm(x)
    phi, g = _objective_and_gradient(x, n, h, H)
    S, Y = hist = np.empty((2, _LBFGS_MEMORY + 1, x.size))
    monotone, k = True, 0  # the first k rows of S, Y: pairs, oldest first
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
            phi_new, g_new = _objective_and_gradient(x_new, n, h, H)
            if phi_new >= phi + 1e-4 * t * slope:
                break
        else:
            raise NoConvergence(
                f"line search found no ascent in 60 halvings at iteration "
                f"{it} (tangent gradient {gnorm:.2e}, tol {_GRAD_TOL})",
                "line_search_exhausted")
        monotone = monotone and phi_new >= phi
        S[k], Y[k] = x_new - x, tangent - g_new
        hist[:, :k + 1] -= (hist[:, :k + 1] @ x_new)[..., None] * x_new
        keep = np.einsum("ij,ij->i", S[:k + 1], Y[:k + 1]) > 0
        pairs = hist[:, :k + 1][:, keep][:, -_LBFGS_MEMORY:]
        k = pairs.shape[1]
        hist[:, :k] = pairs
        x, phi, g = x_new, phi_new, g_new
    # The truncated kernels are the coherent vectors of kappa_m^2 = (nu)_m/m!.
    kappa2 = np.array(_rising_over_factorial(nu, degree + 1, False))
    x = x.view(complex)
    return MaximizeResult(PolyFun(Fraction(nu), tuple(x / np.sqrt(h))), phi,
                          _coherent_fit([x], kappa2, 1.0), it, gnorm,
                          monotone, "gradient_tolerance")
