"""SU(2) instantiation of the compact Wehrl inequality.

For the (m+1)-dimensional irreducible representation V_m of SU(2) with
highest weight vector e_top, the inequality reads

    int_K |<tau(k) v, e_top>|^{2n} dk  <=  1 / (nm + 1),

with equality exactly on the orbit of e_top.  The algebraic route divides
the mass of v^{(x) n} in the top (Cartan) component V_{nm} of V_m^{(x) n} by
nm + 1.  As in Lieb and Solovej, "Proof of an entropy conjecture for Bloch
coherent spin states" (Acta Math. 2014), that mass is a weighted norm of a
power of the Bloch polynomial p_v(z) = sum_i v_i binom(m, i)^{1/2} z^i,

    ||P_{nm}(v^{(x) n})||^2 = sum_k |[p_v^n]_k|^2 / binom(nm, k),

and 1/binom(nm, k) = |k!/(nu)_k| at nu = -nm: the disc's product_norm2,
in floats or exact.  The numeric route is Haar quadrature; the distance to
the orbit is the disc's coherent-state fit.  Only the mass reads the Bloch
row: translates and Haar rows take their own binomials.  The Casimir tensor
identity of the equality case is checked on the n = 2 tensor, with the
Casimir constant calibrated from the representation itself.  The arrays hold
a few hundred entries at most, so the checks call ufuncs and ndarray methods
directly: numpy's Python-level wrappers would cost more than the arithmetic.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .disc import (_angular_radial_mean, _coherent_fit, _rising_over_factorial,
                   _rule_sizes, product_norm2)
from .exactnum import (FloatRangeExceeded, check_counts, check_number,
                       check_weight, gauss_jacobi, in_float_range)

__all__ = [
    "Su2Irrep", "CompactReport", "CasimirReport", "casimir_tensor_check",
    "wehrl_compact_check", "haar_moment", "translate_vector",
    "translate_fit_distance", "reduction_consistency", "random_unit_vector"]


@dataclass(frozen=True)
class Su2Irrep:
    """Irreducible SU(2) representation of highest weight m (dim m+1).

    Orthonormal weight basis e_0, ..., e_m with e_i of weight m - 2i; the
    lowering operator sends e_i to sqrt((i+1)(m-i)) e_{i+1}.
    """

    m: int

    def __post_init__(self):
        check_counts(("m", self.m, 0))

    @property
    def dim(self) -> int:
        return self.m + 1

    def weight(self, i: int) -> int:
        return self.m - 2 * i

    def lowering_matrix(self) -> np.ndarray:
        i = np.arange(self.m)
        return np.diag(np.sqrt((i + 1) * (self.m - i)), -1)

    def j3_matrix(self) -> np.ndarray:
        return np.diag([self.weight(i) / 2.0 for i in range(self.dim)])

    def killing_orthonormal_basis(self) -> list[np.ndarray]:
        """Representation matrices of a basis of su(2) orthonormal for the
        Killing form: T_i = J_i / sqrt(2)."""
        Jm, J3 = self.lowering_matrix(), self.j3_matrix().astype(complex)
        return [J / math.sqrt(2) for J in ((Jm.T + Jm) / 2.0,  # J1, J2, J3
                                           (Jm.T - Jm) / 2.0j, J3)]


# ---------------------------------------------------------------------------
# Top-component masses through Bloch polynomials.

@in_float_range
def _vector(v: Sequence[complex], m: int) -> np.ndarray:
    """The SU(2) checks' gate: v as m + 1 complex entries, a float or complex
    array checked finite at once, any other v entry by entry (check_number)."""
    if not (isinstance(v, np.ndarray) and v.dtype.kind in "fc"):
        v = [check_number("v", x) for x in v]
    elif not np.isfinite(v).all():  # the rule names the first bad entry
        check_number("v", v[~np.isfinite(v)][0].item())
    v = np.asarray(v, dtype=complex)
    if len(v) != m + 1:
        raise ValueError("vector length must be m + 1")
    return v


def _unit(v: np.ndarray) -> np.ndarray:
    """v / |v| for a finite v (_vector), over its largest real or imaginary
    part first where |v|^2 is not a finite normal float; ValueError if v
    is zero."""
    with np.errstate(over="ignore"):  # an infinite sq is rescaled below
        sq = v.real.dot(v.real) + v.imag.dot(v.imag)
    if sys.float_info.min <= sq <= sys.float_info.max:
        return v / math.sqrt(sq)
    if not v.any():
        raise ValueError("v must be a nonzero vector of finite entries")
    return _unit(v / max(abs(v.real).max(), abs(v.imag).max()))


def _root_binomials(m: int) -> np.ndarray:
    """binom(m, i)^{1/2} for i = 0..m: u in V_m has the Bloch polynomial
    p_u(z) = sum_i u_i binom(m, i)^{1/2} z^i; FloatRangeExceeded past 1029."""
    try:
        return np.sqrt([float(math.comb(m, i)) for i in range(m + 1)])
    except OverflowError:
        raise FloatRangeExceeded(f"binom({m}, {m // 2}) exceeds the float "
                                 f"limit 1.8e308 at m = {m}") from None


def _top_mass(factors: Sequence[np.ndarray]) -> float:
    """||P_M(u_1 (x) ... (x) u_r)||^2 for u_j in V_{m_j} and M = sum m_j.

    With p the product of the Bloch polynomials p_{u_j}, the mass is
    sum_k |[p]_k|^2 / binom(M, k): the product tensor has inner product
    k! [p]_k with the k-fold lowered top vector, whose squared norm is
    k!^2 binom(M, k); past M = 1027, FloatRangeExceeded (disc._weights).
    """
    big_m = sum(len(u) - 1 for u in factors)
    rows = {id(u): u for u in factors}  # a repeated factor is scaled once
    rows = {k: u * _root_binomials(len(u) - 1) for k, u in rows.items()}
    return product_norm2([rows[id(u)] for u in factors], -big_m)


# ---------------------------------------------------------------------------
# Casimir tensor identity.

@dataclass(frozen=True)
class CasimirReport:
    m: int
    residual: float            # || sum_i T_i v (x) T_i v - <L,L> v (x) v ||
    casimir_constant: float    # scalar of sum_i T_i^2 on V_m
    casimir_expected: float    # <L + 2 rho, L> in the dual Killing form
    top_mass: float            # ||P_{2m}(v (x) v)||^2
    equality: bool             # residual ~ 0


def casimir_tensor_check(v: Sequence[complex], m: int) -> CasimirReport:
    """Evaluate sum_i tau(T_i)v (x) tau(T_i)v = <Lambda,Lambda> v (x) v.

    The T_i are Killing-orthonormal; the right-hand scalar <Lambda,Lambda>
    and the Casimir constant are derived from the dual form, and the Casimir
    constant is cross-checked against the explicit sum of squares so the
    normalization is verified rather than assumed.  Residual 0 is equivalent
    to v (x) v lying in the top component V_{2m}.
    """
    rep = Su2Irrep(m)
    v = _unit(_vector(v, m))
    Ts = rep.killing_orthonormal_basis()
    # Dual-form pairings: Lambda and rho evaluate to m/(2 sqrt 2), 1/(2 sqrt 2)
    # on the coroot direction T_3.
    lam_t3, rho_t3 = m / (2 * math.sqrt(2)), 1 / (2 * math.sqrt(2))
    casimir_expected = (lam_t3 + 2 * rho_t3) * lam_t3
    casimir_matrix = sum(T @ T for T in Ts)
    casimir_constant = float(np.real(casimir_matrix[0, 0]))
    scalar = casimir_constant * np.eye(rep.dim)  # allclose; NaN fails
    if not (abs(casimir_matrix - scalar) <= 1e-8 + 1e-5 * abs(scalar)).all():
        raise ValueError(f"sum of T_i^2 on V_{m} is not scalar: the "
                         f"Killing basis is miscalibrated")
    lhs = sum(np.outer(u, u).ravel() for u in [T @ v for T in Ts])
    d = lhs - lam_t3 ** 2 * np.outer(v, v).ravel()  # lam_t3^2 = <L,L>
    residual = math.sqrt(d.real @ d.real + d.imag @ d.imag)  # np.linalg.norm
    return CasimirReport(m=m, residual=residual,
                         casimir_constant=casimir_constant,
                         casimir_expected=float(casimir_expected),
                         top_mass=_top_mass([v, v]), equality=residual < 1e-10)


# ---------------------------------------------------------------------------
# Haar quadrature in Euler angles.

def _orbit_row(m: int, c, s) -> np.ndarray:
    """binom(m, i)^{1/2} c^{m-i} s^i, i = 0..m down axis 0 for a checked m,
    binomials by a running product: tau(k) e_top at (cos, sin)(beta/2)."""
    i = np.arange(m + 1)[:, None]
    if m > 1029:  # binom(1030, 515) > 1.8e308
        raise FloatRangeExceeded(f"(nu)_m/m! at nu = {-m} exceeds 1.8e308 "
                                 f"for some m < {m + 1}")
    b, row = 1, [1]
    for k, x in enumerate(range(m, 0, -1), 1):
        row.append(b := b * x // k)
    return np.sqrt(np.array(row, dtype=float))[:, None] * c ** (m - i) * s ** i


@in_float_range
def translate_vector(m: int, alpha: float, beta: float,
                     gamma: float) -> np.ndarray:
    """tau(k) e_top, a point of the equality orbit: binom(m,i)^{1/2} cos^{m-i}
    (beta/2) sin^i(beta/2) e^{-i alpha (m/2 - i)} e^{-i gamma m/2} from
    _orbit_row, not the Bloch row, which only the mass reads."""
    alpha, beta, gamma = (float(check_weight(name, x)) for name, x in (
        ("alpha", alpha), ("beta", beta), ("gamma", gamma)))
    i = np.arange(Su2Irrep(m).dim)  # refuses m < 0
    row = _orbit_row(m, math.cos(beta / 2.0), math.sin(beta / 2.0))[:, 0]
    return row * np.exp(-1j * (alpha * (m / 2.0 - i) + gamma * m / 2.0))


def wehrl_integral_numeric(v: Sequence[complex], m: int, n: int) -> float:
    """Haar quadrature of |<tau(k) v, e_top>|^{2n} in Euler angles.

    Up to a phase F = <tau(k) v, e_top> = sum_i v_i (-1)^i r_i e^{i i gamma}
    with r = _orbit_row at (cos(beta/2), sin(beta/2)), not the Bloch row,
    which only the mass reads; alpha drops out.  The mean of |F|^{2n}, degree
    nm in gamma, over nm + 1 equispaced nodes is exact at any shift, so the
    sign (a shift by pi) is dropped; it is a polynomial of degree nm in
    t = cos^2(beta/2), whose Haar measure is dt.
    """
    check_counts(("m", m, 0), ("n", n, 0))
    return _haar_integral(_vector(v, m), m, n)


def _haar_integral(v: np.ndarray, m: int, n: int) -> float:
    """wehrl_integral_numeric of a gated v and counts."""
    size, nodes = _rule_sizes(n * m)
    t, wt = gauss_jacobi(nodes, 0.0, 0.0)
    rows = v[:, None] * _orbit_row(m, np.sqrt(t), np.sqrt(1.0 - t))
    return _angular_radial_mean(rows, size, wt, n)


@dataclass(frozen=True)
class CompactReport:
    m: int
    n: int
    integral_numeric: float
    integral_exact: float
    bound: float
    slack: float
    mass: float


def _top_route(v: Sequence[complex], m: int, n: int) -> tuple:
    """The algebraic route, CompactReport's integral_exact, bound, slack and
    mass: ||P_{nm}(v^{(x) n})||^2 / (nm+1) and the bound 1/(nm+1)."""
    check_counts(("n", n, 1), ("m", m, 0))
    return _top_integral(_vector(v, m), m, n)


def _top_integral(v: np.ndarray, m: int, n: int) -> tuple:
    """_top_route of a gated v and counts; ValueError if v is no unit."""
    if not abs(math.sqrt(v.real @ v.real + v.imag @ v.imag) - 1) <= 1e-12:
        raise ValueError("v must be a unit vector")
    mass, bound = _top_mass([v] * n), 1.0 / (n * m + 1)
    return mass * bound, bound, bound - mass * bound, mass


def wehrl_compact_check(v: Sequence[complex], m: int, n: int) -> CompactReport:
    """Both routes to int |<tau(k)v, e_top>|^{2n} dk and the 1/(nm+1) bound:
    the bodies of wehrl_integral_numeric and _top_route on v gated once."""
    check_counts(("n", n, 1), ("m", m, 0))
    top = _top_integral(v := _vector(v, m), m, n)
    return CompactReport(m, n, _haar_integral(v, m, n), *top)


def haar_moment(p: int, q: int) -> float:
    """int |k11|^{2p} |k12|^{2q} dk over SU(2) = int_0^1 t^p (1 - t)^q dt,
    t = cos^2(beta/2); closed form B(p + 1, q + 1) = p!q!/(p+q+1)!."""
    check_counts(("p", p, 0), ("q", q, 0))
    t, wt = gauss_jacobi(_rule_sizes(p + q)[1], 0.0, 0.0)
    return float(np.sum(wt * t ** p * (1.0 - t) ** q))


def translate_fit_distance(v: Sequence[complex], m: int) -> float:
    """Distance |v/|v| - phase t| to the translate t = tau(k) e_top, along
    (binom(m, i)^{1/2} zeta^i), zeta = tan(beta/2) e^{i alpha}, that disc's
    fit reaches from its starts in the charts zeta and 1/zeta (v reversed):
    rho (2 / (1 + (1 - rho^2)^{1/2}))^{1/2} from its residual rho.  So an
    upper bound on the distance to the equality orbit, and that distance on
    the suite's and the benchmark's translates and near-translates.  Raises
    NoConvergence, or FloatRangeExceeded."""
    check_counts(("m", m, 0))
    v = _unit(_vector(v, m))
    kappa2 = np.array(_rising_over_factorial(-m, m + 1, False))
    rho = _coherent_fit([v, v[::-1]], kappa2, math.inf)
    return rho * math.sqrt(2.0 / (1.0 + math.sqrt(max(1.0 - rho * rho, 0.0))))


def reduction_consistency(v: Sequence[complex], m: int, n: int) -> float:
    """|  ||P_{nm}(v^{(x) n})||  -  ||P_{nm}(w (x) v^{(x) n-2})||  | where w
    is the V_{2m} component of v (x) v; zero by the projection identity.

    w is built by lowering, not from Bloch polynomials: its k-th coordinate
    in the orthonormal weight basis of V_{2m} is <X_k / ||X_k||, v v^T>,
    with X_0 = e_top e_top^T and X_{k+1} = L X_k + X_k L^T for the lowering
    matrix L of V_m.
    """
    check_counts(("m", m, 0), ("n", n, 2))
    v = _vector(v, m)
    lhs = math.sqrt(_top_mass([v] * n))
    L = Su2Irrep(m).lowering_matrix()
    X = np.zeros((m + 1, m + 1))
    X[0, 0] = 1.0
    w = np.empty(2 * m + 1, dtype=complex)
    for k in range(2 * m + 1):
        X = X / np.linalg.norm(X)
        w[k] = v @ X @ v
        X = L @ X + X @ L.T
    rhs = math.sqrt(_top_mass([w] + [v] * (n - 2)))
    return abs(lhs - rhs)


def random_unit_vector(m: int, rng: np.random.Generator) -> np.ndarray:
    check_counts(("m", m, 0))
    return _unit(rng.normal(size=m + 1) + 1j * rng.normal(size=m + 1))
