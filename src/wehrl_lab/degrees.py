"""Exact formal degrees for scalar holomorphic discrete series.

The scalar formal degree is a ratio of products of Gamma functions whose
arguments differ by integers once grouped by fractional part, so every value
reduces to an exact rational times a power of pi.  The normalization constant
c_G relating it to the Harish-Chandra degree is computed case by case, and
the Harish-Chandra degree itself is available independently from explicit
low-rank positive-root data, which serves as a cross-check oracle.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

from .domains import DomainParams, NotAdmissible, hc_admissible
from .exactnum import PiScaledRational, check_counts, check_weight

__all__ = [
    "NonTelescoping",
    "GammaPole",
    "UnsupportedCase",
    "RootSystemPreset",
    "ROOT_SYSTEM_PRESETS",
    "gamma_ratio_product",
    "scalar_formal_degree",
    "c_G",
    "hc_degree_scalar",
    "hc_degree_root_product",
    "wehrl_constant",
    "partial_isometry_constant",
]


class NonTelescoping(ValueError):
    """Gamma-function ratio does not reduce to a rational."""


class GammaPole(ValueError):
    """A Gamma argument is a non-positive integer."""


class UnsupportedCase(ValueError):
    """Parameter triple matches none of the c_G evaluation cases."""


def gamma_ratio_product(numerators, denominators) -> Fraction:
    """Exact value of prod Gamma(x_i) / prod Gamma(y_i).

    Arguments are grouped by fractional part; within a group the Gamma
    factors differ by integers and cancel to Pochhammer products, largest
    with largest.  Integer arguments left unpaired are factorials,
    Gamma(k) = (k-1)!.  Any integer argument k <= 0, paired or not, raises
    GammaPole.  Raises NonTelescoping when any other group does not pair off.
    Products run on integer numerators over one common denominator D.
    """
    args = [[check_weight(name, x) for x in xs] for name, xs in
            (("numerators", numerators), ("denominators", denominators))]
    D = math.lcm(*(x.denominator for xs in args for x in xs))
    return _gamma_ratio_ints(
        *([x.numerator * (D // x.denominator) for x in xs] for xs in args), D)


def _gamma_ratio_ints(nums: list, dens: list, D: int) -> Fraction:
    """The Gamma ratio of the arguments x/D, x in nums, over y/D, y in dens;
    it computes gamma_ratio_product, d_lambda and selberg's C and S."""
    groups = defaultdict(lambda: ([], []))
    for side, xs in enumerate((nums, dens)):
        for n in xs:
            if n <= 0 and n % D == 0:
                raise GammaPole(f"Gamma({Fraction(n, D)}) is a pole")
            groups[n % D][side].append(n)
    acc, shift = [1, 1], 0  # value = acc[0] / acc[1] / D^shift
    for r, (xs, ys) in groups.items():
        if r and len(xs) != len(ys):
            raise NonTelescoping(
                f"unpaired Gamma arguments in {Fraction(r, D)} + Z")
        xs, ys = sorted(xs, reverse=True), sorted(ys, reverse=True)
        for x, y in zip(xs, ys):  # Gamma(x/D)/Gamma(y/D) = (y/D)_k, kD = x - y
            acc[x < y] *= math.prod(range(min(x, y), max(x, y), D))
            shift += (x - y) // D  # each factor of the product is over D
        for z in xs[len(ys):] + ys[len(xs):]:
            try:
                acc[len(xs) < len(ys)] *= math.factorial(z // D - 1)
            except OverflowError:
                raise ValueError(f"unpaired Gamma argument {Fraction(z, D)} "
                                 f"is past math.factorial's range") from None
    return Fraction(acc[0] * D ** max(-shift, 0), acc[1] * D ** max(shift, 0))


def scalar_formal_degree(d: DomainParams, lam) -> PiScaledRational:
    """Formal degree d_lambda of the scalar weighted Bergman space.

    d_lambda = pi^{-N} * prod_j Gamma(lambda - (j-1)a/2)
                        / Gamma(lambda - N/r - (j-1)a/2).
    """
    lam = check_weight("lam", lam)
    if not hc_admissible(d, lam):
        raise NotAdmissible(f"lambda={lam} <= p-1={d.p - 1} for {d.family_label}")
    D = math.lcm(lam.denominator, 2, d.r)  # every argument is an int / D
    top, shift = lam.numerator * (D // lam.denominator), d.N * D // d.r
    nums = [top - j * d.a * D // 2 for j in range(d.r)]
    dens = [x - shift for x in nums]
    return PiScaledRational(_gamma_ratio_ints(nums, dens, D), -d.N)


def _is_sp_family(d: DomainParams) -> bool:
    return d.a == 1 and d.b == 0 and d.r >= 2

def _is_so_odd_family(d: DomainParams) -> bool:
    return d.r == 2 and d.b == 0 and d.a % 2 == 1


def c_G(d: DomainParams, sp_statement_formula: bool = False) -> PiScaledRational:
    """Haar-normalization constant with d_lambda = c_G * d^H_lambda.

    Three cases: symplectic (a = 1), rank-two odd multiplicity (SO(2, odd)),
    and the generic even-multiplicity case where N/r is an integer.  For the
    symplectic family two published variants of the constant differ by
    2^{-r(r-1)/2}; the default is the one confirmed by the root-product and
    isogeny cross-checks, the other is available behind the flag for audit.
    """
    label = d.family_label
    if label.startswith("Sp(") or (label == "custom" and _is_sp_family(d)):
        coeff = Fraction(math.factorial(d.r) * math.prod(
            math.prod(range(2 + i, 2 + 2 * i)) for i in range(1, d.r)))
        if not sp_statement_formula:
            coeff /= 2 ** (d.r * (d.r - 1) // 2)
        return PiScaledRational(coeff, -d.N)
    if label.startswith("SO(2,") and d.a % 2 == 1 or (
            label == "custom" and _is_so_odd_family(d)):
        m = (d.a + 3) // 2  # N = 2m - 1
        coeff = Fraction(2 * m - 1, 2) * math.factorial(2 * m - 2)
        return PiScaledRational(coeff, -d.N)
    if d.a % 2 == 0 and d.N % d.r == 0:
        coeff = math.prod(math.prod(range(s, s + d.N // d.r)) for s in (
            1 + d.a * j // 2 for j in range(d.r)))
        return PiScaledRational(coeff, -d.N)
    raise UnsupportedCase(f"(r,a,b)=({d.r},{d.a},{d.b}) matches no c_G case")


def hc_degree_scalar(d: DomainParams, lam) -> Fraction:
    """Harish-Chandra degree d^H_lambda = d_lambda / c_G (pi-free)."""
    return (scalar_formal_degree(d, lam) / c_G(d)).as_rational()


@dataclass(frozen=True)
class RootSystemPreset:
    """Positive-root data for a low-rank group.

    Each entry (s, rho, so) records one positive root alpha with the scalar
    weight acting on the coroot as s*lambda (s = -1 long noncompact,
    s = -2 short noncompact, s = 0 compact), rho(h_alpha) = rho, and a flag
    marking the strongly orthogonal (Harish-Chandra) roots.
    """

    label: str
    positive_roots: tuple[tuple[int, Fraction, bool], ...]
    rank: int


ROOT_SYSTEM_PRESETS: dict[str, RootSystemPreset] = {
    # SU(1,1): single noncompact root.
    "A1": RootSystemPreset("A1", ((-1, Fraction(1), True),), rank=1),
    # SU(2,1): compact e1-e2; noncompact e1-e3 (highest) and e2-e3.
    "A2": RootSystemPreset(
        "A2",
        ((0, Fraction(1), False), (-1, Fraction(2), True),
         (-1, Fraction(1), False)),
        rank=1),
    # Sp(2,R): long 2e1, 2e2; short noncompact e1+e2; short compact e1-e2.
    "C2": RootSystemPreset(
        "C2",
        ((-1, Fraction(2), True), (-1, Fraction(1), True),
         (-2, Fraction(3), False), (0, Fraction(1), False)),
        rank=2),
}


def hc_degree_root_product(rs: RootSystemPreset, lam) -> Fraction:
    """|prod over positive roots of (Lambda + rho)(h_alpha) / rho(h_alpha)|."""
    lam = check_weight("lam", lam)
    return abs(math.prod((s * lam + r) / r for s, r, _ in rs.positive_roots))


def wehrl_constant(d: DomainParams, lam, n: int) -> PiScaledRational:
    """Sharp constant d_lambda^n / d_{n lambda} in the L^2 -> L^{2n} bound."""
    lam = check_weight("lam", lam)
    check_counts(("n", n, 1))
    return scalar_formal_degree(d, lam) ** n / scalar_formal_degree(d, n * lam)


def partial_isometry_constant(d: DomainParams, lam, lam2) -> PiScaledRational:
    """C^{-2} = d_lambda d_lambda' / d_{lambda+lambda'} for the leading
    component of a tensor product of two scalar discrete series."""
    lam, lam2 = check_weight("lam", lam), check_weight("lam2", lam2)
    return (scalar_formal_degree(d, lam) * scalar_formal_degree(d, lam2)
            / scalar_formal_degree(d, lam + lam2))
