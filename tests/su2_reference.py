"""References for the SU(2) module that need sympy or scipy: the exact
top-component mass by symbolic polynomial arithmetic, and the group element
by matrix exponentials."""

import math

import numpy as np
import sympy as sp
from scipy.linalg import expm

from wehrl_lab.compact import Su2Irrep


def cartan_mass_exact(v, n: int, m: int):
    """||P_{nm}(v^{(x) n})||^2 as an exact sympy expression.

    v is a length m+1 sequence of sympy-convertible coefficients over the
    orthonormal weight basis (top first); the mass is the weighted norm
    sum_k |[p_v^n]_k|^2 / binom(nm, k) of the Bloch polynomial's power.
    """
    v = [sp.sympify(c) for c in v]
    if len(v) != m + 1:
        raise ValueError("vector length must be m + 1")
    z = sp.Dummy("z")
    p = sp.Poly(sum(c * sp.sqrt(math.comb(m, i)) * z ** i
                    for i, c in enumerate(v)), z) ** n
    total = sum(sp.Abs(p.coeff_monomial(z ** k)) ** 2 / math.comb(n * m, k)
                for k in range(n * m + 1))
    return sp.simplify(total)


def group_element(m: int, alpha: float, beta: float,
                  gamma: float) -> np.ndarray:
    """tau(k(alpha,beta,gamma)) = exp(-i a J3) exp(-i b J2) exp(-i g J3)."""
    rep = Su2Irrep(m)
    J3 = rep.j3_matrix().astype(complex)
    Jm = rep.lowering_matrix()
    J2 = (Jm.T - Jm) / 2.0j  # Jm.T raises
    return (expm(-1j * alpha * J3) @ expm(-1j * beta * J2)
            @ expm(-1j * gamma * J3))
