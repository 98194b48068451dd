"""Acceptance battery: eleven criteria, one verdict line each.

Each test prints a single PASS/FAIL line (visible with pytest -s or on
failure) and asserts the criterion at its stated tolerance.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from su2_reference import cartan_mass_exact
from wehrl_lab import compact as cp
from wehrl_lab import degrees as dg
from wehrl_lab import disc as dc
from wehrl_lab import selberg as sb
from wehrl_lab.domains import PRESETS
from wehrl_lab.exactnum import PiScaledRational


def _verdict(num: int, label: str, ok: bool):
    print(f"[criterion {num:02d}] {label}: {'PASS' if ok else 'FAIL'}",
          flush=True)
    assert ok, f"criterion {num} failed: {label}"


def _rand_rational(rng, span=4):
    return Fraction(int(rng.integers(-span, span + 1)),
                    int(rng.integers(1, span + 1)))


def _rand_rational_poly(rng, nu, degree):
    cs = [_rand_rational(rng) for _ in range(degree + 1)]
    if all(c == 0 for c in cs):
        cs[0] = Fraction(1)
    return dc.PolyFun(Fraction(nu), tuple(cs))


def test_criterion_01_formal_degree_exactness():
    presets = ["disc", "SU(2,1)", "SU(2,2)", "Sp(2,R)", "Sp(3,R)",
               "SO(2,3)", "SO(2,5)"]
    worst = 0.0
    for name in presets:
        d = PRESETS[name]
        for dl in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(5)):
            rep = sb.verify_degree_integral(d, d.p + dl, budget=160)
            worst = max(worst, rep["deviation"])
    _verdict(1, f"formal degree * defining integral = 1 "
             f"(28 cases, worst deviation {worst:.2e}, tol 1e-10)",
             worst < 1e-10)


def test_criterion_02_c_G_three_way():
    sp2 = PRESETS["Sp(2,R)"]
    target = PiScaledRational(Fraction(3), -3)
    proof = dg.c_G(sp2)
    lam = Fraction(4)
    via_roots = (dg.scalar_formal_degree(sp2, lam)
                 / dg.hc_degree_root_product(dg.ROOT_SYSTEM_PRESETS["C2"],
                                             lam))
    so_case = dg.c_G(PRESETS["SO(2,3)"])
    stmt = dg.c_G(sp2, sp_statement_formula=True)
    ok = (proof == via_roots == so_case == target
          and stmt == PiScaledRational(Fraction(6), -3))
    _verdict(2, "c_G(Sp(2,R)) = 3/pi^3 three ways; "
             "statement variant 6/pi^3 reported as mismatch", ok)


def test_criterion_03_selberg_closed_form():
    closed = sb.selberg_closed(sb.SelbergSpec(2, 1, 0, 0))
    est = sb.selberg_numeric(sb.SelbergSpec(2, 1, 0, 0), "monte_carlo",
                             1_000_000, seed=1)
    mc_ok = abs(est.value - float(closed)) <= 3 * est.stderr
    spec2 = sb.SelbergSpec(2, 2, 0, 1)
    gj = sb.selberg_numeric(spec2, "gauss_jacobi", 60)
    truth2 = float(sb.selberg_closed(spec2))
    gj_ok = abs(gj.value - truth2) / truth2 < 1e-10
    ok = closed == Fraction(1, 3) and mc_ok and gj_ok
    _verdict(3, "Selberg (2,1,0,0) = 1/3 exact; MC within 3 sigma at 1e6; "
             "Gauss-Jacobi (2,2,0,1) to 1e-10", ok)


def test_criterion_04_projection_convention():
    rng = np.random.default_rng(42)
    pairs = [(Fraction(2), Fraction(2)), (Fraction(2), Fraction(3)),
             (Fraction(5, 2), Fraction(7, 2))]
    ok = True
    for i in range(50):
        mu, nu = pairs[i % 3]
        f = _rand_rational_poly(rng, mu, int(rng.integers(1, 9)))
        g = _rand_rational_poly(rng, nu, int(rng.integers(1, 9)))
        rep = dc.completeness_check(f, g, convention="corrected_minus_one")
        ok = ok and rep.passed
    z = dc.PolyFun(Fraction(2), (0, 1))
    paper = dc.completeness_check(z, z, convention="paper_plus_one")
    ok = ok and not paper.passed and paper.total != Fraction(1, 4)
    _verdict(4, "completeness exact for 50 random rational pairs under the "
             "corrected constant; fails under the alternative constant", ok)


def test_criterion_05_q1_vanishing():
    rng = np.random.default_rng(3)
    ok = True
    for i in range(50):
        nu = (Fraction(2), Fraction(5, 2), Fraction(3))[i % 3]
        f = _rand_rational_poly(rng, nu, int(rng.integers(1, 6)))
        n = (2, 3, 4)[i % 3]
        ok = ok and dc.q1_iterated(f, n).norm2() == 0
    _verdict(5, "first-subleading tensor component of f^n vanishes exactly "
             "for 50 random f, n in {2,3,4}", ok)


def test_criterion_06_wehrl_inequality_and_maximizers():
    rng = np.random.default_rng(6)
    grid = [(nu, n) for nu in (Fraction(2), Fraction(5, 2), Fraction(3))
            for n in (2, 3)]
    min_slack = math.inf
    for i in range(500):
        nu, n = grid[i % 6]
        deg1 = int(rng.integers(2, 8))
        cs = rng.normal(size=deg1) + 1j * rng.normal(size=deg1)
        f = dc.PolyFun(nu, tuple(cs))
        s = math.sqrt(dc.norm2_exact(f))
        _, _, slack = dc.wehrl_check(f.scale(1 / s), n)
        min_slack = min(min_slack, slack)
    slack_ok = min_slack >= -1e-12

    kernel_ok = True
    for nu in (Fraction(2), Fraction(3)):
        k = dc.KernelFun(nu, 0.35, 60).to_polyfun()
        k = k.scale(1 / math.sqrt(dc.norm2_exact(k)))
        _, _, ks = dc.wehrl_check(k, 2)
        kernel_ok = kernel_ok and abs(ks) < 1e-8

    max_ok = True
    for seed in range(10):
        res = dc.maximize_wehrl(2, 2, 12, seed=seed)
        max_ok = max_ok and res.objective >= 1 - 1e-6 \
            and res.kernel_distance < 1e-4
    _verdict(6, f"Wehrl slack >= -1e-12 on 500 random polynomials "
             f"(min {min_slack:.2e}); kernels near equality; ascent from 10 "
             f"seeds reaches the kernel ray", slack_ok and kernel_ok and max_ok)


def test_criterion_07_improved_inequality():
    rng = np.random.default_rng(7)
    ok = True
    for i in range(200):
        nu = (Fraction(2), Fraction(5, 2), Fraction(3))[i % 3]
        f = _rand_rational_poly(rng, nu, int(rng.integers(2, 6)))
        n = (2, 3)[i % 2]
        for conv in ("sharp", "paper"):
            rep = dc.improved_check(f, n, conv)
            ok = ok and rep.exact_slack >= 0
    kern = dc.KernelFun(Fraction(2), 0.4, 40).to_polyfun()
    kern = kern.scale(1 / math.sqrt(dc.norm2_exact(kern)))
    rep_k = dc.improved_check(kern, 2, "sharp")
    eq = dc.improved_check(dc.PolyFun(Fraction(2), (1, 1)), 2, "sharp")
    ok = ok and rep_k.remainder < 1e-10 and eq.exact_slack == 0 \
        and eq.lhs == 2.1 and eq.remainder == pytest.approx(0.15) \
        and eq.rhs == 2.25
    _verdict(7, "improved inequality holds for 200 random polynomials under "
             "both remainder constants; kernels give zero remainder; "
             "equality 2.1 + 0.15 = 2.25 exact at the sharp constant", ok)


def test_criterion_08_matrix_coefficient_route():
    rng = np.random.default_rng(8)
    ok = True
    for i in range(50):
        nu = (Fraction(2), Fraction(3), Fraction(7, 2))[i % 3]
        f = _rand_rational_poly(rng, nu, int(rng.integers(1, 6)))
        n = (2, 3)[i % 2]
        via_quad = dc.matrix_coeff_lp(f, n)
        via_parseval = float(dc.product_norm2([f] * n, n * nu)) \
            / (float(n * nu) - 1)
        ok = ok and abs(via_quad - via_parseval) <= 1e-8 * abs(via_parseval)
    one = dc.PolyFun(Fraction(3), (1,))
    ok = ok and dc.matrix_coeff_lp(one, 1) == pytest.approx(0.5, rel=1e-12)
    _verdict(8, "matrix-coefficient integral agrees with the Parseval route "
             "to 1e-8 on 50 random polynomials; f=1 gives 1/(nu-1)", ok)


def test_criterion_09_compact_wehrl():
    schur_ok = all(
        abs(cp.haar_moment(n, 0) - 1 / (n + 1)) < 1e-6
        for n in range(1, 7))

    rng = np.random.default_rng(9)
    bound_ok = True
    route_gap = 0.0
    projs = {}
    count = 0
    while count < 200:
        m = int(rng.integers(1, 7))
        n = int(rng.integers(2, 4))
        v = cp.random_unit_vector(m, rng)
        rep = cp.wehrl_compact_check(v, m, n)
        bound_ok = bound_ok and rep.slack >= -1e-10
        route_gap = max(route_gap,
                        abs(rep.integral_numeric - rep.integral_exact))
        count += 1
    exact = cartan_mass_exact([sp.sqrt(2) / 2, 0, sp.sqrt(2) / 2], 2, 2)
    # the Bloch coefficients u = (1, 0, 1) of the mixed vector, at nu = -nm
    u = dc.PolyFun(2, (1, 0, 1))
    mass, norm2 = dc.product_norm2([u] * 2, -4), dc.product_norm2([u], -2)
    exact_ok = (sp.simplify(exact / 5 - sp.Rational(2, 15)) == 0
                and mass / (norm2 ** 2 * 5) == Fraction(2, 15))
    ok = schur_ok and bound_ok and route_gap < 1e-6 and exact_ok
    _verdict(9, f"compact bound 1/(nm+1) holds on 200 random vectors; route "
             f"gap {route_gap:.2e} < 1e-6; (m=2,n=2) mixed vector gives "
             f"exactly 2/15", ok)


def test_criterion_10_ode_kernel_characterization():
    rng = np.random.default_rng(10)
    ok = True
    done = 0
    while done < 20:
        nu = Fraction(int(rng.integers(3, 13)), int(rng.integers(1, 4)))
        if nu <= 1:
            continue
        c = _rand_rational(rng, span=3)
        if abs(c) >= nu:
            continue
        sol = dc.ode_solve(nu, c, 10)
        kern = dc.KernelFun(nu, c / nu, 10).to_polyfun()
        ok = ok and all(x == y for x, y in zip(sol.coeffs, kern.coeffs))
        done += 1
    raised = False
    try:
        dc.ode_solve(Fraction(2), Fraction(2), 4)
    except dc.OutsideBergman:
        raised = True
    _verdict(10, "ODE power series equals the kernel expansion exactly for "
             "20 random rational (nu, c); |c| >= nu rejected",
             ok and raised)


def test_criterion_11_eval_functional_blowup():
    # ||K_w||, the norm of evaluation at w: ||K_w||^2 = (1-|w|^2)^(-nu) lies
    # between the exact norm of K_w truncated at degree 40 and that norm
    # plus the bound on the rest.
    nu, ok, norms = Fraction(2), True, []
    for w in (Fraction(0), Fraction(1, 2), Fraction(9, 10), Fraction(99, 100)):
        kern = dc.KernelFun(nu, w, 40)
        norm2, closed = dc.norm2_exact(kern.to_polyfun()), (1 - w * w) ** -nu
        ok = ok and norm2 <= closed <= norm2 + Fraction(kern.tail_bound())
        norms.append(norm2)
    ok = ok and all(x < y for x, y in zip(norms, norms[1:]))
    _verdict(11, "||K_w||^2 = (1-|w|^2)^(-nu) lies between the truncated "
             "kernel's norm and that plus its tail bound, growing in |w|", ok)
