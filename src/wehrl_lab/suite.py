"""Verification batteries for the four mathematical modules.

run_suite executes the named battery and returns an exit code together with
the report stream; exit code 0 means every non-informational report passed.
A FAIL never aborts the batch.  With convention="paper" the tensor-product
completeness identity is expected to fail; the report records both totals.
"""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction

import numpy as np

from . import compact as cp
from . import degrees as dg
from . import disc as dc
from . import selberg as sb
from .domains import PRESETS, get_domain, hc_admissible
from .exactnum import PiScaledRational
from .reports import (PROJECTION_CONVENTION, REMAINDER_CONVENTION,
                      ConfigError, Report, SuiteConfig, exact_json)

__all__ = ["run_suite", "emit_constants_table", "SUITE_NAMES"]

SUITE_NAMES = ("degrees", "selberg", "disc", "compact", "all")


def _check(command: str, inputs: dict, outputs: dict, ok: bool,
           seed=None) -> Report:
    return Report(command=command, inputs=inputs, outputs=outputs,
                  verdict="PASS" if ok else "FAIL", seed=seed)


def _rand_rational_poly(rng: np.random.Generator, nu, degree: int,
                        span: int = 5) -> dc.PolyFun:
    cs = []
    for _ in range(degree + 1):
        num = int(rng.integers(-span, span + 1))
        den = int(rng.integers(1, span + 1))
        cs.append(Fraction(num, den))
    if all(c == 0 for c in cs):
        cs[0] = Fraction(1)
    return dc.PolyFun(Fraction(nu), tuple(cs))


# ---------------------------------------------------------------------------

def _suite_degrees(config: SuiteConfig) -> list[Report]:
    reports = []
    disc = PRESETS["disc"]
    sp2 = PRESETS["Sp(2,R)"]
    so23 = PRESETS["SO(2,3)"]
    d4 = dg.scalar_formal_degree(disc, 4)
    reports.append(_check(
        "degrees.scalar_formal_degree", {"domain": "disc", "lambda": "4"},
        {"d_lambda": d4.to_json()},
        d4 == PiScaledRational(Fraction(3), -1)))
    d_sp = dg.scalar_formal_degree(sp2, 4)
    reports.append(_check(
        "degrees.scalar_formal_degree", {"domain": "Sp(2,R)", "lambda": "4"},
        {"d_lambda": d_sp.to_json()},
        d_sp == PiScaledRational(Fraction(15), -3)))

    c_proof = dg.c_G(sp2)
    c_stmt = dg.c_G(sp2, sp_statement_formula=True)
    c_so = dg.c_G(so23)
    lam = Fraction(4)
    c_root = (dg.scalar_formal_degree(sp2, lam)
              / dg.hc_degree_root_product(dg.ROOT_SYSTEM_PRESETS["C2"], lam))
    three_way = (c_proof == c_so == c_root
                 == PiScaledRational(Fraction(3), -3))
    reports.append(_check(
        "degrees.c_G_three_way", {"domain": "Sp(2,R)"},
        {"proof_formula": c_proof.to_json(),
         "so23_case": c_so.to_json(),
         "root_product_ratio": c_root.to_json(),
         "statement_formula_mismatch": c_stmt.to_json()},
        three_way and c_stmt == PiScaledRational(Fraction(6), -3)))

    for label, rs, dom, lam in (("A1", "A1", "disc", Fraction(4)),
                                ("A2", "A2", "SU(2,1)", Fraction(5)),
                                ("C2", "C2", "Sp(2,R)", Fraction(4))):
        via_roots = dg.hc_degree_root_product(dg.ROOT_SYSTEM_PRESETS[rs], lam)
        via_scalar = dg.hc_degree_scalar(PRESETS[dom], lam)
        reports.append(_check(
            "degrees.hc_cross_check", {"root_system": label, "lambda": str(lam)},
            {"root_product": exact_json(via_roots),
             "scalar_ratio": exact_json(via_scalar)},
            via_roots == via_scalar))

    w = dg.wehrl_constant(disc, 2, 2)
    reports.append(_check(
        "degrees.wehrl_constant", {"domain": "disc", "lambda": "2", "n": "2"},
        {"constant": w.to_json()},
        w == PiScaledRational(Fraction(1, 3), -1)))
    pic = dg.partial_isometry_constant(disc, 2, 3)
    reports.append(_check(
        "degrees.partial_isometry_constant",
        {"domain": "disc", "lambda": "2", "lambda2": "3"},
        {"constant": pic.to_json()},
        pic == PiScaledRational(Fraction(1, 2), -1)))
    return reports


def _suite_selberg(config: SuiteConfig) -> list[Report]:
    reports = []
    spec = sb.SelbergSpec(2, 1, 0, 0)
    closed = sb.selberg_closed(spec)
    reports.append(_check(
        "selberg.closed_form", {"r": 2, "a": 1, "b": 0, "gamma": 0},
        {"value": exact_json(closed)}, closed == Fraction(1, 3)))

    est = sb.selberg_numeric(spec, "monte_carlo", config.mc_budget,
                             config.seed)
    dev = abs(est.value - float(closed))
    reports.append(_check(
        "selberg.monte_carlo_3sigma",
        {"r": 2, "a": 1, "b": 0, "gamma": 0, "budget": config.mc_budget},
        {"estimate": est.value, "stderr": est.stderr, "deviation": dev,
         "tolerance": 3 * est.stderr},
        dev <= 3 * est.stderr, seed=config.seed))

    spec2 = sb.SelbergSpec(2, 2, 0, 1)
    closed2 = sb.selberg_closed(spec2)
    est2 = sb.selberg_numeric(spec2, "gauss_jacobi", 120, config.seed)
    rel = abs(est2.value - float(closed2)) / abs(float(closed2))
    reports.append(_check(
        "selberg.gauss_jacobi", {"r": 2, "a": 2, "b": 0, "gamma": 1},
        {"closed": exact_json(closed2), "estimate": est2.value,
         "rel_deviation": rel, "tolerance": 1e-10},
        rel < 1e-10))

    for name, lam in (("disc", Fraction(3)), ("Sp(2,R)", Fraction(9, 2)),
                      ("SO(2,3)", Fraction(7, 2))):
        rep = sb.verify_degree_integral(PRESETS[name], lam, seed=config.seed)
        reports.append(_check(
            "selberg.verify_degree_integral", {"domain": name,
                                               "lambda": str(lam)},
            rep, rep["deviation"] < config.tolerance_abs, seed=config.seed))
    return reports


def _suite_disc(config: SuiteConfig) -> list[Report]:
    reports = []
    rng = np.random.default_rng(config.seed)
    conv = PROJECTION_CONVENTION[config.convention]
    remainder = REMAINDER_CONVENTION[config.convention]

    # Norm quadrature vs exact monomial expansion.
    f = _rand_rational_poly(rng, Fraction(5, 2), 6)
    exact = float(dc.norm2_exact(f))
    quad = dc.norm_p_numeric(f, 2)
    reports.append(_check(
        "disc.norm_quadrature", {"nu": "5/2", "degree": 6},
        {"exact": exact, "quadrature": quad,
         "rel_deviation": abs(quad - exact) / exact},
        abs(quad - exact) <= 1e-10 * exact, seed=config.seed))

    # Completeness of the component projections (convention-sensitive).
    # total and expected are lists parallel to pairs; failed_pairs names
    # every pair whose totals differ.
    pairs, totals, expected, failed = [], [], [], []
    for mu, nu in ((Fraction(2), Fraction(2)), (Fraction(5, 2), Fraction(7, 2))):
        ff = _rand_rational_poly(rng, mu, 4)
        gg = _rand_rational_poly(rng, nu, 4)
        rep = dc.completeness_check(ff, gg, convention=conv)
        pairs.append(f"({mu},{nu})")
        totals.append(exact_json(rep.total))
        expected.append(exact_json(rep.expected))
        if not rep.passed:
            failed.append(pairs[-1])
    reports.append(_check(
        "disc.completeness", {"convention": config.convention, "degree": 4},
        {"pairs": pairs, "total": totals, "expected": expected,
         "failed_pairs": failed},
        not failed, seed=config.seed))

    # First-subleading component of f^{(x) n} vanishes identically.
    q1_norms = {str(n): dc.q1_iterated(
        _rand_rational_poly(rng, Fraction(2), 5), n, conv).norm2()
        for n in (2, 3)}
    reports.append(_check(
        "disc.q1_vanishing", {"n": "2,3", "nu": "2", "degree": 5},
        {"norm2": {n: exact_json(v) for n, v in q1_norms.items()}},
        all(v == 0 for v in q1_norms.values()), seed=config.seed))

    # Wehrl inequality on random polynomials and near-equality on kernels.
    slacks = []
    for _ in range(20):
        g = _rand_rational_poly(rng, Fraction(2), 6)
        s = float(dc.norm2_exact(g))
        gs = g.scale(1.0 / math.sqrt(s))
        _, _, slack = dc.wehrl_check(gs, 2)
        slacks.append(slack)
    kern = dc.KernelFun(Fraction(2), 0.4, 40).to_polyfun()
    kern = kern.scale(1.0 / math.sqrt(dc.norm2_exact(kern)))
    _, _, kslack = dc.wehrl_check(kern, 2)
    reports.append(_check(
        "disc.wehrl_inequality", {"nu": "2", "n": "2", "samples": 20},
        {"min_slack": min(slacks), "kernel_slack": kslack},
        min(slacks) >= -1e-12 and kslack < 1e-8, seed=config.seed))

    # Improved inequality with the configured remainder constant.
    imp_ok = True
    worst = 0.0
    for _ in range(20):
        g = _rand_rational_poly(rng, Fraction(2), 5)
        rep = dc.improved_check(g, 2, remainder)
        imp_ok = imp_ok and rep.passed
        worst = min(worst, rep.slack)
    eq = dc.improved_check(dc.PolyFun(Fraction(2), (1, 1)), 2, "sharp")
    reports.append(_check(
        "disc.improved_inequality",
        {"remainder_constant": remainder},
        {"min_slack": worst, "equality_case_slack": str(eq.exact_slack)},
        imp_ok and eq.exact_slack == 0, seed=config.seed))

    # Kernel ODE characterization.
    sol = dc.ode_solve(Fraction(5, 2), Fraction(1, 3), 10)
    kf = dc.KernelFun(Fraction(5, 2), Fraction(2, 15), 10).to_polyfun()
    ode_ok = sol.coeffs == kf.coeffs
    try:
        dc.ode_solve(Fraction(2), Fraction(2), 4)
        ode_ok = False
    except dc.OutsideBergman:
        pass
    reports.append(_check("disc.ode_kernel", {"nu": "5/2", "c": "1/3"},
                          {"coefficients_match": ode_ok}, ode_ok))

    # Matrix-coefficient integral route.
    h = _rand_rational_poly(rng, Fraction(3), 5)
    lp = dc.matrix_coeff_lp(h, 2)
    parseval = float(dc.product_norm2([h, h], 6)) / 5.0
    reports.append(_check(
        "disc.matrix_coeff_lp", {"nu": "3", "n": "2"},
        {"quadrature": lp, "parseval": parseval,
         "rel_deviation": abs(lp - parseval) / parseval},
        abs(lp - parseval) <= 1e-8 * parseval, seed=config.seed))

    # Point-evaluation blow-up profile.
    radii = [1 - 10.0 ** (-k) for k in range(1, 5)]
    prof = dc.eval_functional_profile(Fraction(2), radii)
    prof_ok = all(abs(v - (1 - r * r) ** -1.0) < 1e-10 for r, v in prof) \
        and prof[-1][1] > prof[0][1]
    reports.append(_check("disc.eval_functional_profile", {"nu": "2"},
                          {"profile": prof}, prof_ok))

    # Maximizer search (small instance).
    res = dc.maximize_wehrl(2, 2, 8, seed=config.seed)
    reports.append(_check(
        "disc.maximize_wehrl", {"nu": "2", "n": "2", "degree": 8},
        {"objective": res.objective, "kernel_distance": res.kernel_distance,
         "iterations": res.iterations},
        res.objective >= 1 - 1e-6 and res.kernel_distance < 1e-4,
        seed=config.seed))
    return reports


def _suite_compact(config: SuiteConfig) -> list[Report]:
    reports = []
    rng = np.random.default_rng(config.seed)

    worst = max(abs(cp.haar_moment(p, q) - float(cp.haar_moment_closed(p, q)))
                for p in range(4) for q in range(4))
    reports.append(_check("compact.haar_moments", {"p": "0..3", "q": "0..3"},
                          {"max_deviation": worst, "tolerance": 1e-12},
                          worst < 1e-12))

    v = np.array([1.0, 0.0, 1.0]) / math.sqrt(2)
    rep = cp.wehrl_compact_check(v, 2, 2, exact_bloch=[1, 0, 1])
    reports.append(_check(
        "compact.exact_case", {"m": 2, "n": 2, "vector": "(e2+e-2)/sqrt2"},
        {"exact": str(rep.exact_value), "numeric": rep.integral_numeric,
         "bound": rep.bound},
        rep.exact_value == Fraction(2, 15)
        and abs(rep.integral_numeric - 2 / 15) < 1e-10))

    ok = True
    worst_gap = 0.0
    for m in range(1, 5):
        for n in (2, 3):
            u = cp.random_unit_vector(m, rng)
            r = cp.wehrl_compact_check(u, m, n)
            ok = ok and r.slack >= -1e-10 \
                and abs(r.integral_numeric - r.integral_exact) < 1e-6
            worst_gap = max(worst_gap,
                            abs(r.integral_numeric - r.integral_exact))
    reports.append(_check(
        "compact.wehrl_bound_random", {"m": "1..4", "n": "2,3"},
        {"max_route_gap": worst_gap}, ok, seed=config.seed))

    t = cp.translate_vector(3, 0.4, 1.0, -0.2)
    r = cp.wehrl_compact_check(t, 3, 2)
    cas = cp.casimir_tensor_check(t, 3)
    reports.append(_check(
        "compact.equality_on_translates", {"m": 3, "n": 2},
        {"slack": r.slack, "casimir_residual": cas.residual,
         "fit_distance": cp.translate_fit_distance(t, 3)},
        abs(r.slack) < 1e-10 and cas.residual < 1e-12))
    return reports


_SUITES = {
    "degrees": _suite_degrees,
    "selberg": _suite_selberg,
    "disc": _suite_disc,
    "compact": _suite_compact,
}


def run_suite(name: str, config: SuiteConfig) -> tuple[int, list[Report]]:
    """Run the named battery; exit code 0 iff every checked report PASSes."""
    if name not in SUITE_NAMES:
        raise ConfigError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    names = list(_SUITES) if name == "all" else [name]
    reports = []
    for n in names:
        reports.extend(_SUITES[n](config))
    code = 0 if all(r.verdict != "FAIL" for r in reports) else 1
    return code, reports


def emit_constants_table(domains: list[str], lam_grid, n_grid) -> str:
    """CSV with one row per admissible (domain, lambda, n): the formal degree,
    c_G, Harish-Chandra degree and sharp Wehrl constant, exact and float."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([
        "domain", "lambda", "n",
        "d_lambda_coeff", "d_lambda_pi_power", "d_lambda_float",
        "c_G_coeff", "c_G_pi_power", "c_G_float",
        "d_H", "wehrl_coeff", "wehrl_pi_power", "wehrl_float",
    ])
    for name in domains:
        d = get_domain(name)
        try:
            cg = dg.c_G(d)
        except dg.UnsupportedCase:
            cg = None
        lams = [x for x in map(Fraction, lam_grid) if hc_admissible(d, x)]
        for lam in lams:  # d_lambda and d^H once per lambda, not per row
            dl = dg.scalar_formal_degree(d, lam)
            dh = str((dl / cg).as_rational()) if cg else ""
            for n in [n for n in n_grid if hc_admissible(d, n * lam)]:
                w = dg.wehrl_constant(d, lam, n)
                writer.writerow([
                    d.family_label, str(lam), n,
                    str(dl.coeff), dl.pi_power, float(dl),
                    str(cg.coeff) if cg else "", cg.pi_power if cg else "",
                    float(cg) if cg else "",
                    dh, str(w.coeff), w.pi_power, float(w),
                ])
    return buf.getvalue()
