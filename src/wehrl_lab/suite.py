"""Verification batteries for the four mathematical modules.

run_suite executes the named battery and returns an exit code together with
the report stream; exit code 0 means every report passed.  Each report's
verdict comes from _check, which judges every comparison the report makes.
A FAIL never aborts the batch.  With convention="paper" the tensor-product
completeness identity is expected to fail; the report records both totals.
"""

from __future__ import annotations

import csv
import functools
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
_MC_BUDGET = 1_000_000  # samples of the suite's Monte Carlo check

# Where a tolerance comes from: exact equality (tolerance 0); a quadrature
# rule exact on the integrand, leaving rounding; an error bound the oracle
# computes; a multiple of a Monte Carlo standard error; a stated value.
_SOURCES = ("exact", "rule_exactness", "error_bound", "n_sigma", "stated")


def _check(command: str, inputs: dict, comparisons, outputs=None, seed=None,
           failed_key=None) -> Report:
    """The report of one check, which PASSes iff every comparison passes.

    A comparison (label, value, reference, tolerance, source) passes when
    |value - reference| <= tolerance; a sixth element True makes it one-sided,
    value - reference >= -tolerance, with a signed deviation.  Exact values
    (Fraction or PiScaledRational) take tolerance 0 and source "exact" and
    compare as Fractions; at different powers of pi the deviation is null.
    outputs are shown beside the comparisons; failed_key names an output
    listing the failed labels."""
    judged = {}
    for label, value, reference, tolerance, source, *side in comparisons:
        if source not in _SOURCES or source == "exact" and tolerance:
            raise ValueError(f"{label}: tolerance {tolerance!r} from {source!r}")
        one_sided, exact = any(side), source == "exact"
        if exact:
            value, reference = (x if isinstance(x, PiScaledRational)
                                else PiScaledRational(x)
                                for x in (value, reference))
            diff = (value.coeff - reference.coeff
                    if value.pi_power == reference.pi_power else None)
        else:
            diff = value - reference
        dev = diff if one_sided or diff is None else abs(diff)
        passed = dev is not None and bool(dev >= -tolerance if one_sided
                                          else dev <= tolerance)
        if exact:
            value, reference = value.to_json(), reference.to_json()
            if dev is not None:
                dev = PiScaledRational(dev, reference["pi_power"]).to_json()
        judged[label] = {"value": value, "reference": reference,
                         "deviation": dev, "tolerance": tolerance,
                         "tolerance_source": source, "one_sided": one_sided,
                         "passed": passed}
    failed = [label for label, c in judged.items() if not c["passed"]]
    outputs = dict(outputs or {}, comparisons=judged)
    if failed_key:
        outputs[failed_key] = failed
    return Report(command=command, inputs=inputs, outputs=outputs,
                  verdict="FAIL" if failed else "PASS", seed=seed)


def _rand_rational_poly(rng: np.random.Generator, nu,
                        degree: int) -> dc.PolyFun:
    # numerator then denominator per coefficient, as scalar draws read them
    cs = [Fraction(p, q) for p, q in rng.integers(
        np.tile([-5, 1], degree + 1), 6).reshape(-1, 2).tolist()]
    if all(c == 0 for c in cs):
        cs[0] = Fraction(1)
    return dc.PolyFun(Fraction(nu), tuple(cs))


# ---------------------------------------------------------------------------

def _suite_degrees(config: SuiteConfig) -> list[Report]:
    disc, sp2, pi = PRESETS["disc"], PRESETS["Sp(2,R)"], PiScaledRational
    reports = [_check(
        "degrees.scalar_formal_degree", {"domain": name, "lambda": "4"},
        [("d_lambda", dg.scalar_formal_degree(PRESETS[name], 4), pi(c, k), 0,
          "exact")]) for name, c, k in (("disc", 3, -1), ("Sp(2,R)", 15, -3))]

    lam = Fraction(4)
    c_root = (dg.scalar_formal_degree(sp2, lam)
              / dg.hc_degree_root_product(dg.ROOT_SYSTEM_PRESETS["C2"], lam))
    reports.append(_check(
        "degrees.c_G_three_way", {"domain": "Sp(2,R)"},
        [("proof_formula", dg.c_G(sp2), pi(3, -3), 0, "exact"),
         ("so23_case", dg.c_G(PRESETS["SO(2,3)"]), pi(3, -3), 0, "exact"),
         ("root_product_ratio", c_root, pi(3, -3), 0, "exact"),
         ("statement_formula_mismatch",
          dg.c_G(sp2, sp_statement_formula=True), pi(6, -3), 0, "exact")]))

    for rs, dom, lam in (("A1", "disc", Fraction(4)), ("A2", "SU(2,1)",
                         Fraction(5)), ("C2", "Sp(2,R)", Fraction(4))):
        reports.append(_check(
            "degrees.hc_cross_check", {"root_system": rs, "lambda": str(lam)},
            [("root_product",
              dg.hc_degree_root_product(dg.ROOT_SYSTEM_PRESETS[rs], lam),
              dg.hc_degree_scalar(PRESETS[dom], lam), 0, "exact")]))

    reports.append(_check(
        "degrees.wehrl_constant", {"domain": "disc", "lambda": "2", "n": "2"},
        [("constant", dg.wehrl_constant(disc, 2, 2), pi(Fraction(1, 3), -1),
          0, "exact")]))
    reports.append(_check(
        "degrees.partial_isometry_constant",
        {"domain": "disc", "lambda": "2", "lambda2": "3"},
        [("constant", dg.partial_isometry_constant(disc, 2, 3),
          pi(Fraction(1, 2), -1), 0, "exact")]))
    return reports


def _suite_selberg(config: SuiteConfig) -> list[Report]:
    spec = sb.SelbergSpec(2, 1, 0, 0)
    closed = sb.selberg_closed(spec)
    reports = [_check(
        "selberg.closed_form", {"r": 2, "a": 1, "b": 0, "gamma": 0},
        [("value", closed, Fraction(1, 3), 0, "exact")])]

    est = sb.selberg_numeric(spec, "monte_carlo", _MC_BUDGET, config.seed)
    reports.append(_check(
        "selberg.monte_carlo_3sigma",
        {"r": 2, "a": 1, "b": 0, "gamma": 0, "budget": _MC_BUDGET},
        [("estimate", est.value, float(closed), 3 * est.stderr, "n_sigma")],
        {"stderr": est.stderr,
         "deviation": abs(est.value - float(closed))}, seed=config.seed))

    spec2 = sb.SelbergSpec(2, 2, 0, 1)
    closed2 = sb.selberg_closed(spec2)
    est2, ref = sb.selberg_numeric(spec2, "gauss_jacobi", 120), float(closed2)
    reports.append(_check(  # float(closed2) rounds by at most half an ulp
        "selberg.gauss_jacobi", {"r": 2, "a": 2, "b": 0, "gamma": 1},
        [("estimate", est2.value, ref, est2.abs_err_bound + math.ulp(ref) / 2,
          "error_bound")], {"closed": exact_json(closed2)}))

    for name, lam in (("disc", Fraction(3)), ("Sp(2,R)", Fraction(9, 2)),
                      ("SO(2,3)", Fraction(7, 2))):
        rep = sb.verify_degree_integral(PRESETS[name], lam)
        reports.append(_check(
            "selberg.verify_degree_integral", {"domain": name,
                                               "lambda": str(lam)},
            [("product", rep["product"], 1.0, rep["error_bound"],
              "error_bound")], rep))
    return reports


def _suite_disc(config: SuiteConfig) -> list[Report]:
    rng = np.random.default_rng(config.seed)
    conv = PROJECTION_CONVENTION[config.convention]
    remainder = REMAINDER_CONVENTION[config.convention]

    # Norm quadrature vs exact monomial expansion.
    f = _rand_rational_poly(rng, Fraction(5, 2), 6)
    exact = float(dc.norm2_exact(f))
    reports = [_check(
        "disc.norm_quadrature", {"nu": "5/2", "degree": 6},
        [("quadrature", dc.norm_p_numeric(f, 2), exact, 1e-10 * exact,
          "rule_exactness")], seed=config.seed)]

    # Completeness of the component projections (convention-sensitive).
    # total and expected are lists parallel to pairs; failed_pairs names
    # every pair whose totals differ.
    weights = ((Fraction(2), Fraction(2)), (Fraction(5, 2), Fraction(7, 2)))
    pairs = [f"({mu},{nu})" for mu, nu in weights]
    reps = [dc.completeness_check(_rand_rational_poly(rng, mu, 4),
                                  _rand_rational_poly(rng, nu, 4), conv)
            for mu, nu in weights]
    reports.append(_check(
        "disc.completeness", {"convention": config.convention, "degree": 4},
        [(p, r.total, r.expected, 0, "exact") for p, r in zip(pairs, reps)],
        {"pairs": pairs, "total": [exact_json(r.total) for r in reps],
         "expected": [exact_json(r.expected) for r in reps]},
        seed=config.seed, failed_key="failed_pairs"))

    # First-subleading component of f^{(x) n} vanishes identically.
    q1_norms = {str(n): dc.q1_iterated(
        _rand_rational_poly(rng, Fraction(2), 5), n, conv).norm2()
        for n in (2, 3)}
    reports.append(_check(
        "disc.q1_vanishing", {"n": "2,3", "nu": "2", "degree": 5},
        [(f"n={n}", v, 0, 0, "exact") for n, v in q1_norms.items()],
        {"norm2": {n: exact_json(v) for n, v in q1_norms.items()}},
        seed=config.seed))

    # Wehrl inequality on random polynomials and near-equality on kernels.
    def unit_slack(g):  # wehrl_check's slack of g / ||g||
        return dc.wehrl_check(g.scale(1.0 / math.sqrt(dc.norm2_exact(g))), 2)[2]
    slacks = [unit_slack(_rand_rational_poly(rng, Fraction(2), 6))
              for _ in range(20)]
    kslack = unit_slack(dc.KernelFun(Fraction(2), 0.4, 40).to_polyfun())
    reports.append(_check(
        "disc.wehrl_inequality", {"nu": "2", "n": "2", "samples": 20},
        [("min_slack", min(slacks), 0.0, 1e-12, "stated", True),
         ("kernel_slack", kslack, 0.0, 1e-8, "stated")], seed=config.seed))

    # Improved inequality with the configured remainder constant.
    slacks = [dc.improved_check(_rand_rational_poly(rng, Fraction(2), 5), 2,
                                remainder).exact_slack for _ in range(20)]
    eq = dc.improved_check(dc.PolyFun(Fraction(2), (1, 1)), 2, "sharp")
    reports.append(_check(
        "disc.improved_inequality", {"remainder_constant": remainder},
        [("min_slack", min(slacks), 0, 0, "exact", True),
         ("equality_case_slack", eq.exact_slack, 0, 0, "exact")],
        seed=config.seed))

    # Kernel ODE characterization.
    sol = dc.ode_solve(Fraction(5, 2), Fraction(1, 3), 10)
    kf = dc.KernelFun(Fraction(5, 2), Fraction(2, 15), 10).to_polyfun()
    try:
        dc.ode_solve(Fraction(2), Fraction(2), 4)
        raised = 0
    except dc.OutsideBergman:
        raised = 1
    dist2 = sum((a.re - b.re) ** 2 + (a.im - b.im) ** 2
                for a, b in zip(sol.coeffs, kf.coeffs, strict=True))
    reports.append(_check(
        "disc.ode_kernel", {"nu": "5/2", "c": "1/3"},
        [("coefficient_distance2", dist2, 0, 0, "exact"),
         ("outside_bergman_raised", raised, 1, 0, "exact")]))

    # Matrix-coefficient integral route.
    h = _rand_rational_poly(rng, Fraction(3), 5)
    parseval = float(dc.product_norm2([h, h], 6)) / 5.0
    reports.append(_check(
        "disc.matrix_coeff_lp", {"nu": "3", "n": "2"},
        [("quadrature", dc.matrix_coeff_lp(h, 2), parseval, 1e-8 * parseval,
          "rule_exactness")], seed=config.seed))

    # Maximizer search (small instance).
    res = dc.maximize_wehrl(2, 2, 8, seed=config.seed)
    reports.append(_check(
        "disc.maximize_wehrl", {"nu": "2", "n": "2", "degree": 8},
        [("objective", res.objective, 1.0, 1e-6, "stated", True),
         ("kernel_distance", res.kernel_distance, 0.0, 1e-4, "stated")],
        {"iterations": res.iterations}, seed=config.seed))
    return reports


def _suite_compact(config: SuiteConfig) -> list[Report]:
    rng = np.random.default_rng(config.seed)

    numeric, closed = max(
        ((cp.haar_moment(p, q), float(cp.haar_moment_closed(p, q)))
         for p in range(4) for q in range(4)), key=lambda m: abs(m[0] - m[1]))
    reports = [_check("compact.haar_moments", {"p": "0..3", "q": "0..3"},
                      [("max_deviation", numeric, closed, 1e-12,
                        "rule_exactness")])]

    v = np.array([1.0, 0.0, 1.0]) / math.sqrt(2)
    rep = cp.wehrl_compact_check(v, 2, 2)
    u = dc.PolyFun(2, (1, 0, 1))  # v's Bloch coefficients; weight unread
    mass, norm2 = dc.product_norm2([u] * 2, -4), dc.product_norm2([u], -2)
    reports.append(_check(
        "compact.exact_case", {"m": 2, "n": 2, "vector": "(e2+e-2)/sqrt2"},
        [("exact", mass / (norm2 ** 2 * 5), Fraction(2, 15), 0, "exact"),
         ("numeric", rep.integral_numeric, 2 / 15, 1e-10, "rule_exactness")],
        {"bound": rep.bound}))

    checks = [cp.wehrl_compact_check(cp.random_unit_vector(m, rng), m, n)
              for m in range(1, 5) for n in (2, 3)]
    worst = max(checks, key=lambda r: abs(r.integral_numeric
                                          - r.integral_exact))
    reports.append(_check(
        "compact.wehrl_bound_random", {"m": "1..4", "n": "2,3"},
        [("min_slack", min(r.slack for r in checks), 0.0, 1e-10, "stated",
          True),
         ("max_route_gap", worst.integral_numeric, worst.integral_exact,
          1e-6, "rule_exactness")], seed=config.seed))

    t = cp.translate_vector(3, 0.4, 1.0, -0.2)
    r = cp.wehrl_compact_check(t, 3, 2)
    cas = cp.casimir_tensor_check(t, 3)
    reports.append(_check(
        "compact.equality_on_translates", {"m": 3, "n": 2},
        [("slack", r.slack, 0.0, 1e-10, "stated"),
         ("casimir_residual", cas.residual, 0.0, 1e-12, "stated")],
        {"fit_distance": cp.translate_fit_distance(t, 3)}))
    return reports


_SUITES = {
    "degrees": _suite_degrees,
    "selberg": _suite_selberg,
    "disc": _suite_disc,
    "compact": _suite_compact,
}


def run_suite(name: str, config: SuiteConfig) -> tuple[int, list[Report]]:
    """Run the named battery; exit code 0 iff every report PASSes."""
    if name not in SUITE_NAMES:
        raise ConfigError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    names = list(_SUITES) if name == "all" else [name]
    reports = []
    for n in names:
        reports.extend(_SUITES[n](config))
    return int(any(r.verdict == "FAIL" for r in reports)), reports


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
    degree = functools.cache(dg.scalar_formal_degree)  # d_x once per call
    for name in domains:
        d = get_domain(name)
        try:
            cg = dg.c_G(d)
        except dg.UnsupportedCase:
            cg = None
        lams = [x for x in map(Fraction, lam_grid) if hc_admissible(d, x)]
        for lam in lams:
            dl = degree(d, lam)
            dh = str((dl / cg).as_rational()) if cg else ""
            for n in [n for n in n_grid if hc_admissible(d, n * lam)]:
                w = dl ** n / degree(d, n * lam)  # wehrl_constant(d, lam, n)
                writer.writerow([
                    d.family_label, str(lam), n,
                    str(dl.coeff), dl.pi_power, float(dl),
                    str(cg.coeff) if cg else "", cg.pi_power if cg else "",
                    float(cg) if cg else "",
                    dh, str(w.coeff), w.pi_power, float(w),
                ])
    return buf.getvalue()
