"""Verification batteries for the four mathematical modules.

A battery draws its inputs, from its seeded generator if it has one, and
returns one _Record per report: its command, inputs and seed and two routes,
zero-argument callables that run apart, value (the oracle or the quantity
under test) and reference (what it is held to); a test runs one alone as
record.value().  _check, the one runner, judges judge(value(), reference()),
the report's comparisons and outputs.  run_suite returns an exit code, 0 iff
every report PASSes, and the reports; a FAIL never aborts the batch.  With
convention="paper" the tensor-product completeness identity fails.
"""

from __future__ import annotations

import csv
import io
import math
from collections import namedtuple
from fractions import Fraction
from functools import cache, partial

import numpy as np

from . import compact as cp
from . import degrees as dg
from . import disc as dc
from . import selberg as sb
from .domains import PRESETS, get_domain, hc_admissible
from .exactnum import PiScaledRational, check_counts, check_weight
from .reports import (PROJECTION_CONVENTION, REMAINDER_CONVENTION,
                      ConfigError, Report, SuiteConfig, exact_json)

__all__ = ["run_suite", "emit_constants_table", "SUITE_NAMES"]

SUITE_NAMES = ("degrees", "selberg", "disc", "compact", "all")
_MC_BUDGET = 1_000_000  # samples of the suite's Monte Carlo check

# Where a tolerance comes from: exact equality (tolerance 0); a quadrature
# rule exact on the integrand, leaving rounding; an error bound the oracle
# computes; a multiple of a Monte Carlo standard error; a stated value.
_SOURCES = ("exact", "rule_exactness", "error_bound", "n_sigma", "stated")

_Record = namedtuple("_Record", "command inputs value reference judge seed "
                     "failed_key", defaults=(None, None))


def _check(record: _Record) -> Report:
    """The report of one record, which PASSes iff every comparison passes.

    A comparison (label, value, reference, tolerance, source) passes when
    |value - reference| <= tolerance; a sixth element True makes it one-sided,
    value - reference >= -tolerance, with a signed deviation.  Exact values
    (Fraction or PiScaledRational) take tolerance 0 and source "exact" and
    compare as Fractions; at different powers of pi the deviation is null.
    record.failed_key, if set, names an output listing the failed labels."""
    comparisons, outputs = record.judge(record.value(), record.reference())
    judged = {}
    for label, value, reference, tolerance, source, *side in comparisons:
        if source not in _SOURCES or source == "exact" and tolerance:
            raise ValueError(f"{label}: tolerance {tolerance!r} from {source!r}")
        one_sided, exact = any(side), source == "exact"
        if exact:
            value, reference = (x if isinstance(x, PiScaledRational) else
                                PiScaledRational(x) for x in (value, reference))
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
    outputs = dict(outputs, comparisons=judged)
    if record.failed_key:
        outputs[record.failed_key] = failed
    return Report(record.command, record.inputs, outputs,
                  "FAIL" if failed else "PASS", record.seed)


def _gates(*gates, shown=lambda value: {}):
    """The judge pairing the routes' results entry by entry (as they are at
    one gate) with gates (label, tolerance, source[, one-sided]), a bare
    label being (label, 0, "exact"), a callable tolerance read as
    tolerance(reference); the outputs are shown(value)."""
    gates = [(g, 0, "exact") if isinstance(g, str) else g for g in gates]
    return lambda value, ref: ([
        (label, v, r, tol(r) if callable(tol) else tol, *rest)
        for (label, tol, *rest), (v, r) in zip(gates, zip(value, ref) if len(
            gates) > 1 else [(value, ref)])], shown(value))


def _rand_rational_poly(rng: np.random.Generator, nu,
                        degree: int) -> dc.PolyFun:
    # numerator then denominator per coefficient, as scalar draws read them
    cs = [Fraction(p, q) for p, q in rng.integers(
        np.tile([-5, 1], degree + 1), 6).reshape(-1, 2).tolist()]
    if all(c == 0 for c in cs):
        cs[0] = Fraction(1)
    return dc.PolyFun(Fraction(nu), tuple(cs))


# ---------------------------------------------------------------------------

def _suite_degrees(config: SuiteConfig) -> list[_Record]:
    disc, sp2, pi = PRESETS["disc"], PRESETS["Sp(2,R)"], PiScaledRational
    degree, roots = dg.scalar_formal_degree, dg.ROOT_SYSTEM_PRESETS
    rows = [("scalar_formal_degree", {"domain": name, "lambda": "4"},
             partial(degree, PRESETS[name], 4), partial(pi, c, k), ["d_lambda"])
            for name, c, k in (("disc", 3, -1), ("Sp(2,R)", 15, -3))]
    rows.append(("c_G_three_way", {"domain": "Sp(2,R)"}, lambda: (
        dg.c_G(sp2), dg.c_G(PRESETS["SO(2,3)"]),
        degree(sp2, 4) / dg.hc_degree_root_product(roots["C2"], 4),
        dg.c_G(sp2, sp_statement_formula=True)),
        lambda: (pi(3, -3),) * 3 + (pi(6, -3),), [
            "proof_formula", "so23_case", "root_product_ratio",
            "statement_formula_mismatch"]))
    rows += [("hc_cross_check", {"root_system": rs, "lambda": str(lam)},
              partial(dg.hc_degree_root_product, roots[rs], lam),
              partial(dg.hc_degree_scalar, PRESETS[dom], lam), ["root_product"])
             for rs, dom, lam in (("A1", "disc", 4), ("A2", "SU(2,1)", 5),
                                  ("C2", "Sp(2,R)", 4))]
    rows += [("wehrl_constant", {"domain": "disc", "lambda": "2", "n": "2"},
              partial(dg.wehrl_constant, disc, 2, 2),
              partial(pi, Fraction(1, 3), -1), ["constant"]),
             ("partial_isometry_constant",
              {"domain": "disc", "lambda": "2", "lambda2": "3"},
              partial(dg.partial_isometry_constant, disc, 2, 3),
              partial(pi, Fraction(1, 2), -1), ["constant"])]
    return [_Record(f"degrees.{command}", inputs, value, ref, _gates(*labels))
            for command, inputs, value, ref, labels in rows]


def _suite_selberg(config: SuiteConfig) -> list[_Record]:
    spec, spec2 = sb.SelbergSpec(2, 1, 0, 0), sb.SelbergSpec(2, 2, 0, 1)
    def product(d, lam, numeric, d_exact):  # verify_degree_integral's judge
        rep = sb._degree_product(d, lam, numeric, d_exact)
        return [("product", rep["product"], 1.0, rep["error_bound"],
                 "error_bound")], rep
    return [_Record(
        "selberg.closed_form", {"r": 2, "a": 1, "b": 0, "gamma": 0},
        partial(sb.selberg_closed, spec), partial(Fraction, 1, 3),
        _gates("value")), _Record(
        "selberg.monte_carlo_3sigma",
        {"r": 2, "a": 1, "b": 0, "gamma": 0, "budget": _MC_BUDGET},
        partial(sb.selberg_numeric, spec, "monte_carlo", _MC_BUDGET,
                config.seed), lambda: float(sb.selberg_closed(spec)),
        lambda est, ref: (
            [("estimate", est.value, ref, 3 * est.stderr, "n_sigma")],
            {"stderr": est.stderr, "deviation": abs(est.value - ref)}),
        config.seed), _Record(  # float(closed) is within half an ulp
        "selberg.gauss_jacobi", {"r": 2, "a": 2, "b": 0, "gamma": 1},
        partial(sb.selberg_numeric, spec2, "gauss_jacobi", 120),
        partial(sb.selberg_closed, spec2), lambda est, closed: (
            [("estimate", est.value, float(closed), est.abs_err_bound
              + math.ulp(float(closed)) / 2, "error_bound")],
            {"closed": exact_json(closed)}))] + [_Record(
        "selberg.verify_degree_integral", {"domain": name, "lambda": str(lam)},
        partial(sb._inverse_degree, PRESETS[name], lam, 200),
        partial(dg.scalar_formal_degree, PRESETS[name], lam),
        partial(product, PRESETS[name], lam))
        for name, lam in (("disc", Fraction(3)), ("Sp(2,R)", Fraction(9, 2)),
                          ("SO(2,3)", Fraction(7, 2)))]


def _suite_disc(config: SuiteConfig) -> list[_Record]:
    rng, seed, two = np.random.default_rng(config.seed), config.seed, Fraction(2)
    conv = PROJECTION_CONVENTION[config.convention]
    remainder = REMAINDER_CONVENTION[config.convention]
    poly = partial(_rand_rational_poly, rng)
    # Norm quadrature vs exact monomial expansion.
    f = poly(Fraction(5, 2), 6)
    records = [_Record(
        "disc.norm_quadrature", {"nu": "5/2", "degree": 6},
        partial(dc.norm_p_numeric, f, 2), lambda: float(dc.norm2_exact(f)),
        _gates(("quadrature", lambda x: 1e-10 * x, "rule_exactness")), seed)]
    # Completeness of the component projections (convention-sensitive): the
    # Q_k masses' totals and ||f||^2 ||g||^2, lists parallel to pairs;
    # failed_pairs names every pair whose totals differ.
    weights = ((two, two), (Fraction(5, 2), Fraction(7, 2)))
    pairs = [f"({mu},{nu})" for mu, nu in weights]
    fg = [(poly(mu, 4), poly(nu, 4)) for mu, nu in weights]
    records.append(_Record(
        "disc.completeness", {"convention": config.convention, "degree": 4},
        lambda: [dc.completeness_check(f, g, conv).total for f, g in fg],
        lambda: [dc.norm2_exact(f) * dc.norm2_exact(g) for f, g in fg],
        lambda total, expected: (
            [(p, t, e, 0, "exact") for p, t, e in zip(pairs, total, expected)],
            {"pairs": pairs, "total": [*map(exact_json, total)],
             "expected": [*map(exact_json, expected)]}), seed, "failed_pairs"))
    # First-subleading component of f^{(x) n} vanishes identically.
    q1 = {str(n): poly(two, 5) for n in (2, 3)}
    records.append(_Record(
        "disc.q1_vanishing", {"n": "2,3", "nu": "2", "degree": 5},
        lambda: {n: dc.q1_iterated(g, int(n), conv).norm2()
                 for n, g in q1.items()}, lambda: 0, lambda norm2, zero: (
            [(f"n={n}", v, zero, 0, "exact") for n, v in norm2.items()],
            {"norm2": {n: exact_json(v) for n, v in norm2.items()}}), seed))
    # Wehrl inequality on random polynomials and near-equality on kernels.
    def unit_slack(g):  # wehrl_check's slack of g / ||g||
        return dc.wehrl_check(g.scale(1.0 / math.sqrt(dc.norm2_exact(g))), 2)[2]
    polys = [poly(two, 6) for _ in range(20)]
    records.append(_Record(
        "disc.wehrl_inequality", {"nu": "2", "n": "2", "samples": 20},
        lambda: (min(map(unit_slack, polys)), unit_slack(
            dc.KernelFun(two, 0.4, 40).to_polyfun())), lambda: (0.0, 0.0),
        _gates(("min_slack", 1e-12, "stated", True),
               ("kernel_slack", 1e-8, "stated")), seed))
    # Improved inequality with the configured remainder constant.
    improved = [poly(two, 5) for _ in range(20)]
    records.append(_Record(
        "disc.improved_inequality", {"remainder_constant": remainder},
        lambda: (min(dc.improved_check(g, 2, remainder).exact_slack
                     for g in improved), dc.improved_check(
            dc.PolyFun(two, (1, 1)), 2, "sharp").exact_slack), lambda: (0, 0),
        _gates(("min_slack", 0, "exact", True), "equality_case_slack"), seed))
    # Kernel ODE characterization: the series solution's squared distance to
    # the kernel, and 1 where the solver refuses |c| >= nu.
    def refused():
        try:
            dc.ode_solve(two, two, 4)
        except dc.OutsideBergman:
            return 1
        return 0
    records.append(_Record(
        "disc.ode_kernel", {"nu": "5/2", "c": "1/3"}, lambda: (
            dc.ode_solve(Fraction(5, 2), Fraction(1, 3), 10).coeffs, refused()),
        lambda: (dc.KernelFun(Fraction(5, 2), Fraction(2, 15),
                              10).to_polyfun().coeffs, 1),
        lambda ode, kernel: ([("coefficient_distance2", sum(
            (a.re - b.re) ** 2 + (a.im - b.im) ** 2 for a, b in zip(
                ode[0], kernel[0], strict=True)), 0, 0, "exact"),
            ("outside_bergman_raised", ode[1], kernel[1], 0, "exact")], {})))
    # Matrix-coefficient integral route.
    h = poly(Fraction(3), 5)
    records.append(_Record(
        "disc.matrix_coeff_lp", {"nu": "3", "n": "2"},
        partial(dc.matrix_coeff_lp, h, 2),
        lambda: float(dc.product_norm2([h, h], 6)) / 5.0,
        _gates(("quadrature", lambda x: 1e-8 * x, "rule_exactness")), seed))
    # Maximizer search (small instance).
    records.append(_Record(
        "disc.maximize_wehrl", {"nu": "2", "n": "2", "degree": 8},
        partial(dc.maximize_wehrl, 2, 2, 8, seed=seed), lambda: (1.0, 0.0),
        lambda res, ref: ([
            ("objective", res.objective, ref[0], 1e-6, "stated", True),
            ("kernel_distance", res.kernel_distance, ref[1], 1e-4, "stated")],
            {"iterations": res.iterations}), seed))
    return records


def _suite_compact(config: SuiteConfig) -> list[_Record]:
    rng = np.random.default_rng(config.seed)
    moments = [(p, q) for p in range(4) for q in range(4)]
    records = [_Record(
        "compact.haar_moments", {"p": "0..3", "q": "0..3"},
        lambda: [cp.haar_moment(p, q) for p, q in moments],
        lambda: [float(dg.gamma_ratio_product((p + 1, q + 1), (p + q + 2,)))
                 for p, q in moments],
        lambda numeric, closed: ([("max_deviation", *max(
            zip(numeric, closed), key=lambda m: abs(m[0] - m[1])), 1e-12,
            "rule_exactness")], {}))]
    v = np.array([1.0, 0.0, 1.0]) / math.sqrt(2)
    u = dc.PolyFun(2, (1, 0, 1))  # v's Bloch coefficients; weight unread
    records.append(_Record(
        "compact.exact_case", {"m": 2, "n": 2, "vector": "(e2+e-2)/sqrt2"},
        lambda: (dc.product_norm2([u] * 2, -4)
                 / (dc.product_norm2([u], -2) ** 2 * 5),
                 cp.wehrl_integral_numeric(v, 2, 2)),
        lambda: (Fraction(2, 15), 2 / 15),
        _gates("exact", ("numeric", 1e-10, "rule_exactness"),
               shown=lambda _: {"bound": 1 / 5})))  # 1 / (nm + 1)
    # Haar quadrature against _top_route's integral_exact, bound, slack, mass.
    shapes = [(m, n) for m in range(1, 5) for n in (2, 3)]
    vs = [cp.random_unit_vector(m, rng) for m, _ in shapes]
    def gap_and_slack(numeric, top):
        worst = max(zip(numeric, top), key=lambda x: abs(x[0] - x[1][0]))
        return [("min_slack", min(t[2] for t in top), 0.0, 1e-10, "stated",
                 True), ("max_route_gap", worst[0], worst[1][0], 1e-6,
                         "rule_exactness")], {}
    records.append(_Record(
        "compact.wehrl_bound_random", {"m": "1..4", "n": "2,3"},
        lambda: [cp.wehrl_integral_numeric(v, *s) for v, s in zip(vs, shapes)],
        lambda: [cp._top_route(v, *s) for v, s in zip(vs, shapes)],
        gap_and_slack, config.seed))
    t = cp.translate_vector(3, 0.4, 1.0, -0.2)  # [2] of _top_route: slack
    records.append(_Record(
        "compact.equality_on_translates", {"m": 3, "n": 2},
        lambda: (cp._top_route(t, 3, 2)[2], cp.casimir_tensor_check(
            t, 3).residual, cp.translate_fit_distance(t, 3)),
        lambda: (0.0, 0.0), _gates(
            ("slack", 1e-10, "stated"), ("casimir_residual", 1e-12, "stated"),
            shown=lambda value: {"fit_distance": value[2]})))
    return records


_SUITES = {"degrees": _suite_degrees, "selberg": _suite_selberg,
           "disc": _suite_disc, "compact": _suite_compact}


def run_suite(name: str, config: SuiteConfig) -> tuple[int, list[Report]]:
    """Run the named battery; exit code 0 iff every report PASSes."""
    if name not in SUITE_NAMES:
        raise ConfigError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    names = list(_SUITES) if name == "all" else [name]
    reports = [_check(record) for n in names for record in _SUITES[n](config)]
    return int(any(r.verdict == "FAIL" for r in reports)), reports


def emit_constants_table(domains: list[str], lam_grid, n_grid) -> str:
    """CSV with one row per admissible (domain, lambda, n): the formal degree,
    c_G, Harish-Chandra degree and sharp Wehrl constant, exact and float."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([
        "domain", "lambda", "n", "d_lambda_coeff", "d_lambda_pi_power",
        "d_lambda_float", "c_G_coeff", "c_G_pi_power", "c_G_float", "d_H",
        "wehrl_coeff", "wehrl_pi_power", "wehrl_float"])
    degree = cache(dg.scalar_formal_degree)  # d_x once per call
    lam_grid = [check_weight("lam_grid", x) for x in lam_grid]
    check_counts(*(("n_grid", n, 1) for n in n_grid))
    for name in domains:
        d = get_domain(name)
        try:
            cg = dg.c_G(d)
        except dg.UnsupportedCase:
            cg = None
        for lam in [x for x in lam_grid if hc_admissible(d, x)]:
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
