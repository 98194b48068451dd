"""Command-line interface.

Every subcommand emits JSON (or CSV for tables); exact rationals appear as
numerator/denominator strings with an integer pi power next to a float
rendition.  Bad input exits with status 2 and one "Error:" line; status 1
is left to a failed suite check and to a maximizer search that does not
converge, which prints one JSON line: its stop_reason, message and seed.
"""

from __future__ import annotations

import csv
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import click
import numpy as np

from . import compact as cp
from . import degrees as dg
from . import disc as dc
from . import selberg as sb
from .domains import get_domain, preset_table
from .exactnum import FloatRangeExceeded, check_number, check_weight
from .reports import (PROJECTION_CONVENTION, REMAINDER_CONVENTION,
                      SuiteConfig, exact_json)
from .suite import SUITE_NAMES, emit_constants_table, run_suite


_SEED = click.IntRange(min=0)  # numpy's generators take no negative seed


def _echo_json(payload):
    click.echo(json.dumps(payload, sort_keys=True))


def _split_names(text: str) -> list[str]:
    """Split on commas that are not inside parentheses (preset names like
    Sp(2,R) contain commas)."""
    return [s.strip() for s in re.split(r",(?![^(]*\))", text) if s.strip()]


def _read(read, option: str, items) -> list:
    """[read(name, x) for x in items], name the option's; BadParameter on the
    option where the library's rule refuses an item."""
    try:
        return [read(option.lstrip("-"), x) for x in items]
    except (ValueError, ZeroDivisionError) as exc:
        raise click.BadParameter(str(exc), param_hint=f"'{option}'") from None


def _weight(ctx, param, text: str) -> Fraction:
    """A weight option's text through the library's gate, refused on it."""
    return _read(check_weight, param.opts[0], [text])[0]


def _value_json(x) -> dict:
    return exact_json(x) if isinstance(x, Fraction) else {"float": float(x)}


class _Main(click.Group):
    """Bad input (the library's ValueError, a zero denominator, get_domain's
    KeyError) ends in one "Error:" line and status 2, not a traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ValueError, ZeroDivisionError, KeyError) as exc:
            raise click.UsageError(exc.args[0] if isinstance(exc, KeyError)
                                   else str(exc)) from None


@click.group(cls=_Main)
def main():
    """Exact constants and numerical checks for Wehrl-type inequalities."""


@main.group()
def domains():
    """Bounded symmetric domain presets."""


@domains.command("list")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
              default="json")
def domains_list(fmt):
    rows = preset_table()
    if fmt == "json":
        _echo_json(rows)
        return
    writer = csv.DictWriter(sys.stdout, list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)


@main.command()
@click.option("--domain", required=True,
              help="preset name or r,a,b triple")
@click.option("--lambda", "lam", required=True, callback=_weight,
              help="weight parameter")
@click.option("--n", default=2, show_default=True, type=int)
def degrees(domain, lam, n):
    """Formal degree, c_G, Harish-Chandra degree and Wehrl constant."""
    d = get_domain(domain)
    out = {"domain": d.family_label, "lambda": str(lam), "n": n,
           "d_lambda": dg.scalar_formal_degree(d, lam).to_json(),
           "wehrl_constant": dg.wehrl_constant(d, lam, n).to_json()}
    try:
        out["c_G"] = dg.c_G(d).to_json()
        out["d_H"] = exact_json(dg.hc_degree_scalar(d, lam))
    except dg.UnsupportedCase as exc:
        out["c_G"] = {"error": str(exc)}
    _echo_json(out)


@main.command()
@click.option("--r", required=True, type=int)
@click.option("--a", required=True, callback=_weight)
@click.option("--b", required=True, callback=_weight)
@click.option("--gamma", required=True, callback=_weight)
@click.option("--method", default="monte_carlo", show_default=True,
              type=click.Choice(["monte_carlo", "gauss_jacobi"]))
@click.option("--budget", default=100_000, show_default=True, type=int,
              help="monte_carlo: samples; gauss_jacobi: most nodes per axis")
@click.option("--seed", default=0, show_default=True, type=_SEED)
def selberg(r, a, b, gamma, method, budget, seed):
    """Closed form and numerical estimate of the Selberg integral."""
    spec = sb.SelbergSpec(r, a, b, gamma)
    closed = sb.selberg_closed(spec)
    est = sb.selberg_numeric(spec, method, budget, seed)
    _echo_json({
        "closed_form": _value_json(closed),
        "estimate": est.value,
        "stderr": est.stderr,
        "abs_err_bound": est.abs_err_bound,
        "deviation": abs(est.value - float(closed)),
        "method": est.method,
        "samples_or_nodes": est.samples_or_nodes,
        "seed": seed,
    })


@main.group()
def disc():
    """Weighted Bergman spaces on the unit disc."""


def _get_poly(nu, coeffs, nu_opt="--nu", coeffs_opt="--coeffs"):
    """PolyFun(nu, parsed coeffs); BadParameter on the option of a bad one."""
    values = _read(check_number, coeffs_opt, coeffs.split(","))
    try:
        return dc.PolyFun(nu, values)
    except ValueError as exc:
        opt = coeffs_opt if isinstance(exc, FloatRangeExceeded) else nu_opt
        raise click.BadParameter(str(exc), param_hint=f"'{opt}'") from None


@disc.command("norm")
@click.option("--nu", required=True, callback=_weight)
@click.option("--coeffs", required=True, help="comma-separated coefficients")
@click.option("--p", default=2, show_default=True, type=int)
def disc_norm(nu, coeffs, p):
    f = _get_poly(nu, coeffs)
    exact = {"norm2_exact": _value_json(dc.norm2_exact(f))} if p == 2 else {}
    _echo_json({"nu": str(nu), "p": p,
                "norm_p_numeric": dc.norm_p_numeric(f, p), **exact})


@disc.command("project")
@click.option("--mu", required=True, callback=_weight)
@click.option("--nu", required=True, callback=_weight)
@click.option("--k", required=True, type=int)
@click.option("--f", "f_coeffs", required=True)
@click.option("--g", "g_coeffs", required=True)
@click.option("--convention", default="corrected", show_default=True,
              type=click.Choice(list(PROJECTION_CONVENTION)))
def disc_project(mu, nu, k, f_coeffs, g_coeffs, convention):
    f = _get_poly(mu, f_coeffs, "--mu", "--f")
    g = _get_poly(nu, g_coeffs, "--nu", "--g")
    F = dc.TensorPoly.from_product(f, g)
    try:
        proj = dc.qk_project(F, k, PROJECTION_CONVENTION[convention])
    except ValueError as exc:  # ProjectionSpec's refusals
        raise click.BadParameter(str(exc), param_hint="'--k'") from None
    _echo_json({
        "k": k, "convention": convention,
        "c_squared": exact_json(proj.c2),
        "component_norm2": _value_json(proj.norm2()),
    })


@disc.command("wehrl")
@click.option("--nu", required=True, callback=_weight)
@click.option("--n", default=2, show_default=True, type=int)
@click.option("--coeffs", required=True)
def disc_wehrl(nu, n, coeffs):
    f = _get_poly(nu, coeffs)
    lhs, rhs, slack = dc.wehrl_check(f, n)
    _echo_json({"nu": str(nu), "n": n, "lhs": lhs, "rhs": rhs,
                "slack": slack})


@disc.command("improved")
@click.option("--nu", required=True, callback=_weight)
@click.option("--n", default=2, show_default=True, type=int)
@click.option("--coeffs", required=True)
@click.option("--convention", default="corrected", show_default=True,
              type=click.Choice(list(PROJECTION_CONVENTION)))
def disc_improved(nu, n, coeffs, convention):
    f = _get_poly(nu, coeffs)
    rep = dc.improved_check(f, n, REMAINDER_CONVENTION[convention])
    _echo_json({"nu": str(rep.nu), "n": n, "convention": rep.convention,
                "lhs": rep.lhs, "remainder": rep.remainder, "rhs": rep.rhs,
                "slack": rep.slack, "passed": rep.passed})


@disc.command("maximize")
@click.option("--nu", required=True, callback=_weight)
@click.option("--n", default=2, show_default=True, type=int)
@click.option("--degree", default=12, show_default=True, type=int)
@click.option("--seed", default=0, show_default=True, type=_SEED)
def disc_maximize(nu, n, degree, seed):
    try:
        res = dc.maximize_wehrl(nu, n, degree, seed=seed)
    except dc.NoConvergence as e:  # from the ascent or from its exit fit
        _echo_json(dict(stop_reason=e.stop_reason, message=str(e), seed=seed))
        sys.exit(1)
    _echo_json({"objective": res.objective,
                "kernel_distance": res.kernel_distance,
                "iterations": res.iterations,
                "grad_norm": res.grad_norm, "stop_reason": res.stop_reason,
                "seed": seed})


@disc.command("ode")
@click.option("--nu", required=True, callback=_weight)
@click.option("--c", required=True, callback=_weight)
@click.option("--degree", default=10, show_default=True, type=int)
def disc_ode(nu, c, degree):
    sol = dc.ode_solve(nu, c, degree)
    _echo_json({"nu": str(nu), "c": str(c),
                "coefficients": [str(x.re) for x in sol.coeffs],
                "kernel_parameter_conj": str(c / nu)})


@main.command()
@click.option("--m", required=True, type=click.IntRange(min=0))
@click.option("--n", default=2, show_default=True, type=int)
@click.option("--vector", default=None, help="comma-separated coefficients")
@click.option("--random", "random_", is_flag=True)
@click.option("--seed", default=0, show_default=True, type=_SEED)
def compact(m, n, vector, random_, seed):
    """SU(2) compact Wehrl check for one vector."""
    if vector is not None:
        values = _read(check_number, "--vector", vector.split(","))
        v = _read(lambda name, x: cp._unit(cp._vector(x, m)), "--vector",
                  [values])[0]
    elif random_:
        v = cp.random_unit_vector(m, np.random.default_rng(seed))
    else:
        v = np.zeros(m + 1, dtype=complex)
        v[0] = 1.0
    rep = cp.wehrl_compact_check(v, m, n)
    cas = cp.casimir_tensor_check(v, m)
    _echo_json({"m": m, "n": n, "exact": rep.integral_exact,
                "numeric": rep.integral_numeric, "bound": rep.bound,
                "slack": rep.slack, "eigcon_residual": cas.residual,
                "seed": seed})


@main.command()
@click.argument("name", type=click.Choice(SUITE_NAMES))
@click.option("--seed", default=0, show_default=True, type=_SEED)
@click.option("--convention", default="corrected", show_default=True,
              type=click.Choice(list(PROJECTION_CONVENTION)))
@click.option("--out", default=None, type=click.Path(),
              help="directory for the JSON-lines report stream")
def suite(name, seed, convention, out):
    """Run a verification battery; exit code 0 iff all checks pass."""
    code, reports = run_suite(name, SuiteConfig(seed, convention))
    lines = [r.to_json() for r in reports]
    for line in lines:
        click.echo(line)
    if out:
        path = Path(out)
        path.mkdir(parents=True, exist_ok=True)
        (path / f"suite_{name}.jsonl").write_text("\n".join(lines) + "\n")
    sys.exit(code)


@main.command()
@click.option("--domains", "domain_list", default="disc,Sp(2,R)",
              show_default=True, help="comma-separated preset names")
@click.option("--lambdas", default="2,3,4", show_default=True,
              callback=lambda ctx, param, text: _read(
                  check_weight, param.opts[0], text.split(",")))
@click.option("--n", "n_list", default="2,3", show_default=True,
              callback=lambda ctx, param, text: _read(
                  lambda name, x: int(x), param.opts[0], text.split(",")))
@click.option("--out", default=None, type=click.Path())
def table(domain_list, lambdas, n_list, out):
    """Constants table (CSV) over a (domain, lambda, n) grid."""
    csv_text = emit_constants_table(_split_names(domain_list), lambdas, n_list)
    if out:
        Path(out).write_text(csv_text)
    click.echo(csv_text, nl=False)


if __name__ == "__main__":
    main()
