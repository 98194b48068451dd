"""Command-line interface.

Every subcommand emits JSON (or CSV for tables); exact rationals appear as
numerator/denominator strings with an integer pi power next to a float
rendition.  Bad input exits with status 2 and one "Error:" line; status 1
is left to a suite with a failed check.
"""

from __future__ import annotations

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


def _parse_coeffs(text: str, option: str) -> tuple:
    """The option's numbers: Fractions where rational, else finite complex."""
    out, hint = [], f"'{option}'"
    for tok in map(str.strip, text.split(",")):
        try:
            out.append(Fraction(tok))
        except ValueError:
            try:
                out.append(complex(tok))
            except ValueError:
                raise click.BadParameter(f"{tok!r} is not a rational or "
                                         f"complex number", param_hint=hint)
            if not np.isfinite(out[-1]):
                raise click.BadParameter(f"{tok!r} is not finite",
                                         param_hint=hint)
    return tuple(out)


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
    click.echo("family,r,a,b,p,N,n1")
    for row in rows:
        click.echo(",".join(str(row[k])
                            for k in ("family", "r", "a", "b", "p", "N", "n1")))


@main.command()
@click.option("--domain", required=True,
              help="preset name or r,a,b triple")
@click.option("--lambda", "lam", required=True, help="weight parameter")
@click.option("--n", default=2, show_default=True, type=int)
def degrees(domain, lam, n):
    """Formal degree, c_G, Harish-Chandra degree and Wehrl constant."""
    d = get_domain(domain)
    lam = Fraction(lam)
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
@click.option("--a", required=True)
@click.option("--b", required=True)
@click.option("--gamma", required=True)
@click.option("--method", default="monte_carlo", show_default=True,
              type=click.Choice(["monte_carlo", "gauss_jacobi"]))
@click.option("--budget", default=100_000, show_default=True, type=int,
              help="monte_carlo: samples; gauss_jacobi: most nodes per axis")
@click.option("--seed", default=0, show_default=True, type=_SEED)
def selberg(r, a, b, gamma, method, budget, seed):
    """Closed form and numerical estimate of the Selberg integral."""
    spec = sb.SelbergSpec(r, Fraction(a), Fraction(b), Fraction(gamma))
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
    """PolyFun from option texts; BadParameter on the option of a bad one."""
    values = _parse_coeffs(coeffs, coeffs_opt)
    try:
        return dc.PolyFun(Fraction(nu), values)
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint=f"'{nu_opt}'") from None


@disc.command("norm")
@click.option("--nu", required=True)
@click.option("--coeffs", required=True, help="comma-separated coefficients")
@click.option("--p", default=2, show_default=True, type=int)
def disc_norm(nu, coeffs, p):
    f = _get_poly(nu, coeffs)
    exact = {"norm2_exact": _value_json(dc.norm2_exact(f))} if p == 2 else {}
    _echo_json({"nu": str(Fraction(nu)), "p": p,
                "norm_p_numeric": dc.norm_p_numeric(f, p), **exact})


@disc.command("project")
@click.option("--mu", required=True)
@click.option("--nu", required=True)
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
        spec = dc.ProjectionSpec(Fraction(mu), Fraction(nu), k,
                                 PROJECTION_CONVENTION[convention])
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint="'--k'") from None
    proj = dc.qk_project(F, spec)
    _echo_json({
        "k": k, "convention": convention,
        "c_squared": exact_json(proj.c2),
        "component_norm2": _value_json(proj.norm2()),
    })


@disc.command("wehrl")
@click.option("--nu", required=True)
@click.option("--n", default=2, show_default=True, type=int)
@click.option("--coeffs", required=True)
def disc_wehrl(nu, n, coeffs):
    f = _get_poly(nu, coeffs)
    lhs, rhs, slack = dc.wehrl_check(f, n)
    _echo_json({"nu": str(Fraction(nu)), "n": n, "lhs": lhs, "rhs": rhs,
                "slack": slack})


@disc.command("improved")
@click.option("--nu", required=True)
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
@click.option("--nu", required=True)
@click.option("--n", default=2, show_default=True, type=int)
@click.option("--degree", default=12, show_default=True, type=int)
@click.option("--seed", default=0, show_default=True, type=_SEED)
def disc_maximize(nu, n, degree, seed):
    res = dc.maximize_wehrl(Fraction(nu), n, degree, seed=seed)
    _echo_json({"objective": res.objective,
                "kernel_distance": res.kernel_distance,
                "iterations": res.iterations,
                "grad_norm": res.grad_norm, "stop_reason": res.stop_reason,
                "seed": seed})


@disc.command("ode")
@click.option("--nu", required=True)
@click.option("--c", required=True)
@click.option("--degree", default=10, show_default=True, type=int)
def disc_ode(nu, c, degree):
    sol = dc.ode_solve(Fraction(nu), Fraction(c), degree)
    _echo_json({"nu": str(Fraction(nu)), "c": str(Fraction(c)),
                "coefficients": [str(x.re) for x in sol.coeffs],
                "kernel_parameter_conj": str(Fraction(c) / Fraction(nu))})


@main.command()
@click.option("--m", required=True, type=click.IntRange(min=0))
@click.option("--n", default=2, show_default=True, type=int)
@click.option("--vector", default=None, help="comma-separated coefficients")
@click.option("--random", "random_", is_flag=True)
@click.option("--seed", default=0, show_default=True, type=_SEED)
def compact(m, n, vector, random_, seed):
    """SU(2) compact Wehrl check for one vector."""
    if vector is not None:
        try:
            v = cp._unit(cp._vector(_parse_coeffs(vector, "--vector"), m))
        except (ValueError, OverflowError) as exc:  # OverflowError: 1e400
            raise click.BadParameter(str(exc), param_hint="'--vector'") from None
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
@click.option("--lambdas", default="2,3,4", show_default=True)
@click.option("--n", "n_list", default="2,3", show_default=True)
@click.option("--out", default=None, type=click.Path())
def table(domain_list, lambdas, n_list, out):
    """Constants table (CSV) over a (domain, lambda, n) grid."""
    csv_text = emit_constants_table(
        _split_names(domain_list),
        [Fraction(x) for x in lambdas.split(",")],
        [int(x) for x in n_list.split(",")])
    if out:
        Path(out).write_text(csv_text)
    click.echo(csv_text, nl=False)


if __name__ == "__main__":
    main()
