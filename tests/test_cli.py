import contextlib
import csv
import hashlib
import io
import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import wehrl_lab
from wehrl_lab import compact as cp
from wehrl_lab import disc as dc
from wehrl_lab.cli import main
from wehrl_lab.domains import PRESETS, preset_table
from wehrl_lab.exactnum import QC, PiScaledRational
from wehrl_lab.reports import ConfigError, Report, SuiteConfig
from wehrl_lab.suite import (_check, _rand_rational_poly, _Record,
                             emit_constants_table, run_suite)


@pytest.fixture
def runner():
    return CliRunner()


def test_domains_list_json(runner):
    res = runner.invoke(main, ["domains", "list"])
    assert res.exit_code == 0
    rows = json.loads(res.output)
    assert any(r["family"] == "Sp(2,R)" and r["N"] == 3 for r in rows)


def test_domains_list_csv(runner):
    # labels such as SU(1,1) hold commas, so csv.writer quotes them
    res = runner.invoke(main, ["domains", "list", "--format", "csv"])
    assert res.exit_code == 0
    assert res.output.splitlines()[1] == '"SU(1,1)",1,0,0,2,1,1'
    header, *rows = csv.reader(io.StringIO(res.output))
    assert header == ["family", "r", "a", "b", "p", "N", "n1"]
    assert len(rows) == len(preset_table()) == 12  # one per distinct preset
    assert rows == [[str(row[k]) for k in header] for row in preset_table()]


def test_degrees_json(runner):
    res = runner.invoke(main, ["degrees", "--domain", "Sp(2,R)",
                               "--lambda", "4", "--n", "2"])
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["d_lambda"] == {"num": "15", "den": "1", "pi_power": -3,
                               "float": out["d_lambda"]["float"]}
    assert out["c_G"]["num"] == "3"


def test_degrees_json_without_c_G_case(runner):
    # (2, 3, 1) matches no c_G case; the Wehrl constant d_lambda^n / d_{n
    # lambda} does not need c_G.
    res = runner.invoke(main, ["degrees", "--domain", "2,3,1",
                               "--lambda", "10"])
    assert res.exit_code == 0, res.output
    out = json.loads(res.output)
    assert "matches no c_G case" in out["c_G"]["error"]
    assert (out["wehrl_constant"]["num"], out["wehrl_constant"]["den"],
            out["wehrl_constant"]["pi_power"]) == ("4791150", "3553", -7)
    # the constants table leaves that domain's c_G and d_H cells empty
    row, = csv.DictReader(io.StringIO(emit_constants_table(["2,3,1"], [10],
                                                           [2])))
    assert {row[k] for k in ("c_G_coeff", "c_G_pi_power", "c_G_float",
                             "d_H")} == {""}
    assert (row["wehrl_coeff"], row["wehrl_pi_power"]) == ("4791150/3553",
                                                           "-7")


def test_selberg_json(runner):
    res = runner.invoke(main, ["selberg", "--r", "2", "--a", "1", "--b", "0",
                               "--gamma", "0", "--budget", "20000"])
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["closed_form"]["num"] == "1"
    assert out["closed_form"]["den"] == "3"
    assert out["deviation"] < 0.05


def test_selberg_json_without_telescoping(runner):
    res = runner.invoke(main, ["selberg", "--r", "2", "--a", "2", "--b", "1/2",
                               "--gamma", "1/3", "--budget", "20000"])
    assert res.exit_code == 0
    assert json.loads(res.output)["closed_form"] \
        == {"float": 0.02737263054012127}


def test_selberg_gauss_jacobi_default_budget(runner):
    # The default budget of 100000 caps the nodes per axis; the degree of
    # the integrand sets them: a(r-1)/2 + 1 = 9, one exact rule.  The rule's
    # rounding bound, plus the closed form's half ulp, is the suite's gate.
    res = runner.invoke(main, ["selberg", "--r", "3", "--a", "8", "--b", "0",
                               "--gamma", "1/2", "--method", "gauss_jacobi"])
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["deviation"] < 1e-12 and out["samples_or_nodes"] == 9
    assert out["abs_err_bound"] > 0
    assert out["deviation"] <= (out["abs_err_bound"]
                                + math.ulp(out["closed_form"]["float"]) / 2)


def test_numeric_import_path_leaves_sympy_out():
    # Only the exact SU(2) masses need sympy; they import it when called.
    src = str(Path(wehrl_lab.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import wehrl_lab.cli, wehrl_lab.suite; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'sympy'))")
    out = subprocess.run([sys.executable, "-c", code, src], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_suite_all_loads_no_scipy_sympy_or_mpmath():
    # The Gauss rules, the coherent-state fits and the exact SU(2) masses
    # are numpy and Fraction code; mpmath loads only for selberg_closed_hp.
    src = str(Path(wehrl_lab.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import wehrl_lab.cli; "
            "from wehrl_lab.reports import SuiteConfig; "
            "from wehrl_lab.suite import run_suite; "
            "code, _ = run_suite('all', SuiteConfig(seed=0)); "
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] "
            "in ('scipy', 'sympy', 'mpmath')))")
    out = subprocess.run([sys.executable, "-c", code, src], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "0 []"


def test_disc_subcommands(runner):
    res = runner.invoke(main, ["disc", "wehrl", "--nu", "2",
                               "--coeffs", "1,1", "--n", "2"])
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["slack"] == pytest.approx(0.15)

    res = runner.invoke(main, ["disc", "project", "--mu", "2", "--nu", "2",
                               "--k", "1", "--f", "0,1", "--g", "0,1"])
    assert res.exit_code == 0

    res = runner.invoke(main, ["disc", "project", "--mu", "5/2", "--nu",
                               "7/2", "--k", "-1", "--f", "1,2", "--g", "1"])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    assert "Invalid value for '--k'" in res.output
    assert "k must be >= 0 and an int, got k=-1" in res.output
    assert "Traceback" not in res.output

    res = runner.invoke(main, ["disc", "ode", "--nu", "2", "--c", "1/2",
                               "--degree", "4"])
    assert res.exit_code == 0
    assert json.loads(res.output)["kernel_parameter_conj"] == "1/4"

    # the equality case of the improved inequality: 1 + z at nu = 2
    res = runner.invoke(main, ["disc", "improved", "--nu", "2",
                               "--coeffs", "1,1"])
    assert res.exit_code == 0
    assert json.loads(res.output) == {
        "nu": "2", "n": 2, "convention": "sharp", "lhs": 2.1,
        "remainder": 0.15, "rhs": 2.25, "slack": 0.0, "passed": True}


@pytest.mark.parametrize("args, option, message", [
    (["project", "--mu", "1", "--nu", "7/2", "--k", "1", "--f", "1,2",
      "--g", "1"], "--mu", "weight nu must exceed 1, got 1"),
    (["project", "--mu", "5/2", "--nu", "7/2", "--k", "1", "--f", "1,x",
      "--g", "1"], "--f", "f must be a finite number, got f='x'"),
    (["project", "--mu", "5/2", "--nu", "1/2", "--k", "1", "--f", "1",
      "--g", "2"], "--nu", "got 1/2"),
    (["norm", "--nu", "abc", "--coeffs", "1,2"], "--nu", "'abc'"),
    (["wehrl", "--nu", "2", "--coeffs", "1,,2"], "--coeffs",
     "coeffs must be a finite number, got coeffs=''"),
    (["project", "--mu", "5/2", "--nu", "7/2", "--k", "1", "--f", "nan,1",
      "--g", "1"], "--f", "f must be a finite number, got f='nan'"),
    (["wehrl", "--nu", "2", "--coeffs", "1,-inf"], "--coeffs",
     "coeffs must be a finite number, got coeffs='-inf'"),
])
def test_disc_bad_input_names_the_option(runner, args, option, message):
    res = runner.invoke(main, ["disc", *args])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    assert f"Invalid value for '{option}'" in res.output
    assert message in res.output and "Traceback" not in res.output


@pytest.mark.parametrize("args, message", [
    (["degrees", "--domain", "disc", "--lambda", "abc"], "'abc'"),
    (["degrees", "--domain", "disc", "--lambda", "1/2"], "lambda=1/2"),
    (["degrees", "--domain", "nosuch", "--lambda", "3"],
     "unknown domain 'nosuch'; presets:"),
    (["selberg", "--r", "2", "--a", "x", "--b", "0", "--gamma", "1"], "'x'"),
    (["selberg", "--r", "2", "--a", "1", "--b", "0", "--gamma", "-2"],
     "need gamma > -1"),
    (["disc", "ode", "--nu", "2", "--c", "3"], ">= nu = 2"),
    (["disc", "ode", "--nu", "2", "--c", "1", "--degree", "-3"],
     "degree must be >= 0"),
    (["disc", "maximize", "--nu", "2", "--degree", "2"], "degree must be"),
    (["disc", "maximize", "--nu", "-3/2"], "must exceed 1, got -3/2"),
    (["disc", "norm", "--nu", "2", "--coeffs", "1,2", "--p", "3"],
     "p must be a positive even integer"),
    (["disc", "norm", "--nu", "1/0", "--coeffs", "1"], "Fraction(1, 0)"),
    (["disc", "norm", "--nu", "-2", "--coeffs", "1"], "must exceed 1, got -2"),
    (["compact", "--m", "2", "--vector", "1,2"], "vector length"),
    (["compact", "--m", "-1"], "Invalid value for '--m'"),
    (["table", "--lambdas", "2,x"], "'x'"),
    (["disc", "wehrl", "--nu", "2", "--coeffs", "1e200,1"],
     "float limit 1.8e308"),
    (["disc", "norm", "--nu", "2", "--coeffs", "1e200,1", "--p", "4"],
     "quadrature of |f|^{2n} exceeds"),
    (["disc", "wehrl", "--nu", "2", "--coeffs", "nan,1"],
     "Invalid value for '--coeffs': coeffs must be a finite number, got "
     "coeffs='nan'"),
    (["disc", "improved", "--nu", "2", "--coeffs", "1,infj"],
     "Invalid value for '--coeffs': coeffs must be a finite number, got "
     "coeffs='infj'"),
    (["compact", "--m", "2", "--vector", "1,x,0"],
     "Invalid value for '--vector': vector must be a finite number, got "
     "vector='x'"),
    (["disc", "project", "--mu", "2", "--nu", "2", "--k", "0", "--f",
      "1e200j,1", "--g", "1e200j,1"],
     "norm2: a value exceeds the float limit"),
    (["disc", "improved", "--nu", "2", "--coeffs", "1e200j,1"],
     "improved_check: a value exceeds the float limit"),
    (["selberg", "--r", "2", "--a", "1", "--b", "400", "--gamma", "400",
      "--budget", "1000"], "B(b+1, gamma+1)^r = 0 is not a normal float"),
    (["selberg", "--r", "2", "--a", "1", "--b", "0", "--gamma", "1", "--seed",
      "-1"], "Invalid value for '--seed': -1 is not in the range x>=0"),
    (["disc", "maximize", "--nu", "2", "--seed", "-1"],
     "Invalid value for '--seed'"),
    (["compact", "--m", "1030", "--n", "1"],
     "binom(1030, 515) exceeds the float limit 1.8e308 at m = 1030"),
    (["selberg", "--r", "3", "--a", "8", "--b", "0", "--gamma", "1/2",
      "--method", "gauss_jacobi", "--budget", "3"],
     "needs 9 nodes per axis to be exact; the budget is 3"),
    (["disc", "maximize", "--nu", "400", "--degree", "1000"],
     "weight |m!/(nu)_m| at nu = 400, m = 683, is not a normal float"),
    (["compact", "--m", "1028", "--n", "1"],
     "weight |m!/(nu)_m| at nu = -1028, m = 499, is not a normal float"),
    (["suite", "disc", "--convention", "other"],
     "Invalid value for '--convention': 'other' is not one of"),
    (["disc", "wehrl", "--nu", "2", "--coeffs", "1,1", "--n", "0"],
     "Error: n must be >= 1"),
    (["disc", "improved", "--nu", "2", "--coeffs", "1,1", "--n", "1"],
     "Error: n must be >= 2"),
    (["degrees", "--domain", "disc", "--lambda", "3", "--n", "0"],
     "Error: n must be >= 1"),
    (["selberg", "--r", "2", "--a", "-1", "--b", "0", "--gamma", "1"],
     "Error: a must be >= 0"),
    # printed "invalid literal for int() with base 10: 'x'", naming no option
    (["table", "--n", "2,x"], "Error: Invalid value for '--n': invalid "
                              "literal for int() with base 10: 'x'"),
    # a header-only table, exit 0
    (["table", "--n", "0"], "Error: n_grid must be >= 1 and an int, got "
                            "n_grid=0"),
    # "invalid literal for int()", naming no domain
    (["degrees", "--domain", "2,3,x", "--lambda", "5"],
     "Error: unknown domain '2,3,x'; presets:"),
    (["degrees", "--domain", "1.5,2,3", "--lambda", "5"],
     "Error: unknown domain '1.5,2,3'; presets:"),
    (["degrees", "--domain", "0,1,1", "--lambda", "5"],
     "Error: r must be >= 1 and an int, got r=0"),
    # a traceback and exit 1, from float(abs(c)) and the float route's
    # complex(10^400)
    (["disc", "ode", "--nu", "2", "--c", "1e400"], ">= nu = 2"),
    (["disc", "norm", "--nu", "2", "--coeffs", "1e400,1j"],
     "Invalid value for '--coeffs': _lanes_of: a value exceeds the float "
     "limit 1.8e308"),
])
def test_bad_input_is_a_usage_error(runner, args, message):
    res = runner.invoke(main, args)
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    assert "Error: " in res.output and message in res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize("value", ["x", "inf"])
@pytest.mark.parametrize("args, option", [
    (["degrees", "--domain", "disc", "--lambda", "{}"], "--lambda"),
    (["selberg", "--r", "2", "--a", "{}", "--b", "0", "--gamma", "1"], "--a"),
    (["selberg", "--r", "2", "--a", "1", "--b", "{}", "--gamma", "1"], "--b"),
    (["selberg", "--r", "2", "--a", "1", "--b", "0", "--gamma", "{}"],
     "--gamma"),
    (["disc", "maximize", "--nu", "{}"], "--nu"),
    (["disc", "ode", "--nu", "{}", "--c", "1/2"], "--nu"),
    (["disc", "ode", "--nu", "2", "--c", "{}"], "--c"),
    (["table", "--lambdas", "2,{}"], "--lambdas")])
def test_every_weight_option_names_itself(runner, args, option, value):
    # Each printed "Error: Invalid literal for Fraction: 'x'" (or 'inf'),
    # naming no option.
    res = runner.invoke(main, [a.format(value) for a in args])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    name = option.lstrip("-")
    assert (f"Invalid value for '{option}': {name} must be a finite rational "
            f"number, got {name}='{value}'") in res.output
    assert "Traceback" not in res.output


def test_compact_json(runner):
    res = runner.invoke(main, ["compact", "--m", "2", "--n", "2",
                               "--vector", "1,0,1"])
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["exact"] == pytest.approx(2 / 15)
    assert out["bound"] == pytest.approx(1 / 5)
    assert out["slack"] > 0



@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("vector, same_as", [("1e-200,0,0", "1,0,0"),
                                             ("1e200,1e200,0", "1,1,0")])
def test_compact_vector_is_scaled_before_it_is_normalised(runner, vector,
                                                          same_as):
    # Squared entries that underflow or overflow used to give NaN
    # coefficients or "v must be a unit vector".
    res = runner.invoke(main, ["compact", "--m", "2", "--vector", vector])
    ref = runner.invoke(main, ["compact", "--m", "2", "--vector", same_as])
    assert res.exit_code == 0 and ref.exit_code == 0
    assert res.output == ref.output


@pytest.mark.parametrize("vector", ["0,0,0", "0,0j,0", "inf,0,0", "nan,1,0",
                                    "1e400,0,0"])
def test_compact_vector_without_a_finite_nonzero_entry_is_a_usage_error(
        runner, vector):
    res = runner.invoke(main, ["compact", "--m", "2", "--vector", vector])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    assert "Invalid value for '--vector'" in res.output
    assert "Traceback" not in res.output


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_compact_vector_prints_the_library_fields(runner):
    # --vector goes through compact._vector and compact._unit and nothing
    # else: the output is the library's, bit for bit, on seeded integer,
    # real and complex vectors, also at scales whose |v|^2 leaves the range.
    rng = np.random.default_rng(36)
    for case in range(504):
        m, n = int(rng.integers(9)), int(rng.integers(2, 4))
        if case % 3 == 0:
            values = [int(x) for x in rng.integers(-9, 10, m + 1)]
            values[rng.integers(m + 1)] = int(rng.integers(1, 10))
        else:
            scale = (1.0, 1e-200, 1e200)[case // 3 % 3]
            values = (scale * rng.standard_normal(m + 1)).tolist()
            if case % 3 == 2:
                values = [complex(x, scale * rng.standard_normal())
                          for x in values]
        res = runner.invoke(main, ["compact", "--m", str(m), "--n", str(n),
                                   "--vector", ",".join(map(repr, values))])
        v = cp._unit(cp._vector(values, m))
        rep, cas = cp.wehrl_compact_check(v, m, n), cp.casimir_tensor_check(v, m)
        assert res.exit_code == 0, res.output
        assert res.output == json.dumps({
            "m": m, "n": n, "exact": rep.integral_exact,
            "numeric": rep.integral_numeric, "bound": rep.bound,
            "slack": rep.slack, "eigcon_residual": cas.residual, "seed": 0},
            sort_keys=True) + "\n"


def test_compact_random_is_the_library_check_of_a_seeded_vector(runner):
    res = runner.invoke(main, ["compact", "--m", "3", "--random", "--seed",
                               "1"])
    v = cp.random_unit_vector(3, np.random.default_rng(1))
    rep, cas = cp.wehrl_compact_check(v, 3, 2), cp.casimir_tensor_check(v, 3)
    assert res.exit_code == 0, res.output
    assert res.output == json.dumps({
        "m": 3, "n": 2, "exact": rep.integral_exact,
        "numeric": rep.integral_numeric, "bound": rep.bound,
        "slack": rep.slack, "eigcon_residual": cas.residual, "seed": 1},
        sort_keys=True) + "\n"


def test_suite_exit_codes(runner):
    res = runner.invoke(main, ["suite", "degrees"])
    assert res.exit_code == 0
    res = runner.invoke(main, ["suite", "disc", "--convention", "paper"])
    assert res.exit_code == 1  # documented completeness failure
    assert '"verdict": "FAIL"' in res.output


@pytest.mark.parametrize("args, code, digest", [
    (["all", "--seed", "0"], 0, "01cfc8b093090b3be6362200fc8bdf81"
                                "583835a2e88816fab98673df6510be85"),
    (["disc", "--convention", "paper", "--seed", "0"], 1,
     "71734fce9a5258cd196582f362e39689747258c3df918f6e248e283c6be86066")])
def test_suite_stream_bytes_are_pinned(runner, args, code, digest):
    # Two runs agreeing with each other pass a refactor that moves a digit;
    # the SHA-256 of the stream does not.  A deliberate change of any
    # reported value or bound updates these digests.
    res = runner.invoke(main, ["suite", *args])
    assert res.exit_code == code
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == digest


def test_ci_table_bytes_are_pinned(runner):
    # The table of tier1.yml's CLI smoke, every preset on 23 weights, reads
    # more weight conversions than any other output; CI compares it only
    # with its own -O run.
    lambdas = ("1,3/2,2,5/2,3,7/2,4,9/2,5,11/2,6,13/2,7,15/2,8,17/2,9,19/2,"
               "10,21/2,12,18,20")
    res = runner.invoke(main, ["table", "--domains", ",".join(PRESETS),
                               "--lambdas", lambdas])
    assert res.exit_code == 0
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == (
        "f868b2cfd97ae99cc9e210f8c2d5b2b7b8a0666601f742b82b9c532bbd8cbe25")


def test_suite_out_writes_its_stdout(runner, tmp_path):
    res = runner.invoke(main, ["suite", "degrees", "--out",
                               str(tmp_path / "reports")])
    assert res.exit_code == 0
    written = (tmp_path / "reports" / "suite_degrees.jsonl").read_bytes()
    assert written == res.stdout_bytes and written


def test_suite_all_sources_every_tolerance(runner):
    # Exact values take source "exact" and tolerance 0, the Selberg oracles
    # are gated by the bounds they compute, and a computed bound is positive
    # and finite.
    res = runner.invoke(main, ["suite", "all", "--seed", "0"])
    assert res.exit_code == 0
    for rep in map(json.loads, res.output.splitlines()):
        assert rep["outputs"]["comparisons"], rep["command"]
        for label, c in rep["outputs"]["comparisons"].items():
            where, source = f"{rep['command']} {label}", c["tolerance_source"]
            assert source in {"exact", "rule_exactness", "error_bound",
                              "n_sigma", "stated"}, where
            assert isinstance(c["value"], dict) == (source == "exact"), where
            assert source != "exact" or c["tolerance"] == 0, where
            assert not (rep["command"].startswith("selberg.")
                        and source == "stated"), where
            assert (source != "error_bound"
                    or 0 < c["tolerance"] < math.inf), where


def test_suite_determinism(runner):
    for name in ("degrees", "compact"):
        a = runner.invoke(main, ["suite", name, "--seed", "7"]).output
        b = runner.invoke(main, ["suite", name, "--seed", "7"]).output
        assert a == b


def test_table_csv(runner):
    res = runner.invoke(main, ["table", "--domains", "disc,Sp(2,R)",
                               "--lambdas", "2,4", "--n", "2"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0].startswith("domain,lambda,n,d_lambda_coeff")
    sp_row = next(l for l in lines if l.startswith('"Sp(2,R)",4'))
    assert ",15,-3," in sp_row


def test_table_out_writes_its_stdout(runner, tmp_path):
    out = tmp_path / "constants.csv"
    res = runner.invoke(main, ["table", "--lambdas", "3,4", "--out", str(out)])
    assert res.exit_code == 0
    assert out.read_bytes() == res.stdout_bytes
    assert res.output.startswith("domain,lambda,n,")


def test_table_reads_preset_names_with_spaces_and_a_trailing_comma(runner):
    res = runner.invoke(main, ["table", "--domains",
                               "disc, Sp(2,R) ,SU(2,1),SO*(8),",
                               "--lambdas", "6", "--n", "2"])
    assert res.exit_code == 0
    rows = list(csv.reader(res.output.splitlines()[1:]))
    # disc is SU(1,1)
    assert [r[0] for r in rows] == ["SU(1,1)", "Sp(2,R)", "SU(2,1)", "SO*(8)"]


@pytest.mark.parametrize("domains", ["disc,Sp(2,R", "disc,Sp(2,R))",
                                     "Sp(2,R,disc", "(disc"])
def test_table_unbalanced_domain_list_is_a_usage_error(runner, domains):
    res = runner.invoke(main, ["table", "--domains", domains])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    errors = [l for l in res.output.splitlines() if l.startswith("Error:")]
    assert len(errors) == 1
    assert "Traceback" not in res.output


def test_table_empty_grid_header_only():
    assert emit_constants_table([], [], []).strip().startswith("domain,")
    # inadmissible points are skipped
    csv_text = emit_constants_table(["Sp(2,R)"], [Fraction(1)], [2])
    assert len(csv_text.strip().splitlines()) == 1


def test_report_roundtrip():
    # A stream line carries every field of its Report, and only those.
    r = Report(command="x", inputs={"a": "1"}, outputs={"v": 0.5},
               verdict="PASS", seed=3)
    assert Report(**json.loads(r.to_json())) == r
    for verdict in ("MAYBE", "INFO"):
        with pytest.raises(ValueError):
            Report(command="x", inputs={}, outputs={}, verdict=verdict)


def test_suite_config_validation():
    with pytest.raises(ConfigError):
        SuiteConfig(convention="other")
    with pytest.raises(ConfigError):
        run_suite("nope", SuiteConfig())


def test_every_fail_report_carries_compared_values():
    code, reports = run_suite("disc", SuiteConfig(convention="paper"))
    fails = [r for r in reports if r.verdict == "FAIL"]
    assert code == 1 and fails
    for r in fails:
        assert "total" in r.outputs and "expected" in r.outputs


def test_disc_suite_reports_every_pair_and_q1_norms():
    for convention, failed in (("corrected", []),
                               ("paper", ["(2,2)", "(5/2,7/2)"])):
        _, reports = run_suite("disc", SuiteConfig(convention=convention))
        by_command = {r.command: r for r in reports}
        comp = by_command["disc.completeness"].outputs
        assert comp["pairs"] == ["(2,2)", "(5/2,7/2)"]
        assert len(comp["total"]) == len(comp["expected"]) == 2
        assert comp["failed_pairs"] == failed
        for total, expected, pair in zip(comp["total"], comp["expected"],
                                         comp["pairs"]):
            assert (total == expected) == (pair not in failed)
        q1 = by_command["disc.q1_vanishing"].outputs["norm2"]
        assert sorted(q1) == ["2", "3"]
        assert all(v["num"] == "0" for v in q1.values())


@pytest.mark.parametrize("axis", [0, 1])
def test_disc_suite_fails_both_quadratures_on_a_short_rule(monkeypatch, axis):
    # The seed-0 "degree 6" polynomial of disc.norm_quadrature has c_6 = 0;
    # its rule is sized by the top nonzero coefficient, so one angle or one
    # node fewer fails it as it fails disc.matrix_coeff_lp.
    sizes = dc._rule_sizes
    monkeypatch.setattr(dc, "_rule_sizes", lambda d: tuple(
        k - (i == axis) for i, k in enumerate(sizes(d))))
    code, reports = run_suite("disc", SuiteConfig(seed=0))
    verdicts = {r.command: r.verdict for r in reports}
    assert code == 1
    assert verdicts["disc.norm_quadrature"] == "FAIL"
    assert verdicts["disc.matrix_coeff_lp"] == "FAIL"


def test_disc_suite_fails_the_ode_kernel_check_if_nothing_is_refused(
        monkeypatch):
    # An ode_solve that returned at |c| >= nu would fail disc.ode_kernel on
    # its outside_bergman_raised comparison, and only there.
    solve = dc.ode_solve

    def lenient(nu, c, degree):
        with contextlib.suppress(dc.OutsideBergman):
            return solve(nu, c, degree)

    monkeypatch.setattr(dc, "ode_solve", lenient)
    code, reports = run_suite("disc", SuiteConfig(seed=0))
    ode = next(r for r in reports if r.command == "disc.ode_kernel")
    assert code == 1 and ode.verdict == "FAIL"
    assert [k for k, c in ode.outputs["comparisons"].items()
            if not c["passed"]] == ["outside_bergman_raised"]


def test_compact_suite_reports_a_wrong_bloch_weight(monkeypatch, runner):
    # Only the mass reads the Bloch row: the translates and the Haar rows
    # take disc's binomials, so a wrong Bloch weight fails the mass's
    # comparisons in a report each, where the translate used to read it too
    # and the suite stopped on "v must be a unit vector".
    exact = cp._root_binomials

    def perturbed(m):
        out = exact(m)
        out[1] *= 1.1
        return out

    monkeypatch.setattr(cp, "_root_binomials", perturbed)
    code, reports = run_suite("compact", SuiteConfig())
    failed = {r.command: [k for k, c in r.outputs["comparisons"].items()
                          if not c["passed"]] for r in reports}
    assert code == 1 and failed == {
        "compact.haar_moments": [], "compact.exact_case": [],
        "compact.wehrl_bound_random": ["min_slack", "max_route_gap"],
        "compact.equality_on_translates": ["slack"]}
    assert [r.verdict for r in reports] == ["PASS", "PASS", "FAIL", "FAIL"]
    res = runner.invoke(main, ["suite", "compact"])
    assert res.exit_code == 1 and len(res.output.splitlines()) == 4


def test_rand_rational_poly_draws_as_the_scalar_loop():
    # One integers() call over the tiled bounds reads the PCG64 stream as a
    # scalar draw per numerator and denominator does, the next draw included.
    for seed in range(40):
        vector, scalar = (np.random.default_rng(seed) for _ in range(2))
        for degree in (0, 4, 6):
            f = _rand_rational_poly(vector, Fraction(5, 2), degree)
            cs = [Fraction(int(scalar.integers(-5, 6)),
                           int(scalar.integers(1, 6)))
                  for _ in range(degree + 1)]
            if not any(cs):
                cs[0] = Fraction(1)
            assert f.coeffs == tuple(map(QC, cs)), (seed, degree)
        assert vector.integers(1 << 62) == scalar.integers(1 << 62), seed


def _judged(comparisons, outputs=None, **record):
    # the report _check makes of a record whose judge returns comparisons
    return _check(_Record("x", {}, lambda: None, lambda: None,
                          lambda value, ref: (comparisons, outputs or {}),
                          **record))


def test_check_judges_every_comparison():
    ok = [("exact", Fraction(1, 3), Fraction(1, 3), 0, "exact"),
          ("pi", PiScaledRational(3, -1), PiScaledRational(3, -1), 0, "exact"),
          ("two_sided", 1.0 + 1e-9, 1.0, 1e-8, "stated"),
          ("one_sided", 5.0, 0.0, 1e-12, "stated", True),
          ("exact_lower", Fraction(1, 7), 0, 0, "exact", True)]
    rep = _judged(ok, {"shown": 1}, seed=4, failed_key="failed")
    assert rep.verdict == "PASS" and rep.seed == 4
    assert rep.outputs["shown"] == 1 and rep.outputs["failed"] == []
    got = rep.outputs["comparisons"]
    assert got["exact"]["deviation"]["num"] == "0"
    assert got["pi"]["deviation"]["pi_power"] == -1
    assert got["two_sided"]["deviation"] == pytest.approx(1e-9)
    assert got["one_sided"]["deviation"] == 5.0
    assert got["one_sided"]["one_sided"] and not got["exact"]["one_sided"]
    assert got["exact_lower"]["deviation"]["num"] == "1"
    assert all(c["passed"] for c in got.values())
    # A violated inequality fails either side of a two-sided gate, and one
    # failing comparison fails the report.
    for bad in [("kernel_slack", -1.0, 0.0, 1e-8, "stated"),
                ("kernel_slack", 1.0, 0.0, 1e-8, "stated"),
                ("min_slack", -1e-11, 0.0, 1e-12, "stated", True),
                ("exact", Fraction(1, 3), Fraction(1, 2), 0, "exact"),
                ("exact_lower", Fraction(-1, 7), 0, 0, "exact", True),
                ("pi", PiScaledRational(3, -1), PiScaledRational(3, -3), 0,
                 "exact")]:
        rep = _judged([ok[2], bad], failed_key="failed")
        assert rep.verdict == "FAIL" and rep.outputs["failed"] == [bad[0]]
        assert not rep.outputs["comparisons"][bad[0]]["passed"]
    assert rep.outputs["comparisons"]["pi"]["deviation"] is None
    for bad in [("x", 1.0, 1.0, 1e-8, "guess"), ("x", 1, 1, 1e-8, "exact")]:
        with pytest.raises(ValueError):
            _judged([bad])


def test_improved_inequality_reports_the_true_min_slack(monkeypatch):
    slacks, improved_check = [], dc.improved_check

    def recording(f, n, convention):
        rep = improved_check(f, n, convention)
        slacks.append(rep.slack)
        return rep
    monkeypatch.setattr(dc, "improved_check", recording)
    _, reports = run_suite("disc", SuiteConfig(seed=0))
    report, = [r for r in reports if r.command == "disc.improved_inequality"]
    reported = report.outputs["comparisons"]["min_slack"]["value"]["float"]
    assert len(slacks) == 21  # 20 random draws, then the equality case
    assert reported == min(slacks[:20]) > 0


def test_disc_maximize_prints_stop_reason(runner):
    res = runner.invoke(main, ["disc", "maximize", "--nu", "2", "--n", "2",
                               "--degree", "5", "--seed", "1"])
    assert res.exit_code == 0
    assert json.loads(res.output)["stop_reason"] == "gradient_tolerance"


def test_disc_maximize_reports_no_convergence_in_one_line(runner,
                                                          monkeypatch):
    # At (2, 60, 8) the first step rounds back to x: NoConvergence ended the
    # command in a traceback, with status 1.  Now one JSON line and status 1.
    args = ["disc", "maximize", "--nu", "2", "--n", "60", "--degree", "8"]
    res = runner.invoke(main, args)
    assert res.exit_code == 1 and "Traceback" not in res.output
    assert json.loads(res.output) == {
        "stop_reason": "zero_step", "seed": 0, "message": "the step accepted"
        " at iteration 0 leaves x unchanged (objective 2.02e-22)"}

    def no_fit(*args):
        raise dc.NoConvergence("coherent fit: no ascent", "max_iterations")

    monkeypatch.setattr(dc, "_coherent_fit", no_fit)  # the exit fit's own
    res = runner.invoke(main, args[:4] + ["--seed", "3"])
    assert res.exit_code == 1 and "Traceback" not in res.output
    assert json.loads(res.output) == {"stop_reason": "max_iterations",
                                      "message": "coherent fit: no ascent",
                                      "seed": 3}
