"""Self-test of the benchmark: every workload at a tiny size, untraced and
traced, must pass its checks and emit every declared metric with its unit.

    python3 -m pytest perfbench
"""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# The metrics the benchmark's definition names, with their units.
NAMED_END_TO_END = {"setup_s": "s", "checks_per_s": "1/s",
                    "check_p50_ms": "ms", "check_tail_ms": "ms",
                    "peak_rss_mb": "MB"}
NAMED_PER_LAYER = [
    "disc.qk_project.calls", "disc.qk_project.self_s",
    "disc.norm2_exact.self_s", "disc.monomial_norm2.calls",
    "disc.completeness_check.busy_s", "disc.q1_iterated.busy_s",
    "disc.improved_check.self_s", "disc.PolyFun.power.busy_s",
    "exactnum.pochhammer.calls", "exactnum.pochhammer.self_s",
    "selberg.ordered_sector_quadrature.self_s",
    "selberg.selberg_numeric.self_s", "selberg.verify_degree_integral.busy_s",
    "selberg.grid_points", "selberg.useful_point_ratio",
    "selberg.mc_samples", "selberg.mc_samples_per_s",
    "selberg.selberg_closed.self_s", "selberg.laguerre_constant_C.self_s",
    "degrees.gamma_ratio_product.calls", "degrees.gamma_ratio_product.self_s",
    "degrees.scalar_formal_degree.busy_s", "degrees.c_G.self_s",
    "degrees.wehrl_constant.busy_s", "suite.emit_constants_table.busy_s",
    "domains.calls", "domains.self_s",
    "compact.cartan_projection.calls", "compact.cartan_projection.self_s",
    "compact.wehrl_compact_check.busy_s",
    "compact.casimir_tensor_check.self_s",
    "compact.reduction_consistency.busy_s",
    "compact.translate_fit_distance.busy_s", "compact.group_element.calls",
    "compact.projector_bytes", "compact.wehrl_integral_numeric.self_s",
    "disc.wehrl_check.self_s", "disc.matrix_coeff_lp.self_s",
    "disc.norm_p_numeric.self_s", "disc.maximize_wehrl.calls",
    "disc.maximize_wehrl.self_s", "disc.maximize_wehrl.iterations",
    "suite.run_suite.self_s", "reports.Report.to_json.self_s",
    "suite.stream_bytes", "trace.overhead_s",
    "disc.completeness_check.frontier_degree",
    "compact.wehrl_compact_check.frontier_dim",
] + [f"{mod}.src_lines" for mod in ("exactnum", "domains", "degrees",
                                     "selberg", "disc", "compact", "suite",
                                     "reports")]


def _declared(key: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[key]}


def test_spec_matches_runner():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads._ROUNDS)
    assert _declared("end_to_end") == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in SPEC["per_layer"]} == run.PER_LAYER
    for name, unit in NAMED_END_TO_END.items():
        assert run.END_TO_END[name] == unit
    assert set(NAMED_PER_LAYER) <= set(run.PER_LAYER)
    assert set(run.COMPUTED) <= set(run.PER_LAYER)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric
        assert UNIT.fullmatch(metric["unit"]), metric


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    record, result = run.execute(workload, seed=3, seconds=0, trace=trace,
                                 tiny=True, probes=1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], record["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert record["verdicts_agree"]
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == declared
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
        assert math.isfinite(m["value"])
    json.dumps(result)


def test_refuses_without_sources(tmp_path):
    """A directory with only the benchmark exits nonzero, printing no result."""
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    (tmp_path / "perfbench").mkdir()
    for path in BENCH_DIR.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact_tensor",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_check_time_is_scaled_median_over_passes():
    def result(seconds, scaled):
        return run.CheckResult("k", None, seconds, scaled, None)

    passes = [run.Pass(1.0, [result(1.0, 0.5), result(4.0, 2.0)]),
              run.Pass(1.0, [result(3.0, 0.7), result(2.0, 1.0)]),
              run.Pass(1.0, [result(2.0, 0.6), result(9.0, 3.0)])]
    assert run.check_times(passes, scaled=True) == [0.6, 2.0]
    assert run.check_times(passes, scaled=False) == [2.0, 4.0]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_reference_scale(workload):
    ref = run.Reference(run.REFERENCES[workload])
    assert ref.scale(1.0, 1.0) == 1.0
    assert ref.scale(1.0, 3.0) == 0.5
    assert ref.now() > 0 and len(ref.samples) == 1
