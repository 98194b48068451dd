"""Record one point of the performance trajectory as BENCH_<pr>.json.

    python3 tools/bench_record.py --pr N

It measures the checkout it lives in, whatever the working directory:

* ``perfbench/run.py`` on each workload that ``BENCHMARK.json`` lists, at a
  fixed seed and the run length it sets, once with ``--trace 0`` (end-to-end
  metrics) and once with ``--trace 1`` (per-layer metrics);
* the wall time of the Tier-1 tests and of ``wehrl-lab suite all --seed 0``
  (with the SHA-256 of its stream, its exit code and its count of
  comparisons per tolerance source);
* the line count of each module under ``src/wehrl_lab``;
* the frontiers: the largest degree at which ``completeness_check`` of two
  seeded rational polynomials at (mu, nu) = (5/2, 7/2) takes at most 1 s,
  and its median seconds over five calls at degrees 4, 8, 16, 19, 64 and
  100, with each pair's count of nonzero tensor entries, and on a seeded
  pair of complex floats with full 53-bit mantissas (two coefficient
  lanes, so two Hahn ladders) at degrees 16 and 64,
  the constants-table rows per second on the grid of the CI ``table`` step
  (every preset, the lambdas below, n = 2, 3), the median seconds of the
  suite's ``maximize_wehrl(2, 2, 8, seed=0)``, and the largest degree at
  which ``maximize_wehrl`` at (nu, n) = (2, 2), seed 0, takes at most 1 s;
* the seconds and the peak RSS of ``qk_project`` at k = 20000 on a seeded
  3 x 2 rational tensor at (mu, nu) = (5/2, 7/3), each of three runs in a
  fresh Python process, and their median seconds.  The peak is the
  process's VmHWM (Linux): its ``ru_maxrss`` would also keep the peak of
  this script, whose memory a subprocess shares until it execs;
* the median ms of five ``selberg_numeric(..., "monte_carlo", 10**6, seed)``
  calls at (r, a, b, gamma) = (2, 1, 0, 0) and (2, 2, 0, 0), the peak
  bytes that ``tracemalloc`` traces over one call at (2, 1, 0, 0), and the
  bytes still traced once such a call returns with the gc disabled;
* the median us of 51 ``gauss_jacobi(n, 0.5, 1.0)`` calls at 1, 2, 9, 32, 33
  and 514 nodes, on both sides of the cutoff between its two loop orders;
* the quadrature oracles' fixed cost: the median us of 201 calls of
  ``verify_degree_integral`` at disc lambda = 5/2, SU(2,2) and Sp(3,R)
  lambda = 9/2 and E7 lambda = 37/2, of ``laguerre_constant_C`` at SU(2,2),
  and of ``selberg_closed`` at (r, a, b, gamma) = (2, 2, 1/2, 1);
* the exact weighted norms' cost: the median us of ``product_norm2`` on
  n copies of a seeded rational polynomial (one real lane) at weight n nu,
  nu = 5/2, at (degree, n) = (8, 1), (8, 3) and (2000, 1), and of
  ``completeness_check`` on the seeded pair of the frontiers at degree 16,
  over 201 rounds that call each of the four in turn;
* the cost of building a float polynomial: the median us to build a
  ``PolyFun`` of seeded complex floats at degrees 13, 2000 and 6000, alone
  and with its first ``as_complex_array()``, over 101 calls each;
* the SU(2) checks' cost: the median us of ``wehrl_compact_check`` on a
  seeded unit vector at (m, n) = (2, 2), (7, 3), (11, 3) and (3, 6), and of
  ``casimir_tensor_check`` on a coherent vector at m = 2 and 4, over 2001
  rounds that call each of the six in turn;
* the SU(2) frontier: the largest nm at which ``wehrl_compact_check`` at
  n = 2 on a seeded unit vector takes at most 1 s, with the error that
  refuses the first m past it, and the Gauss rule frontier: the largest n
  at which ``gauss_jacobi(n, 0.5, 1.0)`` takes at most 1 s;
* the Selberg rank frontier: per a in {1, 2, 4}, the largest rank r at which
  ``verify_degree_integral`` of ``custom (r, a, 0)`` at lambda = p + 1/2
  passes (deviation below 1e-10) within 1 s, with each rank's seconds and
  nodes per axis, and the error that refuses the first rank past it.

Each frontier search and each wall timing carries ``host_slowdown``, the
slowdown of perfbench's interpreter-bound reference kernel (its time over
its nominal time, ``perfbench/run.py``) just before and just after it, so
that records taken at different host speeds can be compared.

It writes ``BENCH_<pr>.json`` at the root of the checkout.  Run it on a
quiet host, one checkout at a time: the timings share the host with
whatever else runs.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from importlib import metadata
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
# perfbench/run.py pins the BLAS and OpenMP pools to one thread in
# os.environ when imported, before numpy loads, so that its reference kernel
# and the timings here run on one thread as perfbench's do; the subprocesses
# below get the environment of before that import.
ENV = dict(os.environ, PYTHONPATH="src")
sys.path.insert(0, str(ROOT / "perfbench"))
from run import Reference, interpreter_kernel  # noqa: E402

import numpy as np  # noqa: E402

SEED = 1
TABLE_LAMBDAS = ("1,3/2,2,5/2,3,7/2,4,9/2,5,11/2,6,13/2,7,15/2,8,17/2,9,19/2,"
                 "10,21/2,12,18,20")


def run(cmd: list[str]) -> tuple[subprocess.CompletedProcess, float]:
    """Run cmd at the root with src/ on the path; output and wall seconds."""
    t0 = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=ENV, capture_output=True,
                          text=True)
    return proc, perf_counter() - t0


def host_slowdown() -> float:
    """The host's slowdown now: perfbench's interpreter kernel, best of two
    runs, over its nominal time."""
    return Reference([interpreter_kernel]).now()


def slowed(measure):
    """(measure(), the host's slowdown just before and just after it)."""
    before = host_slowdown()
    result = measure()
    return result, {"before": before, "after": host_slowdown()}


def perfbench(workload: str, seconds: int, trace: int) -> dict:
    proc, wall = run([sys.executable, "perfbench/run.py", "--workload",
                      workload, "--seed", str(SEED), "--seconds",
                      str(seconds), "--trace", str(trace)])
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench {workload} --trace {trace} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    record = json.loads(proc.stdout.splitlines()[-2])["run_record"]
    return {"wall_s": wall, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "host_slowdown": record["host_slowdown"],
            "metrics": {name: m["value"]
                        for name, m in result["metrics"].items()}}


def tier1() -> dict:
    (proc, wall), slowdown = slowed(lambda: run([
        sys.executable, "-m", "pytest", "-q",
        "--continue-on-collection-errors"]))
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": wall, "host_slowdown": slowdown,
            "exit_code": proc.returncode,
            "summary": lines[-1] if lines else ""}


def suite_all() -> dict:
    (proc, wall), slowdown = slowed(lambda: run([
        sys.executable, "-m", "wehrl_lab.cli", "suite", "all", "--seed",
        "0"]))
    comparisons = [c for line in proc.stdout.splitlines()
                   for c in json.loads(line)["outputs"]["comparisons"].values()]
    return {"wall_s": wall, "host_slowdown": slowdown,
            "exit_code": proc.returncode,
            "reports": len(proc.stdout.splitlines()),
            "stream_sha256": hashlib.sha256(proc.stdout.encode()).hexdigest(),
            "comparisons_by_source": dict(sorted(Counter(
                c["tolerance_source"] for c in comparisons).items()))}


def src_lines() -> dict[str, int]:
    return {path.stem: len(path.read_text().splitlines())
            for path in sorted((ROOT / "src" / "wehrl_lab").glob("*.py"))}


def one_second_frontier(seconds_at, start: int, seconds: dict) -> int:
    """The largest size whose seconds_at(size) is at most 1, by doubling from
    start then bisection, one timed call per size; each call's seconds go
    into `seconds`, which keeps them if a call raises."""
    lo, hi = 0, start  # seconds[lo] <= 1 < seconds[hi] once the loops end
    seconds[hi] = seconds_at(hi)
    while seconds[hi] <= 1:
        lo, hi = hi, 2 * hi
        seconds[hi] = seconds_at(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        seconds[mid] = seconds_at(mid)
        lo, hi = (mid, hi) if seconds[mid] <= 1 else (lo, mid)
    return lo


def coefficients(degree: int) -> list:
    """The seeded rational coefficients of two polynomials of the degree."""
    rng = np.random.default_rng([SEED, degree])
    return [[Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 5)))
             for _ in range(degree + 1)] for _ in range(2)]


def complex_coefficients(degree: int) -> list:
    """Seeded complex floats with full mantissas for two polynomials."""
    rng = np.random.default_rng([SEED, degree])
    return [[complex(*rng.standard_normal(2)) for _ in range(degree + 1)]
            for _ in range(2)]


def frontiers() -> dict:
    """Completeness and maximizer degrees reached in 1 s (one_second_frontier),
    completeness seconds at fixed degrees (median of 5; see the module
    docstring), table rows per second and maximize_wehrl(2, 2, 8) seconds
    (median of 5).
    The maximizer search ends at the first NoConvergence, recording its
    stop_reason and degree."""
    from wehrl_lab.disc import (NoConvergence, PolyFun, completeness_check,
                                maximize_wehrl)
    from wehrl_lab.domains import PRESETS
    from wehrl_lab.suite import emit_constants_table

    def entries(degree: int) -> int:
        """The nonzero entries of the tensor of the two factors."""
        return math.prod(sum(c != 0 for c in cs)
                         for cs in coefficients(degree))

    def completeness_s(factors: list) -> float:
        """Seconds of one passing completeness_check of the two factors."""
        f, g = (PolyFun(nu, tuple(cs)) for nu, cs in
                zip((Fraction(5, 2), Fraction(7, 2)), factors))
        t0 = perf_counter()
        if not completeness_check(f, g).passed:
            raise RuntimeError(f"completeness fails at degree {f.degree}")
        return perf_counter() - t0

    failed: dict = {}  # the degree and stop_reason of a NoConvergence

    def maximize_s(degree: int) -> float:
        t0 = perf_counter()
        try:
            maximize_wehrl(2, 2, degree, seed=0)
        except NoConvergence as exc:
            failed.update(degree=degree, stop_reason=exc.stop_reason)
            raise
        return perf_counter() - t0

    seconds: dict = {}
    completeness_degree, completeness_slowdown = slowed(
        lambda: one_second_frontier(
            lambda degree: completeness_s(coefficients(degree)), 8, seconds))
    degrees = (4, 8, 16, 19, 64, 100)
    fixed = {str(degree): median(completeness_s(coefficients(degree))
                                 for _ in range(5)) for degree in degrees}
    complex_fixed = {str(degree): median(completeness_s(complex_coefficients(
        degree)) for _ in range(5)) for degree in (16, 64)}
    max_seconds: dict = {}
    maximize_slowdown = {"before": host_slowdown()}
    try:
        maximize_degree = one_second_frontier(maximize_s, 8, max_seconds)
    except NoConvergence:
        maximize_degree = max((d for d, t in max_seconds.items() if t <= 1),
                              default=None)
    maximize_slowdown["after"] = host_slowdown()
    suite_times = []
    for _ in range(5):
        t0 = perf_counter()
        maximize_wehrl(2, 2, 8, seed=0)
        suite_times.append(perf_counter() - t0)
    lams = [Fraction(x) for x in TABLE_LAMBDAS.split(",")]
    times, rows = [], 0
    for _ in range(5):
        t0 = perf_counter()
        rows = len(emit_constants_table(list(PRESETS), lams,
                                        [2, 3]).splitlines()) - 1
        times.append(perf_counter() - t0)
    return {"completeness_degree_1s": completeness_degree,
            "completeness_host_slowdown": completeness_slowdown,
            "completeness_s": {str(k): v for k, v in sorted(seconds.items())},
            "completeness_median_s": fixed,
            "completeness_nonzero_entries": {str(d): entries(d)
                                             for d in degrees},
            "completeness_complex_float_median_s": complex_fixed,
            "table_rows": rows, "table_s": median(times),
            "table_rows_per_s": rows / median(times),
            "maximize_2_2_8_s": median(suite_times),
            "maximize_degree_1s": maximize_degree,
            "maximize_host_slowdown": maximize_slowdown,
            "maximize_s": {str(k): v for k, v in sorted(max_seconds.items())},
            "maximize_no_convergence": failed or None}


FAR_PROJECTION = """
import json
from fractions import Fraction
from time import perf_counter

import numpy as np

from wehrl_lab.disc import ProjectionSpec, TensorPoly, qk_project

rng = np.random.default_rng([{seed}, {k}])
mu, nu = Fraction(5, 2), Fraction(7, 3)
F = TensorPoly(mu, nu, [[Fraction(int(rng.integers(-4, 5)),
                                  int(rng.integers(1, 5))) for _ in range(2)]
                        for _ in range(3)])
t0 = perf_counter()
qk_project(F, ProjectionSpec(mu, nu, {k}))
seconds = perf_counter() - t0
with open("/proc/self/status") as status:
    peak_kb = next(int(line.split()[1]) for line in status
                   if line.startswith("VmHWM:"))
print(json.dumps({{"seconds": seconds, "peak_rss_mb": peak_kb / 1024}}))
"""


def far_projection() -> dict:
    """Seconds and peak RSS of qk_project at k = 20000 on the seeded 3 x 2
    tensor of FAR_PROJECTION, three runs, each in a fresh process."""
    k = 20000

    def runs() -> list:
        out = []
        for _ in range(3):
            proc, _ = run([sys.executable, "-c",
                           FAR_PROJECTION.format(seed=SEED, k=k)])
            if proc.returncode != 0:
                raise RuntimeError(f"qk_project at k = {k} exited "
                                   f"{proc.returncode}:\n{proc.stderr}")
            out.append(json.loads(proc.stdout))
        return out

    result, slowdown = slowed(runs)
    return {"k": k, "mu": "5/2", "nu": "7/3", "runs": result,
            "median_s": median(r["seconds"] for r in result),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in result),
            "host_slowdown": slowdown}


def monte_carlo() -> dict:
    """Median ms of five 10^6-sample Monte Carlo calls (seeds 0-4) per shape,
    the traced peak bytes of one call at (2, 1, 0, 0), seed 0, and the bytes
    still traced when a second such call returns with the gc disabled."""
    from wehrl_lab.selberg import SelbergSpec, selberg_numeric

    def call(shape, seed):
        selberg_numeric(SelbergSpec(*shape), "monte_carlo", 10 ** 6, seed)

    median_ms = {}
    for shape in ((2, 1, 0, 0), (2, 2, 0, 0)):
        times = []
        for seed in range(5):
            t0 = perf_counter()
            call(shape, seed)
            times.append(perf_counter() - t0)
        median_ms[",".join(map(str, shape))] = 1e3 * median(times)
    tracemalloc.start()
    try:
        call((2, 1, 0, 0), 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    gc.disable()
    tracemalloc.start()
    try:
        call((2, 1, 0, 0), 0)
        left = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    return {"samples": 10 ** 6, "median_ms": median_ms,
            "traced_peak_bytes": peak, "traced_bytes_left_without_gc": left}


def median_us(call, calls: int) -> float:
    """Median microseconds of `calls` timed calls of call()."""
    times = []
    for _ in range(calls):
        t0 = perf_counter()
        call()
        times.append(perf_counter() - t0)
    return 1e6 * median(times)


def gauss_rules() -> dict:
    """Median us of 51 gauss_jacobi(n, 0.5, 1.0) calls per node count: node
    by node on floats at 1 to 32 nodes, on the node array at 33 and 514."""
    from wehrl_lab.exactnum import gauss_jacobi

    return {"alpha": 0.5, "beta": 1.0, "median_us": {
        str(n): median_us(lambda: gauss_jacobi(n, 0.5, 1.0), 51)
        for n in (1, 2, 9, 32, 33, 514)}}


def quadrature_setup() -> dict:
    """Median us of 201 calls each: verify_degree_integral at four (domain,
    lambda), laguerre_constant_C and selberg_closed at one input each."""
    from wehrl_lab.domains import PRESETS
    from wehrl_lab.selberg import (SelbergSpec, laguerre_constant_C,
                                   selberg_closed, verify_degree_integral)

    verify = {}
    for name, lam in (("disc", Fraction(5, 2)), ("SU(2,2)", Fraction(9, 2)),
                      ("Sp(3,R)", Fraction(9, 2)), ("E7", Fraction(37, 2))):
        d = PRESETS[name]
        verify[f"{name} {lam}"] = median_us(
            lambda: verify_degree_integral(d, lam), 201)
    d, spec = PRESETS["SU(2,2)"], SelbergSpec(2, 2, Fraction(1, 2), 1)
    return {"verify_degree_integral_us": verify,
            "laguerre_constant_C_us": {"SU(2,2)": median_us(
                lambda: laguerre_constant_C(d), 201)},
            "selberg_closed_us": {"2,2,1/2,1": median_us(
                lambda: selberg_closed(spec), 201)}}


def rounds_us(calls: dict, rounds: int) -> dict:
    """Median us per (name, size) key of calls, timed in rounds that call
    each once in turn, so that a drift of the host's speed reaches all
    alike: {name: {size: us}}."""
    times = {key: [] for key in calls}
    for _ in range(rounds):
        for key, call in calls.items():
            t0 = perf_counter()
            call()
            times[key].append(perf_counter() - t0)
    out = {"rounds": rounds}
    for (name, size), seconds in times.items():
        out.setdefault(name, {})[size] = 1e6 * median(seconds)
    return out


def exact_norms() -> dict:
    """Median us of the four exact weighted-norm calls of the module
    docstring, in rounds (rounds_us)."""
    from wehrl_lab.disc import PolyFun, completeness_check, product_norm2

    nu, calls = Fraction(5, 2), {}
    for degree, n in ((8, 1), (8, 3), (2000, 1)):
        f = PolyFun(nu, tuple(coefficients(degree)[0]))
        calls["product_norm2_exact_us", f"{degree},{n}"] = (
            lambda f=f, n=n: product_norm2([f] * n, n * nu))
    f, g = (PolyFun(w, tuple(cs)) for w, cs in zip(
        (nu, Fraction(7, 2)), coefficients(16)))
    calls["completeness_check_us", "16"] = lambda: completeness_check(f, g)
    return {"nu": "5/2", "completeness_weights": "5/2, 7/2",
            **rounds_us(calls, 201)}


def float_construction() -> dict:
    """Median us of 101 builds of a PolyFun of the first seeded complex-float
    factor (complex_coefficients) per degree, alone and with its first
    as_complex_array()."""
    from wehrl_lab.disc import PolyFun

    out = {"nu": 2, "build_us": {}, "build_and_read_us": {}}
    for degree in (13, 2000, 6000):
        cs = tuple(complex_coefficients(degree)[0])
        out["build_us"][str(degree)] = median_us(lambda: PolyFun(2, cs), 101)
        out["build_and_read_us"][str(degree)] = median_us(
            lambda: PolyFun(2, cs).as_complex_array(), 101)
    return out


def su2() -> dict:
    """Median us of the six SU(2) calls of the module docstring, timed in
    rounds that call each once in turn, so that a drift of the host's speed
    reaches all six alike."""
    from wehrl_lab.compact import (casimir_tensor_check, random_unit_vector,
                                   translate_vector, wehrl_compact_check)

    calls = {}
    for m, n in ((2, 2), (7, 3), (11, 3), (3, 6)):
        v = random_unit_vector(m, np.random.default_rng([m, n]))
        calls["wehrl_compact_check_us", f"{m},{n}"] = (
            lambda v=v, m=m, n=n: wehrl_compact_check(v, m, n))
    for m in (2, 4):
        v = translate_vector(m, 0.7, 1.2, -2.1)
        calls["casimir_tensor_check_us", str(m)] = (
            lambda v=v, m=m: casimir_tensor_check(v, m))
    return rounds_us(calls, 2001)


def size_frontiers() -> dict:
    """The SU(2) and Gauss rule frontiers of the module docstring
    (one_second_frontier).  A check that refuses counts as too slow, and
    the smallest nm refused keeps its error."""
    from wehrl_lab.compact import random_unit_vector, wehrl_compact_check
    from wehrl_lab.exactnum import FloatRangeExceeded, gauss_jacobi

    refused: dict = {}

    def compact_s(m: int) -> float:
        v = random_unit_vector(m, np.random.default_rng([SEED, m]))
        t0 = perf_counter()
        try:
            wehrl_compact_check(v, m, 2)
        except FloatRangeExceeded as exc:
            refused[2 * m] = f"{type(exc).__name__}: {exc}"
            return math.inf
        return perf_counter() - t0

    def gauss_s(n: int) -> float:
        t0 = perf_counter()
        gauss_jacobi(n, 0.5, 1.0)
        return perf_counter() - t0

    compact_seconds, gauss_seconds = {}, {}
    m, compact_slowdown = slowed(
        lambda: one_second_frontier(compact_s, 8, compact_seconds))
    nodes, gauss_slowdown = slowed(
        lambda: one_second_frontier(gauss_s, 8, gauss_seconds))
    first = min(refused, default=None)
    return {"su2": {"n": 2, "nm_1s": 2 * m, "host_slowdown": compact_slowdown,
                    "seconds": {str(2 * k): t for k, t in
                                sorted(compact_seconds.items())
                                if math.isfinite(t)},
                    "refused": first and {"nm": first,
                                          "error": refused[first]}},
            "gauss_jacobi": {"alpha": 0.5, "beta": 1.0, "nodes_1s": nodes,
                             "host_slowdown": gauss_slowdown,
                             "seconds": {str(k): t for k, t in
                                         sorted(gauss_seconds.items())}}}


def selberg_ranks() -> dict:
    """The Selberg rank frontier per a (see the module docstring): ranks
    r = 1, 2, ... until one is refused, fails or takes more than 1 s."""
    from wehrl_lab.domains import DomainParams
    from wehrl_lab.selberg import verify_degree_integral

    out = {}
    for a in (1, 2, 4):
        rank, seconds, nodes, stop = 0, {}, {}, None
        slowdown = {"before": host_slowdown()}
        for r in range(1, 13):
            d = DomainParams("custom", r, a, 0)
            t0 = perf_counter()
            try:
                rep = verify_degree_integral(d, d.p + Fraction(1, 2))
            except ValueError as exc:  # MethodUnsupported, FloatRangeExceeded
                stop = f"r={r}: {type(exc).__name__}: {exc}"
                break
            seconds[str(r)] = perf_counter() - t0
            nodes[str(r)] = rep["samples_or_nodes"]
            if seconds[str(r)] > 1 or not rep["deviation"] < 1e-10:
                stop = (f"r={r}: {seconds[str(r)]:.2f} s, deviation "
                        f"{rep['deviation']}")
                break
            rank = r
        slowdown["after"] = host_slowdown()
        out[str(a)] = {"rank_1s": rank, "seconds": seconds, "nodes": nodes,
                       "stop": stop, "host_slowdown": slowdown}
    return {"b": 0, "lambda": "p + 1/2", "by_a": out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", required=True, type=int)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bench = {}
    for workload in (w["name"] for w in spec["workloads"]):
        bench[workload] = {"seed": SEED, "seconds": seconds}
        for trace in (0, 1):
            print(f"perfbench {workload} --trace {trace}", file=sys.stderr)
            bench[workload][f"trace{trace}"] = perfbench(workload, seconds,
                                                         trace)
    print("tier-1 tests, suite all, frontiers, far projection, Monte Carlo, "
          "Gauss rules, quadrature setup, exact norms, float construction, "
          "SU(2) checks, SU(2) and Gauss rule frontiers, Selberg ranks",
          file=sys.stderr)
    sys.path.insert(0, str(ROOT / "src"))
    lines = src_lines()
    out = {
        "pr": args.pr,
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version(),
                 "numpy": metadata.version("numpy"),
                 "scipy": metadata.version("scipy")},
        "perfbench": bench,
        "tier1": tier1(),
        "suite_all": suite_all(),
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
        "frontiers": frontiers(),
        "qk_project_far": far_projection(),
        "monte_carlo": monte_carlo(),
        "gauss_rules": gauss_rules(),
        "quadrature_setup": quadrature_setup(),
        "exact_norms": exact_norms(),
        "float_construction": float_construction(),
        "su2": su2(),
        "size_frontiers": size_frontiers(),
        "selberg_ranks": selberg_ranks(),
    }
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(path, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
