"""Record one point of the performance trajectory as BENCH_<pr>.json.

    python3 tools/bench_record.py --pr N

It measures the checkout it lives in, whatever the working directory, and
writes ``BENCH_<pr>.json`` at its root: ``pr``, then one key per section of
``SECTIONS``, in this order:

* ``host``: the machine, CPU count, and Python, numpy and scipy versions;
* ``perfbench``: ``perfbench/run.py`` on each workload that
  ``BENCHMARK.json`` lists, at a fixed seed and the run length it sets, once
  with ``--trace 0`` (end-to-end metrics) and once with ``--trace 1``
  (per-layer metrics);
* ``tier1``: the wall time, exit code and summary line of the Tier-1 tests;
* ``suite_all``: the wall time of ``wehrl-lab suite all --seed 0``, the
  SHA-256 of its stream, its exit code and its count of comparisons per
  tolerance source;
* ``src_lines`` and ``src_lines_total``: the line count of each module under
  ``src/wehrl_lab``, and their sum;
* ``frontiers``: the largest degree at which ``completeness_check`` of two
  seeded rational polynomials at (mu, nu) = (5/2, 7/2) takes at most 1 s;
  its median seconds at degrees 4, 8, 16, 19, 64 and 100, with each pair's
  count of nonzero tensor entries, and on a seeded pair of complex floats
  with full 53-bit mantissas (two coefficient lanes, so two Hahn ladders) at
  degrees 16 and 64; the constants-table rows per second on the grid of the
  CI ``table`` step (every preset, the lambdas below, n = 2, 3); the median
  seconds of the suite's ``maximize_wehrl(2, 2, 8, seed=0)``; and the
  largest degree at which ``maximize_wehrl`` at (nu, n) = (2, 2), seed 0,
  takes at most 1 s, with the degree and stop_reason of the smallest one
  that raised NoConvergence.  Medians are over 5 rounds, each call alone;
* ``qk_project_far``: the seconds and the peak RSS of ``qk_project`` at
  k = 20000 on a seeded 3 x 2 rational tensor at (mu, nu) = (5/2, 7/3), each
  of three runs in a fresh Python process, and their median seconds.  The
  peak is the process's VmHWM (Linux): its ``ru_maxrss`` would also keep the
  peak of this script, whose memory a subprocess shares until it execs;
* ``monte_carlo``: the median ms of ``selberg_numeric(..., "monte_carlo",
  10**6, seed)`` at (r, a, b, gamma) = (2, 1, 0, 0) and (2, 2, 0, 0), over 5
  rounds (seeds 0-4), each shape alone; the peak bytes that ``tracemalloc``
  traces over one call at (2, 1, 0, 0); and the bytes still traced once
  such a call returns with the gc disabled;
* ``gauss_rules``: the median us of ``gauss_jacobi(n, 0.5, 1.0)`` at 1, 2, 9,
  32, 33 and 514 nodes, on both sides of the cutoff between its two loop
  orders, over 51 rounds, each node count alone;
* ``quadrature_setup``: the quadrature oracles' fixed cost, the median us of
  ``verify_degree_integral`` at disc lambda = 5/2, SU(2,2) and Sp(3,R)
  lambda = 9/2 and E7 lambda = 37/2, of ``laguerre_constant_C`` at SU(2,2),
  and of ``selberg_closed`` at (r, a, b, gamma) = (2, 2, 1/2, 1), over 201
  rounds, each call alone;
* ``exact_norms``: the median us of ``product_norm2`` on n copies of a
  seeded rational polynomial (one real lane) at weight n nu, nu = 5/2, at
  (degree, n) = (8, 1), (8, 3) and (2000, 1), and of ``completeness_check``
  on the seeded pair of ``frontiers`` at degree 16, over 201 interleaved
  rounds;
* ``float_construction``: the median us to build a ``PolyFun`` of seeded
  complex floats at degrees 13, 2000 and 6000, alone and with its first
  ``as_complex_array()``, over 101 rounds, each call alone;
* ``su2``: the median us of ``wehrl_compact_check`` on a seeded unit vector
  at (m, n) = (2, 2), (7, 3), (11, 3) and (3, 6), and of
  ``casimir_tensor_check`` on a coherent vector at m = 2 and 4, over 2001
  interleaved rounds;
* ``size_frontiers``: the largest nm at which ``wehrl_compact_check`` at
  n = 2 on a seeded unit vector takes at most 1 s, with the error that
  refuses the smallest m refused, and the largest n at which
  ``gauss_jacobi(n, 0.5, 1.0)`` takes at most 1 s;
* ``selberg_ranks``: per a in {1, 2, 4}, the largest rank r at which
  ``verify_degree_integral`` of ``custom (r, a, 0)`` at lambda = p + 1/2
  passes (deviation below 1e-10) within 1 s, with the seconds and nodes per
  axis of each rank the search visits, and what stops the next rank: the
  error that refuses it, or its seconds.

Every time is taken by ``medians``: the median of a number of rounds, each
call alone (its rounds back to back) or interleaved (each round calls each
in turn, so that a drift of the host's speed reaches all alike); ``timed``
adds the round count and the host's slowdown around the rounds.  Every
frontier is found by ``one_second_frontier``, whose library refusals count
as too slow, and which refuses to double past ``MAX_SIZE``.  Each timed
section, frontier search and wall timing carries ``host_slowdown``, the
slowdown of perfbench's interpreter-bound reference kernel (its time over
its nominal time, ``perfbench/run.py``) just before and just after it, so
that records taken at different host speeds can be compared; in
``frontiers`` the plain ``host_slowdown`` is that of the timed medians.

Run it on a quiet host, one checkout at a time: the timings share the host
with whatever else runs.
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
from functools import partial
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
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
from run import Reference, interpreter_kernel  # noqa: E402

import numpy as np  # noqa: E402

from wehrl_lab.compact import (casimir_tensor_check,  # noqa: E402
                               random_unit_vector, translate_vector,
                               wehrl_compact_check)
from wehrl_lab.disc import (NoConvergence, PolyFun,  # noqa: E402
                            completeness_check, maximize_wehrl, product_norm2)
from wehrl_lab.domains import PRESETS, DomainParams  # noqa: E402
from wehrl_lab.exactnum import FloatRangeExceeded, gauss_jacobi  # noqa: E402
from wehrl_lab.selberg import (MethodUnsupported, SelbergSpec,  # noqa: E402
                               laguerre_constant_C, selberg_closed,
                               selberg_numeric, verify_degree_integral)
from wehrl_lab.suite import emit_constants_table  # noqa: E402

SEED = 1
TABLE_LAMBDAS = ("1,3/2,2,5/2,3,7/2,4,9/2,5,11/2,6,13/2,7,15/2,8,17/2,9,19/2,"
                 "10,21/2,12,18,20")
# The library's typed refusals of a size: past the float range, past a
# rule's node limit, or no convergence.  A frontier search counts them as
# too slow.
REFUSALS = (FloatRangeExceeded, MethodUnsupported, NoConvergence)
# A frontier search doubles no size past this one, far above every recorded
# frontier (the largest, the maximizer's, is 7084 in BENCH_36): a call that
# does not slow down with its size would double until memory runs out.
MAX_SIZE = 2 ** 20


class SizeLimit(Exception):
    """Every size a frontier search doubled to, up to MAX_SIZE, took at most
    1 s."""


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


def medians(calls: dict, rounds: int, interleaved: bool = False,
            unit: float = 1e6) -> dict:
    """The median time of each of calls over `rounds` calls, in seconds
    times unit (microseconds by default).  Alone, each call's rounds run
    back to back; interleaved, each round calls each once in turn.  A key
    (name, size) reports as out[name][size]."""
    items = list(calls.items())
    times = {key: [] for key, _ in items}
    for key, call in (items * rounds if interleaved else
                      [item for item in items for _ in range(rounds)]):
        t0 = perf_counter()
        call()
        times[key].append(perf_counter() - t0)
    out = {}
    for key, seconds in times.items():
        if isinstance(key, tuple):
            out.setdefault(key[0], {})[key[1]] = unit * median(seconds)
        else:
            out[key] = unit * median(seconds)
    return out


def timed(calls: dict, rounds: int, interleaved: bool = False,
          unit: float = 1e6) -> dict:
    """medians(...) with "rounds": rounds and "host_slowdown" read just
    before the first call and just after the last."""
    times, slowdown = slowed(partial(medians, calls, rounds, interleaved,
                                     unit))
    return {"rounds": rounds, "host_slowdown": slowdown, **times}


def one_second_frontier(call_at, start: int) -> dict:
    """The largest size whose call takes at most 1 s, by doubling from start
    then bisection; call_at(size) builds, untimed, the call that one round
    of medians times.  A REFUSALS error counts as too slow; any other
    exception propagates.  Returns "size_1s", "seconds" of each size timed,
    "refused": (size, error) of the smallest size refused, or None, and
    "host_slowdown" around the search.  Where every size up to MAX_SIZE
    takes at most 1 s, the search stops: "size_1s" is None and the next
    size is refused with SizeLimit."""
    seconds, refused = {}, {}

    def too_slow(size: int) -> bool:
        try:
            seconds[size] = medians({0: call_at(size)}, 1, unit=1)[0]
        except REFUSALS as exc:
            refused[size] = exc
            return True
        return seconds[size] > 1

    def search() -> int | None:
        lo, hi = 0, start  # lo fits in 1 s and hi does not, once both end
        while not too_slow(hi):
            if hi >= MAX_SIZE:
                refused[2 * hi] = SizeLimit(f"no size doubled to from {start}"
                                            f" to {hi} took over 1 s")
                return None
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if too_slow(mid) else (mid, hi)
        return lo

    size, slowdown = slowed(search)
    return {"size_1s": size, "seconds": dict(sorted(seconds.items())),
            "refused": min(refused.items(), default=None),
            "host_slowdown": slowdown}


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


def host() -> dict:
    return {"machine": platform.machine(), "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy")}


def perfbench() -> dict:
    spec, out = json.loads((ROOT / "BENCHMARK.json").read_text()), {}
    for workload in (w["name"] for w in spec["workloads"]):
        out[workload] = {"seed": SEED, "seconds": spec["run_seconds"]}
        for trace in (0, 1):
            print(f"  {workload} --trace {trace}", file=sys.stderr)
            proc, wall = run([sys.executable, "perfbench/run.py",
                              "--workload", workload, "--seed", str(SEED),
                              "--seconds", str(spec["run_seconds"]),
                              "--trace", str(trace)])
            if proc.returncode != 0:
                raise RuntimeError(f"perfbench {workload} --trace {trace} "
                                   f"exited {proc.returncode}:\n{proc.stderr}")
            record, result = map(json.loads, proc.stdout.splitlines()[-2:])
            out[workload][f"trace{trace}"] = {
                "wall_s": wall, "correct": result["correct"],
                "attempted": result["attempted"], "failed": result["failed"],
                "host_slowdown": record["run_record"]["host_slowdown"],
                "metrics": {name: m["value"]
                            for name, m in result["metrics"].items()}}
    return out


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


def src_lines_total() -> int:
    return sum(src_lines().values())


def frontiers() -> dict:
    def checked(factors: list):
        """The call of a completeness_check of the two factors that must
        pass."""
        f, g = (PolyFun(nu, tuple(cs)) for nu, cs in
                zip((Fraction(5, 2), Fraction(7, 2)), factors))

        def check() -> None:
            if not completeness_check(f, g).passed:
                raise RuntimeError(f"completeness fails at degree {f.degree}")
        return check

    completeness = one_second_frontier(
        lambda degree: checked(coefficients(degree)), 8)
    maximize = one_second_frontier(
        lambda degree: partial(maximize_wehrl, 2, 2, degree, seed=0), 8)
    degrees = (4, 8, 16, 19, 64, 100)
    table = partial(emit_constants_table, list(PRESETS),
                    [Fraction(x) for x in TABLE_LAMBDAS.split(",")], [2, 3])
    times = timed({
        **{("completeness_median_s", str(d)): checked(coefficients(d))
           for d in degrees},
        **{("completeness_complex_float_median_s", str(d)):
           checked(complex_coefficients(d)) for d in (16, 64)},
        "table_s": table,
        "maximize_2_2_8_s": partial(maximize_wehrl, 2, 2, 8, seed=0)},
        5, unit=1)
    rows, failed = len(table().splitlines()) - 1, maximize["refused"]
    return {"completeness_degree_1s": completeness["size_1s"],
            "completeness_host_slowdown": completeness["host_slowdown"],
            "completeness_s": completeness["seconds"], **times,
            "completeness_nonzero_entries": {
                str(d): math.prod(sum(c != 0 for c in cs)
                                  for cs in coefficients(d)) for d in degrees},
            "table_rows": rows, "table_rows_per_s": rows / times["table_s"],
            "maximize_degree_1s": maximize["size_1s"],
            "maximize_host_slowdown": maximize["host_slowdown"],
            "maximize_s": maximize["seconds"],
            "maximize_no_convergence": failed and {
                "degree": failed[0], "stop_reason": failed[1].stop_reason}}


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


def qk_project_far() -> dict:
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
    def call(shape, seed):
        selberg_numeric(SelbergSpec(*shape), "monte_carlo", 10 ** 6, seed)

    calls = {}
    for shape in ((2, 1, 0, 0), (2, 2, 0, 0)):
        seeds = iter(range(5))  # the round's seed
        calls["median_ms", ",".join(map(str, shape))] = (
            lambda shape=shape, seeds=seeds: call(shape, next(seeds)))
    times = timed(calls, 5, unit=1e3)
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
    return {"samples": 10 ** 6, **times, "traced_peak_bytes": peak,
            "traced_bytes_left_without_gc": left}


def gauss_rules() -> dict:
    return {"alpha": 0.5, "beta": 1.0, **timed({
        ("median_us", str(n)): partial(gauss_jacobi, n, 0.5, 1.0)
        for n in (1, 2, 9, 32, 33, 514)}, 51)}


def quadrature_setup() -> dict:
    calls = {("verify_degree_integral_us", f"{name} {lam}"):
             partial(verify_degree_integral, PRESETS[name], lam)
             for name, lam in (("disc", Fraction(5, 2)),
                               ("SU(2,2)", Fraction(9, 2)),
                               ("Sp(3,R)", Fraction(9, 2)),
                               ("E7", Fraction(37, 2)))}
    calls["laguerre_constant_C_us", "SU(2,2)"] = partial(
        laguerre_constant_C, PRESETS["SU(2,2)"])
    calls["selberg_closed_us", "2,2,1/2,1"] = partial(
        selberg_closed, SelbergSpec(2, 2, Fraction(1, 2), 1))
    return timed(calls, 201)


def exact_norms() -> dict:
    nu, calls = Fraction(5, 2), {}
    for degree, n in ((8, 1), (8, 3), (2000, 1)):
        f = PolyFun(nu, tuple(coefficients(degree)[0]))
        calls["product_norm2_exact_us", f"{degree},{n}"] = (
            lambda f=f, n=n: product_norm2([f] * n, n * nu))
    f, g = (PolyFun(w, tuple(cs)) for w, cs in zip(
        (nu, Fraction(7, 2)), coefficients(16)))
    calls["completeness_check_us", "16"] = partial(completeness_check, f, g)
    return {"nu": "5/2", "completeness_weights": "5/2, 7/2",
            **timed(calls, 201, interleaved=True)}


def float_construction() -> dict:
    calls = {}
    for degree in (13, 2000, 6000):
        cs = tuple(complex_coefficients(degree)[0])
        calls["build_us", str(degree)] = partial(PolyFun, 2, cs)
        calls["build_and_read_us", str(degree)] = (
            lambda cs=cs: PolyFun(2, cs).as_complex_array())
    return {"nu": 2, **timed(calls, 101)}


def su2() -> dict:
    calls = {}
    for m, n in ((2, 2), (7, 3), (11, 3), (3, 6)):
        calls["wehrl_compact_check_us", f"{m},{n}"] = partial(
            wehrl_compact_check,
            random_unit_vector(m, np.random.default_rng([m, n])), m, n)
    for m in (2, 4):
        calls["casimir_tensor_check_us", str(m)] = partial(
            casimir_tensor_check, translate_vector(m, 0.7, 1.2, -2.1), m)
    return timed(calls, 2001, interleaved=True)


def size_frontiers() -> dict:
    compact = one_second_frontier(lambda m: partial(
        wehrl_compact_check,
        random_unit_vector(m, np.random.default_rng([SEED, m])), m, 2), 8)
    gauss = one_second_frontier(
        lambda n: partial(gauss_jacobi, n, 0.5, 1.0), 8)
    refused = compact["refused"]
    return {"su2": {"n": 2, "nm_1s": 2 * compact["size_1s"],
                    "host_slowdown": compact["host_slowdown"],
                    "seconds": {2 * m: t
                                for m, t in compact["seconds"].items()},
                    "refused": refused and {
                        "nm": 2 * refused[0],
                        "error": f"{type(refused[1]).__name__}: {refused[1]}"}},
            "gauss_jacobi": {"alpha": 0.5, "beta": 1.0,
                             "nodes_1s": gauss["size_1s"],
                             "host_slowdown": gauss["host_slowdown"],
                             "seconds": gauss["seconds"]}}


def selberg_ranks() -> dict:
    out = {}
    for a in (1, 2, 4):
        nodes = {}

        def verify_at(r: int):
            d = DomainParams("custom", r, a, 0)

            def verify() -> None:
                rep = verify_degree_integral(d, d.p + Fraction(1, 2))
                if not rep["deviation"] < 1e-10:
                    raise RuntimeError(f"verify_degree_integral of {d} "
                                       f"deviates by {rep['deviation']}")
                nodes[r] = rep["samples_or_nodes"]
            return verify

        frontier = one_second_frontier(verify_at, 1)
        r, refused = frontier["size_1s"] + 1, frontier["refused"]
        stop = (f"{type(refused[1]).__name__}: {refused[1]}"
                if refused and refused[0] == r
                else f"{frontier['seconds'][r]:.2f} s")
        out[str(a)] = {"rank_1s": r - 1, "seconds": frontier["seconds"],
                       "nodes": dict(sorted(nodes.items())),
                       "stop": f"r={r}: {stop}",
                       "host_slowdown": frontier["host_slowdown"]}
    return {"b": 0, "lambda": "p + 1/2", "by_a": out}


SECTIONS = [host, perfbench, tier1, suite_all, src_lines, src_lines_total,
            frontiers, qk_project_far, monte_carlo, gauss_rules,
            quadrature_setup, exact_norms, float_construction, su2,
            size_frontiers, selberg_ranks]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", required=True, type=int)
    args = parser.parse_args(argv)
    out = {"pr": args.pr}
    for section in SECTIONS:
        print(section.__name__, file=sys.stderr)
        out[section.__name__] = section()
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(path, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
