"""Benchmark of wehrl-lab: one workload, one closed loop, one process.

    python3 perfbench/run.py --workload exact_tensor --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
One caller runs one check after another.  A run builds a fixed number of
whole rounds of seeded checks (``workloads.py``) and runs every check once
in each of PASSES passes, each pass in its own seeded order.  The number of
rounds is ``--seconds`` divided by the nominal time of PASSES passes over a
round, rounded, at least one, so the instance list depends only on the seed
and ``--seconds``, never on how fast the code under test is.  The BLAS and
OpenMP pools are pinned to one thread before numpy is imported.

Each check's time is the median of its times over the passes.  Every
check starts from an empty sympy cache, so a repeat does not read results
cached by an earlier pass.

The shared host this was tuned on runs the same code up to 1.7 times
slower for stretches of seconds to minutes, longer than a run, and how
much slower depends on the kind of work.  So check times are scaled to one
host speed.  Fixed reference kernels are timed between every two checks;
each kernel's time over its nominal time (``NOMINAL_S``) is the host's
slowdown for that kind of work, and a check's time is divided by the mean
slowdown just before and just after it.  ``exact_tensor``, whose checks are
all interpreter-bound, is scaled by a kernel of exact rational arithmetic;
the other two workloads, which mix interpreter-bound work with numpy work
on large arrays, by the mean of that kernel's slowdown and that of one
streaming an 8 MB array.  Check times are thus seconds at the host speed
of the nominal times; the run record keeps the unscaled figures and the
host's slowdown beside them.  ``setup_s`` is not scaled: a setup probe runs
in a child process, whose times did not follow the kernels'.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
passes, then one traced pass (``tracing.py``), and prints the per-layer
metrics; the untraced passes give the per-rung medians and the tracing
overhead.  The last line of stdout is the result object; the line before
it is the run record, which is also written with the spans under
``perfbench/out/``.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import Optional  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
PASSES = 3
# Setup probes before the first pass and after each pass, so that their
# median samples the host over the whole run.
PROBES_PER_GAP = 1
TAIL_PERCENTILES = (99.9, 99, 90, 75, 50)
MODULES = ("exactnum", "domains", "degrees", "selberg", "disc", "compact",
           "suite", "reports")
WORKLOADS = ("exact_tensor", "quadrature_oracles", "float_oracles")
# Nominal seconds of one pass over one round, measured on a 2-vCPU x86-64
# host; they fix the number of rounds a run measures.
ROUND_SECONDS = {"exact_tensor": 10.0, "quadrature_oracles": 10.0,
                 "float_oracles": 11.0}

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "checks_per_s": "1/s",
    "check_p50_ms": "ms",
    "check_tail_ms": "ms",
    "pass_ratio": "ratio",
    "peak_rss_mb": "MB",
}

# (span name, stats): calls and busy_s/self_s read from the spans.
_SPAN_METRICS = (
    ("disc.qk_project", ("calls", "self_s")),
    ("disc.norm2_exact", ("self_s",)),
    ("disc.monomial_norm2", ("calls",)),
    ("disc.completeness_check", ("busy_s",)),
    ("disc.q1_iterated", ("busy_s",)),
    ("disc.improved_check", ("self_s",)),
    ("disc.PolyFun.power", ("busy_s",)),
    ("exactnum.pochhammer", ("calls", "self_s")),
    ("selberg.ordered_sector_quadrature", ("self_s",)),
    ("selberg.selberg_numeric", ("self_s",)),
    ("selberg.verify_degree_integral", ("busy_s",)),
    ("selberg.selberg_closed", ("self_s",)),
    ("selberg.laguerre_constant_C", ("self_s",)),
    ("degrees.gamma_ratio_product", ("calls", "self_s")),
    ("degrees.scalar_formal_degree", ("busy_s",)),
    ("degrees.c_G", ("self_s",)),
    ("degrees.wehrl_constant", ("busy_s",)),
    ("suite.emit_constants_table", ("busy_s",)),
    ("domains", ("calls", "self_s")),  # every function of the module
    ("compact.cartan_projection", ("calls", "self_s")),
    ("compact.wehrl_compact_check", ("busy_s",)),
    ("compact.casimir_tensor_check", ("self_s",)),
    ("compact.reduction_consistency", ("busy_s",)),
    ("compact.translate_fit_distance", ("busy_s",)),
    ("compact.group_element", ("calls",)),
    ("compact.wehrl_integral_numeric", ("self_s",)),
    ("disc.wehrl_check", ("self_s",)),
    ("disc.matrix_coeff_lp", ("self_s",)),
    ("disc.norm_p_numeric", ("self_s",)),
    ("disc.maximize_wehrl", ("calls", "self_s")),
    ("suite.run_suite", ("self_s",)),
    ("reports.Report.to_json", ("self_s",)),
)
# Counts the benchmark computes from arguments and results (tracing.COUNTERS).
COMPUTED = {
    "selberg.grid_points": ("points", "lower"),
    "selberg.useful_point_ratio": ("ratio", "higher"),
    "selberg.mc_samples": ("samples", "lower"),
    "selberg.mc_samples_per_s": ("1/s", "higher"),
    "compact.projector_bytes": ("B", "lower"),
    "disc.maximize_wehrl.iterations": ("count", "lower"),
    "suite.stream_bytes": ("B", "lower"),
}
_DEGREE_RUNGS = tuple(f"deg{d:02d}" for d in range(4, 17))
_DIM_RUNGS = ("m2n2", "m2n3", "m3n3", "m3n4", "m7n3", "m4n4", "m2n6", "m8n3",
              "m9n3", "m3n5", "m5n4", "m10n3", "m11n3", "m2n7", "m4n5", "m3n6")
RUNGS = (("completeness_check", "disc.completeness_check", _DEGREE_RUNGS),
         ("wehrl_compact_check", "compact.wehrl_compact_check", _DIM_RUNGS))


def _per_layer() -> dict[str, tuple[str, str]]:
    out = {}
    for span, stats in _SPAN_METRICS:
        for stat in stats:
            out[f"{span}.{stat}"] = ("count", "lower") if stat == "calls" \
                else ("s", "lower")
    out.update(COMPUTED)
    for _, prefix, rungs in RUNGS:
        out.update({f"{prefix}.median_s.{r}": ("s", "lower") for r in rungs})
    out["disc.completeness_check.frontier_degree"] = ("degree", "higher")
    out["compact.wehrl_compact_check.frontier_dim"] = ("dim", "higher")
    out["trace.overhead_s"] = ("s", "lower")
    out.update({f"{mod}.src_lines": ("lines", "lower") for mod in MODULES})
    return out


PER_LAYER = _per_layer()  # name -> (unit, better)

PROBE = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
         "workloads.build_round(sys.argv[3], int(sys.argv[4]), 0, "
         "sys.argv[5] == '1'); print('ready', flush=True)")


@dataclass(frozen=True)
class CheckResult:
    kind: str
    rung: Optional[str]
    seconds: float
    scaled: float  # seconds at the reference host speed
    error: Optional[str]


def interpreter_kernel():
    """Exact rational products and small dense products, like the
    interpreter-bound checks of exact_tensor."""
    import numpy

    coeffs = [Fraction(p, q) for p, q in zip(
        (3, -1, 2, -4, 1, -3, 4, -2, 1, 3, -1, 2),
        (4, 3, 1, 3, 2, 4, 3, 1, 4, 2, 3, 2))]
    matrix = numpy.linspace(-1.0, 1.0, 120 * 120).reshape(120, 120)

    def kernel() -> None:
        out = [Fraction(0)] * (2 * len(coeffs) - 1)
        for i, a in enumerate(coeffs):
            for j, b in enumerate(coeffs):
                out[i + j] += a * b
        matrix @ matrix @ matrix @ matrix

    return kernel


def memory_kernel():
    """Two passes over an 8 MB array, like the memory-bound grids and
    projections of the numpy checks."""
    import numpy

    data = numpy.linspace(-1.0, 1.0, 1_000_000)

    def kernel() -> None:
        float(numpy.dot(data, data))
        float((data * 1.5).sum())

    return kernel


# Per kernel, its best-of-two time on the 2-vCPU x86-64 host the benchmark
# was tuned on, at that host's faster speed.
NOMINAL_S = {interpreter_kernel: 0.0007, memory_kernel: 0.0025}
# The kernels whose mean slowdown scales each workload's check times.
REFERENCES = {"exact_tensor": (interpreter_kernel,),
              "quadrature_oracles": (interpreter_kernel, memory_kernel),
              "float_oracles": (interpreter_kernel, memory_kernel)}


class Reference:
    """Fixed kernels timed between checks.  Their mean time over their
    nominal time is the host's slowdown at that moment."""

    def __init__(self, makers):
        self.kernels = [(make(), NOMINAL_S[make]) for make in makers]
        self.samples: list = []
        self.per_kernel: list = [[] for _ in makers]

    def now(self) -> float:
        """The host's slowdown now, from each kernel's best of two runs."""
        slowdowns = []
        for kernel, nominal in self.kernels:
            best = math.inf
            for _ in range(2):
                start = perf_counter()
                kernel()
                best = min(best, perf_counter() - start)
            slowdowns.append(best / nominal)
        for samples, slowdown in zip(self.per_kernel, slowdowns):
            samples.append(slowdown)
        self.samples.append(statistics.fmean(slowdowns))
        return self.samples[-1]

    def scale(self, before: float, after: float) -> float:
        return 2 / (before + after)


@dataclass(frozen=True)
class Pass:
    wall: float
    results: list  # CheckResult per check, in the order of the check list


def rounds_for(workload: str, seconds: float, tiny: bool) -> int:
    if tiny:
        return 1
    return max(1, round(seconds / (PASSES * ROUND_SECONDS[workload])))


def build_checks(workload: str, seed: int, tiny: bool, rounds: int) -> list:
    from workloads import build_round

    return [check for r in range(rounds)
            for check in build_round(workload, seed, r, tiny)]


def pass_order(seed: int, index: int, count: int) -> list:
    """A seeded order for pass `index`, so the repeats of one check fall at
    different moments of the run."""
    return random.Random(f"{seed}/{index}").sample(range(count), count)


def run_pass(checks: list, order: list, ref: Reference,
             tracer=None) -> Pass:
    """Run the checks in the given order.  Each check's scaled time divides
    its time by the host's mean slowdown just before and just after it."""
    results = [None] * len(checks)
    before = ref.now()
    start = perf_counter()
    for i in order:
        check = checks[i]
        seconds, error = run_check(check, i, tracer)
        after = ref.now()
        results[i] = CheckResult(check.kind, check.rung, seconds,
                                 seconds * ref.scale(before, after), error)
        before = after
    return Pass(perf_counter() - start, results)


def run_check(check, index: int, tracer) -> tuple[float, Optional[str]]:
    from sympy.core.cache import clear_cache

    clear_cache()
    start = perf_counter()
    error = None
    try:
        if tracer is None:
            check.call()
        else:
            with tracer.check_span(f"check.{check.kind}", index):
                check.call()
    except Exception as exc:  # a raise is a failed check; the loop goes on
        error = f"{type(exc).__name__}: {exc}"
    return perf_counter() - start, error


def tail(times: list) -> tuple[float, float]:
    """(q, value): the highest of the percentiles in TAIL_PERCENTILES that has
    at least 10 samples beyond it, by nearest rank (p90 for 100 to 999
    checks); the median when even p50 has fewer beyond it."""
    ordered, n = sorted(times), len(times)
    for q in TAIL_PERCENTILES:
        rank = math.ceil(q * n / 100)
        if n - rank >= 10:
            return q, ordered[rank - 1]
    return 50, statistics.median(ordered)


def check_times(passes: list, scaled: bool) -> list:
    """Per check, the median of its times over the passes."""
    return [statistics.median(p.results[i].scaled if scaled
                              else p.results[i].seconds for p in passes)
            for i in range(len(passes[0].results))]


def setup_times(workload: str, seed: int, tiny: bool, count: int) -> list:
    """Seconds from spawning a fresh interpreter until it has imported
    wehrl_lab (numpy, scipy, sympy included) and built round 0's inputs."""
    out = []
    for _ in range(count):
        start = perf_counter()
        with subprocess.Popen(
                [sys.executable, "-c", PROBE, str(SRC), str(BENCH_DIR),
                 workload, str(seed), "1" if tiny else "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = perf_counter()
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
        out.append(ready - start)
    return out


def rung_medians(checks: list, times: list) -> dict[str, float]:
    by_rung: dict[str, list] = {}
    for check, seconds in zip(checks, times):
        if check.rung is not None:
            by_rung.setdefault(check.rung, []).append(seconds)
    return {rung: statistics.median(ts) for rung, ts in by_rung.items()}


def frontier(medians: dict, rungs: tuple, size) -> int:
    """Size of the largest rung whose median check time is <= 1 s, else 0."""
    best = 0
    for rung in rungs:
        if rung in medians and medians[rung] <= 1.0:
            best = max(best, size(rung))
    return best


def _dim(rung: str) -> int:
    m, n = rung[1:].split("n")
    return (int(m) + 1) ** int(n)


def src_lines() -> dict[str, int]:
    return {mod: len((SRC / "wehrl_lab" / f"{mod}.py").read_text()
                     .splitlines()) for mod in MODULES}


def layer_metrics(tracer, medians: dict, overhead: float) -> dict[str, float]:
    stats = tracer.layer_stats()
    zero = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    values: dict[str, float] = {}
    for span, wanted in _SPAN_METRICS:
        if "." in span:
            st = stats.get(span, zero)
        else:  # a whole module
            st = {k: sum(s[k] for name, s in stats.items()
                         if name.startswith(span + ".")) for k in zero}
        for stat in wanted:
            values[f"{span}.{stat}"] = st[stat]
    counts = tracer.counts
    values["selberg.grid_points"] = counts["selberg.grid_points"]
    values["selberg.useful_point_ratio"] = (
        counts["selberg.useful_points"] / counts["selberg.grid_points"]
        if counts["selberg.grid_points"] else 0.0)
    values["selberg.mc_samples"] = counts["selberg.mc_samples"]
    values["selberg.mc_samples_per_s"] = (
        counts["selberg.mc_samples"] / counts["selberg.mc_s"]
        if counts["selberg.mc_s"] else 0.0)
    for name in ("compact.projector_bytes", "disc.maximize_wehrl.iterations",
                 "suite.stream_bytes"):
        values[name] = counts[name]
    for _, prefix, rungs in RUNGS:
        for rung in rungs:
            values[f"{prefix}.median_s.{rung}"] = medians.get(rung, 0.0)
    values["disc.completeness_check.frontier_degree"] = frontier(
        medians, _DEGREE_RUNGS, lambda rung: int(rung[3:]))
    values["compact.wehrl_compact_check.frontier_dim"] = frontier(
        medians, _DIM_RUNGS, _dim)
    values["trace.overhead_s"] = overhead
    for mod, lines in src_lines().items():
        values[f"{mod}.src_lines"] = lines
    return values


def _commit() -> str:
    """HEAD of the checkout's own .git, if it has one; never runs git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "wehrl_lab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def execute(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False,
            probes: int = PROBES_PER_GAP) -> tuple[dict, dict]:
    """Run one workload; return (run record, result object)."""
    import numpy
    import scipy
    import sympy

    from tracing import Tracer

    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "tiny": tiny, "commit": _commit(),
        "src_sha256": _src_digest(), "nproc": os.cpu_count(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "sympy": sympy.__version__,
        "loop": "closed, one caller, single-threaded",
        "passes": PASSES,
        "check_time": "median over the passes, scaled to the host speed",
        "reference_kernels": [make.__name__ for make in REFERENCES[workload]],
    }
    OUT.mkdir(exist_ok=True)
    rounds = rounds_for(workload, seconds, tiny)
    checks = build_checks(workload, seed, tiny, rounds)
    ref = Reference(REFERENCES[workload])
    setup: list = []
    untraced = []
    for index in range(PASSES):
        if not trace:
            setup += setup_times(workload, seed, tiny, probes)
        untraced.append(run_pass(checks, pass_order(seed, index, len(checks)),
                                 ref))
    times = check_times(untraced, scaled=True)
    passes = list(untraced)
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(checks, pass_order(seed, 0, len(checks)), ref,
                              tracer)
        finally:
            tracer.uninstall()
        passes.append(traced)
        # Scaled check times, so that the host's speed falls out.
        overhead = sum(res.scaled for res in traced.results) - sum(times)
        metrics = layer_metrics(tracer, rung_medians(checks, times), overhead)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        record["computed_metrics"] = sorted(COMPUTED)
        record["spans"] = len(tracer.spans)
        tracer.write_spans(OUT / f"spans-{workload}-seed{seed}.jsonl")
    else:
        setup += setup_times(workload, seed, tiny, probes)
        q, tail_s = tail(times)
        attempts = [res for p in untraced for res in p.results]
        failed = sum(res.error is not None for res in attempts)
        metrics = {
            "setup_s": statistics.median(setup),
            "checks_per_s": len(times) / sum(times),
            "check_p50_ms": 1000 * statistics.median(times),
            "check_tail_ms": 1000 * tail_s,
            "pass_ratio": (len(attempts) - failed) / len(attempts),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        record["setup_samples_s"] = setup
        record["check_tail"] = {"percentile": q, "samples": len(times)}
        unscaled = check_times(untraced, scaled=False)
        record["unscaled"] = {
            "checks_per_s": len(unscaled) / sum(unscaled),
            "check_p50_ms": 1000 * statistics.median(unscaled),
            "check_tail_ms": 1000 * tail(unscaled)[1],
        }
        record["fail_ratio"] = failed / len(attempts)
    results = [res for p in passes for res in p.results]
    failures = [f"{res.kind}: {res.error}" for res in results if res.error]
    verdicts = [[res.error is None for res in p.results] for p in passes]
    kinds = sorted({check.kind for check in checks})
    record.update({
        "host_slowdown": statistics.median(ref.samples),
        "kernel_slowdowns": {make.__name__: statistics.median(samples)
                             for make, samples in zip(REFERENCES[workload],
                                                      ref.per_kernel)},
        "rounds": rounds, "checks": len(checks),
        "pass_wall_s": [p.wall for p in passes], "failures": failures[:20],
        "verdicts_agree": all(v == verdicts[0] for v in verdicts),
        "rung_median_s": rung_medians(checks, times),
        "kind_median_s": {kind: statistics.median(
            t for check, t in zip(checks, times) if check.kind == kind)
            for kind in kinds},
    })
    result = {
        "correct": not failures and record["verdicts_agree"],
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    (OUT / f"record-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "wehrl_lab" / "__init__.py").is_file():
        print(f"wehrl_lab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    record, result = execute(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    print(json.dumps({"run_record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
