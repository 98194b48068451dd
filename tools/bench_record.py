"""Record one point of the performance trajectory as BENCH_<pr>.json.

    python3 tools/bench_record.py --pr N

It measures the checkout it lives in, whatever the working directory:

* ``perfbench/run.py`` on each workload that ``BENCHMARK.json`` lists, at a
  fixed seed and the run length it sets, once with ``--trace 0`` (end-to-end
  metrics) and once with ``--trace 1`` (per-layer metrics);
* the wall time of the Tier-1 tests and of ``wehrl-lab suite all --seed 0``
  (with the SHA-256 of its stream and its exit code);
* the line count of each module under ``src/wehrl_lab``.

It writes ``BENCH_<pr>.json`` at the root of the checkout.  Run it on a
quiet host, one checkout at a time: the timings share the host with
whatever else runs.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


def run(cmd: list[str]) -> tuple[subprocess.CompletedProcess, float]:
    """Run cmd at the root with src/ on the path; output and wall seconds."""
    env = dict(os.environ, PYTHONPATH="src")
    t0 = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True)
    return proc, perf_counter() - t0


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
    proc, wall = run([sys.executable, "-m", "pytest", "-q",
                      "--continue-on-collection-errors"])
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": wall, "exit_code": proc.returncode,
            "summary": lines[-1] if lines else ""}


def suite_all() -> dict:
    proc, wall = run([sys.executable, "-m", "wehrl_lab.cli", "suite", "all",
                      "--seed", "0"])
    return {"wall_s": wall, "exit_code": proc.returncode,
            "reports": len(proc.stdout.splitlines()),
            "stream_sha256": hashlib.sha256(proc.stdout.encode()).hexdigest()}


def src_lines() -> dict[str, int]:
    return {path.stem: len(path.read_text().splitlines())
            for path in sorted((ROOT / "src" / "wehrl_lab").glob("*.py"))}


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
    print("tier-1 tests, suite all", file=sys.stderr)
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
    }
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(path, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
