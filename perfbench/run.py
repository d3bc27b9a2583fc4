"""gausslil benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload {bounds-sweep,density-cold,lil-series}
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports gausslil from ./src only.
With --trace 0 it prints the end-to-end metrics of one untraced run. With
--trace 1 it makes an untraced run, then a traced run of the same rounds,
and prints the per-layer metrics of the traced one. The last line of
standard output is {"correct", "attempted", "failed", "metrics"}; the full
record (every latency, failure classes, machine) goes to
.perfbench_out/<workload>-seed<N>-trace<T>.json and the spans of a traced
run to a -spans.json file beside it.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("bounds-sweep", "density-cold", "lil-series")
SETUP_PROBES = 10  # extra processes that only import gausslil, for setup_s
DEADLINE_S = 170.0  # every run ends well within the 180 s a run may take
JOBS_ABOVE_HI = 10  # job_hi_ms leaves at least this many jobs above it
# One client, one thread: BLAS may not add threads of its own.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def machine() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": THREAD_ENV["OPENBLAS_NUM_THREADS"],
        "load": "one worker process, one client, one BLAS thread",
        "note": "no hardware counters and no page-cache dropping: an unprivileged "
        "container is allowed neither",
    }


class Budget:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise TimeoutError("benchmark ran out of time")
        return left


def spawn(args: list[str], budget: Budget) -> str:
    """Run worker.py to completion and return its standard output."""
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(ROOT / "src")}
    cmd = [sys.executable, str(HERE / "worker.py"), repr(time.monotonic()), *args]
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=budget.left()
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return proc.stdout


def run_worker(workload, seed, budget, out: Path, extra: list[str]) -> dict:
    spawn(["--workload", workload, "--seed", str(seed), "--out", str(out), *extra], budget)
    return json.loads(out.read_text())


def job_hi(latencies_ms: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten jobs above it."""
    xs = sorted(latencies_ms)
    n = len(xs)
    k = max(n - JOBS_ABOVE_HI, 1)  # nearest rank; 1 when there are too few jobs
    return xs[k - 1], 100.0 * k / n


def end_to_end(res: dict, setups: list[float]) -> tuple[dict, dict]:
    """(metric -> (value, unit), facts recorded beside them)."""
    lat_ms = [x * 1e3 for x in res["latencies_s"]]
    failed = sum(res["failures"].values())
    hi, hi_pct = job_hi(lat_ms)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "jobs_per_s": ((len(lat_ms) - failed) / res["busy_s"], "1/s"),
        "job_p50_ms": (statistics.median(lat_ms), "ms"),
        "job_hi_ms": (hi, "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }, {"job_hi_percentile": hi_pct, "jobs": len(lat_ms), "fail_frac": failed / len(lat_ms)}


def unit_of(name: str) -> str:
    field = name.rsplit(".", 1)[1]
    if field.endswith("_ms"):
        return "ms"
    if field.endswith("_us"):
        return "us"
    if field.endswith("_per_s"):
        return "1/s"
    if field.endswith("_frac"):
        return "frac"
    return "count"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if not (ROOT / "src" / "gausslil" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no gausslil sources under {ROOT / 'src'}\n")
        return 2
    budget = Budget(DEADLINE_S)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"

    timed = ["--seconds", repr(args.seconds)]
    res = run_worker(args.workload, args.seed, budget, stem.with_suffix(".untraced.json"), timed)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "machine": machine(), "untraced": res}
    if args.trace:
        traced = run_worker(
            args.workload, args.seed, budget, stem.with_suffix(".traced.json"),
            ["--rounds", str(res["rounds"]), "--trace",
             "--trace-out", str(stem) + "-spans.json"],
        )
        layers = traced["layers"]
        layers["bench.trace_overhead_frac"] = (traced["busy_s"] - res["busy_s"]) / res["busy_s"]
        layers["bench.fail_frac"] = sum(traced["failures"].values()) / len(traced["latencies_s"])
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layers.items()}
        record["traced"] = {k: v for k, v in traced.items() if k != "layers"}
        res = traced
    else:
        setups = [res["setup_s"]] + [
            json.loads(spawn(["--setup-only"], budget))["setup_s"] for _ in range(SETUP_PROBES)
        ]
        e2e, info = end_to_end(res, setups)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
        record.update(info, setups_s=setups)
    record["metrics"] = metrics
    (stem.with_suffix(".json")).write_text(json.dumps(record, indent=1))

    attempted = len(res["latencies_s"])
    failed = sum(res["failures"].values())
    print(f"# {args.workload} seed={args.seed}: {res['rounds']} rounds, {attempted} jobs, "
          f"failures {res['failures']}")
    if not args.trace:
        print(f"# job_hi_ms is p{record['job_hi_percentile']:.1f} of {record['jobs']} jobs")
    print(json.dumps({
        "correct": res["unexpected_failures"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
