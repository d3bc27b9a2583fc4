"""One workload process: import gausslil, run whole rounds in a closed loop.

Usage (run.py starts it; `spawned_at` is the parent's time.monotonic() just
before the spawn, so setup time covers interpreter start and the import):

    python3 perfbench/worker.py SPAWNED_AT --setup-only
    python3 perfbench/worker.py SPAWNED_AT --workload NAME --seed N
        (--seconds S | --rounds R) [--trace] --out RESULT.json

One client sends one job after another. Timing covers only the jobs: input
generation and the checks run between them.
"""
import sys
import time

if __name__ == "__main__":
    _SPAWNED_AT = float(sys.argv[1])
    import gausslil  # noqa: F401  (setup time ends when this returns)

    _SETUP_S = time.monotonic() - _SPAWNED_AT

import argparse
import json
import resource
import statistics
from collections import Counter

from adapter import Adapter, Tracer
from workloads import KNOWN_FAILURES, WORKLOADS, classify_exception

# Per-layer metrics of the traced run: span name -> fields. Count fields sum
# the span's counts; the rest are derived from the span durations.
LAYER_FIELDS = {
    "chidensity.cold": ("calls", "busy_ms", "p50_ms"),
    "chidensity.weighted_norm_tail": ("calls", "busy_ms", "p50_us", "p90_us"),
    "chidensity.weighted_shell_probability": ("calls", "busy_ms", "p50_us", "p90_us"),
    "chidensity.weighted_density": ("calls", "points", "busy_ms"),
    "chidensity.density_bounds": ("calls", "busy_ms"),
    "regularize.product_bounds": ("calls", "busy_ms"),
    "regularize.lemma_sides": ("calls", "busy_ms", "p50_ms", "failed"),
    "spectral.eigh": ("calls", "busy_ms", "p50_us"),
    "integraltest.classify": ("calls", "busy_ms", "terms"),
    "integraltest.fluctuation_diagnostic": ("calls", "busy_ms"),
    "integraltest.equivalence_report": ("calls", "busy_ms", "exact_terms", "integral_blocks"),
    "sequences.limit_and_convergence_report": ("calls", "busy_ms"),
    "montecarlo.simulate_paths": ("calls", "busy_ms", "steps", "steps_per_s"),
    "montecarlo.estimate_tail": ("calls", "busy_ms", "samples", "samples_per_s"),
}
_RATES = {"steps_per_s": "steps", "samples_per_s": "samples"}
_QUANTILES = {"p50_ms": (0.5, 1e3), "p50_us": (0.5, 1e6), "p90_us": (0.9, 1e6)}


def run_job(ad: Adapter, job, job_id: str) -> tuple[float, str | None]:
    """Time one job, then check it. Returns (seconds, failure or None)."""
    start = time.perf_counter()
    try:
        with ad.tracer.span("job", job=job_id):
            out = job.run(ad)
    except Exception as exc:  # a raising job is a failed job, never a crash
        return time.perf_counter() - start, classify_exception(exc)
    elapsed = time.perf_counter() - start
    try:
        return elapsed, job.check(out)
    except Exception as exc:
        return elapsed, f"check_raised:{type(exc).__name__}"


def run_rounds(ad: Adapter, workload: str, seed: int, seconds=None, rounds=None) -> dict:
    """Whole rounds until `rounds` are done or `seconds` of job time is spent."""
    make = WORKLOADS[workload]
    latencies, kinds, failures = [], [], Counter()
    busy, r = 0.0, 0
    wall0 = time.perf_counter()
    while (busy < seconds) if rounds is None else (r < rounds):
        for i, job in enumerate(make(ad, seed, r)):
            elapsed, failure = run_job(ad, job, f"{r}.{i}")
            busy += elapsed
            latencies.append(elapsed)
            kinds.append(job.kind)
            if failure is not None:
                failures[failure] += 1
        r += 1
    return {
        "rounds": r,
        "busy_s": busy,
        "wall_s": time.perf_counter() - wall0,
        "latencies_s": latencies,
        "kinds": kinds,
        "failures": dict(failures),
        "unexpected_failures": sum(n for f, n in failures.items() if f not in KNOWN_FAILURES),
    }


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer metrics, plus the share of job time no layer span covers."""
    by_name: dict[str, list[dict]] = {}
    for sp in spans:
        by_name.setdefault(sp["name"], []).append(sp)
    out = {}
    normals = 0
    for name, fields in LAYER_FIELDS.items():
        group = by_name.get(name, [])
        durations = [sp["end"] - sp["start"] for sp in group]
        busy_s = sum(durations)
        for field in fields:
            if field == "calls":
                value = len(group)
            elif field == "busy_ms":
                value = busy_s * 1e3
            elif field in _QUANTILES:
                q, scale = _QUANTILES[field]
                value = _quantile(durations, q) * scale
            elif field in _RATES:
                work = sum(sp["counts"].get(_RATES[field], 0) for sp in group)
                value = work / busy_s if busy_s > 0 else 0.0
            else:
                value = sum(sp["counts"].get(field, 0) for sp in group)
            out[f"{name}.{field}"] = value
        if name.startswith("montecarlo."):
            normals += sum(
                (sp["counts"].get("steps", 0) + sp["counts"].get("samples", 0)) * sp["counts"]["dim"]
                for sp in group
            )
    out["montecarlo.normals"] = normals
    jobs = {sp["id"]: sp["end"] - sp["start"] for sp in by_name.get("job", [])}
    covered = sum(sp["end"] - sp["start"] for sp in spans if sp["parent"] in jobs)
    total = sum(jobs.values())
    out["bench.unattributed_frac"] = 1.0 - covered / total if total > 0 else 0.0
    return out


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(prog="worker.py")
    p.add_argument("spawned_at", type=float)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--rounds", type=int)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out")
    p.add_argument("--trace-out")
    args = p.parse_args(argv)
    if args.setup_only:
        print(json.dumps({"setup_s": _SETUP_S}))
        return 0
    tracer = Tracer(args.trace)
    result = run_rounds(Adapter(tracer), args.workload, args.seed, args.seconds, args.rounds)
    result["setup_s"] = _SETUP_S
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        result["layers"] = layer_metrics(tracer.spans)
        with open(args.trace_out, "w") as f:
            json.dump({"spans": tracer.spans}, f)
    with open(args.out, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
