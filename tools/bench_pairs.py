"""Paired before/after benchmark of two checkouts.

    python tools/bench_pairs.py --parent DIR --change DIR [--out BENCH.json]

DIR is the root of a checkout (its ``src/`` and ``perfbench/``). The
workloads and the run length S are the change checkout's
``BENCHMARK.json`` (``workloads``, ``run_seconds``). For each pair
i = 0..PAIRS-1 and each workload, the script runs
``perfbench/run.py --workload W --seed i+1 --seconds S --trace 0`` once in
each checkout, then ``tools/time_builds.py`` (this checkout's copy) once
with ``--src`` on each. The side that runs first alternates from pair to
pair, so drift of the host's speed falls on both sides alike. Runs go one
at a time, each in its own process.

The output holds, per metric, the values of every run, the median and the
quartiles on each side, the ratio of the medians (change / parent) and
the number of pairs the change won (strictly better, in the metric's own
direction: ``BENCHMARK.json``'s for perfbench, higher for ``*_per_s``
rows of time_builds and lower for the rest). Each perfbench side also
records whether every run was ``correct`` and the failed share of its
jobs. ``time_builds_vs_control`` holds each time_builds timing as its
ratio to the geometric mean of the CONTROL rows in the same run (times
divided by it, ``*_per_s`` rows multiplied by it), summarized the same
way: a switch of the host's speed between runs moves a row and the
control alike, and so cancels in the ratio, and a mean of several rows
spreads less than any one of them. Counts, such as
``points_per_build``, are host-independent and are summarized only raw.
``machine`` records the host, and the load average before and after.
Needs only the standard library and the checkouts' own requirements.
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

TOOLS = Path(__file__).resolve().parent
SIDES = ("parent", "change")
PAIRS = 10  # a gain is read as at least 9 wins in 10 pairs
CONTROL = "eigh_us"  # time_builds rows that neither the engine nor the series code reaches


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "values": values}


def flatten(record: dict, prefix: str = "") -> dict[str, float]:
    """Numeric leaves of a time_builds record, keyed like build_ms.8."""
    out = {}
    for key, value in record.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(flatten(value, name + "."))
        elif isinstance(value, (int, float)) and key not in ("repeats", "mix_builds"):
            out[name] = float(value)
    return out


def versus_control(run: dict[str, float]) -> dict[str, float]:
    """The run's timing rows, each in units of the geometric mean of its CONTROL rows."""
    control = statistics.geometric_mean(v for k, v in run.items() if k.split(".")[0] == CONTROL)
    out = {}
    for name, value in run.items():
        kind = name.split(".")[0]
        if kind.endswith("_per_s"):
            out[name] = value * control
        elif kind.endswith(("_ms", "_us")) and kind != CONTROL:
            out[name] = value / control
    return out


def last_json_line(text: str) -> dict:
    return json.loads([line for line in text.splitlines() if line.startswith("{")][-1])


def perfbench_run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
    return last_json_line(done.stdout)


def time_builds_run(root: Path) -> dict:
    cmd = [sys.executable, str(TOOLS / "time_builds.py"), "--src", str(root / "src")]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return flatten(last_json_line(done.stdout))


def summarize(runs: dict[str, list[dict[str, float]]], better: dict[str, str]) -> dict:
    """Per metric: both sides' quartiles, the median ratio and the change's pair wins."""
    out = {}
    for name in runs["parent"][0]:
        if name not in runs["change"][0]:
            continue
        sides = {side: [r[name] for r in runs[side]] for side in SIDES}
        sign = 1.0 if better.get(name, "lower") == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(sides["parent"], sides["change"]))
        parent_median = statistics.median(sides["parent"])
        out[name] = {
            "better": "higher" if sign > 0 else "lower",
            "parent": quartiles(sides["parent"]),
            "change": quartiles(sides["change"]),
            "ratio": statistics.median(sides["change"]) / parent_median if parent_median else None,
            "change_wins": wins,
            "pairs": len(sides["parent"]),
        }
    return out


def git_commit(root: Path) -> str | None:
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return done.stdout.strip() or None


def machine() -> dict:
    import numpy

    return {
        "platform": platform.platform(),
        "processor": platform.processor(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": list(os.getloadavg()),
    }


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, type=Path)
    p.add_argument("--change", required=True, type=Path)
    p.add_argument("--out", type=Path, default=Path("BENCH.json"))
    args = p.parse_args()
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    start = machine()
    bench = {w: {side: [] for side in SIDES} for w in workloads}
    builds = {side: [] for side in SIDES}
    t0 = time.perf_counter()
    for i in range(PAIRS):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            for side in order:
                bench[workload][side].append(perfbench_run(roots[side], workload, i + 1, seconds))
        for side in order:
            builds[side].append(time_builds_run(roots[side]))
        print(f"pair {i + 1}/{PAIRS} done at {time.perf_counter() - t0:.0f} s", file=sys.stderr)
    perfbench = {}
    for workload, runs in bench.items():
        values = {
            side: [{k: m["value"] for k, m in r["metrics"].items()} for r in runs[side]] for side in SIDES
        }
        perfbench[workload] = {
            "metrics": summarize(values, better),
            "correct": {side: all(r["correct"] for r in runs[side]) for side in SIDES},
            "failed_frac": {
                side: sum(r["failed"] for r in runs[side]) / sum(r["attempted"] for r in runs[side])
                for side in SIDES
            },
        }
    build_better = {name: "higher" if name.endswith("_per_s") else "lower" for name in builds["change"][0]}
    versus = {side: [versus_control(r) for r in builds[side]] for side in SIDES}
    record = {
        **{side: {"dir": roots[side].name, "commit": git_commit(roots[side])} for side in SIDES},
        "pairs": PAIRS,
        "seconds": seconds,
        "machine": {**start, "loadavg_after": list(os.getloadavg())},
        "perfbench": perfbench,
        "time_builds": summarize(builds, build_better),
        "time_builds_vs_control": {"control": CONTROL, "rows": summarize(versus, build_better)},
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
