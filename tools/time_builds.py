"""Engine build times of the weighted chi-square density engine.

    python tools/time_builds.py [--src DIR]

Prints one JSON line:
- ``build_ms``: the median time of one engine build, weights
  linspace(1, 0.1, d), for d = 2, 3, 5, 8 and 32, over REPEATS builds;
- ``mix_builds_per_s``: builds per second over a fixed mix of d = 2..8
  vectors shaped like the density-cold benchmark's (one ratio per stratum
  of [0.05, 0.999], with tied and near-tied tops), ROUNDS rounds of
  MIX_DIMS, each vector built once.

Engines are built directly, so the per-vector engine cache is bypassed;
whatever the engine shares between vectors (a grid, say) is warmed by one
build first. ``--src`` imports gausslil from another source tree, so that
two checkouts can be timed by one script. Needs only numpy.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

DIMS = (2, 3, 5, 8, 32)
MIX_DIMS = (2, 3, 4, 5, 6, 6, 7, 8, 8, 8)
STYLES = ("tied", "near", "generic")
REPEATS = 7
ROUNDS = 3


def mix_vectors() -> list[tuple[float, ...]]:
    """Normalized weight vectors of the mix, the same on every run."""
    rng = np.random.default_rng(20261018)
    out = []
    for r in range(ROUNDS):
        for i, d in enumerate(MIX_DIMS):
            edges = np.linspace(0.05, 0.999, d)
            ratios = rng.uniform(edges[:-1], edges[1:])[::-1]
            style = STYLES[(r + i) % 3]
            if style == "tied" and d > 2:
                ratios[0] = 1.0
            elif style != "generic":
                ratios[0] = rng.uniform(0.99, 0.999)
            out.append(tuple(np.concatenate([[1.0], ratios]) ** 2))
    return out


def build_seconds(engine, wnorm) -> float:
    start = time.perf_counter()
    engine(wnorm)
    return time.perf_counter() - start


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    args = p.parse_args()
    sys.path.insert(0, args.src)
    from gausslil import chidensity

    engine = chidensity._DensityEngine
    build_ms = {}
    for d in DIMS:
        wnorm = tuple(np.linspace(1.0, 0.1, d).tolist())
        engine(wnorm)  # warm-up
        times = [build_seconds(engine, wnorm) for _ in range(REPEATS)]
        build_ms[str(d)] = round(1e3 * statistics.median(times), 2)
    vectors = mix_vectors()
    total = sum(build_seconds(engine, w) for w in vectors)
    print(
        json.dumps(
            {
                "src": args.src,
                "repeats": REPEATS,
                "build_ms": build_ms,
                "mix_builds": len(vectors),
                "mix_builds_per_s": round(len(vectors) / total, 1),
            }
        )
    )


if __name__ == "__main__":
    main()
