"""Engine build times of the weighted chi-square density engine, and the
integral-test series times.

    python tools/time_builds.py [--src DIR]

Prints one JSON line:
- ``build_ms``: the median time of one engine build, weights
  linspace(1, 0.1, d), for d = 2, 3, 5, 8 and 32, over REPEATS builds;
- ``mix_builds_per_s``: builds per second over a fixed mix of d = 2..8
  vectors shaped like the density-cold benchmark's (one ratio per stratum
  of [0.05, 0.999], with tied and near-tied tops), ROUNDS rounds of
  MIX_DIMS, each vector built once;
- ``points_per_build``: the Kronrod points at which one build evaluates
  its levels' integrands, a count that the host's speed cannot move: the
  mean over the mix (``mix``), and for linspace(1, 0.1, 8) (``8``);
- ``own_grid_build_ms``: the median build time, over REPEATS builds, of
  linspace(1, 0.1, d - 1) + [w] for d in OWN_GRID_DIMS and w in
  OWN_GRID_SMALLEST, keyed ``w/d``; a smallest weight below 1e-3 gives the
  engine a grid of its own, built with it, and one below 1e-46 is left
  out;
- ``grid_nodes``: the number of nodes of the shared grid;
- ``grid_ms``: the median time of building the grid of its own that
  starts at OWN_GRID_START (363 nodes), over LAYER_REPEATS builds;
- ``level_us``: the median time of one level's coefficient fill on the
  shared grid (each interval's degree-7 coefficients from its eight-node
  stencil, one matrix product per interval), over LAYER_REPEATS calls;
- ``left_us``: the median time of one level's left half on the shared
  grid, over LAYER_REPEATS calls: the last level of linspace(1, 0.1, 8),
  read from the level of its first seven weights, its Kronrod points
  taken from the grid's table (``grid.kronrod.left``) and summed by
  ``_convolve``;
- ``grid_bytes``: the bytes of the arrays that the shared grid holds
  once every build above has run, its Kronrod point tables included,
  each array counted once however many views of it there are;
- ``engine_bytes``: the bytes of the arrays that an engine of
  linspace(1, 0.1, 8) holds of its own, outside its shared grid (the
  level's table of local forms, the node table's interval integrals and
  suffix tails, the block arrays), each array counted once however many
  views of it the engine keeps;
- ``tail_us`` and ``shell_us``: the time of one warm scalar query on
  linspace(1, 0.1, 8), ``weighted_norm_tail`` at t and
  ``weighted_shell_probability`` on [t, 1.05 t], averaged over the
  QUERY_T thresholds t / lambda_1 in one sweep; the median over
  LAYER_REPEATS sweeps;
- ``deep_tail_us`` and ``deep_shell_us``: the same over the DEEP_T
  thresholds, t / lambda_1 in [38.6, 50], where the linear tail
  underflows and the query reads the log tail at its top node or past it;
- ``lemma_us``: the median time of one warm ``upper_shift_sides`` call
  (delta = t / 16) and of one warm ``merged_shell_sides`` call, at
  t = C5 lambda_1 on diag(linspace(1, 0.1, LEMMA_DIM)^2), over
  LAYER_REPEATS calls; with the rows' tail and shell queries, these are
  the bounds-sweep benchmark's median jobs;
- ``regularized_us``: the median time of one warm
  ``regularized(s, t).weights()``, the merged law at the same s and t,
  over LAYER_REPEATS calls;
- ``row_us``: the time of one bounds-sweep row on the same s, kept from
  row to row: its law ``WeightedChiSquare.from_spectrum(s)`` (a lookup
  where the spectrum holds its law, a build where it does not),
  ``weighted_norm_tail`` at t, the four product bounds
  (``tail_lower_bound``, ``tail_upper_bound``, ``shell_lower_bound``,
  ``shell_width``) and ``weighted_shell_probability`` on that shell,
  averaged over ROW_COUNT thresholds t / lambda_1 spread over [C5, 50];
  the median over LAYER_REPEATS sweeps;
- ``eigh_us``: the median time of ``eigh`` on a fixed seeded positive
  definite matrix for each d in EIGH_DIMS, over LAYER_REPEATS calls;
- ``report_ms``: the median time of one ``equivalence_report`` (a = 4,
  alpha = 1, full product) for K in REPORT_KS, on a constant d = 3
  sequence and on a truncated d = 2 one whose states change at n = 4 and
  n = 9, over REPEATS calls;
- ``classify_ms``: the median time of ``classify`` over 5000 terms on
  the same two sequences, over REPEATS calls;
- ``fluctuation_ms``: the median time of one ``fluctuation_diagnostic``
  (alpha = 1, the deltas FLUCTUATION_DELTAS), over REPEATS calls, on a
  tabulated sequence of the truncated one's first TABLE_LEN matrices at
  K = 10, whose Delta_k scan every state pair of each block, and on the
  truncated sequence at K = 50, whose Delta_k take the monotone endpoint
  shortcut;
- ``constants_ms``: the median time of one cold ``derived_constants(d)``
  for each d in CONSTANTS_DIMS, over REPEATS calls, with the memo of it,
  of ``constants`` and of ``_c3`` (C3, the largest product of C4 over the
  partitions of d - 1) cleared before each call.

Engines are built directly, so the per-vector engine cache is bypassed;
whatever the engine shares between vectors (a grid, say) is warmed by one
build first. The series are timed after one warm-up call, which builds
the sequences' spectra. ``--src`` imports gausslil from another source
tree, so that two checkouts can be timed by one script. Needs only numpy.
"""
from __future__ import annotations

import argparse
import json
import math
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
OWN_GRID_DIMS = (2, 5, 8)
OWN_GRID_SMALLEST = (1e-4, 1e-8, 1e-300)
OWN_GRID_START = 1e-9
EIGH_DIMS = (2, 4, 6, 8, 16)
LEMMA_DIM = 6
ROW_COUNT = 17  # the bounds-sweep rows per spectrum, t / lambda_1 in [C5, 50]
LAYER_REPEATS = 51
REPORT_KS = (200, 2000)
QUERY_T = tuple(np.linspace(0.5, 30.0, 40).tolist())
DEEP_T = tuple(np.linspace(38.6, 50.0, 40).tolist())
FLUCTUATION_DELTAS = (0.1, 0.5, 1.0)
TABLE_LEN = 150
CONSTANTS_DIMS = (8, 40)


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


def call_seconds(f, *args) -> float:
    start = time.perf_counter()
    f(*args)
    return time.perf_counter() - start


def median_ms(f, args, repeats: int) -> float:
    f(*args)  # warm-up
    return 1e3 * statistics.median(call_seconds(f, *args) for _ in range(repeats))


def query_sweep(query, calls) -> None:
    for args in calls:
        query(*args)


def eigh_matrix(d: int) -> np.ndarray:
    g = np.random.default_rng(20261018 + d).standard_normal((d, d))
    return g @ g.T + d * np.eye(d)


def series_sequences(sequences) -> dict:
    """The constant and the truncated sequence of the series timings."""
    half = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 0.0]])
    dist = sequences.DiscreteDistribution(points=np.concatenate([half, -half]), probs=np.full(6, 1 / 6))
    return {
        "constant": sequences.CovarianceSequence.constant(np.diag([1.0, 0.5, 0.25])),
        "truncated": sequences.CovarianceSequence.truncated(dist, sequences.CutoffFamily(kind="sqrt_n")),
    }


def own_bytes(engine) -> int:
    """Bytes of the arrays that an engine and its top level hold, less its grid's."""

    def arrays(obj):
        for value in vars(obj).values():
            for a in value if isinstance(value, tuple) else (value,):
                if isinstance(a, np.ndarray):
                    yield a if a.base is None else a.base

    shared = {id(a) for a in arrays(engine.grid)}
    own = {id(a): a for obj in (engine, engine._level) for a in arrays(obj) if id(a) not in shared}
    return sum(a.nbytes for a in own.values())


def held_arrays(obj, seen: set):
    """The arrays reachable from obj through the library's own objects."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj if obj.base is None else obj.base
    elif isinstance(obj, (list, tuple, dict)):
        for item in obj.values() if isinstance(obj, dict) else obj:
            yield from held_arrays(item, seen)
    elif type(obj).__module__.startswith("gausslil") and hasattr(obj, "__dict__"):
        for item in vars(obj).values():
            yield from held_arrays(item, seen)


def left_half(chidensity, prev, delta: float):
    """The left half of a level of one chi^2(1) block on the shared grid, read from prev."""
    grid = prev.grid
    log_2g = math.log(2.0) - 0.5 * math.log(2.0 / (2.0 * delta + 1.0)) - math.lgamma(0.5)
    pieces = grid.kronrod.left([chidensity._left_chain(grid, delta, 1)])[0]
    # the level's one sum over the left half's pieces alone
    return lambda: chidensity._convolve(prev, pieces, delta, 1, log_2g)


def build_points(chidensity, engine, vectors) -> float:
    """Mean Kronrod points per build of vectors, counted at kronrod_reduce."""
    count = [0]
    reduce = chidensity.kronrod_reduce

    def counted(rows, values, width, size):
        count[0] += values.size
        return reduce(rows, values, width, size)

    chidensity.kronrod_reduce = counted
    try:
        for w in vectors:
            engine(w)
    finally:
        chidensity.kronrod_reduce = reduce
    return count[0] / len(vectors)


def bounds_rows(chidensity, regularize, s, ts) -> None:
    for t in ts:
        w = chidensity.WeightedChiSquare.from_spectrum(s)
        regularize.tail_lower_bound(s, t)
        regularize.tail_upper_bound(s, t)
        regularize.shell_lower_bound(s, t)
        chidensity.weighted_norm_tail(w, t)
        chidensity.weighted_shell_probability(w, t, t + regularize.shell_width(s, t))


def cold_constants(chidensity, regularize, d: int) -> None:
    for memo in (regularize.derived_constants, chidensity.constants, chidensity._c3):
        memo.cache_clear()
    regularize.derived_constants(d)


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    args = p.parse_args()
    sys.path.insert(0, args.src)
    from gausslil import chidensity, integraltest, regularize, sequences, spectral

    engine = chidensity._DensityEngine
    build_ms = {}
    for d in DIMS:
        wnorm = tuple(np.linspace(1.0, 0.1, d).tolist())
        build_ms[str(d)] = round(median_ms(engine, (wnorm,), REPEATS), 2)
    vectors = mix_vectors()
    total = sum(call_seconds(engine, w) for w in vectors)
    w8 = chidensity.WeightedChiSquare.from_weights(np.linspace(1.0, 0.1, 8))
    points = {
        "mix": round(build_points(chidensity, engine, vectors), 1),
        "8": round(build_points(chidensity, engine, [w8.normalized()]), 1),
    }
    own_ms = {}
    for smallest in OWN_GRID_SMALLEST:
        for d in OWN_GRID_DIMS:
            wnorm = tuple(np.linspace(1.0, 0.1, d - 1).tolist()) + (smallest,)
            own_ms[f"{smallest:g}/{d}"] = round(median_ms(engine, (wnorm,), REPEATS), 2)
    grid = chidensity._log_grid(chidensity._GRID_LO)
    prev = engine(w8.normalized()[:7])._level
    left_us = 1e3 * median_ms(left_half(chidensity, prev, 0.5 * (1.0 / w8.normalized()[7] - 1.0)), (), LAYER_REPEATS)
    grid_bytes = sum({id(a): a.nbytes for a in held_arrays(grid, set())}.values())
    grid_ms = median_ms(chidensity._LogGrid, (OWN_GRID_START,), LAYER_REPEATS)
    fill = (grid, np.log1p(grid.z), (0.0, 0.0, 0.0))
    level_us = 1e3 * median_ms(chidensity._LogLevel.on_nodes, fill, LAYER_REPEATS)
    engine_bytes = own_bytes(engine(w8.normalized()))
    query_us = {}
    for prefix, ts in (("", QUERY_T), ("deep_", DEEP_T)):
        for kind, query, calls in (
            ("tail", chidensity.weighted_norm_tail, [(w8, t) for t in ts]),
            ("shell", chidensity.weighted_shell_probability, [(w8, t, 1.05 * t) for t in ts]),
        ):
            sweep_ms = median_ms(query_sweep, (query, calls), LAYER_REPEATS)
            query_us[f"{prefix}{kind}_us"] = round(1e3 * sweep_ms / len(ts), 1)
    lemma_s = spectral.eigh(np.diag(np.linspace(1.0, 0.1, LEMMA_DIM) ** 2))
    lemma_t = chidensity.constants(LEMMA_DIM).C5 * lemma_s.lambda1
    lemma_us = {
        name: round(1e3 * median_ms(side, (lemma_s, lemma_t, *args), LAYER_REPEATS), 1)
        for name, side, args in (
            ("upper_shift_sides", regularize.upper_shift_sides, (lemma_t / 16,)),
            ("merged_shell_sides", regularize.merged_shell_sides, ()),
        )
    }
    regularized_us = 1e3 * median_ms(lambda: regularize.regularized(lemma_s, lemma_t).weights(), (), LAYER_REPEATS)
    row_t = np.linspace(lemma_t, 50.0 * lemma_s.lambda1, ROW_COUNT).tolist()
    row_us = 1e3 * median_ms(bounds_rows, (chidensity, regularize, lemma_s, row_t), LAYER_REPEATS) / ROW_COUNT
    eigh_us = {
        str(d): round(1e3 * median_ms(spectral.eigh, (eigh_matrix(d),), LAYER_REPEATS), 1)
        for d in EIGH_DIMS
    }
    phi = integraltest.PhiFamily(kind="parametric", a=4.0)
    seqs = series_sequences(sequences)
    report_ms = {
        f"{name}_K{K}": round(median_ms(integraltest.equivalence_report, (phi, seq, 1.0, K), REPEATS), 2)
        for name, seq in seqs.items()
        for K in REPORT_KS
    }
    classify_ms = {
        name: round(median_ms(integraltest.classify, (phi, seq, 1, 5000), REPEATS), 3)
        for name, seq in seqs.items()
    }
    table = sequences.CovarianceSequence.tabulated(
        [seqs["truncated"].emit(n) for n in range(1, TABLE_LEN + 1)]
    )
    fluctuation_ms = {
        f"{name}_K{K}": round(
            median_ms(integraltest.fluctuation_diagnostic, (seq, 1.0, FLUCTUATION_DELTAS, K), REPEATS), 3
        )
        for name, seq, K in (("tabulated", table, 10), ("truncated", seqs["truncated"], 50))
    }
    constants_ms = {
        str(d): round(median_ms(cold_constants, (chidensity, regularize, d), REPEATS), 2)
        for d in CONSTANTS_DIMS
    }
    print(
        json.dumps(
            {
                "src": args.src,
                "repeats": REPEATS,
                "build_ms": build_ms,
                "mix_builds": len(vectors),
                "mix_builds_per_s": round(len(vectors) / total, 1),
                "points_per_build": points,
                "own_grid_build_ms": own_ms,
                "grid_nodes": int(grid.z.size),
                "grid_ms": round(grid_ms, 3),
                "level_us": round(level_us, 1),
                "left_us": round(left_us, 1),
                "grid_bytes": grid_bytes,
                "engine_bytes": engine_bytes,
                **query_us,
                "lemma_us": lemma_us,
                "regularized_us": round(regularized_us, 2),
                "row_us": round(row_us, 1),
                "eigh_us": eigh_us,
                "report_ms": report_ms,
                "classify_ms": classify_ms,
                "fluctuation_ms": fluctuation_ms,
                "constants_ms": constants_ms,
            }
        )
    )


if __name__ == "__main__":
    main()
