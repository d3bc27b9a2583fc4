"""Seeded inputs, jobs and per-job checks of the three workloads.

A workload is a stream of rounds. Round r is generated from (seed, r) alone,
before any of its jobs is timed, and every round of a workload has the same
composition of job kinds; only the drawn numbers differ. A run executes whole
rounds, so the mix of job kinds, and with it where each latency percentile
falls, is the same on every seed.

A job is the set of library calls one CLI handler makes (`gausslil.cli`);
`run` is what is timed, `check` runs after the timer stops and returns None
or the name of the failure. Tolerances are the ones pinned in
tests/test_acceptance.py and tests/test_chidensity.py.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from adapter import (
    Adapter,
    chi_bracket,
    exact_two_equal,
    lemma_c5,
    log_tail_bounds,
    reference_tail,
    validity_t,
)

REL = 1e-7  # slack of the bound checks (criteria 2, 3 and 4)
REL_EXACT = 1e-10  # criterion 1 and scale equivariance

# Failures that the library is known to produce today. They count as failed
# jobs; any other failure also marks the run as incorrect.
KNOWN_FAILURES = {
    # weighted_norm_tail underflows to 0.0 past t ~ 38.6 lambda_1, where the
    # bounds-verify sandwich would pass vacuously (ROADMAP item 3)
    "deep_tail_zero",
    # the *_sides evaluators take math.log of an underflowed probability
    "log_of_zero",
    # classify on a truncated sequence whose first matrices are zero
    "zero_leading_matrix",
}


@dataclass
class Job:
    kind: str
    run: Callable[[Adapter], object]
    check: Callable[[object], str | None]


def classify_exception(exc: Exception) -> str:
    msg = str(exc)
    if isinstance(exc, ValueError) and "math domain error" in msg:
        return "log_of_zero"
    if "largest eigenvalue must be positive" in msg:
        return "zero_leading_matrix"
    return f"raised:{type(exc).__name__}"


def _rng(seed: int, r: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, r, salt])


def _ratios(rng, d: int, style: str) -> np.ndarray:
    """Descending lambda_i / lambda_1, i = 1..d.

    generic: ratios in [0.05, 0.999] (the acceptance suite's range);
    tied: lambda_2 = lambda_1; near: a gap near 1, lambda_2 / lambda_1 in
    [0.99, 0.999].
    """
    # one ratio per stratum of [0.05, 0.999]: runs on different seeds see
    # the same spread of gaps, which sets the engine's build cost
    edges = np.linspace(0.05, 0.999, d)
    r = rng.uniform(edges[:-1], edges[1:])[::-1]
    if style == "tied":
        r[0] = 1.0
    elif style == "near":
        r[0] = rng.uniform(0.99, 0.999)
    return np.concatenate([[1.0], r])


def _lambda1(rng) -> float:
    return float(np.exp(rng.uniform(math.log(0.3), math.log(3.0))))


# ---------------------------------------------------------------------------
# bounds-sweep: many warm queries per weight vector (bounds-verify, criteria 3/4)
# ---------------------------------------------------------------------------

BOUNDS_ROUND = ((2, "equal"), (3, "generic"), (4, "tied"), (5, "generic"), (6, "generic"), (6, "generic"))
BOUNDS_ROWS = 17  # t grid per spectrum, C1t * lambda_1 .. 50 * lambda_1
BOUNDS_T_MAX = 50.0
# Ratio ranges by what the regularization does to them at the lemma
# thresholds t / (d lambda_1) in {3, 3.15, 4.2, 4.5}: merged into the top
# at every t, at the two smaller t only, never. Each spectrum has one ratio
# in each of the first two, so every seed builds the same merged laws.
MERGED_ALWAYS = (0.90, 0.999)
MERGED_SMALL_T = (0.78, 0.87)
NEVER_MERGED = (0.05, 0.74)


def _bounds_ratios(rng, d: int, style: str) -> np.ndarray:
    """Descending lambda_i / lambda_1 for a bounds-sweep spectrum; equal:
    every eigenvalue equal, tied: lambda_2 = lambda_1."""
    if style == "equal":
        return np.ones(d)
    lo, hi = NEVER_MERGED
    edges = np.linspace(lo, hi, max(d - 2, 1))
    rest = list(rng.uniform(edges[:-1], edges[1:])[::-1])
    top = 1.0 if style == "tied" else rng.uniform(*MERGED_ALWAYS)
    return np.array([1.0, top, rng.uniform(*MERGED_SMALL_T), *rest][:d])


def _bounds_row(s, w, t: float, equal: bool) -> Job:
    def run(ad: Adapter):
        tail = ad.tail(w, t)
        lo, hi, shell_lo, width = ad.product_bounds(s, t)
        shell = ad.shell(w, t, t + width)
        return tail, lo, hi, shell, shell_lo

    def check(out):
        tail, _lo, _hi, shell, shell_lo = out
        if tail == 0.0 or shell == 0.0:
            return "deep_tail_zero"
        log_lo, log_hi = log_tail_bounds(s, t)
        if not log_lo - REL <= math.log(tail) <= log_hi + REL:
            return "tail_sandwich"
        if shell_lo > shell * (1 + REL):
            return "shell_lower_bound"
        if equal and not math.isclose(
            tail, exact_two_equal(t, s.lambda1**2), rel_tol=REL_EXACT, abs_tol=0.0
        ):
            return "exact_case"
        return None

    return Job(f"row-d{s.dim}", run, check)


def _lemma(s, name: str, t: float, arg=None) -> Job:
    args = () if arg is None else (arg,)

    def run(ad: Adapter):
        return ad.lemma_sides(name, s, t, *args)

    def check(out):
        lhs, rhs = out
        return None if lhs <= rhs + REL else "lemma_violated"

    return Job(f"lemma-d{s.dim}", run, check)


def _lemma_jobs(s) -> list[Job]:
    """The merged-law evaluations of acceptance criterion 4, in its order."""
    d, lam1 = s.dim, s.lambda1
    c5 = lemma_c5(d)
    jobs = []
    for t in (3 * d * lam1 * 1.05, c5 * lam1, c5 * lam1 * 1.5):
        for delta in (t / 16, t / 4):
            jobs.append(_lemma(s, "upper_shift_sides", t, delta))
            jobs.append(_lemma(s, "lower_shift_sides", t, delta))
    for t in (c5 * lam1, c5 * lam1 * 1.4):
        jobs.append(_lemma(s, "merged_shell_sides", t))
        jobs.append(_lemma(s, "merged_vs_orig_shell_sides", t))
        for gamma in (0.0, 1.0, 4.0):
            jobs.append(_lemma(s, "orig_shift_sides", t, gamma))
    return jobs


def bounds_sweep(ad: Adapter, seed: int, r: int) -> list[Job]:
    jobs = []
    for i, (d, style) in enumerate(BOUNDS_ROUND):
        rng = _rng(seed, r, i)
        lams = _bounds_ratios(rng, d, style) * _lambda1(rng)
        s = ad.spectrum(np.diag(lams**2))
        w = ad.weights_of(s)
        ts = np.linspace(validity_t(d), BOUNDS_T_MAX, BOUNDS_ROWS) * s.lambda1
        # the largest t first sizes the engine for the whole sweep; the rows
        # that follow are warm queries in seeded shuffled order
        order = [ts[-1], *rng.permutation(ts[:-1])]
        jobs += [_bounds_row(s, w, float(t), style == "equal") for t in order]
        jobs += _lemma_jobs(s)
    return jobs


# ---------------------------------------------------------------------------
# density-cold: one query set per fresh weight vector (density / tail CLI)
# ---------------------------------------------------------------------------

DENSITY_DIMS = (2, 3, 4, 5, 6, 6, 7, 8, 8, 8)
DENSITY_Z = (0.05, 150.0, 200)  # z grid over [0.05, 150] * lambda_1^2
DENSITY_TAILS = 4  # tails at t / lambda_1 in [0.5, 8]
DENSITY_STYLES = ("tied", "near", "generic")


def _psd(rng, lams: np.ndarray) -> np.ndarray:
    """A rotated, non-diagonal matrix with eigenvalues lams^2."""
    q, _ = np.linalg.qr(rng.standard_normal((lams.size, lams.size)))
    m = (q * lams**2) @ q.T
    return 0.5 * (m + m.T)


def _density_job(rng, d: int, style: str, check_scale: bool) -> Job:
    if d == 2 and style == "tied":
        style = "near"  # two tied weights have no engine to build
    matrix = _psd(rng, _ratios(rng, d, style) * _lambda1(rng))
    t_over = np.sort(rng.uniform(0.5, 8.0, size=DENSITY_TAILS))
    c2 = float(rng.uniform(0.2, 5.0))  # scale for the equivariance check
    lo, hi, count = DENSITY_Z

    def run(ad: Adapter):
        s = ad.eigh(matrix)
        w = ad.weights_of(s)
        zs = np.geomspace(lo * s.lambda1**2, hi * s.lambda1**2, count)
        h = ad.density(w, zs)
        upper, lower = ad.density_bounds(s, zs)
        tails = [ad.tail(w, float(u) * s.lambda1) for u in t_over]
        return s, w, zs, h, upper, lower, tails

    def check(out):
        s, w, zs, h, upper, lower, tails = out
        for z, hz, ub, (lb, thresh) in zip(zs, h, upper, lower):
            if hz > ub * (1 + REL):
                return "density_upper_bound"
            if z >= thresh and hz < lb * (1 - REL):
                return "density_lower_bound"
        if not check_scale:
            return None
        t = float(t_over[0]) * s.lambda1
        scaled = reference_tail(Adapter.scaled_weights(w, c2), math.sqrt(c2) * t)
        if not math.isclose(scaled, tails[0], rel_tol=REL_EXACT, abs_tol=0.0):
            return "scale_equivariance"
        return None

    return Job(f"density-d{d}", run, check)


def density_cold(ad: Adapter, seed: int, r: int) -> list[Job]:
    """One job per d in DENSITY_DIMS. Scale equivariance needs a second engine
    three times in four, so it is checked on one job per round, the d of
    which rotates with the round."""
    rng = _rng(seed, r, 0)
    scale_d = DENSITY_DIMS[r % len(DENSITY_DIMS)]
    return [
        _density_job(
            rng, int(d), DENSITY_STYLES[(r + int(d)) % len(DENSITY_STYLES)], int(d) == scale_d
        )
        for d in rng.permutation(DENSITY_DIMS)
    ]


# ---------------------------------------------------------------------------
# lil-series: the sequence side (integral-test, sequence-info, simulate, MC)
# ---------------------------------------------------------------------------

PHI_A = (0.0, 2.0, 3.0, 4.0, 6.0)
N_TERMS = 5000
EQUIV_K = 200
INFO_N = 10_000
INFO_K = 50
TAB_LEN = 150  # tabulated sequences: the fluctuation window must fit the table
TAB_K = 10
SIM_N_MAX = 100_000  # the CLI's defaults for simulate
SIM_REPS = 16
MC_SAMPLES = 1_000_000
MC_DIMS = (2, 3, 4, 5, 6, 7, 8, 8, 8)
DELTAS = (0.1, 0.5, 1.0)


def _sequences(ad: Adapter, rng, r: int) -> dict:
    """One constant, two truncated and one tabulated sequence.

    "trunc0" has a cutoff that starts below its smallest atom, so its first
    matrices are zero; "trunc" admits an atom from n = 1.
    """
    d_const = 1 + r % 3
    out = {"const": ad.constant_sequence(_psd(rng, _ratios(rng, d_const, "generic") * _lambda1(rng)))}
    for name, lo, hi in (("trunc", 1.1, 2.0), ("trunc0", 0.3, 0.8)):
        half = rng.uniform(-2.0, 2.0, size=(3, 2))
        points = np.concatenate([half, -half])
        probs = np.full(6, 1.0 / 6.0)
        smallest = float(np.min(np.linalg.norm(points, axis=1)))
        out[name] = ad.truncated_sequence(points, probs, smallest * rng.uniform(lo, hi))
    limit = _psd(rng, _ratios(rng, 2, "generic") * _lambda1(rng))
    extra = _psd(rng, _ratios(rng, 2, "generic"))
    out["tab"] = ad.tabulated_sequence([limit + extra / n for n in range(1, TAB_LEN + 1)])
    return out


def _integral_test(seq, phi, d1: int, equiv: bool) -> Job:
    def run(ad: Adapter):
        diag = ad.classify(phi, seq, d1, N_TERMS)
        rep = ad.equivalence_report(phi, seq, 1.0, EQUIV_K, d1) if equiv else None
        return diag, rep

    def check(out):
        diag, rep = out
        if diag.verdict != ("Converges" if phi.a > d1 + 2 else "Diverges"):
            return "verdict"
        if rep is not None and not (
            1e-3 <= rep.bracketing_low <= rep.bracketing_high <= 1e3 and rep.verdicts_agree
        ):
            return "block_bracketing"
        return None

    return Job("integral-test", run, check)


def _sequence_info(seq, constant: bool, K: int) -> Job:
    def run(ad: Adapter):
        conv = ad.limit_report(seq, INFO_N)
        rep = ad.fluctuation_diagnostic(seq, 1.0, DELTAS, K)
        return conv, rep

    def check(out):
        conv, rep = out
        gaps = [c["matrix_gap"] for c in conv["checkpoints"]]
        if not all(math.isfinite(g) and g >= 0 for g in gaps):
            return "convergence_gaps"
        dk = rep.delta_k_values
        if dk.size != K or np.any(dk < 0) or (constant and np.any(dk != 0)):
            return "fluctuation"
        return None

    return Job("sequence-info", run, check)


def _simulate(seq, phi, stream) -> Job:
    def run(ad: Adapter):
        return ad.simulate_paths(seq, phi, SIM_N_MAX, SIM_REPS, stream)

    def check(records):
        if len(records) != SIM_REPS:
            return "replications"
        for rec in records:
            if rec.checkpoints[-1][0] != SIM_N_MAX:
                return "checkpoints"
            if not all(math.isfinite(cp[1]) and cp[1] >= 0 for cp in rec.checkpoints):
                return "path_ratio"
        return None

    return Job("simulate", run, check)


def _mc_tail(weights: np.ndarray, t: float, stream) -> Job:
    def run(ad: Adapter):
        s = ad.eigh(np.diag(weights))
        return s, ad.estimate_tail(s, t, MC_SAMPLES, stream)

    def check(out):
        s, est = out
        lo, hi = chi_bracket(s.dim, t, s.lambda1, float(s.eigenvalues[-1]))
        if not lo - 4 * est.stderr <= est.p_hat <= hi + 4 * est.stderr:
            return "mc_bracket"
        return None

    return Job(f"mc-d{weights.size}", run, check)


def lil_series(ad: Adapter, seed: int, r: int) -> list[Job]:
    """Per round: one K = 200 integral-test job (constant and truncated
    sequences alternate by round), two fast ones (tabulated, zero-leading
    truncated), two sequence-info jobs, one simulate job and MC_DIMS tails.

    Fewer than ten K = 200 jobs fall in a run of up to ten rounds, so
    job_hi_ms lands on the d = 8 tails, of which every round has three.
    """
    rng = _rng(seed, r, 0)
    seqs = _sequences(ad, rng, r)
    main, other = ("const", "trunc") if r % 2 == 0 else ("trunc", "const")
    # the K = 200 job's cost depends on a, so its a cycles with the round
    a_values = [PHI_A[r % len(PHI_A)], *rng.choice(PHI_A, size=3)]
    jobs = []
    for name, a in zip((main, "trunc0", "tab"), a_values):
        seq = seqs[name]
        d1 = ad.limit_d1(seq)
        jobs.append(_integral_test(seq, ad.phi(float(a)), d1, equiv=name != "tab"))
    jobs.append(_sequence_info(seqs[main], main == "const", INFO_K))
    jobs.append(_sequence_info(seqs["tab"], False, TAB_K))
    jobs.append(_simulate(seqs[other], ad.phi(float(a_values[3])), ad.stream(seed, 1_000_000 + r)))
    for j, d in enumerate(rng.permutation(MC_DIMS)):
        lams = _ratios(rng, int(d), "generic") * _lambda1(rng)
        t = float(rng.uniform(0.8, 2.6)) * float(lams[0])
        jobs.append(_mc_tail(lams**2, t, ad.stream(seed, r * len(MC_DIMS) + j)))
    return [jobs[i] for i in rng.permutation(len(jobs))]


WORKLOADS = {
    "bounds-sweep": bounds_sweep,
    "density-cold": density_cold,
    "lil-series": lil_series,
}
