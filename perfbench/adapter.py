"""Every call the benchmark makes into gausslil, in one place.

Only public names are imported; no private state of the library is read.
Whether a chidensity call is cold (the first one on a normalized weight
vector this process has passed) comes from the adapter's own record of the
vectors it has handed over, not from the library's engine cache.

Traced and untraced runs execute exactly these functions. The only
difference is whether `Tracer.span` keeps the span it measured.
"""
from __future__ import annotations

import math
import time
from contextlib import contextmanager

import numpy as np

from gausslil import (
    CovarianceSequence,
    CutoffFamily,
    DiscreteDistribution,
    PhiFamily,
    SeededStream,
    Spectrum,
    WeightedChiSquare,
    chisq_norm_tail,
    classify,
    density_lower_bound,
    density_upper_bound,
    eigh,
    equivalence_report,
    estimate_tail,
    fluctuation_diagnostic,
    limit_and_convergence_report,
    simulate_paths,
    subsequence_index,
    weighted_density,
    weighted_norm_tail,
    weighted_shell_probability,
)
from gausslil.chidensity import constants
from gausslil.regularize import (
    derived_constants,
    log_tail_lower_bound,
    log_tail_upper_bound,
    lower_shift_sides,
    merged_shell_sides,
    merged_vs_orig_shell_sides,
    orig_shift_sides,
    regularized,
    shell_lower_bound,
    shell_width,
    tail_lower_bound,
    tail_upper_bound,
    upper_shift_sides,
)

# Which weight vectors each merged-law evaluator hands to chidensity: the
# regularized spectrum at t ("merged") and/or the spectrum itself ("orig").
LEMMAS = {
    "upper_shift_sides": (upper_shift_sides, ("merged",)),
    "lower_shift_sides": (lower_shift_sides, ("merged",)),
    "merged_shell_sides": (merged_shell_sides, ("merged",)),
    "merged_vs_orig_shell_sides": (merged_vs_orig_shell_sides, ("merged", "orig")),
    "orig_shift_sides": (orig_shift_sides, ("merged", "orig")),
}


class Tracer:
    """Spans of one process, kept in memory until the run ends.

    A span is (id, parent id, job id, name, start, end, counts). `span`
    yields its counts dict, which the caller may fill in, also after the
    span closed. With tracing off, `span` runs its body but keeps nothing.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._job = None

    @contextmanager
    def span(self, name: str, job=None, **counts):
        if not self.enabled:
            yield counts
            return
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        if job is not None:
            self._job = job
        rec = {"id": sid, "parent": parent, "job": self._job, "name": name}
        self.spans.append(rec)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield counts
        finally:
            rec["start"] = start
            rec["end"] = time.perf_counter()
            rec["counts"] = counts
            self._stack.pop()


class Adapter:
    """The benchmark's client of gausslil: one instance per worker process."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._seen: set[tuple[float, ...]] = set()

    # -- inputs, built before timing starts (never inside a job) -----------

    @staticmethod
    def spectrum(matrix) -> Spectrum:
        return eigh(np.asarray(matrix, dtype=float))

    @staticmethod
    def weights_of(spectrum) -> WeightedChiSquare:
        return WeightedChiSquare.from_spectrum(spectrum)

    @staticmethod
    def scaled_weights(w: WeightedChiSquare, c2: float) -> WeightedChiSquare:
        return WeightedChiSquare.from_weights([c2 * x for x in w.weights])

    @staticmethod
    def constant_sequence(matrix) -> CovarianceSequence:
        return CovarianceSequence.constant(np.asarray(matrix, dtype=float))

    @staticmethod
    def tabulated_sequence(matrices) -> CovarianceSequence:
        return CovarianceSequence.tabulated(matrices)

    @staticmethod
    def truncated_sequence(points, probs, scale: float) -> CovarianceSequence:
        return CovarianceSequence.truncated(
            DiscreteDistribution(points=np.asarray(points), probs=np.asarray(probs)),
            CutoffFamily(kind="sqrt_n", scale=scale),
        )

    @staticmethod
    def limit_d1(seq) -> int:
        """The CLI's default d1: the top multiplicity of the sequence limit."""
        return seq.limit_spectrum().d1

    @staticmethod
    def phi(a: float) -> PhiFamily:
        return PhiFamily(kind="parametric", a=a, b=0.0)

    @staticmethod
    def stream(seed: int, stream_id: int) -> SeededStream:
        return SeededStream(seed, stream_id=stream_id)

    # -- chidensity ----------------------------------------------------------

    def _chi_span(self, fn: str, w: WeightedChiSquare, **counts):
        key = w.normalized()
        cold = key not in self._seen
        self._seen.add(key)
        return self.tracer.span("chidensity.cold" if cold else f"chidensity.{fn}", **counts)

    def density(self, w, zs):
        with self._chi_span("weighted_density", w, points=len(zs)):
            return weighted_density(w, zs)

    def tail(self, w, t: float) -> float:
        with self._chi_span("weighted_norm_tail", w):
            return weighted_norm_tail(w, t)

    def shell(self, w, t_lo: float, t_hi: float) -> float:
        with self._chi_span("weighted_shell_probability", w):
            return weighted_shell_probability(w, t_lo, t_hi)

    def density_bounds(self, s, zs):
        """Upper bound, lower bound and lower-bound threshold at each z."""
        with self.tracer.span("chidensity.density_bounds"):
            upper = [density_upper_bound(s, float(z)) for z in zs]
            lower = [density_lower_bound(s, float(z)) for z in zs]
        return upper, lower

    # -- spectral, regularize ----------------------------------------------

    def eigh(self, matrix):
        with self.tracer.span("spectral.eigh"):
            return eigh(matrix)

    def product_bounds(self, s, t: float):
        """(tail lower, tail upper, shell lower, shell width) at threshold t."""
        with self.tracer.span("regularize.product_bounds"):
            return (
                tail_lower_bound(s, t),
                tail_upper_bound(s, t),
                shell_lower_bound(s, t),
                shell_width(s, t),
            )

    def lemma_sides(self, name: str, s, t: float, *args):
        fn, uses = LEMMAS[name]
        keys = []
        if "merged" in uses:
            keys.append(regularized(s, t).weights().normalized())
        if "orig" in uses:
            keys.append(self.weights_of(s).normalized())
        cold = any(k not in self._seen for k in keys)
        self._seen.update(keys)
        with self.tracer.span("regularize.lemma_sides", cold=int(cold)) as counts:
            try:
                return fn(s, t, *args)
            except Exception:
                counts["failed"] = 1
                raise

    # -- integraltest, sequences, montecarlo --------------------------------

    def classify(self, phi, seq, d1: int, n_terms: int):
        with self.tracer.span("integraltest.classify") as counts:
            diag = classify(phi, seq, d1, n_terms=n_terms)
            counts["terms"] = int(diag.ns.size)
        return diag

    def equivalence_report(self, phi, seq, alpha: float, K: int, d1: int):
        """The report; its span counts the indices summed point by point
        (blocks n_k < n <= n_{k+1} summed exactly) and the integral blocks."""
        with self.tracer.span("integraltest.equivalence_report") as counts:
            rep = equivalence_report(phi, seq, alpha=alpha, K=K, k_min=1, d1=d1)
        counts["exact_terms"] = sum(
            subsequence_index(alpha, int(k) + 1) - subsequence_index(alpha, int(k))
            for k, method in zip(rep.ks, rep.block_methods)
            if method == "exact"
        )
        counts["integral_blocks"] = rep.block_methods.count("integral")
        return rep

    def fluctuation_diagnostic(self, seq, alpha: float, deltas, K: int):
        with self.tracer.span("integraltest.fluctuation_diagnostic"):
            return fluctuation_diagnostic(seq, alpha, deltas, K)

    def limit_report(self, seq, N: int) -> dict:
        with self.tracer.span("sequences.limit_and_convergence_report"):
            return limit_and_convergence_report(seq, N)

    def simulate_paths(self, seq, phi, n_max: int, reps: int, stream):
        with self.tracer.span(
            "montecarlo.simulate_paths", steps=n_max * reps, dim=seq.dim
        ):
            return simulate_paths(seq, phi, n_max, reps, stream)

    def estimate_tail(self, s, t: float, samples: int, stream):
        with self.tracer.span("montecarlo.estimate_tail", samples=samples, dim=s.dim):
            return estimate_tail(s, t, samples, stream)


# -- reference values for the checks (called after a job's timer stops) -----

def log_tail_bounds(s, t: float) -> tuple[float, float]:
    return log_tail_lower_bound(s, t), log_tail_upper_bound(s, t)


def validity_t(d: int) -> float:
    """C1t(d): the product bounds hold for t >= C1t * lambda_1."""
    return derived_constants(d).C1t


def lemma_c5(d: int) -> float:
    """C5(d): the merged-law lemmas are checked at t = C5 * lambda_1 and beyond."""
    return constants(d).C5


def reference_tail(w, t: float) -> float:
    return weighted_norm_tail(w, t)


def chi_bracket(d: int, t: float, lam1: float, lam_d: float) -> tuple[float, float]:
    """Engine-free bracket of P{|Y| >= t}: the isotropic tails at lambda_d and lambda_1."""
    lo = chisq_norm_tail(d, t / lam_d) if lam_d > 0 else 0.0
    return lo, chisq_norm_tail(d, t / lam1)


def exact_two_equal(t: float, w: float) -> float:
    """P{|Y| >= t} for two equal weights w: exp(-t^2 / 2w)."""
    return math.exp(-t * t / (2.0 * w))
