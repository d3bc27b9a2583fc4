"""Seeded sampling oracle: reproducible streams, Gaussian norms, LIL paths.

The generator is counter-based: output i of a stream is the SplitMix64
finalizer applied to key + (i+1) * golden-ratio increment, where the key
mixes (seed, stream_id). Fixed constants, O(1) skip-ahead, bit-identical
across platforms, and trivially vectorized. Normal variates use the polar
(Marsaglia) rejection method on consecutive uniform pairs, which avoids
platform-dependent trigonometry in golden tests.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .integraltest import PhiFamily
from .iterlog import llt
from .sequences import CovarianceSequence
from .spectral import Spectrum, operator_norm

__all__ = [
    "SeededStream",
    "PathRecord",
    "TailEstimate",
    "sample_standard_normal",
    "sample_norm_Y",
    "estimate_tail",
    "simulate_paths",
    "empirical_limsup",
    "per_rep_limsup_maxima",
    "checkpoint_schedule",
]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53 = 2.0**-53
CHECKPOINT_RATIO = 1.05
LOW_COUNT_P = 1e-6


def _mix(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


@dataclass(frozen=True)
class SeededStream:
    """Immutable stream key; equal keys reproduce identical sequences."""

    seed: int
    stream_id: int = 0

    def _key(self) -> np.uint64:
        with np.errstate(over="ignore"):
            s = _mix(np.uint64(self.seed & 0xFFFFFFFFFFFFFFFF) + _GOLDEN)
            t = np.uint64(self.stream_id & 0xFFFFFFFFFFFFFFFF) * _MIX1 + _GOLDEN
            return np.uint64(_mix(s ^ t))

    def substream(self, offset: int) -> "SeededStream":
        return SeededStream(self.seed, self.stream_id + offset)

    def raw(self, start: int, count: int) -> np.ndarray:
        """Raw 64-bit outputs for counters start..start+count-1."""
        ctr = np.arange(start + 1, start + count + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            return _mix(self._key() + ctr * _GOLDEN)

    def uniforms(self, start: int, count: int) -> np.ndarray:
        """Uniforms in [0, 1) from the top 53 bits."""
        return (self.raw(start, count) >> np.uint64(11)) * _U53


class _NormalSource:
    """Sequential polar-method normals over a stream's uniform pairs."""

    def __init__(self, stream: SeededStream):
        self.stream = stream
        self.counter = 0
        self._leftover = np.array([])

    def take(self, count: int) -> np.ndarray:
        out = np.empty(count)
        filled = 0
        if self._leftover.size:
            take = min(self._leftover.size, count)
            out[:take] = self._leftover[:take]
            self._leftover = self._leftover[take:]
            filled = take
        while filled < count:
            need = count - filled
            m = max(int(need * 0.7) + 16, 1024)
            u = self.stream.uniforms(self.counter, 2 * m)
            self.counter += 2 * m
            x = 2.0 * u[0::2] - 1.0
            y = 2.0 * u[1::2] - 1.0
            s = x * x + y * y
            ok = (s > 0.0) & (s < 1.0)
            x, y, s = x[ok], y[ok], s[ok]
            f = np.sqrt(-2.0 * np.log(s) / s)
            z = np.empty(2 * x.size)
            z[0::2] = x * f
            z[1::2] = y * f
            take = min(z.size, need)
            out[filled : filled + take] = z[:take]
            self._leftover = z[take:]
            filled += take
        return out


def sample_standard_normal(stream: SeededStream, count: int) -> np.ndarray:
    """First ``count`` standard normals of the stream (pure in the key)."""
    if count < 0:
        raise ValidationError(f"count must be >= 0, got {count}")
    return _NormalSource(stream).take(count)


def sample_norm_Y(s: Spectrum, stream: SeededStream, count: int) -> np.ndarray:
    """|Y| draws computed in the eigenbasis: sqrt(sum lambda_i^2 eta_i^2)."""
    if s.lambda1 <= 0:
        raise ValidationError("largest eigenvalue must be positive")
    w = s.weights()
    d = s.dim
    src = _NormalSource(stream)
    out = np.empty(count)
    filled = 0
    chunk = max(1, min(count, 2_000_000 // max(d, 1)))
    while filled < count:
        m = min(chunk, count - filled)
        eta = src.take(m * d).reshape(m, d)
        out[filled : filled + m] = np.sqrt((eta * eta) @ w)
        filled += m
    return out


@dataclass(frozen=True)
class TailEstimate:
    p_hat: float
    stderr: float
    samples: int
    low_count: bool


def estimate_tail(
    s: Spectrum, t: float, N: int, stream: SeededStream
) -> TailEstimate:
    """Binomial estimate of P{|Y| >= t} with its standard error.

    Estimates below LOW_COUNT_P are flagged: the normal-approximation CI
    is useless there and the value should only be read as "small".
    """
    if N < 10_000:
        raise ValidationError(f"need N >= 10^4 samples, got {N}")
    if not t >= 0:
        raise ValidationError(f"threshold must be >= 0, got {t}")
    if t == 0.0:
        return TailEstimate(p_hat=1.0, stderr=0.0, samples=N, low_count=False)
    hits = int(np.count_nonzero(sample_norm_Y(s, stream, N) >= t))
    p = hits / N
    return TailEstimate(
        p_hat=p,
        stderr=math.sqrt(p * (1.0 - p) / N),
        samples=N,
        low_count=p < LOW_COUNT_P,
    )


# ---------------------------------------------------------------------------
# Path simulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathRecord:
    """Per-replication checkpoints (n, |G_n T_n|/sqrt(n), phi_n, exceeded)."""

    rep: int
    checkpoints: tuple[tuple[int, float, float, bool], ...]


def checkpoint_schedule(n_max: int, ratio: float = CHECKPOINT_RATIO) -> list[int]:
    """Geometric checkpoint indices 1 = n_0 < ... <= n_max, ratio ~ 1.05."""
    ns = [1]
    v = 1.0
    while ns[-1] < n_max:
        v *= ratio
        n = min(n_max, int(math.ceil(v)))
        if n > ns[-1]:
            ns.append(n)
    return ns


def simulate_paths(
    seq: CovarianceSequence,
    phi: PhiFamily,
    n_max: int,
    reps: int,
    stream: SeededStream,
    threads: int = 1,
) -> list[PathRecord]:
    """Random-walk paths T_n with Gamma_n applied at geometric checkpoints.

    One Gaussian vector per step, summed online with O(d) state; the
    exceedance event |Gamma_n T_n| > sqrt(n) phi_n is evaluated at
    checkpoints only. Replication r uses substream r, so the records are
    identical for every thread count. Replications run on
    min(threads, reps, os.cpu_count()) threads.
    """
    if n_max < 1_000:
        raise ValidationError(f"n_max must be >= 10^3, got {n_max}")
    if reps < 1:
        raise ValidationError(f"reps must be >= 1, got {reps}")
    if operator_norm(seq.limit()) == 0.0:
        raise ValidationError(
            "covariance sequence degenerates to the zero matrix; the limit "
            "must be a nonzero symmetric non-negative definite matrix"
        )
    d = seq.dim
    ns = checkpoint_schedule(n_max)

    def one(r: int) -> PathRecord:
        src = _NormalSource(stream.substream(r))
        T = np.zeros(d)
        prev = 0
        rows = []
        for n in ns:
            block = n - prev
            while block > 0:
                m = min(block, 2_000_000 // max(d, 1))
                T = T + src.take(m * d).reshape(m, d).sum(axis=0)
                block -= m
            prev = n
            g = seq.root_at(n)
            lam1 = seq.spectrum_at(n).lambda1
            ratio = float(np.linalg.norm(g @ T)) / math.sqrt(n)
            phi_n = phi.value(n, lam1)
            rows.append((n, ratio, phi_n, ratio > phi_n))
        return PathRecord(rep=r, checkpoints=tuple(rows))

    workers = min(threads, reps, os.cpu_count() or 1)
    if workers <= 1:
        return [one(r) for r in range(reps)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(one, range(reps)))


def per_rep_limsup_maxima(
    records: list[PathRecord], burn_in_fraction: float = 0.01
) -> np.ndarray:
    """Per replication: max over checkpoints n >= n_max * fraction of
    ratio / sqrt(2 LLn). The early path is discarded because iterated-log
    convergence is far too slow for small n to carry signal."""
    if not records:
        raise ValidationError("no path records")
    n_max = max(cp[0] for rec in records for cp in rec.checkpoints)
    cut = n_max * burn_in_fraction
    out = []
    for rec in records:
        best = -math.inf
        for n, ratio, _, _ in rec.checkpoints:
            if n >= cut:
                best = max(best, ratio / math.sqrt(2.0 * llt(n)))
        out.append(best)
    vals = np.array(out)
    if not np.all(np.isfinite(vals)):
        raise ValidationError("no checkpoints survive the burn-in discard")
    return vals


def empirical_limsup(records: list[PathRecord], burn_in_fraction: float = 0.01) -> float:
    """Cross-replication estimate of limsup |Gamma_n T_n| / sqrt(2 n LLn).

    Each replication contributes the maximum checkpoint ratio past the
    burn-in cut; replications are aggregated by the median. A max across
    replications would grow like sqrt(log reps) without bound and cannot
    sit in any fixed window, so it estimates nothing.
    """
    return float(np.median(per_rep_limsup_maxima(records, burn_in_fraction)))
