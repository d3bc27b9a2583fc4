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
import numbers
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
_M64 = 0xFFFFFFFFFFFFFFFF
CHECKPOINT_RATIO = 1.05
# Largest path length: up to 2^53, float64 holds every integer n, so the
# sqrt(n) scalings and the checkpoint schedule read each n exactly.
MAX_N = 2**53
LOW_COUNT_P = 1e-6
# Uniform pairs per polar block. The block's buffers (about 2.6 MB) stay
# cache-resident; any size gives the same normals in the same order.
_BLOCK_PAIRS = 1 << 15


def _mix(z: np.ndarray, tmp: np.ndarray) -> None:
    """SplitMix64 finalizer, in place on the uint64 array z; tmp is scratch."""
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, np.uint64(shift), out=tmp)
        np.bitwise_xor(z, tmp, out=z)
        np.multiply(z, mult, out=z)
    np.right_shift(z, np.uint64(31), out=tmp)
    np.bitwise_xor(z, tmp, out=z)


def _mix_int(v: int) -> int:
    """SplitMix64 finalizer of a Python integer taken modulo 2^64."""
    z = np.array([v & _M64], dtype=np.uint64)
    _mix(z, np.empty_like(z))
    return int(z[0])


def _check_count(value, name: str, least: int = 0) -> int:
    """A sample count: an integer >= least; booleans, floats and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValidationError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class SeededStream:
    """Immutable stream key; equal keys reproduce identical sequences."""

    seed: int
    stream_id: int = 0

    def _key(self) -> int:
        s = _mix_int(self.seed + int(_GOLDEN))
        t = (self.stream_id & _M64) * int(_MIX1) + int(_GOLDEN)
        return _mix_int(s ^ t)

    def substream(self, offset: int) -> "SeededStream":
        return SeededStream(self.seed, self.stream_id + offset)

    def raw(self, start: int, count: int) -> np.ndarray:
        """Raw 64-bit outputs for counters start..start+count-1."""
        z = np.arange(start + 1, start + count + 1, dtype=np.uint64) * _GOLDEN
        z += np.uint64(self._key())
        _mix(z, np.empty_like(z))
        return z

    def uniforms(self, start: int, count: int) -> np.ndarray:
        """Uniforms in [0, 1) from the top 53 bits."""
        return (self.raw(start, count) >> np.uint64(11)) * _U53


class _NormalSource:
    """Sequential polar-method normals over a stream's uniform pairs.

    Pairs are drawn in blocks of ``pairs`` (by default _BLOCK_PAIRS) into
    buffers this source owns; the block size does not change the stream.
    Each step of the polar method runs in place over the block, with the
    float operations of the textbook form x = 2u - 1, s = x^2 + y^2,
    f = sqrt(-2 log(s) / s) in that order; the accepted pairs' normals
    (x f, y f) are then handed out in order.
    """

    def __init__(self, stream: SeededStream, pairs: int | None = None):
        pairs = _BLOCK_PAIRS if pairs is None else pairs
        self._key = stream._key()
        self.counter = 0
        # counter step (i + 1) * golden for every output of a block
        self._steps = np.arange(1, 2 * pairs + 1, dtype=np.uint64) * _GOLDEN
        self._bits = np.empty(2 * pairs, dtype=np.uint64)
        self._scratch = np.empty(2 * pairs, dtype=np.uint64)
        self._x, self._y, self._s, self._t = np.empty((4, pairs))
        self._ok = np.empty(pairs, dtype=bool)
        self._in = np.empty(pairs, dtype=bool)
        # the block's normals, in the mixing scratch once that is spent
        self._z = self._scratch.view(np.float64)
        self._pos = self._end = 0

    def _next_block(self) -> None:
        pairs = self._x.size
        bits, x, y, s, t, ok = self._bits, self._x, self._y, self._s, self._t, self._ok
        offset = (self._key + self.counter * int(_GOLDEN)) & _M64
        np.add(self._steps, np.uint64(offset), out=bits)
        self.counter += 2 * pairs
        _mix(bits, self._scratch)
        np.right_shift(bits, np.uint64(11), out=bits)
        # the top 53 bits fit an int64, which converts to float faster
        ints = bits.view(np.int64)
        for u, half in ((x, ints[0::2]), (y, ints[1::2])):
            np.multiply(half, _U53, out=u)
            np.multiply(u, 2.0, out=u)
            np.subtract(u, 1.0, out=u)
        np.multiply(x, x, out=s)
        np.multiply(y, y, out=t)
        np.add(s, t, out=s)
        np.greater(s, 0.0, out=ok)
        np.less(s, 1.0, out=self._in)
        np.logical_and(ok, self._in, out=ok)
        idx = np.flatnonzero(ok)
        k = idx.size
        # the accepted x and y go to the spent bit buffer, their s to t
        spent = bits.view(np.float64)
        xs, ys, ss, f = spent[:k], spent[pairs : pairs + k], t[:k], s[:k]
        np.take(x, idx, out=xs, mode="clip")
        np.take(y, idx, out=ys, mode="clip")
        np.take(s, idx, out=ss, mode="clip")
        np.log(ss, out=f)
        np.multiply(f, -2.0, out=f)
        np.divide(f, ss, out=f)
        np.sqrt(f, out=f)
        np.multiply(xs, f, out=self._z[0 : 2 * k : 2])
        np.multiply(ys, f, out=self._z[1 : 2 * k : 2])
        self._pos, self._end = 0, 2 * k

    def fill(self, out: np.ndarray) -> None:
        """Writes the next out.size normals into the 1-D array out."""
        filled = 0
        while filled < out.size:
            if self._pos == self._end:
                self._next_block()
            m = min(self._end - self._pos, out.size - filled)
            out[filled : filled + m] = self._z[self._pos : self._pos + m]
            self._pos += m
            filled += m

    def take(self, count: int) -> np.ndarray:
        out = np.empty(count)
        self.fill(out)
        return out


def sample_standard_normal(stream: SeededStream, count: int) -> np.ndarray:
    """First ``count`` standard normals of the stream (pure in the key).

    A block of ``count`` pairs holds every normal of most calls, so a
    short draw fills no more than that.
    """
    count = _check_count(count, "count")
    return _NormalSource(stream, min(_BLOCK_PAIRS, count)).take(count)


def _norm_blocks(s: Spectrum, stream: SeededStream, count: int):
    """Consecutive blocks of the first ``count`` |Y| draws, in order.

    Each block is a view of one reused buffer, valid until the next one
    is requested; memory does not grow with count. The polar block holds
    at most the count * d normals asked for, so a short draw stays small.
    """
    if s.lambda1 <= 0:
        raise ValidationError("largest eigenvalue must be positive")
    w = s.weights()
    d = s.dim
    src = _NormalSource(stream, max(1, min(_BLOCK_PAIRS, -(-count * d // 2))))
    rows = max(1, min(count, 2 * _BLOCK_PAIRS // d))
    eta = np.empty((rows, d))
    norms = np.empty(rows)
    done = 0
    while done < count:
        m = min(rows, count - done)
        e, q = eta[:m], norms[:m]
        src.fill(e.reshape(-1))
        np.multiply(e, e, out=e)
        np.matmul(e, w, out=q)
        np.sqrt(q, out=q)
        yield q
        done += m


def sample_norm_Y(s: Spectrum, stream: SeededStream, count: int) -> np.ndarray:
    """|Y| draws computed in the eigenbasis: sqrt(sum lambda_i^2 eta_i^2)."""
    out = np.empty(_check_count(count, "count"))
    filled = 0
    for q in _norm_blocks(s, stream, count):
        out[filled : filled + q.size] = q
        filled += q.size
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

    Hits are counted block by block, so memory does not grow with N.
    Estimates below LOW_COUNT_P are flagged: the normal-approximation CI
    is useless there and the value should only be read as "small".
    """
    N = _check_count(N, "N", 10_000)
    if not t >= 0:
        raise ValidationError(f"threshold must be >= 0, got {t}")
    if t == 0.0:
        return TailEstimate(p_hat=1.0, stderr=0.0, samples=N, low_count=False)
    hits = sum(int(np.count_nonzero(q >= t)) for q in _norm_blocks(s, stream, N))
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
) -> list[PathRecord]:
    """Random-walk paths T_n with Gamma_n applied at geometric checkpoints.

    T_n is a sum of n i.i.d. N(0, I_d) vectors, read only at the checkpoints
    n_0 < n_1 < ..., so each increment T_{n_j} - T_{n_{j-1}} is drawn as
    sqrt(n_j - n_{j-1}) N(0, I_d): one d-vector per checkpoint, O(d log n_max)
    per replication, and every record has the law of the step-by-step sum.
    The exceedance event |Gamma_n T_n| > sqrt(n) phi_n is evaluated at each
    checkpoint. Replication r uses substream r.
    """
    if n_max < 1_000:
        raise ValidationError(f"n_max must be >= 10^3, got {n_max}")
    if n_max > MAX_N:
        raise ValidationError(f"n_max must be <= 2^53 = {MAX_N}, got {n_max}")
    if reps < 1:
        raise ValidationError(f"reps must be >= 1, got {reps}")
    if operator_norm(seq.limit()) == 0.0:
        raise ValidationError(
            "covariance sequence degenerates to the zero matrix; the limit "
            "must be a nonzero symmetric non-negative definite matrix"
        )
    d = seq.dim
    ns = checkpoint_schedule(n_max)
    scale = np.sqrt(np.diff(ns, prepend=0).astype(float))[:, None]
    # per checkpoint, shared by every replication: (n, Gamma_n, sqrt(n), phi_n)
    marks = [
        (n, seq.root_at(n), math.sqrt(n), phi.value(n, seq.spectrum_at(n).lambda1))
        for n in ns
    ]
    records = []
    for r in range(reps):
        steps = sample_standard_normal(stream.substream(r), len(ns) * d).reshape(-1, d)
        rows = []
        for (n, g, root_n, phi_n), T in zip(marks, np.cumsum(steps * scale, axis=0)):
            ratio = float(np.linalg.norm(g @ T)) / root_n
            rows.append((n, ratio, phi_n, ratio > phi_n))
        records.append(PathRecord(rep=r, checkpoints=tuple(rows)))
    return records


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
