"""Densities and tails of weighted chi-square laws, with explicit bounds.

The law of |Y|^2 = sum lambda_i^2 eta_i^2 is computed by grouping equal
weights into chi-square blocks (exact within a block) and convolving the
blocks pairwise from the largest weight down. All internal work happens
on the normalized scale w_i / lambda_1^2 with the dominant exponential
e^{-z/2} peeled off, so the computed values keep full relative accuracy
far into the tail; results are mapped back by exact scale relations,
which also makes the public functions scale-equivariant to rounding.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ValidationError
from .quadrature import adaptive_simpson, adaptive_simpson_batched, geometric_knots
from .special import (
    chisq_density,
    chisq_norm_const,
    chisq_norm_tail,
    gammainc_upper,
    log_chisq_norm_tail,
)
from .spectral import Spectrum, group_descending, log_zolotarev

__all__ = [
    "WeightedChiSquare",
    "ConstantTable",
    "chisq_density",
    "chisq_norm_tail",
    "log_chisq_norm_tail",
    "weighted_density",
    "weighted_norm_tail",
    "weighted_shell_probability",
    "zolotarev_constant",
    "density_upper_bound",
    "density_lower_bound",
    "constants",
]

_BLOCK_MERGE_RTOL = 1e-12
_TAIL_WINDOW = 60.0  # beyond z = t^2 + 60*lambda_1^2 the tail closes analytically
_GRID_NODES = 900
_GRID_LO = 1e-6
_DEFAULT_ZMAX = 264.0


@dataclass(frozen=True)
class WeightedChiSquare:
    """Weights lambda_i^2 of the quadratic form, descending, zeros dropped."""

    weights: tuple[float, ...]
    effective_dim: int

    @classmethod
    def from_weights(cls, weights) -> "WeightedChiSquare":
        w = sorted((float(x) for x in weights), reverse=True)
        if not w:
            raise ValidationError("weight list is empty")
        if any(x < 0 or not math.isfinite(x) for x in w):
            raise ValidationError(f"weights must be finite and >= 0: {w}")
        pos = tuple(x for x in w if x > 0)
        if not pos:
            raise ValidationError("all weights are zero")
        return cls(weights=pos, effective_dim=len(pos))

    @classmethod
    def from_spectrum(cls, s: Spectrum) -> "WeightedChiSquare":
        return cls.from_weights(s.weights())

    @property
    def lambda1_sq(self) -> float:
        return self.weights[0]

    def normalized(self) -> tuple[float, ...]:
        w1 = self.weights[0]
        return tuple(x / w1 for x in self.weights)


# ---------------------------------------------------------------------------
# Convolution engine on the normalized scale
# ---------------------------------------------------------------------------


class _CubicSpline:
    """Not-a-knot cubic spline with vectorized evaluation."""

    def __init__(self, x: np.ndarray, y: np.ndarray):
        n = x.size
        h = np.diff(x)
        A = np.zeros((n, n))
        r = np.zeros(n)
        for i in range(1, n - 1):
            A[i, i - 1] = h[i - 1]
            A[i, i] = 2.0 * (h[i - 1] + h[i])
            A[i, i + 1] = h[i]
            r[i] = 3.0 * ((y[i + 1] - y[i]) / h[i] - (y[i] - y[i - 1]) / h[i - 1])
        A[0, 0] = h[1]
        A[0, 1] = -(h[0] + h[1])
        A[0, 2] = h[0]
        A[-1, -3] = h[-1]
        A[-1, -2] = -(h[-2] + h[-1])
        A[-1, -1] = h[-2]
        c = np.linalg.solve(A, r)
        self.x = x
        self.y = y
        self.b = np.diff(y) / h - h / 3.0 * (2.0 * c[:-1] + c[1:])
        self.c = c[:-1]
        self.d = (c[1:] - c[:-1]) / (3.0 * h)

    def __call__(self, xq: np.ndarray) -> np.ndarray:
        j = np.clip(np.searchsorted(self.x, xq) - 1, 0, self.x.size - 2)
        t = xq - self.x[j]
        return self.y[j] + t * (self.b[j] + t * (self.c[j] + t * self.d[j]))


class _DensityEngine:
    """Scaled density hhat(z) = h(z) e^{z/2} of sum w_i chi^2(m_i), w_1 = 1.

    hhat grows at most polynomially, so a cubic spline of log hhat against
    log z carries full relative accuracy from z ~ 0 into the far tail.
    Below the grid the exact small-z power law takes over.
    """

    def __init__(self, wnorm: tuple[float, ...], zmax: float):
        # wnorm[0] = 1, so equal weights are grouped at absolute tolerance
        blocks = group_descending(wnorm, _BLOCK_MERGE_RTOL)
        self.block_w = np.array([v for v, _ in blocks])
        self.block_m = np.array([m for _, m in blocks], dtype=int)
        self.wnorm = np.asarray(wnorm)
        self.zmax = zmax
        self.d1 = int(self.block_m[0])
        mcum = np.cumsum(self.block_m)
        self.total_dof = int(mcum[-1])
        if self.block_w.size == 1:
            self.spline = None
            return
        self.zs = np.concatenate(
            [
                np.geomspace(_GRID_LO, 0.05, 90, endpoint=False),
                np.geomspace(0.05, zmax, _GRID_NODES - 90),
            ]
        )
        self.log_zs = np.log(self.zs)
        self._power_consts = self._small_z_constants(mcum)
        self.spline = self._build(mcum)

    def _small_z_constants(self, mcum: np.ndarray) -> list[float]:
        """Coefficients c_k of hhat_k(z) ~ c_k z^{M_k/2 - 1} as z -> 0."""
        consts = []
        c = 1.0
        for k in range(self.block_w.size):
            m = int(self.block_m[k])
            c *= chisq_norm_const(m) * self.block_w[k] ** (-m / 2.0)
            if k > 0:
                c *= (
                    math.gamma(mcum[k - 1] / 2.0)
                    * math.gamma(m / 2.0)
                    / math.gamma(mcum[k] / 2.0)
                )
            consts.append(c)
        return consts

    def _level_eval(self, spline, power_const, mtot, zlo):
        def ev(z):
            z = np.asarray(z, dtype=float)
            out = np.empty_like(z)
            small = z < zlo
            if np.any(small):
                out[small] = power_const * np.power(z[small], mtot / 2.0 - 1.0)
            if np.any(~small):
                out[~small] = np.exp(spline(np.log(z[~small])))
            return out

        return ev

    def _build(self, mcum: np.ndarray):
        m1 = int(self.block_m[0])
        c1 = chisq_norm_const(m1)
        prev = lambda z: c1 * np.power(z, m1 / 2.0 - 1.0)  # noqa: E731
        spline = None
        for k in range(1, self.block_w.size):
            mk = int(self.block_m[k])
            wk = float(self.block_w[k])
            delta = 0.5 * (1.0 / wk - 1.0)
            gk = chisq_norm_const(mk) * wk ** (-mk / 2.0)
            mprev = int(mcum[k - 1])
            zs = self.zs
            n = zs.size
            half = 0.5 * zs
            vals = np.zeros(n)

            # left part: y in [0, z/2], singular block factor handled by y = u^2
            if mk == 1:

                def f_left(ii, u, _p=prev, _g=gk, _d=delta):
                    return 2.0 * _g * np.exp(-_d * u * u) * _p(zs[ii] - u * u)

                u_hi = np.sqrt(half)
                scale = min(1.0 / math.sqrt(delta), float(u_hi[-1])) if delta > 0 else None
                panels = (
                    geometric_knots(np.zeros(n), u_hi, scale)
                    if scale
                    else [(np.zeros(n), u_hi)]
                )
            else:

                def f_left(ii, y, _p=prev, _g=gk, _d=delta, _m=mk):
                    return _g * np.power(y, _m / 2.0 - 1.0) * np.exp(-_d * y) * _p(zs[ii] - y)

                scale = min(1.0 / delta, float(half[-1])) if delta > 0 else None
                panels = (
                    geometric_knots(np.zeros(n), half, scale)
                    if scale
                    else [(np.zeros(n), half)]
                )
            for lo, hi in panels:
                vals += adaptive_simpson_batched(f_left, lo, hi, n)

            # right part: v = z - y in [0, z/2]; previous level singular only
            # when it is a single chi^2(1) block, handled by v = u^2
            if mprev == 1:

                def f_right(ii, u, _g=gk, _d=delta, _m=mk, _c=c1):
                    y = zs[ii] - u * u
                    return 2.0 * _c * _g * np.power(y, _m / 2.0 - 1.0) * np.exp(-_d * y)

                vals += adaptive_simpson_batched(f_right, np.zeros(n), np.sqrt(half), n)
            else:

                def f_right(ii, v, _p=prev, _g=gk, _d=delta, _m=mk):
                    y = zs[ii] - v
                    return _p(v) * _g * np.power(y, _m / 2.0 - 1.0) * np.exp(-_d * y)

                vals += adaptive_simpson_batched(f_right, np.zeros(n), half, n)

            spline = _CubicSpline(self.log_zs, np.log(vals))
            prev = self._level_eval(
                spline, self._power_consts[k], int(mcum[k]), float(self.zs[0])
            )
        return spline

    # -- queries ------------------------------------------------------------

    def hhat(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if self.block_w.size == 1:
            m = int(self.block_m[0])
            return chisq_norm_const(m) * np.power(z, m / 2.0 - 1.0)
        ev = self._level_eval(
            self.spline,
            self._power_consts[-1],
            self.total_dof,
            float(self.zs[0]),
        )
        return ev(z)

    def density(self, z: np.ndarray) -> np.ndarray:
        """Density of sum w_i eta_i^2 on the normalized scale."""
        z = np.asarray(z, dtype=float)
        return self.hhat(z) * np.exp(-0.5 * z)

    def tail(self, x: float) -> float:
        """P{sum w_i eta_i^2 >= x} on the normalized scale."""
        if x <= 0.0:
            return 1.0
        if self.block_w.size == 1:
            return gammainc_upper(self.total_dof / 2.0, x / 2.0)
        zstop = x + _TAIL_WINDOW
        if zstop > self.zmax:
            raise ValidationError(
                f"tail threshold {x:.3f} outside engine range (zmax={self.zmax})"
            )
        scale_est = float(self.hhat(np.array([x]))[0]) * math.exp(-0.5 * x)
        body = adaptive_simpson(
            lambda z: float(self.hhat(np.array([z]))[0]) * math.exp(-0.5 * z),
            x,
            zstop,
            atol=max(scale_est * 1e-13, 1e-320),
            rtol=1e-10,
        )
        # analytic closure: h ~ K(G^2) f_{d1} beyond zstop (remainder itself
        # is below 1e-9 of the tail thanks to the 60-unit window)
        closure = math.exp(log_zolotarev(self.wnorm[self.d1 :])) * gammainc_upper(
            self.d1 / 2.0, zstop / 2.0
        )
        return body + closure

    def shell(self, x_lo: float, x_hi: float) -> float:
        """P{x_lo <= sum w_i eta_i^2 <= x_hi} on the normalized scale."""
        if x_hi <= x_lo:
            return 0.0
        if self.block_w.size == 1:
            a = self.total_dof / 2.0
            return gammainc_upper(a, x_lo / 2.0) - gammainc_upper(a, x_hi / 2.0)
        if x_hi > self.zmax:
            raise ValidationError(
                f"shell edge {x_hi:.3f} outside engine range (zmax={self.zmax})"
            )
        lo = max(x_lo, 0.0)
        scale_est = float(self.hhat(np.array([max(lo, 1e-8)]))[0]) * math.exp(-0.5 * lo)
        return adaptive_simpson(
            lambda z: float(self.hhat(np.array([z]))[0]) * math.exp(-0.5 * z),
            lo,
            x_hi,
            atol=max(scale_est * 1e-13, 1e-320),
            rtol=1e-10,
        )


_ENGINES: dict[tuple, _DensityEngine] = {}
_ENGINE_LOCK = threading.Lock()


def _engine(w: WeightedChiSquare, need_z: float = 0.0) -> _DensityEngine:
    """Per-weights engine cache; rebuilt when a larger z range is needed."""
    key = w.normalized()
    zmax = max(_DEFAULT_ZMAX, 1.25 * need_z)
    with _ENGINE_LOCK:
        eng = _ENGINES.get(key)
        if eng is None or eng.zmax < need_z:
            eng = _DensityEngine(key, zmax)
            _ENGINES[key] = eng
        return eng


# ---------------------------------------------------------------------------
# Public surface
# ---------------------------------------------------------------------------


def weighted_density(w: WeightedChiSquare, z) -> float | np.ndarray:
    """Density h(z) of sum lambda_i^2 eta_i^2 at z > 0."""
    zarr = np.atleast_1d(np.asarray(z, dtype=float))
    if np.any(zarr <= 0):
        raise ValidationError("weighted density requires z > 0")
    w1 = w.lambda1_sq
    zn = zarr / w1
    eng = _engine(w, float(zn.max()))
    out = eng.density(zn) / w1
    return float(out[0]) if np.isscalar(z) or np.ndim(z) == 0 else out


_UNDERFLOW_X = 2900.0  # normalized threshold where e^{-x/2} leaves float64


def weighted_norm_tail(w: WeightedChiSquare, t: float) -> float:
    """P{|Y| >= t} where |Y|^2 has the weighted chi-square law."""
    if not t >= 0:
        raise ValidationError(f"threshold must be >= 0, got {t}")
    if t == 0.0:
        return 1.0
    x = t * t / w.lambda1_sq
    if x >= _UNDERFLOW_X:
        return 0.0
    return _engine(w, x + _TAIL_WINDOW).tail(x)


def weighted_shell_probability(w: WeightedChiSquare, t_lo: float, t_hi: float) -> float:
    """P{t_lo <= |Y| <= t_hi}."""
    if not 0 <= t_lo <= t_hi:
        raise ValidationError(f"need 0 <= t_lo <= t_hi, got [{t_lo}, {t_hi}]")
    w1 = w.lambda1_sq
    x_lo, x_hi = t_lo * t_lo / w1, t_hi * t_hi / w1
    if x_lo >= _UNDERFLOW_X:
        return 0.0
    if x_hi >= _UNDERFLOW_X:
        return weighted_norm_tail(w, t_lo)  # upper edge is below float range
    return _engine(w, x_hi).shell(x_lo, x_hi)


def zolotarev_constant(s: Spectrum) -> float:
    """K(Gamma^2) = prod_{i > d1} (1 - lambda_i^2/lambda_1^2)^{-1/2}.

    The empty product (d1 = d) is 1, which subsumes the diagonal-matrix
    convention.
    """
    if s.lambda1 <= 0:
        raise ValidationError("largest eigenvalue must be positive")
    return math.exp(log_zolotarev(s.weights()[s.d1 :] / s.lambda1**2))


def _zolotarev_term(s: Spectrum, z: float) -> float:
    """K f_{d1}(z/l1^2)/l1^2, the leading term of the density of |Y|^2 at z > 0."""
    if z <= 0:
        raise ValidationError("bound requires z > 0")
    k = zolotarev_constant(s)
    w1 = s.lambda1**2
    return k * chisq_density(s.d1, z / w1) / w1


def density_upper_bound(s: Spectrum, z: float) -> float:
    """Pointwise upper bound on the density of |Y|^2.

    K f_{d1}(z/l1^2)/l1^2 when the top eigenvalue has multiplicity >= 2,
    and C3(d) times the d1 = 1 analogue otherwise. For d = 1 the bound is
    the exact density.
    """
    base = _zolotarev_term(s, z)
    if s.d1 >= 2 or s.dim == 1:
        return base
    return constants(s.dim).C3 * base


def density_lower_bound(s: Spectrum, z: float) -> tuple[float, float]:
    """Lower bound (1/4) K f_{d1}(z/l1^2)/l1^2 with its validity threshold.

    Returns (bound value, threshold); callers must check z >= threshold.
    The threshold degenerates to +inf when every eigenvalue ties the top.
    """
    value = 0.25 * _zolotarev_term(s, z)
    if s.d1 >= s.dim:
        return value, math.inf
    w = s.weights()
    threshold = 2.0 * s.d1 * float(w.sum()) / (1.0 - w[s.d1] / w[0])
    return value, threshold


# ---------------------------------------------------------------------------
# Constant table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantTable:
    """Dimension-dependent constants of the tail-bound machinery.

    beta is the coefficient of lambda_1^2, i.e. beta(lambda_1) =
    lambda_1^2 * (log(8 C3) + d/4).
    """

    d: int
    C0: float
    C1: float
    C2: float
    C3: float
    C4_by_multiplicity: tuple[float, ...]
    C5: float
    beta: float

    def __post_init__(self):
        vals = (self.C0, self.C1, self.C2, self.C3, self.C5, self.beta) + tuple(
            self.C4_by_multiplicity
        )
        if any(not math.isfinite(v) or v <= 0 for v in vals):
            raise ValidationError("constant table entries must be positive finite")
        if self.C3 <= 1:
            raise ValidationError(f"C3 must exceed 1, got {self.C3}")
        if self.C5 < 3 * self.d:
            raise ValidationError(f"C5 must be >= 3d, got {self.C5}")


def _c4(m: int) -> float:
    """C4(m) = sqrt(2) + sqrt(pi) (m/e)^{m/2} / Gamma((m+1)/2)."""
    return math.sqrt(2.0) + math.sqrt(math.pi) * (m / math.e) ** (m / 2.0) / math.gamma(
        (m + 1) / 2.0
    )


def _partitions(n: int, largest: int | None = None):
    if largest is None:
        largest = n
    if n == 0:
        yield []
        return
    for k in range(min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            yield [k, *rest]


def _tail_ratio_log(d: int, t: float) -> float:
    """log of P{|Z| >= t} / (t^{d-2} e^{-t^2/2})."""
    return log_chisq_norm_tail(d, t) - (d - 2) * math.log(t) + t * t / 2.0


@lru_cache(maxsize=None)
def constants(d: int) -> ConstantTable:
    """Constant table for dimension d >= 2 (memoized, idempotent).

    C1 and C2 envelope the exact ratio P{|Z| >= t} / (t^{d-2} e^{-t^2/2})
    over t in [2d, 200] with a 1% outward margin; only their existence is
    guaranteed analytically, so the stored values are a calibration.
    """
    if d < 2:
        raise ValidationError(f"constant table requires d >= 2, got {d}")
    c4 = tuple(_c4(m) for m in range(1, d))
    c3 = max(math.prod(_c4(m) for m in p) for p in _partitions(d - 1))
    c5 = max(4.0 * math.sqrt(math.log(8.0 * c3)), 3.0 * d)
    beta = math.log(8.0 * c3) + d / 4.0
    ts = np.geomspace(2 * d, 200.0, 2000)
    ratios = np.array([_tail_ratio_log(d, float(t)) for t in ts])
    c1 = math.exp(float(ratios.min())) * 0.99
    c2 = math.exp(float(ratios.max())) * 1.01
    return ConstantTable(
        d=d,
        C0=chisq_norm_const(d),
        C1=c1,
        C2=c2,
        C3=c3,
        C4_by_multiplicity=c4,
        C5=c5,
        beta=beta,
    )
