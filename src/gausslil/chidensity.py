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

from .errors import NumericError, ValidationError
from .quadrature import gauss_kronrod, gauss_legendre, geometric_knots
from .special import (
    chisq_density,
    chisq_norm_const,
    chisq_norm_tail,
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
# e^{-x/2} rounds to 0.0 in float64 for every normalized x past this edge,
# where it falls below half the smallest subnormal, math.ulp(0.0)
_UNDERFLOW_X = -2.0 * (math.log(math.ulp(0.0)) - math.log(2.0))
_TAIL_WINDOW = 60.0  # the grid runs this far past the deepest tail it serves
# The grid starts at _GRID_LO, or, for a smallest weight w below 1e-3, at
# 1e-3 w (not below 1e-30), so that the small-z expansion holds below it.
_GRID_LO = 1e-6
_GRID_MID = 0.05  # 90 nodes in [_GRID_LO, _GRID_MID), as dense per decade below
_GRID_LOG_STEP = 0.013583036861  # log z spacing of the nodes from _GRID_MID up
_GRID_HI = _UNDERFLOW_X + _TAIL_WINDOW  # the top node is the first at or past this
_KRONROD_RTOL = 1e-6  # largest accepted error estimate of a convolution level
_ENGINE_CACHE_SIZE = 32  # engines kept, least recently used dropped first


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
    """Not-a-knot cubic spline coefficients of y against x.

    On [x_j, x_{j+1}] the spline is y_j + t (b_j + t (c_j + t d_j)), t = x - x_j.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        h = np.diff(x)
        r = 3.0 * np.diff(np.diff(y) / h)  # right-hand sides of rows 1..n-2
        # Rows 1..n-2 are tridiagonal in the second-derivative coefficients
        # c; the not-a-knot rows give c_0 and c_{n-1} in terms of their two
        # neighbours, which folds them into the first and last of these rows.
        sub = h[:-1].copy()
        diag = 2.0 * (h[:-1] + h[1:])
        sup = h[1:].copy()
        diag[0] += h[0] * (h[0] + h[1]) / h[1]
        sup[0] -= h[0] * h[0] / h[1]
        diag[-1] += h[-1] * (h[-2] + h[-1]) / h[-2]
        sub[-1] -= h[-1] * h[-1] / h[-2]
        inner = _solve_tridiagonal(sub, diag, sup, r)
        c = np.empty(x.size)
        c[1:-1] = inner
        c[0] = ((h[0] + h[1]) * inner[0] - h[0] * inner[1]) / h[1]
        c[-1] = ((h[-2] + h[-1]) * inner[-1] - h[-1] * inner[-2]) / h[-2]
        self.x = x
        self.y = y
        self.b = np.diff(y) / h - h / 3.0 * (2.0 * c[:-1] + c[1:])
        self.c = c[:-1]
        self.d = (c[1:] - c[:-1]) / (3.0 * h)


def _solve_tridiagonal(sub, diag, sup, rhs) -> np.ndarray:
    """Thomas algorithm; row i reads sub[i] x[i-1] + diag[i] x[i] + sup[i] x[i+1].

    Stable without pivoting for the diagonally dominant spline rows.
    """
    sub, diag, sup, rhs = sub.tolist(), diag.tolist(), sup.tolist(), rhs.tolist()
    n = len(diag)
    for i in range(1, n):
        m = sub[i] / diag[i - 1]
        diag[i] -= m * sup[i - 1]
        rhs[i] -= m * rhs[i - 1]
    x = [0.0] * n
    x[-1] = rhs[-1] / diag[-1]
    for i in range(n - 2, -1, -1):
        x[i] = (rhs[i] - sup[i] * x[i + 1]) / diag[i]
    return np.array(x)


class _LogGrid:
    """The engine's nodes: two segments, each uniform in log z.

    n_lo nodes run geometrically from z_lo up to _GRID_MID, then one node
    per _GRID_LOG_STEP in log z up to the first node at or past _GRID_HI.
    On each segment the interval index is affine in log z, so it is
    computed rather than searched.
    """

    def __init__(self, z_lo: float):
        n_lo = math.ceil(90 * math.log(_GRID_MID / z_lo) / math.log(_GRID_MID / _GRID_LO))
        steps = math.ceil(math.log(_GRID_HI / _GRID_MID) / _GRID_LOG_STEP)
        self.z = np.concatenate(
            [
                np.geomspace(z_lo, _GRID_MID, n_lo, endpoint=False),
                _GRID_MID * np.exp(_GRID_LOG_STEP * np.arange(steps + 1)),
            ]
        )
        self.log_z = np.log(self.z)
        self.log_lo = float(self.log_z[0])
        self._lower = (self.log_lo, n_lo / math.log(_GRID_MID / z_lo))
        self._upper = (math.log(_GRID_MID), 1.0 / _GRID_LOG_STEP, float(n_lo))

    def interval(self, lz: np.ndarray) -> np.ndarray:
        """Index j of the interval [log z_j, log z_{j+1}] that holds lz.

        The lower segment has fewer nodes per unit of log z, so the larger
        of the two affine maps is the right one on either side of
        _GRID_MID. Where the node logs round off the affine map, j can be
        one below or above the searched index, and the neighbouring cubic
        agrees there to rounding. Clipped to [0, n - 2].
        """
        x0, r0 = self._lower
        x1, r1, n_lo = self._upper
        j = lz - x1
        j *= r1
        j += n_lo
        np.maximum(j, (lz - x0) * r0, out=j)
        np.clip(j, 0.0, self.z.size - 2, out=j)
        return j.astype(np.intp)


class _LogLevel:
    """L_k(z) = log hhat_k(z) of one convolution level, read on the engine grid.

    On the grid it is the not-a-knot spline of log hhat_k against log z;
    below it, the small-z form log c_k + (M_k/2 - 1) log z - s_k z. Calls
    pass z and log z, which every caller has at hand.
    """

    def __init__(self, grid: _LogGrid, spline: _CubicSpline, small_z: tuple[float, float, float]):
        self.grid = grid
        self.spline = spline
        self.small_z = small_z  # (log c_k, M_k/2 - 1, s_k)
        self._coefs = (spline.x[:-1], spline.y[:-1], spline.b, spline.c, spline.d)

    def __call__(self, z: np.ndarray, lz: np.ndarray) -> np.ndarray:
        j = self.grid.interval(lz)
        x, y, b, c, d = (np.take(a, j) for a in self._coefs)
        t = lz - x
        out = d
        for coef in (c, b, y):
            out *= t
            out += coef
        below = lz < self.grid.log_lo
        if below.any():
            log_c, power, slope = self.small_z
            out[below] = log_c + power * lz[below] - slope * z[below]
        return out


_GL_NODES, _GL_WEIGHTS = gauss_legendre(10)


class _DensityEngine:
    """Scaled density hhat(z) = h(z) e^{z/2} of sum w_i chi^2(m_i), w_1 = 1.

    hhat grows at most polynomially, so a cubic spline of log hhat against
    log z carries full relative accuracy from z ~ 0 into the far tail.
    Below the grid the small-z expansion, exact to first order, takes over, and
    beyond it the leading term K(G^2) f_{d1}. The grid reaches past the
    float64 underflow edge of every tail, so one engine serves every query.

    Tails and shells come from a node table built once: the interval
    integrals I_j = int_{z_j}^{z_{j+1}} hhat(z) e^{-(z - z_j)/2} dz and the
    scaled suffix tails Qhat_j = Q(z_j) e^{z_j/2} on the nodes 0 = z_0 <
    z_1 < ... A query adds one partial interval to the table.
    """

    def __init__(self, wnorm: tuple[float, ...]):
        # wnorm[0] = 1, so equal weights are grouped at absolute tolerance
        blocks = group_descending(wnorm, _BLOCK_MERGE_RTOL)
        self.block_w = np.array([v for v, _ in blocks])
        self.block_m = np.array([m for _, m in blocks], dtype=int)
        self.d1 = int(self.block_m[0])
        # log (2 w_i)^{-m_i/2}: block i's density constant is this over Gamma(m_i/2)
        self._log_scale = -0.5 * self.block_m * np.log(2.0 * self.block_w)
        self.grid = _LogGrid(max(min(_GRID_LO, 1e-3 * min(wnorm)), 1e-30))
        self.zs = self.grid.z
        log_k = log_zolotarev(np.asarray(wnorm[self.d1 :]))
        self._lead_const = math.exp(log_k) * chisq_norm_const(self.d1)
        if self.block_w.size == 1:
            self._level = None
        else:
            self._level = self._build(self._small_z_terms())
        self.nodes = np.concatenate([[0.0], self.zs])
        self.pieces = self._integrals(self.nodes[:-1], self.nodes[1:])
        # past the top node h ~ K f_{d1}; that closure enters any tail asked
        # for at most e^{-30}-fold, since the top node is _TAIL_WINDOW past
        # _UNDERFLOW_X
        top = float(self.nodes[-1])
        qhat = [0.0] * self.nodes.size
        qhat[-1] = math.exp(log_k + log_chisq_norm_tail(self.d1, math.sqrt(top)) + 0.5 * top)
        decay = np.exp(-0.5 * np.diff(self.nodes)).tolist()
        pieces = self.pieces.tolist()
        for j in range(len(pieces) - 1, -1, -1):
            qhat[j] = pieces[j] + qhat[j + 1] * decay[j]
        self.qhat = np.array(qhat)

    def _small_z_terms(self) -> list[tuple[float, float, float]]:
        """(log c_k, M_k/2 - 1, s_k) with hhat_k(z) = c_k z^{M_k/2 - 1} (1 - s_k z + O(z^2)).

        c_k = prod_{i <= k} (2 w_i)^{-m_i/2} / Gamma(M_k/2), carried as its
        log so that no level underflows it, and s_k = sum_{i <= k} m_i
        delta_i / M_k with delta_i = (1/w_i - 1)/2. Below the grid a level
        is c_k z^{M_k/2 - 1} e^{-s_k z}, which agrees to first order.
        """
        mcum = np.cumsum(self.block_m)
        slopes = np.cumsum(self.block_m * 0.5 * (1.0 / self.block_w - 1.0)) / mcum
        log_c = np.cumsum(self._log_scale)
        terms = []
        for k in range(self.block_w.size):
            half_m = 0.5 * int(mcum[k])
            terms.append((float(log_c[k]) - math.lgamma(half_m), half_m - 1.0, float(slopes[k])))
        return terms

    def _build(self, small_z: list[tuple[float, float, float]]) -> _LogLevel:
        """Convolve the blocks in turn; level k is the function L_k = log hhat_k.

        hhat_k(z) = int_0^z g_k y^{m_k/2 - 1} e^{-delta_k y} hhat_{k-1}(z - y) dy
        is split at y = z/2. The left half takes y = u^2 and the right half
        v = z - y = u^2, which turns every power law z^{m/2 - 1} into a
        polynomial factor, and both run the fixed Gauss-Kronrod rule over
        geometric panels in u. Each integrand sums its logs, reads
        L_{k-1} there, and takes one exp.
        """
        log_c1, power1, _ = small_z[0]
        prev = lambda z, lz: log_c1 + power1 * lz  # noqa: E731
        zs = self.zs
        zero = np.zeros(zs.size)
        u_hi = np.sqrt(0.5 * zs)
        u_max = float(u_hi[-1])
        right_panels = geometric_knots(zero, u_hi, 0.25 * u_max, growth=2.0)
        for k in range(1, self.block_w.size):
            mk = int(self.block_m[k])
            delta = 0.5 * (1.0 / float(self.block_w[k]) - 1.0)
            log_2g = math.log(2.0) + float(self._log_scale[k]) - math.lgamma(0.5 * mk)

            # 2 g_k u^{m_k - 1} e^{-delta u^2} hhat_{k-1}(z_i - u^2)
            def left(i, u):
                y = u * u
                v = zs[i, None] - y
                s = prev(v, np.log(v))
                s -= delta * y
                if mk != 1:
                    s += (mk - 1) * np.log(u)
                s += log_2g
                return np.exp(s, out=s)

            # 2 g_k u hhat_{k-1}(u^2) v^{m_k/2 - 1} e^{-delta v}, v = z_i - u^2
            def right(i, u):
                lu = np.log(u)
                y = u * u
                v = zs[i, None] - y
                s = prev(y, 2.0 * lu)
                s += lu
                if mk != 2:
                    s += (0.5 * mk - 1.0) * np.log(v)
                s -= delta * v
                s += log_2g
                return np.exp(s, out=s)

            # the first left panel resolves the block's decay e^{-delta u^2}
            width = 0.25 * min(1.0 / math.sqrt(delta), u_max)
            vals, err = gauss_kronrod(left, geometric_knots(zero, u_hi, width, growth=2.0))
            v_right, e_right = gauss_kronrod(right, right_panels)
            vals += v_right
            err += e_right
            bad = ~(err <= _KRONROD_RTOL * vals)  # also catches NaN
            if np.any(bad):
                j = int(np.nonzero(bad)[0][0])
                raise NumericError(
                    f"convolution level {k} unresolved at normalized z = {zs[j]:.6g}: "
                    f"Kronrod error {err[j]:.3e} on {vals[j]:.3e}"
                )
            prev = _LogLevel(self.grid, _CubicSpline(self.grid.log_z, np.log(vals)), small_z[k])
        return prev

    # -- queries ------------------------------------------------------------

    def hhat(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if self._level is None:  # one block: the leading term is exact
            return self._leading(z)
        out = np.exp(self._level(z, np.log(z)))
        top = z > self.zs[-1]
        if np.any(top):
            out[top] = self._leading(z[top])
        return out

    def _leading(self, z: np.ndarray) -> np.ndarray:
        return self._lead_const * np.power(z, self.d1 / 2.0 - 1.0)

    def density(self, z: np.ndarray) -> np.ndarray:
        """Density of sum w_i eta_i^2 on the normalized scale."""
        z = np.asarray(z, dtype=float)
        return self.hhat(z) * np.exp(-0.5 * z)

    def _integrals(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """int_a^b hhat(z) e^{-(z - a)/2} dz for each interval [a_i, b_i].

        One fixed Gauss-Legendre rule in u = sqrt(z), which leaves a smooth
        integrand at z = 0 for every power law z^{m/2 - 1}.
        """
        ua, ub = np.sqrt(a), np.sqrt(b)
        u = ua[:, None] + (ub - ua)[:, None] * _GL_NODES
        z = u * u
        f = u * self.hhat(z) * np.exp(-0.5 * (z - a[:, None]))
        return 2.0 * (ub - ua) * (f @ _GL_WEIGHTS)

    def table_tail(self, x: float) -> float:
        """P{sum w_i eta_i^2 >= x} on the normalized scale, 0 <= x < top node."""
        j = int(np.searchsorted(self.nodes, x, side="right"))
        right = float(self.nodes[j])
        part = float(self._integrals(np.array([x]), np.array([right]))[0])
        return math.exp(-0.5 * x) * (part + float(self.qhat[j]) * math.exp(-0.5 * (right - x)))

    def table_shell(self, x_lo: float, x_hi: float) -> float:
        """P{x_lo <= sum w_i eta_i^2 <= x_hi} on the normalized scale.

        A sum of non-negative pieces, scaled by e^{-x_lo/2}: the partial
        interval at each end and the stored interval integrals between.
        """
        if x_hi <= x_lo:
            return 0.0
        i = int(np.searchsorted(self.nodes, x_lo, side="right"))
        k = int(np.searchsorted(self.nodes, x_hi, side="right"))
        if i == k:
            inside = float(self._integrals(np.array([x_lo]), np.array([x_hi]))[0])
            return math.exp(-0.5 * x_lo) * inside
        left = self.nodes[k - 1]
        ends = self._integrals(np.array([x_lo, left]), np.array([self.nodes[i], x_hi]))
        mid = self.pieces[i : k - 1] @ np.exp(-0.5 * (self.nodes[i : k - 1] - x_lo))
        total = ends[0] + mid + ends[1] * math.exp(-0.5 * (left - x_lo))
        return math.exp(-0.5 * x_lo) * float(total)


_ENGINES: dict[tuple, _DensityEngine] = {}  # least recently used first
_ENGINE_LOCK = threading.Lock()


def _engine(w: WeightedChiSquare) -> _DensityEngine:
    """Per-weights LRU engine cache; each engine covers the whole float64 range.

    Builds run under the lock, so concurrent callers build each vector once.
    """
    key = w.normalized()
    with _ENGINE_LOCK:
        eng = _ENGINES.pop(key, None)
        if eng is None:
            eng = _DensityEngine(key)
            while len(_ENGINES) >= _ENGINE_CACHE_SIZE:
                del _ENGINES[next(iter(_ENGINES))]
        _ENGINES[key] = eng
        return eng


# ---------------------------------------------------------------------------
# Public surface
# ---------------------------------------------------------------------------


def weighted_density(w: WeightedChiSquare, z) -> float | np.ndarray:
    """Density h(z) of sum lambda_i^2 eta_i^2 at z > 0."""
    zarr = np.atleast_1d(np.asarray(z, dtype=float))
    if not np.all(np.isfinite(zarr)):
        raise ValidationError("weighted density requires finite z")
    if np.any(zarr <= 0):
        raise ValidationError("weighted density requires z > 0")
    w1 = w.lambda1_sq
    out = _engine(w).density(zarr / w1) / w1
    return float(out[0]) if np.isscalar(z) or np.ndim(z) == 0 else out


def weighted_norm_tail(w: WeightedChiSquare, t: float) -> float:
    """P{|Y| >= t} where |Y|^2 has the weighted chi-square law."""
    if not t >= 0:
        raise ValidationError(f"threshold must be >= 0, got {t}")
    if t == 0.0:
        return 1.0
    x = t * t / w.lambda1_sq
    if x > _UNDERFLOW_X:
        return 0.0
    return _engine(w).table_tail(x)


def weighted_shell_probability(w: WeightedChiSquare, t_lo: float, t_hi: float) -> float:
    """P{t_lo <= |Y| <= t_hi}."""
    if not 0 <= t_lo <= t_hi:
        raise ValidationError(f"need 0 <= t_lo <= t_hi, got [{t_lo}, {t_hi}]")
    w1 = w.lambda1_sq
    x_lo, x_hi = t_lo * t_lo / w1, t_hi * t_hi / w1
    if x_lo > _UNDERFLOW_X:
        return 0.0
    if x_hi > _UNDERFLOW_X:
        return weighted_norm_tail(w, t_lo)  # upper edge is below float range
    return _engine(w).table_shell(x_lo, x_hi)


def zolotarev_constant(s: Spectrum) -> float:
    """K(Gamma^2) = prod_{i > d1} (1 - lambda_i^2/lambda_1^2)^{-1/2}.

    The empty product (d1 = d) is 1, which subsumes the diagonal-matrix
    convention.
    """
    if s.lambda1 <= 0:
        raise ValidationError("largest eigenvalue must be positive")
    return math.exp(s.log_zolotarev_constant)


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
    return 0.25 * _zolotarev_term(s, z), s.density_lower_threshold


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
