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

import bisect
import math
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericError, ValidationError
from .quadrature import KronrodChain, gauss_legendre
from .special import chisq_density, chisq_norm_tail, log_chisq_norm_tail
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
    "log_weighted_norm_tail",
    "log_weighted_shell_probability",
    "zolotarev_constant",
    "density_upper_bound",
    "density_lower_bound",
    "constants",
]

_BLOCK_MERGE_RTOL = 1e-12
# e^{-x/2} rounds to 0.0 in float64 for every normalized x past this edge,
# where it falls below half the smallest subnormal, math.ulp(0.0)
_UNDERFLOW_X = -2.0 * (math.log(math.ulp(0.0)) - math.log(2.0))
_TAIL_WINDOW = 60.0  # the grid runs this far past the edge, where the tail table closes
# The grid starts at _GRID_LO, or, for a smallest weight w below 1e-3, at
# 1e-3 w (not below _GRID_FLOOR), so that the small-z expansion holds below
# it. A weight w below _NEGLIGIBLE_WEIGHT shifts the law by O(w), which
# moves every value at or above the floor by O(w / z) < 1e-16 relative,
# so an engine leaves it out.
_GRID_LO = 1e-6
_GRID_FLOOR = 1e-30
_NEGLIGIBLE_WEIGHT = 1e-16 * _GRID_FLOOR
# _GRID_N_LO geometric nodes run from the start up to the break, _GRID_MID /
# _GRID_LO times the start. A level is a power law below its turnover
# z ~ 1/s_k, where e^{-s_k z} sets in; s_k <= (1/w - 1)/2 <= 500 on the shared
# grid, so the break sits a decade below the earliest turnover (own grids:
# 0.2 w against 2 w). Above it a level's cubic Hermite error is O(h^4) in the
# log step h (de Boor, A Practical Guide to Splines, 2001; its stencil slopes
# are O(h^6) off) and adds up over the levels;
# _GRID_LOG_STEP keeps the oracle sweep's worst error per level, 1.2e-9 at
# eight distinct weights, at 0.6 of the README's stated accuracy.
_GRID_MID = 2e-4
_GRID_N_LO = 90
_GRID_LOG_STEP = 0.0231
_GRID_HI = _UNDERFLOW_X + _TAIL_WINDOW  # the top node is the first at or past this
_KRONROD_RTOL = 1e-6  # largest accepted error estimate of a convolution level
_ENGINE_CACHE_SIZE = 32  # engines kept, least recently used dropped first
# The left half of level k stops where delta_k u^2 reaches _LEFT_CUT + 2 m_k
# (see _left_chain).
_LEFT_CUT = 60.0


@dataclass(frozen=True)
class WeightedChiSquare:
    """Weights lambda_i^2 of the quadratic form, descending, zeros dropped."""

    weights: tuple[float, ...]

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
        return cls(weights=pos)

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


class _LogGrid:
    """The engine's nodes, and everything that depends on them alone.

    _GRID_N_LO nodes run geometrically from z_lo up to the break
    z_lo _GRID_MID / _GRID_LO (_GRID_MID on the shared grid), then one node
    per _GRID_LOG_STEP in log z up to the first node at or past _GRID_HI:
    778 nodes on the shared grid. On each segment the interval index is
    affine in log z, so it is computed rather than searched.

    Every level is a cubic Hermite interpolant on these nodes whose node
    slopes come from fixed seven-point stencils, so each node's stencil
    and slope weights are kept here (_slope_stencils). The right half
    of every convolution level (see _DensityEngine._build) integrates over
    abscissas that depend on the nodes alone, so those, their logs and
    their grid positions are kept here too, as are the decay tables of the
    node table's suffix tails (see _DensityEngine), and the table's nodes as
    a list, which a scalar query bisects. Engines on the _GRID_LO grid share
    one (_log_grid).
    """

    def __init__(self, z_lo: float):
        mid = z_lo * (_GRID_MID / _GRID_LO)
        steps = math.ceil(math.log(_GRID_HI / mid) / _GRID_LOG_STEP)
        self.z = np.concatenate(
            [
                np.geomspace(z_lo, mid, _GRID_N_LO, endpoint=False),
                mid * np.exp(_GRID_LOG_STEP * np.arange(steps + 1)),
            ]
        )
        self.log_z = np.log(self.z)
        self.log_lo = float(self.log_z[0])
        self._lower = (self.log_lo, _GRID_N_LO / math.log(mid / z_lo))
        self._upper = (math.log(mid), 1.0 / _GRID_LOG_STEP, float(_GRID_N_LO))
        # the node table's suffix tails run x_j += e^{-(z_{j+1} - z_j)/2} x_{j+1}
        # down from the top node over z_0 = 0, z_1, ...; no term is dropped
        self.nodes = np.concatenate([[0.0], self.z])
        self.node_list = self.nodes.tolist()  # a scalar query bisects this list
        self.suffix = _scan_tables(np.exp(-0.5 * np.diff(self.nodes)))
        self._h = np.diff(self.log_z)
        self._stencil, self._weights = _slope_stencils(self.log_z)
        # each row i integrates over u in [0, sqrt(z_i / 2)]
        self.u_hi = np.sqrt(0.5 * self.z)
        self.u_max = float(self.u_hi[-1])
        self.right = _RightHalf(self)

    def interval(self, lz: np.ndarray) -> np.ndarray:
        """Index j of the interval [log z_j, log z_{j+1}] that holds lz.

        The lower segment has fewer nodes per unit of log z (a step of
        log(200) / 90 = 0.059 against 0.0231), so the larger of the two
        affine maps is the right one on either side of the break. Where the
        node logs round off the affine map, j can be one below or above the
        searched index, and the neighbouring cubic agrees there to rounding.
        Clipped to [0, n - 2].
        """
        x0, r0 = self._lower
        x1, r1, n_lo = self._upper
        j = lz - x1
        j *= r1
        j += n_lo
        np.maximum(j, (lz - x0) * r0, out=j)
        np.clip(j, 0.0, self.z.size - 2, out=j)
        return j.astype(np.intp)

    def spline(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cubic Hermite interpolant of y against log z, with stencil slopes.

        On [log z_j, log z_{j+1}] the cubic is y_j + t (b_j + t (c_j + t d_j)),
        t = log z - log z_j; returns the columns (b, c, d). It takes y and
        the stencil slope m at both ends (see _slope_stencils), so it is
        C^1, and its coefficients depend on y only at the nodes of its two
        ends' stencils, eight at most: there is no global solve.
        """
        m = np.einsum("ik,ik->i", self._weights, y[self._stencil])
        h = self._h
        secant = np.diff(y) / h
        m0, m1 = m[:-1], m[1:]
        c = (3.0 * secant - 2.0 * m0 - m1) / h
        d = (m0 + m1 - 2.0 * secant) / (h * h)
        return m0, c, d


def _slope_stencils(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each node's seven-point stencil and its slope weights, as (n, 7) arrays.

    Node i's stencil is nodes i-3..i+3, moved inward at the two ends (it
    may straddle the break). Its weights are row i of the stencil's
    Lagrange differentiation matrix (Berrut & Trefethen, SIAM Review 46,
    2004): D_ik = (a_i / a_k) / (x_i - x_k), a_k = prod_{l != k} (x_k - x_l),
    and D_ii = -sum_{k != i} D_ik, so the slope of y at node i is
    sum_k D_ik y_k, exact for a sextic and O(h^6) off for a smooth y.
    """
    n = x.size
    rows = np.arange(n)
    stencil = np.clip(rows - 3, 0, n - 7)[:, None] + np.arange(7)
    own = rows - stencil[:, 0]  # node i's place in its stencil
    xs = x[stencil]
    gaps = xs[:, :, None] - xs[:, None, :]  # x_k - x_l, 1 on the diagonal
    gaps[:, range(7), range(7)] = 1.0
    a = gaps.prod(axis=2)
    weights = a[rows, own, None] / a / gaps[rows, own]
    weights[rows, own] = 0.0
    weights[rows, own] = -weights.sum(axis=1)
    return stencil, weights


def _scan_tables(coef: np.ndarray) -> list[np.ndarray]:
    """Products of 1, 2, 4, ... consecutive coefficients of a linear recurrence.

    For x_i += coef_i x_{i+1}, table j holds at k the product of
    coef_k .. coef_{k+2^j-1}, the weight with which x at one end of that
    run reaches x at the other. Pass j of a recursive doubling scan adds
    table j times x 2^j rows away, so after passes 0..j-1 each x_i holds
    the terms of its 2^j - 1 nearest successors; the tables cover every
    row, so no term is dropped.
    """
    tables = []
    span = 1
    while coef.size:
        tables.append(coef)
        coef = coef[:-span] * coef[span:]
        span *= 2
    return tables


class _RightHalf:
    """The right half's Kronrod points on a grid, shared by every level.

    Row i takes v = z_i - u^2 over u in [0, sqrt(z_i / 2)] on the chain
    [0, s], [s, 2s], [2s, 4s], s = u_max / 4. Kept per point: log u, v,
    log v, and where y = u^2 lies on the grid (read at log y = 2 log u):
    interval j at t = log y - log z_j, or, for the flat indices ``below``,
    under the grid at below_y and below_ly.
    """

    def __init__(self, grid: _LogGrid):
        self.chain = KronrodChain(0.25 * grid.u_max, grid.u_hi)
        self.rows, u, self.width = self.chain.points()
        self.log_u = np.log(u)
        y = u * u
        self.v = grid.z[self.rows, None] - y
        self.log_v = np.log(self.v)
        ly = 2.0 * self.log_u
        self.j = grid.interval(ly)
        self.t = ly - grid.log_z[self.j]
        self.below = np.flatnonzero(ly < grid.log_lo)
        self.below_y, self.below_ly = y.flat[self.below], ly.flat[self.below]


@lru_cache(maxsize=1)
def _shared_grid() -> _LogGrid:
    return _LogGrid(_GRID_LO)


def _log_grid(z_lo: float) -> _LogGrid:
    """The grid that starts at z_lo.

    Every smallest weight >= 1e-3 starts the grid at _GRID_LO; that grid
    is built on first use and shared after. A smaller weight gives a start
    of its own, which seldom repeats, so its grid is built for its engine
    alone and never displaces the shared one.
    """
    return _shared_grid() if z_lo == _GRID_LO else _LogGrid(z_lo)


def _log_leading(log_k: float, d1: int) -> tuple[float, float]:
    """(log c, p) of the leading term K f_{d1}(z) e^{z/2} = c z^p of hhat:
    c = K C0(d1), C0(d1) = 2^{-d1/2} / Gamma(d1/2), as its log, p = d1/2 - 1."""
    return log_k + (-0.5 * d1 * math.log(2.0) - math.lgamma(0.5 * d1)), 0.5 * d1 - 1.0


def _log_power(log_c: float, power: float, lz: np.ndarray) -> np.ndarray:
    """log(c z^power) at lz = log z. Power 0 leaves out 0 log z, so that
    z = 0 (an underflowed z / lambda_1^2) reads the limit there."""
    return log_c + power * lz if power else np.full_like(lz, log_c)


class _LogLevel:
    """L_k(z) = log hhat_k(z) of one convolution level, as a table of local forms.

    Row r of the six ``columns`` (x, y, b, c, d, s) is the form
    y + t (b + t (c + t d)) - s z, t = log z - x, of L_k on node interval r
    of (0, z_0, z_1, ...): row 0 the small-z form, c_k z^{M_k/2 - 1}
    e^{-s_k z} in logs, and rows 1.. the cubic Hermite rows on the grid
    (_LogGrid.spline). A single block is its leading term on every row.
    A read gathers the cubic from rows 1.. and takes row 0 only under the
    grid. Calls pass z and log z, which every caller has at hand; ``at``
    reads at the right half's points, which the grid located once.
    """

    def __init__(self, grid: _LogGrid, columns: np.ndarray):
        self.grid = grid
        self.columns = x, y, b, c, d, _ = tuple(columns)
        self._x, self._d, self._coefs = x[1:], d[1:], (c[1:], b[1:], y[1:])

    @classmethod
    def on_nodes(cls, grid: _LogGrid, y: np.ndarray, small_z: tuple[float, float, float]) -> "_LogLevel":
        """L_k = y at the nodes, with small-z terms (log c_k, M_k/2 - 1, s_k)."""
        log_c, power, slope = small_z
        columns = np.zeros((6, y.size))
        columns[:, 0] = 0.0, log_c, power, 0.0, 0.0, slope
        columns[0, 1:] = grid.log_z[:-1]
        columns[1, 1:] = y[:-1]
        columns[2, 1:], columns[3, 1:], columns[4, 1:] = grid.spline(y)
        return cls(grid, columns)

    @classmethod
    def power_law(cls, grid: _LogGrid, log_c: float, power: float) -> "_LogLevel":
        """L = log c + power log z on every row."""
        columns = np.zeros((6, grid.z.size))
        columns[1], columns[2] = log_c, power
        return cls(grid, columns)

    def _cubic(self, j: np.ndarray, t: np.ndarray) -> np.ndarray:
        # one coefficient gathered at a time keeps two arrays of j's size alive
        out = np.take(self._d, j)
        for coef in self._coefs:
            out *= t
            out += np.take(coef, j)
        return out

    def _small(self, z, lz):
        _, y, b, _, _, s = self.columns
        return _log_power(y[0], b[0], lz) - s[0] * z

    def __call__(self, z: np.ndarray, lz: np.ndarray) -> np.ndarray:
        j = self.grid.interval(lz)
        out = self._cubic(j, lz - np.take(self._x, j))
        below = lz < self.grid.log_lo
        if below.any():
            out[below] = self._small(z[below], lz[below])
        return out

    def at(self, p: _RightHalf) -> np.ndarray:
        out = self._cubic(p.j, p.t)
        out.flat[p.below] = self._small(p.below_y, p.below_ly)
        return out


_GL_NODES, _GL_WEIGHTS = gauss_legendre(16)


def _left_chain(grid: _LogGrid, delta: float, mk: int) -> KronrodChain:
    """Panels of level k's left half, u in [0, sqrt(z_i / 2)] with y = u^2.

    The first panel resolves the block's decay e^{-delta u^2}. Each row
    stops where delta y reaches C = _LEFT_CUT + 2 m_k; what that drops is
    below 2^-82 of hhat_k(z_i), whatever the other blocks:

    Block 1 has delta_1 = 0, so hhat_{k-1} = p * R with p(x) = c x^{q},
    q = m_1/2 - 1, and R >= 0 the scaled law of blocks 2..k-1 (a point
    mass at 0 for k = 2). With the block's
    factor f(y) = g y^{a-1} e^{-delta y}, a = m_k/2, the dropped part is at
    most int R(s) int_{y >= C/delta} f(y) p(z - s - y) dy ds, so its ratio
    to hhat_k(z) = int R(s) (f * p)(z - s) ds is at most the sup over x of
    rho(x) = int_tau^1 t^{a-1} (1-t)^q e^{-lam t} dt / int_0^1 (same),
    lam = delta x, tau = C/lam (y = x t; rho = 0 unless lam > C). For
    q >= 0, (1-t)^q falls and [t >= tau] rises, so by Chebyshev's sum
    inequality rho <= Gamma(a, C)/gamma(a, C). For q = -1/2, split the
    top at t = 1/2: rho <= sqrt(2) [Gamma(a, C) + max(1, 2^{1-a})
    (2C)^a e^{-C}] / gamma(a, C), which also bounds the first case. With
    C = 60 + 2 m_k its largest value over every m_k is 1.3e-25, at m_k = 8.
    """
    first = 0.25 * min(1.0 / math.sqrt(delta), grid.u_max)
    cut = math.sqrt((_LEFT_CUT + 2.0 * mk) / delta)
    return KronrodChain(first, np.minimum(grid.u_hi, cut))


class _DensityEngine:
    """Scaled density hhat(z) = h(z) e^{z/2} of sum w_i chi^2(m_i), w_1 = 1.

    hhat grows at most polynomially, so a piecewise cubic of log hhat against
    log z carries full relative accuracy from z ~ 0 into the far tail.
    Below the grid the small-z expansion, exact to first order, takes over, and
    beyond it the leading term K(G^2) f_{d1}. The grid reaches past the
    float64 underflow edge of every tail, so one engine serves every query.

    Tails and shells come from a node table built once: the interval
    integrals I_j = int_{z_j}^{z_{j+1}} hhat(z) e^{-(z - z_j)/2} dz and the
    scaled suffix tails Qhat_j = Q(z_j) e^{z_j/2} on the nodes 0 = z_0 <
    z_1 < ... A query adds one partial interval to the table. Both read
    log hhat on a node interval from that interval's own local form
    (_form), so one integral (_integrals) serves the table and the
    queries; log_hhat, which locates each point on the grid, serves
    densities.
    """

    def __init__(self, wnorm: tuple[float, ...]):
        wnorm = tuple(x for x in wnorm if x >= _NEGLIGIBLE_WEIGHT)
        # wnorm[0] = 1, so equal weights are grouped at absolute tolerance
        blocks = group_descending(wnorm, _BLOCK_MERGE_RTOL)
        self.block_w = np.array([v for v, _ in blocks])
        self.block_m = np.array([m for _, m in blocks], dtype=int)
        self.d1 = int(self.block_m[0])
        # log (2 w_i)^{-m_i/2}: block i's density constant is this over Gamma(m_i/2)
        self._log_scale = -0.5 * self.block_m * np.log(2.0 * self.block_w)
        self.grid = _log_grid(max(min(_GRID_LO, 1e-3 * min(wnorm)), _GRID_FLOOR))
        self.zs = self.grid.z
        self._log_k = log_zolotarev(np.asarray(wnorm[self.d1 :]))
        self._leading = _log_leading(self._log_k, self.d1)
        if self.block_w.size == 1:
            self._level = _LogLevel.power_law(self.grid, *self._leading)
        else:
            self._level = self._build(self._small_z_terms())
        self.nodes = self.grid.nodes
        # Qhat is largest at the top node, and hhat below it, so the table
        # fits float64 if Qhat there does
        top = float(self.nodes[-1])
        try:
            q_top = math.exp(self._log_closure(top) + 0.5 * top)
        except OverflowError:
            raise NumericError(
                f"tail table overflows float64: Q(z) e^(z/2) at normalized z = {top:.6g} "
                f"for a top multiplicity of {self.d1}"
            ) from None
        self.pieces = self._integrals(self.nodes[:-1, None], self.nodes[1:, None], self._table_form())[0]
        qhat = np.append(self.pieces, q_top)
        span = 1
        for table in self.grid.suffix:  # Qhat_j = I_j + e^{-(z_{j+1} - z_j)/2} Qhat_{j+1}
            qhat[:-span] += table * qhat[span:]
            span *= 2
        self.qhat = qhat

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
        doubling panels in u that every node shares. Each integrand sums
        its logs, reads L_{k-1} there, and takes one exp. The right half's
        points are the grid's; the left half's depend on delta_k, and its
        factors in u alone are computed once per shared panel.
        """
        grid = self.grid
        zs = grid.z
        right = grid.right
        log_c1, power1, _ = small_z[0]
        prev = lambda z, lz: log_c1 + power1 * lz  # noqa: E731
        for k in range(1, self.block_w.size):
            mk = int(self.block_m[k])
            delta = 0.5 * (1.0 / float(self.block_w[k]) - 1.0)
            log_2g = math.log(2.0) + float(self._log_scale[k]) - math.lgamma(0.5 * mk)

            # 2 g_k u^{m_k - 1} e^{-delta u^2} hhat_{k-1}(z_i - u^2)
            def left(rows, u):
                y = u * u
                v = zs[rows, None] - y
                s = prev(v, np.log(v))
                factor = log_2g - delta * y
                if mk != 1:
                    factor += (mk - 1) * np.log(u)
                s += factor
                return np.exp(s, out=s)

            vals, err = _left_chain(grid, delta, mk).integrate(left)

            # 2 g_k u hhat_{k-1}(u^2) v^{m_k/2 - 1} e^{-delta v}, v = z_i - u^2
            if k == 1:
                s = log_c1 + power1 * (2.0 * right.log_u)
            else:
                s = prev.at(right)
            s += right.log_u
            if mk != 2:
                s += (0.5 * mk - 1.0) * right.log_v
            s -= delta * right.v
            s += log_2g
            v_right, e_right = right.chain.reduce(right.rows, np.exp(s, out=s), right.width)
            vals += v_right
            err += e_right
            bad = ~((err <= _KRONROD_RTOL * vals) & (vals > 0.0))  # also catches NaN
            if np.any(bad):
                j = int(np.nonzero(bad)[0][0])
                if vals[j] <= 0.0:
                    raise NumericError(f"convolution level {k} underflows at normalized z = {zs[j]:.6g}")
                raise NumericError(
                    f"convolution level {k} unresolved at normalized z = {zs[j]:.6g}: "
                    f"Kronrod error {err[j]:.3e} on {vals[j]:.3e}"
                )
            prev = _LogLevel.on_nodes(grid, np.log(vals), small_z[k])
        return prev

    # -- queries ------------------------------------------------------------

    def log_hhat(self, z: np.ndarray, lz: np.ndarray) -> np.ndarray:
        """log hhat at z, lz = log z, for densities: the level, and past the
        grid the leading term log K f_{d1}(z) + z/2, which is exact for a
        single block."""
        out = self._level(z, lz)
        top = z > self.zs[-1]
        if top.any():
            out[top] = _log_power(*self._leading, lz[top])
        return out

    def density(self, z: np.ndarray) -> np.ndarray:
        """Density of sum w_i eta_i^2 on the normalized scale."""
        # z = 0 (an underflowed z / lambda_1^2) has log -inf, under the grid:
        # row 0 gives the limit there, over the NaN that the cubic rows read
        # wherever d = 0 (a single block)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_h = self.log_hhat(z, np.log(z))
        return np.exp(log_h - 0.5 * z)

    def _form(self, k: int) -> tuple:
        """Local form (x, y, b, c, d, s) of log hhat on node interval k: the
        level's row k (see _LogLevel)."""
        x, y, b, c, d, s = self._level.columns
        return x[k], y[k], b[k], c[k], d[k], s[k]

    def _table_form(self) -> tuple:
        """The local forms of every node interval, as (rows, 1) columns."""
        return tuple(col[:, None] for col in self._level.columns)

    @staticmethod
    def _integrals(a, b, form: tuple):
        """int_a^b hhat(z) e^{-(z - a)/2} dz over [a, b] in one node interval.

        log hhat is read from that interval's local form (see _form). A
        scalar query passes floats and gets a float; the table passes
        (rows, 1) columns, a form of columns too, and gets a (1, rows) row
        (width.T). One fixed 16-point Gauss-Legendre rule in u = sqrt(z),
        which leaves a smooth integrand at z = 0 for every power law
        z^{m/2 - 1}. Sixteen points hold the exact two-weight tail
        (criterion 1) to 2e-13 out to 37 lambda_1 on the grid's intervals;
        ten points miss it by 1.9e-9 there.
        """
        x, y, b1, c, d, s = form
        ua, ub = np.sqrt(a), np.sqrt(b)
        width = ub - ua
        u = ua + width * _GL_NODES
        z = u * u
        t = np.log(z) - x
        f = u * np.exp(y + t * (b1 + t * (c + t * d)) - s * z) * np.exp(-0.5 * (z - a))
        return 2.0 * width.T * (f @ _GL_WEIGHTS)

    def _log_closure(self, x: float) -> float:
        """log K + log Q_{d1}(sqrt x), the tail of the leading term K f_{d1}.

        Exact for a single block. The table closes with it at the top node
        z_top (normalized 1560.1, 39.5 lambda_1), where it enters the tail
        at x at most e^{-(z_top - x)/2}-fold, e^{-20} at 39 lambda_1; past
        z_top it is the tail itself.
        """
        return self._log_k + log_chisq_norm_tail(self.d1, math.sqrt(x))

    def log_tail(self, x: float) -> float:
        """log P{sum w_i eta_i^2 >= x} on the normalized scale, x >= 0."""
        nodes = self.grid.node_list
        j = bisect.bisect_right(nodes, x)
        if j == len(nodes):
            return self._log_closure(x)
        right = nodes[j]
        part = self._integrals(x, right, self._form(j - 1))
        return math.log(part + self.qhat[j] * math.exp(-0.5 * (right - x))) - 0.5 * x

    def log_shell(self, x_lo: float, x_hi: float) -> float:
        """log P{x_lo <= sum w_i eta_i^2 <= x_hi} on the normalized scale.

        Below the top node, the log of a sum of non-negative pieces scaled
        by e^{-x_lo/2}: the partial interval at each end and the stored
        interval integrals between. An upper end at or past the top node
        takes log Q(x_lo) + log1p(-Q(x_hi)/Q(x_lo)) of the two tails.
        -inf for an empty shell.
        """
        if x_hi <= x_lo:
            return -math.inf
        nodes = self.grid.node_list
        if x_hi >= nodes[-1]:
            lo, hi = self.log_tail(x_lo), self.log_tail(x_hi)
            return lo + math.log1p(-math.exp(hi - lo)) if hi < lo else -math.inf
        i = bisect.bisect_right(nodes, x_lo)
        k = bisect.bisect_right(nodes, x_hi)
        if i == k:
            total = self._integrals(x_lo, x_hi, self._form(i - 1))
        else:
            left = nodes[k - 1]
            mid = self.pieces[i : k - 1] @ np.exp(-0.5 * (self.nodes[i : k - 1] - x_lo))
            total = (
                self._integrals(x_lo, nodes[i], self._form(i - 1))
                + mid
                + self._integrals(left, x_hi, self._form(k - 1)) * math.exp(-0.5 * (left - x_lo))
            )
        return math.log(total) - 0.5 * x_lo if total > 0.0 else -math.inf


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


def log_weighted_norm_tail(w: WeightedChiSquare, t: float) -> float:
    """log P{|Y| >= t} where |Y|^2 has the weighted chi-square law; -inf at t = inf."""
    if not t >= 0:
        raise ValidationError(f"threshold must be >= 0, got {t}")
    if t == 0.0:
        return 0.0
    return _engine(w).log_tail(t * t / w.lambda1_sq)


def weighted_norm_tail(w: WeightedChiSquare, t: float) -> float:
    """P{|Y| >= t}, the exp of log_weighted_norm_tail (0.0 once that underflows)."""
    return math.exp(log_weighted_norm_tail(w, t))


def log_weighted_shell_probability(w: WeightedChiSquare, t_lo: float, t_hi: float) -> float:
    """log P{t_lo <= |Y| <= t_hi}; -inf for an empty shell."""
    if not 0 <= t_lo <= t_hi:
        raise ValidationError(f"need 0 <= t_lo <= t_hi, got [{t_lo}, {t_hi}]")
    w1 = w.lambda1_sq
    return _engine(w).log_shell(t_lo * t_lo / w1, t_hi * t_hi / w1)


def weighted_shell_probability(w: WeightedChiSquare, t_lo: float, t_hi: float) -> float:
    """P{t_lo <= |Y| <= t_hi}, the exp of log_weighted_shell_probability."""
    return math.exp(log_weighted_shell_probability(w, t_lo, t_hi))


def zolotarev_constant(s: Spectrum) -> float:
    """K(Gamma^2) = prod_{i > d1} (1 - lambda_i^2/lambda_1^2)^{-1/2}.

    The empty product (d1 = d) is 1, which subsumes the diagonal-matrix
    convention.
    """
    s.top()
    return s.zolotarev_constant


def _zolotarev_term(s: Spectrum, z: float) -> float:
    """K f_{d1}(z/l1^2)/l1^2, the leading term of the density of |Y|^2 at z > 0.

    The engine's leading term in logs, log K held by the spectrum, minus
    x/2 at x = z/l1^2, and its exp. At x = 0 (z / l1^2 underflowed) it reads
    the limit, which is singular for d1 = 1.
    """
    if z <= 0:
        raise ValidationError("bound requires z > 0")
    s.top()
    x = z / s.lambda1_sq
    if x == 0.0 and s.d1 == 1:
        raise ValidationError("f_1 is singular at z = 0")
    lz = math.log(x) if x > 0.0 else -math.inf
    log_h = _log_power(*_log_leading(s.log_zolotarev_constant, s.d1), lz)
    return math.exp(log_h - 0.5 * x) / s.lambda1_sq


def density_upper_bound(s: Spectrum, z: float) -> float:
    """Pointwise upper bound on the density of |Y|^2.

    K f_{d1}(z/l1^2)/l1^2 when the top eigenvalue has multiplicity >= 2,
    and C3(d) times the d1 = 1 analogue otherwise. For d = 1 the bound is
    the exact density.
    """
    base = _zolotarev_term(s, z)
    if s.d1 >= 2 or s.dim == 1:
        return base
    return _c3(s.dim) * base


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

    C1 and C2 are kept as their logs, which stay finite where C1 leaves
    float64 (d ~ 310). beta is the coefficient of lambda_1^2, i.e.
    beta(lambda_1) = lambda_1^2 * (log(8 C3) + d/4).
    """

    d: int
    log_C1: float
    log_C2: float
    C3: float
    C4_by_multiplicity: tuple[float, ...]
    C5: float
    beta: float

    def __post_init__(self):
        vals = (self.C3, self.C5, self.beta) + tuple(self.C4_by_multiplicity)
        if not all(math.isfinite(v) for v in (self.log_C1, self.log_C2, *vals)) or min(vals) <= 0:
            raise ValidationError(f"constant table entries must be positive finite at d = {self.d}")
        if self.C3 <= 1:
            raise ValidationError(f"C3 must exceed 1, got {self.C3}")
        if self.C5 < 3 * self.d:
            raise ValidationError(f"C5 must be >= 3d, got {self.C5}")


def _c4(m: int) -> float:
    """C4(m) = sqrt(2) + sqrt(pi) (m/e)^{m/2} / Gamma((m+1)/2), its second term in logs."""
    log_term = 0.5 * math.log(math.pi) + 0.5 * m * (math.log(m) - 1.0) - math.lgamma(0.5 * (m + 1))
    return math.sqrt(2.0) + math.exp(log_term)


@lru_cache(maxsize=None)
def _c3(d: int) -> float:
    """C3(d), the largest product of C4(m) over the partitions m of d - 1.

    Every C4 is positive, so over its first part k: best[0] = 1 and
    best[n] = max_k C4(k) best[n - k], O(d^2) products.
    """
    c4 = [_c4(m) for m in range(1, d)]
    best = [1.0]
    for n in range(1, d):
        best.append(max(c4[k - 1] * best[n - k] for k in range(1, n + 1)))
    return best[-1]


def _tail_ratio_log(d: int, t: float) -> float:
    """log of P{|Z| >= t} / (t^{d-2} e^{-t^2/2})."""
    return log_chisq_norm_tail(d, t) - (d - 2) * math.log(t) + t * t / 2.0


@lru_cache(maxsize=None)
def constants(d: int) -> ConstantTable:
    """Constant table for dimension d >= 2 (memoized, idempotent).

    C1 and C2 envelope the exact ratio P{|Z| >= t} / (t^{d-2} e^{-t^2/2})
    over t in [2d, 200] with a 1% outward margin; only their existence is
    guaranteed analytically, so the stored values are a calibration. C3
    is linear: 8 C3, whose log C5 and beta take, leaves float64 from
    d = 778 (C3 itself from 780), and there the table raises a
    ValidationError that names d.
    """
    if d < 2:
        raise ValidationError(f"constant table requires d >= 2, got {d}")
    c4 = tuple(_c4(m) for m in range(1, d))
    c3 = _c3(d)
    c5 = max(4.0 * math.sqrt(math.log(8.0 * c3)), 3.0 * d)
    beta = math.log(8.0 * c3) + d / 4.0
    ts = np.geomspace(2 * d, 200.0, 2000)
    ratios = np.array([_tail_ratio_log(d, float(t)) for t in ts])
    return ConstantTable(
        d=d,
        log_C1=float(ratios.min()) + math.log(0.99),
        log_C2=float(ratios.max()) + math.log(1.01),
        C3=c3,
        C4_by_multiplicity=c4,
        C5=c5,
        beta=beta,
    )
