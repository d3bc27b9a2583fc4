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
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import NumericError, ValidationError
from .quadrature import gauss_legendre, kronrod_panel, kronrod_reduce
from .special import chisq_density, chisq_norm_tail, log_chisq_norm_tail
from .spectral import Spectrum, WeightedChiSquare, group_descending, log_leading, log_zolotarev

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
# 0.2 w against 2 w), with a step of log(200) / 30 = 0.177 that must stay
# above the upper one (see _LogGrid.interval). On each node interval a level
# is the degree-7 polynomial through its eight nearest nodes, O(h^8) off in
# the log step h (de Boor, A Practical Guide to Splines, 2001), and the error
# adds up over the levels; _GRID_LOG_STEP keeps the worst error per level
# seen, 3.4e-10 (32 weights in [0.7, 1]), at 0.7 of the README's bound.
_GRID_MID = 2e-4
_GRID_N_LO = 30
_GRID_LOG_STEP = 0.0693
_GRID_HI = _UNDERFLOW_X + _TAIL_WINDOW  # the table's top node is the first at or past this
# nodes past the table's top, so that every table interval's stencil is
# centred: an end stencil's error term is 12 times larger on its last interval
_GRID_PAST_TOP = 3
_KRONROD_RTOL = 1e-6  # largest accepted error estimate of a convolution level
_ENGINE_CACHE_SIZE = 32  # engines kept, least recently used dropped first
# The left half of level k stops at the first knot of its chain where
# delta_k u^2 reaches _LEFT_CUT + 2 m_k (see _left_chain).
_LEFT_CUT = 60.0


# ---------------------------------------------------------------------------
# Convolution engine on the normalized scale
# ---------------------------------------------------------------------------


class _LogGrid:
    """The engine's nodes, and everything that depends on them alone.

    _GRID_N_LO nodes run geometrically from z_lo up to the break
    z_lo _GRID_MID / _GRID_LO, then one per _GRID_LOG_STEP in log z up to
    the node table's top, the first node at or past _GRID_HI, and
    _GRID_PAST_TOP more: 263 nodes on the shared grid. On each segment the
    interval index is affine in log z, so it is computed, not searched.

    Kept here: each interval's stencil and coefficient matrix
    (_local_stencils) and x, the origin of each row's local form (see
    _LogLevel); the node table's nodes, also as a list for a scalar
    query's bisection, with the decay tables of its suffix tails; and, on
    the shared grid only, the Kronrod points of both halves of a level,
    pieces of one type that depend on the nodes alone, made once with the
    grid for every chain that its builds read (``kronrod``, see
    _KronrodPoints and _shared_grid). Engines on the _GRID_LO grid share
    one (_log_grid).
    """

    def __init__(self, z_lo: float):
        mid = z_lo * (_GRID_MID / _GRID_LO)
        steps = math.ceil(math.log(_GRID_HI / mid) / _GRID_LOG_STEP)
        self.z = np.concatenate(
            [
                np.geomspace(z_lo, mid, _GRID_N_LO, endpoint=False),
                mid * np.exp(_GRID_LOG_STEP * np.arange(steps + 1 + _GRID_PAST_TOP)),
            ]
        )
        self.log_z = np.log(self.z)
        self.log_lo = float(self.log_z[0])
        self._lower = (self.log_lo, _GRID_N_LO / math.log(mid / z_lo))
        self._upper = (math.log(mid), 1.0 / _GRID_LOG_STEP, float(_GRID_N_LO))
        # the node table's suffix tails run x_j += e^{-(z_{j+1} - z_j)/2} x_{j+1}
        # down from the top node over z_0 = 0, z_1, ...; no term is dropped
        self.nodes = np.concatenate([[0.0], self.z[:-_GRID_PAST_TOP]])
        self.node_list = self.nodes.tolist()  # a scalar query bisects this list
        self.suffix = _scan_tables(np.exp(-0.5 * np.diff(self.nodes)))
        self.x = np.concatenate([[0.0], self.log_z[:-1]])
        self._stencil, self._weights = _local_stencils(self.log_z)
        # each row i integrates over u in [0, sqrt(z_i / 2)]
        self.u_hi = np.sqrt(0.5 * self.z)
        self.u_max = float(self.u_hi[-1])
        self.kronrod: _KronrodPoints | None = None

    def interval(self, lz: np.ndarray) -> np.ndarray:
        """Index j of the interval [log z_j, log z_{j+1}] that holds lz.

        The lower segment's step, log(200) / 30 = 0.177, is longer than the
        upper 0.0693, so the larger of the two affine maps is the right one
        on either side of the break. Where the node logs round off the map,
        j can be one off the searched index, whose neighbour's polynomial
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

    def coefficients(self, y: np.ndarray) -> np.ndarray:
        """a_1..a_7 of y_j + a_1 t + ... + a_7 t^7, t = log z - log z_j, the
        local polynomial of y on each interval j, as a (7, n - 1) array: one
        product of the interval's matrix with its stencil's y less y_j, so
        no solve, and a_m depends on y at the stencil's nodes alone."""
        return np.einsum("jmk,jk->mj", self._weights, y[self._stencil] - y[:-1, None])


def _local_stencils(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each interval's eight-node stencil, (n - 1, 8), and its (n - 1, 7, 8) matrix.

    Interval j, [x_j, x_{j+1}], takes nodes j-3..j+4, moved inward at the
    ends (it may straddle the break). In t = x - x_j the polynomial through
    them has the coefficient sum_k L_{k,m} y_k of t^m, where the Lagrange
    basis L_k(t) = prod_{l != k} (t - t_l) / (t_k - t_l) is expanded root by
    root. For m >= 1 the L_{k,m} sum to 0 over k, so they apply to y_k - y_j
    alike, which keeps the level's size out of the rounding.
    """
    n = x.size
    stencil = np.clip(np.arange(n - 1) - 3, 0, n - 8)[:, None] + np.arange(8)
    t = x[stencil] - x[:-1, None]
    others = np.array([[l for l in range(8) if l != k] for k in range(8)])
    roots = t[:, others]  # (n - 1, 8, 7): the nodes of each basis polynomial's zeros
    basis = np.zeros(roots.shape[:2] + (8,))
    basis[..., 0] = 1.0
    for i in range(7):  # times (t - r): the coefficient of t^m gains that of t^(m-1)
        r = roots[..., i, None]
        basis[..., 1:] = basis[..., :-1] - r * basis[..., 1:]
        basis[..., 0] *= -r[..., 0]
    basis /= (t[:, :, None] - roots).prod(axis=2)[..., None]
    return stencil, basis[..., 1:].transpose(0, 2, 1).copy()


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


def _locate(grid: _LogGrid, z: np.ndarray, lz: np.ndarray) -> tuple[np.ndarray, ...]:
    """Where a level is read at z, lz = log z, as _LogLevel.at takes it:
    interval j (as int32) at t = lz - log z_j, and the flat indices below
    the grid with their z and lz."""
    j = grid.interval(lz)
    below = np.flatnonzero(lz < grid.log_lo)
    return j.astype(np.int32), lz - grid.log_z[j], below, z.flat[below], lz.flat[below]


class _Piece(NamedTuple):
    """Kronrod points of one half of a level: per (row, panel) pair its
    row, abscissa row ``which`` and width; per abscissa row b, log b and
    the rest log u - (log b)/2 of the factor u (see _convolve); per point
    where the previous level is read (see _locate)."""

    rows: np.ndarray
    which: np.ndarray
    width: np.ndarray
    b: np.ndarray
    log_b: np.ndarray
    rest: np.ndarray
    j: np.ndarray
    t: np.ndarray
    below: np.ndarray
    below_z: np.ndarray
    below_lz: np.ndarray


class _PanelTable:
    """Panels in u of one half of a level, laid out in one table, panel by panel.

    Each panel is a ``kronrod_panel`` (or a part of one): its whole rows
    first, on one abscissa row, then each clipped row on one of its own.
    So ``which`` never falls along the pairs, and the pairs of any run of
    abscissa rows read as one _Piece (``piece``); ``shift`` holds where
    each panel's abscissa rows start. Each panel is located on the grid in
    turn, into arrays made once, so that the build never holds the whole
    table twice.

    The halves differ here alone. On the left, b = u^2 on each abscissa
    row, shared by its rows, the rest is 0, and the previous level is read
    at z_i - u^2. On the right (``right``), each abscissa row has one pair,
    so b = z_i - u^2 is exact per abscissa row, and the level is read at
    u^2, located from 2 log u: as z_i - b it would cancel to 0 for
    u^2 << z_i.
    """

    def __init__(self, grid: _LogGrid, panels: list[tuple[np.ndarray, ...]], right: bool = False):
        starts = np.cumsum([0] + [rows.size for rows, _, _, _ in panels])
        shift = np.cumsum([0] + [width.size for _, _, _, width in panels])
        rows = np.concatenate([rows for rows, _, _, _ in panels])
        which = np.concatenate([which + k for (_, which, _, _), k in zip(panels, shift)])
        u = np.concatenate([u for _, _, u, _ in panels])
        log_u = np.log(u)
        y = u * u
        j = np.empty((rows.size, 21), dtype=np.int32)
        t = np.empty((rows.size, 21))
        below = [(np.empty(0, dtype=np.intp), np.empty(0), np.empty(0))]
        for lo, hi in zip(starts[:-1], starts[1:]):
            if right:
                x, lx = y[which[lo:hi]], 2.0 * log_u[which[lo:hi]]
            else:
                x = grid.z[rows[lo:hi], None] - y[which[lo:hi]]
                lx = np.log(x)
            j[lo:hi], t[lo:hi], flat, x, lx = _locate(grid, x, lx)
            below.append((flat + 21 * lo, x, lx))
        if right:
            row = np.empty_like(which)
            row[which] = rows  # each abscissa row's one pair
            b = grid.z[row, None] - y
            log_b = np.log(b)
            rest = log_u - 0.5 * log_b
        else:
            b, log_b, rest = y, 2.0 * log_u, np.broadcast_to(0.0, y.shape)
        widths = np.concatenate([width for _, _, _, width in panels])
        self.all = _Piece(
            rows, which, widths[which], b, log_b, rest, j, t, *(np.concatenate(part) for part in zip(*below))
        )
        self.shift = shift.tolist()

    @cached_property
    def _at(self) -> list[tuple[int, int]]:
        """Each abscissa row's first pair, and the first of that pair's
        points under the grid; made on the first ``piece``."""
        first = np.searchsorted(self.all.which, np.arange(self.shift[-1] + 1))
        return list(zip(first.tolist(), np.searchsorted(self.all.below, 21 * first).tolist()))

    def piece(self, ua: int, ub: int) -> _Piece:
        """Abscissa rows ua..ub-1 and their pairs, which index their own
        abscissa rows and points."""
        p = self.all
        (a, ba), (b, bb) = self._at[ua], self._at[ub]
        return _Piece(
            p.rows[a:b], p.which[a:b] - ua, p.width[a:b], p.b[ua:ub], p.log_b[ua:ub], p.rest[ua:ub],
            p.j[a:b], p.t[a:b], p.below[ba:bb] - 21 * a, p.below_z[ba:bb], p.below_lz[ba:bb],
        )


class _KronrodPoints:
    """Both halves' Kronrod points on one grid, as _PanelTable pieces.

    The right half is one panel [0, u_hi] per row for every level, one
    table (``right``): where its block factor e^{-delta v} varies much
    across the panel, it is at most e^{-delta z_i / 2}, so the right half
    is at most about that share of the level. The left half is one table
    made once from the chains (M, c) that the grid serves (see _left_chain
    and _shared_grid): first each head [0, s_M], one abscissa row for the
    rows that take it whole; then the largest head's rows that end below
    s_M, row by row, whose first rows serve every head, as each takes
    [0, u_hi] whatever M; then the dyadic panels [u_max 2^-(m+1),
    u_max 2^-m], m descending, so that a chain's panels are one slice and
    those that a longer chain adds past the cut knot come last in each
    row's sum. Each head's pieces are made here; ``left`` only slices.
    The shared grid keeps its points; a grid of its own makes them for
    its one build's chains, so the panels between them stay unbuilt, and
    drops them with it, so an engine in the cache holds none.
    """

    def __init__(self, grid: _LogGrid, chains: list[tuple[int, int]]):
        u_hi, u_max = grid.u_hi, grid.u_max
        self.right = _PanelTable(grid, [kronrod_panel(0.0, u_max, u_hi)], right=True).all
        heads = sorted({m for m, _ in chains})
        dyadic = sorted({i for m, c in chains for i in range(m - c, m)}, reverse=True)
        panels, clipped = [], []
        for m in heads:
            rows, which, u, width = kronrod_panel(0.0, math.ldexp(u_max, -m), u_hi)
            whole = rows.size - width.size + 1
            panels.append((rows[:whole], which[:whole], u[:1], width[:1]))
            clipped.append((rows[whole:], which[whole:] - 1, u[1:], width[1:]))
        panels.append(clipped[0])  # the largest head's rows that end below s_M serve every head
        panels += [kronrod_panel(math.ldexp(u_max, -m - 1), math.ldexp(u_max, -m), u_hi) for m in dyadic]
        self.table = table = _PanelTable(grid, panels)
        n = len(heads)
        self.heads = {}  # per M its head's piece, and the abscissa rows of its rows that end below s_M
        for i, (m, (rows, *_)) in enumerate(zip(heads, clipped)):
            self.heads[m] = table.piece(i, i + 1), (n, n + rows.size)
        shift = table.shift[n + 1 :]
        self.spans = {m: (shift[i], shift[i + 1]) for i, m in enumerate(dyadic)}

    def left(self, chains: list[tuple[int, int]]) -> list[list[_Piece]]:
        """The pieces of each chain (M, c): its head [0, s_M] for the rows
        that take it whole, the rows that end below s_M (if any), and its
        dyadic panels m = M - 1 .. M - c as one slice (if c > 0)."""
        out = []
        for m, c in chains:
            head, (a, b) = self.heads[m]
            pieces = [head]  # the top row, u_hi = u_max, is whole in every head
            if b > a:
                pieces.append(self.table.piece(a, b))
            if c:
                pieces.append(self.table.piece(self.spans[m - 1][0], self.spans[m - c][1]))
            out.append(pieces)
        return out


@lru_cache(maxsize=1)
def _shared_grid() -> _LogGrid:
    """The grid that starts at _GRID_LO, with Kronrod points for the chains
    (M, M), M = 2..M_top: every head and dyadic panel that a build on it
    reads, as its smallest weight, _GRID_LO / 1e-3 (see _DensityEngine),
    asks for the longest head, M_top."""
    grid = _LogGrid(_GRID_LO)
    top, _ = _left_chain(grid, 0.5 * (1.0 / (_GRID_LO / 1e-3) - 1.0), 1)
    grid.kronrod = _KronrodPoints(grid, [(m, m) for m in range(2, top + 1)])
    return grid


def _log_grid(z_lo: float) -> _LogGrid:
    """The grid that starts at z_lo.

    Every smallest weight >= 1e-3 starts the grid at _GRID_LO; that grid
    is built on first use and shared after. A smaller weight gives a start
    of its own, which seldom repeats, so its grid is built for its engine
    alone and never displaces the shared one.
    """
    return _shared_grid() if z_lo == _GRID_LO else _LogGrid(z_lo)


def _log_power(log_c: float, power: float, lz):
    """log(c z^power) at lz = log z, an array or a float. Power 0 leaves
    out 0 log z, so that z = 0 (an underflowed z / lambda_1^2) reads the
    limit there."""
    if power:
        return log_c + power * lz
    return np.full_like(lz, log_c) if isinstance(lz, np.ndarray) else log_c


class _LogLevel:
    """L_k(z) = log hhat_k(z) of one convolution level, as a table of local forms.

    Row r is a_0 + a_1 t + ... + a_7 t^7 - s z, t = log z - x_r, on node
    interval r of (0, z_0, z_1, ...): row 0 the small-z form c_k z^{M_k/2 - 1}
    e^{-s_k z} in logs, rows 1.. the local polynomials of the grid
    (_LogGrid.coefficients); a single block is its leading term on every
    row. The table is held once: a_m of every row is ``coefs[m]``, x_r is
    the grid's ``x[r]``, and s is ``slope`` on row 0 and 0 after it. A read
    takes rows 1.. by Horner's rule, gathering each a_m from one array, and
    row 0 only under the grid, where _locate placed the points: ``at``
    takes a _Piece's (``p[-5:]``) of either half of the next level, which
    its table located once, and a call any z.
    A power law reads a_1 and a_0 alone.
    """

    def __init__(self, grid: _LogGrid, coefs: np.ndarray, slope: float = 0.0, degree: int = 7):
        self.grid = grid
        self.coefs = coefs
        self.slope = slope
        self._horner = coefs[degree::-1, 1:]  # a_degree .. a_0 of rows 1..

    @classmethod
    def on_nodes(cls, grid: _LogGrid, y: np.ndarray, small_z: tuple[float, float, float]) -> "_LogLevel":
        """L_k = y at the nodes, with small-z terms (log c_k, M_k/2 - 1, s_k)."""
        log_c, power, slope = small_z
        coefs = np.zeros((8, y.size))
        coefs[:2, 0] = log_c, power
        coefs[0, 1:] = y[:-1]
        coefs[1:, 1:] = grid.coefficients(y)
        return cls(grid, coefs, slope)

    @classmethod
    def power_law(cls, grid: _LogGrid, log_c: float, power: float) -> "_LogLevel":
        """L = log c + power log z on every row."""
        coefs = np.zeros((8, grid.z.size))
        coefs[0], coefs[1] = log_c + power * grid.x, power
        return cls(grid, coefs, degree=1)

    def _read(self, j: np.ndarray, t: np.ndarray) -> np.ndarray:
        # one coefficient gathered at a time into one buffer keeps two arrays
        # of j's size alive; j is in range, and "clip" gathers unbuffered
        out = self._horner[0].take(j)
        gathered = np.empty_like(out)
        for coef in self._horner[1:]:
            out *= t
            out += coef.take(j, out=gathered, mode="clip")
        return out

    def _small(self, z, lz):
        return _log_power(self.coefs[0, 0], self.coefs[1, 0], lz) - self.slope * z

    def __call__(self, z: np.ndarray, lz: np.ndarray) -> np.ndarray:
        return self.at(*_locate(self.grid, z, lz))

    def at(self, j, t, below, below_z, below_lz) -> np.ndarray:
        out = self._read(j.astype(np.intp), t)
        out.flat[below] = self._small(below_z, below_lz)
        return out


_GL_NODES, _GL_WEIGHTS = gauss_legendre(20)


def _left_chain(grid: _LogGrid, delta: float, mk: int) -> tuple[int, int]:
    """Level k's left half, u in [0, sqrt(z_i / 2)] with y = u^2, as (M, c).

    The chain is the head [0, s_M], s_M = u_max 2^-M, then the dyadic
    panels [s_M 2^(i-1), s_M 2^i] for i = 1..c, each clipped at the row's
    end; its points depend on the grid alone (see _KronrodPoints). s_M is
    the largest such knot at or below min(delta^-1/2, u_max), M >= 2: the
    head resolves e^{-delta u^2} because delta u^2 <= 1 on it, where the
    21-point rule integrates e^{-x^2} to rounding. Each row stops at the
    cut knot s_M 2^c, the first knot at or past sqrt(C / delta) with
    C = _LEFT_CUT + 2 m_k (or u_max). What that drops lies where delta y
    is at least C, and is below 2^-82 of hhat_k(z_i), whatever the other
    blocks:

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
    u_max = grid.u_max
    first = min(1.0 / math.sqrt(delta), u_max)
    m = max(2, math.ceil(math.log2(u_max / first)))
    while math.ldexp(u_max, -m) > first:  # log2 rounded down
        m += 1
    cut = math.sqrt((_LEFT_CUT + 2.0 * mk) / delta)
    if cut >= u_max:
        return m, m
    c = math.ceil(math.log2(cut / math.ldexp(u_max, -m)))
    while math.ldexp(u_max, c - m) < cut:
        c += 1
    return m, c


def _convolve(prev: _LogLevel, pieces: list[_Piece], delta: float, mk: int, log_2g: float):
    """Each node's level k and its Kronrod estimate: the integral of
    2 g_k u b^{m_k/2 - 1} e^{-delta b} hhat_{k-1}(z_i - b) over the pieces,
    with log_2g = log 2 g_k. In logs the factor is log_2g - delta b +
    ((m_k - 1)/2) log b + rest, rest = log u - (log b)/2, taken once per
    abscissa row and gathered to the pairs."""
    size = prev.grid.z.size
    vals, err = np.zeros(size), np.zeros(size)
    for p in pieces:
        s = prev.at(*p[-5:])
        factor = log_2g - delta * p.b
        if mk != 1:
            factor += 0.5 * (mk - 1) * p.log_b
        factor += p.rest
        s += factor.take(p.which, axis=0)
        value, estimate = kronrod_reduce(p.rows, np.exp(s, out=s), p.width, size)
        vals += value
        err += estimate
    return vals, err


class _DensityEngine:
    """Scaled density hhat(z) = h(z) e^{z/2} of sum w_i chi^2(m_i), w_1 = 1.

    hhat grows at most polynomially, so a piecewise polynomial of log hhat
    against log z carries full relative accuracy from z ~ 0 into the far tail.
    Below the grid the small-z expansion, exact to first order, takes over, and
    beyond it the leading term K(G^2) f_{d1}. The grid reaches past the
    float64 underflow edge of every tail, so one engine serves every query.

    Tails and shells come from a node table built once: the integrals
    I_j = int_{z_j}^{z_{j+1}} hhat(z) e^{-(z - z_j)/2} dz and the scaled
    suffix tails Qhat_j = Q(z_j) e^{z_j/2} on the nodes 0 = z_0 < z_1 < ...
    A query adds one partial interval. Both read log hhat on a node
    interval from its own local form (_form) through one integral
    (_integrals); log_hhat locates each point on the grid for densities.
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
        self._leading = log_leading(self._log_k, self.d1)
        if self.block_w.size == 1:
            self._level = _LogLevel.power_law(self.grid, *self._leading)
        else:
            self._level = self._build(self._small_z_terms())
        self.nodes = self.grid.nodes
        # Qhat peaks near the top node, where the leading term's tail closes
        # the table; a table that leaves float64 anywhere is refused
        top, rows = self.nodes[-1], self.nodes.size - 1
        s = self._level.slope * np.eye(rows, 1)  # the table's forms as (rows, 1) columns (see _form)
        form = self.grid.x[:rows, None], self._level.coefs[:, :rows, None], s
        with np.errstate(over="ignore", invalid="ignore"):
            self.pieces = self._integrals(self.nodes[:-1, None], self.nodes[1:, None], form)
            qhat = np.append(self.pieces, np.exp(self._log_closure(top) + 0.5 * top))
            span = 1
            for table in self.grid.suffix:  # Qhat_j = I_j + e^{-(z_{j+1} - z_j)/2} Qhat_{j+1}
                qhat[:-span] += table * qhat[span:]
                span *= 2
        bad = np.flatnonzero(~np.isfinite(qhat))
        if bad.size:
            raise NumericError(
                f"tail table overflows float64: Q(z) e^(z/2) at normalized z = {self.nodes[bad[-1]]:.6g} "
                f"for a top multiplicity of {self.d1}"
            )
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
        half_m = (0.5 * mcum).tolist()
        return [(c - math.lgamma(h), h - 1.0, sk) for c, h, sk in zip(log_c.tolist(), half_m, slopes.tolist())]

    def _build(self, small_z: list[tuple[float, float, float]]) -> _LogLevel:
        """Convolve the blocks in turn; level k is the function L_k = log hhat_k.

        hhat_k(z) = int_0^z g_k y^{m_k/2 - 1} e^{-delta_k y} hhat_{k-1}(z - y) dy
        is split at y = z/2. The left half takes y = u^2 and the right half
        v = z - y = u^2, which turns every power law z^{m/2 - 1} into a
        polynomial factor; in u both are one integrand (_convolve) in
        b = y, which is u^2 on the left and z - u^2 on the right. Their
        points come from the grid's tables (_KronrodPoints) as pieces of one
        type, where L_{k-1} is read without a search: the left half's chain
        (_left_chain) is a head and a slice of dyadic panels, and the right
        half is one panel per row for every level. Each piece reads L_{k-1}
        once, adds its factors in log form, computed once per abscissa row
        and gathered to the pairs, and takes one exp.
        """
        grid = self.grid
        zs = grid.z
        deltas = (0.5 * (1.0 / self.block_w - 1.0)).tolist()
        chains = [_left_chain(grid, d, int(m)) for d, m in zip(deltas[1:], self.block_m[1:])]
        points = grid.kronrod or _KronrodPoints(grid, chains)
        left = points.left(chains)
        prev = _LogLevel.power_law(grid, *small_z[0][:2])
        for k in range(1, self.block_w.size):
            mk = int(self.block_m[k])
            log_2g = math.log(2.0) + float(self._log_scale[k]) - math.lgamma(0.5 * mk)
            # the right half last in each node's sum
            vals, err = _convolve(prev, left[k - 1] + [points.right], deltas[k], mk, log_2g)
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
        # row 0 gives the limit there, over the inf or NaN that the polynomial
        # rows read at t = -inf
        with np.errstate(divide="ignore", invalid="ignore"):
            log_h = self.log_hhat(z, np.log(z))
        return np.exp(log_h - 0.5 * z)

    def _form(self, k: int) -> tuple:
        """Local form (x, a_0..a_7, s) of log hhat on node interval k: the
        level's row k (see _LogLevel)."""
        return self.grid.x[k], self._level.coefs[:, k], self._level.slope if k == 0 else 0.0

    @staticmethod
    def _integrals(a, b, form: tuple):
        """int_a^b hhat(z) e^{-(z - a)/2} dz over [a, b] in one node interval.

        log hhat is read from the interval's local form (see _form); the
        table passes (rows, 1) columns and a form of columns. A fixed
        20-point Gauss-Legendre rule in u = sqrt(z) leaves a smooth integrand
        at z = 0 for every power law z^{m/2 - 1}; over the top intervals'
        decay of e^{-52} it holds the exact two-weight tail (criterion 1) to
        1.1e-12 out to 39 lambda_1, where 18 points miss by 1.6e-10. One form
        takes its powers of t in one accumulate, faster than Horner's rule
        there; the columns take Horner's rule, faster there.
        """
        x, coefs, s = form
        ua = a**0.5
        width = b**0.5 - ua
        u = ua + width * _GL_NODES
        z = u * u
        t = np.log(z) - x
        if coefs.ndim == 1:
            powers = np.empty((7, t.size))
            powers[:] = t
            e = coefs[1:] @ np.multiply.accumulate(powers, out=powers)
        else:
            e = coefs[7] * t
            for c in coefs[6:0:-1]:
                e += c
                e *= t
        e += coefs[0] + 0.5 * a
        e -= (s + 0.5) * z
        return (u * np.exp(e, out=e) * (2.0 * width)) @ _GL_WEIGHTS

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


_ENGINES: OrderedDict[tuple, _DensityEngine] = OrderedDict()  # least recently used first
_ENGINE_LOCK = threading.Lock()


def _engine(w: WeightedChiSquare) -> _DensityEngine:
    """Per-weights LRU engine cache; each engine covers the whole float64 range.

    Builds run under the lock, so concurrent callers build each vector once.
    """
    key = w._normalized
    with _ENGINE_LOCK:
        if key in _ENGINES:
            _ENGINES.move_to_end(key)
        else:
            eng = _DensityEngine(key)
            while len(_ENGINES) >= _ENGINE_CACHE_SIZE:
                _ENGINES.popitem(last=False)
            _ENGINES[key] = eng
        return _ENGINES[key]


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
    the limit, which is singular for d1 = 1, and at x = inf the limit 0.
    """
    if not z > 0:
        raise ValidationError("bound requires z > 0")
    s.top()
    x = z / s.lambda1_sq
    if x == 0.0 and s.d1 == 1:
        raise ValidationError("f_1 is singular at z = 0")
    lz = math.log(x) if x > 0.0 else -math.inf
    log_h = _log_power(*s.log_leading, lz)
    return math.exp(log_h - 0.5 * x) / s.lambda1_sq if x < math.inf else 0.0  # d1 >= 3 reads inf - inf


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
