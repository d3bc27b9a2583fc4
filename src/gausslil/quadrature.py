"""Quadrature: scalar adaptive Simpson and fixed rules batched across rows.

``adaptive_simpson`` integrates one scalar function, folding Richardson's
correction (err/15) into every accepted panel. ``gauss_kronrod`` applies
the fixed (10, 21) Gauss-Kronrod rule to one integrand over a different
chain of panels per row (per grid node), in one vectorized integrand
call per panel, and reports |K21 - G10| as its error estimate.
``KronrodChain`` applies the same rule over the doubling chain
[0, s], [s, 2s], [2s, 4s], ... that every row shares up to its own end.
``gauss_legendre`` gives the n-point rule for callers that need no
estimate.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import NumericError


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    atol: float = 1e-12,
    rtol: float = 1e-10,
    max_depth: int = 48,
) -> float:
    """Integrate a scalar function over [a, b]."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise NumericError(f"adaptive Simpson needs finite limits, got [{a}, {b}]")
    if b <= a:
        return 0.0

    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    tol = max(atol, rtol * abs(whole))
    total = 0.0
    forced_err = 0.0
    stack = [(a, m, b, fa, fm, fb, whole, tol, 0)]
    while stack:
        a0, m0, b0, fa0, fm0, fb0, s0, tol0, depth = stack.pop()
        lm = 0.5 * (a0 + m0)
        rm = 0.5 * (m0 + b0)
        flm, frm = f(lm), f(rm)
        sl = (m0 - a0) / 6.0 * (fa0 + 4.0 * flm + fm0)
        sr = (b0 - m0) / 6.0 * (fm0 + 4.0 * frm + fb0)
        err = sl + sr - s0
        if abs(err) <= 15.0 * tol0 or depth >= max_depth:
            if depth >= max_depth:
                forced_err += abs(err)
            total += sl + sr + err / 15.0
        else:
            stack.append((a0, lm, m0, fa0, flm, fm0, sl, tol0 / 2.0, depth + 1))
            stack.append((m0, rm, b0, fm0, frm, fb0, sr, tol0 / 2.0, depth + 1))
    if forced_err > 100.0 * max(atol, rtol * abs(total)):
        raise NumericError(
            f"adaptive Simpson stalled on [{a}, {b}]: unresolved error "
            f"{forced_err:.3e} after depth {max_depth}"
        )
    return total


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [0, 1] (Golub-Welsch)."""
    k = np.arange(1.0, n)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vecs = np.linalg.eigh(np.diag(beta, 1) + np.diag(beta, -1))
    return 0.5 * (nodes + 1.0), vecs[0] ** 2


# The (10, 21) Gauss-Kronrod pair on [-1, 1] (QUADPACK qk21): the
# non-negative Kronrod nodes, their Kronrod weights, and the 10-point Gauss
# weights of the Gauss nodes among them (every second node from 0.9739).
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.0,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)


def _kronrod_rule() -> tuple[np.ndarray, np.ndarray]:
    """The 21 nodes on [0, 1], ascending, and a (21, 2) weight matrix.

    Column 0 holds the Kronrod weights, column 1 the Kronrod minus the
    Gauss weights, so one product gives K21 and K21 - G10 together.
    """
    x = np.array(_XGK)
    wk = np.array(_WGK)
    wg = np.zeros(11)
    wg[1:10:2] = _WG
    nodes = np.concatenate([-x[:-1], x[::-1]])
    weights = np.stack([wk, wk - wg], axis=1)
    weights = np.concatenate([weights[:-1], weights[::-1]])
    return 0.5 * (nodes + 1.0), 0.5 * weights


_GK_NODES, _GK_WEIGHTS = _kronrod_rule()


def kronrod_sums(values: np.ndarray, width) -> tuple[np.ndarray, np.ndarray]:
    """K21 and |K21 - G10| of panels of the given widths.

    ``values`` holds the integrand at each panel's 21 abscissas along its
    last axis; ``width`` broadcasts against the other axes.
    """
    sums = np.asarray(width)[..., None] * (values @ _GK_WEIGHTS)
    return sums[..., 0], np.abs(sums[..., 1])


def gauss_kronrod(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    panels: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate f over each row's chain of panels with the (10, 21) rule.

    ``panels`` lists (a, b) pairs of per-row limits, as ``geometric_knots``
    returns them. ``f(rows, x)`` receives the indices of the rows a panel
    still covers and their abscissas, one row of 21 per index, and must
    return values of the same shape. Returns the Kronrod integral of every
    row and its error estimate, the sum over panels of |K21 - G10|.
    """
    n = np.asarray(panels[0][0]).size
    total = np.zeros(n)
    err = np.zeros(n)
    for a, b in panels:
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise NumericError("Gauss-Kronrod needs finite limits at every node")
        rows = np.nonzero(b > a)[0]
        if rows.size == 0:
            continue
        width = b[rows] - a[rows]
        x = a[rows, None] + width[:, None] * _GK_NODES
        value, estimate = kronrod_sums(f(rows, x), width)
        total[rows] += value
        err[rows] += estimate
    return total, err


class KronrodChain:
    """The (10, 21) rule over [0, ends_i] on panels that the rows share.

    Every row's chain is [0, s], [s, 2s], [2s, 4s], ..., clipped at the
    row's end, and ``ends`` must not decrease along the rows. A panel that
    ends at or before a row's end is then whole for that row and for every
    row after it, so its 21 abscissas are one array for all of them; only
    each row's last, clipped panel has abscissas of its own.
    """

    def __init__(self, first: float, ends: np.ndarray):
        ends = np.asarray(ends, dtype=float)
        if not (first > 0 and np.all(np.isfinite(ends))):
            raise NumericError("Gauss-Kronrod needs finite limits at every node")
        knots = [0.0, first]
        while knots[-1] < ends[-1]:
            knots.append(2.0 * knots[-1])
        knots = np.array(knots)
        self.size = ends.size
        # whole panel [knots[j], knots[j + 1]]: the rows from starts[j] on
        starts = np.searchsorted(ends, knots[1:], side="left")
        self.whole = [
            (int(k), float(lo), float(hi))
            for k, lo, hi in zip(starts, knots[:-1], knots[1:])
            if k < self.size
        ]
        last = knots[np.searchsorted(knots, ends, side="right") - 1]
        self.rows = np.flatnonzero(ends > last)
        self.lo = last[self.rows]
        self.width = ends[self.rows] - self.lo

    def integrate(self, f: Callable) -> tuple[np.ndarray, np.ndarray]:
        """Each row's Kronrod integral of f and its summed |K21 - G10|.

        ``f(rows, x)`` gets either a slice of rows and the (21,) abscissas
        of a whole panel, to broadcast against, or an index array of rows
        and their (rows, 21) abscissas, and returns values of shape
        (rows, 21).
        """
        total = np.zeros(self.size)
        err = np.zeros(self.size)
        for start, lo, hi in self.whole:
            value, estimate = kronrod_sums(f(slice(start, None), lo + (hi - lo) * _GK_NODES), hi - lo)
            total[start:] += value
            err[start:] += estimate
        if self.rows.size:
            x = self.lo[:, None] + self.width[:, None] * _GK_NODES
            value, estimate = kronrod_sums(f(self.rows, x), self.width)
            total[self.rows] += value
            err[self.rows] += estimate
        return total, err

    def points(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every (row, panel) pair: rows, abscissas (pairs, 21) and widths.

        For integrands whose abscissa-only factors are kept between calls;
        ``reduce`` turns their values into the sums ``integrate`` gives.
        """
        rows = [np.arange(start, self.size) for start, _, _ in self.whole] + [self.rows]
        lo = [np.full(self.size - start, lo) for start, lo, _ in self.whole] + [self.lo]
        width = [np.full(self.size - start, hi - lo) for start, lo, hi in self.whole] + [self.width]
        lo, width = np.concatenate(lo), np.concatenate(width)
        return np.concatenate(rows), lo[:, None] + width[:, None] * _GK_NODES, width

    def reduce(self, rows: np.ndarray, values: np.ndarray, width: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-row sums of the panels that ``points`` listed, as ``integrate`` gives them."""
        value, estimate = kronrod_sums(values, width)
        return np.bincount(rows, value, self.size), np.bincount(rows, estimate, self.size)


def geometric_knots(
    a: np.ndarray, b: np.ndarray, scale: float, growth: float = 4.0
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Panel boundaries from a, spaced geometrically on the given scale.

    Keeps a fixed rule from missing integrand features much narrower than
    the full interval (e.g. a fast exponential decay whose width is known
    analytically).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    panels = []
    lo = a
    width = scale
    for _ in range(200):
        hi = np.minimum(a + width, b)
        panels.append((lo, hi))
        if np.all(hi >= b):
            break
        lo = hi
        width *= growth
    return panels
