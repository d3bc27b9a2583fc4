"""Quadrature: the (10, 21) Gauss-Kronrod rule, batched across rows.

``kronrod_sums`` applies the rule to panels and reports |K21 - G10| as
its error estimate; every integral in the library goes through it.
``kronrod_panel`` lays one panel out over rows that share it up to their
own ends, and ``kronrod_reduce`` sums a list of panels into their rows,
for the density engine's levels. ``kronrod_halving`` runs the rule over
each row's own interval and halves every panel whose estimate is too
large, for the integral-test block sums. ``gauss_legendre`` gives the
n-point rule for callers that need no estimate.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import NumericError


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


def kronrod_reduce(rows: np.ndarray, values: np.ndarray, width: np.ndarray, size: int) -> tuple[np.ndarray, ...]:
    """Each of ``size`` rows' Kronrod integral and summed |K21 - G10| over
    the panels listed by their row, values (panels, 21) and width."""
    value, estimate = kronrod_sums(values, width)
    return np.bincount(rows, value, size), np.bincount(rows, estimate, size)


def kronrod_panel(lo: float, hi: float, ends: np.ndarray) -> tuple[np.ndarray, ...]:
    """Panel [lo, hi] of every row whose interval [0, ends_i] passes lo.

    A row with ends_i >= hi takes the panel whole, and those rows share
    one row of 21 abscissas; a row that ends inside takes [lo, ends_i], on
    abscissas of its own. ``ends`` must not decrease along the rows.
    Returns each pair's row and abscissa row (an index into the rest),
    then the abscissa rows (k, 21) and their widths (k,): the whole
    panel's first, shared by the leading pairs, then one per clipped row.
    """
    start = int(np.searchsorted(ends, hi, side="left"))
    clipped = np.arange(np.searchsorted(ends, lo, side="right"), start)
    width = np.concatenate([[hi - lo], ends[clipped] - lo])
    rows = np.concatenate([np.arange(start, ends.size), clipped])
    which = np.concatenate([np.zeros(ends.size - start, dtype=np.intp), np.arange(1, clipped.size + 1)])
    return rows, which, lo + width[:, None] * _GK_NODES, width


# kronrod_halving accepts a panel once |K21 - G10| <= _HALVING_RTOL |K21|,
# and gives up after _HALVING_DEPTH halvings or at _HALVING_PANELS live
# panels, which bound its time and memory
_HALVING_RTOL = 1e-10
_HALVING_DEPTH = 48
_HALVING_PANELS = 1 << 16


def kronrod_halving(f: Callable, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Each row's integral of f over [lo_i, hi_i], halving unresolved panels.

    Every row starts as one panel. On each pass the live panels of all
    rows go through the (10, 21) rule at once; a panel is accepted when
    |K21 - G10| <= 1e-10 |K21|, and every other one is halved (QUADPACK's
    bisection). ``f(rows, x)`` gets the row of each live panel, ascending,
    and its (panels, 21) abscissas, and returns values of that shape. Raises
    NumericError on a non-finite panel sum, and when the panels reach the
    depth or the live-panel cap.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise NumericError("Gauss-Kronrod needs finite limits at every row")
    total = np.zeros(lo.size)
    rows, width = np.arange(lo.size), hi - lo
    for depth in range(_HALVING_DEPTH + 1):
        if rows.size > _HALVING_PANELS:
            raise NumericError(f"Gauss-Kronrod halving unresolved: {rows.size} live panels at depth {depth}")
        value, estimate = kronrod_sums(f(rows, lo[:, None] + width[:, None] * _GK_NODES), width)
        bad = ~np.isfinite(value)
        if bad.any():
            raise NumericError(f"Gauss-Kronrod panel sum {value[bad][0]} on row {rows[bad][0]}")
        done = estimate <= _HALVING_RTOL * np.abs(value)
        total += np.bincount(rows[done], value[done], total.size)
        if done.all():
            return total
        rows = np.repeat(rows[~done], 2)
        width = np.repeat(0.5 * width[~done], 2)
        lo = np.repeat(lo[~done], 2)
        lo[1::2] += width[1::2]
    raise NumericError(f"Gauss-Kronrod halving unresolved after {_HALVING_DEPTH} halvings on row {rows[0]}")
