"""Adaptive Simpson quadrature, scalar and batched across many intervals.

The batched form integrates one integrand over a different interval per
grid node simultaneously; the interval stack is carried in flat numpy
arrays so each refinement step is a single vectorized integrand call.
Richardson's correction (err/15) is folded into every accepted panel.
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


def adaptive_simpson_batched(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    a: np.ndarray,
    b: np.ndarray,
    n_nodes: int,
    atol: float = 1e-12,
    rtol: float = 1e-12,
    max_depth: int = 48,
) -> np.ndarray:
    """Integrate f(idx, x) over [a_i, b_i] for each node index i.

    ``f`` receives a flat array of abscissas together with the parallel
    array of node indices they belong to, and must evaluate vectorized.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise NumericError("batched Simpson needs finite limits at every node")
    total = np.zeros(n_nodes)
    live = b > a
    if not np.any(live):
        return total

    idx = np.nonzero(live)[0]
    ia, ib = a[idx], b[idx]
    im = 0.5 * (ia + ib)
    fa = f(idx, ia)
    fm = f(idx, im)
    fb = f(idx, ib)
    s = (ib - ia) / 6.0 * (fa + 4.0 * fm + fb)
    tol = np.maximum(atol, rtol * np.abs(s))
    tol0 = np.zeros(n_nodes)
    np.maximum.at(tol0, idx, tol)
    depth = np.zeros(idx.shape, dtype=np.int64)
    forced_err = np.zeros(n_nodes)

    while idx.size:
        lm = 0.5 * (ia + im)
        rm = 0.5 * (im + ib)
        fboth = f(np.concatenate([idx, idx]), np.concatenate([lm, rm]))
        flm, frm = fboth[: idx.size], fboth[idx.size :]
        sl = (im - ia) / 6.0 * (fa + 4.0 * flm + fm)
        sr = (ib - im) / 6.0 * (fm + 4.0 * frm + fb)
        err = sl + sr - s
        done = (np.abs(err) <= 15.0 * tol) | (depth >= max_depth)
        if np.any(done):
            forced = done & (depth >= max_depth)
            if np.any(forced):
                np.add.at(forced_err, idx[forced], np.abs(err)[forced])
            np.add.at(total, idx[done], (sl + sr + err / 15.0)[done])
        keep = ~done
        if not np.any(keep):
            break
        half_tol = 0.5 * tol[keep]
        next_depth = depth[keep] + 1
        idx = np.concatenate([idx[keep], idx[keep]])
        ia, im, ib, fa, fm, fb, s = (
            np.concatenate([ia[keep], im[keep]]),
            np.concatenate([lm[keep], rm[keep]]),
            np.concatenate([im[keep], ib[keep]]),
            np.concatenate([fa[keep], fm[keep]]),
            np.concatenate([flm[keep], frm[keep]]),
            np.concatenate([fm[keep], fb[keep]]),
            np.concatenate([sl[keep], sr[keep]]),
        )
        tol = np.concatenate([half_tol, half_tol])
        depth = np.concatenate([next_depth, next_depth])
    bad = forced_err > 100.0 * np.maximum(tol0, rtol * np.abs(total))
    if np.any(bad):
        i = int(np.nonzero(bad)[0][0])
        raise NumericError(
            f"batched Simpson stalled for node {i}: unresolved error "
            f"{float(forced_err[i]):.3e} after depth {max_depth}"
        )
    return total


def geometric_knots(
    a: np.ndarray, b: np.ndarray, scale: float, growth: float = 4.0
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Panel boundaries from a, spaced geometrically on the given scale.

    Keeps adaptive refinement from missing integrand features much
    narrower than the full interval (e.g. a fast exponential decay whose
    width is known analytically).
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
