"""The engine against the exact oracles of ``tests/oracles.py``.

The sweep holds every density, tail and shell to the accuracy the README
states for the engine, rel 5e-10 per convolution level, over z in [1e-6,
1e3] lambda_1^2 and t <= 39 lambda_1 (tails and shells in logs, which
stay finite where the values underflow past 38.6 lambda_1), on the shared
grid and on grids of their own, for laws of up to 32 distinct weights.
Its vectors repeat each weight, so the law has the hypoexponential closed
form; small weights put the turnover of their levels low on the grid,
where a grid sized by hand was least accurate, and close weights near the
top put large cancelling turnovers high on it, where the error per level
is largest. The 16- and 32-weight laws run on every fourth z and t, which
keeps the mpmath sums of their closed form to a few seconds.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from oracles import hypoexp_density, hypoexp_log_shell, hypoexp_log_tail, ruben_density
from test_chidensity import two_weight_density_exact

from gausslil.chidensity import (
    WeightedChiSquare,
    log_weighted_norm_tail,
    log_weighted_shell_probability,
    weighted_density,
)
from gausslil.spectral import eigh

STATED_RTOL_PER_LEVEL = 5e-10  # README, "Numerical notes": densities, tails and shells

SWEEP = [
    [1.0, 0.5],
    [1.0, 0.05],
    [1.0, 0.01],
    [1.0, 0.002],
    [1.0, 0.0011],
    [1.0, 0.7, 0.3],
    [1.0, 0.9, 0.6, 0.2, 0.08],
    [1.0, 0.98, 0.96, 0.94, 0.92, 0.9],
    [1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3],
    [1.0, 0.97, 0.94, 0.91, 0.88, 0.85, 0.82, 0.79],
    [1.0, 0.99, 0.98, 0.97, 0.96, 0.95, 0.94, 0.93],
]
OWN_GRID = [  # smallest weight below 1e-3
    [1.0, 1e-4],
    [1.0, 0.3, 2e-5],
    [1.0, 0.6, 1e-7],
    [1.0, 0.95, 0.9, 0.8, 0.6, 0.3, 1e-4, 5e-5],
]
WIDE = [np.linspace(1.0, 0.1, 16).tolist(), np.linspace(1.0, 0.1, 32).tolist()]
Z_OVER_LAMBDA1_SQ = np.geomspace(1e-6, 1e3, 397)
T_OVER_LAMBDA1 = np.geomspace(0.01, 39.0, 160)
SHELL_RATIO = 1.05


def doubled(v):
    return [x for x in v for _ in range(2)]


def rel_err(got, want):
    assert want > 0.0
    return abs(got / want - 1.0)


def log_rel_err(log_got, log_want):
    """rel_err of the values, from their logs."""
    assert math.isfinite(log_want)
    return abs(math.expm1(log_got - log_want))


def stated_rtol(weights):
    # one convolution level per distinct weight after the first; a single
    # block is exact and held to one level's share
    return STATED_RTOL_PER_LEVEL * max(1, len(set(weights)) - 1)


def _assert_stated_accuracy(v, z_over_lambda1_sq, t_over_lambda1):
    scale = 2.5  # lambda_1^2, so the sweep runs off the normalized scale too
    weights = [scale * x for x in doubled(v)]
    w = WeightedChiSquare.from_weights(weights)
    lam1 = math.sqrt(scale)
    zs = z_over_lambda1_sq * scale
    rtol = stated_rtol(v)
    dens = weighted_density(w, zs)
    worst = max(rel_err(h, hypoexp_density(weights, z)) for h, z in zip(dens, zs))
    assert worst <= rtol, ("density", worst)
    worst_tail = worst_shell = 0.0
    for t in t_over_lambda1 * lam1:
        t_hi = SHELL_RATIO * t
        want = hypoexp_log_tail(weights, t * t)
        worst_tail = max(worst_tail, log_rel_err(log_weighted_norm_tail(w, t), want))
        want = hypoexp_log_shell(weights, t * t, t_hi * t_hi)
        worst_shell = max(worst_shell, log_rel_err(log_weighted_shell_probability(w, t, t_hi), want))
    assert worst_tail <= rtol, ("tail", worst_tail)
    assert worst_shell <= rtol, ("shell", worst_shell)


@pytest.mark.parametrize("v", SWEEP + OWN_GRID, ids=lambda v: "-".join(f"{x:g}" for x in v))
def test_engine_meets_stated_accuracy_against_hypoexponential_law(v):
    _assert_stated_accuracy(v, Z_OVER_LAMBDA1_SQ, T_OVER_LAMBDA1)


@pytest.mark.parametrize("v", WIDE, ids=["d16", "d32"])
def test_wide_laws_meet_stated_accuracy(v):
    # every fourth point, with both ends of each range
    _assert_stated_accuracy(v, Z_OVER_LAMBDA1_SQ[::4], np.append(T_OVER_LAMBDA1[::4], T_OVER_LAMBDA1[-1]))


@pytest.mark.parametrize("v", [[1.0, 0.5], [1.0, 0.01], [1.0, 0.7, 0.3], [1.0, 0.9, 0.6, 0.2, 0.08]])
def test_ruben_series_matches_closed_form(v):
    # two independent oracles on one law, well inside float64 rounding
    weights = doubled(v)
    for z in np.geomspace(1e-6, 40.0 * min(v), 9):
        assert ruben_density(weights, z) == pytest.approx(hypoexp_density(weights, z), rel=1e-14)


def test_ruben_series_matches_bessel_closed_form():
    for z in (0.01, 0.5, 3.0):
        want = two_weight_density_exact(1.0, 0.25, z)
        assert ruben_density([1.0, 0.25], z) == pytest.approx(want, rel=1e-14)


def _d4_weights():
    # the spectrum of the bounds_verify_d4 golden case
    m = [[1.0, 0.2, 0.0, 0.1], [0.2, 0.8, 0.1, 0.0], [0.0, 0.1, 0.5, 0.05], [0.1, 0.0, 0.05, 0.3]]
    return list(eigh(np.array(m)).weights())


@pytest.mark.parametrize(
    "weights",
    [[1.0, 0.25], [1.0, 0.05], [1.0, 0.7, 0.3], [1.0, 0.5, 0.5, 0.002], _d4_weights()],
    ids=["d2", "d2-small", "d3", "d4-tied-small", "bounds-verify-d4"],
)
def test_small_z_density_at_odd_multiplicities_against_ruben_series(weights):
    w = WeightedChiSquare.from_weights(weights)
    w1 = w.lambda1_sq
    beta = min(weights)
    for z in np.geomspace(1e-6 * w1, min(5.0 * w1, 30.0 * beta), 25):
        assert rel_err(weighted_density(w, z), ruben_density(weights, z)) <= stated_rtol(weights)
