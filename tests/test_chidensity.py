import math
import sys
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from conftest import random_weights, spectrum_from_weights

from gausslil import chidensity
from gausslil.chidensity import (
    WeightedChiSquare,
    constants,
    density_lower_bound,
    density_upper_bound,
    log_weighted_norm_tail,
    log_weighted_shell_probability,
    weighted_density,
    weighted_norm_tail,
    weighted_shell_probability,
    zolotarev_constant,
)
from gausslil.errors import NumericError, ValidationError
from gausslil.quadrature import KronrodChain
from gausslil.special import chisq_density, chisq_norm_tail, log_chisq_norm_tail
from gausslil.spectral import log_zolotarev

mp.mp.dps = 40


def two_weight_density_exact(w1, w2, z):
    """Closed form for two distinct chi^2(1) blocks, via the Bessel I0 kernel."""
    a = (1.0 / w1 + 1.0 / w2) / 4.0
    b = (1.0 / w2 - 1.0 / w1) / 4.0
    return float(mp.exp(-a * z) * mp.besseli(0, b * z) / (2 * mp.sqrt(w1 * w2)))


def two_weight_tail_exact(w1, w2, t):
    return float(
        mp.quad(lambda z: mp.exp(-((1 / w1 + 1 / w2) / 4) * z)
                * mp.besseli(0, ((1 / w2 - 1 / w1) / 4) * z) / (2 * mp.sqrt(w1 * w2)),
                [t * t, t * t + 40, t * t + 200, mp.inf])
    )


# ---- construction ----------------------------------------------------------


def test_weights_validation():
    with pytest.raises(ValidationError, match="zero"):
        WeightedChiSquare.from_weights([0.0, 0.0])
    with pytest.raises(ValidationError, match="empty"):
        WeightedChiSquare.from_weights([])
    w = WeightedChiSquare.from_weights([0.25, 1.0, 0.0])
    assert w.weights == (1.0, 0.25)  # sorted, zero dropped


# ---- density ---------------------------------------------------------------


def test_density_reduces_to_chisq():
    for d in (1, 2, 3, 5):
        w = WeightedChiSquare.from_weights([1.0] * d)
        for z in (0.3, 1.0, 4.0, 9.0):
            assert weighted_density(w, z) == pytest.approx(
                chisq_density(d, z), rel=1e-12
            )


def test_density_scaling_change_of_variables():
    lam2 = 0.37
    w = WeightedChiSquare.from_weights([lam2] * 3)
    for z in (0.2, 1.0, 5.0):
        assert weighted_density(w, z) == pytest.approx(
            chisq_density(3, z / lam2) / lam2, rel=1e-12
        )


def test_density_two_weights_against_bessel_oracle():
    w = WeightedChiSquare.from_weights([1.0, 0.25])
    for z in (0.01, 0.5, 1.0, 3.0, 10.0, 30.0, 80.0, 150.0, 200.0):
        assert weighted_density(w, z) == pytest.approx(
            two_weight_density_exact(1.0, 0.25, z), rel=5e-9
        )


def test_density_two_weights_monte_carlo_cdf_slope():
    # empirical CDF differencing at z = 3 with 10^7 samples
    rng = np.random.default_rng(99)
    n = 10_000_000
    h = 0.05
    lo = hi = 0
    for _ in range(10):
        e = rng.standard_normal((n // 10, 2))
        s = e[:, 0] ** 2 + 0.25 * e[:, 1] ** 2
        lo += int(np.count_nonzero(s <= 3.0 - h))
        hi += int(np.count_nonzero(s <= 3.0 + h))
    slope = (hi - lo) / n / (2 * h)
    dens = weighted_density(WeightedChiSquare.from_weights([1.0, 0.25]), 3.0)
    se = math.sqrt(dens / (2 * h) / n)  # binomial-width scale
    assert abs(slope - dens) <= 5 * se + 1e-4


def test_density_permutation_invariant(rng):
    base = [0.9, 0.4, 0.1, 1.3]
    w1 = WeightedChiSquare.from_weights(base)
    w2 = WeightedChiSquare.from_weights(base[::-1])
    assert w1.weights == w2.weights
    for z in (0.5, 2.0, 7.0):
        assert weighted_density(w1, z) == weighted_density(w2, z)


def test_density_of_empty_array_is_empty():
    w = WeightedChiSquare.from_weights([1.0, 0.5, 0.2])
    out = weighted_density(w, np.array([]))
    assert isinstance(out, np.ndarray) and out.shape == (0,)


def test_density_normalizes(rng):
    # shell[0, T] + tail[T, inf) of the computed density must carry unit mass
    for d in (2, 3, 5, 8):
        w = WeightedChiSquare.from_weights(random_weights(rng, d))
        t_split = math.sqrt(40.0 * w.lambda1_sq)
        total = weighted_shell_probability(w, 0.0, t_split) + weighted_norm_tail(
            w, t_split
        )
        assert total == pytest.approx(1.0, abs=1e-8)
        # coarse cross-check via an independent rule (trapezoid accuracy is
        # limited by the sqrt-kink of the density at the origin)
        w1 = w.lambda1_sq
        zs = np.linspace(1e-9 * w1, 220.0 * w1, 150_001)
        vals = weighted_density(w, zs)
        assert float(np.trapezoid(vals, zs)) == pytest.approx(1.0, abs=1e-4)


@pytest.mark.parametrize(
    "weights",
    [[1.0, 0.999, 0.998, 0.7, 0.5, 0.5, 0.2, 0.01], [2.0, 1.99, 1.2, 0.7, 0.3, 0.1]],
    ids=["d8", "d6"],
)
def test_density_small_z_expansion(weights):
    # normalized scale: hhat(z) = h(z) e^{z/2} = c z^{M/2-1} (1 - z sum delta_i / M + O(z^2))
    # with c = 1 / (2^{M/2} Gamma(M/2) prod sqrt(w_i)) and delta_i = (1/w_i - 1)/2
    w = WeightedChiSquare.from_weights(weights)
    wn = np.array(w.normalized())
    m = wn.size
    c = 1.0 / (2.0 ** (m / 2.0) * math.gamma(m / 2.0) * math.prod(np.sqrt(wn)))
    slope = float(np.sum(0.5 * (1.0 / wn - 1.0))) / m
    for z in (1e-5, 2e-5):
        want = c * z ** (m / 2.0 - 1.0) * (1.0 - slope * z) * math.exp(-0.5 * z)
        got = weighted_density(w, z * w.lambda1_sq) * w.lambda1_sq
        assert got == pytest.approx(want, rel=1e-7, abs=0)


@pytest.mark.parametrize(
    "weights", [[1.0, 1e-8], [1.0, 0.5, 1e-7, 1e-8], [1.0, 1e-300, 1e-300, 1e-300]]
)
def test_density_normalizes_with_tiny_weights(weights):
    # a block far below 1e-6 lambda_1^2 moves the grid start below it, so the
    # mass near z = 0 is not read from a small-z expansion past its range
    # (a block of three weights 1e-300 has a density constant near 1e450,
    # which only its log can carry)
    w = WeightedChiSquare.from_weights(weights)
    t_split = math.sqrt(40.0 * w.lambda1_sq)
    total = weighted_shell_probability(w, 0.0, t_split) + weighted_norm_tail(w, t_split)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_negligible_weights_are_left_out():
    # a weight below 1e-46 lambda_1^2 moves the law at z >= 1e-30 lambda_1^2 by
    # under 1e-16 relative, so (1, 1e-300, 1e-300) is built as chi^2(1) on the
    # shared grid rather than on a grid of its own from the 1e-30 floor
    eng = chidensity._DensityEngine((1.0, 1e-300, 1e-300))
    assert eng.block_w.tolist() == [1.0] and eng.grid is chidensity._log_grid(1e-6)
    assert chidensity._DensityEngine((1.0, 1e-45)).block_w.tolist() == [1.0, 1e-45]
    w = WeightedChiSquare.from_weights([2.0, 2e-300])
    for z in (1e-30, 1e-6, 1.0, 30.0):
        want = chisq_density(1, z / 2.0) / 2.0
        assert weighted_density(w, z) == pytest.approx(want, rel=1e-14)


def test_density_rejects_nonpositive_z():
    w = WeightedChiSquare.from_weights([1.0, 0.5])
    with pytest.raises(ValidationError):
        weighted_density(w, 0.0)
    with pytest.raises(ValidationError):
        weighted_density(w, -1.0)


def test_density_rejects_non_finite_z():
    w = WeightedChiSquare.from_weights([1.0, 0.5])
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="finite"):
            weighted_density(w, [bad, 1.0])


def test_leading_term_is_computed_in_logs():
    # past the grid, or for a single block, the leading term K f_{d1} is
    # exp of its log: c z^{d1/2 - 1} alone overflows to inf at z = 1e300
    # (inf * e^{-z/2} read NaN), and Gamma(d1/2) overflows from d1 = 344
    assert weighted_density(WeightedChiSquare.from_weights([1.0] * 8), 1e300) == 0.0
    assert weighted_density(WeightedChiSquare.from_weights([1.0, 0.5]), 1e300) == 0.0
    big = WeightedChiSquare.from_weights([1.0] * 400)
    want = mp.mpf(400) ** 199 * mp.exp(-200) / (mp.mpf(2) ** 200 * mp.gamma(200))
    assert weighted_density(big, 400.0) == pytest.approx(float(want), rel=1e-12)


@pytest.mark.filterwarnings("error")  # no log of the z = 0 that it reads
def test_density_at_an_underflowed_z_reads_the_limit():
    # z / lambda_1^2 rounds to 0 here; with M = 2 the density's limit at 0
    # is finite: 1 / (4 lambda_1^2) for [2, 2], 1 / (2 sqrt(w_1 w_2)) for [2, 1]
    z = 5e-324
    assert weighted_density(WeightedChiSquare.from_weights([2.0, 2.0]), z) == pytest.approx(0.25, rel=1e-14)
    assert weighted_density(WeightedChiSquare.from_weights([2.0, 1.0]), z) == pytest.approx(
        0.5 / math.sqrt(2.0), rel=1e-12
    )
    # M = 1 is singular at 0 and M >= 3 vanishes there, one block or several
    for weights, want in (([2.0], math.inf), ([2.0, 2.0, 2.0], 0.0), ([2.0, 1.0, 0.5], 0.0)):
        assert weighted_density(WeightedChiSquare.from_weights(weights), z) == want, weights


# ---- tails -----------------------------------------------------------------


def test_tail_trivial_and_chisq_cases():
    w = WeightedChiSquare.from_weights([1.0, 1.0])
    assert weighted_norm_tail(w, 0.0) == 1.0
    for t in (0.5, 2.0, 6.0, 12.0):
        assert weighted_norm_tail(w, t) == pytest.approx(
            math.exp(-t * t / 2.0), rel=1e-10, abs=0
        )
    w5 = WeightedChiSquare.from_weights([2.0] * 5)
    for t in (1.0, 3.0, 8.0):
        assert weighted_norm_tail(w5, t) == pytest.approx(
            chisq_norm_tail(5, t / math.sqrt(2.0)), rel=1e-12, abs=0
        )
    # one block of 300: its leading term c z^{149} overflowed in linear floats
    t = math.sqrt(300.0)
    assert weighted_norm_tail(WeightedChiSquare.from_weights([1.0] * 300), t) == pytest.approx(
        chisq_norm_tail(300, t), rel=1e-12, abs=0
    )


def test_tail_two_weights_against_quadrature_oracle():
    w = WeightedChiSquare.from_weights([1.0, 0.25])
    for t in (0.5, 1.0, 3.0, 6.0, 10.0):
        assert weighted_norm_tail(w, t) == pytest.approx(
            two_weight_tail_exact(1.0, 0.25, t), rel=1e-8, abs=0
        )


def test_tail_monotone_in_t_and_weights(rng):
    w = WeightedChiSquare.from_weights([1.0, 0.6, 0.2])
    ts = np.linspace(0.0, 8.0, 40)
    vals = [weighted_norm_tail(w, float(t)) for t in ts]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    bigger = WeightedChiSquare.from_weights([1.0, 0.7, 0.2])
    for t in (1.0, 3.0, 5.0):
        assert weighted_norm_tail(bigger, t) >= weighted_norm_tail(w, t) * (1 - 1e-9)


def test_tail_scale_equivariance(rng):
    for _ in range(5):
        w = random_weights(rng, 4)
        c2 = float(rng.uniform(0.2, 5.0))
        wa = WeightedChiSquare.from_weights(w)
        wb = WeightedChiSquare.from_weights(c2 * w)
        for t in (1.0, 2.5, 6.0):
            a = weighted_norm_tail(wa, t)
            b = weighted_norm_tail(wb, math.sqrt(c2) * t)
            assert b == pytest.approx(a, rel=1e-10, abs=0)


def test_shell_probability_matches_tail_difference():
    w = WeightedChiSquare.from_weights([1.0, 0.5, 0.25])
    for t, width in [(2.0, 0.5), (5.0, 0.3)]:
        shell = weighted_shell_probability(w, t, t + width)
        diff = weighted_norm_tail(w, t) - weighted_norm_tail(w, t + width)
        assert shell == pytest.approx(diff, rel=1e-7, abs=0)


def test_tail_monte_carlo_agreement(rng):
    # seeded 10^6-sample estimates within 4 binomial standard errors
    for _ in range(6):
        d = int(rng.integers(2, 6))
        w = WeightedChiSquare.from_weights(random_weights(rng, d))
        lam1 = math.sqrt(w.lambda1_sq)
        t = float(rng.uniform(1.0, 2.8)) * lam1
        p = weighted_norm_tail(w, t)
        if p < 1e-4:
            continue
        n = 1_000_000
        e = rng.standard_normal((n, d))
        s = (e * e) @ np.asarray(w.weights)
        p_hat = float(np.count_nonzero(s >= t * t)) / n
        se = math.sqrt(p * (1 - p) / n)
        assert abs(p_hat - p) <= 4 * se


# ---- node table ----------------------------------------------------------------

# d = 2..8, each with an exact tie or a near tie (lambda_i^2/lambda_1^2 >= 0.995)
TABLE_WEIGHTS = [
    [1.0, 0.995],
    [1.0, 1.0, 0.4],
    [2.0, 1.998, 0.9, 0.2],
    [1.0, 1.0, 0.997, 0.3, 0.1],
    [2.0, 1.99, 1.2, 0.7, 0.3, 0.1],
    [1.0, 0.8, 0.6, 0.6, 0.3, 0.2, 0.05],
    [0.5, 0.4995, 0.499, 0.35, 0.25, 0.25, 0.1, 0.05],
]
TABLE_T = (0.3, 2.0, 8.0, 20.0, 35.0, 37.6)  # in units of lambda_1


def direct_mass(w, z_lo, z_hi):
    """QUADPACK's adaptive rule (scipy) on the density over [z_lo, z_hi]."""
    value, _ = quad(lambda z: float(weighted_density(w, z)), z_lo, z_hi, epsabs=0, epsrel=1e-12, limit=200)
    return value


@pytest.mark.parametrize("weights", TABLE_WEIGHTS, ids=lambda v: f"d{len(v)}")
def test_table_tail_and_shell_match_direct_quadrature(weights):
    # the table against quadrature of the same density; the tail beyond
    # z = t^2 + 80 lambda_1^2 is below e^{-40} of the tail and left out
    w = WeightedChiSquare.from_weights(weights)
    w1 = w.lambda1_sq
    lam1 = math.sqrt(w1)
    checked = 0
    for r in TABLE_T:
        t = r * lam1
        ref = direct_mass(w, t * t, t * t + 80.0 * w1)
        if ref >= sys.float_info.min:
            assert weighted_norm_tail(w, t) == pytest.approx(ref, rel=1e-9, abs=0)
            checked += 1
        t_hi = t * (1.0 + 1e-6)
        ref = direct_mass(w, t * t, t_hi * t_hi)
        if ref >= sys.float_info.min:
            assert weighted_shell_probability(w, t, t_hi) == pytest.approx(ref, rel=1e-9, abs=0)
    assert checked >= len(TABLE_T) - 1


def _count_builds(monkeypatch, size):
    builds = []

    class Counting(chidensity._DensityEngine):
        def __init__(self, wnorm):
            builds.append(wnorm)
            super().__init__(wnorm)

    monkeypatch.setattr(chidensity, "_ENGINES", OrderedDict())
    monkeypatch.setattr(chidensity, "_ENGINE_CACHE_SIZE", size)
    monkeypatch.setattr(chidensity, "_DensityEngine", Counting)
    return builds


def test_one_engine_serves_every_threshold(monkeypatch):
    builds = _count_builds(monkeypatch, chidensity._ENGINE_CACHE_SIZE)
    w = WeightedChiSquare.from_weights([2.0, 1.2, 0.5])
    lam1 = math.sqrt(2.0)
    assert 0.0 < weighted_norm_tail(w, lam1) < 1.0
    assert 0.0 < weighted_norm_tail(w, 35.0 * lam1) < 1e-250
    assert 0.0 < weighted_shell_probability(w, 30.0 * lam1, 36.0 * lam1)
    assert weighted_density(w, 4000.0 * 2.0) == 0.0  # past the grid, underflowed
    assert len(builds) == 1


def test_deep_tail_is_the_exp_of_its_log():
    # past the edge where e^{-x/2} is 0.0 a top block of m keeps Q(x) ~
    # x^{m/2 - 1} e^{-x/2} a float: the tail is the exp of its log, with no
    # cut on x
    edge = chidensity._UNDERFLOW_X
    assert math.exp(-0.5 * math.nextafter(edge, math.inf)) == 0.0
    cases = [(4, math.sqrt(math.nextafter(edge, math.inf))), (30, math.sqrt(1500.0)), (100, math.sqrt(1500.0))]
    for m, t in cases:
        w = WeightedChiSquare.from_weights([1.0] * m)
        want = log_chisq_norm_tail(m, t)
        assert log_weighted_norm_tail(w, t) == pytest.approx(want, rel=1e-12, abs=0)
        assert weighted_norm_tail(w, t) == math.exp(log_weighted_norm_tail(w, t)) > 0.0
        if m > 4:  # normal floats, 3.96e-297 and 2.53e-248
            assert weighted_norm_tail(w, t) == pytest.approx(math.exp(want), rel=1e-9, abs=0)
        shell = log_weighted_shell_probability(w, t, 2.0 * t)
        assert shell == pytest.approx(want, rel=1e-12, abs=0)
        assert weighted_shell_probability(w, t, 2.0 * t) == math.exp(shell)


@pytest.mark.filterwarnings("error")
def test_many_equal_weights_give_a_finite_tail_or_numeric_error():
    # one block of m: the table holds hhat e^{-(z - z_j)/2} in one exp, so
    # it stays finite up to the top node's Q e^{z/2}, which leaves float64
    # from m = 962 (953..961 once read inf, after two RuntimeWarnings)
    for m in range(940, 963):
        w = WeightedChiSquare.from_weights([1.0] * m)
        if m == 962:
            with pytest.raises(NumericError, match="overflows float64"):
                log_weighted_norm_tail(w, 31.0)
            continue
        got = log_weighted_norm_tail(w, 31.0)
        assert math.isfinite(got) and got <= 0.0, m
        assert got == pytest.approx(log_chisq_norm_tail(m, 31.0), rel=0, abs=1e-12), m


def test_a_non_finite_tail_table_is_refused(monkeypatch):
    integrals = chidensity._DensityEngine._integrals

    def overflowing(a, b, form):  # the top intervals' pieces leave float64
        return integrals(a, b, form) * np.where(np.ravel(a) > 1e3, np.inf, 1.0)

    monkeypatch.setattr(chidensity._DensityEngine, "_integrals", staticmethod(overflowing))
    with pytest.raises(NumericError, match="tail table overflows float64"):
        chidensity._DensityEngine((1.0, 0.5))


def test_infinite_threshold_gives_a_zero_tail():
    # t^2 / lambda_1^2 overflows to inf for t = 1e200, as for t = inf
    w = WeightedChiSquare.from_weights([1.0, 0.5])
    for t in (math.inf, 1e200):
        assert log_weighted_norm_tail(w, t) == -math.inf
        assert weighted_norm_tail(w, t) == 0.0
        assert log_weighted_shell_probability(w, t, t) == -math.inf
        assert weighted_shell_probability(w, 3.0, t) == weighted_norm_tail(w, 3.0)


# A query integrates its partial interval from that interval's local form;
# one block, a law on the shared grid and one on a grid of its own
LOCAL_FORM_LAWS = {"one-block": (1.0, 1.0, 1.0), "shared-grid": (1.0, 0.7, 0.3, 0.3), "own-grid": (1.0, 0.5, 1e-4)}


@pytest.fixture(scope="module", params=list(LOCAL_FORM_LAWS.values()), ids=list(LOCAL_FORM_LAWS))
def local_form_engine(request):
    return chidensity._DensityEngine(request.param)


def test_local_form_is_log_hhat_inside_each_node_interval(local_form_engine):
    eng = local_form_engine
    lo, hi = eng.nodes[:-1], eng.nodes[1:]
    z = np.where(lo > 0.0, np.sqrt(lo * hi), 0.5 * hi)
    lz = np.log(z)
    local = []
    for k in range(z.size):
        x, a, s = eng._form(k)
        local.append(np.polynomial.polynomial.polyval(lz[k] - x, a) - s * z[k])
    np.testing.assert_allclose(local, eng.log_hhat(z, lz), rtol=0, atol=1e-13)


def test_scalar_interval_integral_is_the_table_piece(local_form_engine):
    eng = local_form_engine
    nodes = eng.grid.node_list
    scalar = [eng._integrals(nodes[k], nodes[k + 1], eng._form(k)) for k in range(len(nodes) - 1)]
    np.testing.assert_allclose(scalar, eng.pieces, rtol=1e-14, atol=0)


def test_log_tail_is_continuous_across_nodes(local_form_engine):
    # nodes[j] and the float below it lie in neighbouring node intervals,
    # read from different local forms: under the grid and its first node,
    # the lower segment, the break, the upper segment, the top node
    eng = local_form_engine
    nodes = eng.grid.node_list
    n_lo = chidensity._GRID_N_LO
    assert nodes[n_lo + 1] == pytest.approx(eng.grid.z[0] * chidensity._GRID_MID / chidensity._GRID_LO)
    for j in (1, n_lo // 2, n_lo + 1, (n_lo + len(nodes)) // 2, len(nodes) - 1):
        x = nodes[j]
        assert eng.log_tail(math.nextafter(x, 0.0)) == pytest.approx(eng.log_tail(x), rel=0, abs=1e-12)


def test_engine_cache_is_bounded_lru(monkeypatch):
    builds = _count_builds(monkeypatch, 3)
    vectors = [WeightedChiSquare.from_weights([1.0, 0.1 * (k + 1)]) for k in range(5)]
    first = weighted_norm_tail(vectors[0], 2.0)
    for w in vectors[1:3]:
        weighted_norm_tail(w, 2.0)
    weighted_norm_tail(vectors[0], 3.0)  # most recent again, so vectors[1] goes first
    for w in vectors[3:]:
        weighted_norm_tail(w, 2.0)
        assert len(chidensity._ENGINES) <= 3
    assert list(chidensity._ENGINES) == [v.normalized() for v in (vectors[0], vectors[3], vectors[4])]
    assert len(builds) == 5
    weighted_norm_tail(vectors[1], 2.0)  # evicted: built again
    assert len(builds) == 6
    for w in vectors[2:4]:
        weighted_norm_tail(w, 2.0)
    assert vectors[0].normalized() not in chidensity._ENGINES
    assert weighted_norm_tail(vectors[0], 2.0) == first
    assert len(builds) == 9


def test_engine_built_once_under_threads(monkeypatch):
    builds = _count_builds(monkeypatch, 64)
    vectors = [WeightedChiSquare.from_weights([1.0, 0.5, 0.2 + 0.1 * k]) for k in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(weighted_norm_tail, vectors[k % 3], 2.0) for k in range(24)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert sorted(builds) == sorted(v.normalized() for v in vectors)
    for k, r in enumerate(results):
        assert r == results[k % 3]


def test_unresolved_level_raises(monkeypatch):
    # one panel per node cannot resolve the block decay e^{-delta u^2}, delta ~ 5000;
    # the Kronrod estimate must stop the build rather than return a wrong density
    monkeypatch.setattr(
        chidensity, "_left_chain", lambda grid, delta, mk: KronrodChain(grid.u_max, grid.u_hi)
    )
    with pytest.raises(NumericError, match="unresolved"):
        chidensity._DensityEngine((1.0, 1e-4))


# one law per grid start: the shared grid, a grid of its own and the floor
GRID_LAWS = {1e-6: (1.0, 0.9, 0.6, 0.3), 1e-9: (1.0, 0.5, 1e-6), 1e-30: (1.0, 0.5, 1e-30)}
GRID_IDS = ["shared", "own", "floor"]


def _stencils(n):
    """Interval j's eight stencil nodes: j-3..j+4, moved inward at the grid's ends."""
    return np.clip(np.arange(n - 1) - 3, 0, n - 8)[:, None] + np.arange(8)


@pytest.mark.parametrize("z_lo", list(GRID_LAWS), ids=GRID_IDS)
def test_interval_coefficients_are_the_polyfit_through_its_stencil(z_lo):
    # a real level's rows 1..: y_j and a_1..a_7 are the coefficients, in
    # t = log z - log z_j, of the degree-7 polynomial through its stencil's
    # node values of log hhat
    level = chidensity._DensityEngine(GRID_LAWS[z_lo])._level
    grid = level.grid
    assert grid.z[0] == pytest.approx(z_lo, rel=1e-15)
    x = grid.log_z
    np.testing.assert_array_equal(grid.x[1:], x[:-1])
    y = level(grid.z, x)  # the top node is read from the last row's end
    h = np.diff(x)
    want = np.array([np.polyfit(x[s] - x[j], y[s], 7)[::-1] for j, s in enumerate(_stencils(x.size))]).T
    np.testing.assert_allclose(level.coefs[0, 1:], y[:-1], rtol=0, atol=1e-13)
    # each coefficient's share of the value across its interval, against
    # |y| up to 15; a stencil one node off moves some share by 1e-9 or more
    for m in range(1, 8):
        np.testing.assert_allclose(level.coefs[m, 1:] * h**m, want[m] * h**m, rtol=0, atol=1e-12, err_msg=m)


@pytest.mark.parametrize("z_lo", list(GRID_LAWS), ids=GRID_IDS)
def test_level_is_exact_on_a_degree_7_polynomial(z_lo):
    grid = chidensity._log_grid(z_lo)
    x = grid.log_z
    h = np.diff(x)
    p = np.polynomial.Polynomial(1.0 / np.array([math.factorial(m) for m in range(8)]))
    du = 10.0 / np.ptp(x)
    u = du * (x - x.mean())  # within [-5, 5], so every power counts
    coefs = grid.coefficients(p(u))
    for m in range(1, 8):  # the Taylor coefficients of p(u(log z)) at each interval's start
        want = p.deriv(m)(u[:-1]) * du**m / math.factorial(m)
        assert np.abs((coefs[m - 1] - want) * h**m).max() < 1e-11, m
    # the level reads p to rounding inside every interval, on both segments
    level = chidensity._LogLevel.on_nodes(grid, p(u), (0.0, 0.0, 0.0))
    lz = (x[:-1, None] + h[:, None] * np.array([0.1, 0.5, 0.9])).ravel()
    np.testing.assert_allclose(level(np.exp(lz), lz), p(du * (lz - x.mean())), rtol=1e-13, atol=1e-14)


@pytest.mark.parametrize("z_lo", list(GRID_LAWS), ids=GRID_IDS)
def test_a_node_moves_only_the_intervals_whose_stencil_holds_it(z_lo):
    # no global solve: y at node q reaches, to the bit, the polynomials of
    # the intervals whose stencils hold it and no others; away from the
    # grid's ends, intervals q-4..q+3
    grid = chidensity._log_grid(z_lo)
    n = grid.z.size
    holds = _stencils(n)
    y = np.log1p(grid.z)
    base = grid.coefficients(y)
    for q in (0, 2, 3, 6, 7, 8, 29, 30, 31, n // 2, n - 9, n - 8, n - 7, n - 2, n - 1):
        bumped = y.copy()
        bumped[q] += 1e-3
        moved = np.flatnonzero((grid.coefficients(bumped) != base).any(axis=0))
        want = np.flatnonzero((holds == q).any(axis=1))
        assert np.array_equal(moved, want), q
        if 8 <= q <= n - 9:  # every stencil that holds q is centred
            assert np.array_equal(want, np.arange(q - 4, q + 4)), q


def test_lower_segment_steps_above_the_upper_segment():
    # _LogGrid.interval takes the larger of the two segments' affine maps,
    # which is the right one only while the lower segment has the longer step
    lower = math.log(chidensity._GRID_MID / chidensity._GRID_LO) / chidensity._GRID_N_LO
    assert lower > chidensity._GRID_LOG_STEP
    n_lo = chidensity._GRID_N_LO
    for z_lo in GRID_LAWS:
        h = np.diff(chidensity._log_grid(z_lo).log_z)
        assert h[:n_lo].min() > h[n_lo:].max()
    grid = chidensity._log_grid(1e-6)
    assert grid.z.size == 263 and grid.nodes[-1] == grid.z[-1 - chidensity._GRID_PAST_TOP]


def test_engines_on_one_grid_start_share_one_grid():
    # every smallest weight >= 1e-3 starts the grid at 1e-6
    a = chidensity._DensityEngine((1.0, 0.5))
    b = chidensity._DensityEngine((1.0, 0.9, 0.3, 2e-3))
    assert a.grid is b.grid is chidensity._log_grid(1e-6)
    assert a.grid.z[0] == 1e-6
    tiny = chidensity._DensityEngine((1.0, 1e-5))
    assert tiny.grid is not a.grid and tiny.grid.z[0] == pytest.approx(1e-8, rel=1e-15)


def test_grid_cache_holds_only_the_shared_grid():
    shared = chidensity._log_grid(1e-6)
    for k in range(4):
        own = chidensity._log_grid(1e-9 * (k + 1))
        assert own is not chidensity._log_grid(1e-9 * (k + 1))
    assert chidensity._log_grid(1e-6) is shared
    assert chidensity._shared_grid.cache_info().currsize == 1


def test_left_cut_bound_holds_for_every_multiplicity():
    # the bound derived at _left_chain, evaluated at 50 digits: the dropped
    # part of a left half is below 2^-82 of the level for any block size
    with mp.workdps(50):
        for m in [*range(1, 65), 100, 400, 2000]:
            a, c = mp.mpf(m) / 2, chidensity._LEFT_CUT + 2 * m
            top = mp.gammainc(a, c, mp.inf) + max(1, 2 ** (1 - a)) * (2 * c) ** a * mp.exp(-c)
            assert mp.sqrt(2) * top / mp.gammainc(a, 0, c) < 2.0**-82, m


@pytest.mark.parametrize(
    "weights",
    [
        [1.0, 1e-4],
        [1.0, 0.5, 1e-7, 1e-8],
        [1.0, 0.3, 0.2999],
        TABLE_WEIGHTS[-1],
        np.linspace(1.0, 0.1, 32),
    ],
    ids=["pair", "tiny", "near-tie", "d8", "d32"],
)
def test_truncated_left_chain_matches_full_chain(weights, monkeypatch):
    wnorm = WeightedChiSquare.from_weights(weights).normalized()
    cut = chidensity._DensityEngine(wnorm)
    monkeypatch.setattr(chidensity, "_LEFT_CUT", math.inf)
    full = chidensity._DensityEngine(wnorm)
    z = np.geomspace(1e-12, 1e3, 200)
    nodes = cut.grid.z, cut.grid.log_z  # the level at every node, the top one read from its last row
    for got, want in (
        (np.exp(cut._level(*nodes)), np.exp(full._level(*nodes))),
        (cut.qhat, full.qhat),
        (cut.density(z), full.density(z)),
    ):
        assert np.all(want > 0)
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


def _searched_level(level, z, lz):
    """log hhat_k from the level's row at a searched node interval of
    (0, z_0, z_1, ...): row 0 under the grid, row j + 1 on [z_j, z_{j+1}]."""
    log_z = level.grid.log_z
    r = np.where(lz < log_z[0], 0, np.clip(np.searchsorted(log_z, lz), 1, log_z.size - 1))
    t = lz - level.grid.x[r]
    a = level.coefs[:, r]
    return sum(a[m] * t**m for m in range(8)) - np.where(r == 0, level.slope, 0.0) * z


@pytest.mark.parametrize(
    "weights",
    [TABLE_WEIGHTS[-1], np.linspace(1.0, 0.1, 16), [1.0, 0.5, 1e-7, 1e-8]],
    ids=["d8", "d16", "tiny"],
)
def test_level_interval_is_computed_on_the_log_grid(weights):
    eng = chidensity._DensityEngine(WeightedChiSquare.from_weights(weights).normalized())
    grid, level = eng.grid, eng._level
    x = grid.log_z
    n = x.size
    mids = 0.5 * (x[:-1] + x[1:])
    below = x[0] - np.array([1e-12, 1e-3, 0.5, 3.0, 20.0])
    lz = np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf), mids, below, x[-1:]])
    z = np.exp(lz)
    searched = np.clip(np.searchsorted(x, lz) - 1, 0, n - 2)
    computed = grid.interval(lz)
    assert np.all(np.abs(computed - searched) <= 1)
    np.testing.assert_array_equal(grid.interval(mids), np.arange(n - 1))
    assert grid.interval(below).tolist() == [0] * below.size
    assert grid.interval(x[-1:]).tolist() == [n - 2]
    np.testing.assert_allclose(level(z, lz), _searched_level(level, z, lz), rtol=0, atol=1e-13)


# ---- Zolotarev constant and asymptotics ------------------------------------


def test_zolotarev_values():
    assert zolotarev_constant(spectrum_from_weights([1.0, 1.0, 1.0])) == 1.0
    s = spectrum_from_weights([1.0, 0.75, 0.75])
    assert s.d1 == 1
    assert zolotarev_constant(s) == pytest.approx(4.0, rel=1e-12)
    s2 = spectrum_from_weights([1.0, 1.0, 0.25])
    assert s2.d1 == 2
    assert zolotarev_constant(s2) == pytest.approx(1.0 / math.sqrt(0.75), rel=1e-12)


def test_zolotarev_asymptotic_ratio(rng):
    # h(z) / (K l1^-2 f_d1(z/l1^2)) -> 1; at z = 50 l1^2 within [0.9, 1.1]
    for _ in range(12):
        d = int(rng.integers(2, 6))
        wts = random_weights(rng, d, ratio_hi=math.sqrt(0.8))  # gap ratio <= 0.8
        s = spectrum_from_weights(wts)
        w = WeightedChiSquare.from_spectrum(s)
        w1 = w.lambda1_sq
        z = 50.0 * w1
        ratio = weighted_density(w, z) / (
            zolotarev_constant(s) * chisq_density(s.d1, z / w1) / w1
        )
        assert 0.9 <= ratio <= 1.1


# ---- density bounds ---------------------------------------------------------


def test_cached_spectrum_constants_match_their_formulas(rng):
    # log K and the lower-bound threshold are held per spectrum; the same
    # arithmetic as the uncached formulas gives the same floats
    for k in range(20):
        d = int(rng.integers(1, 7))
        wts = random_weights(rng, d)
        if k % 4 == 0 and d > 1:
            wts[1] = wts[0]  # a tied top group
        s = spectrum_from_weights(wts)
        w = s.weights()
        log_k = log_zolotarev(w[s.d1 :] / s.lambda1**2)
        assert s.log_zolotarev_constant == log_k
        assert zolotarev_constant(s) == math.exp(log_k)
        thresh = math.inf if s.d1 >= s.dim else 2.0 * s.d1 * float(w.sum()) / (1.0 - w[s.d1] / w[0])
        assert density_lower_bound(s, 1.0)[1] == s.density_lower_threshold == thresh
        # lambda_1, lambda_1^2 and K are held too; every bound is the float
        # of the uncached formula, the leading term K f_{d1} in logs
        lam1 = float(s.eigenvalues[0])
        assert s.lambda1 == lam1 and s.lambda1_sq == lam1**2
        assert s.zolotarev_constant == math.exp(log_k)
        c3 = 1.0 if s.d1 >= 2 or s.dim == 1 else constants(s.dim).C3
        log_c = log_k + (-0.5 * s.d1 * math.log(2.0) - math.lgamma(0.5 * s.d1))
        power = 0.5 * s.d1 - 1.0
        for z in (1e-9, 0.3, 1.0, 7.5, 60.0, 900.0):
            x = z / lam1**2
            log_h = log_c + power * math.log(x) if power else log_c
            term = math.exp(log_h - 0.5 * x) / lam1**2
            assert density_upper_bound(s, z) == (term if c3 == 1.0 else c3 * term)
            assert density_lower_bound(s, z) == (0.25 * term, thresh)


def test_density_bounds_at_an_underflowed_z_read_the_limit():
    # z / lambda_1^2 rounds to 0: the leading term's limit at 0 is K / 2
    # (over lambda_1^2) for d1 = 2 and 0 for d1 >= 3; f_1 is singular there
    z = 5e-324
    s = spectrum_from_weights([4.0, 4.0, 1.0])
    want = 0.5 * zolotarev_constant(s) / 4.0
    assert density_upper_bound(s, z) == pytest.approx(want, rel=1e-14)
    assert density_lower_bound(s, z)[0] == pytest.approx(0.25 * want, rel=1e-14)
    assert density_upper_bound(spectrum_from_weights([4.0, 4.0, 4.0]), z) == 0.0
    with pytest.raises(ValidationError, match="singular"):
        density_upper_bound(spectrum_from_weights([4.0, 1.0]), z)


def test_density_upper_bound_equality_case():
    # equal eigenvalues with d1 = d >= 2: bound equals the exact density
    s = spectrum_from_weights([1.0, 1.0, 1.0])
    w = WeightedChiSquare.from_spectrum(s)
    for z in (0.5, 2.0, 10.0):
        assert density_upper_bound(s, z) == pytest.approx(
            weighted_density(w, z), rel=1e-12
        )


def test_density_upper_bound_two_weights_formula():
    s = spectrum_from_weights([1.0, 0.5])
    c3 = constants(2).C3
    k = zolotarev_constant(s)
    z = 4.0
    assert density_upper_bound(s, z) == pytest.approx(
        c3 * k * chisq_density(1, z), rel=1e-12
    )
    assert k == pytest.approx((1 - 0.5) ** -0.5, rel=1e-13)


def test_density_upper_bound_reads_c3_alone(monkeypatch):
    # the constant table calibrates C1 and C2 from 2,000 tail ratios on first
    # use; the density bound needs only C3 and must not pay for them
    s = spectrum_from_weights([1.0, 0.5, 0.25])
    want = constants(3).C3 * zolotarev_constant(s) * chisq_density(1, 4.0)
    monkeypatch.setattr(chidensity, "constants", None)
    assert density_upper_bound(s, 4.0) == pytest.approx(want, rel=1e-12)


def test_density_lower_bound_threshold():
    s = spectrum_from_weights([1.0, 0.5])
    _, thresh = density_lower_bound(s, 1.0)
    assert thresh == pytest.approx(2.0 * 1 * 1.5 / 0.5, rel=1e-12)  # = 6
    s_eq = spectrum_from_weights([1.0, 1.0])
    val, thresh = density_lower_bound(s_eq, 5.0)
    assert math.isinf(thresh)
    assert val > 0


def test_density_bounds_sandwich_random(rng):
    for _ in range(15):
        d = int(rng.integers(2, 6))
        s = spectrum_from_weights(random_weights(rng, d))
        w = WeightedChiSquare.from_spectrum(s)
        w1 = s.lambda1**2
        zs = np.geomspace(0.05 * w1, 150.0 * w1, 60)
        h = weighted_density(w, zs)
        for z, hz in zip(zs, h):
            ub = density_upper_bound(s, float(z))
            assert hz <= ub * (1 + 1e-7)
            lb, thresh = density_lower_bound(s, float(z))
            if z >= thresh:
                assert hz >= lb * (1 - 1e-7)


# ---- constant table ---------------------------------------------------------


def test_constant_table_values():
    c2 = constants(2)
    c4_1 = math.sqrt(2) + math.sqrt(math.pi / math.e)
    assert c2.C4_by_multiplicity[0] == pytest.approx(c4_1, rel=1e-13)
    assert c2.C3 == pytest.approx(c4_1, rel=1e-13)

    c3 = constants(3)
    c4_2 = math.sqrt(2) + math.sqrt(math.pi) * (2 / math.e) / math.gamma(1.5)
    assert c3.C4_by_multiplicity[1] == pytest.approx(c4_2, rel=1e-13)
    # exhaustive over compositions {(2), (1,1)} of d - 1 = 2
    assert c3.C3 == pytest.approx(max(c4_2, c4_1**2), rel=1e-13)

    for d in (2, 3, 4, 5):
        c = constants(d)
        assert c.C5 >= 3 * d
        assert c.C5 == pytest.approx(
            max(4 * math.sqrt(math.log(8 * c.C3)), 3 * d), rel=1e-13
        )
        assert c.beta == pytest.approx(math.log(8 * c.C3) + d / 4, rel=1e-13)
        assert c.C3 > 1
        assert c.log_C1 <= c.log_C2


def _partitions(n: int, largest: int):
    """Every partition of n into parts <= largest, parts in descending order."""
    if n == 0:
        yield []
        return
    for k in range(min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            yield [k, *rest]


def test_c3_recurrence_matches_partition_maximum():
    # the brute-force maximum over every partition of d - 1 is exponential
    # in d; the recurrence takes O(d^2) products and returns the same float
    for d in range(2, 31):
        want = max(math.prod(chidensity._c4(m) for m in p) for p in _partitions(d - 1, d - 1))
        assert chidensity._c3(d) == want, d
    chidensity._c3.cache_clear()
    start = time.perf_counter()
    c3 = chidensity._c3(60)
    assert time.perf_counter() - start < 1.0
    assert math.isfinite(c3) and c3 > 1


def test_constants_at_high_dimension():
    # C4(m) in logs: (m/e)^{m/2} alone leaves float64 from m = 302, which
    # every table from d = 303 needs
    for m in (302, 400):
        half = mp.mpf(m) / 2
        want = mp.sqrt(2) + mp.sqrt(mp.pi) * (m / mp.e) ** half / mp.gamma(half + mp.mpf(1) / 2)
        assert chidensity._c4(m) == pytest.approx(float(want), rel=1e-12)
    c = constants(303)
    assert math.isfinite(c.C3) and c.C3 > 1 and math.isfinite(c.log_C1)
    # C1 and C2 are kept in logs: C1 itself underflows from d ~ 310
    for d in (320, 777):
        c = constants(d)
        assert math.exp(c.log_C1) == 0.0 and math.isfinite(c.log_C1) and c.log_C1 <= c.log_C2
    # C3 is linear: 8 C3, which C5 and beta take the log of, overflows from
    # d = 778 and C3 itself from 780; the record names d
    assert math.isfinite(chidensity._c3(779))
    for d in (778, 780):
        with pytest.raises(ValidationError, match=f"d = {d}"):
            constants(d)


def test_constants_rejects_d1():
    with pytest.raises(ValidationError):
        constants(1)


def test_tail_ratio_sandwich_on_grid():
    # C1 t^{d-2} e^{-t^2/2} <= P{|Z| >= t} <= C2 ... on [2d, 40], log scale
    from gausslil.special import log_chisq_norm_tail

    for d in (2, 3, 4, 5):
        c = constants(d)
        for t in np.geomspace(2 * d, 40.0, 200):
            logp = log_chisq_norm_tail(d, float(t))
            shape = (d - 2) * math.log(t) - t * t / 2
            assert c.log_C1 + shape <= logp <= c.log_C2 + shape


def test_tail_ratio_monotone_beyond_grid():
    # the calibration grid stops at t=200; the ratio approaches 2*C0
    # monotonically, so the calibrated envelope stays valid beyond
    from gausslil.chidensity import _tail_ratio_log

    for d in (2, 3, 5):
        ts = np.geomspace(200.0, 400.0, 50)
        r = [_tail_ratio_log(d, float(t)) for t in ts]
        diffs = np.diff(r)
        assert np.all(diffs <= 1e-12) or np.all(diffs >= -1e-12)
        c = constants(d)
        assert c.log_C1 <= r[-1] <= c.log_C2
