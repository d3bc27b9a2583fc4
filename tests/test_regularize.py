import dataclasses
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import random_weights, spectrum_from_weights
from test_oracles import SWEEP

from gausslil.chidensity import (
    WeightedChiSquare,
    constants,
    weighted_density,
    weighted_norm_tail,
    weighted_shell_probability,
)
from gausslil.errors import ValidationError
from gausslil.spectral import log_zolotarev
from gausslil.regularize import (
    d_tilde,
    density_comparison_check,
    derived_constants,
    log_product_factor,
    log_shell_lower_bound,
    log_tail_lower_bound,
    log_tail_upper_bound,
    lower_shift_sides,
    merged_shell_sides,
    merged_vs_orig_shell_sides,
    orig_shift_sides,
    regularized,
    shell_lower_bound,
    shell_width,
    shifted_tail_vs_shell_log,
    tail_lower_bound,
    tail_upper_bound,
    upper_shift_sides,
)


def test_d_tilde_hand_cases():
    # gaps against the threshold 4 d^2 l1^4 / t^2 = 4*4/36 = 0.444...
    assert d_tilde(spectrum_from_weights([1.0, 0.36]), 6.0) == 1  # gap 0.64
    assert d_tilde(spectrum_from_weights([1.0, 0.9801]), 6.0) == 2  # gap 0.0199
    s_eq = spectrum_from_weights([1.0, 1.0, 1.0])
    assert d_tilde(s_eq, 9.0) == 3


def test_d_tilde_standing_assumption():
    s = spectrum_from_weights([1.0, 0.5])
    with pytest.raises(ValidationError, match="3 d lambda_1"):
        d_tilde(s, 5.0)  # below 3*2*1 = 6
    assert d_tilde(s, 6.0) == 1  # boundary accepted


def test_d_tilde_monotone_and_limits():
    s = spectrum_from_weights([1.0, 0.995, 0.6])
    prev = s.dim
    for t in np.linspace(9.0, 300.0, 40):
        dt = d_tilde(s, float(t))
        assert dt <= prev
        prev = dt
    # beyond t = 2 d l1^2 / (l1^2 - l_{d1+1}^2)^{1/2}, d_tilde equals d1
    lam1sq = 1.0
    thresh = 2 * s.dim * lam1sq / math.sqrt(lam1sq - 0.995)
    assert d_tilde(s, thresh * 1.0001) == s.d1
    assert d_tilde(s, 3000.0) == s.d1


def test_regularized_merge_and_K():
    s = spectrum_from_weights([1.0, 1.0, 1.0])
    reg = regularized(s, 9.0)
    assert reg.d_tilde == 3
    assert reg.K_t == 1.0
    assert reg.eigenvalues == (1.0, 1.0, 1.0)

    s2 = spectrum_from_weights([1.0, 0.9801, 0.36])
    reg2 = regularized(s2, 30.0)
    # threshold 4*9*1/900 = 0.04: merges the 0.9801 weight (gap 0.0199)
    assert reg2.d_tilde == 2
    assert reg2.eigenvalues[0] == reg2.eigenvalues[1] == 1.0
    assert reg2.eigenvalues[2] == pytest.approx(0.6)
    assert reg2.K_t == pytest.approx((1 - 0.36) ** -0.5, rel=1e-12)


def test_regularized_top_weight_stays_above_half():
    rng = np.random.default_rng(5)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        s = spectrum_from_weights(random_weights(rng, d))
        t = 3 * d * s.lambda1 * float(rng.uniform(1.0, 3.0))
        reg = regularized(s, t)
        assert reg.eigenvalues[reg.d_tilde - 1] ** 2 >= s.lambda1**2 / 2 - 1e-12


def test_merged_law_dominates_stochastically(rng):
    for _ in range(8):
        d = int(rng.integers(2, 6))
        s = spectrum_from_weights(random_weights(rng, d))
        t = 3 * d * s.lambda1
        w = WeightedChiSquare.from_spectrum(s)
        wt = regularized(s, t).weights()
        for tp in np.linspace(0.5, 3.0, 6) * s.lambda1:
            assert weighted_norm_tail(wt, float(tp)) >= weighted_norm_tail(
                w, float(tp)
            ) * (1 - 1e-9)


def test_product_bound_value_two_weights():
    # lambda^2 = (1, 0.25), t = 6: product = min(1/sqrt(0.75), 6) * (1/6) e^{-18}
    s = spectrum_from_weights([1.0, 0.25])
    expect = math.log(min((1 - 0.25) ** -0.5, 6.0)) + math.log(1.0 / 6.0) - 18.0
    assert log_product_factor(s, 6.0) == pytest.approx(expect, rel=1e-12)
    dc = derived_constants(2)
    assert math.log(tail_upper_bound(s, 7.0)) == pytest.approx(
        dc.log_C2t + log_product_factor(s, 7.0), rel=1e-12
    )


def test_equal_eigenvalue_product_shape():
    # equal eigenvalues: product = (t/l1)^{d-1}, matching the chi-square shape
    s = spectrum_from_weights([1.0] * 3)
    t = 10.0
    expect = (3 - 1) * math.log(t) - math.log(t) - t * t / 2  # (t/l1)^{d-1} (l1/t) e^{..}
    assert log_product_factor(s, t) == pytest.approx(expect, rel=1e-12)


def test_bound_validity_gate():
    s = spectrum_from_weights([1.0, 0.5])
    c1t = derived_constants(2).C1t
    with pytest.raises(ValidationError, match="C1t"):
        tail_upper_bound(s, 0.9 * c1t)
    assert tail_upper_bound(s, c1t) > 0  # boundary accepted


@pytest.mark.parametrize(
    "evaluator, t",
    [
        (regularized, math.nan),
        (tail_upper_bound, math.nan),
        (shell_width, 0.0),
        (shell_width, -1.0),
        (log_product_factor, 0.0),
    ],
    ids=["regularized-nan", "tail_upper_bound-nan", "shell_width-0", "shell_width-neg", "log_product_factor-0"],
)
def test_threshold_gates_reject_nan_and_nonpositive_t(evaluator, t):
    s = spectrum_from_weights([1.0, 0.5])
    with pytest.raises(ValidationError):
        evaluator(s, t)


def test_sandwich_random_spectra(rng):
    # lower <= quadrature tail <= upper (log scale; lower is astronomically
    # small for d >= 3 but must still sit below)
    for _ in range(10):
        d = int(rng.integers(2, 6))
        s = spectrum_from_weights(random_weights(rng, d))
        dc = derived_constants(d)
        lo_t = dc.C1t * s.lambda1
        hi_t = 12.0 * s.lambda1
        if lo_t > hi_t:
            continue  # empty validity window for this dimension
        for t in np.linspace(lo_t, hi_t, 5):
            t = float(t)
            logp = math.log(weighted_norm_tail(WeightedChiSquare.from_spectrum(s), t))
            assert log_tail_lower_bound(s, t) - 1e-7 <= logp
            assert logp <= log_tail_upper_bound(s, t) + 1e-7


def test_shell_bound_below_exact(rng):
    for _ in range(8):
        d = int(rng.integers(2, 4))
        s = spectrum_from_weights(random_weights(rng, d))
        dc = derived_constants(d)
        if dc.C1t > 12.0:
            continue
        w = WeightedChiSquare.from_spectrum(s)
        for t in np.linspace(dc.C1t * s.lambda1, 12.0 * s.lambda1, 4):
            t = float(t)
            exact = weighted_shell_probability(w, t, t + shell_width(s, t))
            assert shell_lower_bound(s, t) <= exact * (1 + 1e-7)


def test_shell_exact_d2_equal_eigenvalues():
    # d = 2 equal eigenvalues: shell probability in closed form
    s = spectrum_from_weights([1.0, 1.0])
    w = WeightedChiSquare.from_spectrum(s)
    t = 7.0
    width = shell_width(s, t)
    exact = math.exp(-t * t / 2) - math.exp(-((t + width) ** 2) / 2)
    assert weighted_shell_probability(w, t, t + width) == pytest.approx(
        exact, rel=1e-9, abs=0
    )
    assert shell_lower_bound(s, t) <= exact


def test_shifted_tail_vs_shell(rng):
    s = spectrum_from_weights([1.0, 1.0])
    t = 7.0
    lhs, rhs = shifted_tail_vs_shell_log(s, t, 1.0)
    # d = 2 closed forms on both sides
    assert math.exp(lhs) == pytest.approx(math.exp(-((t - 1.0 / t) ** 2) / 2), rel=1e-9, abs=0)
    assert lhs <= rhs
    # gamma = 0 reduces to the plain tail-vs-shell comparison
    lhs0, rhs0 = shifted_tail_vs_shell_log(s, t, 0.0)
    assert math.exp(lhs0) == pytest.approx(math.exp(-t * t / 2), rel=1e-9, abs=0)
    assert lhs0 <= rhs0
    with pytest.raises(ValidationError, match="gamma"):
        shifted_tail_vs_shell_log(s, t, t * t / 4 + 1.0)


def test_shifted_tail_vs_shell_property(rng):
    for _ in range(6):
        d = int(rng.integers(2, 5))
        s = spectrum_from_weights(random_weights(rng, d))
        dc = derived_constants(d)
        t = dc.C1t * s.lambda1 * 1.1
        for gamma in (0.0, 0.5, 2.0):
            log_lhs, log_rhs = shifted_tail_vs_shell_log(s, t, gamma)
            assert log_lhs <= log_rhs + 1e-7


def test_scale_equivariance_of_bounds(rng):
    # bounds with (c*lambda, c*t) equal bounds with (lambda, t)
    w = random_weights(rng, 3)
    s = spectrum_from_weights(w)
    c = 1.7
    sc = spectrum_from_weights(c * c * w)
    t = derived_constants(3).C1t * s.lambda1 * 1.2
    assert log_product_factor(sc, c * t) == pytest.approx(
        log_product_factor(s, t), rel=1e-10
    )
    assert tail_upper_bound(sc, c * t) == pytest.approx(
        tail_upper_bound(s, t), rel=1e-9
    )


# ---- merged-law lemma inequalities ------------------------------------------


def grid_spectra(rng, n, dims=(2, 3, 4)):
    for _ in range(n):
        d = int(rng.integers(dims[0], dims[-1] + 1))
        yield spectrum_from_weights(random_weights(rng, d))


def test_upper_and_lower_shift_inequalities(rng):
    for s in grid_spectra(rng, 6):
        d = s.dim
        t = 3 * d * s.lambda1 * 1.3
        for delta in (t / 16, t / 8, t / 4):
            ll, lr = upper_shift_sides(s, t, float(delta))
            assert ll <= lr + 1e-7
            ll2, lr2 = lower_shift_sides(s, t, float(delta))
            assert ll2 <= lr2 + 1e-7
        with pytest.raises(ValidationError):
            upper_shift_sides(s, t, t / 3.9)


def test_merged_shell_inequality(rng):
    for s in grid_spectra(rng, 6):
        c5 = constants(s.dim).C5
        for mult in (1.0, 1.5, 2.0):
            t = c5 * s.lambda1 * mult
            ll, lr = merged_shell_sides(s, t)
            assert ll <= lr + 1e-7


def test_orig_shift_inequality(rng):
    for s in grid_spectra(rng, 5):
        c5 = constants(s.dim).C5
        t = c5 * s.lambda1 * 1.2
        for gamma in (0.0, 1.0, 4.0):
            ll, lr = orig_shift_sides(s, t, gamma)
            assert ll <= lr + 1e-7


def test_merged_vs_orig_shell_inequality(rng):
    for s in grid_spectra(rng, 5):
        c5 = constants(s.dim).C5
        t = c5 * s.lambda1 * 1.1
        ll, lr = merged_vs_orig_shell_sides(s, t)
        assert ll <= lr + 1e-7


# ---- density comparison ------------------------------------------------------


def test_density_comparison_equal_eigenvalues():
    s = spectrum_from_weights([1.0, 1.0])
    rep = density_comparison_check(s, 6.0, np.linspace(0.5, 20.0, 10))
    assert rep.violations == []
    assert rep.d_tilde == 2


def test_density_comparison_random(rng):
    s = spectrum_from_weights([1.0, 0.9])
    t = 3 * 2 * 1.0
    zgrid = np.geomspace(0.1, 30.0, 25)
    rep = density_comparison_check(s, t, zgrid)
    assert rep.violations == []


def test_density_comparison_negative_control():
    # an inflated "merged" law must flag violations of the lower comparison
    s = spectrum_from_weights([1.0, 0.9])
    t = 60.0  # factor e^{-8 d^3 z/t^2} ~ 1, so the corruption shows through
    w = WeightedChiSquare.from_spectrum(s)
    corrupted = WeightedChiSquare.from_weights([4.0, 3.6])
    bad = 0
    for z in np.geomspace(5.0, 40.0, 10):
        h = weighted_density(w, float(z))
        ht = weighted_density(corrupted, float(z))
        factor = math.exp(-8 * 8 * z / (t * t))
        if h < ht * factor * (1 - 1e-7):
            bad += 1
    assert bad > 0


def test_tightness_diagnostic_d2(rng):
    # at d = 2 the constants are moderate: the ratio tail / product-factor
    # stays inside a fixed window across the validity range
    for _ in range(6):
        s = spectrum_from_weights(random_weights(rng, 2))
        dc = derived_constants(2)
        w = WeightedChiSquare.from_spectrum(s)
        for t in np.linspace(dc.C1t * s.lambda1, 12 * s.lambda1, 6):
            ratio = math.exp(
                math.log(weighted_norm_tail(w, float(t)))
                - log_product_factor(s, float(t))
            )
            assert 0.05 <= ratio <= 20.0

# ---- held laws ---------------------------------------------------------------


def _loop_d_tilde(s, t):
    """d_tilde as a loop over the squared gaps, each compared with the threshold."""
    w = s.weights()
    thresh = 4.0 * s.dim**2 * s.lambda1**4 / (t * t)
    out = 1
    for i in range(s.dim):
        if w[0] - w[i] <= thresh:
            out = i + 1
    return out


def _fresh_merged_law(s, t):
    """The merged law built from scratch: (d_tilde, eigenvalues, K_t, law)."""
    dt = _loop_d_tilde(s, t)
    lam1 = s.lambda1
    eig = tuple([lam1] * dt) + tuple(float(x) for x in s.eigenvalues[dt:])
    k_t = math.exp(log_zolotarev((np.asarray(eig[dt:]) / lam1) ** 2))
    return dt, eig, k_t, WeightedChiSquare.from_weights(x * x for x in eig)


HELD_EVALUATORS = [  # (evaluator, its arguments past (s, t) at threshold t)
    (log_product_factor, lambda t: ()),
    (log_tail_upper_bound, lambda t: ()),
    (log_tail_lower_bound, lambda t: ()),
    (log_shell_lower_bound, lambda t: ()),
    (tail_upper_bound, lambda t: ()),
    (tail_lower_bound, lambda t: ()),
    (shell_lower_bound, lambda t: ()),
    (shell_width, lambda t: ()),
    (shifted_tail_vs_shell_log, lambda t: (1.0,)),
    (upper_shift_sides, lambda t: (t / 16,)),
    (lower_shift_sides, lambda t: (t / 4,)),
    (merged_shell_sides, lambda t: ()),
    (merged_vs_orig_shell_sides, lambda t: ()),
    (orig_shift_sides, lambda t: (1.0,)),
]


@pytest.mark.parametrize("v", SWEEP, ids=lambda v: "-".join(f"{x:g}" for x in v))
def test_held_laws_give_the_fresh_values(v):
    # every evaluator on a spectrum that holds its laws, against the same
    # evaluator on a fresh copy that builds them anew, compared with ==;
    # the held laws are the ones built from scratch
    s = spectrum_from_weights([2.5 * x for x in v])
    lam1 = s.lambda1
    assert s.law == WeightedChiSquare.from_weights(s.weights())
    assert WeightedChiSquare.from_spectrum(s) is WeightedChiSquare.from_spectrum(s) is s.law
    laws = {}
    for t in np.linspace(derived_constants(s.dim).C1t, 50.0, 9) * lam1:
        t = float(t)
        for fn, args_at in HELD_EVALUATORS:
            args = args_at(t)
            held = (fn(s, t, *args), fn(s, t, *args))
            assert held[0] == held[1] == fn(dataclasses.replace(s), t, *args), fn.__name__
        reg = regularized(s, t)
        dt, eig, k_t, law = _fresh_merged_law(s, t)
        assert (reg.d_tilde, reg.eigenvalues, reg.K_t) == (dt, eig, k_t)
        assert reg.weights() == law and reg.weights().normalized() == law.normalized()
        assert laws.setdefault(reg.d_tilde, reg.weights()) is reg.weights()
        zs = np.geomspace(0.1, 40.0, 4) * lam1**2
        assert density_comparison_check(s, t, zs) == density_comparison_check(dataclasses.replace(s), t, zs)
    assert len({id(law) for law in laws.values()}) == len(laws)


def test_merged_laws_one_per_d_tilde():
    # threads that merge one fresh spectrum at once still get one law per d_tilde
    ts = np.geomspace(12.0, 3000.0, 30).tolist() * 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            for _ in range(100):
                s = spectrum_from_weights([1.0, 0.995, 0.9, 0.6])
                futures = [pool.submit(regularized, s, t) for t in ts]
                laws = {}
                for f in futures:
                    reg = f.result(timeout=60)
                    assert laws.setdefault(reg.d_tilde, reg.weights()) is reg.weights()
    finally:
        sys.setswitchinterval(interval)
    assert sorted(laws) == [1, 2, 3, 4]
    assert len({law.weights for law in laws.values()}) == 4


def _threshold_at_gap(s, i):
    """A threshold t, within a few ulps of the formula's, whose merge
    threshold 4 d^2 l1^4 / t^2 equals gap i exactly."""
    gap = float(s.weights()[0] - s.weights()[i])
    t0 = math.sqrt(4.0 * s.dim**2 * s.lambda1**4 / gap)
    for direction in (math.inf, 0.0):
        t = t0
        for _ in range(4):
            if 4.0 * s.dim**2 * s.lambda1**4 / (t * t) == gap:
                return t
            t = math.nextafter(t, direction)
    pytest.fail("no threshold lands on the gap")


@pytest.mark.parametrize(
    "weights",
    [[1.0, 1.0, 1.0], [1.0, 1.0, 0.5, 0.5], [1.0, 1.0 - 1e-15, 0.99, 0.3], [2.0, 2.0 * (1 - 2e-16), 1.3, 1.0]],
    ids=["ties", "paired-ties", "near-ties", "near-ties-scaled"],
)
def test_held_d_tilde_matches_the_loop(weights):
    s = spectrum_from_weights(weights)
    for t in np.geomspace(3 * s.dim * s.lambda1, 1e4 * s.lambda1, 60):
        assert d_tilde(s, float(t)) == _loop_d_tilde(s, float(t))


def test_held_d_tilde_at_a_gap_exactly_on_the_threshold():
    s = spectrum_from_weights([1.0, 0.8, 0.8, 0.25])
    t = _threshold_at_gap(s, 1)
    assert d_tilde(s, t) == _loop_d_tilde(s, t) == 3  # gap <= thresh takes the tie along
    above = math.nextafter(t, math.inf)
    assert d_tilde(s, above) == _loop_d_tilde(s, above) == 1
