import math

import numpy as np
import pytest
import scipy.special as sps

from gausslil.errors import ValidationError
from gausslil.special import (
    chisq_density,
    chisq_norm_tail,
    log_chisq_norm_tail,
    log_gammainc_upper,
)


def test_density_closed_forms():
    assert chisq_density(2, 2.0) == pytest.approx(0.5 * math.exp(-1.0), rel=1e-14)
    assert chisq_density(1, 1.0) == pytest.approx(
        math.exp(-0.5) / math.sqrt(2 * math.pi), rel=1e-14
    )
    assert chisq_density(4, 0.0) == 0.0
    assert chisq_density(2, 0.0) == 0.5


def test_density_rejections():
    with pytest.raises(ValidationError):
        chisq_density(1, 0.0)
    with pytest.raises(ValidationError):
        chisq_density(2, -1.0)
    with pytest.raises(ValidationError):
        chisq_density(0, 1.0)


def test_density_integrates_to_one():
    # d = 1 via z = u^2, which removes the endpoint singularity
    us = np.linspace(1e-9, 12.0, 400_001)
    vals = np.array([chisq_density(1, float(u * u)) * 2 * u for u in us])
    assert np.trapezoid(vals, us) == pytest.approx(1.0, abs=5e-5)
    for d in (2, 3, 5, 8):
        xs = np.linspace(1e-9, 120.0, 400_001)
        vals = np.array([chisq_density(d, float(x)) for x in xs])
        assert np.trapezoid(vals, xs) == pytest.approx(1.0, abs=5e-5)


def test_gammainc_against_scipy():
    rng = np.random.default_rng(7)
    for _ in range(300):
        a = float(rng.uniform(0.5, 9.0))
        x = float(rng.uniform(0.0, 120.0))
        log_q = log_gammainc_upper(a, x)
        assert math.exp(log_q) == pytest.approx(
            float(sps.gammaincc(a, x)), rel=1e-12, abs=1e-300
        )
        assert -math.expm1(log_q) == pytest.approx(
            float(sps.gammainc(a, x)), rel=1e-12, abs=1e-300
        )


def test_log_upper_matches_linear_and_extends():
    for a in (0.5, 1.0, 1.5, 2.5, 4.0):
        for x in (0.1, 1.0, 20.0, 300.0, 700.0):
            q = float(sps.gammaincc(a, x))
            assert math.exp(log_gammainc_upper(a, x)) == pytest.approx(q, rel=1e-11)
    # far beyond the underflow point the log form stays finite and matches
    # the asymptotic expansion Q ~ x^{a-1} e^{-x}/Gamma(a)
    a, x = 1.5, 5000.0
    expect = -x + (a - 1) * math.log(x) - math.lgamma(a)
    assert log_gammainc_upper(a, x) == pytest.approx(expect, rel=1e-3)


def test_chisq_tail_values():
    # d=2 tail is exactly exp(-t^2/2)
    for t in (0.0, 0.5, 2.0, 6.0, 12.0):
        assert chisq_norm_tail(2, t) == pytest.approx(math.exp(-t * t / 2), rel=1e-13)
    assert chisq_norm_tail(5, 0.0) == 1.0
    # relative accuracy against scipy up to t = 40 (log scale comparison)
    for d in (1, 2, 3, 4, 7):
        for t in (1.0, 5.0, 15.0, 25.0, 40.0):
            mine = log_chisq_norm_tail(d, t)
            ref = float(sps.gammainccln(d / 2.0, t * t / 2.0)) if hasattr(sps, "gammainccln") else None
            if ref is None:
                q = float(sps.gammaincc(d / 2.0, t * t / 2.0))
                if q > 0:
                    ref = math.log(q)
                else:
                    continue
            assert mine == pytest.approx(ref, rel=1e-10, abs=1e-9)


def test_chisq_tail_monte_carlo_cross_check():
    # d=3, t=3 (a spec'd spot check): 10^7-sample binomial comparison
    rng = np.random.default_rng(123)
    n = 10_000_000
    hits = 0
    for _ in range(10):
        z = rng.standard_normal((n // 10, 3))
        hits += int(np.count_nonzero((z * z).sum(axis=1) >= 9.0))
    p_hat = hits / n
    p = chisq_norm_tail(3, 3.0)
    se = math.sqrt(p * (1 - p) / n)
    assert abs(p_hat - p) <= 4 * se
