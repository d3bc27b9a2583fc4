import math

import numpy as np
import pytest

from gausslil.errors import NumericError
from gausslil.quadrature import adaptive_simpson, gauss_kronrod, geometric_knots


def test_scalar_known_integrals():
    assert adaptive_simpson(math.exp, 0.0, 1.0) == pytest.approx(
        math.e - 1.0, rel=1e-12
    )
    assert adaptive_simpson(lambda x: math.exp(-x), 0.0, 60.0) == pytest.approx(
        1.0, rel=1e-10
    )
    assert adaptive_simpson(lambda x: 1 / (1 + x) ** 2, 0.0, 1e6) == pytest.approx(
        1.0, rel=1e-6
    )
    assert adaptive_simpson(math.sin, 0.0, math.pi) == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("a,b", [(0.0, math.nan), (math.nan, 1.0), (0.0, math.inf)])
def test_non_finite_limits_raise(a, b):
    # a NaN limit must fail at once, not split every panel down to the depth cap
    with pytest.raises(NumericError, match="finite limits"):
        adaptive_simpson(math.exp, a, b)
    with pytest.raises(NumericError, match="finite limits"):
        gauss_kronrod(lambda rows, x: np.exp(-x), [(np.array([0.0, a]), np.array([1.0, b]))])


def test_scalar_empty_interval():
    assert adaptive_simpson(math.exp, 1.0, 1.0) == 0.0
    assert adaptive_simpson(math.exp, 2.0, 1.0) == 0.0


def test_kronrod_exact_on_polynomials():
    # row p integrates u^p over [0, 1]: K21 is exact to degree 31, G10 to 19,
    # so the estimate |K21 - G10| vanishes up to p = 19 and not at p = 20
    p = np.arange(33)
    got, err = gauss_kronrod(lambda rows, u: u ** p[rows, None], [(np.zeros(33), np.ones(33))])
    np.testing.assert_allclose(got[:32], 1.0 / (p[:32] + 1.0), rtol=1e-14, atol=0)
    assert np.all(err[:20] <= 1e-15)
    assert err[20] > 1e-12


def test_batched_sqrt_substitution_handles_endpoint_singularity():
    # int_0^1 y^{-1/2} dy = 2 via y = u^2
    got, _ = gauss_kronrod(lambda rows, u: 2.0 * np.ones_like(u), [(np.zeros(1), np.ones(1))])
    assert got[0] == pytest.approx(2.0, rel=1e-13)


def test_batched_narrow_feature_with_panels():
    # e^{-200 y} over [0, 100]: panels on the 1/200 scale keep the fixed rule honest
    panels = geometric_knots(np.zeros(1), np.full(1, 100.0), 1 / 200.0)
    got, err = gauss_kronrod(lambda rows, y: 200.0 * np.exp(-200.0 * y), panels)
    assert got[0] == pytest.approx(1.0, rel=1e-11)
    assert err[0] < 1e-6


def test_kronrod_skips_empty_panels():
    # rows whose chain ended early are not evaluated again
    seen = []

    def f(rows, x):
        seen.append(rows.copy())
        return np.ones_like(x)

    panels = geometric_knots(np.zeros(2), np.array([0.5, 8.0]), 1.0, growth=2.0)
    got, _ = gauss_kronrod(f, panels)
    np.testing.assert_allclose(got, [0.5, 8.0], rtol=1e-14)
    assert [r.tolist() for r in seen] == [[0, 1], [1], [1], [1]]


def test_geometric_knots_cover_interval():
    panels = geometric_knots(np.zeros(3), np.array([1.0, 10.0, 1000.0]), 0.01)
    lo0, _ = panels[0]
    _, hi_last = panels[-1]
    assert np.all(lo0 == 0.0)
    assert np.allclose(hi_last, [1.0, 10.0, 1000.0])
    # panels chain without gaps
    for (_, hi), (lo, _) in zip(panels[:-1], panels[1:]):
        assert np.allclose(hi, lo)
