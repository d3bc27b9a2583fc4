import math

import numpy as np
import pytest

from gausslil.errors import NumericError
from gausslil.quadrature import (
    adaptive_simpson,
    adaptive_simpson_batched,
    geometric_knots,
)


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
        adaptive_simpson_batched(
            lambda idx, x: np.exp(-x), np.array([0.0, a]), np.array([1.0, b]), 2
        )


def test_scalar_empty_interval():
    assert adaptive_simpson(math.exp, 1.0, 1.0) == 0.0
    assert adaptive_simpson(math.exp, 2.0, 1.0) == 0.0


def test_batched_matches_scalar():
    a = np.array([0.0, 0.5, 1.0, 2.0])
    b = np.array([1.0, 2.5, 1.0, 10.0])

    def f(idx, x):
        return np.exp(-x) * (idx + 1)

    got = adaptive_simpson_batched(f, a, b, 4)
    for i in range(4):
        want = adaptive_simpson(lambda x: math.exp(-x) * (i + 1), a[i], b[i])
        assert got[i] == pytest.approx(want, rel=1e-11, abs=1e-15)


def test_batched_sqrt_substitution_handles_endpoint_singularity():
    # int_0^1 y^{-1/2} dy = 2 via y = u^2
    def f(idx, u):
        return 2.0 * np.ones_like(u)

    got = adaptive_simpson_batched(f, np.zeros(1), np.ones(1), 1)
    assert got[0] == pytest.approx(2.0, rel=1e-13)


def test_batched_narrow_feature_with_panels():
    # e^{-200 y} over [0, 100]: panels on the 1/200 scale keep adaptivity honest
    def f(idx, y):
        return 200.0 * np.exp(-200.0 * y)

    total = np.zeros(1)
    for lo, hi in geometric_knots(np.zeros(1), np.full(1, 100.0), 1 / 200.0):
        total += adaptive_simpson_batched(f, lo, hi, 1)
    assert total[0] == pytest.approx(1.0, rel=1e-11)


def test_geometric_knots_cover_interval():
    panels = geometric_knots(np.zeros(3), np.array([1.0, 10.0, 1000.0]), 0.01)
    lo0, _ = panels[0]
    _, hi_last = panels[-1]
    assert np.all(lo0 == 0.0)
    assert np.allclose(hi_last, [1.0, 10.0, 1000.0])
    # panels chain without gaps
    for (_, hi), (lo, _) in zip(panels[:-1], panels[1:]):
        assert np.allclose(hi, lo)
