import math
import tracemalloc

import numpy as np
import pytest

from kronrod_chain import KronrodChain

from gausslil import quadrature
from gausslil.errors import NumericError
from gausslil.quadrature import kronrod_halving, kronrod_reduce


def _integrate(chain, f):
    """Each row's Kronrod integral of f over its chain and the summed estimate."""
    rows, x, width = chain.points()
    return kronrod_reduce(rows, f(rows, x), width, chain.size)


def test_scalar_known_integrals():
    # one batch: row i integrates the i-th function over its own interval
    fs = (np.exp, lambda x: np.exp(-x), lambda x: 1 / (1 + x) ** 2, np.sin)
    rows_seen = set()

    def f(rows, x):
        assert np.all(np.diff(rows) >= 0)  # the live panels' rows come ascending
        rows_seen.update(rows.tolist())
        out = np.empty_like(x)
        for i, fi in enumerate(fs):
            out[rows == i] = fi(x[rows == i])
        return out

    got = kronrod_halving(f, np.zeros(4), np.array([1.0, 60.0, 1e6, math.pi]))
    assert rows_seen == {0, 1, 2, 3}
    assert got[0] == pytest.approx(math.e - 1.0, rel=1e-12)
    assert got[1] == pytest.approx(1.0, rel=1e-10)
    assert got[2] == pytest.approx(1.0 - 1e-6 / (1 + 1e-6), rel=1e-10)
    assert got[3] == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("a,b", [(0.0, math.nan), (math.nan, 1.0), (0.0, math.inf)])
def test_non_finite_limits_raise(a, b):
    # a NaN limit must fail at once, not split every panel down to the depth cap
    with pytest.raises(NumericError, match="finite limits"):
        kronrod_halving(lambda rows, x: np.exp(-x), np.array([0.0, a]), np.array([1.0, b]))
    # the chain integrates from 0, so [a, b] is the row ending at b - a
    with pytest.raises(NumericError, match="finite limits"):
        KronrodChain(1.0, np.array([1.0, b - a]))


def test_scalar_empty_interval():
    # a panel of width 0 sums to 0 with estimate 0, and is accepted at once
    calls = []

    def f(rows, x):
        calls.append(rows.size)
        return np.exp(x)

    assert kronrod_halving(f, np.ones(1), np.ones(1)).tolist() == [0.0]
    assert calls == [1]


def test_kronrod_exact_on_polynomials():
    # row p integrates u^p over [0, 1]: K21 is exact to degree 31, G10 to 19,
    # so the estimate |K21 - G10| vanishes up to p = 19 and not at p = 20
    p = np.arange(33)
    got, err = _integrate(KronrodChain(1.0, np.ones(33)), lambda rows, u: u ** p[rows, None])
    np.testing.assert_allclose(got[:32], 1.0 / (p[:32] + 1.0), rtol=1e-14, atol=0)
    assert np.all(err[:20] <= 1e-15)
    assert err[20] > 1e-12


def test_batched_sqrt_substitution_handles_endpoint_singularity():
    # int_0^1 y^{-1/2} dy = 2 via y = u^2
    got, _ = _integrate(KronrodChain(1.0, np.ones(1)), lambda rows, u: np.full_like(u, 2.0))
    assert got[0] == pytest.approx(2.0, rel=1e-13)
    assert kronrod_halving(lambda rows, u: 2.0 * np.ones_like(u), np.zeros(1), np.ones(1))[0] == (
        pytest.approx(2.0, rel=1e-13)
    )


def test_batched_narrow_feature_with_panels():
    # e^{-200 y} over [0, 100]: a chain that starts on the 1/200 scale keeps
    # the fixed rule honest, and halving finds that scale by itself
    got, err = _integrate(KronrodChain(1 / 200.0, np.full(1, 100.0)), lambda rows, y: 200.0 * np.exp(-200.0 * y))
    assert got[0] == pytest.approx(1.0, rel=1e-11)
    assert err[0] < 1e-6
    got = kronrod_halving(lambda rows, y: 200.0 * np.exp(-200.0 * y), np.zeros(1), np.full(1, 100.0))
    assert got[0] == pytest.approx(1.0, rel=1e-11)


def test_kronrod_skips_empty_panels():
    # rows whose chain ended early are not listed again
    chain = KronrodChain(1.0, np.array([0.5, 8.0]))
    rows, x, width = chain.points()
    got, _ = kronrod_reduce(rows, np.ones_like(x), width, chain.size)
    np.testing.assert_allclose(got, [0.5, 8.0], rtol=1e-14)
    # [0, 1] for row 1 and row 0's [0, 0.5], then [1, 2], [2, 4] and [4, 8] for row 1
    assert rows.tolist() == [1, 0, 1, 1, 1]
    assert width.tolist() == [1.0, 0.5, 1.0, 2.0, 4.0]


ROW_Z = np.geomspace(1e-3, 40.0, 57)


def _decay(rows, x):
    return np.exp(-3.0 * x * x) * (1.0 + 0.1 * ROW_Z[rows, None] * x)


def test_shared_chain_matches_per_row_panels():
    # the doubling panels, with whole panels' abscissas shared by their rows,
    # against the closed form of int_0^e e^{-3x^2} (1 + 0.1 z x) dx
    ends = np.sqrt(0.5 * ROW_Z)
    chain = KronrodChain(0.05, ends)
    want = math.sqrt(math.pi / 3.0) / 2.0 * np.array([math.erf(math.sqrt(3.0) * e) for e in ends])
    want += 0.1 * ROW_Z * -np.expm1(-3.0 * ends * ends) / 6.0
    got = _integrate(chain, _decay)
    np.testing.assert_allclose(got[0], want, rtol=1e-15, atol=0)
    # the estimate |K21 - G10| covers the error, up to rounding
    assert np.all(np.abs(got[0] - want) <= got[1] + 4e-16 * want)
    # each row's last panel is its only one with abscissas of its own
    assert sum(width.size - 1 for _, _, _, width in chain.panels) <= ends.size


def test_shared_chain_hands_whole_panels_one_abscissa_row():
    chain = KronrodChain(1.0, np.array([0.5, 1.0, 3.0, 3.0]))
    total, _ = _integrate(chain, lambda rows, x: np.ones_like(x))
    np.testing.assert_allclose(total, [0.5, 1.0, 3.0, 3.0], rtol=1e-14)
    # each panel's pairs: their rows, and which abscissa row each reads
    # (0 the whole panel's, shared), with the abscissa rows' widths
    assert [(rows.tolist(), which.tolist(), width.tolist()) for rows, which, _, width in chain.panels] == [
        ([1, 2, 3, 0], [0, 0, 0, 1], [1.0, 0.5]),  # [0, 1] for rows 1..3, row 0's [0, 0.5]
        ([2, 3], [0, 0], [1.0]),  # [1, 2] for rows 2..3
        ([2, 3], [1, 2], [2.0, 1.0, 1.0]),  # no row takes [2, 4] whole: [2, 3] twice
    ]
    for (_, _, u, width), lo in zip(chain.panels, [0.0, 1.0, 2.0]):
        np.testing.assert_array_equal(u, lo + width[:, None] * quadrature._GK_NODES)


@pytest.mark.parametrize("first,end", [(0.0, 1.0), (float("nan"), 1.0), (1.0, float("inf"))])
def test_shared_chain_needs_finite_limits(first, end):
    with pytest.raises(NumericError):
        KronrodChain(first, np.array([0.5, end]))


def test_halving_resolves_a_kink():
    # 1 + |x - c| has a kink at c = 0.3, never a panel midpoint or edge; the
    # smooth row 0 is accepted on the first pass and not evaluated again
    c = 0.3
    calls = []

    def f(rows, x):
        calls.append(rows.tolist())
        return np.where(rows[:, None] == 0, np.cos(x), 1.0 + np.abs(x - c))

    got = kronrod_halving(f, np.zeros(2), np.ones(2))
    assert got[0] == pytest.approx(math.sin(1.0), rel=1e-14)
    assert abs(got[1] - (1.0 + (c * c + (1 - c) ** 2) / 2.0)) <= 1e-10 * got[1]
    assert len(calls) > 10  # the kink is found by halving
    assert calls[0] == [0, 1] and all(0 not in rows for rows in calls[1:])
    # one live panel holds the kink after each pass: two panels per pass
    assert all(len(rows) == 2 for rows in calls[1:])


def test_halving_non_finite_panel_raises_at_once():
    calls = []

    def f(rows, x):
        calls.append(1)
        return np.where(rows[:, None] == 1, np.nan, x)

    with pytest.raises(NumericError, match="panel sum nan on row 1"):
        kronrod_halving(f, np.zeros(2), np.ones(2))
    assert len(calls) == 1


def test_halving_unresolved_raises_at_the_panel_cap_in_bounded_memory():
    # seeded noise never resolves, so every panel splits on every pass
    rng = np.random.default_rng(3)
    calls = []

    def f(rows, x):
        calls.append(rows.size)
        return rng.random(x.shape)

    tracemalloc.start()
    try:
        with pytest.raises(NumericError, match="live panels"):
            kronrod_halving(f, np.zeros(1), np.ones(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    cap = quadrature._HALVING_PANELS
    assert calls == [2**j for j in range(len(calls))]
    assert calls[-1] <= cap < 2 * calls[-1]
    # a few arrays of 21 doubles per live panel, never more
    assert peak <= 8 * cap * 21 * 8


def test_halving_unresolved_raises_at_the_depth_cap():
    # a jump keeps the relative estimate of its panel from shrinking: the
    # panel is halved down to the depth cap, two live panels at a time
    calls = []

    def f(rows, x):
        calls.append(rows.size)
        return 1.0 + (x > 0.3)

    with pytest.raises(NumericError, match=f"after {quadrature._HALVING_DEPTH} halvings"):
        kronrod_halving(f, np.zeros(1), np.ones(1))
    assert calls == [1] + [2] * quadrature._HALVING_DEPTH
