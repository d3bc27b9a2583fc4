import bisect
import math

import numpy as np
import pytest

from gausslil.errors import ValidationError
from gausslil.sequences import (
    CovarianceSequence,
    CutoffFamily,
    DiscreteDistribution,
    delta_k,
    limit_and_convergence_report,
    truncated_covariance,
)
from gausslil.spectral import eigh, operator_norm


@pytest.fixture
def cross_dist():
    # uniform on {+-(1,0), +-(0,2)}: mean zero, Cov = diag(0.5, 2)
    return DiscreteDistribution(
        points=np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0], [0.0, -2.0]]),
        probs=np.full(4, 0.25),
    )


def test_distribution_validation():
    with pytest.raises(ValidationError, match="sum"):
        DiscreteDistribution(points=np.array([[1.0], [-1.0]]), probs=np.array([0.5, 0.4]))
    with pytest.raises(ValidationError, match="mean"):
        DiscreteDistribution(points=np.array([[1.0], [2.0]]), probs=np.array([0.5, 0.5]))
    with pytest.raises(ValidationError, match="positive"):
        DiscreteDistribution(points=np.array([[1.0], [-1.0]]), probs=np.array([1.0, 0.0]))


def test_truncated_covariance_exact_cases(cross_dist):
    assert np.array_equal(truncated_covariance(cross_dist, 0.0), np.zeros((2, 2)))
    assert np.allclose(truncated_covariance(cross_dist, 1.5), np.diag([0.5, 0.0]))
    assert np.allclose(truncated_covariance(cross_dist, 2.0), np.diag([0.5, 2.0]))  # tie included
    assert np.allclose(truncated_covariance(cross_dist, 99.0), np.diag([0.5, 2.0]))
    assert np.allclose(cross_dist.covariance(), np.diag([0.5, 2.0]))
    assert cross_dist.second_moment() == pytest.approx(2.5)


def test_tie_rule_includes_boundary_atom(cross_dist):
    # |x| = c exactly is included
    assert np.allclose(truncated_covariance(cross_dist, 1.0), np.diag([0.5, 0.0]))


def test_emit_kinds(cross_dist):
    const = CovarianceSequence.constant(np.diag([1.0, 2.0]))
    assert np.array_equal(const.emit(1), const.emit(999))

    mats = [np.diag([1.0, 1.0]), np.diag([2.0, 1.0])]
    tab = CovarianceSequence.tabulated(mats)
    assert np.array_equal(tab.emit(1), mats[0])
    assert np.array_equal(tab.emit(2), mats[1])
    with pytest.raises(ValidationError, match="out of range"):
        tab.emit(3)

    seq = CovarianceSequence.truncated(cross_dist, CutoffFamily(kind="sqrt_n"))
    assert np.allclose(seq.emit(1), np.diag([0.5, 0.0]))
    assert np.allclose(seq.emit(3), np.diag([0.5, 0.0]))
    assert np.allclose(seq.emit(4), np.diag([0.5, 2.0]))  # sqrt(4) = 2 reaches the far atoms
    assert np.allclose(seq.emit(10_000_000), np.diag([0.5, 2.0]))


def test_truncated_monotone_psd(cross_dist):
    seq = CovarianceSequence.truncated(cross_dist, CutoffFamily(kind="sqrt_n"))
    ns = [1, 2, 3, 4, 5, 8, 16, 64, 1024]
    for i, m in enumerate(ns):
        for n in ns[i:]:
            diff = seq.emit(n) - seq.emit(m)
            assert np.min(np.linalg.eigvalsh(diff)) >= -1e-12


def test_eigenvalue_monotonicity(cross_dist):
    seq = CovarianceSequence.truncated(cross_dist, CutoffFamily(kind="sqrt_n"))
    pairs = [(1, 4), (2, 4), (3, 100), (4, 1000)]
    for m, n in pairs:
        em = seq.spectrum_at(m).eigenvalues ** 2
        en = seq.spectrum_at(n).eigenvalues ** 2
        assert np.all(em <= en + 1e-12)


def test_delta_sum_bounded_by_second_moment(cross_dist):
    seq = CovarianceSequence.truncated(cross_dist, CutoffFamily(kind="sqrt_n"))
    for alpha in (0.5, 1.0, 2.0):
        total = sum(delta_k(seq, alpha, k) for k in range(1, 40))
        assert total <= cross_dist.second_moment() + 1e-9


def test_block_norm_bounded_by_truncated_moment(cross_dist):
    # ||G_n^2 - G_m^2|| <= E|X|^2 I{c_m < |X| <= c_n}
    seq = CovarianceSequence.truncated(cross_dist, CutoffFamily(kind="sqrt_n"))
    for m, n in [(1, 4), (2, 5), (3, 9), (1, 100)]:
        gap = operator_norm(seq.emit(n) - seq.emit(m))
        cm = seq.cutoff.evaluate(m)
        cn = seq.cutoff.evaluate(n)
        assert gap <= cross_dist.truncated_second_moment(cm, cn) + 1e-12


def test_limit_and_convergence_report(cross_dist):
    const = CovarianceSequence.constant(np.diag([1.0, 2.0]))
    rep = limit_and_convergence_report(const, 1000)
    assert all(r["matrix_gap"] == 0.0 for r in rep["checkpoints"])

    seq = CovarianceSequence.truncated(cross_dist, CutoffFamily(kind="sqrt_n"))
    rep = limit_and_convergence_report(seq, 1000)
    gaps = {r["n"]: r["matrix_gap"] for r in rep["checkpoints"]}
    assert gaps[1] == pytest.approx(2.0)
    assert all(g == 0.0 for n, g in gaps.items() if n >= 4)
    assert rep["limit"] == [[0.5, 0.0], [0.0, 2.0]]
    assert np.array_equal(seq.limit(), cross_dist.covariance())


def test_constant_cutoff_limit_is_the_emitted_matrix(cross_dist):
    # c_n = 1.5 admits only the atoms +-(1, 0) at every n, so the limit is
    # diag(0.5, 0), not the full covariance diag(0.5, 2)
    seq = CovarianceSequence.truncated(cross_dist, CutoffFamily(kind="constant", value=1.5))
    assert np.array_equal(seq.limit(), seq.emit(1))
    assert np.array_equal(seq.limit(), seq.emit(10**9))
    assert seq.is_constant
    rep = limit_and_convergence_report(seq, 1000)
    assert all(r["matrix_gap"] == 0.0 for r in rep["checkpoints"])
    assert rep["limit"] == [[0.5, 0.0], [0.0, 0.0]]


def test_state_counts_atoms_under_the_cutoff(cross_dist):
    seq = CovarianceSequence.truncated(cross_dist, CutoffFamily(kind="sqrt_n"))
    assert [seq.state(n) for n in (1, 3, 4, 10**6)] == [2, 2, 4, 4]
    assert not seq.is_constant
    tab = CovarianceSequence.tabulated([np.eye(2)] * 3)
    assert [tab.state(n) for n in (1, 2, 3)] == [0, 1, 2]
    with pytest.raises(ValidationError, match="out of range"):
        tab.state(4)
    assert CovarianceSequence.constant(np.eye(2)).state(10**9) == 0


def test_runs_partition_the_indices_by_state(cross_dist):
    seqs = [
        CovarianceSequence.truncated(cross_dist, CutoffFamily(kind="sqrt_n", scale=0.3)),
        CovarianceSequence.tabulated([np.eye(2)] * 7),
        CovarianceSequence.constant(np.eye(2)),
    ]
    for seq, ns in zip(seqs, [np.arange(2, 301), range(1, 8), range(5, 10**9 + 1)]):
        runs = list(seq.runs(ns))
        assert runs[0][0].start == 0 and runs[-1][0].stop == len(ns)
        assert all(b[0].start == a[0].stop for a, b in zip(runs, runs[1:]))
        for sl, s in runs:
            first, last = int(ns[sl][0]), int(ns[sl][-1])
            assert seq.state(first) == seq.state(last)
            assert s is seq.spectrum_at(first)
        assert len({seq.state(int(ns[sl.start])) for sl, _ in runs}) == len(runs)
    # atoms at norms 1 and 2 enter at 0.3 sqrt(n) >= 1 and >= 2
    ns = np.arange(2, 301)
    assert [(ns[sl][0], ns[sl][-1]) for sl, _ in seqs[0].runs(ns)] == [(2, 11), (12, 44), (45, 300)]
    assert list(seqs[1].runs(range(3, 3))) == []


def _bisected_states(seq, ns):
    """The slices of states(ns) by a bisection from each start to the end of ns."""
    def state(i):
        return seq.state(int(ns[i]))

    stop = 0
    while stop < len(ns):
        start, s = stop, state(stop)
        stop = bisect.bisect_right(range(len(ns)), s, lo=start, key=state)
        yield slice(start, stop), s


def test_states_gallop_to_each_state_change(cross_dist, monkeypatch):
    # a table of 2,000 matrices changes state at every index: the probe at
    # start + 1 ends each slice and reads the next one's state, where a
    # bisection to the end of ns took about 11 state calls per index
    table = CovarianceSequence.tabulated([np.eye(2) * (k + 1) for k in range(2000)])
    calls = []
    state = table.state
    monkeypatch.setattr(table, "state", lambda n: calls.append(n) or state(n))
    ns = range(1, 2001)
    assert list(table.states(ns)) == [(slice(i, i + 1), i) for i in range(2000)]
    assert len(calls) <= 2 * len(ns)
    monkeypatch.undo()
    truncated = [
        CovarianceSequence.truncated(cross_dist, CutoffFamily(kind="sqrt_n", scale=scale))
        for scale in (0.3, 1.0, 0.01)
    ]
    steps = CovarianceSequence.tabulated([np.eye(2) * (k // 37 + 1) for k in range(500)])
    cases = [
        (CovarianceSequence.constant(np.eye(2)), [range(5, 10**9 + 1), np.arange(1, 2), range(3, 3)]),
        *((seq, [np.arange(2, 301), range(1, 5000), np.unique(np.geomspace(1, 10**6, 300).astype(int))])
          for seq in truncated),
        (table, [range(1, 2001), np.arange(7, 1200, 13)]),
        (steps, [range(1, 501), np.arange(3, 500, 5), range(40, 75)]),
    ]
    for seq, index_sets in cases:
        for ns in index_sets:
            assert list(seq.states(ns)) == list(_bisected_states(seq, ns))


def test_cutoff_window_report(cross_dist):
    fam = CutoffFamily(kind="sqrt_n")
    rows = fam.window_report([1, 10, 100, 10_000])
    assert all(r["ok"] for r in rows)  # c_n/sqrt(n) = 1 sits inside any window
    wild = CutoffFamily(kind="sqrt_n", scale=50.0)
    rows = wild.window_report([10, 100])
    assert not all(r["ok"] for r in rows)


def test_cutoff_validation():
    with pytest.raises(ValidationError):
        CutoffFamily(kind="weird")
    with pytest.raises(ValidationError):
        CutoffFamily(kind="sqrt_n", scale=-1.0)
    fam = CutoffFamily(kind="constant", value=2.0)
    assert fam.evaluate(7) == 2.0


def test_decreasing_cutoff_rejected(cross_dist):
    # g_10 = 0.05 makes c_10 < c_9: the truncated state would fall, and the
    # monotone endpoint shortcut of delta_k would miss the dip
    g = [1.0] * 12
    g[9] = 0.05
    with pytest.raises(ValidationError, match="non-decreasing"):
        CutoffFamily(kind="sqrt_n", g_table=tuple(g))
    # a multiplier may fall, as long as c_n does not
    fam = CutoffFamily(kind="sqrt_n", g_table=(1.0, 1.0, 0.9))
    assert fam.evaluate(2) < fam.evaluate(3) < fam.evaluate(4)
