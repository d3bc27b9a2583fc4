import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from conftest import random_weights, spectrum_from_weights

from gausslil.errors import ValidationError
from gausslil.chidensity import chisq_norm_tail, weighted_norm_tail, WeightedChiSquare
from gausslil.montecarlo import (
    PathRecord,
    SeededStream,
    checkpoint_schedule,
    empirical_limsup,
    estimate_tail,
    sample_norm_Y,
    sample_standard_normal,
    simulate_paths,
)
from gausslil import montecarlo
from gausslil.sequences import CovarianceSequence
from gausslil.integraltest import PhiFamily

# golden values recorded at first implementation; the generator contract
# (SplitMix64 finalizer over a keyed counter) makes them platform-stable
GOLDEN_RAW = [
    7916468417927448089,
    14098845676262140668,
    10551805932302876123,
    3681475792968034725,
]
GOLDEN_NORMALS = [
    -0.4020551825163133,
    1.499888297466257,
    0.3234922763783349,
    -1.3495294252355274,
]


def test_golden_integer_outputs():
    s = SeededStream(20260810, 0)
    assert [int(x) for x in s.raw(0, 4)] == GOLDEN_RAW
    assert [int(x) for x in SeededStream(1, 7).raw(0, 3)] == [
        1556227686929082717,
        7818719287310811524,
        3542628911683197343,
    ]


def test_golden_first_normals():
    z = sample_standard_normal(SeededStream(20260810, 0), 4)
    assert np.allclose(z, GOLDEN_NORMALS, atol=1e-12)


def test_streams_are_pure_and_distinct():
    a = sample_standard_normal(SeededStream(5, 1), 1000)
    b = sample_standard_normal(SeededStream(5, 1), 1000)
    c = sample_standard_normal(SeededStream(5, 2), 1000)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # prefix consistency: a longer draw starts with the shorter one
    long = sample_standard_normal(SeededStream(5, 1), 2000)
    assert np.array_equal(long[:1000], a)


# Pinned at the chunked sampler, before the block rewrite: a sampler change
# must leave every normal, every |Y| draw and every tail hit count as is.
PINNED_NORMALS_SHA256 = "f32247912826d29105af61cf4d1280afa78ce1ee4c4fa2f7fc2f5f9841c3dcdc"
PINNED_TAIL_HITS = {2: 320325, 5: 395344, 8: 416885}
PINNED_NORM_Y_SHA256 = {2: "da675984916e46ab", 5: "0ff9f4053fd4d782", 8: "20e77f6d1893d6d1"}


def _sha256(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()


def test_pinned_normal_stream():
    z = sample_standard_normal(SeededStream(77, 0), 1_000_003)
    assert _sha256(z) == PINNED_NORMALS_SHA256


@pytest.mark.parametrize("d", [2, 5, 8])
def test_pinned_tail_hits_and_norm_draws(d):
    s = spectrum_from_weights(np.linspace(1.0, 0.1, d))
    t = math.sqrt(float(np.sum(s.weights())))
    est = estimate_tail(s, t, 1_000_000, SeededStream(77, d))
    assert est.p_hat == PINNED_TAIL_HITS[d] / 1_000_000
    y = sample_norm_Y(s, SeededStream(78, d), 300_001)
    assert _sha256(y)[:16] == PINNED_NORM_Y_SHA256[d]


def test_take_split_across_block_edges():
    # B is the sampler's block size in pairs; the split leaves leftovers
    # on both sides of several block edges
    B = 2**15
    sizes = [1, B - 1, 2 * B + 3]
    src = montecarlo._NormalSource(SeededStream(6, 3))
    parts = np.concatenate([src.take(m) for m in sizes])
    whole = montecarlo._NormalSource(SeededStream(6, 3)).take(sum(sizes))
    assert np.array_equal(parts, whole)


@pytest.mark.parametrize("pairs", [7, 1000])
def test_block_size_does_not_change_the_stream(monkeypatch, pairs):
    s = spectrum_from_weights([1.0, 0.5, 0.25])
    z = sample_standard_normal(SeededStream(8, 1), 20_001)
    y = sample_norm_Y(s, SeededStream(8, 2), 5_001)
    monkeypatch.setattr(montecarlo, "_BLOCK_PAIRS", pairs)
    assert np.array_equal(sample_standard_normal(SeededStream(8, 1), 20_001), z)
    assert np.array_equal(sample_norm_Y(s, SeededStream(8, 2), 5_001), y)


def test_short_draw_fills_a_short_block():
    # 400 normals need about 255 polar pairs; a full 2^15-pair block takes 2.6 MB
    tracemalloc.start()
    try:
        z = sample_standard_normal(SeededStream(5, 0), 400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 100_000
    assert np.array_equal(z, montecarlo._NormalSource(SeededStream(5, 0)).take(400))


def test_short_norm_draw_fills_a_short_block():
    # 100 draws at d = 2 need 100 polar pairs; a full 2^15-pair block takes 2.6 MB
    s = spectrum_from_weights([1.0, 0.5])
    tracemalloc.start()
    try:
        y = sample_norm_Y(s, SeededStream(3, 1), 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 256_000
    assert np.array_equal(y, sample_norm_Y(s, SeededStream(3, 1), 100_000)[:100])


def test_estimate_tail_memory_does_not_grow_with_N():
    # storing the 10^6 norms alone would take 8 MB, and their chunked
    # draws 128 MB at d = 8
    s = spectrum_from_weights(np.linspace(1.0, 0.1, 8))
    tracemalloc.start()
    try:
        estimate_tail(s, 2.0, 1_000_000, SeededStream(1, 8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16_000_000


_S2 = spectrum_from_weights([1.0, 0.5])


@pytest.mark.parametrize(
    "call",
    [
        lambda n: sample_standard_normal(SeededStream(1, 0), n),
        lambda n: sample_norm_Y(_S2, SeededStream(1, 0), n),
        lambda n: estimate_tail(_S2, 1.0, n, SeededStream(1, 0)),
    ],
    ids=["standard-normal", "norm-Y", "estimate-tail"],
)
@pytest.mark.parametrize("count", [-5, True, 2.5, 1e5, "100000"])
def test_sampler_counts_rejected(call, count):
    with pytest.raises(ValidationError, match="must be an integer"):
        call(count)


def test_sampler_counts_accept_numpy_integers():
    assert sample_standard_normal(SeededStream(1, 0), np.int64(3)).size == 3
    assert sample_norm_Y(_S2, SeededStream(1, 0), 0).size == 0
    assert estimate_tail(_S2, 1.0, np.int64(10_000), SeededStream(1, 0)).samples == 10_000


def test_normal_moments():
    z = sample_standard_normal(SeededStream(77, 0), 1_000_000)
    assert abs(float(z.mean())) <= 4e-3  # 4/sqrt(N)
    assert abs(float(z.var()) - 1.0) <= 6e-3


def test_ks_half_normal():
    # lambda = (1, 0, 0): |Y| = |eta_1|, KS distance <= 1.63/sqrt(N) at 99%
    s = spectrum_from_weights([1.0, 0.0, 0.0])
    n = 200_000
    v = np.sort(sample_norm_Y(s, SeededStream(3, 0), n))
    cdf = np.array([math.erf(x / math.sqrt(2)) for x in v])
    emp = np.arange(1, n + 1) / n
    ks = float(np.max(np.abs(cdf - emp)))
    assert ks <= 1.63 / math.sqrt(n)


def test_ks_chi_distribution_equal_weights():
    s = spectrum_from_weights([1.0, 1.0, 1.0])
    n = 200_000
    v = np.sort(sample_norm_Y(s, SeededStream(4, 0), n))
    cdf = np.array([1.0 - chisq_norm_tail(3, float(x)) for x in v])
    emp = np.arange(1, n + 1) / n
    assert float(np.max(np.abs(cdf - emp))) <= 1.63 / math.sqrt(n)


def test_sampler_tail_sanity_bound():
    # empirical P{|Z| >= t} <= e^{-t^2/8} for t >= 2 sqrt(d), within noise
    d = 3
    s = spectrum_from_weights([1.0] * d)
    n = 500_000
    v = sample_norm_Y(s, SeededStream(9, 0), n)
    for t in np.linspace(2 * math.sqrt(d), 5.5, 6):
        p_hat = float(np.count_nonzero(v >= t)) / n
        bound = math.exp(-t * t / 8)
        assert p_hat <= bound + 4 * math.sqrt(bound * (1 - bound) / n)


def test_estimate_tail_trivial_and_against_closed_form():
    s = spectrum_from_weights([1.0, 1.0])
    est0 = estimate_tail(s, 0.0, 10_000, SeededStream(1, 0))
    assert est0.p_hat == 1.0 and est0.stderr == 0.0
    est = estimate_tail(s, 2.0, 1_000_000, SeededStream(1, 1))
    p = math.exp(-2.0)
    assert abs(est.p_hat - p) <= 4 * math.sqrt(p * (1 - p) / est.samples)
    assert not est.low_count


def test_estimate_tail_low_count_flag():
    s = spectrum_from_weights([1.0, 1.0])
    est = estimate_tail(s, 9.0, 10_000, SeededStream(2, 0))  # p ~ 2.6e-18
    assert est.low_count
    with pytest.raises(ValidationError):
        estimate_tail(s, 1.0, 5_000, SeededStream(2, 1))


def test_estimate_tail_rejects_nan_threshold():
    s = spectrum_from_weights([1.0, 0.5])
    with pytest.raises(ValidationError, match="threshold"):
        estimate_tail(s, float("nan"), 10_000, SeededStream(3, 0))


def test_estimate_tail_vs_quadrature(rng):
    for _ in range(4):
        d = int(rng.integers(2, 6))
        w = random_weights(rng, d)
        s = spectrum_from_weights(w)
        t = 2.0 * s.lambda1
        p = weighted_norm_tail(WeightedChiSquare.from_spectrum(s), t)
        est = estimate_tail(s, t, 400_000, SeededStream(11, int(rng.integers(0, 2**31))))
        assert abs(est.p_hat - p) <= 4 * est.stderr + 4 * math.sqrt(p * (1 - p) / est.samples)


def test_checkpoint_schedule():
    ns = checkpoint_schedule(1000)
    assert ns[0] == 1
    assert ns[-1] == 1000
    assert all(b > a for a, b in zip(ns, ns[1:]))
    # geometric with ratio 1.05 on the tail of the schedule
    assert 1.0 < ns[-1] / ns[-2] <= 1.06


def test_simulate_rejects_zero_limit():
    seq = CovarianceSequence.constant(np.zeros((2, 2)))
    phi = PhiFamily(kind="parametric", a=0.0, b=0.0)
    with pytest.raises(ValidationError, match="zero matrix"):
        simulate_paths(seq, phi, 1000, 1, SeededStream(0, 0))


def test_simulate_paths_structure_and_determinism():
    seq = CovarianceSequence.constant(np.eye(2))
    phi = PhiFamily(kind="parametric", a=0.0, b=0.0)
    r1 = simulate_paths(seq, phi, 2000, 3, SeededStream(21, 0))
    r2 = simulate_paths(seq, phi, 2000, 3, SeededStream(21, 0))
    assert r1 == r2
    ns = [cp[0] for cp in r1[0].checkpoints]
    assert ns == checkpoint_schedule(2000)
    for rec in r1:
        for n, ratio, phi_n, exceeded in rec.checkpoints:
            assert exceeded == (ratio > phi_n)


def test_simulate_evaluates_each_checkpoint_once(monkeypatch):
    # Gamma_n, lambda_1 and phi_n depend on n alone, so the replications share them
    seq = CovarianceSequence.constant(np.eye(2))
    phi = PhiFamily(kind="parametric", a=0.0, b=0.0)
    calls = []
    value = PhiFamily.value
    monkeypatch.setattr(PhiFamily, "value", lambda self, n, lam1: calls.append(n) or value(self, n, lam1))
    simulate_paths(seq, phi, 2000, 5, SeededStream(21, 0))
    assert calls == checkpoint_schedule(2000)


def test_simulate_paths_reach_1e15():
    seq = CovarianceSequence.constant(np.eye(2))
    phi = PhiFamily(kind="parametric", a=0.0, b=0.0)
    (rec,) = simulate_paths(seq, phi, 10**15, 1, SeededStream(3, 0))
    assert len(rec.checkpoints) == len(checkpoint_schedule(10**15))
    assert rec.checkpoints[-1][0] == 10**15
    assert all(math.isfinite(ratio) for _, ratio, _, _ in rec.checkpoints)


@pytest.mark.parametrize("n_max", [2**53 + 1, 10**400])
def test_simulate_rejects_n_max_above_2_53(n_max):
    seq = CovarianceSequence.constant(np.eye(2))
    phi = PhiFamily(kind="parametric", a=0.0, b=0.0)
    with pytest.raises(ValidationError, match="2\\^53"):
        simulate_paths(seq, phi, n_max, 1, SeededStream(0, 0))


def test_checkpoint_paths_match_the_step_sum_law():
    # The paper's T_n, summed step by step from numpy's generator, against
    # the checkpoint sampler. Compared: the ratios |T_n| / sqrt(n) at the
    # middle and the final checkpoint, and the quotients of the final ratio
    # by the middle and by the previous one, which depend on the joint law.
    # At 200 replications only the neighbouring quotient tells independent
    # checkpoints from a walk.
    stats = pytest.importorskip("scipy.stats")
    d, n_max, reps = 3, 1000, 200
    ns = checkpoint_schedule(n_max)
    picks = [next(j for j, n in enumerate(ns) if n >= n_max // 2), len(ns) - 2, len(ns) - 1]
    phi = PhiFamily(kind="parametric", a=0.0, b=0.0)
    records = simulate_paths(CovarianceSequence.constant(np.eye(d)), phi, n_max, reps, SeededStream(2024, 0))
    got = np.array([[rec.checkpoints[j][1] for j in picks] for rec in records])
    rng = np.random.default_rng(20240)
    want = np.empty_like(got)
    for r in range(reps):
        T = np.cumsum(rng.standard_normal((n_max, d)), axis=0)
        want[r] = [np.linalg.norm(T[ns[j] - 1]) / math.sqrt(ns[j]) for j in picks]

    def laws(x):
        mid, prev, final = x.T
        return {"middle": mid, "final": final, "final/middle": final / mid, "final/previous": final / prev}

    got, want = laws(got), laws(want)
    for name in got:
        assert stats.ks_2samp(got[name], want[name]).pvalue > 1e-3, name


def test_sigma_scaling_linearity():
    # doubling Gamma doubles |Gamma_n T_n|/sqrt(n) exactly
    phi = PhiFamily(kind="parametric", a=0.0, b=0.0)
    s1 = simulate_paths(CovarianceSequence.constant(np.eye(2)), phi, 1500, 2, SeededStream(7, 0))
    s2 = simulate_paths(CovarianceSequence.constant(4.0 * np.eye(2)), phi, 1500, 2, SeededStream(7, 0))
    for a, b in zip(s1, s2):
        for (n1, r1, _, _), (n2, r2, _, _) in zip(a.checkpoints, b.checkpoints):
            assert n1 == n2
            assert r2 == pytest.approx(2.0 * r1, rel=1e-12)


def test_empirical_limsup_burn_in_and_rejection():
    rec = PathRecord(rep=0, checkpoints=((10, 1.0, 1.0, False), (1000, 2.0, 1.0, True)))
    v = empirical_limsup([rec])
    assert v == pytest.approx(2.0 / math.sqrt(2 * math.log(math.log(1000))), rel=1e-12)
    with pytest.raises(ValidationError):
        empirical_limsup([])
    with pytest.raises(ValidationError):
        # all checkpoints below the burn-in cut
        empirical_limsup([PathRecord(rep=0, checkpoints=((5, 1.0, 1.0, False),))], burn_in_fraction=10.0)


def test_boundary_ordering_upper_vs_lower_class():
    # a = 6 boundary is crossed no more often than a = 0 at matched paths
    seq = CovarianceSequence.constant(np.eye(2))
    lo = PhiFamily(kind="parametric", a=0.0, b=0.0)
    hi = PhiFamily(kind="parametric", a=6.0, b=0.0)
    recs = simulate_paths(seq, lo, 50_000, 8, SeededStream(13, 0))
    crossings_lo = 0
    crossings_hi = 0
    for rec in recs:
        for n, ratio, phi_lo, exc_lo in rec.checkpoints:
            crossings_lo += exc_lo
            crossings_hi += ratio > hi.value(n, 1.0)
    assert crossings_hi <= crossings_lo
