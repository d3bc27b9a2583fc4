import math

import mpmath as mp
import numpy as np
import pytest

from conftest import random_weights, spectrum_from_weights

from gausslil import integraltest, spectral
from gausslil.errors import ValidationError
from gausslil.integraltest import (
    PhiFamily,
    classify,
    equivalence_report,
    fluctuation_diagnostic,
    gamma_n,
    series_term,
    subsequence_index,
)
from gausslil.iterlog import llt, lllt, lt, max_subsequence_k, subsequence_exponent
from gausslil.sequences import CovarianceSequence, CutoffFamily, DiscreteDistribution


def const_seq(weights):
    return CovarianceSequence.constant(np.diag(np.asarray(weights, dtype=float)))


def kep_integral_verdict(p: float) -> str:
    """Independent comparison oracle for sum 1/(n Ln (LLn)^p).

    Substituting u = log t and then v = log u turns the comparison
    integral into int v^{-p} dv, finite at infinity iff p > 1.
    """
    return "Converges" if p > 1.0 else "Diverges"


# ---- phi families -----------------------------------------------------------


def test_phi_parametric_values():
    phi = PhiFamily(kind="parametric", a=4.0, b=0.0)
    n = 100
    expect = math.sqrt(2 * llt(n) + 4 * lllt(n))
    assert phi.value(n, 1.0) == pytest.approx(expect, rel=1e-14)
    assert phi.value(n, 2.0) == pytest.approx(2 * expect, rel=1e-14)


def test_phi_validation():
    with pytest.raises(ValidationError):
        PhiFamily(kind="parametric", a=-1.0)
    with pytest.raises(ValidationError):
        PhiFamily(kind="parametric", a=0.0, b=-3.0)
    with pytest.raises(ValidationError):
        PhiFamily(kind="tabulated", values=(2.0, 1.0))
    with pytest.raises(ValidationError):
        PhiFamily(kind="weird")


def test_phi_clamp_mode():
    phi = PhiFamily(kind="parametric", a=0.0, b=50.0, clamp=True)
    n = 10
    assert phi.value(n, 1.0) == pytest.approx(math.sqrt(3 * llt(n)), rel=1e-14)
    lo = PhiFamily(kind="tabulated", values=(0.01,) * 20, clamp=True)
    assert lo.value(10, 1.0) == pytest.approx(math.sqrt(llt(10)), rel=1e-14)


@pytest.mark.parametrize("clamp", [False, True], ids=["plain", "clamped"])
@pytest.mark.parametrize("a, b", [(0.0, 0.0), (4.0, 0.0), (3.0, -1.0), (0.5, 50.0)])
def test_phi_value_is_bit_identical_to_the_iterated_log_expression(a, b, clamp):
    # LLLn is taken from LLn, which takes the same float operations as lllt(n)
    phi = PhiFamily(kind="parametric", a=a, b=b, clamp=clamp)
    ns = np.concatenate([np.arange(1, 2000), np.geomspace(2000, 1e15, 300).round()])
    for lam1 in (1.0, 0.37, 2.5):
        want = lam1 * lam1 * (2.0 * llt(ns) + a * lllt(ns) + b)
        if clamp:
            want = np.clip(want, lam1 * lam1 * llt(ns), 3.0 * lam1 * lam1 * llt(ns))
        assert np.array_equal(phi.value(ns, lam1), np.sqrt(want))
        for n in (1, 3, 16, 1618, 10**9):
            one = lam1 * lam1 * (2.0 * llt(n) + a * lllt(n) + b)
            if clamp:
                one = float(np.clip(one, lam1 * lam1 * llt(n), 3.0 * lam1 * lam1 * llt(n)))
            assert phi.value(n, lam1) == math.sqrt(one)


def test_phi_tabulated_range():
    phi = PhiFamily(kind="tabulated", values=(1.0, 2.0, 3.0))
    assert phi.value(2, 5.0) == 2.0
    with pytest.raises(ValidationError, match="beyond"):
        phi.value(4, 1.0)


# ---- gamma_n -----------------------------------------------------------------


def test_gamma_n_dimension_one_is_empty_product():
    s = spectrum_from_weights([2.0])
    assert gamma_n(s, 3.0) == 1.0


def test_gamma_n_equal_eigenvalues_take_phi_branch():
    s = spectrum_from_weights([1.0, 1.0, 1.0])
    n = 1000
    phi = math.sqrt(2 * llt(n))
    assert gamma_n(s, phi) == pytest.approx(phi**2, rel=1e-12)  # (phi/lam)^2 = 2LLn


def test_gamma_n_min_branch():
    s = spectrum_from_weights([1.0, 0.19])
    assert gamma_n(s, 3.0) == pytest.approx(min(1 / math.sqrt(0.81), 3.0), rel=1e-12)
    assert gamma_n(s, 3.0) == pytest.approx(1.1111111111111112, rel=1e-12)


def test_gamma_n_bounded_by_phi_power(rng):
    for _ in range(20):
        d = int(rng.integers(1, 6))
        s = spectrum_from_weights(random_weights(rng, d) if d > 1 else [1.0])
        phi = float(rng.uniform(0.5, 6.0)) * s.lambda1
        assert gamma_n(s, phi) <= (phi / s.lambda1) ** (d - 1) * (1 + 1e-12)


# ---- series terms ------------------------------------------------------------


def test_series_term_identity_d2():
    # identity Gamma_n, d = 2, phi^2 = 2LLn: direct formula evaluation
    s = spectrum_from_weights([1.0, 1.0])
    phi = PhiFamily(kind="parametric", a=0.0, b=0.0)
    n = 50
    phin = math.sqrt(2 * llt(n))
    expect = phin / n * phin * math.exp(-phin * phin / 2)  # top-group product = phi
    assert series_term(n, s, phi, d1=2) == pytest.approx(expect, rel=1e-12)


def test_series_term_classical_kep_form():
    # d1 = 1 constant spectrum: term = (phi/(n lam)) e^{-phi^2/2 lam^2}
    lam2 = 2.0
    s = spectrum_from_weights([lam2, 0.5])
    phi = PhiFamily(kind="parametric", a=3.0, b=1.0)
    n = 200
    lam = math.sqrt(lam2)
    phin = phi.value(n, lam)
    expect = phin / (n * lam) * math.exp(-phin**2 / (2 * lam2))
    assert series_term(n, s, phi, d1=1) == pytest.approx(expect, rel=1e-12)


def test_series_term_modes_differ_only_by_extra_factors():
    s = spectrum_from_weights([1.0, 0.5, 0.25])
    phi = PhiFamily(kind="parametric", a=2.0, b=0.0)
    t_top = series_term(100, s, phi, d1=1)
    t_full = series_term(100, s, phi, mode="full-product")
    assert t_full >= t_top  # extra min(...) factors are >= ... bounded below by 1? no
    # the full product adds factors min(gap branch, phi branch) > 0
    assert t_full > 0 and t_top > 0


def test_series_terms_share_one_mode_mapping():
    seq = const_seq([1.0, 0.5, 0.25])
    s = seq.spectrum_at(1)
    phi = PhiFamily(kind="parametric", a=2.0, b=0.0)
    k = 5
    n_k = subsequence_index(1.0, k)
    phin = phi.value(n_k, s.lambda1)
    for mode, upto in (("top-group", s.d1), ("full-product", s.dim)):
        expect = gamma_n(s, phin, upto=upto) / phin * math.exp(-phin**2 / 2)
        rep = equivalence_report(phi, seq, K=k, k_min=k, mode=mode)
        assert rep.subseq_terms[0] == pytest.approx(expect, rel=1e-14)
    for bad in ("top_group", "full"):
        with pytest.raises(ValidationError, match="unknown mode"):
            series_term(100, s, phi, mode=bad)
        with pytest.raises(ValidationError, match="unknown mode"):
            equivalence_report(phi, seq, K=k, k_min=k, mode=bad)


@pytest.mark.parametrize(
    "phi",
    [
        PhiFamily(kind="parametric", a=3.0, b=-1.0),
        PhiFamily(kind="parametric", a=0.0, clamp=True),
        PhiFamily(kind="tabulated", values=tuple(np.linspace(2.0, 4.0, 400))),
    ],
    ids=["parametric", "clamped", "tabulated"],
)
@pytest.mark.parametrize("mode", ["top-group", "full-product"])
def test_series_term_on_index_arrays_matches_scalar_calls(phi, mode):
    s = spectrum_from_weights([1.0, 1.0, 0.49, 0.09])
    ns = np.arange(1, 401)
    terms = series_term(ns, s, phi, d1=2, mode=mode)
    assert terms.shape == ns.shape
    scalar = [series_term(int(n), s, phi, d1=2, mode=mode) for n in ns]
    np.testing.assert_allclose(terms, scalar, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(phi.value(ns, 1.0), [phi.value(int(n), 1.0) for n in ns], rtol=1e-15)


def test_series_terms_nonnegative_partial_sums_monotone():
    s = spectrum_from_weights([1.0, 0.7])
    phi = PhiFamily(kind="parametric", a=2.0, b=0.0)
    seq = const_seq([1.0, 0.7])
    diag = classify(phi, seq, d1=1, n_terms=500)
    assert np.all(diag.terms >= 0)
    assert np.all(np.diff(diag.partial_sums) >= 0)


# ---- subsequence -------------------------------------------------------------


def test_subsequence_index_values():
    assert subsequence_index(1.0, 1) == 2
    assert subsequence_index(1.0, 2) == 7
    assert subsequence_index(1.0, 3) == 15


def test_subsequence_overflow_rejected():
    kmax = max_subsequence_k(1.0)
    with pytest.raises(ValidationError, match="max representable"):
        subsequence_index(1.0, kmax + 1)
    assert subsequence_index(1.0, kmax) > 0


def test_subsequence_log_ratio_approaches_alpha():
    # log(n_{k+1}/n_k) * Lk -> alpha. Exactly, gap * Lk = alpha (1 - 1/Lk)
    # + O(1/Lk^2), so a flat 5% window needs k beyond e^20; the first-order
    # corrected value is within 5% throughout [1e3, 1e5] and the raw ratio
    # must climb monotonically toward alpha.
    for alpha in (1.0, 2.5):
        ratios = []
        for k in (1_000, 10_000, 100_000):
            gap = subsequence_exponent(alpha, k + 1) - subsequence_exponent(alpha, k)
            corrected = gap * lt(k) / (1.0 - 1.0 / lt(k))
            assert corrected == pytest.approx(alpha, rel=0.05)
            ratios.append(gap * lt(k))
        assert ratios[0] < ratios[1] < ratios[2] < alpha


def test_subsequence_strictly_increasing_beyond_k0():
    ns = [subsequence_index(1.0, k) for k in range(1, 400)]
    diffs = np.diff(ns)
    # find k0 after which gaps stay positive
    k0 = 0
    for i, d in enumerate(diffs):
        if d <= 0:
            k0 = i + 1
    assert k0 < 20  # early ties only
    assert np.all(diffs[k0:] > 0)


def test_subseq_term_d1():
    # d = 1: gamma = 1, term = (1/phi) e^{-phi^2/2 lam^2}
    seq = const_seq([1.0])
    phi = PhiFamily(kind="parametric", a=0.0, b=0.0)
    k = 10
    n_k = subsequence_index(1.0, k)
    phin = phi.value(n_k, 1.0)
    expect = (1 / phin) * math.exp(-phin**2 / 2)
    assert equivalence_report(phi, seq, K=k, k_min=k).subseq_terms[0] == pytest.approx(expect, rel=1e-12)


# ---- classifier ---------------------------------------------------------------


def test_classifier_matches_kep_oracle():
    seq = const_seq([1.0, 1.0])  # d1 = 2 identity; but test d1=1 rule via param
    id_seq = const_seq([2.0])
    for a, want in [(0.0, "Diverges"), (2.0, "Diverges"), (3.0, "Diverges"),
                    (4.0, "Converges"), (6.0, "Converges")]:
        phi = PhiFamily(kind="parametric", a=a, b=0.0)
        got = classify(phi, id_seq, d1=1, n_terms=50)
        assert got.verdict == want
        assert got.verdict == kep_integral_verdict((a - 1) / 2)
        assert got.method == "asymptotic"
    crit = classify(PhiFamily(kind="parametric", a=3.0), id_seq, d1=1, n_terms=50)
    assert "critical" in crit.note


def test_classifier_general_d1():
    id3 = const_seq([1.0, 1.0, 1.0])
    assert classify(PhiFamily(kind="parametric", a=5.0), id3, d1=3, n_terms=50).verdict == "Diverges"
    assert classify(PhiFamily(kind="parametric", a=5.5), id3, d1=3, n_terms=50).verdict == "Converges"


def test_classifier_tabulated_without_envelope_inconclusive():
    phi = PhiFamily(kind="tabulated", values=tuple(np.sqrt(np.linspace(2, 9, 400))))
    got = classify(phi, const_seq([1.0, 0.5]), d1=1, n_terms=300)
    assert got.verdict == "Inconclusive"
    assert got.method == "none"
    with_env = PhiFamily(
        kind="tabulated",
        values=tuple(np.sqrt(np.linspace(2, 9, 400))),
        envelope=(4.0, 0.0),
    )
    got2 = classify(with_env, const_seq([1.0, 0.5]), d1=1, n_terms=300)
    assert got2.verdict == "Converges"


def test_classifier_scale_invariance(rng):
    a = 4.0
    w = random_weights(rng, 3)
    phi = PhiFamily(kind="parametric", a=a, b=0.5)
    for c in (0.25, 4.0):
        v1 = classify(phi, const_seq(w), d1=1, n_terms=100).verdict
        v2 = classify(phi, const_seq(c * w), d1=1, n_terms=100).verdict
        assert v1 == v2


def test_classifier_terms_decay_for_fast_tabulated():
    # phi growing faster than any LL scale: terms fall monotonically
    ns = np.arange(1, 300)
    vals = tuple(np.sqrt(np.log(ns + 2.0)) * 2)
    phi = PhiFamily(kind="tabulated", values=vals)
    diag = classify(phi, const_seq([1.0]), d1=1, n_terms=250)
    tail_terms = diag.terms[50:]
    assert np.all(np.diff(tail_terms) <= 1e-15)


# ---- fluctuation diagnostic ----------------------------------------------------


def test_fluctuation_constant_sequence_trivial():
    rep = fluctuation_diagnostic(const_seq([1.0, 0.5]), 1.0, [0.5, 1.0], K=20)
    assert np.all(rep.delta_k_values == 0.0)
    for ps in rep.partial_sums.values():
        assert np.all(ps == 0.0)
    assert "diagnostic" in rep.label


def test_fluctuation_truncated_bounded_by_second_moment():
    dist = DiscreteDistribution(
        points=np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0], [0.0, -2.0]]),
        probs=np.full(4, 0.25),
    )
    seq = CovarianceSequence.truncated(dist, CutoffFamily(kind="sqrt_n"))
    rep = fluctuation_diagnostic(seq, 1.0, [0.0], K=30)
    assert rep.partial_sums[0.0][-1] <= dist.second_moment() + 1e-9


def test_fluctuation_adversarial_trend():
    # Delta_k ~ 1/Lk is not summable for small delta; the last-decade
    # fraction stays well above the summable regime's
    K = 400
    mats = []
    acc = 0.0
    # build a tabulated sequence only for delta_k values; instead feed the
    # diagnostic with a synthetic sequence via tabulated matrices is too
    # large -- check the raw sums directly instead
    ks = np.arange(1, K + 1, dtype=float)
    dk = 1.0 / np.log(np.maximum(ks, math.e))
    small_delta = dk * ks**-0.05
    ps = np.cumsum(small_delta)
    frac = (ps[-1] - ps[K // 10 - 1]) / ps[-1]
    assert frac > 0.5  # most of the mass keeps arriving late


# ---- equivalence ----------------------------------------------------------------


def test_equivalence_constant_spectrum_verdicts():
    # d1 = 1: classical dichotomy at a = 3
    seq1 = const_seq([1.0])
    for a, verdict in [(4.0, "Converges"), (2.0, "Diverges")]:
        phi = PhiFamily(kind="parametric", a=a, b=0.0)
        rep = equivalence_report(phi, seq1, alpha=1.0, K=60, k_min=5)
        assert rep.full_verdict == verdict
        assert rep.subseq_verdict == verdict
        assert rep.verdicts_agree
        assert np.all(rep.block_sums > 0)
        assert 0 < rep.bracketing_low <= rep.bracketing_high < math.inf
    # identity d = 2 (d1 = 2): a = 4 sits on the critical line, a = 6 converges;
    # the two series must agree either way
    seq2 = const_seq([1.0, 1.0])
    for a, verdict in [(4.0, "Diverges"), (6.0, "Converges"), (2.0, "Diverges")]:
        phi = PhiFamily(kind="parametric", a=a, b=0.0)
        rep = equivalence_report(phi, seq2, alpha=1.0, K=60, k_min=5)
        assert rep.full_verdict == verdict
        assert rep.verdicts_agree


def test_equivalence_d1_reduction():
    # d = 1: both series reduce to the classical pair
    seq = const_seq([1.0])
    phi = PhiFamily(kind="parametric", a=4.0, b=0.0)
    rep = equivalence_report(phi, seq, alpha=1.0, K=40, k_min=3)
    assert rep.verdicts_agree
    for k, b in zip(rep.ks, rep.subseq_terms):
        n_k = subsequence_index(1.0, int(k))
        phin = phi.value(n_k, 1.0)
        assert b == pytest.approx((1 / phin) * math.exp(-phin**2 / 2), rel=1e-12)


def test_equivalence_exact_vs_integral_methods_agree():
    # blocks computed exactly and by integral approximation must agree
    # where both are available
    seq = const_seq([1.0, 1.0])
    phi = PhiFamily(kind="parametric", a=4.0, b=0.0)
    r_exact = equivalence_report(phi, seq, K=25, k_min=20, exact_block_limit=10**9)
    r_approx = equivalence_report(phi, seq, K=25, k_min=20, exact_block_limit=1)
    assert r_exact.block_methods == ("exact",) * 6
    assert r_approx.block_methods == ("integral",) * 6
    for a, b in zip(r_exact.block_sums, r_approx.block_sums):
        assert b == pytest.approx(a, rel=2e-3)


def _mp_series_term(n, variances, a):
    """The full-product series term at real n for Gamma^2 = diag(variances), in
    mpmath, with the regularized logs."""
    lam = [mp.sqrt(v) for v in variances]
    lam1 = lam[0]
    lllt = mp.log(mp.log(mp.log(n)))
    phi = lam1 * mp.sqrt(2 * mp.log(mp.log(n)) + a * max(lllt, 1))
    gap = mp.mpf(1)
    for li in lam[1:]:
        gap *= phi / lam1 if li == lam1 else min(lam1 / mp.sqrt(lam1**2 - li**2), phi / lam1)
    return phi / (n * lam1) * gap * mp.exp(-phi * phi / (2 * lam1 * lam1))


@pytest.mark.parametrize("variances", [[1.0], [1.0, 1.0, 0.36]], ids=["d1", "d3"])
def test_integral_blocks_resolve_the_lllt_kink(variances):
    # LLLn = log(LLn v e) has a kink at n = e^{e^e}; the blocks that straddle
    # it match mpmath's Euler-Maclaurin sum, its integral split at the kink
    phi = PhiFamily(kind="parametric", a=4.0)
    seq = const_seq(variances)
    with mp.workdps(30):
        kink = mp.e ** mp.e
        for alpha in (0.5, 1.0, 2.0):
            k = 1
            while subsequence_index(alpha, k + 1) < mp.exp(kink):
                k += 1
            rep = equivalence_report(phi, seq, alpha=alpha, K=k, k_min=k)
            lo, hi = mp.mpf(int(rep.n_ks[0])), mp.mpf(subsequence_index(alpha, k + 1))
            assert rep.block_methods == ("integral",) and mp.log(lo) < kink < mp.log(hi)
            body = mp.quad(
                lambda u: _mp_series_term(mp.exp(u), variances, 4) * mp.exp(u), [mp.log(lo), kink, mp.log(hi)]
            )
            want = body + (_mp_series_term(hi, variances, 4) - _mp_series_term(lo, variances, 4)) / 2
            assert rep.block_sums[0] == pytest.approx(float(want), rel=1e-10, abs=0)


def _zero_prefix_seq(cutoff):
    # atoms at +-(0, 2): Gamma_n = 0 until c_n reaches 2
    points = np.array([[0.0, 2.0], [0.0, -2.0]])
    return CovarianceSequence.truncated(DiscreteDistribution(points=points, probs=np.full(2, 0.5)), cutoff)


def test_zero_prefix_terms_vanish():
    seq = _zero_prefix_seq(CutoffFamily(kind="sqrt_n"))
    phi = PhiFamily(kind="parametric", a=4.0)
    diag = classify(phi, seq, 1, n_terms=100)
    assert diag.verdict == "Converges"
    assert np.all(diag.terms[:3] == 0.0)
    np.testing.assert_array_equal(diag.terms[3:], series_term(diag.ns[3:], seq.limit_spectrum(), phi, d1=1))
    rep = equivalence_report(phi, seq, K=60)
    assert rep.n_ks[0] == 2 and rep.subseq_terms[0] == 0.0 and np.all(rep.subseq_terms[1:] > 0)
    assert rep.bracketing_low == pytest.approx(1.49, abs=0.005)
    assert rep.bracketing_high == pytest.approx(8.70, abs=0.005)


def test_zero_limit_rejected():
    seq = _zero_prefix_seq(CutoffFamily(kind="constant", value=1.0))
    phi = PhiFamily(kind="parametric", a=4.0)
    with pytest.raises(ValidationError, match="zero matrix"):
        classify(phi, seq, 1)
    with pytest.raises(ValidationError, match="zero matrix"):
        equivalence_report(phi, seq, K=10)


def test_block_and_subsequence_terms_share_d1():
    # diag(1, 0.25): the i = 2 factor takes its gap branch 1/sqrt(0.75) at
    # every n, so d1 = 2 scales a_k and b_k alike and leaves their ratios
    seq = const_seq([1.0, 0.25])
    phi = PhiFamily(kind="parametric", a=4.0)
    one, two = (equivalence_report(phi, seq, K=60, k_min=5, mode="top-group", d1=d1) for d1 in (1, 2))
    assert two.bracketing_low == pytest.approx(one.bracketing_low, rel=1e-12)
    assert two.bracketing_high == pytest.approx(one.bracketing_high, rel=1e-12)


def test_exact_block_sums_match_termwise_sums():
    # atoms at norms 1, 2 and 3: the blocks cross state changes
    half = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 0.0]])
    dist = DiscreteDistribution(points=np.concatenate([half, -half]), probs=np.full(6, 1 / 6))
    seq = CovarianceSequence.truncated(dist, CutoffFamily(kind="sqrt_n"))
    phi = PhiFamily(kind="parametric", a=4.0)
    rep = equivalence_report(phi, seq, K=20, mode="full-product")
    assert set(rep.block_methods) <= {"exact", "empty"}
    n_ks = list(rep.n_ks) + [int(subsequence_index(1.0, 21))]
    for j, total in enumerate(rep.block_sums):
        lo, hi = n_ks[j], n_ks[j + 1]
        termwise = math.fsum(
            series_term(n, seq.spectrum_at(n), phi, mode="full-product") for n in range(lo + 1, hi + 1)
        )
        assert total == pytest.approx(termwise, rel=1e-12, abs=0.0)


def test_long_runs_are_evaluated_in_pieces_without_changing_terms():
    # atoms at norms 1, 2 and 3 enter near n = 1e4, 4e4 and 9e4 under
    # 0.01 sqrt(n): a zero prefix, then runs longer and shorter than a piece
    half = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 0.0]])
    dist = DiscreteDistribution(points=np.concatenate([half, -half]), probs=np.full(6, 1 / 6))
    seq = CovarianceSequence.truncated(dist, CutoffFamily(kind="sqrt_n", scale=0.01))
    phi = PhiFamily(kind="parametric", a=4.0)
    diag = classify(phi, seq, 1, n_terms=100_000)
    states = np.array([seq.state(n) for n in range(1, 100_001)])
    assert np.bincount(states).max() > integraltest._TERM_CHUNK
    for state in np.unique(states):
        ns = np.flatnonzero(states == state) + 1
        s = seq.spectrum_at(int(ns[0]))
        want = series_term(ns, s, phi, d1=1) if state else np.zeros(ns.size)
        np.testing.assert_array_equal(diag.terms[ns - 1], want)


@pytest.mark.parametrize("kind", ["truncated", "constant"])
def test_classify_decomposes_once_per_state(monkeypatch, kind):
    if kind == "truncated":
        # atoms at norms 1, 2 and 3: three states over n <= 5000 under sqrt(n)
        half = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 0.0]])
        dist = DiscreteDistribution(points=np.concatenate([half, -half]), probs=np.full(6, 1 / 6))
        seq = CovarianceSequence.truncated(dist, CutoffFamily(kind="sqrt_n"))
    else:
        seq = const_seq([2.0, 1.0])
    calls = []
    eigh = spectral.eigh
    monkeypatch.setattr(spectral, "eigh", lambda a: calls.append(1) or eigh(a))
    diag = classify(PhiFamily(kind="parametric", a=4.0), seq, 1, n_terms=5000)
    assert diag.ns.size == 5000
    assert len(calls) == len({seq.state(n) for n in range(1, 5001)}) == (3 if kind == "truncated" else 1)
