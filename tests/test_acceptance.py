"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Every tolerance is pinned here, not calibrated later.
"""
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import random_weights, spectrum_from_weights

from gausslil.chidensity import (
    WeightedChiSquare,
    chisq_density,
    weighted_density,
    log_weighted_norm_tail,
    log_weighted_shell_probability,
    weighted_norm_tail,
    zolotarev_constant,
    density_lower_bound,
    density_upper_bound,
)
from gausslil.cli import main as cli_main
from gausslil.integraltest import PhiFamily, classify, equivalence_report
from gausslil.montecarlo import SeededStream, empirical_limsup, sample_norm_Y, simulate_paths
from gausslil.regularize import (
    derived_constants,
    log_shell_lower_bound,
    log_tail_lower_bound,
    log_tail_upper_bound,
    lower_shift_sides,
    merged_shell_sides,
    merged_vs_orig_shell_sides,
    orig_shift_sides,
    shell_width,
    upper_shift_sides,
)
from gausslil.sequences import CovarianceSequence, CutoffFamily, DiscreteDistribution, delta_k


@contextmanager
def criterion(num: int, label: str, budget_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] {num:2d} {label}: FAIL ({time.perf_counter() - t0:.2f}s)")
        raise
    elapsed = time.perf_counter() - t0
    status = "PASS" if elapsed <= budget_s else f"PASS but over budget {budget_s}s"
    print(f"[ACCEPTANCE] {num:2d} {label}: {status} ({elapsed:.2f}s)")
    assert elapsed <= budget_s


def _suite_spectra():
    """The shared random suite: 100 spectra, d in 2..5, ratios in [0.05, 0.999]."""
    rng = np.random.default_rng(1002)
    out = []
    for i in range(100):
        d = 2 + i % 4
        out.append(spectrum_from_weights(random_weights(rng, d)))
    return out


SPECTRA = _suite_spectra()


def test_criterion_1_exact_case_recovery():
    with criterion(1, "exact-case recovery (d=2 equal)", 1.0):
        for lam2 in (1.0, 0.49):
            w = WeightedChiSquare.from_weights([lam2, lam2])
            for t_over_l1 in np.linspace(0.0, 37.0, 149):
                t = float(t_over_l1) * math.sqrt(lam2)
                got = weighted_norm_tail(w, t)
                want = math.exp(-t * t / (2 * lam2))
                assert got == pytest.approx(want, rel=1e-10, abs=0)


def test_criterion_2_density_bound_suite():
    with criterion(2, "density bound suite (100 spectra x 200 z)", 300.0):
        upper_viol = lower_viol = 0
        for s in SPECTRA:
            w1 = s.lambda1**2
            w = WeightedChiSquare.from_spectrum(s)
            zs = np.geomspace(0.05 * w1, 150.0 * w1, 200)
            h = weighted_density(w, zs)
            for z, hz in zip(zs, h):
                if hz > density_upper_bound(s, float(z)) * (1 + 1e-7):
                    upper_viol += 1
                lb, thresh = density_lower_bound(s, float(z))
                if z >= thresh and hz < lb * (1 - 1e-7):
                    lower_viol += 1
        assert upper_viol == 0
        assert lower_viol == 0


# thresholds t / lambda_1 past the validity window, out to where the linear
# tails underflow (38.6) and beyond; every side is compared in logs
DEEP_T = (20.0, 30.0, 38.5, 39.0)


def test_criterion_3_tail_sandwich():
    with criterion(3, "two-sided tail/shell product bounds", 300.0):
        sandwich_viol = shell_viol = 0
        for s in SPECTRA:
            dc = derived_constants(s.dim)
            lo_t, hi_t = dc.C1t * s.lambda1, 12.0 * s.lambda1
            if lo_t > hi_t:
                continue  # validity window empty for this dimension
            w = WeightedChiSquare.from_spectrum(s)
            for t in [*np.linspace(lo_t, hi_t, 6), *(r * s.lambda1 for r in DEEP_T)]:
                t = float(t)
                logp = log_weighted_norm_tail(w, t)
                log_shell = log_weighted_shell_probability(w, t, t + shell_width(s, t))
                assert math.isfinite(logp) and math.isfinite(log_shell), t
                if not (log_tail_lower_bound(s, t) - 1e-7 <= logp
                        <= log_tail_upper_bound(s, t) + 1e-7):
                    sandwich_viol += 1
                if log_shell < log_shell_lower_bound(s, t) - 1e-7:
                    shell_viol += 1
        assert sandwich_viol == 0
        assert shell_viol == 0


def test_criterion_4_shift_and_shell_lemmas():
    with criterion(4, "merged-law shift/shell inequalities", 300.0):
        viol = 0
        for s in SPECTRA[::5]:  # 20 spectra; each check costs several quadratures
            d = s.dim
            lam1 = s.lambda1
            from gausslil.chidensity import constants

            c5 = constants(d).C5
            for t in (3 * d * lam1 * 1.05, c5 * lam1, c5 * lam1 * 1.5):
                for delta in (t / 16, t / 4):
                    ll, lr = upper_shift_sides(s, t, delta)
                    viol += ll > lr + 1e-7
                    ll, lr = lower_shift_sides(s, t, delta)
                    viol += ll > lr + 1e-7
            for t in (c5 * lam1, c5 * lam1 * 1.4):
                ll, lr = merged_shell_sides(s, t)
                viol += ll > lr + 1e-7
                ll, lr = merged_vs_orig_shell_sides(s, t)
                viol += ll > lr + 1e-7
                for gamma in (0.0, 1.0, 4.0):
                    ll, lr = orig_shift_sides(s, t, gamma)
                    viol += ll > lr + 1e-7
        assert viol == 0


def test_criterion_5_zolotarev_asymptotic():
    with criterion(5, "asymptotic density prefactor window", 60.0):
        rng = np.random.default_rng(1005)
        checked = 0
        while checked < 30:
            d = int(rng.integers(2, 6))
            s = spectrum_from_weights(
                random_weights(rng, d, ratio_hi=math.sqrt(0.8))
            )
            w1 = s.lambda1**2
            z = 50.0 * w1
            ratio = weighted_density(WeightedChiSquare.from_spectrum(s), z) / (
                zolotarev_constant(s) * chisq_density(s.d1, z / w1) / w1
            )
            assert 0.9 <= ratio <= 1.1
            checked += 1


def test_criterion_6_monte_carlo_cross_validation():
    with criterion(6, "quadrature vs seeded Monte Carlo", 120.0):
        rng = np.random.default_rng(1006)
        pairs = 0
        attempts = 0
        while pairs < 20:
            attempts += 1
            assert attempts < 200
            d = int(rng.integers(2, 6))
            s = spectrum_from_weights(random_weights(rng, d))
            t = float(rng.uniform(0.8, 2.6)) * s.lambda1
            p = weighted_norm_tail(WeightedChiSquare.from_spectrum(s), t)
            if p < 1e-4:
                continue
            n = 1_000_000
            v = sample_norm_Y(s, SeededStream(1006, pairs), n)
            p_hat = float(np.count_nonzero(v >= t)) / n
            se = math.sqrt(p * (1 - p) / n)
            assert abs(p_hat - p) <= 4 * se
            pairs += 1


def test_criterion_7_classifier_kep_family():
    with criterion(7, "classifier on the classical family", 5.0):
        seq = CovarianceSequence.constant(np.array([[2.0]]))
        for a, want in [(0.0, "Diverges"), (2.0, "Diverges"), (3.0, "Diverges"),
                        (4.0, "Converges"), (6.0, "Converges")]:
            got = classify(PhiFamily(kind="parametric", a=a), seq, d1=1, n_terms=32)
            assert got.verdict == want


def test_criterion_8_block_bracketing():
    with criterion(8, "block-sum bracketing over k in [50, 2000]", 60.0):
        seq = CovarianceSequence.constant(np.eye(2) * 1.3)
        for a in (4.0, 2.0):
            phi = PhiFamily(kind="parametric", a=a, b=0.0)
            rep = equivalence_report(phi, seq, alpha=1.0, K=2000, k_min=50)
            ratios_hi = rep.block_sums / rep.subseq_terms
            assert np.all(ratios_hi >= 1e-3)
            assert np.all(ratios_hi <= 1e3)
            assert 1e-3 <= rep.bracketing_low <= rep.bracketing_high <= 1e3
            assert rep.verdicts_agree


def test_criterion_9_truncated_covariance_exactness():
    with criterion(9, "truncated second-moment construction", 5.0):
        dist = DiscreteDistribution(
            points=np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0], [0.0, -2.0]]),
            probs=np.full(4, 0.25),
        )
        seq = CovarianceSequence.truncated(dist, CutoffFamily(kind="sqrt_n"))
        from gausslil.sequences import truncated_covariance

        assert np.array_equal(truncated_covariance(dist, 1.5), np.diag([0.5, 0.0]))
        assert np.array_equal(truncated_covariance(dist, 2.0), np.diag([0.5, 2.0]))
        assert np.array_equal(truncated_covariance(dist, 5.0), np.diag([0.5, 2.0]))
        ns = [1, 2, 3, 4, 7, 20, 100]
        for i, m in enumerate(ns):
            for n in ns[i:]:
                diff = seq.emit(n) - seq.emit(m)
                assert float(np.min(np.linalg.eigvalsh(diff))) >= -1e-12
        total = sum(delta_k(seq, 1.0, k) for k in range(1, 30))
        assert total <= dist.second_moment() + 1e-9


def test_criterion_10_lil_smoke():
    with criterion(10, "desk-scale LIL window (not a theorem check)", 120.0):
        seq = CovarianceSequence.constant(np.eye(2))
        phi = PhiFamily(kind="parametric", a=0.0, b=0.0)
        records = simulate_paths(seq, phi, 1_000_000, 64, SeededStream(1010, 0))
        stat = empirical_limsup(records)
        assert 0.6 <= stat <= 1.4


def test_criterion_11_determinism(tmp_path):
    with criterion(11, "byte-identical artifacts across reruns", 60.0):
        cfgs = {
            "simulate": {
                "sequence": {"kind": "constant", "matrix": [[1.0, 0.2], [0.2, 0.5]]},
                "phi": {"kind": "parametric", "a": 2.0},
                "n_max": 20_000,
                "reps": 4,
            },
            "bounds-verify": {"weights": [1.0, 0.25]},
            "integral-test": {
                "phi": {"kind": "parametric", "a": 4.0},
                "sequence": {"kind": "constant", "matrix": [[1.0]]},
                "n_terms": 500,
            },
        }
        for cmd, cfg in cfgs.items():
            blobs = []
            for run in ("a", "b"):
                base = tmp_path / f"{cmd}-{run}"
                base.mkdir()
                cfg_path = base / "cfg.json"
                cfg_path.write_text(json.dumps(cfg))
                code = cli_main(
                    [cmd, "--config", str(cfg_path), "--out", str(base / "out"),
                     "--seed", "42", "--format", "csv"]
                )
                assert code == 0
                blob = b""
                for f in sorted(base.glob("out*")):
                    blob += f.name.encode() + b"\0" + f.read_bytes() + b"\0"
                blobs.append(blob)
            assert blobs[0] == blobs[1]
