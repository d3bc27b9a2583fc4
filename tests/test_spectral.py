import math

import numpy as np
import pytest

from gausslil import spectral
from gausslil.errors import ValidationError
from gausslil.integraltest import fluctuation_diagnostic
from gausslil.iterlog import subsequence_index
from gausslil.sequences import (
    CovarianceSequence,
    CutoffFamily,
    DiscreteDistribution,
    delta_k,
)
from gausslil.spectral import (
    CovarianceMatrix,
    eigh,
    operator_norm,
    sqrt_psd,
)


def rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def test_eigh_identity():
    s = eigh(np.eye(3))
    assert np.allclose(s.eigenvalues, [1.0, 1.0, 1.0])
    assert s.d1 == 3
    assert s.groups == ((1.0, 3),)


def test_eigh_diagonal():
    s = eigh(np.diag([4.0, 1.0]))
    assert np.allclose(s.eigenvalues, [2.0, 1.0])  # sqrt scale
    assert s.d1 == 1


def test_eigh_rotated_matches_characteristic_roots():
    # eigenvalues of R diag(4,1) R^T from the quadratic formula on the
    # characteristic polynomial, an independent route
    r = rotation(math.radians(30.0))
    a = r @ np.diag([4.0, 1.0]) @ r.T
    tr, det = a[0, 0] + a[1, 1], a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    disc = math.sqrt(tr * tr - 4 * det)
    roots = sorted([(tr + disc) / 2, (tr - disc) / 2], reverse=True)
    s = eigh(a)
    assert np.allclose(s.eigenvalues**2, roots, atol=1e-10)
    assert np.allclose(s.eigenvalues**2, [4.0, 1.0], atol=1e-10)


def test_eigh_random_against_numpy(rng):
    for d in (2, 3, 5, 8, 12):
        for _ in range(8):
            m = rng.standard_normal((d, d))
            a = m @ m.T
            s = eigh(a)
            ref = np.sort(np.linalg.eigvalsh(a))[::-1]
            assert np.allclose(s.eigenvalues**2, ref, rtol=1e-9, atol=1e-9)
            # reconstruction within 1e-9 * ||A||
            rec = (s.basis * s.eigenvalues**2) @ s.basis.T
            assert operator_norm(rec - a) <= 1e-9 * operator_norm(a)
            # orthonormal basis
            assert np.allclose(s.basis.T @ s.basis, np.eye(d), atol=1e-10)


def test_eigh_deterministic_and_sign_fixed(rng):
    m = rng.standard_normal((5, 5))
    a = m @ m.T
    s1, s2 = eigh(a.copy()), eigh(a.copy())
    assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
    assert np.array_equal(s1.basis, s2.basis)
    for j in range(5):
        col = s1.basis[:, j]
        nz = np.nonzero(col)[0]
        assert col[nz[0]] > 0


def test_eigh_invariant_under_conjugation(rng):
    m = rng.standard_normal((4, 4))
    a = m @ m.T
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    b = q @ a @ q.T
    b = 0.5 * (b + b.T)
    assert np.allclose(eigh(a).eigenvalues, eigh(b).eigenvalues, atol=1e-9)


def test_eigh_rejects_asymmetric():
    with pytest.raises(ValidationError, match="not symmetric"):
        eigh(np.array([[1.0, 0.5], [0.2, 1.0]]))


def test_eigh_rejects_indefinite_but_clamps_noise():
    with pytest.raises(ValidationError, match="not PSD"):
        eigh(np.diag([1.0, -0.5]))
    s = eigh(np.diag([1.0, -1e-12]))  # within clamp, snapped to zero
    assert s.eigenvalues[1] == 0.0


def test_operator_norm_cases():
    assert operator_norm(np.zeros((3, 3))) == 0.0
    assert operator_norm(np.diag([3.0, -1.0])) == pytest.approx(3.0, rel=1e-12)
    # non-symmetric: largest singular value, maximized over the unit circle
    assert operator_norm(np.array([[0.0, 2.0], [0.0, 0.0]])) == pytest.approx(
        2.0, rel=1e-12
    )


def test_weyl_eigenvalue_perturbation(rng):
    for _ in range(20):
        m1 = rng.standard_normal((4, 4))
        m2 = rng.standard_normal((4, 4))
        a = m1 @ m1.T
        b = m2 @ m2.T
        ea = eigh(a).eigenvalues**2
        eb = eigh(b).eigenvalues**2
        assert np.all(np.abs(ea - eb) <= operator_norm(a - b) * (1 + 1e-9))


def test_sqrt_psd_cases(rng):
    assert np.allclose(sqrt_psd(np.eye(3)).entries, np.eye(3))
    assert np.allclose(
        sqrt_psd(np.diag([4.0, 0.25])).entries, np.diag([2.0, 0.5])
    )
    r = rotation(0.7)
    a = r @ np.diag([4.0, 1.0]) @ r.T
    b = sqrt_psd(0.5 * (a + a.T)).entries
    assert operator_norm(b @ b - a) <= 1e-9 * operator_norm(a)
    assert np.allclose(b, r @ np.diag([2.0, 1.0]) @ r.T, atol=1e-9)


def test_sqrt_psd_operator_monotone_inequality(rng):
    # ||sqrt(A) - sqrt(B)||^2 <= ||A - B|| for PSD pairs
    for _ in range(25):
        m1 = rng.standard_normal((3, 3))
        m2 = rng.standard_normal((3, 3))
        a = m1 @ m1.T
        b = m2 @ m2.T
        lhs = operator_norm(sqrt_psd(a).entries - sqrt_psd(b).entries) ** 2
        assert lhs <= operator_norm(a - b) * (1 + 1e-8)


def test_covariance_matrix_validation():
    with pytest.raises(ValidationError):
        CovarianceMatrix(np.array([[1.0, 2.0, 3.0]]))
    with pytest.raises(ValidationError):
        CovarianceMatrix(np.array([[np.inf, 0.0], [0.0, 1.0]]))


# ---- delta_k ---------------------------------------------------------------


def _truncated_example():
    dist = DiscreteDistribution(
        points=np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0], [0.0, -2.0]]),
        probs=np.full(4, 0.25),
    )
    return CovarianceSequence.truncated(dist, CutoffFamily(kind="sqrt_n"))


def test_delta_k_constant_sequence_is_zero():
    seq = CovarianceSequence.constant(np.diag([2.0, 1.0]))
    for k in (1, 2, 5, 9):
        assert delta_k(seq, 1.0, k) == 0.0
    prof = fluctuation_diagnostic(seq, 0.5, [1.0], 12)
    assert np.all(prof.delta_k_values == 0.0)


def test_delta_k_monotone_endpoint_shortcut_matches_scan():
    seq = _truncated_example()
    for k in (1, 2, 3, 4):
        fast = delta_k(seq, 1.0, k)
        slow = delta_k(seq, 1.0, k, force_scan=True)
        assert fast == pytest.approx(slow, abs=1e-14)


def test_delta_k_scan_walks_states_by_bisection(monkeypatch):
    # atoms of norm 1, 2 and 50 under c_n = sqrt(n): the state changes at
    # n = 1, 4 and 2500, so k = 25's window [2360, 2922] holds two states
    # and k = 30's window [6771, 8328] one
    half = np.array([[1.0, 0.0], [0.0, 2.0], [50.0, 0.0]])
    dist = DiscreteDistribution(points=np.concatenate([half, -half]), probs=np.full(6, 1 / 6))
    seq = CovarianceSequence.truncated(dist, CutoffFamily(kind="sqrt_n"))
    state = seq.state
    calls = []

    def counted(n):
        calls.append(n)
        return state(n)

    monkeypatch.setattr(seq, "state", counted)
    for k, n_states in ((25, 2), (30, 1)):
        lo, hi = subsequence_index(1.0, k), subsequence_index(1.0, k + 1)
        calls.clear()
        scan = delta_k(seq, 1.0, k, force_scan=True)
        assert calls and len(calls) <= n_states * (2 + math.log2(hi - lo + 1))
        assert scan == delta_k(seq, 1.0, k)


def test_delta_k_alternating_tabulated():
    a = np.diag([1.0, 1.0])
    b = np.diag([1.3, 1.0])  # ||difference|| = 0.3
    seq = CovarianceSequence.tabulated([a, b] * 6)
    assert delta_k(seq, 1.0, 1) == pytest.approx(0.3, rel=1e-12)


def test_delta_k_window_out_of_range_rejected():
    seq = CovarianceSequence.tabulated([np.eye(2)] * 3)
    with pytest.raises(ValidationError, match="exceeds tabulated range"):
        delta_k(seq, 1.0, 2)  # window [7, 15] beyond length 3


def test_delta_k_invariant_under_common_conjugation(rng):
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    dist = _truncated_example()
    mats = [dist.emit(n) for n in (1, 2, 3, 4, 5, 6, 7, 8)]
    seq_a = CovarianceSequence.tabulated(mats)
    seq_b = CovarianceSequence.tabulated([0.5 * (q @ m @ q.T + (q @ m @ q.T).T) for m in mats])
    for k in (1,):
        assert delta_k(seq_a, 1.0, k) == pytest.approx(delta_k(seq_b, 1.0, k), rel=1e-9)


# ---- the float-list Jacobi against the numpy-slice form it replaced -------


def _slice_jacobi(a, max_sweeps=spectral._MAX_SWEEPS):
    """The cyclic Jacobi sweep as numpy slice updates, the earlier form of _jacobi."""
    d = a.shape[0]
    m = a.copy()
    v = np.eye(d)
    norm = math.sqrt(float(np.sum(a * a)))
    if d == 1 or norm == 0.0:
        return np.diag(m).copy(), v
    threshold = spectral.JACOBI_TOL * norm
    off_mask = ~np.eye(d, dtype=bool)
    for _ in range(max_sweeps):
        off = math.sqrt(float(np.sum(m[off_mask] ** 2)))
        if off <= threshold:
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = m[p, q]
                if apq == 0.0:
                    continue
                theta = (m[q, q] - m[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rp = m[:, p].copy()
                rq = m[:, q].copy()
                m[:, p] = c * rp - s * rq
                m[:, q] = s * rp + c * rq
                rp = m[p, :].copy()
                rq = m[q, :].copy()
                m[p, :] = c * rp - s * rq
                m[q, :] = s * rp + c * rq
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    else:
        raise ValidationError("Jacobi iteration failed to converge")
    return np.diag(m).copy(), v


def _jacobi_cases():
    rng = np.random.default_rng(20261018)
    for d in range(1, 17):
        for kind in range(20):
            g = rng.standard_normal((d, d))
            if kind == 0:  # diagonal
                a = np.diag(rng.standard_normal(d))
            elif kind == 1:  # every eigenvalue tied
                a = 2.0 * np.eye(d)
            elif kind == 2:  # a tied top pair under a rotation
                q, _ = np.linalg.qr(g)
                lam = np.sort(rng.uniform(0.1, 1.0, d))[::-1]
                lam[: min(2, d)] = 1.5
                a = (q * lam) @ q.T
            elif kind == 3:  # a zero row and column
                a = g + g.T
                a[0, :] = a[:, 0] = 0.0
            elif kind == 4:  # rank deficient
                x = rng.standard_normal((d, max(d // 2, 1)))
                a = x @ x.T
            elif kind == 5:
                a = 1e-300 * (g + g.T)
            elif kind == 6:
                a = np.zeros((d, d))
            else:
                a = g + g.T
            yield a


def test_float_list_jacobi_is_bit_identical_to_slice_form():
    cases = list(_jacobi_cases())
    assert len(cases) >= 300
    for a in cases:
        mu, v = spectral._jacobi(a)
        mu_ref, v_ref = _slice_jacobi(a)
        assert np.array_equal(mu, mu_ref) and np.array_equal(v, v_ref)
        assert mu.dtype == mu_ref.dtype and v.shape == v_ref.shape


def test_jacobi_non_convergence_error_is_unchanged(monkeypatch, rng):
    g = rng.standard_normal((6, 6))
    a = g + g.T
    monkeypatch.setattr(spectral, "_MAX_SWEEPS", 2)
    with pytest.raises(ValidationError) as ref:
        _slice_jacobi(a, max_sweeps=2)
    with pytest.raises(ValidationError) as got:
        spectral._jacobi(a)
    assert str(got.value) == str(ref.value) == "Jacobi iteration failed to converge"
