"""Small dense symmetric-matrix linear algebra, and the weighted chi-square
law that a spectrum defines.

The eigensolver is a cyclic Jacobi sweep, chosen for unconditional
robustness on the tiny symmetric matrices this package works with
(d <= 16). Output order and basis signs are fixed so identical inputs
give bit-identical results.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ValidationError

SYMMETRY_RTOL = 1e-12
EIGEN_CLAMP_RTOL = 1e-10
GROUP_RTOL = 1e-8
JACOBI_TOL = 1e-14
_MAX_SWEEPS = 64


@dataclass(frozen=True)
class CovarianceMatrix:
    """Symmetric non-negative definite matrix (the squared scale)."""

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValidationError(f"expected a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValidationError("matrix entries must be finite")
        check_symmetric(a)
        a = 0.5 * (a + a.T)
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class Spectrum:
    """Descending eigenvalues of the scale matrix (std-deviation units).

    ``eigenvalues`` are the lambda_i of Gamma, i.e. square roots of the
    eigenvalues of the input Gamma^2. ``groups`` collects them into
    (value, multiplicity) pairs under the relative grouping tolerance;
    ``d1`` is the multiplicity of the top group.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray  # columns are the eigenvectors
    groups: tuple[tuple[float, int], ...]
    d1: int
    # merge count -> (eigenvalues, K, law), filled by merged()
    _merged: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    @cached_property
    def lambda1(self) -> float:
        return float(self.eigenvalues[0])

    @cached_property
    def lambda1_sq(self) -> float:
        return self.lambda1**2

    def top(self) -> float:
        """lambda_1, or a ValidationError where it is 0 (Gamma = 0)."""
        if self.lambda1 <= 0:
            raise ValidationError("largest eigenvalue must be positive")
        return self.lambda1

    @cached_property
    def root(self) -> np.ndarray:
        """V diag(lambda) V^T, the PSD square root of the input Gamma^2."""
        return (self.basis * self.eigenvalues) @ self.basis.T

    def weights(self) -> np.ndarray:
        """lambda_i^2, descending."""
        return self.eigenvalues**2

    @cached_property
    def law(self) -> WeightedChiSquare:
        """The weighted chi-square law of |Y|^2, weights lambda_i^2."""
        return WeightedChiSquare.from_weights(self.weights())

    @cached_property
    def top_gaps(self) -> tuple[float, ...]:
        """lambda_1^2 - lambda_i^2, i = 1..d, non-decreasing."""
        w = self.weights()
        return tuple((w[0] - w).tolist())

    def merged(self, count: int) -> tuple[tuple[float, ...], float, WeightedChiSquare]:
        """(eigenvalues, K, law) of lambda_1 repeated count times, then
        lambda_{count+1..d}, with its Zolotarev constant K; built once per count."""
        held = self._merged.get(count)
        if held is None:
            lam1 = self.lambda1
            eig = tuple([lam1] * count) + tuple(float(x) for x in self.eigenvalues[count:])
            k = math.exp(log_zolotarev((np.asarray(eig[count:]) / lam1) ** 2))
            law = WeightedChiSquare.from_weights(x * x for x in eig)
            held = self._merged.setdefault(count, (eig, k, law))
        return held

    @cached_property
    def _log_gap_factors(self) -> tuple[float, ...]:
        """log(lambda_1/(lambda_1^2 - lambda_i^2)^{1/2}), i = 2..d; +inf on ties."""
        lam1 = self.lambda1
        return tuple(math.log(lam1 / math.sqrt(g)) if g > 0 else math.inf for g in self.top_gaps[1:])

    @cached_property
    def log_zolotarev_constant(self) -> float:
        """log K(Gamma^2) over the eigenvalues past the top group; needs lambda_1 > 0."""
        return log_zolotarev(self.weights()[self.d1 :] / self.lambda1**2)

    @cached_property
    def log_leading(self) -> tuple[float, float]:
        """(log c, p) of the density's leading term (see ``log_leading``); needs lambda_1 > 0."""
        return log_leading(self.log_zolotarev_constant, self.d1)

    @cached_property
    def zolotarev_constant(self) -> float:
        """K(Gamma^2) = exp(log K); needs lambda_1 > 0."""
        return math.exp(self.log_zolotarev_constant)

    @cached_property
    def density_lower_threshold(self) -> float:
        """2 d1 sum lambda_i^2 / (1 - lambda_{d1+1}^2/lambda_1^2), where the
        density lower bound starts to hold; +inf when every eigenvalue ties
        the top."""
        if self.d1 >= self.dim:
            return math.inf
        w = self.weights()
        return 2.0 * self.d1 * float(w.sum()) / (1.0 - w[self.d1] / w[0])

    def log_gap_product(self, x, upto: int | None = None):
        """sum_{i=2}^{upto} log min(lambda_1/(lambda_1^2 - lambda_i^2)^{1/2}, x/lambda_1).

        The eigenvalue-gap product of the tail bounds (x = t) and of the
        integral-test series (x = phi_n); i = 2..d by default, elementwise
        when x is an array. Equal eigenvalues take the x/lambda_1 branch.
        Needs lambda_1 > 0.
        """
        stop = self.dim if upto is None else min(upto, self.dim)
        factors = self._log_gap_factors[: max(stop - 1, 0)]
        if isinstance(x, np.ndarray):
            log_x = np.log(x / self.lambda1)
            return sum((np.minimum(g, log_x) for g in factors), np.zeros_like(log_x))
        total = 0.0
        if factors:
            log_x = math.log(x / self.lambda1)
            for g in factors:
                total += min(g, log_x)
        return total


@dataclass(frozen=True)
class WeightedChiSquare:
    """Weights lambda_i^2 of the quadratic form, descending, zeros dropped."""

    weights: tuple[float, ...]

    @classmethod
    def from_weights(cls, weights) -> "WeightedChiSquare":
        w = sorted((float(x) for x in weights), reverse=True)
        if not w:
            raise ValidationError("weight list is empty")
        if any(x < 0 or not math.isfinite(x) for x in w):
            raise ValidationError(f"weights must be finite and >= 0: {w}")
        pos = tuple(x for x in w if x > 0)
        if not pos:
            raise ValidationError("all weights are zero")
        return cls(weights=pos)

    @classmethod
    def from_spectrum(cls, s: Spectrum) -> "WeightedChiSquare":
        """The spectrum's own law, ``s.law``."""
        return s.law

    @property
    def lambda1_sq(self) -> float:
        return self.weights[0]

    def normalized(self) -> tuple[float, ...]:
        """w_i / lambda_1^2, computed once per instance: the engine cache's key."""
        return self._normalized

    @cached_property
    def _normalized(self) -> tuple[float, ...]:
        w1 = self.weights[0]
        return tuple(x / w1 for x in self.weights)


def log_zolotarev(rho2) -> float:
    """log K = -1/2 sum log(1 - rho_i^2), the log of Zolotarev's constant.

    rho_i^2 = lambda_i^2/lambda_1^2 over the indices past the caller's top group.
    """
    return -0.5 * float(np.sum(np.log1p(-np.asarray(rho2, dtype=float))))


def log_leading(log_k: float, d1: int) -> tuple[float, float]:
    """(log c, p) of the leading term K f_{d1}(x) e^{x/2} = c x^p of the
    scaled density of |Y|^2 / lambda_1^2: c = K C0(d1), C0(d1) = 2^{-d1/2} /
    Gamma(d1/2), as its log, p = d1/2 - 1."""
    return log_k + (-0.5 * d1 * math.log(2.0) - math.lgamma(0.5 * d1)), 0.5 * d1 - 1.0


def check_symmetric(a: np.ndarray) -> None:
    """Reject matrices whose asymmetry exceeds SYMMETRY_RTOL relative to max |A|."""
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    asym = float(np.max(np.abs(a - a.T))) if a.size else 0.0
    if asym > SYMMETRY_RTOL * max(scale, 1e-300):
        raise ValidationError(
            f"matrix is not symmetric: max |A - A^T| = {asym:.3e} "
            f"exceeds {SYMMETRY_RTOL:.1e} * max|A| = {SYMMETRY_RTOL * scale:.3e}"
        )


def _jacobi(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi diagonalization of a symmetric matrix.

    Sweeps (p, q) pairs in fixed row-major order until the off-diagonal
    Frobenius mass falls below JACOBI_TOL * ||A||_F. The matrix and the
    basis are lists of float rows. Each rotation turns columns p and q of
    the matrix, then rows p and q of the result, then basis columns p and
    q, each entry pair (x, y) into (c x - s y, s x + c y).
    """
    d = a.shape[0]
    norm = math.sqrt(float(np.sum(a * a)))
    if d == 1 or norm == 0.0:
        return np.diag(a).copy(), np.eye(d)
    m = a.tolist()
    v = np.eye(d).tolist()
    threshold = JACOBI_TOL * norm
    off_mask = ~np.eye(d, dtype=bool)
    for _ in range(_MAX_SWEEPS):
        off = math.sqrt(float(np.sum(np.array(m)[off_mask] ** 2)))
        if off <= threshold:
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                mp, mq = m[p], m[q]
                apq = mp[q]
                if apq == 0.0:
                    continue
                theta = (mq[q] - mp[p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                for row in m:
                    x, y = row[p], row[q]
                    row[p] = c * x - s * y
                    row[q] = s * x + c * y
                m[p] = [c * x - s * y for x, y in zip(mp, mq)]
                m[q] = [s * x + c * y for x, y in zip(mp, mq)]
                for row in v:
                    x, y = row[p], row[q]
                    row[p] = c * x - s * y
                    row[q] = s * x + c * y
    else:
        raise ValidationError("Jacobi iteration failed to converge")
    return np.array([m[i][i] for i in range(d)]), np.array(v)


def group_descending(lams, rtol: float) -> tuple[tuple[float, int], ...]:
    """(first value, count) runs: a value within rtol * lams[0] of a run's first joins it."""
    tol = rtol * max(float(lams[0]), 1e-300)
    groups: list[list[float]] = [[float(lams[0])]]
    for lam in lams[1:]:
        if groups[-1][0] - float(lam) <= tol:
            groups[-1].append(float(lam))
        else:
            groups.append([float(lam)])
    return tuple((g[0], len(g)) for g in groups)


def eigh(a: CovarianceMatrix | np.ndarray) -> Spectrum:
    """Spectrum of a covariance matrix: eigenvalues of its PSD square root.

    Deterministic: fixed sweep order, descending stable sort, and sign
    convention that the first nonzero component of each basis vector is
    positive. Eigenvalues of Gamma^2 below the clamp tolerance are snapped
    to zero; anything more negative is rejected.
    """
    if not isinstance(a, CovarianceMatrix):
        a = CovarianceMatrix(np.asarray(a, dtype=float))
    mu, v = _jacobi(a.entries)
    scale = float(np.max(np.abs(mu))) if mu.size else 0.0
    floor = -EIGEN_CLAMP_RTOL * max(scale, 1e-300)
    if np.any(mu < floor):
        raise ValidationError(
            f"matrix is not PSD: eigenvalue {float(mu.min()):.6e} below "
            f"clamp threshold {floor:.3e}"
        )
    mu = np.maximum(mu, 0.0)
    order = np.argsort(-mu, kind="stable")
    mu = mu[order]
    v = v[:, order]
    for j in range(v.shape[1]):
        col = v[:, j]
        nz = np.nonzero(col)[0]
        if nz.size and col[nz[0]] < 0:
            v[:, j] = -col
    lams = np.sqrt(mu)
    lams.setflags(write=False)
    v.setflags(write=False)
    groups = group_descending(lams, GROUP_RTOL)
    return Spectrum(eigenvalues=lams, basis=v, groups=groups, d1=groups[0][1])


def operator_norm(a: np.ndarray) -> float:
    """Largest singular value, sup_{|v| <= 1} |Av|."""
    a = np.asarray(a, dtype=float)
    if a.size == 0 or not np.any(a):
        return 0.0
    mu, _ = _jacobi(a.T @ a)
    return math.sqrt(max(float(mu.max()), 0.0))


def sqrt_psd(a: CovarianceMatrix | np.ndarray) -> CovarianceMatrix:
    """Symmetric PSD square root B with B^2 = A."""
    b = eigh(a).root
    return CovarianceMatrix(0.5 * (b + b.T))
