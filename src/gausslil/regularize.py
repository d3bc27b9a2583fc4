"""Eigenspace-merging regularization and the resulting tail/shell bounds.

For a threshold t, eigenvalues whose squared gap to the top is at most
4 d^2 lambda_1^4 / t^2 are snapped to lambda_1, making the top eigenspace
exactly degenerate. The merged law dominates the original one and admits
two-sided tail bounds whose d-dependent constants are derived here by
tracing the proofs; the inequalities are the contract, not the constants'
tightness. Lower-bound constants contain e^{-16 d^3} factors that
underflow float64 for d >= 3, so every bound is computed on the log scale
and its linear form is the exponential of that (0.0 once it underflows).
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .chidensity import (
    constants,
    log_weighted_norm_tail,
    log_weighted_shell_probability,
    weighted_density,
)
from .errors import ValidationError
from .spectral import Spectrum, WeightedChiSquare

__all__ = [
    "RegularizedSpectrum",
    "DerivedConstants",
    "d_tilde",
    "regularized",
    "derived_constants",
    "tail_upper_bound",
    "tail_lower_bound",
    "shell_lower_bound",
    "log_product_factor",
    "density_comparison_check",
]

_REL_SLACK = 1e-7  # numerical slack when checking strict inequalities


@dataclass(frozen=True)
class RegularizedSpectrum:
    """Merged spectrum: lambda_1 repeated d_tilde times, then the rest.

    ``law`` is the merged law that the spectrum holds for d_tilde.
    """

    t: float
    d_tilde: int
    eigenvalues: tuple[float, ...]
    K_t: float
    law: WeightedChiSquare = field(compare=False, repr=False)

    def weights(self) -> WeightedChiSquare:
        return self.law


@dataclass(frozen=True)
class DerivedConstants:
    """Constants of the two-sided product bounds, traced from the proofs.

    C1t gates validity (t >= C1t * lambda_1); C2t/C3t scale the upper and
    lower tail bounds, C4t/C5t the shifted-tail-vs-shell comparison, and
    C6t the shell lower bound. Logs are primary: exp(log_C3t) underflows
    to 0.0 from d = 3 on.
    """

    d: int
    C1t: float
    log_C2t: float
    log_C3t: float
    log_C4t: float
    C5t: float
    log_C6t: float


@lru_cache(maxsize=None)
def derived_constants(d: int) -> DerivedConstants:
    c = constants(d)
    log_c2t = c.log_C2 + math.log(c.C3) + (d - 1) * math.log(2 * d)
    log_c3t = (
        c.log_C1 - math.log(4.0) - d * math.log(2.0) - d * math.log(d) - 16.0 * d**3 - math.log(2.0)
    )
    log_c4t = math.log(12.0) + math.log(c.C3) + 16.0 * d**3
    return DerivedConstants(
        d=d,
        C1t=c.C5,
        log_C2t=log_c2t,
        log_C3t=log_c3t,
        log_C4t=log_c4t,
        C5t=c.beta,
        log_C6t=log_c3t - log_c4t,
    )


def d_tilde(s: Spectrum, t: float) -> int:
    """max{1 <= i <= d : lambda_1^2 - lambda_i^2 <= 4 d^2 lambda_1^4 / t^2}."""
    lam1 = s.top()
    d = s.dim
    if not t >= 3 * d * lam1:
        raise ValidationError(
            f"regularization assumes t >= 3 d lambda_1 = {3 * d * lam1:.6g}, got {t}"
        )
    # the gaps are non-decreasing, so this counts those at or below thresh
    return bisect.bisect_right(s.top_gaps, 4.0 * d * d * lam1**4 / (t * t))


def regularized(s: Spectrum, t: float) -> RegularizedSpectrum:
    """Merged spectrum at threshold t with its Zolotarev constant K_t."""
    dt = d_tilde(s, t)
    eigenvalues, k_t, law = s.merged(dt)
    return RegularizedSpectrum(t=t, d_tilde=dt, eigenvalues=eigenvalues, K_t=k_t, law=law)


def log_product_factor(s: Spectrum, t: float) -> float:
    """log of prod_{i=2}^d {l1/(l1^2-l_i^2)^{1/2} ^ t/l1} * (l1/t) e^{-t^2/2 l1^2}.

    The scale-invariant shape shared by all four bounds of the tail
    theorem; equal-eigenvalue factors take the t/lambda_1 branch (a/0 is
    read as +infinity).
    """
    lam1 = _top_for(s, t)
    return s.log_gap_product(t) + math.log(lam1 / t) - t * t / (2.0 * lam1 * lam1)


def _top_for(s: Spectrum, t: float) -> float:
    """lambda_1, for a threshold t > 0 (NaN fails) and lambda_1 > 0."""
    if not t > 0:
        raise ValidationError(f"threshold must be > 0, got {t}")
    return s.top()


def _check_valid_t(s: Spectrum, t: float) -> DerivedConstants:
    """The validity gate t >= C1t lambda_1 (C1t = C5) of the bounds and lemmas."""
    dc = derived_constants(s.dim)
    lam1 = s.top()
    if not t >= dc.C1t * lam1:
        raise ValidationError(
            f"bound valid for t >= C1t*lambda_1 = {dc.C1t * lam1:.6g}, got {t}"
        )
    return dc


def _check_gamma(s: Spectrum, t: float, gamma: float) -> None:
    top = t * t / (4.0 * s.lambda1**2)
    if not 0 <= gamma < top:
        raise ValidationError(
            f"gamma must lie in [0, t^2/(4 lambda_1^2)) = [0, {top:.6g}), got {gamma}"
        )


def _check_delta(t: float, delta: float) -> None:
    if not 0 < delta <= t / 4.0:
        raise ValidationError(f"delta must lie in (0, t/4], got {delta}")


def log_tail_upper_bound(s: Spectrum, t: float) -> float:
    """log of the upper bound on P{|Y| >= t}, for t >= C1t * lambda_1."""
    return _check_valid_t(s, t).log_C2t + log_product_factor(s, t)


def log_tail_lower_bound(s: Spectrum, t: float) -> float:
    """log of the lower bound on P{|Y| >= t}, for t >= C1t * lambda_1."""
    return _check_valid_t(s, t).log_C3t + log_product_factor(s, t)


def log_shell_lower_bound(s: Spectrum, t: float) -> float:
    """log of the lower bound on P{t <= |Y| <= t + C5t lambda_1^2/t}."""
    return _check_valid_t(s, t).log_C6t + log_product_factor(s, t)


def tail_upper_bound(s: Spectrum, t: float) -> float:
    """Upper bound on P{|Y| >= t} for t >= C1t * lambda_1."""
    return math.exp(log_tail_upper_bound(s, t))


def tail_lower_bound(s: Spectrum, t: float) -> float:
    """Lower bound on P{|Y| >= t}; 0.0 when it underflows."""
    return math.exp(log_tail_lower_bound(s, t))


def shell_lower_bound(s: Spectrum, t: float) -> float:
    """Lower bound on P{t <= |Y| <= t + C5t lambda_1^2/t}; 0.0 when it underflows."""
    return math.exp(log_shell_lower_bound(s, t))


def shell_width(s: Spectrum, t: float) -> float:
    """C5t * lambda_1^2 / t, the shell width used by the bounds."""
    return derived_constants(s.dim).C5t * _top_for(s, t) ** 2 / t


def shifted_tail_vs_shell_log(
    s: Spectrum, t: float, gamma: float
) -> tuple[float, float]:
    """(log lhs, log rhs) of P{|Y| >= t - g l1^2/t} <= C4t e^g P{t <= |Y| <= t + C5t l1^2/t}."""
    dc = _check_valid_t(s, t)
    _check_gamma(s, t, gamma)
    lhs = log_weighted_norm_tail(s.law, t - gamma * s.lambda1**2 / t)
    shell = log_weighted_shell_probability(s.law, t, t + shell_width(s, t))
    return lhs, dc.log_C4t + gamma + shell


# ---------------------------------------------------------------------------
# Inequality evaluators for the merged law (log scale throughout)
# ---------------------------------------------------------------------------


def upper_shift_sides(s: Spectrum, t: float, delta: float) -> tuple[float, float]:
    """(log lhs, log rhs) of P{|Y_t| >= t+d} <= 4 C3 e^{d/4} e^{-td/l1^2} P{|Y_t| >= t}."""
    _check_delta(t, delta)
    w = regularized(s, t).weights()
    c3 = constants(s.dim).C3
    rhs = (
        math.log(4.0 * c3)
        + s.dim / 4.0
        - t * delta / s.lambda1**2
        + log_weighted_norm_tail(w, t)
    )
    return log_weighted_norm_tail(w, t + delta), rhs


def lower_shift_sides(s: Spectrum, t: float, delta: float) -> tuple[float, float]:
    """(log lhs, log rhs) of P{|Y_t| >= t-d} <= 6 C3 e^{td/l1^2} P{|Y_t| >= t}."""
    _check_delta(t, delta)
    w = regularized(s, t).weights()
    c3 = constants(s.dim).C3
    rhs = math.log(6.0 * c3) + t * delta / s.lambda1**2 + log_weighted_norm_tail(w, t)
    return log_weighted_norm_tail(w, t - delta), rhs


def merged_shell_sides(s: Spectrum, t: float) -> tuple[float, float]:
    """(log lhs, log rhs) of P{|Y_t| >= t} <= 2 P{t <= |Y_t| <= t + beta/t}."""
    _check_valid_t(s, t)
    w = regularized(s, t).weights()
    rhs = math.log(2.0) + log_weighted_shell_probability(w, t, t + shell_width(s, t))
    return log_weighted_norm_tail(w, t), rhs


def orig_shift_sides(s: Spectrum, t: float, gamma: float) -> tuple[float, float]:
    """(log lhs, log rhs) of P{|Y| >= t - g l1^2/t} <= 6 C3 e^g P{|Y_t| >= t}."""
    _check_valid_t(s, t)
    _check_gamma(s, t, gamma)
    lhs = log_weighted_norm_tail(s.law, t - gamma * s.lambda1**2 / t)
    merged = log_weighted_norm_tail(regularized(s, t).weights(), t)
    return lhs, math.log(6.0 * constants(s.dim).C3) + gamma + merged


def merged_vs_orig_shell_sides(s: Spectrum, t: float) -> tuple[float, float]:
    """(log lhs, log rhs) of P{|Y_t| >= t} <= 2 e^{16 d^3} P{t <= |Y| <= t + beta/t}."""
    _check_valid_t(s, t)
    lhs = log_weighted_norm_tail(regularized(s, t).weights(), t)
    shell = log_weighted_shell_probability(s.law, t, t + shell_width(s, t))
    return lhs, math.log(2.0) + 16.0 * s.dim**3 + shell


# ---------------------------------------------------------------------------
# Density comparison report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonRow:
    z: float
    density: float
    merged_density: float
    lower_factor: float
    lower_ok: bool
    domination_ok: bool


@dataclass(frozen=True)
class ComparisonReport:
    t: float
    d_tilde: int
    rows: tuple[ComparisonRow, ...]

    @property
    def violations(self) -> list[int]:
        return [
            i
            for i, r in enumerate(self.rows)
            if not (r.lower_ok and r.domination_ok)
        ]


def density_comparison_check(s: Spectrum, t: float, zgrid) -> ComparisonReport:
    """Check h(z) >= h_t(z) e^{-8 d^3 z / t^2} and merged-tail domination.

    Violations are collected, not raised; tests treat a non-empty
    violation list as failure. Needs t >= 3 d lambda_1, as the
    regularization does.
    """
    d = s.dim
    reg = regularized(s, t)
    w = s.law
    wt = reg.law
    rows = []
    for z in np.asarray(zgrid, dtype=float):
        h = float(weighted_density(w, z))
        ht = float(weighted_density(wt, z))
        factor = math.exp(-8.0 * d**3 * z / (t * t))
        lower_ok = h >= ht * factor * (1.0 - _REL_SLACK)
        dom_ok = log_weighted_norm_tail(wt, math.sqrt(z)) >= log_weighted_norm_tail(
            w, math.sqrt(z)
        ) + math.log1p(-_REL_SLACK)
        rows.append(
            ComparisonRow(
                z=float(z),
                density=h,
                merged_density=ht,
                lower_factor=factor,
                lower_ok=lower_ok,
                domination_ok=dom_ok,
            )
        )
    return ComparisonReport(t=t, d_tilde=reg.d_tilde, rows=tuple(rows))
