"""Chi-square density and the regularized upper incomplete gamma function.

The gamma function is evaluated with the classical series / continued
fraction pair (series for x < a + 1, modified Lentz continued fraction
otherwise). It is computed on the log scale only, because Q(a, x)
underflows float64 near x ~ 745 while its logarithm stays perfectly well
conditioned; the deep-tail contracts in this package are stated on the
log scale for that reason, and the linear chi-square tail is its exp.
"""
from __future__ import annotations

import math

from .errors import NumericError, ValidationError

_EPS = 1e-16
_TINY = 1e-300
_MAX_ITER = 2000


def chisq_density(d: int, z: float) -> float:
    """Density f_d(z) = 2^{-d/2} z^{d/2-1} e^{-z/2} / Gamma(d/2) of a chi-square with d dof.

    z = 0 is allowed for d >= 2 (limit value); for d = 1 the density is
    singular at 0 and z <= 0 is rejected.
    """
    if d < 1:
        raise ValidationError(f"degrees of freedom must be >= 1, got {d}")
    if z < 0:
        raise ValidationError(f"chi-square density undefined for z < 0, got {z}")
    if z == 0.0:
        if d == 1:
            raise ValidationError("f_1 is singular at z = 0")
        return 0.5 if d == 2 else 0.0
    return 2.0 ** (-d / 2.0) / math.gamma(d / 2.0) * z ** (d / 2.0 - 1.0) * math.exp(-z / 2.0)


def _gamma_series_lower(a: float, x: float) -> float:
    """Regularized lower function P(a, x) by power series; requires x < a + 1."""
    term = 1.0 / a
    total = term
    ap = a
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            return total * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise NumericError(f"incomplete gamma series failed to converge (a={a}, x={x})")


def _gamma_cf_upper(a: float, x: float) -> float:
    """Continued-fraction factor R with Q(a, x) = e^{-x + a ln x - ln G(a)} R."""
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise NumericError(f"incomplete gamma continued fraction failed (a={a}, x={x})")


def log_gammainc_upper(a: float, x: float) -> float:
    """log Q(a, x), finite for every finite x; -inf at x = inf."""
    if a <= 0:
        raise ValidationError(f"shape parameter must be positive, got {a}")
    if x < 0:
        raise ValidationError(f"argument must be >= 0, got {x}")
    if x == 0.0:
        return 0.0
    if x == math.inf:
        return -math.inf
    if x < a + 1.0:
        return math.log1p(-_gamma_series_lower(a, x))
    return -x + a * math.log(x) - math.lgamma(a) + math.log(_gamma_cf_upper(a, x))


def chisq_norm_tail(d: int, t: float) -> float:
    """P{|Z| >= t} for Z ~ N(0, I_d), i.e. Q(d/2, t^2/2).

    The exp of log_chisq_norm_tail, so it underflows to 0.0 near t ~ 38.6;
    use the log form beyond.
    """
    return math.exp(log_chisq_norm_tail(d, t))


def log_chisq_norm_tail(d: int, t: float) -> float:
    """log P{|Z| >= t}, well defined for all t >= 0."""
    if d < 1:
        raise ValidationError(f"dimension must be >= 1, got {d}")
    if t < 0:
        raise ValidationError(f"threshold must be >= 0, got {t}")
    return log_gammainc_upper(d / 2.0, t * t / 2.0)
