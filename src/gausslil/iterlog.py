"""Iterated logarithms and the blocking subsequence n_k(alpha).

All logs are regularized at small arguments: Lt = log(t v e), so that
Lt >= 1, LLt >= 1, LLLt >= 1 for every t >= 0.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError

_LOG_FLOAT_MAX = 709.0


def lt(x):
    """L(x) = log(x v e), elementwise on an array."""
    if isinstance(x, np.ndarray):
        return np.log(np.maximum(x, math.e))
    return math.log(max(x, math.e))


def llt(x):
    return lt(lt(x))


def lllt(x):
    return lt(llt(x))


def subsequence_exponent(alpha: float, k: int) -> float:
    """alpha * k / Lk, the exact exponent of n_k(alpha) before truncation."""
    if alpha <= 0:
        raise ValidationError(f"alpha must be positive, got {alpha}")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    return alpha * k / lt(k)


def max_subsequence_k(alpha: float) -> int:
    """Largest k for which n_k(alpha) is representable as a float."""
    lo, hi = 1, 1
    while subsequence_exponent(alpha, hi) <= _LOG_FLOAT_MAX:
        lo, hi = hi, hi * 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if subsequence_exponent(alpha, mid) <= _LOG_FLOAT_MAX:
            lo = mid
        else:
            hi = mid
    return lo


def subsequence_index(alpha: float, k: int) -> int:
    """n_k(alpha) = [exp(alpha k / Lk)], the integer part.

    Rejects k whose index overflows the float range; the error message
    reports the largest usable k for this alpha.
    """
    e = subsequence_exponent(alpha, k)
    if e > _LOG_FLOAT_MAX:
        raise ValidationError(
            f"n_k(alpha={alpha}) overflows at k={k}; max representable k is "
            f"{max_subsequence_k(alpha)}"
        )
    return int(math.floor(math.exp(e)))
