"""Exact oracles for the weighted chi-square law, in mpmath.

The law is that of sum_i w_i eta_i^2 with eta_i independent standard
normals, on the scale of its weights (no normalization). Two oracles, each
independent of the engine:

- ``hypoexp_log_tail``, ``hypoexp_log_shell`` and ``hypoexp_density``: the
  closed form when every distinct weight appears exactly twice. Each pair w eta^2 + w eta'^2 is
  exponential with mean 2w, so the sum is hypoexponential, with tail
  sum_i prod_{j != i} w_i / (w_i - w_j) e^{-x / 2 w_i} over the distinct
  weights (Box 1954, Ann. Math. Stat. 25:290). The terms cancel at small
  x and for close weights, so the sum starts at 60 digits and doubles
  them until at least 30 survive the cancellation. Tails and shells are
  given as logs, which stay finite where the values leave float64.
- ``ruben_density``: Ruben's mixture series at 60 digits, at any
  multiplicity (Ruben 1962, Ann. Math. Stat. 33:542; Kotz, Johnson & Boyd
  1967, Ann. Math. Stat. 38:823). With beta = min w_i the density is
  sum_k a_k f_{d+2k}(x / beta) / beta, where f_nu is the chi-square(nu)
  density, a_0 = prod (beta / w_i)^{1/2} and
  a_k = (1/2k) sum_{r<k} g_{k-r} a_r with g_j = sum_i (1 - beta / w_i)^j.
  Every term is positive and the a_k sum to 1, so once d + 2k passes
  x / beta the rest is below (1 - a_0 - ... - a_k) f_{d+2k+2}(x / beta) /
  beta; the sum stops when that is below 1e-30 of it. The term count grows
  like x / 2 beta, so it suits small x.

Every function returns a float.
"""
from __future__ import annotations

from collections import Counter

import mpmath as mp

DIGITS = 60
KEPT_DIGITS = 30  # digits the hypoexponential sums keep after cancellation
RUBEN_MAX_TERMS = 20_000


def _hypoexp_terms(weights) -> list[tuple[mp.mpf, mp.mpf]]:
    """(w_i, prod_{j != i} w_i / (w_i - w_j)) over the distinct weights."""
    counts = Counter(float(v) for v in weights)
    if any(c != 2 for c in counts.values()) or min(counts) <= 0:
        raise ValueError(f"every weight must be positive and appear exactly twice: {sorted(weights)}")
    ws = [mp.mpf(v) for v in sorted(counts, reverse=True)]
    return [(wi, mp.fprod(wi / (wi - wj) for wj in ws if wj != wi)) for wi in ws]


def _hypoexp_sum(weights, term, log: bool = False) -> float:
    """sum_i term(w_i, c_i) over _hypoexp_terms, with KEPT_DIGITS left after
    cancellation, or its log."""
    digits = DIGITS
    while True:
        with mp.workdps(digits):
            terms = [term(w, c) for w, c in _hypoexp_terms(weights)]
            total = mp.fsum(terms)
            size = mp.fsum(abs(t) for t in terms)
            if total > 0 and digits - mp.log10(size / total) >= KEPT_DIGITS:
                return float(mp.log(total) if log else total)
        digits *= 2


def hypoexp_log_tail(weights, x: float) -> float:
    """log P{sum w_i eta_i^2 >= x} for weights that each appear twice."""
    return _hypoexp_sum(weights, lambda w, c: c * mp.exp(-mp.mpf(x) / (2 * w)), log=True)


def hypoexp_log_shell(weights, x_lo: float, x_hi: float) -> float:
    """log P{x_lo <= sum w_i eta_i^2 <= x_hi} for weights that each appear twice.

    Taken as one difference of the terms, so a thin shell keeps its digits.
    """
    return _hypoexp_sum(
        weights,
        lambda w, c: c * (mp.exp(-mp.mpf(x_lo) / (2 * w)) - mp.exp(-mp.mpf(x_hi) / (2 * w))),
        log=True,
    )


def hypoexp_density(weights, x: float) -> float:
    """Density of sum w_i eta_i^2 at x > 0 for weights that each appear twice."""
    return _hypoexp_sum(weights, lambda w, c: c * mp.exp(-mp.mpf(x) / (2 * w)) / (2 * w))


def ruben_density(weights, x: float) -> float:
    """Density of sum w_i eta_i^2 at x > 0, any weights (repeat one for multiplicity)."""
    with mp.workdps(DIGITS):
        w = [mp.mpf(float(v)) for v in weights]
        d, beta = len(w), min(w)
        if beta <= 0:
            raise ValueError("weights must be positive")
        y = mp.mpf(x) / beta
        ratios = [1 - beta / wi for wi in w]
        powers = [mp.mpf(1)] * d
        g = [mp.mpf(0)]  # g[j] = sum_i ratios_i^j, j >= 1
        a = [mp.fprod(mp.sqrt(beta / wi) for wi in w)]
        f = y ** (mp.mpf(d) / 2 - 1) * mp.exp(-y / 2) / (2 ** (mp.mpf(d) / 2) * mp.gamma(mp.mpf(d) / 2))
        total, mass = a[0] * f, a[0]
        for k in range(1, RUBEN_MAX_TERMS):
            powers = [p * r for p, r in zip(powers, ratios)]
            g.append(mp.fsum(powers))
            a.append(mp.fsum(g[k - r] * a[r] for r in range(k)) / (2 * k))
            f *= y / (d + 2 * k - 2)  # f_{d+2k}(y) from f_{d+2k-2}(y)
            total += a[k] * f
            mass += a[k]
            if d + 2 * k > y and (1 - mass) * f * y / (d + 2 * k) < mp.mpf(10) ** -30 * total:
                return float(total / beta)
        raise RuntimeError(f"Ruben series did not converge in {RUBEN_MAX_TERMS} terms at x = {x}")
