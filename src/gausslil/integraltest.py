"""Series criterion for upper/lower class membership of boundary sequences.

The series sum_n phi_n/(n l_{n,1}) prod_{i=2}^{d1} (gap ^ phi branch)
exp(-phi_n^2 / 2 l_{n,1}^2) converges or diverges; which one decides the
class. Verdicts come from asymptotic exponent analysis of declared
parametric families only: the terms differ from 1/(n log n) by iterated-log
factors, so no computable partial sum can decide convergence, and numeric
sums are attached strictly as diagnostics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .errors import ValidationError
from .iterlog import llt, lt, max_subsequence_k, subsequence_index
from .quadrature import kronrod_halving
from .sequences import CovarianceSequence, delta_k
from .spectral import Spectrum

__all__ = [
    "PhiFamily",
    "SeriesDiagnostics",
    "FluctuationReport",
    "EquivalenceReport",
    "gamma_n",
    "series_term",
    "subsequence_index",
    "classify",
    "fluctuation_diagnostic",
    "equivalence_report",
]

_TERM_CHUNK = 1 << 15  # indices per term call, so a long run's temporaries stay small

FINITE_SAMPLE_LABEL = (
    "finite-sample diagnostic only; asymptotic conditions cannot be "
    "certified by finite computation"
)


@dataclass(frozen=True)
class PhiFamily:
    """Non-decreasing boundary sequence phi_n.

    Parametric: phi_n^2 = l_{n,1}^2 (2 LLn + a LLLn + b). Tabulated: an
    explicit non-decreasing list, optionally carrying a declared
    asymptotic envelope (a, b) for classification. ``clamp`` switches on
    the normalization l^2 LLn <= phi^2 <= 3 l^2 LLn.
    """

    kind: str
    a: float = 0.0
    b: float = 0.0
    values: tuple[float, ...] | None = None
    clamp: bool = False
    envelope: tuple[float, float] | None = None

    def __post_init__(self):
        if self.kind == "parametric":
            if self.a < 0:
                raise ValidationError(f"parametric family needs a >= 0, got {self.a}")
            if 2.0 + self.a + self.b <= 0:
                raise ValidationError(
                    f"phi_1^2 = lambda^2 (2 + a + b) must be positive "
                    f"(a={self.a}, b={self.b})"
                )
        elif self.kind == "tabulated":
            if not self.values:
                raise ValidationError("tabulated family needs values")
            v = tuple(float(x) for x in self.values)
            if any(x <= 0 for x in v):
                raise ValidationError("tabulated phi values must be positive")
            if any(y < x for x, y in zip(v, v[1:])):
                raise ValidationError("tabulated phi values must be non-decreasing")
            object.__setattr__(self, "values", v)
        else:
            raise ValidationError(f"unknown phi family kind {self.kind!r}")

    def value(self, n, lam1: float):
        """phi_n, elementwise when n is an array of indices; lam1 is the top
        eigenvalue of Gamma_n (ignored if tabulated)."""
        ns = np.asarray(n)
        lo, hi = (ns.min(), ns.max()) if ns.ndim else (n, n)
        if lo < 1:
            raise ValidationError(f"index must be >= 1, got {lo}")
        lln = llt(n) if self.kind == "parametric" or self.clamp else None
        if self.kind == "tabulated":
            if int(hi) > len(self.values):
                raise ValidationError(
                    f"index {int(hi)} beyond tabulated phi range ({len(self.values)})"
                )
            phi2 = np.square(self._table[ns.astype(int) - 1])
        else:
            phi2 = lam1 * lam1 * (2.0 * lln + self.a * lt(lln) + self.b)  # LLLn = L(LLn)
        if self.clamp:
            phi2 = np.clip(phi2, lam1 * lam1 * lln, 3.0 * lam1 * lam1 * lln)
        return np.sqrt(phi2) if ns.ndim else math.sqrt(phi2)

    @cached_property
    def _table(self) -> np.ndarray:
        return np.array(self.values)

    def classification_params(self) -> tuple[float, float] | None:
        if self.kind == "parametric":
            return self.a, self.b
        return self.envelope


def gamma_n(s: Spectrum, phi_n, upto: int | None = None):
    """prod_{i=2}^{upto} min(l1/(l1^2 - l_i^2)^{1/2}, phi_n/l1).

    The exponential of ``Spectrum.log_gap_product`` at x = phi_n: the full
    product i = 2..d by default, 1 when empty, and equal-eigenvalue factors
    take the phi branch (a/0 read as infinity). Elementwise over an array
    of phi_n.
    """
    s.top()
    if np.min(phi_n) <= 0:
        raise ValidationError(f"phi must be positive, got {np.min(phi_n)}")
    return np.exp(s.log_gap_product(phi_n, upto))


def _product_upto(s: Spectrum, mode: str, d1: int | None = None) -> int:
    """Last index of the gap product: the top group ("top-group", d1 overriding
    the spectrum's own) or every eigenvalue ("full-product")."""
    if mode == "top-group":
        return s.d1 if d1 is None else d1
    if mode == "full-product":
        return s.dim
    raise ValidationError(f"unknown mode {mode!r}")


def series_term(
    n,
    s_n: Spectrum,
    phi: PhiFamily,
    d1: int | None = None,
    mode: str = "top-group",
):
    """n-th series term phi_n/(n l_{n,1}) * product * exp(-phi_n^2/2 l_{n,1}^2).

    The product runs over i = 2..d1 (d1 of the limit matrix) in the
    default mode; mode "full-product" extends it to i = 2..d, which the
    reduction argument shows is equivalent up to a constant. Elementwise
    over an array of indices n that share the spectrum s_n.
    """
    lam1 = s_n.lambda1
    phi_n = phi.value(n, lam1)
    g = gamma_n(s_n, phi_n, upto=_product_upto(s_n, mode, d1))
    return phi_n / (n * lam1) * g * np.exp(-phi_n * phi_n / (2.0 * lam1 * lam1))


def _subseq_term(n, s_n: Spectrum, phi: PhiFamily, d1: int | None, mode: str):
    """Subsequence term gamma_n/phi_n exp(-phi_n^2 / 2 l_{n,1}^2) at n = n_k, with
    the product of ``series_term``; elementwise over an array of indices."""
    lam1 = s_n.lambda1
    phi_n = phi.value(n, lam1)
    g = gamma_n(s_n, phi_n, upto=_product_upto(s_n, mode, d1))
    return g / phi_n * np.exp(-phi_n * phi_n / (2.0 * lam1 * lam1))


def _by_state(seq: CovarianceSequence, ns, term, at=None) -> np.ndarray:
    """term(at[sl], s) on each slice sl of the non-decreasing indices ns that
    shares one Gamma_n, s its spectrum; ``at`` defaults to ns.

    Where Gamma_n = 0 the term is 0.0: |Gamma_n T_n| = 0 < sqrt(n) phi_n, so
    the event is empty.
    """
    at = ns if at is None else at
    out = np.zeros(at.shape)
    for sl, s in seq.runs(ns):
        if s.lambda1 > 0:
            for i in range(sl.start, sl.stop, _TERM_CHUNK):
                piece = slice(i, min(i + _TERM_CHUNK, sl.stop))
                out[piece] = term(at[piece], s)
    return out


@dataclass(frozen=True)
class SeriesDiagnostics:
    """Verdict plus numeric partial sums (diagnostics, never the verdict)."""

    verdict: str  # Converges | Diverges | Inconclusive
    method: str  # asymptotic | none
    note: str
    ns: np.ndarray = field(default_factory=lambda: np.array([], dtype=int))
    terms: np.ndarray = field(default_factory=lambda: np.array([]))
    partial_sums: np.ndarray = field(default_factory=lambda: np.array([]))


def _exponent_verdict(a: float, d1: int) -> tuple[str, str]:
    """Verdict for terms ~ n^{-1} (Ln)^{-1} (LLn)^{(d1-a)/2}.

    The subsequence series obeys the same rule: with Ln_k = alpha k / Lk its
    terms behave like k^{-1} (Lk)^{-p}, p = (a - d1)/2, so it converges iff
    p > 1, and at p = 1 it is comparable to the divergent sum 1/(k Lk).
    """
    critical = d1 + 2.0
    if a > critical:
        return "Converges", (
            f"exponent analysis: (a - d1)/2 = {(a - d1) / 2:.3g} > 1, the "
            f"comparison integral converges"
        )
    if a < critical:
        return "Diverges", (
            f"exponent analysis: (a - d1)/2 = {(a - d1) / 2:.3g} < 1, the "
            f"comparison integral diverges"
        )
    return "Diverges", (
        "critical line a = d1 + 2: terms are comparable to the divergent "
        "series sum 1/(n Ln LLn); critical-line handling extends beyond the "
        "source criterion and is labeled as such"
    )


def _check_series(seq: CovarianceSequence, d1: int) -> None:
    seq.check_nonzero_limit()
    if not 1 <= d1 <= seq.dim:
        raise ValidationError(f"d1 must be between 1 and the dimension {seq.dim}, got {d1}")


def classify(
    phi: PhiFamily,
    seq: CovarianceSequence,
    d1: int,
    n_terms: int = 5000,
) -> SeriesDiagnostics:
    """Convergence verdict for the series, by asymptotic exponent analysis.

    Requires a parametric family or a tabulated one with a declared
    envelope; otherwise Inconclusive. Partial sums over the first
    ``n_terms`` indices are attached for inspection.
    """
    _check_series(seq, d1)
    n_max = n_terms if seq.max_index is None else min(n_terms, seq.max_index)
    if phi.kind == "tabulated":
        n_max = min(n_max, len(phi.values))
    ns = np.arange(1, n_max + 1)
    terms = _by_state(seq, ns, partial(series_term, phi=phi, d1=d1))
    psums = np.cumsum(terms)
    params = phi.classification_params()
    if params is None:
        verdict, method, note = "Inconclusive", "none", (
            "tabulated family without a declared asymptotic envelope; "
            "finite partial sums cannot decide convergence"
        )
    else:
        verdict, note = _exponent_verdict(params[0], d1)
        method = "asymptotic"
    return SeriesDiagnostics(
        verdict=verdict, method=method, note=note, ns=ns, terms=terms, partial_sums=psums
    )


@dataclass(frozen=True)
class FluctuationReport:
    """Partial sums of sum_k k^{-delta} Delta_k(alpha), per requested delta."""

    alpha: float
    deltas: tuple[float, ...]
    delta_k_values: np.ndarray
    partial_sums: dict[float, np.ndarray]
    last_decade_fraction: dict[float, float]
    label: str = FINITE_SAMPLE_LABEL


def fluctuation_diagnostic(
    seq: CovarianceSequence,
    alpha: float,
    deltas,
    K: int,
) -> FluctuationReport:
    """Finite-sample trend of the fluctuation condition.

    For each delta, reports the running sums up to K and the fraction of
    the K-sum contributed by k in (K/10, K]; a fraction stuck near the
    log-uniform level signals non-summability. Never a proof either way.
    """
    if K < 10:
        raise ValidationError(f"K must be >= 10, got {K}")
    dk = np.array([delta_k(seq, alpha, k) for k in range(1, K + 1)])
    ks = np.arange(1, K + 1, dtype=float)
    sums: dict[float, np.ndarray] = {}
    fractions: dict[float, float] = {}
    for d in deltas:
        weighted = dk * ks ** (-float(d))
        ps = np.cumsum(weighted)
        sums[float(d)] = ps
        total = float(ps[-1])
        if total > 0:
            fractions[float(d)] = float((total - ps[K // 10 - 1]) / total)
        else:
            fractions[float(d)] = 0.0
    return FluctuationReport(
        alpha=alpha,
        deltas=tuple(float(d) for d in deltas),
        delta_k_values=dk,
        partial_sums=sums,
        last_decade_fraction=fractions,
    )


@dataclass(frozen=True)
class EquivalenceReport:
    """Block sums of the full series against subsequence terms.

    bracketing_low/high are the observed analogues of the proof's
    C'_1 <= a_k / b_{k+1} and a_k / b_k <= C'_2 over the k-window.
    """

    alpha: float
    ks: np.ndarray
    n_ks: np.ndarray
    block_sums: np.ndarray
    subseq_terms: np.ndarray
    block_methods: tuple[str, ...]
    bracketing_low: float
    bracketing_high: float
    full_verdict: str
    subseq_verdict: str

    @property
    def verdicts_agree(self) -> bool:
        return self.full_verdict == self.subseq_verdict


def _block_sums_integral(seq, term, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Euler-Maclaurin: sum_{n=lo+1}^{hi} g(n) ~ int_lo^hi g + (g(hi)-g(lo))/2, per block.

    Each block's spectrum is frozen at its left endpoint; drift within a
    block is exactly what the fluctuation condition bounds. The integrals
    run in u = log n, where g(e^u) e^u varies slowly, with the panels of
    every block in one batch; their rows come sorted, so their left
    endpoints group by state.
    """
    lo, hi = lo.astype(float), hi.astype(float)
    body = kronrod_halving(
        lambda rows, u: _by_state(seq, lo[rows], term, np.exp(u)) * np.exp(u), np.log(lo), np.log(hi)
    )
    ends = _by_state(seq, lo, term, np.stack([hi, lo], axis=1))
    return body + 0.5 * (ends[:, 0] - ends[:, 1])


def equivalence_report(
    phi: PhiFamily,
    seq: CovarianceSequence,
    alpha: float = 1.0,
    K: int = 200,
    k_min: int = 1,
    exact_block_limit: int = 200_000,
    mode: str = "full-product",
    d1: int | None = None,
) -> EquivalenceReport:
    """Compare block sums a_k with subsequence terms over k in [k_min, K].

    Blocks whose right endpoint exceeds ``exact_block_limit`` are summed
    by integral approximation (blocks grow like n_k/Lk, far beyond
    pointwise summation); the per-block method is recorded.
    """
    K = min(K, max_subsequence_k(alpha) - 1)
    if k_min < 1 or K < k_min:
        raise ValidationError(f"need 1 <= k_min <= K, got [{k_min}, {K}]")
    if d1 is None:
        d1 = seq.limit_spectrum().d1
    _check_series(seq, d1)
    ks = np.arange(k_min, K + 1)
    n_ks = np.array([subsequence_index(alpha, int(k)) for k in range(k_min, K + 2)])
    lo, hi = n_ks[:-1], n_ks[1:]
    methods = np.where(hi <= lo, "empty", np.where(hi <= exact_block_limit, "exact", "integral"))
    block_sums = np.zeros(ks.size)
    term = partial(series_term, phi=phi, d1=d1, mode=mode)
    exact = np.flatnonzero(methods == "exact")
    if exact.size:
        # one pass over lo_1+1..hi_last, then each block sums its own slice
        first = int(lo[exact[0]])
        terms = _by_state(seq, np.arange(first + 1, int(hi[exact[-1]]) + 1), term)
        for j in exact:
            block_sums[j] = np.sum(terms[int(lo[j]) - first : int(hi[j]) - first])
    integral = methods == "integral"
    block_sums[integral] = _block_sums_integral(seq, term, lo[integral], hi[integral])
    # n_k past k ~ 240 overflows int64, and phi_n takes float indices
    subseq = _by_state(seq, n_ks.astype(float), partial(_subseq_term, phi=phi, d1=d1, mode=mode))
    # a zero Gamma_n (a finite prefix) gives b_k = 0, and no ratio
    used = (block_sums > 0) & (subseq[:-1] > 0) & (subseq[1:] > 0)
    low = float(np.min(block_sums[used] / subseq[1:][used])) if np.any(used) else math.nan
    high = float(np.max(block_sums[used] / subseq[:-1][used])) if np.any(used) else math.nan
    params = phi.classification_params()
    # the subsequence series obeys the same exponent rule (see _exponent_verdict)
    full_v = sub_v = "Inconclusive" if params is None else _exponent_verdict(params[0], d1)[0]
    return EquivalenceReport(
        alpha=alpha,
        ks=ks,
        n_ks=n_ks[:-1],
        block_sums=block_sums,
        subseq_terms=subseq[:-1],
        block_methods=tuple(methods.tolist()),
        bracketing_low=low,
        bracketing_high=high,
        full_verdict=full_v,
        subseq_verdict=sub_v,
    )
