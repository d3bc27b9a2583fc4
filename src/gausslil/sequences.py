"""Covariance-sequence generators.

Three kinds: a constant matrix, a tabulated list, and the truncated
second-moment construction over a finite discrete distribution, where
Gamma_n^2 sums p * x x^T over atoms with |x| <= c_n. Finitely many atoms
keep every truncated moment an exact finite sum, so the PSD-monotonicity
and fluctuation-summability checks downstream are exact up to rounding.
"""
from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .iterlog import llt, lt, subsequence_index
from . import spectral

_PROB_TOL = 1e-12
_MEAN_TOL = 1e-12
_SCAN_LIMIT = 200_000
# distinct states of one window whose pairs delta_k scans; the scan grows
# with the square of their number (372 states took 3.8 s on a 2-vCPU host)
_SCAN_STATES = 64


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finitely supported distribution with mean zero."""

    points: np.ndarray  # (n_atoms, d)
    probs: np.ndarray  # (n_atoms,)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        pr = np.asarray(self.probs, dtype=float)
        if pts.shape[0] != pr.size:
            raise ValidationError(
                f"{pts.shape[0]} atoms but {pr.size} probabilities"
            )
        if pts.shape[0] == 0:
            raise ValidationError("distribution needs at least one atom")
        if not np.all(np.isfinite(pts)) or not np.all(np.isfinite(pr)):
            raise ValidationError("atoms and probabilities must be finite")
        if np.any(pr <= 0):
            raise ValidationError("atom probabilities must be positive")
        if abs(float(pr.sum()) - 1.0) > _PROB_TOL:
            raise ValidationError(
                f"probabilities sum to {float(pr.sum())!r}, not 1"
            )
        mean = pr @ pts
        scale = max(float(np.max(np.abs(pts))), 1.0)
        if float(np.max(np.abs(mean))) > _MEAN_TOL * scale:
            raise ValidationError(f"distribution mean {mean.tolist()} is not zero")
        pts.setflags(write=False)
        pr.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "probs", pr)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def norms(self) -> np.ndarray:
        return np.sqrt((self.points**2).sum(axis=1))

    def second_moment(self) -> float:
        """E |X|^2."""
        return float(self.probs @ (self.points**2).sum(axis=1))

    def covariance(self) -> np.ndarray:
        return (self.points.T * self.probs) @ self.points

    def truncated_second_moment(self, lo: float, hi: float) -> float:
        """E |X|^2 I{lo < |X| <= hi}."""
        nm = self.norms()
        mask = (nm > lo) & (nm <= hi)
        return float(self.probs[mask] @ (self.points[mask] ** 2).sum(axis=1))


def truncated_covariance(dist: DiscreteDistribution, c: float) -> np.ndarray:
    """[E X^(i) X^(j) I{|X| <= c}]; atoms with |x| = c are included."""
    if c < 0:
        raise ValidationError(f"cutoff must be >= 0, got {c}")
    mask = dist.norms() <= c
    pts = dist.points[mask]
    return (pts.T * dist.probs[mask]) @ pts


@dataclass(frozen=True)
class CutoffFamily:
    """Non-decreasing cutoff sequence c_n.

    kind "sqrt_n": c_n = scale * sqrt(n), optionally modulated by a
    tabulated multiplier g(n), held at its last entry past the table; a
    table that makes c_n decrease is rejected. kind "constant": c_n = value.
    """

    kind: str
    scale: float = 1.0
    value: float = 1.0
    g_table: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("sqrt_n", "constant"):
            raise ValidationError(f"unknown cutoff kind {self.kind!r}")
        if self.kind == "sqrt_n" and self.scale <= 0:
            raise ValidationError("sqrt_n cutoff needs a positive scale")
        if self.kind == "constant" and self.value < 0:
            raise ValidationError("constant cutoff must be >= 0")
        if self.g_table is not None:
            g = tuple(float(x) for x in self.g_table)
            if any(x <= 0 for x in g):
                raise ValidationError("cutoff multipliers must be positive")
            object.__setattr__(self, "g_table", g)
            # g is constant past the table, where c_n grows like sqrt(n)
            c = [self.evaluate(n) for n in range(1, len(g) + 2)]
            if any(y < x for x, y in zip(c, c[1:])):
                raise ValidationError("cutoff scale * sqrt(n) * g_n must be non-decreasing")

    def evaluate(self, n: int) -> float:
        if n < 1:
            raise ValidationError(f"index must be >= 1, got {n}")
        if self.kind == "constant":
            return self.value
        g = 1.0
        if self.g_table is not None:
            g = self.g_table[min(n, len(self.g_table)) - 1]
        return self.scale * math.sqrt(n) * g

    def window_report(self, ns: list[int]) -> list[dict]:
        """Check exp(-(Ln)^eps_n) <= c_n/sqrt(n) <= exp((Ln)^eps_n) per n.

        eps_n = 1/LLn, a choice (the window condition only asks for some
        eps_n -> 0).
        """
        rows = []
        for n in ns:
            e = 1.0 / llt(n)
            ratio = self.evaluate(n) / math.sqrt(n)
            bound = math.exp(lt(n) ** e)
            rows.append(
                {
                    "n": n,
                    "eps": e,
                    "ratio": ratio,
                    "lower": 1.0 / bound,
                    "upper": bound,
                    "ok": 1.0 / bound <= ratio <= bound,
                }
            )
        return rows


@dataclass
class CovarianceSequence:
    """Generator of Gamma_n^2 matrices (constant, tabulated, or truncated).

    Gamma_n^2 depends on n only through ``state(n)``: 0 for a constant
    sequence, n - 1 for a tabulated one, and the number of atoms with
    |x| <= c_n for a truncated one, which never decreases because c_n does
    not. States run up to the final one, the state as n -> infinity, and
    each state's matrix, spectrum and root are built once.
    """

    kind: str
    dim: int
    matrix: np.ndarray | None = None
    table: tuple[np.ndarray, ...] | None = None
    distribution: DiscreteDistribution | None = None
    cutoff: CutoffFamily | None = None

    def __post_init__(self):
        if self.kind == "truncated":
            self._norms = np.sort(self.distribution.norms()).tolist()
            c_sup = self.cutoff.value if self.cutoff.kind == "constant" else math.inf
            self._matrices = [None] * (bisect.bisect_right(self._norms, c_sup) + 1)
        else:
            self._matrices = list(self.table or (self.matrix,))
        self._spectra = [None] * len(self._matrices)

    @classmethod
    def constant(cls, matrix: np.ndarray) -> "CovarianceSequence":
        m = spectral.CovarianceMatrix(np.asarray(matrix, dtype=float)).entries
        return cls(kind="constant", dim=m.shape[0], matrix=m)

    @classmethod
    def tabulated(cls, matrices) -> "CovarianceSequence":
        mats = tuple(
            spectral.CovarianceMatrix(np.asarray(m, dtype=float)).entries
            for m in matrices
        )
        if not mats:
            raise ValidationError("tabulated sequence needs at least one matrix")
        d = mats[0].shape[0]
        if any(m.shape[0] != d for m in mats):
            raise ValidationError("tabulated matrices must share one dimension")
        return cls(kind="tabulated", dim=d, table=mats)

    @classmethod
    def truncated(cls, dist: DiscreteDistribution, cutoff: CutoffFamily) -> "CovarianceSequence":
        return cls(kind="truncated", dim=dist.dim, distribution=dist, cutoff=cutoff)

    def state(self, n: int) -> int:
        """Which of the sequence's matrices Gamma_n^2 is."""
        if n < 1:
            raise ValidationError(f"index must be >= 1, got {n}")
        if self.kind == "truncated":
            return bisect.bisect_right(self._norms, self.cutoff.evaluate(n))
        if self.kind == "constant":
            return 0
        if n > len(self.table):
            raise ValidationError(
                f"index {n} out of range for tabulated sequence of "
                f"length {len(self.table)}"
            )
        return n - 1

    def states(self, ns):
        """Each maximal slice of the non-decreasing indices ``ns`` (an array
        or a range) on which Gamma_n is one matrix, with its state.

        The state never decreases in n, so each slice ends where a bisection
        finds the state change.
        """
        def state(i: int) -> int:
            return self.state(int(ns[i]))

        stop = 0
        while stop < len(ns):
            start, s = stop, state(stop)
            stop = bisect.bisect_right(range(len(ns)), s, lo=start, key=state)
            yield slice(start, stop), s

    def runs(self, ns):
        """The slices of ``states(ns)``, each with its state's spectrum."""
        for sl, s in self.states(ns):
            yield sl, self._spectrum(s)

    def check_nonzero_limit(self) -> None:
        """Reject a sequence whose limit is the zero matrix."""
        if not np.any(self.limit()):
            raise ValidationError(
                "covariance sequence degenerates to the zero matrix; the limit "
                "must be a nonzero symmetric non-negative definite matrix"
            )

    @property
    def is_constant(self) -> bool:
        return self.state(1) == len(self._matrices) - 1

    @property
    def is_monotone(self) -> bool:
        """PSD-monotone: Gamma_n^2 - Gamma_m^2 >= 0 for m <= n (tables are not checked)."""
        return self.kind != "tabulated"

    @property
    def max_index(self) -> int | None:
        return len(self.table) if self.kind == "tabulated" else None

    def _matrix(self, state: int) -> np.ndarray:
        if self._matrices[state] is None:
            # the atoms with |x| <= c_n are those no longer than the
            # state-th shortest; in state 0 no atom has norm 0
            c = self._norms[state - 1] if state else 0.0
            self._matrices[state] = truncated_covariance(self.distribution, c)
        return self._matrices[state]

    def _spectrum(self, state: int) -> spectral.Spectrum:
        if self._spectra[state] is None:
            self._spectra[state] = spectral.eigh(self._matrix(state))
        return self._spectra[state]

    def emit(self, n: int) -> np.ndarray:
        return self._matrix(self.state(n))

    def spectrum_at(self, n: int) -> spectral.Spectrum:
        return self._spectrum(self.state(n))

    def root_at(self, n: int) -> np.ndarray:
        """Gamma_n, the symmetric PSD square root of the emitted Gamma_n^2."""
        return self._spectrum(self.state(n)).root

    def limit(self) -> np.ndarray:
        """Exact limit matrix: the matrix of the final state."""
        return self._matrix(len(self._matrices) - 1)

    def limit_spectrum(self) -> spectral.Spectrum:
        return self._spectrum(len(self._matrices) - 1)


def delta_k(
    seq: CovarianceSequence, alpha: float, k: int, force_scan: bool = False
) -> float:
    """Delta_k(alpha) = max ||Gamma_n^2 - Gamma_m^2|| over the k-th block.

    The maximum runs over all index pairs n_k <= m <= n <= n_{k+1}, that
    is over pairs of the distinct states in the window, one matrix per
    state of ``seq.states``. For PSD-monotone sequences the endpoint pair
    is extremal, so the pair scan collapses to one norm; ``force_scan``
    disables the shortcut (used to validate it). The scan takes at most
    _SCAN_STATES distinct states.
    """
    lo, hi = subsequence_index(alpha, k), subsequence_index(alpha, k + 1)
    if seq.max_index is not None and hi > seq.max_index:
        raise ValidationError(
            f"delta_k window [{lo}, {hi}] exceeds tabulated range "
            f"(max index {seq.max_index})"
        )
    if seq.is_monotone and not force_scan:
        return spectral.operator_norm(seq.emit(hi) - seq.emit(lo))
    if hi - lo > _SCAN_LIMIT:
        raise ValidationError(
            f"delta_k pair scan over window [{lo}, {hi}] is too large "
            f"({hi - lo} indices; limit {_SCAN_LIMIT})"
        )
    states = [s for _, s in seq.states(range(lo, hi + 1))]
    if len(states) > _SCAN_STATES:
        raise ValidationError(
            f"delta_k pair scan over window [{lo}, {hi}] is too large "
            f"({len(states)} distinct states; limit {_SCAN_STATES})"
        )
    mats = [seq._matrix(s) for s in states]
    return max(
        (spectral.operator_norm(a - b) for a, b in itertools.combinations(mats, 2)),
        default=0.0,
    )


def limit_and_convergence_report(seq: CovarianceSequence, N: int) -> dict:
    """Matrix and per-index eigenvalue gaps to the limit at log-spaced n."""
    if N < 1:
        raise ValidationError(f"N must be >= 1, got {N}")
    if seq.max_index is not None:
        N = min(N, seq.max_index)
    ns = sorted(
        {int(round(x)) for x in np.geomspace(1, N, num=min(60, N))}
    )
    lim = seq.limit()
    lim_eigs = seq.limit_spectrum().eigenvalues
    rows = [
        {
            "n": n,
            "matrix_gap": spectral.operator_norm(seq.emit(n) - lim),
            "eigenvalue_gaps": np.abs(seq.spectrum_at(n).eigenvalues - lim_eigs).tolist(),
        }
        for n in ns
    ]
    return {"limit": lim.tolist(), "checkpoints": rows}
