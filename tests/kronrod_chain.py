"""The reference chain of (10, 21) Gauss-Kronrod panels for the tests.

``KronrodChain`` lays the doubling chain [0, s], [s, 2s], [2s, 4s], ...
over rows that share it up to their own ends, through the library's
``kronrod_panel``. The density engine reads its panels from per-grid
tables; the tests integrate the same panels directly on this chain and
compare.
"""
from __future__ import annotations

import numpy as np

from gausslil.errors import NumericError
from gausslil.quadrature import kronrod_panel


class KronrodChain:
    """The (10, 21) rule over [0, ends_i] on panels that the rows share.

    Every row's chain is [0, s], [s, 2s], [2s, 4s], ..., clipped at the
    row's end, and ``ends`` must not decrease along the rows. Each panel
    is a ``kronrod_panel``: whole for a row and every row after it once
    it ends at or before the row's end, so only each row's last, clipped
    panel has abscissas of its own.
    """

    def __init__(self, first: float, ends: np.ndarray):
        ends = np.asarray(ends, dtype=float)
        if not (first > 0 and np.all(np.isfinite(ends))):
            raise NumericError("Gauss-Kronrod needs finite limits at every node")
        knots = [0.0, first]
        while knots[-1] < ends[-1]:
            knots.append(2.0 * knots[-1])
        self.size = ends.size
        self.panels = [kronrod_panel(lo, hi, ends) for lo, hi in zip(knots[:-1], knots[1:])]

    def points(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every (row, panel) pair, panel by panel: rows, abscissas (pairs, 21) and widths."""
        rows, x, width = zip(*((rows, u[which], w[which]) for rows, which, u, w in self.panels))
        return np.concatenate(rows), np.concatenate(x), np.concatenate(width)
