"""Pinned values of the weighted chi-square engine.

Tails, shells and densities of a fixed set of weight vectors, recorded in
``tests/golden/engine_values.json`` and compared at rel 1e-12 with no
absolute slack, so a change to how the engine builds or reads its levels
must keep every value to rounding. Re-record only for a deliberate change
of values:

    PYTHONPATH=src python tests/test_engine_values.py --record
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from test_chidensity import TABLE_WEIGHTS

from gausslil.chidensity import (
    WeightedChiSquare,
    weighted_density,
    weighted_norm_tail,
    weighted_shell_probability,
)

FIXTURE = Path(__file__).parent / "golden" / "engine_values.json"

VECTORS = [
    *TABLE_WEIGHTS,
    np.linspace(1.0, 0.1, 16).tolist(),
    np.linspace(1.0, 0.1, 32).tolist(),
    [1.0, 0.5, 1e-7, 1e-8],
]
T_OVER_LAMBDA1 = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 30.0, 35.0)
SHELL_RATIO = 1.05  # each shell is [t, 1.05 t]
Z_OVER_LAMBDA1_SQ = np.geomspace(1e-12, 1e3, 50).tolist()


def engine_values(weights) -> dict:
    w = WeightedChiSquare.from_weights(weights)
    lam1 = math.sqrt(w.lambda1_sq)
    ts = [r * lam1 for r in T_OVER_LAMBDA1]
    zs = np.array(Z_OVER_LAMBDA1_SQ) * w.lambda1_sq
    return {
        "weights": list(weights),
        "tail": [weighted_norm_tail(w, t) for t in ts],
        "shell": [weighted_shell_probability(w, t, SHELL_RATIO * t) for t in ts],
        "density": weighted_density(w, zs).tolist(),
    }


def _record() -> None:
    payload = {
        "t_over_lambda1": list(T_OVER_LAMBDA1),
        "shell_ratio": SHELL_RATIO,
        "z_over_lambda1_sq": Z_OVER_LAMBDA1_SQ,
        "vectors": [engine_values(v) for v in VECTORS],
    }
    FIXTURE.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"recorded {len(VECTORS)} vectors to {FIXTURE.name}")


def _stored() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_the_vectors():
    stored = _stored()
    assert stored["t_over_lambda1"] == list(T_OVER_LAMBDA1)
    assert stored["shell_ratio"] == SHELL_RATIO
    assert stored["z_over_lambda1_sq"] == Z_OVER_LAMBDA1_SQ
    assert [v["weights"] for v in stored["vectors"]] == [list(v) for v in VECTORS]


@pytest.mark.parametrize("index", range(len(VECTORS)), ids=lambda i: f"v{i}-d{len(VECTORS[i])}")
def test_engine_values_match_fixture(index):
    want = _stored()["vectors"][index]
    got = engine_values(want["weights"])
    for key in ("tail", "shell", "density"):
        # every pinned value is a positive normal float, so rel 1e-12 is a real check
        assert all(v >= sys.float_info.min for v in want[key]), key
        np.testing.assert_allclose(got[key], want[key], rtol=1e-12, atol=0, err_msg=key)


if __name__ == "__main__":
    if sys.argv[1:2] != ["--record"]:
        raise SystemExit(__doc__)
    _record()
