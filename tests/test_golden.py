"""Golden CLI outputs: one canonical config per command.

Each case runs the CLI in-process and compares every artifact it writes
(the JSON summary and each CSV table) with the copy stored under
``tests/golden/<case>/``. Engine-backed commands compare numbers at a
relative tolerance, so a change of quadrature order may move the last
digits; path simulation and sequence reports must match byte for byte.

Re-record only for a deliberate change of outputs, either every case or
the named ones:

    PYTHONPATH=src python tests/test_golden.py --record [NAME ...]
"""
from __future__ import annotations

import json
import math
import shutil
import sys
from pathlib import Path

import pytest

from gausslil.cli import main

GOLDEN = Path(__file__).parent / "golden"

_TRUNCATED = {
    "kind": "truncated",
    "distribution": {
        "atoms": [
            {"point": [1.0, 0.0], "prob": 0.25},
            {"point": [-1.0, 0.0], "prob": 0.25},
            {"point": [0.0, 2.0], "prob": 0.25},
            {"point": [0.0, -2.0], "prob": 0.25},
        ]
    },
    "cutoff": {"kind": "sqrt_n"},
}

_SIMULATE = {
    "sequence": {"kind": "constant", "matrix": [[1.0, 0.0], [0.0, 1.0]]},
    "boundaries": [{"kind": "parametric", "a": 0.0}, {"kind": "parametric", "a": 6.0}],
    "n_max": 20_000,
    "reps": 4,
}

# name -> (command, config, seed, comparison). Comparison is a relative
# tolerance for numeric cells, or None for byte-exact files.
CASES = {
    "density": ("density", {"weights": [1.0, 0.25], "z": [0.5, 2.0]}, 0, 1e-9),
    "tail": (
        "tail",
        {"weights": [1.0, 0.25], "t": [1.0, 3.0], "monte_carlo": {"samples": 100_000}},
        7,
        1e-9,
    ),
    # d = 6 with a near tie (lambda_2^2 / lambda_1^2 = 0.995), out to
    # t = 35 lambda_1, where the tail is near 1e-266
    "tail_d6_deep": (
        "tail",
        {"weights": [2.0, 1.99, 1.2, 0.7, 0.3, 0.1], "t": [1.5, 4.0, 10.0, 20.0, 30.0, 40.0, 49.49]},
        0,
        1e-9,
    ),
    "bounds_verify": (
        "bounds-verify",
        {"weights": [1.0, 0.25], "z": {"min": 0.05, "max": 60, "count": 120}, "t": [7.0, 9.0]},
        0,
        1e-9,
    ),
    "bounds_verify_d4": (
        "bounds-verify",
        {
            "matrix": [
                [1.0, 0.2, 0.0, 0.1],
                [0.2, 0.8, 0.1, 0.0],
                [0.0, 0.1, 0.5, 0.05],
                [0.1, 0.0, 0.05, 0.3],
            ],
            "z": {"min": 0.05, "max": 60, "count": 40},
            "t": [14.0, 16.0, 20.0, 26.0],
        },
        0,
        1e-9,
    ),
    "integral_test": (
        "integral-test",
        {
            "phi": {"kind": "parametric", "a": 4.0, "b": 0.0},
            "sequence": {"kind": "constant", "matrix": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.36]]},
            "n_terms": 500,
            "equivalence": {"alpha": 1.0, "K": 30, "k_min": 1},
        },
        0,
        1e-12,
    ),
    "sequence_info": (
        "sequence-info",
        {"sequence": _TRUNCATED, "N": 10_000, "alpha": 1.0, "K": 50, "deltas": [0.1, 0.5, 1.0]},
        0,
        None,
    ),
    "simulate": ("simulate", _SIMULATE, 3, None),
}


def run_case(name: str, out_dir: Path) -> int:
    command, cfg, seed, _ = CASES[name]
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg_path = out_dir.parent / f"{name}_config.json"
    cfg_path.write_text(json.dumps(cfg))
    return main(
        [command, "--config", str(cfg_path), "--out", str(out_dir / "run"),
         "--seed", str(seed)]
    )


def _cell_equal(a: str, b: str, rel: float) -> bool:
    if a == b:
        return True
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return x == pytest.approx(y, rel=rel, abs=0.0)


def _json_equal(a, b, rel: float) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_json_equal(a[k], b[k], rel) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_json_equal(x, y, rel) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        return _cell_equal(repr(a), repr(b), rel)
    return type(a) is type(b) and a == b


def _compare(got: Path, want: Path, rel: float | None) -> None:
    if rel is None:
        assert got.read_bytes() == want.read_bytes(), f"{want.name} differs"
    elif want.suffix == ".json":
        assert _json_equal(json.loads(got.read_text()), json.loads(want.read_text()), rel), (
            f"{want.name} differs beyond rel {rel}"
        )
    else:
        got_rows = [line.split(",") for line in got.read_text().splitlines()]
        want_rows = [line.split(",") for line in want.read_text().splitlines()]
        assert got_rows[0] == want_rows[0], f"{want.name} header differs"
        assert len(got_rows) == len(want_rows), f"{want.name} row count differs"
        for i, (g, w) in enumerate(zip(got_rows, want_rows)):
            assert len(g) == len(w) and all(_cell_equal(x, y, rel) for x, y in zip(g, w)), (
                f"{want.name} row {i}: {g} != {w}"
            )


# The ids keep the "-1" suffix from when the cases were also run at a
# second thread count, so that test names stay stable.
@pytest.mark.parametrize("name", list(CASES), ids=[f"{name}-1" for name in CASES])
def test_golden_cli_output(tmp_path, name):
    assert run_case(name, tmp_path / name) == 0
    want_dir = GOLDEN / name
    got = sorted(p.name for p in (tmp_path / name).iterdir())
    assert got == sorted(p.name for p in want_dir.iterdir())
    for fname in got:
        _compare(tmp_path / name / fname, want_dir / fname, CASES[name][3])


def _record(names) -> None:
    for name in names or CASES:
        target = GOLDEN / name
        if target.exists():
            shutil.rmtree(target)
        if run_case(name, target) != 0:
            raise SystemExit(f"case {name} failed")
        (GOLDEN / f"{name}_config.json").unlink()
        print(f"recorded {name}")


if __name__ == "__main__":
    if sys.argv[1:2] != ["--record"]:
        raise SystemExit(__doc__)
    _record(sys.argv[2:])
