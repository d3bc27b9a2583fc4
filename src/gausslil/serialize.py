"""JSON schema parsing and deterministic CSV/JSON artifact writing."""
from __future__ import annotations

import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .integraltest import PhiFamily
from .sequences import CovarianceSequence, CutoffFamily, DiscreteDistribution
from .spectral import Spectrum, WeightedChiSquare, eigh


def parse_matrix(obj) -> np.ndarray:
    """Row-major nested arrays, or an object with an 'entries' field."""
    if isinstance(obj, dict):
        if "entries" not in obj:
            raise ValidationError("matrix object must carry 'entries'")
        obj = obj["entries"]
    try:
        m = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as e:
        raise ValidationError(f"matrix entries are not numeric: {e}") from None
    if m.ndim != 2:
        raise ValidationError(f"matrix must be 2-dimensional, got shape {m.shape}")
    return m


def finite_number(value, name: str) -> float:
    """A number field of a config: a finite JSON number; true, "2" and NaN are rejected."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an integer beyond the float range
            x = math.inf
        if math.isfinite(x):
            return x
    raise ValidationError(f"'{name}' must be a finite number, got {value!r}")


def finite_numbers(obj, name: str) -> tuple[float, ...]:
    """A list field of a config whose entries are finite numbers."""
    if not isinstance(obj, list):
        raise ValidationError(f"'{name}' must be a list of numbers, got {obj!r}")
    return tuple(finite_number(x, f"{name}[{i}]") for i, x in enumerate(obj))


def _law_source(cfg: dict) -> str:
    """'weights' or 'matrix', whichever the config carries; exactly one is allowed."""
    if "weights" in cfg and "matrix" in cfg:
        raise ValidationError("config takes exactly one of 'weights' and 'matrix', got both")
    if "weights" in cfg:
        return "weights"
    if "matrix" in cfg:
        return "matrix"
    raise ValidationError("config needs either 'weights' or 'matrix'")


def parse_weights_or_matrix(cfg: dict) -> WeightedChiSquare:
    if _law_source(cfg) == "weights":
        return WeightedChiSquare.from_weights(np.asarray(finite_numbers(cfg["weights"], "weights")))
    return WeightedChiSquare.from_spectrum(parse_spectrum(cfg))


def spectrum_from_weights(weights) -> Spectrum:
    """Spectrum of diag(weights): lambda_i^2 = weights, zeros kept in the dimension."""
    return eigh(np.diag(np.asarray(weights, dtype=float)))


def parse_spectrum(cfg: dict) -> Spectrum:
    """Spectrum of a config's 'matrix' (Gamma^2) or of its 'weights'."""
    if _law_source(cfg) == "matrix":
        return eigh(parse_matrix(cfg["matrix"]))
    return spectrum_from_weights(finite_numbers(cfg["weights"], "weights"))


# Caps on the size fields of a config. Each is far above every size the
# tests, goldens, README examples and benchmark use, and low enough that a
# capped run stays within seconds per row and within memory.
CAPS = {
    "count": 100_000,  # points of a range grid
    "monte_carlo.samples": 10_000_000,  # draws per threshold, about 1 s each at d = 8
    "reps": 1024,  # simulate replications, each up to 712 checkpoints kept
    "N": 10**9,  # sequence-info convergence range
    "K": 10_000,  # sequence-info fluctuation blocks
    "equivalence.K": 10_000,  # integral-test subsequence blocks
    "n_terms": 1_000_000,  # integral-test series terms, one table row each
}


def positive_int(value, name: str) -> int:
    """A count field of a config: a JSON integer >= 1; true, 2.0 and "2" are rejected.

    Fields named in CAPS must also be at most their cap.
    """
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValidationError(f"'{name}' must be a positive integer, got {value!r}")
    if value > CAPS.get(name, value):
        raise ValidationError(f"'{name}' must be at most {CAPS[name]}, its cap, got {value!r}")
    return value


def parse_monte_carlo(cfg: dict) -> int | None:
    """Sample count of the optional 'monte_carlo' object; None when it is absent."""
    mc = cfg.get("monte_carlo")
    if mc is None:
        return None
    if not isinstance(mc, dict):
        raise ValidationError("'monte_carlo' must be an object")
    return positive_int(mc.get("samples", 100_000), "monte_carlo.samples")


def parse_grid(obj, name: str) -> np.ndarray:
    """Either an explicit list or {min, max, count, spacing: log|linear}.

    Values must be finite, a range needs count >= 1, and log spacing needs
    positive ends.
    """
    if isinstance(obj, list):
        g = np.asarray(finite_numbers(obj, name))
        if g.size == 0:
            raise ValidationError(f"grid '{name}' is empty")
        return g
    if isinstance(obj, dict):
        missing = [k for k in ("min", "max", "count") if k not in obj]
        if missing:
            raise ValidationError(f"grid '{name}' missing fields: {missing}")
        lo, hi, count = (finite_number(obj[k], f"{name}.{k}") for k in ("min", "max", "count"))
        if count < 1:
            raise ValidationError(f"grid '{name}': count must be >= 1, got {obj['count']}")
        if count > CAPS["count"]:
            raise ValidationError(
                f"grid '{name}': count must be at most {CAPS['count']}, its cap, got {obj['count']}"
            )
        spacing = obj.get("spacing", "log")
        if spacing == "log":
            if not (lo > 0 and hi > 0):
                raise ValidationError(f"grid '{name}': log spacing needs min, max > 0")
            return np.geomspace(lo, hi, int(count))
        if spacing == "linear":
            return np.linspace(lo, hi, int(count))
        raise ValidationError(f"grid '{name}': unknown spacing {spacing!r}")
    raise ValidationError(f"grid '{name}' must be a list or a range object")


def parse_phi(obj: dict) -> PhiFamily:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValidationError("phi family must be an object with a 'kind'")
    kind = obj["kind"]
    if kind == "parametric":
        return PhiFamily(
            kind="parametric",
            a=finite_number(obj.get("a", 0.0), "phi.a"),
            b=finite_number(obj.get("b", 0.0), "phi.b"),
            clamp=bool(obj.get("clamp", False)),
        )
    if kind == "tabulated":
        if "values" not in obj:
            raise ValidationError("tabulated phi family needs 'values'")
        env = obj.get("envelope")
        return PhiFamily(
            kind="tabulated",
            values=finite_numbers(obj["values"], "phi.values"),
            clamp=bool(obj.get("clamp", False)),
            envelope=finite_numbers(env, "phi.envelope") if env else None,
        )
    raise ValidationError(f"unknown phi family kind {kind!r}")


def parse_distribution(obj: dict) -> DiscreteDistribution:
    if not isinstance(obj, dict) or "atoms" not in obj:
        raise ValidationError("distribution must be an object with 'atoms'")
    if not isinstance(obj["atoms"], list):
        raise ValidationError(f"'atoms' must be a list of atoms, got {obj['atoms']!r}")
    pts, probs = [], []
    for i, atom in enumerate(obj["atoms"]):
        if not isinstance(atom, dict) or "point" not in atom or "prob" not in atom:
            raise ValidationError(f"atom {i} must be an object with 'point' and 'prob'")
        pts.append(finite_numbers(atom["point"], f"atoms[{i}].point"))
        probs.append(finite_number(atom["prob"], f"atoms[{i}].prob"))
        if not pts[-1] or len(pts[-1]) != len(pts[0]):
            raise ValidationError(
                f"atoms[{i}].point has {len(pts[-1])} coordinates; every point "
                f"needs the same number, at least one"
            )
    return DiscreteDistribution(points=np.asarray(pts), probs=np.asarray(probs))


def parse_cutoff(obj: dict) -> CutoffFamily:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValidationError("cutoff family must be an object with a 'kind'")
    kind = obj["kind"]
    if kind == "sqrt_n":
        g = obj.get("g_table")
        return CutoffFamily(
            kind="sqrt_n",
            scale=finite_number(obj.get("scale", 1.0), "cutoff.scale"),
            g_table=finite_numbers(g, "cutoff.g_table") if g else None,
        )
    if kind == "constant":
        if "value" not in obj:
            raise ValidationError("constant cutoff needs 'value'")
        return CutoffFamily(kind="constant", value=finite_number(obj["value"], "cutoff.value"))
    raise ValidationError(f"unknown cutoff kind {kind!r}")


def parse_sequence(obj: dict) -> CovarianceSequence:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValidationError("sequence must be an object with a 'kind'")
    kind = obj["kind"]
    if kind == "constant":
        if "matrix" not in obj:
            raise ValidationError("constant sequence needs 'matrix'")
        return CovarianceSequence.constant(parse_matrix(obj["matrix"]))
    if kind == "tabulated":
        if "matrices" not in obj:
            raise ValidationError("tabulated sequence needs 'matrices'")
        return CovarianceSequence.tabulated([parse_matrix(m) for m in obj["matrices"]])
    if kind == "truncated":
        missing = [k for k in ("distribution", "cutoff") if k not in obj]
        if missing:
            raise ValidationError(f"truncated sequence missing fields: {missing}")
        return CovarianceSequence.truncated(
            parse_distribution(obj["distribution"]), parse_cutoff(obj["cutoff"])
        )
    raise ValidationError(f"unknown sequence kind {kind!r}")


# ---------------------------------------------------------------------------
# Deterministic artifact writing
# ---------------------------------------------------------------------------


def format_cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def atomic_write_text(path: str | Path, text: str) -> None:
    """Single-writer atomic write via temp file and rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str | Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(format_cell(v) for v in row) for row in rows)
    atomic_write_text(path, "\n".join(lines) + "\n")


def dump_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_json(path: str | Path, payload: dict) -> None:
    atomic_write_text(path, dump_json(payload))


def spectrum_csv_rows(s: Spectrum) -> list[tuple[int, float, int]]:
    """Rows (index, eigenvalue, group_id) for the frozen spectrum export."""
    rows = []
    idx = 0
    for gid, (_, mult) in enumerate(s.groups):
        for _ in range(mult):
            rows.append((idx, float(s.eigenvalues[idx]), gid))
            idx += 1
    return rows
