"""Command-line front door.

One JSON config per run; artifacts are written under an output prefix and
are byte-identical for identical (config, seed). Exit codes: 0 success,
2 validation error, 3 numeric failure; every failure emits a JSON error
record on stderr instead of a stack trace.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .chidensity import (
    log_weighted_norm_tail,
    log_weighted_shell_probability,
    weighted_density,
    weighted_norm_tail,
    density_lower_bound,
    density_upper_bound,
)
from .errors import NumericError, ValidationError
from .integraltest import classify, equivalence_report, fluctuation_diagnostic
from .montecarlo import (
    SeededStream,
    empirical_limsup,
    estimate_tail,
    per_rep_limsup_maxima,
    simulate_paths,
)
from .regularize import (
    derived_constants,
    log_shell_lower_bound,
    log_tail_lower_bound,
    log_tail_upper_bound,
    shell_width,
)
from .sequences import limit_and_convergence_report
from .serialize import (
    dump_json,
    finite_number,
    finite_numbers,
    parse_grid,
    parse_monte_carlo,
    parse_phi,
    parse_sequence,
    parse_spectrum,
    parse_weights_or_matrix,
    positive_int,
    spectrum_csv_rows,
    spectrum_from_weights,
    write_csv,
    write_json,
)

def _load_config(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"config file not found: {path}")
    try:
        cfg = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise ValidationError(f"config is not valid JSON: {e}") from None
    if not isinstance(cfg, dict):
        raise ValidationError("config must be a JSON object")
    return cfg


def _emit_table(out: Path, name: str, header: list[str], rows, fmt: str, summary: dict):
    if fmt == "csv":
        path = out.parent / f"{out.name}_{name}.csv"
        write_csv(path, header, rows)
        summary.setdefault("artifacts", []).append(path.name)
    else:
        summary[name] = [dict(zip(header, row)) for row in rows]


def _cmd_density(cfg: dict, out: Path, args: argparse.Namespace) -> dict:
    w = parse_weights_or_matrix(cfg)
    zs = parse_grid(cfg.get("z", {"min": 0.05, "max": 50.0, "count": 200}), "z")
    vals = weighted_density(w, zs)
    rows = [(float(z), float(v)) for z, v in zip(np.atleast_1d(zs), np.atleast_1d(vals))]
    summary = {"weights": list(w.weights), "count": len(rows)}
    _emit_table(out, "density", ["z", "density"], rows, args.format, summary)
    return summary


def _cmd_tail(cfg: dict, out: Path, args: argparse.Namespace) -> dict:
    w = parse_weights_or_matrix(cfg)
    ts = parse_grid(cfg.get("t", {"min": 0.5, "max": 8.0, "count": 40}), "t")
    samples = parse_monte_carlo(cfg)
    s = spectrum_from_weights(w.weights) if samples else None
    header = ["t", "tail"]
    rows = []
    for i, t in enumerate(np.atleast_1d(ts)):
        row = [float(t), weighted_norm_tail(w, float(t))]
        if samples:
            est = estimate_tail(s, float(t), samples, SeededStream(args.seed, stream_id=i))
            row.extend([est.p_hat, est.stderr, est.low_count])
        rows.append(tuple(row))
    if samples:
        header.extend(["mc_p_hat", "mc_stderr", "mc_low_count"])
    summary = {"weights": list(w.weights), "count": len(rows)}
    _emit_table(out, "tail", header, rows, args.format, summary)
    return summary


def _cmd_bounds_verify(cfg: dict, out: Path, args: argparse.Namespace) -> dict:
    s = parse_spectrum(cfg)
    w = s.law
    lam1 = s.lambda1
    dc = derived_constants(s.dim)
    zs = parse_grid(
        cfg.get("z", {"min": 0.05 * lam1**2, "max": 60.0 * lam1**2, "count": 120}),
        "z",
    )
    density_rows = []
    density_viol = 0
    for z in np.atleast_1d(zs):
        z = float(z)
        h = float(weighted_density(w, z))
        ub = density_upper_bound(s, z)
        lb, thresh = density_lower_bound(s, z)
        up_ok = h <= ub * (1.0 + 1e-7)
        lo_ok = True if (z < thresh) else (h >= lb * (1.0 - 1e-7))
        density_viol += (not up_ok) + (not lo_ok)
        density_rows.append((z, h, ub, lb, thresh, up_ok, lo_ok))

    t_min = dc.C1t * lam1  # validity threshold of the product bounds
    t_default = {"min": t_min, "max": 12.0 * lam1, "count": 8}
    tail_rows = []
    tail_viol = 0
    skipped = 0
    if t_min <= 12.0 * lam1 or "t" in cfg:
        for t in np.atleast_1d(parse_grid(cfg.get("t", t_default), "t")):
            t = float(t)
            if t < t_min:
                skipped += 1
                continue
            # the checks compare logs, so no side passes by underflowing to 0.0
            logs = (
                log_weighted_norm_tail(w, t),
                log_tail_lower_bound(s, t),
                log_tail_upper_bound(s, t),
                log_weighted_shell_probability(w, t, t + shell_width(s, t)),
                log_shell_lower_bound(s, t),
            )
            log_tail, log_lo, log_hi, log_shell, log_shell_lo = logs
            sandwich_ok = log_lo - 1e-7 <= log_tail <= log_hi + 1e-7
            shell_ok = log_shell >= log_shell_lo - 1e-7
            tail_viol += (not sandwich_ok) + (not shell_ok)
            tail_rows.append((t, *map(math.exp, logs), *logs, sandwich_ok, shell_ok))
    else:
        skipped = -1  # whole default window empty for this dimension

    summary = {
        "dim": s.dim,
        "d1": s.d1,
        "eigenvalues": [float(x) for x in s.eigenvalues],
        "density_violations": density_viol,
        "tail_violations": tail_viol,
        "skipped_t_below_validity": skipped,
    }
    _emit_table(
        out,
        "density_bounds",
        ["z", "density", "upper_bound", "lower_bound", "lower_threshold", "upper_ok", "lower_ok"],
        density_rows,
        args.format,
        summary,
    )
    _emit_table(
        out,
        "tail_bounds",
        ["t", "tail", "lower_bound", "upper_bound", "shell", "shell_lower_bound",
         "log_tail", "log_lower_bound", "log_upper_bound", "log_shell", "log_shell_lower_bound",
         "sandwich_ok", "shell_ok"],
        tail_rows,
        args.format,
        summary,
    )
    return summary


def _cmd_integral_test(cfg: dict, out: Path, args: argparse.Namespace) -> dict:
    if "phi" not in cfg or "sequence" not in cfg:
        raise ValidationError("integral-test config needs 'phi' and 'sequence'")
    phi = parse_phi(cfg["phi"])
    seq = parse_sequence(cfg["sequence"])
    d1 = positive_int(cfg.get("d1", seq.limit_spectrum().d1), "d1")
    diag = classify(phi, seq, d1, n_terms=positive_int(cfg.get("n_terms", 5000), "n_terms"))
    rows = [
        (int(n), float(t), float(p))
        for n, t, p in zip(diag.ns, diag.terms, diag.partial_sums)
    ]
    summary = {
        "verdict": diag.verdict,
        "method": diag.method,
        "note": diag.note,
        "d1": d1,
        "partial_sum": float(diag.partial_sums[-1]) if diag.partial_sums.size else 0.0,
    }
    if cfg.get("equivalence"):
        eq_cfg = cfg["equivalence"]
        if not isinstance(eq_cfg, dict):
            raise ValidationError("'equivalence' must be an object")
        rep = equivalence_report(
            phi,
            seq,
            alpha=finite_number(eq_cfg.get("alpha", 1.0), "equivalence.alpha"),
            K=positive_int(eq_cfg.get("K", 200), "equivalence.K"),
            k_min=positive_int(eq_cfg.get("k_min", 1), "equivalence.k_min"),
            d1=d1,
        )
        summary["equivalence"] = {
            "bracketing_low": rep.bracketing_low,
            "bracketing_high": rep.bracketing_high,
            "full_verdict": rep.full_verdict,
        }
    _emit_table(out, "terms", ["index", "term", "partial_sum"], rows, args.format, summary)
    return summary


def _cmd_sequence_info(cfg: dict, out: Path, args: argparse.Namespace) -> dict:
    if "sequence" not in cfg:
        raise ValidationError("sequence-info config needs 'sequence'")
    seq = parse_sequence(cfg["sequence"])
    N = positive_int(cfg.get("N", 10_000), "N")
    conv = limit_and_convergence_report(seq, N)
    summary = {
        "kind": seq.kind,
        "dim": seq.dim,
        "limit": conv["limit"],
        "convergence": [
            {
                "n": r["n"],
                "matrix_gap": r["matrix_gap"],
                "eigenvalue_gaps": r["eigenvalue_gaps"],
            }
            for r in conv["checkpoints"]
        ],
    }
    if seq.kind == "truncated":
        ns = [int(x) for x in np.geomspace(1, N, 20)]
        summary["cutoff_window"] = seq.cutoff.window_report(sorted(set(ns)))
    if "alpha" in cfg:
        rep = fluctuation_diagnostic(
            seq,
            finite_number(cfg["alpha"], "alpha"),
            finite_numbers(cfg.get("deltas", [0.1, 0.5, 1.0]), "deltas"),
            positive_int(cfg.get("K", 50), "K"),
        )
        summary["fluctuation"] = {
            "alpha": rep.alpha,
            "label": rep.label,
            "delta_k": rep.delta_k_values.tolist(),
            "partial_sums": {str(d): ps[-1] for d, ps in rep.partial_sums.items()},
            "last_decade_fraction": {
                str(d): f for d, f in rep.last_decade_fraction.items()
            },
        }
    s = seq.limit_spectrum()
    _emit_table(
        out,
        "limit_spectrum",
        ["index", "eigenvalue", "group_id"],
        spectrum_csv_rows(s),
        args.format,
        summary,
    )
    return summary


def _cmd_simulate(cfg: dict, out: Path, args: argparse.Namespace) -> dict:
    if "sequence" not in cfg:
        raise ValidationError("simulate config needs 'sequence'")
    seq = parse_sequence(cfg["sequence"])
    if "boundaries" in cfg:
        phis = [parse_phi(p) for p in cfg["boundaries"]]
    elif "phi" in cfg:
        phis = [parse_phi(cfg["phi"])]
    else:
        raise ValidationError("simulate config needs 'phi' or 'boundaries'")
    n_max = positive_int(cfg.get("n_max", 100_000), "n_max")
    reps = positive_int(cfg.get("reps", 16), "reps")
    records = simulate_paths(seq, phis[0], n_max, reps, SeededStream(args.seed))
    maxima = per_rep_limsup_maxima(records)
    summary = {
        "n_max": n_max,
        "reps": reps,
        "empirical_limsup": empirical_limsup(records),
        "per_rep_limsup_range": [float(maxima.min()), float(maxima.max())],
    }
    exceedance = []
    # every replication has the same checkpoints
    ns = [cp[0] for cp in records[0].checkpoints]
    for b, phi in enumerate(phis):
        bound = {n: phi.value(n, seq.spectrum_at(n).lambda1) for n in ns}
        count = 0
        rows = []
        for rec in records:
            for n, ratio, _, _ in rec.checkpoints:
                exceeded = ratio > bound[n]
                count += exceeded
                rows.append((rec.rep, n, ratio, exceeded))
        exceedance.append(int(count))
        _emit_table(
            out, f"paths_b{b}", ["rep", "n", "ratio", "exceeded"], rows, args.format, summary
        )
    summary["exceedance_counts"] = exceedance
    return summary


_HANDLERS = {
    "density": _cmd_density,
    "tail": _cmd_tail,
    "bounds-verify": _cmd_bounds_verify,
    "integral-test": _cmd_integral_test,
    "sequence-info": _cmd_sequence_info,
    "simulate": _cmd_simulate,
}


class _Parser(argparse.ArgumentParser):
    """Raises argument errors, which main turns into a JSON error record."""

    def error(self, message: str):
        raise ValidationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gausslil",
        description="Gaussian norm tails, eigenvalue-product bounds, and "
        "upper-lower class integral tests",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", required=True, help="output path prefix")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=["csv", "json"], default="csv")
    return parser


def run(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    out = Path(args.out)
    summary = _HANDLERS[args.command](cfg, out, args)
    payload = {
        "version": __version__,
        "command": args.command,
        "seed": args.seed,
        "format": args.format,
    }
    payload.update(summary)
    write_json(out.parent / f"{out.name}.json", payload)
    return 0


def main(argv=None) -> int:
    try:
        return run(build_parser().parse_args(argv))
    except ValidationError as e:
        return _error_record("validation", e, 2)
    except NumericError as e:
        return _error_record("numeric", e, 3)
    except Exception as e:  # never a bare stack trace
        return _error_record(type(e).__name__, e, 1)


def _error_record(kind: str, e: Exception, code: int) -> int:
    """Write the JSON error record to stderr; returns the exit code."""
    error = {"type": kind, "message": str(e)}
    sys.stderr.write(dump_json({"version": __version__, "error": error}))
    return code


if __name__ == "__main__":
    sys.exit(main())
