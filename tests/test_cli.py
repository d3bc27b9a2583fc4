import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import gausslil
from gausslil.cli import main
from gausslil.errors import ValidationError
from gausslil.iterlog import subsequence_index
from gausslil.serialize import CAPS, format_cell, parse_grid, positive_int
from gausslil.special import chisq_density


def run_cli(tmp_path, command, cfg, name="run", fmt="csv", seed=0, extra=()):
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / name
    code = main(
        [command, "--config", str(cfg_path), "--out", str(out), "--format", fmt,
         "--seed", str(seed), *extra]
    )
    return code, out


def read_json(out):
    return json.loads((out.parent / f"{out.name}.json").read_text())


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_density_equal_weights_reproduces_chisq(tmp_path):
    code, out = run_cli(
        tmp_path,
        "density",
        {"weights": [1.0, 1.0, 1.0], "z": [0.5, 2.0, 7.0]},
    )
    assert code == 0
    header, rows = read_csv(tmp_path / "run_density.csv")
    assert header == ["z", "density"]
    for row in rows:
        z, dens = float(row[0]), float(row[1])
        assert dens == pytest.approx(chisq_density(3, z), rel=1e-10)
    summary = read_json(out)
    assert summary["version"] == "0.1.0"
    assert "run_density.csv" in summary["artifacts"]


def test_tail_command_with_monte_carlo(tmp_path):
    code, out = run_cli(
        tmp_path,
        "tail",
        {"weights": [1.0, 1.0], "t": [2.0], "monte_carlo": {"samples": 50_000}},
        seed=3,
    )
    assert code == 0
    header, rows = read_csv(tmp_path / "run_tail.csv")
    assert header == ["t", "tail", "mc_p_hat", "mc_stderr", "mc_low_count"]
    t, tail, p_hat, se, low = rows[0]
    assert float(tail) == pytest.approx(math.exp(-2.0), rel=1e-10)
    assert abs(float(p_hat) - math.exp(-2.0)) <= 4 * float(se)
    assert low == "false"


def test_bounds_verify_zero_violations(tmp_path):
    code, out = run_cli(tmp_path, "bounds-verify", {"weights": [1.0, 0.25]})
    assert code == 0
    summary = read_json(out)
    assert summary["density_violations"] == 0
    assert summary["tail_violations"] == 0
    header, rows = read_csv(tmp_path / "run_tail_bounds.csv")
    assert header[0] == "t"
    assert all(r[-2] == "true" and r[-1] == "true" for r in rows)


def test_bounds_verify_compares_logs_past_the_underflow_edge(tmp_path):
    # the tails at 45 and 60 lambda_1 are 0.0; the checks read their logs
    cfg = {"weights": [1.0, 0.5], "z": [1.0], "t": [38.8, 45.0, 60.0]}
    code, out = run_cli(tmp_path, "bounds-verify", cfg)
    assert code == 0
    assert read_json(out)["tail_violations"] == 0
    header, rows = read_csv(tmp_path / "run_tail_bounds.csv")
    logs = ["log_tail", "log_lower_bound", "log_upper_bound", "log_shell", "log_shell_lower_bound"]
    assert [h for h in header if h.startswith("log_")] == logs
    table = [dict(zip(header, r)) for r in rows]
    for row in table:
        assert all(math.isfinite(float(row[h])) for h in logs)
        assert row["sandwich_ok"] == row["shell_ok"] == "true"
        assert float(row["tail"]) == math.exp(float(row["log_tail"]))
    assert [float(row["tail"]) for row in table[1:]] == [0.0, 0.0]


@pytest.mark.parametrize("dim,code", [(260, 0), (330, 0), (780, 2)])
def test_bounds_verify_at_high_dimension(tmp_path, capsys, dim, code):
    # 260 equal weights: z^{d1/2 - 1} of the density bound alone leaves
    # float64, so the bound is computed in logs; so are C1 and C2, which
    # leave it from d ~ 310; from d = 778 the linear C3 overflows the table,
    # a validation record that names d
    cfg = {"weights": [1.0] * dim, "z": [200.0, 260.0, 330.0]}
    got, out = run_cli(tmp_path, "bounds-verify", cfg)
    assert got == code
    if code == 0:
        assert read_json(out)["density_violations"] == 0
    else:
        assert f"d = {dim}" in json.loads(capsys.readouterr().err)["error"]["message"]


def test_integral_test_opposite_verdicts(tmp_path):
    _, out_c = run_cli(
        tmp_path,
        "integral-test",
        {"phi": {"kind": "parametric", "a": 4.0}, "sequence": {"kind": "constant", "matrix": [[1.0]]},
         "d1": 1, "n_terms": 200},
        name="conv",
    )
    _, out_d = run_cli(
        tmp_path,
        "integral-test",
        {"phi": {"kind": "parametric", "a": 2.0}, "sequence": {"kind": "constant", "matrix": [[1.0]]},
         "d1": 1, "n_terms": 200},
        name="div",
    )
    assert read_json(out_c)["verdict"] == "Converges"
    assert read_json(out_d)["verdict"] == "Diverges"
    header, rows = read_csv(out_c.parent / "conv_terms.csv")
    assert header == ["index", "term", "partial_sum"]
    assert len(rows) == 200


def test_sequence_info_truncated(tmp_path):
    cfg = {
        "sequence": {
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
        },
        "N": 100,
        "alpha": 1.0,
        "K": 12,
    }
    code, out = run_cli(tmp_path, "sequence-info", cfg)
    assert code == 0
    summary = read_json(out)
    assert summary["limit"] == [[0.5, 0.0], [0.0, 2.0]]
    assert "fluctuation" in summary
    header, rows = read_csv(tmp_path / "run_limit_spectrum.csv")
    assert header == ["index", "eigenvalue", "group_id"]
    assert len(rows) == 2


def test_simulate_multi_boundary(tmp_path):
    cfg = {
        "sequence": {"kind": "constant", "matrix": [[1.0, 0.0], [0.0, 1.0]]},
        "boundaries": [
            {"kind": "parametric", "a": 0.0},
            {"kind": "parametric", "a": 6.0},
        ],
        "n_max": 5000,
        "reps": 4,
    }
    code, out = run_cli(tmp_path, "simulate", cfg, seed=11)
    assert code == 0
    summary = read_json(out)
    assert summary["exceedance_counts"][1] <= summary["exceedance_counts"][0]
    assert 0.0 < summary["empirical_limsup"] < 3.0
    header, _ = read_csv(tmp_path / "run_paths_b0.csv")
    assert header == ["rep", "n", "ratio", "exceeded"]


def test_simulate_evaluates_each_boundary_once_per_checkpoint(tmp_path, monkeypatch):
    # phi_n depends on n alone: once per checkpoint in the sampler, and once
    # per checkpoint and boundary for the tables, whatever the reps
    from gausslil.integraltest import PhiFamily
    from gausslil.montecarlo import checkpoint_schedule

    calls = []
    value = PhiFamily.value
    monkeypatch.setattr(PhiFamily, "value", lambda self, n, lam1: calls.append(n) or value(self, n, lam1))
    cfg = {
        "sequence": {"kind": "constant", "matrix": [[1.0, 0.0], [0.0, 1.0]]},
        "boundaries": [{"kind": "parametric", "a": 0.0}, {"kind": "parametric", "a": 6.0}],
        "n_max": 2000,
        "reps": 5,
    }
    code, _ = run_cli(tmp_path, "simulate", cfg, seed=11)
    assert code == 0
    assert calls == 3 * checkpoint_schedule(2000)


def test_byte_identical_reruns(tmp_path):
    cfg = {
        "sequence": {"kind": "constant", "matrix": [[1.0, 0.0], [0.0, 0.25]]},
        "phi": {"kind": "parametric", "a": 2.0},
        "n_max": 2000,
        "reps": 2,
    }
    _, out1 = run_cli(tmp_path, "simulate", cfg, name="s1", seed=5)
    _, out2 = run_cli(tmp_path, "simulate", cfg, name="s2", seed=5)
    j1 = (tmp_path / "s1.json").read_bytes().replace(b"s1", b"sX")
    j2 = (tmp_path / "s2.json").read_bytes().replace(b"s2", b"sX")
    assert j1 == j2
    c1 = (tmp_path / "s1_paths_b0.csv").read_bytes()
    c2 = (tmp_path / "s2_paths_b0.csv").read_bytes()
    assert c1 == c2


def test_validation_error_record(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"weights": [0.0]}))
    code = main(["density", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "validation"
    assert "version" in err


def test_tail_table_overflow_is_a_numeric_record(tmp_path, capsys):
    # one block of 1,000 equal weights: the scaled tail table leaves float64
    code, _ = run_cli(tmp_path, "tail", {"weights": [1.0] * 1000, "t": [30.0]})
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "numeric"
    assert "overflows float64" in err["error"]["message"]


def test_underflowing_level_is_the_only_output(tmp_path):
    # 100 weights: level 90's value at the grid's bottom node underflows to
    # 0.0, and the build must stop there, before any log of it warns; in a
    # subprocess, so that a numpy warning would reach stderr
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"weights": np.linspace(1.0, 0.1, 100).tolist(), "t": [5.0]}))
    src = str(Path(gausslil.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONWARNINGS", None)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "gausslil.cli", "tail", "--config", str(cfg_path),
         "--out", str(tmp_path / "x")],
        capture_output=True, text=True, timeout=30, env=env,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 3, proc.stderr
    err = json.loads(proc.stderr)  # the record and nothing else
    assert err["error"]["type"] == "numeric"
    assert err["error"]["message"] == "convolution level 90 underflows at normalized z = 1e-06"
    assert elapsed < 5.0


def test_missing_config_error_record(tmp_path, capsys):
    code = main(["tail", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert "not found" in err["error"]["message"]


def test_malformed_json_error_record(tmp_path, capsys):
    cfg_path = tmp_path / "broken.json"
    cfg_path.write_text("{not json")
    code = main(["density", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "validation"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["density", "--config", "c.json", "--out", "x", "--bogus"], "unrecognized arguments"),
        (["density", "--config", "c.json", "--out", "x", "--seed", "abc"], "invalid int value"),
        (["tail", "--out", "x"], "required: --config"),
    ],
    ids=["unknown-option", "bad-seed", "missing-config"],
)
def test_argument_errors_give_an_error_record(argv, message, capsys):
    # argparse would print its usage text and exit 2 with no record
    assert main(argv) == 2
    err = capsys.readouterr().err
    record = json.loads(err)  # stderr holds the record and nothing else
    assert record["error"]["type"] == "validation"
    assert message in record["error"]["message"]
    assert "version" in record


def test_threads_option_is_rejected_and_env_ignored(tmp_path, monkeypatch, capsys):
    cfg = {
        "sequence": {"kind": "constant", "matrix": [[1.0, 0.0], [0.0, 0.25]]},
        "phi": {"kind": "parametric", "a": 2.0},
        "n_max": 2000,
        "reps": 3,
    }
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(cfg))
    argv = ["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "run")]
    # the option is gone: an argument error, with its JSON record
    capsys.readouterr()
    assert main(argv + ["--threads", "4"]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"]["type"] == "validation"
    assert "--threads" in record["error"]["message"]
    outputs = {}
    for name in ("plain", "env"):
        if name == "env":
            monkeypatch.setenv("GAUSSLIL_THREADS", "not-a-number")
        (tmp_path / name).mkdir()
        argv = ["simulate", "--config", str(cfg_path), "--out", str(tmp_path / name / "run")]
        assert main(argv) == 0
        outputs[name] = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
    assert outputs["env"] == outputs["plain"]


def test_json_format_embeds_tables(tmp_path):
    code, out = run_cli(
        tmp_path, "density", {"weights": [1.0], "z": [1.0, 2.0]}, fmt="json"
    )
    assert code == 0
    summary = read_json(out)
    assert len(summary["density"]) == 2
    assert set(summary["density"][0]) == {"z", "density"}


_SERIES = {
    "phi": {"kind": "parametric", "a": 4.0},
    "sequence": {"kind": "constant", "matrix": [[1.0, 0.0], [0.0, 0.5]]},
}
# c_n = sqrt(n) g_n with g_10 = 0.05 falls at n = 10
_DIPPING_CUTOFF = {
    "kind": "truncated",
    "distribution": {
        "atoms": [
            {"point": [1.0, 0.0], "prob": 0.25},
            {"point": [-1.0, 0.0], "prob": 0.25},
            {"point": [0.0, 2.0], "prob": 0.25},
            {"point": [0.0, -2.0], "prob": 0.25},
        ]
    },
    "cutoff": {"kind": "sqrt_n", "g_table": [1.0] * 9 + [0.05] + [1.0] * 2},
}
# atoms at +-(0, 2): under c_n = sqrt(n), Gamma_n = 0 for n <= 3
_ZERO_PREFIX = {
    "kind": "truncated",
    "distribution": {"atoms": [{"point": [0.0, 2.0], "prob": 0.5}, {"point": [0.0, -2.0], "prob": 0.5}]},
    "cutoff": {"kind": "sqrt_n"},
}


def test_integral_test_zero_prefix(tmp_path):
    cfg = {"phi": {"kind": "parametric", "a": 4.0}, "sequence": _ZERO_PREFIX, "n_terms": 50,
           "equivalence": {"K": 60}}
    code, out = run_cli(tmp_path, "integral-test", cfg)
    assert code == 0
    summary = read_json(out)
    assert summary["verdict"] == "Converges"
    eq = summary["equivalence"]
    assert 0 < eq["bracketing_low"] <= eq["bracketing_high"] < math.inf
    _, rows = read_csv(tmp_path / "run_terms.csv")
    assert [int(r[0]) for r in rows] == list(range(1, 51))
    assert [float(r[1]) for r in rows[:3]] == [0.0] * 3
    assert all(float(r[1]) > 0 for r in rows[3:])


@pytest.mark.parametrize(
    "command,cfg",
    [
        ("density", {"weights": [1.0, 0.25], "z": [0.5, 2.0]}),
        ("tail", {"weights": [1.0, 0.25], "t": [1.0, 3.0], "monte_carlo": {"samples": 10_000}}),
        ("bounds-verify", {"weights": [1.0, 0.25], "z": {"min": 0.05, "max": 60, "count": 6}, "t": [7.0, 9.0]}),
        ("integral-test", {**_SERIES, "n_terms": 40, "equivalence": {"K": 20}}),
        ("sequence-info", {"sequence": {**_DIPPING_CUTOFF, "cutoff": {"kind": "sqrt_n"}}, "N": 1000, "alpha": 1.0, "K": 10}),
        (
            "simulate",
            {
                "sequence": {"kind": "constant", "matrix": [[1.0, 0.0], [0.0, 0.25]]},
                "boundaries": [{"kind": "parametric", "a": 0.0}, {"kind": "parametric", "a": 6.0}],
                "n_max": 2000,
                "reps": 2,
            },
        ),
    ],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_json_tables_match_csv(tmp_path, command, cfg):
    # the JSON summary embeds each table the CSV run writes, cell for cell
    # (its keys sorted), and is otherwise the CSV run's summary
    (tmp_path / "csv").mkdir()
    (tmp_path / "json").mkdir()
    code, out_csv = run_cli(tmp_path / "csv", command, cfg, seed=5)
    assert code == 0
    code, out_json = run_cli(tmp_path / "json", command, cfg, fmt="json", seed=5)
    assert code == 0
    from_csv, from_json = read_json(out_csv), read_json(out_json)
    tables = []
    for artifact in from_csv.pop("artifacts"):
        table = artifact[len("run_") : -len(".csv")]
        header, rows = read_csv(tmp_path / "csv" / artifact)
        embedded = from_json.pop(table)
        assert [sorted(r) for r in embedded] == [sorted(header)] * len(rows)
        assert [[format_cell(r[h]) for h in header] for r in embedded] == rows
        tables.append(table)
    assert tables
    assert from_csv.pop("format") == "csv" and from_json.pop("format") == "json"
    assert from_json == from_csv


@pytest.mark.parametrize(
    "command,cfg",
    [
        ("tail", {"weights": [1.0, 0.25], "t": [float("nan")]}),
        ("density", {"weights": [1.0], "z": {"min": 0.1, "max": 1.0, "count": -3}}),
        ("density", {"weights": "abc"}),
        ("bounds-verify", {"weights": "abc"}),
        ("tail", {"weights": [1.0], "t": [1.0], "monte_carlo": True}),
        ("tail", {"weights": [1.0], "t": [1.0], "monte_carlo": {"samples": "many"}}),
        ("tail", {"weights": [1.0], "t": [1.0], "monte_carlo": {"samples": 2.5}}),
        ("density", {"weights": [1.0, 0.25], "matrix": [[4.0, 0.0], [0.0, 1.0]]}),
        ("tail", {"weights": [1.0, 0.25], "matrix": [[4.0, 0.0], [0.0, 1.0]], "t": [1.0]}),
        ("bounds-verify", {"weights": [1.0, 0.25], "matrix": [[4.0, 0.0], [0.0, 1.0]]}),
        ("integral-test", {**_SERIES, "n_terms": "abc"}),
        ("integral-test", {**_SERIES, "n_terms": 0}),
        ("integral-test", {**_SERIES, "d1": 1.5}),
        ("integral-test", {**_SERIES, "equivalence": {"K": "x"}}),
        ("integral-test", {**_SERIES, "equivalence": {"k_min": -1}}),
        ("integral-test", {**_SERIES, "equivalence": True}),
        ("sequence-info", {"sequence": _SERIES["sequence"], "N": 2.5}),
        ("sequence-info", {"sequence": _SERIES["sequence"], "alpha": 1.0, "K": "many"}),
        ("simulate", {**_SERIES, "reps": "two"}),
        ("simulate", {**_SERIES, "n_max": True}),
        ("sequence-info", {"sequence": _DIPPING_CUTOFF}),
        ("integral-test", {**_SERIES, "d1": 7}),
        ("integral-test", {**_SERIES, "equivalence": {"alpha": "x"}}),
        ("integral-test", {**_SERIES, "phi": {"kind": "parametric", "a": "x"}}),
        ("integral-test", {**_SERIES, "phi": {"kind": "parametric", "b": True}}),
        ("integral-test", {**_SERIES, "phi": {"kind": "tabulated", "values": [1.0, "x"]}}),
        ("integral-test", {**_SERIES, "phi": {"kind": "tabulated", "values": [1.0], "envelope": [4.0, float("inf")]}}),
        ("sequence-info", {"sequence": _SERIES["sequence"], "alpha": "x"}),
        ("sequence-info", {"sequence": _SERIES["sequence"], "alpha": 1.0, "deltas": [0.5, "x"]}),
        ("sequence-info", {"sequence": _SERIES["sequence"], "alpha": 1.0, "deltas": 0.5}),
        ("sequence-info", {"sequence": {**_DIPPING_CUTOFF, "cutoff": {"kind": "sqrt_n", "scale": "x"}}}),
        ("sequence-info", {"sequence": {**_DIPPING_CUTOFF, "cutoff": {"kind": "constant", "value": float("nan")}}}),
        ("sequence-info", {"sequence": {**_DIPPING_CUTOFF, "distribution": {"atoms": [{"point": ["x", 0.0], "prob": 1.0}]}}}),
        ("sequence-info", {"sequence": {**_DIPPING_CUTOFF, "distribution": {"atoms": [{"point": [0.0, 0.0], "prob": "one"}]}}}),
        ("sequence-info", {"sequence": {**_DIPPING_CUTOFF, "distribution": {"atoms": [{"point": [1.0, 0.0], "prob": 0.5}, {"point": [-1.0], "prob": 0.5}]}}}),
        ("sequence-info", {"sequence": {**_DIPPING_CUTOFF, "distribution": {"atoms": 5}}}),
        ("sequence-info", {"sequence": {**_DIPPING_CUTOFF, "distribution": {"atoms": [5]}}}),
        ("sequence-info", {"sequence": {**_DIPPING_CUTOFF, "distribution": {"atoms": [{"point": [], "prob": 1.0}]}}}),
        ("simulate", {**_SERIES, "n_max": 10**400}),
        ("density", {"weights": [1.0, 0.5], "z": {"min": 0.05, "max": 60, "count": 1e13}}),
        ("tail", {"weights": [1.0], "t": {"min": 1.0, "max": 2.0, "count": 100_001}}),
        ("tail", {"weights": [1.0], "t": [1.0], "monte_carlo": {"samples": 10_000_001}}),
        ("simulate", {**_SERIES, "reps": 1025}),
        ("sequence-info", {"sequence": _SERIES["sequence"], "N": 10**9 + 1}),
        ("sequence-info", {"sequence": _SERIES["sequence"], "alpha": 1.0, "K": 10_001}),
        ("integral-test", {**_SERIES, "equivalence": {"K": 10_001}}),
        ("integral-test", {**_SERIES, "n_terms": 10**13}),
        ("integral-test", {**_SERIES, "sequence": {**_ZERO_PREFIX, "cutoff": {"kind": "constant", "value": 1.0}}}),
    ],
    ids=[
        "nan-threshold", "negative-count", "weights-string", "bounds-weights-string",
        "mc-true", "mc-samples-string", "mc-samples-fraction",
        "density-weights-and-matrix", "tail-weights-and-matrix", "bounds-weights-and-matrix",
        "n-terms-string", "n-terms-zero", "d1-fraction", "equivalence-K-string",
        "equivalence-k-min-negative", "equivalence-true", "N-fraction", "K-string",
        "reps-string", "n-max-true", "decreasing-cutoff", "d1-above-dimension",
        "equivalence-alpha-string", "phi-a-string", "phi-b-true", "phi-values-string",
        "phi-envelope-inf", "alpha-string", "deltas-string", "deltas-not-list",
        "cutoff-scale-string", "cutoff-value-nan", "atom-point-string", "atom-prob-string",
        "atom-points-unequal", "atoms-not-list", "atom-not-object", "atom-point-empty",
        "n-max-above-2-53", "count-above-cap", "t-count-above-cap", "samples-above-cap",
        "reps-above-cap", "N-above-cap", "K-above-cap", "equivalence-K-above-cap",
        "n-terms-above-cap", "cutoff-below-every-atom",
    ],
)
def test_malformed_config_exits_2(tmp_path, command, cfg):
    # in a subprocess, so that a hang is cut by the timeout instead of the suite
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    src = str(Path(gausslil.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "gausslil.cli", command, "--config", str(cfg_path),
         "--out", str(tmp_path / "x")],
        capture_output=True, text=True, timeout=30, env=env,
    )
    assert proc.returncode == 2, proc.stderr
    err = json.loads(proc.stderr)
    assert err["error"]["type"] == "validation"


def test_sequence_info_caps_the_states_of_a_pair_scan(tmp_path, capsys):
    # a tabulated sequence is not PSD-monotone, so delta_k scans every pair
    # of states in each window; at alpha = 1 a 2,000-matrix table fits
    # K = 23, whose windows reach 372 states, and the first window past
    # the cap, [254, 320], stops the run
    table = [[[1.0 + 1.0 / n, 0.0], [0.0, 1.0 + (n % 3) / n]] for n in range(1, 2001)]
    K = max(k for k in range(1, 40) if subsequence_index(1.0, k + 1) <= len(table))
    assert K == 23
    cfg = {"sequence": {"kind": "tabulated", "matrices": table}, "alpha": 1.0, "K": K}
    start = time.perf_counter()
    code, _ = run_cli(tmp_path, "sequence-info", cfg)
    elapsed = time.perf_counter() - start
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "validation"
    assert "window [254, 320] is too large (67 distinct states; limit 64)" in err["error"]["message"]
    assert elapsed < 1.0


def test_capped_fields_name_their_cap():
    for name, cap in CAPS.items():
        if name == "count":
            assert parse_grid({"min": 1.0, "max": 2.0, "count": cap}, "z").size == cap
            with pytest.raises(ValidationError, match=f"grid 'z': count must be at most {cap}, its cap"):
                parse_grid({"min": 1.0, "max": 2.0, "count": cap + 1}, "z")
            continue
        assert positive_int(cap, name) == cap
        with pytest.raises(ValidationError, match=f"'{name}' must be at most {cap}, its cap"):
            positive_int(cap + 1, name)
