import json
import subprocess
import sys

import numpy as np
import pytest

from evarank.cli import main
from evarank.covariance import load_matrix_binary


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


INTERIOR = {
    "rect": {"N": 8, "M": 8},
    "components": [
        {"a": 3, "b": 2, "omega": 0.9},
        {"a": 2, "b": -1, "omega": 1.6},
    ],
}

# four unit-slope components push the column sum past M=4
OUTSIDE = {
    "rect": {"N": 4, "M": 4},
    "components": [{"a": 1, "b": 1, "omega": 0.3 + 0.4 * i} for i in range(4)],
}


# --- rank ---------------------------------------------------------------------

def test_rank_reports_agreement(tmp_path, capsys):
    cfg = write_config(tmp_path, INTERIOR)
    code, out, err = run(capsys, "rank", "--config", cfg)
    assert code == 0
    assert err == ""
    report = json.loads(out)
    assert report["mode"] == "rank"
    assert report["agree"] is True
    assert report["numerical_rank"] == report["prediction"]
    assert report["regime_flag"] == "interior"
    assert report["factorization_residual"] < 1e-12
    assert report["gap_ratio"] > 1e6


def test_rank_stdout_is_one_sorted_json_line(tmp_path, capsys):
    cfg = write_config(tmp_path, INTERIOR)
    _, out, _ = run(capsys, "rank", "--config", cfg)
    assert out.count("\n") == 1 and out.endswith("\n")
    keys = list(json.loads(out))
    assert keys == sorted(keys)


def test_rank_deterministic_output(tmp_path, capsys):
    cfg = write_config(tmp_path, INTERIOR)
    _, first, _ = run(capsys, "rank", "--config", cfg)
    _, second, _ = run(capsys, "rank", "--config", cfg)
    assert first == second


def test_rank_out_file_matches_stdout(tmp_path, capsys):
    cfg = write_config(tmp_path, INTERIOR)
    dest = tmp_path / "report.json"
    _, out, _ = run(capsys, "rank", "--config", cfg, "--out", str(dest))
    assert dest.read_text() == out


def test_rank_flags_saturated_regime(tmp_path, capsys):
    cfg = write_config(tmp_path, OUTSIDE)
    code, out, _ = run(capsys, "rank", "--config", cfg)
    assert code == 3
    assert json.loads(out)["regime_flag"] == "outside_theorem_regime"


def test_rank_absurd_tolerance_forces_disagreement(tmp_path, capsys):
    # counting eigenvalues down at machine-noise level inflates the rank
    cfg = write_config(tmp_path, INTERIOR)
    code, out, _ = run(capsys, "rank", "--config", cfg, "--tolerance", "1e-18")
    assert code == 1
    report = json.loads(out)
    assert report["agree"] is False
    assert report["numerical_rank"] > report["prediction"]


def test_rank_real_flag(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "rect": {"N": 8, "M": 8},
        "components": [{"a": 1, "b": 1, "omega": 0.9}],
    })
    _, complex_out, _ = run(capsys, "rank", "--config", cfg)
    code, real_out, _ = run(capsys, "rank", "--config", cfg, "--real")
    assert code == 0
    assert json.loads(complex_out)["prediction"] == 15
    real = json.loads(real_out)
    # doubled index sums: 8*2 + 8*2 - 2*2
    assert real["prediction"] == 28
    assert real["real_valued"] is True
    assert real["agree"] is True


# --- verify -------------------------------------------------------------------

def test_verify_passes_on_interior_config(tmp_path, capsys):
    cfg = write_config(tmp_path, INTERIOR)
    code, out, _ = run(capsys, "verify", "--config", cfg)
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["failures"] == []
    assert report["points_audited"] == report["points_total"] > 0
    assert report["sampled"] is False
    assert report["max_residual"] <= 1e-10


def test_verify_leaves_gamma_unread(tmp_path, capsys, monkeypatch):
    # certificates read factor columns only; the dense Gamma is never built
    import evarank.cli
    from evarank.covariance import assemble_gamma

    models = []

    def capture(*args, **kwargs):
        models.append(assemble_gamma(*args, **kwargs))
        return models[-1]

    monkeypatch.setattr(evarank.cli, "assemble_gamma", capture)
    code, _, _ = run(capsys, "verify", "--config", write_config(tmp_path, INTERIOR))
    assert code == 0
    assert len(models) == 1
    assert "gamma" not in vars(models[0])


def test_verify_subsamples_with_seed(tmp_path, capsys):
    payload = dict(INTERIOR, max_certificate_points=5, seed=11)
    cfg = write_config(tmp_path, payload)
    code, out, _ = run(capsys, "verify", "--config", cfg)
    assert code == 0
    report = json.loads(out)
    assert report["sampled"] is True
    assert report["points_audited"] == 5
    _, again, _ = run(capsys, "verify", "--config", cfg)
    assert again == out


def test_verify_subsample_without_seed_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(INTERIOR, max_certificate_points=5))
    code, _, err = run(capsys, "verify", "--config", cfg)
    assert code == 2
    assert json.loads(err)["error"] == "config"


def test_verify_refuses_outside_regime(tmp_path, capsys):
    cfg = write_config(tmp_path, OUTSIDE)
    code, out, err = run(capsys, "verify", "--config", cfg)
    assert code == 3
    assert out == ""
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "regime"


def test_verify_single_column_lattice_audits_nothing(tmp_path, capsys):
    # one column cannot depend on anything, whatever the slope
    cfg = write_config(tmp_path, {
        "rect": {"N": 1, "M": 1},
        "components": [{"a": 0, "b": 1, "omega": 0.5}],
    })
    code, out, _ = run(capsys, "verify", "--config", cfg)
    assert code == 0
    report = json.loads(out)
    assert report["points_total"] == 0
    assert report["points_audited"] == 0
    assert report["pass"] is True


def test_verify_impossible_tolerance_fails(tmp_path, capsys):
    cfg = write_config(tmp_path, INTERIOR)
    code, out, _ = run(capsys, "verify", "--config", cfg, "--tolerance", "0")
    report = json.loads(out)
    if report["max_residual"] == 0.0:
        pytest.skip("all residuals landed at exactly zero")
    assert code == 1
    assert report["pass"] is False
    assert all(f["kind"] == "residual" for f in report["failures"])


# --- simulate -----------------------------------------------------------------

def test_simulate_requires_seed(tmp_path, capsys):
    cfg = write_config(tmp_path, INTERIOR)
    code, _, err = run(capsys, "simulate", "--config", cfg)
    assert code == 2
    assert "seed" in json.loads(err)["message"]


def test_simulate_report_and_determinism(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(INTERIOR, seed=4, trials=200))
    code, out, _ = run(capsys, "simulate", "--config", cfg)
    assert code == 0
    report = json.loads(out)
    assert report["seed"] == 4
    assert report["trials"] == 200
    assert report["sample_rank"] == report["expected_sample_rank"]
    assert report["frobenius_rel_error"] < 1.0
    _, again, _ = run(capsys, "simulate", "--config", cfg)
    assert again == out


def test_simulate_seed_flag_overrides_config(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(INTERIOR, seed=4))
    _, out, _ = run(capsys, "simulate", "--config", cfg, "--seed", "9")
    assert json.loads(out)["seed"] == 9


@pytest.mark.parametrize("real_via", ["flag", "config"])
def test_simulate_real_model(tmp_path, capsys, real_via):
    payload = {
        "rect": {"N": 8, "M": 8},
        "components": [{"a": 1, "b": 1, "omega": 0.9}],
        "seed": 4,
        "trials": 64,
    }
    _, complex_out, _ = run(capsys, "simulate", "--config", write_config(tmp_path, payload))
    if real_via == "config":
        argv = ("--config", write_config(tmp_path, dict(payload, real_valued=True), "real.json"))
    else:
        argv = ("--config", write_config(tmp_path, payload), "--real")
    code, out, _ = run(capsys, "simulate", *argv)
    assert code == 0
    report = json.loads(out)
    assert list(report) == list(json.loads(complex_out))
    # doubled index sums: 8*2 + 8*2 - 2*2, against 15 for the complex model
    assert report["prediction"] == report["exact_rank"] == 28
    assert report["sample_rank"] == report["expected_sample_rank"] == 28


def test_simulate_binary_export_round_trips(tmp_path, capsys):
    from evarank.covariance import sample_covariance
    from evarank.fields import synthesize_batch
    from evarank.cli import parse_components, parse_rect

    payload = dict(INTERIOR, seed=4, trials=32)
    cfg = write_config(tmp_path, payload)
    dest = tmp_path / "estimate.bin"
    code, out, _ = run(capsys, "simulate", "--config", cfg, "--out", str(dest))
    assert code == 0
    assert json.loads(out)["matrix_path"] == str(dest)

    rect = parse_rect(payload)
    comps = parse_components(payload)
    want = sample_covariance(synthesize_batch(comps, rect, 32, 4))
    assert np.array_equal(load_matrix_binary(str(dest)), want)


def test_simulate_csv_export(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(INTERIOR, seed=4, trials=8))
    dest = tmp_path / "estimate.csv"
    code, _, _ = run(capsys, "simulate", "--config", cfg, "--out", str(dest))
    assert code == 0
    rows = dest.read_text().strip().split("\n")
    assert len(rows) == 64
    assert len(rows[0].split(",")) == 128


# --- stap ---------------------------------------------------------------------

STAP = {
    "scenario": {
        "antennas": 8,
        "pulses": 8,
        "jammers": [
            {"angle_freq": 0.7, "power": 1000000.0},
            {"angle_freq": 1.8, "power": 1000000.0},
        ],
        "noise_power": 1.0,
    },
    "seed": 5,
    "trials": 128,
}


def test_stap_report(tmp_path, capsys):
    cfg = write_config(tmp_path, STAP)
    code, out, _ = run(capsys, "stap", "--config", cfg)
    assert code == 0
    report = json.loads(out)
    assert report["mode"] == "stap"
    assert report["predicted_rank"] == 16
    assert report["rank_used"] == 16
    assert report["suppression_db"] >= 40.0
    _, again, _ = run(capsys, "stap", "--config", cfg)
    assert again == out


def test_stap_rank_override_degrades(tmp_path, capsys):
    shortened = dict(STAP, scenario=dict(STAP["scenario"], rank_used=15))
    cfg = write_config(tmp_path, shortened)
    _, out, _ = run(capsys, "stap", "--config", cfg)
    short = json.loads(out)
    assert short["rank_used"] == 15
    cfg_full = write_config(tmp_path, STAP, name="full.json")
    _, out_full, _ = run(capsys, "stap", "--config", cfg_full)
    assert json.loads(out_full)["suppression_db"] - short["suppression_db"] >= 20.0


@pytest.mark.parametrize("verb", ["verify", "stap"])
@pytest.mark.parametrize("real_via", ["flag", "config"])
def test_certificate_and_stap_verbs_refuse_real_model(tmp_path, capsys, verb, real_via):
    payload = {"verify": INTERIOR, "stap": STAP}[verb]
    if real_via == "config":
        cfg = write_config(tmp_path, dict(payload, real_valued=True))
        argv = (verb, "--config", cfg)
    else:
        argv = (verb, "--config", write_config(tmp_path, payload), "--real")
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "config"
    assert "complex-valued model only" in diagnostic["message"]
    assert err.count("\n") == 1


# --- grid ---------------------------------------------------------------------

SMALL_GRID = {
    "grid": {
        "N": [4, 6],
        "M": [5, 7],
        "slopes": [[1, 1], [2, -1]],
    },
}


def test_grid_csv_shape_and_summary(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_GRID)
    dest = tmp_path / "sweep.csv"
    code, out, _ = run(capsys, "grid", "--config", cfg, "--out", str(dest))
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "N,M,components,real,predicted,numerical,agree,gap_ratio,regime"
    assert lines[-1].startswith("SUMMARY,pass=")
    assert len(lines) == 2 + 2 * 2 * 2
    body = lines[1:-1]
    assert all(row.split(",")[6] == "1" for row in body)
    assert f"pass={len(body)},cells={len(body)},flagged=0" in lines[-1]
    assert dest.read_text() == out


def test_grid_explicit_cells(tmp_path, capsys):
    cfg = write_config(tmp_path, {"grid": {"cells": [INTERIOR]}})
    code, out, _ = run(capsys, "grid", "--config", cfg)
    assert code == 0
    assert "SUMMARY,pass=1,cells=1,flagged=0" in out


def test_grid_counts_flagged_cells(tmp_path, capsys):
    cfg = write_config(tmp_path, {"grid": {"cells": [OUTSIDE, INTERIOR]}})
    code, out, _ = run(capsys, "grid", "--config", cfg)
    assert code == 0
    assert "flagged=1" in out.strip().split("\n")[-1]


def test_grid_disagreement_exit(tmp_path, capsys):
    cfg = write_config(tmp_path, {"grid": {"cells": [INTERIOR]}})
    code, out, _ = run(capsys, "grid", "--config", cfg, "--tolerance", "1e-18")
    assert code == 1
    assert "pass=0" in out.strip().split("\n")[-1]


def test_grid_empty_sweep_is_header_and_summary(tmp_path, capsys):
    cfg = write_config(tmp_path, {"grid": {"slopes": [], "cells": []}})
    code, out, _ = run(capsys, "grid", "--config", cfg)
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2
    assert lines[0].startswith("N,M,")
    assert lines[1] == "SUMMARY,pass=0,cells=0,flagged=0"


def test_grid_default_sweep_runs(tmp_path, capsys):
    # the stock sweep covers every dimension pair once per slope
    cfg = write_config(tmp_path, {})
    code, out, _ = run(capsys, "grid", "--config", cfg)
    lines = out.strip().split("\n")
    assert lines[-1].startswith("SUMMARY")
    assert code in (0, 3)
    assert len(lines) == 2 + 16 * 8 + 3


# --- config errors --------------------------------------------------------------

@pytest.mark.parametrize(
    "payload",
    [
        {"components": [{"a": 1, "b": 1, "omega": 0.5}]},
        {"rect": {"N": 8, "M": 8}},
        {"rect": {"N": 0, "M": 8}, "components": []},
        {"rect": {"N": 8, "M": 8}, "components": [{"a": -1, "b": 2, "omega": 0.5}]},
        {"rect": {"N": 8, "M": 8}, "components": [{"a": 2, "b": 4, "omega": 0.5}]},
        {"rect": {"N": 8, "M": 8}, "components": "nope"},
        {"rect": {"N": 8, "M": 8}, "components": [], "seed": -3},
    ],
)
def test_bad_configs_exit_two(tmp_path, capsys, payload):
    cfg = write_config(tmp_path, payload)
    code, out, err = run(capsys, "rank", "--config", cfg)
    assert code == 2
    assert out == ""
    diagnostic = json.loads(err)
    assert diagnostic["error"] in ("config", "value")
    assert err.count("\n") == 1


def test_missing_config_file(tmp_path, capsys):
    code, _, err = run(capsys, "rank", "--config", str(tmp_path / "absent.json"))
    assert code == 2
    assert "not found" in json.loads(err)["message"]


def test_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "rank", "--config", str(path))
    assert code == 2
    assert "JSON" in json.loads(err)["message"]


def test_config_root_must_be_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    code, _, _ = run(capsys, "rank", "--config", str(path))
    assert code == 2


# --- process entry points --------------------------------------------------------

def test_module_execution(tmp_path):
    cfg = write_config(tmp_path, INTERIOR)
    proc = subprocess.run(
        [sys.executable, "-m", "evarank", "rank", "--config", cfg],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["agree"] is True
