import json
import math
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


def test_rank_flags_outside_regime(tmp_path, capsys):
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


@pytest.mark.parametrize("verb", ["rank", "grid", "simulate"])
def test_rank_routes_build_no_whitened_factor(tmp_path, capsys, monkeypatch, verb):
    # Gamma's spectrum comes from L^T G L (or Gamma on a tall factor); F is stap's alone
    from evarank.covariance import CovarianceModel

    def unbuilt(model):
        raise AssertionError("CovarianceModel.whitened_factor was called")

    monkeypatch.setattr(CovarianceModel, "whitened_factor", unbuilt)
    # the grid's real 4 x 4 cell has a tall factor (32 rows), its other cells a wide one
    grid = {"N": [4, 16], "M": [4, 16], "slopes": [[3, 2]]}
    for extra, payload in (((), INTERIOR), (("--real",), REAL_INTERIOR)):
        config = write_config(tmp_path, dict(payload, seed=3, grid=grid))
        code, _, err = run(capsys, verb, "--config", config, *extra)
        assert (code, err) == (0, "")


@pytest.mark.parametrize(
    "verb, real, grams",
    [("rank", False, 1), ("rank", True, 1), ("simulate", False, 1), ("simulate", True, 1),
     ("stap", False, 0)],
    ids=["complex", "real", "simulate-complex", "simulate-real", "stap"],
)
def test_rank_builds_the_line_gram_and_each_cholesky_factor_once(
    tmp_path, capsys, monkeypatch, verb, real, grams
):
    # one model per run: the rank's whitened line Gram, the factorization
    # residual, synthesis and stap's F share its G and its Cholesky factors
    from functools import cached_property

    from evarank.covariance import CovarianceModel

    built_grams, models, factored = [], [], []
    build_gram = CovarianceModel._line_gram.func
    build_lowers = CovarianceModel.lowers.func
    cholesky = np.linalg.cholesky

    def counted_gram(model):
        built_grams.append(model)
        return build_gram(model)

    def counted_lowers(model):
        models.append(model)
        return build_lowers(model)

    def counted_cholesky(matrix):
        factored.append(matrix.shape)
        return cholesky(matrix)

    for name, func in (("_line_gram", counted_gram), ("lowers", counted_lowers)):
        prop = cached_property(func)
        prop.__set_name__(CovarianceModel, name)
        monkeypatch.setattr(CovarianceModel, name, prop)
    monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
    payload = REAL_INTERIOR if real else INTERIOR
    blocks = len(payload["components"])
    if verb == "stap":
        # two jammers and a clutter ridge: three blocks
        payload = dict(STAP, scenario=dict(STAP["scenario"], clutter={"slope": 2, "power": 10.0}))
        blocks = 3
    payload = dict(payload, seed=3, trials=8) if verb == "simulate" else payload
    extra = ("--real",) if real else ()
    code, out, _ = run(capsys, verb, "--config", write_config(tmp_path, payload), *extra)
    assert code == 0
    if verb == "rank":
        assert json.loads(out)["factorization_residual"] <= 1e-10
    assert len(built_grams) == grams
    assert len(models) == 1
    assert len(models[0].blocks) == len(factored) == blocks


# oracle_large's slopes at its size: (3, 2) AR(1) and (2, 1) white at 48 x 48
NORTH_STAR_DRAWS = [(0.9, 1.6, 1.0, 0.5, 1.0), (2.3, 4.1, 0.6, 0.7, 1.8),
                    (5.2, 0.7, 1.9, 0.3, 0.5), (3.9, 2.4, 1.3, -0.6, 1.2)]


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("draw", NORTH_STAR_DRAWS, ids=lambda d: f"omega{d[0]}")
def test_rank_north_star_gap_at_48(tmp_path, capsys, draw, real):
    omega_ar, omega_white, variance_ar, ar, variance_white = draw
    payload = {
        "rect": {"N": 48, "M": 48},
        "components": [
            {"a": 3, "b": 2, "omega": omega_ar,
             "process": {"kind": "ar1", "variance": variance_ar, "ar_coefficient": ar}},
            {"a": 2, "b": 1, "omega": omega_white,
             "process": {"kind": "white", "variance": variance_white}},
        ],
        "real_valued": real,
    }
    code, out, err = run(capsys, "rank", "--config", write_config(tmp_path, payload))
    assert (code, err) == (0, "")
    report = json.loads(out)
    # the closed form with doubled slope sums in the real model
    sum_a, sum_b = (10, 6) if real else (5, 3)
    assert report["prediction"] == 48 * sum_a + 48 * sum_b - sum_a * sum_b
    assert report["numerical_rank"] == report["prediction"]
    assert report["gap_ratio"] >= 1e6
    assert report["factorization_residual"] <= 1e-10


@pytest.mark.parametrize(
    "extra, payload",
    [((), INTERIOR),
     (("--real",), {"rect": {"N": 8, "M": 8}, "components": [{"a": 1, "b": 1, "omega": 0.9}]})],
    ids=["complex", "real"],
)
def test_rank_residual_gathers_no_gamma_rows(tmp_path, capsys, monkeypatch, extra, payload):
    # the residual is read in line space, from the Gram C C^H, never from Gamma's rows
    from evarank.covariance import CovarianceModel

    def ungathered(model, unit=1.0):
        raise AssertionError("CovarianceModel._gamma_rows was called")

    monkeypatch.setattr(CovarianceModel, "_gamma_rows", ungathered)
    code, out, err = run(capsys, "rank", "--config", write_config(tmp_path, payload), *extra)
    assert code == 0
    assert err == ""
    assert json.loads(out)["factorization_residual"] <= 1e-10


# --- verify -------------------------------------------------------------------

def test_verify_passes_on_interior_config(tmp_path, capsys):
    cfg = write_config(tmp_path, INTERIOR)
    code, out, _ = run(capsys, "verify", "--config", cfg)
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["failures"] == []
    # (N - sum|b|) * (M - sum|a|) = (8 - 3) * (8 - 5)
    assert report["points_audited"] == 15
    assert report["max_residual"] <= 1e-10


def test_verify_audits_every_point_of_a_large_block(tmp_path, capsys):
    # the benchmark's audit slopes at 72 x 72: (72 - 8) * (72 - 7) = 4,160
    # points, every one checked, and no seed needed
    slopes = ((3, 2), (2, 1), (1, 3), (1, -2))
    processes = ({"kind": "ar1", "ar_coefficient": 0.55}, {}) * 2
    cfg = write_config(tmp_path, {
        "rect": {"N": 72, "M": 72},
        "components": [{"a": a, "b": b, "omega": 0.9 + 0.7 * i, "process": process}
                       for i, ((a, b), process) in enumerate(zip(slopes, processes))],
    })
    code, out, _ = run(capsys, "verify", "--config", cfg)
    assert code == 0
    report = json.loads(out)
    assert report["points_audited"] == 4160
    assert report["pass"] is True


def test_verify_leaves_gamma_unread(tmp_path, capsys, monkeypatch):
    # certificates read the sparse factor blocks only: neither the dense
    # Gamma nor the dense stacked factor is ever built
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
    assert "stacked" not in vars(models[0])


def test_verify_builds_no_process_covariance(tmp_path, capsys, monkeypatch):
    # certificates read rows and carriers only, so no block's R is ever built
    import evarank.fields

    calls = []
    original = evarank.fields.process_covariance

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(evarank.fields, "process_covariance", counted)
    slopes = ((3, 2), (2, 1), (1, 3), (1, -2))
    cfg = write_config(tmp_path, {
        "rect": {"N": 64, "M": 64},
        "components": [{"a": a, "b": b, "omega": 0.9 + 0.7 * i,
                        "process": {"kind": "ar1", "ar_coefficient": 0.55}}
                       for i, (a, b) in enumerate(slopes)],
    })
    code, out, _ = run(capsys, "verify", "--config", cfg)
    assert code == 0
    assert json.loads(out)["pass"] is True
    assert calls == []


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
    assert report["points_audited"] == 0
    assert report["pass"] is True


def test_verify_impossible_tolerance_fails(tmp_path, capsys):
    cfg = write_config(tmp_path, INTERIOR)
    # the smallest gate the flag accepts: it must be positive
    code, out, _ = run(capsys, "verify", "--config", cfg, "--tolerance", "1e-300")
    report = json.loads(out)
    if report["max_residual"] == 0.0:
        pytest.skip("all residuals landed at exactly zero")
    assert code == 1
    assert report["pass"] is False
    assert all(f["kind"] == "residual" for f in report["failures"])


def test_verify_flags_exactly_the_readers_of_a_faulty_column(tmp_path, capsys, monkeypatch):
    # one carrier entry off by 0.1 %: the batch must fail exactly the points
    # whose own certificate reads that column, so the pass is no tautology
    import dataclasses

    import evarank.cli
    from evarank.covariance import assemble_gamma
    from evarank.rank import dependent_point_set, find_certificate, verify_certificate

    cfg = write_config(tmp_path, INTERIOR)
    comps = evarank.cli.parse_components(INTERIOR)
    rect = evarank.cli.parse_rect(INTERIOR)
    model = assemble_gamma(comps, rect)
    faulty = (4, 2)
    block = model.blocks[1]
    carrier = block.carriers[0].copy()
    carrier[rect.vec_index(*faulty)] *= 1.001
    blocks = [model.blocks[0], dataclasses.replace(block, carriers=(carrier,))]
    broken = dataclasses.replace(model, blocks=blocks)

    n_range, m_range = dependent_point_set(comps, rect)
    points = [(n, m) for n in n_range for m in m_range]
    certs = [find_certificate(p, comps, rect) for p in points]
    readers = [p for p, cert in zip(points, certs)
               if faulty == p or faulty in {q for q, _ in cert.terms}]
    assert 0 < len(readers) < len(points)
    batch = verify_certificate(certs[0], broken, at=points)
    assert [p for p, r in zip(points, batch) if r > 1e-10] == readers

    monkeypatch.setattr(evarank.cli, "assemble_gamma", lambda *args, **kwargs: broken)
    code, out, _ = run(capsys, "verify", "--config", cfg)
    report = json.loads(out)
    assert code == 1
    assert report["pass"] is False
    assert [f["kind"] for f in report["failures"]] == ["residual"] * len(readers)
    assert [tuple(f["point"]) for f in report["failures"]] == readers


def test_verify_reports_a_term_that_does_not_precede_its_target(tmp_path, capsys, monkeypatch):
    # a term at (n - 1, m) comes after (n, m) in the (m, -n) order, so the
    # induction behind rank <= N*M - |block| fails even though the residual holds
    import evarank.cli
    from evarank.rank import DependencyCertificate, find_certificate

    def late_term(target, comps, rect):
        cert = find_certificate(target, comps, rect)
        later = (target[0] - 1, target[1])
        return DependencyCertificate(target, cert.shifts, cert.terms + ((later, 0j),))

    monkeypatch.setattr(evarank.cli, "find_certificate", late_term)
    code, out, _ = run(capsys, "verify", "--config", write_config(tmp_path, INTERIOR))
    report = json.loads(out)
    assert code == 1
    assert report["max_residual"] <= 1e-10
    (failure,) = report["failures"]
    assert failure["kind"] == "order"
    assert failure["term"] == [failure["point"][0] - 1, failure["point"][1]]
    assert failure["shifts"] == [1, 1]
    assert failure["residual"] is None


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
    from evarank.covariance import assemble_gamma, sample_covariance
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
    want = sample_covariance(synthesize_batch(assemble_gamma(comps, rect), 32, 4))
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


# interior for the real model too: doubled sums 6 < 10 and 4 < 10
REAL_INTERIOR = {
    "rect": {"N": 10, "M": 10},
    "components": [{"a": 1, "b": 1, "omega": 0.9}, {"a": 2, "b": -1, "omega": 1.6}],
}


@pytest.mark.parametrize("verb", ["verify", "stap"])
@pytest.mark.parametrize("real_via", ["flag", "config"])
def test_certificate_and_stap_verbs_refuse_real_model(tmp_path, capsys, verb, real_via):
    # verify audits the real model; stap refuses it, and takes no --real flag
    payload = {"verify": REAL_INTERIOR, "stap": STAP}[verb]
    if real_via == "config":
        argv = [verb, "--config", write_config(tmp_path, dict(payload, real_valued=True))]
    else:
        argv = [verb, "--config", write_config(tmp_path, payload), "--real"]
    if verb == "stap" and real_via == "flag":
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --real" in capsys.readouterr().err
        return
    code, out, err = run(capsys, *argv)
    if verb == "verify":
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["pass"] is True
        # N*M minus the real prediction 10*6 + 10*4 - 6*4
        assert report["points_audited"] == 100 - 76
        assert report["max_residual"] <= 1e-10
        return
    assert code == 2
    assert out == ""
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "config"
    assert "complex-valued model only" in diagnostic["message"]
    assert err.count("\n") == 1


@pytest.mark.parametrize("omega", [0.0, math.pi], ids=["zero", "pi"])
def test_verify_real_degenerate_frequency_is_regime(tmp_path, capsys, omega):
    # the mirror at -omega repeats the triple: a regime flag, not a duplicate
    comps = [dict(REAL_INTERIOR["components"][0], omega=omega), REAL_INTERIOR["components"][1]]
    cfg = write_config(tmp_path, dict(REAL_INTERIOR, components=comps))
    code, out, err = run(capsys, "verify", "--config", cfg, "--real")
    assert code == 3
    assert out == ""
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "regime"
    assert "duplicate" not in diagnostic["message"]
    # the complex model of the same set is interior
    assert run(capsys, "verify", "--config", cfg)[0] == 0


@pytest.mark.parametrize("verb", ["rank", "verify", "grid"])
def test_verbs_that_do_not_draw_ignore_the_seed_key(tmp_path, capsys, verb):
    payload = {"grid": SMALL_GRID}.get(verb, INTERIOR)
    outputs = []
    for extra in ({}, {"seed": -1}):
        code, out, err = run(capsys, verb, "--config", write_config(tmp_path, dict(payload, **extra)))
        assert code == 0 and err == ""
        outputs.append(out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("verb", ["simulate", "stap"])
def test_verbs_that_draw_refuse_a_negative_seed(tmp_path, capsys, verb):
    payload = {"simulate": INTERIOR, "stap": STAP}[verb]
    code, out, err = run(capsys, verb, "--config", write_config(tmp_path, dict(payload, seed=-1)))
    assert code == 2
    assert out == ""
    assert json.loads(err) == {
        "error": "config", "message": "config: seed must be a non-negative integer"
    }


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

def with_process(**process):
    component = {"a": 1, "b": 1, "omega": 0.5, "process": process}
    return {"rect": {"N": 8, "M": 8}, "components": [component]}


def with_scenario(**changes):
    return dict(STAP, scenario=dict(STAP["scenario"], **changes))


BAD_CONFIGS = [
    pytest.param(verb, payload, id=f"payload{i}")
    for i, (verb, payload) in enumerate([
        ("rank", {"components": [{"a": 1, "b": 1, "omega": 0.5}]}),
        ("rank", {"rect": {"N": 8, "M": 8}}),
        ("rank", {"rect": {"N": 0, "M": 8}, "components": []}),
        ("rank", {"rect": {"N": 8, "M": 8}, "components": [{"a": -1, "b": 2, "omega": 0.5}]}),
        ("rank", {"rect": {"N": 8, "M": 8}, "components": [{"a": 2, "b": 4, "omega": 0.5}]}),
        ("rank", {"rect": {"N": 8, "M": 8}, "components": "nope"}),
        # the seed is checked by the verbs that read it
        ("simulate", {"rect": {"N": 8, "M": 8}, "components": [], "seed": -3}),
    ])
] + [
    # non-list fields
    pytest.param("grid", {"grid": {"N": 5, "slopes": [[1, 1]]}}, id="grid-N-not-a-list"),
    pytest.param("grid", {"grid": {"M": 5, "slopes": [[1, 1]]}}, id="grid-M-not-a-list"),
    pytest.param("grid", {"grid": {"cells": 5}}, id="grid-cells-not-a-list"),
    pytest.param("stap", with_scenario(jammers=5), id="jammers-not-a-list"),
    # values of the wrong JSON type are not coerced
    pytest.param("rank", with_process(variance="2"), id="variance-string"),
    pytest.param("rank", with_process(variance=True), id="variance-bool"),
    pytest.param("rank", with_process(kind="ar1", ar_coefficient="0.5"), id="ar-string"),
    pytest.param("grid", {"grid": {"N": [4.7], "slopes": [[1, 1]]}}, id="grid-N-float"),
    pytest.param("grid", {"grid": {"slopes": [[1.5, 1]]}}, id="grid-slope-float"),
    # non-finite numbers are refused where the spec is built
    pytest.param("rank", with_process(variance=float("inf")), id="variance-inf"),
    pytest.param(
        "stap", with_scenario(jammers=[{"angle_freq": 0.7, "power": float("inf")}]), id="jammer-inf"
    ),
    pytest.param("stap", with_scenario(noise_power=float("inf")), id="noise-inf"),
    pytest.param(
        "stap", with_scenario(clutter={"slope": 1, "power": float("inf")}), id="clutter-inf"
    ),
    pytest.param(
        "stap",
        with_scenario(target={"angle_freq": 0.4, "doppler_freq": 1.0, "amplitude": float("inf")}),
        id="target-inf",
    ),
]


@pytest.mark.parametrize("verb, payload", BAD_CONFIGS)
def test_bad_configs_exit_two(tmp_path, capsys, verb, payload):
    cfg = write_config(tmp_path, payload)
    code, out, err = run(capsys, verb, "--config", cfg)
    assert code == 2
    assert out == ""
    diagnostic = json.loads(err)
    assert diagnostic["error"] in ("config", "value")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "verb, flag",
    [("rank", "--trials"), ("verify", "--trials"), ("grid", "--trials"), ("stap", "--tolerance"),
     ("rank", "--seed"), ("verify", "--seed"), ("grid", "--seed")],
)
def test_verbs_accept_only_the_flags_they_read(tmp_path, capsys, verb, flag):
    cfg = write_config(tmp_path, INTERIOR)
    with pytest.raises(SystemExit) as exc:
        main([verb, "--config", cfg, flag, "8"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_trials_flag_overrides_config(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(INTERIOR, seed=4, trials=200))
    code, out, _ = run(capsys, "simulate", "--config", cfg, "--trials", "8")
    assert code == 0
    assert json.loads(out)["trials"] == 8


def test_process_kind_is_case_insensitive(tmp_path, capsys):
    outputs = []
    for kind in ("ar1", "AR1"):
        cfg = write_config(tmp_path, with_process(kind=kind, ar_coefficient=0.5))
        code, out, _ = run(capsys, "rank", "--config", cfg)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


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


def test_config_directory_is_config_error(tmp_path, capsys):
    code, out, err = run(capsys, "rank", "--config", str(tmp_path))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "config"
    assert err.count("\n") == 1


def test_deeply_nested_config_is_config_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "rank", "--config", str(path))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "config"
    assert err.count("\n") == 1


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
@pytest.mark.parametrize("verb", ["rank", "verify", "simulate", "grid"])
def test_tolerance_must_be_positive_and_finite(tmp_path, capsys, verb, value):
    cfg = write_config(tmp_path, dict(INTERIOR, seed=4))
    code, out, err = run(capsys, verb, "--config", cfg, "--tolerance", value)
    assert code == 2
    assert out == ""
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "config"
    assert "--tolerance" in diagnostic["message"]


UNWRITABLE_OUT = [
    (verb, target)
    for verb in ("rank", "verify", "simulate", "stap", "grid")
    for target in ("directory", "missing/report.json")
] + [("simulate", "missing/matrix.bin"), ("simulate", "missing/matrix.csv")]


@pytest.mark.parametrize("verb, target", UNWRITABLE_OUT)
def test_unwritable_out_is_config_error(tmp_path, capsys, verb, target):
    cfg = write_config(tmp_path, STAP if verb == "stap" else dict(INTERIOR, seed=4, trials=8))
    out_path = tmp_path if target == "directory" else tmp_path / target
    code, out, err = run(capsys, verb, "--config", cfg, "--out", str(out_path))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "config"
    assert "--out" in diagnostic["message"]


NUMPY_MEMORY_ERROR = ("Unable to allocate 8.00 TiB for an array with shape "
                      "(1099511627776,) and data type int64")


@pytest.mark.parametrize("message", [NUMPY_MEMORY_ERROR, ""], ids=["numpy", "bare"])
@pytest.mark.parametrize("verb", ["rank", "verify", "simulate", "stap", "grid"])
def test_out_of_memory_is_a_memory_diagnostic(tmp_path, capsys, monkeypatch, verb, message):
    # a lattice numpy cannot allocate (N = M = 2**20 fails in lattice_map) ends
    # with exit 2 and one diagnostic line, not a traceback under exit 1; the
    # failing allocation is simulated, so nothing large is ever requested
    import evarank.fields

    def unallocatable(comp, rect):
        raise MemoryError(message)

    monkeypatch.setattr(evarank.fields, "lattice_map", unallocatable)
    cfg = write_config(tmp_path, STAP if verb == "stap" else dict(INTERIOR, seed=4, trials=8))
    code, out, err = run(capsys, verb, "--config", cfg)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "memory", "message": message or "out of memory"}


def test_rank_at_extreme_variance_is_clean(tmp_path, capsys):
    # 1e300 squared overflows a plain Frobenius norm; the report must not notice
    payload = dict(INTERIOR, components=[
        dict(c, process={"variance": 1e300}) for c in INTERIOR["components"]
    ])
    code, out, err = run(capsys, "rank", "--config", write_config(tmp_path, payload))
    assert code == 0
    assert err == ""
    report = json.loads(out)
    assert report["numerical_rank"] == report["prediction"] == 49
    assert report["factorization_residual"] <= 1e-10


SCALED_COMPONENTS = [
    {"a": 3, "b": 2, "omega": 0.9, "process": {"kind": "ar1", "ar_coefficient": 0.5}},
    {"a": 2, "b": -1, "omega": 1.6, "process": {"kind": "white"}},
]


@pytest.mark.parametrize("variance", [1e-300, 1e-150, 1e150, 1e300])
@pytest.mark.parametrize("side", [20, 24])  # 400 and 576 lattice points: two and three row tiles
@pytest.mark.parametrize("argv", [("rank",), ("rank", "--real"), ("simulate",)],
                         ids=["rank", "rank-real", "simulate"])
def test_tiled_gaps_at_extreme_variance(tmp_path, capsys, argv, side, variance):
    def report(var):
        payload = {
            "rect": {"N": side, "M": side},
            "seed": 4,
            "trials": 48,
            "components": [
                dict(c, process=dict(c["process"], variance=var)) for c in SCALED_COMPONENTS
            ],
        }
        cfg = write_config(tmp_path, payload, f"variance-{var}.json")
        code, out, err = run(capsys, argv[0], "--config", cfg, *argv[1:])
        assert code == 0
        assert err == ""
        return json.loads(out)

    got, baseline = report(variance), report(1.0)
    if argv[0] == "rank":
        assert got["numerical_rank"] == baseline["numerical_rank"] == got["prediction"]
        # exactly zero would mean the squared norms underflowed, not that F^H F == Gamma
        assert 0.0 < got["factorization_residual"] <= 1e-10
    else:  # the snapshots scale with the variance, so the relative error does not
        want = baseline["frobenius_rel_error"]
        assert got["frobenius_rel_error"] == pytest.approx(want, rel=1e-9)


# --- the rank and subspace questions never decompose an N*M by N*M matrix ---------

REAL_SINGLE = {"rect": {"N": 8, "M": 8}, "components": [{"a": 1, "b": 1, "omega": 0.9}]}


@pytest.mark.parametrize(
    "argv, payload",
    [
        (("rank",), INTERIOR),  # 58 factor rows against 64 lattice points
        (("rank", "--real"), REAL_SINGLE),  # 30 rows
        (("grid",), {"grid": {"cells": [INTERIOR]}}),
        (("grid", "--real"), {"grid": {"cells": [REAL_SINGLE]}}),
        (("simulate",), dict(INTERIOR, seed=4, trials=32)),  # 32 snapshots of 64 entries
        (("stap",), STAP),  # 16 rows; 128 snapshots of 64 entries
        (("stap",), dict(STAP, trials=32)),  # 32 snapshots: the trials x trials Gram
    ],
    ids=["rank", "rank-real", "grid", "grid-real", "simulate", "stap", "stap-wide"],
)
def test_verbs_decompose_no_full_size_matrix(tmp_path, capsys, monkeypatch, argv, payload):
    full = (64, 64)
    shapes = []

    def spy(decompose):
        def wrapped(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return decompose(a, *args, **kwargs)
        return wrapped

    for name in ("eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, spy(getattr(np.linalg, name)))
    code, _, err = run(capsys, argv[0], "--config", write_config(tmp_path, payload), *argv[1:])
    assert code == 0
    assert err == ""
    assert shapes, "the spy saw no decomposition at all"
    assert full not in shapes


@pytest.mark.parametrize(
    "argv, payload",
    [
        (("rank",), INTERIOR),
        (("rank", "--real"), REAL_SINGLE),
        (("grid",), {"grid": {"cells": [INTERIOR]}}),
        (("simulate",), dict(INTERIOR, seed=4, trials=32)),
        (("simulate", "--real"), dict(REAL_SINGLE, seed=4, trials=32)),
    ],
    ids=["rank", "rank-real", "grid", "simulate", "simulate-real"],
)
def test_verbs_never_read_gamma(tmp_path, capsys, monkeypatch, argv, payload):
    # the residual and the sample error gather Gamma by row tiles, never whole
    from evarank.covariance import CovarianceModel

    def unread(model):
        raise AssertionError("CovarianceModel.gamma was read")

    monkeypatch.setattr(CovarianceModel, "gamma", property(unread))
    code, _, err = run(capsys, argv[0], "--config", write_config(tmp_path, payload), *argv[1:])
    assert code == 0
    assert err == ""


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
