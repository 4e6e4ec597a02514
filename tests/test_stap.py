import json
import math

import numpy as np
import pytest

import evarank.stap
from evarank.cli import main
from evarank.covariance import assemble_gamma, sample_covariance
from evarank.fields import synthesize_batch
from evarank.fields import ProcessKind
from evarank.lattice import LatticeRect
from evarank.rank import numerical_rank, predict_rank
from evarank.stap import (
    ClutterRidgeSpec,
    JammerSpec,
    StapScenario,
    TargetSpec,
    dominant_projection,
    interference_covariance,
    scenario_to_components,
    suppression_experiment,
)


def jammer_scenario(n=8, m=8, jnr_db=60.0, j=2, noise=1.0):
    power = noise * 10 ** (jnr_db / 10.0)
    jams = tuple(JammerSpec(0.7 + 1.1 * i, power) for i in range(j))
    return StapScenario(LatticeRect(n, m), jammers=jams, noise_power=noise)


# --- scenario mapping --------------------------------------------------------

def test_scenario_components_structure():
    sc = StapScenario(
        LatticeRect(8, 10),
        jammers=(JammerSpec(0.5, 100.0), JammerSpec(1.5, 50.0)),
        clutter=ClutterRidgeSpec(2, 25.0, kind=ProcessKind.AR1, ar_coefficient=0.6),
        noise_power=1.0,
    )
    comps = scenario_to_components(sc)
    assert [(c.slope.a, c.slope.b) for c in comps] == [(0, 1), (0, 1), (1, 2)]
    assert [c.process.variance for c in comps] == [100.0, 50.0, 25.0]
    assert comps[2].process.kind is ProcessKind.AR1
    # jammers are white pulse to pulse, always
    assert comps[0].process.kind is ProcessKind.WHITE


def test_jammer_rank_is_pulses_times_count():
    for j in (1, 2, 3):
        sc = jammer_scenario(j=j)
        comps = scenario_to_components(sc)
        pred = predict_rank(comps, sc.rect)
        assert pred.formula_value == sc.rect.M * j
        gamma = assemble_gamma(comps, sc.rect).gamma
        assert numerical_rank(gamma)[0] == sc.rect.M * j


def test_clutter_rank_follows_brennan_rule():
    for beta in (1, 2, 3):
        sc = StapScenario(
            LatticeRect(8, 8),
            clutter=ClutterRidgeSpec(beta, 10.0),
            noise_power=1.0,
        )
        comps = scenario_to_components(sc)
        want = 8 + 8 * beta - beta
        assert predict_rank(comps, sc.rect).formula_value == want
        gamma = assemble_gamma(comps, sc.rect).gamma
        assert numerical_rank(gamma)[0] == want


def test_duplicate_jammer_frequencies_rejected():
    with pytest.raises(ValueError):
        StapScenario(
            LatticeRect(4, 4),
            jammers=(JammerSpec(0.5, 1.0), JammerSpec(0.5, 2.0)),
            noise_power=1.0,
        )


def test_spec_validation():
    with pytest.raises(ValueError):
        JammerSpec(0.5, 0.0)
    with pytest.raises(ValueError):
        ClutterRidgeSpec(0, 1.0)
    with pytest.raises(ValueError):
        StapScenario(LatticeRect(4, 4), noise_power=0.0)
    with pytest.raises(ValueError):
        TargetSpec(0.4, 1.0, 0.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            JammerSpec(0.5, bad)
        with pytest.raises(ValueError):
            ClutterRidgeSpec(1, bad)
        with pytest.raises(ValueError):
            StapScenario(LatticeRect(4, 4), noise_power=bad)
        for args in ((bad, 1.0, 2.0), (0.4, bad, 2.0), (0.4, 1.0, bad)):
            with pytest.raises(ValueError):
                TargetSpec(*args)
    assert ClutterRidgeSpec(1, 1.0, kind="AR1", ar_coefficient=0.5).kind is ProcessKind.AR1


# --- interference covariance ---------------------------------------------------

def test_noise_only_covariance_is_identity():
    sc = StapScenario(LatticeRect(3, 3), noise_power=2.5)
    assert np.allclose(interference_covariance(sc), 2.5 * np.eye(9), rtol=0, atol=0)


def test_jammer_spectrum_is_bimodal():
    sc = jammer_scenario(jnr_db=60.0, j=2)
    cov = interference_covariance(sc)
    eigs = np.sort(np.linalg.eigvalsh(cov))[::-1]
    r = sc.rect.M * 2
    jnr = 10 ** 6.0
    assert np.all(eigs[:r] >= sc.noise_power * jnr)
    assert np.allclose(eigs[r:], sc.noise_power, rtol=1e-6)


# --- projection ----------------------------------------------------------------

def test_projection_idempotent_hermitian():
    sc = jammer_scenario()
    cov = interference_covariance(sc)
    p = dominant_projection(cov, 16)
    assert np.allclose(p, p.conj().T, atol=1e-10)
    assert np.allclose(p @ p, p, atol=1e-10)


def test_projection_extremes():
    cov = np.diag([3.0, 2.0, 1.0])
    assert np.array_equal(dominant_projection(cov, 0), np.eye(3))
    assert np.allclose(dominant_projection(cov, 3), np.zeros((3, 3)), atol=1e-10)
    with pytest.raises(ValueError):
        dominant_projection(cov, 4)
    with pytest.raises(ValueError):
        dominant_projection(cov, -1)


def test_exact_projector_annihilates_interference():
    sc = jammer_scenario()
    comps = scenario_to_components(sc)
    gamma = assemble_gamma(comps, sc.rect).gamma
    p = dominant_projection(interference_covariance(sc), 16)
    residual = np.linalg.norm(p @ gamma @ p) / np.linalg.norm(gamma)
    assert residual < 1e-12


# --- suppression experiment ----------------------------------------------------

def test_suppression_deterministic_and_effective():
    sc = jammer_scenario()
    rep1 = suppression_experiment(sc, trials=128, seed=3)
    rep2 = suppression_experiment(sc, trials=128, seed=3)
    assert rep1.suppression_db == rep2.suppression_db
    assert np.array_equal(rep1.eigenvalues, rep2.eigenvalues)
    assert rep1.rank_used == 16
    assert rep1.suppression_db >= 40.0


def test_suppression_degrades_when_rank_undershoots():
    sc = jammer_scenario()
    full = suppression_experiment(sc, trials=128, seed=3)
    short = suppression_experiment(sc, trials=128, seed=3, rank_used=15)
    assert full.suppression_db - short.suppression_db >= 20.0


def test_zero_rank_projector_preserves_target():
    sc = StapScenario(
        LatticeRect(4, 4),
        noise_power=1.0,
        target=TargetSpec(0.4, 1.0, 2.0),
    )
    rep = suppression_experiment(sc, trials=16, seed=1)
    assert rep.rank_used == 0
    assert rep.target_retention == pytest.approx(1.0, abs=1e-12)


def test_report_round_trips_to_json_types():
    import json

    rep = suppression_experiment(jammer_scenario(), trials=32, seed=9)
    payload = json.dumps(rep.to_dict())
    back = json.loads(payload)
    assert back["predicted_rank"] == 16
    assert isinstance(back["eigenvalues"], list)


def test_suppression_monotone_around_true_rank():
    sc = jammer_scenario()
    values = [
        suppression_experiment(sc, trials=128, seed=7, rank_used=r).suppression_db
        for r in (14, 15, 16)
    ]
    assert values[0] <= values[1] + 1e-9 <= values[2] + 2e-9


@pytest.mark.parametrize("trials", [48, 96])  # the Gram route below N*M = 64, the SVD above
def test_suppression_matches_dense_reference(trials):
    # the dense route: eigh of the sample covariance, projector applied to Gamma
    sc = StapScenario(
        LatticeRect(8, 8),
        jammers=(JammerSpec(0.7, 1e6), JammerSpec(1.8, 1e4)),
        clutter=ClutterRidgeSpec(1, 100.0, kind=ProcessKind.AR1, ar_coefficient=0.5),
        noise_power=1.0,
        target=TargetSpec(0.4, 1.0, 2.0),
    )
    comps = scenario_to_components(sc)
    for r in (10, 23, 31):
        rep = suppression_experiment(sc, trials=trials, seed=4, rank_used=r)
        estimate = sample_covariance(synthesize_batch(comps, sc.rect, trials, 4, noise_power=1.0))
        projector = dominant_projection(estimate, r)
        gamma = assemble_gamma(comps, sc.rect).gamma
        ratio = np.trace(projector @ gamma @ projector).real / np.trace(gamma).real
        steering = sc.target.steering(sc.rect)
        retention = np.linalg.norm(projector @ steering) ** 2 / np.linalg.norm(steering) ** 2
        assert rep.residual_power_ratio == pytest.approx(ratio, rel=1e-6)
        assert rep.target_retention == pytest.approx(retention, rel=1e-9)
        want = np.sort(np.linalg.eigvalsh(estimate))[::-1]
        np.testing.assert_allclose(rep.eigenvalues, want, rtol=0, atol=1e-9 * want[0])


@pytest.mark.parametrize("power, r", [(1e10, 30), (1e14, 16)])
def test_gram_route_matches_svd_far_below_the_jammer(power, r):
    # r reaches eigenvalues some 1e-16 of the largest: the Gram route's basis
    # must stay orthonormal there, as the SVD's does
    sc = StapScenario(LatticeRect(8, 8), jammers=(JammerSpec(0.7, power),), noise_power=1e-6)
    rep = suppression_experiment(sc, trials=32, seed=1, rank_used=r)  # 32 < N*M: Gram route
    comps = scenario_to_components(sc)
    snapshots = synthesize_batch(comps, sc.rect, 32, 1, noise_power=1e-6)
    top = np.linalg.svd(snapshots, full_matrices=False)[2][:r].T
    factor = assemble_gamma(comps, sc.rect).whitened_factor()
    after = np.linalg.norm(factor - (factor @ top) @ top.conj().T) ** 2
    svd_db = -10.0 * math.log10(after / np.linalg.norm(factor) ** 2)
    assert abs(rep.suppression_db - svd_db) <= 1.0


def test_suppression_with_fewer_trials_than_rank_used(tmp_path, capsys, monkeypatch):
    # the snapshots span at most `trials` directions; a projector needing more
    # would take them from whatever null-space basis LAPACK returns
    sc = StapScenario(
        LatticeRect(8, 8),
        jammers=(JammerSpec(0.7, 1e6), JammerSpec(1.8, 1e6)),
        noise_power=1.0,
        target=TargetSpec(0.4, 1.0, 2.0),
    )
    trials = 8
    rep = suppression_experiment(sc, trials=trials, seed=2, rank_used=trials)
    assert rep.eigenvalues.shape == (64,)
    assert np.all(rep.eigenvalues[:trials] > 0) and np.all(rep.eigenvalues[trials:] == 0.0)
    again = suppression_experiment(sc, trials=trials, seed=2, rank_used=trials)
    assert again.suppression_db == rep.suppression_db
    assert again.target_retention == rep.target_retention
    assert np.array_equal(again.eigenvalues, rep.eigenvalues)

    def no_draws(*args, **kwargs):
        raise AssertionError("drew snapshots for a refused subspace dimension")

    monkeypatch.setattr(evarank.stap, "synthesize_batch", no_draws)
    assert predict_rank(scenario_to_components(sc), sc.rect).formula_value == 16 > trials
    for r in (None, trials + 1, 16, 64):
        with pytest.raises(ValueError, match="exceeds the trial count"):
            suppression_experiment(sc, trials=trials, seed=2, rank_used=r)
    cfg = tmp_path / "stap.json"
    cfg.write_text(json.dumps({
        "scenario": {
            "antennas": 8,
            "pulses": 8,
            "jammers": [{"angle_freq": 0.7, "power": 1e6}, {"angle_freq": 1.8, "power": 1e6}],
            "noise_power": 1.0,
        },
        "seed": 2,
        "trials": trials,
    }))
    assert main(["stap", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "value"


def test_suppression_rejects_rank_outside_the_lattice():
    for r in (-1, 65):
        with pytest.raises(ValueError, match="subspace dimension"):
            suppression_experiment(jammer_scenario(), trials=8, seed=1, rank_used=r)


def _stap_config(tmp_path, trials, power=1e6, target=None):
    scenario = {
        "antennas": 8,
        "pulses": 8,
        "jammers": [{"angle_freq": 0.7, "power": power}],
        "noise_power": 1.0,
    }
    if target is not None:
        scenario["target"] = target
    cfg = tmp_path / "stap.json"
    cfg.write_text(json.dumps({"scenario": scenario, "seed": 2, "trials": trials}))
    return str(cfg)


@pytest.mark.parametrize("trials", [32, 128])  # the Gram route and the SVD route
@pytest.mark.parametrize("power", [1e300, 1e306])
def test_stap_at_extreme_power(tmp_path, capfd, trials, power):
    # N*M * trials * 1e306 overflows float64: refused before any draw, without a
    # numpy warning; 1e300 leaves room and runs clean
    code = main(["stap", "--config", _stap_config(tmp_path, trials, power)])
    captured = capfd.readouterr()
    if power == 1e300:
        assert code == 0
        assert captured.err == ""
        report = json.loads(captured.out)
        assert report["rank_used"] == 8
        assert report["suppression_db"] >= 40.0
        assert all(math.isfinite(x) for x in report["eigenvalues"])
    else:
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        diagnostic = json.loads(lines[0])
        assert diagnostic["error"] == "value"
        assert "overflows" in diagnostic["message"]


@pytest.mark.parametrize("amplitude", [1e150, 1e160])
def test_stap_at_extreme_target_amplitude(tmp_path, capfd, amplitude):
    # the retention divides by N*M * amplitude**2, which overflows at 1e160
    target = {"angle_freq": 0.4, "doppler_freq": 1.0, "amplitude": amplitude}
    code = main(["stap", "--config", _stap_config(tmp_path, 32, target=target)])
    captured = capfd.readouterr()
    if amplitude == 1e150:
        assert code == 0
        assert captured.err == ""
        assert 0.0 <= json.loads(captured.out)["target_retention"] <= 1.0
    else:
        assert code == 2
        assert captured.out == ""
        diagnostic = json.loads(captured.err)
        assert diagnostic["error"] == "value"
        assert "target power overflows" in diagnostic["message"]


def test_overflow_refusal_comes_before_any_draw(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("drew snapshots for a refused power")

    monkeypatch.setattr(evarank.stap, "synthesize_batch", no_draws)
    sc = StapScenario(LatticeRect(8, 8), jammers=(JammerSpec(0.7, 1e306),), noise_power=1.0)
    for trials in (32, 128, 10**400):  # a trial count too large for a float still compares
        with pytest.raises(ValueError, match="snapshot power overflows"):
            suppression_experiment(sc, trials=trials, seed=1)
