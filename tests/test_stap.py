import math

import numpy as np
import pytest

from evarank.covariance import assemble_gamma
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
