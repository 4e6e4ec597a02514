"""End-to-end acceptance checks.

Each test covers one numbered behavior contract and prints a single
[PASS]/[FAIL] line outside pytest's capture so the verdicts always
reach the terminal.  Rank targets are exact integers; residual and
gap thresholds are pinned in-line.
"""

import time

import numpy as np

from evarank.covariance import assemble_gamma, sample_covariance
from evarank.fields import (
    EvanescentComponent,
    ModulatingProcessSpec,
    ProcessKind,
    synthesize_batch,
)
from evarank.lattice import LatticeRect, make_slope_pair
from evarank.rank import (
    RegimeFlag,
    dependent_point_set,
    find_certificate,
    make_certificate,
    numerical_rank,
    predict_rank,
    spectral_gap_ratio,
    verify_certificate,
)
from evarank.stap import JammerSpec, StapScenario, scenario_to_components, suppression_experiment

GRID_DIMS = (4, 8, 15, 16)
GRID_SLOPES = ((0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (3, 2), (3, -2), (2, -1))


def _emit(capsys, number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[{status}] criterion {number}: {detail}", flush=True)


def ar1_component(a, b, omega):
    process = ModulatingProcessSpec(ProcessKind.AR1, variance=1.0, ar_coefficient=0.55)
    return EvanescentComponent(make_slope_pair(a, b), omega, process)


def white_component(a, b, omega, variance=1.0):
    process = ModulatingProcessSpec(ProcessKind.WHITE, variance=variance)
    return EvanescentComponent(make_slope_pair(a, b), omega, process)


def grid_cells():
    for n in GRID_DIMS:
        for m in GRID_DIMS:
            for a, b in GRID_SLOPES:
                yield LatticeRect(n, m), [ar1_component(a, b, 0.9)]


def multi_cells():
    rect = LatticeRect(15, 15)
    omegas = (0.9, 1.6, 2.3)
    for slopes, want in ((((3, 2), (2, 1)), 105), (((3, 2), (2, -1)), 105),
                         (((3, 2), (2, 1), (1, 3)), 144)):
        comps = [ar1_component(a, b, omegas[i]) for i, (a, b) in enumerate(slopes)]
        yield rect, comps, want


def test_criterion_1_single_component_grid(capsys):
    start = time.perf_counter()
    failures = []
    cells = 0
    for rect, comps in grid_cells():
        cells += 1
        pred = predict_rank(comps, rect)
        rank, _ = numerical_rank(assemble_gamma(comps, rect).gamma)
        if pred.regime_flag is not RegimeFlag.INTERIOR or rank != pred.formula_value:
            failures.append((rect.N, rect.M, comps[0].slope.a, comps[0].slope.b,
                             pred.formula_value, rank))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    _emit(capsys, 1, ok, f"single-component grid exact on {cells} cells in {elapsed:.1f}s"
          + (f"; mismatches {failures[:3]}" if failures else ""))
    assert ok, failures


def test_criterion_2_multi_component_ranks(capsys):
    results = []
    ok = True
    for rect, comps, want in multi_cells():
        pred = predict_rank(comps, rect)
        rank, spectrum = numerical_rank(assemble_gamma(comps, rect).gamma)
        gap = spectral_gap_ratio(spectrum, rank)
        good = pred.formula_value == want == rank and gap is not None and gap >= 1e6
        ok = ok and good
        results.append(f"{[(c.slope.a, c.slope.b) for c in comps]}->{rank} gap {gap:.1e}")
    _emit(capsys, 2, ok, "multi-component ranks 105/105/144 with gap >= 1e6: " + "; ".join(results))
    assert ok, results


def test_criterion_3_special_case_ranks(capsys):
    failures = []
    for n in range(2, 17):
        for m in range(2, 17):
            rect = LatticeRect(n, m)
            comps = [white_component(0, 1, 0.9)]
            rank, _ = numerical_rank(assemble_gamma(comps, rect).gamma)
            if rank != m or predict_rank(comps, rect).formula_value != m:
                failures.append(("vertical", n, m, rank))

    rect = LatticeRect(8, 8)
    for j in (1, 2, 3):
        scenario = StapScenario(
            rect, jammers=tuple(JammerSpec(0.5 + 0.9 * i, 4.0) for i in range(j)), noise_power=1.0
        )
        comps = scenario_to_components(scenario)
        rank, _ = numerical_rank(assemble_gamma(comps, rect).gamma)
        if rank != 8 * j or predict_rank(comps, rect).formula_value != 8 * j:
            failures.append(("jammers", j, rank))

    for beta in (1, 2, 3):
        comps = [ar1_component(1, beta, 1.1)]
        want = 8 + 8 * beta - beta
        rank, _ = numerical_rank(assemble_gamma(comps, rect).gamma)
        if rank != want or predict_rank(comps, rect).formula_value != want:
            failures.append(("clutter", beta, want, rank))

    ok = not failures
    _emit(capsys, 3, ok, "vertical=M on 225 lattices, J jammers -> 8J, clutter ridge -> 8+8b-b"
          + (f"; mismatches {failures[:3]}" if failures else ""))
    assert ok, failures


def test_criterion_4_real_valued_grid(capsys):
    failures = []
    cells = 0
    for rect, comps in grid_cells():
        a, b = comps[0].slope.a, comps[0].slope.b
        if not (2 * abs(a) < rect.M and 2 * abs(b) < rect.N):
            continue
        cells += 1
        pred = predict_rank(comps, rect, real_valued=True)
        rank, _ = numerical_rank(assemble_gamma(comps, rect, real_valued=True).gamma)
        if pred.regime_flag is not RegimeFlag.INTERIOR or rank != pred.formula_value:
            failures.append((rect.N, rect.M, a, b, pred.formula_value, rank))
    ok = not failures and cells > 0
    _emit(capsys, 4, ok, f"real-valued grid exact on {cells} interior cells"
          + (f"; mismatches {failures[:3]}" if failures else ""))
    assert ok, failures


def test_criterion_5_certificates_cover_dependent_block(capsys):
    ok = True
    details = []
    for rect, comps, want in multi_cells():
        if any(c.slope.b < 0 for c in comps):
            continue  # the two published configurations only
        model = assemble_gamma(comps, rect)
        points = dependent_point_set(comps, rect)
        zeros = tuple(0 for _ in comps)
        worst = 0.0
        good = len(points) == rect.size - want
        for point in points:
            trivial = make_certificate(point, zeros, comps, rect)
            if verify_certificate(trivial, model) != 0.0:
                good = False
                break
            cert = find_certificate(point, comps, rect)
            if cert is None:
                good = False
                break
            worst = max(worst, verify_certificate(cert, model))
        good = good and worst <= 1e-10
        ok = ok and good
        details.append(f"{len(comps)} comps: {len(points)} points, max residual {worst:.1e}")
    _emit(capsys, 5, ok, "dependence certificates verified on 120 + 81 points: " + "; ".join(details))
    assert ok, details


def test_criterion_6_frequency_invariance(capsys):
    rng = np.random.default_rng(123)
    rounds = 24
    failures = []
    for i in range(rounds):
        n, m = rng.choice(GRID_DIMS), rng.choice(GRID_DIMS)
        a, b = GRID_SLOPES[rng.integers(len(GRID_SLOPES))]
        rect = LatticeRect(int(n), int(m))
        maker = ar1_component if i % 2 else white_component
        baseline = maker(a, b, 0.9)
        base_pred = predict_rank([baseline], rect)
        base_rank, _ = numerical_rank(assemble_gamma([baseline], rect).gamma)
        omega = float(rng.uniform(0.05, 2 * np.pi - 0.05))
        moved = maker(a, b, omega)
        pred = predict_rank([moved], rect)
        rank, _ = numerical_rank(assemble_gamma([moved], rect).gamma)
        if pred.formula_value != base_pred.formula_value or rank != base_rank:
            failures.append((int(n), int(m), a, b, omega, base_rank, rank))
    ok = not failures
    _emit(capsys, 6, ok, f"rank invariant under {rounds} frequency reassignments, both process families"
          + (f"; failures {failures[:3]}" if failures else ""))
    assert ok, failures


def test_criterion_7_factorization_and_monte_carlo(capsys):
    worst = 0.0
    for rect, comps in [*grid_cells(), *((r, c) for r, c, _ in multi_cells())]:
        model = assemble_gamma(comps, rect)
        worst = max(worst, model.factorization_residual(model.whitened_factor()))
    factor_ok = worst <= 1e-10

    rect = LatticeRect(8, 8)
    comps = [ar1_component(3, 2, 0.9), white_component(2, 1, 1.6)]
    exact = assemble_gamma(comps, rect).gamma
    trials = 100_000
    estimate = sample_covariance(synthesize_batch(comps, rect, trials, seed=20))
    diag = np.real(np.diag(exact))
    stderr = np.sqrt(np.outer(diag, diag) / trials)
    max_sigma = float(np.max(np.abs(estimate - exact) / stderr))
    mc_ok = max_sigma <= 5.0

    ok = factor_ok and mc_ok
    _emit(capsys, 7, ok, f"factorization residual <= 1e-10 (worst {worst:.1e}); "
          f"1e5-draw sample covariance within 5 SE (worst {max_sigma:.2f} SE)")
    assert ok, (worst, max_sigma)


def test_criterion_8_stap_suppression(capsys):
    scenario = StapScenario(
        LatticeRect(8, 8),
        jammers=(JammerSpec(0.7, 1e6), JammerSpec(1.8, 1e6)),
        noise_power=1.0,
    )
    full = suppression_experiment(scenario, trials=128, seed=5)
    short = suppression_experiment(scenario, trials=128, seed=5, rank_used=15)
    again = suppression_experiment(scenario, trials=128, seed=5)
    ok = (
        full.rank_used == 16
        and full.suppression_db >= 40.0
        and full.suppression_db - short.suppression_db >= 20.0
        and full.suppression_db == again.suppression_db
    )
    _emit(capsys, 8, ok, f"two-jammer 60 dB scenario: r=16 gives {full.suppression_db:.1f} dB, "
          f"r=15 gives {short.suppression_db:.1f} dB, deterministic per seed")
    assert ok, (full.suppression_db, short.suppression_db)


def test_criterion_9_outside_regime_flagging(capsys):
    cases = []

    rect = LatticeRect(4, 4)
    comps = [ar1_component(1, 1, 0.3 + 0.4 * i) for i in range(4)]
    cases.append(("col sum saturates", rect, comps, False))

    rect = LatticeRect(3, 8)
    comps = [white_component(0, 1, 0.5 + 0.9 * i) for i in range(3)]
    cases.append(("row sum saturates", rect, comps, False))

    rect = LatticeRect(8, 6)
    comps = [white_component(0, 1, 0.0)]
    cases.append(("real zero-frequency fold", rect, comps, True))

    ok = True
    details = []
    for label, rect, comps, real in cases:
        pred = predict_rank(comps, rect, real_valued=real)
        oracle, _ = numerical_rank(assemble_gamma(comps, rect, real_valued=real).gamma)
        flagged = pred.regime_flag is RegimeFlag.OUTSIDE and not pred.trustworthy
        ok = ok and flagged
        details.append(f"{label}: formula {pred.formula_value}, oracle {oracle}, flagged")
    # the degenerate fold is a case where trusting the formula would be wrong
    fold_pred = predict_rank(cases[2][2], cases[2][1], real_valued=True)
    fold_rank, _ = numerical_rank(assemble_gamma(cases[2][2], cases[2][1], real_valued=True).gamma)
    ok = ok and fold_pred.formula_value == 12 and fold_rank == 6
    _emit(capsys, 9, ok, "; ".join(details))
    assert ok, details
