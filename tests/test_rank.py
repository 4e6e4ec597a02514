import contextlib
import io
import itertools
import json
import math
import random
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from evarank import cli
from evarank.cli import main
from evarank.covariance import _TILE_ROWS, _hermitian_gram, assemble_gamma, sample_covariance
from evarank.fields import (
    EvanescentComponent,
    ModulatingProcessSpec,
    ProcessKind,
    conjugate_pairs,
    draw_lines,
    lattice_map,
    scatter_lines,
    synthesize_batch,
)
from evarank.lattice import LatticeRect, make_slope_pair
from evarank.rank import (
    DependencyCertificate,
    RegimeFlag,
    _padded_rank,
    dependent_point_set,
    estimate_rank,
    find_certificate,
    gamma_rank,
    make_certificate,
    numerical_rank,
    predict_rank,
    shift_tuple_admissible,
    spectral_gap_ratio,
    verify_certificate,
)

from dense_line_gram import dense_line_gram

EPS = np.finfo(np.float64).eps
AR1 = lambda var, ar: ModulatingProcessSpec(ProcessKind.AR1, var, ar)
WHITE = lambda var: ModulatingProcessSpec(ProcessKind.WHITE, var, 0.0)


def comp(a, b, omega, process=None):
    return EvanescentComponent(make_slope_pair(a, b), omega, process or WHITE(1.0))


def comps_for(slopes):
    return [
        comp(a, b, 0.9 + 0.7 * i, AR1(1.0, 0.5))
        for i, (a, b) in enumerate(slopes)
    ]


# --- closed-form prediction --------------------------------------------------

def test_prediction_formula_values():
    rect = LatticeRect(15, 15)
    cases = [
        ([(3, 2)], 69),
        ([(3, -2)], 69),
        ([(0, 1)], 15),
        ([(1, 0)], 15),
        ([(3, 2), (2, 1)], 105),
        ([(3, 2), (2, -1)], 105),
        ([(3, 2), (2, 1), (1, 3)], 144),
    ]
    for slopes, want in cases:
        pred = predict_rank(comps_for(slopes), rect)
        assert pred.formula_value == want
        assert pred.regime_flag is RegimeFlag.INTERIOR


def test_prediction_empty_set():
    pred = predict_rank([], LatticeRect(4, 4))
    assert pred.formula_value == 0
    assert pred.regime_flag is RegimeFlag.INTERIOR


def test_per_component_counts():
    rect = LatticeRect(15, 15)
    pred = predict_rank(comps_for([(3, 2), (2, 1)]), rect)
    assert pred.per_component_counts == (69, 15 * 2 + 15 * 1 - 2)


def test_regime_flag_outside():
    rect = LatticeRect(4, 4)
    comps = comps_for([(1, 1), (1, -1), (1, 2), (1, 3)])  # sum|a| = 4 >= M
    pred = predict_rank(comps, rect)
    assert pred.regime_flag is RegimeFlag.OUTSIDE
    assert pred.formula_value <= rect.size


def test_real_mode_doubles_sums():
    rect = LatticeRect(15, 15)
    pred = predict_rank(comps_for([(3, 2)]), rect, real_valued=True)
    assert pred.formula_value == 15 * 6 + 15 * 4 - 24
    assert pred.regime_flag is RegimeFlag.INTERIOR


def test_real_mode_degenerate_frequencies_flagged():
    rect = LatticeRect(12, 12)
    for omega in (0.0, math.pi):
        pred = predict_rank([comp(1, 1, omega, WHITE(1.0))], rect, real_valued=True)
        assert pred.regime_flag is RegimeFlag.OUTSIDE
    # mirrored pair on one slope collapses too
    pair = [comp(1, 1, 1.0, WHITE(1.0)), comp(1, 1, 2 * math.pi - 1.0, WHITE(1.0))]
    assert predict_rank(pair, rect, real_valued=True).regime_flag is RegimeFlag.OUTSIDE
    # same frequencies on different slopes stay fine
    ok = [comp(1, 1, 1.0, WHITE(1.0)), comp(2, 1, 2 * math.pi - 1.0, WHITE(1.0))]
    assert predict_rank(ok, rect, real_valued=True).regime_flag is RegimeFlag.INTERIOR


def old_real_mode_degenerate(components) -> bool:
    """The real-mode rule before the conjugate-pair set described the real
    model: omega within 1e-12 of 0 or pi, or two omegas on one slope
    summing to within 1e-12 of a multiple of 2*pi."""
    for c in components:
        w = c.omega
        if min(w, abs(w - math.pi), abs(w - 2 * math.pi)) < 1e-12:
            return True
    for x, y in itertools.combinations(components, 2):
        if (x.slope.a, x.slope.b) != (y.slope.a, y.slope.b):
            continue
        s = (x.omega + y.omega) % (2 * math.pi)
        if min(s, 2 * math.pi - s) < 1e-12:
            return True
    return False


# Offsets straddling the 1e-12 tolerance.  The mirror of an omega just above 0
# is 2*pi - omega rounded to a multiple of 2**-50, so for omega within 4e-16
# below 1e-12 the rules can differ; the offsets stay clear of that window.
_NEAR = [0.0, 3e-13, 9.9e-13, 1.01e-12, 1.99e-12, 2.01e-12, 1e-9]
_OMEGAS = st.one_of(
    st.floats(0.0, 6.28),
    st.builds(lambda c, d, sign: c + sign * d, st.sampled_from([0.0, math.pi, 2 * math.pi]),
              st.sampled_from(_NEAR), st.sampled_from([1, -1])),
)


@settings(deadline=None, max_examples=200)
@given(
    picks=st.lists(st.tuples(st.sampled_from([(1, 1), (2, -1)]), _OMEGAS), min_size=1,
                   max_size=4),
    mirror=st.tuples(st.sampled_from(_NEAR), st.sampled_from([1, -1])),
)
def test_conjugate_pair_rule_flags_every_old_real_degeneracy(picks, mirror):
    comps = [comp(a, b, omega) for (a, b), omega in picks]
    # the mirror of the first pick, moved by an offset near the tolerance
    (a, b), omega = picks[0]
    comps.append(comp(a, b, -omega + mirror[1] * mirror[0]))
    assume(len({c.triple() for c in comps}) == len(comps))
    rect = LatticeRect(64, 64)  # slope sums stay far inside
    if old_real_mode_degenerate(comps):
        assert predict_rank(comps, rect, real_valued=True).regime_flag is RegimeFlag.OUTSIDE


def test_complex_near_duplicates_are_flagged():
    rect = LatticeRect(12, 12)
    near = [comp(1, 1, 1.0), comp(1, 1, 1.0 + 1e-13)]
    assert predict_rank(near, rect).regime_flag is RegimeFlag.OUTSIDE
    # a repeated triple is the collision at distance 0
    same = [comp(1, 1, 1.0), comp(1, 1, 1.0, WHITE(2.0))]
    assert predict_rank(same, rect).regime_flag is RegimeFlag.OUTSIDE
    across = [comp(1, 1, 1e-13), comp(1, 1, 2 * math.pi - 1e-13)]
    assert predict_rank(across, rect).regime_flag is RegimeFlag.OUTSIDE
    apart = [comp(1, 1, 1.0), comp(1, 1, 1.0 + 1e-9), comp(2, 1, 1.0)]
    assert predict_rank(apart, rect).regime_flag is RegimeFlag.INTERIOR


def test_real_mode_omega_zero_rank_halves():
    # with omega = 0 the sine carrier vanishes; the doubled formula would
    # claim 2M, the true rank is M, and the flag owns up to it
    rect = LatticeRect(6, 6)
    c = comp(0, 1, 0.0, WHITE(1.0))
    pred = predict_rank([c], rect, real_valued=True)
    model = assemble_gamma([c], rect, real_valued=True)
    rank, _ = numerical_rank(model.gamma)
    assert pred.regime_flag is RegimeFlag.OUTSIDE
    assert rank == rect.M
    assert pred.formula_value == 2 * rect.M


# --- numerical rank ----------------------------------------------------------

def test_numerical_rank_exact_cases():
    rect = LatticeRect(15, 15)
    model = assemble_gamma(comps_for([(3, 2)]), rect)
    rank, spectrum = numerical_rank(model.gamma)
    assert rank == 69
    assert spectrum.shape == (225,)
    assert spectral_gap_ratio(spectrum, rank) > 1e6


def test_numerical_rank_tolerance_insensitive():
    rect = LatticeRect(15, 15)
    model = assemble_gamma(comps_for([(3, 2), (2, 1)]), rect)
    lo, _ = numerical_rank(model.gamma, rel_tol=1e-10)
    hi, _ = numerical_rank(model.gamma, rel_tol=1e-4)
    assert lo == hi == 105


def test_numerical_rank_rejects_non_finite():
    bad = np.eye(3)
    bad[1, 1] = np.nan
    with pytest.raises(ValueError):
        numerical_rank(bad)
    bad = np.eye(3, dtype=complex)
    bad[0, 2] = 1j * np.inf
    with pytest.raises(ValueError):
        numerical_rank(bad)


@pytest.mark.parametrize("call, message", [
    (lambda: numerical_rank(np.zeros((2, 2, 2))), "numerical rank needs a 2-D matrix"),
    (lambda: verify_certificate(DependencyCertificate((1, 1), ()),
                                assemble_gamma([], LatticeRect(4, 4))),
     "target column is zero; no components present"),
    (lambda: make_certificate((1, 1), [], LatticeRect(4, 4)),
     "certificates need at least one component"),
    (lambda: make_certificate((4, 0), comps_for([(1, 1)]), LatticeRect(4, 4)),
     r"target \(4, 0\) outside 4x4 lattice"),
], ids=["numerical-rank-3d", "verify-no-components", "certificate-no-components",
        "certificate-target-outside"])
def test_rank_guards_name_their_fault(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_numerical_rank_handles_rectangular_input():
    mat = np.vstack([np.eye(3), np.eye(3)])
    rank, _ = numerical_rank(mat)
    assert rank == 3


def test_rank_of_gamma_equals_rank_of_stacked_factor():
    rect = LatticeRect(10, 10)
    comps = comps_for([(3, 2), (1, -2)])
    model = assemble_gamma(comps, rect)
    rank_gamma, _ = numerical_rank(model.gamma)
    rank_stack, _ = numerical_rank(model.stacked)
    assert rank_gamma == rank_stack


def test_zero_matrix_has_rank_zero():
    rank, spectrum = numerical_rank(np.zeros((5, 5)))
    assert rank == 0
    assert np.all(spectrum == 0)


# --- factor route against the dense oracle -----------------------------------

def factor_rank(factor, rel_tol=None):
    """Reference rank of the covariance X^H X, read from its factor X: the
    Gram on the short side of X, X X^H or X^H X, under the cut that the
    N*M x N*M covariance gets, N*M = X.shape[1], the spectrum zero-padded."""
    rows, size = factor.shape
    # X X^H sums x x^H over the columns x of X, and X^H X over the rows of conj(X)
    gram = _hermitian_gram(factor.T if rows <= size else factor.conj())
    return _padded_rank(numerical_rank(gram)[1], size, rel_tol)


@pytest.mark.parametrize("real_valued", [False, True], ids=["complex", "real"])
def test_factor_rank_matches_dense_oracle_on_stock_grid(real_valued):
    for rect, comps in cli._grid_cells({}):
        model = assemble_gamma(comps, rect, real_valued=real_valued)
        dense_rank, dense = numerical_rank(model.gamma)
        rank, spectrum = factor_rank(model.whitened_factor())
        assert rank == dense_rank, (rect, [c.triple() for c in comps])
        assert spectrum.shape == dense.shape == (rect.size,)
        np.testing.assert_allclose(spectrum[:rank], dense[:rank], rtol=1e-9, atol=0)


def test_factor_rank_spectrum_past_the_factor_rows_is_zero():
    rect = LatticeRect(15, 15)
    model = assemble_gamma(comps_for([(2, 1)]), rect)
    rank, spectrum = factor_rank(model.whitened_factor())
    rows = model.whitened_factor().shape[0]
    assert rank == rows == 15 * 2 + 15 * 1 - 2  # every process sample is referenced
    assert np.all(spectrum[rows:] == 0.0)
    assert spectral_gap_ratio(spectrum, rank) == math.inf


def test_factor_rank_of_tall_factor_and_empty_model():
    # more factor rows than lattice points: the Gram is taken on the N*M side
    rect = LatticeRect(4, 4)
    model = assemble_gamma(comps_for([(3, 2), (2, 1)]), rect, real_valued=True)
    assert model.whitened_factor().shape[0] > rect.size
    assert factor_rank(model.whitened_factor())[0] == numerical_rank(model.gamma)[0] == rect.size
    rank, spectrum = factor_rank(assemble_gamma([], rect).whitened_factor())
    assert rank == 0
    assert np.array_equal(spectrum, np.zeros(rect.size))


@pytest.mark.parametrize("real_valued", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("trials", [20, 64, 150], ids=["below", "equal", "above"])
def test_factor_rank_of_scaled_snapshots_matches_dense_sample_rank(trials, real_valued):
    # the sample covariance is X^H X for X = snapshots.conj() / sqrt(trials)
    rect = LatticeRect(8, 8)
    model = assemble_gamma(comps_for([(1, 1), (2, -1)]), rect, real_valued=real_valued)
    snapshots = synthesize_batch(model, trials, seed=5)
    dense_rank, dense = numerical_rank(sample_covariance(snapshots))
    rank, spectrum = factor_rank(snapshots.conj() / math.sqrt(trials))
    assert rank == dense_rank == min(trials, 56 if real_valued else 34)
    assert spectrum.shape == dense.shape == (rect.size,)
    np.testing.assert_allclose(spectrum[:rank], dense[:rank], rtol=1e-9, atol=0)


@pytest.mark.parametrize("real_valued", [False, True], ids=["complex", "real"])
def test_sample_covariance_takes_the_symmetric_eigensolve(monkeypatch, real_valued):
    # the estimate is exactly Hermitian by construction, so the dense sample-rank
    # reference above reads eigvalsh, whatever the BLAS build's roundoff
    def unused(*args, **kwargs):
        raise AssertionError("numerical_rank took the SVD route")

    monkeypatch.setattr(np.linalg, "svd", unused)
    model = assemble_gamma(comps_for([(1, 1), (2, -1)]), LatticeRect(8, 8), real_valued=real_valued)
    for trials in (20, 150):
        rank, _ = numerical_rank(sample_covariance(synthesize_batch(model, trials, seed=5)))
        assert rank == min(trials, 56 if real_valued else 34)


_SLOPES = [(0, 1), (1, 0), (1, 1), (1, -1), (1, 2), (2, 1), (2, -1), (1, -2), (3, 2), (3, -1)]


# interior configs up to 12 x 12 with at most three components, slopes repeating
INTERIOR_CONFIGS = dict(
    n=st.integers(2, 12),
    m=st.integers(2, 12),
    slopes=st.lists(st.sampled_from(_SLOPES), min_size=1, max_size=3),
    ars=st.lists(st.floats(-0.7, 0.7), min_size=3, max_size=3),
    real_valued=st.booleans(),
)


def interior_model(n, m, slopes, ars, real_valued):
    """The drawn config's model and prediction; hypothesis skips outside ones."""
    # well separated frequencies, away from the real model's degenerate 0 and pi
    comps = [
        comp(a, b, 0.5 + 1.1 * i, AR1(1.0 + i, ar))
        for i, ((a, b), ar) in enumerate(zip(slopes, ars))
    ]
    rect = LatticeRect(n, m)
    pred = predict_rank(comps, rect, real_valued=real_valued)
    assume(pred.regime_flag is RegimeFlag.INTERIOR)
    return assemble_gamma(comps, rect, real_valued=real_valued), pred


@settings(max_examples=60, deadline=None)
@given(**INTERIOR_CONFIGS)
def test_factor_rank_equals_dense_rank_and_formula_on_interior_configs(
    n, m, slopes, ars, real_valued
):
    model, pred = interior_model(n, m, slopes, ars, real_valued)
    rank, _ = factor_rank(model.whitened_factor())
    assert rank == numerical_rank(model.gamma)[0] == pred.formula_value


# --- simulate's sample rank against the factor reference --------------------

# any lattice up to 12 x 12 with up to three components, the empty set, the
# regime's outside and repeated slopes included, and any trial count up to 400
SIMULATE_CONFIGS = dict(
    n=st.integers(1, 12),
    m=st.integers(1, 12),
    slopes=st.lists(st.sampled_from(_SLOPES), max_size=3),
    ars=st.lists(st.floats(-0.7, 0.7), min_size=3, max_size=3),
    trials=st.integers(1, 400),
    real_valued=st.booleans(),
    tolerance=st.none() | st.floats(-12.0, -2.0).map(lambda e: 10.0**e),
    seed=st.integers(0, 2**31),
)


@settings(max_examples=100, deadline=None)
@given(**SIMULATE_CONFIGS)
# one per shape: 12 lines (24 real) against 64 trials and 144 points; 20
# trials against 37 lines, W wider than tall; 40 trials against 16 points
# and 26 lines (52 real), T G T^H larger than the estimate; and the empty set
@example(n=12, m=12, slopes=[(0, 1)], ars=[0.5] * 3, trials=64, real_valued=False,
         tolerance=None, seed=1)
@example(n=12, m=12, slopes=[(0, 1)], ars=[0.5] * 3, trials=64, real_valued=True,
         tolerance=1e-6, seed=2)
@example(n=8, m=8, slopes=[(1, 1), (2, -1)], ars=[0.5] * 3, trials=20, real_valued=False,
         tolerance=None, seed=3)
@example(n=4, m=4, slopes=[(3, 2), (2, 1)], ars=[0.5] * 3, trials=40, real_valued=False,
         tolerance=1e-9, seed=4)
@example(n=4, m=4, slopes=[(3, 2), (2, 1)], ars=[0.5] * 3, trials=40, real_valued=True,
         tolerance=None, seed=5)
@example(n=6, m=5, slopes=[], ars=[0.5] * 3, trials=30, real_valued=False, tolerance=None,
         seed=6)
def test_simulate_sample_rank_equals_the_factor_reference(
    n, m, slopes, ars, trials, real_valued, tolerance, seed
):
    comps = [
        comp(a, b, 0.5 + 1.1 * i, AR1(1.0 + i, ar))
        for i, ((a, b), ar) in enumerate(zip(slopes, ars))
    ]
    payload = {
        "rect": {"N": n, "M": m},
        "components": [
            {"a": c.slope.a, "b": c.slope.b, "omega": c.omega,
             "process": {"kind": "ar1", "variance": c.process.variance,
                         "ar_coefficient": c.process.ar_coefficient}}
            for c in comps
        ],
        "trials": trials,
        "seed": seed,
    }
    flags = ["--real"] * real_valued + ["--tolerance", repr(tolerance)] * (tolerance is not None)
    code, out, err = run_verb(payload, "simulate", *flags)
    assert code == 0, err
    model = assemble_gamma(comps, LatticeRect(n, m), real_valued=real_valued)
    snapshots = synthesize_batch(model, trials, seed)
    rank, _ = factor_rank(snapshots.conj() / math.sqrt(trials), rel_tol=tolerance)
    assert json.loads(out)["sample_rank"] == rank


@pytest.mark.parametrize("real_valued", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize(
    "n, slopes, trials",
    # two components, so that G is not diagonal: 24 lines (48 real) against 100 trials;
    # 20 trials against 37 lines; 40 trials against 16 points and 26 lines (52 real),
    # where T G T^H is larger than the estimate, and still ranked in its place
    [(12, [(0, 1), (1, 0)], 100), (8, [(1, 1), (2, -1)], 20), (4, [(3, 2), (2, 1)], 40)],
    ids=["line", "wide-draws", "estimate"],
)
def test_estimate_rank_spectrum_matches_the_dense_sample_covariance(n, slopes, trials,
                                                                    real_valued):
    model = assemble_gamma(comps_for(slopes), LatticeRect(n, n), real_valued=real_valued)
    lines = draw_lines(model, trials, 5)
    snapshots = scatter_lines(model, lines)
    estimate = sample_covariance(snapshots)
    dense_rank, dense = numerical_rank(estimate)
    rank, spectrum = estimate_rank(model, lines)
    assert rank == dense_rank
    assert spectrum.shape == dense.shape == (n * n,)
    np.testing.assert_allclose(spectrum[:rank], dense[:rank], rtol=1e-9, atol=0)


# --- Gamma's rank from the line Gram against the dense oracle ----------------

def line_count(model):
    return sum(block.length * len(block.carriers) for block in model.blocks)


def pairs_lines(model):
    """Whether gamma_rank pivots the longest block's lines in 2x2 blocks: a
    real block whose omega is clear of 0 and pi, sin^2 omega / 2 above the
    default cut times sqrt(2) q max(N, M), a bound on the spectrum's top."""
    rect = model.rect
    omega = model.components[int(np.argmax([b.length for b in model.blocks]))].omega
    top = math.sqrt(2) * len(model.blocks) * max(rect.N, rect.M)
    return model.real_valued and math.sin(omega) ** 2 / 2 > 1e3 * rect.size * EPS * top


def schur_spectrum(model):
    """Reference for gamma_rank's spectrum: the eigenvalue magnitudes of
    blockdiag(P, S), sorted and zero-padded to N*M, for the pivot block P of
    the line Gram G on the longest block's lines and the Schur complement S
    from a dense solve on P.  With `pairs_lines`, a line with two or more
    points gives both its rows and a one-point line the row of its carrier
    with the largest diagonal entry, and the block's other rows are dropped;
    otherwise each reached line gives that one row, and the others stay in
    S.  P is checked to be block-diagonal in those 2x2 and 1x1 blocks."""
    gram = dense_line_gram(model)
    starts = np.cumsum([0] + [b.length * len(b.carriers) for b in model.blocks])
    k = int(np.argmax([b.length for b in model.blocks]))  # the first on ties
    block = model.blocks[k]
    lines = np.arange(block.length)
    rows = starts[k] + lines + block.length * np.arange(len(block.carriers))[:, None]
    diagonal = gram[rows, rows].real
    taken = rows[diagonal.argmax(0), lines]
    if pairs_lines(model):
        points = np.bincount(block.rows, minlength=block.length)
        groups = [rows[:, line] for line in lines if points[line] > 1]
        groups += [taken[[line]] for line in lines if points[line] == 1]
        dropped = rows.ravel()
    else:
        groups = [[line] for line in taken if gram[line, line].real > 0]
        dropped = taken
    pivots = np.concatenate(groups).astype(int) if groups else np.zeros(0, int)
    shape = np.zeros((pivots.size, pivots.size), bool)
    lo = 0
    for group in groups:
        assert len(group) in (1, 2)
        shape[lo:lo + len(group), lo:lo + len(group)] = True
        lo += len(group)
    pivot_block = gram[np.ix_(pivots, pivots)]
    assert np.all(pivot_block[~shape] == 0)
    rest = np.setdiff1d(np.arange(len(gram)), dropped)
    coupling = gram[np.ix_(pivots, rest)]
    schur = gram[np.ix_(rest, rest)] - coupling.conj().T @ np.linalg.solve(pivot_block, coupling)
    values = np.concatenate([np.linalg.eigvalsh(pivot_block),
                             np.linalg.eigvalsh((schur + schur.conj().T) / 2)])
    top = np.sort(np.abs(values))[::-1][:model.rect.size]
    return np.concatenate([top, np.zeros(model.rect.size - top.size)])


def assert_schur_spectrum(model, rank, spectrum):
    """gamma_rank's spectrum is the reference's above the cut, and the count
    of reference values above the default cut is the rank."""
    reference = schur_spectrum(model)
    assert spectrum.shape == reference.shape == (model.rect.size,)
    np.testing.assert_allclose(spectrum[:rank], reference[:rank], rtol=1e-9, atol=0)
    cut = 1e3 * model.rect.size * np.finfo(np.float64).eps * reference[0]
    assert np.count_nonzero(reference > cut) == rank


@pytest.mark.parametrize("real_valued", [False, True], ids=["complex", "real"])
def test_gamma_rank_matches_dense_oracle_on_stock_grid(real_valued):
    sides = {"wide": 0, "tall": 0}
    for rect, comps in cli._grid_cells({}):
        model = assemble_gamma(comps, rect, real_valued=real_valued)
        rank, spectrum = gamma_rank(model)
        assert rank == numerical_rank(model.gamma)[0], (rect, [c.triple() for c in comps])
        assert_schur_spectrum(model, rank, spectrum)
        sides["tall" if line_count(model) > rect.size else "wide"] += 1
    assert sides["wide"] > 0
    # the real model's 4 x N cells with sum|a| or sum|b| of 3 carry more lines than points
    assert (sides["tall"] > 0) == real_valued


@pytest.mark.parametrize("real_valued", [False, True], ids=["complex", "real"])
def test_gamma_rank_spectrum_matches_the_factor_gram(real_valued):
    # the spectrum is that of blockdiag(D, S), congruent to C C^H: the processes'
    # variances and AR coefficients leave it alone
    rect = LatticeRect(30, 30)
    slopes = [(3, 2, 0.9), (2, -1, 1.7), (3, 2, 2.9)]
    processes = [AR1(1.3, 0.6), WHITE(0.7), AR1(0.8, -0.4)]
    model = assemble_gamma([comp(*s, p) for s, p in zip(slopes, processes)], rect,
                           real_valued=real_valued)
    white = assemble_gamma([comp(*s) for s in slopes], rect, real_valued=real_valued)
    assert line_count(model) < rect.size
    rank, spectrum = gamma_rank(model)
    assert rank == numerical_rank(model.gamma)[0]
    assert np.array_equal(spectrum, gamma_rank(white)[1])
    assert_schur_spectrum(model, rank, spectrum)


def test_gamma_rank_spectrum_past_the_factor_rows_is_zero():
    rect = LatticeRect(15, 15)
    model = assemble_gamma(comps_for([(2, 1)]), rect)
    rank, spectrum = gamma_rank(model)
    assert rank == line_count(model) == 15 * 2 + 15 * 1 - 2  # every process sample is referenced
    assert np.all(spectrum[rank:] == 0.0)
    assert spectral_gap_ratio(spectrum, rank) == math.inf


@pytest.mark.parametrize("real_valued", [False, True], ids=["complex", "real"])
def test_gamma_rank_of_tall_factor_and_empty_model(real_valued):
    # more lines than lattice points: the spectrum keeps its top N*M entries
    rect = LatticeRect(4, 4)
    model = assemble_gamma(comps_for([(3, 2), (2, 1)]), rect, real_valued=real_valued)
    assert line_count(model) > rect.size
    rank, spectrum = gamma_rank(model)
    assert rank == numerical_rank(model.gamma)[0] == rect.size
    assert_schur_spectrum(model, rank, spectrum)
    # a cut below roundoff counts S's roundoff eigenvalues, but never past N*M
    assert gamma_rank(model, rel_tol=1e-300)[0] == rect.size
    empty = assemble_gamma([], rect, real_valued=real_valued)
    assert empty._line_gram == {} and dense_line_gram(empty).shape == (0, 0)
    rank, spectrum = gamma_rank(empty)
    assert rank == 0
    assert np.array_equal(spectrum, np.zeros(rect.size))


@pytest.mark.parametrize("real_valued", [False, True], ids=["complex", "real"])
def test_gamma_rank_reads_no_cholesky_factor(monkeypatch, real_valued):
    # rank Gamma = rank C: the rank decision needs neither L nor any Cholesky
    from evarank.fields import FactorBlock

    def refused(*args):
        raise AssertionError("the rank read a Cholesky factor")

    rect = LatticeRect(16, 16)  # 244 real lines: no tall factor
    model = assemble_gamma([comp(3, 2, 0.9, AR1(1.3, 0.99)), comp(2, -1, 1.7, WHITE(0.7))],
                           rect, real_valued=real_valued)
    dense_rank, _ = numerical_rank(model.gamma)
    monkeypatch.setattr(FactorBlock, "lower", property(refused))
    monkeypatch.setattr(np.linalg, "cholesky", refused)
    assert gamma_rank(model)[0] == dense_rank


@pytest.mark.parametrize("a, b", [(3, 2), (2, -3), (4, 3), (5, -2), (1, 3)])
def test_gamma_rank_counts_the_samples_one_component_reaches(a, b):
    # integer ground truth: (|a|-1)(|b|-1) samples in [k_min, k_max] are never
    # reached, and the rank counts the others
    rect = LatticeRect(9, 11)
    component = comp(a, b, 0.9, AR1(1.0, 0.5))
    rows, length, _ = lattice_map(component, rect)
    reached = int(np.unique(rows).size)
    assert reached == rect.N * abs(a) + rect.M * abs(b) - abs(a * b)
    assert length - reached == (abs(a) - 1) * (abs(b) - 1)
    assert gamma_rank(assemble_gamma([component], rect))[0] == reached


def refuse_eigensolves(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("the rank took an eigensolve")

    monkeypatch.setattr(np.linalg, "eigvalsh", refused)
    monkeypatch.setattr(np.linalg, "svd", refused)


@pytest.mark.parametrize("a, b", [(1, 1), (3, 2), (2, -3), (4, 3), (5, -2), (1, 3)])
@pytest.mark.parametrize("n, m", [(7, 20), (16, 13), (9, 11), (12, 12), (8, 15), (11, 17)])
def test_gamma_rank_counts_one_real_components_lines(monkeypatch, n, m, a, b):
    # integer ground truth off the fold, from the lattice map alone: a line with
    # two points or more is a 2x2 pivot of rank 2, a one-point line a 1x1 pivot,
    # and an unreached line nothing; no rows are left to eigensolve, and the
    # count is the real formula's
    rect = LatticeRect(n, m)
    component = comp(a, b, 0.9, AR1(1.0, 0.5))
    rows, length, _ = lattice_map(component, rect)
    points = np.bincount(rows, minlength=length)
    count = 2 * np.count_nonzero(points > 1) + np.count_nonzero(points == 1)
    pred = predict_rank([component], rect, real_valued=True)
    assert pred.regime_flag is RegimeFlag.INTERIOR
    model = assemble_gamma([component], rect, real_valued=True)
    refuse_eigensolves(monkeypatch)
    assert gamma_rank(model)[0] == count == pred.formula_value


@settings(max_examples=60, deadline=None)
@given(**INTERIOR_CONFIGS)
def test_gamma_rank_equals_dense_rank_and_formula_on_interior_configs(
    n, m, slopes, ars, real_valued
):
    model, pred = interior_model(n, m, slopes, ars, real_valued)
    assert gamma_rank(model)[0] == numerical_rank(model.gamma)[0] == pred.formula_value


def g_route_rank(model):
    """The rank of the line Gram G itself, under the cut Gamma would get."""
    return numerical_rank(dense_line_gram(model),
                          rel_tol=1e3 * model.rect.size * np.finfo(float).eps)[0]


# fixed, well separated frequencies, with the real model's collisions among them:
# 0 and pi, and the mirror pair 0.7 and 2*pi - 0.7
_DIFFERENTIAL_OMEGAS = [0.0, 0.7, 1.3, 2.1, math.pi, 3.9, 2 * math.pi - 0.7]


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 16),
    m=st.integers(1, 16),
    picks=st.lists(st.tuples(st.sampled_from(_SLOPES), st.sampled_from(_DIFFERENTIAL_OMEGAS)),
                   max_size=4, unique=True),
    real_valued=st.booleans(),
)
# two (0, 1) jammers sharing a slope; a slope sum reaching its side; more lines
# than points (real: 64 lines, 16 points); and the empty model
@example(n=16, m=16, picks=[((0, 1), 0.7), ((0, 1), 2.1), ((1, 1), 1.3)], real_valued=False)
@example(n=16, m=16, picks=[((0, 1), 0.7), ((0, 1), 2.1)], real_valued=True)
@example(n=6, m=5, picks=[((3, 2), 0.7), ((3, -1), 1.3)], real_valued=False)
@example(n=4, m=4, picks=[((3, 2), 0.7), ((2, 1), 1.3)], real_valued=True)
@example(n=5, m=7, picks=[], real_valued=True)
# real blocks on the fold, whose 2x2 pivots would be singular or nearly so: the
# longest at pi beside one at 0, and at 0 beside another slope's 0.7
@example(n=2, m=2, picks=[((0, 1), 0.0), ((1, 1), math.pi)], real_valued=True)
@example(n=2, m=1, picks=[((0, 1), 0.0), ((0, 1), 0.7)], real_valued=True)
def test_gamma_rank_is_the_line_gram_rank_and_the_dense_rank(n, m, picks, real_valued):
    # the elimination changes the route, not the rank, inside the regime or out of it
    comps = [comp(a, b, omega, AR1(1.0 + i, 0.5)) for i, ((a, b), omega) in enumerate(picks)]
    model = assemble_gamma(comps, LatticeRect(n, m), real_valued=real_valued)
    assert gamma_rank(model)[0] == g_route_rank(model) == numerical_rank(model.gamma)[0]


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 16),
    m=st.integers(1, 16),
    picks=st.lists(st.tuples(st.sampled_from(_SLOPES),
                             st.floats(0.0, 2 * math.pi, exclude_max=True)),
                   max_size=4, unique=True),
    real_valued=st.booleans(),
)
# near collisions inside the regime, where G reads below the formula: a real
# component at omega = 1e-5, next to its mirror (G 13, the formula 14), and two
# complex (1, -2) components 1e-5 apart (G 56, the elimination 71, the formula 81)
@example(n=3, m=5, picks=[((1, 0), 3.0), ((1, 1), 1e-5)], real_valued=True)
@example(n=13, m=13, picks=[((1, -2), 0.0), ((1, -2), 1e-5), ((0, 1), 0.0)], real_valued=False)
# real blocks on the fold: the longest at a subnormal sin^2 omega, and at 0
@example(n=2, m=4, picks=[((0, 1), 0.0), ((1, 1), 8.3e-157)], real_valued=True)
@example(n=2, m=1, picks=[((0, 1), 0.0), ((0, 1), 1.0)], real_valued=True)
def test_gamma_rank_resolves_at_least_what_the_line_gram_does(n, m, picks, real_valued):
    # at the cut the two routes read different values: S^-1 is a principal block
    # of G^-1, so S's k-th smallest eigenvalue is at least G's, and D and S's
    # largest values are at most G's, so the cut is no higher; the elimination
    # counts at least G's rank, and inside the regime never past the formula
    comps = [comp(a, b, omega) for (a, b), omega in picks]
    rect = LatticeRect(n, m)
    model = assemble_gamma(comps, rect, real_valued=real_valued)
    rank = gamma_rank(model)[0]
    assert rank >= g_route_rank(model)
    pred = predict_rank(comps, rect, real_valued=real_valued)
    if pred.regime_flag is RegimeFlag.INTERIOR:
        assert rank <= pred.formula_value


@pytest.mark.parametrize("delta", [0.5, 1e-3, 1e-4, 1e-6])
def test_gamma_rank_is_the_line_gram_rank_on_near_collisions(delta):
    # two (2, 1) components delta apart beside a (1, 3) one at 32 x 32: the
    # formula reads 295 each time, and the float routes stop resolving the pair
    # near 1e-4 (287 there, 212 at 1e-6); only agreement between the routes is
    # asserted, not that those counts are right
    rect = LatticeRect(32, 32)
    model = assemble_gamma([comp(2, 1, 0.9), comp(2, 1, 0.9 + delta), comp(1, 3, 1.6)], rect)
    assert gamma_rank(model)[0] == g_route_rank(model) == numerical_rank(model.gamma)[0]


def rank_model(omega_32=0.9, omega_21=1.6):
    """The benchmark's rank slopes at 48 x 48, real: (3, 2) AR(1) and (2, 1) white."""
    return assemble_gamma([comp(3, 2, omega_32, AR1(1.0, 0.5)), comp(2, 1, omega_21)],
                          LatticeRect(48, 48), real_valued=True)


def spy_eigensolves(monkeypatch):
    """The shapes and dtypes np.linalg.eigvalsh is called on, from now on."""
    shapes = []

    def spied(matrix, *args, **kwargs):
        shapes.append((matrix.shape, matrix.dtype))
        return eigvalsh(matrix, *args, **kwargs)

    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", spied)
    return shapes


@pytest.mark.parametrize("omega", [1e-3, 1e-7, math.pi - 1e-7])
def test_gamma_rank_is_the_line_gram_rank_near_a_fold(monkeypatch, omega):
    # the (2, 1) component near 0 or pi, where its sin rows fall toward zero, and
    # the longest block, (3, 2) at 0.9, paired: every route resolves the sin rows
    # at 1e-3 (708, the formula) and none does at 1e-7 or pi - 1e-7 (584)
    model = rank_model(omega_21=omega)
    shapes = spy_eigensolves(monkeypatch)
    rank = gamma_rank(model)[0]
    assert shapes == [((284, 284), np.float64)]
    assert rank == g_route_rank(model) == numerical_rank(model.gamma)[0]


@pytest.mark.parametrize("omega_32, omega_21, side", [
    (1e-2, 1.6, 284), (1e-3, 1.6, 284), (math.pi - 1e-3, 1.6, 284),
    (3e-4, 1.6, 520), (1e-7, 1.6, 520), (0.9, 1e-5, 284),
])
def test_gamma_rank_pairs_lines_only_clear_of_the_fold(monkeypatch, omega_32, omega_21, side):
    # the longest block pairs its lines when sin^2 omega / 2 clears the default
    # cut, 1e3 * 2304 * eps, times sqrt(2) * 2 * 48: sin omega above 3.7e-4.
    # Closer to the fold it keeps one row per line and S is 520 square.  Near
    # the fold the routes read different values at the cut ((2, 1) at 1e-5:
    # 661 here, 658 for G and 655 for the dense Gamma, as before the pairs), and
    # the rank resolves at least what G does, never past the formula
    model = rank_model(omega_32, omega_21)
    shapes = spy_eigensolves(monkeypatch)
    rank = gamma_rank(model)[0]
    assert shapes == [((side, side), np.float64)]
    assert g_route_rank(model) <= rank <= 708


@pytest.mark.parametrize("real_valued", [False, True], ids=["complex", "real"])
def test_rank_eigensolves_only_the_schur_complement(tmp_path, monkeypatch, real_valued):
    # one eigensolve per rank, of S: sum(rows) less the longest block's rows, its
    # 236 lines complex (142 square, where G is 378) and both carriers' 472 rows
    # real (284 square, where G is 756)
    shapes = spy_eigensolves(monkeypatch)
    config = tmp_path / "rank.json"
    config.write_text(json.dumps({"rect": {"N": 48, "M": 48}, "components": [
        {"a": 3, "b": 2, "omega": 0.9, "process": {"kind": "ar1", "ar_coefficient": 0.5}},
        {"a": 2, "b": 1, "omega": 1.6}]}))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["rank", "--config", str(config)] + ["--real"] * real_valued) == 0
    assert json.loads(out.getvalue())["numerical_rank"] == (708 if real_valued else 369)
    side = 284 if real_valued else 142
    assert shapes == [((side, side), np.float64 if real_valued else np.complex128)]


def one_component_grid_row(tmp_path, monkeypatch, *flags):
    """The grid row of (3, 2) at 0.9 over 12 x 9, with every eigensolve refused."""
    refuse_eigensolves(monkeypatch)
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({"grid": {"cells": [
        {"rect": {"N": 12, "M": 9}, "components": [{"a": 3, "b": 2, "omega": 0.9}]}]}}))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["grid", "--config", str(config), *flags]) == 0
    return out.getvalue().splitlines()[1].split(",")


def test_one_complex_component_needs_no_eigensolve(tmp_path, monkeypatch):
    # 12*3 + 9*2 - 6 = 48 reached lines: the rank, with nothing past it
    assert one_component_grid_row(tmp_path, monkeypatch)[4:8] == ["48", "48", "1", "inf"]


def test_one_real_component_needs_no_eigensolve(tmp_path, monkeypatch):
    # 36 lines with two points or more, as 2x2 pivots, and 12 with one point:
    # 84 = 12*6 + 9*4 - 24, the rank, with nothing past it
    row = one_component_grid_row(tmp_path, monkeypatch, "--real")
    assert row[4:8] == ["84", "84", "1", "inf"]


def test_ranked_grams_are_exactly_hermitian(monkeypatch):
    # gamma_rank's S and estimate_rank's T G T^H go to eigvalsh without
    # numerical_rank's symmetry test, which their construction makes true: on the
    # stock grid and at the stap_mc shape, 32 x 32 with 512 trials
    import evarank.rank

    grams = []

    def kept(matrix):
        grams.append(matrix)
        return eigenvalues(matrix)

    eigenvalues = evarank.rank._hermitian_eigenvalues
    monkeypatch.setattr(evarank.rank, "_hermitian_eigenvalues", kept)
    for real_valued in (False, True):
        for rect, comps in cli._grid_cells({}):
            gamma_rank(assemble_gamma(comps, rect, real_valued=real_valued))
        model = assemble_gamma([comp(3, 2, 0.9, AR1(1.0, 0.5)), comp(2, 1, 1.6)],
                               LatticeRect(32, 32), real_valued=real_valued)
        estimate_rank(model, draw_lines(model, 512, seed=1))
        assert grams[-1].shape == (min(512, line_count(model)),) * 2
    # a one-component cell leaves nothing after the elimination: no eigensolve
    multi = sum(len(comps) > 1 for _, comps in cli._grid_cells({}))
    assert multi == 3 and len(grams) == 2 * (multi + 1)
    for gram in grams:
        assert np.array_equal(gram, gram.conj().T)


def test_gamma_rank_holds_one_schur_sized_array_beside_g():
    # the benchmark's rank slopes at 48 x 48 --real: G's stored block pairs (the
    # dense 472 x 284 pair of the two components and each one's 2 x 2 carrier
    # diagonals, where the dense G would be 756 square), S (284 square) and X,
    # the 456 pivot rows' entries in the rest (222 lines with two points or more
    # give two rows, 12 with one point one), which the Gram of X reads whole,
    # plus one of that Gram's row tiles for the steps' copies and numpy's
    # buffers; a second S-sized array breaks it
    model = rank_model()
    points = np.bincount(model.blocks[0].rows, minlength=model.blocks[0].length)
    rest, pivots = 756 - 2 * 236, 2 * np.count_nonzero(points > 1) + np.count_nonzero(points == 1)
    assert pivots == 456
    tracemalloc.start()
    try:
        assert gamma_rank(model)[0] == 708
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stored = sum(pairs.nbytes for pairs in model._line_gram.values())
    assert stored == (472 * 284 + 4 * 236 + 4 * 142) * 8
    held = rest * rest + pivots * rest + _TILE_ROWS * rest
    assert peak <= stored + held * 8


@pytest.mark.parametrize("real_valued", [False, True], ids=["complex", "real"])
def test_one_component_rank_allocates_less_than_one_line_gram(real_valued):
    # a (3, 2) component at 64 x 64, 316 samples per carrier, 314 of them reached:
    # its lines are pivots read from the stored diagonals, and nothing is left to
    # gather or eigensolve, so the rank's peak stays below one sum(rows)-square
    # array of the model's dtype
    model = assemble_gamma([comp(3, 2, 0.9, AR1(1.0, 0.5))], LatticeRect(64, 64),
                           real_valued=real_valued)
    width = line_count(model)
    assert width == (2 if real_valued else 1) * 316
    tracemalloc.start()
    try:
        assert gamma_rank(model)[0] == predict_rank(model.components, model.rect,
                                                    real_valued=real_valued).formula_value
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < width * width * np.dtype(model.dtype).itemsize


# --- dependent / independent point sets ---------------------------------------

def dependent_points(comps, rect):
    """The dependent block's points, n-major, from its two ranges."""
    n_range, m_range = dependent_point_set(comps, rect)
    return [(n, m) for n in n_range for m in m_range]


def independent_points(comps, rect):
    """The complement of the dependent block; its factor columns span everything."""
    return set(np.ndindex(rect.N, rect.M)) - set(dependent_points(comps, rect))


def test_vertical_dependent_block():
    rect = LatticeRect(5, 4)
    comps = comps_for([(0, 1)])
    # all rows except the last one
    assert dependent_point_set(comps, rect) == (range(4), range(4))
    indep = independent_points(comps, rect)
    assert indep == {(4, m) for m in range(4)}


def test_independent_set_cardinality_matches_formula():
    rect = LatticeRect(15, 15)
    for slopes in ([(3, 2)], [(3, 2), (2, 1)], [(3, 2), (2, -1)], [(3, 2), (2, 1), (1, 3)]):
        comps = comps_for(slopes)
        indep = independent_points(comps, rect)
        assert len(indep) == predict_rank(comps, rect).formula_value


def test_independent_set_spans_negative_b_margin():
    rect = LatticeRect(8, 8)
    comps = comps_for([(2, -1)])
    dep = set(dependent_points(comps, rect))
    # negative b shifts walk n downward, so the dependent block starts at n=1
    assert (0, 2) not in dep
    assert (1, 2) in dep
    assert all(m >= 2 for (_, m) in dep)


def test_independent_columns_full_rank_and_absorbing():
    rect = LatticeRect(9, 9)
    comps = comps_for([(2, 1), (1, -1)])
    model = assemble_gamma(comps, rect)
    indep = sorted(independent_points(comps, rect))
    column = lambda p: model.stacked[:, p[0] * rect.M + p[1]]
    cols = np.stack([column(p) for p in indep], axis=1)
    r, _ = numerical_rank(cols)
    assert r == len(indep) == predict_rank(comps, rect).formula_value
    # any dependent column falls inside the span: rank stays put
    for p in dependent_points(comps, rect)[:5]:
        widened = np.hstack([cols, column(p)[:, None]])
        r2, _ = numerical_rank(widened)
        assert r2 == r


def test_point_sets_require_interior_regime():
    rect = LatticeRect(3, 3)
    comps = comps_for([(1, 1), (1, 2), (1, -1)])  # sum|a| = 3 >= M
    with pytest.raises(ValueError):
        dependent_point_set(comps, rect)


# --- certificates ------------------------------------------------------------

def test_trivial_certificate_is_identity():
    rect = LatticeRect(6, 6)
    comps = comps_for([(2, 1), (1, 1)])
    cert = DependencyCertificate((3, 3), (((3, 3), 1.0 + 0.0j),))
    model = assemble_gamma(comps, rect)
    assert verify_certificate(cert, model) == 0.0


def test_single_vertical_certificate_explicit_phase():
    # one (0, 1) component: column (0, m) equals column (1, m) * exp(1j*omega)
    omega = 0.8
    rect = LatticeRect(4, 4)
    comps = [comp(0, 1, omega, WHITE(1.0))]
    cert = make_certificate((0, 2), comps, rect)
    assert len(cert.terms) == 1
    point, coeff = cert.terms[0]
    assert point == (1, 2)
    assert coeff == pytest.approx(np.exp(1j * omega), abs=1e-15)
    model = assemble_gamma(comps, rect)
    assert verify_certificate(cert, model) <= 1e-14


def test_pair_certificate_term_structure():
    rect = LatticeRect(15, 15)
    comps = comps_for([(3, 2), (2, 1)])
    n, m = 5, 8
    cert = make_certificate((n, m), comps, rect)
    points = {p for p, _ in cert.terms}
    assert points == {(n + 2, m - 3), (n + 1, m - 2), (n + 3, m - 5)}
    coeffs = dict(cert.terms)
    # single-component shifts carry +, the joint shift carries -
    assert coeffs[(n + 2, m - 3)] == pytest.approx(np.exp(-1j * comps[0].omega), abs=1e-15)
    assert coeffs[(n + 1, m - 2)] == pytest.approx(np.exp(-1j * comps[1].omega), abs=1e-15)
    assert coeffs[(n + 3, m - 5)] == pytest.approx(
        -np.exp(-1j * (comps[0].omega + comps[1].omega)), abs=1e-15
    )


def test_triple_certificate_has_seven_terms_with_alternating_signs():
    rect = LatticeRect(15, 15)
    comps = comps_for([(3, 2), (2, 1), (1, 3)])
    target = (2, 9)
    cert = make_certificate(target, comps, rect)
    assert len(cert.terms) == 7
    assert np.allclose([abs(c) for _, c in cert.terms], 1.0)
    # reconstruct each subset term: sign alternates with subset size
    coeffs = dict(cert.terms)
    for size in (1, 2, 3):
        for subset in itertools.combinations(range(3), size):
            n, m = target
            angle = 0.0
            for i in subset:
                n += comps[i].slope.b
                m -= comps[i].slope.a
                angle -= comps[i].slope.sigma * comps[i].omega
            want = (-1.0) ** (size - 1) * np.exp(1j * angle)
            assert coeffs[(n, m)] == pytest.approx(want, abs=1e-14)
    model = assemble_gamma(comps, rect)
    assert verify_certificate(cert, model) <= 1e-12


def test_same_slope_pair_merges_terms():
    # two components on one slope with different frequencies: the two
    # singleton shifts land on the same lattice point and merge
    rect = LatticeRect(6, 4)
    comps = [comp(0, 1, 0.5, WHITE(1.0)), comp(0, 1, 1.9, WHITE(1.0))]
    cert = make_certificate((0, 2), comps, rect)
    points = [p for p, _ in cert.terms]
    assert points == [(1, 2), (2, 2)]
    coeffs = dict(cert.terms)
    assert coeffs[(1, 2)] == pytest.approx(np.exp(1j * 0.5) + np.exp(1j * 1.9), abs=1e-15)
    assert coeffs[(2, 2)] == pytest.approx(-np.exp(1j * (0.5 + 1.9)), abs=1e-15)
    model = assemble_gamma(comps, rect)
    assert verify_certificate(cert, model) <= 1e-13


def test_certificate_rejects_escaping_shift():
    rect = LatticeRect(5, 5)
    comps = comps_for([(2, 1)])
    with pytest.raises(ValueError):
        make_certificate((0, 0), comps, rect)  # (1, -2) leaves the lattice
    assert not shift_tuple_admissible((0, 0), comps, rect)


def test_certificate_validates_all_subsets():
    # joint shift must stay inside even when each single shift does
    rect = LatticeRect(4, 6)
    comps = comps_for([(1, 1), (1, 2)])
    target = (1, 5)
    assert shift_tuple_admissible(target, comps[:1], rect)
    assert shift_tuple_admissible(target, comps[1:], rect)
    assert not shift_tuple_admissible(target, comps, rect)  # joint lands at n=4


def test_find_certificate_covers_dependent_block():
    rect = LatticeRect(9, 9)
    comps = comps_for([(3, 2), (2, -1)])
    model = assemble_gamma(comps, rect)
    for point in dependent_points(comps, rect):
        cert = find_certificate(point, comps, rect)
        assert cert is not None
        assert point not in dict(cert.terms)
        assert verify_certificate(cert, model) <= 1e-10


def test_find_certificate_absent_on_isolated_lines():
    # the all-ones shift leaves the lattice exactly off the dependent block;
    # the lattice corners of (1, 1) have no other point on their line at all
    rect = LatticeRect(4, 4)
    comps = comps_for([(1, 1)])
    assert find_certificate((0, 0), comps, rect) is None
    assert find_certificate((3, 3), comps, rect) is None
    dependent = set(dependent_points(comps, rect))
    for point in np.ndindex(rect.N, rect.M):
        assert (find_certificate(point, comps, rect) is None) == (point not in dependent)


def test_verify_reads_real_model_blocks():
    # cos and sin carriers are combinations of the conjugate pair's carriers,
    # so the pair set's certificate holds on them and the components' does not
    rect = LatticeRect(9, 9)
    comps = comps_for([(1, 1), (2, -1)])
    real_model = assemble_gamma(comps, rect, real_valued=True)
    pairs = conjugate_pairs(comps)
    targets = np.array(dependent_points(pairs, rect))
    assert len(targets) == rect.size - predict_rank(comps, rect, real_valued=True).formula_value
    cert = find_certificate(tuple(targets[0].tolist()), pairs, rect)
    assert verify_certificate(cert, real_model, at=targets).max() <= 1e-12
    own = find_certificate(dependent_points(comps, rect)[0], comps, rect)
    assert verify_certificate(own, real_model) > 1e-3


def test_find_certificate_makes_one_admissibility_check(monkeypatch):
    # no search: off the dependent block the answer is None after one check
    import evarank.rank

    calls = []
    original = evarank.rank.shift_tuple_admissible

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(evarank.rank, "shift_tuple_admissible", counted)
    rect = LatticeRect(48, 48)
    comps = comps_for([(3, 2), (2, -1), (1, 3), (0, 1)])
    assert find_certificate((0, 0), comps, rect) is None
    assert len(calls) == 1


# Every coprime (a, b) with a <= 3 and |b| <= 3: both b signs and the vertical slope.
CERT_SLOPES = [(a, b) for a in range(4) for b in range(-3, 4)
               if math.gcd(a, b) == 1 and (a > 0 or b == 1)]


@settings(deadline=None, max_examples=100)
@given(
    n=st.integers(min_value=1, max_value=24),
    m=st.integers(min_value=1, max_value=24),
    picks=st.lists(
        st.tuples(st.sampled_from(CERT_SLOPES), st.floats(0.0, 6.28)), min_size=1, max_size=4
    ),
)
def test_canonical_certificates_cover_every_interior_config(n, m, picks):
    rect = LatticeRect(n, m)
    comps = [comp(a, b, omega, AR1(1.0, 0.5)) for (a, b), omega in picks]
    assume(len({c.triple() for c in comps}) == len(comps))
    prediction = predict_rank(comps, rect)
    assume(prediction.regime_flag is not RegimeFlag.OUTSIDE)
    model = assemble_gamma(comps, rect)
    points = dependent_points(comps, rect)
    assert rect.size - len(points) == prediction.formula_value
    for point in points:
        cert = find_certificate(point, comps, rect)
        assert cert is not None
        assert verify_certificate(cert, model) <= 1e-10
        # the induction on rank: every term comes strictly earlier in the (m, -n) order
        assert all((q[1], -q[0]) < (point[1], -point[0]) for q, _ in cert.terms)
    # and the converse, which verify relies on: no certificate off the block
    for point in independent_points(comps, rect):
        assert find_certificate(point, comps, rect) is None


def subset_loop_admissible(target, comps, rect):
    """The reference admissibility: every nonempty subset's jointly shifted point."""
    for size in range(1, len(comps) + 1):
        for subset in itertools.combinations(range(len(comps)), size):
            nn, mm = target
            for i in subset:
                nn += comps[i].slope.b
                mm -= comps[i].slope.a
            if not rect.contains(nn, mm):
                return False
    return True


def dict_certificate_terms(target, comps):
    """The reference certificate terms: each subset's term at its jointly
    shifted point, merged in a dict in subset order, sorted by point, with
    the zero sums dropped."""
    q = len(comps)
    merged = {}
    for size in range(1, q + 1):
        sign = (-1.0) ** (size - 1)
        for subset in itertools.combinations(range(q), size):
            n, m = target
            for i in subset:
                n += comps[i].slope.b
                m -= comps[i].slope.a
            angle = -sum(comps[i].slope.sigma * comps[i].omega for i in subset)
            coeff = sign * complex(math.cos(angle), math.sin(angle))
            merged[(n, m)] = merged.get((n, m), 0.0 + 0.0j) + coeff
    return tuple((point, coeff) for point, coeff in sorted(merged.items()) if coeff != 0.0)


def assert_terms_match(got, want):
    """`got` sorted by point, and within 1e-12 * max(1, |want|) of `want` at
    every point of either, a missing point reading 0: a coefficient that sums
    to exactly 0 one way may read about 1e-16 the other."""
    points = [point for point, _ in got]
    assert points == sorted(set(points))
    got, want = dict(got), dict(want)
    for point in got.keys() | want.keys():
        expected = want.get(point, 0j)
        assert abs(got.get(point, 0j) - expected) <= 1e-12 * max(1.0, abs(expected)), point


@settings(deadline=None, max_examples=100)
@given(
    n=st.integers(min_value=1, max_value=14),
    m=st.integers(min_value=1, max_value=14),
    picks=st.lists(
        st.tuples(st.sampled_from(CERT_SLOPES), st.floats(0.0, 6.28)), min_size=1, max_size=5
    ),
)
@example(n=5, m=5, picks=[((1, 1), 0.9), ((1, -1), 1.6)])
def test_exhaustive_tuples_agree_with_admissibility(n, m, picks):
    # the box test against every subset, at every lattice point, and each
    # certificate against the dict-merged reference, to roundoff
    rect = LatticeRect(n, m)
    comps = [comp(a, b, omega, AR1(1.0, 0.5)) for (a, b), omega in picks]
    assume(len({c.triple() for c in comps}) == len(comps))
    points = list(np.ndindex(rect.N, rect.M))
    admissible = [subset_loop_admissible(p, comps, rect) for p in points]
    assert [shift_tuple_admissible(p, comps, rect) for p in points] == admissible
    model = assemble_gamma(comps, rect)
    for point, ok in zip(points, admissible):
        if not ok:
            with pytest.raises(ValueError, match="leaves the lattice"):
                make_certificate(point, comps, rect)
            continue
        cert = make_certificate(point, comps, rect)
        assert_terms_match(cert.terms, dict_certificate_terms(point, comps))
        assert verify_certificate(cert, model) <= 1e-12


@settings(deadline=None, max_examples=60)
@given(
    one_slope=st.booleans(),
    picks=st.lists(
        st.tuples(st.sampled_from(CERT_SLOPES), st.floats(0.0, 6.28)), min_size=6, max_size=10
    ),
)
def test_product_certificate_matches_subset_sums_under_heavy_merging(one_slope, picks):
    # 6 to 10 components, all on the first pick's slope or on mixed slopes: up to
    # 2^10 subsets merge onto few points, and the factor-by-factor expansion of
    # -prod (1 - t_i X^(b_i, -a_i)) still reads the subset sums to roundoff
    if one_slope:
        picks = [(picks[0][0], omega) for _, omega in picks]
    comps = [comp(a, b, omega) for (a, b), omega in picks]
    assume(len({c.triple() for c in comps}) == len(comps))
    # the smallest lattice whose corner target admits the certificate
    lo_n = sum(min(0, c.slope.b) for c in comps)
    hi_n = sum(max(0, c.slope.b) for c in comps)
    sum_a = sum(c.slope.a for c in comps)
    rect = LatticeRect(hi_n - lo_n + 1, sum_a + 1)
    target = (-lo_n, sum_a)
    cert = make_certificate(target, comps, rect)
    assert_terms_match(cert.terms, dict_certificate_terms(target, comps))


def run_verb(payload: dict, verb: str = "verify", *flags: str) -> tuple[int, str, str]:
    """`evarank <verb>` on a config written to a temporary file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(payload))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([verb, "--config", str(path), *flags])
    return code, out.getvalue(), err.getvalue()


@settings(deadline=None, max_examples=100)
@given(
    n=st.integers(min_value=1, max_value=24),
    m=st.integers(min_value=1, max_value=24),
    picks=st.lists(
        st.tuples(st.sampled_from(CERT_SLOPES), st.floats(0.0, 6.28)), min_size=1, max_size=4
    ),
)
def test_real_certificates_cover_every_interior_config(n, m, picks):
    # verify --real audits the real blocks with the conjugate-pair set's certificate
    rect = LatticeRect(n, m)
    comps = [comp(a, b, omega, AR1(1.0, 0.5)) for (a, b), omega in picks]
    assume(len({c.triple() for c in comps}) == len(comps))
    prediction = predict_rank(comps, rect, real_valued=True)
    payload = {
        "rect": {"N": n, "M": m},
        "components": [{"a": a, "b": b, "omega": omega,
                        "process": {"kind": "ar1", "ar_coefficient": 0.5}}
                       for (a, b), omega in picks],
        "real_valued": True,
    }
    code, out, err = run_verb(payload)
    if prediction.trustworthy:
        assert code == 0, err
        report = json.loads(out)
        assert report["pass"] is True
        assert report["points_audited"] == rect.size - prediction.formula_value
        assert report["max_residual"] <= 1e-10
        # the converse, which verify relies on: no certificate off the block
        pairs = conjugate_pairs(comps)
        for point in independent_points(pairs, rect):
            assert find_certificate(point, pairs, rect) is None
    elif rect.size > 1:  # a single column is audited as an empty block
        assert code == 3
        assert json.loads(err)["error"] == "regime"


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(min_value=1, max_value=24),
    m=st.integers(min_value=1, max_value=24),
    picks=st.lists(
        st.tuples(st.sampled_from(CERT_SLOPES), st.floats(0.0, 6.28)), min_size=1, max_size=4
    ),
)
def test_translated_certificates_match_per_point_certificates(n, m, picks):
    # the batch over every lattice point, against one certificate per point
    rect = LatticeRect(n, m)
    comps = [comp(a, b, omega, AR1(1.0, 0.5)) for (a, b), omega in picks]
    assume(len({c.triple() for c in comps}) == len(comps))
    model = assemble_gamma(comps, rect)
    points = list(np.ndindex(rect.N, rect.M))
    targets = np.array(points)
    certs = [find_certificate(p, comps, rect) for p in points]
    admissible = np.array([shift_tuple_admissible(p, comps, rect) for p in points])
    assert admissible.tolist() == [cert is not None for cert in certs]
    identity = DependencyCertificate(points[-1], ((points[-1], 1.0 + 0.0j),))
    assert verify_certificate(identity, model, at=targets).tolist() == [0.0] * len(points)
    if not admissible.any():
        return
    template = certs[int(np.argmax(admissible))]
    batch = verify_certificate(template, model, at=targets[admissible])
    single = [verify_certificate(cert, model) for cert in certs if cert is not None]
    assert batch.tolist() == single


def bincount_residual(cert, model):
    """A certificate's residual at its own target, summed the reference way:
    per block and carrier, one bincount of the terms over their rows (target
    last), then the squared row sums in ascending row order.  Every square
    is x * x, as numpy's array `** 2` computes it: a float scalar's `** 2`
    calls libm pow, which may miss the correctly rounded square by an ulp."""
    points = [p for p, _ in cert.terms] + [cert.target]
    coeffs = np.array([c for _, c in cert.terms] + [-1.0], dtype=complex)
    index = np.ravel_multi_index(np.array(points).T, (model.rect.N, model.rect.M))
    gap_sq = head_sq = 0.0
    for block in model.blocks:
        rows = block.rows[index]
        for w in block.carriers:
            terms = coeffs * w[index]
            gap = np.bincount(rows, terms.real) ** 2 + np.bincount(rows, terms.imag) ** 2
            gap_sq += sum(gap.tolist())
            head = w[index[-1]]
            head_sq += head.real * head.real + head.imag * head.imag
    return math.sqrt(gap_sq) / math.sqrt(head_sq)


@settings(deadline=None, max_examples=40)
@given(
    n=st.integers(min_value=1, max_value=24),
    m=st.integers(min_value=1, max_value=24),
    picks=st.lists(
        st.tuples(st.sampled_from(CERT_SLOPES), st.floats(0.0, 6.28)), min_size=1, max_size=4
    ),
)
# a config where adding the row groups in descending order changes a last bit
@example(n=22, m=22, picks=[((2, 3), 5.515019757146802), ((1, 1), 2.700380292739304),
                            ((1, 2), 1.5762752690546813), ((3, -2), 3.9540273082364785)])
# a config whose target carrier has an imaginary part 0.6100659824694372, where
# pow(x, 2) = 0.37218050296639965 rounds away from x * x = 0.3721805029663997
@example(n=5, m=5, picks=[((0, 1), 0.0), ((1, -3), 0.16403596564728853)])
def test_grouped_residuals_keep_the_bincount_summation_order(n, m, picks):
    # the row groups add in the order a per-point bincount adds, bit for bit
    rect = LatticeRect(n, m)
    comps = [comp(a, b, omega, AR1(1.0, 0.5)) for (a, b), omega in picks]
    assume(len({c.triple() for c in comps}) == len(comps))
    assume(predict_rank(comps, rect).regime_flag is not RegimeFlag.OUTSIDE)
    model = assemble_gamma(comps, rect)
    points = dependent_points(comps, rect)
    certs = [find_certificate(p, comps, rect) for p in points]
    batch = verify_certificate(certs[0], model, at=points)
    assert batch.tolist() == [bincount_residual(cert, model) for cert in certs]


def test_translated_certificate_must_stay_in_the_lattice():
    rect = LatticeRect(8, 8)
    comps = comps_for([(3, 2), (2, -1)])
    model = assemble_gamma(comps, rect)
    cert = find_certificate((3, 7), comps, rect)
    with pytest.raises(ValueError, match="leaves"):
        verify_certificate(cert, model, at=[(3, 7), (0, 0)])


def test_translate_check_refuses_exactly_the_points_a_term_leaves_from():
    # the box rule, one point at a time, against every term of every translate
    rect = LatticeRect(8, 8)
    comps = comps_for([(3, 2), (2, -1)])
    model = assemble_gamma(comps, rect)
    cert = find_certificate((3, 7), comps, rect)
    offsets = [(p[0] - 3, p[1] - 7) for p, _ in cert.terms] + [(0, 0)]
    for point in np.ndindex(rect.N, rect.M):
        inside = all(rect.contains(point[0] + dn, point[1] + dm) for dn, dm in offsets)
        if inside:
            assert verify_certificate(cert, model, at=[point])[0] <= 1e-12
        else:
            with pytest.raises(ValueError, match="a certificate term leaves the 8x8 lattice"):
                verify_certificate(cert, model, at=[point])


def per_term_residuals(cert, model, at=None):
    """The audit with one carrier gather per term, as verify_certificate read
    it before it gathered each carrier once: the same groups, the same
    summation order, the same float operations."""
    rect = model.rect
    targets = np.asarray([cert.target] if at is None else at, dtype=np.int64).reshape(-1, 2)
    offsets = np.array([p for p, _ in cert.terms] + [cert.target], dtype=np.int64) - cert.target
    coeffs = np.array([c for _, c in cert.terms] + [-1.0], dtype=complex)
    base = targets[:, 0] * rect.M + targets[:, 1]
    steps = offsets[:, 0] * rect.M + offsets[:, 1]
    gap_sq = np.zeros(len(targets))
    head_sq = np.zeros(len(targets))
    for component, block in zip(model.components, model.blocks):
        moves = (offsets @ (component.slope.a, component.slope.b)).tolist()
        groups = [[k for k, moved in enumerate(moves) if moved == move]
                  for move in sorted(set(moves))]
        for w in block.carriers:
            sums = (sum(coeffs[k] * w[base + steps[k]] for k in group) for group in groups)
            gap_sq += sum(total.real ** 2 + total.imag ** 2 for total in sums)
            head = w[base]
            head_sq += head.real ** 2 + head.imag ** 2
    return np.sqrt(gap_sq) / np.sqrt(head_sq)


def assert_audit_is_the_per_term_loop(comps, rect, real_valued):
    """The whole block in one call, and the one-point call at its first and
    last points, against per_term_residuals, bit for bit."""
    model = assemble_gamma(comps, rect, real_valued=real_valued)
    pairs = conjugate_pairs(comps) if real_valued else comps
    points = dependent_points(pairs, rect)
    cert = find_certificate(points[0], pairs, rect)
    batch = verify_certificate(cert, model, at=points)
    assert np.array_equal(batch, per_term_residuals(cert, model, at=points))
    for point in (points[0], points[-1]):
        own = find_certificate(point, pairs, rect)
        single = verify_certificate(own, model)
        assert np.array_equal(single, per_term_residuals(own, model)[0])
        assert isinstance(single, float)


AUDIT_SLOPES = ((3, 2), (2, 1), (1, 3), (1, -2))


@pytest.mark.parametrize("real_valued", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("seed", range(16))
def test_one_gather_audit_is_the_per_term_loop_on_audit_configs(seed, real_valued):
    # the audit benchmark's configs: its four slopes at 32 x 32, AR(1) and white
    # processes alternating, frequencies away from 0 and pi
    rng = random.Random(seed)
    comps = []
    for i, (a, b) in enumerate(AUDIT_SLOPES):
        omega = rng.choice((rng.uniform(0.5, 2.6), rng.uniform(3.7, 5.8)))
        variance = rng.uniform(0.5, 2.0)
        process = AR1(variance, rng.uniform(0.3, 0.7)) if i % 2 == 0 else WHITE(variance)
        comps.append(comp(a, b, omega, process))
    assert_audit_is_the_per_term_loop(comps, LatticeRect(32, 32), real_valued)


@pytest.mark.parametrize("entries", [1, 100, 1 << 30], ids=["point", "ragged", "whole"])
def test_chunked_audit_is_the_per_term_loop(monkeypatch, entries):
    # points are gathered in chunks of entries // terms, at least one: one point per
    # chunk; 25 points (4 terms) over 88, the last chunk short, and 6 points (16
    # terms); and the whole block in one chunk
    import evarank.rank

    monkeypatch.setattr(evarank.rank, "_AUDIT_CHUNK_ENTRIES", entries)
    rect = LatticeRect(13, 11)
    for real_valued in (False, True):
        assert_audit_is_the_per_term_loop(comps_for([(1, 1), (2, -1)]), rect, real_valued)
    assert_audit_is_the_per_term_loop(comps_for(AUDIT_SLOPES), LatticeRect(17, 19), False)


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(min_value=2, max_value=24),
    m=st.integers(min_value=2, max_value=24),
    picks=st.lists(
        st.tuples(st.sampled_from(CERT_SLOPES), st.floats(0.0, 6.28)), min_size=1, max_size=4
    ),
)
def test_one_gather_audit_is_the_per_term_loop_on_real_configs(n, m, picks):
    # verify --real's configs: the real blocks read with the conjugate-pair set's certificate
    rect = LatticeRect(n, m)
    comps = [comp(a, b, omega, AR1(1.0, 0.5)) for (a, b), omega in picks]
    assume(len({c.triple() for c in comps}) == len(comps))
    assume(predict_rank(comps, rect, real_valued=True).trustworthy)
    assume(dependent_points(conjugate_pairs(comps), rect))
    assert_audit_is_the_per_term_loop(comps, rect, real_valued=True)
