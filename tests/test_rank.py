import contextlib
import io
import itertools
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from evarank.cli import default_grid_cells, main
from evarank.covariance import assemble_gamma, sample_covariance
from evarank.fields import (
    EvanescentComponent,
    ModulatingProcessSpec,
    ProcessKind,
    conjugate_pairs,
    synthesize_batch,
)
from evarank.lattice import LatticeRect, make_slope_pair
from evarank.rank import (
    RegimeFlag,
    dependent_point_set,
    factor_rank,
    find_certificate,
    gamma_rank,
    make_certificate,
    numerical_rank,
    predict_rank,
    shift_tuple_admissible,
    spectral_gap_ratio,
    verify_certificate,
)

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

@pytest.mark.parametrize("real_valued", [False, True], ids=["complex", "real"])
def test_factor_rank_matches_dense_oracle_on_stock_grid(real_valued):
    for rect, comps in default_grid_cells():
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


# --- Gamma's rank from the whitened line Gram against the dense oracle ------

def line_count(model):
    return sum(block.length * len(block.carriers) for block in model.blocks)


@pytest.mark.parametrize("real_valued", [False, True], ids=["complex", "real"])
def test_gamma_rank_matches_dense_oracle_on_stock_grid(real_valued):
    sides = {"wide": 0, "tall": 0}
    for rect, comps in default_grid_cells():
        model = assemble_gamma(comps, rect, real_valued=real_valued)
        dense_rank, dense = numerical_rank(model.gamma)
        rank, spectrum = gamma_rank(model)
        assert rank == dense_rank, (rect, [c.triple() for c in comps])
        assert spectrum.shape == dense.shape == (rect.size,)
        np.testing.assert_allclose(spectrum[:rank], dense[:rank], rtol=1e-9, atol=0)
        # the short side: L^T G L on sum(rows) lines, or Gamma on a taller factor
        side = "tall" if line_count(model) > rect.size else "wide"
        assert model.short_gram().shape[0] == min(line_count(model), rect.size)
        sides[side] += 1
    assert sides["wide"] > 0
    # the real model's 4 x N cells with sum|a| or sum|b| of 3 carry more lines than points
    assert (sides["tall"] > 0) == real_valued


@pytest.mark.parametrize("real_valued", [False, True], ids=["complex", "real"])
def test_gamma_rank_spectrum_matches_the_factor_gram(real_valued):
    # K = blockdiag(L^T) G blockdiag(L) is F F^H, entry by entry up to roundoff
    rect = LatticeRect(30, 30)
    comps = [comp(3, 2, 0.9, AR1(1.3, 0.6)), comp(2, -1, 1.7, WHITE(0.7)),
             comp(3, 2, 2.9, AR1(0.8, -0.4))]
    model = assemble_gamma(comps, rect, real_valued=real_valued)
    factor = model.whitened_factor()
    gram = model.short_gram()
    assert gram.shape[0] == factor.shape[0] == line_count(model) < rect.size
    assert np.array_equal(gram, gram.conj().T)
    expected = factor @ factor.conj().T
    assert np.max(np.abs(gram - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_gamma_rank_spectrum_past_the_factor_rows_is_zero():
    rect = LatticeRect(15, 15)
    model = assemble_gamma(comps_for([(2, 1)]), rect)
    rank, spectrum = gamma_rank(model)
    assert rank == line_count(model) == 15 * 2 + 15 * 1 - 2  # every process sample is referenced
    assert np.all(spectrum[rank:] == 0.0)
    assert spectral_gap_ratio(spectrum, rank) == math.inf


@pytest.mark.parametrize("real_valued", [False, True], ids=["complex", "real"])
def test_gamma_rank_of_tall_factor_and_empty_model(real_valued):
    # more lines than lattice points: the spectrum is read from Gamma itself
    rect = LatticeRect(4, 4)
    model = assemble_gamma(comps_for([(3, 2), (2, 1)]), rect, real_valued=real_valued)
    assert line_count(model) > rect.size
    assert model.short_gram() is model.gamma
    assert gamma_rank(model)[0] == numerical_rank(model.gamma)[0] == rect.size
    empty = assemble_gamma([], rect, real_valued=real_valued)
    assert empty.short_gram().shape == (0, 0)
    rank, spectrum = gamma_rank(empty)
    assert rank == 0
    assert np.array_equal(spectrum, np.zeros(rect.size))


@settings(max_examples=60, deadline=None)
@given(**INTERIOR_CONFIGS)
def test_gamma_rank_equals_dense_rank_and_formula_on_interior_configs(
    n, m, slopes, ars, real_valued
):
    model, pred = interior_model(n, m, slopes, ars, real_valued)
    assert gamma_rank(model)[0] == numerical_rank(model.gamma)[0] == pred.formula_value


# --- dependent / independent point sets ---------------------------------------

def dependent_points(comps, rect):
    """The dependent block's points, n-major, from its two ranges."""
    n_range, m_range = dependent_point_set(comps, rect)
    return [(n, m) for n in n_range for m in m_range]


def independent_points(comps, rect):
    """The complement of the dependent block; its factor columns span everything."""
    return set(rect.points()) - set(dependent_points(comps, rect))


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
    column = lambda p: model.stacked[:, rect.vec_index(*p)]
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
    cert = make_certificate((3, 3), (0, 0), comps, rect)
    assert cert.terms == (((3, 3), 1.0 + 0.0j),)
    model = assemble_gamma(comps, rect)
    assert verify_certificate(cert, model) == 0.0


def test_single_vertical_certificate_explicit_phase():
    # one (0, 1) component: column (0, m) equals column (1, m) * exp(1j*omega)
    omega = 0.8
    rect = LatticeRect(4, 4)
    comps = [comp(0, 1, omega, WHITE(1.0))]
    cert = make_certificate((0, 2), (1,), comps, rect)
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
    cert = make_certificate((n, m), (1, 1), comps, rect)
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
    cert = make_certificate(target, (1, 1, 1), comps, rect)
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
    cert = make_certificate((0, 2), (1, 1), comps, rect)
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
        make_certificate((0, 0), (1,), comps, rect)  # (1, -2) leaves the lattice
    assert not shift_tuple_admissible((0, 0), (1,), comps, rect)


def test_certificate_validates_all_subsets():
    # joint shift must stay inside even when each single shift does
    rect = LatticeRect(4, 6)
    comps = comps_for([(1, 1), (1, 2)])
    target = (1, 5)
    assert shift_tuple_admissible(target, (1, 0), comps, rect)
    assert shift_tuple_admissible(target, (0, 1), comps, rect)
    assert not shift_tuple_admissible(target, (1, 1), comps, rect)  # joint lands at n=4


def test_find_certificate_covers_dependent_block():
    rect = LatticeRect(9, 9)
    comps = comps_for([(3, 2), (2, -1)])
    model = assemble_gamma(comps, rect)
    for point in dependent_points(comps, rect):
        cert = find_certificate(point, comps, rect)
        assert cert is not None
        assert cert.shifts == (1, 1)  # the canonical all-ones tuple
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
    for point in rect.points():
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
        calls.append(args[1])
        return original(*args)

    monkeypatch.setattr(evarank.rank, "shift_tuple_admissible", counted)
    rect = LatticeRect(48, 48)
    comps = comps_for([(3, 2), (2, -1), (1, 3), (0, 1)])
    assert find_certificate((0, 0), comps, rect) is None
    assert calls == [(1, 1, 1, 1)]


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


def subset_loop_admissible(target, shifts, comps, rect):
    """The reference admissibility: every nonempty subset's jointly shifted point."""
    for size in range(1, len(comps) + 1):
        for subset in itertools.combinations(range(len(comps)), size):
            nn, mm = target
            for i in subset:
                nn += shifts[i] * comps[i].slope.b
                mm -= shifts[i] * comps[i].slope.a
            if not rect.contains(nn, mm):
                return False
    return True


def dict_certificate_terms(target, shifts, comps):
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
                n += shifts[i] * comps[i].slope.b
                m -= shifts[i] * comps[i].slope.a
            angle = -sum(comps[i].slope.sigma * comps[i].omega * shifts[i] for i in subset)
            coeff = sign * complex(math.cos(angle), math.sin(angle))
            merged[(n, m)] = merged.get((n, m), 0.0 + 0.0j) + coeff
    return tuple((point, coeff) for point, coeff in sorted(merged.items()) if coeff != 0.0)


def term_bits(terms):
    return [(point, coeff.real.hex(), coeff.imag.hex()) for point, coeff in terms]


@settings(deadline=None, max_examples=100)
@given(
    n=st.integers(min_value=1, max_value=14),
    m=st.integers(min_value=1, max_value=14),
    picks=st.lists(
        st.tuples(st.sampled_from(CERT_SLOPES), st.floats(0.0, 6.28)), min_size=1, max_size=5
    ),
    shifts=st.lists(st.integers(min_value=-3, max_value=3), min_size=5, max_size=5),
)
@example(n=5, m=5, picks=[((1, 1), 0.9), ((1, -1), 1.6)], shifts=[1, 1, 0, 0, 0])
def test_exhaustive_tuples_agree_with_admissibility(n, m, picks, shifts):
    # the box test against every subset, at every lattice point, and each
    # certificate against the dict-merged reference, bit for bit
    rect = LatticeRect(n, m)
    comps = [comp(a, b, omega, AR1(1.0, 0.5)) for (a, b), omega in picks]
    assume(len({c.triple() for c in comps}) == len(comps))
    shifts = tuple(shifts[:len(comps)])
    points = list(rect.points())
    admissible = [subset_loop_admissible(p, shifts, comps, rect) for p in points]
    assert [shift_tuple_admissible(p, shifts, comps, rect) for p in points] == admissible
    assert shift_tuple_admissible(np.array(points), shifts, comps, rect).tolist() == admissible
    model = assemble_gamma(comps, rect)
    for point, ok in zip(points, admissible):
        if not ok:
            with pytest.raises(ValueError, match="leaves the lattice"):
                make_certificate(point, shifts, comps, rect)
            continue
        cert = make_certificate(point, shifts, comps, rect)
        assert term_bits(cert.terms) == term_bits(dict_certificate_terms(point, shifts, comps))
        assert verify_certificate(cert, model) <= 1e-12


def run_verify(payload: dict) -> tuple[int, str, str]:
    """`evarank verify` on a config written to a temporary file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(payload))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", "--config", str(path)])
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
    code, out, err = run_verify(payload)
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
    points = list(rect.points())
    targets = np.array(points)
    certs = [find_certificate(p, comps, rect) for p in points]
    admissible = shift_tuple_admissible(targets, (1,) * len(comps), comps, rect)
    assert admissible.tolist() == [cert is not None for cert in certs]
    zeros = make_certificate(points[-1], (0,) * len(comps), comps, rect)
    assert verify_certificate(zeros, model, at=targets).tolist() == [0.0] * len(points)
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
    index = [model.rect.vec_index(*p) for p in points]
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
