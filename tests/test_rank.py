import itertools
import math

import numpy as np
import pytest

from evarank.covariance import assemble_gamma
from evarank.fields import EvanescentComponent, ModulatingProcessSpec, ProcessKind
from evarank.lattice import LatticeRect, make_slope_pair
from evarank.rank import (
    RegimeFlag,
    dependent_point_set,
    find_certificate,
    independent_point_set,
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
        assert not pred.clamped


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


# --- dependent / independent point sets ---------------------------------------

def test_vertical_dependent_block():
    rect = LatticeRect(5, 4)
    comps = comps_for([(0, 1)])
    dep = dependent_point_set(comps, rect)
    # all rows except the last one
    assert set(dep) == {(n, m) for n in range(4) for m in range(4)}
    indep = independent_point_set(comps, rect)
    assert indep == {(4, m) for m in range(4)}


def test_independent_set_cardinality_matches_formula():
    rect = LatticeRect(15, 15)
    for slopes in ([(3, 2)], [(3, 2), (2, 1)], [(3, 2), (2, -1)], [(3, 2), (2, 1), (1, 3)]):
        comps = comps_for(slopes)
        indep = independent_point_set(comps, rect)
        assert len(indep) == predict_rank(comps, rect).formula_value


def test_independent_set_spans_negative_b_margin():
    rect = LatticeRect(8, 8)
    comps = comps_for([(2, -1)])
    dep = set(dependent_point_set(comps, rect))
    # negative b shifts walk n downward, so the dependent block starts at n=1
    assert (0, 2) not in dep
    assert (1, 2) in dep
    assert all(m >= 2 for (_, m) in dep)


def test_independent_columns_full_rank_and_absorbing():
    rect = LatticeRect(9, 9)
    comps = comps_for([(2, 1), (1, -1)])
    model = assemble_gamma(comps, rect)
    indep = sorted(independent_point_set(comps, rect))
    cols = np.stack([model.column(*p) for p in indep], axis=1)
    r, _ = numerical_rank(cols)
    assert r == len(indep) == predict_rank(comps, rect).formula_value
    # any dependent column falls inside the span: rank stays put
    for p in dependent_point_set(comps, rect)[:5]:
        widened = np.hstack([cols, model.column(*p)[:, None]])
        r2, _ = numerical_rank(widened)
        assert r2 == r


def test_point_sets_require_interior_regime():
    rect = LatticeRect(3, 3)
    comps = comps_for([(1, 1), (1, 2), (1, -1)])  # sum|a| = 3 >= M
    with pytest.raises(ValueError):
        independent_point_set(comps, rect)
    with pytest.raises(ValueError):
        dependent_point_set(comps, rect)


# --- certificates ------------------------------------------------------------

def test_trivial_certificate_is_identity():
    rect = LatticeRect(6, 6)
    comps = comps_for([(2, 1), (1, 1)])
    cert = make_certificate((3, 3), (0, 0), comps, rect)
    assert cert.trivial
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
    for point in dependent_point_set(comps, rect):
        cert = find_certificate(point, comps, rect)
        assert cert is not None
        assert not cert.trivial
        assert verify_certificate(cert, model) <= 1e-10


def test_find_certificate_absent_on_isolated_lines():
    # a column can only be rewritten through other points on its own
    # shift lines; the lattice corners of (1, 1) have none
    rect = LatticeRect(4, 4)
    comps = comps_for([(1, 1)])
    assert find_certificate((0, 0), comps, rect) is None
    assert find_certificate((3, 3), comps, rect) is None
    # but an independent-set point sharing a line with a dependent one is
    # still proportional to it: independence is a property of the set
    cert = find_certificate((1, 0), comps, rect)
    assert cert is not None
    model = assemble_gamma(comps, rect)
    assert verify_certificate(cert, model) <= 1e-13


def test_exhaustive_tuples_agree_with_admissibility():
    # brute-force every tuple in a small window and cross-check the filter
    rect = LatticeRect(5, 5)
    comps = comps_for([(1, 1), (1, -1)])
    target = (2, 2)
    model = assemble_gamma(comps, rect)
    for shifts in itertools.product(range(-4, 5), repeat=2):
        ok = True
        for size in (1, 2):
            for subset in itertools.combinations(range(2), size):
                nn, mm = target
                for i in subset:
                    nn += shifts[i] * comps[i].slope.b
                    mm -= shifts[i] * comps[i].slope.a
                if not rect.contains(nn, mm):
                    ok = False
        assert shift_tuple_admissible(target, shifts, comps, rect) == ok
        if ok:
            cert = make_certificate(target, shifts, comps, rect)
            assert verify_certificate(cert, model) <= 1e-12


def test_verify_rejects_real_model():
    rect = LatticeRect(5, 5)
    comps = comps_for([(1, 1)])
    cert = make_certificate((2, 2), (0,), comps, rect)
    real_model = assemble_gamma(comps, rect, real_valued=True)
    with pytest.raises(ValueError):
        verify_certificate(cert, real_model)
