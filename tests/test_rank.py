import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from evarank.cli import default_grid_cells
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
    factor_rank,
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
    snapshots = synthesize_batch(
        comps_for([(1, 1), (2, -1)]), rect, trials, seed=5, real_valued=real_valued
    )
    dense_rank, dense = numerical_rank(sample_covariance(snapshots))
    rank, spectrum = factor_rank(snapshots.conj() / math.sqrt(trials))
    assert rank == dense_rank == min(trials, 56 if real_valued else 34)
    assert spectrum.shape == dense.shape == (rect.size,)
    np.testing.assert_allclose(spectrum[:rank], dense[:rank], rtol=1e-9, atol=0)


_SLOPES = [(0, 1), (1, 0), (1, 1), (1, -1), (1, 2), (2, 1), (2, -1), (1, -2), (3, 2), (3, -1)]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 12),
    m=st.integers(2, 12),
    slopes=st.lists(st.sampled_from(_SLOPES), min_size=1, max_size=3),
    ars=st.lists(st.floats(-0.7, 0.7), min_size=3, max_size=3),
    real_valued=st.booleans(),
)
def test_factor_rank_equals_dense_rank_and_formula_on_interior_configs(
    n, m, slopes, ars, real_valued
):
    # well separated frequencies, away from the real model's degenerate 0 and pi
    comps = [
        comp(a, b, 0.5 + 1.1 * i, AR1(1.0 + i, ar))
        for i, ((a, b), ar) in enumerate(zip(slopes, ars))
    ]
    rect = LatticeRect(n, m)
    pred = predict_rank(comps, rect, real_valued=real_valued)
    assume(pred.regime_flag is RegimeFlag.INTERIOR)
    model = assemble_gamma(comps, rect, real_valued=real_valued)
    rank, _ = factor_rank(model.whitened_factor())
    assert rank == numerical_rank(model.gamma)[0] == pred.formula_value


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
    column = lambda p: model.stacked[:, rect.vec_index(*p)]
    cols = np.stack([column(p) for p in indep], axis=1)
    r, _ = numerical_rank(cols)
    assert r == len(indep) == predict_rank(comps, rect).formula_value
    # any dependent column falls inside the span: rank stays put
    for p in dependent_point_set(comps, rect)[:5]:
        widened = np.hstack([cols, column(p)[:, None]])
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
    dependent = set(dependent_point_set(comps, rect))
    for point in rect.points():
        assert (find_certificate(point, comps, rect) is None) == (point not in dependent)


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
    points = dependent_point_set(comps, rect)
    assert rect.size - len(points) == prediction.formula_value
    for point in points:
        cert = find_certificate(point, comps, rect)
        assert cert is not None
        assert verify_certificate(cert, model) <= 1e-10
        # the induction on rank: every term comes strictly earlier in the (m, -n) order
        assert all((q[1], -q[0]) < (point[1], -point[0]) for q, _ in cert.terms)


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
    np.testing.assert_allclose(batch, single, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("per_chunk", [1, 7])
def test_chunking_leaves_residuals_bit_identical(monkeypatch, per_chunk):
    # 7 points per chunk does not divide the 600 points
    import evarank.rank

    rect = LatticeRect(32, 32)
    comps = comps_for([(3, 2), (2, 1), (1, 3), (1, -2)])
    model = assemble_gamma(comps, rect)
    points = dependent_point_set(comps, rect)
    assert len(points) == 600
    cert = find_certificate(points[0], comps, rect)
    whole = verify_certificate(cert, model, at=points)
    pairs = len(cert.terms) + 1  # the terms and the target
    monkeypatch.setattr(evarank.rank, "_CHUNK_PAIRS", per_chunk * pairs + pairs - 1)
    chunked = verify_certificate(cert, model, at=points)
    assert np.array_equal(chunked, whole)
    assert np.all(whole <= 1e-10)


def test_translated_certificate_must_stay_in_the_lattice():
    rect = LatticeRect(8, 8)
    comps = comps_for([(3, 2), (2, -1)])
    model = assemble_gamma(comps, rect)
    cert = find_certificate((3, 7), comps, rect)
    with pytest.raises(ValueError, match="leaves"):
        verify_certificate(cert, model, at=[(3, 7), (0, 0)])
