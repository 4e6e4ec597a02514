import errno
import math
import os
import struct
import tracemalloc
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evarank import covariance
from evarank.covariance import (
    _TILE_ROWS,
    CovarianceModel,
    _divide,
    _hermitian_gram,
    assemble_gamma,
    load_matrix_binary,
    sample_covariance,
    save_matrix_binary,
    save_matrix_csv,
)
from evarank.fields import (
    EvanescentComponent,
    FactorBlock,
    ModulatingProcessSpec,
    ProcessKind,
    draw_lines,
    lattice_map,
    modulating_indices,
    process_covariance,
    scatter_lines,
    synthesize_batch,
)
from evarank.lattice import LatticeRect, SlopePair, make_slope_pair

AR1 = lambda var, ar: ModulatingProcessSpec(ProcessKind.AR1, var, ar)
WHITE = lambda var: ModulatingProcessSpec(ProcessKind.WHITE, var, 0.0)


def comp(a, b, omega, process=None):
    return EvanescentComponent(make_slope_pair(a, b), omega, process or WHITE(1.0))


def _norm_parts(x: np.ndarray) -> tuple[float, float]:
    """(n, s) with ||x||_F = n * s, neither overflowed nor lost to underflow."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(x))
    if 1e-100 < norm < math.inf:
        # no partial sum of squares overflowed, and squares that underflowed are negligible
        return norm, 1.0
    # real division: a complex one by a subnormal scale overflows on its reciprocal
    parts = (x.real, x.imag) if np.iscomplexobj(x) else (x,)
    scale = max(float(np.max(np.abs(part), initial=0.0)) for part in parts)
    if scale == 0.0:
        return 0.0, 1.0
    return math.hypot(*(float(np.linalg.norm(part / scale)) for part in parts)), scale


def relative_gap(approx: np.ndarray, exact: np.ndarray) -> float:
    """||approx - exact||_F / ||exact||_F, and 0.0 when exact is zero: the
    dense reference for the model's residual and gap.

    Scale-safe: a norm whose sum of squares would overflow or underflow is
    taken on its array divided by its largest magnitude.  At ordinary
    scales no array is copied, and the quotient is the plain one.
    """
    exact_norm, exact_scale = _norm_parts(exact)
    if exact_norm == 0.0:
        return 0.0
    gap_norm, gap_scale = _norm_parts(approx - exact)
    return (gap_norm / exact_norm) * (gap_scale / exact_scale)


def distinct_rows(a, b, rect):
    rows, length, _ = lattice_map(comp(a, b, 0.5), rect)
    return int(np.unique(rows).size), length


# --- selection: the lattice map's row index ----------------------------------

def test_selection_shape_and_structure():
    rows, length, coords = lattice_map(comp(3, 2, 0.5), LatticeRect(15, 15))
    assert rows.shape == coords.shape == (225,)  # one row per column
    assert length == 71
    assert rows.min() == 0 and rows.max() == length - 1
    assert np.unique(rows).size == 69
    # two index values in the range are never attained, hence two zero rows
    assert length - np.unique(rows).size == 2


def test_selection_small_vertical():
    rows, length, _ = lattice_map(comp(0, 1, 0.5), LatticeRect(2, 2))
    assert length == 2
    # columns for (0,0) and (1,0) share row 0; (0,1) and (1,1) share row 1
    assert rows[0] == rows[2] == 0
    assert rows[1] == rows[3] == 1


@pytest.mark.parametrize("ab", [(0, 1), (1, 0), (1, 2), (2, 1), (3, 2), (3, -2), (2, -3)])
def test_distinct_columns_match_closed_form(ab):
    rect = LatticeRect(7, 6)
    a, b = ab
    distinct, _ = distinct_rows(a, b, rect)
    assert distinct == rect.N * abs(a) + rect.M * abs(b) - abs(a * b)


def test_zero_rows_only_for_wide_slopes():
    rect = LatticeRect(9, 8)
    for ab in [(0, 1), (1, 0), (1, 3), (1, -2), (2, 1), (3, 1)]:
        distinct, length = distinct_rows(*ab, rect)
        assert distinct == length
    for ab in [(3, 2), (2, -3), (3, -2)]:
        distinct, length = distinct_rows(*ab, rect)
        assert distinct < length


def test_selection_row_indexing_follows_line_index():
    slope = make_slope_pair(2, -1)
    rect = LatticeRect(5, 4)
    rows, _, _ = lattice_map(EvanescentComponent(slope, 0.5, WHITE(1.0)), rect)
    k_min, _ = modulating_indices(slope, rect)
    for n, m in np.ndindex(rect.N, rect.M):
        assert rows[n * rect.M + m] == n * slope.a + m * slope.b - k_min


# --- modulation: the factor block's carriers ---------------------------------

def test_modulation_entries_vertical():
    (block,) = assemble_gamma([comp(0, 1, 0.7)], LatticeRect(3, 2)).blocks
    (carrier,) = block.carriers
    # companion (1, 0): coordinate is n, entry exp(-1j * omega * n)
    n = np.repeat(np.arange(3), 2)
    assert np.allclose(carrier, np.exp(-1j * 0.7 * n), rtol=1e-15)
    assert np.allclose(np.abs(carrier), 1.0)


# --- process covariance ------------------------------------------------------

def test_white_covariance_is_scaled_identity():
    # the AR(1) formula at ar = 0 gives variance * I bit for bit
    for size in (1, 2, 40, 300):
        for variance in (1e-300, 0.37, 2.5, 1e300):
            got, want = process_covariance(WHITE(variance), size), variance * np.eye(size)
            assert np.array_equal(got, want)
            assert got.tobytes() == want.tobytes()


def test_ar1_covariance_frozen_example():
    got = process_covariance(AR1(0.75, 0.5), 2)
    assert np.allclose(got, [[1.0, 0.5], [0.5, 1.0]], rtol=0, atol=1e-15)


def test_ar1_zero_coefficient_reduces_to_white():
    assert np.allclose(
        process_covariance(AR1(1.3, 0.0), 5), process_covariance(WHITE(1.3), 5)
    )


def test_process_covariance_needs_a_positive_size():
    with pytest.raises(ValueError, match="process covariance needs a positive size"):
        process_covariance(WHITE(1.0), 0)


def gathered_covariance(spec, size):
    """R through an int64 lag matrix and a gather: the reference for the
    strided route."""
    ar = spec.ar_coefficient
    autocov = spec.variance * ar ** np.arange(size) / (1.0 - ar * ar)
    return autocov[np.abs(np.arange(size)[:, None] - np.arange(size)[None, :])]


@pytest.mark.parametrize("size", [1, 2, 3, 40, 301])
@pytest.mark.parametrize("spec", [WHITE(0.37), AR1(1.3, 0.5), AR1(2.0, -0.85), AR1(1e-300, 0.9)],
                         ids=["white", "ar1", "ar1-negative", "ar1-tiny"])
def test_process_covariance_is_the_lag_gather_bit_for_bit(spec, size):
    got = process_covariance(spec, size)
    want = gathered_covariance(spec, size)
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


def test_process_covariance_peak_is_about_one_covariance():
    # the lag-matrix gather peaked at twice R's bytes at this size
    size = 1280
    tracemalloc.start()
    try:
        cov = process_covariance(AR1(1.3, 0.5), size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * cov.nbytes


def test_process_covariance_positive_definite():
    for spec in (WHITE(0.5), AR1(1.0, 0.9), AR1(2.0, -0.85)):
        cov = process_covariance(spec, 40)
        eigs = np.linalg.eigvalsh(cov)
        assert eigs.min() > 0


# --- gamma assembly ----------------------------------------------------------

def test_single_vertical_component_closed_form():
    omega = 1.1
    rect = LatticeRect(4, 3)
    model = assemble_gamma([comp(0, 1, omega, WHITE(1.0))], rect)
    for n, m in np.ndindex(rect.N, rect.M):
        for n2, m2 in np.ndindex(rect.N, rect.M):
            want = 0.0 if m != m2 else np.exp(1j * omega * (n - n2))
            got = model.gamma[n * rect.M + m, n2 * rect.M + m2]
            assert abs(got - want) < 1e-14


@pytest.mark.parametrize("real_valued", [False, True])
def test_gamma_matches_entrywise_expectation_of_samples(real_valued):
    # independent oracle: E[e e^H] computed directly from the synthesis model
    rect = LatticeRect(4, 4)
    comps = [comp(1, 1, 0.9, WHITE(1.5)), comp(2, 1, 2.0, AR1(1.0, 0.5))]
    model = assemble_gamma(comps, rect, real_valued=real_valued)
    trials = 200000
    snaps = synthesize_batch(model, trials, seed=77)
    est = sample_covariance(snaps)
    scale = np.sqrt(np.outer(np.diag(model.gamma).real, np.diag(model.gamma).real))
    assert np.all(np.abs(est - model.gamma) <= 5 * scale / np.sqrt(trials) + 1e-12)


def test_gamma_hermitian_psd():
    rect = LatticeRect(6, 6)
    model = assemble_gamma(
        [comp(3, 2, 0.4, AR1(1.0, 0.7)), comp(1, -2, 2.2, WHITE(2.0))], rect
    )
    assert np.array_equal(model.gamma, model.gamma.conj().T)
    eigs = np.linalg.eigvalsh(model.gamma)
    assert eigs.min() > -1e-10 * eigs.max()


def test_factorization_identity():
    rect = LatticeRect(8, 8)
    comps = [comp(3, 2, 0.9, AR1(1.0, 0.5)), comp(2, -1, 1.7, WHITE(1.0))]
    for real in (False, True):
        model = assemble_gamma(comps, rect, real_valued=real)
        assert model.factorization_residual() <= 1e-12


def test_whitened_factor_reproduces_gamma():
    rect = LatticeRect(8, 8)
    comps = [comp(3, 2, 0.9, AR1(1.0, 0.5)), comp(2, -1, 1.7, WHITE(2.0))]
    for real in (False, True):
        model = assemble_gamma(comps, rect, real_valued=real)
        factor = model.whitened_factor()
        # one row per process sample and carrier
        assert factor.shape == ((36 + 22) * (2 if real else 1), 64)
        assert factor.dtype == model.gamma.dtype
        assert relative_gap(factor.conj().T @ factor, model.gamma) <= 1e-12
        assert "whitened_factor" not in vars(model)


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
def test_relative_gap_is_scale_safe(scale):
    rng = np.random.default_rng(0)
    exact = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
    approx = exact * (1 + 1e-6)
    gap = relative_gap(scale * approx, scale * exact)  # a RuntimeWarning fails the test
    assert gap == pytest.approx(1e-6, rel=1e-6)
    assert relative_gap(exact, np.zeros_like(exact)) == 0.0
    assert relative_gap(approx, exact) == np.linalg.norm(approx - exact) / np.linalg.norm(exact)


def test_stacked_factor_has_q_entries_per_column():
    rect = LatticeRect(5, 5)
    comps = [comp(1, 1, 0.5), comp(1, -1, 1.5), comp(2, 1, 2.5)]
    model = assemble_gamma(comps, rect)
    assert np.all((model.stacked != 0).sum(axis=0) == len(comps))
    assert np.allclose(np.abs(model.stacked[model.stacked != 0]), 1.0)


def test_real_gamma_is_real_symmetric_psd():
    rect = LatticeRect(6, 6)
    model = assemble_gamma([comp(2, 1, 0.7, AR1(1.0, 0.4))], rect, real_valued=True)
    assert model.gamma.dtype == np.float64
    assert np.array_equal(model.gamma, model.gamma.T)
    assert np.linalg.eigvalsh(model.gamma).min() > -1e-12


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
def test_gamma_gathers_into_one_reused_term(real):
    # Gamma and one carrier's term buffer, not a term per carrier alive at once
    # and no full-size copy for the Hermitian average: about 3x Gamma before
    model = assemble_gamma(TILED_COMPS + [comp(2, 1, 2.3)], LatticeRect(24, 24), real_valued=real)
    tracemalloc.start()
    try:
        gamma = model.gamma
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * gamma.nbytes


def test_eigenvalues_invariant_under_companion_choice():
    # swapping (c, d) for (c + k*a, d + k*b) is a diagonal unitary congruence
    rect = LatticeRect(7, 7)
    base = make_slope_pair(3, 2)
    spec = AR1(1.0, 0.6)
    eigs = []
    siblings = [SlopePair(3, 2, base.c + k * 3, base.d + k * 2) for k in (1, -2)]
    for slope in [base] + siblings:
        c = EvanescentComponent(slope, 0.9, spec)
        eigs.append(np.sort(np.linalg.eigvalsh(assemble_gamma([c], rect).gamma)))
    assert np.allclose(eigs[0], eigs[1], rtol=1e-10, atol=1e-10 * eigs[0].max())
    assert np.allclose(eigs[0], eigs[2], rtol=1e-10, atol=1e-10 * eigs[0].max())


def test_duplicate_triple_rejected():
    rect = LatticeRect(4, 4)
    pair = [comp(1, 1, 0.5, WHITE(1.0)), comp(1, 1, 0.5, WHITE(2.0))]
    with pytest.raises(ValueError):
        assemble_gamma(pair, rect)


def test_model_stores_only_the_factor_until_read():
    rect = LatticeRect(32, 32)
    model = assemble_gamma([comp(3, 2, 0.9, AR1(1.0, 0.5)), comp(2, -1, 1.7)], rect)
    assert set(vars(model)) == {"rect", "components", "real_valued", "blocks"}
    assert model.gamma.shape == (1024, 1024)
    assert "gamma" in vars(model) and "stacked" not in vars(model)
    assert model.stacked.shape == (sum(b.cov.shape[0] for b in model.blocks), rect.size)
    assert "stacked" in vars(model)


def test_empty_component_set_gives_zero_matrix():
    model = assemble_gamma([], LatticeRect(3, 3))
    assert np.all(model.gamma == 0)
    assert model.stacked.shape == (0, 9)
    assert model.factorization_residual() == 0.0


# --- the residual and the tiled gap against the dense reference -------------

# N*M of 1, 255, 256, 257 and 600: one tile, below, at and across the 256-row edge
TILE_EDGE_RECTS = [LatticeRect(1, 1), LatticeRect(15, 17), LatticeRect(16, 16),
                   LatticeRect(1, 257), LatticeRect(24, 25)]
TILED_COMPS = [comp(3, 2, 0.9, AR1(1.3, 0.5)), comp(2, -1, 1.7, WHITE(0.8))]


def perturb_one_cholesky_row(monkeypatch):
    """F^H F != Gamma: the middle row of each block's L is scaled by 1 + 1e-6."""
    original = FactorBlock.lower.func

    def perturbed(block):
        lower = original(block)
        lower[lower.shape[0] // 2] *= 1 + 1e-6
        return lower

    prop = cached_property(perturbed)
    prop.__set_name__(FactorBlock, "lower")
    monkeypatch.setattr(FactorBlock, "lower", prop)


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("rect", TILE_EDGE_RECTS, ids=lambda r: f"nm{r.size}")
def test_tiled_residual_matches_dense_reference(monkeypatch, rect, real):
    perturb_one_cholesky_row(monkeypatch)
    model = assemble_gamma(TILED_COMPS, rect, real_valued=real)
    factor = model.whitened_factor()
    dense = relative_gap(factor.conj().T @ factor, model.gamma)
    assert dense > 1e-8  # the injected mismatch shows
    assert model.factorization_residual() == pytest.approx(dense, rel=1e-9)


def diagonal_unit(model):
    """The scale unit read from max diag Gamma, accumulated over N*M."""
    diag = sum(
        (np.diagonal(block.cov)[block.rows] * np.abs(w) ** 2
         for block in model.blocks for w in block.carriers),
        np.zeros(model.rect.size),
    )
    half = min(max(math.frexp(float(diag.max()))[1] // 2, -510), 510)
    return math.ldexp(1.0, 2 * half)


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("scale", [1.0, 1e300, 1e-300])
@pytest.mark.parametrize("comps", [
    [comp(3, 2, 0.9, WHITE(1.0)), comp(2, -1, 1.7, WHITE(1.0))],
    [comp(3, 2, 0.9, AR1(0.75, 0.5))],
], ids=["white-pair", "ar1"])
def test_unit_from_the_specs_keeps_every_ratio_bit_for_bit(monkeypatch, comps, scale, real):
    # total marginal variance 2.0 and 1.0: on a power of two, where max diag
    # Gamma may round below it; a unit a factor of four off scales every term
    # exactly too, so the ratios keep their bits
    comps = [EvanescentComponent(c.slope, c.omega, ModulatingProcessSpec(
        c.process.kind, c.process.variance * scale, c.process.ar_coefficient)) for c in comps]
    model = assemble_gamma(comps, LatticeRect(9, 7), real_valued=real)
    lines = draw_lines(model, 16, 4)
    got = (model.factorization_residual(), model.sample_gap(lines))
    for factor in (1.0, 4.0, 0.25):
        monkeypatch.setattr(CovarianceModel, "_unit", lambda m: factor * diagonal_unit(m))
        want = (model.factorization_residual(), model.sample_gap(lines))
        assert struct.pack("<2d", *got) == struct.pack("<2d", *want)


# negative b and the vertical and horizontal slopes; drawn with replacement, so
# slopes repeat, and the continuous omega draw keeps the triples distinct
LINE_SPACE_SLOPES = [(3, 2), (2, -1), (1, 1), (1, -3), (0, 1), (1, 0)]


def random_line_space_config(seed):
    rng = np.random.default_rng(seed)
    rect = LatticeRect(*(int(side) for side in rng.integers(4, 13, size=2)))
    comps = []
    for pick in rng.integers(len(LINE_SPACE_SLOPES), size=int(rng.integers(1, 5))):
        variance = float(rng.uniform(0.5, 2.0))
        ar = float(rng.uniform(-0.8, 0.8))
        process = AR1(variance, ar) if rng.random() < 0.5 else WHITE(variance)
        comps.append(comp(*LINE_SPACE_SLOPES[pick], float(rng.uniform(0.0, 6.28)), process))
    return rect, comps


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("seed", range(12))
def test_line_space_residual_matches_dense_reference(monkeypatch, seed, real):
    rect, comps = random_line_space_config(seed)
    model = assemble_gamma(comps, rect, real_valued=real)
    stacked = model.stacked
    assert relative_gap(model._line_gram, stacked @ stacked.conj().T) <= 1e-13
    perturb_one_cholesky_row(monkeypatch)
    factor = model.whitened_factor()
    dense = relative_gap(factor.conj().T @ factor, model.gamma)
    assert dense > 1e-8  # the injected mismatch shows
    assert model.factorization_residual() == pytest.approx(dense, rel=1e-9)


def dense_trace_square(model, per_block):
    """tr((D G)^2) with D = blockdiag(per_block[k] for each carrier of block
    k) formed whole, one dense product: the reference for the carrier-block
    trace."""
    parts = [d for d, block in zip(per_block, model.blocks) for _ in block.carriers]
    size = sum(d.shape[0] for d in parts)
    dense = np.zeros((size, size))
    lo = 0
    for d in parts:
        dense[lo:lo + d.shape[0], lo:lo + d.shape[0]] = d
        lo += d.shape[0]
    product = dense @ model._line_gram
    return float(np.trace(product @ product).real)


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("seed", range(12))
def test_carrier_block_traces_match_dense_references(monkeypatch, seed, real):
    rect, comps = random_line_space_config(seed)
    model = assemble_gamma(comps, rect, real_valued=real)
    # tr(R G R G) = ||C^H R C||_F^2 = ||Gamma||_F^2
    (exact,) = model._trace_squares([(block.cov,) for block in model.blocks])
    assert exact == pytest.approx(np.linalg.norm(model.gamma) ** 2, rel=1e-12)
    perturb_one_cholesky_row(monkeypatch)
    gap = [block.cov - block.lower @ block.lower.T for block in model.blocks]
    want = dense_trace_square(model, gap)
    assert want > 0.0  # the injected mismatch shows
    assert model._trace_squares([(d,) for d in gap]) == [pytest.approx(want, rel=1e-12)]


def trace_forms(model, seed):
    """Two forms per block, neither roundoff: a dense block gets two random
    symmetric matrices, a diagonal one a constant and a varying diagonal.
    Which blocks are diagonal is drawn from the seed, not the process kind."""
    rng = np.random.default_rng([seed, 1])
    forms = []
    for block in model.blocks:
        n = block.length
        if rng.random() < 0.5:
            a, b = rng.standard_normal((2, n, n))
            forms.append((a + a.T, b + b.T))
        else:
            forms.append((np.full(n, rng.uniform(0.5, 2.0)), rng.uniform(-1.0, 1.0, n)))
    return forms


def pair_kinds(forms):
    """The (dense, dense), (dense, diagonal) and (diagonal, diagonal) block pairs."""
    diagonal = [f[0].ndim == 1 for f in forms]
    return {tuple(sorted((diagonal[k], diagonal[l])))
            for k in range(len(forms)) for l in range(k + 1, len(forms))}


def test_trace_forms_cover_every_block_pair_kind():
    kinds = set()
    for seed in range(12):
        rect, comps = random_line_space_config(seed)
        kinds |= pair_kinds(trace_forms(assemble_gamma(comps, rect), seed))
    assert kinds == {(False, False), (False, True), (True, True)}


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("seed", range(12))
def test_block_pair_traces_match_dense_references(seed, real):
    rect, comps = random_line_space_config(seed)
    model = assemble_gamma(comps, rect, real_valued=real)
    forms = trace_forms(model, seed)
    got = model._trace_squares(forms)
    for i in range(2):
        dense = [f[i] if f[i].ndim == 2 else np.diag(f[i]) for f in forms]
        assert got[i] == pytest.approx(dense_trace_square(model, dense), rel=1e-12)


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("seed", range(6))
def test_residual_reads_a_white_block_whose_factor_is_not_diagonal(seed, real):
    # the diagonal route is taken from the arrays: a white process whose L has an
    # entry below the diagonal takes the dense route, and its mismatch shows
    rect, comps = random_line_space_config(seed)
    comps.append(comp(1, -3, 0.77, WHITE(1.1)))
    model = assemble_gamma(comps, rect, real_valued=real)
    for block in model.blocks:
        lower = block.lower  # cached on the block: the residual reads this array
        if not np.any(np.tril(lower, -1)):
            lower[1, 0] = 1e-3 * lower[0, 0]
    factor = model.whitened_factor()
    dense = relative_gap(factor.conj().T @ factor, model.gamma)
    residual = model.factorization_residual()
    assert residual > 1e-8
    assert residual == pytest.approx(dense, rel=1e-9)


def dense_bincount_line_gram(model):
    """G built one dense bincount of len_p * len_q bins per carrier pair, the
    reference for `_line_gram`."""
    carriers = model._carriers
    size = carriers[-1][-1] if carriers else 0
    gram = np.zeros((size, size), model.dtype)
    for p, (_, rows_p, len_p, w_p, lo_p, hi_p) in enumerate(carriers):
        for q, (_, rows_q, len_q, w_q, lo_q, hi_q) in enumerate(carriers[p:], p):
            key = rows_p * len_q + rows_q
            weight = w_p.real ** 2 + w_p.imag ** 2 if p == q else w_p * np.conj(w_q)
            pair = np.bincount(key, weight.real, len_p * len_q)
            if np.iscomplexobj(weight):
                pair = pair + 1j * np.bincount(key, weight.imag, len_p * len_q)
            pair = pair.reshape(len_p, len_q)
            gram[lo_p:hi_p, lo_q:hi_q] = pair
            gram[lo_q:hi_q, lo_p:hi_p] = pair.conj().T
    return gram


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("seed", range(12))
def test_line_gram_is_the_dense_bincount_bit_for_bit(seed, real):
    rect, comps = random_line_space_config(seed)
    model = assemble_gamma(comps, rect, real_valued=real)
    assert model._line_gram.tobytes() == dense_bincount_line_gram(model).tobytes()


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("side", [8, 48])
def test_line_gram_is_exactly_hermitian(side, real):
    # the rank's symmetric eigensolve needs G == G^H bit for bit, its diagonal real
    comps = [comp(3, 2, 0.9, AR1(1.3, 0.5)), comp(2, -1, 1.6), comp(2, 1, 2.3)]
    gram = assemble_gamma(comps, LatticeRect(side, side), real_valued=real)._line_gram
    assert np.array_equal(gram, gram.conj().T)
    assert not np.any(np.diagonal(gram).imag)


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("rect", TILE_EDGE_RECTS, ids=lambda r: f"nm{r.size}")
def test_sample_gap_matches_the_dense_gap_at_tile_edges(rect, real):
    # the dense reference scatters the draws and forms the estimate from its row
    # tiles; the line-space gap reads neither
    model = assemble_gamma(TILED_COMPS, rect, real_valued=real)
    lines = draw_lines(model, 16, seed=3)
    dense = relative_gap(sample_covariance(scatter_lines(model, lines)), model.gamma)
    assert dense > 1e-3
    assert model.sample_gap(lines) == pytest.approx(dense, rel=1e-9)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 12),
    m=st.integers(1, 12),
    picks=st.lists(st.tuples(st.sampled_from(LINE_SPACE_SLOPES), st.floats(0.5, 2.0),
                             st.floats(-0.8, 0.8)), max_size=3),
    real=st.booleans(),
    excess=st.integers(-40, 40),
    seed=st.integers(0, 2**16),
)
def test_sample_gap_matches_the_scattered_sample_covariance(n, m, picks, real, excess, seed):
    # the scatter is independent of the line-space gap: a wrong carrier or row in
    # scatter_lines shows here; trials fall on both sides of sum(rows)
    comps = [comp(a, b, 0.5 + 1.1 * i, AR1(variance, ar))
             for i, ((a, b), variance, ar) in enumerate(picks)]
    model = assemble_gamma(comps, LatticeRect(n, m), real_valued=real)
    width = sum(block.length * len(block.carriers) for block in model.blocks)
    lines = draw_lines(model, max(1, width + excess), seed)
    dense = relative_gap(sample_covariance(scatter_lines(model, lines)), model.gamma)
    assert model.sample_gap(lines) == pytest.approx(dense, rel=1e-9)


def test_empty_component_set_gap_is_exactly_zero():
    rect = LatticeRect(20, 20)  # two tiles
    model = assemble_gamma([], rect)
    assert model.sample_gap(draw_lines(model, 4, seed=1)) == 0.0
    assert model.factorization_residual() == 0.0
    assert "gamma" not in vars(model)


def test_residual_holds_no_full_size_array():
    rect = LatticeRect(32, 64)
    model = assemble_gamma([comp(1, 0, 0.9, AR1(1.0, 0.5))], rect)
    full = rect.size ** 2 * 16
    tracemalloc.start()
    try:
        residual = model.factorization_residual()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert residual <= 1e-12
    assert peak < full / 2
    assert "gamma" not in vars(model)


# --- sample covariance -------------------------------------------------------

def test_sample_covariance_orientation():
    # single snapshot: covariance must be the outer product e e^H exactly
    rect = LatticeRect(3, 3)
    (snap,) = synthesize_batch(assemble_gamma([comp(1, 1, 0.8)], rect), 1, seed=9)
    got = sample_covariance([snap])
    want = np.outer(snap, snap.conj())
    assert np.allclose(got, want, rtol=1e-15, atol=0)


def test_sample_covariance_averages_integer_snapshots_to_floats():
    # complex and float sums are divided in place; an integer sum cannot be
    got = sample_covariance([[1, 2], [3, 4]])
    assert got.dtype == np.float64
    assert np.array_equal(got, [[5.0, 7.0], [7.0, 10.0]])


def test_sample_covariance_does_not_wrap_integer_products():
    # int64 products wrap: (2**32)**2 read 0.0 and 3037000500**2 a negative variance
    assert sample_covariance([[2**32, 1]])[0, 0] == 2.0**64
    got = sample_covariance([[3037000500, 0], [1, 1]])
    assert got[0, 0] == (3037000500.0**2 + 1.0) / 2.0 > 0.0


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("divisor", [3, 64, 500, math.sqrt(512), math.sqrt(7), 0.1])
def test_divide_is_numpy_division_bit_for_bit(divisor, kind):
    data = gram_input(40, 50, kind, seed=3) * 10.0 ** np.random.default_rng(4).uniform(-30, 30, (40, 50))
    want = data / divisor
    _divide(data, divisor)
    assert data.tobytes() == want.tobytes()


def test_sample_covariance_rejects_empty():
    with pytest.raises(ValueError):
        sample_covariance([])


# --- Hermitian Grams from upper row tiles --------------------------------------

# Gram sizes around the 256-row tile, and the two sides of N*M for the trial count
GRAM_SIZES = [1, 255, 256, 257, 600]


def gram_input(rows, cols, kind, seed=0):
    rng = np.random.default_rng(seed)
    if kind == "integer":
        return rng.integers(-9, 10, size=(rows, cols))
    data = rng.standard_normal((rows, cols))
    if kind == "complex":
        data = data + 1j * rng.standard_normal((rows, cols))
    return data


def assert_hermitian_and_close(got, want):
    assert np.array_equal(got, got.conj().T)
    assert not np.any(np.diagonal(got).imag)
    # entries that cancel to near zero carry the roundoff of the largest ones
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())


@pytest.mark.parametrize("kind", ["real", "complex", "integer"])
@pytest.mark.parametrize("side", ["below", "above"])
@pytest.mark.parametrize("size", GRAM_SIZES)
def test_sample_covariance_is_exactly_hermitian(size, side, kind):
    # N*M = size; trials below N*M (down to 1) or above it
    trials = max(size // 2, 1) if side == "below" else size + 7
    data = gram_input(trials, size, kind)
    got = sample_covariance(data)
    assert got.shape == (size, size)
    # the full product of both triangles, as the estimate was once formed
    assert_hermitian_and_close(got, data.T @ data.conj() / trials)


@pytest.mark.parametrize("kind", ["real", "complex", "integer"])
@pytest.mark.parametrize("side", ["below", "above"])
@pytest.mark.parametrize("size", GRAM_SIZES)
def test_short_gram_is_exactly_hermitian(size, side, kind):
    # a factor X of trials x N*M whose short-side Gram is size x size: X X^H, as
    # stap takes it, sums x x^H over the columns x of X, and X^H X over the rows of conj(X)
    shape = (size, size + 7) if side == "below" else (size + 7, size)
    factor = gram_input(*shape, kind)
    got = _hermitian_gram(factor.T if side == "below" else factor.conj())
    assert got.shape == (size, size)
    # the averaged full Gram on the short side
    full = factor @ factor.conj().T if side == "below" else factor.conj().T @ factor
    assert_hermitian_and_close(got, (full + full.conj().T) / 2.0)


def whole_square_gram(a):
    """_hermitian_gram with each tile's leading square averaged in one
    statement, `square += square.conj().T`, whose operand numpy copied whole:
    the bit-for-bit reference for the averages taken a few rows at a time."""
    if a.dtype.kind not in "fc":
        a = a.astype(np.float64)
    size = a.shape[1]
    out = np.empty((size, size), a.dtype)
    for lo in range(0, size, _TILE_ROWS):
        hi = min(lo + _TILE_ROWS, size)
        tile = out[lo:hi, lo:]
        np.matmul(a[:, lo:hi].conj().T, a[:, lo:], out=tile)
        out[hi:, lo:hi] = tile[:, hi - lo:].T
        np.conjugate(tile, out=tile)
        square = out[lo:hi, lo:hi]
        square += square.conj().T
        square *= 0.5
    return out


@pytest.mark.parametrize("budget", [1, 1000, None], ids=["row", "ragged", "default"])
@pytest.mark.parametrize("kind", ["real", "complex", "integer"])
@pytest.mark.parametrize("size", GRAM_SIZES)
def test_hermitian_gram_averages_in_row_blocks_bit_for_bit(monkeypatch, size, kind, budget):
    # one row, a ragged few and the default budget per step; the bytes compare
    # signed zeros too
    if budget is not None:
        monkeypatch.setattr(covariance, "_OVERLAP_BYTES", budget)
    data = gram_input(size + 7, size, kind)
    got, want = _hermitian_gram(data), whole_square_gram(data)
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


def test_hermitian_gram_copies_no_leading_square():
    # gamma_rank's Schur Gram at 48 x 48 --real before its 2x2 pivots: 234 rows of
    # 520; the whole-square average copied its 256-square operand (512 KiB), and
    # 0.66 MB was held beside the output; the steps' copies and numpy's
    # per-call buffers now stay below three quarters of that square
    data = gram_input(234, 520, "real")
    tracemalloc.start()
    try:
        got = _hermitian_gram(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - got.nbytes <= 0.75 * _TILE_ROWS * _TILE_ROWS * got.itemsize


# --- export ------------------------------------------------------------------

def test_binary_round_trip(tmp_path):
    rect = LatticeRect(4, 5)
    model = assemble_gamma([comp(2, 1, 1.0, AR1(1.0, 0.5))], rect)
    path = tmp_path / "gamma.bin"
    save_matrix_binary(model.gamma, path)
    back = load_matrix_binary(path)
    assert back.shape == model.gamma.shape
    assert np.array_equal(back, model.gamma)
    # 16-byte header: magic, rows, cols
    raw = path.read_bytes()
    assert raw[:8] == b"EVCM0001"
    assert len(raw) == 16 + 20 * 20 * 16


def reference_encoding(matrix) -> bytes:
    """The file format spelled out: magic, rows and cols as little-endian
    uint32, then each entry in row-major order as little-endian (re, im)."""
    rows, cols = np.shape(matrix)
    cells = (complex(matrix[i][j]) for i in range(rows) for j in range(cols))
    body = b"".join(struct.pack("<dd", z.real, z.imag) for z in cells)
    return b"EVCM0001" + struct.pack("<II", rows, cols) + body


BINARY_INPUTS = {
    "complex": np.arange(12).reshape(3, 4) * (0.5 - 1.25j) + 1e-300j,
    "real": np.linspace(-2.0, 3.0, 15).reshape(3, 5),
    "transposed": (np.arange(20).reshape(4, 5) * (1.0 + 2.0j)).T,
    "big-endian": np.arange(6, dtype=">c16").reshape(2, 3) * (3.0 - 1.0j),
}


@pytest.mark.parametrize("name", list(BINARY_INPUTS))
def test_binary_bytes_match_reference_encoding(tmp_path, name):
    matrix = BINARY_INPUTS[name]
    path = tmp_path / "m.bin"
    save_matrix_binary(matrix, path)
    assert path.read_bytes() == reference_encoding(matrix)


@pytest.mark.parametrize(
    "raw",
    [b"NOTMAGIC" + b"\x00" * 24, b"EVCM0001\x02\x00"],
    ids=["bad-magic", "truncated-header"],
)
def test_binary_rejects_bad_magic(tmp_path, raw):
    path = tmp_path / "junk.bin"
    path.write_bytes(raw)
    with pytest.raises(ValueError):
        load_matrix_binary(path)


def test_binary_rejects_a_payload_shorter_than_its_header(tmp_path):
    path = tmp_path / "short.bin"
    path.write_bytes(b"EVCM0001" + struct.pack("<II", 2, 2) + bytes(3 * 16))
    with pytest.raises(ValueError, match="payload does not match header dimensions"):
        load_matrix_binary(path)


# the complex input's file is 208 bytes; the junk it overwrites is longer, shorter or empty
@pytest.mark.parametrize("extra", [500, -100, -208], ids=["longer", "shorter", "empty"])
def test_binary_overwrite_is_the_fresh_write(tmp_path, extra):
    # an existing file is written in place and cut to length: the same bytes as a new file
    matrix = BINARY_INPUTS["complex"]
    want = reference_encoding(matrix)
    target = tmp_path / "target.bin"
    target.write_bytes(b"\xff" * (len(want) + extra))
    save_matrix_binary(matrix, target)
    assert target.read_bytes() == want


def test_binary_write_cut_short_leaves_a_file_that_does_not_load(tmp_path, monkeypatch):
    path = tmp_path / "m.bin"
    save_matrix_binary(BINARY_INPUTS["real"], path)  # a valid file, overwritten in place

    def cut_short(*args, **kwargs):
        fh = open(*args, **kwargs)
        write = fh.write

        def payload_fails(data):
            view = memoryview(data).cast("B")
            if view.nbytes > 8:  # not the magic or the dimensions: the payload
                write(view[: view.nbytes // 2])
                raise OSError(errno.ENOSPC, "No space left on device")
            return write(data)

        fh.write = payload_fails
        return fh

    monkeypatch.setattr(covariance, "open", cut_short, raising=False)
    with pytest.raises(OSError):
        save_matrix_binary(BINARY_INPUTS["complex"], path)
    with pytest.raises(ValueError, match="magic"):
        load_matrix_binary(path)


def loop_csv(matrix, path):
    """Reference writer: one formatted cell per real and imaginary part."""
    matrix = np.asarray(matrix, dtype=np.complex128)
    with open(path, "w", encoding="ascii") as fh:
        for row in matrix:
            cells = []
            for value in row:
                cells.append(f"{value.real:.17g}")
                cells.append(f"{value.imag:.17g}")
            fh.write(",".join(cells) + "\n")


def _csv_inputs():
    rng = np.random.default_rng(3)
    exponents = rng.integers(-300, 301, size=(12, 9))
    spread = (rng.standard_normal((12, 9)) + 1j * rng.standard_normal((12, 9))) * 10.0 ** exponents
    spread[0, :4] = [0.0, -0.0, complex(-0.0, 0.0), complex(0.0, -0.0)]
    spread[1, :3] = [5e-324, complex(-4e-320, 2.2250738585072014e-308), 1.7976931348623157e308]
    return {
        "complex": spread,
        "real": spread.real[:, ::-1],  # a strided view
        "integer": rng.integers(-10**6, 10**6, size=(5, 7)),
        "lists": [[1, 2.5, -3j], [0.1 + 0.2j, -0.0, 1e-310]],
    }


@pytest.mark.parametrize("name", ["complex", "real", "integer", "lists"])
def test_csv_is_the_per_cell_loop_byte_for_byte(tmp_path, name):
    matrix = _csv_inputs()[name]
    save_matrix_csv(matrix, tmp_path / "got.csv")
    loop_csv(matrix, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_csv_overwrite_is_the_fresh_write(tmp_path):
    # an existing, longer file is written in place and cut to length
    matrix = _csv_inputs()["complex"]
    save_matrix_csv(matrix, tmp_path / "fresh.csv")
    want = (tmp_path / "fresh.csv").read_bytes()
    target = tmp_path / "target.csv"
    target.write_bytes(b"\xff" * (3 * len(want)))
    save_matrix_csv(matrix, target)
    assert target.read_bytes() == want


def test_csv_to_a_device_is_not_truncated():
    save_matrix_csv(_csv_inputs()["complex"], os.devnull)


def test_csv_interleaves_real_imag(tmp_path):
    mat = np.array([[1.0 + 2.0j, -3.5 + 0.0j]])
    path = tmp_path / "m.csv"
    save_matrix_csv(mat, path)
    line = path.read_text().strip()
    assert [float(x) for x in line.split(",")] == [1.0, 2.0, -3.5, 0.0]
