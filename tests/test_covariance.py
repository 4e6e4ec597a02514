import tracemalloc

import numpy as np
import pytest

from evarank.covariance import (
    assemble_gamma,
    load_matrix_binary,
    relative_gap,
    sample_covariance,
    save_matrix_binary,
    save_matrix_csv,
)
from evarank.fields import (
    EvanescentComponent,
    FactorBlock,
    ModulatingProcessSpec,
    ProcessKind,
    lattice_map,
    modulating_indices,
    process_covariance,
    synthesize_batch,
)
from evarank.lattice import LatticeRect, SlopePair, make_slope_pair

AR1 = lambda var, ar: ModulatingProcessSpec(ProcessKind.AR1, var, ar)
WHITE = lambda var: ModulatingProcessSpec(ProcessKind.WHITE, var, 0.0)


def comp(a, b, omega, process=None):
    return EvanescentComponent(make_slope_pair(a, b), omega, process or WHITE(1.0))


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
    for n, m in rect.points():
        assert rows[rect.vec_index(n, m)] == slope.column_index(n, m) - k_min


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
    assert np.array_equal(process_covariance(WHITE(2.5), 4), 2.5 * np.eye(4))


def test_ar1_covariance_frozen_example():
    got = process_covariance(AR1(0.75, 0.5), 2)
    assert np.allclose(got, [[1.0, 0.5], [0.5, 1.0]], rtol=0, atol=1e-15)


def test_ar1_zero_coefficient_reduces_to_white():
    assert np.allclose(
        process_covariance(AR1(1.3, 0.0), 5), process_covariance(WHITE(1.3), 5)
    )


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
    for n, m in rect.points():
        for n2, m2 in rect.points():
            want = 0.0 if m != m2 else np.exp(1j * omega * (n - n2))
            got = model.gamma[rect.vec_index(n, m), rect.vec_index(n2, m2)]
            assert abs(got - want) < 1e-14


@pytest.mark.parametrize("real_valued", [False, True])
def test_gamma_matches_entrywise_expectation_of_samples(real_valued):
    # independent oracle: E[e e^H] computed directly from the synthesis model
    rect = LatticeRect(4, 4)
    comps = [comp(1, 1, 0.9, WHITE(1.5)), comp(2, 1, 2.0, AR1(1.0, 0.5))]
    model = assemble_gamma(comps, rect, real_valued=real_valued)
    trials = 200000
    snaps = synthesize_batch(comps, rect, trials, seed=77, real_valued=real_valued)
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
        factor = model.whitened_factor()
        kept = factor.copy()
        assert model.factorization_residual(factor) <= 1e-12
        assert np.array_equal(factor, kept)  # the caller's factor is not scaled in place


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
    assert model.factorization_residual(model.whitened_factor()) == 0.0


# --- the tiled gap against the dense reference -------------------------------

# N*M of 1, 255, 256, 257 and 600: one tile, below, at and across the 256-row edge
TILE_EDGE_RECTS = [LatticeRect(1, 1), LatticeRect(15, 17), LatticeRect(16, 16),
                   LatticeRect(1, 257), LatticeRect(24, 25)]
TILED_COMPS = [comp(3, 2, 0.9, AR1(1.3, 0.5)), comp(2, -1, 1.7, WHITE(0.8))]


def perturb_one_cholesky_row(monkeypatch):
    """F^H F != Gamma: the middle row of each block's L is scaled by 1 + 1e-6."""
    original = FactorBlock.cholesky

    def perturbed(block):
        lower = original(block)
        lower[lower.shape[0] // 2] *= 1 + 1e-6
        return lower

    monkeypatch.setattr(FactorBlock, "cholesky", perturbed)


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("rect", TILE_EDGE_RECTS, ids=lambda r: f"nm{r.size}")
def test_tiled_residual_matches_dense_reference(monkeypatch, rect, real):
    perturb_one_cholesky_row(monkeypatch)
    model = assemble_gamma(TILED_COMPS, rect, real_valued=real)
    factor = model.whitened_factor()
    dense = relative_gap(factor.conj().T @ factor, model.gamma)
    assert dense > 1e-8  # the injected mismatch shows
    assert model.factorization_residual(factor) == pytest.approx(dense, rel=1e-9)


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("rect", TILE_EDGE_RECTS, ids=lambda r: f"nm{r.size}")
def test_tiled_gap_to_estimate_matches_dense_reference(rect, real):
    model = assemble_gamma(TILED_COMPS, rect, real_valued=real)
    snapshots = synthesize_batch(TILED_COMPS, rect, 16, seed=3, real_valued=real)
    estimate = sample_covariance(snapshots)
    dense = relative_gap(estimate, model.gamma)
    assert dense > 1e-3
    assert model.gap_to(estimate) == pytest.approx(dense, rel=1e-9)


def test_empty_component_set_gap_is_exactly_zero():
    rect = LatticeRect(20, 20)  # two tiles
    model = assemble_gamma([], rect)
    assert model.gap_to(np.eye(rect.size, dtype=complex)) == 0.0
    assert model.factorization_residual(model.whitened_factor()) == 0.0
    assert "gamma" not in vars(model)


def test_residual_holds_no_full_size_array():
    rect = LatticeRect(32, 64)
    model = assemble_gamma([comp(1, 0, 0.9, AR1(1.0, 0.5))], rect)
    full = rect.size ** 2 * 16
    tracemalloc.start()
    try:
        residual = model.factorization_residual(model.whitened_factor())
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
    (snap,) = synthesize_batch([comp(1, 1, 0.8)], rect, 1, seed=9)
    got = sample_covariance([snap])
    want = np.outer(snap, snap.conj())
    assert np.allclose(got, want, rtol=1e-15, atol=0)


def test_sample_covariance_rejects_empty():
    with pytest.raises(ValueError):
        sample_covariance([])


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


def test_csv_interleaves_real_imag(tmp_path):
    mat = np.array([[1.0 + 2.0j, -3.5 + 0.0j]])
    path = tmp_path / "m.csv"
    save_matrix_csv(mat, path)
    line = path.read_text().strip()
    assert [float(x) for x in line.split(",")] == [1.0, 2.0, -3.5, 0.0]
