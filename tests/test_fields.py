import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evarank.covariance import assemble_gamma
from evarank.fields import (
    EvanescentComponent,
    ModulatingProcessSpec,
    ProcessKind,
    _refuse_overflow,
    draw_lines,
    lattice_map,
    modulating_indices,
    process_covariance,
    synthesize_batch,
)
from evarank.lattice import LatticeRect, make_slope_pair

AR1 = lambda var, ar: ModulatingProcessSpec(ProcessKind.AR1, var, ar)
WHITE = lambda var: ModulatingProcessSpec(ProcessKind.WHITE, var, 0.0)


def comp(a, b, omega, process=None):
    return EvanescentComponent(make_slope_pair(a, b), omega, process or WHITE(1.0))


def field(components, rect, seed=0, real_valued=False):
    """One realization: a batch of one, reshaped to (N, M)."""
    batch = synthesize_batch(assemble_gamma(components, rect, real_valued), 1, seed)
    return batch.reshape(rect.N, rect.M)


# --- process spec ------------------------------------------------------------

def test_process_spec_validation():
    with pytest.raises(ValueError):
        ModulatingProcessSpec(ProcessKind.WHITE, 0.0)
    with pytest.raises(ValueError):
        ModulatingProcessSpec(ProcessKind.AR1, 1.0, 1.0)
    with pytest.raises(ValueError):
        ModulatingProcessSpec(ProcessKind.WHITE, 1.0, 0.5)
    # a finite innovation variance whose AR(1) marginal one, about 5e311, is not
    with pytest.raises(ValueError, match="process marginal variance overflows float64"):
        ModulatingProcessSpec(ProcessKind.AR1, 1e300, 1 - 1e-12)
    for variance in (math.inf, math.nan):
        with pytest.raises(ValueError):
            ModulatingProcessSpec(ProcessKind.WHITE, variance)
    with pytest.raises(ValueError):
        ModulatingProcessSpec("pink", 1.0)
    # string kinds coerce through the enum, whatever their case
    assert ModulatingProcessSpec("white", 1.0).kind is ProcessKind.WHITE
    assert ModulatingProcessSpec("AR1", 1.0, 0.5).kind is ProcessKind.AR1


def test_omega_stored_mod_two_pi():
    c = comp(1, 1, 2 * math.pi + 0.25)
    assert c.omega == pytest.approx(0.25)
    assert 0 <= comp(1, 1, -0.25).omega < 2 * math.pi


# --- index ranges ------------------------------------------------------------

@pytest.mark.parametrize(
    "ab,dims,expected",
    [
        ((3, 2), (15, 15), (0, 70)),
        ((3, -2), (15, 15), (-28, 42)),
        ((0, 1), (4, 4), (0, 3)),
        ((1, 0), (9, 4), (0, 8)),
        ((1, -3), (5, 7), (-18, 4)),
    ],
)
def test_modulating_indices_cases(ab, dims, expected):
    assert modulating_indices(make_slope_pair(*ab), LatticeRect(*dims)) == expected


@pytest.mark.parametrize("ab", [(0, 1), (1, 0), (1, 2), (2, -3), (3, 2), (3, -2)])
def test_index_range_covers_exactly_the_attained_values(ab):
    slope = make_slope_pair(*ab)
    rect = LatticeRect(6, 5)
    k_min, k_max = modulating_indices(slope, rect)
    attained = {n * slope.a + m * slope.b for (n, m) in np.ndindex(rect.N, rect.M)}
    assert min(attained) == k_min
    assert max(attained) == k_max
    assert k_max - k_min + 1 == (rect.N - 1) * abs(slope.a) + (rect.M - 1) * abs(slope.b) + 1


@pytest.mark.parametrize("size", [1, 2, 40, 2560])
def test_ar1_covariance_gathered_by_lag_is_the_entrywise_power(size):
    # the powers are taken once per lag, not once per entry: the same floats
    lags = np.abs(np.arange(size)[:, None] - np.arange(size)[None, :])
    for ar in (-0.9, 0.55):
        want = 1.7 * ar ** lags / (1.0 - ar * ar)
        assert np.array_equal(process_covariance(AR1(1.7, ar), size), want)


# --- each block's Cholesky factor ---------------------------------------------

def cholesky_of(spec, n):
    # slope (0, 1) on a 1 x n lattice reads n consecutive process samples
    return assemble_gamma([comp(0, 1, 0.0, spec)], LatticeRect(1, n)).blocks[0].lower


@pytest.mark.parametrize("n", [1, 2, 40])
@pytest.mark.parametrize("ar", [-0.9, -0.3, 0.55, 0.9, 0.99999])
def test_cholesky_is_the_ar1_recursion_map(ar, n):
    # the closed form x[0] = s * u[0] / sqrt(1 - ar^2), x[k] = ar * x[k-1] + s * u[k]
    # is x = L u; LAPACK's factor of the Toeplitz R is the oracle
    for variance in (1e-300, 1.7, 1e300):
        want = np.linalg.cholesky(process_covariance(AR1(variance, ar), n))
        got = cholesky_of(AR1(variance, ar), n)
        assert np.array_equal(np.triu(got, 1), np.zeros((n, n)))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("n", [1, 2, 40])
def test_cholesky_of_white_process_is_scaled_identity(n):
    got = cholesky_of(WHITE(2.5), n)
    np.testing.assert_allclose(got, np.sqrt(2.5) * np.eye(n), rtol=0, atol=1e-12)


# --- synthesis ---------------------------------------------------------------

def recursion_synthesis(components, rect, trials, seed, noise_power=0.0, real_valued=False):
    """Independent reference: the same streams and draws, each process run
    sample by sample through its AR(1) recursion."""
    out = np.zeros((trials, rect.size), dtype=np.float64 if real_valued else np.complex128)
    for q, c in enumerate(components):
        rows, length, coords = lattice_map(c, rect)
        rng = np.random.default_rng([seed, 1, q])
        if real_valued:
            carriers = (np.cos(c.omega * coords), np.sin(c.omega * coords))
        else:
            carriers = (np.exp(1j * c.omega * coords),)
        for carrier in carriers:
            shape = (trials, length)
            if real_valued:
                unit = rng.standard_normal(shape)
            else:
                unit = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
            scale = np.sqrt(c.process.variance)
            ar = c.process.ar_coefficient
            s = np.empty_like(unit)
            s[:, 0] = unit[:, 0] * scale / np.sqrt(1.0 - ar * ar)
            for k in range(1, length):
                s[:, k] = ar * s[:, k - 1] + scale * unit[:, k]
            out += s[:, rows] * carrier
    if noise_power > 0.0:
        rng = np.random.default_rng([seed, 2])
        shape = (trials, rect.size)
        noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        out += np.sqrt(noise_power / 2.0) * noise
    return out


SYNTHESIS_COMPS = [
    comp(1, 1, 0.9, WHITE(1.5)),
    comp(2, -1, 2.0, AR1(1.0, 0.55)),
    comp(0, 1, 1.3, AR1(2.0, -0.9)),
    comp(3, 2, 0.4, AR1(0.5, 0.3)),
]


@pytest.mark.parametrize(
    "real_valued, noise_power",
    [(False, 0.0), (False, 0.5), (True, 0.0)],
    ids=["complex", "complex-noise", "real"],
)
def test_synthesis_matches_the_recursion(real_valued, noise_power):
    rect = LatticeRect(9, 7)
    got = synthesize_batch(assemble_gamma(SYNTHESIS_COMPS, rect, real_valued), 16, 11, noise_power)
    want = recursion_synthesis(SYNTHESIS_COMPS, rect, 16, 11, noise_power, real_valued)
    assert got.dtype == want.dtype
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def single_loop_synthesis(model, trials, seed, noise_power=0.0):
    """The synthesis as one loop, before its draw and scatter stages were
    split: per carrier a unit draw, divided by sqrt(2) when complex, coloured
    by L, gathered into a term buffer and added up; then the noise."""
    out = np.zeros((trials, model.rect.size), dtype=model.dtype)
    term = np.empty_like(out)
    for q, block in enumerate(model.blocks):
        lower = block.lower
        shape = (trials, lower.shape[0])
        rng = np.random.default_rng([seed, 1, q])
        for carrier in block.carriers:
            if model.real_valued:
                unit = rng.standard_normal(shape)
            else:
                unit = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
            np.take(unit @ lower.T, block.rows, axis=1, out=term, mode="clip")
            term *= np.conj(carrier)
            out += term
    if noise_power > 0.0:
        rng = np.random.default_rng([seed, 2])
        scale = np.sqrt(noise_power / 2.0)
        draw = np.empty((trials, model.rect.size))
        for part in (out.real, out.imag):
            rng.standard_normal(out=draw)
            draw *= scale
            part += draw
    return out


@pytest.mark.parametrize(
    "real_valued, noise_power",
    [(False, 0.0), (False, 0.5), (True, 0.0)],
    ids=["complex", "complex-noise", "real"],
)
@pytest.mark.parametrize("trials", [1, 16, 300])
def test_synthesis_is_the_single_loop_bit_for_bit(trials, real_valued, noise_power):
    for comps in (SYNTHESIS_COMPS, []):
        model = assemble_gamma(comps, LatticeRect(9, 7), real_valued)
        got = synthesize_batch(model, trials, 11, noise_power)
        want = single_loop_synthesis(model, trials, 11, noise_power)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("trials", [1, 512])
def test_complex_draws_are_the_divided_draws_bit_for_bit(trials):
    # the draw stage scales by 1 / sqrt(2), the product numpy's complex division takes
    model = assemble_gamma(SYNTHESIS_COMPS, LatticeRect(9, 7))
    lines = draw_lines(model, trials, 5)
    lo = 0
    for q, block in enumerate(model.blocks):
        rng = np.random.default_rng([5, 1, q])
        shape = (trials, block.length)
        unit = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
        assert lines[:, lo:lo + block.length].tobytes() == (unit @ block.lower.T).tobytes()
        lo += block.length
    assert lo == lines.shape[1]


def test_seeded_synthesis_is_bit_identical():
    c = comp(3, 2, 0.7, AR1(1.0, 0.6))
    rect = LatticeRect(8, 8)
    x = field([c], rect, seed=42)
    y = field([c], rect, seed=42)
    assert np.array_equal(x, y)
    # a different seed gives an independent draw
    z = field([c], rect, seed=43)
    assert not np.array_equal(x, z)


@pytest.mark.parametrize("ab", [(0, 1), (1, 0), (1, 1), (3, 2), (3, -2), (2, -1)])
def test_replication_along_shift_direction(ab):
    # moving by t*(b, -a) keeps the modulating sample and rotates the phase
    # by exp(-1j * sigma * omega * t)
    omega = 1.234
    c = comp(*ab, omega, AR1(2.0, 0.4))
    rect = LatticeRect(9, 9)
    values = field([c], rect, seed=3)
    slope = c.slope
    for n, m in np.ndindex(rect.N, rect.M):
        for t in (-2, -1, 1, 2):
            n2, m2 = n + t * slope.b, m - t * slope.a
            if not rect.contains(n2, m2):
                continue
            expected = values[n, m] * np.exp(-1j * slope.sigma * omega * t)
            assert abs(values[n2, m2] - expected) <= 1e-12 * abs(expected)


def test_vertical_component_is_steered_across_rows():
    # (0, 1): row n repeats row 0 rotated by exp(1j * omega * n)
    omega = 0.9
    c = comp(0, 1, omega)
    rect = LatticeRect(6, 5)
    values = field([c], rect, seed=7)
    for n in range(rect.N):
        expected = values[0] * np.exp(1j * omega * n)
        assert np.allclose(values[n], expected, rtol=1e-12, atol=0)


def test_diagonal_component_constant_on_antidiagonals():
    # (1, 1) has companion (0, 1): dividing out exp(1j*omega*m) leaves a
    # function of n + m alone
    omega = 0.6
    c = comp(1, 1, omega)
    rect = LatticeRect(6, 6)
    values = field([c], rect, seed=11)
    m_idx = np.arange(rect.M)
    stripped = values * np.exp(-1j * omega * m_idx)[None, :]
    for s in range(rect.N + rect.M - 1):
        cells = [stripped[n, s - n] for n in range(rect.N) if 0 <= s - n < rect.M]
        assert np.allclose(cells, cells[0], rtol=1e-12, atol=0)


def test_real_component_is_real_and_seed_split():
    c = comp(2, 1, 0.8, AR1(1.0, 0.3))
    rect = LatticeRect(7, 7)
    values = field([c], rect, seed=5, real_valued=True)
    assert np.isrealobj(values)
    assert np.array_equal(values, field([c], rect, seed=5, real_valued=True))
    # omega = 0 collapses the sine carrier: the field reduces to the cosine
    # process replicated along lines, still real and deterministic
    flat = field([comp(2, 1, 0.0, AR1(1.0, 0.3))], rect, seed=5, real_valued=True)
    k = np.add.outer(2 * np.arange(rect.N), np.arange(rect.M))
    assert np.allclose(flat[k == 3], flat[k == 3][0])
    # on the line k == 3, (0, 3) and (1, 1) read the same sample of the
    # cosine and of the sine process; solving for the two gives two draws
    v = np.add.outer(np.arange(rect.N), np.arange(rect.M))  # companion (1, 1)
    carriers = [[np.cos(0.8 * v[p]), np.sin(0.8 * v[p])] for p in ((0, 3), (1, 1))]
    s, t = np.linalg.solve(carriers, [values[0, 3], values[1, 1]])
    assert abs(s - t) > 1e-6


def test_sum_requires_distinct_triples():
    rect = LatticeRect(4, 4)
    a = comp(1, 1, 0.5, WHITE(1.0))
    b = comp(1, 1, 0.5, WHITE(2.0))
    with pytest.raises(ValueError):
        field([a, b], rect)
    # same slope, different frequency is a legal pair; each component's draw
    # depends only on the seed and its position in the list
    c = comp(1, 1, 1.5, WHITE(2.0))
    other = comp(2, -1, 0.3, AR1(1.0, 0.5))
    second = field([other, c], rect) - field([other], rect)
    expected = field([a], rect) + second
    # (x + c) - x recovers c to a few ulps of |x| + |c|, all of order one
    assert np.allclose(field([a, c], rect), expected, rtol=0, atol=1e-14)


def test_empty_sum_is_zero_field():
    out = field([], LatticeRect(3, 3))
    assert out.shape == (3, 3)
    assert np.all(out == 0)


def test_sample_mean_and_power_converge():
    c = comp(1, 2, 1.1, WHITE(2.0))
    rect = LatticeRect(4, 4)
    trials = 20000
    snaps = synthesize_batch(assemble_gamma([c], rect), trials, seed=13)
    mean = np.abs(snaps.mean(axis=0)).max()
    assert mean < 5 * math.sqrt(2.0 / trials)
    power = np.mean(np.abs(snaps) ** 2)
    assert power == pytest.approx(2.0, rel=0.05)


def test_ar1_empirical_autocovariance_matches_model():
    spec = AR1(0.75, 0.5)
    c = comp(1, 0, 0.0, spec)
    rect = LatticeRect(40, 1)  # field along a line IS the process
    snaps = synthesize_batch(assemble_gamma([c], rect), 20000, seed=21)
    autocov = process_covariance(spec, 4)[0]
    for lag in range(4):
        emp = np.mean(snaps[:, lag:] * np.conj(snaps[:, : rect.N - lag])).real
        assert emp == pytest.approx(autocov[lag], abs=0.03)


@settings(deadline=None, max_examples=30)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    omega=st.floats(min_value=0.0, max_value=6.28),
)
def test_batch_determinism_property(seed, omega):
    comps, rect = [comp(2, 1, omega)], LatticeRect(3, 3)
    x = synthesize_batch(assemble_gamma(comps, rect), 4, seed)
    y = synthesize_batch(assemble_gamma(comps, rect), 4, seed)
    assert np.array_equal(x, y)


@pytest.mark.parametrize(
    "trials, noise_power, real_valued, message",
    [(0, 0.0, False, "trials must be positive"),
     (-3, 0.0, True, "trials must be positive"),
     (4, 0.5, True, "snapshot noise is circular complex"),
     (4, -1.0, False, "noise power must be non-negative and finite"),
     (4, math.nan, False, "noise power must be non-negative and finite"),
     (4, -math.inf, False, "noise power must be non-negative and finite"),
     (4, math.inf, False, "noise power must be non-negative and finite")],
    ids=["no-trials", "negative-trials", "noise-on-real",
         "noise-negative", "noise-nan", "noise-minus-inf", "noise-inf"],
)
def test_synthesis_refusals_come_before_any_draw(monkeypatch, trials, noise_power, real_valued,
                                                 message):
    model = assemble_gamma([comp(2, 1, 0.7, AR1(1.0, 0.5))], LatticeRect(4, 4), real_valued)

    def no_draws(*args, **kwargs):
        raise AssertionError("drew snapshots for a refused request")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    with pytest.raises(ValueError, match=message):
        synthesize_batch(model, trials, 1, noise_power)


@pytest.mark.parametrize("processes, noise_power, tiny", [
    ((WHITE(4e-320),), 0.0, 4e-320),
    ((WHITE(1.0), AR1(1e-310, 0.9999999)), 0.0, 1e-310),
    ((WHITE(1.0),), 3e-310, 3e-310),
], ids=["variance", "ar1-innovation", "noise"])
def test_subnormal_power_is_refused(processes, noise_power, tiny):
    # a subnormal variance, innovation or noise power would draw subnormal snapshots
    comps = [comp(1, k, 0.5, process) for k, process in enumerate(processes)]
    with pytest.raises(ValueError, match=f"snapshot power underflows float64: {tiny:g} is below "):
        _refuse_overflow(comps, LatticeRect(4, 4), 8, noise_power)
    normal = [comp(1, k, 0.5, WHITE(2.3e-308)) for k in range(len(processes))]
    _refuse_overflow(normal, LatticeRect(4, 4), 8, noise_power and 2.3e-308)
