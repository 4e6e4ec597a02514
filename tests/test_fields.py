import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evarank.fields import (
    EvanescentComponent,
    ModulatingProcessSpec,
    ProcessKind,
    modulating_indices,
    synthesize_batch,
)
from evarank.lattice import LatticeRect, make_slope_pair

AR1 = lambda var, ar: ModulatingProcessSpec(ProcessKind.AR1, var, ar)
WHITE = lambda var: ModulatingProcessSpec(ProcessKind.WHITE, var, 0.0)


def comp(a, b, omega, process=None):
    return EvanescentComponent(make_slope_pair(a, b), omega, process or WHITE(1.0))


def field(components, rect, seed=0, real_valued=False):
    """One realization: a batch of one, reshaped to (N, M)."""
    batch = synthesize_batch(components, rect, 1, seed, real_valued=real_valued)
    return batch.reshape(rect.N, rect.M)


# --- process spec ------------------------------------------------------------

def test_process_spec_validation():
    with pytest.raises(ValueError):
        ModulatingProcessSpec(ProcessKind.WHITE, 0.0)
    with pytest.raises(ValueError):
        ModulatingProcessSpec(ProcessKind.AR1, 1.0, 1.0)
    with pytest.raises(ValueError):
        ModulatingProcessSpec(ProcessKind.WHITE, 1.0, 0.5)
    for variance in (math.inf, math.nan):
        with pytest.raises(ValueError):
            ModulatingProcessSpec(ProcessKind.WHITE, variance)
    with pytest.raises(ValueError):
        ModulatingProcessSpec("pink", 1.0)
    # string kinds coerce through the enum, whatever their case
    assert ModulatingProcessSpec("white", 1.0).kind is ProcessKind.WHITE
    assert ModulatingProcessSpec("AR1", 1.0, 0.5).kind is ProcessKind.AR1


def test_autocovariance_model_values():
    spec = AR1(0.75, 0.5)
    assert spec.autocovariance(0) == pytest.approx(1.0)
    assert spec.autocovariance(1) == pytest.approx(0.5)
    assert spec.autocovariance(-3) == pytest.approx(0.125)
    assert WHITE(2.0).autocovariance(0) == 2.0
    assert WHITE(2.0).autocovariance(4) == 0.0


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
    attained = {slope.column_index(n, m) for (n, m) in rect.points()}
    assert min(attained) == k_min
    assert max(attained) == k_max
    assert k_max - k_min + 1 == (rect.N - 1) * abs(slope.a) + (rect.M - 1) * abs(slope.b) + 1


# --- synthesis ---------------------------------------------------------------

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
    for n, m in rect.points():
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
    snaps = synthesize_batch([c], rect, trials, seed=13)
    mean = np.abs(snaps.mean(axis=0)).max()
    assert mean < 5 * math.sqrt(2.0 / trials)
    power = np.mean(np.abs(snaps) ** 2)
    assert power == pytest.approx(2.0, rel=0.05)


def test_ar1_empirical_autocovariance_matches_model():
    spec = AR1(0.75, 0.5)
    c = comp(1, 0, 0.0, spec)
    rect = LatticeRect(40, 1)  # field along a line IS the process
    snaps = synthesize_batch([c], rect, 20000, seed=21)
    for lag in range(4):
        emp = np.mean(snaps[:, lag:] * np.conj(snaps[:, : rect.N - lag])).real
        assert emp == pytest.approx(spec.autocovariance(lag), abs=0.03)


@settings(deadline=None, max_examples=30)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    omega=st.floats(min_value=0.0, max_value=6.28),
)
def test_batch_determinism_property(seed, omega):
    c = comp(2, 1, omega)
    rect = LatticeRect(3, 3)
    x = synthesize_batch([c], rect, 4, seed)
    y = synthesize_batch([c], rect, 4, seed)
    assert np.array_equal(x, y)
