import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evarank.fields import EvanescentComponent, ModulatingProcessSpec, ProcessKind, lattice_map
from evarank.lattice import LatticeRect, SlopePair, make_slope_pair, rnshp_precedes
from evarank.rank import find_certificate, shift_tuple_admissible

# Every coprime direction with |a|, |b| <= 3; wide enough to hit the axis
# conventions, both b signs, and the a > 1 canonical-companion branch.
SMALL_SLOPES = [
    (0, 1), (1, 0), (1, 1), (1, -1), (1, 2), (1, -2), (1, 3), (1, -3),
    (2, 1), (2, -1), (2, 3), (2, -3), (3, 1), (3, -1), (3, 2), (3, -2),
]


# --- slope pair construction -------------------------------------------------

def test_axis_conventions_are_fixed():
    assert make_slope_pair(0, 1) == SlopePair(0, 1, 1, 0)
    assert make_slope_pair(1, 0) == SlopePair(1, 0, 0, 1)


def test_known_companions():
    assert (make_slope_pair(3, 2).c, make_slope_pair(3, 2).d) == (1, 1)
    assert (make_slope_pair(3, -2).c, make_slope_pair(3, -2).d) == (2, -1)
    assert (make_slope_pair(2, 1).c, make_slope_pair(2, 1).d) == (1, 1)
    assert (make_slope_pair(2, -1).c, make_slope_pair(2, -1).d) == (1, 0)
    assert (make_slope_pair(5, 3).c, make_slope_pair(5, 3).d) == (3, 2)


@pytest.mark.parametrize("a,b", SMALL_SLOPES)
def test_companion_identity_exact(a, b):
    s = make_slope_pair(a, b)
    det = s.a * s.d - s.b * s.c
    # The vertical direction keeps the fixed companion (1, 0), whose
    # determinant is -1; every other pair satisfies a*d - b*c = 1.
    assert det == s.sigma
    assert abs(det) == 1
    if a > 1:
        assert 0 <= s.c < a


@pytest.mark.parametrize(
    "a,b",
    [(-1, 2), (0, 2), (0, -1), (0, 0), (2, 4), (3, 6), (2, 0)],
)
def test_invalid_slopes_rejected(a, b):
    with pytest.raises((ValueError, TypeError)):
        make_slope_pair(a, b)


def test_non_integer_slope_rejected():
    with pytest.raises(TypeError):
        make_slope_pair(1.0, 2)  # type: ignore[arg-type]


def test_companion_sibling_stays_valid():
    # (c + k*a, d + k*b) keeps a*d - b*c, so SlopePair accepts every sibling
    s = make_slope_pair(3, 2)
    for k in (-2, -1, 1, 5):
        sib = SlopePair(s.a, s.b, s.c + k * s.a, s.d + k * s.b)
        assert sib.a * sib.d - sib.b * sib.c == 1
        assert (sib.a, sib.b) == (3, 2)


@settings(deadline=None, max_examples=200)
@given(a=st.integers(min_value=0, max_value=50), b=st.integers(min_value=-50, max_value=50))
def test_companion_identity_property(a, b):
    if a == 0 and b != 1:
        return
    if (a, b) == (0, 0) or math.gcd(a, b) != 1:
        return
    s = make_slope_pair(a, b)
    assert s.a * s.d - s.b * s.c == s.sigma


# --- half-plane total order --------------------------------------------------

def _order_matrix(points, slope):
    rows = []
    for p in points:
        rows.append([rnshp_precedes(p, q, slope) for q in points])
    return np.array(rows, dtype=bool)


@pytest.mark.parametrize("a,b", SMALL_SLOPES)
def test_rnshp_is_a_total_order(a, b):
    slope = make_slope_pair(a, b)
    points = [(n, m) for n in range(-3, 4) for m in range(-3, 4)]
    prec = _order_matrix(points, slope)
    # reflexive
    assert prec.diagonal().all()
    # antisymmetric: both directions only on the diagonal
    both = prec & prec.T
    assert np.array_equal(both, np.eye(len(points), dtype=bool))
    # total: at least one direction for every pair
    assert (prec | prec.T).all()
    # transitive: reachable-in-two implies reachable-in-one
    two_step = (prec.astype(int) @ prec.astype(int)) > 0
    assert not np.any(two_step & ~prec)


def test_vertical_order_is_lexicographic():
    slope = make_slope_pair(0, 1)
    assert rnshp_precedes((0, -1), (0, 0), slope)  # previous column
    assert rnshp_precedes((0, 0), (0, 0), slope)   # reflexive
    assert rnshp_precedes((5, -1), (0, 0), slope)
    assert not rnshp_precedes((0, 1), (0, 0), slope)


def test_horizontal_order_matches_column_major_lex():
    slope = make_slope_pair(1, 0)
    # (k, l) precedes (n, m) iff k < n, or k == n and l <= m
    for k in range(-2, 3):
        for l in range(-2, 3):
            expected = (k < 0) or (k == 0 and l <= 0)
            assert rnshp_precedes((k, l), (0, 0), slope) == expected


def test_strictness_dichotomy():
    # for p1 != p2 exactly one direction holds
    points = [(n, m) for n in range(-3, 4) for m in range(-3, 4)]
    for a, b in SMALL_SLOPES:
        slope = make_slope_pair(a, b)
        prec = _order_matrix(points, slope)
        off = ~np.eye(len(points), dtype=bool)
        assert np.array_equal(prec & off, ~prec.T & off)


# --- shifts along a slope line ------------------------------------------------

def _component(slope):
    return EvanescentComponent(slope, 0.5, ModulatingProcessSpec(ProcessKind.WHITE))


def _line_family(point, slope, rect):
    """The points lattice_map gives `point`'s process row: its slope line."""
    rows, _, _ = lattice_map(_component(slope), rect)
    row = rows[rect.vec_index(*point)]
    return {q for q, r in zip(rect.points(), rows) if r == row}


def _brute_force_shifts(point, slope, rect):
    n, m = point
    out = []
    for t in range(-(rect.N + rect.M), rect.N + rect.M + 1):
        if rect.contains(n + t * slope.b, m - t * slope.a):
            out.append(t)
    return out


@pytest.mark.parametrize("a,b", SMALL_SLOPES)
@pytest.mark.parametrize("dims", [(1, 1), (4, 4), (3, 7), (6, 2)])
def test_shifts_match_brute_force(a, b, dims):
    slope = make_slope_pair(a, b)
    rect = LatticeRect(*dims)
    for point in rect.points():
        n, m = point
        assert _line_family(point, slope, rect) == {
            (n + t * slope.b, m - t * slope.a) for t in _brute_force_shifts(point, slope, rect)
        }


def test_shifts_always_contain_zero():
    rect = LatticeRect(5, 5)
    for a, b in SMALL_SLOPES:
        slope = make_slope_pair(a, b)
        for point in rect.points():
            assert shift_tuple_admissible(point, (0,), [_component(slope)], rect)


def test_vertical_shift_family_walks_the_row():
    # (0, 1) moves n by t and leaves m alone, so from the origin of a 4x4
    # lattice all four columns of row m=0 are reachable
    rect = LatticeRect(4, 4)
    assert _line_family((0, 0), make_slope_pair(0, 1), rect) == {(t, 0) for t in range(4)}


def test_shift_example_diagonal():
    rect = LatticeRect(4, 4)
    slope = make_slope_pair(1, 1)
    # from (0, 3): (t, 3 - t) stays inside for t in 0..3
    assert _line_family((0, 3), slope, rect) == {(t, 3 - t) for t in range(4)}
    # from (0, 0): (t, -t) leaves immediately in both directions
    assert _line_family((0, 0), slope, rect) == {(0, 0)}


def test_shift_point_outside_rect_rejected():
    rect = LatticeRect(4, 4)
    with pytest.raises(ValueError):
        find_certificate((4, 0), [_component(make_slope_pair(1, 1))], rect)


def test_shifts_partition_equal_line_index():
    # two points share a modulating index iff one is a shift of the other
    rect = LatticeRect(5, 6)
    for a, b in SMALL_SLOPES:
        slope = make_slope_pair(a, b)
        for p in rect.points():
            family = {
                (p[0] + t * slope.b, p[1] - t * slope.a)
                for t in _brute_force_shifts(p, slope, rect)
            }
            same_index = {
                q for q in rect.points()
                if slope.column_index(*q) == slope.column_index(*p)
            }
            assert family == same_index


# --- rectangle helpers -------------------------------------------------------

def test_vec_index_is_row_major():
    rect = LatticeRect(3, 4)
    assert [rect.vec_index(n, m) for (n, m) in rect.points()] == list(range(12))
    assert rect.vec_index(1, 2) == 1 * 4 + 2


def test_rect_validation():
    with pytest.raises(ValueError):
        LatticeRect(0, 4)
    with pytest.raises(TypeError):
        LatticeRect(3.0, 4)  # type: ignore[arg-type]
