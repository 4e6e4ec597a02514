import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evarank.fields import EvanescentComponent, ModulatingProcessSpec, ProcessKind, lattice_map
from evarank.lattice import LatticeRect, SlopePair, make_slope_pair
from evarank.rank import find_certificate

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
    "a,b,message",
    [pytest.param(a, b, message, id=f"{a}-{b}") for a, b, message in [
        (-1, 2, "slope component a must be non-negative"),
        (0, 2, r"vertical slope must be \(0, 1\)"),
        (0, -1, r"vertical slope must be \(0, 1\)"),
        (0, 0, r"vertical slope must be \(0, 1\)"),
        (2, 4, r"slope pair \(2, 4\) is not coprime"),
        (3, 6, r"slope pair \(3, 6\) is not coprime"),
        (2, 0, r"slope pair \(2, 0\) is not coprime"),
    ]],
)
def test_invalid_slopes_rejected(a, b, message):
    # make_slope_pair computes the companion only; SlopePair names the fault
    with pytest.raises(ValueError, match=message):
        make_slope_pair(a, b)


@pytest.mark.parametrize("fields, error, message", [
    ((1, 2, 0.0, 1), TypeError, "slope pair field c must be an int"),
    ((1, 1 << 21, 0, 1), ValueError, "coordinate magnitude 2097152 exceeds supported limit 1048576"),
    ((3, 2, 1, 2), ValueError, r"companion determinant a\*d - b\*c = 4, expected 1 for slope \(3, 2\)"),
    ((0, 1, 0, 1), ValueError, r"companion determinant a\*d - b\*c = 0, expected -1 for slope \(0, 1\)"),
], ids=["non-int-field", "beyond-limit", "wrong-determinant", "vertical-wrong-determinant"])
def test_slope_pair_checks_its_own_fields(fields, error, message):
    with pytest.raises(error, match=message):
        SlopePair(*fields)


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


# --- the (m, -n) order of the canonical certificate --------------------------

def _precedes_in_order(p1, p2):
    """p1 strictly before p2 in the (m, -n) order verify checks certificates in."""
    return (p1[1], -p1[0]) < (p2[1], -p2[0])


def test_vertical_order_is_lexicographic():
    # a (0, 1) certificate keeps m and raises n, so its term sorts before the
    # target on the -n key alone
    rect = LatticeRect(4, 4)
    cert = find_certificate((1, 2), [_component(make_slope_pair(0, 1))], rect)
    assert [p for p, _ in cert.terms] == [(2, 2)]
    assert _precedes_in_order((2, 2), (1, 2))
    assert not _precedes_in_order((1, 2), (2, 2))
    assert not _precedes_in_order((1, 2), (1, 2))  # strict


def test_horizontal_order_matches_column_major_lex():
    # a (1, 0) certificate lowers m, so its term sorts before the target on
    # the m key, whatever n is
    rect = LatticeRect(4, 4)
    cert = find_certificate((1, 2), [_component(make_slope_pair(1, 0))], rect)
    assert [p for p, _ in cert.terms] == [(1, 1)]
    for k in range(-2, 3):
        for l in range(-2, 3):
            expected = l < 0 or (l == 0 and k > 0)
            assert _precedes_in_order((1 + k, 2 + l), (1, 2)) == expected


# --- shifts along a slope line ------------------------------------------------

def _component(slope):
    return EvanescentComponent(slope, 0.5, ModulatingProcessSpec(ProcessKind.WHITE))


def _line_family(point, slope, rect):
    """The points lattice_map gives `point`'s process row: its slope line."""
    rows, _, _ = lattice_map(_component(slope), rect)
    row = rows[point[0] * rect.M + point[1]]
    return {q for q, r in zip(np.ndindex(rect.N, rect.M), rows) if r == row}


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
    for point in np.ndindex(rect.N, rect.M):
        n, m = point
        assert _line_family(point, slope, rect) == {
            (n + t * slope.b, m - t * slope.a) for t in _brute_force_shifts(point, slope, rect)
        }


def test_shifts_always_contain_zero():
    # the zero shift: every point lies on its own line
    rect = LatticeRect(5, 5)
    for a, b in SMALL_SLOPES:
        slope = make_slope_pair(a, b)
        for point in np.ndindex(rect.N, rect.M):
            assert 0 in _brute_force_shifts(point, slope, rect)
            assert point in _line_family(point, slope, rect)


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
        for p in np.ndindex(rect.N, rect.M):
            family = {
                (p[0] + t * slope.b, p[1] - t * slope.a)
                for t in _brute_force_shifts(p, slope, rect)
            }
            same_index = {
                q for q in np.ndindex(rect.N, rect.M)
                if q[0] * a + q[1] * b == p[0] * a + p[1] * b
            }
            assert family == same_index


# --- rectangle helpers -------------------------------------------------------

def test_vec_index_is_row_major():
    # lattice_map vectorizes n-major: (1, 0) rows read n, (0, 1) rows read m
    rect = LatticeRect(3, 4)
    rows, _, _ = lattice_map(_component(make_slope_pair(1, 0)), rect)
    assert rows.tolist() == [n for n in range(3) for _ in range(4)]
    rows, _, _ = lattice_map(_component(make_slope_pair(0, 1)), rect)
    assert rows.tolist() == list(range(4)) * 3


def test_rect_validation():
    with pytest.raises(ValueError):
        LatticeRect(0, 4)
    with pytest.raises(TypeError):
        LatticeRect(3.0, 4)  # type: ignore[arg-type]
