"""Integer lattice geometry: slope pairs, half-plane total orders, Diophantine shifts.

Everything downstream (field synthesis, covariance structure, rank counting)
reduces to arithmetic on a coprime slope pair (a, b) over a finite N-by-M
lattice rectangle, so the primitives live here and stay dependency-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Keeps every index expression (n*a + m*b, row counts, vector offsets) far
# inside int64 range even after multiplication by lattice dimensions.
_COORD_LIMIT = 1 << 20


def _validate_coord_width(*values: int) -> None:
    for v in values:
        if abs(v) > _COORD_LIMIT:
            raise ValueError(f"coordinate magnitude {v} exceeds supported limit {_COORD_LIMIT}")


@dataclass(frozen=True)
class SlopePair:
    """Coprime direction (a, b) with its Bezout companion (c, d).

    The companion satisfies a*d - b*c = 1 for every pair with a >= 1.  The
    vertical direction (0, 1) uses the fixed companion (1, 0), for which the
    determinant is -1; `sigma` exposes whichever sign holds so phase
    bookkeeping downstream can stay exact.
    """

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "d"):
            if not isinstance(getattr(self, name), int):
                raise TypeError(f"slope pair field {name} must be an int")
        _validate_coord_width(self.a, self.b, self.c, self.d)
        if self.a < 0:
            raise ValueError("slope component a must be non-negative")
        if self.a == 0 and self.b != 1:
            raise ValueError("vertical slope must be (0, 1)")
        if math.gcd(self.a, self.b) != 1:
            raise ValueError(f"slope pair ({self.a}, {self.b}) is not coprime")
        det = self.a * self.d - self.b * self.c
        expected = -1 if (self.a, self.b) == (0, 1) else 1
        if det != expected:
            raise ValueError(
                f"companion determinant a*d - b*c = {det}, expected {expected} "
                f"for slope ({self.a}, {self.b})"
            )

    @property
    def sigma(self) -> int:
        """Companion determinant a*d - b*c, either +1 or -1."""
        return -1 if (self.a, self.b) == (0, 1) else 1

    def column_index(self, n: int, m: int) -> int:
        """Index of the lattice line through (n, m): constant along (b, -a)."""
        return n * self.a + m * self.b

    def companion_sibling(self, k: int) -> "SlopePair":
        """Another valid companion: (c, d) -> (c + k*a, d + k*b)."""
        return SlopePair(self.a, self.b, self.c + k * self.a, self.d + k * self.b)


def make_slope_pair(a: int, b: int) -> SlopePair:
    """Builds the canonical slope pair for direction (a, b).

    The companion is the unique solution of a*d - b*c = 1 with 0 <= c < a
    when a > 1, and (0, 1) when a == 1.  The two axis directions keep their
    fixed companions: (0, 1) -> (1, 0) and (1, 0) -> (0, 1).

    Raises:
        ValueError: if a < 0, gcd(|a|, |b|) != 1, or (a, b) == (0, b) with
            b != 1.
    """
    if not isinstance(a, int) or not isinstance(b, int):
        raise TypeError("slope components must be ints")
    if a < 0:
        raise ValueError("slope component a must be non-negative")
    if (a, b) == (0, 0):
        raise ValueError("slope pair (0, 0) is not a direction")
    if a == 0:
        if b != 1:
            raise ValueError("vertical slope must be normalized to (0, 1)")
        return SlopePair(0, 1, 1, 0)
    if math.gcd(a, b) != 1:
        raise ValueError(f"slope pair ({a}, {b}) is not coprime")
    if a == 1:
        return SlopePair(1, b, 0, 1)
    # a*d = 1 + b*c demands c = -b^{-1} mod a; coprimality makes b invertible.
    c = (-pow(b % a, -1, a)) % a
    d = (1 + b * c) // a
    return SlopePair(a, b, c, d)


@dataclass(frozen=True)
class LatticeRect:
    """Finite index rectangle D = {0..N-1} x {0..M-1}, vectorized row-major."""

    N: int
    M: int

    def __post_init__(self) -> None:
        if not isinstance(self.N, int) or not isinstance(self.M, int):
            raise TypeError("lattice dimensions must be ints")
        if self.N < 1 or self.M < 1:
            raise ValueError("lattice dimensions must be positive")
        _validate_coord_width(self.N, self.M)

    @property
    def size(self) -> int:
        return self.N * self.M

    def contains(self, n: int, m: int) -> bool:
        return 0 <= n < self.N and 0 <= m < self.M

    def vec_index(self, n: int, m: int) -> int:
        """Position of (n, m) in the row-major stacking, n*M + m."""
        if not self.contains(n, m):
            raise ValueError(f"point ({n}, {m}) outside {self.N}x{self.M} lattice")
        return n * self.M + m

    def points(self):
        """All lattice points in vectorization order."""
        for n in range(self.N):
            for m in range(self.M):
                yield (n, m)


def rnshp_precedes(p1: tuple[int, int], p2: tuple[int, int], slope: SlopePair) -> bool:
    """True when p1 comes no later than p2 in the half-plane order of `slope`.

    The order compares the line index n*a + m*b first, then position along
    the tied line.  The published tie-break "m <= 0" identifies a unique half
    of the line whenever a > 0 but degenerates for (0, 1), where m is
    constant on the tied line; comparing n as a final key restores a genuine
    total order for every slope while agreeing with the original definition
    whenever that definition is unambiguous.
    """
    n = p1[0] - p2[0]
    m = p1[1] - p2[1]
    key = n * slope.a + m * slope.b
    if key != 0:
        return key < 0
    if m != 0:
        return m < 0
    return n <= 0


def _shift_bounds(x: int, step: int, hi: int) -> tuple[int, int]:
    # Integer t with 0 <= x + t*step <= hi; caller guarantees 0 <= x <= hi.
    if step == 0:
        return (-math.inf, math.inf)  # type: ignore[return-value]
    if step > 0:
        return (-(x // step), (hi - x) // step)
    step = -step
    return (-((hi - x) // step), x // step)


def diophantine_shifts(point: tuple[int, int], slope: SlopePair, rect: LatticeRect) -> list[int]:
    """All integers t for which (n + t*b, m - t*a) stays inside the rectangle.

    These are exactly the lattice points sharing the line index n*a + m*b
    with `point`; coprimality of (a, b) makes the parametrization complete.
    Always contains t = 0.

    Args:
        point: lattice point (n, m), must lie in `rect`.
        slope: direction whose line family is being traced.
        rect: lattice rectangle bounding the shifts.

    Returns:
        Sorted list of admissible shift integers.
    """
    n, m = point
    if not rect.contains(n, m):
        raise ValueError(f"point ({n}, {m}) outside {rect.N}x{rect.M} lattice")
    lo_n, hi_n = _shift_bounds(n, slope.b, rect.N - 1)
    lo_m, hi_m = _shift_bounds(m, -slope.a, rect.M - 1)
    lo = max(lo_n, lo_m)
    hi = min(hi_n, hi_m)
    # (a, b) != (0, 0), so at least one coordinate bounds t.
    return list(range(int(lo), int(hi) + 1))
