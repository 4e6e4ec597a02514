"""Integer lattice geometry: slope pairs and the lattice rectangle.

Everything downstream (field synthesis, covariance structure, rank counting)
reduces to arithmetic on a coprime slope pair (a, b) over a finite N-by-M
lattice rectangle, so the primitives live here and stay dependency-free.
The points of the rectangle on one line of a slope are the shifts
(n + t*b, m - t*a) of any one of them, along which the line index n*a + m*b
is constant: `fields.lattice_map` gives them one process row, and
`rank.find_certificate` shifts by one step along each line.
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
        if det != self.sigma:
            raise ValueError(
                f"companion determinant a*d - b*c = {det}, expected {self.sigma} "
                f"for slope ({self.a}, {self.b})"
            )

    @property
    def sigma(self) -> int:
        """Companion determinant a*d - b*c, either +1 or -1."""
        return -1 if (self.a, self.b) == (0, 1) else 1


def make_slope_pair(a: int, b: int) -> SlopePair:
    """Builds the canonical slope pair for direction (a, b).

    The companion is the unique solution of a*d - b*c = 1 with 0 <= c < a
    when a > 1, and (0, 1) when a == 1.  The two axis directions keep their
    fixed companions: (0, 1) -> (1, 0) and (1, 0) -> (0, 1).  Only the
    companion is computed here; `SlopePair` checks the pair.

    Raises:
        TypeError: if a or b is not an int.
        ValueError: if a < 0, gcd(|a|, |b|) != 1, or (a, b) == (0, b) with
            b != 1.
    """
    if not isinstance(a, int) or not isinstance(b, int):
        raise TypeError("slope components must be ints")
    if a == 0:
        return SlopePair(0, b, 1, 0)
    # a*d = 1 + b*c demands c = -b^{-1} mod a; coprimality makes b invertible.
    # Any other pair gets c = 0, for SlopePair to refuse.
    c = (-pow(b % a, -1, a)) % a if a > 1 and math.gcd(a, b) == 1 else 0
    return SlopePair(a, b, c, (1 + b * c) // a)


@dataclass(frozen=True)
class LatticeRect:
    """Finite index rectangle D = {0..N-1} x {0..M-1}, vectorized row-major:
    point (n, m) has index n*M + m."""

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
