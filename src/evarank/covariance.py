"""Exact covariance of a sum of evanescent components, kept as its factor.

Each component contributes Gamma_q = D_q^H A_q^T R_q A_q D_q, where A_q
gathers the short modulating process onto the lattice, D_q carries the
complex modulation, and R_q is the process covariance.  Stacking the
factors across components gives Gamma = C^H R C with R block-diagonal and
positive definite, so the rank of Gamma is exactly the rank of C.  The
factor blocks come from `fields.factor_block`, which synthesis shares; the
model stores only those blocks and derives Gamma from them on demand,
by an elementwise gather independent of the factored product, so that
identity can be checked rather than assumed.  The checks gather Gamma in
row tiles of its upper triangle and never hold it whole.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fields import EvanescentComponent, FactorBlock, check_distinct_triples, factor_block
from .lattice import LatticeRect

BINARY_MAGIC = b"EVCM0001"


@dataclass
class CovarianceModel:
    """Covariance of a component sum, stored as its sparse factor.

    `gamma` and `stacked` (every carrier's dense factor block, stacked) are
    built on first read, and gamma == stacked^H R stacked up to roundoff.
    `whitened_factor()` folds R into the factor: gamma == F^H F.
    """

    rect: LatticeRect
    components: list[EvanescentComponent]
    real_valued: bool
    blocks: list[FactorBlock]

    @property
    def dtype(self):
        return np.float64 if self.real_valued else np.complex128

    @cached_property
    def gamma(self) -> np.ndarray:
        """Gamma by elementwise gather, then made exactly Hermitian."""
        gamma = self._gamma_rows()(0, self.rect.size)
        gamma += gamma.conj().T
        gamma /= 2.0
        return gamma

    def _gamma_rows(self, unit: float = 1.0):
        """rows(lo, hi) -> Gamma[lo:hi, lo:] / unit, by elementwise gather.

        Per carrier w, Y = (cov / unit)[:, rows] * w is taken once, so
        Gamma[i, j] = sum over carriers of conj(w[i]) * Y[rows[i], j]: a row
        tile is a row gather, never a product.  `unit` is a power of two, so
        the division is exact.
        """
        size = self.rect.size
        parts = [
            ((block.cov / unit)[:, block.rows] * w, block.rows, np.conj(w))
            for block in self.blocks
            for w in block.carriers
        ]

        def rows(lo: int, hi: int) -> np.ndarray:
            tile = None
            for y, index, conj_w in parts:
                term = y[index[lo:hi], lo:]
                term *= conj_w[lo:hi, None]
                tile = term if tile is None else np.add(tile, term, out=tile)
            return np.zeros((hi - lo, size - lo), self.dtype) if tile is None else tile

        return rows

    @cached_property
    def stacked(self) -> np.ndarray:
        dense = [block.dense(w) for block in self.blocks for w in block.carriers]
        return np.vstack(dense) if dense else np.zeros((0, self.rect.size), dtype=self.dtype)

    def whitened_factor(self) -> np.ndarray:
        """F = blockdiag(L^H) C with cov = L L^H per block, so gamma == F^H F.

        Carrier block k is L^H[:, rows] * carrier: one row per process
        sample and carrier, sum(rows) by N*M in all.  Built on every call.
        """
        parts = []
        for block in self.blocks:
            upper = block.cholesky().T
            parts.extend(upper[:, block.rows] * w for w in block.carriers)
        return np.vstack(parts) if parts else np.zeros((0, self.rect.size), dtype=self.dtype)

    def factorization_residual(self, factor: np.ndarray) -> float:
        """Relative Frobenius gap between the gathered Gamma and F^H F, for
        the caller's F = whitened_factor(); F itself is left as it is."""
        unit = self._unit()
        # exact: unit is a power of four, and F^H F / unit cannot overflow
        return self._tiled_gap(lambda lo, hi: (factor[:, lo:hi] / unit).conj().T @ factor[:, lo:],
                               unit)

    def gap_to(self, matrix: np.ndarray) -> float:
        """||matrix - Gamma||_F / ||Gamma||_F for a Hermitian N*M x N*M
        matrix, without building Gamma; 0.0 when Gamma is zero."""
        unit = self._unit()
        return self._tiled_gap(lambda lo, hi: matrix[lo:hi, lo:] / unit, unit)

    def _unit(self) -> float:
        """A power of four within a factor of two of max diag Gamma, so that
        Gamma / unit has entries of order one at any variance."""
        diag = sum(
            (np.diagonal(block.cov)[block.rows] * np.abs(w) ** 2
             for block in self.blocks for w in block.carriers),
            np.zeros(self.rect.size),
        )
        half = min(max(math.frexp(float(diag.max()))[1] // 2, -_UNIT_HALF_EXP), _UNIT_HALF_EXP)
        return math.ldexp(1.0, 2 * half)

    def _tiled_gap(self, approx_rows, unit: float) -> float:
        """||A - Gamma||_F / ||Gamma||_F for a Hermitian A whose row tiles
        approx_rows(lo, hi) returns as A[lo:hi, lo:] / unit.

        Both matrices are Hermitian, so each tile's leading square counts
        once and the rest of its rows twice; no N*M x N*M array is held.
        """
        size = self.rect.size
        exact_rows = self._gamma_rows(unit)
        exact_sq = gap_sq = 0.0
        for lo in range(0, size, _TILE_ROWS):
            hi = min(lo + _TILE_ROWS, size)
            exact = exact_rows(lo, hi)
            exact_sq += _upper_sum_sq(exact, hi - lo)
            gap = approx_rows(lo, hi) - exact
            gap_sq += _upper_sum_sq(gap, hi - lo)
        if exact_sq == 0.0:
            return 0.0
        return math.sqrt(gap_sq) / math.sqrt(exact_sq)


_TILE_ROWS = 256
_UNIT_HALF_EXP = 510  # 4**-510 and 4**510 are both normal floats


def _upper_sum_sq(tile: np.ndarray, width: int) -> float:
    """Squared Frobenius norm of a Hermitian matrix's share that a row tile
    covers: its leading width x width square once, its other columns twice."""
    square = tile[:, :width]
    return 2.0 * np.vdot(tile, tile).real - np.vdot(square, square).real


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
    dense reference for the model's tiled gaps.

    Scale-safe: a norm whose sum of squares would overflow or underflow is
    taken on its array divided by its largest magnitude.  At ordinary
    scales no array is copied, and the quotient is the plain one.
    """
    exact_norm, exact_scale = _norm_parts(exact)
    if exact_norm == 0.0:
        return 0.0
    gap_norm, gap_scale = _norm_parts(approx - exact)
    return (gap_norm / exact_norm) * (gap_scale / exact_scale)


def assemble_gamma(
    components, rect: LatticeRect, real_valued: bool = False
) -> CovarianceModel:
    """Builds the exact covariance of the component sum over the rectangle.

    Args:
        components: iterable of EvanescentComponent with distinct
            (a, b, omega) triples; processes are treated as mutually
            independent.
        rect: lattice rectangle.
        real_valued: build the real field model (cosine/sine carriers with
            independent same-covariance processes) instead of the complex
            one.

    Returns:
        CovarianceModel holding one FactorBlock per component; Gamma is
        computed when first read.
    """
    components = list(components)
    check_distinct_triples(components)
    blocks = [factor_block(comp, rect, real_valued) for comp in components]
    return CovarianceModel(rect, components, real_valued, blocks)


def sample_covariance(snapshots) -> np.ndarray:
    """Empirical covariance (1/L) * sum of outer products e e^H.

    Accepts a 2-D array, or a list of vectors, with one snapshot per row.
    """
    data = np.asarray(snapshots)
    if data.ndim != 2 or data.shape[0] < 1:
        raise ValueError("snapshots must form a non-empty (L, N*M) array")
    # Entry (i, j) must be the mean of e_i * conj(e_j), snapshots as rows.
    return data.T @ data.conj() / data.shape[0]


def save_matrix_csv(matrix: np.ndarray, path) -> None:
    """Writes a complex matrix as CSV with interleaved real/imag cells."""
    matrix = np.asarray(matrix, dtype=np.complex128)
    with open(path, "w", encoding="ascii") as fh:
        for row in matrix:
            cells: list[str] = []
            for value in row:
                cells.append(f"{value.real:.17g}")
                cells.append(f"{value.imag:.17g}")
            fh.write(",".join(cells) + "\n")


def save_matrix_binary(matrix: np.ndarray, path) -> None:
    """Writes a 16-byte header (magic, rows, cols) then row-major
    little-endian float64 (re, im) pairs."""
    matrix = np.ascontiguousarray(np.asarray(matrix, dtype=np.complex128))
    rows, cols = matrix.shape
    with open(path, "wb") as fh:
        fh.write(BINARY_MAGIC)
        fh.write(struct.pack("<II", rows, cols))
        fh.write(matrix.astype("<c16").tobytes())


def load_matrix_binary(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != BINARY_MAGIC:
            raise ValueError(f"bad matrix file magic {magic!r}")
        header = fh.read(8)
        if len(header) != 8:
            raise ValueError("matrix file header is truncated")
        rows, cols = struct.unpack("<II", header)
        data = np.frombuffer(fh.read(), dtype="<c16")
    if data.size != rows * cols:
        raise ValueError("matrix file payload does not match header dimensions")
    return data.reshape(rows, cols).astype(np.complex128)
