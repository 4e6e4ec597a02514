"""Exact covariance of a sum of evanescent components, kept as its factor.

Each component contributes Gamma_q = D_q^H A_q^T R_q A_q D_q, where A_q
gathers the short modulating process onto the lattice, D_q carries the
complex modulation, and R_q is the process covariance.  Stacking the
factors across components gives Gamma = C^H R C with R block-diagonal and
positive definite, so the rank of Gamma is exactly the rank of C.  The
model stores only the sparse factor and derives Gamma from it on demand,
by an elementwise gather independent of the factored product, so that
identity can be checked rather than assumed.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fields import (
    EvanescentComponent,
    ModulatingProcessSpec,
    ProcessKind,
    check_distinct_triples,
    lattice_map,
)
from .lattice import LatticeRect

BINARY_MAGIC = b"EVCM0001"


def process_covariance(spec: ModulatingProcessSpec, size: int) -> np.ndarray:
    """Covariance of `size` consecutive modulating samples.

    White noise gives variance * I; the AR(1) family gives the symmetric
    Toeplitz matrix with entry variance * ar^|i-j| / (1 - ar^2).  Both are
    real and positive definite, which is what makes rank(Gamma) = rank(C)
    an identity rather than an inequality.
    """
    if size < 1:
        raise ValueError("process covariance needs a positive size")
    if spec.kind is ProcessKind.WHITE:
        return spec.variance * np.eye(size)
    lags = np.abs(np.arange(size)[:, None] - np.arange(size)[None, :])
    ar = spec.ar_coefficient
    return spec.variance * ar ** lags / (1.0 - ar * ar)


@dataclass(frozen=True)
class FactorBlock:
    """One component's share of C and R: lattice point j gathers process
    sample rows[j], weighted by entry j of each carrier.  The complex model
    has the carrier exp(-1j*omega*v), the real one cos(omega*v) and
    sin(omega*v) sharing `cov`, with v = n*c + m*d."""

    rows: np.ndarray
    carriers: tuple[np.ndarray, ...]
    cov: np.ndarray

    def dense(self, carrier: np.ndarray) -> np.ndarray:
        """The (len(cov), N*M) factor block of one carrier."""
        out = np.zeros((self.cov.shape[0], self.rows.size), dtype=carrier.dtype)
        out[self.rows, np.arange(self.rows.size)] = carrier
        return out


@dataclass
class CovarianceModel:
    """Covariance of a component sum, stored as its sparse factor.

    `gamma` and `stacked` (every carrier's dense factor block, stacked) are
    built on first read, and gamma == stacked^H R stacked up to roundoff.
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
        """Gamma by elementwise gather, one component at a time."""
        size = self.rect.size
        gamma = np.zeros((size, size), dtype=self.dtype)
        for block in self.blocks:
            gathered = block.cov[block.rows[:, None], block.rows[None, :]]
            for w in block.carriers:
                gamma += np.conj(w)[:, None] * gathered * w[None, :]
        return (gamma + gamma.conj().T) / 2.0  # enforce exact Hermitian symmetry

    @cached_property
    def stacked(self) -> np.ndarray:
        dense = [block.dense(w) for block in self.blocks for w in block.carriers]
        return np.vstack(dense) if dense else np.zeros((0, self.rect.size), dtype=self.dtype)

    def column(self, n: int, m: int) -> np.ndarray:
        """Column of the stacked factor for lattice point (n, m)."""
        return self.stacked[:, self.rect.vec_index(n, m)]

    def factored_gamma(self) -> np.ndarray:
        """C^H R C by matrix products, densifying one carrier block at a time."""
        out = np.zeros((self.rect.size, self.rect.size), dtype=self.dtype)
        for block in self.blocks:
            for w in block.carriers:
                dense = block.dense(w)
                out = out + dense.conj().T @ block.cov @ dense
        return out

    def factorization_residual(self) -> float:
        """Relative Frobenius gap between Gamma and its factored form."""
        denom = np.linalg.norm(self.gamma)
        if denom == 0.0:
            return 0.0
        return float(np.linalg.norm(self.gamma - self.factored_gamma()) / denom)


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
    blocks = []
    for comp in components:
        rows, length, coords = lattice_map(comp, rect)
        if real_valued:
            carriers = (np.cos(comp.omega * coords), np.sin(comp.omega * coords))
        else:
            carriers = (np.exp(-1j * comp.omega * coords),)
        blocks.append(FactorBlock(rows, carriers, process_covariance(comp.process, length)))
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
