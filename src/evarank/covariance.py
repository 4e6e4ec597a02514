"""Exact covariance of a sum of evanescent components, kept as its factor.

Each component contributes Gamma_q = D_q^H A_q^T R_q A_q D_q, where A_q
gathers the short modulating process onto the lattice, D_q carries the
complex modulation, and R_q is the process covariance.  Stacking the
factors across components gives Gamma = C^H R C with R block-diagonal and
positive definite, so the rank of Gamma is exactly the rank of C.  The
factor blocks come from `fields.factor_block`; the model stores only those
blocks and derives Gamma from them on demand, by an elementwise gather
independent of the factored product.  Each block holds its own R and its
factor L, R = L L^T in closed form, and synthesis colours its draws with L.

Gamma's rank and its factorization residual are read in line space, from
the line Gram G = C C^H, sum(rows) on a side and exactly Hermitian, built
once per model.  R is positive definite, so rank Gamma = rank G: the rank
reads G alone, with no variance and no factor L in it.  The rows of one
block's distinct lines read disjoint points and are orthogonal, so the
rank (`rank.gamma_rank`) eliminates the longest block's lines exactly, as
1x1 pivots and, for the real model's cos and sin rows, 2x2 line pivots,
and eigensolves only their Schur complement.  The residual also
reads each block's L: with E = blockdiag(R_k - L_k L_k^T), the closed
form's roundoff against the formula, and the whitened factor F =
blockdiag(L^T) C, Gamma - F^H F = C^H E C, so its squared norm is
tr(E G E G), and Gamma's is tr(R G R G).  Both are read in one pass over
block pairs, each in its structural form: a block whose R and L are
diagonal (a white process's, as the arrays show) is carried as diagonals,
and a pair of such a block with a dense one reads one W W^T, W the slice
of G between them.  The gap to the sample covariance C^H R^ C of
line-space draws is read in line space too, with a dense E = R^ -
blockdiag(R).  The sample covariance, formed only for export, and
`stap`'s trials-by-trials snapshot Gram come from the row tiles of their
own upper triangle, exactly Hermitian by construction.
"""

from __future__ import annotations

import contextlib
import math
import os
import stat
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fields import EvanescentComponent, FactorBlock, check_distinct_triples, factor_block
from .fields import process_covariance
from .lattice import LatticeRect

BINARY_MAGIC = b"EVCM0001"


@dataclass
class CovarianceModel:
    """Covariance of a component sum, stored as its sparse factor.

    `gamma` and `stacked` (every carrier's dense factor block, stacked) are
    built on first read, and gamma == stacked^H R stacked up to roundoff.
    `whitened_factor()` folds each block's factor L into the factor:
    gamma == F^H F.
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
        """Gamma by elementwise gather into one reused term buffer, made exactly
        Hermitian in place: per carrier w, Gamma[i, j] += conj(w[i]) * Y[rows[i], j]
        for Y = cov[:, rows] * w, never a product."""
        gamma = np.zeros((self.rect.size,) * 2, self.dtype)
        term = np.empty_like(gamma)
        for block in self.blocks:
            for w in block.carriers:
                # rows index within the block's length; "clip" writes straight into term
                np.take(block.cov[:, block.rows] * w, block.rows, axis=0, out=term, mode="clip")
                term *= np.conj(w)[:, None]
                gamma += term
        _average_adjoint(gamma)
        return gamma

    @cached_property
    def stacked(self) -> np.ndarray:
        parts = [np.eye(length)[:, rows] * w for _, rows, length, w, _, _ in self._carriers]
        return np.vstack(parts) if parts else np.zeros((0, self.rect.size), dtype=self.dtype)

    def whitened_factor(self) -> np.ndarray:
        """F = blockdiag(L^H) C with cov = L L^H per block, so gamma == F^H F.

        Carrier block k is L^H[:, rows] * carrier: one row per process
        sample and carrier, sum(rows) by N*M in all.  Built on every call;
        of the verbs, only stap's power sums read it.
        """
        parts = [block.lower.T[:, block.rows] * w for block in self.blocks for w in block.carriers]
        return np.vstack(parts) if parts else np.zeros((0, self.rect.size), dtype=self.dtype)

    @cached_property
    def _carriers(self) -> list[tuple[int, np.ndarray, int, np.ndarray, int, int]]:
        """(k, rows, length, w, lo, hi) per carrier w of block k: its lines are G's rows lo:hi."""
        lines = [(k, b.rows, b.length, w) for k, b in enumerate(self.blocks) for w in b.carriers]
        ends = np.cumsum([line[2] for line in lines]).tolist()
        return [(*line, end - line[2], end) for line, end in zip(lines, ends)]

    @cached_property
    def _line_gram(self) -> np.ndarray:
        """G = C C^H, one line per process sample and carrier (sum(rows) by
        sum(rows)), built once per model: entry (r, s) of the carrier pair
        (p, q) sums w_p[j] * conj(w_q[j]) over the lattice points j that read
        sample r of p and sample s of q, one bincount per pair.  The carriers
        of one block share their rows, so such a pair is its diagonal alone,
        one bincount of `len` bins.  G is exactly Hermitian: a pair below
        the diagonal is the conjugate transpose of its mirror, and a diagonal
        pair is diagonal and real."""
        carriers = self._carriers
        size = carriers[-1][-1] if carriers else 0
        gram = np.zeros((size, size), self.dtype)
        for p, (k_p, rows_p, len_p, w_p, lo_p, hi_p) in enumerate(carriers):
            for q, (k_q, rows_q, len_q, w_q, lo_q, hi_q) in enumerate(carriers[p:], p):
                same = k_p == k_q
                key, bins = (rows_p, len_p) if same else (rows_p * len_q + rows_q, len_p * len_q)
                # |w|^2 on the diagonal: w * conj(w) can leave roundoff in its imaginary part
                weight = w_p.real ** 2 + w_p.imag ** 2 if p == q else w_p * np.conj(w_q)
                pair = np.bincount(key, weight.real, bins)
                if np.iscomplexobj(weight):  # bincount takes no complex weights
                    pair = pair + 1j * np.bincount(key, weight.imag, bins)
                if same:
                    np.fill_diagonal(gram[lo_p:hi_p, lo_q:hi_q], pair)
                    np.fill_diagonal(gram[lo_q:hi_q, lo_p:hi_p], pair.conj())
                else:
                    pair = pair.reshape(len_p, len_q)
                    gram[lo_p:hi_p, lo_q:hi_q] = pair
                    gram[lo_q:hi_q, lo_p:hi_p] = pair.conj().T
        return gram

    def factorization_residual(self) -> float:
        """||Gamma - F^H F||_F / ||Gamma||_F for F = whitened_factor(), as
        sqrt(tr(E G E G) / tr(R G R G)) on the line Gram; 0.0 when Gamma is
        zero.  E = R - L L^T is formed block by block, so the value measures
        L's closed form against R's Toeplitz formula, and nothing cancels.
        A block whose R and L are both diagonal, as the arrays show (a white
        process's), gives R and E as their diagonals: no L L^T product."""
        if not self.blocks:
            return 0.0
        unit = self._unit()
        per_block = []
        for block in self.blocks:
            exact = process_covariance(block.process, block.length, unit)
            # L / sqrt(unit): exact, with no over- or underflow
            lower = block.lower / math.sqrt(unit)
            if _is_diagonal(exact) and _is_diagonal(lower):
                exact, lower = np.diagonal(exact).copy(), np.diagonal(lower)
                per_block.append((exact, exact - lower * lower))
            else:
                per_block.append((exact, exact - lower @ lower.T))
        exact_sq, gap_sq = self._trace_squares(per_block)
        # tr(E G E G) >= 0; only roundoff in the trace can take it below
        return math.sqrt(max(gap_sq, 0.0)) / math.sqrt(exact_sq)

    def sample_gap(self, lines: np.ndarray) -> float:
        """||S - Gamma||_F / ||Gamma||_F for the sample covariance S = C^H R^ C
        of line-space draws V (`fields.draw_lines`), R^ = V^T conj(V) / trials,
        as sqrt(tr(E G E G) / tr(R G R G)) with E = R^ - blockdiag(R), a
        difference of sum(rows)-square matrices: nothing cancels.  0.0 when Gamma is zero."""
        if not self.blocks:
            return 0.0
        unit = self._unit()
        exact = [process_covariance(block.process, block.length, unit) for block in self.blocks]
        (exact_sq,) = self._trace_squares(
            [(np.diagonal(cov) if _is_diagonal(cov) else cov,) for cov in exact])
        # sqrt(unit) is a power of two: the draws' scaling is exact, and their products
        # neither overflow nor underflow
        gap = _hermitian_gram(lines * (1.0 / math.sqrt(unit)))
        _divide(gap, lines.shape[0])
        for k, *_, lo, hi in self._carriers:
            gap[lo:hi, lo:hi] -= exact[k]
        product = gap @ self._line_gram
        # tr((E G)^2) >= 0, E and G Hermitian; only roundoff can take it below
        return math.sqrt(max(np.sum(product * product.T).real, 0.0)) / math.sqrt(exact_sq)

    def _trace_squares(self, per_block: list[tuple[np.ndarray, ...]]) -> list[float]:
        """[tr((D_i G)^2) for each i], D_i = blockdiag(per_block[k][i] per
        carrier of block k), real symmetric: a 2-D entry is the block itself,
        a 1-D one its diagonal, and all of a block's entries take one form.
        Each trace sums tr(D_p G_pq D_q G_qp) over carrier pairs; they are
        read a block pair at a time, each slice of G once for every i:
        - in a block, G_pq is diagonal x (a point reads one sample per
          carrier, and a block's carriers share rows): x^T (D o D) x;
        - two diagonal blocks d, e: d^T |G_pq|^2 e, with no product;
        - a dense block A and a diagonal one d: tr(A Re(G_pq diag(d) G_pq^H)),
          where Re(G_pq diag(d) G_pq^H) = W diag(d) W^T for W the float64
          (re, im) view of G_pq over all of d's carriers: one W W^T serves
          every constant d, and any other d takes the weighted product;
        - two dense blocks: Re sum (D_p G_pq) o (D_q G_qp)^T, the products
          read G's float64 (re, im) pairs, real ones, not complex.
        A pair of distinct blocks is taken once and counted twice, by
        cyclicity of the trace."""
        gram = self._line_gram
        spans: list[list[tuple[int, int]]] = [[] for _ in self.blocks]
        for k, *_, lo, hi in self._carriers:
            spans[k].append((lo, hi))
        total = np.zeros(len(per_block[0]))
        for k, (span_k, forms_k) in enumerate(zip(spans, per_block)):
            total += _within_block(gram, span_k, forms_k)
            for span_l, forms_l in zip(spans[k + 1:], per_block[k + 1:]):
                diagonal_k, diagonal_l = forms_k[0].ndim == 1, forms_l[0].ndim == 1
                if diagonal_k and diagonal_l:
                    total += 2.0 * _diagonal_pair(gram, span_k, forms_k, span_l, forms_l)
                elif diagonal_k:
                    total += 2.0 * _dense_diagonal_pair(gram, span_l, forms_l, span_k, forms_k)
                elif diagonal_l:
                    total += 2.0 * _dense_diagonal_pair(gram, span_k, forms_k, span_l, forms_l)
                else:
                    total += 2.0 * _dense_pair(gram, span_k, forms_k, span_l, forms_l)
        return total.tolist()

    def _unit(self) -> float:
        """4**k within a factor of two of the largest marginal variance.  Their
        sum, Gamma's diagonal up to roundoff (each component reaches every point
        through unit-modulus carriers), is at most the block count times it, and
        may overflow where it cannot.  |k| <= 510 so that it is normal: division
        is exact."""
        largest = max((block.process.marginal_variance for block in self.blocks), default=1.0)
        return math.ldexp(1.0, 2 * min(max(math.frexp(largest)[1] // 2, -510), 510))


def _is_diagonal(square: np.ndarray) -> bool:
    """Whether every entry off the diagonal is zero, counted without a copy."""
    return np.count_nonzero(square) == np.count_nonzero(np.diagonal(square))


def _within_block(gram: np.ndarray, span, forms) -> np.ndarray:
    """sum of x^T (D o D) x over the block's carrier pairs, G_pq = diag(x),
    a pair off the diagonal twice, for each form D (`_trace_squares`)."""
    xs = [(np.diagonal(gram[lo_p:hi_p, lo_q:hi_q]).real, 1.0 if p == q else 2.0)
          for p, (lo_p, hi_p) in enumerate(span) for q, (lo_q, hi_q) in enumerate(span[p:], p)]
    terms = []
    for d in forms:
        square = d * d
        terms.append(sum(weight * (x @ (square * x if d.ndim == 1 else square @ x))
                         for x, weight in xs))
    return np.array(terms)


def _diagonal_pair(gram: np.ndarray, span_k, forms_k, span_l, forms_l) -> np.ndarray:
    """d^T |G_kl|^2 e over the carriers of two diagonal blocks, per form pair (d, e)."""
    pair = gram[span_k[0][0]:span_k[-1][1], span_l[0][0]:span_l[-1][1]]
    power = pair.real ** 2 + pair.imag ** 2
    return np.array([np.tile(d, len(span_k)) @ power @ np.tile(e, len(span_l))
                     for d, e in zip(forms_k, forms_l)])


def _dense_diagonal_pair(gram: np.ndarray, span_a, forms_a, span_d, forms_d) -> np.ndarray:
    """tr(A W diag(d) W^T) summed over the dense block's carriers, W the
    float64 view of G's rows of the carrier and columns of the diagonal
    block, per form pair (A, d): W W^T once for every constant d."""
    wide, c = gram.view(np.float64), gram.itemsize // 8
    columns = slice(c * span_d[0][0], c * span_d[-1][1])
    terms = np.zeros(len(forms_a))
    for lo, hi in span_a:
        w = wide[lo:hi, columns]
        square = None
        for i, (a, d) in enumerate(zip(forms_a, forms_d)):
            if d.min() == d.max():
                if square is None:
                    square = w @ w.T
                terms[i] += d[0] * np.vdot(a, square)
            else:
                terms[i] += np.vdot(a, (w * np.repeat(np.tile(d, len(span_d)), c)) @ w.T)
    return terms


def _dense_pair(gram: np.ndarray, span_k, forms_k, span_l, forms_l) -> np.ndarray:
    """Re sum (A G_pq) o (B G_qp)^T over the carrier pairs of two dense
    blocks, per form pair (A, B)."""
    wide, c = gram.view(np.float64), gram.itemsize // 8
    terms = np.zeros(len(forms_k))
    for lo_p, hi_p in span_k:
        for lo_q, hi_q in span_l:
            for i, (a, b) in enumerate(zip(forms_k, forms_l)):
                left = (a @ wide[lo_p:hi_p, c * lo_q:c * hi_q]).view(gram.dtype)
                right = (b @ wide[lo_q:hi_q, c * lo_p:c * hi_p]).view(gram.dtype)
                terms[i] += np.sum(left * right.T).real
    return terms


_TILE_ROWS = 256
# the largest operand copy numpy makes in _average_adjoint's in-place sums
_OVERLAP_BYTES = 1 << 16


def _hermitian_gram(a: np.ndarray) -> np.ndarray:
    """a^T conj(a), the sum of e e^H over a's rows e, exactly Hermitian, from
    its upper row tiles: tile [lo, hi) is the conjugate of one product
    conj(a[:, lo:hi])^T a[:, lo:], its leading square averaged with its own
    conjugate transpose, and mirrored below.  Input that is not floating
    point is multiplied in float64, where an int64 product would wrap."""
    if a.dtype.kind not in "fc":
        a = a.astype(np.float64)
    size = a.shape[1]
    out = np.empty((size, size), a.dtype)
    for lo in range(0, size, _TILE_ROWS):
        hi = min(lo + _TILE_ROWS, size)
        tile = out[lo:hi, lo:]
        # conjugating a's column tile, not a, keeps the copy to one tile
        np.matmul(a[:, lo:hi].conj().T, a[:, lo:], out=tile)
        # the block below the tile is the plain transpose of the unconjugated
        # product; it lies past the tile's rows in out, so numpy copies nothing
        out[hi:, lo:hi] = tile[:, hi - lo:].T
        np.conjugate(tile, out=tile)
        _average_adjoint(out[lo:hi, lo:hi])
    return out


def _average_adjoint(square: np.ndarray) -> None:
    """square = (square + square^H) / 2 in place, with the arithmetic of
    `square += square.conj().T` but a few rows at a time: numpy copies an
    operand that shares its target's buffer, and each such copy stays within
    _OVERLAP_BYTES.  Rows [i, j) from column i on take their sums first, then
    the block below them takes its own from a copy of those rows' originals."""
    width = square.shape[0]
    step = max(1, _OVERLAP_BYTES // max(width * square.itemsize, 1))  # 0 x 0: no rows
    for i in range(0, width, step):
        j = min(i + step, width)
        if j < width:
            upper = np.conjugate(square[i:j, j:])
        square[i:j, i:] += square[i:, i:j].conj().T
        if j < width:
            square[j:, i:j] += upper.T
    square *= 0.5  # exact, where numpy's complex division by 2.0 is a slower loop


def _divide(x: np.ndarray, divisor: float) -> None:
    """x /= divisor in place, with numpy's rounding.  numpy divides a complex
    array by a real number as the product with 1.0 / divisor, so that
    product is taken directly, without the general complex division loop."""
    if np.iscomplexobj(x):
        x *= 1.0 / divisor
    else:
        x /= divisor


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
    """Empirical covariance (1/L) * sum of outer products e e^H, exactly
    Hermitian.  Accepts a 2-D array, or a list of vectors, with one snapshot
    per row; snapshots that are not floating point are averaged in float64.
    """
    data = np.asarray(snapshots)
    if data.ndim != 2 or data.shape[0] < 1:
        raise ValueError("snapshots must form a non-empty (L, N*M) array")
    cov = _hermitian_gram(data)
    _divide(cov, data.shape[0])
    return cov


def save_matrix_csv(matrix: np.ndarray, path) -> None:
    """Writes a complex matrix as CSV with interleaved real/imag cells."""
    pairs = np.ascontiguousarray(matrix, dtype=np.complex128).view(np.float64)
    with _written_over(path) as fh:
        np.savetxt(fh, pairs, fmt="%.17g", delimiter=",")


def save_matrix_binary(matrix: np.ndarray, path) -> None:
    """Writes a 16-byte header (magic, rows, cols) then row-major
    little-endian float64 (re, im) pairs.  The magic is the head of
    `_written_over`: a write cut short leaves a regular file that
    `load_matrix_binary` refuses."""
    # one little-endian, row-major copy at most; its own buffer is written
    matrix = np.ascontiguousarray(matrix, dtype="<c16")
    rows, cols = matrix.shape
    with _written_over(path, head=BINARY_MAGIC) as fh:
        fh.write(struct.pack("<II", rows, cols))
        fh.write(matrix.data)


@contextlib.contextmanager
def _written_over(path, head: bytes = b""):
    """A binary handle on `path`, placed after `head`.  A regular file is
    written over in place, `head` zeroed first, and when the block completes
    it is cut to length and `head` written last; any other target (a device,
    a pipe) gets the bytes in order."""
    with open(path, "wb", opener=_open_untruncated) as fh:
        regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
        fh.write(bytes(len(head)) if regular else head)
        yield fh
        if regular:
            fh.truncate()
            fh.seek(0)
            fh.write(head)


def _open_untruncated(name, flags: int) -> int:
    # without O_TRUNC: ext4 forces the write-back of a file truncated to zero when it is closed
    return os.open(name, flags & ~os.O_TRUNC, 0o666)


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
