"""Closed-form rank prediction and constructive verification.

The covariance of a sum of evanescent components over an N-by-M rectangle
has rank

    min(N*M, N * sum|a_q| + M * sum|b_q| - sum|a_q| * sum|b_q|)

in the interior regime (sum|a_q| < M, sum|b_q| < N, and no two components
on one slope at one frequency).  A real field is the complex one on the
conjugate-pair set.  This module computes that prediction, measures the
numerical rank of an assembled covariance against it (read from its
process-free line Gram by `gamma_rank`, and a sample covariance's from its
line-space draws by `estimate_rank`), and backs the count with explicit
linear-dependence certificates.  There is one, the canonical certificate:
an inclusion-exclusion combination over joint shifts, one step along each
component's slope line, that reconstructs a factor column exactly from
columns earlier in the (m, -n) order.  It is the expansion of the product
-prod_i (1 - t_i X^(b_i, -a_i)), t_i = exp(-1j sigma_i omega_i), built in q
passes, one per component, with at most one entry per point of the shift
box; its coefficients equal the subset sums (-1)^(|S|-1) exp(-1j sum_S
sigma_i omega_i) up to roundoff, and no subset is enumerated.  Its subset
offsets fill one bounding box, so a target admits it when the box's two
corners, translated to it, are inside the lattice; the dependent block is
the set of points that admit it, and no search is made.  Its coefficients
do not depend on the target, so one certificate, translated, is checked at
every point in a single pass.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .covariance import _TILE_ROWS, CovarianceModel, _average_adjoint, _divide, _hermitian_gram
from .fields import TWO_PI, conjugate_pairs
from .lattice import LatticeRect

_HALF_TURN_TOL = 1e-12
# entries of one terms x points gather in verify_certificate: 1 MB of complex128
_AUDIT_CHUNK_ENTRIES = 1 << 16


class RegimeFlag(str, Enum):
    INTERIOR = "interior"
    OUTSIDE = "outside_theorem_regime"


@dataclass(frozen=True)
class RankPrediction:
    """Closed-form rank with its bookkeeping.

    `formula_value` is the raw formula cut to [0, N*M], with the slope
    sums of the conjugate-pair set in the real-valued mode.  Inside the
    interior regime N*M - raw = (N - sum|b|)(M - sum|a|) > 0, so the cut
    acts only outside it, where the formula is heuristic and `regime_flag`
    says so: there the numerical rank of the assembled covariance is the
    authority.
    """

    formula_value: int
    per_component_counts: tuple[int, ...]
    regime_flag: RegimeFlag

    @property
    def trustworthy(self) -> bool:
        return self.regime_flag is not RegimeFlag.OUTSIDE


def _distinct_sample_count(a: int, b: int, rect: LatticeRect) -> int:
    # Modulating samples actually referenced by one component.
    return rect.N * abs(a) + rect.M * abs(b) - abs(a * b)


def predict_rank(components, rect: LatticeRect, real_valued: bool = False) -> RankPrediction:
    """Predicts rank of the exact covariance from slopes alone.

    An empty component set predicts rank 0.  The real-valued field is the
    complex one on `fields.conjugate_pairs(components)`, so the formula and
    the one regime check run on that set; `per_component_counts` keeps one
    count per component given.  The check flags a slope sum that reaches
    its lattice side, and two triples on one slope whose omegas lie within
    2 * _HALF_TURN_TOL around the circle, so that their carriers agree to
    roundoff (a repeated triple included).  A component and its mirror at
    -omega lie 2 * dist(omega, {0, pi}) apart.
    """
    components = list(components)
    counts = tuple(_distinct_sample_count(c.slope.a, c.slope.b, rect) for c in components)
    if real_valued:
        components = conjugate_pairs(components)
    sum_a = sum(abs(c.slope.a) for c in components)
    sum_b = sum(abs(c.slope.b) for c in components)
    raw = rect.N * sum_a + rect.M * sum_b - sum_a * sum_b
    value = min(max(raw, 0), rect.size)
    gaps = (abs(x.omega - y.omega) for x, y in itertools.combinations(components, 2)
            if (x.slope.a, x.slope.b) == (y.slope.a, y.slope.b))
    collision = any(min(gap, TWO_PI - gap) < 2 * _HALF_TURN_TOL for gap in gaps)
    outside = components and (sum_a >= rect.M or sum_b >= rect.N or collision)
    flag = RegimeFlag.OUTSIDE if outside else RegimeFlag.INTERIOR
    return RankPrediction(value, counts, flag)


def numerical_rank(matrix: np.ndarray, rel_tol: float | None = None) -> tuple[int, np.ndarray]:
    """Counts singular values above threshold; returns (rank, spectrum).

    The cut is `_padded_rank`'s, rel_tol * sigma_max, with rel_tol
    defaulting to 1e3 * max(shape) * eps.  A square matrix equal to its
    conjugate transpose exactly goes through the symmetric eigendecomposition
    (singular values are the eigenvalue magnitudes); anything else, a
    Hermitian matrix with roundoff asymmetry included, through the SVD.

    Raises:
        ValueError: on non-finite entries.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError("numerical rank needs a 2-D matrix")
    _require_finite(matrix)
    if matrix.size == 0:
        return 0, np.zeros(0)
    if matrix.shape[0] == matrix.shape[1] and np.array_equal(matrix, matrix.conj().T):
        values = np.linalg.eigvalsh(matrix)
    else:
        values = np.linalg.svd(matrix, compute_uv=False)
    if rel_tol is None:
        rel_tol = _default_rel_tol(max(matrix.shape))
    return _padded_rank(values, min(matrix.shape), rel_tol)


def _require_finite(matrix: np.ndarray) -> None:
    if not np.all(np.isfinite(matrix.real)) or (
        np.iscomplexobj(matrix) and not np.all(np.isfinite(matrix.imag))
    ):
        raise ValueError("matrix has non-finite entries")


def _hermitian_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """The eigenvalues of a square matrix that its construction makes exactly
    Hermitian, unsorted: numerical_rank's finiteness check and symmetric
    eigensolve, without its test for the symmetry the caller guarantees."""
    _require_finite(matrix)
    return np.linalg.eigvalsh(matrix) if matrix.size else np.zeros(0)


def gamma_rank(model: CovarianceModel, rel_tol: float | None = None) -> tuple[int, np.ndarray]:
    """numerical_rank of the model's Gamma, read from one block elimination of
    its line Gram G = C C^H, under the cut and zero-padding of `_padded_rank`.

    Gamma = C^H R C with R positive definite, so rank Gamma = rank C = rank G.
    One carrier's lines read disjoint lattice points, and a block's carriers
    share rows, so rows of G on distinct lines of one block are orthogonal.
    The block with the most lines (the first on ties) is eliminated line by
    line, with a 1x1 or a 2x2 pivot per line:

    - A complex line has one row, whose diagonal entry is the line's point
      count.  Lines with points are 1x1 pivots; the others are never
      reached, zero rows, and are dropped.
    - A real line has a cos row and a sin row.  With n points it is a 2x2
      pivot P = [[sum cos^2, sum cos sin], [sum cos sin, sum sin^2]] when
      n >= 2: by Lagrange's identity det P = sum_{j<k} sin^2(omega (v_k -
      v_j)), and consecutive points differ in v by the slope's determinant
      +-1, so det P >= (n - 1) sin^2 omega.  A one-point line's two rows are
      multiples of one factor row: the larger diagonal entry, at least 1/2
      (cos^2 + sin^2 = 1), is a 1x1 pivot and the other row is dropped, as
      an unreached line's two are.  The point counts are integers read from
      the block's rows, so no threshold decides which lines pair.
    - Near omega = 0 or pi a 2x2 pivot is singular or nearly so, and the
      real block keeps one row per line instead, its carrier with the larger
      diagonal entry, as a 1x1 pivot; the other rows stay in the rest.  The
      rule holds the det bound against the cut the rank applies anyway.
      P's small eigenvalue det P / lambda_big is at least (n - 1) sin^2
      omega / n >= sin^2 omega / 2, as lambda_big <= tr P = n.  The
      spectrum's top is at most ||G||_2 (P is a principal block of G, and
      S below is at most G_rest), and ||G||_2 = ||C||_2^2 <= ||C||_1
      ||C||_inf <= sqrt(2) q max(N, M) for q components: a lattice point's
      column of C holds |cos| + |sin| <= sqrt(2) per component, and a line
      has at most max(N, M) points.  So the lines pair when sin^2 omega / 2
      exceeds that bound times the larger of rel_tol and its default: each
      2x2 pivot then counts twice under the cut, and no Cholesky step
      divides by a value the cut would drop.

    With B the pivot rows' entries in the rest and P = blockdiag of the
    pivots, G is congruent to blockdiag(P, S) for the Schur complement S =
    G_rest - B^H P^-1 B, so by Sylvester's law of inertia rank G = rank P +
    rank S, and the spectrum is the magnitudes of P's eigenvalues (the 2x2
    ones in closed form, the small one as det / lambda_big, free of
    cancellation) and of S's.  Only S is eigensolved, sum(rows) less the
    block's rows: never when nothing is left."""
    size = model.rect.size
    if not model.blocks:
        return _padded_rank(np.zeros(0), size, rel_tol)
    gram = model._line_gram
    longest = max(range(len(model.blocks)), key=lambda k: model.blocks[k].length)  # first on ties
    block = model.blocks[longest]
    lines = np.arange(block.length)
    starts = np.array([lo for k, *_, lo, _ in model._carriers if k == longest])
    diagonal = np.array([gram.diagonal()[lo:lo + lines.size].real for lo in starts])
    pick = diagonal.argmax(0)  # carriers x lines; the first carrier on ties
    taken, d = starts[pick] + lines, diagonal[pick, lines]
    paired = len(starts) == 2 and _lines_pair(model, model.components[longest].omega, rel_tol)
    if paired:
        points = np.bincount(block.rows, minlength=lines.size)
        two, one = points > 1, points == 1
        cos_rows, sin_rows = starts[:, None] + lines[two]
        pivots, d = np.concatenate([cos_rows, sin_rows, taken[one]]), d[one]
        # every row of the block leaves the rest: its rows are starts[0]:starts[1] + length
        rest = np.r_[:starts[0], starts[1] + lines.size:gram.shape[0]]
    else:
        pivots, d = taken[d > 0], d[d > 0]
        rest = np.delete(np.arange(gram.shape[0]), taken)
    # X = conj(B) scaled row by row, whose exactly Hermitian Gram X^T conj(X) is B^H P^-1 B
    scaled = gram[np.ix_(pivots, rest)]
    if paired:
        values = _pair_pivots(scaled, diagonal[:, two], gram[cos_rows, sin_rows], d)
    else:
        np.conjugate(scaled, out=scaled)
        scaled /= np.sqrt(d)[:, None]
        values = d
    schur = _hermitian_gram(scaled)
    del scaled
    # S = G_rest - B^H P^-1 B in place, a row tile of G_rest at a time: the
    # difference of two exactly Hermitian matrices is exactly Hermitian
    for lo in range(0, rest.size, _TILE_ROWS):
        tile = schur[lo:lo + _TILE_ROWS]
        np.subtract(gram[np.ix_(rest[lo:lo + _TILE_ROWS], rest)], tile, out=tile)
    return _padded_rank(np.concatenate([values, _hermitian_eigenvalues(schur)]), size, rel_tol)


def _lines_pair(model: CovarianceModel, omega: float, rel_tol: float | None) -> bool:
    """Whether a real block at omega takes 2x2 pivots (`gamma_rank`): sin^2
    omega / 2 above the cut max(rel_tol, default) * sqrt(2) q max(N, M)."""
    rect = model.rect
    tol = max(rel_tol or 0.0, _default_rel_tol(rect.size))
    return math.sin(omega) ** 2 / 2 > tol * math.sqrt(2) * len(model.blocks) * max(rect.N, rect.M)


def _pair_pivots(scaled: np.ndarray, diagonal: np.ndarray, cross: np.ndarray,
                 d: np.ndarray) -> np.ndarray:
    """Scales the pivot rows of `gamma_rank` in place by the inverse of each
    pivot's Cholesky factor, and returns the pivots' eigenvalues.

    `scaled` holds the paired lines' cos rows, then their sin rows, then the
    1x1 pivots' rows; `diagonal` the paired lines' (sum cos^2, sum sin^2) and
    `cross` their sum cos sin.  With P = L L^T, L = [[l11, 0], [l21, l22]],
    the cos row c becomes c / l11, and the sin row s becomes (s - l21 c /
    l11) / l22."""
    p11, p22 = diagonal
    count = p11.size
    det = p11 * p22 - cross * cross
    l11 = np.sqrt(p11)
    cos, sin, one = scaled[:count], scaled[count:2 * count], scaled[2 * count:]
    cos /= l11[:, None]
    sin -= (cross / l11)[:, None] * cos
    sin /= np.sqrt(det / p11)[:, None]
    one /= np.sqrt(d)[:, None]
    big = (p11 + p22) / 2 + np.hypot((p11 - p22) / 2, cross)
    return np.concatenate([big, det / big, d])


def estimate_rank(model: CovarianceModel, lines: np.ndarray,
                  rel_tol: float | None = None) -> tuple[int, np.ndarray]:
    """numerical_rank of the sample covariance of L trials of the model's
    line-space draws V (`fields.draw_lines`), under the cut and zero-padding
    of `_padded_rank`, without reading it: with W = V.conj() / sqrt(L) it is
    C^H W^H W C, so for the QR W = Q T its nonzero eigenvalues are those of
    T G T^H, min(L, sum(rows)) square, with G = C C^H the model's line Gram."""
    w = np.conjugate(lines)
    _divide(w, math.sqrt(lines.shape[0]))
    t = np.linalg.qr(w, mode="r")
    gram = t @ model._line_gram @ t.conj().T
    _average_adjoint(gram)
    return _padded_rank(_hermitian_eigenvalues(gram), model.rect.size, rel_tol)


def _padded_rank(values: np.ndarray, size: int, rel_tol: float | None) -> tuple[int, np.ndarray]:
    """The cut an N*M by N*M covariance would get (N*M = `size`), over values
    whose magnitudes stand in for its singular values without an N*M
    eigensolve: sorted, they keep their top N*M entries, zero-padded to N*M,
    and the rank counts those above rel_tol times the largest, rel_tol
    defaulting to numerical_rank's at N*M."""
    if rel_tol is None:
        rel_tol = _default_rel_tol(size)
    spectrum = np.sort(np.abs(values))[::-1][:size]
    spectrum = np.concatenate([spectrum, np.zeros(size - spectrum.size)])
    return int(np.count_nonzero(spectrum > rel_tol * float(spectrum[0]))), spectrum


def _default_rel_tol(dim: int) -> float:
    return 1e3 * dim * np.finfo(np.float64).eps


def spectral_gap_ratio(spectrum: np.ndarray, rank: int) -> float | None:
    """sigma_rank / sigma_rank+1 (1-based), None when undefined at the ends."""
    if rank <= 0 or rank >= spectrum.size:
        return None
    lead = float(spectrum[rank - 1])
    trail = float(spectrum[rank])
    if trail == 0.0:
        return math.inf
    return lead / trail


@dataclass(frozen=True)
class DependencyCertificate:
    """Exact linear dependence of one factor column on shifted columns.

    `terms` maps each participating lattice point to its complex
    coefficient; the column at `target` equals the coefficient-weighted sum
    exactly, by construction rather than by least squares.
    """

    target: tuple[int, int]
    terms: tuple[tuple[tuple[int, int], complex], ...]


def _shift_box(components) -> tuple[np.ndarray, np.ndarray]:
    """The bounding box (lo, hi) of the subset offsets sum_S (b_i, -a_i).

    In each coordinate lo sums the negative steps and hi the positive ones,
    so each extreme is the offset of the subset of those steps alone.
    """
    steps = np.array([(c.slope.b, -c.slope.a) for c in components], dtype=np.int64).reshape(-1, 2)
    return np.minimum(steps, 0).sum(0), np.maximum(steps, 0).sum(0)


def shift_tuple_admissible(target, components, rect: LatticeRect) -> bool:
    """True when every nonempty subset's joint shift of `target`, one step
    along each of its components' lines, stays in the lattice.

    Every subset offset lies in `_shift_box`, and each of the box's extremes
    is reached by some subset, so for a target inside the rectangle the
    answer is that target + lo and target + hi are both inside.  lo <= 0 <=
    hi, so a target outside the rectangle is never admissible.
    """
    lo, hi = _shift_box(components)
    return all(rect.contains(*corner) for corner in (np.add(target, lo), np.add(target, hi)))


def make_certificate(
    target: tuple[int, int], components, rect: LatticeRect
) -> DependencyCertificate:
    """Builds the canonical inclusion-exclusion dependence identity.

    Subset S of components contributes the column at the point shifted by
    one step along each of its lines, sum_S (b_i, -a_i), with coefficient
    (-1)^(|S|-1) * exp(-1j * sum_S sigma_i * omega_i); terms landing on the
    same point merge.  The merged coefficients are those of the product
    -prod_i (1 - t_i X^(b_i, -a_i)), t_i = exp(-1j * sigma_i * omega_i),
    less its constant -1, the target's own.  It is expanded one factor per
    pass, q passes, holding at most one entry per point of `_shift_box`, so
    the coefficients equal the subset sums up to roundoff without a loop
    over the 2^q subsets.  Terms are sorted by point, exact zeros dropped.

    Raises:
        ValueError: when `target` is not `shift_tuple_admissible`, in which
            case the identity does not hold over this lattice.
    """
    components = list(components)
    if not rect.contains(*target):
        raise ValueError(f"target {target} outside {rect.N}x{rect.M} lattice")
    if not components:
        raise ValueError("certificates need at least one component")
    if not shift_tuple_admissible(target, components, rect):
        raise ValueError(f"the all-ones shift leaves the lattice from {target}")
    # each pass reads a snapshot of the previous factors' entries, so a point written in
    # this pass is not shifted again in it
    poly = {(0, 0): -1.0 + 0.0j}
    for c in components:
        t = cmath.exp(-1j * c.slope.sigma * c.omega)
        for (n, m), z in list(poly.items()):
            shifted = (n + c.slope.b, m - c.slope.a)
            poly[shifted] = poly.get(shifted, 0j) - t * z
    del poly[0, 0]  # the target's own -1: no nonempty subset's shift returns to it
    terms = tuple(((target[0] + n, target[1] + m), z)
                  for (n, m), z in sorted(poly.items()) if z != 0.0)
    return DependencyCertificate(target, terms)


def find_certificate(
    target: tuple[int, int], components, rect: LatticeRect
) -> DependencyCertificate | None:
    """The canonical certificate of `target`, or None where it does not hold.

    Its subset shifts all stay inside exactly on `dependent_point_set`'s
    block, so off that block the one admissibility check returns None.
    Every term precedes the target in the (m, -n) order: a shift lowers m
    by its sum of a's, and one with every a == 0 raises n.

    Raises:
        ValueError: when `target` lies outside the rectangle.
    """
    components = list(components)
    if not rect.contains(*target):
        raise ValueError(f"target {target} outside {rect.N}x{rect.M} lattice")
    if not components or not shift_tuple_admissible(target, components, rect):
        return None
    return make_certificate(target, components, rect)


def verify_certificate(
    cert: DependencyCertificate, model: CovarianceModel, at=None
) -> float | np.ndarray:
    """Relative residual of the certificate against the model's factor.

    Computes ||col(target) - sum coeff * col(point)|| / ||col(target)||
    over the stacked factor columns, read from the sparse factor blocks:
    in each block and carrier w, point j holds w[j] at row rows[j], so the
    block's share of the gap sums the terms that land on one row.  Exact
    identities sit at roundoff; the trivial certificate returns 0.0
    bit-exactly.

    With `at`, a (P, 2) array or sequence of points, returns the P
    residuals of the certificate translated to each point.  Its
    coefficients do not depend on the target, and its terms keep their
    offsets from it, so the translate is the certificate `make_certificate`
    builds there.  A term's flat index is the target's plus a fixed step,
    and a block's row n*a + m*b - k_min moves by the term's offset dotted
    with (a, b) at every point: the terms sharing a row form the same
    groups everywhere, and each group is summed over a chunk of points at
    once.  Per chunk, each carrier is read in one gather, w[steps[:, None] +
    base]: a terms by points array of at most _AUDIT_CHUNK_ENTRIES entries
    whose last row, the target's, also gives the norm.  It is weighted by
    the coefficients in one product.  Within a group the terms add in
    certificate order, the target last, and the groups' squared sums add in
    ascending row order.  Without `at` the certificate is read at its own
    target, as the one-point case of the same code.

    A real model's cos and sin carriers are fixed combinations of
    exp(-+1j*omega*v) on the same rows, so the certificate of its
    `fields.conjugate_pairs` set holds on them, read as complex ones are.

    Raises:
        ValueError: for a model without components, or a translated term
            outside the lattice.
    """
    if not model.blocks:
        raise ValueError("target column is zero; no components present")
    rect = model.rect
    targets = np.asarray([cert.target] if at is None else at, dtype=np.int64).reshape(-1, 2)
    # the target goes last, as a term of coefficient -1: exact, -1 * w == -w
    offsets = np.array([p for p, _ in cert.terms] + [cert.target], dtype=np.int64) - cert.target
    coeffs = np.array([c for _, c in cert.terms] + [-1.0], dtype=complex)
    # every translate stays inside when the two corners of their bounding box do,
    # the box rule of shift_tuple_admissible
    if len(targets) and not all(
        rect.contains(*corner) for corner in (targets.min(0) + offsets.min(0),
                                              targets.max(0) + offsets.max(0))
    ):
        raise ValueError(f"a certificate term leaves the {rect.N}x{rect.M} lattice")
    base = targets[:, 0] * rect.M + targets[:, 1]
    steps = offsets[:, 0] * rect.M + offsets[:, 1]
    # per block, the terms sharing a row, in certificate order; the groups in ascending row order
    groups = []
    for comp in model.components:
        moves = (offsets @ (comp.slope.a, comp.slope.b)).tolist()
        groups.append([[k for k, moved in enumerate(moves) if moved == move]
                       for move in sorted(set(moves))])
    residuals = np.empty(len(targets))
    # each point's sums are its own, so a chunk of points bounds the gathers' size
    chunk = max(1, _AUDIT_CHUNK_ENTRIES // len(steps))
    for lo in range(0, len(targets), chunk):
        index = steps[:, None] + base[lo:lo + chunk]
        gap_sq = np.zeros(index.shape[1])
        head_sq = np.zeros(index.shape[1])
        for block, block_groups in zip(model.blocks, groups):
            for w in block.carriers:
                column = w[index]  # terms x points; the last row is the target's
                weighted = coeffs[:, None] * column
                sums = (sum(weighted[k] for k in group) for group in block_groups)
                gap_sq += sum(total.real ** 2 + total.imag ** 2 for total in sums)
                head = column[-1]
                head_sq += head.real ** 2 + head.imag ** 2
        residuals[lo:lo + chunk] = np.sqrt(gap_sq) / np.sqrt(head_sq)
    return float(residuals[0]) if at is None else residuals


def dependent_point_set(components, rect: LatticeRect) -> tuple[range, range]:
    """The n and m ranges of the points whose factor columns are certified
    dependent.

    They are the points that admit the canonical certificate: with (lo, hi)
    its `_shift_box`, the block {-lo_n <= n < N - hi_n, sum|a| <= m < M},
    where the n margins absorb the negative and the positive b's.  Interior
    regime only; for the real model, pass the conjugate-pair set.
    """
    components = list(components)
    if predict_rank(components, rect).regime_flag is RegimeFlag.OUTSIDE:
        sum_a = sum(abs(c.slope.a) for c in components)
        sum_b = sum(abs(c.slope.b) for c in components)
        raise ValueError(
            "outside the interior regime, which needs "
            f"sum|a| = {sum_a} < M = {rect.M}, sum|b| = {sum_b} < N = {rect.N} "
            "and no two components on one slope with omegas closer than "
            f"{2 * _HALF_TURN_TOL:g}; use the numerical rank of the assembled covariance instead"
        )
    (lo_n, lo_m), (hi_n, hi_m) = _shift_box(components)
    return range(-lo_n, rect.N - hi_n), range(-lo_m, rect.M - hi_m)
