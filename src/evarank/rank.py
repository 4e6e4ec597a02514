"""Closed-form rank prediction and constructive verification.

The covariance of a sum of evanescent components over an N-by-M rectangle
has rank

    min(N*M, N * sum|a_q| + M * sum|b_q| - sum|a_q| * sum|b_q|)

in the interior regime (sum|a_q| < M and sum|b_q| < N).  This module
computes that prediction, measures the numerical rank of an assembled
covariance against it (read from a factor by `factor_rank`), and backs
the count with explicit linear-dependence certificates: inclusion-exclusion
combinations over shifts along the slope lines that reconstruct a factor
column exactly from other columns.  Every point of the dependent block has
the canonical one, the all-ones shift tuple, and no search is made.  Its
coefficients do not depend on the target, so one certificate, translated,
is checked at every point in a single pass.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .covariance import CovarianceModel
from .fields import TWO_PI, check_distinct_triples
from .lattice import LatticeRect

_HALF_TURN_TOL = 1e-12
# (point, term) pairs per chunk when verify_certificate checks many points
_CHUNK_PAIRS = 1 << 16


class RegimeFlag(str, Enum):
    INTERIOR = "interior"
    SATURATED = "saturated"
    OUTSIDE = "outside_theorem_regime"


@dataclass(frozen=True)
class RankPrediction:
    """Closed-form rank with its bookkeeping.

    `formula_value` is already clamped to [0, N*M]; `clamped` records that
    the raw formula exceeded the ambient dimension.  Outside the interior
    regime the formula is heuristic only and `regime_flag` says so: there
    the numerical rank of the assembled covariance is the authority.
    """

    formula_value: int
    clamped: bool
    per_component_counts: tuple[int, ...]
    regime_flag: RegimeFlag

    @property
    def trustworthy(self) -> bool:
        return self.regime_flag is not RegimeFlag.OUTSIDE


def _distinct_sample_count(a: int, b: int, rect: LatticeRect) -> int:
    # Modulating samples actually referenced by one component.
    return rect.N * abs(a) + rect.M * abs(b) - abs(a * b)


def _real_mode_degenerate(components) -> bool:
    """True when a real-valued component set escapes the doubled formula.

    The real model splits each component into carriers at +omega and
    -omega; the split collapses at omega in {0, pi}, and two components on
    the same slope collide when omega_i + omega_j is a multiple of 2*pi.
    """
    comps = list(components)
    for comp in comps:
        w = comp.omega
        if min(w, abs(w - math.pi), abs(w - TWO_PI)) < _HALF_TURN_TOL:
            return True
    for x, y in itertools.combinations(comps, 2):
        if (x.slope.a, x.slope.b) != (y.slope.a, y.slope.b):
            continue
        s = (x.omega + y.omega) % TWO_PI
        if min(s, TWO_PI - s) < _HALF_TURN_TOL:
            return True
    return False


def predict_rank(components, rect: LatticeRect, real_valued: bool = False) -> RankPrediction:
    """Predicts rank of the exact covariance from slopes alone.

    An empty component set predicts rank 0.  In the real-valued mode the
    slope sums double (each component carries two quadrature processes),
    and frequency degeneracies that break the doubling are reported as
    outside the formula's regime rather than silently mispredicted.
    """
    components = list(components)
    check_distinct_triples(components)
    sum_a = sum(abs(c.slope.a) for c in components)
    sum_b = sum(abs(c.slope.b) for c in components)
    counts = tuple(_distinct_sample_count(c.slope.a, c.slope.b, rect) for c in components)
    degenerate = False
    if real_valued:
        sum_a *= 2
        sum_b *= 2
        degenerate = _real_mode_degenerate(components)
    raw = rect.N * sum_a + rect.M * sum_b - sum_a * sum_b
    clamped = raw > rect.size
    value = min(max(raw, 0), rect.size)
    if components and (sum_a >= rect.M or sum_b >= rect.N or degenerate):
        flag = RegimeFlag.OUTSIDE
    elif clamped:
        flag = RegimeFlag.SATURATED
    else:
        flag = RegimeFlag.INTERIOR
    return RankPrediction(value, clamped, counts, flag)


def numerical_rank(matrix: np.ndarray, rel_tol: float | None = None) -> tuple[int, np.ndarray]:
    """Counts singular values above threshold; returns (rank, spectrum).

    The threshold is rel_tol * sigma_max, with rel_tol defaulting to
    1e3 * max(shape) * eps.  Hermitian input goes through the symmetric
    eigendecomposition (singular values are the eigenvalue magnitudes);
    anything else through the SVD.

    Raises:
        ValueError: on non-finite entries.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError("numerical rank needs a 2-D matrix")
    if not np.all(np.isfinite(matrix.real)) or (
        np.iscomplexobj(matrix) and not np.all(np.isfinite(matrix.imag))
    ):
        raise ValueError("matrix has non-finite entries")
    if matrix.size == 0:
        return 0, np.zeros(0)
    square = matrix.shape[0] == matrix.shape[1]
    if square and np.allclose(matrix, matrix.conj().T, rtol=0.0, atol=1e-13 * _scale(matrix)):
        spectrum = np.sort(np.abs(np.linalg.eigvalsh(matrix)))[::-1]
    else:
        spectrum = np.linalg.svd(matrix, compute_uv=False)
    if rel_tol is None:
        rel_tol = _default_rel_tol(max(matrix.shape))
    return int(np.count_nonzero(spectrum > rel_tol * float(spectrum[0]))), spectrum


def factor_rank(factor: np.ndarray, rel_tol: float | None = None) -> tuple[int, np.ndarray]:
    """numerical_rank of the covariance X^H X, read from the factor X.

    The nonzero eigenvalues of X^H X are those of the Gram of X on its
    short side: X X^H when X has at most N*M = X.shape[1] rows, X^H X
    otherwise.  The cut is the one numerical_rank applies to the N*M by
    N*M covariance, and the spectrum is zero-padded to N*M entries, so the
    result stands in for the dense numerical_rank without an N*M by N*M
    eigensolve whenever X is wide.  Gamma's factor is the model's
    whitened_factor(); a sample covariance's is snapshots.conj() / sqrt(L).
    """
    size = factor.shape[1]
    if rel_tol is None:
        rel_tol = _default_rel_tol(size)
    rank, spectrum = numerical_rank(_short_gram(factor), rel_tol=rel_tol)
    return rank, np.concatenate([spectrum, np.zeros(size - spectrum.size)])


def _short_gram(factor: np.ndarray) -> np.ndarray:
    """The Gram of X on its short side, X X^H or X^H X, exactly Hermitian."""
    rows, size = factor.shape
    if rows <= size:
        gram = factor @ factor.conj().T
    else:
        gram = factor.conj().T @ factor
    return (gram + gram.conj().T) / 2.0


def _default_rel_tol(dim: int) -> float:
    return 1e3 * dim * np.finfo(np.float64).eps


def _scale(matrix: np.ndarray) -> float:
    top = float(np.max(np.abs(matrix))) if matrix.size else 0.0
    return top if top > 0 else 1.0


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
    shifts: tuple[int, ...]
    terms: tuple[tuple[tuple[int, int], complex], ...]


def _subset_point(
    target: tuple[int, int], shifts, components, subset
) -> tuple[int, int]:
    n, m = target
    for i in subset:
        n += shifts[i] * components[i].slope.b
        m -= shifts[i] * components[i].slope.a
    return (n, m)


def shift_tuple_admissible(
    target, shifts, components, rect: LatticeRect
) -> bool | np.ndarray:
    """True when every nonempty-subset shift of `target` stays in the lattice.

    `target` may also be a (P, 2) array of points: the answer is then a
    boolean array, from one containment test over all points and subsets.
    """
    q = len(components)
    offsets = np.array(
        [_subset_point((0, 0), shifts, components, subset)
         for size in range(1, q + 1) for subset in itertools.combinations(range(q), size)],
        dtype=np.int64,
    ).reshape(-1, 2)
    inside = _inside(np.asarray(target, dtype=np.int64)[..., None, :] + offsets, rect).all(axis=-1)
    return inside if inside.ndim else bool(inside)


def _inside(points: np.ndarray, rect: LatticeRect) -> np.ndarray:
    """rect.contains for an array of (n, m) pairs on its last axis."""
    n, m = points[..., 0], points[..., 1]
    return (0 <= n) & (n < rect.N) & (0 <= m) & (m < rect.M)


def make_certificate(
    target: tuple[int, int], shifts, components, rect: LatticeRect
) -> DependencyCertificate:
    """Builds the inclusion-exclusion dependence identity for a shift tuple.

    Subset S of components contributes the column at the jointly shifted
    point with coefficient (-1)^(|S|-1) * exp(-1j * sum_S sigma_i *
    omega_i * t_i); terms landing on the same point merge.  The all-zero
    tuple collapses to the single term (target, 1).

    Raises:
        ValueError: when some subset-shifted point leaves the rectangle, in
            which case the identity does not hold over this lattice.
    """
    components = list(components)
    shifts = tuple(int(t) for t in shifts)
    if len(shifts) != len(components):
        raise ValueError("one shift per component required")
    if not rect.contains(*target):
        raise ValueError(f"target {target} outside {rect.N}x{rect.M} lattice")
    if not components:
        raise ValueError("certificates need at least one component")
    q = len(components)
    merged: dict[tuple[int, int], complex] = {}
    for size in range(1, q + 1):
        sign = (-1.0) ** (size - 1)
        for subset in itertools.combinations(range(q), size):
            point = _subset_point(target, shifts, components, subset)
            if not rect.contains(*point):
                raise ValueError(
                    f"shift tuple {shifts} leaves the lattice at subset {subset}"
                )
            angle = -sum(
                components[i].slope.sigma * components[i].omega * shifts[i] for i in subset
            )
            coeff = sign * complex(math.cos(angle), math.sin(angle))
            merged[point] = merged.get(point, 0.0 + 0.0j) + coeff
    terms = tuple(
        (point, coeff) for point, coeff in sorted(merged.items()) if coeff != 0.0
    )
    return DependencyCertificate(target, shifts, terms)


def find_certificate(
    target: tuple[int, int],
    components,
    rect: LatticeRect,
) -> DependencyCertificate | None:
    """The canonical certificate of `target`, on the all-ones shift tuple.

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
    if not components:
        return None
    shifts = (1,) * len(components)
    if not shift_tuple_admissible(target, shifts, components, rect):
        return None
    return make_certificate(target, shifts, components, rect)


def verify_certificate(
    cert: DependencyCertificate, model: CovarianceModel, at=None
) -> float | np.ndarray:
    """Relative residual of the certificate against the model's factor.

    Computes ||col(target) - sum coeff * col(point)|| / ||col(target)||
    over the stacked factor columns, read from the sparse factor blocks:
    in each block and carrier w, point j holds w[j] at row rows[j], so the
    block's share of the sum is one bincount over the terms' rows.  Exact
    identities sit at roundoff; the trivial certificate returns 0.0
    bit-exactly.

    With `at`, a (P, 2) array or sequence of points, returns the P
    residuals of the certificate translated to each point.  Its
    coefficients do not depend on the target, and its terms keep their
    offsets from it, so the translate is the certificate `make_certificate`
    builds there.  Points go in chunks of at most `_CHUNK_PAIRS` (point,
    term) pairs, with one bincount per block, carrier and chunk over the
    (point, row) pairs the chunk hits; a point's residual does not depend
    on its chunk.  Without `at` the certificate is read at its own target,
    as the one-point case of the same code.

    Raises:
        ValueError: for the real-valued model, a model without components,
            or a translated term outside the lattice.
    """
    if model.real_valued:
        raise ValueError("dependence certificates apply to the complex-valued model")
    if not model.blocks:
        raise ValueError("target column is zero; no components present")
    targets = np.asarray([cert.target] if at is None else at, dtype=np.int64).reshape(-1, 2)
    # the target goes last, as a term of coefficient -1: exact, -1 * w == -w
    offsets = np.array([p for p, _ in cert.terms] + [cert.target], dtype=np.int64) - cert.target
    coeffs = np.array([c for _, c in cert.terms] + [-1.0], dtype=complex)
    step = max(1, _CHUNK_PAIRS // len(coeffs))
    residuals = np.empty(len(targets))
    for lo in range(0, len(targets), step):
        residuals[lo:lo + step] = _translated_residuals(
            targets[lo:lo + step], offsets, coeffs, model
        )
    return float(residuals[0]) if at is None else residuals


def _translated_residuals(
    targets: np.ndarray, offsets: np.ndarray, coeffs: np.ndarray, model: CovarianceModel
) -> np.ndarray:
    """verify_certificate's residuals for one chunk of targets.

    A key (point, row) numbers the gap entries each point touches, so the
    bincounts run over the pairs hit, never over points x rows.  Within a
    bin the terms add in certificate order, the target last, as they would
    for one point alone.
    """
    rect = model.rect
    points = targets[:, None, :] + offsets
    if not _inside(points, rect).all():
        raise ValueError(f"a certificate term leaves the {rect.N}x{rect.M} lattice")
    index = points[..., 0] * rect.M + points[..., 1]
    count = len(targets)
    gap_sq = np.zeros(count)
    head_sq = np.zeros(count)
    for block in model.blocks:
        size = block.cov.shape[0]
        keys, bins = np.unique(
            (np.arange(count)[:, None] * size + block.rows[index]).ravel(), return_inverse=True
        )
        owner = keys // size
        for w in block.carriers:
            terms = (coeffs * w[index]).ravel()
            gap = np.bincount(bins, terms.real, len(keys)) ** 2
            gap += np.bincount(bins, terms.imag, len(keys)) ** 2
            gap_sq += np.bincount(owner, gap, count)
            head = w[index[:, -1]]
            head_sq += head.real ** 2 + head.imag ** 2
    return np.sqrt(gap_sq) / np.sqrt(head_sq)


def dependent_point_set(components, rect: LatticeRect) -> list[tuple[int, int]]:
    """Lattice points whose factor columns are certified dependent.

    The block {lo_n <= n <= hi_n, sum|a| <= m <= M-1}, where the n margins
    absorb negative and positive b components respectively.  Every point
    here admits the all-ones shift certificate.  Interior regime only.
    """
    components = list(components)
    sum_a = sum(abs(c.slope.a) for c in components)
    if predict_rank(components, rect).regime_flag is RegimeFlag.OUTSIDE:
        sum_b = sum(abs(c.slope.b) for c in components)
        raise ValueError(
            "slope sums exceed the lattice (interior regime needs "
            f"sum|a| = {sum_a} < M = {rect.M} and sum|b| = {sum_b} < N = {rect.N}); "
            "use the numerical rank of the assembled covariance instead"
        )
    lo_n = sum(-c.slope.b for c in components if c.slope.b < 0)
    hi_n = rect.N - 1 - sum(c.slope.b for c in components if c.slope.b > 0)
    return [
        (n, m)
        for n in range(lo_n, hi_n + 1)
        for m in range(sum_a, rect.M)
    ]


def independent_point_set(components, rect: LatticeRect) -> set[tuple[int, int]]:
    """Complement of the dependent block; its factor columns span everything.

    Its cardinality reproduces the closed-form rank.  Raises outside the
    interior regime, where no such clean split exists.
    """
    dependent = set(dependent_point_set(components, rect))
    return {p for p in rect.points() if p not in dependent}
