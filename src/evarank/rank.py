"""Closed-form rank prediction and constructive verification.

The covariance of a sum of evanescent components over an N-by-M rectangle
has rank

    min(N*M, N * sum|a_q| + M * sum|b_q| - sum|a_q| * sum|b_q|)

in the interior regime (sum|a_q| < M, sum|b_q| < N, and no two components
on one slope at one frequency).  A real field is the complex one on the
conjugate-pair set.  This module computes that prediction, measures the
numerical rank of an assembled covariance against it (read from its
whitened line Gram by `gamma_rank`), and backs the count with explicit
linear-dependence certificates: inclusion-exclusion combinations over
shifts along the slope lines that reconstruct a factor column exactly from
other columns.  A shift tuple's subset offsets fill one bounding box, so a
target admits the tuple when the box's two corners, translated to it, are
inside the lattice; the dependent block is the set of points that admit the
canonical all-ones tuple, and no search is made.  Its coefficients do not
depend on the target, so one certificate, translated, is checked at every
point in a single pass.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .covariance import CovarianceModel
from .fields import TWO_PI, conjugate_pairs
from .lattice import LatticeRect

_HALF_TURN_TOL = 1e-12


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

    The threshold is rel_tol * sigma_max, with rel_tol defaulting to
    1e3 * max(shape) * eps.  A square matrix equal to its conjugate
    transpose exactly goes through the symmetric eigendecomposition
    (singular values are the eigenvalue magnitudes); anything else, a
    Hermitian matrix with roundoff asymmetry included, through the SVD.

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
    if square and np.array_equal(matrix, matrix.conj().T):
        spectrum = np.sort(np.abs(np.linalg.eigvalsh(matrix)))[::-1]
    else:
        spectrum = np.linalg.svd(matrix, compute_uv=False)
    if rel_tol is None:
        rel_tol = _default_rel_tol(max(matrix.shape))
    return int(np.count_nonzero(spectrum > rel_tol * float(spectrum[0]))), spectrum


def gamma_rank(model: CovarianceModel, rel_tol: float | None = None) -> tuple[int, np.ndarray]:
    """numerical_rank of the model's Gamma, read from `model.short_gram()`:
    the whitened line Gram blockdiag(L^T) G blockdiag(L), sum(rows) square,
    when the factor has at most N*M rows, Gamma itself otherwise.  The cut
    and the zero-padding are factor_rank's."""
    return _padded_rank(model.short_gram(), model.rect.size, rel_tol)


def factor_rank(factor: np.ndarray, rel_tol: float | None = None) -> tuple[int, np.ndarray]:
    """numerical_rank of the covariance X^H X, read from the factor X.

    The nonzero eigenvalues of X^H X are those of the Gram of X on its
    short side: X X^H when X has at most N*M = X.shape[1] rows, X^H X
    otherwise.  A sample covariance's factor is snapshots.conj() / sqrt(L).
    """
    return _padded_rank(_short_gram(factor), factor.shape[1], rel_tol)


def _padded_rank(gram: np.ndarray, size: int, rel_tol: float | None) -> tuple[int, np.ndarray]:
    """numerical_rank of a Hermitian Gram that shares its nonzero eigenvalues
    with an N*M by N*M covariance (N*M = `size`), under the cut that
    covariance itself would get, the spectrum zero-padded to N*M entries: it
    stands in for the dense numerical_rank without an N*M eigensolve."""
    if rel_tol is None:
        rel_tol = _default_rel_tol(size)
    rank, spectrum = numerical_rank(gram, rel_tol=rel_tol)
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


def _shift_box(shifts, components) -> tuple[np.ndarray, np.ndarray]:
    """The bounding box (lo, hi) of the subset offsets sum_S t_i * (b_i, -a_i).

    In each coordinate lo sums the negative steps and hi the positive ones,
    so each extreme is the offset of the subset of those steps alone.
    """
    steps = np.array(
        [(t * c.slope.b, -t * c.slope.a) for t, c in zip(shifts, components, strict=True)],
        dtype=np.int64,
    ).reshape(-1, 2)
    return np.minimum(steps, 0).sum(0), np.maximum(steps, 0).sum(0)


def shift_tuple_admissible(
    target, shifts, components, rect: LatticeRect
) -> bool | np.ndarray:
    """True when every nonempty-subset shift of `target` stays in the lattice.

    Every subset offset lies in `_shift_box`, and each of the box's extremes
    is reached by some subset, so for a target inside the rectangle the
    answer is that target + lo and target + hi are both inside.  lo <= 0 <=
    hi, so a target outside the rectangle is never admissible.  `target`
    may also be a (P, 2) array of points: the answer is then a boolean
    array.
    """
    lo, hi = _shift_box(shifts, components)
    targets = np.asarray(target, dtype=np.int64)
    inside = _inside(targets + lo, rect) & _inside(targets + hi, rect)
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
        ValueError: when the tuple is not `shift_tuple_admissible` at
            `target`, in which case the identity does not hold over this
            lattice.
    """
    components = list(components)
    shifts = tuple(int(t) for t in shifts)
    if len(shifts) != len(components):
        raise ValueError("one shift per component required")
    if not rect.contains(*target):
        raise ValueError(f"target {target} outside {rect.N}x{rect.M} lattice")
    if not components:
        raise ValueError("certificates need at least one component")
    if not shift_tuple_admissible(target, shifts, components, rect):
        raise ValueError(f"shift tuple {shifts} leaves the lattice from {target}")
    q = len(components)
    merged: dict[tuple[int, int], complex] = {}
    for size in range(1, q + 1):
        sign = (-1.0) ** (size - 1)
        for subset in itertools.combinations(range(q), size):
            point = (target[0] + sum(shifts[i] * components[i].slope.b for i in subset),
                     target[1] - sum(shifts[i] * components[i].slope.a for i in subset))
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
    groups everywhere, and each group is summed over all P points at once.
    Within a group the terms add in certificate order, the target last,
    and the groups' squared sums add in ascending row order.  Without `at`
    the certificate is read at its own target, as the one-point case of
    the same code.

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
    # every translate stays inside when the corners of the targets' bounding box do
    if len(targets) and not all(
        _inside(corner + offsets, rect).all() for corner in (targets.min(0), targets.max(0))
    ):
        raise ValueError(f"a certificate term leaves the {rect.N}x{rect.M} lattice")
    base = targets[:, 0] * rect.M + targets[:, 1]
    steps = offsets[:, 0] * rect.M + offsets[:, 1]
    gap_sq = np.zeros(len(targets))
    head_sq = np.zeros(len(targets))
    for comp, block in zip(model.components, model.blocks):
        moves = (offsets @ (comp.slope.a, comp.slope.b)).tolist()
        # the terms sharing a row, in certificate order; the groups in ascending row order
        groups = [[k for k, moved in enumerate(moves) if moved == move]
                  for move in sorted(set(moves))]
        for w in block.carriers:
            sums = (sum(coeffs[k] * w[base + steps[k]] for k in group) for group in groups)
            gap_sq += sum(total.real ** 2 + total.imag ** 2 for total in sums)
            head = w[base]
            head_sq += head.real ** 2 + head.imag ** 2
    residuals = np.sqrt(gap_sq) / np.sqrt(head_sq)
    return float(residuals[0]) if at is None else residuals


def dependent_point_set(components, rect: LatticeRect) -> tuple[range, range]:
    """The n and m ranges of the points whose factor columns are certified
    dependent.

    They are the points that admit the all-ones shift tuple: with (lo, hi)
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
    (lo_n, lo_m), (hi_n, hi_m) = _shift_box((1,) * len(components), components)
    return range(-lo_n, rect.N - hi_n), range(-lo_m, rect.M - hi_m)
