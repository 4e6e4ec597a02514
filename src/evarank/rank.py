"""Closed-form rank prediction and constructive verification.

The covariance of a sum of evanescent components over an N-by-M rectangle
has rank

    min(N*M, N * sum|a_q| + M * sum|b_q| - sum|a_q| * sum|b_q|)

in the interior regime (sum|a_q| < M and sum|b_q| < N).  This module
computes that prediction, measures the numerical rank of an assembled
covariance against it, and backs the count with explicit linear-dependence
certificates: inclusion-exclusion combinations over Diophantine shifts that
reconstruct a factor column exactly from other columns.
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


def default_rank_tolerance(spectrum: np.ndarray, shape: tuple[int, int], safety: float = 1e3) -> float:
    """Threshold safety * max(shape) * eps * sigma_max."""
    sigma_max = float(spectrum[0]) if spectrum.size else 0.0
    return safety * max(shape) * np.finfo(np.float64).eps * sigma_max


def numerical_rank(
    matrix: np.ndarray,
    rel_tol: float | None = None,
    abs_tol: float | None = None,
    safety: float = 1e3,
) -> tuple[int, np.ndarray]:
    """Counts singular values above threshold; returns (rank, spectrum).

    The default threshold is safety * max(shape) * eps * sigma_max.
    `rel_tol` replaces it with rel_tol * sigma_max; `abs_tol` with an
    absolute cut.  Hermitian input goes through the symmetric
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
    if abs_tol is not None:
        tau = abs_tol
    elif rel_tol is not None:
        tau = rel_tol * float(spectrum[0])
    else:
        tau = default_rank_tolerance(spectrum, matrix.shape, safety)
    return int(np.count_nonzero(spectrum > tau)), spectrum


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

    @property
    def trivial(self) -> bool:
        return len(self.terms) == 1 and self.terms[0] == (self.target, 1.0 + 0.0j)


def _subset_point(
    target: tuple[int, int], shifts, components, subset
) -> tuple[int, int]:
    n, m = target
    for i in subset:
        n += shifts[i] * components[i].slope.b
        m -= shifts[i] * components[i].slope.a
    return (n, m)


def shift_tuple_admissible(
    target: tuple[int, int], shifts, components, rect: LatticeRect
) -> bool:
    """True when every nonempty-subset shift of `target` stays in the lattice."""
    q = len(components)
    for size in range(1, q + 1):
        for subset in itertools.combinations(range(q), size):
            if not rect.contains(*_subset_point(target, shifts, components, subset)):
                return False
    return True


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
    max_radius: int | None = None,
    require_effective: bool = True,
) -> DependencyCertificate | None:
    """Searches shift tuples outward by radius, smallest first.

    Returns the first admissible certificate (effective ones only, unless
    disabled), or None when no tuple up to `max_radius` works; the default
    radius max(N, M) exhausts every tuple that can stay inside the lattice.
    """
    components = list(components)
    if not components:
        return None
    if max_radius is None:
        max_radius = max(rect.N, rect.M)
    q = len(components)
    for radius in range(1, max_radius + 1):
        candidates = sorted(
            (t for t in itertools.product(range(-radius, radius + 1), repeat=q)
             if max(abs(x) for x in t) == radius),
            key=lambda t: t.count(0),
        )
        for shifts in candidates:
            if not shift_tuple_admissible(target, shifts, components, rect):
                continue
            cert = make_certificate(target, shifts, components, rect)
            # A useful witness rewrites the target through other columns;
            # tuples with zero entries can telescope back to the identity map.
            if require_effective and cert.trivial:
                continue
            return cert
    return None


def verify_certificate(cert: DependencyCertificate, model: CovarianceModel) -> float:
    """Relative residual of the certificate against the stacked factor.

    Computes ||col(target) - sum coeff * col(point)|| / ||col(target)||
    on the model's stacked factor columns.  Exact identities sit at
    roundoff; the trivial certificate returns 0.0 bit-exactly.
    """
    if model.real_valued:
        raise ValueError("dependence certificates apply to the complex-valued model")
    target_col = model.column(*cert.target)
    denom = float(np.linalg.norm(target_col))
    if denom == 0.0:
        raise ValueError("target column is zero; no components present")
    acc = np.zeros_like(target_col)
    for point, coeff in cert.terms:
        acc = acc + coeff * model.column(*point)
    return float(np.linalg.norm(target_col - acc) / denom)


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
