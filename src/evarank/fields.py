"""Evanescent field components, their factor blocks, and seeded synthesis
in two stages: line-space draws, one per process sample and carrier, then
their scatter onto the lattice.

A component pins a coprime slope (a, b), a modulation frequency omega, and a
1-D modulating process.  Sample (n, m) of the complex component is

    s(n*a + m*b) * exp(1j * omega * (n*c + m*d))

with (c, d) the slope's Bezout companion, so the whole N-by-M field is driven
by one short 1-D process: the source of every rank deficiency measured later.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .lattice import LatticeRect, SlopePair

TWO_PI = 2.0 * math.pi
# Squared norms of the draws reach N*M * trials * their mean power; a draw's
# squared sum exceeds 100 times its mean with probability of about exp(-100).
_POWER_HEADROOM = 1e2


class ProcessKind(str, Enum):
    WHITE = "white"
    AR1 = "ar1"

    @classmethod
    def _missing_(cls, value):
        # kind names are case-insensitive: "AR1" selects AR1
        name = value.lower() if isinstance(value, str) else None
        return next((kind for kind in cls if kind.value == name), None)


@dataclass(frozen=True)
class ModulatingProcessSpec:
    """Stationary 1-D process driving one component.

    `variance` is the innovation variance: the marginal variance for white
    noise, and variance / (1 - ar^2) marginally for the AR(1) family.
    """

    kind: ProcessKind
    variance: float = 1.0
    ar_coefficient: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", ProcessKind(self.kind))
        if not 0 < self.variance < math.inf:
            raise ValueError("process variance must be positive and finite")
        if not abs(self.ar_coefficient) < 1:
            raise ValueError("AR(1) coefficient must satisfy |ar| < 1")
        if self.kind is ProcessKind.WHITE and self.ar_coefficient != 0.0:
            raise ValueError("white process takes no AR coefficient")
        if not math.isfinite(self.marginal_variance):
            raise ValueError("process marginal variance overflows float64")

    @property
    def marginal_variance(self) -> float:
        """variance / (1 - ar^2), the power of each sample of the process."""
        return self.variance / (1.0 - self.ar_coefficient**2)


@dataclass(frozen=True)
class EvanescentComponent:
    slope: SlopePair
    omega: float
    process: ModulatingProcessSpec

    def __post_init__(self) -> None:
        omega = float(self.omega) % TWO_PI
        if not math.isfinite(omega):
            raise ValueError("omega must be finite")
        object.__setattr__(self, "omega", omega)

    def triple(self) -> tuple[int, int, float]:
        """Identity of the component: (a, b, omega mod 2*pi)."""
        return (self.slope.a, self.slope.b, self.omega)


def modulating_indices(slope: SlopePair, rect: LatticeRect) -> tuple[int, int]:
    """Inclusive range [k_min, k_max] of n*a + m*b over the rectangle.

    Length is (N-1)*|a| + (M-1)*|b| + 1, but not every index in between is
    hit: with gcd(a, b) = 1, |a| <= M and |b| <= N the rectangle reaches
    N*|a| + M*|b| - |a*b| of them, so (|a|-1)*(|b|-1) samples are never
    read, each a zero line of the factor.
    """
    ext_n = (rect.N - 1) * slope.a
    ext_m = (rect.M - 1) * slope.b
    k_min = min(ext_m, 0)
    k_max = ext_n + max(ext_m, 0)
    return (k_min, k_max)


def check_distinct_triples(components) -> None:
    """Components sharing a slope must use different frequencies: a repeated
    triple is one component, whose variance would silently double."""
    seen: set[tuple[int, int, float]] = set()
    for comp in components:
        t = comp.triple()
        if t in seen:
            raise ValueError(f"duplicate component triple (a, b, omega) = {t}")
        seen.add(t)


def conjugate_pairs(components) -> list[EvanescentComponent]:
    """Each (a, b, omega), then each mirror (a, b, -omega mod 2*pi): the
    complex components whose carriers span the real cos and sin ones."""
    components = list(components)
    return components + [EvanescentComponent(c.slope, -c.omega, c.process) for c in components]


def lattice_map(comp: EvanescentComponent, rect: LatticeRect):
    """(rows, length, coords) in vectorization order: each lattice point
    reads sample n*a + m*b - k_min of the length-`length` process, and its
    carrier phase follows the companion coordinate n*c + m*d."""
    slope = comp.slope
    k_min, k_max = modulating_indices(slope, rect)
    n = np.arange(rect.N)[:, None]
    m = np.arange(rect.M)[None, :]
    rows = (n * slope.a + m * slope.b - k_min).reshape(rect.size)
    coords = (n * slope.c + m * slope.d).reshape(rect.size)
    return rows, k_max - k_min + 1, coords


def _toeplitz(diagonals: np.ndarray, size: int) -> np.ndarray:
    """The size-square Toeplitz matrix of entry (i, j) = diagonals[size - 1 - i + j],
    the lowest diagonal first: one strided view of them, copied once."""
    return np.lib.stride_tricks.sliding_window_view(diagonals, size)[::-1].copy()


def process_covariance(spec: ModulatingProcessSpec, size: int, unit: float = 1.0) -> np.ndarray:
    """Covariance of `size` consecutive modulating samples, over `unit`: the
    symmetric Toeplitz matrix with entry variance * ar^|i-j| / (1 - ar^2),
    which for white noise (ar = 0) is variance * I bit for bit.  It is real
    and positive definite, which is what makes rank(Gamma) = rank(C) an
    identity rather than an inequality.  Dividing the variance first, by a
    power of two, keeps the entries accurate where R's own would be subnormal.
    """
    if size < 1:
        raise ValueError("process covariance needs a positive size")
    ar = spec.ar_coefficient
    autocov = spec.variance / unit * ar ** np.arange(size) / (1.0 - ar * ar)
    # the lags mirrored: diagonal d holds the lag-|d| autocovariance
    return _toeplitz(np.concatenate([autocov[:0:-1], autocov]), size)


@dataclass(frozen=True)
class FactorBlock:
    """One component's share of C and R: lattice point j gathers process
    sample rows[j] of `length`, weighted by entry j of each carrier.  The
    complex model has the carrier exp(-1j*omega*v), the real one
    cos(omega*v) and sin(omega*v) sharing `cov`, with v = n*c + m*d."""

    rows: np.ndarray
    carriers: tuple[np.ndarray, ...]
    process: ModulatingProcessSpec
    length: int

    @cached_property
    def cov(self) -> np.ndarray:
        """R, the covariance of the `length` process samples, built on first
        read: routes that read only rows and carriers never build it."""
        return process_covariance(self.process, self.length)

    @cached_property
    def lower(self) -> np.ndarray:
        """R's lower Cholesky factor L, R = L L^T, built on first read in closed
        form, R's Toeplitz gather with zeros above the diagonal: the AR(1)
        recursion's map from unit innovations to stationary samples, L[k, 0] =
        s * ar^k / sqrt(1 - ar^2), L[k, j] = s * ar^(k-j) for 1 <= j <= k, with
        s = sqrt(variance); s * I for white noise (ar = 0)."""
        ar, size = self.process.ar_coefficient, self.length
        powers = math.sqrt(self.process.variance) * ar ** np.arange(size)
        lower = _toeplitz(np.concatenate([powers[::-1], np.zeros(size - 1)]), size)
        lower[:, 0] /= math.sqrt(1.0 - ar * ar)
        return lower


def factor_block(
    comp: EvanescentComponent, rect: LatticeRect, real_valued: bool = False
) -> FactorBlock:
    """The component's factor block over the rectangle: the one place its
    carriers are built."""
    rows, length, coords = lattice_map(comp, rect)
    if real_valued:
        carriers = (np.cos(comp.omega * coords), np.sin(comp.omega * coords))
    else:
        carriers = (np.exp(-1j * comp.omega * coords),)
    return FactorBlock(rows, carriers, comp.process, length)


def _refuse_overflow(components, rect: LatticeRect, trials: int, noise_power: float = 0.0) -> None:
    """Raises ValueError when N*M * trials * power * _POWER_HEADROOM, the
    snapshots' squared norms with headroom, would pass the float64 maximum,
    or when an innovation variance (R's factor, at most the marginal one) or
    a positive noise power is subnormal, as the draws would be.  An entry's
    power is the noise power plus each component's marginal variance, its
    carriers having unit modulus (cos^2 + sin^2 = 1 in the real model)."""
    limit = sys.float_info.max / (_POWER_HEADROOM * rect.size)
    power = noise_power + sum(c.process.marginal_variance for c in components)
    if power and trials > limit / power:  # an int compared, never converted: trials may be huge
        raise ValueError(
            f"snapshot power overflows float64: N*M * trials * {power:g} "
            f"exceeds {sys.float_info.max:g} / {_POWER_HEADROOM:g}"
        )
    variances = (*(c.process.variance for c in components), noise_power)
    tiny = [p for p in variances if 0.0 < p < sys.float_info.min]
    if tiny:
        raise ValueError(
            f"snapshot power underflows float64: {tiny[0]:g} is below {sys.float_info.min:g}"
        )


def draw_lines(model, trials: int, seed: int) -> np.ndarray:
    """Seeded line-space draws of the model's component sum, shape
    (trials, sum(rows)): one column block V_k = u_k L^T per carrier, in the
    model's block and carrier order, the lines of its line Gram.

    Component q draws from the stream (seed, 1, q) one unit draw u per
    carrier, of the block's length, and colours it with the block's factor
    L, the AR(1) recursion in closed form, so each row of V_k has covariance R.
    The real model's cosine and sine carriers take two independent real
    draws; the complex model's draws are circularly symmetric.

    Raises:
        ValueError: for trials below one.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    carriers = model._carriers
    lines = np.empty((trials, carriers[-1][-1] if carriers else 0), dtype=model.dtype)
    rngs = [np.random.default_rng([seed, 1, q]) for q in range(len(model.blocks))]
    for q, _, length, _, lo, hi in carriers:
        shape = (trials, length)
        unit = rngs[q].standard_normal(shape)
        if not model.real_valued:
            unit = unit + 1j * rngs[q].standard_normal(shape)
            # unit variance split evenly over re/im; numpy's complex division
            # by a real number is this product, through a slower loop
            unit *= 1.0 / np.sqrt(2.0)
        lines[:, lo:hi] = unit @ model.blocks[q].lower.T
    return lines


def scatter_lines(model, lines: np.ndarray) -> np.ndarray:
    """The snapshots x = sum_k C_k^H v_k of line-space draws (`draw_lines`),
    shape (trials, N*M): lattice point j of carrier w reads column rows[j]
    of its block, times conj(w[j]).  Apart from the output, one term
    buffer is allocated."""
    out = np.zeros((lines.shape[0], model.rect.size), dtype=model.dtype)
    term = np.empty_like(out)
    for _, rows, _, carrier, lo, hi in model._carriers:
        # rows index within the block's length; "clip" writes straight into term
        np.take(lines[:, lo:hi], rows, axis=1, out=term, mode="clip")
        term *= np.conj(carrier)
        out += term
    return out


def synthesize_batch(model, trials: int, seed: int, noise_power: float = 0.0) -> np.ndarray:
    """Seeded snapshots of the model's component sum, shape (trials, N*M):
    `scatter_lines(model, draw_lines(model, trials, seed))`, so the
    snapshot is x = sum_q C_q^H L_q u_q and its covariance is Gamma.
    One realization is a batch of one, reshaped to (N, M).
    Optional circular white noise of the given power is added per snapshot
    (complex model only): a real draw scaled into the real parts, then one
    into the imaginary parts.  Besides the line draws, one term buffer and
    one noise draw of the output's size are allocated.

    Raises:
        ValueError: for trials below one, a noise power that is negative,
            infinite or NaN, or noise on the real model.
    """
    if not 0.0 <= noise_power < math.inf:
        raise ValueError(f"noise power must be non-negative and finite, got {noise_power}")
    if model.real_valued and noise_power > 0.0:
        raise ValueError("snapshot noise is circular complex; the real model takes none")
    out = scatter_lines(model, draw_lines(model, trials, seed))
    if noise_power > 0.0:
        rng = np.random.default_rng([seed, 2])
        scale = np.sqrt(noise_power / 2.0)
        draw = np.empty(out.shape)
        for part in (out.real, out.imag):
            rng.standard_normal(out=draw)
            draw *= scale
            part += draw
    return out
