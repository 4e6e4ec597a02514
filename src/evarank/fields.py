"""Evanescent field components, their lattice map, and seeded synthesis.

A component pins a coprime slope (a, b), a modulation frequency omega, and a
1-D modulating process.  Sample (n, m) of the complex component is

    s(n*a + m*b) * exp(1j * omega * (n*c + m*d))

with (c, d) the slope's Bezout companion, so the whole N-by-M field is driven
by one short 1-D process: the source of every rank deficiency measured later.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .lattice import LatticeRect, SlopePair

TWO_PI = 2.0 * math.pi


class ProcessKind(str, Enum):
    WHITE = "white"
    AR1 = "ar1"


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
        if not self.variance > 0:
            raise ValueError("process variance must be positive")
        if not abs(self.ar_coefficient) < 1:
            raise ValueError("AR(1) coefficient must satisfy |ar| < 1")
        if self.kind is ProcessKind.WHITE and self.ar_coefficient != 0.0:
            raise ValueError("white process takes no AR coefficient")

    def autocovariance(self, lag: int) -> float:
        """Model autocovariance at integer lag."""
        if self.kind is ProcessKind.WHITE:
            return self.variance if lag == 0 else 0.0
        ar = self.ar_coefficient
        return self.variance * ar ** abs(lag) / (1.0 - ar * ar)


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

    Consecutive integers: with gcd(a, b) = 1 every value in between is hit.
    Length is (N-1)*|a| + (M-1)*|b| + 1.
    """
    ext_n = (rect.N - 1) * slope.a
    ext_m = (rect.M - 1) * slope.b
    k_min = min(ext_m, 0)
    k_max = ext_n + max(ext_m, 0)
    return (k_min, k_max)


def check_distinct_triples(components) -> None:
    """Components sharing a slope must use different frequencies."""
    seen: set[tuple[int, int, float]] = set()
    for comp in components:
        t = comp.triple()
        if t in seen:
            raise ValueError(f"duplicate component triple (a, b, omega) = {t}")
        seen.add(t)


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


def _draw_process(
    spec: ModulatingProcessSpec,
    length: int,
    rng: np.random.Generator,
    trials: int,
    complex_valued: bool,
) -> np.ndarray:
    """Stationary draws, shape (trials, length)."""
    shape = (trials, length)
    if complex_valued:
        # Circularly symmetric: unit-variance split evenly over re/im.
        unit = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    else:
        unit = rng.standard_normal(shape)
    if spec.kind is ProcessKind.WHITE:
        return np.sqrt(spec.variance) * unit
    ar = spec.ar_coefficient
    out = np.empty(shape, dtype=unit.dtype)
    scale = np.sqrt(spec.variance)
    out[..., 0] = unit[..., 0] * (scale / np.sqrt(1.0 - ar * ar))
    for k in range(1, length):
        out[..., k] = ar * out[..., k - 1] + scale * unit[..., k]
    return out


def synthesize_batch(
    components,
    rect: LatticeRect,
    trials: int,
    seed: int,
    noise_power: float = 0.0,
    real_valued: bool = False,
) -> np.ndarray:
    """Seeded snapshots of the component sum, shape (trials, N*M).

    Component q draws from the stream (seed, 1, q); one realization is a
    batch of one, reshaped to (N, M).  The real model gives each component
    cosine and sine carriers with two independent draws of its process.
    Optional circular white noise of the given power is added per snapshot
    (complex model only).

    Raises:
        ValueError: when two components share the full (a, b, omega) triple;
            such a pair is a single component and would silently double its
            variance instead of adding an independent field.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if real_valued and noise_power > 0.0:
        raise ValueError("snapshot noise is circular complex; the real model takes none")
    components = list(components)
    check_distinct_triples(components)
    out = np.zeros((trials, rect.size), dtype=np.float64 if real_valued else np.complex128)
    for q, comp in enumerate(components):
        rows, length, coords = lattice_map(comp, rect)
        rng = np.random.default_rng([seed, 1, q])
        if real_valued:
            carriers = (np.cos(comp.omega * coords), np.sin(comp.omega * coords))
        else:
            carriers = (np.exp(1j * comp.omega * coords),)
        for carrier in carriers:
            s = _draw_process(comp.process, length, rng, trials, not real_valued)
            out += s[:, rows] * carrier[None, :]
    if noise_power > 0.0:
        rng = np.random.default_rng([seed, 2])
        noise = rng.standard_normal((trials, rect.size)) + 1j * rng.standard_normal(
            (trials, rect.size)
        )
        out += np.sqrt(noise_power / 2.0) * noise
    return out
