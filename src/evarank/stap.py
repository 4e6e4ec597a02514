"""Space-time adaptive processing scenarios as evanescent component sets.

An airborne radar's interference covariance over N antennas and M pulses is
a rank-deficient sum: each barrage jammer is a vertical-slope component
(random per pulse, steered across antennas), and range-ambiguous clutter is
a unit-slope ridge whose rank follows the Brennan rule N + M*beta - beta.
Mapping both onto components lets the closed-form rank drive how many
dominant eigenvectors to project away.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .covariance import assemble_gamma
from .fields import (
    TWO_PI,
    EvanescentComponent,
    ModulatingProcessSpec,
    ProcessKind,
    synthesize_batch,
)
from .lattice import LatticeRect, make_slope_pair
from .rank import RankPrediction, _short_gram, predict_rank

# Squared norms of the draws reach N*M * trials * their mean power; a draw's
# squared sum exceeds 100 times its mean with probability of about exp(-100).
_POWER_HEADROOM = 1e2


@dataclass(frozen=True)
class JammerSpec:
    """Barrage jammer: arrival angle frequency and per-sample power."""

    angle_freq: float
    power: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.angle_freq):
            raise ValueError("jammer angle frequency must be finite")
        if not 0 < self.power < math.inf:
            raise ValueError("jammer power must be positive and finite")


@dataclass(frozen=True)
class ClutterRidgeSpec:
    """Clutter ridge with slope (1, beta) and its modulating process."""

    slope: int
    power: float
    kind: ProcessKind = ProcessKind.WHITE
    ar_coefficient: float = 0.0
    ridge_freq: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", ProcessKind(self.kind))
        if not isinstance(self.slope, int) or self.slope < 1:
            raise ValueError("clutter slope must be a positive integer")
        if not 0 < self.power < math.inf:
            raise ValueError("clutter power must be positive and finite")


@dataclass(frozen=True)
class TargetSpec:
    angle_freq: float
    doppler_freq: float
    amplitude: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.angle_freq) and math.isfinite(self.doppler_freq)):
            raise ValueError("target frequencies must be finite")
        if not 0 < self.amplitude < math.inf:
            raise ValueError("target amplitude must be positive and finite")

    def steering(self, rect: LatticeRect) -> np.ndarray:
        n = np.arange(rect.N)[:, None]
        m = np.arange(rect.M)[None, :]
        phase = self.angle_freq * n + self.doppler_freq * m
        return (self.amplitude * np.exp(1j * phase)).reshape(rect.size)


@dataclass(frozen=True)
class StapScenario:
    """N antennas by M pulses with jammers, optional clutter, and noise."""

    rect: LatticeRect
    jammers: tuple[JammerSpec, ...] = ()
    clutter: ClutterRidgeSpec | None = None
    noise_power: float = 1.0
    target: TargetSpec | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "jammers", tuple(self.jammers))
        if not 0 < self.noise_power < math.inf:
            raise ValueError("noise power must be positive and finite")
        freqs = [j.angle_freq % TWO_PI for j in self.jammers]
        if len(set(freqs)) != len(freqs):
            raise ValueError("jammer angle frequencies must be distinct")


def scenario_to_components(scenario: StapScenario) -> list[EvanescentComponent]:
    """Expands a scenario into its interference component list.

    Jammers become (0, 1) components with white pulse-to-pulse modulation;
    the clutter ridge becomes a (1, beta) component.  Noise and target stay
    outside: they are not part of the low-rank interference structure.
    """
    comps: list[EvanescentComponent] = []
    vertical = make_slope_pair(0, 1)
    for jam in scenario.jammers:
        process = ModulatingProcessSpec(ProcessKind.WHITE, variance=jam.power)
        comps.append(EvanescentComponent(vertical, jam.angle_freq, process))
    if scenario.clutter is not None:
        cl = scenario.clutter
        process = ModulatingProcessSpec(cl.kind, variance=cl.power, ar_coefficient=cl.ar_coefficient)
        comps.append(
            EvanescentComponent(make_slope_pair(1, cl.slope), cl.ridge_freq, process)
        )
    return comps


def interference_covariance(scenario: StapScenario) -> np.ndarray:
    """Exact interference-plus-noise covariance Gamma + noise_power * I."""
    gamma = assemble_gamma(scenario_to_components(scenario), scenario.rect).gamma
    return gamma + scenario.noise_power * np.eye(scenario.rect.size)


def dominant_projection(covariance: np.ndarray, r: int) -> np.ndarray:
    """Projector onto the complement of the top-r eigenvectors.

    Raises:
        ValueError: when r is outside [0, dim].
    """
    covariance = np.asarray(covariance)
    dim = covariance.shape[0]
    if covariance.shape != (dim, dim):
        raise ValueError("covariance must be square")
    if not 0 <= r <= dim:
        raise ValueError(f"subspace dimension {r} outside [0, {dim}]")
    if r == 0:
        return np.eye(dim, dtype=covariance.dtype)
    _, vectors = np.linalg.eigh(covariance)
    top = vectors[:, dim - r:]
    return np.eye(dim, dtype=top.dtype) - top @ top.conj().T


def _refuse_overflow(scenario: StapScenario, comps, trials: int) -> None:
    """Raises ValueError when the squared norms taken below would overflow."""
    limit = sys.float_info.max / (_POWER_HEADROOM * scenario.rect.size)
    draws = scenario.noise_power + sum(c.process.variance for c in comps)
    if trials > limit / draws:  # an int compared, never converted: trials may be huge
        raise ValueError(
            f"snapshot power overflows float64: N*M * trials * {draws:g} "
            f"exceeds {sys.float_info.max:g} / {_POWER_HEADROOM:g}"
        )
    target = scenario.target
    if target is not None and target.amplitude * target.amplitude > limit:
        raise ValueError(
            f"target power overflows float64: N*M * {target.amplitude:g}**2 "
            f"exceeds {sys.float_info.max:g} / {_POWER_HEADROOM:g}"
        )


def _power(x: np.ndarray) -> float:
    """Squared Frobenius norm."""
    return float(np.vdot(x, x).real)


@dataclass
class SubspaceReport:
    """Outcome of one projection experiment, JSON-friendly via to_dict."""

    prediction: RankPrediction
    rank_used: int
    trials: int
    seed: int
    eigenvalues: np.ndarray
    residual_power_ratio: float
    suppression_db: float
    target_retention: float | None = None

    def to_dict(self) -> dict:
        return {
            "predicted_rank": self.prediction.formula_value,
            "regime_flag": self.prediction.regime_flag.value,
            "rank_used": self.rank_used,
            "trials": self.trials,
            "seed": self.seed,
            "eigenvalues": [float(x) for x in self.eigenvalues],
            "residual_power_ratio": self.residual_power_ratio,
            "suppression_db": None if math.isinf(self.suppression_db) else self.suppression_db,
            "target_retention": self.target_retention,
        }


def suppression_experiment(
    scenario: StapScenario,
    trials: int = 64,
    seed: int = 0,
    rank_used: int | None = None,
) -> SubspaceReport:
    """Measures interference suppression of the dominant-subspace projector.

    Draws `trials` interference-plus-noise snapshots and projects out the
    top eigenvectors of their sample covariance; the subspace dimension
    defaults to the closed-form rank prediction.  Suppression is the dB
    ratio of exact interference power before and after projection, so it
    reflects the true covariance, not the estimate.  Deterministic for a
    fixed seed.

    The sample covariance is Y^H Y for Y = snapshots.conj() / sqrt(trials),
    and it is never formed.  With fewer trials than N*M, one eigh of the
    trials-by-trials Gram Y Y^H gives its nonzero eigenvalues, and a reduced
    QR of Y^H u an orthonormal basis of its top-r eigenvectors.  Otherwise
    one thin SVD of the snapshots does: eigenvalues s**2 / trials,
    eigenvectors the rows of Vh transposed (not conjugated).  With
    Gamma = F^H F for the interference factor F, the power before is
    ||F||^2 and after is ||F - (F U) U^H||^2.

    Raises:
        ValueError: when r is outside [0, N*M], or exceeds the trial count:
            the snapshots span at most `trials` directions, and any further
            ones would come from an arbitrary basis of their null space.
            Also when the squared norms of the draws or of the target
            steering vector would overflow float64.
    """
    comps = scenario_to_components(scenario)
    rect = scenario.rect
    prediction = predict_rank(comps, rect)
    r = prediction.formula_value if rank_used is None else rank_used
    if not 0 <= r <= rect.size:
        raise ValueError(f"subspace dimension {r} outside [0, {rect.size}]")
    if 1 <= trials < r:  # a trial count below one is synthesize_batch's to refuse
        raise ValueError(f"subspace dimension {r} exceeds the trial count {trials}")
    _refuse_overflow(scenario, comps, trials)
    snapshots = synthesize_batch(
        comps, rect, trials, seed, noise_power=scenario.noise_power
    )
    eigenvalues = np.zeros(rect.size)
    if trials < rect.size:
        values, vectors = np.linalg.eigh(_short_gram(snapshots.conj() / math.sqrt(trials)))
        eigenvalues[:trials] = np.clip(values[::-1], 0.0, None)
        # Y^H u spans the subspace; QR, not column norms, keeps U orthonormal
        # where u has lost accuracy on eigenvalues far below the largest
        top, _ = np.linalg.qr(snapshots.T @ vectors[:, trials - r:])
    else:
        _, singular, vh = np.linalg.svd(snapshots, full_matrices=False)
        eigenvalues[: singular.size] = singular**2 / trials
        top = vh[:r].T

    factor = assemble_gamma(comps, rect).whitened_factor()
    before = _power(factor)
    after = _power(factor - (factor @ top) @ top.conj().T)
    ratio = 0.0 if before == 0.0 else after / before  # 0.0: nothing to suppress
    suppression_db = math.inf if ratio == 0.0 else -10.0 * math.log10(ratio)

    retention = None
    if scenario.target is not None:
        steering = scenario.target.steering(rect)
        retention = _power(steering - top @ (top.conj().T @ steering)) / _power(steering)
    return SubspaceReport(
        prediction=prediction,
        rank_used=r,
        trials=trials,
        seed=seed,
        eigenvalues=eigenvalues,
        residual_power_ratio=ratio,
        suppression_db=suppression_db,
        target_retention=retention,
    )
