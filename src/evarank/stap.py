"""Space-time adaptive processing scenarios as evanescent component sets.

An airborne radar's interference covariance over N antennas and M pulses is
a rank-deficient sum: each barrage jammer is a vertical-slope component
(random per pulse, steered across antennas), and range-ambiguous clutter is
a (1, beta) ridge whose rank follows the Brennan rule N + M*beta - beta.
`jammer` and `clutter_ridge` build them as those components, so the
closed-form rank drives how many dominant eigenvectors to project away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import _divide, _hermitian_gram, assemble_gamma
from .fields import (
    TWO_PI,
    EvanescentComponent,
    ModulatingProcessSpec,
    ProcessKind,
    _refuse_overflow,
    check_distinct_triples,
    synthesize_batch,
)
from .lattice import LatticeRect, make_slope_pair
from .rank import predict_rank


def jammer(angle_freq: float, power: float) -> EvanescentComponent:
    """Barrage jammer: a (0, 1) component at its arrival angle frequency,
    white pulse to pulse with the given per-sample power."""
    process = ModulatingProcessSpec(ProcessKind.WHITE, power)
    return EvanescentComponent(make_slope_pair(0, 1), angle_freq, process)


def clutter_ridge(slope: int, power: float, kind: ProcessKind = ProcessKind.WHITE,
                  ar_coefficient: float = 0.0, ridge_freq: float = 0.0) -> EvanescentComponent:
    """Clutter ridge: a (1, slope) component at the ridge frequency, driven by
    the given modulating process.  A bad kind is refused first, then a slope
    below one, then the rest of the process."""
    kind = ProcessKind(kind)
    if not isinstance(slope, int) or slope < 1:
        raise ValueError("clutter slope must be a positive integer")
    process = ModulatingProcessSpec(kind, power, ar_coefficient)
    return EvanescentComponent(make_slope_pair(1, slope), ridge_freq, process)


@dataclass(frozen=True)
class TargetSpec:
    """A target's angle and Doppler frequencies, each taken mod 2*pi.  Its
    amplitude is left out: the retention `stap` reports is a power ratio."""

    angle_freq: float
    doppler_freq: float

    def __post_init__(self) -> None:
        for name in ("angle_freq", "doppler_freq"):
            freq = getattr(self, name)
            if not math.isfinite(freq):
                raise ValueError("target frequencies must be finite")
            object.__setattr__(self, name, float(freq) % TWO_PI)

    def steering(self, rect: LatticeRect) -> np.ndarray:
        """The unit-modulus steering vector over the rectangle, vectorized row-major."""
        n = np.arange(rect.N)[:, None]
        m = np.arange(rect.M)[None, :]
        return np.exp(1j * (self.angle_freq * n + self.doppler_freq * m)).reshape(rect.size)


@dataclass(frozen=True)
class StapScenario:
    """N antennas by M pulses: the interference components (from `jammer`
    and `clutter_ridge`), white noise, and an optional target."""

    rect: LatticeRect
    interference: tuple[EvanescentComponent, ...] = ()
    noise_power: float = 1.0
    target: TargetSpec | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "interference", tuple(self.interference))
        if not 0 < self.noise_power < math.inf:
            raise ValueError("noise power must be positive and finite")
        check_distinct_triples(self.interference)


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


def _power(x: np.ndarray) -> float:
    """Squared Frobenius norm."""
    return float(np.vdot(x, x).real)


def suppression_experiment(
    scenario: StapScenario,
    trials: int = 64,
    seed: int = 0,
    rank_used: int | None = None,
) -> dict:
    """Measures interference suppression of the dominant-subspace projector.

    Draws `trials` interference-plus-noise snapshots and projects out the
    top eigenvectors of their sample covariance; the subspace dimension
    defaults to the closed-form rank prediction.  Suppression is the dB
    ratio of exact interference power before and after projection, so it
    reflects the true covariance, not the estimate.  Deterministic for a
    fixed seed.  Returns the report `stap` prints: the prediction, the
    subspace dimension used, the sample eigenvalues (a list), the residual
    power ratio, its suppression in dB (None when the ratio is 0, nothing
    left), and the target's retained power fraction (None with no target).

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
            Also when the draws' squared norms would overflow float64, or a
            power is subnormal.
    """
    comps, rect = scenario.interference, scenario.rect
    prediction = predict_rank(comps, rect)
    r = prediction.formula_value if rank_used is None else rank_used
    if not 0 <= r <= rect.size:
        raise ValueError(f"subspace dimension {r} outside [0, {rect.size}]")
    if 1 <= trials < r:  # a trial count below one is synthesize_batch's to refuse
        raise ValueError(f"subspace dimension {r} exceeds the trial count {trials}")
    _refuse_overflow(comps, rect, trials, scenario.noise_power)
    model = assemble_gamma(comps, rect)
    snapshots = synthesize_batch(model, trials, seed, noise_power=scenario.noise_power)
    eigenvalues = np.zeros(rect.size)
    if trials < rect.size:
        y = snapshots.conj()  # a complex batch: a new array
        _divide(y, math.sqrt(trials))
        values, vectors = np.linalg.eigh(_hermitian_gram(y.T))  # Y Y^H
        eigenvalues[:trials] = np.clip(values[::-1], 0.0, None)
        # Y^H u spans the subspace; QR, not column norms, keeps U orthonormal
        # where u has lost accuracy on eigenvalues far below the largest
        top, _ = np.linalg.qr(snapshots.T @ vectors[:, trials - r:])
    else:
        _, singular, vh = np.linalg.svd(snapshots, full_matrices=False)
        eigenvalues[: singular.size] = singular**2 / trials
        top = vh[:r].T

    factor = model.whitened_factor()
    before = _power(factor)
    after = _power(factor - (factor @ top) @ top.conj().T)
    ratio = 0.0 if before == 0.0 else after / before  # 0.0: nothing to suppress

    retention = None
    if scenario.target is not None:
        steering = scenario.target.steering(rect)
        retention = _power(steering - top @ (top.conj().T @ steering)) / _power(steering)
    return {
        "predicted_rank": prediction.formula_value,
        "regime_flag": prediction.regime_flag.value,
        "rank_used": r,
        "trials": trials,
        "seed": seed,
        "eigenvalues": eigenvalues.tolist(),
        "residual_power_ratio": ratio,
        "suppression_db": None if ratio == 0.0 else -10.0 * math.log10(ratio),
        "target_retention": retention,
    }
