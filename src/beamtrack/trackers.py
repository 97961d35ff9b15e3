"""Recursive beam tracker: coarse sweep initialization plus per-slot updates
of the sine of the arrival angle."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .arraymodel import ArrayGeometry, conjugate_beam, steering_matrix

__all__ = [
    "StepSizeSchedule",
    "SineTrackerState",
    "SweepDictionary",
    "codebook_directions",
    "dft_codebook",
    "coarse_sweep",
    "recursive_step",
    "alpha_star",
]

@dataclass(frozen=True)
class StepSizeSchedule:
    """Step sizes ``alpha/(n + n0)`` (diminishing) or constant ``alpha`` (fixed)."""

    kind: str
    alpha: float
    n0: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("diminishing", "fixed"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not (math.isfinite(self.n0) and self.n0 >= 0):
            raise ValueError(f"n0 must be nonnegative and finite, got {self.n0}")

    def at(self, n: int) -> float:
        if self.kind == "fixed":
            return self.alpha
        return self.alpha / (n + self.n0)

    @staticmethod
    def diminishing(alpha: float, n0: float = 0.0) -> "StepSizeSchedule":
        return StepSizeSchedule("diminishing", alpha, n0)

    @staticmethod
    def fixed(alpha: float) -> "StepSizeSchedule":
        return StepSizeSchedule("fixed", alpha)


def alpha_star(geom: ArrayGeometry) -> float:
    """Step-size coefficient giving the fastest asymptotic convergence,
    ``lambda / (sqrt(M) (M-1) pi d)``."""
    m = geom.num_antennas
    return 1.0 / (math.sqrt(m) * (m - 1) * math.pi * geom.spacing_over_wavelength)


@dataclass(frozen=True)
class SineTrackerState:
    """State of the sine-domain tracker.

    ``slot`` is the index of the next update, starting at 1; the pilot for
    that slot must be taken with ``probe_weights``.
    """

    x_hat: float
    schedule: StepSizeSchedule
    geom: ArrayGeometry
    slot: int = 1

    @property
    def probe_weights(self) -> np.ndarray:
        return conjugate_beam(self.geom, self.x_hat)


@dataclass(frozen=True)
class SweepDictionary:
    """Uniform sine-space candidate grid used by the coarse sweep.

    The ``size`` points are ``(2k - 1 - size)/size`` for k = 1..size,
    symmetric about zero and strictly inside (-1, 1).
    """

    size: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("dictionary size must be positive")

    @property
    def points(self) -> np.ndarray:
        k = np.arange(1, self.size + 1)
        return (2 * k - 1 - self.size) / self.size


def codebook_directions(geom: ArrayGeometry) -> np.ndarray:
    """The M uniformly spaced sweep directions: the M-point sine grid."""
    return SweepDictionary(geom.num_antennas).points


def dft_codebook(geom: ArrayGeometry) -> np.ndarray:
    """Sweep beams, one conjugate beam per codebook direction (one per row)."""
    return steering_matrix(geom, codebook_directions(geom)) / math.sqrt(
        geom.num_antennas
    )


def coarse_sweep(
    geom: ArrayGeometry, sweep: SweepDictionary, pilots: np.ndarray
) -> float:
    """Initial direction estimate from one full codebook sweep.

    ``pilots[m]`` must be the observation taken with the m-th codebook beam.
    Scores every dictionary point against the beam-weighted pilot combination;
    ties break toward the smallest candidate.
    """
    pilots = np.asarray(pilots, dtype=complex)
    if pilots.shape != (geom.num_antennas,):
        raise ValueError(
            f"expected {geom.num_antennas} pilots, got shape {pilots.shape}"
        )
    beams = dft_codebook(geom)
    combined = pilots @ beams  # sum_m y_m w_m
    candidates = steering_matrix(geom, sweep.points)
    scores = np.abs(np.conj(candidates) @ combined)
    return float(sweep.points[int(np.argmax(scores))])


def recursive_step(state: SineTrackerState, y: complex) -> SineTrackerState:
    """Advance the sine tracker by one slot using observation ``y`` taken with
    ``state.probe_weights``; the estimate stays clipped to [-1, 1]."""
    a_n = state.schedule.at(state.slot)
    x_new = min(max(state.x_hat - a_n * float(np.imag(y)), -1.0), 1.0)
    return replace(state, x_hat=x_new, slot=state.slot + 1)

