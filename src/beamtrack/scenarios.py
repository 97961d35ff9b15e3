"""Ground-truth direction trajectories and reproducible random streams."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Trajectory",
    "generate",
    "RngPlan",
    "STREAM_TRAJECTORY",
    "STREAM_OBSERVATION",
    "STREAM_PROBE",
    "STREAM_INIT",
    "complex_normal",
]

# stream identifiers for substream derivation
STREAM_TRAJECTORY = 0
STREAM_OBSERVATION = 1
STREAM_PROBE = 2
STREAM_INIT = 3

_ANGLE_BAND = math.pi / 3.0


@dataclass(frozen=True)
class Trajectory:
    """Direction trajectory specification.

    kind 'static': constant sine (drawn uniform on [-1, 1] unless ``x0`` set).
    kind 'sinusoidal': angle ``amplitude * sin(2*pi*n/period)`` plus iid
    Gaussian jitter of standard deviation ``jitter`` radians.
    kind 'fixed_velocity': angle advances by exactly ``omega`` radians per
    slot, reversing direction before it would leave [-band, band].
    """

    kind: str
    num_slots: int
    x0: float | None = None
    amplitude: float = _ANGLE_BAND
    period: float = 1000.0
    jitter: float = 0.005
    omega: float = 0.0
    band: float = _ANGLE_BAND

    def __post_init__(self) -> None:
        if self.kind not in ("static", "sinusoidal", "fixed_velocity"):
            raise ValueError(f"unknown trajectory kind {self.kind!r}")
        if self.num_slots < 1:
            raise ValueError("need at least one slot")
        if not math.isfinite(self.omega):
            raise ValueError(f"angular velocity must be finite, got {self.omega}")
        if self.kind == "fixed_velocity":
            if self.omega < 0:
                raise ValueError("angular velocity must be nonnegative")
            if self.omega > self.band:
                raise ValueError("angular velocity exceeds the reflection band")
        if self.x0 is not None and not -1.0 <= self.x0 <= 1.0:
            raise ValueError("x0 outside [-1, 1]")

    @staticmethod
    def static(num_slots: int, x0: float | None = None) -> "Trajectory":
        return Trajectory("static", num_slots, x0=x0)

    @staticmethod
    def sinusoidal(num_slots: int, **kw) -> "Trajectory":
        return Trajectory("sinusoidal", num_slots, **kw)

    @staticmethod
    def fixed_velocity(num_slots: int, omega: float, **kw) -> "Trajectory":
        return Trajectory("fixed_velocity", num_slots, omega=omega, **kw)


def generate(traj: Trajectory, rng: np.random.Generator) -> np.ndarray:
    """Direction sines for one trial: index 0 is the warm-up anchor, indices
    1..num_slots are the tracked slots."""
    n = traj.num_slots
    if traj.kind == "static":
        x = traj.x0 if traj.x0 is not None else rng.uniform(-1.0, 1.0)
        return np.full(n + 1, x)
    if traj.kind == "sinusoidal":
        slots = np.arange(n + 1)
        theta = traj.amplitude * np.sin(2.0 * np.pi * slots / traj.period)
        theta = theta + traj.jitter * rng.standard_normal(n + 1)
        # jitter can push past the physical angle range
        theta = np.clip(theta, -np.pi / 2, np.pi / 2)
        return np.sin(theta)
    # fixed_velocity: reflect before a step would exit the band
    theta = np.empty(n + 1)
    theta[0] = 0.0
    sign = 1.0
    for i in range(1, n + 1):
        if abs(theta[i - 1] + sign * traj.omega) > traj.band:
            sign = -sign
        theta[i] = theta[i - 1] + sign * traj.omega
    return np.sin(theta)


@dataclass(frozen=True)
class RngPlan:
    """Deterministic substream derivation from one master seed.

    Every (trial, stream, tag) triple gets an independent generator, so trial
    results do not depend on batching, worker count or evaluation order.
    """

    master_seed: int

    def stream(self, trial: int, stream_id: int, tag: int = 0) -> np.random.Generator:
        ss = np.random.SeedSequence((self.master_seed, trial, stream_id, tag))
        return np.random.Generator(np.random.PCG64(ss))

    def trajectory_rng(self, trial: int) -> np.random.Generator:
        return self.stream(trial, STREAM_TRAJECTORY)

    def observation_rng(self, trial: int, tag: int = 0) -> np.random.Generator:
        return self.stream(trial, STREAM_OBSERVATION, tag)

    def probe_rng(self, trial: int, tag: int = 0) -> np.random.Generator:
        return self.stream(trial, STREAM_PROBE, tag)

    def init_rng(self, trial: int) -> np.random.Generator:
        return self.stream(trial, STREAM_INIT)


def complex_normal(rng: np.random.Generator, size) -> np.ndarray:
    """Circularly symmetric complex standard-Gaussian samples (unit variance)."""
    pair = rng.standard_normal(size=tuple(np.atleast_1d(size)) + (2,))
    return (pair[..., 0] + 1j * pair[..., 1]) * math.sqrt(0.5)
