"""Ground-truth direction trajectories and reproducible random streams."""

from __future__ import annotations

import math
from collections.abc import Iterator
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
        if isinstance(self.num_slots, bool) or not isinstance(self.num_slots, int):
            raise ValueError(f"num_slots must be an integer, got {self.num_slots!r}")
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

    def batch(
        self, trials: range, stream_id: int, tag: int = 0
    ) -> Iterator[np.random.Generator]:
        """``stream(t, stream_id, tag)`` for each t of ``trials`` in turn, draw
        for draw, as one reused Generator whose state is set per trial; use
        each before advancing.  The seed hash runs once per 2**32-aligned
        span of trials, vectorized, instead of once per trial."""
        if trials.step != 1:
            raise ValueError(f"trials must be a range with step 1, got {trials}")
        rng = np.random.Generator(np.random.PCG64())
        bit_generator = rng.bit_generator
        lo = trials.start
        while lo < trials.stop:
            # below the next multiple of 2**32 only the trial's low word varies
            hi = min(trials.stop, (lo | _MASK32) + 1)
            low, *high = _words(lo)
            columns = [
                *_words(self.master_seed),
                np.arange(low, low + (hi - lo), dtype=np.uint32),
                *high, *_words(stream_id), *_words(tag),
            ]
            for words in _pcg64_seed_words(columns).tolist():
                bit_generator.state = _pcg64_state(*words)
                yield rng
            lo = hi


# numpy's SeedSequence entropy hash (pool of 4 uint32 words) and the seeding
# of PCG64 from its state words (O'Neill 2014)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _words(n: int) -> list[int]:
    """SeedSequence's coercion of an entropy integer: its 32-bit words, least
    significant first."""
    if n < 0:
        raise ValueError(f"expected a nonnegative integer, got {n}")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _seed_pool(entropy: list) -> list:
    """``SeedSequence(entropy).pool`` of entropy words, each a uint32 or a
    column of one word per trial; returns the 4 pool words (columns)."""
    u32 = np.uint32
    hash_const = u32(_INIT_A)

    def hashmix(value):
        nonlocal hash_const
        value = hash_const ^ value
        hash_const *= u32(_MULT_A)
        value = value * hash_const
        return value ^ (value >> u32(16))

    def mix(x, y):
        result = u32(_MIX_MULT_L) * x - u32(_MIX_MULT_R) * y
        return result ^ (result >> u32(16))

    padded = entropy + [u32(0)] * (_POOL_SIZE - len(entropy))
    pool = [hashmix(word) for word in padded[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _pcg64_seed_words(entropy: list) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(4, np.uint64)`` per trial, as a
    (trials, 4) uint64 array."""
    with np.errstate(over="ignore"):
        pool = _seed_pool([np.asarray(word, dtype=np.uint32) for word in entropy])
        state = np.empty((np.broadcast(*pool).size, 2 * _POOL_SIZE), dtype=np.uint32)
        hash_const = np.uint32(_INIT_B)  # generate_state cycles through the pool
        for i in range(2 * _POOL_SIZE):
            value = pool[i % _POOL_SIZE] ^ hash_const
            hash_const *= np.uint32(_MULT_B)
            value = value * hash_const
            state[:, i] = value ^ (value >> np.uint32(16))
    return state.astype("<u4").view("<u8")


def _pcg64_state(seed_hi: int, seed_lo: int, inc_hi: int, inc_lo: int) -> dict:
    """``PCG64`` state seeded from 4 SeedSequence words: ``srandom`` sets
    inc = 2*initseq + 1, then steps the LCG from 0, adds the seed, steps."""
    inc = (((inc_hi << 64) | inc_lo) << 1 | 1) & _MASK128
    state = ((inc + ((seed_hi << 64) | seed_lo)) * _PCG64_MULT + inc) & _MASK128
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


def complex_normal(rng: np.random.Generator, size) -> np.ndarray:
    """Circularly symmetric complex standard-Gaussian samples (unit variance)."""
    pair = rng.standard_normal(size=tuple(np.atleast_1d(size)) + (2,))
    return (pair[..., 0] + 1j * pair[..., 1]) * math.sqrt(0.5)
