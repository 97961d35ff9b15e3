"""Ground-truth direction trajectories and reproducible random streams.

A run's trajectory is three ``RunConfig`` fields: ``trajectory``, one of
``TRAJECTORIES``; ``slots``, the number of tracked slots; and ``omega``:
  * 'static': a constant sine, drawn uniform on [-1, 1] per trial;
  * 'sinusoidal': angle ``(pi/3) sin(2 pi n/1000)`` plus iid Gaussian jitter
    of standard deviation 0.005 rad;
  * 'fixed-velocity': the angle advances by exactly ``omega`` radians per
    slot, reversing direction before it would leave [-pi/3, pi/3]
    (``ANGLE_BAND``).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .harness import RunConfig

__all__ = [
    "TRAJECTORIES",
    "ANGLE_BAND",
    "generate",
    "RngPlan",
    "STREAM_TRAJECTORY",
    "STREAM_OBSERVATION",
    "STREAM_PROBE",
    "STREAM_INIT",
]

# stream identifiers for substream derivation
STREAM_TRAJECTORY = 0
STREAM_OBSERVATION = 1
STREAM_PROBE = 2
STREAM_INIT = 3

TRAJECTORIES = ("static", "sinusoidal", "fixed-velocity")

# the sinusoid's angle amplitude (rad), period (slots) and Gaussian jitter
# (rad), and the fixed-velocity reflection band [-band, band] (rad)
_SINE_AMPLITUDE = math.pi / 3.0
_SINE_PERIOD = 1000.0
_SINE_JITTER = 0.005
ANGLE_BAND = math.pi / 3.0


def generate(config: RunConfig, trials: range) -> np.ndarray:
    """Direction sines of ``trials`` of a run, one row per trial: column 0 is
    the warm-up anchor, columns 1..slots are the tracked slots.  A row's
    draws come from its trial's ``STREAM_TRAJECTORY`` substream."""
    n = config.slots
    x = np.empty((len(trials), n + 1))
    rngs = RngPlan(config.seed).batch(trials, STREAM_TRAJECTORY)
    if config.trajectory == "static":
        x[:] = np.array([rng.uniform(-1.0, 1.0) for rng in rngs])[:, None]
    elif config.trajectory == "sinusoidal":
        # |angle| stays below pi/2: the jitter would need a 105-sigma draw;
        # built in place, as the chunk's largest array
        slots = np.arange(n + 1)
        theta = _SINE_AMPLITUDE * np.sin(2.0 * np.pi * slots / _SINE_PERIOD)
        for row, rng in zip(x, rngs):
            rng.standard_normal(out=row)
        x *= _SINE_JITTER
        x += theta
        np.sin(x, out=x)
    else:  # fixed-velocity draws nothing; reflect before a step would exit the band
        theta = np.empty(n + 1)
        theta[0] = 0.0
        sign = 1.0
        for i in range(1, n + 1):
            if abs(theta[i - 1] + sign * config.omega) > ANGLE_BAND:
                sign = -sign
            theta[i] = theta[i - 1] + sign * config.omega
        x[:] = np.sin(theta)
    return x


@dataclass(frozen=True)
class RngPlan:
    """Deterministic substream derivation from one master seed.

    Every (trial, stream, tag) triple gets an independent generator, so trial
    results do not depend on batching, worker count or evaluation order.
    """

    master_seed: int

    def batch(
        self, trials: range, stream_id: int, tag: int = 0
    ) -> Iterator[np.random.Generator]:
        """The PCG64 generator of ``SeedSequence((master_seed, t, stream_id,
        tag))`` for each t of ``trials`` in turn, draw for draw, as one reused
        Generator whose state is set per trial; use each before advancing.
        The seed hash runs once per 2**32-aligned span of trials, vectorized,
        instead of once per trial."""
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
