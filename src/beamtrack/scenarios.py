"""Ground-truth direction trajectories and reproducible random streams.

A run's trajectory is three ``RunConfig`` fields: ``trajectory``, one of
``TRAJECTORIES``; ``slots``, the number of tracked slots; and ``omega``:
  * 'static': a constant sine, drawn uniform on [-1, 1] per trial;
  * 'sinusoidal': angle ``(pi/3) sin(2 pi n/1000)`` plus iid Gaussian jitter
    of standard deviation 0.005 rad;
  * 'fixed-velocity': the angle advances by exactly ``omega`` radians per
    slot, reversing direction before it would leave [-pi/3, pi/3]
    (``ANGLE_BAND``).

Every random draw comes from a per-trial substream (``RngPlan``): trial t's
stream s under tag g is the PCG64 generator of ``SeedSequence((seed, t, s,
g))``.  A chunk's seeded PCG64 states are computed at once, vectorized over
its trials, and a substream that is drawn from once, such as a static truth,
is its first ``uniform`` output in closed form, with no generator.
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
    draws come from its trial's ``STREAM_TRAJECTORY`` substream; a static
    row is that substream's first draw, for the whole chunk in closed form
    (``RngPlan.uniform``).  Only sinusoidal rows are filled: static rows are
    a read-only view of one column, fixed-velocity rows (no draws) one of
    one row, with zero stride along the slots and the trials respectively."""
    n = config.slots
    plan = RngPlan(config.seed)
    if config.trajectory == "static":
        x0 = plan.uniform(trials, STREAM_TRAJECTORY)
        return np.broadcast_to(x0[:, None], (len(trials), n + 1))
    if config.trajectory == "sinusoidal":
        # |angle| stays below pi/2: the jitter would need a 105-sigma draw;
        # built in place, as the chunk's largest array
        x = np.empty((len(trials), n + 1))
        slots = np.arange(n + 1)
        theta = _SINE_AMPLITUDE * np.sin(2.0 * np.pi * slots / _SINE_PERIOD)
        for row, rng in zip(x, plan.batch(trials, STREAM_TRAJECTORY)):
            rng.standard_normal(out=row)
        x *= _SINE_JITTER
        x += theta
        return np.sin(x, out=x)
    # fixed-velocity draws nothing; reflect before a step would exit the band
    theta = np.zeros(n + 1)
    sign = 1.0
    for i in range(1, n + 1):
        if abs(theta[i - 1] + sign * config.omega) > ANGLE_BAND:
            sign = -sign
        theta[i] = theta[i - 1] + sign * config.omega
    return np.broadcast_to(np.sin(theta), (len(trials), n + 1))


@dataclass(frozen=True)
class RngPlan:
    """Deterministic substream derivation from one master seed.

    Every (trial, stream, tag) triple gets an independent generator, so trial
    results do not depend on batching, worker count or evaluation order.
    Trial t's substream is the PCG64 generator of ``SeedSequence((master_seed,
    t, stream_id, tag))``; a chunk's seeded states are computed at once, and
    a substream that is drawn from once (``uniform``) needs no generator.
    """

    master_seed: int

    def batch(
        self, trials: range, stream_id: int, tag: int = 0
    ) -> Iterator[np.random.Generator]:
        """The substream generator of each t of ``trials`` in turn, draw for
        draw, as one reused Generator whose state is set per trial; use each
        before advancing."""
        rng = np.random.Generator(np.random.PCG64())
        bit_generator = rng.bit_generator
        for state_hi, state_lo, inc_hi, inc_lo in zip(
            *self._seeded(trials, stream_id, tag).tolist()
        ):
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo},
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield rng

    def uniform(self, trials: range, stream_id: int) -> np.ndarray:
        """Each trial's first ``uniform(-1, 1)`` draw of its tag-0 substream,
        bit for bit, in closed form: one more LCG step, PCG64's XSL-RR output
        and numpy's ``low + (high - low) * (out >> 11) * 2**-53`` at -1, 1."""
        state_hi, state_lo, inc_hi, inc_lo = self._seeded(trials, stream_id, 0)
        hi, lo = _lcg_step(state_hi, state_lo, inc_hi, inc_lo)
        xor, rot = hi ^ lo, hi >> 58
        out = (xor >> rot) | (xor << (-rot & 63))  # rotate right by rot
        return -1.0 + 2.0 * ((out >> 11) * 2.0**-53)

    def _seeded(self, trials: range, stream_id: int, tag: int) -> np.ndarray:
        """The seeded PCG64 state of each trial's substream, as 4 uint64
        columns (state_hi, state_lo, inc_hi, inc_lo).  The seed hash runs
        once per 2**32-aligned span of trials, vectorized."""
        if trials.step != 1:
            raise ValueError(f"trials must be a range with step 1, got {trials}")
        spans = [np.empty((0, 4), dtype=np.uint64)]
        lo = trials.start
        while lo < trials.stop:
            # below the next multiple of 2**32 only the trial's low word varies
            hi = min(trials.stop, (lo | _MASK32) + 1)
            low, *high = _words(lo)
            spans.append(_pcg64_seed_words([
                *_words(self.master_seed),
                np.arange(low, low + (hi - lo), dtype=np.uint32),
                *high, *_words(stream_id), *_words(tag),
            ]))
            lo = hi
        return _pcg64_srandom(np.concatenate(spans).T)


# numpy's SeedSequence entropy hash (pool of 4 uint32 words) and the seeding
# of PCG64 from its state words (O'Neill 2014)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT_HI, _PCG64_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


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


def _pcg64_srandom(words: np.ndarray) -> np.ndarray:
    """PCG64's ``srandom`` from SeedSequence words (seed_hi, seed_lo,
    initseq_hi, initseq_lo), each a uint64 column: inc = 2*initseq + 1, then
    the LCG steps from 0, adds the seed and steps again, so state =
    (inc + seed)*MULT + inc mod 2**128.  Returns (state_hi, state_lo, inc_hi,
    inc_lo)."""
    seed_hi, seed_lo, seq_hi, seq_lo = words
    inc_hi = (seq_hi << 1) | (seq_lo >> 63)
    inc_lo = (seq_lo << 1) | 1
    state = _lcg_step(*_add128(inc_hi, inc_lo, seed_hi, seed_lo), inc_hi, inc_lo)
    return np.stack([*state, inc_hi, inc_lo])


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """One step of PCG64's LCG, (hi, lo)*MULT + (inc_hi, inc_lo) mod 2**128,
    on uint64 columns; the high word of lo*MULT_LO comes from 32-bit limbs."""
    lo_1, lo_0 = lo >> 32, lo & _MASK32
    mult_1, mult_0 = _PCG64_MULT_LO >> 32, _PCG64_MULT_LO & _MASK32
    p01, p10 = lo_0 * mult_1, lo_1 * mult_0
    mid = (lo_0 * mult_0 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    carry = lo_1 * mult_1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    prod_hi = carry + lo * _PCG64_MULT_HI + hi * _PCG64_MULT_LO
    return _add128(prod_hi, lo * _PCG64_MULT_LO, inc_hi, inc_lo)


def _add128(a_hi, a_lo, b_hi, b_lo):
    """(a_hi, a_lo) + (b_hi, b_lo) mod 2**128 on uint64 columns."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo
