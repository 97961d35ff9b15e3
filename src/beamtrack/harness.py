"""Monte Carlo experiment runner and the one implementation of every
algorithm.

Holds the run configuration, the four batch trackers (``_Recursive``, the
paper's recursive tracker; ``_SweepRefine``, ``_LeastSquares`` and
``_CompressedSensing``, the pilot-parity baselines), the chunk engine that
drives them and the across-trial aggregates; it returns arrays and opens no
file.
Trials are advanced in vectorized chunks, one batch tracker per algorithm.
Every trial draws its trajectory, noise, probes and initial state from its
own substreams, so a run's results are bit-identical for any worker count.
One set-up, ``_chunk_inputs``, draws a chunk's trajectories and noise and
takes its warm-up sweep, for every scenario and for the coarse sweep's hit
rate (``initialization_hit_rate``).
The chunk size only changes rounding (batch-size-dependent matrix products
and the summation order), at the 1e-12 relative level, except for ``cs``'s
ties.  At slot 1 of a static run one random probe scores every grid point
alike, so its slot-1 estimate (and slot-2 rate) is a tie that rounding
breaks.  On a tracking array of at most 5 antennas a score of a few probes
can tie in the same way: a dynamic window of one or two probes, or a static
run's slots 2 and 3.

Per-slot conventions, uniform across algorithms:
  * the data beam of slot n is set from the algorithm state at the end of
    slot n-1 (causal beamforming): slot n's rate takes x_hat_(n-1);
  * one pilot is consumed per slot, taken with the algorithm's probe beam on
    the tracking subarray;
  * metrics other than rate (channel MSE, squared sine error) use the state
    after the slot's update: slot n's MSE takes x_hat_n.
The engine calls the array kernel through ``_inner`` in polar form, and each
metric takes only its part: the rate ``amp**2``, the channel MSE
``amp * cos(phase)`` and the recursive step ``amp * sin(phase)``; only
``80211ad``'s pilot builds the complex value.  One slot loop serves every
tracker: it only advances the tracker and records its direction estimates.
After the loop, the tracker's ``tallies`` returns the chunk's per-slot sums.
A direction tracker's takes every slot's rate and MSE in blocks of slots,
each a pure function of the recorded estimates, and the lock test and the
squared sine errors over all slots at once.  A moving run evaluates two
full-array kernels per slot, the rate's and the MSE's; a static run's truth
never moves, so slot n's MSE kernel is slot n+1's rate kernel, and a block
of B slots evaluates the kernels of its B+1 estimates once each (both
blocks at an edge evaluate the estimate they share).  Static sweep-and-refine
runs no kernel after its per-chunk tables: it only ever probes and steers
toward codebook beams, so each beam's pilot, rate and MSE come from tables,
gathered by beam index.  Least squares has no direction estimate: its
``update`` takes its own rate and MSE every slot and records their sums.
In dynamic scenarios the estimate-based baselines (least squares, sparse
recovery) re-estimate once per full codebook frame; in static scenarios they
re-estimate every slot from all pilots received so far.  Sparse recovery
scores from its pilots' sufficient statistics, two M-value running sums to
which both modes add each pilot they take: a dynamic frame takes only its
window's pilots, zeroes the sums at the window's first slot and scores at
its last; a static run never zeroes them and scores every slot.  Only a
static run's slot 1 scores with the matched filter of its one probe: that
slot's tie makes the results depend on the evaluation order, and another
order would move them.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, fields

import numpy as np

from .arraymodel import (
    ArrayGeometry,
    alpha_star,
    array_kernel_polar,
    dft_codebook,
    h_prime_norm_sq,
    i_max,
    mainlobe_halfwidth,
    sine_grid,
    steering_matrix,
)
from .scenarios import (
    ANGLE_BAND,
    STREAM_INIT,
    STREAM_OBSERVATION,
    STREAM_PROBE,
    TRAJECTORIES,
    RngPlan,
    generate,
)

__all__ = [
    "ALGORITHMS",
    "RunConfig",
    "RunSummary",
    "TrialRecord",
    "run_experiment",
    "run_single_trial",
    "initialization_hit_rate",
]

ALGORITHMS = ("recursive", "80211ad", "ls", "cs")
_ALG_TAGS = {name: k + 1 for k, name in enumerate(ALGORITHMS)}

STEADY_SKIP = 50  # leading slots left out of the steady-state means
# far beyond the paper's SNRs; near +-3082 dB rho or 1/rho overflows, and a
# rate's rho*|ip|^2 or a channel MSE's squared noise overflows before that
SNR_DB_BOUND = 1000.0
CS_DICTIONARY_SIZE = 1024
QPSK = np.array([1.0 + 0j, 1j, -1.0 + 0j, -1j])  # random-probe phase alphabet
_MAX_BYTES = int(np.iinfo(np.intp).max)  # the largest array numpy can address


# ---------------------------------------------------------------------------
# configuration and results


# a value of the wrong type would fail deep inside a run, or with a message
# that does not name the key: a field whose annotation (a string here) is int
# or float, maybe ``| None``, must hold one; None only where it is the default
_KINDS = {"int": (int, "an integer"), "float": (numbers.Real, "a real number")}
# the least value of each count; an unset sweep_dictionary_size is not checked
_LEAST = {
    "slots": 1, "trials": 1, "chunk_size": 1, "jobs": 1, "sweep_dictionary_size": 1,
    "num_antennas": 2,
}


@dataclass(frozen=True)
class RunConfig:
    """Complete description of one Monte Carlo experiment.  The defaults
    are the paper's benchmark array on one static slot.  The array has
    half-wavelength spacing and unit channel gain: the SNR ``rho`` already
    holds the gain, and pilots are normalized to it."""

    trajectory: str = "static"  # one of scenarios.TRAJECTORIES
    slots: int = 1
    omega: float = 0.0  # fixed-velocity step (rad/slot)
    num_antennas: int = 16
    snr_db: float = 10.0
    algorithms: tuple[str, ...] = ALGORITHMS
    trials: int = 1000
    track_antennas: int | None = None
    sweep_dictionary_size: int | None = None  # default 2x tracking antennas
    # recursive-tracker step: alpha/n in static runs, alpha in moving ones
    step_alpha: float | None = None  # default alpha_star of tracking array
    init: str = "sweep"  # sweep | uniform
    seed: int = 0
    chunk_size: int = 512
    jobs: int = 1

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            kind, what = _KINDS.get(f.type.removesuffix(" | None"), (None, None))
            if kind is None or (value is None and f.default is None):
                continue
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"{f.name} must be {what}, got {value!r}")
        if self.trajectory not in TRAJECTORIES:
            raise ValueError(f"unknown trajectory kind {self.trajectory!r}")
        for name in ("omega", "snr_db"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if abs(self.snr_db) > SNR_DB_BOUND:
            raise ValueError(
                f"snr_db must be within ±{SNR_DB_BOUND:g} dB, where every metric stays "
                f"finite, got {self.snr_db}"
            )
        if self.trajectory == "fixed-velocity":
            if self.omega < 0:
                raise ValueError(f"omega must be nonnegative, got {self.omega}")
            if self.omega > ANGLE_BAND:
                raise ValueError(f"omega must be at most the band pi/3, got {self.omega}")
        for k, name in enumerate(self.algorithms):
            if name not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {name!r}")
            if name in self.algorithms[:k]:
                raise ValueError(f"algorithms must be distinct, got {name!r} twice")
        for name, least in _LEAST.items():
            value = getattr(self, name)
            if value is not None and value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")
        # past the CS dictionary's size its grid is coarser than the mainlobe
        if self.num_antennas > CS_DICTIONARY_SIZE:
            raise ValueError(f"num_antennas must be at most {CS_DICTIONARY_SIZE}, "
                             f"got {self.num_antennas}")
        if self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if self.init not in ("sweep", "uniform"):
            raise ValueError(f"unknown init mode {self.init!r}")
        sub = self.track_antennas
        if sub is not None and not 2 <= sub <= self.num_antennas:
            raise ValueError(f"track_antennas must be from 2 to {self.num_antennas}, got {sub}")
        track = self.track_geometry
        if "ls" in self.algorithms and track != self.geometry:
            raise ValueError("least-squares baseline needs the full array")
        if "80211ad" in self.algorithms and track.num_antennas < 3:
            # a refinement round probes the best beam and its two neighbours
            raise ValueError("need at least 3 codebook beams")
        alpha = self.step_alpha
        if alpha is not None and not (math.isfinite(alpha) and alpha > 0):
            raise ValueError(f"step_alpha must be positive and finite, got {alpha}")
        # a chunk's largest array must be one numpy can address: each row
        # holds slots + m_t complex noise values, and slots * m_t int8 probes
        # when cs runs
        rows, m_t = min(self.trials, self.chunk_size), track.num_antennas
        most = _MAX_BYTES // (16 * rows) - m_t
        if "cs" in self.algorithms:
            most = min(most, _MAX_BYTES // (rows * m_t))
        if self.slots > most:
            raise ValueError(
                f"slots must be at most {most} in chunks of {rows} trials, where a chunk's "
                f"arrays stay within numpy's {_MAX_BYTES} bytes, got {self.slots}"
            )

    @property
    def geometry(self) -> ArrayGeometry:
        return ArrayGeometry(self.num_antennas)

    @property
    def track_geometry(self) -> ArrayGeometry:
        return ArrayGeometry(self.track_antennas or self.num_antennas)

    @property
    def rho(self) -> float:
        return 10.0 ** (self.snr_db / 10.0)

    def ignored_fields(self) -> dict[str, str]:
        """The fields that ``run_experiment`` does not read for this
        trajectory, these algorithms and this ``init``, each with the reason.
        ``jobs`` and ``chunk_size`` are always read."""
        ignored = {}
        if self.trajectory != "fixed-velocity":
            ignored["omega"] = "only the fixed-velocity trajectory moves at omega"
        if "recursive" not in self.algorithms:
            ignored["step_alpha"] = ignored["init"] = "only the recursive tracker reads it"
        if "recursive" not in self.algorithms or self.init != "sweep":
            ignored["sweep_dictionary_size"] = "only the recursive tracker's sweep init reads it"
        if set(self.algorithms) <= {"ls"}:
            ignored["track_antennas"] = "no algorithm but ls runs, and ls uses the full array"
        return ignored

    def resolved_dictionary_size(self) -> int:
        if self.sweep_dictionary_size is not None:
            return self.sweep_dictionary_size
        return 2 * self.track_geometry.num_antennas


@dataclass
class TrialRecord:
    """Per-slot trace of a single trial (direction estimates are NaN for the
    least-squares baseline, which tracks the channel response instead)."""

    x: np.ndarray
    x_hat: np.ndarray
    mse_h: np.ndarray
    rate: np.ndarray


@dataclass
class RunSummary:
    """Across-trial aggregates, one row per slot."""

    algorithm: str
    slots: np.ndarray
    mean_mse_h: np.ndarray
    n_mse_times_imax: np.ndarray
    mean_rate: np.ndarray
    conv_frac: np.ndarray
    crlb_h_ref: np.ndarray
    trials: int
    converged_trials: float  # NaN when the algorithm has no direction estimate
    steady_mean_rate: float
    steady_mean_mse_h: float
    final_x: np.ndarray  # per-trial truth at the last slot
    final_estimate: np.ndarray  # per-trial final direction estimate
    trace: TrialRecord


# ---------------------------------------------------------------------------
# vectorized chunk engine: one batch tracker per algorithm over (T,) arrays


@dataclass
class _ChunkOut:
    """A chunk's results, from its tracker's ``tallies``: ``sums`` (4, N)
    holds each slot's trial sums of the channel MSE, the rate, the lock
    indicator and the squared sine error of the trials locked at the last
    slot (the last two NaN without a direction estimate)."""

    sums: np.ndarray
    final_x: np.ndarray
    final_est: np.ndarray
    trace: TrialRecord  # the chunk's first trial


# the engine calls the kernel, in polar form (amp, phase), through this
# module-level name, so that a profiler that rebinds it times every call
_inner = array_kernel_polar
# the most values, slots x trials, of one block of the metrics after the slot loop
_METRIC_BLOCK = 8192


def _sweep_estimate(geom: ArrayGeometry, size: int, pilots: np.ndarray) -> np.ndarray:
    """The coarse sweep: row t of ``pilots`` holds trial t's M codebook
    pilots; returns each trial's best point of the ``size``-point sine grid,
    scored against the beam-weighted pilot sum (ties toward the smallest)."""
    points = sine_grid(size)
    cand = steering_matrix(geom, points)
    scores = np.abs((pilots @ dft_codebook(geom)) @ np.conj(cand).T)
    return points[np.argmax(scores, axis=1)]


class _DirectionTracker:
    """Base of the trackers with a direction estimate ``direction``.  The slot
    loop only calls ``update`` and records ``direction``; after the loop,
    ``tallies`` has ``metrics`` take a block of slots at a time, from the
    recorded estimates alone.  A slot's rate uses the conjugate full-array
    beam toward the estimate before the slot's ``update``, its channel MSE
    the estimate after it.  Each kernel is the polar pair ``(amp, phase)`` of
    ``_inner``, and each metric takes only its part: the rate ``amp**2``, the
    MSE ``amp * cos(phase)``, the real part of ``a(x_hat)^H a(x)``."""

    def __init__(self, config: RunConfig):
        self.geom = config.geometry
        self.track = config.track_geometry
        self.m = config.num_antennas
        self.rho = config.rho
        self.static = config.trajectory == "static"

    def _rate(self, amp: np.ndarray) -> np.ndarray:
        return np.log2(1.0 + self.rho * np.square(amp) / self.m)

    def _mse(self, amp: np.ndarray, phase: np.ndarray) -> np.ndarray:
        return 2.0 * self.m - 2.0 * (amp * np.cos(phase))

    def _values(self, est: np.ndarray, x0: np.ndarray):
        """The rates and channel MSEs of the estimates ``est`` (B, T) against
        a static run's truths ``x0`` (T,)."""
        amp, phase = _inner(self.geom, est - x0)
        return self._rate(amp), self._mse(amp, phase)

    def metrics(self, est: np.ndarray, x_traj: np.ndarray, lo: int, hi: int):
        """The rates and channel MSEs, (hi - lo, T) each, of slots lo+1 to hi,
        from the recorded estimates ``est`` (N+1, T), row n after slot n, and
        the truths ``x_traj`` (T, N+1).  A static run's truth never moves, so
        slot n's MSE kernel is slot n+1's rate kernel: ``_values`` takes each
        of the block's hi - lo + 1 estimates once."""
        block = est[lo:hi + 1]
        if self.static:
            rate, mse = self._values(block, x_traj[:, 0])
            return rate[:-1], mse[1:]
        x = np.ascontiguousarray(x_traj[:, lo + 1:hi + 1].T)
        amp, phase = _inner(self.geom, block[1:] - x)
        return self._rate(_inner(self.geom, block[:-1] - x)[0]), self._mse(amp, phase)

    def tallies(self, est: np.ndarray, x_traj: np.ndarray):
        """The per-slot trial sums (4, N) of ``_ChunkOut`` and trial 0's MSE
        and rate (2, N), from the recorded estimates ``est`` (N+1, T), which
        it overwrites, and the truths ``x_traj``.  ``metrics`` takes blocks
        of at most ``_METRIC_BLOCK`` values, each a C-contiguous (slots,
        trials) array: a slot's trial sum is then the same pairwise sum as a
        1-D ``sum``.  The lock test and the squared errors run over all slots
        at once, so their sums do not depend on the blocks."""
        slots, trials = est.shape[0] - 1, est.shape[1]
        step = max(1, _METRIC_BLOCK // trials)
        sums, first = np.empty((4, slots)), np.empty((2, slots))
        for lo in range(0, slots, step):
            hi = min(lo + step, slots)
            rate, mse = self.metrics(est, x_traj, lo, hi)
            sums[:2, lo:hi] = mse.sum(axis=1), rate.sum(axis=1)
            first[:, lo:hi] = mse[:, 0], rate[:, 0]
        # the errors, in place: the lock test |err| < half a mainlobe, then the
        # squares; the (slots, T) mask lives only as long as its count
        err = est[1:]
        np.abs(np.subtract(err, x_traj[:, 1:].T, out=err), out=err)
        lock_radius = 0.5 * mainlobe_halfwidth(self.track)
        sums[2] = np.count_nonzero(err < lock_radius, axis=1)
        converged = err[-1] < lock_radius  # locked at the last slot
        sums[3] = np.square(err, out=err).T[converged].sum(axis=0)
        return sums, first


class _Recursive(_DirectionTracker):
    """The recursive tracker: probe along the estimate, step ``a_n`` against
    Im(y), clipped to [-1, 1].  ``a_n`` is alpha/n in static runs and alpha in
    moving ones; alpha defaults to alpha_star of the tracking array."""

    def __init__(self, config: RunConfig, trials: range, x0, warm):
        super().__init__(config)
        alpha = config.step_alpha
        self.alpha = alpha_star(self.track) if alpha is None else alpha
        if config.init == "sweep":
            size = config.resolved_dictionary_size()
            self.direction = _sweep_estimate(self.track, size, warm)
        else:
            self.direction = RngPlan(config.seed).uniform(trials, STREAM_INIT)

    def update(self, n, x_n, noise):
        a_n = self.alpha / n if self.static else self.alpha
        # the step takes only Im(y) of the pilot along the estimate: amp *
        # sin(phase) times 1/sqrt(M_t), which is what dividing the complex
        # kernel by sqrt(M_t) computes, plus Im(noise)
        amp, phase = _inner(self.track, self.direction - x_n)
        step = amp * np.sin(phase)
        step *= 1.0 / math.sqrt(self.track.num_antennas)
        step += noise.imag
        step *= a_n
        # clipped to [-1, 1] in place, as np.clip would
        x = np.subtract(self.direction, step, out=step)
        self.direction = np.minimum(np.maximum(x, -1.0, out=x), 1.0, out=x)


class _SweepRefine(_DirectionTracker):
    """Sweep-and-refine: back-to-back three-slot rounds probe the best codebook
    beam and its two neighbours; the strongest becomes the best beam.  It only
    ever probes and steers toward codebook beams, so a static run, whose truth
    never moves, takes each beam's noiseless pilot, rate and channel MSE from
    ``table``, three (T, M_t) arrays built once per chunk.  A slot then adds
    its noise to a gathered pilot, and ``_values`` gathers the rates and
    MSEs by each estimate's beam index; no kernel runs after the tables.  Every
    table entry is the same elementwise expression (``_pilot``, ``_rate``,
    ``_mse``) of the same delta as the kernels of a moving run, whose
    ``table`` is None."""

    def __init__(self, config: RunConfig, trials: range, x0, warm):
        super().__init__(config)
        self.dirs = sine_grid(self.track.num_antennas)
        self.mags = np.empty((len(trials), 3))
        self.rows = np.arange(len(trials))
        self.table = self._table(x0) if self.static else None
        self._choose(np.argmax(np.abs(warm), axis=1))

    def _table(self, x0: np.ndarray):
        """Every codebook beam's noiseless tracking-subarray pilot, and the
        rate and channel MSE of its conjugate full-array beam, one row per
        trial; on the full array one kernel call serves all three."""
        delta = self.dirs - x0[:, None]
        amp, phase = _inner(self.track, delta)
        pilots = self._pilot(amp, phase)
        if self.track.num_antennas != self.m:
            amp, phase = _inner(self.geom, delta)
        return pilots, self._rate(amp), self._mse(amp, phase)

    def _pilot(self, amp: np.ndarray, phase: np.ndarray) -> np.ndarray:
        """The noiseless pilot of the tracking-subarray kernel ``(amp, phase)``."""
        return amp * np.exp(1j * phase) / math.sqrt(self.track.num_antennas)

    def _choose(self, best: np.ndarray) -> None:
        """Make ``best`` the best beams, and their rounds' three candidates."""
        self.direction = self.dirs[best]
        middle = np.minimum(np.maximum(best, 1), len(self.dirs) - 2)
        self.cand = middle[:, None] + np.array([-1, 0, 1])

    def _values(self, est, x0):
        _, rates, mses = self.table
        # each estimate's flat table index: trial t's beam k, whose codebook
        # point (2k + 1 - M_t)/M_t the estimate is; rint undoes the rounding
        # of the division (a binary search over the codebook took 8x longer)
        m_t = len(self.dirs)
        flat = np.rint((est * m_t + (m_t - 1)) * 0.5).astype(np.intp)
        flat += self.rows * m_t
        return rates.take(flat), mses.take(flat)

    def update(self, n, x_n, noise):
        # the pilot of the conjugate tracking-subarray beam toward the candidate
        cursor = (n - 1) % 3
        beams = self.cand[:, cursor]
        if self.table is None:
            y = self._pilot(*_inner(self.track, self.dirs[beams] - x_n)) + noise
        else:
            y = self.table[0][self.rows, beams] + noise
        self.mags[:, cursor] = np.abs(y)
        if cursor == 2:
            self._choose(self.cand[self.rows, np.argmax(self.mags, axis=1)])


def ls_data_beam(h_hat: np.ndarray) -> np.ndarray:
    """Phase-only beam aligned with the channel estimate: entries
    ``h_m / (|h_m| sqrt(M))``, which is ``exp(1j*angle(h_m))/sqrt(M)``, and
    ``1/sqrt(M)`` for a zero entry.  A stack of estimates gives one beam per
    row (M is the last axis)."""
    h_hat = np.asarray(h_hat, dtype=complex)
    scale = math.sqrt(h_hat.shape[-1])
    mag = np.abs(h_hat)
    out = np.full(h_hat.shape, 1.0 / scale, dtype=complex)
    return np.divide(h_hat, mag * scale, out=out, where=mag > 0)


class _LeastSquares:
    """Least-squares channel estimate and its phase-only data beam.  The
    half-wavelength DFT codebook is unitary, so the estimate is the per-beam
    mean pilot times the codebook itself: static runs average every pilot so
    far and re-estimate each slot; dynamic runs keep each beam's latest pilot
    and re-estimate at each codebook frame's last slot.  The probes are the fixed
    codebook, so a slot computes only what changed.  A static run's ``a(x)``
    and noiseless codebook pilots are computed once per chunk (``x`` never
    moves), and a slot adds its noise to one of them.  The conjugate data
    beam ``conj(ls_data_beam(h_hat))`` is built with each estimate and kept
    beside it: every slot in static runs, once per frame in dynamic runs.
    It has no direction estimate, so ``direction`` is one NaN for all trials,
    and no lock; ``update`` takes each slot's rate and channel MSE itself
    and records their trial sums and trial 0's values in ``totals``."""

    def __init__(self, config: RunConfig, trials: range, x0, warm):
        self.geom = config.geometry
        self.rho = config.rho
        self.static = config.trajectory == "static"
        self.direction = np.full(1, np.nan)
        # per slot: the trial sums of MSE and rate, then trial 0's MSE and rate
        self.totals = np.empty((4, config.slots))
        self.beams = dft_codebook(self.geom)  # rows of conj(beams) probe h
        self.sums, self.counts = warm.copy(), np.ones(len(self.beams))
        if self.static:
            self.a = steering_matrix(self.geom, x0)
            # row d: beam d's noiseless pilots, summed as a dynamic slot sums them
            self.clean = np.stack([(np.conj(b) * self.a).sum(axis=1) for b in self.beams])
        self._estimate()

    def _estimate(self) -> None:
        self.h_hat = (self.sums / self.counts) @ self.beams
        self.w_conj = np.conj(ls_data_beam(self.h_hat))

    def update(self, n: int, x_n: np.ndarray, noise: np.ndarray) -> None:
        m = len(self.beams)
        d = (n - 1) % m
        if self.static:
            a = self.a
            self.sums[:, d] += self.clean[d] + noise
            self.counts[d] += 1.0
        else:
            a = steering_matrix(self.geom, x_n)
            self.sums[:, d] = (np.conj(self.beams[d]) * a).sum(axis=1) + noise
        rate = np.log2(1.0 + self.rho * np.abs((self.w_conj * a).sum(axis=1)) ** 2)
        if self.static or n % m == 0:
            self._estimate()
        mse = (np.abs(self.h_hat - a) ** 2).sum(axis=1)
        self.totals[:, n - 1] = mse.sum(), rate.sum(), mse[0], rate[0]

    def tallies(self, est: np.ndarray, x_traj: np.ndarray):
        """The recorded sums with NaN lock rows (4, N), and trial 0's MSE and
        rate (2, N)."""
        no_lock = np.full_like(self.totals[:2], np.nan)
        return np.vstack((self.totals[:2], no_lock)), self.totals[2:]


def _cs_lag_atoms(atoms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The real and imaginary parts of ``atoms.T`` with rows d >= 1 doubled:
    row d weights the lag sum ``c_d`` in ``_cs_window_score``'s energy."""
    lag = atoms.T.copy()
    lag[1:] *= 2.0
    return np.ascontiguousarray(lag.real), np.ascontiguousarray(lag.imag)


def _cs_sums(y: np.ndarray, w: np.ndarray):
    """The sufficient statistics ``r`` and ``c`` of ``_cs_window_score`` for
    one pilot per trial: ``y`` (T,) taken with the probes ``w`` (T, m_t)."""
    m_t = w.shape[-1]
    # each probe's conjugate, zero-padded to 2 m_t, and shifted[t, d, q] =
    # conj(w[t, q + d]) (zero past the probe's end) as a strided view of it:
    # the lag sums take O(m_t^2) operations and O(m_t) memory
    padded = np.zeros((len(w), 2 * m_t), dtype=complex)
    np.conjugate(w, out=padded[:, :m_t])
    step = padded.strides[-1]
    shifted = np.ndarray((*w.shape, m_t), complex, padded, strides=(padded.strides[0], step, step))
    return y[:, None] * w, np.matmul(shifted, w[..., None])[..., 0]


def _cs_window_score(
    r: np.ndarray,
    c: np.ndarray,
    atoms_conj_t: np.ndarray,
    lag_atoms: tuple[np.ndarray, np.ndarray],
    scratch: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Matched-filter magnitude ``|sum_n y_n w_n^T conj(a(g))|`` and energy
    ``sum_n |w_n^T conj(a(g))|^2`` of every grid atom for the pilots ``y_n``
    taken with probes ``w_n``, from their sufficient statistics
    ``r = sum_n y_n w_n`` and lag sums ``c_d = sum_n sum_q w_nq conj(w_n,q+d)``
    (d = 0..M-1), each the running sum of the pilots' ``_cs_sums``.  Since
    ``a_0 = 1``, ``conj(a_q) a_(q+d) = a_d``, so the energy is
    ``Re(c_0 + 2 sum_(d>=1) c_d a_d(g))``, taken real-split as
    ``c.real @ L_re - c.imag @ L_im`` with ``lag_atoms = (L_re, L_im)`` from
    ``_cs_lag_atoms``.  ``scratch`` holds complex, real and real (T, grid)
    arrays for the matched filter, the magnitude and the energy; the last two
    are returned."""
    filt, numer, denom = scratch
    lag_re, lag_im = lag_atoms
    np.matmul(c.real, lag_re, out=denom)
    denom -= np.matmul(c.imag, lag_im, out=numer)
    np.abs(np.matmul(r, atoms_conj_t, out=filt), out=numer)
    return numer, denom


class _CompressedSensing(_DirectionTracker):
    """Sparse recovery from random QPSK probes: the normalized matched-filter
    argmax over the CS sine grid (sparsity-one OMP), scored by
    ``_cs_window_score`` from the pilots' M-value sums ``r`` and ``c``.

    Both modes take a pilot, add its ``_cs_sums`` to the running ``r`` and
    ``c``, and score from them.  Static runs never zero the sums and
    re-score every slot from all pilots so far; their truth never moves, so
    its steering vector is computed once per chunk.  Slot 1 alone keeps the
    matched filter: one probe scores every grid point |y_1|, a tie that
    rounding breaks, so it keeps the evaluation order that the recorded
    static results depend on.  Dynamic runs take only the last ``k_win``
    pilots of each codebook frame, its window: they zero the sums at the
    window's first slot and score at its last; the pilots of the other
    slots, which no score uses, are not taken.  Both modes pick in
    ``_pick``, in (T, grid) scratch reused across slots and frames."""

    def __init__(self, config: RunConfig, trials: range, x0, warm):
        super().__init__(config)
        # initial estimate: the coarse sweep over the CS grid, which is the
        # normalized matched filter of the warm-up pilots (the codebook is
        # unitary, so every atom has energy M); taken before the (T, grid)
        # scratch below exists, to keep the peak down
        self.direction = _sweep_estimate(self.track, CS_DICTIONARY_SIZE, warm)
        m_t, slots = self.track.num_antennas, config.slots
        self.probes = np.empty((len(trials), slots, m_t), dtype=np.int8)
        rngs = RngPlan(config.seed).batch(trials, STREAM_PROBE, _ALG_TAGS["cs"])
        for probes, rng in zip(self.probes, rngs):
            probes[:] = rng.integers(0, 4, size=(slots, m_t), dtype=np.int8)
        self.k_win = m_t // 2
        self.grid = sine_grid(CS_DICTIONARY_SIZE)
        atoms = steering_matrix(self.track, self.grid)  # (grid, m_t)
        self.atoms_conj_t = np.conj(atoms).T
        self.lag_atoms = _cs_lag_atoms(atoms)
        if self.static:
            self.a = steering_matrix(self.track, x0)
        self.r, self.c = np.zeros((2, len(trials), m_t), dtype=complex)
        # the score's scratch, reused: fresh (T, grid) arrays every slot or
        # frame cost page faults when the allocator hands memory back
        grid_shape = (len(trials), CS_DICTIONARY_SIZE)
        self.scratch = (
            np.empty(grid_shape, dtype=complex), np.empty(grid_shape), np.empty(grid_shape)
        )

    def _pilot(self, n: int, x_n: np.ndarray, noise: np.ndarray):
        """Slot n's probe weights and the pilot taken with them."""
        w_p = QPSK[self.probes[:, n - 1, :]] / math.sqrt(self.track.num_antennas)
        a = self.a if self.static else steering_matrix(self.track, x_n)
        return w_p, (np.conj(w_p) * a).sum(axis=1) + noise

    def _pick(self, numer: np.ndarray, denom: np.ndarray) -> None:
        """Point each trial's estimate at the grid atom of the largest
        normalized score ``numer / sqrt(denom)``, the energy floored at
        1e-300; both (T, grid) arrays are overwritten."""
        numer /= np.sqrt(np.maximum(denom, 1e-300, out=denom), out=denom)
        self.direction = self.grid[np.argmax(numer, axis=1)]

    def update(self, n, x_n, noise):
        if not self.static:
            m_t = self.track.num_antennas
            pos = (n - 1) % m_t - (m_t - self.k_win)  # place in the frame's window
            if pos < 0:
                return
            if pos == 0:  # the window's first slot
                self.r[:] = self.c[:] = 0.0
        w_p, y = self._pilot(n, x_n, noise)
        r, c = _cs_sums(y, w_p)
        self.r += r
        self.c += c
        if self.static and n == 1:  # the tie: the one probe's matched filter, in the scratch
            filt, numer, denom = self.scratch
            np.matmul(w_p, self.atoms_conj_t, out=filt)
            np.square(np.abs(filt, out=denom), out=denom)
            filt *= y[:, None]
            self._pick(np.abs(filt, out=numer), denom)
        elif self.static or pos == self.k_win - 1:  # every static slot, a frame's last
            self._pick(*_cs_window_score(self.r, self.c, self.atoms_conj_t, self.lag_atoms,
                                         self.scratch))


# built from (config, trials, anchor directions, warm-up pilots); each takes
# slot n's pilot in update(n, x_n, noise), has a direction, (T,) or shared (1,),
# after it; tallies(est, x_traj) returns its chunk's sums and trial 0's values
_TRACKERS = dict(
    zip(ALGORITHMS, (_Recursive, _SweepRefine, _LeastSquares, _CompressedSensing))
)


def _chunk_inputs(config: RunConfig, trials: range, tag: int):
    """A chunk's random inputs, one row per trial, each from the trial's own
    substreams: the direction sines (column 0 is the warm-up anchor), the
    slots' observation noise of power 1/rho (column n-1 for slot n) and the M
    pilots of the warm-up sweep, one full codebook sweep of the tracking
    array against the anchor.  The sweep's noise is drawn first, from the
    same ``tag``ged observation substream as the slots'."""
    track = config.track_geometry
    m_t = track.num_antennas
    plan = RngPlan(config.seed)
    x_traj = generate(config, trials)
    noise = np.empty((len(trials), m_t + config.slots), dtype=complex)
    pairs = noise.view(float).reshape(*noise.shape, 2)
    for pair, rng in zip(pairs, plan.batch(trials, STREAM_OBSERVATION, tag)):
        rng.standard_normal(out=pair)
    noise *= math.sqrt(0.5)
    noise /= math.sqrt(config.rho)
    warm = steering_matrix(track, x_traj[:, 0]) @ np.conj(dft_codebook(track)).T
    warm += noise[:, :m_t]
    return x_traj, noise[:, m_t:], warm


def _simulate_chunk(config: RunConfig, algorithm: str, lo: int, hi: int) -> _ChunkOut:
    n_slots = config.slots
    trials = range(lo, hi)
    x_traj, noise, warm = _chunk_inputs(config, trials, _ALG_TAGS[algorithm])
    tracker = _TRACKERS[algorithm](config, trials, x_traj[:, 0], warm)
    # the estimates before slot 1, then each slot's, one row each
    est = np.empty((n_slots + 1, len(tracker.direction)))
    est[0] = tracker.direction
    for n in range(1, n_slots + 1):
        tracker.update(n, x_traj[:, n], noise[:, n - 1])
        est[n] = tracker.direction
    x_hat = est[1:, 0].copy()  # trial 0's, before tallies overwrites est
    sums, first = tracker.tallies(est, x_traj)
    trace = TrialRecord(x_traj[0, 1:].copy(), x_hat, *first)
    final_est = np.broadcast_to(tracker.direction, len(trials))
    return _ChunkOut(sums, x_traj[:, -1].copy(), final_est, trace)


# ---------------------------------------------------------------------------
# experiment driver


def _chunks(trials: int, chunk_size: int):
    """The (lo, hi) trial spans of a run's chunks, in order, one at a time."""
    for lo in range(0, trials, chunk_size):
        yield lo, min(lo + chunk_size, trials)


def _run_algorithm(config: RunConfig, algorithm: str) -> RunSummary:
    spans = _chunks(config.trials, config.chunk_size)
    # the pool forks all its workers at once: no more than chunks or CPUs
    chunks = len(range(0, config.trials, config.chunk_size))
    workers = min(config.jobs, chunks, os.cpu_count() or 1)
    if workers > 1:
        # imported here: the pool's modules cost a one-worker run's import
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_simulate_chunk, config, algorithm, lo, hi)
                for lo, hi in spans
            ]
            outs = [f.result() for f in futures]  # fixed chunk order
    else:
        outs = [_simulate_chunk(config, algorithm, lo, hi) for lo, hi in spans]

    n_slots = config.slots
    # deterministic reduction in chunk order
    mse_sum, rate_sum, lock_sum, sqerr_conv = sum(out.sums for out in outs)

    trials = config.trials
    slots = np.arange(1, n_slots + 1)
    mean_mse = mse_sum / trials
    mean_rate = rate_sum / trials
    imax_track = i_max(config.track_geometry, config.rho)
    conv_count = float(lock_sum[-1])  # NaN without a direction estimate
    n_mse_imax = np.full(n_slots, np.nan)
    if conv_count > 0:
        n_mse_imax = slots * (sqerr_conv / conv_count) * imax_track
    crlb_ref = h_prime_norm_sq(config.geometry) / (slots * imax_track)

    skip = min(STEADY_SKIP, n_slots - 1)
    return RunSummary(
        algorithm=algorithm,
        slots=slots,
        mean_mse_h=mean_mse,
        n_mse_times_imax=n_mse_imax,
        mean_rate=mean_rate,
        conv_frac=lock_sum / trials,
        crlb_h_ref=crlb_ref,
        trials=trials,
        converged_trials=conv_count,
        steady_mean_rate=float(mean_rate[skip:].mean()),
        steady_mean_mse_h=float(mean_mse[skip:].mean()),
        final_x=np.concatenate([out.final_x for out in outs]),
        final_estimate=np.concatenate([out.final_est for out in outs]),
        trace=outs[0].trace,
    )


def run_experiment(config: RunConfig) -> dict[str, RunSummary]:
    """Run every configured algorithm and return per-algorithm summaries."""
    return {name: _run_algorithm(config, name) for name in config.algorithms}


def run_single_trial(config: RunConfig, algorithm: str, trial: int = 0) -> TrialRecord:
    """Per-slot trace of one trial, run as a chunk of its own: bit for bit
    that trial's trace in a full run for ``recursive`` and ``80211ad``; to
    about 1e-15 relative for ``ls`` and ``cs``, whose matrix products round by
    batch size, except where static ``cs`` breaks its slot-1 tie."""
    if algorithm not in config.algorithms:
        raise ValueError(f"algorithm must be one of {config.algorithms}, got {algorithm!r}")
    integer = isinstance(trial, numbers.Integral) and not isinstance(trial, bool)
    if not (integer and 0 <= trial < config.trials):
        raise ValueError(f"trial must be from 0 to {config.trials - 1}, got {trial!r}")
    return _simulate_chunk(config, algorithm, trial, trial + 1).trace


def initialization_hit_rate(config: RunConfig) -> float:
    """Monte Carlo probability that the coarse sweep of ``config``'s tracking
    array, over its sweep dictionary, lands inside the mainlobe of the
    trial's anchor direction; trials draw their direction and warm-up noise
    (tag 0) as a run's chunks do."""
    track = config.track_geometry
    size = config.resolved_dictionary_size()
    hw = mainlobe_halfwidth(track)
    hits = 0
    for lo, hi in _chunks(config.trials, config.chunk_size):
        x_traj, _, warm = _chunk_inputs(config, range(lo, hi), 0)
        x0 = _sweep_estimate(track, size, warm)
        hits += int(np.count_nonzero(np.abs(x0 - x_traj[:, 0]) < hw))
    return hits / config.trials
