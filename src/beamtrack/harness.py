"""Monte Carlo experiment runner and the one implementation of every
algorithm.

Holds the run configuration, the four batch trackers (``_Recursive``, the
paper's recursive tracker; ``_SweepRefine``, ``_LeastSquares`` and
``_CompressedSensing``, the pilot-parity baselines), the chunk engine that
drives them, the across-trial aggregates and the summary CSV writer.
Trials are advanced in vectorized chunks, one batch tracker per algorithm.
Every trial draws its trajectory, noise, probes and initial state from its
own substreams, so a run's results are bit-identical for any worker count.
One set-up, ``_chunk_inputs``, draws a chunk's trajectories and noise and
takes its warm-up sweep, for every scenario and for the coarse sweep's hit
rate (``initialization_hit_rate``).
The chunk size only changes rounding (batch-size-dependent matrix products
and the summation order), at the 1e-12 relative level, except for static
``cs`` at slot 1: one random probe scores every grid point alike, so its
slot-1 estimate (and slot-2 rate) is a tie that rounding breaks.  Dynamic
``cs`` on a subarray of at most 5 antennas has windows of one or two probes,
which can tie in the same way.

Per-slot conventions, uniform across algorithms:
  * the data beam of slot n is set from the algorithm state at the end of
    slot n-1 (causal beamforming);
  * one pilot is consumed per slot, taken with the algorithm's probe beam on
    the tracking subarray;
  * metrics other than rate (channel MSE, squared sine error) use the state
    after the slot's update.
In dynamic scenarios the estimate-based baselines (least squares, sparse
recovery) re-estimate once per full codebook frame; in static scenarios they
re-estimate every slot from all pilots received so far.  Dynamic sparse
recovery scores each frame from its pilot window's sufficient statistics,
two M-value sums, so it takes only the window's pilots.  Static sparse
recovery keeps the per-slot (T, 1024) matched filter: its slot-1 tie makes
the results depend on the evaluation order, and another order would move them.
"""

from __future__ import annotations

import csv
import math
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .arraymodel import (
    ArrayGeometry,
    alpha_star,
    codebook_directions,
    dft_codebook,
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
    "CSV_HEADER",
    "h_prime_norm_sq",
    "run_experiment",
    "run_single_trial",
    "initialization_hit_rate",
    "write_summary_csv",
]

ALGORITHMS = ("recursive", "80211ad", "ls", "cs")
_ALG_TAGS = {name: k + 1 for k, name in enumerate(ALGORITHMS)}

CSV_HEADER = "slot,mean_mse_h,n_mse_times_imax,mean_rate,conv_frac,crlb_h_ref"

STEADY_SKIP = 50  # leading slots left out of the steady-state means
CS_DICTIONARY_SIZE = 1024
QPSK = np.array([1.0 + 0j, 1j, -1.0 + 0j, -1j])  # random-probe phase alphabet


def h_prime_norm_sq(geom: ArrayGeometry) -> float:
    """Squared norm of the channel-response derivative, direction independent."""
    m = geom.num_antennas
    idx_sq_sum = (m - 1) * m * (2 * m - 1) / 6.0
    return math.pi**2 * idx_sq_sum


# ---------------------------------------------------------------------------
# configuration and results


# a value of the wrong type here would fail deep inside a run, or with a
# message that does not name the key: counts and sizes must be integers, the
# rest real numbers, and only the fields with a derived default may be None
_TYPED_FIELDS = {
    **dict.fromkeys(
        ("slots", "num_antennas", "trials", "track_antennas", "sweep_dictionary_size",
         "seed", "chunk_size", "jobs"),
        (int, "an integer"),
    ),
    **dict.fromkeys(("omega", "snr_db", "step_alpha"), (numbers.Real, "a real number")),
}
_DERIVED_DEFAULT = ("track_antennas", "sweep_dictionary_size", "step_alpha")


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
    init: str = "sweep"  # sweep | uniform | mainlobe
    seed: int = 0
    chunk_size: int = 512
    jobs: int = 1

    def __post_init__(self) -> None:
        for name, (kind, what) in _TYPED_FIELDS.items():
            value = getattr(self, name)
            if value is None and name in _DERIVED_DEFAULT:
                continue
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"{name} must be {what}, got {value!r}")
        if self.trajectory not in TRAJECTORIES:
            raise ValueError(f"unknown trajectory kind {self.trajectory!r}")
        if not math.isfinite(self.omega):
            raise ValueError(f"angular velocity must be finite, got {self.omega}")
        if self.trajectory == "fixed-velocity":
            if self.omega < 0:
                raise ValueError("angular velocity must be nonnegative")
            if self.omega > ANGLE_BAND:
                raise ValueError("angular velocity exceeds the reflection band")
        for name in self.algorithms:
            if name not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {name!r}")
        if self.slots < 1:
            raise ValueError("need at least one slot")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if self.init not in ("sweep", "uniform", "mainlobe"):
            raise ValueError(f"unknown init mode {self.init!r}")
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be at least 1, got {self.chunk_size}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")
        size = self.sweep_dictionary_size
        if size is not None and size < 1:
            raise ValueError(f"sweep_dictionary_size must be at least 1, got {size}")
        geom = self.geometry  # rejects < 2 antennas
        sub = self.track_antennas
        if sub is not None and not 2 <= sub <= geom.num_antennas:
            raise ValueError(f"track_antennas must be from 2 to {geom.num_antennas}, got {sub}")
        track = self.track_geometry
        if "ls" in self.algorithms and track != geom:
            raise ValueError("least-squares baseline needs the full array")
        if "80211ad" in self.algorithms and track.num_antennas < 3:
            # a refinement round probes the best beam and its two neighbours
            raise ValueError("need at least 3 codebook beams")
        if not math.isfinite(self.snr_db):
            raise ValueError(f"snr_db must be finite, got {self.snr_db}")
        alpha = self.step_alpha
        if alpha is not None and not (math.isfinite(alpha) and alpha > 0):
            raise ValueError(f"alpha must be positive and finite, got {alpha}")

    @property
    def geometry(self) -> ArrayGeometry:
        return ArrayGeometry(self.num_antennas)

    @property
    def track_geometry(self) -> ArrayGeometry:
        if self.track_antennas is None:
            return self.geometry
        return self.geometry.subset(self.track_antennas)

    @property
    def rho(self) -> float:
        return 10.0 ** (self.snr_db / 10.0)

    def resolved_dictionary_size(self) -> int:
        if self.sweep_dictionary_size is not None:
            return self.sweep_dictionary_size
        return 2 * self.track_geometry.num_antennas


@dataclass
class TrialRecord:
    """Per-slot trace of a single trial (direction estimates are NaN for the
    least-squares baseline, which tracks the channel response instead)."""

    algorithm: str
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
    final_x: np.ndarray | None = None  # per-trial truth at the last slot
    final_estimate: np.ndarray | None = None  # per-trial final direction estimate
    trace: TrialRecord | None = None


# ---------------------------------------------------------------------------
# vectorized chunk engine: one batch tracker per algorithm over (T,) arrays


@dataclass
class _ChunkOut:
    mse_sum: np.ndarray
    rate_sum: np.ndarray
    lock_sum: np.ndarray
    sqerr_conv_sum: np.ndarray
    conv_count: float
    final_x: np.ndarray
    final_est: np.ndarray
    trace: TrialRecord  # the chunk's first trial


def _inner(m: int, delta: np.ndarray) -> np.ndarray:
    """Steering inner product a(v)^H a(x) for delta = v - x, elementwise: the
    Dirichlet kernel ``e^{j phi (m-1)/2} sin(m phi/2) / sin(phi/2)`` of
    ``phi = pi * delta``, which is the sum of ``e^{j phi i}`` over i < m.
    The sum is 2*pi-periodic in phi, so phi is first wrapped into [-pi, pi]:
    ``sin(m phi/2)`` then keeps its relative accuracy next to the zero at
    phi = +-2*pi (delta = +-2), where ``m * phi/2`` would otherwise round
    away the small remainder.  Where ``|sin(phi/2)| < 1e-8`` the ratio is its
    limit ``m cos(m phi/2)/cos(phi/2)``."""
    half = (0.5 * math.pi) * delta
    half -= np.pi * np.round(half / np.pi)
    s = np.sin(half)
    ratio = np.sin(m * half)
    near_zero = np.abs(s) < 1e-8
    if near_zero.any():
        s[near_zero] = 1.0
        h = half[near_zero]
        ratio[near_zero] = m * np.cos(m * h) / np.cos(h)
    ratio /= s
    return np.exp((1j * (m - 1)) * half) * ratio


def _sweep_estimate(geom: ArrayGeometry, size: int, pilots: np.ndarray) -> np.ndarray:
    """The coarse sweep: row t of ``pilots`` holds trial t's M codebook
    pilots; returns each trial's best point of the ``size``-point sine grid,
    scored against the beam-weighted pilot sum (ties toward the smallest)."""
    points = sine_grid(size)
    cand = steering_matrix(geom, points)
    scores = np.abs((pilots @ dft_codebook(geom)) @ np.conj(cand).T)
    return points[np.argmax(scores, axis=1)]


class _DirectionTracker:
    """Base of the trackers with a direction estimate ``direction``: a slot's
    rate uses the conjugate full-array beam toward the estimate before the
    slot's ``update``, its channel MSE the estimate after it.  ``update``
    also gets ``ip``, the full-array kernel at the pre-update estimate.  An
    ``update`` that keeps the estimate leaves ``direction`` the same object,
    and the MSE then reuses ``ip``."""

    def __init__(self, config: RunConfig):
        self.track = config.track_geometry
        self.m = config.num_antennas
        self.rho = config.rho

    def step(self, n: int, x_n: np.ndarray, noise: np.ndarray):
        before = self.direction
        ip = _inner(self.m, before - x_n)
        rate = np.log2(1.0 + self.rho * np.abs(ip) ** 2 / self.m)
        self.update(n, x_n, noise, ip)
        if self.direction is not before:  # an update that keeps it reuses ip
            ip = _inner(self.m, self.direction - x_n)
        return rate, 2.0 * self.m - 2.0 * np.real(ip), self.direction

    def pilot(self, probe_dir: np.ndarray, x_n: np.ndarray, noise: np.ndarray):
        """Pilots of conjugate tracking-subarray beams toward ``probe_dir``."""
        m_t = self.track.num_antennas
        ip = _inner(m_t, probe_dir - x_n)
        return ip / math.sqrt(m_t) + noise


class _Recursive(_DirectionTracker):
    """The recursive tracker: probe along the estimate, step ``a_n`` against
    Im(y), clipped to [-1, 1].  ``a_n`` is alpha/n in static runs and alpha in
    moving ones; alpha defaults to alpha_star of the tracking array."""

    def __init__(self, config: RunConfig, trials: range, x0, warm):
        super().__init__(config)
        alpha = config.step_alpha
        self.alpha = alpha_star(self.track) if alpha is None else alpha
        self.static = config.trajectory == "static"
        if config.init == "sweep":
            size = config.resolved_dictionary_size()
            self.direction = _sweep_estimate(self.track, size, warm)
            return
        rngs = RngPlan(config.seed).batch(trials, STREAM_INIT)
        if config.init == "uniform":
            self.direction = np.array([rng.uniform(-1.0, 1.0) for rng in rngs])
        else:  # mainlobe
            hw = mainlobe_halfwidth(self.track)
            offs = np.array([rng.uniform(-hw, hw) for rng in rngs])
            self.direction = np.clip(x0 + offs, -1.0, 1.0)

    def update(self, n, x_n, noise, ip):
        # on the full array the probe is the data beam, so the rate's kernel
        # value ``ip`` is also the pilot's
        if self.track.num_antennas == self.m:
            y = ip / math.sqrt(self.m) + noise
        else:
            y = self.pilot(self.direction, x_n, noise)
        step = (self.alpha / n if self.static else self.alpha) * np.imag(y)
        self.direction = np.clip(self.direction - step, -1.0, 1.0)


class _SweepRefine(_DirectionTracker):
    """Sweep-and-refine: back-to-back three-slot rounds probe the best codebook
    beam and its two neighbours; the strongest becomes the best beam."""

    def __init__(self, config: RunConfig, trials: range, x0, warm):
        super().__init__(config)
        self.dirs = codebook_directions(self.track)
        self.best = np.argmax(np.abs(warm), axis=1)
        self.direction = self.dirs[self.best]
        self.mags = np.empty((len(trials), 3))

    def update(self, n, x_n, noise, ip):
        cursor = (n - 1) % 3
        cand = np.clip(self.best, 1, len(self.dirs) - 2)[:, None] + np.array([-1, 0, 1])
        y = self.pilot(self.dirs[cand[:, cursor]], x_n, noise)
        self.mags[:, cursor] = np.abs(y)
        if cursor == 2:
            self.best = cand[np.arange(len(cand)), np.argmax(self.mags, axis=1)]
            self.direction = self.dirs[self.best]


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
    beside it: every slot in static runs, once per frame in dynamic runs."""

    def __init__(self, config: RunConfig, trials: range, x0, warm):
        self.geom = config.geometry
        self.rho = config.rho
        self.static = config.trajectory == "static"
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

    def step(self, n: int, x_n: np.ndarray, noise: np.ndarray):
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
        return rate, (np.abs(self.h_hat - a) ** 2).sum(axis=1), None


def _cs_lag_atoms(atoms: np.ndarray) -> np.ndarray:
    """``atoms.T`` with rows d >= 1 doubled: row d weights the lag sum ``c_d``
    in ``_cs_window_score``'s energy."""
    lag = atoms.T.copy()
    lag[1:] *= 2.0
    return lag


def _cs_window_score(
    r: np.ndarray,
    c: np.ndarray,
    atoms_conj_t: np.ndarray,
    lag_atoms: np.ndarray,
    scratch: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Matched-filter magnitude ``|sum_n y_n w_n^T conj(a(g))|`` and energy
    ``sum_n |w_n^T conj(a(g))|^2`` of every grid atom for a window of pilots
    ``y_n`` taken with probes ``w_n``, from the window's sufficient statistics
    ``r = sum_n y_n w_n`` and lag sums ``c_d = sum_n sum_q w_nq conj(w_n,q+d)``
    (d = 0..M-1).  Since ``a_0 = 1``, ``conj(a_q) a_(q+d) = a_d``, so the
    energy is ``Re(c_0 + 2 sum_(d>=1) c_d a_d(g))``, with ``lag_atoms`` from
    ``_cs_lag_atoms``.  ``scratch`` holds complex, real and real (T, grid)
    arrays for the matched filter, the magnitude and the energy; the last two
    are returned."""
    filt, numer, denom = scratch
    np.copyto(denom, np.matmul(c, lag_atoms, out=filt).real)
    np.abs(np.matmul(r, atoms_conj_t, out=filt), out=numer)
    return numer, denom


class _CompressedSensing(_DirectionTracker):
    """Sparse recovery from random QPSK probes: the normalized matched-filter
    argmax over the CS sine grid (sparsity-one OMP).

    Static runs re-score every slot from all pilots so far, keeping the
    (T, grid) matched-filter sums in place.  Their slot-1 score is a tie (one
    probe scores every grid point |y_1|) that rounding breaks, so any other
    evaluation order would move the recorded static results.  Dynamic runs
    score once per codebook frame, at its last slot, from the last ``k_win``
    pilots: ``_cs_window_score`` needs only the window's M-value sums ``r``
    and ``c``, so between slots a trial keeps just the window's pilots, and
    the pilots of the other slots, which no score uses, are not taken.  The
    frame's (T, grid) score is computed in scratch reused across frames."""

    def __init__(self, config: RunConfig, trials: range, x0, warm):
        super().__init__(config)
        # initial estimate: the coarse sweep over the CS grid, which is the
        # normalized matched filter of the warm-up pilots (the codebook is
        # unitary, so every atom has energy M); taken before the (T, grid)
        # buffers below exist, to keep the peak down
        self.direction = _sweep_estimate(self.track, CS_DICTIONARY_SIZE, warm)
        m_t, slots = self.track.num_antennas, config.slots
        self.probes = np.empty((len(trials), slots, m_t), dtype=np.int8)
        rngs = RngPlan(config.seed).batch(trials, STREAM_PROBE, _ALG_TAGS["cs"])
        for probes, rng in zip(self.probes, rngs):
            probes[:] = rng.integers(0, 4, size=(slots, m_t), dtype=np.int8)
        self.static = config.trajectory == "static"
        self.k_win = max(m_t // 2, 1)
        self.grid = sine_grid(CS_DICTIONARY_SIZE)
        atoms = steering_matrix(self.track, self.grid)  # (grid, m_t)
        self.atoms_conj_t = np.conj(atoms).T
        grid_shape = (len(trials), CS_DICTIONARY_SIZE)
        if self.static:
            # running matched-filter sums over all pilots, and per-slot
            # buffers for conj(w^H a(g)) and its magnitude, written in place
            self.numer = np.zeros(grid_shape, dtype=complex)
            self.denom = np.zeros(grid_shape)
            self.phi_c = np.empty_like(self.numer)
            self.mag = np.empty_like(self.denom)
        else:
            self.window = np.empty((len(trials), self.k_win), dtype=complex)
            # lag_pick[q*m_t + p, p - q] = 1 for p >= q: one product sums
            # every superdiagonal of a flattened (m_t, m_t) matrix
            q, p = np.triu_indices(m_t)
            self.lag_pick = np.zeros((m_t * m_t, m_t), dtype=complex)
            self.lag_pick[q * m_t + p, p - q] = 1.0
            # the frame score's scratch, reused: fresh (T, grid) arrays every
            # frame cost page faults when the allocator hands memory back
            self.scratch = (
                np.empty(grid_shape, dtype=complex), np.empty(grid_shape), np.empty(grid_shape)
            )
            self.lag_atoms = _cs_lag_atoms(atoms)

    def _pilot(self, n: int, x_n: np.ndarray, noise: np.ndarray):
        """Slot n's probe weights and the pilot taken with them."""
        w_p = QPSK[self.probes[:, n - 1, :]] / math.sqrt(self.track.num_antennas)
        return w_p, (np.conj(w_p) * steering_matrix(self.track, x_n)).sum(axis=1) + noise

    def update(self, n, x_n, noise, ip):
        m_t = self.track.num_antennas
        if self.static:
            w_p, y = self._pilot(n, x_n, noise)
            np.matmul(w_p, self.atoms_conj_t, out=self.phi_c)
            self.denom += np.square(np.abs(self.phi_c, out=self.mag), out=self.mag)
            self.phi_c *= y[:, None]
            self.numer += self.phi_c
            scores = np.abs(self.numer) / np.sqrt(np.maximum(self.denom, 1e-300))
            self.direction = self.grid[np.argmax(scores, axis=1)]
            return
        pos = (n - 1) % m_t - (m_t - self.k_win)  # place in the frame's window
        if pos < 0:
            return
        self.window[:, pos] = self._pilot(n, x_n, noise)[1]
        if pos == self.k_win - 1:  # the frame's last slot
            w = QPSK[self.probes[:, n - self.k_win : n, :]] / math.sqrt(m_t)
            r = np.matmul(self.window[:, None, :], w)[:, 0, :]
            # gram[t, q, p] = sum_n w_nq conj(w_np); c_d sums its d-th superdiagonal
            gram = np.matmul(w.transpose(0, 2, 1), np.conj(w))
            c = gram.reshape(len(gram), m_t * m_t) @ self.lag_pick
            numer, denom = _cs_window_score(
                r, c, self.atoms_conj_t, self.lag_atoms, self.scratch
            )
            numer /= np.sqrt(np.maximum(denom, 1e-300, out=denom), out=denom)
            self.direction = self.grid[np.argmax(numer, axis=1)]


# built from (config, trials, anchor directions, warm-up pilots); step(n, x_n,
# noise) consumes slot n's pilot and returns (rate, MSE, direction or None)
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

    hw_track = mainlobe_halfwidth(config.track_geometry)
    mse_sum, rate_sum, lock_sum = np.zeros((3, n_slots))
    sqerr = np.zeros((len(trials), n_slots))
    trace = TrialRecord(
        algorithm, x_traj[0, 1:].copy(), np.full(n_slots, np.nan),
        np.zeros(n_slots), np.zeros(n_slots),
    )
    for n in range(1, n_slots + 1):
        x_n = x_traj[:, n]
        rate_n, mse_n, est = tracker.step(n, x_n, noise[:, n - 1])
        mse_sum[n - 1] = mse_n.sum()
        rate_sum[n - 1] = rate_n.sum()
        trace.mse_h[n - 1], trace.rate[n - 1] = mse_n[0], rate_n[0]
        if est is not None:
            err = est - x_n
            sqerr[:, n - 1] = err**2
            lock_sum[n - 1] = np.count_nonzero(np.abs(err) < 0.5 * hw_track)
            trace.x_hat[n - 1] = est[0]

    if est is None:  # no direction estimate
        conv_count = math.nan
        sqerr_conv_sum = np.full(n_slots, np.nan)
        final_est = np.full(len(trials), np.nan)
    else:
        conv = np.abs(sqerr[:, -1]) ** 0.5 < 0.5 * hw_track
        conv_count = float(np.count_nonzero(conv))
        sqerr_conv_sum = sqerr[conv].sum(axis=0)
        final_est = np.asarray(est, dtype=float)
    return _ChunkOut(
        mse_sum, rate_sum, lock_sum, sqerr_conv_sum, conv_count,
        x_traj[:, -1].copy(), final_est, trace,
    )


# ---------------------------------------------------------------------------
# experiment driver


def _chunks(trials: int, chunk_size: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + chunk_size, trials)) for lo in range(0, trials, chunk_size)]


def _run_algorithm(config: RunConfig, algorithm: str) -> RunSummary:
    spans = _chunks(config.trials, config.chunk_size)
    if config.jobs > 1 and len(spans) > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            futures = [
                pool.submit(_simulate_chunk, config, algorithm, lo, hi)
                for lo, hi in spans
            ]
            outs = [f.result() for f in futures]  # fixed chunk order
    else:
        outs = [_simulate_chunk(config, algorithm, lo, hi) for lo, hi in spans]

    n_slots = config.slots
    # deterministic reduction in chunk order
    mse_sum, rate_sum, lock_sum, sqerr_conv, conv_count = (
        sum(getattr(out, name) for out in outs)
        for name in ("mse_sum", "rate_sum", "lock_sum", "sqerr_conv_sum", "conv_count")
    )

    trials = config.trials
    slots = np.arange(1, n_slots + 1)
    mean_mse = mse_sum / trials
    mean_rate = rate_sum / trials
    imax_track = i_max(config.track_geometry, config.rho)
    if math.isnan(conv_count) or conv_count == 0:
        n_mse_imax = np.full(n_slots, np.nan)
        conv_frac = np.full(n_slots, np.nan)
    else:
        n_mse_imax = slots * (sqerr_conv / conv_count) * imax_track
        conv_frac = lock_sum / trials
    crlb_ref = h_prime_norm_sq(config.geometry) / (slots * imax_track)

    skip = min(STEADY_SKIP, n_slots - 1)
    return RunSummary(
        algorithm=algorithm,
        slots=slots,
        mean_mse_h=mean_mse,
        n_mse_times_imax=n_mse_imax,
        mean_rate=mean_rate,
        conv_frac=conv_frac,
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
    summaries = {}
    for name in config.algorithms:
        summaries[name] = _run_algorithm(config, name)
    return summaries


def run_single_trial(config: RunConfig, algorithm: str, trial: int = 0) -> TrialRecord:
    """Per-slot trace of one trial, identical to that trial inside a full run."""
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


def write_summary_csv(path, summary: RunSummary) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER.split(","))
        for k in range(len(summary.slots)):
            writer.writerow(
                [
                    int(summary.slots[k]),
                    f"{summary.mean_mse_h[k]:.12g}",
                    f"{summary.n_mse_times_imax[k]:.12g}",
                    f"{summary.mean_rate[k]:.12g}",
                    f"{summary.conv_frac[k]:.12g}",
                    f"{summary.crlb_h_ref[k]:.12g}",
                ]
            )
