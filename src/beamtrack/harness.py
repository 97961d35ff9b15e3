"""Monte Carlo experiment runner.

Wires trajectories, noise streams and algorithms together, aggregates per-slot
metrics across trials, and writes the benchmark CSV files.  Trials are
advanced in vectorized chunks; every trial draws its noise from its own
substream, so results are bit-identical regardless of chunking or worker
count.

Per-slot conventions, uniform across algorithms:
  * the data beam of slot n is set from the algorithm state at the end of
    slot n-1 (causal beamforming);
  * one pilot is consumed per slot, taken with the algorithm's probe beam on
    the tracking subarray;
  * metrics other than rate (channel MSE, squared sine error) use the state
    after the slot's update.
In dynamic scenarios the estimate-based baselines (least squares, sparse
recovery) re-estimate once per full codebook frame; in static scenarios they
re-estimate every slot from all pilots received so far.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .arraymodel import (
    DEFAULT_BETA,
    ArrayGeometry,
    i_max,
    mainlobe_halfwidth,
    steering_matrix,
    steering_vector,
)
from .baselines import CS_DICTIONARY_SIZE, QPSK
from .scenarios import RngPlan, Trajectory, complex_normal, generate
from .trackers import (
    StepSizeSchedule,
    SweepDictionary,
    alpha_star,
    codebook_directions,
    dft_codebook,
)

__all__ = [
    "ALGORITHMS",
    "RunConfig",
    "RunSummary",
    "TrialRecord",
    "CSV_HEADER",
    "mse_h",
    "achievable_rate",
    "h_prime_norm_sq",
    "run_experiment",
    "run_single_trial",
    "initialization_hit_rate",
    "write_summary_csv",
]

ALGORITHMS = ("recursive", "80211ad", "ls", "cs")
_ALG_TAGS = {name: k + 1 for k, name in enumerate(ALGORITHMS)}

CSV_HEADER = "slot,mean_mse_h,n_mse_times_imax,mean_rate,conv_frac,crlb_h_ref"


# ---------------------------------------------------------------------------
# metrics


def mse_h(geom: ArrayGeometry, x_hat: float, x: float, beta: complex) -> float:
    """Squared channel-response error ``||beta a(x_hat) - beta a(x)||^2``."""
    diff = steering_vector(geom, x_hat) - steering_vector(geom, x)
    return float(abs(beta) ** 2 * np.sum(np.abs(diff) ** 2))


def achievable_rate(
    geom: ArrayGeometry, w_data: np.ndarray, x: float, rho: float
) -> float:
    """Single-stream spectral efficiency ``log2(1 + rho |w^H a(x)|^2)``."""
    g = abs(np.sum(np.conj(w_data) * steering_vector(geom, x))) ** 2
    return float(math.log2(1.0 + rho * g))


def h_prime_norm_sq(geom: ArrayGeometry, beta: complex) -> float:
    """Squared norm of the channel-response derivative, direction independent."""
    m = geom.num_antennas
    idx_sq_sum = (m - 1) * m * (2 * m - 1) / 6.0
    return abs(beta) ** 2 * geom.phase_step**2 * idx_sq_sum


# ---------------------------------------------------------------------------
# configuration and results


@dataclass(frozen=True)
class RunConfig:
    """Complete description of one Monte Carlo experiment."""

    trajectory: Trajectory
    num_antennas: int = 16
    spacing_over_wavelength: float = 0.5
    snr_db: float = 10.0
    beta: complex = DEFAULT_BETA
    algorithms: tuple[str, ...] = ALGORITHMS
    trials: int = 1000
    track_antennas: int | None = None
    sweep_dictionary_size: int | None = None  # default 2x tracking antennas
    step_kind: str = "auto"  # diminishing | fixed | auto (static->diminishing)
    step_alpha: float | None = None  # default alpha_star of tracking array
    step_n0: float = 0.0
    init: str = "sweep"  # sweep | uniform | mainlobe
    seed: int = 0
    chunk_size: int = 512
    jobs: int = 1
    steady_skip: int = 50  # slots excluded from scalar aggregates
    out_dir: str | None = None
    out_prefix: str | None = None

    def __post_init__(self) -> None:
        for name in self.algorithms:
            if name not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {name!r}")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.init not in ("sweep", "uniform", "mainlobe"):
            raise ValueError(f"unknown init mode {self.init!r}")
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be at least 1, got {self.chunk_size}")
        if self.steady_skip < 0:
            raise ValueError(f"steady_skip must be nonnegative, got {self.steady_skip}")
        track = self.track_geometry  # rejects < 2 antennas and a subarray out of range
        if "ls" in self.algorithms and track != self.geometry:
            raise ValueError("least-squares baseline needs the full array")
        if not math.isfinite(self.snr_db):
            raise ValueError(f"snr_db must be finite, got {self.snr_db}")
        self.step_schedule()  # rejects an unknown kind, alpha <= 0 and n0 < 0

    @property
    def geometry(self) -> ArrayGeometry:
        return ArrayGeometry(self.num_antennas, self.spacing_over_wavelength)

    @property
    def track_geometry(self) -> ArrayGeometry:
        if self.track_antennas is None:
            return self.geometry
        return self.geometry.subset(self.track_antennas)

    @property
    def rho(self) -> float:
        return 10.0 ** (self.snr_db / 10.0)

    @property
    def slots(self) -> int:
        return self.trajectory.num_slots

    def step_schedule(self) -> StepSizeSchedule:
        """Recursive-tracker steps: ``auto`` is diminishing in static runs and
        fixed otherwise; ``alpha`` defaults to alpha_star of the tracking array."""
        kind = self.step_kind
        if kind == "auto":
            kind = "diminishing" if self.trajectory.kind == "static" else "fixed"
        alpha = self.step_alpha
        if alpha is None:
            alpha = alpha_star(self.track_geometry)
        return StepSizeSchedule(kind, alpha, self.step_n0)

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
# vectorized chunk engine


@dataclass
class _ChunkOut:
    mse_sum: np.ndarray
    rate_sum: np.ndarray
    lock_sum: np.ndarray
    sqerr_conv_sum: np.ndarray
    conv_count: float
    trials: int
    final_x: np.ndarray
    final_est: np.ndarray
    trace: TrialRecord | None


def _inner(phase_step: float, m: int, delta: np.ndarray) -> np.ndarray:
    """Steering inner product a(v)^H a(x) for delta = v - x, elementwise."""
    return np.exp(1j * phase_step * np.multiply.outer(delta, np.arange(m))).sum(axis=1)


def _sweep_estimate(geom: ArrayGeometry, size: int, pilots: np.ndarray) -> np.ndarray:
    """Batched ``coarse_sweep``: row t of ``pilots`` holds trial t's M codebook
    pilots; returns each trial's best point of the ``size``-point grid."""
    points = SweepDictionary(size).points
    cand = steering_matrix(geom, points)
    scores = np.abs((pilots @ dft_codebook(geom)) @ np.conj(cand).T)
    return points[np.argmax(scores, axis=1)]


def _simulate_chunk(
    config: RunConfig, algorithm: str, lo: int, hi: int, want_trace: bool
) -> _ChunkOut:
    geom = config.geometry
    track = config.track_geometry
    m_full = geom.num_antennas
    m_t = track.num_antennas
    k_full = geom.phase_step
    k_t = track.phase_step
    rho = config.rho
    beta = config.beta
    beta2 = abs(beta) ** 2
    n_slots = config.slots
    t_chunk = hi - lo
    plan = RngPlan(config.seed)
    tag = _ALG_TAGS[algorithm]
    static_mode = config.trajectory.kind == "static"

    # per-trial substreams, stacked into chunk arrays
    x_traj = np.empty((t_chunk, n_slots + 1))
    noise = np.empty((t_chunk, m_t + n_slots), dtype=complex)
    for t in range(lo, hi):
        x_traj[t - lo] = generate(config.trajectory, plan.trajectory_rng(t))
        noise[t - lo] = complex_normal(plan.observation_rng(t, tag), m_t + n_slots)
    probes = None
    if algorithm == "cs":
        probes = np.empty((t_chunk, n_slots, m_t), dtype=np.int8)
        for t in range(lo, hi):
            probes[t - lo] = plan.probe_rng(t, tag).integers(
                0, 4, size=(n_slots, m_t), dtype=np.int8
            )

    beams_t = dft_codebook(track)  # (m_t, m_t) rows are sweep beams
    dirs_t = codebook_directions(track)
    x0 = x_traj[:, 0]

    # warm-up: one full codebook sweep against the anchored direction
    s0 = steering_matrix(track, x0)
    pilots_warm = s0 @ np.conj(beams_t).T + noise[:, :m_t] / math.sqrt(rho)

    sqrt_mt = math.sqrt(m_t)
    hw_track = mainlobe_halfwidth(track)
    mse_sum = np.zeros(n_slots)
    rate_sum = np.zeros(n_slots)
    lock_sum = np.zeros(n_slots)
    sqerr = np.zeros((t_chunk, n_slots))
    has_direction = algorithm != "ls"

    trace_xh = np.full(n_slots, np.nan) if want_trace else None
    trace_rate = np.zeros(n_slots) if want_trace else None
    trace_mse = np.zeros(n_slots) if want_trace else None

    def rate_from_direction(x_hat_dir, x_n):
        ip = _inner(k_full, m_full, x_hat_dir - x_n)
        return np.log2(1.0 + rho * np.abs(ip) ** 2 / m_full)

    def mse_from_direction(x_hat_dir, x_n):
        ip = _inner(k_full, m_full, x_hat_dir - x_n)
        return beta2 * (2.0 * m_full - 2.0 * np.real(ip))

    # --- algorithm state initialization from the warm-up sweep
    if algorithm == "recursive":
        schedule = config.step_schedule()
        if config.init == "sweep":
            size = config.resolved_dictionary_size()
            x_hat = _sweep_estimate(track, size, pilots_warm)
        elif config.init == "uniform":
            x_hat = np.array(
                [plan.init_rng(t).uniform(-1.0, 1.0) for t in range(lo, hi)]
            )
        else:  # mainlobe
            offs = np.array(
                [plan.init_rng(t).uniform(-hw_track, hw_track) for t in range(lo, hi)]
            )
            x_hat = np.clip(x0 + offs, -1.0, 1.0)
    elif algorithm == "80211ad":
        best = np.argmax(np.abs(pilots_warm), axis=1)
    elif algorithm == "ls":
        if static_mode:
            dir_sums = pilots_warm.copy().astype(complex)
            dir_counts = np.ones(m_t)
        latest = pilots_warm.copy()
        combine = np.linalg.pinv(np.conj(beams_t))  # rows of conj(beams) probe h
        h_hat = latest @ combine.T
    elif algorithm == "cs":
        grid = SweepDictionary(CS_DICTIONARY_SIZE).points
        atoms_grid = steering_matrix(track, grid)  # (grid, m_t)
        # initial estimate: matched filter over the warm sweep pilots
        phi0 = np.conj(beams_t) @ atoms_grid.T  # (m_t, grid)
        num0 = np.abs(np.conj(phi0).T @ pilots_warm.T).T  # (T, grid)
        den0 = np.linalg.norm(phi0, axis=0)
        x_hat_cs = grid[np.argmax(num0 / den0, axis=1)]
        atoms_conj_t = np.conj(atoms_grid).T  # (m_t, grid)
        k_win = max(m_t // 2, 1)
        refresh = m_t  # one re-estimate per codebook frame in dynamic mode
        # running matched-filter sums over the pilot window, and per-slot
        # buffers for conj(w^H a(g)) and its magnitude, all written in place
        numer = np.zeros((t_chunk, CS_DICTIONARY_SIZE), dtype=complex)
        denom = np.zeros((t_chunk, CS_DICTIONARY_SIZE))
        phi_c = np.empty_like(numer)
        mag = np.empty_like(denom)

    for n in range(1, n_slots + 1):
        x_n = x_traj[:, n]
        z_n = noise[:, m_t + n - 1]

        if algorithm == "recursive":
            # data beam and probe share the direction from the previous slot
            ip_t = _inner(k_t, m_t, x_hat - x_n)
            y = ip_t / sqrt_mt + z_n / math.sqrt(rho)
            rate_n = rate_from_direction(x_hat, x_n)
            x_hat = np.clip(x_hat - schedule.at(n) * np.imag(y), -1.0, 1.0)
            est_dir = x_hat
        elif algorithm == "80211ad":
            rate_n = rate_from_direction(dirs_t[best], x_n)
            cursor = (n - 1) % 3
            base = np.clip(best, 1, m_t - 2)
            cand = base[:, None] + np.array([-1, 0, 1])
            probe_dir = dirs_t[cand[:, cursor]]
            ip_t = _inner(k_t, m_t, probe_dir - x_n)
            y = ip_t / sqrt_mt + z_n / math.sqrt(rho)
            if cursor == 0:
                buf = np.empty((t_chunk, 3))
            buf[:, cursor] = np.abs(y)
            if cursor == 2:
                best = cand[np.arange(t_chunk), np.argmax(buf, axis=1)]
            est_dir = dirs_t[best]
        elif algorithm == "ls":
            a_full_n = steering_matrix(geom, x_n)
            w_phases = np.exp(-1j * np.angle(h_hat)) / math.sqrt(m_full)
            g = np.abs((w_phases * a_full_n).sum(axis=1)) ** 2
            rate_n = np.log2(1.0 + rho * g)
            d = (n - 1) % m_t
            y = (np.conj(beams_t[d]) * a_full_n).sum(axis=1) + z_n / math.sqrt(rho)
            if static_mode:
                dir_sums[:, d] += y
                dir_counts[d] += 1.0
                gram = (beams_t.T * dir_counts) @ np.conj(beams_t)
                rhs = dir_sums @ beams_t
                h_hat = np.linalg.solve(gram, rhs.T).T
            else:
                latest[:, d] = y
                if n % m_t == 0:
                    h_hat = latest @ combine.T
            # h_hat estimates the gain-normalized response; scale by |beta|^2
            mse_n = beta2 * (np.abs(h_hat - a_full_n) ** 2).sum(axis=1)
        else:  # cs
            rate_n = rate_from_direction(x_hat_cs, x_n)
            w_p = QPSK[probes[:, n - 1, :]] / sqrt_mt
            s_track = steering_matrix(track, x_n)
            y = (np.conj(w_p) * s_track).sum(axis=1) + z_n / math.sqrt(rho)
            # static: every pilot so far, scored each slot; dynamic: the last
            # k_win pilots of each frame, scored at the frame's last slot
            if static_mode or (n - 1) % refresh >= refresh - k_win:
                np.matmul(w_p, atoms_conj_t, out=phi_c)
                denom += np.square(np.abs(phi_c, out=mag), out=mag)
                phi_c *= y[:, None]
                numer += phi_c
            if static_mode or n % refresh == 0:
                scores = np.abs(numer) / np.sqrt(np.maximum(denom, 1e-300))
                x_hat_cs = grid[np.argmax(scores, axis=1)]
                if not static_mode:
                    numer.fill(0.0)
                    denom.fill(0.0)
            est_dir = x_hat_cs

        if has_direction:
            mse_n = mse_from_direction(est_dir, x_n)
            err = est_dir - x_n
            sqerr[:, n - 1] = err**2
            lock_sum[n - 1] = np.count_nonzero(np.abs(err) < 0.5 * hw_track)
            final_est = np.asarray(est_dir, dtype=float)
        mse_sum[n - 1] = mse_n.sum()
        rate_sum[n - 1] = rate_n.sum()
        if want_trace:
            trace_rate[n - 1] = rate_n[0]
            trace_mse[n - 1] = mse_n[0]
            if has_direction:
                trace_xh[n - 1] = est_dir[0]

    if has_direction:
        final_err = np.abs(sqerr[:, -1]) ** 0.5
        conv = final_err < 0.5 * hw_track
        conv_count = float(np.count_nonzero(conv))
        sqerr_conv_sum = sqerr[conv].sum(axis=0)
    else:
        conv_count = math.nan
        sqerr_conv_sum = np.full(n_slots, np.nan)
        final_est = np.full(t_chunk, np.nan)

    trace = None
    if want_trace:
        trace = TrialRecord(
            algorithm=algorithm,
            x=x_traj[0, 1:].copy(),
            x_hat=trace_xh,
            mse_h=trace_mse,
            rate=trace_rate,
        )
    return _ChunkOut(
        mse_sum,
        rate_sum,
        lock_sum,
        sqerr_conv_sum,
        conv_count,
        t_chunk,
        x_traj[:, -1].copy(),
        final_est,
        trace,
    )


# ---------------------------------------------------------------------------
# experiment driver


def _chunks(trials: int, chunk_size: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + chunk_size, trials)) for lo in range(0, trials, chunk_size)]


def _run_algorithm(
    config: RunConfig, algorithm: str, want_trace: bool = True
) -> RunSummary:
    spans = _chunks(config.trials, config.chunk_size)
    outs: list[_ChunkOut] = []
    if config.jobs > 1 and len(spans) > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            futures = [
                pool.submit(
                    _simulate_chunk, config, algorithm, lo, hi, want_trace and lo == 0
                )
                for lo, hi in spans
            ]
            outs = [f.result() for f in futures]  # fixed chunk order
    else:
        outs = [
            _simulate_chunk(config, algorithm, lo, hi, want_trace and lo == 0)
            for lo, hi in spans
        ]

    n_slots = config.slots
    mse_sum = np.zeros(n_slots)
    rate_sum = np.zeros(n_slots)
    lock_sum = np.zeros(n_slots)
    sqerr_conv = np.zeros(n_slots)
    conv_count = 0.0
    for out in outs:  # deterministic reduction in chunk order
        mse_sum += out.mse_sum
        rate_sum += out.rate_sum
        lock_sum += out.lock_sum
        sqerr_conv += out.sqerr_conv_sum
        conv_count += out.conv_count

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
    crlb_ref = h_prime_norm_sq(config.geometry, config.beta) / (slots * imax_track)

    skip = min(config.steady_skip, n_slots - 1)
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
    """Run every configured algorithm and return per-algorithm summaries.
    When ``config.out_dir`` is set, one CSV per algorithm is written there."""
    summaries = {}
    for name in config.algorithms:
        summaries[name] = _run_algorithm(config, name)
    if config.out_dir is not None:
        from pathlib import Path

        prefix = config.out_prefix or config.trajectory.kind
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name, summary in summaries.items():
            write_summary_csv(out / f"{prefix}_{name}.csv", summary)
    return summaries


def run_single_trial(config: RunConfig, algorithm: str, trial: int = 0) -> TrialRecord:
    """Per-slot trace of one trial, identical to that trial inside a full run."""
    out = _simulate_chunk(config, algorithm, trial, trial + 1, want_trace=True)
    return out.trace


def initialization_hit_rate(
    geom: ArrayGeometry,
    snr_db: float,
    dictionary_size: int,
    trials: int,
    seed: int = 0,
    chunk_size: int = 4096,
) -> float:
    """Monte Carlo probability that the coarse sweep lands inside the mainlobe
    of a uniformly drawn direction."""
    rho = 10.0 ** (snr_db / 10.0)
    beams = dft_codebook(geom)
    hw = mainlobe_halfwidth(geom)
    plan = RngPlan(seed)
    m = geom.num_antennas
    hits = 0
    for lo in range(0, trials, chunk_size):
        hi = min(lo + chunk_size, trials)
        x = np.array([plan.trajectory_rng(t).uniform(-1.0, 1.0) for t in range(lo, hi)])
        z = np.stack(
            [complex_normal(plan.observation_rng(t), m) for t in range(lo, hi)]
        )
        pilots = steering_matrix(geom, x) @ np.conj(beams).T + z / math.sqrt(rho)
        x0 = _sweep_estimate(geom, dictionary_size, pilots)
        hits += int(np.count_nonzero(np.abs(x0 - x) < hw))
    return hits / trials


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
