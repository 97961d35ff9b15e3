"""Scalar reference replays of the four algorithms.

Each replay runs one trial of a ``RunConfig`` slot by slot with plain
scalar operations: its direction sines one trial at a time (``trajectory``),
one ``observe`` per pilot, ``np.linalg.lstsq`` for least squares, and a
direct matched filter over the sine grid for the coarse sweep and sparse
recovery.  It draws the trial's truth, noise, probes and initial state
from the same substreams as the engine, so the engine's per-slot trace
must match it.

It also holds the paper's closed forms at a general element spacing ``d``,
in wavelengths (``general_*``); the package writes them for ``d = 1/2``.
"""

import math

import numpy as np

from beamtrack import (
    ChannelState,
    RngPlan,
    alpha_star,
    codebook_directions,
    complex_normal,
    conjugate_beam,
    dft_codebook,
    mainlobe_halfwidth,
    observe,
    sine_grid,
    steering_matrix,
    steering_vector,
)
from beamtrack.harness import ALGORITHMS, CS_DICTIONARY_SIZE, QPSK, ls_data_beam
from beamtrack.scenarios import (
    STREAM_INIT,
    STREAM_OBSERVATION,
    STREAM_PROBE,
    STREAM_TRAJECTORY,
)

CS_GRID = sine_grid(CS_DICTIONARY_SIZE)


def trajectory(cfg, rng):
    """Direction sines of one trial of ``cfg`` drawn from ``rng``: index 0 is
    the warm-up anchor, indices 1..slots the tracked slots.  Static: one uniform
    draw; sinusoidal: angle (pi/3) sin(2 pi n/1000) plus 0.005 rad of
    Gaussian jitter; fixed velocity: ``omega`` rad per slot from 0, turning
    back before a step would leave [-pi/3, pi/3]."""
    n = cfg.slots
    if cfg.trajectory == "static":
        return np.full(n + 1, rng.uniform(-1.0, 1.0))
    if cfg.trajectory == "sinusoidal":
        slots = np.arange(n + 1)
        theta = math.pi / 3.0 * np.sin(2.0 * np.pi * slots / 1000.0)
        return np.sin(theta + 0.005 * rng.standard_normal(n + 1))
    theta = np.empty(n + 1)
    theta[0] = 0.0
    sign = 1.0
    for i in range(1, n + 1):
        if abs(theta[i - 1] + sign * cfg.omega) > math.pi / 3.0:
            sign = -sign
        theta[i] = theta[i - 1] + sign * cfg.omega
    return np.sin(theta)


def mse_h(geom, x_hat, x):
    """Squared channel-response error ``||a(x_hat) - a(x)||^2``."""
    diff = steering_vector(geom, x_hat) - steering_vector(geom, x)
    return float(np.sum(np.abs(diff) ** 2))


def achievable_rate(geom, w_data, x, rho):
    """Single-stream spectral efficiency ``log2(1 + rho |w^H a(x)|^2)``."""
    g = abs(np.sum(np.conj(w_data) * steering_vector(geom, x))) ** 2
    return float(math.log2(1.0 + rho * g))


def coarse_sweep(geom, size, pilots):
    """The ``size``-point grid point that best matches the beam-weighted sum
    of the M codebook pilots (ties toward the smallest)."""
    combined = np.asarray(pilots) @ dft_codebook(geom)  # sum_m y_m w_m
    points = sine_grid(size)
    scores = np.abs(np.conj(steering_matrix(geom, points)) @ combined)
    return float(points[int(np.argmax(scores))])


def general_phase_step(d):
    """Phase advance per element and unit sine, ``2 pi d/lambda``."""
    return 2.0 * math.pi * d


def general_i_max(m, d, rho):
    """Peak Fisher information ``2 M (M-1)^2 pi^2 (d/lambda)^2 rho``."""
    return 2.0 * m * (m - 1) ** 2 * math.pi**2 * d**2 * rho


def general_alpha_star(m, d):
    """Optimal step coefficient ``lambda/(sqrt(M) (M-1) pi d)``."""
    return 1.0 / (math.sqrt(m) * (m - 1) * math.pi * d)


def general_mainlobe_halfwidth(m, d):
    """Mainlobe half-width in sine space, ``lambda/(M d)``."""
    return 1.0 / (m * d)


def general_stable_point_spacing(m, d):
    """Gap between adjacent stable points, ``lambda/((M-1) d)``."""
    return 1.0 / ((m - 1) * d)


def ls_estimate(weights, observations):
    """Least-squares channel estimate from pilots ``y_i = w_i^H h + noise``."""
    a = np.conj(np.asarray(weights))
    h_hat, *_ = np.linalg.lstsq(a, np.asarray(observations), rcond=None)
    return h_hat


def cs_scores(geom, weights, observations):
    """Normalized matched filter ``|sum_n conj(u_n) y_n| / ||u||`` with
    ``u_n = w_n^H a(g)``, for every point g of the CS grid."""
    atoms = np.conj(np.asarray(weights)) @ steering_matrix(geom, CS_GRID).T  # (pilots, grid)
    numer = np.abs(np.conj(atoms).T @ np.asarray(observations))
    denom = np.linalg.norm(atoms, axis=0)
    return np.where(denom > 0, numer / np.where(denom > 0, denom, 1.0), 0.0)


def draws(cfg, trial, algorithm):
    """Truth ``xs`` (index 0: the warm-up anchor) and the standard complex
    noise of the warm-up sweep and slots, as the engine draws them."""
    plan = RngPlan(cfg.seed)
    xs = trajectory(cfg, plan.stream(trial, STREAM_TRAJECTORY))
    tag = ALGORITHMS.index(algorithm) + 1
    noise = complex_normal(
        plan.stream(trial, STREAM_OBSERVATION, tag), cfg.track_geometry.num_antennas + cfg.slots
    )
    return xs, noise


def _pilot(cfg, geom, x, w, z):
    return observe(geom, ChannelState(x, snr=cfg.rho), w, z)


def _warm_up(cfg, xs, noise):
    """The M codebook pilots of the warm-up sweep on the tracking subarray."""
    track = cfg.track_geometry
    return [_pilot(cfg, track, xs[0], w, z) for w, z in zip(dft_codebook(track), noise)]


def direction_metrics(cfg, xs, estimates):
    """Per-slot rate of the full-array conjugate beam at the estimate before
    the slot, and channel MSE of the estimate after it (``estimates[0]`` is
    the warm-up estimate)."""
    geom = cfg.geometry
    rates = [
        achievable_rate(geom, conjugate_beam(geom, estimates[n - 1]), xs[n], cfg.rho)
        for n in range(1, len(xs))
    ]
    mses = [mse_h(geom, estimates[n], xs[n]) for n in range(1, len(xs))]
    return rates, mses


def recursive(cfg, trial):
    """Truth and direction estimates of the recursive tracker: probe with the
    conjugate beam at the estimate, step ``a_n Im(y)`` (alpha/n when static,
    alpha otherwise), clip to [-1, 1]."""
    track = cfg.track_geometry
    m_t = track.num_antennas
    xs, noise = draws(cfg, trial, "recursive")
    if cfg.init == "sweep":
        x_hat = coarse_sweep(track, cfg.resolved_dictionary_size(), _warm_up(cfg, xs, noise))
    elif cfg.init == "uniform":
        x_hat = RngPlan(cfg.seed).stream(trial, STREAM_INIT).uniform(-1.0, 1.0)
    else:
        hw = mainlobe_halfwidth(track)
        offset = RngPlan(cfg.seed).stream(trial, STREAM_INIT).uniform(-hw, hw)
        x_hat = min(max(xs[0] + offset, -1.0), 1.0)
    alpha = alpha_star(track) if cfg.step_alpha is None else cfg.step_alpha
    estimates = [x_hat]
    for n in range(1, len(xs)):
        step = alpha / n if cfg.trajectory == "static" else alpha
        y = _pilot(cfg, track, xs[n], conjugate_beam(track, x_hat), noise[m_t + n - 1])
        x_hat = min(max(x_hat - step * y.imag, -1.0), 1.0)
        estimates.append(x_hat)
    return xs, estimates


def sweep_refine(cfg, trial):
    """Truth and direction estimates of sweep-and-refine: the warm-up's
    strongest codebook beam, then three-slot rounds that probe it and its two
    nearest distinct neighbours, one per slot, and keep the strongest."""
    track = cfg.track_geometry
    m_t = track.num_antennas
    xs, noise = draws(cfg, trial, "80211ad")
    beams, dirs = dft_codebook(track), codebook_directions(track)
    best = int(np.argmax(np.abs(_warm_up(cfg, xs, noise))))
    estimates, mags = [dirs[best]], []
    for n in range(1, len(xs)):
        first = min(max(best, 1), m_t - 2) - 1
        probe = first + len(mags)
        mags.append(abs(_pilot(cfg, track, xs[n], beams[probe], noise[m_t + n - 1])))
        if len(mags) == 3:
            best, mags = first + int(np.argmax(mags)), []
        estimates.append(dirs[best])
    return xs, estimates


def least_squares(cfg, trial):
    """Per-slot rate and channel MSE of least squares over the codebook
    pilots with its phase-only data beam: static runs re-estimate every slot
    from every pilot so far, dynamic runs at each frame's last slot from the
    frame's M pilots."""
    geom = cfg.geometry
    m = geom.num_antennas
    xs, noise = draws(cfg, trial, "ls")
    beams = dft_codebook(geom)
    weights, obs = list(beams), _warm_up(cfg, xs, noise)
    h_hat = ls_estimate(weights, obs)
    rates, mses = [], []
    for n in range(1, len(xs)):
        rates.append(achievable_rate(geom, ls_data_beam(h_hat), xs[n], cfg.rho))
        d = (n - 1) % m
        weights.append(beams[d])
        obs.append(_pilot(cfg, geom, xs[n], beams[d], noise[m + n - 1]))
        if cfg.trajectory == "static":
            h_hat = ls_estimate(weights, obs)
        elif n % m == 0:
            h_hat = ls_estimate(weights[-m:], obs[-m:])
        err = h_hat - steering_vector(geom, xs[n])
        mses.append(float(np.sum(np.abs(err) ** 2)))
    return rates, mses


def compressed_sensing(cfg, trial):
    """Truth and the CS grid scores behind every new estimate: index 0 scores
    the warm-up sweep; index n the pilots of slot n's estimate, or None where
    the estimate is held.  Static runs score every slot from all random
    QPSK pilots so far; dynamic runs score each M-slot frame's last slot from
    its last M//2 pilots."""
    track = cfg.track_geometry
    m_t = track.num_antennas
    xs, noise = draws(cfg, trial, "cs")
    probe_rng = RngPlan(cfg.seed).stream(trial, STREAM_PROBE, ALGORITHMS.index("cs") + 1)
    picks = probe_rng.integers(0, 4, size=(cfg.slots, m_t), dtype=np.int8)
    weights = QPSK[picks] / math.sqrt(m_t)
    obs = [
        _pilot(cfg, track, xs[n], weights[n - 1], noise[m_t + n - 1])
        for n in range(1, len(xs))
    ]
    scores = [cs_scores(track, dft_codebook(track), _warm_up(cfg, xs, noise))]
    k_win = max(m_t // 2, 1)
    for n in range(1, len(xs)):
        if cfg.trajectory == "static":
            scores.append(cs_scores(track, weights[:n], obs[:n]))
        elif n % m_t == 0:
            scores.append(cs_scores(track, weights[n - k_win : n], obs[n - k_win : n]))
        else:
            scores.append(None)
    return xs, scores
