"""Scalar pilot model and reference replays of the four algorithms.

The pilot model is one normalized observation ``y = w^H a(x) + z/sqrt(rho)``
of a probe ``w`` (``observe``) with the explicit steering vector ``a(x)``
(``steering_vector``), its log-likelihood and the Fisher information of an
arbitrary probe.  The package's closed forms (``i_max``, the drift ``f``,
the array kernel) are checked against it.

Each replay runs one trial of a ``RunConfig`` slot by slot with plain
scalar operations: its direction sines one trial at a time (``trajectory``),
one ``observe`` per pilot, ``np.linalg.lstsq`` for least squares, and a
direct matched filter over the sine grid for the coarse sweep and sparse
recovery.  It draws the trial's truth, noise, probes and initial state
from the same substreams as the engine, one ``SeedSequence`` at a time
(``stream``), so the engine's per-slot trace must match it.

It also holds the paper's closed forms at a general element spacing ``d``,
in wavelengths (``general_*``); the package writes them for ``d = 1/2``.
"""

import math

import numpy as np

from beamtrack import (
    alpha_star,
    dft_codebook,
    sine_grid,
    steering_matrix,
)
from beamtrack.harness import ALGORITHMS, CS_DICTIONARY_SIZE, QPSK, ls_data_beam
from beamtrack.scenarios import (
    STREAM_INIT,
    STREAM_OBSERVATION,
    STREAM_PROBE,
    STREAM_TRAJECTORY,
)

CS_GRID = sine_grid(CS_DICTIONARY_SIZE)


def _check_direction(x):
    if not -1.0 <= x <= 1.0:
        raise ValueError(f"direction sine {x} outside [-1, 1]")


def stream(seed, trial, stream_id, tag=0):
    """Trial ``trial``'s substream ``stream_id`` under ``tag``: the PCG64
    generator of ``SeedSequence((seed, trial, stream_id, tag))``, which
    ``RngPlan(seed).batch`` must reproduce draw for draw."""
    ss = np.random.SeedSequence((seed, trial, stream_id, tag))
    return np.random.Generator(np.random.PCG64(ss))


def steering_vector(geom, x):
    """Per-antenna phase signature of a plane wave from sine-direction ``x``:
    entry m (0-based) is ``exp(-1j * pi * m * x)``, one explicit exponential
    per antenna."""
    _check_direction(x)
    return np.exp(-1j * math.pi * x * np.arange(geom.num_antennas))


def complex_normal(rng, size):
    """Circularly symmetric complex standard-Gaussian samples (unit variance)."""
    pair = rng.standard_normal(size=tuple(np.atleast_1d(size)) + (2,))
    return (pair[..., 0] + 1j * pair[..., 1]) * math.sqrt(0.5)


def conjugate_beam(geom, x_hat):
    """Unit-norm phase-shifter weights matched to direction ``x_hat``.

    Equals ``a(x_hat)/sqrt(M)``: each entry has modulus ``1/sqrt(M)`` and the
    beam collects the full array gain when probing its own direction.
    """
    return steering_vector(geom, x_hat) / math.sqrt(geom.num_antennas)


def observe(geom, x, rho, w, noise):
    """One normalized pilot observation ``y = w^H a(x) + noise/sqrt(rho)``
    from direction sine ``x`` at linear per-antenna SNR ``rho``.

    ``noise`` must be a circularly symmetric complex standard-Gaussian sample
    (real and imaginary parts independent N(0, 1/2)); it is supplied by the
    caller so that this function stays pure.
    """
    a = steering_vector(geom, x)
    return complex(np.sum(np.conj(w) * a) + noise / math.sqrt(rho))


def log_likelihood(geom, rho, y, x, w):
    """Log-density of observation ``y`` under direction ``x`` and probe ``w``."""
    a = steering_vector(geom, x)
    resid = y - np.sum(np.conj(w) * a)
    return float(math.log(rho / math.pi) - rho * abs(resid) ** 2)


def fisher_information(geom, rho, x, w):
    """Fisher information about the direction sine for probing weights ``w``.

    Computed as ``(2*rho/M) * |sum_m g_m exp(1j*(phi_m - g_m*x))|^2`` where
    ``g_m = pi*m`` and ``phi_m`` is the phase dialed into the
    m-th phase shifter (weight entry ``exp(-1j*phi_m)/sqrt(M)``).
    """
    _check_direction(x)
    m = geom.num_antennas
    gains = math.pi * np.arange(m)
    shifter_phases = -np.angle(w)
    s = np.sum(gains * np.exp(1j * (shifter_phases - gains * x)))
    return 2.0 * rho / m * abs(s) ** 2


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


def general_h_prime_norm_sq(m, d):
    """Squared norm of the channel-response derivative,
    ``(2 pi d/lambda)^2 (M-1) M (2M-1)/6``."""
    return general_phase_step(d) ** 2 * ((m - 1) * m * (2 * m - 1) / 6.0)


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
    xs = trajectory(cfg, stream(cfg.seed, trial, STREAM_TRAJECTORY))
    tag = ALGORITHMS.index(algorithm) + 1
    noise = complex_normal(
        stream(cfg.seed, trial, STREAM_OBSERVATION, tag),
        cfg.track_geometry.num_antennas + cfg.slots,
    )
    return xs, noise


def _warm_up(cfg, xs, noise):
    """The M codebook pilots of the warm-up sweep on the tracking subarray."""
    track = cfg.track_geometry
    return [observe(track, xs[0], cfg.rho, w, z) for w, z in zip(dft_codebook(track), noise)]


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
    else:
        x_hat = stream(cfg.seed, trial, STREAM_INIT).uniform(-1.0, 1.0)
    alpha = alpha_star(track) if cfg.step_alpha is None else cfg.step_alpha
    estimates = [x_hat]
    for n in range(1, len(xs)):
        step = alpha / n if cfg.trajectory == "static" else alpha
        y = observe(track, xs[n], cfg.rho, conjugate_beam(track, x_hat), noise[m_t + n - 1])
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
    beams, dirs = dft_codebook(track), sine_grid(m_t)
    best = int(np.argmax(np.abs(_warm_up(cfg, xs, noise))))
    estimates, mags = [dirs[best]], []
    for n in range(1, len(xs)):
        first = min(max(best, 1), m_t - 2) - 1
        probe = first + len(mags)
        mags.append(abs(observe(track, xs[n], cfg.rho, beams[probe], noise[m_t + n - 1])))
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
        obs.append(observe(geom, xs[n], cfg.rho, beams[d], noise[m + n - 1]))
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
    probe_rng = stream(cfg.seed, trial, STREAM_PROBE, ALGORITHMS.index("cs") + 1)
    picks = probe_rng.integers(0, 4, size=(cfg.slots, m_t), dtype=np.int8)
    weights = QPSK[picks] / math.sqrt(m_t)
    obs = [
        observe(track, xs[n], cfg.rho, weights[n - 1], noise[m_t + n - 1])
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
