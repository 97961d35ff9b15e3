"""Physical and statistical model of a uniform linear analog-beamforming array.

A beam direction is always the sine of the arrival angle, a dimensionless
value in [-1, 1].  Steering-vector entries carry negative phase increments,
so every array inner product is written ``w^H a(x)``.  The elements sit
half a wavelength apart, so the phase advance per element and unit sine is
pi, and every formula below is written for that spacing.
The grids and beams the trackers share live here too: the recursive
tracker's optimal step coefficient, the uniform sine grid that the coarse
sweep and sparse recovery score, and the DFT sweep codebook.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ArrayGeometry",
    "ChannelState",
    "steering_vector",
    "steering_matrix",
    "conjugate_beam",
    "observe",
    "log_likelihood",
    "fisher_information",
    "i_max",
    "crlb_min",
    "surrogate_f",
    "stable_points",
    "stable_point_spacing",
    "mainlobe_halfwidth",
    "channel_mse_limit",
    "alpha_star",
    "sine_grid",
    "codebook_directions",
    "dft_codebook",
]


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear array of ``num_antennas`` elements at half-wavelength
    spacing."""

    num_antennas: int

    def __post_init__(self) -> None:
        if self.num_antennas < 2:
            raise ValueError(f"need at least 2 antennas, got {self.num_antennas}")

    def subset(self, num_antennas: int) -> "ArrayGeometry":
        """Geometry of the first ``num_antennas`` elements."""
        if not 2 <= num_antennas <= self.num_antennas:
            raise ValueError(f"subset size {num_antennas} out of range")
        return ArrayGeometry(num_antennas)


@dataclass(frozen=True)
class ChannelState:
    """Single-path channel: direction sine and per-antenna SNR.

    ``snr`` is the linear per-antenna SNR; pilots are normalized to unit
    channel gain, so the implied noise power is ``1 / snr``.
    """

    x: float
    snr: float = 10.0

    def __post_init__(self) -> None:
        if not -1.0 <= self.x <= 1.0:
            raise ValueError(f"direction sine {self.x} outside [-1, 1]")
        if self.snr <= 0:
            raise ValueError("SNR must be positive")


def _check_direction(x: float) -> None:
    if not -1.0 <= x <= 1.0:
        raise ValueError(f"direction sine {x} outside [-1, 1]")


def steering_vector(geom: ArrayGeometry, x: float) -> np.ndarray:
    """Per-antenna phase signature of a plane wave from sine-direction ``x``.

    Entry m (0-based) is ``exp(-1j * pi * m * x)``; the squared norm is the
    antenna count.
    """
    _check_direction(x)
    idx = np.arange(geom.num_antennas)
    return np.exp(-1j * math.pi * x * idx)


def steering_matrix(geom: ArrayGeometry, xs: np.ndarray) -> np.ndarray:
    """Stack of steering vectors, one row per direction in ``xs``."""
    xs = np.asarray(xs, dtype=float)
    if xs.size and (xs.min() < -1.0 or xs.max() > 1.0):
        raise ValueError("direction sines outside [-1, 1]")
    idx = np.arange(geom.num_antennas)
    return np.exp(-1j * math.pi * np.multiply.outer(xs, idx))


def conjugate_beam(geom: ArrayGeometry, x_hat: float) -> np.ndarray:
    """Unit-norm phase-shifter weights matched to direction ``x_hat``.

    Equals ``a(x_hat)/sqrt(M)``: each entry has modulus ``1/sqrt(M)`` and the
    beam collects the full array gain when probing its own direction.
    """
    return steering_vector(geom, x_hat) / math.sqrt(geom.num_antennas)


def observe(
    geom: ArrayGeometry, chan: ChannelState, w: np.ndarray, noise: complex
) -> complex:
    """One normalized pilot observation ``y = w^H a(x) + noise/sqrt(snr)``.

    ``noise`` must be a circularly symmetric complex standard-Gaussian sample
    (real and imaginary parts independent N(0, 1/2)); it is supplied by the
    caller so that this function stays pure.
    """
    a = steering_vector(geom, chan.x)
    return complex(np.sum(np.conj(w) * a) + noise / math.sqrt(chan.snr))


def log_likelihood(
    geom: ArrayGeometry, chan: ChannelState, y: complex, x: float, w: np.ndarray
) -> float:
    """Log-density of observation ``y`` under direction ``x`` and probe ``w``."""
    a = steering_vector(geom, x)
    resid = y - np.sum(np.conj(w) * a)
    return float(math.log(chan.snr / math.pi) - chan.snr * abs(resid) ** 2)


def fisher_information(
    geom: ArrayGeometry, chan: ChannelState, x: float, w: np.ndarray
) -> float:
    """Fisher information about the direction sine for probing weights ``w``.

    Computed as ``(2*snr/M) * |sum_m g_m exp(1j*(phi_m - g_m*x))|^2`` where
    ``g_m = pi*m`` and ``phi_m`` is the phase dialed into the
    m-th phase shifter (weight entry ``exp(-1j*phi_m)/sqrt(M)``).
    """
    _check_direction(x)
    m = geom.num_antennas
    gains = math.pi * np.arange(m)
    shifter_phases = -np.angle(w)
    s = np.sum(gains * np.exp(1j * (shifter_phases - gains * x)))
    return 2.0 * chan.snr / m * abs(s) ** 2


def i_max(geom: ArrayGeometry, rho: float) -> float:
    """Largest attainable Fisher information, reached by the matched beam.

    Equals ``M*(M-1)^2 * pi^2 * rho / 2``.
    """
    m = geom.num_antennas
    return 0.5 * m * (m - 1) ** 2 * math.pi**2 * rho


def crlb_min(geom: ArrayGeometry, rho: float, n: int) -> float:
    """Lower bound on the direction MSE after ``n`` optimally probed pilots."""
    if n < 1:
        raise ValueError(f"slot count must be >= 1, got {n}")
    return 1.0 / (n * i_max(geom, rho))


def surrogate_f(geom: ArrayGeometry, v: float, x: float) -> float:
    """Mean drift of the recursive tracker probing ``v`` while the truth is ``x``.

    Equals ``-Im{a(v)^H a(x)} / sqrt(M)``; for a noiseless pilot taken with the
    conjugate beam at ``v`` the observation satisfies ``Im{y} = -f(v, x)``.
    """
    av = steering_vector(geom, v)
    ax = steering_vector(geom, x)
    return float(-np.imag(np.sum(np.conj(av) * ax)) / math.sqrt(geom.num_antennas))


def stable_point_spacing(geom: ArrayGeometry) -> float:
    """Gap between adjacent attractors of the tracking drift, 2/(M-1)."""
    return 2.0 / (geom.num_antennas - 1)


def stable_points(geom: ArrayGeometry, x: float) -> np.ndarray:
    """Attractors of the recursion in (-1, 1]: ``x`` plus integer multiples
    of the stable-point spacing.  Sorted ascending; ``x`` itself is the only
    attractor with full array gain."""
    _check_direction(x)
    spacing = stable_point_spacing(geom)
    k_lo = math.floor((-1.0 - x) / spacing) + 1  # strictly above -1
    k_hi = math.floor((1.0 - x) / spacing)  # at most +1
    ks = np.arange(k_lo, k_hi + 1)
    return x + ks * spacing


def mainlobe_halfwidth(geom: ArrayGeometry) -> float:
    """Half-width of the mainlobe in sine space, 2/M."""
    return 2.0 / geom.num_antennas


def channel_mse_limit(geom: ArrayGeometry, noise_power: float) -> float:
    """Asymptotic value of ``n * E||h(x_hat_n) - h(x)||^2`` for the recursive
    tracker at the optimal step size, given convergence to the true direction.

    Equals ``(2M-1) * sigma^2 / (3(M-1))``, independent of the direction.
    """
    m = geom.num_antennas
    return (2 * m - 1) * noise_power / (3.0 * (m - 1))


def alpha_star(geom: ArrayGeometry) -> float:
    """Step-size coefficient giving the fastest asymptotic convergence,
    ``2 / (sqrt(M) (M-1) pi)``."""
    m = geom.num_antennas
    return 2.0 / (math.sqrt(m) * (m - 1) * math.pi)


def sine_grid(size: int) -> np.ndarray:
    """The ``size`` uniform sine-space points ``(2k - 1 - size)/size`` for
    k = 1..size, symmetric about zero and strictly inside (-1, 1)."""
    k = np.arange(1, size + 1)
    return (2 * k - 1 - size) / size


def codebook_directions(geom: ArrayGeometry) -> np.ndarray:
    """The M uniformly spaced sweep directions: the M-point sine grid."""
    return sine_grid(geom.num_antennas)


def dft_codebook(geom: ArrayGeometry) -> np.ndarray:
    """Sweep beams, one conjugate beam per codebook direction (one per row).
    The M beams are orthonormal, so the codebook is unitary."""
    return steering_matrix(geom, codebook_directions(geom)) / math.sqrt(
        geom.num_antennas
    )
