"""Geometry and closed-form analytics of a uniform linear analog-beamforming
array.

A beam direction is always the sine of the arrival angle, a dimensionless
value in [-1, 1].  Steering-vector entries carry negative phase increments,
so every array inner product is written ``w^H a(x)``.  The elements sit
half a wavelength apart, so the phase advance per element and unit sine is
pi, and every formula below is written for that spacing: the peak Fisher
information, the channel-response derivative and the CRLB, the tracking
drift and its stable points, the mainlobe and the channel-MSE limit.
The one implementation of the array inner product ``a(v)^H a(x)`` is the
Dirichlet kernel in polar form, ``array_kernel_polar``: a signed amplitude
and a phase, ``a(v)^H a(x) = amp * e^{j phase}``.  Each consumer takes only
the part it needs: a rate takes ``amp**2``, the stable-point gains of
``analyze-stable-points`` ``|amp|``, a channel MSE ``amp * cos(phase)`` and
the drift ``surrogate_f`` ``amp * sin(phase)``, the last two bit for bit
the real and imaginary parts of ``amp * e^{j phase}``.  Only a pilot that
gets noise added builds the complex value.
The grids and beams the trackers share live here too: the recursive
tracker's optimal step coefficient, the uniform sine grid that the coarse
sweep and sparse recovery score, and the DFT sweep codebook.  The pilot
model, the scalar steering vector and the Fisher information of an
arbitrary probe, which these forms are checked against, live in the tests'
scalar oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ArrayGeometry",
    "steering_matrix",
    "array_kernel_polar",
    "i_max",
    "h_prime_norm_sq",
    "crlb_min",
    "surrogate_f",
    "stable_points",
    "stable_point_spacing",
    "mainlobe_halfwidth",
    "channel_mse_limit",
    "alpha_star",
    "sine_grid",
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


def _check_direction(x: float | np.ndarray) -> None:
    if not np.all(np.abs(x) <= 1.0):
        raise ValueError(f"direction sine {x} outside [-1, 1]")


def steering_matrix(geom: ArrayGeometry, xs: float | np.ndarray) -> np.ndarray:
    """Stack of steering vectors, one row per direction in ``xs``.  A scalar
    ``xs`` gives the one steering vector ``a(xs)``: entry m (0-based) is
    ``exp(-1j * pi * m * x)``, and its squared norm is the antenna count."""
    xs = np.asarray(xs, dtype=float)
    _check_direction(xs)
    idx = np.arange(geom.num_antennas)
    return np.exp(-1j * math.pi * np.multiply.outer(xs, idx))


def array_kernel_polar(geom: ArrayGeometry, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Steering inner product a(v)^H a(x) for an array of delta = v - x,
    elementwise, in polar form ``(amp, phase)``: the Dirichlet kernel
    ``e^{j phi (m-1)/2} sin(m phi/2) / sin(phi/2)`` of ``phi = pi * delta``,
    which is the sum of ``e^{j phi i}`` over i < m, has the signed amplitude
    ``amp = sin(m phi/2) / sin(phi/2)`` and the phase ``(m-1) phi/2``.  The
    sum is 2*pi-periodic in phi, so phi is first wrapped into [-pi, pi]:
    ``sin(m phi/2)`` then keeps its relative accuracy next to the zero at
    phi = +-2*pi (delta = +-2), where ``m * phi/2`` would otherwise round away
    the small remainder.  Where ``|sin(phi/2)| < 1e-8`` the ratio is its
    limit ``m cos(m phi/2)/cos(phi/2)``."""
    m = geom.num_antennas
    half = (0.5 * math.pi) * delta
    half -= np.pi * np.rint(half / np.pi)
    s = np.sin(half)
    amp = np.sin(m * half)
    near_zero = np.abs(s) < 1e-8
    if np.count_nonzero(near_zero):
        s, amp = np.asarray(s), np.asarray(amp)  # writable for a scalar delta too
        s[near_zero] = 1.0
        h = half[near_zero]
        amp[near_zero] = m * np.cos(m * h) / np.cos(h)
    amp /= s
    half *= m - 1
    return amp, half


def i_max(geom: ArrayGeometry, rho: float) -> float:
    """Largest attainable Fisher information, reached by the matched beam.

    Equals ``M*(M-1)^2 * pi^2 * rho / 2``.
    """
    m = geom.num_antennas
    return 0.5 * m * (m - 1) ** 2 * math.pi**2 * rho


def h_prime_norm_sq(geom: ArrayGeometry) -> float:
    """Squared norm of the channel-response derivative, direction independent."""
    m = geom.num_antennas
    idx_sq_sum = (m - 1) * m * (2 * m - 1) / 6.0
    return math.pi**2 * idx_sq_sum


def crlb_min(geom: ArrayGeometry, rho: float, n: int) -> float:
    """Lower bound on the direction MSE after ``n`` optimally probed pilots."""
    if n < 1:
        raise ValueError(f"slot count must be >= 1, got {n}")
    return 1.0 / (n * i_max(geom, rho))


def surrogate_f(geom: ArrayGeometry, v: float | np.ndarray, x: float) -> float | np.ndarray:
    """Mean drift of the recursive tracker probing ``v`` while the truth is
    ``x``: a float for a scalar ``v``, an array for an array of them.

    Equals ``-Im{a(v)^H a(x)} / sqrt(M)``; for a noiseless pilot taken with the
    conjugate beam at ``v`` the observation satisfies ``Im{y} = -f(v, x)``.
    """
    if np.ndim(x):
        raise ValueError(f"x must be one direction sine, got shape {np.shape(x)}")
    _check_direction(v)
    _check_direction(x)
    amp, phase = array_kernel_polar(geom, np.subtract(v, x))
    f = -(amp * np.sin(phase)) / math.sqrt(geom.num_antennas)
    return f if np.ndim(v) else float(f)


def stable_point_spacing(geom: ArrayGeometry) -> float:
    """Gap between adjacent attractors of the tracking drift, 2/(M-1)."""
    return 2.0 / (geom.num_antennas - 1)


def stable_points(geom: ArrayGeometry, x: float) -> np.ndarray:
    """The M-1 attractors of the recursion in (-1, 1]: ``x`` plus integer
    multiples of the stable-point spacing, each once.  Sorted ascending;
    ``x`` itself is the only attractor with full array gain; for x = -1 it
    is listed as its alias 1."""
    if np.ndim(x):
        raise ValueError(f"x must be one direction sine, got shape {np.shape(x)}")
    _check_direction(x)
    x = 1.0 if x == -1 else float(x)
    m = geom.num_antennas
    p, q = x.as_integer_ratio()
    k_lo = -((q + p) * (m - 1)) // (2 * q) + 1  # first k with x + 2k/(M-1) > -1, exactly
    pts = x + np.arange(k_lo, k_lo + m - 1) * stable_point_spacing(geom)
    # a point may round across +-1; a(v) is 2-periodic, so wrap it by 2
    pts[pts > 1.0] -= 2.0
    pts[pts <= -1.0] += 2.0
    return np.sort(pts)


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


def dft_codebook(geom: ArrayGeometry) -> np.ndarray:
    """Sweep beams, one conjugate beam per point of the M-point sine grid (one
    per row).  The M beams are orthonormal, so the codebook is unitary."""
    m = geom.num_antennas
    return steering_matrix(geom, sine_grid(m)) / math.sqrt(m)
