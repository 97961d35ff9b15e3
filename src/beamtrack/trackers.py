"""Grids and beams shared by the trackers: the optimal step coefficient of
the recursive tracker, the uniform sine grid that the coarse sweep and
sparse recovery score, and the DFT sweep codebook.  The trackers themselves
are the batch classes in ``harness``."""

from __future__ import annotations

import math

import numpy as np

from .arraymodel import ArrayGeometry, steering_matrix

__all__ = [
    "alpha_star",
    "sine_grid",
    "codebook_directions",
    "dft_codebook",
]


def alpha_star(geom: ArrayGeometry) -> float:
    """Step-size coefficient giving the fastest asymptotic convergence,
    ``lambda / (sqrt(M) (M-1) pi d)``."""
    m = geom.num_antennas
    return 1.0 / (math.sqrt(m) * (m - 1) * math.pi * geom.spacing_over_wavelength)


def sine_grid(size: int) -> np.ndarray:
    """The ``size`` uniform sine-space points ``(2k - 1 - size)/size`` for
    k = 1..size, symmetric about zero and strictly inside (-1, 1)."""
    k = np.arange(1, size + 1)
    return (2 * k - 1 - size) / size


def codebook_directions(geom: ArrayGeometry) -> np.ndarray:
    """The M uniformly spaced sweep directions: the M-point sine grid."""
    return sine_grid(geom.num_antennas)


def dft_codebook(geom: ArrayGeometry) -> np.ndarray:
    """Sweep beams, one conjugate beam per codebook direction (one per row)."""
    return steering_matrix(geom, codebook_directions(geom)) / math.sqrt(
        geom.num_antennas
    )
