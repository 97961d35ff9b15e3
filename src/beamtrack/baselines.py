"""Reference trackers benchmarked against the recursive algorithm:
codebook sweep-and-refine (IEEE 802.11ad style), least-squares channel
estimation with phase-only beamforming, and sparse (compressed-sensing)
direction recovery from random probes."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .arraymodel import ArrayGeometry, steering_matrix
from .trackers import SweepDictionary

__all__ = [
    "Ad11State",
    "ad11_probe_index",
    "ad11_step",
    "ls_estimate",
    "ls_data_beam",
    "cs_estimate",
    "CS_DICTIONARY_SIZE",
    "QPSK",
]

CS_DICTIONARY_SIZE = 1024
QPSK = np.array([1.0 + 0j, 1j, -1.0 + 0j, -1j])  # random-probe phase alphabet


# ---------------------------------------------------------------------------
# codebook sweep-and-refine


@dataclass(frozen=True)
class Ad11State:
    """Sweep-and-refine tracker state.

    During 'sweeping' every codebook beam is probed once and the strongest
    becomes the best beam.  During 'tracking', back-to-back three-slot
    refinement rounds probe the best beam and its two nearest distinct
    neighbours (one probe per slot) and the strongest of the three becomes
    the new best beam.
    """

    num_beams: int
    best_index: int = 0
    phase: str = "sweeping"
    probe_cursor: int = 0
    probe_buffer: tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.num_beams < 3:
            raise ValueError("need at least 3 codebook beams")
        if not 0 <= self.best_index < self.num_beams:
            raise ValueError("best beam index out of range")

    @property
    def candidates(self) -> tuple[int, int, int]:
        base = min(max(self.best_index, 1), self.num_beams - 2)
        return (base - 1, base, base + 1)


def ad11_probe_index(state: Ad11State) -> int:
    """Codebook index to probe in the upcoming slot."""
    if state.phase == "sweeping":
        return state.probe_cursor
    return state.candidates[state.probe_cursor]


def ad11_step(
    state: Ad11State, y: complex, codebook: np.ndarray
) -> tuple[Ad11State, np.ndarray]:
    """Consume the slot's pilot (taken with beam ``ad11_probe_index(state)``)
    and return the new state plus the data beam for the next slot."""
    mag = float(abs(y))
    if state.phase == "sweeping":
        buf = state.probe_buffer + (mag,)
        if len(buf) == state.num_beams:
            state = replace(
                state,
                best_index=int(np.argmax(buf)),
                phase="tracking",
                probe_cursor=0,
                probe_buffer=(),
            )
        else:
            state = replace(state, probe_cursor=state.probe_cursor + 1, probe_buffer=buf)
        return state, codebook[state.best_index]

    buf = state.probe_buffer + (mag,)
    best = state.best_index
    if len(buf) == 3:
        best = state.candidates[int(np.argmax(buf))]
        buf = ()
    cursor = (state.probe_cursor + 1) % 3
    state = replace(state, best_index=best, probe_cursor=cursor, probe_buffer=buf)
    return state, codebook[state.best_index]


# ---------------------------------------------------------------------------
# least-squares channel estimation


def ls_estimate(weights, observations) -> np.ndarray:
    """Least-squares channel estimate from pilots ``y_i = w_i^H h + noise``.

    Raises if the probing weights do not span the channel space (singular
    system).
    """
    a = np.conj(np.asarray(weights, dtype=complex))
    y = np.asarray(observations, dtype=complex)
    if a.ndim != 2 or a.shape[0] != y.shape[0]:
        raise ValueError("weights/observations shape mismatch")
    if np.linalg.matrix_rank(a) < a.shape[1]:
        raise np.linalg.LinAlgError("probing weights form a singular system")
    h_hat, *_ = np.linalg.lstsq(a, y, rcond=None)
    return h_hat


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


# ---------------------------------------------------------------------------
# compressed-sensing direction recovery


def cs_estimate(
    geom: ArrayGeometry,
    weights,
    observations,
    dictionary_size: int = CS_DICTIONARY_SIZE,
) -> float:
    """Single-path sparse recovery: normalized matched-filter argmax over the
    sine dictionary (the first iteration of orthogonal matching pursuit, which
    is the whole pursuit at sparsity one).  Ties break toward the smallest
    grid point."""
    w = np.asarray(weights, dtype=complex)
    y = np.asarray(observations, dtype=complex)
    if w.ndim != 2 or w.shape[0] == 0:
        raise ValueError("need at least one pilot in the window")
    grid = SweepDictionary(dictionary_size).points
    atoms = np.conj(w) @ steering_matrix(geom, grid).T  # (pilots, grid) w^H a(g)
    numer = np.abs(np.conj(atoms).T @ y)
    denom = np.linalg.norm(atoms, axis=0)
    scores = np.where(denom > 0, numer / np.where(denom > 0, denom, 1.0), 0.0)
    return float(grid[int(np.argmax(scores))])
