"""A fixed reference loop that measures how fast the host runs right now.

On a shared host the speed of the CPU drifts by up to about 1.7x over tens of
seconds, and every CPU-bound program slows down with it (wall time stays
equal to CPU time, so it is not time taken by other guests).  The benchmark
times this loop between every two timed calls and scales each call's time to
the speed at which the loop takes ``REFERENCE_S``:

    scaled_seconds = seconds * REFERENCE_S / loop_seconds

The loop does the two kinds of work beamtrack does per slot but none of
beamtrack's code: complex exponentials and products on small numpy arrays
driven from Python, plus generator substreams, which slow down with the CPU;
and a matched filter over a (128, 1024) grid, which does not fit the
nearest caches and slows down less.  The grid's 3 MB are allocated once, at
import, so the loop adds the same 3 MB to every process's peak RSS and
leaves numpy's heap as it was.  A change to beamtrack moves only the timed
call, so the scaled times show it in full.
"""

import time

import numpy as np

# About the loop's time on the host the benchmark was tuned on (2 vCPUs of
# an Intel Xeon, Python 3.11, numpy 2.4, one BLAS thread); a fixed scale.
REFERENCE_S = 0.060
REPS = 150
GRID_REPS = 44

_X = np.random.default_rng(12345).standard_normal((250, 16))
_W = np.exp(1j * np.pi * np.arange(16) * 0.5)
_A = np.exp(1j * np.random.default_rng(54321).uniform(0, 2 * np.pi, (128, 16)))
_B = np.exp(1j * np.pi * np.outer(np.arange(16), np.linspace(-1, 1, 1024)))
_GRID = np.zeros((_A.shape[0], _B.shape[1]), dtype=complex)
_POWER = np.zeros(_GRID.shape)


def _loop() -> float:
    x = _X.copy()
    acc = 0.0
    for k in range(REPS):
        y = np.exp(1j * (x * 0.3 + 0.01 * k)) @ _W
        p = np.abs(y) ** 2
        x[:, 0] += 1e-3 * p / (1.0 + p.max())
        rng = np.random.default_rng(np.random.SeedSequence([k, 7]))
        acc += float(p.mean()) + float(rng.standard_normal(16).sum())
    for _ in range(GRID_REPS):
        np.matmul(_A, _B, out=_GRID)
        np.abs(_GRID, out=_POWER)
        acc += float(_POWER.argmax(axis=1).sum())
    return acc


def loop_seconds() -> float:
    start = time.perf_counter()
    _loop()
    return time.perf_counter() - start


def scale(seconds: float, loop_s: float) -> float:
    """``seconds`` measured while the loop took ``loop_s``, at reference speed."""
    return seconds * REFERENCE_S / loop_s
