"""The benchmark's workloads and the CLI calls each one makes.

Every workload runs the defaults M=16, d/lambda=0.5, rho=10 dB and sweep
initialisation, one ``beamtrack`` call per algorithm with ``--jobs 1``.
The only input generated from the workload seed is the CLI's master
``--seed``, which fixes every trajectory, noise draw and probe of the run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

ALGORITHMS = ("recursive", "80211ad", "ls", "cs")

# BLAS thread settings of every benchmark process; numpy's OpenBLAS is
# multi-threaded by default.  Set them before numpy is imported.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Defaults the output check needs: the CLI runs with these.
NUM_ANTENNAS = 16
SPACING_OVER_WAVELENGTH = 0.5
SNR_DB = 10.0


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: tuple[str, ...]
    slots: int
    trials: dict  # algorithm -> trials, in call order


WORKLOADS = {
    w.name: w
    for w in (
        # the paper's convergence experiment: the per-slot engine (kernel,
        # LS Gram solve, cumulative CS matched filter) does the work
        Workload(
            "static",
            ("static",),
            1000,
            {"recursive": 250, "80211ad": 250, "ls": 100, "cs": 10},
        ),
        # sinusoidal tracking with a fixed step: windowed CS, per-frame LS,
        # jittered trajectories and the trace CSVs; cs runs enough trials
        # that its (T, 1024) ring buffers are a clear share of peak RSS
        Workload(
            "dynamic",
            ("dynamic", "--trajectory", "sinusoidal"),
            1000,
            {"recursive": 400, "80211ad": 400, "ls": 250, "cs": 96},
        ),
        # 10-slot horizons: per-trial set-up (substreams, noise, warm-up sweep)
        # dominates and the kernel is mostly bypassed; cs runs too so that
        # every workload reports every throughput
        Workload(
            "many-short",
            ("static",),
            10,
            {"recursive": 10000, "80211ad": 10000, "ls": 10000, "cs": 1000},
        ),
    )
}


@dataclass(frozen=True)
class Call:
    algorithm: str
    argv: tuple[str, ...]  # everything but --out
    trials: int
    slots: int

    @property
    def trial_slots(self) -> int:
        return self.trials * self.slots


def cli_seed(seed: int) -> int:
    """The CLI master seed derived from the workload seed (stable across
    Python versions and platforms)."""
    digest = hashlib.sha256(f"beamtrack-bench:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def calls(workload: Workload, seed: int) -> list[Call]:
    """One CLI call per algorithm of the workload, in run order."""
    out = []
    for alg, trials in workload.trials.items():
        argv = (
            *workload.subcommand,
            "--algorithms", alg,
            "--trials", str(trials),
            "--slots", str(workload.slots),
            "--seed", str(cli_seed(seed)),
            "--jobs", "1",
        )
        out.append(Call(alg, argv, trials, workload.slots))
    return out


def warmup_calls(workload: Workload, seed: int) -> list[Call]:
    """Small untimed calls through the same code paths, run first in each
    fresh process so lazy imports and first-touch costs stay out of timing."""
    out = []
    for call in calls(workload, seed):
        trials = max(1, call.trials // 10)
        slots = min(call.slots, 50)
        argv = list(call.argv)
        argv[argv.index("--trials") + 1] = str(trials)
        argv[argv.index("--slots") + 1] = str(slots)
        out.append(Call(call.algorithm, tuple(argv), trials, slots))
    return out
