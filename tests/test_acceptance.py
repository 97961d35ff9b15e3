"""Acceptance gate: one test per benchmark criterion, each printing a
PASS/FAIL line with the measured value (run with ``pytest -v -s``).

The heavy Monte Carlo runs are shared across criteria through module-scoped
fixtures; every tolerance below is fixed, not tuned.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from beamtrack import (
    DEFAULT_BETA,
    ArrayGeometry,
    ChannelState,
    RunConfig,
    Trajectory,
    alpha_star,
    conjugate_beam,
    fisher_information,
    i_max,
    mainlobe_halfwidth,
    observe,
    run_experiment,
    stable_point_spacing,
    stable_points,
    steering_matrix,
    steering_vector,
    surrogate_f,
)
from beamtrack.scenarios import STREAM_TRAJECTORY, RngPlan, complex_normal, generate

G16 = ArrayGeometry(16)
CAPACITY_10DB = math.log2(1 + 10 * 16)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)


@pytest.fixture(scope="module")
def static_run():
    """Stage-1 initialized static benchmark (criteria 1 and 4)."""
    cfg = RunConfig(
        trajectory=Trajectory.static(1000),
        trials=10_000,
        algorithms=("recursive",),
        snr_db=10.0,
        seed=101,
        chunk_size=2500,
    )
    t0 = time.time()
    summary = run_experiment(cfg)["recursive"]
    return summary, time.time() - t0


@pytest.fixture(scope="module")
def uniform_init_run():
    """Static benchmark from a uniform start, no coarse sweep (criterion 2).

    The step coefficient is ``M * alpha*``.  The stable points
    ``x + k*lambda/((M-1)d)`` do not depend on the coefficient, but the time
    to settle onto one does: near an attractor of drift slope ``s`` the
    transient of the ``alpha/n`` recursion decays like ``n^(-alpha*s)``
    (Kushner & Yin, *Stochastic Approximation and Recursive Algorithms*,
    2003).  ``alpha*`` times the central slope is 1, and every sidelobe
    attractor has ``1/M`` of that slope, so at ``alpha*`` sidelobe-settled
    trials contract only like ``n^(-1/M)`` (the whole step budget over 1000
    slots is ``alpha* * H_1000 ~ 0.079``).  ``M * alpha*`` is the smallest
    coefficient at which every attractor contracts like ``1/n``.
    """
    cfg = RunConfig(
        trajectory=Trajectory.static(1000),
        trials=10_000,
        algorithms=("recursive",),
        snr_db=10.0,
        step_alpha=G16.num_antennas * alpha_star(G16),
        init="uniform",
        seed=102,
        chunk_size=2500,
    )
    return run_experiment(cfg)["recursive"]


@pytest.fixture(scope="module")
def lock_in_run():
    """Stage-1 with the large dictionary, then tracking (criterion 3)."""
    cfg = RunConfig(
        trajectory=Trajectory.static(1000),
        trials=10_000,
        algorithms=("recursive",),
        snr_db=10.0,
        sweep_dictionary_size=64,
        seed=103,
        chunk_size=2500,
    )
    return run_experiment(cfg)["recursive"]


@pytest.fixture(scope="module")
def dynamic_run():
    """Sinusoidal scenario, all four algorithms (criterion 5)."""
    cfg = RunConfig(
        trajectory=Trajectory.sinusoidal(1000),
        trials=300,
        algorithms=("recursive", "80211ad", "ls", "cs"),
        snr_db=10.0,
        seed=105,
        chunk_size=300,
    )
    return run_experiment(cfg)


def test_criterion_1_crlb_convergence(static_run):
    """The tracker converges to the CRLB level with high probability, so the
    band applies to the converged trials and the converged fraction must be
    high.  The unconditional mean is printed but not banded: any trial that
    does not converge keeps an O(1) channel error, so its share of
    ``n * E[MSE_h]`` grows like ``n`` however rare such trials are (here the
    endfire-aliased trials parked at the clip of the opposite end)."""
    summary, elapsed = static_run
    n = summary.slots[-1]
    x, x_hat = summary.final_x, summary.final_estimate
    conv = np.abs(x_hat - x) < 0.5 * mainlobe_halfwidth(G16)
    mse = abs(DEFAULT_BETA) ** 2 * np.sum(
        np.abs(steering_matrix(G16, x_hat) - steering_matrix(G16, x)) ** 2, axis=1
    )
    unconditional = n * summary.mean_mse_h[-1]
    value = n * float(mse[conv].mean())
    conv_count = int(np.count_nonzero(conv))
    frac = conv_count / summary.trials
    ok = 0.055 <= value <= 0.083 and frac >= 0.99 and elapsed < 120.0
    _report(
        1,
        "CRLB convergence of n*MSE_h",
        ok,
        f"n*MSE_h(n=1000) over converged trials = {value:.4f} (band "
        f"[0.055, 0.083], target 0.0689); converged {conv_count}/{summary.trials}"
        f" = {frac:.4f} (need >= 0.99); unconditional n*MSE_h = "
        f"{unconditional:.4f}; runtime {elapsed:.0f}s",
    )
    assert conv_count == summary.converged_trials
    assert elapsed < 120.0
    assert frac >= 0.99
    assert 0.055 <= value <= 0.083


def test_criterion_2_convergence_to_stable_set(uniform_init_run):
    s = uniform_init_run
    x = s.final_x
    xh = s.final_estimate
    spacing = stable_point_spacing(G16)
    nearest = np.full(x.shape, np.inf)
    base_k = np.round((xh - x) / spacing)
    for dk in (-1.0, 0.0, 1.0):
        v = x + (base_k + dk) * spacing
        valid = (v > -1.0) & (v <= 1.0)
        d = np.where(valid, np.abs(xh - v), np.inf)
        nearest = np.minimum(nearest, d)
    nearest = np.minimum(nearest, np.abs(xh - 1.0))
    nearest = np.minimum(nearest, np.abs(xh + 1.0))
    frac = float(np.mean(nearest < 1e-2))
    ok = frac >= 0.99
    q99 = float(np.quantile(nearest, 0.99))
    _report(
        2,
        "settling near stable points from uniform starts",
        ok,
        f"fraction within 1e-2 of stable set = {frac:.4f} (need >= 0.99); "
        f"99th percentile distance {q99:.4f}; step M*alpha* so that sidelobe "
        f"attractors contract like 1/n, not n^(-1/M)",
    )
    assert frac >= 0.99


def test_criterion_3_lock_in_probability(lock_in_run):
    s = lock_in_run
    hw = mainlobe_halfwidth(G16)
    frac = float(np.mean(np.abs(s.final_estimate - s.final_x) < hw))
    ok = frac >= 0.99
    _report(
        3,
        "mainlobe lock-in after large-dictionary initialization",
        ok,
        f"fraction of trials with final estimate in the mainlobe = {frac:.4f} "
        f"(need >= 0.99)",
    )
    assert frac >= 0.99


def test_criterion_4_normalized_variance(static_run):
    summary, _ = static_run
    ratio = summary.n_mse_times_imax[-1]
    conv = summary.converged_trials
    ok = 0.8 <= ratio <= 1.2 and conv >= 5000
    _report(
        4,
        "normalized error variance over converged trials",
        ok,
        f"n * MSE(x) * I_max = {ratio:.4f} at n=1000 (band [0.8, 1.2]) "
        f"over {conv:.0f} converged trials (need >= 5000)",
    )
    assert conv >= 5000
    assert 0.8 <= ratio <= 1.2


def test_criterion_5_capacity_tracking_and_ordering(dynamic_run):
    rates = {
        name: float(s.mean_rate[99:1000].mean()) for name, s in dynamic_run.items()
    }
    target = 7.3309
    rec = rates["recursive"]
    within = abs(rec - target) <= 0.01 * target
    others_below = all(rates[n] < rec for n in ("80211ad", "ls", "cs"))
    ad_above = rates["80211ad"] > rates["ls"] and rates["80211ad"] > rates["cs"]
    ok = within and others_below and ad_above
    _report(
        5,
        "sinusoidal capacity tracking and algorithm ordering",
        ok,
        "mean rate slots 100-1000: "
        + ", ".join(f"{k}={v:.4f}" for k, v in rates.items())
        + f"; recursive within 1% of {target} = {within}, ordering = "
        f"{others_below and ad_above}",
    )
    assert within
    assert others_below
    assert ad_above


@pytest.fixture(scope="module")
def speed_point_run():
    cfg = RunConfig(
        trajectory=Trajectory.fixed_velocity(3000, omega=0.064),
        trials=150,
        algorithms=("recursive",),
        snr_db=10.0,
        track_antennas=8,
        seed=106,
        chunk_size=150,
    )
    return run_experiment(cfg)["recursive"]


def test_criterion_6a_speed_point(speed_point_run):
    rate = speed_point_run.steady_mean_rate
    frac = rate / CAPACITY_10DB
    ok = frac >= 0.95
    # two closed-form limits at this point: the largest per-slot correction
    # of the fixed step alpha* on the 8-antenna tracker, and a genie that
    # points slot n's data beam exactly at x_{n-1} on the full array (the
    # harness's causal slot convention with no motion model), averaged over
    # the same steady slots (from 51 on) as steady_mean_rate
    g8 = G16.subset(8)
    drift = max(abs(surrogate_f(g8, v, 0.0)) for v in np.linspace(-1.0, 1.0, 20_001))
    ceiling = alpha_star(g8) * drift
    x = generate(
        Trajectory.fixed_velocity(3000, omega=0.064),
        RngPlan(106).stream(0, STREAM_TRAJECTORY),
    )
    a = steering_matrix(G16, x)
    inner = np.sum(np.conj(a[:-1]) * a[1:], axis=1)
    genie = float(np.log2(1 + 10 * np.abs(inner[50:]) ** 2 / 16).mean()) / CAPACITY_10DB
    _report(
        6,
        "95%-capacity point at 0.064 rad/slot with 8 tracking antennas",
        ok,
        f"mean rate {rate:.4f} = {frac:.3f} of capacity {CAPACITY_10DB:.4f} "
        f"(need >= 0.95); the fixed optimal step bounds the trackable "
        f"velocity by alpha*max|drift| = {ceiling:.4f} rad/slot for 8 "
        f"antennas, and a genie beam at x_(n-1) reaches only {genie:.3f} "
        f"of capacity at 0.064 rad/slot",
    )
    assert frac >= 0.95


def test_criterion_6b_low_snr_subset_comparison():
    grid = np.geomspace(1e-3, 0.3, 6)
    means = {}
    for m_track, seed in ((4, 107), (8, 108)):
        vals = []
        for omega in grid:
            cfg = RunConfig(
                trajectory=Trajectory.fixed_velocity(1500, omega=float(omega)),
                trials=60,
                algorithms=("recursive",),
                snr_db=0.0,
                track_antennas=m_track,
                seed=seed,
                chunk_size=60,
            )
            vals.append(run_experiment(cfg)["recursive"].steady_mean_rate)
        means[m_track] = float(np.mean(vals))
    ok = means[4] < means[8]
    _report(
        6,
        "subset comparison at 0 dB across the velocity grid",
        ok,
        f"grid-mean rate with 4 tracking antennas {means[4]:.4f} vs "
        f"8 antennas {means[8]:.4f} (4 must underperform 8)",
    )
    assert means[4] < means[8]


def test_criterion_7_analytic_suite():
    rho = 10.0
    chan = ChannelState(0.27, snr=rho)
    w = conjugate_beam(G16, 0.27)
    fisher_rel = abs(
        fisher_information(G16, chan, 0.27, w) - i_max(G16, rho)
    ) / i_max(G16, rho)

    # finite-difference information oracle at rho=10, M=8
    g8 = ArrayGeometry(8)
    x = 0.2
    chan8 = ChannelState(x, snr=rho)
    w8 = conjugate_beam(g8, x)
    rng = np.random.default_rng(70)
    y = observe(g8, chan8, w8, 0j) + complex_normal(rng, 100_000) / math.sqrt(rho)

    def neg_d2(step):
        sq = [
            np.mean(np.abs(y - np.sum(np.conj(w8) * steering_vector(g8, x + d))) ** 2)
            for d in (-step, 0.0, step)
        ]
        return rho * (sq[0] - 2 * sq[1] + sq[2]) / step**2

    fd = (4 * neg_d2(5e-5) - neg_d2(1e-4)) / 3
    fd_rel = abs(fd - fisher_information(g8, chan8, x, w8)) / fisher_information(
        g8, chan8, x, w8
    )

    rng = np.random.default_rng(71)
    worst_identity = 0.0
    for _ in range(1000):
        v, xx = rng.uniform(-1, 1, 2)
        yy = observe(G16, ChannelState(xx), conjugate_beam(G16, v), 0j)
        worst_identity = max(worst_identity, abs(np.imag(yy) + surrogate_f(G16, v, xx)))

    zero_ok = True
    for m in (4, 8, 16):
        geom = ArrayGeometry(m)
        for v in stable_points(geom, 0.31):
            eps = 1e-6
            lo, hi = max(v - eps, -1.0), min(v + eps, 1.0)
            slope = (surrogate_f(geom, hi, 0.31) - surrogate_f(geom, lo, 0.31)) / (
                hi - lo
            )
            zero_ok = zero_ok and abs(surrogate_f(geom, v, 0.31)) < 1e-9 and slope < 0

    ok = fisher_rel <= 1e-9 and fd_rel <= 0.01 and worst_identity < 1e-10 and zero_ok
    _report(
        7,
        "analytic unit suite",
        ok,
        f"matched-information rel err {fisher_rel:.2e} (<=1e-9); "
        f"finite-difference oracle rel err {fd_rel:.4f} (<=0.01); "
        f"noiseless Im(y)=-f worst gap {worst_identity:.2e}; "
        f"stable-point zero/slope checks {'pass' if zero_ok else 'fail'}",
    )
    assert fisher_rel <= 1e-9
    assert fd_rel <= 0.01
    assert worst_identity < 1e-10
    assert zero_ok


def test_criterion_8_cli_determinism(tmp_path):
    args = [
        sys.executable, "-m", "beamtrack.cli", "static",
        "--trials", "50", "--slots", "60", "--seed", "123",
        "--algorithms", "recursive,80211ad,ls,cs",
    ]
    outs = {}
    for label, jobs in (("a", "1"), ("b", "3"), ("c", "1")):
        d = tmp_path / label
        res = subprocess.run(
            args + ["--out", str(d), "--jobs", jobs], capture_output=True
        )
        assert res.returncode == 0, res.stderr
        outs[label] = d
    identical = True
    for name in ("recursive", "80211ad", "ls", "cs"):
        fa = (outs["a"] / f"static_{name}.csv").read_bytes()
        fb = (outs["b"] / f"static_{name}.csv").read_bytes()
        fc = (outs["c"] / f"static_{name}.csv").read_bytes()
        identical = identical and fa == fb == fc
    _report(
        8,
        "byte-identical outputs across reruns and worker counts",
        identical,
        "four algorithm CSVs compared across --jobs 1/3 and a rerun",
    )
    assert identical


def test_static_mse_monotonicity(static_run):
    summary, _ = static_run
    mse = summary.mean_mse_h
    for n in (32, 64, 128, 256, 500):
        assert mse[2 * n - 1] < mse[n - 1]
