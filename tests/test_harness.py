import concurrent.futures
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import reference as ref
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beamtrack import (
    ArrayGeometry,
    RunConfig,
    alpha_star,
    channel_mse_limit,
    dft_codebook,
    h_prime_norm_sq,
    i_max,
    initialization_hit_rate,
    mainlobe_halfwidth,
    run_experiment,
    run_single_trial,
    sine_grid,
    steering_matrix,
    surrogate_f,
)
from beamtrack import cli, harness
from beamtrack.harness import (
    ALGORITHMS,
    CS_DICTIONARY_SIZE,
    QPSK,
    _cs_lag_atoms,
    _cs_sums,
    _cs_window_score,
    _Recursive,
    _sweep_estimate,
    ls_data_beam,
)
from beamtrack.scenarios import STREAM_INIT, TRAJECTORIES

G16 = ArrayGeometry(16)
G8 = ArrayGeometry(8)
NOISELESS_DB = 300.0  # pilot noise of order 1e-15


class TestMetrics:
    """The scalar metrics of the reference replays, against closed forms."""

    def test_mse_zero_at_truth(self):
        assert ref.mse_h(G16, 0.3, 0.3) == 0.0

    def test_mse_upper_bound(self):
        # exact supremum of ||a(v) - a(x)||^2 computed by grid search; it sits
        # a little above the 2M level because the steering inner product's
        # real part dips negative on far sidelobes
        u = np.linspace(-2, 2, 400_001)
        kernel = np.exp(1j * np.pi * np.outer(u, np.arange(16))).sum(axis=1)
        sup = (32 - 2 * kernel.real).max()
        assert sup == pytest.approx(2 * 16, rel=0.2)
        rng = np.random.default_rng(0)
        for _ in range(200):
            xh, x = rng.uniform(-1, 1, 2)
            assert ref.mse_h(G16, xh, x) <= sup + 1e-9

    def test_mse_matches_inner_product_form(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            xh, x = rng.uniform(-1, 1, 2)
            ip = np.vdot(ref.steering_vector(G16, xh), ref.steering_vector(G16, x))
            expected = 32 - 2 * ip.real
            assert ref.mse_h(G16, xh, x) == pytest.approx(expected, rel=1e-12)

    def test_rate_matched(self):
        w = ref.conjugate_beam(G16, 0.4)
        assert ref.achievable_rate(G16, w, 0.4, 10.0) == pytest.approx(math.log2(161))
        assert ref.achievable_rate(G16, w, 0.4, 10.0) == pytest.approx(7.3309, rel=1e-4)

    def test_rate_zero_db(self):
        w = ref.conjugate_beam(G16, -0.2)
        assert ref.achievable_rate(G16, w, -0.2, 1.0) == pytest.approx(math.log2(17))

    def test_rate_orthogonal_beam(self):
        g2 = ArrayGeometry(2)
        assert ref.achievable_rate(g2, ref.conjugate_beam(g2, 1.0), 0.0, 10.0) == pytest.approx(
            0.0, abs=1e-12
        )


class TestCsWindowScore:
    @given(m=st.integers(2, 32), data=st.data())
    def test_sufficient_statistics_match_direct_sums(self, m, data):
        k = data.draw(st.integers(1, m), label="window")
        picks = np.frombuffer(data.draw(st.binary(min_size=k * m, max_size=k * m)), np.uint8)
        pilot = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)
        y = np.array(data.draw(st.lists(pilot, min_size=k, max_size=k)), dtype=complex)
        w = QPSK[(picks % 4).reshape(k, m)] / math.sqrt(m)
        atoms = steering_matrix(ArrayGeometry(m), sine_grid(CS_DICTIONARY_SIZE))
        atoms_conj_t = np.conj(atoms).T
        r = y @ w
        c = np.array([np.sum(w[:, : m - lag] * np.conj(w[:, lag:])) for lag in range(m)])
        # both modes add each pilot's one-probe sums to their running r and c
        slots = [_cs_sums(y[n : n + 1], w[n : n + 1]) for n in range(k)]
        running = [sum(stats[j] for stats in slots) for j in (0, 1)]
        atol = 1e-14 * k * max(1.0, np.abs(y).max(initial=0.0))
        for got, direct in zip(running, (r, c)):
            np.testing.assert_allclose(got[0], direct, rtol=1e-12, atol=atol)
        scratch = (np.empty((1, len(atoms)), dtype=complex), np.empty((1, len(atoms))),
                   np.empty((1, len(atoms))))
        numer, denom = _cs_window_score(
            r[None], c[None], atoms_conj_t, _cs_lag_atoms(atoms), scratch
        )
        filt = w @ atoms_conj_t  # (k, grid): w_n^T conj(a(g))
        # every term is at most sqrt(m) (|y| sqrt(m) for the numerator), and
        # the two orders round each of the k m products differently
        scale = 1e-14 * k * m * max(1.0, np.abs(y).max(initial=0.0))
        np.testing.assert_allclose(numer[0], np.abs(y @ filt), rtol=1e-12, atol=scale)
        np.testing.assert_allclose(
            denom[0], (np.abs(filt) ** 2).sum(axis=0), rtol=1e-12, atol=1e-14 * k * m
        )


def _recursive_trace(trial=0, **kw):
    cfg = RunConfig(trials=trial + 1, algorithms=("recursive",), **kw)
    return run_single_trial(cfg, "recursive", trial=trial)


def _noiseless_moves(kind, track, step, trials=8, slots=30, **kw):
    """Checks that every slot after the first of ``trials`` noiseless
    uniform-start runs is the update
    ``x_n = clip(x_(n-1) + step(n) f(x_(n-1), x_n), -1, 1)`` on the tracking
    subarray; returns how many slots moved the estimate by more than 1e-6."""
    moved = 0
    for trial in range(trials):
        trace = _recursive_trace(
            trial, trajectory=kind, slots=slots, init="uniform", snr_db=NOISELESS_DB, **kw
        )
        for n in range(2, slots + 1):
            v, x = trace.x_hat[n - 2], trace.x[n - 1]
            expected = min(max(v + step(n) * surrogate_f(track, v, x), -1.0), 1.0)
            assert trace.x_hat[n - 1] == pytest.approx(expected, abs=1e-12)
            moved += abs(expected - v) > 1e-6
    return moved


class TestRecursiveStepSize:
    """The recursive tracker's step: alpha/n in static runs, alpha in moving
    ones, with alpha defaulting to alpha_star of the tracking subarray."""

    def test_diminishing_values(self):
        alpha = alpha_star(G8)
        moved = _noiseless_moves("static", G8, lambda n: alpha / n, track_antennas=8, seed=3)
        assert moved >= 20

    def test_fixed_values(self):
        alpha = alpha_star(G8)
        moved = _noiseless_moves("sinusoidal", G8, lambda n: alpha, track_antennas=8, seed=4)
        assert moved >= 20

    def test_validation(self):
        for alpha in (0.0, -0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="step_alpha must be positive and finite"):
                RunConfig(slots=5, step_alpha=alpha)


class TestRecursiveStep:
    """The engine's recursive update, against the drift ``f`` in closed form."""

    def test_noiseless_fixed_point(self):
        # zero angular velocity holds x = 0; the truth is a fixed point, and
        # at alpha_star the noiseless recursion reaches it within a few slots
        trace = _recursive_trace(
            trajectory="fixed-velocity", slots=40, omega=0.0, snr_db=NOISELESS_DB
        )
        assert np.all(trace.x == 0.0)
        assert abs(trace.x_hat[0]) > 1e-6
        assert np.all(np.abs(trace.x_hat[10:]) < 1e-12)

    def test_clipping(self):
        trace = _recursive_trace(trajectory="sinusoidal", slots=200, step_alpha=5.0, snr_db=0.0)
        assert np.any(np.abs(trace.x_hat) == 1.0)  # steps past the edge stop at it

    def test_noiseless_step_equals_drift(self):
        alpha = 0.3 * alpha_star(G16)
        for kind, step in (("static", lambda n: alpha / n), ("sinusoidal", lambda n: alpha)):
            moved = _noiseless_moves(kind, G16, step, slots=50, step_alpha=alpha, seed=9)
            assert moved >= 20, kind

    def test_estimate_always_in_range(self):
        for trial in range(20):
            trace = _recursive_trace(
                trial, trajectory="sinusoidal", slots=100, track_antennas=8, step_alpha=5.0,
                snr_db=0.0, seed=1,
            )
            assert np.all(np.abs(trace.x_hat) <= 1.0)


def _noiseless_sweep_pilots(geom, x):
    beams = dft_codebook(geom)
    return beams.conj() @ ref.steering_vector(geom, x)


class TestCoarseSweep:
    """The engine's coarse sweep, one trial per pilot row."""

    def test_exact_on_dictionary_point(self):
        for x in sine_grid(32)[2:30:5]:
            pilots = _noiseless_sweep_pilots(G16, x)
            assert _sweep_estimate(G16, 32, pilots[None])[0] == pytest.approx(x)

    def test_noiseless_resolution(self):
        # interior directions resolve to within one dictionary step
        xs = np.random.default_rng(2).uniform(-0.9, 0.9, 25)
        pilots = np.stack([_noiseless_sweep_pilots(G16, x) for x in xs])
        assert np.all(np.abs(_sweep_estimate(G16, 64, pilots) - xs) <= 1 / 64 + 1e-12)

    def test_hit_rate_high_snr(self):
        # strict mainlobe membership; near +-1 the half-wavelength array
        # cannot distinguish a direction from its wrap-around image, which
        # caps the strict rate just below the dictionary-limited one
        cfg = RunConfig(
            slots=1, snr_db=10.0, sweep_dictionary_size=64,
            trials=10_000, seed=0,
        )
        assert initialization_hit_rate(cfg) >= 0.995

    def test_hit_rate_independent_of_chunk_size(self):
        # every trial draws from its own substreams; at 0 dB and a 16-point
        # dictionary 2.8% of these sweeps miss the mainlobe
        rates = {
            initialization_hit_rate(
                RunConfig(
                    slots=1, snr_db=0.0, sweep_dictionary_size=16,
                    trials=2_000, seed=3, chunk_size=chunk,
                )
            )
            for chunk in (1, 7, 4096)
        }
        assert len(rates) == 1
        assert 0.5 < rates.pop() < 1.0


def _check_direction_trace(cfg, trace, xs, estimates, atol=0.0):
    """The engine's trace against a replay's truth and estimates (index 0:
    the warm-up estimate): the estimate after every slot, the rate of the
    estimate before it and the channel MSE of the estimate after it."""
    rates, mses = ref.direction_metrics(cfg, xs, estimates)
    np.testing.assert_allclose(trace.x_hat, estimates[1:], rtol=0, atol=atol)
    # a rate near zero (a beam on a null) keeps only absolute accuracy
    np.testing.assert_allclose(trace.rate, rates, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(trace.mse_h, mses, rtol=1e-9, atol=1e-12)


def _check_recursive(cfg, trial=0):
    trace = run_single_trial(cfg, "recursive", trial=trial)
    xs, estimates = ref.recursive(cfg, trial)
    _check_direction_trace(cfg, trace, xs, estimates, atol=1e-12)


def _check_sweep_refine(cfg):
    trace = run_single_trial(cfg, "80211ad")
    xs, estimates = ref.sweep_refine(cfg, 0)
    _check_direction_trace(cfg, trace, xs, estimates)
    return estimates


def _check_cs(cfg):
    """Every new engine estimate must be a largest reference score up to
    rounding: a tie (one static pilot scores every grid point alike; two
    probes can score two points alike) is broken either way."""
    trace = run_single_trial(cfg, "cs")
    xs, scores = ref.compressed_sensing(cfg, 0)
    estimates = [ref.CS_GRID[np.argmax(scores[0])]]
    for got, score in zip(trace.x_hat, scores[1:]):
        if score is None:
            assert got == estimates[-1]
        else:
            (k,) = np.flatnonzero(ref.CS_GRID == got)
            assert score[k] >= score.max() * (1.0 - 1e-12)
        estimates.append(got)
    _check_direction_trace(cfg, trace, xs, estimates)
    return estimates


_KINDS = st.sampled_from(TRAJECTORIES)


class TestEngineAgainstScalarReplay:
    """The vectorized runner must reproduce the scalar replays of
    ``tests/reference.py``, noise draw for noise draw."""

    @pytest.mark.parametrize("init", ["sweep", "uniform"])
    @pytest.mark.parametrize("trial", [0, 5])
    def test_recursive_static_trace(self, trial, init):
        cfg = RunConfig(
            slots=40,
            trials=trial + 1,
            algorithms=("recursive",),
            init=init,
            seed=77,
        )
        _check_recursive(cfg, trial)

    def test_recursive_subarray_trace(self):
        # 8 tracking antennas probe on their own; rate and MSE use all 16
        cfg = RunConfig(
            trajectory="sinusoidal", slots=60,
            trials=1,
            algorithms=("recursive",),
            track_antennas=8,
            seed=78,
        )
        _check_recursive(cfg)

    @settings(max_examples=100)
    @given(
        m=st.integers(2, 16),
        data=st.data(),
        kind=_KINDS,
        omega=st.floats(0.0, 0.1),
        init=st.sampled_from(["sweep", "uniform"]),
        slots=st.integers(1, 40),
        seed=st.integers(0, 2**40),
    )
    def test_recursive_matches_scalar_replay(self, m, data, kind, omega, init, slots, seed):
        track = data.draw(st.integers(2, m), label="track_antennas")
        cfg = RunConfig(
            trajectory=kind, slots=slots, omega=omega, num_antennas=m, trials=1,
            algorithms=("recursive",), track_antennas=track, init=init, seed=seed,
        )
        _check_recursive(cfg)

    def test_80211ad_dynamic_trace(self):
        cfg = RunConfig(
            trajectory="sinusoidal", slots=90,
            trials=1,
            algorithms=("80211ad",),
            seed=41,
        )
        estimates = _check_sweep_refine(cfg)
        assert len(set(estimates[1:])) > 1  # the refinement rounds did move the beam

    @settings(max_examples=100)
    @given(
        m=st.integers(3, 16),
        data=st.data(),
        kind=_KINDS,
        omega=st.floats(0.0, 0.1),
        slots=st.integers(1, 40),
        seed=st.integers(0, 2**40),
    )
    def test_80211ad_matches_scalar_replay(self, m, data, kind, omega, slots, seed):
        # three distinct candidate beams need at least 3 tracking antennas
        track = data.draw(st.integers(3, m), label="track_antennas")
        cfg = RunConfig(
            trajectory=kind, slots=slots, omega=omega, num_antennas=m, trials=1,
            algorithms=("80211ad",), track_antennas=track, seed=seed,
        )
        _check_sweep_refine(cfg)

    def test_cs_static_trace(self):
        # static: re-estimate every slot from all pilots received so far
        cfg = RunConfig(
            slots=40,
            trials=1,
            algorithms=("cs",),
            seed=43,
        )
        _check_cs(cfg)

    def test_cs_sinusoidal_trace(self):
        # dynamic: once per 16-slot codebook frame, from the frame's last
        # 8 pilots; the estimate is held in between
        cfg = RunConfig(
            trajectory="sinusoidal", slots=80,
            trials=1,
            algorithms=("cs",),
            seed=44,
        )
        assert len(set(_check_cs(cfg))) > 2  # refreshes moved the estimate

    @pytest.mark.parametrize(
        "track_antennas, slots, seed",
        # 60 and 83 slots end inside a frame, whose window is never scored
        [(8, 60, 45), (5, 83, 46)],
    )
    def test_cs_sinusoidal_subarray_trace(self, track_antennas, slots, seed):
        # frames of m_t slots, each scored from its last m_t // 2 pilots on
        # the subarray; rate and MSE use all 16 antennas
        cfg = RunConfig(
            trajectory="sinusoidal", slots=slots,
            trials=1,
            algorithms=("cs",),
            track_antennas=track_antennas,
            seed=seed,
        )
        assert len(set(_check_cs(cfg))) > 2  # refreshes moved the estimate

    @settings(max_examples=60)
    @given(
        m=st.integers(6, 16),
        data=st.data(),
        kind=_KINDS,
        omega=st.floats(0.0, 0.1),
        slots=st.integers(1, 40),
        seed=st.integers(0, 2**40),
    )
    def test_cs_matches_scalar_replay(self, m, data, kind, omega, slots, seed):
        # dynamic windows of at least 3 probes: 6 or more tracking antennas
        track = data.draw(st.integers(6, m), label="track_antennas")
        cfg = RunConfig(
            trajectory=kind, slots=slots, omega=omega, num_antennas=m, trials=1,
            algorithms=("cs",), track_antennas=track, seed=seed,
        )
        _check_cs(cfg)

    def test_single_trial_matches_batched_run(self):
        cfg = RunConfig(
            trajectory="sinusoidal", slots=30,
            trials=5,
            algorithms=("recursive",),
            seed=5,
            chunk_size=5,
        )
        solo = run_single_trial(cfg, "recursive", trial=0)
        batched = run_experiment(cfg)["recursive"].trace
        np.testing.assert_array_equal(solo.x_hat, batched.x_hat)
        np.testing.assert_array_equal(solo.rate, batched.rate)

    @pytest.mark.parametrize("trajectory", ["static", "sinusoidal"])
    def test_single_trial_of_each_baseline_matches_batched_run(self, trajectory):
        # 80211ad bit for bit; ls to rounding, as its (sums / counts) @ beams
        # rounds by the batch size
        cfg = RunConfig(
            trajectory=trajectory, slots=200, trials=37, algorithms=("80211ad", "ls"), seed=5
        )
        batched = run_experiment(cfg)
        assert _bits(run_single_trial(cfg, "80211ad")) == _bits(batched["80211ad"].trace)
        solo = run_single_trial(cfg, "ls")
        for name in ("x", "x_hat", "mse_h", "rate"):
            np.testing.assert_allclose(
                getattr(solo, name), getattr(batched["ls"].trace, name), rtol=1e-13, atol=0
            )


_SUMMARY_ARRAYS = (
    "mean_mse_h", "n_mse_times_imax", "mean_rate", "conv_frac", "final_x", "final_estimate"
)


def _small_config(kind, algorithms, m, track, slots, omega, trials, seed) -> dict:
    """Settings of a small run whose array and tracking subarray every one of
    ``algorithms`` accepts: ``ls`` needs the full array and ``80211ad`` 3
    tracking antennas.  Dynamic ``cs`` gets at least 6, as on 5 or fewer its
    one- or two-probe windows tie, and rounding breaks the tie."""
    low = 6 if "cs" in algorithms and kind != "static" else 3 if "80211ad" in algorithms else 2
    m = max(m, low)
    track = None if track is None or "ls" in algorithms else min(max(track, low), m)
    return dict(
        trajectory=kind, slots=slots, omega=omega, num_antennas=m, track_antennas=track,
        algorithms=algorithms, trials=trials, seed=seed,
    )


def _bits(value):
    """The exact bits of ``value``, field by field for a dataclass, so that
    NaN matches NaN."""
    if dataclasses.is_dataclass(value):
        return [_bits(getattr(value, f.name)) for f in dataclasses.fields(value)]
    value = np.asarray(value)
    return value.dtype.str, value.shape, value.tobytes()


class TestDeterminism:
    def test_identical_runs_identical_csv(self):
        # every array the summary CSVs are written from, and the rest of each
        # summary, bit for bit
        cfg = RunConfig(
            trajectory="sinusoidal", slots=25,
            trials=12,
            algorithms=("recursive", "80211ad", "ls", "cs"),
            seed=9,
            chunk_size=5,
        )
        first, again = run_experiment(cfg), run_experiment(cfg)
        for name in cfg.algorithms:
            assert _bits(first[name]) == _bits(again[name])

    @settings(max_examples=12)
    @given(
        kind=_KINDS,
        algorithms=st.lists(st.sampled_from(ALGORITHMS), min_size=1, max_size=2, unique=True),
        m=st.integers(3, 16),
        track=st.none() | st.integers(2, 16),
        slots=st.integers(1, 30),
        omega=st.floats(0.0, 0.1),
        trials=st.integers(5, 14),
        chunk=st.integers(1, 4),
        seed=st.integers(0, 2**40),
        init=st.sampled_from(["sweep", "uniform"]),
    )
    @example(kind="static", algorithms=["recursive", "cs"], m=16, track=None, slots=20,
             omega=0.0, trials=14, chunk=4, seed=3, init="sweep")
    @example(kind="static", algorithms=["recursive"], m=16, track=8, slots=5,
             omega=0.0, trials=14, chunk=3, seed=5, init="uniform")
    def test_worker_count_invariance(self, kind, algorithms, m, track, slots, omega,
                                     trials, chunk, seed, init):
        # two or more chunks, so that two workers share them; every trial
        # draws from its own substreams and chunks reduce in a fixed order
        base = _small_config(kind, tuple(algorithms), m, track, slots, omega, trials, seed)
        one, two = (
            run_experiment(RunConfig(**base, init=init, chunk_size=chunk, jobs=jobs))
            for jobs in (1, 2)
        )
        for name in algorithms:
            for field in _SUMMARY_ARRAYS:
                assert getattr(one[name], field).tobytes() == getattr(two[name], field).tobytes()

    @pytest.mark.parametrize("init", ["uniform"])
    def test_one_draw_inits_across_chunks(self, init):
        # the recursive tracker's initial estimate in chunks of trials
        # 500..1099 is each trial's own first draw, uniform on [-1, 1]
        cfg = RunConfig(trials=1100, algorithms=("recursive",), track_antennas=8,
                        init=init, seed=2024)
        edges = (500, 501, 737, 1024, 1100)
        got = []
        for lo, hi in zip(edges, edges[1:]):
            got.append(_Recursive(cfg, range(lo, hi), None, None).direction)
        expected = [ref.stream(cfg.seed, trial, STREAM_INIT).uniform(-1.0, 1.0)
                    for trial in range(500, 1100)]
        np.testing.assert_array_equal(
            np.concatenate(got).view(np.uint64), np.array(expected).view(np.uint64)
        )

    @pytest.mark.parametrize(
        "jobs, trials, chunk, cpus, workers",
        [
            (64, 1000, 512, 8, 2),  # two chunks
            (64, 5, 2, 2, 2),  # two CPUs
            (3, 10, 2, 8, 3),  # the jobs asked for
            (4, 4, 4, 8, None),  # one chunk
            (4, 10, 2, 1, None),  # one CPU
            (4, 10, 2, None, None),  # an unknown CPU count counts as one
            (1, 10, 2, 8, None),
        ],
    )
    def test_pool_sized_to_the_work(self, monkeypatch, jobs, trials, chunk, cpus, workers):
        # a pool of min(jobs, chunks, CPUs) workers, and none below two; the
        # stand-in pool runs each chunk inline, so no process starts
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        cfg = RunConfig(slots=2, trials=trials, chunk_size=chunk, jobs=jobs,
                        algorithms=("recursive",), seed=3)
        pooled = run_experiment(cfg)["recursive"]
        assert sizes == ([] if workers is None else [workers])
        alone = run_experiment(dataclasses.replace(cfg, jobs=1))["recursive"]
        assert _bits(pooled) == _bits(alone)

    # static cs is left out: its slot-1 estimate is a tie (one random probe
    # scores every grid point |y_1|) that the batch size's rounding breaks
    @pytest.mark.parametrize(
        "algorithm, trajectory",
        [
            (alg, kind)
            for alg in ALGORITHMS
            for kind in TRAJECTORIES
            if (alg, kind) != ("cs", "static")
        ],
    )
    @settings(max_examples=10)
    @given(
        m=st.integers(3, 16),
        track=st.none() | st.integers(2, 16),
        slots=st.integers(1, 40),
        omega=st.floats(0.0, 0.1),
        trials=st.integers(2, 12),
        chunk=st.integers(1, 6),
        seed=st.integers(0, 2**40),
    )
    @example(m=16, track=None, slots=40, omega=0.0, trials=10, chunk=3, seed=13)
    def test_chunking_only_reorders_rounding(self, algorithm, trajectory, m, track, slots,
                                             omega, trials, chunk, seed):
        base = _small_config(trajectory, (algorithm,), m, track, slots, omega, trials, seed)
        s1 = run_experiment(RunConfig(**base, chunk_size=trials))[algorithm]
        s2 = run_experiment(RunConfig(**base, chunk_size=chunk))[algorithm]
        np.testing.assert_allclose(s1.mean_mse_h, s2.mean_mse_h, rtol=1e-12)
        np.testing.assert_allclose(s1.mean_rate, s2.mean_rate, rtol=1e-12)


class TestKernelCalls:
    """Kernel values per run, counted through ``harness._inner``, the name the
    engine calls the kernel by: ``np.size(delta)`` per array size, since the
    calls depend on the metric block size.  The slot loop evaluates only
    pilots: ``recursive``'s along its estimate on the tracking array every
    slot, and ``80211ad``'s toward a candidate beam in moving runs; ``cs``
    takes its pilots without the kernel.  The metrics after the loop take,
    in a moving run, two full-array kernels per slot and trial, the rate's
    and the MSE's.  A static run's truth never moves, so slot n's MSE kernel
    is slot n+1's rate kernel: a block of B slots takes its B+1 estimates'
    kernels once each, N plus the number of blocks per trial.  So a static
    run's values depend on the block size, by one per block edge; every run
    here but the multi-block one is one block.  Static ``80211ad`` takes
    every pilot, rate and MSE from its per-chunk codebook tables, so its
    only kernels are the tables' own, M_t per trial on each array size."""

    @staticmethod
    def _values(monkeypatch, cfg) -> dict:
        """``harness._inner`` values of a run, per array size."""
        sizes = {}
        kernel = harness._inner

        def counted(geom, delta):
            m = geom.num_antennas
            sizes[m] = sizes.get(m, 0) + np.size(delta)
            return kernel(geom, delta)

        monkeypatch.setattr(harness, "_inner", counted)
        run_experiment(cfg)
        return sizes

    @pytest.mark.parametrize("algorithm", ["recursive", "cs"])
    def test_static_direction_tracker_one_kernel_per_slot(self, monkeypatch, algorithm):
        # per trial, one metric kernel per estimate (the initial one and each
        # slot's), and recursive's pilot every slot, all on the full array
        cfg = RunConfig(slots=1000, trials=4, chunk_size=2, algorithms=(algorithm,), seed=3)
        pilots = 1000 if algorithm == "recursive" else 0
        assert self._values(monkeypatch, cfg) == {16: 4 * (1000 + 1 + pilots)}

    @pytest.mark.parametrize("algorithm", ["recursive", "cs"])
    def test_static_direction_tracker_one_kernel_per_block_edge(self, monkeypatch,
                                                                algorithm):
        # 10 blocks of 100 slots of a 2-trial chunk, each taking its 101
        # estimates' kernels: the 9 estimates at block edges twice
        monkeypatch.setattr(harness, "_METRIC_BLOCK", 200)
        cfg = RunConfig(slots=1000, trials=4, chunk_size=2, algorithms=(algorithm,), seed=3)
        pilots = 1000 if algorithm == "recursive" else 0
        assert self._values(monkeypatch, cfg) == {16: 4 * (1000 + 10 + pilots)}

    def test_static_sweep_refine_kernels(self, monkeypatch):
        # per trial, one full-array value per codebook beam serves the pilot,
        # rate and MSE tables
        cfg = RunConfig(slots=1000, trials=4, chunk_size=2, algorithms=("80211ad",), seed=3)
        assert self._values(monkeypatch, cfg) == {16: 4 * 16}

    def test_static_subarray_sweep_refine_kernels(self, monkeypatch):
        # per trial and codebook beam, one subarray value for the pilot table
        # and one full-array value for the rate and MSE tables
        cfg = RunConfig(slots=200, trials=4, chunk_size=2, track_antennas=8,
                        algorithms=("80211ad",), seed=3)
        assert self._values(monkeypatch, cfg) == {16: 4 * 8, 8: 4 * 8}

    def test_moving_truth_takes_two_kernels_per_slot(self, monkeypatch):
        # the truth moves every slot, so the rate's and the MSE's kernels
        # differ; the pilot, on the full array too, is a third
        cfg = RunConfig(trajectory="sinusoidal", slots=200, trials=3,
                        algorithms=("recursive",), seed=3)
        assert self._values(monkeypatch, cfg) == {16: 3 * (2 + 1) * 200}

    def test_moving_sweep_refine_kernels(self, monkeypatch):
        # per trial and slot: a pilot, a rate and an MSE kernel
        cfg = RunConfig(trajectory="sinusoidal", slots=200, trials=4, chunk_size=2,
                        algorithms=("80211ad",), seed=3)
        assert self._values(monkeypatch, cfg) == {16: 4 * 3 * 200}

    def test_subarray_recursive_kernels(self, monkeypatch):
        # static, per trial: one full-array metric kernel per estimate, and
        # one pilot per slot on the subarray
        cfg = RunConfig(slots=200, trials=4, chunk_size=2, track_antennas=8,
                        algorithms=("recursive",), seed=3)
        assert self._values(monkeypatch, cfg) == {16: 4 * (1 + 200), 8: 4 * 200}

    @pytest.mark.parametrize(
        "algorithm, trajectory, track_antennas, values",
        [
            # per trial and slot, a rate and an MSE kernel on the full array,
            # and recursive's and 80211ad's pilots on the subarray
            ("recursive", "fixed-velocity", 8, {16: 4 * 2 * 200, 8: 4 * 200}),
            ("cs", "sinusoidal", None, {16: 4 * 2 * 200}),
            ("cs", "sinusoidal", 8, {16: 4 * 2 * 200}),
            ("80211ad", "fixed-velocity", 8, {16: 4 * 2 * 200, 8: 4 * 200}),
        ],
        ids=["recursive-subarray", "cs", "cs-subarray", "80211ad-subarray"],
    )
    def test_moving_run_kernels(self, monkeypatch, algorithm, trajectory, track_antennas,
                                values):
        # two chunks of 2 trials
        cfg = RunConfig(trajectory=trajectory, omega=0.02, slots=200, trials=4, chunk_size=2,
                        track_antennas=track_antennas, algorithms=(algorithm,), seed=3)
        assert self._values(monkeypatch, cfg) == values


class TestMetricBlocks:
    """The rates and MSEs after the slot loop come in blocks of slots, of at
    most ``harness._METRIC_BLOCK`` values; a block's edge must not move a
    bit.  Each slot's rate takes the estimate before the slot, which a
    block's first slot takes from the row the block before it ends with."""

    @pytest.mark.parametrize("track_antennas", [None, 8])
    @pytest.mark.parametrize("trajectory", TRAJECTORIES)
    @pytest.mark.parametrize("algorithm", ["recursive", "80211ad", "cs"])
    def test_block_edges_move_no_bit(self, monkeypatch, algorithm, trajectory,
                                     track_antennas):
        # chunks of 4, 4 and 1 trials; a block of 1 value holds 1 slot of
        # either, one of 7 values 1 slot or 7 of the 1-trial chunk, and one
        # of 28 values 7 slots or 28
        cfg = RunConfig(trajectory=trajectory, omega=0.02, slots=40, trials=9, chunk_size=4,
                        track_antennas=track_antennas, algorithms=(algorithm,), seed=5)
        default = _bits(run_experiment(cfg)[algorithm])
        for values in (1, 7, 28):
            monkeypatch.setattr(harness, "_METRIC_BLOCK", values)
            assert _bits(run_experiment(cfg)[algorithm]) == default

    @pytest.mark.parametrize("trajectory", ["static", "sinusoidal"])
    @pytest.mark.parametrize("algorithm", ["recursive", "80211ad", "cs"])
    def test_blocks_depend_on_their_arguments_alone(self, algorithm, trajectory):
        # a chunk's blocks of at most 7 values (2 slots of its 3 trials),
        # taken last to first and then first to last by the same tracker,
        # give the same bytes
        cfg = RunConfig(trajectory=trajectory, slots=40, trials=3,
                        algorithms=(algorithm,), seed=5)
        trials = range(cfg.trials)
        x_traj, noise, warm = harness._chunk_inputs(cfg, trials, harness._ALG_TAGS[algorithm])
        tracker = harness._TRACKERS[algorithm](cfg, trials, x_traj[:, 0], warm)
        est = [tracker.direction]
        for n in range(1, cfg.slots + 1):
            tracker.update(n, x_traj[:, n], noise[:, n - 1])
            est.append(tracker.direction)
        est = np.array(est)
        step = 7 // cfg.trials
        spans = [(lo, min(lo + step, cfg.slots)) for lo in range(0, cfg.slots, step)]

        def block_bytes(order):
            return {(lo, hi): [m.tobytes() for m in tracker.metrics(est, x_traj, lo, hi)]
                    for lo, hi in order}

        assert block_bytes(spans[::-1]) == block_bytes(spans)


class TestSummaryContents:
    def test_crlb_reference_column(self):
        cfg = RunConfig(
            slots=10, trials=2, algorithms=("recursive",)
        )
        s = run_experiment(cfg)["recursive"]
        limit = channel_mse_limit(G16, 1.0 / cfg.rho)
        np.testing.assert_allclose(s.crlb_h_ref * s.slots, limit, rtol=1e-12)
        # identical to the derivative/information form
        np.testing.assert_allclose(
            s.crlb_h_ref,
            h_prime_norm_sq(G16) / (s.slots * i_max(G16, cfg.rho)),
            rtol=1e-12,
        )

    def test_ls_columns_without_direction_are_nan(self):
        cfg = RunConfig(
            slots=8, trials=3, algorithms=("ls",)
        )
        s = run_experiment(cfg)["ls"]
        assert np.isnan(s.n_mse_times_imax).all()
        assert np.isnan(s.conv_frac).all()
        assert math.isnan(s.converged_trials)
        assert np.isfinite(s.mean_mse_h).all()
        assert np.isfinite(s.mean_rate).all()

    def test_lock_fraction_without_converged_trials(self):
        # both trials lose the fast target by the last slot, yet each slot's
        # lock fraction is still read off the traces; only the n*MSE*I_max
        # column, an average over the converged trials, has nothing to show
        cfg = RunConfig(
            trajectory="fixed-velocity", omega=0.2, slots=40, trials=2,
            algorithms=("recursive",), snr_db=-5, seed=0,
        )
        s = run_experiment(cfg)["recursive"]
        hw = mainlobe_halfwidth(cfg.track_geometry)
        traces = [run_single_trial(cfg, "recursive", t) for t in range(cfg.trials)]
        locked = [np.abs(tr.x_hat - tr.x) < 0.5 * hw for tr in traces]
        np.testing.assert_array_equal(s.conv_frac, np.mean(locked, axis=0))
        assert s.conv_frac.max() > 0
        assert s.converged_trials == 0
        assert np.isnan(s.n_mse_times_imax).all()

    @pytest.mark.parametrize("algorithm", ["recursive", "80211ad"])
    @pytest.mark.parametrize(
        "setting",
        [
            dict(trials=7, chunk_size=3, seed=11),
            dict(trajectory="sinusoidal", trials=7, chunk_size=3, seed=11),
            # no trial is locked at the last slot, though some are earlier
            dict(trajectory="fixed-velocity", omega=0.3, trials=5, chunk_size=2, seed=1),
        ],
        ids=["static", "sinusoidal", "none-converged"],
    )
    def test_lock_tally_matches_trace_recount(self, algorithm, setting):
        # the run tallies locks and squared errors after its slot loop; a
        # recount from each trial's own trace, summing the converged trials'
        # squared errors in trial order within each chunk, then over the
        # chunks, gives the same bits
        cfg = RunConfig(slots=40, algorithms=(algorithm,), snr_db=-5.0, **setting)
        s = run_experiment(cfg)[algorithm]
        traces = [run_single_trial(cfg, algorithm, t) for t in range(cfg.trials)]
        err = np.array([tr.x_hat - tr.x for tr in traces])
        locked = np.abs(err) < 0.5 * mainlobe_halfwidth(cfg.track_geometry)
        np.testing.assert_array_equal(s.conv_frac, locked.sum(axis=0) / cfg.trials)
        converged = locked[:, -1]
        sqerr_sum = sum(
            np.square(err[lo:lo + cfg.chunk_size][converged[lo:lo + cfg.chunk_size]]).sum(axis=0)
            for lo in range(0, cfg.trials, cfg.chunk_size)
        )
        count = np.count_nonzero(converged)
        expected = np.full(cfg.slots, np.nan)
        if count:
            expected = s.slots * (sqerr_sum / count) * i_max(cfg.track_geometry, cfg.rho)
        np.testing.assert_array_equal(s.n_mse_times_imax, expected)
        assert s.converged_trials == count
        assert (count == 0) == (setting.get("trajectory") == "fixed-velocity")
        assert locked.any()

    def test_csv_schema(self, tmp_path, capsys):
        argv = ["static", "--slots", "5", "--trials", "2", "--algorithms", "recursive",
                "--jobs", "1", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        data = (tmp_path / "static_recursive.csv").read_bytes()
        assert b"\r" not in data
        lines = data.decode().split("\n")
        assert lines[0] == "slot,mean_mse_h,n_mse_times_imax,mean_rate,conv_frac,crlb_h_ref"
        assert len(lines) == 7 and lines[-1] == ""  # header, 5 slots, final newline
        assert [line.split(",")[0] for line in lines[1:-1]] == ["1", "2", "3", "4", "5"]

    def test_subset_tracking_uses_full_array_for_rate(self):
        cfg = RunConfig(
            slots=60,
            trials=4,
            algorithms=("recursive",),
            track_antennas=4,
            snr_db=30.0,
            seed=2,
        )
        s = run_experiment(cfg)["recursive"]
        # near-perfect tracking at 30 dB: the rate must approach the
        # 16-antenna capacity, far above the 4-antenna one
        assert s.mean_rate[-1] > math.log2(1 + 1000 * 4) + 1.5

    def test_steady_means_skip_the_first_50_slots(self):
        cfg = RunConfig(trajectory="sinusoidal", slots=60, trials=3, algorithms=("ls",))
        s = run_experiment(cfg)["ls"]
        assert s.steady_mean_rate == s.mean_rate[50:].mean()
        assert s.steady_mean_mse_h == s.mean_mse_h[50:].mean()

    def test_validation_errors(self):
        for bad in (
            {"algorithms": ("sorcery",)},
            {"step_alpha": -0.1},
            {"step_alpha": 0.0},
            {"chunk_size": 0},
            {"jobs": 0},
            {"jobs": -2},
            {"sweep_dictionary_size": 0},
            {"snr_db": math.nan},
            {"snr_db": math.inf},
            {"num_antennas": 1, "step_alpha": 0.5},
            {"track_antennas": 17},
            {"algorithms": ("ls",), "track_antennas": 8},
            {"seed": -1},
            {"seed": 1.0},
            {"seed": True},
            {"seed": "7"},
            {"trials": 2.5},
            {"trials": True},
            {"chunk_size": 4.0},
            {"jobs": 1.5},
            {"jobs": True},
            {"num_antennas": 16.0},
            {"num_antennas": True, "step_alpha": 0.5},
            {"track_antennas": 8.0},
            {"track_antennas": False},
            {"sweep_dictionary_size": 32.0},
            {"step_alpha": math.nan},
            {"step_alpha": math.inf},
            {"algorithms": ("80211ad",), "track_antennas": 2},
            {"algorithms": ("80211ad",), "num_antennas": 2},
            {"algorithms": ("recursive", "cs", "recursive")},
            # None only where it picks a derived default; no bool or text
            # where a number is meant
            {"seed": None},
            {"num_antennas": None},
            {"chunk_size": None},
            {"slots": None},
            {"trials": None},
            {"jobs": None},
            {"snr_db": None},
            {"snr_db": "10"},
            {"snr_db": True},
            {"omega": None},
            {"trajectory": "fixed-velocity", "omega": True},
            {"omega": "0.1"},
            {"step_alpha": "x"},
            {"step_alpha": False},
        ):
            with pytest.raises(ValueError):
                RunConfig(**{"slots": 5, **bad})
        # sweep-and-refine probes the best beam and its two neighbours
        with pytest.raises(ValueError, match="^need at least 3 codebook beams$"):
            RunConfig(slots=5, algorithms=("80211ad",), track_antennas=2)
        RunConfig(slots=5, algorithms=("recursive",), track_antennas=2)
        # the least-squares baseline may name the full array as its subarray
        RunConfig(slots=5, algorithms=("ls",), track_antennas=16)
        # the most antennas: the CS dictionary's size
        RunConfig(slots=5, num_antennas=1024)
        # the fields with a derived default take None
        RunConfig(slots=5, track_antennas=None, sweep_dictionary_size=None, step_alpha=None)
        # each rejection names the key
        for bad, key in (
            ({"seed": None}, "seed"),
            ({"snr_db": None}, "snr_db"),
            ({"omega": None}, "omega"),
            ({"step_alpha": "x"}, "step_alpha"),
            ({"track_antennas": 17}, "track_antennas"),
            ({"algorithms": ("ls", "ls")}, "algorithms"),
            # rho = 10**(snr_db/10) overflows, and 1/rho overflows
            ({"snr_db": 4000.0}, "snr_db"),
            ({"snr_db": -4000.0}, "snr_db"),
            # beyond the bound, short of the overflow
            ({"snr_db": 1000.5}, "snr_db"),
            ({"snr_db": -1000.5}, "snr_db"),
            # past the CS dictionary's 1024 points, before any array is built
            ({"num_antennas": 1025}, "num_antennas"),
        ):
            with pytest.raises(ValueError, match=f"^{key} must be "):
                RunConfig(slots=5, **bad)
        # the spacing is half a wavelength and the channel gain is one
        for build in (
            lambda: RunConfig(slots=5, spacing_over_wavelength=0.5),
            lambda: RunConfig(slots=5, beta=1.0),
            lambda: ArrayGeometry(8, 0.5),
        ):
            with pytest.raises(TypeError, match="argument"):
                build()

    def test_mainlobe_init_is_unknown(self):
        # the starts are the coarse sweep and a uniform draw
        with pytest.raises(ValueError, match="^unknown init mode 'mainlobe'$"):
            RunConfig(slots=5, init="mainlobe")

    @pytest.mark.parametrize(
        "setting, algorithm, trial, message",
        [
            # sweep-and-refine needs 3 beams, least squares the full array
            ({"track_antennas": 2}, "80211ad", 0, "^algorithm must be one of "),
            ({"track_antennas": 8}, "ls", 0, "^algorithm must be one of "),
            ({}, "foo", 0, "^algorithm must be one of "),
            ({}, "recursive", -1, "^trial must be from 0 to 2, got -1$"),
            ({}, "recursive", 3, "^trial must be from 0 to 2, got 3$"),
            # a bool is not a trial number, as for RunConfig's int fields
            ({}, "recursive", True, "^trial must be from 0 to 2, got True$"),
        ],
        ids=["80211ad_two_beams", "ls_subarray", "unknown", "trial_negative", "trial_past_end",
             "trial_bool"],
    )
    def test_single_trial_outside_config_rejected(self, setting, algorithm, trial, message):
        # the config's checks hold only for its own algorithms and trials
        cfg = RunConfig(slots=5, trials=3, algorithms=("recursive",), **setting)
        with pytest.raises(ValueError, match=message):
            run_single_trial(cfg, algorithm, trial)

    def test_chunk_arrays_numpy_cannot_address_rejected(self):
        # a chunk of min(trials, chunk_size) rows holds (slots + m_t) complex
        # noise values per row, and slots * m_t int8 probes when cs runs;
        # RunConfig allocates nothing, so these sizes are safe to build
        limit = np.iinfo(np.intp).max
        for rows, m, algorithms in ((2, 16, ("recursive",)), (512, 16, ("cs",)), (7, 64, ("cs",))):
            most = limit // (16 * rows) - m
            if "cs" in algorithms:
                most = min(most, limit // (rows * m))
            kw = dict(trials=rows, num_antennas=m, algorithms=algorithms)
            RunConfig(slots=most, **kw)
            with pytest.raises(ValueError, match=f"^slots must be at most {most} in chunks of "):
                RunConfig(slots=most + 1, **kw)
        # the rows are the smaller of trials and chunk_size
        with pytest.raises(ValueError, match="^slots must be at most .* chunks of 3 trials"):
            RunConfig(slots=10**18, trials=10**6, chunk_size=3)

    def test_static_ls_chunk_keeps_one_estimate_column(self):
        # least squares has no direction estimate, so a chunk records one NaN
        # column, not one per trial: the chunk's peak stays near its noise
        # array, where an (N+1, T) record would add half of it again
        cfg = RunConfig(slots=20_000, trials=64, algorithms=("ls",), seed=1)
        noise_bytes = cfg.trials * (16 + cfg.slots) * 16
        tracemalloc.start()
        try:
            out = harness._simulate_chunk(cfg, "ls", 0, cfg.trials)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * noise_bytes
        assert out.final_est.shape == (cfg.trials,) and np.isnan(out.final_est).all()
        assert out.trace.x_hat.shape == (cfg.slots,) and np.isnan(out.trace.x_hat).all()

    def test_chunk_spans_are_yielded_one_at_a_time(self):
        spans = harness._chunks(10, 4)
        assert iter(spans) is spans  # an iterator, not a list built up front
        assert list(spans) == [(0, 4), (4, 8), (8, 10)]

    @pytest.mark.parametrize(
        "setting, ignored",
        [
            ({}, {"omega"}),
            ({"trajectory": "fixed-velocity"}, set()),
            ({"trajectory": "sinusoidal", "init": "uniform"}, {"omega", "sweep_dictionary_size"}),
            ({"algorithms": ("80211ad", "cs")},
             {"omega", "step_alpha", "init", "sweep_dictionary_size"}),
            ({"algorithms": ("ls",)},
             {"omega", "step_alpha", "init", "sweep_dictionary_size", "track_antennas"}),
            ({"algorithms": ("ls", "recursive"), "init": "uniform"},
             {"omega", "sweep_dictionary_size"}),
        ],
    )
    def test_ignored_fields(self, setting, ignored):
        # run_experiment reads every other field, jobs and chunk_size always
        got = RunConfig(**setting).ignored_fields()
        assert set(got) == ignored
        assert all(isinstance(why, str) and why for why in got.values())


@pytest.fixture(scope="module")
def static_all():
    cfg = RunConfig(
        slots=500,
        trials=500,
        algorithms=("recursive", "80211ad", "ls", "cs"),
        seed=23,
    )
    return run_experiment(cfg)


class TestStaticLandscape:
    """Cross-algorithm behavior in the fixed-direction scenario."""

    def test_final_mse_ordering(self, static_all):
        final = {k: s.mean_mse_h[-1] for k, s in static_all.items()}
        assert final["recursive"] < final["cs"] < final["ls"] < final["80211ad"]

    def test_ls_error_scales_inversely_with_pilots(self, static_all):
        # cumulative least squares: n * MSE_h flattens near M^2/rho
        s = static_all["ls"]
        n_mse = s.slots * s.mean_mse_h
        assert 18 < n_mse[-1] < 35
        assert 18 < n_mse[249] < 35

    def test_codebook_tracker_floors(self, static_all):
        # sweep-and-refine is limited by codebook quantization: flat MSE
        s = static_all["80211ad"]
        assert s.mean_mse_h[-1] == pytest.approx(s.mean_mse_h[299], rel=0.5)
        assert s.mean_mse_h[-1] > 1.0

    def test_grid_tracker_floors_at_quantization(self, static_all):
        # sparse recovery floors at the 1024-point grid resolution
        s = static_all["cs"]
        quant_floor = h_prime_norm_sq(G16) * (1 / 1024) ** 2 / 3
        assert s.mean_mse_h[-1] > 0.5 * quant_floor
        assert s.mean_mse_h[-1] < 40 * quant_floor

    def test_steady_rates(self, static_all):
        rates = {k: s.mean_rate[-1] for k, s in static_all.items()}
        for name in ("recursive", "ls", "cs"):
            assert rates[name] > 7.2
        assert 6.3 < rates["80211ad"] < 7.2


class TestTrackingProperties:
    def test_dynamic_estimate_follows_within_mainlobe(self):
        # sinusoidal motion at 10 dB: after warm-up the estimate stays within
        # half a mainlobe in nearly every slot
        cfg = RunConfig(
            trajectory="sinusoidal", slots=400,
            trials=150,
            algorithms=("recursive",),
            seed=18,
        )
        s = run_experiment(cfg)["recursive"]
        assert float(s.conv_frac[100:].mean()) >= 0.99


def _check_least_squares(cfg):
    trace = run_single_trial(cfg, "ls")
    rates, mses = ref.least_squares(cfg, 0)
    np.testing.assert_allclose(trace.mse_h, mses, rtol=1e-9)
    np.testing.assert_allclose(trace.rate, rates, rtol=1e-9)
    return trace


class TestLeastSquaresAgainstScalarReplay:
    def test_engine_matches_lstsq_solution(self):
        # static: re-estimated every slot from every pilot so far; slot n's
        # rate uses the phase-only beam of the estimate before it
        cfg = RunConfig(
            slots=16,
            trials=1,
            algorithms=("ls",),
            seed=31,
        )
        _check_least_squares(cfg)

    @settings(max_examples=60)
    @given(
        m=st.integers(2, 16),
        slots=st.integers(1, 40),
        kind=_KINDS,
        omega=st.floats(0.0, 0.1),
        seed=st.integers(0, 2**40),
    )
    def test_engine_matches_scalar_replay(self, m, slots, kind, omega, seed):
        # slots not a multiple of m end inside a codebook frame, whose
        # estimate a dynamic run never takes
        cfg = RunConfig(
            trajectory=kind, slots=slots, omega=omega, num_antennas=m, trials=1,
            algorithms=("ls",), seed=seed,
        )
        _check_least_squares(cfg)

    def test_dynamic_engine_holds_each_frame_estimate(self):
        # dynamic: one estimate per 16-slot codebook frame from that frame's
        # 16 pilots, held until the next frame's last slot
        cfg = RunConfig(
            trajectory="sinusoidal", slots=56,
            trials=1,
            algorithms=("ls",),
            seed=32,
        )
        assert np.isnan(_check_least_squares(cfg).x_hat).all()


DIRS = sine_grid(16)


def _config(algorithm, **kw):
    return RunConfig(algorithms=(algorithm,), **kw)


def _nearest_beam(x):
    return DIRS[np.argmin(np.abs(DIRS[:, None] - np.asarray(x)), axis=0)]


class TestSweepRefine:
    """The engine's sweep-and-refine tracker."""

    def test_sweep_locks_onto_codebook_direction(self):
        # at 40 dB the sweep picks the codebook beam nearest the truth, and
        # the refinement rounds never leave it
        cfg = _config("80211ad", slots=30, trials=200, snr_db=40.0, seed=1)
        s = run_experiment(cfg)["80211ad"]
        np.testing.assert_array_equal(s.final_estimate, _nearest_beam(s.final_x))
        np.testing.assert_array_equal(s.trace.x_hat, _nearest_beam(s.trace.x))

    def test_tracking_follows_one_bin_move(self):
        # 0.01 rad/slot crosses a 2/16 bin in about 12 slots, 4 rounds
        trace = run_single_trial(
            _config("80211ad", trajectory="fixed-velocity", slots=240, omega=0.01, snr_db=40.0),
            "80211ad",
        )
        assert np.all(np.abs(trace.x_hat - trace.x) <= 2 / 16)
        assert len(set(trace.x_hat)) >= 6

    def test_boundary_probes_nearest_distinct(self):
        # at an edge beam the round probes its two inner neighbours, and the
        # edge beam stays best for a truth beyond it
        cfg = _config("80211ad", slots=30, trials=400, snr_db=40.0, seed=2)
        s = run_experiment(cfg)["80211ad"]
        edge = np.abs(s.final_x) > DIRS[-1]
        assert np.count_nonzero(edge) >= 10
        np.testing.assert_array_equal(s.final_estimate[edge], np.sign(s.final_x[edge]) * DIRS[-1])

    def test_data_beam_is_codebook_member(self):
        cfg = _config("80211ad", trajectory="sinusoidal", slots=60, trials=5, snr_db=0.0)
        for trial in range(5):
            assert np.isin(run_single_trial(cfg, "80211ad", trial).x_hat, DIRS).all()

    def test_half_bin_gain_cap(self):
        # zero angular velocity holds x = 0, midway between beams 7 and 8:
        # the data beam gain equals the half-bin kernel value, about 0.4066*M
        cfg = _config("80211ad", trajectory="fixed-velocity", slots=30, omega=0.0, snr_db=40.0)
        trace = run_single_trial(cfg, "80211ad")
        assert DIRS[7] == -DIRS[8] == -1 / 16
        gain = (2.0 ** trace.rate - 1.0) / cfg.rho  # |w^H a(x)|^2
        # independent evaluation of the array kernel at half-bin offset
        kernel = (
            np.sin(math.pi * 16 * (1 / 16) / 2) ** 2
            / (16 * np.sin(math.pi * (1 / 16) / 2) ** 2)
        )
        np.testing.assert_allclose(gain, kernel, rtol=1e-9)
        assert kernel == pytest.approx(0.4066 * 16, rel=1e-3)


    @settings(max_examples=30, deadline=None)
    @given(
        m=st.integers(3, 32),
        track=st.none() | st.integers(3, 32),
        snr_db=st.floats(-10.0, 40.0),
        truths=st.lists(
            st.floats(-1.0, 1.0) | st.floats(0.9, 1.0) | st.floats(-1.0, -0.9),
            min_size=2, max_size=8,
        ),
        slots=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(m=3, track=None, snr_db=40.0, truths=[-1.0, 1.0], slots=12, seed=0)
    @example(m=32, track=4, snr_db=0.0, truths=[0.999, -0.97, 0.0], slots=30, seed=1)
    def test_static_tables_match_per_slot_kernels(self, m, track, snr_db, truths, slots,
                                                  seed):
        # a static chunk takes every slot's pilot from its codebook tables,
        # and after the slot loop gathers each estimate's rate and MSE from
        # them by beam index; the same tracker with no table computes the
        # pilot kernels, the base class's _values the metric kernels, and
        # every slot must agree bit for bit, at edge beams too
        cfg = _config("80211ad", slots=slots, num_antennas=m, snr_db=snr_db,
                      track_antennas=None if track is None else min(track, m))
        track_geom = cfg.track_geometry
        x0 = np.array(truths)
        rng = np.random.default_rng(seed)
        noise = (rng.standard_normal((len(x0), track_geom.num_antennas + slots, 2))
                 @ [1.0, 1j]) * math.sqrt(0.5 / cfg.rho)
        warm = steering_matrix(track_geom, x0) @ np.conj(dft_codebook(track_geom)).T
        warm += noise[:, : track_geom.num_antennas]
        trials = range(len(x0))
        tabled = harness._SweepRefine(cfg, trials, x0, warm)
        per_slot = harness._SweepRefine(cfg, trials, x0, warm)
        per_slot.table = None
        assert tabled.table is not None
        est = [tabled.direction]  # the estimates before slot 1, then each slot's
        for n in range(1, slots + 1):
            pilot_noise = noise[:, track_geom.num_antennas + n - 1]
            tabled.update(n, x0, pilot_noise)
            per_slot.update(n, x0, pilot_noise)
            # the slot's noisy pilot magnitudes, which pick the next best beams
            cursor = (n - 1) % 3
            assert np.array_equal(tabled.mags[:, cursor], per_slot.mags[:, cursor])
            assert np.array_equal(tabled.direction, per_slot.direction)
            est.append(tabled.direction)
        # every recorded estimate's rate and MSE, the initial one's too,
        # (slots + 1, trials)
        est = np.array(est)
        kernels = harness._DirectionTracker._values(tabled, est, x0)
        for got, want in zip(tabled._values(est, x0), kernels):
            assert got.shape == want.shape == est.shape
            assert np.array_equal(got, want)


class TestLeastSquares:
    """The engine's least-squares estimate and its phase-only data beam."""

    def test_noiseless_full_sweep_exact(self):
        cfg = _config("ls", slots=20, snr_db=NOISELESS_DB)
        trace = run_single_trial(cfg, "ls")
        assert np.all(trace.mse_h < 1e-20)
        # the beam of an exact estimate collects the full array gain
        np.testing.assert_allclose(trace.rate, math.log2(1 + cfg.rho * 16), rtol=1e-12)

    def test_noise_level_matches_gram_prediction(self):
        # E||h_hat - h||^2 equals (1/rho) * tr((A^H A)^-1) for the codebook
        rho = 10.0
        a = np.conj(dft_codebook(G16))
        gram_inv = np.linalg.inv(a.conj().T @ a)
        predicted = np.trace(gram_inv).real / rho
        assert predicted == pytest.approx(16 / rho, rel=1e-9)  # orthonormal sweep

        # at slot 16 every beam has two pilots (warm-up and slot), halving it
        cfg = _config("ls", slots=16, trials=2000, snr_db=10.0, seed=4)
        s = run_experiment(cfg)["ls"]
        assert s.mean_mse_h[15] == pytest.approx(predicted / 2, rel=0.1)

    def test_phase_only_beam_from_exact_estimate(self):
        h = (2.0 - 1.0j) * ref.steering_vector(G16, 0.7)
        w = ls_data_beam(h)
        np.testing.assert_allclose(np.abs(w), 1 / 4)
        assert abs(np.vdot(w, ref.steering_vector(G16, 0.7))) ** 2 == pytest.approx(16.0)

    # entries of modulus up to 1e6 and down to the smallest normal float, with
    # exact zeros mixed in, as +0j (np.angle(-0.0) is pi); each row is one
    # estimate
    @given(
        st.lists(
            st.one_of(
                st.just(0j),
                st.complex_numbers(
                    max_magnitude=1e6, allow_nan=False, allow_infinity=False,
                    allow_subnormal=False,
                ).map(lambda z: z if z != 0 else 0j),
            ),
            min_size=2,
            max_size=32,
        ),
        st.integers(1, 3),
    )
    @example([0j, 0j], 1)
    @example([1.0 + 0j, 0j, -2.5j, 0j], 2)
    def test_phase_only_beam_matches_angle_form(self, entries, rows):
        h = np.tile(np.array(entries), (rows, 1))
        expected = np.exp(1j * np.angle(h)) / math.sqrt(len(entries))
        w = ls_data_beam(h)
        np.testing.assert_allclose(w, expected, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(ls_data_beam(h[0]), w[0])


def _qpsk_probes(rng, pilots):
    """Random four-phase probes of modulus 1/sqrt(16), one pilot per row."""
    return QPSK[rng.integers(0, 4, (pilots, 16))] / 4


class TestCompressedSensing:
    def test_noiseless_on_grid_exact(self):
        # the reference estimator that the engine's CS replays are scored by
        x = sine_grid(1024)[700]
        weights = _qpsk_probes(np.random.default_rng(3), 8)
        obs = np.conj(weights) @ ref.steering_vector(G16, x)
        scores = ref.cs_scores(G16, weights, obs)
        assert ref.CS_GRID[np.argmax(scores)] == pytest.approx(x)

    def test_off_grid_quantization(self):
        # once 16 probes span the array, the noiseless static estimate is the
        # grid point nearest the truth: within half the 2/1024 grid step
        cfg = _config("cs", slots=30, trials=10, snr_db=NOISELESS_DB, seed=6)
        for trial in range(10):
            trace = run_single_trial(cfg, "cs", trial)
            assert np.all(np.abs(trace.x_hat[15:] - trace.x[15:]) <= 1 / 1024 + 1e-12)

    def test_probe_alphabet(self):
        # the engine's int8 picks index the four phases {1, j, -1, -j}
        np.testing.assert_array_equal(QPSK, [1, 1j, -1, -1j])
        w = _qpsk_probes(np.random.default_rng(0), 1)
        np.testing.assert_allclose(np.abs(w), 0.25, rtol=1e-15)

    @pytest.mark.parametrize(
        "trajectory, track_antennas, slots, taken",
        [
            # one pilot per slot
            ("static", None, 40, range(1, 41)),
            # the last k_win = 8 slots of each 16-slot frame, and the window
            # slots of the partial frame 33..45
            ("sinusoidal", None, 45, [*range(9, 17), *range(25, 33), *range(41, 46)]),
            # k_win = 2 of 5, and the partial frame 16..19 takes its first
            # window slot, 19
            ("sinusoidal", 5, 19, [4, 5, 9, 10, 14, 15, 19]),
        ],
        ids=["static", "dynamic", "dynamic-subarray"],
    )
    def test_pilots_taken(self, monkeypatch, trajectory, track_antennas, slots, taken):
        # a dynamic frame zeroes its sums at its window's first slot, so no
        # output shows a pilot taken outside the window; count them instead
        seen = []
        pilot = harness._CompressedSensing._pilot

        def counted(self, n, x_n, noise):
            seen.append(n)
            return pilot(self, n, x_n, noise)

        monkeypatch.setattr(harness._CompressedSensing, "_pilot", counted)
        cfg = RunConfig(trajectory=trajectory, slots=slots, trials=4, chunk_size=2,
                        track_antennas=track_antennas, algorithms=("cs",), seed=3)
        run_experiment(cfg)
        assert seen == 2 * list(taken)  # two chunks

    def test_deterministic_given_seed(self):
        def one(seed):
            cfg = _config("cs", trajectory="sinusoidal", slots=48, snr_db=5.0, seed=seed)
            return run_single_trial(cfg, "cs").x_hat

        np.testing.assert_array_equal(one(5), one(5))
        assert not np.array_equal(one(5), one(6))
