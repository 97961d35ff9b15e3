import math

import numpy as np
import pytest
import reference as ref
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beamtrack import (
    ArrayGeometry,
    RunConfig,
    channel_mse_limit,
    conjugate_beam,
    h_prime_norm_sq,
    i_max,
    mainlobe_halfwidth,
    run_experiment,
    run_single_trial,
    sine_grid,
    steering_matrix,
    steering_vector,
    write_summary_csv,
)
from beamtrack.harness import (
    ALGORITHMS,
    CS_DICTIONARY_SIZE,
    QPSK,
    _cs_lag_atoms,
    _cs_window_score,
    _inner,
)
from beamtrack.scenarios import TRAJECTORIES

G16 = ArrayGeometry(16)


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
            ip = np.vdot(steering_vector(G16, xh), steering_vector(G16, x))
            expected = 32 - 2 * ip.real
            assert ref.mse_h(G16, xh, x) == pytest.approx(expected, rel=1e-12)

    def test_rate_matched(self):
        w = conjugate_beam(G16, 0.4)
        assert ref.achievable_rate(G16, w, 0.4, 10.0) == pytest.approx(math.log2(161))
        assert ref.achievable_rate(G16, w, 0.4, 10.0) == pytest.approx(7.3309, rel=1e-4)

    def test_rate_zero_db(self):
        w = conjugate_beam(G16, -0.2)
        assert ref.achievable_rate(G16, w, -0.2, 1.0) == pytest.approx(math.log2(17))

    def test_rate_orthogonal_beam(self):
        g2 = ArrayGeometry(2)
        assert ref.achievable_rate(g2, conjugate_beam(g2, 1.0), 0.0, 10.0) == pytest.approx(
            0.0, abs=1e-12
        )


class TestKernel:
    @settings(max_examples=200)
    @given(
        m=st.integers(2, 64),
        free=st.lists(st.floats(-2.0, 2.0), max_size=20),
        offsets=st.lists(st.floats(-1e-9, 1e-9), min_size=3, max_size=3),
    )
    # just outside the guard band next to delta = +-2, where m * phi/2 rounds
    @example(m=63, free=[2 - 1e-7, -2 + 1e-6], offsets=[1e-9, -1e-9, 1e-9])
    @example(m=64, free=[], offsets=[-1e-9, 1e-9, -1e-9])
    def test_closed_form_matches_direct_sum(self, m, free, offsets):
        edges = np.array([0.0, 2.0, -2.0])  # the kernel's singular points
        near = np.clip(edges + np.array(offsets), -2.0, 2.0)
        delta = np.concatenate([edges, near, free])
        direct = np.exp(1j * math.pi * np.outer(delta, np.arange(m))).sum(axis=1)
        # the direct sum's phases reach 2*pi*m and each is rounded, about
        # 7e-16 m^2 in all; the guard band's limit drops an m^3 sin^2 term,
        # at most 2.2e-15 m^2 for m <= 64; so 1e-14 m^2 bounds both
        np.testing.assert_allclose(_inner(m, delta), direct, rtol=0, atol=1e-14 * m**2)


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


class TestEngineAgainstLibraryOps:
    """The vectorized runner must reproduce the scalar replays of
    ``tests/reference.py``, noise draw for noise draw."""

    @pytest.mark.parametrize("init", ["sweep", "uniform", "mainlobe"])
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
        init=st.sampled_from(["sweep", "uniform", "mainlobe"]),
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


class TestDeterminism:
    def test_identical_runs_identical_csv(self, tmp_path):
        cfg = RunConfig(
            trajectory="sinusoidal", slots=25,
            trials=12,
            algorithms=("recursive", "80211ad", "ls", "cs"),
            seed=9,
            chunk_size=5,
        )
        paths = []
        for k in range(2):
            out = {}
            for name, s in run_experiment(cfg).items():
                p = tmp_path / f"run{k}_{name}.csv"
                write_summary_csv(p, s)
                out[name] = p
            paths.append(out)
        for name in cfg.algorithms:
            assert paths[0][name].read_bytes() == paths[1][name].read_bytes()

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
    )
    @example(kind="static", algorithms=["recursive", "cs"], m=16, track=None, slots=20,
             omega=0.0, trials=14, chunk=4, seed=3)
    def test_worker_count_invariance(self, kind, algorithms, m, track, slots, omega,
                                     trials, chunk, seed):
        # two or more chunks, so that two workers share them; every trial
        # draws from its own substreams and chunks reduce in a fixed order
        base = _small_config(kind, tuple(algorithms), m, track, slots, omega, trials, seed)
        one, two = (
            run_experiment(RunConfig(**base, chunk_size=chunk, jobs=jobs)) for jobs in (1, 2)
        )
        for name in algorithms:
            for field in _SUMMARY_ARRAYS:
                assert getattr(one[name], field).tobytes() == getattr(two[name], field).tobytes()

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
        assert np.isfinite(s.mean_mse_h).all()
        assert np.isfinite(s.mean_rate).all()

    def test_csv_schema(self, tmp_path):
        cfg = RunConfig(
            slots=5, trials=2, algorithms=("recursive",)
        )
        p = tmp_path / "s.csv"
        write_summary_csv(p, run_experiment(cfg)["recursive"])
        lines = p.read_text().splitlines()
        assert lines[0] == "slot,mean_mse_h,n_mse_times_imax,mean_rate,conv_frac,crlb_h_ref"
        assert len(lines) == 6
        assert lines[1].split(",")[0] == "1"

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
        # the fields with a derived default take None
        RunConfig(slots=5, track_antennas=None, sweep_dictionary_size=None, step_alpha=None)
        # each rejection names the key
        for bad, key in (
            ({"seed": None}, "seed"),
            ({"snr_db": None}, "snr_db"),
            ({"omega": None}, "omega"),
            ({"step_alpha": "x"}, "step_alpha"),
            ({"track_antennas": 17}, "track_antennas"),
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
    def test_mainlobe_start_locks_in(self):
        # starts drawn inside the mainlobe stay there with high probability
        cfg = RunConfig(
            slots=400,
            trials=500,
            algorithms=("recursive",),
            init="mainlobe",
            seed=17,
        )
        s = run_experiment(cfg)["recursive"]
        frac = np.mean(np.abs(s.final_estimate - s.final_x) < mainlobe_halfwidth(G16))
        assert frac >= 0.98

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


class TestLsAgainstLibraryEstimator:
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
