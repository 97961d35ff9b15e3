import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beamtrack import (
    QPSK,
    Ad11State,
    ArrayGeometry,
    ChannelState,
    RngPlan,
    RunConfig,
    SineTrackerState,
    StepSizeSchedule,
    SweepDictionary,
    Trajectory,
    achievable_rate,
    ad11_probe_index,
    ad11_step,
    alpha_star,
    channel_mse_limit,
    coarse_sweep,
    codebook_directions,
    complex_normal,
    conjugate_beam,
    cs_estimate,
    dft_codebook,
    generate,
    h_prime_norm_sq,
    i_max,
    mainlobe_halfwidth,
    mse_h,
    observe,
    recursive_step,
    run_experiment,
    run_single_trial,
    steering_matrix,
    steering_vector,
    write_summary_csv,
)
from beamtrack.baselines import CS_DICTIONARY_SIZE
from beamtrack.harness import _cs_lag_atoms, _cs_window_score, _inner
from beamtrack.scenarios import (
    STREAM_INIT,
    STREAM_OBSERVATION,
    STREAM_PROBE,
    STREAM_TRAJECTORY,
)

G16 = ArrayGeometry(16)


class TestMetrics:
    def test_mse_zero_at_truth(self):
        assert mse_h(G16, 0.3, 0.3, 1 + 1j) == 0.0

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
            assert mse_h(G16, xh, x, (1 + 1j) / math.sqrt(2)) <= sup + 1e-9

    def test_mse_matches_inner_product_form(self):
        rng = np.random.default_rng(1)
        beta = 0.8 - 0.6j
        for _ in range(50):
            xh, x = rng.uniform(-1, 1, 2)
            ip = np.vdot(steering_vector(G16, xh), steering_vector(G16, x))
            expected = abs(beta) ** 2 * (32 - 2 * ip.real)
            assert mse_h(G16, xh, x, beta) == pytest.approx(expected, rel=1e-12)

    def test_rate_matched(self):
        w = conjugate_beam(G16, 0.4)
        assert achievable_rate(G16, w, 0.4, 10.0) == pytest.approx(math.log2(161))
        assert achievable_rate(G16, w, 0.4, 10.0) == pytest.approx(7.3309, rel=1e-4)

    def test_rate_zero_db(self):
        w = conjugate_beam(G16, -0.2)
        assert achievable_rate(G16, w, -0.2, 1.0) == pytest.approx(math.log2(17))

    def test_rate_orthogonal_beam(self):
        g2 = ArrayGeometry(2)
        assert achievable_rate(g2, conjugate_beam(g2, 1.0), 0.0, 10.0) == pytest.approx(
            0.0, abs=1e-12
        )


class TestKernel:
    @settings(max_examples=200)
    @given(
        m=st.integers(2, 64),
        d=st.floats(0.0, 0.5, exclude_min=True),
        free=st.lists(st.floats(-2.0, 2.0), max_size=20),
        offsets=st.lists(st.floats(-1e-9, 1e-9), min_size=3, max_size=3),
    )
    # just outside the guard band next to delta = +-2, where m * phi/2 rounds
    @example(m=63, d=0.5, free=[2 - 1e-7, -2 + 1e-6], offsets=[1e-9, -1e-9, 1e-9])
    @example(m=64, d=0.5, free=[], offsets=[-1e-9, 1e-9, -1e-9])
    def test_closed_form_matches_direct_sum(self, m, d, free, offsets):
        edges = np.array([0.0, 2.0, -2.0])  # singular under d/lambda <= 0.5
        near = np.clip(edges + np.array(offsets), -2.0, 2.0)
        delta = np.concatenate([edges, near, free])
        k = 2.0 * math.pi * d
        direct = np.exp(1j * k * np.outer(delta, np.arange(m))).sum(axis=1)
        # the direct sum's phases reach 2*pi*m and each is rounded, about
        # 7e-16 m^2 in all; the guard band's limit drops an m^3 sin^2 term,
        # at most 2.2e-15 m^2 for m <= 64; so 1e-14 m^2 bounds both
        np.testing.assert_allclose(_inner(k, m, delta), direct, rtol=0, atol=1e-14 * m**2)


def _cs_direct_score(geom, weights, obs, g):
    """Normalized matched filter of one grid point, straight from its definition."""
    u = np.conj(weights) @ steering_vector(geom, g)  # w_n^H a(g)
    return abs(np.vdot(u, obs)) / np.linalg.norm(u)


class TestCsWindowScore:
    @given(
        m=st.integers(2, 32),
        d=st.floats(0.0, 0.5, exclude_min=True),
        data=st.data(),
    )
    def test_sufficient_statistics_match_direct_sums(self, m, d, data):
        k = data.draw(st.integers(1, m), label="window")
        picks = np.frombuffer(data.draw(st.binary(min_size=k * m, max_size=k * m)), np.uint8)
        pilot = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)
        y = np.array(data.draw(st.lists(pilot, min_size=k, max_size=k)), dtype=complex)
        w = QPSK[(picks % 4).reshape(k, m)] / math.sqrt(m)
        atoms = steering_matrix(ArrayGeometry(m, d), SweepDictionary(CS_DICTIONARY_SIZE).points)
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


class TestEngineAgainstLibraryOps:
    """The vectorized runner must reproduce a slot-by-slot loop built from the
    public scalar operations, noise draw for noise draw."""

    @pytest.mark.parametrize("init", ["sweep", "uniform", "mainlobe"])
    @pytest.mark.parametrize("trial", [0, 5])
    def test_recursive_static_trace(self, trial, init):
        cfg = RunConfig(
            trajectory=Trajectory.static(40),
            trials=trial + 1,
            algorithms=("recursive",),
            init=init,
            seed=77,
        )
        trace = run_single_trial(cfg, "recursive", trial=trial)

        plan = RngPlan(77)
        xs = generate(cfg.trajectory, plan.stream(trial, STREAM_TRAJECTORY))
        noise = complex_normal(plan.stream(trial, STREAM_OBSERVATION, 1), 16 + 40)
        rho = cfg.rho
        if init == "sweep":
            chan0 = ChannelState(xs[0], beta=cfg.beta, snr=rho)
            beams = dft_codebook(G16)
            pilots = np.array(
                [observe(G16, chan0, beams[m], noise[m]) for m in range(16)]
            )
            x0 = coarse_sweep(G16, SweepDictionary(32), pilots)
        elif init == "uniform":
            x0 = plan.stream(trial, STREAM_INIT).uniform(-1.0, 1.0)
        else:
            hw = mainlobe_halfwidth(G16)
            offset = plan.stream(trial, STREAM_INIT).uniform(-hw, hw)
            x0 = min(max(xs[0] + offset, -1.0), 1.0)
        state = SineTrackerState(
            x0, StepSizeSchedule.diminishing(alpha_star(G16)), G16
        )
        for n in range(1, 41):
            chan = ChannelState(xs[n], beta=cfg.beta, snr=rho)
            expected_rate = achievable_rate(
                G16, conjugate_beam(G16, state.x_hat), xs[n], rho
            )
            y = observe(G16, chan, state.probe_weights, noise[16 + n - 1])
            state = recursive_step(state, y)
            assert trace.x_hat[n - 1] == pytest.approx(state.x_hat, abs=1e-12)
            assert trace.rate[n - 1] == pytest.approx(expected_rate, rel=1e-12)
            assert trace.mse_h[n - 1] == pytest.approx(
                mse_h(G16, state.x_hat, xs[n], cfg.beta), rel=1e-9, abs=1e-12
            )

    def test_recursive_subarray_trace(self):
        # 8 tracking antennas probe on their own; rate and MSE use all 16
        slots = 60
        cfg = RunConfig(
            trajectory=Trajectory.sinusoidal(slots),
            trials=1,
            algorithms=("recursive",),
            track_antennas=8,
            step_kind="fixed",
            seed=78,
        )
        trace = run_single_trial(cfg, "recursive", trial=0)

        g8 = G16.subset(8)
        plan = RngPlan(78)
        xs = generate(cfg.trajectory, plan.stream(0, STREAM_TRAJECTORY))
        noise = complex_normal(plan.stream(0, STREAM_OBSERVATION, 1), 8 + slots)
        rho = cfg.rho
        chan0 = ChannelState(xs[0], beta=cfg.beta, snr=rho)
        beams = dft_codebook(g8)
        pilots = np.array([observe(g8, chan0, beams[m], noise[m]) for m in range(8)])
        x0 = coarse_sweep(g8, SweepDictionary(16), pilots)
        state = SineTrackerState(x0, StepSizeSchedule.fixed(alpha_star(g8)), g8)
        for n in range(1, slots + 1):
            chan = ChannelState(xs[n], beta=cfg.beta, snr=rho)
            expected_rate = achievable_rate(
                G16, conjugate_beam(G16, state.x_hat), xs[n], rho
            )
            y = observe(g8, chan, state.probe_weights, noise[8 + n - 1])
            state = recursive_step(state, y)
            assert trace.x_hat[n - 1] == pytest.approx(state.x_hat, abs=1e-12)
            assert trace.rate[n - 1] == pytest.approx(expected_rate, rel=1e-12)
            assert trace.mse_h[n - 1] == pytest.approx(
                mse_h(G16, state.x_hat, xs[n], cfg.beta), rel=1e-9, abs=1e-12
            )

    def test_80211ad_dynamic_trace(self):
        slots = 90
        cfg = RunConfig(
            trajectory=Trajectory.sinusoidal(slots),
            trials=1,
            algorithms=("80211ad",),
            seed=41,
        )
        trace = run_single_trial(cfg, "80211ad", trial=0)

        plan = RngPlan(41)
        xs = generate(cfg.trajectory, plan.stream(0, STREAM_TRAJECTORY))
        noise = complex_normal(plan.stream(0, STREAM_OBSERVATION, 2), 16 + slots)
        rho = cfg.rho
        beams = dft_codebook(G16)
        dirs = codebook_directions(G16)
        state = Ad11State(num_beams=16)
        chan0 = ChannelState(xs[0], beta=cfg.beta, snr=rho)
        for m in range(16):  # warm-up sweep
            assert ad11_probe_index(state) == m
            y = observe(G16, chan0, beams[m], noise[m])
            state, beam = ad11_step(state, y, beams)
        assert state.phase == "tracking"
        visited = set()
        for n in range(1, slots + 1):
            chan = ChannelState(xs[n], beta=cfg.beta, snr=rho)
            expected_rate = achievable_rate(G16, beam, xs[n], rho)
            y = observe(G16, chan, beams[ad11_probe_index(state)], noise[16 + n - 1])
            state, beam = ad11_step(state, y, beams)
            visited.add(state.best_index)
            assert trace.x_hat[n - 1] == dirs[state.best_index]
            assert trace.rate[n - 1] == pytest.approx(expected_rate, rel=1e-12)
            assert trace.mse_h[n - 1] == pytest.approx(
                mse_h(G16, dirs[state.best_index], xs[n], cfg.beta), rel=1e-9, abs=1e-12
            )
        assert len(visited) > 1  # the refinement rounds did move the beam

    @staticmethod
    def _cs_replay(cfg):
        """Truth, probe weights, pilots and warm-up estimate of trial 0, from
        the engine's substreams: the probe stream's int8 QPSK picks and
        exactly m_t + slots observation-noise draws on the tracking subarray."""
        track = cfg.track_geometry
        m_t = track.num_antennas
        plan = RngPlan(cfg.seed)
        slots = cfg.slots
        xs = generate(cfg.trajectory, plan.stream(0, STREAM_TRAJECTORY))
        noise = complex_normal(plan.stream(0, STREAM_OBSERVATION, 4), m_t + slots)
        probe_rng = plan.stream(0, STREAM_PROBE, 4)
        picks = probe_rng.integers(0, 4, size=(slots, m_t), dtype=np.int8)
        weights = QPSK[picks] / math.sqrt(m_t)
        beams = dft_codebook(track)
        chan0 = ChannelState(xs[0], beta=cfg.beta, snr=cfg.rho)
        warm = [observe(track, chan0, beams[m], noise[m]) for m in range(m_t)]
        obs = np.array(
            [
                observe(track, ChannelState(xs[n], beta=cfg.beta, snr=cfg.rho),
                        weights[n - 1], noise[m_t + n - 1])
                for n in range(1, slots + 1)
            ]
        )
        return xs, weights, obs, cs_estimate(track, beams, warm)

    def _check_cs_trace(self, cfg, trace, xs, estimates):
        """``estimates[n]`` is the direction estimate after slot n (index 0:
        after the warm-up sweep)."""
        for n in range(1, len(estimates)):
            expected_rate = achievable_rate(
                G16, conjugate_beam(G16, estimates[n - 1]), xs[n], cfg.rho
            )
            assert trace.x_hat[n - 1] == estimates[n]
            assert trace.rate[n - 1] == pytest.approx(expected_rate, rel=1e-12)
            assert trace.mse_h[n - 1] == pytest.approx(
                mse_h(G16, estimates[n], xs[n], cfg.beta), rel=1e-9, abs=1e-12
            )

    def test_cs_static_trace(self):
        # static: re-estimate every slot from all pilots received so far
        slots = 40
        cfg = RunConfig(
            trajectory=Trajectory.static(slots),
            trials=1,
            algorithms=("cs",),
            seed=43,
        )
        trace = run_single_trial(cfg, "cs", trial=0)
        xs, weights, obs, x_warm = self._cs_replay(cfg)
        # one pilot scores every grid point |y_1|, a tie that rounding breaks,
        # so slot 1 only has to pick a grid point
        assert trace.x_hat[0] in SweepDictionary(1024).points
        estimates = [x_warm, trace.x_hat[0]] + [
            cs_estimate(G16, weights[:n], obs[:n]) for n in range(2, slots + 1)
        ]
        self._check_cs_trace(cfg, trace, xs, estimates)

    def test_cs_sinusoidal_trace(self):
        # dynamic: once per 16-slot codebook frame, from the frame's last
        # 8 pilots; the estimate is held in between
        slots = 80
        cfg = RunConfig(
            trajectory=Trajectory.sinusoidal(slots),
            trials=1,
            algorithms=("cs",),
            seed=44,
        )
        trace = run_single_trial(cfg, "cs", trial=0)
        xs, weights, obs, x_warm = self._cs_replay(cfg)
        estimates = [x_warm]
        for n in range(1, slots + 1):
            if n % 16 == 0:
                estimates.append(cs_estimate(G16, weights[n - 8 : n], obs[n - 8 : n]))
            else:
                estimates.append(estimates[-1])
        assert len(set(estimates)) > 2  # refreshes moved the estimate
        self._check_cs_trace(cfg, trace, xs, estimates)

    @pytest.mark.parametrize(
        "track_antennas, slots, seed",
        # 60 and 83 slots end inside a frame, whose window is never scored
        [(8, 60, 45), (5, 83, 46)],
    )
    def test_cs_sinusoidal_subarray_trace(self, track_antennas, slots, seed):
        # frames of m_t slots, each scored from its last m_t // 2 pilots on
        # the subarray; rate and MSE use all 16 antennas
        cfg = RunConfig(
            trajectory=Trajectory.sinusoidal(slots),
            trials=1,
            algorithms=("cs",),
            track_antennas=track_antennas,
            seed=seed,
        )
        trace = run_single_trial(cfg, "cs", trial=0)
        xs, weights, obs, x_warm = self._cs_replay(cfg)
        track, m_t, k_win = cfg.track_geometry, track_antennas, track_antennas // 2
        estimates = [x_warm]
        for n in range(1, slots + 1):
            if n % m_t:
                estimates.append(estimates[-1])
                continue
            win = slice(n - k_win, n)
            ref, got = cs_estimate(track, weights[win], obs[win]), trace.x_hat[n - 1]
            if got != ref:
                # two probes can score two grid points exactly alike, a tie
                # that rounding breaks either way
                tie = [_cs_direct_score(track, weights[win], obs[win], g) for g in (got, ref)]
                assert tie[0] == pytest.approx(tie[1], rel=1e-12)
            estimates.append(got)
        assert len(set(estimates)) > 2  # refreshes moved the estimate
        self._check_cs_trace(cfg, trace, xs, estimates)

    def test_single_trial_matches_batched_run(self):
        cfg = RunConfig(
            trajectory=Trajectory.sinusoidal(30),
            trials=5,
            algorithms=("recursive",),
            seed=5,
            chunk_size=5,
        )
        solo = run_single_trial(cfg, "recursive", trial=0)
        batched = run_experiment(cfg)["recursive"].trace
        np.testing.assert_array_equal(solo.x_hat, batched.x_hat)
        np.testing.assert_array_equal(solo.rate, batched.rate)


class TestDeterminism:
    def test_identical_runs_identical_csv(self, tmp_path):
        cfg = RunConfig(
            trajectory=Trajectory.sinusoidal(25),
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

    def test_worker_count_invariance(self, tmp_path):
        base = dict(
            trajectory=Trajectory.static(20),
            trials=14,
            algorithms=("recursive", "cs"),
            seed=3,
            chunk_size=4,
        )
        files = []
        for jobs in (1, 3):
            cfg = RunConfig(**base, jobs=jobs)
            for name, s in run_experiment(cfg).items():
                p = tmp_path / f"j{jobs}_{name}.csv"
                write_summary_csv(p, s)
                files.append(p)
        n = len(files) // 2
        for a, b in zip(files[:n], files[n:]):
            assert a.read_bytes() == b.read_bytes()

    # static cs is left out: its slot-1 estimate is a tie (one random probe
    # scores every grid point |y_1|) that the batch size's rounding breaks
    @pytest.mark.parametrize(
        "algorithm, trajectory",
        [
            (alg, kind)
            for alg in ("recursive", "80211ad", "ls")
            for kind in ("static", "sinusoidal")
        ]
        + [("cs", "sinusoidal")],
    )
    def test_chunking_only_reorders_rounding(self, algorithm, trajectory):
        base = dict(
            trajectory=getattr(Trajectory, trajectory)(40),
            trials=10,
            algorithms=(algorithm,),
            seed=13,
        )
        s1 = run_experiment(RunConfig(**base, chunk_size=10))[algorithm]
        s2 = run_experiment(RunConfig(**base, chunk_size=3))[algorithm]
        np.testing.assert_allclose(s1.mean_mse_h, s2.mean_mse_h, rtol=1e-12)
        np.testing.assert_allclose(s1.mean_rate, s2.mean_rate, rtol=1e-12)


class TestSummaryContents:
    def test_crlb_reference_column(self):
        cfg = RunConfig(
            trajectory=Trajectory.static(10), trials=2, algorithms=("recursive",)
        )
        s = run_experiment(cfg)["recursive"]
        limit = channel_mse_limit(G16, abs(cfg.beta) ** 2 / cfg.rho)
        np.testing.assert_allclose(s.crlb_h_ref * s.slots, limit, rtol=1e-12)
        # identical to the derivative/information form
        np.testing.assert_allclose(
            s.crlb_h_ref,
            h_prime_norm_sq(G16, cfg.beta) / (s.slots * i_max(G16, cfg.rho)),
            rtol=1e-12,
        )

    def test_ls_columns_without_direction_are_nan(self):
        cfg = RunConfig(
            trajectory=Trajectory.static(8), trials=3, algorithms=("ls",)
        )
        s = run_experiment(cfg)["ls"]
        assert np.isnan(s.n_mse_times_imax).all()
        assert np.isnan(s.conv_frac).all()
        assert np.isfinite(s.mean_mse_h).all()
        assert np.isfinite(s.mean_rate).all()

    def test_csv_schema(self, tmp_path):
        cfg = RunConfig(
            trajectory=Trajectory.static(5), trials=2, algorithms=("recursive",)
        )
        p = tmp_path / "s.csv"
        write_summary_csv(p, run_experiment(cfg)["recursive"])
        lines = p.read_text().splitlines()
        assert lines[0] == "slot,mean_mse_h,n_mse_times_imax,mean_rate,conv_frac,crlb_h_ref"
        assert len(lines) == 6
        assert lines[1].split(",")[0] == "1"

    def test_subset_tracking_uses_full_array_for_rate(self):
        cfg = RunConfig(
            trajectory=Trajectory.static(60, x0=0.11),
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

    def test_validation_errors(self):
        for bad in (
            {"algorithms": ("sorcery",)},
            {"step_kind": "sorcery"},
            {"step_alpha": -0.1},
            {"step_alpha": 0.0},
            {"step_n0": -1.0},
            {"step_kind": "fixed", "step_n0": -1.0},
            {"chunk_size": 0},
            {"steady_skip": -1},
            {"jobs": 0},
            {"jobs": -2},
            {"sweep_dictionary_size": 0},
            {"snr_db": math.nan},
            {"snr_db": math.inf},
            {"num_antennas": 1, "step_alpha": 0.5},
            {"track_antennas": 17},
            {"algorithms": ("ls",), "track_antennas": 8},
            {"spacing_over_wavelength": 0.6},
            {"seed": -1},
            {"seed": 1.0},
            {"seed": True},
            {"seed": "7"},
            {"trials": 2.5},
            {"trials": True},
            {"chunk_size": 4.0},
            {"jobs": 1.5},
            {"jobs": True},
            {"steady_skip": 10.0},
            {"num_antennas": 16.0},
            {"num_antennas": True, "step_alpha": 0.5},
            {"track_antennas": 8.0},
            {"track_antennas": False},
            {"sweep_dictionary_size": 32.0},
            {"step_alpha": math.nan},
            {"step_alpha": math.inf},
            {"step_n0": math.nan},
            {"step_n0": math.inf},
            {"beta": complex(math.nan, 0.0)},
            {"beta": complex(math.inf, 1.0)},
            {"beta": 0j},
        ):
            with pytest.raises(ValueError):
                RunConfig(trajectory=Trajectory.static(5), **bad)
        # the least-squares baseline may name the full array as its subarray
        RunConfig(trajectory=Trajectory.static(5), algorithms=("ls",), track_antennas=16)
        # half-wavelength spacing is the largest without grating lobes
        RunConfig(trajectory=Trajectory.static(5), spacing_over_wavelength=0.5)


@pytest.fixture(scope="module")
def static_all():
    cfg = RunConfig(
        trajectory=Trajectory.static(500),
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
        quant_floor = h_prime_norm_sq(G16, (1 + 1j) / math.sqrt(2)) * (1 / 1024) ** 2 / 3
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
            trajectory=Trajectory.static(400),
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
            trajectory=Trajectory.sinusoidal(400),
            trials=150,
            algorithms=("recursive",),
            seed=18,
        )
        s = run_experiment(cfg)["recursive"]
        assert float(s.conv_frac[100:].mean()) >= 0.99


class TestLsAgainstLibraryEstimator:
    def test_engine_matches_lstsq_solution(self):
        # static: re-estimated every slot from every pilot so far; slot n's
        # rate uses the phase-only beam of the estimate before it
        from beamtrack import ls_data_beam, ls_estimate

        cfg = RunConfig(
            trajectory=Trajectory.static(16),
            trials=1,
            algorithms=("ls",),
            seed=31,
        )
        trace = run_single_trial(cfg, "ls", trial=0)

        plan = RngPlan(31)
        xs = generate(cfg.trajectory, plan.stream(0, STREAM_TRAJECTORY))
        noise = complex_normal(plan.stream(0, STREAM_OBSERVATION, 3), 16 + 16)
        rho = cfg.rho
        beams = dft_codebook(G16)
        chan = ChannelState(xs[0], beta=cfg.beta, snr=rho)
        weights = [beams[m] for m in range(16)]
        obs = [observe(G16, chan, beams[m], noise[m]) for m in range(16)]
        h_hat = ls_estimate(np.stack(weights), np.array(obs))
        for n in range(1, 17):
            expected_rate = achievable_rate(G16, ls_data_beam(h_hat), xs[n], rho)
            d = (n - 1) % 16
            weights.append(beams[d])
            obs.append(observe(G16, ChannelState(xs[n], beta=cfg.beta, snr=rho),
                               beams[d], noise[16 + n - 1]))
            h_hat = ls_estimate(np.stack(weights), np.array(obs))
            expected = abs(cfg.beta) ** 2 * np.sum(
                np.abs(h_hat - steering_vector(G16, xs[n])) ** 2
            )
            assert trace.mse_h[n - 1] == pytest.approx(float(expected), rel=1e-8)
            assert trace.rate[n - 1] == pytest.approx(expected_rate, rel=1e-9)

    @settings(max_examples=60)
    @given(
        m=st.integers(2, 16),
        slots=st.integers(1, 40),
        kind=st.sampled_from(["static", "sinusoidal", "fixed_velocity"]),
        omega=st.floats(0.0, 0.1),
        seed=st.integers(0, 2**40),
    )
    def test_engine_matches_scalar_replay(self, m, slots, kind, omega, seed):
        # slots not a multiple of m end inside a codebook frame, whose
        # estimate a dynamic run never takes
        from beamtrack import ls_data_beam, ls_estimate

        if kind == "fixed_velocity":
            traj = Trajectory.fixed_velocity(slots, omega=omega)
        else:
            traj = getattr(Trajectory, kind)(slots)
        cfg = RunConfig(
            trajectory=traj, num_antennas=m, trials=1, algorithms=("ls",), seed=seed
        )
        trace = run_single_trial(cfg, "ls", trial=0)

        geom = ArrayGeometry(m)
        plan = RngPlan(seed)
        xs = generate(traj, plan.stream(0, STREAM_TRAJECTORY))
        noise = complex_normal(plan.stream(0, STREAM_OBSERVATION, 3), m + slots)
        beams = dft_codebook(geom)

        def pilot(x, d, z):
            return observe(geom, ChannelState(x, beta=cfg.beta, snr=cfg.rho), beams[d], z)

        weights = list(beams)
        obs = [pilot(xs[0], d, noise[d]) for d in range(m)]
        h_hat = ls_estimate(weights, obs)
        rates, mses = [], []
        for n in range(1, slots + 1):
            rates.append(achievable_rate(geom, ls_data_beam(h_hat), xs[n], cfg.rho))
            d = (n - 1) % m
            weights.append(beams[d])
            obs.append(pilot(xs[n], d, noise[m + n - 1]))
            if kind == "static":
                h_hat = ls_estimate(weights, obs)
            elif n % m == 0:
                h_hat = ls_estimate(weights[-m:], obs[-m:])
            err = h_hat - steering_vector(geom, xs[n])
            mses.append(abs(cfg.beta) ** 2 * np.sum(np.abs(err) ** 2))
        np.testing.assert_allclose(trace.mse_h, mses, rtol=1e-9)
        np.testing.assert_allclose(trace.rate, rates, rtol=1e-9)

    def test_dynamic_engine_holds_each_frame_estimate(self):
        # dynamic: one estimate per 16-slot codebook frame from that frame's
        # 16 pilots, held until the next frame's last slot
        from beamtrack import ls_data_beam, ls_estimate

        slots = 56
        cfg = RunConfig(
            trajectory=Trajectory.sinusoidal(slots),
            trials=1,
            algorithms=("ls",),
            seed=32,
        )
        trace = run_single_trial(cfg, "ls", trial=0)

        plan = RngPlan(32)
        xs = generate(cfg.trajectory, plan.stream(0, STREAM_TRAJECTORY))
        noise = complex_normal(plan.stream(0, STREAM_OBSERVATION, 3), 16 + slots)
        beams = dft_codebook(G16)
        chan = ChannelState(xs[0], beta=cfg.beta, snr=cfg.rho)
        warm = [observe(G16, chan, beams[m], noise[m]) for m in range(16)]
        h_hat = ls_estimate(beams, warm)
        frame = []
        for n in range(1, slots + 1):
            expected_rate = achievable_rate(G16, ls_data_beam(h_hat), xs[n], cfg.rho)
            chan = ChannelState(xs[n], beta=cfg.beta, snr=cfg.rho)
            frame.append(observe(G16, chan, beams[(n - 1) % 16], noise[16 + n - 1]))
            if n % 16 == 0:
                h_hat = ls_estimate(beams, frame)
                frame = []
            expected = abs(cfg.beta) ** 2 * np.sum(
                np.abs(h_hat - steering_vector(G16, xs[n])) ** 2
            )
            assert trace.mse_h[n - 1] == pytest.approx(float(expected), rel=1e-8)
            assert trace.rate[n - 1] == pytest.approx(expected_rate, rel=1e-9)
        assert np.isnan(trace.x_hat).all()
