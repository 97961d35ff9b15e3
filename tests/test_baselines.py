import math

import numpy as np
import pytest
import reference as ref
from hypothesis import example, given
from hypothesis import strategies as st

from beamtrack import (
    ArrayGeometry,
    RunConfig,
    dft_codebook,
    run_experiment,
    run_single_trial,
    sine_grid,
)
from beamtrack.harness import QPSK, ls_data_beam

G16 = ArrayGeometry(16)
DIRS = sine_grid(16)
NOISELESS_DB = 300.0  # pilot noise of order 1e-15


def _config(algorithm, **kw):
    return RunConfig(algorithms=(algorithm,), **kw)


def _nearest_beam(x):
    return DIRS[np.argmin(np.abs(DIRS[:, None] - np.asarray(x)), axis=0)]


class TestAd11:
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


class TestLsEstimate:
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


class TestCsEstimate:
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

    def test_deterministic_given_seed(self):
        def one(seed):
            cfg = _config("cs", trajectory="sinusoidal", slots=48, snr_db=5.0, seed=seed)
            return run_single_trial(cfg, "cs").x_hat

        np.testing.assert_array_equal(one(5), one(5))
        assert not np.array_equal(one(5), one(6))
