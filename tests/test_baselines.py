import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from beamtrack import (
    QPSK,
    Ad11State,
    ArrayGeometry,
    ChannelState,
    SweepDictionary,
    ad11_probe_index,
    ad11_step,
    cs_estimate,
    codebook_directions,
    dft_codebook,
    ls_data_beam,
    ls_estimate,
    observe,
    steering_vector,
)
from beamtrack.scenarios import complex_normal

G16 = ArrayGeometry(16)


def _run_ad11(geom, chan, state, codebook, slots, rng=None):
    """Drive the sweep-and-refine tracker with real observations."""
    beams = []
    for _ in range(slots):
        idx = ad11_probe_index(state)
        noise = 0j if rng is None else complex(complex_normal(rng, 1)[0])
        y = observe(geom, chan, codebook[idx], noise)
        state, beam = ad11_step(state, y, codebook)
        beams.append(beam)
    return state, beams


class TestAd11:
    def test_sweep_locks_onto_codebook_direction(self):
        dirs = codebook_directions(G16)
        codebook = dft_codebook(G16)
        chan = ChannelState(dirs[5], snr=10.0)
        state = Ad11State(num_beams=16)
        state, _ = _run_ad11(G16, chan, state, codebook, slots=16)
        assert state.phase == "tracking"
        assert state.best_index == 5
        # refinement rounds never leave the true bin without noise
        state, beams = _run_ad11(G16, chan, state, codebook, slots=30)
        assert state.best_index == 5
        np.testing.assert_array_equal(beams[-1], codebook[5])

    def test_tracking_follows_one_bin_move(self):
        dirs = codebook_directions(G16)
        codebook = dft_codebook(G16)
        state = Ad11State(num_beams=16, best_index=7, phase="tracking")
        moved = ChannelState(dirs[8], snr=10.0)
        state, _ = _run_ad11(G16, moved, state, codebook, slots=3)
        assert state.best_index == 8

    def test_boundary_probes_nearest_distinct(self):
        assert Ad11State(num_beams=16, best_index=0, phase="tracking").candidates == (0, 1, 2)
        assert Ad11State(num_beams=16, best_index=15, phase="tracking").candidates == (13, 14, 15)
        assert Ad11State(num_beams=16, best_index=6, phase="tracking").candidates == (5, 6, 7)

    def test_data_beam_is_codebook_member(self):
        codebook = dft_codebook(G16)
        chan = ChannelState(0.1, snr=1.0)
        rng = np.random.default_rng(0)
        state = Ad11State(num_beams=16)
        state, beams = _run_ad11(G16, chan, state, codebook, slots=40, rng=rng)
        for beam in beams:
            assert any(np.allclose(beam, row) for row in codebook)

    def test_half_bin_gain_cap(self):
        # direction midway between bins: in noiseless tracking the data beam
        # gain equals the half-bin kernel value, about 0.4066*M
        dirs = codebook_directions(G16)
        x = (dirs[7] + dirs[8]) / 2
        codebook = dft_codebook(G16)
        state = Ad11State(num_beams=16)
        state, beams = _run_ad11(G16, ChannelState(x, snr=10.0), state, codebook, 16 + 9)
        gain = abs(np.vdot(beams[-1], steering_vector(G16, x))) ** 2
        # independent evaluation of the array kernel at half-bin offset
        kernel = (
            np.sin(math.pi * 16 * (1 / 16) / 2) ** 2
            / (16 * np.sin(math.pi * (1 / 16) / 2) ** 2)
        )
        assert gain == pytest.approx(kernel, rel=1e-9)
        assert kernel == pytest.approx(0.4066 * 16, rel=1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            Ad11State(num_beams=2)


class TestLsEstimate:
    def test_noiseless_full_sweep_exact(self):
        beta = (1 + 1j) / math.sqrt(2)
        x = 0.341
        beams = dft_codebook(G16)
        h = beta * steering_vector(G16, x)
        pilots = np.conj(beams) @ h  # w^H h, no noise
        h_hat = ls_estimate(beams, pilots)
        np.testing.assert_allclose(h_hat, h, atol=1e-10)

    def test_noise_level_matches_gram_prediction(self):
        # E||h_hat - h||^2 equals (1/rho) * tr((A^H A)^-1) for the codebook
        rho = 10.0
        beams = dft_codebook(G16)
        a = np.conj(beams)
        gram_inv = np.linalg.inv(a.conj().T @ a)
        predicted = np.trace(gram_inv).real / rho
        assert predicted == pytest.approx(16 / rho, rel=1e-9)  # orthonormal sweep

        rng = np.random.default_rng(4)
        h = steering_vector(G16, -0.55)
        errs = []
        for _ in range(2000):
            y = a @ h + complex_normal(rng, 16) / math.sqrt(rho)
            errs.append(np.sum(np.abs(ls_estimate(beams, y) - h) ** 2))
        assert np.mean(errs) == pytest.approx(predicted, rel=0.1)

    def test_phase_only_beam_from_exact_estimate(self):
        h = (2.0 - 1.0j) * steering_vector(G16, 0.7)
        w = ls_data_beam(h)
        np.testing.assert_allclose(np.abs(w), 1 / 4)
        assert abs(np.vdot(w, steering_vector(G16, 0.7))) ** 2 == pytest.approx(16.0)

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

    def test_singular_system_rejected(self):
        w = dft_codebook(G16)[3]
        weights = np.tile(w, (16, 1))
        with pytest.raises(np.linalg.LinAlgError):
            ls_estimate(weights, np.ones(16, dtype=complex))


def _qpsk_probes(rng, pilots):
    """Random four-phase probes of modulus 1/sqrt(16), one pilot per row."""
    return QPSK[rng.integers(0, 4, (pilots, 16))] / 4


class TestCsEstimate:
    def test_noiseless_on_grid_exact(self):
        grid = SweepDictionary(1024).points
        x = grid[700]
        rng = np.random.default_rng(3)
        weights = _qpsk_probes(rng, 8)
        obs = np.conj(weights) @ steering_vector(G16, x)
        assert cs_estimate(G16, weights, obs) == pytest.approx(x)

    def test_off_grid_quantization(self):
        rng = np.random.default_rng(6)
        for x in rng.uniform(-0.9, 0.9, 10):
            weights = _qpsk_probes(rng, 8)
            obs = np.conj(weights) @ steering_vector(G16, x)
            assert abs(cs_estimate(G16, weights, obs) - x) <= 1 / 1024 + 1e-12

    def test_probe_alphabet(self):
        # the engine's int8 picks index the four phases {1, j, -1, -j}
        np.testing.assert_array_equal(QPSK, [1, 1j, -1, -1j])
        w = _qpsk_probes(np.random.default_rng(0), 1)
        np.testing.assert_allclose(np.abs(w), 0.25, rtol=1e-15)

    def test_deterministic_given_seed(self):
        def one(seed):
            rng = np.random.default_rng(seed)
            weights = _qpsk_probes(rng, 8)
            obs = np.conj(weights) @ steering_vector(G16, 0.123) + complex_normal(
                rng, 8
            ) * 0.3
            return cs_estimate(G16, weights, obs)

        assert one(5) == one(5)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            cs_estimate(G16, np.empty((0, 16), dtype=complex), np.empty(0, dtype=complex))
