import math

import numpy as np
import pytest
import reference as ref
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import (
    complex_normal,
    conjugate_beam,
    fisher_information,
    log_likelihood,
    observe,
    steering_vector,
)

from beamtrack import (
    ArrayGeometry,
    alpha_star,
    array_kernel_polar,
    channel_mse_limit,
    crlb_min,
    dft_codebook,
    h_prime_norm_sq,
    i_max,
    mainlobe_halfwidth,
    sine_grid,
    stable_point_spacing,
    stable_points,
    steering_matrix,
    surrogate_f,
)

G16 = ArrayGeometry(16)
G8 = ArrayGeometry(8)


class TestSteeringVector:
    """``steering_matrix`` of one scalar direction: the steering vector."""

    def test_broadside_all_ones(self):
        np.testing.assert_allclose(steering_matrix(ArrayGeometry(4), 0.0), np.ones(4))

    def test_endfire_two_elements(self):
        np.testing.assert_allclose(
            steering_matrix(ArrayGeometry(2), 1.0), [1.0, -1.0], atol=1e-15
        )

    def test_unit_modulus_and_norm(self):
        rng = np.random.default_rng(0)
        for x in rng.uniform(-1, 1, 50):
            a = steering_matrix(G8, x)
            np.testing.assert_allclose(np.abs(a), 1.0)
            assert np.linalg.norm(a) ** 2 == pytest.approx(8.0)
            assert a[0] == pytest.approx(1.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            steering_matrix(G8, 1.2)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            ArrayGeometry(1)


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
        amp, phase = array_kernel_polar(ArrayGeometry(m), delta)
        np.testing.assert_allclose(
            amp * np.exp(1j * phase), direct, rtol=0, atol=1e-14 * m**2
        )

    @settings(max_examples=200)
    @given(
        m=st.integers(2, 256),
        free=st.lists(st.floats(-2.0, 2.0), max_size=20),
        offsets=st.lists(st.floats(-1e-9, 1e-9), min_size=3, max_size=3),
    )
    @example(m=256, free=[1.0, -1.0, 2 - 1e-7], offsets=[1e-9, -1e-9, 1e-9])
    def test_polar_parts_are_the_complex_parts(self, m, free, offsets):
        # each consumer of the polar form takes one part: the channel MSE
        # amp*cos(phase), the recursive step amp*sin(phase), the rate amp**2;
        # the first two are the parts of amp*exp(1j*phase) bit for bit (up to
        # the sign of a zero), the third its squared magnitude up to rounding.
        # The step takes Im(y) of a noisy pilot y = ip/sqrt(M) + n from its
        # parts, and that too is bit for bit the complex pilot's
        geom = ArrayGeometry(m)
        edges = np.array([0.0, 2.0, -2.0])
        near = np.clip(edges + np.array(offsets), -2.0, 2.0)
        delta = np.concatenate([edges, near, free])
        amp, phase = array_kernel_polar(geom, delta)
        ip = amp * np.exp(1j * phase)
        np.testing.assert_array_equal(amp * np.cos(phase), ip.real)
        np.testing.assert_array_equal(amp * np.sin(phase), ip.imag)
        np.testing.assert_allclose(np.square(amp), np.abs(ip) ** 2, rtol=1e-15, atol=0)
        rng = np.random.default_rng(m)
        noise = rng.standard_normal(len(delta)) + 1j * rng.standard_normal(len(delta))
        noise *= 10.0 ** rng.uniform(-16.0, 1.0, len(delta))
        pilot = amp * np.exp(1j * phase) / math.sqrt(m) + noise
        step = amp * np.sin(phase) * (1.0 / math.sqrt(m)) + noise.imag
        assert pilot.imag.tobytes() == step.tobytes()

    @pytest.mark.parametrize("m", [4, 16])
    @pytest.mark.parametrize("delta", [0.0, 2.0, -2.0, 0.3])
    def test_scalar_delta_matches_array(self, m, delta):
        # a scalar delta, also at the singular points 0 and +-2, gives the
        # amplitude and phase of a one-element array, bit for bit
        geom = ArrayGeometry(m)
        amp, phase = array_kernel_polar(geom, delta)
        want_amp, want_phase = array_kernel_polar(geom, np.array([delta]))
        assert np.ndim(amp) == np.ndim(phase) == 0
        assert np.reshape(amp, 1).tobytes() == want_amp.tobytes()
        assert np.reshape(phase, 1).tobytes() == want_phase.tobytes()


class TestConjugateBeam:
    def test_matched_filter_gain(self):
        x = 0.37
        w = conjugate_beam(G16, x)
        a = steering_vector(G16, x)
        assert abs(np.vdot(w, a)) ** 2 == pytest.approx(16.0)

    def test_broadside_entries(self):
        np.testing.assert_allclose(conjugate_beam(ArrayGeometry(4), 0.0), 0.5 * np.ones(4))

    def test_unit_norm(self):
        for x in (-1.0, -0.3, 0.9):
            assert np.linalg.norm(conjugate_beam(G16, x)) == pytest.approx(1.0)


class TestObserve:
    def test_noiseless_matched(self):
        y = observe(G16, 0.25, 10.0, conjugate_beam(G16, 0.25), 0j)
        assert y == pytest.approx(4.0)

    def test_orthogonal_codebook_directions(self):
        g = ArrayGeometry(2)
        y = observe(g, 0.0, 10.0, conjugate_beam(g, 1.0), 0j)
        assert abs(y) == pytest.approx(0.0, abs=1e-15)

    def test_noise_variance(self):
        # Monte Carlo oracle: residual power must equal 1/snr
        rng = np.random.default_rng(7)
        x, snr = 0.4, 5.0
        w = conjugate_beam(G8, -0.2)
        clean = observe(G8, x, snr, w, 0j)
        z = complex_normal(rng, 200_000)
        resid = np.abs(z / math.sqrt(snr)) ** 2
        assert resid.mean() == pytest.approx(1.0 / snr, rel=0.02)
        # spot-check observe applies the same scaling
        y = observe(G8, x, snr, w, complex(z[0]))
        assert y - clean == pytest.approx(z[0] / math.sqrt(snr))


class TestFisherInformation:
    def test_matched_equals_maximum(self):
        w = conjugate_beam(G16, 0.3)
        val = fisher_information(G16, 10.0, 0.3, w)
        assert abs(val - i_max(G16, 10.0)) <= 1e-9 * i_max(G16, 10.0)

    def test_hand_evaluated_maximum(self):
        # 2 * 16 * 15^2 * pi^2 * 0.25 * 10
        assert i_max(G16, 10.0) == pytest.approx(18000 * math.pi**2, rel=1e-12)

    def test_two_element_maximum(self):
        assert i_max(ArrayGeometry(2), 1.0) == pytest.approx(math.pi**2, rel=1e-12)

    def test_linear_in_snr(self):
        assert i_max(G8, 20.0) == pytest.approx(2 * i_max(G8, 10.0), rel=1e-12)

    def test_never_exceeds_maximum(self):
        rng = np.random.default_rng(3)
        cap = i_max(G8, 10.0)
        for _ in range(1000):
            w = np.exp(1j * rng.uniform(-np.pi, np.pi, 8)) / math.sqrt(8)
            assert fisher_information(G8, 10.0, 0.1, w) <= cap * (1 + 1e-12)

    def test_global_phase_also_attains_maximum(self):
        w = conjugate_beam(G8, -0.6) * np.exp(1j * 1.234)
        val = fisher_information(G8, 2.0, -0.6, w)
        assert val == pytest.approx(i_max(G8, 2.0), rel=1e-9)

    def test_finite_difference_oracle(self):
        # -E[d^2/dx^2 log p] estimated with common random numbers and
        # Richardson-extrapolated central second differences (h = 1e-4)
        geom, x, rho = G8, 0.2, 10.0
        w = conjugate_beam(geom, x)
        h = 1e-4
        rng = np.random.default_rng(11)
        y = observe(geom, x, rho, w, 0j) + complex_normal(rng, 100_000) / math.sqrt(rho)

        def mean_neg_d2(step):
            mus = [
                np.sum(np.conj(w) * steering_vector(geom, x + d))
                for d in (-step, 0.0, step)
            ]
            sq = [np.mean(np.abs(y - mu) ** 2) for mu in mus]
            return rho * (sq[0] - 2 * sq[1] + sq[2]) / step**2

        est = (4 * mean_neg_d2(h / 2) - mean_neg_d2(h)) / 3
        truth = fisher_information(geom, rho, x, w)
        assert est == pytest.approx(truth, rel=0.01)


class TestCrlb:
    def test_single_slot_value(self):
        assert crlb_min(G16, 10.0, 1) == pytest.approx(1 / (18000 * math.pi**2))
        assert crlb_min(G16, 10.0, 1) == pytest.approx(5.6295e-6, rel=1e-4)

    def test_doubling_slots_halves_bound(self):
        assert crlb_min(G8, 3.0, 64) == pytest.approx(crlb_min(G8, 3.0, 32) / 2)

    def test_zero_slots_rejected(self):
        with pytest.raises(ValueError):
            crlb_min(G8, 3.0, 0)


class TestSurrogateDrift:
    def test_zero_at_truth(self):
        for x in (-0.9, 0.0, 0.77):
            assert surrogate_f(G16, x, x) == pytest.approx(0.0, abs=1e-12)

    def test_noiseless_observation_identity(self):
        # Im{y} = -f(v, x) to machine precision for random pairs
        rng = np.random.default_rng(5)
        for _ in range(1000):
            v, x = rng.uniform(-1, 1, 2)
            y = observe(G16, x, 10.0, conjugate_beam(G16, v), 0j)
            assert abs(np.imag(y) + surrogate_f(G16, v, x)) < 1e-10

    def test_sign_pattern_inside_mainlobe(self):
        x = 0.3
        for dv in np.linspace(1e-3, 0.05, 20):
            assert surrogate_f(G16, x - dv, x) > 0
            assert surrogate_f(G16, x + dv, x) < 0

    def test_zero_crossing_grid(self):
        # v = 0.5 + 2k/7 are descending zeros for an 8-element array
        x = 0.5
        for k in (-3, -1, 1, 2):
            v = x + 2 * k / 7
            if -1 < v <= 1:
                assert surrogate_f(G8, v, x) == pytest.approx(0.0, abs=1e-12)

    def test_array_input_matches_scalar_calls(self):
        vs = np.linspace(-1.0, 1.0, 41)
        fs = surrogate_f(G16, vs, 0.3)
        assert isinstance(fs, np.ndarray) and fs.shape == vs.shape
        assert isinstance(surrogate_f(G16, 0.1, 0.3), float)
        np.testing.assert_array_equal(fs, [surrogate_f(G16, v, 0.3) for v in vs])

    def test_out_of_range_direction_rejected(self):
        with pytest.raises(ValueError):
            surrogate_f(G8, np.array([0.0, 1.2]), 0.3)
        with pytest.raises(ValueError):
            surrogate_f(G8, 0.0, -1.5)

    def test_array_truth_rejected(self):
        # the truth is one sine: an array of them once gave the drift toward
        # its first entry alone
        with pytest.raises(ValueError, match=r"^x must be one direction sine, got shape \(2,\)$"):
            surrogate_f(G8, 0.2, np.array([0.1, 0.5]))


class TestStablePoints:
    def test_spacing(self):
        pts = stable_points(G8, 0.5)
        assert stable_point_spacing(G8) == pytest.approx(2 / 7)
        np.testing.assert_allclose(np.diff(pts), 2 / 7)

    def test_truth_is_member(self):
        for x in (-0.8, 0.0, 0.5):
            pts = stable_points(G16, x)
            assert np.min(np.abs(pts - x)) < 1e-12

    def test_array_truth_rejected(self):
        # the truth is one sine: an array of them once ended in numpy's
        # ambiguous truth value
        with pytest.raises(ValueError, match=r"^x must be one direction sine, got shape \(2,\)$"):
            stable_points(G8, np.array([0.1, 0.2]))

    def test_range_is_half_open(self):
        pts = stable_points(G16, 0.2)
        assert pts.min() > -1.0
        assert pts.max() <= 1.0
        assert len(pts) == 15

    @settings(max_examples=500)
    @given(m=st.integers(2, 64), x=st.floats(-1.0, 1.0))
    @example(m=21, x=-0.7)
    @example(m=26, x=0.12)
    @example(m=8, x=-1.0)
    def test_each_attractor_once_in_range(self, m, x):
        # x + 2k/(M-1) is 2-periodic in k over M-1 steps, so (-1, 1] holds
        # exactly M-1 attractors; one within rounding of +-1 is listed once
        pts = stable_points(ArrayGeometry(m), x)
        assert len(pts) == m - 1
        assert pts.min() > -1.0 and pts.max() <= 1.0
        assert np.all(np.diff(pts) > 0)
        assert (x if x > -1.0 else 1.0) in pts
        steps = (pts - x) * (m - 1) / 2
        ks = np.round(steps)
        np.testing.assert_allclose(steps, ks, rtol=0, atol=1e-9)
        assert len(set(ks.astype(int) % (m - 1))) == m - 1

    @pytest.mark.parametrize("m", [4, 8, 16])
    def test_zeros_with_negative_slope(self, m):
        geom = ArrayGeometry(m)
        x = 0.31
        eps = 1e-6
        for v in stable_points(geom, x):
            assert abs(surrogate_f(geom, v, x)) < 1e-9
            lo, hi = max(v - eps, -1.0), min(v + eps, 1.0)
            slope = (surrogate_f(geom, hi, x) - surrogate_f(geom, lo, x)) / (hi - lo)
            assert slope < 0

    @settings(max_examples=200)
    @given(m=st.integers(2, 64), x=st.floats(-1.0, 1.0))
    def test_sidelobe_slope_is_one_mth_of_central(self, m, x):
        # the closed-form drift slope df/dv = -sum_i k i cos(k i (v - x))/sqrt(M)
        # with k = pi at x + 2j/(M-1) sums cos(2 pi i j/(M-1)), which is exactly
        # 1/M of its sum at v = x unless a(v) = a(x) (j a multiple of M-1)
        geom = ArrayGeometry(m)
        k, i = math.pi, np.arange(m)

        def slope(v):
            return -np.sum(k * i * np.cos(k * i * (v - x))) / math.sqrt(m)

        for v in stable_points(geom, x):
            j = round((v - x) / stable_point_spacing(geom))
            if j % (m - 1):
                assert slope(v) == pytest.approx(slope(x) / m, rel=1e-12, abs=0)


class TestMainlobe:
    @pytest.mark.parametrize("m,d", [(16, 0.5), (8, 0.5)])
    def test_halfwidth_is_first_null(self, m, d):
        # lambda/(M d) from broadside is the beam's first zero
        geom = ArrayGeometry(m)
        hw = mainlobe_halfwidth(geom)
        assert hw == pytest.approx(1.0 / (m * d))
        a0 = steering_vector(geom, 0.0)
        assert abs(np.vdot(a0, steering_vector(geom, hw))) < 1e-12
        assert abs(np.vdot(a0, steering_vector(geom, 0.9 * hw))) > 0.1


class TestGeneralSpacingOracle:
    def test_half_wavelength_forms_equal_general_forms(self):
        # the package writes the paper's closed forms for d = lambda/2; they
        # are the general-d forms at d = 1/2, bit for bit
        assert ref.general_phase_step(0.5) == math.pi
        for m in range(2, 257):
            geom = ArrayGeometry(m)
            assert alpha_star(geom) == ref.general_alpha_star(m, 0.5)
            assert mainlobe_halfwidth(geom) == ref.general_mainlobe_halfwidth(m, 0.5)
            assert stable_point_spacing(geom) == ref.general_stable_point_spacing(m, 0.5)
            assert h_prime_norm_sq(geom) == ref.general_h_prime_norm_sq(m, 0.5)
            for snr_db in (-20.0, -3.0, 0.0, 7.5, 10.0, 30.0):
                rho = 10.0 ** (snr_db / 10.0)
                assert i_max(geom, rho) == ref.general_i_max(m, 0.5, rho)


class TestLogLikelihood:
    def test_peak_value(self):
        w = conjugate_beam(G8, 0.5)
        y = observe(G8, 0.1, 4.0, w, 0j)
        assert log_likelihood(G8, 4.0, y, 0.1, w) == pytest.approx(
            math.log(4.0 / math.pi)
        )

    def test_decreases_with_residual(self):
        w = conjugate_beam(G8, 0.1)
        y0 = observe(G8, 0.1, 4.0, w, 0j)
        vals = [log_likelihood(G8, 4.0, y0 + off, 0.1, w) for off in (0, 0.1, 0.3, 1.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_score_proportional_to_negative_imag(self):
        # at the probed direction the likelihood slope in x is a fixed
        # negative multiple of Im{y}
        geom, x_hat, rho = G8, -0.35, 10.0
        w = conjugate_beam(geom, x_hat)
        h = 1e-6
        rng = np.random.default_rng(21)
        ratios = []
        for _ in range(50):
            y = complex(observe(geom, 0.2, rho, w, complex_normal(rng, 1)[0]))
            slope = (
                log_likelihood(geom, rho, y, x_hat + h, w)
                - log_likelihood(geom, rho, y, x_hat - h, w)
            ) / (2 * h)
            ratios.append(slope / np.imag(y))
        ratios = np.asarray(ratios)
        assert np.all(ratios < 0)
        assert ratios.std() / abs(ratios.mean()) < 1e-4


class TestChannelMseLimit:
    def test_reported_value(self):
        # (2M-1) sigma^2 / (3(M-1)) at M=16, sigma^2=0.1
        assert channel_mse_limit(G16, 0.1) == pytest.approx(31 * 0.1 / 45)
        assert channel_mse_limit(G16, 0.1) == pytest.approx(0.068889, rel=1e-4)

    def test_matches_derivative_over_information(self):
        for m, rho in ((8, 3.0), (16, 10.0)):
            geom = ArrayGeometry(m)
            assert h_prime_norm_sq(geom) / i_max(geom, rho) == pytest.approx(
                channel_mse_limit(geom, 1.0 / rho), rel=1e-12
            )


class TestAlphaStar:
    def test_sixteen_antennas(self):
        assert alpha_star(G16) == pytest.approx(1 / (30 * math.pi))
        assert alpha_star(G16) == pytest.approx(0.0106103, rel=1e-5)

    def test_eight_antennas(self):
        assert alpha_star(G8) == pytest.approx(2 / (7 * math.sqrt(8) * math.pi))
        assert alpha_star(G8) == pytest.approx(0.0321542, rel=1e-5)

    def test_square_times_information_is_twice_snr(self):
        for m, rho in ((4, 1.0), (8, 10.0), (16, 2.5)):
            geom = ArrayGeometry(m)
            assert alpha_star(geom) ** 2 * i_max(geom, rho) == pytest.approx(
                2 * rho, rel=1e-12
            )


class TestDftCodebook:
    def test_four_antenna_directions(self):
        geom = ArrayGeometry(4)
        np.testing.assert_array_equal(dft_codebook(geom), steering_matrix(geom, sine_grid(4)) / 2)

    def test_uniform_grid(self):
        dirs = sine_grid(16)
        np.testing.assert_allclose(np.diff(dirs), 2 / 16)
        np.testing.assert_allclose(dirs, -dirs[::-1])

    def test_orthogonality_at_half_wavelength(self):
        beams = dft_codebook(G16)
        dirs = sine_grid(16)
        for i in range(16):
            for j in range(16):
                gain = abs(np.vdot(beams[i], steering_vector(G16, dirs[j])))
                if i == j:
                    assert gain == pytest.approx(math.sqrt(16))
                else:
                    assert gain < 1e-10
        # unitary for every M, so least squares combines with the codebook
        # itself and the coarse sweep's score is the normalized matched filter
        for m in range(2, 33):
            beams = dft_codebook(ArrayGeometry(m))
            np.testing.assert_allclose(beams @ beams.conj().T, np.eye(m), rtol=0, atol=1e-12)


class TestSineGrid:
    def test_points(self):
        np.testing.assert_allclose(sine_grid(4), [-0.75, -0.25, 0.25, 0.75])
        assert np.all(np.abs(sine_grid(33)) < 1.0)
