import math

import numpy as np
import pytest

from beamtrack import (
    ArrayGeometry,
    ChannelState,
    SineTrackerState,
    StepSizeSchedule,
    SweepDictionary,
    alpha_star,
    coarse_sweep,
    codebook_directions,
    dft_codebook,
    i_max,
    initialization_hit_rate,
    observe,
    recursive_step,
    steering_vector,
    surrogate_f,
)
from beamtrack.scenarios import complex_normal

G16 = ArrayGeometry(16)
G8 = ArrayGeometry(8)


class TestStepSizeSchedule:
    def test_diminishing_values(self):
        s = StepSizeSchedule.diminishing(0.5, n0=3.0)
        assert s.at(1) == pytest.approx(0.125)
        assert s.at(7) == pytest.approx(0.05)

    def test_fixed_values(self):
        s = StepSizeSchedule.fixed(0.02)
        assert s.at(1) == s.at(1000) == 0.02

    def test_validation(self):
        with pytest.raises(ValueError):
            StepSizeSchedule("linear", 0.1)
        with pytest.raises(ValueError):
            StepSizeSchedule.diminishing(0.0)
        with pytest.raises(ValueError):
            StepSizeSchedule.diminishing(0.1, n0=-1.0)
        for alpha, n0 in ((math.nan, 0.0), (math.inf, 0.0), (0.1, math.nan), (0.1, math.inf)):
            with pytest.raises(ValueError):
                StepSizeSchedule.diminishing(alpha, n0)
        with pytest.raises(ValueError):
            StepSizeSchedule.fixed(math.nan)


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
        np.testing.assert_allclose(
            codebook_directions(ArrayGeometry(4)), [-0.75, -0.25, 0.25, 0.75]
        )

    def test_uniform_grid(self):
        dirs = codebook_directions(G16)
        np.testing.assert_allclose(np.diff(dirs), 2 / 16)
        np.testing.assert_allclose(dirs, -dirs[::-1])

    def test_orthogonality_at_half_wavelength(self):
        beams = dft_codebook(G16)
        dirs = codebook_directions(G16)
        for i in range(16):
            for j in range(16):
                gain = abs(np.vdot(beams[i], steering_vector(G16, dirs[j])))
                if i == j:
                    assert gain == pytest.approx(math.sqrt(16))
                else:
                    assert gain < 1e-10


class TestSweepDictionary:
    def test_points(self):
        pts = SweepDictionary(4).points
        np.testing.assert_allclose(pts, [-0.75, -0.25, 0.25, 0.75])
        assert np.all(np.abs(SweepDictionary(33).points) < 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepDictionary(0)


def _noiseless_sweep_pilots(geom, x):
    beams = dft_codebook(geom)
    return beams.conj() @ steering_vector(geom, x)


class TestCoarseSweep:
    def test_exact_on_dictionary_point(self):
        sweep = SweepDictionary(32)
        for x in sweep.points[2:30:5]:
            pilots = _noiseless_sweep_pilots(G16, x)
            assert coarse_sweep(G16, sweep, pilots) == pytest.approx(x)

    def test_noiseless_resolution(self):
        # interior directions resolve to within one dictionary step
        sweep = SweepDictionary(64)
        rng = np.random.default_rng(2)
        for x in rng.uniform(-0.9, 0.9, 25):
            pilots = _noiseless_sweep_pilots(G16, x)
            assert abs(coarse_sweep(G16, sweep, pilots) - x) <= 1 / 64 + 1e-12

    def test_wrong_pilot_count(self):
        with pytest.raises(ValueError):
            coarse_sweep(G16, SweepDictionary(32), np.ones(8, dtype=complex))

    def test_hit_rate_high_snr(self):
        # strict mainlobe membership; near +-1 the half-wavelength array
        # cannot distinguish a direction from its wrap-around image, which
        # caps the strict rate just below the dictionary-limited one
        rate = initialization_hit_rate(G16, 10.0, 64, trials=10_000, seed=0)
        assert rate >= 0.995


class TestRecursiveStep:
    def test_noiseless_fixed_point(self):
        chan = ChannelState(0.4, snr=10.0)
        state = SineTrackerState(0.4, StepSizeSchedule.diminishing(alpha_star(G16)), G16)
        y = observe(G16, chan, state.probe_weights, 0j)
        new = recursive_step(state, y)
        assert new.x_hat == pytest.approx(0.4, abs=1e-12)
        assert new.slot == 2

    def test_clipping(self):
        state = SineTrackerState(0.99, StepSizeSchedule.fixed(1.0), G16)
        new = recursive_step(state, -0.05j)  # step +0.05 past the edge
        assert new.x_hat == 1.0

    def test_noiseless_step_equals_drift(self):
        rng = np.random.default_rng(9)
        sched = StepSizeSchedule.diminishing(alpha_star(G16), n0=2.0)
        for _ in range(1000):
            v, x = rng.uniform(-1, 1, 2)
            slot = int(rng.integers(1, 50))
            state = SineTrackerState(v, sched, G16, slot=slot)
            y = observe(G16, ChannelState(x), state.probe_weights, 0j)
            expected = np.clip(v + sched.at(slot) * surrogate_f(G16, v, x), -1, 1)
            assert recursive_step(state, y).x_hat == pytest.approx(
                float(expected), abs=1e-12
            )

    def test_estimate_always_in_range(self):
        state = SineTrackerState(0.0, StepSizeSchedule.fixed(5.0), G8)
        rng = np.random.default_rng(1)
        for _ in range(100):
            state = recursive_step(state, complex(rng.normal(), rng.normal()))
            assert -1.0 <= state.x_hat <= 1.0
