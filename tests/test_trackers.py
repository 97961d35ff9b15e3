import math

import numpy as np
import pytest

from beamtrack import (
    ArrayGeometry,
    RunConfig,
    alpha_star,
    codebook_directions,
    dft_codebook,
    i_max,
    initialization_hit_rate,
    run_single_trial,
    sine_grid,
    steering_vector,
    surrogate_f,
)
from beamtrack.harness import _sweep_estimate

G16 = ArrayGeometry(16)
G8 = ArrayGeometry(8)
NOISELESS_DB = 300.0  # pilot noise of order 1e-15


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


class TestStepSizeSchedule:
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
            with pytest.raises(ValueError, match="alpha must be positive and finite"):
                RunConfig(slots=5, step_alpha=alpha)


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
        # unitary for every M, so least squares combines with the codebook
        # itself and the coarse sweep's score is the normalized matched filter
        for m in range(2, 33):
            beams = dft_codebook(ArrayGeometry(m))
            np.testing.assert_allclose(beams @ beams.conj().T, np.eye(m), rtol=0, atol=1e-12)


class TestSweepDictionary:
    def test_points(self):
        np.testing.assert_allclose(sine_grid(4), [-0.75, -0.25, 0.25, 0.75])
        assert np.all(np.abs(sine_grid(33)) < 1.0)


def _noiseless_sweep_pilots(geom, x):
    beams = dft_codebook(geom)
    return beams.conj() @ steering_vector(geom, x)


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
