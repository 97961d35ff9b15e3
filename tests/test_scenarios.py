import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beamtrack import RngPlan, Trajectory, complex_normal, generate
from beamtrack.scenarios import STREAM_TRAJECTORY


class TestStatic:
    def test_constant_per_trial(self):
        traj = Trajectory.static(100)
        xs = generate(traj, np.random.default_rng(0))
        assert xs.shape == (101,)
        assert np.all(xs == xs[0])
        assert -1 <= xs[0] <= 1

    def test_pinned_direction(self):
        xs = generate(Trajectory.static(10, x0=0.25), np.random.default_rng(0))
        assert np.all(xs == 0.25)


class TestSinusoidal:
    def test_half_period_returns_to_zero(self):
        traj = Trajectory.sinusoidal(600, jitter=0.0)
        xs = generate(traj, np.random.default_rng(0))
        assert xs[500] == pytest.approx(0.0, abs=1e-12)
        assert xs[250] == pytest.approx(math.sin(math.pi / 3), rel=1e-12)

    def test_jitter_clipped_to_physical_range(self):
        traj = Trajectory.sinusoidal(2000, jitter=2.0)
        xs = generate(traj, np.random.default_rng(1))
        assert np.all(np.abs(xs) <= 1.0)


class TestFixedVelocity:
    def test_reflection_slot(self):
        # at 0.064 rad/slot the band edge pi/3 forces a reflection on slot 17
        traj = Trajectory.fixed_velocity(40, omega=0.064)
        xs = generate(traj, np.random.default_rng(0))
        theta = np.arcsin(xs)
        assert theta[16] == pytest.approx(16 * 0.064)
        assert theta[17] == pytest.approx(16 * 0.064 - 0.064)

    def test_exact_step_and_band(self):
        traj = Trajectory.fixed_velocity(500, omega=0.11)
        theta = np.arcsin(generate(traj, np.random.default_rng(0)))
        np.testing.assert_allclose(np.abs(np.diff(theta)), 0.11, rtol=1e-12)
        assert np.all(np.abs(theta) <= math.pi / 3 + 1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            Trajectory.fixed_velocity(10, omega=-0.1)
        with pytest.raises(ValueError):
            Trajectory.fixed_velocity(0, omega=0.1)
        with pytest.raises(ValueError):
            Trajectory.fixed_velocity(10, omega=2.0)
        with pytest.raises(ValueError):
            Trajectory("wobbly", 10)
        for slots in (2.5, 10.0, True):
            with pytest.raises(ValueError):
                Trajectory.static(slots)

    @pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf])
    def test_non_finite_omega_rejected(self, omega):
        with pytest.raises(ValueError, match="finite"):
            Trajectory.fixed_velocity(10, omega=omega)


class TestRngPlan:
    def test_reproducible(self):
        a = RngPlan(42).stream(3, 1, 2).standard_normal(8)
        b = RngPlan(42).stream(3, 1, 2).standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_streams_distinct(self):
        plan = RngPlan(42)
        base = plan.stream(0, 0).standard_normal(8)
        for trial, sid, tag in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            other = plan.stream(trial, sid, tag).standard_normal(8)
            assert not np.allclose(base, other)

    # word boundaries of SeedSequence's integer coercion: a seed of 2**32 or
    # more takes several entropy words and overflows the 4-word pool
    EDGE_SEEDS = (0, 2**32 - 1, 2**32, 2**70 + 12345)

    @settings(max_examples=100)
    @given(
        seed=st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**80)),
        start=st.one_of(st.just(0), st.integers(1, 10**6), st.just(2**32 - 2)),
        count=st.integers(1, 5),
        stream_id=st.integers(0, 3),
        tag=st.integers(0, 4),
    )
    @example(seed=0, start=0, count=3, stream_id=0, tag=0)
    @example(seed=2**32 - 1, start=500, count=2, stream_id=1, tag=4)
    @example(seed=2**32, start=0, count=2, stream_id=2, tag=1)
    @example(seed=2**70 + 12345, start=2**32 - 2, count=4, stream_id=3, tag=2)
    def test_batch_matches_stream(self, seed, start, count, stream_id, tag):
        plan = RngPlan(seed)
        trials = range(start, start + count)
        batch = plan.batch(trials, stream_id, tag)
        seen = 0
        for trial, rng in zip(trials, batch):
            ref = plan.stream(trial, stream_id, tag)
            normals = np.empty((3, 2))
            rng.standard_normal(out=normals)
            np.testing.assert_array_equal(normals, ref.standard_normal((3, 2)))
            assert rng.uniform(-1.0, 1.0) == ref.uniform(-1.0, 1.0)
            np.testing.assert_array_equal(
                rng.integers(0, 4, 7, dtype=np.int8),
                ref.integers(0, 4, 7, dtype=np.int8),
            )
            seen += 1
        assert seen == count
        assert next(batch, None) is None

    def test_batch_needs_unit_step(self):
        with pytest.raises(ValueError, match="step"):
            next(RngPlan(0).batch(range(0, 4, 2), 0))

    def test_trajectories_shared_across_algorithms(self):
        plan = RngPlan(7)
        t1 = generate(Trajectory.static(5), plan.stream(4, STREAM_TRAJECTORY))
        t2 = generate(Trajectory.static(5), plan.stream(4, STREAM_TRAJECTORY))
        np.testing.assert_array_equal(t1, t2)


class TestComplexNormal:
    def test_moments(self):
        z = complex_normal(np.random.default_rng(0), 200_000)
        assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, rel=0.02)
        assert np.var(z.real) == pytest.approx(0.5, rel=0.03)
        assert np.var(z.imag) == pytest.approx(0.5, rel=0.03)
        assert abs(np.mean(z)) < 0.01
