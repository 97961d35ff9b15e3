import math

import numpy as np
import pytest
import reference as ref
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beamtrack import RngPlan, RunConfig, generate
from beamtrack.scenarios import STREAM_TRAJECTORY


def _one_trial(**trajectory):
    """Trial 0's direction sines at seed 0."""
    return generate(RunConfig(**trajectory), range(1))[0]


class TestStatic:
    def test_constant_per_trial(self):
        xs = _one_trial(slots=100)
        assert xs.shape == (101,)
        assert np.all(xs == xs[0])
        assert -1 <= xs[0] <= 1


class TestSinusoidal:
    def test_half_period_returns_to_zero(self):
        # angle (pi/3) sin(2 pi n/1000) plus 0.005 rad of Gaussian jitter,
        # drawn from the trial's substream: the swing is back at zero after
        # half a period and at its pi/3 peak after a quarter
        xs = _one_trial(trajectory="sinusoidal", slots=600)
        jitter = 0.005 * ref.stream(0, 0, STREAM_TRAJECTORY).standard_normal(601)
        swing = np.arcsin(xs) - jitter
        n = np.arange(601)
        np.testing.assert_allclose(swing, math.pi / 3 * np.sin(2 * math.pi * n / 1000),
                                   rtol=0, atol=1e-12)
        assert swing[500] == pytest.approx(0.0, abs=1e-12)
        assert swing[250] == pytest.approx(math.pi / 3, rel=1e-12)


class TestFixedVelocity:
    def test_reflection_slot(self):
        # at 0.064 rad/slot the band edge pi/3 forces a reflection on slot 17
        theta = np.arcsin(_one_trial(trajectory="fixed-velocity", slots=40, omega=0.064))
        assert theta[16] == pytest.approx(16 * 0.064)
        assert theta[17] == pytest.approx(16 * 0.064 - 0.064)

    def test_exact_step_and_band(self):
        theta = np.arcsin(_one_trial(trajectory="fixed-velocity", slots=500, omega=0.11))
        np.testing.assert_allclose(np.abs(np.diff(theta)), 0.11, rtol=1e-12)
        assert np.all(np.abs(theta) <= math.pi / 3 + 1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(trajectory="fixed-velocity", slots=10, omega=-0.1)
        with pytest.raises(ValueError):
            RunConfig(trajectory="fixed-velocity", slots=0, omega=0.1)
        with pytest.raises(ValueError):
            RunConfig(trajectory="fixed-velocity", slots=10, omega=2.0)
        with pytest.raises(ValueError):
            RunConfig(trajectory="wobbly", slots=10)
        for slots in (2.5, 10.0, True):
            with pytest.raises(ValueError):
                RunConfig(slots=slots)

    @pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf])
    def test_non_finite_omega_rejected(self, omega):
        with pytest.raises(ValueError, match="finite"):
            RunConfig(trajectory="fixed-velocity", slots=10, omega=omega)


class TestGenerate:
    @settings(max_examples=100)
    @given(
        kind=st.sampled_from(("static", "sinusoidal", "fixed-velocity")),
        slots=st.integers(1, 50),
        omega=st.floats(0.0, math.pi / 3),
        seed=st.integers(0, 2**40),
        start=st.one_of(st.integers(0, 10**6), st.integers(2**32 - 5, 2**32 + 2)),
        count=st.integers(1, 6),
    )
    @example(kind="static", slots=1, omega=0.0, seed=0, start=2**32 - 3, count=6)
    @example(kind="sinusoidal", slots=50, omega=0.0, seed=7, start=2**32 - 2, count=4)
    @example(kind="fixed-velocity", slots=50, omega=math.pi / 3, seed=1, start=0, count=3)
    def test_rows_match_scalar_oracle(self, kind, slots, omega, seed, start, count):
        # row k of the chunk is trial start + k drawn alone, bit for bit,
        # also across the 2**32 boundary of the trial's entropy words
        config = RunConfig(trajectory=kind, slots=slots, omega=omega, seed=seed)
        trials = range(start, start + count)
        rows = generate(config, trials)
        assert rows.shape == (count, slots + 1)
        for row, trial in zip(rows, trials):
            oracle = ref.trajectory(config, ref.stream(seed, trial, STREAM_TRAJECTORY))
            np.testing.assert_array_equal(row.view(np.uint64), oracle.view(np.uint64))


class TestRngPlan:
    def test_reproducible(self):
        a = ref.stream(42, 3, 1, 2).standard_normal(8)
        b = ref.stream(42, 3, 1, 2).standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_streams_distinct(self):
        base = ref.stream(42, 0, 0).standard_normal(8)
        for trial, sid, tag in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            other = ref.stream(42, trial, sid, tag).standard_normal(8)
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
        trials = range(start, start + count)
        batch = RngPlan(seed).batch(trials, stream_id, tag)
        seen = 0
        for trial, rng in zip(trials, batch):
            oracle = ref.stream(seed, trial, stream_id, tag)
            normals = np.empty((3, 2))
            rng.standard_normal(out=normals)
            np.testing.assert_array_equal(normals, oracle.standard_normal((3, 2)))
            assert rng.uniform(-1.0, 1.0) == oracle.uniform(-1.0, 1.0)
            np.testing.assert_array_equal(
                rng.integers(0, 4, 7, dtype=np.int8),
                oracle.integers(0, 4, 7, dtype=np.int8),
            )
            seen += 1
        assert seen == count
        assert next(batch, None) is None

    def test_batch_needs_unit_step(self):
        with pytest.raises(ValueError, match="step"):
            next(RngPlan(0).batch(range(0, 4, 2), 0))

    def test_trajectories_shared_across_algorithms(self):
        config = RunConfig(slots=5, seed=7)
        t1 = generate(config, range(4, 5))
        t2 = generate(config, range(4, 5))
        np.testing.assert_array_equal(t1, t2)


class TestComplexNormal:
    def test_moments(self):
        z = ref.complex_normal(np.random.default_rng(0), 200_000)
        assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, rel=0.02)
        assert np.var(z.real) == pytest.approx(0.5, rel=0.03)
        assert np.var(z.imag) == pytest.approx(0.5, rel=0.03)
        assert abs(np.mean(z)) < 0.01
