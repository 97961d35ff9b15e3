"""Analog beam tracking for linear phased arrays: the recursive tracker and
three reference algorithms in a Monte Carlo benchmark harness, and the
closed-form bound and drift analytics they are checked against."""

__version__ = "0.1.0"

from .arraymodel import (
    ArrayGeometry,
    alpha_star,
    array_kernel,
    channel_mse_limit,
    crlb_min,
    dft_codebook,
    i_max,
    mainlobe_halfwidth,
    sine_grid,
    stable_point_spacing,
    stable_points,
    steering_matrix,
    surrogate_f,
)
from .harness import (
    ALGORITHMS,
    RunConfig,
    RunSummary,
    TrialRecord,
    h_prime_norm_sq,
    initialization_hit_rate,
    run_experiment,
    run_single_trial,
    write_summary_csv,
)
from .scenarios import RngPlan, generate

__all__ = [name for name in dir() if not name.startswith("_")]
