"""Analog beam tracking for linear phased arrays: recursive tracker,
reference algorithms, closed-form bound analytics and a Monte Carlo
benchmark harness."""

__version__ = "0.1.0"

from .arraymodel import (
    DEFAULT_BETA,
    ArrayGeometry,
    ChannelState,
    channel_mse_limit,
    conjugate_beam,
    crlb_min,
    fisher_information,
    i_max,
    log_likelihood,
    mainlobe_halfwidth,
    observe,
    stable_point_spacing,
    stable_points,
    steering_matrix,
    steering_vector,
    surrogate_f,
)
from .baselines import (
    QPSK,
    Ad11State,
    ad11_probe_index,
    ad11_step,
    cs_estimate,
    ls_data_beam,
    ls_estimate,
)
from .harness import (
    ALGORITHMS,
    RunConfig,
    RunSummary,
    TrialRecord,
    achievable_rate,
    h_prime_norm_sq,
    initialization_hit_rate,
    mse_h,
    run_experiment,
    run_single_trial,
    write_summary_csv,
)
from .scenarios import RngPlan, Trajectory, complex_normal, generate
from .trackers import (
    SineTrackerState,
    StepSizeSchedule,
    SweepDictionary,
    alpha_star,
    coarse_sweep,
    codebook_directions,
    dft_codebook,
    recursive_step,
)

__all__ = [name for name in dir() if not name.startswith("_")]
