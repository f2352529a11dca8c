"""Group-cell handover analytics and Monte Carlo simulation for user-centric
cooperative ultra-dense networks."""

__version__ = "0.1.0"

from .analytics import (
    CostParams,
    CoverageParams,
    ToeplitzState,
    ase_cost,
    cost_aware_coverage,
    coverage_probability,
    handover_cost,
    handover_rate_gcho,
    handover_rate_gchos,
    k_integral,
    laplace_interference,
    optimal_cluster_size,
    overall_cost,
    signaling_overhead,
)
from .channel import PathLossParams, path_loss
from .errors import (
    ConfigError,
    InsufficientPointsError,
    NumericalError,
    ParameterError,
    UdngcError,
)
from .geometry import guard_radius, kth_distance_pdf, sample_ppp
from .harness import ScenarioParams, SweepRow, parse_config, run_figure, validate
from .simulator import (
    RateEstimate,
    TrialResult,
    coverage_oracle_geometric,
    coverage_oracle_model,
    estimate_all_rates,
    run_handover_trial,
    simulate_trials,
)
