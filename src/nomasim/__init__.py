"""Downlink multi-antenna cluster simulator.

Compares power-domain superposed transmission against orthogonal sharing on
zero-forcing effective channels, and provides SINR-target user admission with
an exhaustive optimality reference plus Monte-Carlo sweep drivers.
"""

__version__ = "0.1.0"

from .admission import (
    AdmissionInstance,
    AdmissionResult,
    aligned_thresholds,
    cumulative_power_closed_form,
    exhaustive_admit,
    greedy_admit,
    greedy_optimality_condition,
)
from .channel import (
    ClusterRealization,
    DegenerateChannelError,
    SystemConfig,
    draw_cluster,
)
from .experiments import (
    ORACLE_BENCHMARK_RADIUS_KM,
    SWEEP_KINDS,
    SweepResult,
    SweepRow,
    SweepSpec,
    make_sweep,
    run_sweep,
    split_surface_grid,
    sweep_series,
    value_grid,
    write_csv,
    write_metadata,
)
from .rates import (
    ClusterSizeDelta,
    SicFeasibility,
    cluster_size_rate_delta,
    extend_split,
    jain_index,
    noma_sum_rate,
    noma_user_rates,
    oma_sum_rate,
    oma_sum_upper_bound,
    oma_user_rates,
    optimal_dof_fractions,
    sic_feasibility_check,
    two_user_gap,
    two_user_gap_maximizer,
)
from .units import db_to_linear
from .verify import CheckResult, run_verification

__all__ = [
    "AdmissionInstance",
    "AdmissionResult",
    "CheckResult",
    "ClusterRealization",
    "ClusterSizeDelta",
    "DegenerateChannelError",
    "ORACLE_BENCHMARK_RADIUS_KM",
    "SWEEP_KINDS",
    "SicFeasibility",
    "SweepResult",
    "SweepRow",
    "SweepSpec",
    "SystemConfig",
    "aligned_thresholds",
    "cluster_size_rate_delta",
    "cumulative_power_closed_form",
    "db_to_linear",
    "draw_cluster",
    "exhaustive_admit",
    "extend_split",
    "greedy_admit",
    "greedy_optimality_condition",
    "jain_index",
    "make_sweep",
    "noma_sum_rate",
    "noma_user_rates",
    "oma_sum_rate",
    "oma_sum_upper_bound",
    "oma_user_rates",
    "optimal_dof_fractions",
    "run_sweep",
    "run_verification",
    "sic_feasibility_check",
    "split_surface_grid",
    "sweep_series",
    "two_user_gap",
    "two_user_gap_maximizer",
    "value_grid",
    "write_csv",
    "write_metadata",
    "__version__",
]
