"""Harvest/sleep scheduling for bursty ambient RF energy arrivals."""

from .beliefs import (
    Action,
    Observation,
    RewardConfig,
    belief_after_failure_and_sleep,
    harvest_update,
    initial_belief,
    reward,
    sleep_update,
)
from .gilbert_elliott import (
    ArrivalState,
    GEParams,
    SamplePath,
    burst_parameterization,
    from_burst_parameterization,
    simulate,
    stationary,
)
from .threshold import (
    LookupTable,
    PolicyValue,
    ThresholdPolicy,
    build_lookup_table,
    optimal_sleep_time,
    policy_value_linear_system,
    sleep_time_from_threshold,
    vi_threshold_policy,
)
from .value_iteration import (
    AlphaVector,
    PiecewiseLinearValue,
    VISettings,
    bellman_backup_alpha,
    greedy_policy,
    harvest_crossover,
    solve,
)

__version__ = "0.1.0"
