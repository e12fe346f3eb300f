"""Harvest/sleep scheduling for bursty ambient RF energy arrivals."""

from .beliefs import (
    Observation,
    RewardConfig,
    belief_after_failure_and_sleep,
)
from .gilbert_elliott import (
    GEParams,
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
    harvest_crossover,
    solve,
)

__version__ = "0.1.0"
