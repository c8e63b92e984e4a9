"""Spectrum-sharing coexistence analyzer.

Closed-form outage probability for the licensed network and closed-form mean
delay / delay jitter for the machine-type network that shares its spectrum,
each verified by independent Monte Carlo simulation.
"""

from .model import (
    ConfigError,
    ScenarioParams,
    ServiceMode,
    ValidationError,
    dbm_to_watts,
    device_count,
    parse_config,
    validate,
    with_updates,
)
from .quadrature import QuadratureError
from .geometry import FieldBudgetError, sample_interference_batch, sample_service_delays
from .analytic import (
    DelayReport,
    InfeasiblePowerError,
    TruncatedMoments,
    UnstableQueueError,
    apply_power_budget,
    capacity_cdf,
    delay_report,
    max_mbs_power,
    mg1_waiting,
    moment_key,
    outage_increment,
    outage_no_sharing,
    outage_with_sharing,
    service_cdf,
    truncated_service_moments,
)
from .simulate import (
    ProbEstimate,
    QueueStats,
    estimate_outage_mc,
    ks_distance,
    lindley_waits,
    queue_stats_from_trace,
    run_mg1,
)

__version__ = "0.1.0"
