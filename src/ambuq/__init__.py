"""Queueing analytics and fleet sizing for M-server ambulance services.

Analytic results (saturation times, stationary occupancy, service metrics,
inverse fleet sizing) are each cross-validated by an embedded stochastic
simulation oracle; the CLI in :mod:`ambuq.cli` exposes the whole surface.
"""

from .errors import NoSteadyStateError, ParameterError
from .mfpt import MfptProfile, mfpt_critical_profile, mfpt_sweep
from .params import DerivedParams, SystemParams, derive
from .service_metrics import (
    ServiceReport,
    cost_rate,
    full_report,
    level_of_service,
    mean_wait,
    p_server_busy,
    throughput,
    wait_density,
)
from .simulate import (
    SimConfig,
    SimEstimate,
    StationaryResult,
    simulate_hitting_time,
    simulate_stationary,
)
from .sizing import SizingQuery, SizingResult, min_fleet, stability_bound
from .steady_state import (
    QueueStats,
    StationaryProfile,
    p_occupation,
    p_occupation_by_fleet,
    queue_conditional_pmf,
    queue_stats,
    stationary_profile,
)

__version__ = "0.1.0"

__all__ = [
    "DerivedParams",
    "MfptProfile",
    "NoSteadyStateError",
    "ParameterError",
    "QueueStats",
    "ServiceReport",
    "SimConfig",
    "SimEstimate",
    "SizingQuery",
    "SizingResult",
    "StationaryProfile",
    "StationaryResult",
    "SystemParams",
    "cost_rate",
    "derive",
    "full_report",
    "level_of_service",
    "mean_wait",
    "mfpt_critical_profile",
    "mfpt_sweep",
    "min_fleet",
    "p_occupation",
    "p_occupation_by_fleet",
    "p_server_busy",
    "queue_conditional_pmf",
    "queue_stats",
    "simulate_hitting_time",
    "simulate_stationary",
    "stability_bound",
    "stationary_profile",
    "throughput",
    "wait_density",
]
