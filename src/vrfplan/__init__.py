"""Capacity planning for clusters of variable-rate radio units on a
shared fronthaul link.

The package answers one question: how many radio units can share a link
of fixed capacity before rate-upgrade blocking exceeds a target, given
that each unit steps through a ladder of transport rates under a
hysteresis policy. It provides exact per-unit chain solutions, a
product-form cluster model, an event-driven simulator for validation,
and a command line front end.
"""

from .aggregator import (
    AggregatorSpec,
    BlockingReport,
    blocking,
    blocking_for_planning,
    spec_from_planning,
)
from .config import (
    CpriProfile,
    PlanningConfig,
    ProfileRow,
    RateSet,
    ThresholdPolicy,
    TrafficSpec,
    config_from_dict,
    default_profile,
    default_thresholds,
    load_config,
    select_rates,
)
from .errors import (
    CapacityError,
    InvalidConfigError,
    InvalidParameterError,
    NumericalError,
    StructuralError,
    VrfError,
)
from .rru import RruChainSpec, RruRates, transition_rates
from .sim import ArrivalProcess, SimConfig, SimStats, run

__version__ = "1.0.0"

__all__ = [
    "AggregatorSpec",
    "ArrivalProcess",
    "BlockingReport",
    "CapacityError",
    "CpriProfile",
    "InvalidConfigError",
    "InvalidParameterError",
    "NumericalError",
    "PlanningConfig",
    "ProfileRow",
    "RateSet",
    "RruChainSpec",
    "RruRates",
    "SimConfig",
    "SimStats",
    "StructuralError",
    "ThresholdPolicy",
    "TrafficSpec",
    "VrfError",
    "blocking",
    "blocking_for_planning",
    "config_from_dict",
    "default_profile",
    "default_thresholds",
    "load_config",
    "run",
    "select_rates",
    "spec_from_planning",
    "transition_rates",
]
