"""Transient mean/covariance analysis of non-stationary state-dependent
Markovian queueing networks.

The package provides a declarative network-model representation, a
Gaussian-closure moment solver together with plain-fluid and measure-zero
baselines, an exact event-driven simulator with replication ensembles, a
truncated forward-equation oracle for small models, builders for reference
systems, and a CSV-producing command-line interface.
"""

from .closure import MomentPoint, expected_kernel
from .errors import DivergenceError, NumericalError, UsageError
from .kolmogorov import exact_transient_moments, state_distributions
from .model import (
    CappedResidual,
    Constant,
    Linear,
    MinPair,
    MinThreshold,
    NetworkModel,
    PositivePart,
    RateTerm,
    Transition,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from .results import MomentTrajectory, read_long_csv, write_long_csv
from .schedule import TimeSchedule
from .simulate import RngStream, simulate_ensemble, simulate_path
from .solvers import SolverConfig, solve
from .systems import (
    PeerParams,
    PriorityParams,
    RetrialParams,
    build_peer,
    build_priority,
    build_retrial,
    reference_peer_params,
    reference_priority_params,
    retrial_preset,
)

__version__ = "0.1.0"

__all__ = [
    "CappedResidual",
    "Constant",
    "DivergenceError",
    "Linear",
    "MinPair",
    "MinThreshold",
    "MomentPoint",
    "MomentTrajectory",
    "NetworkModel",
    "NumericalError",
    "PeerParams",
    "PositivePart",
    "PriorityParams",
    "RateTerm",
    "RetrialParams",
    "RngStream",
    "SolverConfig",
    "TimeSchedule",
    "Transition",
    "UsageError",
    "build_peer",
    "build_priority",
    "build_retrial",
    "exact_transient_moments",
    "expected_kernel",
    "load_model",
    "model_from_dict",
    "model_to_dict",
    "read_long_csv",
    "reference_peer_params",
    "reference_priority_params",
    "retrial_preset",
    "save_model",
    "simulate_ensemble",
    "simulate_path",
    "solve",
    "state_distributions",
    "write_long_csv",
]
