"""Transient mean/covariance analysis of non-stationary state-dependent
Markovian queueing networks.

The package provides a declarative network-model representation, a
Gaussian-closure moment solver together with plain-fluid and measure-zero
baselines, an exact event-driven simulator with replication ensembles, a
truncated forward-equation oracle for small models, builders for reference
systems, and a CSV-producing command-line interface.
"""

from .closure import (
    MomentPoint,
    expected_kernel,
    normal_cdf,
    normal_pdf,
)
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
    validate_model,
)
from .results import (
    MomentTrajectory,
    read_long_csv,
    results_equal,
    stat_names,
    write_long_csv,
)
from .schedule import TimeSchedule, merge_schedules
from .simulate import RngStream, simulate_ensemble, simulate_path
from .solvers import (
    SolverConfig,
    closed_drift,
    closed_drift_jacobian,
    drift,
    noise_matrix,
    pointwise_drift_jacobian,
    pointwise_noise_matrix,
    solve,
)
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
    "closed_drift",
    "closed_drift_jacobian",
    "drift",
    "exact_transient_moments",
    "expected_kernel",
    "load_model",
    "merge_schedules",
    "model_from_dict",
    "model_to_dict",
    "noise_matrix",
    "normal_cdf",
    "normal_pdf",
    "pointwise_drift_jacobian",
    "pointwise_noise_matrix",
    "read_long_csv",
    "reference_peer_params",
    "reference_priority_params",
    "results_equal",
    "retrial_preset",
    "save_model",
    "simulate_ensemble",
    "simulate_path",
    "solve",
    "stat_names",
    "state_distributions",
    "validate_model",
    "write_long_csv",
]
