"""Deterministic transient solvers for mean and covariance trajectories.

Three methods share one fixed-step Runge-Kutta engine:

* ``solve_fluid``        integrates the pointwise drift; covariance is zero.
* ``solve_adjusted``     closes drift, Jacobian and noise on the running
                         Gaussian surrogate and integrates mean and
                         covariance simultaneously.
* ``solve_measure_zero`` keeps the pointwise drift for the mean and
                         propagates the covariance with one-sided derivatives
                         of the kinked rates evaluated on the fluid path.

Steps never straddle a schedule breakpoint.  Because time enters the rate
functions only through piecewise-constant schedules, freezing the schedule
lookup at the step midpoint makes each step an exact RK4 step of an
autonomous system, so integrating an alternating parameter is bitwise the
same as chaining its constant segments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# closed_drift, closed_drift_jacobian and noise_matrix stay bound here because
# perfbench/spans.py instruments the solver layer through these names.
from .closure import (  # noqa: F401
    MomentPoint,
    closed_drift,
    closed_drift_jacobian,
    closed_terms,
    noise_matrix,
)
from .errors import DivergenceError, UsageError
from .model import (
    CappedResidual,
    Constant,
    Linear,
    MinPair,
    MinThreshold,
    NetworkModel,
    PositivePart,
    drift,
    kernel_value,
    model_breakpoints,
    validate_model,
)
from .results import MomentTrajectory

METHODS = ("fluid", "adjusted", "measure-zero")

_GRID_TOL = 1e-9


@dataclass
class SolverConfig:
    """Step size, method tag and output grid for one solve.

    ``grid=None`` samples every whole time unit up to the horizon.
    """

    dt: float = 0.01
    method: str = "adjusted"
    grid: np.ndarray | None = None

    def __post_init__(self):
        if self.dt <= 0:
            raise UsageError(f"dt must be positive, got {self.dt}")
        if self.grid is not None:
            self.grid = np.asarray(self.grid, dtype=float)
            if np.any(np.diff(self.grid) <= 0):
                raise UsageError("sample grid must be strictly increasing")


def _require_valid(model: NetworkModel) -> None:
    report = validate_model(model)
    if not report.ok:
        raise UsageError("invalid model: " + "; ".join(report.issues))


def _sample_grid(model: NetworkModel, cfg: SolverConfig) -> np.ndarray:
    if cfg.grid is None:
        return np.arange(0.0, model.horizon + _GRID_TOL, 1.0)
    grid = cfg.grid
    if grid[0] < -_GRID_TOL or grid[-1] > model.horizon + _GRID_TOL:
        raise UsageError(
            f"sample grid [{grid[0]}, {grid[-1]}] outside model horizon "
            f"[0, {model.horizon}]"
        )
    return grid


def _build_mesh(model: NetworkModel, cfg: SolverConfig, grid: np.ndarray):
    """Integration nodes: breakpoints and grid times, gaps split to <= dt.

    Returns the node array and, per node, the index into ``grid`` it reports
    to (or -1).
    """
    anchors = [0.0, float(model.horizon)]
    anchors.extend(model_breakpoints(model))
    anchors.extend(float(g) for g in grid)
    anchors.sort()
    merged = [anchors[0]]
    for a in anchors[1:]:
        if a - merged[-1] > _GRID_TOL:
            merged.append(a)
    nodes = [merged[0]]
    for a, b in zip(merged[:-1], merged[1:]):
        steps = max(1, int(np.ceil((b - a) / cfg.dt - 1e-12)))
        nodes.extend(np.linspace(a, b, steps + 1)[1:])
    nodes = np.asarray(nodes)
    sample_of = np.full(len(nodes), -1, dtype=int)
    gi = 0
    for ni, t in enumerate(nodes):
        if gi < len(grid) and abs(t - grid[gi]) <= _GRID_TOL:
            sample_of[ni] = gi
            gi += 1
    if gi != len(grid):
        raise UsageError("sample grid could not be aligned with the mesh")
    return nodes, sample_of


def _solve_moments(model: NetworkModel, cfg: SolverConfig, rhs, method: str):
    """RK4 on the (mean, covariance) pair over the aligned mesh."""
    _require_valid(model)
    grid = _sample_grid(model, cfg)
    nodes, sample_of = _build_mesh(model, cfg, grid)
    d = model.dimension
    m = np.asarray(model.initial_state, dtype=float)
    c = np.zeros((d, d))
    means = np.zeros((len(grid), d))
    covs = np.zeros((len(grid), d, d))
    warnings: list[str] = []

    def record(ni):
        gi = sample_of[ni]
        if gi >= 0:
            means[gi] = m
            covs[gi] = c
            trace = float(np.trace(c))
            if trace > 0 and float(np.linalg.eigvalsh(c)[0]) < -1e-4 * trace:
                warnings.append(
                    f"covariance poorly conditioned at t={grid[gi]:g}"
                )

    record(0)
    # overflow is an anticipated, detected condition here, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for ni in range(len(nodes) - 1):
            t0, t1 = nodes[ni], nodes[ni + 1]
            h = t1 - t0
            tm = 0.5 * (t0 + t1)  # schedules are constant on the step
            dm1, dc1 = rhs(tm, m, c)
            dm2, dc2 = rhs(tm, m + 0.5 * h * dm1, c + 0.5 * h * dc1)
            dm3, dc3 = rhs(tm, m + 0.5 * h * dm2, c + 0.5 * h * dc2)
            dm4, dc4 = rhs(tm, m + h * dm3, c + h * dc3)
            m = m + (h / 6.0) * (dm1 + 2.0 * dm2 + 2.0 * dm3 + dm4)
            c = c + (h / 6.0) * (dc1 + 2.0 * dc2 + 2.0 * dc3 + dc4)
            c = 0.5 * (c + c.T)
            if not (np.all(np.isfinite(m)) and np.all(np.isfinite(c))):
                raise DivergenceError(
                    f"{method} solve diverged between t={t0:g} and t={t1:g}",
                    last_time=float(t0),
                )
            record(ni + 1)
    return MomentTrajectory(method, grid.copy(), means, covs, warnings)


def solve_fluid(model: NetworkModel, cfg: SolverConfig | None = None) -> MomentTrajectory:
    """Deterministic large-population limit; covariance reported as zero."""
    cfg = cfg or SolverConfig(method="fluid")

    def rhs(t, m, c):
        return drift(model, t, m), c  # c is still the zero start, so it is its own rate

    return _solve_moments(model, cfg, rhs, "fluid")


def solve_adjusted(
    model: NetworkModel, cfg: SolverConfig | None = None
) -> MomentTrajectory:
    """Gaussian-closed mean and covariance, integrated simultaneously.

    The drift, its Jacobian and the noise matrix are re-closed on the running
    (mean, covariance) pair at every Runge-Kutta stage, from one closed-rate
    evaluation per transition; the covariance obeys
    ``dC/dt = A C + C A' + B B'`` and is symmetrized after each step.
    """
    cfg = cfg or SolverConfig(method="adjusted")

    def rhs(t, m, c):
        drift_m, a, b = closed_terms(model, t, MomentPoint(m, c))
        dc = a @ c + c @ a.T + b @ b.T
        return drift_m, dc

    return _solve_moments(model, cfg, rhs, "adjusted")


def solve_measure_zero(
    model: NetworkModel, cfg: SolverConfig | None = None
) -> MomentTrajectory:
    """Smooth-case covariance propagation along the plain fluid path.

    The rate kinks are ignored on the grounds that the fluid path spends
    measure-zero time on them: the Jacobian uses fixed one-sided derivatives
    (documented in :func:`pointwise_drift_jacobian`) evaluated at the fluid
    state, and the noise matrix uses the pointwise rates there.
    """
    cfg = cfg or SolverConfig(method="measure-zero")

    def rhs(t, m, c):
        a = pointwise_drift_jacobian(model, t, m)
        b = pointwise_noise_matrix(model, t, m)
        dc = a @ c + c @ a.T + b @ b.T
        return drift(model, t, m), dc

    return _solve_moments(model, cfg, rhs, "measure-zero")


def solve(model: NetworkModel, cfg: SolverConfig) -> MomentTrajectory:
    """Dispatch on ``cfg.method`` (accepts both '-' and '_' spellings)."""
    method = cfg.method.replace("_", "-")
    if method == "fluid":
        return solve_fluid(model, cfg)
    if method == "adjusted":
        return solve_adjusted(model, cfg)
    if method == "measure-zero":
        return solve_measure_zero(model, cfg)
    raise UsageError(f"unknown solver method {cfg.method!r}")


# --------------------------------------------------------------------------
# Pointwise (one-sided) derivatives for the measure-zero method.
#
# The kinked kernels have no derivative exactly at the kink; the convention
# here resolves ties toward the branch that tracks the state variable:
#   d/dx min(x, n)      = 1 when x <= n, else 0
#   d/dx (x - n)^+      = 1 when x >  n, else 0
#   min(x_j, x_k)       differentiates along x_j when x_j <= x_k
#   min(x_j, (n-x_k)^+) differentiates along x_j when x_j <= residual,
#                       else along x_k while the residual is positive.
# Under the method's own assumption the tie set carries no time, so any
# fixed convention is admissible; this one is deterministic and documented.


def _kernel_pointwise_grad(kernel, t: float, x: np.ndarray, d: int) -> np.ndarray:
    grad = np.zeros(d)
    if isinstance(kernel, Constant):
        return grad
    if isinstance(kernel, Linear):
        grad[: len(kernel.weights)] = kernel.weights
        return grad
    if isinstance(kernel, MinThreshold):
        if x[kernel.index] <= kernel.threshold.value_at(t):
            grad[kernel.index] = 1.0
        return grad
    if isinstance(kernel, PositivePart):
        if x[kernel.index] > kernel.threshold.value_at(t):
            grad[kernel.index] = 1.0
        return grad
    if isinstance(kernel, MinPair):
        if x[kernel.index] <= x[kernel.other]:
            grad[kernel.index] = 1.0
        else:
            grad[kernel.other] = 1.0
        return grad
    if isinstance(kernel, CappedResidual):
        residual = kernel.threshold.value_at(t) - x[kernel.other]
        if x[kernel.index] <= max(residual, 0.0):
            grad[kernel.index] = 1.0
        elif residual > 0.0:
            grad[kernel.other] = -1.0
        return grad
    raise UsageError(f"unknown kernel type {type(kernel).__name__}")


def pointwise_drift_jacobian(model: NetworkModel, t: float, x) -> np.ndarray:
    """Gradient matrix of the pointwise drift with one-sided kink convention."""
    x = np.asarray(x, dtype=float)
    out = np.zeros((model.dimension, model.dimension))
    for tr in model.transitions:
        coeff = tr.rate.coefficient.value_at(t)
        grad = _kernel_pointwise_grad(tr.rate.kernel, t, x, model.dimension)
        out += coeff * np.outer(tr.jump, grad)
    return out


def pointwise_noise_matrix(model: NetworkModel, t: float, x) -> np.ndarray:
    """Columns ``jump_i * sqrt(max(rate_i, 0))`` at the given state."""
    out = np.zeros((model.dimension, model.num_transitions))
    for i, tr in enumerate(model.transitions):
        rate = tr.rate.coefficient.value_at(t) * kernel_value(tr.rate.kernel, t, x)
        if rate > 0.0:
            out[:, i] = np.asarray(tr.jump, dtype=float) * np.sqrt(rate)
    return out
