"""Deterministic transient solvers for mean and covariance trajectories.

Three methods share one fixed-step Runge-Kutta engine:

* ``solve_fluid``        integrates the pointwise drift; covariance is zero.
* ``solve_adjusted``     closes drift, Jacobian and noise on the running
                         Gaussian surrogate and integrates mean and
                         covariance simultaneously.
* ``solve_measure_zero`` keeps the pointwise drift for the mean and
                         propagates the covariance with one-sided derivatives
                         of the kinked rates evaluated on the fluid path.

Every method compiles the model's plan once per solve (shared with the
simulator, :func:`~qmoments.model.compile_segments`) and finds each
Runge-Kutta stage's segment by bisection; the stage forms drift, Jacobian and
noise in one pass over the segment's terms (:func:`pointwise_terms`, or
:func:`~qmoments.closure.closed_terms` for the adjusted method).

Steps never straddle a schedule breakpoint.  Because time enters the rate
functions only through piecewise-constant schedules, freezing the schedule
lookup at the step midpoint makes each step an exact RK4 step of an
autonomous system, so integrating an alternating parameter is bitwise the
same as chaining its constant segments.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from operator import mul

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
    CONST,
    LINEAR,
    MIN_PAIR,
    MIN_THRESHOLD,
    POSITIVE_PART,
    NetworkModel,
    compile_segments,
    compile_terms,
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
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise UsageError(f"dt must be positive and finite, got {self.dt}")
        if self.grid is not None:
            grid = self.grid = np.asarray(self.grid, dtype=float)
            if grid.ndim != 1 or not grid.size:
                raise UsageError("sample grid must be a non-empty 1-D sequence")
            if not np.all(np.isfinite(grid)) or np.any(np.diff(grid) <= 0):
                raise UsageError("sample grid must be finite and strictly increasing")


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
        try:
            steps = max(1, int(np.ceil((b - a) / cfg.dt - 1e-12)))
            nodes.extend(np.linspace(a, b, steps + 1)[1:])
        except (ValueError, OverflowError, MemoryError) as exc:
            raise UsageError(f"dt={cfg.dt:g} needs too many steps from t={a:g} to {b:g}") from exc
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
    validate_model(model).raise_if_invalid()
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
    at = _pointwise_at(model, moments=False)

    def rhs(t, m, c):
        return at(t, m)[0], c  # c is still the zero start, so it is its own rate

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
    plan, d = _plan_at(model), model.dimension

    def rhs(t, m, c):
        drift_m, a, b = closed_terms(plan(t), MomentPoint(m, c), d)
        dc = a @ c + c @ a.T + b @ b.T
        return drift_m, dc

    return _solve_moments(model, cfg, rhs, "adjusted")


def solve_measure_zero(
    model: NetworkModel, cfg: SolverConfig | None = None
) -> MomentTrajectory:
    """Smooth-case covariance propagation along the plain fluid path.

    The rate kinks are ignored on the grounds that the fluid path spends
    measure-zero time on them: the Jacobian uses fixed one-sided derivatives
    (the convention is stated above :func:`pointwise_terms`) evaluated at the fluid
    state, and the noise matrix uses the pointwise rates there.
    """
    cfg = cfg or SolverConfig(method="measure-zero")
    at = _pointwise_at(model, moments=True)

    def rhs(t, m, c):
        drift_m, a, b = at(t, m)
        dc = a @ c + c @ a.T + b @ b.T
        return drift_m, dc

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


def _plan_at(model: NetworkModel):
    """``plan(t)``: the compiled terms of the plan segment holding ``t``.
    Steps never straddle a breakpoint, so a step's midpoint finds its segment.
    """
    segments = compile_segments(model)
    starts = [seg[0] for seg in segments]
    return lambda t: segments[bisect_right(starts, t) - 1][2]


def _pointwise_at(model: NetworkModel, moments: bool):
    """``at(t, x)``: :func:`pointwise_terms` on the plan segment holding ``t``."""
    plan, d = _plan_at(model), model.dimension
    return lambda t, x: pointwise_terms(plan(t), x, d, moments)


def pointwise_terms(terms, x, d: int, moments: bool = True):
    """Drift, one-sided Jacobian and noise matrix of compiled ``terms`` at ``x``.

    One pass over the transitions, in model order: drift entry ``a`` adds
    ``jump_a * rate``, Jacobian entry ``(a, b)`` adds
    ``coeff * (jump_a * grad_b)``, and noise column ``i`` is
    ``jump * sqrt(rate_i)`` where that rate is positive, else zero.  With
    ``moments=False`` only the drift is formed; the other two are None.
    """
    xs = np.asarray(x, dtype=float).tolist()
    drift_x = [0.0] * d
    jac = [[0.0] * d for _ in range(d)] if moments else None
    noise = [[0.0] * len(terms) for _ in range(d)] if moments else None
    for i, (code, coeff, j, k, thr, weights, jump) in enumerate(terms):
        # min(u, v) is spelled `v if v < u else u` and max(u, v) `v if v > u
        # else u`, which is how the builtins resolve ties and NaN
        if code == CONST:
            rate, grad = coeff, ()
        elif code == LINEAR:
            rate, grad = coeff * sum(map(mul, weights, xs)), tuple(enumerate(weights))
        elif code == MIN_THRESHOLD:
            xj = xs[j]
            rate = coeff * (thr if thr < xj else xj)
            grad = ((j, 1.0),) if xj <= thr else ()
        elif code == POSITIVE_PART:
            over = xs[j] - thr
            rate = coeff * (0.0 if 0.0 > over else over)
            grad = ((j, 1.0),) if xs[j] > thr else ()
        elif code == MIN_PAIR:
            xj, xk = xs[j], xs[k]
            rate = coeff * (xk if xk < xj else xj)
            grad = ((j, 1.0),) if xj <= xk else ((k, 1.0),)
        else:  # capped residual
            xj, residual = xs[j], thr - xs[k]
            cap = 0.0 if 0.0 > residual else residual
            rate = coeff * (cap if cap < xj else xj)
            grad = ((j, 1.0),) if xj <= cap else ((k, -1.0),) if residual > 0.0 else ()
        for a, jump_a in enumerate(jump):
            if jump_a:
                drift_x[a] += jump_a * rate
                if moments:
                    row = jac[a]
                    for b, g in grad:
                        row[b] += coeff * (jump_a * g)
                    if rate > 0.0:
                        noise[a][i] = jump_a * math.sqrt(rate)
    if not moments:
        return np.array(drift_x), None, None
    return np.array(drift_x), np.array(jac), np.array(noise)


def drift(model: NetworkModel, t: float, x) -> np.ndarray:
    """Net state change rate: sum of jump vectors weighted by their rates."""
    return pointwise_terms(compile_terms(model, t), x, model.dimension, moments=False)[0]


def pointwise_drift_jacobian(model: NetworkModel, t: float, x) -> np.ndarray:
    """Gradient matrix of the pointwise drift with one-sided kink convention."""
    return pointwise_terms(compile_terms(model, t), x, model.dimension)[1]


def pointwise_noise_matrix(model: NetworkModel, t: float, x) -> np.ndarray:
    """Columns ``jump_i * sqrt(max(rate_i, 0))`` at the given state."""
    return pointwise_terms(compile_terms(model, t), x, model.dimension)[2]
