"""Deterministic transient solvers for mean and covariance trajectories.

Three methods share one fixed-step Runge-Kutta engine, which integrates one
flat state vector: the mean alone for fluid, the mean followed by the
row-major covariance for the other two.

* ``solve_fluid``        integrates the pointwise drift; covariance is zero.
* ``solve_adjusted``     closes drift, Jacobian and diffusion on the running
                         Gaussian surrogate and integrates mean and
                         covariance simultaneously.
* ``solve_measure_zero`` keeps the pointwise drift for the mean and
                         propagates the covariance with one-sided derivatives
                         of the kinked rates evaluated on the fluid path.

Both covariance methods integrate ``dC/dt = A C + C A' + sum_i rate_i^+ J_i J_i'``
(the diffusion term of Mandelbaum, Massey & Reiman 1998) with drift, ``A`` and
the diffusion from one pass, :func:`moment_terms`; only the rate rule differs.
Every method compiles the model's plan once per solve (shared with the
simulator, :func:`~qmoments.model.compile_segments`) and finds each
Runge-Kutta stage's segment by bisection.

The mesh ends at the last sample time, so a divergence after it is never
reached.  Steps never straddle a schedule breakpoint.  Because time enters
the rate functions only through piecewise-constant schedules, freezing the
schedule lookup at the step midpoint makes each step an exact RK4 step of an
autonomous system, so integrating an alternating parameter is bitwise the
same as chaining its constant segments.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from operator import mul

import numpy as np

from .closure import MomentPoint, closed_rate
from .errors import DivergenceError, UsageError
from .model import (
    CONST,
    GRID_TOL,
    LINEAR,
    MIN_PAIR,
    MIN_THRESHOLD,
    POSITIVE_PART,
    NetworkModel,
    checked_grid,
    compile_segments,
    compile_terms,
    model_breakpoints,
    validate_model,
)
from .results import MomentTrajectory

METHODS = ("fluid", "adjusted", "measure-zero")


@dataclass
class SolverConfig:
    """Step size, method tag and output grid for one solve.

    ``grid`` follows :func:`~qmoments.model.checked_grid`; ``None`` is every whole time unit.
    """

    dt: float = 0.01
    method: str = "adjusted"
    grid: np.ndarray | None = None

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise UsageError(f"dt must be positive and finite, got {self.dt}")


def _build_mesh(model: NetworkModel, cfg: SolverConfig, grid: np.ndarray):
    """Integration nodes up to the last sample time: breakpoints and grid
    times, gaps split to <= dt.  They are a prefix of the mesh that would run
    to the horizon; no output reads a node past the last sample.

    Returns the node times and, per node, the index into ``grid`` it reports
    to (or -1).
    """
    anchors = [0.0, float(model.horizon)]
    anchors.extend(model_breakpoints(model))
    anchors.extend(float(g) for g in grid)
    anchors.sort()
    merged = [anchors[0]]
    for a in anchors[1:]:
        if a - merged[-1] > GRID_TOL:
            merged.append(a)
    nodes = [merged[0]]
    for a, b in zip(merged[:-1], merged[1:]):
        if a > grid[-1] + GRID_TOL:  # no later node can be a sample
            break
        try:
            steps = max(1, int(np.ceil((b - a) / cfg.dt - 1e-12)))
            nodes.extend(np.linspace(a, b, steps + 1)[1:].tolist())
        except (ValueError, OverflowError, MemoryError) as exc:
            raise UsageError(f"dt={cfg.dt:g} needs too many steps from t={a:g} to {b:g}") from exc
    sample_of = [-1] * len(nodes)
    gi = 0
    for ni, t in enumerate(nodes):
        if abs(t - grid[gi]) <= GRID_TOL:
            sample_of[ni] = gi
            gi += 1
            if gi == len(grid):
                return nodes[: ni + 1], sample_of[: ni + 1]
    raise UsageError("sample grid could not be aligned with the mesh")


def _solve_moments(model: NetworkModel, cfg: SolverConfig, rhs, method: str):
    """RK4 on one flat state over the aligned mesh: the mean for fluid, else
    the mean followed by the row-major covariance.  ``rhs(t, y)`` returns the
    derivative of ``y``."""
    validate_model(model).raise_if_invalid()
    grid = checked_grid(model, cfg.grid)
    nodes, sample_of = _build_mesh(model, cfg, grid)
    d = model.dimension
    y = np.zeros(d if method == "fluid" else d + d * d)
    y[:d] = model.initial_state
    cov = None if method == "fluid" else y[d:].reshape(d, d)  # a view, updated in place
    means = np.zeros((len(grid), d))
    covs = np.zeros((len(grid), d, d))
    warnings: list[str] = []

    def record(ni):
        gi = sample_of[ni]
        if gi >= 0:
            means[gi] = y[:d]
            if cov is not None:
                covs[gi] = cov
                trace = float(np.trace(cov))
                if trace > 0 and float(np.linalg.eigvalsh(cov)[0]) < -1e-4 * trace:
                    warnings.append(f"covariance poorly conditioned at t={grid[gi]:g}")

    record(0)
    # overflow is an anticipated, detected condition here, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for ni in range(len(nodes) - 1):
            t0, t1 = nodes[ni], nodes[ni + 1]
            h = t1 - t0
            tm = 0.5 * (t0 + t1)  # schedules are constant on the step
            k1 = rhs(tm, y)
            k2 = rhs(tm, y + 0.5 * h * k1)
            k3 = rhs(tm, y + 0.5 * h * k2)
            k4 = rhs(tm, y + h * k3)
            y += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if cov is not None:
                cov += cov.T
                cov *= 0.5
            if not np.isfinite(y).all():
                raise DivergenceError(
                    f"{method} solve diverged between t={t0:g} and t={t1:g}",
                    last_time=float(t0),
                )
            record(ni + 1)
    return MomentTrajectory(method, grid.copy(), means, covs, warnings)


def _plan_at(model: NetworkModel):
    """``plan(t)``: the compiled terms of the plan segment holding ``t``.
    Steps never straddle a breakpoint, so a step's midpoint finds its segment.
    """
    segments = compile_segments(model)
    starts = [seg[0] for seg in segments]
    return lambda t: segments[bisect_right(starts, t) - 1][2]


def solve_fluid(model: NetworkModel, cfg: SolverConfig | None = None) -> MomentTrajectory:
    """Deterministic large-population limit; covariance reported as zero."""
    cfg = cfg or SolverConfig(method="fluid")
    plan, d = _plan_at(model), model.dimension

    def rhs(t, y):
        return _drift_terms(plan(t), y.tolist(), d)

    return _solve_moments(model, cfg, rhs, "fluid")


def _solve_covariance(model: NetworkModel, cfg: SolverConfig, rate, state, method: str):
    """``dC/dt = A C + C A' + Q``, all from :func:`moment_terms` at ``state(m, c)``."""
    plan, d = _plan_at(model), model.dimension

    def rhs(t, y):
        m, c = y[:d], y[d:].reshape(d, d)
        drift_m, a, q = moment_terms(rate, plan(t), state(m, c), d)
        return np.concatenate((drift_m, (a @ c + c @ a.T + q).ravel()))

    return _solve_moments(model, cfg, rhs, method)


def solve_adjusted(
    model: NetworkModel, cfg: SolverConfig | None = None
) -> MomentTrajectory:
    """Gaussian-closed mean and covariance, integrated simultaneously.

    The drift, its Jacobian and the diffusion term are re-closed on the
    running (mean, covariance) pair at every Runge-Kutta stage, from one
    :func:`~qmoments.closure.closed_rate` per transition; the covariance obeys
    ``dC/dt = A C + C A' + Q`` and is symmetrized after each step.
    """
    cfg = cfg or SolverConfig(method="adjusted")
    return _solve_covariance(model, cfg, closed_rate, MomentPoint, "adjusted")


def solve_measure_zero(
    model: NetworkModel, cfg: SolverConfig | None = None
) -> MomentTrajectory:
    """Smooth-case covariance propagation along the plain fluid path.

    The rate kinks are ignored on the grounds that the fluid path spends
    measure-zero time on them: the Jacobian uses fixed one-sided derivatives
    (the convention is stated above :func:`pointwise_rate`) evaluated at the
    fluid state, and the diffusion term uses the pointwise rates there.
    """
    cfg = cfg or SolverConfig(method="measure-zero")
    return _solve_covariance(model, cfg, pointwise_rate, lambda m, c: m.tolist(), "measure-zero")


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


def pointwise_rate(term: tuple, xs: list) -> tuple[float, tuple]:
    """Rate of one compiled term at the state ``xs`` (a list of floats) and
    its one-sided kernel gradient, as ``(index, entry)`` pairs without the
    coefficient, for the entries the kernel reads."""
    code, coeff, j, k, thr, weights, _, _ = term
    # min(u, v) is spelled `v if v < u else u` and max(u, v) `v if v > u
    # else u`, which is how the builtins resolve ties and NaN
    if code == CONST:
        return coeff, ()
    if code == LINEAR:
        return coeff * sum(map(mul, weights, xs)), tuple(enumerate(weights))
    if code == MIN_THRESHOLD:
        xj = xs[j]
        return coeff * (thr if thr < xj else xj), ((j, 1.0),) if xj <= thr else ()
    if code == POSITIVE_PART:
        over = xs[j] - thr
        return coeff * (0.0 if 0.0 > over else over), ((j, 1.0),) if xs[j] > thr else ()
    if code == MIN_PAIR:
        xj, xk = xs[j], xs[k]
        return coeff * (xk if xk < xj else xj), ((j, 1.0),) if xj <= xk else ((k, 1.0),)
    xj, residual = xs[j], thr - xs[k]  # capped residual
    cap = 0.0 if 0.0 > residual else residual
    grad = ((j, 1.0),) if xj <= cap else ((k, -1.0),) if residual > 0.0 else ()
    return coeff * (cap if cap < xj else xj), grad


def moment_terms(rate, terms, state, d: int) -> tuple[np.ndarray, ...]:
    """Drift, Jacobian and diffusion of compiled ``terms`` at ``state``.

    ``rate(term, state)`` is :func:`pointwise_rate` or
    :func:`~qmoments.closure.closed_rate`.  One pass over the transitions, in
    model order, and over each one's nonzero jump entries: drift entry ``a``
    adds ``jump_a * rate``, Jacobian entry ``(a, b)`` adds
    ``coeff * (jump_a * grad_b)`` and diffusion entry ``(a, b)`` adds
    ``(jump_a * jump_b) * rate`` where the rate is positive.
    """
    drift_x = [0.0] * d
    jac = [0.0] * (d * d)
    diffusion = [0.0] * (d * d)
    for term in terms:
        r, grad = rate(term, state)
        coeff, moves = term[1], term[7]
        for a, jump_a in moves:
            drift_x[a] += jump_a * r
            row = a * d
            for b, g in grad:
                jac[row + b] += coeff * (jump_a * g)
            if r > 0.0:
                for b, jump_b in moves:
                    diffusion[row + b] += (jump_a * jump_b) * r
    return np.array(drift_x), np.array(jac).reshape(d, d), np.array(diffusion).reshape(d, d)


def _drift_terms(terms, xs: list, d: int) -> np.ndarray:
    """The drift alone of :func:`moment_terms` under :func:`pointwise_rate`."""
    drift_x = [0.0] * d
    for term in terms:
        r = pointwise_rate(term, xs)[0]
        for a, jump_a in term[7]:
            drift_x[a] += jump_a * r
    return np.array(drift_x)


def _noise_columns(rate, terms, state, d: int) -> np.ndarray:
    """d x k matrix with columns ``jump_i * sqrt(max(rate_i, 0))``; its Gram
    matrix is the diffusion term up to rounding."""
    noise = np.zeros((d, len(terms)))
    for i, term in enumerate(terms):
        r = rate(term, state)[0]
        if r > 0.0:
            noise[:, i] = np.multiply(term[6], math.sqrt(r))
    return noise


def drift(model: NetworkModel, t: float, x) -> np.ndarray:
    """Net state change rate: sum of jump vectors weighted by their rates."""
    return _drift_terms(compile_terms(model, t), list(map(float, x)), model.dimension)


def pointwise_drift_jacobian(model: NetworkModel, t: float, x) -> np.ndarray:
    """Gradient matrix of the pointwise drift with one-sided kink convention."""
    xs = list(map(float, x))
    return moment_terms(pointwise_rate, compile_terms(model, t), xs, model.dimension)[1]


def pointwise_noise_matrix(model: NetworkModel, t: float, x) -> np.ndarray:
    """Columns ``jump_i * sqrt(max(rate_i, 0))`` at the given state."""
    terms = compile_terms(model, t)
    return _noise_columns(pointwise_rate, terms, list(map(float, x)), model.dimension)


def closed_drift(model: NetworkModel, t: float, p: MomentPoint) -> np.ndarray:
    """Jump-weighted sum of Gaussian-closed rates."""
    return moment_terms(closed_rate, compile_terms(model, t), p, model.dimension)[0]


def closed_drift_jacobian(model: NetworkModel, t: float, p: MomentPoint) -> np.ndarray:
    """Gradient matrix of the closed drift with respect to the mean."""
    return moment_terms(closed_rate, compile_terms(model, t), p, model.dimension)[1]


def noise_matrix(model: NetworkModel, t: float, p: MomentPoint) -> np.ndarray:
    """d x k matrix whose i-th column is ``jump_i * sqrt(max(rate_i, 0))``
    under the Gaussian-closed rates."""
    return _noise_columns(closed_rate, compile_terms(model, t), p, model.dimension)
