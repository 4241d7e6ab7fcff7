"""Deterministic transient solvers for mean and covariance trajectories.

:func:`solve` is the one entry point; ``SolverConfig.method`` picks the method:

* ``fluid``        the large-population limit: the pointwise drift's flow,
                   with the covariance reported as zero.
* ``adjusted``     closes drift, Jacobian and diffusion on the running
                   Gaussian surrogate and integrates mean and covariance
                   simultaneously.
* ``measure-zero`` the fluid mean, and the covariance propagated with
                   one-sided derivatives of the kinked rates on the fluid
                   path, which spends measure-zero time on the kinks.

The covariance methods solve ``dC/dt = A C + C A' + sum_i rate_i^+ J_i J_i'``
(the diffusion term of Mandelbaum, Massey & Reiman 1998).  Every method
compiles the model's plan once per solve (:func:`~qmoments.model.compile_segments`)
and takes its steps from one walk, :func:`~qmoments.model.plan_steps`.

**Adjusted** runs fixed-step RK4 on one flat state, the mean followed by the
row-major covariance, symmetrized after each step.  Drift, ``A`` and the
diffusion are re-closed at every stage in one pass, :func:`moment_terms`, under
:func:`~qmoments.closure.closed_rate`, which reads that state as flat lists.  Every
stage reads the compiled terms of its step's plan segment, so each step is an
exact RK4 step of an autonomous system and integrating an alternating
parameter is bitwise the same as chaining its constant segments.

**Fluid and measure-zero** follow the exact switched-affine flow.  Each kernel
is affine in the state between its kinks and each schedule is constant between
breakpoints, so inside a region (one branch per term: the gradient that
:func:`~qmoments.closure.closed_rate` gives at zero covariance) the stacked
state ``z = (x, 1, vec C)`` obeys ``z' = M z``, solved by ``expm(M h) z``
(Van Loan 1978, IEEE TAC 23).  The mean is stepped along the walk's steps
by the ``(x, 1)`` block alone, whose exponentials are cached per plan segment,
region and step length within one solve, so measure-zero's mean is bitwise the
fluid's.  The covariance rows of the full exponential are applied only where a
covariance is read: at samples, crossings and breakpoints.  A region ends
where the path crosses one of its linear switching functions: a kink surface
of a term or the zero of an affine rate.  The side of every switching function
is checked at the end of each step, so ``dt`` is the probe spacing: an excursion
across a surface and back within one probe interval is not seen.  A crossing
is located by safeguarded Newton on the switching function along the flow and
listed in the result's ``crossings``.  Measure-zero's Jacobian and diffusion
are those of :func:`~qmoments.closure.closed_rate` at zero covariance (its tie
conventions are stated in :mod:`qmoments.closure`); the flow takes the branch
a kink leads into, so the convention only decides a path that starts on a
kink and stays there.

The walk ends at the last sample time, so a divergence after it is never
reached, and no step crosses a schedule breakpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .closure import MomentPoint, closed_rate
from .errors import DivergenceError, NumericalError, UsageError
from .model import (
    CAPPED,
    MIN_PAIR,
    MIN_THRESHOLD,
    POSITIVE_PART,
    NetworkModel,
    _real,
    checked_grid,
    compile_segments,
    compile_terms,
    plan_steps,
    validate_model,  # noqa: F401  uncalled; perfbench/spans.py rebinds it
)
from .results import MomentTrajectory

METHODS = ("fluid", "adjusted", "measure-zero")
FLOW_METHODS = ("fluid", "measure-zero")
CROSSING_CAP = 100  # crossings per plan segment; more means the path chatters on a kink
_PUSH = 1e-9  # the region past a crossing is read this far along the drift, in time units
_ROOT_TOL = 1e-13  # crossing times are located to this, in time units


@dataclass(frozen=True)
class SolverConfig:
    """Step size (the probe spacing for fluid and measure-zero), method and
    output grid for one solve; checked when built.

    ``method`` is one of :data:`METHODS` (``measure_zero`` reads as
    ``measure-zero``).  ``grid`` follows :func:`~qmoments.model.checked_grid`;
    ``None`` is every whole time unit.
    """

    dt: float = 0.01
    method: str = "adjusted"
    grid: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "dt", _real(self.dt, "dt"))
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise UsageError(f"dt must be positive and finite, got {self.dt}")
        if self.method == "measure_zero":
            object.__setattr__(self, "method", "measure-zero")
        if self.method not in METHODS:
            raise UsageError(
                f"unknown solver method {self.method!r}; choose from {', '.join(METHODS)}"
            )


def _poorly_conditioned(cov: np.ndarray) -> bool:
    trace = float(np.trace(cov))
    return trace > 0 and float(np.linalg.eigvalsh(cov)[0]) < -1e-4 * trace


def _solve_moments(model: NetworkModel, cfg: SolverConfig, rhs, method: str):
    """RK4 on the mean followed by the row-major covariance over
    :func:`~qmoments.model.plan_steps`.  ``rhs(terms, y)`` returns the
    derivative of ``y`` under the step's compiled ``terms``."""
    grid = checked_grid(model, cfg.grid)
    segments = compile_segments(model)
    d = model.dimension
    y = np.zeros(d + d * d)
    y[:d] = model.initial_state
    cov = y[d:].reshape(d, d)  # a view, updated in place
    means = np.zeros((len(grid), d))
    covs = np.zeros((len(grid), d, d))
    warnings: list[str] = []

    # overflow is an anticipated, detected condition here, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for t0, t1, seg, gi in plan_steps(model, grid, cfg.dt):
            if t1 > t0:
                h, terms = t1 - t0, segments[seg][2]
                k1 = rhs(terms, y)
                k2 = rhs(terms, y + 0.5 * h * k1)
                k3 = rhs(terms, y + 0.5 * h * k2)
                k4 = rhs(terms, y + h * k3)
                y += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                cov += cov.T
                cov *= 0.5
                if not np.isfinite(y).all():
                    raise DivergenceError(
                        f"{method} solve diverged between t={t0:g} and t={t1:g}",
                        last_time=float(t0),
                    )
            if gi >= 0:
                means[gi] = y[:d]
                covs[gi] = cov
                if _poorly_conditioned(cov):
                    warnings.append(f"covariance poorly conditioned at t={grid[gi]:g}")
    return MomentTrajectory(method, grid.copy(), means, covs, warnings)


# --------------------------------------------------------------------------
# The exact switched-affine flow of fluid and measure-zero.


def _kink_surfaces(terms, d: int) -> dict[tuple, tuple]:
    """Each term's kink surfaces ``w . x = c`` as rows ``(w, -c)`` over
    ``(x, 1)``, each once: row to ``(label, owning transitions)``."""
    surfaces: dict[tuple, tuple] = {}

    def add(i, label, c, *coords):
        row = [0.0] * (d + 1)
        for a, w in coords:
            row[a] = w
        row[d] = -c
        surfaces.setdefault(tuple(row), (label, []))[1].append(i)

    for i, (code, _, j, k, thr, _, _, _) in enumerate(terms):
        if code in (MIN_THRESHOLD, POSITIVE_PART):
            add(i, f"x{j} = {thr:g}", thr, (j, 1.0))
        elif code == MIN_PAIR:
            add(i, f"x{j} = x{k}", 0.0, (j, 1.0), (k, -1.0))
        elif code == CAPPED:
            add(i, f"x{j} + x{k} = {thr:g}", thr, (j, 1.0), (k, 1.0))
            add(i, f"x{k} = {thr:g}", thr, (k, 1.0))
            add(i, f"x{j} = 0", 0.0, (j, 1.0))
    return surfaces


def _parallel(u, v) -> bool:
    """Whether two switching rows are one surface: equal up to scale and rounding."""
    nu, nv = math.hypot(*u), math.hypot(*v)
    return min(max(abs(a / nu - s * b / nv) for a, b in zip(u, v)) for s in (1, -1)) <= 1e-9


class _Region:
    """One region of one plan segment: every term on one branch, every rate
    on one side of zero.  Holds the flow matrix of ``(x, 1)`` (``flow``), the
    same with ``vec C`` appended for measure-zero (``full``), the switching
    functions as rows over ``(x, 1)`` whose sign tells the side
    (``surfaces``), and the step exponentials cached by step length."""

    def __init__(self, terms, kinks, jumps, rates, xs, with_cov):
        k, d = jumps.shape
        # rate_i = alpha_i + beta_i . x in the region: beta = coeff * grad
        beta, alpha = np.zeros((k, d)), np.zeros(k)
        for i, (term, (r, grad)) in enumerate(zip(terms, rates)):
            for b, g in grad:
                beta[i, b] = term[1] * g
            alpha[i] = r - sum(beta[i, b] * xs[b] for b, _ in grad)
        a = jumps.T @ beta
        self.flow = np.zeros((d + 1, d + 1))
        self.flow[:d, :d] = a
        self.flow[:d, d] = jumps.T @ alpha
        # the zero of an affine rate is a switching function: -rate <= 0 while rate >= 0,
        # unless it lies on a kink surface of its own term, which is then that surface
        zeros = {i: (*-beta[i], -alpha[i]) for i in range(k) if beta[i].any()}
        moving = [i for i, zero in zeros.items() if not any(
            i in owners and _parallel(row, zero) for row, (_, owners) in kinks.items())]
        rows = list(kinks) + [zeros[i] for i in moving]
        self.labels = [*kinks.values()] + [("rate = 0", [i]) for i in moving]
        self.surfaces = np.array(rows).reshape(len(rows), d + 1)
        self.full = None
        if with_cov:  # rows of vec C: (A (+) A) vec C + Q_0 + sum_a Q_a x_a
            on = np.array([r >= 0.0 for r, _ in rates], dtype=float)
            outer = (jumps[:, :, None] * jumps[:, None, :]).reshape(k, d * d) * on[:, None]
            eye = np.eye(d)
            self.full = np.zeros((d + 1 + d * d, d + 1 + d * d))
            self.full[: d + 1, : d + 1] = self.flow
            self.full[d + 1 :, :d] = outer.T @ beta
            self.full[d + 1 :, d] = outer.T @ alpha
            self.full[d + 1 :, d + 1 :] = np.kron(a, eye) + np.kron(eye, a)
        self.steps: dict[float, np.ndarray] = {}

    def step(self, h: float) -> np.ndarray:
        """``expm(flow h)``, cached."""
        out = self.steps.get(h)
        if out is None:
            out = self.steps[h] = expm(self.flow * h)
        return out


def _crossing_time(row, flow, xa, h: float, below: bool, f_end: float):
    """First time in ``(0, h]`` at which ``row . (x, 1)`` leaves the side
    ``below`` (value <= 0) it held at 0, by Newton on the flow from the
    regula falsi guess, kept inside the bracket.  Returns the time and the
    ``(x, 1)`` state there."""
    lo, hi = 0.0, h
    f0 = float(row @ xa)
    tau = h * f0 / (f0 - f_end) if f0 != f_end else 0.5 * h
    if not 0.0 < tau < h:
        tau = 0.5 * h
    for _ in range(100):
        x = expm(flow * tau) @ xa
        f = float(row @ x)
        if (f <= 0.0) == below:
            lo = tau
        else:
            hi = tau
        slope = float(row @ (flow @ x))
        nxt = tau - f / slope if slope else math.nan
        if not lo < nxt < hi:  # Newton left the bracket: halve it instead
            nxt = 0.5 * (lo + hi)
        if abs(nxt - tau) <= _ROOT_TOL:
            break
        tau = nxt
    return tau, x


def _solve_flow(model: NetworkModel, cfg: SolverConfig) -> MomentTrajectory:
    """Fluid or measure-zero (``cfg.method``) by the switched-affine flow over
    :func:`~qmoments.model.plan_steps`.

    The mean is stepped by the cached ``(x, 1)`` exponentials.  The covariance
    is formed only where it is read, at samples, crossings and breakpoints,
    from ``(x, 1, vec C)`` at the last such time."""
    grid = checked_grid(model, cfg.grid)
    d, method = model.dimension, cfg.method
    with_cov = method == "measure-zero"
    segments = compile_segments(model)
    jumps = np.array([tr.jump for tr in model.transitions], dtype=float)
    xa = np.array([*model.initial_state, 1.0])  # (x, 1)
    c = np.zeros(d * d)  # row-major covariance
    t_cov, z_cov = 0.0, np.concatenate((xa, c))  # where the covariance was last formed
    means = np.zeros((len(grid), d))
    covs = np.zeros((len(grid), d, d))
    warnings: list[str] = []
    crossings: list[list] = []
    regions: dict = {}
    zero_cov = [0.0] * (d * d)  # under which closed_rate is the pointwise rate

    def region_at(si, xs: list):
        """The region just past ``xs`` along the drift, and its sides there."""
        terms = segments[si][2]
        rates = [closed_rate(term, (xs, zero_cov)) for term in terms]
        drift_x = jumps.T @ np.array([r for r, _ in rates])
        ahead = (np.array(xs) + _PUSH * drift_x).tolist()
        rates = [closed_rate(term, (ahead, zero_cov)) for term in terms]
        key = (si, *(g for _, g in rates), *(r >= 0.0 for r, _ in rates))
        region = regions.get(key)
        if region is None:
            kinks = _kink_surfaces(terms, d)
            region = regions[key] = _Region(terms, kinks, jumps, rates, ahead, with_cov)
        return key, region, region.surfaces @ np.array([*ahead, 1.0]) <= 0.0

    def carry(region, t: float):
        """Form the covariance at ``t`` (where the mean is ``xa``) through ``region``."""
        nonlocal c, t_cov, z_cov
        if with_cov and t != t_cov:
            cov = (expm(region.full * (t - t_cov))[d + 1 :] @ z_cov).reshape(d, d)
            if not np.isfinite(cov).all():
                raise DivergenceError(
                    f"{method} solve diverged between t={t_cov:g} and t={t:g}",
                    last_time=float(t_cov),
                )
            c = (0.5 * (cov + cov.T)).ravel()
            t_cov, z_cov = t, np.concatenate((xa, c))

    si = -1
    # overflow is an anticipated, detected condition here, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for t, t1, seg, gi in plan_steps(model, grid, cfg.dt):
            if seg != si:
                if si >= 0:
                    carry(region, t)
                si, crossed = seg, 0
                key, region, sides = region_at(si, xa[:d].tolist())
            while t1 > t:
                xa1 = region.step(t1 - t) @ xa
                if not np.isfinite(xa1).all():
                    raise DivergenceError(
                        f"{method} solve diverged between t={t:g} and t={t1:g}",
                        last_time=float(t),
                    )
                sides1 = region.surfaces @ xa1 <= 0.0
                if (sides1 == sides).all():
                    xa = xa1
                    break
                # the earliest switching function to change side sets the crossing
                tau, xa, hit = min(
                    (
                        (*_crossing_time(region.surfaces[i], region.flow, xa, t1 - t, sides[i],
                                         float(region.surfaces[i] @ xa1)), i)
                        for i in np.flatnonzero(sides1 != sides)
                    ),
                    key=lambda found: found[0],
                )
                t += tau
                carry(region, t)
                crossed += 1
                if crossed > CROSSING_CAP:
                    raise NumericalError(
                        f"{method} solve crossed switching surfaces more than {CROSSING_CAP} "
                        f"times in the plan segment from t={segments[si][0]:g} (the path stays "
                        f"on or circles a kink); last crossing at t={t:.12g}, x={xa[:d].tolist()}"
                    )
                label, owners = region.labels[hit]
                new_key, region, sides = region_at(si, xa[:d].tolist())
                if new_key != key:
                    crossings.extend([t, i, label] for i in owners)
                key = new_key
            if gi >= 0:
                carry(region, t1)
                means[gi] = xa[:d]
                covs[gi] = c.reshape(d, d)
                if with_cov and _poorly_conditioned(covs[gi]):
                    warnings.append(f"covariance poorly conditioned at t={grid[gi]:g}")
    return MomentTrajectory(method, grid.copy(), means, covs, warnings, crossings=crossings)


def solve(model: NetworkModel, cfg: SolverConfig) -> MomentTrajectory:
    """The trajectory of ``cfg.method`` on ``cfg.grid``."""
    if cfg.method != "adjusted":
        return _solve_flow(model, cfg)
    d = model.dimension

    def rhs(terms, y):
        c = y[d:].reshape(d, d)
        drift_m, a, q = moment_terms(terms, (y[:d].tolist(), y[d:].tolist()), d)
        return np.concatenate((drift_m, (a @ c + c @ a.T + q).ravel()))

    return _solve_moments(model, cfg, rhs, "adjusted")


def moment_terms(terms, state, d: int) -> tuple[np.ndarray, ...]:
    """Drift, Jacobian and diffusion of compiled ``terms`` at ``state``.

    Rates come from :func:`~qmoments.closure.closed_rate`, pointwise at a zero
    covariance.  One pass over the transitions, in model order, and over each
    one's nonzero jump entries: drift entry ``a`` adds ``jump_a * rate``,
    Jacobian entry ``(a, b)`` adds ``coeff * (jump_a * grad_b)`` and diffusion
    entry ``(a, b)`` adds ``(jump_a * jump_b) * rate`` where it is positive.
    """
    drift_x = [0.0] * d
    jac = [0.0] * (d * d)
    diffusion = [0.0] * (d * d)
    for term in terms:
        r, grad = closed_rate(term, state)
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


def _noise_columns(terms, state, d: int) -> np.ndarray:
    """d x k matrix with columns ``jump_i * sqrt(max(rate_i, 0))``; its Gram
    matrix is the diffusion term up to rounding."""
    noise = np.zeros((d, len(terms)))
    for i, term in enumerate(terms):
        r = closed_rate(term, state)[0]
        if r > 0.0:
            noise[:, i] = np.multiply(term[6], math.sqrt(r))
    return noise


def _point(model: NetworkModel, x) -> tuple[list, list]:
    """The state ``x`` with zero covariance, where rates are pointwise."""
    return list(map(float, x)), [0.0] * (model.dimension * model.dimension)


def drift(model: NetworkModel, t: float, x) -> np.ndarray:
    """Net state change rate: sum of jump vectors weighted by their rates."""
    return moment_terms(compile_terms(model, t), _point(model, x), model.dimension)[0]


def pointwise_drift_jacobian(model: NetworkModel, t: float, x) -> np.ndarray:
    """Gradient matrix of the pointwise drift with one-sided kink convention."""
    return moment_terms(compile_terms(model, t), _point(model, x), model.dimension)[1]


def pointwise_noise_matrix(model: NetworkModel, t: float, x) -> np.ndarray:
    """Columns ``jump_i * sqrt(max(rate_i, 0))`` at the given state."""
    return _noise_columns(compile_terms(model, t), _point(model, x), model.dimension)


def closed_drift(model: NetworkModel, t: float, p: MomentPoint) -> np.ndarray:
    """Jump-weighted sum of Gaussian-closed rates."""
    return moment_terms(compile_terms(model, t), p.flat(), model.dimension)[0]


def closed_drift_jacobian(model: NetworkModel, t: float, p: MomentPoint) -> np.ndarray:
    """Gradient matrix of the closed drift with respect to the mean."""
    return moment_terms(compile_terms(model, t), p.flat(), model.dimension)[1]


def noise_matrix(model: NetworkModel, t: float, p: MomentPoint) -> np.ndarray:
    """d x k matrix whose i-th column is ``jump_i * sqrt(max(rate_i, 0))``
    under the Gaussian-closed rates."""
    return _noise_columns(compile_terms(model, t), p.flat(), model.dimension)
