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
takes its checked sample times and its steps from one walk,
:func:`~qmoments.model.plan_steps`, each step with its segment's compiled
terms; segments with equal terms share one list, whose identity keys the
flow's regions and adjusted's moment tables.

**Adjusted** integrates one flat state, the mean followed by the row-major
covariance, by error-controlled DOP853 (scipy's ``solve_ivp``; Hairer, Norsett
& Wanner, *Solving ODEs I*, II.10), one solve per gap of the walk from stop to
stop, symmetrized and reported at the gap's end.  A step passes when the RMS of
``err / (atol + RTOL |y|)`` is at most 1, where per gap ``atol`` is ``RTOL``
times each block's (mean, covariance) largest |value| or, if more, the gap
length times its largest |derivative| at the gap's start, and at least 1e-300.
Drift, ``A`` and the diffusion are re-closed at every stage in one pass over
plain lists under :func:`~qmoments.closure.closed_rate`, from index tables
built once per list of terms (:func:`moment_terms` is its array form), and
``A C + C A'`` is formed as ``M + M'`` with ``M = A C``: equal only to rounding,
since a stage's covariance can be asymmetric in its last ulp.  ``work`` holds
the accepted ``steps`` and the ``rhs_calls``.

**Fluid and measure-zero** follow the exact switched-affine flow.  Each kernel
is affine in the state between its kinks and each schedule is constant between
breakpoints, so inside a region (one branch per term: the gradient that
:func:`~qmoments.closure.closed_rate` gives at zero covariance) the stacked
state ``z = (x, 1, vec C)`` obeys ``z' = M z``, solved by ``expm(M h) z`` (Van
Loan 1978, IEEE TAC 23).  A region ends where the path crosses one of its linear
switching functions ``s = r . (x, 1)``: a kink surface of a term or the zero of
an affine rate.  The walk goes from stop to stop and splits a step only where a
certificate on the exact flow fails (:func:`_certify`).  The ends of a step give
``s``, ``s'`` and ``s''`` exactly, and ``|s'''| <= |w A^2| expm(P h) |x'(0)|``
entrywise, where ``A`` is the flow's state block, ``w`` the state part of ``r``
and ``P`` is ``|A|`` with its negative diagonal raised to 0, which keeps
``A``'s zero pattern.  A switching function that keeps its side at both ends is
certified not to leave it in between; one that changes side must be certified
to cross exactly once, and safeguarded Newton, started at the root of the cubic
Hermite through the step's ends, then finds that first crossing, listed in the
result's ``crossings``.  A failing step is retried at ``gap / 2**k``, with ``k``
from the bound, so its exponentials, cached per region and step length, are
reused.  Splits stop at ``gap / 2**30``, where the step ends' sides decide.
``work`` counts the exponential ``steps`` and, of them, the ``retries``.  The
mean is stepped by the ``(x, 1)`` block alone, so measure-zero's mean is
bitwise the fluid's; the covariance rows of the full exponential are applied
only where a covariance is read: at samples, crossings and where the terms
change.  Measure-zero's Jacobian and diffusion are those of
:func:`~qmoments.closure.closed_rate` at zero covariance (its tie conventions
are stated in :mod:`qmoments.closure`); the flow takes the branch a kink leads
into, so the convention only decides a path that starts on a kink and stays
there.  A flow that overflows is halved until its last finite time is known to
within 0.01.

The walk ends at the last sample time, so a divergence after it is never
reached, and no step crosses a schedule breakpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from .closure import MomentPoint, closed_rate
from .errors import DivergenceError, NumericalError, UsageError
from .model import (
    CAPPED,
    MIN_PAIR,
    MIN_THRESHOLD,
    POSITIVE_PART,
    NetworkModel,
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
_ON_SURFACE = 64 * np.finfo(float).eps  # |s| within this of |row| . |(x, 1)| is on the surface
_SPLITS = 30  # a gap is split down to gap / 2**_SPLITS at most; then the step ends decide
_DIVERGENCE_TOL = 0.01  # a divergence of the flow is located to this, in time units
RTOL = 3e-11  # adjusted's DOP853 tolerance: within 1e-10 of a step -> 0 reference


@dataclass(frozen=True)
class SolverConfig:
    """Method and output grid for one solve, checked when built.  Every method
    steps from stop to stop of :func:`~qmoments.model.plan_steps`.

    ``method`` is one of :data:`METHODS` (``measure_zero`` reads as
    ``measure-zero``).  ``grid`` follows :func:`~qmoments.model.checked_grid`;
    ``None`` is every whole time unit.
    """

    method: str = "adjusted"
    grid: np.ndarray | None = None

    def __post_init__(self):
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
    """DOP853 on the mean and row-major covariance, one solve per gap of
    :func:`~qmoments.model.plan_steps`; ``rhs(terms, y)`` is the derivative of
    ``y`` under the gap's compiled ``terms``."""
    grid, steps = plan_steps(model, cfg.grid)
    d = model.dimension
    y = np.zeros(d + d * d)
    y[:d] = model.initial_state
    means, covs = np.zeros((len(grid), d)), np.zeros((len(grid), d, d))
    warnings: list[str] = []
    work = {"steps": 0, "rhs_calls": 0}

    # overflow is an anticipated, detected condition here, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for t0, t1, terms, gi in steps:
            if t1 > t0:
                f, atol = rhs(terms, y), np.empty_like(y)
                for k in (slice(0, d), slice(d, None)):
                    scale = max(np.abs(y[k]).max(), (t1 - t0) * np.abs(f[k]).max())
                    atol[k] = max(RTOL * scale, 1e-300)
                sol = solve_ivp(lambda _t, z: rhs(terms, z), (t0, t1), y, "DOP853",
                                rtol=RTOL, atol=atol)
                if sol.status or not np.isfinite(sol.y[:, -1]).all():
                    last = float(sol.t[np.isfinite(sol.y).all(0)][-1])
                    raise DivergenceError(
                        f"{method} solve diverged between t={last:g} and t={t1:g}",
                        last_time=last,
                    )
                work["steps"] += len(sol.t) - 1
                work["rhs_calls"] += sol.nfev + 1  # and the call that set atol
                cov = sol.y[d:, -1].reshape(d, d)
                y = np.concatenate((sol.y[:d, -1], (0.5 * (cov + cov.T)).ravel()))
            if gi >= 0:
                means[gi] = y[:d]
                covs[gi] = y[d:].reshape(d, d)
                if _poorly_conditioned(covs[gi]):
                    warnings.append(f"covariance poorly conditioned at t={grid[gi]:g}")
    return MomentTrajectory(method, grid.copy(), means, covs, warnings, work=work)


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
        # s = rows[:n] . (x, 1); s' and s'' are the next n rows each; |s'''| = |w A^2 x'|
        slopes = self.surfaces @ self.flow
        self.rows = np.vstack((self.surfaces, slopes, slopes @ self.flow))
        self.jerks = np.abs(self.surfaces[:, :d] @ a @ a)
        # |expm(A tau)| <= expm(P tau) <= expm(P h) for 0 <= tau <= h, entrywise:
        # P is |A| with each negative diagonal entry raised to 0
        self.majorant = np.abs(a)
        np.fill_diagonal(self.majorant, np.maximum(np.diagonal(a), 0.0))
        self.steps: dict[float, tuple] = {}

    def step(self, h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``expm(flow h)``, its entrywise absolute value and ``expm(P h)``, cached."""
        out = self.steps.get(h)
        if out is None:
            e = expm(self.flow * h)
            out = self.steps[h] = (e, np.abs(e), expm(self.majorant * h))
        return out


def _certify(region, step, xa, xa1, h: float, sign):
    """Which switching functions are certified to keep their side over the
    step of length ``h`` from ``xa`` to ``xa1`` (``kept``) and which to cross
    it exactly once (``crossing``), and a step length for a retry; ``step``
    is ``region.step(h)``.

    With ``s`` signed (``sign``) so that its side is ``s <= 0``, ``s''`` over the
    step lies within ``B h / 2`` of the mean of its end values, where ``B``
    bounds ``|s'''|``.  So ``s`` lies below the parabola ``s + s' tau + K tau^2
    / 2`` drawn from either end, with ``K >= max(s'', 0)``, and its largest value
    is at an end or where the two parabolas meet.  It keeps its side where
    that bound is within rounding of the surface: the side at the step's start
    is the one :func:`_solve_flow`'s ``region_at`` gave, so a path that sits on
    a surface keeps it.  It crosses once where it ends on the other side and
    the same bounds keep ``s'`` positive.  The retry keeps a failing ``s``
    below the parabola from the start, or ``s''`` negative."""
    n = len(sign)
    _, flow_abs, growth = step
    scale = np.abs(xa).max()  # every test is homogeneous in (x, 1)
    xa, xa1 = xa / scale, xa1 / scale
    ends = (region.rows @ np.column_stack((xa, xa1))).reshape(3, n, 2) * sign[:, None]
    (s0, s1), (d0, d1), (c0, c1) = ends.transpose(0, 2, 1)
    s0 = np.minimum(s0, 0.0)
    jerk = region.jerks @ (growth @ np.abs(region.flow[:-1] @ xa))
    mid, half = 0.5 * (c0 + c1), 0.5 * h * jerk
    hi, lo = np.maximum(mid + half, 0.0), np.minimum(mid - half, 0.0)  # bounds of s''
    tol = _ON_SURFACE * (np.abs(region.surfaces) @ (flow_abs @ np.abs(xa)))
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = (s1 - s0 - d1 * h + 0.5 * hi * h * h) / (d0 - d1 + hi * h)
        meet = np.where((tau > 0.0) & (tau < h), s0 + tau * (d0 + 0.5 * hi * tau), -math.inf)
        kept = (np.maximum(np.maximum(s0, s1), meet) <= tol) & np.isfinite(jerk)
        tau = np.clip(np.where(hi > lo, (d0 - d1 + hi * h) / (hi - lo), 0.0), 0.0, h)  # least s'
        rising = np.maximum(d0 + lo * tau, d1 - hi * (h - tau)) > 0.0
        crossing = ~kept & (s1 > tol) & rising & np.isfinite(jerk)
        retry = np.maximum((np.sqrt(d0 * d0 - 2.0 * hi * s0) - d0) / hi, -c0 / jerk)
    retry = np.where((retry > 0.0) & (retry < h), retry, 0.5 * h)[~(kept | crossing)]
    return kept, crossing, float(retry.min(initial=h))


def _crossing_time(region, i: int, xa, xa1, h: float, below: bool):
    """First time in ``(0, h]`` at which switching function ``i`` of ``region``
    leaves the side ``below`` (value <= 0) it held at 0 on the step from ``xa``
    to ``xa1``, by Newton on the flow kept inside the bracket, started at the
    cubic Hermite's root (Newton from regula falsi) through the step's end
    values and slopes.  Returns the time and the ``(x, 1)`` state there."""
    row, n = region.surfaces[i], len(region.surfaces)
    (s0, s1), (m0, m1) = (region.rows[[i, n + i]] @ np.column_stack((xa, xa1))).tolist()
    m0, m1 = m0 * h, m1 * h  # the cubic is s0 + m0 u + c2 u^2 + c3 u^3 in u = tau / h
    c2, c3 = 3.0 * (s1 - s0) - 2.0 * m0 - m1, 2.0 * (s0 - s1) + m0 + m1
    guess = u = s0 / (s0 - s1) if s0 != s1 else 0.5
    for _ in range(8):
        slope = m0 + u * (2.0 * c2 + 3.0 * c3 * u)
        step = (s0 + u * (m0 + u * (c2 + u * c3))) / slope if slope else math.nan
        u -= step
        if not 0.0 < u < 1.0 or abs(step) <= 1e-15:
            break
    tau = h * (u if 0.0 < u < 1.0 else guess if 0.0 < guess < 1.0 else 0.5)
    lo, hi = 0.0, h
    for _ in range(100):
        x = expm(region.flow * tau) @ xa
        f = float(row @ x)
        if (f <= 0.0) == below:
            lo = tau
        else:
            hi = tau
        slope = float(row @ (region.flow @ x))
        nxt = tau - f / slope if slope else math.nan
        if not lo < nxt < hi:  # Newton left the bracket: halve it instead
            nxt = 0.5 * (lo + hi)
        if abs(nxt - tau) <= _ROOT_TOL:
            break
        tau = nxt
    return tau, x


def _solve_flow(model: NetworkModel, cfg: SolverConfig) -> MomentTrajectory:
    """Fluid or measure-zero (``cfg.method``) by the switched-affine flow over
    :func:`~qmoments.model.plan_steps`, from stop to stop, each gap split only
    where :func:`_certify` cannot vouch for a step.  The covariance is formed
    from ``(x, 1, vec C)`` at the last time it was read."""
    grid, steps = plan_steps(model, cfg.grid)
    d, method = model.dimension, cfg.method
    with_cov = method == "measure-zero"
    jumps = np.array([tr.jump for tr in model.transitions], dtype=float)
    xa = np.array([*model.initial_state, 1.0])  # (x, 1)
    c = np.zeros(d * d)  # row-major covariance
    t_cov, z_cov = 0.0, np.concatenate((xa, c))  # where the covariance was last formed
    means, covs = np.zeros((len(grid), d)), np.zeros((len(grid), d, d))
    warnings: list[str] = []
    crossings: list[list] = []
    regions: dict = {}  # segments with equal terms share one list, so they share regions
    zero_cov = [0.0] * (d * d)  # under which closed_rate is the pointwise rate

    def region_at(terms, xs: list):
        """The region of ``terms`` just past ``xs`` along the drift, and the sign
        of each of its switching functions that is negative on the side there."""
        rates = [closed_rate(term, (xs, zero_cov)) for term in terms]
        drift_x = jumps.T @ np.array([r for r, _ in rates])
        ahead = (np.array(xs) + _PUSH * drift_x).tolist()
        rates = [closed_rate(term, (ahead, zero_cov)) for term in terms]
        key = (id(terms), *(g for _, g in rates), *(r >= 0.0 for r, _ in rates))
        region = regions.get(key)
        if region is None:
            kinks = _kink_surfaces(terms, d)
            region = regions[key] = _Region(terms, kinks, jumps, rates, ahead, with_cov)
        return key, region, np.where(region.surfaces @ np.array([*ahead, 1.0]) <= 0.0, 1.0, -1.0)

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

    current, work = None, {"steps": 0, "retries": 0}
    # overflow is an anticipated, detected condition here, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for t, t1, terms, gi in steps:
            if terms is not current:
                if current is not None:
                    carry(region, t)
                current, start, crossed = terms, t, 0
                key, region, sign = region_at(terms, xa[:d].tolist())
            # a step is gap / 2**level long, or what is left of the gap
            gap, level = t1 - t, 0
            while t1 > t:
                h = min(t1 - t, gap * 0.5**level)
                step = region.step(h)
                xa1 = step[0] @ xa
                work["steps"] += 1
                if not np.isfinite(xa1).all():
                    if h > _DIVERGENCE_TOL:
                        level = _level(gap, 0.5 * h)
                        work["retries"] += 1
                        continue
                    raise DivergenceError(
                        f"{method} solve diverged between t={t:g} and t={t + h:g}",
                        last_time=float(t),
                    )
                kept, crossing, retry = _certify(region, step, xa, xa1, h, sign)
                if not (kept | crossing).all():
                    if h > gap * 0.5**_SPLITS:
                        level = max(level + 1, _level(gap, retry))
                        work["retries"] += 1
                        continue
                    # too short to split further: the step ends' sides decide
                    crossing = ~kept & ((region.surfaces @ xa1 <= 0.0) != (sign > 0.0))
                if not crossing.any():
                    t, xa, level = t + h, xa1, max(level - 1, 0)
                    continue
                # the earliest switching function to change side sets the crossing
                tau, xa, hit = min(((*_crossing_time(region, i, xa, xa1, h, sign[i] > 0.0), i)
                                    for i in np.flatnonzero(crossing)), key=lambda found: found[0])
                t += tau
                carry(region, t)
                crossed += 1
                if crossed > CROSSING_CAP:
                    raise NumericalError(
                        f"{method} solve crossed switching surfaces more than {CROSSING_CAP} "
                        f"times in the plan segment from t={start:g} (the path stays "
                        f"on or circles a kink); last crossing at t={t:.12g}, x={xa[:d].tolist()}"
                    )
                label, owners = region.labels[hit]
                new_key, region, sign = region_at(terms, xa[:d].tolist())
                if new_key != key:
                    crossings.extend([t, i, label] for i in owners)
                key = new_key
            if gi >= 0:
                carry(region, t1)
                means[gi] = xa[:d]
                covs[gi] = c.reshape(d, d)
                if with_cov and _poorly_conditioned(covs[gi]):
                    warnings.append(f"covariance poorly conditioned at t={grid[gi]:g}")
    return MomentTrajectory(method, grid.copy(), means, covs, warnings, crossings=crossings,
                            work=work)


def _level(gap: float, length: float) -> int:
    """The least level whose step ``gap / 2**level`` is at most ``0 < length <= gap``."""
    return math.ceil(math.log2(gap / length))


def solve(model: NetworkModel, cfg: SolverConfig) -> MomentTrajectory:
    """The trajectory of ``cfg.method`` on ``cfg.grid``."""
    if cfg.method != "adjusted":
        return _solve_flow(model, cfg)
    d = model.dimension
    # (A C)_ab adds A_ac C_cb (y[d + c d + b]) in order of c; output ab adds (A C)_ba and Q_ab
    product = [(a * d + b, a * d + c, d + c * d + b) for a, b, c in np.ndindex(d, d, d)]
    swaps = [b * d + a for a, b in np.ndindex(d, d)]
    tables: dict = {}  # id(terms) -> (terms, its moment table); held, so the id stays unique

    def rhs(terms, y):
        # A C + C A' as M + M' with M = A C: equal only to rounding (a stage's C may be asymmetric)
        if id(terms) not in tables:
            tables[id(terms)] = (terms, _moment_table(terms, d))
        z = y.tolist()
        drift_x, jac, q = _moment_pass(tables[id(terms)][1], (z[:d], z[d:]), d)
        m = [0.0] * (d * d)
        for ab, i, j in product:
            m[ab] += jac[i] * z[j]
        return np.array(drift_x + [m[ab] + m[ba] + q[ab] for ab, ba in enumerate(swaps)])

    return _solve_moments(model, cfg, rhs, "adjusted")


def _moment_table(terms, d: int) -> list[tuple]:
    """Per term ``(term, coeff, [(a, jump_a, a * d)], [(a * d + b, jump_a * jump_b)])``."""
    return [(term, term[1], [(a, jump_a, a * d) for a, jump_a in term[7]],
             [(a * d + b, jump_a * jump_b) for a, jump_a in term[7] for b, jump_b in term[7]])
            for term in terms]


def _moment_pass(table, state, d: int) -> tuple[list, list, list]:
    """:func:`moment_terms` as lists (the Jacobian and diffusion row-major)."""
    drift_x, jac, diffusion = [0.0] * d, [0.0] * (d * d), [0.0] * (d * d)
    for term, coeff, moves, outer in table:
        r, grad = closed_rate(term, state)
        for a, jump_a, row in moves:
            drift_x[a] += jump_a * r
            for b, g in grad:
                jac[row + b] += coeff * (jump_a * g)
        if r > 0.0:
            for ab, jump_ab in outer:
                diffusion[ab] += jump_ab * r
    return drift_x, jac, diffusion


def moment_terms(terms, state, d: int) -> tuple[np.ndarray, ...]:
    """Drift, Jacobian and diffusion of compiled ``terms`` at ``state``.

    Rates come from :func:`~qmoments.closure.closed_rate`, pointwise at a zero
    covariance.  One pass over the transitions, in model order, and over each
    one's nonzero jump entries: drift entry ``a`` adds ``jump_a * rate``,
    Jacobian entry ``(a, b)`` adds ``coeff * (jump_a * grad_b)`` and diffusion
    entry ``(a, b)`` adds ``(jump_a * jump_b) * rate`` where it is positive.
    """
    drift_x, jac, diffusion = _moment_pass(_moment_table(terms, d), state, d)
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
