"""Type-dispatched reference evaluators that the tests hold the package to.

They read the kernel dataclasses and look every schedule up at ``t``, never
the compiled plan (:func:`qmoments.model.compile_term`), so they stay
independent of the evaluators they check:

* ``kernel_value`` and ``eval_rate``  the pointwise kernel and rate;
* ``reference_path``                  one simulated path by a scalar loop;
* ``sample_moments``                  ensemble mean and covariance in exact
                                      rationals;
* ``quad_expected_kernel``            the Gaussian expectation of a rate by
                                      kink-split Gauss-Legendre panels;
* ``ivp_moments``                     the fluid mean and measure-zero
                                      covariance by an adaptive integrator
                                      that stops at every switching surface;
* ``lsoda_adjusted``                  the adjusted mean and covariance by a
                                      multistep integrator, not a
                                      Runge-Kutta pair.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import ndtr

from qmoments import (
    CappedResidual,
    Constant,
    Linear,
    MinPair,
    MinThreshold,
    MomentPoint,
    NetworkModel,
    NumericalError,
    PositivePart,
    RateTerm,
    RngStream,
    UsageError,
)
from qmoments.closure import _pair_spread
from qmoments.model import compile_terms, model_breakpoints
from qmoments.solvers import moment_terms

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def kernel_value(kernel, t: float, x) -> float:
    """Pointwise kernel evaluation at a real-valued state (the simulator's
    states are integers, the fluid path's are not)."""
    if isinstance(kernel, Constant):
        return 1.0
    if isinstance(kernel, Linear):
        return float(sum(w * float(x[i]) for i, w in enumerate(kernel.weights)))
    if isinstance(kernel, MinThreshold):
        return min(float(x[kernel.index]), kernel.threshold.value_at(t))
    if isinstance(kernel, PositivePart):
        return max(float(x[kernel.index]) - kernel.threshold.value_at(t), 0.0)
    if isinstance(kernel, MinPair):
        return min(float(x[kernel.index]), float(x[kernel.other]))
    if isinstance(kernel, CappedResidual):
        residual = max(kernel.threshold.value_at(t) - float(x[kernel.other]), 0.0)
        return min(float(x[kernel.index]), residual)
    raise UsageError(f"unknown kernel type {type(kernel).__name__}")


def eval_rate(model: NetworkModel, i: int, t: float, x) -> float:
    """Rate of transition ``i`` at time ``t`` and state ``x``."""
    if not 0 <= i < model.num_transitions:
        raise UsageError(
            f"transition index {i} out of range [0, {model.num_transitions})"
        )
    term = model.transitions[i].rate
    return term.coefficient.value_at(t) * kernel_value(term.kernel, t, x)


# --------------------------------------------------------------------------
# Scalar simulation path.


def reference_path(model: NetworkModel, rng: RngStream, sample_times) -> np.ndarray:
    """One path by Gillespie's direct method, one event per loop pass.

    Rates come from ``eval_rate`` at each segment's start, are summed in model
    order, and the event is the first transition whose running sum reaches
    ``u * total``; the uniforms of ``rng`` are used in stream order and the
    exponential clock uses ``math.log1p``.  States are recorded as
    :func:`qmoments.simulate_path` records them.
    """
    gen = rng.generator()
    pending: list[float] = []

    def draw() -> float:
        if not pending:
            pending.extend(reversed(gen.random(512).tolist()))
        return pending.pop()

    x = list(model.initial_state)
    times = list(sample_times)
    out: list[list[int]] = []
    bounds = [0.0] + model_breakpoints(model) + [float(model.horizon)]
    k = model.num_transitions
    for start, end in zip(bounds[:-1], bounds[1:]):
        t = start
        while len(out) < len(times):
            rates = [eval_rate(model, i, start, x) for i in range(k)]
            total = 0.0
            for rate in rates:
                total += rate
            t_next = end if total <= 0.0 else t - math.log1p(-draw()) / total
            stop = min(t_next, end)
            while len(out) < len(times) and times[len(out)] < stop:
                out.append(list(x))
            if t_next >= end or len(out) == len(times):
                break
            v, acc, chosen = draw() * total, 0.0, k - 1
            for i, rate in enumerate(rates):
                acc += rate
                if v <= acc:
                    chosen = i
                    break
            x = [a + b for a, b in zip(x, model.transitions[chosen].jump)]
            t = t_next
    out += [list(x)] * (len(times) - len(out))
    return np.array(out, dtype=np.int64)


def sample_moments(paths) -> tuple[np.ndarray, np.ndarray]:
    """Mean and unbiased covariance of integer ``paths`` (reps, times, d) per
    sample time, in exact rationals: the mean first, then the centered
    products about it, each entry rounded once to float at the end."""
    reps, n, d = paths.shape
    data = paths.astype(object)  # Python ints
    means = np.empty((n, d))
    covs = np.empty((n, d, d))
    for t in range(n):
        mean = [Fraction(sum(data[:, t, i]), reps) for i in range(d)]
        dev = [[x - m for x, m in zip(row, mean)] for row in data[:, t]]
        means[t] = [float(m) for m in mean]
        for i in range(d):
            for j in range(d):
                covs[t, i, j] = float(sum(r[i] * r[j] for r in dev) / (reps - 1))
    return means, covs


# --------------------------------------------------------------------------
# Quadrature path.
#
# A plain fixed Gauss-Hermite rule converges only algebraically on the kinked
# kernels (the integrand is C^0), which is far too slow to serve as an oracle
# for the closed forms.  The kink location is always known, so the
# one-dimensional kernels are integrated on Legendre panels split at the
# kink inside the +/- 8 sigma support, where each piece is analytic and the
# panel rule converges to near machine precision.  A linear kernel is the
# one-dimensional Gaussian w . X, and the pair minimum reduces exactly to the
# one-dimensional problem through min(x, y) = (x + y - |x - y|) / 2.  The capped residual is integrated over
# X_other on such panels, with the inner expectation over X_index given
# X_other taken in closed form; besides the kink at the threshold, the
# panels split where the conditional mean of X_index crosses the residual,
# since the integrand bends within a conditional standard deviation of it.

_PANEL_HALF_WIDTH = 8.5  # exp(-t^2) < 1e-31 beyond this in standardized units
_QUAD_ORDER = 64  # Legendre nodes per panel; 32 is off by 2e-6 on one unsplit panel


@lru_cache(maxsize=1)
def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(_QUAD_ORDER)


def _panel_integral(g, kinks: list[float]) -> float:
    """Integrate exp(-t^2) * g(t) / sqrt(pi) with panels split at the kinks."""
    nodes, weights = _legendre_rule()
    points = [-_PANEL_HALF_WIDTH, _PANEL_HALF_WIDTH]
    points.extend(k for k in kinks if -_PANEL_HALF_WIDTH < k < _PANEL_HALF_WIDTH)
    points.sort()
    total = 0.0
    for a, b in zip(points[:-1], points[1:]):
        t = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        total += 0.5 * (b - a) * float(np.sum(weights * np.exp(-t * t) * g(t)))
    return total / math.sqrt(math.pi)


def _quad_capped_residual(kernel: CappedResidual, t: float, p: MomentPoint) -> float:
    j, k = kernel.index, kernel.other
    n = kernel.threshold.value_at(t)
    mj, mk = float(p.mean[j]), float(p.mean[k])
    sk = math.sqrt(max(float(p.cov[k, k]), 0.0))
    slope = float(p.cov[j, k]) / (sk * sk) if sk >= 1e-12 else 0.0
    sc = math.sqrt(max(float(p.cov[j, j]) - slope * float(p.cov[j, k]), 0.0))

    def inner(u):
        y = mk + _SQRT2 * sk * u
        residual = np.maximum(n - y, 0.0)
        mc = mj + slope * (y - mk)
        if sc < 1e-12:
            return np.minimum(mc, residual)
        z = (residual - mc) / sc
        pdf = np.exp(-0.5 * z * z) * _INV_SQRT_2PI
        return (mc - residual) * ndtr(z) + residual - sc * pdf

    if sk < 1e-12:  # X_other is deterministic
        return float(inner(np.zeros(1))[0])
    # standardized outer points: the threshold, and where the conditional
    # mean mj + slope (y - mk) meets n - y (below it) or 0 (above it)
    kinks = [(n - mk) / (_SQRT2 * sk)]
    for level, gain in ((n - mj, 1.0 + slope), (-mj, slope)):
        if gain != 0.0:
            centre = (level + slope * mk) / gain
            width = sc / abs(gain)
            kinks += [(centre + w * width - mk) / (_SQRT2 * sk) for w in (-8, -2, 0, 2, 8)]
    return _panel_integral(inner, kinks)


def quad_expected_kernel(term: RateTerm, t: float, p: MomentPoint) -> float:
    """Numerical-integration estimate of ``expected_kernel``.

    Serves as the independent cross-check of the closed forms.  Uses the 1- or
    2-D marginal the kernel touches (for a linear kernel, the 1-D law of
    ``w . X``), with a fixed 64 Legendre nodes per panel.  It agrees with the
    closed forms to better than 1e-8 absolute whenever sigma >= 1e-3
    (acceptance criterion 01), also in the far tail, where no kink splits the
    panel.  For the capped residual the measured agreement with the closed
    form is 6e-12 over standard deviations 1e-3 to 100 and |correlation| up to
    0.99999; with 32 nodes it is only 2e-4.
    """
    coeff = term.coefficient.value_at(t)
    kernel = term.kernel
    if isinstance(kernel, Constant):
        return coeff
    if isinstance(kernel, Linear):
        w = np.asarray(kernel.weights)
        m, s = float(w @ p.mean), math.sqrt(max(float(w @ p.cov @ w), 0.0))
        # no kink; splitting at the mean resolves the weight to 4e-15 by 32 nodes
        value = _panel_integral(lambda u: m + _SQRT2 * s * u, [0.0])
    elif isinstance(kernel, (MinThreshold, PositivePart)):
        j = kernel.index
        m, s = float(p.mean[j]), math.sqrt(max(float(p.cov[j, j]), 0.0))
        n = kernel.threshold.value_at(t)
        if s < 1e-12:
            value = kernel_value(kernel, t, p.mean)
        else:
            kink = (n - m) / (_SQRT2 * s)
            if isinstance(kernel, MinThreshold):
                g = lambda u: np.minimum(m + _SQRT2 * s * u, n)  # noqa: E731
            else:
                g = lambda u: np.maximum(m + _SQRT2 * s * u - n, 0.0)  # noqa: E731
            value = _panel_integral(g, [kink])
    elif isinstance(kernel, MinPair):
        j, k = kernel.index, kernel.other
        mj, mk = float(p.mean[j]), float(p.mean[k])
        theta = _pair_spread(p.cov.ravel().tolist(), len(p.mean), j, k)
        if theta < 1e-12:
            value = min(mj, mk)
        else:
            mu = mj - mk
            kink = -mu / (_SQRT2 * theta)
            eabs = _panel_integral(lambda u: np.abs(mu + _SQRT2 * theta * u), [kink])
            value = 0.5 * (mj + mk - eabs)
    elif isinstance(kernel, CappedResidual):
        value = _quad_capped_residual(kernel, t, p)
    else:
        raise UsageError(f"unknown kernel type {type(kernel).__name__}")
    result = coeff * value
    if not math.isfinite(result):
        raise NumericalError(f"quadrature produced non-finite value {result}")
    return result


# --------------------------------------------------------------------------
# Adaptive integration of the piecewise-smooth fluid and measure-zero ODEs.


def _switching_rows(model: NetworkModel, t: float) -> list[tuple[np.ndarray, float]]:
    """``(w, c)`` of every surface ``w . x = c`` on which a rate at time ``t``
    kinks or its kernel changes sign, read from the kernel dataclasses."""
    d = model.dimension
    rows = []

    def add(c, *coords):
        w = np.zeros(d)
        for a, v in coords:
            w[a] = v
        rows.append((w, c))

    for tr in model.transitions:
        kernel = tr.rate.kernel
        if isinstance(kernel, Linear):
            rows.append((np.array(kernel.weights, dtype=float), 0.0))
        elif isinstance(kernel, (MinThreshold, PositivePart)):
            add(kernel.threshold.value_at(t), (kernel.index, 1.0))
            if isinstance(kernel, MinThreshold):
                add(0.0, (kernel.index, 1.0))
        elif isinstance(kernel, MinPair):
            add(0.0, (kernel.index, 1.0), (kernel.other, -1.0))
            add(0.0, (kernel.index, 1.0))
            add(0.0, (kernel.other, 1.0))
        elif isinstance(kernel, CappedResidual):
            n = kernel.threshold.value_at(t)
            add(n, (kernel.index, 1.0), (kernel.other, 1.0))
            add(n, (kernel.other, 1.0))
            add(0.0, (kernel.index, 1.0))
    return rows


def ivp_moments(model: NetworkModel, grid, tol: float = 1e-12):
    """Fluid means and measure-zero covariances at ``grid`` by DOP853
    (``rtol = atol = tol``), RHS from ``moment_terms`` at zero covariance.

    The integration restarts at every schedule breakpoint, sample time and
    switching surface (terminal events), so each call sees a smooth RHS.  A
    surface the state sits on at a restart counts only when the path comes
    back to it; one it sits on without moving is left out until the next
    restart.
    """
    d = model.dimension
    zero = [0.0] * (d * d)  # pointwise rates: the closed rate at zero covariance
    y = np.zeros(d + d * d)
    y[:d] = model.initial_state
    grid = [float(g) for g in grid]
    stops = sorted(set([0.0, *model_breakpoints(model), *grid]))
    stops = [s for s in stops if s <= grid[-1]]
    means, covs, a = [], [], 0.0
    for b in stops:
        if b > a:
            terms = compile_terms(model, a)
            rows = _switching_rows(model, a)

            def rhs(_t, y, terms=terms):
                c = y[d:].reshape(d, d)
                drift, jac, diffusion = moment_terms(terms, (y[:d].tolist(), zero), d)
                return np.concatenate((drift, (jac @ c + c @ jac.T + diffusion).ravel()))

            t, a = a, b
            while t < b:
                x, slope = y[:d], rhs(t, y)[:d]
                events = []
                for w, c in rows:
                    g0, dg = float(w @ x) - c, float(w @ slope)
                    direction = 0.0
                    if abs(g0) <= 1e-9 * (1.0 + abs(c) + float(np.abs(w) @ np.abs(x))):
                        if dg == 0.0:
                            continue
                        direction = -1.0 if dg > 0.0 else 1.0

                    def event(_t, y, w=w, c=c):
                        return float(w @ y[:d]) - c

                    event.terminal, event.direction = True, direction
                    events.append(event)
                sol = solve_ivp(rhs, (t, b), y, method="DOP853", rtol=tol, atol=tol, events=events)
                if sol.status < 0:
                    raise NumericalError(f"solve_ivp failed at t={t}: {sol.message}")
                t, y = (float(sol.t[-1]) if sol.status == 1 else b), sol.y[:, -1].copy()
        if b in grid:
            means.append(y[:d].copy())
            covs.append(y[d:].reshape(d, d).copy())
    return np.array(means), np.array(covs)


def lsoda_adjusted(model: NetworkModel, grid, tol: float = 1e-13):
    """Adjusted means and covariances at ``grid`` by LSODA (Adams/BDF
    multistep, ``rtol = atol = tol``), the closed RHS from ``moment_terms``.

    The integration restarts at every schedule breakpoint and sample time.  At
    ``tol = 1e-13`` it agrees with Radau IIA at ``rtol = atol = 1e-12`` within
    1.7e-12 of the largest |value| of each kind on presets 1-10, priority and
    peer, at a fiftieth of Radau's cost.
    """
    d = model.dimension
    y = np.zeros(d + d * d)
    y[:d] = model.initial_state
    grid = [float(g) for g in grid]
    stops = sorted(s for s in set([0.0, *model_breakpoints(model), *grid]) if s <= grid[-1])
    means, covs, a = [], [], 0.0
    for b in stops:
        if b > a:
            terms = compile_terms(model, a)

            def rhs(_t, y, terms=terms):
                c = y[d:].reshape(d, d)
                drift, jac, diffusion = moment_terms(terms, (y[:d].tolist(), y[d:].tolist()), d)
                return np.concatenate((drift, (jac @ c + c @ jac.T + diffusion).ravel()))

            sol = solve_ivp(rhs, (a, b), y, method="LSODA", rtol=tol, atol=tol)
            if sol.status < 0:
                raise NumericalError(f"solve_ivp failed at t={a}: {sol.message}")
            y, a = sol.y[:, -1], b
        if b in grid:
            means.append(y[:d].copy())
            covs.append(y[d:].reshape(d, d).copy())
    return np.array(means), np.array(covs)
