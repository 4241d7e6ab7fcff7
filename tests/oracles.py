"""Type-dispatched reference evaluators that the tests hold the package to.

They read the kernel dataclasses and look every schedule up at ``t``, never
the compiled plan (:func:`qmoments.model.compile_term`), so they stay
independent of the evaluators they check:

* ``kernel_value`` and ``eval_rate``  the pointwise kernel and rate;
* ``reference_path``                  one simulated path by a scalar loop;
* ``quad_expected_kernel``            the Gaussian expectation of a rate by
                                      kink-split Gauss-Legendre panels.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
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
from qmoments.model import model_breakpoints

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
    sk = p.marginal_std(k)
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
        m, s = float(p.mean[kernel.index]), p.marginal_std(kernel.index)
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
        theta = _pair_spread(p, j, k)
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
