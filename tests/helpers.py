"""Shared numeric oracles and models for the test suite.

These stay deliberately independent of the library's own evaluation paths:
expectations come from adaptive quadrature over the Gaussian density,
derivatives come from central finite differences, the pointwise drift,
Jacobian and noise matrix come from plain per-quantity loops, and the closed
pass comes from a loop that dispatches on kernel types and looks every
schedule up at ``t``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

from qmoments import (
    CappedResidual,
    Constant,
    Linear,
    MinPair,
    MinThreshold,
    MomentPoint,
    NetworkModel,
    PositivePart,
    RateTerm,
    TimeSchedule,
    Transition,
)
from qmoments.closure import (
    SIGMA_FLOOR,
    _capped_residual,
    _min_threshold_expectation,
    _pair_spread,
    _positive_part_expectation,
    normal_cdf,
    normal_pdf,
)
from qmoments.model import kernel_value


def gauss_expect_1d(fn, mean: float, std: float, kinks=()) -> float:
    """E[fn(X)] for X ~ N(mean, std^2) by adaptive quadrature."""
    lo, hi = mean - 12 * std, mean + 12 * std
    points = [k for k in kinks if lo < k < hi]

    def integrand(x):
        z = (x - mean) / std
        return fn(x) * math.exp(-0.5 * z * z) / (std * math.sqrt(2 * math.pi))

    value, _ = integrate.quad(integrand, lo, hi, points=points, limit=200)
    return value


def random_moment_point(
    rng: np.random.Generator,
    d: int,
    sigma_lo: float = 1e-3,
    sigma_hi: float = 100.0,
    mean_lo: float = -20.0,
    mean_hi: float = 120.0,
) -> MomentPoint:
    """Random mean and a positive-definite covariance with log-uniform scales."""
    sig = 10 ** rng.uniform(math.log10(sigma_lo), math.log10(sigma_hi), d)
    corr = np.eye(d)
    for i in range(d):
        for j in range(i + 1, d):
            corr[i, j] = corr[j, i] = rng.uniform(-0.9, 0.9)
    w, v = np.linalg.eigh(corr)
    corr = v @ np.diag(np.clip(w, 1e-3, None)) @ v.T
    dd = np.sqrt(np.diag(corr))
    corr = corr / np.outer(dd, dd)
    cov = corr * np.outer(sig, sig)
    mean = rng.uniform(mean_lo, mean_hi, d)
    return MomentPoint(mean, cov)


def nested_gauss_expect(fn, mean, cov, inner_kink, outer_kinks=()) -> float:
    """E[fn(X, Y)] for (X, Y) ~ N(mean, cov), nested adaptive quadrature.

    The outer integral runs over Y and breaks at ``outer_kinks``; the inner one
    runs over X given Y and breaks at ``inner_kink(y)``.  When these are the
    kinks of ``fn``, neither integrand has a kink inside a piece.  Each spans 12
    standard deviations either side of its Gaussian's mean.  Needs Var(Y) > 0
    and Var(X | Y) > 0.
    """
    mx, my = float(mean[0]), float(mean[1])
    vy, cxy = float(cov[1][1]), float(cov[0][1])
    sy = math.sqrt(vy)
    slope = cxy / vy
    sc = math.sqrt(float(cov[0][0]) - slope * cxy)
    norm = 1.0 / math.sqrt(2 * math.pi)

    def quad(f, lo, hi, kinks):
        points = [k for k in kinks if lo < k < hi] or None
        return integrate.quad(
            f, lo, hi, points=points, epsabs=1e-12, epsrel=1e-12, limit=200
        )[0]

    def inner(y):
        mc = mx + slope * (y - my)

        def f(x):
            z = (x - mc) / sc
            return fn(x, y) * norm * math.exp(-0.5 * z * z) / sc

        return quad(f, mc - 12 * sc, mc + 12 * sc, (inner_kink(y),))

    def outer(y):
        z = (y - my) / sy
        return inner(y) * norm * math.exp(-0.5 * z * z) / sy

    return quad(outer, my - 12 * sy, my + 12 * sy, outer_kinks)


def capped_residual_expect(mean, cov, threshold: float) -> float:
    """E[min(X, (threshold - Y)^+)] for (X, Y) ~ N(mean, cov), nested quadrature.

    The outer integral breaks at the threshold, the inner one at the residual.
    """

    def residual(y):
        return max(threshold - y, 0.0)

    return nested_gauss_expect(
        lambda x, y: min(x, residual(y)), mean, cov, residual, (threshold,)
    )


# --------------------------------------------------------------------------
# Reference pointwise evaluators: one loop per quantity, the kernels
# dispatched by type and every schedule looked up at ``t``.  The compiled
# one-pass evaluator (``qmoments.solvers.pointwise_terms``) must agree with
# these exactly.


def reference_drift(model, t, x) -> np.ndarray:
    """Net state change rate: sum of jump vectors weighted by their rates."""
    out = np.zeros(model.dimension)
    for tr in model.transitions:
        rate = tr.rate.coefficient.value_at(t) * kernel_value(tr.rate.kernel, t, x)
        for a, jump_a in enumerate(tr.jump):
            if jump_a:
                out[a] += jump_a * rate
    return out


def _reference_pointwise_grad(kernel, t, x, d) -> np.ndarray:
    """One-sided kernel gradient; ties go to the branch tracking the state."""
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
    raise TypeError(f"unknown kernel type {type(kernel).__name__}")


def reference_drift_jacobian(model, t, x) -> np.ndarray:
    """Gradient matrix of the pointwise drift, one outer product per transition."""
    x = np.asarray(x, dtype=float)
    out = np.zeros((model.dimension, model.dimension))
    for tr in model.transitions:
        coeff = tr.rate.coefficient.value_at(t)
        grad = _reference_pointwise_grad(tr.rate.kernel, t, x, model.dimension)
        out += coeff * np.outer(tr.jump, grad)
    return out


def reference_noise_matrix(model, t, x) -> np.ndarray:
    """Columns ``jump_i * sqrt(max(rate_i, 0))`` at the given state."""
    out = np.zeros((model.dimension, model.num_transitions))
    for i, tr in enumerate(model.transitions):
        rate = tr.rate.coefficient.value_at(t) * kernel_value(tr.rate.kernel, t, x)
        if rate > 0.0:
            out[:, i] = np.asarray(tr.jump, dtype=float) * np.sqrt(rate)
    return out


def variant_models():
    """One model per kernel variant (jump (-3, 2)), then all six in one model.

    n(t) and the coefficient are scheduled; the weights and the jump of 3
    make ``coeff * (jump * w)`` round differently from ``coeff * jump * w``.
    """
    horizon = 4.0
    n = TimeSchedule.alternating(4.0, 2.5, 1.0, horizon)
    rate = TimeSchedule.alternating(1.5, 0.7, 1.5, horizon)
    kernels = [
        Constant(),
        Linear((0.7, 1.3)),
        MinThreshold(0, n),
        PositivePart(1, n),
        MinPair(0, 1),
        CappedResidual(1, 0, n),
    ]
    jumps = [(1, 1), (-3, 0), (-1, 2), (0, -1), (1, -1), (-3, -1)]
    singles = [
        NetworkModel(2, (Transition((-3, 2), RateTerm(rate, k)),), (2, 1), horizon)
        for k in kernels
    ]
    every = tuple(Transition(j, RateTerm(rate, k)) for j, k in zip(jumps, kernels))
    return singles + [NetworkModel(2, every, (2, 1), horizon)]


# --------------------------------------------------------------------------
# Reference closed pass: the kernels dispatched by type, every schedule looked
# up at ``t``, a dense gradient per transition.  The compiled closed pass
# (``qmoments.closure.closed_terms``) must agree with it exactly.


def _reference_closed_rate(term, t, p: MomentPoint):
    coeff = term.coefficient.value_at(t)
    kernel = term.kernel
    grad = np.zeros(p.mean.shape[0])
    if isinstance(kernel, Constant):
        return coeff, grad
    if isinstance(kernel, Linear):
        grad[: len(kernel.weights)] = kernel.weights
        return coeff * float(np.dot(kernel.weights, p.mean)), coeff * grad
    if isinstance(kernel, (MinThreshold, PositivePart)):
        m, s = float(p.mean[kernel.index]), p.marginal_std(kernel.index)
        n = kernel.threshold.value_at(t)
        below = (1.0 if m <= n else 0.0) if s < SIGMA_FLOOR else normal_cdf((n - m) / s)
        if isinstance(kernel, MinThreshold):
            grad[kernel.index] = coeff * below
            return coeff * _min_threshold_expectation(m, s, n), grad
        grad[kernel.index] = coeff * (1.0 - below)
        return coeff * _positive_part_expectation(m, s, n), grad
    if isinstance(kernel, MinPair):
        j, k = kernel.index, kernel.other
        mj, mk = float(p.mean[j]), float(p.mean[k])
        theta = _pair_spread(p, j, k)
        if theta < SIGMA_FLOOR:
            grad[j if mj <= mk else k] = coeff
            return coeff * min(mj, mk), grad
        u = (mk - mj) / theta
        grad[j] = coeff * normal_cdf(u)
        grad[k] = coeff * normal_cdf(-u)
        value = mj * normal_cdf(u) + mk * normal_cdf(-u) - theta * normal_pdf(u)
        return coeff * value, grad
    if isinstance(kernel, CappedResidual):
        value, d_own, d_other = _capped_residual(
            p, kernel.index, kernel.other, kernel.threshold.value_at(t)
        )
        grad[kernel.index] = coeff * d_own
        grad[kernel.other] = coeff * d_other
        return coeff * value, grad
    raise TypeError(f"unknown kernel type {type(kernel).__name__}")


def reference_closed_terms(model, t, p: MomentPoint):
    """Closed drift, Jacobian and noise matrix, one dense row update per jump."""
    d = model.dimension
    drift = np.zeros(d)
    jac = np.zeros((d, d))
    noise = np.zeros((d, model.num_transitions))
    for i, tr in enumerate(model.transitions):
        rate, grad = _reference_closed_rate(tr.rate, t, p)
        root = math.sqrt(rate) if rate > 0.0 else 0.0
        for a, jump_a in enumerate(tr.jump):
            if jump_a:
                drift[a] += jump_a * rate
                jac[a] += jump_a * grad
                noise[a, i] = jump_a * root
    return drift, jac, noise
