"""Shared numeric oracles and models for the test suite.

These stay deliberately independent of the library's own evaluation paths:
expectations come from adaptive quadrature over the Gaussian density,
derivatives come from central finite differences, the pointwise drift,
Jacobian, diffusion and noise matrix come from plain per-quantity loops, and
the closed pass comes from a loop that dispatches on kernel types and looks
every schedule up at ``t``.  The type-dispatched kernel and the quadrature
oracle live in ``oracles``.  ``expected_kernel_grad_mean`` is the one adapter
over the library's closed path, for the gradient tests, and no reference.
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
from qmoments.systems import RetrialParams, build_retrial
from qmoments.closure import (
    SIGMA_FLOOR,
    _capped_residual,
    _min_threshold_expectation,
    _pair_spread,
    _positive_part_expectation,
    closed_rate,
    normal_cdf,
    normal_pdf,
)
from qmoments.model import compile_term
from oracles import kernel_value


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
# moment pass (``qmoments.solvers.moment_terms`` at zero covariance) and the
# public wrappers must agree with these exactly.


def reference_rates(model, t, x) -> list[float]:
    """Pointwise rate of every transition, in model order."""
    return [
        tr.rate.coefficient.value_at(t) * kernel_value(tr.rate.kernel, t, x)
        for tr in model.transitions
    ]


def reference_drift(model, t, x) -> np.ndarray:
    """Net state change rate: sum of jump vectors weighted by their rates."""
    out = np.zeros(model.dimension)
    for tr, rate in zip(model.transitions, reference_rates(model, t, x)):
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


def reference_noise_matrix(model, rates) -> np.ndarray:
    """Columns ``jump_i * sqrt(max(rate_i, 0))`` for the given rates."""
    out = np.zeros((model.dimension, model.num_transitions))
    for i, (tr, rate) in enumerate(zip(model.transitions, rates)):
        if rate > 0.0:
            out[:, i] = np.asarray(tr.jump, dtype=float) * np.sqrt(rate)
    return out


def reference_diffusion(model, rates) -> np.ndarray:
    """``sum_i max(rate_i, 0) J_i J_i'``, accumulated in model order; a NaN
    rate counts as zero."""
    out = np.zeros((model.dimension, model.dimension))
    for tr, rate in zip(model.transitions, rates):
        out += np.outer(tr.jump, tr.jump) * (rate if rate > 0.0 else 0.0)
    return out


def tiny_retrial_model():
    """Three servers, arrival rate alternating 2/4 every 2 time units: short
    paths and a 169-state lattice at caps (12, 12)."""
    horizon = 10.0
    params = RetrialParams(
        servers=TimeSchedule.constant(3),
        arrival=TimeSchedule.alternating(2, 4, 2.0, horizon),
        service=TimeSchedule.constant(1.0),
        retrial_rate=TimeSchedule.constant(1.0),
        abandon=TimeSchedule.constant(3.0),
        leave_prob=TimeSchedule.constant(0.5),
    )
    return build_retrial(params, horizon)


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


def excursion_model():
    """x0 drains into x1 at rate 1000 x0, x1 leaves at 500 x1 and passes on to
    x2 at 50 (x1 - 45)^+: from (100, 0, 0), x1 rises above 45 for about 1.3e-3
    time units only, and x2(1) = 0.2092157... is what that excursion left."""
    c = TimeSchedule.constant
    return NetworkModel(
        3,
        (
            Transition((-1, 1, 0), RateTerm(c(1000.0), Linear((1.0, 0.0, 0.0)))),
            Transition((0, -1, 0), RateTerm(c(500.0), Linear((0.0, 1.0, 0.0)))),
            Transition((0, -1, 1), RateTerm(c(50.0), PositivePart(1, c(45.0)))),
        ),
        (100, 0, 0),
        1.0,
    )


# --------------------------------------------------------------------------
# Reference closed pass: the kernels dispatched by type, every schedule looked
# up at ``t``, a dense kernel gradient per transition.  The compiled moment
# pass (``qmoments.solvers.moment_terms``) must agree with it exactly.  Where
# every marginal spread a kernel reads is below ``SIGMA_FLOOR`` the reference
# is the pointwise one above.


def _reference_closed_rate(term, t, p: MomentPoint):
    """Expected rate and the dense mean-gradient of the expected kernel."""
    coeff = term.coefficient.value_at(t)
    kernel = term.kernel
    d = p.mean.shape[0]
    grad = np.zeros(d)
    sd = np.sqrt(np.maximum(np.diag(p.cov), 0.0))
    pointwise = (
        coeff * kernel_value(kernel, t, p.mean),
        _reference_pointwise_grad(kernel, t, p.mean, d),
    )
    if isinstance(kernel, Constant):
        return coeff, grad
    if isinstance(kernel, Linear):
        grad[: len(kernel.weights)] = kernel.weights
        return pointwise[0], grad  # the sequential sum
    if isinstance(kernel, (MinThreshold, PositivePart)):
        j = kernel.index
        m, s = float(p.mean[j]), float(sd[j])
        n = kernel.threshold.value_at(t)
        if s < SIGMA_FLOOR:
            return pointwise
        below = normal_cdf((n - m) / s)
        if isinstance(kernel, MinThreshold):
            grad[kernel.index] = below
            return coeff * _min_threshold_expectation(m, s, n), grad
        grad[kernel.index] = 1.0 - below
        return coeff * _positive_part_expectation(m, s, n), grad
    if isinstance(kernel, MinPair):
        j, k = kernel.index, kernel.other
        mj, mk = float(p.mean[j]), float(p.mean[k])
        theta = _pair_spread(p.cov.ravel().tolist(), len(p.mean), j, k)
        if theta < SIGMA_FLOOR:
            return pointwise
        u = (mk - mj) / theta
        grad[j] = normal_cdf(u)
        grad[k] = normal_cdf(-u)
        value = mj * normal_cdf(u) + mk * normal_cdf(-u) - theta * normal_pdf(u)
        return coeff * value, grad
    if isinstance(kernel, CappedResidual):
        if sd[kernel.index] < SIGMA_FLOOR and sd[kernel.other] < SIGMA_FLOOR:
            return pointwise
        value, d_own, d_other = _capped_residual(
            *p.flat(), kernel.index, kernel.other, kernel.threshold.value_at(t)
        )
        grad[kernel.index] = d_own
        grad[kernel.other] = d_other
        return coeff * value, grad
    raise TypeError(f"unknown kernel type {type(kernel).__name__}")


def reference_closed_terms(model, t, p: MomentPoint):
    """Closed drift, Jacobian, diffusion and noise matrix; the Jacobian takes
    ``coeff * (jump_a * grad)`` per transition, one dense row update per jump."""
    d = model.dimension
    drift = np.zeros(d)
    jac = np.zeros((d, d))
    rates = []
    for tr in model.transitions:
        rate, grad = _reference_closed_rate(tr.rate, t, p)
        coeff = tr.rate.coefficient.value_at(t)
        rates.append(rate)
        for a, jump_a in enumerate(tr.jump):
            if jump_a:
                drift[a] += jump_a * rate
                jac[a] += coeff * (jump_a * grad)
    return drift, jac, reference_diffusion(model, rates), reference_noise_matrix(model, rates)


def expected_kernel_grad_mean(term, t, p: MomentPoint) -> np.ndarray:
    """Dense mean-gradient of ``qmoments.expected_kernel``, coefficient
    included: an adapter over the library's ``closed_rate``, not an
    independent reference."""
    compiled = compile_term(term, (), t)
    grad = np.zeros(p.mean.shape[0])
    for b, g in closed_rate(compiled, p.flat())[1]:
        grad[b] = compiled[1] * g
    return grad


def results_equal(a, b) -> bool:
    """Equality of two results' numeric payload (method, grid, moments, count)."""
    if a.method != b.method or a.count != b.count or (a.covs is None) != (b.covs is None):
        return False
    return (
        np.array_equal(a.times, b.times)
        and np.array_equal(a.means, b.means)
        and (a.covs is None or np.array_equal(a.covs, b.covs))
    )
