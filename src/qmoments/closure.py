"""Gaussian-closed transition rates and their derivatives.

Replacing the pointwise rate ``coefficient(t) * kernel(x)`` by its
expectation under a Gaussian surrogate ``X ~ N(mean, cov)`` smooths out the
min/positive-part kinks, which is what lets the mean and covariance ODEs
close on themselves.  This module provides

* ``closed_rate(term, p)``      expected rate and mean-gradient of one
                                compiled term (:func:`~qmoments.model.compile_term`)
* ``closed_terms(terms, p, d)`` the next three from one pass over compiled terms
* ``expected_kernel``           E[coefficient(t) * kernel(X)]
* ``expected_kernel_grad_mean`` its gradient with respect to the mean
* ``closed_drift``              jump-weighted sum of expected rates
* ``closed_drift_jacobian``     gradient matrix of the closed drift
* ``noise_matrix``              d x k matrix with columns jump * sqrt(rate)
* ``quad_expected_kernel``      an independent numerical-integration path

The closed path dispatches on the compiled kernel code; only the quadrature
oracle dispatches on kernel types.  Only the one- or two-dimensional marginal
blocks of the covariance that a kernel actually reads enter the formulas, so
full-covariance dependence stays localized per kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import ndtr, owens_t

from .errors import NumericalError, UsageError
from .model import (
    CAPPED,
    CONST,
    LINEAR,
    MIN_PAIR,
    MIN_THRESHOLD,
    CappedResidual,
    Constant,
    Linear,
    MinPair,
    MinThreshold,
    NetworkModel,
    PositivePart,
    RateTerm,
    compile_term,
    compile_terms,
    kernel_value,
)

# Below this marginal standard deviation the closed forms degenerate to the
# pointwise kernel at the mean (the expressions divide by sigma inside the
# Gaussian pdf, and the covariance starts at exactly zero).
SIGMA_FLOOR = 1e-9

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def normal_pdf(z: float) -> float:
    """Standard normal density."""
    return _INV_SQRT_2PI * math.exp(-0.5 * z * z)


def normal_cdf(z: float) -> float:
    """Standard normal distribution function (erfc-based, accurate tails)."""
    return 0.5 * math.erfc(-z / _SQRT2)


@dataclass(eq=False)
class MomentPoint:
    """Mean vector and covariance matrix of the Gaussian surrogate."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.cov = np.asarray(self.cov, dtype=float)
        d = self.mean.shape[0]
        if self.mean.ndim != 1 or self.cov.shape != (d, d):
            raise UsageError(
                f"moment point needs mean (d,) and cov (d, d); got "
                f"{self.mean.shape} and {self.cov.shape}"
            )

    def marginal_std(self, j: int) -> float:
        return math.sqrt(max(float(self.cov[j, j]), 0.0))


# --------------------------------------------------------------------------
# Closed forms for the individual kernels.  With z = (n - m) / s:
#   E[min(X, n)]      = -s*pdf(z) + (m - n)*cdf(z) + n
#   E[(X - n)^+]      =  s*pdf(z) + (m - n)*(1 - cdf(z))
#   E[min(X, Y)]      = m_x*cdf(u) + m_y*cdf(-u) - theta*pdf(u),
#                       u = (m_y - m_x)/theta, theta^2 = Var(X - Y)
# The two threshold forms add up to the mean, which keeps the exact-mean
# identity E[min] + E[(.)^+] = E[X] intact.


def _min_threshold_expectation(m: float, s: float, n: float) -> float:
    if s < SIGMA_FLOOR:
        return min(m, n)
    z = (n - m) / s
    return -s * normal_pdf(z) + (m - n) * normal_cdf(z) + n


def _positive_part_expectation(m: float, s: float, n: float) -> float:
    if s < SIGMA_FLOOR:
        return max(m - n, 0.0)
    z = (n - m) / s
    return s * normal_pdf(z) + (m - n) * (1.0 - normal_cdf(z))


def _pair_spread(p: MomentPoint, j: int, k: int) -> float:
    """Standard deviation of X_j - X_k; raises on corrupt covariance."""
    var = float(p.cov[j, j] + p.cov[k, k] - 2.0 * p.cov[j, k])
    tol = 1e-9 * max(1.0, abs(float(p.cov[j, j])) + abs(float(p.cov[k, k])))
    if var < -tol:
        raise NumericalError(
            f"negative variance {var} for component difference ({j}, {k}); "
            "covariance matrix is corrupt"
        )
    return math.sqrt(max(var, 0.0))


# The capped residual f = min(X, (n - Y)^+) splits on Y < n.  There
# f = X - (S - n)^+ with S = X + Y, and above it f = X - X^+, so
#   E[f] = E[X] - E[(S - n)^+; Y < n] - E[X^+] + E[X^+; Y < n].
# Each truncated term is a bivariate-normal integral (Genz 2004, Stat.
# Comput. 14): with alpha = (a - mu)/sigma, beta = (b - nu)/tau, rho their
# correlation and r = sqrt(1 - rho^2),
#   E[(U - a)^+; V < b] = (mu - a) P(U > a, V < b)
#       + sigma [pdf(alpha) cdf((beta - rho alpha)/r)
#                - rho pdf(beta) cdf((rho beta - alpha)/r)],
# and the probabilities come from Owen's T.  The kernel is Lipschitz, so its
# mean-gradient is the expected a.e. derivative:
#   d/dm_X = P(S < n, Y < n) + P(X < 0, Y >= n),  d/dm_Y = -P(S > n, Y < n).


def _bvn_cdf(h: float, k: float, rho: float) -> float:
    """P(Z1 <= h, Z2 <= k) for standard normals with correlation rho."""
    if rho >= 1.0:
        return normal_cdf(min(h, k))
    if rho <= -1.0:
        return max(normal_cdf(h) - normal_cdf(-k), 0.0)
    if h == 0.0 and k == 0.0:
        return 0.25 + math.asin(rho) / (2.0 * math.pi)
    r = math.sqrt((1.0 - rho) * (1.0 + rho))

    def owen(h, k):  # T(h, (k - rho h) / (h r)), its limit 1/4 sign(k) at h = 0
        if h == 0.0:
            return math.copysign(0.25, k)
        return float(owens_t(h, (k - rho * h) / (h * r)))

    offset = 0.5 if h * k < 0.0 or (h * k == 0.0 and h + k < 0.0) else 0.0
    return 0.5 * (normal_cdf(h) + normal_cdf(k)) - owen(h, k) - owen(k, h) - offset


def _truncated_excess(
    mu: float, var_u: float, a: float, nu: float, var_v: float, b: float, cov_uv: float
) -> tuple[float, float]:
    """``(E[(U - a)^+; V < b], P(U > a, V < b))`` for a Gaussian pair (U, V).

    Zero variance and |rho| = 1 are taken as limits of the general form.
    Roundoff can leave the block slightly indefinite: variances and rho are clamped.
    """
    sigma, tau = math.sqrt(max(var_u, 0.0)), math.sqrt(max(var_v, 0.0))
    if tau < SIGMA_FLOOR:
        if nu >= b:
            return 0.0, 0.0
        if sigma < SIGMA_FLOOR:
            return max(mu - a, 0.0), (1.0 if mu > a else 0.0)
        return _positive_part_expectation(mu, sigma, a), normal_cdf((mu - a) / sigma)
    beta = (b - nu) / tau
    if sigma < SIGMA_FLOOR:
        below = normal_cdf(beta)
        return max(mu - a, 0.0) * below, (below if mu > a else 0.0)
    alpha = (a - mu) / sigma
    rho = min(max(cov_uv / (sigma * tau), -1.0), 1.0)
    r = math.sqrt((1.0 - rho) * (1.0 + rho))

    def cond_cdf(x):  # cdf(x / r), a step at |rho| = 1
        return normal_cdf(x / r) if r > 0.0 else 0.5 + 0.5 * ((x > 0.0) - (x < 0.0))

    prob = normal_cdf(beta) - _bvn_cdf(alpha, beta, rho)
    tail = normal_pdf(alpha) * cond_cdf(beta - rho * alpha)
    tail -= rho * normal_pdf(beta) * cond_cdf(rho * beta - alpha)
    return (mu - a) * prob + sigma * tail, prob


def _capped_residual(p: MomentPoint, j: int, k: int, n: float) -> tuple[float, float, float]:
    """``E[min(X_j, (n - X_k)^+)]`` and its derivatives in ``m_j`` and ``m_k``."""
    mj, mk = float(p.mean[j]), float(p.mean[k])
    vj, vk, c = float(p.cov[j, j]), float(p.cov[k, k]), float(p.cov[j, k])
    sum_excess, p_sum = _truncated_excess(mj + mk, vj + vk + 2.0 * c, n, mk, vk, n, c + vk)
    low_excess, p_low = _truncated_excess(mj, vj, 0.0, mk, vk, n, c)
    all_excess, p_all = _truncated_excess(mj, vj, 0.0, 0.0, 0.0, math.inf, 0.0)
    value = mj - sum_excess - all_excess + low_excess
    return value, 1.0 - p_sum - p_all + p_low, -p_sum


# --------------------------------------------------------------------------
# Public closed-path interface


def closed_rate(term: tuple, p: MomentPoint) -> tuple[float, tuple]:
    """Expected rate ``E[coeff * kernel(X)]`` of one compiled term and its
    mean-gradient, as ``(index, coeff * entry)`` pairs for the entries the
    kernel reads.

    Threshold expectations can come out negative because the Gaussian
    surrogate has mass below zero; the raw value is returned on purpose (the
    drift must keep the exact-mean identity) and only the noise matrix clamps
    at zero inside the square root.
    """
    code, coeff, j, k, n, weights, _ = term
    if code == CONST:
        return coeff, ()
    if code == LINEAR:
        grad = tuple((b, coeff * w) for b, w in enumerate(weights))
        return coeff * float(np.dot(weights, p.mean)), grad
    if code == MIN_PAIR:
        mj, mk = float(p.mean[j]), float(p.mean[k])
        theta = _pair_spread(p, j, k)
        if theta < SIGMA_FLOOR:
            return coeff * min(mj, mk), ((j if mj <= mk else k, coeff),)
        u = (mk - mj) / theta
        value = mj * normal_cdf(u) + mk * normal_cdf(-u) - theta * normal_pdf(u)
        return coeff * value, ((j, coeff * normal_cdf(u)), (k, coeff * normal_cdf(-u)))
    if code == CAPPED:
        value, d_own, d_other = _capped_residual(p, j, k, n)
        return coeff * value, ((j, coeff * d_own), (k, coeff * d_other))
    # min(x_j, n) or (x_j - n)^+
    m, s = float(p.mean[j]), p.marginal_std(j)
    below = (1.0 if m <= n else 0.0) if s < SIGMA_FLOOR else normal_cdf((n - m) / s)
    if code == MIN_THRESHOLD:
        return coeff * _min_threshold_expectation(m, s, n), ((j, coeff * below),)
    return coeff * _positive_part_expectation(m, s, n), ((j, coeff * (1.0 - below)),)


def closed_terms(terms, p: MomentPoint, d: int) -> tuple[np.ndarray, ...]:
    """Closed drift, its Jacobian and the noise matrix of compiled ``terms``.

    One :func:`closed_rate` per transition, in model order: drift entry ``a``
    adds ``jump_a * rate``, Jacobian entry ``(a, b)`` adds
    ``jump_a * (coeff * grad_b)``, and noise column ``i`` is
    ``jump * sqrt(rate_i)`` where that rate is positive, else zero.
    """
    drift = [0.0] * d
    jac = [[0.0] * d for _ in range(d)]
    noise = [[0.0] * len(terms) for _ in range(d)]
    for i, term in enumerate(terms):
        rate, grad = closed_rate(term, p)
        root = math.sqrt(rate) if rate > 0.0 else 0.0
        for a, jump_a in enumerate(term[6]):
            if jump_a:
                drift[a] += jump_a * rate
                row = jac[a]
                for b, g in grad:
                    row[b] += jump_a * g
                noise[a][i] = jump_a * root
    return np.array(drift), np.array(jac), np.array(noise)


def expected_kernel(term: RateTerm, t: float, p: MomentPoint) -> float:
    """Expected rate ``E[coefficient(t) * kernel(X)]`` for Gaussian ``X``."""
    return closed_rate(compile_term(term, (), t), p)[0]


def expected_kernel_grad_mean(term: RateTerm, t: float, p: MomentPoint) -> np.ndarray:
    """Gradient of ``expected_kernel`` with respect to the mean vector."""
    grad = np.zeros(p.mean.shape[0])
    for b, g in closed_rate(compile_term(term, (), t), p)[1]:
        grad[b] = g
    return grad


def closed_drift(model: NetworkModel, t: float, p: MomentPoint) -> np.ndarray:
    """Jump-weighted sum of Gaussian-closed rates."""
    return closed_terms(compile_terms(model, t), p, model.dimension)[0]


def closed_drift_jacobian(model: NetworkModel, t: float, p: MomentPoint) -> np.ndarray:
    """Gradient matrix of the closed drift with respect to the mean."""
    return closed_terms(compile_terms(model, t), p, model.dimension)[1]


def noise_matrix(model: NetworkModel, t: float, p: MomentPoint) -> np.ndarray:
    """d x k matrix whose i-th column is ``jump_i * sqrt(max(rate_i, 0))``."""
    return closed_terms(compile_terms(model, t), p, model.dimension)[2]


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


@lru_cache(maxsize=8)
def _legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


def _panel_integral(g, kinks: list[float], order: int) -> float:
    """Integrate exp(-t^2) * g(t) / sqrt(pi) with panels split at the kinks."""
    nodes, weights = _legendre_rule(order)
    points = [-_PANEL_HALF_WIDTH, _PANEL_HALF_WIDTH]
    points.extend(k for k in kinks if -_PANEL_HALF_WIDTH < k < _PANEL_HALF_WIDTH)
    points.sort()
    total = 0.0
    for a, b in zip(points[:-1], points[1:]):
        t = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        total += 0.5 * (b - a) * float(np.sum(weights * np.exp(-t * t) * g(t)))
    return total / math.sqrt(math.pi)


def _quad_capped_residual(
    kernel: CappedResidual, t: float, p: MomentPoint, order: int
) -> float:
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
    return _panel_integral(inner, kinks, order)


def quad_expected_kernel(term: RateTerm, t: float, p: MomentPoint, order: int) -> float:
    """Numerical-integration estimate of ``expected_kernel``.

    Serves as the independent cross-check of the closed forms.  Uses the 1- or
    2-D marginal the kernel touches (for a linear kernel, the 1-D law of
    ``w . X``), with ``order`` Legendre nodes per panel.  At order 64 it agrees
    with the closed forms to better than 1e-8 absolute whenever sigma >= 1e-3
    (acceptance criterion 01).  For the capped
    residual at order 64 the measured agreement with the closed form is 6e-12
    over standard deviations 1e-3 to 100 and |correlation| up to 0.99999; at
    order 32 it is only 2e-4.
    """
    if order < 16:
        raise UsageError(f"quadrature order must be >= 16, got {order}")
    coeff = term.coefficient.value_at(t)
    kernel = term.kernel
    if isinstance(kernel, Constant):
        return coeff
    if isinstance(kernel, Linear):
        w = np.asarray(kernel.weights)
        m, s = float(w @ p.mean), math.sqrt(max(float(w @ p.cov @ w), 0.0))
        # no kink; splitting at the mean resolves the weight to 4e-15 by order 32
        value = _panel_integral(lambda u: m + _SQRT2 * s * u, [0.0], order)
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
            value = _panel_integral(g, [kink], order)
    elif isinstance(kernel, MinPair):
        j, k = kernel.index, kernel.other
        mj, mk = float(p.mean[j]), float(p.mean[k])
        theta = _pair_spread(p, j, k)
        if theta < 1e-12:
            value = min(mj, mk)
        else:
            mu = mj - mk
            kink = -mu / (_SQRT2 * theta)
            eabs = _panel_integral(
                lambda u: np.abs(mu + _SQRT2 * theta * u), [kink], order
            )
            value = 0.5 * (mj + mk - eabs)
    elif isinstance(kernel, CappedResidual):
        value = _quad_capped_residual(kernel, t, p, order)
    else:
        raise UsageError(f"unknown kernel type {type(kernel).__name__}")
    result = coeff * value
    if not math.isfinite(result):
        raise NumericalError(f"quadrature produced non-finite value {result}")
    return result
