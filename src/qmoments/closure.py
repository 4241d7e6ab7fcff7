"""Gaussian-closed transition rates and their derivatives.

Replacing the pointwise rate ``coefficient(t) * kernel(x)`` by its
expectation under a Gaussian surrogate ``X ~ N(mean, cov)`` smooths out the
min/positive-part kinks, which is what lets the mean and covariance ODEs
close on themselves.  At zero covariance the surrogate is a point mass and
the expectation is the pointwise rate, so this is the one rate rule of every
deterministic method.  This module provides

* ``closed_rate(term, state)``  expected rate and mean-gradient of one compiled
                                term at the moments ``(mean, cov)`` held as
                                flat lists (:func:`qmoments.solvers.moment_terms`)
* ``expected_kernel``           E[coefficient(t) * kernel(X)] of one RateTerm

The closed path dispatches on the compiled kernel code.  Only the one- or
two-dimensional marginal blocks of the covariance that a kernel actually reads
enter the formulas, so full-covariance dependence stays localized per kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

import numpy as np
from scipy.special import owens_t

from .errors import NumericalError, UsageError
from .model import CAPPED, CONST, LINEAR, MIN_PAIR, MIN_THRESHOLD, RateTerm, compile_term

# Below this marginal standard deviation the closed forms degenerate to the
# pointwise kernel at the mean (the expressions divide by sigma inside the
# Gaussian pdf, and the covariance starts at exactly zero).  There a tie at a
# kink goes to the branch that tracks the state variable:
#   d/dx min(x, n)      = 1 when x <= n, else 0
#   d/dx (x - n)^+      = 1 when x >  n, else 0
#   min(x_j, x_k)       differentiates along x_j when x_j <= x_k
#   min(x_j, (n-x_k)^+) differentiates along x_j when x_j <= (n - x_k)^+,
#                       else along x_k while n - x_k is positive.
# The measure-zero method assumes the tie set carries no time, so any fixed
# convention is admissible.  Zero gradient entries are left out; min(u, v) is
# spelled `v if v < u else u` and max(u, v) `v if v > u else u`, which is how
# the builtins resolve ties and NaN.
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

    def flat(self) -> tuple[list, list]:
        """The state :func:`closed_rate` reads: the mean and the row-major
        covariance as lists of floats."""
        return self.mean.tolist(), self.cov.ravel().tolist()


# --------------------------------------------------------------------------
# Closed forms for the individual kernels.  With z = (n - m) / s:
#   E[min(X, n)]      = -s*pdf(z) + (m - n)*cdf(z) + n
#   E[(X - n)^+]      =  s*pdf(z) + (m - n)*(1 - cdf(z))
#   E[min(X, Y)]      = m_x*cdf(u) + m_y*cdf(-u) - theta*pdf(u),
#                       u = (m_y - m_x)/theta, theta^2 = Var(X - Y)
# The two threshold forms add up to the mean, which keeps the exact-mean
# identity E[min] + E[(.)^+] = E[X] intact.


def _min_threshold_expectation(m: float, s: float, n: float) -> float:
    z = (n - m) / s
    return -s * normal_pdf(z) + (m - n) * normal_cdf(z) + n


def _positive_part_expectation(m: float, s: float, n: float) -> float:
    z = (n - m) / s
    return s * normal_pdf(z) + (m - n) * (1.0 - normal_cdf(z))


def _pair_spread(cov: list, d: int, j: int, k: int) -> float:
    """Standard deviation of X_j - X_k from the row-major covariance of
    dimension ``d``; raises on corrupt covariance."""
    vj, vk = cov[j * d + j], cov[k * d + k]
    var = vj + vk - 2.0 * cov[j * d + k]
    tol = 1e-9 * max(1.0, abs(vj) + abs(vk))
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


def _capped_residual(mean: list, cov: list, j: int, k: int, n: float) -> tuple[float, float, float]:
    """``E[min(X_j, (n - X_k)^+)]`` and its derivatives in ``m_j`` and ``m_k``."""
    d = len(mean)
    mj, mk = mean[j], mean[k]
    vj, vk, c = cov[j * d + j], cov[k * d + k], cov[j * d + k]
    sum_excess, p_sum = _truncated_excess(mj + mk, vj + vk + 2.0 * c, n, mk, vk, n, c + vk)
    low_excess, p_low = _truncated_excess(mj, vj, 0.0, mk, vk, n, c)
    all_excess, p_all = _truncated_excess(mj, vj, 0.0, 0.0, 0.0, math.inf, 0.0)
    value = mj - sum_excess - all_excess + low_excess
    return value, 1.0 - p_sum - p_all + p_low, -p_sum


# --------------------------------------------------------------------------
# Public closed-path interface


def closed_rate(term: tuple, state: tuple[list, list]) -> tuple[float, tuple]:
    """Expected rate ``E[coeff * kernel(X)]`` of one compiled term and the
    mean-gradient of the expected kernel, as ``(index, entry)`` pairs without
    the coefficient, for the entries the kernel reads.  ``state`` is the mean
    and the row-major covariance as lists of floats (:meth:`MomentPoint.flat`).
    Below ``SIGMA_FLOOR`` it is the kernel at the mean, ties resolved as above.

    Threshold expectations can come out negative because the Gaussian
    surrogate has mass below zero; the raw value is returned on purpose (the
    drift must keep the exact-mean identity) and only the diffusion term
    clamps it at zero.
    """
    code, coeff, j, k, n, weights, _, _ = term
    mean, cov = state
    if code == CONST:
        return coeff, ()
    if code == LINEAR:
        return coeff * sum(map(mul, weights, mean)), tuple(enumerate(weights))
    d, m = len(mean), mean[j]
    if code == MIN_PAIR:
        mk = mean[k]
        theta = _pair_spread(cov, d, j, k)
        if theta < SIGMA_FLOOR:
            return coeff * (mk if mk < m else m), ((j if m <= mk else k, 1.0),)
        u = (mk - m) / theta
        value = m * normal_cdf(u) + mk * normal_cdf(-u) - theta * normal_pdf(u)
        return coeff * value, ((j, normal_cdf(u)), (k, normal_cdf(-u)))
    s = math.sqrt(max(cov[j * (d + 1)], 0.0))
    if code == CAPPED:  # min(x_j, (n - x_k)^+)
        if s < SIGMA_FLOOR and math.sqrt(max(cov[k * (d + 1)], 0.0)) < SIGMA_FLOOR:
            residual = n - mean[k]
            cap = 0.0 if 0.0 > residual else residual
            grad = ((j, 1.0),) if m <= cap else ((k, -1.0),) if residual > 0.0 else ()
            return coeff * (cap if cap < m else m), grad
        value, d_own, d_other = _capped_residual(mean, cov, j, k, n)
        return coeff * value, ((j, d_own), (k, d_other))
    if code == MIN_THRESHOLD:  # min(x_j, n)
        if s < SIGMA_FLOOR:
            return coeff * (n if n < m else m), ((j, 1.0),) if m <= n else ()
        return coeff * _min_threshold_expectation(m, s, n), ((j, normal_cdf((n - m) / s)),)
    if s < SIGMA_FLOOR:  # (x_j - n)^+
        over = m - n
        return coeff * (0.0 if 0.0 > over else over), ((j, 1.0),) if m > n else ()
    return coeff * _positive_part_expectation(m, s, n), ((j, 1.0 - normal_cdf((n - m) / s)),)


def expected_kernel(term: RateTerm, t: float, p: MomentPoint) -> float:
    """Expected rate ``E[coefficient(t) * kernel(X)]`` for Gaussian ``X``."""
    return closed_rate(compile_term(term, (), t), p.flat())[0]
