"""Shared numeric oracles for the test suite.

These stay deliberately independent of the library's own evaluation paths:
expectations come from adaptive quadrature over the Gaussian density, and
derivatives come from central finite differences.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

from qmoments import MomentPoint


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
