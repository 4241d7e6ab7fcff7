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


def gauss_expect_2d(fn, mean, cov) -> float:
    """E[fn(x, y)] for a bivariate normal by adaptive double quadrature."""
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    det = cov[0, 0] * cov[1, 1] - cov[0, 1] ** 2
    inv = np.array([[cov[1, 1], -cov[0, 1]], [-cov[0, 1], cov[0, 0]]]) / det
    norm = 1.0 / (2 * math.pi * math.sqrt(det))
    sx, sy = math.sqrt(cov[0, 0]), math.sqrt(cov[1, 1])

    def density(x, y):
        dx, dy = x - mean[0], y - mean[1]
        q = inv[0, 0] * dx * dx + 2 * inv[0, 1] * dx * dy + inv[1, 1] * dy * dy
        return norm * math.exp(-0.5 * q)

    value, _ = integrate.dblquad(
        lambda y, x: fn(x, y) * density(x, y),
        mean[0] - 9 * sx,
        mean[0] + 9 * sx,
        lambda x: mean[1] - 9 * sy,
        lambda x: mean[1] + 9 * sy,
        epsabs=1e-11,
    )
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


def capped_residual_expect(mean, cov, threshold: float) -> float:
    """E[min(X, (threshold - Y)^+)] for (X, Y) ~ N(mean, cov), nested adaptive quadrature.

    The outer integral runs over Y and breaks at the threshold; the inner one
    runs over X given Y and breaks at the residual, so neither integrand has a
    kink inside a piece.  Each spans 12 standard deviations either side of its
    Gaussian's mean.  Needs Var(Y) > 0 and Var(X | Y) > 0.
    """
    mx, my = float(mean[0]), float(mean[1])
    vy, cxy = float(cov[1][1]), float(cov[0][1])
    sy = math.sqrt(vy)
    slope = cxy / vy
    sc = math.sqrt(float(cov[0][0]) - slope * cxy)
    norm = 1.0 / math.sqrt(2 * math.pi)

    def quad(f, lo, hi, kink):
        points = [kink] if lo < kink < hi else None
        return integrate.quad(
            f, lo, hi, points=points, epsabs=1e-12, epsrel=1e-12, limit=200
        )[0]

    def inner(y):
        residual = max(threshold - y, 0.0)
        mc = mx + slope * (y - my)

        def f(x):
            z = (x - mc) / sc
            return min(x, residual) * norm * math.exp(-0.5 * z * z) / sc

        return quad(f, mc - 12 * sc, mc + 12 * sc, residual)

    def outer(y):
        z = (y - my) / sy
        return inner(y) * norm * math.exp(-0.5 * z * z) / sy

    return quad(outer, my - 12 * sy, my + 12 * sy, threshold)
