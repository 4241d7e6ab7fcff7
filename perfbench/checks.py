"""Correctness checks, each against a computation made apart from the method.

The run outputs are read back from the per-method CSVs with this module's own
reader, not with ``qmoments.results``.  Every check returns a list of failure
messages; an empty list means the check passed.

Monte Carlo bands.  A per-statistic 3-sigma band over the ~50 statistics of
one ensemble fails by chance on a sizeable share of seeds, and the benchmark
takes its simulation seed as an argument, so the bands are family-wise: the
z bound is chosen so that the chance of any statistic of one check leaving
its band by chance is FAMILY_ALPHA (Bonferroni).
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np
from scipy import integrate

FAMILY_ALPHA = 1e-5
PROBE_TOL = 1e-8  # target for every closed expectation (capped residual included)


@dataclass
class Moments:
    times: np.ndarray  # (n,)
    means: np.ndarray  # (n, d)
    covs: np.ndarray | None  # (n, d, d), symmetric from the stored i <= j entries
    count: int | None  # replication count on simulation rows


def read_method_csv(path) -> Moments:
    cells: dict[tuple[float, str], float] = {}
    times: list[float] = []
    count = None
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if next(reader) != ["t", "method", "stat", "value", "N"]:
            raise ValueError(f"{path}: unexpected header")
        for t_text, _method, stat, value, n in reader:
            t = float(t_text)
            if not times or times[-1] != t:
                times.append(t)
            cells[(t, stat)] = float(value)
            if n:
                count = int(n)
    stats = {stat for _, stat in cells}
    d = sum(1 for s in stats if s.startswith("mean_"))
    means = np.array([[cells[(t, f"mean_{i}")] for i in range(d)] for t in times])
    covs = None
    if "cov_00" in stats:
        covs = np.zeros((len(times), d, d))
        for n_t, t in enumerate(times):
            for i in range(d):
                for j in range(i, d):
                    covs[n_t, i, j] = covs[n_t, j, i] = cells[(t, f"cov_{i}{j}")]
    return Moments(np.array(times), means, covs, count)


def read_run(run_dir, methods) -> dict[str, Moments]:
    return {m: read_method_csv(os.path.join(run_dir, f"{m}.csv")) for m in methods}


def family_z(statistics: int) -> float:
    """Two-sided z bound with family-wise level FAMILY_ALPHA over ``statistics``."""
    return NormalDist().inv_cdf(1.0 - FAMILY_ALPHA / (2.0 * statistics))


# --------------------------------------------------------------------------
# Properties every trajectory must have


def covariance_properties(label: str, results: dict[str, Moments]) -> list[str]:
    """Finite moments, positive semidefinite covariances, zero fluid covariance."""
    errors = []
    for method, res in results.items():
        where = f"{label}/{method}"
        if not np.all(np.isfinite(res.means)):
            errors.append(f"{where}: non-finite mean")
        if res.covs is None:
            continue
        if not np.all(np.isfinite(res.covs)):
            errors.append(f"{where}: non-finite covariance")
            continue
        if method == "fluid":
            if np.any(res.covs != 0.0):
                errors.append(f"{where}: fluid covariance is not zero")
            continue
        for t, cov in zip(res.times, res.covs):
            scale = max(1.0, float(np.trace(cov)))
            low = float(np.linalg.eigvalsh(cov)[0])
            if low < -1e-9 * scale:
                errors.append(f"{where}: covariance not PSD at t={t:g} (eigenvalue {low:.3g})")
    return errors


# --------------------------------------------------------------------------
# Comparisons with the exact forward-equation solution


def within_relative(name: str, value, reference, tol: float, abs_tol=math.inf) -> list[str]:
    """|value - reference| <= tol * |reference| (and <= abs_tol) everywhere."""
    value, reference = np.asarray(value), np.asarray(reference)
    err = np.abs(value - reference)
    rel = err / np.abs(reference)
    if float(rel.max()) <= tol and float(err.max()) <= abs_tol:
        return []
    return [f"{name}: off by up to {100 * rel.max():.2f}% ({err.max():.3g} absolute)"]


def beyond_relative(name: str, value, reference, tol: float, everywhere: bool) -> list[str]:
    """The kink-ignoring baseline must miss by more than ``tol``."""
    rel = np.abs(np.asarray(value) - reference) / np.abs(reference)
    ok = rel.min() >= tol if everywhere else rel.max() > tol
    if ok:
        return []
    which = "at every report time" if everywhere else "anywhere"
    return [f"{name}: expected an error beyond {100 * tol:.0f}% {which}, got {100 * rel.min():.1f}%..{100 * rel.max():.1f}%"]


def exact_standard_errors(probs, coords, count: int):
    """Standard errors of an N-path sample mean and covariance, from the exact law.

    Same construction as acceptance criterion 05: Var of a mean is
    cov_ii / N, Var of a covariance is (E[(Xi-mi)^2 (Xj-mj)^2] - cov_ij^2) / N.
    """
    lattice = coords.astype(float)
    means = probs @ lattice
    se_mean = np.empty_like(means)
    se_cov = np.empty((len(probs), lattice.shape[1], lattice.shape[1]))
    for k, p in enumerate(probs):
        centered = lattice - means[k]
        cov = np.einsum("s,si,sj->ij", p, centered, centered)
        fourth = np.einsum("s,si,sj->ij", p, centered**2, centered**2)
        se_mean[k] = np.sqrt(np.diag(cov) / count)
        se_cov[k] = np.sqrt(np.maximum((fourth - cov**2) / count, 1e-30))
    return se_mean, se_cov


def simulation_band(label: str, sim: Moments, exact: Moments, se_mean, se_cov=None) -> list[str]:
    """Simulated moments within the family-wise band around the exact ones."""
    z_mean = np.abs(sim.means - exact.means) / se_mean
    stats = z_mean.size
    z_cov = None
    if se_cov is not None:
        iu = np.triu_indices(sim.means.shape[1])
        z_cov = (np.abs(sim.covs - exact.covs) / se_cov)[:, iu[0], iu[1]]
        stats += z_cov.size
    bound = family_z(stats)
    worst = max(float(z_mean.max()), float(z_cov.max()) if z_cov is not None else 0.0)
    if worst <= bound:
        return []
    return [f"{label}: simulation vs exact z={worst:.2f} exceeds the family-wise bound {bound:.2f}"]


def peer_agreement(sim: Moments, adjusted: Moments, tol: float = 0.03) -> list[str]:
    """Acceptance 09's 3% band, widened by the Monte Carlo error of the ensemble."""
    scale = np.maximum(np.abs(sim.means), 10.0)
    se = np.sqrt(np.einsum("tii->ti", sim.covs) / sim.count)
    allowance = tol * scale + family_z(sim.means.size) * se
    excess = np.abs(adjusted.means - sim.means) - allowance
    if float(excess.max()) <= 0.0:
        return []
    return [f"peer: adjusted vs simulated mean beyond 3% + MC band by {excess.max():.3g}"]


def diff_report_rows(run_dir, results: dict[str, Moments]) -> list[str]:
    """Every diff_report.csv row is method minus simulate, from the method CSVs."""
    sim = results["simulate"]
    errors = []
    seen = set()
    with open(os.path.join(run_dir, "diff_report.csv"), encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            method, stat, t = row["method"], row["stat"], float(row["t"])
            res = results[method]
            k = int(np.flatnonzero(res.times == t)[0])
            if stat.startswith("mean_"):
                i = int(stat[5:])
                value, ref = res.means[k, i], sim.means[k, i]
            else:
                i, j = int(stat[4]), int(stat[5])
                value, ref = res.covs[k, i, j], sim.covs[k, i, j]
            got = (float(row["value"]), float(row["simulation"]), float(row["difference"]))
            want = (float(value), float(ref), float(value - ref))
            if got != want:
                errors.append(f"diff_report {method} {stat} t={t:g}: {got} != {want}")
            seen.add((method, stat, t))
    d = sim.means.shape[1]
    expected = sum(len(r.times) for m, r in results.items() if m != "simulate") * (d + d * (d + 1) // 2)
    if len(seen) != expected:
        errors.append(f"diff_report has {len(seen)} distinct rows, expected {expected}")
    return errors


def repeat_agreement(run_dir, copy_dir, methods) -> list[str]:
    """A repeated call must write byte-identical method CSVs.

    ``exact`` is held to 1e-9 of the largest mean (covariance) magnitude instead:
    scipy's ``expm_multiply`` chooses its step count through a randomized
    1-norm estimate, so repeated exact solves differ in the last digits.
    """
    errors = []
    for method in methods:
        a_path = os.path.join(run_dir, f"{method}.csv")
        b_path = os.path.join(copy_dir, f"{method}.csv")
        if method == "exact":
            a, b = read_method_csv(a_path), read_method_csv(b_path)
            same = all(
                np.array_equal(a.times, b.times) and np.all(np.abs(x - y) <= 1e-9 * np.abs(x).max())
                for x, y in ((a.means, b.means), (a.covs, b.covs))
            )
        else:
            with open(a_path, "rb") as fa, open(b_path, "rb") as fb:
                same = fa.read() == fb.read()
        if not same:
            errors.append(f"{copy_dir}: {method}.csv differs from the pass's")
    return errors


# --------------------------------------------------------------------------
# Capped-residual accuracy probe


def capped_residual_oracle(mean, cov, index: int, other: int, threshold: float) -> float:
    """E[min(X_index, (threshold - X_other)^+)] by nested adaptive quadrature.

    The outer integral runs over X_other with a breakpoint at the threshold,
    the inner one over X_index given X_other with a breakpoint at the
    residual, each over +/-12 standard deviations of its Gaussian.
    """
    mj, mk = float(mean[index]), float(mean[other])
    skk = float(cov[other, other])
    sjk = float(cov[index, other])
    sk = math.sqrt(skk)
    slope = sjk / skk
    sc = math.sqrt(max(float(cov[index, index]) - sjk * sjk / skk, 0.0))
    norm = 1.0 / math.sqrt(2.0 * math.pi)

    def quad(f, lo, hi, kink):
        points = [kink] if lo < kink < hi else None
        return integrate.quad(f, lo, hi, points=points, epsabs=1e-13, epsrel=1e-13, limit=200)[0]

    def inner(xk):
        residual = max(threshold - xk, 0.0)
        mc = mj + slope * (xk - mk)

        def f(xj):
            z = (xj - mc) / sc
            return min(xj, residual) * norm * math.exp(-0.5 * z * z) / sc

        return quad(f, mc - 12 * sc, mc + 12 * sc, residual)

    def outer(xk):
        z = (xk - mk) / sk
        return inner(xk) * norm * math.exp(-0.5 * z * z) / sk

    return quad(outer, mk - 12 * sk, mk + 12 * sk, threshold)


def probe_error(value: float, oracle: float) -> tuple[float, bool]:
    """Absolute error and whether the probe passes the PROBE_TOL target."""
    err = abs(value - oracle)
    return err, err <= PROBE_TOL
