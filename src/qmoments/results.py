"""Result containers and their long-format CSV serialization.

Analytic solvers produce :class:`MomentTrajectory`; the simulator produces
:class:`EnsembleStats`.  Both share one long CSV schema with columns

    t, method, stat, value, N

where ``stat`` is ``mean_0 .. mean_{d-1}`` followed by ``cov_ij`` for
``i <= j``, and ``N`` (the replication count) is only populated on ensemble
rows.  Values are written with ``repr`` so the round trip is bit-exact.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError

CSV_HEADER = ["t", "method", "stat", "value", "N"]


@dataclass(eq=False)
class MomentTrajectory:
    """Time grid with mean vector and covariance matrix per grid point."""

    method: str
    times: np.ndarray  # (n,)
    means: np.ndarray  # (n, d)
    covs: np.ndarray  # (n, d, d); identically zero for the fluid method
    warnings: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.means = np.asarray(self.means, dtype=float)
        self.covs = np.asarray(self.covs, dtype=float)
        n, d = self.means.shape
        if self.times.shape != (n,) or self.covs.shape != (n, d, d):
            raise UsageError("inconsistent trajectory array shapes")
        if np.any(np.diff(self.times) < 0):
            raise UsageError("trajectory times must be ascending")

    @property
    def dimension(self) -> int:
        return self.means.shape[1]


@dataclass(eq=False)
class EnsembleStats:
    """Empirical moments over independent simulation replications.

    The covariance uses the unbiased N-1 divisor and is absent for a single
    replication.
    """

    times: np.ndarray  # (n,)
    means: np.ndarray  # (n, d)
    covs: np.ndarray | None  # (n, d, d) or None when count < 2
    count: int
    method: str = "simulate"

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.means = np.asarray(self.means, dtype=float)
        if self.covs is not None:
            self.covs = np.asarray(self.covs, dtype=float)

    @property
    def dimension(self) -> int:
        return self.means.shape[1]


Result = MomentTrajectory | EnsembleStats


def stat_names(dimension: int) -> list[str]:
    names = [f"mean_{i}" for i in range(dimension)]
    names += [
        f"cov_{i}{j}" for i in range(dimension) for j in range(dimension) if i <= j
    ]
    return names


def _rows(result: Result):
    d = result.dimension
    count = result.count if isinstance(result, EnsembleStats) else None
    with_cov = not (isinstance(result, EnsembleStats) and result.covs is None)
    for idx, t in enumerate(result.times):
        for i in range(d):
            yield t, f"mean_{i}", result.means[idx, i], count
        if with_cov:
            for i in range(d):
                for j in range(i, d):
                    yield t, f"cov_{i}{j}", result.covs[idx, i, j], count


def write_long_csv(results: list[Result], path) -> None:
    """Write results in the shared long format (deterministic byte output)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for result in results:
            for t, stat, value, count in _rows(result):
                writer.writerow(
                    [
                        repr(float(t)),
                        result.method,
                        stat,
                        repr(float(value)),
                        "" if count is None else count,
                    ]
                )


def read_long_csv(path) -> list[Result]:
    """Inverse of :func:`write_long_csv` (up to trajectory warnings)."""
    per_method: dict[str, dict] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise UsageError(f"unexpected CSV header {header}")
        for t_str, method, stat, value, count in reader:
            entry = per_method.setdefault(
                method, {"cells": {}, "count": None, "order": []}
            )
            t = float(t_str)
            if not entry["order"] or entry["order"][-1] != t:
                entry["order"].append(t)
            entry["cells"][(t, stat)] = float(value)
            if count:
                entry["count"] = int(count)

    results: list[Result] = []
    for method, entry in per_method.items():
        times = np.array(entry["order"])
        stats = {stat for (_, stat) in entry["cells"]}
        d = sum(1 for s in stats if s.startswith("mean_"))
        means = np.array(
            [[entry["cells"][(t, f"mean_{i}")] for i in range(d)] for t in times]
        )
        has_cov = any(s.startswith("cov_") for s in stats)
        covs = None
        if has_cov:
            covs = np.zeros((len(times), d, d))
            for idx, t in enumerate(times):
                for i in range(d):
                    for j in range(i, d):
                        v = entry["cells"][(t, f"cov_{i}{j}")]
                        covs[idx, i, j] = v
                        covs[idx, j, i] = v
        if entry["count"] is not None:
            results.append(EnsembleStats(times, means, covs, entry["count"], method))
        else:
            if covs is None:
                covs = np.zeros((len(times), d, d))
            results.append(MomentTrajectory(method, times, means, covs))
    return results


def results_equal(a: Result, b: Result) -> bool:
    """Equality of the numeric payload (method, grid, moments, count)."""
    if a.method != b.method or a.dimension != b.dimension:
        return False
    if not np.array_equal(a.times, b.times) or not np.array_equal(a.means, b.means):
        return False
    cov_a = getattr(a, "covs", None)
    cov_b = getattr(b, "covs", None)
    if (cov_a is None) != (cov_b is None):
        return False
    if cov_a is not None and not np.array_equal(cov_a, cov_b):
        return False
    count_a = getattr(a, "count", None)
    count_b = getattr(b, "count", None)
    return count_a == count_b
