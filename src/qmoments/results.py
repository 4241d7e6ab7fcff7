"""The result container and its long-format CSV serialization.

Every method produces a :class:`MomentTrajectory`; the simulator also sets its
replication ``count``.  All results share one long CSV schema with columns

    t, method, stat, value, N

where ``stat`` runs over :func:`stat_positions` and ``N`` holds ``count`` where
it is set.  Values are written with ``repr`` so the round trip is bit-exact.
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
    covs: np.ndarray | None  # (n, d, d); zero for fluid, None for one replication
    warnings: list[str] = field(default_factory=list)
    count: int | None = None  # replications, set only by ``simulate_ensemble``
    crossings: list[list] = field(default_factory=list)  # [t, transition, surface] of the flow
    work: dict = field(default_factory=dict)  # an ODE method's step and RHS counts

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.means = np.asarray(self.means, dtype=float)
        n, d = self.means.shape
        if self.covs is not None:
            self.covs = np.asarray(self.covs, dtype=float)
        if self.times.shape != (n,) or (self.covs is not None and self.covs.shape != (n, d, d)):
            raise UsageError("inconsistent trajectory array shapes")
        if np.any(np.diff(self.times) < 0):
            raise UsageError("trajectory times must be ascending")

    @property
    def dimension(self) -> int:
        return self.means.shape[1]


def stat_positions(dimension: int, with_cov: bool = True) -> dict[str, tuple[int, ...]]:
    """CSV statistic name to its ``(i,)`` mean or ``(i, j)`` covariance entry,
    in file order; the covariance entries only when ``with_cov`` is set."""
    means = {f"mean_{i}": (i,) for i in range(dimension)}
    pairs = [(i, j) for i in range(dimension) for j in range(i, dimension) if with_cov]
    return means | {f"cov_{i}{j}": (i, j) for i, j in pairs}


def stat_values(result: MomentTrajectory, positions) -> list[list[float]]:
    """Per sample time, the values of ``result`` at ``positions`` in their order."""
    columns = [
        (result.means if len(pos) == 1 else result.covs)[(slice(None), *pos)]
        for pos in positions.values()
    ]
    return np.stack(columns, axis=1).tolist()


def write_csv(path, header: list[str], rows) -> None:
    """``header``, then ``rows``, as CSV with LF line ends (deterministic bytes).
    A file that cannot be written raises :class:`UsageError` naming ``path``."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _long_rows(results: list[MomentTrajectory]):
    for result in results:
        positions = stat_positions(result.dimension, result.covs is not None)
        count = "" if result.count is None else result.count
        for t, row in zip(result.times.tolist(), stat_values(result, positions)):
            for stat, value in zip(positions, row):
                yield [repr(t), result.method, stat, repr(value), count]


def write_long_csv(results: list[MomentTrajectory], path) -> None:
    """Write results in the shared long format (deterministic byte output)."""
    write_csv(path, CSV_HEADER, _long_rows(results))


def read_long_csv(path) -> list[MomentTrajectory]:
    """Inverse of :func:`write_long_csv` (up to trajectory warnings); a file
    not in that format raises :class:`UsageError`."""
    try:
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

        results: list[MomentTrajectory] = []
        for method, entry in per_method.items():
            stats = {stat for (_, stat) in entry["cells"]}
            d = sum(1 for s in stats if s.startswith("mean_"))
            positions = stat_positions(d, any(s.startswith("cov_") for s in stats))
            values = np.array(
                [[entry["cells"][(t, s)] for s in positions] for t in entry["order"]]
            )
            covs = None
            if len(positions) > d:
                rows, cols = np.array(list(positions.values())[d:]).T
                covs = np.zeros((len(values), d, d))
                covs[:, rows, cols] = covs[:, cols, rows] = values[:, d:]
            results.append(
                MomentTrajectory(
                    method, entry["order"], values[:, :d], covs, count=entry["count"]
                )
            )
        return results
    except OSError as exc:
        raise UsageError(f"cannot read results CSV {path}: {exc.strerror or exc}") from exc
    except (ValueError, KeyError, csv.Error) as exc:  # a short row, a bad number, a missing cell
        raise UsageError(f"malformed results CSV {path}: {exc!r}") from exc
