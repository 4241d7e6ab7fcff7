"""Spans around the public functions of each qmoments layer.

The wrappers live here, in the benchmark, and are installed by rebinding the
module attributes that the calling layer looks up at call time (for example
``qmoments.solvers.closed_drift``, not ``qmoments.closure.closed_drift``,
because the solver imported the name).  The program's source is not touched.

A span records its name, start, end and the index of the enclosing span.
Spans sit in flat arrays in memory and are written once, when the run ends.
"""

from __future__ import annotations

import os
import time
from array import array
from contextlib import contextmanager

import numpy as np

import qmoments.cli as cli
import qmoments.closure as closure
import qmoments.kolmogorov as kolmogorov
import qmoments.simulate as simulate
import qmoments.solvers as solvers
from qmoments.model import KERNEL_TAGS

_clock = time.perf_counter


class Recorder:
    """Flat span store; ``label`` names the model the current job runs."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.counts: dict[str, float] = {}
        self.label = ""

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self._stack.append(idx)
        self.end.append(0.0)
        self.start.append(_clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = _clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def count(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def arrays(self):
        """(names, name index, duration, parent) as numpy arrays."""
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        return (
            self.names,
            np.frombuffer(self.name, dtype=np.int32),
            end - start,
            np.frombuffer(self.parent, dtype=np.int32),
        )

    def save(self, path) -> None:
        names, name_idx, _, parent = self.arrays()
        np.savez(
            path,
            names=np.array(names),
            name=name_idx,
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=parent,
        )


def _wrap(rec: Recorder, fn, name, after=None, rewrite=None):
    static = isinstance(name, str)

    def wrapper(*args, **kwargs):
        if rewrite is not None:
            args = rewrite(args)
        idx = rec.open(name if static else name(args))
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if after is not None:
            after(out, args)
        return out

    return wrapper


def _method_patches(rec: Recorder):
    """The three calls ``run_experiment`` makes, one per method."""
    return [
        (cli, "solve", _wrap(rec, cli.solve, lambda a: "method." + a[1].method)),
        (cli, "simulate_ensemble", _wrap(rec, cli.simulate_ensemble, "method.simulate")),
        (
            cli,
            "exact_transient_moments",
            _wrap(rec, cli.exact_transient_moments, "method.exact"),
        ),
    ]


def _layer_patches(rec: Recorder):
    def count_bytes(_out, args):
        rec.count("results.csv_bytes", os.path.getsize(args[1]))

    def count_states(out, _args):
        rec.count("kolmogorov.states", out[1].shape[0])

    def timed_rhs(args):
        model, cfg, rhs, method = args
        return (model, cfg, _wrap(rec, rhs, "solvers.rhs." + method), method)

    def kernel_name(args):
        return "closure.expected_kernel." + KERNEL_TAGS[type(args[0].kernel)]

    def path_name(_args):
        return "simulate.path." + rec.label

    patches = [
        (cli, "run_experiment", _wrap(rec, cli.run_experiment, "cli.run_experiment")),
        (cli, "write_long_csv", _wrap(rec, cli.write_long_csv, "results.write", count_bytes)),
        (cli, "read_long_csv", _wrap(rec, cli.read_long_csv, "results.read")),
        (
            solvers,
            "_solve_moments",
            _wrap(rec, solvers._solve_moments, "solvers.engine", rewrite=timed_rhs),
        ),
        (closure, "expected_kernel", _wrap(rec, closure.expected_kernel, kernel_name)),
        (simulate, "_compile_segments", _wrap(rec, simulate._compile_segments, "simulate.compile")),
        (simulate, "_chunk_stats", _wrap(rec, simulate._chunk_stats, "simulate.chunk")),
        (simulate, "_run_path", _wrap(rec, simulate._run_path, path_name)),
        (
            simulate.RngStream,
            "generator",
            _wrap(rec, simulate.RngStream.generator, "simulate.stream"),
        ),
        (
            kolmogorov,
            "state_distributions",
            _wrap(rec, kolmogorov.state_distributions, "kolmogorov.distributions", count_states),
        ),
        (
            kolmogorov,
            "_generator_transpose",
            _wrap(rec, kolmogorov._generator_transpose, "kolmogorov.generator"),
        ),
        (kolmogorov, "expm_multiply", _wrap(rec, kolmogorov.expm_multiply, "kolmogorov.expm")),
    ]
    for fn in ("closed_drift", "closed_drift_jacobian", "noise_matrix"):
        patches.append((solvers, fn, _wrap(rec, getattr(solvers, fn), "closure." + fn)))
    for fn in ("pointwise_drift_jacobian", "pointwise_noise_matrix"):
        patches.append((solvers, fn, _wrap(rec, getattr(solvers, fn), "solvers." + fn)))
    patches.append((solvers, "drift", _wrap(rec, solvers.drift, "model.drift")))
    for module in (solvers, simulate, kolmogorov):
        patches.append(
            (module, "validate_model", _wrap(rec, module.validate_model, "model.validate"))
        )
    return patches


@contextmanager
def installed(rec: Recorder, layers: bool):
    """Method spans always; layer spans only when ``layers`` is set."""
    patches = _method_patches(rec) + (_layer_patches(rec) if layers else [])
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# --------------------------------------------------------------------------
# Metrics derived from the spans

METHODS = ("fluid", "adjusted", "measure-zero", "simulate", "exact")
SIM_LABELS = ("tiny", "preset7", "peer", "priority")
VARIANTS = tuple(KERNEL_TAGS.values())


class Spans:
    """Per-name views of a recorder's spans, with self times."""

    def __init__(self, rec: Recorder):
        self.names, self.idx, self.dur, self.parent = rec.arrays()
        self.counts = rec.counts
        has_parent = self.parent >= 0
        child_sum = np.bincount(
            self.parent[has_parent], weights=self.dur[has_parent], minlength=len(self.dur)
        )
        self.self_time = self.dur - child_sum
        self._id = {n: i for i, n in enumerate(self.names)}

    def mask(self, *names: str) -> np.ndarray:
        ids = [self._id[n] for n in names if n in self._id]
        return np.isin(self.idx, ids)

    def calls(self, *names: str) -> int:
        return int(np.count_nonzero(self.mask(*names)))

    def total(self, *names: str) -> float:
        return float(self.dur[self.mask(*names)].sum())

    def self_total(self, *names: str) -> float:
        return float(self.self_time[self.mask(*names)].sum())

    def mean(self, *names: str) -> float:
        calls = self.calls(*names)
        return self.total(*names) / calls if calls else 0.0

    def under(self, parent_names, *names: str) -> float:
        """Total time of ``names`` spans whose direct parent is in ``parent_names``."""
        inner = np.flatnonzero(self.mask(*names))
        parents = self.parent[inner]
        keep = (parents >= 0) & self.mask(*parent_names)[np.maximum(parents, 0)]
        return float(self.dur[inner[keep]].sum())


def per_layer(spans: Spans) -> dict[str, float]:
    """Every per-layer metric of one traced pass; 0 where the layer did not run."""
    s = spans
    us, ms = 1e6, 1e3
    out: dict[str, float] = {}

    adjusted_rhs = s.calls("solvers.rhs.adjusted")
    closed = s.total("closure.closed_drift", "closure.closed_drift_jacobian", "closure.noise_matrix")
    out["closure.rhs_us"] = us * closed / adjusted_rhs if adjusted_rhs else 0.0
    kernel_names = ["closure.expected_kernel." + v for v in VARIANTS]
    out["closure.expected_kernel_calls"] = s.calls(*kernel_names)
    for variant, name in zip(VARIANTS, kernel_names):
        out["closure.rate_us." + variant] = us * s.mean(name)

    rhs_names = ["solvers.rhs." + m for m in ("fluid", "adjusted", "measure-zero")]
    rhs_calls = s.calls(*rhs_names)
    steps = rhs_calls / 4  # four RK4 stages per step
    out["solvers.rk_steps"] = steps
    out["solvers.rhs_calls"] = rhs_calls
    out["solvers.engine_us_per_step"] = (
        us * s.self_total("solvers.engine") / steps if steps else 0.0
    )
    mz_rhs = s.calls("solvers.rhs.measure-zero")
    mz_time = s.under(
        ["solvers.rhs.measure-zero"],
        "solvers.pointwise_drift_jacobian",
        "solvers.pointwise_noise_matrix",
        "model.drift",
    )
    out["solvers.mz_rhs_us"] = us * mz_time / mz_rhs if mz_rhs else 0.0

    out["model.drift_us"] = us * s.mean("model.drift")
    out["model.validate_ms"] = ms * s.total("model.validate")
    out["model.validate_calls"] = s.calls("model.validate")

    for label in SIM_LABELS:
        out["simulate.path_ms." + label] = ms * s.mean("simulate.path." + label)
    path_names = ["simulate.path." + label for label in SIM_LABELS]
    paths = s.calls(*path_names)
    out["simulate.stream_setup_us"] = us * s.mean("simulate.stream")
    out["simulate.accumulate_us_per_path"] = (
        us * s.self_total("simulate.chunk") / paths if paths else 0.0
    )
    out["simulate.compile_calls"] = s.calls("simulate.compile")

    out["kolmogorov.states"] = s.counts.get("kolmogorov.states", 0.0)
    out["kolmogorov.generator_ms"] = ms * s.total("kolmogorov.generator")
    out["kolmogorov.generator_builds"] = s.calls("kolmogorov.generator")
    out["kolmogorov.expm_ms"] = ms * s.total("kolmogorov.expm")
    out["kolmogorov.expm_calls"] = s.calls("kolmogorov.expm")
    out["kolmogorov.moments_ms"] = ms * (
        s.total("method.exact") - s.total("kolmogorov.distributions")
    )

    out["results.csv_write_ms"] = ms * s.total("results.write")
    out["results.csv_read_ms"] = ms * s.total("results.read")
    out["results.csv_bytes"] = s.counts.get("results.csv_bytes", 0.0)

    method_names = ["method." + m for m in METHODS]
    inside = s.under(["cli.run_experiment"], *method_names, "results.write")
    out["cli.overhead_ms"] = ms * (s.total("cli.run_experiment") - inside)
    out["cli.report_ms"] = ms * s.total("bench.report")
    return out


def unit_of(metric: str) -> str:
    if "_us" in metric:
        return "us"
    if "_ms" in metric:
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_err"):
        return "abs"
    return "count"
