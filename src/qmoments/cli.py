"""Command-line front end.

``qmoments run`` loads a model (numbered preset or JSON file), runs any
subset of the analysis methods, and writes one CSV per method plus a
combined long-format CSV and a small run manifest.  ``qmoments report``
turns a run directory into a method-minus-simulation difference table.

Exit codes: 0 success, 2 usage error, 3 numerical/divergence error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, NumericalError, UsageError
from .kolmogorov import exact_transient_moments
from .model import GRID_TOL, NetworkModel, _real, _whole, checked_grid, load_model
from .model import read_json, write_json
from .results import (
    MomentTrajectory,
    read_long_csv,
    stat_positions,
    stat_values,
    write_csv,
    write_long_csv,
)
from .simulate import simulate_ensemble
from .solvers import FLOW_METHODS, METHODS as ODE_METHODS, SolverConfig, solve
from .systems import build_retrial, retrial_preset

METHOD_ORDER = ("fluid", "adjusted", "measure-zero", "simulate", "exact")
WORKERS_ENV = "QMOMENTS_WORKERS"
GRID_LIMIT = 1_000_000  # sample times from --grid; each writes rows to every method's CSV

COMBINED_CSV = "combined.csv"
MANIFEST = "run.json"
DIFF_CSV = "diff_report.csv"
DIFF_HEADER = ["experiment", "method", "stat", "t", "value", "simulation", "difference"]


@dataclass
class ExperimentConfig:
    """Validated description of one experiment run."""

    methods: list[str]
    out_dir: str
    preset: int | None = None
    model_path: str | None = None
    reps: int = 1000
    seed: int = 0
    grid: np.ndarray | None = None
    caps: tuple[int, ...] | None = None
    workers: int = 1


def _parse_grid(text: str) -> np.ndarray:
    try:
        start, stop, step = (float(v) for v in text.split(":"))
    except ValueError as exc:
        raise UsageError(f"--grid expects t0:t1:step, got {text!r}") from exc
    if not all(map(math.isfinite, (start, stop, step))) or step <= 0 or stop < start:
        raise UsageError(f"--grid range is empty, inverted or not finite: {text!r}")
    count = math.floor((stop - start) / step + 1e-9) + 1
    if count > GRID_LIMIT:
        raise UsageError(f"--grid {text!r} has {count} sample times, limit is {GRID_LIMIT}")
    return start + step * np.arange(count)


def _default_workers() -> int:
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        workers = int(raw)
    except ValueError:
        raise UsageError(f"{WORKERS_ENV} must be an integer, got {raw!r}")
    return _whole(workers, WORKERS_ENV, 1)


def parse_config(args: argparse.Namespace) -> ExperimentConfig:
    """Build a validated config; command-line flags override file values."""
    try:
        return _parse_config(args)
    except UsageError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:  # JSONDecodeError included
        raise UsageError(f"invalid configuration: {exc}") from exc


def _parse_config(args: argparse.Namespace) -> ExperimentConfig:
    file_values = read_json(args.config, "config file") if getattr(args, "config", None) else {}

    def pick(flag, key, default=None):
        if flag is not None:
            return flag
        return file_values.get(key, default)

    methods_raw = pick(args.methods, "methods")
    if not methods_raw:
        raise UsageError("missing required field: methods")
    if isinstance(methods_raw, str):
        methods_raw = [m for m in methods_raw.split(",") if m]
    methods = []
    for m in methods_raw:
        canon = m.strip().replace("_", "-") if isinstance(m, str) else m
        if canon not in METHOD_ORDER:
            raise UsageError(
                f"methods: unknown method {m!r}; choose from {', '.join(METHOD_ORDER)}"
            )
        if canon not in methods:
            methods.append(canon)
    out_dir = pick(args.out, "out")
    if not out_dir:
        raise UsageError("missing required field: out")
    preset = pick(args.preset, "preset")
    model_path = pick(args.model, "model")
    for key, path in (("out", out_dir), ("model", model_path)):
        if path is not None and not isinstance(path, str):  # open(5) would read fd 5
            raise UsageError(f"{key} must be a path string, got {path!r}")
    if (preset is None) == (model_path is None):
        raise UsageError("exactly one of preset / model must be given")
    grid = pick(args.grid, "grid")
    if isinstance(grid, str):
        grid = _parse_grid(grid)
    elif grid is not None:
        grid = np.array([_real(t, "grid") for t in grid])
    caps = pick(args.caps, "caps")
    if isinstance(caps, str):  # read as a JSON list, so "12.7" is not truncated
        try:
            caps = json.loads(f"[{caps}]")
        except ValueError as exc:
            raise UsageError(f"caps: {caps!r} is not a comma list of integers") from exc
    if caps is not None:
        caps = tuple(_whole(c, "caps") for c in caps)
    if "exact" in methods and caps is None:
        raise UsageError("missing required field: caps (needed by method 'exact')")
    dt = _real(pick(args.dt, "dt", 0.01), "dt")  # checked, then dropped: see --dt
    if not (math.isfinite(dt) and dt > 0):
        raise UsageError(f"dt must be positive and finite, got {dt}")
    cfg = ExperimentConfig(
        methods=methods,
        out_dir=out_dir,
        preset=_whole(preset, "preset") if preset is not None else None,
        model_path=model_path,
        reps=_whole(pick(args.reps, "reps", 1000), "reps", 1),
        seed=_whole(pick(args.seed, "seed", 0), "seed"),
        grid=grid,
        caps=caps,
        workers=_default_workers(),
    )
    if not 0 <= cfg.seed < 2**64:
        raise UsageError(f"seed must be in 0 .. 2**64 - 1, got {cfg.seed}")
    return cfg


def _resolve_model(cfg: ExperimentConfig) -> tuple[NetworkModel, np.ndarray]:
    grid = cfg.grid
    if cfg.preset is not None:
        params, horizon, preset_grid = retrial_preset(cfg.preset)
        model = build_retrial(params, horizon)
        grid = preset_grid if grid is None else grid
    else:
        model = load_model(cfg.model_path)
    return model, checked_grid(model, grid)


def run_experiment(cfg: ExperimentConfig):
    """Run every requested method; a diverging method does not abort the rest.

    Returns ``(results, errors)``: method name to result object, and method
    name to the error message for methods that failed numerically.
    """
    model, grid = _resolve_model(cfg)
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"out: cannot create {cfg.out_dir}: {exc.strerror or exc}") from exc
    results: dict[str, MomentTrajectory] = {}
    errors: dict[str, str] = {}
    for method in cfg.methods:
        try:
            if method == "simulate":
                results[method] = simulate_ensemble(
                    model, cfg.reps, cfg.seed, grid, workers=cfg.workers
                )
            elif method == "exact":
                results[method] = exact_transient_moments(model, cfg.caps, grid)
            else:
                results[method] = solve(model, SolverConfig(method=method, grid=grid))
        except (DivergenceError, NumericalError) as exc:
            errors[method] = str(exc)

    ordered = [m for m in METHOD_ORDER if m in results]
    for method in ordered:
        write_long_csv([results[method]], os.path.join(cfg.out_dir, f"{method}.csv"))
    write_long_csv(
        [results[m] for m in ordered], os.path.join(cfg.out_dir, COMBINED_CSV)
    )
    manifest = {
        "preset": cfg.preset,
        "model": cfg.model_path,
        "methods": cfg.methods,
        "reps": cfg.reps,
        "seed": cfg.seed,
        "errors": errors,
        "warnings": {m: results[m].warnings for m in ordered if m in ODE_METHODS},
        "crossings": {m: results[m].crossings for m in ordered if m in FLOW_METHODS},
        "work": {m: results[m].work for m in ordered if m in ODE_METHODS},
    }
    write_json(manifest, os.path.join(cfg.out_dir, MANIFEST))
    return results, errors


def diff_report(results: dict, experiment: str = "") -> list[tuple]:
    """Rows ``(experiment, method, stat, t, value, simulation, difference)``:
    each method minus ``simulate`` on the shared grid, in the layout of
    :data:`DIFF_HEADER`.

    Covers the mean of every component, every variance, and every pairwise
    covariance.  Swapping a method with the simulation negates its rows.
    """
    if "simulate" not in results:
        raise UsageError("no 'simulate' result to compare against")
    ref = results["simulate"]
    report = []
    for method in (m for m in METHOD_ORDER if m in results and m != "simulate"):
        res = results[method]
        if len(res.times) != len(ref.times) or not np.allclose(
            res.times, ref.times, rtol=0.0, atol=GRID_TOL
        ):
            raise UsageError(f"method {method!r} grid does not match the 'simulate' grid")
        if res.dimension != ref.dimension:
            raise UsageError(
                f"method {method!r} has dimension {res.dimension}, "
                f"the 'simulate' result has {ref.dimension}"
            )
        with_cov = ref.covs is not None and res.covs is not None
        positions = stat_positions(ref.dimension, with_cov)
        rows = zip(ref.times.tolist(), stat_values(res, positions), stat_values(ref, positions))
        for t, values, ref_values in rows:
            for stat, value, ref_value in zip(positions, values, ref_values):
                report.append((experiment, method, stat, t, value, ref_value, value - ref_value))
    return report


def _cmd_run(args) -> int:
    cfg = parse_config(args)
    _, errors = run_experiment(cfg)
    for method, message in sorted(errors.items()):
        print(f"error: method {method} failed: {message}", file=sys.stderr)
    return 3 if errors else 0


def _cmd_report(args) -> int:
    run_dir = args.in_dir
    experiment = ""
    manifest_path = os.path.join(run_dir, MANIFEST)
    if os.path.exists(manifest_path):
        manifest = read_json(manifest_path, "run manifest")
        experiment = str(manifest.get("preset") or manifest.get("model") or "")
    results = {r.method: r for r in read_long_csv(os.path.join(run_dir, COMBINED_CSV))}
    report = diff_report(results, experiment=experiment)
    out_path = os.path.join(run_dir, DIFF_CSV)
    write_csv(out_path, DIFF_HEADER, ([*row[:3], *map(repr, row[3:])] for row in report))
    print(out_path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmoments",
        description="Transient moment analysis of Markovian queueing networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run methods on a preset or model file")
    run.add_argument("--preset", type=int, help="numbered retrial experiment (1..10)")
    run.add_argument("--model", help="path to a model JSON file")
    run.add_argument("--config", help="JSON file with config fields (flags override)")
    run.add_argument(
        "--methods", help="comma list from: " + ", ".join(METHOD_ORDER)
    )
    run.add_argument("--reps", type=int, help="simulation replications")
    run.add_argument("--seed", type=int, help="master seed")
    run.add_argument(  # kept so that older command lines still run; read by nothing
        "--dt", type=float, help="ignored once checked: every method steps from stop to stop"
    )
    run.add_argument("--grid", help="sample times t0:t1:step")
    run.add_argument("--out", help="output directory")
    run.add_argument("--caps", help="per-dimension state caps for method 'exact'")
    run.set_defaults(handler=_cmd_run)

    report = sub.add_parser("report", help="difference table for a run directory")
    report.add_argument("--in", dest="in_dir", required=True, help="run directory")
    report.set_defaults(handler=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DivergenceError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
