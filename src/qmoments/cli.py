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
from .kolmogorov import checked_caps, exact_transient_moments
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


def _comma_list(text: str, field: str, read, kind: str) -> list:
    """The parts of the comma list ``text`` read as JSON values, so ``12.7`` is
    not truncated and ``NaN`` is a number, each through ``read``."""
    try:
        parts = json.loads(f"[{text}]")
    except (ValueError, RecursionError) as exc:  # RecursionError: lists nested too deep
        raise UsageError(f"{field}: {text!r} is not a comma list of {kind}") from exc
    return [read(part, field) for part in parts]


def _parse_grid(text: str) -> np.ndarray:
    """``t0:t1:step``, or a comma list of sample times."""
    if ":" not in text:
        return np.array(_comma_list(text, "grid", _real, "numbers"))
    try:
        start, stop, step = (float(v) for v in text.split(":"))
    except ValueError as exc:
        raise UsageError(f"--grid expects t0:t1:step, got {text!r}") from exc
    if not all(map(math.isfinite, (start, stop, step))) or step <= 0 or stop < start:
        raise UsageError(f"--grid range is empty, inverted or not finite: {text!r}")
    span = (stop - start) / step + 1e-9  # infinite once the quotient overflows
    count = math.floor(span) + 1 if math.isfinite(span) else math.inf
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
    """The validated experiment the ``run`` flags describe."""
    if not args.methods:
        raise UsageError("missing required field: methods")
    methods = []
    for m in (m for m in args.methods.split(",") if m):
        canon = m.strip().replace("_", "-")
        if canon not in METHOD_ORDER:
            raise UsageError(
                f"methods: unknown method {m!r}; choose from {', '.join(METHOD_ORDER)}"
            )
        if canon not in methods:
            methods.append(canon)
    if not args.out:
        raise UsageError("missing required field: out")
    if (args.preset is None) == (args.model is None):
        raise UsageError("exactly one of preset / model must be given")
    caps = (None if args.caps is None
            else tuple(_comma_list(args.caps, "caps", _whole, "integers")))
    if "exact" in methods and caps is None:
        raise UsageError("missing required field: caps (needed by method 'exact')")
    if not (args.dt is None or (math.isfinite(args.dt) and args.dt > 0)):  # then dropped
        raise UsageError(f"dt must be positive and finite, got {args.dt}")
    if not 0 <= args.seed < 2**64:
        raise UsageError(f"seed must be in 0 .. 2**64 - 1, got {args.seed}")
    return ExperimentConfig(
        methods=methods,
        out_dir=args.out,
        preset=args.preset,
        model_path=args.model,
        reps=_whole(args.reps, "reps", 1),
        seed=args.seed,
        grid=None if args.grid is None else _parse_grid(args.grid),
        caps=caps,
        workers=_default_workers(),
    )


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
    if "exact" in cfg.methods:
        checked_caps(model, cfg.caps)
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
    run.add_argument(
        "--methods", help="comma list from: " + ", ".join(METHOD_ORDER)
    )
    run.add_argument("--reps", type=int, default=1000, help="simulation replications")
    run.add_argument("--seed", type=int, default=0, help="master seed")
    run.add_argument(  # kept so that older command lines still run; read by nothing
        "--dt", type=float, help="ignored once checked: every method steps from stop to stop"
    )
    run.add_argument("--grid", help="sample times t0:t1:step or a comma list of times")
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
