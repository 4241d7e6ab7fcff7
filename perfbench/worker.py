"""Benchmark worker: set up, run whole rounds of one workload, check them.

Started by ``run.py``.  Prints ``READY`` as soon as set-up is done (imports,
model documents, warm-up), which is where the launcher stops its set-up
clock, then ``RESULT <json>`` with the figures of the run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import qmoments  # noqa: E402
from qmoments.cli import main as qmoments_main  # noqa: E402

from checks import repeat_agreement  # noqa: E402
from spans import METHODS, Recorder, Spans, installed, per_layer, unit_of  # noqa: E402
from workloads import WARMUP, WORKLOADS  # noqa: E402


def _cli(argv: list[str]) -> int:
    """``qmoments`` in process, with the exit code the command line would give."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):  # `report` prints its output path
            return qmoments_main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # an escaping exception is exit code 1 on the command line
        traceback.print_exc()
        return 1


def _failed_methods(code: int, run_dir: str, methods) -> int:
    if code == 0:
        return 0
    if code == 3:
        with open(os.path.join(run_dir, "run.json"), encoding="utf-8") as fh:
            return len(json.load(fh)["errors"])
    return len(methods)


def _call(rec: Recorder, kind: str, argv: list[str]) -> tuple[int, dict[str, float]]:
    """One CLI call inside a ``kind`` span; returns its exit code and method times."""
    first = len(rec.start)
    with rec.span(kind):
        code = _cli(argv)
    times: dict[str, float] = {}
    for i in range(first, len(rec.start)):
        name = rec.names[rec.name[i]]
        if name.startswith("method."):
            times[name[len("method."):]] = rec.end[i] - rec.start[i]
    return code, times


def run_round(workload, out: Path, seed: int, traced: bool, resample: bool = True) -> dict:
    """One whole round of the workload's operations, then its checks."""
    rec = Recorder()
    outputs: dict[str, str] = {}
    copies: list[tuple[str, str, tuple[str, ...]]] = []
    samples: dict[tuple[str, str], list[float]] = {}
    attempted = failed = 0
    notes: list[str] = []
    schedule = workload.schedule() if resample else ((job, True) for job in workload.jobs)
    with installed(rec, layers=traced):
        for n, (job, is_pass) in enumerate(schedule):
            rec.label = job.label
            run_dir = str(out / "runs" / (job.label if is_pass else f"{job.label}.r{n}"))
            kind = "bench.run" if is_pass else "bench.resample"
            code, times = _call(rec, kind, job.argv(str(out / "models"), run_dir, seed))
            attempted += len(job.methods)
            bad = _failed_methods(code, run_dir, job.methods)
            if job.report and not bad:
                attempted += 1
                code, _ = _call(rec, "bench.report", ["report", "--in", run_dir])
                bad += code != 0
            if bad:
                failed += bad
                notes.append(f"FAILED {job.label}: qmoments exited {code}")
                continue
            for method, seconds in times.items():
                samples.setdefault((job.label, method), []).append(seconds)
            if is_pass:
                outputs[job.label] = run_dir
            else:
                copies.append((job.label, run_dir, job.methods))
    spans = Spans(rec)
    run_s = spans.total("bench.run", "bench.report")
    errors, probes = workload.check(outputs)
    for label, run_dir, methods in copies:
        if label in outputs:
            errors += repeat_agreement(outputs[label], run_dir, methods)
    attempted += len(probes)
    for name, ok, err in probes:
        if not ok:
            failed += 1
            notes.append(f"FAILED {name}: abs error {err:.3e} > 1e-8")
    layer = None
    if traced:
        layer = per_layer(spans)
        layer["closure.capped_abs_err"] = max((err for _, _, err in probes), default=0.0)
        layer["trace.spans"] = len(spans.dur)
        rec.save(out / "trace.npz")
    return {
        "run_s": run_s,
        "samples": samples,
        "layer": layer,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "notes": notes,
    }


def end_to_end(rounds: list[dict]) -> dict[str, float]:
    """run_s: mean over rounds; method times: summed over models of the mean
    over every call of that method on that model.

    Means, not medians: a shared host can switch between a fast and a slow
    CPU speed every few seconds, and a median of a few calls lands on one
    speed or the other, while the mean of calls spread over the run averages
    them.
    """
    pooled: dict[tuple[str, str], list[float]] = {}
    for r in rounds:
        for key, values in r["samples"].items():
            pooled.setdefault(key, []).extend(values)
    out = {"run_s": statistics.fmean(r["run_s"] for r in rounds)}
    for method in METHODS:
        out[method.replace("-", "_") + "_s"] = sum(
            statistics.fmean(values) for (_, m), values in pooled.items() if m == method
        )
    return out


def _metric(name: str, value: float) -> dict:
    return {"value": float(value), "unit": unit_of(name)}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    if Path(qmoments.__file__).resolve().parent != ROOT / "src" / "qmoments":
        print(f"qmoments imported from {qmoments.__file__}, not this checkout", file=sys.stderr)
        return 2

    out = Path(args.out)
    shutil.rmtree(out, ignore_errors=True)
    workload = WORKLOADS[args.workload]()
    workload.write_models(str(out / "models"))
    if _cli(WARMUP.argv(str(out / "models"), str(out / "warmup"), args.seed)) != 0:
        return 1
    if _cli(["report", "--in", str(out / "warmup")]) != 0:
        return 1
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    workload.prepare()
    rounds = []
    start = time.perf_counter()
    if args.trace:  # one untraced pass, then the same pass traced
        rounds = [run_round(workload, out, args.seed, traced, resample=False) for traced in (False, True)]
    else:
        while True:
            t0 = time.perf_counter()
            rounds.append(run_round(workload, out, args.seed, traced=False))
            if time.perf_counter() - start + (time.perf_counter() - t0) > args.seconds:
                break

    for note in rounds[0]["notes"]:
        print(note)
    errors = sorted({e for r in rounds for e in r["errors"]})
    for error in errors:
        print("CHECK FAILED:", error)
    if args.trace:
        metrics = dict(rounds[1]["layer"])
        metrics["trace.overhead_s"] = rounds[1]["run_s"] - rounds[0]["run_s"]
    else:
        metrics = end_to_end(rounds)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: _metric(name, v) for name, v in metrics.items()},
    }
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
