"""qmoments benchmark: time to solution per method, checked against oracles.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the program is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("retrial-presets", "priority-capped", "simulate-ensembles")
SETUP_SAMPLES = 3  # set-up is timed in this many fresh processes; the median is reported


class WorkerFailed(RuntimeError):
    pass


def spawn(args, mode: str):
    """Run one worker process; returns (seconds from start to READY, result or None)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--mode", mode, "--out", str(OUT / args.workload / mode),
    ]
    env = dict(os.environ, QMOMENTS_WORKERS="1")
    ready = result = None
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        for line in proc.stdout:
            line = line.rstrip("\n")
            if line == "READY" and ready is None:
                ready = time.perf_counter() - start
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                print(line, flush=True)
        proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or ready is None or (mode == "run" and result is None):
        raise WorkerFailed(f"{mode} worker exited with code {proc.returncode}")
    return ready, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "qmoments" / "__init__.py").is_file():
        print(f"perfbench: no qmoments source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        setups = [] if args.trace else [spawn(args, "setup")[0] for _ in range(SETUP_SAMPLES - 1)]
        ready, result = spawn(args, "run")
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    metrics = result["metrics"]
    if not args.trace:
        setups.append(ready)
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
