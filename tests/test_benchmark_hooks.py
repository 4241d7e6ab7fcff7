"""The benchmark's span hooks (``perfbench/spans.py``) rebind names in the
program's modules, and its jobs (``perfbench/workloads.py``) call the CLI; a
rename or a new argument check there must fail here, not in a measured run."""

import importlib.util
from pathlib import Path

import qmoments.cli as cli
import qmoments.closure as closure
import qmoments.kolmogorov as kolmogorov
import qmoments.simulate as simulate
import qmoments.solvers as solvers

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"
OWNERS = (cli, closure, kolmogorov, simulate, solvers, simulate.RngStream)


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_span_hooks_install_and_restore_every_name():
    spans = _load_spans()
    before = [dict(vars(owner)) for owner in OWNERS]
    with spans.installed(spans.Recorder(), layers=True):  # AttributeError on a renamed name
        patched = sum(
            value is not saved.get(name)
            for owner, saved in zip(OWNERS, before)
            for name, value in vars(owner).items()
        )
    assert patched > 0
    for owner, saved in zip(OWNERS, before):
        assert dict(vars(owner)) == saved, owner


def test_method_and_csv_spans_fire(tmp_path):
    """A span around a name the program no longer calls would read 0."""
    spans = _load_spans()
    out = str(tmp_path / "run")
    with spans.installed(spans.Recorder(), layers=True) as rec:
        argv = ["run", "--preset", "1", "--methods", ",".join(cli.METHOD_ORDER), "--reps", "2",
                "--caps", "100,40", "--grid", "6:8:1", "--out", out]
        assert cli.main(argv) == 0
        assert cli.main(["report", "--in", out]) == 0
    for name in ("cli.run_experiment", *(f"method.{m}" for m in cli.METHOD_ORDER),
                 "solvers.engine", "solvers.rhs.adjusted", "simulate.chunk", "simulate.compile",
                 "kolmogorov.distributions", "kolmogorov.generator", "kolmogorov.expm",
                 "results.write", "results.read"):
        assert name in rec.names, name
    assert rec.counts["results.csv_bytes"] > 0


def test_benchmark_command_lines_parse(monkeypatch):
    """Every job of every workload, and the warm-up, is a valid ``qmoments run``."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    jobs = [workloads.WARMUP]
    for workload in workloads.WORKLOADS.values():
        jobs += [*workload.jobs, *workload.resample]
    assert len(jobs) > len(workloads.WORKLOADS)  # each workload has jobs
    for job in jobs:
        cli.parse_config(cli.build_parser().parse_args(job.argv("m", "o", 7)))
