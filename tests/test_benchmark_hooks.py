"""The benchmark's span hooks (``perfbench/spans.py``) rebind names in the
program's modules; a rename there must fail here, not in a traced run."""

import importlib.util
from pathlib import Path

import qmoments.cli as cli
import qmoments.closure as closure
import qmoments.kolmogorov as kolmogorov
import qmoments.simulate as simulate
import qmoments.solvers as solvers

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
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
        argv = ["run", "--preset", "1", "--methods", "fluid,adjusted,simulate", "--reps", "2",
                "--grid", "6:8:1", "--out", out]
        assert cli.main(argv) == 0
        assert cli.main(["report", "--in", out]) == 0
    for name in ("cli.run_experiment", "method.fluid", "method.adjusted", "method.simulate",
                 "solvers.engine", "solvers.rhs.adjusted", "simulate.chunk", "simulate.compile",
                 "results.write", "results.read"):
        assert name in rec.names, name
    assert rec.counts["results.csv_bytes"] > 0
