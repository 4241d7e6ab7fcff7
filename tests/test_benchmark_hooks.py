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


def test_span_hooks_install_and_restore_every_name():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
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
