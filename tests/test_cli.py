import copy
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmoments as qm
from qmoments import UsageError, read_long_csv
from qmoments.cli import (
    METHOD_ORDER,
    ExperimentConfig,
    build_parser,
    diff_report,
    main,
    parse_config,
    run_experiment,
)
from helpers import results_equal


def tiny_model_file(tmp_path, horizon=4.0):
    from qmoments.systems import RetrialParams
    from qmoments.schedule import TimeSchedule

    params = RetrialParams(
        servers=TimeSchedule.constant(3),
        arrival=TimeSchedule.alternating(2, 4, 2.0, horizon),
        service=TimeSchedule.constant(1.0),
        retrial_rate=TimeSchedule.constant(0.5),
        abandon=TimeSchedule.constant(2.0),
        leave_prob=TimeSchedule.constant(0.5),
    )
    model = qm.build_retrial(params, horizon)
    path = tmp_path / "tiny.json"
    qm.save_model(model, path)
    return str(path)


def parse_run(argv):
    parser = build_parser()
    return parse_config(parser.parse_args(["run", *argv]))


class TestParsing:
    def test_preset_invocation(self):
        cfg = parse_run(
            [
                "--preset", "7",
                "--methods", "adjusted,measure-zero,simulate",
                "--reps", "5000",
                "--seed", "42",
                "--out", "outdir",
            ]
        )
        assert cfg.preset == 7 and cfg.model_path is None
        assert cfg.methods == ["adjusted", "measure-zero", "simulate"]
        assert cfg.reps == 5000 and cfg.seed == 42

    def test_missing_methods_is_usage_error(self):
        with pytest.raises(UsageError, match="methods"):
            parse_run(["--preset", "7", "--out", "o"])

    def test_unknown_method_named_in_error(self):
        with pytest.raises(UsageError, match="montecarlo"):
            parse_run(["--preset", "7", "--methods", "montecarlo", "--out", "o"])

    def test_preset_and_model_mutually_exclusive(self):
        with pytest.raises(UsageError, match="preset"):
            parse_run(
                ["--preset", "1", "--model", "m.json", "--methods", "fluid", "--out", "o"]
            )

    def test_exact_requires_caps(self):
        with pytest.raises(UsageError, match="caps"):
            parse_run(["--preset", "1", "--methods", "exact", "--out", "o"])

    def test_grid_parsing(self):
        cfg = parse_run(
            ["--preset", "1", "--methods", "fluid", "--out", "o", "--grid", "6:15:1"]
        )
        np.testing.assert_allclose(cfg.grid, np.arange(6.0, 16.0))

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps({"preset": 2, "methods": "fluid,adjusted", "out": "fromfile", "reps": 10})
        )
        parser = build_parser()
        args = parser.parse_args(
            ["run", "--config", str(config), "--reps", "25"]
        )
        cfg = parse_config(args)
        assert cfg.preset == 2
        assert cfg.methods == ["fluid", "adjusted"]
        assert cfg.out_dir == "fromfile"
        assert cfg.reps == 25  # flag wins over file

    def test_missing_model_file_is_usage_error(self, tmp_path):
        code = main(
            [
                "run",
                "--model", str(tmp_path / "nope.json"),
                "--methods", "fluid",
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 2


class TestRunAndReport:
    def test_end_to_end_run_produces_all_outputs(self, tmp_path):
        model_path = tiny_model_file(tmp_path)
        out = tmp_path / "run"
        code = main(
            [
                "run",
                "--model", model_path,
                "--methods", "fluid,adjusted,measure-zero,simulate,exact",
                "--reps", "60",
                "--seed", "3",
                "--grid", "0:4:1",
                "--caps", "12,12",
                "--out", str(out),
            ]
        )
        assert code == 0
        for name in (
            "fluid.csv",
            "adjusted.csv",
            "measure-zero.csv",
            "simulate.csv",
            "exact.csv",
            "combined.csv",
            "run.json",
        ):
            assert (out / name).exists()
        results = {r.method: r for r in read_long_csv(out / "combined.csv")}
        assert set(results) == {"fluid", "adjusted", "measure-zero", "simulate", "exact"}
        assert results["simulate"].count == 60

        report_code = main(["report", "--in", str(out)])
        assert report_code == 0
        report_lines = (out / "diff_report.csv").read_text().splitlines()
        assert report_lines[0] == "experiment,method,stat,t,value,simulation,difference"
        assert len(report_lines) > 1

    def test_single_replication_omits_covariance(self, tmp_path):
        model_path = tiny_model_file(tmp_path)
        out = tmp_path / "run1"
        code = main(
            [
                "run",
                "--model", model_path,
                "--methods", "simulate",
                "--reps", "1",
                "--grid", "0:4:2",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert "cov_" not in (out / "simulate.csv").read_text()

    def test_repeated_runs_are_byte_identical(self, tmp_path):
        model_path = tiny_model_file(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        argv = [
            "run",
            "--model", model_path,
            "--methods", "adjusted,simulate",
            "--reps", "40",
            "--seed", "9",
            "--grid", "0:4:1",
        ]
        assert main([*argv, "--out", str(out_a)]) == 0
        assert main([*argv, "--out", str(out_b)]) == 0
        assert (out_a / "combined.csv").read_bytes() == (out_b / "combined.csv").read_bytes()

    def test_divergent_method_exits_3_but_writes_others(self, tmp_path):
        # a birth process at rate 1000 x fed from x = 0 at rate 1e-300: the
        # fluid, 1e-303 (exp(1000 t) - 1), overflows near t = 1.41 under any
        # method, and adjusted's variance near t = 0.70, inside the sampled
        # window (ODE methods stop at the last sample), while a simulated path
        # almost surely stays at 0
        model = qm.NetworkModel(
            1,
            (
                qm.Transition((1,), qm.RateTerm(qm.TimeSchedule.constant(1e-300), qm.Constant())),
                qm.Transition(
                    (1,),
                    qm.RateTerm(qm.TimeSchedule.constant(1000.0), qm.Linear((1.0,))),
                ),
            ),
            (0,),
            10.0,
        )
        path = tmp_path / "explode.json"
        qm.save_model(model, path)
        out = tmp_path / "run"
        code = main(
            [
                "run",
                "--model", str(path),
                "--methods", "fluid,adjusted,simulate",
                "--reps", "2",
                "--grid", "0:2:1",
                "--out", str(out),
            ]
        )
        assert code == 3
        manifest = json.loads((out / "run.json").read_text())
        assert "fluid" in manifest["errors"] and "adjusted" in manifest["errors"]
        assert (out / "simulate.csv").exists()

    def test_report_without_simulation_is_usage_error(self, tmp_path):
        model_path = tiny_model_file(tmp_path)
        out = tmp_path / "runf"
        main(
            [
                "run", "--model", model_path, "--methods", "fluid",
                "--grid", "0:4:1", "--out", str(out),
            ]
        )
        assert main(["report", "--in", str(out)]) == 2


class TestDiffReport:
    def _results(self, tmp_path):
        model_path = tiny_model_file(tmp_path)
        cfg = ExperimentConfig(
            methods=["adjusted", "measure-zero", "simulate"],
            out_dir=str(tmp_path / "rr"),
            model_path=model_path,
            reps=50,
            seed=5,
            grid=np.arange(0.0, 5.0),
        )
        results, errors = run_experiment(cfg)
        assert not errors
        return results

    def test_method_against_itself_is_zero(self, tmp_path):
        results = self._results(tmp_path)
        doctored = {"simulate": results["simulate"], "adjusted": results["simulate"]}
        report = diff_report(doctored)
        assert all(row[6] == 0.0 for row in report)

    def test_swapping_reference_negates_differences(self, tmp_path):
        results = self._results(tmp_path)
        forward = diff_report(
            {"simulate": results["simulate"], "adjusted": results["adjusted"]}
        )
        backward = diff_report(
            {"simulate": results["adjusted"], "adjusted": results["simulate"]}
        )
        for row_f, row_b in zip(forward, backward):
            assert row_f[6] == pytest.approx(-row_b[6], abs=1e-12)

    def test_grid_mismatch_rejected(self, tmp_path):
        results = self._results(tmp_path)
        short = qm.MomentTrajectory(
            "adjusted",
            results["adjusted"].times[:-1],
            results["adjusted"].means[:-1],
            results["adjusted"].covs[:-1],
        )
        with pytest.raises(UsageError):
            diff_report({"simulate": results["simulate"], "adjusted": short})
        # far from 0 a relative tolerance would pair these grids
        late = [1000.0, 1001.0]
        simulated = qm.MomentTrajectory(
            "simulate", late, np.zeros((2, 1)), np.zeros((2, 1, 1)), count=10
        )
        shifted = qm.MomentTrajectory(
            "adjusted", np.add(late, 0.005), np.zeros((2, 1)), np.zeros((2, 1, 1))
        )
        with pytest.raises(UsageError):
            diff_report({"simulate": simulated, "adjusted": shifted})

    def test_dimension_mismatch_rejected(self):
        times = [0.0, 1.0]
        simulated = qm.MomentTrajectory(
            "simulate", times, np.zeros((2, 2)), np.zeros((2, 2, 2)), count=10
        )
        for d in (1, 3):
            other = qm.MomentTrajectory("adjusted", times, np.ones((2, d)), np.ones((2, d, d)))
            with pytest.raises(UsageError, match="dimension"):
                diff_report({"simulate": simulated, "adjusted": other})

    def test_row_count_covers_all_statistics(self, tmp_path):
        results = self._results(tmp_path)
        report = diff_report(results)
        # 2 methods x 5 grid points x (2 means + 3 covariance entries)
        assert len(report) == 2 * 5 * 5

    def test_report_resolves_two_digit_covariance_names(self, tmp_path):
        """With d = 11, cov_010 is entry (0, 10), not (0, 1)."""
        d, times = 11, np.array([0.0, 1.0])
        upper = np.add.outer(100.0 * np.arange(d), np.arange(d))
        covs = np.triu(upper) + np.triu(upper, 1).T
        adjusted = qm.MomentTrajectory(
            "adjusted", times, np.ones((2, d)), np.stack([covs, 2 * covs])
        )
        simulated = qm.MomentTrajectory(
            "simulate", times, np.zeros((2, d)), np.zeros((2, d, d)), count=10
        )
        qm.write_long_csv([adjusted, simulated], tmp_path / "combined.csv")
        back = {r.method: r for r in read_long_csv(tmp_path / "combined.csv")}
        assert results_equal(back["adjusted"], adjusted)
        assert results_equal(back["simulate"], simulated)

        assert main(["report", "--in", str(tmp_path)]) == 0
        with open(tmp_path / "diff_report.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        expected = []
        for scale in (1.0, 2.0):
            expected += [1.0] * d
            expected += [scale * covs[i, j] for i in range(d) for j in range(i, d)]
        assert [float(row["difference"]) for row in rows] == expected
        first = {row["stat"]: float(row["difference"]) for row in rows if row["t"] == "0.0"}
        assert first["cov_010"] == 10.0 and first["cov_110"] == 110.0


def _fuzz_base_document() -> dict:
    """Two-class model touching every kernel variant, short horizon."""
    n = qm.TimeSchedule.constant(4.0)
    rate = qm.TimeSchedule.alternating(1.0, 2.0, 1.0, 2.0)
    kernels = [
        qm.Constant(),
        qm.Linear((0.5, 0.0)),
        qm.MinThreshold(0, n),
        qm.PositivePart(1, n),
        qm.MinPair(0, 1),
        qm.CappedResidual(1, 0, n),
    ]
    jumps = [(1, 1), (-1, 0), (-1, 0), (0, -1), (1, -1), (0, -1)]
    model = qm.NetworkModel(
        2,
        tuple(qm.Transition(j, qm.RateTerm(rate, k)) for j, k in zip(jumps, kernels)),
        (2, 1),
        2.0,
    )
    return qm.model_to_dict(model)


def _paths(node, prefix=()):
    """Every position in a JSON document, the root included."""
    yield prefix
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield from _paths(child, prefix + (key,))


_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(-10.0, 10.0),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), "abc", "", [], {}, ["x"], [0.5]]),
)


@settings(max_examples=40)
@given(data=st.data())
def test_mutated_model_documents_exit_cleanly(tmp_path_factory, data):
    """Wrong types or values anywhere in a model document give exit 0, 2 or 3."""
    doc = _fuzz_base_document()
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(doc))[1:]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(data.draw(_JUNK))
    base = tmp_path_factory.mktemp("fuzz")
    model_path = base / "model.json"
    model_path.write_text(json.dumps(doc))
    code = main(
        ["run", "--model", str(model_path), "--methods", "fluid", "--dt", "0.1",
         "--out", str(base / "out")]
    )
    assert code in (0, 2, 3)


@pytest.mark.parametrize(
    "path, value",
    [
        (("transitions", 0, "coefficient", "values"), ["abc"]),
        (("transitions", 0, "jump"), ["x"]),
        (("horizon",), float("inf")),
        (("dimension",), -1),
    ],
)
def test_wrongly_typed_documents_exit_2(tmp_path, path, value):
    doc = _fuzz_base_document()
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(doc))
    code = main(
        ["run", "--model", str(model_path), "--methods", "fluid", "--out", str(tmp_path / "o")]
    )
    assert code == 2


def _preset7_document():
    params, horizon, _ = qm.retrial_preset(7)
    return qm.model_to_dict(qm.build_retrial(params, horizon))


@pytest.mark.parametrize(
    "path, value, named",
    [
        (("transitions", 0, "jump"), [1.5, 0], "transition 0: jump"),
        (("transitions", 0, "jump"), [True, 0], "transition 0: jump"),
        (("initial_state",), [2.7, 0], "initial_state"),
        (("transitions", 2, "kernel", "indices"), [0.9], "transition 2: kernel indices"),
        (("dimension",), 2.5, "dimension"),
    ],
    ids=["jump", "jump-bool", "initial_state", "indices", "dimension"],
)
def test_non_integral_document_fields_exit_2(tmp_path, capsys, path, value, named):
    """Integer fields are not truncated: 1.5, 2.7, 0.9 or true is an error."""
    doc = _preset7_document()
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(doc))
    code = main(
        ["run", "--model", str(model_path), "--methods", "fluid", "--out", str(tmp_path / "o")]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert named in err and "is not an integer" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "path, value, named",
    [
        (("horizon",), True, "horizon"),
        (("horizon",), "20", "horizon"),
        (("transitions", 0, "coefficient", "values"), [True] * 10,
         "transition 0: coefficient values"),
        (("transitions", 0, "coefficient", "breakpoints"), [False] + list(range(2, 20, 2)),
         "transition 0: coefficient breakpoints"),
        (("transitions", 0, "coefficient", "end"), "20", "transition 0: coefficient end"),
        (("transitions", 1, "kernel", "weights"), [False, "1"], "transition 1: kernel weights"),
        (("transitions", 2, "kernel", "threshold", "values"), [True],
         "transition 2: kernel threshold values"),
    ],
    ids=["horizon-bool", "horizon-text", "values-bool", "breakpoints-bool", "end-text",
         "weights", "threshold-bool"],
)
def test_non_numeric_document_fields_exit_2(tmp_path, capsys, path, value, named):
    """Real fields are not converted: true or "1" is an error, not 1.0."""
    doc = _preset7_document()
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(doc))
    code = main(
        ["run", "--model", str(model_path), "--methods", "fluid", "--out", str(tmp_path / "o")]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert f"{named}: " in err and "is not a number" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "key, bad",
    [("dt", True), ("dt", "0.1"), ("grid", [True, 7]), ("grid", [6, "7"])],
    ids=["dt-bool", "dt-text", "grid-bool", "grid-text"],
)
def test_non_numeric_config_fields_exit_2(tmp_path, capsys, key, bad):
    """A config file's ``dt`` and list ``grid`` are read as numbers or rejected."""
    out = tmp_path / "o"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"preset": 1, "methods": ["fluid"], "out": str(out), key: bad}))
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{key}: " in err and "is not a number" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, bad, whole",
    [
        ("preset", 7.9, 7.0),
        ("reps", 2.5, 2.0),
        ("seed", 1.5, 1.0),
        ("caps", [30.7, 20], [30.0, 20]),
    ],
    ids=["preset", "reps", "seed", "caps"],
)
def test_non_integral_config_fields_exit_2(tmp_path, capsys, key, bad, whole):
    """Config-file integers are not truncated: 7.9 is an error, 7.0 loads as 7."""
    out = tmp_path / "o"
    base = {"preset": 1, "methods": ["fluid"], "out": str(out), "caps": [30, 20]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**base, key: whole}))
    cfg = parse_config(build_parser().parse_args(["run", "--config", str(path)]))
    expected = tuple(map(int, whole)) if key == "caps" else int(whole)
    assert repr(getattr(cfg, key)) == repr(expected)
    path.write_text(json.dumps({**base, key: bad}))
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{key}: " in err and "is not an integer" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "caps, named",
    [("12.7,12", "caps: 12.7 is not an integer"), ("true,12", "caps: True is not an integer"),
     ("a,b", "caps: 'a,b' is not a comma list of integers")],
    ids=["fraction", "boolean", "text"],
)
def test_non_integral_caps_flag_exits_2_naming_caps(tmp_path, capsys, caps, named):
    """The --caps string reads each part as the config list does: 12.7 is an
    error, never truncated, and 12.0 reads as 12."""
    out = tmp_path / "o"
    argv = ["run", "--preset", "1", "--methods", "exact", "--out", str(out), "--caps"]
    assert parse_config(build_parser().parse_args([*argv, "12.0,12"])).caps == (12, 12)
    assert main([*argv, caps]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "methods", [[1], ["fluid", None], [["fluid"]]], ids=["int", "null", "list"]
)
def test_non_string_methods_exit_2(tmp_path, capsys, methods):
    """A config file's ``methods`` holds method names; anything else is named."""
    out = tmp_path / "o"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"methods": methods, "preset": 7, "out": str(out)}))
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "methods: unknown method" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("raw", ["0", "-3", "2.5"])
def test_bad_worker_count_exits_2(tmp_path, capsys, monkeypatch, raw):
    """``QMOMENTS_WORKERS`` below 1 is an error, not a silent single worker."""
    monkeypatch.setenv("QMOMENTS_WORKERS", raw)
    out = tmp_path / "o"
    assert main(["run", "--preset", "1", "--methods", "fluid", "--out", str(out)]) == 2
    assert "QMOMENTS_WORKERS" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "methods, dt",
    [("simulate", "-1"), ("simulate", "nan"), ("simulate,fluid", "0")],
    ids=["simulate-negative", "simulate-nan", "simulate-then-fluid-zero"],
)
def test_bad_dt_exits_2_before_any_method_runs(tmp_path, capsys, monkeypatch, methods, dt):
    """``dt`` is checked with the arguments, though no method reads it."""
    monkeypatch.setattr("qmoments.cli.simulate_ensemble", None)  # a method run would raise
    out = tmp_path / "o"
    argv = ["run", "--preset", "1", "--methods", methods, "--reps", "2", "--dt", dt]
    assert main([*argv, "--out", str(out)]) == 2
    assert "dt must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


# sample grids that every method must reject with exit 2
BAD_GRIDS = {
    "nan": [6, float("nan")],
    "repeat": [6, 6, 7],
    "negative": [-1e-10, 1],
    "near-repeat": [1, 1 + 1e-12],
}


@pytest.mark.parametrize(
    "argv, config",
    [
        (["--grid", "nan:10:1"], None),
        (["--grid", "0:inf:1"], None),
        (["--grid", "0:1e12:1"], None),
        (["--grid", "6:15"], None),
        (["--dt", "nan"], None),
        (["--dt", "inf"], None),
        (["--methods", "exact", "--caps", "a,b"], None),
        (["--methods", "exact", "--caps", "4294967295,4294967295"], None),
        (["--methods", "exact", "--caps", "9223372036854775807,1"], None),
        (["--methods", "exact", "--caps", "5"], None),
        (["--seed", "-1"], None),
        (["--seed", str(2**64)], None),
        ([], "{not json"),
        ([], json.dumps({"reps": "abc"})),
        ([], json.dumps({"dt": [0.1]})),
        ([], json.dumps(["fluid"])),
        ([], json.dumps({"grid": []})),
        *[
            (["--methods", m, "--reps", "2", "--caps", "130,60"], json.dumps({"grid": g}))
            for g in BAD_GRIDS.values()
            for m in METHOD_ORDER
        ],
    ],
    ids=[
        "grid-nan", "grid-inf", "grid-huge", "grid-two-fields", "dt-nan", "dt-inf", "caps-text",
        "caps-product-wraps", "caps-int64-max", "caps-one-for-two-dimensions",
        "seed-negative", "seed-2**64",
        "config-not-json", "config-reps-text", "config-dt-list", "config-not-object",
        "config-grid-empty",
        *[f"config-grid-{name}-{m}" for name in BAD_GRIDS for m in METHOD_ORDER],
    ],
)
def test_bad_run_arguments_exit_2(tmp_path, argv, config):
    base = ["run", "--preset", "1", "--methods", "fluid", "--out", str(tmp_path / "o")]
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(config)
        base += ["--config", str(path)]
    assert main([*base, *argv]) == 2


@pytest.mark.parametrize(
    "config, message",
    [
        ({"methods": 5}, "invalid configuration: "),
        ({"methods": "fluid"}, "missing required field: out"),
    ],
    ids=["methods-number", "out-missing"],
)
def test_config_file_alone_is_checked(tmp_path, capsys, config, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"preset": 1, **config}))
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: " + message)


def test_dt_is_accepted_but_changes_no_flow_csv(tmp_path):
    """Every method steps from stop to stop, so a ``dt`` from the command line
    or a config file is checked and then dropped: ``--dt 1e-300`` (once too
    many steps to allocate), ``--dt 1`` and a config file's ``"dt": 0.5`` write
    the bytes of a run without one, ``run.json`` included."""
    config = {"preset": 7, "methods": "fluid,adjusted,measure-zero,exact", "grid": "6:15:1",
              "caps": "130,60"}
    plain, with_dt = tmp_path / "plain.json", tmp_path / "with_dt.json"
    plain.write_text(json.dumps(config))
    with_dt.write_text(json.dumps({**config, "dt": 0.5}))
    runs = {
        "none": ["--config", str(plain)],
        "tiny": ["--config", str(plain), "--dt", "1e-300"],
        "one": ["--config", str(plain), "--dt", "1"],
        "config": ["--config", str(with_dt)],
    }
    written = {}
    for name, argv in runs.items():
        out = tmp_path / name
        assert main(["run", *argv, "--out", str(out)]) == 0
        written[name] = {f.name: f.read_bytes() for f in out.iterdir()}
    assert "dt" not in json.loads(written["none"]["run.json"])
    assert {"exact.csv", "measure-zero.csv", "run.json"} <= set(written["none"])
    for name in runs:
        assert written[name] == written["none"], name


def _run_dir(base):
    """A run directory that ``report`` accepts: ``combined.csv`` and ``run.json``."""
    times = np.arange(3.0)
    adjusted = qm.MomentTrajectory("adjusted", times, np.ones((3, 2)), np.ones((3, 2, 2)))
    simulated = qm.MomentTrajectory(
        "simulate", times, np.zeros((3, 2)), np.zeros((3, 2, 2)), count=10
    )
    qm.write_long_csv([adjusted, simulated], base / "combined.csv")
    (base / "run.json").write_text(json.dumps({"preset": 1}))
    return base


def _truncate(run_dir):
    combined = run_dir / "combined.csv"
    combined.write_text(combined.read_text()[:-10])


def _bad_value(run_dir):
    combined = run_dir / "combined.csv"
    lines = combined.read_text().splitlines(keepends=True)
    t, method, stat, _, count = lines[3].rstrip("\n").split(",")
    lines[3] = ",".join([t, method, stat, "abc", count]) + "\n"
    combined.write_text("".join(lines))


def _manifest_not_json(run_dir):
    (run_dir / "run.json").write_text("{not json")


@pytest.mark.parametrize(
    "corrupt",
    [_truncate, _bad_value, _manifest_not_json],
    ids=["csv-truncated", "csv-value-not-numeric", "manifest-not-json"],
)
def test_malformed_run_directory_exits_2(tmp_path, capsys, corrupt):
    _run_dir(tmp_path)
    assert main(["report", "--in", str(tmp_path)]) == 0
    corrupt(tmp_path)
    capsys.readouterr()
    assert main(["report", "--in", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


MISSING = object()


def _place(path, content):
    """``content`` at ``path``: text, bytes, a directory for ``None`` or
    nothing for ``MISSING``, in place of what was there."""
    path.unlink(missing_ok=True)
    if content is None:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not MISSING:
        path.write_text(content)
    return str(path)


# name: (file replaced, its content, expected error text)
UNREADABLE_INPUTS = {
    "model-not-json": ("model.json", "{not json", "malformed model document"),
    "model-not-utf8": ("model.json", b'{"dimension": "\xff"}', "malformed model document"),
    "model-directory": ("model.json", None, "cannot read model document"),
    "model-list": ("model.json", "[]", "malformed model document"),
    "config-directory": ("cfg.json", None, "cannot read config file"),
    "config-not-json": ("cfg.json", "{not json", "malformed config file"),
    "manifest-directory": ("run.json", None, "cannot read run manifest"),
    "manifest-list": ("run.json", "[1]", "malformed run manifest"),
    "combined-directory": ("combined.csv", None, "cannot read results CSV"),
    "combined-missing": ("combined.csv", MISSING, "cannot read results CSV"),
    "out-under-a-file": ("blocker", "", "out: cannot create"),
    "method-csv-directory": ("fluid.csv", None, "cannot write"),
    "diff-report-directory": ("diff_report.csv", None, "cannot write"),
}


def _unreadable_argv(tmp_path, name):
    filename, content, _ = UNREADABLE_INPUTS[name]
    path = _place(_run_dir(tmp_path) / filename, content)
    run = ["run", "--methods", "fluid", "--out", str(tmp_path / "o")]
    if filename == "model.json":
        return [*run, "--model", path]
    if filename == "cfg.json":
        return [*run, "--preset", "1", "--config", path]
    if filename == "blocker":
        return ["run", "--methods", "fluid", "--preset", "1", "--out", os.path.join(path, "o")]
    if filename == "fluid.csv":
        return ["run", "--methods", "fluid", "--preset", "1", "--out", str(tmp_path)]
    return ["report", "--in", str(tmp_path)]


@pytest.mark.parametrize("name", UNREADABLE_INPUTS)
def test_unreadable_inputs_exit_2_from_the_entry_point(tmp_path, name):
    """``python -m qmoments.cli`` on a file it cannot read or write: exit 2
    with one ``error:`` line naming the file, and no traceback."""
    path = [str(Path(qm.__file__).parent.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run(
        [sys.executable, "-m", "qmoments.cli", *_unreadable_argv(tmp_path, name)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert UNREADABLE_INPUTS[name][2] in proc.stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("under", [False, True], ids=["out-is-a-file", "out-under-a-file"])
def test_unusable_out_exits_2_before_any_method_runs(tmp_path, capsys, monkeypatch, under):
    monkeypatch.setattr("qmoments.cli.solve", None)  # a method run would raise TypeError
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker / "o" if under else blocker
    assert main(["run", "--preset", "1", "--methods", "fluid", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: out: cannot create {out}: ")


def test_report_on_mismatched_dimensions_exits_2(tmp_path, capsys):
    times = np.arange(3.0)
    adjusted = qm.MomentTrajectory("adjusted", times, np.ones((3, 1)), np.ones((3, 1, 1)))
    simulated = qm.MomentTrajectory(
        "simulate", times, np.zeros((3, 2)), np.zeros((3, 2, 2)), count=10
    )
    qm.write_long_csv([adjusted, simulated], tmp_path / "combined.csv")
    assert main(["report", "--in", str(tmp_path)]) == 2
    assert "dimension" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config",
    [{"model": 5}, {"preset": 1, "out": 5}],
    ids=["model-number", "out-number"],
)
def test_config_paths_must_be_strings(tmp_path, monkeypatch, config):
    """Rejected before any method runs: ``open(5)`` would read file descriptor 5."""
    monkeypatch.setattr("qmoments.cli.solve", None)  # a method run would raise TypeError
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"methods": "fluid", "out": str(tmp_path / "o"), **config}))
    assert main(["run", "--config", str(path)]) == 2


def test_solver_warnings_reach_the_manifest(tmp_path, monkeypatch):
    def warned_solve(model, cfg):
        grid = cfg.grid
        zeros = np.zeros((len(grid), model.dimension))
        covs = np.zeros((len(grid), model.dimension, model.dimension))
        return qm.MomentTrajectory(
            cfg.method, grid, zeros, covs, ["covariance poorly conditioned at t=2"]
        )

    monkeypatch.setattr("qmoments.cli.solve", warned_solve)
    out = tmp_path / "run"
    code = main(
        ["run", "--model", tiny_model_file(tmp_path), "--methods", "measure-zero,simulate",
         "--reps", "2", "--grid", "0:4:1", "--out", str(out)]
    )
    assert code == 0
    manifest = json.loads((out / "run.json").read_text())
    assert manifest["warnings"] == {"measure-zero": ["covariance poorly conditioned at t=2"]}
