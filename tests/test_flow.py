"""The switched-affine flow of fluid and measure-zero (``qmoments.solvers``):
against an adaptive integrator and a closed form, its repeatability, and the
kink crossings it records."""

import json
from dataclasses import replace

import numpy as np
import pytest

import qmoments as qm
from helpers import tiny_retrial_model, variant_models
from oracles import ivp_moments
from qmoments import (
    Constant,
    Linear,
    MinThreshold,
    NetworkModel,
    NumericalError,
    RateTerm,
    SolverConfig,
    TimeSchedule,
    Transition,
)
from qmoments.cli import main
from qmoments.solvers import CROSSING_CAP, FLOW_METHODS


def drained_model():
    """x0 runs below zero at t = 2.5, so the rate x0 turns negative there and
    leaves the diffusion; x1 follows, and its rate turns negative later."""
    c = TimeSchedule.constant
    return NetworkModel(
        2,
        (
            Transition((1, 0), RateTerm(c(1.0), Constant())),
            Transition((-1, 0), RateTerm(c(3.0), Constant())),
            Transition((0, 1), RateTerm(c(1.0), Linear((1.0, 0.0)))),
            Transition((0, -1), RateTerm(c(0.5), Linear((0.0, 1.0)))),
        ),
        (5, 0),
        6.0,
    )


def circling_model(omega=50.0, k=100.0):
    """The path circles (k, k) with period 2 pi / omega and crosses the kink
    x0 = k of the last transition twice a period."""
    c = TimeSchedule.constant
    return NetworkModel(
        2,
        (
            Transition((1, 0), RateTerm(c(omega), Linear((0.0, 1.0)))),
            Transition((-1, 0), RateTerm(c(omega * k), Constant())),
            Transition((0, 1), RateTerm(c(omega * k), Constant())),
            Transition((0, -1), RateTerm(c(omega), Linear((1.0, 0.0)))),
            Transition((0, 1), RateTerm(c(1e-3), MinThreshold(0, c(k)))),
        ),
        (int(k) + 10, int(k)),
        10.0,
    )


ORACLE_CASES = [
    *(
        (f"preset{i}", qm.build_retrial(*qm.retrial_preset(i)[:2]), np.arange(6.0, 16.0))
        for i in range(1, 11)
    ),
    ("priority", qm.build_priority(*qm.reference_priority_params()), np.arange(4.0, 21.0)),
    ("peer", qm.build_peer(*qm.reference_peer_params()), np.arange(0.5, 8.25, 0.5)),
    ("tiny", tiny_retrial_model(), np.arange(1.0, 11.0)),
    ("drained", drained_model(), np.arange(1.0, 7.0)),
    ("all-variants", variant_models()[-1], np.arange(0.5, 4.25, 0.5)),
]


@pytest.mark.parametrize(
    "model, grid", [case[1:] for case in ORACLE_CASES], ids=[case[0] for case in ORACLE_CASES]
)
def test_flow_matches_adaptive_oracle(model, grid):
    """Within 1e-10 of the largest |mean| or |cov| of DOP853 at
    rtol = atol = 1e-12 with terminal events at every switching surface."""
    means, covs = ivp_moments(model, grid)
    cfg = SolverConfig(grid=grid)
    fluid = qm.solve(model, replace(cfg, method="fluid"))
    measure_zero = qm.solve(model, replace(cfg, method="measure-zero"))
    for got, want in ((fluid.means, means), (measure_zero.means, means), (measure_zero.covs, covs)):
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
    assert np.all(fluid.covs == 0.0)


def test_mminf_closed_form():
    """Mean and variance of M/M/inf from empty are both (lam/mu)(1 - exp(-mu t))."""
    lam, mu = 7.0, 1.3
    model = NetworkModel(
        1,
        (
            Transition((1,), RateTerm(TimeSchedule.constant(lam), Constant())),
            Transition((-1,), RateTerm(TimeSchedule.constant(mu), Linear((1.0,)))),
        ),
        (0,),
        5.0,
    )
    grid = np.linspace(0.0, 5.0, 11)
    expected = lam / mu * (1.0 - np.exp(-mu * grid))
    fluid = qm.solve(model, SolverConfig(method="fluid", grid=grid))
    measure_zero = qm.solve(model, SolverConfig(method="measure-zero", grid=grid))
    for got in (fluid.means[:, 0], measure_zero.means[:, 0], measure_zero.covs[:, 0, 0]):
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("method", FLOW_METHODS)
def test_repeated_solves_are_bitwise_equal(method):
    model = qm.build_priority(*qm.reference_priority_params())
    cfg = SolverConfig(method=method, grid=np.arange(4.0, 21.0))
    first, second = qm.solve(model, cfg), qm.solve(model, cfg)
    assert qm.results_equal(first, second)
    assert first.crossings == second.crossings


def test_crossings_lie_on_their_surfaces():
    """Preset 7 crosses x0 = 50 (service and both abandonment kinks) and
    nothing else; a grid at the recorded times finds the path on the kink."""
    model = qm.build_retrial(*qm.retrial_preset(7)[:2])
    cfg = SolverConfig(grid=np.arange(6.0, 16.0))
    fluid = qm.solve(model, replace(cfg, method="fluid"))
    assert fluid.crossings == qm.solve(model, replace(cfg, method="measure-zero")).crossings
    times = [t for t, _, _ in fluid.crossings]
    assert times == sorted(times) and times[-1] < 15.0
    assert {(i, surface) for _, i, surface in fluid.crossings} == {
        (2, "x0 = 50"), (3, "x0 = 50"), (4, "x0 = 50")
    }
    at = qm.solve(model, SolverConfig(method="fluid", grid=np.array(sorted(set(times)))))
    np.testing.assert_allclose(at.means[:, 0], 50.0, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize(
    "model, grid", [case[1:] for case in ORACLE_CASES[:12]], ids=[c[0] for c in ORACLE_CASES[:12]]
)
def test_crossing_list_does_not_depend_on_dt(model, grid):
    """A positive part's rate = 0 lies on its own kink x_j = n; the two once
    raced, so the list depended on which root came out first by rounding."""
    lists = [qm.solve(model, SolverConfig(method="fluid", dt=dt, grid=grid)).crossings
             for dt in (0.01, 0.1, 1.0, 0.001)]
    for crossings in lists[1:]:
        assert [c[1:] for c in crossings] == [c[1:] for c in lists[0]]
        np.testing.assert_allclose([c[0] for c in crossings], [c[0] for c in lists[0]],
                                   rtol=0.0, atol=1e-11)


def test_circling_path_crosses_twice_a_period():
    """x0 - 100 is about 10 cos(50 t): 32 zeros before t = 2."""
    out = qm.solve(circling_model(), SolverConfig(method="fluid", grid=np.array([2.0])))
    assert len(out.crossings) == 32
    assert {(i, surface) for _, i, surface in out.crossings} == {(4, "x0 = 100")}
    zeros = (np.pi / 2 + np.pi * np.arange(32)) / 50.0
    np.testing.assert_allclose([t for t, _, _ in out.crossings], zeros, atol=1e-4)


@pytest.mark.parametrize("method", FLOW_METHODS)
def test_crossing_cap_raises_numerical_error(method):
    """About 16 crossings per time unit pass the cap before t = 10; the
    error names the time and the state."""
    with pytest.raises(NumericalError, match=rf"more than {CROSSING_CAP} times") as err:
        qm.solve(circling_model(), SolverConfig(method=method, grid=np.array([10.0])))
    assert "at t=6.3" in str(err.value) and "x=[100.0" in str(err.value)


def test_run_json_lists_crossings_and_cap_exits_3(tmp_path):
    out = tmp_path / "run"
    argv = ["run", "--preset", "7", "--methods", "fluid,adjusted,measure-zero", "--grid", "6:8:1"]
    assert main([*argv, "--out", str(out)]) == 0
    crossings = json.loads((out / "run.json").read_text())["crossings"]
    assert set(crossings) == {"fluid", "measure-zero"}
    assert crossings["fluid"] == crossings["measure-zero"]
    assert crossings["fluid"] and all(
        isinstance(t, float) and i in (2, 3, 4) and surface == "x0 = 50"
        for t, i, surface in crossings["fluid"]
    )

    path = tmp_path / "circling.json"
    qm.save_model(circling_model(), path)
    argv = ["run", "--model", str(path), "--methods", "fluid", "--grid", "0:10:1"]
    assert main([*argv, "--out", str(tmp_path / "capped")]) == 3
    manifest = json.loads((tmp_path / "capped" / "run.json").read_text())
    assert f"more than {CROSSING_CAP} times" in manifest["errors"]["fluid"]
