"""The switched-affine flow of fluid and measure-zero (``qmoments.solvers``):
against an adaptive integrator and a closed form, its repeatability, and the
kink crossings it records."""

import json
from dataclasses import replace

import numpy as np
import pytest

import qmoments as qm
import qmoments.solvers as solvers
from helpers import excursion_model, results_equal, tiny_retrial_model, variant_models
from oracles import ivp_moments
from qmoments import (
    Constant,
    Linear,
    MinThreshold,
    NetworkModel,
    NumericalError,
    PositivePart,
    RateTerm,
    SolverConfig,
    TimeSchedule,
    Transition,
)
from qmoments.cli import main
from qmoments.solvers import _SPLITS, CROSSING_CAP, FLOW_METHODS


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


def three_root_model():
    """Below the kink x2 = 20 of the drain (transition 5), x0' = 12,
    x1' = x0 - 40 and x2' = x1 - 40 make x2 - 20 = 2 (t - 1)(t - 2)(t - 3.5).
    So the first step of the one gap [0, 4] ends above the kink with three
    roots inside, where Newton from its regula falsi guess would find the last."""
    c = TimeSchedule.constant
    return NetworkModel(
        3,
        (
            Transition((1, 0, 0), RateTerm(c(12.0), Constant())),
            Transition((0, 1, 0), RateTerm(c(1.0), PositivePart(0, c(0.0)))),
            Transition((0, -1, 0), RateTerm(c(40.0), Constant())),
            Transition((0, 0, 1), RateTerm(c(1.0), PositivePart(1, c(0.0)))),
            Transition((0, 0, -1), RateTerm(c(40.0), Constant())),
            Transition((0, 0, -1), RateTerm(c(1.0), PositivePart(2, c(20.0)))),
        ),
        (14, 65, 6),
        4.0,
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
    ("three-roots", three_root_model(), np.array([4.0])),
    ("excursion", excursion_model(), np.array([0.5, 1.0])),
]
# the presets, priority, peer and the short excursion
CROSSING_CASES = ORACLE_CASES[:12] + ORACLE_CASES[-1:]


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
    assert results_equal(first, second)
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
    "model, grid",
    [case[1:] for case in ORACLE_CASES if case[0] in ("preset7", "priority", "peer", "tiny")],
    ids=["preset7", "priority", "peer", "tiny"],
)
def test_each_crossing_takes_few_exponentials(model, grid, monkeypatch):
    """Newton starts at the root of the cubic Hermite through the step's ends,
    so each crossing takes at most 4 exponentials; from the regula falsi
    guess one crossing on each of these models took 29-34."""
    counts, inside = [], False
    crossing_time, expm = solvers._crossing_time, solvers.expm

    def counted_expm(a):
        if inside:
            counts[-1] += 1
        return expm(a)

    def counted(*args):
        nonlocal inside
        counts.append(0)
        inside = True
        try:
            return crossing_time(*args)
        finally:
            inside = False

    monkeypatch.setattr(solvers, "expm", counted_expm)
    monkeypatch.setattr(solvers, "_crossing_time", counted)
    qm.solve(model, SolverConfig(method="fluid", grid=grid))
    assert counts and max(counts) <= 4, counts


@pytest.mark.parametrize(
    "model, grid", [case[1:] for case in CROSSING_CASES], ids=[c[0] for c in CROSSING_CASES]
)
def test_crossing_list_does_not_depend_on_dt(model, grid):
    """A positive part's rate = 0 lies on its own kink x_j = n; the two once
    raced, so the list depended on which root came out first by rounding,
    and so on how the walk was cut.  A sample time in the middle of every gap
    cuts it differently and leaves the list as it was.  Both flow methods
    walk one path: they record the same list, and their means are bitwise
    equal."""
    fluid, measure_zero = (
        qm.solve(model, SolverConfig(method=method, grid=grid)) for method in FLOW_METHODS
    )
    assert fluid.crossings == measure_zero.crossings
    assert np.array_equal(fluid.means, measure_zero.means)
    mids = (np.concatenate([[0.0], grid[:-1]]) + grid) / 2
    cut = qm.solve(model, SolverConfig(method="fluid", grid=np.union1d(grid, mids)))
    assert [c[1:] for c in cut.crossings] == [c[1:] for c in fluid.crossings]
    np.testing.assert_allclose([c[0] for c in cut.crossings], [c[0] for c in fluid.crossings],
                               rtol=0.0, atol=1e-11)


def test_short_excursion_is_found():
    """x1 stays above 45 for about 1.3e-3 time units, between two recorded
    crossings of its kink that a grid at their times finds x1 on; x2(1) is
    what the excursion left, and measure-zero carries its variance.  A probe
    every 0.01 saw neither crossing and reported x2(1) = 0."""
    cfg = SolverConfig(grid=np.array([0.5, 1.0]))
    fluid = qm.solve(excursion_model(), replace(cfg, method="fluid"))
    measure_zero = qm.solve(excursion_model(), replace(cfg, method="measure-zero"))
    assert fluid.crossings == measure_zero.crossings
    assert [c[1:] for c in fluid.crossings] == [[2, "x1 = 45"], [2, "x1 = 45"]]
    (t_in, *_), (t_out, *_) = fluid.crossings
    assert 0.0 < t_in < t_out < 0.003
    assert fluid.means[-1, 2] == pytest.approx(0.2092157, rel=0.0, abs=5e-8)
    assert measure_zero.means[-1, 2] == fluid.means[-1, 2]
    assert measure_zero.covs[-1, 2, 2] == pytest.approx(0.2623, rel=0.0, abs=5e-5)
    at = qm.solve(excursion_model(), SolverConfig(method="fluid", grid=np.array([t_in, t_out])))
    np.testing.assert_allclose(at.means[:, 1], 45.0, rtol=0.0, atol=1e-8)  # |x1'| is about 1e4


def test_circling_path_crosses_twice_a_period():
    """x0 - 100 is about 10 cos(50 t): 32 zeros before t = 2."""
    out = qm.solve(circling_model(), SolverConfig(method="fluid", grid=np.array([2.0])))
    assert len(out.crossings) == 32
    assert {(i, surface) for _, i, surface in out.crossings} == {(4, "x0 = 100")}
    zeros = (np.pi / 2 + np.pi * np.arange(32)) / 50.0
    np.testing.assert_allclose([t for t, _, _ in out.crossings], zeros, atol=1e-4)


def test_circling_path_records_every_crossing_of_one_long_gap():
    """From t = 0 to the one sample at t = 6 the walk has a single gap, which
    the path crosses x0 = 100 95 times in; each crossing is the first root of
    its step, so none is skipped and the state at t = 6 matches the oracle."""
    model, grid = circling_model(), np.array([6.0])
    out = qm.solve(model, SolverConfig(method="measure-zero", grid=grid))
    zeros = (np.pi / 2 + np.pi * np.arange(95)) / 50.0
    np.testing.assert_allclose([t for t, _, _ in out.crossings], zeros, atol=1e-4)
    means, covs = ivp_moments(model, grid)
    assert np.abs(out.means - means).max() <= 1e-10 * np.abs(means).max()
    assert np.abs(out.covs - covs).max() <= 1e-10 * np.abs(covs).max()


def test_three_roots_in_one_step_cross_at_the_first():
    """A step that ends across a kink counts as one crossing only where s' is
    certified positive over it; the gap of ``three_root_model`` is split, and
    the path leaves the kink at t = 1, returns and leaves again."""
    out = qm.solve(three_root_model(), SolverConfig(method="fluid", grid=np.array([4.0])))
    assert [c[1:] for c in out.crossings] == [[5, "x2 = 20"]] * 3
    assert out.crossings[0][0] == pytest.approx(1.0, rel=0.0, abs=1e-12)


def test_floor_steps_find_a_short_excursion_in_a_long_gap():
    """In one gap of 2**20 a step no longer than gap / 2**_SPLITS = 2**-10
    that the certificate cannot vouch for is not split again: its ends'
    sides decide.  The 1.3e-3 excursion of x1 above its kink is met at that
    scale.  Both crossings are found where the short solve finds them, and
    nothing moves x2 after the excursion: its mean and variance at t = 2**20
    are the oracle's at t = 1."""
    horizon = 2.0 ** (_SPLITS - 10)
    model, grid = replace(excursion_model(), horizon=horizon), np.array([horizon])
    out = qm.solve(model, SolverConfig(method="measure-zero", grid=grid))
    short = qm.solve(excursion_model(), SolverConfig(method="fluid", grid=np.array([1.0])))
    assert [c[1:] for c in out.crossings] == [[2, "x1 = 45"]] * 2
    np.testing.assert_allclose([c[0] for c in out.crossings], [c[0] for c in short.crossings],
                               rtol=0.0, atol=1e-9)
    means, covs = ivp_moments(excursion_model(), [1.0])
    assert out.means[-1, 2] == pytest.approx(means[-1, 2], rel=1e-10)
    assert out.covs[-1, 2, 2] == pytest.approx(covs[-1, 2, 2], rel=1e-10)


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
    manifest = json.loads((out / "run.json").read_text())
    crossings = manifest["crossings"]
    assert set(crossings) == {"fluid", "measure-zero"}
    model = qm.build_retrial(*qm.retrial_preset(7)[:2])
    assert manifest["work"] == {
        method: qm.solve(model, SolverConfig(method=method, grid=np.arange(6.0, 9.0))).work
        for method in ("fluid", "adjusted", "measure-zero")
    }
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
