import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qmoments as qm
import qmoments.kolmogorov as kolmogorov
import qmoments.simulate as simulate
import qmoments.solvers as solvers
from qmoments import (
    CappedResidual,
    Constant,
    Linear,
    MinPair,
    MinThreshold,
    NetworkModel,
    PositivePart,
    RateTerm,
    TimeSchedule,
    Transition,
    UsageError,
)
from qmoments.model import (
    CAPPED,
    GRID_TOL,
    MIN_THRESHOLD,
    checked_grid,
    compile_segments,
    kernel_values,
    plan_steps,
)
from helpers import variant_models
from oracles import eval_rate, kernel_value


def mminf_model(lam=2.0, mu=1.0, horizon=2.0):
    return NetworkModel(
        1,
        (
            Transition((1,), RateTerm(TimeSchedule.constant(lam), Constant())),
            Transition((-1,), RateTerm(TimeSchedule.constant(mu), Linear((1.0,)))),
        ),
        (0,),
        horizon,
    )


class TestEvalRate:
    def test_min_threshold_saturates(self):
        model = NetworkModel(
            2,
            (
                Transition(
                    (-1, 0),
                    RateTerm(
                        TimeSchedule.constant(1.0),
                        MinThreshold(0, TimeSchedule.constant(50)),
                    ),
                ),
            ),
            (0, 0),
            10.0,
        )
        assert eval_rate(model, 0, 0.0, (60.0, 7.0)) == 50.0

    def test_positive_part(self):
        model = NetworkModel(
            2,
            (
                Transition(
                    (-1, 1),
                    RateTerm(
                        TimeSchedule.constant(1.0),
                        PositivePart(0, TimeSchedule.constant(50)),
                    ),
                ),
            ),
            (0, 0),
            10.0,
        )
        assert eval_rate(model, 0, 0.0, (60.0, 7.0)) == 10.0

    def test_capped_residual_exhausted(self):
        model = NetworkModel(
            2,
            (
                Transition(
                    (0, -1),
                    RateTerm(
                        TimeSchedule.constant(1.0),
                        CappedResidual(1, 0, TimeSchedule.constant(200)),
                    ),
                ),
            ),
            (0, 0),
            10.0,
        )
        assert eval_rate(model, 0, 0.0, (220.0, 30.0)) == 0.0

    def test_index_out_of_range(self):
        with pytest.raises(UsageError):
            eval_rate(mminf_model(), 2, 0.0, (0.0,))


class TestDrift:
    def test_empty_system(self):
        assert qm.drift(mminf_model(), 0.0, (0.0,)) == pytest.approx([2.0])

    def test_retrial_boundary_point(self):
        """At x = (servers, 0) the overflow terms vanish."""
        params, horizon, _ = qm.retrial_preset(7)
        model = qm.build_retrial(params, horizon)
        n = params.servers.value_at(0.0)
        lam = params.arrival.value_at(0.0)
        mu1 = params.service.value_at(0.0)
        out = qm.drift(model, 0.0, (n, 0.0))
        assert out[0] == pytest.approx(lam - mu1 * n)

    def test_preset_7_empty_start(self):
        params, horizon, _ = qm.retrial_preset(7)
        model = qm.build_retrial(params, horizon)
        np.testing.assert_allclose(qm.drift(model, 0.0, (0.0, 0.0)), [45.0, 0.0])

    def test_matches_independent_recomputation(self):
        """Drift equals the jump-weighted rate sum recomputed by hand."""
        params, horizon, _ = qm.retrial_preset(1)
        model = qm.build_retrial(params, horizon)
        rng = np.random.default_rng(7)
        for _ in range(25):
            t = rng.uniform(0, horizon)
            x = rng.uniform(0, 120, size=2)
            expected = np.zeros(2)
            for i, tr in enumerate(model.transitions):
                expected += np.asarray(tr.jump) * eval_rate(model, i, t, x)
            np.testing.assert_allclose(qm.drift(model, t, x), expected, rtol=1e-12)


@st.composite
def plans(draw):
    """A one-transition model with random breakpoints, a sample grid that
    may sit within ``GRID_TOL`` of a breakpoint or the horizon, and a ``dt``."""
    horizon = draw(st.floats(0.5, 20.0))
    fractions = draw(st.lists(st.floats(0.01, 0.99), max_size=6, unique=True))
    breakpoints = sorted({f * horizon for f in fractions})
    near = st.sampled_from([0.0, *breakpoints, horizon])
    nudge = st.floats(-2 * GRID_TOL, 2 * GRID_TOL)
    times = draw(st.lists(st.floats(0.0, horizon) | st.builds(float.__add__, near, nudge),
                          min_size=1, max_size=12))
    grid = []
    for t in sorted(min(max(t, 0.0), horizon + GRID_TOL) for t in times):
        if not grid or t - grid[-1] > GRID_TOL:
            grid.append(t)
    coefficient = TimeSchedule((0.0, *breakpoints), tuple(range(1, len(breakpoints) + 2)))
    model = NetworkModel(1, (Transition((1,), RateTerm(coefficient, Constant())),), (0,), horizon)
    dt = draw(st.floats(0.01, 3.0) | st.just(math.inf))
    return model, breakpoints, checked_grid(model, grid), dt


class TestCompiledPlan:
    @given(plans())
    def test_plan_steps_stop_at_every_breakpoint_and_sample(self, plan):
        model, breakpoints, grid, dt = plan
        steps = plan_steps(model, grid, dt)
        segments = compile_segments(model)
        assert steps[0][0] == 0.0
        for (_, t1, _, _), (t0, _, _, _) in zip(steps, steps[1:]):
            assert t1 == t0  # contiguous
        for t0, t1, seg, _ in steps:
            assert t1 - t0 <= dt * (1 + 1e-12)
            assert not any(t0 + GRID_TOL < b < t1 for b in breakpoints)
            mid = 0.5 * (t0 + t1)  # the last segment holds past the horizon
            assert segments[seg][0] <= mid and (mid <= segments[seg][1] or seg == len(segments) - 1)
        samples = [(t1, gi) for _, t1, _, gi in steps if gi >= 0]
        assert [gi for _, gi in samples] == list(range(len(grid)))
        assert all(abs(t1 - grid[gi]) <= GRID_TOL for t1, gi in samples)
        assert steps[-1][3] == len(grid) - 1  # the walk ends at the last sample
        if dt == math.inf:  # one step per gap between the merged stops
            stops = [0.0]
            for a in sorted([*breakpoints, model.horizon, *grid]):
                if a - stops[-1] > GRID_TOL:
                    stops.append(a)
            ends = [t1 for t0, t1, _, _ in steps if t1 > t0]
            assert ends == stops[1 : len(ends) + 1]

    def test_leading_step_reports_a_sample_at_zero(self):
        model = mminf_model(horizon=2.0)
        assert plan_steps(model, np.array([0.0, 2.0])) == [(0.0, 0.0, 0, 0), (0.0, 2.0, 0, 1)]
        assert plan_steps(model, np.array([2.0]), 0.5) == [
            (0.0, 0.5, 0, -1), (0.5, 1.0, 0, -1), (1.0, 1.5, 0, -1), (1.5, 2.0, 0, 0)]

    def test_segments_freeze_schedules_at_their_midpoints(self):
        horizon = 7.0
        rate = TimeSchedule.alternating(45.0, 55.0, 2.0, horizon)
        servers = TimeSchedule.alternating(3.0, 5.0, 1.5, horizon)
        model = NetworkModel(
            2,
            (
                Transition((-1, 0), RateTerm(rate, MinThreshold(0, servers))),
                Transition((0, -1), RateTerm(servers, CappedResidual(1, 0, rate))),
            ),
            (0, 0),
            horizon,
        )
        segments = compile_segments(model)
        starts = [0.0, 1.5, 2.0, 3.0, 4.0, 4.5, 6.0]
        assert [seg[0] for seg in segments] == starts
        assert [seg[1] for seg in segments] == starts[1:] + [horizon]
        for a, b, (first, second) in segments:
            mid = 0.5 * (a + b)
            n, r = servers.value_at(mid), rate.value_at(mid)
            assert first == (MIN_THRESHOLD, r, 0, 0, n, None, (-1, 0), ((0, -1),))
            assert second == (CAPPED, n, 1, 0, r, None, (0, -1), ((1, -1),))

    def test_array_kernel_matches_type_dispatched_kernel(self):
        """``kernel_values`` on a (d, N) array of non-integer states equals
        ``kernel_value`` column by column: in every plan segment with that
        segment's scalar threshold, and with per-column thresholds taken from
        different segments (as the simulator's paths hold them).  A linear
        kernel sums in a different order, so it may differ in the last bit."""
        model = variant_models()[-1]  # all six variants, scheduled n(t) and coefficient
        segments = compile_segments(model)
        mids = [0.5 * (a + b) for a, b, _ in segments]
        assert len(segments) > 2
        x = np.random.default_rng(11).uniform(0.0, 6.0, size=(2, 40))
        x[:, :3] = [[4.0, 2.5, 1.25], [2.5, 4.0, 1.25]]  # on the kinks n = 4, 2.5 and x0 = x1
        seg_of = np.arange(x.shape[1]) % len(segments)
        out = np.empty(x.shape[1])
        for i, tr in enumerate(model.transitions):
            rtol = 1e-15 if isinstance(tr.rate.kernel, Linear) else 0.0
            for (_, _, terms), t in zip(segments, mids):
                kernel_values(terms[i], terms[i][4], x, out)
                want = [kernel_value(tr.rate.kernel, t, col) for col in x.T]
                np.testing.assert_allclose(out, want, rtol=rtol, atol=0.0)
            thr = np.array([segments[s][2][i][4] for s in seg_of])
            kernel_values(segments[0][2][i], thr, x, out)
            want = [kernel_value(tr.rate.kernel, mids[s], col) for s, col in zip(seg_of, x.T)]
            np.testing.assert_allclose(out, want, rtol=rtol, atol=0.0)


class TestKernelProperties:
    def test_nonnegative_on_orthant(self):
        rng = np.random.default_rng(13)
        for builder, args in [
            (qm.build_retrial, qm.retrial_preset(3)[:2]),
            (qm.build_priority, qm.reference_priority_params()),
            (qm.build_peer, qm.reference_peer_params()),
        ]:
            model = builder(*args)
            for _ in range(100):
                t = rng.uniform(0, model.horizon)
                x = rng.uniform(0, 300, model.dimension)
                for i in range(model.num_transitions):
                    assert eval_rate(model, i, t, x) >= 0.0


class TestValidation:
    """Every model is checked once, when it is built: an invalid one raises."""

    def test_well_formed_model_is_clean(self):
        params, horizon, _ = qm.retrial_preset(7)
        qm.validate_model(qm.build_retrial(params, horizon))  # returns without raising

    def test_schedule_coverage_gap_is_reported(self):
        short = TimeSchedule((0.0, 2.0), (1.0, 2.0), end=10.0)
        with pytest.raises(UsageError, match="t=10"):
            NetworkModel(1, (Transition((1,), RateTerm(short, Constant())),), (0,), 20.0)

    def test_index_violation_is_reported(self):
        kernel = MinThreshold(1, TimeSchedule.constant(5))
        with pytest.raises(UsageError, match="out of range"):
            NetworkModel(
                1, (Transition((1,), RateTerm(TimeSchedule.constant(1.0), kernel)),), (0,), 1.0
            )

    def test_negative_coefficient_is_reported(self):
        with pytest.raises(UsageError, match="negative coefficient"):
            NetworkModel(
                1,
                (Transition((1,), RateTerm(TimeSchedule.constant(-1.0), Constant())),),
                (0,),
                1.0,
            )

    def test_zero_jump_is_reported(self):
        with pytest.raises(UsageError, match="jump vector is zero"):
            NetworkModel(
                1,
                (Transition((0,), RateTerm(TimeSchedule.constant(1.0), Constant())),),
                (0,),
                1.0,
            )

    def test_every_issue_is_named_in_one_error(self):
        rate = RateTerm(TimeSchedule.constant(-1.0), MinPair(0, 0))
        with pytest.raises(UsageError, match="invalid model: ") as info:
            NetworkModel(1, (Transition((0,), rate),), (-1,), 1.0)
        for fragment in ("initial state must be nonnegative", "jump vector is zero",
                         "negative coefficient", "two distinct components"):
            assert fragment in str(info.value)

    @pytest.mark.parametrize("horizon", [-1.0, 0.0, float("nan"), float("inf")])
    def test_replacing_the_horizon_is_checked(self, horizon):
        with pytest.raises(UsageError, match="horizon must be positive and finite"):
            dataclasses.replace(mminf_model(), horizon=horizon)

    @pytest.mark.parametrize("horizon", [float("nan"), float("inf")])
    def test_invalid_horizon_reports_no_coverage_gap(self, horizon):
        """Preset 7's schedules end at t = 20; against a horizon that is not a
        number no coverage gap is reported, only the horizon."""
        preset = qm.build_retrial(*qm.retrial_preset(7)[:2])
        with pytest.raises(UsageError) as info:
            dataclasses.replace(preset, horizon=horizon)
        message = f"invalid model: horizon must be positive and finite, got {horizon}"
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"jump": (0.5, 1)}, "transition 0: jump entry 0.5 is not an integer"),
            ({"jump": (True, 0)}, "transition 0: jump entry True is not an integer"),
            ({"initial": (1.7, 0)}, "initial state entry 1.7 is not an integer"),
            ({"initial": (0, False)}, "initial state entry False is not an integer"),
            ({"dimension": 2.5}, "dimension must be an integer >= 1, got 2.5"),
            ({"dimension": True}, "dimension must be an integer >= 1, got True"),
            ({"dimension": 0}, "dimension must be an integer >= 1, got 0"),
            ({"kernel": MinThreshold(0.5, TimeSchedule.constant(3))},
             "transition 0: kernel index 0.5 is not an integer"),
            ({"kernel": MinPair(0, True)}, "transition 0: kernel index True is not an integer"),
            ({"transitions": ()}, "model needs at least one transition"),
            ({"kernel": Linear((1.0,))}, "transition 0: linear kernel has 1 weights, expected 2"),
            ({"kernel": Linear((float("inf"), 0.0))},
             "transition 0: linear kernel weights must be finite"),
        ],
        ids=["jump-fraction", "jump-bool", "initial-fraction", "initial-bool",
             "dimension-fraction", "dimension-bool", "dimension-zero", "index-fraction",
             "index-bool", "no-transition", "weights-length", "weights-infinite"],
    )
    def test_construction_names_the_issue_and_truncates_nothing(self, fields, message):
        args = {"dimension": 2, "jump": (1, 0), "kernel": Constant(), "initial": (0, 0), **fields}
        rate = RateTerm(TimeSchedule.constant(1.0), args["kernel"])
        transitions = args.get("transitions", (Transition(args["jump"], rate),))
        with pytest.raises(UsageError, match="^invalid model: .*" + message):
            NetworkModel(args["dimension"], transitions, args["initial"], 1.0)

    def test_whole_numbers_of_any_type_are_read_as_ints(self):
        """``2.0`` and numpy integers are whole numbers: the model stores them
        as ints, and a kernel index compiles to one."""
        rate = TimeSchedule.constant(1.0)
        model = NetworkModel(
            2.0,
            (
                Transition((np.int64(1), 0.0), RateTerm(rate, Constant())),
                Transition((-1, 0), RateTerm(rate, MinThreshold(1.0, TimeSchedule.constant(3)))),
            ),
            (np.int64(2), 1.0),
            2.0,
        )
        assert type(model.dimension) is int
        assert all(type(v) is int for v in (*model.initial_state, *model.transitions[0].jump))
        index = compile_segments(model)[0][2][1][2]
        assert type(index) is int and index == 1
        assert qm.solve(model, qm.SolverConfig(method="fluid", grid=[1.0])).means.shape == (1, 2)

    def test_unknown_kernel_type_is_reported(self):
        @dataclasses.dataclass(frozen=True)
        class Spline:
            index: int = 0

        rate = RateTerm(TimeSchedule.constant(1.0), Spline())
        with pytest.raises(UsageError, match="transition 0: unknown kernel type Spline"):
            NetworkModel(1, (Transition((1,), rate),), (0,), 1.0)

    def test_short_jump_is_reported_before_any_method_reads_it(self):
        """A 1-D jump in a 2-D model once made ``drift`` return ``[1, 0]``."""
        rate = RateTerm(TimeSchedule.constant(1.0), Constant())
        with pytest.raises(UsageError, match="transition 0: jump has length 1, expected 2"):
            NetworkModel(2, (Transition((1,), rate),), (0, 0), 1.0)

    def test_invalid_document_is_an_invalid_model(self):
        doc = qm.model_to_dict(mminf_model())
        doc["transitions"][1]["kernel"]["weights"] = [-1.0]
        with pytest.raises(UsageError, match="^invalid model: transition 1: negative linear"):
            qm.model_from_dict(doc)

    def test_methods_do_not_check_again(self, monkeypatch):
        """The check runs once, in the constructor; no method calls it again."""
        model = mminf_model()

        def refuse(_model):
            raise AssertionError("model checked again")

        for module in (solvers, simulate, kolmogorov):
            monkeypatch.setattr(module, "validate_model", refuse)
        grid = [1.0, 2.0]
        for method in ("fluid", "adjusted", "measure-zero"):
            assert qm.solve(model, qm.SolverConfig(method=method, grid=grid)).means.shape == (2, 1)
        assert qm.simulate_ensemble(model, 4, 0, grid).count == 4
        assert qm.simulate_path(model, qm.RngStream(0), grid).shape == (2, 1)
        assert qm.exact_transient_moments(model, (20,), grid).means.shape == (2, 1)


class TestSerialization:
    def test_round_trip_preserves_model(self, tmp_path):
        params, horizon, _ = qm.retrial_preset(7)
        model = qm.build_retrial(params, horizon)
        path = tmp_path / "model.json"
        qm.save_model(model, path)
        assert qm.load_model(path) == model

    def test_round_trip_all_kernel_variants(self, tmp_path):
        n = TimeSchedule((0.0, 1.0), (3.0, 4.0), end=5.0)
        model = NetworkModel(
            2,
            (
                Transition((1, 0), RateTerm(TimeSchedule.constant(1.0), Constant())),
                Transition((0, 1), RateTerm(TimeSchedule.constant(2.0), Linear((0.5, 0.0)))),
                Transition((-1, 0), RateTerm(TimeSchedule.constant(1.0), MinThreshold(0, n))),
                Transition((-1, 1), RateTerm(TimeSchedule.constant(1.0), PositivePart(0, n))),
                Transition((0, -1), RateTerm(TimeSchedule.constant(1.0), MinPair(0, 1))),
                Transition((0, -1), RateTerm(TimeSchedule.constant(1.0), CappedResidual(1, 0, n))),
            ),
            (1, 2),
            5.0,
        )
        path = tmp_path / "model.json"
        qm.save_model(model, path)
        assert qm.load_model(path) == model

    def test_integral_floats_load(self):
        params, horizon, _ = qm.retrial_preset(7)
        model = qm.build_retrial(params, horizon)
        doc = qm.model_to_dict(model)
        doc["dimension"] = 2.0
        doc["initial_state"] = [0.0, 0]
        doc["transitions"][0]["jump"] = [1.0, 0.0]
        doc["transitions"][2]["kernel"]["indices"] = [0.0]
        assert qm.model_from_dict(doc) == model

    def test_unknown_variant_rejected(self):
        with pytest.raises(UsageError):
            qm.model_from_dict(
                {
                    "dimension": 1,
                    "horizon": 1.0,
                    "initial_state": [0],
                    "transitions": [
                        {
                            "jump": [1],
                            "coefficient": {"breakpoints": [0], "values": [1]},
                            "kernel": {"variant": "spline"},
                        }
                    ],
                }
            )
