import numpy as np
import pytest

import qmoments as qm
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
    MIN_THRESHOLD,
    compile_segments,
    kernel_values,
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


class TestCompiledPlan:
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
    def test_well_formed_model_is_clean(self):
        params, horizon, _ = qm.retrial_preset(7)
        report = qm.validate_model(qm.build_retrial(params, horizon))
        assert report.ok and report.issues == []

    def test_schedule_coverage_gap_is_reported(self):
        short = TimeSchedule((0.0, 2.0), (1.0, 2.0), end=10.0)
        model = NetworkModel(
            1,
            (Transition((1,), RateTerm(short, Constant())),),
            (0,),
            20.0,
        )
        report = qm.validate_model(model)
        assert not report.ok
        assert any("t=10" in issue for issue in report.issues)

    def test_index_violation_is_reported(self):
        model = NetworkModel(
            1,
            (
                Transition(
                    (1,),
                    RateTerm(
                        TimeSchedule.constant(1.0),
                        MinThreshold(1, TimeSchedule.constant(5)),
                    ),
                ),
            ),
            (0,),
            1.0,
        )
        report = qm.validate_model(model)
        assert any("out of range" in issue for issue in report.issues)

    def test_negative_coefficient_is_reported(self):
        model = NetworkModel(
            1,
            (Transition((1,), RateTerm(TimeSchedule.constant(-1.0), Constant())),),
            (0,),
            1.0,
        )
        report = qm.validate_model(model)
        assert any("negative coefficient" in issue for issue in report.issues)

    def test_zero_jump_is_reported(self):
        model = NetworkModel(
            1,
            (Transition((0,), RateTerm(TimeSchedule.constant(1.0), Constant())),),
            (0,),
            1.0,
        )
        assert not qm.validate_model(model).ok


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
