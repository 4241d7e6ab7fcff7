import dataclasses

import numpy as np
import pytest

import qmoments as qm
from qmoments import TimeSchedule, UsageError
from qmoments.model import MinPair, MinThreshold, PositivePart
from qmoments.systems import PeerParams, PriorityParams, RetrialParams
from oracles import eval_rate


class TestRetrialBuilder:
    def test_preset_7_structure(self):
        params, horizon, grid = qm.retrial_preset(7)
        model = qm.build_retrial(params, horizon)
        assert model.dimension == 2 and model.num_transitions == 5
        jumps = [tr.jump for tr in model.transitions]
        assert jumps == [(1, 0), (1, -1), (-1, 0), (-1, 1), (-1, 0)]
        assert horizon == 20.0
        np.testing.assert_array_equal(grid, np.arange(6.0, 16.0))
        # abandonment split: to-pool coefficient is beta * (1 - p)
        assert model.transitions[3].rate.coefficient.value_at(0.0) == pytest.approx(1.0)
        assert model.transitions[4].rate.coefficient.value_at(0.0) == pytest.approx(1.0)
        assert isinstance(model.transitions[2].rate.kernel, MinThreshold)
        assert isinstance(model.transitions[3].rate.kernel, PositivePart)

    def test_retrial_loop_conserves_customers(self):
        """Pool entry and pool return move one customer between components."""
        params, horizon, _ = qm.retrial_preset(1)
        model = qm.build_retrial(params, horizon)
        assert sum(model.transitions[3].jump) == 0  # abandon to pool
        assert sum(model.transitions[1].jump) == 0  # return from pool

    def test_certain_leavers_disable_pool_entry(self):
        params, horizon, _ = qm.retrial_preset(7)
        params = RetrialParams(
            servers=params.servers,
            arrival=params.arrival,
            service=params.service,
            retrial_rate=params.retrial_rate,
            abandon=params.abandon,
            leave_prob=TimeSchedule.constant(1.0),
        )
        model = qm.build_retrial(params, horizon)
        assert all(v == 0.0 for v in model.transitions[3].rate.coefficient.values)

    def test_probability_range_enforced(self):
        params, horizon, _ = qm.retrial_preset(7)
        bad = RetrialParams(
            servers=params.servers,
            arrival=params.arrival,
            service=params.service,
            retrial_rate=params.retrial_rate,
            abandon=params.abandon,
            leave_prob=TimeSchedule.constant(1.5),
        )
        with pytest.raises(UsageError):
            qm.build_retrial(bad, horizon)


class TestPresets:
    def test_row_9(self):
        params, _, _ = qm.retrial_preset(9)
        assert params.servers.value_at(0.0) == 150.0
        assert params.arrival.value_at(0.0) == 140.0
        assert params.arrival.value_at(2.0) == 160.0
        assert params.service.value_at(5.0) == 1.0
        assert params.abandon.value_at(5.0) == 2.0
        assert params.leave_prob.value_at(5.0) == 0.5

    def test_row_4(self):
        params, _, _ = qm.retrial_preset(4)
        assert params.servers.value_at(0.0) == 100.0
        assert params.arrival.value_at(0.0) == 90.0
        assert params.arrival.value_at(2.0) == 110.0
        assert params.leave_prob.value_at(0.0) == 0.7

    def test_all_rows_build_valid_models(self):
        for preset_id in range(1, 11):
            params, horizon, _ = qm.retrial_preset(preset_id)
            qm.build_retrial(params, horizon)  # raises if the model check fails

    @pytest.mark.parametrize("bad_id", [0, 11, -3])
    def test_out_of_range_ids_rejected(self, bad_id):
        with pytest.raises(UsageError):
            qm.retrial_preset(bad_id)


class TestPriorityBuilder:
    def test_structure(self):
        params, horizon = qm.reference_priority_params()
        model = qm.build_priority(params, horizon)
        assert model.dimension == 2 and model.num_transitions == 4
        assert [tr.jump for tr in model.transitions] == [
            (1, 0),
            (0, 1),
            (-1, 0),
            (0, -1),
        ]
        assert params.arrival_1.value_at(0.0) == 120.0
        assert params.arrival_1.value_at(2.0) == 200.0
        assert params.arrival_2.value_at(9.0) == 20.0

    def test_saturated_pool_starves_class_2(self):
        params, horizon = qm.reference_priority_params()
        model = qm.build_priority(params, horizon)
        n = params.servers.value_at(0.0)
        assert eval_rate(model, 3, 0.0, (n, 5.0)) == 0.0
        assert eval_rate(model, 3, 0.0, (n + 40.0, 5.0)) == 0.0

    def test_no_class_2_arrivals_freezes_component(self):
        params, horizon = qm.reference_priority_params()
        params = PriorityParams(
            servers=params.servers,
            arrival_1=params.arrival_1,
            arrival_2=TimeSchedule.constant(0.0),
            service_1=params.service_1,
            service_2=params.service_2,
            initial_state=(0, 0),
        )
        model = qm.build_priority(params, horizon)
        out = qm.solve(model, qm.SolverConfig(method="fluid", grid=np.arange(0.0, 21.0)))
        np.testing.assert_array_equal(out.means[:, 1], 0.0)


class TestPeerBuilder:
    def test_structure_and_conservation(self):
        params, horizon = qm.reference_peer_params()
        model = qm.build_peer(params, horizon)
        assert model.dimension == 3 and model.num_transitions == 5
        jumps = [tr.jump for tr in model.transitions]
        assert jumps == [(1, 0, 0), (-1, 1, 0), (0, -1, 1), (0, -1, 0), (0, 1, -1)]
        # retiring-to-inactive and reactivation conserve the server population
        assert jumps[2][1] + jumps[2][2] == 0
        assert jumps[4][1] + jumps[4][2] == 0
        assert isinstance(model.transitions[1].rate.kernel, MinPair)
        assert params.initial_state == (0, 10, 0)

    def test_no_retirement_keeps_server_pool_growing(self):
        params, horizon = qm.reference_peer_params()
        params = PeerParams(
            arrival=params.arrival,
            service=params.service,
            retire=TimeSchedule.constant(0.0),
            reactivate=params.reactivate,
            stay_prob=params.stay_prob,
            initial_state=params.initial_state,
        )
        model = qm.build_peer(params, horizon)
        out = qm.solve(model, qm.SolverConfig(method="fluid", grid=np.linspace(0.0, 8.0, 17)))
        assert np.all(np.diff(out.means[:, 1]) >= -1e-9)

    def test_certain_stay_with_no_reactivation_absorbs_servers(self):
        params, horizon = qm.reference_peer_params()
        params = PeerParams(
            arrival=params.arrival,
            service=params.service,
            retire=params.retire,
            reactivate=TimeSchedule.constant(0.0),
            stay_prob=TimeSchedule.constant(1.0),
            initial_state=params.initial_state,
        )
        model = qm.build_peer(params, horizon)
        # the leave transition is disabled and the inactive pool only grows
        assert all(v == 0.0 for v in model.transitions[3].rate.coefficient.values)
        out = qm.solve(model, qm.SolverConfig(method="fluid", grid=np.linspace(0.0, 8.0, 17)))
        assert np.all(np.diff(out.means[:, 2]) >= -1e-9)

    def test_negative_rate_rejected(self):
        params, horizon = qm.reference_peer_params()
        bad = PeerParams(
            arrival=TimeSchedule.constant(-1.0),
            service=params.service,
            retire=params.retire,
            reactivate=params.reactivate,
            stay_prob=params.stay_prob,
        )
        with pytest.raises(UsageError):
            qm.build_peer(bad, horizon)


def _builders():
    """Each builder with valid parameters, the probability fields left out."""
    retrial, retrial_horizon, _ = qm.retrial_preset(7)
    priority, priority_horizon = qm.reference_priority_params()
    peer, peer_horizon = qm.reference_peer_params()
    return {
        "retrial": (qm.build_retrial, retrial, retrial_horizon,
                    ("servers", "arrival", "service", "retrial_rate", "abandon")),
        "priority": (qm.build_priority, priority, priority_horizon,
                     ("servers", "arrival_1", "arrival_2", "service_1", "service_2")),
        "peer": (qm.build_peer, peer, peer_horizon,
                 ("arrival", "service", "retire", "reactivate")),
    }


@pytest.mark.parametrize("system", ["retrial", "priority", "peer"])
def test_builders_reject_every_negative_field_through_the_model_check(system):
    """The builders leave sign checks to the model: each negative schedule and
    a negative initial state fail its construction."""
    build, params, horizon, names = _builders()[system]
    for name in names:
        bad = dataclasses.replace(params, **{name: TimeSchedule.constant(-1.0)})
        with pytest.raises(UsageError, match="invalid model: .*negative"):
            build(bad, horizon)
    start = (-1,) + params.initial_state[1:]
    with pytest.raises(UsageError, match="initial state must be nonnegative"):
        build(dataclasses.replace(params, initial_state=start), horizon)
