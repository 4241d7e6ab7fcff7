import numpy as np
import pytest

import qmoments as qm
from qmoments import (
    Constant,
    Linear,
    NetworkModel,
    RateTerm,
    RngStream,
    TimeSchedule,
    Transition,
    UsageError,
)


def mminf(horizon=2.0, arrival=None):
    return NetworkModel(
        1,
        (
            Transition((1,), RateTerm(arrival or TimeSchedule.constant(2.0), Constant())),
            Transition((-1,), RateTerm(TimeSchedule.constant(1.0), Linear((1.0,)))),
        ),
        (0,),
        horizon,
    )


def test_zero_rate_model_stays_put():
    model = NetworkModel(
        2,
        (Transition((1, 0), RateTerm(TimeSchedule.constant(0.0), Constant())),),
        (3, 4),
        5.0,
    )
    path = qm.simulate_path(model, RngStream(1, 0), [0.0, 2.5, 5.0])
    np.testing.assert_array_equal(path, np.tile([3, 4], (3, 1)))


def test_same_stream_reproduces_path():
    model = mminf()
    a = qm.simulate_path(model, RngStream(123, 9), [0.5, 1.0, 2.0])
    b = qm.simulate_path(model, RngStream(123, 9), [0.5, 1.0, 2.0])
    np.testing.assert_array_equal(a, b)


def test_distinct_streams_differ():
    model = mminf(horizon=50.0)
    times = np.arange(1.0, 51.0)
    a = qm.simulate_path(model, RngStream(123, 0), times)
    b = qm.simulate_path(model, RngStream(123, 1), times)
    assert not np.array_equal(a, b)


def test_sample_before_first_event_sees_initial_state():
    """With rate zero until t=1, the state recorded at t=1 is still x0."""
    model = mminf(
        horizon=2.0,
        arrival=TimeSchedule((0.0, 1.0), (0.0, 5.0)),
    )
    path = qm.simulate_path(model, RngStream(5, 0), [0.5, 1.0, 2.0])
    assert path[0, 0] == 0 and path[1, 0] == 0


def test_ensemble_mean_within_monte_carlo_band():
    """Empirical mean of the linear system vs its analytic transient."""
    model = mminf()
    stats = qm.simulate_ensemble(model, 5000, 7, [0.5, 1.0, 2.0])
    expected = 2.0 * (1.0 - np.exp(-np.array([0.5, 1.0, 2.0])))
    band = 3.0 * np.sqrt(expected / 5000.0)  # transient law has var = mean
    assert np.all(np.abs(stats.means[:, 0] - expected) < band)
    assert np.all(np.abs(stats.covs[:, 0, 0] - expected) < 6.0 * np.sqrt(expected / 5000.0) + 0.05)


def test_single_replication_reports_no_covariance():
    model = mminf()
    stats = qm.simulate_ensemble(model, 1, 7, [1.0, 2.0])
    path = qm.simulate_path(model, RngStream(7, 0), [1.0, 2.0])
    assert stats.covs is None
    np.testing.assert_array_equal(stats.means, path.astype(float))


def test_worker_counts_agree_bitwise():
    params, horizon, grid = qm.retrial_preset(7)
    model = qm.build_retrial(params, horizon)
    serial = qm.simulate_ensemble(model, 200, 11, grid, workers=1)
    parallel = qm.simulate_ensemble(model, 200, 11, grid, workers=4)
    np.testing.assert_array_equal(serial.means, parallel.means)
    np.testing.assert_array_equal(serial.covs, parallel.covs)
    assert serial.count == parallel.count == 200


def test_replication_count_validated():
    with pytest.raises(UsageError):
        qm.simulate_ensemble(mminf(), 0, 1, [1.0])


def test_sample_times_validated():
    with pytest.raises(UsageError):
        qm.simulate_path(mminf(), RngStream(1, 0), [2.0, 1.0])
    with pytest.raises(UsageError):
        qm.simulate_path(mminf(horizon=2.0), RngStream(1, 0), [3.0])
    for grid in ([6.0, float("nan")], [6.0, 6.0, 7.0], [-1e-10, 1.0], [1.0, 1.0 + 1e-12]):
        with pytest.raises(UsageError):
            qm.simulate_path(mminf(horizon=10.0), RngStream(1, 0), grid)
        with pytest.raises(UsageError):
            qm.simulate_ensemble(mminf(horizon=10.0), 2, 1, grid)
