import hashlib
import json

import numpy as np
import pytest

import qmoments as qm
import qmoments.simulate as simulate
from qmoments import (
    Constant,
    Linear,
    NetworkModel,
    NumericalError,
    RateTerm,
    RngStream,
    TimeSchedule,
    Transition,
    UsageError,
)
from qmoments.cli import main

from helpers import tiny_retrial_model, variant_models
from oracles import reference_path, sample_moments


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


@pytest.mark.parametrize(
    "args, message",
    [
        ((2.5, 1, 1), "count: 2.5 is not an integer"),
        ((True, 1, 1), "count: True is not an integer"),
        ((-3, 1, 1), "count must be >= 1, got -3"),
        ((4, -1, 1), "seed must be >= 0, got -1"),
        ((4, 2.5, 1), "seed: 2.5 is not an integer"),
        ((4, True, 1), "seed: True is not an integer"),
        ((4, 1, 0), "workers must be >= 1, got 0"),
        ((4, 1, -1), "workers must be >= 1, got -1"),
        ((4, 1, 1.5), "workers: 1.5 is not an integer"),
        ((4, 1, True), "workers: True is not an integer"),
    ],
)
def test_ensemble_arguments_rejected_before_any_path_runs(monkeypatch, args, message):
    def no_run(*_args, **_kwargs):
        raise AssertionError("a pool started or a path ran")

    monkeypatch.setattr(simulate, "ProcessPoolExecutor", no_run)
    monkeypatch.setattr(simulate, "_batch_stats", no_run)
    count, seed, workers = args
    with pytest.raises(UsageError, match=message):
        qm.simulate_ensemble(mminf(), count, seed, [1.0], workers=workers)


def test_whole_number_ensemble_arguments_of_other_types_are_accepted():
    want = qm.simulate_ensemble(mminf(), 3, 5, [1.0, 2.0])
    got = qm.simulate_ensemble(mminf(), 3.0, np.int64(5), [1.0, 2.0], workers=1.0)
    assert qm.results_equal(got, want) and got.count == 3


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


# --------------------------------------------------------------------------
# The lockstep engine against recorded output, the scalar reference and itself


def preset7():
    params, horizon, _ = qm.retrial_preset(7)
    return qm.build_retrial(params, horizon)


def grid(start, stop, step):
    return start + step * np.arange(int(np.floor((stop - start) / step + 1e-9)) + 1)


def batch(model, seed, streams, times):
    """Rows of one engine call, on the given streams."""
    gens = [RngStream(seed, r).generator() for r in streams]
    segments = simulate._compile_segments(model)
    return simulate._run_path(segments, model.initial_state, np.asarray(times, float), gens)


def sha1(array, dtype):
    return hashlib.sha1(np.ascontiguousarray(array, dtype=dtype).tobytes()).hexdigest()


# sha1 of the first 64 paths of seed 901 (int64, little-endian), recorded
# from the one-path-at-a-time event loop this engine replaced, and of the
# simulate_ensemble means and covariances (float64) at the listed count,
# recorded from the exact integer moment sums (each entry correctly rounded).
PINNED = {
    "tiny": (tiny_retrial_model, (1.0, 10.0, 1.0), "b61512bad1ab174f7c8772f2e69cd7b5290c15ec",
             8192, "ca8fe377ae644f50267492ff73bc89be8771b675",
             "c48cebcd62c14fa3cf7868c682764cf0033b4fd4"),
    "preset7": (preset7, (6.0, 15.0, 1.0), "cfaf752fe1d135a721788dd520f8ceafd8809ba0",
                512, "16c1091953ff668ac548850ae0b7ed8fa3b961c4",
                "a9402ba2082a3b52a419edb5e3b168541ac28495"),
    "priority": (lambda: qm.build_priority(*qm.reference_priority_params()), (4.0, 20.0, 1.0),
                 "8d40a28b6e03e3e6a8549cc305d31e91373c415c", None, None, None),
    "peer": (lambda: qm.build_peer(*qm.reference_peer_params()), (0.5, 8.0, 0.5),
             "8d653f89a1e78151d97d1523f3fbf33efa851e0e",
             64, "84d0eb3bcd867b9cc4708549f00670f2f593ce02",
             "10d1a8fc221b86ee53ecdd5296c8363e7768bd47"),
}


@pytest.mark.parametrize("name", list(PINNED))
def test_pinned_paths_and_moments(name):
    build, spec, paths_sha, count, means_sha, covs_sha = PINNED[name]
    model, times = build(), grid(*spec)
    assert sha1(batch(model, 901, range(64), times), "<i8") == paths_sha
    if count:
        stats = qm.simulate_ensemble(model, count, 901, times)
        assert sha1(stats.means, "<f8") == means_sha
        assert sha1(stats.covs, "<f8") == covs_sha
        np.testing.assert_array_equal(stats.covs, stats.covs.transpose(0, 2, 1))


@pytest.mark.parametrize("name", ["preset7", "peer"])
def test_ensemble_moments_equal_exact_rationals(name):
    """Every mean and covariance entry is the correctly rounded sample moment
    of the same paths, computed two-pass in fractions."""
    build, spec, _, count, _, _ = PINNED[name]
    model, times = build(), grid(*spec)
    stats = qm.simulate_ensemble(model, count, 901, times)
    means, covs = sample_moments(batch(model, 901, range(count), times))
    np.testing.assert_array_equal(stats.means, means)
    np.testing.assert_array_equal(stats.covs, covs)


@pytest.mark.parametrize("workers", [1, 2])
def test_huge_jumps_sum_in_python_ints(workers):
    """Jumps of 2**40 put sum x xᵀ beyond int64; the moments stay exact."""
    scale = 2**40
    model = NetworkModel(
        2,
        (
            Transition((scale, 1), RateTerm(TimeSchedule.constant(2.0), Constant())),
            Transition((0, 1), RateTerm(TimeSchedule.constant(1.0), Constant())),
        ),
        (0, 0),
        2.0,
    )
    times = [0.5, 1.0, 2.0]
    stats = qm.simulate_ensemble(model, 130, 3, times, workers=workers)
    means, covs = sample_moments(batch(model, 3, range(130), times))
    assert stats.covs[-1, 0, 0] > 2.0**63
    np.testing.assert_array_equal(stats.means, means)
    np.testing.assert_array_equal(stats.covs, covs)


@pytest.mark.parametrize(
    "model, times",
    [(m, grid(0.0, 2.25, 0.25)) for m in variant_models()]
    + [(tiny_retrial_model(), grid(0.0, 10.0, 0.5)), (preset7(), grid(6.0, 15.0, 1.0))],
    ids=[*(f"variant{i}" for i in range(7)), "tiny", "preset7"],
)
def test_batch_matches_scalar_reference(model, times):
    """Every recorded state equals the scalar loop's, kernel by kernel."""
    rows = batch(model, 901, range(32), times)
    for r, row in enumerate(rows):
        np.testing.assert_array_equal(row, reference_path(model, RngStream(901, r), times))


def test_batch_rows_do_not_depend_on_the_batch():
    model, times = tiny_retrial_model(), grid(0.5, 10.0, 0.5)
    whole = batch(model, 3, range(100), times)
    for r in (0, 1, 63, 64, 99):
        np.testing.assert_array_equal(whole[r], qm.simulate_path(model, RngStream(3, r), times))
    np.testing.assert_array_equal(whole[40:47], batch(model, 3, range(40, 47), times))
    np.testing.assert_array_equal(whole[[5, 70]], batch(model, 3, [5, 70], times))


def test_ensemble_is_bitwise_equal_across_worker_counts():
    """1100 paths in one, two or three batches, the last of them ragged
    (not a multiple of 64 paths); integer sums make the split irrelevant."""
    model, times = tiny_retrial_model(), grid(1.0, 10.0, 1.0)
    runs = [qm.simulate_ensemble(model, 1100, 17, times, workers=w) for w in (1, 2, 3)]
    for other in runs[1:]:
        assert other.count == 1100
        np.testing.assert_array_equal(runs[0].means, other.means)
        np.testing.assert_array_equal(runs[0].covs, other.covs)


def test_pool_is_sized_to_the_batches(monkeypatch):
    """``workers`` far above the batch count opens a pool of one process per
    batch, and the batch layout alone fixes the result.  The stand-in pool
    maps in this process, so no process starts."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(simulate, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 64)
    model, times = tiny_retrial_model(), grid(1.0, 10.0, 1.0)
    wide = qm.simulate_ensemble(model, 130, 5, times, workers=10**6)  # 3 batches
    assert sizes == [3]
    serial = qm.simulate_ensemble(model, 130, 5, times, workers=1)
    assert sizes == [3]
    assert qm.results_equal(wide, serial)


def _bursting(value):
    """Two arrival streams whose rates become ``value`` at t = 1; at 1e308
    each rate is finite and their sum is not."""
    arrival = RateTerm(TimeSchedule((0.0, 1.0), (2.0, value)), Constant())
    departure = RateTerm(TimeSchedule.constant(1.0), Linear((1.0,)))
    return NetworkModel(
        1, (Transition((1,), arrival), Transition((1,), arrival), Transition((-1,), departure)),
        (0,), 2.0,
    )


@pytest.mark.parametrize("value", [1e16, 1e308])
@pytest.mark.parametrize("workers", [1, 2])
def test_unusable_total_rate_raises(value, workers):
    with pytest.raises(NumericalError, match=r"total rate .* at t=1, state \[\d+\]"):
        qm.simulate_ensemble(_bursting(value), 130, 1, [0.5, 1.5], workers=workers)


def test_unusable_total_rate_exits_3(tmp_path, capsys):
    path = tmp_path / "burst.json"
    qm.save_model(_bursting(1e16), path)
    argv = ["run", "--model", str(path), "--methods", "simulate", "--reps", "8",
            "--grid", "0.5:1.5:1", "--out", str(tmp_path / "out")]
    assert main(argv) == 3
    assert "at t=1, state [" in capsys.readouterr().err


def test_runaway_path_exits_3(tmp_path, capsys):
    """A birth process at rate 1000 x from x = 10 would take about 1e12 events;
    the expected-events check stops it long before the total rate is unusable."""
    birth = RateTerm(TimeSchedule.constant(1000.0), Linear((1.0,)))
    path = tmp_path / "runaway.json"
    qm.save_model(NetworkModel(1, (Transition((1,), birth),), (10,), 2.0), path)
    out = tmp_path / "out"
    argv = ["run", "--model", str(path), "--methods", "simulate", "--reps", "8",
            "--grid", "0:2:1", "--out", str(out)]
    assert main(argv) == 3
    assert "runaway path" in capsys.readouterr().err
    errors = json.loads((out / "run.json").read_text())["errors"]
    assert errors["simulate"].startswith("runaway path: total rate ")
