import numpy as np
import pytest

from qmoments import (
    MomentTrajectory,
    UsageError,
    read_long_csv,
    write_long_csv,
)
from qmoments.results import stat_positions
from helpers import results_equal


def sample_trajectory(method="adjusted"):
    times = np.array([0.0, 0.5, 1.0])
    means = np.array([[0.0, 0.0], [1.25, 0.5], [2.0, 0.75]])
    covs = np.zeros((3, 2, 2))
    covs[:, 0, 0] = [0.0, 1.3, 2.1]
    covs[:, 1, 1] = [0.0, 0.4, 0.9]
    covs[:, 0, 1] = covs[:, 1, 0] = [0.0, -0.2, 0.11]
    return MomentTrajectory(method, times, means, covs)


def sample_ensemble(count=100):
    times = np.array([0.0, 1.0])
    means = np.array([[0.1, 0.2, 0.3], [1.0, 2.0, 3.0]])
    covs = np.tile(np.eye(3) * 0.5, (2, 1, 1)) if count >= 2 else None
    return MomentTrajectory("simulate", times, means, covs, count=count)


def random_result(d, count, method="adjusted", n=4, seed=0):
    """Distinct values everywhere; symmetric covariance, absent for one replication."""
    rng = np.random.default_rng(seed)
    upper = rng.normal(size=(n, d, d))
    covs = np.triu(upper) + np.swapaxes(np.triu(upper, 1), 1, 2)
    if count == 1:
        covs = None
    return MomentTrajectory(method, np.arange(n) * 0.25, rng.normal(size=(n, d)), covs, count=count)


DIMS = [1, 2, 11]
COUNTS = [None, 1, 100]


def test_stat_names_order():
    assert list(stat_positions(2)) == ["mean_0", "mean_1", "cov_00", "cov_01", "cov_11"]
    assert stat_positions(2) == {
        "mean_0": (0,), "mean_1": (1,), "cov_00": (0, 0), "cov_01": (0, 1), "cov_11": (1, 1)
    }
    assert stat_positions(2, with_cov=False) == {"mean_0": (0,), "mean_1": (1,)}
    assert stat_positions(11)["cov_010"] == (0, 10)


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("d", DIMS)
def test_round_trip_trajectory(tmp_path, d, count):
    path = tmp_path / "out.csv"
    original = random_result(d, count)
    write_long_csv([original], path)
    (parsed,) = read_long_csv(path)
    assert results_equal(original, parsed)
    assert parsed.count == count and (parsed.covs is None) == (count == 1)


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("d", DIMS)
def test_round_trip_mixed_results(tmp_path, d, count):
    path = tmp_path / "out.csv"
    originals = [
        random_result(3, None, "fluid", seed=1),  # blocks may differ in dimension
        random_result(d, None, "adjusted", seed=2),
        random_result(d, count, "simulate", seed=3),
    ]
    write_long_csv(originals, path)
    parsed = read_long_csv(path)
    assert len(parsed) == 3
    for a, b in zip(originals, parsed):
        assert results_equal(a, b)


def test_block_without_covariance_rows_reads_none(tmp_path):
    """Not only ensembles: any block without ``cov_`` rows has ``covs is None``."""
    path = tmp_path / "out.csv"
    path.write_text("t,method,stat,value,N\n0.0,fluid,mean_0,1.5,\n1.0,fluid,mean_0,2.5,\n")
    (parsed,) = read_long_csv(path)
    assert parsed.covs is None and parsed.count is None
    np.testing.assert_array_equal(parsed.means, [[1.5], [2.5]])


def test_counted_result_checks_shapes():
    with pytest.raises(UsageError):
        MomentTrajectory("simulate", [0.0, 1.0], np.zeros((2, 2)), np.zeros((2, 3, 3)), count=5)
    with pytest.raises(UsageError):
        MomentTrajectory("simulate", [0.0, 1.0, 2.0], np.zeros((2, 2)), None, count=1)


def test_single_replication_has_no_covariance_rows(tmp_path):
    path = tmp_path / "out.csv"
    write_long_csv([sample_ensemble(count=1)], path)
    text = path.read_text()
    assert "cov_" not in text
    (parsed,) = read_long_csv(path)
    assert parsed.covs is None and parsed.count == 1


def test_byte_identical_rewrites(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_long_csv([sample_trajectory(), sample_ensemble()], a)
    write_long_csv([sample_trajectory(), sample_ensemble()], b)
    assert a.read_bytes() == b.read_bytes()


def test_header_mismatch_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(UsageError):
        read_long_csv(path)


def test_descending_times_rejected():
    with pytest.raises(UsageError):
        MomentTrajectory(
            "fluid",
            np.array([1.0, 0.5]),
            np.zeros((2, 1)),
            np.zeros((2, 1, 1)),
        )
