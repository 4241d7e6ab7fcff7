import numpy as np
import pytest
import scipy.linalg
from scipy.special import gammaln

import qmoments as qm
from qmoments import kolmogorov
from qmoments import (
    Constant,
    Linear,
    NetworkModel,
    RateTerm,
    TimeSchedule,
    Transition,
    UsageError,
)
from qmoments.model import compile_segments, compile_terms, model_breakpoints
from helpers import results_equal, variant_models
from oracles import eval_rate
from qmoments.systems import RetrialParams


def birth_death(lam=1.0, mu=1.0, horizon=2.0):
    return NetworkModel(
        1,
        (
            Transition((1,), RateTerm(TimeSchedule.constant(lam), Constant())),
            Transition((-1,), RateTerm(TimeSchedule.constant(mu), Linear((1.0,)))),
        ),
        (0,),
        horizon,
    )


def tiny_retrial(horizon=10.0):
    params = RetrialParams(
        servers=TimeSchedule.constant(3),
        arrival=TimeSchedule.alternating(2, 4, 2.0, horizon),
        service=TimeSchedule.constant(1.0),
        retrial_rate=TimeSchedule.constant(0.5),
        abandon=TimeSchedule.constant(2.0),
        leave_prob=TimeSchedule.constant(0.5),
    )
    return qm.build_retrial(params, horizon)


def poisson_pmf(mean, size):
    k = np.arange(size)
    return np.exp(k * np.log(mean) - mean - gammaln(k + 1))


def dense_reference(model, caps, grid):
    """The forward march of ``state_distributions`` with dense ``expm`` per interval."""
    caps = np.asarray(caps)
    shape = caps + 1
    coords = np.indices(shape).reshape(len(shape), -1).T
    strides = np.cumprod(np.r_[1, shape[:0:-1]])[::-1]
    p = np.zeros(len(coords))
    p[int(np.asarray(model.initial_state) @ strides)] = 1.0
    boundaries = [b for b in model_breakpoints(model) if b < grid[-1]]
    out, t_now = [], 0.0
    for t_event in sorted(set(grid) | set(boundaries) | {0.0}):
        if t_event > t_now:
            p = scipy.linalg.expm(qt.toarray() * (t_event - t_now)) @ p
        t_now = t_event
        if t_event in grid:
            out.append(p)
        qt = kolmogorov._generator_transpose(compile_terms(model, t_event), coords, strides, caps)
    return np.array(out), qt


def test_linear_birth_death_transient_mean():
    """Truncated forward equations reproduce the Poisson((lam/mu)(1 - exp(-t))) law."""
    out = qm.exact_transient_moments(birth_death(), (50,), [1.0])
    assert out.means[0, 0] == pytest.approx(0.6321205588285577, abs=1e-9)
    # transient law is Poisson: variance equals the mean
    assert out.covs[0, 0, 0] == pytest.approx(0.6321205588285577, abs=1e-9)
    grid = [0.25, 0.5, 1.0, 2.0]
    _, _, probs = qm.state_distributions(birth_death(), (50,), grid)
    for t, p in zip(grid, probs):
        assert np.abs(p - poisson_pmf(1.0 - np.exp(-t), 51)).sum() <= 1e-12


def test_long_uniformization_interval():
    """One interval with rate * dt near 6000 against dense expm and the Poisson law."""
    model = birth_death(lam=50.0, horizon=30.0)
    _, _, probs = qm.state_distributions(model, (150,), [30.0])
    dense, qt = dense_reference(model, (150,), [30.0])
    assert -qt.diagonal().min() * 30.0 >= 5000.0
    assert abs(probs[0].sum() - 1.0) <= kolmogorov._MASS_TOL
    assert np.abs(probs[0] - dense[0]).sum() <= 1e-12
    law = poisson_pmf(50.0 * (1.0 - np.exp(-30.0)), 151)
    assert np.abs(probs[0] - law).sum() <= 1e-12


def test_tiny_retrial_segments_against_dense_expm():
    """Every interval, across the arrival-rate switches, matches dense expm."""
    model = tiny_retrial()
    grid = [float(t) for t in np.arange(0.5, 10.5, 0.5)]
    _, coords, probs = qm.state_distributions(model, (12, 12), grid)
    assert len(coords) == 169
    dense, _ = dense_reference(model, (12, 12), grid)
    assert np.abs(probs - dense).sum(axis=1).max() <= 1e-12


def test_one_generator_per_distinct_segment(monkeypatch):
    """Preset 7 has ten plan segments but two distinct lists of terms (its
    arrival rate alternates): the lattice builds two generators."""
    params, horizon, grid = qm.retrial_preset(7)
    model = qm.build_retrial(params, horizon)
    built = []

    def counted(terms, *args):
        built.append(terms)
        return build(terms, *args)

    build = kolmogorov._generator_transpose
    monkeypatch.setattr(kolmogorov, "_generator_transpose", counted)
    qm.state_distributions(model, (40, 20), grid)
    segments = compile_segments(model)
    assert len(segments) == 10
    assert len(built) == len({tuple(terms) for _, _, terms in segments}) == 2


def test_repeated_solves_are_bitwise_identical():
    """Preset 7's exact solve is reproducible in one process."""
    params, horizon, grid = qm.retrial_preset(7)
    model = qm.build_retrial(params, horizon)
    first = qm.state_distributions(model, (130, 60), grid)[2]
    second = qm.state_distributions(model, (130, 60), grid)[2]
    assert np.array_equal(first, second)


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="long double is no wider than float64 on this platform",
)
def test_covariance_matches_long_double_moments():
    """Preset 7's covariances against the same probabilities' moments about
    the mean in long double.  Forming ``sum p x xᵀ - m mᵀ`` in float64
    instead cancels to about 2e-12 of the largest entry."""
    params, horizon, grid = qm.retrial_preset(7)
    model = qm.build_retrial(params, horizon)
    _, coords, probs = qm.state_distributions(model, (130, 60), grid)
    x = coords.astype(np.longdouble)
    ref = []
    for p in probs.astype(np.longdouble):
        dev = x - p @ x
        ref.append((p[:, None] * dev).T @ dev)
    ref = np.array(ref)
    covs = qm.exact_transient_moments(model, (130, 60), grid).covs
    assert np.abs(covs - ref).max() <= 1e-13 * np.abs(ref).max()


def test_zero_rate_model_is_point_mass():
    model = NetworkModel(
        2,
        (Transition((1, 0), RateTerm(TimeSchedule.constant(0.0), Constant())),),
        (2, 1),
        3.0,
    )
    out = qm.exact_transient_moments(model, (4, 4), [0.0, 1.5, 3.0])
    np.testing.assert_allclose(out.means, np.tile([2.0, 1.0], (3, 1)), atol=1e-12)
    np.testing.assert_allclose(out.covs, 0.0, atol=1e-12)


def test_probability_mass_and_psd_covariance():
    model = tiny_retrial()
    grid = np.arange(1.0, 11.0)
    times, coords, probs = qm.state_distributions(model, (12, 12), grid)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-10)
    assert np.all(probs >= 0)
    out = qm.exact_transient_moments(model, (12, 12), grid)
    for cov in out.covs:
        assert np.linalg.eigvalsh(cov).min() >= -1e-10


def test_ensemble_agrees_within_sampling_bands():
    """Simulator vs forward-equation oracle on the small retrial system."""
    model = tiny_retrial()
    grid = np.arange(1.0, 11.0)
    oracle = qm.exact_transient_moments(model, (12, 12), grid)
    stats = qm.simulate_ensemble(model, 4000, 2024, grid)
    se = np.sqrt(np.array([np.diag(c) for c in oracle.covs]) / 4000.0)
    assert np.all(np.abs(stats.means - oracle.means) < 3.0 * se)


def test_generator_entries_equal_pointwise_rates():
    """Each transition's off-diagonal entry of Q' is its ``eval_rate`` at every
    lattice point whose jump stays in the box, inside every schedule segment.

    A linear rate is a matrix product on the lattice and a Python sum in
    ``eval_rate``, so those two may differ in the last bit; the rest are equal.
    """
    model = variant_models()[-1]  # six variants, alternating threshold and rate
    caps = np.array([6, 5])
    coords = np.indices(caps + 1).reshape(2, -1).T
    strides = np.array([caps[1] + 1, 1])
    bounds = [0.0] + model_breakpoints(model) + [model.horizon]
    assert len(bounds) > 3
    for t in (0.5 * (a + b) for a, b in zip(bounds[:-1], bounds[1:])):
        terms = compile_terms(model, t)
        qt = kolmogorov._generator_transpose(terms, coords, strides, caps).toarray()
        for i, tr in enumerate(model.transitions):
            target = coords + np.asarray(tr.jump)
            inside = np.all((target >= 0) & (target <= caps), axis=1)
            assert inside.any()
            ulps = 1e-15 if isinstance(tr.rate.kernel, Linear) else 0.0
            for x, y in zip(coords[inside], target[inside]):
                rate = eval_rate(model, i, t, x)
                assert abs(qt[y @ strides, x @ strides] - rate) <= ulps * rate, (t, i, x)


def test_sample_just_after_a_breakpoint_is_read_at_the_breakpoint():
    """A sample within GRID_TOL after the t = 2 breakpoint shares the
    breakpoint's stop, as in the ODE methods' plan: its moments and every
    later sample's equal those of a grid that samples t = 2 itself."""
    model = tiny_retrial(horizon=4.0)
    near = qm.exact_transient_moments(model, (12, 12), [1.0, 2.0 + 5e-10, 3.0])
    stop = qm.exact_transient_moments(model, (12, 12), [1.0, 2.0, 3.0])
    assert np.array_equal(near.means, stop.means)
    assert np.array_equal(near.covs, stop.covs)


def test_empty_grid_rejected():
    for grid in ([], [[1.0, 2.0]], [6.0, float("nan")], [6.0, 6.0, 7.0], [-1e-10, 1.0],
                 [1.0, 1.0 + 1e-12]):
        with pytest.raises(UsageError):
            qm.exact_transient_moments(tiny_retrial(), (12, 12), grid)


def test_state_cap_guard():
    with pytest.raises(UsageError):
        qm.exact_transient_moments(tiny_retrial(), (2000, 2000), [1.0])


@pytest.mark.parametrize(
    "caps, message",
    [
        ((True, 12), "caps: True is not an integer"),
        ((12.7, 12), "caps: 12.7 is not an integer"),
        (("12", 12), "caps: '12' is not an integer"),
        ((-1, 12), "caps must be >= 0, got -1"),
        ((12,), "caps: need one per state dimension, got 1"),
    ],
)
def test_caps_are_read_whole_never_truncated(caps, message):
    """A boolean cap once solved with cap 1 and 12.7 with cap 12."""
    with pytest.raises(UsageError, match=message):
        qm.exact_transient_moments(tiny_retrial(), caps, [1.0, 2.0])


def test_whole_number_caps_of_other_types_are_accepted():
    want = qm.exact_transient_moments(tiny_retrial(), (12, 12), [1.0, 2.0])
    for caps in ((12.0, 12), (np.int64(12), np.float64(12.0)), np.array([12, 12])):
        got = qm.exact_transient_moments(tiny_retrial(), caps, [1.0, 2.0])
        assert results_equal(got, want)


def test_initial_state_outside_box_rejected():
    model = NetworkModel(
        1,
        (Transition((1,), RateTerm(TimeSchedule.constant(1.0), Constant())),),
        (10,),
        1.0,
    )
    with pytest.raises(UsageError):
        qm.exact_transient_moments(model, (5,), [1.0])
