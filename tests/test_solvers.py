import dataclasses
from dataclasses import replace

import numpy as np
import pytest

import qmoments as qm
from helpers import (
    random_moment_point,
    reference_closed_terms,
    reference_diffusion,
    reference_drift,
    reference_drift_jacobian,
    reference_noise_matrix,
    reference_rates,
    variant_models,
)
from qmoments import (
    CappedResidual,
    Constant,
    DivergenceError,
    Linear,
    MinPair,
    MinThreshold,
    NetworkModel,
    PositivePart,
    RateTerm,
    SolverConfig,
    TimeSchedule,
    Transition,
    UsageError,
)
from qmoments.closure import MomentPoint, closed_rate
from qmoments.model import compile_terms
from qmoments.solvers import (
    FLOW_METHODS,
    METHODS,
    _Region,
    _solve_moments,
    moment_terms,
)


def mminf(lam=2.0, mu=1.0, horizon=2.0, arrival=None):
    return NetworkModel(
        1,
        (
            Transition((1,), RateTerm(arrival or TimeSchedule.constant(lam), Constant())),
            Transition((-1,), RateTerm(TimeSchedule.constant(mu), Linear((1.0,)))),
        ),
        (0,),
        horizon,
    )


def zero_rate_model():
    return NetworkModel(
        2,
        (Transition((1, 0), RateTerm(TimeSchedule.constant(0.0), Constant())),),
        (3, 4),
        5.0,
    )


class TestFluid:
    def test_pure_birth_death_matches_analytic_solution(self):
        """dx/dt = lam - mu*x from 0 gives (lam/mu)(1 - exp(-mu t))."""
        grid = np.array([0.5, 1.0, 2.0])
        out = qm.solve(mminf(), SolverConfig(method="fluid", grid=grid))
        expected = 2.0 * (1.0 - np.exp(-grid))
        np.testing.assert_allclose(out.means[:, 0], expected, atol=1e-7)
        assert np.all(out.covs == 0.0)

    def test_zero_rate_model_is_constant(self):
        out = qm.solve(zero_rate_model(), SolverConfig(method="fluid", grid=np.arange(0.0, 6.0)))
        np.testing.assert_array_equal(out.means, np.tile([3.0, 4.0], (6, 1)))

    def test_preset_7_hovers_near_server_count(self):
        params, horizon, _ = qm.retrial_preset(7)
        model = qm.build_retrial(params, horizon)
        grid = np.arange(4.0, 21.0)
        out = qm.solve(model, SolverConfig(method="fluid", grid=grid))
        assert np.all(np.abs(out.means[:, 0] - 50.0) < 6.0)

    def test_invalid_model_rejected(self):
        with pytest.raises(UsageError, match="negative coefficient"):
            NetworkModel(
                1,
                (Transition((1,), RateTerm(TimeSchedule.constant(-1.0), Constant())),),
                (0,),
                1.0,
            )


class TestAdjusted:
    def test_linear_model_reproduces_poisson_transient(self):
        """Mean and variance both equal (lam/mu)(1 - exp(-mu t))."""
        grid = np.array([0.5, 1.0, 2.0])
        out = qm.solve(mminf(), SolverConfig(method="adjusted", grid=grid))
        expected = 2.0 * (1.0 - np.exp(-grid))
        np.testing.assert_allclose(out.means[:, 0], expected, atol=1e-6)
        np.testing.assert_allclose(out.covs[:, 0, 0], expected, atol=1e-6)

    def test_mean_identical_to_fluid_on_linear_models(self):
        grid = np.linspace(0.0, 2.0, 9)
        cfg = SolverConfig(grid=grid)
        fluid = qm.solve(mminf(), replace(cfg, method="fluid"))
        adjusted = qm.solve(mminf(), replace(cfg, method="adjusted"))
        np.testing.assert_allclose(
            fluid.means, adjusted.means, rtol=0.0, atol=1e-10
        )

    def test_covariance_stays_symmetric_psd_on_reference_models(self):
        cases = [
            qm.build_retrial(*qm.retrial_preset(7)[:2]),
            qm.build_priority(*qm.reference_priority_params()),
            qm.build_peer(*qm.reference_peer_params()),
        ]
        for model in cases:
            grid = np.linspace(0.0, model.horizon, 21)
            for method in ("adjusted", "measure-zero"):
                out = qm.solve(model, SolverConfig(method=method, grid=grid))
                for cov in out.covs:
                    np.testing.assert_allclose(cov, cov.T, atol=1e-12)
                    trace = np.trace(cov)
                    assert np.linalg.eigvalsh(cov).min() >= -1e-6 * max(trace, 1.0)

    def test_matches_truncated_state_space_oracle(self):
        """Closed-form solver vs forward-equation oracle on a small system."""
        horizon = 10.0
        model = NetworkModel(
            1,
            (
                Transition(
                    (1,),
                    RateTerm(TimeSchedule.alternating(4, 6, 2.0, horizon), Constant()),
                ),
                Transition(
                    (-1,),
                    RateTerm(
                        TimeSchedule.constant(1.0),
                        MinThreshold(0, TimeSchedule.constant(12)),
                    ),
                ),
            ),
            (0,),
            horizon,
        )
        grid = np.arange(1.0, 11.0)
        adjusted = qm.solve(model, SolverConfig(method="adjusted", grid=grid))
        oracle = qm.exact_transient_moments(model, (60,), grid)
        rel = np.abs(adjusted.means[:, 0] - oracle.means[:, 0]) / oracle.means[:, 0]
        assert rel.max() < 0.005


class TestMeasureZero:
    def test_identical_to_adjusted_on_linear_models(self):
        grid = np.linspace(0.0, 2.0, 9)
        cfg = SolverConfig(grid=grid)
        adjusted = qm.solve(mminf(), replace(cfg, method="adjusted"))
        measure_zero = qm.solve(mminf(), replace(cfg, method="measure-zero"))
        np.testing.assert_allclose(adjusted.means, measure_zero.means, atol=1e-10)
        np.testing.assert_allclose(adjusted.covs, measure_zero.covs, atol=1e-10)

    def test_mean_equals_fluid_trajectory(self):
        params, horizon, grid = qm.retrial_preset(7)
        model = qm.build_retrial(params, horizon)
        cfg = SolverConfig(grid=grid)
        fluid = qm.solve(model, replace(cfg, method="fluid"))
        measure_zero = qm.solve(model, replace(cfg, method="measure-zero"))
        np.testing.assert_array_equal(fluid.means, measure_zero.means)

    def test_one_sided_jacobian_conventions(self):
        params, horizon, _ = qm.retrial_preset(7)
        model = qm.build_retrial(params, horizon)
        # below the kink: service tracks x1, overflow inactive
        a_below = qm.pointwise_drift_jacobian(model, 0.0, (49.0, 0.0))
        assert a_below[0, 0] == pytest.approx(-1.0)
        # exactly at the kink the min-active branch wins
        a_at = qm.pointwise_drift_jacobian(model, 0.0, (50.0, 0.0))
        assert a_at[0, 0] == pytest.approx(-1.0)
        # above the kink: service saturates, abandonment takes over
        a_above = qm.pointwise_drift_jacobian(model, 0.0, (51.0, 0.0))
        assert a_above[0, 0] == pytest.approx(-2.0)


# the models both one-pass evaluators are checked on against their references
REFERENCE_MODELS = pytest.mark.parametrize(
    "model",
    [
        qm.build_retrial(*qm.retrial_preset(7)[:2]),
        qm.build_priority(*qm.reference_priority_params()),
        qm.build_peer(*qm.reference_peer_params()),
        NetworkModel(
            3,
            (
                Transition((1, 0, 0), RateTerm(TimeSchedule.constant(2.0), Constant())),
                Transition(
                    (-1, 1, 0), RateTerm(TimeSchedule.constant(0.3), Linear((1.0, 0.0, 0.25)))
                ),
                Transition(
                    (0, -1, 1), RateTerm(TimeSchedule.constant(1.1), Linear((0.7, 1.3, 0.0)))
                ),
                Transition(
                    (0, 0, -1), RateTerm(TimeSchedule.constant(0.9), Linear((0.1, 0.2, 0.3)))
                ),
            ),
            (5, 0, 0),
            3.0,
        ),
        variant_models()[-1],
    ],
    ids=["retrial", "priority", "peer", "linear", "all-variants"],
)


def assert_matches_reference(model, t, x, var=0.0):
    """The closed rates and the moment pass at covariance ``var * I``, and the
    public wrappers, equal the pointwise loop references."""
    x = np.asarray(x, dtype=float)
    d = model.dimension
    state = (x.tolist(), (var * np.eye(d)).ravel().tolist())
    terms = compile_terms(model, t)
    got = moment_terms(terms, state, d)
    rates = reference_rates(model, t, x)
    closed = [closed_rate(term, state)[0] for term in terms]
    assert np.array_equal(closed, rates, equal_nan=True), (t, x, var, closed, rates)
    expected = (
        reference_drift(model, t, x),
        reference_drift_jacobian(model, t, x),
        reference_diffusion(model, rates),
    )
    for g, want in zip(got, expected):
        assert g.shape == want.shape
        assert np.array_equal(g, want, equal_nan=True), (t, x, g, want)
    assert np.array_equal(qm.drift(model, t, x), expected[0], equal_nan=True)
    assert np.array_equal(qm.pointwise_drift_jacobian(model, t, x), expected[1], equal_nan=True)
    noise = reference_noise_matrix(model, rates)
    assert np.array_equal(qm.pointwise_noise_matrix(model, t, x), noise, equal_nan=True)


class TestPointwisePass:
    @REFERENCE_MODELS
    def test_random_states_match_reference_exactly(self, model):
        rng = np.random.default_rng(20261018)
        scale = 2.0 * max(max(model.initial_state), 60)
        for _ in range(300):
            t = rng.uniform(0.0, model.horizon)
            x = rng.uniform(-0.1 * scale, scale, model.dimension)
            assert_matches_reference(model, t, x)

    @pytest.mark.parametrize(
        "x",
        [
            (4.0, 1.0),  # x_0 == n; capped residual == 0
            (1.0, 4.0),  # x_1 == n
            (2.5, 2.5),  # x_0 == x_1
            (1.5, 2.5),  # x_1 == residual n - x_0
            (4.0, 0.0),  # residual == 0 == x_1
            (5.0, 1.0),  # residual < 0
            (6.0, -2.0),  # residual < 0 and x_1 < 0
            (0.0, 0.0),
            (float("nan"), 1.0),
            (1.0, float("nan")),
        ],
    )
    def test_every_variant_and_tie_matches_reference(self, x):
        """Also at zero covariance and at a spread below ``SIGMA_FLOOR``."""
        shifted = (x[0] - 1.5, x[1] - 1.5)  # the threshold and pair ties recur at n = 2.5
        for model in variant_models():
            for var in (0.0, 1e-20):
                assert_matches_reference(model, 0.5, x, var)  # n = 4
                assert_matches_reference(model, 1.0, shifted, var)

    @pytest.mark.parametrize(
        "kernel, x, grad",
        [
            (MinThreshold(0, TimeSchedule.constant(4.0)), (4.0, 1.0), (1.0, 0.0)),
            (PositivePart(1, TimeSchedule.constant(4.0)), (1.0, 4.0), (0.0, 0.0)),
            (MinPair(0, 1), (2.5, 2.5), (1.0, 0.0)),
            (CappedResidual(1, 0, TimeSchedule.constant(4.0)), (1.5, 2.5), (0.0, 1.0)),
            (CappedResidual(1, 0, TimeSchedule.constant(4.0)), (1.0, 3.5), (-1.0, 0.0)),
            (CappedResidual(1, 0, TimeSchedule.constant(4.0)), (4.0, 0.0), (0.0, 1.0)),
            (CappedResidual(1, 0, TimeSchedule.constant(4.0)), (4.0, 1.0), (0.0, 0.0)),
        ],
    )
    def test_tie_conventions(self, kernel, x, grad):
        model = NetworkModel(
            2, (Transition((1, 0), RateTerm(TimeSchedule.constant(2.0), kernel)),), (0, 0), 1.0
        )
        jac = qm.pointwise_drift_jacobian(model, 0.0, x)
        np.testing.assert_array_equal(jac, [[2.0 * g for g in grad], [0.0, 0.0]])


def assert_closed_matches_reference(model, t, p):
    """The moment pass under the closed rate, and the public wrappers, equal
    the type-dispatched loop bit for bit."""
    got = moment_terms(compile_terms(model, t), p.flat(), model.dimension)
    drift, jac, diffusion, noise = reference_closed_terms(model, t, p)
    nan = bool(np.isnan(p.mean).any())  # NaN outputs are expected only from a NaN mean
    for g, want in zip(got, (drift, jac, diffusion)):
        assert g.shape == want.shape
        assert np.array_equal(g, want, equal_nan=nan), (t, p.mean, p.cov, g, want)
    assert np.array_equal(qm.closed_drift(model, t, p), drift, equal_nan=nan)
    assert np.array_equal(qm.closed_drift_jacobian(model, t, p), jac, equal_nan=nan)
    assert np.array_equal(qm.noise_matrix(model, t, p), noise, equal_nan=nan)


class TestClosedPass:
    @REFERENCE_MODELS
    def test_random_points_match_reference_exactly(self, model):
        rng = np.random.default_rng(20261019)
        for _ in range(300):
            t = rng.uniform(0.0, model.horizon)
            assert_closed_matches_reference(model, t, random_moment_point(rng, model.dimension))

    @pytest.mark.parametrize(
        "mean, cov",
        [
            ((4.0, 1.0), [[0.0, 0.0], [0.0, 0.0]]),  # zero covariance, m_0 == n
            ((3.0, 3.0), [[2.0, 2.0], [2.0, 2.0]]),  # theta == 0 with m_0 == m_1
            ((4.0, 4.0), [[1e-20, 0.0], [0.0, 1e-20]]),  # s < SIGMA_FLOOR at m == n
            ((float("nan"), 1.0), [[0.0, 0.0], [0.0, 0.0]]),
            ((1.0, float("nan")), [[1.0, 0.2], [0.2, 1.0]]),
        ],
        ids=["zero-cov", "pair-tie", "threshold-tie", "nan-0", "nan-1"],
    )
    def test_degenerate_points_match_reference(self, mean, cov):
        shifted = tuple(m - 1.5 for m in mean)  # the ties recur at n = 2.5
        for model in variant_models():
            assert_closed_matches_reference(model, 0.5, MomentPoint(mean, cov))  # n = 4
            assert_closed_matches_reference(model, 1.0, MomentPoint(shifted, cov))


class TestDiffusion:
    @REFERENCE_MODELS
    def test_diffusion_is_gram_matrix_of_noise(self, model):
        """The pass's ``sum_i rate_i^+ J_i J_i'`` equals ``B B'`` of the noise
        wrappers to a few ulps of ``|B| |B|'``; only ``sqrt(r)^2 != r`` differs."""
        rng = np.random.default_rng(20261020)
        d, eps = model.dimension, np.finfo(float).eps
        scale = 2.0 * max(max(model.initial_state), 60)
        for _ in range(100):
            t = rng.uniform(0.0, model.horizon)
            x = rng.uniform(-0.1 * scale, scale, d)
            p = random_moment_point(rng, d)
            terms = compile_terms(model, t)
            for state, b in (
                ((x.tolist(), [0.0] * (d * d)), qm.pointwise_noise_matrix(model, t, x)),
                (p.flat(), qm.noise_matrix(model, t, p)),
            ):
                q = moment_terms(terms, state, d)[2]
                assert np.array_equal(q, q.T)
                bound = 4 * eps * (np.abs(b) @ np.abs(b).T)
                assert np.all(np.abs(q - b @ b.T) <= bound), (t, q, b @ b.T)


class TestStepping:
    def test_step_halving_changes_little(self):
        params, horizon, grid = qm.retrial_preset(7)
        model = qm.build_retrial(params, horizon)
        coarse = qm.solve(model, SolverConfig(method="adjusted", dt=0.02, grid=grid))
        fine = qm.solve(model, SolverConfig(method="adjusted", dt=0.01, grid=grid))
        rel = np.abs(coarse.means - fine.means) / np.maximum(np.abs(fine.means), 1.0)
        assert rel.max() < 1e-5

    def test_alternating_schedule_equals_chained_constant_segments(self):
        """Integrating across a rate switch = chaining the constant segments."""
        from qmoments.closure import MomentPoint

        horizon = 4.0
        alternating = mminf(
            horizon=horizon,
            arrival=TimeSchedule.alternating(45, 55, 2.0, horizon),
        )
        whole = qm.solve(
            alternating, SolverConfig(method="adjusted", grid=np.array([2.0, 4.0]))
        )

        def chain_segment(model, nodes, m, c):
            def rhs(t, m, c):
                p = MomentPoint(m, c)
                a = qm.closed_drift_jacobian(model, t, p)
                b = qm.noise_matrix(model, t, p)
                return qm.closed_drift(model, t, p), a @ c + c @ a.T + b @ b.T

            for t0, t1 in zip(nodes[:-1], nodes[1:]):
                h = t1 - t0
                tm = 0.5 * (t0 + t1)
                dm1, dc1 = rhs(tm, m, c)
                dm2, dc2 = rhs(tm, m + 0.5 * h * dm1, c + 0.5 * h * dc1)
                dm3, dc3 = rhs(tm, m + 0.5 * h * dm2, c + 0.5 * h * dc2)
                dm4, dc4 = rhs(tm, m + h * dm3, c + h * dc3)
                m = m + (h / 6.0) * (dm1 + 2 * dm2 + 2 * dm3 + dm4)
                c = c + (h / 6.0) * (dc1 + 2 * dc2 + 2 * dc3 + dc4)
                c = 0.5 * (c + c.T)
            return m, c

        m, c = np.zeros(1), np.zeros((1, 1))
        m, c = chain_segment(mminf(lam=45.0, horizon=4.0), np.linspace(0.0, 2.0, 201), m, c)
        np.testing.assert_allclose(whole.means[0], m, atol=1e-12)
        m, c = chain_segment(mminf(lam=55.0, horizon=4.0), np.linspace(2.0, 4.0, 201), m, c)
        np.testing.assert_allclose(whole.means[1], m, atol=1e-12)
        np.testing.assert_allclose(whole.covs[1], c, atol=1e-12)

    def test_divergence_reports_last_good_time(self):
        exploding = NetworkModel(
            1,
            (Transition((1,), RateTerm(TimeSchedule.constant(100.0), Linear((1.0,)))),),
            (1,),
            10.0,
        )
        with pytest.raises(DivergenceError) as err:
            qm.solve(exploding, SolverConfig(method="fluid", grid=np.array([10.0])))
        assert 0.0 <= err.value.last_time < 10.0

    @pytest.mark.parametrize(
        "method, last_time, between",
        [("adjusted", 1.55, "t=1.55 and t=1.56"), ("measure-zero", 0.0, "t=0 and t=1")],
    )
    def test_divergence_names_the_last_finite_time(self, method, last_time, between):
        """A birth process at rate 1000 x fed at rate 1e-300 overflows: the
        RK4 state after t = 1.55, measure-zero's covariance when it is first
        formed, at the t = 1 sample (its mean stays finite until t = 1.41)."""
        model = NetworkModel(
            1,
            (
                Transition((1,), RateTerm(TimeSchedule.constant(1e-300), Constant())),
                Transition((1,), RateTerm(TimeSchedule.constant(1000.0), Linear((1.0,)))),
            ),
            (0,),
            10.0,
        )
        with pytest.raises(DivergenceError, match=between) as err:
            qm.solve(model, SolverConfig(method=method, grid=np.arange(0.0, 3.0)))
        assert err.value.last_time == pytest.approx(last_time, rel=0.0, abs=1e-12)

    def test_divergence_after_last_sample_is_not_reached(self):
        exploding = NetworkModel(
            1,
            (Transition((1,), RateTerm(TimeSchedule.constant(100.0), Linear((1.0,)))),),
            (1,),
            10.0,
        )
        out = qm.solve(exploding, SolverConfig(method="fluid", grid=np.array([0.0, 0.1])))
        assert np.all(np.isfinite(out.means))

    @pytest.mark.parametrize("method", METHODS)
    def test_solve_stops_at_last_sample_bitwise(self, method):
        """Rows up to t = 15 do not depend on how far the grid goes."""
        model = qm.build_retrial(*qm.retrial_preset(7)[:2])
        short = qm.solve(model, SolverConfig(method=method, grid=np.arange(6.0, 16.0)))
        full = qm.solve(model, SolverConfig(method=method, grid=np.arange(6.0, 21.0)))
        assert np.array_equal(short.means, full.means[:10])
        assert np.array_equal(short.covs, full.covs[:10])

    def test_rhs_runs_four_stages_per_step_up_to_last_sample(self):
        """The RK4 engine (adjusted only): 250 steps of 0.01 reach t = 2.5,
        the last sample, of horizon 10, on the mean and covariance; every
        stage receives the one plan segment's compiled terms."""
        calls = []

        def rhs(terms, y):
            calls.append((terms, y.shape))
            return np.zeros_like(y)

        model = mminf(horizon=10.0)
        grid = np.array([1.0, 2.5])
        _solve_moments(model, SolverConfig(grid=grid), rhs, "adjusted")
        assert len(calls) == 4 * 250
        assert all(terms == compile_terms(model, 0.0) for terms, _ in calls)
        assert {shape for _, shape in calls} == {(2,)}

    @pytest.mark.parametrize("method", FLOW_METHODS)
    def test_flow_probes_every_node_up_to_last_sample(self, method, monkeypatch):
        """Fluid and measure-zero take one cached exponential step per probe
        node: 250 steps of 0.01 reach t = 2.5, the last sample, of horizon 10,
        and M/M/inf crosses no switching surface."""
        steps = []
        step = _Region.step

        def counted(region, h):
            steps.append(h)
            return step(region, h)

        monkeypatch.setattr(_Region, "step", counted)
        grid = np.array([1.0, 2.5])
        out = qm.solve(mminf(horizon=10.0), SolverConfig(method=method, grid=grid))
        assert len(steps) == 250
        assert sum(steps) == pytest.approx(2.5, rel=0.0, abs=1e-12)
        assert out.crossings == []

    @pytest.mark.parametrize(
        "short, full",
        [([1.0, 2.0 + 5e-10], [1.0, 2.0 + 5e-10, 4.0]), ([1.0, 4.0 + 5e-10], [1.0, 4.0])],
        ids=["breakpoint", "horizon"],
    )
    def test_last_sample_within_tolerance_keeps_the_mesh(self, short, full):
        """A last sample within GRID_TOL of a breakpoint (t = 2) or of the
        horizon (t = 4) reports the state at that node, as a longer grid does."""
        model = mminf(horizon=4.0, arrival=TimeSchedule.alternating(45, 55, 2.0, 4.0))
        got = qm.solve(model, SolverConfig(method="adjusted", grid=np.array(short)))
        want = qm.solve(model, SolverConfig(method="adjusted", grid=np.array(full)))
        assert np.array_equal(got.means, want.means[:2])
        assert np.array_equal(got.covs, want.covs[:2])

    def test_method_dispatch(self):
        for method, canonical in (("fluid", "fluid"), ("adjusted", "adjusted"),
                                  ("measure-zero", "measure-zero"),
                                  ("measure_zero", "measure-zero")):
            cfg = SolverConfig(method=method, grid=np.array([1.0]))
            assert cfg.method == canonical
            assert qm.solve(mminf(), cfg).method == canonical

    @pytest.mark.parametrize("method", ["exact", "simulate", "nonsense", "", None, 1])
    def test_unknown_method_rejected_at_construction(self, method):
        with pytest.raises(UsageError, match="unknown solver method"):
            SolverConfig(method=method)

    @pytest.mark.parametrize(
        "dt", [True, False, "0.1", None, 0, -0.1, float("nan"), float("inf"), [0.1]]
    )
    def test_bad_dt_rejected_at_construction(self, dt):
        with pytest.raises(UsageError, match="dt"):
            SolverConfig(dt=dt)

    def test_whole_and_numpy_dt_read_as_float(self):
        for dt in (1, np.float64(0.5)):
            cfg = SolverConfig(dt=dt)
            assert type(cfg.dt) is float and cfg.dt == dt

    def test_config_cannot_be_made_invalid_after_construction(self):
        cfg = SolverConfig(method="fluid")
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.method = "nonsense"
        with pytest.raises(UsageError):
            replace(cfg, dt=0)

    def test_fluid_reports_zero_covariance(self):
        """``solve`` runs fluid when asked, not the default adjusted method,
        whose M/M/inf covariance is positive."""
        model, grid = mminf(), np.array([0.5, 1.0, 2.0])
        fluid = qm.solve(model, SolverConfig(method="fluid", grid=grid))
        assert fluid.method == "fluid" and np.all(fluid.covs == 0.0)
        assert np.all(qm.solve(model, SolverConfig(grid=grid)).covs[:, 0, 0] > 0.0)

    def test_grid_outside_horizon_rejected(self):
        with pytest.raises(UsageError):
            qm.solve(mminf(horizon=2.0), SolverConfig(method="fluid", grid=np.array([3.0])))

    @pytest.mark.parametrize(
        "grid",
        [
            [], [[1.0, 2.0]], [6.0, float("nan")], [6.0, 6.0, 7.0], [-1e-10, 1.0],
            [1.0, 1.0 + 1e-12],
        ],
        ids=["empty", "2-d", "nan", "repeat", "negative", "near-repeat"],
    )
    def test_empty_or_2d_grid_rejected(self, grid):
        with pytest.raises(UsageError):
            qm.solve(mminf(horizon=10.0), SolverConfig(method="fluid", grid=grid))
