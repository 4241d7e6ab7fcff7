import math

import numpy as np
import pytest

import qmoments as qm
from qmoments import (
    CappedResidual,
    Linear,
    MinPair,
    MinThreshold,
    MomentPoint,
    NumericalError,
    PositivePart,
    RateTerm,
    TimeSchedule,
    UsageError,
)

from helpers import (
    capped_residual_expect,
    gauss_expect_1d,
    nested_gauss_expect,
    random_moment_point,
)

UNIT = TimeSchedule.constant(1.0)


def term(kernel, coeff=1.0):
    return RateTerm(TimeSchedule.constant(coeff), kernel)


def point2(m1, m2, s1, s2, rho=0.0):
    cov = np.array(
        [[s1 * s1, rho * s1 * s2], [rho * s1 * s2, s2 * s2]], dtype=float
    )
    return MomentPoint(np.array([m1, m2], dtype=float), cov)


class TestNormalFunctions:
    def test_pdf_at_zero(self):
        assert qm.normal_pdf(0.0) == pytest.approx(0.3989422804014327, abs=1e-15)

    def test_cdf_symmetry_point(self):
        assert qm.normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_cdf_at_1_96(self):
        # 0.97500210485177956586 to 20 digits (high-precision erf evaluation)
        assert qm.normal_cdf(1.96) == pytest.approx(0.9750021048517796, abs=1e-12)

    def test_cdf_matches_erf_identity_on_grid(self):
        for z in np.linspace(-8, 8, 33):
            expected = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
            assert qm.normal_cdf(z) == pytest.approx(expected, abs=1e-12)


class TestExpectedKernel:
    def test_min_threshold_standard_case(self):
        """Threshold at the mean of a standard normal: E[min(X, 0)] = -pdf(0)."""
        p = point2(0.0, 0.0, 1.0, 1.0)
        value = qm.expected_kernel(term(MinThreshold(0, TimeSchedule.constant(0.0))), 0.0, p)
        assert value == pytest.approx(-0.3989422804014327, abs=1e-12)
        oracle = gauss_expect_1d(lambda x: min(x, 0.0), 0.0, 1.0, kinks=[0.0])
        assert value == pytest.approx(oracle, abs=1e-10)

    def test_positive_part_at_threshold(self):
        """Kink at the mean reduces to sigma/sqrt(2*pi); coefficient 2 * 0.5."""
        p = point2(50.0, 0.0, 1.0, 1.0)
        value = qm.expected_kernel(
            term(PositivePart(0, TimeSchedule.constant(50.0))), 0.0, p
        )
        assert value == pytest.approx(0.3989422804014327, abs=1e-12)

    def test_min_pair_independent_standard(self):
        p = point2(0.0, 0.0, 1.0, 1.0)
        value = qm.expected_kernel(term(MinPair(0, 1)), 0.0, p)
        assert value == pytest.approx(-0.5641895835477563, abs=1e-12)

    def test_min_pair_correlated_against_double_quadrature(self):
        p = point2(3.0, 5.0, 2.0, 1.5, rho=0.4)
        value = qm.expected_kernel(term(MinPair(0, 1)), 0.0, p)
        # frozen from 30-digit evaluation of the same expectation
        assert value == pytest.approx(2.8424418565004752, abs=1e-12)
        oracle = nested_gauss_expect(lambda x, y: min(x, y), p.mean, p.cov, lambda y: y)
        assert value == pytest.approx(oracle, abs=1e-8)

    def test_degenerate_sigma_is_pointwise(self):
        p = MomentPoint(np.array([60.0]), np.array([[0.0]]))
        value = qm.expected_kernel(
            RateTerm(UNIT, MinThreshold(0, TimeSchedule.constant(50.0))), 0.0, p
        )
        assert value == 50.0

    def test_small_sigma_close_to_pointwise(self):
        for kernel in (
            MinThreshold(0, TimeSchedule.constant(50.0)),
            PositivePart(0, TimeSchedule.constant(50.0)),
            MinPair(0, 1),
            CappedResidual(0, 1, TimeSchedule.constant(50.0)),
        ):
            p = point2(47.0, 30.0, 1e-6, 1e-6)
            value = qm.expected_kernel(term(kernel), 0.0, p)
            from qmoments.model import kernel_value

            assert value == pytest.approx(kernel_value(kernel, 0.0, p.mean), abs=1e-6)

    def test_capped_residual_exhausted_capacity(self):
        p = point2(220.0, 30.0, 0.01, 0.01)
        value = qm.expected_kernel(
            term(CappedResidual(1, 0, TimeSchedule.constant(200.0))), 0.0, p
        )
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_capped_residual_against_double_quadrature(self):
        p = point2(5.0, 3.0, 2.0, 2.0)
        value = qm.expected_kernel(
            term(CappedResidual(0, 1, TimeSchedule.constant(10.0))), 0.0, p
        )
        oracle = capped_residual_expect(p.mean, p.cov, 10.0)
        assert value == pytest.approx(oracle, abs=1e-8)

    def test_decomposition_identity(self):
        """E[min(X, n)] + E[(X - n)^+] = E[X] for any moment point."""
        rng = np.random.default_rng(21)
        n = TimeSchedule.constant(40.0)
        for _ in range(300):
            p = random_moment_point(rng, 2)
            total = qm.expected_kernel(
                RateTerm(UNIT, MinThreshold(0, n)), 0.0, p
            ) + qm.expected_kernel(RateTerm(UNIT, PositivePart(0, n)), 0.0, p)
            assert total == pytest.approx(p.mean[0], abs=1e-10 * max(1, abs(p.mean[0])))

    def test_monotone_in_mean(self):
        rng = np.random.default_rng(23)
        n = TimeSchedule.constant(10.0)
        for kernel in (MinThreshold(0, n), PositivePart(0, n)):
            for _ in range(100):
                s = 10 ** rng.uniform(-2, 1.5)
                lo, hi = sorted(rng.uniform(-30, 60, 2))
                v_lo = qm.expected_kernel(
                    term(kernel), 0.0, point2(lo, 0.0, s, 1.0)
                )
                v_hi = qm.expected_kernel(
                    term(kernel), 0.0, point2(hi, 0.0, s, 1.0)
                )
                assert v_hi >= v_lo - 1e-12

    def test_corrupt_covariance_raises(self):
        p = MomentPoint(np.zeros(2), np.array([[1.0, 3.0], [3.0, 1.0]]))
        with pytest.raises(NumericalError):
            qm.expected_kernel(term(MinPair(0, 1)), 0.0, p)


class TestCappedResidual:
    """The closed form against nested adaptive quadrature and its own limits."""

    @staticmethod
    def closed(p, n, coeff=1.0):
        t = term(CappedResidual(0, 1, TimeSchedule.constant(n)), coeff)
        return qm.expected_kernel(t, 0.0, p), qm.expected_kernel_grad_mean(t, 0.0, p)

    def test_random_points_against_nested_quadrature(self):
        rng = np.random.default_rng(47)
        h = 1e-4
        for _ in range(12):
            p = random_moment_point(rng, 2, sigma_lo=0.1, sigma_hi=50.0)
            n = rng.uniform(-20.0, 120.0)
            value, grad = self.closed(p, n, coeff=1.7)
            oracle = capped_residual_expect(p.mean, p.cov, n)
            assert value == pytest.approx(1.7 * oracle, abs=1e-8)
            for b in range(2):
                up, down = p.mean.copy(), p.mean.copy()
                up[b] += h
                down[b] -= h
                fd = (
                    capped_residual_expect(up, p.cov, n)
                    - capped_residual_expect(down, p.cov, n)
                ) / (2 * h)
                assert grad[b] == pytest.approx(1.7 * fd, abs=1e-6)

    def test_zero_covariance_is_pointwise(self):
        """The first Runge-Kutta stage starts from cov = 0."""
        from qmoments.model import kernel_value

        kernel = CappedResidual(0, 1, TimeSchedule.constant(10.0))
        for mean in ([4.0, 3.0], [9.0, 3.0], [4.0, 12.0], [-2.0, 12.0], [0.0, 10.0]):
            p = MomentPoint(np.array(mean), np.zeros((2, 2)))
            value, grad = self.closed(p, 10.0)
            assert value == kernel_value(kernel, 0.0, p.mean)
            assert np.all(np.isfinite(grad))

    @pytest.mark.parametrize("component", [0, 1])
    def test_vanishing_variance_is_continuous(self, component):
        """|E_eps - E_0| <= eps: the kernel is 1-Lipschitz in each argument."""
        sig = np.array([3.0, 4.0])
        mean = np.array([5.0, 6.0])
        limit = None
        for eps in (0.0, 1e-12, 1e-6, 1e-3, 1e-1):
            sig[component] = eps
            p = point2(*mean, *sig, rho=0.6)
            value, grad = self.closed(p, 10.0)
            assert np.isfinite(value) and np.all(np.isfinite(grad))
            if limit is None:
                limit = value
            assert abs(value - limit) <= eps + 1e-12

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_perfect_correlation_limit(self, sign):
        """|rho| -> 1 approaches the one-dimensional integral along the line."""
        m1, m2, s1, s2, n = 5.0, 6.0, 3.0, 4.0, 10.0

        def along_line(z):
            return min(m1 + s1 * z, max(n - m2 - sign * s2 * z, 0.0))

        kinks = [(n - m2) / (sign * s2), (n - m1 - m2) / (s1 + sign * s2)]
        line = gauss_expect_1d(along_line, 0.0, 1.0, kinks=kinks)
        exact, _ = self.closed(point2(m1, m2, s1, s2, rho=sign), n)
        assert exact == pytest.approx(line, abs=1e-9)
        for delta in (1e-4, 1e-8, 1e-12):
            value, grad = self.closed(point2(m1, m2, s1, s2, rho=sign * (1 - delta)), n)
            assert np.all(np.isfinite(grad))
            assert abs(value - exact) <= 2 * s1 * math.sqrt(2 * delta) + 1e-12

    def test_roundoff_indefinite_block(self):
        """A block a few ulps past rho = 1 gives the rho = 1 value."""
        s1, s2 = 3.0, 4.0
        exact, _ = self.closed(point2(5.0, 6.0, s1, s2, rho=1.0), 10.0)
        cov = np.array([[s1 * s1, s1 * s2 * (1 + 1e-14)], [s1 * s2 * (1 + 1e-14), s2 * s2]])
        value, grad = self.closed(MomentPoint(np.array([5.0, 6.0]), cov), 10.0)
        assert np.all(np.isfinite(grad))
        assert value == pytest.approx(exact, abs=1e-12)


class TestGradients:
    def test_positive_part_gradient_at_kink(self):
        p = point2(50.0, 0.0, 1.0, 1.0)
        grad = qm.expected_kernel_grad_mean(
            term(PositivePart(0, TimeSchedule.constant(50.0))), 0.0, p
        )
        assert grad[0] == pytest.approx(0.5, abs=1e-12)
        assert grad[1] == 0.0

    def test_linear_gradient_constant(self):
        p1 = point2(1.0, 2.0, 1.0, 1.0)
        p2 = point2(-7.0, 30.0, 5.0, 0.2, rho=0.5)
        t = term(Linear((0.0, 0.7)), coeff=2.0)
        np.testing.assert_allclose(
            qm.expected_kernel_grad_mean(t, 0.0, p1), [0.0, 1.4]
        )
        np.testing.assert_allclose(
            qm.expected_kernel_grad_mean(t, 0.0, p2), [0.0, 1.4]
        )

    def test_min_threshold_gradient_bounded_by_coefficient(self):
        rng = np.random.default_rng(29)
        mu = 1.7
        t = term(MinThreshold(0, TimeSchedule.constant(20.0)), coeff=mu)
        for _ in range(200):
            p = random_moment_point(rng, 2, sigma_lo=1e-2)
            g = qm.expected_kernel_grad_mean(t, 0.0, p)[0]
            assert 0.0 <= g <= mu + 1e-12

    def test_gradients_match_finite_differences(self):
        """Analytic mean-gradients agree with central differences of the value."""
        rng = np.random.default_rng(31)
        n = TimeSchedule.constant(15.0)
        kernels = [
            MinThreshold(0, n),
            PositivePart(1, n),
            MinPair(0, 1),
            CappedResidual(0, 1, n),
            Linear((0.4, 1.1)),
        ]
        h = 1e-5
        for kernel in kernels:
            t = term(kernel, coeff=1.3)
            for _ in range(40):
                p = random_moment_point(rng, 2, sigma_lo=0.1, sigma_hi=50.0)
                grad = qm.expected_kernel_grad_mean(t, 0.0, p)
                for b in range(2):
                    mp, mm = p.mean.copy(), p.mean.copy()
                    mp[b] += h
                    mm[b] -= h
                    fd = (
                        qm.expected_kernel(t, 0.0, MomentPoint(mp, p.cov))
                        - qm.expected_kernel(t, 0.0, MomentPoint(mm, p.cov))
                    ) / (2 * h)
                    scale = max(1.0, abs(grad[b]), abs(fd))
                    assert abs(grad[b] - fd) <= 1e-6 * scale


class TestDriftAssembly:
    def test_all_linear_closed_drift_is_pointwise(self):
        """Constant/linear rates make the closed drift exact at the mean."""
        model = qm.NetworkModel(
            2,
            (
                qm.Transition((1, 0), RateTerm(TimeSchedule.constant(3.0), qm.Constant())),
                qm.Transition((-1, 1), RateTerm(TimeSchedule.constant(0.5), Linear((1.0, 0.0)))),
                qm.Transition((0, -1), RateTerm(TimeSchedule.constant(0.2), Linear((0.0, 1.0)))),
            ),
            (0, 0),
            5.0,
        )
        rng = np.random.default_rng(37)
        for _ in range(20):
            p = random_moment_point(rng, 2)
            np.testing.assert_allclose(
                qm.closed_drift(model, 1.0, p),
                qm.drift(model, 1.0, p.mean),
                rtol=1e-12,
                atol=1e-12,
            )

    def test_zero_covariance_reduces_to_pointwise_drift(self):
        params, horizon, _ = qm.retrial_preset(7)
        model = qm.build_retrial(params, horizon)
        mean = np.array([30.0, 5.0])  # smooth region, away from the kink
        p = MomentPoint(mean, np.zeros((2, 2)))
        np.testing.assert_allclose(
            qm.closed_drift(model, 0.5, p), qm.drift(model, 0.5, mean), rtol=1e-12
        )

    def test_closed_drift_matches_per_term_quadrature_sum(self):
        params, horizon, _ = qm.retrial_preset(7)
        model = qm.build_retrial(params, horizon)
        p = point2(50.0, 10.0, 3.0, 3.0)
        rule = 64
        expected = np.zeros(2)
        for tr in model.transitions:
            expected += np.asarray(tr.jump) * qm.quad_expected_kernel(
                tr.rate, 0.0, p, rule
            )
        np.testing.assert_allclose(
            qm.closed_drift(model, 0.0, p), expected, atol=1e-8
        )

    def test_jacobian_all_linear_is_constant(self):
        model = qm.NetworkModel(
            1,
            (qm.Transition((-1,), RateTerm(TimeSchedule.constant(0.8), Linear((1.0,)))),),
            (0,),
            5.0,
        )
        p = MomentPoint(np.array([4.0]), np.array([[2.0]]))
        np.testing.assert_allclose(
            qm.closed_drift_jacobian(model, 0.0, p), [[-0.8]]
        )

    def test_jacobian_smooth_across_threshold(self):
        """With a wide marginal the Jacobian varies smoothly through the kink."""
        params, horizon, _ = qm.retrial_preset(7)
        model = qm.build_retrial(params, horizon)
        entries = []
        for m1 in np.linspace(45.0, 55.0, 21):
            p = point2(m1, 10.0, 8.0, 3.0)
            entries.append(qm.closed_drift_jacobian(model, 0.0, p)[0, 0])
        steps = np.abs(np.diff(entries))
        assert steps.max() < 0.05  # no jump between neighbouring means


class TestNoiseMatrix:
    def test_empty_system_column(self):
        model = qm.NetworkModel(
            1,
            (
                qm.Transition((1,), RateTerm(TimeSchedule.constant(2.0), qm.Constant())),
                qm.Transition((-1,), RateTerm(TimeSchedule.constant(1.0), Linear((1.0,)))),
            ),
            (0,),
            2.0,
        )
        p = MomentPoint(np.zeros(1), np.zeros((1, 1)))
        b = qm.noise_matrix(model, 0.0, p)
        np.testing.assert_allclose(b[:, 0], [math.sqrt(2.0)])
        np.testing.assert_allclose(b[:, 1], [0.0])  # zero rate -> zero column

    def test_gram_matrix_is_psd_on_random_points(self):
        params, horizon, _ = qm.retrial_preset(7)
        model = qm.build_retrial(params, horizon)
        rng = np.random.default_rng(41)
        for _ in range(50):
            p = random_moment_point(rng, 2, sigma_lo=0.1, sigma_hi=30.0, mean_lo=0.0)
            b = qm.noise_matrix(model, 1.0, p)
            eigs = np.linalg.eigvalsh(b @ b.T)
            assert eigs.min() >= -1e-12


class TestQuadrature:
    def test_order_floor_enforced(self):
        p = point2(0.0, 0.0, 1.0, 1.0)
        with pytest.raises(UsageError):
            qm.quad_expected_kernel(
                term(MinPair(0, 1)), 0.0, p, 8
            )

    def test_constant_kernel_exact(self):
        p = point2(1.0, 1.0, 5.0, 5.0)
        rule = 32
        value = qm.quad_expected_kernel(term(qm.Constant(), coeff=7.5), 0.0, p, rule)
        assert value == 7.5

    def test_min_threshold_oracle_value(self):
        p = point2(0.0, 0.0, 1.0, 1.0)
        rule = 64
        value = qm.quad_expected_kernel(
            term(MinThreshold(0, TimeSchedule.constant(0.0))), 0.0, p, rule
        )
        assert value == pytest.approx(-0.3989422804014327, abs=1e-8)

    def test_closed_forms_match_quadrature_across_scales(self):
        rng = np.random.default_rng(43)
        rule = 64
        for _ in range(200):
            p = random_moment_point(rng, 2, sigma_lo=1e-3, sigma_hi=100.0)
            n = TimeSchedule.constant(rng.uniform(-20, 120))
            for kernel in (MinThreshold(0, n), PositivePart(0, n), MinPair(0, 1)):
                t = term(kernel)
                closed = qm.expected_kernel(t, 0.0, p)
                quad = qm.quad_expected_kernel(t, 0.0, p, rule)
                assert abs(closed - quad) < 1e-8
