"""Geometric noise schedule and sampling-plan parameterization tests.

The schedule is sigma(t) = sigma_min * (sigma_max / sigma_min)^t on t in
[0, 1]. A sampling plan discretizes t into N uniform steps and derives the
per-step constants

    gamma = (sigma_min / sigma_max)^(1/(N-1))
    eta   = 1 - gamma^epsilon
    beta  = sqrt(1 - gamma^(2*epsilon - 2))

so that gamma^(N-1) recovers sigma_min / sigma_max exactly and epsilon = 1
yields a fully deterministic (beta = 0) sampler.
"""

from __future__ import annotations

import numpy as np
import pytest

from scorewave import ConfigError, NoiseSchedule, make_plan


class TestSigmaAt:
    def test_endpoints(self):
        """sigma(0) = sigma_min and sigma(1) = sigma_max to 1e-12 relative."""
        sched = NoiseSchedule()
        np.testing.assert_allclose(sched.sigma_at(0.0), sched.sigma_min, rtol=1e-12)
        np.testing.assert_allclose(sched.sigma_at(1.0), sched.sigma_max, rtol=1e-12)

    def test_geometric_midpoint(self):
        """sigma(1/2) is the geometric mean of the endpoints."""
        sched = NoiseSchedule(sigma_min=2e-3, sigma_max=8.0)
        np.testing.assert_allclose(
            sched.sigma_at(0.5), np.sqrt(sched.sigma_min * sched.sigma_max), rtol=1e-12
        )

    def test_log_linear(self):
        """log sigma(t) is affine in t: equal steps in t multiply sigma by a
        constant ratio."""
        sched = NoiseSchedule()
        t = np.linspace(0.0, 1.0, 17)
        ratios = np.diff(np.log(sched.sigma_at(t)))
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-10)

    def test_monotone_and_vectorized(self):
        sched = NoiseSchedule()
        t = np.linspace(0.0, 1.0, 1001)
        s = sched.sigma_at(t)
        assert s.shape == t.shape
        assert np.all(np.diff(s) > 0)

    def test_scalar_returns_float(self):
        assert isinstance(NoiseSchedule().sigma_at(0.25), float)

    @pytest.mark.parametrize("t", [-0.01, 1.01, 2.0, -1e9])
    def test_domain_error(self, t):
        with pytest.raises(ConfigError):
            NoiseSchedule().sigma_at(t)

    def test_domain_error_vector(self):
        with pytest.raises(ConfigError):
            NoiseSchedule().sigma_at(np.array([0.0, 0.5, 1.0000001]))


class TestScheduleValidation:
    @pytest.mark.parametrize(
        "smin,smax",
        [(0.0, 1.0), (-1e-3, 1.0), (1.0, 1.0), (2.0, 1.0), (1e-3, np.inf), (np.nan, 1.0)],
    )
    def test_rejects_bad_bounds(self, smin, smax):
        with pytest.raises(ConfigError):
            NoiseSchedule(sigma_min=smin, sigma_max=smax)

    def test_defaults(self):
        sched = NoiseSchedule()
        assert sched.sigma_min == 5e-4
        assert sched.sigma_max == 5.0


class TestMakePlan:
    @pytest.mark.parametrize("n_steps", [2, 8, 64, 1000])
    def test_gamma_power_identity(self, n_steps):
        """gamma^(N-1) = sigma_min / sigma_max to 1e-12 relative."""
        sched = NoiseSchedule()
        plan = make_plan(sched, n_steps, 2.3)
        np.testing.assert_allclose(
            plan.gamma ** (n_steps - 1), sched.sigma_min / sched.sigma_max, rtol=1e-12
        )

    def test_beta_zero_at_epsilon_one(self):
        """epsilon = 1 collapses the noise injection exactly: beta == 0.0."""
        for n_steps in (2, 8, 64, 200):
            assert make_plan(NoiseSchedule(), n_steps, 1.0).beta == 0.0

    def test_eta_definition(self):
        plan = make_plan(NoiseSchedule(), 64, 2.3)
        np.testing.assert_allclose(plan.eta, 1.0 - plan.gamma**2.3, rtol=1e-14)

    def test_beta_definition(self):
        """beta^2 = 1 - ((1 - eta)/gamma)^2, the noise-consistency condition."""
        plan = make_plan(NoiseSchedule(), 64, 2.3)
        np.testing.assert_allclose(
            plan.beta**2, 1.0 - ((1.0 - plan.eta) / plan.gamma) ** 2, rtol=1e-12
        )

    def test_beta_increases_with_epsilon(self):
        betas = [make_plan(NoiseSchedule(), 32, e).beta for e in (1.0, 1.5, 2.3, 3.0, 6.0)]
        assert all(b2 > b1 for b1, b2 in zip(betas, betas[1:]))

    def test_sigma_ladder(self):
        """plan.sigmas is ascending, endpoints are the schedule bounds, and
        consecutive entries have ratio 1/gamma."""
        sched = NoiseSchedule()
        plan = make_plan(sched, 64, 1.5)
        s = plan.sigmas
        assert s.shape == (64,)
        np.testing.assert_allclose(s[0], sched.sigma_min, rtol=1e-12)
        np.testing.assert_allclose(s[-1], sched.sigma_max, rtol=1e-12)
        np.testing.assert_allclose(s[:-1] / s[1:], plan.gamma, rtol=1e-10)

    def test_sigmas_read_only(self):
        plan = make_plan(NoiseSchedule(), 8, 1.5)
        with pytest.raises(ValueError):
            plan.sigmas[0] = 1.0

    @pytest.mark.parametrize("n_steps,eps", [(0, 1.5), (8, 0.99), (8, 0.0), (8, -1.0),
                                             (1, 0.99), (1, np.nan)])
    def test_rejects_bad_plan_args(self, n_steps, eps):
        """N below 1 and an epsilon that is not finite and >= 1 are
        rejected, at N = 1 too, whose one denoising step does not use it."""
        with pytest.raises(ConfigError):
            make_plan(NoiseSchedule(), n_steps, eps)

    def test_zero_steps_names_the_bound_of_one(self):
        with pytest.raises(ConfigError, match="n_steps must be >= 1"):
            make_plan(NoiseSchedule(), 0, 1.5)

    @pytest.mark.parametrize("eps", [np.nan, np.inf])
    def test_rejects_non_finite_epsilon(self, eps):
        """NaN passes an ``epsilon < 1`` test, and an infinite epsilon would
        make every step a full jump; both are configuration errors."""
        with pytest.raises(ConfigError, match="epsilon"):
            make_plan(NoiseSchedule(), 8, eps)

    def test_one_step_plan(self):
        """The single-evaluation plan holds exactly one sigma: sigma_max."""
        sched = NoiseSchedule(sigma_min=1e-3, sigma_max=7.3)
        plan = make_plan(sched, 1, 2.3)
        assert plan.n_steps == 1
        assert plan.sigmas.tolist() == [sched.sigma_max]
