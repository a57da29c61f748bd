"""Analytic Gaussian-mixture score oracle tests.

A mixture of isotropic Gaussians convolved with N(0, sigma^2 I) stays a
mixture (component variances v_i + sigma^2), so both log p_sigma and its
gradient have closed forms. The independent check throughout is central
finite differencing of log_density: the score must be its gradient.
"""

from __future__ import annotations

import numpy as np
import pytest

from scorewave import ConfigError, GmmPrior
from scorewave.oracle import (
    _conjugate_update,
    _log_terms,
    _mixture_score,
    log_density,
    perturbed_score,
    posterior_prior,
    posterior_score,
    score_function,
)
from scorewave.oracle import sample as sample_prior


def fd_score(prior, x, sigma, h=1e-5):
    """Central finite difference of log_density along each coordinate."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    g = np.empty_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (log_density(prior, x + e, sigma) - log_density(prior, x - e, sigma)) / (2 * h)
    return g


class TestClosedForms:
    def test_single_gaussian_score(self):
        """For one component N(0, s^2): score(x) = -x / (s^2 + sigma^2)."""
        prior = GmmPrior(weights=[1.0], means=[0.0], variances=[2.25])
        x = np.linspace(-3, 3, 11)
        for sigma in (0.0, 0.3, 5.0):
            np.testing.assert_allclose(
                perturbed_score(prior, x, sigma), -x / (2.25 + sigma**2), rtol=1e-12
            )

    def test_symmetric_mixture_zero_at_origin(self):
        """Equal weights, means +-m, equal variances: score(0) = 0."""
        prior = GmmPrior(weights=[0.5, 0.5], means=[-1.7, 1.7], variances=[0.4, 0.4])
        for sigma in (0.0, 1.0):
            assert perturbed_score(prior, 0.0, sigma) == pytest.approx(0.0, abs=1e-14)

    def test_log_density_standard_normal_origin(self):
        """N(0,1) at x=0, sigma=0: log density is -ln(2*pi)/2."""
        prior = GmmPrior(weights=[1.0], means=[0.0], variances=[1.0])
        np.testing.assert_allclose(log_density(prior, 0.0, 0.0), -0.5 * np.log(2 * np.pi), rtol=1e-14)

    def test_log_density_perturbed_gaussian(self):
        """Unit-variance component at sigma = sqrt(3): density is N(x; 0, 4)."""
        prior = GmmPrior(weights=[1.0], means=[0.0], variances=[1.0])
        x, var = 2.0, 4.0
        expected = -0.5 * np.log(2 * np.pi * var) - 0.5 * x**2 / var
        np.testing.assert_allclose(log_density(prior, x, np.sqrt(3.0)), expected, rtol=1e-14)

    def test_density_integrates_to_one(self):
        """Trapezoid quadrature of exp(log_density) over a wide grid ~ 1."""
        prior = GmmPrior(weights=[0.2, 0.5, 0.3], means=[-3.0, 0.5, 2.0], variances=[0.5, 1.0, 0.2])
        grid = np.linspace(-15.0, 15.0, 20001)
        for sigma in (0.0, 0.7, 2.0):
            mass = np.trapezoid(np.exp(log_density(prior, grid, sigma)), grid)
            np.testing.assert_allclose(mass, 1.0, atol=1e-4)


class TestScoreIsGradient:
    def test_three_component_grid(self):
        """Score matches finite differences of log_density on a fixed grid."""
        prior = GmmPrior(weights=[0.3, 0.5, 0.2], means=[-2.0, 0.0, 1.5], variances=[0.3, 1.0, 0.05])
        for sigma in (0.0, 0.05, 1.0):
            for x in np.linspace(-4.0, 4.0, 17):
                s = perturbed_score(prior, x, sigma)
                np.testing.assert_allclose(s, fd_score(prior, x, sigma)[0], rtol=1e-6, atol=1e-9)

    def test_random_points_multidim(self):
        """100 random 3-D points, several sigmas: relative error < 1e-5."""
        rng = np.random.default_rng(11)
        prior = GmmPrior(
            weights=[0.25, 0.25, 0.5],
            means=rng.normal(size=(3, 3)),
            variances=[0.2, 0.9, 0.5],
        )
        for sigma in (5e-4, 0.05, 1.0, 5.0):
            pts = rng.uniform(-3, 3, size=(100, 3))
            for x in pts:
                s = perturbed_score(prior, x, sigma)
                ref = fd_score(prior, x, sigma)
                np.testing.assert_allclose(s, ref, rtol=1e-5, atol=1e-8)

    def test_large_sigma_limit(self):
        """As sigma -> inf the mixture looks like one wide Gaussian centered
        on its mean: score -> -(x - mean)/sigma^2, which is -x/sigma^2 for a
        zero-mean prior."""
        sigma = 1e3 * 5.0
        centered = GmmPrior(weights=[0.4, 0.6], means=[-1.5, 1.0], variances=[0.3, 0.8])
        x = np.linspace(-5, 5, 9)
        np.testing.assert_allclose(
            perturbed_score(centered, x, sigma), -x / sigma**2, rtol=1e-3, atol=1e-12
        )

        skewed = GmmPrior(weights=[0.4, 0.6], means=[-1.0, 2.0], variances=[0.3, 0.8])
        mean = float(skewed.weights @ skewed.means[:, 0])
        np.testing.assert_allclose(
            perturbed_score(skewed, x, sigma), -(x - mean) / sigma**2, rtol=1e-3, atol=1e-12
        )

    def test_translation_equivariance(self):
        """Shifting every mean by delta shifts the score field: s'(x) = s(x - delta)."""
        rng = np.random.default_rng(3)
        prior = GmmPrior(weights=[0.3, 0.7], means=[[0.0, 1.0], [2.0, -1.0]], variances=[0.4, 0.9])
        delta = np.array([0.8, -0.3])
        shifted = GmmPrior(weights=prior.weights, means=prior.means + delta, variances=prior.variances)
        x = rng.normal(size=(50, 2))
        np.testing.assert_allclose(
            perturbed_score(shifted, x, 0.3), perturbed_score(prior, x - delta, 0.3), rtol=1e-12
        )


class TestShapesAndBatching:
    def setup_method(self):
        self.prior = GmmPrior(weights=[0.5, 0.5], means=[-1.0, 1.0], variances=[0.2, 0.2])

    def test_scalar_in_scalar_out(self):
        assert isinstance(perturbed_score(self.prior, 0.3, 0.1), float)
        assert isinstance(log_density(self.prior, 0.3, 0.1), float)

    def test_batch_without_last_axis(self):
        x = np.linspace(-1, 1, 7)
        assert perturbed_score(self.prior, x, 0.1).shape == (7,)

    def test_batch_with_last_axis(self):
        x = np.linspace(-1, 1, 7)[:, None]
        assert perturbed_score(self.prior, x, 0.1).shape == (7, 1)

    def test_per_example_sigma(self):
        """A sigma vector applies one noise level per example."""
        x = np.array([0.3, 0.3, 0.3])
        sig = np.array([0.0, 0.5, 2.0])
        batched = perturbed_score(self.prior, x, sig)
        singles = [perturbed_score(self.prior, 0.3, s) for s in sig]
        np.testing.assert_allclose(batched, singles, rtol=1e-12)

    def test_wrong_dim_rejected(self):
        prior = GmmPrior(weights=[1.0], means=[[0.0, 0.0, 0.0]], variances=[1.0])
        with pytest.raises(ConfigError):
            perturbed_score(prior, np.zeros(2), 0.1)

    def test_adapter_ignores_conditioning(self):
        fn = score_function(self.prior)
        x = np.linspace(-1, 1, 5)
        np.testing.assert_allclose(fn(x, np.ones(4), 0.2), perturbed_score(self.prior, x, 0.2))


class TestValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            GmmPrior(weights=[0.5, 0.6], means=[0.0, 1.0], variances=[1.0, 1.0])

    def test_weights_must_be_positive(self):
        with pytest.raises(ConfigError):
            GmmPrior(weights=[1.2, -0.2], means=[0.0, 1.0], variances=[1.0, 1.0])

    def test_empty_mixture(self):
        with pytest.raises(ConfigError):
            GmmPrior(weights=[], means=[], variances=[])

    def test_nonpositive_variance(self):
        with pytest.raises(ConfigError):
            GmmPrior(weights=[1.0], means=[0.0], variances=[0.0])

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            GmmPrior(weights=[0.5, 0.5], means=[0.0, 1.0], variances=[1.0])

    @pytest.mark.parametrize("noise_std", [-1.0, np.nan, np.inf])
    def test_posterior_rejects_bad_noise_std(self, noise_std):
        """A negative noise level used to be squared into a positive one, and
        a NaN one to surface only as a non-finite sampler iterate."""
        prior = GmmPrior(weights=[0.3, 0.7], means=[-2.0, 2.0], variances=[0.1, 0.1])
        with pytest.raises(ConfigError, match="noise_std"):
            posterior_score(prior, np.zeros(3), noise_std)
        with pytest.raises(ConfigError, match="noise_std"):
            posterior_prior(prior, 0.0, noise_std)

    def test_fields_read_only(self):
        prior = GmmPrior(weights=[1.0], means=[0.0], variances=[1.0])
        with pytest.raises(ValueError):
            prior.weights[0] = 0.5


class TestSampling:
    def test_moments(self):
        """Sample mean/variance/component frequencies match the prior."""
        prior = GmmPrior(weights=[0.3, 0.7], means=[-2.0, 2.0], variances=[0.1, 0.1])
        rng = np.random.default_rng(5)
        x = sample_prior(prior, 200_000, rng)
        assert x.shape == (200_000, 1)
        frac_right = np.mean(x[:, 0] > 0)
        np.testing.assert_allclose(frac_right, 0.7, atol=3 * np.sqrt(0.21 / 200_000))
        mean = 0.3 * -2.0 + 0.7 * 2.0
        np.testing.assert_allclose(x.mean(), mean, atol=0.02)

    def test_posterior_prior_matches_grid_bayes(self):
        """Conjugate posterior equals brute-force Bayes on a fine grid.

        p(x | y) with y = x + noise_std * n is proportional to
        p(x) * N(y - x; 0, noise_std^2); compare densities pointwise.
        """
        prior = GmmPrior(weights=[0.4, 0.6], means=[-1.0, 1.5], variances=[0.3, 0.7])
        y, noise_std = 0.4, 0.8
        post = posterior_prior(prior, y, noise_std)
        grid = np.linspace(-6, 6, 4001)
        log_num = log_density(prior, grid) - 0.5 * ((y - grid) / noise_std) ** 2
        num = np.exp(log_num - log_num.max())
        num /= np.trapezoid(num, grid)
        ref = np.exp(log_density(post, grid))
        np.testing.assert_allclose(ref, num, atol=1e-6)

    def test_posterior_score_matches_per_sample_oracle(self):
        """The vectorized per-row posterior score equals building each
        sample's conjugate posterior explicitly and scoring it."""
        rng = np.random.default_rng(3)
        prior = GmmPrior(weights=[0.4, 0.6], means=[-1.0, 1.5],
                         variances=[0.2, 0.05])
        y = rng.standard_normal(16) * 2.0
        score_fn = posterior_score(prior, y, noise_std=0.7)
        x = rng.standard_normal((16, 1))
        for sigma in (0.01, 0.3, 2.0):
            got = score_fn(x, None, sigma)
            for i in range(16):
                post = posterior_prior(prior, y[i], 0.7)
                want = perturbed_score(post, x[i : i + 1], sigma)
                np.testing.assert_allclose(got[i], want[0], rtol=1e-10, atol=1e-12)

    def test_posterior_of_far_observation_drops_underflowed_component(self):
        """y = 250 is so far from the mean -2 component that its posterior
        weight underflows to exactly 0. posterior_prior keeps the surviving
        component and scores like the vectorized per-row posterior."""
        prior = GmmPrior(weights=[0.5, 0.5], means=[-2.0, 2.0], variances=[0.1, 0.1])
        post = posterior_prior(prior, 250.0, noise_std=1.0)
        assert post.weights.size == 1
        x = np.array([[249.0]])
        want = posterior_score(prior, np.array([250.0]), noise_std=1.0)(x, None, 0.5)
        np.testing.assert_allclose(perturbed_score(post, x, 0.5), want, rtol=1e-10)

    def test_posterior_score_is_bit_identical_to_row_major_evaluation(self):
        """The component-major posterior layout changes memory order only:
        the score equals a C-ordered evaluation of the same kernel bit for
        bit, for a scalar sigma and for a per-row sigma vector."""
        rng = np.random.default_rng(8)
        prior = GmmPrior(weights=[0.3, 0.7], means=[-2.0, 2.0], variances=[0.1, 0.1])
        y = rng.standard_normal(4096) * 2.0
        score_fn = posterior_score(prior, y, noise_std=1.0)
        log_w, mean, var = _conjugate_update(prior, y, 1.0)
        log_w, means = np.ascontiguousarray(log_w), np.ascontiguousarray(mean)[..., None]
        x = rng.standard_normal((4096, 1)) * 3.0
        for sigma in (5e-4, 0.01, 0.3, 2.0, 5.0, rng.uniform(1e-3, 5.0, size=4096)):
            want = _mixture_score(*_log_terms(log_w, means, var, x, sigma))
            assert np.array_equal(score_fn(x, None, sigma), want)


def reference_log_terms(log_weights, means, variances, x, sigma):
    """The helpers' expressions as first written, out of place with a
    trailing d axis throughout: the reference the in-place d = 1 path must
    equal bit for bit."""
    x = np.asarray(x, dtype=np.float64)
    d = means.shape[-1]
    if x.shape[-1:] != (d,):
        x = x[..., None]
    pvar = variances + np.asarray(sigma, dtype=np.float64)[..., None] ** 2
    diff = x[..., None, :] - means
    sq = np.sum(diff**2, axis=-1)
    log_terms = log_weights - 0.5 * d * np.log(2.0 * np.pi * pvar) - 0.5 * sq / pvar
    return log_terms, diff, pvar


def reference_mixture_score(log_terms, diff, pvar):
    m = np.max(log_terms, axis=-1, keepdims=True)
    resp = np.exp(log_terms - m)
    resp /= np.sum(resp, axis=-1, keepdims=True)
    return np.sum(resp[..., None] * (-diff) / pvar[..., None], axis=-2)


def assert_helpers_match_reference(log_weights, means, variances, x, sigma):
    args = (log_weights, means, variances, x, sigma)
    copies = [np.array(a, copy=True) for a in args[:4]]
    want_terms = reference_log_terms(*args)[0]
    want = reference_mixture_score(*reference_log_terms(*args))
    got_terms = _log_terms(*args)[0]
    got = _mixture_score(*_log_terms(*args))
    assert got_terms.shape == want_terms.shape and np.array_equal(got_terms, want_terms)
    assert got.shape == want.shape and np.array_equal(got, want)
    for before, after in zip(copies, args[:4]):
        assert np.array_equal(before, np.asarray(after))


SIGMAS = (0.0, 5e-4, 0.3, 5.0)


class TestHelperBits:
    """The d = 1 path of _log_terms/_mixture_score forms its terms in place
    without the trailing d axis; every output bit must stay the reference's.
    The d = 1 prior has nine components: from eight terms on, numpy's sum
    over the k axis adds in an order that depends on the buffer's memory
    layout, so a buffer laid out unlike the reference's would show."""

    prior = GmmPrior(weights=np.full(9, 1 / 9), means=np.linspace(-4.0, 4.0, 9),
                     variances=np.linspace(0.05, 0.45, 9))

    @pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray],
                             ids=["C", "F"])
    @pytest.mark.parametrize("sigma", [*SIGMAS, "per-row"])
    def test_posterior_rows_d1(self, layout, sigma):
        rng = np.random.default_rng(12)
        y = rng.standard_normal(512) * 2.0
        log_w, mean, var = _conjugate_update(self.prior, y, 0.8)
        x = rng.standard_normal((512, 1)) * 3.0
        if sigma == "per-row":
            sigma = rng.uniform(1e-3, 5.0, size=512)
        log_w, means = layout(log_w), layout(mean)[..., None]
        assert_helpers_match_reference(log_w, means, var, x, sigma)

    @pytest.mark.parametrize("sigma", [*SIGMAS, "per-row"])
    @pytest.mark.parametrize("trailing_axis", [False, True])
    def test_prior_d1(self, sigma, trailing_axis):
        rng = np.random.default_rng(13)
        x = rng.uniform(-4.0, 4.0, size=257)
        if trailing_axis:
            x = x[:, None]
        if sigma == "per-row":
            sigma = rng.uniform(1e-3, 5.0, size=257)
        p = self.prior
        assert_helpers_match_reference(p.log_weights, p.means, p.variances, x, sigma)

    @pytest.mark.parametrize("sigma", [*SIGMAS, "per-row"])
    def test_three_component_d2(self, sigma):
        rng = np.random.default_rng(14)
        prior = GmmPrior(weights=[0.25, 0.25, 0.5], means=rng.normal(size=(3, 2)),
                         variances=[0.2, 0.9, 0.5])
        x = rng.uniform(-3.0, 3.0, size=(100, 2))
        if sigma == "per-row":
            sigma = rng.uniform(1e-3, 5.0, size=100)
        assert_helpers_match_reference(prior.log_weights, prior.means, prior.variances, x, sigma)

    @pytest.mark.parametrize("x, score_shape", [(0.5, (3,)), (np.array([0.5]), (3, 1)),
                                                (np.array([0.5, -0.25]), (3, 2))],
                             ids=["scalar", "d1-point", "d2-point"])
    def test_one_point_at_a_vector_of_sigmas(self, x, score_shape):
        """The terms outgrow x's shape here, so no in-place buffer of x's
        shape can hold them."""
        sigma = np.array([0.1, 1.0, 3.0])
        prior = self.prior
        if score_shape[-1] == 2:
            prior = GmmPrior(weights=[0.4, 0.6], means=[[0.0, 1.0], [2.0, -1.0]],
                             variances=[0.4, 0.9])
        assert_helpers_match_reference(prior.log_weights, prior.means, prior.variances, x, sigma)
        assert log_density(prior, x, sigma=sigma).shape == (3,)
        score = perturbed_score(prior, x, sigma=sigma)
        assert score.shape == score_shape
        for s, want in zip(sigma, score):
            np.testing.assert_allclose(perturbed_score(prior, x, s), want, rtol=1e-12)
