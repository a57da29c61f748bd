"""Mixture-density head tests: log-space NLL vs a naive-summation oracle,
analytic gradients vs finite differences, sampling moments, and density
recovery by gradient-descent fitting."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from scorewave import ConfigError, GmmPrior
from scorewave.mdn import (
    MdnParams,
    fit_mdn,
    mdn_density,
    mdn_mean,
    mdn_nll,
    mdn_nll_grads,
    mdn_sample,
)
from scorewave.oracle import log_density
from scorewave.oracle import sample as sample_prior


def naive_nll(params, y):
    """Straightforward non-log-space mixture NLL: sum the component
    densities directly, then take one log at the end. Underflows for
    extreme inputs — used only at moderate scales."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    alpha = params.alpha
    total = 0.0
    for i in range(params.k):
        dens = 1.0
        for j in range(params.d):
            s = params.scales[i, j]
            dens *= np.exp(-0.5 * ((y[j] - params.means[i, j]) / s) ** 2) / (
                s * np.sqrt(2 * np.pi)
            )
        total += alpha[i] * dens
    return -np.log(total)


def random_params(rng, k=None, d=None):
    k = k or int(rng.integers(1, 5))
    d = d or int(rng.integers(1, 4))
    return MdnParams(
        logits=rng.normal(size=k),
        means=rng.normal(scale=1.5, size=(k, d)),
        log_scales=rng.normal(scale=0.5, size=(k, d)),
    )


class TestNll:
    def test_standardized_point_at_mode(self):
        """k=1, d=1, y = m, s = 1: NLL is exactly half of ln(2 pi)."""
        p = MdnParams(logits=np.zeros(1), means=np.array([0.7]), log_scales=np.zeros(1))
        assert mdn_nll(p, 0.7) == pytest.approx(0.5 * np.log(2 * np.pi), rel=1e-14)

    def test_matches_naive_summation(self):
        """Log-space NLL equals the direct-density computation wherever the
        naive version does not underflow, rel err < 1e-10."""
        rng = np.random.default_rng(40)
        for _ in range(50):
            p = random_params(rng)
            y = rng.normal(scale=2.0, size=p.d)
            got = mdn_nll(p, y)
            want = naive_nll(p, y)
            assert abs(got - want) / max(abs(want), 1e-12) < 1e-10

    def test_k3_d2_oracle(self):
        rng = np.random.default_rng(41)
        p = random_params(rng, k=3, d=2)
        for _ in range(10):
            y = rng.normal(size=2)
            np.testing.assert_allclose(mdn_nll(p, y), naive_nll(p, y), rtol=1e-10)

    def test_duplicated_half_weight_component_is_invariant(self):
        """Splitting a component into two identical halves leaves the
        mixture density unchanged."""
        rng = np.random.default_rng(42)
        base = random_params(rng, k=2, d=2)
        split = MdnParams(
            logits=np.array([base.logits[0], base.logits[1] - np.log(2), base.logits[1] - np.log(2)]),
            means=np.vstack([base.means, base.means[1]]),
            log_scales=np.vstack([base.log_scales, base.log_scales[1]]),
        )
        for _ in range(5):
            y = rng.normal(size=2)
            np.testing.assert_allclose(mdn_nll(split, y), mdn_nll(base, y), rtol=1e-12)

    def test_component_permutation_invariance(self):
        rng = np.random.default_rng(43)
        p = random_params(rng, k=4, d=2)
        perm = rng.permutation(4)
        q = MdnParams(logits=p.logits[perm], means=p.means[perm], log_scales=p.log_scales[perm])
        y = rng.normal(size=(6, 2))
        np.testing.assert_allclose(mdn_nll(q, y), mdn_nll(p, y), rtol=1e-13)

    def test_batched_rows_match_singles(self):
        rng = np.random.default_rng(44)
        p = random_params(rng, k=3, d=2)
        ys = rng.normal(size=(7, 2))
        batched = mdn_nll(p, ys)
        assert batched.shape == (7,)
        for i in range(7):
            assert batched[i] == pytest.approx(mdn_nll(p, ys[i]), rel=1e-14)

    def test_extreme_point_stays_finite(self):
        """Far in the tail the naive version underflows to -log(0); the
        log-space path returns the correct finite value."""
        p = MdnParams(logits=np.zeros(2), means=np.array([-1.0, 1.0]),
                      log_scales=np.log(0.1) * np.ones(2))
        y = 60.0
        val = mdn_nll(p, y)
        assert np.isfinite(val)
        # dominant component: N(60; 1, 0.01) plus the ln 2 mixture weight
        want = 0.5 * ((60 - 1.0) / 0.1) ** 2 + np.log(0.1) + 0.5 * np.log(2 * np.pi) + np.log(2)
        assert val == pytest.approx(want, rel=1e-12)

    def test_density_inverts_nll(self):
        rng = np.random.default_rng(45)
        p = random_params(rng, k=2, d=1)
        y = rng.normal(size=(5, 1))
        np.testing.assert_allclose(mdn_density(p, y), np.exp(-mdn_nll(p, y)), rtol=1e-15)

    def test_dim_mismatch_raises(self):
        p = MdnParams(logits=np.zeros(1), means=np.zeros((1, 2)), log_scales=np.zeros((1, 2)))
        with pytest.raises(ConfigError):
            mdn_nll(p, np.zeros(3))

    def test_nll_decreasing_in_scale_at_mode(self):
        """Head centred on a constant target: the NLL falls monotonically as
        the scale shrinks (density at the mode grows like 1/s), going far
        negative for tiny s."""
        losses = []
        for s in (1.0, 0.1, 0.01, 0.001):
            head = MdnParams(logits=np.zeros(1), means=np.array([[0.25]]),
                             log_scales=np.log(s) * np.ones((1, 1)))
            losses.append(float(np.mean(mdn_nll(head, np.full((4, 1), 0.25)))))
        assert all(b < a for a, b in zip(losses, losses[1:]))
        assert losses[-1] < -5.0


class TestValidation:
    def test_shape_consistency_enforced(self):
        with pytest.raises(ConfigError):
            MdnParams(logits=np.zeros(2), means=np.zeros((3, 1)), log_scales=np.zeros((3, 1)))
        with pytest.raises(ConfigError):
            MdnParams(logits=np.zeros(2), means=np.zeros((2, 2)), log_scales=np.zeros((2, 3)))
        with pytest.raises(ConfigError):
            MdnParams(logits=np.zeros(0), means=np.zeros((0, 1)), log_scales=np.zeros((0, 1)))

    def test_alpha_is_simplex_and_scales_positive(self):
        p = MdnParams(logits=np.array([3.0, -1.0, 0.5]), means=np.zeros((3, 1)),
                      log_scales=np.array([[-10.0], [0.0], [10.0]]))
        assert p.alpha.sum() == pytest.approx(1.0, rel=1e-15)
        assert np.all(p.alpha > 0)
        assert np.all(p.scales > 0)

    def test_vector_promotion_to_d1(self):
        p = MdnParams(logits=np.zeros(2), means=np.array([1.0, -1.0]),
                      log_scales=np.zeros(2))
        assert p.means.shape == (2, 1)
        assert p.d == 1


class TestGradients:
    def test_matches_finite_differences(self):
        """Analytic logit/mean/log-scale gradients vs central differences of
        the mean NLL, rel err < 1e-4, over 20 random configurations.

        The step and the denominator floor keep the check above the FD
        roundoff floor (~1e-10 absolute on an order-one loss)."""
        rng = np.random.default_rng(46)
        h = 1e-5
        for _ in range(20):
            p = random_params(rng)
            y = rng.normal(scale=1.5, size=(int(rng.integers(1, 6)), p.d))
            _, grads = mdn_nll_grads(p, y)
            for name in ("logits", "means", "log_scales"):
                arr = getattr(p, name)
                flat = arr.reshape(-1)
                gflat = grads[name].reshape(-1)
                for j in range(flat.size):
                    orig = flat[j]
                    flat[j] = orig + h
                    hi = float(np.mean(mdn_nll(p, y)))
                    flat[j] = orig - h
                    lo = float(np.mean(mdn_nll(p, y)))
                    flat[j] = orig
                    fd = (hi - lo) / (2 * h)
                    denom = max(abs(fd), abs(gflat[j]), 1e-5)
                    assert abs(fd - gflat[j]) / denom < 1e-4, (name, j)

    def test_loss_matches_mean_nll(self):
        rng = np.random.default_rng(47)
        p = random_params(rng, k=3, d=2)
        y = rng.normal(size=(9, 2))
        loss, _ = mdn_nll_grads(p, y)
        assert loss == pytest.approx(float(np.mean(mdn_nll(p, y))), rel=1e-14)

    def test_gradient_zero_at_stationary_single_gaussian(self):
        """k=1 head with matched moments: mean and log-scale gradients vanish
        when m is the sample mean and s^2 the (biased) sample variance."""
        rng = np.random.default_rng(48)
        y = rng.normal(loc=0.4, scale=1.3, size=(500, 1))
        p = MdnParams(logits=np.zeros(1), means=np.array([[y.mean()]]),
                      log_scales=np.array([[0.5 * np.log(y.var())]]))
        _, grads = mdn_nll_grads(p, y)
        np.testing.assert_allclose(grads["means"], 0.0, atol=1e-12)
        np.testing.assert_allclose(grads["log_scales"], 0.0, atol=1e-12)
        np.testing.assert_allclose(grads["logits"], 0.0, atol=1e-15)


class TestMeanAndSampling:
    def test_single_component_mean(self):
        p = MdnParams(logits=np.zeros(1), means=np.array([[1.0, -2.0]]),
                      log_scales=np.zeros((1, 2)))
        np.testing.assert_array_equal(mdn_mean(p), [1.0, -2.0])

    def test_symmetric_mixture_mean_is_zero(self):
        p = MdnParams(logits=np.zeros(2), means=np.array([[0.8], [-0.8]]),
                      log_scales=np.zeros((2, 1)))
        np.testing.assert_allclose(mdn_mean(p), 0.0, atol=1e-16)

    def test_mean_matches_monte_carlo(self):
        """k=3 random head: analytic mean within 3 standard errors of a
        10^6-draw Monte-Carlo estimate."""
        rng = np.random.default_rng(49)
        p = random_params(rng, k=3, d=2)
        draws = mdn_sample(p, rng, n=1_000_000)
        se = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - mdn_mean(p)) < 3 * se)

    def test_one_hot_alpha_always_that_component(self):
        """logits (1000, 0): the softmax underflows the second weight to
        exactly zero, so every draw comes from component 0."""
        p = MdnParams(logits=np.array([1000.0, 0.0]),
                      means=np.array([[5.0], [-5.0]]),
                      log_scales=np.log(0.01) * np.ones((2, 1)))
        draws = mdn_sample(p, np.random.default_rng(50), n=2000)
        assert np.all(np.abs(draws - 5.0) < 1.0)

    def test_component_frequencies_binomial(self):
        """Empirical component rates over 10^4 draws within 3 sigma."""
        p = MdnParams(logits=np.log(np.array([0.2, 0.5, 0.3])),
                      means=np.array([[-10.0], [0.0], [10.0]]),
                      log_scales=np.log(0.1) * np.ones((3, 1)))
        draws = mdn_sample(p, np.random.default_rng(51), n=10_000)
        edges = np.array([-np.inf, -5.0, 5.0, np.inf])
        counts = np.histogram(draws.ravel(), bins=edges)[0]
        for c, a in zip(counts, [0.2, 0.5, 0.3]):
            sigma = np.sqrt(10_000 * a * (1 - a))
            assert abs(c - 10_000 * a) < 3 * sigma

    def test_single_component_variance(self):
        """k=1: per-dim sample variance matches s^2 within 3 standard errors
        (var of the sample variance of a Gaussian is 2 s^4 / (n - 1))."""
        s = np.array([0.5, 2.0])
        p = MdnParams(logits=np.zeros(1), means=np.zeros((1, 2)),
                      log_scales=np.log(s)[None, :])
        n = 100_000
        draws = mdn_sample(p, np.random.default_rng(52), n=n)
        v = draws.var(axis=0, ddof=1)
        tol = 3 * np.sqrt(2.0 / (n - 1)) * s**2
        assert np.all(np.abs(v - s**2) < tol)

    def test_single_draw_shape(self):
        p = MdnParams(logits=np.zeros(2), means=np.zeros((2, 3)), log_scales=np.zeros((2, 3)))
        one = mdn_sample(p, np.random.default_rng(53))
        assert one.shape == (3,)


class TestFit:
    def test_recovers_two_component_density(self):
        """k=3 head fitted by Adam to draws from a known 1-D 2-GMM: the
        integrated absolute density error over [-4, 4] ends below 0.05."""
        prior = GmmPrior(weights=[0.35, 0.65], means=[-1.2, 0.8], variances=[0.09, 0.25])
        rng = np.random.default_rng(7)
        y = sample_prior(prior, 6000, rng)
        params, trace = fit_mdn(y, k=3, n_iters=2500, rng=rng)
        grid = np.linspace(-4.0, 4.0, 1601)
        p_fit = mdn_density(params, grid[:, None])
        p_true = np.exp(log_density(prior, grid[:, None]))
        iae = np.trapezoid(np.abs(p_fit - p_true), grid)
        assert iae < 0.05, f"integrated absolute density error {iae:.4f}"
        assert trace[-1] < trace[0]

    def test_fit_loss_decreases(self):
        rng = np.random.default_rng(59)
        y = rng.normal(size=(400, 1))
        _, trace = fit_mdn(y, k=2, n_iters=300, rng=rng)
        assert trace[-1] < trace[0]

    def test_fit_is_deterministic(self):
        y = np.random.default_rng(60).normal(size=(200, 1))
        a, _ = fit_mdn(y, k=2, n_iters=100, rng=np.random.default_rng(61))
        b, _ = fit_mdn(y, k=2, n_iters=100, rng=np.random.default_rng(61))
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.logits, b.logits)

    def test_fit_matches_recorded_digest(self):
        """Fitted head and loss trace pinned to a sha256 digest recorded
        before the fit moved onto one parameter vector (numpy 2.x, x86-64)."""
        prior = GmmPrior(weights=[0.3, 0.7], means=[-1.0, 0.5], variances=[0.09, 0.04])
        y = sample_prior(prior, 300, np.random.default_rng(42))
        params, trace = fit_mdn(y, k=2, n_iters=150, rng=np.random.default_rng(43))
        blob = b"".join(a.tobytes() for a in (params.logits, params.means,
                                              params.log_scales, trace))
        assert hashlib.sha256(blob).hexdigest() == (
            "57a49b2f283a01d21c27c594fcc792255d9fa28d14949c3b995067b174636f57")

    def test_rejects_too_few_rows(self):
        with pytest.raises(ConfigError):
            fit_mdn(np.zeros((2, 1)), k=3, n_iters=10, rng=np.random.default_rng(62))
