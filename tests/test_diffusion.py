"""Forward perturbation, score-matching loss, and Langevin sampler tests.

Monte-Carlo assertions use fixed seeds and tolerances derived from the
estimator's standard error. The Gaussian closed forms used as references:

  * exact-score residual: sigma*S + z = sigma*(mu - x0)/(s^2+sigma^2)
    + z * s^2/(s^2+sigma^2), so the loss floor is
    d/2 * E_t[ s^2 / (s^2 + sigma_t^2) ];
  * empirical denoising of N(0, s^2) data at sigma0 is multiplication by
    s^2 / (s^2 + sigma0^2).
"""

from __future__ import annotations

import contextlib
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.integrate import quad

from scorewave import GmmPrior, NoiseSchedule, NumericError, SamplingError, langevin_sample, make_plan
from scorewave.cli import (EXIT_CONFIG, EXIT_OK, _enhance_samples, _prior_from, _schedule_from,
                           load_config, main)
from scorewave.diffusion import NOISE_BLOCK, denoise_final, dsm_loss_batch, handing, perturb
from scorewave.oracle import posterior_prior, posterior_score, score_function
from scorewave.oracle import sample as sample_prior
from scorewave.scorenet import ScoreNet, ScoreNetConfig
from scorewave.signal import Signal, write_wav

from executors import RecordingHelper, SlowHelper


def zero_score(x, c, sigma):
    return np.zeros_like(x)


class TestPerturb:
    def test_zero_origin_returns_noise(self):
        """x0 = 0, sigma = 1: the perturbed point is exactly the drawn z."""
        x_t, z = perturb(np.zeros(3), 1.0, np.random.default_rng(0))
        np.testing.assert_array_equal(x_t, z)

    def test_vanishing_sigma(self):
        x0 = np.array([1.0, -2.0, 0.5])
        x_t, _ = perturb(x0, 1e-300, np.random.default_rng(0))
        np.testing.assert_allclose(x_t, x0, atol=1e-290)

    def test_noise_variance(self):
        """sigma = 2 over 1e5 draws: sample variance of x_t - x0 is 4."""
        rng = np.random.default_rng(42)
        x0 = np.full(100_000, 0.7)
        x_t, z = perturb(x0, 2.0, rng)
        var = np.var(x_t - x0)
        np.testing.assert_allclose(var, 4.0, rtol=3 * np.sqrt(2 / 100_000))
        np.testing.assert_allclose(x_t - x0, 2.0 * z, rtol=1e-12, atol=1e-15)


class TestDsmLoss:
    def test_cheating_oracle_gives_zero(self):
        """A score that returns exactly -z/sigma zeroes the residual."""
        seen = {}

        def cheat(x, c, sigma):
            return -seen["z"] / sigma

        rng = np.random.default_rng(1)
        probe = np.random.default_rng(1)
        probe.uniform()
        seen["z"] = probe.standard_normal(4)
        loss = dsm_loss_batch(cheat, np.ones((1, 4)), None, NoiseSchedule(), rng)[0]
        assert loss == pytest.approx(0.0, abs=1e-30)

    @pytest.mark.parametrize("seed", range(20))
    def test_single_loss_is_the_written_out_draw(self, seed):
        """dsm_loss_batch on one row draws t, then z, and returns
        1/2 ||sigma_t S + z||^2 bit for bit as written out here for one
        3-dimensional example."""
        sched = NoiseSchedule()
        fn = score_function(GmmPrior(weights=[0.4, 0.6], means=[-1.0, 1.0], variances=[0.3, 0.3]))
        x0 = np.random.default_rng(100 + seed).standard_normal(3)
        rng = np.random.default_rng(seed)
        t = rng.uniform()
        sig = sched.sigma_at(t)
        z = rng.standard_normal(3)
        resid = sig * fn(x0 + sig * z, None, sig) + z
        expected = float(0.5 * np.sum(resid * resid))
        assert dsm_loss_batch(fn, x0[None], None, sched, np.random.default_rng(seed))[0] == expected

    def test_zero_score_chi_square_mean(self):
        """With S = 0 the loss is ||z||^2 / 2, expectation d/2."""
        rng = np.random.default_rng(2)
        d = 3
        losses = dsm_loss_batch(zero_score, np.zeros((200_000, d)), None, NoiseSchedule(), rng)
        np.testing.assert_allclose(losses.mean(), d / 2, rtol=0.02)

    def test_single_and_batch_agree_in_mean(self):
        sched = NoiseSchedule()
        prior = GmmPrior(weights=[1.0], means=[0.0], variances=[1.0])
        fn = score_function(prior)
        rng = np.random.default_rng(3)
        singles = [dsm_loss_batch(fn, np.zeros((1, 1)), None, sched, rng)[0] for _ in range(4000)]
        batch = dsm_loss_batch(fn, np.zeros((4000, 1)), None, sched, np.random.default_rng(4))
        np.testing.assert_allclose(np.mean(singles), batch.mean(), rtol=0.1)

    def test_gaussian_oracle_reaches_variance_floor(self):
        """Exact-score loss over 1e6 draws matches the conditional-variance
        floor, computed two independent ways: brute-force Monte Carlo of the
        residual and quadrature of s^2/(s^2+sigma_t^2)/2."""
        s2 = 1.0
        sched = NoiseSchedule()
        prior = GmmPrior(weights=[1.0], means=[0.0], variances=[s2])
        floor_quad, _ = quad(lambda t: 0.5 * s2 / (s2 + sched.sigma_at(t) ** 2), 0.0, 1.0)

        rng = np.random.default_rng(7)
        n = 1_000_000
        t = rng.uniform(size=n)
        sig = sched.sigma_at(t)
        x0 = rng.standard_normal(n) * np.sqrt(s2)
        z = rng.standard_normal(n)
        resid = sig * (0.0 - (x0 + sig * z)) / (s2 + sig**2) + z
        floor_mc = 0.5 * np.mean(resid**2)
        np.testing.assert_allclose(floor_mc, floor_quad, rtol=0.01)

        x0s = sample_prior(prior, n, np.random.default_rng(8))
        losses = dsm_loss_batch(score_function(prior), x0s, None, sched, np.random.default_rng(9))
        np.testing.assert_allclose(losses.mean(), floor_quad, rtol=0.01)

    def test_sanity_ladder(self):
        """Interpolating the exact score toward zero (lambda = 1 -> 0) can
        only increase the averaged loss: the exact score is the minimizer."""
        sched = NoiseSchedule()
        prior = GmmPrior(weights=[0.4, 0.6], means=[-1.0, 1.0], variances=[0.3, 0.3])
        oracle = score_function(prior)
        x0 = sample_prior(prior, 100_000, np.random.default_rng(10))
        means = []
        for lam in (1.0, 0.7, 0.4, 0.0):
            fn = lambda x, c, s, _l=lam: _l * oracle(x, c, s)
            losses = dsm_loss_batch(fn, x0, None, sched, np.random.default_rng(11))
            means.append(losses.mean())
        assert all(b > a for a, b in zip(means, means[1:]))

    def test_nonfinite_score_reports_sigma_and_t(self):
        def broken(x, c, sigma):
            return np.full_like(x, np.nan)

        with pytest.raises(NumericError, match="sigma"):
            dsm_loss_batch(broken, np.zeros((1, 2)), None, NoiseSchedule(),
                           np.random.default_rng(0))
        with pytest.raises(NumericError, match="t="):
            dsm_loss_batch(broken, np.zeros((4, 2)), None, NoiseSchedule(), np.random.default_rng(0))


class TestDenoiseFinal:
    def test_zero_score_identity(self):
        x = np.array([0.3, -0.7])
        np.testing.assert_array_equal(denoise_final(zero_score, x, None, 5e-4), x)

    def test_gaussian_shrinkage(self):
        """N(0, s^2) oracle at sigma0 multiplies x by s^2/(s^2+sigma0^2)."""
        s2, sigma0 = 0.49, 0.1
        fn = score_function(GmmPrior(weights=[1.0], means=[0.0], variances=[s2]))
        x = np.linspace(-2, 2, 9)[:, None]
        np.testing.assert_allclose(
            denoise_final(fn, x, None, sigma0), x * s2 / (s2 + sigma0**2), rtol=1e-12
        )

    def test_default_sigma0_is_negligible(self):
        """sigma0 = 5e-4 on unit-variance data changes x by 2.5e-7 relative."""
        factor = 1.0 / (1.0 + 5e-4**2)
        np.testing.assert_allclose(1.0 - factor, 2.5e-7, rtol=1e-3)
        fn = score_function(GmmPrior(weights=[1.0], means=[0.0], variances=[1.0]))
        out = denoise_final(fn, np.array([1.0]), None, 5e-4)
        np.testing.assert_allclose(out, factor, rtol=1e-12)


class TestLangevinSampler:
    def test_gaussian_moments(self):
        """Exact N(mu, s^2) score, N=200, eps=1.5, 1e4 runs: empirical mean
        and variance land within 3 standard errors of the target. The
        schedule brackets the data scale (sigma_min well below s, sigma_max
        well above sqrt(E[x^2])) per the scale guidance; one annealing step
        per noise level leaves a small O(eta) bias, so a poorly scaled
        schedule would not pass."""
        mu, s2 = 0.35, 0.005
        plan = make_plan(NoiseSchedule(5e-3, 3.6), 200, 1.5)
        fn = score_function(GmmPrior(weights=[1.0], means=[mu], variances=[s2]))
        x = langevin_sample(fn, None, plan, 1, np.random.default_rng(2), n_samples=10_000)[:, 0]
        np.testing.assert_allclose(x.mean(), mu, atol=3 * np.sqrt(s2 / x.size))
        np.testing.assert_allclose(x.var(ddof=1), s2, atol=3 * s2 * np.sqrt(2 / (x.size - 1)))

    def test_gmm_mode_frequencies(self):
        """0.3/0.7 mixture at means -/+2: nearest-mean assignment frequencies
        match the weights within binomial 3 sigma over 1e4 samples."""
        prior = GmmPrior(weights=[0.3, 0.7], means=[-2.0, 2.0], variances=[0.1, 0.1])
        plan = make_plan(NoiseSchedule(), 64, 3.0)
        x = langevin_sample(
            score_function(prior), None, plan, 1, np.random.default_rng(1), n_samples=10_000
        )[:, 0]
        frac = np.mean(np.abs(x - 2.0) < np.abs(x + 2.0))
        np.testing.assert_allclose(frac, 0.7, atol=3 * np.sqrt(0.3 * 0.7 / x.size))

    def test_deterministic_when_beta_zero(self):
        """eps = 1 makes the path noise-free after init: same seed, same bits."""
        fn = score_function(GmmPrior(weights=[1.0], means=[0.5], variances=[0.04]))
        plan = make_plan(NoiseSchedule(), 32, 1.0)
        a = langevin_sample(fn, None, plan, 4, np.random.default_rng(9))
        b = langevin_sample(fn, None, plan, 4, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_reproducible_with_noise(self):
        fn = score_function(GmmPrior(weights=[1.0], means=[0.0], variances=[1.0]))
        plan = make_plan(NoiseSchedule(), 16, 2.3)
        a = langevin_sample(fn, None, plan, 3, np.random.default_rng(5), n_samples=8)
        b = langevin_sample(fn, None, plan, 3, np.random.default_rng(5), n_samples=8)
        np.testing.assert_array_equal(a, b)

    def test_score_evaluated_inside_schedule_bounds(self):
        """The recursion only ever queries sigma in [sigma_min, sigma_max]."""
        sched = NoiseSchedule()
        seen = []

        def spy(x, c, sigma):
            seen.append(float(sigma))
            return np.zeros_like(x)

        langevin_sample(spy, None, make_plan(sched, 32, 2.3), 2, np.random.default_rng(0))
        assert seen
        assert min(seen) >= sched.sigma_min - 1e-15
        assert max(seen) <= sched.sigma_max + 1e-15

    def test_scale_consistency(self):
        """Scaling data and schedule by a scales the samples by a: running
        with N(0, (a*s)^2) and a-scaled sigmas is the same process in units
        of a (checked on matched seeds)."""
        a = 7.0
        base_sched = NoiseSchedule(5e-4, 5.0)
        big_sched = NoiseSchedule(5e-4 * a, 5.0 * a)
        fn1 = score_function(GmmPrior(weights=[1.0], means=[0.0], variances=[0.25]))
        fn2 = score_function(GmmPrior(weights=[1.0], means=[0.0], variances=[0.25 * a**2]))
        x1 = langevin_sample(fn1, None, make_plan(base_sched, 64, 1.5), 1,
                             np.random.default_rng(21), n_samples=4000)
        x2 = langevin_sample(fn2, None, make_plan(big_sched, 64, 1.5), 1,
                             np.random.default_rng(21), n_samples=4000)
        np.testing.assert_allclose(x2, a * x1, rtol=1e-10)

    def test_nonfinite_iterate_aborts_with_step(self):
        def explode(x, c, sigma):
            return np.full_like(x, np.inf)

        with pytest.raises(SamplingError, match="step"):
            langevin_sample(explode, None, make_plan(NoiseSchedule(), 8, 1.5), 2,
                            np.random.default_rng(0))

    @pytest.mark.parametrize("n_samples,dim,score_shape", [(4, 1, (3, 4, 1)), (4, 2, (4, 1))],
                             ids=["too-many-axes", "broadcastable"])
    def test_score_of_another_shape_is_sampling_error(self, n_samples, dim, score_shape):
        """A score that would fail to broadcast into the iterate, and one
        that would broadcast silently, both stop the sampler."""
        def wrong(x, c, sigma):
            return np.zeros(score_shape)

        with pytest.raises(SamplingError, match="shape"):
            langevin_sample(wrong, None, make_plan(NoiseSchedule(), 8, 1.5), dim,
                            np.random.default_rng(0), n_samples=n_samples)
        with pytest.raises(SamplingError, match="shape"):
            denoise_final(wrong, np.zeros((n_samples, dim)), None, 5e-4)


class TestEnhanceExpectation:
    """The average over ``sampling.n_realizations`` Langevin samples, whose
    one implementation is ``cli._enhance_samples`` (``enhance`` and
    ``sweep`` call it); every row of the observation is one sample."""

    def setup_method(self):
        self.score = (score_function(GmmPrior(weights=[1.0], means=[0.0], variances=[1.0])),
                      None)
        self.plan = make_plan(NoiseSchedule(), 32, 2.3)

    def test_single_realization_matches_spawned_sample(self):
        out = _enhance_samples(np.zeros(2), {"sampling.n_realizations": 1}, self.score,
                               self.plan, np.random.default_rng(13))
        child = np.random.default_rng(13).spawn(1)[0]
        direct = langevin_sample(self.score[0], None, self.plan, 1, child, n_samples=2)
        np.testing.assert_array_equal(out, direct.ravel())

    def test_variance_shrinks_like_one_over_n(self):
        """Averaging 100 independent realizations shrinks output variance by
        about 100x (between 50x and 200x over 150 rows)."""
        plan = make_plan(NoiseSchedule(), 8, 2.3)
        single = langevin_sample(self.score[0], None, plan, 1, np.random.default_rng(14),
                                 n_samples=150).ravel()
        averaged = _enhance_samples(np.zeros(150), {"sampling.n_realizations": 100},
                                    self.score, plan, np.random.default_rng(15))
        ratio = single.var() / averaged.var()
        assert 50 < ratio < 200

    def test_rejects_zero_realizations(self, tmp_path):
        """``enhance`` with no realization to average exits 2 and writes no WAV."""
        write_wav(tmp_path / "in.wav", Signal(samples=np.zeros(16), sample_rate=8000),
                  encoding="float32")
        (tmp_path / "zero.cfg").write_text("sampling.n_realizations = 0\n")
        out = tmp_path / "out.wav"
        code = main(["--config", str(tmp_path / "zero.cfg"), "enhance",
                     "--input", str(tmp_path / "in.wav"), "--output", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()


def reference_langevin_sample(score_fn, c, plan, dim, rng, n_samples=None):
    """The sampler's recursion as first written, a new iterate and a new
    noise array per step: the reference the in-place step must equal bit
    for bit."""
    shape = (dim,) if n_samples is None else (int(n_samples), dim)
    sigmas = plan.sigmas
    x = sigmas[-1] * rng.standard_normal(shape)
    for i in range(len(sigmas) - 1, 0, -1):
        sig_n = sigmas[i]
        s = np.asarray(score_fn(x, c, sig_n), dtype=np.float64)
        x = x + plan.eta * sig_n**2 * s
        if plan.beta != 0.0:
            x = x + plan.beta * sigmas[i - 1] * rng.standard_normal(shape)
    return denoise_final(score_fn, x, c, sigmas[0])


def sampler_score(kind, n_samples):
    """(score_fn, c) for langevin_sample's n_samples: the oracle posterior,
    a dim_c = 1 network with seeded non-zero parameters, or a score that
    returns the iterate itself (so the step reads the array it updates). A
    single (dim,) sample gets the posterior of its one observation as a
    mixture, since posterior_score scores (rows, 1) iterates."""
    rng = np.random.default_rng(31)
    y = rng.standard_normal(n_samples or 1) * 2.0
    if kind == "posterior":
        prior = GmmPrior(weights=[0.2, 0.3, 0.5], means=[-2.0, 0.5, 2.0],
                         variances=[0.1, 0.4, 0.05])
        if n_samples is None:
            return score_function(posterior_prior(prior, y[0], 1.0)), None
        return posterior_score(prior, y, noise_std=1.0), None
    if kind == "network":
        net = ScoreNet(ScoreNetConfig(dim_x=1, dim_c=1, hidden=(16, 16), n_pairs=4,
                                      embed_dim=16), rng)
        net.flat[...] = 0.3 * rng.standard_normal(net.flat.size)
        return net.forward, (y if n_samples is None else y[:, None])
    return (lambda x, c, sigma: x), None


class TestInPlaceStepBits:
    @pytest.mark.parametrize("kind", ["posterior", "network", "aliasing"])
    @pytest.mark.parametrize("epsilon", [2.3, 1.0], ids=["beta>0", "beta=0"])
    @pytest.mark.parametrize("n_samples", [None, 4096])
    def test_matches_out_of_place_recursion(self, kind, epsilon, n_samples):
        plan = make_plan(NoiseSchedule(), 24, epsilon)
        assert (plan.beta == 0.0) == (epsilon == 1.0)
        score_fn, c = sampler_score(kind, n_samples)
        rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
        got = langevin_sample(score_fn, c, plan, 1, rng, n_samples)
        want = reference_langevin_sample(score_fn, c, plan, 1, ref_rng, n_samples)
        assert got.shape == want.shape
        assert np.all(np.isfinite(got)) and np.any(got != 0.0)
        assert np.array_equal(got, want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def gaussian_score(x, c, sigma):
    """The exact score of N(0, 1) data at noise level sigma, for any shape."""
    return -x / (1.0 + sigma**2)


def fail(message, delay=0.0):
    time.sleep(delay)
    raise ValueError(message)


class TestHanding:
    """``handing``: a handed call runs on the helper, or at once without one;
    leaving the block waits for every handed call, then raises the block's
    error, else the first handed call's error in handing order."""

    def test_without_helper_runs_at_once_and_builds_no_pool(self, monkeypatch):
        built, ran = [], []
        init = ThreadPoolExecutor.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ThreadPoolExecutor, "__init__", counting_init)
        before = threading.active_count()
        with handing(None) as hand:
            hand(lambda *a, **k: ran.append((a, k, threading.active_count())), 1, out=2)
            assert ran == [((1,), {"out": 2}, before)]
            with pytest.raises(ValueError, match="^at once$"):
                hand(fail, "at once")
        assert built == [] and threading.active_count() == before

    def test_block_error_wins_over_handed_error(self):
        with RecordingHelper(delay=0.02) as helper:
            with pytest.raises(KeyError, match="block"):
                with handing(helper) as hand:
                    hand(fail, "handed")
                    raise KeyError("block")
            assert [f.done() for f in helper.futures] == [True]

    def test_first_handed_error_wins(self):
        """On two workers the second handed call fails first; the first's
        error is still the one raised."""
        with ThreadPoolExecutor(max_workers=2) as helper:
            with pytest.raises(ValueError, match="^first$"):
                with handing(helper) as hand:
                    hand(fail, "first", delay=0.05)
                    hand(fail, "second")

    @pytest.mark.parametrize("block_raises", [False, True], ids=["returns", "raises"])
    def test_every_handed_call_done_on_leaving(self, block_raises):
        done = []
        with RecordingHelper(delay=0.02) as helper:
            with pytest.raises(KeyError) if block_raises else contextlib.nullcontext():
                with handing(helper) as hand:
                    for i in range(3):
                        hand(done.append, i)
                    if block_raises:
                        raise KeyError("block")
            assert done == [0, 1, 2] and all(f.done() for f in helper.futures)


class TestNoiseBlocks:
    """The step noise is drawn in blocks of whole steps, the next block on a
    helper the caller passes: the same stream, bits and rng state as one
    draw per step, and no draw still running when the sampler exits."""

    @pytest.mark.parametrize("epsilon", [2.3, 1.0], ids=["beta>0", "beta=0"])
    @pytest.mark.parametrize("n_steps", [1, 2, 24, 25])
    @pytest.mark.parametrize("n_samples", [None, 0, 1, 4096, NOISE_BLOCK + 1, 3 * NOISE_BLOCK])
    def test_stream_and_bits_across_block_edges(self, n_samples, n_steps, epsilon):
        """Odd and even counts of noisy steps end on either buffer; at
        beta = 0 only the initial draw is consumed; 0 rows give (0, 1)."""
        plan = make_plan(NoiseSchedule(), n_steps, epsilon)
        rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
        got = langevin_sample(gaussian_score, None, plan, 1, rng, n_samples)
        want = reference_langevin_sample(gaussian_score, None, plan, 1, ref_rng, n_samples)
        assert got.shape == want.shape == ((1,) if n_samples is None else (n_samples, 1))
        assert np.array_equal(got, want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("epsilon", [2.3, 1.0], ids=["beta>0", "beta=0"])
    @pytest.mark.parametrize("n_steps", [2, 24, 25])
    @pytest.mark.parametrize("n_samples", [None, 4096, NOISE_BLOCK + 1])
    def test_helper_keeps_stream_and_bits(self, n_samples, n_steps, epsilon):
        """The same bits and rng state when a helper draws the next block."""
        plan = make_plan(NoiseSchedule(), n_steps, epsilon)
        rng, ref_rng = np.random.default_rng(13), np.random.default_rng(13)
        with SlowHelper() as helper:
            got = langevin_sample(gaussian_score, None, plan, 1, rng, n_samples, helper=helper)
        want = reference_langevin_sample(gaussian_score, None, plan, 1, ref_rng, n_samples)
        assert np.array_equal(got, want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert bool(helper.futures) == (epsilon != 1.0 and n_samples is not None and n_steps > 2)

    def test_sample_prior_writes_the_reference_bytes(self, tmp_path):
        """20,000 rows: more than one block's values per step."""
        out = tmp_path / "draws.txt"
        assert main(["sample-prior", "--n", "20000", "--method", "langevin", "--out", str(out),
                     "--seed", "23"]) == EXIT_OK
        cfg = load_config(None)
        prior = _prior_from(cfg)
        plan = make_plan(_schedule_from(cfg), cfg["sampling.n_steps"], cfg["sampling.epsilon"])
        want = reference_langevin_sample(score_function(prior), None, plan, prior.dim,
                                         np.random.default_rng(23), 20000)
        np.savetxt(tmp_path / "want.txt", want, fmt="%.17g")
        assert out.read_bytes() == (tmp_path / "want.txt").read_bytes()

    def counting(self, score_fn, seen):
        """score_fn that appends the live thread count to ``seen`` per call."""
        def score(x, c, sigma):
            seen.append(threading.active_count())
            return score_fn(x, c, sigma)
        return score

    def sample_settled(self, score_fn, plan, n_samples):
        """Futures a :class:`SlowHelper` got from one sampler call, asserting
        that when the call exits, by a return or a raise, each is done and
        the rng state read at once is the state after the helper shuts
        down. The call's exception, if any, propagates after the checks."""
        rng, helper = np.random.default_rng(0), SlowHelper()
        try:
            langevin_sample(score_fn, None, plan, 1, rng, n_samples, helper=helper)
        finally:
            done, state = [f.done() for f in helper.futures], rng.bit_generator.state
            helper.shutdown()
            assert all(done) and state == rng.bit_generator.state
        return helper.futures

    def test_normal_return_leaves_no_thread(self):
        """After the helper's shutdown no thread is left: the sampler started none."""
        before, seen = threading.active_count(), []
        futures = self.sample_settled(self.counting(gaussian_score, seen),
                                      make_plan(NoiseSchedule(), 8, 1.5), NOISE_BLOCK)
        assert len(futures) == 6 and max(seen) == before + 1
        assert threading.active_count() == before

    def test_noise_in_one_block_starts_no_thread(self):
        """16 rows at N = 64, the shape of the enhance set-up probe: nothing
        is submitted, so the helper never starts its thread."""
        before, seen = threading.active_count(), []
        futures = self.sample_settled(self.counting(gaussian_score, seen),
                                      make_plan(NoiseSchedule(), 64, 1.5), 16)
        assert futures == []
        assert len(seen) == 64 and set(seen) == {before}
        assert threading.active_count() == before

    def test_sampling_error_mid_call_leaves_no_thread(self):
        plan = make_plan(NoiseSchedule(), 64, 1.5)
        cut = plan.sigmas[10]

        def nan_below(x, c, sigma):
            return np.full_like(x, np.nan) if sigma <= cut else gaussian_score(x, c, sigma)

        before, seen = threading.active_count(), []
        message = f"non-finite iterate at step n=11 (sigma={cut:.6g})"
        with pytest.raises(SamplingError, match=f"^{re.escape(message)}$"):
            self.sample_settled(self.counting(nan_below, seen), plan, NOISE_BLOCK)
        assert len(seen) == 54 and max(seen) == before + 1
        assert threading.active_count() == before

    def test_raising_score_leaves_no_thread(self):
        plan = make_plan(NoiseSchedule(), 64, 1.5)

        def raise_below(x, c, sigma):
            if sigma <= plan.sigmas[30]:
                raise ValueError(f"no score at sigma={sigma}")
            return gaussian_score(x, c, sigma)

        before, seen = threading.active_count(), []
        with pytest.raises(ValueError, match=f"^{re.escape(f'no score at sigma={plan.sigmas[30]}')}$"):
            self.sample_settled(self.counting(raise_below, seen), plan, NOISE_BLOCK)
        assert len(seen) == 34 and max(seen) == before + 1
        assert threading.active_count() == before


def averaged_reference(score_fn, c, plan, rng, n, n_realizations, order=None):
    """Mean of reference_langevin_sample over rng.spawn's children, added in
    ``order`` (index order by default) to a zero (n, 1) accumulator."""
    outs = [reference_langevin_sample(score_fn, c, plan, 1, child, n)
            for child in rng.spawn(n_realizations)]
    acc = np.zeros((n, 1))
    for i in order or range(n_realizations):
        acc += outs[i]
    return (acc / n_realizations).ravel()


def realization_scores(score_fn, plan, seed, n, n_realizations):
    """(index, score): index() is the realization the calling thread is
    running, read off the iterate at its first score call, which is the
    initial draw sigma_max * z of that realization's spawned child."""
    firsts = [plan.sigmas[-1] * child.standard_normal((n, 1))[0, 0]
              for child in np.random.default_rng(seed).spawn(n_realizations)]
    local = threading.local()

    def score(x, c, sigma):
        if sigma == plan.sigmas[-1]:
            local.index = firsts.index(x[0, 0])
        return score_fn(x, c, sigma)

    return (lambda: local.index), score


class TestRealizationPairs:
    """``cli._enhance_samples`` runs realizations two at a time on the calling
    thread and one helper, each drawing its noise inline, and a last odd one
    alone, drawing its noise ahead on the same helper: the bits of one
    realization after the other, one pool of one thread, none left behind,
    and the error the sequential loop would raise."""

    @pytest.mark.parametrize("n_samples", [None, 300, NOISE_BLOCK + 1])
    @pytest.mark.parametrize("epsilon", [2.3, 1.0], ids=["beta>0", "beta=0"])
    def test_inline_noise_keeps_stream_and_bits(self, n_samples, epsilon):
        plan = make_plan(NoiseSchedule(), 12, epsilon)
        rng, ref_rng = np.random.default_rng(17), np.random.default_rng(17)
        before, seen = threading.active_count(), []

        def score(x, c, sigma):
            seen.append(threading.active_count())
            return gaussian_score(x, c, sigma)

        got = langevin_sample(score, None, plan, 1, rng, n_samples)
        want = reference_langevin_sample(gaussian_score, None, plan, 1, ref_rng, n_samples)
        assert np.array_equal(got, want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert set(seen) == {before}

    @pytest.mark.parametrize("kind", ["posterior", "network"])
    @pytest.mark.parametrize("n_realizations", [1, 2, 3, 4, 5])
    def test_equals_sequential_reference(self, kind, n_realizations):
        """2,100 rows: the network's forward runs in two row blocks."""
        n = 2100
        score_fn, c = sampler_score(kind, n)
        plan = make_plan(NoiseSchedule(), 16, 2.3)
        got = _enhance_samples(np.zeros(n), {"sampling.n_realizations": n_realizations},
                               (score_fn, c), plan, np.random.default_rng(19))
        want = averaged_reference(score_fn, c, plan, np.random.default_rng(19), n,
                                  n_realizations)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n_realizations", [4, 5])
    def test_sum_follows_index_not_completion_order(self, n_realizations):
        """The calling thread's realization sleeps at every step, so in each
        pair the helper's realization (the higher index) finishes first. The
        second pair's two additions then differ in order, and in bits."""
        n, seed = 300, 23
        plan = make_plan(NoiseSchedule(), 8, 2.3)
        score_fn, _ = sampler_score("posterior", n)
        index, tagged = realization_scores(score_fn, plan, seed, n, n_realizations)
        caller, finished = threading.current_thread(), []

        def score(x, c, sigma):
            s = tagged(x, c, sigma)
            if threading.current_thread() is caller:
                time.sleep(0.005)
            if sigma == plan.sigmas[0]:
                finished.append(index())
            return s

        got = _enhance_samples(np.zeros(n), {"sampling.n_realizations": n_realizations},
                               (score, None), plan, np.random.default_rng(seed))
        assert finished[:4] == [1, 0, 3, 2]
        want = averaged_reference(score_fn, None, plan, np.random.default_rng(seed), n,
                                  n_realizations)
        completion = averaged_reference(score_fn, None, plan, np.random.default_rng(seed), n,
                                        n_realizations, order=finished)
        assert not np.array_equal(completion, want)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n_realizations", [1, 2, 3, 4, 5])
    def test_one_pool_of_one_worker_per_call(self, n_realizations, monkeypatch):
        """Every ThreadPoolExecutor built during the call, wherever its module
        imported the class: one, of one worker, whatever R is."""
        sizes, init = [], ThreadPoolExecutor.__init__

        def counting_init(pool, max_workers=None, *args, **kwargs):
            sizes.append(max_workers)
            init(pool, max_workers, *args, **kwargs)

        monkeypatch.setattr(ThreadPoolExecutor, "__init__", counting_init)
        _enhance_samples(np.zeros(NOISE_BLOCK), {"sampling.n_realizations": n_realizations},
                         (gaussian_score, None), make_plan(NoiseSchedule(), 8, 1.5),
                         np.random.default_rng(0))
        assert sizes == [1]

    @pytest.mark.parametrize("n_realizations", [3, 4, 1, 2])
    def test_at_most_one_thread_beyond_the_caller(self, n_realizations):
        """NOISE_BLOCK rows: one step's noise per block, so even R = 1 sees
        its helper, drawing the next block."""
        before, seen = threading.active_count(), []

        def score(x, c, sigma):
            seen.append(threading.active_count())
            return gaussian_score(x, c, sigma)

        _enhance_samples(np.zeros(NOISE_BLOCK), {"sampling.n_realizations": n_realizations},
                         (score, None), make_plan(NoiseSchedule(), 8, 1.5),
                         np.random.default_rng(0))
        assert len(seen) == 8 * n_realizations and max(seen) == before + 1
        assert threading.active_count() == before

    def test_sampling_error_in_realization_2_of_3(self):
        """Realization 2 (index 1) turns NaN below sigma_10: the sequential
        loop's message, from the helper's realization, and no thread left."""
        n, seed = 300, 29
        plan = make_plan(NoiseSchedule(), 64, 1.5)
        cut = plan.sigmas[10]
        index, tagged = realization_scores(gaussian_score, plan, seed, n, 3)

        def score(x, c, sigma):
            s = tagged(x, c, sigma)
            return np.full_like(x, np.nan) if index() == 1 and sigma <= cut else s

        before = threading.active_count()
        message = f"non-finite iterate at step n=11 (sigma={cut:.6g})"
        with pytest.raises(SamplingError, match=f"^{re.escape(message)}$"):
            _enhance_samples(np.zeros(n), {"sampling.n_realizations": 3}, (score, None), plan,
                             np.random.default_rng(seed))
        assert threading.active_count() == before

    @pytest.mark.parametrize("late", [0, 1])
    def test_lowest_failing_realization_raises(self, late):
        """Realizations 1 and 2 (indices 0 and 1) both raise ValueError, the
        ``late`` one only at the last noisy step, so either may fail first in
        time; index 0's error is raised and the helper is joined."""
        n, seed = 300, 31
        plan = make_plan(NoiseSchedule(), 16, 2.3)
        index, tagged = realization_scores(gaussian_score, plan, seed, n, 4)

        def score(x, c, sigma):
            s = tagged(x, c, sigma)
            at = plan.sigmas[1] if index() == late else plan.sigmas[-1]
            if index() < 2 and sigma == at:
                raise ValueError(f"realization {index()} has no score")
            return s

        before = threading.active_count()
        with pytest.raises(ValueError, match="^realization 0 has no score$"):
            _enhance_samples(np.zeros(n), {"sampling.n_realizations": 4}, (score, None), plan,
                             np.random.default_rng(seed))
        assert threading.active_count() == before
