"""Score-network forward/backward and optimizer-recipe tests.

The hand-written backward pass is checked against central finite
differences of the full batched DSM objective with the randomness frozen
(fixed t, z, x0), parameter by parameter, over many random small configs.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from scorewave import (
    ConfigError,
    NoiseSchedule,
    OptimizerConfig,
    ScoreNet,
    ScoreNetConfig,
    TrainingError,
    langevin_sample,
    make_plan,
    train,
)
from scorewave import scorenet
from scorewave.diffusion import handing
from scorewave.scorenet import (
    _ADAM_BLOCK,
    _BLOCK_ROWS,
    FilmMlp,
    SigmaEmbedding,
    _layers_backward,
    _layers_forward,
    _layer_shapes,
    _prelu,
    _prelu_backward,
    adam_step,
    decay_mask,
    dsm_loss_and_grads,
    init_optimizer,
    load_checkpoint,
    lr_at,
    save_checkpoint,
)
from scorewave.signal import Signal, write_wav

from executors import RecordingHelper


def frozen_dsm_loss(net, x_t, z, sig, c):
    """The DSM batch loss with (t, z, x0) held fixed — a deterministic
    function of the parameters, suitable for finite differencing."""
    s = net.forward(x_t, c, sig)
    resid = sig[:, None] * s + z
    return 0.5 * np.sum(resid * resid) / x_t.shape[0]


def check_gradients(net, c, rng, rel_tol=1e-4, h=1e-5):
    """Compare backward() against central differences for every parameter.

    The denominator floor keeps finite-difference roundoff (~1e-10 on a
    loss of order one) from dominating entries whose true gradient is
    essentially zero.
    """
    batch = 3
    x0 = rng.normal(size=(batch, net.config.dim_x))
    t = rng.uniform(size=batch)
    sig = NoiseSchedule().sigma_at(t)
    z = rng.standard_normal(x0.shape)
    x_t = x0 + sig[:, None] * z

    s = net.forward(x_t, c, sig, train=True)
    resid = sig[:, None] * s + z
    grads = net.backward(sig[:, None] * resid / batch)

    worst = 0.0
    for name, p in net.parameters().items():
        g = grads[name]
        assert g.shape == p.shape
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        idx = rng.choice(flat_p.size, size=min(6, flat_p.size), replace=False)
        for j in idx:
            orig = flat_p[j]
            step = h * max(1.0, abs(orig))
            flat_p[j] = orig + step
            lo_hi = frozen_dsm_loss(net, x_t, z, sig, c)
            flat_p[j] = orig - step
            lo_lo = frozen_dsm_loss(net, x_t, z, sig, c)
            flat_p[j] = orig
            fd = (lo_hi - lo_lo) / (2 * step)
            denom = max(abs(fd), abs(flat_g[j]), 1e-6)
            worst = max(worst, abs(fd - flat_g[j]) / denom)
    assert worst < rel_tol, f"worst relative gradient error {worst:.3e}"


def small_config(rng):
    return ScoreNetConfig(
        dim_x=int(rng.integers(1, 4)),
        dim_c=int(rng.integers(0, 4)),
        hidden=tuple(int(rng.integers(3, 7)) for _ in range(int(rng.integers(1, 3)))),
        n_pairs=int(rng.integers(2, 5)),
        embed_dim=int(rng.integers(4, 7)),
    )


def randomize(net, rng, scale=0.3):
    """Random nonzero parameters everywhere (zero init would hide errors)."""
    for p in net.parameters().values():
        p += scale * rng.standard_normal(p.shape)


def reference_prelu(x, a):
    return np.where(x > 0, x, a * x)


def reference_prelu_backward(x, a, dout):
    dx = np.where(x > 0, dout, a * dout)
    neg = np.where(x > 0, 0.0, x)
    return dx, (dout * neg).reshape(-1, x.shape[-1]).sum(axis=0)


class TestPrelu:
    """The slope-multiply PReLU against the np.where form it replaced, bit
    for bit (signed zeros included)."""

    @pytest.mark.parametrize("slope", [0.25, 0.0, -0.3, 1.7])
    def test_matches_where_form_bit_for_bit(self, slope):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((64, 5))
        x[rng.random(x.shape) < 0.2] = 0.0
        x[rng.random(x.shape) < 0.2] = -0.0
        x[:, 0] = -0.0  # a column whose slope gradient is a sum of signed zeros
        x[:, 1] = np.abs(x[:, 1])
        a = np.full(5, slope)
        dout = rng.standard_normal(x.shape)
        out = _prelu(x, a)
        assert out.tobytes() == reference_prelu(x, a).tobytes()
        da = np.empty(5)
        dx = _prelu_backward(x, a, dout, da)
        ref_dx, ref_da = reference_prelu_backward(x, a, dout)
        assert dx.tobytes() == ref_dx.tobytes()
        assert da.tobytes() == ref_da.tobytes()


class TestGradients:
    def test_random_configs(self):
        """>= 20 random small configs, every parameter kind, rel err < 1e-4."""
        rng = np.random.default_rng(100)
        for trial in range(20):
            cfg = small_config(rng)
            net = ScoreNet(cfg, np.random.default_rng(trial))
            assert net.n_parameters() <= 500
            randomize(net, rng)
            c = rng.normal(size=cfg.dim_c) if cfg.dim_c else None
            check_gradients(net, c, rng)

    def test_batched_conditioning_gradients(self):
        """Per-example conditioning rows also backpropagate correctly."""
        rng = np.random.default_rng(101)
        cfg = ScoreNetConfig(dim_x=2, dim_c=3, hidden=(6, 5), n_pairs=3, embed_dim=5)
        net = ScoreNet(cfg, np.random.default_rng(0))
        randomize(net, rng)
        c = rng.normal(size=(3, cfg.dim_c))
        check_gradients(net, c, rng)

    def test_sigma_embedding_gradients(self):
        """Gradient of a linear probe of the embedding vs finite differences."""
        rng = np.random.default_rng(102)
        emb = ScoreNet(ScoreNetConfig(dim_x=1, n_pairs=4, embed_dim=6),
                       np.random.default_rng(1)).embedding
        for p in emb.params.values():
            p += 0.3 * rng.standard_normal(p.shape)
        probe = rng.normal(size=6)
        sigma = np.array([0.37])

        cache = {}
        emb.forward(sigma, cache)
        grads = {name: np.empty_like(p) for name, p in emb.params.items()}
        with handing(None) as hand:
            _layers_backward(emb.params, 3, cache, probe[None, :], grads, hand)
        h = 1e-6
        for name, p in emb.params.items():
            flat_p = p.reshape(-1)
            flat_g = grads[name].reshape(-1)
            for j in rng.choice(flat_p.size, size=min(5, flat_p.size), replace=False):
                orig = flat_p[j]
                flat_p[j] = orig + h
                hi = float(probe @ emb.forward(sigma)[0])
                flat_p[j] = orig - h
                lo = float(probe @ emb.forward(sigma)[0])
                flat_p[j] = orig
                fd = (hi - lo) / (2 * h)
                assert abs(fd - flat_g[j]) / max(abs(fd), abs(flat_g[j]), 1e-8) < 1e-4

    def test_duplicate_example_matches_single(self):
        """Batch mean over a duplicated example equals the single-example
        gradient (linearity of the batch mean)."""
        rng = np.random.default_rng(103)
        cfg = ScoreNetConfig(dim_x=2, dim_c=0, hidden=(5,), n_pairs=3, embed_dim=4)
        net = ScoreNet(cfg, np.random.default_rng(2))
        randomize(net, rng)
        x_t = rng.normal(size=(1, 2))
        z = rng.normal(size=(1, 2))
        sig = np.array([0.2])

        s = net.forward(x_t, None, sig, train=True)
        g1 = net.backward(sig[:, None] * (sig[:, None] * s + z) / 1)

        x2, z2, s2 = np.repeat(x_t, 2, 0), np.repeat(z, 2, 0), np.repeat(sig, 2)
        s = net.forward(x2, None, s2, train=True)
        g2 = net.backward(s2[:, None] * (s2[:, None] * s + z2) / 2)
        for name in g1:
            np.testing.assert_allclose(g2[name], g1[name], rtol=1e-12, atol=1e-15)

    def test_successive_backward_calls_share_no_memory(self):
        """Each backward writes a fresh gradient vector: the arrays of one
        call survive the next."""
        net = ScoreNet(ScoreNetConfig(dim_x=2, dim_c=1, hidden=(5, 4), n_pairs=3, embed_dim=6),
                       np.random.default_rng(4))
        rng = np.random.default_rng(5)
        grads = []
        for _ in range(2):
            net.forward(rng.normal(size=(3, 2)), rng.normal(size=(3, 1)), np.full(3, 0.4), train=True)
            grads.append(net.backward(rng.normal(size=(3, 2))))
        first, second = grads
        assert not np.shares_memory(first.flat, second.flat)
        for name in first:
            assert not np.shares_memory(first[name], second[name])
            assert np.shares_memory(first[name], first.flat)
        np.testing.assert_array_equal(first.flat, np.concatenate(
            [first[k].ravel() for k in sorted(first)]))

    def test_zero_upstream_gives_zero_grads(self):
        net = ScoreNet(ScoreNetConfig(dim_x=2, hidden=(4,), n_pairs=2, embed_dim=3),
                       np.random.default_rng(3))
        net.forward(np.zeros((2, 2)), None, 0.5, train=True)
        grads = net.backward(np.zeros((2, 2)))
        assert all(np.all(g == 0) for g in grads.values())

    def test_backward_without_forward_raises(self):
        net = ScoreNet(ScoreNetConfig(dim_x=1, hidden=(3,), n_pairs=2, embed_dim=3),
                       np.random.default_rng(0))
        with pytest.raises(TrainingError):
            net.backward(np.zeros((1, 1)))


class TestForward:
    def test_fresh_network_is_zero_score(self):
        """Zero-initialized output layer: S = 0 for any input."""
        net = ScoreNet(ScoreNetConfig(dim_x=3, dim_c=2, hidden=(8, 8)), np.random.default_rng(4))
        rng = np.random.default_rng(5)
        out = net.forward(rng.normal(size=(10, 3)), rng.normal(size=2), 0.7)
        np.testing.assert_array_equal(out, np.zeros((10, 3)))

    def test_film_identity_matches_plain_mlp(self):
        """With FiLM projections zeroed, scales 1 and shifts 0, the network
        is an ordinary PReLU MLP — computed here directly for comparison."""
        cfg = ScoreNetConfig(dim_x=2, dim_c=0, hidden=(7, 6), n_pairs=3, embed_dim=5)
        net = ScoreNet(cfg, np.random.default_rng(6))
        rng = np.random.default_rng(7)
        for name, p in net.mlp.params.items():
            if name.endswith((".w", ".b", ".a")):
                p += 0.3 * rng.standard_normal(p.shape)
        x = rng.normal(size=(4, 2))
        out = net.forward(x, None, 0.3)

        h = x
        for i in range(2):
            pre = h @ net.mlp.params[f"l{i}.w"] + net.mlp.params[f"l{i}.b"]
            a = net.mlp.params[f"l{i}.a"]
            h = np.where(pre > 0, pre, a * pre)
        ref = h @ net.mlp.params["out.w"] + net.mlp.params["out.b"]
        np.testing.assert_allclose(out, ref, rtol=1e-14)

    def test_forward_is_pure(self):
        net = ScoreNet(ScoreNetConfig(dim_x=2, dim_c=1, hidden=(5,)), np.random.default_rng(8))
        randomize(net, np.random.default_rng(9))
        x = np.random.default_rng(10).normal(size=(3, 2))
        a = net.forward(x, np.array([0.5]), 0.9)
        b = net.forward(x, np.array([0.5]), 0.9)
        np.testing.assert_array_equal(a, b)

    def test_embedding_shape_and_determinism(self):
        """Default sizes: 32 frequency pairs expand to 256 channels."""
        emb = ScoreNet(ScoreNetConfig(dim_x=1, n_pairs=32, embed_dim=256),
                       np.random.default_rng(11)).embedding
        e1 = emb.forward(0.05)
        e2 = emb.forward(0.05)
        assert e1.shape == (256,)
        np.testing.assert_array_equal(e1, e2)

    def test_embedding_rejects_nonpositive_sigma(self):
        emb = ScoreNet(ScoreNetConfig(dim_x=1, n_pairs=2, embed_dim=3),
                       np.random.default_rng(12)).embedding
        for bad in (0.0, -1.0, np.nan):
            with pytest.raises(ConfigError):
                emb.forward(bad)

    def test_frequencies_frozen(self):
        emb = ScoreNet(ScoreNetConfig(dim_x=1, n_pairs=4, embed_dim=4),
                       np.random.default_rng(13)).embedding
        with pytest.raises(ValueError):
            emb.frequencies[0] = 1.0

    def test_dim_mismatch_raises(self):
        net = ScoreNet(ScoreNetConfig(dim_x=2, dim_c=2, hidden=(4,)), np.random.default_rng(14))
        with pytest.raises(ConfigError):
            net.forward(np.zeros((3, 5)), np.zeros(2), 0.5)
        with pytest.raises(ConfigError):
            net.forward(np.zeros((3, 2)), np.zeros(4), 0.5)
        with pytest.raises(ConfigError):
            net.forward(np.zeros((3, 2)), None, 0.5)

    def test_unbatched_vector_roundtrip(self):
        net = ScoreNet(ScoreNetConfig(dim_x=3, hidden=(4,)), np.random.default_rng(15))
        randomize(net, np.random.default_rng(16))
        x = np.array([0.1, -0.2, 0.3])
        single = net.forward(x, None, 0.2)
        batched = net.forward(x[None, :], None, 0.2)
        assert single.shape == (3,)
        np.testing.assert_allclose(single, batched[0], rtol=1e-15)

    def test_parameter_count_is_config_function(self):
        cfg = ScoreNetConfig(dim_x=2, dim_c=1, hidden=(5, 4), n_pairs=3, embed_dim=6)
        n1 = ScoreNet(cfg, np.random.default_rng(17)).n_parameters()
        n2 = ScoreNet(cfg, np.random.default_rng(99)).n_parameters()
        assert n1 == n2
        # embedding: (6*6+6+6)+(6*6+6+6)+(6*6+6+6) with first in = 2*3
        emb = (6 * 6 + 6 + 6) * 3 + (2 * 3 - 6) * 6
        # mlp layer l: w + b + a + gw + gb + hw + hb
        l0 = 3 * 5 + 5 + 5 + 6 * 5 + 5 + 6 * 5 + 5
        l1 = 5 * 4 + 4 + 4 + 6 * 4 + 4 + 6 * 4 + 4
        out = 4 * 2 + 2
        assert n1 == emb + l0 + l1 + out


def count_embedded_rows(monkeypatch):
    """Patch SigmaEmbedding.forward to record the sigma rows of each call."""
    rows: list[int] = []
    forward = SigmaEmbedding.forward

    def counting(self, sigma, cache=None):
        rows.append(int(np.size(sigma)))
        return forward(self, sigma, cache)

    monkeypatch.setattr(SigmaEmbedding, "forward", counting)
    return rows


class TestScalarSigma:
    """The sampler calls the network at one scalar sigma per step; outside
    training that sigma is embedded once, not once per row."""

    def test_scalar_sigma_matches_per_row_sigma(self):
        rng = np.random.default_rng(12)
        net = ScoreNet(ScoreNetConfig(dim_x=1, dim_c=1), np.random.default_rng(2))
        randomize(net, rng, scale=0.1)
        x = rng.normal(size=(256, 1))
        c = rng.normal(size=(256, 1))
        plan = make_plan(NoiseSchedule(), 64, 2.3)
        for sigma in plan.sigmas:
            per_row = net.forward(x, c, np.full(256, sigma))
            scalar = net.forward(x, c, sigma)
            assert scalar.shape == per_row.shape
            bound = 1e-12 * np.max(np.abs(per_row))
            assert np.max(np.abs(scalar - per_row)) <= bound, sigma

    def test_sampler_embeds_one_row_per_step(self, monkeypatch):
        rows = count_embedded_rows(monkeypatch)
        net = ScoreNet(ScoreNetConfig(dim_x=1, dim_c=1, hidden=(8,), n_pairs=4,
                                      embed_dim=8), np.random.default_rng(3))
        plan = make_plan(NoiseSchedule(), 16, 2.3)
        batch = 50
        c = np.zeros((batch, 1))
        langevin_sample(net.forward, c, plan, 1, np.random.default_rng(4), n_samples=batch)
        assert rows == [1] * len(plan.sigmas)

    def test_training_embeds_every_row(self, monkeypatch):
        rows = count_embedded_rows(monkeypatch)
        net = ScoreNet(ScoreNetConfig(dim_x=1, hidden=(8,), n_pairs=4, embed_dim=8),
                       np.random.default_rng(5))
        rng = np.random.default_rng(6)
        for _ in range(3):
            dsm_loss_and_grads(net, rng.normal(size=(32, 1)), None, NoiseSchedule(), rng)
        assert rows == [32, 32, 32]


class TestInferencePrelu:
    """The PReLU's max(x * a, x) path against the np.where form on value and
    sign bit, and the slopes that must fall back to that select."""

    SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.5, -1.5, 5e-324, -5e-324]

    @pytest.mark.parametrize("slope", [0.25, 1.0, 5e-324, 0.999])
    def test_matches_where_form_on_value_and_sign(self, slope):
        x = np.array(self.SPECIAL)[:, None] * np.ones((1, 3))
        a = np.full(3, slope)
        got, want = _prelu(x, a), reference_prelu(x, a)
        np.testing.assert_array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("bad", [0.0, -0.3, 1.7, np.nan, -0.0])
    def test_other_slopes_take_the_slope_multiply(self, bad):
        """The fallback is the select itself: a slope multiply would turn a
        NaN slope into NaN for positive x and a -0.0 slope into +0.0."""
        x = np.random.default_rng(8).standard_normal((16, 3))
        x[:2] = [[0.0, -0.0, 0.0], [-0.0, 0.0, -0.0]]
        a = np.array([0.25, bad, 0.5])
        assert _prelu(x, a).tobytes() == reference_prelu(x, a).tobytes()


class TestOnePrelu:
    """Training (a layer stack with a cache) and inference (without one) run
    one PReLU, so they give the same bits for every slope."""

    @pytest.mark.parametrize("n_layers", [1, 2])
    @pytest.mark.parametrize("slope", [0.25, 1.0, 0.0, -0.0, -0.3, 1.7, np.nan])
    def test_cache_does_not_change_the_bits(self, n_layers, slope):
        rng = np.random.default_rng(24)
        film = 4
        p = {k: rng.standard_normal(s) for k, s in _layer_shapes([3] + [5] * n_layers, film).items()}
        for i in range(n_layers):
            p[f"l{i}.a"][...] = slope
        h = rng.standard_normal((32, 3))
        h[:4], h[4:8] = 0.0, -0.0
        e = rng.standard_normal((32, film))
        trained = _layers_forward(p, n_layers, h, e, {})
        assert trained.tobytes() == _layers_forward(p, n_layers, h, e, None).tobytes()


def slopes_in_unit_interval_net(hidden=(64, 64)):
    """A dim_c = 1 network of the default size with random weights and every
    PReLU slope in (0, 1] (one of them exactly 1): the inference PReLU's
    fast path."""
    rng = np.random.default_rng(21)
    net = ScoreNet(ScoreNetConfig(dim_x=1, dim_c=1, hidden=hidden), np.random.default_rng(1))
    randomize(net, rng, scale=0.1)
    for name, a in net.parameters().items():
        if name.endswith(".a"):
            a[...] = rng.uniform(0.05, 1.0, a.shape)
            a[0] = 1.0
    return net


def frozen_digest_net(hidden=(64, 64)):
    """The network of test_enhance_digests: every parameter drawn from
    N(0, 0.1^2), so some slopes are negative and take the fallback."""
    net = ScoreNet(ScoreNetConfig(dim_x=1, dim_c=1, hidden=hidden), np.random.default_rng(0))
    net.flat[...] = 0.1 * np.random.default_rng(20_221_007).standard_normal(net.flat.size)
    return net


def one_hidden_layer_net():
    """:func:`slopes_in_unit_interval_net` with one hidden layer."""
    return slopes_in_unit_interval_net(hidden=(64,))


def three_hidden_layer_net():
    """:func:`frozen_digest_net`'s draw with three hidden layers of uneven width."""
    return frozen_digest_net(hidden=(48, 64, 32))


class TestInferenceBlocks:
    """At train=False and a scalar sigma the MLP runs over row blocks of
    B = _BLOCK_ROWS, with FiLM in place and the inference PReLU; the output
    must equal one training-formula call over all rows bit for bit."""

    B = _BLOCK_ROWS

    @pytest.mark.parametrize("make_net", [slopes_in_unit_interval_net, frozen_digest_net,
                                          one_hidden_layer_net, three_hidden_layer_net])
    @pytest.mark.parametrize("n", [1, B - 1, 2 * B - 1, 2 * B, 2 * B + 1, 3 * B - 1, 16_000])
    def test_blocks_equal_one_training_formula_call(self, make_net, n, monkeypatch):
        net = make_net()
        slopes = [a for name, a in net.mlp.params.items() if name.endswith(".a")]
        fast = make_net in (slopes_in_unit_interval_net, one_hidden_layer_net)
        assert all(np.all((a > 0) & (a <= 1)) for a in slopes) == fast
        rng = np.random.default_rng(n)
        x, c = rng.standard_normal((n, 1)), rng.standard_normal((n, 1))
        blocks = []
        forward = FilmMlp.forward

        def recording(self, x, c, e, cache=None):
            blocks.append(len(x))
            return forward(self, x, c, e, cache)

        monkeypatch.setattr(FilmMlp, "forward", recording)
        for sigma in (0.05, 1.3):
            e = net.embedding.forward(np.full(1, sigma))
            want = net.mlp.forward(x, c, e, {})
            blocks.clear()
            got = net.forward(x, c, sigma)
            assert got.tobytes() == want.tobytes(), sigma
            assert sum(blocks) == n
            assert len(blocks) == max(1, n // self.B)
            assert len(blocks) == 1 or all(self.B <= b < 2 * self.B for b in blocks)

    @pytest.mark.parametrize("sigma", [0.3, np.geomspace(1e-3, 50.0, 256)], ids=["scalar", "256"])
    @pytest.mark.parametrize("unit_slopes", [True, False], ids=["unit_slopes", "other_slopes"])
    @pytest.mark.parametrize("n_pairs, embed_dim", [(32, 256), (3, 5)])
    def test_embedding_without_cache_equals_training_formula(self, n_pairs, embed_dim,
                                                             unit_slopes, sigma):
        """The sigma embedding runs the same layer stack: without a cache
        (inference PReLU) it gives the bits of the cached training formula."""
        rng = np.random.default_rng(embed_dim)
        emb = ScoreNet(ScoreNetConfig(dim_x=1, n_pairs=n_pairs, embed_dim=embed_dim),
                       np.random.default_rng(9)).embedding
        for name, p in emb.params.items():
            p += 0.3 * rng.standard_normal(p.shape)
            if name.endswith(".a") and unit_slopes:
                p[...] = rng.uniform(0.05, 1.0, p.shape)
                p[0] = 1.0
        slopes = [a for name, a in emb.params.items() if name.endswith(".a")]
        assert all(np.all((a > 0) & (a <= 1)) for a in slopes) == unit_slopes
        got, want = emb.forward(sigma), emb.forward(sigma, {})
        assert got.shape == want.shape == np.shape(sigma) + (embed_dim,)
        assert got.tobytes() == want.tobytes()

    def test_shared_conditioning_row_is_broadcast_in_every_block(self):
        net = slopes_in_unit_interval_net()
        rng = np.random.default_rng(3)
        x, c = rng.standard_normal((5000, 1)), np.array([0.7])
        want = net.mlp.forward(x, c, net.embedding.forward(np.full(1, 0.4)), {})
        assert net.forward(x, c, 0.4).tobytes() == want.tobytes()

    def test_training_and_per_row_sigma_stay_one_call(self, monkeypatch):
        net = slopes_in_unit_interval_net()
        n = 3 * self.B
        calls = []
        forward = FilmMlp.forward
        monkeypatch.setattr(FilmMlp, "forward",
                            lambda self, *a: calls.append(len(a[0])) or forward(self, *a))
        x = np.zeros((n, 1))
        net.forward(x, x, np.full(n, 0.5))
        net.forward(x, x, 0.5, train=True)
        assert calls == [n, n]


# A 60 s clip at 16 kHz through ``enhance --checkpoint`` at N = 2, in a fresh
# interpreter that prints its own peak resident set (ru_maxrss, in KB).
MEMORY_CHILD = """
import resource, sys
from scorewave.cli import main
code = main(sys.argv[1:])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_long_clip_checkpoint_enhance_memory_stays_bounded(tmp_path):
    rng = np.random.default_rng(60)
    write_wav(tmp_path / "noisy.wav", Signal(0.1 * rng.standard_normal(60 * 16000), 16000),
              encoding="float32")
    save_checkpoint(tmp_path / "net.bin", frozen_digest_net())
    (tmp_path / "n2.cfg").write_text("sampling.n_steps = 2\n")
    src = Path(scorenet.__file__).resolve().parents[1]
    argv = ["--config", str(tmp_path / "n2.cfg"), "enhance", "--checkpoint",
            str(tmp_path / "net.bin"), "--input", str(tmp_path / "noisy.wav"),
            "--output", str(tmp_path / "out.wav")]
    proc = subprocess.run([sys.executable, "-c", MEMORY_CHILD, *argv],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, check=True)
    code, peak_kb = map(int, proc.stdout.split()[-2:])
    assert code == 0
    assert peak_kb / 1024 <= 300, f"peak RSS {peak_kb / 1024:.0f} MB"


class TestOptimizer:
    def test_lr_endpoints(self):
        """LR at iteration 0 is the warm-up start (peak/125); at the end of
        warm-up it is exactly the peak."""
        cfg = OptimizerConfig(total_steps=1000, peak_lr=2e-4)
        assert lr_at(cfg, 0) == pytest.approx(2e-4 / 125)
        assert lr_at(cfg, cfg.warmup_steps) == pytest.approx(2e-4)

    def test_lr_cosine_tail(self):
        cfg = OptimizerConfig(total_steps=1000, peak_lr=2e-4)
        lrs = [lr_at(cfg, s) for s in range(cfg.warmup_steps, 1001)]
        assert all(b <= a + 1e-18 for a, b in zip(lrs, lrs[1:]))
        assert lr_at(cfg, 1000) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("kwargs", [{"peak_lr": np.nan}, {"peak_lr": np.inf},
                                        {"peak_lr": 0.0}, {"weight_decay": np.nan},
                                        {"weight_decay": np.inf}, {"weight_decay": -0.01}],
                             ids=["lr_nan", "lr_inf", "lr_zero", "decay_nan", "decay_inf",
                                  "decay_negative"])
    def test_rejects_bad_rate_or_decay(self, kwargs):
        """A NaN or infinite peak_lr passes a ``peak_lr <= 0`` test and would
        train one step into a non-finite loss; so would a NaN weight decay."""
        with pytest.raises(ConfigError):
            OptimizerConfig(total_steps=10, **kwargs)

    @pytest.mark.parametrize("kwargs", [{"beta1": np.nan}, {"beta1": 1.0}, {"beta1": -0.1},
                                        {"beta2": np.nan}, {"beta2": 2.0}, {"eps": np.nan},
                                        {"eps": 0.0}, {"eps": np.inf},
                                        {"warmup_start_factor": np.nan},
                                        {"warmup_start_factor": 0.0},
                                        {"warmup_start_factor": np.inf}],
                             ids=["beta1_nan", "beta1_one", "beta1_negative", "beta2_nan",
                                  "beta2_two", "eps_nan", "eps_zero", "eps_inf",
                                  "warmup_start_nan", "warmup_start_zero", "warmup_start_inf"])
    def test_rejects_bad_moment_or_warmup_setting(self, kwargs):
        """Adam needs 0 <= beta1, beta2 < 1 and a finite eps > 0, and the
        warm-up a finite start factor > 0; anything else trains into a
        non-finite step or learning rate, so it is a ConfigError (exit 2)."""
        with pytest.raises(ConfigError):
            OptimizerConfig(total_steps=10, **kwargs)

    def test_warmup_is_linear(self):
        cfg = OptimizerConfig(total_steps=2000, peak_lr=1e-3)
        w = cfg.warmup_steps
        lrs = np.array([lr_at(cfg, s) for s in range(w + 1)])
        np.testing.assert_allclose(np.diff(lrs), np.diff(lrs)[0], rtol=1e-10)

    def test_decay_mask_excludes_biases_and_slopes(self):
        net = ScoreNet(ScoreNetConfig(dim_x=2, dim_c=1, hidden=(4,)), np.random.default_rng(18))
        mask = decay_mask(net.parameters())
        for name, decays in mask.items():
            if name.endswith((".b", ".a", ".gb", ".hb")):
                assert not decays, name
            else:
                assert decays, name

    def test_masked_parameters_static_under_zero_grads(self):
        """With zero gradients, decayed weights shrink but biases and PReLU
        slopes stay exactly put."""
        net = ScoreNet(ScoreNetConfig(dim_x=2, hidden=(4,)), np.random.default_rng(19))
        randomize(net, np.random.default_rng(20))
        params = net.parameters()
        before = {k: v.copy() for k, v in params.items()}
        state = init_optimizer(params, OptimizerConfig(total_steps=10, weight_decay=0.1))
        adam_step(state, net.flat, np.zeros_like(net.flat))
        for name, p in params.items():
            if name.endswith((".b", ".a", ".gb", ".hb")):
                np.testing.assert_array_equal(p, before[name])
            else:
                assert np.all(np.abs(p) <= np.abs(before[name]) + 1e-18)
                changed = before[name] != 0
                assert np.all(p[changed] != before[name][changed])

    def test_adam_matches_reference_formula(self):
        """One parameter, two steps, hand-computed Adam recursion."""
        p = {"x.w": np.array([1.0])}
        cfg = OptimizerConfig(total_steps=100, peak_lr=1e-2, warmup_frac=0.0,
                              weight_decay=0.0)
        state = init_optimizer(p, cfg)
        g1 = np.array([0.3])
        adam_step(state, p["x.w"], g1)
        m = 0.1 * 0.3
        v = 0.001 * 0.09
        expect = 1.0 - 1e-2 * (m / 0.1) / (np.sqrt(v / 0.001) + 1e-8)
        np.testing.assert_allclose(p["x.w"], expect, rtol=1e-12)

    def test_update_invariant_to_batch_permutation(self):
        rng = np.random.default_rng(21)
        cfg = ScoreNetConfig(dim_x=2, hidden=(6,), n_pairs=3, embed_dim=4)
        x_t = rng.normal(size=(8, 2))
        z = rng.normal(size=(8, 2))
        sig = rng.uniform(0.1, 1.0, size=8)
        perm = rng.permutation(8)
        grads = []
        for order in (np.arange(8), perm):
            net = ScoreNet(cfg, np.random.default_rng(22))
            randomize(net, np.random.default_rng(23))
            s = net.forward(x_t[order], None, sig[order], train=True)
            g = net.backward(sig[order, None] * (sig[order, None] * s + z[order]) / 8)
            grads.append(g)
        for name in grads[0]:
            np.testing.assert_allclose(grads[0][name], grads[1][name], rtol=1e-10, atol=1e-14)


class TestTraining:
    def test_loss_trace_decreases(self):
        """Smoothed DSM loss at the 90% checkpoint is below the 10% one."""
        from scorewave import GmmPrior

        prior = GmmPrior(weights=[1.0], means=[0.5], variances=[0.04])
        net = ScoreNet(ScoreNetConfig(dim_x=1, hidden=(24, 24), n_pairs=8, embed_dim=24),
                       np.random.default_rng(24))
        trace = train(net, prior, NoiseSchedule(), OptimizerConfig(total_steps=800, peak_lr=2e-3),
                      n_iters=800, batch_size=32, rng=np.random.default_rng(25))
        assert trace.shape == (800,)
        smooth = np.convolve(trace, np.ones(100) / 100, mode="valid")
        assert smooth[int(0.9 * smooth.size)] < smooth[int(0.1 * smooth.size)]

    def test_training_is_deterministic(self):
        from scorewave import GmmPrior

        prior = GmmPrior(weights=[1.0], means=[0.0], variances=[1.0])
        cfg = ScoreNetConfig(dim_x=1, hidden=(8,), n_pairs=4, embed_dim=8)
        nets = []
        for _ in range(2):
            net = ScoreNet(cfg, np.random.default_rng(26))
            train(net, prior, NoiseSchedule(), OptimizerConfig(total_steps=50),
                  n_iters=50, batch_size=16, rng=np.random.default_rng(27))
            nets.append(net)
        for name, p in nets[0].parameters().items():
            np.testing.assert_array_equal(p, nets[1].parameters()[name])

    def test_nan_loss_aborts_with_iteration(self):
        from scorewave import GmmPrior

        prior = GmmPrior(weights=[1.0], means=[0.0], variances=[1.0])
        net = ScoreNet(ScoreNetConfig(dim_x=1, hidden=(4,), n_pairs=2, embed_dim=3),
                       np.random.default_rng(28))
        net.parameters()["mlp.out.w"][...] = np.nan
        with pytest.raises(TrainingError, match="iteration 0"):
            train(net, prior, NoiseSchedule(), OptimizerConfig(total_steps=10),
                  n_iters=10, batch_size=4, rng=np.random.default_rng(29))

    def test_loss_draws_like_dsm_loss_batch(self):
        """dsm_loss_and_grads and diffusion.dsm_loss_batch share one (t, z)
        draw: from equal generators they see the same perturbed batch, and
        leave the generators in the same state."""
        from scorewave.diffusion import dsm_loss_batch

        net = ScoreNet(ScoreNetConfig(dim_x=2, hidden=(6,), n_pairs=3, embed_dim=5),
                       np.random.default_rng(40))
        x0 = np.random.default_rng(41).standard_normal((16, 2))
        rng_a, rng_b = np.random.default_rng(42), np.random.default_rng(42)
        loss, _ = dsm_loss_and_grads(net, x0, None, NoiseSchedule(), rng_a)
        losses = dsm_loss_batch(net.forward, x0, None, NoiseSchedule(), rng_b)
        assert loss == pytest.approx(losses.mean(), rel=1e-12)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_rejects_bad_data_argument(self):
        net = ScoreNet(ScoreNetConfig(dim_x=1, hidden=(4,)), np.random.default_rng(30))
        with pytest.raises(ConfigError):
            train(net, object(), NoiseSchedule(), OptimizerConfig(total_steps=10),
                  n_iters=10, batch_size=4, rng=np.random.default_rng(31))


def gmm_task():
    from scorewave import GmmPrior

    return GmmPrior(weights=[0.3, 0.7], means=[-2.0, 2.0], variances=[0.1, 0.1])


def conditional_task(rng, batch):
    """(x0, c) pairs for a dim_c = 1 net: c is the mean x0 is drawn around."""
    c = rng.choice([-1.0, 1.0], size=(batch, 1))
    return c + 0.2 * rng.standard_normal((batch, 1)), c


class TestHelperBits:
    """A helper executor moves no bit: backward's gradient vector, an Adam
    step and a training run equal the inline calls', and every task handed
    to the helper is done when the call returns or raises."""

    @pytest.mark.parametrize("batch", [1, 128, 1000])
    @pytest.mark.parametrize("dim_c", [0, 1])
    @pytest.mark.parametrize("size", ["default", "small"])
    def test_backward_gradient_vector(self, size, dim_c, batch):
        if size == "default":
            cfg = ScoreNetConfig(dim_x=1, dim_c=dim_c)
        else:
            cfg = ScoreNetConfig(dim_x=2, dim_c=dim_c, hidden=(6, 5, 4), n_pairs=3, embed_dim=7)
        net = ScoreNet(cfg, np.random.default_rng(60))
        randomize(net, np.random.default_rng(61), scale=0.1)
        rng = np.random.default_rng(62)
        x = rng.standard_normal((batch, cfg.dim_x))
        c = rng.standard_normal((batch, dim_c)) if dim_c else None
        sig = NoiseSchedule().sigma_at(rng.uniform(size=batch))
        d_out = rng.standard_normal((batch, cfg.dim_x)) / batch
        net.forward(x, c, sig, train=True)
        inline = net.backward(d_out).flat
        with RecordingHelper() as helper:
            handed = net.backward(d_out, helper=helper).flat
        # one task per layer: the output affine, each hidden layer, 3 embedding layers
        assert len(helper.futures) == len(cfg.hidden) + 4
        assert handed.tobytes() == inline.tobytes()

    @pytest.mark.parametrize("n_slices", [0.5, 2, 7.25], ids=["part", "2", "7+tail"])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_adam_step(self, n_slices, weight_decay):
        """Three steps on random gradients; under one slice nothing is
        submitted, else one task, the upper half."""
        size = int(n_slices * _ADAM_BLOCK)
        params = {"a.w": np.zeros(size // 3), "b.b": np.zeros(size - size // 3)}
        cfg = OptimizerConfig(total_steps=10, warmup_frac=0.0, weight_decay=weight_decay)
        rng = np.random.default_rng(63)
        start = rng.standard_normal(size)
        grads = [rng.standard_normal(size) for _ in range(3)]
        runs = []
        with RecordingHelper() as helper:
            for h in (None, helper):
                flat, state = start.copy(), init_optimizer(params, cfg)
                lrs = [adam_step(state, flat, g, helper=h) for g in grads]
                runs.append((flat.tobytes(), state.m.tobytes(), state.v.tobytes(),
                             state.step, lrs))
        assert len(helper.futures) == (0 if n_slices < 1 else 3)
        assert runs[1] == runs[0]

    @pytest.mark.parametrize("short", [5, _ADAM_BLOCK + 5], ids=["caller", "helper"])
    def test_adam_step_raising_half_is_joined(self, short):
        """Gradients too short for one half: that half raises, the other
        half's task is done by then, and the step count does not move."""
        size = 2 * _ADAM_BLOCK
        state = init_optimizer({"a.w": np.zeros(size)}, OptimizerConfig(total_steps=10))
        with RecordingHelper(delay=0.02) as helper:
            with pytest.raises(ValueError, match="broadcast"):
                adam_step(state, np.zeros(size), np.zeros(short), helper=helper)
            assert [f.done() for f in helper.futures] == [True]
        assert state.step == 0

    @pytest.mark.parametrize("raising", ["chain", "task"])
    def test_backward_joins_every_task_before_raising(self, raising, monkeypatch):
        """The chain raises at its third PReLU backward, or the second
        handed task raises, while slow tasks are pending: backward raises
        that error only after every task is done."""
        net = ScoreNet(ScoreNetConfig(dim_x=1), np.random.default_rng(64))
        x = np.random.default_rng(65).standard_normal((128, 1))
        net.forward(x, None, np.full(128, 0.5), train=True)
        calls = []
        name = "_prelu_backward" if raising == "chain" else "_affine_grads"
        original = getattr(scorenet, name)

        def failing(*args):
            calls.append(1)
            if len(calls) == (3 if raising == "chain" else 2):
                raise TrainingError(f"{raising} failed")
            return original(*args)

        monkeypatch.setattr(scorenet, name, failing)
        with RecordingHelper(delay=0.02) as helper:
            with pytest.raises(TrainingError, match=f"^{raising} failed$"):
                net.backward(x, helper=helper)
            done = [f.done() for f in helper.futures]
        assert len(done) >= 2 and all(done)

    def test_backward_raises_the_chains_error_over_a_tasks(self, monkeypatch):
        """The first handed task and the chain's third PReLU backward both
        raise: the chain's error wins, after every task is done."""
        net = ScoreNet(ScoreNetConfig(dim_x=1), np.random.default_rng(64))
        x = np.random.default_rng(65).standard_normal((128, 1))
        net.forward(x, None, np.full(128, 0.5), train=True)

        def raise_at(name, at):
            calls, original = [], getattr(scorenet, name)

            def failing(*args):
                calls.append(1)
                if len(calls) == at:
                    raise TrainingError(f"{name} failed")
                return original(*args)

            monkeypatch.setattr(scorenet, name, failing)

        raise_at("_prelu_backward", 3)
        raise_at("_affine_grads", 1)
        with RecordingHelper(delay=0.02) as helper:
            with pytest.raises(TrainingError, match="^_prelu_backward failed$"):
                net.backward(x, helper=helper)
            done = [f.done() for f in helper.futures]
        assert len(done) >= 2 and all(done)

    @pytest.mark.parametrize("data", ["gmm", "callable"])
    @pytest.mark.parametrize("size", ["default", "small"])
    def test_train(self, data, size):
        """Trace, parameters, moments, step and the rng state after the call."""
        dim_c = 0 if data == "gmm" else 1
        cfg = (ScoreNetConfig(dim_x=1, dim_c=dim_c) if size == "default" else
               ScoreNetConfig(dim_x=1, dim_c=dim_c, hidden=(8,), n_pairs=4, embed_dim=8))
        task = gmm_task() if data == "gmm" else conditional_task
        runs = []
        with RecordingHelper() as helper:
            for h in (None, helper):
                net, rng = ScoreNet(cfg, np.random.default_rng(66)), np.random.default_rng(67)
                trace = train(net, task, NoiseSchedule(), OptimizerConfig(total_steps=4), 4, 64,
                              rng, helper=h)
                state = net.opt_state
                runs.append((trace.tobytes(), net.flat.tobytes(), state.m.tobytes(),
                             state.v.tobytes(), state.step, rng.bit_generator.state))
        assert helper.futures
        assert runs[1] == runs[0]


class TestParameterStore:
    def test_views_share_memory_with_flat(self):
        """Every named parameter, and every layer's own array, is a view of
        the one parameter vector; a write through the vector moves forward()."""
        net = ScoreNet(ScoreNetConfig(dim_x=2, dim_c=1, hidden=(5, 4), n_pairs=3, embed_dim=6),
                       np.random.default_rng(37))
        params = net.parameters()
        assert params is net.parameters()
        assert net.flat.dtype == np.float64 and net.flat.flags.c_contiguous
        assert net.n_parameters() == net.flat.size == sum(p.size for p in params.values())
        layers = list(net.embedding.params.values()) + list(net.mlp.params.values())
        assert len(layers) == len(params)
        for arr in list(params.values()) + layers:
            assert np.shares_memory(arr, net.flat)
        x, c = np.array([[0.3, -0.2]]), np.array([0.5])
        before = net.forward(x, c, 0.7)
        net.flat += 0.1
        assert not np.array_equal(net.forward(x, c, 0.7), before)

    @pytest.mark.parametrize("cfg", [
        ScoreNetConfig(dim_x=1),
        ScoreNetConfig(dim_x=1, dim_c=1),
        ScoreNetConfig(dim_x=3, dim_c=2, hidden=(5, 7, 2), n_pairs=3, embed_dim=6),
    ])
    def test_config_counts_parameters_without_building(self, cfg):
        assert cfg.n_parameters() == ScoreNet(cfg, np.random.default_rng(0)).n_parameters()


class TestConstruction:
    """A network is drawn from an rng or wraps a parameter vector and its
    frequencies; no call builds one with either missing."""

    CFG = ScoreNetConfig(dim_x=2, dim_c=1, hidden=(5, 4), n_pairs=3, embed_dim=6)

    def drawn(self):
        return ScoreNet(self.CFG, np.random.default_rng(38))

    def test_wrapped_network_shares_the_vector_and_copies_the_frequencies(self):
        net = self.drawn()
        randomize(net, np.random.default_rng(39))
        flat, freq = net.flat.copy(), net.embedding.frequencies.copy()
        wrapped = ScoreNet(self.CFG, flat=flat, frequencies=freq)
        assert wrapped.flat is flat
        assert not np.shares_memory(wrapped.embedding.frequencies, freq)
        assert freq.flags.writeable and not wrapped.embedding.frequencies.flags.writeable
        x, c = np.array([[0.3, -0.2], [1.1, 0.4]]), np.array([0.5])
        assert wrapped.forward(x, c, 0.7).tobytes() == net.forward(x, c, 0.7).tobytes()

    @pytest.mark.parametrize("case", ["nothing", "rng_and_flat", "rng_and_both", "flat_alone",
                                      "frequencies_alone", "short_flat", "long_frequencies",
                                      "float32_flat", "list_frequencies"])
    def test_half_built_network_is_config_error(self, case):
        net = self.drawn()
        flat, freq = net.flat.copy(), net.embedding.frequencies.copy()
        rng = np.random.default_rng(0)
        kwargs = {"nothing": {"rng": None},
                  "rng_and_flat": {"rng": rng, "flat": flat},
                  "rng_and_both": {"rng": rng, "flat": flat, "frequencies": freq},
                  "flat_alone": {"flat": flat},
                  "frequencies_alone": {"frequencies": freq},
                  "short_flat": {"flat": flat[:-1], "frequencies": freq},
                  "long_frequencies": {"flat": flat, "frequencies": np.append(freq, 0.0)},
                  "float32_flat": {"flat": flat.astype(np.float32), "frequencies": freq},
                  "list_frequencies": {"flat": flat, "frequencies": list(freq)}}[case]
        with pytest.raises(ConfigError, match="rng to draw from, or flat and frequencies"):
            ScoreNet(self.CFG, **kwargs)


class TestCheckpoint:
    def test_roundtrip_bitexact(self, tmp_path):
        net = ScoreNet(ScoreNetConfig(dim_x=2, dim_c=1, hidden=(6, 5), n_pairs=4, embed_dim=7),
                       np.random.default_rng(32))
        randomize(net, np.random.default_rng(33))
        state = init_optimizer(net.parameters(), OptimizerConfig(total_steps=500))
        state.step = 123
        state.m += 0.1
        state.v += 0.2
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, net, state)
        net2, state2 = load_checkpoint(path)
        np.testing.assert_array_equal(net2.embedding.frequencies, net.embedding.frequencies)
        for name, p in net.parameters().items():
            np.testing.assert_array_equal(net2.parameters()[name], p)
        assert state2.step == 123
        np.testing.assert_array_equal(state2.m, state.m)
        np.testing.assert_array_equal(state2.v, state.v)

    def test_resume_equals_uninterrupted(self, tmp_path):
        """Train 60 iters straight vs 30 + checkpoint + restore + 30 with the
        same generator: identical parameters."""
        from scorewave import GmmPrior

        prior = GmmPrior(weights=[1.0], means=[0.0], variances=[0.25])
        cfg = ScoreNetConfig(dim_x=1, hidden=(6,), n_pairs=3, embed_dim=5)
        sched = NoiseSchedule()
        ocfg = OptimizerConfig(total_steps=60)

        net_a = ScoreNet(cfg, np.random.default_rng(34))
        train(net_a, prior, sched, ocfg, n_iters=60, batch_size=8, rng=np.random.default_rng(35))

        net_b = ScoreNet(cfg, np.random.default_rng(34))
        rng = np.random.default_rng(35)
        train(net_b, prior, sched, ocfg, n_iters=30, batch_size=8, rng=rng)
        path = tmp_path / "resume.ckpt"
        save_checkpoint(path, net_b, net_b.opt_state)
        net_c, state_c = load_checkpoint(path)
        train(net_c, prior, sched, ocfg, n_iters=30, batch_size=8, rng=rng, opt_state=state_c)

        for name, p in net_a.parameters().items():
            np.testing.assert_array_equal(net_c.parameters()[name], p)

    def test_bytes_match_recorded_digests(self, tmp_path):
        """Checkpoint bytes after 30 steps (with and without optimizer
        state) and after 30 resumed steps, pinned to sha256 digests recorded
        before the parameters moved into one vector (numpy 2.x, OpenBLAS,
        x86-64): the layout and the Adam arithmetic are unchanged."""
        from scorewave import GmmPrior
        from scorewave.oracle import sample as sample_prior

        prior = GmmPrior(weights=[0.3, 0.7], means=[-1.0, 0.5], variances=[0.09, 0.04])

        def draw(r, b):
            x0 = sample_prior(prior, b, r)
            return x0, x0 + 0.5 * r.standard_normal(x0.shape)

        net = ScoreNet(ScoreNetConfig(dim_x=1, dim_c=1, hidden=(8, 8), n_pairs=4, embed_dim=8),
                       np.random.default_rng(40))
        rng = np.random.default_rng(41)
        train(net, draw, NoiseSchedule(), OptimizerConfig(total_steps=60, peak_lr=1e-3),
              n_iters=30, batch_size=16, rng=rng)
        save_checkpoint(tmp_path / "opt.ckpt", net, net.opt_state)
        save_checkpoint(tmp_path / "bare.ckpt", net)
        net2, state = load_checkpoint(tmp_path / "opt.ckpt")
        train(net2, draw, NoiseSchedule(), state.config, n_iters=30, batch_size=16, rng=rng,
              opt_state=state)
        save_checkpoint(tmp_path / "resumed.ckpt", net2, net2.opt_state)
        digests = {name: hashlib.sha256((tmp_path / f"{name}.ckpt").read_bytes()).hexdigest()
                   for name in ("opt", "bare", "resumed")}
        assert digests == {
            "opt": "f36022325dbf821d56b1cd3f2294e54df9d09169e19f54a675dde510c9c888a1",
            "bare": "a78af53871ea386aadf5ed583d2a6fd828775c5f0db0b2b687dd2bc214d14179",
            "resumed": "fb0bae45bfe8960f4e31fd21d733e1c039e73135efce2a85e97c0ace5d74e6ea",
        }

    @pytest.mark.parametrize("dim_c", [0, 1])
    def test_default_size_bytes_match_recorded_digests(self, tmp_path, dim_c):
        """The default-size nets (256-wide embedding, so other BLAS kernels
        than the 8-wide digest test above), 20 steps at batch 128, saved with
        optimizer state; digests recorded with the np.where PReLU and a
        per-array backward (numpy 2.x, OpenBLAS, x86-64)."""
        from scorewave import GmmPrior
        from scorewave.oracle import sample as sample_prior

        prior = GmmPrior(weights=[0.3, 0.7], means=[-1.0, 0.5], variances=[0.09, 0.04])

        def draw(r, b):
            x0 = sample_prior(prior, b, r)
            return x0, x0 + 0.5 * r.standard_normal(x0.shape)

        net = ScoreNet(ScoreNetConfig(dim_x=1, dim_c=dim_c), np.random.default_rng(44))
        train(net, draw if dim_c else prior, NoiseSchedule(),
              OptimizerConfig(total_steps=20, peak_lr=1e-3), n_iters=20, batch_size=128,
              rng=np.random.default_rng(45))
        save_checkpoint(tmp_path / "net.ckpt", net, net.opt_state)
        assert hashlib.sha256((tmp_path / "net.ckpt").read_bytes()).hexdigest() == {
            0: "eeaf50373575eca98ec9c939a85e2337dc1b03f6f7ecd13491c68f8db4698d83",
            1: "83acafdcf150e669cfb5d19da7db200f4c32ce5ddce310dbd61b9ddd51311f30",
        }[dim_c]

    def test_load_draws_nothing(self, tmp_path, monkeypatch):
        """The loaded network wraps the payload: no random initialisation is
        drawn and thrown away."""
        net = ScoreNet(ScoreNetConfig(dim_x=1, dim_c=1, hidden=(6, 5), n_pairs=3, embed_dim=4),
                       np.random.default_rng(46))
        save_checkpoint(tmp_path / "net.ckpt", net)
        calls = []
        affine_init = scorenet._affine_init
        monkeypatch.setattr(scorenet, "_affine_init", lambda *a: calls.append(a) or affine_init(*a))
        monkeypatch.setattr(np.random, "default_rng", lambda *a: calls.append(a))
        loaded, _ = load_checkpoint(tmp_path / "net.ckpt")
        assert calls == []
        assert loaded.flat.tobytes() == net.flat.tobytes()
        for arr in list(loaded.embedding.params.values()) + list(loaded.mlp.params.values()):
            assert np.shares_memory(arr, loaded.flat)

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
        with pytest.raises(ConfigError):
            load_checkpoint(path)

    def _saved(self, tmp_path, with_opt):
        net = ScoreNet(ScoreNetConfig(dim_x=1, hidden=(4,), n_pairs=2, embed_dim=3),
                       np.random.default_rng(36))
        state = init_optimizer(net.parameters(), OptimizerConfig(total_steps=10))
        path = tmp_path / "ok.ckpt"
        save_checkpoint(path, net, state if with_opt else None)
        return path.read_bytes()

    @pytest.mark.parametrize("with_opt", [False, True])
    def test_rejects_truncated_payload(self, tmp_path, with_opt):
        blob = self._saved(tmp_path, with_opt)
        for cut in (8, 1):
            path = tmp_path / f"short{cut}.ckpt"
            path.write_bytes(blob[:-cut])
            with pytest.raises(ConfigError, match="payload"):
                load_checkpoint(path)

    @pytest.mark.parametrize("with_opt", [False, True])
    def test_rejects_trailing_bytes(self, tmp_path, with_opt):
        path = tmp_path / "long.ckpt"
        path.write_bytes(self._saved(tmp_path, with_opt) + b"\x00" * 8)
        with pytest.raises(ConfigError, match="payload"):
            load_checkpoint(path)

    def test_header_declaring_a_huge_network_is_rejected_before_building(self, tmp_path):
        """Two bytes turn "hidden": [4, 4] into [4e14]: the payload check runs
        on the config's parameter count before any array is allocated, so
        this is a ConfigError, not a numpy MemoryError."""
        net = ScoreNet(ScoreNetConfig(dim_x=1, hidden=(4, 4), n_pairs=2, embed_dim=4),
                       np.random.default_rng(43))
        path = tmp_path / "huge.ckpt"
        save_checkpoint(path, net)
        path.write_bytes(path.read_bytes().replace(b'"hidden": [4, 4]', b'"hidden": [4e14]'))
        with pytest.raises(ConfigError, match="payload"):
            load_checkpoint(path)

    def test_header_sizes_written_as_floats(self, tmp_path):
        """JSON sizes such as 2.0 are read as integers; an infinite one
        ("Infinity", which Python's json accepts) is a ConfigError."""
        blob = self._saved(tmp_path, False)
        (hlen,) = struct.unpack("<I", blob[8:12])
        header, payload = blob[12:12 + hlen], blob[12 + hlen:]

        def with_header(name, text):
            path = tmp_path / name
            path.write_bytes(blob[:8] + struct.pack("<I", len(text)) + text + payload)
            return path

        net, _ = load_checkpoint(with_header("float.ckpt", header.replace(b'"n_pairs": 2',
                                                                          b'"n_pairs": 2.0')))
        assert net.config.n_pairs == 2 and isinstance(net.config.n_pairs, int)
        with pytest.raises(ConfigError):
            load_checkpoint(with_header("inf.ckpt", header.replace(b'"hidden": [4]',
                                                                   b'"hidden": [Infinity]')))

    def _with_entry(self, tmp_path, record, key, value):
        """A saved checkpoint whose header record ("config" or "opt") has
        ``key`` set to ``value``."""
        blob = self._saved(tmp_path, True)
        (hlen,) = struct.unpack("<I", blob[8:12])
        header = json.loads(blob[12:12 + hlen])
        header[record][key] = value
        text = json.dumps(header).encode()
        path = tmp_path / "edited.ckpt"
        path.write_bytes(blob[:8] + struct.pack("<I", len(text)) + text + blob[12 + hlen:])
        return path

    @pytest.mark.parametrize("key, value", [("step", "x"), ("step", None), ("step", -5),
                                            ("step", 2.5), ("step", True), ("step", 10**400),
                                            ("total_steps", 2.5), ("total_steps", True)])
    def test_rejects_optimizer_count_that_is_not_a_whole_number(self, tmp_path, key, value):
        """The Adam step must be a whole number >= 0 and total_steps one >= 1,
        both at most 2**53: a string or null used to escape as a TypeError at
        the first update, -5 as a ZeroDivisionError, 10**400 as an
        OverflowError, and 2.5 or true trained on."""
        with pytest.raises(ConfigError, match=f"{key} must be a whole number"):
            load_checkpoint(self._with_entry(tmp_path, "opt", key, value))

    @pytest.mark.parametrize("key", ["step", "total_steps"])
    def test_optimizer_counts_written_as_floats(self, tmp_path, key):
        _, state = load_checkpoint(self._with_entry(tmp_path, "opt", key, 3.0))
        value = state.step if key == "step" else state.config.total_steps
        assert value == 3 and type(value) is int

    @pytest.mark.parametrize("key, value", [("n_pairs", 2.5), ("embed_dim", 3.9),
                                            ("hidden", [4.5]), ("dim_x", 1.5)])
    def test_rejects_size_that_is_not_a_whole_number(self, tmp_path, key, value):
        """A size such as 2.5 used to be truncated to 2, and the file loaded
        whenever the truncated network matched its payload."""
        with pytest.raises(ConfigError, match="must be a whole number"):
            load_checkpoint(self._with_entry(tmp_path, "config", key, value))

    def test_rejects_short_or_undecodable_header(self, tmp_path):
        blob = self._saved(tmp_path, True)
        (hlen,) = struct.unpack("<I", blob[8:12])
        cases = {
            "no_length": blob[:10],
            "cut_header": blob[: 12 + hlen // 2],
            "not_utf8": blob[:12] + b"\xff" * hlen + blob[12 + hlen:],
            "not_json": blob[:12] + b"{" * hlen + blob[12 + hlen:],
            "wrong_keys": b"SWCKPT01" + struct.pack("<I", 2) + b"{}",
        }
        for name, data in cases.items():
            path = tmp_path / f"{name}.ckpt"
            path.write_bytes(data)
            with pytest.raises(ConfigError):
                load_checkpoint(path)
