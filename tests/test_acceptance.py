"""Acceptance gate: one test per numbered criterion, one verdict line each.

Run with ``pytest -v tests/test_acceptance.py`` — each test function is one
criterion, so the -v report reads as the acceptance checklist. Every test
also prints an explicit ``criterion N (...): PASS`` line (visible with -s
and in failure output). Criteria 5 and 8 train networks and take most of
the suite's time; they are marked ``slow``, so ``-m "not slow"`` gives a
quick loop.

The two trained networks are session-scoped fixtures with frozen seeds;
every number asserted here was frozen from a preliminary run of the same
seeds, and the achieved values are recorded in the docstrings.
"""

import json

import numpy as np
import pytest
from scipy import stats

from scorewave.diffusion import langevin_sample
from scorewave.distort import (
    PRIMITIVES,
    ChainConfig,
    DistortionSpec,
    apply_chain,
    chain_from_json,
    sample_chain,
)
from scorewave.mdn import MdnParams, fit_mdn, mdn_density, mdn_nll, mdn_nll_grads
from scorewave.oracle import GmmPrior, log_density, perturbed_score, sample, score_function
from scorewave.schedule import NoiseSchedule, make_plan
from scorewave.scorenet import OptimizerConfig, ScoreNet, ScoreNetConfig, train
from scorewave.signal import Signal, istft, read_wav, stft, write_wav


def report(number, name, checks):
    """checks: list of (label, ok, detail). Prints the verdict line and
    fails the test with the offending labels if any check is false."""
    failed = [f"{label}: {detail}" for label, ok, detail in checks if not ok]
    verdict = "FAIL" if failed else "PASS"
    print(f"criterion {number} ({name}): {verdict}")
    assert not failed, f"criterion {number} ({name}): " + "; ".join(failed)


TOY_PRIOR = GmmPrior(weights=[0.3, 0.7], means=[-2.0, 2.0], variances=[0.1, 0.1])


@pytest.fixture(scope="session")
def toy_net():
    """Unconditional toy network, 20k DSM iterations at batch 128."""
    rng = np.random.default_rng(50)
    net = ScoreNet(ScoreNetConfig(dim_x=1), rng)
    train(net, TOY_PRIOR, NoiseSchedule(), OptimizerConfig(total_steps=20_000),
          20_000, 128, rng)
    return net


@pytest.fixture(scope="session")
def conditional_net():
    """Conditional toy network for the denoising task: x0 from the toy GMM,
    observation c = x0 + 1.0 * n, 8k DSM iterations at batch 128."""

    def draw(rng, batch_size):
        x0 = sample(TOY_PRIOR, batch_size, rng)
        return x0, x0 + 1.0 * rng.standard_normal(x0.shape)

    rng = np.random.default_rng(80)
    net = ScoreNet(ScoreNetConfig(dim_x=1, dim_c=1), rng)
    train(net, draw, NoiseSchedule(), OptimizerConfig(total_steps=8_000),
          8_000, 128, rng)
    return net


def test_1_schedule_identities():
    """gamma^(N-1) equals sigma_min/sigma_max to 1e-12 relative for
    N in {2, 8, 64, 1000}; epsilon = 1 makes beta exactly zero."""
    sched = NoiseSchedule()
    ratio = sched.sigma_min / sched.sigma_max
    checks = []
    for n in (2, 8, 64, 1000):
        plan = make_plan(sched, n, 1.5)
        rel = abs(plan.gamma ** (n - 1) - ratio) / ratio
        checks.append((f"gamma identity N={n}", rel < 1e-12, f"rel err {rel:.2e}"))
    beta = make_plan(sched, 16, 1.0).beta
    checks.append(("beta zero at eps=1", beta == 0.0, f"beta = {beta!r}"))
    report(1, "schedule identities", checks)


def test_2_oracle_score_is_gradient_of_log_density():
    """perturbed_score vs central differences of log_density at 100 random
    3-D points for each sigma in {sigma_min, 0.05, 1, sigma_max}."""
    rng = np.random.default_rng(220)
    prior = GmmPrior(
        weights=[0.25, 0.25, 0.5],
        means=rng.normal(size=(3, 3)),
        variances=[0.2, 0.9, 0.5],
    )
    h = 1e-5
    checks = []
    for sigma in (5e-4, 0.05, 1.0, 5.0):
        worst = 0.0
        for x in rng.uniform(-3, 3, size=(100, 3)):
            s = perturbed_score(prior, x, sigma)
            fd = np.empty(3)
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                fd[j] = (log_density(prior, x + e, sigma)
                         - log_density(prior, x - e, sigma)) / (2 * h)
            worst = max(worst, np.max(np.abs(s - fd) / np.maximum(np.abs(fd), 1e-3)))
        checks.append((f"sigma={sigma}", worst < 1e-5, f"worst rel err {worst:.2e}"))
    report(2, "oracle score = grad log density", checks)


def test_3_sampler_fidelity_on_analytic_gmm():
    """0.3/0.7 two-component oracle, N=200, eps=1.5, 1e4 samples: component
    frequencies within binomial 3 sigma, per-component mean and variance
    within 3 standard errors.

    Geometry (means -/+0.4, variances 0.01, schedule 8e-3..4.2) is chosen
    so the sampler's own per-level noise floor sits well inside the
    component scale; achieved z-scores on the frozen seed: frequency 0.94,
    means 1.41/0.92, variances 0.73/0.27."""
    prior = GmmPrior(weights=[0.3, 0.7], means=[-0.4, 0.4], variances=[0.01, 0.01])
    plan = make_plan(NoiseSchedule(8e-3, 4.2), 200, 1.5)
    x = langevin_sample(score_function(prior), None, plan, 1,
                        np.random.default_rng(2), n_samples=10_000)[:, 0]
    pos = x > 0.0
    frac = pos.mean()
    z_f = abs(frac - 0.7) / np.sqrt(0.3 * 0.7 / x.size)
    checks = [("component frequency", z_f < 3.0, f"frac {frac:.4f}, z = {z_f:.2f}")]
    for mask, mean_true, label in ((~pos, -0.4, "low"), (pos, 0.4, "high")):
        xs = x[mask]
        z_m = abs(xs.mean() - mean_true) / np.sqrt(0.01 / xs.size)
        z_v = abs(xs.var(ddof=1) - 0.01) / (0.01 * np.sqrt(2.0 / (xs.size - 1)))
        checks.append((f"{label} mean", z_m < 3.0, f"z = {z_m:.2f}"))
        checks.append((f"{label} variance", z_v < 3.0, f"z = {z_v:.2f}"))
    report(3, "sampler fidelity", checks)


def frozen_dsm_loss(net, x_t, z, sig, c):
    s = net.forward(x_t, c, sig)
    resid = sig[:, None] * s + z
    return 0.5 * np.sum(resid * resid) / x_t.shape[0]


def scorenet_fd_worst(net, c, rng, h=1e-5):
    """Worst relative error of backward() against central differences over
    up to six sampled coordinates of every parameter array."""
    x0 = rng.normal(size=(3, net.config.dim_x))
    sig = NoiseSchedule().sigma_at(rng.uniform(size=3))
    z = rng.standard_normal(x0.shape)
    x_t = x0 + sig[:, None] * z
    s = net.forward(x_t, c, sig, train=True)
    grads = net.backward(sig[:, None] * (sig[:, None] * s + z) / 3)
    worst = 0.0
    for name, p in net.parameters().items():
        flat_p, flat_g = p.reshape(-1), grads[name].reshape(-1)
        for j in rng.choice(flat_p.size, size=min(6, flat_p.size), replace=False):
            orig = flat_p[j]
            step = h * max(1.0, abs(orig))
            flat_p[j] = orig + step
            hi = frozen_dsm_loss(net, x_t, z, sig, c)
            flat_p[j] = orig - step
            lo = frozen_dsm_loss(net, x_t, z, sig, c)
            flat_p[j] = orig
            fd = (hi - lo) / (2 * step)
            denom = max(abs(fd), abs(flat_g[j]), 1e-6)
            worst = max(worst, abs(fd - flat_g[j]) / denom)
    return worst


def mdn_fd_worst(params, y, h=1e-5):
    """Worst relative error of mdn_nll_grads against central differences
    over every coordinate of every parameter array."""
    _, grads = mdn_nll_grads(params, y)
    worst = 0.0
    for name in ("logits", "means", "log_scales"):
        arr = getattr(params, name)
        flat_p, flat_g = arr.reshape(-1), grads[name].reshape(-1)
        for j in range(flat_p.size):
            orig = flat_p[j]
            step = h * max(1.0, abs(orig))
            flat_p[j] = orig + step
            hi, _ = mdn_nll_grads(params, y)
            flat_p[j] = orig - step
            lo, _ = mdn_nll_grads(params, y)
            flat_p[j] = orig
            fd = (hi - lo) / (2 * step)
            denom = max(abs(fd), abs(flat_g[j]), 1e-6)
            worst = max(worst, abs(fd - flat_g[j]) / denom)
    return worst


def test_4_gradient_exactness():
    """Score-network and mixture-head parameter gradients match central
    finite differences to rel err < 1e-4 over 24 random small configs."""
    checks = []
    rng = np.random.default_rng(400)
    worst_net = 0.0
    for trial in range(12):
        cfg = ScoreNetConfig(
            dim_x=int(rng.integers(1, 4)),
            dim_c=int(rng.integers(0, 4)),
            hidden=tuple(int(rng.integers(3, 7))
                         for _ in range(int(rng.integers(1, 3)))),
            n_pairs=int(rng.integers(2, 5)),
            embed_dim=int(rng.integers(4, 7)),
        )
        net = ScoreNet(cfg, np.random.default_rng(trial))
        for p in net.parameters().values():
            p += 0.3 * rng.standard_normal(p.shape)
        c = rng.normal(size=cfg.dim_c) if cfg.dim_c else None
        worst_net = max(worst_net, scorenet_fd_worst(net, c, rng))
    checks.append(("score network (12 configs)", worst_net < 1e-4,
                   f"worst rel err {worst_net:.2e}"))

    worst_mdn = 0.0
    for trial in range(12):
        k, d = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        params = MdnParams(
            logits=rng.normal(size=k),
            means=rng.normal(size=(k, d)),
            log_scales=rng.uniform(-1.0, 0.5, size=(k, d)),
        )
        y = rng.normal(size=(5, d))
        worst_mdn = max(worst_mdn, mdn_fd_worst(params, y))
    checks.append(("mixture head (12 configs)", worst_mdn < 1e-4,
                   f"worst rel err {worst_mdn:.2e}"))
    report(4, "gradient exactness", checks)


@pytest.mark.slow
def test_5_learning_matches_oracle(toy_net):
    """20k-iteration DSM training on the 0.3/0.7 toy GMM: density-weighted
    relative squared score error vs the analytic oracle < 0.05 over
    [-4, 4], and end-to-end sampling passes the component-frequency test
    at 5 sigma slack.

    Achieved on the frozen seeds: weighted errors 0.0040 / 0.0013 / 0.0068
    at sigma = 0.05 / 0.1 / 0.5; end-to-end frequency 0.6966 (z = 0.74).
    The sampling leg runs at eps = 3.0: at eps = 1.5 the annealed sampler
    itself (exact oracle score, same plan) already lands at z = 7.09 on
    this wide-separation geometry, so that setting would measure sampler
    weight bias, not learning; eps = 3.0 brings the oracle to z = 1.48 and
    isolates what the network learned."""
    grid = np.linspace(-4.0, 4.0, 801)
    w = np.array([0.3, 0.7])
    mu = np.array([-2.0, 2.0])
    v = np.array([0.1, 0.1])
    checks = []
    for sig_eval in (0.05, 0.1, 0.5):
        var = v + sig_eval**2
        p = (w * np.exp(-0.5 * (grid[:, None] - mu) ** 2 / var)
             / np.sqrt(2 * np.pi * var)).sum(axis=1)
        s_true = perturbed_score(TOY_PRIOR, grid[:, None], sig_eval)[:, 0]
        s_net = toy_net.forward(grid[:, None], None, np.full(grid.size, sig_eval))[:, 0]
        ratio = (np.trapezoid(p * (s_net - s_true) ** 2, grid)
                 / np.trapezoid(p * s_true**2, grid))
        checks.append((f"weighted score error, sigma={sig_eval}", ratio < 0.05,
                       f"{ratio:.4f}"))

    x = langevin_sample(toy_net.forward, None, make_plan(NoiseSchedule(), 200, 3.0),
                        1, np.random.default_rng(51), n_samples=10_000)[:, 0]
    frac = (x > 0).mean()
    z = abs(frac - 0.7) / np.sqrt(0.3 * 0.7 / x.size)
    checks.append(("end-to-end frequency at 5 sigma", z < 5.0,
                   f"frac {frac:.4f}, z = {z:.2f}"))
    report(5, "learning vs oracle", checks)


def test_6_mixture_head_correctness():
    """Log-space NLL equals the naive probability-space summation to 1e-10
    relative; a k=3 head fitted to draws from a known 2-component GMM
    recovers the density with integrated absolute error < 0.05 (achieved
    0.0379 on the frozen seed)."""
    rng = np.random.default_rng(600)
    checks = []
    worst = 0.0
    for _ in range(10):
        k = int(rng.integers(1, 5))
        params = MdnParams(
            logits=rng.uniform(-1, 1, size=k),
            means=rng.uniform(-2, 2, size=(k, 1)),
            log_scales=rng.uniform(-1, 0.5, size=(k, 1)),
        )
        y = rng.uniform(-3, 3, size=200)
        nll = mdn_nll(params, y)
        alpha = np.exp(params.logits - params.logits.max())
        alpha /= alpha.sum()
        scales = np.exp(params.log_scales[:, 0])
        dens = sum(
            alpha[j] * np.exp(-0.5 * ((y - params.means[j, 0]) / scales[j]) ** 2)
            / (scales[j] * np.sqrt(2 * np.pi))
            for j in range(k)
        )
        worst = max(worst, np.max(np.abs(nll - (-np.log(dens))) / np.abs(nll)))
    checks.append(("NLL vs naive summation", worst < 1e-10, f"worst rel {worst:.2e}"))

    rng = np.random.default_rng(60)
    w, mu, sd = np.array([0.35, 0.65]), np.array([-1.2, 1.0]), np.array([0.3, 0.5])
    comp = rng.choice(2, size=4000, p=w)
    y = mu[comp] + sd[comp] * rng.standard_normal(4000)
    params, _ = fit_mdn(y, k=3, n_iters=2000, rng=np.random.default_rng(61))
    grid = np.linspace(-5.0, 5.0, 2001)
    p_true = sum(
        w[j] * np.exp(-0.5 * ((grid - mu[j]) / sd[j]) ** 2) / (sd[j] * np.sqrt(2 * np.pi))
        for j in range(2)
    )
    iae = np.trapezoid(np.abs(mdn_density(params, grid) - p_true), grid)
    checks.append(("k=3 fit recovers 2-GMM", iae < 0.05, f"IAE = {iae:.4f}"))
    report(6, "mixture head correctness", checks)


def test_7_distortion_engine():
    """Chain-length frequencies pass a chi-square test against
    (0.35, 0.45, 0.15, 0.04, 0.01) at p > 0.01 over 1e5 draws (achieved
    p = 0.745); a requested additive-noise SNR is realized within 0.1 dB
    through the full chain pipeline; replaying any logged chain is
    bit-exact."""
    pool = (np.random.default_rng(1).standard_normal(8000) * 0.05,)
    cfg = ChainConfig(noise_pool=pool)
    rng = np.random.default_rng(70)
    counts = np.zeros(5, dtype=int)
    n_draws = 100_000
    for _ in range(n_draws):
        counts[len(sample_chain(cfg, rng)) - 1] += 1
    _, p_value = stats.chisquare(counts, np.array(cfg.count_probs) * n_draws)
    checks = [("chain-count chi-square", p_value > 0.01, f"p = {p_value:.4f}")]

    rng = np.random.default_rng(71)
    clean = Signal(samples=0.03 * rng.standard_normal(16000), sample_rate=16000)
    params = PRIMITIVES["additive_noise"].sample(rng)
    params["snr_db"] = 7.3
    spec = DistortionSpec(kind="additive_noise", params=params, seed=12345)
    pair = apply_chain(clean, (spec,), cfg)
    err = pair.distorted.samples - pair.clean.samples
    realized = 10 * np.log10(np.sum(pair.clean.samples**2) / np.sum(err**2))
    checks.append(("additive-noise SNR within 0.1 dB", abs(realized - 7.3) < 0.1,
                   f"requested 7.3, realized {realized:.4f}"))

    replayed = 0
    for _ in range(25):
        chain = sample_chain(cfg, rng)
        a = apply_chain(clean, chain, cfg)
        b = apply_chain(clean, chain_from_json(json.dumps([s.to_dict() for s in chain])), cfg)
        if (np.array_equal(a.distorted.samples, b.distorted.samples)
                and np.array_equal(a.clean.samples, b.clean.samples)):
            replayed += 1
    checks.append(("replay bit-exact", replayed == 25, f"{replayed}/25 chains"))
    report(7, "distortion engine", checks)


@pytest.mark.slow
def test_8_speed_quality_structure(conditional_net):
    """Toy conditional denoising (x0 from the toy GMM, c = x0 + n), sweep
    over N in {1,2,4,8,16,32,64} x eps in {1.5, 2.3, 3.0}, 8 averaged
    realizations per cell: output SNR is non-decreasing in N up to the
    plateau (0.25 dB realization slack), and N=8 reaches at least 95% of
    the N=64 quality for at least one eps.

    Frozen-grid SNRs (dB), rows eps = 1.5 / 2.3 / 3.0:
        9.51  9.49 10.04 10.20  9.97  9.86 10.11
        9.49  9.48 10.18 10.30 10.27 10.16 10.14
        9.48  9.45 10.17 10.17 10.24 10.30 10.22"""
    sched = NoiseSchedule()
    rng_ev = np.random.default_rng(81)
    x0 = sample(TOY_PRIOR, 1500, rng_ev)
    y = x0 + 1.0 * rng_ev.standard_normal(x0.shape)
    sig_pow = float(np.sum(x0**2))
    n_list = (1, 2, 4, 8, 16, 32, 64)
    checks = []
    reached_by_8 = []
    for ie, eps in enumerate((1.5, 2.3, 3.0)):
        q = []
        for i_n, n_steps in enumerate(n_list):
            plan = make_plan(sched, n_steps, eps)
            cell = np.random.default_rng(np.random.SeedSequence([82, i_n, ie]))
            acc = np.zeros_like(x0)
            for child in cell.spawn(8):
                acc += langevin_sample(conditional_net.forward, y, plan, 1, child,
                                       n_samples=1500)
            est = acc / 8
            q.append(10 * np.log10(sig_pow / np.sum((est - x0) ** 2)))
        plateau = 0.95 * q[-1]
        trend_ok = all(
            q[i + 1] >= q[i] - 0.25
            for i in range(len(q) - 1)
            if q[i] < plateau
        )
        detail = " ".join(f"{v:.2f}" for v in q)
        checks.append((f"non-decreasing to plateau, eps={eps}", trend_ok, detail))
        reached_by_8.append(q[n_list.index(8)] >= plateau)
    checks.append(("95% of N=64 quality by N=8 for some eps", any(reached_by_8),
                   f"per-eps: {reached_by_8}"))
    report(8, "speed-quality structure", checks)


def test_9_signal_layer(tmp_path):
    """STFT round-trip < 1e-6; PCM16 WAV round-trip within one LSB;
    per-frame Parseval identity within 1e-6 relative."""
    rng = np.random.default_rng(900)
    checks = []
    worst = 0.0
    for frame, hop in ((512, 160), (1024, 256)):
        x = rng.normal(size=4096)
        rec = istft(stft(Signal(samples=x), frame=frame, hop=hop))
        worst = max(worst, float(np.max(np.abs(rec.samples - x))))
    checks.append(("STFT round-trip", worst < 1e-6, f"max err {worst:.2e}"))

    x = np.linspace(-0.98, 0.98, 3001)
    write_wav(tmp_path / "ramp.wav", Signal(samples=x, sample_rate=16000))
    back = read_wav(tmp_path / "ramp.wav")
    lsb_err = float(np.max(np.abs(back.samples - x)))
    checks.append(("PCM16 round-trip <= 1 LSB", lsb_err <= 1.0 / 32768,
                   f"max err {lsb_err:.2e}, LSB {1.0 / 32768:.2e}"))

    x = rng.normal(size=5000)
    frame, hop = 512, 160
    spec = stft(Signal(samples=x), frame=frame, hop=hop)
    mag2 = np.abs(spec.data) ** 2
    full_energy = (mag2[:, 0] + mag2[:, -1] + 2 * mag2[:, 1:-1].sum(axis=1)).sum() / frame
    window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(frame) / frame)
    pad = frame // 2
    extra = (-(x.size + 2 * pad - frame)) % hop
    padded = np.concatenate([np.zeros(pad), x, np.zeros(pad + extra)])
    time_energy = sum(
        np.sum((padded[t * hop : t * hop + frame] * window) ** 2)
        for t in range(spec.n_frames)
    )
    rel = abs(full_energy - time_energy) / time_energy
    checks.append(("per-frame Parseval", rel < 1e-6, f"rel err {rel:.2e}"))
    report(9, "signal layer", checks)
