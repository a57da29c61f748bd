"""Forward perturbation, denoising score-matching loss, and annealed Langevin sampling.

The forward process is variance-exploding: x_t = x0 + sigma_t * z with
z ~ N(0, I) and sigma_t from a geometric :class:`~scorewave.schedule.NoiseSchedule`.
Training minimizes the noise-weighted denoising score-matching objective

    L = E_t E_z E_x0 [ 1/2 * || sigma_t * S(x0 + sigma_t z, c, sigma_t) + z ||^2 ]

with t ~ U(0, 1); the sigma_t^2 weighting is folded into the residual so a
perfect score gives exactly zero. Sampling runs the consistent annealed
Langevin recursion over a :class:`~scorewave.schedule.SamplingPlan`

    x_{n-1} = x_n + eta * sigma_n^2 * S(x_n, c, sigma_n) + beta * sigma_{n-1} * z

for n = N..2, followed by a final noise-free empirical denoising step
x + sigma_0^2 * S(x, c, sigma_0), the only step at N = 1. Averaging over
realizations is left to the caller (``cli._enhance_samples``). The noise
z_n depends only on the rng stream, so the sampler draws it in blocks of
whole steps, the next handed to the caller's helper (:func:`handing`)
while the score runs; the blocks hold the per-step draws, moving no bit.

Score functions are plain callables ``(x, c, sigma) -> score`` returning an
array of x's shape (the sampler raises SamplingError otherwise). ``sigma`` is
a positive scalar during sampling; batched loss helpers also pass a
per-example 1-D sigma, which every score function here accepts.
Conditioning ``c`` is threaded through opaquely and may be ``None``.

All stochastic operations are pure functions of (inputs, rng state).
"""

from __future__ import annotations

import contextlib
import math
from concurrent.futures import Executor, wait

import numpy as np

from .errors import NumericError, SamplingError
from .schedule import NoiseSchedule, SamplingPlan


def perturb(x0, sigma, rng: np.random.Generator):
    """Draw z ~ N(0, I) and return (x0 + sigma * z, z); sigma may be a
    (B, 1) column, one level per row.

    The noise is returned alongside the perturbed point so the loss can
    reuse the exact draw as its regression target.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    z = rng.standard_normal(x0.shape)
    return x0 + sigma * z, z


def dsm_draw(x0, schedule: NoiseSchedule, rng: np.random.Generator):
    """Per row of a (B, d) batch draw t ~ U(0, 1), then z through
    :func:`perturb`; returns (t, sigma_t, x_t, z). Every DSM loss draws
    here, so this fixes the rng order that seeded checkpoints depend on.
    """
    x0 = np.atleast_2d(np.asarray(x0, dtype=np.float64))
    t = rng.uniform(size=x0.shape[0])
    sig = schedule.sigma_at(t)
    x_t, z = perturb(x0, sig[:, None], rng)
    return t, sig, x_t, z


def dsm_loss_batch(score_fn, x0, c, schedule: NoiseSchedule, rng: np.random.Generator) -> np.ndarray:
    """Vectorized loss: one independent (t, z) pair per example.

    x0 has shape (B, d); returns per-example losses of shape (B,). The
    score function is evaluated once with a per-example sigma vector, so
    Monte-Carlo averages over 1e6 draws stay cheap.
    """
    t, sig, x_t, z = dsm_draw(x0, schedule, rng)
    s = np.asarray(score_fn(x_t, c, sig), dtype=np.float64)
    if not np.all(np.isfinite(s)):
        bad = int(np.flatnonzero(~np.all(np.isfinite(s), axis=-1))[0])
        raise NumericError(
            f"score function returned non-finite values at t={t[bad]:.6f}, sigma={sig[bad]:.6g}"
        )
    resid = sig[:, None] * s + z
    return 0.5 * np.sum(resid * resid, axis=-1)


def _score(score_fn, x: np.ndarray, c, sigma: float) -> np.ndarray:
    """S(x, c, sigma) as float64; a score not of x's shape is a SamplingError."""
    s = np.asarray(score_fn(x, c, sigma), dtype=np.float64)
    if s.shape != x.shape:
        raise SamplingError(f"score of shape {s.shape} for an iterate of shape {x.shape}")
    return s


def denoise_final(score_fn, x, c, sigma0: float):
    """Empirical denoising x + sigma0^2 * S(x, c, sigma0); adds no noise."""
    x = np.asarray(x, dtype=np.float64)
    sigma0 = float(sigma0)
    return x + sigma0**2 * _score(score_fn, x, c, sigma0)


@contextlib.contextmanager
def handing(helper: Executor | None):
    """``with handing(helper) as hand:`` — ``hand(fn, *args, **kwargs)`` runs
    fn on ``helper``, or at once (raising into the block) when ``helper`` is
    None. Leaving the block waits for every handed call, then raises the
    block's own error if it has one, else the first handed call's error in
    handing order. Every hand-off to a command's helper thread (the one
    rule above ``cli.COMMANDS``) goes through here; a handed call must
    touch nothing the block writes before it ends."""
    handed = []

    def hand(fn, *args, **kwargs) -> None:
        if helper is None:
            fn(*args, **kwargs)
        else:
            handed.append(helper.submit(fn, *args, **kwargs))

    try:
        yield hand
    finally:
        wait(handed)
    for call in handed:
        call.result()


# Noise values per block: a block holds max(1, ceil(NOISE_BLOCK / values per
# step)) whole steps, so small iterates hand off once per block, not per step.
NOISE_BLOCK = 16_384


def _noise(rng: np.random.Generator, shape: tuple, n_steps: int, helper: Executor | None):
    """The next n_steps draws rng.standard_normal(shape), in stream order,
    as views into two (k, *shape) buffers of k whole steps each, each valid
    until the next is asked for. The caller draws the first block; each
    block hands the next block's draw to ``helper`` (:func:`handing`) before
    its own steps run."""
    k = min(n_steps, -(-NOISE_BLOCK // max(1, math.prod(shape))))
    bufs = np.empty((2, k, *shape))
    rng.standard_normal(out=bufs[0])
    for b, start in enumerate(range(0, n_steps, k)):
        with handing(helper) as hand:
            if start + k < n_steps:
                hand(rng.standard_normal, out=bufs[(b + 1) % 2, :min(k, n_steps - start - k)])
            yield from bufs[b % 2, :min(k, n_steps - start)]


def langevin_sample(
    score_fn,
    c,
    plan: SamplingPlan,
    dim: int,
    rng: np.random.Generator,
    n_samples: int | None = None,
    *,
    helper: Executor | None = None,
) -> np.ndarray:
    """Consistent annealed Langevin sampling over the plan's sigma ladder.

    Initializes x = sigma_max * z, runs the recursion down the ladder, and
    finishes with one empirical-denoising step at the smallest sigma. With
    n_samples=None returns a single (dim,) sample; otherwise (n_samples, dim)
    independent samples sharing c (vectorized, not sequential). When the
    plan's beta is exactly zero the per-step noise draw is skipped, so the
    deterministic path consumes no extra RNG state.

    The iterate is updated in place, so a score function must not keep a
    reference to the x it is given between calls. The step noise is drawn
    in blocks of max(1, ceil(NOISE_BLOCK / x.size)) whole steps, each next
    block handed to ``helper`` (:func:`handing`) while the current one's
    steps run; the values are the per-step draws' on any thread, so the
    bits and the rng state after a return are too. The rng belongs to the
    sampler for the call; after an exception its state may be up to one
    block ahead of the step that raised.
    """
    shape = (dim,) if n_samples is None else (int(n_samples), dim)
    sigmas = plan.sigmas
    x = sigmas[-1] * rng.standard_normal(shape)
    drift = np.empty(shape)
    n_noisy = len(sigmas) - 1 if plan.beta != 0.0 else 0
    with contextlib.closing(_noise(rng, shape, n_noisy, helper)) as noise:
        for i in range(len(sigmas) - 1, 0, -1):
            sig_n = sigmas[i]
            s = _score(score_fn, x, c, sig_n)
            np.multiply(s, plan.eta * sig_n**2, out=drift)  # never into s: it may be x
            x += drift
            if n_noisy:
                z = next(noise)
                z *= plan.beta * sigmas[i - 1]
                x += z
            if not np.all(np.isfinite(x)):
                raise SamplingError(f"non-finite iterate at step n={i + 1} (sigma={sig_n:.6g})")
    out = denoise_final(score_fn, x, c, sigmas[0])
    if not np.all(np.isfinite(out)):
        raise SamplingError(f"non-finite iterate at final denoising step (sigma={sigmas[0]:.6g})")
    return out
