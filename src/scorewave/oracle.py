"""Gaussian-mixture data distributions with closed-form perturbed scores.

Convolving a mixture of isotropic Gaussians with N(0, sigma^2 I) is again a
mixture with component variances v_i + sigma^2, so the score of the
perturbed density is available exactly:

    grad_x log p_sigma(x) = sum_i r_i(x) * (mu_i - x) / (v_i + sigma^2)

with posterior responsibilities r_i computed via log-sum-exp. This is the
ground-truth score function used to validate the sampler, the loss, and
trained networks. Only diagonal (isotropic per component), low-dimensional
mixtures are supported; that is enough to exercise every sampler and loss
path while keeping quadrature oracles exact.

It is also the score of oracle-mode enhancement, called once per sigma step
on every sample of a clip. The shared helpers :func:`_log_terms` and
:func:`_mixture_score`, one code path for every d, therefore write into
their own temporaries instead of a new array per operation, with the same
floating-point operations and so the same bits; ``tests/test_oracle.py``
keeps the out-of-place expressions as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

_WEIGHT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class GmmPrior:
    """Mixture of k isotropic Gaussians in d dimensions.

    weights: (k,) simplex vector, all > 0, summing to 1 within 1e-12.
    means: (k, d); a 1-D array of length k is promoted to d = 1.
    variances: (k,) per-component variances, all > 0.

    Immutable; thread-safe.
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    log_weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        m = np.asarray(self.means, dtype=np.float64)
        v = np.asarray(self.variances, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ConfigError("mixture must have at least one component")
        if m.ndim == 1:
            m = m[:, None]
        if m.ndim != 2 or m.shape[0] != w.size:
            raise ConfigError(f"means shape {m.shape} inconsistent with {w.size} weights")
        if v.shape != (w.size,):
            raise ConfigError(f"variances shape {v.shape} inconsistent with {w.size} weights")
        if np.any(w <= 0.0):
            raise ConfigError("all mixture weights must be > 0")
        if abs(w.sum() - 1.0) > _WEIGHT_TOL:
            raise ConfigError(f"weights must sum to 1 within {_WEIGHT_TOL}, got {w.sum()!r}")
        if np.any(v <= 0.0):
            raise ConfigError("all variances must be > 0")
        for name, arr in (("weights", w), ("means", m), ("variances", v)):
            if not np.all(np.isfinite(arr)):
                raise ConfigError(f"{name} must be finite")
            arr.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "variances", v)
        lw = np.log(w)
        lw.flags.writeable = False
        object.__setattr__(self, "log_weights", lw)

    @property
    def k(self) -> int:
        return self.weights.size

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def _log_terms(log_weights, means, variances, x, sigma):
    """Per-component log w_i + log N(x; mu_i, (v_i + sigma^2) I), shaped (..., k).

    log_weights (..., k), means (..., k, d) and variances (..., k) broadcast
    against x (..., d), whose last axis may be omitted for d = 1; sigma is a
    scalar or per-example. Returns (log_terms, diff, pvar), diff = x - mu
    shaped (..., k, d). log_terms is a new array (for a scalar sigma, the
    squared distances' own buffer), which :func:`_mixture_score` consumes.
    """
    x = np.asarray(x, dtype=np.float64)
    d = means.shape[-1]
    if x.shape[-1:] != (d,):
        if d != 1:
            raise ConfigError(f"x last axis must be {d}, got shape {x.shape}")
        x = x[..., None]
    pvar = variances + np.asarray(sigma, dtype=np.float64)[..., None] ** 2
    norm = log_weights - 0.5 * d * np.log(2.0 * np.pi * pvar)
    diff = x[..., None, :] - means
    sq = np.square(diff[..., 0]) if d == 1 else np.sum(diff**2, axis=-1)
    sq *= 0.5
    # In place for a scalar sigma (pvar is (k,)). A sigma vector can outgrow
    # sq's shape and set the quotient's memory order, which fixes the order
    # of the sums over k, so numpy allocates it then.
    terms = np.divide(sq, pvar, out=sq if pvar.ndim == 1 else None)
    return np.subtract(norm, terms, out=terms), diff, pvar


def _mixture_score(log_terms, diff, pvar):
    """sum_i r_i (mu_i - x) / pvar_i, r = softmax(log_terms), max-subtracted:
    sigma spans several orders of magnitude, so naive exponentials overflow.

    Works in place in log_terms, which it consumes; for d = 1 the products
    fit that buffer too. r (-diff) / pvar is formed as (r diff) / (-pvar),
    which moves the sign and rounds the same, bit for bit.
    """
    resp = log_terms
    resp -= np.max(resp, axis=-1, keepdims=True)
    np.exp(resp, out=resp)
    resp /= np.sum(resp, axis=-1, keepdims=True)
    terms = np.multiply(resp[..., None], diff, out=resp[..., None] if diff.shape[-1] == 1 else None)
    terms /= -pvar[..., None]
    return np.sum(terms, axis=-2)


def _logsumexp(a: np.ndarray, axis=-1):
    """log sum exp(a) over axis, max-subtracted so no exponential overflows."""
    m = np.max(a, axis=axis, keepdims=True)
    return (m + np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True))).squeeze(axis)


def log_density(prior: GmmPrior, x, sigma=0.0):
    """log p_sigma(x) for the prior convolved with N(0, sigma^2 I).

    x may carry leading batch axes; for d = 1 the last axis may be omitted.
    sigma may be per-example (broadcast against the batch axes).
    """
    out = _logsumexp(_log_terms(prior.log_weights, prior.means, prior.variances, x, sigma)[0])
    return float(out) if out.ndim == 0 else out


def perturbed_score(prior: GmmPrior, x, sigma=0.0):
    """Exact score grad_x log p_sigma(x); same batch conventions as log_density."""
    x_in = np.asarray(x, dtype=np.float64)
    score = _mixture_score(*_log_terms(prior.log_weights, prior.means, prior.variances,
                                       x_in, sigma))
    if prior.dim == 1 and x_in.shape[-1:] != (1,):
        score = score[..., 0]
    return float(score) if score.ndim == 0 else score


def sample(prior: GmmPrior, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n points from the (unperturbed) mixture; returns (n, d)."""
    comp = rng.choice(prior.k, size=n, p=prior.weights)
    std = np.sqrt(prior.variances[comp])[:, None]
    return prior.means[comp] + std * rng.standard_normal((n, prior.dim))


def score_function(prior: GmmPrior):
    """Adapt the analytic score to the sampler interface (x, c, sigma) -> score.

    The conditioning argument is accepted and ignored; the prior is
    unconditional.
    """

    def score(x, c, sigma):
        return perturbed_score(prior, x, sigma)

    return score


def _conjugate_update(prior: GmmPrior, observed, noise_std: float):
    """Posterior of x0 ~ prior given y = x0 + noise_std * n, per observation
    (d = 1): again a mixture. Returns normalized log-weights (n, k), means
    (n, k) and the shared variances (k,)."""
    if prior.dim != 1:
        raise ConfigError("the conjugate posterior supports d = 1 priors only")
    if not (np.isfinite(noise_std) and noise_std >= 0.0):
        raise ConfigError(f"noise_std must be finite and >= 0, got {noise_std}")
    y = np.asarray(observed, dtype=np.float64).reshape(-1, 1)
    v, s2, mu = prior.variances, float(noise_std) ** 2, prior.means[:, 0]
    log_w = prior.log_weights - 0.5 * np.log(2.0 * np.pi * (v + s2)) - 0.5 * (y - mu) ** 2 / (v + s2)
    log_w -= np.max(log_w, axis=1, keepdims=True)
    log_w -= np.log(np.sum(np.exp(log_w), axis=1, keepdims=True))
    return log_w, (mu * s2 + y * v) / (v + s2), v * s2 / (v + s2)


def posterior_prior(prior: GmmPrior, observation: np.ndarray, noise_std: float) -> GmmPrior:
    """Exact posterior mixture for y = x0 + noise_std * n with x0 ~ prior (d = 1),
    less the components whose weight underflows to 0 (y far from them)."""
    y = float(np.asarray(observation).reshape(()))
    log_w, mean, var = _conjugate_update(prior, y, noise_std)
    weights = np.exp(log_w[0])
    kept = weights > 0
    return GmmPrior(weights=weights[kept], means=mean[0][kept], variances=var[kept])


def posterior_score(prior: GmmPrior, observed: np.ndarray, noise_std: float):
    """Sampler score (x, c, sigma) -> (n, 1) whose row i is the perturbed
    score of :func:`posterior_prior` for observed[i], vectorized over rows
    (oracle-mode enhancement; c is ignored).

    The per-row log-weights and means are stored component-major (Fortran
    order, same shapes). The sampler calls the score once per sigma step,
    and every call reduces over the k components; with each component's
    rows contiguous those reductions run as k whole-row passes instead of
    n length-k ones, with bit-identical results.

    Each call returns a new (n, 1) array and keeps no reference to x, which
    the sampler updates in place between calls.
    """
    log_w, mean, var = _conjugate_update(prior, observed, noise_std)
    log_w = np.asfortranarray(log_w)
    means = np.asfortranarray(mean)[..., None]

    def score(x, c, sigma):
        return _mixture_score(*_log_terms(log_w, means, var, x, sigma))

    return score
