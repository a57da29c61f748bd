"""Mixture-density heads: stable NLL, analytic gradients, sampling, fitting.

A head is a k-component diagonal Gaussian mixture over a d-dimensional
target y:

    p(y) = sum_i alpha_i prod_j N(y_j; m_ij, s_ij^2)

with alpha = softmax(logits) and s = exp(log_scales), so both constraints
(simplex weights, positive scales) hold by construction. The negative
log-likelihood is evaluated in log space with max-subtracted log-sum-exp;
its gradients w.r.t. logits, means, and log-scales are closed-form in the
posterior responsibilities and are verified against finite differences in
the test suite. :func:`fit_mdn` fits one static head to data rows by
full-batch Adam on the mean NLL. Its targets take the oracle's row rule
and its samples the oracle's ancestral draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .oracle import _draw, _logsumexp, _points
from .scorenet import OptimizerConfig, adam_step, flatten, init_optimizer, pack

_LOG_2PI = np.log(2.0 * np.pi)


@dataclass(frozen=True, eq=False)
class MdnParams:
    """Parameters of one k-component diagonal-Gaussian mixture head.

    logits: (k,) unnormalized mixing weights (alpha = softmax(logits)).
    means: (k, d); a 1-D array of length k is promoted to d = 1.
    log_scales: (k, d), exponentiated to per-dimension scales s > 0.

    The arrays stay writable: :func:`fit_mdn` trains a head in place through
    views into one parameter vector, with the score network's Adam.
    """

    logits: np.ndarray
    means: np.ndarray
    log_scales: np.ndarray

    def __post_init__(self):
        lg = np.asarray(self.logits, dtype=np.float64)
        m = np.asarray(self.means, dtype=np.float64)
        ls = np.asarray(self.log_scales, dtype=np.float64)
        if lg.ndim != 1 or lg.size == 0:
            raise ConfigError(f"logits must be a non-empty vector, got shape {lg.shape}")
        if m.ndim == 1:
            m = m[:, None]
        if ls.ndim == 1:
            ls = ls[:, None]
        if m.ndim != 2 or m.shape[0] != lg.size:
            raise ConfigError(f"means shape {m.shape} inconsistent with {lg.size} logits")
        if ls.shape != m.shape:
            raise ConfigError(f"log_scales shape {ls.shape} != means shape {m.shape}")
        object.__setattr__(self, "logits", lg)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "log_scales", ls)

    @property
    def k(self) -> int:
        return self.logits.size

    @property
    def d(self) -> int:
        return self.means.shape[1]

    @property
    def alpha(self) -> np.ndarray:
        """Mixing weights softmax(logits); always a fresh simplex vector."""
        z = self.logits - np.max(self.logits)
        e = np.exp(z)
        return e / e.sum()

    @property
    def scales(self) -> np.ndarray:
        return np.exp(self.log_scales)


def _component_log_joint(params: MdnParams, y: np.ndarray):
    """log alpha_i + log N(y; m_i, diag s_i^2) per component.

    Returns (log_joint, zscore) with shapes (..., k) and (..., k, d), where
    zscore = (y - m) / s is reused by the gradient path.
    """
    log_alpha = params.logits - _logsumexp(params.logits)
    zscore = (y[..., None, :] - params.means) / params.scales
    log_joint = (
        log_alpha
        - 0.5 * params.d * _LOG_2PI
        - params.log_scales.sum(axis=-1)
        - 0.5 * np.sum(zscore**2, axis=-1)
    )
    return log_joint, zscore


def mdn_nll(params: MdnParams, y):
    """Negative log-likelihood -ln sum_i alpha_i N(y; m_i, diag s_i^2).

    y may carry leading batch axes (one NLL per row); for d = 1 the last
    axis may be omitted. Log-sum-exp keeps the evaluation finite wherever
    the inputs are.
    """
    y = _points(y, params.d, "y")
    log_joint, _ = _component_log_joint(params, y)
    out = -_logsumexp(log_joint)
    return float(out) if out.ndim == 0 else out


def mdn_density(params: MdnParams, y):
    """Mixture density p(y) = exp(-NLL); same batch conventions as mdn_nll."""
    return np.exp(-mdn_nll(params, y))


def mdn_nll_grads(params: MdnParams, y):
    """Mean NLL over the rows of y and its parameter gradients.

    With responsibilities r_i = alpha_i N_i / sum alpha N:

        d/d logit_i     = alpha_i - r_i
        d/d m_ij        = -r_i (y_j - m_ij) / s_ij^2
        d/d log s_ij    = -r_i (((y_j - m_ij)/s_ij)^2 - 1)

    each averaged over the batch. Returns (loss, grads) with grads keyed
    "logits" / "means" / "log_scales".
    """
    y = _points(y, params.d, "y")
    batch_shape = y.shape[:-1]
    n = int(np.prod(batch_shape)) if batch_shape else 1
    log_joint, zscore = _component_log_joint(params, y)
    m = np.max(log_joint, axis=-1, keepdims=True)
    resp = np.exp(log_joint - m)
    total = resp.sum(axis=-1, keepdims=True)
    loss = float(np.mean(-(m[..., 0] + np.log(total[..., 0]))))
    resp /= total

    flat_resp = resp.reshape(n, params.k)
    flat_z = zscore.reshape(n, params.k, params.d)
    grads = {
        "logits": params.alpha - flat_resp.mean(axis=0),
        "means": -np.einsum("ni,nij->ij", flat_resp, flat_z / params.scales) / n,
        "log_scales": -np.einsum("ni,nij->ij", flat_resp, flat_z**2 - 1.0) / n,
    }
    return loss, grads


def mdn_mean(params: MdnParams) -> np.ndarray:
    """Mixture mean sum_i alpha_i m_i, shape (d,)."""
    return params.alpha @ params.means


def mdn_sample(params: MdnParams, rng: np.random.Generator, n: int | None = None):
    """Ancestral draw: categorical over alpha, then the diagonal Gaussian.

    Returns (d,) for n=None, else (n, d).
    """
    out = _draw(params.alpha, params.means, params.scales, 1 if n is None else int(n), rng)
    return out[0] if n is None else out


def fit_mdn(
    y,
    k: int = 3,
    n_iters: int = 2000,
    rng: np.random.Generator | None = None,
    peak_lr: float = 0.05,
):
    """Fit one static head to data rows by full-batch Adam on the mean NLL.

    Initialization: logits zero, means at k random data rows, a common
    log-scale at the per-dimension data spread. Returns (params, trace)
    where trace is the per-iteration loss. The optimizer is the same
    warm-up/cosine Adam the score network uses; none of the head arrays
    match the weight-decay mask, so the fit is plain Adam.
    """
    if rng is None:
        rng = np.random.default_rng()
    y = np.asarray(y, dtype=np.float64)
    if y.ndim == 1:
        y = y[:, None]
    if y.ndim != 2 or y.shape[0] < k:
        raise ConfigError(f"need at least k={k} rows of data, got shape {y.shape}")
    spread = np.log(np.maximum(y.std(axis=0), 1e-6))
    flat, views = flatten({
        "logits": np.zeros(k),
        "means": y[rng.choice(y.shape[0], size=k, replace=False)],
        "log_scales": np.broadcast_to(spread, (k, y.shape[1])),
    })
    params = MdnParams(**views)
    state = init_optimizer(views, OptimizerConfig(total_steps=n_iters, peak_lr=peak_lr))
    trace = np.empty(n_iters)
    for it in range(n_iters):
        loss, grads = mdn_nll_grads(params, y)
        if not np.isfinite(loss):
            raise ConfigError(f"non-finite NLL at iteration {it}")
        adam_step(state, flat, pack(grads))
        trace[it] = loss
    return params, trace
