"""Trainable sigma-conditioned score network with hand-written gradients.

Three pieces, all double precision, all plain numpy:

* :class:`SigmaEmbedding` — the noise level enters through random Fourier
  features of log sigma: u = [sin(f_i log sigma), cos(f_i log sigma)] with
  f_i drawn once from N(0, 1) and frozen, expanded by a 3-layer PReLU MLP
  (32 pairs -> 256 channels by default).
* :class:`FilmMlp` — the score stack. Input is the concatenation of x and
  the conditioning vector c; every hidden pre-activation is modulated as
  gamma ⊙ pre + shift, where gamma and shift are per-layer linear
  projections of the sigma embedding (FiLM). PReLU activations; the final
  affine layer is zero-initialized so training starts from score ≡ 0.
* :class:`ScoreNet` — the composition, exposing the (x, c, sigma) -> score
  interface the sampler and the DSM loss expect. The sampler calls it at
  one scalar sigma per step; outside training that sigma is embedded once
  per call, not once per row, and the rows go through the MLP in blocks.

Both MLPs are one PReLU layer stack written once (:func:`_layers_forward`,
:func:`_layers_backward`); the score stack's layers add FiLM.

Backward passes are written out by hand and return gradients for every
parameter (including PReLU slopes and FiLM projections); they are verified
against central finite differences in the test suite. The optimizer is
Adam with decoupled ("manual") weight decay of 0.01 applied to weight
matrices only — biases and PReLU slopes are excluded — under a linear
warm-up (first 5% of iterations, starting at peak/125) followed by cosine
decay from the peak learning rate of 2e-4.

Parameters live in one float64 vector, ``ScoreNet.flat``, in sorted-name
order; layers hold views into it, and one in-place Adam update trains all.
Each backward pass writes its gradients into one fresh vector of the same
layout (:class:`Gradients`), which Adam takes as it is. One PReLU formula
(:func:`_prelu`) serves training and inference, so both give the same bits
for every slope; backward rebuilds the slope from the cached activation.
Outside training FiLM runs in place.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .diffusion import dsm_draw
from .errors import ConfigError, TrainingError
from .files import replacing
from .oracle import GmmPrior
from .oracle import sample as sample_prior
from .schedule import NoiseSchedule

_CKPT_MAGIC = b"SWCKPT01"
_ADAM_BLOCK = 32768  # elements per Adam slice: 256 KB per vector, six vectors fit in L2
_BLOCK_ROWS = 1024  # rows per inference block: a block's (rows, 64) activations fit in L2


def _rows(arr: np.ndarray) -> np.ndarray:
    return arr.reshape(-1, arr.shape[-1])


def _prelu(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """PReLU(x), the bits of ``np.where(x > 0, x, a * x)``. When every slope
    lies in (0, 1], ``np.maximum(x * a, x)`` has them for every x, signed
    zeros, infinities and NaN included; any other slope (negative, zero,
    above 1, NaN) takes that select."""
    if not np.all((a > 0.0) & (a <= 1.0)):
        return np.where(x > 0, x, a * x)
    out = x * a
    return np.maximum(out, x, out=out)


def _prelu_backward(x: np.ndarray, a: np.ndarray, dout: np.ndarray, da: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. x: dout times a slope of 1 where x > 0 and a elsewhere,
    multiplied, not selected (a select mispredicts on random signs). The
    slope gradient sum(dout * min(0, x)) goes into ``da``; the min keeps the
    sign of a zero x, as the select ``np.where(x > 0, 0.0, x)`` did."""
    neg = np.minimum(0.0, x)
    neg *= dout
    _rows(neg).sum(axis=0, out=da)
    pos = (x > 0).astype(np.float64)
    slope = np.subtract(1.0, pos)
    slope *= a
    slope += pos
    return np.multiply(slope, dout, out=slope)


def pack(arrays: dict[str, np.ndarray]) -> np.ndarray:
    """The named arrays copied into one float64 vector, laid out by sorted name."""
    return np.concatenate([np.ravel(arrays[k]) for k in sorted(arrays)], dtype=np.float64)


def _views(flat: np.ndarray, shapes: dict[str, tuple]) -> dict[str, np.ndarray]:
    """name -> view of ``flat`` with that shape, consecutive in the order of ``shapes``."""
    views, lo = {}, 0
    for name, shape in shapes.items():
        hi = lo + math.prod(shape)
        views[name] = flat[lo:hi].reshape(shape)
        lo = hi
    return views


def flatten(arrays: dict[str, np.ndarray]) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """:func:`pack` the arrays and return (vector, name -> view): each view
    has its array's shape and shares memory with the vector."""
    flat = pack(arrays)
    return flat, _views(flat, {k: np.shape(arrays[k]) for k in sorted(arrays)})


def _affine_init(n_in: int, n_out: int, rng: np.random.Generator):
    """Uniform fan-in init: U(-1/sqrt(n_in), 1/sqrt(n_in)) for weight and bias."""
    bound = 1.0 / np.sqrt(n_in)
    w = rng.uniform(-bound, bound, size=(n_in, n_out))
    b = rng.uniform(-bound, bound, size=n_out)
    return w, b


# A stack of PReLU layers l0..l{n-1}, h -> PReLU(film(h @ w + b)), shared by
# the sigma embedding (no FiLM) and the score MLP (FiLM from the embedding e).

def _layer_shapes(sizes: list[int], film: int) -> dict[str, tuple[int, ...]]:
    """Name -> shape of the layers mapping sizes[i] to sizes[i + 1], with FiLM
    projections from a ``film``-wide embedding when ``film`` > 0."""
    shapes = {}
    for i, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        shapes |= {f"l{i}.w": (n_in, n_out), f"l{i}.b": (n_out,), f"l{i}.a": (n_out,)}
        if film:
            shapes |= {f"l{i}.gw": (film, n_out), f"l{i}.gb": (n_out,),
                       f"l{i}.hw": (film, n_out), f"l{i}.hb": (n_out,)}
    return shapes


def _init_layers(p: dict[str, np.ndarray], n: int, rng: np.random.Generator) -> None:
    """Initial draw per layer: fan-in affine, slopes 0.25, identity FiLM if any."""
    for i in range(n):
        p[f"l{i}.w"][...], p[f"l{i}.b"][...] = _affine_init(*p[f"l{i}.w"].shape, rng)
        p[f"l{i}.a"][...] = 0.25
        if f"l{i}.gw" in p:
            p[f"l{i}.gw"][...], p[f"l{i}.gb"][...] = 0.0, 1.0
            p[f"l{i}.hw"][...], p[f"l{i}.hb"][...] = 0.0, 0.0


def _layers_forward(p: dict[str, np.ndarray], n: int, h: np.ndarray, e: np.ndarray | None,
                    cache: dict | None) -> np.ndarray:
    """The stack's output for input h, FiLM-modulated by e unless it is None;
    a cache (training) keeps what backward needs, else FiLM runs in place."""
    if cache is not None:
        cache.update(inputs=[h], layers=[], e=e)
    for i in range(n):
        pre = h @ p[f"l{i}.w"]
        pre += p[f"l{i}.b"]
        act, gamma = pre, None
        if e is not None:
            gamma = e @ p[f"l{i}.gw"]
            gamma += p[f"l{i}.gb"]
            shift = e @ p[f"l{i}.hw"]
            shift += p[f"l{i}.hb"]
            act = np.multiply(pre, gamma, out=pre if cache is None else None)
            act += shift
        h = _prelu(act, p[f"l{i}.a"])
        if cache is not None:
            cache["layers"].append((pre, gamma, act))
            cache["inputs"].append(h)
    return h


def _layers_backward(p: dict[str, np.ndarray], n: int, cache: dict, d_h: np.ndarray,
                     grads: dict[str, np.ndarray]) -> np.ndarray | None:
    """Writes the stack's parameter gradients into ``grads``, given the
    gradient d_h w.r.t. its output, and returns the gradient w.r.t. the
    embedding (None without FiLM). The stack's input gets no gradient."""
    e = cache["e"]
    d_e = None if e is None else np.zeros_like(e)
    for i in reversed(range(n)):
        pre, gamma, act = cache["layers"][i]
        d_act = _prelu_backward(act, p[f"l{i}.a"], d_h, grads[f"l{i}.a"])  # with FiLM, also d shift
        d_pre = d_act
        if e is not None:
            d_gamma = d_act * pre
            d_pre = d_act * gamma
            np.matmul(_rows(e).T, _rows(d_gamma), out=grads[f"l{i}.gw"])
            _rows(d_gamma).sum(axis=0, out=grads[f"l{i}.gb"])
            np.matmul(_rows(e).T, _rows(d_act), out=grads[f"l{i}.hw"])
            _rows(d_act).sum(axis=0, out=grads[f"l{i}.hb"])
            d_e += d_gamma @ p[f"l{i}.gw"].T
            d_e += d_act @ p[f"l{i}.hw"].T
        np.matmul(_rows(cache["inputs"][i]).T, _rows(d_pre), out=grads[f"l{i}.w"])
        _rows(d_pre).sum(axis=0, out=grads[f"l{i}.b"])
        if i:
            d_h = d_pre @ p[f"l{i}.w"].T
    return d_e


def _whole(name: str, value, low: int) -> int:
    """``value`` as an int when it is a whole number from ``low`` to 2**53,
    the float64-exact range (a JSON header may hold 2.0), else
    :class:`ConfigError`; a bool is not a number here."""
    whole = isinstance(value, (int, np.integer)) or (
        isinstance(value, (float, np.floating)) and float(value).is_integer())
    if isinstance(value, bool) or not whole or not low <= value <= 2**53:
        raise ConfigError(f"{name} must be a whole number in [{low}, 2**53], got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ScoreNetConfig:
    """Layer-size configuration, every size a whole number (dim_c >= 0, the
    others >= 1); the parameter count is a pure function of it."""

    dim_x: int
    dim_c: int = 0
    hidden: tuple[int, ...] = (64, 64)
    n_pairs: int = 32
    embed_dim: int = 256

    def __post_init__(self):
        if not self.hidden:
            raise ConfigError("at least one hidden layer is required")
        for name, low in (("dim_x", 1), ("dim_c", 0), ("n_pairs", 1), ("embed_dim", 1)):
            object.__setattr__(self, name, _whole(name, getattr(self, name), low))
        object.__setattr__(self, "hidden", tuple(_whole("hidden width", h, 1) for h in self.hidden))

    def shapes(self) -> dict[str, tuple[int, ...]]:
        """Name -> shape of every trainable array in sorted-name order: the
        layout of :attr:`ScoreNet.flat` and of the checkpoint payload."""
        named = {f"emb.{k}": s for k, s in SigmaEmbedding.shapes(self.n_pairs, self.embed_dim).items()}
        named |= {f"mlp.{k}": s for k, s in FilmMlp.shapes(self).items()}
        return {k: named[k] for k in sorted(named)}

    def n_parameters(self) -> int:
        """:meth:`ScoreNet.n_parameters` from the sizes alone, no arrays built."""
        return sum(math.prod(s) for s in self.shapes().values())


class SigmaEmbedding:
    """Frozen random Fourier features of log sigma plus a 3-layer PReLU MLP.

    The frequency vector is drawn once at construction and never trained.
    Initial parameters are drawn from ``rng`` into ``params`` when given
    (name -> array of the :meth:`shapes` shape), else into new arrays. With
    ``rng`` None nothing is drawn: ``params`` is kept as it is and the caller
    sets ``frequencies``.
    """

    def __init__(self, n_pairs: int, embed_dim: int, rng: np.random.Generator | None,
                 params: dict[str, np.ndarray] | None = None):
        shapes = self.shapes(n_pairs, embed_dim)
        self.params = params if params is not None else {k: np.empty(s) for k, s in shapes.items()}
        if rng is None:
            return
        self.frequencies = rng.standard_normal(n_pairs)
        self.frequencies.flags.writeable = False
        _init_layers(self.params, 3, rng)

    @staticmethod
    def shapes(n_pairs: int, embed_dim: int) -> dict[str, tuple[int, ...]]:
        return _layer_shapes([2 * n_pairs, embed_dim, embed_dim, embed_dim], 0)

    def features(self, sigma) -> np.ndarray:
        """[sin(f_i log sigma), cos(f_i log sigma)] — shape (..., 2*n_pairs)."""
        sigma = np.asarray(sigma, dtype=np.float64)
        if np.any(sigma <= 0.0) or not np.all(np.isfinite(sigma)):
            raise ConfigError(f"sigma must be positive and finite, got {sigma!r}")
        phase = np.log(sigma)[..., None] * self.frequencies
        return np.concatenate([np.sin(phase), np.cos(phase)], axis=-1)

    def forward(self, sigma, cache: dict | None = None) -> np.ndarray:
        return _layers_forward(self.params, 3, self.features(sigma), None, cache)

    def backward(self, cache: dict, d_out: np.ndarray,
                 grads: dict[str, np.ndarray] | None = None) -> dict[str, np.ndarray]:
        """Gradients of a scalar loss w.r.t. the MLP parameters, given the
        gradient w.r.t. the embedding output, written into ``grads`` (new
        arrays when None). Frequencies receive none, and neither does the
        input of the first layer."""
        if grads is None:
            grads = {k: np.empty_like(p) for k, p in self.params.items()}
        _layers_backward(self.params, 3, cache, d_out, grads)
        return grads


class FilmMlp:
    """PReLU MLP over concat(x, c) with per-layer FiLM modulation.

    Hidden pre-activations are transformed as gamma ⊙ pre + shift, with
    gamma = e @ Gw + gb and shift = e @ Hw + hb computed from the sigma
    embedding e. FiLM starts at identity (Gw = Hw = 0, gb = 1, hb = 0) and
    the output layer starts at zero, so the freshly built network is the
    zero score. ``rng`` and ``params`` work as for :class:`SigmaEmbedding`.
    """

    def __init__(self, config: ScoreNetConfig, rng: np.random.Generator | None,
                 params: dict[str, np.ndarray] | None = None):
        self.config = config
        shapes = self.shapes(config)
        self.params = params if params is not None else {k: np.empty(s) for k, s in shapes.items()}
        if rng is None:
            return
        _init_layers(self.params, len(config.hidden), rng)
        self.params["out.w"][...] = 0.0
        self.params["out.b"][...] = 0.0

    @staticmethod
    def shapes(config: ScoreNetConfig) -> dict[str, tuple[int, ...]]:
        sizes = [config.dim_x + config.dim_c, *config.hidden]
        return _layer_shapes(sizes, config.embed_dim) | {"out.w": (sizes[-1], config.dim_x),
                                                         "out.b": (config.dim_x,)}

    def forward(self, x: np.ndarray, c, sigma_emb: np.ndarray, cache: dict | None = None):
        cfg, p = self.config, self.params
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != cfg.dim_x:
            raise ConfigError(f"x last axis must be {cfg.dim_x}, got shape {x.shape}")
        if cfg.dim_c:
            if c is None:
                raise ConfigError("conditioning vector required (dim_c > 0)")
            c = np.asarray(c, dtype=np.float64)
            if c.shape[-1] != cfg.dim_c:
                raise ConfigError(f"c last axis must be {cfg.dim_c}, got shape {c.shape}")
            h = np.concatenate([x, np.broadcast_to(c, x.shape[:-1] + (cfg.dim_c,))], axis=-1)
        else:
            h = x
        h = _layers_forward(p, len(cfg.hidden), h, sigma_emb, cache)
        out = h @ p["out.w"]
        out += p["out.b"]
        return out

    def backward(self, cache: dict, d_out: np.ndarray, grads: dict[str, np.ndarray] | None = None):
        """Returns (parameter gradients, gradient w.r.t. the sigma embedding);
        the parameter gradients are written into ``grads`` (new arrays when
        None). The input of the first layer gets no gradient."""
        p = self.params
        if grads is None:
            grads = {k: np.empty_like(v) for k, v in p.items()}
        np.matmul(_rows(cache["inputs"][-1]).T, _rows(d_out), out=grads["out.w"])
        _rows(d_out).sum(axis=0, out=grads["out.b"])
        return grads, _layers_backward(p, len(self.config.hidden), cache, d_out @ p["out.w"].T, grads)


class Gradients(dict):
    """name -> gradient array, every one a view of the vector :attr:`flat`,
    which is laid out like :attr:`ScoreNet.flat`."""

    def __init__(self, flat: np.ndarray, views: dict[str, np.ndarray]):
        super().__init__(views)
        self.flat = flat


class ScoreNet:
    """Sigma embedding + FiLM MLP, presenting the sampler's score interface.

    The frozen frequencies and initial parameters are drawn from ``rng``.
    Given ``flat`` (a float64 vector of ``config.n_parameters()``), the
    network wraps it as its parameter vector instead and draws nothing;
    ``rng`` is then unused and the caller sets ``embedding.frequencies``.
    """

    def __init__(self, config: ScoreNetConfig, rng: np.random.Generator | None,
                 flat: np.ndarray | None = None):
        self.config = config
        self._shapes = config.shapes()
        draw = rng if flat is None else None
        self.flat = np.empty(config.n_parameters()) if flat is None else flat
        self._views = _views(self.flat, self._shapes)
        layer = self._by_layer(self._views)
        self.embedding = SigmaEmbedding(config.n_pairs, config.embed_dim, draw, layer["emb"])
        self.mlp = FilmMlp(config, draw, layer["mlp"])
        self.opt_state: OptimizerState | None = None
        self._cache: dict | None = None

    @staticmethod
    def _by_layer(named: dict[str, np.ndarray]) -> dict[str, dict[str, np.ndarray]]:
        """{"emb": {...}, "mlp": {...}} from "emb."/"mlp."-prefixed names."""
        layers: dict[str, dict[str, np.ndarray]] = {"emb": {}, "mlp": {}}
        for name, arr in named.items():
            prefix, key = name.split(".", 1)
            layers[prefix][key] = arr
        return layers

    def parameters(self) -> dict[str, np.ndarray]:
        """Named views of every trainable array (frozen frequencies excluded);
        they share memory with :attr:`flat` and the layers' own arrays."""
        return self._views

    def n_parameters(self) -> int:
        return self.flat.size

    def forward(self, x, c, sigma, train: bool = False) -> np.ndarray:
        """Score estimate S(x, c, sigma); x may be (dim_x,) or batched
        (B, dim_x); sigma a positive scalar or per-example vector.

        A scalar sigma is embedded for one row when train=False, and its
        FiLM projections broadcast over the batch; train=True expands it to
        one row per example, because backward needs per-row caches. Outside
        training, a scalar sigma's rows go through the MLP in blocks
        (:meth:`_forward_blocks`).
        """
        x_in = np.asarray(x, dtype=np.float64)
        squeeze = x_in.ndim == 1
        x2 = x_in[None, :] if squeeze else x_in
        sig = np.asarray(sigma, dtype=np.float64)
        scalar = sig.ndim == 0
        if scalar:
            sig = np.full(x2.shape[0] if train else 1, float(sig))
        emb_cache: dict | None = {} if train else None
        mlp_cache: dict | None = {} if train else None
        e = self.embedding.forward(sig, emb_cache)
        if train or not scalar or x2.ndim != 2:
            out = self.mlp.forward(x2, c, e, mlp_cache)
        else:
            out = self._forward_blocks(x2, c, e)
        if train:
            self._cache = {"emb": emb_cache, "mlp": mlp_cache}
        return out[0] if squeeze else out

    def _forward_blocks(self, x: np.ndarray, c, e: np.ndarray) -> np.ndarray:
        """The MLP over blocks of ``_BLOCK_ROWS`` = B rows of x (and of c when
        it has a row per x row), the last taking the remainder: B to 2B - 1
        rows each, so memory stays bounded, and no block is small enough for
        OpenBLAS's small-M kernel, whose bits would differ from one call's."""
        n = len(x)
        c_rows = c is not None and np.ndim(c) == 2 and len(c) == n
        out = np.empty((n, self.config.dim_x))
        n_blocks = max(1, n // _BLOCK_ROWS)
        for k in range(n_blocks):
            lo = k * _BLOCK_ROWS
            hi = n if k == n_blocks - 1 else lo + _BLOCK_ROWS
            out[lo:hi] = self.mlp.forward(x[lo:hi], c[lo:hi] if c_rows else c, e)
        return out

    def backward(self, d_out: np.ndarray) -> Gradients:
        """Parameter gradients for the last forward(train=True) call, written
        into one new vector per call."""
        if self._cache is None:
            raise TrainingError("backward called without a cached forward pass (train=True)")
        d_out = np.asarray(d_out, dtype=np.float64)
        if d_out.ndim == 1:
            d_out = d_out[None, :]
        flat = np.empty_like(self.flat)
        grads = Gradients(flat, _views(flat, self._shapes))
        layer = self._by_layer(grads)
        _, d_e = self.mlp.backward(self._cache["mlp"], d_out, layer["mlp"])
        self.embedding.backward(self._cache["emb"], d_e, layer["emb"])
        return grads


@dataclass(frozen=True)
class OptimizerConfig:
    """Adam + decoupled weight decay + warm-up/cosine learning-rate schedule.

    Defaults: peak LR 2e-4, warm-up over the first 5% of total_steps (a
    whole number >= 1) starting at peak/125, cosine decay to zero
    afterwards, weight decay 0.01 on weight matrices only.
    """

    total_steps: int
    peak_lr: float = 2e-4
    warmup_frac: float = 0.05
    warmup_start_factor: float = 1.0 / 125.0
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        object.__setattr__(self, "total_steps", _whole("total_steps", self.total_steps, 1))
        if not 0.0 <= self.warmup_frac < 1.0:
            raise ConfigError(f"warmup_frac must be in [0, 1), got {self.warmup_frac}")
        for name in ("peak_lr", "warmup_start_factor", "eps"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ConfigError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {getattr(self, name)}")

    @property
    def warmup_steps(self) -> int:
        return int(round(self.warmup_frac * self.total_steps))


def lr_at(config: OptimizerConfig, step: int) -> float:
    """Learning rate for update index `step` (0-based).

    Linear from peak*warmup_start_factor to peak over the warm-up, then
    cosine from peak to 0 over the remainder.
    """
    w = config.warmup_steps
    if step < w:
        start = config.peak_lr * config.warmup_start_factor
        return start + (config.peak_lr - start) * (step / w)
    span = max(config.total_steps - w, 1)
    frac = min((step - w) / span, 1.0)
    return 0.5 * config.peak_lr * (1.0 + np.cos(np.pi * frac))


def decay_mask(params: dict[str, np.ndarray]) -> dict[str, bool]:
    """True where decoupled weight decay applies: weight matrices only.

    Biases and PReLU slopes (and FiLM projection biases) are excluded.
    """
    return {name: name.endswith((".w", ".gw", ".hw")) for name in params}


@dataclass
class OptimizerState:
    """Adam moments and weight-decay mask, laid out like the parameter vector."""

    config: OptimizerConfig
    m: np.ndarray
    v: np.ndarray
    mask: np.ndarray
    step: int = 0


def init_optimizer(params: dict[str, np.ndarray], config: OptimizerConfig) -> OptimizerState:
    names, decays = sorted(params), decay_mask(params)
    mask = np.repeat([decays[k] for k in names], [params[k].size for k in names])
    return OptimizerState(config=config, m=np.zeros(mask.size), v=np.zeros(mask.size), mask=mask)


def adam_step(state: OptimizerState, params: np.ndarray, grads: np.ndarray) -> float:
    """One in-place Adam update of a parameter vector, with decoupled weight
    decay where ``state.mask`` is set; returns the learning rate used.

    The vector is updated in slices of ``_ADAM_BLOCK`` elements, each through
    two scratch buffers with ``out=`` ufuncs: one slice of all six vectors
    stays in cache, and no whole-vector temporary is allocated.
    """
    cfg = state.config
    lr = lr_at(cfg, state.step)
    t = state.step + 1
    bc1, bc2 = 1.0 - cfg.beta1**t, 1.0 - cfg.beta2**t
    buffers = np.empty((2, min(_ADAM_BLOCK, params.size)))
    for lo in range(0, params.size, _ADAM_BLOCK):
        p, g, m, v, mask = (a[lo:lo + _ADAM_BLOCK]
                            for a in (params, grads, state.m, state.v, state.mask))
        update, scratch = buffers[:, : p.size]
        m *= cfg.beta1
        m += np.multiply(1.0 - cfg.beta1, g, out=scratch)
        v *= cfg.beta2
        v += np.multiply(np.multiply(1.0 - cfg.beta2, g, out=scratch), g, out=scratch)
        np.divide(m, bc1, out=update)
        np.sqrt(np.divide(v, bc2, out=scratch), out=scratch)
        update /= np.add(scratch, cfg.eps, out=scratch)
        if cfg.weight_decay:
            np.add(update, np.multiply(cfg.weight_decay, p, out=scratch), out=update, where=mask)
        p -= np.multiply(lr, update, out=update)
    state.step = t
    return float(lr)


def dsm_loss_and_grads(net: ScoreNet, x0: np.ndarray, c, schedule: NoiseSchedule, rng: np.random.Generator):
    """Batch-mean DSM loss and its parameter gradients.

    Per example: draw (t, z) through :func:`~scorewave.diffusion.dsm_draw`,
    form x_t = x0 + sigma_t z, and accumulate 1/2 ||sigma_t S(x_t, c,
    sigma_t) + z||^2; the upstream gradient into the network is
    sigma_t (sigma_t S + z) / B.
    """
    _, sig, x_t, z = dsm_draw(x0, schedule, rng)
    batch = x_t.shape[0]
    s = net.forward(x_t, c, sig, train=True)
    resid = sig[:, None] * s + z
    loss = float(0.5 * np.sum(resid * resid) / batch)
    grads = net.backward(sig[:, None] * resid / batch)
    return loss, grads


def train(
    net: ScoreNet,
    data,
    schedule: NoiseSchedule,
    opt_config: OptimizerConfig,
    n_iters: int,
    batch_size: int,
    rng: np.random.Generator,
    opt_state: OptimizerState | None = None,
) -> np.ndarray:
    """Run batched DSM descent; returns the loss trace (one entry per iter).

    `data` is either a GmmPrior (unconditional: c = None) or a callable
    (rng, batch_size) -> (x0, c) producing training pairs. Deterministic
    given the rng; aborts with the iteration index if the loss goes
    non-finite.
    """
    if isinstance(data, GmmPrior):
        prior = data
        if prior.dim != net.config.dim_x:
            raise ConfigError(f"prior dim {prior.dim} != net dim_x {net.config.dim_x}")

        def draw(r, b):
            return sample_prior(prior, b, r), None

    elif callable(data):
        draw = data
    else:
        raise ConfigError(f"data must be a GmmPrior or a callable batch sampler, got {type(data)!r}")

    state = opt_state if opt_state is not None else init_optimizer(net.parameters(), opt_config)
    trace = np.empty(n_iters)
    for it in range(n_iters):
        x0, c = draw(rng, batch_size)
        loss, grads = dsm_loss_and_grads(net, x0, c, schedule, rng)
        if not np.isfinite(loss):
            raise TrainingError(f"non-finite loss at iteration {it}")
        adam_step(state, net.flat, grads.flat)
        trace[it] = loss
    net.opt_state = state
    return trace


def save_checkpoint(path, net: ScoreNet, opt_state: OptimizerState | None = None) -> None:
    """Versioned binary checkpoint.

    Layout: 8-byte magic "SWCKPT01"; uint32 little-endian JSON header
    length; UTF-8 JSON header (config echo, optimizer config/step, ordered
    array names and shapes); then raw little-endian float64 data: the
    frozen frequencies, the parameter vector (arrays in header order) and,
    if present, the optimizer's first and second moment vectors.
    """
    params = net.parameters()
    header = {
        "config": asdict(net.config),
        "param_names": list(params),
        "param_shapes": {k: list(p.shape) for k, p in params.items()},
        "has_opt": opt_state is not None,
    }
    payload = [net.embedding.frequencies, net.flat]
    if opt_state is not None:
        header["opt"] = asdict(opt_state.config) | {"step": opt_state.step}
        payload += [opt_state.m, opt_state.v]
    blob = json.dumps(header).encode("utf-8")
    with replacing(path) as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for arr in payload:
            fh.write(np.ascontiguousarray(arr, dtype="<f8"))


def load_checkpoint(path):
    """Rebuild (net, opt_state or None) from a checkpoint file.

    A file that does not match the layout :func:`save_checkpoint` writes
    (bad magic, short or undecodable header, a size or optimizer step that
    is not a whole number, parameter names or shapes other than the header's
    config implies, payload longer or shorter than the header implies)
    raises :class:`ConfigError`.
    """
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _CKPT_MAGIC:
            raise ConfigError(f"not a checkpoint file (magic {magic!r})")
        try:
            (hlen,) = struct.unpack("<I", fh.read(4))
            header = json.loads(fh.read(hlen).decode("utf-8"))
            cfg = ScoreNetConfig(**header["config"])
            layout = [(k, tuple(header["param_shapes"][k])) for k in header["param_names"]]
            opt_config, step = None, 0
            if header["has_opt"]:
                oh = dict(header["opt"])
                step = _whole("step", oh.pop("step"), 0)
                opt_config = OptimizerConfig(**oh)
        except (struct.error, ValueError, KeyError, TypeError, OverflowError) as exc:
            raise ConfigError(f"{path}: malformed checkpoint header: {exc!r}") from exc
        raw = fh.read()

    # Sized from the config before any array is built, so a header that
    # declares a huge network cannot allocate past the file's own size.
    n_copies = 1 if opt_config is None else 3  # parameters, then Adam's m and v
    n_params = cfg.n_parameters()
    expected = 8 * (cfg.n_pairs + n_copies * n_params)
    if len(raw) != expected:
        raise ConfigError(f"{path}: checkpoint payload is {len(raw)} bytes, "
                          f"its header implies {expected}")
    if layout != list(cfg.shapes().items()):
        raise ConfigError(f"{path}: checkpoint parameter names or shapes do not match its config")

    freq, *vectors = np.split(np.frombuffer(raw, dtype="<f8"),
                              cfg.n_pairs + n_params * np.arange(n_copies))
    net = ScoreNet(cfg, None, flat=vectors[0].astype(np.float64))
    net.embedding.frequencies = freq.astype(np.float64)
    net.embedding.frequencies.flags.writeable = False
    opt_state = None if opt_config is None else init_optimizer(net.parameters(), opt_config)
    if opt_state is not None:
        opt_state.step = step
        opt_state.m[...], opt_state.v[...] = vectors[1:]
    return net, opt_state
