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
  per call, not once per row.

Backward passes are written out by hand and return gradients for every
parameter (including PReLU slopes and FiLM projections); they are verified
against central finite differences in the test suite. The optimizer is
Adam with decoupled ("manual") weight decay of 0.01 applied to weight
matrices only — biases and PReLU slopes are excluded — under a linear
warm-up (first 5% of iterations, starting at peak/125) followed by cosine
decay from the peak learning rate of 2e-4.

Parameters live in one float64 vector, ``ScoreNet.flat``, in sorted-name
order; layers hold views into it, and one in-place Adam update trains all.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .diffusion import dsm_draw
from .errors import ConfigError, TrainingError
from .oracle import GmmPrior
from .oracle import sample as sample_prior
from .schedule import NoiseSchedule

_CKPT_MAGIC = b"SWCKPT01"
_ADAM_BLOCK = 32768  # elements per Adam slice: 256 KB per vector, six vectors fit in L2


def _prelu(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    return np.where(x > 0, x, a * x)


def _prelu_backward(x: np.ndarray, a: np.ndarray, dout: np.ndarray):
    dx = np.where(x > 0, dout, a * dout)
    neg = np.where(x > 0, 0.0, x)
    da = (dout * neg).reshape(-1, x.shape[-1]).sum(axis=0)
    return dx, da


def pack(arrays: dict[str, np.ndarray]) -> np.ndarray:
    """The named arrays copied into one float64 vector, laid out by sorted name."""
    return np.concatenate([np.ravel(arrays[k]) for k in sorted(arrays)], dtype=np.float64)


def flatten(arrays: dict[str, np.ndarray]) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """:func:`pack` the arrays and return (vector, name -> view): each view
    has its array's shape and shares memory with the vector."""
    flat, names = pack(arrays), sorted(arrays)
    ends = np.cumsum([np.size(arrays[k]) for k in names]).tolist()
    pieces = (flat[end - np.size(arrays[k]):end] for k, end in zip(names, ends))
    return flat, {k: v.reshape(np.shape(arrays[k])) for k, v in zip(names, pieces)}


def _affine_init(n_in: int, n_out: int, rng: np.random.Generator):
    """Uniform fan-in init: U(-1/sqrt(n_in), 1/sqrt(n_in)) for weight and bias."""
    bound = 1.0 / np.sqrt(n_in)
    w = rng.uniform(-bound, bound, size=(n_in, n_out))
    b = rng.uniform(-bound, bound, size=n_out)
    return w, b


@dataclass(frozen=True)
class ScoreNetConfig:
    """Layer-size configuration; the parameter count is a pure function of it."""

    dim_x: int
    dim_c: int = 0
    hidden: tuple[int, ...] = (64, 64)
    n_pairs: int = 32
    embed_dim: int = 256

    def __post_init__(self):
        if self.dim_x < 1 or self.dim_c < 0:
            raise ConfigError(f"invalid dims: dim_x={self.dim_x}, dim_c={self.dim_c}")
        if not self.hidden or any(h < 1 for h in self.hidden):
            raise ConfigError(f"hidden widths must be positive, got {self.hidden}")
        if self.n_pairs < 1 or self.embed_dim < 1:
            raise ConfigError(
                f"invalid embedding sizes: n_pairs={self.n_pairs}, embed_dim={self.embed_dim}"
            )
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))

    def n_parameters(self) -> int:
        """:meth:`ScoreNet.n_parameters` from the sizes alone, no arrays built:
        the embedding MLP, then per FiLM layer w, b, a, gw, gb, hw, hb, then out."""
        e, widths = self.embed_dim, (self.dim_x + self.dim_c, *self.hidden)
        film = sum(w * (n_in + 2 * e + 4) for n_in, w in zip(widths, widths[1:]))
        return 2 * self.n_pairs * e + 2 * e * e + 6 * e + film + (widths[-1] + 1) * self.dim_x


class SigmaEmbedding:
    """Frozen random Fourier features of log sigma plus a 3-layer PReLU MLP.

    The frequency vector is drawn once at construction and never trained.
    """

    def __init__(self, n_pairs: int, embed_dim: int, rng: np.random.Generator):
        self.n_pairs = n_pairs
        self.embed_dim = embed_dim
        self.frequencies = rng.standard_normal(n_pairs)
        self.frequencies.flags.writeable = False
        self.params: dict[str, np.ndarray] = {}
        sizes = [2 * n_pairs, embed_dim, embed_dim, embed_dim]
        for i, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            w, b = _affine_init(n_in, n_out, rng)
            self.params[f"l{i}.w"] = w
            self.params[f"l{i}.b"] = b
            self.params[f"l{i}.a"] = np.full(n_out, 0.25)

    def features(self, sigma) -> np.ndarray:
        """[sin(f_i log sigma), cos(f_i log sigma)] — shape (..., 2*n_pairs)."""
        sigma = np.asarray(sigma, dtype=np.float64)
        if np.any(sigma <= 0.0) or not np.all(np.isfinite(sigma)):
            raise ConfigError(f"sigma must be positive and finite, got {sigma!r}")
        phase = np.log(sigma)[..., None] * self.frequencies
        return np.concatenate([np.sin(phase), np.cos(phase)], axis=-1)

    def forward(self, sigma, cache: dict | None = None) -> np.ndarray:
        h = self.features(sigma)
        if cache is not None:
            cache["inputs"] = [h]
            cache["pres"] = []
        for i in range(3):
            pre = h @ self.params[f"l{i}.w"] + self.params[f"l{i}.b"]
            h = _prelu(pre, self.params[f"l{i}.a"])
            if cache is not None:
                cache["pres"].append(pre)
                cache["inputs"].append(h)
        return h

    def backward(self, cache: dict, d_out: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients of a scalar loss w.r.t. the MLP parameters, given the
        gradient w.r.t. the embedding output. Frequencies receive none."""
        grads: dict[str, np.ndarray] = {}
        d_h = d_out
        for i in reversed(range(3)):
            pre = cache["pres"][i]
            inp = cache["inputs"][i]
            d_pre, grads[f"l{i}.a"] = _prelu_backward(pre, self.params[f"l{i}.a"], d_h)
            grads[f"l{i}.w"] = inp.reshape(-1, inp.shape[-1]).T @ d_pre.reshape(-1, d_pre.shape[-1])
            grads[f"l{i}.b"] = d_pre.reshape(-1, d_pre.shape[-1]).sum(axis=0)
            d_h = d_pre @ self.params[f"l{i}.w"].T
        return grads


class FilmMlp:
    """PReLU MLP over concat(x, c) with per-layer FiLM modulation.

    Hidden pre-activations are transformed as gamma ⊙ pre + shift, with
    gamma = e @ Gw + gb and shift = e @ Hw + hb computed from the sigma
    embedding e. FiLM starts at identity (Gw = Hw = 0, gb = 1, hb = 0) and
    the output layer starts at zero, so the freshly built network is the
    zero score.
    """

    def __init__(self, config: ScoreNetConfig, rng: np.random.Generator):
        self.config = config
        self.params: dict[str, np.ndarray] = {}
        n_in = config.dim_x + config.dim_c
        for i, width in enumerate(config.hidden):
            w, b = _affine_init(n_in, width, rng)
            self.params[f"l{i}.w"] = w
            self.params[f"l{i}.b"] = b
            self.params[f"l{i}.a"] = np.full(width, 0.25)
            self.params[f"l{i}.gw"] = np.zeros((config.embed_dim, width))
            self.params[f"l{i}.gb"] = np.ones(width)
            self.params[f"l{i}.hw"] = np.zeros((config.embed_dim, width))
            self.params[f"l{i}.hb"] = np.zeros(width)
            n_in = width
        self.params["out.w"] = np.zeros((n_in, config.dim_x))
        self.params["out.b"] = np.zeros(config.dim_x)

    def forward(self, x: np.ndarray, c, sigma_emb: np.ndarray, cache: dict | None = None):
        cfg = self.config
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
        e = sigma_emb
        if cache is not None:
            cache.update(inputs=[h], pres=[], filmed=[], gammas=[], e=e)
        for i in range(len(cfg.hidden)):
            pre = h @ self.params[f"l{i}.w"] + self.params[f"l{i}.b"]
            gamma = e @ self.params[f"l{i}.gw"] + self.params[f"l{i}.gb"]
            shift = e @ self.params[f"l{i}.hw"] + self.params[f"l{i}.hb"]
            filmed = gamma * pre + shift
            h = _prelu(filmed, self.params[f"l{i}.a"])
            if cache is not None:
                cache["pres"].append(pre)
                cache["gammas"].append(gamma)
                cache["filmed"].append(filmed)
                cache["inputs"].append(h)
        return h @ self.params["out.w"] + self.params["out.b"]

    def backward(self, cache: dict, d_out: np.ndarray):
        """Returns (parameter gradients, gradient w.r.t. the sigma embedding)."""

        def flat(arr):
            return arr.reshape(-1, arr.shape[-1])

        grads: dict[str, np.ndarray] = {}
        h_last = cache["inputs"][-1]
        grads["out.w"] = flat(h_last).T @ flat(d_out)
        grads["out.b"] = flat(d_out).sum(axis=0)
        d_h = d_out @ self.params["out.w"].T
        d_e = np.zeros_like(cache["e"])
        for i in reversed(range(len(self.config.hidden))):
            filmed = cache["filmed"][i]
            d_filmed, grads[f"l{i}.a"] = _prelu_backward(filmed, self.params[f"l{i}.a"], d_h)
            pre = cache["pres"][i]
            gamma = cache["gammas"][i]
            d_gamma = d_filmed * pre
            d_shift = d_filmed
            d_pre = d_filmed * gamma
            e = cache["e"]
            grads[f"l{i}.gw"] = flat(e).T @ flat(d_gamma)
            grads[f"l{i}.gb"] = flat(d_gamma).sum(axis=0)
            grads[f"l{i}.hw"] = flat(e).T @ flat(d_shift)
            grads[f"l{i}.hb"] = flat(d_shift).sum(axis=0)
            d_e = d_e + d_gamma @ self.params[f"l{i}.gw"].T + d_shift @ self.params[f"l{i}.hw"].T
            inp = cache["inputs"][i]
            grads[f"l{i}.w"] = flat(inp).T @ flat(d_pre)
            grads[f"l{i}.b"] = flat(d_pre).sum(axis=0)
            d_h = d_pre @ self.params[f"l{i}.w"].T
            if self.config.dim_c and i == 0:
                d_h = d_h[..., : self.config.dim_x]
        return grads, d_e


class ScoreNet:
    """Sigma embedding + FiLM MLP, presenting the sampler's score interface."""

    def __init__(self, config: ScoreNetConfig, rng: np.random.Generator):
        self.config = config
        self.embedding = SigmaEmbedding(config.n_pairs, config.embed_dim, rng)
        self.mlp = FilmMlp(config, rng)
        layers = {"emb": self.embedding.params, "mlp": self.mlp.params}
        named = {f"{p}.{k}": v for p, ps in layers.items() for k, v in ps.items()}
        self.flat, self._views = flatten(named)
        for p, ps in layers.items():
            ps.update({k: self._views[f"{p}.{k}"] for k in ps})
        self.opt_state: OptimizerState | None = None
        self._cache: dict | None = None

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
        one row per example, because backward needs per-row caches.
        """
        x_in = np.asarray(x, dtype=np.float64)
        squeeze = x_in.ndim == 1
        x2 = x_in[None, :] if squeeze else x_in
        sig = np.asarray(sigma, dtype=np.float64)
        if sig.ndim == 0:
            sig = np.full(x2.shape[0] if train else 1, float(sig))
        emb_cache: dict | None = {} if train else None
        mlp_cache: dict | None = {} if train else None
        e = self.embedding.forward(sig, emb_cache)
        out = self.mlp.forward(x2, c, e, mlp_cache)
        if train:
            self._cache = {"emb": emb_cache, "mlp": mlp_cache}
        return out[0] if squeeze else out

    def backward(self, d_out: np.ndarray) -> dict[str, np.ndarray]:
        """Parameter gradients for the last forward(train=True) call."""
        if self._cache is None:
            raise TrainingError("backward called without a cached forward pass (train=True)")
        d_out = np.asarray(d_out, dtype=np.float64)
        if d_out.ndim == 1:
            d_out = d_out[None, :]
        mlp_grads, d_e = self.mlp.backward(self._cache["mlp"], d_out)
        emb_grads = self.embedding.backward(self._cache["emb"], d_e)
        layers = {"emb": emb_grads, "mlp": mlp_grads}
        return {f"{p}.{k}": v for p, grads in layers.items() for k, v in grads.items()}


@dataclass(frozen=True)
class OptimizerConfig:
    """Adam + decoupled weight decay + warm-up/cosine learning-rate schedule.

    Defaults: peak LR 2e-4, warm-up over the first 5% of total_steps
    starting at peak/125, cosine decay to zero afterwards, weight decay
    0.01 on weight matrices only.
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
        if self.total_steps < 1:
            raise ConfigError(f"total_steps must be >= 1, got {self.total_steps}")
        if not 0.0 <= self.warmup_frac < 1.0:
            raise ConfigError(f"warmup_frac must be in [0, 1), got {self.warmup_frac}")
        if self.peak_lr <= 0:
            raise ConfigError(f"peak_lr must be > 0, got {self.peak_lr}")

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
        adam_step(state, net.flat, pack(grads))
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
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for arr in payload:
            fh.write(np.ascontiguousarray(arr, dtype="<f8"))


def load_checkpoint(path):
    """Rebuild (net, opt_state or None) from a checkpoint file.

    A file that does not match the layout :func:`save_checkpoint` writes
    (bad magic, short or undecodable header, parameter names or shapes
    other than the header's config implies, payload longer or shorter than
    the header implies) raises :class:`ConfigError`.
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
                step = oh.pop("step")
                opt_config = OptimizerConfig(**oh)
        except (struct.error, ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"{path}: malformed checkpoint header: {exc!r}") from exc
        raw = fh.read()

    # Sized from the config before any array is built, so a header that
    # declares a huge network cannot allocate past the file's own size.
    n_copies = 1 if opt_config is None else 3  # parameters, then Adam's m and v
    expected = 8 * (cfg.n_pairs + n_copies * cfg.n_parameters())
    if len(raw) != expected:
        raise ConfigError(f"{path}: checkpoint payload is {len(raw)} bytes, "
                          f"its header implies {expected}")
    net = ScoreNet(cfg, np.random.default_rng(0))
    params = net.parameters()
    if layout != [(k, p.shape) for k, p in params.items()]:
        raise ConfigError("checkpoint parameters do not match the rebuilt network")

    freq, *vectors = np.split(np.frombuffer(raw, dtype="<f8"),
                              cfg.n_pairs + net.flat.size * np.arange(n_copies))
    net.embedding.frequencies = freq.copy()
    net.embedding.frequencies.flags.writeable = False
    net.flat[...] = vectors[0]
    opt_state = None if opt_config is None else init_optimizer(params, opt_config)
    if opt_state is not None:
        opt_state.step = step
        opt_state.m[...], opt_state.v[...] = vectors[1:]
    return net, opt_state
