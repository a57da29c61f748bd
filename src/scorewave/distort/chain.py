"""Distortion chain sampling, application, alignment, and replay.

A chain is an ordered list of DistortionSpec records. Sampling draws the
chain length from a count distribution over {1..5}, then picks types
without replacement proportional to their selection weights, then draws
each type's parameters from its registry entry's bounds; every spec also
receives its own rng sub-seed. Because all randomness an applier consumes
flows from that logged sub-seed, `apply_chain` is a pure function of
(signal, chain, assets) — replaying a logged chain is bit-exact. An output
louder than the config's clip_level is soft-clipped, and the returned pair's
``clipped`` flag is the one report of it (`distort` logs it per file).

That promise holds within one ENGINE_VERSION. The version is bumped by any
change that moves an applier's output by even the last bit, or the
alignment below (version 2 convolves room impulse responses by overlap-add
FFT and projects Griffin-Lim phases as z / |z|; version 3 bounds the lag
search by the samples the delay steps added), and `distort` writes it into
every log record. `chain_from_record` replays a record only if its version
is the running engine's; a record without the key is version 1.

Chains that contain delay-introducing types (short delay, impulse
response convolution) are re-aligned against the clean reference by the
peak of the normalized cross-correlation over the lags [-D, D], where D
is the number of samples those steps added (every other type keeps the
length), ties broken toward the smaller absolute offset, and both signals
are trimmed to the common support.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, NumericError, ScorewaveError
from ..signal import Signal
from .primitives import PRIMITIVES

ENGINE_VERSION = 3


@dataclass(frozen=True)
class ChainConfig:
    """Knobs for chain sampling: count distribution over {1..5} distortions,
    per-type selection weights, and the optional asset pools (noise
    recordings / room impulse responses, arrays at the processed signal's
    sample rate). Parameters are drawn from each type's fixed bounds in
    PRIMITIVES. An output peaking above clip_level is soft-clipped, and its
    DistortedPair says so in ``clipped``."""

    count_probs: tuple = (0.35, 0.45, 0.15, 0.04, 0.01)
    weights: dict = field(
        default_factory=lambda: {name: float(p.weight) for name, p in PRIMITIVES.items()})
    noise_pool: tuple = ()
    rir_pool: tuple = ()
    clip_level: float = 4.0

    def __post_init__(self):
        probs = np.asarray(self.count_probs, dtype=np.float64)
        if probs.ndim != 1 or probs.size == 0:
            raise ConfigError("count_probs must be a non-empty 1-D sequence")
        # written so that a NaN entry (whose comparisons are all false) fails
        if np.any(probs < 0) or not abs(probs.sum() - 1.0) <= 1e-9:
            raise ConfigError("count_probs must be non-negative and sum to 1")
        if not 0.0 < self.clip_level < np.inf:
            raise ConfigError(f"clip_level must be finite and > 0, got {self.clip_level}")
        if not self.weights:
            raise ConfigError("at least one distortion type must be enabled")
        for name, w in self.weights.items():
            if name not in PRIMITIVES:
                raise ConfigError(f"unknown distortion type {name!r}")
            if not w > 0:
                raise ConfigError(f"weight for {name!r} must be > 0")

    def assets(self) -> dict:
        return {"noise_pool": self.noise_pool, "rir_pool": self.rir_pool}

    def available_types(self) -> list[str]:
        """Enabled types whose required asset pool is non-empty."""
        out = []
        for name in self.weights:
            needs = PRIMITIVES[name].needs
            if needs and not self.assets().get(needs):
                continue
            out.append(name)
        if not out:
            raise ConfigError("no distortion types available (check asset pools)")
        return out


@dataclass(frozen=True)
class DistortionSpec:
    """One applied distortion: type tag, full parameter record, rng sub-seed."""

    kind: str
    params: dict
    seed: int

    def __post_init__(self):
        if self.kind not in PRIMITIVES:
            raise ConfigError(f"unknown distortion type {self.kind!r}")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": dict(self.params), "seed": int(self.seed)}

    @classmethod
    def from_dict(cls, record: dict) -> "DistortionSpec":
        return cls(kind=record["kind"], params=dict(record["params"]),
                   seed=int(record["seed"]))


@dataclass(frozen=True)
class DistortedPair:
    """Aligned (clean, distorted) signals plus the chain that produced them;
    ``clipped`` says whether the output hit the soft-clip guard."""

    clean: Signal
    distorted: Signal
    chain: tuple
    offset: int
    clipped: bool = False

    def __post_init__(self):
        if not self.chain:
            raise ConfigError("a distortion chain must contain at least one step")
        if len(self.clean) != len(self.distorted):
            raise ConfigError("clean and distorted must have equal length after alignment")


def sample_chain(cfg: ChainConfig, rng) -> tuple:
    """Draw one chain: length from cfg.count_probs (over 1..len(probs)
    distortions), then types without replacement proportional to weight,
    then per-type parameters and an rng sub-seed for each step."""
    probs = np.asarray(cfg.count_probs, dtype=np.float64)
    count = 1 + int(rng.choice(probs.size, p=probs / probs.sum()))
    available = cfg.available_types()
    count = min(count, len(available))
    specs = []
    for _ in range(count):
        w = np.array([cfg.weights[name] for name in available], dtype=np.float64)
        name = available.pop(int(rng.choice(w.size, p=w / w.sum())))
        params = PRIMITIVES[name].sample(rng)
        seed = int(rng.integers(0, 2**63))
        specs.append(DistortionSpec(kind=name, params=params, seed=seed))
    return tuple(specs)


def _align_offset(clean: np.ndarray, distorted: np.ndarray) -> int:
    """Lag in [-D, D] of the normalized cross-correlation peak (positive =
    the distorted signal is delayed), D = len(distorted) - len(clean): the
    samples the chain's delay steps added, since every other step keeps the
    length. Exact ties (within 1e-12 of the peak) go to the smaller |lag|.
    One circular correlation of FFT length >= len(distorted) + D, which
    wraps no lag in that range."""
    import scipy.fft

    reach = distorted.size - clean.size
    nfft = scipy.fft.next_fast_len(distorted.size + reach, real=True)
    spectrum = scipy.fft.rfft(distorted, nfft)
    spectrum *= scipy.fft.rfft(clean, nfft).conj()
    lags = np.arange(-reach, reach + 1)
    corr = scipy.fft.irfft(spectrum, nfft)[lags]
    norm = np.linalg.norm(clean) * np.linalg.norm(distorted)
    if norm > 0:
        corr /= norm
    near_peak = np.flatnonzero(corr >= corr.max() - 1e-12)
    return int(lags[near_peak[np.argmin(np.abs(lags[near_peak]))]])


def apply_chain(x: Signal, chain, cfg: ChainConfig | None = None) -> DistortedPair:
    """Apply the chain's steps in order. Every applier draws from a fresh
    generator seeded with its spec's sub-seed, so the result depends only
    on (x, chain, asset pools). Failures propagate with the chain index.
    Output exceeding ±clip_level is soft-clipped to ``clip_level * tanh(y /
    clip_level)`` and comes back with ``clipped=True``, the only report of
    it."""
    cfg = cfg if cfg is not None else ChainConfig()
    chain = tuple(chain)
    if not chain:
        raise ConfigError("a distortion chain must contain at least one step")
    assets = cfg.assets()
    y = x.samples.copy()
    for i, spec in enumerate(chain):
        prim = PRIMITIVES[spec.kind]
        try:
            y = prim.apply(y, x.sample_rate, spec.params, np.random.default_rng(spec.seed), assets)
        except ScorewaveError as exc:
            raise type(exc)(f"chain step {i} ({spec.kind}): {exc}") from exc
        y = np.asarray(y, dtype=np.float64)
        if not np.all(np.isfinite(y)):
            raise NumericError(f"chain step {i} ({spec.kind}) produced non-finite samples")

    clipped = y.size > 0 and float(np.max(np.abs(y))) > cfg.clip_level
    if clipped:
        y = cfg.clip_level * np.tanh(y / cfg.clip_level)

    clean = x.samples
    offset = 0
    if any(PRIMITIVES[s.kind].introduces_delay for s in chain):
        offset = _align_offset(clean, y)
    start_d, start_c = max(offset, 0), max(-offset, 0)
    length = min(y.size - start_d, clean.size - start_c)
    if length <= 0:
        raise NumericError("alignment left no overlapping support")
    return DistortedPair(
        clean=Signal(samples=clean[start_c : start_c + length], sample_rate=x.sample_rate),
        distorted=Signal(samples=y[start_d : start_d + length], sample_rate=x.sample_rate),
        chain=chain,
        offset=offset,
        clipped=clipped,
    )


def chain_from_json(text: str) -> tuple:
    """The chain of a JSON list of `DistortionSpec.to_dict` records."""
    return tuple(DistortionSpec.from_dict(rec) for rec in json.loads(text))


def chain_from_record(record: dict) -> tuple:
    """The chain of one `distort` log record, for bit-exact replay. A record
    from another engine version (no "engine_version" key means version 1)
    would replay to different audio, so it raises ConfigError instead."""
    version = record.get("engine_version", 1)
    if version != ENGINE_VERSION:
        raise ConfigError(f"log record is from distortion engine version {version}, this is "
                          f"version {ENGINE_VERSION}: its chain would not replay bit-exactly")
    if "chain" not in record:
        raise ConfigError(f"log record holds no chain: {record.get('error', 'no error given')}")
    return tuple(DistortionSpec.from_dict(spec) for spec in record["chain"])
