"""The distortion primitives: one sampler + one applier per type.

Every primitive is registered with its family, its selection weight, a
parameter sampler (drawing from the bounds table — frequency-like bounds
log-uniform, everything else uniform), and an applier

    apply(x, rate, params, rng, assets) -> y

where `rng` is a generator seeded from the spec's sub-seed (so replaying
a logged chain is bit-exact) and `assets` carries optional user-supplied
material (noise recordings, room impulse responses). Parameter bounds
live in DEFAULT_BOUNDS as plain data; they can be overridden per chain
config without touching code.

Appliers return float64 arrays; most preserve length, the delaying ones
(short delay, impulse-response convolution) are flagged so the chain
runner knows to re-align against the clean reference afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
import scipy.signal

from ..errors import ConfigError
from ..signal import Signal, istft, resample, stft
from . import biquad

# ---------------------------------------------------------------------------
# Bounds table (data, not code). Two-tuples are (lo, hi) ranges; lists are
# categorical choices. Frequencies and other scale-like ranges are sampled
# log-uniformly by the samplers that use them.

DEFAULT_BOUNDS: dict[str, dict] = {
    "band_pass": {"freq": (300.0, 3000.0), "q": (0.5, 5.0)},
    "high_pass": {"freq": (100.0, 2000.0), "q": (0.5, 5.0)},
    "low_pass": {"freq": (800.0, 7200.0), "q": (0.5, 5.0)},
    "down_sample": {"factor": [2, 4, 8], "method": ["hold", "poly"]},
    "mu_law": {"bits": (4, 8), "mu": 255.0},
    "plosive_boost": {"freq": (80.0, 300.0), "gain_db": (6.0, 18.0)},
    "sibilance_boost": {"freq": (4000.0, 7500.0), "gain_db": (6.0, 18.0)},
    "overdrive": {"gain": (2.0, 20.0), "mix": (0.5, 1.0)},
    "clip": {"threshold": (0.1, 0.9)},
    "compressor": {
        "threshold_db": (-40.0, -10.0),
        "ratio": (2.0, 10.0),
        "attack_ms": (1.0, 10.0),
        "release_ms": (50.0, 300.0),
    },
    "destroy_levels": {"segment_ms": (100.0, 1000.0), "prob": (0.3, 0.8),
                       "gain_db": (-35.0, -5.0)},
    "noise_gate": {"threshold_db": (-60.0, -30.0), "attack_ms": (1.0, 10.0),
                   "release_ms": (20.0, 100.0)},
    "simple_compressor": {"ratio": (1.5, 4.0)},
    "simple_expander": {"ratio": (1.2, 3.0)},
    "tremolo": {"rate_hz": (0.5, 8.0), "depth": (0.3, 0.9)},
    "band_reject": {"freq": (300.0, 4000.0), "q": (0.5, 5.0)},
    "random_eq": {"n_bands": (3, 10), "gain_db": (-12.0, 12.0), "q": (0.5, 5.0),
                  "freq": (100.0, 7000.0)},
    "two_pole": {"freq": (300.0, 4000.0), "radius": (0.9, 0.99)},
    "additive_noise": {"snr_db": (-5.0, 25.0)},
    "impulsive_noise": {"snr_db": (-5.0, 25.0), "rate_hz": (0.5, 5.0),
                        "burst_ms": (5.0, 50.0)},
    "algorithmic_reverb": {"t60": (0.2, 1.5), "wet": (0.2, 0.8)},
    "rir_convolution": {"t60": (0.15, 1.2), "ir_ms": (100.0, 600.0),
                        "predelay_ms": (0.0, 20.0), "wet": (0.3, 1.0)},
    "short_delay": {"delay_ms": (0.5, 20.0), "gain": (0.7, 1.0)},
    "griffin_lim": {"window": [256, 512, 1024], "iterations": (5, 30)},
    "phase_randomization": {"window": [256, 512, 1024], "amount": (0.3, 1.0)},
    "phase_shuffle": {"window": [256, 512, 1024], "amount": (0.3, 1.0)},
    "spectral_holes": {"window": [256, 512, 1024], "n_holes": (3, 20),
                       "max_bins": 40, "max_frames": 20},
    "spectral_noise": {"window": [256, 512, 1024], "amount": (0.05, 0.5)},
    "colored_noise": {"snr_db": (-5.0, 25.0), "slope_db_oct": (-6.0, 6.0)},
    "dc_component": {"amplitude": (0.01, 0.2)},
    "electricity_tone": {"snr_db": (-5.0, 25.0), "freq": [50.0, 60.0],
                         "waveform": ["sine", "square", "sawtooth"]},
    "random_tone": {"snr_db": (-5.0, 25.0), "freq": (100.0, 4000.0),
                    "waveform": ["sine", "square", "sawtooth"]},
    "nonstat_colored_noise": {"snr_db": (-5.0, 25.0), "slope_db_oct": (-6.0, 6.0),
                              "segment_ms": (200.0, 1000.0), "prob": (0.2, 0.7)},
    "nonstat_dc_component": {"amplitude": (0.01, 0.2),
                             "segment_ms": (200.0, 1000.0), "prob": (0.2, 0.7)},
    "nonstat_electricity_tone": {"snr_db": (-5.0, 25.0), "freq": [50.0, 60.0],
                                 "waveform": ["sine", "square", "sawtooth"],
                                 "segment_ms": (200.0, 1000.0), "prob": (0.2, 0.7)},
    "nonstat_random_tone": {"snr_db": (-5.0, 25.0), "freq": (100.0, 4000.0),
                            "waveform": ["sine", "square", "sawtooth"],
                            "segment_ms": (200.0, 1000.0), "prob": (0.2, 0.7)},
    "frame_shuffle": {"frame_ms": (20.0, 80.0), "prob": (0.2, 0.7)},
    "insert_attenuation": {"segment_ms": (20.0, 200.0), "prob": (0.1, 0.5),
                           "gain_db": (-30.0, -6.0)},
    "insert_noise": {"segment_ms": (20.0, 200.0), "prob": (0.1, 0.5),
                     "snr_db": (0.0, 15.0)},
    "perturb_amplitude": {"segment_ms": (50.0, 400.0), "prob": (0.3, 0.8),
                          "gain_db": (-8.0, 8.0)},
    "sample_duplicate": {"block_ms": (1.0, 20.0), "prob": (0.1, 0.4)},
    "silent_gap": {"gap_ms": (20.0, 200.0), "prob": (0.05, 0.3)},
    "telephone": {"low_hz": (250.0, 400.0), "high_hz": (3000.0, 3600.0),
                  "ratio": (1.5, 4.0)},
}


# -- sampling helpers -------------------------------------------------------


def _u(rng, bound) -> float:
    return float(rng.uniform(bound[0], bound[1]))


def _lu(rng, bound) -> float:
    return float(np.exp(rng.uniform(np.log(bound[0]), np.log(bound[1]))))


def _ui(rng, bound) -> int:
    return int(rng.integers(bound[0], bound[1] + 1))


def _pick(rng, options):
    return options[int(rng.integers(len(options)))]


# -- numeric helpers --------------------------------------------------------


def _rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(x)))) if x.size else 0.0


def _scaled_to_snr(reference: np.ndarray, noise: np.ndarray, snr_db: float) -> np.ndarray:
    """Scale noise so that 10 log10(E_ref / E_noise) == snr_db exactly."""
    r, n = _rms(reference), _rms(noise)
    if n == 0.0:
        return noise
    target = max(r, 1e-9) / (10.0 ** (snr_db / 20.0))
    return noise * (target / n)


def _segment_mask(n: int, seg: int, prob: float, rng) -> np.ndarray:
    """0/1 mask built from consecutive segments, each active with prob."""
    mask = np.zeros(n)
    for start in range(0, n, seg):
        if rng.uniform() < prob:
            mask[start : start + seg] = 1.0
    return mask


def _envelope(x: np.ndarray, rate: int, attack_ms: float, release_ms: float) -> np.ndarray:
    """One-pole peak follower with separate attack and release times."""
    ca = np.exp(-1.0 / (rate * attack_ms / 1000.0))
    cr = np.exp(-1.0 / (rate * release_ms / 1000.0))
    env = np.empty_like(x)
    level = 0.0
    ax = np.abs(x)
    for i in range(x.size):
        c = ca if ax[i] > level else cr
        level = c * level + (1.0 - c) * ax[i]
        env[i] = level
    return env


def _tone(waveform: str, freq: float, n: int, rate: int, phase: float) -> np.ndarray:
    arg = 2.0 * np.pi * freq * np.arange(n) / rate + phase
    if waveform == "sine":
        return np.sin(arg)
    if waveform == "square":
        return scipy.signal.square(arg)
    if waveform == "sawtooth":
        return scipy.signal.sawtooth(arg)
    raise ConfigError(f"unknown waveform {waveform!r}")


def _colored(n: int, rate: int, slope_db_oct: float, rng) -> np.ndarray:
    """Gaussian noise with a spectral tilt of slope_db_oct dB per octave."""
    spectrum = np.fft.rfft(rng.standard_normal(n))
    freqs = np.fft.rfftfreq(n, 1.0 / rate)
    shape = np.zeros_like(freqs)
    nonzero = freqs > 0
    shape[nonzero] = (freqs[nonzero] / 1000.0) ** (slope_db_oct / (20.0 * np.log10(2.0)))
    return np.fft.irfft(spectrum * shape, n)


def _spec_roundtrip(x: np.ndarray, rate: int, window: int):
    spec = stft(Signal(samples=x, sample_rate=rate), frame=window, hop=window // 4)
    return spec


def _from_spec(spec, data):
    return istft(replace(spec, data=data)).samples


# -- appliers ---------------------------------------------------------------


def _apply_band_pass(x, rate, p, rng, assets):
    b, a = biquad.band_pass(p["freq"], p["q"], rate)
    return biquad.apply_biquad(x, b, a)


def _apply_high_pass(x, rate, p, rng, assets):
    b, a = biquad.high_pass(p["freq"], p["q"], rate)
    return biquad.apply_biquad(x, b, a)


def _apply_low_pass(x, rate, p, rng, assets):
    b, a = biquad.low_pass(p["freq"], p["q"], rate)
    return biquad.apply_biquad(x, b, a)


def _apply_down_sample(x, rate, p, rng, assets):
    k = int(p["factor"])
    if k == 1:
        return x.copy()
    if p["method"] == "hold":
        return np.repeat(x[::k], k)[: x.size]
    down = resample(Signal(samples=x, sample_rate=rate), rate // k)
    up = resample(down, rate).samples
    if up.size < x.size:
        up = np.concatenate([up, np.zeros(x.size - up.size)])
    return up[: x.size]


def _apply_mu_law(x, rate, p, rng, assets):
    mu = float(p["mu"])
    levels = 2 ** int(p["bits"])
    peak = np.max(np.abs(x))
    if peak == 0.0:
        return x.copy()
    u = x / peak
    comp = np.sign(u) * np.log1p(mu * np.abs(u)) / np.log1p(mu)
    half = levels / 2.0
    q = np.round(comp * half) / half
    return np.sign(q) * (np.expm1(np.abs(q) * np.log1p(mu)) / mu) * peak


def _apply_plosive_boost(x, rate, p, rng, assets):
    b, a = biquad.low_shelf(p["freq"], p["gain_db"], rate)
    return biquad.apply_biquad(x, b, a)


def _apply_sibilance_boost(x, rate, p, rng, assets):
    b, a = biquad.high_shelf(p["freq"], p["gain_db"], rate)
    return biquad.apply_biquad(x, b, a)


def _apply_overdrive(x, rate, p, rng, assets):
    g, mix = p["gain"], p["mix"]
    return (1.0 - mix) * x + mix * np.tanh(g * x) / np.tanh(g)


def _apply_clip(x, rate, p, rng, assets):
    c = p["threshold"] * np.max(np.abs(x))
    return np.clip(x, -c, c) if c > 0 else x.copy()


def _apply_compressor(x, rate, p, rng, assets):
    env = _envelope(x, rate, p["attack_ms"], p["release_ms"])
    env_db = 20.0 * np.log10(np.maximum(env, 1e-6))
    over = np.maximum(env_db - p["threshold_db"], 0.0)
    gain_db = -over * (1.0 - 1.0 / p["ratio"])
    return x * 10.0 ** (gain_db / 20.0)


def _apply_destroy_levels(x, rate, p, rng, assets):
    y = x.copy()
    seg = max(1, int(p["segment_ms"] * rate / 1000.0))
    lo, hi = p["gain_db_lo"], p["gain_db_hi"]
    for start in range(0, x.size, seg):
        if rng.uniform() < p["prob"]:
            y[start : start + seg] *= 10.0 ** (rng.uniform(lo, hi) / 20.0)
    return y


def _apply_noise_gate(x, rate, p, rng, assets):
    env = _envelope(x, rate, p["attack_ms"], p["release_ms"])
    open_ = 20.0 * np.log10(np.maximum(env, 1e-6)) > p["threshold_db"]
    # smooth the binary gate with the same attack/release pole to avoid clicks
    gate = _envelope(open_.astype(np.float64), rate, p["attack_ms"], p["release_ms"])
    return x * gate


def _apply_simple_compressor(x, rate, p, rng, assets):
    peak = np.max(np.abs(x))
    if peak == 0.0:
        return x.copy()
    u = x / peak
    return np.sign(u) * np.abs(u) ** (1.0 / p["ratio"]) * peak


def _apply_simple_expander(x, rate, p, rng, assets):
    peak = np.max(np.abs(x))
    if peak == 0.0:
        return x.copy()
    u = x / peak
    return np.sign(u) * np.abs(u) ** p["ratio"] * peak


def _apply_tremolo(x, rate, p, rng, assets):
    phase = rng.uniform(0.0, 2.0 * np.pi)
    lfo = 0.5 * (1.0 + np.sin(2.0 * np.pi * p["rate_hz"] * np.arange(x.size) / rate + phase))
    return x * (1.0 - p["depth"] * lfo)


def _apply_band_reject(x, rate, p, rng, assets):
    b, a = biquad.notch(p["freq"], p["q"], rate)
    return biquad.apply_biquad(x, b, a)


def _apply_random_eq(x, rate, p, rng, assets):
    y = x.copy()
    lo_f, hi_f = p["freq_lo"], p["freq_hi"]
    for _ in range(int(p["n_bands"])):
        f0 = float(np.exp(rng.uniform(np.log(lo_f), np.log(hi_f))))
        gain = rng.uniform(p["gain_db_lo"], p["gain_db_hi"])
        q = rng.uniform(p["q_lo"], p["q_hi"])
        b, a = biquad.peaking(f0, q, gain, rate)
        y = biquad.apply_biquad(y, b, a)
    return y


def _apply_two_pole(x, rate, p, rng, assets):
    b, a = biquad.two_pole(p["freq"], p["radius"], rate)
    return biquad.apply_biquad(x, b, a)


def _apply_additive_noise(x, rate, p, rng, assets):
    pool = assets.get("noise_pool") or ()
    if not pool:
        raise ConfigError("additive_noise needs a non-empty noise_pool")
    noise = np.asarray(pool[int(rng.integers(len(pool)))], dtype=np.float64)
    if noise.size >= x.size:
        start = int(rng.integers(noise.size - x.size + 1))
        crop = noise[start : start + x.size]
    else:
        reps = int(np.ceil(x.size / noise.size))
        crop = np.tile(noise, reps)[: x.size]
    return x + _scaled_to_snr(x, crop, p["snr_db"])


def _apply_impulsive_noise(x, rate, p, rng, assets):
    n_bursts = rng.poisson(p["rate_hz"] * x.size / rate)
    if n_bursts == 0:
        return x.copy()
    burst_len = max(1, int(p["burst_ms"] * rate / 1000.0))
    track = np.zeros_like(x)
    for _ in range(n_bursts):
        start = int(rng.integers(max(x.size - burst_len, 1)))
        decay = np.exp(-5.0 * np.arange(burst_len) / burst_len)
        track[start : start + burst_len] += rng.standard_normal(burst_len) * decay
    return x + _scaled_to_snr(x, track, p["snr_db"])


def _apply_algorithmic_reverb(x, rate, p, rng, assets):
    delays_ms = (29.7, 37.1, 41.1, 43.7)
    wet = np.zeros_like(x)
    for d_ms in delays_ms:
        d = max(1, int(d_ms * rate / 1000.0))
        g = 10.0 ** (-3.0 * (d / rate) / p["t60"])
        a = np.zeros(d + 1)
        a[0], a[-1] = 1.0, -g
        wet += scipy.signal.lfilter([1.0], a, x)
    wet /= len(delays_ms)
    return (1.0 - p["wet"]) * x + p["wet"] * wet


def _apply_rir_convolution(x, rate, p, rng, assets):
    pool = assets.get("rir_pool") or ()
    if pool:
        ir = np.asarray(pool[int(rng.integers(len(pool)))], dtype=np.float64)
        ir = ir * rng.uniform(0.7, 1.0)  # light gain augmentation
    else:
        length = max(8, int(p["ir_ms"] * rate / 1000.0))
        t = np.arange(length) / rate
        tail = rng.standard_normal(length) * 10.0 ** (-3.0 * t / p["t60"])
        tail /= max(np.sqrt(np.sum(tail**2)), 1e-12)
        pre = int(p["predelay_ms"] * rate / 1000.0)
        ir = np.concatenate([np.zeros(pre), [1.0], p["wet"] * tail])
    return np.convolve(x, ir)


def _apply_short_delay(x, rate, p, rng, assets):
    d = max(1, int(p["delay_ms"] * rate / 1000.0))
    return np.concatenate([np.zeros(d), p["gain"] * x])


def _apply_griffin_lim(x, rate, p, rng, assets):
    spec = _spec_roundtrip(x, rate, int(p["window"]))
    iters = int(p["iterations"])
    if iters == 0:
        return _from_spec(spec, spec.data)
    mag = np.abs(spec.data)
    phase = rng.uniform(-np.pi, np.pi, size=mag.shape)
    data = mag * np.exp(1j * phase)
    for _ in range(iters):
        y = _from_spec(spec, data)
        est = _spec_roundtrip(y, rate, int(p["window"]))
        data = mag * np.exp(1j * np.angle(est.data))
    return _from_spec(spec, data)


def _apply_phase_randomization(x, rate, p, rng, assets):
    spec = _spec_roundtrip(x, rate, int(p["window"]))
    jitter = p["amount"] * rng.uniform(-np.pi, np.pi, size=spec.data.shape)
    return _from_spec(spec, spec.data * np.exp(1j * jitter))


def _apply_phase_shuffle(x, rate, p, rng, assets):
    spec = _spec_roundtrip(x, rate, int(p["window"]))
    mag = np.abs(spec.data)
    phase = np.angle(spec.data)
    for t in range(phase.shape[0]):
        if rng.uniform() < p["amount"]:
            partner = int(rng.integers(phase.shape[0]))
            phase[[t, partner]] = phase[[partner, t]]
    return _from_spec(spec, mag * np.exp(1j * phase))


def _apply_spectral_holes(x, rate, p, rng, assets):
    spec = _spec_roundtrip(x, rate, int(p["window"]))
    data = spec.data.copy()
    frames, bins_ = data.shape
    for _ in range(int(p["n_holes"])):
        dt = int(rng.integers(1, p["max_frames"] + 1))
        dk = int(rng.integers(1, p["max_bins"] + 1))
        t0 = int(rng.integers(max(frames - dt, 1)))
        k0 = int(rng.integers(max(bins_ - dk, 1)))
        data[t0 : t0 + dt, k0 : k0 + dk] = 0.0
    return _from_spec(spec, data)


def _apply_spectral_noise(x, rate, p, rng, assets):
    spec = _spec_roundtrip(x, rate, int(p["window"]))
    scale = p["amount"] * _rms(np.abs(spec.data).ravel())
    noise = (rng.standard_normal(spec.data.shape) + 1j * rng.standard_normal(spec.data.shape))
    return _from_spec(spec, spec.data + scale * noise / np.sqrt(2.0))


def _apply_colored_noise(x, rate, p, rng, assets):
    noise = _colored(x.size, rate, p["slope_db_oct"], rng)
    return x + _scaled_to_snr(x, noise, p["snr_db"])


def _apply_dc_component(x, rate, p, rng, assets):
    sign = 1.0 if rng.uniform() < 0.5 else -1.0
    return x + sign * p["amplitude"]


def _apply_tone_snr(x, rate, p, rng, assets):
    tone = _tone(p["waveform"], p["freq"], x.size, rate, rng.uniform(0.0, 2.0 * np.pi))
    return x + _scaled_to_snr(x, tone, p["snr_db"])


def _masked(apply_fn):
    """Non-stationary wrapper: the additive part is gated by a segment mask
    and rescaled so the SNR over the active support matches the target."""

    def wrapped(x, rate, p, rng, assets):
        seg = max(1, int(p["segment_ms"] * rate / 1000.0))
        mask = _segment_mask(x.size, seg, p["prob"], rng)
        full = apply_fn(x, rate, p, rng, assets)
        added = (full - x) * mask
        active = mask > 0
        if not np.any(active) or not np.any(added[active]):
            return x.copy()
        if "snr_db" in p:
            added[active] = _scaled_to_snr(x[active], added[active], p["snr_db"])
        return x + added

    return wrapped


def _apply_frame_shuffle(x, rate, p, rng, assets):
    y = x.copy()
    frame = max(1, int(p["frame_ms"] * rate / 1000.0))
    n_frames = x.size // frame
    for i in range(n_frames - 1):
        if rng.uniform() < p["prob"]:
            a, b = i * frame, (i + 1) * frame
            y[a:b], y[b : b + frame] = y[b : b + frame].copy(), y[a:b].copy()
    return y


def _apply_insert_attenuation(x, rate, p, rng, assets):
    seg = max(1, int(p["segment_ms"] * rate / 1000.0))
    mask = _segment_mask(x.size, seg, p["prob"], rng)
    gain = 10.0 ** (p["gain_db"] / 20.0)
    return x * np.where(mask > 0, gain, 1.0)


def _apply_insert_noise(x, rate, p, rng, assets):
    seg = max(1, int(p["segment_ms"] * rate / 1000.0))
    mask = _segment_mask(x.size, seg, p["prob"], rng)
    active = mask > 0
    if not np.any(active):
        return x.copy()
    noise = rng.standard_normal(x.size) * mask
    noise[active] = _scaled_to_snr(x[active], noise[active], p["snr_db"])
    return x + noise


def _apply_sample_duplicate(x, rate, p, rng, assets):
    y = x.copy()
    block = max(1, int(p["block_ms"] * rate / 1000.0))
    for start in range(0, x.size, block):
        if start + 2 * block <= x.size and rng.uniform() < p["prob"]:
            y[start + block : start + 2 * block] = y[start : start + block]
    return y


def _apply_silent_gap(x, rate, p, rng, assets):
    y = x.copy()
    gap = max(1, int(p["gap_ms"] * rate / 1000.0))
    for start in range(0, x.size, gap):
        if rng.uniform() < p["prob"]:
            y[start : start + gap] = 0.0
    return y


def _apply_telephone(x, rate, p, rng, assets):
    y = x
    for _ in range(2):
        b, a = biquad.high_pass(p["low_hz"], 1.0 / np.sqrt(2.0), rate)
        y = biquad.apply_biquad(y, b, a)
        b, a = biquad.low_pass(p["high_hz"], 1.0 / np.sqrt(2.0), rate)
        y = biquad.apply_biquad(y, b, a)
    return _apply_simple_compressor(y, rate, {"ratio": p["ratio"]}, rng, assets)


# -- samplers ---------------------------------------------------------------


def _s_freq_q(rng, b):
    return {"freq": _lu(rng, b["freq"]), "q": _u(rng, b["q"])}


def _s_down_sample(rng, b):
    return {"factor": _pick(rng, b["factor"]), "method": _pick(rng, b["method"])}


def _s_mu_law(rng, b):
    return {"bits": _ui(rng, b["bits"]), "mu": float(b["mu"])}


def _s_shelf(rng, b):
    return {"freq": _lu(rng, b["freq"]), "gain_db": _u(rng, b["gain_db"])}


def _s_overdrive(rng, b):
    return {"gain": _lu(rng, b["gain"]), "mix": _u(rng, b["mix"])}


def _s_clip(rng, b):
    return {"threshold": _u(rng, b["threshold"])}


def _s_compressor(rng, b):
    return {
        "threshold_db": _u(rng, b["threshold_db"]),
        "ratio": _u(rng, b["ratio"]),
        "attack_ms": _lu(rng, b["attack_ms"]),
        "release_ms": _lu(rng, b["release_ms"]),
    }


def _s_destroy_levels(rng, b):
    return {
        "segment_ms": _lu(rng, b["segment_ms"]),
        "prob": _u(rng, b["prob"]),
        "gain_db_lo": float(b["gain_db"][0]),
        "gain_db_hi": float(b["gain_db"][1]),
    }


def _s_noise_gate(rng, b):
    return {
        "threshold_db": _u(rng, b["threshold_db"]),
        "attack_ms": _lu(rng, b["attack_ms"]),
        "release_ms": _lu(rng, b["release_ms"]),
    }


def _s_ratio(rng, b):
    return {"ratio": _u(rng, b["ratio"])}


def _s_tremolo(rng, b):
    return {"rate_hz": _lu(rng, b["rate_hz"]), "depth": _u(rng, b["depth"])}


def _s_random_eq(rng, b):
    return {
        "n_bands": _ui(rng, b["n_bands"]),
        "freq_lo": float(b["freq"][0]),
        "freq_hi": float(b["freq"][1]),
        "gain_db_lo": float(b["gain_db"][0]),
        "gain_db_hi": float(b["gain_db"][1]),
        "q_lo": float(b["q"][0]),
        "q_hi": float(b["q"][1]),
    }


def _s_two_pole(rng, b):
    return {"freq": _lu(rng, b["freq"]), "radius": _u(rng, b["radius"])}


def _s_snr(rng, b):
    return {"snr_db": _u(rng, b["snr_db"])}


def _s_impulsive(rng, b):
    return {
        "snr_db": _u(rng, b["snr_db"]),
        "rate_hz": _lu(rng, b["rate_hz"]),
        "burst_ms": _lu(rng, b["burst_ms"]),
    }


def _s_algorithmic_reverb(rng, b):
    return {"t60": _lu(rng, b["t60"]), "wet": _u(rng, b["wet"])}


def _s_rir(rng, b):
    return {
        "t60": _lu(rng, b["t60"]),
        "ir_ms": _lu(rng, b["ir_ms"]),
        "predelay_ms": _u(rng, b["predelay_ms"]),
        "wet": _u(rng, b["wet"]),
    }


def _s_short_delay(rng, b):
    return {"delay_ms": _lu(rng, b["delay_ms"]), "gain": _u(rng, b["gain"])}


def _s_griffin_lim(rng, b):
    return {"window": _pick(rng, b["window"]), "iterations": _ui(rng, b["iterations"])}


def _s_window_amount(rng, b):
    return {"window": _pick(rng, b["window"]), "amount": _u(rng, b["amount"])}


def _s_spectral_holes(rng, b):
    return {
        "window": _pick(rng, b["window"]),
        "n_holes": _ui(rng, b["n_holes"]),
        "max_bins": int(b["max_bins"]),
        "max_frames": int(b["max_frames"]),
    }


def _s_colored(rng, b):
    return {"snr_db": _u(rng, b["snr_db"]), "slope_db_oct": _u(rng, b["slope_db_oct"])}


def _s_dc(rng, b):
    return {"amplitude": _lu(rng, b["amplitude"])}


def _s_electricity(rng, b):
    return {
        "snr_db": _u(rng, b["snr_db"]),
        "freq": float(_pick(rng, b["freq"])),
        "waveform": _pick(rng, b["waveform"]),
    }


def _s_random_tone(rng, b):
    return {
        "snr_db": _u(rng, b["snr_db"]),
        "freq": _lu(rng, b["freq"]),
        "waveform": _pick(rng, b["waveform"]),
    }


def _s_masked(base):
    def sample(rng, b):
        p = base(rng, b)
        p["segment_ms"] = _lu(rng, b["segment_ms"])
        p["prob"] = _u(rng, b["prob"])
        return p

    return sample


def _s_frame_shuffle(rng, b):
    return {"frame_ms": _lu(rng, b["frame_ms"]), "prob": _u(rng, b["prob"])}


def _s_insert_attenuation(rng, b):
    return {
        "segment_ms": _lu(rng, b["segment_ms"]),
        "prob": _u(rng, b["prob"]),
        "gain_db": _u(rng, b["gain_db"]),
    }


def _s_insert_noise(rng, b):
    return {
        "segment_ms": _lu(rng, b["segment_ms"]),
        "prob": _u(rng, b["prob"]),
        "snr_db": _u(rng, b["snr_db"]),
    }


def _s_sample_duplicate(rng, b):
    return {"block_ms": _lu(rng, b["block_ms"]), "prob": _u(rng, b["prob"])}


def _s_silent_gap(rng, b):
    return {"gap_ms": _lu(rng, b["gap_ms"]), "prob": _u(rng, b["prob"])}


def _s_telephone(rng, b):
    return {
        "low_hz": _lu(rng, b["low_hz"]),
        "high_hz": _lu(rng, b["high_hz"]),
        "ratio": _u(rng, b["ratio"]),
    }


# -- registry ---------------------------------------------------------------


@dataclass(frozen=True)
class Primitive:
    """One distortion type: selection weight, parameter sampler, applier."""

    name: str
    family: str
    weight: float
    sample: Callable
    apply: Callable
    introduces_delay: bool = False
    needs: str | None = None


PRIMITIVES: dict[str, Primitive] = {
    p.name: p
    for p in [
        Primitive("band_pass", "band_limiting", 5, _s_freq_q, _apply_band_pass),
        Primitive("high_pass", "band_limiting", 5, _s_freq_q, _apply_high_pass),
        Primitive("low_pass", "band_limiting", 20, _s_freq_q, _apply_low_pass),
        Primitive("down_sample", "band_limiting", 30, _s_down_sample, _apply_down_sample),
        Primitive("mu_law", "codec", 3, _s_mu_law, _apply_mu_law),
        Primitive("plosive_boost", "distortion", 10, _s_shelf, _apply_plosive_boost),
        Primitive("sibilance_boost", "distortion", 10, _s_shelf, _apply_sibilance_boost),
        Primitive("overdrive", "distortion", 5, _s_overdrive, _apply_overdrive),
        Primitive("clip", "distortion", 8, _s_clip, _apply_clip),
        Primitive("compressor", "loudness", 10, _s_compressor, _apply_compressor),
        Primitive("destroy_levels", "loudness", 20, _s_destroy_levels, _apply_destroy_levels),
        Primitive("noise_gate", "loudness", 10, _s_noise_gate, _apply_noise_gate),
        Primitive("simple_compressor", "loudness", 3, _s_ratio, _apply_simple_compressor),
        Primitive("simple_expander", "loudness", 2, _s_ratio, _apply_simple_expander),
        Primitive("tremolo", "loudness", 2, _s_tremolo, _apply_tremolo),
        Primitive("band_reject", "equalization", 5, _s_freq_q, _apply_band_reject),
        Primitive("random_eq", "equalization", 15, _s_random_eq, _apply_random_eq),
        Primitive("two_pole", "equalization", 10, _s_two_pole, _apply_two_pole),
        Primitive("additive_noise", "recorded_noise", 150, _s_snr, _apply_additive_noise,
                  needs="noise_pool"),
        Primitive("impulsive_noise", "recorded_noise", 30, _s_impulsive, _apply_impulsive_noise),
        Primitive("algorithmic_reverb", "reverb_delay", 30, _s_algorithmic_reverb,
                  _apply_algorithmic_reverb),
        Primitive("rir_convolution", "reverb_delay", 120, _s_rir, _apply_rir_convolution,
                  introduces_delay=True),
        Primitive("short_delay", "reverb_delay", 3, _s_short_delay, _apply_short_delay,
                  introduces_delay=True),
        Primitive("griffin_lim", "spectral", 3, _s_griffin_lim, _apply_griffin_lim),
        Primitive("phase_randomization", "spectral", 1, _s_window_amount,
                  _apply_phase_randomization),
        Primitive("phase_shuffle", "spectral", 1, _s_window_amount, _apply_phase_shuffle),
        Primitive("spectral_holes", "spectral", 1, _s_spectral_holes, _apply_spectral_holes),
        Primitive("spectral_noise", "spectral", 1, _s_window_amount, _apply_spectral_noise),
        Primitive("colored_noise", "synthetic_noise", 15, _s_colored, _apply_colored_noise),
        Primitive("dc_component", "synthetic_noise", 1, _s_dc, _apply_dc_component),
        Primitive("electricity_tone", "synthetic_noise", 6, _s_electricity, _apply_tone_snr),
        Primitive("nonstat_colored_noise", "synthetic_noise", 5, _s_masked(_s_colored),
                  _masked(_apply_colored_noise)),
        Primitive("nonstat_dc_component", "synthetic_noise", 1, _s_masked(_s_dc),
                  _masked(_apply_dc_component)),
        Primitive("nonstat_electricity_tone", "synthetic_noise", 3, _s_masked(_s_electricity),
                  _masked(_apply_tone_snr)),
        Primitive("nonstat_random_tone", "synthetic_noise", 1, _s_masked(_s_random_tone),
                  _masked(_apply_tone_snr)),
        Primitive("random_tone", "synthetic_noise", 2, _s_random_tone, _apply_tone_snr),
        Primitive("frame_shuffle", "transmission", 10, _s_frame_shuffle, _apply_frame_shuffle),
        Primitive("insert_attenuation", "transmission", 3, _s_insert_attenuation,
                  _apply_insert_attenuation),
        Primitive("insert_noise", "transmission", 5, _s_insert_noise, _apply_insert_noise),
        Primitive("perturb_amplitude", "transmission", 1, _s_destroy_levels,
                  _apply_destroy_levels),
        Primitive("sample_duplicate", "transmission", 2, _s_sample_duplicate,
                  _apply_sample_duplicate),
        Primitive("silent_gap", "transmission", 15, _s_silent_gap, _apply_silent_gap),
        Primitive("telephone", "transmission", 10, _s_telephone, _apply_telephone),
    ]
}
