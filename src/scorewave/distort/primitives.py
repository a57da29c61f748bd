"""The distortion primitives: one registry entry per type.

Every type is declared once, in PRIMITIVES, with its family, its selection
weight, an applier

    apply(x, rate, params, rng, assets) -> y

and its parameter bounds, plain data fixed per type. One method,
`Primitive.sample`, turns the bounds into a parameter record, key by key in
the entry's order:

    int (lo, hi)      -> an integer in lo..hi inclusive
    float (lo, hi)    -> uniform
    Log(lo, hi)       -> log-uniform
    Span(lo, hi)      -> `<key>_lo` and `<key>_hi`, for appliers that make
                         their own per-segment or per-band draws
    list              -> one of the choices
    scalar            -> the constant itself

The applier's `rng` is a generator seeded from the spec's sub-seed (so
replaying a logged chain is bit-exact) and `assets` carries optional
user-supplied material (noise recordings, room impulse responses).

Appliers return float64 arrays; most preserve length, the delaying ones
(short delay, impulse-response convolution) are flagged so the chain
runner knows to re-align against the clean reference afterwards.

Types that share a computation share its code. The five spectral types are
declared as edits of the STFT frames, `edit(spec, params, rng) -> frames`,
which `_spectral` wraps in the STFT round trip; `mu_law`,
`simple_compressor` and `simple_expander` are shapers of the peak-normalised
input, `shape(u, params)`, which `_per_peak` scales to peak 1 and back.

Frequency bounds are in Hz whatever the input's rate, so below 14.4 kHz a
filter can be drawn at or above the Nyquist frequency. There it has no band
of the input to shape, and no section is designed: `low_pass`,
`sibilance_boost`, `band_reject`, `two_pole` and each such `random_eq` band
leave the input unchanged (`random_eq` still draws the skipped band's
values, so later bands are the same); `high_pass` and `band_pass`, whose
pass band lies above the input's band, return silence; `plosive_boost`,
whose shelf then covers the whole band, applies its gain to the whole
input; `telephone` combines its high and low pass by the same rules.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from ..errors import ConfigError
from ..signal import Signal, StftRoundTrip, istft, resample, stft
from . import biquad


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
    """One-pole peak follower with separate attack and release times.

    The recursion is inherently serial, so it runs over Python floats (a
    memoryview of |x|, overwritten in place with the envelope), which is
    several times cheaper than indexing numpy scalars."""
    ca = float(np.exp(-1.0 / (rate * attack_ms / 1000.0)))
    cr = float(np.exp(-1.0 / (rate * release_ms / 1000.0)))
    ga, gr = 1.0 - ca, 1.0 - cr
    env = np.abs(x)
    view = memoryview(env)
    level = 0.0
    for i, a in enumerate(view):
        if a > level:
            level = ca * level + ga * a
        else:
            level = cr * level + gr * a
        view[i] = level
    return env


def _gate_envelope(gate: np.ndarray, rate: int, attack_ms: float, release_ms: float) -> np.ndarray:
    """`_envelope` of a 0/1 gate, the same bits, by one `lfilter` per run of
    equal values: there the loop keeps one pole c (attack on an open run),
    so it is the filter (1 - c) / (1 - c z^-1) started from c * level. An
    open run's level never passes 1.0, where both poles hold it, since
    c + (1 - c) rounds to 1.0; a closed run's level never falls below 0."""
    from scipy.signal import lfilter

    env = np.empty(gate.size)
    starts = np.flatnonzero(np.diff(gate, prepend=np.nan)).tolist()
    level = 0.0
    for start, stop in zip(starts, starts[1:] + [gate.size]):
        ms = attack_ms if gate[start] else release_ms
        c = float(np.exp(-1.0 / (rate * ms / 1000.0)))
        env[start:stop] = lfilter([1.0 - c], [1.0, -c], gate[start:stop], zi=[c * level])[0]
        level = float(env[stop - 1])
    return env


def _tone(waveform: str, freq: float, n: int, rate: int, phase: float) -> np.ndarray:
    import scipy.signal

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


# -- appliers ---------------------------------------------------------------


def _unchanged(x, p):
    return x


def _silence(x, p):
    return np.zeros_like(x)


def _shelf_gain(x, p):
    return x * 10.0 ** (p["gain_db"] / 20.0)


def _biquad(design, *keys, above_nyquist=_unchanged):
    """Applier for one biquad section: design(*params[keys], rate).

    The first key is the design frequency. At or above the Nyquist frequency
    of ``rate`` the section has no band of the input to shape, and the
    applier returns ``above_nyquist(x, params)`` instead: the input itself
    unless the type says otherwise (see PRIMITIVES).
    """

    def apply(x, rate, p, rng, assets):
        if p[keys[0]] >= rate / 2.0:
            return above_nyquist(x, p)
        import scipy.signal

        b, a = design(*(p[key] for key in keys), rate)
        return scipy.signal.lfilter(b, a, x)

    return apply


_low_pass = _biquad(biquad.low_pass, "freq", "q")
_high_pass = _biquad(biquad.high_pass, "freq", "q", above_nyquist=_silence)


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


def _per_peak(shape):
    """Applier scaling x to peak 1, applying shape(u, params) and scaling
    back by the peak; a silent input is returned as a copy."""

    def apply(x, rate, p, rng, assets):
        peak = np.max(np.abs(x))
        if peak == 0.0:
            return x.copy()
        return shape(x / peak, p) * peak

    return apply


def _mu_law(u, p):
    mu = float(p["mu"])
    half = 2 ** int(p["bits"]) / 2.0
    comp = np.sign(u) * np.log1p(mu * np.abs(u)) / np.log1p(mu)
    q = np.round(comp * half) / half
    return np.sign(q) * (np.expm1(np.abs(q) * np.log1p(mu)) / mu)


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
    gate = _gate_envelope(open_.astype(np.float64), rate, p["attack_ms"], p["release_ms"])
    return x * gate


_apply_simple_compressor = _per_peak(lambda u, p: np.sign(u) * np.abs(u) ** (1.0 / p["ratio"]))
_apply_simple_expander = _per_peak(lambda u, p: np.sign(u) * np.abs(u) ** p["ratio"])


def _apply_tremolo(x, rate, p, rng, assets):
    phase = rng.uniform(0.0, 2.0 * np.pi)
    lfo = 0.5 * (1.0 + np.sin(2.0 * np.pi * p["rate_hz"] * np.arange(x.size) / rate + phase))
    return x * (1.0 - p["depth"] * lfo)


def _apply_random_eq(x, rate, p, rng, assets):
    import scipy.signal

    y = x.copy()
    lo_f, hi_f = p["freq_lo"], p["freq_hi"]
    for _ in range(int(p["n_bands"])):
        f0 = float(np.exp(rng.uniform(np.log(lo_f), np.log(hi_f))))
        gain = rng.uniform(p["gain_db_lo"], p["gain_db_hi"])
        q = rng.uniform(p["q_lo"], p["q_hi"])
        if f0 < rate / 2.0:  # a band at or above Nyquist has nothing to shape
            b, a = biquad.peaking(f0, q, gain, rate)
            y = scipy.signal.lfilter(b, a, y)
    return y


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


def _comb(x: np.ndarray, d: int, g: float) -> np.ndarray:
    """Feedback comb y[n] = x[n] + g * y[n - d], one delay-wide block at a
    time: each block depends only on the block before it."""
    y = x.copy()
    for start in range(d, y.size, d):
        y[start : start + d] += g * y[start - d : min(start, y.size - d)]
    return y


def _apply_algorithmic_reverb(x, rate, p, rng, assets):
    delays_ms = (29.7, 37.1, 41.1, 43.7)
    wet = np.zeros_like(x)
    for d_ms in delays_ms:
        d = max(1, int(d_ms * rate / 1000.0))
        wet += _comb(x, d, 10.0 ** (-3.0 * (d / rate) / p["t60"]))
    wet /= len(delays_ms)
    return (1.0 - p["wet"]) * x + p["wet"] * wet


def _apply_rir_convolution(x, rate, p, rng, assets):
    import scipy.signal

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
    return scipy.signal.fftconvolve(x, ir)


def _apply_short_delay(x, rate, p, rng, assets):
    d = max(1, int(p["delay_ms"] * rate / 1000.0))
    return np.concatenate([np.zeros(d), p["gain"] * x])


def _spectral(edit):
    """Applier for a spectral type: ``edit(spec, params, rng)`` -> frames on
    the STFT at the drawn window and hop window // 4, then the inverse STFT,
    both through this module's names, looked up at call time."""

    def apply(x, rate, p, rng, assets):
        window = int(p["window"])
        spec = stft(Signal(samples=x, sample_rate=rate), frame=window, hop=window // 4)
        return istft(replace(spec, data=edit(spec, p, rng))).samples

    return apply


def _griffin_lim(spec, p, rng):
    iters = int(p["iterations"])
    if iters == 0:
        return spec.data
    mag = np.abs(spec.data)
    phase = rng.uniform(-np.pi, np.pi, size=mag.shape)
    data = np.empty(mag.shape, dtype=np.complex128)
    np.cos(phase, out=data.real)
    np.sin(phase, out=data.imag)
    data *= mag
    roundtrip = StftRoundTrip(spec)
    for _ in range(iters):
        data = roundtrip(data)
        # keep mag, take the estimate's phase: z * (mag / |z|), and mag where
        # z == 0, in place on the fresh estimate
        norm = np.abs(data)
        if not norm.all():
            silent = norm == 0.0
            data[silent], norm[silent] = 1.0, 1.0
        data *= np.divide(mag, norm, out=norm)
    return data


def _phase_randomization(spec, p, rng):
    jitter = p["amount"] * rng.uniform(-np.pi, np.pi, size=spec.data.shape)
    return spec.data * np.exp(1j * jitter)


def _phase_shuffle(spec, p, rng):
    mag = np.abs(spec.data)
    phase = np.angle(spec.data)
    for t in range(phase.shape[0]):
        if rng.uniform() < p["amount"]:
            partner = int(rng.integers(phase.shape[0]))
            phase[[t, partner]] = phase[[partner, t]]
    return mag * np.exp(1j * phase)


def _spectral_holes(spec, p, rng):
    data = spec.data.copy()
    frames, bins_ = data.shape
    for _ in range(int(p["n_holes"])):
        dt = int(rng.integers(1, p["max_frames"] + 1))
        dk = int(rng.integers(1, p["max_bins"] + 1))
        t0 = int(rng.integers(max(frames - dt, 1)))
        k0 = int(rng.integers(max(bins_ - dk, 1)))
        data[t0 : t0 + dt, k0 : k0 + dk] = 0.0
    return data


def _spectral_noise(spec, p, rng):
    scale = p["amount"] * _rms(np.abs(spec.data).ravel())
    noise = (rng.standard_normal(spec.data.shape) + 1j * rng.standard_normal(spec.data.shape))
    return spec.data + scale * noise / np.sqrt(2.0)


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
    gap = max(1, int(p["gap_ms"] * rate / 1000.0))
    # where, not a multiply: x * 0 would write -0.0 for negative samples
    return np.where(_segment_mask(x.size, gap, p["prob"], rng) > 0, 0.0, x)


def _apply_telephone(x, rate, p, rng, assets):
    q = 1.0 / np.sqrt(2.0)
    y = x
    for _ in range(2):
        y = _high_pass(y, rate, {"freq": p["low_hz"], "q": q}, rng, assets)
        y = _low_pass(y, rate, {"freq": p["high_hz"], "q": q}, rng, assets)
    return _apply_simple_compressor(y, rate, {"ratio": p["ratio"]}, rng, assets)


# -- registry ---------------------------------------------------------------




class Log(NamedTuple):
    """A float range drawn log-uniformly."""

    lo: float
    hi: float


class Span(NamedTuple):
    """A float range passed to the applier as ``<key>_lo``/``<key>_hi``, for
    appliers that draw their own values per segment or per band."""

    lo: float
    hi: float


@dataclass(frozen=True)
class Primitive:
    """One distortion type: family, selection weight, applier, and the
    bounds its parameters are drawn from, in draw (and log) order. Whether
    a range is log-uniform is per type, not per key name: ``overdrive.gain``
    is a Log range but ``short_delay.gain`` is not."""

    name: str
    family: str
    weight: float
    apply: Callable
    bounds: dict
    introduces_delay: bool = False
    needs: str | None = None

    def sample(self, rng) -> dict:
        """One parameter record drawn from ``bounds``, key by key in order
        (see the module docstring)."""
        params = {}
        for key, bound in self.bounds.items():
            if isinstance(bound, list):
                params[key] = bound[int(rng.integers(len(bound)))]
            elif isinstance(bound, Span):
                params[f"{key}_lo"], params[f"{key}_hi"] = float(bound.lo), float(bound.hi)
            elif isinstance(bound, Log):
                params[key] = float(np.exp(rng.uniform(np.log(bound.lo), np.log(bound.hi))))
            elif not isinstance(bound, tuple):
                params[key] = bound
            elif all(isinstance(v, int) for v in bound):
                params[key] = int(rng.integers(bound[0], bound[1] + 1))
            else:
                params[key] = float(rng.uniform(bound[0], bound[1]))
        return params


_WINDOW = [256, 512, 1024]
_WAVEFORM = ["sine", "square", "sawtooth"]

PRIMITIVES: dict[str, Primitive] = {
    p.name: p
    for p in [
        Primitive("band_pass", "band_limiting", 5,
                  _biquad(biquad.band_pass, "freq", "q", above_nyquist=_silence),
                  {"freq": Log(300.0, 3000.0), "q": (0.5, 5.0)}),
        Primitive("high_pass", "band_limiting", 5, _high_pass,
                  {"freq": Log(100.0, 2000.0), "q": (0.5, 5.0)}),
        Primitive("low_pass", "band_limiting", 20, _low_pass,
                  {"freq": Log(800.0, 7200.0), "q": (0.5, 5.0)}),
        Primitive("down_sample", "band_limiting", 30, _apply_down_sample,
                  {"factor": [2, 4, 8], "method": ["hold", "poly"]}),
        Primitive("mu_law", "codec", 3, _per_peak(_mu_law), {"bits": (4, 8), "mu": 255.0}),
        Primitive("plosive_boost", "distortion", 10,
                  _biquad(biquad.low_shelf, "freq", "gain_db", above_nyquist=_shelf_gain),
                  {"freq": Log(80.0, 300.0), "gain_db": (6.0, 18.0)}),
        Primitive("sibilance_boost", "distortion", 10,
                  _biquad(biquad.high_shelf, "freq", "gain_db"),
                  {"freq": Log(4000.0, 7500.0), "gain_db": (6.0, 18.0)}),
        Primitive("overdrive", "distortion", 5, _apply_overdrive,
                  {"gain": Log(2.0, 20.0), "mix": (0.5, 1.0)}),
        Primitive("clip", "distortion", 8, _apply_clip, {"threshold": (0.1, 0.9)}),
        Primitive("compressor", "loudness", 10, _apply_compressor,
                  {"threshold_db": (-40.0, -10.0), "ratio": (2.0, 10.0),
                   "attack_ms": Log(1.0, 10.0), "release_ms": Log(50.0, 300.0)}),
        Primitive("destroy_levels", "loudness", 20, _apply_destroy_levels,
                  {"segment_ms": Log(100.0, 1000.0), "prob": (0.3, 0.8),
                   "gain_db": Span(-35.0, -5.0)}),
        Primitive("noise_gate", "loudness", 10, _apply_noise_gate,
                  {"threshold_db": (-60.0, -30.0), "attack_ms": Log(1.0, 10.0),
                   "release_ms": Log(20.0, 100.0)}),
        Primitive("simple_compressor", "loudness", 3, _apply_simple_compressor,
                  {"ratio": (1.5, 4.0)}),
        Primitive("simple_expander", "loudness", 2, _apply_simple_expander,
                  {"ratio": (1.2, 3.0)}),
        Primitive("tremolo", "loudness", 2, _apply_tremolo,
                  {"rate_hz": Log(0.5, 8.0), "depth": (0.3, 0.9)}),
        Primitive("band_reject", "equalization", 5, _biquad(biquad.notch, "freq", "q"),
                  {"freq": Log(300.0, 4000.0), "q": (0.5, 5.0)}),
        Primitive("random_eq", "equalization", 15, _apply_random_eq,
                  {"n_bands": (3, 10), "freq": Span(100.0, 7000.0),
                   "gain_db": Span(-12.0, 12.0), "q": Span(0.5, 5.0)}),
        Primitive("two_pole", "equalization", 10, _biquad(biquad.two_pole, "freq", "radius"),
                  {"freq": Log(300.0, 4000.0), "radius": (0.9, 0.99)}),
        Primitive("additive_noise", "recorded_noise", 150, _apply_additive_noise,
                  {"snr_db": (-5.0, 25.0)}, needs="noise_pool"),
        Primitive("impulsive_noise", "recorded_noise", 30, _apply_impulsive_noise,
                  {"snr_db": (-5.0, 25.0), "rate_hz": Log(0.5, 5.0),
                   "burst_ms": Log(5.0, 50.0)}),
        Primitive("algorithmic_reverb", "reverb_delay", 30, _apply_algorithmic_reverb,
                  {"t60": Log(0.2, 1.5), "wet": (0.2, 0.8)}),
        Primitive("rir_convolution", "reverb_delay", 120, _apply_rir_convolution,
                  {"t60": Log(0.15, 1.2), "ir_ms": Log(100.0, 600.0),
                   "predelay_ms": (0.0, 20.0), "wet": (0.3, 1.0)}, introduces_delay=True),
        Primitive("short_delay", "reverb_delay", 3, _apply_short_delay,
                  {"delay_ms": Log(0.5, 20.0), "gain": (0.7, 1.0)}, introduces_delay=True),
        Primitive("griffin_lim", "spectral", 3, _spectral(_griffin_lim),
                  {"window": _WINDOW, "iterations": (5, 30)}),
        Primitive("phase_randomization", "spectral", 1, _spectral(_phase_randomization),
                  {"window": _WINDOW, "amount": (0.3, 1.0)}),
        Primitive("phase_shuffle", "spectral", 1, _spectral(_phase_shuffle),
                  {"window": _WINDOW, "amount": (0.3, 1.0)}),
        Primitive("spectral_holes", "spectral", 1, _spectral(_spectral_holes),
                  {"window": _WINDOW, "n_holes": (3, 20), "max_bins": 40, "max_frames": 20}),
        Primitive("spectral_noise", "spectral", 1, _spectral(_spectral_noise),
                  {"window": _WINDOW, "amount": (0.05, 0.5)}),
        Primitive("colored_noise", "synthetic_noise", 15, _apply_colored_noise,
                  {"snr_db": (-5.0, 25.0), "slope_db_oct": (-6.0, 6.0)}),
        Primitive("dc_component", "synthetic_noise", 1, _apply_dc_component,
                  {"amplitude": Log(0.01, 0.2)}),
        Primitive("electricity_tone", "synthetic_noise", 6, _apply_tone_snr,
                  {"snr_db": (-5.0, 25.0), "freq": [50.0, 60.0], "waveform": _WAVEFORM}),
        Primitive("nonstat_colored_noise", "synthetic_noise", 5, _masked(_apply_colored_noise),
                  {"snr_db": (-5.0, 25.0), "slope_db_oct": (-6.0, 6.0),
                   "segment_ms": Log(200.0, 1000.0), "prob": (0.2, 0.7)}),
        Primitive("nonstat_dc_component", "synthetic_noise", 1, _masked(_apply_dc_component),
                  {"amplitude": Log(0.01, 0.2), "segment_ms": Log(200.0, 1000.0),
                   "prob": (0.2, 0.7)}),
        Primitive("nonstat_electricity_tone", "synthetic_noise", 3, _masked(_apply_tone_snr),
                  {"snr_db": (-5.0, 25.0), "freq": [50.0, 60.0], "waveform": _WAVEFORM,
                   "segment_ms": Log(200.0, 1000.0), "prob": (0.2, 0.7)}),
        Primitive("nonstat_random_tone", "synthetic_noise", 1, _masked(_apply_tone_snr),
                  {"snr_db": (-5.0, 25.0), "freq": Log(100.0, 4000.0), "waveform": _WAVEFORM,
                   "segment_ms": Log(200.0, 1000.0), "prob": (0.2, 0.7)}),
        Primitive("random_tone", "synthetic_noise", 2, _apply_tone_snr,
                  {"snr_db": (-5.0, 25.0), "freq": Log(100.0, 4000.0), "waveform": _WAVEFORM}),
        Primitive("frame_shuffle", "transmission", 10, _apply_frame_shuffle,
                  {"frame_ms": Log(20.0, 80.0), "prob": (0.2, 0.7)}),
        Primitive("insert_attenuation", "transmission", 3, _apply_insert_attenuation,
                  {"segment_ms": Log(20.0, 200.0), "prob": (0.1, 0.5),
                   "gain_db": (-30.0, -6.0)}),
        Primitive("insert_noise", "transmission", 5, _apply_insert_noise,
                  {"segment_ms": Log(20.0, 200.0), "prob": (0.1, 0.5), "snr_db": (0.0, 15.0)}),
        Primitive("perturb_amplitude", "transmission", 1, _apply_destroy_levels,
                  {"segment_ms": Log(50.0, 400.0), "prob": (0.3, 0.8),
                   "gain_db": Span(-8.0, 8.0)}),
        Primitive("sample_duplicate", "transmission", 2, _apply_sample_duplicate,
                  {"block_ms": Log(1.0, 20.0), "prob": (0.1, 0.4)}),
        Primitive("silent_gap", "transmission", 15, _apply_silent_gap,
                  {"gap_ms": Log(20.0, 200.0), "prob": (0.05, 0.3)}),
        Primitive("telephone", "transmission", 10, _apply_telephone,
                  {"low_hz": Log(250.0, 400.0), "high_hz": Log(3000.0, 3600.0),
                   "ratio": (1.5, 4.0)}),
    ]
}
