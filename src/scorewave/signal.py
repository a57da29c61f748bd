"""Audio containers, WAV I/O, resampling, STFT, and feature front ends.

Everything here is deterministic plumbing for the enhancement pipeline:

* :class:`Signal` — mono waveform + sample rate (16 kHz default).
* WAV reader/writer — hand-rolled RIFF parsing, PCM16 and IEEE float32,
  mono only (multichannel readable with an explicit down-mix flag).
* :func:`resample` — windowed-sinc polyphase via scipy.
* :func:`stft` / :func:`istft` — centered frames, Hann analysis window,
  weighted-overlap-add synthesis dividing by the accumulated squared
  window, so the round trip is exact (to float precision) for any hop
  that fully covers the signal; configs whose window-power envelope has
  interior zeros are rejected as non-invertible.
* :func:`log_mel` — 80 Slaney-scale mel bands, frame 512 / hop 160 at
  16 kHz (a 100 Hz frame rate), natural log with a 1e-5 floor.
* :func:`loudness_vad` — per-frame RMS in dBFS plus a thresholded voice
  activity flag (-40 dBFS, 2-frame hysteresis).
* :func:`deltas` — first-order frame differences with edge replication
  (the convention the mixture-density target groups expect).

Feature matrices can be dumped/loaded as little-endian float32 with a
small self-describing JSON header.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from math import gcd

import numpy as np
import scipy.signal

from .errors import AudioError, ConfigError

DEFAULT_RATE = 16_000
MEL_BANDS = 80
MEL_FRAME = 512
MEL_HOP = 160
LOG_FLOOR = 1e-5
VAD_THRESHOLD_DB = -40.0
VAD_HYSTERESIS = 2
_FEAT_MAGIC = b"SWFEAT01"


@dataclass(frozen=True, eq=False)
class Signal:
    """Mono waveform: float64 samples (nominal range [-1, 1]) at a rate in Hz."""

    samples: np.ndarray
    sample_rate: int = DEFAULT_RATE

    def __post_init__(self):
        x = np.asarray(self.samples, dtype=np.float64)
        if x.ndim != 1:
            raise AudioError(f"samples must be 1-D mono, got shape {x.shape}")
        if not np.all(np.isfinite(x)):
            raise AudioError("samples must be finite")
        if not self.sample_rate > 0:
            raise AudioError(f"sample_rate must be > 0, got {self.sample_rate}")
        x = x.copy()
        x.flags.writeable = False
        object.__setattr__(self, "samples", x)
        object.__setattr__(self, "sample_rate", int(self.sample_rate))

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        """Length in seconds."""
        return self.samples.size / self.sample_rate


@dataclass(frozen=True, eq=False)
class Spectrogram:
    """Complex STFT frames x bins plus the config needed to invert it."""

    data: np.ndarray
    frame: int
    hop: int
    sample_rate: int
    n_samples: int

    @property
    def n_frames(self) -> int:
        return self.data.shape[0]

    @property
    def n_bins(self) -> int:
        return self.data.shape[1]

    def magnitude(self) -> np.ndarray:
        return np.abs(self.data)


@dataclass(frozen=True, eq=False)
class MelFeatures:
    """Log-mel matrix frames x bands with its frame rate in Hz."""

    data: np.ndarray
    frame_rate: float
    n_bands: int

    @property
    def n_frames(self) -> int:
        return self.data.shape[0]


# ---------------------------------------------------------------------------
# WAV I/O — minimal RIFF, PCM16 (format 1) and IEEE float32 (format 3), mono.


def write_wav(path, sig: Signal, encoding: str = "pcm16") -> None:
    """Write a canonical 44-byte-header RIFF/WAVE file.

    PCM16 samples are clipped to [-1, 1] and scaled by 32767 with
    round-half-away rounding, so the read-back error is at most half an
    LSB. float32 is written verbatim (bit-exact round trip up to the
    float64 -> float32 cast).
    """
    if encoding == "pcm16":
        fmt_code, bits = 1, 16
        clipped = np.clip(sig.samples, -1.0, 1.0)
        payload = (np.sign(clipped) * np.floor(np.abs(clipped) * 32767 + 0.5)).astype("<i2")
    elif encoding == "float32":
        fmt_code, bits = 3, 32
        payload = sig.samples.astype("<f4")
    else:
        raise AudioError(f"unsupported encoding {encoding!r} (pcm16 or float32)")
    raw = payload.tobytes()
    block_align = bits // 8
    header = b"".join(
        [
            b"RIFF",
            struct.pack("<I", 36 + len(raw)),
            b"WAVE",
            b"fmt ",
            struct.pack("<IHHIIHH", 16, fmt_code, 1, sig.sample_rate,
                        sig.sample_rate * block_align, block_align, bits),
            b"data",
            struct.pack("<I", len(raw)),
        ]
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(raw)


def read_wav(path, downmix: bool = False) -> Signal:
    """Read a RIFF/WAVE file (PCM16 or IEEE float32).

    Unknown chunks are skipped (with RIFF word padding). Multichannel
    input raises unless downmix=True, in which case channels are averaged.
    A data chunk cut short by the end of the file, or not a whole number
    of samples, raises AudioError.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 44 or blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise AudioError(f"{path}: not a RIFF/WAVE file")
    pos = 12
    fmt = None
    data = None
    while pos + 8 <= len(blob):
        cid = blob[pos : pos + 4]
        (size,) = struct.unpack("<I", blob[pos + 4 : pos + 8])
        body = blob[pos + 8 : pos + 8 + size]
        if cid == b"fmt ":
            if size < 16:
                raise AudioError(f"{path}: truncated fmt chunk")
            fmt = struct.unpack("<HHIIHH", body[:16])
        elif cid == b"data":
            if len(body) < size:
                raise AudioError(f"{path}: data chunk declares {size} bytes, "
                                 f"only {len(body)} present")
            data = body
        pos += 8 + size + (size & 1)
    if fmt is None or data is None:
        raise AudioError(f"{path}: missing fmt or data chunk")
    fmt_code, channels, rate, _, _, bits = fmt
    if channels < 1:
        raise AudioError(f"{path}: invalid channel count {channels}")
    if (fmt_code, bits) not in ((1, 16), (3, 32)):
        raise AudioError(f"{path}: unsupported encoding (format {fmt_code}, {bits}-bit)")
    if len(data) % (bits // 8):
        raise AudioError(f"{path}: data chunk of {len(data)} bytes is not a whole "
                         f"number of {bits}-bit samples")
    if fmt_code == 1:
        x = np.frombuffer(data, dtype="<i2").astype(np.float64) / 32767.0
    else:
        x = np.frombuffer(data, dtype="<f4").astype(np.float64)
    if channels > 1:
        if not downmix:
            raise AudioError(f"{path}: {channels} channels; pass downmix=True to average")
        x = x[: (x.size // channels) * channels].reshape(-1, channels).mean(axis=1)
    return Signal(samples=x, sample_rate=rate)


# ---------------------------------------------------------------------------
# Resampling.


def resample(sig: Signal, target_rate: int) -> Signal:
    """Polyphase windowed-sinc resampling to target_rate.

    The rate ratio is reduced to lowest terms; a Kaiser(12) anti-alias
    window keeps passband tones above 60 dB through a down/up round trip.
    Output length is ceil(n * target / source).
    """
    if not target_rate > 0:
        raise AudioError(f"target_rate must be > 0, got {target_rate}")
    target_rate = int(target_rate)
    if target_rate == sig.sample_rate:
        return sig
    g = gcd(target_rate, sig.sample_rate)
    up, down = target_rate // g, sig.sample_rate // g
    y = scipy.signal.resample_poly(sig.samples, up, down, window=("kaiser", 12.0))
    return Signal(samples=y, sample_rate=target_rate)


# ---------------------------------------------------------------------------
# STFT / inverse.


def _hann(frame: int) -> np.ndarray:
    # periodic Hann (the DFT-even variant that satisfies overlap-add sums)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(frame) / frame)


def stft(sig: Signal, frame: int = MEL_FRAME, hop: int = MEL_HOP) -> Spectrogram:
    """Centered Hann STFT: frames x (frame // 2 + 1) complex bins.

    The signal is zero-padded by frame // 2 on both sides, so frame t is
    centered on sample t * hop and every sample is covered by at least
    one window.
    """
    if hop < 1 or frame < 2 or hop > frame:
        raise ConfigError(f"need 1 <= hop <= frame, got frame={frame}, hop={hop}")
    x = sig.samples
    pad = frame // 2
    extra = (-(x.size + 2 * pad - frame)) % hop
    padded = np.concatenate([np.zeros(pad), x, np.zeros(pad + extra)])
    # frames are strided views into `padded`; the window product is the
    # only copy
    frames = np.lib.stride_tricks.sliding_window_view(padded, frame)[::hop] * _hann(frame)
    return Spectrogram(
        data=np.fft.rfft(frames, axis=1),
        frame=frame,
        hop=hop,
        sample_rate=sig.sample_rate,
        n_samples=x.size,
    )


def _overlap_add(frames: np.ndarray, hop: int) -> np.ndarray:
    """Sum frame t into samples [t * hop, t * hop + frame), at least frame +
    hop * (n_frames - 1) samples long. Frames are cut into hop-wide
    segments and segment j of every frame is added to output block t + j in
    one whole-array step, latest segment first, so each sample sums its
    frames in frame order: bit-identical to a per-frame loop."""
    n_frames, frame = frames.shape
    n_segments = -(-frame // hop)
    out = np.zeros((n_frames + n_segments - 1, hop))
    for j in reversed(range(n_segments)):
        seg = frames[:, j * hop : (j + 1) * hop]
        out[j : j + n_frames, : seg.shape[1]] += seg
    return out.ravel()


def istft(spec: Spectrogram) -> Signal:
    """Weighted-overlap-add inverse of :func:`stft`.

    Each frame is windowed again after the inverse FFT and the sum is
    divided by the accumulated squared window, which reconstructs the
    input exactly wherever that envelope is positive. A config whose
    envelope has (near-)zeros over the original-signal support cannot be
    inverted and is rejected.
    """
    frame, hop = spec.frame, spec.hop
    window = _hann(frame)
    frames = np.fft.irfft(spec.data, n=frame, axis=1) * window
    n_padded = frame + hop * (spec.n_frames - 1)
    out = _overlap_add(frames, hop)[:n_padded]
    wsum = _overlap_add(np.broadcast_to(window**2, frames.shape), hop)[:n_padded]
    pad = frame // 2
    support = wsum[pad : pad + spec.n_samples]
    if support.size and support.min() < 1e-8:
        raise ConfigError(
            f"frame={frame}, hop={hop} leaves gaps in the window-power envelope; not invertible"
        )
    x = out[pad : pad + spec.n_samples] / support
    return Signal(samples=x, sample_rate=spec.sample_rate)


# ---------------------------------------------------------------------------
# Mel front end.


def _hz_to_mel(f):
    """Slaney mel scale: linear below 1 kHz, logarithmic above."""
    f = np.asarray(f, dtype=np.float64)
    mel = f / (200.0 / 3.0)
    log_region = f >= 1000.0
    mel = np.where(log_region, 15.0 + np.log(np.maximum(f, 1e-12) / 1000.0) / (np.log(6.4) / 27.0), mel)
    return mel


def _mel_to_hz(m):
    m = np.asarray(m, dtype=np.float64)
    f = m * (200.0 / 3.0)
    log_region = m >= 15.0
    return np.where(log_region, 1000.0 * np.exp((m - 15.0) * (np.log(6.4) / 27.0)), f)


def mel_filterbank(
    n_bins: int,
    n_bands: int = MEL_BANDS,
    sample_rate: int = DEFAULT_RATE,
    fmin: float = 0.0,
    fmax: float | None = None,
) -> np.ndarray:
    """Triangular Slaney-scale filterbank, (n_bands, n_bins), area-normalized.

    Band centers are mel-uniform between fmin and fmax (default Nyquist);
    each triangle is scaled by 2 / bandwidth so the rows integrate to the
    same constant. The matrix is a pure function of its arguments.
    """
    if fmax is None:
        fmax = sample_rate / 2.0
    if not 0.0 <= fmin < fmax <= sample_rate / 2.0:
        raise ConfigError(f"need 0 <= fmin < fmax <= Nyquist, got {fmin}, {fmax}")
    edges = _mel_to_hz(np.linspace(_hz_to_mel(fmin), _hz_to_mel(fmax), n_bands + 2))
    freqs = np.linspace(0.0, sample_rate / 2.0, n_bins)
    fb = np.zeros((n_bands, n_bins))
    for b in range(n_bands):
        lo, mid, hi = edges[b], edges[b + 1], edges[b + 2]
        up = (freqs - lo) / max(mid - lo, 1e-12)
        down = (hi - freqs) / max(hi - mid, 1e-12)
        fb[b] = np.maximum(0.0, np.minimum(up, down)) * (2.0 / (hi - lo))
    return fb


def log_mel(
    sig: Signal,
    n_bands: int = MEL_BANDS,
    frame: int = MEL_FRAME,
    hop: int = MEL_HOP,
    floor: float = LOG_FLOOR,
    expected_rate: int = DEFAULT_RATE,
) -> MelFeatures:
    """Log mel-band energies: frames x n_bands at sample_rate / hop Hz.

    Power spectrum -> mel filterbank -> natural log with a floor. The
    defaults give the 100 Hz / 80-band front end. The input rate is
    checked against expected_rate so features cannot silently be computed
    at the wrong rate.
    """
    if sig.sample_rate != expected_rate:
        raise AudioError(
            f"expected {expected_rate} Hz input, got {sig.sample_rate} Hz (resample first)"
        )
    if sig.samples.size < frame:
        raise AudioError(f"signal shorter than one frame ({sig.samples.size} < {frame})")
    spec = stft(sig, frame=frame, hop=hop)
    power = np.abs(spec.data) ** 2
    fb = mel_filterbank(spec.n_bins, n_bands=n_bands, sample_rate=sig.sample_rate)
    mel = power @ fb.T
    return MelFeatures(
        data=np.log(np.maximum(mel, floor)),
        frame_rate=sig.sample_rate / hop,
        n_bands=n_bands,
    )


# ---------------------------------------------------------------------------
# Loudness / VAD.


def loudness_vad(
    sig: Signal,
    frame: int = MEL_FRAME,
    hop: int = MEL_HOP,
    threshold_db: float = VAD_THRESHOLD_DB,
    hysteresis: int = VAD_HYSTERESIS,
    expected_rate: int = DEFAULT_RATE,
) -> np.ndarray:
    """Per-frame loudness and voice activity, shape (frames, 2).

    Column 0 is RMS level in dBFS over rectangular (unwindowed) frames,
    floored at -120 dB. Column 1 is a {0, 1} activity flag driven by the
    threshold with hysteresis: the state flips only after `hysteresis`
    consecutive frames on the other side. Frames start inactive.
    """
    if sig.sample_rate != expected_rate:
        raise AudioError(
            f"expected {expected_rate} Hz input, got {sig.sample_rate} Hz (resample first)"
        )
    x = sig.samples
    if x.size < frame:
        raise AudioError(f"signal shorter than one frame ({x.size} < {frame})")
    squares = np.lib.stride_tricks.sliding_window_view(x, frame)[::hop] ** 2
    n_frames = squares.shape[0]
    rms = np.sqrt(np.mean(squares, axis=1))
    level = 20.0 * np.log10(np.maximum(rms, 1e-6))
    above = level > threshold_db
    vad = np.zeros(n_frames)
    active = False
    run = 0
    for t in range(n_frames):
        if above[t] != active:
            run += 1
            if run >= hysteresis:
                active = bool(above[t])
                run = 0
        else:
            run = 0
        vad[t] = 1.0 if active else 0.0
    return np.column_stack([level, vad])


def deltas(features: np.ndarray) -> np.ndarray:
    """First-order frame differences with the leading edge replicated.

    delta[t] = x[t] - x[t-1] with x[-1] taken as x[0], so the first delta
    row is zero and a constant feature track has zero deltas everywhere.
    """
    f = np.asarray(features, dtype=np.float64)
    if f.ndim == 1:
        f = f[:, None]
    if f.shape[0] == 0:
        raise ConfigError("cannot take deltas of an empty feature matrix")
    padded = np.concatenate([f[:1], f], axis=0)
    return np.diff(padded, axis=0)


def append_deltas(features: np.ndarray) -> np.ndarray:
    """Stack features with their deltas along the feature axis."""
    f = np.asarray(features, dtype=np.float64)
    if f.ndim == 1:
        f = f[:, None]
    return np.concatenate([f, deltas(f)], axis=1)


# ---------------------------------------------------------------------------
# Feature dumps: little-endian float32 + JSON header.


def write_features(path, array: np.ndarray, meta: dict | None = None) -> None:
    """Dump a feature matrix as <f4 with a self-describing JSON header."""
    arr = np.ascontiguousarray(array, dtype="<f4")
    header = {"shape": list(arr.shape), "dtype": "<f4", "meta": meta or {}}
    blob = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_FEAT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(arr.tobytes())


def read_features(path):
    """Load a feature dump; returns (float32 array, meta dict).

    A dump whose header is cut short or undecodable, or whose payload does
    not hold exactly the header's shape, raises :class:`AudioError`.
    """
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _FEAT_MAGIC:
            raise AudioError(f"{path}: not a feature dump (magic {magic!r})")
        try:
            (hlen,) = struct.unpack("<I", fh.read(4))
            header = json.loads(fh.read(hlen).decode("utf-8"))
            shape = tuple(header["shape"])
            if min(shape, default=0) < 0:
                raise ValueError(f"negative shape {shape}")
            return np.frombuffer(fh.read(), dtype="<f4").reshape(shape).copy(), header["meta"]
        except (struct.error, ValueError, KeyError, TypeError) as exc:
            raise AudioError(f"{path}: malformed feature dump: {exc!r}") from exc
