"""Audio containers, WAV I/O, resampling and the STFT.

Everything here is deterministic plumbing for the enhancement pipeline:

* :class:`Signal` — mono waveform + sample rate (16 kHz default).
* WAV reader/writer — hand-rolled RIFF parsing, PCM16 and IEEE float32,
  mono only (multichannel readable with an explicit down-mix flag).
* :func:`resample` — windowed-sinc polyphase via ``scipy.signal``, which
  it imports on its first call: importing ``scorewave`` loads no scipy
  module, and only the code that calls scipy (resampling here, filters,
  tones, convolution and alignment in :mod:`scorewave.distort`) pays the
  ~2 s import.
* :func:`stft` / :func:`istft` — centered frames, Hann analysis window,
  weighted-overlap-add synthesis dividing by the accumulated squared
  window, so the round trip is exact (to float precision) for any hop
  that fully covers the signal; configs whose window-power envelope has
  interior zeros are rejected as non-invertible. :class:`StftRoundTrip`
  repeats ``stft(istft(...))`` of one configuration, as Griffin-Lim does,
  on the same synthesis code with the envelope and buffers made once; it
  has no synthesis-only call, and the last synthesis goes through
  :func:`istft`, which gives the same bits.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import AudioError, ConfigError
from .files import replacing

DEFAULT_RATE = 16_000
STFT_FRAME = 512
STFT_HOP = 160


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
    with replacing(path) as fh:
        fh.write(header)
        fh.write(raw)


def read_wav(path, downmix: bool = False) -> Signal:
    """Read a RIFF/WAVE file (PCM16 or IEEE float32).

    Unknown chunks are skipped (with RIFF word padding). Multichannel
    input raises unless downmix=True, in which case channels are averaged.
    A fmt chunk whose block align is not channels * bits / 8, or whose byte
    rate is not rate * block align, raises AudioError, and so does a data
    chunk cut short by the end of the file or not a whole number of samples.
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
    fmt_code, channels, rate, byte_rate, block_align, bits = fmt
    if channels < 1:
        raise AudioError(f"{path}: invalid channel count {channels}")
    if (fmt_code, bits) not in ((1, 16), (3, 32)):
        raise AudioError(f"{path}: unsupported encoding (format {fmt_code}, {bits}-bit)")
    if block_align != channels * bits // 8 or byte_rate != rate * block_align:
        raise AudioError(f"{path}: inconsistent fmt chunk: {channels} channel(s) of {bits} bits "
                         f"at {rate} Hz, block align {block_align}, byte rate {byte_rate}")
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
    import scipy.signal

    g = gcd(target_rate, sig.sample_rate)
    up, down = target_rate // g, sig.sample_rate // g
    y = scipy.signal.resample_poly(sig.samples, up, down, window=("kaiser", 12.0))
    return Signal(samples=y, sample_rate=target_rate)


# ---------------------------------------------------------------------------
# STFT / inverse.


def _hann(frame: int) -> np.ndarray:
    # periodic Hann (the DFT-even variant that satisfies overlap-add sums)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(frame) / frame)


def stft(sig: Signal, frame: int = STFT_FRAME, hop: int = STFT_HOP) -> Spectrogram:
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


def _synthesis_envelope(frame: int, hop: int, n_frames: int,
                        n_samples: int) -> tuple[np.ndarray, np.ndarray]:
    """The Hann window and the accumulated squared window over the signal's
    support, which weighted overlap-add divides by. A config whose envelope
    has (near-)zeros there cannot be inverted and raises ConfigError."""
    window = _hann(frame)
    wsum = _overlap_add(np.broadcast_to(window**2, (n_frames, frame)), hop)
    pad = frame // 2
    support = wsum[pad : pad + n_samples]
    if support.size and support.min() < 1e-8:
        raise ConfigError(
            f"frame={frame}, hop={hop} leaves gaps in the window-power envelope; not invertible"
        )
    return window, support


def _synthesize(data: np.ndarray, hop: int, window: np.ndarray, support: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """Inverse FFT of each frame, windowed again, overlap-added and divided
    by the envelope `support` (into `out` when given)."""
    frame = window.size
    frames = np.fft.irfft(data, n=frame, axis=1)
    frames *= window
    pad = frame // 2
    return np.divide(_overlap_add(frames, hop)[pad : pad + support.size], support, out=out)


def istft(spec: Spectrogram) -> Signal:
    """Weighted-overlap-add inverse of :func:`stft`.

    Each frame is windowed again after the inverse FFT and the sum is
    divided by the accumulated squared window, which reconstructs the
    input exactly wherever that envelope is positive. A config whose
    envelope has (near-)zeros over the original-signal support cannot be
    inverted and is rejected.
    """
    window, support = _synthesis_envelope(spec.frame, spec.hop, spec.n_frames, spec.n_samples)
    return Signal(samples=_synthesize(spec.data, spec.hop, window, support),
                  sample_rate=spec.sample_rate)


class StftRoundTrip:
    """`stft(istft(...))` of one spectrogram's configuration, repeated, as
    an iterative phase reconstruction runs it: the window, the synthesis
    envelope and its invertibility check, and the zero-padded analysis
    buffer are made once. Each call synthesizes straight into the buffer's
    interior and returns the spectrum of its frames, the same bits as
    ``stft(istft(replace(spec, data=data))).data``."""

    def __init__(self, spec: Spectrogram):
        self._hop = spec.hop
        self._window, self._support = _synthesis_envelope(spec.frame, spec.hop, spec.n_frames,
                                                          spec.n_samples)
        pad = spec.frame // 2
        padded = np.zeros(spec.frame + spec.hop * (spec.n_frames - 1))
        self._interior = padded[pad : pad + spec.n_samples]
        self._frames = np.lib.stride_tricks.sliding_window_view(padded, spec.frame)[::spec.hop]

    def __call__(self, data: np.ndarray) -> np.ndarray:
        _synthesize(data, self._hop, self._window, self._support, out=self._interior)
        return np.fft.rfft(self._frames * self._window, axis=1)
