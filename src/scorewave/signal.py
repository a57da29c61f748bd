"""Audio containers, WAV I/O, resampling and the STFT.

Everything here is deterministic plumbing for the enhancement pipeline:

* :class:`Signal` — mono waveform + sample rate (16 kHz default).
* WAV reader/writer — hand-rolled RIFF parsing, PCM16 and IEEE float32,
  mono only (multichannel readable with an explicit down-mix flag).
* :func:`resample` — polyphase FIR resampling by the reduced ratio
  up/down: a Kaiser(12) windowed-sinc low-pass of 20 * max(up, down) + 1
  taps, applied to the zero-stuffed input and kept every down-th output.
  It is ``scipy.signal.resample_poly(x, up, down, window=("kaiser", 12.0))``
  bit for bit, computed in numpy with the same float64 operations in the
  same order, so resampling loads no scipy module; only the filters, tones,
  convolution and alignment of :mod:`scorewave.distort` import scipy.
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

import math
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
    float64 -> float32 cast). A rate or size the header's 32-bit fields
    cannot hold raises AudioError before the file is opened.
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
    if max(sig.sample_rate * block_align, 36 + len(raw)) > 0xFFFFFFFF:  # rate <= byte rate
        raise AudioError(f"a {encoding} WAV header cannot hold {len(raw)} data bytes at "
                         f"{sig.sample_rate} Hz")
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
# Resampling: scipy.signal.resample_poly with a Kaiser(12) window, rebuilt in
# numpy with the same float64 operations in the same order.

# Cephes' Chebyshev coefficients (i0.c), which scipy.special.i0 evaluates:
# exp(-x) I0(x) over [0, 8] and exp(-x) sqrt(x) I0(x) above 8.
_I0_A = (
    -4.4153416464793395e-18, 3.3307945188222384e-17, -2.431279846547955e-16,
    1.715391285555133e-15, -1.1685332877993451e-14, 7.676185498604936e-14,
    -4.856446783111929e-13, 2.95505266312964e-12, -1.726826291441556e-11,
    9.675809035373237e-11, -5.189795601635263e-10, 2.6598237246823866e-09,
    -1.300025009986248e-08, 6.046995022541919e-08, -2.670793853940612e-07,
    1.1173875391201037e-06, -4.4167383584587505e-06, 1.6448448070728896e-05,
    -5.754195010082104e-05, 0.00018850288509584165, -0.0005763755745385824,
    0.0016394756169413357, -0.004324309995050576, 0.010546460394594998, -0.02373741480589947,
    0.04930528423967071, -0.09490109704804764, 0.17162090152220877, -0.3046826723431984,
    0.6767952744094761,
)
_I0_B = (
    -7.233180487874754e-18, -4.830504485944182e-18, 4.46562142029676e-17,
    3.461222867697461e-17, -2.8276239805165836e-16, -3.425485619677219e-16,
    1.7725601330565263e-15, 3.8116806693526224e-15, -9.554846698828307e-15,
    -4.150569347287222e-14, 1.54008621752141e-14, 3.8527783827421426e-13,
    7.180124451383666e-13, -1.7941785315068062e-12, -1.3215811840447713e-11,
    -3.1499165279632416e-11, 1.1889147107846439e-11, 4.94060238822497e-10,
    3.3962320257083865e-09, 2.266668990498178e-08, 2.0489185894690638e-07,
    2.8913705208347567e-06, 6.889758346916825e-05, 0.0033691164782556943, 0.8044904110141088,
)
# Products per step of the polyphase loops (1 MB, held in L2) and the widest
# step in output columns. numpy copies a broadcast operand into its ufunc
# buffer (8,192 elements by default) when rows are shorter than the buffer,
# which tripled the cost per element of multiplying a block of inputs by its
# column of taps, so the loops run with the buffer no longer than a block.
_RESAMPLE_STEP = 1 << 17
_RESAMPLE_COLUMNS = 2048
# Ratios with at most this many output rows (up) run row by row on strided
# views; the others gather many short rows per step. On 10 s clips the gather
# took about 2x as long at 2:1 and 1:3, and rows one by one about 6x as long
# at 11025:2756.
_RESAMPLE_FEW_ROWS = 8


def _chbevl(t: np.ndarray, coefs) -> np.ndarray:
    """Cephes' Clenshaw recursion for a Chebyshev series, elementwise."""
    b0, b1 = coefs[0], 0.0
    for c in coefs[1:]:
        b0, b1, b2 = t * b0 - b1 + c, b0, b1
    return 0.5 * (b0 - b2)


def _i0(x: np.ndarray) -> np.ndarray:
    """Modified Bessel function I0 of nonnegative x as Cephes computes it,
    with libm's exp (math.exp): the bits of scipy.special.i0, which numpy's
    i0 (its own exp) misses in the last place."""
    e = np.fromiter(map(math.exp, x.tolist()), np.float64, x.size)
    small = x <= 8.0
    big = x[~small]
    out = np.empty_like(x)
    out[small] = e[small] * _chbevl(x[small] / 2.0 - 2.0, _I0_A)
    out[~small] = e[~small] * _chbevl(32.0 / big - 2.0, _I0_B) / np.sqrt(big)
    return out


@lru_cache(maxsize=16)
def _resample_plan(up: int, down: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The filter of resample_poly(x, up, down, window=("kaiser", 12.0)) laid
    out over the (up, width) output grid, where row b holds outputs b, b + up,
    b + 2 up, ... Row b's tap j (of Q, in input order) weights padded input
    (Q - 1 zeros first) a * down + first_b + j for the row's output a.
    Returns taps, and that input's polyphase row (index mod down) and start
    (index // down) at a = 0, each (Q, up); and the columns per loop step."""
    max_rate = max(up, down)
    half = 10 * max_rate
    m = np.arange(2 * half + 1, dtype=np.float64) - float(half)
    cutoff = 1.0 / max_rate
    h = cutoff * np.sinc(cutoff * m)  # firwin's low-pass: scaled by the passband sum below
    h *= _i0(12.0 * np.sqrt(1 - (m / half) ** 2.0)) / _i0(np.array([12.0]))[0]
    h /= h.sum()
    h *= up
    n_pre_pad = down - half % down
    n_taps = -(-(h.size + n_pre_pad) // up)
    padded = np.zeros(n_taps * up)
    padded[n_pre_pad:n_pre_pad + h.size] = h
    first, phase = np.divmod((np.arange(up) + (half + n_pre_pad) // down) * down, up)
    start, row = np.divmod(first + np.arange(n_taps)[:, None], down)
    plan = padded.reshape(n_taps, up)[::-1, phase], row, start
    for a in plan:  # shared by every caller through the cache
        a.flags.writeable = False
    # products per output column of one step
    products = _n_grouped(n_taps, down) * down if up <= _RESAMPLE_FEW_ROWS else n_taps
    return *plan, max(2, min(_RESAMPLE_COLUMNS, _RESAMPLE_STEP // products))


def _n_grouped(n_taps: int, down: int) -> int:
    """Rows of the (rows, down) table of one output row's taps by input residue."""
    return -(-(n_taps + down - 1) // down)


def _polyphase(x: np.ndarray, up: int, down: int) -> np.ndarray:
    """upfirdn's arithmetic, kept to resample_poly's ceil(n * up / down)
    outputs: each output adds its products input * tap in increasing input
    order, one at a time, to an accumulator that starts at +0.0 (initial=0.0;
    a sum seeded with its first product can turn silence into -0.0). The
    accumulations run across a whole block of outputs at once."""
    taps, row, start, block = _resample_plan(up, down)
    n_taps = taps.shape[0]
    n_out = -(-x.size * up // down)
    # Grid columns, one spare where a block would be one column wide: numpy
    # sums a reduction with a single output pairwise instead of in order.
    width = -(-n_out // up)
    width = max(2, width + (width % block == 1))
    block = min(width, block)
    n_cols = width + block + int(start.max()) + 1
    padded = np.zeros(n_cols * down)
    padded[n_taps - 1:n_taps - 1 + x.size] = x
    poly = np.ascontiguousarray(padded.reshape(n_cols, down).T)  # poly[r, t] = padded[t * down + r]
    grid = np.empty((up, width))
    bufsize = np.setbufsize(max(16, block - block % 16))  # numpy 1.x takes multiples of 16
    try:
        if up <= _RESAMPLE_FEW_ROWS:
            # Few long rows. Row b's taps, shifted by its first input's residue,
            # fill an (n_u, down) table whose entry (u, r) weights poly[r, start +
            # u + a]: one strided view per row, no gather.
            n_u = _n_grouped(n_taps, down)
            windows = sliding_window_view(poly, width, axis=1)
            prod = np.empty((n_u, down, block))
            for b in range(up):
                weights = np.zeros(n_u * down)
                weights[row[0, b]:row[0, b] + n_taps] = taps[:, b]
                weights = weights.reshape(n_u, down, 1)
                inputs = windows[:, start[0, b]:start[0, b] + n_u].transpose(1, 0, 2)
                for a0 in range(0, width, block):
                    p = prod[..., :min(block, width - a0)]
                    np.multiply(inputs[..., a0:a0 + block], weights, out=p)
                    np.add.reduce(p.reshape(n_u * down, -1), axis=0,
                                  out=grid[b, a0:a0 + block], initial=0.0)
        else:
            # Many short rows: gather every row's inputs for all taps at once.
            windows = sliding_window_view(poly, block, axis=1)
            n_rows = max(1, _RESAMPLE_STEP // (n_taps * block))
            for b0 in range(0, up, n_rows):
                rows = slice(b0, b0 + n_rows)
                for a0 in range(0, width, block):
                    p = windows[row[:, rows], start[:, rows] + a0]
                    p *= taps[:, rows, None]
                    np.add.reduce(p[..., :width - a0], axis=0, out=grid[rows, a0:a0 + block],
                                  initial=0.0)
    finally:
        np.setbufsize(bufsize)
    return grid.T.ravel()[:n_out]


def resample(sig: Signal, target_rate: int) -> Signal:
    """Polyphase windowed-sinc resampling to target_rate.

    The rate ratio is reduced to lowest terms up/down; a Kaiser(12) anti-alias
    window keeps passband tones above 60 dB through a down/up round trip. The
    output holds exactly ceil(n * target / source) samples and equals
    ``scipy.signal.resample_poly(x, up, down, window=("kaiser", 12.0))`` bit
    for bit.
    """
    if not target_rate > 0:
        raise AudioError(f"target_rate must be > 0, got {target_rate}")
    target_rate = int(target_rate)
    if target_rate == sig.sample_rate:
        return sig
    g = math.gcd(target_rate, sig.sample_rate)
    y = _polyphase(sig.samples, target_rate // g, sig.sample_rate // g)
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


def _overlap_add(frames: np.ndarray, hop: int, out: np.ndarray | None = None) -> np.ndarray:
    """Sum frame t into samples [t * hop, t * hop + frame), at least frame +
    hop * (n_frames - 1) samples long. Frames are cut into hop-wide
    segments and segment j of every frame is added to output block t + j in
    one whole-array step, latest segment first, so each sample sums its
    frames in frame order: bit-identical to a per-frame loop. A given `out`
    is a C-contiguous (n_frames + ceil(frame / hop) - 1, hop) buffer."""
    n_frames, frame = frames.shape
    n_segments = -(-frame // hop)
    if out is None:
        out = np.empty((n_frames + n_segments - 1, hop))
    out.fill(0.0)
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
                out: np.ndarray | None = None, frames: np.ndarray | None = None,
                summed: np.ndarray | None = None) -> np.ndarray:
    """Inverse FFT of each frame (into `frames`), windowed again,
    overlap-added (into `summed`) and divided by the envelope `support`
    (into `out`); a stage whose buffer is None writes a new array."""
    frame = window.size
    frames = np.fft.irfft(data, n=frame, axis=1, out=frames)
    frames *= window
    pad = frame // 2
    return np.divide(_overlap_add(frames, hop, out=summed)[pad : pad + support.size], support,
                     out=out)


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
    envelope and its invertibility check, and every buffer are made once.
    Each call synthesizes straight into the zero-padded analysis buffer's
    interior and returns the spectrum of its frames, the same bits as
    ``stft(istft(replace(spec, data=data))).data``. The returned array is
    the object's own buffer: the next call overwrites it, so copy a result
    that must outlive it (the caller may pass it back in, or edit it in
    place, between calls)."""

    def __init__(self, spec: Spectrogram):
        frame, hop, n_frames = spec.frame, spec.hop, spec.n_frames
        self._hop = hop
        self._window, self._support = _synthesis_envelope(frame, hop, n_frames, spec.n_samples)
        pad = frame // 2
        padded = np.zeros(frame + hop * (n_frames - 1))
        self._interior = padded[pad : pad + spec.n_samples]
        self._frames = sliding_window_view(padded, frame)[::hop]
        self._synthesis = np.empty((n_frames, frame))  # inverse FFTs, then analysis frames
        self._summed = np.empty((n_frames + -(-frame // hop) - 1, hop))
        self._spectrum = np.empty((n_frames, frame // 2 + 1), dtype=np.complex128)

    def __call__(self, data: np.ndarray) -> np.ndarray:
        _synthesize(data, self._hop, self._window, self._support, out=self._interior,
                    frames=self._synthesis, summed=self._summed)
        np.multiply(self._frames, self._window, out=self._synthesis)
        return np.fft.rfft(self._synthesis, axis=1, out=self._spectrum)
