"""Signal-layer tests: WAV byte format, resampling oracles, STFT round
trips and Parseval."""

from __future__ import annotations

import struct
from dataclasses import replace
from math import gcd

import numpy as np
import pytest

from scorewave import AudioError, ConfigError, signal
from scorewave.signal import (
    Signal,
    istft,
    read_wav,
    resample,
    stft,
    write_wav,
)


COMMON_RATES = (8000, 16000, 22050, 24000, 32000, 44100, 48000)
RESAMPLE_PAIRS = sorted({(a, b) for a in COMMON_RATES for b in COMMON_RATES if a != b}
                        | {pair for rate in COMMON_RATES for k in (2, 4, 8)
                           for pair in ((rate, rate // k), (rate // k, rate))})


def reference_istft(spec) -> np.ndarray:
    """The per-frame weighted overlap-add that istft must equal bit for bit;
    raises ZeroDivisionError where istft rejects a gap in the envelope."""
    frame, hop = spec.frame, spec.hop
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(frame) / frame)
    frames = np.fft.irfft(spec.data, n=frame, axis=1) * window
    n_padded = frame + hop * (spec.n_frames - 1)
    out, wsum = np.zeros(n_padded), np.zeros(n_padded)
    for t in range(spec.n_frames):
        out[t * hop : t * hop + frame] += frames[t]
        wsum[t * hop : t * hop + frame] += window**2
    support = wsum[frame // 2 : frame // 2 + spec.n_samples]
    if support.min() < 1e-8:
        raise ZeroDivisionError("gap in the window-power envelope")
    return out[frame // 2 : frame // 2 + spec.n_samples] / support


class TestSignal:
    def test_validation(self):
        with pytest.raises(AudioError):
            Signal(samples=np.zeros((2, 3)))
        with pytest.raises(AudioError):
            Signal(samples=np.array([0.0, np.nan]))
        with pytest.raises(AudioError):
            Signal(samples=np.zeros(4), sample_rate=0)

    def test_duration_and_len(self):
        s = Signal(samples=np.zeros(8000), sample_rate=16000)
        assert len(s) == 8000
        assert s.duration == pytest.approx(0.5)

    def test_samples_read_only(self):
        s = Signal(samples=np.zeros(4))
        with pytest.raises(ValueError):
            s.samples[0] = 1.0


class TestWav:
    def test_pcm16_ramp_roundtrip_quantization_bound(self, tmp_path):
        """Quantized round trip: max abs error at most one 16-bit LSB."""
        x = np.linspace(-1.0, 1.0, 4001)
        path = tmp_path / "ramp.wav"
        write_wav(path, Signal(samples=x), encoding="pcm16")
        back = read_wav(path)
        assert back.sample_rate == 16000
        assert np.max(np.abs(back.samples - x)) <= 1.0 / 32768

    def test_float32_roundtrip_bitexact(self, tmp_path):
        rng = np.random.default_rng(70)
        x = rng.normal(scale=0.3, size=999)
        path = tmp_path / "f32.wav"
        write_wav(path, Signal(samples=x, sample_rate=8000), encoding="float32")
        back = read_wav(path)
        assert back.sample_rate == 8000
        np.testing.assert_array_equal(back.samples, x.astype(np.float32).astype(np.float64))

    def test_canonical_44_byte_header(self, tmp_path):
        """Byte-level fixture: RIFF/fmt/data layout of a PCM16 mono file."""
        path = tmp_path / "hdr.wav"
        write_wav(path, Signal(samples=np.zeros(100), sample_rate=16000), encoding="pcm16")
        blob = path.read_bytes()
        assert blob[0:4] == b"RIFF"
        assert struct.unpack("<I", blob[4:8])[0] == 36 + 200
        assert blob[8:12] == b"WAVE"
        assert blob[12:16] == b"fmt "
        assert struct.unpack("<I", blob[16:20])[0] == 16
        fmt_code, channels, rate, byte_rate, block_align, bits = struct.unpack(
            "<HHIIHH", blob[20:36]
        )
        assert (fmt_code, channels, rate) == (1, 1, 16000)
        assert (byte_rate, block_align, bits) == (32000, 2, 16)
        assert blob[36:40] == b"data"
        assert struct.unpack("<I", blob[40:44])[0] == 200
        assert len(blob) == 244

    def test_values_clipped_to_full_scale(self, tmp_path):
        path = tmp_path / "clip.wav"
        write_wav(path, Signal(samples=np.array([2.0, -3.0, 0.5])), encoding="pcm16")
        back = read_wav(path)
        np.testing.assert_allclose(back.samples[:2], [1.0, -1.0], atol=1e-4)

    def test_stereo_requires_downmix(self, tmp_path):
        """Hand-built 2-channel file: rejected by default, averaged with
        downmix=True."""
        left = np.array([0.5, 0.5, 0.5], dtype="<f4")
        right = np.array([-0.5, 0.1, 0.3], dtype="<f4")
        inter = np.column_stack([left, right]).ravel().tobytes()
        path = tmp_path / "stereo.wav"
        with open(path, "wb") as fh:
            fh.write(b"RIFF" + struct.pack("<I", 36 + len(inter)) + b"WAVE")
            fh.write(b"fmt " + struct.pack("<IHHIIHH", 16, 3, 2, 16000, 128000, 8, 32))
            fh.write(b"data" + struct.pack("<I", len(inter)) + inter)
        with pytest.raises(AudioError, match="downmix"):
            read_wav(path)
        back = read_wav(path, downmix=True)
        np.testing.assert_allclose(back.samples, (left + right) / 2, rtol=1e-6)

    def test_unknown_chunks_skipped(self, tmp_path):
        """A LIST chunk (odd size, so with a pad byte) between fmt and data."""
        payload = np.array([1000, -1000], dtype="<i2").tobytes()
        junk = b"junkbyte5"
        path = tmp_path / "chunky.wav"
        with open(path, "wb") as fh:
            fh.write(b"RIFF" + struct.pack("<I", 36 + 8 + len(junk) + 1 + len(payload)) + b"WAVE")
            fh.write(b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 16000, 32000, 2, 16))
            fh.write(b"LIST" + struct.pack("<I", len(junk)) + junk + b"\x00")
            fh.write(b"data" + struct.pack("<I", len(payload)) + payload)
        back = read_wav(path)
        np.testing.assert_allclose(back.samples, [1000 / 32767, -1000 / 32767])

    def test_malformed_files_rejected(self, tmp_path):
        not_riff = tmp_path / "no.wav"
        not_riff.write_bytes(b"OGGS" + b"\x00" * 60)
        with pytest.raises(AudioError):
            read_wav(not_riff)

        no_data = tmp_path / "nodata.wav"
        with open(no_data, "wb") as fh:
            fh.write(b"RIFF" + struct.pack("<I", 40) + b"WAVE")
            fh.write(b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 16000, 32000, 2, 16))
            fh.write(b"\x00" * 12)
        with pytest.raises(AudioError, match="missing"):
            read_wav(no_data)

        bad_fmt = tmp_path / "alaw.wav"
        with open(bad_fmt, "wb") as fh:
            fh.write(b"RIFF" + struct.pack("<I", 40) + b"WAVE")
            fh.write(b"fmt " + struct.pack("<IHHIIHH", 16, 6, 1, 8000, 8000, 1, 8))
            fh.write(b"data" + struct.pack("<I", 2) + b"\x00\x00")
        with pytest.raises(AudioError, match="unsupported"):
            read_wav(bad_fmt)

    @pytest.mark.parametrize("field, offset, value", [
        ("rate", 27, 0x81),          # 16000 Hz becomes 2,164,276,864 Hz
        ("byte_rate", 28, 0x81),     # 32000 becomes 32129
        ("block_align", 32, 4),      # 2 bytes per mono PCM16 frame becomes 4
    ])
    def test_inconsistent_fmt_rejected(self, tmp_path, field, offset, value):
        """block_align must be channels * bits / 8 and byte_rate must be
        rate * block_align; a header that breaks either is rejected."""
        path = tmp_path / f"{field}.wav"
        write_wav(path, Signal(samples=np.zeros(100), sample_rate=16000), encoding="pcm16")
        blob = bytearray(path.read_bytes())
        blob[offset] = value
        path.write_bytes(bytes(blob))
        with pytest.raises(AudioError, match="inconsistent fmt chunk"):
            read_wav(path)

    def test_partial_sample_rejected(self, tmp_path):
        """A PCM16 data chunk with an odd byte count holds half a sample."""
        path = tmp_path / "odd.wav"
        payload = b"\x01\x02\x03"
        with open(path, "wb") as fh:
            fh.write(b"RIFF" + struct.pack("<I", 36 + 8 + len(payload) + 1) + b"WAVE")
            fh.write(b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 16000, 32000, 2, 16))
            fh.write(b"data" + struct.pack("<I", len(payload)) + payload + b"\x00")
        with pytest.raises(AudioError, match="whole number"):
            read_wav(path)

    def test_data_chunk_past_end_of_file_rejected(self, tmp_path):
        """A data chunk that declares more bytes than the file holds is
        rejected, not silently truncated."""
        path = tmp_path / "cut.wav"
        write_wav(path, Signal(samples=np.zeros(100), sample_rate=16000), encoding="pcm16")
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(AudioError, match="declares 200 bytes"):
            read_wav(path)

    @pytest.mark.parametrize("encoding, rate", [
        ("float32", 1_500_000_000),   # byte rate 6.0e9; the PCM16 file's 3.0e9 fits
        ("pcm16", 2**31),             # byte rate 2**32
    ])
    def test_header_overflow_rejected_before_writing(self, tmp_path, encoding, rate):
        """A byte rate the header's uint32 cannot hold raises AudioError
        naming the rate, not struct.error, and opens no file."""
        path = tmp_path / "x.wav"
        with pytest.raises(AudioError, match=f"at {rate} Hz$"):
            write_wav(path, Signal(samples=np.zeros(4), sample_rate=rate), encoding=encoding)
        assert not path.exists()

    def test_largest_header_rate_is_written(self, tmp_path):
        """A PCM16 byte rate of exactly 2**32 - 2 still fits."""
        path = tmp_path / "x.wav"
        write_wav(path, Signal(samples=np.zeros(4), sample_rate=2**31 - 1), encoding="pcm16")
        assert read_wav(path).sample_rate == 2**31 - 1

    def test_unsupported_write_encoding(self, tmp_path):
        with pytest.raises(AudioError):
            write_wav(tmp_path / "x.wav", Signal(samples=np.zeros(4)), encoding="pcm24")


class TestResample:
    def test_identity_rate_unchanged(self):
        s = Signal(samples=np.arange(10) / 10.0)
        out = resample(s, 16000)
        np.testing.assert_array_equal(out.samples, s.samples)

    def test_tone_reconstruction_snr(self):
        """1 kHz tone through 16 kHz -> 8 kHz -> 16 kHz keeps passband SNR
        at or above 60 dB (edges trimmed for filter transients)."""
        t = np.arange(16000) / 16000.0
        tone = 0.5 * np.sin(2 * np.pi * 1000.0 * t)
        back = resample(resample(Signal(samples=tone), 8000), 16000)
        assert len(back) == 16000
        ref, est = tone[500:-500], back.samples[500:-500]
        snr = 10 * np.log10(np.sum(ref**2) / np.sum((ref - est) ** 2))
        assert snr >= 60.0, f"SNR {snr:.1f} dB"

    def test_dc_preserved(self):
        dc = Signal(samples=np.full(8000, 0.25))
        out = resample(dc, 24000)
        assert np.max(np.abs(out.samples[1000:-1000] - 0.25)) < 1e-3

    def test_length_scales_by_ratio(self):
        for n, target in [(16000, 8000), (16001, 8000), (999, 44100)]:
            out = resample(Signal(samples=np.zeros(n), sample_rate=16000), target)
            want = int(np.ceil(n * target / 16000))
            assert abs(len(out) - want) <= 1
            assert out.sample_rate == target

    def test_bad_rate_rejected(self):
        with pytest.raises(AudioError):
            resample(Signal(samples=np.zeros(10)), 0)
        with pytest.raises(AudioError):
            resample(Signal(samples=np.zeros(10)), -8000)

    @pytest.mark.parametrize("source, target", RESAMPLE_PAIRS,
                             ids=[f"{a}-{b}" for a, b in RESAMPLE_PAIRS])
    def test_equals_scipy_resample_poly_bit_for_bit(self, source, target):
        """Every rate pair among the common rates, plus the down_sample round
        trips to rate // k and back (ratios such as 1378:11025 and
        2756:11025), at lengths 0 to over a second. Inputs hold noise with
        runs of +0.0 and -0.0, or are silent with either sign."""
        import scipy.signal

        g = gcd(source, target)
        up, down = target // g, source // g
        rng = np.random.default_rng(source * 7 + target)
        for n in (0, 1, 2, 7, 1001, source + 3):
            noisy = 0.3 * rng.standard_normal(n)
            noisy[n // 4 : n // 2] = 0.0
            noisy[n // 2 + 1 : 3 * n // 4] = -0.0
            for x in (noisy, np.full(n, -0.0), np.zeros(n)):
                want = scipy.signal.resample_poly(x, up, down, window=("kaiser", 12.0))
                got = resample(Signal(samples=x, sample_rate=source), target)
                assert got.samples.tobytes() == want.tobytes(), (n, x[:3])

    @pytest.mark.parametrize("source, target", [(16000, 8000), (8000, 16000), (48000, 16000),
                                                (44100, 16000), (16000, 44100), (22050, 5512)])
    def test_a_sum_of_negative_zeros_is_positive_zero(self, source, target):
        """Silence signed so that every product of one output is -0.0: the
        accumulator starts at +0.0, so that output is +0.0 as scipy's is,
        where a sum seeded with its first product would give -0.0."""
        import scipy.signal

        g = gcd(source, target)
        up, down = target // g, source // g
        half = 10 * max(up, down)
        h = scipy.signal.firwin(2 * half + 1, 1 / max(up, down), window=("kaiser", 12.0)) * up
        pre = down - half % down
        taps = np.concatenate([np.zeros(pre), h])  # output k weights x[i] by taps[n_k - i * up]
        n = 4 * (taps.size // up + 2) * down // min(up, down)
        k = -(-n * up // down) // 2
        n_k = (k + (half + pre) // down) * down
        i = np.arange(-(-(n_k - taps.size + 1) // up), n_k // up + 1)
        x = np.full(n, -0.0)
        x[i[taps[n_k - i * up] < 0]] = 0.0
        assert np.all(np.signbit(x[i] * taps[n_k - i * up]))
        want = scipy.signal.resample_poly(x, up, down, window=("kaiser", 12.0))
        got = resample(Signal(samples=x, sample_rate=source), target)
        assert not np.signbit(want[k])
        assert got.samples.tobytes() == want.tobytes()

    @pytest.mark.parametrize("source, target", [(16000, 8000), (8000, 16000), (48000, 16000),
                                                (44100, 16000)])
    def test_block_edges_equal_scipy_bit_for_bit(self, source, target):
        """Lengths whose output rows end one column past a whole number of
        the resampler's column blocks, or just short of one."""
        import scipy.signal

        g = gcd(source, target)
        up, down = target // g, source // g
        rng = np.random.default_rng(5)
        block = signal._resample_plan(up, down)[-1]
        for width in (block - 1, block, block + 1, 2 * block + 1):
            n = -(-((width - 1) * up + 1) * down // up)  # the shortest input filling `width`
            x = rng.standard_normal(n)
            want = scipy.signal.resample_poly(x, up, down, window=("kaiser", 12.0))
            got = resample(Signal(samples=x, sample_rate=source), target)
            assert got.samples.tobytes() == want.tobytes(), width


def reference_stft(x: np.ndarray, frame: int, hop: int) -> np.ndarray:
    """The index-gather framing that stft's strided framing must equal bit
    for bit."""
    pad = frame // 2
    extra = (-(x.size + 2 * pad - frame)) % hop
    padded = np.concatenate([np.zeros(pad), x, np.zeros(pad + extra)])
    n_frames = 1 + (padded.size - frame) // hop
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(frame) / frame)
    idx = np.arange(frame) + hop * np.arange(n_frames)[:, None]
    return np.fft.rfft(padded[idx] * window, axis=1)


class TestStft:
    @pytest.mark.parametrize("frame,hop", [(256, 64), (512, 128), (1024, 256), (2048, 512),
                                           (512, 160), (400, 100), (300, 77), (256, 200)])
    def test_equals_gather_framing(self, frame, hop):
        """Bit for bit the index-gather reference, for hops that divide the
        frame and hops that do not, and for a signal shorter than a frame."""
        rng = np.random.default_rng(74)
        for n in (frame // 3, 1000, 16013):
            x = rng.normal(size=n)
            spec = stft(Signal(samples=x), frame=frame, hop=hop)
            assert np.array_equal(spec.data, reference_stft(x, frame, hop))

    def test_impulse_flat_magnitude(self):
        """A unit impulse at the center of frame 0 has |X_k| = 1 in every
        bin (the DFT of a shifted delta is a pure phase ramp)."""
        x = np.zeros(1600)
        x[0] = 1.0
        spec = stft(Signal(samples=x), frame=512, hop=160)
        np.testing.assert_allclose(np.abs(spec.data[0]), 1.0, rtol=1e-12)

    def test_roundtrip_random_signals(self):
        """istft(stft(x)) == x within 1e-6 across framings and lengths."""
        rng = np.random.default_rng(71)
        for frame, hop in [(512, 160), (1024, 256), (400, 100), (512, 256), (64, 16)]:
            for n in (1000, 4096, 12345):
                x = rng.normal(size=n)
                rec = istft(stft(Signal(samples=x), frame=frame, hop=hop))
                assert len(rec) == n
                assert np.max(np.abs(rec.samples - x)) < 1e-6

    def test_parseval_per_frame(self):
        """Energy identity: (1/N) sum over full-spectrum |X|^2 equals the
        summed windowed-frame energy, within 1e-6 relative."""
        rng = np.random.default_rng(72)
        x = rng.normal(size=5000)
        frame, hop = 512, 160
        spec = stft(Signal(samples=x), frame=frame, hop=hop)
        mag2 = np.abs(spec.data) ** 2
        # rfft of an even-length real frame: bins 1..N/2-1 appear twice in
        # the full spectrum, DC and Nyquist once
        full_energy = (mag2[:, 0] + mag2[:, -1] + 2 * mag2[:, 1:-1].sum(axis=1)).sum() / frame

        window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(frame) / frame)
        pad = frame // 2
        extra = (-(x.size + 2 * pad - frame)) % hop
        padded = np.concatenate([np.zeros(pad), x, np.zeros(pad + extra)])
        time_energy = sum(
            np.sum((padded[t * hop : t * hop + frame] * window) ** 2)
            for t in range(spec.n_frames)
        )
        np.testing.assert_allclose(full_energy, time_energy, rtol=1e-6)

    def test_frame_count_rule(self):
        spec = stft(Signal(samples=np.zeros(16000)), frame=512, hop=160)
        assert spec.n_frames == 1 + 16000 // 160
        assert spec.n_bins == 257

    @pytest.mark.parametrize("frame,hop", [(256, 64), (512, 128), (1024, 256), (512, 160),
                                           (400, 100), (300, 77), (256, 200), (64, 63)])
    def test_istft_equals_per_frame_overlap_add(self, frame, hop):
        """Bit for bit the per-frame loop: every sample sums its frames in
        frame order, also for hops that do not divide the frame and for
        data that is not the STFT of any signal."""
        rng = np.random.default_rng(73)
        for n in (1000, 16013):
            spec = stft(Signal(samples=rng.normal(size=n)), frame=frame, hop=hop)
            noisy = replace(spec, data=spec.data * np.exp(1j * rng.uniform(-3, 3, spec.data.shape)))
            for s in (spec, noisy):
                assert np.array_equal(istft(s).samples, reference_istft(s))

    @pytest.mark.parametrize("frame", [256, 512, 1024])
    def test_stft_round_trip_equals_stft_of_istft(self, frame):
        """Three calls in a row on different data, each result copied before
        the next call reuses the object's buffers: the same bits as the
        plain round trip, on a clip shorter than one frame and on 1 s."""
        rng = np.random.default_rng(74)
        for n in (frame // 2 - 3, 16000):
            spec = stft(Signal(samples=rng.normal(size=n)), frame=frame, hop=frame // 4)
            round_trip = signal.StftRoundTrip(spec)
            results = []
            for scale in (1.0, 3.0, 0.5):
                data = scale * spec.data * np.exp(1j * rng.uniform(-3, 3, spec.data.shape))
                results.append((data, round_trip(data).copy()))
            for data, got in results:
                want = stft(istft(replace(spec, data=data)), frame=frame, hop=frame // 4).data
                assert got.tobytes() == want.tobytes()

    def test_non_invertible_config_flagged(self):
        """hop == frame leaves zeros in the window-power envelope."""
        spec = stft(Signal(samples=np.ones(2048)), frame=512, hop=512)
        with pytest.raises(ConfigError, match="envelope"):
            istft(spec)
        with pytest.raises(ZeroDivisionError):
            reference_istft(spec)

    def test_bad_framing_rejected(self):
        s = Signal(samples=np.zeros(100))
        with pytest.raises(ConfigError):
            stft(s, frame=64, hop=65)
        with pytest.raises(ConfigError):
            stft(s, frame=64, hop=0)
