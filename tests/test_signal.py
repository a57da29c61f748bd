"""Signal-layer tests: WAV byte format, resampling oracles, STFT round
trips and Parseval, mel filterbank geometry, loudness/VAD, deltas."""

from __future__ import annotations

import struct
from dataclasses import replace

import numpy as np
import pytest

from scorewave import (
    AudioError,
    ConfigError,
    Signal,
    append_deltas,
    deltas,
    istft,
    log_mel,
    loudness_vad,
    mel_filterbank,
    read_features,
    read_wav,
    resample,
    stft,
    write_features,
    write_wav,
)


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


class TestMel:
    def test_shape_and_frame_rate(self):
        m = log_mel(Signal(samples=np.random.default_rng(73).normal(size=16000) * 0.1))
        assert m.data.shape == (101, 80)
        assert m.n_bands == 80
        assert m.frame_rate == pytest.approx(100.0)

    def test_silence_hits_log_floor(self):
        m = log_mel(Signal(samples=np.zeros(4800)))
        np.testing.assert_array_equal(m.data, np.log(1e-5))

    def test_filterbank_rows_positive_and_bins_covered(self):
        fb = mel_filterbank(257, n_bands=80, sample_rate=16000)
        assert fb.shape == (80, 257)
        assert np.all(fb.sum(axis=1) > 0)
        freqs = np.linspace(0, 8000, 257)
        interior = (freqs > 40.0) & (freqs < 8000.0)
        assert np.all(fb.sum(axis=0)[interior] > 0)

    def test_filterbank_deterministic(self):
        a = mel_filterbank(257)
        b = mel_filterbank(257)
        np.testing.assert_array_equal(a, b)

    def test_tone_energy_tracks_frequency(self):
        """Higher tones excite higher mel bands (monotone band argmax)."""
        t = np.arange(16000) / 16000.0
        peaks = []
        for f0 in (200.0, 1000.0, 3000.0):
            m = log_mel(Signal(samples=0.5 * np.sin(2 * np.pi * f0 * t)))
            peaks.append(int(np.argmax(m.data[50])))
        assert peaks[0] < peaks[1] < peaks[2]

    def test_wrong_rate_rejected(self):
        with pytest.raises(AudioError, match="16000"):
            log_mel(Signal(samples=np.zeros(8000), sample_rate=8000))

    def test_short_signal_rejected(self):
        with pytest.raises(AudioError, match="shorter"):
            log_mel(Signal(samples=np.zeros(100)))


class TestLoudnessVad:
    @pytest.mark.parametrize("frame,hop", [(512, 160), (400, 100), (256, 64), (300, 77)])
    def test_level_equals_gather_framing(self, frame, hop):
        """Column 0 is bit for bit the RMS over index-gathered frames."""
        x = 0.3 * np.random.default_rng(75).normal(size=4001)
        n_frames = 1 + (x.size - frame) // hop
        idx = np.arange(frame) + hop * np.arange(n_frames)[:, None]
        rms = np.sqrt(np.mean(x[idx] ** 2, axis=1))
        out = loudness_vad(Signal(samples=x), frame=frame, hop=hop)
        assert out.shape == (n_frames, 2)
        assert np.array_equal(out[:, 0], 20.0 * np.log10(np.maximum(rms, 1e-6)))

    def test_full_scale_sine_loudness(self):
        """RMS of a full-scale sine is 1/sqrt(2): -3.0103 dBFS per frame
        (frames span whole periods, so the figure is exact)."""
        t = np.arange(16000) / 16000.0
        lv = loudness_vad(Signal(samples=np.sin(2 * np.pi * 1000.0 * t)))
        np.testing.assert_allclose(lv[:, 0], 20 * np.log10(1 / np.sqrt(2)), atol=1e-9)
        assert np.all(lv[2:, 1] == 1.0)

    def test_silence_floor_and_inactive(self):
        lv = loudness_vad(Signal(samples=np.zeros(3200)))
        np.testing.assert_array_equal(lv[:, 0], -120.0)
        np.testing.assert_array_equal(lv[:, 1], 0.0)

    def test_hysteresis_state_machine(self):
        """Frame-aligned loud/quiet/loud blocks: the flag flips exactly
        `hysteresis` frames into each new regime, starting inactive."""
        blocks = [0.5] * 5 + [1e-4] * 5 + [0.5] * 5
        x = np.concatenate([np.full(160, a) for a in blocks])
        lv = loudness_vad(Signal(samples=x), frame=160, hop=160)
        want = [0, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 1, 1, 1, 1]
        np.testing.assert_array_equal(lv[:, 1], want)

    def test_single_frame_blip_ignored(self):
        blocks = [1e-4] * 3 + [0.5] + [1e-4] * 3
        x = np.concatenate([np.full(160, a) for a in blocks])
        lv = loudness_vad(Signal(samples=x), frame=160, hop=160)
        np.testing.assert_array_equal(lv[:, 1], 0.0)

    def test_short_signal_rejected(self):
        with pytest.raises(AudioError):
            loudness_vad(Signal(samples=np.zeros(100)))


class TestDeltas:
    def test_constant_features_zero(self):
        np.testing.assert_array_equal(deltas(np.full((7, 3), 2.5)), 0.0)

    def test_first_difference_with_replicated_edge(self):
        f = np.array([[1.0], [3.0], [6.0]])
        np.testing.assert_array_equal(deltas(f), [[0.0], [2.0], [3.0]])

    def test_append_doubles_width(self):
        rng = np.random.default_rng(74)
        f = rng.normal(size=(5, 4))
        out = append_deltas(f)
        assert out.shape == (5, 8)
        np.testing.assert_array_equal(out[:, :4], f)
        np.testing.assert_array_equal(out[:, 4:], deltas(f))

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            deltas(np.zeros((0, 3)))


class TestFeatureDump:
    def test_roundtrip_with_meta(self, tmp_path):
        rng = np.random.default_rng(75)
        arr = rng.normal(size=(11, 5)).astype(np.float32)
        meta = {"kind": "mel", "hop": 160}
        path = tmp_path / "f.feat"
        write_features(path, arr, meta)
        back, got_meta = read_features(path)
        np.testing.assert_array_equal(back, arr)
        assert got_meta == meta

    @pytest.mark.parametrize("case", ["no_length", "short_payload", "long_payload",
                                      "not_utf8", "not_json", "no_shape", "negative_shape"])
    def test_malformed_dump_is_audio_error(self, tmp_path, case):
        path = tmp_path / "f.feat"
        write_features(path, np.ones((3, 2), dtype=np.float32), {"kind": "mel"})
        blob = path.read_bytes()
        (hlen,) = struct.unpack("<I", blob[8:12])
        head, payload = blob[:12], blob[12 + hlen:]

        def with_header(text):
            return blob[:8] + struct.pack("<I", len(text)) + text + payload

        path.write_bytes({
            "no_length": blob[:10],
            "short_payload": blob[:-4],
            "long_payload": blob + b"\x00" * 4,
            "not_utf8": head + b"\xff" * hlen + payload,
            "not_json": head + b"{" * hlen + payload,
            "no_shape": with_header(b'{"meta": {}}'),
            "negative_shape": with_header(b'{"shape": [-3, -2], "meta": {}}'),
        }[case])
        with pytest.raises(AudioError):
            read_features(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.feat"
        path.write_bytes(b"NOTFEAT0" + b"\x00" * 8)
        with pytest.raises(AudioError):
            read_features(path)
