"""Metric tests: closed-form values, an independent log-spectral
distance implementation, scale-invariance properties, and the
monotone-trend and hop-stability checks."""

import json
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from scorewave import ConfigError, MetricError, metrics
from scorewave.metrics import (
    DB_CAP,
    DEFAULT_RESOLUTIONS,
    MAG_FLOOR,
    MetricReport,
    evaluate_pair,
    lsd,
    mrstft,
    si_snr,
    snr,
)
from scorewave.signal import stft as signal_stft

RATE = 16000


def ref_signal(n=RATE, seed=0, amp=0.3):
    return amp * np.random.default_rng(seed).standard_normal(n)


def with_noise_at(ref, snr_db, seed=1):
    w = np.random.default_rng(seed).standard_normal(ref.size)
    w *= np.sqrt(np.sum(ref**2) / (10.0 ** (snr_db / 10.0) * np.sum(w**2)))
    return ref + w


class TestSnr:
    def test_identical_reports_cap(self):
        x = ref_signal()
        assert snr(x, x) == DB_CAP
        assert si_snr(x, x) == DB_CAP

    def test_known_power_ratio_is_20db(self):
        """Noise scaled to exactly 1/100 of the reference power."""
        x = ref_signal(seed=2)
        assert snr(x, with_noise_at(x, 20.0)) == pytest.approx(20.0, abs=1e-9)

    def test_silent_estimate_scores_zero_db(self):
        x = ref_signal(seed=3)
        assert snr(x, np.zeros_like(x)) == pytest.approx(0.0, abs=1e-12)

    def test_si_snr_scale_invariant(self):
        x = ref_signal(seed=4)
        est = with_noise_at(x, 12.0)
        base = si_snr(x, est)
        for a in np.random.default_rng(5).uniform(0.05, 50.0, size=8):
            assert si_snr(x, a * est) == pytest.approx(base, rel=1e-9)

    def test_si_snr_ignores_gain_error_snr_does_not(self):
        x = ref_signal(seed=6)
        est = 0.5 * x
        assert snr(x, est) == pytest.approx(10.0 * np.log10(1.0 / 0.25), abs=1e-9)
        assert si_snr(x, est) == DB_CAP

    def test_silent_reference_undefined(self):
        z = np.zeros(1000)
        y = ref_signal(n=1000, seed=7)
        for metric in (snr, si_snr, lsd):
            with pytest.raises(MetricError, match="silent"):
                metric(z, y)
        with pytest.raises(MetricError, match="silent"):
            mrstft(z, y)

    def test_silent_estimate_undefined_for_si_snr(self):
        x = ref_signal(seed=8)
        with pytest.raises(MetricError, match="silent"):
            si_snr(x, np.zeros_like(x))

    def test_input_validation(self):
        x = ref_signal(n=100, seed=9)
        with pytest.raises(ConfigError, match="mismatch"):
            snr(x, x[:-1])
        with pytest.raises(ConfigError):
            snr(x.reshape(10, 10), x.reshape(10, 10))
        with pytest.raises(ConfigError):
            snr(np.array([]), np.array([]))
        bad = x.copy()
        bad[0] = np.nan
        with pytest.raises(MetricError, match="non-finite"):
            snr(x, bad)


class TestMrStft:
    def test_identical_is_zero(self):
        x = ref_signal(seed=10)
        value, parts = mrstft(x, x)
        assert value == 0.0
        assert parts == (0.0, 0.0, 0.0)

    def test_doubled_estimate_closed_form(self):
        """|E| = 2|R| collapses the spectral-convergence term to exactly
        1 and the log-magnitude term to exactly ln 2 at every
        resolution."""
        x = ref_signal(n=2 * RATE, seed=11)
        value, parts = mrstft(x, 2.0 * x)
        for part in parts:
            assert part == pytest.approx(1.0 + np.log(2.0), rel=1e-9)
        assert value == pytest.approx(1.0 + np.log(2.0), rel=1e-9)

    def test_monotone_in_additive_noise_snr(self):
        x = ref_signal(n=RATE, seed=12)
        values = [mrstft(x, with_noise_at(x, s, seed=13))[0]
                  for s in (0.0, 10.0, 20.0, 30.0, 40.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_hop_stability_within_5_percent(self):
        x = ref_signal(n=RATE, seed=14)
        est = with_noise_at(x, 10.0, seed=15)
        a = mrstft(x, est, resolutions=((512, 128),))[0]
        b = mrstft(x, est, resolutions=((512, 160),))[0]
        assert abs(a - b) / a < 0.05

    def test_empty_resolutions_rejected(self):
        x = ref_signal(seed=16)
        with pytest.raises(ConfigError):
            mrstft(x, x, resolutions=())


class TestLsd:
    def test_identical_is_zero(self):
        x = ref_signal(seed=17)
        assert lsd(x, x) == 0.0

    @pytest.mark.parametrize("a", [2.0, 0.5, 10.0])
    def test_pure_gain_closed_form(self, a):
        x = ref_signal(seed=18)
        assert lsd(x, a * x) == pytest.approx(abs(20.0 * np.log10(a)), rel=1e-9)

    def test_matches_brute_force_spectrogram(self):
        """White vs spectrally-tilted pair, recomputed from scratch: frame
        by hand with a centered periodic-Hann window, rfft each frame, and
        fold the double RMS without reusing the library framing code."""
        rng = np.random.default_rng(19)
        white = 0.3 * rng.standard_normal(RATE)
        tilt = np.fft.irfft(
            np.fft.rfft(rng.standard_normal(RATE))
            * np.maximum(np.fft.rfftfreq(RATE, 1 / RATE), 1.0) ** -0.5,
            RATE,
        )
        tilt *= 0.3 / np.sqrt(np.mean(tilt**2))

        frame, hop = 512, 128
        window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(frame) / frame)

        def mags(x):
            pad = frame // 2
            extra = (-(x.size + 2 * pad - frame)) % hop
            padded = np.concatenate([np.zeros(pad), x, np.zeros(pad + extra)])
            out = []
            start = 0
            while start + frame <= padded.size:
                out.append(np.abs(np.fft.rfft(padded[start : start + frame] * window)))
                start += hop
            return np.array(out)

        r = np.maximum(mags(white), MAG_FLOOR)
        e = np.maximum(mags(tilt), MAG_FLOOR)
        diff = 20.0 * np.log10(r / e)
        expected = np.sqrt(np.mean(np.mean(diff**2, axis=1)))
        assert lsd(white, tilt) == pytest.approx(expected, rel=1e-12)


class TestReport:
    def test_fields_and_serialization(self):
        x = ref_signal(n=RATE, seed=20)
        report = evaluate_pair(x, with_noise_at(x, 15.0, seed=21))
        assert isinstance(report, MetricReport)
        assert np.isfinite([report.snr, report.si_snr, report.lsd, report.mrstft]).all()
        assert len(report.mrstft_parts) == len(DEFAULT_RESOLUTIONS)
        assert report.mrstft == pytest.approx(np.mean(report.mrstft_parts), rel=1e-12)
        round_trip = json.loads(json.dumps(report.to_dict()))
        assert round_trip["snr"] == report.snr

    def test_ideal_pair_reports_ideal_values(self):
        x = ref_signal(n=RATE, seed=22)
        report = evaluate_pair(x, x)
        assert report.snr == DB_CAP
        assert report.si_snr == DB_CAP
        assert report.lsd == 0.0
        assert report.mrstft == 0.0


def count_stfts(monkeypatch):
    """Wrap metrics.stft; returns the list of (frame, hop) it was called with."""
    calls = []

    def counting_stft(sig, frame, hop):
        calls.append((frame, hop))
        return signal_stft(sig, frame=frame, hop=hop)

    monkeypatch.setattr(metrics, "stft", counting_stft)
    return calls


def separate_report(ref, est, resolutions=DEFAULT_RESOLUTIONS) -> MetricReport:
    value, parts = mrstft(ref, est, resolutions)
    return MetricReport(snr=snr(ref, est), si_snr=si_snr(ref, est), lsd=lsd(ref, est),
                        mrstft=value, mrstft_parts=parts)


class TestSharedSpectra:
    def test_six_stfts_with_default_resolutions(self, monkeypatch):
        """lsd's 512/128 spectra are the first mrstft resolution's: 2 signals
        x 3 resolutions, none computed twice."""
        calls = count_stfts(monkeypatch)
        x = ref_signal(n=RATE, seed=30)
        evaluate_pair(x, with_noise_at(x, 10.0, seed=31))
        assert len(calls) == 6
        assert sorted(calls) == sorted(DEFAULT_RESOLUTIONS * 2)

    @pytest.mark.parametrize("resolutions", [DEFAULT_RESOLUTIONS, ((256, 64), (512, 160))],
                             ids=["default", "without-lsd-framing"])
    def test_report_bit_equal_to_separate_metrics(self, resolutions):
        x = ref_signal(n=RATE + 77, seed=32)
        for est in (with_noise_at(x, 5.0, seed=33), 0.5 * x, x):
            report = evaluate_pair(x, est, resolutions=resolutions)
            assert report == separate_report(x, est, resolutions)
        x32 = x.astype(np.float32)
        est32 = with_noise_at(x, 5.0, seed=34).astype(np.float32)
        assert evaluate_pair(x32, est32, resolutions) == separate_report(x32, est32, resolutions)

    def test_memo_closed_after_return_and_after_error(self, monkeypatch):
        calls = count_stfts(monkeypatch)
        x = ref_signal(n=RATE, seed=35)
        est = with_noise_at(x, 10.0, seed=36)
        evaluate_pair(x, est)
        calls.clear()
        lsd(x, est)
        y = ref_signal(n=RATE, seed=37)
        lsd(y, 2.0 * y)
        assert calls == [(512, 128)] * 4
        with pytest.raises(ConfigError):
            evaluate_pair(x, est, resolutions=())
        calls.clear()
        lsd(x, est)
        assert len(calls) == 2

    def test_threads_get_their_own_reports(self, monkeypatch):
        """Two threads inside evaluate_pair at once each make their own six
        STFTs and get the report of their own pair."""
        barrier = threading.Barrier(2)
        per_thread: dict[int, int] = {}

        def meeting_stft(sig, frame, hop):
            ident = threading.get_ident()
            per_thread[ident] = per_thread.get(ident, 0) + 1
            if per_thread[ident] == 1:
                barrier.wait(timeout=30)
            return signal_stft(sig, frame=frame, hop=hop)

        x = ref_signal(n=RATE, seed=38)
        y = ref_signal(n=RATE, seed=39, amp=0.1)
        pairs = [(x, with_noise_at(x, 3.0, seed=40)), (y, with_noise_at(y, 20.0, seed=41))]
        expected = [separate_report(ref, est) for ref, est in pairs]
        monkeypatch.setattr(metrics, "stft", meeting_stft)
        with ThreadPoolExecutor(max_workers=2) as pool:
            reports = list(pool.map(lambda pair: evaluate_pair(*pair), pairs))
        assert reports == expected
        assert reports[0] != reports[1]
        assert sorted(per_thread.values()) == [6, 6]
