"""Distortion engine tests.

Layered the same way the engine is: biquad designs against closed-form
transfer-function values, each primitive against an identity-parameter
case plus a hand-derived response or bound, then chain sampling against
counting statistics (chi-square on the length distribution, 3-sigma
multinomial bands on type frequencies) and chain application against
constructed oracles (exact delay recovery, exact SNR realization,
bit-exact replay from the JSON log). The rewritten hot kernels are pinned
against the plain forms they replaced, which live only in this file.
"""

import hashlib
import json
import numbers
from dataclasses import replace

import numpy as np
import pytest
import scipy.signal

from scorewave import ConfigError, NumericError
from scorewave.distort import (
    ENGINE_VERSION,
    PRIMITIVES,
    ChainConfig,
    DistortionSpec,
    apply_chain,
    biquad,
    chain_from_json,
    chain_from_record,
    primitives,
    sample_chain,
)
from scorewave.distort.chain import DistortedPair, _align_offset
from scorewave.distort.primitives import Log, Span
from scorewave.signal import Signal, istft, stft

RATE = 16000


def noise_signal(n=RATE, seed=0, amp=0.3):
    return amp * np.random.default_rng(seed).standard_normal(n)


def tone_signal(freq, n=2 * RATE, amp=0.3):
    return amp * np.sin(2 * np.pi * freq * np.arange(n) / RATE)


def sig(x):
    return Signal(samples=x, sample_rate=RATE)


def run_one(x, kind, params, seed=1234, cfg=None):
    pair = apply_chain(sig(x), [DistortionSpec(kind=kind, params=params, seed=seed)], cfg)
    return pair.distorted.samples


def apply_direct(x, kind, params, seed=1234, assets=None):
    prim = PRIMITIVES[kind]
    return prim.apply(x, RATE, params, np.random.default_rng(seed), assets or {})


def reference_low_shelf(f0, gain_db, rate, q):
    """The cookbook low shelf as written out before the shelves shared one
    design."""
    w0 = 2.0 * np.pi * f0 / rate
    alpha = np.sin(w0) / (2.0 * q)
    big_a = 10.0 ** (gain_db / 40.0)
    c = np.cos(w0)
    root = 2.0 * np.sqrt(big_a) * alpha
    b = big_a * np.array([(big_a + 1) - (big_a - 1) * c + root,
                          2 * ((big_a - 1) - (big_a + 1) * c),
                          (big_a + 1) - (big_a - 1) * c - root])
    a = np.array([(big_a + 1) + (big_a - 1) * c + root,
                  -2 * ((big_a - 1) + (big_a + 1) * c),
                  (big_a + 1) + (big_a - 1) * c - root])
    return b / a[0], a / a[0]


def reference_high_shelf(f0, gain_db, rate, q):
    """The cookbook high shelf, likewise."""
    w0 = 2.0 * np.pi * f0 / rate
    alpha = np.sin(w0) / (2.0 * q)
    big_a = 10.0 ** (gain_db / 40.0)
    c = np.cos(w0)
    root = 2.0 * np.sqrt(big_a) * alpha
    b = big_a * np.array([(big_a + 1) + (big_a - 1) * c + root,
                          -2 * ((big_a - 1) + (big_a + 1) * c),
                          (big_a + 1) + (big_a - 1) * c - root])
    a = np.array([(big_a + 1) - (big_a - 1) * c + root,
                  2 * ((big_a - 1) - (big_a + 1) * c),
                  (big_a + 1) - (big_a - 1) * c - root])
    return b / a[0], a / a[0]


class TestBiquadDesigns:
    """Closed-form transfer-function values for the filter designs.

    With A = 10^(g/40), the peaking filter's response at its center
    frequency reduces to exactly A^2 (numerator and denominator collapse
    to 2*j*alpha*A*sin(w0) and 2*j*(alpha/A)*sin(w0)); the notch has an
    exact zero on the unit circle at w0; the shelves pin DC/Nyquist gain
    to A^2 on their boost side and 1 on the other; the resonator is
    normalized to unit gain at its pole frequency by construction.
    """

    def test_low_pass_minus_3db_at_cutoff(self):
        b, a = biquad.low_pass(1000.0, 1.0 / np.sqrt(2.0), RATE)
        mag = biquad.magnitude_at(b, a, 1000.0, RATE)
        assert abs(20 * np.log10(mag) - (-3.0103)) < 0.1
        assert abs(biquad.magnitude_at(b, a, 1.0, RATE) - 1.0) < 1e-3
        assert biquad.magnitude_at(b, a, 7900.0, RATE) < 0.05

    def test_high_pass_minus_3db_at_cutoff(self):
        b, a = biquad.high_pass(1000.0, 1.0 / np.sqrt(2.0), RATE)
        mag = biquad.magnitude_at(b, a, 1000.0, RATE)
        assert abs(20 * np.log10(mag) - (-3.0103)) < 0.1
        assert biquad.magnitude_at(b, a, 20.0, RATE) < 0.01
        assert abs(biquad.magnitude_at(b, a, 7990.0, RATE) - 1.0) < 1e-3

    def test_band_pass_unit_peak(self):
        b, a = biquad.band_pass(2000.0, 2.0, RATE)
        assert abs(biquad.magnitude_at(b, a, 2000.0, RATE) - 1.0) < 1e-9
        assert biquad.magnitude_at(b, a, 50.0, RATE) < 0.05
        assert biquad.magnitude_at(b, a, 7900.0, RATE) < 0.05

    def test_notch_exact_zero_and_unit_skirts(self):
        b, a = biquad.notch(1500.0, 3.0, RATE)
        assert biquad.magnitude_at(b, a, 1500.0, RATE) < 1e-10
        assert abs(biquad.magnitude_at(b, a, 1.0, RATE) - 1.0) < 1e-6
        assert abs(biquad.magnitude_at(b, a, 7999.0, RATE) - 1.0) < 1e-6

    @pytest.mark.parametrize("gain_db", [-12.0, -6.0, 6.0, 12.0])
    def test_peaking_center_gain_exact(self, gain_db):
        b, a = biquad.peaking(2500.0, 1.5, gain_db, RATE)
        mag = biquad.magnitude_at(b, a, 2500.0, RATE)
        assert mag == pytest.approx(10.0 ** (gain_db / 20.0), rel=1e-9)

    @pytest.mark.parametrize("gain_db", [-10.0, 8.0])
    def test_low_shelf_dc_and_nyquist(self, gain_db):
        b, a = biquad.low_shelf(500.0, gain_db, RATE)
        assert biquad.magnitude_at(b, a, 1e-3, RATE) == pytest.approx(
            10.0 ** (gain_db / 20.0), rel=1e-6)
        assert biquad.magnitude_at(b, a, 7999.9, RATE) == pytest.approx(1.0, rel=1e-3)

    @pytest.mark.parametrize("gain_db", [-10.0, 8.0])
    def test_high_shelf_dc_and_nyquist(self, gain_db):
        b, a = biquad.high_shelf(5000.0, gain_db, RATE)
        assert biquad.magnitude_at(b, a, 7999.9, RATE) == pytest.approx(
            10.0 ** (gain_db / 20.0), rel=1e-3)
        assert biquad.magnitude_at(b, a, 1e-3, RATE) == pytest.approx(1.0, rel=1e-6)

    @pytest.mark.parametrize("rate", [8000, 11025, 16000, 22050, 32000, 44100, 48000])
    def test_shelves_equal_the_cookbook_formulas_bit_for_bit(self, rate):
        """Both shelves come from one design; each must keep the bits of its
        own cookbook formula over a sweep of f0, gain and q."""
        rng = np.random.default_rng(rate)
        for _ in range(300):
            f0 = float(np.exp(rng.uniform(np.log(10.0), np.log(0.499 * rate))))
            gain_db, q = rng.uniform(-30.0, 30.0), rng.uniform(0.1, 8.0)
            for design, reference in ((biquad.low_shelf, reference_low_shelf),
                                      (biquad.high_shelf, reference_high_shelf)):
                for got, want in zip(design(f0, gain_db, rate, q), reference(f0, gain_db, rate, q)):
                    assert got.tobytes() == want.tobytes(), (design.__name__, f0, gain_db, q)
            for got, want in zip(biquad.high_shelf(f0, gain_db, rate),
                                 reference_high_shelf(f0, gain_db, rate, 1.0 / np.sqrt(2.0))):
                assert got.tobytes() == want.tobytes()

    def test_two_pole_unit_gain_at_resonance(self):
        b, a = biquad.two_pole(1200.0, 0.97, RATE)
        assert biquad.magnitude_at(b, a, 1200.0, RATE) == pytest.approx(1.0, rel=1e-9)
        assert biquad.magnitude_at(b, a, 6000.0, RATE) < 0.5

    @pytest.mark.parametrize(
        "call",
        [
            lambda: biquad.low_pass(9000.0, 1.0, RATE),
            lambda: biquad.low_pass(0.0, 1.0, RATE),
            lambda: biquad.high_pass(1000.0, 0.0, RATE),
            lambda: biquad.two_pole(1000.0, 1.0, RATE),
            lambda: biquad.two_pole(1000.0, 0.0, RATE),
        ],
    )
    def test_invalid_designs_rejected(self, call):
        with pytest.raises(ConfigError):
            call()

    def test_stability_sweep_tail_below_1e9(self):
        """Impulse responses of every filter design, with parameters drawn
        from the published bounds, must decay below 1e-9 within 1 s."""
        rng = np.random.default_rng(11)
        impulse = np.zeros(2 * RATE)
        impulse[0] = 1.0
        designs = []
        for _ in range(50):
            f = np.exp(rng.uniform(np.log(100.0), np.log(7200.0)))
            q = rng.uniform(0.5, 5.0)
            g = rng.uniform(-18.0, 18.0)
            r = rng.uniform(0.9, 0.99)
            designs += [
                biquad.low_pass(min(f, 7200.0), q, RATE),
                biquad.high_pass(min(f, 2000.0), q, RATE),
                biquad.band_pass(min(f, 3000.0), q, RATE),
                biquad.notch(min(f, 4000.0), q, RATE),
                biquad.peaking(min(f, 7000.0), q, g, RATE),
                biquad.low_shelf(min(f, 300.0), abs(g), RATE),
                biquad.high_shelf(max(min(f, 7500.0), 4000.0), abs(g), RATE),
                biquad.two_pole(min(f, 4000.0), r, RATE),
            ]
        for b, a in designs:
            h = scipy.signal.lfilter(b, a, impulse)
            assert np.max(np.abs(h[RATE:])) < 1e-9


class TestIdentityParameters:
    """Each primitive with its do-nothing parameter setting. Exact
    equality where the arithmetic is exact (pure gains, empty masks),
    analysis-resynthesis tolerance where a spectrogram round trip is
    involved."""

    X = noise_signal(n=RATE, seed=3)

    @pytest.mark.parametrize(
        "kind,params",
        [
            ("clip", {"threshold": 1.0}),
            ("overdrive", {"gain": 5.0, "mix": 0.0}),
            ("tremolo", {"rate_hz": 3.0, "depth": 0.0}),
            ("random_eq", {"n_bands": 0, "freq_lo": 100.0, "freq_hi": 7000.0,
                           "gain_db_lo": -12.0, "gain_db_hi": 12.0,
                           "q_lo": 0.5, "q_hi": 5.0}),
            ("destroy_levels", {"segment_ms": 200.0, "prob": 0.0,
                                "gain_db_lo": -35.0, "gain_db_hi": -5.0}),
            ("silent_gap", {"gap_ms": 50.0, "prob": 0.0}),
            ("frame_shuffle", {"frame_ms": 40.0, "prob": 0.0}),
            ("sample_duplicate", {"block_ms": 10.0, "prob": 0.0}),
            ("insert_attenuation", {"segment_ms": 50.0, "prob": 0.0, "gain_db": -12.0}),
            ("insert_noise", {"segment_ms": 50.0, "prob": 0.0, "snr_db": 5.0}),
            ("perturb_amplitude", {"segment_ms": 100.0, "prob": 0.0,
                                   "gain_db_lo": -8.0, "gain_db_hi": 8.0}),
            ("dc_component", {"amplitude": 0.0}),
            ("down_sample", {"factor": 1, "method": "hold"}),
        ],
    )
    def test_identity_exact(self, kind, params):
        y = run_one(self.X, kind, params)
        assert np.array_equal(y, self.X)

    @pytest.mark.parametrize("ratio_kind", ["simple_compressor", "simple_expander"])
    def test_unit_ratio_identity(self, ratio_kind):
        y = run_one(self.X, ratio_kind, {"ratio": 1.0})
        np.testing.assert_allclose(y, self.X, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "kind,params",
        [
            ("griffin_lim", {"window": 512, "iterations": 0}),
            ("phase_randomization", {"window": 512, "amount": 0.0}),
            ("phase_shuffle", {"window": 512, "amount": 0.0}),
            ("spectral_holes", {"window": 512, "n_holes": 0, "max_bins": 40,
                                "max_frames": 20}),
            ("spectral_noise", {"window": 512, "amount": 0.0}),
        ],
    )
    def test_spectral_identity_within_roundtrip(self, kind, params):
        y = run_one(self.X, kind, params)
        assert np.max(np.abs(y - self.X)) < 1e-9

    def test_phase_shuffle_self_swap_possible(self):
        # amount = 0 keeps every frame's phase; nothing may leak through rng
        y1 = run_one(self.X, "phase_shuffle", {"window": 256, "amount": 0.0}, seed=1)
        y2 = run_one(self.X, "phase_shuffle", {"window": 256, "amount": 0.0}, seed=2)
        np.testing.assert_array_equal(y1, y2)

    def test_identity_chain_offset_zero(self):
        pair = apply_chain(
            sig(self.X), [DistortionSpec(kind="clip", params={"threshold": 1.0}, seed=0)])
        assert pair.offset == 0
        assert np.array_equal(pair.distorted.samples, self.X)
        assert np.array_equal(pair.clean.samples, self.X)


class TestPrimitiveResponses:
    """Hand-derived response or bound for each primitive family."""

    def test_clip_bound_is_exact(self):
        x = noise_signal(seed=4)
        y = run_one(x, "clip", {"threshold": 0.5})
        limit = 0.5 * np.max(np.abs(x))
        assert np.max(np.abs(y)) == limit
        assert np.all(np.abs(y) <= limit)

    def test_mu_law_level_count(self):
        x = np.linspace(-0.9, 0.9, 4001)
        for bits in (4, 6, 8):
            y = apply_direct(x, "mu_law", {"bits": bits, "mu": 255.0})
            assert len(np.unique(y)) <= 2**bits + 1
            assert np.max(np.abs(y)) <= 0.9 + 1e-12
        coarse = apply_direct(x, "mu_law", {"bits": 4, "mu": 255.0})
        fine = apply_direct(x, "mu_law", {"bits": 8, "mu": 255.0})
        assert np.max(np.abs(fine - x)) < np.max(np.abs(coarse - x))

    def test_overdrive_full_mix_bounded(self):
        x = tone_signal(440.0, amp=1.0)
        y = run_one(x, "overdrive", {"gain": 20.0, "mix": 1.0})
        assert np.max(np.abs(y)) <= 1.0 / np.tanh(20.0) + 1e-12
        # strong drive squares the tone up: rms grows toward the peak
        assert np.sqrt(np.mean(y**2)) > 0.9

    def test_simple_compressor_square_root_law(self):
        x = np.array([0.0, 0.25, -0.25, 1.0])
        y = apply_direct(x, "simple_compressor", {"ratio": 2.0})
        np.testing.assert_allclose(y, [0.0, 0.5, -0.5, 1.0], atol=1e-12)

    def test_simple_expander_square_law(self):
        x = np.array([0.0, 0.25, -0.25, 1.0])
        y = apply_direct(x, "simple_expander", {"ratio": 2.0})
        np.testing.assert_allclose(y, [0.0, 0.0625, -0.0625, 1.0], atol=1e-12)

    def test_compressor_steady_state_gain(self):
        """Constant 0.5 input (-6.02 dBFS), threshold -20 dB, ratio 4:
        steady-state gain is -(threshold excess)*(1 - 1/ratio) =
        -13.979 * 0.75 = -10.484 dB once the envelope has converged."""
        x = 0.5 * np.ones(2 * RATE)
        y = apply_direct(x, "compressor", {"threshold_db": -20.0, "ratio": 4.0,
                                           "attack_ms": 5.0, "release_ms": 50.0})
        over = 20.0 * np.log10(0.5) - (-20.0)
        expected = 0.5 * 10.0 ** (-over * (1.0 - 0.25) / 20.0)
        assert y[-1] == pytest.approx(expected, rel=0.02)

    def test_noise_gate_blocks_quiet_passes_loud(self):
        x = np.concatenate([0.001 * np.ones(RATE // 2), 0.5 * np.ones(RATE // 2)])
        y = apply_direct(x, "noise_gate", {"threshold_db": -40.0, "attack_ms": 2.0,
                                           "release_ms": 50.0})
        assert np.max(np.abs(y[: RATE // 4])) < 1e-4
        assert y[-1] > 0.45

    def test_tremolo_depth_sets_modulation_floor(self):
        x = np.ones(2 * RATE)
        y = apply_direct(x, "tremolo", {"rate_hz": 2.0, "depth": 0.6}, seed=5)
        assert y.max() == pytest.approx(1.0, abs=1e-3)
        assert y.min() == pytest.approx(0.4, abs=1e-3)

    def test_destroy_levels_known_gain(self):
        x = noise_signal(seed=6)
        y = run_one(x, "destroy_levels", {"segment_ms": 100.0, "prob": 1.0,
                                          "gain_db_lo": -20.0, "gain_db_hi": -20.0})
        np.testing.assert_array_equal(y, x * 10.0 ** (-1.0))

    def test_insert_attenuation_full_coverage(self):
        x = noise_signal(seed=7)
        y = run_one(x, "insert_attenuation",
                    {"segment_ms": 50.0, "prob": 1.0, "gain_db": -12.0})
        np.testing.assert_array_equal(y, x * 10.0 ** (-12.0 / 20.0))

    def test_perturb_amplitude_degenerate_range(self):
        x = noise_signal(seed=8)
        y = run_one(x, "perturb_amplitude", {"segment_ms": 100.0, "prob": 1.0,
                                             "gain_db_lo": 6.0, "gain_db_hi": 6.0})
        np.testing.assert_array_equal(y, x * 10.0 ** (6.0 / 20.0))

    def test_silent_gap_exact_zeros(self):
        x = noise_signal(seed=9)
        y_all = run_one(x, "silent_gap", {"gap_ms": 50.0, "prob": 1.0})
        assert np.all(y_all == 0.0)
        y = run_one(x, "silent_gap", {"gap_ms": 50.0, "prob": 0.4}, seed=21)
        gap = int(50.0 * RATE / 1000.0)
        zeroed = y == 0.0
        assert zeroed.any() and not zeroed.all()
        # zeroed samples come in whole segments: each segment all-or-nothing
        for start in range(0, x.size, gap):
            seg = zeroed[start : start + gap]
            assert seg.all() or not seg.any()
        np.testing.assert_array_equal(y[~zeroed], x[~zeroed])

    def test_sample_duplicate_copies_previous_block(self):
        x = noise_signal(seed=10)
        block = int(10.0 * RATE / 1000.0)
        y = run_one(x, "sample_duplicate", {"block_ms": 10.0, "prob": 1.0})
        np.testing.assert_array_equal(y[block : 2 * block], x[:block])

    def test_frame_shuffle_preserves_multiset(self):
        x = noise_signal(seed=12)
        frame = int(40.0 * RATE / 1000.0)
        y = run_one(x, "frame_shuffle", {"frame_ms": 40.0, "prob": 1.0})
        covered = (x.size // frame) * frame
        np.testing.assert_array_equal(np.sort(y[:covered]), np.sort(x[:covered]))
        assert not np.array_equal(y, x)

    def test_dc_component_shifts_mean(self):
        x = noise_signal(seed=13)
        y = apply_direct(x, "dc_component", {"amplitude": 0.1}, seed=2)
        assert abs(abs(np.mean(y) - np.mean(x)) - 0.1) < 1e-12

    @pytest.mark.parametrize("kind", ["electricity_tone", "random_tone"])
    def test_tone_snr_realized_exactly(self, kind):
        x = noise_signal(n=2 * RATE, seed=14)
        params = {"snr_db": 8.0, "freq": 60.0 if kind == "electricity_tone" else 700.0,
                  "waveform": "sine"}
        y = run_one(x, kind, params)
        added = y - x
        measured = 20.0 * np.log10(np.sqrt(np.mean(x**2)) / np.sqrt(np.mean(added**2)))
        assert measured == pytest.approx(8.0, abs=1e-9)

    def test_colored_noise_spectral_slope(self):
        """Mean band power an octave apart must differ by the slope:
        amplitude shaping f^(slope/(20 log10 2)) makes the 2-4 kHz octave
        sit slope dB below/above the 1-2 kHz octave."""
        x = np.zeros(2**17)
        for slope in (-6.0, 6.0):
            y = apply_direct(x + 1e-30, "colored_noise",
                             {"snr_db": -40.0, "slope_db_oct": slope}, seed=15)
            spectrum = np.abs(np.fft.rfft(y)) ** 2
            freqs = np.fft.rfftfreq(y.size, 1.0 / RATE)
            lo = spectrum[(freqs >= 1000) & (freqs < 2000)].mean()
            hi = spectrum[(freqs >= 2000) & (freqs < 4000)].mean()
            assert 10.0 * np.log10(hi / lo) == pytest.approx(slope, abs=1.0)

    def test_colored_noise_snr_realized(self):
        x = noise_signal(n=2 * RATE, seed=16)
        y = run_one(x, "colored_noise", {"snr_db": 3.0, "slope_db_oct": -3.0})
        added = y - x
        measured = 20.0 * np.log10(np.sqrt(np.mean(x**2)) / np.sqrt(np.mean(added**2)))
        assert measured == pytest.approx(3.0, abs=1e-9)

    def test_insert_noise_snr_over_active_support(self):
        x = noise_signal(n=2 * RATE, seed=17)
        y = run_one(x, "insert_noise", {"segment_ms": 50.0, "prob": 1.0, "snr_db": 6.0})
        added = y - x
        measured = 20.0 * np.log10(np.sqrt(np.mean(x**2)) / np.sqrt(np.mean(added**2)))
        assert measured == pytest.approx(6.0, abs=1e-9)

    def test_impulsive_noise_snr_realized(self):
        # direct applier: burst peaks would trip the chain's clip guard
        x = noise_signal(n=2 * RATE, seed=18)
        y = apply_direct(x, "impulsive_noise",
                         {"snr_db": 5.0, "rate_hz": 5.0, "burst_ms": 20.0}, seed=3)
        added = y - x
        assert np.any(added != 0.0)
        measured = 20.0 * np.log10(np.sqrt(np.mean(x**2)) / np.sqrt(np.mean(added**2)))
        assert measured == pytest.approx(5.0, abs=1e-9)

    def test_additive_noise_needs_pool(self):
        x = noise_signal(seed=19)
        spec = DistortionSpec(kind="additive_noise", params={"snr_db": 10.0}, seed=0)
        with pytest.raises(ConfigError, match=r"chain step 0.*noise_pool"):
            apply_chain(sig(x), [spec])

    def test_additive_noise_snr_with_pool(self):
        x = noise_signal(n=2 * RATE, seed=20)
        pool = (np.random.default_rng(99).standard_normal(RATE // 2),)  # forces tiling
        cfg = ChainConfig(noise_pool=pool)
        y = run_one(x, "additive_noise", {"snr_db": 12.0}, cfg=cfg)
        added = y - x
        measured = 20.0 * np.log10(np.sqrt(np.mean(x**2)) / np.sqrt(np.mean(added**2)))
        assert measured == pytest.approx(12.0, abs=1e-9)

    def test_down_sample_hold_plateaus(self):
        x = noise_signal(seed=22)
        y = apply_direct(x, "down_sample", {"factor": 4, "method": "hold"})
        assert y.size == x.size
        for k in range(0, 64, 4):
            np.testing.assert_array_equal(y[k : k + 4], np.full(4, x[k]))

    def test_down_sample_poly_kills_out_of_band_tone(self):
        keep = apply_direct(tone_signal(1000.0), "down_sample",
                            {"factor": 2, "method": "poly"})
        kill = apply_direct(tone_signal(5000.0), "down_sample",
                            {"factor": 2, "method": "poly"})
        ref = np.sqrt(np.mean(tone_signal(1000.0) ** 2))
        assert np.sqrt(np.mean(keep**2)) > 0.9 * ref
        assert np.sqrt(np.mean(kill**2)) < 0.1 * ref

    def test_telephone_band_selectivity(self):
        params = {"low_hz": 300.0, "high_hz": 3300.0, "ratio": 1.5}
        rms = {}
        for f in (100.0, 1000.0, 7000.0):
            y = apply_direct(tone_signal(f), "telephone", params)
            rms[f] = np.sqrt(np.mean(y[RATE // 2 :] ** 2))
        assert 20.0 * np.log10(rms[1000.0] / rms[100.0]) > 15.0
        assert 20.0 * np.log10(rms[1000.0] / rms[7000.0]) > 15.0

    def test_algorithmic_reverb_tail_decays_at_t60(self):
        """Comb feedback g = 10^(-3 d / (t60 fs)) makes the envelope fall
        by 60 dB per t60; one t60 after the impulse the tail must sit at
        least ~55 dB below the direct peak."""
        x = np.zeros(2 * RATE)
        x[0] = 1.0
        y = apply_direct(x, "algorithmic_reverb", {"t60": 0.4, "wet": 1.0})
        peak = np.max(np.abs(y))
        tail = np.max(np.abs(y[int(0.4 * RATE) + int(0.05 * RATE):]))
        assert tail < peak * 10.0 ** (-55.0 / 20.0)

    def test_short_delay_structure(self):
        x = noise_signal(seed=23)
        y = apply_direct(x, "short_delay", {"delay_ms": 6.25, "gain": 0.8})
        assert y.size == x.size + 100
        assert np.all(y[:100] == 0.0)
        np.testing.assert_array_equal(y[100:], 0.8 * x)

    def test_rir_offset_matches_predelay(self):
        x = noise_signal(n=RATE, seed=24)
        params = {"t60": 0.3, "ir_ms": 200.0, "predelay_ms": 10.0, "wet": 0.3}
        pair = apply_chain(sig(x), [DistortionSpec(kind="rir_convolution",
                                                   params=params, seed=7)])
        assert pair.offset == 160
        assert len(pair.clean) == len(pair.distorted)

    def test_rir_uses_supplied_pool(self):
        x = noise_signal(seed=25)
        ir = np.zeros(64)
        ir[0] = 1.0
        ir[40] = 0.25
        cfg = ChainConfig(rir_pool=(ir,))
        y = run_one(x, "rir_convolution",
                    {"t60": 0.3, "ir_ms": 200.0, "predelay_ms": 0.0, "wet": 0.5},
                    seed=8, cfg=cfg)
        # output is conv(x, gain * ir): collinear with conv(x, ir)
        ref = np.convolve(x, ir)[: y.size]
        cos = np.dot(y, ref) / (np.linalg.norm(y) * np.linalg.norm(ref))
        assert cos == pytest.approx(1.0, abs=1e-9)

    def test_spectral_holes_remove_energy(self):
        x = noise_signal(n=RATE, seed=26)
        y = run_one(x, "spectral_holes", {"window": 512, "n_holes": 20,
                                          "max_bins": 40, "max_frames": 20})
        assert np.sum(y**2) < 0.999 * np.sum(x**2)
        assert np.sum(y**2) > 0.2 * np.sum(x**2)

    def test_phase_randomization_decorrelates(self):
        x = noise_signal(n=RATE, seed=27)
        y = run_one(x, "phase_randomization", {"window": 512, "amount": 1.0})
        r = np.corrcoef(x, y)[0, 1]
        assert abs(r) < 0.3
        assert 0.3 < np.sqrt(np.mean(y**2)) / np.sqrt(np.mean(x**2)) < 3.0

    def test_griffin_lim_reconstruction_beats_random_phase(self):
        """Iterating projection onto the magnitude constraint must shrink
        the spectral magnitude error relative to the random-phase start."""
        x = tone_signal(500.0, n=RATE)
        from scorewave.signal import stft

        target = np.abs(stft(sig(x), frame=512, hop=128).data)

        def mag_err(y):
            got = np.abs(stft(sig(y), frame=512, hop=128).data)
            return np.linalg.norm(got - target) / np.linalg.norm(target)

        y1 = run_one(x, "griffin_lim", {"window": 512, "iterations": 1}, seed=9)
        y30 = run_one(x, "griffin_lim", {"window": 512, "iterations": 30}, seed=9)
        assert mag_err(y30) < mag_err(y1)

    def test_nonstationary_masks_leave_quiet_segments(self):
        x = noise_signal(n=4 * RATE, seed=28)
        y = run_one(x, "nonstat_random_tone",
                    {"snr_db": 0.0, "freq": 500.0, "waveform": "sine",
                     "segment_ms": 250.0, "prob": 0.5}, seed=10)
        added = y - x
        assert np.any(added == 0.0) and np.any(added != 0.0)
        active = added != 0.0
        measured = 20.0 * np.log10(
            np.sqrt(np.mean(x[active] ** 2)) / np.sqrt(np.mean(added[active] ** 2)))
        assert measured == pytest.approx(0.0, abs=1e-9)

    def test_random_eq_changes_spectrum_not_energy_wildly(self):
        x = noise_signal(n=RATE, seed=29)
        y = run_one(x, "random_eq", {"n_bands": 8, "freq_lo": 100.0, "freq_hi": 7000.0,
                                     "gain_db_lo": -12.0, "gain_db_hi": 12.0,
                                     "q_lo": 0.5, "q_hi": 5.0})
        assert not np.array_equal(y, x)
        ratio = np.sqrt(np.mean(y**2)) / np.sqrt(np.mean(x**2))
        assert 10.0 ** (-12.0 / 20.0) < ratio < 10.0 ** (12.0 / 20.0)


class TestAboveNyquist:
    """Frequency bounds are in Hz whatever the rate, so at 8 kHz a filter can
    be drawn at or above Nyquist; there no section is designed and each type
    does what the primitives module docstring says."""

    LOW_RATE = 8000

    def apply_low(self, kind, params, x, rate=LOW_RATE):
        return PRIMITIVES[kind].apply(x, rate, params, np.random.default_rng(5), {})

    @pytest.mark.parametrize("kind, params, expect", [
        ("low_pass", {"freq": 4000.0, "q": 0.7}, "unchanged"),
        ("low_pass", {"freq": 7200.0, "q": 5.0}, "unchanged"),
        ("sibilance_boost", {"freq": 4000.0, "gain_db": 12.0}, "unchanged"),
        ("band_reject", {"freq": 4000.0, "q": 1.0}, "unchanged"),
        ("two_pole", {"freq": 5000.0, "radius": 0.95}, "unchanged"),
        ("high_pass", {"freq": 4000.0, "q": 0.7}, "silence"),
        ("band_pass", {"freq": 4500.0, "q": 1.0}, "silence"),
        ("plosive_boost", {"freq": 4000.0, "gain_db": 6.0}, "shelf_gain"),
    ])
    def test_biquad_types(self, kind, params, expect):
        x = noise_signal(n=4000, seed=3)
        want = {"unchanged": x, "silence": np.zeros_like(x),
                "shelf_gain": x * 10.0 ** (6.0 / 20.0)}[expect]
        np.testing.assert_array_equal(self.apply_low(kind, params, x), want)

    def test_just_below_nyquist_still_filters(self):
        x = noise_signal(n=4000, seed=3)
        b, a = biquad.low_pass(3999.0, 0.7, self.LOW_RATE)
        np.testing.assert_array_equal(self.apply_low("low_pass", {"freq": 3999.0, "q": 0.7}, x),
                                      scipy.signal.lfilter(b, a, x))

    def test_random_eq_skips_out_of_band_bands_and_keeps_their_draws(self):
        params = {"n_bands": 10, "freq_lo": 100.0, "freq_hi": 7000.0,
                  "gain_db_lo": -12.0, "gain_db_hi": 12.0, "q_lo": 0.5, "q_hi": 5.0}
        x = noise_signal(n=4000, seed=4)
        rng = np.random.default_rng(5)
        want, skipped = x, 0
        for _ in range(10):
            f0 = float(np.exp(rng.uniform(np.log(100.0), np.log(7000.0))))
            gain, q = rng.uniform(-12.0, 12.0), rng.uniform(0.5, 5.0)
            if f0 >= self.LOW_RATE / 2:
                skipped += 1
                continue
            want = scipy.signal.lfilter(*biquad.peaking(f0, q, gain, self.LOW_RATE), want)
        assert 0 < skipped < 10
        np.testing.assert_array_equal(self.apply_low("random_eq", params, x), want)

    def test_telephone_below_7200_hz_keeps_its_high_pass(self):
        params = {"low_hz": 300.0, "high_hz": 3300.0, "ratio": 2.0}
        x = noise_signal(n=4000, seed=6)
        want = x
        for _ in range(2):
            want = scipy.signal.lfilter(*biquad.high_pass(300.0, 1.0 / np.sqrt(2.0), 6000), want)
        want = PRIMITIVES["simple_compressor"].apply(want, 6000, {"ratio": 2.0}, None, {})
        np.testing.assert_array_equal(self.apply_low("telephone", params, x, rate=6000), want)


# -- reference kernels: the straightforward forms the engine's kernels replaced


def reference_envelope(x, rate, attack_ms, release_ms):
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


def reference_comb(x, d, g):
    a = np.zeros(d + 1)
    a[0], a[-1] = 1.0, -g
    return scipy.signal.lfilter([1.0], a, x)


def reference_rir(x, rate, p, rng, assets):
    pool = assets.get("rir_pool") or ()
    if pool:
        ir = np.asarray(pool[int(rng.integers(len(pool)))], dtype=np.float64)
        ir = ir * rng.uniform(0.7, 1.0)
    else:
        length = max(8, int(p["ir_ms"] * rate / 1000.0))
        t = np.arange(length) / rate
        tail = rng.standard_normal(length) * 10.0 ** (-3.0 * t / p["t60"])
        tail /= max(np.sqrt(np.sum(tail**2)), 1e-12)
        pre = int(p["predelay_ms"] * rate / 1000.0)
        ir = np.concatenate([np.zeros(pre), [1.0], p["wet"] * tail])
    return np.convolve(x, ir)


def reference_griffin_lim(x, rate, p, rng):
    window = int(p["window"])
    spec = stft(sig(x), frame=window, hop=window // 4)
    mag = np.abs(spec.data)
    data = mag * np.exp(1j * rng.uniform(-np.pi, np.pi, size=mag.shape))
    for _ in range(int(p["iterations"])):
        y = istft(replace(spec, data=data)).samples
        est = stft(sig(y), frame=window, hop=window // 4)
        data = mag * np.exp(1j * np.angle(est.data))
    return istft(replace(spec, data=data)).samples


def version2_griffin_lim(x, rate, p, rng):
    """`_apply_griffin_lim` as engine version 2 wrote it: a whole `istft`
    and `stft` per iteration, and the projection as a complex divide by
    |z| and a multiply by the magnitude."""
    window = int(p["window"])
    spec = stft(Signal(samples=x, sample_rate=rate), frame=window, hop=window // 4)
    iters = int(p["iterations"])
    if iters == 0:
        return istft(spec).samples
    mag = np.abs(spec.data)
    phase = rng.uniform(-np.pi, np.pi, size=mag.shape)
    data = mag * np.exp(1j * phase)
    for _ in range(iters):
        y = istft(replace(spec, data=data)).samples
        data = stft(Signal(samples=y, sample_rate=rate), frame=window, hop=window // 4).data
        norm = np.abs(data)
        silent = norm == 0.0
        data[silent], norm[silent] = 1.0, 1.0
        data /= norm
        data *= mag
    return istft(replace(spec, data=data)).samples


def ragged_clip():
    """Noise whose length is a multiple of no Griffin-Lim hop (64, 128, 256)."""
    return noise_signal(n=RATE // 2 + 37, seed=65)


def gapped_clip():
    """Noise with exact-zero stretches longer than three 1024-sample windows,
    so whole frames of every estimate are zero and hit the silent branch."""
    x = noise_signal(n=RATE, seed=66)
    x[:700] = 0.0
    x[3000:9000] = 0.0
    return x


class TestGriffinLimBits:
    """`griffin_lim` stays within 1e-12 of the peak of engine version 2's
    form. Versions 3 and 4 build the envelope once per call, which changes
    no bit; version 4's cos/sin phase draw and z * (mag / |z|) projection
    move only the last bits, on the silent branch too."""

    @pytest.mark.parametrize("clip", [ragged_clip, gapped_clip])
    @pytest.mark.parametrize("iterations", [0, 1, 7])
    @pytest.mark.parametrize("window", [256, 512, 1024])
    def test_bytes_equal_version2(self, window, iterations, clip):
        x = clip()
        if clip is gapped_clip:
            frames = stft(sig(x), frame=window, hop=window // 4).data
            assert np.any(np.all(frames == 0.0, axis=1))
        p = {"window": window, "iterations": iterations}
        got = apply_direct(x, "griffin_lim", p, seed=5)
        ref = version2_griffin_lim(x, RATE, p, np.random.default_rng(5))
        assert got.dtype == ref.dtype == np.float64
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def reference_align_offset(clean, distorted):
    """The lag search written out: direct correlation at every lag in
    [-D, D], D = len(distorted) - len(clean), normalized, with the peak's
    exact ties (within 1e-12) going to the smaller |lag|."""
    reach = distorted.size - clean.size
    lags = np.arange(-reach, reach + 1)
    full = np.correlate(distorted, clean, mode="full")  # lag l at index l + len(clean) - 1
    corr = full[lags + clean.size - 1] / (np.linalg.norm(clean) * np.linalg.norm(distorted))
    near_peak = np.flatnonzero(corr >= corr.max() - 1e-12)
    return int(lags[near_peak[np.argmin(np.abs(lags[near_peak]))]])

class TestKernelReferences:
    """The engine's hot kernels against the plain forms kept above: equal
    bit for bit where the arithmetic is unchanged, within 1e-12 of the
    peak where the FFT convolution or the phase projection reorders it
    (ENGINE_VERSIONs 2 and 4)."""

    @pytest.mark.parametrize("d", [1, 7, 475, 699, 5000])
    def test_comb_equals_lfilter(self, d):
        x = noise_signal(n=3000, seed=60)
        for g in (0.0, 0.5, 0.93):
            assert np.array_equal(primitives._comb(x, d, g), reference_comb(x, d, g))

    def test_algorithmic_reverb_equals_lfilter_combs(self):
        x = noise_signal(n=RATE, seed=61)
        p = {"t60": 0.9, "wet": 0.6}
        wet = sum(reference_comb(x, int(ms * RATE / 1000.0),
                                 10.0 ** (-3.0 * (int(ms * RATE / 1000.0) / RATE) / p["t60"]))
                  for ms in (29.7, 37.1, 41.1, 43.7)) / 4
        assert np.array_equal(apply_direct(x, "algorithmic_reverb", p),
                              (1.0 - p["wet"]) * x + p["wet"] * wet)

    @pytest.mark.parametrize("attack_ms,release_ms", [(1.0, 20.0), (5.0, 100.0), (10.0, 300.0)])
    def test_envelope_equals_per_sample_loop(self, attack_ms, release_ms):
        x = noise_signal(n=RATE, seed=62)
        x[3000:5000] = 0.0
        gate = (np.abs(x) > 0.2).astype(np.float64)
        for signal in (x, gate, np.zeros(10), np.zeros(0)):
            got = primitives._envelope(signal, RATE, attack_ms, release_ms)
            assert got.dtype == np.float64
            assert np.array_equal(got, reference_envelope(signal, RATE, attack_ms, release_ms))

    @pytest.mark.parametrize("attack_ms,release_ms",
                             [(1.0, 20.0), (1.0, 100.0), (10.0, 20.0), (10.0, 100.0),
                              (0.05, 0.08)])  # the bounds, and both poles below 0.5
    def test_gate_envelope_equals_per_sample_loop(self, attack_ms, release_ms):
        x = noise_signal(n=RATE, seed=62)
        x[3000:5000] = 0.0
        gates = {
            "closed": np.zeros(4000),
            "open": np.ones(4000),
            "alternating_open_first": np.tile([1.0, 0.0], 300),
            "alternating_closed_first": np.tile([0.0, 1.0], 300),
            "open_at_0": np.concatenate([np.ones(500), np.zeros(1500), np.ones(20), np.zeros(3)]),
            "noise": (np.abs(x) > 0.2).astype(np.float64),
            "empty": np.zeros(0),
            "one_open": np.ones(1),
            "one_closed": np.zeros(1),
        }
        for name, gate in gates.items():
            got = primitives._gate_envelope(gate, RATE, attack_ms, release_ms)
            want = reference_envelope(gate, RATE, attack_ms, release_ms)
            assert got.dtype == np.float64
            assert got.tobytes() == want.tobytes(), name

    def test_gate_envelope_reaches_and_holds_one(self):
        """An attack pole of 0.41 takes an open gate's level to exactly 1.0.
        There the loop switches to the release pole, while the run-wise form
        keeps the attack pole; both hold 1.0, so the bits still match."""
        gate = np.ones(2000)
        want = reference_envelope(gate, RATE, 0.07, 20.0)
        assert np.all(want[100:] == 1.0) and want[0] < 1.0
        assert primitives._gate_envelope(gate, RATE, 0.07, 20.0).tobytes() == want.tobytes()

    @pytest.mark.parametrize("pool", [False, True])
    def test_rir_convolution_matches_direct_convolution(self, pool):
        x = noise_signal(n=RATE, seed=63)
        ir = np.exp(-np.arange(4000) / 800.0) * np.random.default_rng(5).standard_normal(4000)
        assets = {"rir_pool": (ir,)} if pool else {}
        for ir_ms in (100.0, 600.0):
            p = {"t60": 0.8, "ir_ms": ir_ms, "predelay_ms": 12.0, "wet": 0.7}
            got = apply_direct(x, "rir_convolution", p, seed=3, assets=assets)
            ref = reference_rir(x, RATE, p, np.random.default_rng(3), assets)
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n,reach", [(300, 0), (300, 1), (257, 40), (1000, 333)])
    def test_align_offset_matches_direct_correlation(self, n, reach):
        """Delayed noisy copies, whose peak is at a positive lag, and
        unrelated noise, whose peak is anywhere in [-D, D]: a circular
        correlation too short to be wrap-free moves the negative lags."""
        rng = np.random.default_rng(n + reach)
        for _ in range(20):
            clean = rng.standard_normal(n)
            delay = int(rng.integers(0, reach + 1))
            copy = np.concatenate([np.zeros(delay), clean, np.zeros(reach - delay)])
            for distorted in (copy + 0.5 * rng.standard_normal(n + reach),
                              rng.standard_normal(n + reach)):
                assert _align_offset(clean, distorted) == reference_align_offset(clean, distorted)

    @pytest.mark.parametrize("window", [256, 512, 1024])
    def test_griffin_lim_matches_angle_projection(self, window):
        x = noise_signal(n=RATE // 2, seed=64)
        x[2000:3000] = 0.0  # silent bins: the projection must keep mag there
        p = {"window": window, "iterations": 8}
        got = apply_direct(x, "griffin_lim", p, seed=4)
        ref = reference_griffin_lim(x, RATE, p, np.random.default_rng(4))
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestChainSampling:
    """Counting statistics of the chain sampler."""

    def test_degenerate_config_single_type(self):
        cfg = ChainConfig(count_probs=(1.0, 0.0, 0.0, 0.0, 0.0), weights={"clip": 1.0})
        rng = np.random.default_rng(0)
        for _ in range(50):
            chain = sample_chain(cfg, rng)
            assert len(chain) == 1 and chain[0].kind == "clip"

    def test_count_distribution_chi_square(self):
        """10^5 chain lengths against {0.35, 0.45, 0.15, 0.04, 0.01}."""
        cfg = ChainConfig(weights={"clip": 1.0, "overdrive": 1.0, "tremolo": 1.0,
                                   "dc_component": 1.0, "silent_gap": 1.0})
        rng = np.random.default_rng(31)
        n = 100_000
        counts = np.zeros(5)
        for _ in range(n):
            counts[len(sample_chain(cfg, rng)) - 1] += 1
        expected = n * np.asarray(cfg.count_probs)
        _, p = scipy.stats.chisquare(counts, expected)
        assert p > 0.01

    def test_type_frequencies_within_3_sigma(self):
        """Singleton chains: each type's count within 3 binomial sigmas of
        its renormalized weight."""
        cfg = ChainConfig(count_probs=(1.0, 0.0, 0.0, 0.0, 0.0))
        rng = np.random.default_rng(32)
        n = 100_000
        tally: dict[str, int] = {}
        for _ in range(n):
            kind = sample_chain(cfg, rng)[0].kind
            tally[kind] = tally.get(kind, 0) + 1
        names = cfg.available_types()
        total = sum(cfg.weights[name] for name in names)
        for name in names:
            p = cfg.weights[name] / total
            sigma = np.sqrt(n * p * (1.0 - p))
            assert abs(tally.get(name, 0) - n * p) <= 3.0 * sigma, name

    def test_no_repeats_within_chain(self):
        cfg = ChainConfig(count_probs=(0.0, 0.0, 0.0, 0.0, 1.0))
        rng = np.random.default_rng(33)
        for _ in range(200):
            kinds = [s.kind for s in sample_chain(cfg, rng)]
            assert len(kinds) == 5 and len(set(kinds)) == 5

    def test_sampled_parameters_within_bounds(self):
        rng = np.random.default_rng(34)
        cfg = ChainConfig()
        skip = {"gain_db_lo", "gain_db_hi", "freq_lo", "freq_hi", "q_lo", "q_hi"}
        for _ in range(400):
            for spec in sample_chain(cfg, rng):
                bounds = PRIMITIVES[spec.kind].bounds
                for key, value in spec.params.items():
                    if key in skip or key not in bounds:
                        continue
                    bound = bounds[key]
                    if isinstance(bound, list):
                        assert value in bound, (spec.kind, key)
                    elif isinstance(bound, tuple):
                        assert bound[0] <= value <= bound[1], (spec.kind, key)

    def test_frozen_sampling_stream(self):
        """Pins the RNG stream and the parameter key order that logs and
        seeded datasets depend on: a seeded run of chains covering all 43
        types, and one direct draw per type, hash to recorded digests."""
        cfg = ChainConfig(noise_pool=(np.ones(8),), rir_pool=(np.ones(8),))
        rng = np.random.default_rng(2024)
        chains = [sample_chain(cfg, rng) for _ in range(1500)]
        assert {spec.kind for chain in chains for spec in chain} == set(PRIMITIVES)
        text = "\n".join(json.dumps([s.to_dict() for s in chain]) for chain in chains)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "bb951bbeb5ae6468bc4137c2fb6aaefc5b92606f459c0d95d8a920fc3d13ec67")
        rng = np.random.default_rng(2025)
        draws = [PRIMITIVES[name].sample(rng) for name in sorted(PRIMITIVES)]
        assert hashlib.sha256(json.dumps(draws).encode()).hexdigest() == (
            "b73d805d5b956a637c9b10d7345fc3805bdd4a6708cc44adaee660b251a06a2b")

    def test_registry_sampling_keys_match_bounds(self):
        """Every Log bound is a pair of floats with 0 < low <= high (its
        logarithms exist), every Span a pair. And `sample` can draw from
        every entry: each range is a (low, high) pair of reals with
        low <= high, each choice list is non-empty."""
        for name, prim in PRIMITIVES.items():
            bounds = prim.bounds
            for key, bound in bounds.items():
                if isinstance(bound, list):
                    assert bound, (name, key)
                elif isinstance(bound, tuple):
                    assert len(bound) == 2, (name, key)
                    assert all(isinstance(v, numbers.Real) for v in bound), (name, key)
                    assert bound[0] <= bound[1], (name, key)
            for key in [k for k, b in bounds.items() if isinstance(b, Log)]:
                bound = bounds.get(key)
                assert isinstance(bound, tuple) and len(bound) == 2, (name, key)
                assert all(isinstance(v, float) for v in bound), (name, key)
                assert 0 < bound[0] <= bound[1], (name, key)
            for key in [k for k, b in bounds.items() if isinstance(b, Span)]:
                bound = bounds.get(key)
                assert isinstance(bound, tuple) and len(bound) == 2, (name, key)

    def test_additive_noise_gated_on_pool(self):
        no_pool = ChainConfig()
        assert "additive_noise" not in no_pool.available_types()
        with_pool = ChainConfig(noise_pool=(np.ones(100),))
        assert "additive_noise" in with_pool.available_types()
        only_noise = ChainConfig(weights={"additive_noise": 1.0})
        with pytest.raises(ConfigError, match="available"):
            sample_chain(only_noise, np.random.default_rng(0))

    def test_sampling_deterministic(self):
        cfg = ChainConfig()
        a = [sample_chain(cfg, np.random.default_rng(5)) for _ in range(20)]
        b = [sample_chain(cfg, np.random.default_rng(5)) for _ in range(20)]
        assert [[s.to_dict() for s in c] for c in a] == [[s.to_dict() for s in c] for c in b]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"count_probs": (0.5, 0.4)},  # does not sum to 1
            {"count_probs": (1.5, -0.5, 0.0, 0.0, 0.0)},
            {"weights": {"not_a_type": 1.0}},
            {"weights": {"clip": 0.0}},
            {"weights": {}},
            {"count_probs": (np.nan, 0.5, 0.5)},  # NaN passes a "> 1e-9" test
            {"clip_level": 0.0},
            {"clip_level": -1.0},
            {"clip_level": np.nan},
            {"clip_level": np.inf},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ConfigError):
            ChainConfig(**kwargs)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            DistortionSpec(kind="vinyl_crackle", params={}, seed=0)


class TestChainApplication:
    """Constructed oracles for the chain runner: exact delay recovery,
    exact SNR, error attribution, the soft-clip guard, replay."""

    def test_delay_oracle_offset_100(self):
        x = noise_signal(n=RATE, seed=40)
        spec = DistortionSpec(kind="short_delay",
                              params={"delay_ms": 6.25, "gain": 1.0}, seed=0)
        pair = apply_chain(sig(x), [spec])
        assert pair.offset == 100
        assert len(pair.clean) == len(pair.distorted) == x.size
        assert np.max(np.abs(pair.clean.samples - pair.distorted.samples)) == 0.0

    def test_stacked_delays_add(self):
        x = noise_signal(n=RATE, seed=41)
        chain = [
            DistortionSpec(kind="short_delay", params={"delay_ms": 3.125, "gain": 1.0},
                           seed=0),
            DistortionSpec(kind="short_delay", params={"delay_ms": 4.375, "gain": 1.0},
                           seed=1),
        ]
        pair = apply_chain(sig(x), chain)
        assert pair.offset == 50 + 70
        assert np.max(np.abs(pair.clean.samples - pair.distorted.samples)) == 0.0

    def test_snr_10db_within_tenth_of_db(self):
        x = noise_signal(n=2 * RATE, seed=42)
        cfg = ChainConfig(noise_pool=(np.random.default_rng(1).standard_normal(4 * RATE),))
        spec = DistortionSpec(kind="additive_noise", params={"snr_db": 10.0}, seed=2)
        pair = apply_chain(sig(x), [spec], cfg)
        c, d = pair.clean.samples, pair.distorted.samples
        measured = 10.0 * np.log10(np.sum(c**2) / np.sum((d - c) ** 2))
        assert abs(measured - 10.0) < 0.1

    def test_full_pipeline_deterministic(self):
        x = noise_signal(n=RATE, seed=43)
        cfg = ChainConfig(noise_pool=(np.random.default_rng(2).standard_normal(RATE),))

        def once():
            chain = sample_chain(cfg, np.random.default_rng(77))
            return apply_chain(sig(x), chain, cfg)

        a, b = once(), once()
        assert np.array_equal(a.distorted.samples, b.distorted.samples)
        assert np.array_equal(a.clean.samples, b.clean.samples)
        assert a.offset == b.offset

    def test_replay_from_json_log_bit_exact(self):
        x = noise_signal(n=RATE, seed=44)
        cfg = ChainConfig(noise_pool=(np.random.default_rng(3).standard_normal(RATE),))
        rng = np.random.default_rng(88)
        for _ in range(10):
            chain = sample_chain(cfg, rng)
            log_line = json.dumps([s.to_dict() for s in chain])
            json.loads(log_line)  # valid JSON
            replayed = chain_from_json(log_line)
            a = apply_chain(sig(x), chain, cfg)
            b = apply_chain(sig(x), replayed, cfg)
            assert np.array_equal(a.distorted.samples, b.distorted.samples)

    def test_replay_from_record_checks_engine_version(self):
        """A log record replays bit-exactly under the engine version that
        wrote it; a record from another version, or one without the key
        (version 1), is rejected rather than replayed to different audio."""
        x = noise_signal(n=RATE, seed=49)
        cfg = ChainConfig(noise_pool=(np.random.default_rng(3).standard_normal(RATE),))
        chain = sample_chain(cfg, np.random.default_rng(90))
        record = {"engine_version": ENGINE_VERSION, "chain": [s.to_dict() for s in chain]}
        record = json.loads(json.dumps(record))
        a = apply_chain(sig(x), chain, cfg)
        b = apply_chain(sig(x), chain_from_record(record), cfg)
        assert np.array_equal(a.distorted.samples, b.distorted.samples)
        assert a.offset == b.offset
        for stale in ({**record, "engine_version": 1},
                      {key: value for key, value in record.items() if key != "engine_version"}):
            with pytest.raises(ConfigError, match="engine version 1"):
                chain_from_record(stale)
        with pytest.raises(ConfigError, match="no chain"):
            chain_from_record({"engine_version": ENGINE_VERSION, "error": "unreadable"})

    def test_version_2_record_is_rejected(self):
        """Version 3 bounds the alignment search, so a version-2 record can
        replay to another offset, and version 4 moves the last bits of
        Griffin-Lim and of room impulse responses on long inputs: records of
        both are rejected, not replayed."""
        spec = DistortionSpec(kind="short_delay", params={"delay_ms": 1.0, "gain": 1.0}, seed=0)
        for version in (2, 3):
            record = {"engine_version": version, "chain": [spec.to_dict()]}
            with pytest.raises(ConfigError, match=f"engine version {version}, this is version 4"):
                chain_from_record(record)

    def test_error_carries_chain_index(self):
        x = noise_signal(seed=45)
        chain = [
            DistortionSpec(kind="clip", params={"threshold": 0.5}, seed=0),
            DistortionSpec(kind="low_pass", params={"freq": 1000.0, "q": 0.0}, seed=1),
        ]
        with pytest.raises(ConfigError, match=r"chain step 1 \(low_pass\)"):
            apply_chain(sig(x), chain)

    def test_nonfinite_output_flagged_with_index(self):
        x = noise_signal(seed=46)
        spec = DistortionSpec(kind="dc_component", params={"amplitude": np.inf}, seed=0)
        with pytest.raises(NumericError, match=r"chain step 0.*non-finite"):
            apply_chain(sig(x), [spec])

    def test_soft_clip_guard_warns_and_bounds(self):
        x = noise_signal(seed=47)
        spec = DistortionSpec(kind="dc_component", params={"amplitude": 10.0}, seed=0)
        pair = apply_chain(sig(x), [spec])
        assert pair.clipped
        assert np.max(np.abs(pair.distorted.samples)) <= 4.0

    def test_empty_chain_rejected(self):
        with pytest.raises(ConfigError):
            apply_chain(sig(noise_signal()), [])

    def test_empty_input_rejected_before_any_step(self, monkeypatch):
        """A 0-sample input is named as such, whatever the chain, and no
        applier runs on it (it used to fail as "alignment left no
        overlapping support", or inside whichever step raised first)."""
        calls = []
        monkeypatch.setitem(PRIMITIVES, "clip", replace(PRIMITIVES["clip"],
                                                        apply=lambda *a: calls.append(a)))
        for kind, params in (("clip", {"threshold": 0.5}),
                             ("short_delay", {"delay_ms": 1.0, "gain": 1.0})):
            with pytest.raises(ConfigError, match="empty input"):
                apply_chain(sig(np.zeros(0)), [DistortionSpec(kind=kind, params=params, seed=0)])
        assert calls == []

    def test_pair_requires_equal_lengths(self):
        x = noise_signal(seed=48)
        spec = DistortionSpec(kind="clip", params={"threshold": 1.0}, seed=0)
        with pytest.raises(ConfigError):
            DistortedPair(clean=sig(x), distorted=sig(x[:-1]), chain=(spec,), offset=0)
