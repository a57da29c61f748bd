"""Seeded synthetic inputs for the benchmark workloads.

Every generator is a pure function of a ``numpy.random.Generator``, so the
same benchmark seed always produces the same files. The program under test
only ever sees the files written here; WAVs are written by the small writer
below rather than by ``scorewave.signal``, so the inputs do not depend on
the code being measured.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np
import scipy.signal

SPEECH_RATE = 16_000
NOISE_RATE = 48_000

# The GMM prior and observation noise of the default scorewave config.
GMM_WEIGHTS = (0.3, 0.7)
GMM_MEANS = (-2.0, 2.0)
GMM_VARIANCES = (0.1, 0.1)
NOISE_STD = 1.0


def write_wav(path: Path, samples: np.ndarray, rate: int, encoding: str) -> None:
    """Canonical 44-byte-header mono RIFF/WAVE, PCM16 or IEEE float32."""
    x = np.asarray(samples, dtype=np.float64)
    if encoding == "pcm16":
        data = np.round(np.clip(x, -1.0, 1.0) * 32767.0).astype("<i2").tobytes()
        fmt_code, bits = 1, 16
    else:
        data = x.astype("<f4").tobytes()
        fmt_code, bits = 3, 32
    block = bits // 8
    header = b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, fmt_code, 1, rate, rate * block, block, bits)
    header += b"data" + struct.pack("<I", len(data))
    Path(path).write_bytes(header + data)


def speech_like(rng: np.random.Generator, seconds: float, rate: int = SPEECH_RATE) -> np.ndarray:
    """Voiced syllables with a drifting pitch, three formants, fricative
    bursts and pauses; peak 0.5."""
    n = int(round(seconds * rate))
    t = np.arange(n) / rate
    env = np.zeros(n)
    fric = np.zeros(n)
    pos = int(rng.uniform(0.0, 0.2) * rate)
    while pos < n:
        dur = int(rng.uniform(0.12, 0.30) * rate)
        seg = env[pos : pos + dur]
        seg[:] = np.sin(np.pi * np.arange(seg.size) / dur) * rng.uniform(0.3, 1.0)
        if rng.uniform() < 0.3:
            k = min(dur // 3, fric.size - pos)
            fric[pos : pos + k] = rng.uniform(0.05, 0.2)
        pos += dur + int(rng.uniform(0.03, 0.35) * rate)
    f0_base = rng.uniform(90.0, 220.0)
    f0 = f0_base * (1.0 + 0.15 * np.sin(2 * np.pi * rng.uniform(0.2, 0.8) * t + rng.uniform(0, 6.3)))
    phase = 2 * np.pi * np.cumsum(f0) / rate
    voiced = np.zeros(n)
    for k in range(1, int(0.45 * rate / (1.15 * f0_base)) + 1):
        voiced += np.sin(k * phase) / k
    for freq in (rng.uniform(300, 900), rng.uniform(900, 2500), rng.uniform(2500, 3500)):
        radius = 0.97
        w = 2 * np.pi * freq / rate
        voiced = voiced + 0.5 * scipy.signal.lfilter([1 - radius], [1, -2 * radius * np.cos(w), radius**2], voiced)
    noise = scipy.signal.lfilter([1, -0.9], [1], rng.standard_normal(n))
    x = env * voiced + fric * noise
    return 0.5 * x / max(np.max(np.abs(x)), 1e-12)


def noise_clip(rng: np.random.Generator, seconds: float, rate: int = NOISE_RATE) -> np.ndarray:
    """Background noise: spectrally tilted Gaussian noise, a mains hum and
    a slow level drift; peak 0.5."""
    n = int(round(seconds * rate))
    spectrum = np.fft.rfft(rng.standard_normal(n))
    freqs = np.fft.rfftfreq(n, 1.0 / rate)
    tilt = np.zeros_like(freqs)
    tilt[1:] = (freqs[1:] / 1000.0) ** (rng.uniform(-1.0, 0.2) / 2.0)
    x = np.fft.irfft(spectrum * tilt, n)
    t = np.arange(n) / rate
    x = x / np.std(x) + rng.uniform(0.0, 0.5) * np.sin(2 * np.pi * rng.choice([50.0, 60.0]) * t)
    x *= 1.0 + 0.3 * np.sin(2 * np.pi * rng.uniform(0.1, 1.0) * t)
    return 0.5 * x / np.max(np.abs(x))


def impulse_response(rng: np.random.Generator, seconds: float, rate: int = SPEECH_RATE) -> np.ndarray:
    """Room impulse response of the given length: predelay, unit direct
    path and an exponentially decaying diffuse tail."""
    length = int(seconds * rate)
    pre = int(rng.uniform(0.0, 0.005) * rate)
    t = np.arange(length - pre - 1) / rate
    tail = rng.standard_normal(t.size) * 10.0 ** (-3.0 * t / rng.uniform(0.2, 0.8))
    tail *= rng.uniform(0.2, 0.6) / np.sqrt(np.sum(tail**2))
    return np.concatenate([np.zeros(pre), [1.0], tail])


def gmm_clip(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(clean, noisy): clean samples drawn from the default GMM prior and
    the same samples plus N(0, NOISE_STD^2) observation noise."""
    comp = rng.choice(len(GMM_WEIGHTS), size=n, p=GMM_WEIGHTS)
    clean = np.asarray(GMM_MEANS)[comp] + np.sqrt(np.asarray(GMM_VARIANCES)[comp]) * rng.standard_normal(n)
    return clean, clean + NOISE_STD * rng.standard_normal(n)


def write_distort_inputs(rng, root: Path, n_clips: int, clip_s: float, n_noise: int,
                         noise_s: float, n_rir: int) -> list[Path]:
    """Speech clips (PCM16, 16 kHz), a 48 kHz noise pool and a 16 kHz RIR
    pool under root; returns the clip paths in manifest order."""
    for sub in ("clips", "noise", "rir"):
        (root / sub).mkdir(parents=True, exist_ok=True)
    clips = []
    for i in range(n_clips):
        path = root / "clips" / f"utt{i:03d}.wav"
        write_wav(path, speech_like(rng, clip_s), SPEECH_RATE, "pcm16")
        clips.append(path)
    for i in range(n_noise):
        write_wav(root / "noise" / f"noise{i:02d}.wav", noise_clip(rng, noise_s), NOISE_RATE, "pcm16")
    # RIR lengths are fixed (0.2-0.6 s, evenly spaced) and only the content
    # follows the seed: the convolution's cost grows with the RIR length,
    # and the chains pick RIRs by position in the pool.
    for i, seconds in enumerate(np.linspace(0.2, 0.6, n_rir)):
        write_wav(root / "rir" / f"rir{i:02d}.wav", impulse_response(rng, seconds), SPEECH_RATE,
                  "float32")
    return clips


def write_gmm_pair(rng, root: Path, name: str, n: int) -> tuple[Path, Path]:
    """Float32 (clean, noisy) GMM clip pair at 16 kHz; float32 because the
    mixture's samples reach well beyond the PCM16 range."""
    root.mkdir(parents=True, exist_ok=True)
    clean, noisy = gmm_clip(rng, n)
    clean_path, noisy_path = root / f"{name}.clean.wav", root / f"{name}.noisy.wav"
    write_wav(clean_path, clean, SPEECH_RATE, "float32")
    write_wav(noisy_path, noisy, SPEECH_RATE, "float32")
    return clean_path, noisy_path


def write_eval_pairs(rng, root: Path, n_pairs: int, seconds: float) -> list[tuple[Path, Path]]:
    """(reference, estimate) pairs: a speech-like reference and a degraded
    estimate (noise, gain and a little smearing). Odd-numbered estimates
    are written at 8 kHz, so eval has to resample them."""
    root.mkdir(parents=True, exist_ok=True)
    pairs = []
    for i in range(n_pairs):
        ref = speech_like(rng, seconds)
        est = rng.uniform(0.6, 1.2) * scipy.signal.lfilter([0.7, 0.3], [1.0], ref)
        est = est + 10.0 ** (-rng.uniform(5.0, 25.0) / 20.0) * 0.2 * rng.standard_normal(ref.size)
        rate = SPEECH_RATE
        if i % 2:
            est = scipy.signal.resample_poly(est, 1, 2)
            rate = SPEECH_RATE // 2
        ref_path, est_path = root / f"ref{i:03d}.wav", root / f"est{i:03d}.wav"
        write_wav(ref_path, ref, SPEECH_RATE, "pcm16")
        write_wav(est_path, est, rate, "pcm16")
        pairs.append((ref_path, est_path))
    return pairs


def train_conditional_checkpoint(path: Path, seed: int, steps: int) -> None:
    """Train a dim_c=1 score network to denoise GMM observations (c is the
    noisy sample) with the library's own trainer, and save it."""
    from scorewave.schedule import NoiseSchedule
    from scorewave.scorenet import (OptimizerConfig, ScoreNet, ScoreNetConfig,
                                    save_checkpoint, train)

    rng = np.random.default_rng(seed)
    net = ScoreNet(ScoreNetConfig(dim_x=1, dim_c=1), rng)
    def draw(r, batch):
        clean, noisy = gmm_clip(r, batch)
        return clean[:, None], noisy[:, None]

    train(net, draw, NoiseSchedule(), OptimizerConfig(total_steps=steps), steps, 128, rng)
    save_checkpoint(path, net)
