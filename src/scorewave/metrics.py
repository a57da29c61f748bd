"""Objective proxy metrics: SNR, scale-invariant SNR, log-spectral
distance, and the multi-resolution STFT distance.

All metrics take equal-length 1-D arrays. Ratio metrics are clamped to
±100 dB so a perfect estimate reports the +100 dB sentinel instead of
infinity. A silent reference makes every metric undefined and raises
MetricError; magnitudes are floored at 1e-10 before any logarithm so
isolated zero bins cannot produce -inf.

The multi-resolution distance is the mean over (frame, hop) resolutions
of a spectral-convergence term ||(|R|-|E|)||_F / ||R||_F plus a mean
absolute natural-log magnitude difference — so an estimate equal to
2x the reference scores exactly 1 + ln 2 at every resolution.

:func:`evaluate_pair` computes each (signal, frame, hop) magnitude
spectrum once and shares it across metrics: the log-spectral distance
reuses the 512/128 spectra of the first default multi-resolution STFT
resolution. Its report is bit-identical to calling each metric separately.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, MetricError
from .signal import Signal, stft

DB_CAP = 100.0
MAG_FLOOR = 1e-10
DEFAULT_RESOLUTIONS = ((512, 128), (1024, 256), (2048, 512))
LSD_FRAME = 512
LSD_HOP = 128


def _pair(reference, estimate) -> tuple[np.ndarray, np.ndarray]:
    ref = np.asarray(reference, dtype=np.float64)
    est = np.asarray(estimate, dtype=np.float64)
    if ref.ndim != 1 or est.ndim != 1:
        raise ConfigError("metrics expect 1-D sample arrays")
    if ref.size != est.size:
        raise ConfigError(f"length mismatch: reference {ref.size}, estimate {est.size}")
    if ref.size == 0:
        raise ConfigError("metrics need at least one sample")
    if not (np.all(np.isfinite(ref)) and np.all(np.isfinite(est))):
        raise MetricError("metrics undefined for non-finite inputs")
    if not np.any(ref):
        raise MetricError("metrics undefined for a silent reference")
    return ref, est


def _clamped_ratio_db(num: float, den: float) -> float:
    if den <= 0.0:
        return DB_CAP
    return float(np.clip(10.0 * np.log10(num / den), -DB_CAP, DB_CAP))


def snr(reference, estimate) -> float:
    """10 log10(||ref||^2 / ||ref - est||^2), clamped to ±100 dB."""
    ref, est = _pair(reference, estimate)
    return _clamped_ratio_db(float(np.sum(ref**2)), float(np.sum((ref - est) ** 2)))


def si_snr(reference, estimate) -> float:
    """SNR after projecting the estimate onto the reference direction,
    making the result invariant to any positive rescaling of the
    estimate. Undefined (MetricError) for a silent estimate."""
    ref, est = _pair(reference, estimate)
    if not np.any(est):
        raise MetricError("si_snr undefined for a silent estimate")
    target = (np.dot(est, ref) / np.dot(ref, ref)) * ref
    residual = est - target
    return _clamped_ratio_db(float(np.sum(target**2)), float(np.sum(residual**2)))


# Per-call memo of magnitude spectra, open only while evaluate_pair runs:
# (id(x), frame, hop) -> (x, |STFT(x)|). Holding x keeps its id from being
# reused by another array while the memo lives.
_SPECTRA: ContextVar[dict | None] = ContextVar("scorewave_metric_spectra", default=None)


def _magnitudes(x: np.ndarray, frame: int, hop: int) -> np.ndarray:
    memo = _SPECTRA.get()
    key = (id(x), frame, hop)
    if memo is not None and key in memo:
        return memo[key][1]
    spec = stft(Signal(samples=x, sample_rate=1), frame=frame, hop=hop)
    mag = np.abs(spec.data)
    if memo is not None:
        memo[key] = (x, mag)
    return mag


def lsd(reference, estimate, frame: int = LSD_FRAME, hop: int = LSD_HOP) -> float:
    """Log-spectral distance: RMS over frames of the per-frame RMS
    difference of 20 log10 magnitudes (dB). Silent bins are floored, so
    a pure gain a maps to exactly |20 log10 a|."""
    ref, est = _pair(reference, estimate)
    r = np.maximum(_magnitudes(ref, frame, hop), MAG_FLOOR)
    e = np.maximum(_magnitudes(est, frame, hop), MAG_FLOOR)
    diff = 20.0 * np.log10(r) - 20.0 * np.log10(e)
    per_frame = np.sqrt(np.mean(diff**2, axis=1))
    return float(np.sqrt(np.mean(per_frame**2)))


def mrstft(reference, estimate, resolutions=DEFAULT_RESOLUTIONS):
    """Multi-resolution STFT distance and its per-resolution breakdown.

    Returns (value, parts): parts[i] is the spectral-convergence plus
    log-magnitude term at resolutions[i]; value is their mean.
    """
    ref, est = _pair(reference, estimate)
    if not resolutions:
        raise ConfigError("mrstft needs at least one (frame, hop) resolution")
    parts = []
    for frame, hop in resolutions:
        r = _magnitudes(ref, frame, hop)
        e = _magnitudes(est, frame, hop)
        norm = float(np.linalg.norm(r))
        if norm == 0.0:
            raise MetricError("mrstft undefined for a silent reference")
        convergence = float(np.linalg.norm(r - e)) / norm
        log_mag = float(np.mean(np.abs(
            np.log(np.maximum(r, MAG_FLOOR)) - np.log(np.maximum(e, MAG_FLOOR)))))
        parts.append(convergence + log_mag)
    return float(np.mean(parts)), tuple(parts)


@dataclass(frozen=True)
class MetricReport:
    """All metrics for one (reference, estimate) pair."""

    snr: float
    si_snr: float
    lsd: float
    mrstft: float
    mrstft_parts: tuple

    def to_dict(self) -> dict:
        return asdict(self) | {"mrstft_parts": list(self.mrstft_parts)}


def evaluate_pair(reference, estimate, resolutions=DEFAULT_RESOLUTIONS) -> MetricReport:
    # validated once, so every metric below sees the same two array objects
    # and the spectrum memo can match them by identity
    ref, est = _pair(reference, estimate)
    token = _SPECTRA.set({})
    try:
        value, parts = mrstft(ref, est, resolutions)
        return MetricReport(
            snr=snr(ref, est),
            si_snr=si_snr(ref, est),
            lsd=lsd(ref, est),
            mrstft=value,
            mrstft_parts=parts,
        )
    finally:
        _SPECTRA.reset(token)
