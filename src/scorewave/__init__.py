"""scorewave: variance-exploding score diffusion for conditional audio enhancement.

Library surface: geometric noise schedules and sampling plans, the
denoising score-matching loss and consistent annealed Langevin sampler,
analytic Gaussian-mixture score oracles, a small FiLM-conditioned score
network with hand-written gradients, mixture-density auxiliary losses,
waveform/spectrogram utilities, a programmatic distortion engine, and
enhancement metrics. The ``scorewave`` CLI fronts the lot.

The package re-exports the names the README's examples import from it,
the error classes and ``__version__``; every other name is imported from
its module (``scorewave.signal``, ``scorewave.mdn``, ...).
"""

from __future__ import annotations

from .diffusion import langevin_sample
from .distort import ChainConfig, apply_chain, sample_chain
from .errors import (
    AudioError,
    ConfigError,
    MetricError,
    NumericError,
    SamplingError,
    ScorewaveError,
    TrainingError,
)
from .oracle import GmmPrior, score_function
from .schedule import NoiseSchedule, make_plan
from .scorenet import OptimizerConfig, ScoreNet, ScoreNetConfig, train

__version__ = "0.1.0"

__all__ = [
    "AudioError",
    "ChainConfig",
    "ConfigError",
    "GmmPrior",
    "MetricError",
    "NoiseSchedule",
    "NumericError",
    "OptimizerConfig",
    "SamplingError",
    "ScoreNet",
    "ScoreNetConfig",
    "ScorewaveError",
    "TrainingError",
    "apply_chain",
    "langevin_sample",
    "make_plan",
    "sample_chain",
    "score_function",
    "train",
]
