"""Geometric noise schedule and sampling-step constants.

The noise level follows a geometric progression in continuous time,

    sigma(t) = sigma_min * (sigma_max / sigma_min)^t,   t in [0, 1],

so log sigma(t) is affine in t. Discretizing t into N uniform steps
t_n = (n-1)/(N-1) gives a constant ratio between adjacent levels,

    gamma = sigma(t_n) / sigma(t_{n+1}) = (sigma_min / sigma_max)^(1/(N-1)),

from which the annealing step constants are derived:

    eta  = 1 - gamma^epsilon
    beta = sqrt(1 - ((1 - eta) / gamma)^2) = sqrt(1 - gamma^(2 epsilon - 2))

with hyper-parameter epsilon in [1, inf). epsilon = 1 gives beta = 0,
the fully deterministic annealing limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

DEFAULT_SIGMA_MIN = 5e-4
DEFAULT_SIGMA_MAX = 5.0


@dataclass(frozen=True)
class NoiseSchedule:
    """Geometric noise level progression between sigma_min and sigma_max.

    Immutable after construction; safe to share across threads.
    """

    sigma_min: float = DEFAULT_SIGMA_MIN
    sigma_max: float = DEFAULT_SIGMA_MAX

    def __post_init__(self):
        if not (0.0 < self.sigma_min < self.sigma_max):
            raise ConfigError(
                f"need 0 < sigma_min < sigma_max, got {self.sigma_min}, {self.sigma_max}"
            )
        if not (math.isfinite(self.sigma_min) and math.isfinite(self.sigma_max)):
            raise ConfigError("sigma_min and sigma_max must be finite")

    def sigma_at(self, t):
        """Noise level sigma(t) = sigma_min^(1-t) * sigma_max^t.

        Computed in log space; sigma_min = 5e-4 with long schedules loses
        precision under repeated multiplication. Accepts scalars or arrays.
        """
        t = np.asarray(t, dtype=np.float64)
        if np.any(t < 0.0) or np.any(t > 1.0):
            raise ConfigError(f"t must lie in [0, 1], got {t}")
        log_sigma = (1.0 - t) * math.log(self.sigma_min) + t * math.log(self.sigma_max)
        out = np.exp(log_sigma)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class SamplingPlan:
    """Discretized schedule plus the gamma/eta/beta step constants.

    ``sigmas[i]`` holds sigma(t_{i+1}) for t_n = (n-1)/(N-1); the array is
    ascending, so iterating n = N..1 walks it from sigma_max down to
    sigma_min.
    """

    n_steps: int
    epsilon: float
    gamma: float
    eta: float
    beta: float
    sigmas: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.sigmas.flags.writeable = False


def check_epsilon(epsilon: float) -> None:
    """Raise ConfigError unless epsilon is finite and >= 1."""
    if not (math.isfinite(epsilon) and epsilon >= 1.0):
        raise ConfigError(f"epsilon must be finite and >= 1, got {epsilon}")


def make_plan(schedule: NoiseSchedule, n_steps: int, epsilon: float) -> SamplingPlan:
    """Discretize the schedule into ``n_steps`` uniform levels.

    gamma is constant over adjacent pairs by construction and satisfies
    gamma^(N-1) = sigma_min / sigma_max. beta is computed as
    sqrt(1 - gamma^(2 epsilon - 2)), which is exactly 0 at epsilon = 1.
    """
    if n_steps < 2:
        raise ConfigError(f"n_steps must be >= 2, got {n_steps}")
    check_epsilon(epsilon)

    t = np.arange(n_steps, dtype=np.float64) / (n_steps - 1)
    sigmas = schedule.sigma_at(t)

    log_gamma = math.log(schedule.sigma_min / schedule.sigma_max) / (n_steps - 1)
    gamma = math.exp(log_gamma)
    eta = 1.0 - math.exp(epsilon * log_gamma)
    # (1 - eta) / gamma = gamma^(epsilon - 1); the exponent vanishes at
    # epsilon = 1, making beta identically zero there.
    ratio_sq = math.exp(2.0 * (epsilon - 1.0) * log_gamma)
    beta = math.sqrt(max(0.0, 1.0 - ratio_sq))

    return SamplingPlan(
        n_steps=n_steps, epsilon=epsilon, gamma=gamma, eta=eta, beta=beta, sigmas=sigmas
    )


def denoise_only_plan(schedule: NoiseSchedule) -> SamplingPlan:
    """Single-evaluation plan: initialize at sigma_max and denoise once.

    The recursion contract needs at least two levels, so N = 1 is provided
    through this dedicated constructor rather than :func:`make_plan`. The
    step constants are placeholders (no recursion step ever runs): the
    sampler only reads ``sigmas``.
    """
    sigmas = np.array([schedule.sigma_max], dtype=np.float64)
    return SamplingPlan(n_steps=1, epsilon=1.0, gamma=0.0, eta=1.0, beta=0.0, sigmas=sigmas)
