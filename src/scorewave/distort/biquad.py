"""Audio-cookbook biquad sections used by the distortion primitives.

Each design function returns (b, a) coefficient arrays (a normalized so
a[0] = 1) for the standard second-order recursion. The low pass, high
pass, band pass and notch share one cookbook section (:func:`_cookbook`)
and pass only their numerators. Poles stay inside the unit circle for
every parameter a design accepts (q > 0, 0 < f0 < Nyquist, |r| < 1),
which the stability tests sweep. The appliers in
:mod:`.primitives` do not design a section at or above Nyquist.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError


def _wa(f0: float, rate: int, q: float = 1.0):
    """(w0, alpha) of a section at f0 with quality q, both checked first."""
    if not 0.0 < f0 < rate / 2.0:
        raise ConfigError(f"center frequency {f0} outside (0, {rate / 2})")
    if not q > 0.0:
        raise ConfigError(f"q must be > 0, got {q}")
    w0 = 2.0 * np.pi * f0 / rate
    return w0, np.sin(w0) / (2.0 * q)


def _cookbook(f0: float, q: float, rate: int, numerator):
    """The section numerator(cos w0, alpha) over the cookbook's common
    denominator (1 + alpha, -2 cos w0, 1 - alpha), normalized by a[0]."""
    w0, alpha = _wa(f0, rate, q)
    c = np.cos(w0)
    b = np.array(numerator(c, alpha))
    a = np.array([1 + alpha, -2 * c, 1 - alpha])
    return b / a[0], a / a[0]


def low_pass(f0: float, q: float, rate: int):
    return _cookbook(f0, q, rate, lambda c, alpha: [(1 - c) / 2, 1 - c, (1 - c) / 2])


def high_pass(f0: float, q: float, rate: int):
    return _cookbook(f0, q, rate, lambda c, alpha: [(1 + c) / 2, -(1 + c), (1 + c) / 2])


def band_pass(f0: float, q: float, rate: int):
    """Constant 0 dB peak-gain band pass."""
    return _cookbook(f0, q, rate, lambda c, alpha: [alpha, 0.0, -alpha])


def notch(f0: float, q: float, rate: int):
    return _cookbook(f0, q, rate, lambda c, alpha: [1.0, -2 * c, 1.0])


def peaking(f0: float, q: float, gain_db: float, rate: int):
    w0, alpha = _wa(f0, rate, q)
    big_a = 10.0 ** (gain_db / 40.0)
    c = np.cos(w0)
    b = np.array([1 + alpha * big_a, -2 * c, 1 - alpha * big_a])
    a = np.array([1 + alpha / big_a, -2 * c, 1 - alpha / big_a])
    return b / a[0], a / a[0]


def _shelf(f0: float, gain_db: float, rate: int, q: float, sign: int):
    """The low shelf for sign 1; sign -1 negates cos(w0) and the two middle
    coefficients, which is exactly the cookbook's high shelf, bit for bit."""
    w0, alpha = _wa(f0, rate, q)
    big_a = 10.0 ** (gain_db / 40.0)
    c = sign * np.cos(w0)
    root = 2.0 * np.sqrt(big_a) * alpha
    b = big_a * np.array([(big_a + 1) - (big_a - 1) * c + root,
                          sign * 2 * ((big_a - 1) - (big_a + 1) * c),
                          (big_a + 1) - (big_a - 1) * c - root])
    a = np.array([(big_a + 1) + (big_a - 1) * c + root,
                  sign * -2 * ((big_a - 1) + (big_a + 1) * c),
                  (big_a + 1) + (big_a - 1) * c - root])
    return b / a[0], a / a[0]


def low_shelf(f0: float, gain_db: float, rate: int, q: float = 1.0 / np.sqrt(2.0)):
    return _shelf(f0, gain_db, rate, q, 1)


def high_shelf(f0: float, gain_db: float, rate: int, q: float = 1.0 / np.sqrt(2.0)):
    return _shelf(f0, gain_db, rate, q, -1)


def two_pole(f0: float, r: float, rate: int):
    """Resonant two-pole 1 / (1 - 2 r cos(w0) z^-1 + r^2 z^-2), scaled so the
    peak gain at the resonance is 1."""
    w0, _ = _wa(f0, rate)
    if not 0.0 < r < 1.0:
        raise ConfigError(f"pole radius must be in (0, 1), got {r}")
    a = np.array([1.0, -2.0 * r * np.cos(w0), r * r])
    peak = 1.0 / abs(np.polyval(a[::-1], np.exp(-1j * w0)))
    return np.array([1.0 / peak]), a
