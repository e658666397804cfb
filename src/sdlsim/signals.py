"""Sampled-signal primitives: stimulus tones and bursts, and dBm
conversions.

Wave amplitudes are real-valued traveling-wave samples in root-watt units
referenced to Z0 = 50 ohm. dBm conversions happen only at reporting
boundaries, never inside the simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Z0 = 50.0

_TWO_PI = 2.0 * math.pi


def amplitude_to_dbm(amplitude: float) -> float:
    """Power of a wave of peak amplitude `amplitude` root-watt, in dBm;
    -inf for an exact zero (no power was measured)."""
    p_watt = amplitude * amplitude / 2.0
    return 10.0 * math.log10(p_watt / 1e-3) if p_watt > 0.0 else -math.inf


def dbm_to_amplitude(dbm: float) -> float:
    """Peak root-watt amplitude of a tone carrying `dbm` dB re 1 mW."""
    return math.sqrt(2e-3 * 10.0 ** (dbm / 10.0))


@dataclass
class SampleBuffer:
    """Uniformly sampled real wave record at one node direction."""

    sample_rate: float
    samples: np.ndarray

    def __post_init__(self) -> None:
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        self.samples = np.asarray(self.samples, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.samples)


def _check_nyquist(frequency: float, sample_rate: float) -> None:
    if not 0.0 < frequency < sample_rate / 2.0:
        raise ValueError(
            f"frequency {frequency:g} Hz outside (0, {sample_rate / 2:g}) Hz Nyquist range"
        )


def make_tone(
    frequency: float,
    amplitude: float,
    phase: float,
    n_samples: int,
    sample_rate: float,
    start_index: int = 0,
) -> SampleBuffer:
    """Continuous tone: samples[n] = amplitude*cos(2*pi*f*(start_index+n)/fs + phase).

    Phase is referenced to the absolute time origin, so a tone built with
    start_index k equals the tail of the same tone built from zero.
    """
    _check_nyquist(frequency, sample_rate)
    if n_samples < 0:
        raise ValueError("n_samples must be >= 0")
    n = np.arange(start_index, start_index + n_samples, dtype=np.float64)
    x = amplitude * np.cos(_TWO_PI * frequency / sample_rate * n + phase)
    return SampleBuffer(sample_rate, x)


def make_burst(
    frequency: float,
    amplitude: float,
    t_start: float,
    t_rise: float,
    t_hold: float,
    sample_rate: float,
) -> SampleBuffer:
    """Tone gated by a raised-cosine power envelope.

    Zero before t_start, quarter-sine amplitude ramp over t_rise (so the
    instantaneous power ramp is raised-cosine), flat for t_hold, symmetric
    fall. Envelope energy is amplitude^2/2 * (t_hold + t_rise) for
    frequency*t_hold >> 1. The carrier phase is zero at t_start, so a
    delayed copy of the burst is exactly the burst built with a shifted
    t_start.
    """
    _check_nyquist(frequency, sample_rate)
    if t_rise < 0 or t_hold <= 0 or t_start < 0:
        raise ValueError("burst times must satisfy t_start >= 0, t_rise >= 0, t_hold > 0")
    n_total = math.ceil((t_start + 2.0 * t_rise + t_hold) * sample_rate)
    t = np.arange(n_total) / sample_rate
    u = t - t_start
    env = np.zeros(n_total)
    if t_rise > 0:
        rising = (u >= 0) & (u < t_rise)
        env[rising] = np.sin(0.5 * math.pi * u[rising] / t_rise)
        falling = (u >= t_rise + t_hold) & (u < 2 * t_rise + t_hold)
        env[falling] = np.sin(0.5 * math.pi * (2 * t_rise + t_hold - u[falling]) / t_rise)
    flat = (u >= t_rise) & (u < t_rise + t_hold)
    env[flat] = 1.0
    x = amplitude * env * np.cos(_TWO_PI * frequency * u)
    return SampleBuffer(sample_rate, x)
