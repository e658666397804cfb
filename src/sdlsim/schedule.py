"""Periodic switch-control waveform generation and validation.

The two crossbars each follow one periodic bar-fraction trace g(t): bar
state for a duty fraction of the period, cross state otherwise, with linear
g-ramps of width t_transition (the conduction sin^2(pi*g/2) is then a
raised-cosine ramp). The right crossbar runs the left trace delayed by the
side offset, nominally one quarter period.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .elements import MAX_SPAN
from .errors import QuantizationError


@dataclass(frozen=True)
class ControlSchedule:
    """Four-phase commutation schedule shared by both crossbars.

    The right crossbar runs offset_samples behind the left one: a quarter
    period, the canonical side-to-side offset, unless side_offset overrides
    it; the override exists so reciprocity checks can run both sides in
    phase.
    """

    period: float
    duty: float
    t_transition: float
    sample_rate: float
    side_offset: float | None = None

    @property
    def period_samples(self) -> int:
        return 4 * round(self.period * self.sample_rate / 4.0)

    @property
    def transition_samples(self) -> int:
        return round(self.t_transition * self.sample_rate)

    @property
    def offset_samples(self) -> int:
        if self.side_offset is None:
            return self.period_samples // 4
        return round(self.side_offset * self.sample_rate)

    @property
    def f_mod(self) -> float:
        """Achieved switching frequency after sample quantization."""
        return self.sample_rate / self.period_samples


@dataclass
class ScheduleReport:
    """Advisory delay-matching report."""

    mismatch_s: float
    mismatch_fraction: float
    isolation_flag: bool
    messages: list[str] = field(default_factory=list)


def build_schedule(
    period: float,
    t_transition: float,
    duty: float,
    sample_rate: float,
    side_offset: float | None = None,
) -> ControlSchedule:
    """Construct the canonical schedule with the left bar interval at t = 0."""
    if period <= 0:
        raise QuantizationError("period must be positive")
    if not 0.0 < duty < 1.0:
        raise QuantizationError("duty must lie in (0, 1)")
    if t_transition < 0:
        raise QuantizationError("t_transition must be >= 0")
    p = period * sample_rate
    if p > MAX_SPAN:
        raise QuantizationError(f"period {period:g} s is {p:.6g} samples, beyond {MAX_SPAN}")
    if side_offset is not None and not abs(side_offset) <= period:
        raise QuantizationError("side_offset must lie within one period")
    nearest = 4 * round(p / 4.0)
    if nearest < 4:
        raise QuantizationError(
            f"period {period:g} s is under one sample quartet at {sample_rate:g} Hz"
        )
    if abs(p - nearest) > 0.25:
        raise QuantizationError(
            f"period {period:g} s is {p:.3f} samples, more than 0.25 samples from a "
            f"multiple of 4; nearest achievable period is {nearest / sample_rate:.12g} s",
            nearest=nearest / sample_rate,
        )
    tt = t_transition * sample_rate
    bar_n = round(duty * nearest)
    if tt > nearest or round(tt) > bar_n or round(tt) > nearest - bar_n:
        raise QuantizationError(
            f"t_transition {t_transition:g} s does not fit inside the "
            f"{duty:g}-duty state intervals of period {period:g} s"
        )
    return ControlSchedule(
        period=period,
        duty=duty,
        t_transition=t_transition,
        sample_rate=sample_rate,
        side_offset=side_offset,
    )


def _one_period(schedule: ControlSchedule) -> np.ndarray:
    p = schedule.period_samples
    tt = schedule.transition_samples
    bar_n = round(schedule.duty * p)
    g = np.zeros(p)
    g[: bar_n - tt] = 1.0
    if tt > 0:
        # Midpoint-sampled linear ramps: fall ends where the cross interval
        # begins, rise ends at the period wrap, and the per-period conduction
        # integral stays exactly duty * period_samples.
        ramp = (np.arange(tt) + 0.5) / tt
        g[bar_n - tt : bar_n] = 1.0 - ramp
        g[p - tt :] = ramp
    return g


def trace_for(schedule: ControlSchedule, side: str, n_samples: int) -> np.ndarray:
    """Materialize n_samples of the periodic bar-fraction trace g for one side."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    base = _one_period(schedule)
    shift = schedule.offset_samples if side == "right" else 0
    idx = (np.arange(n_samples) - shift) % schedule.period_samples
    return base[idx]


def expanded_controls(
    schedule: ControlSchedule, n_samples: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-switch control expansion: columns c1 = left bar, c2 = 1 - c1,
    c3 = right bar, c4 = 1 - c3. Returns (time_s, (n_samples, 4) array)."""
    left = trace_for(schedule, "left", n_samples)
    right = trace_for(schedule, "right", n_samples)
    t = np.arange(n_samples) / schedule.sample_rate
    return t, np.column_stack([left, 1.0 - left, right, 1.0 - right])


def validate_schedule(
    schedule: ControlSchedule, line_tau: float, link_delay: float = 0.0
) -> ScheduleReport:
    """Advisory report of the side-offset-to-line-delay mismatch.

    mismatch_s is offset - line_tau, with offset the applied side offset
    offset_samples / sample_rate. The offset that cancels leakage is the
    one-way link delay, line_tau plus the crossbar latency link_delay
    (k_link samples), so the isolation flag is raised when the offset
    misses that by more than the transition window.
    """
    offset = schedule.offset_samples / schedule.sample_rate
    mismatch = offset - line_tau
    fraction = mismatch / line_tau if line_tau else float("inf")
    link_mismatch = offset - (line_tau + link_delay)
    # Rounding residue of the sums is no mismatch, even with instantaneous
    # switching: allow 1e-9 of the offset, far below one sample.
    flag = abs(link_mismatch) > schedule.t_transition + 1e-9 * abs(offset)
    messages = []
    if flag:
        latency = (
            f", {link_mismatch * 1e9:+.3f} ns with the {link_delay * 1e9:.3f} ns crossbar latency"
            if link_delay
            else ""
        )
        messages.append(
            f"side offset {offset * 1e9:.3f} ns differs from line delay "
            f"{line_tau * 1e9:.3f} ns by {mismatch * 1e9:+.3f} ns "
            f"({100 * fraction:+.2f}%){latency}, beyond the {schedule.t_transition * 1e9:.3f} ns "
            "transition window; first-order isolation degradation expected"
        )
    return ScheduleReport(mismatch, fraction, flag, messages)
