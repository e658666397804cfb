"""Analytic event-walk oracle for single bursts: the time-domain reference
the engine is checked against (acceptance check 06 and tests/test_engine.py).

Within its domain (instantaneous switching, infinite off-isolation, flat
behavioral lines, no matching) it predicts every arrival of a burst, port,
time and signed amplitude, by walking the burst through the schedule's
switch states; outside it, or when a burst straddles a switching instant,
it declines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sdlsim.elements import DelayLineSpec
from sdlsim.engine import _PORT_MAP, CirculatorConfig
from sdlsim.schedule import trace_for


class OracleDeclined(Exception):
    """The event-walk oracle cannot predict this case exactly."""


@dataclass(frozen=True)
class BurstInjection:
    """Short single-port burst for oracle-vs-engine comparisons."""

    port: int
    t_start: float
    duration: float
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        if self.port not in (1, 2, 3, 4):
            raise ValueError("port must be 1..4")
        if self.t_start < 0 or self.duration <= 0:
            raise ValueError("need t_start >= 0 and duration > 0")


@dataclass(frozen=True)
class PredictedArrival:
    port: int
    time: float  # seconds, link latency excluded
    amplitude: float  # signed scale relative to the injected wave
    path: str


def _binary_state(g_period: np.ndarray, start: int, stop: int) -> int:
    """Constant switch state over samples [start, stop), else decline."""
    idx = np.arange(start, stop) % len(g_period)
    vals = g_period[idx]
    if np.any(vals != vals[0]):
        raise OracleDeclined(
            f"burst window [{start}, {stop}) straddles a switching instant"
        )
    return int(vals[0])


def _exit_port(side: str, line: str, bar: int) -> int:
    # bar: LineA<->PortTop, LineB<->PortBot; cross swaps.
    top = (line == "a") == bool(bar)
    if side == "left":
        return 1 if top else 3
    return 2 if top else 4


def event_walk_oracle(config: CirculatorConfig, injection: BurstInjection) -> list[PredictedArrival]:
    """Analytic walk of one burst through the schedule states.

    Supported domain: instantaneous switching, infinite off-isolation, flat
    (unfiltered) delay lines, no matching. Within it the walk is exact:
    finite line loss, port reflections, and echo paths each produce one
    predicted arrival, and the crossbar line ports never re-reflect because
    the off-throw reflection vanishes in settled states. Times exclude link
    latency; the engine observes each arrival k_link samples later.
    """
    switch = config.switch
    if switch.t_transition != 0:
        raise ValueError("oracle requires instantaneous switching (t_transition = 0)")
    if not math.isinf(switch.iso_off_db):
        raise ValueError("oracle requires infinite off-state isolation")
    if config.matching is not None:
        raise ValueError("oracle does not model matching sections")
    for spec in (config.line_a, config.line_b):
        if not isinstance(spec, DelayLineSpec):
            raise ValueError("oracle requires behavioral delay-line specs")
        if spec.bandwidth is not None and spec.band_order > 0:
            raise ValueError("oracle requires flat-band lines")

    fs = config.sample_rate
    schedule = config.schedule
    p = schedule.period_samples
    traces = {
        "left": trace_for(schedule, "left", p),
        "right": trace_for(schedule, "right", p),
    }
    n0 = round(injection.t_start * fs)
    n1 = n0 + max(1, math.ceil(injection.duration * fs))

    side, _ = _PORT_MAP[injection.port]
    far = "right" if side == "left" else "left"
    bar = _binary_state(traces[side], n0, n1)
    top = injection.port in (1, 2)
    line = "a" if top == bool(bar) else "b"
    spec: DelayLineSpec = config.line_a if line == "a" else config.line_b

    s_on = 10.0 ** (-switch.il_on_db / 20.0)
    g_line = 10.0 ** (-spec.il_db / 20.0)
    d = round(spec.tau * fs)
    arrivals: list[PredictedArrival] = []

    if not math.isinf(spec.port_return_db):
        r = 10.0 ** (-spec.port_return_db / 20.0)
        bar_back = _binary_state(traces[side], n0, n1)
        arrivals.append(
            PredictedArrival(
                port=_exit_port(side, line, bar_back),
                time=n0 / fs,
                amplitude=-injection.amplitude * r * s_on**2,
                path="port-reflection",
            )
        )

    hops = [(1, g_line, "through")] + [
        (k, g_line * 10.0 ** (level / 20.0), f"echo-k{k}") for k, level in spec.echoes
    ]
    for k, gain, path in hops:
        exit_side = far if k % 2 else side
        m = n0 + k * d
        bar_exit = _binary_state(traces[exit_side], m, m + (n1 - n0))
        arrivals.append(
            PredictedArrival(
                port=_exit_port(exit_side, line, bar_exit),
                time=m / fs,
                amplitude=injection.amplitude * gain * s_on**2,
                path=path,
            )
        )
    arrivals.sort(key=lambda a: a.time)
    return arrivals
