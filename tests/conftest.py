"""Shared pytest plumbing: collect verdict lines into the terminal summary,
the phasor projection the element and burst tests measure with, and the
measured line of the block and settling tests."""

import math

import numpy as np

from sdlsim.touchstone import TouchstoneData

VERDICTS: list[str] = []


def record_verdict(line: str) -> None:
    VERDICTS.append(line)


def pytest_terminal_summary(terminalreporter) -> None:
    if VERDICTS:
        terminalreporter.section("conformance verdicts")
        for line in VERDICTS:
            terminalreporter.write_line(line)


def phasor(x, frequency: float, sample_rate: float, start: int = 0, length: int | None = None) -> complex:
    """Complex amplitude of record x at frequency: x projected onto
    exp(-j*w*n), n its sample index, over the most whole cycles that fit in
    x[start:start + length], times 2/N. A tone a*cos(w*n + p) gives a*e^(jp)."""
    length = len(x) - start if length is None else length
    n = round(math.floor(length * frequency / sample_rate) * sample_rate / frequency)
    idx = np.arange(start, start + n)
    return 2.0 / n * np.dot(x[idx], np.exp(-2j * math.pi * frequency / sample_rate * idx))


def measured_line() -> TouchstoneData:
    """Delayed, lossy line with a reflection, so the FIR has a direct S11 tap."""
    freqs = np.linspace(100e6, 210e6, 111)
    s = np.zeros((len(freqs), 2, 2), dtype=complex)
    s[:, 1, 0] = s[:, 0, 1] = 0.6 * np.exp(-2j * math.pi * freqs * 150e-9)
    s[:, 0, 0] = s[:, 1, 1] = -0.15 * np.exp(-2j * math.pi * freqs * 10e-9)
    return TouchstoneData(freqs, s)
