"""Shared pytest plumbing: collect verdict lines into the terminal summary,
and the phasor projection the element and burst tests measure with."""

import math

import numpy as np

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
