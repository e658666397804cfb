"""Exception types shared across the simulator."""

from __future__ import annotations


class ConfigError(Exception):
    """Invalid or inconsistent configuration; maps to CLI exit code 1."""


class QuantizationError(ConfigError):
    """A requested time does not land on the sample grid closely enough."""

    def __init__(self, message: str, nearest: float | None = None):
        super().__init__(message)
        self.nearest = nearest


class SimulationFault(RuntimeError):
    """Non-finite wave detected while stepping the network."""

    def __init__(self, sample_index: int):
        super().__init__(f"non-finite wave amplitude at sample {sample_index}")
        self.sample_index = sample_index
