"""Discrete-time simulator for switched acoustic-delay-line circulators.

Two delay lines, two commutated 2x2 crossbars, optional L-section port
matching; block-stepped traveling-wave propagation with S-parameter,
spectral, and schedule analysis on top, plus Touchstone import/export and
a CSV/SVG command-line front end.
"""

__version__ = "0.1.0"

from .analysis import (
    AnalysisWarning,
    CirculatorMetrics,
    ModFreqPoint,
    PortSpectrum,
    SParamGrid,
    SpectralLine,
    SpectrumReport,
    group_delay,
    line_sweep,
    metrics,
    modfreq_sweep,
    sparams_sweep,
    spectrum_probe,
)
from .elements import (
    DelayLineSpec,
    MatchSpec,
    SwitchSpec,
    TouchstoneElement,
    TouchstoneLineRef,
)
from .engine import (
    CirculatorConfig,
    CirculatorNetwork,
    RunRecord,
    build_circulator,
    run,
)
from .errors import ConfigError, QuantizationError, SimulationFault
from .schedule import (
    ControlSchedule,
    ScheduleReport,
    build_schedule,
    expanded_controls,
    validate_schedule,
)
from .signals import (
    SampleBuffer,
    amplitude_to_dbm,
    dbm_to_amplitude,
    make_burst,
    make_tone,
)
from .touchstone import TouchstoneData, parse_touchstone, write_touchstone

__all__ = [
    "__version__",
    "amplitude_to_dbm",
    "AnalysisWarning",
    "build_circulator",
    "build_schedule",
    "CirculatorConfig",
    "CirculatorMetrics",
    "CirculatorNetwork",
    "ConfigError",
    "ControlSchedule",
    "dbm_to_amplitude",
    "DelayLineSpec",
    "expanded_controls",
    "group_delay",
    "line_sweep",
    "make_burst",
    "make_tone",
    "MatchSpec",
    "metrics",
    "modfreq_sweep",
    "ModFreqPoint",
    "parse_touchstone",
    "PortSpectrum",
    "QuantizationError",
    "run",
    "RunRecord",
    "SampleBuffer",
    "ScheduleReport",
    "SimulationFault",
    "SParamGrid",
    "sparams_sweep",
    "SpectralLine",
    "spectrum_probe",
    "SpectrumReport",
    "SwitchSpec",
    "TouchstoneData",
    "TouchstoneElement",
    "TouchstoneLineRef",
    "validate_schedule",
    "write_touchstone",
]
