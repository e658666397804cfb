"""Command-line front end: YAML config in, CSV/SVG artifacts out.

Commands
--------
sweep      S-parameter sweep over the analysis band -> sweep.csv,
           metrics.csv, sweep.svg
spectrum   single-tone spectral probe at band center -> spectrum.csv,
           spectrum.svg
modsweep   isolation vs switching frequency -> modsweep.csv, modsweep.svg
linecheck  static delay-line-only two-port sweep with group delay ->
           linecheck_a.csv, linecheck_b.csv, linecheck.svg, linecheck_delay.svg
schedule   expanded four-column control waveforms for one period ->
           schedule.csv, schedule.svg
run        single time-domain burst through the circulator -> run.csv

Commands compute, execute writes. Each command is a function of the
config and the flag overrides that returns its artifacts (file name to CSV
rows or to a Chart), its notes and its summary, and does no I/O. execute
alone writes every artifact under the same three header lines (tool
version, a digest of the configuration, the command with the flags that
were set; "# " in CSV, "<!-- -->" in SVG), prints the notes as warnings on
stderr and the summary on stdout, and returns the paths. Files contain
nothing time- or host-dependent: rerunning a command on the same config
and flags yields byte-identical files. SVG output is hand-assembled plain
text (no plotting dependency) and is presentation-only; all numbers live
in the CSVs.

Exit codes: 0 success, 1 configuration error (including bad command-line
usage), 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
import warnings as _warnings
from pathlib import Path
from xml.sax.saxutils import escape

import numpy as np
import yaml

from . import __version__
from .analysis import (
    AnalysisWarning,
    FORWARD_PATHS,
    REVERSE_PATHS,
    group_delay,
    grouped_notes,
    line_sweep,
    loss_db,
    metrics,
    modfreq_sweep,
    sparams_sweep,
    spectrum_probe,
)
from .elements import DelayLineSpec, MatchSpec, SwitchSpec, TouchstoneLineRef
from .engine import (
    DEFAULT_BAND,
    K_LINK_BARE,
    K_LINK_MATCHED,
    CirculatorConfig,
    build_circulator,
    run as run_network,
    window_problems,
)
from .errors import ConfigError
from .schedule import build_schedule, expanded_controls, validate_schedule
from .signals import dbm_to_amplitude, make_burst
from .touchstone import parse_touchstone

DEFAULT_IR_LEN = 8192
# Upper bound on the frequency points of a band (engine.MAX_PERIODS bounds
# each analysis window).
MAX_POINTS = 1024

_SVG_SIZE = (720, 432)  # chart width and height, pixels
_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)


_REQUIRED = dataclasses.MISSING

# Value kind of a spec field, by its annotation. A trailing "?" lets null
# through as None; "a|b" accepts either structure.
_FIELD_KINDS = {
    "float": "number",
    "float | None": "number?",
    "int": "integer",
    "str": "string",
    "tuple[tuple[int, float], ...]": "pairs",
    "tuple[float, ...]": "numbers?",
    "tuple[float, float, int]": "mapping?",
}
_STRUCTURES = {"mapping": dict, "list": list, "string": str}
# The only numbers where inf is a setting: no leakage, no port reflection.
_INF_MEANS_NONE = ("iso_off_db", "port_return_db")

_TOP = {
    "sample_rate": ("number", _REQUIRED), "line_a": ("mapping", _REQUIRED),
    "line_b": ("mapping", _REQUIRED), "switch": ("mapping?", None),
    "schedule": ("mapping", _REQUIRED), "matching": ("mapping|list?", None),
    "analysis": ("mapping?", None),
}
_SCHEDULE = {
    "period": ("number", _REQUIRED), "duty": ("number", 0.5), "side_offset": ("number?", None)
}
_BAND = dict(zip(("start", "stop", "points"), zip(("number", "number", "integer"), DEFAULT_BAND)))
_TOUCHSTONE_LINE = {"touchstone": ("string", _REQUIRED), "ir_len": ("integer", DEFAULT_IR_LEN)}


def _fields(cls, names=None, **override) -> dict:
    """Schema {key: (kind, default)} of cls's fields (those in names); no default: required."""
    schema = {
        f.name: (_FIELD_KINDS[f.type], f.default)
        for f in dataclasses.fields(cls)
        if names is None or f.name in names
    }
    return schema | override


_LINE = _fields(DelayLineSpec, tau=("number", _REQUIRED))
_SWITCH = _fields(SwitchSpec)
_MATCH = _fields(MatchSpec)
_ANALYSIS = _fields(
    CirculatorConfig,
    ("drive_dbm", "iso_threshold_db", "settle_periods", "measure_periods",
     "spectrum_window_periods", "band", "fmod_values"),
)


def _value(value, kind: str, name: str, problems: list[str]):
    """value read as one kind, or None once a problem is recorded."""
    if value is None and kind.endswith("?"):
        return None
    kind = kind.rstrip("?")
    if kind == "number":
        try:
            out = math.nan if isinstance(value, bool) else float(value)
        except (TypeError, ValueError, OverflowError):
            out = math.nan
        if math.isfinite(out) or (math.isinf(out) and name.endswith(_INF_MEANS_NONE)):
            return out
        finite = "finite " if math.isinf(out) else ""
        problems.append(f"{name}: expected a {finite}number, got {value!r}")
    elif kind == "integer":
        # Strict: YAML 1.1 reads 1e30 as a string, which must not pass.
        if type(value) is int or (type(value) is float and value.is_integer()):
            return int(value)
        problems.append(f"{name}: expected an integer, got {value!r}")
    elif kind == "numbers":
        if isinstance(value, list):
            n = len(problems)
            out = tuple(_value(v, "number", name, problems) for v in value)
            return out if len(problems) == n else None
        problems.append(f"{name}: expected a list of numbers, got {value!r}")
    elif kind == "pairs":
        if isinstance(value, list) and all(isinstance(p, list) and len(p) == 2 for p in value):
            n = len(problems)
            out = tuple(
                (_value(k, "integer", name, problems), _value(v, "number", name, problems))
                for k, v in value
            )
            return out if len(problems) == n else None
        problems.append(f"{name}: expected [k, level_db] pairs, got {value!r}")
    elif isinstance(value, tuple(_STRUCTURES[k] for k in kind.split("|"))):
        return value
    else:
        problems.append(f"{name}: expected a {kind.replace('|', ' or ')}, got {type(value).__name__}")
    return None


def _section(raw: dict, schema: dict, where: str, problems: list[str]) -> dict:
    """Every schema key read from the mapping raw, or its default where
    absent (None if required); unknown and absent required keys are problems."""
    unknown = sorted(str(key) for key in raw if key not in schema)
    if unknown:
        problems.append(f"{where or 'top level'}: unknown keys {unknown}")
    out = {}
    for key, (kind, default) in schema.items():
        name = f"{where}.{key}" if where else key
        if key in raw:
            out[key] = _value(raw[key], kind, name, problems)
        elif default is _REQUIRED:
            problems.append(f"{name}: missing required key")
            out[key] = None
        else:
            out[key] = default
    return out


def _spec(make, schema: dict, raw, where: str, problems: list[str]):
    """make(**values) of a mapping read against schema; None if raw is
    None (already reported), has problems, or make rejects it."""
    if raw is None:
        return None
    n = len(problems)
    values = _section(raw, schema, where, problems)
    if len(problems) == n:
        try:
            return make(**values)
        except (ValueError, OSError) as err:
            problems.append(f"{where}: {err}")
    return None


def _line(raw, name: str, base_dir: Path, problems: list[str]):
    """One delay line: an inline DelayLineSpec or a measured-file reference."""

    def measured(touchstone: str, ir_len: int) -> TouchstoneLineRef:
        path = (base_dir / touchstone).resolve()
        return TouchstoneLineRef(parse_touchstone(path.read_text()), ir_len)

    if raw is not None and "touchstone" in raw:
        return _spec(measured, _TOUCHSTONE_LINE, raw, name, problems)
    return _spec(DelayLineSpec, _LINE, raw, name, problems)


def _crossbar_latency(matching, fs: float) -> float:
    """Seconds a through traversal adds to the line delay: k_link samples,
    2 bare and 4 with matching sections."""
    return (K_LINK_BARE if matching is None else K_LINK_MATCHED) / fs


def _s21_delay(line: TouchstoneLineRef, f: float) -> float:
    """Delay (s) of a measured line at f: the slope of its S21 phase over
    the measured interval nearest f. A single point has no slope: nan,
    which the schedule advisory passes over."""
    freqs, s21 = line.data.frequencies, line.data.s[:, 1, 0]
    if len(freqs) < 2:
        return math.nan
    k = min(max(int(np.searchsorted(freqs, f)), 1), len(freqs) - 1)
    step = float(np.angle(s21[k] * np.conj(s21[k - 1])))
    return -step / (2.0 * math.pi * float(freqs[k] - freqs[k - 1]))


def load_config(path) -> CirculatorConfig:
    """Parse and validate a YAML circulator configuration.

    Every section is read against its schema by the same rules (see the
    README), and all problems are reported in one ConfigError. Schedule/
    line-delay mismatches are not errors but warnings on the config; a
    measured line's delay is its S21 phase slope at the band centre.
    """
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as err:
        raise ConfigError(f"cannot parse config {path}: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path}: top level must be a mapping")

    problems: list[str] = []
    top = _section(raw, _TOP, "", problems)
    fs = top["sample_rate"]
    if fs is not None and fs <= 0:
        problems.append(f"sample_rate must be positive, got {fs:.6g}")
        fs = None
    line_a = _line(top["line_a"], "line_a", p.parent, problems)
    if top["line_b"] is top["line_a"] is not None:
        line_b = line_a  # a YAML alias of line_a: read it once
    else:
        line_b = _line(top["line_b"], "line_b", p.parent, problems)
    switch = _spec(SwitchSpec, _SWITCH, top["switch"] or {}, "switch", problems)

    matching = top["matching"]
    if isinstance(matching, list):
        if len(matching) != 4:
            problems.append(f"matching: expected one network or exactly four, got {len(matching)}")
        where = [f"matching[{i}]" for i in range(len(matching))]
        matching = tuple(
            _spec(MatchSpec, _MATCH, _value(e, "mapping", w, problems), w, problems)
            for e, w in zip(matching, where)
        )
        matching = matching if len(matching) == 4 and None not in matching else None
    else:
        matching = _spec(MatchSpec, _MATCH, matching, "matching", problems)

    schedule = None
    sched = _section(top["schedule"] or {}, _SCHEDULE, "schedule", problems)
    if fs is not None and None not in (sched["period"], sched["duty"]):
        t_transition = (switch or SwitchSpec()).t_transition
        try:
            schedule = build_schedule(
                sched["period"], t_transition, sched["duty"], fs, sched["side_offset"]
            )
        except ConfigError as err:
            problems.append(f"schedule: {err}")

    analysis = _section(top["analysis"] or {}, _ANALYSIS, "analysis", problems)
    band = analysis["band"] or DEFAULT_BAND
    if isinstance(band, dict):
        band = tuple(_section(band, _BAND, "analysis.band", problems).values())
        if None not in band and not (band[0] < band[1] and 2 <= band[2] <= MAX_POINTS):
            problems.append(
                f"analysis.band: start must be below stop, and points from 2 to {MAX_POINTS}"
            )
    problems += window_problems(analysis)

    lines = [(name, line) for name, line in (("line_a", line_a), ("line_b", line_b))
             if isinstance(line, DelayLineSpec)]
    limits = [(f"the {name} center frequency", line.f_center) for name, line in lines]
    matches = matching if isinstance(matching, tuple) else (matching,) if matching else ()
    limits += [("the matching f0", f0) for f0 in dict.fromkeys(m.f0 for m in matches)]
    for what, f in limits + [("the analysis band stop", band[1])]:
        if fs is not None and f is not None and fs <= 2.0 * f:
            problems.append(
                f"sample_rate {fs:.6g} Hz is below the Nyquist limit for {what} {f:.6g} Hz"
            )

    if problems:
        raise ConfigError(
            f"invalid configuration {path}:\n  - " + "\n  - ".join(problems)
        )

    digest = hashlib.sha256(
        json.dumps(raw, sort_keys=True, separators=(",", ":"), default=str).encode()
    ).hexdigest()[:16]
    analysis.update(band=band, fmod_values=analysis["fmod_values"] or ())
    centre = 0.5 * (band[0] + band[1])
    delays = [
        (name, line.tau if isinstance(line, DelayLineSpec) else _s21_delay(line, centre))
        for name, line in (("line_a", line_a), ("line_b", line_b))
    ]
    return CirculatorConfig(
        sample_rate=fs,
        line_a=line_a,
        line_b=line_b,
        switch=switch,
        schedule=schedule,
        matching=matching,
        digest=digest,
        # Physics warnings, not errors: commutation offset vs actual link delay.
        warnings=tuple(grouped_notes(
            (name, msg) for name, tau in delays
            for msg in validate_schedule(schedule, tau, _crossbar_latency(matching, fs)).messages
        )),
        **analysis,
    )


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _header(config: CirculatorConfig, command: str, overrides: dict, form: str) -> list[str]:
    """The three lines every artifact begins with, each put in the comment
    form ("# {}" for CSV, "<!-- {} -->" for SVG). The third names the
    command and each flag that was set, in command-line form."""
    flags = (
        f"--{key.replace('_', '-')} " + (",".join(map(_fmt, v)) if isinstance(v, list) else _fmt(v))
        for key, v in overrides.items() if v is not None
    )
    lines = (f"sdlsim {__version__}", f"config {config.digest}", " ".join(["command", command, *flags]))
    return [form.format(line) for line in lines]


def _grid_rows(grid, delays=None) -> list[str]:
    """CSV rows of an n-port S grid: frequency, re/im of every s_ji (row j
    outer), then the group delay when given."""
    ports = range(1, grid.n_ports + 1)
    cols = ["frequency_hz"] + [
        f"s{j}{i}_{part}" for j in ports for i in ports for part in ("re", "im")
    ]
    if delays is not None:
        cols.append("group_delay_s")
    rows = [",".join(cols)]
    for k, f in enumerate(grid.frequencies):
        row = [_fmt(f)] + [_fmt(v) for s in grid.s[k].flat for v in (s.real, s.imag)]
        if delays is not None:
            row.append(_fmt(delays[k]))
        rows.append(",".join(row))
    return rows


@dataclasses.dataclass(frozen=True)
class Chart:
    """A line chart: title, axis labels and (label, xs, ys) series."""

    title: str
    xlabel: str
    ylabel: str
    series: list[tuple[str, list[float], list[float]]]


def _segments(xs, ys):
    """Split a trace at non-finite samples so polylines stay well formed."""
    seg, out = [], []
    for x, y in zip(xs, ys):
        if math.isfinite(x) and math.isfinite(y):
            seg.append((x, y))
        elif seg:
            out.append(seg)
            seg = []
    if seg:
        out.append(seg)
    return out


def render_svg(chart: Chart) -> list[str]:
    """Minimal deterministic line chart, as lines of SVG. Data of record
    lives in the CSVs."""
    series = chart.series
    width, height = _SVG_SIZE
    left, right, top, bottom = 72, 18, 30, 46
    pw, ph = width - left - right, height - top - bottom
    finite_x = [x for _, xs, ys in series for x, y in zip(xs, ys) if math.isfinite(x) and math.isfinite(y)]
    finite_y = [y for _, xs, ys in series for x, y in zip(xs, ys) if math.isfinite(x) and math.isfinite(y)]
    x_lo, x_hi = (min(finite_x), max(finite_x)) if finite_x else (0.0, 1.0)
    y_lo, y_hi = (min(finite_y), max(finite_y)) if finite_y else (0.0, 1.0)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5

    def sx(x):
        return left + (x - x_lo) / (x_hi - x_lo) * pw

    def sy(y):
        return top + ph - (y - y_lo) / (y_hi - y_lo) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}"'
        f' viewBox="0 0 {width} {height}" font-family="monospace" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
        f'<rect x="{left}" y="{top}" width="{pw}" height="{ph}" fill="none" stroke="#444444"/>',
    ]
    for i in range(5):
        fx = x_lo + i * (x_hi - x_lo) / 4
        fy = y_lo + i * (y_hi - y_lo) / 4
        px, py = sx(fx), sy(fy)
        out += [
            f'<line x1="{px:.2f}" y1="{top}" x2="{px:.2f}" y2="{top + ph}" stroke="#dddddd"/>',
            f'<line x1="{left}" y1="{py:.2f}" x2="{left + pw}" y2="{py:.2f}" stroke="#dddddd"/>',
            f'<text x="{px:.2f}" y="{top + ph + 16}" text-anchor="middle">{fx:.6g}</text>',
            f'<text x="{left - 6}" y="{py + 4:.2f}" text-anchor="end">{fy:.6g}</text>',
        ]
    for k, (label, xs, ys) in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        for seg in _segments(xs, ys):
            pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in seg)
            out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        out.append(
            f'<text x="{left + pw - 6}" y="{top + 16 + 14 * k}" text-anchor="end"'
            f' fill="{color}">{escape(str(label))}</text>'
        )
    mid_x, mid_y = (left + width - right) / 2, (top + height - bottom) / 2
    return out + [
        f'<text x="{mid_x:.1f}" y="{top - 10}" text-anchor="middle">{escape(chart.title)}</text>',
        f'<text x="{mid_x:.1f}" y="{height - 8}" text-anchor="middle">{escape(chart.xlabel)}</text>',
        f'<text x="14" y="{mid_y:.1f}" text-anchor="middle"'
        f' transform="rotate(-90 14 {mid_y:.1f})">{escape(chart.ylabel)}</text>',
        "</svg>",
    ]


def _band_frequencies(config: CirculatorConfig, overrides: dict) -> np.ndarray:
    # An unset flag (None) keeps the configured value; 0 is a given value.
    start, stop, points = (
        default if overrides.get(key) is None else overrides[key]
        for key, default in zip(("freq_start", "freq_stop", "freq_points"), config.band)
    )
    if not start < stop:
        raise ConfigError(f"frequency band start {start:.6g} must be below stop {stop:.6g}")
    if not 2 <= points <= MAX_POINTS:
        raise ConfigError(f"frequency band needs 2 to {MAX_POINTS} points, got {points}")
    return np.linspace(start, stop, int(points))


def _cmd_sweep(config: CirculatorConfig, overrides: dict):
    freqs = _band_frequencies(config, overrides)
    grid = sparams_sweep(config, freqs)
    threshold = overrides.get("threshold_db")
    m = metrics(grid, config.iso_threshold_db if threshold is None else threshold)
    table = [
        ("center_frequency_hz", m.center_frequency),
        ("bandwidth_hz", m.bandwidth),
        ("fractional_bandwidth", m.fbw),
        ("iso_threshold_db", m.iso_threshold_db),
    ]
    for prefix, values in (
        ("il_", m.il_db), ("iso_", m.iso_db), ("directivity_", m.directivity_db), ("rl_port", m.rl_db)
    ):
        table += [(f"{prefix}{key}_db", values[key]) for key in sorted(values)]
    rows = ["key,value"] + [f"{key},{_fmt(v)}" for key, v in table] + [f"flag,{f}" for f in m.flags]

    fmhz = [f / 1e6 for f in grid.frequencies]
    series = [
        (f"S{key} {tag}", fmhz, [-loss_db(s) for s in grid.s[:, j, i]])
        for paths, tag in ((FORWARD_PATHS, "fwd"), (REVERSE_PATHS, "rev"))
        for key, (j, i) in sorted(paths.items())
    ]
    chart = Chart("transmission over the analysis band", "frequency / MHz", "|S| / dB", series)
    summary = (
        f"bandwidth {m.bandwidth / 1e6:.3f} MHz at {m.iso_threshold_db:g} dB isolation,"
        f" worst forward loss {m.worst_il_db:.2f} dB"
    )
    return {"sweep.csv": _grid_rows(grid), "metrics.csv": rows, "sweep.svg": chart}, grid.warnings, [summary]


def _cmd_spectrum(config: CirculatorConfig, overrides: dict):
    freqs = _band_frequencies(config, overrides)
    f0 = 0.5 * (freqs[0] + freqs[-1])
    rep = spectrum_probe(config, f0)
    table = (
        ("f0_hz", rep.f0), ("f_mod_hz", rep.f_mod), ("input_main_dbm", rep.input_main_dbm),
        ("il_db", rep.il_db), ("iso3_db", rep.iso3_db), ("iso4_db", rep.iso4_db),
    )
    rows = [f"# {key} {_fmt(v)}" for key, v in table] + ["port,order,frequency_hz,power_dbm"]
    rows += [
        f"{port.port},{line.order},{_fmt(line.frequency)},{_fmt(line.power_dbm)}"
        for port in rep.ports for line in port.lines
    ]
    chart = Chart(
        f"output spectra around {f0 / 1e6:.3f} MHz drive",
        "sideband order k (f0 + k fmod)", "power / dBm",
        [(f"port {port.port}", [ln.order for ln in port.lines], [ln.power_dbm for ln in port.lines])
         for port in rep.ports],
    )
    summary = (
        f"main-tone loss {rep.il_db:.2f} dB, leakage below drive:"
        f" port3 {rep.iso3_db:.2f} dB, port4 {rep.iso4_db:.2f} dB"
    )
    return {"spectrum.csv": rows, "spectrum.svg": chart}, rep.warnings, [summary]


def _default_fmod_grid(config: CirculatorConfig) -> list[float]:
    # 21 period candidates around the configured one, quartet-aligned.
    n0 = config.schedule.period_samples
    ns = [n0 + 40 * k for k in range(-10, 11) if n0 + 40 * k >= 8]
    return sorted(config.sample_rate / n for n in ns)


def _quarter_wave_rule(config: CirculatorConfig) -> float | None:
    """Switching frequency at which leakage through the commutation cancels:
    the side offset (a quarter period) equals the one-way link delay, line
    delay tau plus the crossbar latency of k_link samples. None unless line
    A has an analytic delay."""
    if not isinstance(config.line_a, DelayLineSpec):
        return None
    return 1.0 / (4.0 * (config.line_a.tau + _crossbar_latency(config.matching, config.sample_rate)))


def _cmd_modsweep(config: CirculatorConfig, overrides: dict):
    values = overrides.get("fmod")
    if values is None:
        values = list(config.fmod_values) or _default_fmod_grid(config)
    elif not values:
        raise ConfigError("--fmod lists no switching frequency")
    freqs = _band_frequencies(config, overrides)
    f0 = 0.5 * (freqs[0] + freqs[-1])
    points = modfreq_sweep(config, values, f0)
    rows = ["f_mod_hz,f_mod_achieved_hz,il_db,iso_db"] + [
        ",".join([_fmt(pt.f_mod), _fmt(pt.f_mod_achieved), _fmt(pt.il_db), _fmt(pt.iso_db)])
        for pt in points
    ]
    notes = [f"f_mod {pt.f_mod:.6g} Hz skipped: {pt.note}" for pt in points if pt.note]
    # Every point carries the shared network's element warnings.
    notes += dict.fromkeys(note for pt in points for note in pt.warnings)

    ok = [pt for pt in points if pt.note is None]
    xs = [pt.f_mod_achieved / 1e3 for pt in ok]
    chart = Chart(
        f"isolation vs switching frequency at {f0 / 1e6:.3f} MHz", "switching frequency / kHz", "dB",
        [("worst isolation", xs, [pt.iso_db for pt in ok]),
         ("worst insertion loss", xs, [pt.il_db for pt in ok])],
    )
    summary = []
    rule = _quarter_wave_rule(config)
    if rule is not None:
        summary.append(
            f"quarter-wave rule: f_mod = {rule / 1e3:.3f} kHz"
            f" (period {config.sample_rate / rule:.1f} samples)"
        )
    if ok:
        best = max(ok, key=lambda pt: pt.iso_db)
        gap = "" if rule is None else f", {abs(best.f_mod_achieved - rule) / 1e3:.3f} kHz from the rule"
        summary.append(
            f"best isolation {best.iso_db:.2f} dB at f_mod {best.f_mod_achieved / 1e3:.3f} kHz{gap}"
        )
    return {"modsweep.csv": rows, "modsweep.svg": chart}, notes, summary


def _cmd_linecheck(config: CirculatorConfig, overrides: dict):
    freqs = _band_frequencies(config, overrides)
    artifacts, notes, summary = {}, [], []
    svg_series, delay_series = [], []
    for tag, line in (("a", config.line_a), ("b", config.line_b)):
        grid = line_sweep(line, config.sample_rate, freqs, f"line_{tag}")
        with _warnings.catch_warnings(record=True) as caught:
            _warnings.simplefilter("always", AnalysisWarning)
            delays = [d for _, d in group_delay(grid, path=(2, 1))]
        notes += [f"line_{tag}: {note}" for note in [*grid.warnings, *(w.message for w in caught)]]
        artifacts[f"linecheck_{tag}.csv"] = _grid_rows(grid, delays)
        fmhz = [f / 1e6 for f in grid.frequencies]
        svg_series.append((f"line {tag} S21", fmhz, [-loss_db(s) for s in grid.s[:, 1, 0]]))
        delay_series.append((f"line {tag}", fmhz, [d * 1e9 for d in delays]))
        mid = len(delays) // 2
        summary.append(f"line_{tag}: group delay {delays[mid] * 1e9:.2f} ns at {fmhz[mid]:.3f} MHz")
    artifacts["linecheck.svg"] = Chart(
        "delay line transmission", "frequency / MHz", "|S21| / dB", svg_series
    )
    artifacts["linecheck_delay.svg"] = Chart(
        "delay line group delay", "frequency / MHz", "delay / ns", delay_series
    )
    return artifacts, notes, summary


def _cmd_schedule(config: CirculatorConfig, overrides: dict):
    n = config.schedule.period_samples
    t, controls = expanded_controls(config.schedule, n)
    rows = [
        f"# period_samples {n}",
        f"# f_mod_hz {_fmt(config.sample_rate / n)}",
        "time_s,left_bar,left_cross,right_bar,right_cross",
    ]
    rows += [",".join([_fmt(t[k])] + [_fmt(controls[k, c]) for c in range(4)]) for k in range(n)]

    tus = [tk * 1e9 for tk in t]
    names = ("left bar", "left cross", "right bar", "right cross")
    # Stack traces with a 1.5 offset so the four square waves stay readable.
    series = [
        (names[c], tus, [controls[k, c] + 1.5 * (3 - c) for k in range(n)]) for c in range(4)
    ]
    chart = Chart("crossbar control waveforms, one period", "time / ns", "control (offset)", series)
    summary = f"one period = {n} samples ({n / config.sample_rate * 1e6:.4f} us)"
    return {"schedule.csv": rows, "schedule.svg": chart}, (), [summary]


def _cmd_run(config: CirculatorConfig, overrides: dict):
    freqs = _band_frequencies(config, overrides)
    f0 = 0.5 * (freqs[0] + freqs[-1])
    period_s = config.schedule.period_samples / config.sample_rate
    stim = make_burst(f0, dbm_to_amplitude(config.drive_dbm), t_start=0.0, t_rise=10e-9,
                      t_hold=period_s, sample_rate=config.sample_rate)
    n = len(stim) + config.schedule.period_samples
    network = build_circulator(config)
    record = run_network(network, [stim, None, None, None], n)

    header = ["sample", "time_s"]
    for p in range(1, 5):
        header += [f"p{p}_in", f"p{p}_out"]
    rows = [f"# burst_center_hz {_fmt(f0)}", ",".join(header)]
    dt = 1.0 / config.sample_rate
    for k in range(n):
        row = [str(k), _fmt(k * dt)]
        for p in range(4):
            row += [_fmt(record.port_in[p].samples[k]), _fmt(record.port_out[p].samples[k])]
        rows.append(",".join(row))
    summary = (
        f"burst energy in {record.input_energy():.6g}, out {record.output_energy():.6g}"
        f" over {n} samples"
    )
    return {"run.csv": rows}, (), [summary]


_COMMANDS = {
    "sweep": _cmd_sweep,
    "spectrum": _cmd_spectrum,
    "modsweep": _cmd_modsweep,
    "linecheck": _cmd_linecheck,
    "schedule": _cmd_schedule,
    "run": _cmd_run,
}


def execute(command: str, config: CirculatorConfig, out_dir, **overrides) -> list[Path]:
    """Run one command against a loaded config: write each of its artifacts
    to out_dir under the three header lines, print its notes on stderr and
    its summary on stdout, and return the files written, in order."""
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    artifacts, notes, summary = _COMMANDS[command](config, overrides)
    for note in notes:
        print(f"warning: {note}", file=sys.stderr)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, body in artifacts.items():
        if isinstance(body, Chart):
            lines = _header(config, command, overrides, "<!-- {} -->") + render_svg(body)
        else:
            lines = _header(config, command, overrides, "# {}") + body
        path = out / name
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written.append(path)
    for line in summary:
        print(line)
    return written


class _Parser(argparse.ArgumentParser):
    # Usage problems are configuration errors: exit code 1, not argparse's 2.
    def error(self, message):
        raise ConfigError(message)


def _finite(text: str) -> float:
    """A flag's number; nan, inf and non-numbers are usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _finite_list(text: str) -> list[float]:
    return [_finite(v) for v in text.split(",") if v.strip()]


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="sdlsim",
        description="switched-delay-line circulator simulator",
    )
    parser.add_argument("--version", action="version", version=f"sdlsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, help_text in (
        ("sweep", "S-parameter sweep, metrics, and plot over the analysis band"),
        ("spectrum", "single-tone spectral probe at the band center"),
        ("modsweep", "isolation versus switching frequency"),
        ("linecheck", "static delay-line two-port sweep with group delay"),
        ("schedule", "expanded control waveforms for one commutation period"),
        ("run", "time-domain burst through the circulator"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="YAML configuration file")
        cmd.add_argument("--out", default="out", help="output directory (default: out)")
        if name != "schedule":
            cmd.add_argument("--freq-start", type=_finite, help="band start in Hz")
            cmd.add_argument("--freq-stop", type=_finite, help="band stop in Hz")
            cmd.add_argument("--freq-points", type=int, help="number of sweep points")
        if name == "modsweep":
            cmd.add_argument(
                "--fmod", type=_finite_list, help="comma-separated switching frequencies in Hz"
            )
        if name == "sweep":
            cmd.add_argument(
                "--threshold-db", type=_finite, help="isolation threshold for metrics"
            )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = load_config(args.config)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    for note in config.warnings:
        print(f"warning: {note}", file=sys.stderr)
    overrides = {
        key: getattr(args, key)
        for key in ("freq_start", "freq_stop", "freq_points", "threshold_db", "fmod")
        if getattr(args, key, None) is not None
    }
    try:
        written = execute(args.command, config, args.out, **overrides)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # SimulationFault, OSError, numerical failures
        print(f"runtime error: {err}", file=sys.stderr)
        return 2
    for path in written:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
