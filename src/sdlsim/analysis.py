"""Steady-state analysis of circulator runs.

S-parameters of the time-varying network are defined as same-frequency
transfer ratios: drive one port with a single tone, wait for the switching
transient to die out, then take the ratio of the output phasor to the
injected phasor at the stimulus frequency. Harmonic-conversion products are
deliberately excluded here and reported only by spectrum_probe.

Each analysis reads its settings from the CirculatorConfig it runs:
drive_dbm, settle_periods, measure_periods and spectrum_window_periods.
The windows are whole numbers of schedule periods, bounded when the config
is made, so that every intermodulation line lands on the analysis grid. A
convergence monitor compares output power between consecutive stepped
periods inside the window and flags runs that are still settling. Each analysis
also reports the warnings of the network's elements.

Every analysis of the switched network is a thin parameterisation of one
drive-and-measure kernel (_measure): the stimulus of each block is built in
closed form, the network advances the whole block (see engine: settled
spans run as blocks, switch transitions sample by sample), and each lane's
outputs and drive are projected onto its detection frequencies over its own
window. Lanes (one per frequency, drive port and schedule) are independent
runs sharing each block. Under the cosine drive a steady lane's per-period
sums follow one exact two-term recurrence, so stepping stops once every
lane is steady (after 5 periods on configs/paper.yaml, of a sweep's 14 and
a spectrum's 26) and the rest of each window is extrapolated; a lane that
never settles, or whose window is 3 periods or fewer, steps all of it. In
the harmonic-transfer view of a periodically switched network the
same-frequency S-parameter is the k = 0 term of the projection onto the
commutation lattice f0 + k*f_mod and the spectrum's sidebands are the
k != 0 terms, so sweep and modsweep detect one frequency per lane and
spectrum_probe the lattice. A bare delay line is linear and time-invariant:
line_sweep drives no lanes but evaluates the element's exact response
(element.response).
"""

from __future__ import annotations

import math
import warnings as _warnings
from dataclasses import dataclass

import numpy as np

from .elements import block_limit
from .engine import CirculatorConfig, _line_element, build_circulator
from .errors import ConfigError, QuantizationError, SimulationFault
from .schedule import ControlSchedule, build_schedule
# make_tone is not called here; benchmark/child.py --trace 1 rebinds analysis.make_tone.
from .signals import amplitude_to_dbm, dbm_to_amplitude, make_tone  # noqa: F401

FORWARD_PATHS = {"21": (1, 0), "32": (2, 1), "43": (3, 2), "14": (0, 3)}
REVERSE_PATHS = {"12": (0, 1), "23": (1, 2), "34": (2, 3), "41": (3, 0)}
# Pair key -> (forward path, reverse path) sharing those two ports.
PORT_PAIRS = {"12": ("21", "12"), "23": ("32", "23"), "34": ("43", "34"), "41": ("14", "41")}

# Highest commutation sideband order spectrum_probe reports.
SIDEBAND_ORDERS = 5

_DRIFT_LIMIT_DB = 0.1

# _measure calls a lane steady once its per-period projections obey the
# cosine drive's two-term recurrence within this fraction of the drive. The
# recurrence spans _CHECK_PERIODS periods; a window no longer steps whole.
_STEADY_TOL = 1e-12
_CHECK_PERIODS = 3


class AnalysisWarning(UserWarning):
    """Non-fatal measurement quality issue."""


@dataclass(frozen=True)
class SParamGrid:
    """Same-frequency scattering ratios on a frequency grid.

    ``s[k, j-1, i-1]`` is the wave out of port j divided by the wave into
    port i at ``frequencies[k]``. Shape is (n, 4, 4) for circulator sweeps
    and (n, 2, 2) for bare delay-line sweeps.
    """

    frequencies: tuple[float, ...]
    s: np.ndarray
    warnings: tuple[str, ...] = ()

    @property
    def n_ports(self) -> int:
        return self.s.shape[1]


@dataclass(frozen=True)
class CirculatorMetrics:
    """Band-level circulator figures extracted from an SParamGrid.

    Losses and isolations are positive dB; directivity is the contrast
    iso - il on each adjacent port pair. Bandwidth is the widest contiguous
    frequency interval where all four reverse paths stay above the
    isolation threshold while all four forward paths carry signal. il_db
    holds each forward path's smallest loss in that band, worst_il_db the
    largest loss of any forward path anywhere in it.
    """

    il_db: dict[str, float]
    worst_il_db: float
    iso_db: dict[str, float]
    directivity_db: dict[str, float]
    rl_db: dict[int, float]
    center_frequency: float
    bandwidth: float
    fbw: float
    iso_threshold_db: float
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class SpectralLine:
    order: int  # harmonic index k relative to the stimulus
    frequency: float
    power_dbm: float


@dataclass(frozen=True)
class PortSpectrum:
    port: int
    main_dbm: float
    lines: tuple[SpectralLine, ...]

    def worst_sideband_dbc(self) -> float:
        """Strongest sideband relative to the main line; -inf when no
        sideband carries power (every line of a silent port is -inf)."""
        worst = max((ln.power_dbm for ln in self.lines if ln.order != 0), default=-math.inf)
        if worst == -math.inf:
            return -math.inf
        return worst - self.main_dbm


@dataclass(frozen=True)
class SpectrumReport:
    f0: float
    f_mod: float
    input_main_dbm: float
    ports: tuple[PortSpectrum, ...]
    il_db: float
    iso3_db: float
    iso4_db: float
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class ModFreqPoint:
    """One modulation-frequency sample: worst-path loss and isolation."""

    f_mod: float  # requested value
    il_db: float
    iso_db: float
    f_mod_achieved: float = math.nan
    note: str | None = None  # why the point was skipped
    warnings: tuple[str, ...] = ()


def loss_db(value: complex) -> float:
    """Positive dB below unity of a transfer ratio: -20*log10|value|, and
    inf for an exact zero (an ideal network's reverse path)."""
    mag = abs(value)
    return -20.0 * math.log10(mag) if mag > 0 else math.inf


def _measure(step, ports, omega, amplitude, detect, start, stop, period):
    """The drive-and-measure kernel: drive each lane, project onto its
    detection frequencies over its window.

    Lane k is driven on port ports[k] with amplitude*cos(omega[k]*n), built
    here for each block of at most block_limit(lanes) samples (the budget
    the network and elements split by, so a drive block never cuts a
    settled span short), the cosine once per distinct frequency: the drive
    the recurrence below assumes. step is CirculatorNetwork.advance. Over
    lane k's window start[k] <= n < stop[k], whole periods of period[k]
    samples from n = 0, its outputs and drive are projected onto
    exp(-j*detect[k, m]*n) (detect in rad/sample, shape (lanes, M)).

    Stepping stops once every lane is steady or past its window. In steady
    state the network (periodic in P = period[k]) answers the cosine drive
    with Re(y z^(n/P)), z = exp(j*omega[k]*P), per period, so each output
    sample obeys x[n + P] = 2 cos(omega P) x[n] - x[n - P] and the sums c_t
    a lane projects over each period t (outputs and drive) obey
        c_(t+1) = (2 cos(omega P) c_t - c_(t-1) / u) / u,  u = exp(j*detect*P).
    A lane with more than _CHECK_PERIODS periods projects from n = 0 and is
    steady once this holds on its last three periods within _STEADY_TOL of
    the drive (amplitude*P); its later periods are then taken from the
    recurrence, not stepped. Every result is built from these sums, so a
    transient that keeps them on the recurrence changes none. Other lanes
    project their window only and step all of it.

    Returns the output sums (4, lanes, M), the drive sums (lanes, M) and
    each lane's output energy per measured period (periods, lanes), NaN for
    a period not stepped; blocks end at each lane's period edges and stop.
    Raises SimulationFault at the first non-finite output sample.
    """
    lanes = len(ports)
    lane_ix = np.arange(lanes)
    start, stop, period = (
        np.broadcast_to(np.asarray(v, dtype=np.int64), (lanes,)) for v in (start, stop, period)
    )
    periods, first = stop // period, start // period
    # A lane whose check could still save a period is projected from n = 0.
    lo = np.where(periods > _CHECK_PERIODS, 0, start)
    edges = {0, *stop.tolist()}
    for a, hi, p in set(zip(lo.tolist(), stop.tolist(), period.tolist())):
        edges.update(range(a, hi, p))
    edges = sorted(edges)
    tones, tone_row = np.unique(np.asarray(omega, dtype=float), return_inverse=True)
    rows, row = np.unique(detect, axis=0, return_inverse=True)  # one weight per distinct row
    row = row.reshape(-1)
    # Each lane's projected sums per period (outputs, then drive), its output
    # energy per period, and the recurrence's coefficients.
    sums = np.zeros((int(periods.max()), lanes, 5, detect.shape[1]), dtype=complex)
    e_sums = np.zeros(sums.shape[:2])
    u = np.exp(1j * detect * period[:, None])
    coef_a = (2.0 * np.cos(omega * period))[:, None] / u
    coef_b = -1.0 / (u * u)
    steady_at = np.full(lanes, -1)  # the last period a steady lane stepped
    limit = block_limit(lanes)
    blocks = ((n0, min(limit, hi - n0)) for a, hi in zip(edges, edges[1:]) for n0 in range(a, hi, limit))
    for n0, b in blocks:
        n = np.arange(n0, n0 + b, dtype=np.float64)
        d = (amplitude * np.cos(np.outer(tones, n)))[tone_row]
        ext = np.zeros((4, lanes, b))
        ext[ports, lane_ix] = d
        out = step(ext)
        bad = np.flatnonzero(~np.isfinite(out).all(axis=(0, 1)))
        if len(bad):
            raise SimulationFault(n0 + int(bad[0]))
        rec = np.flatnonzero((n0 >= lo) & (n0 < stop) & (steady_at < 0))
        if len(rec) == 0:
            continue  # no lane projects this block
        weight = np.exp(-1j * (rows[:, :, None] * n))[row[rec]]
        t = n0 // period[rec]
        out, d = out[:, rec], d[rec]
        sums[t, rec, :4] += np.einsum("plb,lmb->lpm", out, weight)
        sums[t, rec, 4] += np.einsum("lb,lmb->lm", d, weight)
        e_sums[t, rec] += np.einsum("plb,plb->l", out, out)
        end = n0 + b
        due = rec[(end % period[rec] == 0) & (end // period[rec] >= _CHECK_PERIODS) & (end < stop[rec])]
        if len(due):
            t = end // period[due] - 1
            c3 = sums[t[:, None] + np.arange(-2, 1), due[:, None]]
            res = c3[:, 2] - coef_a[due, None] * c3[:, 1] - coef_b[due, None] * c3[:, 0]
            ok = np.abs(res).max(axis=(1, 2)) <= _STEADY_TOL * amplitude * period[due]
            steady_at[due[ok]] = t[ok]
        if np.all((steady_at >= 0) | (end >= stop)):
            break
    for t0 in np.unique(steady_at[steady_at >= 0]):
        ix = np.flatnonzero(steady_at == t0)
        for t in range(t0 + 1, sums.shape[0]):
            sums[t, ix] = coef_a[ix, None] * sums[t - 1, ix] + coef_b[ix, None] * sums[t - 2, ix]
        e_sums[t0 + 1 :, ix] = np.nan  # not stepped, steady by construction
    t = np.arange(sums.shape[0])[:, None]
    total = np.where(((t >= first) & (t < periods))[:, :, None, None], sums, 0.0).sum(axis=0)
    t = first + np.arange(int((periods - first).max()))[:, None]
    energy = np.where(t < periods, e_sums[np.minimum(t, sums.shape[0] - 1), lane_ix], 0.0)
    return total[:, :4].transpose(1, 0, 2), total[:, 4], energy


def _drift_notes(energy: np.ndarray, where: list[str]) -> list[str]:
    """A note for each lane whose output energy changes by more than
    _DRIFT_LIMIT_DB between consecutive measured periods; where[k] names
    lane k."""
    with np.errstate(divide="ignore", invalid="ignore"):
        drift = 10.0 * np.log10(energy[1:] / energy[:-1])
    worst = np.nanmax(np.abs(drift), axis=0, initial=0.0)
    return [
        f"not settled: output power drifts {worst[k]:.3f} dB between periods at {where[k]}"
        for k in np.flatnonzero(worst > _DRIFT_LIMIT_DB)
    ]


def grouped_notes(notes) -> list[str]:
    """One line per distinct message of the (name, message) pairs, naming
    every source that raised it ("line_a, line_b: ..."), in first-seen
    order, so a twin's warning is listed once."""
    names: dict[str, list[str]] = {}
    for name, message in notes:
        names.setdefault(message, []).append(name)
    return [f"{', '.join(n)}: {message}" for message, n in names.items()]


def _element_notes(net) -> list[str]:
    """The network's element warnings, grouped by message."""
    return grouped_notes((name, w) for name, el in net.elements.items() for w in el.warnings)


def _four_port(config: CirculatorConfig, points):
    """Same-frequency S-matrices of the circulator at each point
    (frequency, schedule), one lane per point and drive port, all stepped
    together; lanes get their own schedules only when a point's schedule
    is not the network's. Each lane settles for config.settle_periods and
    measures over config.measure_periods of its own schedule. Returns s
    (points, 4, 4), the lanes' measured energy per period (periods,
    4 * points) and the network's element warnings; lane 4k + i drives port
    i + 1 at point k.
    """
    net = build_circulator(config)
    schedules = [sched for _, sched in points for _ in range(4)]
    if any(sched != net.schedule for sched in schedules):
        net.set_lane_schedules(schedules)
    net.reset(lanes=len(schedules))
    period = np.array([sched.period_samples for sched in schedules])
    omega = 2.0 * math.pi * np.repeat([f for f, _ in points], 4) / net.sample_rate
    a0 = dbm_to_amplitude(config.drive_dbm)
    settle, measure = config.settle_periods, config.measure_periods
    acc_out, acc_in, energy = _measure(
        net.advance, np.tile(np.arange(4), len(points)), omega, a0,
        omega[:, None], settle * period, (settle + measure) * period, period,
    )
    s = (acc_out[:, :, 0] / acc_in[:, 0]).reshape(4, len(points), 4).transpose(1, 0, 2)
    return s, energy, _element_notes(net)


def _check_frequencies(frequencies, sample_rate: float) -> list[float]:
    freqs = [float(f) for f in frequencies]
    if not freqs:
        raise ConfigError("frequency list is empty")
    problems = []
    if any(b <= a for a, b in zip(freqs, freqs[1:])):
        problems.append("frequencies must be strictly increasing")
    nyquist = sample_rate / 2.0
    bad = [f for f in freqs if not 0.0 < f < nyquist]
    if bad:
        problems.append(
            f"{len(bad)} frequencies outside the open Nyquist band (0, {nyquist:g}) Hz"
        )
    if problems:
        raise ConfigError("; ".join(problems))
    return freqs


def sparams_sweep(config: CirculatorConfig, frequencies) -> SParamGrid:
    """Single-tone S-parameter sweep of the full four-port network.

    Drives every port in turn at every frequency (one simulation lane per
    combination, all stepped together) at config.drive_dbm, discards
    config.settle_periods schedule periods, and accumulates same-frequency
    phasors over config.measure_periods.
    """
    freqs = _check_frequencies(frequencies, config.sample_rate)
    s, energy, notes = _four_port(config, [(f, config.schedule) for f in freqs])
    where = [f"{f / 1e6:.4f} MHz, drive port {p}" for f in freqs for p in range(1, 5)]
    return SParamGrid(frequencies=tuple(freqs), s=s, warnings=tuple(notes + _drift_notes(energy, where)))


def group_delay(grid: SParamGrid, path: tuple[int, int] = (2, 1)):
    """Group delay along one path, from central differences of unwrapped phase.

    Returns a list of (frequency, delay_s) pairs. A grid too coarse for the
    phase slope cannot be distinguished from a shorter delay; suspicious
    unwraps raise an AnalysisWarning.
    """
    freqs = np.asarray(grid.frequencies, dtype=float)
    if freqs.size < 2:
        raise ConfigError("group delay needs at least two frequency points")
    out_port, in_port = path
    response = grid.s[:, out_port - 1, in_port - 1]
    phase = np.unwrap(np.angle(response))
    delay = -np.gradient(phase, 2.0 * math.pi * freqs)
    dphi = np.abs(np.diff(phase))
    if np.any(dphi >= 0.95 * math.pi) or np.any(delay < -1e-9):
        _warnings.warn(
            "group delay may be aliased: adjacent phase steps approach pi "
            "(frequency grid too coarse for the delay)",
            AnalysisWarning,
            stacklevel=2,
        )
    return list(zip(freqs.tolist(), delay.tolist()))


def _longest_true_run(mask: np.ndarray) -> tuple[int, int] | None:
    best = None
    start = None
    for k, ok in enumerate(mask):
        if ok and start is None:
            start = k
        if start is not None and (not ok or k == len(mask) - 1):
            end = k if ok else k - 1
            if best is None or end - start > best[1] - best[0]:
                best = (start, end)
            start = None
    return best


def metrics(grid: SParamGrid, iso_threshold_db: float) -> CirculatorMetrics:
    """Band-level circulator figures at a stated isolation threshold."""
    if grid.n_ports != 4:
        raise ConfigError("metrics needs a four-port grid")
    freqs = np.asarray(grid.frequencies, dtype=float)
    mag = np.abs(grid.s)
    with np.errstate(divide="ignore"):
        level_db = -20.0 * np.log10(mag)

    qualifies = np.ones(len(freqs), dtype=bool)
    for j, i in REVERSE_PATHS.values():
        qualifies &= level_db[:, j, i] > iso_threshold_db
    for j, i in FORWARD_PATHS.values():
        qualifies &= mag[:, j, i] > 0.0

    flags: list[str] = []
    run = _longest_true_run(qualifies)
    if run is None:
        lo, hi = 0, len(freqs) - 1
        bandwidth = 0.0
        flags.append(
            f"no swept frequency meets the {iso_threshold_db:g} dB isolation "
            "threshold on all four reverse paths; statistics cover the full grid"
        )
    else:
        lo, hi = run
        bandwidth = float(freqs[hi] - freqs[lo])
    band = slice(lo, hi + 1)
    center = float((freqs[lo] + freqs[hi]) / 2.0)

    il = {k: float(np.min(level_db[band, j, i])) for k, (j, i) in FORWARD_PATHS.items()}
    worst_il = max(float(np.max(level_db[band, j, i])) for j, i in FORWARD_PATHS.values())
    iso = {k: float(np.min(level_db[band, j, i])) for k, (j, i) in REVERSE_PATHS.items()}
    rl = {p: float(np.min(level_db[band, p - 1, p - 1])) for p in range(1, 5)}
    directivity = {
        pair: iso[rev] - il[fwd] for pair, (fwd, rev) in PORT_PAIRS.items()
    }
    dead = [k for k, v in il.items() if math.isinf(v)]
    if dead:
        flags.append("no forward transmission on path " + ", ".join(dead))

    return CirculatorMetrics(
        il_db=il,
        worst_il_db=worst_il,
        iso_db=iso,
        directivity_db=directivity,
        rl_db=rl,
        center_frequency=center,
        bandwidth=bandwidth,
        fbw=bandwidth / center,
        iso_threshold_db=float(iso_threshold_db),
        flags=tuple(flags),
    )


def spectrum_probe(config: CirculatorConfig, f0: float) -> SpectrumReport:
    """Single-tone spectral-line report at f0 and its commutation sidebands.

    Drives port 1 at config.drive_dbm and reports, per port, the level at
    f0 and at f0 +/- k*f_mod for k = 1..SIDEBAND_ORDERS, plus the main-tone
    deltas against the input (port-2 insertion loss, port-3/4 isolation),
    over config.spectrum_window_periods after config.settle_periods.
    """
    net = build_circulator(config)
    fs = net.sample_rate
    period = net.schedule.period_samples
    _check_frequencies([f0], fs)
    f_mod = fs / period

    n_window = config.spectrum_window_periods * period
    n_settle = config.settle_periods * period
    n_total = n_settle + n_window
    a0 = dbm_to_amplitude(config.drive_dbm)

    # The commutation lattice f0 + k*f_mod: k = 0 is the same-frequency
    # transfer, k != 0 the sidebands.
    orders = [k for k in range(-SIDEBAND_ORDERS, SIDEBAND_ORDERS + 1) if 0.0 < f0 + k * f_mod < fs / 2.0]
    line_f = np.array([f0 + k * f_mod for k in orders])
    net.reset(lanes=1)
    acc_out, acc_in, energy = _measure(
        net.advance, [0], np.array([2.0 * math.pi * f0 / fs]), a0,
        2.0 * math.pi * line_f[None] / fs, n_settle, n_total, period,
    )
    c_ports = (2.0 / n_window) * acc_out[:, 0]
    c_in = (2.0 / n_window) * acc_in[0]

    k0 = orders.index(0)
    ports = []
    for p in range(4):
        lines = tuple(
            SpectralLine(order=k, frequency=float(line_f[m]), power_dbm=amplitude_to_dbm(abs(c_ports[p, m])))
            for m, k in enumerate(orders)
        )
        ports.append(PortSpectrum(port=p + 1, main_dbm=amplitude_to_dbm(abs(c_ports[p, k0])), lines=lines))
    input_main = amplitude_to_dbm(abs(c_in[k0]))
    return SpectrumReport(
        f0=float(f0),
        f_mod=f_mod,
        input_main_dbm=input_main,
        ports=tuple(ports),
        il_db=input_main - ports[1].main_dbm,
        iso3_db=input_main - ports[2].main_dbm,
        iso4_db=input_main - ports[3].main_dbm,
        warnings=tuple(_element_notes(net) + _drift_notes(energy, [f"{f0 / 1e6:.4f} MHz, drive port 1"])),
    )


def modfreq_sweep(config: CirculatorConfig, f_mod_values, f0: float) -> list[ModFreqPoint]:
    """Loss and worst-path isolation at f0 versus modulation frequency.

    Each requested f_mod is re-quantized onto the sample grid with the
    configured duty and transition time; points that fail quantization are
    reported with a note instead of aborting the sweep. All valid points
    run as parallel lanes of one simulation with per-lane schedules.
    """
    _check_frequencies([f0], config.sample_rate)
    base = config.schedule
    results: dict[int, ModFreqPoint] = {}
    valid: list[tuple[int, float, ControlSchedule]] = []
    for ix, fm in enumerate(f_mod_values):
        fm = float(fm)
        if not 0.0 < fm < math.inf:
            note = "modulation frequency must be positive and finite"
            results[ix] = ModFreqPoint(fm, math.nan, math.nan, note=note)
            continue
        try:
            sched = build_schedule(1.0 / fm, base.t_transition, base.duty, config.sample_rate)
        except QuantizationError as err:
            results[ix] = ModFreqPoint(fm, math.nan, math.nan, note=str(err))
            continue
        valid.append((ix, fm, sched))

    if valid:
        s, energy, notes = _four_port(config, [(f0, sched) for _, _, sched in valid])
        for m, (ix, fm, sched) in enumerate(valid):
            where = [f"f_mod {sched.f_mod / 1e3:.3f} kHz, drive port {p}" for p in range(1, 5)]
            results[ix] = ModFreqPoint(
                fm,
                max(loss_db(s[m, j, i]) for j, i in FORWARD_PATHS.values()),
                min(loss_db(s[m, j, i]) for j, i in REVERSE_PATHS.values()),
                f_mod_achieved=sched.f_mod,
                warnings=tuple(notes + _drift_notes(energy[:, 4 * m : 4 * m + 4], where)),
            )

    return [results[ix] for ix in sorted(results)]


def line_sweep(line, sample_rate: float, frequencies, name: str = "line") -> SParamGrid:
    """Two-port response of the configured delay line alone, no switches.

    `line` (a DelayLineSpec or a TouchstoneLineRef, `name` in errors) is
    linear and time-invariant, so its S-parameters are its exact response
    as built (element.response), not a simulated measurement.
    """
    freqs = _check_frequencies(frequencies, sample_rate)
    element = _line_element(line, sample_rate, name)
    return SParamGrid(frequencies=tuple(freqs), s=element.response(freqs), warnings=tuple(element.warnings))
