"""Block-stepped traveling-wave simulation of the switched-delay-line
circulator.

Topology (fixed in v1): four external ports bind directly to the two
crossbar port sides; the crossbar line sides connect through one-sample
links to the two delay lines, optionally with a matching two-port spliced
into each of the four line-side connections.

    Port1 - left.PortTop    right.PortTop - Port2
    Port3 - left.PortBot    right.PortBot - Port4
    left.LineA <-> [match_1] <-> line_a <-> [match_3] <-> right.LineA
    left.LineB <-> [match_2] <-> line_b <-> [match_4] <-> right.LineB

Every link carries exactly one sample of latency; external bindings carry
none. A through traversal therefore takes the line delay plus k_link
samples, where k_link = 2 bare and 4 with matching inserted. This constant
is exposed as CirculatorNetwork.k_link and every timing oracle adds it.

Time advances in blocks. External ports never reflect, and a crossbar's
line ports reflect (gamma_off*min(w, 1-w)) only inside its switch
transitions, so outside those windows the bare network is feed-forward:
crossbar -> line -> crossbar within any span where no line port reflects.
Such settled spans run as whole blocks, each element processing the block
at once. Block length is budgeted in lane-samples (elements.block_limit):
2,048 samples on one lane, down to a floor of 64 from 32 lanes up, so a
single-lane run takes each settled span (about a quarter period) in one
block. A sample where either crossbar reflects closes the 2-sample
crossbar-line loop and runs at B = 1, through the same block code.

A matched network keeps one loop inside every block: a match's line-side
output reaches its line a sample later, and the line's reflection comes
back a sample after that. The block closes these loops in closed form
(Burrus's block form of a linear recursion): a trial pass with the
match-to-line links cut gives the waves f they would carry, the loops'
closed response g over a block (made once per reset from impulse
responses of zeroed element copies) gives the true waves u = g * f, and
the elements, rewound, step the block again with u fed in. On bare
networks outputs are bit-identical however a run is split into advance
calls; on matched ones they agree with per-sample stepping to rounding
(within 1e-12 of the stimulus peak).
"""

from __future__ import annotations

import copy
import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .elements import (
    LINE_A,
    LINE_B,
    CrossbarElement,
    DelayLineElement,
    DelayLineSpec,
    MatchingElement,
    MatchSpec,
    ScatteringElement,
    SwitchSpec,
    TouchstoneElement,
    TouchstoneLineRef,
    block_limit,
)
from .errors import ConfigError, OracleDeclined, SimulationFault
from .schedule import ControlSchedule, trace_for
from .signals import SampleBuffer

K_LINK_BARE = 2
K_LINK_MATCHED = 4


# External port number (1-based) -> (side, crossbar port row).
_PORT_MAP = {1: ("left", 0), 2: ("right", 0), 3: ("left", 1), 4: ("right", 1)}


class _LaneControl:
    """Crossbar coefficient tables, one row per schedule: a single row that
    every lane shares, or one row per lane (modulation-frequency sweeps).

    coef[side, k, row, i] is (t_bar, t_cross, refl)[k] of the left (side 0)
    or right (side 1) crossbar at sample i of the row's period.
    """

    def __init__(self, crossbar: CrossbarElement, schedules: list[ControlSchedule]):
        self.rows = len(schedules)
        self.periods = np.array([s.period_samples for s in schedules], dtype=np.int64)
        self.coef = np.zeros((2, 3, self.rows, int(self.periods.max())))
        for r, sched in enumerate(schedules):
            p = sched.period_samples
            for side, name in enumerate(("left", "right")):
                self.coef[side, :, r, :p] = crossbar.coefficients(trace_for(sched, name, p))
        self._row_ix = np.arange(self.rows)[:, None]

    @functools.cached_property
    def quiet(self) -> np.ndarray:
        """quiet[row, i]: samples from phase i up to the next one where
        either crossbar's line ports reflect (0 if they reflect at i)."""
        quiet = np.full(self.coef.shape[2:], np.iinfo(np.int64).max // 2)
        for r, p in enumerate(self.periods.tolist()):
            hot = np.flatnonzero((self.coef[:, 2, r, :p] != 0.0).any(axis=0))
            if len(hot):
                phase = np.arange(p)
                ahead = np.concatenate([hot, hot[:1] + p])
                quiet[r, :p] = ahead[np.searchsorted(hot, phase)] - phase
        return quiet

    def block(self, n: int, b: int) -> np.ndarray:
        """Coefficients for samples n..n+b-1, shape (2, 3, rows, b)."""
        idx = (n + np.arange(b)) % self.periods[:, None]
        return self.coef[:, :, self._row_ix, idx]

    def quiet_from(self, n: int) -> int:
        """Samples from n on, over all rows, before a line port reflects."""
        return int(self.quiet[self._row_ix[:, 0], n % self.periods].min())


class CirculatorNetwork:
    """Canonical 4-port switched-delay-line network.

    Owns the element instances and the block-wise wave propagation. Time is
    strictly sequential in sample order; lanes (independent stimulus
    columns sharing one pass) and blocks of settled samples are the
    batching axes.
    """

    def __init__(
        self,
        switch_spec,
        line_a: ScatteringElement,
        line_b: ScatteringElement,
        schedule: ControlSchedule,
        sample_rate: float,
        matches: list[ScatteringElement] | None = None,
    ):
        if matches is not None and len(matches) != 4:
            raise ConfigError("matching requires exactly 4 elements (line-side ports)")
        for el in (line_a, line_b):
            el_fs = getattr(el, "sample_rate", sample_rate)
            if el_fs != sample_rate:
                raise ConfigError(
                    f"element sample rate {el_fs:g} != network rate {sample_rate:g}"
                )
        if schedule.sample_rate != sample_rate:
            raise ConfigError(
                f"schedule sample rate {schedule.sample_rate:g} != network rate {sample_rate:g}"
            )
        self.sample_rate = sample_rate
        self.schedule = schedule
        self.left = CrossbarElement(switch_spec)
        self.right = CrossbarElement(switch_spec)
        self.line_a = line_a
        self.line_b = line_b
        self.matches = list(matches) if matches else None
        self.k_link = K_LINK_MATCHED if matches else K_LINK_BARE

        self.elements: dict[str, ScatteringElement] = {
            "left_crossbar": self.left,
            "right_crossbar": self.right,
            "line_a": line_a,
            "line_b": line_b,
        }
        if self.matches:
            for i, m in enumerate(self.matches, start=1):
                self.elements[f"match_{i}"] = m

        # Every element port is one row ("slot") of the per-block wave arrays.
        self._slots: dict[str, slice] = {}
        first = 0
        for name, el in self.elements.items():
            self._slots[name] = slice(first, first + el.n_ports)
            first += el.n_ports
        self._n_slots = first
        self.links = self._link_table()
        self._link_src = np.array([self._slots[s].start + sp for s, sp, _, _ in self.links])
        self._link_dst = np.array([self._slots[d].start + dp for _, _, d, dp in self.links])
        # External port p (0-based) binds to this crossbar slot.
        self._ext_slots = np.array(
            [self._slots[f"{side}_crossbar"].start + row for side, row in _PORT_MAP.values()]
        )
        # The elements behind the crossbars step in this order (lines, then
        # matches), each fed the waves its sources emitted earlier in the
        # block. Links feeding the crossbars' line ports, and links feeding
        # an element from one stepped after it (a match's line-side output
        # into its line), are kept apart, as (source slot, destination slot):
        # the latter close the match-line loops that _block solves.
        self._others = [n for n in self.elements if not n.endswith("_crossbar")]
        order = {name: i for i, name in enumerate(self._others)}
        self._feed_xbar, self._feeds, loops = [], {n: [] for n in self._others}, []
        for (s, _, d, _), src, dst in zip(self.links, self._link_src.tolist(), self._link_dst.tolist()):
            if d not in order:
                self._feed_xbar.append((src, dst))
            elif order.get(s, -1) >= order[d]:
                loops.append((src, dst))
            else:
                self._feeds[d].append((src, dst))
        self._loop_src = np.array([s for s, _ in loops], dtype=np.int64)
        self._loop_dst = np.array([d for _, d in loops], dtype=np.int64)

        self._ctl = _LaneControl(self.left, [schedule])
        self.lanes = 1
        self.track_link_energy = False
        self.reset()

    def _link_table(self) -> list[tuple[str, int, str, int]]:
        """(source element, port, destination element, port) of every
        one-sample internal link, in link_energy order."""
        links = []
        for side, xbar in (("left", "left_crossbar"), ("right", "right_crossbar")):
            line_port = 0 if side == "left" else 1
            for row, line in ((LINE_A, "line_a"), (LINE_B, "line_b")):
                if self.matches is None:
                    links += [(xbar, row, line, line_port), (line, line_port, xbar, row)]
                else:
                    m = f"match_{1 + (row - LINE_A) + (0 if side == 'left' else 2)}"
                    links += [
                        (xbar, row, m, 0),
                        (m, 0, xbar, row),
                        (m, 1, line, line_port),
                        (line, line_port, m, 1),
                    ]
        return links

    def set_lane_schedules(self, schedules: list[ControlSchedule]) -> None:
        """Give each lane its own control schedule (all sharing sample_rate)."""
        for s in schedules:
            if s.sample_rate != self.sample_rate:
                raise ConfigError("lane schedule sample rate mismatch")
        self._ctl = _LaneControl(self.left, list(schedules))

    def reset(self, lanes: int = 1) -> None:
        if self._ctl.rows > 1 and lanes != self._ctl.rows:
            raise ConfigError("lane count must match the per-lane schedule table")
        self.lanes = lanes
        for el in self.elements.values():
            el.reset(lanes)
        # Wave on each link emitted at the previous sample, arriving now.
        self._carry = np.zeros((len(self.links), lanes))
        # Longest block _span returns. The block buffers and the loop
        # response for such blocks are made by the first block (_prepare).
        self._limit = block_limit(lanes)
        self._buffers = None
        self._n = 0
        self.link_energy: dict[str, float] = {}

    @property
    def sample_index(self) -> int:
        return self._n

    def advance(self, ext_in: np.ndarray) -> np.ndarray:
        """Advance B samples: consume external stimuli of shape (4, lanes, B)
        (Port1 first) and return the (4, lanes, B) waves emitted at the
        external ports over those samples."""
        ext = np.asarray(ext_in, dtype=np.float64)
        if ext.ndim != 3 or ext.shape[:2] != (4, self.lanes):
            raise ValueError(f"expected stimuli of shape (4, {self.lanes}, B), got {ext.shape}")
        total = ext.shape[2]
        if total == 1:
            return self._block(ext)
        out = np.empty_like(ext)
        i = 0
        while i < total:
            b = self._span(total - i)
            out[:, :, i : i + b] = self._block(ext[:, :, i : i + b])
            i += b
        return out

    def step(self, ext_in: np.ndarray) -> np.ndarray:
        """Advance one sample: external stimuli (4, lanes) in, the (4, lanes)
        waves emitted at the external ports this sample out."""
        return self.advance(np.asarray(ext_in, dtype=np.float64)[:, :, None])[:, :, 0]

    def _span(self, limit: int) -> int:
        """Length of the next block: one sample, or up to block_limit(lanes)
        samples whose line ports do not reflect after the first."""
        if limit == 1:
            return 1
        return min(limit, self._limit, 1 + self._ctl.quiet_from(self._n + 1))

    def _prepare(self) -> None:
        """The incident and emitted waves of every slot over one block of
        up to block_limit(lanes) samples, reused from block to block, and
        the closed-loop response of the match-line loops over such a block."""
        size = self._n_slots * self.lanes * self._limit
        self._buffers = (np.empty(size), np.empty(size))
        if len(self._loop_src):
            n = self._limit
            self._n_fft = 1 << (2 * n - 1).bit_length()
            self._loop_fft = np.fft.rfft(self._loop_response(n), self._n_fft, axis=0)

    def _loop_response(self, n: int) -> np.ndarray:
        """g, shape (n, loops, loops): over one block, the waves u on the
        loop-closing links are the causal convolution g * f of the waves f
        they carry with those links cut. With a[t, i, j] the wave leaving
        link i at t for a unit wave on link j at 0, u = f + a * u, so
        g = (I - a)^-1 as a power series in the delay: g[0] = I and
        g[t] = sum_{m=1..t} a[m] g[t - m] (a[0] = 0, the link latency)."""
        k = len(self._loop_src)
        probes = {name: self.elements[name].zeroed(k) for name in self._others}
        inc = np.zeros((self._n_slots, k, n))
        wave = np.zeros_like(inc)
        inc[self._loop_dst, np.arange(k), 1] = 1.0
        self._forward(probes, inc, wave)
        # a_t[i, m, j] = a[m, i, j]; g is kept newest first, so both factors
        # of each step are contiguous slices.
        a_t = wave[self._loop_src].transpose(0, 2, 1).copy()
        g_rev = np.zeros((n, k, k))
        g_rev[n - 1] = np.eye(k)
        for t in range(1, n):
            g_rev[n - 1 - t] = a_t[:, 1 : t + 1].reshape(k, t * k) @ g_rev[n - t :].reshape(t * k, k)
        return g_rev[::-1]

    def _close_loops(self, f: np.ndarray) -> np.ndarray:
        """Waves on the loop-closing links over a block, shape (loops,
        lanes, b), from the waves f they carry with the loops cut."""
        # A non-finite wave would spread over the whole transform: solve up
        # to the first one, so a fault is reported where it arises.
        finite = np.isfinite(f).all(axis=(0, 1))
        stop = f.shape[2] if finite.all() else int(np.argmin(finite))
        u = np.full(f.shape, np.nan)
        n_fft = self._n_fft
        spec = self._loop_fft @ np.fft.rfft(f[:, :, :stop], n_fft, axis=-1).transpose(2, 0, 1)
        u[:, :, :stop] = np.fft.irfft(spec.transpose(1, 2, 0), n_fft, axis=-1)[:, :, :stop]
        return u

    def _forward(self, elements: dict, inc: np.ndarray, wave: np.ndarray) -> None:
        """Step the elements behind the crossbars over one block, in order,
        each on the waves its sources emitted earlier in the block; inputs
        on loop-closing links are left as they are. A single sample has
        only the waves carried in from the previous one."""
        within = inc.shape[2] > 1
        for name in self._others:
            for s, d in self._feeds[name] if within else ():
                inc[d, :, 1:] = wave[s, :, :-1]
            slots = self._slots[name]
            wave[slots] = elements[name].step(inc[slots])

    def _block(self, ext: np.ndarray) -> np.ndarray:
        b = ext.shape[2]
        if self._buffers is None:
            self._prepare()
        coef = self._ctl.block(self._n, b)
        shape = (self._n_slots, self.lanes, b)
        inc, wave = (buf[: math.prod(shape)].reshape(shape) for buf in self._buffers)
        inc[self._ext_slots] = ext
        inc[self._link_dst, :, 0] = self._carry
        # Past the first sample no line port reflects (see _span), so the
        # crossbars' line-side outputs need only the port-side stimulus and
        # the line waves they would reflect stay zero. The elements behind
        # the crossbars then run on those outputs, and the crossbars'
        # port-side outputs on theirs. A single sample needs only the
        # waves carried in from the previous one: one crossbar pass, and
        # one pass of the other elements.
        if b > 1:
            for _, d in self._feed_xbar:
                inc[d, :, 1:] = 0.0
        self._crossbars(inc, wave, coef, "line" if b > 1 else None)
        if b > 1 and len(self._loop_src):
            # A trial pass with the match-line loops cut gives the waves f
            # on the cut links; the loops closed give u = g * f there. The
            # elements then step the block again with u fed in.
            marks = [self.elements[name].mark() for name in self._others]
            inc[self._loop_dst, :, 1:] = 0.0
            self._forward(self.elements, inc, wave)
            u = self._close_loops(wave[self._loop_src])
            inc[self._loop_dst, :, 1:] = u[:, :, :-1]
            for name, mark in zip(self._others, marks):
                self.elements[name].rewind(mark)
        self._forward(self.elements, inc, wave)
        if b > 1:
            for s, d in self._feed_xbar:
                inc[d, :, 1:] = wave[s, :, :-1]
            self._crossbars(inc, wave, coef, "port")

        self._carry = wave[self._link_src, :, -1]
        if self.track_link_energy:
            for (s, _, d, _), row in zip(self.links, self._link_src):
                name = f"{s}->{d}"
                e = float(np.sum(wave[row] * wave[row]))
                self.link_energy[name] = self.link_energy.get(name, 0.0) + e
        self._n += b
        return wave[self._ext_slots]

    def _crossbars(self, inc: np.ndarray, wave: np.ndarray, coef: np.ndarray, side) -> None:
        """Both crossbars' outputs on one side ("port", "line") or, for
        side None, on both, into wave."""
        rows = {"port": slice(0, LINE_A), "line": slice(LINE_A, LINE_B + 1), None: slice(0, 4)}[side]
        for name, (t_bar, t_cross, refl) in zip(("left_crossbar", "right_crossbar"), coef):
            first = self._slots[name].start
            wave[first + rows.start : first + rows.stop] = CrossbarElement.step_with(
                inc[first : first + 4], t_bar, t_cross, refl, side=side
            )


@dataclass
class RunRecord:
    """Time-domain record of one single-lane run."""

    sample_rate: float
    port_in: list[SampleBuffer]
    port_out: list[SampleBuffer]
    link_energy: dict[str, float]

    def __post_init__(self) -> None:
        lengths = {len(b) for b in self.port_in + self.port_out}
        rates = {b.sample_rate for b in self.port_in + self.port_out}
        if len(lengths) != 1 or rates != {self.sample_rate}:
            raise ValueError("record buffers must share sample_rate and length")

    @property
    def n_samples(self) -> int:
        return len(self.port_in[0])

    def input_energy(self) -> float:
        return sum(float(np.sum(b.samples**2)) for b in self.port_in)

    def output_energy(self) -> float:
        return sum(float(np.sum(b.samples**2)) for b in self.port_out)


def run(network: CirculatorNetwork, stimuli: list[SampleBuffer | None], n_samples: int) -> RunRecord:
    """Advance the network n_samples with per-port stimuli and record all
    external waves. stimuli is indexed by port (Port1 first); None means a
    silent port. Bit-identical for identical inputs."""
    if len(stimuli) != 4:
        raise ValueError("need one stimulus slot per external port")
    ext = np.zeros((4, n_samples))
    for p, stim in enumerate(stimuli):
        if stim is None:
            continue
        if stim.sample_rate != network.sample_rate:
            raise ConfigError("stimulus sample rate differs from network rate")
        if len(stim) > n_samples:
            raise ValueError(f"stimulus on port {p + 1} longer than the run")
        ext[p, : len(stim)] = stim.samples
    network.reset(lanes=1)
    network.track_link_energy = True
    try:
        outs = network.advance(ext[:, None, :])[:, 0, :]
        bad = np.flatnonzero(~np.isfinite(outs).all(axis=0))
        if len(bad):
            raise SimulationFault(int(bad[0]))
        return RunRecord(
            sample_rate=network.sample_rate,
            port_in=[SampleBuffer(network.sample_rate, ext[p]) for p in range(4)],
            port_out=[SampleBuffer(network.sample_rate, outs[p]) for p in range(4)],
            link_energy=dict(network.link_energy),
        )
    finally:
        network.track_link_energy = False


def _design(name: str, element, *args) -> ScatteringElement:
    """Construct one element; a design that cannot be built (a sub-sample
    delay, a band filter longer than the line) is a ConfigError naming its
    position."""
    try:
        return element(*args)
    except ValueError as err:
        raise ConfigError(f"{name}: {err}") from err


def _line_element(line_spec, sample_rate: float, name: str = "line") -> ScatteringElement:
    if isinstance(line_spec, DelayLineSpec):
        return _design(name, DelayLineElement, line_spec, sample_rate)
    if isinstance(line_spec, TouchstoneLineRef):
        return _design(name, TouchstoneElement, line_spec.data, sample_rate, line_spec.ir_len)
    raise ConfigError(f"{name}: unsupported line description {type(line_spec).__name__}")


DEFAULT_BAND = (150e6, 160e6, 51)
# Analysis windows are whole numbers of schedule periods, each from its
# floor to MAX_PERIODS. The spectrum window needs 16 periods so adjacent
# commutation sidebands stay orthogonal.
MAX_PERIODS = 1024
WINDOW_FLOORS = {"settle_periods": 0, "measure_periods": 1, "spectrum_window_periods": 16}


def window_problems(values) -> list[str]:
    """A message for each window in values (a mapping with the keys of
    WINDOW_FLOORS) out of its bounds; None, already reported, passes."""
    return [
        f"analysis.{key} must be from {low} to {MAX_PERIODS}"
        for key, low in WINDOW_FLOORS.items()
        if values[key] is not None
        and not (isinstance(values[key], numbers.Integral) and low <= values[key] <= MAX_PERIODS)
    ]


@dataclass(frozen=True)
class CirculatorConfig:
    """Run configuration, the unit every command and analysis consumes.

    cli.load_config reads one from YAML and validates all of it; a config
    made in code has its analysis windows checked here. The analysis
    settings (drive level, isolation threshold, windows in schedule
    periods, band, switching frequencies) have their defaults here and
    nowhere else.
    """

    sample_rate: float
    line_a: DelayLineSpec | TouchstoneLineRef
    line_b: DelayLineSpec | TouchstoneLineRef
    switch: SwitchSpec
    schedule: ControlSchedule
    # One MatchSpec for all four line-side positions, or four.
    matching: MatchSpec | tuple[MatchSpec, ...] | None = None
    drive_dbm: float = -10.0
    iso_threshold_db: float = 27.0
    settle_periods: int = 10
    measure_periods: int = 4
    spectrum_window_periods: int = 16
    band: tuple[float, float, int] = DEFAULT_BAND
    fmod_values: tuple[float, ...] = ()
    digest: str = ""
    warnings: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        problems = window_problems({key: getattr(self, key) for key in WINDOW_FLOORS})
        if problems:
            raise ConfigError("; ".join(problems))


def build_circulator(config: CirculatorConfig) -> CirculatorNetwork:
    """Assemble the canonical network from a circulator configuration."""
    fs = config.sample_rate
    line_a = _line_element(config.line_a, fs, "line_a")
    if config.line_b is config.line_a:
        # One description for both lines (a YAML alias): design it once.
        # The design is read-only; the network's reset gives each line its
        # own state.
        line_b = copy.copy(line_a)
        line_b.warnings = list(line_a.warnings)
    else:
        line_b = _line_element(config.line_b, fs, "line_b")
    matching = config.matching
    matches = None
    if matching is not None:
        specs = list(matching) if isinstance(matching, (list, tuple)) else [matching] * 4
        if len(specs) != 4:
            raise ConfigError("matching must give one spec or exactly four")
        matches = [_design(f"matching[{i}]", MatchingElement, s, fs) for i, s in enumerate(specs)]
    return CirculatorNetwork(config.switch, line_a, line_b, config.schedule, fs, matches=matches)


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
