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
is k_link(matched), exposed as CirculatorNetwork.k_link, and every timing
oracle adds it.

Time advances in blocks. External ports never reflect, and a crossbar's
line ports reflect (gamma_off*min(w, 1-w)) only inside its switch
transitions. A block may start at a sample where a line port reflects,
and on a bare network end at one, but holds none inside (see _span), so
there the bare network is feed-forward; switch transitions run as
two-sample blocks, or one-sample blocks on a matched network. Every
block, whatever its length, runs one sequence: the crossbars' line-side
outputs (the reflected waves added at sample 0), the elements behind the
crossbars on those, and the crossbars' port-side outputs on theirs, with
the waves reflected at a last sample that reflects, which reach a line
only in the next block. Each crossbar call
writes its outputs in place, into the block's wave rows. An element design
is one object serving every position it fills (see build_circulator): it
steps in one call over all their lanes, once per pass over a block (a
longer matched block takes two, below), on the block budget of the
network's lane count. Identity decides, so distinct objects step separately.
Block length is budgeted in lane-samples (elements.block_limit): 2,048
samples on one lane, down to a floor of 64 from 32 lanes up, so a
single-lane run takes each settled span (about a quarter period) in one
block. From 32 lanes up the analysis kernel, not the engine, cuts on a
64-sample grid (analysis._measure), which holds whole frames of the delay
line's band filter (64 or 16 samples, elements.BAND_FRAME_LANES). The
crossbars mix with one coefficient column per sample of a block, or with a
single column broadcast over a block over which no coefficient changes, as
over every settled block (_LaneControl.block).

A matched network keeps one loop inside every block: a match's line-side
output reaches its line a sample later, and the line's reflection comes
back a sample after that. The block closes these loops in closed form
(Burrus's block form of a linear recursion): a trial pass with the
match-to-line links cut gives the waves f they would carry, the loops'
closed response g over a block (made once per reset from impulse
responses of zeroed element copies) gives the true waves u = g * f, and
the elements, rewound, step the block again with u fed in; a one-sample
block has no loop wave to close and skips the trial pass. On bare
networks outputs are bit-identical however a run is split into advance
calls; on matched ones they agree with per-sample stepping to rounding
(within 1e-12 of the stimulus peak).
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .elements import (
    LINE_A,
    LINE_B,
    PORT_BOT,
    PORT_TOP,
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
from .errors import ConfigError, SimulationFault
from .schedule import ControlSchedule, trace_for
from .signals import SampleBuffer

K_LINK_BARE = 2
K_LINK_MATCHED = 4


def k_link(matched: bool) -> int:
    """Samples a through traversal adds to the line delay: one per link,
    2 bare and 4 with matching sections."""
    return K_LINK_MATCHED if matched else K_LINK_BARE


# External port number (1-based) -> (side, crossbar port row).
_PORT_MAP = {1: ("left", 0), 2: ("right", 0), 3: ("left", 1), 4: ("right", 1)}


class _LaneControl:
    """Crossbar coefficient tables, one row per schedule: a single row that
    every lane shares, or one row per lane (modulation-frequency sweeps).

    coef[k, side, row, i] is (t_bar, t_cross, refl)[k] of the left (side 0)
    or right (side 1) crossbar at sample i of the row's period. Per-phase
    run lengths, computed once per table, make each block's checks
    lookups: how long the line ports stay quiet (quiet) and how long no
    coefficient changes (still).
    """

    def __init__(self, crossbar: CrossbarElement, schedules: list[ControlSchedule]):
        self.rows = len(schedules)
        self.periods = np.array([s.period_samples for s in schedules], dtype=np.int64)
        self.coef = np.zeros((3, 2, self.rows, int(self.periods.max())))
        for r, sched in enumerate(schedules):
            p = sched.period_samples
            for side, name in enumerate(("left", "right")):
                self.coef[:, side, r, :p] = crossbar.coefficients(trace_for(sched, name, p))
        self._rows = np.arange(self.rows)
        self._row_ix = self._rows[:, None]

    def _ahead(self, marked) -> np.ndarray:
        """ahead[row, i]: samples from phase i up to the next phase j, at or
        after i and wrapping round the row's period, with marked(row's
        (3, 2, p) coefficients)[j] true; a huge number if none is."""
        ahead = np.full(self.coef.shape[2:], np.iinfo(np.int64).max // 2)
        for r, p in enumerate(self.periods.tolist()):
            marks = np.flatnonzero(marked(self.coef[:, :, r, :p]))
            if len(marks):
                phase = np.arange(p)
                ahead[r, :p] = np.concatenate([marks, marks[:1] + p])[np.searchsorted(marks, phase)] - phase
        return ahead

    @functools.cached_property
    def quiet(self) -> np.ndarray:
        """quiet[row, i]: samples from phase i up to the next one where
        either crossbar's line ports reflect (0 if they reflect at i)."""
        return self._ahead(lambda c: (c[2] != 0.0).any(axis=0))

    @functools.cached_property
    def still(self) -> np.ndarray:
        """still[row, i]: samples from phase i on over which no coefficient
        of either crossbar changes (1 if one changes at i + 1)."""
        return 1 + self._ahead(lambda c: (c != np.roll(c, -1, axis=-1)).any(axis=(0, 1)))

    def block(self, n: int, b: int) -> np.ndarray:
        """Coefficients for samples n..n+b-1, shape (3, 2, rows, b), or
        (3, 2, rows, 1) when no row's coefficients change over the block
        (every settled block): the mixes broadcast one column over it."""
        phase = n % self.periods
        if b == 1 or b <= min(self.still[self._rows, phase].tolist()):
            return self.coef[:, :, self._row_ix, phase[:, None]]
        idx = (n + np.arange(b)) % self.periods[:, None]
        return self.coef[:, :, self._row_ix, idx]

    def quiet_from(self, n: int) -> int:
        """Samples from n on, over all rows, before a line port reflects."""
        return min(self.quiet[self._rows, n % self.periods].tolist())


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
        self.k_link = k_link(self.matches is not None)

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
        # One element object may fill several positions (one design, shared):
        # its rows run port-major over those positions, so its incident rows
        # are one (n_ports, positions * lanes, b) view, stepped in one call.
        filled: dict[int, tuple[ScatteringElement, list[str]]] = {}
        for name, el in self.elements.items():
            filled.setdefault(id(el), (el, []))[1].append(name)
        self._designs: list[tuple[ScatteringElement, slice, int]] = []
        self._rows: dict[str, list[int]] = {}
        order, first = {}, 0
        for el, names in filled.values():
            count = len(names)
            for i, name in enumerate(names):
                self._rows[name] = [first + p * count + i for p in range(el.n_ports)]
                order[name] = len(self._designs)
            self._designs.append((el, slice(first, first + el.n_ports * count), count))
            first += el.n_ports * count
        self._n_slots = first
        self.links = self._link_table()
        self._link_src = np.array([self._rows[s][sp] for s, sp, _, _ in self.links])
        self._link_dst = np.array([self._rows[d][dp] for _, _, d, dp in self.links])
        # External port p (0-based) binds to this crossbar slot.
        self._ext_slots = np.array(
            [self._rows[f"{side}_crossbar"][row] for side, row in _PORT_MAP.values()]
        )
        # The designs behind the crossbars (the two crossbars come first)
        # step in order, lines then matches, each fed the waves its sources
        # emitted earlier in the block. Links feeding the crossbars' line
        # ports, and links feeding a design from one stepped after it (a
        # match's line-side output into its line), are kept apart, as
        # (source slot, destination slot): the latter close the match-line
        # loops that _block solves.
        self._feed_xbar, feeds, loops = [], [[] for _ in self._designs], []
        for (s, _, d, _), src, dst in zip(self.links, self._link_src.tolist(), self._link_dst.tolist()):
            if d.endswith("_crossbar"):
                self._feed_xbar.append((src, dst))
            elif order[s] >= order[d]:
                loops.append((src, dst))
            else:
                feeds[order[d]].append((src, dst))
        self._others = self._designs[2:]
        self._feeds = feeds[2:]
        self._loop_src = np.array([s for s, _ in loops], dtype=np.int64)
        self._loop_dst = np.array([d for _, d in loops], dtype=np.int64)
        self._tail = 0 if loops else 1  # 1: a block may end where a line port reflects

        self._ctl = _LaneControl(self.left, [schedule])
        # Set by build_circulator when swapping ports 1 <-> 3 and 2 <-> 4
        # with line_a <-> line_b, match_1 <-> match_2 and match_3 <-> match_4
        # leaves the network as it is; a network built by hand claims nothing.
        self.mirror = False
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
        # Longest block _span returns. The block buffers and the loop
        # response for such blocks are made by the first block (_prepare).
        # A design filling several positions holds all their lanes on the
        # network's budget, so its blocks are never split.
        self._limit = block_limit(lanes)
        for el, _, count in self._designs:
            el.reset(count * lanes, self._limit)
        # Wave on each link emitted at the previous sample, arriving now.
        self._carry = np.zeros((len(self.links), lanes))
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
        """Length of the next block: up to block_limit(lanes) samples whose
        line ports do not reflect after the first, but may at the last on a
        bare network (a matched block would need a trial pass to close its
        loops over it). The analysis kernel, not the engine, cuts on the
        elements' frame grid (analysis._measure)."""
        return min(limit, self._limit, 1 + self._tail + self._ctl.quiet_from(self._n + 1))

    def _prepare(self) -> None:
        """The incident and emitted waves of every slot over one block of
        up to block_limit(lanes) samples, reused from block to block, and
        the closed-loop response of the match-line loops over such a block."""
        size = self._n_slots * self.lanes * self._limit
        self._buffers = (np.empty(size), np.empty(size))
        # A block's element outputs and their temporaries (up to 0.4 MB
        # each at 204 lanes) exceed glibc's initial 128 KB mmap threshold:
        # each block would map them afresh, or trim the heap and fault its
        # pages in again (paper sweep: 160,000 minor faults, 0.3 s of system
        # time). Freeing one array of four buffers' size raises glibc's
        # dynamic threshold above them; other allocators ignore it.
        scratch = np.empty(4 * size)
        del scratch
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
        probes = [el.zeroed(count * k, block_limit(k)) for el, _, count in self._others]
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

    def _forward(self, elements: list, inc: np.ndarray, wave: np.ndarray) -> None:
        """Step the designs behind the crossbars (elements, one per entry of
        _others) over one block, in order, each once over all its positions
        and on the waves its sources emitted earlier in the block; inputs on
        loop-closing links are left as they are."""
        for el, (_, rows, _), feeds in zip(elements, self._others, self._feeds):
            for s, d in feeds:
                inc[d, :, 1:] = wave[s, :, :-1]
            shape = (el.n_ports, -1, inc.shape[2])
            wave[rows].reshape(shape)[...] = el.step(inc[rows].reshape(shape))

    def _block(self, ext: np.ndarray) -> np.ndarray:
        b = ext.shape[2]
        if self._buffers is None:
            self._prepare()
        coef = self._ctl.block(self._n, b)
        shape = (self._n_slots, self.lanes, b)
        inc, wave = (buf[: math.prod(shape)].reshape(shape) for buf in self._buffers)
        inc[self._ext_slots] = ext
        inc[self._link_dst, :, 0] = self._carry
        # Inside the block no line port reflects (see _span), so the
        # crossbars' line-side outputs need only the port-side stimulus and,
        # at sample 0, the line waves they reflect. The elements behind the
        # crossbars then run on those outputs, and the crossbars' port-side
        # outputs on theirs; a last sample's reflections come last (_crossbars).
        self._crossbars(inc, wave, coef, "line")
        elements = [el for el, _, _ in self._others]
        if b > 1 and len(self._loop_src):
            # A trial pass with the match-line loops cut gives the waves f
            # on the cut links; the loops closed give u = g * f there. The
            # elements then step the block again with u fed in. In a single
            # sample the closed loops are the identity (g[0] = I).
            marks = [el.mark() for el in elements]
            inc[self._loop_dst, :, 1:] = 0.0
            self._forward(elements, inc, wave)
            u = self._close_loops(wave[self._loop_src])
            inc[self._loop_dst, :, 1:] = u[:, :, :-1]
            for el, mark in zip(elements, marks):
                el.rewind(mark)
        self._forward(elements, inc, wave)
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

    def _crossbars(self, inc: np.ndarray, wave: np.ndarray, coef: np.ndarray, side: str) -> None:
        """Both crossbars' outputs on one side ("port" or "line"), written by
        one step_with call into their rows of wave: their slots are the
        first 2 x 4 rows, viewed as (4, 2, lanes, b), and coef is
        _LaneControl.block's (3, 2, rows, b). The line side mixes the port
        side's incident waves and adds the reflected waves at sample 0; the
        line ports' incident rows past it, left from the previous block, are
        unread. The port side mixes the line ports' and, if a line port
        reflects at the block's last sample (see _span), adds the reflected
        waves to the line side's outputs there, summed as a block starting
        at that sample sums them; adding 0*x would turn -0.0 into 0.0 and
        inf into NaN."""
        shape = (2, 4) + inc.shape[1:]
        x = inc[:8].reshape(shape).swapaxes(0, 1)
        y = wave[:8].reshape(shape).swapaxes(0, 1)
        if side == "port":
            CrossbarElement.step_with(x[LINE_A], x[LINE_B], coef[0], coef[1], y[:LINE_A])
            if x.shape[-1] > 1 and coef[2, :, :, -1].any():
                y[LINE_A:, :, :, -1] += coef[2, :, :, -1] * x[LINE_A:, :, :, -1]
        else:
            CrossbarElement.step_with(x[PORT_TOP], x[PORT_BOT], coef[0], coef[1], y[LINE_A:])
            y[LINE_A:, :, :, 0] += coef[2, :, :, 0] * x[LINE_A:, :, :, 0]


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
MAX_PERIODS = 1024
# (low, high, type) of each bounded analysis setting. Windows are whole
# numbers of schedule periods up to MAX_PERIODS. Lattice lines are
# orthogonal over any whole number of periods; the spectrum window's 16
# bounds the leakage of a real wave's negative-frequency image onto them,
# which falls as 1/M: a unit sideband leaks 8.9e-4, 2.7e-4 and 5.5e-5 onto
# the other lines of paper.yaml's 155 MHz lattice at 1, 2 and 16 periods.
# The drive level's bound keeps its amplitude and its square normal floats.
ANALYSIS_BOUNDS = {
    "settle_periods": (0, MAX_PERIODS, numbers.Integral),
    "measure_periods": (1, MAX_PERIODS, numbers.Integral),
    "spectrum_window_periods": (16, MAX_PERIODS, numbers.Integral),
    "drive_dbm": (-300.0, 300.0, numbers.Real),
}


def analysis_problems(values) -> list[str]:
    """A message for each setting in values (a mapping with the keys of
    ANALYSIS_BOUNDS) out of its bounds; None, already reported, passes."""
    return [
        f"analysis.{key} must be from {low:g} to {high:g}"
        for key, (low, high, kind) in ANALYSIS_BOUNDS.items()
        if values[key] is not None and not (isinstance(values[key], kind) and low <= values[key] <= high)
    ]


@dataclass(frozen=True)
class CirculatorConfig:
    """Run configuration, the unit every command and analysis consumes.

    cli.load_config reads one from YAML and validates all of it; a config
    made in code has its analysis windows and drive level checked here. The analysis
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
        problems = analysis_problems({key: getattr(self, key) for key in ANALYSIS_BOUNDS})
        if problems:
            raise ConfigError("; ".join(problems))


def build_circulator(config: CirculatorConfig) -> CirculatorNetwork:
    """Assemble the canonical network from a circulator configuration.
    Equal line descriptions (a YAML alias, or a repeated block) and a
    matching spec repeated over positions are designed once: one element
    object serves every position of its design, and the network steps it
    once per pass over a block on all their lanes, on the block budget of
    the network's lane count. The network is marked mirror-symmetric
    (CirculatorNetwork.mirror) when the two lines are one design, and match
    positions 1 and 2, and 3 and 4, are one design each."""
    fs = config.sample_rate
    line_a = _line_element(config.line_a, fs, "line_a")
    twin_lines = config.line_b == config.line_a
    line_b = line_a if twin_lines else _line_element(config.line_b, fs, "line_b")
    matching = config.matching
    matches = None
    specs = [None] * 4
    if matching is not None:
        specs = list(matching) if isinstance(matching, (list, tuple)) else [matching] * 4
        if len(specs) != 4:
            raise ConfigError("matching must give one spec or exactly four")
        designs: dict[MatchSpec, MatchingElement] = {}
        for i, spec in enumerate(specs):
            if spec not in designs:
                designs[spec] = _design(f"matching[{i}]", MatchingElement, spec, fs)
        matches = [designs[spec] for spec in specs]
    net = CirculatorNetwork(config.switch, line_a, line_b, config.schedule, fs, matches=matches)
    net.mirror = twin_lines and specs[0] == specs[1] and specs[2] == specs[3]
    return net
