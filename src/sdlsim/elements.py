"""Behavioral scattering elements with a block step contract.

Every element consumes a block of incident wave samples per port and emits
the same number of wave samples per port, with shape (n_ports, lanes, B):
independent measurement runs (lanes) share a single pass, and B consecutive
samples are processed at once. (n_ports, lanes) and (n_ports,) are accepted
as one sample. Splitting a stream into blocks of any lengths gives
bit-identical outputs. All elements are causal and linear in the signal for
a fixed control trajectory.

For the network's in-block loops (engine.CirculatorNetwork) an element can
take back a trial block (mark/rewind) and hand out a zeroed copy of itself
(zeroed), whose steps give its impulse responses. Both line elements keep
their history in one time-major ring (_ring_write, _ring_rows).

The delay line's band filter (DelayLineElement) is a Butterworth
band-pass designed in numpy and run in Burrus's block (lifted) form, in
fixed frames at fixed sample positions whose length follows the element's
lanes (16 samples from BAND_FRAME_LANES lanes up, MAX_BLOCK below): one
matrix product per frame a block touches maps [frame inputs; state at the
frame start] to [frame outputs; state after the frame]. The slots of
samples not yet stepped hold zeros and the matrix reads no later input, so
outputs are the same however the stream is split into blocks.

The measured-data FIR (TouchstoneElement) splits its taps at a fixed frame
length L, set by its lanes and block limit: near taps (lags below L) are
summed per output sample, far taps (lags of L and beyond) once per frame
of L samples by partitioned FFT convolution. Frames sit at fixed sample
positions, which keeps its outputs independent of the block split; rewind
takes back the spectra a trial block completed.

The L-section matching element (MatchingElement) filters blocks with
scipy.signal.lfilter, imported when one is built: the only use of scipy,
so networks without matching never load it.
"""

from __future__ import annotations

import cmath
import copy
import math
from dataclasses import dataclass

import numpy as np

from .signals import Z0
from .touchstone import TouchstoneData


# Block length budget: one pass processes at most BLOCK_LANE_SAMPLES
# lane-samples, but never fewer than MAX_BLOCK samples. Element history
# buffers hold block_limit(lanes) samples beyond the longest delay, and
# longer blocks are split; a design the network shares over positions holds
# all their lanes on the budget of the network's lanes, while its frames
# (BAND_FRAME_LANES, TouchstoneElement.reset) follow its own lanes. The floor of
# 64 samples keeps a 204-lane block's working set near 1 MB; one lane gets
# 2,048-sample blocks, so each settled span of a single-lane run is one
# call. Below BAND_FRAME_LANES lanes, MAX_BLOCK is also the frame length of
# the delay line's band filter.
MAX_BLOCK = 64
BLOCK_LANE_SAMPLES = 2048


def block_limit(lanes: int) -> int:
    """Longest block (samples) processed in one pass at this lane count."""
    return max(MAX_BLOCK, BLOCK_LANE_SAMPLES // lanes)


# The delay line's band filter (DelayLineElement._filter) runs in frames of
# 16 samples from BAND_FRAME_LANES lanes up and of MAX_BLOCK below. A
# frame's lifted matrix is (frame + 2 * sections) square and half zero, so
# a 16-sample frame needs about a third of the multiply-adds per sample of
# a 64-sample one, in four products instead of one. Measured per
# lane-sample with one BLAS thread on full 64-sample blocks (2-vCPU x86),
# the 16-sample frame is 13-26% slower from 32 to 40 lanes, within 8% of
# the longer one from 48 to 60, and no slower from 64 up: 17% faster at
# 64, 11% at 80, 26% at 204 (the paper sweep's shared line) and 39% at
# 408. On one-sample blocks it is faster at every lane count: 24% at 2
# lanes, 73% at 204.
BAND_FRAME_LANES = 64

# Longest line delay, impulse response or commutation period (samples) and
# highest band-filter order a design accepts: 2^20 samples is 262 us at
# 4 GS/s, so no line, FIR or schedule table exceeds a few tens of MB a lane.
MAX_SPAN = 1 << 20
MAX_BAND_ORDER = 64


def _as_block(incident) -> tuple[np.ndarray, tuple[int, ...]]:
    """Incident waves as an (n_ports, lanes, B) block, plus the caller's shape."""
    x = np.asarray(incident, dtype=np.float64)
    if x.ndim == 3:
        return x, x.shape
    return x.reshape(x.shape[0], -1, 1), x.shape


def _in_blocks(process, x: np.ndarray, limit: int) -> np.ndarray:
    """Apply a block processor to an (n_ports, lanes, B) block in pieces of
    at most limit samples."""
    if x.shape[-1] <= limit:
        return process(x)
    return np.concatenate(
        [process(x[..., s : s + limit]) for s in range(0, x.shape[-1], limit)],
        axis=-1,
    )


def _ring_write(ring: np.ndarray, t: int, rows: np.ndarray) -> None:
    """Write rows as samples t, t+1, ... of a time-major ring (row t % len
    holds sample t), in at most two slices."""
    i = t % len(ring)
    k = min(len(rows), len(ring) - i)
    ring[i : i + k] = rows[:k]
    ring[: len(rows) - k] = rows[k:]


def _ring_rows(ring: np.ndarray, start: int, b: int) -> np.ndarray:
    """Rows of samples start..start+b-1 of a time-major ring: one slice, or
    a copy where the span wraps."""
    i = start % len(ring)
    if i + b <= len(ring):
        return ring[i : i + b]
    return np.concatenate([ring[i:], ring[: i + b - len(ring)]])


def conduction_weight(g: np.ndarray | float) -> np.ndarray | float:
    """Raised-cosine conduction law w(g) = sin^2(pi*g/2).

    Satisfies w(g) + w(1-g) = 1, so the two throws of a crossbar always
    share unit conductance during a transition.
    """
    return np.sin(0.5 * math.pi * np.asarray(g)) ** 2


class ScatteringElement:
    """Base step contract: stateful, single-owner during a run. step takes
    and returns (n_ports, lanes, B) blocks (see the module docstring)."""

    n_ports: int = 2
    # Attributes that step rebinds or updates in place; mark copies them.
    # History rings need no copy: they keep limit rows beyond the longest
    # delay, so one block overwrites no row a rewound step reads.
    _state: tuple[str, ...] = ()

    def __init__(self) -> None:
        self.warnings: list[str] = []
        self.lanes = 1

    def reset(self, lanes: int = 1, limit: int | None = None) -> None:
        """Zero the state on lanes lanes, stepped in passes of at most limit
        samples: block_limit(lanes) unless given (a network stepping one
        design over several positions keeps its own lanes' budget)."""
        self.lanes = lanes
        self.limit = block_limit(lanes) if limit is None else limit

    def step(self, incident: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def mark(self) -> dict:
        """The element's state now, for rewind."""
        return {name: copy.copy(getattr(self, name)) for name in self._state}

    def rewind(self, mark: dict) -> None:
        """Return to a mark taken at most one block of at most limit
        samples ago."""
        self.__dict__.update(mark)

    def zeroed(self, lanes: int, limit: int | None = None) -> ScatteringElement:
        """A copy sharing this element's design, reset to zero state on
        lanes lanes and limit (reset rebinds every state array, so this
        element's state is untouched)."""
        probe = copy.copy(self)
        probe.reset(lanes, limit)
        return probe


@dataclass(frozen=True)
class DelayLineSpec:
    """Behavioral delay-line parameters.

    echoes lists (transit_multiple k, level_db) spurious paths at k times
    the main transit: odd multiples (triple transit and kin) exit the far
    port, even multiples return to the entry port. port_return_db is the
    in-band reflection magnitude below incident at each port (math.inf or
    None disables it). bandwidth None gives a flat (unfiltered) band.
    """

    tau: float = 280e-9
    il_db: float = 4.0
    f_center: float = 155e6
    bandwidth: float | None = 30e6
    band_order: int = 2
    echoes: tuple[tuple[int, float], ...] = ()
    port_return_db: float | None = 15.0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "echoes", tuple((int(k), float(level)) for k, level in self.echoes)
        )
        if self.port_return_db is None:
            object.__setattr__(self, "port_return_db", math.inf)
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.il_db < 0 or self.port_return_db < 0:
            raise ValueError("il_db and port_return_db must be >= 0")
        if self.bandwidth is not None and not 0 < self.bandwidth < self.f_center:
            raise ValueError("bandwidth must lie in (0, f_center)")
        if not 0 <= self.band_order <= MAX_BAND_ORDER:
            raise ValueError(f"band_order must be from 0 to {MAX_BAND_ORDER}")
        for k, level in self.echoes:
            if k < 2:
                raise ValueError(f"echo transit multiple must be an integer >= 2, got {k}")
            if level > 0:
                raise ValueError("echo levels must be <= 0 dB")


@dataclass(frozen=True)
class TouchstoneLineRef:
    """Delay line described by a measured two-port file instead of a spec:
    its parsed data and the impulse-response length to build it with."""

    data: TouchstoneData
    ir_len: int


@dataclass(frozen=True)
class SwitchSpec:
    """Crossbar switch parameters; the defaults are calibrated assumptions
    for commercial absorptive RF switches, not measured values."""

    il_on_db: float = 0.8
    iso_off_db: float = 30.0
    t_transition: float = 2e-9
    gamma_off: float = 0.9

    def __post_init__(self) -> None:
        if self.il_on_db < 0:
            raise ValueError("il_on_db must be >= 0")
        if self.iso_off_db <= self.il_on_db:
            raise ValueError("iso_off_db must exceed il_on_db")
        if self.t_transition < 0:
            raise ValueError("t_transition must be >= 0")
        if not -1.0 <= self.gamma_off <= 1.0:
            raise ValueError("gamma_off must lie in [-1, 1]")


def _butter_bandpass(order: int, f1: float, f2: float, fs: float) -> np.ndarray:
    """Digital Butterworth band-pass from f1 to f2 Hz as second-order
    sections (b0, b1, b2, 1, a1, a2) with monic numerators (the caller
    sets the gain in the first): the analog prototype's poles scaled to
    the pre-warped band, split into band-pass pairs and mapped by the
    bilinear transform. Each section pairs its poles with the zeros at
    z = +1 and z = -1 nearest them, and sections are ordered with the poles
    closest to the unit circle last, as scipy.signal.butter orders them."""
    if not 0.0 < f1 < f2 < fs / 2.0:
        raise ValueError(f"band edges {f1:g} and {f2:g} Hz must lie between 0 and fs/2")
    t1, t2 = math.tan(math.pi * f1 / fs), math.tan(math.pi * f2 / fs)
    lowpass = -np.exp(1j * math.pi * np.arange(1 - order, order, 2) / (2 * order)) * (t2 - t1) / 2.0
    root = np.sqrt(lowpass * lowpass - t1 * t2)
    s = np.concatenate([lowpass + root, lowpass - root])
    z = (1.0 + s) / (1.0 - s)
    # One pole of each conjugate pair, then the real poles.
    real = np.abs(z.imag) <= 100 * np.finfo(float).eps * np.abs(z)
    poles = list(z[~real & (z.imag > 0)]) + list(z[real].real)
    zeros = {1.0: order, -1.0: order}
    sections = []
    while poles:
        p1 = poles.pop(int(np.argmin([abs(1.0 - abs(p)) for p in poles])))
        if isinstance(p1, complex):
            p2 = p1.conjugate()
        else:
            reals = [i for i, p in enumerate(poles) if not isinstance(p, complex)]
            p2 = poles.pop(min(reals, key=lambda i: abs(1.0 - abs(poles[i]))))
        pair = []
        for _ in range(2):
            near = min((zr for zr, n in zeros.items() if n), key=lambda zr: abs(zr - p1))
            zeros[near] -= 1
            pair.append(near)
        sections.append([1.0, -(pair[0] + pair[1]), pair[0] * pair[1],
                         1.0, -(p1 + p2).real, (p1 * p2).real])
    return np.array(sections[::-1])


def _sos_response(sos: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Complex response of the section cascade at omega (rad/sample)."""
    zi = np.exp(-1j * np.asarray(omega, dtype=np.float64))[..., None]
    num = sos[:, 0] + zi * (sos[:, 1] + zi * sos[:, 2])
    den = sos[:, 3] + zi * (sos[:, 4] + zi * sos[:, 5])
    return np.prod(num / den, axis=-1)


def _section_group_delays(sos: np.ndarray, omega: float) -> np.ndarray:
    """Group delay (samples) of each section at omega, by the polynomial
    form of d(arg H)/d(omega): with c = b * reversed(a), the delay is
    Re(sum k c_k z^k / sum c_k z^k) - 2 at z = exp(-j omega). A section
    whose denominator all but vanishes there (below 10 * 2e-16) has no
    reliable group delay, and the tap compensation rests on it."""
    z = cmath.exp(-1j * omega)
    c = np.array([np.convolve(section[:3], section[:2:-1]) for section in sos])
    num = np.array([np.polyval((row * np.arange(5))[::-1], z) for row in c])
    den = np.array([np.polyval(row[::-1], z) for row in c])
    gd = np.real(num / den) - 2.0
    if not np.all(np.isfinite(gd)) or np.any(np.abs(den) < 10 * 2e-16):
        raise ValueError("band filter group delay at f_center is ill-conditioned; "
                         "widen bandwidth or reduce band_order")
    return gd


def _lifted(sos: np.ndarray, frame: int) -> np.ndarray:
    """Burrus's block (lifted) form of the section cascade over a frame of
    frame samples: the (frame + ns) square matrix that maps [frame inputs;
    state at frame start] to [frame outputs; state after the frame], for
    the ns = 2 * sections states of sosfilt's transposed direct form II.
    With the cascade's state space (A, B, C, D), output j reads C A^j of
    the state and h[j - i] of input i (h[0] = D, h[k] = C A^(k-1) B), and
    the state after reads A^frame and A^(frame-1-i) B. Zero above the
    diagonal: no output reads a later input."""
    ns = 2 * len(sos)
    # Rows over [state; input]: the running section input v, then each
    # section's output y = b0 v + z0 and its next state.
    v = np.zeros(ns + 1)
    v[ns] = 1.0
    step = np.zeros((ns, ns + 1))
    for k, (b0, b1, b2, _, a1, a2) in enumerate(sos):
        y = b0 * v
        y[2 * k] += 1.0
        step[2 * k] = b1 * v - a1 * y
        step[2 * k, 2 * k + 1] += 1.0
        step[2 * k + 1] = b2 * v - a2 * y
        v = y
    # powers[k] = A^k for k = 0 .. frame, doubling the known range each
    # pass, in extended precision where the platform has it (x86): each
    # entry of the matrix then carries little more than its own rounding,
    # and the products come out closer to exact arithmetic than sosfilt's
    # recursion (1.4e-15 against 5.4e-15 of the peak on paper.yaml's line).
    a, b, c, d = (q.astype(np.longdouble) for q in (step[:, :ns], step[:, ns], v[:ns], v[ns]))
    powers = np.empty((frame + 1, ns, ns), dtype=np.longdouble)
    powers[0] = np.eye(ns)
    n = 1
    while n <= frame:
        m = min(n, frame + 1 - n)
        powers[n : n + m] = powers[:m] @ (powers[n - 1] @ a)
        n += m
    ca, ab = c @ powers, powers @ b
    h = np.concatenate([[d], ca[: frame - 1] @ b])
    lag = np.arange(frame)[:, None] - np.arange(frame)
    lifted = np.zeros((frame + ns, frame + ns))
    lifted[:frame, :frame] = np.where(lag >= 0, h[lag], 0.0)
    lifted[:frame, frame:] = ca[:frame]
    lifted[frame:, :frame] = ab[frame - 1 :: -1].T
    lifted[frame:, frame:] = powers[frame]
    return lifted


class DelayLineElement(ScatteringElement):
    """Symmetric band-limited two-port delay line.

    Each port's incident wave passes one shared band-shape filter; the
    filtered stream feeds the main transit tap, the configured echo taps,
    and the port reflection (gain -10^(-port_return_db/20), zero delay
    after the filter). The main tap is placed at round(tau*fs) minus the
    filter's own mid-band group delay so the element's total mid-band
    group delay is round(tau*fs)/fs; echo taps are compensated the same
    way, landing at exactly k times the main transit.
    """

    n_ports = 2
    _state = ("_t", "_frame")

    def __init__(self, spec: DelayLineSpec, sample_rate: float):
        super().__init__()
        if not 1.0 <= spec.tau * sample_rate <= MAX_SPAN:
            raise ValueError(f"tau must span from 1 to {MAX_SPAN} samples")
        self.spec = spec
        self.sample_rate = sample_rate
        self.delay_samples = round(spec.tau * sample_rate)
        self.rounding_error_s = abs(self.delay_samples / sample_rate - spec.tau)

        banded = spec.bandwidth is not None and spec.band_order > 0
        if banded:
            half = spec.bandwidth / 2.0
            sos = _butter_bandpass(spec.band_order, spec.f_center - half, spec.f_center + half, sample_rate)
            w_center = 2.0 * math.pi * spec.f_center / sample_rate
            sos[0, :3] /= abs(_sos_response(sos, w_center))  # exact unit gain at center
            self.sos = sos
            self.filter_delay_samples = round(float(np.sum(_section_group_delays(sos, w_center))))
        else:
            self.sos = None
            self.filter_delay_samples = 0
        # Lifted matrices by frame length, made at the first step that needs
        # them and shared with copies (zeroed).
        self._lifted: dict[int, np.ndarray] = {}

        self.compensated_delay_samples = self.delay_samples - self.filter_delay_samples
        if self.compensated_delay_samples < 1:
            raise ValueError(
                "band filter group delay exceeds the line delay; "
                "reduce band_order or widen bandwidth"
            )

        g_main = 10.0 ** (-spec.il_db / 20.0)
        r = 0.0 if math.isinf(spec.port_return_db) else 10.0 ** (-spec.port_return_db / 20.0)
        # Tap table: (delay after filter, source channel seen from port 1's
        # output, gain). Port 2's output swaps the source channels.
        taps: list[tuple[int, int, float]] = []
        if r > 0.0:
            taps.append((0, 0, -r))
        taps.append((self.compensated_delay_samples, 1, g_main))
        for k, level in spec.echoes:
            d = k * self.delay_samples - self.filter_delay_samples
            ch = 1 if k % 2 else 0
            taps.append((d, ch, g_main * 10.0 ** (level / 20.0)))
        self.taps = taps
        self.buf_len = max(d for d, _, _ in taps) + 1
        if self.buf_len > MAX_SPAN:
            raise ValueError(f"echo taps reach {self.buf_len} samples back, beyond {MAX_SPAN}")
        self.reset()

    def reset(self, lanes: int = 1, limit: int | None = None) -> None:
        super().reset(lanes, limit)
        # Time-major ring of filtered samples: row t % len holds sample t.
        self._ring = np.zeros((self.buf_len - 1 + self.limit, 2, lanes))
        self._t = 0
        self.band_frame = 16 if lanes >= BAND_FRAME_LANES else MAX_BLOCK
        # The band filter's frame: the inputs of the frame under way, zero
        # from the next sample on, over the state at its start.
        self._frame = None if self.sos is None else np.zeros((self.band_frame + 2 * len(self.sos), 2 * lanes))

    def _filter(self, u: np.ndarray) -> np.ndarray:
        """Band-filter time-major samples u, shape (b, 2 * lanes), from
        sample _t on: one lifted product per frame the block touches.
        Frames start at multiples of band_frame; the slots of samples not
        yet stepped are zero, and the lifted matrix is zero above its
        diagonal, so each output is the same product however the stream is
        split."""
        frame, v, t, n = self.band_frame, self._frame, self._t, len(u)
        lifted = self._lifted.get(frame)
        if lifted is None:
            lifted = self._lifted[frame] = _lifted(self.sos, frame)
        # Cut at frame edges, and at each column's first non-finite sample:
        # in a product with the samples before it, 0 * nan would reach their
        # outputs. From that sample on the column is non-finite anyway.
        cuts = set(range(-t % frame, n, frame)) | {0, n}
        bad = ~np.isfinite(u)
        if bad.any():
            cuts.update(np.argmax(bad[:, bad.any(axis=0)], axis=0).tolist())
        cuts = sorted(cuts)
        out = np.empty_like(u)
        for lo, hi in zip(cuts, cuts[1:]):
            pos = (t + lo) % frame
            v[pos : pos + hi - lo] = u[lo:hi]
            y = lifted @ v
            out[lo:hi] = y[pos : pos + hi - lo]
            if (t + hi) % frame == 0:
                v[:frame] = 0.0
                v[frame:] = y[frame:]
        return out

    def _process(self, x: np.ndarray) -> np.ndarray:
        lanes, b = x.shape[1:]
        rows = x.transpose(2, 0, 1)
        if self.sos is not None:
            rows = self._filter(rows.reshape(b, 2 * lanes)).reshape(b, 2, lanes)
        _ring_write(self._ring, self._t, rows)
        # Time-major sums into one output, each later tap through one
        # scratch array; a tap reading port 2's stream for port 1's output
        # reads both channels swapped.
        out = term = None
        for delay, ch, gain in self.taps:
            src = _ring_rows(self._ring, self._t - delay, b)
            src = src[:, ::-1] if ch else src
            if out is None:
                out = gain * src
            else:
                term = np.multiply(gain, src, out=term)
                out += term
        self._t += b
        return out.transpose(1, 2, 0)

    def step(self, incident: np.ndarray) -> np.ndarray:
        x, shape = _as_block(incident)
        return _in_blocks(self._process, x, self.limit).reshape(shape)

    def response(self, frequencies) -> np.ndarray:
        """Exact scattering response (n, 2, 2) at frequencies (Hz): the band
        filter times the tap sum; ch = 0 taps fill the diagonal, ch = 1 taps
        the off-diagonal."""
        f = np.asarray(frequencies, dtype=np.float64)
        omega = 2.0 * math.pi * f / self.sample_rate
        band = 1.0 if self.sos is None else _sos_response(self.sos, omega)
        s = np.zeros((len(f), 2, 2), dtype=complex)
        for delay, ch, gain in self.taps:
            h = gain * band * np.exp(-1j * omega * delay)
            s[:, 0, ch] += h
            s[:, 1, 1 - ch] += h
        return s


PORT_TOP, PORT_BOT, LINE_A, LINE_B = 0, 1, 2, 3


class CrossbarElement(ScatteringElement):
    """Switched 2x2 crossbar: bar state (g=1) connects PortTop-LineA and
    PortBot-LineB, cross state (g=0) the swapped pairs.

    Conducting paths carry s_on = 10^(-il_on_db/20), blocked paths leak
    s_leak = 10^(-iso_off_db/20); during a transition the two throws blend
    with the sin^2 conduction law, and a wave incident at a line port sees
    a reflection gamma_off*min(w, 1-w), which vanishes in both settled
    states. The blend is not a unitary 4x4 scattering matrix: each single
    drive is energy-consistent, but coherent simultaneous drive on both
    line ports can transiently emit more energy than arrives mid
    transition. Network-level passivity relies on line losses.

    step builds the four-port from two step_with mixes plus the line
    ports' reflection; the engine makes the same two calls per block and
    adds the reflection itself (see engine).
    """

    n_ports = 4

    def __init__(self, spec: SwitchSpec):
        super().__init__()
        self.spec = spec
        self.s_on = 10.0 ** (-spec.il_on_db / 20.0)
        self.s_leak = 0.0 if math.isinf(spec.iso_off_db) else 10.0 ** (-spec.iso_off_db / 20.0)
        gain_sq = self.s_on**2 + self.s_leak**2
        if gain_sq > 1.0 + 1e-12:
            self.warnings.append(
                f"through plus leakage energy per drive is {gain_sq:.6f} > 1 "
                "(il_on_db too small for the given iso_off_db); "
                "the switch itself is slightly active"
            )

    def coefficients(self, g: np.ndarray | float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(bar gain, cross gain, line-port reflection) for bar fraction g."""
        g = np.asarray(g, dtype=np.float64)
        if np.any((g < 0.0) | (g > 1.0)):
            raise ValueError("control bar_fraction outside [0, 1]")
        w = conduction_weight(g)
        t_bar = self.s_on * w + self.s_leak * (1.0 - w)
        t_cross = self.s_on * (1.0 - w) + self.s_leak * w
        refl = self.spec.gamma_off * np.minimum(w, 1.0 - w)
        return t_bar, t_cross, refl

    @staticmethod
    def step_with(a: np.ndarray, b: np.ndarray, t_bar, t_cross, out: np.ndarray) -> np.ndarray:
        """One side's two outputs from the other side's two incident waves
        (a, b: PortTop and PortBot, or LineA and LineB), written into out
        (shape (2, ...), a view will do) and returned: out[0] = t_bar*a +
        t_cross*b, out[1] = t_cross*a + t_bar*b. The coefficients broadcast
        over the trailing axes."""
        first, second = out[0, ...], out[1, ...]  # views, also of one sample
        np.multiply(t_bar, a, out=first)
        first += t_cross * b
        np.multiply(t_cross, a, out=second)
        second += t_bar * b
        return out

    def step(self, incident: np.ndarray, g: np.ndarray | float = 1.0) -> np.ndarray:
        """Outputs (4, ...) for incident waves (4, ...) at bar fraction g:
        the two mixes of step_with plus the line ports' reflection."""
        t_bar, t_cross, refl = self.coefficients(g)
        top, bot, la, lb = incident
        out = np.empty((4,) + np.broadcast_shapes(np.shape(top), np.shape(t_bar)))
        self.step_with(la, lb, t_bar, t_cross, out[:LINE_A])
        self.step_with(top, bot, t_bar, t_cross, out[LINE_A:])
        out[LINE_A] += refl * la
        out[LINE_B] += refl * lb
        return out


def _interp_onto_grid(
    freqs: np.ndarray, values: np.ndarray, grid: np.ndarray, taper_width: float
) -> np.ndarray:
    """Interpolate a measured complex response onto an FFT grid.

    Magnitude and unwrapped phase interpolate separately (linear re/im
    interpolation of a delay response would scallop the magnitude between
    grid points). Outside the measured band the response is zero, with a
    raised-cosine taper occupying taper_width inside each band edge.
    """
    mag = np.abs(values)
    phase = np.unwrap(np.angle(values))
    in_band = (grid >= freqs[0]) & (grid <= freqs[-1])
    gm = np.zeros(len(grid))
    gp = np.zeros(len(grid))
    gm[in_band] = np.interp(grid[in_band], freqs, mag)
    gp[in_band] = np.interp(grid[in_band], freqs, phase)
    if taper_width > 0:
        lo_edge = (grid >= freqs[0]) & (grid < freqs[0] + taper_width)
        hi_edge = (grid > freqs[-1] - taper_width) & (grid <= freqs[-1])
        gm[lo_edge] *= np.sin(0.5 * math.pi * (grid[lo_edge] - freqs[0]) / taper_width) ** 2
        gm[hi_edge] *= np.sin(0.5 * math.pi * (freqs[-1] - grid[hi_edge]) / taper_width) ** 2
    return gm * np.exp(1j * gp)


class TouchstoneElement(ScatteringElement):
    """Two-port built from measured S-parameters via frequency sampling.

    Each S_ij becomes a finite impulse response: the measured response is
    band-tapered, sampled onto an FFT grid, inverse transformed, and
    truncated to ir_len samples. The fraction of impulse-response energy
    lost to truncation is reported per entry in energy_loss and warned
    about above 0.1%. The data must be referenced to signals.Z0; other
    reference impedances are rejected, not renormalised.

    The FIR runs in fixed frames of L samples, the largest power of two
    within both its block limit and block_limit of its own lanes; frame m
    covers samples [m*L, (m+1)*L).
    Taps at lags below L (near) are a matmul per output sample over its
    history window. Taps at lags of L and beyond (far) read, for every
    output of frame m, only samples before m*L, so each frame's far part
    is computed once, when its first sample is stepped, by uniformly
    partitioned overlap-save convolution (Stockham 1966): with H_p the
    2L-point spectrum of the taps at lags [p*L, (p+1)*L) and S_j that of
    the samples [(j-1)*L, (j+1)*L), frame m's far part is the last L
    samples of irfft(sum over p >= 1 of H_p * S_(m-p)). Every far value is
    a fixed function of its frame index and of history already stepped,
    so any split of the stream into blocks gives bit-identical outputs,
    and a non-finite sample spreads only forward, into later frames.
    """

    n_ports = 2
    _state = ("_t", "_chunks", "_frames")

    def __init__(self, data: TouchstoneData, sample_rate: float, ir_len: int):
        super().__init__()
        if not 1 <= ir_len <= MAX_SPAN:
            raise ValueError(f"ir_len must lie in [1, {MAX_SPAN}]")
        if data.reference_impedance != Z0:
            raise ValueError(f"measured data referenced to {data.reference_impedance:g} ohm, not {Z0:g} ohm")
        self.sample_rate = sample_rate
        self.ir_len = ir_len
        f = data.frequencies
        sv = np.linalg.svd(data.s, compute_uv=False)
        if np.any(sv > 1.0 + 1e-6):
            self.warnings.append(
                f"non-passive measured data: max singular value {sv.max():.6f}"
            )

        n_fft = 1 << max(13, (4 * ir_len - 1).bit_length())
        grid = np.fft.rfftfreq(n_fft, d=1.0 / sample_rate)
        taper = (f[-1] - f[0]) / 10.0
        self.h = np.zeros((2, 2, ir_len))
        self.energy_loss = np.zeros((2, 2))
        for j in range(2):
            for i in range(2):
                response = _interp_onto_grid(f, data.s[:, j, i], grid, taper)
                ir = np.fft.irfft(response, n=n_fft)
                total = float(np.sum(ir * ir))
                kept = float(np.sum(ir[:ir_len] ** 2))
                self.h[j, i] = ir[:ir_len]
                self.energy_loss[j, i] = 0.0 if total == 0.0 else 1.0 - kept / total
        if np.any(self.energy_loss > 1e-3):
            worst = self.energy_loss.max()
            self.warnings.append(
                f"impulse response truncation loses {100 * worst:.2f}% of energy; "
                "increase ir_len"
            )
        # _taps[j] holds the reversed taps of S_j1 and S_j2 interleaved, so
        # one matmul with an oldest-to-newest (n, 2) history window gives
        # both outputs; its last 2 * near columns are the near taps.
        self._taps = self.h[:, :, ::-1].transpose(0, 2, 1).reshape(2, 2 * ir_len).copy()
        # Far partition spectra by frame length, made at the first step that
        # needs them and shared with copies (zeroed, a line alias).
        self._partitions: dict[int, np.ndarray] = {}
        self.reset()

    def reset(self, lanes: int = 1, limit: int | None = None) -> None:
        super().reset(lanes, limit)
        # Frames of the largest power of two samples within a block of the
        # element's own lanes: on 12 lanes 128, whose 256-point transforms
        # take a third of the time of the 340-point ones of 170-sample
        # frames. A design shared over positions holds more lanes than its
        # network's budget, and its frames follow its lanes, not that budget.
        frame = 1 << (min(self.limit, block_limit(lanes)).bit_length() - 1)
        self._frame = frame
        self._near = min(frame, self.ir_len)
        # One time-major ring of incident samples, as the delay line's: a
        # block beyond the near window and, with far taps, beyond the two
        # frames of the newest chunk.
        reach = self._near - 1 if self._near == self.ir_len else 2 * frame
        self._ring = np.zeros((reach + self.limit, 2, lanes))
        self._t = 0
        # Chunk spectra S_j by chunk index, the last P - 1 of them, and far
        # parts (frame, 2, lanes) by frame index, those of the last block.
        self._chunks: dict[int, np.ndarray] = {}
        self._frames: dict[int, np.ndarray] = {}

    def _far_partitions(self) -> np.ndarray:
        """Spectra of the far partitions p = 1 .. P-1 for the frame length in
        use, shape (frame + 1, 2, 2 * (P - 1)) with columns (p, i) for S_ji."""
        frame = self._frame
        if frame not in self._partitions:
            count = -(-self.ir_len // frame) - 1
            h = np.zeros((2, 2, (count + 1) * frame))
            h[:, :, : self.ir_len] = self.h
            parts = h[:, :, frame:].reshape(2, 2, count, frame)
            spectra = np.fft.rfft(parts, 2 * frame, axis=-1)
            self._partitions[frame] = spectra.transpose(3, 0, 2, 1).reshape(frame + 1, 2, 2 * count)
        return self._partitions[frame]

    def _far_frame(self, m: int) -> np.ndarray:
        """Far part of frame m, (frame, 2, lanes), from the chunk spectra
        S_(m-1) .. S_(m-P+1); chunks before the stream are zero. Reads
        samples (m-2)*frame .. m*frame - 1 from the ring."""
        far = self._frames.get(m)
        if far is not None:
            return far
        frame, h_far = self._frame, self._far_partitions()
        count = min(m, h_far.shape[2] // 2)
        if count == 0:
            return np.zeros((frame, 2, self.lanes))
        chunks = {j: s for j, s in self._chunks.items() if j >= m - count}
        chunks[m - 1] = np.fft.rfft(_ring_rows(self._ring, (m - 2) * frame, 2 * frame), axis=0)
        self._chunks = chunks
        stacked = np.concatenate([chunks[m - p] for p in range(1, count + 1)], axis=1)
        return np.fft.irfft(h_far[:, :, : 2 * count] @ stacked, 2 * frame, axis=0)[frame:]

    def _process(self, x: np.ndarray) -> np.ndarray:
        lanes, b = x.shape[1:]
        t, near = self._t, self._near
        _ring_write(self._ring, t, x.transpose(2, 0, 1))
        # window[j] holds samples t+j-near+1 .. t+j, oldest first: the
        # history output j of the block convolves with the near taps.
        src = _ring_rows(self._ring, t - near + 1, b + near - 1)
        window = np.ndarray((b, near, 2, lanes), src.dtype, src, strides=(src.strides[0],) + src.strides)
        out = self._taps[:, -2 * near :] @ window.reshape(b, 2 * near, lanes)
        if near < self.ir_len:
            # Add each frame's far part over the samples of the block in it.
            frame, frames, s = self._frame, {}, t
            while s < t + b:
                m, stop = s // frame, min(t + b, (s // frame + 1) * frame)
                frames[m] = far = self._far_frame(m)
                out[s - t : stop - t] += far[s - m * frame : stop - m * frame]
                s = stop
            self._frames = frames
        self._t += b
        return out.transpose(1, 2, 0)

    def step(self, incident: np.ndarray) -> np.ndarray:
        x, shape = _as_block(incident)
        return _in_blocks(self._process, x, self.limit).reshape(shape)

    def response(self, frequencies) -> np.ndarray:
        """Exact scattering response (n, 2, 2) at frequencies (Hz) of the
        truncated impulse responses h the element steps with."""
        lags = np.arange(self.ir_len)
        return np.array(
            [self.h @ np.exp(-2j * math.pi * f / self.sample_rate * lags) for f in frequencies]
        ).reshape(-1, 2, 2)


L_TOWARD_LINE = "L-toward-line"
L_TOWARD_PORT = "L-toward-port"


@dataclass(frozen=True)
class MatchSpec:
    """Series inductor and shunt capacitor of one L-section.

    Element port 1 faces the crossbar (source), port 2 faces the line
    (load). orientation says which side the series inductor sits on:
    L_TOWARD_LINE puts the inductor at port 2 with the capacitor shunting
    port 1, L_TOWARD_PORT mirrors that. The discrete realization is
    pre-warped to be exact at f0; f0 = 0 turns pre-warping off. The
    section's S-matrix is referenced to signals.Z0, as are the network's
    waves.
    """

    series_l: float
    shunt_c: float
    orientation: str = L_TOWARD_LINE
    f0: float = 155e6

    def __post_init__(self) -> None:
        if self.series_l < 0 or self.shunt_c < 0:
            raise ValueError("component values must be >= 0")
        if not self.f0 >= 0:
            raise ValueError("f0 must be >= 0 (0: no pre-warping)")
        if self.orientation not in (L_TOWARD_LINE, L_TOWARD_PORT):
            raise ValueError(f"unknown orientation {self.orientation!r}")


def _lsection_polys(spec: MatchSpec) -> tuple[list[float], ...]:
    """The section's S11, S21 = S12 and S22 as s-domain numerators over one
    common denominator, returned last; coefficients highest power first."""
    lc = spec.series_l * spec.shunt_c
    k_sum = spec.series_l / Z0 + spec.shunt_c * Z0
    k_diff = spec.series_l / Z0 - spec.shunt_c * Z0
    cap_side, ind_side = [-lc, k_diff, 0.0], [lc, k_diff, 0.0]
    if spec.orientation == L_TOWARD_PORT:
        cap_side, ind_side = ind_side, cap_side
    return cap_side, [0.0, 0.0, 2.0], ind_side, [lc, k_sum, 2.0]


def _bilinear_biquad(num_s: list[float], den_s: list[float], k: float) -> tuple[np.ndarray, np.ndarray]:
    """Bilinear transform s = k*(1 - z^-1)/(1 + z^-1) of num_s/den_s (s
    polynomials, highest power first) to (b, a) in z^-1, normalised to
    a[0] = 1 and padded to biquad length. A section of lower degree (zero
    leading denominator coefficients) is transformed at its true degree,
    so no cancelled z = -1 pole pair enters the recursion."""
    den = list(den_s)
    while len(den) > 1 and den[0] == 0.0:
        den.pop(0)
    num = list(num_s)[-len(den) :]
    if not any(num):
        return np.zeros(3), np.array([1.0, 0.0, 0.0])
    m = len(den) - 1
    # s^i becomes k^i (1 - z^-1)^i (1 + z^-1)^(m - i) over (1 + z^-1)^m.
    basis = []
    for i in range(m + 1):
        term = np.array([k**i])
        for root in [-1.0] * i + [1.0] * (m - i):
            term = np.convolve(term, [1.0, root])
        basis.append(term)
    b, a = (sum(c * basis[m - j] for j, c in enumerate(poly)) for poly in (num, den))
    b, a = b / a[0], a / a[0]
    # A leading coefficient this small is a response that all but vanishes
    # at the sample rate; dropping it would delay the section a sample.
    if abs(b[0]) <= 1e-14:
        raise ValueError("L-section response vanishes at this sample rate; "
                         "series_l and shunt_c are far too large")
    return np.pad(b, (0, 2 - m)), np.pad(a, (0, 2 - m))


class MatchingElement(ScatteringElement):
    """Discrete-time L-section two-port.

    Three biquads realize S11, S21 = S12 and S22 of the analytic section via
    the bilinear transform, pre-warped so the response at spec.f0 is exact.
    Blocks run through scipy.signal.lfilter, imported here at construction
    so that networks without matching never load scipy.
    """

    n_ports = 2
    _state = ("_z",)

    def __init__(self, spec: MatchSpec, sample_rate: float):
        super().__init__()
        from scipy.signal import lfilter

        self._lfilter = lfilter
        self.spec = spec
        self.sample_rate = sample_rate
        w0 = 2.0 * math.pi * spec.f0
        k = w0 / math.tan(w0 / (2.0 * sample_rate)) if spec.f0 > 0 else 2.0 * sample_rate

        # S11, S21 = S12, S22.
        *nums, den = _lsection_polys(spec)
        self._biquads = [_bilinear_biquad(num, den, k) for num in nums]
        # Coefficients per filter state (S11, S21, S12, S22), already with
        # a0 = 1 (_bilinear_biquad), for the one-sample update.
        b, a = (np.array([self._biquads[i][n] for i in (0, 1, 1, 2)]) for n in (0, 1))
        self._b = b.T[:, :, None]
        self._a = a.T[:, :, None]
        self.reset()

    def reset(self, lanes: int = 1, limit: int | None = None) -> None:
        super().reset(lanes, limit)
        # Filter states of S11, S21, S12, S22, which read incident ports 1, 1, 2, 2.
        self._z = np.zeros((4, lanes, 2))

    def step(self, incident: np.ndarray) -> np.ndarray:
        # out1 = S11 + S12, out2 = S21 + S22; both ports pass the through
        # biquad in one call.
        x, shape = _as_block(incident)
        if x.shape[2] == 1:
            # One sample: lfilter's transposed direct form II update, in its
            # order of operations, on all four filter states at once.
            x = x[[0, 0, 1, 1], :, 0]
            (b0, b1, b2), (_, a1, a2) = self._b, self._a
            z = self._z
            y = z[:, :, 0] + b0 * x
            self._z = np.stack([z[:, :, 1] + x * b1 - y * a1, x * b2 - y * a2], axis=-1)
            return np.stack([y[0] + y[2], y[1] + y[3]]).reshape(shape)
        (b11, a11), (b_thru, a_thru), (b22, a22) = self._biquads
        z = np.empty_like(self._z)
        y11, z[0] = self._lfilter(b11, a11, x[0], zi=self._z[0])
        thru, z[1:3] = self._lfilter(b_thru, a_thru, x, zi=self._z[1:3])
        y22, z[3] = self._lfilter(b22, a22, x[1], zi=self._z[3])
        self._z = z
        return np.stack([y11 + thru[1], thru[0] + y22]).reshape(shape)
