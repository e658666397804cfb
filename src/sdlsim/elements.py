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
(zeroed), whose steps give its impulse responses.

The delay line's band filter (DelayLineElement) is a Butterworth
band-pass designed in numpy and run in Burrus's block (lifted) form, in
fixed frames of MAX_BLOCK samples at fixed sample positions: one matrix
product per frame a block touches maps [frame inputs; state at the frame
start] to [frame outputs; state after the frame]. The slots of samples not
yet stepped hold zeros and the matrix reads no later input, so outputs are
the same however the stream is split into blocks.

The measured-data FIR (TouchstoneElement) splits its taps at a fixed frame
length L: near taps (lags below L) are summed per output sample, far taps
(lags of L and beyond) once per frame of L samples by partitioned FFT
convolution. Frames sit at fixed sample positions, which keeps its outputs
independent of the block split; rewind takes back the spectra a trial
block completed.

Includes the L-section matching synthesis (synth_lmatch) and its
discrete-time realization alongside the delay-line, crossbar-switch, and
measured-data elements. The matching element filters blocks with
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
# longer blocks are split. The floor of 64 samples keeps a 204-lane block's
# working set near 1 MB; one lane gets 2,048-sample blocks, so each settled
# span of a single-lane run is one call. MAX_BLOCK is also the frame length
# of the delay line's band filter.
MAX_BLOCK = 64
BLOCK_LANE_SAMPLES = 2048


def block_limit(lanes: int) -> int:
    """Longest block (samples) processed in one pass at this lane count."""
    return max(MAX_BLOCK, BLOCK_LANE_SAMPLES // lanes)

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


def _in_blocks(process, x: np.ndarray) -> np.ndarray:
    """Apply a block processor to an (n_ports, lanes, B) block in pieces of
    at most block_limit(lanes) samples."""
    limit = block_limit(x.shape[1])
    if x.shape[-1] <= limit:
        return process(x)
    return np.concatenate(
        [process(x[..., s : s + limit]) for s in range(0, x.shape[-1], limit)],
        axis=-1,
    )


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
    # History rings need no copy: they keep block_limit(lanes) rows beyond
    # the longest delay, so one block overwrites no row a rewound step reads.
    _state: tuple[str, ...] = ()

    def __init__(self) -> None:
        self.warnings: list[str] = []
        self.lanes = 1

    def reset(self, lanes: int = 1) -> None:
        self.lanes = lanes

    def step(self, incident: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def mark(self) -> dict:
        """The element's state now, for rewind."""
        return {name: copy.copy(getattr(self, name)) for name in self._state}

    def rewind(self, mark: dict) -> None:
        """Return to a mark taken at most one block of at most
        block_limit(lanes) samples ago."""
        self.__dict__.update(mark)

    def zeroed(self, lanes: int) -> ScatteringElement:
        """A copy sharing this element's design, reset to zero state on
        lanes lanes (reset rebinds every state array, so this element's
        state is untouched)."""
        probe = copy.copy(self)
        probe.reset(lanes)
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
        if self.band_order > MAX_BAND_ORDER:
            raise ValueError(f"band_order must be at most {MAX_BAND_ORDER}")
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
            self._lifted = _lifted(sos, MAX_BLOCK)
        else:
            self.sos = None
            self._lifted = None
            self.filter_delay_samples = 0

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

    def reset(self, lanes: int = 1) -> None:
        super().reset(lanes)
        # Time-major ring of filtered samples: row t % len holds sample t.
        self._ring = np.zeros((self.buf_len - 1 + block_limit(lanes), 2, lanes))
        self._t = 0
        # The band filter's frame: the inputs of the frame under way, zero
        # from the next sample on, over the state at its start.
        self._frame = None if self.sos is None else np.zeros((len(self._lifted), 2 * lanes))

    def _ring_rows(self, start: int, b: int) -> np.ndarray:
        """Rows of samples start..start+b-1, read in at most two slices."""
        ring = self._ring
        i = start % len(ring)
        if i + b <= len(ring):
            return ring[i : i + b]
        return np.concatenate([ring[i:], ring[: i + b - len(ring)]])

    def _filter(self, u: np.ndarray) -> np.ndarray:
        """Band-filter time-major samples u, shape (b, 2 * lanes), from
        sample _t on: one lifted product per frame the block touches.
        Frames start at multiples of MAX_BLOCK; the slots of samples not yet
        stepped are zero, and the lifted matrix is zero above its diagonal,
        so each output is the same product however the stream is split."""
        frame, v, t, n = MAX_BLOCK, self._frame, self._t, len(u)
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
            y = self._lifted @ v
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
        ring = self._ring
        i = self._t % len(ring)
        k = min(b, len(ring) - i)
        ring[i : i + k] = rows[:k]
        ring[: b - k] = rows[k:]
        # Time-major sums; a tap reading port 2's stream for port 1's output
        # reads both channels swapped.
        out = np.zeros((b, 2, lanes))
        for delay, ch, gain in self.taps:
            src = self._ring_rows(self._t - delay, b)
            out += gain * (src[:, ::-1] if ch else src)
        self._t += b
        return out.transpose(1, 2, 0)

    def step(self, incident: np.ndarray) -> np.ndarray:
        x, shape = _as_block(incident)
        return _in_blocks(self._process, x).reshape(shape)

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
    def step_with(incident: np.ndarray, t_bar, t_cross, refl, side: str | None = None) -> np.ndarray:
        """Outputs for incident waves (4, ...) under the given coefficients,
        which broadcast over the trailing axes. side "port" or "line"
        returns only that side's two outputs."""
        a_top, a_bot, a_la, a_lb = incident
        rows = []
        if side != "line":
            rows += [t_bar * a_la + t_cross * a_lb, t_cross * a_la + t_bar * a_lb]
        if side != "port":
            rows += [
                t_bar * a_top + t_cross * a_bot + refl * a_la,
                t_cross * a_top + t_bar * a_bot + refl * a_lb,
            ]
        return np.array(rows)

    def step(self, incident: np.ndarray, g: np.ndarray | float = 1.0) -> np.ndarray:
        t_bar, t_cross, refl = self.coefficients(g)
        return self.step_with(incident, t_bar, t_cross, refl)


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
    within block_limit(lanes); frame m covers samples [m*L, (m+1)*L).
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
        # Far partition spectra by frame length, made at the first reset
        # that needs them and shared with copies (zeroed, a line alias).
        self._partitions: dict[int, np.ndarray] = {}
        self.reset()

    def reset(self, lanes: int = 1) -> None:
        super().reset(lanes)
        # Frames of the largest power of two samples within a block: on 12
        # lanes 128, whose 256-point transforms take a third of the time of
        # the 340-point ones of 170-sample frames.
        frame = 1 << (block_limit(lanes).bit_length() - 1)
        self._frame = frame
        self._near = min(frame, self.ir_len)
        self._h_far = self._far_partitions(frame)
        # Doubled time-major ring: sample t sits in rows t % size and
        # t % size + size, so every window or chunk a block needs is one
        # slice. It holds a block beyond the near window and, with far
        # taps, beyond the two frames of the newest chunk.
        reach = self._near - 1 if self._h_far is None else 2 * frame
        self._size = reach + block_limit(lanes)
        self._hist = np.zeros((2 * self._size, 2, lanes))
        self._t = 0
        # Chunk spectra S_j by chunk index, the last P - 1 of them, and far
        # parts (frame, 2, lanes) by frame index, those of the last block.
        self._chunks: dict[int, np.ndarray] = {}
        self._frames: dict[int, np.ndarray] = {}

    def _far_partitions(self, frame: int) -> np.ndarray | None:
        """Spectra of the far partitions p = 1 .. P-1 for this frame length,
        shape (frame + 1, 2, 2 * (P - 1)) with columns (p, i) for S_ji; None
        if every tap is near."""
        if self.ir_len <= frame:
            return None
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
        frame = self._frame
        count = min(m, self._h_far.shape[2] // 2)
        if count == 0:
            return np.zeros((frame, 2, self.lanes))
        i = ((m - 2) * frame) % self._size
        chunks = {j: s for j, s in self._chunks.items() if j >= m - count}
        chunks[m - 1] = np.fft.rfft(self._hist[i : i + 2 * frame], axis=0)
        self._chunks = chunks
        stacked = np.concatenate([chunks[m - p] for p in range(1, count + 1)], axis=1)
        return np.fft.irfft(self._h_far[:, :, : 2 * count] @ stacked, 2 * frame, axis=0)[frame:]

    def _process(self, x: np.ndarray) -> np.ndarray:
        lanes, b = x.shape[1:]
        size, hist, t = self._size, self._hist, self._t
        rows = x.transpose(2, 0, 1)
        i = t % size
        if i + b <= size:
            hist[i : i + b] = rows
            hist[i + size : i + size + b] = rows
        else:
            slots = (i + np.arange(b)) % size
            hist[slots] = rows
            hist[slots + size] = rows
        # window[j] holds samples t+j-near+1 .. t+j, oldest first: the
        # history output j of the block convolves with the near taps.
        near = self._near
        row = hist.strides[0]
        window = np.ndarray(
            (b, near, 2, lanes),
            dtype=hist.dtype,
            buffer=hist,
            offset=((t - near + 1) % size) * row,
            strides=(row,) + hist.strides,
        )
        out = self._taps[:, -2 * near :] @ window.reshape(b, 2 * near, lanes)
        if self._h_far is not None:
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
        return _in_blocks(self._process, x).reshape(shape)

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
    port 1, L_TOWARD_PORT mirrors that.
    """

    series_l: float
    shunt_c: float
    orientation: str = L_TOWARD_LINE
    z0: float = 50.0
    f0: float = 155e6

    def __post_init__(self) -> None:
        if self.series_l < 0 or self.shunt_c < 0:
            raise ValueError("component values must be >= 0")
        if self.z0 <= 0:
            raise ValueError("z0 must be positive")
        if self.orientation not in (L_TOWARD_LINE, L_TOWARD_PORT):
            raise ValueError(f"unknown orientation {self.orientation!r}")


def synth_lmatch(z_load: complex, z0: float, f0: float) -> MatchSpec:
    """Closed-form L-match of z_load to z0 at f0.

    Loads below z0 get the series inductor toward the load with the load
    reactance absorbed into the series branch; loads above z0 get the
    mirrored section with the load susceptance absorbed into the shunt
    branch. A load already at z0 returns the empty ladder.
    """
    z_load = complex(z_load)
    if z_load.real <= 0:
        raise ValueError("load must have positive real part")
    w0 = 2.0 * math.pi * f0
    if z_load == complex(z0, 0.0):
        return MatchSpec(0.0, 0.0, L_TOWARD_LINE, z0, f0)

    def series_first() -> tuple[float, float, str] | None:
        # Load resistance stepped up: series L absorbs the load reactance.
        if z_load.real > z0:
            return None
        q = math.sqrt(z0 / z_load.real - 1.0)
        x_series = q * z_load.real - z_load.imag
        if x_series < 0:
            return None
        return x_series, q / z0, L_TOWARD_LINE

    def shunt_first() -> tuple[float, float, str] | None:
        # Load conductance stepped up: shunt C absorbs the load susceptance.
        y_load = 1.0 / z_load
        r_p = 1.0 / y_load.real
        if r_p < z0:
            return None
        q = math.sqrt(r_p / z0 - 1.0)
        b_shunt = q * y_load.real - y_load.imag
        if b_shunt < 0:
            return None
        return q * z0, b_shunt, L_TOWARD_PORT

    # The primary branch follows the resistance comparison; strongly
    # reactive loads on the wrong side of it resolve via the mirror. The
    # two domains tile the whole Re > 0 half plane, so one always fits.
    order = (series_first, shunt_first) if z_load.real <= z0 else (shunt_first, series_first)
    for branch in order:
        result = branch()
        if result is not None:
            x_series, b_shunt, orientation = result
            return MatchSpec(x_series / w0, b_shunt / w0, orientation, z0, f0)
    raise ValueError(f"no series-L/shunt-C section matches load {z_load:g}")


def _lsection_polys(spec: MatchSpec) -> tuple[list[float], ...]:
    """The section's S11, S21 = S12 and S22 as s-domain numerators over one
    common denominator, returned last; coefficients highest power first."""
    lc = spec.series_l * spec.shunt_c
    k_sum = spec.series_l / spec.z0 + spec.shunt_c * spec.z0
    k_diff = spec.series_l / spec.z0 - spec.shunt_c * spec.z0
    cap_side, ind_side = [-lc, k_diff, 0.0], [lc, k_diff, 0.0]
    if spec.orientation == L_TOWARD_PORT:
        cap_side, ind_side = ind_side, cap_side
    return cap_side, [0.0, 0.0, 2.0], ind_side, [lc, k_sum, 2.0]


def lsection_sparams(spec: MatchSpec, frequency: np.ndarray | float) -> np.ndarray:
    """Analytic two-port scattering response, shape (..., 2, 2)."""
    s = 2j * math.pi * np.asarray(frequency, dtype=np.float64)
    s11, s21, s22, den = (np.polyval(p, s) for p in _lsection_polys(spec))
    return np.stack([np.stack([s11, s21], -1), np.stack([s21, s22], -1)], -2) / den[..., None, None]


def input_impedance(spec: MatchSpec, z_term: complex, frequency: float) -> complex:
    """Impedance looking into port 1 with z_term on port 2 (oracle check)."""
    w = 2.0 * math.pi * frequency
    zl = 1j * w * spec.series_l
    yc = 1j * w * spec.shunt_c
    if spec.orientation == L_TOWARD_LINE:
        z = zl + z_term
        return 1.0 / (yc + 1.0 / z)
    y = yc + (1.0 / z_term if z_term != 0 else cmath.inf)
    return zl + 1.0 / y


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
        # Coefficients per filter state (S11, S21, S12, S22), normalised by
        # a0 as lfilter does, for the one-sample update.
        b, a = (np.array([self._biquads[i][n] for i in (0, 1, 1, 2)]) for n in (0, 1))
        self._b = (b / a[:, :1]).T[:, :, None]
        self._a = (a / a[:, :1]).T[:, :, None]
        self.reset()

    def reset(self, lanes: int = 1) -> None:
        super().reset(lanes)
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
