import cmath
import math

import numpy as np
import pytest
from conftest import phasor
from hypothesis import given, settings
from hypothesis import strategies as st

from sdlsim.elements import (
    LINE_A,
    LINE_B,
    PORT_BOT,
    PORT_TOP,
    CrossbarElement,
    DelayLineElement,
    DelayLineSpec,
    SwitchSpec,
    TouchstoneElement,
    conduction_weight,
)
from sdlsim.touchstone import TouchstoneData

FS = 4e9
FC = 155e6

FLAT = dict(bandwidth=None, port_return_db=math.inf, echoes=())


def run_element(element, incident_rows, n_samples):
    """Step a 2-port element over (2, n) incident samples, return (2, n) out."""
    out = np.zeros((element.n_ports, n_samples))
    inc = np.zeros(element.n_ports)
    for i in range(n_samples):
        inc[:] = 0.0
        for p, row in incident_rows.items():
            if i < len(row):
                inc[p] = row[i]
        out[:, i] = element.step(inc)
    return out


def cumulative_energy_ok(in_rows, out, tol=1e-9):
    e_in = np.cumsum(sum(np.square(r) for r in in_rows))
    e_out = np.cumsum(np.sum(out * out, axis=0))
    return bool(np.all(e_out <= e_in * (1 + tol) + 1e-15))


class TestConductionWeight:
    def test_endpoints(self):
        assert conduction_weight(0.0) == 0.0
        assert conduction_weight(1.0) == pytest.approx(1.0)
        assert conduction_weight(0.5) == pytest.approx(0.5)

    @given(st.floats(0.0, 1.0))
    def test_complement(self, g):
        assert conduction_weight(g) + conduction_weight(1 - g) == pytest.approx(1.0, abs=1e-12)


class TestDelayLine:
    def test_ideal_through_phase(self):
        # 1120 samples of pure delay: phase -2*pi*43.4 wraps to -144 degrees.
        el = DelayLineElement(DelayLineSpec(il_db=0.0, **FLAT), FS)
        n = 8000
        tone = np.cos(2 * math.pi * FC / FS * np.arange(n))
        out = run_element(el, {0: tone}, n)
        ph = phasor(out[1], FC, FS, start=4000)
        assert abs(ph) == pytest.approx(1.0, abs=1e-9)
        assert math.degrees(cmath.phase(ph)) == pytest.approx(-144.0, abs=0.01)

    def test_midband_loss(self):
        el = DelayLineElement(DelayLineSpec(il_db=4.0), FS)
        # 5600 samples is an exact 217-cycle window at 155 MHz / 4 GHz.
        n = 11600
        tone = np.cos(2 * math.pi * FC / FS * np.arange(n))
        out = run_element(el, {0: tone}, n)
        ph = phasor(out[1], FC, FS, start=6000)
        assert abs(ph) == pytest.approx(10 ** (-0.2), abs=1e-6)

    def test_echo_impulse_taps(self):
        spec = DelayLineSpec(il_db=0.0, echoes=((3, -10.0),), bandwidth=None,
                             port_return_db=math.inf)
        el = DelayLineElement(spec, FS)
        d = el.delay_samples
        n = 3 * d + 10
        impulse = np.zeros(n)
        impulse[0] = 1.0
        out = run_element(el, {0: impulse}, n)
        assert out[1, d] == pytest.approx(1.0)
        assert out[1, 3 * d] == pytest.approx(10 ** (-0.5))
        others = np.delete(out[1], [d, 3 * d])
        assert np.max(np.abs(others)) == 0.0

    def test_even_echo_returns_to_entry_port(self):
        spec = DelayLineSpec(il_db=0.0, echoes=((2, -20.0),), bandwidth=None,
                             port_return_db=math.inf)
        el = DelayLineElement(spec, FS)
        d = el.delay_samples
        n = 2 * d + 10
        impulse = np.zeros(n)
        impulse[0] = 1.0
        out = run_element(el, {0: impulse}, n)
        assert out[0, 2 * d] == pytest.approx(0.1)
        assert out[1, 2 * d] == 0.0

    def test_port_reflection_sign_and_level(self):
        spec = DelayLineSpec(il_db=0.0, port_return_db=15.0, bandwidth=None)
        el = DelayLineElement(spec, FS)
        impulse = np.zeros(10)
        impulse[0] = 1.0
        out = run_element(el, {0: impulse}, 10)
        assert out[0, 0] == pytest.approx(-(10 ** (-0.75)))

    def test_band_filter_delay_compensation(self):
        el = DelayLineElement(DelayLineSpec(), FS)
        assert el.delay_samples == 1120
        assert el.filter_delay_samples > 0
        assert el.compensated_delay_samples == 1120 - el.filter_delay_samples
        # Total mid-band group delay from the phase slope across 1 MHz.
        n = 40000
        phases = []
        for f in (FC - 0.5e6, FC + 0.5e6):
            el.reset()
            tone = np.cos(2 * math.pi * f / FS * np.arange(n))
            out = run_element(el, {0: tone}, n)
            phases.append(cmath.phase(phasor(out[1], f, FS, start=20000)))
        dphi = phases[1] - phases[0]
        while dphi > 0:
            dphi -= 2 * math.pi
        gd = -dphi / (2 * math.pi * 1e6)
        assert gd == pytest.approx(280e-9, abs=1e-9)

    def test_rounding_report(self):
        el = DelayLineElement(DelayLineSpec(tau=280.1e-9, **FLAT), FS)
        assert el.delay_samples == 1120
        assert el.rounding_error_s == pytest.approx(0.1e-9, abs=1e-12)
        assert el.warnings == []

    def test_reciprocity(self):
        spec = DelayLineSpec(il_db=2.0, port_return_db=math.inf, echoes=())
        rng = np.random.default_rng(3)
        x = rng.standard_normal(4000) * 0.2
        el = DelayLineElement(spec, FS)
        fwd = run_element(el, {0: x}, 4000)
        el = DelayLineElement(spec, FS)
        rev = run_element(el, {1: x}, 4000)
        np.testing.assert_array_equal(fwd[1], rev[0])
        np.testing.assert_array_equal(fwd[0], rev[1])

    def test_sub_sample_tau_rejected(self):
        with pytest.raises(ValueError):
            DelayLineElement(DelayLineSpec(tau=0.1e-9, **FLAT), FS)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            DelayLineSpec(tau=-1e-9)
        with pytest.raises(ValueError):
            DelayLineSpec(bandwidth=200e6)
        with pytest.raises(ValueError):
            DelayLineSpec(echoes=((1, -10.0),))
        with pytest.raises(ValueError):
            DelayLineSpec(echoes=((3, 1.0),))

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=10, deadline=None)
    def test_passivity_random_drive(self, seed):
        rng = np.random.default_rng(seed)
        spec = DelayLineSpec(
            il_db=float(rng.uniform(3.0, 8.0)),
            echoes=((int(rng.integers(2, 5)), float(rng.uniform(-30, -12))),),
            port_return_db=float(rng.uniform(10.0, 25.0)),
        )
        el = DelayLineElement(spec, FS)
        x0 = rng.standard_normal(5000) * 0.5
        x1 = rng.standard_normal(5000) * 0.5
        out = run_element(el, {0: x0, 1: x1}, 5000)
        assert cumulative_energy_ok([x0, x1], out)

    def test_scaling_linearity(self):
        spec = DelayLineSpec()
        rng = np.random.default_rng(11)
        x = rng.standard_normal(3000)
        el = DelayLineElement(spec, FS)
        base = run_element(el, {0: x}, 3000)
        el = DelayLineElement(spec, FS)
        scaled = run_element(el, {0: 2.0 * x}, 3000)
        np.testing.assert_array_equal(scaled, 2.0 * base)


class TestCrossbar:
    def ideal(self, **kw):
        return CrossbarElement(SwitchSpec(il_on_db=0.0, iso_off_db=math.inf, **kw))

    def test_bar_state_routing(self):
        el = self.ideal()
        out = el.step(np.array([1.0, 0, 0, 0]), g=1.0)
        np.testing.assert_allclose(out, [0, 0, 1.0, 0], atol=1e-15)

    def test_cross_state_routing(self):
        el = self.ideal()
        out = el.step(np.array([1.0, 0, 0, 0]), g=0.0)
        np.testing.assert_allclose(out, [0, 0, 0, 1.0], atol=1e-15)

    def test_mid_transition_law(self):
        el = self.ideal()
        out = el.step(np.array([0, 0, 1.0, 0]), g=0.5)
        assert out[PORT_TOP] == pytest.approx(0.5)
        assert out[PORT_BOT] == pytest.approx(0.5)
        assert out[LINE_A] == pytest.approx(0.45)
        assert out[LINE_B] == 0.0
        assert np.sum(out**2) == pytest.approx(0.7025)
        assert np.sum(out**2) <= 1.0

    def test_off_state_leakage(self):
        el = CrossbarElement(SwitchSpec())
        out = el.step(np.array([1.0, 0, 0, 0]), g=1.0)
        assert out[LINE_A] == pytest.approx(10 ** (-0.8 / 20))
        assert out[LINE_B] == pytest.approx(10 ** (-30 / 20))

    def test_no_reflection_in_settled_states(self):
        el = CrossbarElement(SwitchSpec())
        for g in (0.0, 1.0):
            out = el.step(np.array([0, 0, 1.0, 0]), g=g)
            # Only the port side receives energy, none returns to LineA.
            assert out[LINE_A] == 0.0

    def test_control_range_enforced(self):
        el = CrossbarElement(SwitchSpec())
        with pytest.raises(ValueError, match="bar_fraction"):
            el.step(np.zeros(4), g=1.2)

    def test_continuity_in_g(self):
        el = CrossbarElement(SwitchSpec())
        inc = np.array([0.3, -0.4, 0.8, 0.1])
        grid = np.linspace(0, 1, 2001)
        outs = np.stack([el.step(inc, g) for g in grid])
        # Max jump across a 5e-4 control step stays O(step).
        assert np.max(np.abs(np.diff(outs, axis=0))) < 5e-3

    def test_per_column_energy_consistency(self):
        el = CrossbarElement(SwitchSpec())
        for g in np.linspace(0, 1, 101):
            for port in range(4):
                inc = np.zeros(4)
                inc[port] = 1.0
                out = el.step(inc, g=g)
                assert np.sum(out**2) <= 1.0 + 1e-9

    def test_lossless_leaky_switch_warns(self):
        el = CrossbarElement(SwitchSpec(il_on_db=0.0, iso_off_db=30.0))
        assert el.warnings

    def test_transition_energy_identity(self):
        # transmitted^2 + complementary^2 <= 1 at every transition instant.
        el = self.ideal()
        for g in np.linspace(0, 1, 51):
            out = el.step(np.array([1.0, 0, 0, 0]), g=g)
            assert np.sum(out**2) <= 1.0 + 1e-12


def synthetic_touchstone(tau=280e-9, loss_db=0.0, f_lo=100e6, f_hi=210e6, n=221, s21_flat=None):
    freqs = np.linspace(f_lo, f_hi, n)
    if s21_flat is None:
        s21 = 10 ** (-loss_db / 20) * np.exp(-2j * math.pi * freqs * tau)
    else:
        s21 = np.full(n, s21_flat, dtype=complex)
    s = np.zeros((n, 2, 2), dtype=complex)
    s[:, 1, 0] = s21
    s[:, 0, 1] = s21
    return TouchstoneData(freqs, s)


class TestTouchstoneElement:
    def test_pure_delay_group_delay(self):
        el = TouchstoneElement(synthetic_touchstone(), FS, ir_len=4096)
        h21 = el.h[1, 0]
        n_fft = 1 << 16
        grid = np.fft.rfftfreq(n_fft, 1 / FS)
        resp = np.fft.rfft(h21, n_fft)
        band = (grid > 150e6) & (grid < 160e6)
        phase = np.unwrap(np.angle(resp[band]))
        gd = -np.gradient(phase, 2 * math.pi * grid[band])
        assert np.max(np.abs(gd - 280e-9)) < 0.25e-9  # one sample at 4 GHz

    def test_flat_loss_through_amplitude(self):
        # Causal delay long enough that the band-edge pre-ringing stays in
        # positive time instead of wrapping into the truncated tail.
        el = TouchstoneElement(
            synthetic_touchstone(tau=150e-9, loss_db=4.0), FS, ir_len=4096
        )
        n = 9000
        tone = np.cos(2 * math.pi * FC / FS * np.arange(n))
        out = run_element(el, {0: tone}, n)
        ph = phasor(out[1], FC, FS, start=5000)
        assert abs(ph) == pytest.approx(0.631, rel=0.01)

    def test_short_ir_reports_energy_loss(self):
        el = TouchstoneElement(synthetic_touchstone(), FS, ir_len=512)
        assert el.energy_loss[1, 0] > 0.5
        assert any("truncation" in w for w in el.warnings)

    def test_non_passive_data_warns(self):
        el = TouchstoneElement(synthetic_touchstone(s21_flat=1.2), FS, 1024)
        assert any("non-passive" in w for w in el.warnings)

    def test_time_invariance(self):
        el = TouchstoneElement(synthetic_touchstone(), FS, ir_len=2048)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(500)
        n = 4000
        base = run_element(el, {0: x}, n)
        el.reset()
        shifted_in = np.concatenate([np.zeros(37), x])
        shifted = run_element(el, {0: shifted_in}, n)
        np.testing.assert_allclose(shifted[:, 37:], base[:, : n - 37], atol=1e-12)


def stepped_response(element, freqs, settle, window=1000):
    """(n, 2, 2) response measured by stepping: per drive port, a cosine and
    a sine lane per frequency; out_cos + j*out_sin is the response to
    exp(j*omega*n), projected onto exp(-j*omega*n) after settle samples."""
    omega = 2 * math.pi * np.asarray(freqs) / FS
    n = np.arange(settle + window)
    phase = np.outer(omega, n)
    s = np.empty((len(freqs), 2, 2), dtype=complex)
    for drive in (0, 1):
        element.reset(lanes=2 * len(freqs))
        inc = np.zeros((2, 2 * len(freqs), len(n)))
        inc[drive] = np.concatenate([np.cos(phase), np.sin(phase)])
        out = element.step(inc)[:, :, settle:]
        z = out[:, : len(freqs)] + 1j * out[:, len(freqs) :]
        s[:, :, drive] = (z * np.exp(-1j * phase[:, settle:])).mean(axis=-1).T
    return s


def asymmetric_touchstone():
    freqs = np.linspace(100e6, 210e6, 221)
    s = np.zeros((len(freqs), 2, 2), dtype=complex)
    for (j, i), (gain, tau) in {
        (0, 0): (-0.2, 20e-9), (1, 0): (0.8, 100e-9), (0, 1): (0.7, 60e-9), (1, 1): (0.1, 30e-9),
    }.items():
        s[:, j, i] = gain * np.exp(-2j * math.pi * freqs * tau)
    return TouchstoneData(freqs, s)


class TestResponse:
    """element.response() is the response the stepped element has."""

    FREQS = [140e6, 151.3e6, 155e6, 163.7e6]

    @pytest.mark.parametrize(
        "element, settle",
        [
            (DelayLineElement(DelayLineSpec(echoes=((2, -22.3), (3, -40.0))), FS), 8000),
            (
                DelayLineElement(
                    DelayLineSpec(tau=20e-9, il_db=1.0, bandwidth=None, port_return_db=12.0,
                                  echoes=((2, -10.0), (3, -15.0))),
                    FS,
                ),
                241,
            ),
            (TouchstoneElement(asymmetric_touchstone(), FS, ir_len=1024), 1024),
        ],
        ids=["paper-line", "flat-echoes", "touchstone"],
    )
    def test_matches_stepped_element(self, element, settle):
        exact = element.response(self.FREQS)
        assert exact.shape == (len(self.FREQS), 2, 2)
        np.testing.assert_allclose(stepped_response(element, self.FREQS, settle), exact, rtol=0, atol=1e-12)


class TestCausality:
    def test_delay_line_causal(self):
        spec = DelayLineSpec()
        rng = np.random.default_rng(2)
        x = rng.standard_normal(2000)
        y = x.copy()
        y[1500:] += 1.0
        el = DelayLineElement(spec, FS)
        a = run_element(el, {0: x}, 2000)
        el = DelayLineElement(spec, FS)
        b = run_element(el, {0: y}, 2000)
        np.testing.assert_array_equal(a[:, :1500], b[:, :1500])
