import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdlsim.signals import (
    Phasor,
    SampleBuffer,
    amplitude_to_dbm,
    dbm_to_amplitude,
    extract_phasor,
    integer_cycle_length,
    make_burst,
    make_tone,
    wrap_phase,
)

FS = 4e9
FC = 155e6


class TestWrapPhase:
    def test_identity_inside_range(self):
        assert wrap_phase(0.3) == pytest.approx(0.3, abs=1e-15)

    def test_half_open_interval(self):
        assert wrap_phase(math.pi) == pytest.approx(math.pi)
        assert wrap_phase(-math.pi) == pytest.approx(math.pi)
        assert wrap_phase(3 * math.pi) == pytest.approx(math.pi)

    @given(st.floats(-1e6, 1e6))
    def test_always_in_range(self, phi):
        r = wrap_phase(phi)
        assert -math.pi < r <= math.pi


class TestDbm:
    def test_minus_ten_dbm_amplitude(self):
        # 10*log10((a^2/2)/1mW) = -10 solves to a = sqrt(2e-4)
        a = dbm_to_amplitude(-10.0)
        assert a == pytest.approx(math.sqrt(2e-4), rel=1e-12)
        assert amplitude_to_dbm(a) == pytest.approx(-10.0, abs=1e-12)

    def test_zero_amplitude_reports_floor(self):
        # An exact zero has no finite level; a tiny one is reported unclamped.
        assert amplitude_to_dbm(0.0) == -math.inf
        assert amplitude_to_dbm(1e-30) == pytest.approx(-580.0 + 10 * math.log10(5.0), abs=1e-9)


class TestMakeTone:
    def test_first_sample_is_cos_phase(self):
        buf = make_tone(FC, 1.0, 0.0, 8, FS)
        assert buf.samples[0] == pytest.approx(1.0)
        expect = np.cos(2 * math.pi * FC / FS * np.arange(8))
        np.testing.assert_allclose(buf.samples, expect, atol=1e-15)

    def test_zero_amplitude_gives_zero_buffer(self):
        buf = make_tone(FC, 0.0, 1.2, 64, FS)
        assert np.all(buf.samples == 0.0)

    def test_nyquist_rejected(self):
        with pytest.raises(ValueError):
            make_tone(2.1e9, 1.0, 0.0, 8, FS)
        with pytest.raises(ValueError):
            make_tone(0.0, 1.0, 0.0, 8, FS)

    def test_start_index_gives_absolute_phase(self):
        long = make_tone(FC, 0.7, 0.4, 2000, FS)
        tail = make_tone(FC, 0.7, 0.4, 1000, FS, start_index=1000)
        np.testing.assert_allclose(tail.samples, long.samples[1000:], atol=1e-12)


class TestExtractPhasor:
    def test_round_trip_identity(self):
        # 4000 samples at 155 MHz / 4 GHz hold exactly 155 carrier cycles.
        buf = make_tone(FC, 1.0, 0.0, 4000, FS)
        ph = extract_phasor(buf, FC)
        assert ph.amplitude == pytest.approx(1.0, abs=1e-9)
        assert ph.phase == pytest.approx(0.0, abs=1e-9)

    def test_amplitude_and_phase_recovered(self):
        buf = make_tone(FC, 0.5, math.pi / 4, 4000, FS)
        ph = extract_phasor(buf, FC)
        assert ph.amplitude == pytest.approx(0.5, abs=1e-9)
        assert ph.phase == pytest.approx(math.pi / 4, abs=1e-9)

    def test_delay_shows_as_negative_phase(self):
        # 280 ns at 155 MHz is 43.4 cycles: phase -0.4*2pi = -0.8*pi.
        d = 1120
        n = np.arange(8000)
        buf = SampleBuffer(FS, np.cos(2 * math.pi * FC / FS * (n - d)))
        ph = extract_phasor(buf, FC)
        assert ph.phase == pytest.approx(-0.8 * math.pi, abs=1e-6)

    def test_absolute_origin_reference(self):
        # The same tone measured in a late window keeps its origin phase.
        buf = make_tone(FC, 0.8, 1.0, 20000, FS)
        late = SampleBuffer(FS, buf.samples[8000:], start_index=8000)
        ph = extract_phasor(late, FC)
        assert ph.phase == pytest.approx(1.0, abs=1e-9)
        assert ph.amplitude == pytest.approx(0.8, abs=1e-9)

    def test_interferer_two_bins_away_rejected(self):
        # Both tones are integer-cycle over the window (bin spacing 1 MHz),
        # so the interferer is orthogonal to the probe frequency.
        n = 4000
        clean = make_tone(FC, 1.0, 0.0, n, FS)
        interferer = make_tone(FC + 2e6, 1.0, 0.9, n, FS)
        buf = SampleBuffer(FS, clean.samples + interferer.samples)
        ph = extract_phasor(buf, FC)
        assert abs(ph.complex - 1.0) < 1e-4  # -80 dB

    def test_window_shorter_than_cycle_raises(self):
        buf = make_tone(FC, 1.0, 0.0, 10, FS)
        with pytest.raises(ValueError, match="cycle"):
            extract_phasor(buf, FC)

    def test_window_outside_buffer_raises(self):
        buf = make_tone(FC, 1.0, 0.0, 100, FS)
        with pytest.raises(ValueError, match="window"):
            extract_phasor(buf, FC, window_start=50, window_len=100)

    def test_non_finite_rejected(self):
        buf = make_tone(FC, 1.0, 0.0, 4000, FS)
        buf.samples[17] = np.nan
        with pytest.raises(ValueError, match="finite"):
            extract_phasor(buf, FC)

    @given(
        a1=st.floats(0.01, 2.0),
        a2=st.floats(0.01, 2.0),
        p1=st.floats(-3.0, 3.0),
        p2=st.floats(-3.0, 3.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, a1, a2, p1, p2):
        x = make_tone(FC, a1, p1, 4000, FS)
        y = make_tone(157e6, a2, p2, 4000, FS)
        alpha, beta = 1.7, -0.45
        combo = SampleBuffer(FS, alpha * x.samples + beta * y.samples)
        cx = extract_phasor(x, FC).complex
        cc = extract_phasor(combo, FC).complex
        ref = extract_phasor(SampleBuffer(FS, beta * y.samples), FC).complex
        assert abs(cc - (alpha * cx + ref)) <= 1e-12 * max(1.0, abs(cc))

    @given(phase=st.floats(-10.0, 10.0))
    @settings(max_examples=25, deadline=None)
    def test_phase_always_normalized(self, phase):
        buf = make_tone(FC, 1.0, phase, 4000, FS)
        ph = extract_phasor(buf, FC)
        assert -math.pi < ph.phase <= math.pi


class TestIntegerCycleLength:
    def test_exact_fit(self):
        assert integer_cycle_length(FC, FS, 4000) == 4000

    def test_trims_down(self):
        n = integer_cycle_length(FC, FS, 4010)
        assert n <= 4010
        cycles = n * FC / FS
        assert abs(cycles - round(cycles)) * FS / FC < 1.0

    def test_under_one_cycle(self):
        assert integer_cycle_length(FC, FS, 10) == 0


class TestMakeBurst:
    def test_rectangular_when_no_rise(self):
        buf = make_burst(FC, 1.0, 0.0, 0.0, 100e-9, FS)
        env = np.abs(buf.samples)
        assert env.max() == pytest.approx(1.0, abs=1e-12)
        assert len(buf) == 400

    def test_zero_amplitude(self):
        buf = make_burst(FC, 0.0, 10e-9, 5e-9, 50e-9, FS)
        assert np.all(buf.samples == 0.0)

    def test_energy_identity(self):
        a, t_rise, t_hold = 0.7, 20e-9, 300e-9
        buf = make_burst(FC, a, 15e-9, t_rise, t_hold, FS)
        energy = np.sum(buf.samples**2) / FS
        expect = a * a / 2.0 * (t_hold + t_rise)
        assert energy == pytest.approx(expect, rel=0.01)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            make_burst(FC, 1.0, 0.0, -1e-9, 50e-9, FS)
        with pytest.raises(ValueError):
            make_burst(FC, 1.0, 0.0, 1e-9, 0.0, FS)

    def test_delayed_copy_matches_shifted_t_start(self):
        b0 = make_burst(FC, 1.0, 0.0, 4e-9, 60e-9, FS)
        b1 = make_burst(FC, 1.0, 25e-9, 4e-9, 60e-9, FS)
        shift = 100  # 25 ns at 4 GHz
        np.testing.assert_allclose(b1.samples[shift : shift + len(b0)], b0.samples, atol=1e-12)


class TestPhasor:
    def test_complex_round_trip(self):
        ph = Phasor(FC, 0.7, -2.0)
        back = Phasor.from_complex(FC, ph.complex)
        assert back.amplitude == pytest.approx(0.7, rel=1e-12)
        assert back.phase == pytest.approx(-2.0, rel=1e-12)
