import math

import numpy as np
import pytest

from sdlsim.signals import amplitude_to_dbm, dbm_to_amplitude, make_burst, make_tone

FS = 4e9
FC = 155e6


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
