import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdlsim.touchstone import (
    ParseError,
    TouchstoneData,
    parse_touchstone,
    write_touchstone,
)


def synthetic_delay_line(n_points=201, f_lo=100e6, f_hi=210e6, tau=280e-9, loss_db=4.0):
    freqs = np.linspace(f_lo, f_hi, n_points)
    g = 10 ** (-loss_db / 20.0)
    s21 = g * np.exp(-2j * math.pi * freqs * tau)
    s = np.zeros((n_points, 2, 2), dtype=complex)
    s[:, 1, 0] = s21
    s[:, 0, 1] = s21
    s[:, 0, 0] = 0.01
    s[:, 1, 1] = 0.01
    return TouchstoneData(freqs, s)


class TestParse:
    def test_single_row_ri(self):
        text = "# MHz S RI R 50\n155 0 0 0.631 0 0.631 0 0 0\n"
        data = parse_touchstone(text)
        assert data.frequencies[0] == pytest.approx(155e6)
        assert data.s[0, 1, 0] == pytest.approx(0.631 + 0j)
        assert data.s[0, 0, 1] == pytest.approx(0.631 + 0j)
        assert data.s[0, 0, 0] == 0
        assert data.reference_impedance == 50.0

    def test_db_format_matches_ri_encoding(self):
        db_text = "# HZ S DB R 50\n155e6 -400 0 -4 -144 -4 -144 -400 0\n"
        data = parse_touchstone(db_text)
        expect = 10 ** (-4 / 20) * np.exp(-1j * math.radians(144))
        assert data.s[0, 1, 0] == pytest.approx(expect, rel=1e-12)

    def test_ma_format(self):
        text = "# HZ S MA R 50\n1e8 0 0 0.5 90 0.5 90 0 0\n"
        data = parse_touchstone(text)
        assert data.s[0, 1, 0] == pytest.approx(0.5j, abs=1e-15)

    def test_comments_and_blank_lines(self):
        text = (
            "! measured fixture A\n"
            "\n"
            "# GHz S MA R 50\n"
            "! interleaved note\n"
            "0.155 0 0 1 0 1 0 0 0\n"
            "\n"
            "0.156 0 0 1 0 1 0 0 0  ! trailing\n"
        )
        data = parse_touchstone(text)
        assert len(data.frequencies) == 2
        assert "measured fixture A" in data.comments
        assert "trailing" in data.comments

    def test_default_options(self):
        # Touchstone defaults: GHz, MA, 50 ohm.
        data = parse_touchstone("0.155 0 0 1 0 1 0 0 0\n")
        assert data.frequencies[0] == pytest.approx(155e6)
        assert data.reference_impedance == 50.0

    def test_empty_data_rejected(self):
        with pytest.raises(ParseError, match="no data rows"):
            parse_touchstone("# HZ S RI R 50\n! nothing here\n")

    def test_bad_arity_reports_line(self):
        text = "# HZ S RI R 50\n1e8 0 0 1 0 1 0 0 0\n2e8 0 0 1 0\n"
        with pytest.raises(ParseError, match="line 3"):
            parse_touchstone(text)

    def test_non_ascending_rejected(self):
        text = "# HZ S RI R 50\n2e8 0 0 1 0 1 0 0 0\n1e8 0 0 1 0 1 0 0 0\n"
        with pytest.raises(ParseError, match="ascending"):
            parse_touchstone(text)

    def test_unknown_token_rejected(self):
        with pytest.raises(ParseError, match="unknown option token"):
            parse_touchstone("# HZ S XX R 50\n1e8 0 0 1 0 1 0 0 0\n")

    def test_non_s_parameter_rejected(self):
        with pytest.raises(ParseError, match="only S"):
            parse_touchstone("# HZ Y RI R 50\n1e8 0 0 1 0 1 0 0 0\n")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("# HZ S RI R\n1e8 0 0 1 0 1 0 0 0\n", "line 1: R must be followed by an impedance"),
            ("# HZ S RI R fifty\n1e8 0 0 1 0 1 0 0 0\n", "line 1: bad impedance 'fifty'"),
            ("# HZ S RI R 50\n1e8 0 0 1 0 1 0 0 x\n", "line 2: non-numeric data value"),
        ],
    )
    def test_malformed_values_rejected(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_touchstone(text)

    def test_multiple_option_lines_rejected(self):
        text = "# HZ S RI R 50\n# MHz S RI R 50\n1e8 0 0 1 0 1 0 0 0\n"
        with pytest.raises(ParseError, match="multiple option"):
            parse_touchstone(text)


class TestWrite:
    @pytest.mark.parametrize("fmt", ["RI", "MA", "DB"])
    def test_round_trip_delay_line(self, fmt):
        data = synthetic_delay_line()
        back = parse_touchstone(write_touchstone(data, unit="HZ", fmt=fmt))
        assert np.max(np.abs(back.s - data.s)) < 1e-9
        np.testing.assert_allclose(back.frequencies, data.frequencies, rtol=1e-11)

    def test_unit_scales_frequency_column(self):
        data = synthetic_delay_line(n_points=3)
        text = write_touchstone(data, unit="MHZ", fmt="RI")
        first_data_line = [l for l in text.splitlines() if not l.startswith(("#", "!"))][0]
        assert float(first_data_line.split()[0]) == pytest.approx(100.0)

    def test_ri_and_ma_reparse_equal(self):
        data = synthetic_delay_line(n_points=11)
        a = parse_touchstone(write_touchstone(data, fmt="RI"))
        b = parse_touchstone(write_touchstone(data, fmt="MA"))
        assert np.max(np.abs(a.s - b.s)) < 1e-9

    def test_zero_entry_survives_db(self):
        data = synthetic_delay_line(n_points=3)
        data.s[:, 0, 0] = 0.0
        back = parse_touchstone(write_touchstone(data, fmt="DB"))
        assert np.max(np.abs(back.s[:, 0, 0])) < 1e-9

    def test_comments_preserved(self):
        data = synthetic_delay_line(n_points=3)
        data.comments.append("calibration run 12")
        back = parse_touchstone(write_touchstone(data))
        assert "calibration run 12" in back.comments

    @given(
        n=st.integers(2, 20),
        seed=st.integers(0, 2**31),
        fmt=st.sampled_from(["RI", "MA", "DB"]),
        unit=st.sampled_from(["HZ", "KHZ", "MHZ", "GHZ"]),
    )
    @settings(max_examples=30, deadline=None)
    def test_round_trip_random_grids(self, n, seed, fmt, unit):
        rng = np.random.default_rng(seed)
        freqs = np.sort(rng.uniform(1e6, 1e9, n))
        freqs += np.arange(n)  # enforce strict ascent
        s = rng.uniform(-1, 1, (n, 2, 2)) + 1j * rng.uniform(-1, 1, (n, 2, 2))
        data = TouchstoneData(freqs, s)
        back = parse_touchstone(write_touchstone(data, unit=unit, fmt=fmt))
        assert np.max(np.abs(back.s - data.s)) < 1e-9
        np.testing.assert_allclose(back.frequencies, data.frequencies, rtol=1e-9)


class TestDataValidation:
    def test_non_ascending_constructor(self):
        with pytest.raises(ValueError, match="increasing"):
            TouchstoneData(np.array([2e8, 1e8]), np.zeros((2, 2, 2), dtype=complex))

    def test_non_finite_rejected(self):
        s = np.zeros((2, 2, 2), dtype=complex)
        s[0, 0, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            TouchstoneData(np.array([1e8, 2e8]), s)
