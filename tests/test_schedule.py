import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdlsim.errors import QuantizationError
from sdlsim.schedule import (
    build_schedule,
    expanded_controls,
    trace_for,
    validate_schedule,
)

FS = 4e9


def paper_schedule():
    return build_schedule(1.14e-6, 2e-9, 0.5, FS)


class TestBuildSchedule:
    def test_paper_period_counts(self):
        sched = paper_schedule()
        assert sched.period_samples == 4560
        assert sched.offset_samples == 1140
        assert sched.f_mod == pytest.approx(877.19e3, rel=1e-4)

    def test_transition_zero_gives_binary_trace(self):
        sched = build_schedule(1.14e-6, 0.0, 0.5, FS)
        g = trace_for(sched, "left", 3 * 4560)
        assert set(np.unique(g)) == {0.0, 1.0}

    def test_duty_half_complementary(self):
        sched = paper_schedule()
        g = trace_for(sched, "left", 4560)
        half = 4560 // 2
        np.testing.assert_allclose(g[:half] + g[half:], 1.0)

    def test_off_grid_period_rejected_with_nearest(self):
        with pytest.raises(QuantizationError) as err:
            build_schedule(1.1401e-6, 2e-9, 0.5, FS)
        assert err.value.nearest == pytest.approx(4560 / FS, rel=1e-9)

    def test_bad_duty_rejected(self):
        with pytest.raises(QuantizationError):
            build_schedule(1.14e-6, 2e-9, 0.0, FS)

    def test_transition_must_fit_state(self):
        with pytest.raises(QuantizationError):
            build_schedule(1.14e-6, 0.6e-6, 0.5, FS)


class TestTraceFor:
    def test_origin_convention_bar_at_zero(self):
        g = trace_for(paper_schedule(), "left", 8)
        assert g[0] == 1.0

    def test_right_is_left_delayed_quarter_period(self):
        sched = paper_schedule()
        n = 3 * sched.period_samples
        left = trace_for(sched, "left", n)
        right = trace_for(sched, "right", n)
        shift = sched.offset_samples
        np.testing.assert_array_equal(right[shift:], left[: n - shift])
        assert right[shift] == left[0]

    def test_periodicity_exact(self):
        sched = paper_schedule()
        p = sched.period_samples
        g = trace_for(sched, "left", 3 * p)
        np.testing.assert_array_equal(g[:p], g[p : 2 * p])
        np.testing.assert_array_equal(g[:p], g[2 * p :])

    def test_conduction_time_sums_to_duty(self):
        sched = paper_schedule()
        p = sched.period_samples
        g = trace_for(sched, "left", p)
        assert g.sum() == pytest.approx(0.5 * p, abs=1e-9)

    def test_values_bounded(self):
        g = trace_for(paper_schedule(), "left", 10000)
        assert g.min() >= 0.0 and g.max() <= 1.0

    def test_unknown_side_rejected(self):
        with pytest.raises(ValueError, match="side"):
            trace_for(paper_schedule(), "middle", 10)

    def test_side_offset_zero_aligns_sides(self):
        sched = build_schedule(1.14e-6, 2e-9, 0.5, FS, side_offset=0.0)
        n = 9000
        left = trace_for(sched, "left", n)
        right = trace_for(sched, "right", n)
        np.testing.assert_array_equal(left, right)

    @given(
        duty=st.floats(0.2, 0.8),
        tt_ns=st.floats(0.0, 40.0),
        periods=st.integers(1140, 1360),
    )
    @settings(max_examples=30, deadline=None)
    def test_conduction_integral_property(self, duty, tt_ns, periods):
        p_samples = 4 * periods
        period = p_samples / FS
        tt = tt_ns * 1e-9
        bar_n = round(duty * p_samples)
        if round(tt * FS) > min(bar_n, p_samples - bar_n):
            return
        sched = build_schedule(period, tt, duty, FS)
        g = trace_for(sched, "left", p_samples)
        assert g.sum() == pytest.approx(bar_n, abs=1e-6)


class TestExpandedControls:
    def test_four_columns_complementary(self):
        t, c = expanded_controls(paper_schedule(), 5000)
        assert c.shape == (5000, 4)
        np.testing.assert_allclose(c[:, 0] + c[:, 1], 1.0)
        np.testing.assert_allclose(c[:, 2] + c[:, 3], 1.0)
        assert t[1] - t[0] == pytest.approx(1 / FS)


class TestValidateSchedule:
    def test_paper_mismatch_flagged(self):
        report = validate_schedule(paper_schedule(), 280e-9)
        assert report.mismatch_s == pytest.approx(5e-9, rel=1e-9)
        assert report.mismatch_fraction == pytest.approx(0.0179, abs=1e-3)
        assert report.isolation_flag
        assert report.messages

    def test_matched_delta_clean(self):
        sched = build_schedule(4 * 280e-9, 2e-9, 0.5, FS)
        report = validate_schedule(sched, 280e-9)
        assert report.mismatch_s == pytest.approx(0.0, abs=1e-15)
        assert not report.isolation_flag

    def test_gross_mismatch_flagged(self):
        report = validate_schedule(paper_schedule(), 142.5e-9)
        assert report.mismatch_fraction == pytest.approx(1.0, rel=1e-6)
        assert report.isolation_flag
