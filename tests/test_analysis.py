import math
from types import SimpleNamespace

import numpy as np
import pytest

from sdlsim.analysis import (
    AnalysisWarning,
    SParamGrid,
    group_delay,
    line_sweep,
    metrics,
    modfreq_sweep,
    sparams_sweep,
    spectrum_probe,
)
from sdlsim.elements import DelayLineSpec, SwitchSpec
from sdlsim.errors import ConfigError
from sdlsim.schedule import build_schedule
from sdlsim.signals import dbm_to_amplitude

FS = 4e9
D = 1120


def ideal_config():
    line = DelayLineSpec(il_db=0.0, bandwidth=None, port_return_db=math.inf, echoes=())
    return SimpleNamespace(
        sample_rate=FS,
        schedule=build_schedule(4 * (D + 2) / FS, 0.0, 0.5, FS),
        switch=SwitchSpec(il_on_db=0.0, iso_off_db=math.inf, t_transition=0.0, gamma_off=0.9),
        line_a=line,
        line_b=line,
        matching=None,
        digest="ideal",
    )


def lossy_config(side_offset=None):
    line = DelayLineSpec(echoes=((2, -22.3), (3, -40.0)))
    return SimpleNamespace(
        sample_rate=FS,
        schedule=build_schedule(1.14e-6, 2e-9, 0.5, FS, side_offset=side_offset),
        switch=SwitchSpec(il_on_db=0.8, iso_off_db=32.0, t_transition=2e-9, gamma_off=0.9),
        line_a=line,
        line_b=line,
        matching=None,
        digest="lossy",
    )


def synthetic_grid(frequencies, fwd=0.5, rev=0.05, refl=0.1):
    n = len(frequencies)
    s = np.zeros((n, 4, 4), dtype=complex)
    for j, i in [(1, 0), (2, 1), (3, 2), (0, 3)]:
        s[:, j, i] = fwd
    for j, i in [(0, 1), (1, 2), (2, 3), (3, 0)]:
        s[:, j, i] = rev
    for p in range(4):
        s[:, p, p] = refl
    return SParamGrid(tuple(frequencies), s, -10.0, "synthetic")


class TestMetrics:
    def test_hand_computable_levels(self):
        grid = synthetic_grid(list(np.linspace(150e6, 160e6, 11)))
        m = metrics(grid, iso_threshold_db=25.0)
        for v in m.il_db.values():
            assert v == pytest.approx(-20 * math.log10(0.5), abs=1e-9)
        for v in m.iso_db.values():
            assert v == pytest.approx(-20 * math.log10(0.05), abs=1e-9)
        for v in m.directivity_db.values():
            assert v == pytest.approx(20.0, abs=1e-9)
        for v in m.rl_db.values():
            assert v == pytest.approx(20.0, abs=1e-9)
        assert m.bandwidth == pytest.approx(10e6)
        assert m.center_frequency == pytest.approx(155e6)
        assert m.fbw == pytest.approx(10e6 / 155e6)
        assert m.flags == ()

    def test_identity_grid_degenerates(self):
        freqs = list(np.linspace(150e6, 160e6, 5))
        s = np.tile(np.eye(4, dtype=complex), (5, 1, 1))
        m = metrics(SParamGrid(tuple(freqs), s, -10.0, "identity"), 27.0)
        assert all(math.isinf(v) for v in m.il_db.values())
        assert m.bandwidth == 0.0
        assert m.flags

    def test_threshold_miss_flags_and_full_grid_stats(self):
        grid = synthetic_grid(list(np.linspace(150e6, 160e6, 11)), rev=0.05)
        m = metrics(grid, iso_threshold_db=30.0)  # 26.02 dB misses 30
        assert m.bandwidth == 0.0
        assert any("threshold" in f for f in m.flags)
        assert m.iso_db["12"] == pytest.approx(26.0206, abs=1e-3)

    def test_widest_contiguous_band_wins(self):
        freqs = list(np.linspace(150e6, 160e6, 11))
        grid = synthetic_grid(freqs)
        s = grid.s.copy()
        # reverse leakage kills threshold at index 2, leaving runs 0-1 and 3-10
        for j, i in [(0, 1), (1, 2), (2, 3), (3, 0)]:
            s[2, j, i] = 0.2
        m = metrics(SParamGrid(tuple(freqs), s, -10.0, "split"), 25.0)
        assert m.bandwidth == pytest.approx(freqs[10] - freqs[3])
        assert m.center_frequency == pytest.approx((freqs[3] + freqs[10]) / 2)

    def test_needs_four_ports(self):
        freqs = (150e6, 155e6)
        s = np.zeros((2, 2, 2), dtype=complex)
        with pytest.raises(ConfigError, match="four-port"):
            metrics(SParamGrid(freqs, s, -10.0, "line"), 27.0)


class TestGroupDelay:
    def pure_delay_grid(self, spacing, tau=280e-9, n=15):
        freqs = 150e6 + spacing * np.arange(n)
        s = np.zeros((n, 4, 4), dtype=complex)
        s[:, 1, 0] = np.exp(-2j * math.pi * freqs * tau)
        return SParamGrid(tuple(freqs.tolist()), s, -10.0, "delay")

    def test_pure_delay_exact(self):
        out = group_delay(self.pure_delay_grid(0.5e6), (2, 1))
        for _, delay in out:
            assert delay == pytest.approx(280e-9, abs=0.1e-9)

    @pytest.mark.parametrize("spacing", [2.0e6, 2.5e6])
    def test_coarse_grid_flags_aliasing(self, spacing):
        with pytest.warns(AnalysisWarning, match="aliased"):
            group_delay(self.pure_delay_grid(spacing), (2, 1))

    def test_fine_grid_clean(self):
        import warnings as w

        with w.catch_warnings():
            w.simplefilter("error", AnalysisWarning)
            group_delay(self.pure_delay_grid(1.5e6), (2, 1))

    def test_needs_two_points(self):
        grid = self.pure_delay_grid(1e6, n=1)
        with pytest.raises(ConfigError, match="two frequency"):
            group_delay(grid, (2, 1))


class TestSweep:
    def test_ideal_circulation_ratios(self):
        grid = sparams_sweep(ideal_config(), [155e6], settle=6, measure=4)
        s = grid.s[0]
        for j, i in [(1, 0), (2, 1), (3, 2), (0, 3)]:
            assert abs(s[j, i]) == pytest.approx(1.0, abs=0.01)
        for j, i in [(0, 1), (1, 2), (2, 3), (3, 0)]:
            assert abs(s[j, i]) <= 10 ** (-60 / 20)
        assert grid.drive_level == -10.0
        assert "f_mod" in grid.schedule_summary

    def test_passive_magnitudes_bounded(self):
        grid = sparams_sweep(lossy_config(), [152e6, 155e6, 158e6])
        assert np.max(np.abs(grid.s)) <= 1 + 1e-6

    def test_port_symmetry(self):
        grid = sparams_sweep(lossy_config(), [152e6, 155e6, 158e6])
        mag = np.abs(grid.s)
        for k in range(3):
            il = [-20 * math.log10(mag[k, j, i]) for j, i in [(1, 0), (2, 1), (3, 2), (0, 3)]]
            iso = [-20 * math.log10(mag[k, j, i]) for j, i in [(0, 1), (1, 2), (2, 3), (3, 0)]]
            assert max(il) - min(il) <= 0.2
            assert max(iso) - min(iso) <= 2.0

    def test_drive_level_invariance(self):
        cfg = lossy_config()
        low = sparams_sweep(cfg, [155e6])
        cfg.drive_dbm = 0.0
        high = sparams_sweep(cfg, [155e6])
        assert high.drive_level == 0.0
        np.testing.assert_allclose(high.s, low.s, rtol=1e-9, atol=1e-15)

    def test_zero_side_offset_restores_reciprocity(self):
        grid = sparams_sweep(lossy_config(side_offset=0.0), [155e6])
        s = grid.s[0]
        pairs = [((1, 0), (0, 1)), ((2, 1), (1, 2)), ((3, 2), (2, 3)), ((0, 3), (3, 0))]
        for (j, i), (j2, i2) in pairs:
            assert abs(s[j, i] - s[j2, i2]) <= 0.01

    def test_unsettled_run_warns(self):
        grid = sparams_sweep(lossy_config(), [155e6], settle=0, measure=4)
        assert any("not settled" in w for w in grid.warnings)

    def test_input_validation(self):
        cfg = ideal_config()
        with pytest.raises(ConfigError, match="empty"):
            sparams_sweep(cfg, [])
        with pytest.raises(ConfigError, match="increasing"):
            sparams_sweep(cfg, [155e6, 150e6])
        with pytest.raises(ConfigError, match="Nyquist"):
            sparams_sweep(cfg, [155e6, 2.5e9])
        with pytest.raises(ConfigError, match="measure"):
            sparams_sweep(cfg, [155e6], measure=0)
        with pytest.raises(ConfigError, match="settle"):
            sparams_sweep(cfg, [155e6], settle=-1)


class TestSpectrum:
    def test_single_tone_stays_on_commutation_lattice(self):
        # A real periodically-switched network maps cos(2 pi f0 t) onto the
        # lattice +/-f0 + k*f_mod; everything off it must be numerically zero.
        from sdlsim.engine import build_circulator

        cfg = lossy_config()
        net = build_circulator(cfg)
        period = net.schedule.period_samples
        n_window = 16 * period
        f0 = round(155e6 * n_window / FS) * FS / n_window  # on the FFT grid
        settle = 10 * period
        from sdlsim.signals import make_tone

        tone = make_tone(f0, dbm_to_amplitude(-10.0), 0.0, settle + n_window, FS).samples
        net.reset(lanes=1)
        ext = np.zeros((4, 1, settle + n_window))
        ext[0, 0] = tone
        # One advance call is bit-identical to stepping sample by sample
        # (tests/test_blocks.py).
        rec = net.advance(ext)[1, 0, settle:]
        spec = np.abs(np.fft.rfft(rec)) ** 2
        bins = np.arange(len(spec))
        main_bin = round(f0 * n_window / FS)
        harm = n_window // period  # f_mod in bin units
        lattice = ((bins - main_bin) % harm == 0) | ((bins + main_bin) % harm == 0)
        floor = spec[~lattice].max() / spec[main_bin]
        assert 10 * math.log10(floor) <= -100.0

    def test_ideal_sidebands_below_80dbc(self):
        rep = spectrum_probe(ideal_config(), 155e6, -10.0)
        assert rep.ports[1].worst_sideband_dbc() <= -80.0
        assert rep.il_db == pytest.approx(0.0, abs=0.01)

    def test_calibrated_deltas(self):
        rep = spectrum_probe(lossy_config(), 155e6, -10.0)
        assert rep.input_main_dbm == pytest.approx(-10.0, abs=0.01)
        assert rep.il_db == pytest.approx(6.5, abs=2.0)
        assert rep.iso3_db == pytest.approx(25.4, abs=2.0)
        assert rep.iso4_db == pytest.approx(28.3, abs=2.0)
        p2 = rep.ports[1]
        assert p2.main_dbm == pytest.approx(rep.input_main_dbm - rep.il_db)
        assert len(p2.lines) == 11
        orders = [ln.order for ln in p2.lines]
        assert orders == sorted(orders)

    def test_short_window_rejected(self):
        with pytest.raises(ConfigError, match="at least 16"):
            spectrum_probe(lossy_config(), 155e6, -10.0, window=8)

    def test_unsettled_run_warns(self):
        rep = spectrum_probe(lossy_config(), 155e6, -10.0, settle=0)
        assert any("not settled" in w for w in rep.warnings)
        assert spectrum_probe(lossy_config(), 155e6, -10.0).warnings == ()

    def test_lines_equal_whole_record_projection(self):
        # Reference: one advance call over the whole run, then every line
        # projected over the whole window at once.
        from sdlsim.engine import build_circulator
        from sdlsim.signals import make_tone

        cfg = lossy_config()
        f0, window, settle = 155e6, 16, 3
        rep = spectrum_probe(cfg, f0, -10.0, window=window, settle=settle)
        net = build_circulator(cfg)
        period = net.schedule.period_samples
        n_settle, n_window = settle * period, window * period
        net.reset(lanes=1)
        ext = np.zeros((4, 1, n_settle + n_window))
        ext[0, 0] = make_tone(f0, dbm_to_amplitude(-10.0), 0.0, n_settle + n_window, FS).samples
        record = net.advance(ext)[:, 0, n_settle:]
        line_f = np.array([ln.frequency for ln in rep.ports[0].lines])
        basis = np.exp(-2j * math.pi * np.outer(line_f, n_settle + np.arange(n_window)) / FS)
        amplitude = np.abs((2.0 / n_window) * (record @ basis.T))
        reported = np.array([[ln.power_dbm for ln in port.lines] for port in rep.ports])
        # dBm back to peak amplitude: P = a^2 / 2 watt.
        np.testing.assert_allclose(np.sqrt(2e-3 * 10 ** (reported / 10)), amplitude, rtol=1e-9)


class TestModFreq:
    def test_quantization_failures_reported_not_fatal(self):
        cfg = lossy_config()
        pts = modfreq_sweep(cfg, [FS / 4488, 0.95e6, -1.0], 155e6, settle=2, measure=2)
        assert len(pts) == 3
        ok, bad, neg = pts
        assert math.isfinite(ok.il_db) and math.isfinite(ok.iso_db)
        assert ok.f_mod_achieved == pytest.approx(FS / 4488)
        assert math.isnan(bad.il_db) and bad.note is not None
        assert neg.note is not None

    def test_unsettled_run_warns(self):
        (pt,) = modfreq_sweep(lossy_config(), [FS / 4488], 155e6, settle=0, measure=2)
        assert pt.note is None
        assert any("not settled" in w and "f_mod" in w for w in pt.warnings)

    def test_point_beside_other_periods_equals_point_alone(self):
        # Lanes are independent runs: neighbours with other periods (their
        # block cuts and lane-sample budget) must not change a point.
        cfg = lossy_config()
        alone = modfreq_sweep(cfg, [FS / 4488], 155e6, settle=2, measure=2)[0]
        beside = modfreq_sweep(cfg, [FS / 4800, FS / 4488, FS / 4200], 155e6, settle=2, measure=2)[1]
        assert beside.f_mod_achieved == alone.f_mod_achieved
        np.testing.assert_allclose([beside.il_db, beside.iso_db], [alone.il_db, alone.iso_db], rtol=1e-12)

    def test_matched_commutation_beats_detuned(self):
        cfg = lossy_config()
        pts = modfreq_sweep(cfg, [FS / 4800, FS / 4488, FS / 4200], 155e6, settle=4, measure=2)
        iso = [p.iso_db for p in pts]
        assert iso[1] > iso[0] and iso[1] > iso[2]


class TestLineSweep:
    def test_flat_line_loss_and_delay(self):
        line = DelayLineSpec(il_db=4.0, bandwidth=None, port_return_db=math.inf, echoes=())
        freqs = list(np.linspace(150e6, 160e6, 9))
        grid = line_sweep(line, FS, freqs)
        mag = np.abs(grid.s[:, 1, 0])
        np.testing.assert_allclose(mag, 10 ** (-4.0 / 20), rtol=1e-3)
        delays = [d for _, d in group_delay(grid, (2, 1))]
        assert all(abs(d - 280e-9) < 0.5e-9 for d in delays)

    def test_band_filtered_line_group_delay(self):
        freqs = list(np.linspace(151e6, 159e6, 9))
        grid = line_sweep(DelayLineSpec(), FS, freqs)
        delays = [d for _, d in group_delay(grid, (2, 1))]
        assert all(abs(d - 280e-9) < 5e-9 for d in delays)
        assert np.max(np.abs(grid.s)) <= 1 + 1e-6
