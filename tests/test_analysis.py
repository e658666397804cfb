import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from sdlsim import analysis
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
from sdlsim.cli import load_config
from sdlsim.elements import DelayLineSpec, SwitchSpec
from sdlsim.engine import MAX_PERIODS, CirculatorConfig, build_circulator
from sdlsim.errors import ConfigError
from sdlsim.schedule import build_schedule
from sdlsim.signals import dbm_to_amplitude

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
FS = 4e9
D = 1120


def ideal_config(**analysis):
    line = DelayLineSpec(il_db=0.0, bandwidth=None, port_return_db=math.inf, echoes=())
    return CirculatorConfig(
        sample_rate=FS,
        schedule=build_schedule(4 * (D + 2) / FS, 0.0, 0.5, FS),
        switch=SwitchSpec(il_on_db=0.0, iso_off_db=math.inf, t_transition=0.0, gamma_off=0.9),
        line_a=line,
        line_b=line,
        **analysis,
    )


def lossy_config(side_offset=None, **analysis):
    line = DelayLineSpec(echoes=((2, -22.3), (3, -40.0)))
    return CirculatorConfig(
        sample_rate=FS,
        schedule=build_schedule(1.14e-6, 2e-9, 0.5, FS, side_offset=side_offset),
        switch=SwitchSpec(il_on_db=0.8, iso_off_db=32.0, t_transition=2e-9, gamma_off=0.9),
        line_a=line,
        line_b=line,
        **analysis,
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
    return SParamGrid(tuple(frequencies), s)


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
        m = metrics(SParamGrid(tuple(freqs), s), 27.0)
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
        m = metrics(SParamGrid(tuple(freqs), s), 25.0)
        assert m.bandwidth == pytest.approx(freqs[10] - freqs[3])
        assert m.center_frequency == pytest.approx((freqs[3] + freqs[10]) / 2)

    def test_needs_four_ports(self):
        freqs = (150e6, 155e6)
        s = np.zeros((2, 2, 2), dtype=complex)
        with pytest.raises(ConfigError, match="four-port"):
            metrics(SParamGrid(freqs, s), 27.0)


class TestGroupDelay:
    def pure_delay_grid(self, spacing, tau=280e-9, n=15):
        freqs = 150e6 + spacing * np.arange(n)
        s = np.zeros((n, 4, 4), dtype=complex)
        s[:, 1, 0] = np.exp(-2j * math.pi * freqs * tau)
        return SParamGrid(tuple(freqs.tolist()), s)

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
        grid = sparams_sweep(ideal_config(settle_periods=6), [155e6])
        s = grid.s[0]
        for j, i in [(1, 0), (2, 1), (3, 2), (0, 3)]:
            assert abs(s[j, i]) == pytest.approx(1.0, abs=0.01)
        for j, i in [(0, 1), (1, 2), (2, 3), (3, 0)]:
            assert abs(s[j, i]) <= 10 ** (-60 / 20)

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
        loud = dataclasses.replace(cfg, drive_dbm=0.0)
        high = sparams_sweep(loud, [155e6])
        np.testing.assert_allclose(high.s, low.s, rtol=1e-9, atol=1e-15)
        # The drive level is read from the config: the probe sees 0 dBm in.
        assert spectrum_probe(loud, 155e6).input_main_dbm == pytest.approx(0.0, abs=0.01)

    def test_zero_side_offset_restores_reciprocity(self):
        grid = sparams_sweep(lossy_config(side_offset=0.0), [155e6])
        s = grid.s[0]
        pairs = [((1, 0), (0, 1)), ((2, 1), (1, 2)), ((3, 2), (2, 3)), ((0, 3), (3, 0))]
        for (j, i), (j2, i2) in pairs:
            assert abs(s[j, i] - s[j2, i2]) <= 0.01

    def test_unsettled_run_warns(self):
        grid = sparams_sweep(lossy_config(settle_periods=0), [155e6])
        assert any("not settled" in w for w in grid.warnings)

    def test_input_validation(self):
        cfg = ideal_config()
        with pytest.raises(ConfigError, match="empty"):
            sparams_sweep(cfg, [])
        with pytest.raises(ConfigError, match="increasing"):
            sparams_sweep(cfg, [155e6, 150e6])
        with pytest.raises(ConfigError, match="Nyquist"):
            sparams_sweep(cfg, [155e6, 2.5e9])

    @pytest.mark.parametrize(
        "window,value",
        [
            ("settle_periods", -1),
            ("settle_periods", 2.5),
            ("settle_periods", MAX_PERIODS + 1),
            ("measure_periods", 0),
            ("spectrum_window_periods", MAX_PERIODS + 1),
        ],
    )
    def test_out_of_range_window_rejected(self, window, value):
        # A config made in code is bounded as load_config bounds a file's.
        with pytest.raises(ConfigError, match=f"analysis.{window} must be from"):
            ideal_config(**{window: value})
        with pytest.raises(ConfigError, match=f"analysis.{window} must be from"):
            dataclasses.replace(ideal_config(), **{window: value})


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
        rep = spectrum_probe(ideal_config(), 155e6)
        assert rep.ports[1].worst_sideband_dbc() <= -80.0
        assert rep.il_db == pytest.approx(0.0, abs=0.01)

    def test_silent_ports_have_no_sidebands(self):
        # configs/ideal.yaml leaks and reflects exactly nothing into ports 1,
        # 3 and 4, so every line there is -inf dBm: no sideband power, not nan.
        ideal = dataclasses.replace(load_config(CONFIG_DIR / "ideal.yaml"), settle_periods=1)
        rep = spectrum_probe(ideal, 155e6)
        for port in (0, 2, 3):
            assert rep.ports[port].main_dbm == -math.inf
            assert rep.ports[port].worst_sideband_dbc() == -math.inf
        assert rep.ports[1].worst_sideband_dbc() <= -80.0

    def test_calibrated_deltas(self):
        rep = spectrum_probe(lossy_config(), 155e6)
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
        # Under 16 periods adjacent sidebands are not orthogonal.
        with pytest.raises(ConfigError, match="spectrum_window_periods must be from 16"):
            lossy_config(spectrum_window_periods=8)

    def test_unsettled_run_warns(self):
        rep = spectrum_probe(lossy_config(settle_periods=0), 155e6)
        assert any("not settled" in w for w in rep.warnings)
        assert spectrum_probe(lossy_config(), 155e6).warnings == ()

    def test_lines_equal_whole_record_projection(self):
        # Reference: one advance call over the whole run, then every line
        # projected over the whole window at once.
        from sdlsim.engine import build_circulator
        from sdlsim.signals import make_tone

        cfg = lossy_config(settle_periods=3)
        f0, window, settle = 155e6, cfg.spectrum_window_periods, cfg.settle_periods
        rep = spectrum_probe(cfg, f0)
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
        cfg = lossy_config(settle_periods=2, measure_periods=2)
        pts = modfreq_sweep(cfg, [FS / 4488, 0.95e6, -1.0], 155e6)
        assert len(pts) == 3
        ok, bad, neg = pts
        assert math.isfinite(ok.il_db) and math.isfinite(ok.iso_db)
        assert ok.f_mod_achieved == pytest.approx(FS / 4488)
        assert math.isnan(bad.il_db) and bad.note is not None
        assert neg.note is not None

    def test_unsettled_run_warns(self):
        (pt,) = modfreq_sweep(lossy_config(settle_periods=0, measure_periods=2), [FS / 4488], 155e6)
        assert pt.note is None
        assert any("not settled" in w and "f_mod" in w for w in pt.warnings)

    def test_point_beside_other_periods_equals_point_alone(self):
        # Lanes are independent runs: neighbours with other periods (their
        # block cuts and lane-sample budget) must not change a point.
        cfg = lossy_config(settle_periods=2, measure_periods=2)
        alone = modfreq_sweep(cfg, [FS / 4488], 155e6)[0]
        beside = modfreq_sweep(cfg, [FS / 4800, FS / 4488, FS / 4200], 155e6)[1]
        assert beside.f_mod_achieved == alone.f_mod_achieved
        np.testing.assert_allclose([beside.il_db, beside.iso_db], [alone.il_db, alone.iso_db], rtol=1e-12)

    def test_matched_commutation_beats_detuned(self):
        cfg = lossy_config(settle_periods=4, measure_periods=2)
        pts = modfreq_sweep(cfg, [FS / 4800, FS / 4488, FS / 4200], 155e6)
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


def counted_steps(monkeypatch):
    """Route every step _measure makes through a counter of the samples it
    advances; returns the list the counts are appended to."""
    counts = []
    measure = analysis._measure

    def counting_measure(step, *args):
        def counting(ext):
            counts.append(ext.shape[2])
            return step(ext)

        return measure(counting, *args)

    monkeypatch.setattr(analysis, "_measure", counting_measure)
    return counts


def reference_s(cfg, f0s, schedules):
    """S-matrices at each (frequency, schedule) point, stepping every lane's
    whole settle and measure window in one advance call and projecting its
    window at once."""
    net = build_circulator(cfg)
    lanes = [(f, sched) for f, sched in zip(f0s, schedules) for _ in range(4)]
    net.set_lane_schedules([sched for _, sched in lanes])
    net.reset(lanes=len(lanes))
    period = np.array([sched.period_samples for _, sched in lanes])
    stop = (cfg.settle_periods + cfg.measure_periods) * period
    n = np.arange(stop.max())
    omega = 2.0 * math.pi * np.array([f for f, _ in lanes]) / FS
    drive = dbm_to_amplitude(cfg.drive_dbm) * np.cos(np.outer(omega, n))
    ext = np.zeros((4, len(lanes), len(n)))
    ext[np.tile(np.arange(4), len(f0s)), np.arange(len(lanes))] = drive
    out = net.advance(ext)
    window = (n >= cfg.settle_periods * period[:, None]) & (n < stop[:, None])
    weight = np.exp(-1j * omega[:, None] * n) * window
    s = np.einsum("pln,ln->pl", out, weight) / np.einsum("ln,ln->l", drive, weight)
    return s.reshape(4, len(f0s), 4).transpose(1, 0, 2)


def test_drive_bit_identical_per_lane():
    # The cosine is evaluated once per distinct frequency and indexed out.
    omega = 2.0 * math.pi * np.array([155e6, 150e6, 155e6, 160e6, 150e6]) / FS
    n = np.arange(4096, 4160, dtype=np.float64)
    expected = 0.3 * np.cos(np.outer(omega, n))
    blocks = []

    def step(ext):
        blocks.append(ext[0].copy())
        return ext

    # One period of 4160 samples projected from 4096: a block starts there.
    analysis._measure(step, [0] * 5, omega, 0.3, omega[:, None], 4096, 4160, 4160)
    drive = np.concatenate(blocks, axis=1)[:, 4096:]
    np.testing.assert_array_equal(drive, expected)


class TestSteadyStop:
    """_measure stops stepping once every lane is steady and takes the rest
    of each lane's periods from the cosine drive's recurrences."""

    paper = load_config(CONFIG_DIR / "paper.yaml")

    def test_paper_sweep_matches_whole_window(self):
        freqs = [150e6, 151.3e6, 155e6, 158.7e6, 160e6]
        grid = sparams_sweep(self.paper, freqs)
        ref = reference_s(self.paper, freqs, [self.paper.schedule] * len(freqs))
        assert np.abs(grid.s - ref).max() <= 1e-12

    def test_paper_modsweep_matches_whole_window(self):
        scheds = [build_schedule(p / FS, 2e-9, 0.5, FS) for p in (4488, 4560, 4600)]
        points = modfreq_sweep(self.paper, [s.f_mod for s in scheds], 155e6)
        ref = np.abs(reference_s(self.paper, [155e6] * 3, scheds))
        fwd = [ref[:, j, i] for j, i in analysis.FORWARD_PATHS.values()]
        rev = [ref[:, j, i] for j, i in analysis.REVERSE_PATHS.values()]
        got_il = [10 ** (-pt.il_db / 20) for pt in points]
        got_iso = [10 ** (-pt.iso_db / 20) for pt in points]
        assert np.abs(np.array(got_il) - np.min(fwd, axis=0)).max() <= 1e-12
        assert np.abs(np.array(got_iso) - np.max(rev, axis=0)).max() <= 1e-12

    def test_paper_sweep_and_spectrum_step_at_most_five_periods(self, monkeypatch):
        counts = counted_steps(monkeypatch)
        grid = sparams_sweep(self.paper, np.linspace(*self.paper.band))
        assert sum(counts) <= 5 * self.paper.schedule.period_samples
        assert grid.warnings == ()
        counts.clear()
        report = spectrum_probe(self.paper, 155e6)
        assert sum(counts) <= 5 * self.paper.schedule.period_samples
        assert report.warnings == ()

    def test_short_windows_step_whole(self, monkeypatch):
        # 2 + 1 periods leave no period to save: every lane steps its window.
        counts = counted_steps(monkeypatch)
        cfg = dataclasses.replace(self.paper, settle_periods=2, measure_periods=1)
        modfreq_sweep(cfg, [FS / 4480, FS / 4496, FS / 4560], 155e6)
        assert sum(counts) == 3 * 4560

    def test_unsteady_lane_steps_whole_window(self):
        # Lane 0 returns its drive (steady from the first sample); lane 1
        # returns it with a gain still growing at the window's end.
        counts = []
        period, settle, measure, a0 = 64, 2, 4, 0.5
        stop = (settle + measure) * period

        def step(ext):
            gain = np.ones(ext.shape[1:])
            gain[1:] += (sum(counts) + np.arange(ext.shape[2])) / stop
            counts.append(ext.shape[2])
            return ext * gain

        omega = np.array([0.3, 0.3])
        acc_out, acc_in, energy = analysis._measure(
            step, [0, 0], omega, a0, omega[:, None],
            settle * period, stop, period,
        )
        assert sum(counts) == stop
        assert abs(acc_out[0, 0, 0] / acc_in[0, 0] - 1.0) <= 1e-12
        notes = analysis._drift_notes(energy, ["steady lane", "growing lane"])
        assert len(notes) == 1 and "not settled" in notes[0] and "growing lane" in notes[0]

        # The steady lane alone stops after the periods its check needs.
        counts.clear()
        analysis._measure(
            step, [0], omega[:1], a0, omega[:1, None],
            settle * period, stop, period,
        )
        assert sum(counts) == analysis._CHECK_PERIODS * period

    def test_lane_returning_its_drive_has_no_drift_note(self):
        # Per-period energy of a cosine swings with the period's phase, but
        # the lane is on its recurrence from the start: nothing drifts.
        period, settle, measure = 16, 2, 4
        omega = np.array([0.3])
        acc_out, acc_in, energy = analysis._measure(
            lambda ext: ext, [0], omega, 0.5, omega[:, None],
            settle * period, (settle + measure) * period, period,
        )
        assert abs(acc_out[0, 0, 0] / acc_in[0, 0] - 1.0) <= 1e-12
        assert analysis._drift_notes(energy, ["echo lane"]) == []

    def test_blocks_end_at_every_lane_stop(self):
        # Two lanes of different periods, neither ever steady (a growing
        # gain): no lane's window may end inside a block, whatever the
        # other lane still has to step.
        edges = [0]

        def step(ext):
            n = edges[-1] + np.arange(ext.shape[2])
            edges.append(edges[-1] + ext.shape[2])
            return ext * (1.0 + n / 100.0)

        period = np.array([48, 56])
        stop = np.array([5, 3]) * period
        omega = np.array([0.3, 0.7])
        analysis._measure(step, [0, 1], omega, 0.5, omega[:, None], 2 * period, stop, period)
        assert edges[-1] == stop.max()
        assert set(stop.tolist()) <= set(edges)
