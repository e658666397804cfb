"""Behavioral gate for the whole package: ten end-to-end checks.

Each test prints one PASS/FAIL verdict line with the measured numbers so a
full run doubles as a conformance report. Checks 2, 3, and 10 share one
51-point sweep of the measured-hardware operating point.
"""

from __future__ import annotations

import dataclasses
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

import conftest
from event_walk import BurstInjection, OracleDeclined, event_walk_oracle

from sdlsim.analysis import (
    AnalysisWarning,
    group_delay,
    line_sweep,
    metrics,
    modfreq_sweep,
    sparams_sweep,
    spectrum_probe,
)
from sdlsim.cli import load_config
from sdlsim.elements import DelayLineSpec, SwitchSpec, TouchstoneLineRef
from sdlsim.engine import CirculatorConfig, build_circulator, run
from sdlsim.schedule import build_schedule
from sdlsim.signals import SampleBuffer, make_burst
from sdlsim.touchstone import TouchstoneData, parse_touchstone, write_touchstone

FS = 4.0e9
FC = 155.0e6
D = 1120  # 280 ns at 4 GS/s
K_LINK = 2
IDEAL_PERIOD = 4 * (D + K_LINK) / FS
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

FORWARD = {"21": (1, 0), "32": (2, 1), "43": (3, 2), "14": (0, 3)}
REVERSE = {"12": (0, 1), "23": (1, 2), "34": (2, 3), "41": (3, 0)}


def verdict(ok: bool, label: str, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} [{label}] {detail}"
    print(line)
    conftest.record_verdict(line)
    assert ok, line


def make_config(line, switch, period, matching=None, side_offset=None):
    return CirculatorConfig(
        sample_rate=FS,
        line_a=line,
        line_b=line,
        switch=switch,
        schedule=build_schedule(period, switch.t_transition, 0.5, FS, side_offset),
        matching=matching,
    )


def ideal_config():
    line = DelayLineSpec(il_db=0.0, bandwidth=None, echoes=(), port_return_db=math.inf)
    switch = SwitchSpec(il_on_db=0.0, iso_off_db=math.inf, t_transition=0.0, gamma_off=0.0)
    return make_config(line, switch, IDEAL_PERIOD)


def path_levels_db(grid, paths, worst="loss"):
    """Per-path extreme over the whole grid, in positive dB below unity.

    worst="loss" takes each path's weakest point (largest loss), the right
    reading for insertion loss; worst="leak" takes the strongest point
    (smallest loss), the right reading for an isolation floor.
    """
    out = {}
    for key, (j, i) in paths.items():
        mags = np.abs(grid.s[:, j, i])
        mag = np.min(mags) if worst == "loss" else np.max(mags)
        out[key] = -20.0 * math.log10(mag) if mag > 0 else math.inf
    return out


@pytest.fixture(scope="session")
def paper_config():
    return load_config(CONFIG_DIR / "paper.yaml")


@pytest.fixture(scope="session")
def paper_sweep(paper_config):
    start, stop, points = paper_config.band
    t0 = time.perf_counter()
    grid = sparams_sweep(paper_config, np.linspace(start, stop, points))
    return grid, time.perf_counter() - t0


def test_01_ideal_circulation():
    t0 = time.perf_counter()
    grid = sparams_sweep(ideal_config(), [FC])
    elapsed = time.perf_counter() - t0
    fwd = {key: abs(grid.s[0, j, i]) for key, (j, i) in FORWARD.items()}
    rev = {key: abs(grid.s[0, j, i]) for key, (j, i) in REVERSE.items()}
    fwd_ok = all(m >= 10 ** (-0.1 / 20.0) for m in fwd.values())
    rev_ok = all(m <= 1e-3 for m in rev.values())
    worst_fwd_db = 20.0 * math.log10(min(fwd.values()))
    worst_rev = max(rev.values())
    worst_rev_db = 20.0 * math.log10(worst_rev) if worst_rev > 0 else -math.inf
    verdict(
        fwd_ok and rev_ok and elapsed < 30.0,
        "01 ideal circulation",
        f"forward {worst_fwd_db:.5f} dB (>= -0.1), reverse {worst_rev_db:.1f} dB"
        f" (<= -60), {elapsed:.1f} s",
    )


def test_02_measured_operating_point(paper_sweep):
    grid, elapsed = paper_sweep
    il = path_levels_db(grid, FORWARD, worst="loss")
    iso = path_levels_db(grid, REVERSE, worst="leak")
    il_worst = max(il.values())
    iso_worst = min(iso.values())
    verdict(
        abs(il_worst - 5.6) <= 1.0 and iso_worst >= 25.0 and elapsed < 60.0,
        "02 measured operating point",
        f"insertion loss {il_worst:.2f} dB (5.6 +/- 1.0), isolation {iso_worst:.2f} dB"
        f" (>= 25) over 150-160 MHz, 51 points in {elapsed:.1f} s",
    )


def test_03_isolation_bandwidth(paper_sweep, paper_config):
    grid, _ = paper_sweep
    m = metrics(grid, paper_config.iso_threshold_db)
    bw_ok = 0.7 * 13.6e6 <= m.bandwidth <= 1.3 * 13.6e6 and m.bandwidth >= 9.0e6
    contrast = max(m.directivity_db.values())
    verdict(
        bw_ok and contrast >= 21.0,
        "03 isolation bandwidth",
        f"{m.bandwidth / 1e6:.2f} MHz contiguous above {m.iso_threshold_db:g} dB"
        f" (9.52-17.68 MHz), best forward/reverse contrast {contrast:.2f} dB (>= 21)",
    )


def test_04_output_spectra(paper_config):
    rep = spectrum_probe(paper_config, FC)
    deltas_ok = (
        abs(rep.il_db - 6.5) <= 2.0
        and abs(rep.iso3_db - 25.4) <= 2.0
        and abs(rep.iso4_db - 28.3) <= 2.0
    )
    ideal = spectrum_probe(ideal_config(), FC)
    worst_sideband = max(
        line.power_dbm - ideal.input_main_dbm
        for port in ideal.ports
        for line in port.lines
        if line.order != 0
    )
    verdict(
        deltas_ok and worst_sideband <= -80.0,
        "04 output spectra",
        f"main-tone deltas {rep.il_db:.2f}/{rep.iso3_db:.2f}/{rep.iso4_db:.2f} dB"
        f" (6.5/25.4/28.3 +/- 2), ideal sidebands {worst_sideband:.1f} dBc (<= -80)",
    )


def test_05_synchronous_switching_reciprocity(paper_config):
    cfg = dataclasses.replace(
        paper_config,
        schedule=build_schedule(
            1.14e-6, paper_config.switch.t_transition, 0.5, FS, side_offset=0.0
        ),
    )
    grid = sparams_sweep(cfg, np.linspace(151e6, 159e6, 5))
    gap = float(np.max(np.abs(grid.s[:, 1, 0] - grid.s[:, 0, 1])))
    verdict(
        gap <= 0.01,
        "05 synchronous-switching reciprocity",
        f"side offset 0 gives max |S21 - S12| = {gap:.2e} (<= 0.01)",
    )


def test_06_randomized_burst_oracle():
    rng = random.Random(0x5D15)
    cases, attempts = 0, 0
    worst = 0.0
    while cases < 20 and attempts < 400:
        attempts += 1
        echoes = ()
        if rng.random() < 0.7:
            echoes = ((2, rng.uniform(-26.0, -16.0)), (3, rng.uniform(-45.0, -35.0)))
        line = DelayLineSpec(
            il_db=rng.uniform(0.0, 5.0),
            bandwidth=None,
            echoes=echoes,
            port_return_db=rng.uniform(10.0, 25.0),
        )
        switch = SwitchSpec(
            il_on_db=rng.uniform(0.0, 1.5),
            iso_off_db=math.inf,
            t_transition=0.0,
            gamma_off=rng.uniform(0.0, 0.9),
        )
        n_period = 4 * rng.randrange(1000, 1200)
        cfg = make_config(line, switch, n_period / FS)
        port = rng.randrange(1, 5)
        hold = rng.randrange(480, 801)
        dur = hold + 80  # 10 ns raised-cosine ramps on both sides
        n0 = rng.randrange(64, 2 * n_period)
        inj = BurstInjection(port, n0 / FS, dur / FS)
        try:
            arrivals = event_walk_oracle(cfg, inj)
        except OracleDeclined:
            continue
        net = build_circulator(cfg)
        stim = make_burst(FC, 1.0, n0 / FS, 10e-9, hold / FS, FS)
        stimuli = [None] * 4
        stimuli[port - 1] = stim
        rec = run(net, stimuli, n0 + 3 * D + dur + net.k_link + 200)
        for arr in arrivals:
            n_arr = round(arr.time * FS) + net.k_link
            ref = make_burst(FC, 1.0, n_arr / FS, 10e-9, hold / FS, FS)
            w0, wl = n_arr + 48, hold - 16
            measured = conftest.phasor(rec.port_out[arr.port - 1].samples, FC, FS, w0, wl)
            expected = conftest.phasor(ref.samples, FC, FS, w0, wl)
            err = abs(measured - arr.amplitude * expected) / abs(arr.amplitude)
            worst = max(worst, err)
            assert err <= 1e-6, (
                f"case {cases}: {arr.path} to port {arr.port} off by {err:.2e}"
            )
        cases += 1
    verdict(
        cases >= 20 and worst <= 1e-6,
        "06 randomized burst oracle",
        f"{cases} accepted cases ({attempts} draws), worst amplitude error"
        f" {worst:.2e} (<= 1e-6), ports and times as predicted",
    )


def test_07_switching_frequency_optimum(paper_config):
    n_rule = 4 * (D + K_LINK)  # quarter-wave rule on the sample grid
    periods = sorted({n_rule + 8 * k for k in range(-6, 7)} | {4560})
    values = sorted(FS / n for n in periods)
    points = modfreq_sweep(paper_config, values, FC)
    ok_points = [p for p in points if p.note is None]
    best = max(ok_points, key=lambda p: p.iso_db)
    best_n = round(FS / best.f_mod_achieved)
    f_rule = 1.0 / (4.0 * (280e-9 + K_LINK / FS))
    at_rated = next(p for p in ok_points if round(FS / p.f_mod_achieved) == 4560)
    gap = best.iso_db - at_rated.iso_db
    verdict(
        abs(best_n - n_rule) <= 8 and gap <= 3.0,
        "07 switching frequency optimum",
        f"best isolation at {best.f_mod_achieved / 1e3:.3f} kHz, rule"
        f" 1/(4(tau+t_link)) = {f_rule / 1e3:.3f} kHz (within one 8-sample step),"
        f" 877.193 kHz sits {gap:.2f} dB below optimum (<= 3)",
    )


def test_08_passivity_and_drive_invariance(paper_config):
    worst_gain = 0.0
    for seed in range(4):
        rng = np.random.default_rng(9000 + seed)
        line = DelayLineSpec(
            il_db=rng.uniform(3.0, 6.0),
            echoes=((2, rng.uniform(-26.0, -16.0)), (3, rng.uniform(-45.0, -35.0))),
            port_return_db=rng.uniform(10.0, 20.0),
        )
        switch = SwitchSpec(
            il_on_db=rng.uniform(0.5, 1.5),
            iso_off_db=rng.uniform(25.0, 35.0),
            t_transition=2e-9,
            gamma_off=rng.uniform(0.3, 0.9),
        )
        cfg = make_config(line, switch, 1.14e-6)
        net = build_circulator(cfg)
        n = 16000
        stimuli = [
            SampleBuffer(FS, 0.1 * rng.standard_normal(n - 4000)) for _ in range(4)
        ]
        rec = run(net, stimuli, n)
        e_in = sum(float(np.sum(b.samples**2)) for b in rec.port_in)
        e_out = sum(float(np.sum(b.samples**2)) for b in rec.port_out)
        worst_gain = max(worst_gain, e_out / e_in)
    freqs = np.linspace(151e6, 159e6, 3)
    short = dataclasses.replace(paper_config, settle_periods=6, measure_periods=2)
    low = sparams_sweep(short, freqs)
    loud = sparams_sweep(dataclasses.replace(short, drive_dbm=3.0), freqs)
    drift = float(np.max(np.abs(low.s - loud.s) / np.maximum(np.abs(low.s), 1e-30)))
    verdict(
        worst_gain <= 1.0 + 1e-9 and drift <= 1e-9,
        "08 passivity and drive invariance",
        f"worst energy out/in {worst_gain:.3f} over 4 randomized lossy builds"
        f" (<= 1 + 1e-9), S-parameter change from -10 to +3 dBm drive {drift:.2e}"
        f" (<= 1e-9)",
    )


def test_09_measured_data_round_trip():
    rng = np.random.default_rng(1414)
    freqs = np.sort(rng.uniform(1e8, 2e8, 20))
    s = rng.uniform(-0.7, 0.7, (20, 2, 2)) + 1j * rng.uniform(-0.7, 0.7, (20, 2, 2))
    worst = 0.0
    for fmt, unit in (("RI", "HZ"), ("MA", "GHZ"), ("DB", "MHZ")):
        text = write_touchstone(TouchstoneData(freqs, s), unit=unit, fmt=fmt)
        back = parse_touchstone(text)
        worst = max(worst, float(np.max(np.abs(back.s - s))))
        worst = max(worst, float(np.max(np.abs(back.frequencies - freqs) / freqs)))
    grid_f = np.arange(120e6, 190.1e6, 0.5e6)
    s_line = np.zeros((len(grid_f), 2, 2), dtype=complex)
    s_line[:, 1, 0] = s_line[:, 0, 1] = 0.9 * np.exp(-2j * np.pi * grid_f * 280e-9)
    ref = TouchstoneLineRef(TouchstoneData(grid_f, s_line), ir_len=8192)
    sweep = line_sweep(ref, FS, np.arange(153e6, 157.25e6, 0.5e6))
    delays = [d for _, d in group_delay(sweep, path=(2, 1))]
    mid = delays[len(delays) // 2]
    gd_err = abs(mid - 280e-9)
    verdict(
        worst <= 1e-9 and gd_err <= 0.25e-9,
        "09 measured-data round trip",
        f"RI/MA/DB write-parse error {worst:.2e} (<= 1e-9), synthetic 280 ns file"
        f" gives group delay {mid * 1e9:.3f} ns (+/- 1 sample)",
    )


def test_10_group_delay_and_aliasing(paper_config):
    fine = line_sweep(paper_config.line_a, FS, np.linspace(151e6, 159e6, 33))
    delays = dict(group_delay(fine, path=(2, 1)))
    mid_band = [d for f, d in delays.items() if 153e6 <= f <= 157e6]
    gd_ok = all(abs(d - 280e-9) <= 5e-9 for d in mid_band)
    coarse = line_sweep(paper_config.line_a, FS, np.linspace(151e6, 159e6, 5))
    with pytest.warns(AnalysisWarning, match="aliased"):
        group_delay(coarse, path=(2, 1))
    spread = (
        min(mid_band) * 1e9,
        max(mid_band) * 1e9,
    )
    verdict(
        gd_ok,
        "10 group delay and aliasing",
        f"mid-band delay {spread[0]:.2f}-{spread[1]:.2f} ns (280 +/- 5), 2 MHz grid"
        f" flagged as aliased (needs < 1.79 MHz)",
    )
