import dataclasses
import math

import numpy as np
import pytest
from conftest import phasor
from event_walk import BurstInjection, OracleDeclined, event_walk_oracle

from sdlsim import engine
from sdlsim.elements import (
    DelayLineElement,
    DelayLineSpec,
    MatchingElement,
    MatchSpec,
    SwitchSpec,
    TouchstoneLineRef,
)
from sdlsim.engine import (
    CirculatorConfig,
    CirculatorNetwork,
    K_LINK_BARE,
    K_LINK_MATCHED,
    build_circulator,
    run,
)
from sdlsim.errors import ConfigError, SimulationFault
from sdlsim.schedule import build_schedule
from sdlsim.signals import SampleBuffer, make_burst
from sdlsim.touchstone import TouchstoneData

FS = 4e9
FC = 155e6
D = 1120
IDEAL_PERIOD = 4 * (D + K_LINK_BARE) / FS  # one quarter matches the loop transit

FLAT_IDEAL = DelayLineSpec(il_db=0.0, bandwidth=None, port_return_db=math.inf, echoes=())


def make_config(
    line=FLAT_IDEAL,
    switch=None,
    period=IDEAL_PERIOD,
    t_transition=0.0,
    matching=None,
    side_offset=None,
):
    if switch is None:
        switch = SwitchSpec(il_on_db=0.0, iso_off_db=math.inf, t_transition=t_transition, gamma_off=0.9)
    return CirculatorConfig(
        sample_rate=FS,
        schedule=build_schedule(period, t_transition, 0.5, FS, side_offset=side_offset),
        switch=switch,
        line_a=line,
        line_b=line,
        matching=matching,
    )


def burst_at(start_sample, t_rise=10e-9, t_hold=200e-9, amplitude=1.0):
    return make_burst(FC, amplitude, start_sample / FS, t_rise, t_hold, FS)


# Safe injection samples: burst support 880 samples sits inside one state
# interval on both sides for the ideal 4488-sample period (delta 1122).
LEFT_T0 = 200
RIGHT_T0 = 1122 + 200


class TestStructure:
    def test_bare_topology(self):
        net = build_circulator(make_config())
        assert set(net.elements) == {"left_crossbar", "right_crossbar", "line_a", "line_b"}
        assert net.k_link == K_LINK_BARE == 2

    def test_matched_topology(self):
        net = build_circulator(make_config(matching=MatchSpec(0.0, 0.0)))
        assert sum(1 for k in net.elements if k.startswith("match_")) == 4
        assert net.k_link == K_LINK_MATCHED == 4

    def test_repeated_match_spec_designed_once(self, monkeypatch):
        # Four positions, two distinct specs: two designs, each shared by
        # the positions that repeat it, every match with its own state.
        designed = []
        monkeypatch.setattr(
            engine, "MatchingElement", lambda *args: designed.append(args) or MatchingElement(*args)
        )
        one, other = MatchSpec(33e-9, 18e-12), MatchSpec(20e-9, 10e-12)
        net = build_circulator(make_config(matching=(one, other, one, one)))
        assert [spec for spec, _ in designed] == [one, other]
        m = net.matches
        assert m[0]._biquads is m[2]._biquads is m[3]._biquads
        assert m[1]._biquads is not m[0]._biquads
        assert len({id(x._z) for x in m}) == 4
        x = np.random.default_rng(2).standard_normal((2, 1, 50))
        expected = MatchingElement(one, FS).step(x)
        assert np.array_equal(m[0].step(x), expected)
        # Stepping one position leaves the others at zero state.
        assert not np.any(m[2]._z) and not np.any(m[3]._z)
        assert np.array_equal(m[2].step(x), expected)

    def test_touchstone_line_accepted(self):
        freqs = np.linspace(100e6, 210e6, 23)
        s = np.zeros((23, 2, 2), dtype=complex)
        s[:, 1, 0] = s[:, 0, 1] = np.exp(-2j * math.pi * freqs * 280e-9)
        ref = TouchstoneLineRef(TouchstoneData(freqs, s), ir_len=2048)
        net = build_circulator(dataclasses.replace(make_config(), line_a=ref))
        assert net.elements["line_a"].ir_len == 2048

    def test_schedule_rate_mismatch_rejected(self):
        cfg = dataclasses.replace(make_config(), schedule=build_schedule(IDEAL_PERIOD, 0.0, 0.5, 2e9))
        with pytest.raises(ConfigError, match="sample rate"):
            build_circulator(cfg)

    @pytest.mark.filterwarnings("error")
    def test_ill_conditioned_band_filter_is_config_error(self):
        # An 8th-order 1 MHz band at 4 GS/s has no reliable group delay at
        # f_center, and the tap compensation rests on it.
        line = DelayLineSpec(tau=2e-6, bandwidth=1e6, band_order=8)
        with pytest.raises(ConfigError, match="line_a: band filter group delay"):
            build_circulator(make_config(line=line))

    @pytest.mark.filterwarnings("error")
    def test_vanishing_match_response_is_config_error(self):
        # 1 H and 1 F: the bilinear through response is about 1e-20.
        with pytest.raises(ConfigError, match=r"matching\[0\]: L-section response vanishes"):
            build_circulator(make_config(matching=MatchSpec(1.0, 1.0)))


class TestInputChecks:
    """Each malformed network, schedule or stimulus is refused with the
    error that names it."""

    def parts(self, line_rate=FS):
        cfg = make_config()
        line = DelayLineElement(FLAT_IDEAL, line_rate)
        return cfg.switch, line, DelayLineElement(FLAT_IDEAL, FS), cfg.schedule

    def test_three_matches_rejected(self):
        matches = [MatchingElement(MatchSpec(0.0, 0.0), FS) for _ in range(3)]
        with pytest.raises(ConfigError, match="exactly 4 elements"):
            CirculatorNetwork(*self.parts(), FS, matches=matches)

    def test_line_at_another_rate_rejected(self):
        with pytest.raises(ConfigError, match="element sample rate 2e\\+09 != network rate 4e\\+09"):
            CirculatorNetwork(*self.parts(line_rate=2e9), FS)

    def test_lane_schedule_at_another_rate_rejected(self):
        net = build_circulator(make_config())
        with pytest.raises(ConfigError, match="lane schedule sample rate"):
            net.set_lane_schedules([net.schedule, build_schedule(IDEAL_PERIOD, 0.0, 0.5, 2e9)])

    def test_advance_wrong_shape_rejected(self):
        net = build_circulator(make_config())
        net.reset(lanes=2)
        with pytest.raises(ValueError, match="expected stimuli of shape"):
            net.advance(np.zeros((4, 3, 8)))

    def test_run_three_stimuli_rejected(self):
        with pytest.raises(ValueError, match="one stimulus slot per external port"):
            run(build_circulator(make_config()), [None, None, None], 100)

    def test_run_stimulus_at_another_rate_rejected(self):
        stim = SampleBuffer(2e9, np.zeros(10))
        with pytest.raises(ConfigError, match="stimulus sample rate"):
            run(build_circulator(make_config()), [stim, None, None, None], 100)

    def test_unsupported_line_rejected(self):
        with pytest.raises(ConfigError, match="line_a: unsupported line description str"):
            build_circulator(dataclasses.replace(make_config(), line_a="line.s2p"))

    def test_three_match_specs_rejected(self):
        spec = MatchSpec(33e-9, 18e-12)
        with pytest.raises(ConfigError, match="one spec or exactly four"):
            build_circulator(make_config(matching=(spec, spec, spec)))


class TestRun:
    def test_zero_stimuli_zero_records(self):
        net = build_circulator(make_config())
        rec = run(net, [None, None, None, None], 3000)
        for buf in rec.port_out:
            assert np.all(buf.samples == 0.0)
        assert rec.n_samples == 3000

    def test_ideal_burst_port1_to_port2_exact(self):
        net = build_circulator(make_config())
        stim = burst_at(LEFT_T0)
        n = len(stim) + D + 100
        rec = run(net, [stim, None, None, None], n)
        expected = np.zeros(n)
        expected[D + 2 : D + 2 + len(stim)] = stim.samples
        np.testing.assert_allclose(rec.port_out[1].samples, expected, atol=1e-12)
        for p in (0, 2, 3):
            assert np.max(np.abs(rec.port_out[p].samples)) == 0.0

    def test_matched_identity_adds_two_link_samples(self):
        net = build_circulator(make_config(matching=MatchSpec(0.0, 0.0)))
        stim = burst_at(LEFT_T0)
        n = len(stim) + D + 100
        rec = run(net, [stim, None, None, None], n)
        expected = np.zeros(n)
        expected[D + 4 : D + 4 + len(stim)] = stim.samples
        np.testing.assert_allclose(rec.port_out[1].samples, expected, atol=1e-12)

    @pytest.mark.parametrize(
        "inject,expect,t0",
        [(1, 2, LEFT_T0), (2, 3, RIGHT_T0), (3, 4, LEFT_T0), (4, 1, RIGHT_T0)],
    )
    def test_circulation_cycle(self, inject, expect, t0):
        net = build_circulator(make_config())
        stim = burst_at(t0)
        n = len(stim) + D + 100
        stimuli = [None] * 4
        stimuli[inject - 1] = stim
        rec = run(net, stimuli, n)
        arr = t0 + D + 2
        ph = phasor(rec.port_out[expect - 1].samples, FC, FS, start=arr + 48, length=560)
        assert abs(ph) >= 0.99
        for p in range(4):
            if p != expect - 1:
                assert np.max(np.abs(rec.port_out[p].samples)) < 1e-6

    def test_determinism(self):
        cfg = make_config(
            line=DelayLineSpec(echoes=((3, -20.0),)),
            switch=SwitchSpec(),
            period=1.14e-6,
            t_transition=2e-9,
        )
        stim = burst_at(LEFT_T0)
        a = run(build_circulator(cfg), [stim, None, None, None], 9000)
        b = run(build_circulator(cfg), [stim, None, None, None], 9000)
        for x, y in zip(a.port_out, b.port_out):
            assert np.array_equal(x.samples, y.samples)

    def test_linearity_power_of_two_exact(self):
        cfg = make_config(line=DelayLineSpec(), switch=SwitchSpec(), period=1.14e-6, t_transition=2e-9)
        base = burst_at(LEFT_T0)
        scaled = burst_at(LEFT_T0, amplitude=4.0)
        a = run(build_circulator(cfg), [base, None, None, None], 8000)
        b = run(build_circulator(cfg), [scaled, None, None, None], 8000)
        for x, y in zip(a.port_out, b.port_out):
            assert np.array_equal(4.0 * x.samples, y.samples)

    def test_linearity_general_scale(self):
        cfg = make_config(switch=SwitchSpec(), period=1.14e-6, t_transition=2e-9)
        a = run(build_circulator(cfg), [burst_at(LEFT_T0), None, None, None], 8000)
        b = run(build_circulator(cfg), [burst_at(LEFT_T0, amplitude=3.0), None, None, None], 8000)
        for x, y in zip(a.port_out, b.port_out):
            np.testing.assert_allclose(3.0 * x.samples, y.samples, atol=1e-12)

    def test_nan_stimulus_faults_with_index(self):
        net = build_circulator(make_config())
        bad = np.zeros(500)
        bad[100] = np.nan
        with pytest.raises(SimulationFault) as exc:
            run(net, [SampleBuffer(FS, bad), None, None, None], 4000)
        assert 100 <= exc.value.sample_index <= 100 + D + 8

    @pytest.mark.parametrize("matching", [None, MatchSpec(33e-9, 18e-12)])
    def test_nan_stimulus_faults_with_index_reflecting_lines(self, matching):
        # The line ports reflect, so a matched network's match-line loops
        # carry the fault back within a few samples, not a block early.
        line = DelayLineSpec(il_db=0.0, bandwidth=None, port_return_db=15.0, echoes=())
        net = build_circulator(make_config(line=line, matching=matching))
        bad = np.zeros(500)
        bad[100] = np.nan
        with pytest.raises(SimulationFault) as exc:
            run(net, [SampleBuffer(FS, bad), None, None, None], 4000)
        assert 100 <= exc.value.sample_index <= 100 + D + 8

    def test_link_energy_accounting(self):
        net = build_circulator(make_config())
        stim = burst_at(LEFT_T0)
        rec = run(net, [stim, None, None, None], len(stim) + D + 100)
        assert len(rec.link_energy) == 8
        e_in = float(np.sum(stim.samples**2))
        assert rec.link_energy["left_crossbar->line_a"] == pytest.approx(e_in, rel=1e-12)
        assert rec.link_energy["line_a->right_crossbar"] == pytest.approx(e_in, rel=1e-12)
        assert rec.link_energy["left_crossbar->line_b"] == 0.0

    def test_matched_link_energy_has_16_entries(self):
        net = build_circulator(make_config(matching=MatchSpec(0.0, 0.0)))
        rec = run(net, [burst_at(LEFT_T0), None, None, None], 4000)
        assert len(rec.link_energy) == 16

    def test_stimulus_longer_than_run_rejected(self):
        net = build_circulator(make_config())
        with pytest.raises(ValueError, match="longer"):
            run(net, [burst_at(0), None, None, None], 100)

    @pytest.mark.parametrize("seed", range(4))
    def test_passivity_randomized(self, seed):
        rng = np.random.default_rng(seed)
        line = DelayLineSpec(
            il_db=float(rng.uniform(3.0, 6.0)),
            echoes=((2, float(rng.uniform(-26, -16))), (3, float(rng.uniform(-45, -35)))),
            port_return_db=float(rng.uniform(10.0, 20.0)),
        )
        switch = SwitchSpec(
            il_on_db=float(rng.uniform(0.5, 1.5)),
            iso_off_db=float(rng.uniform(25.0, 35.0)),
            t_transition=2e-9,
            gamma_off=float(rng.uniform(0.5, 0.95)),
        )
        cfg = make_config(line=line, switch=switch, period=1.14e-6, t_transition=2e-9)
        stimuli = [
            SampleBuffer(FS, rng.standard_normal(6000) * 0.1) for _ in range(4)
        ]
        rec = run(build_circulator(cfg), stimuli, 16000)
        assert rec.output_energy() <= rec.input_energy() * (1 + 1e-9)


class TestLanes:
    def test_lane_independence(self):
        net = build_circulator(make_config())
        stim = burst_at(LEFT_T0)
        n = len(stim) + D + 100
        single = run(net, [stim, None, None, None], n)

        net.reset(lanes=2)
        ext = np.zeros((4, 2))
        outs = np.zeros((n, 4, 2))
        for i in range(n):
            ext[0, 0] = stim.samples[i] if i < len(stim) else 0.0
            ext[0, 1] = 0.0
            outs[i] = net.step(ext)
        assert np.array_equal(outs[:, 1, 0], single.port_out[1].samples)
        assert np.all(outs[:, :, 1] == 0.0)

    def test_lane_schedule_table(self):
        net = build_circulator(make_config())
        s1 = build_schedule(IDEAL_PERIOD, 0.0, 0.5, FS)
        s2 = build_schedule(1.14e-6, 0.0, 0.5, FS)
        net.set_lane_schedules([s1, s2])
        with pytest.raises(ConfigError, match="lane count"):
            net.reset(lanes=3)
        net.reset(lanes=2)
        out = net.step(np.zeros((4, 2)))
        assert out.shape == (4, 2)


class TestOracle:
    def oracle_config(self):
        line = DelayLineSpec(
            il_db=2.0,
            bandwidth=None,
            echoes=((2, -20.0), (3, -15.0)),
            port_return_db=15.0,
        )
        switch = SwitchSpec(il_on_db=0.5, iso_off_db=math.inf, t_transition=0.0, gamma_off=0.9)
        return make_config(line=line, switch=switch)

    def test_ideal_through_prediction(self):
        cfg = make_config()
        inj = BurstInjection(1, LEFT_T0 / FS, 880 / FS)
        arrivals = event_walk_oracle(cfg, inj)
        assert len(arrivals) == 1
        a = arrivals[0]
        assert a.port == 2
        assert a.time == pytest.approx((LEFT_T0 + D) / FS)
        assert a.amplitude == pytest.approx(1.0)
        assert a.path == "through"

    def test_full_arrival_set_against_engine(self):
        cfg = self.oracle_config()
        t_rise, t_hold = 10e-9, 150e-9
        n0 = RIGHT_T0 + 100
        inj = BurstInjection(2, n0 / FS, (2 * 40 + 600) / FS)
        arrivals = event_walk_oracle(cfg, inj)
        assert [a.path for a in arrivals] == ["port-reflection", "through", "echo-k2", "echo-k3"]
        assert [a.port for a in arrivals] == [2, 3, 4, 1]

        net = build_circulator(cfg)
        stim = make_burst(FC, 1.0, n0 / FS, t_rise, t_hold, FS)
        n = n0 + 3 * D + 800
        rec = run(net, [None, stim, None, None], n)
        for arr in arrivals:
            n_arr = round(arr.time * FS) + net.k_link
            ref = make_burst(FC, 1.0, n_arr / FS, t_rise, t_hold, FS)
            w0, wl = n_arr + 48, 560
            measured = phasor(rec.port_out[arr.port - 1].samples, FC, FS, w0, wl)
            expected = phasor(ref.samples, FC, FS, w0, wl)
            assert abs(measured - arr.amplitude * expected) <= 1e-6 * abs(
                arr.amplitude
            )

    def test_declines_boundary_straddle(self):
        cfg = make_config()
        start = (2 * 1122 - 100) / FS  # 880-sample burst crosses the left flip
        with pytest.raises(OracleDeclined):
            event_walk_oracle(cfg, BurstInjection(1, start, 880 / FS))

    def test_domain_restrictions(self):
        with pytest.raises(ValueError, match="instantaneous"):
            event_walk_oracle(make_config(t_transition=2e-9, switch=SwitchSpec()),
                              BurstInjection(1, LEFT_T0 / FS, 1e-7))
        with pytest.raises(ValueError, match="isolation"):
            event_walk_oracle(
                make_config(switch=SwitchSpec(il_on_db=0.0, iso_off_db=30.0, t_transition=0.0)),
                BurstInjection(1, LEFT_T0 / FS, 1e-7),
            )
        with pytest.raises(ValueError, match="flat"):
            event_walk_oracle(make_config(line=DelayLineSpec()), BurstInjection(1, LEFT_T0 / FS, 1e-7))
        with pytest.raises(ValueError, match="matching"):
            event_walk_oracle(make_config(matching=MatchSpec(0.0, 0.0)),
                              BurstInjection(1, LEFT_T0 / FS, 1e-7))
