"""End-to-end checks of the YAML config loader and the command-line tool."""

from __future__ import annotations

import copy
import dataclasses
import math
import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from xml.sax.saxutils import escape

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sdlsim import __version__, cli
from sdlsim.analysis import modfreq_sweep
from sdlsim.cli import MAX_POINTS, execute, load_config, main
from sdlsim.elements import DelayLineElement, DelayLineSpec, MatchSpec, SwitchSpec, TouchstoneLineRef
from sdlsim.engine import MAX_PERIODS, build_circulator
from sdlsim.errors import ConfigError
from sdlsim.touchstone import TouchstoneData, write_touchstone

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

FAST_ANALYSIS = {
    "drive_dbm": -10.0,
    "iso_threshold_db": 27.0,
    "settle_periods": 2,
    "measure_periods": 2,
    "spectrum_window_periods": 16,
    "band": {"start": 153.0e6, "stop": 157.0e6, "points": 3},
}


def write_config(tmp_path: Path, name: str = "cfg.yaml", **overrides) -> Path:
    raw = {
        "sample_rate": 4.0e9,
        "line_a": {"tau": 280.0e-9, "il_db": 4.0, "echoes": [[2, -22.3], [3, -40.0]]},
        "line_b": {"tau": 280.0e-9, "il_db": 4.0, "echoes": [[2, -22.3], [3, -40.0]]},
        "switch": {"il_on_db": 0.8, "iso_off_db": 32.0, "t_transition": 2.0e-9},
        "schedule": {"period": 1.14e-6, "duty": 0.5},
        "analysis": dict(FAST_ANALYSIS),
    }
    for key, value in overrides.items():
        if value is None:
            raw.pop(key, None)
        else:
            raw[key] = value
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw))
    return path


def edited_paper(tmp_path: Path, *edits) -> Path:
    """configs/paper.yaml with (key path, value) edits; a value of None
    deletes the key."""
    raw = yaml.safe_load((CONFIG_DIR / "paper.yaml").read_text())
    for keys, value in edits:
        node = raw
        for key in keys[:-1]:
            node = node[key]
        if value is None:
            del node[keys[-1]]
        else:
            node[keys[-1]] = value
    path = tmp_path / "edited.yaml"
    path.write_text(yaml.safe_dump(raw, sort_keys=False))
    return path


def data_rows(path: Path) -> list[list[str]]:
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    return [l.split(",") for l in lines]


class TestLoadConfig:
    def test_paper_config(self):
        cfg = load_config(CONFIG_DIR / "paper.yaml")
        assert cfg.schedule.period_samples == 4560
        assert cfg.switch.iso_off_db == 32.0
        assert len(cfg.digest) == 16 and int(cfg.digest, 16) >= 0
        assert any("+5.000 ns" in w for w in cfg.warnings)

    def test_ideal_config(self):
        cfg = load_config(CONFIG_DIR / "ideal.yaml")
        assert cfg.schedule.period_samples == 4488
        assert cfg.switch.t_transition == 0.0
        assert math.isinf(cfg.switch.iso_off_db)
        assert cfg.line_a.il_db == 0.0 and cfg.line_a.bandwidth is None
        assert math.isinf(cfg.line_a.port_return_db)

    def test_ideal_config_compensates_exactly(self):
        # period/4 = 280.5 ns = tau plus the 2-sample crossbar latency.
        assert load_config(CONFIG_DIR / "ideal.yaml").warnings == ()

    def test_schedule_warning_counts_crossbar_latency(self, tmp_path):
        # period/4 = 281 ns: tau plus 4 samples, exact only with matching.
        switch = {"il_on_db": 0.8, "iso_off_db": 32.0, "t_transition": 0.0}
        bare = write_config(tmp_path, "bare.yaml", switch=switch, schedule={"period": 1.124e-6})
        warnings = load_config(bare).warnings
        assert len(warnings) == 1 and warnings[0].startswith("line_a, line_b: side offset")
        assert "by +1.000 ns (+0.36%), +0.500 ns with the 0.500 ns crossbar latency" in warnings[0]
        matched = write_config(
            tmp_path, "matched.yaml", switch=switch, schedule={"period": 1.124e-6},
            matching={"series_l": 33e-9, "shunt_c": 18e-12},
        )
        assert load_config(matched).warnings == ()

    @pytest.mark.parametrize("tau,flagged", [(280e-9, False), (300e-9, True)])
    def test_schedule_warning_for_measured_line(self, tmp_path, tau, flagged):
        # A measured line's delay is its S21 group delay at the band centre:
        # the matched 280 ns line fits period/4 = 281 ns, one 20 ns longer
        # does not.
        freqs = np.linspace(140e6, 170e6, 31)
        s = np.zeros((31, 2, 2), dtype=complex)
        s[:, 0, 1] = s[:, 1, 0] = 0.6 * np.exp(-2j * np.pi * freqs * tau)
        (tmp_path / "line.s2p").write_text(write_touchstone(TouchstoneData(freqs, s)))
        line = {"touchstone": "line.s2p", "ir_len": 1536}
        path = write_config(
            tmp_path, line_a=line, line_b=line, schedule={"period": 1.124e-6},
            matching={"series_l": 33e-9, "shunt_c": 18e-12},
        )
        warnings = load_config(path).warnings
        if flagged:
            assert len(warnings) == 1
            assert warnings[0].startswith("line_a, line_b: side offset 281.000 ns differs from line delay 300.000 ns")
        else:
            assert warnings == ()

    def test_schedule_warning_describes_applied_offset(self, tmp_path):
        # side_offset 0 runs both crossbars in phase: the advisory must
        # report that offset, not the quarter period it replaced.
        cfg = load_config(edited_paper(tmp_path, (("schedule", "side_offset"), 0.0)))
        assert cfg.schedule.offset_samples == 0
        assert len(cfg.warnings) == 1
        assert "side offset 0.000 ns differs from line delay 280.000 ns by -280.000 ns" in cfg.warnings[0]
        assert not any("285.000" in w for w in cfg.warnings)

    def test_missing_keys_all_reported_at_once(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("line_a: {tau: 280.0e-9}\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        message = str(err.value)
        for key in ("sample_rate", "line_b", "schedule"):
            assert key in message

    def test_missing_schedule_period_named(self, tmp_path):
        path = write_config(tmp_path, schedule={"duty": 0.5})
        with pytest.raises(ConfigError, match="schedule.period"):
            load_config(path)

    def test_nyquist_violation(self, tmp_path):
        path = write_config(tmp_path, sample_rate=200.0e6)
        with pytest.raises(ConfigError, match="Nyquist"):
            load_config(path)

    def test_unparseable_yaml(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("schedule: [unclosed\n")
        with pytest.raises(ConfigError, match="cannot parse"):
            load_config(path)

    def test_top_level_must_be_mapping(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigError, match="mapping"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.yaml")

    def test_unknown_line_key_rejected(self, tmp_path):
        path = write_config(tmp_path, line_a={"tau": 280.0e-9, "loss_db": 4.0})
        with pytest.raises(ConfigError, match="unknown keys"):
            load_config(path)

    def test_malformed_echo_rejected(self, tmp_path):
        path = write_config(tmp_path, line_a={"tau": 280.0e-9, "echoes": [[2]]})
        with pytest.raises(ConfigError, match="echoes"):
            load_config(path)

    def test_quantization_failure_is_config_error(self, tmp_path):
        path = write_config(tmp_path, schedule={"period": 1.0001e-6, "duty": 0.5})
        with pytest.raises(ConfigError, match="samples"):
            load_config(path)

    def test_scalar_fmod_values_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, analysis={**FAST_ANALYSIS, "fmod_values": 5})
        with pytest.raises(ConfigError, match="fmod_values"):
            load_config(path)
        assert main(["modsweep", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "fmod_values" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section,key",
        [
            ("analysis", "drive_dbm"),
            ("analysis", "iso_threshold_db"),
            ("switch", "il_on_db"),
            ("switch", "gamma_off"),
            ("line_a", "il_db"),
            ("line_a", "bandwidth"),
            ("schedule", "duty"),
        ],
    )
    def test_nan_number_is_config_error(self, tmp_path, capsys, section, key):
        raw = yaml.safe_load(write_config(tmp_path).read_text())
        raw[section][key] = math.nan
        path = tmp_path / "nan.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert ".nan" in path.read_text()
        with pytest.raises(ConfigError, match=f"{section}.{key}: expected a number"):
            load_config(path)
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_nan_echo_level_and_fmod_rejected(self, tmp_path):
        path = write_config(tmp_path, line_a={"tau": 280.0e-9, "echoes": [[3, math.nan]]})
        with pytest.raises(ConfigError, match="echoes"):
            load_config(path)
        path = write_config(tmp_path, analysis={**FAST_ANALYSIS, "fmod_values": [8.8e5, math.nan]})
        with pytest.raises(ConfigError, match="fmod_values"):
            load_config(path)

    def test_inf_still_means_none(self, tmp_path):
        path = write_config(
            tmp_path, switch={"il_on_db": 0.8, "iso_off_db": math.inf, "t_transition": 2.0e-9}
        )
        assert ".inf" in path.read_text()
        assert math.isinf(load_config(path).switch.iso_off_db)

    @pytest.mark.parametrize(
        "edits,message",
        [
            ([(("line_a", "echoes"), 5)], "line_a.echoes"),
            ([(("sample_rate",), math.inf)], "sample_rate: expected a finite number"),
            ([(("schedule", "period"), math.inf)], "schedule.period: expected a finite number"),
            ([(("line_a", "tau"), math.inf)], "line_a.tau: expected a finite number"),
            ([(("analysis", "drive_dbm"), math.inf)], "analysis.drive_dbm"),
            ([(("line_a", "band_order"), 400)], "line_a: band_order"),
            ([(("swtich",), {"il_on_db": 0.8})], "unknown keys ['swtich']"),
            ([(("schedule", "dutty"), 0.5)], "schedule: unknown keys"),
            ([(("analysis", "drive_dBm"), -10.0)], "analysis: unknown keys"),
            ([(("analysis", "band", "point"), 3)], "analysis.band: unknown keys"),
            ([(("matching",), {"series_l": 33e-9, "shunt_c": 18e-12, "zo": 50.0})],
             "matching: unknown keys"),
            ([(("matching",), {"series_l": 33e-9, "shunt_c": 18e-12, "f0": 3e9})],
             "Nyquist limit for the matching f0"),
            ([(("schedule", "period"), 1.0)], "schedule: period"),
            ([(("schedule", "side_offset"), 1.0)], "side_offset"),
            ([(("switch", "t_transition"), 1e300)], "t_transition"),
            ([(("analysis", "band", "points"), MAX_POINTS + 1)], f"points from 2 to {MAX_POINTS}"),
            ([(("analysis", "band", "points"), 10**12)], "analysis.band"),
            ([(("analysis", "settle_periods"), MAX_PERIODS + 1)],
             f"analysis.settle_periods must be from 0 to {MAX_PERIODS}"),
            ([(("analysis", "measure_periods"), 10**12)],
             f"analysis.measure_periods must be from 1 to {MAX_PERIODS}"),
            ([(("analysis", "spectrum_window_periods"), MAX_PERIODS + 1)],
             f"analysis.spectrum_window_periods must be from 16 to {MAX_PERIODS}"),
            ([(("analysis", "drive_dbm"), 1e6)], "analysis.drive_dbm must be from -300 to 300"),
            ([(("analysis", "drive_dbm"), -1e6)], "analysis.drive_dbm must be from -300 to 300"),
            ([(("line_a", "band_order"), -3)], "line_a: band_order must be from 0 to 64"),
            ([(("matching",), {"series_l": 33e-9, "shunt_c": 18e-12, "f0": -5.0})],
             "matching: f0 must be >= 0"),
            # A matching section is referenced to signals.Z0, as the
            # network's waves are: z0 is no key of a mapping or list entry.
            ([(("matching",), {"series_l": 33e-9, "shunt_c": 18e-12, "z0": 50.0})],
             "matching: unknown keys ['z0']"),
            ([(("matching",), [{"series_l": 33e-9, "shunt_c": 18e-12}] * 3
               + [{"series_l": 33e-9, "shunt_c": 18e-12, "z0": 75.0}])],
             "matching[3]: unknown keys ['z0']"),
        ],
    )
    def test_malformed_input_exits_1(self, tmp_path, capsys, edits, message):
        path = edited_paper(tmp_path, *edits)
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert message in str(err.value)
        assert main(["spectrum", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert message in capsys.readouterr().err

    def test_freq_points_flag_capped(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        for points in (0, 1, MAX_POINTS + 1, 10**12):
            code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o"),
                         "--freq-points", str(points)])
            assert code == 1
            assert f"needs 2 to {MAX_POINTS} points" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["51", True, 51.5, math.inf, "1e30"])
    def test_integers_are_strict(self, tmp_path, value):
        path = edited_paper(tmp_path, (("analysis", "band", "points"), value))
        with pytest.raises(ConfigError, match="analysis.band.points: expected an integer"):
            load_config(path)

    def test_integral_float_is_an_integer(self, tmp_path):
        path = edited_paper(tmp_path, (("analysis", "band", "points"), 3.0))
        assert load_config(path).band[2] == 3

    def test_numbers_reject_booleans_and_text(self, tmp_path):
        path = edited_paper(
            tmp_path, (("line_a", "il_db"), True), (("switch", "gamma_off"), "high")
        )
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "line_a.il_db: expected a number" in str(err.value)
        assert "switch.gamma_off: expected a number" in str(err.value)

    def test_null_meanings(self, tmp_path):
        raw = yaml.safe_load((CONFIG_DIR / "paper.yaml").read_text())
        raw["line_a"]["bandwidth"] = raw["line_a"]["port_return_db"] = None
        raw["schedule"]["side_offset"] = None
        raw.update(switch=None, analysis=None, matching=None)
        path = tmp_path / "nulls.yaml"
        path.write_text(yaml.safe_dump(raw))
        cfg = load_config(path)
        assert cfg.line_a.bandwidth is None and math.isinf(cfg.line_a.port_return_db)
        assert cfg.switch == SwitchSpec() and cfg.matching is None
        assert cfg.schedule.side_offset is None
        assert (cfg.band, cfg.fmod_values, cfg.settle_periods) == ((150e6, 160e6, 51), (), 10)
        raw["line_a"]["il_db"] = None
        path.write_text(yaml.safe_dump(raw))
        with pytest.raises(ConfigError, match="line_a.il_db: expected a number, got None"):
            load_config(path)

    def test_problems_gathered_across_sections(self, tmp_path):
        path = edited_paper(
            tmp_path,
            (("line_a", "tau"), "soon"),
            (("switch", "extra"), 1),
            (("analysis", "settle_periods"), -1),
            (("sample_rate",), None),
        )
        with pytest.raises(ConfigError) as err:
            load_config(path)
        for part in ("line_a.tau", "switch: unknown keys", "settle_periods", "sample_rate: missing"):
            assert part in str(err.value)

    def test_aliased_line_parsed_and_designed_once(self):
        cfg = load_config(CONFIG_DIR / "paper.yaml")
        assert cfg.line_b is cfg.line_a
        net = build_circulator(cfg)
        # One object serves both positions: lane 0 is line_a's, lane 1 line_b's.
        assert net.line_b is net.line_a
        net.reset(1)
        line = net.line_a
        assert line.lanes == 2
        x = np.zeros((2, 2, 5))
        x[:, 0] = 1.0
        # line_b's lane keeps its own state: driving line_a's leaves it at
        # rest, bit for bit, and line_a's lane steps as a line of its own.
        first = line.step(x)
        assert not np.any(first[:, 1]) and not np.any(line._ring[:, :, 1])
        assert not np.any(line._frame.reshape(len(line._frame), 2, 2)[:, :, 1])
        alone = DelayLineElement(cfg.line_a, cfg.sample_rate)
        assert np.array_equal(first[:, :1], alone.step(x[:, :1]))

    def test_matching_single_spec_applied(self, tmp_path):
        path = write_config(
            tmp_path, matching={"series_l": 33.0e-9, "shunt_c": 18.0e-12}
        )
        cfg = load_config(path)
        assert isinstance(cfg.matching, MatchSpec)
        assert cfg.matching.series_l == pytest.approx(33.0e-9)

    def test_matching_list_must_have_four(self, tmp_path):
        entry = {"series_l": 33.0e-9, "shunt_c": 18.0e-12}
        path = write_config(tmp_path, matching=[entry, entry, entry])
        with pytest.raises(ConfigError, match="four"):
            load_config(path)

    def test_touchstone_line_reference(self, tmp_path):
        freqs = np.linspace(140e6, 170e6, 31)
        s = np.zeros((31, 2, 2), dtype=complex)
        s[:, 0, 1] = s[:, 1, 0] = 0.6 * np.exp(-2j * np.pi * freqs * 280e-9)
        text = write_touchstone(TouchstoneData(freqs, s))
        (tmp_path / "line.s2p").write_text(text)
        path = write_config(
            tmp_path, line_a={"touchstone": "line.s2p", "ir_len": 4096}
        )
        cfg = load_config(path)
        assert isinstance(cfg.line_a, TouchstoneLineRef)
        assert cfg.line_a.ir_len == 4096
        assert len(cfg.line_a.data.frequencies) == 31
        assert isinstance(cfg.line_b, DelayLineSpec)

    def test_measured_configs_compare_by_value(self, tmp_path):
        # Two loads of one measured config hold equal parsed data in
        # separate arrays: == compares them by value, not by truth of arrays.
        freqs = np.linspace(140e6, 170e6, 31)
        s = np.zeros((31, 2, 2), dtype=complex)
        s[:, 0, 1] = s[:, 1, 0] = 0.6 * np.exp(-2j * np.pi * freqs * 280e-9)
        (tmp_path / "line.s2p").write_text(write_touchstone(TouchstoneData(freqs, s)))
        line = {"touchstone": "line.s2p", "ir_len": 1536}
        path = write_config(
            tmp_path, line_a=line, line_b=dict(line),
            matching=[{"series_l": 33e-9, "shunt_c": 18e-12} for _ in range(4)],
        )
        first, second = load_config(path), load_config(path)
        assert first.line_a.data is not second.line_a.data
        assert first == second
        assert first.line_a == first.line_b and first.line_a is not first.line_b
        assert first.line_a != dataclasses.replace(first.line_a, ir_len=1024)

    def test_digest_tracks_content(self, tmp_path):
        a = load_config(write_config(tmp_path, name="a.yaml"))
        b = load_config(write_config(tmp_path, name="b.yaml"))
        c = load_config(write_config(tmp_path, name="c.yaml", sample_rate=2.0e9))
        assert a.digest == b.digest
        assert a.digest != c.digest


class TestDesignErrors:
    """Designs the loader accepts but the elements cannot build end as a
    ConfigError naming the line (exit 1), not as a runtime error."""

    @pytest.mark.parametrize(
        "line,message",
        [
            ({"tau": 1e-10}, "line_a: tau must span"),
            ({"tau": 10e-9},
             "line_a: band filter group delay exceeds the line delay"),
            ({"tau": 280e-9, "echoes": [[10**6, -30.0]]}, "line_a: echo taps"),
        ],
    )
    def test_delay_line_design(self, tmp_path, capsys, line, message):
        path = write_config(tmp_path, line_a=line)
        cfg = load_config(path)
        with pytest.raises(ConfigError, match=message):
            build_circulator(cfg)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert message in capsys.readouterr().err

    def test_touchstone_ir_len_zero(self, tmp_path, capsys):
        freqs = np.linspace(140e6, 170e6, 31)
        s = np.zeros((31, 2, 2), dtype=complex)
        s[:, 0, 1] = s[:, 1, 0] = 0.6
        (tmp_path / "line.s2p").write_text(
            write_touchstone(TouchstoneData(freqs, s))
        )
        path = write_config(tmp_path, line_b={"touchstone": "line.s2p", "ir_len": 0})
        with pytest.raises(ConfigError, match="line_b: ir_len"):
            build_circulator(load_config(path))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "line_b: ir_len" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["linecheck", "sweep"])
    def test_touchstone_not_50_ohm(self, tmp_path, capsys, command):
        # Renormalising is not supported: 75 ohm data must not run as 50.
        s = np.zeros((31, 2, 2), dtype=complex)
        s[:, 0, 1] = s[:, 1, 0] = 0.6
        data = TouchstoneData(np.linspace(140e6, 170e6, 31), s, reference_impedance=75.0)
        (tmp_path / "line.s2p").write_text(write_touchstone(data))
        path = write_config(tmp_path, line_a={"touchstone": "line.s2p", "ir_len": 512})
        out = tmp_path / "o"
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        assert "line_a: measured data referenced to 75 ohm" in capsys.readouterr().err
        assert not out.exists()


PAPER = yaml.safe_load((CONFIG_DIR / "paper.yaml").read_text())
_FREQS = np.linspace(140e6, 170e6, 31)
_S = np.zeros((31, 2, 2), dtype=complex)
_S[:, 0, 1] = _S[:, 1, 0] = 0.6 * np.exp(-2j * np.pi * _FREQS * 280e-9)
LINE_S2P = write_touchstone(TouchstoneData(_FREQS, _S))
# The configs the fuzz test mutates: paper.yaml, paper.yaml with four
# matching sections, and paper.yaml with line A read from LINE_S2P.
BASES = {
    "paper": PAPER,
    "matched": PAPER | {"matching": [{"series_l": 33.0e-9, "shunt_c": 18.0e-12} for _ in range(4)]},
    "touchstone": PAPER | {"line_a": {"touchstone": "line.s2p", "ir_len": 1024}},
}
# Key names worth inserting: every schema key, so a mutation can also put a
# known key where it does not belong, plus misspellings.
KEY_NAMES = sorted(
    {"sample_rate", "line_a", "line_b", "switch", "schedule", "matching", "analysis",
     "touchstone", "ir_len", "period", "duty", "side_offset", "band", "start", "stop",
     "points", "fmod_values", "drive_dbm", "settle_periods", "measure_periods",
     "spectrum_window_periods", "iso_threshold_db", "swtich", "tua"}
    | {f.name for cls in (DelayLineSpec, SwitchSpec, MatchSpec) for f in dataclasses.fields(cls)}
)
NUMBERS = st.floats() | st.integers()  # floats include NaN and +-inf
VALUES = st.recursive(
    st.one_of(NUMBERS, st.text(max_size=6), st.booleans(), st.none()),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(KEY_NAMES) | st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
INF_MEANS_NONE = ("iso_off_db", "port_return_db")


def containers(node, path=()):
    """Every mapping and list in a parsed YAML tree, with its key path."""
    if isinstance(node, (dict, list)):
        yield path, node
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from containers(child, path + (key,))


@st.composite
def mutated_config(draw):
    """One of BASES with one or two values inserted or replaced at random
    key paths (paper.yaml's line_b stays an alias of its line_a). Numbers
    and existing keys are drawn more often, so that many mutants still
    load and reach build_circulator."""
    raw = copy.deepcopy(BASES[draw(st.sampled_from(sorted(BASES)))])
    for _ in range(draw(st.integers(1, 2))):
        _, node = draw(st.sampled_from(list(containers(raw))))
        value = draw(st.one_of(NUMBERS, NUMBERS, VALUES))
        if isinstance(node, dict):
            old = st.sampled_from(sorted(node)) if node else st.nothing()
            node[draw(st.one_of(old, old, old, st.sampled_from(KEY_NAMES), st.text(max_size=4)))] = value
        elif node:
            node[draw(st.integers(0, len(node) - 1))] = value
        else:
            node.append(value)
    return raw


def config_floats(obj, name=""):
    """(field name, value) of every float held in a loaded config."""
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from config_floats(getattr(obj, f.name), f.name)
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from config_floats(item, name)
    elif isinstance(obj, float):
        yield name, obj


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw=mutated_config())
def test_mutated_config_loads_or_raises_config_error(raw):
    # A warning escaping the loader or the element designs fails the test.
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        (Path(tmp) / "line.s2p").write_text(LINE_S2P)
        path = Path(tmp) / "mutated.yaml"
        path.write_text(yaml.safe_dump(raw, sort_keys=False))
        try:
            cfg = load_config(path)
        except ConfigError:
            return
        for name, value in config_floats(cfg):
            assert math.isfinite(value) or name in INF_MEANS_NONE, (name, value)
        try:
            build_circulator(cfg)
        except ConfigError:
            pass


class TestCommands:
    def test_schedule_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["schedule", "--config", str(cfg), "--out", str(out)]) == 0
        csv = out / "schedule.csv"
        head = csv.read_text().splitlines()[:2]
        assert head[0].startswith("# sdlsim ")
        assert head[1].startswith("# config ")
        rows = data_rows(csv)
        assert rows[0] == ["time_s", "left_bar", "left_cross", "right_bar", "right_cross"]
        assert len(rows) - 1 == 4560
        assert (out / "schedule.svg").read_text().startswith("<!-- sdlsim ")

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        for out in (out1, out2):
            assert main(["schedule", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("schedule.csv", "schedule.svg"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_sweep_outputs(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        rows = data_rows(out / "sweep.csv")
        assert rows[0][0] == "frequency_hz" and len(rows[0]) == 1 + 32
        assert len(rows) - 1 == 3
        assert [float(r[0]) for r in rows[1:]] == [153.0e6, 155.0e6, 157.0e6]
        metric_rows = data_rows(out / "metrics.csv")
        keys = {r[0] for r in metric_rows[1:]}
        assert {"center_frequency_hz", "bandwidth_hz", "il_21_db", "iso_12_db"} <= keys
        assert (out / "sweep.svg").exists()

    def test_sweep_band_flags(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        code = main(
            [
                "sweep", "--config", str(cfg), "--out", str(out),
                "--freq-start", "154e6", "--freq-stop", "156e6",
                "--freq-points", "2", "--threshold-db", "5",
            ]
        )
        assert code == 0
        rows = data_rows(out / "sweep.csv")
        assert [float(r[0]) for r in rows[1:]] == [154.0e6, 156.0e6]
        metric_rows = data_rows(out / "metrics.csv")
        assert ["iso_threshold_db", "5"] in metric_rows

    def test_sweep_prints_worst_forward_loss(self, tmp_path, capsys):
        # The printed loss is the largest of any forward path at any point
        # of the metric band (here the whole grid), not the largest of the
        # per-path best losses that metrics.csv lists as il_*_db.
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        args = ["sweep", "--config", str(cfg), "--out", str(out), "--threshold-db", "5",
                "--freq-start", "150e6", "--freq-stop", "160e6", "--freq-points", "3"]
        assert main(args) == 0
        printed = capsys.readouterr().out.split("worst forward loss ")[1].split(" dB")[0]
        rows = data_rows(out / "sweep.csv")
        col = {name: i for i, name in enumerate(rows[0])}
        losses = [
            -20.0 * math.log10(abs(complex(float(r[col[f"s{p}_re"]]), float(r[col[f"s{p}_im"]]))))
            for p in ("21", "32", "43", "14")
            for r in rows[1:]
        ]
        assert printed == f"{max(losses):.2f}"
        best = [float(v) for k, v in data_rows(out / "metrics.csv")[1:] if k.startswith("il_")]
        assert max(losses) > max(best) + 0.05

    def test_sweep_says_when_the_grid_sets_the_bandwidth(self, tmp_path, capsys):
        # Every point of paper.yaml's band isolates beyond 27 dB, so the
        # band found is the whole grid and its width only a lower bound. At
        # 40 dB no point qualifies, and the note is not printed.
        args = ["sweep", "--config", str(CONFIG_DIR / "paper.yaml"), "--freq-points", "3"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        printed = capsys.readouterr().out
        assert "bandwidth 10.000 MHz at 27 dB isolation" in printed
        assert "the band reaches the edge of the 150.000-160.000 MHz grid" in printed
        assert "flag" not in [row[0] for row in data_rows(tmp_path / "a" / "metrics.csv")]
        assert main(args + ["--out", str(tmp_path / "b"), "--threshold-db", "40"]) == 0
        assert "reaches the edge" not in capsys.readouterr().out

    def test_spectrum_rows(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
        rows = data_rows(out / "spectrum.csv")
        assert rows[0] == ["port", "order", "frequency_hz", "power_dbm"]
        assert len(rows) - 1 == 4 * 11
        for port in "1234":
            assert sum(r[0] == port for r in rows[1:]) == 11

    @pytest.mark.parametrize("command", ["spectrum", "modsweep"])
    def test_unsettled_run_warns_on_stderr(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, analysis=FAST_ANALYSIS | {"settle_periods": 0})
        args = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
        if command == "modsweep":
            args += ["--fmod", "877193"]
        assert main(args) == 0
        # With no settling, the window starts with the switch-on transient.
        err = capsys.readouterr().err
        assert "warning: not settled: " in err and "precede the first period verified steady at" in err

    @pytest.mark.parametrize("command", ["sweep", "spectrum", "modsweep"])
    def test_element_warnings_on_stderr(self, tmp_path, capsys, command):
        # A 280 ns line cut to 512 taps (128 ns) loses most of its energy.
        # Both lines are one YAML alias, so the twin's warning prints once.
        freqs = np.linspace(100e6, 210e6, 111)
        s = np.zeros((111, 2, 2), dtype=complex)
        s[:, 0, 1] = s[:, 1, 0] = 0.6 * np.exp(-2j * np.pi * freqs * 280e-9)
        (tmp_path / "line.s2p").write_text(write_touchstone(TouchstoneData(freqs, s)))
        line = {"touchstone": "line.s2p", "ir_len": 512}
        cfg = write_config(tmp_path, line_a=line, line_b=line)
        args = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
        if command == "modsweep":
            args += ["--fmod", "877193,891266"]
        assert main(args) == 0
        err = capsys.readouterr().err
        assert err.count("truncation loses") == 1
        assert "warning: line_a, line_b: impulse response truncation loses" in err

    def test_spectrum_on_ideal_config(self, tmp_path, capsys):
        # Ports 3 and 4 of the ideal network carry exactly nothing: their
        # lines read -inf dBm and the isolation inf, not a clamped floor.
        ideal = tmp_path / "ideal.yaml"
        ideal.write_text(
            (CONFIG_DIR / "ideal.yaml").read_text().replace("settle_periods: 10", "settle_periods: 1")
        )
        out = tmp_path / "out"
        assert main(["spectrum", "--config", str(ideal), "--out", str(out)]) == 0
        text = (out / "spectrum.csv").read_text()
        assert "# iso3_db inf\n# iso4_db inf\n" in text
        rows = data_rows(out / "spectrum.csv")[1:]
        assert all(r[3] == "-inf" for r in rows if r[0] in "34")
        assert all(math.isfinite(float(r[3])) for r in rows if r[0] == "2")
        assert "port3 inf dB, port4 inf dB" in capsys.readouterr().out

    def test_modsweep_reports_quarter_wave_rule(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        # Periods 4488 (the rule's, 280 ns + 2 samples) and 4496 samples.
        code = main(["modsweep", "--config", str(cfg), "--out", str(out),
                     "--fmod", f"{4e9 / 4488!r},{4e9 / 4496!r}"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "quarter-wave rule: f_mod = 891.266 kHz (period 4488.0 samples)" in stdout
        assert "kHz from the rule" in stdout

    def test_modsweep_on_ideal_config(self, tmp_path, capsys):
        # The exactly compensated ideal network's reverse transfer is 0:
        # infinite isolation, not a math domain error.
        cfg = load_config(CONFIG_DIR / "ideal.yaml")
        fm = cfg.schedule.f_mod
        short = dataclasses.replace(cfg, settle_periods=1, measure_periods=1)
        (pt,) = modfreq_sweep(short, [fm], 155e6)
        assert pt.note is None and math.isfinite(pt.il_db) and math.isinf(pt.iso_db)
        ideal = tmp_path / "ideal.yaml"
        ideal.write_text(
            (CONFIG_DIR / "ideal.yaml").read_text()
            .replace("settle_periods: 10", "settle_periods: 1")
            .replace("measure_periods: 4", "measure_periods: 1")
        )
        out = tmp_path / "out"
        assert main(["modsweep", "--config", str(ideal), "--out", str(out), "--fmod", repr(fm)]) == 0
        assert data_rows(out / "modsweep.csv")[1][3] == "inf"
        assert "best isolation inf dB" in capsys.readouterr().out

    def test_non_finite_modulation_frequency_is_noted(self):
        # A NaN or infinite f_mod has no schedule: a noted point, not a crash.
        cfg = dataclasses.replace(
            load_config(CONFIG_DIR / "ideal.yaml"), settle_periods=1, measure_periods=1
        )
        fm = cfg.schedule.f_mod
        nan, inf, ok = modfreq_sweep(cfg, [math.nan, math.inf, fm], 155e6)
        assert nan.note == inf.note == "modulation frequency must be positive and finite"
        assert math.isnan(nan.il_db) and math.isnan(inf.iso_db)
        assert ok.note is None and math.isfinite(ok.il_db)

    @pytest.mark.parametrize(
        "command,flags",
        [
            ("modsweep", ["--fmod", "nan,891266"]),
            ("modsweep", ["--fmod", "891266,inf"]),
            ("modsweep", ["--fmod", "891266,abc"]),
            ("sweep", ["--threshold-db", "nan"]),
            ("sweep", ["--threshold-db", "-inf"]),
            ("spectrum", ["--freq-start", "nan"]),
            # An empty --fmod list would write a modsweep of no points.
            ("modsweep", ["--fmod", ","]),
            ("modsweep", ["--fmod", ""]),
            # A crossed band (start above stop) is a usage error too.
            ("sweep", ["--freq-start", "160e6", "--freq-stop", "150e6"]),
        ],
    )
    def test_non_finite_flag_exits_1(self, tmp_path, capsys, command, flags):
        out = tmp_path / "out"
        args = [command, "--config", str(CONFIG_DIR / "ideal.yaml"), "--out", str(out)]
        assert main(args + flags) == 1
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_modsweep_flag_and_bad_point(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        code = main(
            ["modsweep", "--config", str(cfg), "--out", str(out), "--fmod", "877193,-1"]
        )
        assert code == 0
        rows = data_rows(out / "modsweep.csv")
        assert len(rows) - 1 == 2
        assert float(rows[1][2]) > 0
        assert rows[2][2] == "nan"
        assert "skipped" in capsys.readouterr().err

    def test_linecheck_files(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        code = main(
            ["linecheck", "--config", str(cfg), "--out", str(out), "--freq-points", "9"]
        )
        assert code == 0
        for name in ("linecheck_a.csv", "linecheck_b.csv", "linecheck.svg", "linecheck_delay.svg"):
            assert (out / name).exists()
        rows = data_rows(out / "linecheck_a.csv")
        assert rows[0][-1] == "group_delay_s"
        mid = (len(rows) - 1) // 2 + 1
        assert float(rows[mid][-1]) == pytest.approx(280e-9, abs=5e-9)

    def test_run_command(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        rows = data_rows(out / "run.csv")
        assert rows[0][:2] == ["sample", "time_s"] and len(rows[0]) == 10
        assert len(rows) - 1 > 4560

    def test_mismatch_warning_on_stderr(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["schedule", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert "differs from line delay" in capsys.readouterr().err

    def test_config_error_exit_code(self, tmp_path, capsys):
        code = main(["sweep", "--config", str(tmp_path / "missing.yaml")])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_usage_error_exit_code(self, capsys):
        assert main(["not-a-command"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_schedule_takes_no_band_flags(self, tmp_path, capsys):
        # schedule writes one commutation period; a band flag is a usage error.
        cfg = write_config(tmp_path)
        code = main(["schedule", "--config", str(cfg), "--out", str(tmp_path / "o"), "--freq-points", "9"])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["spectrum", "modsweep", "run"])
    def test_freq_points_only_where_it_acts(self, tmp_path, capsys, command):
        # These commands read only the band centre, which the point count
        # never moves, so they do not take the flag.
        cfg = write_config(tmp_path)
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o"), "--freq-points", "9"])
        assert code == 1
        assert "unrecognized arguments: --freq-points 9" in capsys.readouterr().err

    def test_runtime_error_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        code = main(["schedule", "--config", str(cfg), "--out", str(blocker)])
        assert code == 2
        assert "runtime error" in capsys.readouterr().err

    def test_execute_rejects_unknown_command(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        with pytest.raises(ConfigError, match="unknown command"):
            execute("fnord", cfg, tmp_path / "o")


class TestWriter:
    """Commands compute their artifacts; execute alone writes them."""

    FILES = {
        "sweep": ["sweep.csv", "metrics.csv", "sweep.svg"],
        "spectrum": ["spectrum.csv", "spectrum.svg"],
        "modsweep": ["modsweep.csv", "modsweep.svg"],
        "linecheck": ["linecheck_a.csv", "linecheck_b.csv", "linecheck.svg", "linecheck_delay.svg"],
        "schedule": ["schedule.csv", "schedule.svg"],
        "run": ["run.csv"],
    }

    @pytest.mark.parametrize("command", sorted(FILES))
    def test_files_written_with_header(self, tmp_path, capsys, command):
        cfg = load_config(write_config(tmp_path))
        out = tmp_path / "out"
        overrides = {"fmod": [877193.0]} if command == "modsweep" else {}
        written = execute(command, cfg, out, **overrides)
        assert [p.name for p in written] == self.FILES[command]
        assert sorted(out.iterdir()) == sorted(written)
        flags = " --fmod 877193" if command == "modsweep" else ""
        for path in written:
            head = [f"sdlsim {__version__}", f"config {cfg.digest}", f"command {command}{flags}"]
            form = "<!-- {} -->" if path.suffix == ".svg" else "# {}"
            assert path.read_text().splitlines()[:3] == [form.format(h) for h in head]

    def test_header_records_flags(self, tmp_path):
        # Two runs that differ only in their flags write different files,
        # so their headers differ too; unset flags are not listed.
        cfg = CONFIG_DIR / "ideal.yaml"
        heads = {}
        for flags in ([], ["--freq-points", "5"], ["--freq-points", "7", "--threshold-db", "5"]):
            out = tmp_path / str(len(flags))
            assert main(["sweep", "--config", str(cfg), "--out", str(out)] + flags) == 0
            heads[" ".join(flags)] = [(out / name).read_text().splitlines()[2] for name in self.FILES["sweep"]]
        assert heads == {
            "": ["# command sweep", "# command sweep", "<!-- command sweep -->"],
            "--freq-points 5": ["# command sweep --freq-points 5"] * 2 + ["<!-- command sweep --freq-points 5 -->"],
            "--freq-points 7 --threshold-db 5": ["# command sweep --freq-points 7 --threshold-db 5"] * 2
            + ["<!-- command sweep --freq-points 7 --threshold-db 5 -->"],
        }
        out = tmp_path / "modsweep"
        args = ["modsweep", "--config", str(cfg), "--out", str(out), "--fmod", "877193,891266.5", "--freq-start", "1.5e8"]
        assert main(args) == 0
        assert (out / "modsweep.csv").read_text().splitlines()[2] == (
            "# command modsweep --freq-start 150000000 --fmod 877193,891266.5"
        )

    def test_failed_command_writes_nothing(self, tmp_path, monkeypatch):
        line_sweep, calls = cli.line_sweep, []

        def failing_second(*args):
            calls.append(args)
            if len(calls) == 2:
                raise RuntimeError("line_b failed")
            return line_sweep(*args)

        monkeypatch.setattr(cli, "line_sweep", failing_second)
        out = tmp_path / "out"
        with pytest.raises(RuntimeError, match="line_b failed"):
            execute("linecheck", load_config(write_config(tmp_path)), out)
        assert len(calls) == 2
        assert not list(out.glob("*"))


# The per-value rendering that the array formatters replace, kept as their
# oracle: every value on its own, floats as f"{float(v):.12g}", every
# polyline point as f"{x:.2f},{y:.2f}".
_FIELD = re.compile(r"%(\.12g|d|s)")
_TEXT = {".12g": lambda v: f"{float(v):.12g}", "d": lambda v: str(int(v)), "s": str}


def per_value_rows(columns, fmt=None):
    columns = [list(c) for c in columns]
    fmt = fmt or ",".join(["%.12g"] * len(columns))
    kinds, template = _FIELD.findall(fmt), _FIELD.sub("{}", fmt)
    return [template.format(*(_TEXT[k](v) for k, v in zip(kinds, row))) for row in zip(*columns)]


def per_value_grid_rows(grid, delays=None):
    ports = range(1, grid.n_ports + 1)
    cols = ["frequency_hz"] + [f"s{j}{i}_{part}" for j in ports for i in ports for part in ("re", "im")]
    if delays is not None:
        cols.append("group_delay_s")
    rows = [",".join(cols)]
    for k, f in enumerate(grid.frequencies):
        row = [cli._fmt(f)] + [cli._fmt(v) for s in grid.s[k].flat for v in (s.real, s.imag)]
        if delays is not None:
            row.append(cli._fmt(delays[k]))
        rows.append(",".join(row))
    return rows


def per_point_svg(chart):
    width, height = cli._SVG_SIZE
    left, right, top, bottom = 72, 18, 30, 46
    pw, ph = width - left - right, height - top - bottom
    pairs = [list(zip(xs, ys)) for _, xs, ys in chart.series]
    finite = [(x, y) for trace in pairs for x, y in trace if math.isfinite(x) and math.isfinite(y)]
    x_lo, x_hi = (min(x for x, _ in finite), max(x for x, _ in finite)) if finite else (0.0, 1.0)
    y_lo, y_hi = (min(y for _, y in finite), max(y for _, y in finite)) if finite else (0.0, 1.0)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5

    def sx(x):
        return left + (x - x_lo) / (x_hi - x_lo) * pw

    def sy(y):
        return top + ph - (y - y_lo) / (y_hi - y_lo) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}"'
        f' viewBox="0 0 {width} {height}" font-family="monospace" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
        f'<rect x="{left}" y="{top}" width="{pw}" height="{ph}" fill="none" stroke="#444444"/>',
    ]
    for i in range(5):
        fx, fy = x_lo + i * (x_hi - x_lo) / 4, y_lo + i * (y_hi - y_lo) / 4
        px, py = sx(fx), sy(fy)
        out += [
            f'<line x1="{px:.2f}" y1="{top}" x2="{px:.2f}" y2="{top + ph}" stroke="#dddddd"/>',
            f'<line x1="{left}" y1="{py:.2f}" x2="{left + pw}" y2="{py:.2f}" stroke="#dddddd"/>',
            f'<text x="{px:.2f}" y="{top + ph + 16}" text-anchor="middle">{fx:.6g}</text>',
            f'<text x="{left - 6}" y="{py + 4:.2f}" text-anchor="end">{fy:.6g}</text>',
        ]
    for k, ((label, _, _), trace) in enumerate(zip(chart.series, pairs)):
        color = cli._PALETTE[k % len(cli._PALETTE)]
        segments, seg = [], []
        for x, y in trace + [(math.nan, math.nan)]:
            if math.isfinite(x) and math.isfinite(y):
                seg.append((x, y))
            elif seg:
                segments.append(seg)
                seg = []
        for seg in segments:
            pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in seg)
            out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        out.append(
            f'<text x="{left + pw - 6}" y="{top + 16 + 14 * k}" text-anchor="end"'
            f' fill="{color}">{escape(str(label))}</text>'
        )
    mid_x, mid_y = (left + width - right) / 2, (top + height - bottom) / 2
    return out + [
        f'<text x="{mid_x:.1f}" y="{top - 10}" text-anchor="middle">{escape(chart.title)}</text>',
        f'<text x="{mid_x:.1f}" y="{height - 8}" text-anchor="middle">{escape(chart.xlabel)}</text>',
        f'<text x="14" y="{mid_y:.1f}" text-anchor="middle"'
        f' transform="rotate(-90 14 {mid_y:.1f})">{escape(chart.ylabel)}</text>',
        "</svg>",
    ]


class TestArtifactText:
    """CSV rows and SVG polylines are formatted from arrays, a chunk of rows
    or a whole polyline at a time; the text equals the per-value rendering."""

    EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1.8e308, 1e16, 3, -7, 2**53, 0.1, 1 / 3]

    @pytest.mark.parametrize("command", sorted(TestWriter.FILES))
    @pytest.mark.parametrize("banded", [False, True], ids=["ideal", "banded"])
    def test_every_artifact_equals_per_value_rendering(self, tmp_path, monkeypatch, capsys, command, banded):
        cfg = load_config(write_config(tmp_path) if banded else CONFIG_DIR / "ideal.yaml")
        overrides = {"fmod": [877193.0]} if command == "modsweep" else {}
        written = execute(command, cfg, tmp_path / "arrays", **overrides)
        monkeypatch.setattr(cli, "_rows", per_value_rows)
        monkeypatch.setattr(cli, "_grid_rows", per_value_grid_rows)
        monkeypatch.setattr(cli, "render_svg", per_point_svg)
        oracle = execute(command, cfg, tmp_path / "per_value", **overrides)
        assert [p.name for p in written] == [p.name for p in oracle] == TestWriter.FILES[command]
        for new, old in zip(written, oracle):
            assert new.read_bytes() == old.read_bytes(), new.name

    def test_run_time_column_is_sample_times_dt(self, tmp_path, capsys):
        # The time column is one array product, the same IEEE product per
        # sample as k * dt.
        cfg = load_config(CONFIG_DIR / "ideal.yaml")
        (path,) = execute("run", cfg, tmp_path)
        rows = data_rows(path)[1:]
        dt = 1.0 / cfg.sample_rate
        assert [r[:2] for r in rows] == [[str(k), cli._fmt(k * dt)] for k in range(len(rows))]

    def test_edge_values_format_as_fmt(self):
        assert cli._rows([self.EDGES]) == [cli._fmt(v) for v in self.EDGES]
        assert cli._rows([[7, -7, 0]], "%d") == ["7", "-7", "0"]
        assert cli._rows([["a", "b"], [math.nan, -0.0]], "%s,%.12g") == ["a,nan", "b,-0"]
        assert cli._rows([], "%d") == []

    def test_rows_span_chunks_in_order(self):
        n = 2 * cli._CHUNK + 3
        values = np.arange(n) * 0.1
        assert cli._rows([np.arange(n), values], "%d,%.12g") == per_value_rows([range(n), values], "%d,%.12g")

    # A column of one value is formatted once, into the row template; one
    # value means one bit pattern, so -0.0 never stands for 0.0 and NaNs of
    # another sign or payload are never merged.
    NANS = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0x7FF8000000000123],
                    dtype=np.uint64).view(np.float64)
    N = 2 * cli._CHUNK + 3

    @pytest.mark.parametrize("columns, fmt", [
        ([[-0.0] * 5, [1.0, 2.0, 3.0, 4.0, 5.0]], None),
        ([[0.0, -0.0, 0.0, -0.0], [2.0] * 4], None),
        ([[-0.0, 0.0, 0.0], [0.0, 0.0, -0.0]], None),
        ([NANS, NANS[::-1], [math.inf] * 4, [NANS[1]] * 4, [-math.inf] * 4], None),
        ([[NANS[2]] * 3, [NANS[3]] * 3, [0.1, 0.2, 0.3]], None),
        ([[7, 7, 7], [1.5, 2.5, 3.5]], "%d,%.12g"),
        ([["5%"] * 3, ["%d"] * 3, [3, 4, 5]], "%s,%s,%d"),
        ([["a", "b"], [1 / 3, 1 / 3]], "# %s %.12g"),
        ([["key"] * 2, [0.25] * 2], "# %s %.12g"),
        ([np.zeros(N), np.full(N, -0.0), np.full(N, 7)], "%.12g,%.12g,%d"),
        ([np.full(N, math.nan), ["5%"] * N], "%.12g,%s"),
        ([[3], [-0.0], ["x"]], "%d,%.12g,%s"),
        ([[math.inf]], None),
    ], ids=["neg-zero", "mixed-zero", "mixed-zero-both", "nans-infs", "nan-payloads", "int", "str-percent",
            "literal-text", "literal-text-constant", "no-varying-chunks", "no-varying-nan-str", "one-row",
            "one-row-one-column"])
    def test_constant_columns_format_as_per_value(self, columns, fmt):
        assert cli._rows(columns, fmt) == per_value_rows(columns, fmt)

    @pytest.mark.parametrize("columns, fmt", [
        ([[1.0]], "%f"),
        ([[1.0]], "%5.12g"),
        ([[1.0]], "%.12g %%"),
        ([[1.0], [2.0]], "%.12g"),
        ([[1.0]], "%.12g,%.12g"),
        ([[1], ["a"]], "%d %s %s"),
        ([[1.0]], "%(x)s"),
    ])
    def test_rows_reject_fields_other_than_one_per_column(self, columns, fmt):
        with pytest.raises(ValueError):
            cli._rows(columns, fmt)

    @pytest.mark.parametrize("columns", [
        [[1.0, 2.0, 3.0], [4.0, 5.0]],
        [[1.0, 2.0, 3.0], [0.0]],
        [[0.0], [1.0, 2.0]],
        [[0.0, 0.0], [0.0, 0.0], []],
    ], ids=["varying-short", "constant-short", "constant-first", "empty-last"])
    def test_rows_reject_columns_of_different_lengths(self, columns):
        with pytest.raises(ValueError):
            cli._rows(columns)

    def test_long_record_is_formatted_a_chunk_at_a_time(self):
        # 2**17 rows shaped as run.csv: the sample index, then nine float
        # columns of which six hold one value. The memory held only while
        # formatting stays below 1 MB; whole columns at once need about 22 MB.
        n = 2**17
        k = np.arange(n)
        varying = [k * 1e-9] + [np.sin(k * (0.01 * j)) for j in (1, 2, 3)]
        columns = [k, *varying[:2], np.zeros(n), np.zeros(n), varying[2], *[np.zeros(n)] * 3, varying[3]]
        fmt = "%d" + ",%.12g" * 9
        tracemalloc.start()
        try:
            rows = cli._rows(columns, fmt)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == n and rows[-1] == per_value_rows([c[-1:] for c in columns], fmt)[0]
        assert peak - current < 1e6, (peak - current) / 1e6

    def test_polylines_split_at_non_finite_points(self):
        nan, inf = math.nan, math.inf
        chart = cli.Chart("t", "x", "y", [
            ("gaps", [nan, 1, 2, inf, 4, 5, 6, nan], [0.5, 1.0, -2.0, 3.0, nan, 4.0, 1e-9, 2.0]),
            ("ints", [0, 1, 2], [3, 3, 3]),
            ("none", [nan, nan], [1.0, 2.0]),
            ("empty", [], []),
        ])
        lines = cli.render_svg(chart)
        assert lines == per_point_svg(chart)
        assert sum(line.startswith("<polyline") for line in lines) == 3

    def test_constant_and_empty_charts(self):
        for series in ([("flat", [2.0, 2.0], [5.0, 5.0])], [], [("nan", [math.nan], [math.nan])]):
            chart = cli.Chart("t", "x", "y", series)
            assert cli.render_svg(chart) == per_point_svg(chart)
