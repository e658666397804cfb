"""End-to-end checks of the YAML config loader and the command-line tool."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest
import yaml

from sdlsim.cli import TouchstoneLineRef, execute, load_config, main
from sdlsim.elements import DelayLineSpec, MatchSpec
from sdlsim.engine import build_circulator
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

    def test_aliased_line_parsed_and_designed_once(self):
        cfg = load_config(CONFIG_DIR / "paper.yaml")
        assert cfg.line_b is cfg.line_a
        net = build_circulator(cfg)
        assert net.line_b is not net.line_a
        x = np.ones((2, 1, 5))
        # line_b's state is its own: stepping line_a first leaves it at rest.
        first = net.line_a.step(x)
        assert np.array_equal(net.line_b.step(x), first)

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
        text = write_touchstone(TouchstoneData(freqs, s, unit="HZ", format="RI"))
        (tmp_path / "line.s2p").write_text(text)
        path = write_config(
            tmp_path, line_a={"touchstone": "line.s2p", "ir_len": 4096}
        )
        cfg = load_config(path)
        assert isinstance(cfg.line_a, TouchstoneLineRef)
        assert cfg.line_a.ir_len == 4096
        assert len(cfg.line_a.data.frequencies) == 31
        assert isinstance(cfg.line_b, DelayLineSpec)

    def test_digest_tracks_content(self, tmp_path):
        a = load_config(write_config(tmp_path, name="a.yaml"))
        b = load_config(write_config(tmp_path, name="b.yaml"))
        c = load_config(write_config(tmp_path, name="c.yaml", sample_rate=2.0e9))
        assert a.digest == b.digest
        assert a.digest != c.digest


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

    def test_spectrum_rows(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
        rows = data_rows(out / "spectrum.csv")
        assert rows[0] == ["port", "order", "frequency_hz", "power_dbm"]
        assert len(rows) - 1 == 4 * 11
        for port in "1234":
            assert sum(r[0] == port for r in rows[1:]) == 11

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
