"""The scripts under scripts/ run against the package as it stands, so a
renamed or removed field they read fails here rather than for their user."""

import runpy
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_reproduce_paper_runs(tmp_path, monkeypatch, capsys):
    # The ideal network on a short band and short windows keeps this quick.
    text = (ROOT / "configs" / "ideal.yaml").read_text()
    for old, new in [
        ("points: 51", "points: 5"),
        ("settle_periods: 10", "settle_periods: 1"),
        ("measure_periods: 4", "measure_periods: 1"),
    ]:
        assert old in text
        text = text.replace(old, new)
    cfg = tmp_path / "ideal.yaml"
    cfg.write_text(text)
    out_dir = tmp_path / "out"
    argv = ["reproduce_paper.py", "--config", str(cfg), "--out", str(out_dir)]
    monkeypatch.setattr(sys, "argv", argv)
    monkeypatch.setattr(sys, "path", list(sys.path))

    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(ROOT / "scripts" / "reproduce_paper.py"), run_name="__main__")

    assert done.value.code == 0
    out = capsys.readouterr().out
    assert f" from {cfg}\n" in out
    for command in ("sweep", "spectrum", "modsweep"):
        assert f"== {command} ==" in out
        assert (out_dir / f"{command}.csv").is_file()
