"""The README's library example runs as written, so the signatures it
documents cannot drift from the package."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_use_block_runs(monkeypatch, capsys):
    section = (ROOT / "README.md").read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(ROOT)
    exec(compile(code, "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert "MHz above 27.0 dB" in out
    assert out.count("f_mod ") == 2
