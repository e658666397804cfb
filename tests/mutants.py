#!/usr/bin/env python3
"""Mutation checks kept with the tests: each mutant must fail its tests.

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py NAME ...   # the named ones

Each mutant replaces one exact piece of text in one file of a temporary
copy of the checkout and runs the test files expected to kill it there
(pytest -x, one BLAS thread). A mutant whose tests still pass survives,
and so does one whose text is not found exactly once: the script then
exits 1. A mutant is never removed to make this pass; when a change
deletes the mutated code, the mutant goes with it and the change says so.

pytest does not collect this file (its name does not start with test_).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file, exact old text, new text, test files expected to kill it)
MUTANTS = [
    (
        "port period always P/2",
        "src/sdlsim/analysis.py",
        "return p // 2 if mirror and 2 * round(schedule.duty * p) == p else p",
        "return p // 2",
        ["tests/test_analysis.py"],
    ),
    (
        "port period never P/2",
        "src/sdlsim/analysis.py",
        "return p // 2 if mirror and 2 * round(schedule.duty * p) == p else p",
        "return p",
        ["tests/test_analysis.py"],
    ),
    (
        "at_grid_edge needs both edges",
        "src/sdlsim/analysis.py",
        "(lo == 0 or hi == len(freqs) - 1)",
        "(lo == 0 and hi == len(freqs) - 1)",
        ["tests/test_analysis.py"],
    ),
    (
        "aliasing threshold 1.5 pi",
        "src/sdlsim/analysis.py",
        "dphi >= 0.95 * math.pi",
        "dphi >= 1.5 * math.pi",
        ["tests/test_analysis.py"],
    ),
    (
        "non-passive tolerance 1e-2",
        "src/sdlsim/elements.py",
        "sv > 1.0 + 1e-6",
        "sv > 1.0 + 1e-2",
        ["tests/test_elements.py"],
    ),
    (
        "truncation warning at 10%",
        "src/sdlsim/elements.py",
        "self.energy_loss > 1e-3",
        "self.energy_loss > 1e-1",
        ["tests/test_elements.py"],
    ),
    (
        "return loss from the best point",
        "src/sdlsim/analysis.py",
        "rl = {p: float(np.min(level_db[band, p - 1, p - 1]))",
        "rl = {p: float(np.max(level_db[band, p - 1, p - 1]))",
        ["tests/test_analysis.py"],
    ),
]

SKIP = shutil.ignore_patterns(".git", "out", ".bench_tmp", "__pycache__", ".hypothesis", ".pytest_cache")


def killed(name: str, file: str, old: str, new: str, tests: list[str], scratch: Path) -> str | None:
    """Why the mutant survives, or None when its tests fail."""
    copy = scratch / "tree"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(ROOT, copy, ignore=SKIP)
    path = copy / file
    text = path.read_text()
    if text.count(old) != 1:
        return f"its text occurs {text.count(old)} times in {file}"
    path.write_text(text.replace(old, new))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=copy, env=env, capture_output=True, text=True,
    )
    if run.returncode == 1:
        return None
    if run.returncode == 0:
        return f"{' '.join(tests)} pass"
    return f"pytest exited {run.returncode}: {run.stdout[-400:]}{run.stderr[-400:]}"


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m[0] in argv]
    unknown = set(argv) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    survivors = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        for name, *mutant in chosen:
            started = time.monotonic()
            why = killed(name, *mutant, Path(tmp))
            verdict = "killed" if why is None else f"SURVIVED ({why})"
            print(f"{name}: {verdict} in {time.monotonic() - started:.1f} s", flush=True)
            survivors += why is not None
    print(f"{len(chosen) - survivors} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
