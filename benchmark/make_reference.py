#!/usr/bin/env python3
"""Regenerate reference/ from the checkout's current code.

    python3 benchmark/make_reference.py [workload ...]

The stored references were written by the seed code; regenerate them only
when a change is meant to alter the artifacts, and say why in CHANGES.md.
"""

from __future__ import annotations

import gzip
import shutil
import sys
import tempfile
from pathlib import Path

import run
from check import REFERENCE_DIR


def write_reference(name: str, variant: int | None) -> None:
    workload = run.WORKLOADS[name]
    run.TMP_PARENT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="ref-", dir=run.TMP_PARENT))
    try:
        if variant is None:
            config, dest = run.INPUT_DIR / workload.config, REFERENCE_DIR / name
        else:
            config, dest = run.write_measured_inputs(variant, tmp), REFERENCE_DIR / name / f"v{variant}"
        spec = {
            "root": str(run.ROOT), "config": str(config), "command": workload.command,
            "out": str(tmp / "out"), "setup_reps": 1, "trace": False, "lanes": 1,
        }
        report, error = run.run_child(spec, run.CHILD_TIMEOUT_S)
        if report is None or report["element_warnings"]:
            raise SystemExit(f"{name}: {error or report['element_warnings']}")
        dest.mkdir(parents=True, exist_ok=True)
        for old in dest.glob("*.gz"):
            old.unlink()
        for fname in report["written"]:
            data = (tmp / "out" / fname).read_bytes()
            (dest / f"{fname}.gz").write_bytes(gzip.compress(data, mtime=0))
        print(f"{dest.relative_to(REFERENCE_DIR)}: {', '.join(report['written'])}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(run.WORKLOADS):
        if run.WORKLOADS[name].config is None:
            for variant in range(run.MOD_VARIANTS):
                write_reference(name, variant)
        else:
            write_reference(name, None)
