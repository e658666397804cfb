"""scipy is loaded only where a matching section is built: networks without
matching run on numpy alone, and a matched network imports scipy while it
is built, never while it steps. No command imports a module once its
config is loaded and its network built."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAPER = ROOT / "configs" / "paper.yaml"
IDEAL = ROOT / "configs" / "ideal.yaml"


def run_python(code: str) -> dict:
    """Run code in a fresh interpreter on this checkout's src; its last
    line of output is JSON."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)], capture_output=True, text=True, env=env, check=True
    )
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_spectrum_without_matching_never_imports_scipy(tmp_path):
    # Neither does any command import a module once the configs are loaded
    # and built: numpy.ma, say, costs a single-lane spectrum about 9 ms.
    loaded = run_python(
        f"""
        import json, sys
        import sdlsim
        from sdlsim.cli import execute, load_config, main
        from sdlsim.engine import build_circulator

        paper, ideal = load_config({str(PAPER)!r}), load_config({str(IDEAL)!r})
        build_circulator(paper), build_circulator(ideal)
        before = set(sys.modules)
        execute("sweep", paper, {str(tmp_path)!r}, freq_points=3)
        execute("spectrum", paper, {str(tmp_path)!r})
        execute("modsweep", paper, {str(tmp_path)!r}, fmod=[877193.0, 891266.0])
        execute("run", ideal, {str(tmp_path)!r})
        added = sorted(set(sys.modules) - before)
        assert main(["spectrum", "--config", {str(PAPER)!r}, "--out", {str(tmp_path)!r}]) == 0
        print(json.dumps([added, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
        """
    )
    assert loaded == [[], []]


def test_matched_network_imports_scipy_in_build_not_in_advance():
    seen = run_python(
        f"""
        import dataclasses, json, sys
        import numpy as np
        from sdlsim.cli import load_config
        from sdlsim.elements import MatchSpec
        from sdlsim.engine import build_circulator

        def scipy_modules():
            return {{m for m in sys.modules if m.split(".")[0] == "scipy"}}

        config = dataclasses.replace(load_config({str(PAPER)!r}), matching=MatchSpec(33e-9, 18e-12))
        before = scipy_modules()
        net = build_circulator(config)
        built = scipy_modules()
        net.reset(2)
        net.advance(np.random.default_rng(0).standard_normal((4, 2, 1500)))
        net.step(np.ones((4, 2)))
        print(json.dumps([sorted(before), "scipy.signal" in built, sorted(scipy_modules() - built)]))
        """
    )
    assert seen == [[], True, []]
