"""One timed CLI command in a fresh interpreter.

Started by run.py with a JSON spec as its only argument. It imports
sdlsim from the checkout's src/, times `cli.load_config` +
`engine.build_circulator` several times (import time excluded), then times
one `cli.execute` call (wall and CPU time), and prints a JSON report as the
last line of its standard output. With "trace" set, the public entry points of every layer
are wrapped first (see Tracer) and the report carries the aggregated spans.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import io
import json
import resource
import sys
import time
from pathlib import Path


class Tracer:
    """Aggregated spans: count, total and self time per span name.

    Every wrapped call pushes a child-time slot; on return its duration is
    added to the caller's slot, so self = duration - time in wrapped
    callees. Self times of all spans under one root therefore sum exactly
    (integer nanoseconds) to the root's duration. Nothing is kept per call.
    """

    def __init__(self):
        # name -> [calls, total_ns, self_ns, lane_samples]
        self.stats: dict[str, list[int]] = {}
        self._stack = [0]

    def wrap(self, name, fn, lanes=None):
        stats = self.stats.setdefault(name, [0, 0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                inner = stack.pop()
                stack[-1] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - inner
                if lanes is not None:
                    stats[3] += lanes(args)

        return traced

    def reset(self):
        for s in self.stats.values():
            s[:] = [0, 0, 0, 0]
        self._stack[:] = [0]

    def snapshot(self) -> dict:
        return {name: list(s) for name, s in self.stats.items() if s[0]}


def _self_lanes(args):
    return args[0].lanes


def _incident_lanes(args):
    return args[0].shape[-1]


def install(tracer: Tracer) -> None:
    """Rebind each traced entry point in every module that looks it up."""
    from sdlsim import analysis, cli, elements, engine

    def rebind(modules, attr, name, lanes=None):
        fn = getattr(modules[0], attr)
        traced = tracer.wrap(name, fn, lanes)
        for mod in modules:
            setattr(mod, attr, traced)

    def rebind_method(cls, attr, name, lanes):
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(tracer.wrap(name, raw.__func__, lanes)))
        else:
            setattr(cls, attr, tracer.wrap(name, raw, lanes))

    rebind([cli], "load_config", "cli.load_config")
    rebind([cli], "parse_touchstone", "touchstone.parse")
    rebind([engine, analysis, cli], "build_circulator", "engine.build")
    rebind([engine], "run", "engine.run")
    rebind([cli], "run_network", "engine.run")
    for entry in ("sparams_sweep", "spectrum_probe", "modfreq_sweep"):
        rebind([analysis, cli], entry, f"analysis.{entry}")
    for mods, fn in (
        ([analysis, cli], "build_schedule"),
        ([engine], "trace_for"),
        ([cli], "validate_schedule"),
    ):
        rebind(mods, fn, f"schedule.{fn}")
    for mods, fn in (
        ([analysis], "make_tone"),
        ([cli], "make_burst"),
        ([analysis, cli], "dbm_to_amplitude"),
        ([analysis], "amplitude_to_dbm"),
    ):
        rebind(mods, fn, f"signals.{fn}")
    rebind_method(engine.CirculatorNetwork, "step", "engine.step", _self_lanes)
    rebind_method(elements.CrossbarElement, "step_with", "elements.crossbar", _incident_lanes)
    rebind_method(elements.DelayLineElement, "step", "elements.delay_line", _self_lanes)
    rebind_method(elements.MatchingElement, "step", "elements.matching", _self_lanes)
    rebind_method(elements.TouchstoneElement, "step", "elements.touchstone", _self_lanes)
    # Artifact writes: every CLI file goes through Path.write_text.
    Path.write_text = tracer.wrap("cli.write", Path.write_text)


def band_filter_ns(config, lanes: int, steps: int = 400, reps: int = 7) -> float:
    """Cost of the band filter per line lane-sample, averaged over both
    lines: a banded line's step minus the same line made flat, each stepped
    directly at the workload's lane count. Flat lines count as zero."""
    import numpy as np
    from sdlsim.elements import DelayLineElement, DelayLineSpec

    incident = np.random.default_rng(0).standard_normal((2, lanes))

    def filter_cost(spec) -> float:
        pair = (
            DelayLineElement(spec, config.sample_rate),
            DelayLineElement(dataclasses.replace(spec, bandwidth=None), config.sample_rate),
        )
        diffs = []
        for _ in range(reps):
            times = []
            for el in pair:
                el.reset(lanes)
                t0 = time.perf_counter_ns()
                for _ in range(steps):
                    el.step(incident)
                times.append(time.perf_counter_ns() - t0)
            diffs.append((times[0] - times[1]) / (steps * lanes))
        return sorted(diffs)[reps // 2]

    lines = (config.line_a, config.line_b)
    costs = {}
    for line in lines:
        banded = isinstance(line, DelayLineSpec) and line.bandwidth is not None and line.band_order > 0
        if banded and line not in costs:
            costs[line] = filter_cost(line)
    return sum(costs.get(line, 0.0) for line in lines if isinstance(line, DelayLineSpec)) / 2


def main(spec: dict) -> dict:
    root = Path(spec["root"])
    src = root / "src"
    sys.path.insert(0, str(src))
    import sdlsim
    from sdlsim import cli, engine

    module_dir = Path(sdlsim.__file__).resolve().parent
    if module_dir != (src / "sdlsim").resolve():
        raise RuntimeError(f"imported sdlsim from {module_dir}, not from {src}")

    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        install(tracer)

    setup_s = []
    for _ in range(spec["setup_reps"]):
        t0 = time.perf_counter()
        config = cli.load_config(spec["config"])
        network = engine.build_circulator(config)
        setup_s.append(time.perf_counter() - t0)
    element_warnings = [
        f"{name}: {w}" for name, el in network.elements.items() for w in el.warnings
    ]
    setup_trace = None
    if tracer is not None:
        setup_trace = tracer.snapshot()
        tracer.reset()

    execute = cli.execute
    if tracer is not None:
        execute = tracer.wrap("cli.execute", execute)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0, c0 = time.perf_counter(), time.process_time()
        written = execute(spec["command"], config, spec["out"])
        wall_s, cpu_s = time.perf_counter() - t0, time.process_time() - c0

    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "written": sorted(Path(p).name for p in written),
        "bytes_written": sum(Path(p).stat().st_size for p in written),
        "element_warnings": element_warnings,
        "stderr": err.getvalue(),
    }
    if tracer is not None:
        report["setup_trace"] = setup_trace
        report["trace"] = tracer.snapshot()
        report["band_filter_ns"] = band_filter_ns(config, spec["lanes"])
    return report


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
