#!/usr/bin/env python3
"""sdlsim benchmark: whole CLI commands, timed end to end, with a traced
per-layer split.

    python3 benchmark/run.py --workload paper-sweep --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout; the code under test is the
checkout's src/sdlsim (never an installed copy). The loop is closed: one
command at a time, each in a fresh child interpreter (child.py), the next
starting only after the previous one has finished. Commands repeat until
the next one would end after --seconds; at least one always runs.

--trace 0 reports the end-to-end metrics (medians over the run's commands):
  cpu_s               CPU seconds (user + system) of cli.execute
  setup_s             cli.load_config + engine.build_circulator, median of
                      SETUP_REPS repetitions in every child
  lane_samples_per_s  simulated lane-samples (from the workload's inputs)
                      per second of cpu_s
  peak_rss_mb         peak resident memory of a child
The children are single-threaded (CHILD_ENV), so cpu_s is the command's
wall time on an idle host. On a shared virtual machine the wall time also
holds the time the hypervisor gives the core to other guests (steal time;
up to a third of a command's wall time on a 2-vCPU guest), which comes and
goes over minutes; CPU time does not count it. wall_s (host seconds of
cli.execute) is printed for reference but not reported. fail_frac (commands that raised, exited non-zero or
failed the artifact check, over commands run) is printed too and carried by
the result's `attempted`/`failed` counts; it is zero on a correct program,
so it is not a bounded metric.

--trace 1 runs one untraced and one traced command and reports the
per-layer metrics of BENCHMARK.json; the traced spans' self times partition
the traced wall time, which is printed as a table.

Every command's artifacts are checked against reference/ (see check.py).
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

import check

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
INPUT_DIR = BENCH_DIR / "inputs"
TMP_PARENT = ROOT / ".bench_tmp"

SETUP_REPS = 9
# A run must end within 180 s: no command starts a projected overrun, and
# a child still running at the limit is killed and counted as failed.
RUN_LIMIT_S = 170.0
CHILD_TIMEOUT_S = 165.0
# `run` drives a burst with this rise (and fall) time; see cli._cmd_run.
RUN_BURST_RISE_S = 10e-9

# measured-modsweep: periods (samples) on the 8-sample grid around the
# matched optimum 4 * (280 ns + 4 link samples) = 4496, and the number of
# generated line variants the seed chooses from (one reference each).
MOD_PERIODS = (4480, 4496, 4560)
MOD_VARIANTS = 4
MOD_IR_LEN = 1536
# Short windows, so several commands fit one run and their median is
# reported; the levels agree with those of 5+2-period windows within
# 0.01 dB (loss) and 0.2 dB (isolation).
MOD_SETTLE, MOD_MEASURE = 2, 1

# The children run single-threaded: a BLAS pool (the Touchstone FIR's gemv
# is above OpenBLAS's threading threshold) competing for a few shared cores
# measures the scheduler, not the program.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    command: str
    config: str | None  # file under inputs/; None means generated from the seed


WORKLOADS = {
    "ideal-run": Workload("run", "ideal.yaml"),
    "paper-sweep": Workload("sweep", "paper.yaml"),
    "paper-spectrum": Workload("spectrum", "paper.yaml"),
    "measured-modsweep": Workload("modsweep", None),
}


def _bandpass(f: np.ndarray, f0: float, bw: float) -> np.ndarray:
    """Second-order Butterworth band-pass response, unit gain at f0."""
    p = 1j * (f / f0 - f0 / f) * f0 / bw
    return 1.0 / (p * p + math.sqrt(2.0) * p + 1.0)


def _group_delay(f0: float, bw: float) -> float:
    df = 1e3
    h = _bandpass(np.array([f0 - df, f0 + df]), f0, bw)
    return -float(np.angle(h[1] / h[0])) / (2.0 * math.pi * 2.0 * df)


def write_measured_inputs(seed: int, dest: Path) -> Path:
    """Write a measured-style delay line (.s2p) and a config using it.

    The seed picks one of MOD_VARIANTS lines: insertion loss, port
    reflection level and delay, and -60 dB measurement noise vary. Every
    variant builds without an element warning at ir_len MOD_IR_LEN.
    """
    variant = seed % MOD_VARIANTS
    rng = np.random.default_rng(variant)
    il_db = rng.uniform(3.6, 4.4)
    refl_db = rng.uniform(14.0, 20.0)
    refl_delay = rng.uniform(20e-9, 40e-9)
    f0, bw, tau = 155e6, 30e6, 280e-9

    f = np.arange(100e6, 210e6 + 1.0, 0.25e6)
    h = _bandpass(f, f0, bw)
    g = 10.0 ** (-il_db / 20.0)
    s21 = g * h * np.exp(-2j * math.pi * f * (tau - _group_delay(f0, bw)))
    s11 = -(10.0 ** (-refl_db / 20.0)) * h * np.exp(-2j * math.pi * f * refl_delay)
    noise = rng.standard_normal((4, len(f))) + 1j * rng.standard_normal((4, len(f)))
    noise *= g * 1e-3 / math.sqrt(2.0)
    entries = (s11 + noise[0], s21 + noise[1], s21 + noise[2], s11 + noise[3])
    rows = [
        " ".join([f"{fk:.17g}"] + [f"{x:.17g}" for s in entries for x in (s[k].real, s[k].imag)])
        for k, fk in enumerate(f)
    ]
    header = [
        f"! measured-style delay line, benchmark variant {variant}",
        f"! il {il_db:.3f} dB, reflection {refl_db:.3f} dB at {refl_delay * 1e9:.3f} ns",
        "# HZ S RI R 50",
    ]
    (dest / "line.s2p").write_text("\n".join(header + rows) + "\n")

    fmods = ", ".join(repr(4e9 / n) for n in MOD_PERIODS)
    matching = "".join("  - {series_l: 33.0e-9, shunt_c: 18.0e-12}\n" for _ in range(4))
    config = dest / "modsweep.yaml"
    config.write_text(
        "# Measured-line circulator with four L-section matching networks.\n"
        "sample_rate: 4.0e+9\n"
        "line_a: &line\n"
        "  touchstone: line.s2p\n"
        f"  ir_len: {MOD_IR_LEN}\n"
        "line_b: *line\n"
        "switch: {il_on_db: 0.8, iso_off_db: 32.0, t_transition: 2.0e-9, gamma_off: 0.9}\n"
        "schedule: {period: 1.124e-6, duty: 0.5}\n"
        f"matching:\n{matching}"
        "analysis:\n"
        "  drive_dbm: -10.0\n"
        f"  settle_periods: {MOD_SETTLE}\n"
        f"  measure_periods: {MOD_MEASURE}\n"
        "  band: {start: 150.0e+6, stop: 160.0e+6, points: 51}\n"
        f"  fmod_values: [{fmods}]\n"
    )
    return config


def lane_samples(command: str, cfg: dict) -> tuple[int, int, int]:
    """(lanes, simulated lane-samples, measured lane-samples) of a workload,
    from its config and the command's documented windows."""
    fs = float(cfg["sample_rate"])
    an = cfg.get("analysis") or {}
    settle, measure = int(an.get("settle_periods", 10)), int(an.get("measure_periods", 4))
    period = 4 * round(float(cfg["schedule"]["period"]) * fs / 4)
    if command == "sweep":
        lanes = 4 * int(an["band"]["points"])
        return lanes, lanes * (settle + measure) * period, lanes * measure * period
    if command == "spectrum":
        window = int(an.get("spectrum_window_periods", 16))
        return 1, (settle + window) * period, window * period
    if command == "modsweep":
        periods = [4 * round(fs / float(fm) / 4) for fm in an["fmod_values"]]
        lanes = 4 * len(periods)
        total = lanes * (settle + measure) * max(periods)
        return lanes, total, 4 * measure * sum(periods)
    if command == "run":
        n = math.ceil((2 * RUN_BURST_RISE_S + period / fs) * fs) + period
        return 1, n, n
    raise ValueError(f"no lane-sample count for {command!r}")


def host_facts() -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas,
        "child_env": CHILD_ENV,
        "loadavg": list(os.getloadavg()),
    }


def run_child(spec: dict, timeout: float) -> tuple[dict | None, str]:
    """Run child.py; return (report, error). The child is always reaped."""
    env = {k: v for k, v in os.environ.items() if k not in ("SDLSIM_THREADS", "PYTHONPATH")}
    env.update(CHILD_ENV)
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(spec)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=ROOT,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {err.strip()[-2000:]}"
    return json.loads(out.strip().splitlines()[-1]), ""


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(report: dict, untraced_cpu: float, work: tuple[int, int, int]) -> dict:
    """Per-layer metrics from one traced child's aggregated spans."""
    spans = report["trace"]
    setup = report["setup_trace"]
    reps = len(report["setup_s"])

    def total(name, part=1, tree=spans):
        return tree.get(name, [0, 0, 0, 0])[part]

    def layer_self(prefix):
        return sum(s[2] for name, s in spans.items() if name.startswith(prefix))

    def per_lane_sample(name):
        s = spans.get(name)
        return s[2] / s[3] if s and s[3] else 0.0

    lanes, simulated, measured = work
    step_calls = total("engine.step", 0)
    analysis_self = layer_self("analysis.")
    return {
        "elements.delay_line_ns": _metric(per_lane_sample("elements.delay_line"), "ns"),
        "elements.band_filter_ns": _metric(report["band_filter_ns"], "ns"),
        "elements.crossbar_ns": _metric(per_lane_sample("elements.crossbar"), "ns"),
        "elements.matching_ns": _metric(per_lane_sample("elements.matching"), "ns"),
        "elements.touchstone_ns": _metric(per_lane_sample("elements.touchstone"), "ns"),
        "engine.step_calls": _metric(step_calls, "count"),
        "engine.step_self_ns": _metric(total("engine.step", 2) / step_calls if step_calls else 0.0, "ns"),
        "engine.run_self_s": _metric(total("engine.run", 2) / 1e9, "s"),
        "engine.build_s": _metric(total("engine.build", 1, setup) / reps / 1e9, "s"),
        "cli.load_config_s": _metric(total("cli.load_config", 1, setup) / reps / 1e9, "s"),
        "touchstone.parse_s": _metric(total("touchstone.parse", 1, setup) / reps / 1e9, "s"),
        "analysis.self_ns": _metric(analysis_self / simulated if analysis_self else 0.0, "ns"),
        "analysis.lane_samples": _metric(simulated, "count"),
        "analysis.measured_frac": _metric(measured / simulated, "frac"),
        "analysis.unsettled_lanes": _metric(report["stderr"].count("not settled"), "count"),
        "cli.write_s": _metric(total("cli.write", 2) / 1e9, "s"),
        "cli.bytes_written": _metric(report["bytes_written"], "bytes"),
        "cli.self_s": _metric(total("cli.execute", 2) / 1e9, "s"),
        "schedule.self_s": _metric(layer_self("schedule.") / 1e9, "s"),
        "signals.self_s": _metric(layer_self("signals.") / 1e9, "s"),
        "trace.wall_s": _metric(total("cli.execute", 1) / 1e9, "s"),
        "trace.overhead_frac": _metric(report["cpu_s"] / untraced_cpu - 1.0, "frac"),
    }


def print_partition(spans: dict) -> None:
    """Self time of every span under cli.execute; the rows sum to its wall."""
    wall = spans["cli.execute"][1]
    print(f"{'span':28s} {'calls':>10s} {'total_s':>10s} {'self_s':>10s} {'self%':>7s}")
    for name, (calls, tot, self_ns, _) in sorted(spans.items(), key=lambda kv: -kv[1][2]):
        print(f"{name:28s} {calls:10d} {tot / 1e9:10.4f} {self_ns / 1e9:10.4f} {100 * self_ns / wall:6.2f}%")
    covered = sum(s[2] for s in spans.values())
    print(f"{'sum of self times':28s} {'':10s} {'':10s} {covered / 1e9:10.4f} (traced wall {wall / 1e9:.4f} s)")
    if covered != wall:
        raise RuntimeError("span self times do not partition the traced wall time")


def measure(name: str, seed: int, seconds: float, trace: bool, ref_root: Path = check.REFERENCE_DIR) -> dict:
    """Run one workload and return the benchmark result object."""
    workload = WORKLOADS[name]
    started = time.monotonic()
    TMP_PARENT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=TMP_PARENT))
    reports, failures = [], []
    try:
        if workload.config is None:
            config = write_measured_inputs(seed, tmp)
            ref_dir = ref_root / name / f"v{seed % MOD_VARIANTS}"
        else:
            config = INPUT_DIR / workload.config
            ref_dir = ref_root / name
        cfg = yaml.safe_load(config.read_text())
        work = lane_samples(workload.command, cfg)
        drive_amp = check.dbm_to_amplitude(float(cfg["analysis"]["drive_dbm"]))

        def run_command(traced: bool) -> None:
            out_dir = tmp / f"out{len(reports) + len(failures)}"
            spec = {
                "root": str(ROOT),
                "config": str(config),
                "command": workload.command,
                "out": str(out_dir),
                "setup_reps": SETUP_REPS,
                "trace": traced,
                "lanes": work[0],
            }
            remaining = RUN_LIMIT_S - (time.monotonic() - started)
            report, error = run_child(spec, min(CHILD_TIMEOUT_S, remaining))
            if report is not None:
                problems = check.check_outputs(out_dir, report["written"], ref_dir, drive_amp)
                if report["element_warnings"]:
                    problems.append("element warnings: " + "; ".join(report["element_warnings"]))
                error = "; ".join(problems)
            shutil.rmtree(out_dir, ignore_errors=True)
            if error:
                failures.append(error)
                print(f"FAILED: {error}", file=sys.stderr)
            else:
                reports.append(report)

        if trace:
            run_command(False)
            run_command(True)
        else:
            while True:
                run_command(False)
                done = len(reports) + len(failures)
                next_end = (time.monotonic() - started) * (done + 1) / done
                if next_end > min(seconds, RUN_LIMIT_S):
                    break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = len(reports) + len(failures)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": {}}
    untraced = [r for r in reports if "trace" not in r]
    traced = [r for r in reports if "trace" in r]
    print(f"workload {name} seed {seed}: {attempted} commands")
    if not untraced or trace and not traced:
        return result
    cpu = statistics.median(r["cpu_s"] for r in untraced)
    if trace:
        print_partition(traced[0]["trace"])
        result["metrics"] = layer_metrics(traced[0], cpu, work)
    else:
        result["metrics"] = {
            "cpu_s": _metric(cpu, "s"),
            "setup_s": _metric(statistics.median(s for r in reports for s in r["setup_s"]), "s"),
            "lane_samples_per_s": _metric(work[1] / cpu, "1/s"),
            "peak_rss_mb": _metric(max(r["peak_rss_mb"] for r in reports), "MB"),
        }
        print(f"  {'fail_frac':26s} {len(failures) / attempted:.6g} frac")
        print(f"  {'wall_s (not reported)':26s} {statistics.median(r['wall_s'] for r in untraced):.6g} s")
    for key, m in result["metrics"].items():
        print(f"  {key:26s} {m['value']:.6g} {m['unit']}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "sdlsim" / "__init__.py").is_file():
        print(f"error: no sdlsim source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2

    facts = host_facts()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    facts["loadavg_after"] = list(os.getloadavg())
    print("host " + json.dumps(facts))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
