"""Block stepping: any split of a run into advance calls gives bit-identical
waves on bare networks and agrees with per-sample stepping within 1e-12 on
matched ones; any split of an element's input into blocks gives
bit-identical waves."""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import platform
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from conftest import measured_line
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdlsim.analysis import modfreq_sweep, sparams_sweep, spectrum_probe
from sdlsim.cli import load_config
from sdlsim.elements import (
    LINE_A,
    LINE_B,
    MAX_BLOCK,
    CrossbarElement,
    DelayLineElement,
    DelayLineSpec,
    MatchingElement,
    MatchSpec,
    SwitchSpec,
    TouchstoneElement,
    TouchstoneLineRef,
    block_limit,
)
from sdlsim.engine import CirculatorNetwork, _LaneControl, build_circulator
from sdlsim.schedule import build_schedule, trace_for

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
FS = 4e9
# Long enough to cross two switch transitions of each crossbar on paper.yaml
# (period 4560 samples, one transition every 1140).
N_SAMPLES = 2600


def network(name: str):
    paper = load_config(CONFIG_DIR / "paper.yaml")
    if name.startswith("matched"):
        paper = dataclasses.replace(paper, matching=MatchSpec(33e-9, 18e-12))
        name = name.removeprefix("matched").removeprefix("-") or "paper"
    if name == "ideal":
        return build_circulator(load_config(CONFIG_DIR / "ideal.yaml"))
    if name == "paper":
        return build_circulator(paper)
    if name == "touchstone":
        ref = TouchstoneLineRef(measured_line(), ir_len=256)
        return build_circulator(dataclasses.replace(paper, line_a=ref, line_b=ref))
    if name == "per-lane":
        net = build_circulator(paper)
        net.set_lane_schedules(per_lane_schedules())
        return net
    raise ValueError(name)


def per_lane_schedules():
    return [build_schedule(1.14e-6, 2e-9, 0.5, FS), build_schedule(1.12e-6, 2e-9, 0.5, FS)]


NETWORKS = ("ideal", "paper", "touchstone", "per-lane")
MATCHED = ("matched", "matched-touchstone", "matched-per-lane")
_WHOLE: dict[str, tuple[np.ndarray, np.ndarray]] = {}
_PER_SAMPLE: dict[str, np.ndarray] = {}


def stimulus(lanes: int) -> np.ndarray:
    return np.random.default_rng(7).standard_normal((4, lanes, N_SAMPLES)) * 0.1


def whole_run(name: str) -> tuple[np.ndarray, np.ndarray]:
    """(stimulus, output) of one advance call over the whole run."""
    if name not in _WHOLE:
        net = network(name)
        lanes = 2 if name.endswith("per-lane") else 3
        net.reset(lanes)
        ext = stimulus(lanes)
        _WHOLE[name] = ext, net.advance(ext)
    return _WHOLE[name]


def per_sample_run(name: str) -> np.ndarray:
    """Output of the whole run stepped one sample at a time."""
    if name not in _PER_SAMPLE:
        ext, _ = whole_run(name)
        net = network(name)
        net.reset(ext.shape[1])
        _PER_SAMPLE[name] = np.stack([net.step(ext[:, :, n]) for n in range(N_SAMPLES)], axis=2)
    return _PER_SAMPLE[name]


def split_run(name: str, chunks: list[int]) -> np.ndarray:
    """Output of the whole run advanced in chunks of the given lengths, cycled."""
    ext, _ = whole_run(name)
    net = network(name)
    net.reset(ext.shape[1])
    parts, start, k = [], 0, 0
    while start < N_SAMPLES:
        stop = min(N_SAMPLES, start + chunks[k % len(chunks)])
        parts.append(net.advance(ext[:, :, start:stop]))
        start, k = stop, k + 1
    assert net.sample_index == N_SAMPLES
    return np.concatenate(parts, axis=2)


SPLITS = st.lists(st.integers(1, 3 * MAX_BLOCK), min_size=1, max_size=12)


@pytest.mark.parametrize("name", NETWORKS)
@settings(max_examples=6, deadline=None)
@given(chunks=SPLITS)
@example(chunks=[1])
@example(chunks=[2 * block_limit(2) + 1])  # longer than the block limit of 2 and 3 lanes
def test_advance_split_anywhere_is_bit_identical(name, chunks):
    _, expected = whole_run(name)
    assert np.array_equal(split_run(name, chunks), expected)


@pytest.mark.parametrize("name", MATCHED)
@settings(max_examples=6, deadline=None)
@given(chunks=SPLITS)
@example(chunks=[N_SAMPLES])
@example(chunks=[2 * block_limit(2) + 1])
def test_matched_split_anywhere_matches_per_sample_steps(name, chunks):
    # Each block closes its match-line loops with a solve, so blocks agree
    # with one-sample steps to rounding, not bit for bit.
    ext, _ = whole_run(name)
    out = split_run(name, chunks)
    assert np.max(np.abs(out - per_sample_run(name))) <= 1e-12 * np.max(np.abs(ext))


def test_step_is_one_sample_advance():
    ext, expected = whole_run("paper")
    net = network("paper")
    net.reset(ext.shape[1])
    out = np.stack([net.step(ext[:, :, n]) for n in range(300)], axis=2)
    assert np.array_equal(out, expected[:, :, :300])


def count_blocks(net) -> list[int]:
    """Lengths of the blocks the network runs, recorded from now on."""
    sizes = []
    block = net._block

    def counted(ext):
        sizes.append(ext.shape[2])
        return block(ext)

    net._block = counted
    return sizes


def reflecting(xbar: CrossbarElement, schedules, n: int) -> np.ndarray:
    """Mask of the samples 0..n-1 at which a line port of either crossbar
    reflects on any of the schedules."""
    reflects = np.zeros(n, dtype=bool)
    for sched in schedules:
        for side in ("left", "right"):
            reflects |= xbar.coefficients(trace_for(sched, side, n))[2] != 0.0
    return reflects


def test_one_lane_settled_spans_run_as_long_blocks():
    # ideal.yaml never reflects at a line port, so a one-lane run is
    # limited only by the lane-sample budget; 9,056 samples is `run`'s length.
    net = network("ideal")
    net.reset(1)
    sizes = count_blocks(net)
    net.advance(np.zeros((4, 1, 9056)))
    assert sum(sizes) == 9056
    assert len(sizes) <= math.ceil(9056 / block_limit(1)) + 1
    assert max(sizes) == block_limit(1) == 2048


def test_many_lanes_keep_the_block_floor():
    net = network("ideal")
    net.reset(204)
    sizes = count_blocks(net)
    net.advance(np.zeros((4, 204, 300)))
    assert block_limit(204) == MAX_BLOCK == 64
    assert sizes == [64, 64, 64, 64, 44]


def test_floor_blocks_end_at_the_budget():
    # At 204 lanes a block is block_limit's 64-sample floor, cut short only
    # at the run's end or at a sample where a line port reflects, which on
    # this bare network ends the block; no block holds one inside. The
    # engine does not cut on the elements' frame grid: the analysis kernel's
    # chunks keep to it (test_sweep_chunks_keep_the_frame_grid).
    net = network("paper")
    net.reset(204)
    reflects = reflecting(net.left, [net.schedule], N_SAMPLES + 1)
    sizes = count_blocks(net)
    net.advance(np.zeros((4, 204, N_SAMPLES)))
    assert sum(sizes) == N_SAMPLES
    starts = np.cumsum([0] + sizes[:-1])
    for n, b in zip(starts.tolist(), sizes):
        assert not reflects[n + 1 : n + b - 1].any()
        assert b == MAX_BLOCK or n + b == N_SAMPLES or reflects[n + b - 1]
    assert sizes.count(MAX_BLOCK) >= N_SAMPLES // MAX_BLOCK - 10


def test_sweep_chunks_keep_the_frame_grid(monkeypatch):
    # The 204-lane paper sweep hands the engine chunks cut on the same
    # 64-sample grid as its frames (and at period edges and stops), so a
    # block ends only at a frame edge, at a sample where a line port
    # reflects or at a period edge: no frame is cut in two for a chunk.
    # Chunks counted from each period edge instead (P = 4,560 = 71 * 64 +
    # 16) fail this where period 1's first chunk ends, at sample 4,624,
    # though they run as many blocks (440).
    cfg = load_config(CONFIG_DIR / "paper.yaml")
    blocks = []
    block = CirculatorNetwork._block

    def counted(self, ext):
        blocks.append((self.sample_index, ext.shape[2]))
        return block(self, ext)

    monkeypatch.setattr(CirculatorNetwork, "_block", counted)
    grid = sparams_sweep(cfg, np.linspace(*cfg.band))
    assert grid.s.shape[0] * 4 >= 32
    period = cfg.schedule.period_samples
    stop = (cfg.settle_periods + cfg.measure_periods) * period
    stepped = sum(b for _, b in blocks)
    reflects = reflecting(CrossbarElement(cfg.switch), [cfg.schedule], stepped + 1)
    for n, b in blocks:
        end = n + b
        assert end % MAX_BLOCK == 0 or reflects[end - 1] or end % period == 0 or end == stop
    frames = -(-stepped // MAX_BLOCK)
    assert len(blocks) <= frames + reflects[:stepped].sum() + stepped // period
    assert len(blocks) == 440


@pytest.mark.parametrize("name", ("paper", "per-lane") + MATCHED)
def test_only_bare_blocks_end_on_a_reflecting_sample(name):
    # A bare network's block may end on a sample where a line port
    # reflects, so its switch transitions run as two-sample blocks and a
    # one-sample block is left only at the run's end. A matched network's
    # block never ends on one past its first sample (closing its loops over
    # such a block would take a trial pass): its transitions run as
    # one-sample blocks.
    ext, _ = whole_run(name)
    net = network(name)
    net.reset(ext.shape[1])
    schedules = per_lane_schedules() if name.endswith("per-lane") else [net.schedule]
    reflects = reflecting(net.left, schedules, N_SAMPLES)
    sizes = count_blocks(net)
    net.advance(ext)
    ends = (np.cumsum(sizes) - 1).tolist()
    ends_hot = sum(b > 1 and reflects[end] for b, end in zip(sizes, ends))
    if name in MATCHED:
        assert ends_hot == 0
        assert sizes.count(1) >= reflects.sum() // 2
    else:
        assert ends_hot >= reflects.sum() // 2
        assert 1 not in sizes[:-1]


def one_sample_transitions(self, limit: int) -> int:
    """CirculatorNetwork._span with every block ending before a sample
    where a line port reflects, so that one starts a block of its own."""
    return min(limit, self._limit, 1 + self._ctl.quiet_from(self._n + 1))


def test_blocks_ending_on_a_reflecting_sample_are_bit_identical(monkeypatch):
    # A bare block may end on a sample where a line port reflects, its
    # reflected wave added once the block has stepped. Stepped instead with
    # the transitions' reflecting samples each starting a block, paper.yaml's
    # spectrum (96 blocks against 176) and a 3-point sweep emit the same
    # waves, bit for bit, and the same lines and S.
    cfg = load_config(CONFIG_DIR / "paper.yaml")
    advance, block = CirculatorNetwork.advance, CirculatorNetwork._block
    digests, blocks = [], []

    def hashed(self, ext):
        out = advance(self, ext)
        digests[-1].update(out.tobytes())
        return out

    def counted(self, ext):
        blocks[-1] += 1
        return block(self, ext)

    monkeypatch.setattr(CirculatorNetwork, "advance", hashed)
    monkeypatch.setattr(CirculatorNetwork, "_block", counted)
    results, spectrum_blocks = [], []
    for span in (CirculatorNetwork._span, one_sample_transitions):
        monkeypatch.setattr(CirculatorNetwork, "_span", span)
        digests.append(hashlib.sha256())
        blocks.append(0)
        report = spectrum_probe(cfg, 155e6)
        spectrum_blocks.append(blocks[-1])
        results.append((report, sparams_sweep(cfg, [150e6, 155e6, 160e6]).s))
    assert spectrum_blocks == [96, 176]
    assert blocks[0] < blocks[1]
    assert digests[0].digest() == digests[1].digest()
    assert results[0][0] == results[1][0]
    assert np.array_equal(results[0][1], results[1][1])


def test_no_wave_added_where_no_line_port_reflects():
    # The port-side call adds the waves reflected at a block's last sample
    # only when a line port reflects there: adding refl * x = 0 * x would
    # turn a line-side output of -0.0 into 0.0, or, with an infinite wave
    # at the line port, into NaN. ideal.yaml's line ports never reflect.
    net = network("ideal")
    net.reset(1)
    inc = np.full((net._n_slots, 1, 3), np.inf)
    wave = np.full_like(inc, -0.0)
    with np.errstate(invalid="ignore"):  # the port-side mixes: 0 * inf
        net._crossbars(inc, wave, net._ctl.block(0, 3), "port")
    rows = [net._rows[f"{side}_crossbar"][port] for side in ("left", "right") for port in (LINE_A, LINE_B)]
    assert np.signbit(wave[rows]).all() and not np.isnan(wave[rows]).any()


def test_measured_modsweep_block_count(monkeypatch):
    # The benchmark's measured modsweep (seed 1) layout: one Touchstone
    # design at both line positions, one L-section at all four, per-lane
    # periods of 4480, 4496 and 4560 samples and 2 + 1-period windows, on 6
    # lanes; its blocks do not depend on the line's data. A matched network
    # keeps one-sample transition blocks, so it runs the 333 blocks it ran
    # before bare blocks could end on a reflecting sample.
    ref = TouchstoneLineRef(measured_line(), ir_len=256)
    cfg = dataclasses.replace(
        load_config(CONFIG_DIR / "paper.yaml"), line_a=ref, line_b=ref,
        matching=MatchSpec(33e-9, 18e-12), settle_periods=2, measure_periods=1,
    )
    blocks = []
    block = CirculatorNetwork._block

    def counted(self, ext):
        blocks.append(self.lanes)
        return block(self, ext)

    monkeypatch.setattr(CirculatorNetwork, "_block", counted)
    points = modfreq_sweep(cfg, [FS / p for p in (4480, 4496, 4560)], 155e6)
    assert all(pt.note is None for pt in points)
    assert blocks == [6] * 333


def full_table(ctl: _LaneControl, n: int, b: int) -> np.ndarray:
    """The coefficient table of samples n..n+b-1 with one column per sample."""
    return ctl.coef[:, :, ctl._row_ix, (n + np.arange(b)) % ctl.periods[:, None]]


def test_settled_blocks_mix_one_coefficient_column(monkeypatch):
    # On the paper sweep every block over which no crossbar coefficient
    # changes gets a one-column table, (3, 2, rows, 1), which the mixes
    # broadcast; every other block gets one column per sample. Stepped with
    # full tables throughout, the network emits the same waves, bit for bit.
    cfg = load_config(CONFIG_DIR / "paper.yaml")
    block, tables = _LaneControl.block, []

    def recorded(self, n, b):
        coef = block(self, n, b)
        tables.append((n, b, coef.shape))
        return coef

    advance, digests = CirculatorNetwork.advance, []

    def hashed(self, ext):
        out = advance(self, ext)
        digests[-1].update(out.tobytes())
        return out

    monkeypatch.setattr(CirculatorNetwork, "advance", hashed)
    grids = []
    for table in (recorded, full_table):
        monkeypatch.setattr(_LaneControl, "block", table)
        digests.append(hashlib.sha256())
        grids.append(sparams_sweep(cfg, np.linspace(*cfg.band)).s)
    assert digests[0].digest() == digests[1].digest()
    assert np.array_equal(grids[0], grids[1])
    stepped = max(n + b for n, b, _ in tables)
    xbar = CrossbarElement(cfg.switch)
    sides = ("left", "right")
    coefs = np.stack([xbar.coefficients(trace_for(cfg.schedule, side, stepped)) for side in sides])
    changes = (coefs[..., 1:] != coefs[..., :-1]).any(axis=(0, 1))
    settled = 0
    for n, b, shape in tables:
        still = not changes[n : n + b - 1].any()
        assert shape == (3, 2, 1, 1 if still else b)
        settled += still and b > 1
    assert settled >= len(tables) // 2


@pytest.mark.parametrize("name", ["paper", "per-lane"])
def test_one_column_exactly_where_no_coefficient_changes(name):
    # Over a period and past its wrap, from every phase: a block gets one
    # column exactly when no row's coefficients change over it, and that
    # column holds the coefficients of every sample of the block.
    net = network(name)
    ctl = net._ctl
    end = int(ctl.periods.max()) + 70
    for b in (1, 2, 3, 64):
        for n in range(end):
            coef = ctl.block(n, b)
            full = full_table(ctl, n, b)
            still = (full == full[..., :1]).all()
            assert coef.shape == full.shape[:-1] + (1 if still else b,)
            assert np.array_equal(np.broadcast_to(coef, full.shape), full)


def test_shared_touchstone_frames_follow_its_lanes():
    # A Touchstone design filling both line positions on 6 network lanes
    # holds 12 lanes on the network's block budget (341 samples); its FIR
    # frames follow its own lanes: 128 samples (block_limit(12) = 170),
    # not the 256 the budget would give. Far partitions are made for the
    # frame that steps alone, not at construction or reset.
    net = network("touchstone")
    net.reset(6)
    line = net.line_a
    assert line is net.line_b
    assert (line.lanes, line.limit, line._frame) == (12, block_limit(6), 128)
    assert not line._partitions
    sizes = count_blocks(net)
    net.advance(np.zeros((4, 6, N_SAMPLES)))
    assert max(sizes) == block_limit(6)
    assert list(line._partitions) == [128]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's dynamic mmap threshold")
def test_settled_blocks_fault_in_no_fresh_memory():
    # In a fresh interpreter (without scipy, whose import happens to raise
    # glibc's mmap threshold), 204-lane blocks past the first line-ring
    # fill reuse memory instead of mapping their temporaries anew: without
    # the engine's one large scratch array they fault in about 270 pages
    # per block.
    code = f"""
        import resource
        import numpy as np
        from sdlsim.cli import load_config
        from sdlsim.engine import build_circulator
        net = build_circulator(load_config({str(CONFIG_DIR / "paper.yaml")!r}))
        net.reset(204)
        x = np.random.default_rng(0).standard_normal((4, 204, 64))
        for _ in range(60):
            net.advance(x)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(50):
            net.advance(x)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """
    env = dict(os.environ, PYTHONPATH=str(CONFIG_DIR.parent / "src"), OPENBLAS_NUM_THREADS="1")
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)], capture_output=True, text=True, env=env, check=True
    )
    assert int(result.stdout) < 1000


@pytest.mark.parametrize("name", MATCHED)
def test_matched_settled_spans_run_as_blocks(name):
    # Every block is as long as it can be: block_limit(lanes) samples, up
    # to the end of the run, or up to the next sample where a crossbar line
    # port reflects. Only its first sample may reflect, so one-sample blocks
    # occur only inside switch transitions.
    ext, _ = whole_run(name)
    lanes = ext.shape[1]
    net = network(name)
    net.reset(lanes)
    limit = block_limit(lanes)
    schedules = per_lane_schedules() if name.endswith("per-lane") else [net.schedule]
    reflects = reflecting(net.left, schedules, N_SAMPLES + 1)
    sizes = count_blocks(net)
    net.advance(ext)
    assert sum(sizes) == N_SAMPLES
    starts = np.cumsum([0] + sizes[:-1])
    for n, b in zip(starts.tolist(), sizes):
        assert b <= limit
        assert not reflects[n + 1 : n + b].any()
        assert b == limit or n + b == N_SAMPLES or reflects[n + b]
    assert max(sizes) == limit


@pytest.mark.parametrize("name", ("paper", "matched"))
def test_crossbars_step_in_two_calls_per_block(name, monkeypatch):
    # One-sample and longer blocks run the same sequence: one crossbar call
    # mixes both crossbars' port rows (slots 0, 1 and 4, 5) into their line
    # rows (2, 3 and 6, 7), then one mixes the line rows into the port rows.
    # The line side reads no line-port row: their reflection at sample 0,
    # and at a last sample that reflects, is added by the engine. Only the
    # matched network runs one-sample blocks: the bare one's transitions
    # run as two-sample blocks, each ending on a reflecting sample.
    ext, _ = whole_run(name)
    net = network(name)
    net.reset(ext.shape[1])
    calls = []
    step_with = CrossbarElement.step_with

    def rows(view, buf):
        shape = (net._n_slots,) + view.shape[-2:]
        block = buf[: math.prod(shape)].reshape(shape)
        return tuple(r for r in range(net._n_slots) if np.shares_memory(view, block[r]))

    def counted_step_with(a, b, t_bar, t_cross, out):
        inc, wave = net._buffers
        calls.append((rows(a, inc) + rows(b, inc), rows(out, wave)))
        return step_with(a, b, t_bar, t_cross, out)

    monkeypatch.setattr(CrossbarElement, "step_with", staticmethod(counted_step_with))
    per_block: dict[bool, set] = {}
    block = net._block

    def counted(x):
        first = len(calls)
        out = block(x)
        per_block.setdefault(x.shape[2] > 1, set()).add(tuple(calls[first:]))
        return out

    net._block = counted
    net.advance(ext)
    ports, lines = (0, 4, 1, 5), (2, 6, 3, 7)
    sequence = {((ports, tuple(sorted(lines))), (lines, tuple(sorted(ports))))}
    assert per_block == ({False: sequence, True: sequence} if name == "matched" else {True: sequence})


def separate_network(config) -> CirculatorNetwork:
    """config's network built with a separate element object at every
    position, each stepped on its own."""
    fs = config.sample_rate
    lines = (DelayLineElement(config.line_a, fs), DelayLineElement(config.line_b, fs))
    matches = None if config.matching is None else [MatchingElement(m, fs) for m in config.matching]
    return CirculatorNetwork(config.switch, *lines, config.schedule, fs, matches=matches)


@pytest.mark.parametrize("matched", [False, True], ids=["bare", "matched-one-one-other-other"])
@pytest.mark.parametrize("name", ["ideal", "paper"])
def test_shared_design_steps_once_per_pass_as_separate_objects(name, matched, monkeypatch):
    # One object serves every position of its design: the engine steps it
    # once per pass over a block, on all its positions' lanes, and the waves
    # are those of a network with one object per position. A matched block
    # longer than a sample takes two passes (trial and closed loops); a
    # bare one, or a single sample, takes one.
    config = load_config(CONFIG_DIR / f"{name}.yaml")
    if matched:
        one, other = MatchSpec(33e-9, 18e-12), MatchSpec(20e-9, 10e-12)
        config = dataclasses.replace(config, matching=(one, one, other, other))
    net = build_circulator(config)
    positions = Counter(id(el) for pos, el in net.elements.items() if not pos.endswith("_crossbar"))
    assert len(positions) == (3 if matched else 1)
    lanes = 3
    net.reset(lanes)
    stepped = []
    for cls in (DelayLineElement, MatchingElement):
        monkeypatch.setattr(
            cls, "step", lambda self, x, step=cls.step: stepped.append((id(self), x.shape[1])) or step(self, x)
        )
    per_pass = [(key, count * lanes) for key, count in positions.items()]
    block = net._block

    def counted(x):
        first = len(stepped)
        out = block(x)
        passes = 2 if matched and x.shape[2] > 1 else 1
        assert sorted(s for s in stepped[first:] if s[0] in positions) == sorted(per_pass * passes)
        return out

    net._block = counted
    ext = stimulus(lanes)
    shared = net.advance(ext)
    monkeypatch.undo()
    separate = separate_network(config)
    separate.reset(lanes)
    expected = separate.advance(ext)
    if name == "ideal":
        assert np.array_equal(shared, expected)
    else:
        # The band filter's frame product is a BLAS matrix product whose
        # rounding of a column may depend on the matrix's width (OpenBLAS
        # picks its kernel by the column count): on 3 lanes the shared
        # design's 12 columns and a position's 6 differ by 4e-17 of a 0.1
        # drive.
        assert np.max(np.abs(shared - expected)) <= 1e-12 * np.max(np.abs(ext))


def test_link_energy_independent_of_split():
    ext, _ = whole_run("paper")
    energies = []
    for size in (N_SAMPLES, 37):
        net = network("paper")
        net.reset(ext.shape[1])
        net.track_link_energy = True
        for start in range(0, N_SAMPLES, size):
            net.advance(ext[:, :, start : start + size])
        energies.append(net.link_energy)
    assert list(energies[0]) == list(energies[1])
    for name, e in energies[0].items():
        assert energies[1][name] == pytest.approx(e, rel=1e-12)


def elements():
    yield "banded line", DelayLineElement(
        DelayLineSpec(echoes=((2, -22.3), (3, -40.0)), port_return_db=15.0), FS
    )
    yield "flat line", DelayLineElement(
        DelayLineSpec(tau=20e-9, il_db=1.0, bandwidth=None, echoes=((2, -10.0),)), FS
    )
    yield "matching", MatchingElement(MatchSpec(33e-9, 18e-12), FS)
    yield "touchstone", TouchstoneElement(measured_line(), FS, ir_len=128)
    # Longer than block_limit(3): its far taps' product is kept per block.
    yield "long touchstone", TouchstoneElement(measured_line(), FS, ir_len=1024)


@pytest.mark.parametrize("label,element", list(elements()), ids=lambda v: v if isinstance(v, str) else "")
def test_element_block_equals_sample_steps(label, element):
    lanes, n = 3, 1000
    x = np.random.default_rng(3).standard_normal((2, lanes, n))
    element.reset(lanes)
    per_sample = np.stack([element.step(x[:, :, i]) for i in range(n)], axis=2)
    element.reset(lanes)
    blocks, start = [], 0
    # block_limit(lanes) + 5 samples take the splitting path of _in_blocks.
    for size in (1, 5, MAX_BLOCK, 2 * MAX_BLOCK + 3, block_limit(lanes) + 5, n):
        blocks.append(element.step(x[:, :, start : start + size]))
        start += size
    assert np.array_equal(np.concatenate(blocks, axis=2), per_sample)


def test_crossbar_block_equals_sample_steps():
    xbar = CrossbarElement(SwitchSpec())
    lanes, n = 3, 50
    x = np.random.default_rng(4).standard_normal((4, lanes, n))
    g = np.linspace(0.0, 1.0, n)
    t_bar, t_cross, refl = xbar.coefficients(g)
    block = xbar.step(x, g)
    per_sample = np.stack([xbar.step(x[:, :, i], g[i]) for i in range(n)], axis=2)
    assert np.array_equal(block, per_sample)
    # step is the two one-side mixes plus the line ports' reflection, bit
    # for bit; the line-side mix reads no line-port row.
    blind = x.copy()
    blind[2:] = np.nan
    mixed = np.empty_like(x)
    CrossbarElement.step_with(x[2], x[3], t_bar, t_cross, mixed[:2])
    CrossbarElement.step_with(blind[0], blind[1], t_bar, t_cross, mixed[2:])
    # Written in place, into a strided view as the engine passes its wave
    # rows: the same bits, on both sides, for a block and for one sample.
    for i in (slice(None), 7):
        for src, dst in ((slice(2, 4), slice(0, 2)), (slice(0, 2), slice(2, 4))):
            inc = x[src, :, i]
            out = np.moveaxis(np.full((inc.shape[-1], 2) + inc.shape[1:-1], np.nan), 0, -1)
            assert CrossbarElement.step_with(*inc, t_bar[i], t_cross[i], out) is out
            assert np.array_equal(out, mixed[dst, :, i])
    mixed[2:] += refl * x[2:]
    assert np.array_equal(mixed, block)
    # step keeps its behaviour: each output is the sum over the inputs of
    # the bar, cross and reflection paths.
    g = 0.3
    t_bar, t_cross, refl = xbar.coefficients(g)
    a = x[:, :, 0]
    expected = [
        t_bar * a[2] + t_cross * a[3],
        t_cross * a[2] + t_bar * a[3],
        t_bar * a[0] + t_cross * a[1] + refl * a[2],
        t_cross * a[0] + t_bar * a[1] + refl * a[3],
    ]
    assert np.array_equal(xbar.step(a, g), np.array(expected))


@pytest.mark.parametrize("label,element", list(elements()), ids=lambda v: v if isinstance(v, str) else "")
@pytest.mark.parametrize("size", [1, block_limit(3)])
def test_element_rewind_repeats_block(label, element, size):
    # A trial block taken back with rewind leaves no trace: the block
    # stepped again gives what it gives without the trial.
    lanes = 3
    rng = np.random.default_rng(5)
    history, trial, block = (rng.standard_normal((2, lanes, n)) for n in (700, size, size))
    element.reset(lanes)
    element.step(history)
    mark = element.mark()
    element.step(trial)
    element.rewind(mark)
    again = element.step(block)
    element.reset(lanes)
    element.step(history)
    assert np.array_equal(again, element.step(block))

