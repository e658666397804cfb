"""Block stepping: any split of a run into advance calls gives bit-identical
waves on bare networks and agrees with per-sample stepping within 1e-12 on
matched ones; any split of an element's input into blocks gives
bit-identical waves."""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdlsim.cli import load_config
from sdlsim.elements import (
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
from sdlsim.engine import build_circulator
from sdlsim.schedule import build_schedule, trace_for
from sdlsim.touchstone import TouchstoneData

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
FS = 4e9
# Long enough to cross two switch transitions of each crossbar on paper.yaml
# (period 4560 samples, one transition every 1140).
N_SAMPLES = 2600


def measured_line() -> TouchstoneData:
    """Delayed, lossy line with a reflection, so the FIR has a direct S11 tap."""
    freqs = np.linspace(100e6, 210e6, 111)
    s = np.zeros((len(freqs), 2, 2), dtype=complex)
    s[:, 1, 0] = s[:, 0, 1] = 0.6 * np.exp(-2j * math.pi * freqs * 150e-9)
    s[:, 0, 0] = s[:, 1, 1] = -0.15 * np.exp(-2j * math.pi * freqs * 10e-9)
    return TouchstoneData(freqs, s)


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
    reflects = np.zeros(N_SAMPLES + 1, dtype=bool)
    for sched in per_lane_schedules() if name.endswith("per-lane") else [net.schedule]:
        for side in ("left", "right"):
            refl = net.left.coefficients(trace_for(sched, side, N_SAMPLES + 1))[2]
            reflects |= refl != 0.0
    sizes = count_blocks(net)
    net.advance(ext)
    assert sum(sizes) == N_SAMPLES
    starts = np.cumsum([0] + sizes[:-1])
    for n, b in zip(starts.tolist(), sizes):
        assert b <= limit
        assert not reflects[n + 1 : n + b].any()
        assert b == limit or n + b == N_SAMPLES or reflects[n + b]
    assert max(sizes) == limit


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
    coef = np.stack(xbar.coefficients(np.linspace(0.0, 1.0, n)))[:, None, :]
    block = CrossbarElement.step_with(x, *coef)
    per_sample = np.stack(
        [CrossbarElement.step_with(x[:, :, i], *coef[:, :, i]) for i in range(n)], axis=2
    )
    assert np.array_equal(block, per_sample)
    ports = CrossbarElement.step_with(x, *coef, side="port")
    lines = CrossbarElement.step_with(x, *coef, side="line")
    assert np.array_equal(np.concatenate([ports, lines]), block)


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

