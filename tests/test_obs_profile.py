"""Observability: call-tree reconstruction and cycle attribution.

The acceptance property (ISSUE 3): for a structured run, the root's
inclusive modelled cycles equal the machine's whole cycle total, and the
sum of every node's exclusive cycles equals it too — the attribution
loses nothing and double-counts nothing.
"""

from __future__ import annotations

import pytest

from repro.fdo import build_machine, collect_profile
from repro.obs import (
    TraceEvent,
    TraceRecorder,
    aggregate,
    build_call_tree,
)
from repro.workloads.programs import corpus_sources, program
from tests.conftest import ALL_PRESETS, build


def traced_tree(sources, preset="i4", entry=("Main", "main"), args=()):
    machine = build(sources, preset=preset, entry=entry)
    recorder = TraceRecorder(capacity=None)
    machine.attach_tracer(recorder)
    machine.start(entry[0], entry[1], *args)
    machine.run()
    tree = build_call_tree(
        recorder, total_cycles=machine.counter.cycles, total_steps=machine.steps
    )
    return machine, tree


# -- the acceptance invariants ------------------------------------------------


@pytest.mark.parametrize("preset", ALL_PRESETS)
def test_inclusive_and_exclusive_cover_the_run(preset):
    machine, tree = traced_tree(program("fib").sources, preset=preset)
    assert tree.structured
    assert tree.root.inclusive_cycles == machine.counter.cycles
    assert sum(node.exclusive_cycles for node in tree.nodes()) == machine.counter.cycles
    assert tree.root.inclusive_steps == machine.steps


@pytest.mark.parametrize(
    "entry", [p for p in corpus_sources() if not p.needs_descriptors],
    ids=lambda p: p.name,
)
def test_attribution_invariants_across_corpus(entry):
    machine, tree = traced_tree(
        entry.sources, preset="i4", entry=entry.entry, args=entry.args
    )
    total = machine.counter.cycles
    assert tree.root.inclusive_cycles == total
    assert sum(node.exclusive_cycles for node in tree.nodes()) == total
    for node in tree.nodes():
        assert node.exclusive_cycles >= 0
        assert node.inclusive_cycles >= sum(
            child.inclusive_cycles for child in node.children
        )


def test_aggregate_fib_profile():
    machine, tree = traced_tree(program("fib").sources)
    profiles = {p.name: p for p in aggregate(tree)}
    assert set(profiles) == {"Main.main", "Main.fib"}
    main = profiles["Main.main"]
    fib = profiles["Main.fib"]
    assert main.calls == 1
    assert main.inclusive_cycles == machine.counter.cycles
    # fib is recursive: inclusive counts only outermost activations, so
    # it never exceeds the total even though activations nest.
    assert fib.inclusive_cycles <= machine.counter.cycles
    assert fib.calls == 287  # the corpus fib: 2*F - 1 activations for result 89
    total_exclusive = main.exclusive_cycles + fib.exclusive_cycles
    assert total_exclusive == machine.counter.cycles


# -- hand-built streams: structure flags and recovery -------------------------


def _call(seq, name, cycles):
    return TraceEvent(seq, "xfer.call", name, cycles, cycles)


def _ret(seq, name, cycles):
    return TraceEvent(seq, "xfer.return", name, cycles, cycles)


def test_nested_tree_shape():
    events = [
        TraceEvent(0, "machine.begin", "M.root", 0, 0),
        _call(1, "M.a", 10),
        _call(2, "M.b", 20),
        _ret(3, "M.b", 30),
        _ret(4, "M.a", 50),
        _call(5, "M.a", 60),
        _ret(6, "M.a", 70),
    ]
    tree = build_call_tree(events, total_cycles=100, total_steps=100)
    assert tree.structured
    root = tree.root
    assert root.name == "M.root"
    assert [child.name for child in root.children] == ["M.a", "M.a"]
    first_a = root.children[0]
    assert first_a.inclusive_cycles == 40
    assert first_a.exclusive_cycles == 30  # minus M.b's 10
    assert root.inclusive_cycles == 100
    profiles = {p.name: p for p in aggregate(tree)}
    assert profiles["M.a"].calls == 2
    assert profiles["M.a"].inclusive_cycles == 50


def test_root_return_closes_stragglers():
    events = [
        TraceEvent(0, "machine.begin", "M.root", 0, 0),
        _call(1, "M.leaf", 10),
        _ret(2, "M.root", 90),  # root returns with M.leaf still open
    ]
    tree = build_call_tree(events, total_cycles=100, total_steps=100)
    assert not tree.structured
    assert tree.root.children[0].end_cycles == 90
    assert tree.root.inclusive_cycles == 100


def test_unmatched_return_flags_unstructured():
    events = [
        TraceEvent(0, "machine.begin", "M.root", 0, 0),
        _ret(1, "M.ghost", 10),
    ]
    tree = build_call_tree(events, total_cycles=20, total_steps=20)
    assert not tree.structured


def test_non_lifo_return_recovers_by_name():
    events = [
        TraceEvent(0, "machine.begin", "M.root", 0, 0),
        _call(1, "M.a", 10),
        _call(2, "M.b", 20),
        _ret(3, "M.a", 40),  # returns past the open M.b (coroutine-ish)
    ]
    tree = build_call_tree(events, total_cycles=50, total_steps=50)
    assert not tree.structured
    a = tree.root.children[0]
    assert a.end_cycles == 40
    assert a.children[0].end_cycles == 40  # M.b force-closed with it


def test_xfer_and_trap_mark_unstructured():
    for kind in ("xfer.xfer", "xfer.trap"):
        events = [
            TraceEvent(0, "machine.begin", "M.root", 0, 0),
            TraceEvent(1, kind, "x", 5, 5),
        ]
        assert not build_call_tree(events, total_cycles=10, total_steps=10).structured


def test_dropped_events_mark_unstructured():
    events = [TraceEvent(0, "machine.begin", "M.root", 0, 0)]
    tree = build_call_tree(events, total_cycles=10, total_steps=10, dropped=5)
    assert not tree.structured
    assert tree.dropped == 5


def test_deep_recursion_does_not_hit_python_limits():
    depth = 5000  # far past the default recursion limit
    events = [TraceEvent(0, "machine.begin", "M.root", 0, 0)]
    seq = 1
    for level in range(depth):
        events.append(_call(seq, "M.deep", level + 1))
        seq += 1
    for level in range(depth):
        events.append(_ret(seq, "M.deep", depth + level + 1))
        seq += 1
    tree = build_call_tree(events, total_cycles=2 * depth + 1, total_steps=seq)
    assert tree.structured
    assert len(tree.nodes()) == depth + 1
    profiles = {p.name: p for p in aggregate(tree)}
    assert profiles["M.deep"].calls == depth
    # Only the outermost activation contributes inclusive cycles.
    assert profiles["M.deep"].inclusive_cycles == 2 * depth - 1


# -- the FDO profile's order-dependent half, read off the tree ----------------


def test_depth_histogram_and_open_peaks_read_the_matching():
    events = [
        TraceEvent(0, "machine.begin", "M.root", 0, 0),
        _call(1, "M.a", 10),
        _call(2, "M.b", 20),
        _call(3, "M.a", 25),
        _ret(4, "M.a", 28),
        _ret(5, "M.b", 30),
        _ret(6, "M.a", 50),
        _call(7, "M.a", 60),
        _ret(8, "M.a", 70),
    ]
    tree = build_call_tree(events)
    assert tree.depth_histogram() == {1: 1, 2: 2, 3: 1, 4: 1}
    size_class = {"M.root": 0, "M.a": 1, "M.b": 1}.get
    # Class 1 peaks while M.a, M.b and the inner M.a are all open; the
    # second M.a opens after the first closed.
    assert tree.open_peaks(size_class) == {0: 1, 1: 3}
    assert tree.open_peaks(lambda name: None) == {}


@pytest.mark.parametrize("preset", ALL_PRESETS)
def test_profile_depth_histogram_counts_every_activation(preset):
    """Every activation, the root's included, at the depth it ran:
    fib(10) nests eleven deep below ``main``."""
    fib = program("fib")
    doc = collect_profile(list(fib.sources), preset, fib.entry, fib.args)
    histogram = {int(depth): count for depth, count in doc["depth"]["histogram"].items()}
    calls = sum(entry["activations"] for entry in doc["procedures"].values())
    assert calls == sum(edge["count"] for edge in doc["edges"]) == 287
    assert sum(histogram.values()) == calls + 1
    assert doc["depth"]["max"] == max(histogram) == 12
    assert doc["structured"]


@pytest.mark.parametrize("preset, prefilled", [("i2", 0), ("i4", 2)], ids=["i2", "i4"])
def test_profile_alloc_traps_count_the_events(preset, prefilled):
    """``alloc_traps`` counts the run's ``alloc.trap`` events.  On I2
    that is the heap's replenishment meter; on I4 the fast-frame prefill
    traps twice at build, before the tracer is attached, so only the
    meter sees those two."""
    fib = program("fib")
    doc = collect_profile(list(fib.sources), preset, fib.entry, fib.args)
    machine = build_machine(list(fib.sources), preset, fib.entry)
    machine.start(*fib.entry, *fib.args)
    machine.run()
    assert doc["alloc_traps"] + prefilled == machine.report()["alloc"]["replenishments"]
