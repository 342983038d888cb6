"""Observability: tracing must not move a single modelled number.

The hooks read the machine's meters but never record into them, so for
every corpus program under every preset, a run with a full tracer
attached (per-step events and all) must produce bit-identical results,
step counts, and :class:`~repro.machine.costs.CycleCounter` snapshots
compared with an untraced run.
"""

from __future__ import annotations

import pytest

from repro.obs import TraceRecorder
from repro.workloads.programs import corpus_sources
from tests.conftest import ALL_PRESETS, build

CORPUS = [entry for entry in corpus_sources() if not entry.needs_descriptors]


def run_machine(entry, preset, tracer=None):
    machine = build(entry.sources, preset=preset, entry=entry.entry)
    if tracer is not None:
        machine.attach_tracer(tracer)
    machine.start(entry.entry[0], entry.entry[1], *entry.args)
    results = machine.run()
    return machine, results


@pytest.mark.parametrize("preset", ALL_PRESETS)
@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
def test_tracing_is_bit_identical(entry, preset):
    plain, plain_results = run_machine(entry, preset)
    recorder = TraceRecorder(capacity=None, trace_steps=True)
    traced, traced_results = run_machine(entry, preset, tracer=recorder)
    assert traced_results == plain_results
    assert traced.steps == plain.steps
    assert traced.output == plain.output
    assert traced.counter.snapshot() == plain.counter.snapshot()
    # ... and the tracer really was live the whole run.
    assert recorder.emitted > traced.steps  # steps + mechanism events
    assert recorder.by_kind("machine.halt")


@pytest.mark.parametrize("preset", ("i3", "i4"))
def test_mid_run_detach_preserves_meters(preset):
    entry = CORPUS[0]
    plain, _ = run_machine(entry, preset)
    machine = build(entry.sources, preset=preset, entry=entry.entry)
    machine.attach_tracer(TraceRecorder(capacity=None))
    machine.start(entry.entry[0], entry.entry[1], *entry.args)
    for _ in range(50):
        machine.step()
    machine.detach_tracer()
    machine.run()
    assert machine.counter.snapshot() == plain.counter.snapshot()
