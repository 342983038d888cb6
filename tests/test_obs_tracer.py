"""Observability: the event bus, the ring-buffer recorder, and the hooks.

The contract under test is the one :mod:`repro.obs.tracer` states: a
machine with no tracer behaves exactly as before; with a recorder
attached, every instrumented mechanism (XFER, allocator, IFU, banks,
scheduler) shows up in the stream, stamped with the machine's own
meters.
"""

from __future__ import annotations

import pytest

from repro.interp.processes import Scheduler
from repro.obs import TraceRecorder
from repro.obs import events as ev
from repro.workloads.programs import program
from tests.conftest import build

FIB = program("fib")


def traced_machine(preset="i4", capacity=None, trace_steps=False, sources=None):
    machine = build(sources or FIB.sources, preset=preset)
    recorder = TraceRecorder(capacity=capacity, trace_steps=trace_steps)
    machine.attach_tracer(recorder)
    return machine, recorder


def run_fib(preset="i4", **kwargs):
    machine, recorder = traced_machine(preset=preset, **kwargs)
    machine.start("Main", "main")
    results = machine.run()
    return machine, recorder, results


# -- recorder mechanics -------------------------------------------------------


def test_ring_buffer_bounds_and_dropped():
    machine, recorder, _ = run_fib(capacity=16)
    assert len(recorder) == 16
    assert recorder.emitted > 16
    assert recorder.dropped == recorder.emitted - 16
    # The ring keeps the *newest* events.
    assert recorder.tail(1)[0].kind == ev.MACHINE_HALT


def test_unbounded_recorder_drops_nothing():
    _, recorder, _ = run_fib(capacity=None)
    assert recorder.dropped == 0
    assert len(recorder) == recorder.emitted


def test_seq_is_monotonic_and_gapless():
    _, recorder, _ = run_fib(capacity=None)
    seqs = [event.seq for event in recorder]
    assert seqs == list(range(len(seqs)))


def test_invalid_capacity_rejected():
    with pytest.raises(ValueError):
        TraceRecorder(capacity=0)
    with pytest.raises(ValueError):
        TraceRecorder(capacity=-5)


def test_tail_and_by_kind_and_clear():
    _, recorder, _ = run_fib(capacity=None)
    assert [e.kind for e in recorder.tail(1)] == [ev.MACHINE_HALT]
    assert recorder.tail(0) == []
    calls = recorder.by_kind(ev.XFER_CALL)
    assert calls and all(e.kind == ev.XFER_CALL for e in calls)
    # Family prefix: "xfer" matches the whole namespace.
    family = recorder.by_kind("xfer")
    assert len(family) > len(calls)
    emitted = recorder.emitted
    recorder.clear()
    assert len(recorder) == 0
    assert recorder.emitted == emitted  # the counter keeps running


def test_events_stamped_with_machine_meters():
    machine, recorder, _ = run_fib(capacity=None)
    last = recorder.tail(1)[0]
    assert last.steps == machine.steps
    assert last.cycles == machine.counter.cycles
    stamps = [(e.steps, e.cycles) for e in recorder]
    assert stamps == sorted(stamps)  # meters never run backwards


# -- per-mechanism emission ---------------------------------------------------


def test_machine_lifecycle_events():
    _, recorder, results = run_fib()
    assert results == [89]
    kinds = [event.kind for event in recorder]
    assert kinds[0] == ev.MACHINE_BEGIN
    assert kinds[-1] == ev.MACHINE_HALT
    assert kinds.count(ev.MACHINE_BEGIN) == 1


def test_call_and_return_events_balance():
    _, recorder, _ = run_fib()
    calls = recorder.by_kind(ev.XFER_CALL)
    returns = recorder.by_kind(ev.XFER_RETURN)
    # The root activation is set up by start() (machine.begin), so the
    # stream has one more return than call: the root's own final RETURN.
    assert len(returns) == len(calls) + 1
    assert {event.name for event in calls} == {"Main.fib"}
    first = calls[0]
    assert first.data["source"] == "Main.main"
    assert first.data["words"] > 0
    assert returns[-1].name == "Main.main"


def test_alloc_events_from_av_heap():
    machine, recorder, _ = run_fib(preset="i2")
    frames = recorder.by_kind(ev.ALLOC_FRAME)
    assert frames and all(e.name == "avheap" for e in frames)
    assert recorder.by_kind(ev.ALLOC_FREE)
    # fib(10) churns enough frames to exhaust at least one AV list.
    assert recorder.by_kind(ev.ALLOC_TRAP)
    summary = machine.image.av_heap.stats.summary()
    assert len(frames) == summary["allocations"]


def test_ifu_events_match_return_stack_stats():
    machine, recorder, _ = run_fib(preset="i3")
    stats = machine.rstack.stats
    assert len(recorder.by_kind(ev.IFU_HIT)) == stats.hits
    assert len(recorder.by_kind(ev.IFU_MISS)) == stats.misses


def test_bank_events_match_bankfile_stats():
    machine, recorder, _ = run_fib(preset="i4")
    stats = machine.bankfile.stats
    spills = recorder.by_kind(ev.BANK_SPILL)
    fills = recorder.by_kind(ev.BANK_FILL)
    assert sum(e.data["words"] for e in spills) == stats.words_spilled
    assert sum(e.data["words"] for e in fills) == stats.words_filled


def test_scheduler_events():
    machine = build(
        [
            """
MODULE Main;
PROCEDURE worker(base): INT;
BEGIN
  YIELD;
  RETURN base;
END;
PROCEDURE main(): INT;
BEGIN
  RETURN 0;
END;
END.
"""
        ],
        preset="i2",
    )
    recorder = TraceRecorder(capacity=None)
    machine.attach_tracer(recorder)
    scheduler = Scheduler(machine)
    scheduler.spawn("Main", "worker", 7)
    scheduler.spawn("Main", "worker", 8)
    scheduler.run()
    ins = recorder.by_kind(ev.SCHED_SWITCH_IN)
    outs = recorder.by_kind(ev.SCHED_SWITCH_OUT)
    done = recorder.by_kind(ev.SCHED_DONE)
    assert len(done) == 2
    assert {event.data["pid"] for event in done} == {0, 1}
    assert all(event.data["reason"] == "yield" for event in outs)
    # Each process switches in at least twice: fresh start + resume.
    assert len(ins) >= 4
    assert done[0].data["results"] == [7]


# -- trace_steps --------------------------------------------------------------


def test_trace_steps_records_every_instruction():
    machine, recorder, _ = run_fib(capacity=None, trace_steps=True)
    steps = recorder.by_kind(ev.MACHINE_STEP)
    assert len(steps) == machine.steps
    assert steps[0].name  # the opcode mnemonic


def test_trace_steps_off_by_default():
    _, recorder, _ = run_fib(capacity=None)
    assert recorder.by_kind(ev.MACHINE_STEP) == []


# -- attach/detach ------------------------------------------------------------


def test_attach_and_detach():
    machine = build(FIB.sources, preset="i4")
    assert machine.tracer is None
    recorder = TraceRecorder(capacity=None)
    machine.attach_tracer(recorder)
    assert machine.tracer is recorder
    assert machine.rstack.tracer is recorder
    assert machine.bankfile.tracer is recorder
    assert machine.image.av_heap.tracer is recorder
    machine.detach_tracer()
    assert machine.tracer is None
    assert machine.rstack.tracer is None
    assert machine.bankfile.tracer is None
    assert machine.image.av_heap.tracer is None
    machine.start("Main", "main")
    assert machine.run() == [89]
    assert recorder.emitted == 0  # detached before anything ran


def test_tracing_does_not_touch_modelled_meters():
    plain = build(FIB.sources, preset="i4")
    plain.start("Main", "main")
    plain_results = plain.run()
    traced, recorder, traced_results = run_fib(preset="i4", capacity=None)
    assert traced_results == plain_results
    assert traced.steps == plain.steps
    assert traced.counter.snapshot() == plain.counter.snapshot()
    assert recorder.emitted > 0
