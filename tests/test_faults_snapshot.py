"""Snapshot/restore: the bit-identical-resume guarantee.

The property at the heart of `repro.faults.snapshot`: for any program,
any implementation, and any stop point, capture → restore onto a freshly
linked image → run-to-completion must equal a straight-through run on
results, the output channel, the step count, and **every** modelled
meter.  Hypothesis drives random programs (the differential suite's
generator) and random stop steps; the canned corpus covers the wide
machine configurations.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import SNAPSHOT_SCHEMA, SnapshotError, capture, restore
from repro.workloads.programs import CORPUS
from tests.conftest import ALL_PRESETS, build, make_rng
from tests.test_differential import ProgramBuilder

FIB = """
MODULE Main;
PROCEDURE fib(n): INT;
BEGIN
  IF n < 2 THEN RETURN n; END;
  RETURN fib(n - 1) + fib(n - 2);
END;
PROCEDURE main(): INT;
BEGIN
  RETURN fib(10);
END;
END.
"""


def straight_run(sources, preset, entry=("Main", "main"), args=()):
    machine = build(sources, preset=preset, entry=entry)
    machine.start(entry[0], entry[1], *args)
    results = machine.run()
    return results, machine


def resumed_run(sources, preset, stop_step, entry=("Main", "main"), args=()):
    """Run to *stop_step*, capture, restore onto a fresh image, finish."""
    machine = build(sources, preset=preset, entry=entry)
    machine.start(entry[0], entry[1], *args)
    while not machine.halted and machine.steps < stop_step:
        machine.step()
    if machine.halted:
        return None, None  # program was shorter than the stop point
    state = capture(machine)
    fresh = build(sources, preset=preset, entry=entry)
    restore(fresh, state)
    results = fresh.run()
    return results, fresh


def assert_identical(reference, resumed):
    ref_results, ref_machine = reference
    res_results, res_machine = resumed
    assert res_results == ref_results
    assert res_machine.output == ref_machine.output
    assert res_machine.steps == ref_machine.steps
    assert res_machine.counter.snapshot() == ref_machine.counter.snapshot()
    assert res_machine.counter.cycles == ref_machine.counter.cycles


@pytest.mark.parametrize("preset", ALL_PRESETS)
def test_fib_resume_is_bit_identical_on_every_preset(preset):
    reference = straight_run([FIB], preset)
    for stop in (1, 17, 123, 400):
        resumed = resumed_run([FIB], preset, stop)
        assert resumed[0] is not None
        assert_identical(reference, resumed)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    statements=st.integers(min_value=1, max_value=10),
    stop=st.integers(min_value=1, max_value=400),
    preset=st.sampled_from(ALL_PRESETS),
)
def test_random_program_random_stop_resume_property(seed, statements, stop, preset):
    """The tentpole property: random program x random stop step x any
    implementation — restore-and-finish equals straight-through."""
    builder = ProgramBuilder(make_rng(seed))
    source = builder.build(statements)
    reference = straight_run([source], preset)
    resumed = resumed_run([source], preset, stop)
    if resumed[0] is None:  # program halted before the stop point
        return
    assert_identical(reference, resumed)


@pytest.mark.parametrize("name", ["fib", "calls", "queens", "mathlib"])
@pytest.mark.parametrize("preset", ["i1", "i4"])
def test_corpus_resume_on_extreme_presets(name, preset):
    """I1 (no IFU, no banks, first-fit) and I4 (everything on) bracket
    the config space; the corpus exercises wide state vectors."""
    program = CORPUS[name]
    rng = make_rng(f"corpus:{name}:{preset}")
    reference = straight_run(
        list(program.sources), preset, entry=program.entry, args=program.args
    )
    stop = rng.randint(1, max(1, reference[1].steps - 1))
    resumed = resumed_run(
        list(program.sources), preset, stop, entry=program.entry, args=program.args
    )
    assert resumed[0] is not None
    assert_identical(reference, resumed)
    assert resumed[0] == list(program.expect_results)


def test_capture_restore_capture_is_a_fixed_point():
    """Restoring a snapshot and recapturing immediately must reproduce
    the same document — serialization loses nothing."""
    machine = build([FIB], preset="i4")
    machine.start()
    while machine.steps < 100:
        machine.step()
    state = capture(machine)
    assert state["schema"] == SNAPSHOT_SCHEMA
    fresh = build([FIB], preset="i4")
    restore(fresh, state)
    assert capture(fresh) == state


@pytest.mark.parametrize("preset", ["i1", "i2"])
def test_restore_keeps_the_heap_tables_in_place(preset):
    """Restore refills the heaps' tables instead of rebinding them, as
    it does the memory words and the frame table, so code that bound
    them once (the JIT's call cells) sees the restored state."""
    machine = build([FIB], preset=preset)
    machine.start()
    while machine.steps < 100:
        machine.step()
    state = capture(machine)
    fresh = build([FIB], preset=preset)
    fresh.start()
    heap = fresh.image.first_fit if preset == "i1" else fresh.image.av_heap
    tables = [heap._live, heap.stats.per_class_allocations]
    if preset == "i2":
        tables.append(heap._known)
    restore(fresh, state)
    after = [heap._live, heap.stats.per_class_allocations]
    if preset == "i2":
        after.append(heap._known)
    assert all(now is before for now, before in zip(after, tables))
    assert capture(fresh) == state


def test_snapshot_is_json_serializable():
    import json

    machine = build([FIB], preset="i4")
    machine.start()
    while machine.steps < 50:
        machine.step()
    state = capture(machine)
    assert json.loads(json.dumps(state)) == state


def test_restore_rejects_config_mismatch():
    machine = build([FIB], preset="i4")
    machine.start()
    while machine.steps < 20:
        machine.step()
    state = capture(machine)
    other = build([FIB], preset="i2")
    with pytest.raises(SnapshotError):
        restore(other, state)


def test_restore_rejects_unknown_schema():
    machine = build([FIB], preset="i2")
    machine.start()
    while machine.steps < 20:
        machine.step()
    state = capture(machine)
    state["schema"] = "repro-snapshot/999"
    fresh = build([FIB], preset="i2")
    with pytest.raises(SnapshotError):
        restore(fresh, state)


def test_restore_rejects_foreign_program():
    """A snapshot names frames by procedure entry address; restoring it
    onto an image linked from a different program must fail loudly, not
    resurrect frames onto the wrong code."""
    machine = build([FIB], preset="i2")
    machine.start()
    while machine.steps < 20:
        machine.step()
    state = capture(machine)
    other_source = FIB.replace("fib(10)", "fib(9) + 1").replace(
        "IF n < 2", "IF n < 3"
    )
    foreign = build([other_source], preset="i2")
    with pytest.raises(SnapshotError):
        restore(foreign, state)


# ---------------------------------------------------------------------------
# Blocked processes (since repro-snapshot/2): freeze mid-remote-call, resume
# ---------------------------------------------------------------------------


def test_snapshot_blocked_process_roundtrips_and_resumes():
    """Freeze a shard whose process is BLOCKED on a Remote XFER, restore
    it into a fresh cluster, and finish: same results, same modelled
    meters as an uninterrupted split run."""
    from repro.interp.processes import ProcessStatus
    from repro.net.cluster import Cluster
    from repro.workloads.programs import program

    prog = program("mathlib")
    sources = list(prog.sources)
    pins = {"Main": 0, "Math": 1}

    # Reference: the same split program, run straight through.
    ref = Cluster(sources, shards=2, config="i2", pins=pins)
    assert ref.call("Main", "main") == list(prog.expect_results)
    ref_meters = ref.meters()

    # Run shard 0's scheduler just until the stub blocks the caller --
    # before the call is flushed to the wire, so the outstanding request
    # lives entirely in the process record.
    c1 = Cluster(sources, shards=2, config="i2", pins=pins)
    ticket = c1.submit("Main", "main")
    c1.shards[0].scheduler.run()
    process = ticket.process
    assert process.status is ProcessStatus.BLOCKED
    assert process.remote is not None and "id" not in process.remote
    state = capture(c1.shards[0].machine, c1.shards[0].scheduler)
    assert state["schema"] == "repro-snapshot/3"

    # Restore onto a fresh cluster's shard 0 and pump to completion.
    c2 = Cluster(sources, shards=2, config="i2", pins=pins)
    restore(c2.shards[0].machine, state, c2.shards[0].scheduler)
    restored = c2.shards[0].scheduler.processes[0]
    assert restored.status is ProcessStatus.BLOCKED
    assert restored.remote == process.remote
    assert c2.shards[0].scheduler.stats.blocks == 1
    c2.pump()
    assert restored.status is ProcessStatus.DONE
    assert list(restored.results) == list(prog.expect_results)
    # The interruption is invisible to every modelled meter.
    assert c2.meters() == ref_meters


def test_snapshot_blocked_process_is_a_fixed_point():
    """capture -> restore -> capture over a BLOCKED process table."""
    from repro.interp.processes import ProcessStatus
    from repro.net.cluster import Cluster, build_shard_machine
    from repro.interp.machineconfig import MachineConfig
    from repro.interp.processes import Scheduler
    from repro.workloads.programs import program

    prog = program("mathlib")
    sources = list(prog.sources)
    c1 = Cluster(sources, shards=2, config="i2", pins={"Main": 0, "Math": 1})
    ticket = c1.submit("Main", "main")
    c1.shards[0].scheduler.run()
    assert ticket.process.status is ProcessStatus.BLOCKED
    state = capture(c1.shards[0].machine, c1.shards[0].scheduler)

    fresh = build_shard_machine(sources, MachineConfig.i2())
    scheduler = Scheduler(fresh)
    restore(fresh, state, scheduler)
    assert capture(fresh, scheduler) == state
