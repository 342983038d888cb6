"""Machine tests: call/return mechanics across the implementation ladder."""

import pytest

from repro.ifu.ifu import TransferKind
from repro.ifu.returnstack import OverflowPolicy
from repro.jit import install_jit
from repro.machine.costs import Event
from tests.conftest import ALL_PRESETS, build, run_source

RECURSIVE = [
    """
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
]

CROSS_MODULE = [
    "MODULE Main;\nPROCEDURE main(): INT;\nBEGIN\n  RETURN Lib.twice(Lib.twice(5));\nEND;\nEND.",
    "MODULE Lib;\nPROCEDURE twice(x): INT;\nBEGIN\n  RETURN x + x;\nEND;\nEND.",
]

ADDER = "MODULE Adder;\nPROCEDURE add(a, b): INT;\nBEGIN\n  RETURN Lib.twice(a) - a + b;\nEND;\nEND."


@pytest.mark.parametrize("preset", ALL_PRESETS)
def test_recursion_on_every_implementation(preset):
    results, _ = run_source(RECURSIVE, preset=preset)
    assert results == [55]


@pytest.mark.parametrize("engine", ["interp", "jit"])
@pytest.mark.parametrize("preset", ALL_PRESETS)
def test_each_call_of_one_machine_starts_on_an_empty_stack(preset, engine):
    """``Machine.call`` leaves its results on the evaluation stack, and
    the next ``start`` drops them, so a machine called again and again
    returns one result each time instead of overflowing its stack."""
    machine = build(CROSS_MODULE + [ADDER], preset=preset)
    if engine == "jit":
        install_jit(machine)
    for n in range(20):
        assert machine.call("Adder", "add", n, 3) == [n + 3]


@pytest.mark.parametrize("preset", ALL_PRESETS)
def test_cross_module_calls(preset):
    results, _ = run_source(CROSS_MODULE, preset=preset)
    assert results == [20]


def test_mesa_uses_external_and_local_calls():
    _, machine = run_source(CROSS_MODULE, preset="i2")
    assert machine.fetch.slow.get(TransferKind.EXTERNAL_CALL, 0) == 2


def test_direct_linkage_uses_direct_calls():
    _, machine = run_source(CROSS_MODULE, preset="i3")
    assert machine.fetch.fast.get(TransferKind.DIRECT_CALL, 0) == 2
    assert machine.fetch.slow.get(TransferKind.EXTERNAL_CALL, 0) == 0


def test_intra_module_direct_calls_are_short():
    _, machine = run_source(RECURSIVE, preset="i3")
    assert machine.fetch.fast.get(TransferKind.SHORT_DIRECT_CALL, 0) > 100


def test_return_stack_hits_make_returns_fast():
    _, machine = run_source(CROSS_MODULE, preset="i3")
    # Both Lib.twice returns hit; only the root's final return (to NIL)
    # goes through the general scheme.
    assert machine.fetch.fast.get(TransferKind.RETURN, 0) == 2
    assert machine.rstack.stats.misses == 1


def test_without_return_stack_returns_are_slow():
    _, machine = run_source(CROSS_MODULE, preset="i2")
    assert machine.fetch.slow.get(TransferKind.RETURN, 0) == 3


def test_deep_recursion_overflows_and_flushes():
    """Returns past a flushed entry take the general scheme and still
    compute the right answer — the orderly fallback."""
    results, machine = run_source(RECURSIVE, preset="i3", return_stack_depth=4)
    assert results == [55]
    assert machine.rstack.stats.flushes.get("overflow", 0) > 0
    assert machine.rstack.stats.misses > 0


def test_spill_oldest_policy_also_correct():
    results, machine = run_source(
        RECURSIVE,
        preset="i3",
        return_stack_depth=4,
        return_stack_policy=OverflowPolicy.SPILL_OLDEST,
    )
    assert results == [55]
    # Spilling one entry at a time preserves more hits than full flushes.
    assert machine.rstack.stats.hit_rate > 0.5


def test_spill_oldest_beats_full_flush_on_hit_rate():
    _, full = run_source(RECURSIVE, preset="i3", return_stack_depth=4)
    _, oldest = run_source(
        RECURSIVE,
        preset="i3",
        return_stack_depth=4,
        return_stack_policy=OverflowPolicy.SPILL_OLDEST,
    )
    assert oldest.rstack.stats.hit_rate >= full.rstack.stats.hit_rate


def test_memory_reference_ladder():
    """Section 8's triangle, measured: each step of the ladder removes
    memory references from the same program."""
    costs = {}
    for preset in ALL_PRESETS:
        _, machine = run_source(RECURSIVE, preset=preset)
        costs[preset] = machine.counter.memory_references
    assert costs["i3"] < costs["i2"]
    assert costs["i4"] < costs["i3"] / 3


def test_deferred_frames_never_touch_memory():
    """Section 7.1: with banks + deferral, most frames are never
    allocated at all."""
    _, machine = run_source(RECURSIVE, preset="i4")
    assert machine.deferred_frames > 100


def test_i4_allocator_fast_path_dominates():
    _, machine = run_source(RECURSIVE, preset="i4")
    stats = machine.fast_frames.stats
    total = stats.fast_allocations + stats.slow_allocations
    if total:  # deferral may avoid the allocator entirely
        assert stats.fast_fraction > 0.9


def test_results_identical_across_ladder():
    """The paper's compatibility invariant: "with either linkage the
    program behaves identically (except for space and speed)"."""
    outputs = set()
    for preset in ALL_PRESETS:
        results, machine = run_source(CROSS_MODULE, preset=preset)
        outputs.add(tuple(results))
    assert len(outputs) == 1


def test_jump_speed_95_percent_claim():
    """The headline: at least 95% of calls+returns at jump speed under
    the direct linkage with a return stack."""
    _, machine = run_source(RECURSIVE, preset="i3")
    assert machine.fetch.call_return_jump_speed_fraction >= 0.95
    _, machine = run_source(RECURSIVE, preset="i4")
    assert machine.fetch.call_return_jump_speed_fraction >= 0.95


def test_decode_counts_match_steps():
    _, machine = run_source(CROSS_MODULE, preset="i2")
    assert machine.counter.count(Event.DECODE) == machine.steps
