"""Unit tests for the cost model and cycle counter."""

import pytest

from repro.banks.bankfile import BankFile
from repro.ifu.ifu import FetchStats, TransferKind
from repro.machine.costs import DEFAULT_CHARGES, CostModel, CycleCounter, Event
from repro.machine.evalstack import EvalStack
from repro.machine.memory import Memory
from repro.mesa.linkage import LinkageCache, ResolvedTarget


def test_default_charges_cover_every_event():
    assert set(DEFAULT_CHARGES) == set(Event)


def test_register_cheaper_than_memory():
    # Section 7.3: one cycle for a register, two for a cache access.
    model = CostModel()
    assert model.charge(Event.REGISTER_READ) < model.charge(Event.MEMORY_READ)
    assert model.charge(Event.MEMORY_READ) == 2 * model.charge(Event.REGISTER_READ)


def test_with_charges_overrides_without_mutating():
    base = CostModel()
    tweaked = base.with_charges(memory_read=5)
    assert tweaked.charge(Event.MEMORY_READ) == 5
    assert base.charge(Event.MEMORY_READ) == 2


def test_with_charges_rejects_unknown_event():
    with pytest.raises(ValueError):
        CostModel().with_charges(warp_drive=9)


def test_counter_records_counts_and_cycles():
    counter = CycleCounter()
    counter.record(Event.MEMORY_READ)
    counter.record(Event.MEMORY_WRITE, times=3)
    assert counter.count(Event.MEMORY_READ) == 1
    assert counter.count(Event.MEMORY_WRITE) == 3
    assert counter.memory_references == 4
    assert counter.cycles == 2 * 4


def test_counter_reset():
    counter = CycleCounter()
    counter.record(Event.DECODE, 10)
    counter.reset()
    assert counter.cycles == 0
    assert counter.count(Event.DECODE) == 0


def test_snapshot_and_delta():
    counter = CycleCounter()
    counter.record(Event.JUMP)
    snap = counter.snapshot()
    counter.record(Event.JUMP, 4)
    delta = counter.delta_since(snap)
    assert delta[Event.JUMP.value] == 4
    assert delta["cycles"] == 4 * counter.model.charge(Event.JUMP)


def test_counter_custom_model():
    counter = CycleCounter(CostModel().with_charges(decode=7))
    counter.record(Event.DECODE)
    assert counter.cycles == 7


def test_inline_charges_follow_the_counter_model():
    """Every component that charges the counter inline uses the counter's
    model, not DEFAULT_CHARGES."""
    model = CostModel().with_charges(memory_read=3, register_write=2, fast_transfer=4)
    counter = CycleCounter(model)
    assert counter.charges == model.charges

    def charged(action):
        before = counter.snapshot()
        action()
        return counter.delta_since(before)

    memory = Memory(64, counter)
    assert charged(lambda: memory.read(1))["cycles"] == 3
    assert charged(lambda: memory.read_block(0, 2))["cycles"] == 6
    assert charged(lambda: memory.write(1, 7))["cycles"] == 2
    assert charged(lambda: memory.write_block(0, [1, 2]))["cycles"] == 4

    stack = EvalStack(counter=counter)
    assert charged(lambda: stack.push(1))["cycles"] == 2
    assert charged(stack.top)["cycles"] == 1
    assert charged(stack.pop)["cycles"] == 1

    banks = BankFile(counter=counter)
    bank = banks.bank(0)
    assert charged(lambda: banks.write(bank, 0, 5))["cycles"] == 2
    assert charged(lambda: banks.read(bank, 0))["cycles"] == 1

    fetch = FetchStats()
    fast = charged(lambda: fetch.record(TransferKind.DIRECT_CALL, True, counter))
    assert (fast["fast_transfer"], fast["cycles"]) == (1, 4)
    slow = charged(lambda: fetch.record(TransferKind.RETURN, False, counter))
    assert (slow["slow_transfer"], slow["cycles"]) == (1, 0)

    cache = LinkageCache(counter, memory.traffic)
    before = cache.begin()
    memory.read(2)  # the miss's table walk: two reads, one register write
    memory.read(3)
    stack.push(0)
    target = ResolvedTarget(gf_address=0, code_base=0, entry_address=0, fsi=0, levels=1)
    cache.store((10, 20), target, before)
    hit = charged(lambda: cache.lookup((10, 20)))
    assert (hit["memory_read"], hit["register_write"], hit["cycles"]) == (2, 1, 8)
