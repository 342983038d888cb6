"""Machine tests: multiple processes and the scheduler."""

import pytest

from repro.banks.bankfile import BankRole
from repro.errors import StepLimitExceeded
from repro.interp.processes import ProcessStatus, Scheduler, run_processes
from tests.conftest import build

WORKERS = [
    """
MODULE Main;
PROCEDURE worker(base, count): INT;
VAR i: INT;
BEGIN
  i := 0;
  WHILE i < count DO
    OUTPUT base + i;
    i := i + 1;
    YIELD;
  END;
  RETURN base;
END;
PROCEDURE spin(limit): INT;
VAR i: INT;
BEGIN
  i := 0;
  WHILE i < limit DO
    i := i + 1;
  END;
  RETURN i;
END;
PROCEDURE main(): INT;
BEGIN
  RETURN 0;
END;
END.
"""
]


def fresh_machine(preset="i2", **overrides):
    machine = build(WORKERS, preset=preset, **overrides)
    return machine


@pytest.mark.parametrize("preset", ("i1", "i2", "i3", "i4"))
def test_round_robin_interleaving(preset):
    machine = fresh_machine(preset)
    scheduler = Scheduler(machine)
    scheduler.spawn("Main", "worker", 100, 3)
    scheduler.spawn("Main", "worker", 200, 3)
    processes = scheduler.run()
    assert machine.output == [100, 200, 101, 201, 102, 202]
    assert [p.results for p in processes] == [[100], [200]]
    assert all(p.status is ProcessStatus.DONE for p in processes)


def test_yield_without_scheduler_is_noop():
    machine = fresh_machine()
    machine.start("Main", "worker", 5, 2)
    results = machine.run()
    while machine.yield_requested and not machine.halted:
        machine.yield_requested = False
        results = machine.run()
    assert results == [5]


def test_preemption_by_quantum():
    """A process that never yields still shares the machine when a
    quantum is set."""
    machine = fresh_machine()
    scheduler = Scheduler(machine, quantum=50)
    scheduler.spawn("Main", "spin", 200)
    scheduler.spawn("Main", "spin", 200)
    processes = scheduler.run()
    assert [p.results for p in processes] == [[200], [200]]
    assert scheduler.stats.preemptions > 0


class _SwitchOuts:
    """A tracer that checks, at every switch-out, that the flush
    discipline ran: every bank free, no current Lbank or Sbank, and an
    empty return stack."""

    def __init__(self, machine):
        self.machine = machine
        self.seen = 0

    def emit(self, kind, name="", **data):
        if kind == "sched.switch_out":
            machine = self.machine
            assert all(bank.role is BankRole.FREE for bank in machine.bankfile)
            assert machine.banks.lbank is None and machine.banks.sbank is None
            assert len(machine.rstack) == 0
            self.seen += 1


def test_process_switch_flushes_banks_and_return_stack():
    machine = fresh_machine("i4")
    switch_outs = _SwitchOuts(machine)
    machine.attach_tracer(switch_outs)
    scheduler = Scheduler(machine, quantum=40)
    scheduler.spawn("Main", "spin", 150)
    scheduler.spawn("Main", "spin", 150)
    scheduler.run()
    assert scheduler.stats.preemptions > 0
    assert switch_outs.seen >= scheduler.stats.preemptions


def test_single_process_runs_to_completion():
    machine = fresh_machine()
    (process,) = run_processes(machine, [("Main", "spin", (10,))])
    assert process.results == [10]


def test_frames_of_all_processes_share_one_heap():
    """The introduction's storage argument: no per-process contiguous
    stack reservation; every process allocates from the same arena."""
    machine = fresh_machine("i2")
    scheduler = Scheduler(machine, quantum=30)
    for base in (1, 2, 3, 4):
        scheduler.spawn("Main", "spin", 50 * base)
    processes = scheduler.run()
    assert [p.results for p in processes] == [[50], [100], [150], [200]]
    heap = machine.image.av_heap
    assert heap.stats.allocations >= 4
    # Everything was freed on completion.
    assert heap.stats.live_block_words <= heap.ladder.max_words


def test_process_steps_accounted():
    machine = fresh_machine()
    scheduler = Scheduler(machine, quantum=25)
    a = scheduler.spawn("Main", "spin", 100)
    b = scheduler.spawn("Main", "spin", 10)
    scheduler.run()
    assert a.steps > b.steps


@pytest.mark.parametrize("engine", ["interp", "jit"])
def test_scheduler_budget_raises_after_exactly_max_steps_plus_one(engine):
    """``Scheduler.run``'s budget counts the steps of every process in
    the call: the step after the last allowed one raises, wherever the
    quantum boundaries fall, and the machine's own lifetime
    ``step_limit`` plays no part."""
    machine = fresh_machine(step_limit=50)
    if engine == "jit":
        from repro.jit import install_jit

        install_jit(machine)
    scheduler = Scheduler(machine, quantum=7)
    first = scheduler.spawn("Main", "spin", 1000)
    second = scheduler.spawn("Main", "spin", 1000)
    with pytest.raises(StepLimitExceeded) as excinfo:
        scheduler.run(max_steps=300)
    assert excinfo.value.limit == 300
    assert machine.steps == first.steps + second.steps == 301
    # A slice ends every 7 steps; the raise at step 301 comes before
    # the 43rd preemption, due at the same step.
    assert scheduler.stats.preemptions == 42
