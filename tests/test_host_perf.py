"""The host performance layer: linkage caching, fused run loop, budgets.

The contract of every host-side speedup is that it changes *nothing*
the paper measures: modelled cycles, memory references, step counts and
results must be bit-identical with the call-site linkage cache on and
off, across the whole I1-I4 ladder.  The cache must also honour the
"unusual event" invalidation discipline — a stale resolved target after
``relocate_module``/``replace_procedure`` would silently run old code.

The run-budget tests pin the fix for the resumed-machine bug: ``run
(max_steps)`` used to compare the *cumulative* step count against the
per-call budget, so a resumed machine got a shrunken budget or an
instant StepLimitExceeded.
"""

import random

import pytest

from repro.banks.bankfile import BankRole
from repro.check.fuzz import build_image, inject_stack_underflow, mutate_random_byte
from repro.errors import ReproError, StepLimitExceeded
from repro.ifu.ifu import TransferKind
from repro.ifu.returnstack import OverflowPolicy, ReturnStack, ReturnStackEntry
from repro.interp.machine import Machine
from repro.interp.services import relocate_module, replace_procedure
from repro.interp.traps import TrapKind
from repro.isa.assembler import Assembler
from repro.isa.opcodes import Op
from repro.jit import install_jit
from repro.workloads.programs import CORPUS
from tests.conftest import ALL_PRESETS, build
from tests.test_jit_host_calls import CALL_DENSE
from tests.test_limits import DEEP_EXPRESSION


# ---------------------------------------------------------------------------
# Paper metrics are independent of the host linkage cache
# ---------------------------------------------------------------------------


#: Every corpus program on every preset it links on: a descriptor
#: program cannot link under I1's SIMPLE linkage.
LINKED_CORPUS = [
    (name, preset)
    for name in sorted(CORPUS)
    for preset in ALL_PRESETS
    if not (CORPUS[name].needs_descriptors and preset == "i1")
]


@pytest.mark.parametrize("name, preset", LINKED_CORPUS)
def test_paper_metrics_identical_with_and_without_cache(name, preset):
    """On both engines, region traffic included: a hit replays the
    walk's traffic, so the regions and their order match the uncached
    run, and so do the IFU's fast and slow tallies.  The interpreter
    looks every executed call up once, and misses once per site; the
    JIT's cells resolve each site once too."""
    entry = CORPUS[name]
    misses = {}
    for engine in ("interp", "jit"):
        outcomes = []
        for cached in (False, True):
            machine = build(
                entry.sources,
                preset=preset,
                entry=entry.entry,
                host_linkage_cache=cached,
            )
            if engine == "jit":
                install_jit(machine)
            machine.start(entry.entry[0], entry.entry[1], *entry.args)
            results = machine.run()
            outcomes.append((
                tuple(results),
                machine.steps,
                machine.counter.snapshot(),
                list(machine.memory.traffic.items()),
                dict(machine.fetch.fast),
                dict(machine.fetch.slow),
            ))
        off, on = outcomes
        assert off == on, engine
        stats = machine.linkage_cache.stats()
        misses[engine] = stats["misses"]
        if engine == "interp":
            calls = sum(
                count
                for bucket in (machine.fetch.fast, machine.fetch.slow)
                for kind, count in bucket.items()
                if kind not in (TransferKind.RETURN, TransferKind.XFER)
            )
            assert stats["hits"] + stats["misses"] == calls
            assert stats["misses"] == stats["entries"]
    assert misses["jit"] == misses["interp"]


def test_cache_serves_the_call_dense_hot_path():
    entry = CORPUS["calls"]
    machine = build(entry.sources)
    machine.start()
    machine.run()
    stats = machine.linkage_cache.stats()
    assert stats["misses"] > 0  # each site resolved once...
    assert stats["hits"] > 10 * stats["misses"]  # ...and replayed after


def test_cache_disabled_when_configured_off():
    entry = CORPUS["calls"]
    machine = build(entry.sources, host_linkage_cache=False)
    assert machine.linkage_cache is None
    machine.start()
    assert machine.run() == list(entry.expect_results)


# ---------------------------------------------------------------------------
# Batched runs leave exactly what single steps leave
# ---------------------------------------------------------------------------


def _state(machine) -> tuple:
    """Everything a run leaves that a reader can see."""
    return (
        machine.results(),
        machine.halted,
        machine.steps,
        machine.pc,
        machine.counter.snapshot(),
        list(machine.memory.traffic.items()),
        dict(machine.fetch.fast),
        dict(machine.fetch.slow),
        machine.output,
        machine.trap_count,
        machine.memory._words,
    )


def _single_steps(machine, limit: int | None = None) -> None:
    """``step()`` until the machine stops where ``run()`` stops: at a
    halt or a yield, or past *limit* steps as ``run(max_steps=limit)``."""
    while not (machine.halted or machine.yield_requested):
        if limit is not None and machine.steps >= limit:
            raise StepLimitExceeded(limit)
        machine.step()


def _outcome(machine, drive) -> tuple:
    """*drive* the machine; its fault (or None) and then its state."""
    try:
        drive(machine)
        fault = None
    except ReproError as error:
        fault = (type(error).__name__, str(error))
    return fault, _state(machine)


@pytest.mark.parametrize("name, preset", LINKED_CORPUS)
def test_a_run_leaves_what_single_steps_leave(name, preset):
    """``run()`` executes each straight line of simple instructions as
    one batch; a ``step()`` loop executes them one at a time, as a
    tracer sees them."""
    entry = CORPUS[name]
    outcomes = []
    for drive in (Machine.run, _single_steps):
        machine = build(entry.sources, preset=preset, entry=entry.entry)
        machine.start(entry.entry[0], entry.entry[1], *entry.args)
        outcomes.append(_outcome(machine, drive))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] is None


@pytest.mark.parametrize("preset", ALL_PRESETS)
def test_every_step_budget_stops_where_single_steps_do(preset):
    """A budget of *k* steps runs a batch only when it fits, so slices
    of ``run(max_steps=k)`` stop exactly *k* steps apart, for every *k*
    across calldense's runs and their ends."""
    for k in range(1, 41):
        machine = build([CALL_DENSE], preset=preset)
        machine.start("Main", "main", 3)
        stepped = build([CALL_DENSE], preset=preset)
        stepped.start("Main", "main", 3)
        while not machine.halted:
            try:
                machine.run(max_steps=k)
            except StepLimitExceeded:
                assert machine.steps % k == 0
            while stepped.steps < machine.steps:
                stepped.step()
            assert _state(machine) == _state(stepped), (k, machine.steps)
    assert machine.results() == [sum(5 * i + 2 for i in range(3))]


def test_a_fault_inside_a_run_leaves_single_step_meters():
    """The deep expression pushes past the stack inside a run of simple
    instructions.  The host handler reads the meters at each overflow,
    and sees what it sees under single steps: the run's instructions
    after the faulting one were taken back before the trap surfaced."""
    outcomes = []
    for drive in (Machine.run, _single_steps):
        machine = build([DEEP_EXPRESSION], eval_stack_depth=8)
        seen = []
        machine.trap_handlers[TrapKind.STACK_OVERFLOW] = lambda m, kind, detail: seen.append(
            (m.steps, m.pc, m.counter.snapshot())
        )
        machine.start()
        outcomes.append((_outcome(machine, drive), seen))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1]  # the stack did overflow


def _mutants():
    """Seeded ``check.fuzz`` mutants of three corpus programs: random
    byte flips, and each program's planted stack underflow."""
    for name in ("calls", "mathlib", "sort"):
        for preset in ALL_PRESETS:
            for seed in range(12):
                yield name, preset, seed
            yield name, preset, None


@pytest.mark.parametrize("name, preset, seed", list(_mutants()))
def test_a_mutant_runs_as_it_single_steps(name, preset, seed):
    """A mutant may fault anywhere: inside a run, at its end, or on a
    byte that does not decode, which a run decodes no further than.
    Either way ``run()`` and a ``step()`` loop leave the same fault,
    steps, meters, traffic and memory."""
    entry = CORPUS[name]
    outcomes = []
    for drive in (lambda m: m.run(max_steps=5_000), lambda m: _single_steps(m, 5_000)):
        image = build_image(entry.sources, entry.entry, preset)
        if seed is None:
            assert inject_stack_underflow(image)
        else:
            mutate_random_byte(image, random.Random(seed))
        machine = Machine(image)
        try:
            machine.start(entry.entry[0], entry.entry[1], *entry.args)
        except ReproError as error:
            outcomes.append(((type(error).__name__, str(error)), None))
            continue
        outcomes.append(_outcome(machine, drive))
    assert outcomes[0] == outcomes[1]


# ---------------------------------------------------------------------------
# Run budgets: per-call allowance, cumulative backstop
# ---------------------------------------------------------------------------

_LOOP = """
MODULE Main;
PROCEDURE main(): INT;
VAR i, acc: INT;
BEGIN
  acc := 0;
  i := 0;
  WHILE i < 200 DO
    acc := acc + i;
    i := i + 1;
  END;
  RETURN acc;
END;
END.
"""

_YIELDER = """
MODULE Main;
PROCEDURE main(): INT;
VAR i: INT;
BEGIN
  i := 0;
  WHILE i < 50 DO
    YIELD;
    i := i + 1;
  END;
  RETURN i;
END;
END.
"""


def test_resumed_run_gets_a_fresh_budget():
    """run -> StepLimitExceeded -> run again must make progress; under
    the old cumulative comparison the second call died instantly."""
    machine = build([_LOOP])
    machine.start()
    resumes = 0
    while True:
        try:
            machine.run(max_steps=100)
            break
        except StepLimitExceeded:
            resumes += 1
            assert resumes < 100, "resumed runs are not making progress"
    assert machine.results() == [sum(range(200))]
    assert resumes >= 2  # the program needs several slices of 100


def test_yielded_run_resumes_with_full_allowance():
    """Scheduler-style slices: each run() after a YIELD gets the whole
    per-call budget again."""
    machine = build([_YIELDER])
    machine.start()
    slices = 0
    while not machine.halted:
        machine.run(max_steps=40)
        machine.yield_requested = False
        slices += 1
        assert slices < 500
    assert machine.results() == [50]
    assert slices > 5


@pytest.mark.parametrize("engine", ["interp", "jit"])
@pytest.mark.parametrize("preset", ALL_PRESETS)
def test_start_does_not_resume_an_abandoned_run(preset, engine):
    """A run stopped by its step budget leaves return-stack entries, and
    on i4 banks, behind.  ``start`` flushes them into their frames, as a
    process switch-out does, so the new root's final RETURN halts the
    machine.  Popping an entry of the old run instead resumed it, and
    returned 6283 on i3 and i4."""
    machine = build([CALL_DENSE], preset=preset)
    if engine == "jit":
        install_jit(machine)
    machine.start("Main", "main", 50)
    with pytest.raises(StepLimitExceeded):
        machine.run(max_steps=37)
    machine.start("Main", "main", 5)
    assert machine.run() == [60]


def test_a_reused_machine_does_not_pile_up_banks():
    """The corpus coroutine halts with its suspended coroutine's frame
    still allocated (on Mesa only a return or FREE frees a frame) and
    its bank still held.  Each later ``start`` spills that bank, 9
    cycles, so one bank is held after every halt and no run overflows;
    before, the held banks piled up until the third run overflowed."""
    entry = CORPUS["coroutine"]
    machine = build(entry.sources, preset="i4", entry=entry.entry)
    cycles, held = [], []
    for _ in range(3):
        before = machine.counter.cycles
        machine.start(entry.entry[0], entry.entry[1], *entry.args)
        assert machine.run() == list(entry.expect_results)
        cycles.append(machine.counter.cycles - before)
        held.append(sum(bank.role is not BankRole.FREE for bank in machine.bankfile))
    assert cycles == [537, 546, 546]
    assert held == [1, 1, 1]
    assert machine.bankfile.stats.overflows == 0
    assert len(machine.frames.by_address) == 3


def test_step_limit_remains_the_cumulative_backstop():
    machine = build([_LOOP], step_limit=100)
    machine.start()
    with pytest.raises(StepLimitExceeded):
        machine.run(max_steps=1_000_000)
    assert machine.steps == 100


def test_budget_tighter_than_backstop_reports_budget():
    machine = build([_LOOP], step_limit=5_000)
    machine.start()
    with pytest.raises(StepLimitExceeded):
        machine.run(max_steps=10)
    assert machine.steps == 10


# ---------------------------------------------------------------------------
# Cache invalidation by the code-swapping services
# ---------------------------------------------------------------------------

_SWAP_SOURCES = [
    """
MODULE Main;
PROCEDURE main(): INT;
BEGIN
  RETURN Lib.f(10);
END;
END.
""",
    """
MODULE Lib;
PROCEDURE f(x): INT;
BEGIN
  RETURN x * 2;
END;
END.
""",
]


def _triple_body() -> bytes:
    asm = Assembler()
    asm.emit(Op.SL0)  # COPY prologue: store the argument in local 0
    asm.emit(Op.LL0)
    asm.emit(Op.LI3)
    asm.emit(Op.MUL)
    asm.emit(Op.RET)
    return asm.assemble()


def test_replace_procedure_invalidates_warm_cache():
    """A cached resolution of Lib.f must not survive replacement —
    running the old code silently is the classic stale-inline-cache
    bug, asserted impossible here."""
    machine = build(_SWAP_SOURCES)
    assert machine.call("Main", "main") == [20]  # cache is now warm
    replace_procedure(machine, "Lib", "f", _triple_body())
    assert machine.linkage_cache.stats()["invalidations"] >= 1
    machine.stack.clear()
    assert machine.call("Main", "main") == [30]


def test_relocate_then_replace_uses_the_new_segment():
    """Relocation moves Lib's segment (old bytes remain in place — the
    perfect trap for a stale cache); a replacement after the move must
    repoint new calls, not resurrect the original body."""
    machine = build(_SWAP_SOURCES)
    assert machine.call("Main", "main") == [20]
    relocate_module(machine, "Lib")
    assert machine.linkage_cache.stats()["invalidations"] >= 1
    machine.stack.clear()
    assert machine.call("Main", "main") == [20]  # rebuilt against new base
    replace_procedure(machine, "Lib", "f", _triple_body())
    machine.stack.clear()
    assert machine.call("Main", "main") == [30]


def test_replacement_metrics_identical_with_and_without_cache():
    """The invalidation path must also preserve the modelled meters."""
    outcomes = []
    for cached in (False, True):
        machine = build(_SWAP_SOURCES, host_linkage_cache=cached)
        assert machine.call("Main", "main") == [20]
        replace_procedure(machine, "Lib", "f", _triple_body())
        machine.stack.clear()
        assert machine.call("Main", "main") == [30]
        outcomes.append((machine.steps, machine.counter.snapshot()))
    assert outcomes[0] == outcomes[1]


# ---------------------------------------------------------------------------
# Return stack: deque-backed SPILL_OLDEST keeps order and stats
# ---------------------------------------------------------------------------


def test_spill_oldest_preserves_order_and_stats_at_depth():
    stack = ReturnStack(4, OverflowPolicy.SPILL_OLDEST)
    for serial in range(4):
        stack.push(ReturnStackEntry(frame=serial, pc=serial * 10))
    for serial in range(4, 12):
        victims = stack.overflow_victims()
        assert [v.frame for v in victims] == [serial - 4]  # oldest only
        stack.push(ReturnStackEntry(frame=serial, pc=serial * 10))
    assert [entry.frame for entry in stack.entries()] == [8, 9, 10, 11]
    assert stack.pop().frame == 11  # LIFO from the top, unchanged
    assert stack.stats.pushes == 12
    assert stack.stats.hits == 1
