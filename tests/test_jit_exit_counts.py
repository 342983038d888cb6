"""Meters from exit counts: compiled exits count, the engine charges.

A compiled exit does not charge the meters; it bumps one slot of the
engine's exit table (``_H[slot] += 1``), one slot per distinct static
charge vector, and the engine charges hits × vector to the counter and
the region traffic whenever control leaves compiled code: at every exit
from ``run_until``, when a tracer is attached, and before a host trap
handler runs (docs/jit.md, "Meter charges are exit counts").  These
tests look for a charge left pending where something can read it: at
every slice boundary of a lock-step run, at an observer attached
mid-run, and in a host trap handler; and they pin the shape of the
generated code and the bound on the table.
"""

from __future__ import annotations

import re

import pytest

import repro.jit.calls as calls
import repro.jit.compile as compile_module
from repro.errors import StepLimitExceeded
from repro.interp.services import relocate_module
from repro.interp.traps import TrapKind
from repro.isa.opcodes import Op
from repro.jit import install_jit
from repro.obs import TraceRecorder
from repro.workloads.programs import CORPUS
from tests.conftest import ALL_PRESETS, build
from tests.test_jit_differential import state_vector

CHUNKS = (1, 7, 61)

CORPUS_CELLS = [
    (name, preset)
    for name in sorted(CORPUS)
    for preset in ALL_PRESETS
    if not (CORPUS[name].needs_descriptors and preset == "i1")
]


def _started(name: str, preset: str, jit: bool):
    entry = CORPUS[name]
    machine = build(list(entry.sources), preset=preset, entry=entry.entry)
    engine = install_jit(machine) if jit else None
    machine.start(entry.entry[0], entry.entry[1], *entry.args)
    return machine, engine


def _meters(machine) -> tuple:
    """Steps, counter and traffic; on a banked machine also the bank
    assignment: the Lbank and Sbank registers and each bank's role,
    assignment number, dirty set and words."""
    meters = (
        machine.steps,
        machine.counter.snapshot(),
        list(machine.memory.traffic.items()),
    )
    manager = machine.banks
    if manager is None:
        return meters
    registers = tuple(
        bank.id if bank is not None else None for bank in (manager.lbank, manager.sbank)
    )
    banks = [
        (bank.role, bank.assigned_at, sorted(bank.dirty), list(bank.words))
        for bank in machine.bankfile
    ]
    return meters + (registers, banks)


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("name, preset", CORPUS_CELLS)
def test_lock_step_slices_leave_no_charge_pending(name, preset, chunk):
    """Run both engines in ``run(max_steps=chunk)`` slices: after every
    slice the steps, the counter, the region traffic (key order
    included) and on i4 the bank assignment are the interpreter's."""
    ref, _ = _started(name, preset, jit=False)
    jit, engine = _started(name, preset, jit=True)
    slices = 0
    while True:
        done = []
        for machine in (ref, jit):
            try:
                machine.run(max_steps=chunk)
                done.append(True)
            except StepLimitExceeded:
                done.append(False)
        slices += 1
        assert done[0] == done[1], slices
        assert _meters(jit) == _meters(ref), slices
        if done[0]:
            break
    assert jit.results() == ref.results() == list(CORPUS[name].expect_results)
    assert engine.cache.blocks


#: ``@cell`` is an ``LLA``, a tail opcode: compiled code calls its
#: handler, as the interpreter does, once per loop pass.
ADDRESSED = """
MODULE Main;
PROCEDURE bump(p): INT;
BEGIN
  ^p := ^p + 1;
  RETURN ^p;
END;
PROCEDURE main(n): INT;
VAR i, acc, cell: INT;
BEGIN
  cell := 0;
  acc := 0;
  i := 0;
  WHILE i < n DO
    acc := acc + i + bump(@cell);
    i := i + 1;
  END;
  RETURN acc + cell;
END;
END.
"""


@pytest.mark.parametrize("preset", ALL_PRESETS)
def test_an_observer_attached_mid_run_reads_exact_meters(preset):
    """The ``LLA`` handler attaches a recorder on its fifth run, on both
    engines.  The JIT has pending hits then; ``attach_tracer`` charges
    them, so the recorder's events (each stamped with steps and cycles)
    and the final state equal the interpreter's, and the JIT hands the
    rest of the run to the interpreter once."""
    recorders = {}
    at_attach = {}
    machines = {}
    for engine in ("interp", "jit"):
        machine = build([ADDRESSED], preset=preset)
        jit = install_jit(machine) if engine == "jit" else None
        recorder = recorders[engine] = TraceRecorder(capacity=None)
        real = machine._dispatch[Op.LLA]
        runs = []

        def attaching(instruction, next_pc, machine=machine, recorder=recorder,
                      real=real, runs=runs, engine=engine):
            runs.append(None)
            if len(runs) == 5:
                before = _meters(machine)
                machine.attach_tracer(recorder)
                at_attach[engine] = (before, _meters(machine))
            real(instruction, next_pc)

        machine._dispatch[Op.LLA] = attaching
        machine.start("Main", "main", 12)
        assert machine.run() == [sum(range(12)) + sum(range(1, 13)) + 12]
        machines[engine] = (machine, jit)

    (ref, _), (machine, jit) = machines["interp"], machines["jit"]
    assert jit.stats.observer_bailouts == 1
    # Compiled code had left charges pending, and the attach charged them.
    assert at_attach["jit"][0] != at_attach["interp"][0]
    assert at_attach["jit"][1] == at_attach["interp"][1]
    events = list(recorders["jit"].events)
    assert events and events[0].cycles > 0
    assert events == list(recorders["interp"].events)
    assert state_vector(machine) == state_vector(ref)


#: The divisor is zero on the sixth pass, after compiled passes.
DIVIDES = """
MODULE Main;
PROCEDURE main(n): INT;
VAR i, acc: INT;
BEGIN
  acc := 0;
  i := 0;
  WHILE i < n DO
    acc := acc + 60 DIV (i - 5);
    i := i + 1;
  END;
  RETURN acc;
END;
END.
"""


@pytest.mark.parametrize("preset", ALL_PRESETS)
def test_a_host_trap_handler_reads_exact_meters(preset):
    seen = {}
    for engine in ("interp", "jit"):
        machine = build([DIVIDES], preset=preset)
        if engine == "jit":
            install_jit(machine)
        readings = seen[engine] = []
        machine.trap_handlers[TrapKind.DIVIDE_BY_ZERO] = (
            lambda m, kind, detail, readings=readings: readings.append(_meters(m))
        )
        machine.start("Main", "main", 8)
        assert machine.run() == [-47]
    assert len(seen["jit"]) == 1
    assert seen["jit"] == seen["interp"]


def _generated(monkeypatch, preset: str) -> tuple[list[str], list[str], list]:
    """(block sources, cell sources, engines) of the corpus on *preset*."""
    blocks: list[str] = []
    cells: list[str] = []

    def compiling(source, filename, mode):
        blocks.append(source)
        return compile(source, filename, mode)

    cell_code = calls._cell_code

    def cell_compiling(source):
        cells.append(source)
        return cell_code(source)

    monkeypatch.setattr(compile_module, "compile", compiling, raising=False)
    monkeypatch.setattr(calls, "_cell_code", cell_compiling)
    engines = []
    for name, cell_preset in CORPUS_CELLS:
        if cell_preset == preset:
            machine, engine = _started(name, preset, jit=True)
            machine.run()
            engines.append(engine)
    return blocks, cells, engines


#: One hit on a static vector's slot, or, for the words an i4 cell
#: spills or fills, ``words`` hits on the slot of one word's charges.
_HIT = re.compile(r"_H\[(\d+|cell\.slot)\] \+= 1|_H\[\d+\] \+= words")
_DYNAMIC_TRAFFIC = "_TR[_n] = _TR.get(_n, 0) + 1"


@pytest.mark.parametrize("preset", ALL_PRESETS)
def test_each_exit_charges_with_one_hit(monkeypatch, preset):
    """No block or cell names the counter, and only ``RD``/``WR`` touch
    the region traffic; every static charge is one ``_H[slot] += 1``
    (or ``_H[slot] += words`` per spilled or filled bank word), and a
    block exit has at most one."""
    blocks, cells, engines = _generated(monkeypatch, preset)
    assert blocks and cells
    for source in blocks + cells:
        assert "_CC" not in source and "_CTR" not in source
        for line in source.splitlines():
            code = line.strip()
            if "_TR" in code:
                assert code == _DYNAMIC_TRAFFIC, code
            if "_H[" in code:
                assert _HIT.fullmatch(code), code
    for source in blocks:
        hits = 0
        for line in source.splitlines():
            code = line.strip()
            if code.startswith("def "):
                hits = 0
            elif _HIT.fullmatch(code):
                hits += 1
                assert hits == 1, source
            elif code.startswith("return"):
                hits = 0
    assert all(engine.stats_dict()["exit_slots"] > 0 for engine in engines)


@pytest.mark.parametrize("preset", ALL_PRESETS)
def test_recompiling_the_same_procedures_interns_no_new_slot(preset):
    """An epoch bump recompiles every procedure, and the same charge
    vectors find their slots again: the table is bounded by the distinct
    vectors, not by the compiles."""
    entry = CORPUS["calls"]
    machine = build(list(entry.sources), preset=preset, entry=entry.entry)
    engine = install_jit(machine)
    machine.start(entry.entry[0], entry.entry[1], *entry.args)
    machine.run()
    stats = engine.stats_dict()
    relocate_module(machine, entry.entry[0])
    machine.start(entry.entry[0], entry.entry[1], *entry.args)
    assert machine.run() == list(entry.expect_results)
    again = engine.stats_dict()
    assert again["invalidations"] > stats["invalidations"]
    assert again["compiled_blocks"] == 2 * stats["compiled_blocks"]
    assert again["exit_slots"] == stats["exit_slots"] > 0
