"""I4 call cells: the JIT's renaming calls and returns vs the interpreter.

On a banked machine the JIT's call cells replay ``_do_call``'s section
7.2 transition — argument record into the stack bank, the rename, a
deferred callee — and its fast return restores the caller's bank.  A
bank overflow spills the oldest bank into its frame inside the call
cell, and an underflow fills the caller's bank inside the return cell.
Every other unusual event (a full return stack, a victim whose frame is
still deferred or that is not a local bank, a bank-file tracer, no
current Lbank, a flagged or retained frame, a callee too big to defer)
goes to the interpreter's generic handler.  Each program here drives one
of those paths; the full captured state vector must equal the
interpreter's, so a cell that drops a dirty bit, a return stack count
or a sequence number fails.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.banks.bankfile import BankRole
from repro.banks.pointers import PointerPolicy
from repro.errors import StepLimitExceeded
from repro.ifu.returnstack import OverflowPolicy
from repro.interp.machineconfig import ArgConvention
from repro.jit import install_jit
from repro.workloads.programs import CORPUS
from tests.conftest import build
from tests.test_jit_differential import state_vector
from tests.test_jit_host_calls import CALL_DENSE, CALL_SHALLOW
from tests.test_storage_ops import RETAINED

#: Recursion depth up to 13: past the 8-entry return stack and the 4
#: banks, so returns walk back through flushed entries and spilled banks.
DEEP = """
MODULE Main;
PROCEDURE down(n): INT;
BEGIN
  IF n = 0 THEN RETURN 0; END;
  RETURN down(n - 1) + n;
END;
PROCEDURE main(n): INT;
VAR i, acc: INT;
BEGIN
  acc := 0;
  i := 0;
  WHILE i < n DO
    acc := acc + down(i);
    i := i + 1;
  END;
  RETURN acc;
END;
END.
"""

#: ``@cell`` flags main's frame (FLAG_FLUSH): each call out of it spills
#: and releases its bank, and each return into it refills one.
FLAGGED = """
MODULE Main;
PROCEDURE bump(p): INT;
BEGIN
  ^p := ^p + 1;
  RETURN ^p;
END;
PROCEDURE leaf(x): INT;
BEGIN
  RETURN x + 1;
END;
PROCEDURE main(n): INT;
VAR i, acc, cell: INT;
BEGIN
  cell := 0;
  acc := 0;
  i := 0;
  WHILE i < n DO
    acc := acc + bump(@cell) + leaf(i);
    i := i + 1;
  END;
  RETURN acc + cell;
END;
END.
"""

#: ``wide`` has 18 local words, more than a 16-word bank holds, so its
#: frame cannot be deferred; ``leaf`` beside it still gets a cell.
WIDE = """
MODULE Main;
PROCEDURE wide(x): INT;
VAR a, b, c, d, e, f, g, h, i, j, k, l, m, n, o, p, q: INT;
BEGIN
  a := x;
  q := a + 1;
  RETURN q;
END;
PROCEDURE leaf(x): INT;
BEGIN
  RETURN x + 2;
END;
PROCEDURE main(n): INT;
VAR i, acc: INT;
BEGIN
  acc := 0;
  i := 0;
  WHILE i < n DO
    acc := acc + wide(i) + leaf(i);
    i := i + 1;
  END;
  RETURN acc;
END;
END.
"""

#: Calls across modules and within one: with ``Lib`` multi-instance the
#: I4 linker emits EFC into it and LFC inside it instead of DFC/SDFC.
LINKED = [
    """
MODULE Main;
PROCEDURE main(n): INT;
VAR i, acc: INT;
BEGIN
  acc := 0;
  i := 0;
  WHILE i < n DO
    acc := acc + Lib.twice(i, 3);
    i := i + 1;
  END;
  RETURN acc;
END;
END.
""",
    """
MODULE Lib;
PROCEDURE add(a, b): INT;
BEGIN
  RETURN a + b;
END;
PROCEDURE twice(a, b): INT;
BEGIN
  RETURN add(a, b) + add(b, a);
END;
END.
""",
]


#: ``main`` starts a coroutine on each pass, which XFERs straight back
#: and stays suspended, keeping a bank younger than main's.  Once they
#: fill the file, main's own bank is the oldest when its call of
#: ``leaf`` overflows: the victim is the caller's bank, and leaf's return
#: refills it.
COROUTINES = """
MODULE Main;
PROCEDURE echo(seed): INT;
VAR who: INT;
BEGIN
  who := SOURCE();
  WHILE 1 DO
    who := XFER(who, seed);
    who := SOURCE();
  END;
  RETURN 0;
END;
PROCEDURE leaf(x): INT;
BEGIN
  RETURN x + 1;
END;
PROCEDURE main(n): INT;
VAR i, acc, v: INT;
BEGIN
  acc := 0;
  i := 0;
  WHILE i < n DO
    acc := acc + leaf(i);
    v := XFER(PROC(echo), i);
    acc := acc + v;
    i := i + 1;
  END;
  RETURN acc;
END;
END.
"""

#: ``seven`` has no argument and no local.  A call after a flush gives it
#: the stack bank the call acquires; a flush inside it leaves its return
#: with no current Lbank.
BANKLESS = """
MODULE Main;
PROCEDURE seven(): INT;
BEGIN
  RETURN 7;
END;
PROCEDURE main(n): INT;
VAR i, acc: INT;
BEGIN
  acc := 0;
  i := 0;
  WHILE i < n DO
    acc := acc + seven() + i;
    i := i + 1;
  END;
  RETURN acc;
END;
END.
"""

#: ``main`` calls ``outer``, which calls ``inner``; neither takes an
#: argument, so a call after a flush has no stack bank to rename.
NESTED = """
MODULE Main;
PROCEDURE inner(): INT;
BEGIN
  RETURN 2;
END;
PROCEDURE outer(): INT;
BEGIN
  RETURN inner() + 1;
END;
PROCEDURE main(n): INT;
VAR i, acc: INT;
BEGIN
  acc := 0;
  i := 0;
  WHILE i < n DO
    acc := acc + outer();
    i := i + 1;
  END;
  RETURN acc;
END;
END.
"""

#: The section 7 knobs the ablation benchmarks turn.
ABLATIONS = {
    "copy": {"arg_convention": ArgConvention.COPY},
    "spill-oldest": {"return_stack_policy": OverflowPolicy.SPILL_OLDEST},
    "rstack-2": {"return_stack_depth": 2},
    "banks-3": {"bank_count": 3},
    "banks-8": {"bank_count": 8},
    "words-8": {"bank_words": 8, "eval_stack_depth": 8},
    "no-dirty": {"track_dirty": False},
    "divert": {"pointer_policy": PointerPolicy.DIVERT},
}

#: The preset, then each ablation.
SWEEP = pytest.mark.parametrize(
    "overrides", [{}, *ABLATIONS.values()], ids=["preset", *ABLATIONS]
)


def _pair(sources, args, **overrides):
    """(interpreter machine, JIT machine, engine), both started."""
    ref = build(sources, preset="i4", **overrides)
    jit = build(sources, preset="i4", **overrides)
    engine = install_jit(jit)
    for machine in (ref, jit):
        machine.start("Main", "main", *args)
    return ref, jit, engine


def _run_both(sources, args=(), **overrides):
    ref, jit, engine = _pair(sources, args, **overrides)
    assert jit.run() == ref.run()
    assert state_vector(jit) == state_vector(ref)
    return ref, jit, engine


def _generic_bank_events(machine) -> Counter:
    """The overflows and underflows *machine*'s generic call and return
    handlers perform from now on; a cell's own are not counted."""
    events = Counter(overflows=0, underflows=0)
    stats = machine.bankfile.stats
    for name in ("_do_call", "_op_return"):

        def counted(*args, handler=getattr(machine, name)):
            before = stats.overflows, stats.underflows
            try:
                return handler(*args)
            finally:
                events["overflows"] += stats.overflows - before[0]
                events["underflows"] += stats.underflows - before[1]

        setattr(machine, name, counted)
    return events


def _bank_shapes(machine) -> Counter:
    """The shape of each overflow at a call on interpreter *machine* —
    what its victim was — and of each underflow at a return — whether
    the bank it fills is the Lbank the return released.  An XFER to a
    descriptor renames a bank too, but only a call runs in a cell."""
    shapes: Counter = Counter()
    manager = machine.banks
    stats = machine.bankfile.stats
    on_call, on_return = manager.on_call, manager.on_return
    calling = []

    def do_call(*args, handler=machine._do_call):
        calling.append(True)
        try:
            handler(*args)
        finally:
            calling.pop()

    def call(callee, arg_words=0):
        before = {
            bank: (bank.role, getattr(bank.frame, "address", None))
            for bank in machine.bankfile
        }
        caller, overflows = manager.lbank, stats.overflows
        bank = on_call(callee, arg_words)
        if stats.overflows > overflows and calling:
            victim = manager.sbank
            role, address = before[victim]
            if role is not BankRole.LOCAL:
                shapes["stack victim"] += 1
            elif address is None:
                shapes["deferred victim"] += 1
            else:
                shapes["caller's victim" if victim is caller else "older victim"] += 1
        return bank

    def ret(frame, bank):
        released, underflows = manager.lbank, stats.underflows
        on_return(frame, bank)
        if stats.underflows > underflows:
            shapes["refill released" if manager.lbank is released else "refill other"] += 1

    manager.on_call, manager.on_return = call, ret
    machine._do_call = do_call
    return shapes


def _run_counted(sources, args, runs=1, between=None, **overrides):
    """Run both machines *runs* times, comparing results and state after
    each; the runs before the last warm the cells, and *between*, if
    given, acts on each machine before the last.  Returns the JIT's
    generic bank events and the interpreter's bank shapes, both over the
    last run, and its results."""
    ref, jit, engine = _pair(sources, args, **overrides)
    for run in range(runs):
        if run:
            for machine in (ref, jit):
                machine.start("Main", "main", *args)
        if run == runs - 1:
            generic, shapes = _generic_bank_events(jit), _bank_shapes(ref)
            if between is not None:
                between(ref)
                between(jit)
        results = jit.run()
        assert results == ref.run()
        assert state_vector(jit) == state_vector(ref)
    assert engine.stats.deopts == 0
    return generic, shapes, results


def test_deep_recursion_overflows_the_return_stack_and_the_banks():
    ref, jit, engine = _run_both([DEEP], (14,))
    assert jit.results() == [sum(i * (i + 1) // 2 for i in range(14))]
    assert engine.stats.cells_built > 0
    assert ref.rstack.stats.flushes.get("overflow", 0) > 0
    assert ref.bankfile.stats.overflows > 0
    assert ref.bankfile.stats.underflows > 0
    assert engine.stats.deopts == 0


def test_a_flagged_caller_spills_generically_and_refills_in_the_cell():
    """Each call out of the flagged ``main`` spills and releases its bank
    on the generic path; each return into it refills that bank from
    main's frame inside the return cell."""
    generic, shapes, results = _run_counted([FLAGGED], (10,))
    assert results == [sum(i + 1 + i + 1 for i in range(10)) + 10]
    assert shapes == {"refill released": 20}
    assert generic == {"overflows": 0, "underflows": 0}


def test_retained_frames_return_generically():
    _, jit, _ = _run_both(RETAINED)
    assert jit.results() == [31 + 12]
    assert not jit.frames.by_address


def test_a_callee_too_big_to_defer_demotes_only_its_site():
    _, jit, engine = _run_both([WIDE], (12,))
    assert jit.results() == [sum(2 * i + 3 for i in range(12))]
    assert engine.stats.sites_demoted == 1
    assert engine.stats.cells_built > 0


def test_a_demoted_site_seeds_once(seed_runs):
    """After the demoting call, the site's calls go straight to the
    generic handler: ``seed`` runs once per site, not once per call."""
    _, _, engine = _run_both([WIDE], (12,))
    assert engine.stats.sites_demoted == 1
    assert len(seed_runs) == len(set(seed_runs)) == 2  # wide's site and leaf's


def test_external_and_local_calls_get_renaming_cells():
    ref, jit, engine = _run_both(LINKED, (20,), multi_instance=frozenset({"Lib"}))
    assert jit.results() == [sum(2 * (i + 3) for i in range(20))]
    kinds = {kind.value for kind in ref.fetch.fast} | {kind.value for kind in ref.fetch.slow}
    assert {"external_call", "local_call"} <= kinds
    assert engine.stats.cells_built >= 3


@pytest.mark.parametrize("overrides", list(ABLATIONS.values()), ids=list(ABLATIONS))
def test_i4_ablations_keep_the_cells_exact(overrides):
    """The section 7 knobs the ablation benchmarks turn: each moves where
    the guards fire, never what a cell does."""
    _, _, engine = _run_both([DEEP], (14,), **overrides)
    assert engine.stats.cells_built > 0


@pytest.mark.parametrize("chunk", [5, 13, 37])
def test_chunked_runs_stop_mid_sequence_identically(chunk):
    """``run(max_steps=k)`` stops between a call and its return; every
    stop captures the same state on both engines."""
    ref, jit, engine = _pair([DEEP], (9,))
    stops = 0
    while True:
        outcomes = []
        for machine in (ref, jit):
            try:
                machine.run(max_steps=chunk)
                outcomes.append("done")
            except StepLimitExceeded:
                outcomes.append("stopped")
        assert outcomes[0] == outcomes[1]
        assert state_vector(jit) == state_vector(ref)
        if outcomes[0] == "done":
            break
        stops += 1
    assert stops > 10
    assert engine.stats.cells_built > 0


def test_i4_builds_cells_on_the_call_dense_corpus_program():
    """The corpus's call-dense program (the shape the host benchmarks
    time): every site gets a renaming cell and no block deoptimizes."""
    entry = CORPUS["calls"]
    _, _, engine = _run_both(list(entry.sources), entry.args)
    assert engine.stats.cells_built > 0
    assert engine.stats.sites_demoted == 0
    assert engine.stats.deopts == 0


# -- bank overflow and underflow inside the cells ----------------------------


@SWEEP
def test_an_overflow_can_spill_the_callers_own_bank(overrides):
    generic, shapes, _ = _run_counted([COROUTINES], (10,), **overrides)
    assert shapes["caller's victim"] > 0
    if not overrides:
        assert shapes["refill released"] > 0
        assert generic == {"overflows": 0, "underflows": 0}


@SWEEP
def test_an_overflow_spills_an_older_bank_and_an_underflow_refills_another(overrides):
    """Calldense on i4: the call four deep spills main's bank, and the
    return to main refills main into the first free bank, which is not
    the Lbank the return released.  A warm run runs both in the cells."""
    generic, shapes, _ = _run_counted([CALL_DENSE], (10,), runs=2, **overrides)
    if not overrides:
        assert shapes == {"older victim": 10, "refill other": 10}
        assert generic == {"overflows": 0, "underflows": 0}


@SWEEP
def test_a_deferred_victim_stays_generic(overrides):
    """Recursion spills frames that were never allocated: the spill must
    allocate, so those overflows run the generic transfer.  Some spills
    of allocated frames stay in the cells; others come with a full
    return stack, which is generic too."""
    generic, shapes, _ = _run_counted([DEEP], (14,), **overrides)
    if not overrides:
        deferred, older = shapes["deferred victim"], shapes["older victim"]
        assert deferred > 0 and older > 0
        assert deferred <= generic["overflows"] < deferred + older


def _stale_stack_bank(machine) -> None:
    """A free bank left holding a stack, the oldest of all: what a
    halting return left behind before it released its banks."""
    for bank in machine.bankfile:
        if bank.role is BankRole.FREE:
            bank.rebind(BankRole.STACK, None, 0)
            return


def test_a_victim_that_is_not_a_local_bank_stays_generic():
    generic, shapes, _ = _run_counted([CALL_DENSE], (10,), runs=2, between=_stale_stack_bank)
    assert shapes["stack victim"] == 1
    assert generic == {"overflows": 1, "underflows": 0}


class _Events(list):
    """A bank-file tracer: every event, in order."""

    def emit(self, kind, *args, **fields):
        self.append((kind, args, fields))


def test_a_bank_file_tracer_keeps_the_overflows_generic():
    """Spills and fills emit ``bank.spill`` and ``bank.fill`` to an
    attached bank-file tracer; the cells leave them to the interpreter,
    which emits the same events in the same order."""
    traces = {}

    def attach(machine):
        traces[machine] = machine.bankfile.tracer = _Events()

    generic, shapes, _ = _run_counted([CALL_DENSE], (10,), runs=2, between=attach)
    assert generic == {"overflows": 10, "underflows": 10}
    ref_events, jit_events = traces.values()
    assert ref_events == jit_events
    assert Counter(kind for kind, _, _ in ref_events) == {"bank.spill": 10, "bank.fill": 10}


def test_without_dirty_tracking_the_overflows_stay_generic():
    """Without dirty tracking a spill writes the whole bank: the call
    cell leaves it to the interpreter, and the return cell still fills."""
    generic, shapes, _ = _run_counted([CALL_DENSE], (10,), runs=2, track_dirty=False)
    assert shapes == {"older victim": 10, "refill other": 10}
    assert generic == {"overflows": 10, "underflows": 0}


@pytest.mark.parametrize("chunk", [29, 61])
def test_a_return_without_a_current_lbank_stays_generic(chunk):
    """A flush leaves no current Lbank and no stack bank: the next call
    runs generically and acquires a stack bank for ``seven``.  A flush
    that lands inside ``seven`` leaves its return with no current Lbank;
    that return must fill main's bank, and with no Lbank to release the
    return cell leaves it to the interpreter."""
    ref, jit, engine = _pair([BANKLESS], (40,))
    generic = _generic_bank_events(jit)
    bankless = []

    def op_return(handler=jit._op_return):
        bankless.append(jit.banks.lbank is None)
        handler()

    jit._op_return = op_return
    flushes = 0
    while True:
        outcomes = []
        for machine in (ref, jit):
            try:
                machine.run(max_steps=chunk)
                outcomes.append("done")
            except StepLimitExceeded:
                outcomes.append("stopped")
                machine.banks.flush_all()
        assert outcomes[0] == outcomes[1]
        assert state_vector(jit) == state_vector(ref)
        if outcomes[0] == "done":
            break
        flushes += 1
    assert jit.results() == [sum(7 + i for i in range(40))]
    assert flushes > 5
    assert any(bankless)
    assert generic["underflows"] > 0
    assert engine.stats.cells_built > 0, engine.stats


def test_a_flush_at_any_step_leaves_every_callee_a_bank():
    """Flush every bank after step k, for every k, then run to the end.
    The next call acquires a stack bank to rename, so no callee runs
    without a bank and no return fills from a frame that was never
    given memory: both engines finish with the right result and equal
    state."""
    straight, _, _ = _pair([NESTED], (2,))
    straight.run()
    for k in range(1, straight.steps):
        ref, jit, engine = _pair([NESTED], (2,))
        for machine in (ref, jit):
            with pytest.raises(StepLimitExceeded):
                machine.run(max_steps=k)
            machine.banks.flush_all()
        assert jit.run() == ref.run() == [6], k
        assert state_vector(jit) == state_vector(ref), k
    assert engine.stats.cells_built > 0


@pytest.mark.parametrize("engine", ["interp", "jit"])
@pytest.mark.parametrize("source", [CALL_SHALLOW, CALL_DENSE], ids=["shallow", "calldense"])
def test_runs_on_one_machine_charge_alike(source, engine):
    """The halting return releases the root's bank and the stack bank,
    so each later run on the machine starts from the banks the first
    run had: equal counter deltas and equal bank statistics."""
    machine = build([source], preset="i4")
    if engine == "jit":
        install_jit(machine)
    deltas = []
    for _ in range(3):
        counts = machine.counter.snapshot()
        stats = dict(vars(machine.bankfile.stats))
        machine.start("Main", "main", 7)
        machine.run()
        after = machine.counter.snapshot()
        deltas.append((
            {key: after[key] - counts[key] for key in after},
            {key: value - stats[key] for key, value in vars(machine.bankfile.stats).items()},
        ))
        assert all(bank.role is BankRole.FREE for bank in machine.bankfile)
    assert deltas[0] == deltas[1] == deltas[2]
