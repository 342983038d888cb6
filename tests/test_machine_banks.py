"""Machine tests: register banks, renaming, deferred allocation (I4)."""

from repro.machine.costs import Event
from tests.conftest import build, run_source

LEAFY = [
    """
MODULE Main;
PROCEDURE leaf(x): INT;
BEGIN
  RETURN x + 1;
END;
PROCEDURE main(): INT;
VAR i, acc: INT;
BEGIN
  acc := 0;
  i := 0;
  WHILE i < 50 DO
    acc := acc + leaf(i);
    i := i + 1;
  END;
  RETURN acc;
END;
END.
"""
]

DEEP = [
    """
MODULE Main;
PROCEDURE down(n): INT;
BEGIN
  IF n = 0 THEN RETURN 0; END;
  RETURN down(n - 1) + 1;
END;
PROCEDURE main(): INT;
BEGIN
  RETURN down(30);
END;
END.
"""
]


def test_leaf_calls_touch_no_frame_memory():
    """The I4 fast path end to end: leaf call + return with renaming,
    deferred allocation and a return-stack hit should move nothing
    through storage."""
    results, machine = run_source(LEAFY, preset="i4")
    assert results == [sum(range(51))]
    # Every leaf frame was deferred (never materialized).
    assert machine.deferred_frames >= 50
    # The only memory traffic is the root frame setup and global access;
    # it must not scale with the 50 calls.
    assert machine.counter.memory_references < 50


def test_argument_passing_is_free_with_renaming():
    """C10: compare words moved per call between COPY and RENAME."""
    _, copy_machine = run_source(LEAFY, preset="i3")
    _, rename_machine = run_source(LEAFY, preset="i4")
    # COPY executes a store-local per argument per call (50 calls); the
    # RENAME run has no prologue instructions at all.
    assert copy_machine.steps > rename_machine.steps
    assert copy_machine.steps - rename_machine.steps >= 50


def test_deep_recursion_spills_and_recovers():
    results, machine = run_source(DEEP, preset="i4", bank_count=4)
    assert results == [30]
    stats = machine.bankfile.stats
    assert stats.overflows > 0  # depth 30 >> 4 banks
    assert stats.underflows > 0
    assert stats.words_spilled > 0


def test_more_banks_fewer_overflows():
    rates = {}
    for banks in (4, 8):
        _, machine = run_source(DEEP, preset="i4", bank_count=banks)
        rates[banks] = machine.bankfile.stats.overflow_rate
    assert rates[8] < rates[4]


def test_dirty_tracking_reduces_spill_traffic():
    _, tracked = run_source(DEEP, preset="i4", bank_count=4)
    _, untracked = run_source(DEEP, preset="i4", bank_count=4, track_dirty=False)
    assert tracked.bankfile.stats.words_spilled < untracked.bankfile.stats.words_spilled
    # Both still compute correctly (checked by run_source result shape).


def test_locals_live_in_registers():
    _, machine = run_source(LEAFY, preset="i4")
    reads = machine.counter.count(Event.REGISTER_READ)
    writes = machine.counter.count(Event.REGISTER_WRITE)
    assert reads > 100 and writes > 100


def test_large_frames_fall_back_to_memory():
    """A frame bigger than a bank cannot defer; its overflow locals go to
    storage and still behave correctly."""
    names = ", ".join(f"v{i}" for i in range(20))
    assignments = "\n".join(f"  v{i} := {i};" for i in range(20))
    total = " + ".join(f"v{i}" for i in range(20))
    source = [
        f"""
MODULE Main;
PROCEDURE big(): INT;
VAR {names}: INT;
BEGIN
{assignments}
  RETURN {total};
END;
PROCEDURE main(): INT;
BEGIN
  RETURN big();
END;
END.
"""
    ]
    results, machine = run_source(source, preset="i4", bank_words=16)
    assert results == [sum(range(20))]
    # The big frame materialized.
    assert machine.deferred_frames == 0 or machine.counter.memory_references > 10


#: Figure 3's events on a machine: ``main`` is X; it calls ``a``, then
#: ``b``, which calls ``c``, then ``d``.
FIGURE3 = [
    """
MODULE Main;
PROCEDURE a(): INT;
BEGIN
  RETURN 1;
END;
PROCEDURE c(): INT;
BEGIN
  RETURN 3;
END;
PROCEDURE d(): INT;
BEGIN
  RETURN 4;
END;
PROCEDURE b(): INT;
VAR x: INT;
BEGIN
  x := c();
  RETURN x + d();
END;
PROCEDURE main(): INT;
VAR x: INT;
BEGIN
  x := a();
  RETURN x + b();
END;
END.
"""
]


class _Registers:
    """A tracer that reads the bank manager's two registers at every
    transfer, numbering banks from 1 as Figure 3 does."""

    def __init__(self, machine):
        self.machine = machine
        self.rows = []

    def emit(self, kind, name="", **data):
        if kind in ("machine.begin", "xfer.call", "xfer.return"):
            banks = self.machine.banks
            self.rows.append((
                kind,
                banks.lbank.id + 1 if banks.lbank is not None else None,
                banks.sbank.id + 1 if banks.sbank is not None else None,
            ))


def test_an_i4_machine_assigns_banks_as_figure3():
    """The paper's rows on a real machine: begin X, call A, return, call
    B, call C, return, call D, return.  Then B returns to X, and the
    halting return releases both banks."""
    machine = build(FIGURE3, preset="i4")
    registers = _Registers(machine)
    machine.attach_tracer(registers)
    machine.start("Main", "main")
    assert machine.run() == [1 + 3 + 4]
    assert registers.rows == [
        ("machine.begin", 1, 2),  # begin X
        ("xfer.call", 2, 3),  # call A
        ("xfer.return", 1, 3),
        ("xfer.call", 3, 2),  # call B
        ("xfer.call", 2, 4),  # call C
        ("xfer.return", 3, 4),
        ("xfer.call", 4, 2),  # call D
        ("xfer.return", 3, 2),
        ("xfer.return", 1, 2),  # B returns to X
        ("xfer.return", None, None),  # the halting return
    ]
    assert machine.bankfile.stats.overflows == 0
