"""The I4 bank-assignment trace is a bounded ring of the newest rows.

A machine records a trace row on every call and return for its whole
life; the trace keeps only the newest ``TRACE_ROWS``, enough for Figure 3
and for every reader, and a snapshot restore refills the same ring.
"""

from repro.banks.renaming import TRACE_ROWS
from repro.faults import capture, restore
from repro.machine.memory import to_signed
from tests.conftest import build, run_source
from tests.test_machine_banks import LEAFY
from tests.test_renaming import Frame, manager_with_log

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


def rows(trace):
    return [(event.event, event.lbank, event.sbank) for event in trace]


def test_figure_3_stays_exact_at_the_end_of_a_long_trace():
    manager, _, _, _ = manager_with_log(banks=4)
    root = Frame("root")
    manager.begin(root)
    for number in range(2 * TRACE_ROWS):
        caller = manager.on_call(Frame(f"f{number}"), event=f"call f{number}")
        manager.on_return(root, caller)
    assert len(manager.trace) == TRACE_ROWS
    assert manager.banks.stats.xfers == 4 * TRACE_ROWS
    manager.flush_all()

    x, a, b, c, d = (Frame(n) for n in "XABCD")
    manager.begin(x, event="begin X")
    caller_a = manager.on_call(a, event="call A")
    manager.on_return(x, caller_a, event="return")
    caller_b = manager.on_call(b, event="call B")
    caller_c = manager.on_call(c, event="call C")
    manager.on_return(b, caller_c, event="return")
    caller_d = manager.on_call(d, event="call D")
    manager.on_return(b, caller_d, event="return")

    assert len(manager.trace) == TRACE_ROWS
    assert rows(manager.trace)[-8:] == [
        ("begin X", 0, 1),
        ("call A", 1, 2),
        ("return", 0, 2),
        ("call B", 2, 1),
        ("call C", 1, 3),
        ("return", 2, 3),
        ("call D", 3, 1),
        ("return", 2, 1),
    ]


def test_long_i4_run_keeps_the_trace_at_its_bound():
    calls = 2 * TRACE_ROWS
    source = [LEAFY[0].replace("i < 50", f"i < {calls}")]
    results, machine = run_source(source, preset="i4")
    assert results == [to_signed(sum(range(1, calls + 1)))]
    assert machine.bankfile.stats.xfers >= 2 * calls
    trace = machine.banks.trace
    assert len(trace) == TRACE_ROWS
    assert [event.event for event in trace][-2:] == ["call leaf", "return"]


def test_restore_refills_the_ring():
    """A resumed I4 run ends with the straight run's newest rows, still
    at the bound."""
    straight = build([FIB], preset="i4")
    straight.start()
    straight.run()
    assert len(straight.banks.trace) == TRACE_ROWS

    machine = build([FIB], preset="i4")
    machine.start()
    while machine.steps < 400:
        machine.step()
    resumed = build([FIB], preset="i4")
    restore(resumed, capture(machine))
    resumed.run()
    assert rows(resumed.banks.trace) == rows(straight.banks.trace)
