"""The JIT's call path in host calls: one Python call per transition.

A seeded call cell and a seeded return cell are one host call each
(docs/jit.md, "Call sites"): the allocator's fast path, its
``AllocationStats`` updates and the frame-table registration run inline,
so a call-and-return pair adds only the record constructors —
``FrameState``, and ``ReturnStackEntry`` on a machine with the IFU
return stack, i4's renaming pair included.  The counts are
deterministic, unlike host timings.

Only Python calls into the repository's own code are counted (its
modules, the cells, and its records' constructors); C calls vary with
the Python version and are not asserted.  Compiled blocks are the
straight-line code around the calls and are not counted either.

The same counter gates the engine as a whole: on the call-dense loop,
the JIT makes at most a third of the interpreter's calls per modelled
step.  That is the JIT's speedup stated as a count, which two runs read
alike, where a timed ratio drifts with host load.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.jit import install_jit
from tests.conftest import build

#: The call-dense program of the repo benchmark's ``calldense`` workload:
#: six calls per iteration of ``main``'s loop, at most four deep, so every
#: return on i3 hits the return stack.
CALL_DENSE = """
MODULE Main;
VAR acc: INT;
PROCEDURE inc(x): INT;
BEGIN
  RETURN x + 1;
END;
PROCEDURE double(x): INT;
BEGIN
  RETURN x + x;
END;
PROCEDURE combine(a, b): INT;
BEGIN
  RETURN inc(a) + double(b);
END;
PROCEDURE step(x): INT;
BEGIN
  RETURN combine(inc(x), double(x));
END;
PROCEDURE main(n): INT;
VAR i: INT;
BEGIN
  acc := 0;
  i := 0;
  WHILE i < n DO
    acc := acc + step(i);
    i := i + 1;
  END;
  RETURN acc;
END;
END.
"""

CALLS_PER_ITERATION = 6

#: Two calls per iteration, one deep: every call stays inside i4's four
#: banks, while calldense overflows a bank on one call in six.
CALL_SHALLOW = """
MODULE Main;
PROCEDURE inc(x): INT;
BEGIN
  RETURN x + 1;
END;
PROCEDURE double(x): INT;
BEGIN
  RETURN x + x;
END;
PROCEDURE main(n): INT;
VAR i, acc: INT;
BEGIN
  acc := 0;
  i := 0;
  WHILE i < n DO
    acc := acc + inc(i) + double(i);
    i := i + 1;
  END;
  RETURN acc;
END;
END.
"""

_REPO = str(Path(repro.__file__).parent)


def _owner(frame) -> str | None:
    """The repo function a profiled frame runs, or None if not counted."""
    code = frame.f_code
    if code.co_filename == "<jit cells>":
        return code.co_name
    if code.co_filename.startswith(_REPO):
        return f"{Path(code.co_filename).stem}.{code.co_name}"
    if code.co_name == "__init__":
        owner = type(frame.f_locals.get("self"))
        if owner.__module__.startswith("repro."):
            return f"{owner.__name__}.__init__"
    return None


def _calls(machine, n: int, iteration=lambda i: 5 * i + 2) -> Counter:
    """Repo-function calls made by one warm ``Main.main(n)`` run, whose
    loop adds ``iteration(i)`` per pass (calldense's by default)."""
    calls: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call":
            owner = _owner(frame)
            if owner is not None:
                calls[owner] += 1

    machine.stack.clear()
    machine.start("Main", "main", n)
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        machine.run()
    finally:
        sys.setprofile(previous)
    assert machine.results() == [sum(iteration(i) for i in range(n))]
    return calls


@pytest.mark.parametrize(
    "preset, records",
    [
        ("i1", ["FrameState.__init__"]),
        ("i2", ["FrameState.__init__"]),
        ("i3", ["FrameState.__init__", "ReturnStackEntry.__init__"]),
    ],
)
def test_a_call_and_return_pair_is_two_cell_calls_and_its_records(preset, records):
    machine = build([CALL_DENSE], preset=preset)
    engine = install_jit(machine)
    _calls(machine, 4)  # compile every body and seed every cell
    short, long = _calls(machine, 3), _calls(machine, 13)
    pairs = (13 - 3) * CALLS_PER_ITERATION
    per_pair = Counter(long)
    per_pair.subtract(short)
    per_pair = {name: count / pairs for name, count in per_pair.items() if count}
    expected = {"fast_call": 1.0, "fast_return": 1.0}
    expected.update((record, 1.0) for record in records)
    assert per_pair == expected
    assert sum(per_pair.values()) == 2 + len(records)
    assert engine.stats.deopts == 0


def test_an_i4_renaming_pair_is_two_cell_calls_and_its_records():
    """I4's renaming cells are generated like the others: a pair is the
    two ``<jit cells>`` functions, the callee's ``FrameState`` and the
    caller's ``ReturnStackEntry``."""
    machine = build([CALL_SHALLOW], preset="i4")
    engine = install_jit(machine)

    def shallow(n: int) -> Counter:
        return _calls(machine, n, iteration=lambda i: 3 * i + 1)

    shallow(4)
    short, long = shallow(3), shallow(13)
    pairs = (13 - 3) * 2
    per_pair = Counter(long)
    per_pair.subtract(short)
    per_pair = {name: count / pairs for name, count in per_pair.items() if count}
    assert per_pair == {
        "fast_call": 1.0,
        "fast_return": 1.0,
        "FrameState.__init__": 1.0,
        "ReturnStackEntry.__init__": 1.0,
    }
    assert engine.stats.deopts == 0


def _calls_per_step(machine) -> float:
    """Repo-function calls per modelled step of warm calldense runs: the
    difference between ``Main.main(13)`` and ``Main.main(3)``, so the
    cost of starting and ending a run cancels."""
    _calls(machine, 4)  # compile every body and seed every cell
    totals = []
    for n in (3, 13):
        steps = machine.steps
        calls = _calls(machine, n)
        totals.append((sum(calls.values()), machine.steps - steps))
    (short_calls, short_steps), (long_calls, long_steps) = totals
    return (long_calls - short_calls) / (long_steps - short_steps)


@pytest.mark.parametrize("preset", ["i1", "i2", "i3", "i4"])
def test_the_jit_makes_a_third_of_the_interpreters_calls_per_step(preset):
    """About 8 to 9 calls per step interpreted, against 0.3 to 0.45 on
    i1-i4; on i4 one call in six overflows a bank and its return
    underflows, both inside the cells."""
    interpreted = _calls_per_step(build([CALL_DENSE], preset=preset))
    machine = build([CALL_DENSE], preset=preset)
    engine = install_jit(machine)
    compiled = _calls_per_step(machine)
    assert compiled <= interpreted / 3, (interpreted, compiled)
    assert engine.stats.deopts == 0
    assert engine.stats.cells_built > 0


def test_a_warm_calldense_run_on_i4_runs_no_generic_transfer():
    """I4's call cell spills the oldest bank when a call overflows, and
    its return cell refills the caller's bank when a return underflows:
    a warm calldense run makes no ``Machine._do_call`` and one
    ``Machine._op_return``, the halting one, and its bank statistics
    equal the interpreter's."""
    interpreted = build([CALL_DENSE], preset="i4")
    machine = build([CALL_DENSE], preset="i4")
    engine = install_jit(machine)
    _calls(interpreted, 4)
    _calls(machine, 4)
    before = machine.bankfile.stats.overflows
    calls = _calls(machine, 13)
    _calls(interpreted, 13)
    assert calls["machine._do_call"] == 0
    assert calls["machine._op_return"] == 1
    assert machine.bankfile.stats.overflows - before == 13
    assert vars(machine.bankfile.stats) == vars(interpreted.bankfile.stats)
    assert engine.stats.deopts == 0
