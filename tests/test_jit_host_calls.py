"""The JIT's call path in host calls: calls at jump speed.

A seeded call to a straight-line callee is spliced into its caller's
superblock (docs/jit.md, "Superblocks"), i4's renaming pair included,
so a warm loop that calls makes the Python calls of the same loop
without the call: the loop's two compiled blocks.  A call that cannot
splice (a recursive callee, or one that branches) goes through the
call and return cells, one host call each (docs/jit.md, "Call sites"): the allocator's
fast path, its ``AllocationStats`` updates and the frame-table
registration run inline, so such a pair adds only the record
constructors — ``FrameState``, and ``ReturnStackEntry`` on a machine
with the IFU return stack.  The counts are deterministic, unlike host
timings.

The pair tests count only Python calls into the repository's own code
(its modules, the cells, and its records' constructors); the loop tests
count every Python call, compiled blocks included.  C calls vary with
the Python version and are not asserted.

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

#: The call loop of the jump-speed comparison (ROADMAP): the same loop
#: as :data:`JUMP_LOOP`, with one call to a one-line leaf per pass.
CALL_LOOP = """
MODULE Main;
PROCEDURE id(x): INT;
BEGIN
  RETURN x;
END;
PROCEDURE main(n): INT;
VAR i, acc: INT;
BEGIN
  acc := 0;
  i := 0;
  WHILE i < n DO
    acc := acc + id(i);
    i := i + 1;
  END;
  RETURN acc;
END;
END.
"""

JUMP_LOOP = CALL_LOOP.replace("acc + id(i)", "acc + i")

#: :data:`CALL_SHALLOW` with a branch in each callee, which returns the
#: same values: neither callee is straight-line, so neither call splices.
BRANCHING_SHALLOW = CALL_SHALLOW.replace(
    "BEGIN\n  RETURN x + 1;", "BEGIN\n  IF x = 0 THEN RETURN 1; END;\n  RETURN x + 1;"
).replace(
    "BEGIN\n  RETURN x + x;", "BEGIN\n  IF x = 0 THEN RETURN 0; END;\n  RETURN x + x;"
)

#: Three calls per pass that cannot splice: ``down`` recurses, so its
#: body is no straight line up to its RET.
RECURSIVE = """
MODULE Main;
PROCEDURE down(x): INT;
BEGIN
  IF x = 0 THEN RETURN 0; END;
  RETURN down(x - 1) + 1;
END;
PROCEDURE main(n): INT;
VAR i, acc: INT;
BEGIN
  acc := 0;
  i := 0;
  WHILE i < n DO
    acc := acc + down(2) + i;
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
    """A pair that does not splice (the callee recurses) runs the cells."""
    machine = build([RECURSIVE], preset=preset)
    engine = install_jit(machine)

    def recursive(n: int) -> Counter:
        return _calls(machine, n, iteration=lambda i: i + 2)

    recursive(4)  # compile every body and seed every cell
    short, long = recursive(3), recursive(13)
    pairs = (13 - 3) * 3
    per_pair = Counter(long)
    per_pair.subtract(short)
    per_pair = {name: count / pairs for name, count in per_pair.items() if count}
    expected = {"fast_call": 1.0, "fast_return": 1.0}
    expected.update((record, 1.0) for record in records)
    assert per_pair == expected
    assert sum(per_pair.values()) == 2 + len(records)
    assert engine.stats.deopts == 0
    assert engine.stats.superblocks == 0


def _python_calls_per_pass(source: str, preset: str, iteration) -> float:
    """Every Python call (compiled blocks and cells included) per pass
    of a warm ``Main.main`` loop: ``main(13)`` less ``main(3)``."""
    machine = build([source], preset=preset)
    install_jit(machine)
    counts = []
    for n in (4, 3, 13):
        calls = [0]

        def profile(frame, event, arg):
            if event == "call":
                calls[0] += 1

        machine.stack.clear()
        machine.start("Main", "main", n)
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            results = machine.run()
        finally:
            sys.setprofile(previous)
        assert results == [sum(iteration(i) for i in range(n)) & 0xFFFF]
        counts.append(calls[0])
    return (counts[2] - counts[1]) / 10


@pytest.mark.parametrize(
    "preset, jump, call, dense",
    [("i1", 2, 2, 2), ("i2", 2, 2, 2), ("i3", 2, 2, 2), ("i4", 2, 2, 2)],
)
def test_a_spliced_call_runs_at_jump_speed_in_python_calls(preset, jump, call, dense):
    """Python calls per warm loop pass: the jump loop's two blocks (the
    test and the body); the call loop and calldense's six calls three
    deep make those same two on every preset, i4's bank overflow and
    underflow included (through the cells they made 8 and 38 on i4)."""
    assert _python_calls_per_pass(JUMP_LOOP, preset, lambda i: i) == jump
    assert _python_calls_per_pass(CALL_LOOP, preset, lambda i: i) == call
    assert _python_calls_per_pass(CALL_DENSE, preset, lambda i: 5 * i + 2) == dense


def test_an_i4_renaming_pair_is_two_cell_calls_and_its_records():
    """I4's renaming cells are generated like the others: a pair that
    does not splice (the callees branch) is the two ``<jit cells>``
    functions, the callee's ``FrameState`` and the caller's
    ``ReturnStackEntry``."""
    machine = build([BRANCHING_SHALLOW], preset="i4")
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
    assert engine.stats.superblocks == 0


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
def test_the_interpreter_makes_at_most_three_calls_per_step(preset):
    """2.38, 2.38, 1.89 and 2.69 calls per step on i1-i4 (Python 3.11;
    8.54, 8.84, 8.15 and 8.74 when each handler called the stack, the
    memory and helpers).  A simple instruction is one closure call, and
    a call and return pair calls out only for its records, the
    allocator, the bank manager and the memory (docs/architecture.md,
    "Host performance vs. modelled cost")."""
    assert _calls_per_step(build([CALL_DENSE], preset=preset)) <= 3.0


def _bytecodes(machine, n: int) -> tuple[int, int]:
    """(bytecodes, steps) of one ``Main.main(n)`` run, counted as
    tests/test_obs_opcode_budget.py counts them."""
    count = [0]

    def opcode(frame, event, arg):
        if event == "opcode" and frame.f_lineno is not None:
            count[0] += 1
        return opcode

    def call(frame, event, arg):
        frame.f_trace_opcodes = True
        return opcode

    machine.stack.clear()
    machine.start("Main", "main", n)
    steps = machine.steps
    previous = sys.gettrace()
    sys.settrace(call)
    try:
        machine.run()
    finally:
        sys.settrace(previous)
    assert machine.results() == [sum(5 * i + 2 for i in range(n))]
    return count[0], machine.steps - steps


#: Bytecodes per step of the warm interpreted calldense loop on i1-i4
#: (Python 3.11) while every instruction took the fetch loop and every
#: counted event charged its cycles as well as its count.
_FETCH_LOOP_BYTECODES = {"i1": 287.6, "i2": 283.7, "i3": 243.0, "i4": 227.8}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="bytecode differs by version")
@pytest.mark.parametrize("preset", ["i1", "i2", "i3", "i4"])
def test_the_interpreter_runs_at_most_085_of_the_fetch_loops_bytecodes(preset):
    """221.5, 217.6, 184.0 and 173.2 bytecodes per step on i1-i4: each
    straight line of simple instructions counts its DECODEs and steps
    once, and the cycles derive from the counts (docs/architecture.md,
    "One call per simple instruction").  Like the call count, the
    difference of ``Main.main(13)`` and ``Main.main(3)`` after a warm
    run, so starting and ending a run cancel."""
    machine = build([CALL_DENSE], preset=preset)
    _bytecodes(machine, 4)
    short, short_steps = _bytecodes(machine, 3)
    long, long_steps = _bytecodes(machine, 13)
    per_step = (long - short) / (long_steps - short_steps)
    assert per_step <= 0.85 * _FETCH_LOOP_BYTECODES[preset], per_step


@pytest.mark.parametrize("preset", ["i1", "i2", "i3", "i4"])
def test_the_jit_makes_a_third_of_the_interpreters_calls_per_step(preset):
    """2.38, 2.38, 1.89 and 2.69 calls per step interpreted on i1-i4,
    against 0.0 compiled on every preset (Python 3.11): the warm loop
    runs in superblocks, which call no repository code, i4's bank
    overflow and underflow included."""
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
