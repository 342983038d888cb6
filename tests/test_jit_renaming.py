"""I4 call cells: the JIT's renaming calls and returns vs the interpreter.

On a banked machine the JIT's call cells replay ``_do_call``'s section
7.2 transition — argument record into the stack bank, the rename, a
deferred callee — and its fast return restores the caller's bank.  Every
unusual event (a full return stack, no free bank, a reclaimed caller
bank, a flagged or retained frame, a callee too big to defer) goes to
the interpreter's generic handler.  Each program here drives one of
those guards; the full captured state vector must equal the
interpreter's, so a cell that drops a trace row, a dirty bit, a return
stack count or a sequence number fails.
"""

from __future__ import annotations

import pytest

from repro.banks.pointers import PointerPolicy
from repro.errors import StepLimitExceeded
from repro.ifu.returnstack import OverflowPolicy
from repro.interp.machineconfig import ArgConvention
from repro.jit import install_jit
from repro.workloads.programs import CORPUS
from tests.conftest import build
from tests.test_jit_differential import state_vector
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


def test_deep_recursion_overflows_the_return_stack_and_the_banks():
    ref, jit, engine = _run_both([DEEP], (14,))
    assert jit.results() == [sum(i * (i + 1) // 2 for i in range(14))]
    assert engine.stats.cells_built > 0
    assert ref.rstack.stats.flushes.get("overflow", 0) > 0
    assert ref.bankfile.stats.overflows > 0
    assert ref.bankfile.stats.underflows > 0
    assert engine.stats.deopts == 0


def test_a_flagged_caller_spills_and_refills_through_the_generic_path():
    ref, jit, engine = _run_both([FLAGGED], (10,))
    assert jit.results() == [sum(i + 1 + i + 1 for i in range(10)) + 10]
    assert ref.bankfile.stats.underflows >= 10
    assert engine.stats.cells_built > 0


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


@pytest.mark.parametrize(
    "overrides",
    [
        {"arg_convention": ArgConvention.COPY},
        {"return_stack_policy": OverflowPolicy.SPILL_OLDEST},
        {"return_stack_depth": 2},
        {"bank_count": 3},
        {"bank_count": 8},
        {"bank_words": 8, "eval_stack_depth": 8},
        {"track_dirty": False},
        {"pointer_policy": PointerPolicy.DIVERT},
    ],
    ids=["copy", "spill-oldest", "rstack-2", "banks-3", "banks-8", "words-8",
         "no-dirty", "divert"],
)
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
