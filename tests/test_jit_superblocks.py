"""Superblocks: seeded calls to straight-line callees, spliced and folded.

The JIT splices a seeded monomorphic call whose callee is straight-line
code up to its RET into the caller's block, and folds the callee's
frame, which lives and dies inside the superblock (docs/jit.md,
"Superblocks").  On i4 the fold also replaces the pair's bank renames,
and calldense's bank overflow and underflow, by their net effect.
Every guard the spliced transitions need runs at the superblock's
entry; a refused one sends the whole superblock to the unspliced block,
whose cells and generic handlers do the unusual work.  These tests
drive each guard to its fallback and hold the run to the interpreter's
state vector, and they pin what is never spliced, the step cap, the
rebuild after an epoch bump, a restored snapshot, and lock-step slices
at a superblock's step count.
"""

from __future__ import annotations

import pytest

from repro.errors import StepLimitExceeded
from repro.faults.inject import apply_state_action
from repro.faults.snapshot import capture, restore
from repro.interp.services import relocate_module
from repro.jit import install_jit, verified_facts
from repro.jit.compile import SUPERBLOCK_STEPS
from repro.workloads.programs import CORPUS
from tests.conftest import build
from tests.test_jit_differential import state_vector
from tests.test_jit_exit_counts import _meters
from tests.test_jit_host_calls import CALL_DENSE
from tests.test_jit_renaming import _generic_bank_events, _stale_stack_bank

#: Runs ``main(n)`` on the call loop of calldense's ``step``, below
#: ``depth`` recursive frames: each of them holds a return-stack entry.
DEEP = """
MODULE Main;
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
PROCEDURE work(n): INT;
VAR i, acc: INT;
BEGIN
  acc := 0;
  i := 0;
  WHILE i < n DO
    acc := acc + step(i);
    i := i + 1;
  END;
  RETURN acc;
END;
PROCEDURE deep(d, n): INT;
BEGIN
  IF d = 0 THEN RETURN work(n); END;
  RETURN deep(d - 1, n);
END;
PROCEDURE main(d, n): INT;
BEGIN
  RETURN deep(d, n);
END;
END.
"""

#: Sixteen calls to one leaf per loop pass, 140 steps: more than one
#: superblock may hold.
LONG_CHAIN = """
MODULE Main;
PROCEDURE f(x): INT;
BEGIN
  RETURN x + 1;
END;
PROCEDURE main(n): INT;
VAR i, acc: INT;
BEGIN
  acc := 0;
  i := 0;
  WHILE i < n DO
    acc := acc + f(i) + f(i) + f(i) + f(i) + f(i) + f(i) + f(i) + f(i);
    acc := acc + f(i) + f(i) + f(i) + f(i) + f(i) + f(i) + f(i) + f(i);
    i := i + 1;
  END;
  RETURN acc;
END;
END.
"""


def _started(source: str, preset: str, jit: bool, *args: int, facts=None, **overrides):
    machine = build([source], preset=preset, **overrides)
    engine = install_jit(machine, facts) if jit else None
    machine.start("Main", "main", *args)
    return machine, engine


def _finish_at_superblock(ref, jit, engine, action) -> None:
    """Run both machines past 100 more steps to the JIT's next superblock
    start, apply *action* to each there, then run both to the end."""
    jit._run_until(jit.steps + 100)
    while jit.pc not in engine.cache.shapes:
        jit._run_until(jit.steps + 1)
    ref._run_until(jit.steps)
    assert (ref.steps, ref.pc) == (jit.steps, jit.pc)
    for machine in (ref, jit):
        action(machine)
        machine.run()


def _warm_pair(source: str, preset: str, facts=None):
    """An interpreter and a JIT machine, each after one ``main(4)``, so
    the JIT's bodies are compiled and its superblocks built."""
    pair = []
    for jit in (False, True):
        machine, engine = _started(source, preset, jit, 4, facts=facts)
        machine.run()
        machine.stack.clear()
        machine.start("Main", "main", 20)
        pair.append((machine, engine))
    (ref, _), (jit, engine) = pair
    return ref, jit, engine


def _assert_same(ref, jit) -> None:
    assert jit.results() == ref.results()
    assert jit.steps == ref.steps
    assert state_vector(jit) == state_vector(ref)


def _superblock_steps(engine) -> list[int]:
    return [engine.cache.blocks[start][1] for start in engine.cache.shapes]


@pytest.mark.parametrize("preset", ["i2", "i3"])
def test_a_drained_av_list_sends_the_superblock_to_its_fallback(preset):
    ref, jit, engine = _warm_pair(CALL_DENSE, preset)
    assert engine.stats.superblocks > 0 and engine.stats.entry_fallbacks == 0
    drain = lambda machine: apply_state_action(machine, "drain_av")  # noqa: E731
    _finish_at_superblock(ref, jit, engine, drain)
    _assert_same(ref, jit)
    assert engine.stats.entry_fallbacks > 0
    assert engine.stats.deopts == 0


def test_a_first_fit_head_that_must_split_sends_the_superblock_to_its_fallback():
    ref, jit, engine = _warm_pair(CALL_DENSE, "i1")
    assert engine.stats.superblocks > 0

    def big_head(machine) -> None:
        # Counted on both machines alike: the freed 41-word block heads
        # the list, and every frame of the superblock's nest must split it.
        heap = machine.image.first_fit
        heap.free(heap.allocate(40))

    _finish_at_superblock(ref, jit, engine, big_head)
    _assert_same(ref, jit)
    assert engine.stats.entry_fallbacks > 0


@pytest.mark.parametrize(
    "depth, falls_back, preset, overrides",
    [
        (3, False, "i3", {}),
        (4, True, "i3", {}),
        (3, False, "i4", {"bank_count": 16}),
        (4, True, "i4", {"bank_count": 16}),
    ],
    ids=["3-False", "4-True", "3-False-i4", "4-True-i4"],
)
def test_a_return_stack_one_entry_short_of_the_nest_falls_back(
    depth, falls_back, preset, overrides
):
    """``step``'s nest is three frames deep; a warm ``work`` loop runs
    below ``depth`` + 2 return-stack entries of the eight, so at depth 4
    the nest would overflow the return stack by one.  (The warm-up runs
    as deep, so the AV list already holds the deeper run's frames; on i4
    sixteen banks keep every frame of the recursion in a bank.)"""
    runs = []
    for jit in (False, True):
        machine, engine = _started(DEEP, preset, jit, 4, 4, **overrides)
        machine.run()
        fallbacks = engine.stats.entry_fallbacks if engine else 0
        flushes = machine.rstack.stats.entries_flushed
        machine.stack.clear()
        machine.start("Main", "main", depth, 12)
        machine.run()
        runs.append((machine, engine, fallbacks, flushes))
    (ref, _, _, flushes), (jit, engine, fallbacks, _) = runs
    _assert_same(ref, jit)
    assert engine.stats.superblocks > 0
    # Falling back, the nest's own superblocks fall back in turn until
    # a call cell finds the return stack full and flushes it.
    assert (engine.stats.entry_fallbacks > fallbacks) == falls_back
    assert (ref.rstack.stats.entries_flushed > flushes) == falls_back


class _Events:
    """An allocator tracer: every event the heap emits, in order."""

    def __init__(self) -> None:
        self.events: list = []

    def emit(self, kind, *args, **fields) -> None:
        self.events.append((kind, args, sorted(fields.items())))


@pytest.mark.parametrize("preset", ["i1", "i2"])
def test_an_allocator_tracer_attached_mid_run_sends_superblocks_to_their_fallback(preset):
    ref, jit, engine = _warm_pair(CALL_DENSE, preset)
    tracers = {}

    def attach(machine) -> None:
        heap = machine.image.first_fit or machine.image.av_heap
        heap.tracer = tracers[id(machine)] = _Events()

    _finish_at_superblock(ref, jit, engine, attach)
    _assert_same(ref, jit)
    assert engine.stats.entry_fallbacks > 0
    assert tracers[id(jit)].events == tracers[id(ref)].events
    assert tracers[id(jit)].events


def test_an_epoch_bump_mid_run_rebuilds_the_superblocks():
    ref, jit, engine = _warm_pair(CALL_DENSE, "i2")
    built = engine.stats.superblocks
    assert built > 0
    bases = []
    relocate = lambda machine: bases.append(relocate_module(machine, "Main"))  # noqa: E731
    _finish_at_superblock(ref, jit, engine, relocate)
    _assert_same(ref, jit)
    assert engine.cache.invalidations >= 1
    assert engine.stats.superblocks > built
    # Rebuilt over the relocated code.
    assert engine.cache.shapes
    assert min(engine.cache.shapes) > bases[-1]
    assert engine.stats.entry_fallbacks == 0


def test_a_snapshot_restored_mid_run_resumes_on_superblocks():
    uninterrupted, _ = _started(CALL_DENSE, "i2", False, 20)
    uninterrupted.run()
    paused, _ = _started(CALL_DENSE, "i2", True, 20)
    paused._run_until(250)
    saved = capture(paused)

    resumed = build([CALL_DENSE], preset="i2")
    engine = install_jit(resumed)
    restore(resumed, saved)
    resumed.run()
    _assert_same(uninterrupted, resumed)
    assert engine.stats.superblocks > 0
    assert engine.stats.entry_fallbacks == 0


def test_recursive_and_polymorphic_sites_are_never_spliced():
    fib = CORPUS["fib"]
    for preset in ("i1", "i2", "i3"):
        machine = build(list(fib.sources), preset=preset)
        engine = install_jit(machine)
        machine.start(*fib.entry, *fib.args)
        assert machine.run() == list(fib.expect_results)
        assert engine.stats.cells_built > 0
        assert engine.stats.superblocks == 0

    # The facts decide: the same calls, classified polymorphic at
    # ``main``'s one site, splice inside ``step`` but not into ``main``.
    image = build([CALL_DENSE], preset="i2").image
    facts = verified_facts(image)
    for proc in facts["procedures"]:
        if proc["name"] == "main":
            for site in proc["sites"]:
                site["classification"] = "polymorphic"
    ref, jit, engine = _warm_pair(CALL_DENSE, "i2", facts=facts)
    for machine in (ref, jit):
        machine.run()
    _assert_same(ref, jit)
    assert engine.stats.superblocks > 0
    specs = engine.cache.specs
    for start in engine.cache.shapes:
        spec, meta, site = specs[start]
        assert meta.name != "main"
    main_sites = [
        site for spec, meta, site in specs.values() if meta.name == "main" and site
    ]
    assert main_sites and all(site.cells and not site.monomorphic for site in main_sites)


@pytest.mark.parametrize("preset", ["i1", "i2", "i3"])
def test_a_chain_longer_than_the_cap_stops_splicing_at_the_cap(preset):
    runs = []
    for jit in (False, True):
        machine, engine = _started(LONG_CHAIN, preset, jit, 30)
        machine.run()
        runs.append((machine, engine))
    (ref, _), (jit, engine) = runs
    _assert_same(ref, jit)
    steps = _superblock_steps(engine)
    assert steps and max(steps) <= SUPERBLOCK_STEPS
    # The loop body's sixteen calls need more than one superblock, and
    # the first one splices as many as fit.
    assert len(steps) >= 2
    assert max(steps) > SUPERBLOCK_STEPS - 20
    assert engine.stats.entry_fallbacks == 0


@pytest.mark.parametrize("preset", ["i1", "i2", "i3", "i4"])
def test_lock_step_slices_at_a_superblocks_step_count(preset):
    """Slices of the main-loop superblock's step count and one either
    side of it: after every slice the meters are the interpreter's, on
    i4 both bank registers and every bank's role, assignment number,
    dirty set and words too, and so is the whole state vector."""
    probe, engine = _started(CALL_DENSE, preset, True, 8)
    probe.run()
    longest = max(_superblock_steps(engine))
    for chunk in (longest - 1, longest, longest + 1):
        ref, _ = _started(CALL_DENSE, preset, False, 30)
        jit, engine = _started(CALL_DENSE, preset, True, 30)
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
            assert done[0] == done[1], (chunk, slices)
            assert _meters(jit) == _meters(ref), (chunk, slices)
            assert state_vector(jit) == state_vector(ref), (chunk, slices)
            if done[0]:
                break
        _assert_same(ref, jit)
        assert engine.stats.superblocks > 0


#: Callees that write globals and output, read a local their sibling
#: frame left in the same block (``b``'s ``u`` and ``v`` are never
#: stored), and nest a frame of another size class (``big``).
MIXED = """
MODULE Main;
VAR g, h: INT;
PROCEDURE a(x): INT;
VAR t: INT;
BEGIN
  t := x * 3;
  g := g + t;
  RETURN t;
END;
PROCEDURE b(x): INT;
VAR u, v: INT;
BEGIN
  OUTPUT u;
  RETURN u + x + v;
END;
PROCEDURE big(x, y): INT;
VAR p0, p1, p2, p3, p4, p5, p6, p7, p8, p9, q0, q1, q2, q3: INT;
BEGIN
  p9 := x + y;
  q3 := a(p9) + b(x);
  h := h + q3;
  RETURN q3 - p9;
END;
PROCEDURE mid(x): INT;
BEGIN
  RETURN big(x, a(x)) + b(x);
END;
PROCEDURE main(n): INT;
VAR i, acc: INT;
BEGIN
  acc := 0;
  i := 0;
  WHILE i < n DO
    acc := acc + a(i) + b(i) + mid(i) - g + h;
    i := i + 1;
  END;
  RETURN acc;
END;
END.
"""


@pytest.mark.parametrize("preset", ["i1", "i2", "i3"])
def test_folded_frames_of_mixed_sizes_read_what_their_siblings_left(preset):
    """Folded locals are written once, at the exit, and a later load of
    the same word reads the held value, so an uninitialized local sees
    its sibling's store as memory would show it; frames of two size
    classes nest (on i1, first-fit blocks of two sizes)."""
    runs = []
    for jit in (False, True):
        machine, engine = _started(MIXED, preset, jit, 3)
        machine.run()
        machine.stack.clear()
        machine.start("Main", "main", 25)
        machine.run()
        runs.append((machine, engine))
    (ref, _), (jit, engine) = runs
    _assert_same(ref, jit)
    assert ref.output and jit.output == ref.output
    assert engine.stats.superblocks > 0
    assert engine.stats.deopts == 0


# -- i4: renaming pairs, bank overflow and underflow -------------------------


def _main_superblock(engine) -> int:
    """The start of the superblock of calldense's ``main`` loop body."""
    (start,) = (
        start for start in engine.cache.shapes if engine.cache.specs[start][1].name == "main"
    )
    return start


def test_i4_enters_the_calldense_superblock_under_both_loop_head_layouts():
    """``BankFile.acquire_free`` takes the first free bank by id, so the
    stack bank at the loop head alternates between banks 3 and 2, with
    main's bank 0 holding its dirty words.  The superblock computes its
    choices at entry, so a warm ``Main.main(50)`` enters it under both
    layouts and never falls back."""
    machine, engine = _started(CALL_DENSE, "i4", True, 4)
    machine.run()
    start = _main_superblock(engine)
    function, steps = engine.cache.blocks[start]
    layouts = []

    def entering(m):
        layouts.append((m.banks.lbank.id, m.banks.sbank.id, sorted(m.banks.lbank.dirty)))
        return function(m)

    engine.cache.blocks[start] = (entering, steps)
    machine.stack.clear()
    machine.start("Main", "main", 50)
    assert machine.run() == [sum(5 * i + 2 for i in range(50))]
    assert len(layouts) == 50
    assert {sbank for _lbank, sbank, _dirty in layouts[1:]} == {2, 3}
    assert {(lbank, tuple(dirty)) for lbank, _sbank, dirty in layouts[1:]} == {(0, (1, 3))}
    assert engine.stats.entry_fallbacks == 0
    assert engine.stats.deopts == 0


def _dirty_past_the_locals(machine) -> None:
    machine.banks.lbank.dirty.add(9)  # main has four local words


def _bank_file_tracer(machine) -> None:
    machine.bankfile.tracer = _Events()


def _flagged(machine) -> None:
    machine.frame.flagged = True


#: Each acts at a superblock's start, on both machines alike.
I4_GUARDS = {
    # The cells leave a victim that is not a local bank generic; the
    # stale stack bank also leaves the plan one free bank short.
    "stale stack bank": _stale_stack_bank,
    "dirty word past the locals": _dirty_past_the_locals,
    "bank-file tracer": _bank_file_tracer,
    "no current Lbank or stack bank": lambda machine: machine.banks.flush_all(),
    "flagged caller": _flagged,
}


@pytest.mark.parametrize("action", list(I4_GUARDS.values()), ids=list(I4_GUARDS))
def test_each_i4_guard_sends_the_superblock_to_its_fallback(action):
    ref, jit, engine = _warm_pair(CALL_DENSE, "i4")
    assert engine.stats.superblocks > 0 and engine.stats.entry_fallbacks == 0
    _finish_at_superblock(ref, jit, engine, action)
    _assert_same(ref, jit)
    assert engine.stats.entry_fallbacks > 0


#: Calldense's loop in ``work``, which ``main`` calls once: work's frame
#: is deferred until a spill of its bank allocates it.
UNDER_MAIN = CALL_DENSE.replace("PROCEDURE main(n): INT;", "PROCEDURE work(n): INT;").replace(
    "END;\nEND.", "END;\nPROCEDURE main(n): INT;\nBEGIN\n  RETURN work(n);\nEND;\nEND."
)


def test_a_deferred_victim_sends_the_superblock_to_its_fallback():
    """The nest overflows into work's bank while work's frame is still
    deferred: the superblock falls back, and the cells leave that spill,
    which allocates, to the generic transfer once per run."""
    runs = []
    for jit in (False, True):
        machine, engine = _started(UNDER_MAIN, "i4", jit, 4)
        machine.run()
        fallbacks = engine.stats.entry_fallbacks if engine else 0
        machine.stack.clear()
        machine.start("Main", "main", 20)
        generic = _generic_bank_events(machine)
        machine.run()
        runs.append((machine, engine, fallbacks, generic))
    (ref, _, _, _), (jit, engine, fallbacks, generic) = runs
    _assert_same(ref, jit)
    assert engine.stats.entry_fallbacks > fallbacks
    assert generic["overflows"] == 1


def test_without_dirty_tracking_an_overflowing_nest_builds_nothing():
    """A spill without dirty tracking writes the whole bank, which the
    cells leave generic: main's nest overflows, so its superblock is
    never built, while the nests inside ``step`` still are."""
    built = {}
    for track_dirty in (True, False):
        machine, engine = _started(CALL_DENSE, "i4", True, 4, track_dirty=track_dirty)
        machine.run()
        specs = engine.cache.specs
        built[track_dirty] = {specs[start][1].name for start in engine.cache.shapes}
    assert built == {True: {"main", "step", "combine"}, False: {"step", "combine"}}
