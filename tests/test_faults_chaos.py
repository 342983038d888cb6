"""The chaos harness: canned fault scenarios with pinned outcomes.

Each scenario documents its stable outcome class; the final tests run
the full conformance sweep on a small slice and assert I1-I4 never
disagree.  (The long sweep — ``repro chaos --corpus --seeds 20`` — runs
in CI.)
"""

from __future__ import annotations

import pytest

from repro.errors import StepLimitExceeded, TrapError
from repro.faults import FaultPlan, Injection, at_step, on_event
from repro.faults import chaos
from repro.faults.chaos import (
    CANNED_PLANS,
    OutcomeClass,
    make_plan,
    reference_run,
    run_case,
    run_chaos,
)
from repro.interp.processes import ProcessStatus, Scheduler
from repro.interp.traps import TrapKind
from repro.workloads.programs import CORPUS, Program
from tests.conftest import ALL_PRESETS, build

FIB = CORPUS["fib"]


class _StepStamper:
    """Records (kind, step) pairs so tests can aim triggers precisely."""

    trace_steps = False

    def __init__(self) -> None:
        self.machine = None
        self.stamps: list[tuple[str, int]] = []

    def bind(self, machine) -> None:
        self.machine = machine

    def emit(self, kind: str, name: str = "", **data) -> None:
        self.stamps.append((kind, self.machine.steps))

    def first(self, kind: str) -> int:
        return next(step for k, step in self.stamps if k == kind)


# -- scenario 1: AV free lists drained mid-run (section 5.3) -----------------


@pytest.mark.parametrize("preset", ["i2", "i3", "i4"])
def test_av_empty_recovers_via_software_allocator(preset):
    """Outcome: RECOVERED.  The k-th allocation finds every AV list
    empty; the next allocation takes the replenishment trap, carves
    fresh frames, and the program finishes with the right answer."""
    plan = FaultPlan(
        "av_empty", 0, (Injection(on_event("alloc.frame", 1), "drain_av"),)
    )
    outcome = run_case(FIB, preset, plan, reference_run(FIB, preset))
    assert outcome.klass is OutcomeClass.RECOVERED
    assert outcome.results == list(FIB.expect_results)
    assert outcome.injections_fired == 1


# -- scenario 2: bank-file overflow storm mid-XFER (section 7.1) -------------


def test_bank_overflow_mid_xfer_falls_back_and_recovers():
    """Outcome: RECOVERED.  Flushing every bank between two transfers
    forces the 'all the banks are flushed into storage' fallback; the
    next XFER re-materializes from memory and the ladder answer holds."""
    plan = FaultPlan(
        "bank_overflow",
        0,
        (
            Injection(on_event("xfer.call", 2), "flush_banks"),
            Injection(on_event("xfer.call", 5), "flush_banks"),
        ),
    )
    outcome = run_case(FIB, "i4", plan, reference_run(FIB, "i4"))
    assert outcome.klass is OutcomeClass.RECOVERED
    assert outcome.results == list(FIB.expect_results)
    assert outcome.injections_fired == 2


# -- scenario 3: return-stack spill storm (section 7.3) ----------------------


def test_return_stack_spill_storm_recovers():
    """Outcome: RECOVERED.  Repeated full flushes of the IFU return
    stack mid-recursion make every subsequent return miss; correctness
    must not depend on the accelerator's contents."""
    plan = FaultPlan(
        "spill_storm",
        0,
        tuple(
            Injection(on_event("xfer.call", k), "flush_rstack")
            for k in (1, 3, 5, 7)
        ),
    )
    for preset in ("i3", "i4"):
        outcome = run_case(FIB, preset, plan, reference_run(FIB, preset))
        assert outcome.klass is OutcomeClass.RECOVERED, preset
        assert outcome.results == list(FIB.expect_results)


# -- scenario 4: a trap inside a trap context --------------------------------


TRAP_IN_TRAP = [
    """
MODULE Main;
PROCEDURE fix(code): INT;
BEGIN
  RETURN 99;
END;
PROCEDURE main(): INT;
VAR a: INT;
BEGIN
  a := 10;
  RETURN a DIV (a - 10);
END;
END.
"""
]


def test_trap_inside_trap_context_surfaces_cleanly():
    """Outcome: TRAPPED.  The first trap XFERs into its registered trap
    context; a second trap injected while that context is executing has
    no context of its own and must surface as a TrapError whose pc and
    proc point *inside the handler* — not as a host exception and not
    by corrupting the parked stack residue."""
    # First, find the step at which the divide-by-zero trap fires.
    machine = build(TRAP_IN_TRAP, preset="i2")
    machine.set_trap_context(TrapKind.DIVIDE_BY_ZERO, "Main", "fix")
    stamper = _StepStamper()
    machine.attach_tracer(stamper)
    machine.start()
    results = machine.run()
    assert results == [99]  # the context's replacement value
    trap_step = stamper.first("xfer.trap")

    # Now inject a BREAKPOINT trap two instructions into the context:
    # a step budget stops the run there, as run_case does.
    machine = build(TRAP_IN_TRAP, preset="i2")
    machine.set_trap_context(TrapKind.DIVIDE_BY_ZERO, "Main", "fix")
    machine.start()
    with pytest.raises(StepLimitExceeded):
        machine.run(max_steps=trap_step + 2)
    assert machine.steps == trap_step + 2
    assert machine.frame.proc.qualified_name == "Main.fix"
    with pytest.raises(TrapError) as excinfo:
        machine.trap(TrapKind.BREAKPOINT, "injected")
    assert excinfo.value.trap == "breakpoint"
    assert excinfo.value.proc == "Main.fix"
    assert excinfo.value.pc == machine.pc


# -- scenario 5: the quantum expires exactly on a RETURN ---------------------


CALLER_LOOP = [
    """
MODULE Main;
PROCEDURE leaf(x): INT;
BEGIN
  RETURN x + 1;
END;
PROCEDURE spin(limit): INT;
VAR i: INT;
BEGIN
  i := 0;
  WHILE i < limit DO
    i := leaf(i);
  END;
  RETURN i;
END;
END.
"""
]


def test_quantum_expiring_exactly_on_return():
    """Outcome: RECOVERED (both processes finish correctly).  Pin the
    quantum so the very first slice boundary lands on the step that
    executes a RETURN — the preemption point where a stale return-stack
    or bank assignment would be most visible on I3/I4."""
    machine = build(CALLER_LOOP, preset="i4", entry=("Main", "spin"))
    stamper = _StepStamper()
    machine.attach_tracer(stamper)
    machine.start("Main", "spin", 25)
    machine.run()
    return_step = stamper.first("xfer.return")

    machine = build(CALLER_LOOP, preset="i4", entry=("Main", "spin"))
    scheduler = Scheduler(machine, quantum=return_step)
    a = scheduler.spawn("Main", "spin", 25)
    b = scheduler.spawn("Main", "spin", 30)
    processes = scheduler.run()
    assert [p.results for p in processes] == [[25], [30]]
    assert all(p.status is ProcessStatus.DONE for p in processes)
    assert scheduler.stats.preemptions > 0


# -- the conformance sweep ---------------------------------------------------


def test_canned_plan_outcome_classes_are_stable():
    """Each canned plan's documented outcome class, on every preset."""
    refs = {preset: reference_run(FIB, preset) for preset in ALL_PRESETS}
    expected = {
        "av_empty": (OutcomeClass.RECOVERED, ""),
        "heap_exhaust": (OutcomeClass.TRAPPED, "resource_exhausted"),
        "spill_storm": (OutcomeClass.RECOVERED, ""),
        "kill_resume": (OutcomeClass.RESUMED, ""),
        "trap_inject": (OutcomeClass.TRAPPED, "divide_by_zero"),
    }
    assert set(expected) == set(CANNED_PLANS)
    for name, (klass, trap) in expected.items():
        plan = make_plan(name, FIB, refs, seed=7)
        assert plan is not None, name
        for preset in ALL_PRESETS:
            outcome = run_case(FIB, preset, plan, refs[preset])
            assert outcome.klass is klass, (name, preset)
            if trap:
                assert outcome.trap == trap, (name, preset)
                assert outcome.pc >= 0 and outcome.proc, (name, preset)


def test_resumed_runs_match_reference_meters_exactly():
    """kill_resume's guarantee: the stitched run is bit-identical to the
    uninterrupted one on steps and every modelled meter."""
    refs = {preset: reference_run(FIB, preset) for preset in ALL_PRESETS}
    plan = make_plan("kill_resume", FIB, refs, seed=3)
    for preset in ALL_PRESETS:
        outcome = run_case(FIB, preset, plan, refs[preset])
        assert outcome.klass is OutcomeClass.RESUMED
        assert outcome.restores == 1
        assert outcome.steps == refs[preset].steps
        assert outcome.meters == refs[preset].meters


def test_chaos_sweep_small_slice_is_conformant():
    report = run_chaos(programs=("fib", "calls"), seeds=2)
    assert report.ok, report.summary()
    assert report.cases
    classes = {
        outcome.klass
        for case in report.cases
        for outcome in case.outcomes.values()
    }
    # The slice exercises all three outcome classes.
    assert classes == {
        OutcomeClass.RECOVERED,
        OutcomeClass.TRAPPED,
        OutcomeClass.RESUMED,
    }


def test_summary_counts_the_presets_that_ran():
    report = run_chaos(
        programs=("fib",), seeds=1, plans=("av_empty",), presets=("i2", "i4")
    )
    assert report.ok, report.summary()
    assert "chaos: 1 cases x 2 impls," in report.summary()


def test_chaos_report_serializes():
    import json

    report = run_chaos(programs=("fib",), seeds=1, plans=("av_empty",))
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["schema"] == "repro-chaos/1"
    assert payload["ok"] is True
    for case in payload["cases"]:
        assert set(case["outcomes"]) == set(ALL_PRESETS)


def test_av_empty_runs_on_the_presets_that_allocate():
    """I4's deferred allocation gives ``calls`` no frame to allocate, so
    ``av_empty`` is sized over i1-i3 and runs there; the report names
    i4 as skipped for each seed."""
    report = run_chaos(programs=("calls",), seeds=2, plans=("av_empty",))
    assert report.ok, report.summary()
    assert [set(case.outcomes) for case in report.cases] == [{"i1", "i2", "i3"}] * 2
    assert report.skipped == [
        {"program": "calls", "seed": seed, "plan": "av_empty", "preset": "i4",
         "reason": "not applicable"}
        for seed in (0, 1)
    ]


def test_a_descriptor_program_is_skipped_on_i1_only():
    report = run_chaos(programs=("coroutine", "dispatch"), seeds=1, plans=("trap_inject",))
    assert report.ok, report.summary()
    assert [set(case.outcomes) for case in report.cases] == [{"i2", "i3", "i4"}] * 2
    assert report.skipped == [
        {"program": name, "preset": "i1", "reason": "needs descriptors"}
        for name in ("coroutine", "dispatch")
    ]


def test_outcomes_carry_the_engines_counts_in_process(monkeypatch):
    """A JIT case sums its engines' counts over every machine it built,
    the restored one included; the interpreter's carry none, and the
    report leaves them out."""
    from repro.jit import install_jit

    engines: list = []

    def installing(machine, *args, **kwargs):
        engines.append(install_jit(machine, *args, **kwargs))
        return engines[-1]

    monkeypatch.setattr("repro.jit.install_jit", installing)
    program = CORPUS["calls"]
    refs = {preset: reference_run(program, preset) for preset in ALL_PRESETS}
    plan = make_plan("kill_resume", program, refs, seed=0)
    for preset in ALL_PRESETS:
        interpreted = run_case(program, preset, plan, refs[preset])
        engines.clear()
        compiled = run_case(program, preset, plan, refs[preset], "jit")
        assert compiled.restores == 1 and len(engines) == 2
        assert interpreted.engine_counts == {}
        assert compiled.engine_counts == {
            key: sum(getattr(engine.stats, key) for engine in engines)
            for key in chaos.ENGINE_COUNTS
        }
        assert all(engine.stats.superblocks for engine in engines), preset
        assert compiled.to_dict() == interpreted.to_dict()


#: A ``main`` that yields once before it computes its result.  No
#: scheduler rides a chaos run, so the yield must not end it.
YIELDER = Program(
    name="yielder",
    sources=(
        """
MODULE Main;
PROCEDURE main(a): INT;
BEGIN
  YIELD;
  RETURN a + 4;
END;
END.
""",
    ),
    args=(3,),
    expect_results=(7,),
)


@pytest.mark.parametrize("engine", ["interp", "jit"])
@pytest.mark.parametrize("preset", ALL_PRESETS)
def test_a_chaos_run_resumes_past_a_yield(monkeypatch, preset, engine):
    """The reference and a faulted run both carry on past the yield, and
    an injection scheduled after the yield fires at its own step, not at
    the yield."""
    reference = reference_run(YIELDER, preset)
    assert reference.results == [7]
    fired: list[int] = []
    apply_state_action = chaos.apply_state_action

    def recording(machine, action) -> None:
        fired.append(machine.steps)
        apply_state_action(machine, action)

    monkeypatch.setattr(chaos, "apply_state_action", recording)
    late = reference.steps - 1  # the yield is the first or second step
    plan = FaultPlan(name="late", seed=0, injections=(Injection(at_step(late), "flush_rstack"),))
    outcome = run_case(YIELDER, preset, plan, reference, engine)
    assert outcome.klass is OutcomeClass.RECOVERED
    assert outcome.results == [7]
    assert outcome.steps == reference.steps
    assert outcome.meters == reference.meters
    assert fired == [late]
