"""Unit tests for the FaultPlan DSL, the firing-step resolver and the
case runner that fires a plan between instructions."""

from __future__ import annotations

import pytest

from repro.faults import (
    FaultPlan,
    Injection,
    OutcomeClass,
    Trigger,
    at_step,
    on_event,
    run_case,
)
from repro.faults.chaos import reference_run
from repro.faults.inject import firing_schedule
from repro.workloads.programs import CORPUS, Program

FIB = Program(
    "fib10",
    ("""
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
""",),
    expect_results=(55,),
)

#: A reference run's (kind, step) stamps, in emission order.
STAMPS = [
    ("machine.begin", 0),
    ("xfer.call", 3),
    ("alloc.frame", 3),
    ("xfer.call", 7),
    ("xfer.return", 9),
    ("xfer.call", 12),
]


def run_with(plan: FaultPlan, preset: str = "i2", program: Program = FIB):
    reference = reference_run(program, preset)
    return run_case(program, preset, plan, reference), reference


# -- the DSL -----------------------------------------------------------------


def test_trigger_constructors():
    assert at_step(7) == Trigger(kind="step", at=7)
    assert on_event("alloc.frame", 3) == Trigger(kind="event", at=3, event="alloc.frame")


def test_trigger_validation():
    with pytest.raises(ValueError):
        Trigger(kind="instant", at=1)
    with pytest.raises(ValueError):
        Trigger(kind="cycle", at=100)
    with pytest.raises(ValueError):
        at_step(0)
    with pytest.raises(ValueError):
        Trigger(kind="event", at=1)  # event triggers must name an event
    with pytest.raises(ValueError):
        Trigger(kind="step", at=1, event="alloc.frame")  # and only they may


def test_injection_rejects_unknown_action():
    with pytest.raises(ValueError):
        Injection(at_step(1), "reboot")


def test_plan_round_trips_through_dict():
    plan = FaultPlan(
        name="demo",
        seed=42,
        injections=(
            Injection(at_step(5), "snapshot"),
            Injection(on_event("alloc.frame", 2), "drain_av"),
            Injection(at_step(9), "trap", detail="divide_by_zero"),
        ),
    )
    assert FaultPlan.from_dict(plan.to_dict()) == plan


# -- firing steps ------------------------------------------------------------


def test_event_trigger_fires_on_kth_occurrence():
    plan = FaultPlan("k3", 0, (Injection(on_event("xfer.call", 3), "flush_rstack"),))
    assert [entry[0] for entry in firing_schedule(plan, STAMPS)] == [12]

    outcome, reference = run_with(plan, preset="i3")
    calls = [step for kind, step in reference.stamps if kind == "xfer.call"]
    assert [entry[0] for entry in firing_schedule(plan, reference.stamps)] == [calls[2]]
    assert outcome.results == [55]
    assert outcome.injections_fired == 1


def test_event_trigger_matches_whole_family_without_dot():
    # The k-th xfer.* event of any kind: call, call, return, call.
    plan = FaultPlan("fam", 0, (
        Injection(on_event("xfer", 1), "flush_rstack"),
        Injection(on_event("xfer", 3), "flush_rstack"),
        Injection(on_event("xfer", 4), "flush_rstack"),
    ))
    assert [entry[0] for entry in firing_schedule(plan, STAMPS)] == [3, 9, 12]

    outcome, _ = run_with(plan, preset="i3")
    assert outcome.results == [55]
    assert outcome.injections_fired == 3


def test_machine_begin_fires_before_the_first_instruction():
    plan = FaultPlan("begin", 0, (Injection(on_event("machine.begin", 1), "exhaust_heap"),))
    assert firing_schedule(plan, STAMPS)[0][0] == 0
    outcome, _ = run_with(plan, preset="i2")
    assert outcome.klass is OutcomeClass.TRAPPED
    assert outcome.trap == "resource_exhausted"


def test_step_trigger_fires_at_exact_step():
    plan = FaultPlan("s40", 0, (Injection(at_step(40), "trap", detail="divide_by_zero"),))
    assert [entry[:2] for entry in firing_schedule(plan, STAMPS)] == [(40, 0)]

    outcome, _ = run_with(plan, preset="i2")
    assert outcome.klass is OutcomeClass.TRAPPED
    assert outcome.trap == "divide_by_zero"
    assert outcome.steps == 40
    assert outcome.injections_fired == 1


def test_schedule_fires_in_step_order_and_ties_in_plan_order():
    plan = FaultPlan("order", 0, (
        Injection(at_step(12), "flush_banks"),
        Injection(on_event("xfer.call", 1), "drain_av"),
        Injection(on_event("xfer.call", 3), "flush_rstack"),
    ))
    assert [entry[:2] for entry in firing_schedule(plan, STAMPS)] == [(3, 1), (12, 0), (12, 2)]


def test_an_event_the_reference_never_reaches_does_not_fire():
    """A trigger past the reference's last matching event resolves to
    no step: the run is the uninterrupted one, meter for meter."""
    plan = FaultPlan("never", 0, (
        Injection(on_event("no.such.event", 1), "drain_av"),
        Injection(on_event("xfer.call", 4), "exhaust_heap"),
    ))
    assert firing_schedule(plan, STAMPS) == []

    plan = FaultPlan("past", 0, (Injection(on_event("xfer.call", 10**6), "exhaust_heap"),))
    outcome, reference = run_with(plan, preset="i4")
    assert outcome.klass is OutcomeClass.RECOVERED
    assert outcome.injections_fired == 0
    assert outcome.meters == reference.meters
    assert outcome.steps == reference.steps


def test_a_state_action_lands_after_the_instruction_that_emitted_its_event():
    """One i4 call instruction can allocate two frames.  Draining the AV
    lists on the first of those allocations or on the second fires at
    the same boundary, after the whole instruction: both runs are the
    same run, and neither traps between the two allocations."""
    fib = CORPUS["fib"]
    reference = reference_run(fib, "i4")
    allocs = [step for kind, step in reference.stamps if kind == "alloc.frame"]
    k = next(k for k in range(1, len(allocs)) if allocs[k] == allocs[k - 1])
    outcomes = [
        run_case(fib, "i4", FaultPlan("drain", 0, (
            Injection(on_event("alloc.frame", ordinal), "drain_av"),
        )), reference)
        for ordinal in (k, k + 1)
    ]
    assert all(o.klass is OutcomeClass.RECOVERED for o in outcomes)
    assert all(o.results == list(fib.expect_results) for o in outcomes)
    assert outcomes[0].meters == outcomes[1].meters
    assert outcomes[0].steps == outcomes[1].steps


def test_injection_fires_at_most_once():
    plan = FaultPlan("once", 0, (Injection(on_event("xfer.call", 1), "flush_banks"),))
    outcome, _ = run_with(plan, preset="i4")
    assert outcome.results == [55]
    assert outcome.injections_fired == 1  # dozens of later calls do not re-fire


def test_flush_actions_are_noops_on_presets_without_the_hardware():
    """I1 has no return stack and no banks; the spill-storm actions must
    be harmless there (that is what lets one plan run on all rungs)."""
    plan = FaultPlan(
        "noop",
        0,
        (
            Injection(on_event("xfer.call", 1), "flush_rstack"),
            Injection(on_event("xfer.call", 2), "flush_banks"),
        ),
    )
    outcome, reference = run_with(plan, preset="i1")
    assert outcome.klass is OutcomeClass.RECOVERED
    assert outcome.results == [55]
    assert outcome.injections_fired == 2
    assert outcome.meters == reference.meters
