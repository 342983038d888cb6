"""Where a FaultPlan fires on a run, and what its state actions do.

A machine fault lands *between* two instructions, on a complete machine
state.  :func:`firing_schedule` resolves each machine injection of a
plan to a step of the program's uninterrupted reference run;
:func:`repro.faults.chaos.run_case` runs the machine to each firing
step with the same step budgets the scheduler's time slices use — on
compiled code when a JIT engine is installed — and carries the action
out there: a state action through :func:`apply_state_action`, a
control action (snapshot, kill, trap) itself.

An ``on_event`` injection fires after the instruction that emitted its
event, never inside it: where that instruction goes on to allocate a
second frame or flush again, the action lands after all of it.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import islice

from repro.faults.plan import NET_ACTIONS, FaultPlan, Injection


def firing_schedule(
    plan: FaultPlan, stamps: Sequence[tuple[str, int]]
) -> list[tuple[int, int, Injection]]:
    """*plan*'s machine injections as ``(step, index, injection)``, in
    firing order (ties in plan order).

    *stamps* are the reference run's ``(event kind, step)`` pairs, in
    emission order, the step being that of the instruction that emitted
    the event (0 before the first one).  ``at_step(n)`` fires at step
    *n*; ``on_event(kind, k)`` at the step of the *k*-th matching stamp,
    and not at all when the reference emits fewer.  Net actions belong
    to the transport's fault policy and never fire on a machine.
    """
    schedule = []
    for index, injection in enumerate(plan.injections):
        if injection.action in NET_ACTIONS:
            continue
        trigger = injection.trigger
        if trigger.kind == "step":
            step = trigger.at
        else:
            family = trigger.event + "."
            steps = (
                at for kind, at in stamps
                if kind == trigger.event or kind.startswith(family)
            )
            step = next(islice(steps, trigger.at - 1, None), None)
            if step is None:
                continue
        schedule.append((step, index, injection))
    schedule.sort()  # indices are unique: injections are never compared
    return schedule


def apply_state_action(machine, action: str) -> None:
    """Exhaust or flush a resource of *machine* in place (see
    :data:`~repro.faults.plan.STATE_ACTIONS`)."""
    if action == "drain_av":
        heap = machine.image.av_heap
        if heap is not None:
            # Uncounted pokes: the fault is environmental, not a cost
            # the program incurred.  The next allocation finds every
            # head empty and takes the section 5.3 trap.
            for fsi in range(len(heap.ladder)):
                machine.memory.poke(heap.av_base + fsi, 0)
    elif action == "exhaust_heap":
        heap = machine.image.av_heap
        if heap is not None:
            heap._bump = heap.arena_limit
            for fsi in range(len(heap.ladder)):
                machine.memory.poke(heap.av_base + fsi, 0)
            if machine.fast_frames is not None:
                machine.fast_frames._stack.clear()
        first_fit = machine.image.first_fit
        if first_fit is not None:
            machine.memory.poke(first_fit.head_base, 0)
    elif action == "flush_rstack":
        rstack = machine.rstack
        if rstack is not None and len(rstack):
            machine._flush_return_stack("fault", rstack.take_all())
    elif action == "flush_banks":
        if machine.banks is not None:
            machine.banks.flush_all()
    else:  # pragma: no cover - plan validation rejects unknown actions
        raise AssertionError(f"unhandled state action {action!r}")
