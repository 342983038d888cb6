"""The FaultInjector: a tracer that applies a FaultPlan to a machine.

Injection rides the observability bus.  The injector *is* a
:class:`~repro.obs.tracer.Tracer`: it watches the machine's own event
stream (``machine.step`` for step/cycle triggers, any traced kind for
event triggers) and fires injections at exactly the declared points.
Because every instrumentation site in the interpreter is already a
single ``tracer is None`` check, the machine needs **no new branches**
for fault injection, and a run with an injector attached but no
injection fired is bit-identical to an untraced run on all modelled
meters.

Two delivery modes, matching the plan DSL's action split:

* **State actions** are applied immediately, inside :meth:`emit` —
  draining a free list or flushing the banks is precisely the kind of
  asynchronous environmental pressure the machine must absorb
  mid-instruction.
* **Control actions** are *deferred*: the injector queues them and sets
  ``machine.yield_requested``, which breaks the run loop at the next
  instruction boundary without touching the meters (the same mechanism
  the cooperative scheduler uses).  The driver — usually
  :mod:`repro.faults.chaos` — drains :meth:`take_pending` and performs
  the snapshot / kill / trap.

The injector's own progress (per-injection occurrence counts, armed
flags) is part of :meth:`state` so a snapshot can capture it and a
restored run replays the remaining injections deterministically.
"""

from __future__ import annotations

from repro.faults.plan import NET_ACTIONS, STATE_ACTIONS, FaultPlan, Injection


class FaultInjector:
    """Watches a machine's trace stream and applies *plan*.

    Compose with other sinks via :class:`~repro.obs.tracer.TeeTracer`
    when a run also wants recording; the injector emits a
    ``fault.inject`` marker into *echo* (if given) for each firing so
    chaos reports can show exactly when each fault landed.
    """

    def __init__(self, plan: FaultPlan, state: dict | None = None, echo=None) -> None:
        self.plan = plan
        self.machine = None
        self.echo = echo
        #: Ask the machine for per-step events only if the plan needs them.
        self.trace_steps = plan.needs_step_tracing()
        #: Control actions awaiting the driver, as (plan index, injection)
        #: pairs (drained by take_pending).
        self.pending: list[tuple[int, Injection]] = []
        #: (injection index, steps, cycles) per firing, for reports.
        self.fired: list[tuple[int, int, int]] = []
        self._counts = [0] * len(plan.injections)
        # Net actions belong to the transport's fault policy (repro.net),
        # not to a machine's trace stream: never arm them here.
        self._armed = [i.action not in NET_ACTIONS for i in plan.injections]
        self._applying = False
        if state is not None:
            counts = state.get("event_counts", [])
            armed = state.get("armed", [])
            for i in range(min(len(counts), len(self._counts))):
                self._counts[i] = counts[i]
            for i in range(min(len(armed), len(self._armed))):
                self._armed[i] = armed[i]

    def bind(self, machine) -> None:
        """Tracer protocol: remember the machine whose stream this is."""
        self.machine = machine

    def state(self) -> dict:
        """Progress to embed in a snapshot (see :mod:`.snapshot`)."""
        return {"event_counts": list(self._counts), "armed": list(self._armed)}

    def disarm(self, index: int) -> None:
        """Mark injection *index* as already fired (restore-side)."""
        if 0 <= index < len(self._armed):
            self._armed[index] = False

    # -- the tracer interface -------------------------------------------------

    def emit(self, kind: str, name: str = "", **data) -> None:
        """Match *kind* against every armed trigger; fire what matches.

        Re-entrant emissions (a state action's own flush emits
        ``ifu.flush`` / ``bank.spill`` events) are ignored: an injection
        cannot trigger another injection mid-application.
        """
        if self._applying or self.machine is None:
            return
        machine = self.machine
        for index, injection in enumerate(self.plan.injections):
            if not self._armed[index]:
                continue
            trigger = injection.trigger
            if trigger.kind == "step":
                # machine.steps is incremented before the step event is
                # emitted, so >= compares completed instructions.
                if kind != "machine.step" or machine.steps < trigger.at:
                    continue
            elif trigger.kind == "cycle":
                if machine.counter.cycles < trigger.at:
                    continue
            else:  # event trigger: exact kind or whole family ("alloc")
                if kind != trigger.event and not kind.startswith(trigger.event + "."):
                    continue
                self._counts[index] += 1
                if self._counts[index] < trigger.at:
                    continue
            self._armed[index] = False
            self.fired.append((index, machine.steps, machine.counter.cycles))
            if self.echo is not None:
                self.echo.emit(
                    "fault.inject",
                    injection.action,
                    index=index,
                    detail=injection.detail,
                    trigger=trigger.kind,
                    at=trigger.at,
                    event=trigger.event,
                )
            if injection.action in STATE_ACTIONS:
                self._applying = True
                try:
                    self._apply_state_action(injection)
                finally:
                    self._applying = False
            else:
                self.pending.append((index, injection))
                machine.yield_requested = True

    def take_pending(self) -> list[tuple[int, Injection]]:
        """Drain the queued control actions (driver-side)."""
        drained = self.pending
        self.pending = []
        return drained

    # -- state actions --------------------------------------------------------

    def _apply_state_action(self, injection: Injection) -> None:
        machine = self.machine
        action = injection.action
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
