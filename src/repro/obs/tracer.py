"""Tracers: the event bus of the observability subsystem.

The design constraint is the paper's own (section 6): the common case
must pay nothing for the unusual one.  Every instrumentation point in
the interpreter, the allocators, the IFU and the scheduler is guarded by
a single ``if tracer is not None`` check on a plain attribute, so a
machine with no tracer attached executes the same hot path as before —
the modelled meters are *never* touched by tracing (the differential
test asserts bit-identical :class:`~repro.machine.costs.CycleCounter`
totals with tracing on and off).

:class:`TraceRecorder` is the standard sink: a bounded ring buffer of
:class:`~repro.obs.events.TraceEvent` stamped with the machine's steps
and modelled cycles.  A machine has one tracer; every summary of a run
is read off the recorded stream afterwards.
"""

from __future__ import annotations

from collections import deque
from typing import Protocol, runtime_checkable

from repro.obs.events import TraceEvent


@runtime_checkable
class Tracer(Protocol):
    """What an event sink must provide.

    ``emit(kind, name, **data)`` receives every event.  A tracer may
    additionally define ``bind(machine)`` (called by
    :meth:`repro.interp.machine.Machine.attach_tracer` so timestamps can
    be read off the machine's meters) and a ``trace_steps`` attribute
    (True requests per-instruction ``machine.step`` events — verbose,
    and the only part of tracing with per-step host cost).
    """

    def emit(self, kind: str, name: str = "", **data) -> None: ...


class TraceRecorder:
    """A bounded ring buffer of trace events.

    Parameters
    ----------
    capacity:
        Maximum retained events; older events are dropped (``dropped``
        counts them).  ``None`` retains everything — use for profiling
        runs where the full call/return stream is needed.
    trace_steps:
        Also record one ``machine.step`` event per instruction.
    """

    def __init__(self, capacity: int | None = 65536, trace_steps: bool = False) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive or None, got {capacity}")
        self.capacity = capacity
        self.trace_steps = trace_steps
        self.events: deque[TraceEvent] = deque(maxlen=capacity)
        self.emitted = 0
        self._machine = None

    def bind(self, machine) -> None:
        """Stamp future events with *machine*'s steps and cycles."""
        self._machine = machine

    def emit(self, kind: str, name: str = "", **data) -> None:
        machine = self._machine
        if machine is not None:
            steps = machine.steps
            cycles = machine.counter.cycles
        else:
            steps = cycles = 0
        self.events.append(TraceEvent(self.emitted, kind, name, steps, cycles, data))
        self.emitted += 1

    @property
    def dropped(self) -> int:
        """Events lost to the ring bound (0 when capacity was enough)."""
        return self.emitted - len(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def tail(self, count: int = 10) -> list[TraceEvent]:
        """The most recent *count* events (for failure diagnostics)."""
        if count <= 0:
            return []
        return list(self.events)[-count:]

    def by_kind(self, *kinds: str) -> list[TraceEvent]:
        """Retained events whose kind is in *kinds* (or prefix-matches
        a ``"family."`` namespace given as ``"family"``)."""
        exact = set(kinds)
        prefixes = tuple(f"{kind}." for kind in kinds)
        return [
            event
            for event in self.events
            if event.kind in exact or event.kind.startswith(prefixes)
        ]

    def clear(self) -> None:
        """Forget retained events (the emission counter keeps running)."""
        self.events.clear()
