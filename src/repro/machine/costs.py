"""Cycle-cost model for comparing the paper's implementations.

The paper never reports absolute nanoseconds; its claims are relative
("as fast as an unconditional jump", "five times more costly", "two cycles
for a cache access, one for a register").  We therefore model time as a
small set of *events*, each with a configurable cycle charge, and compare
implementations by their event counts and modelled cycle totals.

The default charges follow section 7.3 of the paper:

* reading or writing a register bank costs one cycle ("it is possible to
  read one register and write another in a single cycle"),
* a storage access through the cache costs two cycles ("two cycles are
  needed for a cache access ... the latency is still two cycles"),
* decoding and executing a simple instruction costs one cycle, and an
  unconditional jump redirects the IFU for one extra cycle.

These numbers are a model, not a measurement of the Alto or Dorado; the
*ratios* are what the paper's conclusions rest on, and they are preserved.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Event(enum.Enum):
    """The kinds of micro-events the simulator charges for."""

    MEMORY_READ = "memory_read"
    MEMORY_WRITE = "memory_write"
    REGISTER_READ = "register_read"
    REGISTER_WRITE = "register_write"
    DECODE = "decode"
    JUMP = "jump"
    #: The IFU redirecting to a target it could compute itself (DIRECTCALL,
    #: return-stack hit).  Same cost as JUMP by construction (section 6).
    FAST_TRANSFER = "fast_transfer"
    #: A transfer that fell back to the general scheme of sections 4-5.
    SLOW_TRANSFER = "slow_transfer"
    #: Flushing one register bank to storage, or loading one from storage.
    BANK_FLUSH = "bank_flush"
    BANK_LOAD = "bank_load"
    #: Entry into the software allocator (free list empty, section 5.3).
    ALLOCATOR_TRAP = "allocator_trap"

    # Members are singletons, so identity is a sound hash; Enum's default
    # hashes the name in Python, and every counted event is a dict
    # lookup keyed by a member.
    __hash__ = object.__hash__


#: Default cycle charge per event, following the ratios of section 7.3.
DEFAULT_CHARGES: dict[Event, int] = {
    Event.MEMORY_READ: 2,
    Event.MEMORY_WRITE: 2,
    Event.REGISTER_READ: 1,
    Event.REGISTER_WRITE: 1,
    Event.DECODE: 1,
    Event.JUMP: 1,
    Event.FAST_TRANSFER: 1,
    Event.SLOW_TRANSFER: 0,  # the slow path's real cost is its memory traffic
    Event.BANK_FLUSH: 0,  # likewise: the flush is charged per word moved
    Event.BANK_LOAD: 0,
    Event.ALLOCATOR_TRAP: 50,  # software allocator: dozens of instructions
}


@dataclass(frozen=True)
class CostModel:
    """Immutable mapping from :class:`Event` to a cycle charge.

    Build variants with :meth:`with_charges` to run sensitivity ablations
    (e.g. "what if a cache access cost 3 cycles?") without mutating the
    default shared instance.
    """

    charges: dict[Event, int] = field(default_factory=lambda: dict(DEFAULT_CHARGES))

    def charge(self, event: Event) -> int:
        """Return the cycle cost of one occurrence of *event*."""
        return self.charges[event]

    def with_charges(self, **overrides: int) -> CostModel:
        """Return a copy with the named event charges replaced.

        Keyword names are the :class:`Event` value strings, e.g.
        ``model.with_charges(memory_read=3, memory_write=3)``.
        """
        merged = dict(self.charges)
        for name, cycles in overrides.items():
            merged[Event(name)] = cycles
        return CostModel(charges=merged)


class CycleCounter:
    """Accumulates event counts and modelled cycles for one run.

    The counter is deliberately dumb — ``record`` an event, read back
    ``counts`` and ``cycles`` — so that every component (memory, bank file,
    IFU, interpreter) can share one instance and the total is exact.

    ``charges`` is the model's charge table, bound once: a model is fixed
    for the counter's life.  The hot components (memory, evaluation
    stack, bank file, IFU, linkage cache, JIT) bump ``counts`` and
    ``cycles`` through it inline, exactly as ``record`` does, instead of
    paying a call per counted event.
    """

    def __init__(self, model: CostModel | None = None) -> None:
        self.model = model or CostModel()
        self.charges: dict[Event, int] = dict(self.model.charges)
        self.counts: dict[Event, int] = {event: 0 for event in Event}
        self.cycles: int = 0

    def record(self, event: Event, times: int = 1) -> None:
        """Record *times* occurrences of *event* and charge their cycles."""
        self.counts[event] += times
        self.cycles += self.charges[event] * times

    def count(self, event: Event) -> int:
        """Return how many times *event* has been recorded."""
        return self.counts[event]

    @property
    def memory_references(self) -> int:
        """Total storage reads plus writes — the paper's main cost metric."""
        return self.counts[Event.MEMORY_READ] + self.counts[Event.MEMORY_WRITE]

    def reset(self) -> None:
        """Zero all counts and the cycle total."""
        for event in Event:
            self.counts[event] = 0
        self.cycles = 0

    def snapshot(self) -> dict[str, int]:
        """Return a plain-dict copy of the counts plus the cycle total."""
        data = {event.value: count for event, count in self.counts.items()}
        data["cycles"] = self.cycles
        return data

    def delta_since(self, snapshot: dict[str, int]) -> dict[str, int]:
        """Return the difference between the current state and *snapshot*."""
        current = self.snapshot()
        return {key: current[key] - snapshot.get(key, 0) for key in current}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        busy = {e.value: c for e, c in self.counts.items() if c}
        return f"CycleCounter(cycles={self.cycles}, counts={busy})"
