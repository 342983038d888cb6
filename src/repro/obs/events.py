"""Trace events: the vocabulary of the observability subsystem.

Every instrumented mechanism in the simulator emits :class:`TraceEvent`
records through a :class:`~repro.obs.tracer.Tracer`.  The taxonomy
follows the paper's own decomposition of a procedure call (sections
4-7): control transfers, frame allocation, the IFU return stack, the
register banks, and process switches each get a dot-namespaced family
of event kinds, so a consumer can subscribe to one mechanism or
reconstruct a whole run.

Timestamps are the machine's own meters — *steps* (instructions
executed) and modelled *cycles* — not host wall-clock: a trace is a
function of the program and the configuration, reproducible bit-for-bit
across hosts.  Because every call eventually pairs with a return, the
``xfer.call`` / ``xfer.return`` stream forms the balanced-bracket
structure that :mod:`repro.obs.calltree` folds back into a tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# ---------------------------------------------------------------------------
# Event kinds (dot-namespaced by mechanism)
# ---------------------------------------------------------------------------

#: Machine lifecycle: ``start()`` set up the root activation.
MACHINE_BEGIN = "machine.begin"
#: The machine halted (final RETURN or HALT).
MACHINE_HALT = "machine.halt"
#: One instruction executed (only with ``trace_steps`` — very verbose).
MACHINE_STEP = "machine.step"

#: A call transfer completed (EFC/LFC/DFC/SDFC); name is the callee.
XFER_CALL = "xfer.call"
#: A return transfer completed; name is the returning procedure.
XFER_RETURN = "xfer.return"
#: A general XFER (coroutine linkage, trap context entry).
XFER_XFER = "xfer.xfer"
#: A trap was dispatched; name is the trap kind.
XFER_TRAP = "xfer.trap"

#: A frame (or long record) was allocated; name is the allocator.
ALLOC_FRAME = "alloc.frame"
#: A frame (or record) was freed.
ALLOC_FREE = "alloc.free"
#: The AV free list was empty — the section 5.3 software-allocator trap.
ALLOC_TRAP = "alloc.trap"
#: Bounded retry: the arena was full and the allocation was granted a
#: frame from a larger size class (graceful degradation).
ALLOC_PROMOTE = "alloc.promote"
#: Migration carved backing store for an adopted frame (uncounted host
#: work — no machine meters move).
ALLOC_CARVE = "alloc.carve"

#: A return was served from the IFU return stack (jump speed).
IFU_HIT = "ifu.hit"
#: A return fell back to the general scheme (stack empty).
IFU_MISS = "ifu.miss"
#: Return-stack entries were written to memory (overflow, xfer, ...).
IFU_FLUSH = "ifu.flush"

#: A register bank was spilled into its frame (section 7.1 overflow path).
BANK_SPILL = "bank.spill"
#: A register bank was filled from a frame (the underflow path).
BANK_FILL = "bank.fill"

#: The scheduler resumed a process (name is ``p<pid>``).
SCHED_SWITCH_IN = "sched.switch_in"
#: The scheduler suspended a process; ``reason`` is ``yield``/``preempt``.
SCHED_SWITCH_OUT = "sched.switch_out"
#: A process ran to completion.
SCHED_DONE = "sched.done"
#: A process was quarantined after an unhandled trap or a trap storm.
SCHED_FAULT = "sched.fault"
#: A process suspended on an outstanding Remote XFER (repro.net).
SCHED_BLOCK = "sched.block"
#: A remote reply delivered result words onto a blocked process's stack.
SCHED_UNBLOCK = "sched.unblock"

#: A Remote XFER left the calling shard; carries span/parent ids.
NET_CALL = "net.call"
#: The skeleton spawned a process for an incoming CALL.
NET_SERVE = "net.serve"
#: The skeleton sent a REPLY (or ERROR) back to the caller.
NET_REPLY = "net.reply"
#: A request was re-sent after a timeout or a shard fault.
NET_RETRY = "net.retry"
#: A process was extracted from its shard for migration (quiesced,
#: sliced out of the process table, forwarding installed).
NET_MIGRATE_EXTRACT = "net.migrate.extract"
#: A migrated process was adopted by its new home shard.
NET_MIGRATE_ADOPT = "net.migrate.adopt"
#: A reply (or error) for a migrated process hit the forwarding entry
#: on its old home and was re-routed to the new one.
NET_MIGRATE_FORWARD = "net.migrate.forward"

#: Every event kind, for validation and documentation.
ALL_KINDS: tuple[str, ...] = (
    MACHINE_BEGIN,
    MACHINE_HALT,
    MACHINE_STEP,
    XFER_CALL,
    XFER_RETURN,
    XFER_XFER,
    XFER_TRAP,
    ALLOC_FRAME,
    ALLOC_FREE,
    ALLOC_TRAP,
    ALLOC_PROMOTE,
    ALLOC_CARVE,
    IFU_HIT,
    IFU_MISS,
    IFU_FLUSH,
    BANK_SPILL,
    BANK_FILL,
    SCHED_SWITCH_IN,
    SCHED_SWITCH_OUT,
    SCHED_DONE,
    SCHED_FAULT,
    SCHED_BLOCK,
    SCHED_UNBLOCK,
    NET_CALL,
    NET_SERVE,
    NET_REPLY,
    NET_RETRY,
    NET_MIGRATE_EXTRACT,
    NET_MIGRATE_ADOPT,
    NET_MIGRATE_FORWARD,
)


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One observed occurrence, stamped with the machine's own meters.

    ``seq`` is a global emission counter (monotonic even when the ring
    buffer drops old events), ``steps`` and ``cycles`` are the machine
    meters at emission time, and ``data`` carries kind-specific fields
    (all JSON-serializable).
    """

    seq: int
    kind: str
    name: str
    steps: int
    cycles: int
    data: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """A JSON-ready flat representation (for the JSONL exporter)."""
        return {
            "seq": self.seq,
            "kind": self.kind,
            "name": self.name,
            "steps": self.steps,
            "cycles": self.cycles,
            "data": dict(self.data),
        }

    def __str__(self) -> str:
        extra = " ".join(f"{key}={value}" for key, value in self.data.items())
        label = f" {self.name}" if self.name else ""
        suffix = f"  [{extra}]" if extra else ""
        return f"#{self.seq} @{self.steps}/{self.cycles}c {self.kind}{label}{suffix}"
