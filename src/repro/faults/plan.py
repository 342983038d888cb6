"""The FaultPlan DSL: declarative, seeded, serializable fault schedules.

A plan is data, not code: a name, the seed that generated it, and a list
of :class:`Injection` records.  Each injection pairs a :class:`Trigger`
(when to fire) with an *action* (what to do), so a plan can be stored in
a chaos report, diffed between runs, and replayed bit-for-bit on any
implementation.

Triggers
--------
Each machine trigger names an instruction boundary of the program's
uninterrupted run (see :func:`repro.faults.inject.firing_schedule`):

``at_step(n)``
    Fire once the machine has executed *n* instructions.
``on_event(kind, k)``
    Fire after the instruction that emitted the *k*-th traced event of
    kind *kind* — the k-th ``alloc.frame``, ``bank.spill``,
    ``ifu.flush``, ``xfer.trap``, and so on (``machine.begin`` is
    emitted before the first instruction).  A kind without a dot
    suffix matches its whole family (``alloc`` matches ``alloc.frame``
    and ``alloc.trap``).

Actions
-------
State actions corrupt or exhaust a resource *in place* between two
instructions and let the run continue (the machine must degrade
gracefully):

* ``drain_av`` — zero every AV free-list head (section 5.3's empty-list
  trap on the next allocation);
* ``exhaust_heap`` — empty the frame arena completely: bump pointer to
  the limit, free lists drained, the processor's fast-frame stack
  cleared (the next allocation must surface RESOURCE_EXHAUSTED);
* ``flush_rstack`` — force the IFU return stack's "something unusual"
  full flush;
* ``flush_banks`` — force the section 7.1 fallback: "all the banks are
  flushed into storage".

Control actions are carried out by the chaos harness at their boundary:

* ``snapshot`` — capture the complete state vector;
* ``kill`` — abandon the machine; the driver restores the last snapshot
  onto a fresh image and resumes;
* ``trap`` — dispatch a machine trap of kind ``detail`` (e.g.
  ``divide_by_zero``), exercising trap-in-trap and quarantine paths.

Network actions target the wire, not a machine: they are interpreted by
the transport's fault policy (:class:`repro.net.transport.NetFaultPolicy`)
and never fire on a machine, and their triggers must be ``on_event``
over the ``net.send`` stream — the k-th message offered to the
transport:

* ``net_drop`` — the message vanishes (the caller's timeout/retry path
  must recover it);
* ``net_dup`` — the message is delivered twice (request-id dedup on the
  callee must keep execution at-most-once);
* ``net_delay`` — delivery is deferred by ``detail`` pump ticks;
* ``net_partition`` — the link ``detail`` (``"a->b:ticks"``, or just
  ``"ticks"`` for all links) queues messages until it heals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Actions applied in place while the run continues.
STATE_ACTIONS = frozenset({"drain_av", "exhaust_heap", "flush_rstack", "flush_banks"})

#: Actions the chaos harness carries out at their boundary.
CONTROL_ACTIONS = frozenset({"snapshot", "kill", "trap"})

#: Actions applied to wire messages by the transport's fault policy
#: (repro.net); their triggers count ``net.send`` occurrences.
NET_ACTIONS = frozenset({"net_drop", "net_dup", "net_delay", "net_partition"})


@dataclass(frozen=True)
class Trigger:
    """When an injection fires.

    ``kind`` is ``"step"`` or ``"event"``; ``at`` is the step count or
    the occurrence ordinal (1-based); ``event`` names the traced event
    kind (only for ``kind == "event"``).
    """

    kind: str
    at: int
    event: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("step", "event"):
            raise ValueError(f"unknown trigger kind {self.kind!r}")
        if self.at < 1:
            raise ValueError(f"trigger threshold must be >= 1, got {self.at}")
        if (self.kind == "event") != bool(self.event):
            raise ValueError("event triggers (only) must name an event kind")


@dataclass(frozen=True)
class Injection:
    """One scheduled fault: a trigger plus an action.

    ``detail`` parameterizes the action (the trap kind for ``trap``).
    ``once`` is currently always True — an injection fires at most once;
    repeated faults are expressed as multiple injections, which keeps
    replay-after-restore unambiguous.
    """

    trigger: Trigger
    action: str
    detail: str = ""
    once: bool = True

    def __post_init__(self) -> None:
        if self.action not in STATE_ACTIONS | CONTROL_ACTIONS | NET_ACTIONS:
            raise ValueError(f"unknown action {self.action!r}")
        if self.action in NET_ACTIONS and self.trigger.kind != "event":
            raise ValueError(
                f"net action {self.action!r} needs an on_event trigger over "
                "the net.send stream"
            )


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded schedule of injections."""

    name: str
    seed: int
    injections: tuple[Injection, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        """JSON-ready representation (for chaos reports)."""
        return {
            "name": self.name,
            "seed": self.seed,
            "injections": [
                {
                    "trigger": {
                        "kind": i.trigger.kind,
                        "at": i.trigger.at,
                        "event": i.trigger.event,
                    },
                    "action": i.action,
                    "detail": i.detail,
                }
                for i in self.injections
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> FaultPlan:
        """Inverse of :meth:`to_dict`."""
        return cls(
            name=data["name"],
            seed=data["seed"],
            injections=tuple(
                Injection(
                    trigger=Trigger(
                        kind=i["trigger"]["kind"],
                        at=i["trigger"]["at"],
                        event=i["trigger"].get("event", ""),
                    ),
                    action=i["action"],
                    detail=i.get("detail", ""),
                )
                for i in data.get("injections", ())
            ),
        )


# -- trigger constructors ----------------------------------------------------


def at_step(n: int) -> Trigger:
    """Fire once the machine has executed *n* instructions."""
    return Trigger(kind="step", at=n)


def on_event(event: str, k: int = 1) -> Trigger:
    """Fire after the instruction that emits the *k*-th *event*."""
    return Trigger(kind="event", at=k, event=event)
