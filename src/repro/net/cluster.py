"""A cluster: N machine shards, one placement, one transport, one pump.

Every shard links the **same program image**, from one compile of the
sources, with the same configuration — each into its own memory.  The
deterministic link guarantees identical entry addresses, and the
``hello`` handshake (which reuses the snapshot codec's configuration
token) verifies it.  The :class:`~repro.net.
placement.Placement` then decides *where each module executes*: a call
into a module homed elsewhere becomes a Remote XFER through the stub,
and arrives on the home shard as an ordinary root activation.

The pump is a deterministic event loop: each tick visits the shards in
id order — deliver polled messages, run what is runnable, flush
replies and outgoing calls — then advances the transport (delays age,
partitions heal).  When nothing moves and nothing is in flight, either
all work is done or some caller is waiting on a lost reply, in which
case the timeout/retry discipline takes over.  Everything is a pure
function of (sources, configuration, placement, fault plan, submitted
requests), so two runs with the same seed are bit-identical on every
shard's modelled meters — the property the conformance suite pins.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import NetError, TrapError
from repro.interp.machine import Machine
from repro.interp.machineconfig import MachineConfig
from repro.interp.processes import Process, ProcessStatus
from repro.net import wire
from repro.net.placement import Placement
from repro.net.shard import Shard
from repro.net.transport import InProcessTransport

#: Pump ticks without a reply before a request is re-sent.
DEFAULT_TIMEOUT_TICKS = 8
#: Retransmissions after the initial send: a request is transmitted at
#: most ``1 + DEFAULT_MAX_RETRIES`` times (each granted a full timeout)
#: before its blocked caller faults with ``lost_request``.
DEFAULT_MAX_RETRIES = 3


@dataclass
class Ticket:
    """A submitted root request and the process executing it."""

    module: str
    proc: str
    args: tuple[int, ...]
    span: str
    shard_id: int
    process: Process

    @property
    def status(self) -> ProcessStatus:
        return self.process.status

    @property
    def done(self) -> bool:
        return self.process.status in (ProcessStatus.DONE, ProcessStatus.FAULTED)

    @property
    def results(self) -> list[int]:
        return list(self.process.results)


@dataclass
class ClusterStats:
    """Pump-level accounting (host-side)."""

    ticks: int = 0
    submitted: int = 0
    completed: int = 0
    faulted: int = 0
    extra: dict = field(default_factory=dict)


def build_shard_machines(
    sources: list[str],
    config: MachineConfig,
    entry: tuple[str, str] = ("Main", "main"),
    engine: str = "interp",
    count: int = 1,
) -> list[Machine]:
    """Compile *sources* once and link *count* shard machines (no
    auto-start).

    Each machine links its own image, so each shard keeps its own
    memory; the deterministic link gives every image the same entry
    addresses — the property the handshake checks and Remote XFER
    relies on.  ``engine="jit"`` installs the JIT on every machine: the
    first install runs the verifier, and the others validate its
    ``repro-facts/1`` document against their own image instead of
    verifying again.  Each procedure then compiles on its first entry,
    so a shard compiles only what it runs; results, meters and wire
    traffic are exactly the interpreter's.
    """
    from repro.lang.compiler import CompileOptions, compile_program
    from repro.lang.linker import link

    modules = compile_program(sources, CompileOptions.for_config(config))
    machines = [Machine(link(modules, config, entry)) for _ in range(count)]
    if engine == "jit":
        from repro.jit import install_jit

        facts = None
        for machine in machines:
            facts = install_jit(machine, facts).facts
    return machines


def build_shard_machine(
    sources: list[str],
    config: MachineConfig,
    entry: tuple[str, str] = ("Main", "main"),
    engine: str = "interp",
) -> Machine:
    """Compile and link one shard's image (no auto-start); see
    :func:`build_shard_machines`."""
    return build_shard_machines(sources, config, entry, engine)[0]


class Cluster:
    """N shards in one host process, pumped to quiescence.

    Shards run on the JIT by default: the sources compile once, each
    shard links its own image, the verifier runs once for all of them
    (see :func:`build_shard_machines`), and an image with verifier
    findings is refused with :class:`~repro.jit.JitRefusal`.
    ``engine="interp"`` serves on the interpreter instead; results,
    meters, ticks and wire words are the same on both engines.
    """

    def __init__(
        self,
        sources: list[str],
        shards: int = 2,
        config: MachineConfig | str | None = None,
        entry: tuple[str, str] = ("Main", "main"),
        pins: dict[str, int] | None = None,
        transport: InProcessTransport | None = None,
        record: bool = False,
        engine: str = "jit",
    ) -> None:
        if shards < 1:
            raise NetError(f"a cluster needs at least one shard, got {shards}")
        if isinstance(config, str):
            config = MachineConfig.preset(config)
        self.config = config or MachineConfig.i2()
        self.entry = entry
        self.placement = Placement(list(range(shards)), pins=pins)
        self.transport = transport if transport is not None else InProcessTransport()
        machines = build_shard_machines(
            sources, self.config, entry, engine=engine, count=shards
        )
        self.shards: list[Shard] = [
            Shard(shard_id, machine, self.placement, record=record)
            for shard_id, machine in enumerate(machines)
        ]
        #: Submitted tickets not yet marked complete, in submission order.
        self.open_tickets: list[Ticket] = []
        self.ticks = 0
        self.stats = ClusterStats()
        #: Pending tombstone retirements: one record per migration with
        #: an outstanding request, dropped once the reply lands at (or
        #: the retry discipline resolves on) the new home.
        self._migrations: list[dict] = []
        self._handshake()

    def close(self) -> None:
        close = getattr(self.transport, "close", None)
        if close is not None:
            close()

    # -- setup -------------------------------------------------------------

    def _handshake(self) -> None:
        """Shard 0 greets every peer; each checks the hello against its
        own (:func:`~repro.net.wire.check_census`)."""
        zero = self.shards[0]
        for shard in self.shards[1:]:
            self.transport.send(
                wire.hello(0, shard.id, zero.machine.config, zero.modules())
            )
        for shard in self.shards[1:]:
            shard.deliver(self.transport.poll(shard.id))

    # -- requests ----------------------------------------------------------

    def submit(self, module: str, proc: str, *args: int) -> Ticket:
        """Spawn a root request on the module's home shard."""
        shard = self.shards[self.placement.home(module)]
        span = shard.new_span()
        process = shard.submit(module, proc, tuple(args), span)
        ticket = Ticket(
            module=module,
            proc=proc,
            args=tuple(args),
            span=span,
            shard_id=shard.id,
            process=process,
        )
        self.open_tickets.append(ticket)
        self.stats.submitted += 1
        return ticket

    def call(self, module: str, proc: str, *args: int) -> list[int]:
        """Submit, pump to quiescence, and return (or raise) the result."""
        ticket = self.submit(module, proc, *args)
        self.pump()
        if ticket.status is ProcessStatus.FAULTED:
            fault = ticket.process.fault or {}
            raise TrapError(
                fault.get("trap", "remote"),
                detail=fault.get("detail", ""),
                pc=fault.get("pc", -1),
                proc=fault.get("proc", ""),
            )
        return ticket.results

    # -- the pump ----------------------------------------------------------

    def pump_tick(self) -> bool:
        """One deterministic pump tick; False means the cluster is
        quiescent (nothing ran, nothing in flight, nobody awaiting).

        This is exactly one iteration of :meth:`pump`'s loop — the
        serving layer's tick-paced mode and the balancer drive it
        directly so they can interleave policy (and migrations) between
        ticks.  When every shard is stalled awaiting replies, the tick
        ages the timeout/retry discipline and reports True: the pump
        must keep ticking for retries to fire.
        """
        progress = False
        for shard in self.shards:
            messages = self.transport.poll(shard.id)
            if messages:
                shard.deliver(messages)
                progress = True
            if shard.step(self.ticks):
                progress = True
            outgoing = shard.drain_outbox()
            for message in outgoing:
                self.transport.send(message)
            if outgoing:
                progress = True
        self.transport.tick()
        self.ticks += 1
        self._mark_completions()
        self._retire_tombstones()
        if progress or self.transport.pending():
            return True
        if any(shard.has_ready() for shard in self.shards):
            return True
        if not any(shard.awaiting for shard in self.shards):
            return False
        # Stalled on replies: age the timeouts; retries re-enter the
        # transport through the ordinary outbox path.
        for shard in self.shards:
            if shard.retry(self.ticks, DEFAULT_TIMEOUT_TICKS, DEFAULT_MAX_RETRIES):
                for message in shard.drain_outbox():
                    self.transport.send(message)
        return True

    def pump(self, max_ticks: int = 100_000) -> int:
        """Drive the shards until quiescent; returns ticks consumed.

        Quiescent: nothing ran, nothing is queued or in flight, and no
        caller is awaiting a reply.  Awaiting callers keep the pump
        ticking so the timeout/retry discipline can re-send or, when
        retries are exhausted, fault them — the pump always terminates.
        """
        start = self.ticks
        while True:
            moved = self.pump_tick()
            if self.ticks - start > max_ticks:
                raise NetError(
                    f"cluster did not quiesce within {max_ticks} ticks "
                    f"({sum(s.awaiting for s in self.shards)} request(s) "
                    "outstanding)"
                )
            if not moved:
                break
        self.stats.ticks = self.ticks
        return self.ticks - start

    # -- migration ---------------------------------------------------------

    def migrate(self, ticket: Ticket, dst: int, mode: str = "exclusive") -> Process:
        """Move a ticket's process to shard *dst* between pump ticks.

        Quiesces nothing itself: call between ticks (``pump_tick``
        returns, or before the first ``pump``), when every live process
        sits at a block boundary.  Runs :mod:`repro.net.migrate`'s three
        steps back to back — extract, adopt, settle — so nothing is
        delivered between them; a refusal settles the process back onto
        its source and re-raises.  Updates the ticket in place so
        completion tracking follows the process to its new home.
        """
        from repro.net.migrate import (
            MigrateError,
            adopt,
            adopted_key,
            extract,
            settle,
            source_key,
        )

        if not 0 <= dst < len(self.shards):
            raise MigrateError(f"unknown migration target shard {dst}")
        source = self.shards[ticket.shard_id]
        target = self.shards[dst]
        process = ticket.process
        if process not in source.scheduler.processes:
            raise MigrateError(
                f"p{process.pid} is not on shard {source.id} (already "
                "migrated?)"
            )
        slice_ = extract(source, process, dst, mode=mode)
        try:
            adopted = adopt(target, slice_, now=self.ticks)
        except MigrateError:
            settle(source, process.pid, adopted=False, now=self.ticks)
            raise
        settle(source, process.pid, adopted=True)
        ticket.process = adopted
        ticket.shard_id = dst
        awaiting = slice_["net"].get("awaiting")
        if awaiting is not None:
            key = adopted_key(awaiting)
            # A chained migration moves the awaiting entry again: every
            # earlier tombstone for this request now resolves at the
            # *new* home, so retarget the watch before adding this hop.
            for record in self._migrations:
                if record["key"] == key:
                    record["target"] = dst
            self._migrations.append(
                {
                    "source": source.id,
                    "target": dst,
                    "key": key,
                    "source_key": source_key(awaiting),
                }
            )
        return adopted

    def _retire_tombstones(self) -> None:
        """Drop reply forwards whose reply has landed at the new home.

        The adopter's ``_awaiting`` entry disappears when the forwarded
        reply (or error, or the retry discipline's own fault) resolves
        it — from then on the old home's tombstone can serve no one.
        Call forwards stay until an adoption back onto their shard
        supersedes them: a late transport duplicate must never find a
        shard willing to execute the request a second time.
        """
        if not self._migrations:
            return
        still_pending = []
        for record in self._migrations:
            if record["key"] in self.shards[record["target"]]._awaiting:
                still_pending.append(record)
            else:
                self.shards[record["source"]].retire_forward(record["source_key"])
        self._migrations = still_pending

    def _mark_completions(self) -> None:
        still_open = []
        for ticket in self.open_tickets:
            if not ticket.done:
                still_open.append(ticket)
                continue
            if ticket.status is ProcessStatus.DONE:
                self.stats.completed += 1
            else:
                self.stats.faulted += 1
            # Close the root span so the stitcher sees an end stamp
            # (remote-served spans get theirs from the reply flush).
            shard = self.shards[ticket.shard_id]
            tracer = shard.machine.tracer
            if tracer is not None:
                tracer.emit(
                    "net.reply",
                    f"{ticket.module}.{ticket.proc}",
                    span=ticket.span,
                    shard=shard.id,
                    msg="root",
                    pid=ticket.process.pid,
                )
            shard.reap(ticket.process)
        self.open_tickets = still_open

    # -- observability -----------------------------------------------------

    def meters(self) -> dict[int, dict]:
        """Per-shard modelled meters (the determinism fixture)."""
        return {shard.id: shard.meters() for shard in self.shards}

    def trace_events(self) -> dict[int, list]:
        """Per-shard recorded events (requires ``record=True``)."""
        return {
            shard.id: list(shard.recorder.events)
            for shard in self.shards
            if shard.recorder is not None
        }
