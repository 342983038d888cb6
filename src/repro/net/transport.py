"""Transports: how wire records move between shards.

:class:`InProcessTransport` is the reference implementation — per-shard
FIFO queues inside the host process, advanced by the cluster's pump
ticks.  :class:`SocketTransport` pushes the *encoded* records through a
real ``socketpair`` behind the same interface, proving the wire format
survives a byte stream; delivery order and fault semantics are
identical, so every test and benchmark can run on either.

Faults live here, not in the machines: a :class:`NetFaultPolicy`
interprets the ``net_*`` actions of a :class:`~repro.faults.plan.
FaultPlan` over the ``net.send`` stream (the k-th message offered to
the transport), deterministically — drop, duplicate, delay by pump
ticks, or partition a link so its messages queue until it heals.  The
caller's timeout/retry discipline plus request-id dedup on the callee
turn that into at-most-once execution, which is what keeps every
shard's modelled meters bit-identical run over run even under faults.

The transport meters wire cost explicitly: every send accumulates the
message's 16-bit word count in ``stats`` (and the optional metrics
registry) — never on a machine's cycle counter.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass

from repro.errors import WireError
from repro.faults.plan import NET_ACTIONS, FaultPlan, Injection
from repro.net.frame import RECV_BYTES, FrameBuffer, encode_frame
from repro.net.wire import Message, decode


@dataclass
class TransportStats:
    """Explicit wire meters (host-side; never a machine charge)."""

    sent: int = 0
    delivered: int = 0
    wire_words: int = 0
    dropped: int = 0
    duplicated: int = 0
    delayed: int = 0
    held: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


class NetFaultPolicy:
    """Applies a plan's ``net_*`` injections to the ``net.send`` stream.

    Each armed injection counts the messages offered to the transport
    (its trigger must be ``on_event`` over ``net.send`` or the ``net``
    family) and fires once when its ordinal arrives.  A machine fault
    fires at a step resolved in advance on the program's reference run
    (:func:`~repro.faults.inject.firing_schedule`); a wire fault cannot,
    since the send stream is only known as the cluster runs, so the
    policy counts it live and lives with the transport.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.injections: list[tuple[int, Injection]] = [
            (index, injection)
            for index, injection in enumerate(plan.injections)
            if injection.action in NET_ACTIONS
        ]
        self._counts = {index: 0 for index, _ in self.injections}
        self._armed = {index: True for index, _ in self.injections}
        #: (plan index, send ordinal) per firing, for chaos reports.
        self.fired: list[tuple[int, int]] = []
        self._sends = 0

    def actions_for(self, message: Message) -> list[Injection]:
        """Count one offered message; return the injections that fire."""
        self._sends += 1
        firing: list[Injection] = []
        for index, injection in self.injections:
            if not self._armed[index]:
                continue
            event = injection.trigger.event
            if event not in ("net", "net.send"):
                continue
            self._counts[index] += 1
            if self._counts[index] < injection.trigger.at:
                continue
            self._armed[index] = False
            self.fired.append((index, self._sends))
            firing.append(injection)
        return firing

    def fate(
        self, message: Message, stats: TransportStats
    ) -> tuple[int, int, list[tuple[str, int]]]:
        """Apply the injections that fire on one offered message.

        Returns (copies, delay in ticks, partitions to open as (link key,
        ticks)); zero copies means the message was dropped.  Every
        transport interprets the ``net_*`` actions here, counting them in
        *stats*.
        """
        copies, delay, partitions = 1, 0, []
        for injection in self.actions_for(message):
            if injection.action == "net_drop":
                stats.dropped += 1
                return 0, 0, partitions
            if injection.action == "net_dup":
                copies += 1
                stats.duplicated += 1
            elif injection.action == "net_delay":
                delay = max(delay, int(injection.detail or "1"))
                stats.delayed += 1
            elif injection.action == "net_partition":
                partitions.append(_parse_partition(injection.detail))
        return copies, delay, partitions


def _parse_partition(detail: str) -> tuple[str, int]:
    """``"a->b:ticks"`` partitions one link; ``"ticks"`` partitions all.

    Returns (link key, duration).  The key ``"*"`` matches every link.
    """
    text = detail.strip() or "2"
    if "->" in text:
        link, _, ticks = text.partition(":")
        a, _, b = link.partition("->")
        try:
            return f"{int(a)}->{int(b)}", int(ticks or 2)
        except ValueError as fault:
            raise WireError(f"bad partition detail {detail!r}") from fault
    try:
        return "*", int(text)
    except ValueError as fault:
        raise WireError(f"bad partition detail {detail!r}") from fault


class InProcessTransport:
    """Per-destination FIFO queues with deterministic fault semantics.

    ``send`` applies the fault policy, then commits the message (or
    holds it: delayed messages wait their tick count; a partitioned
    link queues messages until it heals).  ``poll(dst)`` drains what is
    deliverable for one shard; ``tick()`` advances delays and
    partitions — the cluster calls it once per pump round.
    """

    def __init__(self, policy: NetFaultPolicy | None = None) -> None:
        self.policy = policy
        self.stats = TransportStats()
        self._queues: dict[int, deque[Message]] = {}
        #: [ticks remaining, message] pairs awaiting delivery.
        self._delayed: list[list] = []
        #: link key ("src->dst" or "*") -> ticks until heal.
        self._partitions: dict[str, int] = {}
        #: messages caught behind a partition, in send order.
        self._held: list[Message] = []

    # -- the transport interface ------------------------------------------

    def send(self, message: Message) -> None:
        """Offer one message; the fault policy decides its fate."""
        self.stats.sent += 1
        self.stats.wire_words += message.wire_words
        copies, delay, partitions = 1, 0, []
        if self.policy is not None:
            copies, delay, partitions = self.policy.fate(message, self.stats)
        for key, ticks in partitions:
            self._partitions[key] = max(self._partitions.get(key, 0), ticks)
        for _ in range(copies):
            if delay > 0:
                self._delayed.append([delay, message])
            else:
                self._route(message)

    def poll(self, dst: int) -> list[Message]:
        """Drain every deliverable message for shard *dst* (FIFO)."""
        queue = self._queues.get(dst)
        if not queue:
            return []
        messages = list(queue)
        queue.clear()
        self.stats.delivered += len(messages)
        return messages

    def tick(self) -> None:
        """One pump round: age delays, heal partitions, release holds."""
        still_delayed: list[list] = []
        for entry in self._delayed:
            entry[0] -= 1
            if entry[0] <= 0:
                self._route(entry[1])
            else:
                still_delayed.append(entry)
        self._delayed = still_delayed
        healed = False
        for key in list(self._partitions):
            self._partitions[key] -= 1
            if self._partitions[key] <= 0:
                del self._partitions[key]
                healed = True
        if healed and self._held:
            held, self._held = self._held, []
            for message in held:
                self._route(message)

    def pending(self) -> int:
        """Messages somewhere in flight (queues, delays, holds)."""
        return (
            sum(len(queue) for queue in self._queues.values())
            + len(self._delayed)
            + len(self._held)
        )

    # -- internals ---------------------------------------------------------

    def _partitioned(self, src: int, dst: int) -> bool:
        return "*" in self._partitions or f"{src}->{dst}" in self._partitions

    def _route(self, message: Message) -> None:
        if self._partitioned(message.src, message.dst):
            self.stats.held += 1
            self._held.append(message)
            return
        self._commit(message)

    def _commit(self, message: Message) -> None:
        self._queues.setdefault(message.dst, deque()).append(message)


class SocketTransport(InProcessTransport):
    """The same semantics, with the encoded records crossing a socket.

    Every committed message is written as one framed UTF-8 JSON line
    (:mod:`repro.net.frame`) to a ``socketpair``; ``poll`` first drains
    the socket, decoding each complete frame back into a
    :class:`~repro.net.wire.Message` and routing it into the per-shard
    queues.  A frame split across ``recv`` chunks (or larger than one
    recv buffer) stays in the :class:`~repro.net.frame.FrameBuffer`
    until its terminator arrives; if the peer closes mid-frame the
    drain raises :class:`~repro.errors.TruncatedFrameError` instead of
    silently discarding the partial record.  Fault semantics (policy,
    delays, partitions) are inherited unchanged — they act before the
    bytes are written, exactly as a faulty network would.
    """

    def __init__(self, policy: NetFaultPolicy | None = None) -> None:
        super().__init__(policy)
        import socket

        self._rx, self._tx = socket.socketpair()
        self._rx.setblocking(False)
        # Non-blocking writes with an explicit outgoing buffer: a frame
        # larger than the kernel socket buffer would otherwise deadlock
        # a blocking ``sendall`` (nothing drains the read side until
        # ``poll``).  ``_drain_socket`` interleaves flush and recv, so
        # even a single frame bigger than the whole buffer crosses.
        self._tx.setblocking(False)
        self._out = b""
        self._framer = FrameBuffer()
        self._in_socket = 0

    def close(self) -> None:
        self._tx.close()
        self._rx.close()

    def _commit(self, message: Message) -> None:
        self._out += encode_frame(message.encode())
        self._in_socket += 1
        self._flush_tx()

    def _flush_tx(self) -> int:
        """Push buffered outgoing bytes; return how many were written."""
        written = 0
        while self._out:
            try:
                sent = self._tx.send(self._out)
            except BlockingIOError:
                break
            self._out = self._out[sent:]
            written += sent
        return written

    def _drain_socket(self) -> None:
        closed = False
        while True:
            flushed = self._flush_tx()
            try:
                chunk = self._rx.recv(RECV_BYTES)
            except BlockingIOError:
                if flushed:  # recv freed buffer space; keep pushing
                    continue
                break
            except OSError:  # pragma: no cover - rx already closed
                closed = True
                break
            if not chunk:
                closed = True
                break
            for line in self._framer.feed(chunk):
                self._in_socket -= 1
                super()._commit(decode(line))
        if closed:
            # EOF with buffered partial bytes is data loss; surface it.
            self._framer.finish()

    def poll(self, dst: int) -> list[Message]:
        self._drain_socket()
        return super().poll(dst)

    def pending(self) -> int:
        # _in_socket counts frames this transport wrote but has not yet
        # decoded; a partial frame from a writer we did not count (or a
        # desynced counter) must still register as in flight, so the
        # pump cannot declare quiescence over buffered bytes.
        in_flight = self._in_socket
        if in_flight == 0 and self._framer.buffered:
            in_flight = 1
        return super().pending() + in_flight
