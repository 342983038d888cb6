"""One shard: a Machine, its Scheduler, and the stub/skeleton frames.

The **stub** is the caller side of a Remote XFER.  It hooks the
machine's shared call path (``machine.remote_stub``): when a call
resolves to a procedure whose module lives on another shard, the stub
collects the argument record off the evaluation stack — through the
*uncounted* state-access paths, so the caller's modelled meters see
nothing — parks a request, and yields.  The scheduler then blocks the
calling process exactly as it would suspend it for any other reason
(flush the return stack and banks, save the state vector as memory
traffic): a Remote XFER costs the caller one ordinary modelled process
switch, and everything else is explicitly metered wire cost.

The **skeleton** is the callee side: an incoming ``call`` message
spawns an ordinary root activation of the target procedure under the
shard's scheduler, so the callee machine sees a plain XFER — frame
allocation, argument prologue, body, return — with its exact local
semantics and charges.  The reply marshals the result words back;
request-id dedup plus a reply cache make execution at-most-once even
when the transport duplicates or the caller retries.

A shard's three request tables — the reply cache, the reply forwards
and the call forwards — share one lifecycle (:meth:`Shard.remember`):
past ``2 * KEEP`` entries a table keeps its newest ``KEEP``, and each
evicted ``(src, id)`` raises that source's high-water mark.  A call at
or below the mark that no table still answers is refused with an
``evicted_request`` error instead of running again, so at-most-once
holds whatever ``KEEP`` is; the constant only decides whether a very
late duplicate gets its cached reply or that typed refusal.
"""

from __future__ import annotations

from repro.errors import NetError
from repro.interp.machine import Machine
from repro.interp.machineconfig import ArgConvention
from repro.interp.processes import Process, ProcessStatus, Scheduler
from repro.machine.memory import to_signed
from repro.net import wire
from repro.net.placement import Placement
from repro.net.wire import Message

#: A request table past twice this many entries keeps its newest KEEP.
KEEP = 4096


class Shard:
    """A machine + scheduler bound into a cluster by stub and skeleton."""

    def __init__(
        self,
        shard_id: int,
        machine: Machine,
        placement: Placement,
        record: bool = False,
    ) -> None:
        self.id = shard_id
        self.machine = machine
        self.placement = placement
        self.scheduler = Scheduler(machine)
        self.recorder = None
        if record:
            from repro.obs import TraceRecorder

            self.recorder = TraceRecorder(capacity=None)
            machine.attach_tracer(self.recorder)
        machine.remote_stub = self._stub
        #: Outgoing messages for the cluster to hand the transport.
        self.outbox: list[Message] = []
        #: request id -> bookkeeping for calls awaiting a reply.
        self._awaiting: dict[int, dict] = {}
        #: (src shard, request id) -> skeleton process now executing.
        self._served: dict[tuple[int, int], Process] = {}
        #: (src shard, request id) -> the reply already sent (dedup).
        self._reply_cache: dict[tuple[int, int], Message] = {}
        #: Tombstones for callers that migrated away: awaiting-key ->
        #: new home shard.  A reply/error landing here is re-routed (with
        #: an ``origin`` body field naming the original requester).
        self._forwards: dict = {}
        #: (src shard, request id) -> new home for in-flight requests
        #: whose *serving* process migrated away.  Placement still routes
        #: retries of those requests here, so the old home must bounce
        #: them — src preserved, keeping the adopter's dedup key intact.
        self._call_forwards: dict[tuple[int, int], int] = {}
        #: src shard -> the highest request id evicted from the reply
        #: cache or the call forwards (see :meth:`remember`).
        self._evicted: dict[int, int] = {}
        #: pid -> an extracted process not yet settled: its bookkeeping,
        #: its served and awaited ``keys``, and the messages ``held`` for
        #: them (see :func:`repro.net.migrate.settle`).
        self._unsettled: dict[int, dict] = {}
        #: pid -> the span this process is executing (for span parents).
        self._spans: dict[int, str] = {}
        self._next_request = 0
        self._next_span = 0

    # -- identity ----------------------------------------------------------

    def modules(self) -> list[str]:
        """The module census of this shard's linked image."""
        return sorted({meta.module for meta in self.machine.image.procs_by_entry.values()})

    def new_span(self) -> str:
        """A deterministic span id: ``"<shard>:<ordinal>"``."""
        span = f"{self.id}:{self._next_span}"
        self._next_span += 1
        return span

    def meters(self) -> dict:
        """This shard's modelled meters (the determinism fixture)."""
        return {
            "counter": self.machine.counter.snapshot(),
            "steps": self.machine.steps,
            "switches": self.scheduler.stats.switches,
            "blocks": self.scheduler.stats.blocks,
        }

    # -- the stub (caller side) -------------------------------------------

    def _stub(self, meta, kind, return_pc) -> bool:
        if self.placement.home(meta.module) == self.id:
            return False
        machine = self.machine
        frame = machine.frame
        if frame is not None and frame.proc.module == meta.module:
            # A migrated process executing away from its module's
            # placement home: its intra-module calls stay local.  The
            # code is linked on every shard, and bouncing a module's
            # internal calls over the wire would break the meter
            # identity migration promises (and route the call straight
            # back to the shard the process just left).  Never taken
            # without a migration: otherwise the running frame's module
            # is homed here, and the first check already answered.
            return False
        current = self.scheduler.current
        if current is None:
            raise NetError(
                f"remote call to {meta.qualified_name} outside a scheduled "
                "process; drive the shard through its scheduler"
            )
        # Collect the argument record through the uncounted paths: the
        # caller's meters must not see the stub.
        if machine.config.arg_convention is ArgConvention.RENAME:
            words = machine.stack.contents()
            machine.stack.clear()
        else:
            words = machine.stack.contents()
            keep = len(words) - meta.arg_count
            machine.stack.load(words[:keep])
            words = words[keep:]
        span = self.new_span()
        machine.remote_pending = {
            "module": meta.module,
            "proc": meta.name,
            "args": [to_signed(word) for word in words],
            "span": span,
            "parent": self._spans.get(current.pid),
            "transfer": kind.value,
        }
        machine.yield_requested = True
        tracer = machine.tracer
        if tracer is not None:
            tracer.emit(
                "net.call",
                meta.qualified_name,
                span=span,
                parent=self._spans.get(current.pid),
                shard=self.id,
                dst=self.placement.home(meta.module),
                args=len(words),
                transfer=kind.value,
            )
        return True

    # -- the skeleton (callee side) and message handling ------------------

    def submit(self, module: str, proc: str, args: tuple[int, ...], span: str) -> Process:
        """Spawn a root request on this shard (the serving entry point)."""
        process = self.scheduler.spawn(module, proc, *args)
        self._spans[process.pid] = span
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.emit(
                "net.serve",
                f"{module}.{proc}",
                span=span,
                parent=None,
                shard=self.id,
                pid=process.pid,
                origin="root",
                args=list(args),
            )
        return process

    def deliver(self, messages: list[Message]) -> None:
        """Accept polled transport messages addressed to this shard."""
        for message in messages:
            if message.kind == "hello":
                self._handle_hello(message)
            elif message.kind == "call":
                self._handle_call(message)
            elif message.kind == "reply":
                self._handle_reply(message)
            else:
                self._handle_error(message)

    def _handle_hello(self, message: Message) -> None:
        """Check a peer's hello against this shard's own."""
        own = wire.hello(self.id, message.src, self.machine.config, self.modules())
        wire.check_census({message.src: message, self.id: own})

    def _handle_call(self, message: Message) -> None:
        body = message.body
        key = (message.src, body["id"])
        cached = self._reply_cache.get(key)
        if cached is not None:
            # Duplicate of an already-answered request: resend the
            # cached reply; never execute twice (at-most-once).
            self.outbox.append(cached)
            return
        if key in self._served:
            return  # duplicate of a request still executing
        if self._unsettled and self._hold(key, message):
            return
        new_home = self._call_forwards.get(key)
        if new_home is not None:
            # The serving process migrated away mid-request; bounce the
            # (retried or duplicated) call to its new home with the
            # source preserved, so the adopter's dedup key — the
            # original (src, id) — still matches.
            self.outbox.append(
                Message(kind="call", src=message.src, dst=new_home, body=dict(body))
            )
            self._emit_forward(message, new_home)
            return
        if body["id"] <= self._evicted.get(message.src, -1):
            # This shard may have served the request and forgotten it:
            # refuse loudly rather than run it a second time.
            self.outbox.append(
                wire.error(
                    self.id, message.src, body["id"], body["span"],
                    trap="evicted_request",
                    pc=-1,
                    proc=f"{body['module']}.{body['proc']}",
                    detail=(
                        f"request {body['id']} from shard {message.src} is "
                        "older than this shard's request tables remember"
                    ),
                )
            )
            return
        process = self.scheduler.spawn(body["module"], body["proc"], *body["args"])
        self._served[key] = process
        self._spans[process.pid] = body["span"]
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.emit(
                "net.serve",
                f"{body['module']}.{body['proc']}",
                span=body["span"],
                parent=body["parent"],
                shard=self.id,
                pid=process.pid,
                origin=message.src,
                args=list(body["args"]),
            )

    @staticmethod
    def awaiting_key(body: dict):
        """The ``_awaiting`` key a reply or error resolves to.

        Requests this shard sent itself key by their bare integer id; a
        request *adopted* through migration keys by ``("adopt", origin,
        id)``, where *origin* is the shard that originally sent it — the
        forwarded message carries that origin in its body, so adopted
        ids can never collide with the adopter's own request counter.
        """
        origin = body.get("origin")
        if origin is None:
            return body["id"]
        return ("adopt", origin, body["id"])

    def _forward_reply(self, message: Message, key) -> None:
        """Re-route a reply/error whose blocked caller migrated away
        (or hold it while that migration is unsettled)."""
        if self._unsettled and self._hold(key, message):
            return
        new_home = self._forwards.get(key)
        if new_home is None:
            return
        body = dict(message.body)
        # First hop stamps the origin (this shard sent the original
        # request); later hops preserve it — the adopter keyed on it.
        body.setdefault("origin", self.id)
        self.outbox.append(
            Message(kind=message.kind, src=message.src, dst=new_home, body=body)
        )
        self._emit_forward(message, new_home)

    def _hold(self, key, message: Message) -> bool:
        """Hold *message* if *key* belongs to an unsettled migration."""
        for unsettled in self._unsettled.values():
            if key in unsettled["keys"]:
                unsettled["held"].append(message)
                return True
        return False

    def _emit_forward(self, message: Message, new_home: int) -> None:
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.emit(
                "net.migrate.forward",
                message.describe(),
                shard=self.id,
                dst=new_home,
                msg=message.kind,
            )

    def _handle_reply(self, message: Message) -> None:
        body = message.body
        key = self.awaiting_key(body)
        entry = self._awaiting.pop(key, None)
        if entry is None:
            self._forward_reply(message, key)
            return  # forwarded, held, or duplicate for a resumed caller
        self.scheduler.unblock(entry["process"], body["results"])

    def _handle_error(self, message: Message) -> None:
        body = message.body
        key = self.awaiting_key(body)
        entry = self._awaiting.pop(key, None)
        if entry is None:
            self._forward_reply(message, key)
            return
        self.scheduler.fault_blocked(
            entry["process"],
            {
                "trap": body["trap"],
                "pc": body["pc"],
                "proc": body["proc"],
                "detail": f"remote fault on shard {message.src}: {body['detail']}",
            },
        )

    # -- the pump ----------------------------------------------------------

    def has_ready(self) -> bool:
        return any(
            p.status is ProcessStatus.READY for p in self.scheduler.processes
        )

    def step(self, now_tick: int) -> bool:
        """Run what is runnable, then flush replies and outgoing calls."""
        progressed = False
        if self.has_ready():
            self.scheduler.run()
            progressed = True
        progressed |= self._flush_replies()
        progressed |= self._flush_calls(now_tick)
        return progressed

    def _flush_replies(self) -> bool:
        sent = False
        for key in list(self._served):
            process = self._served[key]
            if process.status is ProcessStatus.DONE:
                message = wire.reply(
                    self.id, key[0], key[1], self._spans[process.pid],
                    list(process.results),
                )
            elif process.status is ProcessStatus.FAULTED:
                fault = process.fault or {}
                message = wire.error(
                    self.id, key[0], key[1], self._spans[process.pid],
                    trap=fault.get("trap", "unknown"),
                    pc=fault.get("pc", -1),
                    proc=fault.get("proc", ""),
                    detail=fault.get("detail", ""),
                )
            else:
                continue
            del self._served[key]
            self.remember(self._reply_cache, key, message)
            self.outbox.append(message)
            tracer = self.machine.tracer
            if tracer is not None:
                tracer.emit(
                    "net.reply",
                    f"{process.module}.{process.proc}",
                    span=self._spans[process.pid],
                    shard=self.id,
                    msg=message.kind,
                    pid=process.pid,
                )
            # The reply cache answers duplicates from here on.
            self.reap(process)
            sent = True
        return sent

    def _flush_calls(self, now_tick: int) -> bool:
        sent = False
        for process in self.scheduler.processes:
            if process.status is not ProcessStatus.BLOCKED:
                continue
            pending = process.remote
            if pending is None or "id" in pending:
                continue
            request_id = self._next_request
            self._next_request += 1
            pending["id"] = request_id
            dst = self.placement.home(pending["module"])
            message = wire.call(
                self.id,
                dst,
                request_id,
                pending["span"],
                pending["parent"],
                pending["module"],
                pending["proc"],
                pending["args"],
            )
            self._awaiting[request_id] = {
                "process": process,
                "message": message,
                "sent": now_tick,
                "sends": 1,
            }
            self.outbox.append(message)
            sent = True
        return sent

    def retry(self, now_tick: int, timeout_ticks: int, max_retries: int) -> bool:
        """Re-send calls whose replies are overdue; fault on exhaustion.

        The retry contract, stated once and pinned by
        ``tests/test_net_transport.py``: ``max_retries`` counts
        **retransmissions after the initial send**, so a request is
        transmitted at most ``1 + max_retries`` times, each
        transmission granted a full ``timeout_ticks`` wait; when the
        last wait expires the blocked caller faults with a clean
        ``lost_request`` trap.  (``entry["sends"]`` counts total
        transmissions, starting at 1 for the initial send.)
        """
        acted = False
        for request_id in list(self._awaiting):
            entry = self._awaiting[request_id]
            if now_tick - entry["sent"] < timeout_ticks:
                continue
            message = entry["message"]
            if entry["sends"] >= 1 + max_retries:
                del self._awaiting[request_id]
                self.scheduler.fault_blocked(
                    entry["process"],
                    {
                        "trap": "lost_request",
                        "pc": -1,
                        "proc": f"{message.body['module']}.{message.body['proc']}",
                        "detail": (
                            f"request {request_id} unanswered after "
                            f"{entry['sends']} transmission(s) "
                            f"(1 send + {max_retries} retries)"
                        ),
                    },
                )
                acted = True
                continue
            entry["sends"] += 1
            entry["sent"] = now_tick
            self.outbox.append(message)
            tracer = self.machine.tracer
            if tracer is not None:
                tracer.emit(
                    "net.retry",
                    message.describe(),
                    span=message.body["span"],
                    shard=self.id,
                    attempt=entry["sends"],
                )
            acted = True
        return acted

    def drain_outbox(self) -> list[Message]:
        messages, self.outbox = self.outbox, []
        return messages

    def remember(self, table: dict, key, value) -> None:
        """Insert into one of the three request tables: the only way in.

        Past ``2 * KEEP`` entries the table keeps its newest ``KEEP``.
        An evicted ``(src, id)`` key of the reply cache or the call
        forwards raises ``_evicted[src]``, below which
        :meth:`_handle_call` refuses what no table answers.  An evicted
        reply forward needs no mark: a late reply for it is dropped, as
        a duplicate for a resumed caller is.
        """
        table[key] = value
        if len(table) <= 2 * KEEP:
            return
        marks = table is not self._forwards
        for old in list(table)[:-KEEP]:
            del table[old]
            if marks:
                src, request_id = old
                self._evicted[src] = max(request_id, self._evicted.get(src, -1))

    # -- migration surgery (host-side, uncounted) --------------------------

    def reap(self, process: Process) -> None:
        """Drop a handed-off process and its span from this shard.

        The one exit of a shard's process, in both modes: a served call
        once its reply is cached and sent, a root request once its
        ticket completes, a migrated process once it has been extracted
        (a refused migration settles it back).  Other pids stay as they
        are.  Host bookkeeping only — no machine meters move.  A migrated
        process's frames stay allocated in this shard's heap (their live
        copies now belong to the adopter); the arena wears the scar,
        which is bounded by one frame chain per migration.
        """
        if self.scheduler.discard(process):
            self._spans.pop(process.pid, None)

    @property
    def awaiting(self) -> int:
        """Outstanding remote calls (blocked processes waiting on replies)."""
        return len(self._awaiting)
