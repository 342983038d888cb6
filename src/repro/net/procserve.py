"""Process mode: every shard a real OS process behind an asyncio front door.

:class:`~repro.net.cluster.Cluster` pumps its shards cooperatively in
one host process; this module promotes the same shards to worker
**processes** (:mod:`repro.net.worker`) without changing what travels
between them: workers speak ``repro-wire/1`` over newline-framed
sockets, calls still arrive as ordinary root activations, dedup and the
reply cache still make execution at-most-once, and the modelled meters
still never see the wire.  Management (meters, trace events, snapshot,
restore, status, migration, shutdown) rides a separate ``repro-ctl/1``
schema, which each shard answers (:meth:`~repro.net.shard.Shard.control`),
so the data plane stays exactly what the conformance suite pins.

The **front door** is one asyncio event loop on a background thread:

* it builds once, before anything forks: the sources compile, **one
  image** links and, on the JIT (the default), is verified once, so an
  image with verifier findings raises :class:`~repro.jit.JitRefusal`
  from the constructor; each worker's spec carries the image and its
  ``repro-facts/1`` document, and the worker builds its shard from its
  own copy (:func:`~repro.net.worker.worker_specs`);
* it binds a listener (a Unix socket in a private tempdir; TCP loopback
  where ``AF_UNIX`` is unavailable), forks the workers **before** the
  loop thread starts, and accepts one connection per worker;
* each worker's ``hello`` is cross-checked against the others — same
  configuration token, same module census — by the check an in-process
  shard runs on its greeter's hello (:func:`~repro.net.wire.check_census`);
  a worker that exits before its hello fails the start at once, naming
  its exit code;
* wire frames are routed by destination through the in-process
  cluster's router, an :class:`~repro.net.transport.InProcessTransport`:
  shard-to-shard traffic is forwarded between workers, and replies to
  the front door's pseudo-shard id (:data:`FRONT_DOOR`) resolve the
  caller futures;
* root submissions are ordinary wire ``call`` records from
  ``src == FRONT_DOOR``, which buys the front door the worker-side
  dedup/at-most-once machinery for free, including its timeout/retry
  discipline: a request is transmitted at most
  ``1 + DEFAULT_MAX_RETRIES`` times, then raises
  :class:`~repro.errors.LostRequest`.

Chaos plans plug into that transport's :class:`~repro.net.transport.
NetFaultPolicy`, so the seeded ``net_*`` plans that drive the in-process
cluster drive real processes; while a frame is delayed or held, the
front door ticks the transport every ``tick_seconds``.  Migration is
the in-process driver too (:func:`repro.net.migrate.move`).

:class:`ProcessServer` is the serving layer over it: the admission
engine of :mod:`repro.net.admission`, clocked in milliseconds.  Two
routes:

* ``"dispatch"`` — every request enters ``Main.dispatch`` on its home
  worker and fans out to the leaf modules as worker-to-worker Remote
  XFERs (the conformance route);
* ``"direct"`` — the front door routes each request straight to its
  leaf procedure on a round-robin worker, with every worker self-homed
  (``self_homed=True``) so requests are embarrassingly parallel (the
  scale route: this is how the 1M-request benchmark runs).
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import socket
import tempfile
import threading
import time

from repro.errors import LostRequest, NetError, TrapError, TruncatedFrameError, WireError
from repro.faults.plan import FaultPlan
from repro.interp.machineconfig import MachineConfig
from repro.net import ctl, wire
from repro.net.admission import Admission, Policy, ServeReport
from repro.net.cluster import DEFAULT_MAX_RETRIES
from repro.net.frame import RECV_BYTES, FrameBuffer, encode_frame
from repro.net.migrate import move, no_such_shard
from repro.net.placement import Placement
from repro.net.serve import SERVICE_SOURCES, Request, generate_workload
from repro.net.transport import InProcessTransport, NetFaultPolicy
from repro.net.wire import check_census
from repro.net.worker import FRONT_DOOR, run_worker, worker_specs
from repro.obs import MetricsRegistry

__all__ = [
    "FRONT_DOOR",
    "ProcessCluster",
    "ProcessServer",
    "check_census",
    "run_process_serve",
]

#: Seconds the constructor waits for every worker to connect and greet.
STARTUP_TIMEOUT = 120.0

#: Seconds between checks, while the constructor waits for hellos, for
#: a worker process that exited before it greeted.
STARTUP_POLL_SECONDS = 0.05

#: Seconds of real time per modelled transport tick: ``net_delay`` and
#: ``net_partition`` details are stated in ticks, and the front door
#: ticks its transport at this rate while a frame waits on one.
DEFAULT_TICK_SECONDS = 0.05

#: Milliseconds before a failed request's first resubmission (then doubling).
BACKOFF_MS = 50.0


class _WorkerHandle:
    """Front-door bookkeeping for one connected worker."""

    __slots__ = ("id", "writer", "alive", "error", "hello")

    def __init__(self, shard_id: int, writer: asyncio.StreamWriter, hello: wire.Message) -> None:
        self.id = shard_id
        self.writer = writer
        self.alive = True
        self.error: str | None = None
        self.hello = hello


class ProcessCluster:
    """N shard worker processes behind one asyncio front door.

    The public methods are synchronous and thread-safe: each marshals
    onto the front door's event loop and blocks for the result, so the
    cluster drops into code written for the in-process
    :class:`~repro.net.cluster.Cluster` (``call`` raises
    :class:`~repro.errors.TrapError` on a remote fault and
    :class:`~repro.errors.LostRequest` on retry exhaustion; ``meters``
    returns the same per-shard shape).  Workers run on the JIT by
    default, as a ``Cluster``'s shards do: the constructor compiles the
    sources, links one image and verifies it once before it forks
    anything (:func:`~repro.net.worker.worker_specs`), so an image with
    verifier findings raises :class:`~repro.jit.JitRefusal` with no
    worker started, and each worker installs the JIT from the image's
    facts.  ``engine="interp"`` serves the same image on the
    interpreter.  ``stats`` and ``policy`` are the front door's
    transport's.
    """

    def __init__(
        self,
        sources: list[str],
        shards: int = 2,
        config: MachineConfig | str | None = None,
        entry: tuple[str, str] = ("Main", "main"),
        pins: dict[str, int] | None = None,
        record: bool = False,
        timeout_s: float = 1.0,
        fault_plan: FaultPlan | None = None,
        tick_seconds: float = DEFAULT_TICK_SECONDS,
        self_homed: bool = False,
        engine: str = "jit",
    ) -> None:
        if shards < 1:
            raise NetError(f"a cluster needs at least one shard, got {shards}")
        if isinstance(config, str):
            config = MachineConfig.preset(config)
        self.config = config or MachineConfig.i2()
        self.shards = shards
        self.placement = Placement(list(range(shards)), pins=pins)
        self.timeout_s = timeout_s
        # The front door must outwait a worker's own full retry cycle
        # (its sub-calls may be riding out chaos), so its per-attempt
        # patience is the worker's whole transmission budget.
        self.root_timeout_s = timeout_s * (2 + DEFAULT_MAX_RETRIES)
        self.tick_seconds = tick_seconds
        # Build before the listener and the fork: JitRefusal leaves
        # nothing to tear down.
        specs = worker_specs(
            sources,
            shards,
            self.config,
            entry,
            engine,
            pins=pins,
            record=record,
            timeout_s=timeout_s,
            self_homed=self_homed,
        )
        self.transport = InProcessTransport(
            NetFaultPolicy(fault_plan) if fault_plan is not None else None
        )
        self.stats = self.transport.stats
        self.policy = self.transport.policy
        self.worker_errors: list[str] = []

        self._handles: dict[int, _WorkerHandle] = {}
        self._pending: dict[int, asyncio.Future] = {}
        self._ctl_pending: dict[tuple[int, int], asyncio.Future] = {}
        self._next_request = 0
        self._next_ctl = 0
        self._ticking = False
        self._closed = False

        # Listener first: bound and listening before any worker forks,
        # so worker connects land in the backlog even while the loop
        # thread is still coming up.
        self._tempdir: str | None = None
        try:
            self._tempdir = tempfile.mkdtemp(prefix="repro-net-")
            path = os.path.join(self._tempdir, "front.sock")
            lsock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            lsock.bind(path)
            self.address: tuple = ("unix", path)
        except (AttributeError, OSError):  # pragma: no cover - no AF_UNIX
            lsock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            lsock.bind(("127.0.0.1", 0))
            host, port = lsock.getsockname()
            self.address = ("tcp", host, port)
        lsock.listen(shards + 4)
        self._lsock = lsock

        # Workers fork before the asyncio loop thread exists: forking a
        # process that already runs threads is where fork goes wrong.
        # Each worker gets its own copy of the image in its spec: fork
        # copies this process, spawn pickles the spec.
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self._procs: list = []
        for spec in specs:
            proc = context.Process(
                target=run_worker, args=(self.address, spec), daemon=True
            )
            proc.start()
            self._procs.append(proc)

        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-front-door", daemon=True
        )
        self._thread.start()
        try:
            self._run(self._start(), timeout=STARTUP_TIMEOUT + 5)
        except BaseException:
            self.close()
            raise

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> ProcessCluster:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _run(self, coro, timeout: float | None = None):
        """Run a coroutine on the front-door loop from the caller thread."""
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(timeout)

    async def _start(self) -> None:
        self._ready: asyncio.Future = self._loop.create_future()
        if self.address[0] == "unix":
            self._server = await asyncio.start_unix_server(
                self._handle_connection, sock=self._lsock
            )
        else:  # pragma: no cover - AF_UNIX always available on CI
            self._server = await asyncio.start_server(
                self._handle_connection, sock=self._lsock
            )
        deadline = time.monotonic() + STARTUP_TIMEOUT
        while True:
            # Returns the moment the last hello lands; in between, a
            # worker that exited before greeting fails the start now.
            done, _ = await asyncio.wait((self._ready,), timeout=STARTUP_POLL_SECONDS)
            if done:
                break
            for shard_id, proc in enumerate(self._procs):
                if shard_id not in self._handles and proc.exitcode is not None:
                    raise NetError(
                        f"worker {shard_id} exited with code {proc.exitcode} "
                        "before its hello" + self._error_note()
                    )
            if time.monotonic() >= deadline:
                missing = sorted(set(range(self.shards)) - set(self._handles))
                raise NetError(
                    f"worker(s) {missing} never completed the handshake"
                    + self._error_note()
                )
        self._ready.result()

    def _error_note(self) -> str:
        if not self.worker_errors:
            return ""
        return f"; worker errors: {'; '.join(self.worker_errors)}"

    def close(self) -> None:
        """Shut the workers down cleanly, then tear the loop down."""
        if self._closed:
            return
        self._closed = True

        async def _shutdown() -> None:
            for handle in list(self._handles.values()):
                if handle.alive:
                    try:
                        await self._control(handle.id, "shutdown", timeout=5.0)
                    except (NetError, asyncio.TimeoutError):
                        pass
                try:
                    handle.writer.close()
                except Exception:  # pragma: no cover - already torn down
                    pass
            server = getattr(self, "_server", None)
            if server is not None:
                server.close()

        if self._thread.is_alive():
            try:
                self._run(_shutdown(), timeout=15)
            except Exception:  # pragma: no cover - best-effort teardown
                pass
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - wedged worker
                proc.terminate()
                proc.join(timeout=2)
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=5)
        if not self._thread.is_alive():
            self._loop.close()
        try:
            self._lsock.close()
        except OSError:  # pragma: no cover
            pass
        if self._tempdir is not None:
            try:
                os.unlink(os.path.join(self._tempdir, "front.sock"))
            except OSError:
                pass
            try:
                os.rmdir(self._tempdir)
            except OSError:  # pragma: no cover
                pass

    # -- connection handling (loop thread) ---------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        framer = FrameBuffer()
        shard_id: int | None = None
        try:
            while True:
                chunk = await reader.read(RECV_BYTES)
                if not chunk:
                    framer.finish()  # raises on a partial frame: data loss
                    break
                for line in framer.feed(chunk):
                    doc = json.loads(line)
                    schema = doc.get("schema") if isinstance(doc, dict) else None
                    if schema == wire.WIRE_SCHEMA:
                        message = wire.decode_doc(doc, text=line)
                        if shard_id is None:
                            shard_id = self._register(message, writer)
                            continue
                        self._send(message)
                    elif schema == ctl.CTL_SCHEMA:
                        self._control_frame(ctl.decode_doc(doc))
                    else:
                        raise WireError(f"unroutable frame schema {schema!r}")
        except (TruncatedFrameError, WireError, NetError, json.JSONDecodeError) as fault:
            self._note_error(shard_id, str(fault))
        except ConnectionError:  # pragma: no cover - peer reset
            pass
        finally:
            if shard_id is not None:
                self._mark_dead(shard_id)
            writer.close()

    def _register(self, message: wire.Message, writer: asyncio.StreamWriter) -> int:
        if message.kind != "hello":
            raise NetError(
                f"worker connection must open with hello, got {message.kind!r}"
            )
        shard_id = message.src
        if shard_id in self._handles:
            raise NetError(f"worker {shard_id} connected twice")
        self._handles[shard_id] = _WorkerHandle(shard_id, writer, message)
        if len(self._handles) == self.shards and not self._ready.done():
            try:
                check_census({h.id: h.hello for h in self._handles.values()})
            except NetError as fault:
                self._ready.set_exception(fault)
                return shard_id
            self._ready.set_result(None)
        return shard_id

    def _note_error(self, shard_id: int | None, detail: str) -> None:
        label = f"worker {shard_id}" if shard_id is not None else "worker"
        self.worker_errors.append(f"{label}: {detail}")
        if shard_id is not None:
            handle = self._handles.get(shard_id)
            if handle is not None and handle.error is None:
                handle.error = detail

    def _mark_dead(self, shard_id: int) -> None:
        handle = self._handles.get(shard_id)
        if handle is None:
            return
        handle.alive = False
        # Control futures for a dead worker can never resolve; wire
        # futures are left to the retry discipline (-> LostRequest).
        for key in [k for k in self._ctl_pending if k[0] == shard_id]:
            future = self._ctl_pending.pop(key)
            if not future.done():
                future.set_exception(NetError(
                    f"worker {shard_id} died"
                    + (f": {handle.error}" if handle.error else "")
                ))

    def _control_frame(self, record: ctl.Control) -> None:
        if record.kind == "worker_error":
            self._note_error(record.shard, record.body["error"])
            if not self._ready.done():
                self._ready.set_exception(NetError(self.worker_errors[-1]))
            return
        future = self._ctl_pending.get((record.shard, record.seq))
        if future is not None and not future.done():
            future.set_result(record)

    # -- routing (loop thread) ---------------------------------------------

    def _send(self, message: wire.Message) -> None:
        """One ``net.send`` into the transport; write out what it releases."""
        transport = self.transport
        transport.send(message)
        self._flush(message.dst)
        # Only a fault plan delays a frame or holds it behind a partition.
        if self.policy is not None and not self._ticking and transport.pending():
            self._ticking = True
            self._loop.call_later(self.tick_seconds, self._tick)

    def _tick(self) -> None:
        """One transport tick: delays age, partitions heal."""
        transport = self.transport
        transport.tick()
        for dst in (FRONT_DOOR, *self._handles):
            self._flush(dst)
        if transport.pending():
            self._loop.call_later(self.tick_seconds, self._tick)
        else:
            self._ticking = False

    def _flush(self, dst: int) -> None:
        """Write out (or resolve) what the transport releases for *dst*."""
        messages = self.transport.poll(dst)
        if not messages:
            return
        if dst == FRONT_DOOR:
            for message in messages:
                self._resolve(message)
            return
        handle = self._handles.get(dst)
        if handle is None or not handle.alive:
            # A dead shard is a blackhole; the sender's retry discipline
            # turns this into a clean lost_request, never a hang.
            self.stats.delivered -= len(messages)
            self.stats.dropped += len(messages)
            return
        handle.writer.write(b"".join(encode_frame(m.encode()) for m in messages))

    def _resolve(self, message: wire.Message) -> None:
        future = self._pending.get(message.body["id"])
        if future is not None and not future.done():
            future.set_result(message)

    # -- requests ----------------------------------------------------------

    async def call_async(
        self, shard: int, module: str, proc: str, args: tuple[int, ...]
    ) -> list[int]:
        """Submit one root request to *shard* and await its results.

        At-most-once end to end: every transmission reuses the same
        request id, so the worker's (src, id) dedup either ignores the
        duplicate (still executing) or resends the byte-identical
        cached reply.  After ``1 + DEFAULT_MAX_RETRIES`` transmissions
        without an answer the request is abandoned with
        :class:`~repro.errors.LostRequest`.
        """
        request_id = self._next_request
        self._next_request += 1
        span = f"{FRONT_DOOR}:{request_id}"
        message = wire.call(
            FRONT_DOOR, shard, request_id, span, None, module, proc, list(args)
        )
        future = self._loop.create_future()
        self._pending[request_id] = future
        try:
            for _ in range(1 + DEFAULT_MAX_RETRIES):
                self._send(message)
                try:
                    reply = await asyncio.wait_for(
                        asyncio.shield(future), self.root_timeout_s
                    )
                except asyncio.TimeoutError:
                    continue
                if reply.kind == "reply":
                    return list(reply.body["results"])
                body = reply.body
                raise TrapError(
                    body["trap"],
                    detail=f"remote fault on shard {reply.src}: {body['detail']}",
                    pc=body["pc"],
                    proc=body["proc"],
                )
            raise LostRequest(
                request_id, 1 + DEFAULT_MAX_RETRIES, f"{module}.{proc}"
            )
        finally:
            self._pending.pop(request_id, None)

    def call_on(self, shard: int, module: str, proc: str, *args: int) -> list[int]:
        """Synchronous ``call_async`` against an explicit worker."""
        return self._run(self.call_async(shard, module, proc, tuple(args)))

    def call(self, module: str, proc: str, *args: int) -> list[int]:
        """Submit to the module's home worker; return (or raise) results."""
        return self.call_on(self.placement.home(module), module, proc, *args)

    # -- the control plane -------------------------------------------------

    async def _control(
        self, shard: int, kind: str, body: dict | None = None, timeout: float = 30.0
    ) -> ctl.Control:
        handle = self._handles.get(shard)
        if handle is None or not handle.alive:
            raise NetError(
                f"no live worker for shard {shard}"
                + (f" (last error: {handle.error})" if handle and handle.error else "")
            )
        seq = self._next_ctl
        self._next_ctl += 1
        record = ctl.Control(kind=kind, shard=shard, seq=seq, body=body or {})
        future = self._loop.create_future()
        self._ctl_pending[(shard, seq)] = future
        try:
            handle.writer.write(encode_frame(record.encode()))
            return await asyncio.wait_for(asyncio.shield(future), timeout)
        except asyncio.TimeoutError:
            raise NetError(
                f"worker {shard} did not answer {kind!r} within {timeout}s"
            ) from None
        finally:
            self._ctl_pending.pop((shard, seq), None)

    def _broadcast(self, kind: str, body: dict | None = None) -> dict[int, dict]:
        """One control verb on every worker; the reply bodies by shard."""

        async def gather() -> list[ctl.Control]:
            return await asyncio.gather(
                *[self._control(shard, kind, body) for shard in sorted(self._handles)]
            )

        return {reply.shard: reply.body for reply in self._run(gather())}

    def meters(self) -> dict[int, dict]:
        """Per-shard modelled meters — the same shape as ``Cluster.meters()``."""
        return {shard: body["meters"] for shard, body in self._broadcast("meters").items()}

    def trace_events(self) -> dict[int, list]:
        """Per-shard recorded events (requires ``record=True``), as
        :class:`~repro.obs.events.TraceEvent` so the stitcher can run
        unchanged over process-backed shards."""
        from repro.obs.events import TraceEvent

        return {
            shard: [TraceEvent(**doc) for doc in body["events"]]
            for shard, body in self._broadcast("events").items()
        }

    def snapshot(self, shard: int) -> dict:
        """A ``repro-snapshot/3`` document of one worker's machine."""
        return self._run(self._control(shard, "snapshot")).body["state"]

    def restore(self, shard: int, state: dict) -> None:
        """Restore a ``repro-snapshot/3`` document into one worker; a
        refused one raises :class:`~repro.errors.NetError` with the
        reason, and the worker serves on, its machine unchanged."""
        body = self._run(self._control(shard, "restore", {"state": state})).body
        if "error" in body:
            raise NetError(f"worker {shard} refused restore: {body['error']}")

    def status(self, shard: int) -> list[dict]:
        """One worker's process table: a process record per process
        (:func:`repro.faults.snapshot.process_record`, every field but
        the frame)."""
        return self._run(self._control(shard, "status")).body["processes"]

    # -- migration ---------------------------------------------------------

    def migrate(self, src: int, pid: int, dst: int, mode: str = "exclusive") -> int:
        """Move process *pid* from worker *src* to worker *dst*; return
        the adopted pid.

        :func:`repro.net.migrate.move` drives it over control round trips,
        so a refusal raises :class:`~repro.net.migrate.MigrateError` in
        the in-process cluster's words, and a live target that misses the
        control timeout leaves the process held on the source.
        """
        return move(self._ask, src, pid, dst, mode)

    def _ask(self, shard: int, kind: str, body: dict) -> dict:
        """One control round trip; a dead or unknown worker refuses, and
        a live one that does not answer in time raises."""
        handle = self._handles.get(shard)
        if handle is None:
            return no_such_shard(shard)
        try:
            return self._run(self._control(shard, kind, body)).body
        except NetError as fault:
            if handle.alive:
                raise
            return {"error": str(fault)}


# ---------------------------------------------------------------------------
# The serving layer
# ---------------------------------------------------------------------------


#: The leaf procedure ``Main.dispatch`` calls for each op; ops 0 and 1
#: take one argument, ops 2 and 3 two.
LEAVES = (("Fib", "fib"), ("Gauss", "sum"), ("Gcd", "gcd"), ("Pow", "power"))


class ProcessServer:
    """The admission engine over a :class:`ProcessCluster`, clocked in ms.

    Each admitted request is an asyncio task awaiting
    :meth:`ProcessCluster.call_async`.  A round runs at the start, after
    a completion, when a backoff comes due, or right after a round whose
    batch ran out with requests still admissible — so rounds, and the
    stalls counted per round, match the in-process server's for the same
    schedule.  A failed request is resubmitted at most twice, the first
    time after :data:`BACKOFF_MS`; the ``net.*`` metrics land in
    :attr:`metrics`.
    """

    def __init__(
        self,
        cluster: ProcessCluster,
        route: str = "direct",
        queue_capacity: int = 8,
        batch_size: int = 4,
    ) -> None:
        if route not in ("direct", "dispatch"):
            raise NetError(f"unknown route {route!r} (direct or dispatch)")
        self.policy = Policy(queue_capacity, batch_size, backoff_base=BACKOFF_MS)
        self.cluster = cluster
        self.route = route
        self.metrics = MetricsRegistry()

    def _shard(self, request: Request) -> int:
        if self.route == "dispatch":
            return self.cluster.placement.home("Main")
        return request.index % self.cluster.shards

    def _call(self, request: Request) -> tuple[str, str, tuple[int, ...]]:
        """What the front door sends: the dispatcher, or its leaf."""
        if self.route == "dispatch":
            return "Main", "dispatch", (request.op, request.a, request.b)
        module, proc = LEAVES[request.op]
        return module, proc, (request.a,) if request.op < 2 else (request.a, request.b)

    def serve(self, workload: list[Request]) -> ServeReport:
        """Run the whole workload to completion and report."""
        return self.cluster._run(self._serve(workload))

    async def _serve(self, workload: list[Request]) -> ServeReport:
        cluster = self.cluster
        engine = Admission(
            workload,
            range(cluster.shards),
            self._shard,
            self.policy,
            self.metrics,
            unit="ms",
        )
        wake = asyncio.Event()
        errors: list[Exception] = []

        def now_ms() -> float:
            return time.monotonic() * 1000

        async def run_one(index: int, request: Request, shard: int) -> None:
            module, proc, args = self._call(request)
            try:
                results = await cluster.call_async(shard, module, proc, args)
            except (LostRequest, TrapError):
                results = None
            except Exception as fault:  # not a request failure: stop serving
                errors.append(fault)
                wake.set()
                return
            engine.finish(index, results, now_ms())
            wake.set()

        def submit(index: int, request: Request, shard: int) -> asyncio.Task:
            return asyncio.ensure_future(run_one(index, request, shard))

        started = time.monotonic()
        while True:
            more = engine.admit(now_ms(), submit)
            if engine.idle:
                break
            wake.clear()
            if more:
                await asyncio.sleep(0)
                continue
            due = engine.next_due
            timeout = None if due is None else max(0.0, (due - now_ms()) / 1000)
            try:
                await asyncio.wait_for(wake.wait(), timeout)
            except asyncio.TimeoutError:
                pass
            if errors:
                # Stop serving: cancel every admitted request still in
                # flight, and let each finish, before the error leaves.
                live = [task for task, _, _ in engine.live.values()]
                for task in live:
                    task.cancel()
                await asyncio.gather(*live, return_exceptions=True)
                raise errors[0]

        report = engine.report
        report.route = self.route
        report.elapsed_s = time.monotonic() - started
        report.wire = cluster.stats.as_dict()
        report.wire_words = cluster.stats.wire_words
        return report


def run_process_serve(
    shards: int = 4,
    requests: int = 1000,
    seed: int = 7,
    config: str = "i2",
    route: str = "direct",
    queue_capacity: int = 8,
    batch_size: int = 4,
    record: bool = False,
    fault_plan: FaultPlan | None = None,
) -> tuple[ServeReport, dict[int, dict]]:
    """Build a process-mode service cluster, run a seeded workload, and
    return (report, per-shard meters).  The cluster is torn down before
    returning."""
    cluster = ProcessCluster(
        list(SERVICE_SOURCES),
        shards=shards,
        config=config,
        record=record,
        fault_plan=fault_plan,
        self_homed=(route == "direct"),
    )
    try:
        server = ProcessServer(
            cluster,
            route=route,
            queue_capacity=queue_capacity,
            batch_size=batch_size,
        )
        return server.serve(generate_workload(seed, requests)), cluster.meters()
    finally:
        cluster.close()
