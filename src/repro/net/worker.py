"""One shard as an operating-system process.

This module is the body of a worker spawned by the
:class:`~repro.net.procserve.ProcessCluster`.  The cluster builds once,
before the fork (:func:`worker_specs`): it compiles the sources, links
**one image** and, on the JIT, verifies it once.  Each worker's spec
carries that image and its ``repro-facts/1`` document; the worker builds
an ordinary :class:`~repro.net.shard.Shard` over its own copy of the
image (fork copies the parent, the ``spawn`` fallback unpickles the
spec), installs the JIT from the facts without verifying again, connects
back to the asyncio front door — whose hello handshake checks that every
worker holds the same image — and pumps a small synchronous loop:

1. read framed records off the socket (:class:`~repro.net.frame.
   FrameBuffer` reassembles frames split across ``recv`` chunks and
   refuses truncated ones);
2. dispatch each by schema — ``repro-wire/1`` records go to the
   shard's ordinary ``deliver`` path (calls spawn root activations,
   replies unblock callers, dedup and the reply cache work untouched),
   ``repro-ctl/1`` records are management (meters, trace events,
   snapshot/restore, status, migration, shutdown);
3. run whatever is runnable (``shard.step``), retry overdue remote
   calls, and flush the outbox back to the front door, which routes
   shard-to-shard records to their destination worker.

The tick domain is the only thing that changes between the in-process
pump and a worker: the cooperative pump counts rounds, a worker counts
``time.monotonic()`` seconds.  ``Shard.retry`` only ever compares
differences against a timeout, so the same stub/skeleton code runs in
both worlds — and the modelled meters cannot tell them apart, which is
the conformance claim process mode inherits.

A worker that dies on an unexpected exception sends a ``worker_error``
control record (best effort) before exiting non-zero, so the front
door can report *why* a shard vanished instead of just seeing EOF.
"""

from __future__ import annotations

import json
import socket
import time

from repro.errors import NetError, ReproError
from repro.interp.machine import Machine
from repro.interp.machineconfig import MachineConfig
from repro.net import ctl, wire
from repro.net.cluster import DEFAULT_MAX_RETRIES
from repro.net.frame import RECV_BYTES, FrameBuffer, encode_frame
from repro.net.placement import Placement
from repro.net.shard import Shard

#: The front door's pseudo-shard id: root submissions arrive as wire
#: ``call`` records from this source, and replies route back to it.
FRONT_DOOR = -1

#: Seconds a worker blocks in ``recv`` before re-checking timers.
POLL_SECONDS = 0.02

#: Seconds a worker keeps retrying its initial connect (the front door
#: may still be binding its listener when the process starts).
CONNECT_WINDOW = 10.0


def worker_specs(
    sources: list[str],
    shards: int = 2,
    config: MachineConfig | None = None,
    entry: tuple[str, str] = ("Main", "main"),
    engine: str = "jit",
    pins: dict[str, int] | None = None,
    record: bool = False,
    timeout_s: float = 1.0,
    self_homed: bool = False,
) -> list[dict]:
    """The spec of each of *shards* workers, from one build.

    Compiles *sources* and links one image; ``engine="jit"`` verifies it
    once (:func:`repro.jit.verified_facts`), so an image with verifier
    findings raises :class:`~repro.jit.JitRefusal` here, and ``"interp"``
    verifies nothing.  Every spec holds the same image object and its
    facts (None on the interpreter): a worker must get its own copy,
    which both start methods give it — fork copies the parent's memory,
    spawn unpickles the spec.

    A self-homed worker homes every module on itself, so it cannot
    honour a pin map: *pins* with *self_homed* raise
    :class:`~repro.errors.NetError` before anything is built.
    """
    if pins and self_homed:
        raise NetError(
            "a self-homed worker homes every module on itself and would "
            "drop the pin map; pin modules on the dispatch route instead"
        )
    from repro.lang.compiler import CompileOptions, compile_program
    from repro.lang.linker import link

    config = config or MachineConfig.i2()
    modules = compile_program(list(sources), CompileOptions.for_config(config))
    image = link(modules, config, tuple(entry))
    facts = None
    if engine == "jit":
        from repro.jit import verified_facts

        facts = verified_facts(image)
    return [
        {
            "shard_id": shard_id,
            "shards": shards,
            "image": image,
            "facts": facts,
            "pins": dict(pins) if pins else None,
            "record": record,
            "timeout_s": timeout_s,
            "self_homed": self_homed,
        }
        for shard_id in range(shards)
    ]


def build_shard_machine(image, facts: dict | None = None) -> Machine:
    """A worker's shard machine over its copy of the cluster's image.

    With *facts* the JIT installs from them: ``install_jit`` checks the
    image fingerprint and verifies nothing.  Without, the interpreter.
    """
    machine = Machine(image)
    if facts is not None:
        from repro.jit import install_jit

        install_jit(machine, facts)
    return machine


def connect(address: tuple) -> socket.socket:
    """Dial the front door: ``("unix", path)`` or ``("tcp", host, port)``."""
    deadline = time.monotonic() + CONNECT_WINDOW
    while True:
        try:
            if address[0] == "unix":
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.connect(address[1])
            else:
                sock = socket.create_connection((address[1], address[2]))
            return sock
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.05)


class Worker:
    """The synchronous pump around one shard (testable without a fork)."""

    def __init__(self, sock: socket.socket, spec: dict) -> None:
        """*spec* is one of :func:`worker_specs`'s."""
        self.sock = sock
        self.spec = spec
        self.id = spec["shard_id"]
        self.timeout_s = spec["timeout_s"]
        if spec["self_homed"]:
            # Every module homed here: the stub never diverts (so the
            # JIT builds cells for cross-module calls too), and each
            # root activation runs start-to-finish locally.  This is the
            # embarrassingly-parallel serving route ("direct"), where
            # the front door spreads whole requests across workers
            # instead of splitting one request across them.
            placement = Placement([self.id])
        else:
            placement = Placement(list(range(spec["shards"])), pins=spec["pins"])
        self.shard = Shard(
            self.id,
            build_shard_machine(spec["image"], spec["facts"]),
            placement,
            record=spec["record"],
        )
        self._framer = FrameBuffer()
        self._running = True

    # -- frame IO ----------------------------------------------------------

    def _send_text(self, text: str) -> None:
        self.sock.sendall(encode_frame(text))

    def _flush_outbox(self) -> None:
        messages = self.shard.drain_outbox()
        if messages:
            # One syscall for the whole batch: the front door's framer
            # splits them back apart regardless of packetization.
            self.sock.sendall(
                b"".join(encode_frame(m.encode()) for m in messages)
            )

    # -- dispatch ----------------------------------------------------------

    def _dispatch(self, frame: str) -> None:
        doc = json.loads(frame)
        schema = doc.get("schema") if isinstance(doc, dict) else None
        if schema == wire.WIRE_SCHEMA:
            self.shard.deliver([wire.decode_doc(doc, text=frame)])
        elif schema == ctl.CTL_SCHEMA:
            self._control(ctl.decode_doc(doc))
        else:
            raise ReproError(f"worker {self.id}: unroutable frame schema {schema!r}")

    def _control(self, record: ctl.Control) -> None:
        if record.kind == "meters":
            reply = record.reply("meters_reply", {"meters": self.shard.meters()})
        elif record.kind == "events":
            events = []
            if self.shard.recorder is not None:
                events = [event.as_dict() for event in self.shard.recorder.events]
            reply = record.reply("events_reply", {"events": events})
        elif record.kind == "snapshot":
            from repro.faults.snapshot import capture

            state = capture(self.shard.machine, self.shard.scheduler)
            reply = record.reply("snapshot_reply", {"state": state})
        elif record.kind == "restore":
            from repro.faults.snapshot import restore

            restore(self.shard.machine, record.body["state"], self.shard.scheduler)
            reply = record.reply("restore_reply")
        elif record.kind == "status":
            reply = record.reply("status_reply", {"processes": self.status()})
        elif record.kind == "extract":
            reply = record.reply("extract_reply", self._extract(record.body))
        elif record.kind == "adopt":
            reply = record.reply("adopt_reply", self._adopt(record.body))
        elif record.kind == "settle":
            from repro.net.migrate import settle

            body = record.body
            settle(self.shard, body["pid"], body["adopted"], now=time.monotonic())
            reply = record.reply("settle_reply")
        elif record.kind == "shutdown":
            self._running = False
            reply = record.reply("shutdown_reply")
        else:
            raise ReproError(
                f"worker {self.id}: unexpected control kind {record.kind!r}"
            )
        self._send_text(reply.encode())

    def _extract(self, body: dict) -> dict:
        """Slice a process out for migration (``extract`` control).

        A refusal — the pid is gone, the reply already landed and the
        process completed, the mode does not fit this preset — answers
        with a null slice and a diagnostic instead of killing the
        worker: migration is advisory, the data plane must survive it.
        """
        from repro.net.migrate import MigrateError, extract

        pid = body["pid"]
        target = None
        for process in self.shard.scheduler.processes:
            if process.pid == pid:
                target = process
                break
        if target is None:
            return {"slice": None, "error": f"no process with pid {pid}"}
        try:
            slice_ = extract(self.shard, target, body["dst"], mode=body["mode"])
        except MigrateError as refusal:
            return {"slice": None, "error": str(refusal)}
        return {"slice": slice_}

    def _adopt(self, body: dict) -> dict:
        """Install a migrated slice (``adopt`` control)."""
        from repro.net.migrate import MigrateError, adopt

        try:
            process = adopt(self.shard, body["slice"], now=time.monotonic())
        except MigrateError as refusal:
            return {"pid": None, "error": str(refusal)}
        return {"pid": process.pid}

    def status(self) -> list[dict]:
        """The process table as process records (the ``status`` control
        reply)."""
        from repro.faults.snapshot import process_record

        return [process_record(p) for p in self.shard.scheduler.processes]

    # -- the pump ----------------------------------------------------------

    def pump_once(self) -> None:
        """Run until locally idle, age retries, flush the outbox."""
        now = time.monotonic()
        while self.shard.step(now):
            pass
        if self.shard.awaiting:
            self.shard.retry(time.monotonic(), self.timeout_s, DEFAULT_MAX_RETRIES)
        self._flush_outbox()

    def run(self) -> None:
        """The worker loop: greet, then read/dispatch/pump until EOF."""
        self._send_text(
            wire.hello(
                self.id, FRONT_DOOR, self.shard.machine.config, self.shard.modules()
            ).encode()
        )
        self.sock.settimeout(POLL_SECONDS)
        while self._running:
            try:
                chunk = self.sock.recv(RECV_BYTES)
            except TimeoutError:
                chunk = None
            except OSError:
                break
            if chunk == b"":
                # EOF: a partial frame buffered here is data loss — let
                # FrameBuffer.finish raise rather than exit clean.
                self._framer.finish()
                break
            if chunk:
                for frame in self._framer.feed(chunk):
                    self._dispatch(frame)
            self.pump_once()


def run_worker(address: tuple, spec: dict) -> None:
    """Process entry point: build the shard, serve until shutdown/EOF."""
    sock = connect(address)
    try:
        Worker(sock, spec).run()
    except Exception as fault:  # surface the diagnostic, then die loudly
        try:
            record = ctl.Control(
                kind="worker_error",
                shard=spec.get("shard_id", -1),
                body={"error": f"{type(fault).__name__}: {fault}"},
            )
            sock.sendall(encode_frame(record.encode()))
        except OSError:
            pass
        raise
    finally:
        sock.close()
