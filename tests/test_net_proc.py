"""Process mode: real OS workers behind the asyncio front door.

The conformance bar the tentpole must clear: promoting shards from a
cooperative in-process pump to real processes over real sockets changes
**nothing the model can observe** —

* per-activation modelled meters stay bit-identical to a local replay
  (wire cost lives on transport meters only);
* under an identical (sequential) admission schedule, aggregate
  per-shard meters are bit-identical to the in-process serving layer;
* ``repro-snapshot/3`` round-trips a BLOCKED-on-remote process into a
  live OS worker, which finishes it;
* dedup still answers duplicates with byte-identical cached replies.
"""

import asyncio
import json
import os
import socket
import time

import pytest

from repro.interp.machineconfig import MachineConfig
from repro.interp.processes import Scheduler
from repro.net import wire
from repro.net.cluster import Cluster, build_shard_machine
from repro.net.procserve import (
    FRONT_DOOR,
    ProcessCluster,
    ProcessServer,
    run_process_serve,
)
from repro.net.serve import SERVICE_SOURCES, Server, generate_workload
from repro.net.stitch import stitch
from repro.net.worker import Worker, worker_specs
from repro.workloads.programs import program
from tests.conftest import ALL_PRESETS, served_activations

MATHLIB = program("mathlib")
PINS = {"Main": 0, "Math": 1}


# ---------------------------------------------------------------------------
# Serving: zero lost, zero wrong, on both routes
# ---------------------------------------------------------------------------


def test_process_serve_direct_route_zero_lost_zero_wrong():
    report, meters = run_process_serve(shards=2, requests=40, seed=7)
    assert report.completed == 40
    assert report.lost == 0
    assert report.wrong == 0
    assert report.route == "direct"
    assert report.unit == "ms"
    assert len(report.latencies) == 40
    assert sorted(meters) == [0, 1]
    doc = json.loads(json.dumps(report.to_dict()))  # CI artifact shape
    assert doc["p99_ms"] >= doc["p50_ms"] >= 0
    assert doc["requests_per_s"] > 0


def test_process_serve_dispatch_route_zero_lost_zero_wrong():
    """The conformance route: roots enter Main.dispatch on its home
    shard and fan out over worker-to-worker Remote XFER."""
    report, meters = run_process_serve(
        shards=2, requests=20, seed=3, route="dispatch"
    )
    assert report.completed == 20
    assert report.lost == 0
    assert report.wrong == 0
    # Remote XFER really crossed processes: both workers burned cycles.
    assert all(meters[s]["counter"]["cycles"] > 0 for s in (0, 1))


# ---------------------------------------------------------------------------
# Meter conformance against the in-process serving layer
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine", ["interp", "jit"])
def test_sequential_admission_meters_match_in_process_bit_for_bit(engine):
    """Aggregate per-shard meters depend on the admission schedule (heap
    pressure from simultaneously-live roots moves allocator traps), so
    the bit-identity claim is checked where the schedules coincide:
    strictly sequential admission, one request in flight at a time.
    Workers on either engine match the in-process interpreter."""
    workload = generate_workload(7, 12)

    reference = Cluster(list(SERVICE_SOURCES), shards=2, config="i2")
    Server(reference, queue_capacity=1, batch_size=1).serve(list(workload))

    cluster = ProcessCluster(
        list(SERVICE_SOURCES), shards=2, config="i2", engine=engine
    )
    try:
        report = ProcessServer(
            cluster, route="dispatch", queue_capacity=1, batch_size=1
        ).serve(list(workload))
        assert report.lost == 0 and report.wrong == 0
        process_meters = cluster.meters()
    finally:
        cluster.close()

    assert process_meters == reference.meters()


def test_process_mode_counts_stalls_like_in_process_mode():
    """A stall is one (round, shard) pair whose shard is full with due
    requests waiting; with one request in flight at a time both modes
    run the same rounds, so they count the same stalls."""
    workload = generate_workload(7, 12)
    reference = Server(
        Cluster(list(SERVICE_SOURCES), shards=2, config="i2"),
        queue_capacity=1,
        batch_size=1,
    ).serve(list(workload))

    cluster = ProcessCluster(list(SERVICE_SOURCES), shards=2, config="i2")
    try:
        report = ProcessServer(
            cluster, route="dispatch", queue_capacity=1, batch_size=1
        ).serve(list(workload))
    finally:
        cluster.close()
    assert report.lost == 0 and report.wrong == 0
    assert report.backpressure_stalls == reference.backpressure_stalls == 11


def test_process_server_publishes_the_net_metrics():
    cluster = ProcessCluster(
        list(SERVICE_SOURCES), shards=2, config="i2", self_homed=True
    )
    try:
        server = ProcessServer(cluster, queue_capacity=2, batch_size=4)
        report = server.serve(generate_workload(7, 20))
    finally:
        cluster.close()
    assert report.completed == 20 and report.lost == 0
    snapshot = server.metrics.snapshot()
    counters = snapshot["counters"]
    assert counters["net.admitted"] == 20 + report.retried
    assert counters["net.retries"] == report.retried
    # The first round fills both workers (2 + 2) with 16 requests due.
    assert counters["net.backpressure_stalls"] == report.backpressure_stalls >= 2
    assert snapshot["gauges"]["net.admission_queue_depth"] == 0
    assert snapshot["histograms"]["net.latency_ms"]["count"] == report.completed


def test_a_serve_stopped_by_an_error_leaves_no_request_running(monkeypatch):
    """A failure that is not a request's own (here the third submission
    raises) stops ``serve``; the requests admitted beside it are
    cancelled and awaited first, so no ``run_one`` task is left pending
    on the front door's loop, and the cluster answers a fresh call."""
    cluster = ProcessCluster(
        list(SERVICE_SOURCES), shards=2, config="i2", self_homed=True
    )
    try:
        call_async = ProcessCluster.call_async
        submitted = []

        async def failing(self, shard, module, proc, args):
            submitted.append(None)
            if len(submitted) == 3:
                raise RuntimeError("front door fault")
            return await call_async(self, shard, module, proc, args)

        monkeypatch.setattr(ProcessCluster, "call_async", failing)
        with pytest.raises(RuntimeError, match="front door fault"):
            ProcessServer(cluster).serve(generate_workload(7, 40))
        monkeypatch.setattr(ProcessCluster, "call_async", call_async)

        async def pending() -> list[str]:
            return [
                task.get_coro().__qualname__
                for task in asyncio.all_tasks()
                if not task.done()
            ]

        assert not [name for name in cluster._run(pending()) if "run_one" in name]
        assert cluster.call_on(0, "Gcd", "gcd", 12, 18) == [6]
    finally:
        cluster.close()


@pytest.mark.parametrize("preset", ALL_PRESETS)
def test_per_activation_meters_match_local_replay_through_processes(preset):
    """Every activation served by a remote OS worker costs exactly what
    the same activation costs on a fresh local machine — stitched from
    the workers' own trace events.  On all four presets: the acceptance
    bar for process mode."""
    cluster = ProcessCluster(
        list(MATHLIB.sources), shards=2, config=preset, pins=PINS, record=True
    )
    try:
        assert cluster.call("Main", "main") == list(MATHLIB.expect_results)
        events = cluster.trace_events()
    finally:
        cluster.close()

    roots = stitch(events)
    assert len(roots) == 1
    remote_spans = [node for node, _ in roots[0].walk() if node.shard == 1]
    served = served_activations(events[1])
    assert len(remote_spans) == len(served) == 30

    reference = build_shard_machine(
        list(MATHLIB.sources), MachineConfig.preset(preset)
    )
    scheduler = Scheduler(reference)
    for span in remote_spans:
        module, proc, args, results = served[span.span]
        steps_before = reference.steps
        cycles_before = reference.counter.cycles
        replayed = scheduler.spawn(module, proc, *args)
        scheduler.run()
        assert list(replayed.results) == results
        assert span.steps == reference.steps - steps_before
        assert span.cycles == reference.counter.cycles - cycles_before


def test_the_spawn_fallback_serves_from_the_same_spec(monkeypatch):
    """Where ``fork`` is unavailable the workers spawn, and the spec —
    image and facts included — reaches them pickled."""
    import multiprocessing

    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    cluster = ProcessCluster(list(MATHLIB.sources), shards=2, pins=PINS)
    try:
        assert cluster.call("Main", "main") == list(MATHLIB.expect_results)
    finally:
        cluster.close()


def _exit_before_hello(address: tuple, spec: dict) -> None:
    """A worker body that dies before it connects (module level, so
    either start method can run it in the child)."""
    os._exit(3)


def test_a_worker_that_exits_before_its_hello_fails_the_start_at_once(monkeypatch):
    """The constructor watches the workers it waits on: one that exits
    before it greets raises with its shard and exit code within
    seconds, not after the whole start-up timeout."""
    from repro.errors import NetError
    from repro.net import procserve

    monkeypatch.setattr(procserve, "run_worker", _exit_before_hello)
    started = time.monotonic()
    with pytest.raises(NetError, match=r"worker \d exited with code 3 before its hello"):
        ProcessCluster(list(MATHLIB.sources), shards=2, pins=PINS)
    assert time.monotonic() - started < 10.0


# ---------------------------------------------------------------------------
# repro-snapshot/3 across the process boundary
# ---------------------------------------------------------------------------


def test_snapshot_blocked_process_restores_into_a_live_worker():
    """Freeze shard 0 of an in-process split run while its root is
    BLOCKED on a Remote XFER, restore the state into a live OS worker,
    and let the worker finish the call against its process peer."""
    from repro.faults.snapshot import capture
    from repro.interp.processes import ProcessStatus

    sources = list(MATHLIB.sources)
    frozen = Cluster(sources, shards=2, config="i2", pins=PINS)
    ticket = frozen.submit("Main", "main")
    frozen.shards[0].scheduler.run()
    assert ticket.process.status is ProcessStatus.BLOCKED
    state = capture(frozen.shards[0].machine, frozen.shards[0].scheduler)
    assert state["schema"] == "repro-snapshot/3"

    cluster = ProcessCluster(sources, shards=2, config="i2", pins=PINS)
    try:
        cluster.restore(0, state)
        deadline = time.monotonic() + 30.0
        table = cluster.status(0)
        while table[0]["status"] != "done" and time.monotonic() < deadline:
            time.sleep(0.05)
            table = cluster.status(0)
        assert table[0]["status"] == "done"
        assert table[0]["results"] == list(MATHLIB.expect_results)
        # And the worker's state is still capturable from outside.
        assert cluster.snapshot(0)["schema"] == "repro-snapshot/3"
    finally:
        cluster.close()


def test_a_refused_restore_leaves_the_worker_serving():
    """A snapshot of another configuration is refused with its reason:
    worker 0 keeps running, its machine unchanged, and still serves."""
    from repro.errors import NetError
    from repro.faults.snapshot import capture

    sources = list(SERVICE_SOURCES)
    state = capture(build_shard_machine(sources, MachineConfig.preset("i4")))
    cluster = ProcessCluster(sources, shards=2, config="i2")
    try:
        before = cluster.snapshot(0)
        with pytest.raises(NetError, match="worker 0 refused restore: configuration mismatch"):
            cluster.restore(0, state)
        assert cluster.snapshot(0) == before
        assert cluster.call_on(0, "Gauss", "sum", 10) == [55]
        assert cluster.worker_errors == []
    finally:
        cluster.close()


# ---------------------------------------------------------------------------
# Worker internals, fork-free (a Worker over a plain socketpair)
# ---------------------------------------------------------------------------


def _worker(shard_id: int = 1) -> tuple[socket.socket, Worker]:
    ours, theirs = socket.socketpair()
    ours.settimeout(5.0)
    spec = worker_specs(list(MATHLIB.sources), shards=2, pins=PINS)[shard_id]
    return ours, Worker(theirs, spec)


def test_a_worker_compiles_and_verifies_nothing(monkeypatch):
    """The cluster builds once, before the fork: a worker installs the
    JIT from its spec's image and facts, whether the spec arrives as
    built (fork) or pickled (spawn), with compiling and verifying
    refused."""
    import pickle

    import repro.check.interproc as interproc
    import repro.jit.engine as jit_engine
    import repro.lang.compiler as compiler

    spec = worker_specs(list(MATHLIB.sources), shards=2, pins=PINS)[1]
    assert spec["facts"]["schema"] == "repro-facts/1"
    spawned = pickle.loads(pickle.dumps(spec))

    def refuse(*args, **kwargs):
        raise AssertionError("a worker compiled or verified")

    monkeypatch.setattr(compiler, "compile_program", refuse)
    monkeypatch.setattr(interproc, "analyze_image", refuse)
    monkeypatch.setattr(jit_engine, "analyze_image", refuse)
    for shipped in (spawned, spec):
        ours, theirs = socket.socketpair()
        ours.settimeout(5.0)
        try:
            worker = Worker(theirs, shipped)
            assert worker.shard.machine.engine is not None
            worker._dispatch(
                wire.call(0, 1, 1, "0:1", None, "Math", "gcd", [12, 18]).encode()
            )
            worker.pump_once()
            assert json.loads(ours.recv(65536))["body"]["results"] == [6]
        finally:
            ours.close()
            theirs.close()


def test_a_self_homed_jit_worker_builds_cells_for_cross_module_calls():
    """A one-shard placement can route nothing away, so the stub never
    diverts Main's ``EFC`` into Math and the JIT builds a call cell for
    it; a two-shard worker has its stub too."""
    from repro.ifu.ifu import TransferKind
    from repro.jit.calls import CallSite

    ours, theirs = socket.socketpair()
    ours.settimeout(5.0)
    spec = worker_specs(list(MATHLIB.sources), shards=2, self_homed=True)[0]
    worker = Worker(theirs, spec)
    machine = worker.shard.machine
    worker._dispatch(
        wire.call(
            FRONT_DOOR, 0, 0, f"{FRONT_DOOR}:0", None, "Main", "main", []
        ).encode()
    )
    worker.pump_once()
    reply = json.loads(ours.recv(65536))
    assert reply["body"]["results"] == list(MATHLIB.expect_results)
    sites = {
        id(value): value
        for fn, _steps in machine.engine.cache.blocks.values()
        for value in fn.__globals__.values()
        if isinstance(value, CallSite)
    }
    targets = {
        (cell.meta.module, cell.meta.name)
        for site in sites.values()
        if site.kind is TransferKind.EXTERNAL_CALL
        for cell in site.cells.values()
    }
    assert ("Math", "gcd") in targets
    _front, split = _worker(0)
    assert split.shard.machine.remote_stub is not None


def test_a_pin_map_on_self_homed_workers_is_refused(monkeypatch):
    """A self-homed worker would drop the pins its front door keeps, so
    the specs refuse the pair, and so does the cluster's constructor,
    before it binds a socket or forks a worker."""
    import multiprocessing

    from repro.errors import NetError

    def no_fork(*args, **kwargs):
        raise AssertionError("a worker was forked")

    pins = {"Math": 1}
    with pytest.raises(NetError, match="pin map"):
        worker_specs(list(MATHLIB.sources), shards=2, pins=pins, self_homed=True)
    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    with pytest.raises(NetError, match="pin map"):
        ProcessCluster(list(MATHLIB.sources), shards=2, pins=pins, self_homed=True)


def test_worker_dedup_resends_byte_identical_replies():
    """At-most-once across the process transport: a duplicated call
    frame yields the cached reply, byte for byte, with no re-execution."""
    front, worker = _worker()
    call = wire.call(0, 1, 5, "0:1", "0:0", "Math", "gcd", [12, 18]).encode()
    worker._dispatch(call)
    worker.pump_once()
    first = front.recv(65536)
    assert first.endswith(b"\n")
    executed = worker.shard.machine.steps
    worker._dispatch(call)  # the duplicate
    worker.pump_once()
    assert front.recv(65536) == first
    assert worker.shard.machine.steps == executed


def _gcd_call(worker, rid: int) -> str:
    return wire.call(
        FRONT_DOOR, worker.id, rid, f"{FRONT_DOOR}:{rid}", None,
        "Math", "gcd", [12 + rid % 50, 18],
    ).encode()


def _serve_gcds(front, worker, first: int, count: int) -> bytes:
    """Answer *count* front-door ``Math.gcd`` calls, ids from *first*;
    return the last reply frame."""
    for rid in range(first, first + count):
        worker._dispatch(_gcd_call(worker, rid))
        worker.pump_once()
        reply = front.recv(65536)
    return reply


def test_a_call_older_than_the_reply_cache_is_refused_not_run():
    """8,200 calls push request 0's reply out of the worker's bounded
    cache; a late duplicate of it then gets one ``evicted_request``
    error frame, and nothing spawns or steps."""
    from repro.net.shard import KEEP

    front, worker = _worker()
    _serve_gcds(front, worker, 0, 8200)
    shard = worker.shard
    assert 0 < len(shard._reply_cache) <= 2 * KEEP
    spawns = []
    spawn = shard.scheduler.spawn
    shard.scheduler.spawn = lambda *args: spawns.append(args) or spawn(*args)
    executed = shard.machine.steps
    worker._dispatch(_gcd_call(worker, 0))
    worker.pump_once()
    (frame,) = front.recv(65536).splitlines()
    error = json.loads(frame)
    assert (error["kind"], error["dst"]) == ("error", FRONT_DOOR)
    assert (error["body"]["id"], error["body"]["trap"]) == (0, "evicted_request")
    assert spawns == []
    assert shard.machine.steps == executed


def _block_main(front, worker, rid: int) -> int:
    """Dispatch ``Main.main`` until it blocks on Math; return its pid."""
    worker._dispatch(
        wire.call(
            FRONT_DOOR, worker.id, rid, f"{FRONT_DOOR}:{rid}", None, "Main", "main", []
        ).encode()
    )
    worker.pump_once()
    front.recv(65536)  # the outgoing Math call
    (entry,) = [p for p in worker.shard.control("status", {})["processes"] if p["status"] == "blocked"]
    assert (entry["module"], entry["proc"]) == ("Main", "main")
    return entry["pid"]


def test_worker_pid_names_the_same_process_for_its_life():
    """A pid read from ``status()`` still names its process after many
    more requests come and go, so a migration can act on it."""
    front, worker = _worker(0)
    _serve_gcds(front, worker, 0, 5)
    pid = _block_main(front, worker, 5)
    _serve_gcds(front, worker, 6, 600)
    (entry,) = [p for p in worker.shard.control("status", {})["processes"] if p["pid"] == pid]
    assert (entry["module"], entry["proc"], entry["status"]) == ("Main", "main", "blocked")
    slice_ = worker.shard.control("extract", {"pid": pid, "dst": 1, "mode": "exclusive"})["slice"]
    assert slice_ is not None and slice_["pid"] == pid


def test_one_process_lifecycle_in_both_modes():
    """Both modes drop a process at its hand-off — a served call once its
    reply is sent, a root once its ticket completes — so no table keeps
    finished processes and every row keeps its span.  Dedup answers
    from the reply cache, and an exclusive slice carries only the
    unfinished processes."""
    from repro.interp.processes import ProcessStatus
    from repro.net.migrate import extract

    def tables_hold_only(shard, statuses):
        rows = shard.scheduler.processes
        assert [p.status.value for p in rows] == statuses
        assert sorted(shard._spans) == [p.pid for p in rows]

    def snapshot_statuses(slice_):
        return [p["status"] for p in slice_["snapshot"]["scheduler"]["processes"]]

    # In-process: 2,000 requests through the admission engine.
    cluster = Cluster(list(SERVICE_SOURCES), shards=4, config="i2")
    report = Server(cluster, 8, 4).serve(generate_workload(7, 2000))
    assert (report.completed, report.lost, report.wrong) == (2000, 0, 0)
    for shard in cluster.shards:
        tables_hold_only(shard, [])
    shard = cluster.shards[cluster.placement.home("Gcd")]
    call = wire.call(FRONT_DOOR, shard.id, 0, f"{FRONT_DOOR}:0", None, "Gcd", "gcd", [12, 18])
    shard.deliver([call])
    while shard.step(cluster.ticks):
        pass
    (reply,) = shard.drain_outbox()
    assert reply.body["results"] == [6]
    tables_hold_only(shard, [])
    executed = shard.machine.steps
    shard.deliver([call])
    assert [m.encode() for m in shard.drain_outbox()] == [reply.encode()]
    assert shard.machine.steps == executed

    home = cluster.placement.home
    leaves = ("Fib", "Gauss", "Gcd", "Pow")
    op = next(op for op, leaf in enumerate(leaves) if home(leaf) != home("Main"))
    ticket = cluster.submit("Main", "dispatch", op, 5, 3)
    while ticket.status is not ProcessStatus.BLOCKED:
        cluster.pump_tick()
    source = cluster.shards[ticket.shard_id]
    tables_hold_only(source, ["blocked"])
    slice_ = extract(source, ticket.process, home(leaves[op]))
    assert snapshot_statuses(slice_) == ["blocked"]

    # An OS worker, fork-free: 600 calls, then the same checks.
    front, worker = _worker(0)
    last = _serve_gcds(front, worker, 0, 600)
    tables_hold_only(worker.shard, [])
    executed = worker.shard.machine.steps
    worker._dispatch(_gcd_call(worker, 599))
    worker.pump_once()
    assert front.recv(65536) == last
    assert worker.shard.machine.steps == executed
    pid = _block_main(front, worker, 600)
    tables_hold_only(worker.shard, ["blocked"])
    slice_ = worker.shard.control("extract", {"pid": pid, "dst": 1, "mode": "exclusive"})["slice"]
    assert snapshot_statuses(slice_) == ["blocked"]


def test_worker_control_plane_status_and_meters():
    front, worker = _worker()
    worker._dispatch(
        wire.call(0, 1, 1, "0:1", None, "Math", "gcd", [12, 18]).encode()
    )
    worker.pump_once()
    reply = json.loads(front.recv(65536))
    assert (reply["kind"], reply["body"]["results"]) == ("reply", [6])
    worker._dispatch(
        '{"schema": "repro-ctl/1", "kind": "status", "shard": 1, "seq": 9, "body": {}}'
    )
    frame = front.recv(65536).decode().strip()
    doc = json.loads(frame)
    assert doc["kind"] == "status_reply"
    assert doc["seq"] == 9  # correlation id echoed
    # The call was handed off with its reply: the table holds nothing.
    assert doc["body"]["processes"] == []


# ---------------------------------------------------------------------------
# Chaos over processes: outcome-class conformance
# ---------------------------------------------------------------------------


def test_process_chaos_partition_recovers():
    from repro.faults.chaos import OutcomeClass
    from repro.net.chaos import make_net_plan, run_net_case_process

    outcome = run_net_case_process("i2", make_net_plan("net_partition", 0))
    assert outcome.klass is OutcomeClass.RECOVERED
    assert outcome.results == [119]
    assert outcome.injections_fired > 0


def test_process_chaos_blackhole_traps_with_diagnostics():
    from repro.faults.chaos import OutcomeClass
    from repro.net.chaos import make_net_plan, run_net_case_process

    outcome = run_net_case_process("i2", make_net_plan("net_blackhole", 0))
    assert outcome.klass is OutcomeClass.TRAPPED
    assert outcome.trap == "lost_request"


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


def test_cli_serve_processes_smoke(capsys):
    from repro.cli import main

    assert main(
        ["serve", "--processes", "--shards", "2", "--requests", "10", "--json"]
    ) == 0
    out = capsys.readouterr().out
    assert "worker process(es)" in out
    assert "lost=0 wrong=0" in out
    doc = json.loads(out[out.index("{"):])
    assert doc["report"]["completed"] == 10
    assert doc["metrics"]["counters"]["net.admitted"] == 10
    assert doc["metrics"]["histograms"]["net.latency_ms"]["count"] == 10
    assert sorted(doc["meters"]) == ["0", "1"]


def test_cli_chaos_processes_requires_net(capsys):
    from repro.cli import main

    assert main(["chaos", "--processes"]) == 2
    assert "--processes requires --net" in capsys.readouterr().err


def test_front_door_submissions_are_ordinary_wire_calls():
    """Root submissions ride the data plane: a call from the pseudo-shard
    survives the canonical encode/decode round trip like any other."""
    assert FRONT_DOOR == -1
    call = wire.call(FRONT_DOOR, 0, 3, f"{FRONT_DOOR}:3", None, "Main", "main", [])
    assert wire.decode(call.encode()) == call
    assert call.src == FRONT_DOOR

# ---------------------------------------------------------------------------
# Live migration across OS workers (repro-migrate/1 over repro-ctl/1)
# ---------------------------------------------------------------------------

#: Main blocks on a deliberately slow remote fib so the BLOCKED window
#: is wide enough to observe from outside on a one-core container.
SLOW_SOURCES = (
    """
MODULE Main;
PROCEDURE main(): INT;
BEGIN
  RETURN Math.fib(18) + 1;
END;
END.
""",
    """
MODULE Math;
PROCEDURE fib(n): INT;
BEGIN
  IF n < 2 THEN RETURN n; END;
  RETURN fib(n - 1) + fib(n - 2);
END;
END.
""",
)

FIB18 = 2584


def _submit_blocked(cluster, shard: int):
    """Submit ``Main.main`` to *shard*; return (future, pid) once the
    worker reports the root BLOCKED on its remote call."""
    import asyncio

    future = asyncio.run_coroutine_threadsafe(
        cluster.call_async(shard, "Main", "main", ()), cluster._loop
    )
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        table = cluster.status(shard)
        if table and table[0]["status"] == "blocked":
            return future, table[0]["pid"]
        time.sleep(0.02)
    raise AssertionError(f"root never observed BLOCKED on worker {shard}")


def test_migrate_blocked_process_onto_a_third_worker():
    """Extract a root BLOCKED on a live remote call from worker 0 and
    adopt it on worker 2 — a worker it never snapshotted from.  The
    Math reply must chase it through worker 0's forward."""
    cluster = ProcessCluster(
        list(SLOW_SOURCES),
        shards=3,
        config="i2",
        pins=PINS,
        timeout_s=30.0,
    )
    try:
        future, blocked = _submit_blocked(cluster, 0)
        cluster.migrate(0, blocked, 2)
        assert future.result(timeout=60.0) == [FIB18 + 1]
        # Both workers handed the process off: worker 0 at the extract,
        # worker 2 with its reply.
        assert cluster.status(0) == []
        assert cluster.status(2) == []
    finally:
        cluster.close()


def test_refused_migration_leaves_the_process_on_its_source():
    """Worker 2 is busy: its own root waits on a reply that a partition
    of the 1->2 link holds back.  It refuses the exclusive slice of
    worker 0's root; worker 0 settles the root back under the same pid,
    and the root still returns the reference result."""
    from repro.errors import NetError
    from repro.faults.plan import FaultPlan, Injection, on_event

    hold = Injection(on_event("net.send", 1), "net_partition", detail="1->2:600")
    cluster = ProcessCluster(
        list(SLOW_SOURCES),
        shards=3,
        config="i2",
        pins=PINS,
        timeout_s=30.0,
        fault_plan=FaultPlan(name="hold-1-2", seed=0, injections=(hold,)),
    )
    try:
        _submit_blocked(cluster, 2)
        future, pid = _submit_blocked(cluster, 0)
        with pytest.raises(NetError, match=f"p{pid} stays on shard 0"):
            cluster.migrate(0, pid, 2)
        (row,) = cluster.status(0)
        assert (row["pid"], row["module"], row["proc"]) == (pid, "Main", "main")
        assert future.result(timeout=60.0) == [FIB18 + 1]
        assert cluster.status(0) == []
    finally:
        cluster.close()


def test_check_census_rejects_config_and_census_drift():
    """The front door checks the workers' hellos with the function an
    in-process shard runs on its greeter's hello: every hello must carry
    the lowest shard's configuration token and module census, and the
    first shard that differs is named."""
    from repro.errors import NetError
    from repro.net.procserve import check_census

    assert check_census is wire.check_census
    i2 = MachineConfig.preset("i2")

    def hello(shard: int, config=i2, modules=("Main", "Math")) -> wire.Message:
        return wire.hello(shard, FRONT_DOOR, config, list(modules))

    check_census({0: hello(0), 1: hello(1), 2: hello(2)})
    drifted = {0: hello(0), 1: hello(1), 2: hello(2, config=MachineConfig.preset("i4"))}
    with pytest.raises(
        NetError, match="shard 2 handshake failed: configuration token mismatch"
    ):
        check_census(drifted)
    relinked = {1: hello(1, modules=("Main",)), 0: hello(0)}
    with pytest.raises(NetError, match="shard 1 handshake failed: module census differs"):
        check_census(relinked)
