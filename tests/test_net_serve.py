"""The serving layer: batching, backpressure, retries, zero-loss."""

import json

import pytest

from repro.errors import NetError
from repro.ifu.ifu import TransferKind
from repro.interp.machine import Machine
from repro.interp.machineconfig import MachineConfig
from repro.net.cluster import Cluster
from repro.net.serve import (
    SERVICE_SOURCES,
    Request,
    Server,
    generate_workload,
    run_serve,
)
from repro.net.transport import InProcessTransport, NetFaultPolicy, SocketTransport
from repro.faults.plan import FaultPlan, Injection, on_event


def test_workload_is_seeded_and_carries_correct_answers():
    first = generate_workload(7, 50)
    second = generate_workload(7, 50)
    assert first == second
    assert generate_workload(8, 50) != first
    assert {r.op for r in first} == {0, 1, 2, 3}  # all four services hit
    for request in first:
        assert Request.from_dict(request.to_dict()) == request


def test_serve_completes_with_zero_lost_and_zero_wrong():
    report, cluster, metrics = run_serve(shards=2, requests=60, seed=7)
    assert report.completed == 60
    assert report.lost == 0
    assert report.wrong == 0
    assert report.ticks > 0
    assert len(report.latencies) == 60
    assert report.percentile(0.5) <= report.percentile(0.99)
    # The serving metrics live in the net.* namespace.
    snapshot = metrics.snapshot()
    assert snapshot["counters"]["net.admitted"] == 60
    assert snapshot["histograms"]["net.latency_ticks"]["count"] == 60


def test_serve_is_deterministic_across_runs():
    first, c1, _ = run_serve(shards=4, requests=80, seed=11)
    second, c2, _ = run_serve(shards=4, requests=80, seed=11)
    assert first.to_dict() == second.to_dict()
    assert c1.meters() == c2.meters()


def test_jit_shards_serve_exactly_like_interpreter_shards(monkeypatch):
    """Shards run each process in slices of the machine's execution
    loop, never one ``Machine.step()`` call per instruction: interpreter
    shards make no ``step`` calls at all, and ``engine="jit"`` shards
    execute compiled blocks, so their interpreter runs far fewer
    instructions than the shards do.  The report and every shard's
    meters are the same on both engines."""
    step_calls: dict = {}
    interpreted: dict = {}
    step, interpret = Machine.step, Machine._interpret

    def counting_step(machine):
        step_calls[machine] = step_calls.get(machine, 0) + 1
        step(machine)

    def counting_interpret(machine, ceiling):
        before = machine.steps
        try:
            return interpret(machine, ceiling)
        finally:
            interpreted[machine] = interpreted.get(machine, 0) + machine.steps - before

    monkeypatch.setattr(Machine, "step", counting_step)
    monkeypatch.setattr(Machine, "_interpret", counting_interpret)
    runs = {}
    for engine in ("interp", "jit"):
        step_calls.clear()
        interpreted.clear()
        cluster = Cluster(list(SERVICE_SOURCES), shards=2, engine=engine)
        report = Server(cluster).serve(generate_workload(7, 100))
        assert report.completed == 100 and report.lost == report.wrong == 0
        runs[engine] = (report.to_dict(), cluster.meters())
        for shard in cluster.shards:
            machine = shard.machine
            assert machine.steps > 1_000
            if engine == "interp":
                assert machine not in step_calls
                assert interpreted[machine] == machine.steps
            else:
                assert step_calls.get(machine, 0) * 10 < machine.steps
                assert interpreted.get(machine, 0) * 10 < machine.steps
    assert runs["jit"] == runs["interp"]


def test_jit_shards_build_local_call_cells_and_meter_like_the_interpreter():
    """An LFC target is always in the caller's module, which a shard's
    stub never diverts, so a JIT shard builds LFC call cells under its
    stub, as it does for EFC/DFC/SDFC calls into modules homed on the
    same shard; only calls the stub diverts run generic.  Every shard
    that makes a local call builds cells, and the cluster's meters,
    remote calls included, are the interpreter's."""
    runs = {}
    for engine in ("interp", "jit"):
        cluster = Cluster(list(SERVICE_SOURCES), shards=4, engine=engine)
        report = Server(cluster).serve(generate_workload(7, 120))
        assert report.completed == 120 and report.lost == report.wrong == 0
        fetch = {
            shard.id: shard.machine.fetch.summary() for shard in cluster.shards
        }
        runs[engine] = (report.to_dict(), cluster.meters(), fetch)
    meters, fetch = runs["jit"][1], runs["jit"][2]
    assert sum(shard["blocks"] for shard in meters.values()) > 0
    local_callers = 0
    for shard in cluster.shards:
        machine = shard.machine
        if machine.fetch.fast.get(TransferKind.LOCAL_CALL) or machine.fetch.slow.get(
            TransferKind.LOCAL_CALL
        ):
            local_callers += 1
            assert machine.engine.stats.cells_built > 0, shard.id
    assert local_callers > 0
    assert runs["jit"] == runs["interp"]


def test_a_jit_shard_builds_cells_for_its_co_homed_targets_only():
    """Placement is fixed when a cluster is built, so a call the stub
    does not divert never will be: the shard homing Main holds cells for
    ``Main.dispatch``'s ``EFC`` sites into the leaves homed beside it,
    none into the leaves homed elsewhere, and serves like the
    interpreter."""
    from repro.jit.calls import CallSite

    reports = {}
    for engine in ("interp", "jit"):
        cluster = Cluster(list(SERVICE_SOURCES), shards=4, engine=engine)
        report = Server(cluster).serve(generate_workload(7, 120))
        assert report.completed == 120 and report.lost == report.wrong == 0
        reports[engine] = report.to_dict()
    assert reports["jit"] == reports["interp"]

    home = cluster.placement.home
    machine = cluster.shards[home("Main")].machine
    sites = {
        id(value): value
        for fn, _steps in machine.engine.cache.blocks.values()
        if fn.__code__.co_filename == "<jit Main.dispatch>"
        for value in fn.__globals__.values()
        if isinstance(value, CallSite) and value.kind is TransferKind.EXTERNAL_CALL
    }
    assert len(sites) == 4
    targets = [
        cell.meta.module for site in sites.values() for cell in site.cells.values()
    ]
    co_homed = [leaf for leaf in ("Fib", "Gauss", "Gcd", "Pow") if home(leaf) == home("Main")]
    assert co_homed and len(co_homed) < 4
    assert sorted(targets) == co_homed


def test_a_jit_shard_seeds_each_site_and_caller_once(seed_runs):
    """A call the stub diverts seeds no cell, and its verdict never
    changes, so the first call at a ``(site, gf)`` records it and later
    calls go straight to the generic handler: ``seed`` runs at most once
    per ``(site, gf)``, and the cluster serves like the interpreter."""
    runs = {}
    for engine in ("interp", "jit"):
        cluster = Cluster(list(SERVICE_SOURCES), shards=4, engine=engine)
        report = Server(cluster).serve(generate_workload(7, 120))
        assert report.completed == 120 and report.lost == report.wrong == 0
        runs[engine] = (report.to_dict(), cluster.meters())
    assert runs["jit"] == runs["interp"]
    assert seed_runs and len(seed_runs) == len(set(seed_runs))
    assert any(site.remote for site, _gf in seed_runs)


def test_shards_are_not_subject_to_the_machine_step_limit():
    """``config.step_limit`` is ``Machine.run``'s lifetime backstop; a
    shard's scheduler serves past it, bounded per ``Scheduler.run`` call
    by ``scheduler_max_steps`` alone."""
    config = MachineConfig.i2(step_limit=1_000)
    cluster = Cluster(list(SERVICE_SOURCES), shards=1, config=config)
    report = Server(cluster).serve(generate_workload(7, 40))
    assert report.completed == 40 and report.lost == report.wrong == 0
    assert cluster.shards[0].machine.steps > 1_000


def test_backpressure_stalls_when_the_queue_is_bounded():
    report, _, metrics = run_serve(
        shards=2, requests=40, seed=3, queue_capacity=1, batch_size=8
    )
    assert report.lost == 0 and report.wrong == 0
    assert report.backpressure_stalls > 0
    assert metrics.snapshot()["counters"]["net.backpressure_stalls"] > 0


def test_serve_retries_requests_that_fault_in_flight():
    """A blackhole that swallows one remote call (and its transport
    retries) faults that root request; the server must resubmit it and
    still finish with zero lost."""
    plan = FaultPlan(
        name="swallow",
        seed=1,
        injections=tuple(
            Injection(on_event("net.send", 10 + k), "net_drop") for k in range(8)
        ),
    )
    cluster = Cluster(
        list(SERVICE_SOURCES),
        shards=2,
        config="i2",
        transport=InProcessTransport(policy=NetFaultPolicy(plan)),
    )
    server = Server(cluster, queue_capacity=4, batch_size=2, max_retries=3)
    report = server.serve(generate_workload(5, 30))
    assert report.completed == 30
    assert report.lost == 0
    assert report.wrong == 0
    assert report.retried > 0


def test_serve_over_a_socket_matches_in_process():
    reference, ref_cluster, _ = run_serve(shards=2, requests=30, seed=9)
    socketed = SocketTransport()
    try:
        report, cluster, _ = run_serve(
            shards=2, requests=30, seed=9, transport=socketed
        )
        assert report.to_dict() == reference.to_dict()
        assert cluster.meters() == ref_cluster.meters()
    finally:
        socketed.close()


def test_server_validates_its_knobs():
    cluster = Cluster(list(SERVICE_SOURCES), shards=1, config="i2")
    with pytest.raises(NetError, match="queue_capacity"):
        Server(cluster, queue_capacity=0)
    with pytest.raises(NetError, match="batch_size"):
        Server(cluster, batch_size=0)


def test_report_serializes_for_the_bench_artifact():
    report, _, _ = run_serve(shards=2, requests=20, seed=7)
    doc = json.loads(json.dumps(report.to_dict()))
    assert doc["requests"] == 20
    assert doc["lost"] == 0
    assert doc["p99_ticks"] >= doc["p50_ticks"] >= 0
    assert doc["requests_per_tick"] > 0


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


def test_cli_loadgen_and_serve_roundtrip(tmp_path, capsys):
    from repro.cli import main

    workload_file = tmp_path / "wl.json"
    assert main(
        ["loadgen", "--requests", "15", "--seed", "7", "--out", str(workload_file)]
    ) == 0
    doc = json.loads(workload_file.read_text())
    assert doc["schema"] == "repro-loadgen/1"
    assert len(doc["workload"]) == 15
    out_file = tmp_path / "report.json"
    assert main(
        ["serve", "--shards", "2", "--workload", str(workload_file),
         "--out", str(out_file)]
    ) == 0
    out = capsys.readouterr().out
    assert "served 15/15" in out
    assert "lost=0 wrong=0" in out
    report = json.loads(out_file.read_text())
    assert report["report"]["lost"] == 0
    assert report["placement"]["Main"] in (0, 1)


def test_cli_serve_rejects_a_non_workload_file(tmp_path, capsys):
    from repro.cli import main

    bogus = tmp_path / "bogus.json"
    bogus.write_text('{"schema": "something-else"}')
    assert main(["serve", "--workload", str(bogus)]) == 2


def test_cli_serves_a_planned_pin_map_in_process_and_over_workers(tmp_path, capsys):
    """Placement is chosen at build: ``optimize --placement`` plans a pin
    map, and ``serve --pins`` places modules where it says, in process
    and over worker processes on the dispatch route."""
    from repro.cli import main

    pins_file = tmp_path / "pins.json"
    assert main(
        ["optimize", "--placement", "--shards", "2", "--requests", "40",
         "--out", str(pins_file)]
    ) == 0
    plan = json.loads(pins_file.read_text())
    assert plan["schema"] == "repro-pins/1" and plan["shards"] == 2
    assert set(plan["pins"].values()) == {0, 1}
    served = ["serve", "--shards", "2", "--requests", "60", "--pins", str(pins_file)]
    inproc, proc = tmp_path / "inproc.json", tmp_path / "proc.json"
    assert main([*served, "--out", str(inproc)]) == 0
    assert main([*served, "--processes", "--route", "dispatch", "--out", str(proc)]) == 0
    capsys.readouterr()
    for path in (inproc, proc):
        report = json.loads(path.read_text())["report"]
        assert report["completed"] == 60
        assert report["lost"] == 0 and report["wrong"] == 0
    table = json.loads(inproc.read_text())["placement"]
    for module, shard in plan["pins"].items():
        assert table[module] == shard


def test_cli_serve_refuses_pins_on_the_direct_process_route(tmp_path, capsys):
    """The direct route homes every module on every worker, so a pin
    map would be dropped; serve refuses before any worker forks."""
    import multiprocessing

    from repro.cli import main

    pins_file = tmp_path / "pins.json"
    pins_file.write_text(
        json.dumps({"schema": "repro-pins/1", "shards": 2, "pins": {"Fib": 1}})
    )

    def no_fork(*args, **kwargs):
        raise AssertionError("a worker was forked")

    with pytest.MonkeyPatch.context() as forks:
        forks.setattr(multiprocessing, "get_context", no_fork)
        assert main(
            ["serve", "--processes", "--shards", "2", "--pins", str(pins_file)]
        ) == 2
    assert "--route dispatch" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"schema": "repro-pins/0", "shards": 2, "pins": {}}, "is not a repro-pins/1"),
        ({"schema": "repro-pins/1", "shards": 2, "pins": {"Fib": "one"}},
         "is not a shard id"),
        ({"schema": "repro-pins/1", "shards": 3, "pins": {"Fib": 2}},
         "planned for 3 shard"),
        ({"schema": "repro-pins/1", "shards": "two", "pins": {"Fib": 1}},
         "is not an integer"),
        ({"schema": "repro-pins/1", "shards": 2, "pins": {"Fib": 7}},
         "pinned to unknown shard 7"),
    ],
    ids=["schema", "shard-id", "shard-count", "count-type", "unknown-shard"],
)
def test_cli_serve_refuses_a_bad_pin_map(doc, message, tmp_path, capsys):
    from repro.cli import main

    pins_file = tmp_path / "pins.json"
    pins_file.write_text(json.dumps(doc))
    assert main(["serve", "--shards", "2", "--pins", str(pins_file)]) == 2
    assert message in capsys.readouterr().err


def test_cli_profile_stitches_across_shards(tmp_path, capsys):
    from repro.cli import main
    from repro.workloads.programs import program

    prog = program("mathlib")
    files = []
    for index, source in enumerate(prog.sources):
        path = tmp_path / f"m{index}.mesa"
        path.write_text(source)
        files.append(str(path))
    assert main(
        ["profile", *files, "--shards", "2", "--pin", "Main=0",
         "--pin", "Math=1", "--impl", "i2"]
    ) == 0
    out = capsys.readouterr().out
    assert "results: [119]" in out
    assert "31 span(s), 30 remote" in out
    assert "Math.gcd [shard 1]" in out
    assert "metered on the transport" in out


def test_verifier_findings_refuse_the_default_stack_only(tmp_path, capsys, monkeypatch):
    """An image with verifier findings: the default stack (JIT shards,
    in process or in forked workers) refuses it and ``repro serve``
    exits 2, with no worker forked; ``--engine interp`` serves it on
    both stacks; ``repro profile --shards`` records on the interpreter,
    so the program stays profilable."""
    import multiprocessing

    import repro.jit.engine as jit_engine
    from repro.cli import main
    from repro.workloads.programs import program

    class _Findings:
        ok = False

        class report:
            errors = ["lv-index: a seeded finding"]

    def no_fork(*args, **kwargs):
        raise AssertionError("a worker was forked")

    monkeypatch.setattr(jit_engine, "analyze_image", lambda image: _Findings)
    assert main(["serve", "--requests", "20"]) == 2
    assert "jit refused" in capsys.readouterr().err
    assert main(["serve", "--requests", "20", "--engine", "interp"]) == 0
    capsys.readouterr()
    processes = ["serve", "--processes", "--shards", "2", "--requests", "20"]
    with monkeypatch.context() as forks:
        forks.setattr(multiprocessing, "get_context", no_fork)
        assert main(processes) == 2
    assert "jit refused" in capsys.readouterr().err
    assert main([*processes, "--engine", "interp"]) == 0
    capsys.readouterr()

    files = []
    for index, source in enumerate(program("mathlib").sources):
        path = tmp_path / f"m{index}.mesa"
        path.write_text(source)
        files.append(str(path))
    assert main(["profile", *files, "--shards", "2", "--impl", "i2"]) == 0
    assert "results: [119]" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Admission cost, bounded cluster state, pinned workloads
# ---------------------------------------------------------------------------


class _InstantCluster:
    """A zero-cost stand-in for :class:`Cluster`: every ticket submitted
    finishes, with the right answer, on the next pump."""

    class _Ticket:
        __slots__ = ("done", "shard_id", "results", "status")

        def __init__(self) -> None:
            self.done = False
            self.shard_id = 0
            self.results = [6]

    def __init__(self, shards: int = 4) -> None:
        from types import SimpleNamespace

        self.shards = [SimpleNamespace(id=shard) for shard in range(shards)]
        self.placement = SimpleNamespace(home=lambda module: 0)
        self.transport = SimpleNamespace(stats=SimpleNamespace(wire_words=0))
        self.ticks = 0
        self._open: list = []

    def submit(self, module, proc, *args):
        ticket = self._Ticket()
        self._open.append(ticket)
        return ticket

    def pump(self) -> int:
        from repro.interp.processes import ProcessStatus

        for ticket in self._open:
            ticket.done = True
            ticket.status = ProcessStatus.DONE
        self._open = []
        self.ticks += 1
        return 1


def _admission_seconds_per_request(requests: int) -> float:
    import time

    workload = [Request(index, 1, 3, 0, 6) for index in range(requests)]
    server = Server(_InstantCluster(), queue_capacity=8, batch_size=4)
    started = time.perf_counter()
    report = server.serve(workload)
    elapsed = time.perf_counter() - started
    assert report.completed == requests and report.wrong == 0
    return elapsed / requests


def test_admission_cost_per_request_does_not_grow_with_the_queue():
    """A queue 10x longer may not make each request's admission 2x
    dearer: one round touches the batch and the shards, not the queue."""
    small = min(_admission_seconds_per_request(10_000) for _ in range(3))
    large = _admission_seconds_per_request(100_000)
    assert large < 2 * small, (small, large)


def test_cluster_keeps_only_open_tickets():
    report, cluster, _ = run_serve(shards=2, requests=30, seed=7)
    assert report.completed == 30
    assert cluster.open_tickets == []


def test_generators_draw_the_recorded_sequences():
    """Digests of the seed-7, 200-request workloads as first recorded:
    any change to either generator's RNG draw order shows here."""
    import hashlib

    from repro.net.serve import generate_skewed_workload

    def digest(workload) -> str:
        doc = json.dumps([request.to_dict() for request in workload], sort_keys=True)
        return hashlib.sha256(doc.encode()).hexdigest()

    assert digest(generate_workload(7, 200)) == (
        "e89aa6c7b3d95c8b4ee5207cbd75dc2af598663c757883d545ebfb28b9a678c6"
    )
    assert digest(generate_skewed_workload(7, 200)) == (
        "95647a35dcffe02a65f340489f29c7b2a2bfac9cc43ffd5d7da2d1e1a71302f5"
    )
