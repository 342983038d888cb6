"""Live migration: differential meter identity, forwarding, balancing.

The tentpole invariant, pinned property-style: migrating a process at a
random block boundary to a random spare shard changes *nothing* the
model can see — final results and cluster-aggregate modelled meters are
bit-identical to the unmigrated run (exclusive mode; shared mode is
results-exact).  Around it, the machinery: reply forwarding and
tombstone retirement, chained migrations, call-forward bounces, the
balancer's hysteresis, and the co-location planner.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.chaos import OutcomeClass
from repro.interp.processes import ProcessStatus
from repro.net.balance import Balancer
from repro.net.chaos import run_net_chaos
from repro.net.cluster import Cluster
from repro.net.colocate import plan_pins
from repro.net.migrate import MigrateError, aggregate_meters, extract
from repro.net.placement import Placement
from repro.net.serve import (
    SERVICE_SOURCES,
    Server,
    generate_skewed_workload,
)
from repro.net.stitch import stitch
from repro.workloads.programs import program

PROG = program("mathlib")
PINS = {"Main": 0, "Math": 1}


def _build(shards: int = 3, config: str = "i2") -> Cluster:
    return Cluster(list(PROG.sources), shards=shards, config=config, pins=PINS)


def _reference(config: str = "i2", shards: int = 3):
    cluster = _build(shards, config)
    ticket = cluster.submit(PROG.entry[0], PROG.entry[1], *PROG.args)
    cluster.pump()
    assert ticket.status is ProcessStatus.DONE
    return ticket.results, aggregate_meters(cluster.meters())


def _migrated_run(migrate_at: int, dst: int, mode: str, config: str = "i2"):
    """Pump tick by tick; migrate the root at its first block boundary
    at/after *migrate_at*; finish; return (results, aggregate, moved?)."""
    cluster = _build(config=config)
    ticket = cluster.submit(PROG.entry[0], PROG.entry[1], *PROG.args)
    migrated = False
    moved = True
    while moved:
        moved = cluster.pump_tick()
        if (
            not migrated
            and cluster.ticks >= migrate_at
            and ticket.process.status is ProcessStatus.BLOCKED
        ):
            cluster.migrate(ticket, dst, mode=mode)
            migrated = True
    assert ticket.status is ProcessStatus.DONE, ticket.process.fault
    return ticket.results, aggregate_meters(cluster.meters()), migrated


# -- the differential invariant -------------------------------------------


@settings(max_examples=12, deadline=None)
@given(
    migrate_at=st.integers(min_value=1, max_value=10),
    dst=st.integers(min_value=1, max_value=2),
)
def test_exclusive_migration_is_invisible_to_the_model(migrate_at, dst):
    """Results bit-identical for any boundary and target; meters
    bit-identical when the move does not change call locality.

    Landing on shard 1 — Math's home — turns the remaining Math calls
    local, so the modelled remote-call charges (switches, blocks, wire
    words) legitimately shrink: that locality dividend is the whole
    point of co-location.  Only the spare shard 2 preserves the call
    topology, so only there is the meter aggregate pinned."""
    ref_results, ref_agg = _reference()
    results, agg, migrated = _migrated_run(migrate_at, dst, "exclusive")
    assert results == ref_results
    if migrated and dst == 2:
        assert agg == ref_agg


@settings(max_examples=8, deadline=None)
@given(migrate_at=st.integers(min_value=1, max_value=8))
def test_shared_migration_preserves_results(migrate_at):
    ref_results, _ = _reference()
    results, _, _ = _migrated_run(migrate_at, 2, "shared")
    assert results == ref_results


@pytest.mark.parametrize("config", ["i1", "i2", "i3", "i4"])
def test_exclusive_meter_identity_on_every_preset(config):
    ref_results, ref_agg = _reference(config=config)
    results, agg, migrated = _migrated_run(2, 2, "exclusive", config=config)
    assert migrated
    assert results == ref_results
    assert agg == ref_agg


def test_shared_mode_refuses_first_fit_i1():
    cluster = _build(config="i1")
    ticket = cluster.submit(PROG.entry[0], PROG.entry[1], *PROG.args)
    while ticket.process.status is not ProcessStatus.BLOCKED:
        cluster.pump_tick()
    with pytest.raises(MigrateError, match="AV frame heap"):
        cluster.migrate(ticket, 2, mode="shared")
    cluster.pump()
    assert ticket.results == list(PROG.expect_results)


# -- forwarding and tombstones ---------------------------------------------


def _pump_until_blocked(cluster, ticket):
    while ticket.process.status is not ProcessStatus.BLOCKED:
        assert cluster.pump_tick()


def test_reply_forward_retires_after_landing():
    cluster = _build()
    ticket = cluster.submit(PROG.entry[0], PROG.entry[1], *PROG.args)
    _pump_until_blocked(cluster, ticket)
    cluster.migrate(ticket, 2, mode="exclusive")
    source = cluster.shards[0]
    assert source._forwards, "extract must install a reply forward"
    cluster.pump()
    assert ticket.results == list(PROG.expect_results)
    assert not source._forwards, "tombstone must retire once the reply lands"
    assert not cluster._migrations


def test_chained_migration_keeps_the_forwarding_path():
    """0 -> 2 -> 1: the reply chases the process through both hops."""
    cluster = _build()
    ticket = cluster.submit(PROG.entry[0], PROG.entry[1], *PROG.args)
    _pump_until_blocked(cluster, ticket)
    cluster.migrate(ticket, 2, mode="exclusive")
    assert ticket.process.status is ProcessStatus.BLOCKED
    cluster.migrate(ticket, 1, mode="shared")
    assert ticket.shard_id == 1
    cluster.pump()
    assert ticket.results == list(PROG.expect_results)
    assert not cluster.shards[0]._forwards
    assert not cluster.shards[2]._forwards


def test_migrated_process_intra_module_calls_stay_local():
    """After migration the process executes Main code on shard 2, whose
    placement still homes Main on shard 0 — those calls must not go
    remote, or every post-migration call would bounce forever."""
    _, _, migrated = _migrated_run(1, 2, "exclusive")
    assert migrated  # the run completing at all is the assertion


def test_extract_requires_a_block_boundary():
    cluster = _build()
    ticket = cluster.submit(PROG.entry[0], PROG.entry[1], *PROG.args)
    with pytest.raises(MigrateError, match="READY or BLOCKED"):
        # Still READY is fine; force a terminal state instead.
        cluster.pump()
        extract(cluster.shards[0], ticket.process, 2)


def test_refused_adoption_rolls_back_and_both_finish():
    """Exclusive adoption needs an idle target; a refusal must leave
    the source untouched — BOTH processes still finish correctly."""
    cluster = _build()
    busy = cluster.submit(PROG.entry[0], PROG.entry[1], *PROG.args)
    victim = cluster.submit(PROG.entry[0], PROG.entry[1], *PROG.args)
    _pump_until_blocked(cluster, victim)
    cluster.migrate(victim, 2, mode="exclusive")  # shard 2 is now live
    if busy.done:  # pragma: no cover - scheduling-dependent guard
        pytest.skip("first ticket finished before the second blocked")
    with pytest.raises(MigrateError, match="idle target"):
        cluster.migrate(busy, 2, mode="exclusive")
    cluster.pump()
    assert busy.results == list(PROG.expect_results)
    assert victim.results == list(PROG.expect_results)
    assert not cluster._migrations


def test_recorded_migration_traces_the_forwarded_reply():
    cluster = Cluster(list(PROG.sources), shards=3, config="i2", pins=PINS, record=True)
    ticket = cluster.submit(PROG.entry[0], PROG.entry[1], *PROG.args)
    _pump_until_blocked(cluster, ticket)
    cluster.migrate(ticket, 2)
    cluster.pump()
    assert ticket.results == [119]
    forwards = [
        event
        for events in cluster.trace_events().values()
        for event in events
        if event.kind == "net.migrate.forward"
    ]
    assert forwards and all(event.data["msg"] == "reply" for event in forwards)


# -- the balancer -----------------------------------------------------------


def test_balancer_drains_hot_shard_without_losing_requests():
    workload = generate_skewed_workload(7, 80)
    cluster = Cluster(
        list(SERVICE_SOURCES), shards=3, config="i2", pins={"Main": 0, "Fib": 1}
    )
    balancer = Balancer(high_water=4, low_water=2, patience=2, budget=2)
    server = Server(
        cluster,
        queue_capacity=16,
        batch_size=8,
        balancer=balancer,
        pump_ticks_per_round=1,
    )
    report = server.serve(workload)
    assert report.lost == 0
    assert report.wrong == 0
    assert report.completed == len(workload)
    assert report.migrations > 0
    assert balancer.stats.migrations == report.migrations
    snapshot = server.metrics.snapshot()
    assert snapshot["counters"]["net.migrations"] == report.migrations
    assert "net.shard_inflight.0" in snapshot["gauges"]


def test_balancer_patience_defeats_one_round_spikes():
    cluster = Cluster(list(SERVICE_SOURCES), shards=2, config="i2")
    balancer = Balancer(high_water=1, low_water=0, patience=3, budget=1)

    class FakeTicket:
        done = False
        shard_id = 0
        process = None
        span = "0:0"

    tickets = [FakeTicket() for _ in range(4)]
    assert balancer.observe(cluster, tickets) == 0  # heat 1
    assert balancer.observe(cluster, tickets) == 0  # heat 2
    # Third observation reaches patience; candidates are not movable
    # (fake processes), so still zero migrations — but the heat gate
    # opened, which is what this test pins.
    assert balancer._heat[0] == 2


def test_tick_paced_server_matches_quiescent_results():
    workload = generate_skewed_workload(11, 30)
    for knobs in ({"pump_ticks_per_round": None}, {"pump_ticks_per_round": 2}):
        cluster = Cluster(list(SERVICE_SOURCES), shards=2, config="i2")
        report = Server(cluster, **knobs).serve(workload)
        assert report.lost == 0 and report.wrong == 0
        assert report.completed == len(workload)


# -- co-location -------------------------------------------------------------


def test_plan_pins_colocates_hottest_pair():
    cluster = Cluster(list(SERVICE_SOURCES), shards=3, config="i2", record=True)
    server = Server(cluster)
    report = server.serve(generate_skewed_workload(7, 30))
    assert report.lost == 0 and report.wrong == 0
    roots = stitch(cluster.trace_events())
    plan = plan_pins(roots, 3)
    assert plan.edges[0]["caller"] == "Main"
    hottest = plan.edges[0]["callee"]
    assert plan.pins["Main"] == plan.pins[hottest]
    known = set(range(3))
    assert set(plan.pins.values()) <= known
    # The plan round-trips through Placement validation.
    Placement([0, 1, 2], pins=plan.pins)


# -- migration under chaos ---------------------------------------------------


def test_migration_races_chaos_and_recovers():
    report = run_net_chaos(
        plans=("net_partition", "net_dup_delay"), seeds=1, presets=("i2", "i4"),
        migrate=True,
    )
    assert report.ok, report.summary()
    for case in report.cases:
        for outcome in case.outcomes.values():
            assert outcome.klass is OutcomeClass.RECOVERED
            assert outcome.wire.get("migrated") is True
