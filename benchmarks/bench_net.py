"""NET — Remote XFER serving throughput and latency vs shard count.

The question the serving layer must answer with numbers: what does
spreading one service image across 1..8 shards buy (and cost)?  For
each shard count, the seeded loadgen workload runs through the
:class:`~repro.net.serve.Server` (bounded queues, batched admission),
and the report records requests per pump tick, end-to-end p50/p99
latency in pump ticks and wire words moved — plus a fixed split-call
microbenchmark: the modelled cost of one Remote XFER (the caller's
single process switch; everything else explicit wire cost) against
the same call made locally — and a migration section under skew.

Every number is modelled (ticks, cycles, wire words, migrations), so
the section depends only on the code: the committed ``BENCH_net.json``
is regenerated, never re-timed, and a test compares it with a fresh
run.  Host time is measured by ``benchmarks/suite``.

Every serving run asserts zero lost requests and zero wrong answers —
a benchmark that silently drops work measures nothing.

``python benchmarks/run_all.py --json-out BENCH_net.json net`` writes
the record (CI uploads it as an artifact).
"""

from __future__ import annotations

from repro.analysis.report import banner, format_table
from repro.net.cluster import Cluster
from repro.net.serve import run_serve
from repro.workloads.programs import program

SHARD_COUNTS = (1, 2, 4, 8)
REQUESTS = 200
SEED = 7

#: Requests per run of the migration section's skewed workload.
MIGRATION_REQUESTS = 400


def _sweep() -> list[dict]:
    rows = []
    for shards in SHARD_COUNTS:
        report, cluster, _ = run_serve(
            shards=shards, requests=REQUESTS, seed=SEED
        )
        assert report.lost == 0, f"{shards} shards lost {report.lost} requests"
        assert report.wrong == 0, f"{shards} shards answered wrong"
        summary = report.to_dict()
        summary["remote_calls"] = sum(
            shard.scheduler.stats.blocks for shard in cluster.shards
        )
        rows.append(summary)
    return rows


def _split_call_cost() -> dict:
    """One mathlib run local vs split: the modelled caller overhead of
    going remote is the block-switch count — wire cost is separate."""
    prog = program("mathlib")
    local = Cluster(list(prog.sources), shards=1, config="i2")
    local_results = local.call("Main", "main")
    split = Cluster(
        list(prog.sources), shards=2, config="i2", pins={"Main": 0, "Math": 1}
    )
    split_results = split.call("Main", "main")
    assert local_results == split_results
    return {
        "results": local_results,
        "remote_calls": split.shards[0].scheduler.stats.blocks,
        "caller_cycles_local": local.meters()[0]["counter"]["cycles"],
        "caller_cycles_split": split.meters()[0]["counter"]["cycles"],
        "callee_cycles_split": split.meters()[1]["counter"]["cycles"],
        "wire_words": split.transport.stats.wire_words,
        "wire_messages": split.transport.stats.sent,
    }


def _migration() -> dict:
    """Elastic rebalancing under a skewed 90/10 hot-key workload.

    Ninety percent of requests hammer Fib's home shard; the same
    seeded workload runs once with a static placement and once with
    the :class:`~repro.net.balance.Balancer` migrating blocked roots
    off the hot shard (tick-paced pump so queues are observable).
    Both runs must finish with zero lost requests and zero wrong
    answers — migration that drops or corrupts work measures nothing.
    """
    from repro.net.balance import Balancer
    from repro.net.serve import SERVICE_SOURCES, Server, generate_skewed_workload

    pins = {"Main": 0, "Fib": 1}
    workload = generate_skewed_workload(SEED, MIGRATION_REQUESTS)
    section: dict = {
        "requests": MIGRATION_REQUESTS,
        "shards": 3,
        "pins": dict(pins),
        "workload": "skewed 90/10 (hot key: Fib)",
    }
    for label, autoscale in (("static", False), ("autoscale", True)):
        cluster = Cluster(
            list(SERVICE_SOURCES), shards=3, config="i2", pins=dict(pins)
        )
        balancer = (
            Balancer(high_water=4, low_water=2, patience=2, budget=2)
            if autoscale
            else None
        )
        report = Server(
            cluster,
            queue_capacity=16,
            batch_size=8,
            balancer=balancer,
            pump_ticks_per_round=1,
        ).serve(list(workload))
        assert report.lost == 0, f"migration bench ({label}) lost requests"
        assert report.wrong == 0, f"migration bench ({label}) answered wrong"
        section[label] = report.to_dict()
    return section


_PAYLOAD: dict | None = None


def json_payload() -> dict:
    # Memoized: run_all calls report() (which needs the payload) and
    # then json_payload() again for the artifact — without the cache
    # the whole sweep executes twice.
    global _PAYLOAD
    if _PAYLOAD is None:
        _PAYLOAD = {
            "requests": REQUESTS,
            "seed": SEED,
            "sweep": _sweep(),
            "split_call": _split_call_cost(),
            "migration": _migration(),
        }
    return _PAYLOAD


def report() -> str:
    payload = json_payload()
    lines = [banner("NET: Remote XFER serving, 1-8 shards")]
    rows = [
        [
            row["shards"],
            row["completed"],
            row["lost"],
            row["p50_ticks"],
            row["p99_ticks"],
            row["requests_per_tick"],
            row["wire_words"],
        ]
        for row in payload["sweep"]
    ]
    lines.append(
        format_table(
            ["shards", "done", "lost", "p50", "p99", "req/tick", "wire words"],
            rows,
        )
    )
    split = payload["split_call"]
    lines.append(
        f"\nsplit mathlib (Main|Math): {split['remote_calls']} remote calls; "
        f"caller {split['caller_cycles_local']} cycles local -> "
        f"{split['caller_cycles_split']} split (switch cost only), "
        f"callee {split['callee_cycles_split']} cycles, "
        f"{split['wire_words']} wire words on the transport's meters"
    )
    migration = payload["migration"]
    static, auto = migration["static"], migration["autoscale"]
    lines.append(
        f"\nmigration ({migration['workload']}, {migration['requests']} "
        f"requests, {migration['shards']} shards): static p50/p99 "
        f"{static['p50_ticks']}/{static['p99_ticks']} ticks at "
        f"{static['requests_per_tick']} req/tick; autoscale p50/p99 "
        f"{auto['p50_ticks']}/{auto['p99_ticks']} ticks at "
        f"{auto['requests_per_tick']} req/tick with "
        f"{auto['migrations']} migration(s), lost=0 wrong=0 both runs"
    )
    return "\n".join(lines)


if __name__ == "__main__":
    print(report())
