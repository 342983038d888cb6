"""The in-process admission schedule, pinned against a recorded fixture.

``tests/fixtures/serve_golden.json`` holds, per configuration, what a
seeded ``Server.serve`` run produced: the report, its sorted latencies,
the cluster's ticks and wire words, the ``net.*`` metrics, and every
shard's modelled meters.  Those depend on exactly which requests are
admitted in which round, so any drift in batching, backpressure, retry
order or backoff shows up here.  ``backpressure_stalls`` is the one
field left out: it counts (round, shard) pairs, see docs/net.md.

Every configuration runs on both shard engines against the same entry:
the JIT (``Cluster``'s default, whose cases keep the bare names) and
the interpreter.  Each pair runs again with ``repro.net.shard.KEEP`` at
1 (the ``-keep1`` cases): every request table then keeps at most two
entries, and since no late duplicate arrives, eviction changes nothing
the fixture pins.

Regenerate (only when a schedule change is intended)::

    PYTHONPATH=src python -m tests.test_serve_golden
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro.net.shard as shard_module
from repro.faults.plan import FaultPlan, Injection, on_event
from repro.net.balance import Balancer
from repro.net.cluster import Cluster
from repro.net.serve import (
    SERVICE_SOURCES,
    Server,
    generate_skewed_workload,
    generate_workload,
)
from repro.net.transport import InProcessTransport, NetFaultPolicy

FIXTURE = Path(__file__).parent / "fixtures" / "serve_golden.json"

#: Fields allowed to differ from the fixture.
REDEFINED = {"backpressure_stalls"}
REDEFINED_METRICS = {"net.backpressure_stalls"}


def _plain(queue_capacity: int, batch_size: int, engine: str):
    cluster = Cluster(list(SERVICE_SOURCES), shards=4, config="i2", engine=engine)
    server = Server(cluster, queue_capacity=queue_capacity, batch_size=batch_size)
    return cluster, server, generate_workload(7, 200)


def _swallow(engine: str):
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
        engine=engine,
    )
    server = Server(cluster, queue_capacity=4, batch_size=2, max_retries=3)
    return cluster, server, generate_workload(5, 30)


def _autoscale(engine: str):
    cluster = Cluster(
        list(SERVICE_SOURCES),
        shards=3,
        config="i2",
        pins={"Main": 0, "Fib": 1},
        engine=engine,
    )
    server = Server(
        cluster,
        queue_capacity=16,
        batch_size=8,
        balancer=Balancer(high_water=4, low_water=2, patience=2, budget=2),
        pump_ticks_per_round=1,
    )
    return cluster, server, generate_skewed_workload(7, 80)


CONFIGS = {
    "server-8-4": lambda engine: _plain(8, 4, engine),
    "server-1-1": lambda engine: _plain(1, 1, engine),
    "server-1-8": lambda engine: _plain(1, 8, engine),
    "swallow-retries": _swallow,
    "skewed-autoscale": _autoscale,
}

ENGINES = ("jit", "interp")


def _serve(name: str, engine: str) -> tuple[Cluster, dict]:
    """Run one configuration; return the cluster and its evidence."""
    cluster, server, workload = CONFIGS[name](engine)
    report = server.serve(workload)
    return cluster, json.loads(
        json.dumps(
            {
                "report": report.to_dict(),
                "latencies": sorted(report.latencies),
                "ticks": cluster.ticks,
                "wire_words": cluster.transport.stats.wire_words,
                "metrics": server.metrics.snapshot(),
                "meters": {str(k): v for k, v in cluster.meters().items()},
            }
        )
    )


def capture(name: str, engine: str = "jit") -> dict:
    """Run one configuration and return its JSON-safe evidence."""
    return _serve(name, engine)[1]


def _without(doc: dict) -> dict:
    doc = json.loads(json.dumps(doc))
    for key in REDEFINED:
        doc["report"].pop(key, None)
    for key in REDEFINED_METRICS:
        doc["metrics"]["counters"].pop(key, None)
    return doc


def _case_id(name: str, engine: str, keep: int | None) -> str:
    case = name if engine == "jit" else f"{name}-{engine}"
    return case if keep is None else f"{case}-keep{keep}"


@pytest.mark.parametrize(
    "name,engine,keep",
    [
        pytest.param(name, engine, keep, id=_case_id(name, engine, keep))
        for keep in (None, 1)
        for name in sorted(CONFIGS)
        for engine in ENGINES
    ],
)
def test_admission_schedule_matches_the_recorded_fixture(name, engine, keep, monkeypatch):
    if keep is not None:
        monkeypatch.setattr(shard_module, "KEEP", keep)
    golden = json.loads(FIXTURE.read_text())[name]
    cluster, evidence = _serve(name, engine)
    assert _without(evidence) == _without(golden)
    if keep is not None:
        for shard in cluster.shards:
            for table in (shard._reply_cache, shard._forwards, shard._call_forwards):
                assert len(table) <= 2 * keep


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(
        json.dumps({name: capture(name) for name in CONFIGS}, indent=1, sort_keys=True)
        + "\n"
    )
    print(f"wrote {FIXTURE}")
