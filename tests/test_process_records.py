"""The process documents, pinned against a recorded fixture.

A process's state leaves a shard in three documents: a
``repro-snapshot/3`` capture, a ``repro-migrate/2`` slice, and a
worker's ``status`` rows.  ``tests/fixtures/process_records.json``
holds, on I2 and I4, the first two for one moment of a split run:
``mathlib`` on 3 shards with ``Main`` pinned to shard 0 and ``Math``
to shard 1, stopped at the first pump tick at or after 2 where the
root is BLOCKED on its remote call.  It records shard 0's capture, the
root's exclusive slice, and the ``process`` record of its shared
slice.

Regenerate (only when a format change is intended, which also bumps
the schema it changes)::

    PYTHONPATH=src python -m tests.test_process_records
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.faults.snapshot import capture
from repro.interp.processes import ProcessStatus
from repro.net import wire
from repro.net.cluster import Cluster
from repro.net.migrate import extract
from repro.workloads.programs import program

FIXTURE = Path(__file__).parent / "fixtures" / "process_records.json"
PROG = program("mathlib")
PINS = {"Main": 0, "Math": 1}
PRESETS = ("i2", "i4")


def _plain(doc):
    return json.loads(json.dumps(doc))


def _blocked_root(config: str):
    """A fresh split run, pumped to the first tick >= 2 where the root
    is BLOCKED; returns (cluster, ticket)."""
    cluster = Cluster(list(PROG.sources), shards=3, config=config, pins=PINS)
    ticket = cluster.submit(PROG.entry[0], PROG.entry[1], *PROG.args)
    while cluster.pump_tick():
        if cluster.ticks >= 2 and ticket.process.status is ProcessStatus.BLOCKED:
            return cluster, ticket
    raise AssertionError(f"{config}: the root never blocked")


def _slice(config: str, mode: str) -> tuple[dict, dict]:
    """Shard 0's capture, then the root's slice in *mode*."""
    cluster, ticket = _blocked_root(config)
    shard = cluster.shards[ticket.shard_id]
    state = capture(shard.machine, shard.scheduler)
    return state, extract(shard, ticket.process, 2, mode=mode)


def documents(config: str) -> dict:
    """The three recorded documents for one preset, JSON-safe."""
    state, exclusive = _slice(config, "exclusive")
    _, shared = _slice(config, "shared")
    # The shared record is pinned without its pid, which the test checks
    # against the live process instead.
    shared_process = {k: v for k, v in shared["process"].items() if k != "pid"}
    return _plain(
        {
            "capture": state,
            "exclusive_slice": exclusive,
            "shared_process": shared_process,
        }
    )


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("config", PRESETS)
def test_capture_and_exclusive_slice_match_the_fixture(config, golden):
    state, exclusive = _slice(config, "exclusive")
    assert _plain(state) == golden[config]["capture"]
    assert _plain(exclusive) == golden[config]["exclusive_slice"]


@pytest.mark.parametrize("config", PRESETS)
def test_shared_slice_process_record_only_gains_the_pid(config, golden):
    cluster, ticket = _blocked_root(config)
    pid = ticket.process.pid
    record = _plain(extract(cluster.shards[0], ticket.process, 2, mode="shared"))[
        "process"
    ]
    recorded = golden[config]["shared_process"]
    assert set(record) - set(recorded) == {"pid"}
    assert record["pid"] == pid
    assert {key: record[key] for key in recorded} == recorded


def test_worker_status_rows_are_process_records():
    import socket

    from repro.faults.snapshot import process_record
    from repro.net.worker import FRONT_DOOR, Worker, worker_specs

    ours, theirs = socket.socketpair()
    ours.settimeout(5.0)
    spec = worker_specs(list(PROG.sources), shards=2, entry=PROG.entry, pins=PINS)[0]
    worker = Worker(theirs, spec)
    try:
        for rid in (1, 2):
            call = wire.call(
                FRONT_DOOR, 0, rid, f"{FRONT_DOOR}:{rid}", None, "Main", "main", []
            )
            worker._dispatch(call.encode())
            worker.pump_once()
        processes = worker.shard.scheduler.processes
        assert [p.status for p in processes] == [ProcessStatus.BLOCKED] * 2
        rows = worker.status()
        assert rows == [_plain(process_record(p)) for p in processes]
        assert all(row["remote"] is not None for row in rows)
    finally:
        ours.close()
        theirs.close()


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(
        json.dumps({config: documents(config) for config in PRESETS}, sort_keys=True)
        + "\n"
    )
    print(f"wrote {FIXTURE}")
