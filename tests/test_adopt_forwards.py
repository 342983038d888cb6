"""Call forwards and held messages across a migration's three steps.

``settle`` leaves a call forward on the source for every request the
migrated process serves, so that retries and duplicates bounce to the
new home.  When the process migrates back to the shard it left (1 ->
spare -> 1), that forward points away from the shard that serves the
request again; ``adopt`` retires it, so a duplicate of the call meets
the reply cache instead of a bounce.  A refused migration leaves no
forward at all: ``settle`` puts the process back where it was.

Between ``extract`` and ``settle`` the source holds every message for
the process's requests, so neither a refused migration nor a retry that
arrives before the adoption can run a served call twice.  Once the
source's request tables evict a call forward, a retry of its call is
refused with an ``evicted_request`` error, neither run nor bounced.  A
spawn log on every scheduler counts the executions.
"""

from __future__ import annotations

import pytest

import repro.net.shard as shard_module
from repro.interp.processes import ProcessStatus
from repro.net import wire
from repro.net.cluster import Cluster
from repro.net.migrate import MigrateError, adopt, extract, settle

SOURCES = [
    """
MODULE Main;
PROCEDURE main(): INT;
BEGIN
  RETURN A.f(20);
END;
END.
""",
    """
MODULE A;
PROCEDURE f(x): INT;
BEGIN
  RETURN B.g(x) + 1;
END;
END.
""",
    """
MODULE B;
PROCEDURE g(x): INT;
BEGIN
  RETURN x * 2;
END;
END.
""",
]
#: Main calls A.f on shard 1, which calls B.g on shard 2; shard 3 is spare.
PINS = {"Main": 0, "A": 1, "B": 2}
SPARE = 3

#: Two roots whose A.f calls shard 1 serves at the same time.
TWO_ROOTS = """
MODULE Main;
PROCEDURE main(): INT;
BEGIN
  RETURN A.f(20) + A.f(30);
END;
PROCEDURE two(): INT;
BEGIN
  RETURN A.f(5);
END;
END.
"""


def _cluster(main: str = SOURCES[0], shards: int = 4):
    """A cluster whose schedulers log every spawn as (shard, module,
    proc, args); returns (cluster, log)."""
    cluster = Cluster([main, *SOURCES[1:]], shards=shards, config="i2", pins=PINS)
    log = []
    for shard in cluster.shards:
        def spawn(module, proc, *args, _spawn=shard.scheduler.spawn, _id=shard.id):
            log.append((_id, module, proc, args))
            return _spawn(module, proc, *args)

        shard.scheduler.spawn = spawn
    return cluster, log


def _blocked_served(cluster: Cluster, count: int = 1) -> dict:
    """Pump until shard 1 serves *count* A.f calls, each BLOCKED on its
    call into B; return them by served key."""
    shard = cluster.shards[1]
    while cluster.pump_tick():
        blocked = {
            key: process
            for key, process in shard._served.items()
            if process.status is ProcessStatus.BLOCKED
        }
        if len(blocked) == count:
            return blocked
    raise AssertionError("A.f never blocked on its remote call")


def _migrate(cluster: Cluster, source, process, dst: int, mode: str):
    """The three steps, as ``Cluster.migrate`` runs them for a served
    process (which has no ticket); returns the adopted process."""
    slice_ = extract(source, process, dst, mode=mode)
    adopted = adopt(cluster.shards[dst], slice_, now=cluster.ticks)
    settle(source, process.pid, adopted=True)
    return adopted


def _answers_duplicate_from_cache(shard, key) -> None:
    """A duplicate of the served call is answered from the reply cache;
    nothing is spawned and nothing is forwarded."""
    cached = shard._reply_cache[key]
    shard.outbox.clear()
    processes = list(shard.scheduler.processes)
    src, request_id = key
    duplicate = wire.call(
        src, shard.id, request_id, cached.body["span"], None, "A", "f", [20]
    )
    shard.deliver([duplicate])
    assert shard.outbox == [cached]
    assert shard.scheduler.processes == processes


def _retry(cluster: Cluster, key):
    """The caller's retransmission of served call *key*."""
    src, request_id = key
    return cluster.shards[src]._awaiting[request_id]["message"]


def _runs_once(cluster: Cluster, log, tickets, results) -> None:
    """Pump to the end: the roots return *results*, B.g(20) ran once,
    and no table keeps a finished process."""
    cluster.pump()
    assert [ticket.results for ticket in tickets] == results
    assert log.count((2, "B", "g", (20,))) == 1
    for shard in cluster.shards:
        assert all(p.status is not ProcessStatus.DONE for p in shard.scheduler.processes)


@pytest.mark.parametrize("mode", ["exclusive", "shared"])
def test_adopting_back_home_retires_the_call_forward(mode):
    cluster, _ = _cluster()
    ticket = cluster.submit("Main", "main")
    home, spare = cluster.shards[1], cluster.shards[SPARE]
    ((key, process),) = _blocked_served(cluster).items()

    away = _migrate(cluster, home, process, SPARE, mode)
    assert home._call_forwards[key] == SPARE
    _migrate(cluster, spare, away, home.id, mode)
    assert key not in home._call_forwards
    assert spare._call_forwards[key] == home.id
    cluster.pump()

    assert ticket.status is ProcessStatus.DONE
    assert ticket.results == [41]
    assert key not in home._call_forwards
    _answers_duplicate_from_cache(home, key)


@pytest.mark.parametrize("mode", ["exclusive", "shared"])
def test_refused_migration_settles_back_without_a_forward(mode):
    """A slice is never adopted on the shard it came from; the refusal
    settles the process back under its pid, serving the same request."""
    cluster, _ = _cluster()
    ticket = cluster.submit("Main", "main")
    home = cluster.shards[1]
    ((key, process),) = _blocked_served(cluster).items()

    slice_ = extract(home, process, SPARE, mode=mode)
    assert process not in home.scheduler.processes
    with pytest.raises(MigrateError, match="source"):
        adopt(home, slice_, now=cluster.ticks)
    settle(home, process.pid, adopted=False, now=cluster.ticks)
    assert process in home.scheduler.processes
    assert home._served[key] is process
    assert key not in home._call_forwards and not home._forwards
    cluster.pump()

    assert ticket.status is ProcessStatus.DONE
    assert ticket.results == [41]
    _answers_duplicate_from_cache(home, key)


def test_refused_migration_strands_nothing():
    """Shard 1 serves A.f(20) and A.f(5), both BLOCKED on B.g.  Moving
    A.f(20) to the busy shard 0 is refused, and so is adopting it back
    on shard 1; the process settles back on shard 1, where a retry of
    its call is a duplicate, not a bounce to shard 0 that would run
    A.f(20) and B.g(20) again."""
    cluster, log = _cluster(TWO_ROOTS, shards=3)
    tickets = [cluster.submit("Main", "main"), cluster.submit("Main", "two")]
    home = cluster.shards[1]
    served = _blocked_served(cluster, count=2)
    key, process = next((key, p) for key, p in served.items() if p.args == (20,))
    assert key == (0, 0)

    slice_ = extract(home, process, 0, mode="exclusive")
    for shard in (cluster.shards[0], home):
        with pytest.raises(MigrateError):
            adopt(shard, slice_, now=cluster.ticks)
    settle(home, process.pid, adopted=False, now=cluster.ticks)
    home.deliver([_retry(cluster, key)])
    assert home.drain_outbox() == []
    _runs_once(cluster, log, tickets, [[102], [11]])


def test_a_retry_in_the_migration_window_is_held():
    """A retry that reaches shard 1 between the extract of its serving
    A.f and the adoption on shard 3 waits for the migration to settle,
    then bounces to shard 3, which already serves it: B.g(20) runs once
    and no table keeps a DONE A.f."""
    cluster, log = _cluster()
    ticket = cluster.submit("Main", "main")
    home, spare = cluster.shards[1], cluster.shards[SPARE]
    ((key, process),) = _blocked_served(cluster).items()

    slice_ = extract(home, process, SPARE, mode="shared")
    home.deliver([_retry(cluster, key)])
    assert home.drain_outbox() == []
    adopt(spare, slice_, now=cluster.ticks)
    settle(home, process.pid, adopted=True)
    (bounce,) = home.drain_outbox()
    assert (bounce.kind, bounce.src, bounce.dst) == ("call", 0, SPARE)
    spare.deliver([bounce])
    _runs_once(cluster, log, [ticket], [[41]])


@pytest.mark.parametrize("mode", ["exclusive", "shared"])
def test_a_retry_past_an_evicted_call_forward_is_refused(mode, monkeypatch):
    """With ``KEEP`` at 1, two newer call forwards on shard 1 evict the
    one toward the adopted A.f.  The caller's retry then meets an
    ``evicted_request`` error there: shard 1 spawns nothing and bounces
    nothing, and the adopted A.f still answers the root."""
    monkeypatch.setattr(shard_module, "KEEP", 1)
    cluster, log = _cluster()
    ticket = cluster.submit("Main", "main")
    home = cluster.shards[1]
    ((key, process),) = _blocked_served(cluster).items()

    _migrate(cluster, home, process, SPARE, mode)
    src, request_id = key
    for later in (request_id + 1, request_id + 2):
        home.remember(home._call_forwards, (src, later), SPARE)
    assert key not in home._call_forwards
    spawned = len(log)
    home.deliver([_retry(cluster, key)])
    (refusal,) = home.drain_outbox()
    assert (refusal.kind, refusal.dst, refusal.body["id"]) == ("error", src, request_id)
    assert refusal.body["trap"] == "evicted_request"
    assert len(log) == spawned
    _runs_once(cluster, log, [ticket], [[41]])
