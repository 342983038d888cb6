"""Adoption retires the call forwards it supersedes.

``extract`` leaves a call forward on the source for every request the
migrating process serves, so that retries and duplicates bounce to the
new home.  When the slice is adopted back onto the shard it left (the
process-mode rollback after a refused migration, or the last hop of a
there-and-back migration), that forward points away from the shard
that now serves the request.  ``adopt`` retires it, as ``reattach``
does, so a duplicate of the call meets the reply cache instead of a
bounce.
"""

from __future__ import annotations

import pytest

from repro.interp.processes import ProcessStatus
from repro.net import wire
from repro.net.cluster import Cluster
from repro.net.migrate import adopt, extract

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
#: Main calls A.f on shard 1, which calls B.g on shard 2.
PINS = {"Main": 0, "A": 1, "B": 2}


def _blocked_served(cluster: Cluster):
    """Pump until shard 1's A.f is BLOCKED on its call into B; return
    (shard, served key, process)."""
    shard = cluster.shards[1]
    while cluster.pump_tick():
        for key, process in shard._served.items():
            if process.status is ProcessStatus.BLOCKED:
                return shard, key, process
    raise AssertionError("A.f never blocked on its remote call")


@pytest.mark.parametrize("mode", ["exclusive", "shared"])
def test_adopting_back_home_retires_the_call_forward(mode):
    cluster = Cluster(SOURCES, shards=3, config="i2", pins=PINS)
    ticket = cluster.submit("Main", "main")
    shard, key, process = _blocked_served(cluster)

    slice_ = extract(shard, process, 0, mode=mode)
    assert shard._call_forwards[key] == 0
    shard.reap(process)
    adopt(shard, slice_, now=cluster.ticks)
    cluster.pump()

    assert ticket.status is ProcessStatus.DONE
    assert ticket.results == [41]
    assert key not in shard._call_forwards

    # A duplicate of the served call is answered from the reply cache;
    # nothing is spawned and nothing is forwarded.
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
