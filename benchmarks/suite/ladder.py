"""The host-cost ladder: one request's host cost, layer by layer.

The same seeded service requests run one at a time through successive
rungs.  Each rung adds one layer of the Birrell-Nelson split (stub, RPC
runtime, transport) to its base (:data:`BASE`: the rung before it, except
that r2's base is r1-interp), so the difference between a rung and its
base is what that layer costs a request:

* ``r1-interp`` / ``r1-jit``: a bare machine, ``Main.dispatch`` run by
  ``Machine.run`` (interpreter, then JIT), every module local;
* ``r2-inproc``: ``Cluster.call`` over 2 shards, Main pinned apart from
  the leaf modules, so each request makes one Remote XFER over
  ``InProcessTransport``;
* ``r3-socket``: the same over ``SocketTransport``;
* ``r4-frontdoor``: ``ProcessCluster.call`` with the same pins, two
  forked workers behind the asyncio front door;
* ``r5-procserver``: ``ProcessServer(queue_capacity=1, batch_size=1)``
  on the dispatch route over that cluster.

Every rung runs twice on a fresh system.  A delta smaller than its
two-run spread prints as ``unresolved``.  r2 and
r3 differ only in transport, so their modelled meters must be identical.
"""

from __future__ import annotations

import json
import time

from repro.interp.machineconfig import MachineConfig
from repro.net.cluster import Cluster, build_shard_machine
from repro.net.procserve import ProcessCluster, ProcessServer
from repro.net.serve import SERVICE_SOURCES
from repro.net.transport import SocketTransport

import workloads as wl
from hostspeed import sampled

REQUESTS = 1000
RUNS = 2
PINS = {"Main": 0, "Fib": 1, "Gauss": 1, "Gcd": 1, "Pow": 1}
RUNGS = ("r1-interp", "r1-jit", "r2-inproc", "r3-socket", "r4-frontdoor", "r5-procserver")
#: The rung each rung adds a layer to.  Shards run the interpreter, so
#: r2's base is r1-interp, not r1-jit.
BASE = {
    "r1-jit": "r1-interp",
    "r2-inproc": "r1-interp",
    "r3-socket": "r2-inproc",
    "r4-frontdoor": "r3-socket",
    "r5-procserver": "r4-frontdoor",
}
SINGLE_THREADED = ("r1-interp", "r1-jit", "r2-inproc", "r3-socket")


def _cycles(meters: dict) -> int:
    return sum(entry["counter"]["cycles"] for entry in meters.values())


def _machine(requests, engine: str):
    machine = build_shard_machine(list(SERVICE_SOURCES), MachineConfig.preset("i2"), engine=engine)
    wrong = 0
    begin = time.monotonic()
    for request in requests:
        machine.stack.clear()
        machine.start("Main", "dispatch", request.op, request.a, request.b)
        if machine.run() != [request.expected]:
            wrong += 1
    return (begin, time.monotonic()), {0: {"counter": machine.counter.snapshot()}}, wrong


def _cluster(requests, transport=None):
    cluster = Cluster(list(SERVICE_SOURCES), shards=2, config="i2", pins=PINS, transport=transport)
    try:
        wrong = 0
        begin = time.monotonic()
        for request in requests:
            if cluster.call("Main", "dispatch", request.op, request.a, request.b)[-1:] != [
                request.expected
            ]:
                wrong += 1
        return (begin, time.monotonic()), cluster.meters(), wrong
    finally:
        cluster.close()


def _frontdoor(requests, server: bool):
    cluster = ProcessCluster(list(SERVICE_SOURCES), shards=2, config="i2", pins=PINS)
    try:
        wrong = 0
        begin = time.monotonic()
        if server:
            report = ProcessServer(
                cluster, route="dispatch", queue_capacity=1, batch_size=1
            ).serve(requests)
            wrong = report.wrong + report.lost
        else:
            for request in requests:
                if cluster.call("Main", "dispatch", request.op, request.a, request.b)[-1:] != [
                    request.expected
                ]:
                    wrong += 1
        end = time.monotonic()
        return (begin, end), cluster.meters(), wrong
    finally:
        cluster.close()


def _rung(name: str, requests):
    if name == "r1-interp":
        return _machine(requests, "interp")
    if name == "r1-jit":
        return _machine(requests, "jit")
    if name == "r2-inproc":
        return _cluster(requests)
    if name == "r3-socket":
        return _cluster(requests, SocketTransport())
    return _frontdoor(requests, server=(name == "r5-procserver"))


def main(seed: int) -> int:
    stream = wl.service_requests(seed)
    requests = [next(stream) for _ in range(REQUESTS)]
    us = {name: [] for name in RUNGS}
    cycles: dict[str, float] = {}
    meters: dict[str, list] = {name: [] for name in RUNGS}
    wrong = 0
    for _ in range(RUNS):
        for name in RUNGS:
            with sampled(single_threaded=name in SINGLE_THREADED) as speed:
                (begin, end), rung_meters, rung_wrong = _rung(name, requests)
            us[name].append((end - begin) / speed.factor(begin, end) / REQUESTS * 1e6)
            cycles[name] = _cycles(rung_meters) / REQUESTS
            meters[name].append(rung_meters)
            wrong += rung_wrong

    same = json.dumps(meters["r2-inproc"], sort_keys=True) == json.dumps(
        meters["r3-socket"], sort_keys=True
    )
    metrics = {}
    for name in RUNGS:
        mean = sum(us[name]) / RUNS
        metrics[f"ladder.us_per_req.{name}"] = {"value": mean, "unit": "us"}
        metrics[f"ladder.cycles_per_req.{name}"] = {"value": cycles[name], "unit": "cycles"}
        runs = ", ".join(f"{value:.1f}" for value in us[name])
        line = f"ladder.us_per_req.{name} {mean:.1f} us (runs: {runs})"
        line += f"  ladder.cycles_per_req.{name} {cycles[name]:.1f} cycles"
        base = BASE.get(name)
        if base is not None:
            deltas = [now - before for now, before in zip(us[name], us[base])]
            delta = sum(deltas) / RUNS
            spread = max(deltas) - min(deltas)
            verdict = "unresolved" if abs(delta) < spread else f"{delta:+.1f} us"
            line += f"  delta vs {base}: {verdict} (spread {spread:.1f} us)"
            if verdict != "unresolved":
                metrics[f"ladder.delta_us.{name}"] = {"value": delta, "unit": "us"}
        print(line)
    print(f"r2-inproc and r3-socket modelled meters identical: {same}")
    print(json.dumps({
        "correct": wrong == 0 and same,
        "attempted": REQUESTS * RUNS * len(RUNGS),
        "failed": wrong,
        "metrics": metrics,
    }))
    if not same:
        return 2
    return 0 if wrong == 0 else 1
