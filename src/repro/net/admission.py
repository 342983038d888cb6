"""One admission engine for both serving stacks.

In Birrell and Nelson's stub / runtime / transport split this is the
serving runtime: it decides which waiting request goes to the stub
next, and never reads a clock or talks to a shard.  Its caller passes
``now`` in its own unit (:class:`~repro.net.serve.Server`: pump ticks;
:class:`~repro.net.procserve.ProcessServer`: ``time.monotonic`` in ms),
starts what :meth:`Admission.admit` hands it, and reports each
completion through :meth:`Admission.finish`.  The policy:

* **order** — FIFO by enqueue stamp; a request that cannot be admitted
  keeps its place;
* **batching** — at most ``batch_size`` admissions per round;
* **backpressure** — at most ``queue_capacity`` in-flight requests per
  shard.  A *stall* is one (round, shard) pair in which, after the
  round's admissions, the shard is full and has due requests waiting;
* **retry with backoff** — a failed request re-enters the queue behind
  everything already there; its k-th resubmission (k = 1..max_retries)
  becomes due ``backoff_base * 2^(k-1)`` after the failure.  A failure
  after ``max_retries`` resubmissions is final: the request is lost.

A round costs O(batch + shards), plus a log factor: each shard keeps its
due requests in a heap of stamps, a round merges the heads of the shards
with room, and requests in backoff wait in one heap keyed by due time.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.errors import NetError
from repro.obs import MetricsRegistry


@dataclass(frozen=True)
class Policy:
    """The admission knobs, validated once."""

    queue_capacity: int = 8
    batch_size: int = 4
    max_retries: int = 2
    backoff_base: float = 2

    def __post_init__(self) -> None:
        for knob in ("queue_capacity", "batch_size"):
            if getattr(self, knob) < 1:
                raise NetError(f"{knob} must be >= 1, got {getattr(self, knob)}")


@dataclass
class ServeReport:
    """What a serving run did — the acceptance evidence.  ``unit`` tags
    every latency: ``"ticks"`` (pump ticks) or ``"ms"`` (wall clock)."""

    shards: int
    requests: int
    unit: str = "ticks"
    route: str | None = None
    completed: int = 0
    lost: int = 0
    wrong: int = 0
    retried: int = 0
    backpressure_stalls: int = 0
    migrations: int = 0
    ticks: int = 0
    elapsed_s: float = 0.0
    wire_words: int = 0
    wire: dict = field(default_factory=dict)
    latencies: list = field(default_factory=list)

    def percentile(self, q: float):
        """Exact latency percentile in ``unit`` (nearest-rank)."""
        if not self.latencies:
            return 0
        ordered = sorted(self.latencies)
        return ordered[max(0, min(len(ordered) - 1, round(q * (len(ordered) - 1))))]

    def to_dict(self) -> dict:
        keys = (
            "shards", "requests", "completed", "lost", "wrong", "retried",
            "backpressure_stalls",
        )
        doc = {key: getattr(self, key) for key in keys}
        if self.unit == "ticks":
            rate = round(self.completed / self.ticks, 4) if self.ticks else 0.0
            return doc | {
                "migrations": self.migrations,
                "ticks": self.ticks,
                "wire_words": self.wire_words,
                "p50_ticks": self.percentile(0.50),
                "p99_ticks": self.percentile(0.99),
                "requests_per_tick": rate,
            }
        rate = round(self.completed / self.elapsed_s, 1) if self.elapsed_s else 0.0
        return doc | {
            "route": self.route,
            "elapsed_s": round(self.elapsed_s, 3),
            "requests_per_s": rate,
            "p50_ms": round(self.percentile(0.50), 3),
            "p99_ms": round(self.percentile(0.99), 3),
            "wire": dict(self.wire),
        }


class Admission:
    """One serving run: the queue, the in-flight set, report and metrics.

    ``route(request)`` names a request's shard; ``submit(index, request,
    shard)``, passed to :meth:`admit`, starts the workload's request at
    *index* and returns a handle, kept in :attr:`live`.
    """

    def __init__(
        self,
        workload: list,
        shards,
        route,
        policy: Policy,
        metrics: MetricsRegistry,
        unit: str,
    ) -> None:
        self.requests = workload
        self.policy = policy
        self.route = route
        self.report = ServeReport(len(shards), len(workload), unit=unit)
        self.inflight = dict.fromkeys(shards, 0)
        #: index -> [handle, admitted_at, shard] per request in flight.
        self.live: dict[int, list] = {}
        self.queued = len(workload)
        self._attempts = [0] * len(workload)
        # A fresh request's stamp is its index; a retry gets a later one.
        self._due: dict[int, list[int]] = {shard: [] for shard in shards}
        for index, request in enumerate(workload):
            self._due[route(request)].append(index)  # ascending: a heap
        self._next_stamp = len(workload)
        self._retry_index: dict[int, int] = {}
        self._backoff: list[tuple] = []  # (due time, stamp, shard)
        self._latency = metrics.histogram(f"net.latency_{unit}")
        self._admitted = metrics.counter("net.admitted")
        self._stalled = metrics.counter("net.backpressure_stalls")
        self._retried = metrics.counter("net.retries")
        self._depth = metrics.gauge("net.admission_queue_depth")

    @property
    def idle(self) -> bool:
        """Nothing waiting and nothing in flight: the run is over."""
        return not self.queued and not self.live

    @property
    def next_due(self):
        """When the earliest request in backoff becomes due, or None."""
        return self._backoff[0][0] if self._backoff else None

    def admit(self, now, submit) -> bool:
        """One admission round at clock *now*.  True if the batch ran out
        while a shard with room still had due requests."""
        backoff, due, inflight = self._backoff, self._due, self.inflight
        while backoff and backoff[0][0] <= now:
            _, stamp, shard = heapq.heappop(backoff)
            heapq.heappush(due[shard], stamp)
        capacity = self.policy.queue_capacity
        heads = [
            (queue[0], shard)
            for shard, queue in due.items()
            if queue and inflight[shard] < capacity
        ]
        heapq.heapify(heads)
        admitted = 0
        while heads and admitted < self.policy.batch_size:
            stamp, shard = heads[0]
            queue = due[shard]
            heapq.heappop(queue)
            index = stamp if stamp < len(self.requests) else self._retry_index.pop(stamp)
            self._attempts[index] += 1
            self.live[index] = [submit(index, self.requests[index], shard), now, shard]
            inflight[shard] += 1
            admitted += 1
            if queue and inflight[shard] < capacity:
                heapq.heapreplace(heads, (queue[0], shard))
            else:
                heapq.heappop(heads)
        self.queued -= admitted
        self._admitted.inc(admitted)
        stalls = sum(
            1 for shard, queue in due.items() if queue and inflight[shard] >= capacity
        )
        self.report.backpressure_stalls += stalls
        self._stalled.inc(stalls)
        self._depth.set(self.queued)
        return bool(heads)

    def finish(self, index: int, results: list[int] | None, now) -> None:
        """Settle one in-flight request; *results* is None if it failed."""
        _handle, admitted_at, shard = self.live.pop(index)
        self.inflight[shard] -= 1
        report, request = self.report, self.requests[index]
        attempts = self._attempts[index]
        if results is not None:
            report.completed += 1
            report.latencies.append(now - admitted_at)
            self._latency.observe(round(now - admitted_at))
            if not results or results[-1] != request.expected:
                report.wrong += 1
        elif attempts <= self.policy.max_retries:
            report.retried += 1
            self._retried.inc()
            stamp, self._next_stamp = self._next_stamp, self._next_stamp + 1
            self._retry_index[stamp] = index
            due = now + self.policy.backoff_base * 2 ** (attempts - 1)
            heapq.heappush(self._backoff, (due, stamp, self.route(request)))
            self.queued += 1
        else:
            report.lost += 1

    def rehome(self, shard_of) -> None:
        """Recount the in-flight set by ``shard_of(handle)``: a migrated
        request counts against the shard it now runs on."""
        self.inflight = dict.fromkeys(self.inflight, 0)
        for entry in self.live.values():
            entry[2] = shard_of(entry[0])
            self.inflight[entry[2]] += 1
