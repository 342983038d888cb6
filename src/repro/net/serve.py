"""The serving layer in-process: a shard pool driven by a seeded load generator.

``repro serve`` builds a :class:`~repro.net.cluster.Cluster` whose
image is a small multi-module *service* program, and a :class:`Server`
drives it through the admission engine of :mod:`repro.net.admission`
(batching, backpressure, retry with backoff, latency percentiles and
the ``net.*`` metrics), in pump ticks.

``repro loadgen`` produces the workload: a seeded, reproducible request
sequence whose expected results are computed host-side, so the report
can verify **zero lost requests and zero wrong answers** — the
acceptance bar for the serving path.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, fields

from repro.errors import NetError
from repro.interp.processes import ProcessStatus
from repro.net.admission import Admission, Policy, ServeReport
from repro.net.cluster import Cluster, Ticket
from repro.obs import MetricsRegistry

#: The service program: four leaf modules behind a dispatcher, so a
#: multi-shard placement exercises Remote XFER on nearly every request.
SERVICE_SOURCES: tuple[str, ...] = (
    """
MODULE Main;
PROCEDURE main(): INT;
BEGIN
  RETURN 0;
END;
PROCEDURE dispatch(op, a, b): INT;
BEGIN
  IF op = 0 THEN RETURN Fib.fib(a); END;
  IF op = 1 THEN RETURN Gauss.sum(a); END;
  IF op = 2 THEN RETURN Gcd.gcd(a, b); END;
  RETURN Pow.power(a, b);
END;
END.
""",
    """
MODULE Fib;
PROCEDURE fib(n): INT;
BEGIN
  IF n < 2 THEN RETURN n; END;
  RETURN Fib.fib(n - 1) + Fib.fib(n - 2);
END;
END.
""",
    """
MODULE Gauss;
PROCEDURE sum(n): INT;
VAR acc: INT;
BEGIN
  acc := 0;
  WHILE n > 0 DO
    acc := acc + n;
    n := n - 1;
  END;
  RETURN acc;
END;
END.
""",
    """
MODULE Gcd;
PROCEDURE gcd(a, b): INT;
BEGIN
  WHILE b # 0 DO
    a := a MOD b;
    IF a = 0 THEN RETURN b; END;
    b := b MOD a;
  END;
  RETURN a;
END;
END.
""",
    """
MODULE Pow;
PROCEDURE power(base, exponent): INT;
VAR result: INT;
BEGIN
  result := 1;
  WHILE exponent > 0 DO
    result := result * base;
    exponent := exponent - 1;
  END;
  RETURN result;
END;
END.
""",
)


def _fib(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


@dataclass(frozen=True, slots=True)
class Request:
    """One loadgen request and its host-computed expected result.

    Slotted: a scale run materializes millions of these."""

    index: int
    op: int
    a: int
    b: int
    expected: int

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> Request:
        return cls(**{f.name: data[f.name] for f in fields(cls)})


def _request(rng: random.Random, index: int, op: int, fib_low: int = 1) -> Request:
    """Draw one request's arguments for *op* and compute its answer."""
    if op == 0:  # Fib.fib
        a, b = rng.randrange(fib_low, 13), 0
        expected = _fib(a)
    elif op == 1:  # Gauss.sum
        a, b = rng.randrange(1, 40), 0
        expected = a * (a + 1) // 2
    elif op == 2:  # Gcd.gcd
        a, b = rng.randrange(1, 500), rng.randrange(1, 500)
        expected = math.gcd(a, b)
    else:  # Pow.power
        a, b = rng.randrange(2, 6), rng.randrange(0, 7)
        expected = a**b
    return Request(index=index, op=op, a=a, b=b, expected=expected)


def generate_workload(seed: int, requests: int) -> list[Request]:
    """A seeded request sequence with known answers (``repro loadgen``)."""
    rng = random.Random(seed)
    return [_request(rng, index, rng.randrange(4)) for index in range(requests)]


def generate_skewed_workload(
    seed: int, requests: int, hot_fraction: float = 0.9
) -> list[Request]:
    """A hot-key workload: ``hot_fraction`` of the requests are ``Fib``
    calls (op 0, on 6..12), the rest spread over the other operations.

    This is the autoscaling benchmark's load shape — with ``Main``
    pinned to one shard, the dispatcher's home runs persistently hot
    while its peers idle, which is exactly the imbalance the
    :class:`~repro.net.balance.Balancer` exists to drain.
    """
    if not 0.0 <= hot_fraction <= 1.0:
        raise NetError(f"hot_fraction must be in [0, 1], got {hot_fraction}")
    rng = random.Random(seed)
    return [
        _request(rng, index, 0 if rng.random() < hot_fraction else rng.randrange(1, 4), 6)
        for index in range(requests)
    ]


class Server:
    """The admission engine over a :class:`Cluster`, clocked in pump ticks.

    A round admits through :meth:`Cluster.submit`, then pumps: to
    quiescence by default, or at most ``pump_ticks_per_round`` ticks, so
    requests stay in flight across rounds and an attached
    :class:`~repro.net.balance.Balancer` sees deep queues.  The balancer
    observes after every round's pumping (a block boundary, where
    migration is legal).
    """

    def __init__(
        self,
        cluster: Cluster,
        queue_capacity: int = 8,
        batch_size: int = 4,
        max_retries: int = 2,
        backoff_base: int = 2,
        metrics: MetricsRegistry | None = None,
        balancer=None,
        pump_ticks_per_round: int | None = None,
    ) -> None:
        self.policy = Policy(queue_capacity, batch_size, max_retries, backoff_base)
        if pump_ticks_per_round is not None and pump_ticks_per_round < 1:
            raise NetError(
                f"pump_ticks_per_round must be >= 1, got {pump_ticks_per_round}"
            )
        self.cluster = cluster
        self.metrics = metrics or MetricsRegistry()
        self.balancer = balancer
        self.pump_ticks_per_round = pump_ticks_per_round
        if balancer is not None:
            # One registry end to end: the balancer reads the latency
            # histogram and publishes its gauges where the report looks.
            balancer.metrics = self.metrics

    def _submit(self, _index: int, request: Request, _shard: int) -> Ticket:
        return self.cluster.submit(
            "Main", "dispatch", request.op, request.a, request.b
        )

    def serve(self, workload: list[Request], max_rounds: int = 1_000_000) -> ServeReport:
        """Run the whole workload to completion and report.

        Latency runs from the admitting round's tick to the end of the
        round that harvests the completion.  Requests that fault in the
        same round re-enter the queue in request-index order, so the
        same seed and knobs give the same schedule on every run.
        """
        cluster = self.cluster
        home = cluster.placement.home
        engine = Admission(
            workload,
            [shard.id for shard in cluster.shards],
            lambda _request: home("Main"),
            self.policy,
            self.metrics,
            unit="ticks",
        )
        report = engine.report
        start_tick = cluster.ticks
        rounds = 0
        while True:
            rounds += 1
            if rounds > max_rounds:
                raise NetError(
                    f"serve did not finish within {max_rounds} rounds "
                    f"({engine.queued} request(s) still waiting)"
                )
            engine.admit(cluster.ticks, self._submit)

            if self.pump_ticks_per_round is None:
                cluster.pump()
            else:
                for _ in range(self.pump_ticks_per_round):
                    if not cluster.pump_tick():
                        break

            if self.balancer is not None:
                live = [engine.live[index][0] for index in sorted(engine.live)]
                moved = self.balancer.observe(cluster, live)
                if moved:
                    report.migrations += moved
                    engine.rehome(lambda ticket: ticket.shard_id)

            for index in sorted(i for i, entry in engine.live.items() if entry[0].done):
                ticket = engine.live[index][0]
                ok = ticket.status is ProcessStatus.DONE
                engine.finish(index, ticket.results if ok else None, cluster.ticks)
            if engine.idle:
                break

        report.ticks = cluster.ticks - start_tick
        report.wire_words = cluster.transport.stats.wire_words
        return report


def run_serve(
    shards: int = 4,
    requests: int = 100,
    seed: int = 7,
    config: str = "i2",
    queue_capacity: int = 8,
    batch_size: int = 4,
    transport=None,
    record: bool = False,
) -> tuple[ServeReport, Cluster, MetricsRegistry]:
    """Build the service cluster, run a seeded workload, return evidence."""
    cluster = Cluster(
        list(SERVICE_SOURCES),
        shards=shards,
        config=config,
        transport=transport,
        record=record,
    )
    server = Server(cluster, queue_capacity=queue_capacity, batch_size=batch_size)
    return server.serve(generate_workload(seed, requests)), cluster, server.metrics
