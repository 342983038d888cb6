"""The benchmark's four workloads: what runs, how it is timed, how it is checked.

Each workload builds its system, checks the modelled-meter oracle on the
fresh system, runs one warm-up chunk, then times a fixed number of
seeded chunks of operations (:func:`chunk_count`).  An operation is one
``Main.main(n)`` run on ``calldense`` and one service request on the
``serve-*`` workloads.  Every operation's answer is compared with a
value the benchmark computes itself.

The program is timed only from outside: the benchmark calls public
functions (``Machine.run``, ``Server.serve``, ``ProcessServer.serve``)
and, for per-request latency, wraps the cluster's ``submit``/``pump``
or ``call_async`` on the one instance it measures.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import os
import random
import resource
import time
from dataclasses import dataclass, field

import repro.jit
from repro.interp.machine import Machine
from repro.interp.machineconfig import MachineConfig
from repro.lang import compiler, linker
from repro.net.cluster import Cluster
from repro.net.procserve import ProcessCluster, ProcessServer
from repro.net.serve import SERVICE_SOURCES, Request, Server, generate_workload

#: The call-dense program of the HOST experiment: four tiny procedures,
#: a call or return every few instructions (the paper's section 7 shape).
#: Kept here verbatim so the benchmark's input cannot drift.
CALL_DENSE = """
MODULE Main;
VAR acc: INT;
PROCEDURE inc(x): INT;
BEGIN
  RETURN x + 1;
END;
PROCEDURE double(x): INT;
BEGIN
  RETURN x + x;
END;
PROCEDURE combine(a, b): INT;
BEGIN
  RETURN inc(a) + double(b);
END;
PROCEDURE step(x): INT;
BEGIN
  RETURN combine(inc(x), double(x));
END;
PROCEDURE main(n): INT;
VAR i: INT;
BEGIN
  acc := 0;
  i := 0;
  WHILE i < n DO
    acc := acc + step(i);
    i := i + 1;
  END;
  RETURN acc;
END;
END.
"""

PRESETS = ("i1", "i2", "i3", "i4")
ENGINES = ("interp", "jit")
COMBOS = tuple((preset, engine) for preset in PRESETS for engine in ENGINES)

#: ``Main.main(n)`` argument range per engine.  The JIT runs 1.5-5x more
#: steps/s, so it gets larger n; an operation takes a few milliseconds to
#: a few tens, and a run has over 1,000 operations.
CALL_DENSE_N = {"interp": (10, 40), "jit": (60, 240)}

#: The seed of the committed modelled-meter reference (reference.json).
REFERENCE_SEED = 7
REFERENCE_N = 30
REFERENCE_REQUESTS = 200

#: Builds per run; ``setup_s`` is their median.  Half run before the
#: measured chunks and half after, because back-to-back builds all see
#: the same moment's host: in process mode their times moved together
#: by up to 2x from one run to the next.
SETUP_REPEATS = 10

#: The host-side step budget of a calldense machine.  ``step_limit`` is
#: cumulative over a machine's life and defaults to 5M, which a long
#: JIT run can reach; it changes no modelled number.
STEP_BUDGET = 10**9


def to_signed(word: int) -> int:
    return ((word + 0x8000) & 0xFFFF) - 0x8000


def call_dense_result(n: int) -> int:
    """``Main.main(n)``: the sum of step(i) = 5i + 2, in 16-bit words."""
    return to_signed(5 * n * (n - 1) // 2 + 2 * n)


def service_result(op: int, a: int, b: int) -> int:
    if op == 0:
        x, y = 0, 1
        for _ in range(a):
            x, y = y, x + y
        return x
    if op == 1:
        return a * (a + 1) // 2
    if op == 2:
        return math.gcd(a, b)
    return a**b


def service_requests(seed: int):
    """Endless seeded service requests, dealt in decks of 48.

    The op and argument ranges are those of ``generate_workload``, but
    every deck holds each ``Fib.fib(1..12)`` exactly once, one per group
    of 4 consecutive requests (a ``Server`` admission batch).  Fib calls
    are most of the work (fib(12) alone is ~50 ms on a bare I2 machine
    at reference host speed), so a
    deck costs nearly the same on every seed, and no batch holds two
    large fib calls by chance.  The seed moves the order and the cheap
    arguments, not the amount of work or how it clusters.
    """
    rng = random.Random(seed)
    index = 0
    while True:
        fibs = list(range(1, 13))
        rng.shuffle(fibs)
        others = [(1, rng.randrange(1, 40), 0) for _ in range(12)]
        others += [(2, rng.randrange(1, 500), rng.randrange(1, 500)) for _ in range(12)]
        others += [(3, rng.randrange(2, 6), rng.randrange(0, 7)) for _ in range(12)]
        rng.shuffle(others)
        for group, a in enumerate(fibs):
            batch = [(0, a, 0), *others[3 * group : 3 * group + 3]]
            rng.shuffle(batch)
            for op, x, y in batch:
                yield Request(index, op, x, y, service_result(op, x, y))
                index += 1


# -- host resources ------------------------------------------------------------


def worker_pids(exclude: tuple = ()) -> list[int]:
    return [child.pid for child in multiprocessing.active_children() if child.pid not in exclude]


def _proc_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_peak_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def cpu_seconds(pids: list[int]) -> float:
    """CPU of this process (all threads) plus that of *pids*."""
    return time.process_time() + sum(_proc_cpu_s(pid) for pid in pids)


def peak_rss_mb(pids: list[int]) -> float:
    """Peak RSS of this process plus that of its largest worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = max((_proc_peak_kb(pid) for pid in pids), default=0)
    return (own + workers) / 1024


# -- measurement ---------------------------------------------------------------


def nearest_rank(values: list[float], q: float) -> float:
    """The nearest-rank percentile *q* of the run's operations.

    Over the whole run, not per window: in process mode the p50 and p99
    of one 1,000-request window differ from the next by 10-14%, and over
    the same forty runs the median over windows spread more than the
    run-wide percentile in 6 of 8 cases (0.04-0.14 against 0.035-0.11,
    interquartile range over median).  Every run has over 1,000
    operations, so p99 has at least 10 beyond it."""
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1))]


@dataclass
class Phase:
    """What one measured phase saw.  Stamps are ``time.monotonic``."""

    #: (start, end) of every operation that completed.
    spans: list[tuple[float, float]] = field(default_factory=list)
    begin: float = 0.0
    end: float = 0.0
    cpu: float = 0.0
    frontdoor_cpu: float = 0.0
    attempted: int = 0
    lost: int = 0
    wrong: int = 0
    stalls: int = 0
    chunks: int = 0
    #: Per calldense combo: [steps, seconds inside Machine.run].
    engine_time: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return self.lost + self.wrong

    @property
    def wall(self) -> float:
        return self.end - self.begin


def build(workload, repeats: int):
    """Build *repeats* times; keep the last system; return it with the
    (start, end) stamps of every build."""
    spans = []
    system = None
    for _ in range(repeats):
        if system is not None:
            workload.close(system)
        begin = time.monotonic()
        system = workload.build()
        spans.append((begin, time.monotonic()))
    return system, spans


def warm_up(workload, system):
    """Run the first chunk uncounted; return the rest of the chunk stream."""
    stream = workload.chunks()
    workload.run_chunk(system, next(stream), Phase())
    return stream


def chunk_count(workload, seconds: float) -> int:
    """Chunks that take about *seconds* on the 2-core reference box at
    reference host speed (see ``hostspeed``).

    The work of a run is fixed by ``--seconds``, not by the clock: a
    faster commit does the same work in less time, so counts that grow
    with the work done (peak RSS, process tables) compare like with like.
    """
    return max(1, round(seconds * workload.chunks_per_second))


def measure(workload, system, stream, chunks: int, exclude: tuple = (),
            deadline: float = math.inf) -> Phase:
    """Run *chunks* chunks of the stream and time them; start no chunk
    after *deadline* (a ``time.monotonic`` stamp).  The CPU of child
    processes counts, except that of the pids in *exclude*."""
    phase = Phase()
    pids = worker_pids(exclude)
    cpu_before = cpu_seconds(pids)
    own_before = time.process_time()
    phase.begin = time.monotonic()
    while phase.chunks < chunks and time.monotonic() < deadline:
        workload.run_chunk(system, next(stream), phase)
        phase.chunks += 1
    phase.end = time.monotonic()
    phase.cpu = cpu_seconds(pids) - cpu_before
    phase.frontdoor_cpu = time.process_time() - own_before
    return phase


# -- calldense -----------------------------------------------------------------


class CallDense:
    """The paper's own traffic on I1-I4, interpreter and JIT."""

    name = "calldense"
    single_threaded = True
    chunk = 16
    chunks_per_second = 3.3

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def build(self) -> dict:
        machines = {}
        for preset, engine in COMBOS:
            config = MachineConfig.preset(preset, step_limit=STEP_BUDGET)
            options = compiler.CompileOptions.for_config(config)
            modules = compiler.compile_program([CALL_DENSE], options)
            machine = Machine(linker.link(modules, config, ("Main", "main")))
            if engine == "jit":
                repro.jit.install_jit(machine)
            machines[(preset, engine)] = machine
        return machines

    def close(self, system) -> None:
        pass

    def reply_cache_len(self, system) -> None:
        return None

    def reference(self, system) -> dict:
        runs = {}
        for (preset, engine), machine in system.items():
            results = self._run(machine, REFERENCE_N)
            runs[f"{preset}/{engine}"] = {
                "results": results,
                "steps": machine.steps,
                "counter": machine.counter.snapshot(),
            }
        return {"n": REFERENCE_N, "runs": runs}

    @staticmethod
    def _run(machine, n: int) -> list[int]:
        machine.stack.clear()
        machine.start("Main", "main", n)
        return machine.run()

    def chunks(self):
        rng = random.Random(self.seed)
        while True:
            ops = []
            for _ in range(self.chunk // len(COMBOS)):
                for combo in COMBOS:
                    low, high = CALL_DENSE_N[combo[1]]
                    n = rng.randint(low, high)
                    ops.append((combo, n, call_dense_result(n)))
            rng.shuffle(ops)
            yield ops

    def run_chunk(self, system, ops, phase: Phase) -> None:
        for combo, n, expected in ops:
            machine = system[combo]
            steps = machine.steps
            begin = time.monotonic()
            results = self._run(machine, n)
            end = time.monotonic()
            phase.attempted += 1
            phase.spans.append((begin, end))
            entry = phase.engine_time.setdefault(combo, [0, 0.0])
            entry[0] += machine.steps - steps
            entry[1] += end - begin
            if results != [expected]:
                phase.wrong += 1

    def snapshot(self, system) -> dict:
        out = _modelled(
            (preset, machine.counter.snapshot())
            for (preset, _engine), machine in system.items()
        )
        for (_preset, engine), machine in system.items():
            out["steps"] += machine.steps
            cache = machine.linkage_cache.stats() if machine.linkage_cache else {}
            out["linkage_hits"] += cache.get("hits", 0)
            out["linkage_misses"] += cache.get("misses", 0)
            if engine == "jit":
                out["jit_deopts"] += machine.engine.stats.deopts
                out["jit_blocks"] += machine.engine.cache.stats()["blocks"]
        return out


def _modelled(counters) -> dict:
    """Sum (preset, counter snapshot) pairs into the modelled meters the
    per-layer metrics read."""
    out = dict.fromkeys(
        (
            "steps", "cycles", "memory_refs", "allocator_traps", "bank_flushes",
            "linkage_hits", "linkage_misses", "jit_deopts", "jit_blocks",
            "remote_calls", "ticks", "wire_words", "messages", "frames",
        ),
        0,
    )
    for preset in PRESETS:
        out[f"fast.{preset}"] = out[f"slow.{preset}"] = 0
    for preset, counter in counters:
        out["cycles"] += counter["cycles"]
        out["memory_refs"] += counter["memory_read"] + counter["memory_write"]
        out["allocator_traps"] += counter["allocator_trap"]
        out["bank_flushes"] += counter["bank_flush"]
        out[f"fast.{preset}"] += counter["fast_transfer"]
        out[f"slow.{preset}"] += counter["slow_transfer"]
    return out


# -- serve-inproc --------------------------------------------------------------


def _settle(phase: Phase, requests: list, report, wrong_before: int) -> None:
    """Count one served chunk.  The server compares each result with its
    request's ``expected``; the benchmark's wrapper re-checks every
    result from outside.  A wrong answer counts once, whichever saw it."""
    phase.attempted += len(requests)
    phase.lost += report.lost
    phase.wrong = wrong_before + max(report.wrong, phase.wrong - wrong_before)
    phase.stalls += report.backpressure_stalls


class _RequestClock:
    """Host latency and answers of in-process requests, seen from outside.

    Wraps ``submit`` and ``pump`` on one cluster instance: a request is
    timed from its submission to the end of the first pump after which
    its ticket is done."""

    def __init__(self, cluster: Cluster) -> None:
        self.open: list[tuple] = []
        self.phase: Phase | None = None
        self.expected: dict = {}
        submit, pump = cluster.submit, cluster.pump

        def timed_submit(module, proc, *args):
            ticket = submit(module, proc, *args)
            self.open.append((ticket, time.monotonic()))
            return ticket

        def timed_pump(*args, **kwargs):
            ticks = pump(*args, **kwargs)
            now = time.monotonic()
            still = []
            for ticket, begin in self.open:
                if not ticket.done:
                    still.append((ticket, begin))
                elif ticket.status.value == "done" and self.phase is not None:
                    self.phase.spans.append((begin, now))
                    results = ticket.results
                    if not results or results[-1] != self.expected[ticket.args]:
                        self.phase.wrong += 1
            self.open = still
            return ticks

        cluster.submit = timed_submit
        cluster.pump = timed_pump


class ServeInProc:
    """``repro serve``'s default stack: 4 in-process I2 shards."""

    name = "serve-inproc"
    single_threaded = True
    #: Requests per ``Server.serve`` call: long enough for the admission
    #: loop's per-call cost, which grows with the requests it tracks.
    chunk = 480
    chunks_per_second = 0.3
    shards = 4

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def build(self) -> Cluster:
        cluster = Cluster(list(SERVICE_SOURCES), shards=self.shards, config="i2")
        cluster.clock = _RequestClock(cluster)
        return cluster

    def close(self, system) -> None:
        pass

    def reference(self, cluster) -> dict:
        report = Server(cluster, queue_capacity=8, batch_size=4).serve(
            generate_workload(REFERENCE_SEED, REFERENCE_REQUESTS)
        )
        if report.wrong or report.lost:
            raise AssertionError(
                f"serve-inproc reference slice: {report.wrong} wrong, {report.lost} lost"
            )
        return {
            "requests": REFERENCE_REQUESTS,
            "meters": cluster.meters(),
            "ticks": report.ticks,
            "wire_words": report.wire_words,
            "p50_ticks": report.percentile(0.50),
            "p99_ticks": report.percentile(0.99),
            "completed": report.completed,
        }

    def chunks(self):
        stream = service_requests(self.seed)
        while True:
            yield list(itertools.islice(stream, self.chunk))

    def run_chunk(self, cluster, requests, phase: Phase) -> None:
        clock = cluster.clock
        clock.phase = phase
        clock.expected = {(r.op, r.a, r.b): r.expected for r in requests}
        wrong = phase.wrong
        report = Server(cluster, queue_capacity=8, batch_size=4).serve(requests)
        _settle(phase, requests, report, wrong)

    def snapshot(self, cluster) -> dict:
        out = _modelled(
            ("i2", shard.machine.counter.snapshot()) for shard in cluster.shards
        )
        for shard in cluster.shards:
            out["steps"] += shard.machine.steps
            cache = shard.machine.linkage_cache
            if cache is not None:
                out["linkage_hits"] += cache.stats()["hits"]
                out["linkage_misses"] += cache.stats()["misses"]
            out["remote_calls"] += shard.scheduler.stats.blocks
        out["ticks"] = cluster.ticks
        out["wire_words"] = cluster.transport.stats.wire_words
        out["messages"] = cluster.transport.stats.sent
        return out

    def reply_cache_len(self, cluster) -> int:
        return max(len(shard._reply_cache) for shard in cluster.shards)


# -- serve-proc ----------------------------------------------------------------

_LEAF = {0: ("Fib", "fib", 1), 1: ("Gauss", "sum", 1), 2: ("Gcd", "gcd", 2), 3: ("Pow", "power", 2)}
_OP = {module: op for op, (module, _proc, _arity) in _LEAF.items()}


def _request_key(module: str, args: tuple) -> tuple:
    """(op, a, b) of a front-door call on either route."""
    if module == "Main":
        return tuple(args)
    op = _OP[module]
    return (op, args[0], args[1] if len(args) > 1 else 0)


class ServeProc:
    """``repro serve --processes``: 2 forked OS workers behind the
    asyncio front door, served in a closed loop by ProcessServer(8, 4)."""

    shards = 2
    single_threaded = False

    def __init__(self, seed: int, route: str) -> None:
        self.seed = seed
        self.route = route
        self.name = f"serve-proc-{route}"
        self.chunk = 480 if route == "direct" else 240
        self.chunks_per_second = 0.9 if route == "direct" else 1.1

    def build(self) -> ProcessCluster:
        cluster = ProcessCluster(
            list(SERVICE_SOURCES),
            shards=self.shards,
            config="i2",
            self_homed=(self.route == "direct"),
        )
        self._time_calls(cluster)
        return cluster

    def _time_calls(self, cluster: ProcessCluster) -> None:
        call_async = cluster.call_async
        cluster.phase = None
        cluster.expected = {}

        async def timed_call(shard, module, proc, args):
            begin = time.monotonic()
            results = await call_async(shard, module, proc, args)
            phase = cluster.phase
            if phase is not None:
                phase.spans.append((begin, time.monotonic()))
                if not results or results[-1] != cluster.expected[_request_key(module, args)]:
                    phase.wrong += 1
            return results

        cluster.call_async = timed_call

    def close(self, cluster) -> None:
        cluster.close()

    def reference(self, cluster) -> None:
        return None

    def chunks(self):
        stream = service_requests(self.seed)
        while True:
            yield list(itertools.islice(stream, self.chunk))

    def run_chunk(self, cluster, requests, phase: Phase) -> None:
        cluster.phase = phase
        cluster.expected = {(r.op, r.a, r.b): r.expected for r in requests}
        wrong = phase.wrong
        server = ProcessServer(cluster, route=self.route, queue_capacity=8, batch_size=4)
        _settle(phase, requests, server.serve(requests), wrong)

    def snapshot(self, cluster) -> dict:
        meters = cluster.meters()
        out = _modelled(("i2", entry["counter"]) for entry in meters.values())
        out["steps"] = sum(entry["steps"] for entry in meters.values())
        out["remote_calls"] = sum(entry["blocks"] for entry in meters.values())
        out["wire_words"] = cluster.stats.wire_words
        out["frames"] = cluster.stats.sent
        return out

    def reply_cache_len(self, cluster) -> None:
        return None


WORKLOADS = {
    "calldense": CallDense,
    "serve-inproc": ServeInProc,
    "serve-proc-direct": lambda seed: ServeProc(seed, "direct"),
    "serve-proc-dispatch": lambda seed: ServeProc(seed, "dispatch"),
}


def make(name: str, seed: int):
    return WORKLOADS[name](seed)
