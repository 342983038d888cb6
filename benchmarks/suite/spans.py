"""Spans around calls into the program's public functions.

The traced run patches a fixed list of functions (``_targets``) with
wrappers that record one span per call: name, start and end from
``time.monotonic``, the enclosing span, and a request id when the
arguments carry one (wire messages do).  Nothing under ``src/``
changes; the wrappers are removed again by :meth:`Tracer.uninstall`.

``Machine.step`` is never wrapped: it runs millions of times per
second, and a wrapper there would measure the wrapper.

Process mode: the front door forks each worker with
``repro.net.procserve.run_worker``.  :meth:`Tracer.install` replaces
that name with a wrapper which, in the forked child, starts an empty
span list and writes the worker's spans to ``<spool>/worker-*.json``
when the worker exits.  ``time.monotonic`` is one clock for every
process on the host, so :meth:`Tracer.merge_workers` yields a single
timeline, exported as Chrome trace-event JSON by
:meth:`Tracer.chrome`.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

# A finished span is a tuple (GC-untracked, unlike a list):
# (id, name, start, end, parent id or -1, request id or None, thread id).
ID, NAME, START, END, PARENT, RID, TID = range(7)


def _request_id(args):
    """The wire request id of the last argument: a Message or a decoded
    wire document."""
    last = args[-1]
    body = last.get("body") if isinstance(last, dict) else getattr(last, "body", None)
    return body.get("id") if isinstance(body, dict) else None


class Tracer:
    """In-memory spans, per-process, plus hook counters and gauges."""

    def __init__(self, spool: Path) -> None:
        #: Where forked workers write their spans (an existing directory).
        self.spool = spool
        self.spans: list[tuple] = []
        #: Overlapping coroutine spans (front-door calls): (name, start, end).
        self.async_spans: list[tuple] = []
        self.inflight = 0
        self.counts: Counter = Counter()
        self.gauges: dict[str, float] = {}
        #: Spans merged in from worker processes, keyed by worker pid.
        self.workers: dict[int, dict] = {}
        self._reset()
        self._patches: list[tuple[object, str, object]] = []

    def _reset(self) -> None:
        self.pid = os.getpid()
        self._ids = itertools.count()
        self._local = threading.local()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, rid=None):
        """Record one span around the body, nested in the thread's open span."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(span_id)
        start = time.monotonic()
        try:
            yield
        finally:
            end = time.monotonic()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, rid, threading.get_ident()))

    def gauge_max(self, name: str, value: float) -> None:
        if value > self.gauges.get(name, float("-inf")):
            self.gauges[name] = value

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr: str, name: str, rid=None, pre=None, post=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        *rid* maps the call's arguments to a request id; *pre* runs
        before the call and returns a token that *post* receives after
        it, with the arguments and the result (or None on an exception).
        """
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            token = pre(tracer, args) if pre is not None else None
            result = None
            try:
                with tracer.span(name, rid(args) if rid is not None else None):
                    result = original(*args, **kwargs)
                return result
            finally:
                if post is not None:
                    post(tracer, args, result, token)

        self._patch(owner, attr, wrapper)

    def _wrap_front_door_calls(self) -> None:
        """One overlapping span per ``ProcessCluster.call_async``, and the
        peak number in flight at once."""
        from repro.net.procserve import ProcessCluster

        original = ProcessCluster.call_async
        tracer = self

        @functools.wraps(original)
        async def wrapper(*args, **kwargs):
            start = time.monotonic()
            tracer.inflight += 1
            tracer.gauge_max("net.procserve.inflight_max", tracer.inflight)
            try:
                return await original(*args, **kwargs)
            finally:
                tracer.inflight -= 1
                tracer.async_spans.append(("net.procserve.call", start, time.monotonic()))

        self._patch(ProcessCluster, "call_async", wrapper)

    def install(self) -> None:
        for owner, attr, name, options in _targets():
            self.wrap(owner, attr, name, **options)
        self._wrap_front_door_calls()
        self._wrap_workers()

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap_workers(self) -> None:
        from repro.net import procserve

        original = procserve.run_worker
        tracer = self

        def traced_run_worker(address, spec):
            # Runs in the forked child: start from an empty timeline.
            tracer.spans = []
            tracer.async_spans = []
            tracer.counts = Counter()
            tracer.gauges = {}
            tracer._reset()
            try:
                with tracer.span("net.worker.run"):
                    original(address, spec)
            finally:
                tracer._write_worker(spec.get("shard_id", -1))

        self._patch(procserve, "run_worker", traced_run_worker)

    # -- worker spool --------------------------------------------------------

    def _write_worker(self, shard: int) -> None:
        path = self.spool / f"worker-{shard}-{self.pid}.json"
        doc = {
            "pid": self.pid,
            "spans": self.spans,
            "counts": dict(self.counts),
            "gauges": self.gauges,
        }
        path.write_text(json.dumps(doc, separators=(",", ":")))

    def merge_workers(self) -> None:
        """Load every worker spool file written so far (after the
        cluster closed and joined its workers), then delete it."""
        for path in sorted(self.spool.glob("worker-*.json")):
            doc = json.loads(path.read_text())
            path.unlink()
            self.workers[doc["pid"]] = doc
            self.counts.update(doc["counts"])
            for name, value in doc["gauges"].items():
                self.gauge_max(name, value)

    # -- analysis ------------------------------------------------------------

    def _timelines(self):
        yield self.pid, self.spans
        for pid, doc in self.workers.items():
            yield pid, doc["spans"]

    @staticmethod
    def _inside(span, window) -> bool:
        return window is None or (span[START] >= window[0] and span[END] <= window[1])

    def self_times(self, window=None) -> dict[str, float]:
        """Seconds per span name, minus the time the span's children
        cover; only spans wholly inside *window* (start, end) count."""
        totals: Counter = Counter()
        for _pid, spans in self._timelines():
            child: Counter = Counter()
            for span in spans:
                if span[PARENT] >= 0:
                    child[span[PARENT]] += span[END] - span[START]
            for span in spans:
                if self._inside(span, window):
                    totals[span[NAME]] += span[END] - span[START] - child[span[ID]]
        return dict(totals)

    def inclusive(self, name: str, window=None) -> tuple[int, float]:
        """(calls, summed duration in seconds) of the spans called *name*."""
        calls, seconds = 0, 0.0
        for _pid, spans in self._timelines():
            for span in spans:
                if span[NAME] == name and self._inside(span, window):
                    calls += 1
                    seconds += span[END] - span[START]
        return calls, seconds

    def worker_busy_share(self, names: tuple[str, ...], window) -> float:
        """The largest share of *window* that one worker spent inside
        spans called one of *names*."""
        length = window[1] - window[0]
        best = 0.0
        for doc in self.workers.values():
            busy = sum(
                span[END] - span[START]
                for span in doc["spans"]
                if span[NAME] in names and self._inside(span, window)
            )
            best = max(best, busy / length)
        return best

    def chrome(self) -> dict:
        """The merged timeline as Chrome trace-event JSON (Perfetto)."""
        events = []
        for pid, spans in self._timelines():
            for span in spans:
                args = {"span": span[ID], "parent": span[PARENT]}
                if span[RID] is not None:
                    args["request"] = span[RID]
                events.append(
                    {
                        "name": span[NAME],
                        "cat": span[NAME].split(".")[0],
                        "ph": "X",
                        "ts": span[START] * 1e6,
                        "dur": (span[END] - span[START]) * 1e6,
                        "pid": pid,
                        "tid": span[TID],
                        "args": args,
                    }
                )
        for index, (name, start, end) in enumerate(self.async_spans):
            for phase, stamp in (("b", start), ("e", end)):
                events.append(
                    {
                        "name": name,
                        "cat": "async",
                        "ph": phase,
                        "id": index,
                        "ts": stamp * 1e6,
                        "pid": self.pid,
                        "tid": 0,
                    }
                )
        return {"traceEvents": events, "displayTimeUnit": "ms"}


# -- what gets wrapped -------------------------------------------------------


def _scheduler_post(tracer, args, _result, _token):
    tracer.gauge_max("interp.processes.table_len", len(args[0].processes))


def _pump_pre(tracer, args):
    worker = args[0]
    return worker.shard.machine.steps


def _pump_post(tracer, args, _result, steps_before):
    worker = args[0]
    if worker.shard.machine.steps == steps_before:
        tracer.counts["net.worker.idle_pumps"] += 1
    tracer.gauge_max("net.shard.reply_cache_len", len(worker.shard._reply_cache))


def _feed_post(tracer, _args, frames, _token):
    tracer.counts["net.frame.frames"] += len(frames or ())


def _targets():
    """(owner, attribute, span name, wrap options) for every wrapper."""
    import repro.jit
    from repro.interp.machine import Machine
    from repro.interp.processes import Scheduler
    from repro.jit import engine
    from repro.lang import compiler, linker
    from repro.net import cluster, frame, procserve, serve, shard, transport, wire, worker

    return [
        (compiler, "compile_program", "lang.compile", {}),
        (linker, "link", "lang.link", {}),
        (engine, "analyze_image", "check.analyze", {}),
        (repro.jit, "install_jit", "jit.install", {}),
        (cluster, "build_shard_machine", "net.cluster.build", {}),
        (worker, "build_shard_machine", "net.worker.build", {}),
        (Machine, "run", "machine.run", {}),
        (Scheduler, "run", "interp.processes.run", {"post": _scheduler_post}),
        (shard.Shard, "step", "net.shard.step", {}),
        (shard.Shard, "deliver", "net.shard.deliver", {}),
        (wire.Message, "encode", "net.wire.encode", {"rid": _request_id}),
        (wire, "decode_doc", "net.wire.decode", {"rid": _request_id}),
        (frame.FrameBuffer, "feed", "net.frame.feed", {"post": _feed_post}),
        (transport.InProcessTransport, "send", "net.transport.send", {"rid": _request_id}),
        (transport.InProcessTransport, "poll", "net.transport.poll", {}),
        (transport.SocketTransport, "poll", "net.transport.poll", {}),
        (cluster.Cluster, "__init__", "net.cluster.start", {}),
        (cluster.Cluster, "submit", "net.cluster.submit", {}),
        (cluster.Cluster, "pump", "net.cluster.pump", {}),
        (cluster.Cluster, "pump_tick", "net.cluster.tick", {}),
        (serve.Server, "serve", "net.serve.serve", {}),
        (procserve.ProcessCluster, "__init__", "net.procserve.start", {}),
        (procserve.ProcessServer, "serve", "net.procserve.serve", {}),
        (
            worker.Worker,
            "pump_once",
            "net.worker.pump",
            {"pre": _pump_pre, "post": _pump_post},
        ),
        (worker.Worker, "_dispatch", "net.worker.dispatch", {}),
    ]
