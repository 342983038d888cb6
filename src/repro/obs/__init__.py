"""Runtime observability for the XFER machine: tracing, metrics, profiling.

The paper's argument is measurement-driven — section 2 sizes the XFER
budget from call-frequency statistics, section 8 validates the ladder
with counted memory references.  This package makes the reproduction
observable the same way:

* :mod:`repro.obs.events` — the event taxonomy (one family per
  mechanism: ``xfer``, ``alloc``, ``ifu``, ``bank``, ``sched``);
* :mod:`repro.obs.tracer` — the event bus: a :class:`Tracer` protocol
  whose disabled path is a single ``is None`` check at every
  instrumentation point, and the ring-buffer :class:`TraceRecorder`;
* :mod:`repro.obs.calltree` — the matched call/return tree with exact
  inclusive/exclusive modelled-cycle attribution.  It is the one place
  a recorded run's returns are matched to its calls: the profile
  (:mod:`repro.fdo.profile`) reads its depth histogram and live-frame
  peaks off the tree;
* :mod:`repro.obs.edges` — the observed call edges and transfer depth
  the analyzer's soundness differential compares with its bounds;
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` (counters,
  gauges, log2-bucket histograms), where the serving layer publishes
  its ``net.*`` metrics;
* :mod:`repro.obs.export` — Chrome ``trace_event`` JSON, flamegraph
  folded stacks, and JSONL dumps.

The invariant the whole package is built around: **tracing never
changes the modelled machine**.  Event emission reads the meters, it
never records into them, so every `CycleCounter` total is bit-identical
with tracing on or off (``tests/test_obs_differential.py``).

Quickstart::

    from repro import build_machine
    from repro.obs import TraceRecorder, build_call_tree, aggregate

    machine = build_machine([SOURCE])
    recorder = TraceRecorder(capacity=None)
    machine.attach_tracer(recorder)
    machine.run()
    tree = build_call_tree(recorder.events, total_cycles=machine.counter.cycles)
    for profile in aggregate(tree)[:10]:
        print(profile.name, profile.inclusive_cycles, profile.exclusive_cycles)
"""

from repro.obs.calltree import (
    CallNode,
    CallTree,
    ProcProfile,
    aggregate,
    build_call_tree,
)
from repro.obs.edges import (
    observed_call_edges,
    observed_callees,
    observed_transfer_depth,
)
from repro.obs.events import ALL_KINDS, TraceEvent
from repro.obs.export import (
    to_chrome_trace,
    to_folded_stacks,
    to_jsonl,
    validate_chrome_trace,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.tracer import Tracer, TraceRecorder

__all__ = [
    "ALL_KINDS",
    "CallNode",
    "CallTree",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ProcProfile",
    "TraceEvent",
    "TraceRecorder",
    "Tracer",
    "aggregate",
    "build_call_tree",
    "observed_call_edges",
    "observed_callees",
    "observed_transfer_depth",
    "to_chrome_trace",
    "to_folded_stacks",
    "to_jsonl",
    "validate_chrome_trace",
]
