"""The ``repro-profile/1`` artifact: one run, summarized for the optimizer.

A profile is a pure function of (program, implementation, arguments):
the machine's meters are modelled, the tracer is meter-neutral, and the
event stream is deterministic, so two collections of the same run are
byte-identical.  The document records everything the decision engine
needs — per-edge call counts with their transfer kinds, per-procedure
activation counts, the live-frame peak of every AV size class, the
call-depth histogram — plus the run's own results and meters, which the
rewriter replays against as its no-regression guard.

The document has two halves.  Edges, activations and allocator traps
are flat counts of events, which need no order.  The depth histogram,
the class peaks and ``structured`` depend on which return closes which
call, so they are read off :func:`repro.obs.build_call_tree`, the one
place a recorded run's returns are matched to its calls.

``image_hash`` pins the profile to the exact image it observed
(:func:`repro.check.interproc.image_fingerprint`); the optimizer refuses
stale profiles.
"""

from __future__ import annotations

from collections import Counter

from repro.obs import TraceRecorder, build_call_tree
from repro.obs.events import ALLOC_TRAP, XFER_CALL

#: Version tag of the profile document; bump on shape change.
PROFILE_SCHEMA = "repro-profile/1"


def collect_profile(
    sources: list[str],
    impl: str,
    entry: tuple[str, str] = ("Main", "main"),
    args: tuple[int, ...] = (),
) -> dict:
    """Build, trace one run, and summarize it as a profile document."""
    from repro.fdo.rewrite import build_machine

    machine = build_machine(sources, impl, entry)
    recorder = TraceRecorder(capacity=None, trace_steps=False)
    machine.attach_tracer(recorder)
    machine.start(entry[0], entry[1], *args)
    results = machine.run()
    return profile_document(
        machine, list(recorder.events), results, impl, entry, args
    )


def profile_document(
    machine,
    events: list,
    results: list[int],
    impl: str,
    entry: tuple[str, str],
    args: tuple[int, ...] = (),
) -> dict:
    """Summarize a finished traced run into the versioned document.

    *events* must be the whole stream from ``start()`` on: the root
    activation, which ``machine.begin`` opens, counts at depth 1 and
    toward its class peak.
    """
    from repro.check.interproc import image_fingerprint

    edges: Counter[tuple[str, str, str]] = Counter()
    activations: Counter[str] = Counter()
    alloc_traps = 0
    for event in events:
        if event.kind == XFER_CALL:
            edges[
                (event.data.get("source", ""), event.name, event.data.get("transfer", ""))
            ] += 1
            activations[event.name] += 1
        elif event.kind == ALLOC_TRAP:
            alloc_traps += 1

    fsi_of: dict[str, int] = {}
    frame_words_of: dict[str, int] = {}
    for meta in machine.image.procs_by_entry.values():
        name = f"{meta.module}.{meta.name}"
        fsi_of[name] = meta.fsi
        frame_words_of[name] = meta.frame_words

    tree = build_call_tree(events)
    depth_histogram = tree.depth_histogram()
    class_peaks = tree.open_peaks(fsi_of.get)

    return {
        "schema": PROFILE_SCHEMA,
        "impl": impl,
        "entry": f"{entry[0]}.{entry[1]}",
        "args": list(args),
        "image_hash": image_fingerprint(machine.image),
        "results": list(results),
        "meters": {
            "steps": machine.steps,
            "cycles": machine.counter.cycles,
            "memory_references": machine.counter.memory_references,
        },
        "structured": tree.structured,
        "edges": [
            {
                "caller": caller,
                "callee": callee,
                "transfer": transfer,
                "count": count,
            }
            for (caller, callee, transfer), count in sorted(edges.items())
        ],
        "procedures": {
            name: {
                "activations": count,
                "frame_words": frame_words_of.get(name, 0),
                "fsi": fsi_of.get(name, 0),
            }
            for name, count in sorted(activations.items())
        },
        "depth": {
            "max": max(depth_histogram),
            "histogram": {
                str(depth): count
                for depth, count in sorted(depth_histogram.items())
            },
        },
        "class_peaks": {
            str(fsi): peak for fsi, peak in sorted(class_peaks.items())
        },
        "alloc_traps": alloc_traps,
    }


def validate_profile(doc: dict) -> str | None:
    """Shape check; returns a complaint or None when the document is ok."""
    if not isinstance(doc, dict):
        return "profile is not a JSON object"
    if doc.get("schema") != PROFILE_SCHEMA:
        return f"schema {doc.get('schema')!r} is not {PROFILE_SCHEMA}"
    for key in ("impl", "entry", "image_hash", "meters", "edges", "procedures"):
        if key not in doc:
            return f"profile is missing the {key!r} field"
    return None
