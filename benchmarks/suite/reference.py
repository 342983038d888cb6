"""The modelled-meter oracle, and the helper that rewrites it.

``reference.json`` holds, for seed 7, what the fresh system of each
deterministic workload must report before any timing starts:

* calldense: results, steps and the full ``counter.snapshot()`` of
  ``Main.main(30)`` on each preset x engine;
* serve-inproc: ``Cluster.meters()`` of every shard after
  ``generate_workload(7, 200)`` through ``Server(8, 4)``, plus ticks,
  wire words and p50/p99 latency in pump ticks.

Modelled meters are exact, so any difference is a change in what the
program computes, not noise.  Rewrite the file only when such a change
is intended::

    PYTHONPATH=src python benchmarks/suite/reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
PATH = SUITE / "reference.json"
SCHEMA = "repro-bench-reference/1"


class ReferenceMismatch(Exception):
    """A fresh system's modelled meters differ from reference.json."""


def _flatten(value, prefix: str = "") -> dict:
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            out.update(_flatten(item, f"{prefix}{key}."))
        return out
    if isinstance(value, list):
        out = {}
        for index, item in enumerate(value):
            out.update(_flatten(item, f"{prefix}{index}."))
        return out
    return {prefix.rstrip("."): value}


def first_difference(expected: dict, observed: dict) -> str | None:
    """The first key, in reference order, whose values differ."""
    want = _flatten(expected)
    have = _flatten(json.loads(json.dumps(observed)))
    for key in list(want) + [key for key in have if key not in want]:
        if want.get(key, "<absent>") != have.get(key, "<absent>"):
            return f"{key}: reference {want.get(key, '<absent>')}, observed {have.get(key, '<absent>')}"
    return None


def load() -> dict:
    doc = json.loads(PATH.read_text())
    if doc.get("schema") != SCHEMA:
        raise ReferenceMismatch(f"{PATH.name}: schema {doc.get('schema')!r}, expected {SCHEMA!r}")
    return doc["workloads"]


def check(workload, system, reference: dict) -> None:
    """Compare a fresh system against the reference; raise on a mismatch.

    Workloads without a modelled reference (process mode) pass."""
    observed = workload.reference(system)
    if observed is None:
        return
    difference = first_difference(reference[workload.name], observed)
    if difference is not None:
        raise ReferenceMismatch(f"{workload.name}: {difference}")


def main() -> int:
    sys.path[:0] = [str(SUITE.parents[1] / "src"), str(SUITE)]
    import workloads

    doc = {"schema": SCHEMA, "seed": workloads.REFERENCE_SEED, "workloads": {}}
    for name in workloads.WORKLOADS:
        workload = workloads.make(name, workloads.REFERENCE_SEED)
        system = workload.build()
        try:
            observed = workload.reference(system)
        finally:
            workload.close(system)
        if observed is not None:
            doc["workloads"][name] = json.loads(json.dumps(observed))
    PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
