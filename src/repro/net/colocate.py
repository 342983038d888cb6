"""Placement co-location: plan pins from observed cross-shard traffic.

Every Remote XFER is a caller paying one modelled process switch and the
transport moving wire words; a *local* call to the same procedure costs
neither.  So the cheapest placement keeps chatty caller/callee module
pairs on one shard — and the stitched span forest
(:mod:`repro.net.stitch`) records exactly who talks to whom and how
often.  ``repro optimize --placement`` runs a recorded serving session,
stitches the per-shard traces, and emits a ``repro-pins/1`` pin map
that ``repro serve --pins FILE`` loads.

The planner is a greedy agglomerative pass:

1. count cross-module call edges in the span forest (a parent span in
   module A with a child span in module B is one A->B call);
2. merge the heaviest edges first into co-location groups, refusing a
   merge that would put more than ``ceil(spans / shards * balance)``
   observed activations in one group (so one mega-group cannot absorb
   the whole image and starve the other shards);
3. deal the groups onto shards, heaviest group first onto the least
   loaded shard.

The output is advice, not mechanism: a pin map is an ordinary
:class:`~repro.net.placement.Placement` pin dict, applied when a
cluster is built.  Placement is fixed for the life of a cluster, so a
new plan takes effect in a new cluster.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from repro.errors import NetError
from repro.net.stitch import Span

#: Version tag of the pin-map document.
PINS_SCHEMA = "repro-pins/1"


def span_edges(roots: list[Span]) -> dict[tuple[str, str], int]:
    """Cross-module call counts ``(caller_module, callee_module) -> n``
    from a stitched span forest.  Intra-module calls never appear —
    they are invisible to stitching and free to placement."""
    edges: dict[tuple[str, str], int] = {}
    for root in roots:
        for node, _ in root.walk():
            caller = node.name.partition(".")[0]
            for child in node.children:
                callee = child.name.partition(".")[0]
                if caller != callee:
                    key = (caller, callee)
                    edges[key] = edges.get(key, 0) + 1
    return edges


def _span_load(roots: list[Span]) -> dict[str, int]:
    """Observed activations per module — the balance weight."""
    load: dict[str, int] = {}
    for root in roots:
        for node, _ in root.walk():
            module = node.name.partition(".")[0]
            load[module] = load.get(module, 0) + 1
    return load


@dataclass
class PlacementPlan:
    """A planned pin map plus the evidence it was derived from."""

    shards: int
    pins: dict[str, int]
    edges: list[dict]
    groups: list[list[str]] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "schema": PINS_SCHEMA,
            "shards": self.shards,
            "pins": dict(self.pins),
            "edges": list(self.edges),
            "groups": [list(group) for group in self.groups],
        }


def plan_pins(
    roots: list[Span], shards: int, balance: float = 1.5
) -> PlacementPlan:
    """Greedy co-location plan from a stitched span forest."""
    if shards < 1:
        raise NetError(f"a plan needs at least one shard, got {shards}")
    edges = span_edges(roots)
    load = _span_load(roots)
    if not load:
        raise NetError("no spans to plan from (was the run recorded?)")
    cap = math.ceil(sum(load.values()) / shards * balance)

    # Union-find over modules; merge heaviest cross-shard edges first.
    group_of = {module: {module} for module in load}
    ranked = sorted(edges.items(), key=lambda kv: (-kv[1], kv[0]))
    if ranked:
        # The whole point of the pass is that the hottest pair ends up
        # together; never let the balance cap forbid that one merge.
        caller, callee = ranked[0][0]
        cap = max(cap, load[caller] + load[callee])
    for (caller, callee), _count in ranked:
        a, b = group_of[caller], group_of[callee]
        if a is b:
            continue
        if sum(load[m] for m in a | b) > cap:
            continue
        merged = a | b
        for module in merged:
            group_of[module] = merged
    groups: list[list[str]] = []
    seen: set[int] = set()
    for group in group_of.values():
        if id(group) not in seen:
            seen.add(id(group))
            groups.append(sorted(group))
    # Heaviest group first onto the least loaded shard.
    groups.sort(key=lambda g: (-sum(load[m] for m in g), g))
    shard_load = {shard: 0 for shard in range(shards)}
    pins: dict[str, int] = {}
    for group in groups:
        target = min(shard_load, key=lambda s: (shard_load[s], s))
        weight = sum(load[m] for m in group)
        shard_load[target] += weight
        for module in group:
            pins[module] = target
    return PlacementPlan(
        shards=shards,
        pins=pins,
        edges=[
            {"caller": caller, "callee": callee, "calls": count}
            for (caller, callee), count in ranked
        ],
        groups=groups,
    )


def load_pins(path: str) -> tuple[dict[str, int], int]:
    """Read a ``repro-pins/1`` document; returns ``(pins, shards)``."""
    try:
        doc = json.loads(open(path).read())
    except (OSError, json.JSONDecodeError) as fault:
        raise NetError(f"cannot read pin map {path}: {fault}") from fault
    if not isinstance(doc, dict) or doc.get("schema") != PINS_SCHEMA:
        raise NetError(f"{path} is not a {PINS_SCHEMA} pin map")
    pins = doc.get("pins")
    if not isinstance(pins, dict):
        raise NetError(f"{path}: pin map has no pins object")
    for module, shard in pins.items():
        if not isinstance(shard, int):
            raise NetError(f"{path}: pin for {module!r} is not a shard id")
    shards = doc.get("shards", 0)
    if not isinstance(shards, int):
        raise NetError(f"{path}: planned shard count {shards!r} is not an integer")
    return dict(pins), shards
