"""Reconstruct a call tree from the matched call/return event stream.

As long as transfers follow the LIFO discipline, the ``xfer.call`` /
``xfer.return`` stream is a balanced bracket sequence — the same
structure the IFU return stack exploits dynamically (section 6) and
pushdown control-flow analyses exploit statically.  Folding it back up
gives every activation as a :class:`CallNode` with entry/exit cycle
stamps, from which inclusive and exclusive modelled-cycle attributions
fall out exactly:

* a node's **inclusive** cycles are its exit stamp minus its entry stamp;
* its **exclusive** cycles are inclusive minus its children's inclusive;
* the root's inclusive cycles equal the machine's whole cycle total, and
  the sum of every node's exclusive cycles equals it too (asserted in
  tests — the attribution loses nothing and double-counts nothing).

Non-LIFO transfers (coroutine XFERs, trap contexts) break the bracket
discipline; the builder recovers by name-matching returns against the
open-node stack and flags the tree ``structured=False`` so consumers
know the attribution is approximate there.

The builder is the one place a recorded run's returns are matched to
its calls.  Every order-dependent summary reads the tree: the profile
table's attribution (:func:`aggregate`), the Chrome exporter's
duration events, and the FDO profile's depth histogram, live-frame
peaks per size class and ``structured`` (:mod:`repro.fdo.profile`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.obs import events as ev


@dataclass
class CallNode:
    """One activation: a procedure entered at one instant, left at another."""

    name: str
    start_cycles: int
    start_steps: int
    end_cycles: int | None = None
    end_steps: int | None = None
    children: list["CallNode"] = field(default_factory=list)

    @property
    def inclusive_cycles(self) -> int:
        assert self.end_cycles is not None, f"open node {self.name}"
        return self.end_cycles - self.start_cycles

    @property
    def exclusive_cycles(self) -> int:
        return self.inclusive_cycles - sum(
            child.inclusive_cycles for child in self.children
        )

    @property
    def inclusive_steps(self) -> int:
        assert self.end_steps is not None, f"open node {self.name}"
        return self.end_steps - self.start_steps

    def walk(self):
        """Yield (node, depth) preorder."""
        stack = [(self, 0)]
        while stack:
            node, depth = stack.pop()
            yield node, depth
            for child in reversed(node.children):
                stack.append((child, depth + 1))

    def brackets(self):
        """Yield (node, closing) in run order: each activation opens
        before its children and closes after them, so the activations
        open at any point are one root-to-node path."""
        stack = [(self, False)]
        while stack:
            node, closing = stack.pop()
            yield node, closing
            if not closing:
                stack.append((node, True))
                stack.extend((child, False) for child in reversed(node.children))


@dataclass
class CallTree:
    """The reconstructed run: a root node plus stream health flags."""

    root: CallNode
    #: False when non-LIFO transfers (XFER, trap contexts) or dropped
    #: ring-buffer events made the bracket matching approximate.
    structured: bool = True
    #: Events the ring buffer dropped before the builder saw them.
    dropped: int = 0

    @property
    def total_cycles(self) -> int:
        return self.root.inclusive_cycles

    def nodes(self) -> list[CallNode]:
        return [node for node, _ in self.root.walk()]

    def depth_histogram(self) -> Counter[int]:
        """Activations per call depth, the root's being 1."""
        return Counter(depth + 1 for _, depth in self.root.walk())

    def open_peaks(self, group) -> dict:
        """The most activations open at once per ``group(name)``; names
        whose group is None are not counted."""
        open_now: Counter = Counter()
        peaks: dict = {}
        for node, closing in self.root.brackets():
            key = group(node.name)
            if key is None:
                continue
            if closing:
                open_now[key] -= 1
            else:
                open_now[key] += 1
                peaks[key] = max(peaks.get(key, 0), open_now[key])
        return peaks


@dataclass
class ProcProfile:
    """Aggregated attribution for one procedure across all activations."""

    name: str
    calls: int = 0
    inclusive_cycles: int = 0
    exclusive_cycles: int = 0
    inclusive_steps: int = 0

    @property
    def exclusive_per_call(self) -> float:
        return self.exclusive_cycles / self.calls if self.calls else 0.0


def build_call_tree(
    events,
    total_cycles: int | None = None,
    total_steps: int | None = None,
    dropped: int = 0,
) -> CallTree:
    """Fold an event stream into a :class:`CallTree`.

    The root spans cycle 0 to the final event (or *total_cycles* when
    given, so loader/start charges before the first event and any tail
    after the last are attributed to the root rather than lost).
    """
    events = list(events)
    root_name = "<machine>"
    structured = dropped == 0
    begun = False
    for event in events:
        if event.kind == ev.MACHINE_BEGIN:
            root_name = event.name
            break
    root = CallNode(root_name, start_cycles=0, start_steps=0)
    open_nodes = [root]
    last_cycles = 0
    last_steps = 0

    for event in events:
        last_cycles = event.cycles
        last_steps = event.steps
        if event.kind == ev.MACHINE_BEGIN:
            if begun:
                structured = False  # second root (scheduler restart)
            begun = True
        elif event.kind == ev.XFER_CALL:
            node = CallNode(event.name, start_cycles=event.cycles, start_steps=event.steps)
            open_nodes[-1].children.append(node)
            open_nodes.append(node)
        elif event.kind == ev.XFER_RETURN:
            # The returning procedure should be the innermost open node;
            # tolerate non-LIFO streams by scanning for it.
            index = len(open_nodes) - 1
            while index > 0 and open_nodes[index].name != event.name:
                index -= 1
            if index == 0:
                if open_nodes[0].name == event.name:
                    # The root procedure's own return: close everything
                    # above it; the root's end stamp is set at the end so
                    # it spans the whole run.
                    if len(open_nodes) > 1:
                        structured = False
                    for node in open_nodes[1:]:
                        node.end_cycles = event.cycles
                        node.end_steps = event.steps
                    del open_nodes[1:]
                else:
                    structured = False  # return from a node we never saw enter
                continue
            if index != len(open_nodes) - 1:
                structured = False
            for node in open_nodes[index:]:
                node.end_cycles = event.cycles
                node.end_steps = event.steps
            del open_nodes[index:]
        elif event.kind in (ev.XFER_XFER, ev.XFER_TRAP):
            structured = False

    end_cycles = total_cycles if total_cycles is not None else last_cycles
    end_steps = total_steps if total_steps is not None else last_steps
    for node in open_nodes:
        node.end_cycles = end_cycles
        node.end_steps = end_steps
    return CallTree(root=root, structured=structured, dropped=dropped)


def aggregate(tree: CallTree) -> list[ProcProfile]:
    """Per-procedure attribution, sorted by inclusive cycles descending.

    Recursion is handled the standard way: a nested activation of a
    procedure already on its own ancestor path contributes to exclusive
    cycles (they are disjoint) but not again to inclusive cycles, so
    ``inclusive <= total`` always holds per procedure.
    """
    profiles: dict[str, ProcProfile] = {}
    active: Counter[str] = Counter()  # names on the current ancestor path
    for node, closing in tree.root.brackets():
        if closing:
            active[node.name] -= 1
            continue
        profile = profiles.get(node.name)
        if profile is None:
            profile = profiles[node.name] = ProcProfile(node.name)
        profile.calls += 1
        profile.exclusive_cycles += node.exclusive_cycles
        if not active[node.name]:
            profile.inclusive_cycles += node.inclusive_cycles
            profile.inclusive_steps += node.inclusive_steps
        active[node.name] += 1
    return sorted(profiles.values(), key=lambda p: (-p.inclusive_cycles, p.name))
