"""Whole-program call graph and reachability (matched call/return).

Built by the checker from resolved call sites: a *call* edge for every
``LFC``/``EFC*``/``DFC``/``SDFC`` whose target resolved statically, and
a *reference* edge for every taken procedure descriptor (a ``PROC(M.p)``
literal patched into a ``LIW`` operand) — the descriptor can reach its
target later through ``XF``, so a referenced procedure is live once the
taker is.

Reachability follows the matched call/return discipline: control enters
at the designated entry procedure and flows only along call and
reference edges (returns come back to the caller by construction, so
they add no edges).  Procedures outside the reachable set are reported
as unreachable — WARNING, not ERROR, because an unused export is legal;
it is simply dead weight in the code segment the section 5 space
analysis counts.

The entry procedure is not the only way control enters an image.  A
process spawned on a :class:`~repro.interp.processes.Scheduler` starts
at its own procedure, and the net serving layer runs incoming Remote
XFERs as root activations — none of which appear as call edges.  Those
procedures are *roots*, not dead code: :func:`spawn_roots` derives them
from spawned processes (or plain ``(module, proc)`` pairs), and
``check_image`` accepts them as ``extra_roots``.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.check.diagnostics import CheckReport, Severity


@dataclass(frozen=True, order=True)
class ProcNode:
    """One procedure, named as ``(module, procedure)``."""

    module: str
    name: str

    def __str__(self) -> str:
        return f"{self.module}.{self.name}"


@dataclass
class CallGraph:
    """Call and descriptor-reference edges over :class:`ProcNode` nodes."""

    nodes: set[ProcNode] = field(default_factory=set)
    calls: dict[ProcNode, set[ProcNode]] = field(default_factory=dict)
    references: dict[ProcNode, set[ProcNode]] = field(default_factory=dict)

    def add_node(self, node: ProcNode) -> None:
        self.nodes.add(node)

    def add_call(self, caller: ProcNode, callee: ProcNode) -> None:
        self.nodes.add(caller)
        self.nodes.add(callee)
        self.calls.setdefault(caller, set()).add(callee)

    def add_reference(self, taker: ProcNode, target: ProcNode) -> None:
        self.nodes.add(taker)
        self.nodes.add(target)
        self.references.setdefault(taker, set()).add(target)

    def successors(self, node: ProcNode) -> set[ProcNode]:
        return self.calls.get(node, set()) | self.references.get(node, set())

    def reachable_from(self, roots: list[ProcNode]) -> set[ProcNode]:
        """Nodes reachable from *roots* along call and reference edges."""
        seen: set[ProcNode] = set()
        work = [root for root in roots if root in self.nodes]
        while work:
            node = work.pop()
            if node in seen:
                continue
            seen.add(node)
            work.extend(self.successors(node) - seen)
        return seen

    def descriptor_targets(self) -> set[ProcNode]:
        """Every procedure some reachable-or-not taker holds a descriptor
        for — the set a data-dependent ``XF`` could land in."""
        targets: set[ProcNode] = set()
        for referenced in self.references.values():
            targets |= referenced
        return targets

    def report_unreachable(self, roots: list[ProcNode], report: CheckReport) -> set[ProcNode]:
        """Warn about procedures no chain of transfers from *roots* reaches."""
        live = self.reachable_from(roots)
        dead = sorted(self.nodes - live)
        root_names = ", ".join(str(root) for root in roots) or "<none>"
        for node in dead:
            report.add(
                "unreachable-procedure",
                Severity.WARNING,
                f"no chain of calls or taken descriptors from {root_names} "
                f"reaches {node}; its code is dead weight in the segment",
                node.module,
                node.name,
            )
        return live


def spawn_roots(processes: Iterable) -> list[ProcNode]:
    """Call-graph roots for procedures entered from outside the graph.

    Accepts anything with ``module``/``proc`` attributes (a
    :class:`~repro.interp.processes.Process`, or the Scheduler's
    ``processes`` list directly) or plain ``(module, proc)`` tuples.
    Pass the result as ``extra_roots`` to ``check_image`` so
    scheduler-spawned processes and externally served entry points are
    not falsely reported unreachable.
    """
    roots: list[ProcNode] = []
    for process in processes:
        module, proc = (
            process if isinstance(process, tuple) else (process.module, process.proc)
        )
        roots.append(ProcNode(module, proc))
    return roots
