"""Whole-image interprocedural analysis: call graph, effects, bounds.

The intraprocedural verifier (:mod:`repro.check.checker`) proves each
body safe in isolation; this module layers the whole-image questions on
top of the record that pass keeps (``verify_image``: each body's CFG,
verified stack depths and resolved call sites), so no body is decoded
or verified twice.  It works in the CFA2 / pushdown-analysis tradition:
calls and returns are matched exactly (a call edge goes to the target's
entry and comes back to the site, never smeared across return points),
so the precision of the summaries below is limited only by genuinely
data-dependent transfers (``XF``), which are over-approximated, never
dropped.

Four products, one per question the FDO pass and the template JIT ask:

* **call-site resolution** — every ``LFC``/``EFC*``/``DFC``/``SDFC``
  resolves through the image's linkage tables to exactly one target;
  every ``XF`` is bounded by the *XF universe*: the procedures whose
  descriptors are taken as ``PROC`` literals (the only way a packed
  descriptor enters the data flow) plus the *resumable* set — procedures
  whose live frames can escape as context words (bodies containing
  ``XF`` or ``LLC``, and static callers of bodies containing ``LRC``).
  Each site is classified ``monomorphic`` / ``polymorphic`` /
  ``unknown`` by the size of its target set.
* **effect summaries** — per-procedure flags (globals read/written,
  heap read/written, ports performed, traps possible) scanned from the
  bytecode (:mod:`repro.check.effects`) and closed transitively over
  the call and XF edges; ``locals-only`` means no data effect outside
  the procedure's own frame survives the closure.
* **worst-case bounds per entry point** — interprocedural eval-stack
  depth (exact: the section 5.2 discipline makes the stack hold only
  the argument record at transfers, so the maximum is the maximum over
  reachable bodies), and call-depth / total-frame-words bounds by
  longest path over the callee graph (``None`` = unbounded when
  recursion or a reachable ``XF`` makes the chain data-dependent).
* **facts artifact** — :func:`ImageAnalysis.to_facts` serializes it all
  as a versioned JSON document (:data:`FACTS_SCHEMA`), the input
  contract of ``repro analyze`` and the optimization passes.

Soundness is *gated dynamically*: :func:`soundness_differential` runs a
corpus program under the obs tracer and asserts every observed call
edge, callee, transfer depth, and eval-stack depth is contained in the
static prediction.  Over-approximation is fine; under-approximation is
the property failure.  The contract excludes descriptors forged by
arithmetic (not produced by ``PROC`` literals) — the checker already
marks every ``XF`` body with a ``dynamic-transfer`` NOTE for that
reason — and trap-context transfers (modelled as host-level faults).

Facts are only emitted for images whose :func:`check_image` report is
clean: an image that lies about its frame sizes or linkage tables gets
no facts, which is exactly how the under-declared-frame fuzz injection
is caught (see ``check/fuzz.py``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.interp.image import ProgramImage
from repro.interp.machineconfig import LinkageKind
from repro.isa.opcodes import CALL_OPS, Op
from repro.isa.program import Procedure

from repro.check.callgraph import CallGraph, ProcNode
from repro.check.checker import VerifiedBody, verify_image
from repro.check.diagnostics import CheckReport, Severity
from repro.check.effects import (
    FIXED_EFFECTS,
    GLOBAL_READ_OPS,
    GLOBAL_WRITE_OPS,
    HEAP_READ_OPS,
    HEAP_WRITE_OPS,
    PORT_OPS,
    TRAP_POSSIBLE_OPS,
)

#: Version tag of the facts document; bump on any shape change.
FACTS_SCHEMA = "repro-facts/1"


def image_fingerprint(image: ProgramImage) -> str:
    """A content hash binding a facts artifact to one linked image.

    Covers the placed code bytes, the configuration axes that change
    analysis results, and the instance layout (gf addresses and code
    bases) — the deterministic link reproduces all of these, so a
    relink of the same sources with the same config fingerprints
    identically, while any code or layout change does not.
    """
    h = hashlib.sha256()
    h.update(image.code.raw)
    h.update(image.config.linkage.value.encode())
    h.update(image.config.arg_convention.value.encode())
    h.update(str(image.config.eval_stack_depth).encode())
    for (name, inst), linked in sorted(image.instances.items()):
        h.update(f"{name}#{inst}@{linked.gf_address}:{linked.code_base};".encode())
    return h.hexdigest()[:32]

#: Effect-flag vocabulary (the facts document uses these exact strings).
EFFECT_READS_GLOBALS = "reads-globals"
EFFECT_WRITES_GLOBALS = "writes-globals"
EFFECT_READS_HEAP = "reads-heap"
EFFECT_WRITES_HEAP = "writes-heap"
EFFECT_PORTS = "performs-ports"
EFFECT_TRAPS = "trap-possible"

#: Effects that disqualify "locals-only" (traps are a control effect,
#: not a data effect: a DIV that can trap still touches no shared data).
_DATA_EFFECTS = frozenset(
    {
        EFFECT_READS_GLOBALS,
        EFFECT_WRITES_GLOBALS,
        EFFECT_READS_HEAP,
        EFFECT_WRITES_HEAP,
        EFFECT_PORTS,
    }
)

_EFFECT_OPS = (
    (GLOBAL_READ_OPS, EFFECT_READS_GLOBALS),
    (GLOBAL_WRITE_OPS, EFFECT_WRITES_GLOBALS),
    (HEAP_READ_OPS, EFFECT_READS_HEAP),
    (HEAP_WRITE_OPS, EFFECT_WRITES_HEAP),
    (PORT_OPS, EFFECT_PORTS),
    (TRAP_POSSIBLE_OPS, EFFECT_TRAPS),
)


@dataclass(frozen=True)
class CallSite:
    """One transfer site, resolved and classified."""

    module: str
    procedure: str
    offset: int
    opcode: str
    #: ``"call"`` for LFC/EFC*/DFC/SDFC, ``"xfer"`` for a general XF.
    kind: str
    #: Possible targets as qualified names; None means top (unknown).
    targets: tuple[str, ...] | None

    @property
    def classification(self) -> str:
        if self.targets is None:
            return "unknown"
        return "monomorphic" if len(self.targets) == 1 else "polymorphic"


@dataclass
class ProcSummary:
    """Everything the analyzer knows about one procedure."""

    node: ProcNode
    arg_count: int
    result_count: int
    frame_words: int
    #: The fsi byte as placed in the segment, and the ladder class it buys.
    fsi: int
    frame_class_words: int
    #: Worst-case evaluation-stack depth anywhere in the body.
    max_eval_depth: int
    #: Effects of this body alone, before the transitive closure.
    base_effects: frozenset[str]
    #: Closed effects (filled by the analysis driver).
    effects: set[str] = field(default_factory=set)
    #: Bytecode-scan truth (independent of compiler declarations).
    performs_xfer: bool = False
    captures_context: bool = False
    sites: list[CallSite] = field(default_factory=list)

    @property
    def locals_only(self) -> bool:
        """No data effect outside the procedure's own frame, even
        transitively."""
        return not (self.effects & _DATA_EFFECTS)


@dataclass(frozen=True)
class EntryBounds:
    """Worst-case resource bounds for one entry point."""

    entry: str
    #: Maximum live activation-chain length, counting the root frame;
    #: None = unbounded (recursion or a reachable XF).
    call_depth: int | None
    #: Total frame-heap words of the worst chain (allocation-class
    #: sizes, i.e. what the AV actually hands out); None = unbounded.
    frame_words: int | None
    #: Maximum evaluation-stack depth over every reachable body (always
    #: finite: the eval stack never survives a transfer).
    eval_depth: int


@dataclass
class ImageAnalysis:
    """The analyzer's full output for one linked image."""

    image: ProgramImage
    report: CheckReport
    procs: dict[ProcNode, ProcSummary] = field(default_factory=dict)
    graph: CallGraph = field(default_factory=CallGraph)
    #: The over-approximated target set of every general XF in the image.
    xf_universe: frozenset[ProcNode] = frozenset()
    #: Bounds per entry point (image entry first, then extra roots).
    bounds: dict[str, EntryBounds] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.report.ok

    def sites(self) -> list[CallSite]:
        """Every transfer site in the image, in a stable order."""
        collected: list[CallSite] = []
        for node in sorted(self.procs):
            collected.extend(self.procs[node].sites)
        return collected

    def edges(self) -> set[tuple[str, str]]:
        """Every possible (caller, callee) pair as qualified names."""
        pairs: set[tuple[str, str]] = set()
        for node in sorted(self.procs):
            for site in self.procs[node].sites:
                for target in site.targets or ():
                    pairs.add((str(node), target))
        return pairs

    def to_facts(self) -> dict:
        """The versioned machine-readable facts document."""
        if not self.ok:
            raise ValueError(
                "facts are only defined for a clean image; the report has "
                f"{len(self.report.errors)} error(s)"
            )
        sites = self.sites()
        counted = {"monomorphic": 0, "polymorphic": 0, "unknown": 0}
        bounded = 0
        for site in sites:
            counted[site.classification] += 1
            if _site_frame_bound(self, site) is not None:
                bounded += 1
        procedures = []
        for node in sorted(self.procs):
            summary = self.procs[node]
            procedures.append(
                {
                    "module": node.module,
                    "name": node.name,
                    "arg_count": summary.arg_count,
                    "result_count": summary.result_count,
                    "frame_words": summary.frame_words,
                    "fsi": summary.fsi,
                    "frame_class_words": summary.frame_class_words,
                    "max_eval_depth": summary.max_eval_depth,
                    "effects": sorted(summary.effects),
                    "locals_only": summary.locals_only,
                    "performs_xfer": summary.performs_xfer,
                    "captures_context": summary.captures_context,
                    "sites": [
                        {
                            "offset": site.offset,
                            "opcode": site.opcode,
                            "kind": site.kind,
                            "classification": site.classification,
                            "targets": (
                                sorted(site.targets)
                                if site.targets is not None
                                else None
                            ),
                            "frame_bound_words": _site_frame_bound(self, site),
                        }
                        for site in summary.sites
                    ],
                }
            )
        total = len(sites)
        return {
            "schema": FACTS_SCHEMA,
            "image_hash": image_fingerprint(self.image),
            "entry": f"{self.image.entry.module}.{self.image.entry.name}",
            "linkage": self.image.config.linkage.value,
            "arg_convention": self.image.config.arg_convention.value,
            "eval_stack_limit": self.image.config.eval_stack_depth,
            "xf_universe": sorted(str(node) for node in self.xf_universe),
            "procedures": procedures,
            "entry_bounds": {
                entry: {
                    "call_depth": bound.call_depth,
                    "frame_words": bound.frame_words,
                    "eval_depth": bound.eval_depth,
                }
                for entry, bound in self.bounds.items()
            },
            "summary": {
                "sites": total,
                "monomorphic": counted["monomorphic"],
                "polymorphic": counted["polymorphic"],
                "unknown": counted["unknown"],
                "monomorphic_fraction": (
                    round(counted["monomorphic"] / total, 4) if total else 1.0
                ),
                "finite_frame_bound_fraction": (
                    round(bounded / total, 4) if total else 1.0
                ),
            },
        }


def _site_frame_bound(analysis: ImageAnalysis, site: CallSite) -> int | None:
    """Worst frame allocation this one transfer can cause, in words."""
    if site.targets is None:
        return None
    bound = 0
    for target in site.targets:
        module, _, name = target.rpartition(".")
        summary = analysis.procs.get(ProcNode(module, name))
        if summary is None:
            return None
        bound = max(bound, summary.frame_class_words)
    return bound


# -- the analysis driver ---------------------------------------------------------


def analyze_image(
    image: ProgramImage,
    report: CheckReport | None = None,
    extra_roots: list[tuple[str, str]] | None = None,
) -> ImageAnalysis:
    """Analyze a linked image; gated on a clean :func:`check_image`.

    The summaries are built from the check's own per-body record
    (:func:`~repro.check.checker.verify_image`), so every body is
    decoded, resolved and stack-verified exactly once.  The returned
    :class:`ImageAnalysis` always carries the combined report;
    summaries, bounds and facts are only populated when the base
    verification produced no errors (an image with broken linkage
    tables has no trustworthy call graph to summarize).
    """
    verified = verify_image(image, report, extra_roots)
    report = verified.report
    analysis = ImageAnalysis(image=image, report=report, graph=verified.graph)
    if not report.ok:
        return analysis

    # A clean report means every body decoded and stack-verified.
    scanned = {
        node: _scan_body(image, node, body, report)
        for node, body in verified.bodies.items()
    }
    if not report.ok:
        return analysis

    analysis.xf_universe = _xf_universe(scanned, verified.graph)
    universe = tuple(sorted(str(node) for node in analysis.xf_universe))

    for node, scan in sorted(scanned.items()):
        sites: list[CallSite] = []
        for offset, opcode, target in scan.call_sites:
            sites.append(
                CallSite(node.module, node.name, offset, opcode, "call", (target,))
            )
        for offset in scan.xf_offsets:
            sites.append(
                CallSite(node.module, node.name, offset, "XF", "xfer", universe)
            )
        sites.sort(key=lambda site: site.offset)
        analysis.procs[node] = ProcSummary(
            node=node,
            arg_count=scan.procedure.arg_count,
            result_count=scan.procedure.result_count,
            frame_words=scan.procedure.frame_words,
            fsi=scan.fsi,
            frame_class_words=image.ladder.size_of(scan.fsi),
            max_eval_depth=scan.max_eval_depth,
            base_effects=scan.effects,
            performs_xfer=bool(scan.xf_offsets),
            captures_context=scan.captures_context,
            sites=sites,
        )

    _close_effects(analysis)
    roots = [f"{image.entry.module}.{image.entry.name}"]
    roots.extend(f"{module}.{proc}" for module, proc in extra_roots or [])
    for root in roots:
        bound = _entry_bounds(analysis, root)
        if bound is not None:
            analysis.bounds[root] = bound
    return analysis


@dataclass
class _BodyScan:
    """Raw per-body facts before summaries are assembled."""

    procedure: Procedure
    fsi: int
    max_eval_depth: int
    effects: frozenset[str]
    has_llc: bool
    has_lrc: bool
    #: (offset, opcode name, qualified target) per resolved call site.
    call_sites: list[tuple[int, str, str]]
    xf_offsets: list[int]

    @property
    def captures_context(self) -> bool:
        return self.has_llc or self.has_lrc


def _scan_body(
    image: ProgramImage,
    node: ProcNode,
    body: VerifiedBody,
    report: CheckReport,
) -> _BodyScan:
    """Scan one verified body's CFG for effects, sites and depths."""
    procedure = body.procedure
    effects: set[str] = set()
    call_sites: list[tuple[int, str, str]] = []
    xf_offsets: list[int] = []
    has_llc = False
    has_lrc = False
    max_depth = 0
    for block in body.cfg.block_order():
        for item in block.instructions:
            op = item.instruction.op
            for ops, flag in _EFFECT_OPS:
                if op in ops:
                    effects.add(flag)
            if op is Op.XF:
                xf_offsets.append(item.offset)
            if op is Op.LLC:
                has_llc = True
            if op is Op.LRC:
                has_lrc = True
            before = body.depths.get(item.offset)
            if before is None:
                continue  # dead code: never executed
            if op in CALL_OPS:
                effect = body.calls[item.offset]
                call_sites.append((item.offset, op.name, effect.target))
                after = effect.result_count
            elif op is Op.XF:
                after = 1  # the incoming record, by convention
            elif op is Op.RET:
                after = before
            else:
                pops, pushes = FIXED_EFFECTS[op]
                after = before - pops + pushes
            max_depth = max(max_depth, before, after)

    _check_declared_metadata(
        procedure, node, bool(xf_offsets), has_llc or has_lrc, report
    )
    linked = image.instance_of(node.module)
    return _BodyScan(
        procedure=procedure,
        fsi=image.code.raw[linked.code_base + procedure.entry_offset],
        max_eval_depth=max_depth,
        effects=frozenset(effects),
        has_llc=has_llc,
        has_lrc=has_lrc,
        call_sites=call_sites,
        xf_offsets=xf_offsets,
    )


def _check_declared_metadata(
    procedure: Procedure,
    node: ProcNode,
    has_xf: bool,
    captures: bool,
    report: CheckReport,
) -> None:
    """Compiler declarations vs the bytecode: a procedure that performs
    an XF (or captures a context word) while declaring it does not would
    hide indirect callees from every consumer of the facts."""
    if procedure.performs_xfer is False and has_xf:
        report.add(
            "undeclared-xfer",
            Severity.ERROR,
            "the body contains XF but the procedure declares "
            "performs_xfer=False; its indirect callees would be invisible "
            "to the call graph",
            node.module,
            node.name,
        )
    if procedure.captures_context is False and captures:
        report.add(
            "undeclared-capture",
            Severity.ERROR,
            "the body captures a context word (LLC/LRC) but declares "
            "captures_context=False; its frames could be XFERed into "
            "without the analysis knowing",
            node.module,
            node.name,
        )


def _xf_universe(
    scanned: dict[ProcNode, _BodyScan],
    graph: CallGraph,
) -> frozenset[ProcNode]:
    """Every procedure a general XF anywhere in the image could reach.

    A context word is either a packed descriptor or a live frame.
    Descriptors enter the data flow only through ``PROC`` literals, so
    the *taken* set (the verified literals' targets) bounds the
    descriptor arm.  A
    live frame must have been suspended with a resumable saved PC; that
    frame escapes only through ``LLC`` (its owner captured itself),
    through ``LRC`` in a callee (capturing the caller or the XF
    source), or by being an XF performer itself — hence the resumable
    arm below.  Arithmetic forgery of context words is outside the
    soundness contract (see the module docstring).
    """
    universe = graph.descriptor_targets()
    lrc_owners: set[ProcNode] = set()
    for node, scan in scanned.items():
        if scan.xf_offsets or scan.has_llc:
            universe.add(node)
        if scan.has_lrc:
            lrc_owners.add(node)
    # Static callers of an LRC capturer: their frames are what LRC hands
    # out while they wait at the call site.
    for caller, callees in graph.calls.items():
        if callees & lrc_owners:
            universe.add(caller)
    return frozenset(universe)


def _close_effects(analysis: ImageAnalysis) -> None:
    """Transitive closure of effects over call and XF edges."""
    for summary in analysis.procs.values():
        summary.effects = set(summary.base_effects)
    changed = True
    while changed:
        changed = False
        for summary in analysis.procs.values():
            for site in summary.sites:
                for target in site.targets or ():
                    module, _, name = target.rpartition(".")
                    callee = analysis.procs.get(ProcNode(module, name))
                    if callee is None:
                        continue
                    missing = callee.effects - summary.effects
                    if missing:
                        summary.effects |= missing
                        changed = True


def _entry_bounds(analysis: ImageAnalysis, root: str) -> EntryBounds | None:
    """Longest-path bounds from one entry point over the callee graph."""
    module, _, name = root.rpartition(".")
    if ProcNode(module, name) not in analysis.procs:
        return None

    def callees(qualname: str) -> set[str]:
        owner, _, proc = qualname.rpartition(".")
        summary = analysis.procs.get(ProcNode(owner, proc))
        if summary is None:
            return set()
        targets: set[str] = set()
        for site in summary.sites:
            targets.update(site.targets or ())
        return targets

    # Reachability + cycle detection (a cycle anywhere reachable makes
    # the depth data-dependent: recursion, or an XF back-edge).
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict[str, int] = {}
    reachable: list[str] = []
    cyclic = False

    def visit(qualname: str) -> None:
        nonlocal cyclic
        state = color.get(qualname, WHITE)
        if state == GRAY:
            cyclic = True
            return
        if state == BLACK:
            return
        color[qualname] = GRAY
        for target in sorted(callees(qualname)):
            visit(target)
        color[qualname] = BLACK
        reachable.append(qualname)

    visit(root)

    eval_depth = 0
    for qualname in reachable:
        owner, _, proc = qualname.rpartition(".")
        summary = analysis.procs.get(ProcNode(owner, proc))
        if summary is not None:
            eval_depth = max(eval_depth, summary.max_eval_depth)

    if cyclic:
        return EntryBounds(entry=root, call_depth=None, frame_words=None,
                           eval_depth=eval_depth)

    # `reachable` is in post-order, so every callee's bound is ready
    # before its callers ask for it.
    depth_of: dict[str, int] = {}
    words_of: dict[str, int] = {}
    for qualname in reachable:
        owner, _, proc = qualname.rpartition(".")
        summary = analysis.procs.get(ProcNode(owner, proc))
        if summary is None:
            depth_of[qualname] = 0
            words_of[qualname] = 0
            continue
        sub_depth = 0
        sub_words = 0
        for target in callees(qualname):
            sub_depth = max(sub_depth, depth_of.get(target, 0))
            sub_words = max(sub_words, words_of.get(target, 0))
        depth_of[qualname] = 1 + sub_depth
        words_of[qualname] = summary.frame_class_words + sub_words
    return EntryBounds(
        entry=root,
        call_depth=depth_of[root],
        frame_words=words_of[root],
        eval_depth=eval_depth,
    )


# -- the dynamic soundness gate --------------------------------------------------


def soundness_differential(
    program,
    preset: str = "i2",
    max_steps: int = 400_000,
) -> list[str]:
    """Run one corpus program; check every observation against the facts.

    Returns a list of problem strings — empty means the static
    prediction contained everything the machine actually did.  Programs
    needing descriptors are skipped under SIMPLE linkage (they cannot
    run there), returning no problems.
    """
    from repro.interp.machine import Machine
    from repro.interp.machineconfig import MachineConfig
    from repro.lang.compiler import CompileOptions, compile_program
    from repro.lang.linker import link
    from repro.obs.edges import observed_call_edges, observed_transfer_depth
    from repro.obs.tracer import TraceRecorder

    config = MachineConfig.preset(preset)
    if program.needs_descriptors and config.linkage is LinkageKind.SIMPLE:
        return []
    modules = compile_program(list(program.sources), CompileOptions.for_config(config))
    image = link(modules, config, program.entry)
    analysis = analyze_image(image)
    if not analysis.ok:
        return [
            f"{program.name}/{preset}: static analysis not clean:\n"
            + analysis.report.format()
        ]

    machine = Machine(image)
    recorder = TraceRecorder(capacity=None)
    machine.attach_tracer(recorder)
    machine.start(None, None, *program.args)
    max_eval = len(machine.stack)
    while not machine.halted and machine.steps < max_steps:
        machine.step()
        max_eval = max(max_eval, len(machine.stack))

    problems: list[str] = []
    label = f"{program.name}/{preset}"
    static_edges = analysis.edges()
    for source, target in sorted(observed_call_edges(recorder.events)):
        if (source, target) not in static_edges:
            problems.append(
                f"{label}: observed edge {source} -> {target} is not in the "
                "static call graph"
            )
    entry = f"{image.entry.module}.{image.entry.name}"
    bounds = analysis.bounds.get(entry)
    if bounds is None:
        problems.append(f"{label}: no bounds computed for entry {entry}")
        return problems
    if max_eval > bounds.eval_depth:
        problems.append(
            f"{label}: observed eval-stack depth {max_eval} exceeds the "
            f"static bound {bounds.eval_depth}"
        )
    observed_depth, exact = observed_transfer_depth(recorder.events)
    if bounds.call_depth is not None and exact and observed_depth > bounds.call_depth:
        problems.append(
            f"{label}: observed transfer depth {observed_depth} exceeds the "
            f"static bound {bounds.call_depth}"
        )
    return problems
