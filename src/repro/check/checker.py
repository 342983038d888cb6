"""The static verifier: linked program images, checked.

:func:`check_image` verifies a :class:`ProgramImage` without running
it.  Each procedure body is checked once, on the *placed* code bytes
(fixups applied): control flow, stack discipline, operand ranges,
import-order hygiene and call-graph reachability, plus the
linkage-table checks of section 5: descriptor tag bits, LV/GFT/EV
indices in range, GFT bias decoding, entry-vector words, the fsi byte
against the geometric ladder and the procedure's frame need, and the
inline GF word of every DIRECTCALL header.  Those tables exist only
once the linker lays them out, so the linked image is what every
consumer verifies.

It returns a :class:`~repro.check.diagnostics.CheckReport`; ``ok`` on
the report is the pass/fail verdict (errors fail, warnings and notes do
not).  :func:`verify_image` is ``check_image``'s pass with its per-body
record kept (the CFG, the verified stack depths, the resolved call
sites), which :func:`repro.check.interproc.analyze_image` summarizes
instead of verifying each body a second time.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.errors import FrameSizeError
from repro.interp.image import LinkedModule, ProgramImage
from repro.interp.machineconfig import ArgConvention, LinkageKind, MachineConfig
from repro.isa.disassembler import DecodedInstruction
from repro.isa.opcodes import Op
from repro.isa.program import EV_ENTRY_BYTES, ModuleCode, Procedure
from repro.mesa.descriptor import effective_entry_index, is_descriptor, unpack_descriptor

from repro.check.callgraph import CallGraph, ProcNode
from repro.check.cfg import ControlFlowGraph, build_cfg
from repro.check.diagnostics import CheckReport, Severity, instruction_context
from repro.check.effects import (
    EXTERNAL_CALL_INDEX,
    LOCAL_CALL_OPS,
    OperandLimits,
    external_index_of,
    global_index_of,
    local_index_of,
)
from repro.check.stackcheck import CallEffect, CallResolver, StackRules, verify_stack_depths

#: A call target as a lookup finds it: ``(module name, procedure)``.
Target = tuple[str, Procedure]

#: Finds the target of one call site in a procedure, returning
#: ``(target, check, message)`` like :func:`_descriptor_target`.
Lookup = Callable[[Procedure, DecodedInstruction], tuple[Target | None, str, str]]


@dataclass(frozen=True)
class VerifiedBody:
    """What verifying one procedure body established."""

    procedure: Procedure
    cfg: ControlFlowGraph
    #: Eval-stack depth on entry to every reachable instruction; None
    #: when stack verification stopped at an error.
    depths: dict[int, int] | None
    #: Resolved call sites: offset -> the callee's stack effect.
    calls: dict[int, CallEffect]


@dataclass
class VerifiedImage:
    """One :func:`check_image` pass and its per-body record."""

    report: CheckReport
    graph: CallGraph = field(default_factory=CallGraph)
    #: Every body that decoded, in check order.
    bodies: dict[ProcNode, VerifiedBody] = field(default_factory=dict)


# -- per-procedure machinery ---------------------------------------------------


def _verify_body(
    module: ModuleCode,
    procedure: Procedure,
    body: bytes,
    config: MachineConfig,
    external: Lookup,
    direct: Lookup,
    graph: CallGraph,
    report: CheckReport,
) -> VerifiedBody | None:
    """Decode, CFG-check, operand-check, and stack-verify one body.

    *external* finds an ``EFC*`` site's target and *direct* a
    ``DFC``/``SDFC`` site's.  Returns None when the body does not
    decode into a CFG.
    """
    node = ProcNode(module.name, procedure.name)
    cfg = build_cfg(body, report, node.module, node.name)
    if cfg is None:
        return None
    limits = OperandLimits(
        local_words=procedure.local_words,
        global_words=module.global_words,
        import_count=len(module.imports),
        proc_count=len(module.procedures),
    )
    for block in cfg.block_order():
        for item in block.instructions:
            _check_data_operands(item, body, limits, report, node)
            _note_dynamic(item, body, report, node)
    rules = StackRules(
        entry_depth=(
            procedure.arg_count if config.arg_convention is ArgConvention.COPY else 0
        ),
        result_count=procedure.result_count,
        stack_limit=config.eval_stack_depth,
    )
    calls: dict[int, CallEffect] = {}
    resolver = _call_resolver(
        node, module, procedure, body, external, direct, graph, calls, report
    )
    depths = verify_stack_depths(cfg, rules, resolver, report, node.module, node.name)
    return VerifiedBody(procedure, cfg, depths, calls)


def _call_resolver(
    node: ProcNode,
    module: ModuleCode,
    procedure: Procedure,
    body: bytes,
    external: Lookup,
    direct: Lookup,
    graph: CallGraph,
    calls: dict[int, CallEffect],
    report: CheckReport,
) -> CallResolver:
    """The one call-site resolver.

    A local call resolves through the module's own entry vector, an
    external or direct one through *external* or *direct*.  Each
    resolved site becomes a call edge in *graph* and an entry in *calls*.
    """

    def fail(check: str, message: str, item: DecodedInstruction) -> None:
        report.add(
            check,
            Severity.ERROR,
            message,
            node.module,
            node.name,
            offset=item.offset,
            context=instruction_context(body, item.offset),
        )

    def resolve(item: DecodedInstruction) -> CallEffect | None:
        op = item.instruction.op
        if op in LOCAL_CALL_OPS:
            target, check, message = _local_target(module, item)
        elif op in EXTERNAL_CALL_INDEX:
            target, check, message = external(procedure, item)
            if target is not None:
                index = external_index_of(item.instruction)
                if (target[0], target[1].name) != module.imports[index]:
                    fail(
                        "import-mismatch",
                        f"link-vector entry {index} resolves to {target[0]}."
                        f"{target[1].name} but the module imported "
                        f"{'.'.join(module.imports[index])}",
                        item,
                    )
        else:
            target, check, message = direct(procedure, item)
        if target is None:
            fail(check, message, item)
            return None
        owner, callee = target
        graph.add_call(node, ProcNode(owner, callee.name))
        effect = CallEffect(callee.arg_count, callee.result_count, f"{owner}.{callee.name}")
        calls[item.offset] = effect
        return effect

    return resolve


def _local_target(module: ModuleCode, item: DecodedInstruction) -> tuple[Target | None, str, str]:
    """An ``LFC`` site's target: the entry its operand indexes."""
    index = item.instruction.operand
    for procedure in module.procedures:
        if procedure.ev_index == index:
            return (module.name, procedure), "", ""
    return None, "ev-index", (
        f"{item.instruction} targets entry {index} but module "
        f"{module.name!r} has {len(module.procedures)} procedure(s)"
    )


def _check_data_operands(
    item: DecodedInstruction,
    body: bytes,
    limits: OperandLimits,
    report: CheckReport,
    node: ProcNode,
) -> None:
    """Range-check local/global indices (calls are the resolver's job)."""
    local = local_index_of(item.instruction)
    if local is not None and local >= limits.local_words:
        report.add(
            "local-index",
            Severity.ERROR,
            f"{item.instruction} touches local {local} but the frame has "
            f"{limits.local_words} local word(s); the access would read the "
            "next frame",
            node.module,
            node.name,
            offset=item.offset,
            context=instruction_context(body, item.offset),
        )
    index = global_index_of(item.instruction)
    if index is not None and index >= limits.global_words:
        report.add(
            "global-index",
            Severity.ERROR,
            f"{item.instruction} touches global {index} but the module has "
            f"{limits.global_words} global word(s)",
            node.module,
            node.name,
            offset=item.offset,
            context=instruction_context(body, item.offset),
        )


def _note_dynamic(
    item: DecodedInstruction,
    body: bytes,
    report: CheckReport,
    node: ProcNode,
) -> None:
    """NOTE data-dependent instructions that bound the static guarantee."""
    op = item.instruction.op
    if op is Op.XF:
        report.add(
            "dynamic-transfer",
            Severity.NOTE,
            "XF transfers to a computed context word; its destination and "
            "linkage cannot be verified statically",
            node.module,
            node.name,
            offset=item.offset,
            context=instruction_context(body, item.offset),
        )
    elif op in (Op.ALOC, Op.FREE):
        report.add(
            "dynamic-frame",
            Severity.NOTE,
            f"{op.name} sizes or frees a frame from a run-time value; frame "
            "faults on this path cannot be excluded statically",
            node.module,
            node.name,
            offset=item.offset,
            context=instruction_context(body, item.offset),
        )


def _count_external_sites(cfg: ControlFlowGraph, import_count: int, counts: Counter) -> None:
    """Tally EFC call sites per link-vector index (for the hot-order check)."""
    for block in cfg.block_order():
        for item in block.instructions:
            if item.instruction.op in EXTERNAL_CALL_INDEX:
                index = external_index_of(item.instruction)
                if index is not None and index < import_count:
                    counts[index] += 1


def _check_import_order(
    module_name: str,
    imports: list[tuple[str, str]],
    counts: Counter,
    report: CheckReport,
) -> None:
    """Section 5.1 hygiene: link vectors ordered hottest-first.

    The one-byte opcodes EFC0-EFC7 only pay off when the statically most
    frequent external targets occupy the first link-vector slots — the
    contract :func:`repro.lang.analysis.external_call_frequencies`
    establishes.  A colder import ahead of a hotter one wastes the short
    encodings, so the site counts must be non-increasing by index.
    """
    for left in range(len(imports) - 1):
        right = left + 1
        if counts[right] > counts[left]:
            cold = ".".join(imports[left])
            hot = ".".join(imports[right])
            report.add(
                "import-order",
                Severity.WARNING,
                f"link-vector index {right} ({hot}, {counts[right]} site(s)) "
                f"is hotter than index {left} ({cold}, {counts[left]} "
                "site(s)); order imports by static frequency so EFC0-EFC7 "
                "cover the hottest targets (section 5.1)",
                module_name,
            )


# -- check_image ---------------------------------------------------------------


def check_image(
    image: ProgramImage,
    report: CheckReport | None = None,
    extra_roots: list[tuple[str, str]] | None = None,
) -> CheckReport:
    """Verify a linked program image without executing it.

    *extra_roots* names additional ``(module, procedure)`` call-graph
    roots beyond the image entry — procedures control enters from
    outside the graph (spawned processes, externally served root
    XFERs) that must not be flagged unreachable.
    """
    return verify_image(image, report, extra_roots).report


def verify_image(
    image: ProgramImage,
    report: CheckReport | None = None,
    extra_roots: list[tuple[str, str]] | None = None,
) -> VerifiedImage:
    """:func:`check_image`'s pass, returning its per-body record too.

    When the report comes back clean, every body decoded and
    stack-verified, so each record carries its depths.
    """
    verified = VerifiedImage(report or CheckReport())
    primaries = {
        name: linked for (name, inst), linked in image.instances.items() if inst == 0
    }
    instance_counts = Counter(name for (name, _inst) in image.instances)

    direct_headers: dict[int, Target] = {}
    for linked in primaries.values():
        for procedure in linked.module.procedures:
            verified.graph.add_node(ProcNode(linked.name, procedure.name))
            if procedure.direct_offset >= 0:
                direct_headers[linked.code_base + procedure.direct_offset] = (
                    linked.name,
                    procedure,
                )

    _check_gft(image, verified.report)
    for name in sorted(primaries):
        _check_linked_module(
            image, primaries[name], direct_headers, verified, instance_counts[name]
        )

    roots = [ProcNode(image.entry.module, image.entry.name)]
    roots.extend(ProcNode(*root) for root in extra_roots or [])
    verified.graph.report_unreachable(roots, verified.report)
    return verified


def _check_gft(image: ProgramImage, report: CheckReport) -> None:
    """Every populated GFT entry must name a real global frame, and its
    bias bits must agree with the owner's recorded bias slots."""
    if image.gft is None:
        return
    for index in range(len(image.gft)):
        gf_address, bias = image.gft.peek_entry(index)
        owner = image.by_gf.get(gf_address)
        if owner is None:
            report.add(
                "gft-entry",
                Severity.ERROR,
                f"GFT entry {index} holds {gf_address:#06x}, which is not "
                "any instance's global frame",
                offset=index,
            )
        elif bias >= len(owner.env_indices) or owner.env_indices[bias] != index:
            report.add(
                "gft-bias",
                Severity.ERROR,
                f"GFT entry {index} carries bias {bias}, but module "
                f"{owner.name!r} assigns that bias slot to GFT entry "
                f"{owner.env_indices[bias] if bias < len(owner.env_indices) else '<none>'}",
                offset=index,
            )


def _descriptor_target(image: ProgramImage, word: int) -> tuple[Target | None, str, str]:
    """Chase a packed descriptor through GFT and EV.

    Returns ``(target, check, message)``: on success *target* is the
    ``(module name, procedure)`` pair and the rest is empty; on failure
    *target* is None and *check*/*message* describe the first broken link.
    """
    if not is_descriptor(word):
        return None, "descriptor-tag", (
            f"word {word:#06x} has no descriptor tag bit; the machine would "
            "treat it as a frame pointer"
        )
    env, code = unpack_descriptor(word)
    if image.gft is None:
        return None, "descriptor-tag", (
            "packed descriptors need a GFT, but SIMPLE linkage builds none"
        )
    if env >= len(image.gft):
        return None, "gft-index", (
            f"descriptor {word:#06x} has env {env}, outside the "
            f"{len(image.gft)}-entry GFT"
        )
    gf_address, bias = image.gft.peek_entry(env)
    linked = image.by_gf.get(gf_address)
    if linked is None:
        return None, "gft-entry", (
            f"descriptor {word:#06x} reaches GFT entry {env} holding "
            f"{gf_address:#06x}, not a global frame"
        )
    effective = effective_entry_index(code, bias)
    for procedure in linked.module.procedures:
        if procedure.ev_index == effective:
            return (linked.name, procedure), "", ""
    return None, "ev-index", (
        f"descriptor {word:#06x} selects entry {effective} (code {code}, "
        f"bias {bias}) but module {linked.name!r} has "
        f"{len(linked.module.procedures)} procedure(s)"
    )


def _wide_lv_target(
    image: ProgramImage, linked: LinkedModule, index: int
) -> tuple[Target | None, str, str]:
    """Resolve a SIMPLE-linkage link-vector entry: an (entry, GF) pair."""
    entry_address = image.memory.peek(linked.lv_base + 2 * index)
    gf_address = image.memory.peek(linked.lv_base + 2 * index + 1)
    meta = image.procs_by_entry.get(entry_address)
    if meta is None:
        return None, "lv-wide-entry", (
            f"wide link-vector entry {index} holds entry address "
            f"{entry_address:#06x}, which is no procedure's fsi byte"
        )
    owner = image.by_gf.get(gf_address)
    if owner is None:
        return None, "lv-wide-gf", (
            f"wide link-vector entry {index} holds GF {gf_address:#06x}, "
            "which is not any instance's global frame"
        )
    for procedure in owner.module.procedures:
        if procedure.name == meta.name:
            return (meta.module, procedure), "", ""
    return None, "lv-wide-gf", (
        f"wide link-vector entry {index} pairs {meta.module}.{meta.name} "
        f"with the GF of module {owner.name!r}, which has no such procedure"
    )


def _check_linked_module(
    image: ProgramImage,
    linked: LinkedModule,
    direct_headers: dict[int, Target],
    verified: VerifiedImage,
    instance_count: int,
) -> None:
    module = linked.module
    base = linked.code_base
    raw = image.code.raw
    config = image.config
    report = verified.report
    use_tables = config.linkage is not LinkageKind.SIMPLE
    counts: Counter = Counter()
    desc_fixups_by_proc: dict[str, list] = {}
    for fixup in module.fixups:
        if fixup.kind == "desc":
            desc_fixups_by_proc.setdefault(fixup.procedure, []).append(fixup)
            key = (fixup.target_module, fixup.target_procedure)
            if key in module.imports:
                counts[module.imports.index(key)] += 1

    def external(_procedure: Procedure, item: DecodedInstruction):
        index = external_index_of(item.instruction)
        if index >= len(module.imports):
            return None, "lv-index", (
                f"{item.instruction} uses link-vector index {index} but the "
                f"link vector has {len(module.imports)} populated entr(ies)"
            )
        if not use_tables:
            return _wide_lv_target(image, linked, index)
        word = image.memory.peek(linked.lv_base + index)
        target, check, message = _descriptor_target(image, word)
        if target is None:
            return None, check, f"link-vector entry {index}: {message}"
        return target, "", ""

    def direct(procedure: Procedure, item: DecodedInstruction):
        if item.instruction.op is Op.DFC:
            address = item.instruction.operand
        else:
            site = base + procedure.entry_offset + 1 + item.offset
            address = site + 3 + item.instruction.operand
        target = direct_headers.get(address)
        if target is None:
            return None, "direct-target", (
                f"{item.instruction} transfers to {address:#08x}, which is "
                "not any procedure's DIRECTCALL header"
            )
        return target, "", ""

    for procedure in module.procedures:
        node = ProcNode(module.name, procedure.name)
        entry = base + procedure.entry_offset

        ev_word = _word(raw, base + procedure.ev_index * EV_ENTRY_BYTES)
        if ev_word != procedure.entry_offset:
            report.add(
                "ev-entry",
                Severity.ERROR,
                f"entry-vector word {procedure.ev_index} holds "
                f"{ev_word:#06x}, but the procedure's fsi byte is at "
                f"segment offset {procedure.entry_offset:#06x}",
                module.name,
                procedure.name,
                offset=procedure.ev_index,
            )

        _check_fsi(image, linked, procedure, raw[entry], report)

        if procedure.direct_offset >= 0:
            header = _word(raw, base + procedure.direct_offset)
            expected = linked.gf_address if instance_count == 1 else 0
            if header != expected:
                report.add(
                    "direct-header-gf",
                    Severity.ERROR,
                    f"DIRECTCALL header holds GF {header:#06x}, expected "
                    f"{expected:#06x}",
                    module.name,
                    procedure.name,
                    offset=procedure.direct_offset,
                )

        body = raw[entry + 1 : entry + 1 + len(procedure.body)]
        body_record = _verify_body(
            module, procedure, body, config, external, direct, verified.graph, report
        )
        if body_record is not None:
            verified.bodies[node] = body_record
            _count_external_sites(body_record.cfg, len(module.imports), counts)
            _check_desc_literals(
                image,
                body_record.cfg,
                desc_fixups_by_proc.get(procedure.name, ()),
                node,
                verified.graph,
                report,
            )

    if use_tables and config.linkage is not LinkageKind.DIRECT:
        _check_import_order(module.name, module.imports, counts, report)


def _check_fsi(
    image: ProgramImage,
    linked: LinkedModule,
    procedure: Procedure,
    fsi: int,
    report: CheckReport,
) -> None:
    """The frame-size byte against the ladder and the frame's real need."""
    ladder = image.ladder
    if fsi >= len(ladder):
        report.add(
            "fsi-range",
            Severity.ERROR,
            f"fsi byte {fsi} is outside the {len(ladder)}-class allocation "
            "vector; LOCALCALL would index past the AV",
            linked.name,
            procedure.name,
            offset=procedure.entry_offset,
        )
        return
    if ladder.size_of(fsi) < procedure.frame_words:
        report.add(
            "fsi-too-small",
            Severity.ERROR,
            f"fsi {fsi} allocates {ladder.size_of(fsi)}-word frames but the "
            f"procedure needs {procedure.frame_words} words; its locals "
            "would overrun the frame",
            linked.name,
            procedure.name,
            offset=procedure.entry_offset,
        )
        return
    try:
        tight = ladder.fsi_for(procedure.frame_words)
    except FrameSizeError:
        tight = fsi
    if fsi != tight:
        report.add(
            "fsi-loose",
            Severity.WARNING,
            f"fsi {fsi} ({ladder.size_of(fsi)} words) is not the smallest "
            f"class fitting the {procedure.frame_words}-word frame "
            f"(fsi {tight}, {ladder.size_of(tight)} words); the excess is "
            "internal fragmentation (section 5.3)",
            linked.name,
            procedure.name,
            offset=procedure.entry_offset,
        )


def _check_desc_literals(
    image: ProgramImage,
    cfg: ControlFlowGraph,
    fixups,
    node: ProcNode,
    graph: CallGraph,
    report: CheckReport,
) -> None:
    """Validate the patched descriptor of every ``PROC(M.p)`` literal."""
    body = cfg.body
    for fixup in fixups:
        offset = fixup.site_offset
        if offset not in cfg.instruction_starts or body[offset] != Op.LIW:
            report.add(
                "desc-literal",
                Severity.ERROR,
                f"descriptor fixup at {offset:#06x} does not land on a LIW "
                "literal",
                node.module,
                node.name,
                offset=offset,
                context=instruction_context(body, offset),
            )
            continue
        word = _word(body, offset + 1)
        target, check, message = _descriptor_target(image, word)
        if target is None:
            report.add(
                check,
                Severity.ERROR,
                message,
                node.module,
                node.name,
                offset=offset,
                context=instruction_context(body, offset),
            )
            continue
        owner, procedure = target
        if (owner, procedure.name) != (fixup.target_module, fixup.target_procedure):
            report.add(
                "desc-mismatch",
                Severity.ERROR,
                f"PROC literal resolves to {owner}.{procedure.name} "
                f"but was compiled for "
                f"{fixup.target_module}.{fixup.target_procedure}",
                node.module,
                node.name,
                offset=offset,
                context=instruction_context(body, offset),
            )
        graph.add_reference(node, ProcNode(owner, procedure.name))


def _word(raw: bytes, address: int) -> int:
    return (raw[address] << 8) | raw[address + 1]
