"""The linker: modules in, runnable :class:`ProgramImage` out.

Responsibilities, mirroring the paper's link-time story:

* assign each procedure its frame-size index from the ladder (the fsi
  byte is the compiler/allocator contract of section 5.3);
* lay out the code space (entry vectors, fsi bytes, bodies, and — under
  DIRECT linkage — the inline GF headers of section 6);
* lay out memory: GFT, allocation vector, link vectors, quad-aligned
  global frames, and the frame region;
* populate the tables: GFT entries (with bias slots for modules of more
  than 32 entry points), link vectors (packed descriptors under MESA/
  DIRECT, wide address pairs under SIMPLE);
* patch direct-call sites and the GF word in every direct header (D3:
  "fixing up addresses throughout the code, as is traditional in
  conventional linkers").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.alloc.avheap import AVHeap
from repro.alloc.simpleheap import SimpleHeap
from repro.alloc.sizing import SizeLadder, geometric_ladder
from repro.errors import LinkError
from repro.interp.frames import ProcMeta
from repro.interp.image import LinkedModule, ProgramImage
from repro.interp.machineconfig import FrameAllocatorKind, LinkageKind, MachineConfig
from repro.isa.program import ModuleCode
from repro.isa.program import CodeSpace
from repro.machine.costs import CycleCounter
from repro.machine.memory import MDS_WORDS, Memory
from repro.mesa.descriptor import ENTRIES_PER_BIAS, MAX_BIAS, pack_descriptor
from repro.mesa.globalframe import GlobalFrameBuilder
from repro.mesa.tables import GlobalFrameTable, LinkVector, WideLinkVector


@dataclass
class LinkOptions:
    """Link-time knobs independent of the machine configuration."""

    #: Instance counts per module (default 1 each); section 5.1's
    #: multi-instance support, and section 6's D2 constraint.
    instances: dict[str, int] = field(default_factory=dict)
    #: Frame-size ladder; defaults to the paper's geometric ladder.
    ladder: SizeLadder | None = None
    #: GFT capacity (entries).
    gft_capacity: int = 256
    #: Words reserved for the frame region; default: the rest of memory.
    frame_region_words: int | None = None
    #: Frames the software allocator creates per trap.
    replenish_batch: int = 4
    #: Feedback-directed frame-size index overrides, keyed by
    #: ``(module, procedure)``.  An override may only widen a frame's
    #: class (the ladder class must still hold ``frame_words``); the
    #: optimizer uses it to merge sparse AV classes into hot ones — the
    #: section 5.4 tuning lever.
    fsi_overrides: dict[tuple[str, str], int] = field(default_factory=dict)


#: Low memory reserved so that NIL (0) is never a valid frame address.
_RESERVED_WORDS = 16


def link(
    modules: list[ModuleCode],
    config: MachineConfig,
    entry: tuple[str, str],
    options: LinkOptions | None = None,
) -> ProgramImage:
    """Bind *modules* into a program image for *config*.

    *entry* names the main procedure as ``(module, procedure)``.
    """
    options = options or LinkOptions()
    ladder = options.ladder or geometric_ladder()
    counter = CycleCounter(config.cost_model)
    memory = Memory(MDS_WORDS, counter)
    code = CodeSpace(counter)

    by_name = {module.name: module for module in modules}
    if len(by_name) != len(modules):
        raise LinkError("duplicate module names")
    if entry[0] not in by_name:
        raise LinkError(f"entry module {entry[0]!r} not among the modules")

    # -- 1. frame-size indices and code layout --------------------------------
    direct = config.linkage is LinkageKind.DIRECT
    # Selective DIRECTCALL headers: under non-DIRECT linkage, any
    # procedure targeted by a promoted dfc/sdfc fixup still needs the
    # section 6 header in front of its fsi byte.
    header_targets: dict[str, set[str]] = {}
    if not direct:
        for module in modules:
            for fixup in module.fixups:
                if fixup.kind in ("dfc", "sdfc"):
                    header_targets.setdefault(fixup.target_module, set()).add(
                        fixup.target_procedure
                    )
    fsi_of: dict[str, dict[str, int]] = {}
    for module in modules:
        fsi_of[module.name] = {
            procedure.name: _assign_fsi(ladder, module.name, procedure, options)
            for procedure in module.procedures
        }
        module.build_segment(
            fsi_of[module.name],
            direct_headers=True if direct else header_targets.get(module.name, set()),
        )
    code_bases = {module.name: code.place(module) for module in modules}

    # -- 2. memory layout -------------------------------------------------------
    cursor = _RESERVED_WORDS
    use_tables = config.linkage in (LinkageKind.MESA, LinkageKind.DIRECT)
    gft: GlobalFrameTable | None = None
    if use_tables:
        gft = GlobalFrameTable(memory, cursor, options.gft_capacity)
        memory.add_region("gft", cursor, options.gft_capacity)
        cursor += options.gft_capacity

    av_base = cursor
    # One word past the AV: the first-fit heap's free-list head, in the
    # same region, so I1's allocator traffic is attributed like I2-I4's.
    memory.add_region("av", av_base, len(ladder) + 1)
    cursor += len(ladder)
    head_base = cursor
    cursor += 1

    # Link vectors (shared across instances of a module).
    lv_cls = LinkVector if use_tables else WideLinkVector
    lv_of: dict[str, LinkVector | WideLinkVector] = {}
    for module in modules:
        capacity = max(1, len(module.imports))
        lv = lv_cls(memory, cursor, capacity)
        lv_of[module.name] = lv
        cursor += lv.words()
    memory.add_region("link_vectors", head_base + 1, cursor - head_base - 1)

    # Global frames, quad-aligned.
    gf_words_needed = 0
    for module in modules:
        count = options.instances.get(module.name, 1)
        gf_words_needed += count * (3 + module.global_words + 4)
    gf_region_base = _align4(cursor)
    builder = GlobalFrameBuilder(memory, gf_region_base, gf_words_needed + 16)
    memory.add_region("global_frames", gf_region_base, gf_words_needed + 16)
    cursor = gf_region_base + gf_words_needed + 16

    # The frame region takes the rest (or the requested amount).
    frame_words = options.frame_region_words or (memory.size - cursor - 16)
    frame_region = memory.add_region("frames", cursor, frame_words)

    av_heap: AVHeap | None = None
    first_fit: SimpleHeap | None = None
    if config.allocator is FrameAllocatorKind.FIRST_FIT:
        first_fit = SimpleHeap(memory, head_base, frame_region.base, frame_words)
    else:
        av_heap = AVHeap(
            memory,
            ladder,
            av_base,
            frame_region.base,
            frame_words,
            replenish_batch=options.replenish_batch,
        )

    # -- 3. place instances: global frames and GFT entries -----------------------
    instances: dict[tuple[str, int], LinkedModule] = {}
    by_gf: dict[int, LinkedModule] = {}
    module_ids = 0
    for module in modules:
        count = options.instances.get(module.name, 1)
        if count < 1:
            raise LinkError(f"module {module.name!r} needs at least one instance")
        bias_slots = _bias_slots(len(module.procedures))
        for instance in range(count):
            module_ids += 1
            gf_address = builder.place(
                code_bases[module.name],
                lv_of[module.name].base,
                module_ids,
                module.global_words,
            )
            env_indices: list[int] = []
            if gft is not None:
                for bias in range(bias_slots):
                    env_indices.append(gft.add_entry(gf_address, bias))
            linked = LinkedModule(
                module=module,
                instance=instance,
                code_base=code_bases[module.name],
                gf_address=gf_address,
                lv_base=lv_of[module.name].base,
                lv=lv_of[module.name],
                env_indices=env_indices,
            )
            instances[linked.key()] = linked
            by_gf[gf_address] = linked

    # -- 4. populate link vectors ---------------------------------------------------
    for module in modules:
        lv = lv_of[module.name]
        for index, (target_module, target_proc) in enumerate(module.imports):
            target = _require_instance(instances, target_module, 0)
            procedure = target.module.procedure_named(target_proc)
            if use_tables:
                descriptor = _descriptor_for(target, procedure.ev_index)
                lv.set_entry(index, descriptor)
            else:
                entry_address = target.code_base + procedure.entry_offset
                lv.set_entry(index, entry_address, target.gf_address)

    # -- 5. call and descriptor fixups -------------------------------------------------
    _apply_fixups(code, modules, instances, options, use_tables=use_tables)

    # -- 6. procedure metadata -------------------------------------------------------------
    procs_by_entry: dict[int, ProcMeta] = {}
    for module in modules:
        base = code_bases[module.name]
        for procedure in module.procedures:
            meta = ProcMeta(
                module=module.name,
                name=procedure.name,
                entry_address=base + procedure.entry_offset,
                arg_count=procedure.arg_count,
                result_count=procedure.result_count,
                frame_words=procedure.frame_words,
                fsi=fsi_of[module.name][procedure.name],
                ev_index=procedure.ev_index,
            )
            procs_by_entry[meta.entry_address] = meta

    entry_module = _require_instance(instances, entry[0], 0)
    entry_proc = entry_module.module.procedure_named(entry[1])
    entry_meta = procs_by_entry[entry_module.code_base + entry_proc.entry_offset]

    image = ProgramImage(
        config=config,
        counter=counter,
        memory=memory,
        code=code,
        ladder=ladder,
        gft=gft,
        av_heap=av_heap,
        first_fit=first_fit,
        frame_region=frame_region,
        instances=instances,
        by_gf=by_gf,
        procs_by_entry=procs_by_entry,
        entry=entry_meta,
    )
    return image


# -- helpers ---------------------------------------------------------------------


def _align4(value: int) -> int:
    return (value + 3) & ~3


def _assign_fsi(
    ladder: SizeLadder,
    module_name: str,
    procedure,
    options: LinkOptions,
) -> int:
    """Tight ladder class, unless a (validated) override widens it."""
    tight = ladder.fsi_for(procedure.frame_words)
    override = options.fsi_overrides.get((module_name, procedure.name))
    if override is None:
        return tight
    if not 0 <= override < len(ladder):
        raise LinkError(
            f"fsi override {override} for {module_name}.{procedure.name} "
            f"is outside the {len(ladder)}-class ladder"
        )
    if ladder.size_of(override) < procedure.frame_words:
        raise LinkError(
            f"fsi override {override} ({ladder.size_of(override)} words) for "
            f"{module_name}.{procedure.name} is under its "
            f"{procedure.frame_words}-word frame"
        )
    return override


def _bias_slots(procedure_count: int) -> int:
    """GFT entries needed for a module of *procedure_count* entry points.

    One slot covers 32 procedures; the 2 bias bits allow four slots, for
    the paper's 128-entry escape hatch.
    """
    slots = (procedure_count + ENTRIES_PER_BIAS - 1) // ENTRIES_PER_BIAS
    slots = max(slots, 1)
    if slots > MAX_BIAS + 1:
        raise LinkError(
            f"module with {procedure_count} entry points exceeds the "
            f"{ENTRIES_PER_BIAS * (MAX_BIAS + 1)}-entry bias scheme"
        )
    return slots


def _descriptor_for(target: LinkedModule, ev_index: int) -> int:
    """Pack a descriptor for *ev_index* of *target*, using bias slots."""
    slot, code = divmod(ev_index, ENTRIES_PER_BIAS)
    if slot >= len(target.env_indices):
        raise LinkError(
            f"procedure ev index {ev_index} outside the bias slots of "
            f"module {target.name!r}"
        )
    return pack_descriptor(target.env_indices[slot], code)


def _require_instance(
    instances: dict[tuple[str, int], LinkedModule], module: str, instance: int
) -> LinkedModule:
    try:
        return instances[(module, instance)]
    except KeyError:
        raise LinkError(f"unresolved reference to module {module!r}") from None


def _apply_fixups(
    code: CodeSpace,
    modules: list[ModuleCode],
    instances: dict[tuple[str, int], LinkedModule],
    options: LinkOptions,
    use_tables: bool,
) -> None:
    """Patch DFC/SDFC operands, GF headers, and descriptor literals."""
    # GF headers: each headered procedure (every one under DIRECT, only
    # the promoted targets otherwise) gets its (single) instance's global
    # frame.  Multi-instance modules are not direct targets (D2).
    for module in modules:
        count = options.instances.get(module.name, 1)
        linked = instances[(module.name, 0)]
        for procedure in module.procedures:
            if procedure.direct_offset < 0:
                continue
            header = linked.code_base + procedure.direct_offset
            code.patch_word(header, linked.gf_address if count == 1 else 0)

    code.epoch += 1  # direct buffer patches below invalidate decode caches
    for module in modules:
        linked = instances[(module.name, 0)]
        for fixup in module.fixups:
            site_proc = module.procedure_named(fixup.procedure)
            site = linked.code_base + site_proc.entry_offset + 1 + fixup.site_offset
            buffer = code.buffer
            if fixup.kind == "desc":
                # A PROC(M.p) literal: patch the packed descriptor into
                # the LIW operand ("LOADLITERAL f; XFER", section 4).
                if not use_tables:
                    raise LinkError(
                        "PROC literals need packed descriptors; SIMPLE "
                        "linkage has none"
                    )
                target = _require_instance(instances, fixup.target_module, 0)
                target_proc = target.module.procedure_named(fixup.target_procedure)
                descriptor = _descriptor_for(target, target_proc.ev_index)
                buffer[site + 1] = (descriptor >> 8) & 0xFF
                buffer[site + 2] = descriptor & 0xFF
                continue
            target_count = options.instances.get(fixup.target_module, 1)
            if target_count != 1:
                raise LinkError(
                    f"direct call to multi-instance module "
                    f"{fixup.target_module!r} (D2: fall back to EXTERNALCALL)"
                )
            target = _require_instance(instances, fixup.target_module, 0)
            target_proc = target.module.procedure_named(fixup.target_procedure)
            if target_proc.direct_offset < 0:
                raise LinkError(
                    f"direct call to {fixup.target_module}.{fixup.target_procedure} "
                    "but its segment has no direct header"
                )
            target_address = target.code_base + target_proc.direct_offset
            if fixup.kind == "dfc":
                buffer[site + 1] = (target_address >> 16) & 0xFF
                buffer[site + 2] = (target_address >> 8) & 0xFF
                buffer[site + 3] = target_address & 0xFF
            elif fixup.kind == "sdfc":
                displacement = target_address - (site + 3)
                if not -0x8000 <= displacement <= 0x7FFF:
                    raise LinkError(
                        f"SHORTDIRECTCALL displacement {displacement} out of "
                        "range; use DFC"
                    )
                raw = displacement & 0xFFFF
                buffer[site + 1] = (raw >> 8) & 0xFF
                buffer[site + 2] = raw & 0xFF
            else:
                raise LinkError(f"unknown fixup kind {fixup.kind!r}")
