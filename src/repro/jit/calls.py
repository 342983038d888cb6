"""Specialized call/return fast paths for compiled blocks.

The interpreter's call path re-derives the same facts on every
execution of a site: linkage resolution (already memoized by
:class:`~repro.mesa.linkage.LinkageCache`), the callee's metadata, its
frame size, and the charge schedule of the whole sequence.  The JIT
seeds a per-``(site, gf)`` **cell** the first time a call executes
generically, capturing the resolved target plus the linkage cache's
recorded charge pairs; subsequent executions replay the charges in one
batched update and perform only the state transition (frame
allocation, linkage words, register swap) with the interpreter's exact
memory, traffic, and allocator effects.

Supported shapes (anything else falls back to the generic handler,
which *is* the interpreter's own dispatch handler, so correctness
never depends on this module):

* host linkage cache enabled (the cell replays its recorded pairs);
* no register banks (i1–i3; the i4 bank/renaming machinery keeps the
  generic path);
* COPY argument convention;
* the AV-heap or first-fit allocators.

Guards run before any charge or mutation: a guarded-out call simply
invokes the generic handler, producing the interpreter's bit-exact
behaviour including its charges.
"""

from __future__ import annotations

from repro.ifu.ifu import FetchStats, TransferKind
from repro.ifu.returnstack import ReturnStackEntry
from repro.interp.frames import FrameState
from repro.interp.machineconfig import ArgConvention
from repro.isa.opcodes import Op
from repro.machine.costs import Event
from repro.mesa.globalframe import GF_CODE_BASE


class CallSite:
    """One compiled call site: its static shape plus seeded cells."""

    __slots__ = ("next_pc", "handler", "inst", "cells", "mono", "generic",
                 "lfc", "kind", "fast", "kind_event")

    def __init__(self, op: Op, next_pc: int, handler, inst, mono: bool) -> None:
        self.next_pc = next_pc
        self.handler = handler
        self.inst = inst
        #: caller gf -> _Cell.  Monomorphic sites see one target (and
        #: one cell per module instance); polymorphic sites get the
        #: same per-gf guarded ladder with more rungs.
        self.cells: dict[int, _Cell] = {}
        self.mono = mono
        #: Permanently demoted: the resolved target has no compiled
        #: metadata (replaced procedure, trap context) — always generic.
        self.generic = False
        self.lfc = op is Op.LFC
        if op is Op.DFC:
            kind = TransferKind.DIRECT_CALL
        elif op is Op.SDFC:
            kind = TransferKind.SHORT_DIRECT_CALL
        elif op is Op.LFC:
            kind = TransferKind.LOCAL_CALL
        else:
            kind = TransferKind.EXTERNAL_CALL
        self.kind = kind
        self.fast = FetchStats.call_is_fast(kind)
        self.kind_event = (
            Event.FAST_TRANSFER if self.fast else Event.SLOW_TRANSFER
        )


class _Cell:
    """The seeded (site, gf) resolution: target + batched charges."""

    __slots__ = ("pairs", "cycles", "meta", "gf_address", "cb_final",
                 "first_instruction", "fsi", "frame_words")

    def __init__(self, pairs, cycles, meta, resolved) -> None:
        self.pairs = pairs
        self.cycles = cycles
        self.meta = meta
        self.gf_address = resolved.gf_address
        self.cb_final = resolved.code_base if resolved.code_base >= 0 else -1
        self.first_instruction = resolved.first_instruction
        self.fsi = resolved.fsi
        self.frame_words = meta.frame_words


def make_fast_call(machine, stats):
    """Build the fast-call closure for *machine*, or None if unsupported."""
    config = machine.config
    image = machine.image
    if machine.linkage_cache is None:
        return None
    if machine.banks is not None:
        return None
    if config.arg_convention is not ArgConvention.COPY:
        return None

    counter = machine.counter
    counts = counter.counts
    charges = counter.charges
    mr = charges[Event.MEMORY_READ]
    mw = charges[Event.MEMORY_WRITE]
    fetch = machine.fetch
    frames_name = image.frame_region.name
    memory = machine.memory
    words = memory._words
    traffic = memory.traffic
    frames = machine.frames
    entries_map = machine.linkage_cache._entries
    procs_by_entry = image.procs_by_entry
    rstack = machine.rstack
    gf_region = memory.region_of(next(iter(image.by_gf)))
    gf_name = gf_region.name if gf_region is not None else ""
    E_MR = Event.MEMORY_READ
    E_MW = Event.MEMORY_WRITE

    if image.first_fit is not None:
        heap = image.first_fit
        head_base = heap.head_base
        head_region = memory.region_of(head_base)
        head_name = head_region.name if head_region is not None else ""
        ff_stats = heap.stats

        def alloc(fsi: int, req: int) -> int:
            # First-fit's hot shape, replayed inline: the head block
            # satisfies the request without splitting (call-dense runs
            # free and re-allocate the same sizes, so the freed block
            # comes straight back).  Pre-checks are uncounted; any
            # other shape — empty list, a walk past the head, a split,
            # an attached allocator tracer — delegates to the heap,
            # which performs every counted reference itself.
            if req < 3:
                req = 3
            elif req % 2 == 0:
                req += 1
            block = words[head_base]
            if block != 0 and heap.tracer is None:
                size = words[block]
                if size >= req and size - req < 4:
                    counts[E_MR] += 3
                    counts[E_MW] += 1
                    counter.cycles += 3 * mr + mw
                    traffic[head_name] = traffic.get(head_name, 0) + 2
                    traffic[frames_name] = traffic.get(frames_name, 0) + 2
                    words[head_base] = words[block + 1]
                    pointer = block + 1
                    heap._live[pointer] = size
                    ff_stats.on_reuse(size + 1)
                    ff_stats.on_allocate(0, size, size + 1)
                    return pointer
            return heap.allocate(req)

    elif machine.fast_frames is not None:
        return None  # FAST_STACK without banks: stay generic
    elif image.av_heap is not None:
        av = image.av_heap
        av_base = av.av_base
        av_region = memory.region_of(av_base)
        av_name = av_region.name if av_region is not None else ""
        sizes = tuple(av.ladder.size_of(f) for f in range(len(av.ladder)))
        av_stats = av.stats

        def alloc(fsi: int, req: int) -> int:
            # The paper's three-reference fast path (section 5.3),
            # replayed inline.  Pre-checks are uncounted; an empty free
            # list, an oversize request, or an attached allocator
            # tracer delegates to the heap, which performs every
            # counted reference (and the trap protocol) itself.
            head = words[av_base + fsi]
            size = sizes[fsi]
            if head != 0 and req <= size and av.tracer is None:
                counts[E_MR] += 2
                counts[E_MW] += 1
                counter.cycles += 2 * mr + mw
                traffic[av_name] = traffic.get(av_name, 0) + 2
                traffic[frames_name] = traffic.get(frames_name, 0) + 1
                words[av_base + fsi] = words[head]
                av_stats.on_reuse(size + 1)
                av_stats.on_allocate(fsi, req, size + 1)
                av._live[head] = req
                return head
            return av.allocate(fsi, requested_words=req)

    else:
        return None

    def seed(m, site: CallSite, gf: int) -> int:
        """Run the call generically, then capture its cell."""
        site.handler(site.inst, site.next_pc)
        if site.generic or m.remote_stub is not None:
            return -1
        entry = entries_map.get((site.next_pc, gf))
        if entry is None:
            return -1
        resolved, pairs, walk_cycles = entry
        meta = procs_by_entry.get(resolved.entry_address)
        if meta is None:
            site.generic = True
            stats.sites_demoted += 1
            return -1
        cycles = charges[site.kind_event] + walk_cycles
        site.cells[gf] = _Cell(tuple(pairs), cycles, meta, resolved)
        stats.cells_built += 1
        return -1

    def lazy_cb_for_lfc(m, caller) -> None:
        """Replay ``_current_code_base``'s charged fetch (LFC prologue)."""
        counts[E_MR] += 1
        counter.cycles += mr
        traffic[gf_name] = traffic.get(gf_name, 0) + 1
        cb = words[m.gf + GF_CODE_BASE]
        m.cb = cb
        caller.code_base = cb

    if rstack is not None:
        rentries = rstack._entries
        rstats = rstack.stats
        rdepth = rstack.depth

        def fast_call(m, site: CallSite) -> int:
            gf = m.gf
            cell = site.cells.get(gf)
            if cell is None:
                return seed(m, site, gf)
            caller = m.frame
            if (
                caller is None
                or m.remote_stub is not None
                or len(rentries) >= rdepth
            ):
                site.handler(site.inst, site.next_pc)
                return -1
            if site.lfc and m.cb < 0:
                lazy_cb_for_lfc(m, caller)
            # Committed: replay resolution charges + the transfer event.
            for event, times in cell.pairs:
                counts[event] += times
            counts[site.kind_event] += 1
            counter.cycles += cell.cycles
            bucket = fetch.fast if site.fast else fetch.slow
            kind = site.kind
            bucket[kind] = bucket.get(kind, 0) + 1
            callee = FrameState(proc=cell.meta, gf=cell.gf_address, fsi=cell.fsi)
            if cell.cb_final >= 0:
                callee.code_base = cell.cb_final
            addr = alloc(cell.fsi, cell.frame_words)
            callee.address = addr
            counts[E_MW] += 1
            counter.cycles += mw
            traffic[frames_name] = traffic.get(frames_name, 0) + 1
            words[addr + 1] = cell.gf_address  # FRAME_GLOBAL
            frames.register(callee)
            rentries.append(
                ReturnStackEntry(frame=caller, pc=site.next_pc, cb=m.cb)
            )
            rstats.pushes += 1
            m.return_context = caller
            m.frame = callee
            m.gf = cell.gf_address
            m.cb = cell.cb_final
            m.pc = cell.first_instruction
            return cell.first_instruction

        return fast_call

    def fast_call(m, site: CallSite) -> int:
        gf = m.gf
        cell = site.cells.get(gf)
        if cell is None:
            return seed(m, site, gf)
        caller = m.frame
        if caller is None or m.remote_stub is not None:
            site.handler(site.inst, site.next_pc)
            return -1
        if site.lfc and m.cb < 0:
            lazy_cb_for_lfc(m, caller)
        # Committed: replay resolution charges + the transfer event.
        for event, times in cell.pairs:
            counts[event] += times
        counts[site.kind_event] += 1
        counter.cycles += cell.cycles
        bucket = fetch.fast if site.fast else fetch.slow
        kind = site.kind
        bucket[kind] = bucket.get(kind, 0) + 1
        callee = FrameState(proc=cell.meta, gf=cell.gf_address, fsi=cell.fsi)
        if cell.cb_final >= 0:
            callee.code_base = cell.cb_final
        addr = alloc(cell.fsi, cell.frame_words)
        callee.address = addr
        counts[E_MW] += 1
        counter.cycles += mw
        traffic[frames_name] = traffic.get(frames_name, 0) + 1
        words[addr + 1] = cell.gf_address  # FRAME_GLOBAL
        frames.register(callee)
        # The general scheme saves the caller's PC and writes the
        # return link now; CB is fetched lazily like _code_base_of.
        cb = m.cb
        if cb < 0:
            cb = caller.code_base
            if cb < 0:
                counts[E_MR] += 1
                counter.cycles += mr
                traffic[gf_name] = traffic.get(gf_name, 0) + 1
                cb = words[caller.gf + GF_CODE_BASE]
                caller.code_base = cb
        counts[E_MW] += 2
        counter.cycles += 2 * mw
        traffic[frames_name] = traffic.get(frames_name, 0) + 2
        words[caller.address + 2] = (site.next_pc - cb) & 65535  # FRAME_PC
        words[addr] = caller.address  # FRAME_RETURN_LINK
        m.return_context = caller
        m.frame = callee
        m.gf = cell.gf_address
        m.cb = cell.cb_final
        m.pc = cell.first_instruction
        return cell.first_instruction

    return fast_call


def make_fast_return(machine, stats):
    """Build the fast-return closure for *machine*, or None."""
    if machine.banks is not None:
        return None
    image = machine.image
    counter = machine.counter
    counts = counter.counts
    charges = counter.charges
    fetch = machine.fetch
    memory = machine.memory
    words = memory._words
    traffic = memory.traffic
    frames_name = image.frame_region.name
    by_address = machine.frames.by_address
    rstack = machine.rstack
    gf_region = memory.region_of(next(iter(image.by_gf)))
    gf_name = gf_region.name if gf_region is not None else ""
    K_RET = TransferKind.RETURN
    E_MR = Event.MEMORY_READ
    E_MW = Event.MEMORY_WRITE
    mr = charges[E_MR]
    mw = charges[E_MW]

    if image.first_fit is not None:
        heap = image.first_fit
        head_base = heap.head_base
        head_region = memory.region_of(head_base)
        head_name = head_region.name if head_region is not None else ""
        ff_stats = heap.stats

        def free(addr: int) -> None:
            # First-fit free is a counted three-reference list push;
            # replayed inline unless something unusual (double free, an
            # attached allocator tracer) needs the heap's own path.
            if addr in heap._live and heap.tracer is None:
                counts[E_MR] += 1
                counts[E_MW] += 2
                counter.cycles += mr + 2 * mw
                traffic[head_name] = traffic.get(head_name, 0) + 2
                traffic[frames_name] = traffic.get(frames_name, 0) + 1
                block = addr - 1
                words[addr] = words[head_base]
                words[head_base] = block
                released = heap._live.pop(addr)
                ff_stats.on_free(released, released + 1)
            else:
                heap.free(addr)

    elif machine.fast_frames is not None:
        return None
    elif image.av_heap is not None:
        av = image.av_heap
        av_base = av.av_base
        av_region = memory.region_of(av_base)
        av_name = av_region.name if av_region is not None else ""
        ladder_len = len(av.ladder)
        sizes = tuple(av.ladder.size_of(f) for f in range(ladder_len))
        av_stats = av.stats

        def free(addr: int) -> None:
            # The paper's four-reference free (section 5.3), replayed
            # inline; pre-checks are uncounted, and a double free, a
            # corrupt fsi header, or an attached allocator tracer
            # delegates to the heap, which performs every counted
            # reference itself.
            fsi = words[addr - 1] if addr in av._live else -1
            if 0 <= fsi < ladder_len and av.tracer is None:
                counts[E_MR] += 2
                counts[E_MW] += 2
                counter.cycles += 2 * (mr + mw)
                traffic[frames_name] = traffic.get(frames_name, 0) + 2
                traffic[av_name] = traffic.get(av_name, 0) + 2
                words[addr] = words[av_base + fsi]
                words[av_base + fsi] = addr
                av_stats.on_free(av._live.pop(addr), sizes[fsi] + 1)
            else:
                av.free(addr)
    else:
        return None

    if rstack is not None:
        rentries = rstack._entries
        rstats = rstack.stats
        E_FT = Event.FAST_TRANSFER
        ft = charges[E_FT]
        ffast = fetch.fast

        def fast_return(m) -> int:
            current = m.frame
            if not rentries or current.retained:
                m._op_return()
                return -1
            entry = rentries[-1]
            dest = entry.frame
            if dest.freed:
                m._op_return()  # raises DanglingFrame, identically
                return -1
            rentries.pop()
            rstats.hits += 1
            counts[E_FT] += 1
            counter.cycles += ft
            ffast[K_RET] = ffast.get(K_RET, 0) + 1
            # Free the (unretained) current frame.
            current.freed = True
            addr = current.address
            if addr is None:
                m.deferred_frames += 1
            else:
                by_address.pop(addr, None)
                free(addr)
            m.frame = dest
            m.pc = entry.pc
            m.gf = dest.gf
            m.cb = entry.cb if entry.cb >= 0 else dest.code_base
            m.return_context = None
            return entry.pc

        return fast_return

    E_ST = Event.SLOW_TRANSFER
    st_cost = charges[E_ST]
    fslow = fetch.slow

    def fast_return(m) -> int:
        current = m.frame
        if current.retained:
            m._op_return()
            return -1
        addr = current.address
        link = words[addr]
        if link == 0:
            m._op_return()  # the final return halts the machine
            return -1
        dest = by_address.get(link)
        if dest is None or dest is current or dest.freed or dest.stashed_stack:
            m._op_return()
            return -1
        fslow[K_RET] = fslow.get(K_RET, 0) + 1
        counts[E_ST] += 1
        counts[E_MR] += 1
        counter.cycles += st_cost + mr
        traffic[frames_name] = traffic.get(frames_name, 0) + 1
        current.freed = True
        by_address.pop(addr, None)
        free(addr)
        m.return_context = None
        # _resume_from_memory: PC, GF from the frame, CB from the gf.
        counts[E_MR] += 3
        counter.cycles += 3 * mr
        traffic[frames_name] = traffic.get(frames_name, 0) + 2
        traffic[gf_name] = traffic.get(gf_name, 0) + 1
        pc_rel = words[dest.address + 2]
        gf = words[dest.address + 1]
        cb = words[gf + GF_CODE_BASE]
        dest.code_base = cb
        m.frame = dest
        m.gf = gf
        m.cb = cb
        pc = cb + pc_rel
        m.pc = pc
        return pc

    return fast_return
