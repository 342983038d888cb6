"""Specialized call/return fast paths for compiled blocks.

The interpreter's call path re-derives the same facts on every
execution of a site: linkage resolution (already memoized by
:class:`~repro.mesa.linkage.LinkageCache`), the callee's metadata, its
frame size, and the charge schedule of the whole sequence.  The JIT
seeds a per-``(site, gf)`` **cell** the first time a call executes
generically, capturing the resolved target plus the linkage cache's
recorded charge pairs; subsequent executions replay the charges in one
batched update and perform only the state transition with the
interpreter's exact memory, traffic, register, and allocator effects:

* without register banks (i1–i3), frame allocation, the linkage words
  (or the return-stack push), and the register swap;
* with banks, the return stack and deferred allocation (i4), the
  section 7.2 rename: the argument record lands in the stack bank,
  which becomes the callee's local bank, a free bank becomes the new
  stack, and the callee's frame stays deferred — no allocation at all.

Supported shapes (anything else falls back to the generic handler,
which *is* the interpreter's own dispatch handler, so correctness
never depends on this module):

* host linkage cache enabled (the cell replays its recorded pairs);
* no banks with the AV-heap or first-fit allocators, or banks with the
  return stack and deferred allocation;
* no remote stub, except for ``LFC``: its target is always in the
  caller's module, which a shard's stub never diverts.

Guards run before any charge or mutation: a guarded-out call simply
invokes the generic handler, producing the interpreter's bit-exact
behaviour including its charges.  That covers every unusual event the
paper sends to its "orderly fallback position" — a full return stack,
no free bank (overflow), a reclaimed caller bank (underflow), a flagged
or retained frame — so flushing, spilling and filling stay in one place.
"""

from __future__ import annotations

from repro.banks.bankfile import BankRole
from repro.banks.renaming import BankEvent
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
        #: metadata (replaced procedure, trap context) or, on a banked
        #: machine, more locals than a bank can defer — always generic.
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
                 "first_instruction", "fsi", "frame_words", "label")

    def __init__(self, pairs, cycles, meta, resolved) -> None:
        self.pairs = pairs
        self.cycles = cycles
        self.meta = meta
        self.gf_address = resolved.gf_address
        self.cb_final = resolved.code_base if resolved.code_base >= 0 else -1
        self.first_instruction = resolved.first_instruction
        self.fsi = resolved.fsi
        self.frame_words = meta.frame_words
        #: The bank-trace row a renaming call records.
        self.label = f"call {meta.name}"


def _renames(machine) -> bool:
    """I4's shape: banks, the return stack, and deferred allocation.

    Renaming cells need the return stack to carry the caller's bank and
    deferral to keep the callee out of memory; a banked machine without
    either keeps the generic handlers.
    """
    return (
        machine.banks is not None
        and machine.rstack is not None
        and machine.config.deferred_allocation
    )


def make_fast_call(machine, stats):
    """Build the fast-call closure for *machine*, or None if unsupported."""
    image = machine.image
    if machine.linkage_cache is None:
        return None
    banked = machine.banks is not None
    if banked and not _renames(machine):
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
    bank_words = machine.config.bank_words

    def seed(m, site: CallSite, gf: int) -> int:
        """Run the call generically, then capture its cell."""
        site.handler(site.inst, site.next_pc)
        if site.generic or (m.remote_stub is not None and not site.lfc):
            return -1
        entry = entries_map.get((site.next_pc, gf))
        if entry is None:
            return -1
        resolved, pairs, walk_cycles = entry
        meta = procs_by_entry.get(resolved.entry_address)
        if meta is None or (banked and meta.local_words > bank_words):
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

    if banked:
        return _renaming_call(machine, seed, lazy_cb_for_lfc)

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
                or (m.remote_stub is not None and not site.lfc)
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
        if caller is None or (m.remote_stub is not None and not site.lfc):
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


def _renaming_call(machine, seed, lazy_cb_for_lfc):
    """I4's call cell: ``_do_call``'s RENAME transition, replayed.

    The argument record is written into the stack bank (words and dirty
    bits), the return stack records the caller with its bank, and
    ``BankManager.on_call``'s rename runs inline: the stack bank becomes
    the callee's Lbank and the first free bank the new stack, each with
    the next assignment sequence number.  The callee's frame stays
    deferred, so the call touches no memory at all.
    """
    counter = machine.counter
    counts = counter.counts
    fetch = machine.fetch
    stack = machine.stack
    rstack = machine.rstack
    rentries = rstack._entries
    rstats = rstack.stats
    rdepth = rstack.depth
    banks = machine.banks
    trace = banks.trace
    bankfile = machine.bankfile
    bank_list = bankfile._banks
    bstats = bankfile.stats
    rename = machine.config.arg_convention is ArgConvention.RENAME
    LOCAL = BankRole.LOCAL
    STACK = BankRole.STACK
    FREE = BankRole.FREE

    def fast_call(m, site: CallSite) -> int:
        gf = m.gf
        cell = site.cells.get(gf)
        if cell is None:
            return seed(m, site, gf)
        caller = m.frame
        sbank = banks.sbank
        slots = stack._slots
        # The stack bank must be holding the stack, so the search for a
        # free bank below cannot hand it back as the new stack.
        if (
            caller is None
            or caller.flagged
            or (m.remote_stub is not None and not site.lfc)
            or len(rentries) >= rdepth
            or sbank is None
            or sbank.role is not STACK
            or (rename and len(slots) > sbank.size)
        ):
            site.handler(site.inst, site.next_pc)
            return -1
        for fresh in bank_list:
            if fresh.role is FREE:
                break
        else:
            # Bank overflow: the generic path spills the oldest bank.
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
        rentries.append(
            ReturnStackEntry(frame=caller, pc=site.next_pc, cb=m.cb, bank=banks.lbank)
        )
        rstats.pushes += 1
        # The rename: the stack bank shadows the callee, a free bank
        # becomes the stack.
        bstats.xfers += 1
        bstats.assignments += 1
        seq = bankfile._seq
        sbank.role = LOCAL
        sbank.frame = callee
        sbank.assigned_at = seq + 1
        fresh.role = STACK
        fresh.frame = None
        fresh.assigned_at = seq + 2
        fresh.dirty.clear()
        bankfile._seq = seq + 2
        banks.lbank = sbank
        banks.sbank = fresh
        trace.append(BankEvent(cell.label, sbank.id, fresh.id))
        if rename and slots:
            # The arguments become the first locals: live in the bank,
            # not yet in memory, so dirty from the frame's point of view.
            count = len(slots)
            sbank.words[:count] = slots
            sbank.dirty.update(range(count))
            slots.clear()
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
        return _renaming_return(machine) if _renames(machine) else None
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


def _renaming_return(machine):
    """I4's return: ``_op_return``'s return-stack hit with bank restore.

    Pops the caller's entry, frees the deferred frame (it never existed
    in memory), releases the current Lbank and makes the caller's bank
    current again; the stack bank stays put, carrying the results.
    """
    counter = machine.counter
    counts = counter.counts
    E_FT = Event.FAST_TRANSFER
    ft = counter.charges[E_FT]
    ffast = machine.fetch.fast
    K_RET = TransferKind.RETURN
    rstack = machine.rstack
    rentries = rstack._entries
    rstats = rstack.stats
    banks = machine.banks
    trace = banks.trace
    bstats = machine.bankfile.stats
    FREE = BankRole.FREE

    def fast_return(m) -> int:
        # Generic: an empty return stack, a retained frame (spilled on
        # return), a materialized one (freed to its allocator), a
        # dangling return (raises), and a caller whose bank was
        # reclaimed (an underflow fills one).
        current = m.frame
        if not rentries or current.retained or current.address is not None:
            m._op_return()
            return -1
        entry = rentries[-1]
        dest = entry.frame
        bank = entry.bank
        lbank = banks.lbank
        if dest.freed or bank is None or bank is lbank or bank.frame is not dest:
            m._op_return()
            return -1
        rentries.pop()
        rstats.hits += 1
        counts[E_FT] += 1
        counter.cycles += ft
        ffast[K_RET] = ffast.get(K_RET, 0) + 1
        current.freed = True
        m.deferred_frames += 1
        bstats.xfers += 1
        if lbank is not None:
            lbank.role = FREE
            lbank.frame = None
            lbank.dirty.clear()
            bstats.releases += 1
        banks.lbank = bank
        sbank = banks.sbank
        trace.append(BankEvent("return", bank.id, sbank.id if sbank is not None else -1))
        m.frame = dest
        m.pc = entry.pc
        m.gf = dest.gf
        m.cb = entry.cb if entry.cb >= 0 else dest.code_base
        m.return_context = None
        return entry.pc

    return fast_return
