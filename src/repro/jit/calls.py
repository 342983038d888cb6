"""Specialized call/return fast paths for compiled blocks.

The interpreter's call path re-derives the same facts on every
execution of a site: linkage resolution (already memoized by
:class:`~repro.mesa.linkage.LinkageCache`), the callee's metadata, its
frame size, and the charge schedule of the whole sequence.  The JIT
seeds a per-``(site, gf)`` **cell** the first time a call executes
generically, capturing the resolved target and one merged charge
vector; subsequent executions commit that vector in one batched update
and perform only the state transition with the interpreter's exact
memory, traffic, register, and allocator effects:

* without register banks (i1–i3), frame allocation, the linkage words
  (or the return-stack push), and the register swap;
* with banks, the return stack and deferred allocation (i4), the
  section 7.2 rename: the argument record lands in the stack bank,
  which becomes the callee's local bank, a free bank becomes the new
  stack, and the callee's frame stays deferred — no allocation at all.

A seeded call and a seeded return are one host call each.  Without
banks, the allocator's paper fast path is spliced into the cells'
source, which :func:`make_cells` assembles and compiles when the
engine compiles its first procedure, as :mod:`repro.jit.compile` does
blocks: the AV heap's three-reference allocate and four-reference free
(section 5.3), or first-fit's no-split head-block hit and its list
push, with their :class:`~repro.alloc.stats.AllocationStats` updates
and the frame-table registration inline.

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
or retained frame, an empty free list, a first-fit split, a double free
— so flushing, spilling, filling and the software allocator stay in
one place.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass

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
    """The seeded (site, gf) resolution: target + one charge vector."""

    __slots__ = ("vec", "cycles", "meta", "gf_address", "cb_final",
                 "first_instruction", "fsi", "frame_words", "need", "label")

    def __init__(self, vec, cycles, meta, resolved, need: int) -> None:
        #: (event, times) pairs and their cycles: resolution, transfer,
        #: and the allocation and linkage writes of the fast path.
        self.vec = vec
        self.cycles = cycles
        self.meta = meta
        self.gf_address = resolved.gf_address
        self.cb_final = resolved.code_base if resolved.code_base >= 0 else -1
        self.first_instruction = resolved.first_instruction
        self.fsi = resolved.fsi
        self.frame_words = meta.frame_words
        #: The allocator's request for this callee (see _Allocator.need).
        self.need = need
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


#: Each event under the name the assembled cells use for it.
_EVENTS = {f"E_{event.name}": event for event in Event}


def _region_name(memory, address: int) -> str:
    region = memory.region_of(address)
    return region.name if region is not None else ""


# -- the non-banked cells, assembled by make_cells -------------------------
#
# Each ``{slot}`` is filled by make_cells: the allocator's fragments
# (_Allocator), the linkage shape (return stack or general scheme), and
# the static charge and traffic lines.  The templates hold no other
# braces.

_CALL = """\
def fast_call(m, site):
    gf = m.gf
    try:
        cell = site.cells[gf]
    except KeyError:
        return seed(m, site, gf)
    caller = m.frame
    if caller is None or (m.remote_stub is not None and not site.lfc){full}:
        site.handler(site.inst, site.next_pc)
        return -1
{allocate_check}
    if site.lfc and m.cb < 0:
        # The LFC prologue's lazy CB fetch (_current_code_base), charged.
        counts[E_MEMORY_READ] += 1
        counter.cycles += MR
        traffic[GF_NAME] = traffic.get(GF_NAME, 0) + 1
        cb = words[gf + GF_CODE_BASE]
        m.cb = cb
        caller.code_base = cb
    # Committed: resolution, transfer, allocation and linkage writes.
    for event, times in cell.vec:
        counts[event] += times
    counter.cycles += cell.cycles
    bucket = fetch.fast if site.fast else fetch.slow
    try:
        bucket[site.kind] += 1
    except KeyError:
        bucket[site.kind] = 1
{traffic}
{allocate}
    # AllocationStats.on_reuse then on_allocate: the block leaves a free
    # list for the live set, so the footprint, and with it the
    # high-water mark, cannot move.
    heap_stats.free_list_words -= block
    heap_stats.live_block_words += block
    heap_stats.allocations += 1
    heap_stats.live_requested_words += requested
    heap_stats.total_requested_words += requested
    heap_stats.total_block_words += block
    try:
        per_class[klass] += 1
    except KeyError:
        per_class[klass] = 1
    callee = FrameState(cell.meta, cell.gf_address, cell.fsi, addr, cell.cb_final)
    words[addr + 1] = cell.gf_address  # FRAME_GLOBAL
    by_address[addr] = callee
{link}
    m.return_context = caller
    m.frame = callee
    m.gf = cell.gf_address
    m.cb = cell.cb_final
    m.pc = cell.first_instruction
    return cell.first_instruction
"""

#: The general scheme saves the caller's PC and writes the return link
#: now; CB is fetched lazily like ``_code_base_of``.
_LINK_GENERAL = """\
    cb = m.cb
    if cb < 0:
        cb = caller.code_base
        if cb < 0:
            counts[E_MEMORY_READ] += 1
            counter.cycles += MR
            traffic[GF_NAME] = traffic.get(GF_NAME, 0) + 1
            cb = words[caller.gf + GF_CODE_BASE]
            caller.code_base = cb
    words[caller.address + 2] = (site.next_pc - cb) & 65535  # FRAME_PC
    words[addr] = caller.address  # FRAME_RETURN_LINK"""

_LINK_RSTACK = """\
    rentries.append(ReturnStackEntry(caller, site.next_pc, m.cb))
    rstats.pushes += 1"""

_RETURN_GENERAL = """\
def fast_return(m):
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
    if (
        dest is None
        or dest is current
        or dest.freed
        or dest.stashed_stack
        or {free_refused}
    ):
        m._op_return()
        return -1
    # Committed: the transfer, the link read, the free, and
    # _resume_from_memory's reads.
{charges}
    try:
        fetch.slow[K_RET] += 1
    except KeyError:
        fetch.slow[K_RET] = 1
{traffic}
    current.freed = True
    by_address.pop(addr, None)
{free}
    m.return_context = None
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
"""

_RETURN_RSTACK = """\
def fast_return(m):
    current = m.frame
    if not rentries or current.retained:
        m._op_return()
        return -1
    entry = rentries[-1]
    dest = entry.frame
    addr = current.address
    if dest.freed or {free_refused}:
        m._op_return()  # a dangling return raises there, identically
        return -1
    rentries.pop()
    rstats.hits += 1
    # Committed: the transfer and the free.
{charges}
    try:
        fetch.fast[K_RET] += 1
    except KeyError:
        fetch.fast[K_RET] = 1
{traffic}
    current.freed = True
    by_address.pop(addr, None)
{free}
    m.frame = dest
    m.pc = entry.pc
    m.gf = dest.gf
    m.cb = entry.cb if entry.cb >= 0 else dest.code_base
    m.return_context = None
    return entry.pc
"""

#: AllocationStats.on_free, inline: the block moves from the live set to
#: a free list, so the footprint and the high-water mark stay put.
_RECORD_FREE = """
    heap_stats.frees += 1
    heap_stats.live_requested_words -= requested
    heap_stats.live_block_words -= block
    heap_stats.free_list_words += block"""


@dataclass(frozen=True)
class _Allocator:
    """A heap's fast allocate and free as cell fragments.

    The pre-checks are uncounted and run before any charge; a refused
    one sends the whole call or return to the interpreter's handler,
    whose heap call performs every counted reference (and the trap
    protocol) itself, in the interpreter's order.  The fragments leave
    ``addr``, ``requested``, ``block`` and ``klass`` bound for the
    frame and the statistics.
    """

    heap: object
    #: The AV's or the free-list head's address (``BASE`` in the source).
    base: int
    allocate_check: str
    allocate: str
    allocate_charges: dict
    allocate_traffic: dict
    #: An expression over ``addr``: true when the free must go generic.
    free_refused: str
    free: str
    free_charges: dict
    free_traffic: dict
    #: need(meta, fsi) -> the int a cell keeps for its callee.
    need: Callable
    #: Further names the fragments use.
    names: dict


def _av_heap(av, memory, frames: str) -> _Allocator:
    """The paper's three-reference allocate and four-reference free."""
    sizes = av.ladder.sizes
    av_name = _region_name(memory, av.av_base)

    def need(meta, fsi: int) -> int:
        # The class's block words, or 0 when the frame does not fit its
        # class (the heap itself refuses that request).
        if 0 <= fsi < len(sizes) and meta.frame_words <= sizes[fsi]:
            return sizes[fsi] + 1
        return 0

    return _Allocator(
        av,
        av.av_base,
        allocate_check="""\
    addr = words[BASE + cell.fsi]
    if addr == 0 or not cell.need or heap.tracer is not None:
        site.handler(site.inst, site.next_pc)
        return -1""",
        allocate="""\
    klass = cell.fsi
    words[BASE + klass] = words[addr]
    requested = cell.frame_words
    live[addr] = requested
    block = cell.need""",
        allocate_charges={Event.MEMORY_READ: 2, Event.MEMORY_WRITE: 1},
        allocate_traffic={av_name: 2, frames: 1},
        free_refused=(
            "addr not in live or heap.tracer is not None"
            " or not 0 <= words[addr - 1] < LADDER"
        ),
        free="""\
    fsi = words[addr - 1]
    requested = live.pop(addr)
    words[addr] = words[BASE + fsi]
    words[BASE + fsi] = addr
    block = SIZES[fsi] + 1""",
        free_charges={Event.MEMORY_READ: 2, Event.MEMORY_WRITE: 2},
        free_traffic={frames: 2, av_name: 2},
        need=need,
        names={"LADDER": len(sizes), "SIZES": sizes},
    )


def _first_fit(heap, memory, frames: str) -> _Allocator:
    """First-fit's hot shapes: the head block satisfies the request
    without splitting (call-dense runs free and re-allocate the same
    sizes, so the freed block comes straight back), and the free is a
    three-reference list push."""

    def need(meta, fsi: int) -> int:
        # The heap's own rounding: at least 3 words, odd.
        words = max(3, meta.frame_words)
        return words + 1 if words % 2 == 0 else words

    head_name = _region_name(memory, heap.head_base)
    return _Allocator(
        heap,
        heap.head_base,
        allocate_check="""\
    head = words[BASE]
    if head == 0 or heap.tracer is not None or not 0 <= words[head] - cell.need < 4:
        site.handler(site.inst, site.next_pc)
        return -1""",
        allocate="""\
    klass = 0
    requested = words[head]
    words[BASE] = words[head + 1]
    addr = head + 1
    live[addr] = requested
    block = requested + 1""",
        allocate_charges={Event.MEMORY_READ: 3, Event.MEMORY_WRITE: 1},
        allocate_traffic={head_name: 2, frames: 2},
        free_refused="addr not in live or heap.tracer is not None",
        free="""\
    requested = live.pop(addr)
    words[addr] = words[BASE]
    words[BASE] = addr - 1
    block = requested + 1""",
        free_charges={Event.MEMORY_READ: 1, Event.MEMORY_WRITE: 2},
        free_traffic={head_name: 2, frames: 1},
        need=need,
        names={},
    )


def _allocator(machine) -> _Allocator | None:
    """The non-banked machine's heap fast paths, or None (stay generic)."""
    image = machine.image
    frames = image.frame_region.name
    if image.first_fit is not None:
        return _first_fit(image.first_fit, machine.memory, frames)
    if machine.fast_frames is not None:
        return None  # FAST_STACK without banks: stay generic
    if image.av_heap is not None:
        return _av_heap(image.av_heap, machine.memory, frames)
    return None


def _merge(*vectors: dict) -> dict:
    merged: dict = {}
    for vector in vectors:
        for event, times in vector.items():
            merged[event] = merged.get(event, 0) + times
    return merged


def _charge_lines(charges: dict, costs: dict) -> str:
    """One counts update per event and one cycle total."""
    lines = [
        f"    counts[E_{event.name}] += {times}"
        for event, times in charges.items()
    ]
    cycles = sum(costs[event] * times for event, times in charges.items())
    lines.append(f"    counter.cycles += {cycles}")
    return "\n".join(lines)


def _traffic_lines(traffic: dict, indent: str = "    ") -> str:
    return "\n".join(
        f"{indent}traffic[{region!r}] = traffic.get({region!r}, 0) + {times}"
        for region, times in traffic.items()
    )


def make_cells(machine, stats):
    """Build *machine*'s (fast_call, fast_return); either may be None
    (unsupported shape: those sites stay generic)."""
    banked = machine.banks is not None
    if banked:
        if not _renames(machine):
            return None, None
        allocator = None
    else:
        allocator = _allocator(machine)
        if allocator is None:
            return None, None

    image = machine.image
    charges = machine.counter.charges
    rstack = machine.rstack
    frames = image.frame_region.name
    cache = machine.linkage_cache
    entries_map = cache._entries if cache is not None else None
    procs_by_entry = image.procs_by_entry
    bank_words = machine.config.bank_words
    # What the fast path charges beside resolution and the transfer: the
    # allocation and the linkage writes (FRAME_GLOBAL, and without the
    # return stack the caller's PC and the return link).
    if banked:
        static: dict = {}
    else:
        link_writes = 1 if rstack is not None else 3
        static = _merge(allocator.allocate_charges, {Event.MEMORY_WRITE: link_writes})

    def seed(m, site: CallSite, gf: int) -> int:
        """Run the call generically, then capture its cell."""
        site.handler(site.inst, site.next_pc)
        if site.generic or (m.remote_stub is not None and not site.lfc):
            return -1
        entry = entries_map.get((site.next_pc, gf))
        if entry is None:
            return -1
        resolved, pairs, _walk_cycles = entry
        meta = procs_by_entry.get(resolved.entry_address)
        if meta is None or (banked and meta.local_words > bank_words):
            site.generic = True
            stats.sites_demoted += 1
            return -1
        vec = tuple(_merge(dict(pairs), {site.kind_event: 1}, static).items())
        cycles = sum(charges[event] * times for event, times in vec)
        need = 0 if banked else allocator.need(meta, resolved.fsi)
        site.cells[gf] = _Cell(vec, cycles, meta, resolved, need)
        stats.cells_built += 1
        return -1

    if banked:
        fast_call = _renaming_call(machine, seed) if entries_map is not None else None
        return fast_call, _renaming_return(machine)

    memory = machine.memory
    gf_name = _region_name(memory, next(iter(image.by_gf)))
    heap = allocator.heap
    ns = {
        "seed": seed,
        "counter": machine.counter,
        "counts": machine.counter.counts,
        "fetch": machine.fetch,
        "words": memory._words,
        "traffic": memory.traffic,
        "by_address": machine.frames.by_address,
        "FrameState": FrameState,
        "ReturnStackEntry": ReturnStackEntry,
        "GF_CODE_BASE": GF_CODE_BASE,
        "GF_NAME": gf_name,
        "MR": charges[Event.MEMORY_READ],
        "K_RET": TransferKind.RETURN,
        "heap": heap,
        "live": heap._live,
        "heap_stats": heap.stats,
        "per_class": heap.stats.per_class_allocations,
        "BASE": allocator.base,
        **allocator.names,
        **_EVENTS,
    }
    if rstack is not None:
        ns.update(rentries=rstack._entries, rstats=rstack.stats, RDEPTH=rstack.depth)

    source = []
    if entries_map is not None:
        link_traffic = {frames: 1 if rstack is not None else 3}
        source.append(_CALL.format(
            full=" or len(rentries) >= RDEPTH" if rstack is not None else "",
            allocate_check=allocator.allocate_check,
            traffic=_traffic_lines(_merge(allocator.allocate_traffic, link_traffic)),
            allocate=allocator.allocate,
            link=_LINK_RSTACK if rstack is not None else _LINK_GENERAL,
        ))
    if rstack is not None:
        ret_charges = _merge({Event.FAST_TRANSFER: 1}, allocator.free_charges)
        ret_traffic = allocator.free_traffic
        template = _RETURN_RSTACK
    else:
        # The link read, the free, then PC and GF from the frame and CB
        # from the global frame.
        ret_charges = _merge(
            {Event.SLOW_TRANSFER: 1, Event.MEMORY_READ: 4}, allocator.free_charges
        )
        ret_traffic = _merge({frames: 3, gf_name: 1}, allocator.free_traffic)
        template = _RETURN_GENERAL
    source.append(template.format(
        free_refused=allocator.free_refused,
        charges=_charge_lines(ret_charges, charges),
        traffic=_traffic_lines(ret_traffic),
        free=allocator.free + _RECORD_FREE,
    ))
    exec(_cell_code("\n".join(source)), ns)
    return ns.get("fast_call"), ns["fast_return"]


@functools.lru_cache(maxsize=16)
def _cell_code(source: str):
    """Compile one cell source once per process: the machines of one
    shape (every shard of a cluster) share the code object, and each
    binds it to its own namespace."""
    return compile(source, "<jit cells>", "exec")


def _renaming_call(machine, seed):
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
    words = machine.memory._words
    traffic = machine.memory.traffic
    gf_name = _region_name(machine.memory, next(iter(machine.image.by_gf)))
    mr = counter.charges[Event.MEMORY_READ]
    E_MR = Event.MEMORY_READ
    rename = machine.config.arg_convention is ArgConvention.RENAME
    LOCAL = BankRole.LOCAL
    STACK = BankRole.STACK
    FREE = BankRole.FREE

    def fast_call(m, site: CallSite) -> int:
        gf = m.gf
        try:
            cell = site.cells[gf]
        except KeyError:
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
            # The LFC prologue's lazy CB fetch (_current_code_base), charged.
            counts[E_MR] += 1
            counter.cycles += mr
            traffic[gf_name] = traffic.get(gf_name, 0) + 1
            cb = words[gf + GF_CODE_BASE]
            m.cb = cb
            caller.code_base = cb
        # Committed: resolution charges + the transfer event.
        for event, times in cell.vec:
            counts[event] += times
        counter.cycles += cell.cycles
        bucket = fetch.fast if site.fast else fetch.slow
        try:
            bucket[site.kind] += 1
        except KeyError:
            bucket[site.kind] = 1
        callee = FrameState(cell.meta, cell.gf_address, cell.fsi, None, cell.cb_final)
        rentries.append(ReturnStackEntry(caller, site.next_pc, m.cb, banks.lbank))
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
        try:
            ffast[K_RET] += 1
        except KeyError:
            ffast[K_RET] = 1
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
