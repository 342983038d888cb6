"""Specialized call/return fast paths for compiled blocks.

The interpreter's call path re-derives the same facts on every
execution of a site: linkage resolution (already memoized by
:class:`~repro.mesa.linkage.LinkageCache`), the callee's metadata, its
frame size, and the charge schedule of the whole sequence.  The JIT
seeds a per-``(site, gf)`` **cell** the first time a call executes
generically, capturing the resolved target and one merged charge
vector, interned in the engine's exit table; subsequent executions
count that vector with one hit on its slot and perform only the state
transition with the interpreter's exact memory, traffic, register, and
allocator effects:

* without register banks (i1–i3), frame allocation, the linkage words
  (or the return-stack push), and the register swap;
* with banks, the return stack and deferred allocation (i4), the
  section 7.2 rename: the argument record lands in the stack bank,
  which becomes the callee's local bank, a free bank becomes the new
  stack, and the callee's frame stays deferred — no allocation at all.
  With no bank free (an overflow) the call spills the oldest bank into
  its allocated frame and takes it as the new stack; a return whose
  caller lost its bank (an underflow) fills the first free bank from
  the caller's frame.

A seeded call and a seeded return are one host call each.  Every shape
is source: :func:`make_cells` assembles it from the templates below
when the engine compiles its first procedure, and execs it in the
engine's block namespace, so the cells speak the blocks' vocabulary
and their static charges and traffic are rendered by the blocks' own
:class:`~repro.jit.compile._Charges`.  Without banks, the allocator's
paper fast path is spliced in: the AV heap's three-reference allocate
and four-reference free (section 5.3), or first-fit's no-split
head-block hit and its list push, with their
:class:`~repro.alloc.stats.AllocationStats` updates and the frame-table
registration inline.

Supported shapes (anything else falls back to the generic handler,
which *is* the interpreter's own dispatch handler, so correctness
never depends on this module):

* host linkage cache enabled (the cell replays its recorded pairs);
* no banks with the AV-heap or first-fit allocators, or banks with the
  return stack and deferred allocation.

A call that a shard's remote stub diverts seeds no cell.  Placement is
fixed when a cluster is built, and at a given ``(site, gf)`` both the
caller's module and the resolved target are fixed, so the stub's
verdict never changes: a seeded cell's call is always local, and a
diverted ``(site, gf)`` records its verdict once, as a demoted site
does, so its later calls go straight to the generic handler.

Guards run before any charge or mutation: a guarded-out call simply
invokes the generic handler, producing the interpreter's bit-exact
behaviour including its charges.  That covers the unusual events the
paper sends to its "orderly fallback position" — a full return stack,
a flagged or retained frame, an empty free list, a first-fit split, a
double free — and the bank transfers that would need more than a spill
into an allocated frame or a fill from one: a victim whose frame is
still deferred (its first spill allocates), that is not a local bank or
that holds a dirty word past its frame's locals, a spill without dirty
tracking, no current Lbank, a deferred caller, or a tracer on the bank
file.  So flushing, allocating on a spill and the software allocator
stay in one place.  On the call-dense loop one i4 call in six overflows
and one return in six underflows, so spilling into the root's frame and
refilling from it is the common case there, not the unusual one.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass

from repro.banks.bankfile import BankRole
from repro.ifu.ifu import FetchStats, TransferKind
from repro.ifu.returnstack import ReturnStackEntry
from repro.interp.frames import LOCALS_BASE, FrameState
from repro.interp.machineconfig import ArgConvention
from repro.isa.opcodes import Op
from repro.jit.compile import _Charges
from repro.machine.costs import Event
from repro.mesa.globalframe import GF_CODE_BASE


class CallSite:
    """One compiled call site: its static shape plus seeded cells."""

    __slots__ = ("next_pc", "handler", "inst", "cells", "generic",
                 "remote", "lfc", "kind", "fast", "kind_event")

    def __init__(self, op: Op, next_pc: int, handler, inst) -> None:
        self.next_pc = next_pc
        self.handler = handler
        self.inst = inst
        #: caller gf -> _Cell.  Monomorphic sites see one target (and
        #: one cell per module instance); polymorphic sites get the
        #: same per-gf guarded ladder with more rungs.
        self.cells: dict[int, _Cell] = {}
        #: Permanently demoted: the resolved target has no compiled
        #: metadata (replaced procedure, trap context) or, on a banked
        #: machine, more locals than a bank can defer — always generic.
        self.generic = False
        #: Caller gfs whose calls the remote stub diverts: always generic.
        self.remote: set[int] = set()
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

    __slots__ = ("slot", "meta", "gf_address", "cb_final",
                 "first_instruction", "fsi", "frame_words", "need")

    def __init__(self, slot: int, meta, resolved, need: int) -> None:
        #: The exit-table slot of the call's charges: resolution,
        #: transfer, and the fast path's allocation and linkage writes
        #: and their traffic.
        self.slot = slot
        self.meta = meta
        self.gf_address = resolved.gf_address
        self.cb_final = resolved.code_base if resolved.code_base >= 0 else -1
        self.first_instruction = resolved.first_instruction
        self.fsi = resolved.fsi
        self.frame_words = meta.frame_words
        #: The allocator's request for this callee (see _Allocator.need).
        self.need = need


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


# -- the cell templates, assembled by make_cells ---------------------------
#
# Each ``{slot}`` is filled by make_cells for the machine's shape: the
# allocator's fragments (_Allocator) or the bank rename, the linkage
# shape, and the static charge lines, which _Charges renders as it does
# for blocks.  The templates hold no other braces.  They run in the
# engine's block namespace: ``_H``, ``_W``, ``_ST`` and ``_BKS`` are the
# exit table's hit counts, the memory words, the evaluation stack and
# the bank manager.

_CALL = """\
def fast_call(m, site):
    gf = m.gf
    try:
        cell = site.cells[gf]
    except KeyError:
        if site.generic or gf in site.remote:
            site.handler(site.inst, site.next_pc)
            return -1
        return seed(m, site, gf)
    caller = m.frame
{guard}
        site.handler(site.inst, site.next_pc)
        return -1
{claim}
    if site.lfc and m.cb < 0:
        # The LFC prologue's lazy CB fetch (_current_code_base), charged.
{cb_read}
        cb = _W[gf + GF_CODE_BASE]
        m.cb = cb
        caller.code_base = cb
    # Counted: resolution, transfer, and without banks the allocation
    # and linkage writes and their traffic.
    _H[cell.slot] += 1
    bucket = fetch.fast if site.fast else fetch.slow
    try:
        bucket[site.kind] += 1
    except KeyError:
        bucket[site.kind] = 1
{transfer}
    m.return_context = caller
    m.frame = callee
    m.gf = cell.gf_address
    m.cb = cell.cb_final
    m.pc = cell.first_instruction
    return cell.first_instruction
"""

#: The non-banked callee's frame: allocated, registered, and linked.
_ALLOCATE = """\
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
    _W[addr + 1] = cell.gf_address  # FRAME_GLOBAL
    by_address[addr] = callee
{link}"""

#: The general scheme saves the caller's PC and writes the return link
#: now; CB is fetched lazily like ``_code_base_of``.
_LINK_GENERAL = """\
    cb = m.cb
    if cb < 0:
        cb = caller.code_base
        if cb < 0:
{cb_read}
            cb = _W[caller.gf + GF_CODE_BASE]
            caller.code_base = cb
    _W[caller.address + 2] = (site.next_pc - cb) & 65535  # FRAME_PC
    _W[addr] = caller.address  # FRAME_RETURN_LINK"""

_LINK_RSTACK = """\
    rentries.append(ReturnStackEntry(caller, site.next_pc, m.cb))
    rstats.pushes += 1"""

#: I4's guard: the stack bank must be holding the stack, so the search
#: for a free bank below cannot hand it back as the new stack.
_RENAME_GUARD = """\
    sbank = _BKS.sbank
    slots = _ST._slots
    if (
        caller is None
        or caller.flagged
        or len(rentries) >= RDEPTH
        or sbank is None
        or sbank.role is not STACK{wide}
    ):"""

#: A free bank for the new stack; none free is a bank overflow.
_FREE_BANK = """\
    for fresh in bank_list:
        if fresh.role is FREE:
            break
    else:
{overflow}"""

#: Without dirty tracking a spill writes the whole bank: the generic
#: path handles the overflow.
_OVERFLOW_GENERIC = """\
        site.handler(site.inst, site.next_pc)
        return -1"""

#: ``BankManager._acquire``'s overflow: the victim is ``BankFile.oldest``'s,
#: the least recently assigned bank other than the stack bank, and
#: ``Machine._spill_bank`` writes its dirty words into its frame before
#: it becomes the new stack.  A victim that is not a local bank, one
#: whose frame is still deferred (its first spill allocates), one holding
#: a dirty word past its frame's locals, or an attached bank-file tracer
#: stays generic.
_OVERFLOW_SPILL = """\
        fresh = None
        for bank in bank_list:
            if bank is not sbank and (fresh is None or bank.assigned_at < fresh.assigned_at):
                fresh = bank
        dirty = fresh.dirty
        if (
            fresh.role is not LOCAL
            or fresh.frame.address is None
            or bankfile.tracer is not None
            or (dirty and max(dirty) >= fresh.frame.proc.frame_words - LOCALS_BASE)
        ):
            site.handler(site.inst, site.next_pc)
            return -1
        words = len(dirty)
        held = fresh.words
        base = fresh.frame.address + LOCALS_BASE
        for index in dirty:
            _W[base + index] = held[index]
        bstats.words_spilled += words
{spill}
        bstats.overflows += 1"""

#: ``_do_call``'s RENAME transition: the return stack records the
#: caller with its bank, and ``BankManager.on_call``'s rename runs
#: inline — the stack bank becomes the callee's Lbank and the free (or
#: just spilled) bank the new stack, each with the next assignment
#: sequence number.  The callee's frame stays deferred, so without an
#: overflow the call touches no memory at all.
_RENAME = """\
    callee = FrameState(cell.meta, cell.gf_address, cell.fsi, None, cell.cb_final)
    rentries.append(ReturnStackEntry(caller, site.next_pc, m.cb, _BKS.lbank))
    rstats.pushes += 1
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
    _BKS.lbank = sbank
    _BKS.sbank = fresh"""

#: RENAME arguments become the callee's first locals: live in the bank,
#: not yet in memory, so dirty from the frame's point of view.
_RENAME_ARGUMENTS = """
    if slots:
        count = len(slots)
        sbank.words[:count] = slots
        sbank.dirty.update(range(count))
        slots.clear()"""

_RETURN_GENERAL = """\
def fast_return(m):
    current = m.frame
    if current.retained:
        m._op_return()
        return -1
    addr = current.address
    link = _W[addr]
    if link == 0:
        m._op_return()  # the final return halts the machine
        return -1
    dest = by_address.get(link)
    if (
        dest is None
        or dest is current
        or dest.freed
        or dest.stashed_stack
        or {refused}
    ):
        m._op_return()
        return -1
    # Counted: the transfer, the link read, the free, and
    # _resume_from_memory's reads.
{charges}
    try:
        fetch.slow[K_RET] += 1
    except KeyError:
        fetch.slow[K_RET] = 1
    current.freed = True
{free}
    m.return_context = None
    pc_rel = _W[dest.address + 2]
    gf = _W[dest.address + 1]
    cb = _W[gf + GF_CODE_BASE]
    dest.code_base = cb
    m.frame = dest
    m.gf = gf
    m.cb = cb
    pc = cb + pc_rel
    m.pc = pc
    return pc
"""

#: A return-stack hit, with or without banks.
_RETURN_RSTACK = """\
def fast_return(m):
    current = m.frame
    if not rentries or current.retained{deferred}:
        m._op_return()
        return -1
    entry = rentries[-1]
    dest = entry.frame
{source}
    if dest.freed{refused}:
        m._op_return()  # a dangling return raises there, identically
        return -1{claim}
    rentries.pop()
    rstats.hits += 1
    # Counted: the transfer and the free.
{charges}
    try:
        fetch.fast[K_RET] += 1
    except KeyError:
        fetch.fast[K_RET] = 1
    current.freed = True
{free}
    m.frame = dest
    m.pc = entry.pc
    m.gf = dest.gf
    m.cb = entry.cb if entry.cb >= 0 else dest.code_base
    m.return_context = None
    return entry.pc
"""

#: I4's return frees the deferred frame (it never existed in memory),
#: releases the current Lbank and makes the caller's bank current again;
#: the stack bank stays put, carrying the results.  A materialized frame
#: (freed to its allocator) goes generic.
_RETURN_RENAME = {
    "deferred": " or current.address is not None",
    "source": """\
    bank = entry.bank
    lbank = _BKS.lbank""",
    "refused": "",
    # ``BankManager.on_return`` when the entry's bank no longer shadows
    # the caller: the caller's surviving bank, or else (an underflow) the
    # first free bank once the Lbank is released, filled from the
    # caller's frame.  No current Lbank, an attached bank-file tracer or
    # a deferred caller to fill from stays generic.
    "claim": """
    if bank is None or bank is lbank or bank.frame is not dest:
        if lbank is None or bankfile.tracer is not None:
            m._op_return()
            return -1
        for bank in bank_list:
            if bank.frame is dest and bank is not lbank and bank.role is LOCAL:
                break
        else:
            if dest.address is None:
                m._op_return()
                return -1
            bank = None""",
    "free": """\
    m.deferred_frames += 1
    bstats.xfers += 1
    if lbank is not None:
        lbank.role = FREE
        lbank.frame = None
        lbank.dirty.clear()
        bstats.releases += 1
    if bank is None:
        # Machine._fill_bank into the bank BankFile.acquire_free takes.
        for bank in bank_list:
            if bank.role is FREE:
                break
        seq = bankfile._seq + 1
        bankfile._seq = seq
        bank.role = LOCAL
        bank.frame = dest
        bank.assigned_at = seq
        bank.dirty.clear()
        words = min(BANK_WORDS, dest.proc.frame_words - LOCALS_BASE)
        base = dest.address + LOCALS_BASE
        bank.words[:words] = _W[base : base + words]
        bstats.assignments += 1
        bstats.underflows += 1
        bstats.words_filled += words
{fill}
    _BKS.lbank = bank""",
}

#: The frame leaves the frame table; AllocationStats.on_free follows the
#: heap's free inline: the block moves from the live set to a free list,
#: so the footprint and the high-water mark stay put.
_FREE = """\
    by_address.pop(addr, None)
{free}
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


def _av_heap(av, ctx) -> _Allocator:
    """The paper's three-reference allocate and four-reference free."""
    sizes = av.ladder.sizes
    av_name = ctx.region_name(av.av_base)
    frames = ctx.frames_name

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
    addr = _W[BASE + cell.fsi]
    if addr == 0 or not cell.need or heap.tracer is not None:
        site.handler(site.inst, site.next_pc)
        return -1""",
        allocate="""\
    klass = cell.fsi
    _W[BASE + klass] = _W[addr]
    requested = cell.frame_words
    live[addr] = requested
    block = cell.need""",
        allocate_charges={Event.MEMORY_READ: 2, Event.MEMORY_WRITE: 1},
        allocate_traffic={av_name: 2, frames: 1},
        free_refused=(
            "addr not in live or heap.tracer is not None"
            " or not 0 <= _W[addr - 1] < LADDER"
        ),
        free="""\
    fsi = _W[addr - 1]
    requested = live.pop(addr)
    _W[addr] = _W[BASE + fsi]
    _W[BASE + fsi] = addr
    block = SIZES[fsi] + 1""",
        free_charges={Event.MEMORY_READ: 2, Event.MEMORY_WRITE: 2},
        free_traffic={frames: 2, av_name: 2},
        need=need,
        names={"LADDER": len(sizes), "SIZES": sizes},
    )


def _first_fit(heap, ctx) -> _Allocator:
    """First-fit's hot shapes: the head block satisfies the request
    without splitting (call-dense runs free and re-allocate the same
    sizes, so the freed block comes straight back), and the free is a
    three-reference list push."""

    def need(meta, fsi: int) -> int:
        # The heap's own rounding: at least 3 words, odd.
        words = max(3, meta.frame_words)
        return words + 1 if words % 2 == 0 else words

    head_name = ctx.region_name(heap.head_base)
    frames = ctx.frames_name
    return _Allocator(
        heap,
        heap.head_base,
        allocate_check="""\
    head = _W[BASE]
    if head == 0 or heap.tracer is not None or not 0 <= _W[head] - cell.need < 4:
        site.handler(site.inst, site.next_pc)
        return -1""",
        allocate="""\
    klass = 0
    requested = _W[head]
    _W[BASE] = _W[head + 1]
    addr = head + 1
    live[addr] = requested
    block = requested + 1""",
        allocate_charges={Event.MEMORY_READ: 3, Event.MEMORY_WRITE: 1},
        allocate_traffic={head_name: 2, frames: 2},
        free_refused="addr not in live or heap.tracer is not None",
        free="""\
    requested = live.pop(addr)
    _W[addr] = _W[BASE]
    _W[BASE] = addr - 1
    block = requested + 1""",
        free_charges={Event.MEMORY_READ: 1, Event.MEMORY_WRITE: 2},
        free_traffic={head_name: 2, frames: 1},
        need=need,
        names={},
    )


def _allocator(machine, ctx) -> _Allocator | None:
    """The non-banked machine's heap fast paths, or None (stay generic)."""
    image = machine.image
    if image.first_fit is not None:
        return _first_fit(image.first_fit, ctx)
    if machine.fast_frames is not None:
        return None  # FAST_STACK without banks: stay generic
    if image.av_heap is not None:
        return _av_heap(image.av_heap, ctx)
    return None


def _merge(*vectors: dict) -> dict:
    merged: dict = {}
    for vector in vectors:
        for event, times in vector.items():
            merged[event] = merged.get(event, 0) + times
    return merged


def _commit_lines(ctx, charges: dict, traffic: dict, indent: str = "    ") -> str:
    """Static *charges* and *traffic* as the blocks' exit-table hit."""
    pending = _Charges(ctx)
    for event, times in charges.items():
        pending.add(event, times)
    for region, times in traffic.items():
        pending.hit(region, times)
    return "\n".join(pending.commit_lines(indent))


def _bank_move_lines(ctx, event: Event, per_word: dict) -> str:
    """A spill's or a fill's charges: one hit for its *event*, and
    ``words`` hits on the slot of one word's *per_word* events and its
    frame reference."""
    word_slot = ctx.exit_slot(per_word, {ctx.frames_name: 1})
    return "\n".join((
        _commit_lines(ctx, {event: 1}, {}, " " * 8),
        f"        _H[{word_slot}] += words",
    ))


def make_cells(machine, ctx, ns: dict, stats):
    """Build *machine*'s (fast_call, fast_return) into the engine's block
    namespace *ns*; either may be None (unsupported shape: those sites
    stay generic)."""
    banked = machine.banks is not None
    if banked:
        if not _renames(machine):
            return None, None
        allocator = None
    else:
        allocator = _allocator(machine, ctx)
        if allocator is None:
            return None, None

    image = machine.image
    rstack = machine.rstack
    frames = ctx.frames_name
    cache = machine.linkage_cache
    entries_map = cache._entries if cache is not None else None
    procs_by_entry = image.procs_by_entry
    bank_words = machine.config.bank_words
    # What the fast path charges beside resolution and the transfer: the
    # allocation and the linkage writes (FRAME_GLOBAL, and without the
    # return stack the caller's PC and the return link), and their
    # traffic.
    if banked:
        static: dict = {}
        static_traffic: dict = {}
    else:
        link_writes = 1 if rstack is not None else 3
        static = _merge(allocator.allocate_charges, {Event.MEMORY_WRITE: link_writes})
        static_traffic = _merge(allocator.allocate_traffic, {frames: link_writes})

    def seed(m, site: CallSite, gf: int) -> int:
        """Run the call generically, then capture its cell.  A call the
        remote stub diverted records that instead: its (site, gf) always
        goes remote."""
        site.handler(site.inst, site.next_pc)
        if m.remote_pending is not None:
            site.remote.add(gf)
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
        slot = ctx.exit_slot(
            _merge(dict(pairs), {site.kind_event: 1}, static), static_traffic
        )
        need = 0 if banked else allocator.need(meta, resolved.fsi)
        site.cells[gf] = _Cell(slot, meta, resolved, need)
        stats.cells_built += 1
        return -1

    gf_name = ctx.region_name(next(iter(image.by_gf)))

    def cb_read(indent: str) -> str:
        """One charged read of a global frame's CB word."""
        return _commit_lines(ctx, {Event.MEMORY_READ: 1}, {gf_name: 1}, indent)

    ns.update(
        seed=seed,
        fetch=machine.fetch,
        FrameState=FrameState,
        ReturnStackEntry=ReturnStackEntry,
        GF_CODE_BASE=GF_CODE_BASE,
        K_RET=TransferKind.RETURN,
    )
    if rstack is not None:
        ns.update(rentries=rstack._entries, rstats=rstack.stats, RDEPTH=rstack.depth)

    if banked:
        bankfile = machine.bankfile
        ns.update(
            bankfile=bankfile,
            bank_list=bankfile._banks,
            bstats=bankfile.stats,
            LOCAL=BankRole.LOCAL,
            STACK=BankRole.STACK,
            FREE=BankRole.FREE,
            LOCALS_BASE=LOCALS_BASE,
            BANK_WORDS=bank_words,
        )
        rename = machine.config.arg_convention is ArgConvention.RENAME
        if bankfile.track_dirty:
            overflow = _OVERFLOW_SPILL.format(spill=_bank_move_lines(
                ctx, Event.BANK_FLUSH, {Event.REGISTER_READ: 1, Event.MEMORY_WRITE: 1}
            ))
        else:
            overflow = _OVERFLOW_GENERIC
        call = _CALL.format(
            guard=_RENAME_GUARD.format(
                wide="\n        or len(slots) > sbank.size" if rename else ""
            ),
            claim=_FREE_BANK.format(overflow=overflow),
            cb_read=cb_read(" " * 8),
            transfer=_RENAME + (_RENAME_ARGUMENTS if rename else ""),
        )
        fill = _bank_move_lines(
            ctx, Event.BANK_LOAD, {Event.MEMORY_READ: 1, Event.REGISTER_WRITE: 1}
        )
        ret = _RETURN_RSTACK.format(
            charges=_commit_lines(ctx, {Event.FAST_TRANSFER: 1}, {}),
            **dict(_RETURN_RENAME, free=_RETURN_RENAME["free"].format(fill=fill)),
        )
    else:
        heap = allocator.heap
        ns.update(
            by_address=machine.frames.by_address,
            heap=heap,
            live=heap._live,
            heap_stats=heap.stats,
            per_class=heap.stats.per_class_allocations,
            BASE=allocator.base,
            **allocator.names,
        )
        if rstack is not None:
            link = _LINK_RSTACK
        else:
            link = _LINK_GENERAL.format(cb_read=cb_read(" " * 12))
        call = _CALL.format(
            guard=(
                "    if caller is None or len(rentries) >= RDEPTH:"
                if rstack is not None
                else "    if caller is None:"
            ),
            claim=allocator.allocate_check,
            cb_read=cb_read(" " * 8),
            transfer=_ALLOCATE.format(allocate=allocator.allocate, link=link),
        )
        free = _FREE.format(free=allocator.free)
        if rstack is not None:
            ret = _RETURN_RSTACK.format(
                deferred="",
                source="    addr = current.address",
                refused=" or " + allocator.free_refused,
                claim="",
                charges=_commit_lines(
                    ctx,
                    _merge({Event.FAST_TRANSFER: 1}, allocator.free_charges),
                    allocator.free_traffic,
                ),
                free=free,
            )
        else:
            # The link read, the free, then PC and GF from the frame and
            # CB from the global frame.
            ret = _RETURN_GENERAL.format(
                refused=allocator.free_refused,
                charges=_commit_lines(
                    ctx,
                    _merge(
                        {Event.SLOW_TRANSFER: 1, Event.MEMORY_READ: 4},
                        allocator.free_charges,
                    ),
                    _merge({frames: 3, gf_name: 1}, allocator.free_traffic),
                ),
                free=free,
            )
    source = ret if entries_map is None else call + "\n" + ret
    exec(_cell_code(source), ns)
    return ns.get("fast_call"), ns["fast_return"]


@functools.lru_cache(maxsize=16)
def _cell_code(source: str):
    """Compile one cell source once per process: the machines of one
    shape (every shard of a cluster) share the code object, and each
    binds it to its own namespace."""
    return compile(source, "<jit cells>", "exec")
