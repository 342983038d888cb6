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

A seeded call and a seeded return are one host call each.  Every
shape is source: :func:`make_cells` assembles it from the templates
below when the engine compiles its first procedure, and execs it in the
engine's block namespace, so the cells speak the blocks' vocabulary and
their static charges and traffic are rendered by the blocks' own
:class:`~repro.jit.compile._Charges`.  Without banks, the allocator's
paper fast path is spliced in: the AV heap's three-reference allocate
and four-reference free (section 5.3), or first-fit's no-split
head-block hit and its list push, with their
:class:`~repro.alloc.stats.AllocationStats` updates and the frame-table
registration inline.

A seeded call to a straight-line callee makes no host call: a
superblock splices it into its caller's block and folds the callee's
frame.  :class:`Fold` says which cells splice, and hands each
superblock a *nest* that renders the pairs' net effects from these same
fragments and vectors and decides every refusal of a nest that no
entry could pass: a :class:`_HeapNest` (free-list blocks, the deferred
frame words, the CB words a general return reads) or a
:class:`_BankNest` (i4's renamed banks, its spills and fills).

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
and one return in six underflows; a superblock's bank nest folds those
moves, so the cells spill and fill only outside superblocks (a site
that does not splice, or an entry that fell back).
"""

from __future__ import annotations

import functools
import operator
import textwrap
from collections.abc import Callable
from dataclasses import dataclass

from repro.banks.bankfile import BankRole
from repro.ifu.ifu import FetchStats, TransferKind
from repro.ifu.returnstack import ReturnStackEntry
from repro.interp.frames import FRAME_GLOBAL, FRAME_PC, LOCALS_BASE, FrameState
from repro.interp.machineconfig import ArgConvention
from repro.isa.opcodes import Op
from repro.jit.compile import _Charges, _Frame, _Nest, _Unfoldable
from repro.machine.costs import Event
from repro.mesa.globalframe import GF_CODE_BASE


class CallSite:
    """One compiled call site: its static shape plus seeded cells."""

    __slots__ = ("next_pc", "handler", "inst", "cells", "generic",
                 "remote", "lfc", "kind", "fast", "kind_event", "start",
                 "monomorphic")

    def __init__(
        self, op: Op, next_pc: int, handler, inst, start: int, monomorphic: bool
    ) -> None:
        self.next_pc = next_pc
        self.handler = handler
        self.inst = inst
        #: The start of the block this site ends, which a superblock
        #: rebuilds once the site is seeded.
        self.start = start
        #: The facts say one target: the only sites a superblock splices.
        self.monomorphic = monomorphic
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

    __slots__ = ("slot", "charges", "traffic", "meta", "gf_address",
                 "cb_final", "first_instruction", "fsi", "frame_words", "need")

    def __init__(
        self, slot: int, charges: dict, traffic: dict, meta, resolved, need: int
    ) -> None:
        #: The exit-table slot of the call's charges: resolution,
        #: transfer, and the fast path's allocation and linkage writes
        #: and their traffic.  A superblock adds the *charges* and
        #: *traffic* themselves to its own exit's vector.
        self.slot = slot
        self.charges = charges
        self.traffic = traffic
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
        base = fresh.frame.address + LOCALS_BASE
{spill}
        bstats.overflows += 1"""

#: ``Machine._spill_bank`` into an allocated frame: *fresh*'s *dirty*
#: words, from its locals at *base* on, each a register read and a frame
#: write counted on the per-word slot (``{word_slot}``).  The call cell's
#: overflow and a superblock's spill share it.
_SPILL = """\
words = len(dirty)
held = fresh.words
for index in dirty:
    _W[base + index] = held[index]
bstats.words_spilled += words
_H[{word_slot}] += words"""

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
    #: The heap nest's list walk (:class:`_HeapNest`): key(cell) names
    #: the cell's list; ``first`` is the list's head block (``{key}``),
    #: ``next`` the block after ``{block}``, and ``frame`` the frame a
    #: block holds.
    fold_key: Callable
    fold_first: str
    fold_next: str
    fold_frame: str
    #: (block, key, needs) -> a condition true when *block* cannot hold
    #: every frame of *needs* the way the cells' fast path would; and
    #: needs -> False when no block ever can.
    fold_refused: Callable
    fold_fits: Callable
    #: (block, cell) -> the (requested, block) words of the statistics.
    fold_words: Callable


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
        fold_key=lambda cell: cell.fsi,
        fold_first="_W[BASE + {key}]",
        fold_next="_W[{block}]",
        fold_frame="{block}",
        # The free reads the class from the block's header.
        fold_refused=lambda block, key, needs: f"not {block} or _W[{block} - 1] != {key}",
        fold_fits=lambda needs: True,  # one class per list
        fold_words=lambda block, cell: (cell.frame_words, cell.need),
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
        fold_key=lambda cell: 0,
        fold_first="_W[BASE]",
        fold_next="_W[{block} + 1]",
        fold_frame="{block} + 1",
        # The allocate check: no split for any frame the block holds.
        fold_refused=lambda block, key, needs: (
            f"not {block} or not {max(needs)} <= _W[{block}] < {min(needs) + 4}"
        ),
        fold_fits=lambda needs: max(needs) < min(needs) + 4,
        fold_words=lambda block, cell: (f"_W[{block}]", f"_W[{block}] + 1"),
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
    pending.count(charges, traffic)
    return "\n".join(pending.commit_lines(indent))


#: One spilled word's charges (``Machine._spill_bank``: the register read
#: and the frame write) and one filled word's (``Machine._fill_bank``).
_SPILL_WORD = {Event.REGISTER_READ: 1, Event.MEMORY_WRITE: 1}
_FILL_WORD = {Event.MEMORY_READ: 1, Event.REGISTER_WRITE: 1}


@dataclass(frozen=True)
class _Banks:
    """A renaming machine's bank file, as its fold needs it."""

    count: int
    words: int
    rename: bool
    #: The cells' exit slot of one spilled word; None without dirty
    #: tracking, where a nest that overflows never folds.
    spill_slot: int | None


@dataclass
class _Life:
    """One bank name of a banked superblock's plan."""

    #: (role, frame) where the superblock first names the bank, and as it
    #: leaves it.  The frame is "caller" (the superblock's own frame),
    #: None, or the depth of a spliced frame.
    before: tuple
    state: tuple
    #: Its last assignment number, relative to the entry's ``_seq``.
    seq: int | None = None
    #: When its last lifetime began.  Two names may be one bank; the exit
    #: writes the names in this order, so the later lifetime's state stands.
    start: int = 0


def _refuse(conditions: list[str], fallback: list[str], ind: str) -> list[str]:
    """``if (c0 or c1 …):``, a condition a line, then *fallback*."""
    lines = [f"{ind}if (", f"{ind}    {conditions[0]}"]
    lines += [f"{ind}    or {condition}" for condition in conditions[1:]]
    return lines + [f"{ind}):"] + fallback


class Fold:
    """Seeded calls and their returns, folded into superblocks.

    :meth:`splices` says whether a superblock may splice a seeded cell's
    callee; :meth:`nest` hands out each superblock's nest, which renders
    its spliced pairs and decides every refusal of a nest that no entry
    could pass.
    """

    def __init__(
        self, machine, ctx, ret_charges: dict, ret_traffic: dict,
        allocator: _Allocator | None = None, banks: _Banks | None = None,
    ) -> None:
        self.ctx = ctx
        self.by_gf = machine.image.by_gf
        #: The return stack's depth; None in the general scheme.
        self.rdepth = None if machine.rstack is None else machine.rstack.depth
        #: The return cell's vector, which each spliced RET counts.
        self.ret_charges = ret_charges
        self.ret_traffic = ret_traffic
        self.allocator = allocator
        self.banks = banks

    def splices(self, site, cell, caller) -> bool:
        """Whether a superblock may fold *cell*'s callee, called at *site*
        from the body of the spliced *caller* cell (None: from the
        superblock's own frame).  An LFC whose caller's CB is unknown
        would fetch it.  A bank defers every seeded callee; a heap must
        fit its frame in its class, and without the return stack know the
        callee's CB, which its saved PCs and general returns read."""
        if caller is not None and site.lfc and caller.cb_final < 0:
            return False
        if self.banks is not None:
            return True
        return bool(cell.need) and (self.rdepth is not None or cell.cb_final >= 0)

    def nest(self, gf: int, meta) -> _Spliced:
        """A fresh nest for a superblock of *meta*'s under *gf*."""
        if self.banks is not None:
            return _BankNest(self, gf, meta)
        return _HeapNest(self, gf, meta)


class _Spliced(_Nest):
    """One superblock's spliced pairs, folded: what both nests share.

    Each spliced callee's frame lives and dies inside the superblock,
    LIFO, so the pairs leave only their net effects: the cells' call
    vectors and the return cell's, counted in the exit's one vector; the
    frames, held as the nest's kind holds them; and the registers and the
    statistics (:meth:`exit_lines`): the fetch tallies in the order the
    pairs first bump them, the return stack's pushes and hits, and the
    kind's own.  No ``FrameState`` or ``ReturnStackEntry`` is built.
    Every guard runs at entry (:meth:`entry_lines`), and a refused one
    runs the unspliced block (``_fb``), whose cells and generic handlers
    do the bit-exact work.  A nest that no entry could pass (deeper than
    the return stack, or one its kind refuses) raises
    :class:`~repro.jit.compile._Unfoldable` as it is generated.
    """

    prefix = "_sb"

    def __init__(self, fold: Fold, gf: int, meta, banked: bool) -> None:
        super().__init__(fold.ctx, _Frame(meta, str(gf), banked, fold.by_gf[gf].code_base))
        self.fold = fold
        self.gf = gf
        #: The spliced frames active now, and the most at once.
        self.level = self.depth = 0
        #: A call from the superblock's own frame is an LFC.
        self.top_lfc = False
        #: Each call's site and each return's None, in program order.
        self.transitions: list = []
        #: (cell, callee frame) per call, in program order.
        self.calls: list = []

    def fallback(self, ind: str) -> list[str]:
        return [f"{ind}    _ES.entry_fallbacks += 1", f"{ind}    return _fb(m)"]

    def call(self, site, cell, frame: _Frame, stack, w, ind: str) -> tuple[_Frame, list[str]]:
        """A spliced call from *frame*: (the callee's frame, its lines)."""
        w.step()
        w.count(cell.charges, cell.traffic)
        self.level += 1
        self.depth = max(self.depth, self.level)
        if frame is self.top:
            self.top_lfc = self.top_lfc or site.lfc
        callee, lines = self._call(site, cell, frame, stack, w, ind)
        self.transitions.append(site)
        self.calls.append((cell, callee))
        return callee, lines

    def ret(self, frame: _Frame, w, ind: str) -> list[str]:
        """The RET of spliced *frame*: its lines."""
        w.step()
        w.count(self.fold.ret_charges, self.fold.ret_traffic)
        self.level -= 1
        self.transitions.append(None)
        return self._ret(frame, w, ind)

    def _rstack_refused(self) -> list[str]:
        """Room on the return stack for the nest, and a known CB for an
        LFC from the superblock's own frame."""
        refused = [f"len(rentries) > RDEPTH - {self.depth}"]
        if self.top_lfc:
            refused.append("m.cb < 0")
        return refused

    def entry_lines(self, items: list, ind: str) -> list[str]:
        """The transition guards, before any charge or mutation: the
        registers, the caller's frame and the return stack's room
        (``_refused``), then what the folded frames need
        (``_claim_lines``)."""
        lines = [f"{ind}caller = m.frame", f"{ind}_fa = caller.address"]
        lines += _refuse(self._refused(), self.fallback(ind), ind)
        lines += self._claim_lines(ind)
        if self.fold.rdepth is not None:
            # entry.cb, or the caller's CB when it was never discovered:
            # what every spliced return leaves in the CB register.
            lines += [f"{ind}_cb = m.cb", f"{ind}if _cb < 0:", f"{ind}    _cb = caller.code_base"]
        return lines

    def exit_lines(self, ind: str) -> list[str]:
        rdepth = self.fold.rdepth
        if rdepth is not None and self.depth > rdepth:
            raise _Unfoldable  # the nest never has room on the return stack
        lines = [f"{ind}m.return_context = None"]
        if rdepth is None:
            lines.append(f"{ind}caller.code_base = {self.top.cb}")
        else:
            lines.append(f"{ind}m.cb = _cb")
        tallies: dict = {}
        for site in self.transitions:
            if site is None:
                bucket, kind = ("slow" if rdepth is None else "fast"), "RETURN"
            else:
                bucket, kind = ("fast" if site.fast else "slow"), site.kind.name
            tallies[bucket, kind] = tallies.get((bucket, kind), 0) + 1
        for (bucket, kind), times in tallies.items():
            lines += _bump(f"fetch.{bucket}", f"K_{kind}", times, ind)
        if rdepth is not None:
            lines.append(f"{ind}rstats.pushes += {len(self.calls)}")
            lines.append(f"{ind}rstats.hits += {len(self.calls)}")
        return lines + self._stats_lines(ind)


class _Folded(_Frame):
    """A frame a superblock folds, named by *address*: a free block's on
    a heap, whose stores land in the nest's deferred words, or its bank,
    whose words its stores write.  Either way *held* keeps each stored
    value, so a later load of the same word reads it.  (A folded bank is
    freed before the exit, so its dirty set is never read.)"""

    def __init__(self, cell, address: str, held: dict, banked: bool, key=None, index=0) -> None:
        super().__init__(cell.meta, str(cell.gf_address), banked, cell.cb_final)
        self.address = address
        self.held = held
        #: On a heap, the free list the frame comes off and its place there.
        self.key = key
        self.index = index

    def _word(self, local: int) -> tuple[int, str]:
        if self.banked:
            return local, f"{self.address}.words[{local}]"
        return LOCALS_BASE + local, f"_W[{self.address} + {LOCALS_BASE + local}]"

    def load(self, local: int, stack, ind: str) -> str:
        word, source = self._word(local)
        held = self.held.get((self.address, word))
        return stack.local(ind, source) if held is None else held

    def store(self, local: int, value: str, stack, ind: str) -> None:
        word, target = self._word(local)
        value = self.held[self.address, word] = stack.held(ind, value)
        if self.banked:
            stack.body.append(f"{ind}{target} = {value}")


class _HeapNest(_Spliced):
    """A superblock's folded frames without banks (i1–i3).

    A frame the superblock allocates and frees comes off the head of its
    free list and goes back there, so the superblock only reads the list
    walk, as an uncounted entry guard (:meth:`_claim_lines`).  The memory
    words that outlive the superblock are each frame's global word and,
    without the return stack, the caller's saved PC (``_ALLOCATE``,
    ``_LINK_GENERAL``); they and the folded frames' stores are deferred
    and written once, before an RD or WR and before the exit.  The return
    link, the list words and the frame table are put back as they were by
    the free, so they are not written.  Without the return stack a
    general return reads each global frame's CB word back, which the
    entry guards.  The heap's statistics take net increments: its
    allocations and frees, whose live and free-list words cancel.
    """

    def __init__(self, fold: Fold, gf: int, meta) -> None:
        super().__init__(fold, gf, meta, False)
        self.allocator = fold.allocator
        #: (list key, index) -> the needs of the frames taken there.
        self.frames: dict = {}
        #: gf -> the CB each spliced general return reads from it.
        self.code_bases: dict = {}
        #: (frame, word) -> value: the deferred writes.
        self.words: dict = {}
        #: list key -> how many of its blocks the active frames hold.
        self.live: dict = {}

    def _assume(self, gf: int, cb: int) -> None:
        """Guard that a general return into a frame of *gf* reads *cb*:
        two frames of one global frame that assume different CBs cannot
        fold."""
        if self.code_bases.setdefault(gf, cb) != cb:
            raise _Unfoldable

    def _block_var(self, key, index: int) -> str:
        """The host local of the block a frame comes off list *key* at."""
        if self.allocator.fold_frame == "{block}":
            return f"_f{key}_{index}"
        return f"_k{key}_{index}"

    def _call(self, site, cell, frame: _Frame, stack, w, ind: str):
        general = self.fold.rdepth is None
        if general and frame is not self.top:
            self._assume(int(frame.gf), frame.cb)
        key = self.allocator.fold_key(cell)
        index = self.live.get(key, 0)
        self.live[key] = index + 1
        self.frames.setdefault((key, index), set()).add(cell.need)
        callee = _Folded(cell, f"_f{key}_{index}", self.words, False, key, index)
        self.words[callee.address, FRAME_GLOBAL] = str(cell.gf_address)
        if general:
            self.words[frame.address, FRAME_PC] = str((site.next_pc - frame.cb) & 0xFFFF)
        return callee, []

    def _ret(self, frame: _Folded, w, ind: str) -> list[str]:
        self.live[frame.key] = frame.index
        return []

    def memory_lines(self, ind: str) -> list[str]:
        """Write the deferred words."""
        lines = [
            f"{ind}_W[{address} + {word}] = {value}"
            for (address, word), value in self.words.items()
        ]
        self.words.clear()
        return lines

    def exit_lines(self, ind: str) -> list[str]:
        if self.fold.rdepth is None:
            self._assume(self.gf, self.top.cb)
        if not all(map(self.allocator.fold_fits, self.frames.values())):
            raise _Unfoldable  # first-fit: frames at one depth too unlike for one block
        return self.memory_lines(ind) + super().exit_lines(ind)

    def _refused(self) -> list[str]:
        gf = self.gf
        if self.fold.rdepth is not None:
            return [
                f"m.gf != {gf}", "heap.tracer is not None", "caller.freed", f"caller.gf != {gf}",
                *self._rstack_refused(),
            ]
        # The general return reads the caller's frame, its global word
        # and each global frame's CB word back.
        return [
            f"m.gf != {gf}",
            f"m.cb != {self.top.cb}",
            "heap.tracer is not None",
            "caller.stashed_stack",
            "by_address.get(_fa) is not caller",
            f"_W[_fa + {FRAME_GLOBAL}] != {gf}",
            *(f"_W[{frame_gf} + GF_CODE_BASE] != {cb}" for frame_gf, cb in self.code_bases.items()),
        ]

    def _claim_lines(self, ind: str) -> list[str]:
        """The free-list walk of every nested frame."""
        allocator = self.allocator
        lines = []
        for (key, index), needs in self.frames.items():
            block = self._block_var(key, index)
            if index == 0:
                source = allocator.fold_first.format(key=key)
            else:
                source = allocator.fold_next.format(block=self._block_var(key, index - 1))
            lines.append(f"{ind}{block} = {source}")
            lines.append(f"{ind}if {allocator.fold_refused(block, key, needs)}:")
            lines += self.fallback(ind)
            frame = f"_f{key}_{index}"
            if frame != block:
                lines.append(f"{ind}{frame} = {allocator.fold_frame.format(block=block)}")
        return lines

    def _stats_lines(self, ind: str) -> list[str]:
        n = len(self.calls)
        lines = [f"{ind}heap_stats.allocations += {n}", f"{ind}heap_stats.frees += {n}"]
        requested: dict = {}
        blocks: dict = {}
        classes: dict = {}
        for cell, frame in self.calls:
            words = self.allocator.fold_words(self._block_var(frame.key, frame.index), cell)
            for total, value in zip((requested, blocks), words):
                total[value] = total.get(value, 0) + 1
            classes[frame.key] = classes.get(frame.key, 0) + 1
        for field, total in (("requested", requested), ("block", blocks)):
            lines.append(f"{ind}heap_stats.total_{field}_words += {_weighted_sum(total)}")
        for key, times in classes.items():
            lines += _bump("per_class", str(key), times, ind)
        return lines


class _BankNest(_Spliced):
    """A superblock's folded frames on a renaming machine (i4): each
    spliced callee's frame stays deferred and writes no memory, its
    locals held in its bank, and the bank transitions are planned as the
    superblock is generated.

    The plan replays ``BankManager.on_call`` and ``on_return``, as the
    renaming cells do, over bank *names*, for the entry layout in which
    every bank but the Lbank (``_l0``) and the stack bank (``_s0``) is
    free.  ``BankFile.acquire_free`` takes the free bank of lowest id:
    the entry's scan binds the free banks it finds to ``_f0``, ``_f1``,
    … in id order, a name keeps its rank among the names it was ranked
    with, and where the lowest of two ranked groups is not known the
    entry sorts their heads by id (:meth:`_take`), so every choice is
    made before the superblock mutates anything.  The entry may find
    more busy banks (frames further down hold theirs): the plan holds
    while it finds every free bank the plan names.  A bank overflow takes
    the oldest bank (``BankFile.oldest``): the entry's Lbank, older than
    every bank the superblock assigns, or the Lbank a fill gave the
    caller.  A victim or an underflow in a spliced frame, whose frame is
    deferred, cannot fold (:class:`~repro.jit.compile._Unfoldable`), nor
    can a spill without dirty tracking.

    A bank's words move where the cells move them: the argument record
    into the renamed bank, a spliced frame's stores, a spill into the
    caller's frame and a fill out of it, in program order, so two names
    of one bank see each other's words.  Its role, frame and assignment
    number are written once, at the exit (:meth:`exit_lines`).  Dirty
    sets need no write: a bank that is not LOCAL has none, and a spliced
    frame's bank is freed before the exit; a spill clears its victim's,
    and the caller's bank takes its stores' as blocks do.
    """

    def __init__(self, fold: Fold, gf: int, meta) -> None:
        super().__init__(fold, gf, meta, True)
        banks = self.banks = fold.banks
        #: The superblock's own frame's local words: a spill's bound and
        #: a fill's length.
        self.top_words = meta.local_words
        free = [f"_f{index}" for index in range(banks.count - 2)]
        self.lives = {
            "_l0": _Life((BankRole.LOCAL, "caller"), (BankRole.LOCAL, "caller")),
            "_s0": _Life((BankRole.STACK, None), (BankRole.STACK, None)),
        }
        #: name -> (group, rank): the names of one group are in id order.
        self.rank = {"_l0": ("L", 0), "_s0": ("S", 0)}
        for index, name in enumerate(free):
            self.lives[name] = _Life((BankRole.FREE, None), (BankRole.FREE, None))
            self.rank[name] = ("F", index)
        #: The free banks: group -> [(rank, name)], lowest first.
        self.pool = {"F": list(enumerate(free))} if free else {}
        #: The busy banks' assignment numbers; the entry's Lbank is the oldest.
        self.busy = {"_l0": -1, "_s0": 0}
        #: Each active frame's bank, the superblock's own first; None
        #: once a spill took it.
        self.frames: list = ["_l0"]
        self.sbank = "_s0"
        self.seq = 0
        self.events = 0
        #: Entry lines that sort group heads by id.
        self.sorts: list[str] = []
        #: How many ``_f`` names the plan reads: the free banks it needs.
        self.free_used = 0
        #: The entry's Lbank is spilled: its frame must be allocated.
        self.spills_entry = False
        #: A spill or a fill, which a bank-file tracer would see.
        self.moves = False
        self.overflows = self.fills = self.filled = 0
        #: Under RENAME, the stack depth at entry that leaves the first
        #: spliced call exactly its argument record.
        self.entry_depth: int | None = None
        #: (bank, local) -> the value a spliced frame's bank holds there.
        self.held: dict = {}

    def _assign(self, name: str, role: BankRole, frame) -> None:
        self.seq += 1
        life = self.lives[name]
        life.state = (role, frame)
        life.seq = self.seq
        self.busy[name] = self.seq

    def _begin(self, name: str) -> None:
        self.events += 1
        self.lives[name].start = self.events

    def _take(self) -> str:
        """The free bank of lowest id: a group's head, or the first of
        the heads sorted at entry."""
        pool = self.pool
        if "F" in pool:
            self.free_used = max(self.free_used, pool["F"][0][0] + 1)
        if len(pool) == 1:
            (members,) = pool.values()
            name = members.pop(0)[1]
        else:
            heads = [members.pop(0)[1] for members in pool.values()]
            group = f"_p{len(self.sorts)}"
            names = [f"{group}_{index}" for index in range(len(heads))]
            self.sorts.append(f"{', '.join(names)} = sorted(({', '.join(heads)}), key=_ID)")
            for index, member in enumerate(names):
                self.lives[member] = _Life((BankRole.FREE, None), (BankRole.FREE, None))
                self.rank[member] = (group, index)
            pool[group] = list(enumerate(names))[1:]
            name = names[0]
        self.pool = {group: members for group, members in pool.items() if members}
        return name

    def _free(self, name: str) -> None:
        group, rank = self.rank[name]
        members = self.pool.setdefault(group, [])
        members.append((rank, name))
        members.sort()

    def _call(self, site, cell, frame: _Frame, stack, w, ind: str):
        """A spliced call's rename: (the callee's frame in its bank, the
        lines that spill a victim and move the argument record into the
        bank)."""
        banks = self.banks
        args: list = []
        if banks.rename:
            # The whole stack is the record; the first call fixes the
            # entry depth that makes it the callee's arguments.
            arguments = cell.meta.arg_count
            if self.entry_depth is None:
                self.entry_depth = arguments + stack.taken - len(stack.values)
            count = self.entry_depth - stack.taken + len(stack.values)
            if count != arguments or self.entry_depth < stack.taken or count > banks.words:
                raise _Unfoldable
            args = [stack.held(ind, stack.pop(ind)) for _ in range(count)][::-1]
        callee = self.sbank
        self._assign(callee, BankRole.LOCAL, len(self.frames))
        self.frames.append(callee)
        lines: list[str] = []
        if self.pool:
            fresh = self._take()
        else:
            # BankManager._acquire's overflow, as _OVERFLOW_SPILL: the
            # oldest bank but the one just renamed, spilled into its frame.
            fresh = min((name for name in self.busy if name != callee), key=self.busy.get)
            if self.lives[fresh].state[1] != "caller" or banks.spill_slot is None:
                raise _Unfoldable
            self.frames[0] = None
            self.spills_entry |= fresh == "_l0"
            self.overflows += 1
            self.moves = True
            w.add(Event.BANK_FLUSH)
            # The caller's frame: a bank's frame is written at the exit.
            lines += [
                f"{ind}fresh = {fresh}",
                f"{ind}dirty = fresh.dirty",
                f"{ind}base = _fa + {LOCALS_BASE}",
            ]
            lines += textwrap.indent(_SPILL.format(word_slot=banks.spill_slot), ind).splitlines()
            lines.append(f"{ind}dirty.clear()")
        self._begin(fresh)
        self._assign(fresh, BankRole.STACK, None)
        self.sbank = fresh
        for index, value in enumerate(args):
            self.held[callee, index] = value
            lines.append(f"{ind}{callee}.words[{index}] = {value}")
        return _Folded(cell, callee, self.held, True), lines

    def _ret(self, frame: _Frame, w, ind: str) -> list[str]:
        """A spliced return: the callee's bank is freed, and a caller
        whose bank was spilled takes the first free bank, filled from its
        frame (the lines that fill it)."""
        done = self.frames.pop()
        self.lives[done].state = (BankRole.FREE, None)
        del self.busy[done]
        self._free(done)
        if self.frames[-1] is not None:
            return []
        filled = self._take()
        self._begin(filled)
        self._assign(filled, BankRole.LOCAL, "caller")
        self.frames[0] = filled
        words = min(self.banks.words, self.top_words)
        self.fills += 1
        self.filled += words
        self.moves = True
        w.add(Event.BANK_LOAD)
        for event, times in _FILL_WORD.items():
            w.add(event, times * words)
        w.hit(self.ctx.frames_name, words)
        return [
            f"{ind}{filled}.words[:{words}] = "
            f"_W[_fa + {LOCALS_BASE} : _fa + {LOCALS_BASE + words}]",
            f"{ind}_bk = {filled}",
            f"{ind}_bw = _bk.words",
        ]

    def guard_lines(self, needs: int, grow: int, ind: str) -> list[str]:
        if self.entry_depth is None:
            return super().guard_lines(needs, grow, ind)
        # RENAME takes the whole stack as a record: the entry depth is
        # exact, and a verified path cannot underflow or overflow it.
        guard = [f"{ind}st = _ST._slots", f"{ind}if len(st) != {self.entry_depth}:"]
        return guard + self.fallback(ind)

    def _refused(self) -> list[str]:
        # The call cells' guards, once for the nest; a spill or a fill
        # refuses a bank-file tracer.
        gf = self.gf
        refused = [
            f"m.gf != {gf}", "caller.freed", "caller.flagged", f"caller.gf != {gf}",
            *self._rstack_refused(),
        ]
        if self.moves:
            refused.append("bankfile.tracer is not None")
        return refused

    def _claim_lines(self, ind: str) -> list[str]:
        """Bind the banks the plan names, refusing a layout it does not
        fit: no Lbank over the caller or no stack bank, too few free
        banks, or an entry Lbank whose spill the cells leave generic."""
        fallback = self.fallback(ind)
        refused = ["_l0 is None", "_l0.frame is not caller", "_s0 is None", "_s0.role is not STACK"]
        if self.spills_entry:
            refused += ["_fa is None", f"(_l0.dirty and max(_l0.dirty) >= {self.top_words})"]
        lines = [f"{ind}_l0 = _BKS.lbank", f"{ind}_s0 = _BKS.sbank"]
        lines += _refuse(refused, fallback, ind)
        lines += [
            f"{ind}_F = []",
            f"{ind}for _b in bank_list:",
            f"{ind}    if _b.role is FREE:",
            f"{ind}        _F.append(_b)",
            f"{ind}if len(_F) < {self.free_used}:",
        ]
        lines += fallback
        lines += [f"{ind}_f{index} = _F[{index}]" for index in range(self.free_used)]
        lines += [ind + line for line in self.sorts]
        lines += [f"{ind}_sq = bankfile._seq", f"{ind}_bk = _l0", f"{ind}_bw = _l0.words"]
        return lines

    def _stats_lines(self, ind: str) -> list[str]:
        """Each named bank's role, frame and assignment number as the
        superblock leaves them, the two registers, the sequence number
        and the bank statistics' net increments."""
        lines = []
        named = sorted(
            (life.start, name) for name, life in self.lives.items() if life.seq is not None
        )
        for _start, name in named:
            life = self.lives[name]
            role, frame = life.state
            lines.append(f"{ind}{name}.assigned_at = _sq + {life.seq}")
            if role is not life.before[0]:
                lines.append(f"{ind}{name}.role = {role.name}")
            if frame != life.before[1]:
                lines.append(f"{ind}{name}.frame = {'caller' if frame else 'None'}")
        lines.append(f"{ind}bankfile._seq = _sq + {self.seq}")
        if self.frames[0] != "_l0":
            lines.append(f"{ind}_BKS.lbank = {self.frames[0]}")
        lines.append(f"{ind}_BKS.sbank = {self.sbank}")
        calls = len(self.calls)
        lines += [
            f"{ind}bstats.xfers += {2 * calls}",
            f"{ind}bstats.assignments += {calls + self.fills}",
            f"{ind}bstats.releases += {calls}",
        ]
        if self.overflows:
            lines.append(f"{ind}bstats.overflows += {self.overflows}")
        if self.fills:
            lines.append(f"{ind}bstats.underflows += {self.fills}")
            lines.append(f"{ind}bstats.words_filled += {self.filled}")
        lines.append(f"{ind}m.deferred_frames += {calls}")
        return lines


def _bump(table: str, key: str, times: int, ind: str) -> list[str]:
    """``table[key] += times``, inserting the key where it is new."""
    return [
        f"{ind}try:",
        f"{ind}    {table}[{key}] += {times}",
        f"{ind}except KeyError:",
        f"{ind}    {table}[{key}] = {times}",
    ]


def _weighted_sum(terms: dict) -> str:
    """``sum(times * value)`` as source: int values summed, expressions
    scaled."""
    constant = sum(value * times for value, times in terms.items() if isinstance(value, int))
    parts = [
        value if times == 1 else f"{times} * ({value})"
        for value, times in terms.items()
        if not isinstance(value, int)
    ]
    if constant or not parts:
        parts.append(str(constant))
    return " + ".join(parts)


def make_cells(machine, ctx, ns: dict, stats):
    """Build *machine*'s (fast_call, fast_return) into the engine's block
    namespace *ns*, with the :class:`Fold` that superblocks splice calls
    by; any may be None (unsupported shape: those sites stay generic;
    no linkage cache: nothing is spliced).  ``ctx.on_seed(site, gf)``
    runs after each cell is seeded."""
    banked = machine.banks is not None
    if banked:
        if not _renames(machine):
            return None, None, None
        allocator = None
    else:
        allocator = _allocator(machine, ctx)
        if allocator is None:
            return None, None, None

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
        resolved, pairs, regions = entry
        meta = procs_by_entry.get(resolved.entry_address)
        if meta is None or (banked and meta.local_words > bank_words):
            site.generic = True
            stats.sites_demoted += 1
            return -1
        charges = _merge(dict(pairs), {site.kind_event: 1}, static)
        traffic = _merge(dict(regions), static_traffic)
        need = 0 if banked else allocator.need(meta, resolved.fsi)
        site.cells[gf] = _Cell(
            ctx.exit_slot(charges, traffic), charges, traffic, meta, resolved, need
        )
        stats.cells_built += 1
        if on_seed is not None:
            on_seed(site, gf)
        return -1

    on_seed = ctx.on_seed

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
        **{f"K_{kind.name}": kind for kind in TransferKind},
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
            _ID=operator.attrgetter("id"),
        )
        rename = machine.config.arg_convention is ArgConvention.RENAME
        if bankfile.track_dirty:
            flush = _commit_lines(ctx, {Event.BANK_FLUSH: 1}, {}, " " * 8)
            word_slot = ctx.exit_slot(_SPILL_WORD, {frames: 1})
            overflow = _OVERFLOW_SPILL.format(spill="\n".join((
                textwrap.indent(_SPILL.format(word_slot=word_slot), " " * 8), flush
            )))
        else:
            word_slot = None
            overflow = _OVERFLOW_GENERIC
        call = _CALL.format(
            guard=_RENAME_GUARD.format(
                wide="\n        or len(slots) > sbank.size" if rename else ""
            ),
            claim=_FREE_BANK.format(overflow=overflow),
            cb_read=cb_read(" " * 8),
            transfer=_RENAME + (_RENAME_ARGUMENTS if rename else ""),
        )
        # A fill's charges: its load, and ``words`` hits on one filled
        # word's slot (a spill counts its words in _SPILL).
        fill_slot = ctx.exit_slot(_FILL_WORD, {frames: 1})
        fill = _commit_lines(ctx, {Event.BANK_LOAD: 1}, {}, " " * 8)
        fill += f"\n        _H[{fill_slot}] += words"
        ret_charges = {Event.FAST_TRANSFER: 1}
        ret = _RETURN_RSTACK.format(
            charges=_commit_lines(ctx, ret_charges, {}),
            **dict(_RETURN_RENAME, free=_RETURN_RENAME["free"].format(fill=fill)),
        )
        ret_traffic = {}
        banks = _Banks(len(bankfile), bank_words, rename, word_slot)
    else:
        banks = None
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
            ret_charges = _merge({Event.FAST_TRANSFER: 1}, allocator.free_charges)
            ret_traffic = allocator.free_traffic
            ret = _RETURN_RSTACK.format(
                deferred="",
                source="    addr = current.address",
                refused=" or " + allocator.free_refused,
                claim="",
                charges=_commit_lines(ctx, ret_charges, ret_traffic),
                free=free,
            )
        else:
            # The link read, the free, then PC and GF from the frame and
            # CB from the global frame.
            ret_charges = _merge(
                {Event.SLOW_TRANSFER: 1, Event.MEMORY_READ: 4}, allocator.free_charges
            )
            ret_traffic = _merge({frames: 3, gf_name: 1}, allocator.free_traffic)
            ret = _RETURN_GENERAL.format(
                refused=allocator.free_refused,
                charges=_commit_lines(ctx, ret_charges, ret_traffic),
                free=free,
            )
    if entries_map is None:
        exec(_cell_code(ret), ns)
        return None, ns["fast_return"], None
    exec(_cell_code(call + "\n" + ret), ns)
    return ns["fast_call"], ns["fast_return"], Fold(
        machine, ctx, ret_charges, ret_traffic, allocator, banks
    )


@functools.lru_cache(maxsize=16)
def _cell_code(source: str):
    """Compile one cell source once per process: the machines of one
    shape (every shard of a cluster) share the code object, and each
    binds it to its own namespace."""
    return compile(source, "<jit cells>", "exec")
