"""Basic-block carving and host-Python template assembly.

Each verified procedure body is carved with the checker's CFG builder
(:mod:`repro.check.cfg`), then split further at *tail* opcodes
(transfers, storage management — see :mod:`repro.jit.templates`).  The
resulting straight-line runs are compiled into one host function per
block via ``exec``: every inline opcode expands to a template that
reproduces the interpreter's exact state transition on an evaluation
stack interpreted at compile time (:class:`_Stack`: values live in host
locals, and the list is written only where something can observe it),
while its meter charges are summed **at compile time**.  Each exit's
sum is a static charge vector interned in the engine's exit table, and
the exit counts itself with one ``_H[slot] += 1``; the engine charges
the meters from those counts when control leaves compiled code.  The
interpreter charges per executed instruction and the charge schedule is
purely additive, so the meters are bit-identical wherever anything can
read them.  ``m.steps`` is the exception: it stays eager, because the
engine's step-ceiling check reads it between blocks.

A block that ends at a seeded monomorphic call to a straight-line
callee grows into a *superblock* (:func:`gen_superblock`, planned by
:func:`plan_superblock` from the recorded specs and seeded cells): the
same templates, ``_Stack`` and ``_Charges`` carry on through the call
transition, the callee's body, the return transition and the caller's
continuation, whose folded frames (and on i4, whose bank renames)
:class:`repro.jit.calls.Fold` renders.  All of its guards run at
entry, and a refused one tail-calls the unspliced block.

Block protocol — a compiled function ``fn(machine)`` returns:

* ``pc >= 0`` — the block completed; ``machine.pc`` is ``pc`` (the
  engine direct-threads into the next compiled block);
* ``-1`` — a tail handler ran; the engine must re-read ``pc``,
  ``halted``, and ``yield_requested`` from the machine;
* ``-2`` — deoptimization: ``machine.pc`` names the instruction that
  needs the interpreter, and **no** charge for it (or anything after
  it) has been counted.  Guards always fire before their
  instruction's charges and mutations, so the counted charges
  correspond to exactly the fully-executed prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.check.cfg import ControlFlowGraph, build_cfg
from repro.check.diagnostics import CheckReport
from repro.isa.opcodes import CALL_OPS, Op
from repro.jit import templates as T
from repro.machine.costs import Event


@dataclass
class CompilerContext:
    """Everything block generation needs from the engine, precomputed."""

    #: (events, traffic) -> the exit-table slot that charges them, or
    #: None when they charge nothing (``JitEngine.exit_slot``).
    exit_slot: Callable[[dict, dict], int | None]
    #: Evaluation-stack depth limit.
    depth: int
    #: Locals live in register banks (i4-style configs).
    banked: bool
    #: Words per bank (locals beyond this index go to memory).
    bank_words: int
    #: Tail-opcode set for this configuration.
    tails: frozenset
    #: RD/WR may be inlined (full 64K store, so no address is out of range).
    inline_memory: bool
    #: Name of the frame arena region ("frames").
    frames_name: str
    #: address -> region name ("" when unmapped), uncounted.
    region_name: Callable[[int], str]
    #: module name -> gf addresses of its instances (for static
    #: attribution of LG/SG traffic).
    module_gfs: dict
    #: (module, proc) -> {site offset -> classification} from the facts.
    site_classes: dict
    #: Specialized call runtime (or None: every call is generic).
    fast_call: Callable | None = None
    #: Specialized return runtime (or None).
    fast_return: Callable | None = None
    #: CallSite factory, bound by the engine (imported lazily to keep
    #: compile.py free of runtime deps).
    make_site: Callable | None = None
    #: The folded call-and-return runtime superblocks splice by
    #: (:class:`repro.jit.calls.Fold`), or None: nothing is spliced.
    fold: object | None = None
    #: Called with (site, gf) after a call cell is seeded.
    on_seed: Callable | None = None
    #: Filled by :func:`compile_procedure`: block start -> (spec, meta,
    #: the CallSite of its terminator or None), what superblocks are
    #: planned from.
    specs: dict | None = None


@dataclass
class BlockSpec:
    """One compiled block: an inline run plus its terminator."""

    start: int  # absolute address of the first instruction
    items: list  # DecodedInstruction inline run
    term: str  # 'jump' | 'cond' | 'fall' | 'tail'
    term_item: object | None
    next_abs: int  # fall-through / not-taken successor (absolute)
    target_abs: int | None = None  # jump target (absolute)


def carve(cfg: ControlFlowGraph, base: int, tails: frozenset) -> list[BlockSpec]:
    """Split CFG blocks further at tail opcodes; absolute addressing.

    Every CFG block start is a spec start, and so is the instruction
    after every tail — which is exactly where calls return to, so
    return pcs always land on compiled block boundaries.
    """
    specs: list[BlockSpec] = []
    for block in cfg.block_order():
        run: list = []
        start = block.start
        for item in block.instructions:
            op = item.instruction.op
            following = item.offset + item.length
            if op in tails:
                specs.append(
                    BlockSpec(
                        start=base + start,
                        items=run,
                        term="tail",
                        term_item=item,
                        next_abs=base + following,
                    )
                )
                run = []
                start = following
            elif op in T.COND_JUMPS or op in T.UNCOND_JUMPS:
                # Jumps always terminate their CFG block.
                specs.append(
                    BlockSpec(
                        start=base + start,
                        items=run,
                        term="cond" if op in T.COND_JUMPS else "jump",
                        term_item=item,
                        next_abs=base + following,
                        target_abs=base + item.target(),
                    )
                )
                run = []
                start = following
            else:
                run.append(item)
        if run:
            specs.append(
                BlockSpec(
                    start=base + start,
                    items=run,
                    term="fall",
                    term_item=None,
                    next_abs=base + block.end,
                )
            )
    return specs


class _Charges:
    """Accumulates the pending (uncounted) meter effects of a block."""

    def __init__(self, ctx: CompilerContext) -> None:
        self.ctx = ctx
        self.events: dict[Event, int] = {}
        self.traffic: dict[str, int] = {}
        self.steps = 0

    def add(self, event: Event, times: int = 1) -> None:
        self.events[event] = self.events.get(event, 0) + times

    def hit(self, region: str, times: int = 1) -> None:
        self.traffic[region] = self.traffic.get(region, 0) + times

    def step(self) -> None:
        self.steps += 1
        self.add(Event.DECODE)

    def commit_lines(self, indent: str, extra_jump: bool = False) -> list[str]:
        """Render the commit: one hit on the exit-table slot of the
        static charges and traffic, then the eager step count."""
        events = self.events
        if extra_jump:
            events = dict(events)
            events[Event.JUMP] = events.get(Event.JUMP, 0) + 1
        lines = []
        slot = self.ctx.exit_slot(events, self.traffic)
        if slot is not None:
            lines.append(f"{indent}_H[{slot}] += 1")
        if self.steps:
            lines.append(f"{indent}m.steps += {self.steps}")
        return lines


def _deopt_lines(flush: list[str], w: _Charges, indent: str, at: int) -> list[str]:
    """Write the list (*flush*), count the executed prefix, and hand
    *at* to the interpreter."""
    lines = flush + w.commit_lines(indent)
    lines.append(f"{indent}m.pc = {at}")
    lines.append(f"{indent}return -2")
    return lines


def _is_literal(value: str) -> bool:
    return value.isdigit()


class _Stack:
    """A block's evaluation stack, interpreted at compile time.

    The verifier proved the depths and the entry guard checks them, so
    the block never needs the list's length.  A value pushed inside the
    block is an int literal, a host local, or a pure expression over
    those; a load is read into a local at its own program point, so a
    later store cannot change it.  A pop past the block's own values
    reads the list into a local and leaves the word there.  The list is
    written only where something can observe it (:meth:`flush_lines`):
    at each exit, before a call cell or tail handler, and inside the
    ``DIV``/``MOD`` zero guard before it deopts.
    """

    def __init__(self, body: list[str]) -> None:
        self.body = body
        #: Values pushed inside the block, bottom first.
        self.values: list[str] = []
        #: Entry words consumed from the top of the list, still on it.
        self.taken = 0
        self.temps = 0
        #: A compare's pure ``(1 if C else 0)`` value -> its condition C,
        #: so a conditional jump tests C itself.
        self.tests: dict[str, str] = {}

    def local(self, ind: str, expr: str) -> str:
        """Bind *expr* to a fresh local at this program point."""
        name = f"_v{self.temps}"
        self.temps += 1
        self.body.append(f"{ind}{name} = {expr}")
        return name

    def push(self, value: str) -> None:
        self.values.append(value)

    def pop(self, ind: str) -> str:
        if self.values:
            return self.values.pop()
        self.taken += 1
        return self.local(ind, f"st[-{self.taken}]")

    def drop(self) -> None:
        if self.values:
            self.values.pop()
        else:
            self.taken += 1

    def held(self, ind: str, value: str) -> str:
        """*value* as a literal or a local, never a compound expression
        (which would be evaluated once per use)."""
        if _is_literal(value) or value.isidentifier():
            return value
        return self.local(ind, value)

    def signed(self, ind: str, value: str) -> str:
        """The signed decode of *value*: folded for a literal, else a
        fresh local."""
        if _is_literal(value):
            word = int(value)
            return str(word - 65536 if word > 32767 else word)
        name = self.local(ind, value)
        self.body.append(f"{ind}if {name} > 32767: {name} -= 65536")
        return name

    def state(self) -> tuple[list[str], int]:
        return list(self.values), self.taken

    def flush_lines(self, ind: str, state: tuple[list[str], int] | None = None) -> list[str]:
        """Make the list hold what the interpreter's would: drop the
        *taken* words, then push the block's values.  Words both dropped
        and pushed are overwritten in place."""
        values, taken = state if state is not None else self.state()
        lines = [
            f"{ind}st[-{taken - index}] = {value}"
            for index, value in enumerate(values[:taken])
        ]
        lines += [f"{ind}st.pop()"] * (taken - len(values))
        lines += [f"{ind}st.append({value})" for value in values[taken:]]
        return lines


def _gf_static_region(ctx: CompilerContext, module: str, word: int) -> str | None:
    """The single region name every instance's ``gf + word`` falls in.

    A procedure only ever executes under one of its module's instance
    gfs, so if the address attributes to the same region under all of
    them the attribution is static.  Returns None when it is not.
    """
    gfs = ctx.module_gfs.get(module)
    if not gfs:
        return None
    names = {ctx.region_name(gf + word) for gf in gfs}
    if len(names) != 1:
        return None
    return names.pop()


# Stack effects of the conditional-jump terminator (pop of the tested
# value) are included in the entry-guard walk via this pseudo-effect.
_COND_EFFECT = (1, -1)


def _entry_guard(items: list, term: str) -> tuple[int, int]:
    """(needs, max_grow) over the emitted inline prefix: the list words
    the block reads, and how far past its entry depth it pushes."""
    cum = 0
    needs = 0
    grow = 0
    effects = [T.STACK_EFFECTS[item.instruction.op] for item in items]
    if term == "cond":
        effects.append(_COND_EFFECT)
    for n, delta in effects:
        if n - cum > needs:
            needs = n - cum
        cum += delta
        if cum > grow:
            grow = cum
    return needs, grow


def _inline_prefix(spec: BlockSpec, ctx: CompilerContext, meta) -> tuple[list, int | None]:
    """The items of *spec* that compile inline, and the pc of the first
    one that must deopt instead (None: the whole run compiles)."""
    emitted: list = []
    for item in spec.items:
        op = item.instruction.op
        abs_pc = spec.start + (item.offset - spec.items[0].offset)
        if ctx.banked and (
            op in T.LOCAL_LOAD
            or op in T.LOCAL_STORE
            or op in (Op.LLB, Op.SLB)
        ):
            local = T.LOCAL_LOAD.get(op)
            if local is None:
                local = T.LOCAL_STORE.get(op)
            if local is None:
                local = item.instruction.operand
            if local >= ctx.bank_words:
                # Falls to the memory path (possibly materializing a
                # deferred frame): data-dependent, interpreter's job.
                return emitted, abs_pc
        if op in (Op.LG, Op.SG):
            word = 3 + item.instruction.operand  # GF_HEADER_WORDS
            if _gf_static_region(ctx, meta.module, word) is None:
                return emitted, abs_pc
        if op in (Op.RD, Op.WR) and not ctx.inline_memory:
            return emitted, abs_pc
        emitted.append(item)
    return emitted, None


@dataclass
class _Frame:
    """Where one activation's locals and globals are while a block runs.

    A block's own frame is the running one (``_fa``, ``_gf``, and on a
    banked machine its Lbank ``_bk``) and its stores write through.  A
    frame a superblock folds holds a free block's address and a constant
    gf, and its stores land in *words*, the superblock's deferred
    writes: a later load of the same word reads the held value, and the
    superblock writes each word once before it exits.  On a banked
    machine a folded frame's *address* names its bank instead: its
    stores write the bank's words in place, and *words* holds them for
    later loads.
    """

    meta: object
    address: str
    gf: str
    words: dict | None = None
    #: The CB register's value while the frame runs (folded frames).
    cb: int = -1


def _make_site(spec: BlockSpec, ctx: CompilerContext, machine, meta):
    """The CallSite of *spec*'s terminating call, or None (no call, no
    cells, or a site the facts do not classify)."""
    item = spec.term_item
    if (
        spec.term != "tail"
        or item.instruction.op not in CALL_OPS
        or ctx.fast_call is None
        or ctx.make_site is None
    ):
        return None
    classes = ctx.site_classes.get((meta.module, meta.name), {})
    classification = classes.get(item.offset)
    if classification not in ("monomorphic", "polymorphic"):
        return None
    op = item.instruction.op
    return ctx.make_site(
        op,
        spec.next_abs,
        machine._dispatch[op],
        item.instruction,
        spec.start,
        classification == "monomorphic",
    )


def _stack_guard(needs: int, grow: int, depth: int, ind: str, fail: list[str]) -> list[str]:
    """The entry check that the list holds the words a block reads and
    has room for what it pushes."""
    if needs <= 0 and grow <= 0:
        return []
    lines = [f"{ind}st = _ST._slots"]
    if needs > 0 and grow > 0:
        guard = f"not {needs} <= len(st) <= {depth - grow}"
    elif needs > 0:
        guard = f"len(st) < {needs}"
    else:
        guard = f"len(st) > {depth - grow}"
    lines.append(f"{ind}if {guard}:")
    return lines + fail


def gen_block(
    spec: BlockSpec,
    index: int,
    ctx: CompilerContext,
    ns: dict,
    machine,
    meta,
    site=None,
) -> tuple[str, list[str], int]:
    """Generate one block function; returns (name, source lines, n_steps).

    ``n_steps`` is the maximum number of modelled steps the block can
    commit — the engine compares it against the step ceiling before
    entering the block.  *site* is the CallSite of a terminating call.
    """
    name = f"_b{spec.start}"
    w = _Charges(ctx)
    ind = "    "
    emitted, deopt_at = _inline_prefix(spec, ctx, meta)
    term = spec.term if deopt_at is None else "deopt"

    # -- prologue -------------------------------------------------------
    needs, grow = _entry_guard(emitted, term)
    ops = [item.instruction.op for item in emitted]
    uses_local = any(
        op in T.LOCAL_LOAD or op in T.LOCAL_STORE or op in (Op.LLB, Op.SLB)
        for op in ops
    )
    uses_gf = any(op in (Op.LG, Op.SG, Op.LGA) for op in ops)

    body = [f"def {name}(m):"]
    body += _stack_guard(
        needs, grow, ctx.depth, ind, [f"{ind}    m.pc = {spec.start}", f"{ind}    return -2"]
    )
    if uses_local:
        if ctx.banked:
            body.append(f"{ind}_bk = _BKS.lbank")
            body.append(f"{ind}if _bk is None or _bk.frame is not m.frame:")
            body.append(f"{ind}    m.pc = {spec.start}")
            body.append(f"{ind}    return -2")
            body.append(f"{ind}_bw = _bk.words")
        else:
            body.append(f"{ind}_fa = m.frame.address")
    if uses_gf:
        body.append(f"{ind}_gf = m.gf")
    if Op.OUT in ops:
        body.append(f"{ind}_o = m.output")

    # -- inline run -----------------------------------------------------
    stack = _Stack(body)
    frame = _Frame(meta, "_fa", "_gf")
    for item in emitted:
        _emit_op(item, spec, ctx, frame, w, stack, ind)

    # -- terminator -----------------------------------------------------
    if term == "deopt":
        body.extend(_deopt_lines(stack.flush_lines(ind), w, ind, deopt_at))
    else:
        body.extend(_terminator(spec, site, index, ctx, ns, machine, w, stack, ind))
    body.append("")
    return name, body, w.steps


def _terminator(spec, site, tag, ctx, ns, machine, w: _Charges, stack: _Stack, ind: str):
    """A block's exit: a fall-through, a jump, a conditional jump, or a
    tail handler (a call or return cell where one is built); its names
    are bound in *ns* under *tag*."""
    body: list[str] = []
    if spec.term == "fall":
        body.extend(stack.flush_lines(ind))
        body.extend(w.commit_lines(ind))
        body.append(f"{ind}m.pc = {spec.next_abs}")
        body.append(f"{ind}return {spec.next_abs}")
    elif spec.term == "jump":
        w.step()
        w.add(Event.JUMP)
        body.extend(stack.flush_lines(ind))
        body.extend(w.commit_lines(ind))
        body.append(f"{ind}m.pc = {spec.target_abs}")
        body.append(f"{ind}return {spec.target_abs}")
    elif spec.term == "cond":
        op = spec.term_item.instruction.op
        w.step()
        w.add(Event.REGISTER_READ)  # the tested value's pop
        value = stack.pop(ind)
        body.extend(stack.flush_lines(ind))
        # Jump when the value is zero (JZ) or nonzero (JNZ); a compare's
        # value is tested through its condition.
        condition = stack.tests.get(value)
        if condition is None:
            test = f"{value} == 0" if T.COND_JUMPS[op] else f"{value} != 0"
        else:
            test = f"not ({condition})" if T.COND_JUMPS[op] else condition
        body.append(f"{ind}if {test}:")
        body.extend(w.commit_lines(ind + "    ", extra_jump=True))
        body.append(f"{ind}    m.pc = {spec.target_abs}")
        body.append(f"{ind}    return {spec.target_abs}")
        body.extend(w.commit_lines(ind))
        body.append(f"{ind}m.pc = {spec.next_abs}")
        body.append(f"{ind}return {spec.next_abs}")
    else:  # tail
        item = spec.term_item
        op = item.instruction.op
        w.step()
        body.extend(stack.flush_lines(ind))
        body.extend(w.commit_lines(ind))
        body.append(f"{ind}m.pc = {spec.next_abs}")
        if site is not None:
            ns[f"_s{tag}"] = site
            body.append(f"{ind}try:")
            body.append(f"{ind}    return fast_call(m, _s{tag})")
            body.extend(_tail_excepts(ind, returning=True))
        elif op is Op.RET and ctx.fast_return is not None:
            body.append(f"{ind}try:")
            body.append(f"{ind}    return fast_return(m)")
            body.extend(_tail_excepts(ind, returning=True))
        else:
            ns[f"_h{tag}"] = machine._dispatch[op]
            ns[f"_i{tag}"] = item.instruction
            body.append(f"{ind}try:")
            body.append(f"{ind}    _h{tag}(_i{tag}, {spec.next_abs})")
            body.extend(_tail_excepts(ind, returning=False))
            body.append(f"{ind}return -1")
    return body


# -- superblocks -------------------------------------------------------------

#: The most modelled steps one superblock may take.  The engine enters a
#: block only when all of its steps fit under the run's step ceiling
#: (a scheduler slice, a lock-step budget, a fault's firing step), and
#: single-steps the interpreter otherwise, so an unbounded superblock
#: would hand ever more of a sliced run to the interpreter; the cap also
#: bounds the source a rebuild compiles.  Calldense's ``main`` loop body,
#: six calls three deep, is 57 steps.
SUPERBLOCK_STEPS = 128


@dataclass
class _Splice:
    """A seeded call whose straight-line callee a superblock runs inline:
    the callee's body is its runs and nested splices, ending at its RET."""

    site: object
    cell: object
    body: list
    steps: int


def _spec_steps(spec: BlockSpec) -> int:
    return len(spec.items) + (spec.term in ("jump", "cond", "tail"))


def _splice_ok(spec: BlockSpec, meta, ctx: CompilerContext, callee: bool) -> bool:
    """Whether a spliced run may follow a spliced call: no deopt point
    (a DIV/MOD guard, an op left to the interpreter).  A callee's run
    also reads no memory by address, whose free lists and frame words
    the fold leaves as they were, and ends at a call or its RET."""
    if _inline_prefix(spec, ctx, meta)[1] is not None:
        return False
    ops = [item.instruction.op for item in spec.items]
    if Op.DIV in ops or Op.MOD in ops:
        return False
    if not callee:
        return True
    if Op.RD in ops or Op.WR in ops:
        return False
    if spec.term != "tail":
        return False
    op = spec.term_item.instruction.op
    return op is Op.RET or op in CALL_OPS


class _Planner:
    """Plans one superblock from the compiled specs and seeded cells.

    ``consulted`` collects every block start the plan read, spliced or
    not: when one of them is compiled, seeded or spliced itself, the
    superblock is planned again.
    """

    def __init__(self, ctx: CompilerContext) -> None:
        self.ctx = ctx
        self.consulted: set[int] = set()

    def _entry(self, start: int):
        self.consulted.add(start)
        return self.ctx.specs.get(start)

    def top(self, start: int, gf: int) -> list:
        """The parts of the superblock at *start* under *gf*: runs
        ``(spec, meta)`` and splices, ending at a run whose terminator is
        the superblock's own."""
        spec, meta, site = self._entry(start)
        parts: list = [(spec, meta)]
        if _inline_prefix(spec, self.ctx, meta)[1] is not None:
            return parts  # the block deopts before its call
        steps = _spec_steps(spec)
        active = (meta.entry_address + 1,)
        while spec.term == "tail" and spec.term_item.instruction.op in CALL_OPS:
            splice = self._splice(site, gf, active, SUPERBLOCK_STEPS - steps)
            if splice is None:
                break
            following = self._entry(spec.next_abs)
            if following is None or not _splice_ok(
                following[0], following[1], self.ctx, callee=False
            ):
                break
            cost = splice.steps + _spec_steps(following[0])
            if steps + cost > SUPERBLOCK_STEPS:
                break
            spec, meta, site = following
            parts += [splice, (spec, meta)]
            steps += cost
        return parts

    def _splice(self, site, gf: int, active: tuple, budget: int) -> _Splice | None:
        """The splice of *site*'s call under caller *gf*, or None: the
        site is polymorphic or unseeded there, the callee is recursive,
        or its body is not straight-line up to its RET within *budget*."""
        if site is None or not site.monomorphic:
            return None
        cell = site.cells.get(gf)
        if cell is None or not self.ctx.fold.splices(cell):
            return None
        entry = cell.first_instruction
        if entry in active:
            return None
        if not self.ctx.fold.rstack and cell.cb_final < 0:
            return None  # the saved PC and the return would read CB
        active = active + (entry,)
        body: list = []
        steps = 0
        start = entry
        while True:
            found = self._entry(start)
            if found is None:
                return None
            spec, meta, inner = found
            if not _splice_ok(spec, meta, self.ctx, callee=True):
                return None
            body.append((spec, meta))
            steps += _spec_steps(spec)
            if steps > budget:
                return None
            if spec.term_item.instruction.op is Op.RET:
                return _Splice(site, cell, body, steps)
            if inner is not None and inner.lfc and cell.cb_final < 0:
                return None  # the LFC prologue would fetch CB
            nested = self._splice(inner, cell.gf_address, active, budget - steps)
            if nested is None:
                return None
            body.append(nested)
            steps += nested.steps
            start = spec.next_abs


class _Unfoldable(Exception):
    """Two spliced frames of one global frame assume different CBs."""


@dataclass
class _FoldRecord:
    """What a superblock's spliced pairs need, collected as it is
    emitted, for :class:`repro.jit.calls.Fold`'s entry guard and exit."""

    gf: int
    code_base: int
    #: gf -> the CB each spliced general return reads from it.
    code_bases: dict
    #: (list key, index) -> the needs of the frames taken there.
    frames: dict
    #: (site, cell, key, index) per call, (None, None, key, index) per
    #: return, in program order.
    transitions: list
    depth: int = 0
    top_lfc: bool = False
    #: On a banked machine, the nest's bank plan
    #: (:class:`repro.jit.calls._BankPlan`).
    banks: object | None = None


def plan_superblock(start: int, gf: int, ctx: CompilerContext) -> tuple[list, set]:
    """(parts, consulted block starts) of the superblock at *start*
    under *gf*; one part means nothing splices."""
    planner = _Planner(ctx)
    parts = planner.top(start, gf)
    return parts, planner.consulted


def gen_superblock(
    parts: list, gf: int, ctx: CompilerContext, ns: dict, machine
) -> tuple[str, list[str], int] | None:
    """Generate a superblock: the block of ``parts[0]``, each spliced
    call's callee and the caller's continuation, as one function.

    Every guard runs first; a refused one tail-calls ``_fb``, the
    unspliced block, bound in *ns*.  The spliced transitions count in
    the exit's one vector, the folded frames' words are written once
    before the exit (:class:`_Frame`), and the fold's net effects follow
    them (:meth:`repro.jit.calls.Fold.exit_lines`).  None when no entry
    could pass the guard: two spliced frames of one global frame would
    assume different CBs, no free block holds the frames one depth
    takes, the nest is deeper than the return stack, or its banks would
    spill a spliced frame or spill without dirty tracking.
    """
    fold = ctx.fold
    top_spec, top_meta = parts[0]
    last_spec = parts[-1][0]
    name = f"_sb{top_spec.start}"
    ind = "    "
    w = _Charges(ctx)
    code_base = machine.image.by_gf[gf].code_base
    record = _FoldRecord(gf, code_base, {}, {}, [], banks=fold.bank_plan(top_meta))
    banks = record.banks
    words: dict = {}
    body: list[str] = []
    stack = _Stack(body)
    items: list = []
    live: dict = {}

    def run(parts: list, frame: _Frame, depth: int) -> None:
        for part in parts:
            if isinstance(part, tuple):
                spec, _meta = part
                for item in spec.items:
                    if item.instruction.op in (Op.RD, Op.WR) and words:
                        body.extend(_word_lines(words, ind))
                        words.clear()
                    _emit_op(item, spec, ctx, frame, w, stack, ind)
                items.extend(spec.items)
                continue
            site, cell = part.site, part.cell
            w.step()  # the call
            for event, times in cell.charges.items():
                w.add(event, times)
            for region, times in cell.traffic.items():
                w.hit(region, times)
            record.depth = max(record.depth, depth + 1)
            if frame.words is None:
                record.top_lfc = record.top_lfc or site.lfc
            elif not fold.rstack:
                _assume_code_base(record, int(frame.gf), frame.cb)
            if banks is None:
                key = fold.allocator.fold_key(cell)
                index = live.get(key, 0)
                live[key] = index + 1
                record.frames.setdefault((key, index), set()).add(cell.need)
                callee = _Frame(
                    cell.meta, fold.frame_var(key, index), str(cell.gf_address), words,
                    cell.cb_final,
                )
                for address, word, value in fold.call_writes(
                    site, cell, frame.address, callee.address, frame.cb
                ):
                    words[address, word] = value
            else:
                key = index = None
                bank, lines = banks.call(cell, stack, w, ind)
                body.extend(lines)
                callee = _Frame(
                    cell.meta, bank, str(cell.gf_address), banks.held, cell.cb_final
                )
            record.transitions.append((site, cell, key, index))
            run(part.body, callee, depth + 1)
            w.step()  # the RET
            for event, times in fold.ret_charges.items():
                w.add(event, times)
            for region, times in fold.ret_traffic.items():
                w.hit(region, times)
            record.transitions.append((None, None, key, index))
            if banks is None:
                live[key] = index
            else:
                body.extend(banks.ret(w, ctx.frames_name, ind))

    top = _Frame(top_meta, "_fa", str(gf), None, code_base)
    try:
        run(parts, top, 0)
        if not fold.rstack:
            _assume_code_base(record, gf, code_base)
    except _Unfoldable:
        return None
    if banks is None and not all(map(fold.allocator.fold_fits, record.frames.values())):
        return None  # first-fit: frames at one depth too unlike for one block
    if fold.rstack and record.depth > machine.rstack.depth:
        return None  # the nest never has room on the return stack
    body.extend(_word_lines(words, ind))
    body.extend(fold.exit_lines(record, ind))
    body.extend(
        _terminator(last_spec, ctx.specs[last_spec.start][2], "", ctx, ns, machine, w, stack, ind)
    )

    fallback = [f"{ind}    _ES.entry_fallbacks += 1", f"{ind}    return _fb(m)"]
    head = [f"def {name}(m):"]
    if banks is not None and banks.entry_depth is not None:
        # RENAME takes the whole stack as a record: the entry depth is
        # exact, and a verified path cannot underflow or overflow it.
        head += [f"{ind}st = _ST._slots", f"{ind}if len(st) != {banks.entry_depth}:"]
        head += fallback
    else:
        needs, grow = _entry_guard(items, last_spec.term)
        head += _stack_guard(needs, grow, ctx.depth, ind, fallback)
    head += fold.entry_lines(record, fallback, ind)
    if any(item.instruction.op is Op.OUT for item in items):
        head.append(f"{ind}_o = m.output")
    return name, head + body + [""], w.steps


def _assume_code_base(record: _FoldRecord, gf: int, cb: int) -> None:
    """Guard that a general return into a frame of *gf* reads *cb*."""
    if record.code_bases.setdefault(gf, cb) != cb:
        raise _Unfoldable


def _word_lines(words: dict, ind: str) -> list[str]:
    """Write the folded frames' deferred words."""
    return [f"{ind}_W[{address} + {word}] = {value}" for (address, word), value in words.items()]


def _tail_excepts(ind: str, returning: bool) -> list[str]:
    """The run loop's four-clause fault net around a tail handler."""
    out = [
        f"{ind}except _TT:",
        f"{ind}    return -1" if returning else f"{ind}    pass",
        f"{ind}except _ESO as _f:",
        f"{ind}    m._surface_trap(_K_SO, str(_f))",
    ]
    if returning:
        out.append(f"{ind}    return -1")
    out += [
        f"{ind}except _HE as _f:",
        f"{ind}    m._surface_trap(_K_RE, str(_f))",
    ]
    if returning:
        out.append(f"{ind}    return -1")
    out += [
        f"{ind}except _AMF as _f:",
        f"{ind}    m._surface_trap(_K_SF, str(_f))",
    ]
    if returning:
        out.append(f"{ind}    return -1")
    return out


def _emit_op(item, spec, ctx, frame: _Frame, w: _Charges, stack: _Stack, ind: str) -> None:
    """Emit one inline opcode's template in *frame*; accumulate its
    charges."""
    op = item.instruction.op
    operand = item.instruction.operand
    abs_pc = spec.start + (item.offset - spec.items[0].offset)
    body = stack.body

    if op is Op.NOOP:
        w.step()
        return

    if op in T.PUSH_CONST:
        w.step()
        w.add(Event.REGISTER_WRITE)
        stack.push(str(T.PUSH_CONST[op]))
        return
    if op in (Op.LIB, Op.LIW):
        w.step()
        w.add(Event.REGISTER_WRITE)
        stack.push(str(operand))
        return

    if op in T.LOCAL_LOAD or op is Op.LLB:
        local = T.LOCAL_LOAD.get(op, operand)
        w.step()
        if ctx.banked:
            w.add(Event.REGISTER_READ)
            w.add(Event.REGISTER_WRITE)
            if frame.words is None:
                stack.push(stack.local(ind, f"_bw[{local}]"))
            else:
                held = frame.words.get((frame.address, local))
                if held is None:
                    held = stack.local(ind, f"{frame.address}.words[{local}]")
                stack.push(held)
        else:
            w.add(Event.MEMORY_READ)
            w.add(Event.REGISTER_WRITE)
            w.hit(ctx.frames_name)
            held = frame.words.get((frame.address, 3 + local)) if frame.words else None
            if held is None:
                held = stack.local(ind, f"_W[{frame.address} + {3 + local}]")
            stack.push(held)
        return
    if op in T.LOCAL_STORE or op is Op.SLB:
        local = T.LOCAL_STORE.get(op, operand)
        w.step()
        w.add(Event.REGISTER_READ)
        value = stack.pop(ind)
        if ctx.banked:
            w.add(Event.REGISTER_WRITE)
            if frame.words is None:
                body.append(f"{ind}_bw[{local}] = {value}")
                body.append(f"{ind}_bk.dirty.add({local})")
            else:
                # A folded frame's bank is freed before the exit, so its
                # dirty set is never read.
                value = stack.held(ind, value)
                frame.words[frame.address, local] = value
                body.append(f"{ind}{frame.address}.words[{local}] = {value}")
        else:
            w.add(Event.MEMORY_WRITE)
            w.hit(ctx.frames_name)
            if frame.words is None:
                body.append(f"{ind}_W[{frame.address} + {3 + local}] = {value}")
            else:
                frame.words[frame.address, 3 + local] = stack.held(ind, value)
        return

    if op is Op.LG:
        word = 3 + operand
        region = _gf_static_region(ctx, frame.meta.module, word)
        w.step()
        w.add(Event.MEMORY_READ)
        w.add(Event.REGISTER_WRITE)
        w.hit(region)
        stack.push(stack.local(ind, f"_W[{frame.gf} + {word}]"))
        return
    if op is Op.SG:
        word = 3 + operand
        region = _gf_static_region(ctx, frame.meta.module, word)
        w.step()
        w.add(Event.REGISTER_READ)
        w.add(Event.MEMORY_WRITE)
        w.hit(region)
        body.append(f"{ind}_W[{frame.gf} + {word}] = {stack.pop(ind)}")
        return
    if op is Op.LGA:
        w.step()
        w.add(Event.REGISTER_WRITE)
        stack.push(f"(({frame.gf} + {3 + operand}) & 65535)")
        return

    if op is Op.RD:
        w.step()
        w.add(Event.REGISTER_READ)
        w.add(Event.MEMORY_READ)
        w.add(Event.REGISTER_WRITE)
        address = stack.held(ind, stack.pop(ind))
        body.append(f"{ind}_n = _RN[_IX[{address}]]")
        body.append(f"{ind}_TR[_n] = _TR.get(_n, 0) + 1")
        stack.push(stack.local(ind, f"_W[{address}]"))
        return
    if op is Op.WR:
        w.step()
        w.add(Event.REGISTER_READ, 2)
        w.add(Event.MEMORY_WRITE)
        address = stack.held(ind, stack.pop(ind))
        value = stack.pop(ind)
        body.append(f"{ind}_n = _RN[_IX[{address}]]")
        body.append(f"{ind}_TR[_n] = _TR.get(_n, 0) + 1")
        body.append(f"{ind}_W[{address}] = {value}")
        return

    if op in T.BINARY_MODULAR:
        w.step()
        w.add(Event.REGISTER_READ, 2)
        w.add(Event.REGISTER_WRITE)
        b = stack.pop(ind)
        a = stack.pop(ind)
        stack.push(f"({T.BINARY_MODULAR[op].format(a=a, b=b)})")
        return

    if op in (Op.DIV, Op.MOD):
        # Divide-by-zero traps through the interpreter: guard on the
        # divisor before committing this op's charges, with the list
        # holding both operands.
        before = stack.state()
        b = stack.pop(ind)
        a = stack.pop(ind)
        if not _is_literal(b) or int(b) == 0:
            inner = ind + "    "
            body.append(f"{ind}if {b} == 0:")
            body.extend(
                _deopt_lines(stack.flush_lines(inner, before), w, inner, abs_pc)
            )
        w.step()
        w.add(Event.REGISTER_READ, 2)
        w.add(Event.REGISTER_WRITE)
        b = stack.signed(ind, b)
        a = stack.signed(ind, a)
        q = stack.local(ind, f"abs({a}) // abs({b})")
        body.append(f"{ind}if ({a} >= 0) != ({b} >= 0): {q} = -{q}")
        if op is Op.DIV:
            stack.push(f"({q} & 65535)")
        else:
            stack.push(f"(({a} - {q} * {b}) & 65535)")
        return

    if op in T.COMPARE_SIGNED or op in T.COMPARE_RAW:
        w.step()
        w.add(Event.REGISTER_READ, 2)
        w.add(Event.REGISTER_WRITE)
        b = stack.pop(ind)
        a = stack.pop(ind)
        if op in T.COMPARE_SIGNED:
            cmp = T.COMPARE_SIGNED[op]
            b = stack.signed(ind, b)
            a = stack.signed(ind, a)
        else:
            cmp = T.COMPARE_RAW[op]
        condition = f"{a} {cmp} {b}"
        value = f"(1 if {condition} else 0)"
        stack.tests[value] = condition
        stack.push(value)
        return

    if op is Op.NEG:
        w.step()
        w.add(Event.REGISTER_READ)
        w.add(Event.REGISTER_WRITE)
        stack.push(f"((-{stack.pop(ind)}) & 65535)")
        return
    if op is Op.NOT:
        w.step()
        w.add(Event.REGISTER_READ)
        w.add(Event.REGISTER_WRITE)
        stack.push(f"({stack.pop(ind)} ^ 65535)")
        return
    if op is Op.DUP:
        w.step()
        w.add(Event.REGISTER_READ)
        w.add(Event.REGISTER_WRITE)
        a = stack.held(ind, stack.pop(ind))
        stack.push(a)
        stack.push(a)
        return
    if op is Op.POP:
        w.step()
        w.add(Event.REGISTER_READ)
        stack.drop()
        return
    if op is Op.EXCH:
        w.step()
        w.add(Event.REGISTER_READ, 2)
        w.add(Event.REGISTER_WRITE, 2)
        b = stack.pop(ind)
        a = stack.pop(ind)
        stack.push(b)
        stack.push(a)
        return
    if op is Op.OUT:
        w.step()
        w.add(Event.REGISTER_READ)
        body.append(f"{ind}_o.append({stack.signed(ind, stack.pop(ind))})")
        return

    raise AssertionError(f"no inline template for {op!r}")  # pragma: no cover


def compile_procedure(
    meta, body_bytes: bytes, base: int, machine, ctx: CompilerContext, common_ns: dict
) -> dict[int, tuple[Callable, int]] | None:
    """Compile one placed procedure; returns {abs pc -> (fn, n_steps)}.

    Returns None when the body does not re-verify (stale placement,
    replaced code): the engine then leaves those pcs to the interpreter.
    """
    report = CheckReport()
    cfg = build_cfg(body_bytes, report, meta.module, meta.name)
    if cfg is None or report.errors:
        return None
    specs = carve(cfg, base, ctx.tails)
    ns = dict(common_ns)
    lines: list[str] = []
    steps: dict[int, int] = {}
    names: dict[int, str] = {}
    for index, spec in enumerate(specs):
        site = _make_site(spec, ctx, machine, meta)
        if ctx.specs is not None:
            ctx.specs[spec.start] = (spec, meta, site)
        name, block_lines, n_steps = gen_block(spec, index, ctx, ns, machine, meta, site)
        lines.extend(block_lines)
        steps[spec.start] = n_steps
        names[spec.start] = name
    source = "\n".join(lines)
    code_obj = compile(source, f"<jit {meta.module}.{meta.name}>", "exec")
    exec(code_obj, ns)
    return {start: (ns[names[start]], steps[start]) for start in steps}
