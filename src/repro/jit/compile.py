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

One generator, :func:`gen_block`, emits every block function.  A block
that ends at a seeded monomorphic call to a straight-line callee grows
into a *superblock* (planned by :func:`plan_superblock` from the
recorded specs and seeded cells): the same templates, ``_Stack`` and
``_Charges`` carry on through the call transition, the callee's body,
the return transition and the caller's continuation.  How the callee's
frame is folded, and whether a nest can fold at all, is its *nest*'s
(:meth:`repro.jit.calls.Fold.nest`): a heap nest on i1–i3, a bank nest
on i4.  A plain block's nest (:class:`_Nest`) binds its own frame and
deopts; a superblock's guards all run at entry, and a refused one
tail-calls the unspliced block.

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
                term, target = "tail", None
            elif op in T.COND_JUMPS or op in T.UNCOND_JUMPS:
                # Jumps always terminate their CFG block.
                term = "cond" if op in T.COND_JUMPS else "jump"
                target = base + item.target()
            else:
                run.append(item)
                continue
            specs.append(BlockSpec(base + start, run, term, item, base + following, target))
            run = []
            start = following
        if run:
            specs.append(BlockSpec(base + start, run, "fall", None, base + block.end))
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

    def count(self, charges: dict, traffic: dict) -> None:
        """Add a static vector: *charges* and its *traffic*."""
        for event, times in charges.items():
            self.add(event, times)
        for region, times in traffic.items():
            self.hit(region, times)

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


def _local(item) -> int | None:
    """The local a load or store of a local names; None for other ops."""
    op = item.instruction.op
    if op in (Op.LLB, Op.SLB):
        return item.instruction.operand
    return T.LOCAL_LOAD.get(op, T.LOCAL_STORE.get(op))


def _inline_prefix(spec: BlockSpec, ctx: CompilerContext, meta) -> tuple[list, int | None]:
    """The items of *spec* that compile inline, and the pc of the first
    one that must deopt instead (None: the whole run compiles)."""
    emitted: list = []
    for item in spec.items:
        op = item.instruction.op
        abs_pc = spec.start + (item.offset - spec.items[0].offset)
        local = _local(item)
        if ctx.banked and local is not None and local >= ctx.bank_words:
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


class _Frame:
    """Where an activation's locals and globals are while a block runs it.

    A block's own frame is the running one: its locals are at ``_fa``,
    or on a banked machine in its Lbank's words (``_bw``), its stores
    write through, and its *gf* is ``_gf`` or the constant a superblock
    guards.  A frame a superblock folds is its nest's
    (:mod:`repro.jit.calls`), which holds the frame's locals its own way
    behind the same :meth:`load` and :meth:`store`.
    """

    address = "_fa"

    def __init__(self, meta, gf: str, banked: bool, cb: int = -1) -> None:
        self.meta = meta
        self.gf = gf
        self.banked = banked
        #: The CB register's value while the frame runs, where known.
        self.cb = cb

    def load(self, local: int, stack: _Stack, ind: str) -> str:
        """The value of *local*, read at this program point."""
        if self.banked:
            return stack.local(ind, f"_bw[{local}]")
        return stack.local(ind, f"_W[_fa + {3 + local}]")

    def store(self, local: int, value: str, stack: _Stack, ind: str) -> None:
        """Store *value* in *local*."""
        if self.banked:
            stack.body.append(f"{ind}_bw[{local}] = {value}")
            stack.body.append(f"{ind}_bk.dirty.add({local})")
        else:
            stack.body.append(f"{ind}_W[_fa + {3 + local}] = {value}")


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


class _Unfoldable(Exception):
    """Raised by a superblock's nest that no entry could pass: the
    superblock is not built."""


class _Nest:
    """The frames a block function runs and the guards it enters by, as
    :func:`gen_block` asks for them.

    This one is a plain block's: it binds its own frame from the
    registers, and a refused guard deopts at the block's start.  A
    superblock's nest (:meth:`repro.jit.calls.Fold.nest`) also folds each
    spliced call's frame, and holds those frames, their guards and their
    refusals itself: ``call(site, cell, frame, stack, w, ind)`` returns
    the callee's frame and the call's lines, ``ret(frame, w, ind)`` the
    return's, each counting its charges in *w*.  :meth:`exit_lines` may
    raise :class:`_Unfoldable`; every guard runs before any charge or
    mutation, and a refused one runs :meth:`fallback`.
    """

    prefix = "_b"

    def __init__(self, ctx: CompilerContext, top: _Frame, start: int = -1) -> None:
        self.ctx = ctx
        #: The block's own frame, which runs first and last.
        self.top = top
        self.start = start

    def fallback(self, ind: str) -> list[str]:
        return [f"{ind}    m.pc = {self.start}", f"{ind}    return -2"]

    def guard_lines(self, needs: int, grow: int, ind: str) -> list[str]:
        """The entry check that the list holds the *needs* words the
        block reads and has room for the *grow* it pushes."""
        if needs <= 0 and grow <= 0:
            return []
        room = self.ctx.depth - grow
        if needs > 0 and grow > 0:
            guard = f"not {needs} <= len(st) <= {room}"
        elif needs > 0:
            guard = f"len(st) < {needs}"
        else:
            guard = f"len(st) > {room}"
        return [f"{ind}st = _ST._slots", f"{ind}if {guard}:"] + self.fallback(ind)

    def entry_lines(self, items: list, ind: str) -> list[str]:
        """Bind the registers the block's *items* read."""
        lines = []
        if any(_local(item) is not None for item in items):
            if self.ctx.banked:
                lines.append(f"{ind}_bk = _BKS.lbank")
                lines.append(f"{ind}if _bk is None or _bk.frame is not m.frame:")
                lines += self.fallback(ind)
                lines.append(f"{ind}_bw = _bk.words")
            else:
                lines.append(f"{ind}_fa = m.frame.address")
        if any(item.instruction.op in (Op.LG, Op.SG, Op.LGA) for item in items):
            lines.append(f"{ind}_gf = m.gf")
        return lines

    def memory_lines(self, ind: str) -> list[str]:
        """What must reach memory before an RD or WR."""
        return []

    def exit_lines(self, ind: str) -> list[str]:
        """The nest's net effects, written before the exit."""
        return []


def gen_block(
    parts: list, ctx: CompilerContext, ns: dict, machine, tag, nest: _Nest | None = None
) -> tuple[str, list[str], int] | None:
    """Generate one block function over *parts*; returns (name, source
    lines, n_steps), or None when *nest* refuses the superblock.

    A plain block is one part, a run ``(spec, meta, site)`` (*site* is
    the CallSite of a terminating call), under a plain :class:`_Nest`;
    where its inline prefix stops short, it deopts there.  A superblock
    carries on through each spliced call (:class:`_Splice`), its callee's
    body and the caller's continuation under *nest*, which renders their
    transitions: the templates, :class:`_Stack` and :class:`_Charges`
    run on across them, and the one exit counts them all.  Every guard
    runs first.  ``n_steps`` is the most modelled steps the function can
    commit — the engine compares it against the step ceiling before
    entering it.  The terminator's names are bound in *ns* under *tag*.
    """
    spec, meta, site = parts[0]
    if nest is None:
        nest = _Nest(ctx, _Frame(meta, "_gf", ctx.banked), spec.start)
    ind = "    "
    w = _Charges(ctx)
    body: list[str] = []
    stack = _Stack(body)
    items: list = []
    deopt_at = None

    def run(parts: list, frame: _Frame) -> None:
        nonlocal deopt_at
        for part in parts:
            if isinstance(part, _Splice):
                callee, lines = nest.call(part.site, part.cell, frame, stack, w, ind)
                body.extend(lines)
                run(part.body, callee)
                body.extend(nest.ret(callee, w, ind))
                continue
            spec, meta, _site = part
            emitted, deopt_at = _inline_prefix(spec, ctx, meta)
            for item in emitted:
                if item.instruction.op in (Op.RD, Op.WR):
                    body.extend(nest.memory_lines(ind))
                _emit_op(item, spec, ctx, frame, w, stack, ind)
            items.extend(emitted)

    try:
        run(parts, nest.top)
        body.extend(nest.exit_lines(ind))
    except _Unfoldable:
        return None
    last, _meta, site = parts[-1]
    if deopt_at is None:
        term = last.term
        body.extend(_terminator(last, site, tag, ctx, ns, machine, w, stack, ind))
    else:
        term = "deopt"
        body.extend(_deopt_lines(stack.flush_lines(ind), w, ind, deopt_at))
    name = f"{nest.prefix}{spec.start}"
    head = [f"def {name}(m):"]
    head += nest.guard_lines(*_entry_guard(items, term), ind)
    head += nest.entry_lines(items, ind)
    if any(item.instruction.op is Op.OUT for item in items):
        head.append(f"{ind}_o = m.output")
    return name, head + body + [""], w.steps


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
        ``(spec, meta, site)`` and splices, ending at a run whose
        terminator is the superblock's own."""
        part = self._entry(start)
        spec, meta, site = part
        parts: list = [part]
        if _inline_prefix(spec, self.ctx, meta)[1] is not None:
            return parts  # the block deopts before its call
        steps = _spec_steps(spec)
        active = (meta.entry_address + 1,)
        while spec.term == "tail" and spec.term_item.instruction.op in CALL_OPS:
            splice = self._splice(site, gf, None, active, SUPERBLOCK_STEPS - steps)
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
            parts += [splice, following]
            steps += cost
        return parts

    def _splice(self, site, gf: int, caller, active: tuple, budget: int) -> _Splice | None:
        """The splice of *site*'s call under caller *gf*, made in the body
        of the spliced *caller* cell (None: in the superblock's own
        frame), or None: the site is polymorphic or unseeded there, the
        fold refuses the cell, the callee is recursive, or its body is not
        straight-line up to its RET within *budget*."""
        if site is None or not site.monomorphic:
            return None
        cell = site.cells.get(gf)
        if cell is None or not self.ctx.fold.splices(site, cell, caller):
            return None
        entry = cell.first_instruction
        if entry in active:
            return None
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
            body.append(found)
            steps += _spec_steps(spec)
            if steps > budget:
                return None
            if spec.term_item.instruction.op is Op.RET:
                return _Splice(site, cell, body, steps)
            nested = self._splice(inner, cell.gf_address, cell, active, budget - steps)
            if nested is None:
                return None
            body.append(nested)
            steps += nested.steps
            start = spec.next_abs


def plan_superblock(start: int, gf: int, ctx: CompilerContext) -> tuple[list, set]:
    """(parts, consulted block starts) of the superblock at *start*
    under *gf*; one part means nothing splices."""
    planner = _Planner(ctx)
    parts = planner.top(start, gf)
    return parts, planner.consulted


def _tail_excepts(ind: str, returning: bool) -> list[str]:
    """The run loop's four-clause fault net around a tail handler."""
    after = [f"{ind}    return -1"] if returning else []
    out = [f"{ind}except _TT:", f"{ind}    return -1" if returning else f"{ind}    pass"]
    for error, kind in (("_ESO", "_K_SO"), ("_HE", "_K_RE"), ("_AMF", "_K_SF")):
        out += [f"{ind}except {error} as _f:", f"{ind}    m._surface_trap({kind}, str(_f))", *after]
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
        w.step()
        w.add(Event.REGISTER_WRITE)
        if ctx.banked:
            w.add(Event.REGISTER_READ)
        else:
            w.add(Event.MEMORY_READ)
            w.hit(ctx.frames_name)
        stack.push(frame.load(_local(item), stack, ind))
        return
    if op in T.LOCAL_STORE or op is Op.SLB:
        w.step()
        w.add(Event.REGISTER_READ)
        if ctx.banked:
            w.add(Event.REGISTER_WRITE)
        else:
            w.add(Event.MEMORY_WRITE)
            w.hit(ctx.frames_name)
        frame.store(_local(item), stack.pop(ind), stack, ind)
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
        part = (spec, meta, _make_site(spec, ctx, machine, meta))
        if ctx.specs is not None:
            ctx.specs[spec.start] = part
        name, block_lines, n_steps = gen_block([part], ctx, ns, machine, index)
        lines.extend(block_lines)
        steps[spec.start] = n_steps
        names[spec.start] = name
    source = "\n".join(lines)
    code_obj = compile(source, f"<jit {meta.module}.{meta.name}>", "exec")
    exec(code_obj, ns)
    return {start: (ns[names[start]], steps[start]) for start in steps}
