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


def gen_block(
    spec: BlockSpec,
    index: int,
    ctx: CompilerContext,
    ns: dict,
    machine,
    meta,
) -> tuple[str, list[str], int]:
    """Generate one block function; returns (name, source lines, n_steps).

    ``n_steps`` is the maximum number of modelled steps the block can
    commit — the engine compares it against the step ceiling before
    entering the block.
    """
    name = f"_b{spec.start}"
    w = _Charges(ctx)
    body: list[str] = []
    ind = "    "

    # -- decide how far the inline run actually compiles ---------------
    emitted: list = []
    deopt_at: int | None = None
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
                deopt_at = abs_pc
                break
        if op in (Op.LG, Op.SG):
            word = 3 + item.instruction.operand  # GF_HEADER_WORDS
            if _gf_static_region(ctx, meta.module, word) is None:
                deopt_at = abs_pc
                break
        if op in (Op.RD, Op.WR) and not ctx.inline_memory:
            deopt_at = abs_pc
            break
        emitted.append(item)

    term = spec.term if deopt_at is None else "deopt"

    # -- prologue -------------------------------------------------------
    needs, grow = _entry_guard(emitted, term)
    ops = [item.instruction.op for item in emitted]
    uses_local = any(
        op in T.LOCAL_LOAD or op in T.LOCAL_STORE or op in (Op.LLB, Op.SLB)
        for op in ops
    )
    uses_gf = any(op in (Op.LG, Op.SG, Op.LGA) for op in ops)
    uses_out = Op.OUT in ops

    body.append(f"def {name}(m):")
    if needs > 0 or grow > 0:
        body.append(f"{ind}st = _ST._slots")
        if needs > 0 and grow > 0:
            guard = f"not {needs} <= len(st) <= {ctx.depth - grow}"
        elif needs > 0:
            guard = f"len(st) < {needs}"
        else:
            guard = f"len(st) > {ctx.depth - grow}"
        body.append(f"{ind}if {guard}:")
        body.append(f"{ind}    m.pc = {spec.start}")
        body.append(f"{ind}    return -2")
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
    if uses_out:
        body.append(f"{ind}_o = m.output")

    # -- inline run -----------------------------------------------------
    stack = _Stack(body)
    for item in emitted:
        _emit_op(item, spec, ctx, meta, w, stack, ind)

    # -- terminator -----------------------------------------------------
    n_steps = w.steps
    if term == "deopt":
        body.extend(_deopt_lines(stack.flush_lines(ind), w, ind, deopt_at))
    elif term == "fall":
        body.extend(stack.flush_lines(ind))
        body.extend(w.commit_lines(ind))
        body.append(f"{ind}m.pc = {spec.next_abs}")
        body.append(f"{ind}return {spec.next_abs}")
    elif term == "jump":
        w.step()
        w.add(Event.JUMP)
        n_steps += 1
        body.extend(stack.flush_lines(ind))
        body.extend(w.commit_lines(ind))
        body.append(f"{ind}m.pc = {spec.target_abs}")
        body.append(f"{ind}return {spec.target_abs}")
    elif term == "cond":
        op = spec.term_item.instruction.op
        w.step()
        w.add(Event.REGISTER_READ)  # the tested value's pop
        n_steps += 1
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
        n_steps += 1
        body.extend(stack.flush_lines(ind))
        body.extend(w.commit_lines(ind))
        body.append(f"{ind}m.pc = {spec.next_abs}")
        site = None
        if (
            op in CALL_OPS
            and ctx.fast_call is not None
            and ctx.make_site is not None
        ):
            classes = ctx.site_classes.get((meta.module, meta.name), {})
            classification = classes.get(item.offset)
            if classification in ("monomorphic", "polymorphic"):
                site = ctx.make_site(
                    op, spec.next_abs, machine._dispatch[op], item.instruction
                )
        if site is not None:
            ns[f"_s{index}"] = site
            body.append(f"{ind}try:")
            body.append(f"{ind}    return fast_call(m, _s{index})")
            body.extend(_tail_excepts(ind, returning=True))
        elif op is Op.RET and ctx.fast_return is not None:
            body.append(f"{ind}try:")
            body.append(f"{ind}    return fast_return(m)")
            body.extend(_tail_excepts(ind, returning=True))
        else:
            ns[f"_h{index}"] = machine._dispatch[op]
            ns[f"_i{index}"] = item.instruction
            body.append(f"{ind}try:")
            body.append(f"{ind}    _h{index}(_i{index}, {spec.next_abs})")
            body.extend(_tail_excepts(ind, returning=False))
            body.append(f"{ind}return -1")

    body.append("")
    return name, body, n_steps


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


def _emit_op(item, spec, ctx, meta, w: _Charges, stack: _Stack, ind: str) -> None:
    """Emit one inline opcode's template; accumulate its charges."""
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
            stack.push(stack.local(ind, f"_bw[{local}]"))
        else:
            w.add(Event.MEMORY_READ)
            w.add(Event.REGISTER_WRITE)
            w.hit(ctx.frames_name)
            stack.push(stack.local(ind, f"_W[_fa + {3 + local}]"))
        return
    if op in T.LOCAL_STORE or op is Op.SLB:
        local = T.LOCAL_STORE.get(op, operand)
        w.step()
        w.add(Event.REGISTER_READ)
        value = stack.pop(ind)
        if ctx.banked:
            w.add(Event.REGISTER_WRITE)
            body.append(f"{ind}_bw[{local}] = {value}")
            body.append(f"{ind}_bk.dirty.add({local})")
        else:
            w.add(Event.MEMORY_WRITE)
            w.hit(ctx.frames_name)
            body.append(f"{ind}_W[_fa + {3 + local}] = {value}")
        return

    if op is Op.LG:
        word = 3 + operand
        region = _gf_static_region(ctx, meta.module, word)
        w.step()
        w.add(Event.MEMORY_READ)
        w.add(Event.REGISTER_WRITE)
        w.hit(region)
        stack.push(stack.local(ind, f"_W[_gf + {word}]"))
        return
    if op is Op.SG:
        word = 3 + operand
        region = _gf_static_region(ctx, meta.module, word)
        w.step()
        w.add(Event.REGISTER_READ)
        w.add(Event.MEMORY_WRITE)
        w.hit(region)
        body.append(f"{ind}_W[_gf + {word}] = {stack.pop(ind)}")
        return
    if op is Op.LGA:
        w.step()
        w.add(Event.REGISTER_WRITE)
        stack.push(f"((_gf + {3 + operand}) & 65535)")
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
        name, block_lines, n_steps = gen_block(spec, index, ctx, ns, machine, meta)
        lines.extend(block_lines)
        steps[spec.start] = n_steps
        names[spec.start] = name
    source = "\n".join(lines)
    code_obj = compile(source, f"<jit {meta.module}.{meta.name}>", "exec")
    exec(code_obj, ns)
    return {start: (ns[names[start]], steps[start]) for start in steps}
