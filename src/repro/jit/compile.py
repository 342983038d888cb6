"""Basic-block carving and host-Python template assembly.

Each verified procedure body is carved with the checker's CFG builder
(:mod:`repro.check.cfg`), then split further at *tail* opcodes
(transfers, storage management — see :mod:`repro.jit.templates`).  The
resulting straight-line runs are compiled into one host function per
block via ``exec``: every inline opcode expands to a template that
reproduces the interpreter's exact state transition, while its meter
charges are accumulated **at compile time** and committed in a single
batched counter update.  The interpreter charges per executed
instruction and the charge schedule is purely additive, so batching at
block granularity (and at every early exit) yields bit-identical
counters at every observable point: block boundaries, deoptimizations,
traps raised by tail handlers, and step-ceiling checks.

Block protocol — a compiled function ``fn(machine)`` returns:

* ``pc >= 0`` — the block completed; ``machine.pc`` is ``pc`` (the
  engine direct-threads into the next compiled block);
* ``-1`` — a tail handler ran; the engine must re-read ``pc``,
  ``halted``, and ``yield_requested`` from the machine;
* ``-2`` — deoptimization: ``machine.pc`` names the instruction that
  needs the interpreter, and **no** charge for it (or anything after
  it) has been committed.  Guards always fire before their
  instruction's charges and mutations, so the committed meters
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

#: Namespace variable bound to each Event at exec time.
EVENT_VARS: dict[Event, str] = {
    Event.DECODE: "E_DEC",
    Event.MEMORY_READ: "E_MR",
    Event.MEMORY_WRITE: "E_MW",
    Event.REGISTER_READ: "E_RR",
    Event.REGISTER_WRITE: "E_RW",
    Event.JUMP: "E_JP",
}


@dataclass
class CompilerContext:
    """Everything block generation needs from the engine, precomputed."""

    #: Event -> cycle cost (from the machine's cost model).
    charge: dict
    #: Evaluation-stack depth limit.
    depth: int
    #: Locals live in register banks (i4-style configs).
    banked: bool
    #: Words per bank (locals beyond this index go to memory).
    bank_words: int
    #: Tail-opcode set for this configuration.
    tails: frozenset
    #: RD/WR may be inlined (full 64K store, every region writable).
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
    """Accumulates the pending (uncommitted) meter effects of a block."""

    def __init__(self, ctx: CompilerContext) -> None:
        self.ctx = ctx
        self.events: dict[str, int] = {}
        self.traffic: dict[str, int] = {}
        self.steps = 0

    def add(self, event: Event, times: int = 1) -> None:
        var = EVENT_VARS[event]
        self.events[var] = self.events.get(var, 0) + times

    def hit(self, region: str, times: int = 1) -> None:
        self.traffic[region] = self.traffic.get(region, 0) + times

    def step(self) -> None:
        self.steps += 1
        self.add(Event.DECODE)

    def commit_lines(self, indent: str, extra_jump: bool = False) -> list[str]:
        """Render the batched counter/traffic/steps update."""
        events = dict(self.events)
        if extra_jump:
            var = EVENT_VARS[Event.JUMP]
            events[var] = events.get(var, 0) + 1
        lines = []
        cycles = 0
        charge = self.ctx.charge
        by_event = {name: ev for ev, name in EVENT_VARS.items()}
        for var in sorted(events):
            times = events[var]
            if not times:
                continue
            lines.append(f"{indent}_CC[{var}] += {times}")
            cycles += charge[by_event[var]] * times
        if cycles:
            lines.append(f"{indent}_CTR.cycles += {cycles}")
        for region in sorted(self.traffic):
            times = self.traffic[region]
            lines.append(f"{indent}_TR[{region!r}] = _TR.get({region!r}, 0) + {times}")
        if self.steps:
            lines.append(f"{indent}m.steps += {self.steps}")
        return lines


def _deopt_lines(w: _Charges, indent: str, at: int) -> list[str]:
    """Commit the executed prefix and hand *at* to the interpreter."""
    lines = w.commit_lines(indent)
    lines.append(f"{indent}m.pc = {at}")
    lines.append(f"{indent}return -2")
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


def _entry_guard(
    items: list, term: str, depth: int
) -> tuple[int, int, bool]:
    """(needs, max_grow, uses_stack) over the emitted inline prefix."""
    cum = 0
    needs = 0
    grow = 0
    uses = False
    effects = [T.STACK_EFFECTS[item.instruction.op] for item in items]
    if term == "cond":
        effects.append(_COND_EFFECT)
    for n, delta in effects:
        uses = True
        if n - cum > needs:
            needs = n - cum
        cum += delta
        if cum > grow:
            grow = cum
    return needs, grow, uses


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
    needs, grow, uses_stack = _entry_guard(emitted, term, ctx.depth)
    ops = [item.instruction.op for item in emitted]
    uses_local = any(
        op in T.LOCAL_LOAD or op in T.LOCAL_STORE or op in (Op.LLB, Op.SLB)
        for op in ops
    )
    uses_gf = any(op in (Op.LG, Op.SG, Op.LGA) for op in ops)
    uses_out = Op.OUT in ops

    body.append(f"def {name}(m):")
    if uses_stack:
        body.append(f"{ind}st = _ST._slots")
        guards = []
        if needs > 0:
            guards.append(f"len(st) < {needs}")
        if grow > 0:
            guards.append(f"len(st) > {ctx.depth - grow}")
        if guards:
            body.append(f"{ind}if {' or '.join(guards)}:")
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
    for item in emitted:
        _emit_op(item, spec, ctx, meta, w, body, ind)

    # -- terminator -----------------------------------------------------
    n_steps = w.steps
    if term == "deopt":
        body.extend(_deopt_lines(w, ind, deopt_at))
    elif term == "fall":
        body.extend(w.commit_lines(ind))
        body.append(f"{ind}m.pc = {spec.next_abs}")
        body.append(f"{ind}return {spec.next_abs}")
    elif term == "jump":
        w.step()
        w.add(Event.JUMP)
        n_steps += 1
        body.extend(w.commit_lines(ind))
        body.append(f"{ind}m.pc = {spec.target_abs}")
        body.append(f"{ind}return {spec.target_abs}")
    elif term == "cond":
        op = spec.term_item.instruction.op
        w.step()
        w.add(Event.REGISTER_READ)  # the tested value's pop
        n_steps += 1
        test = "==" if T.COND_JUMPS[op] else "!="
        body.append(f"{ind}v = st.pop()")
        body.append(f"{ind}if v {test} 0:")
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
                    op,
                    spec.next_abs,
                    machine._dispatch[op],
                    item.instruction,
                    classification == "monomorphic",
                )
        if site is not None:
            ns[f"_s{index}"] = site
            body.append(f"{ind}try:")
            body.append(f"{ind}    return _fc(m, _s{index})")
            body.extend(_tail_excepts(ind, returning=True))
        elif op is Op.RET and ctx.fast_return is not None:
            body.append(f"{ind}try:")
            body.append(f"{ind}    return _fr(m)")
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


def _emit_op(item, spec, ctx, meta, w: _Charges, body: list[str], ind: str) -> None:
    """Emit one inline opcode's template; accumulate its charges."""
    op = item.instruction.op
    operand = item.instruction.operand
    abs_pc = spec.start + (item.offset - spec.items[0].offset)

    if op is Op.NOOP:
        w.step()
        return

    if op in T.PUSH_CONST:
        w.step()
        w.add(Event.REGISTER_WRITE)
        body.append(f"{ind}st.append({T.PUSH_CONST[op]})")
        return
    if op in (Op.LIB, Op.LIW):
        w.step()
        w.add(Event.REGISTER_WRITE)
        body.append(f"{ind}st.append({operand})")
        return

    if op in T.LOCAL_LOAD or op is Op.LLB:
        local = T.LOCAL_LOAD.get(op, operand)
        w.step()
        if ctx.banked:
            w.add(Event.REGISTER_READ)
            w.add(Event.REGISTER_WRITE)
            body.append(f"{ind}st.append(_bw[{local}])")
        else:
            w.add(Event.MEMORY_READ)
            w.add(Event.REGISTER_WRITE)
            w.hit(ctx.frames_name)
            body.append(f"{ind}st.append(_W[_fa + {3 + local}])")
        return
    if op in T.LOCAL_STORE or op is Op.SLB:
        local = T.LOCAL_STORE.get(op, operand)
        w.step()
        w.add(Event.REGISTER_READ)
        if ctx.banked:
            w.add(Event.REGISTER_WRITE)
            body.append(f"{ind}_bw[{local}] = st.pop()")
            body.append(f"{ind}_bk.dirty.add({local})")
        else:
            w.add(Event.MEMORY_WRITE)
            w.hit(ctx.frames_name)
            body.append(f"{ind}_W[_fa + {3 + local}] = st.pop()")
        return

    if op is Op.LG:
        word = 3 + operand
        region = _gf_static_region(ctx, meta.module, word)
        w.step()
        w.add(Event.MEMORY_READ)
        w.add(Event.REGISTER_WRITE)
        w.hit(region)
        body.append(f"{ind}st.append(_W[_gf + {word}])")
        return
    if op is Op.SG:
        word = 3 + operand
        region = _gf_static_region(ctx, meta.module, word)
        w.step()
        w.add(Event.REGISTER_READ)
        w.add(Event.MEMORY_WRITE)
        w.hit(region)
        body.append(f"{ind}_W[_gf + {word}] = st.pop()")
        return
    if op is Op.LGA:
        w.step()
        w.add(Event.REGISTER_WRITE)
        body.append(f"{ind}st.append((_gf + {3 + operand}) & 65535)")
        return

    if op is Op.RD:
        w.step()
        w.add(Event.REGISTER_READ)
        w.add(Event.MEMORY_READ)
        w.add(Event.REGISTER_WRITE)
        body.append(f"{ind}a = st.pop()")
        body.append(f"{ind}_n = _RN[_IX[a]]")
        body.append(f"{ind}_TR[_n] = _TR.get(_n, 0) + 1")
        body.append(f"{ind}st.append(_W[a])")
        return
    if op is Op.WR:
        w.step()
        w.add(Event.REGISTER_READ, 2)
        w.add(Event.MEMORY_WRITE)
        body.append(f"{ind}a = st.pop()")
        body.append(f"{ind}_n = _RN[_IX[a]]")
        body.append(f"{ind}_TR[_n] = _TR.get(_n, 0) + 1")
        body.append(f"{ind}_W[a] = st.pop()")
        return

    if op in T.BINARY_MODULAR:
        w.step()
        w.add(Event.REGISTER_READ, 2)
        w.add(Event.REGISTER_WRITE)
        expr = T.BINARY_MODULAR[op].format(a="a", b="b")
        body.append(f"{ind}b = st.pop()")
        body.append(f"{ind}a = st.pop()")
        body.append(f"{ind}st.append({expr})")
        return

    if op in (Op.DIV, Op.MOD):
        # Divide-by-zero traps through the interpreter: guard on the
        # (unpopped) divisor before committing this op's charges.
        body.append(f"{ind}if st[-1] == 0:")
        body.extend(_deopt_lines(w, ind + "    ", abs_pc))
        w.step()
        w.add(Event.REGISTER_READ, 2)
        w.add(Event.REGISTER_WRITE)
        body.append(f"{ind}b = st.pop()")
        body.append(f"{ind}a = st.pop()")
        body.append(f"{ind}if b > 32767: b -= 65536")
        body.append(f"{ind}if a > 32767: a -= 65536")
        body.append(f"{ind}q = abs(a) // abs(b)")
        body.append(f"{ind}if (a >= 0) != (b >= 0): q = -q")
        if op is Op.DIV:
            body.append(f"{ind}st.append(q & 65535)")
        else:
            body.append(f"{ind}st.append((a - q * b) & 65535)")
        return

    if op in T.COMPARE_SIGNED:
        w.step()
        w.add(Event.REGISTER_READ, 2)
        w.add(Event.REGISTER_WRITE)
        cmp = T.COMPARE_SIGNED[op]
        body.append(f"{ind}b = st.pop()")
        body.append(f"{ind}a = st.pop()")
        body.append(f"{ind}if b > 32767: b -= 65536")
        body.append(f"{ind}if a > 32767: a -= 65536")
        body.append(f"{ind}st.append(1 if a {cmp} b else 0)")
        return
    if op in T.COMPARE_RAW:
        w.step()
        w.add(Event.REGISTER_READ, 2)
        w.add(Event.REGISTER_WRITE)
        cmp = T.COMPARE_RAW[op]
        body.append(f"{ind}b = st.pop()")
        body.append(f"{ind}a = st.pop()")
        body.append(f"{ind}st.append(1 if a {cmp} b else 0)")
        return

    if op is Op.NEG:
        w.step()
        w.add(Event.REGISTER_READ)
        w.add(Event.REGISTER_WRITE)
        body.append(f"{ind}st.append((-st.pop()) & 65535)")
        return
    if op is Op.NOT:
        w.step()
        w.add(Event.REGISTER_READ)
        w.add(Event.REGISTER_WRITE)
        body.append(f"{ind}st.append(st.pop() ^ 65535)")
        return
    if op is Op.DUP:
        w.step()
        w.add(Event.REGISTER_READ)
        w.add(Event.REGISTER_WRITE)
        body.append(f"{ind}st.append(st[-1])")
        return
    if op is Op.POP:
        w.step()
        w.add(Event.REGISTER_READ)
        body.append(f"{ind}del st[-1]")
        return
    if op is Op.EXCH:
        w.step()
        w.add(Event.REGISTER_READ, 2)
        w.add(Event.REGISTER_WRITE, 2)
        body.append(f"{ind}st[-1], st[-2] = st[-2], st[-1]")
        return
    if op is Op.OUT:
        w.step()
        w.add(Event.REGISTER_READ)
        body.append(f"{ind}v = st.pop()")
        body.append(f"{ind}if v > 32767: v -= 65536")
        body.append(f"{ind}_o.append(v)")
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
