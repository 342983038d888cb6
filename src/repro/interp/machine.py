"""The machine: fetch-decode-execute over the encoding (RUN_E).

One class executes every point in the paper's design space; the
:class:`~repro.interp.machineconfig.MachineConfig` inside the program
image decides which mechanisms are live:

* linkage — how ``EFC``/``LFC``/``DFC``/``SDFC`` resolve their targets
  (wide link vectors, the Figure 1 table chain, or inline headers);
* the IFU return stack — calls push (frame, PC, CB, bank) entries and
  *defer* the memory writes of the return link and saved PC; anything
  unusual flushes those entries into the frames, restoring the exact
  section 4/5 memory representation ("an orderly fallback position");
* register banks — local-variable instructions hit the current frame's
  bank instead of memory; calls rename the stack bank (section 7.2);
* deferred allocation — a frame small enough to live entirely in its
  bank gets no memory address until a flush (or ``LLA``) forces one.

Event accounting runs through one shared
:class:`~repro.machine.costs.CycleCounter`, which derives the cycles
from the counts: memory reads/writes are counted by the
:class:`~repro.machine.memory.Memory` and
:class:`~repro.isa.program.CodeSpace`, register traffic by the
:class:`~repro.machine.evalstack.EvalStack` and
:class:`~repro.banks.bankfile.BankFile`, decodes and jumps here.  The
simple instructions' handlers count memory and register traffic
inline, exactly as those components do (:meth:`Machine._build_dispatch`).
"""

from __future__ import annotations

import operator
from collections.abc import Callable

from repro.banks.bankfile import Bank, BankFile
from repro.banks.deferred import FastFrameStack
from repro.banks.pointers import DivertStats, PointerPolicy, divert_lookup
from repro.banks.renaming import BankManager
from repro.errors import (
    AllocationError,
    DanglingFrame,
    DecodeError,
    EvalStackOverflow,
    HeapExhausted,
    InvalidContext,
    MachineHalted,
    MemoryFault,
    StepLimitExceeded,
    TrapError,
)
from repro.ifu.ifu import FAST_CALLS, FetchStats, TransferKind
from repro.ifu.returnstack import ReturnStack, ReturnStackEntry
from repro.interp.frames import (
    FRAME_GLOBAL,
    FRAME_PC,
    FRAME_RETURN_LINK,
    LOCALS_BASE,
    FrameState,
    FrameTable,
)
from repro.interp.image import ProgramImage
from repro.interp.machineconfig import ArgConvention, FrameAllocatorKind, LinkageKind
from repro.interp.traps import TRAP_CODES, TrapKind, TrapTransfer
from repro.isa.instruction import decode
from repro.isa.opcodes import Op
from repro.machine.costs import Event
from repro.machine.evalstack import EvalStack
from repro.machine.memory import WORD_MASK, to_signed, to_word
from repro.mesa.descriptor import is_descriptor
from repro.mesa.globalframe import GF_CODE_BASE, GF_HEADER_WORDS
from repro.mesa.linkage import (
    LinkageCache,
    ResolvedTarget,
    resolve_descriptor,
    resolve_direct,
    resolve_external_mesa,
    resolve_external_wide,
    resolve_local,
)


class Machine:
    """An interpreter instance over a linked program image."""

    def __init__(self, image: ProgramImage) -> None:
        self.image = image
        self.config = image.config
        self.counter = image.counter
        self.memory = image.memory
        self.code = image.code

        self.stack = EvalStack(self.config.eval_stack_depth, self.counter)
        self.frames = FrameTable()
        self.fetch = FetchStats()
        self.divert_stats = DivertStats()

        self.rstack: ReturnStack | None = None
        if self.config.use_return_stack:
            self.rstack = ReturnStack(
                self.config.return_stack_depth, self.config.return_stack_policy
            )

        self.bankfile: BankFile | None = None
        self.banks: BankManager | None = None
        if self.config.use_banks:
            self.bankfile = BankFile(
                self.config.bank_count,
                self.config.bank_words,
                self.counter,
                track_dirty=self.config.track_dirty,
            )
            self.banks = BankManager(self.bankfile, self._spill_bank, self._fill_bank)

        self.fast_frames: FastFrameStack | None = None
        if self.config.allocator is FrameAllocatorKind.FAST_STACK:
            assert image.av_heap is not None
            self.fast_frames = FastFrameStack(image.av_heap)
        #: Where a freed frame goes back: its ``free(pointer)``.
        self._frame_heap = image.first_fit if image.first_fit is not None else (
            self.fast_frames if self.fast_frames is not None else image.av_heap
        )

        # Machine registers.
        self.frame: FrameState | None = None  # LF
        self.pc: int = 0  # absolute code byte address
        self.gf: int = 0  # current global frame address
        self.cb: int = -1  # current code base (-1: fetch lazily from GF)
        self.return_context: FrameState | int | None = None

        self.halted = False
        self.steps = 0
        self.output: list[int] = []
        self.deferred_frames = 0  # frames that never got a memory address
        #: Traps dispatched over the machine's life (handled or not);
        #: the scheduler's trap-storm quota reads the per-slice delta.
        self.trap_count = 0
        #: Scheduler hooks (see repro.interp.processes).  A set
        #: ``yield_requested`` returns the run loop to its caller after
        #: the current instruction; a trap taking ``trap_count`` past
        #: ``trap_ceiling`` sets it (the trap-storm quota's stop).
        self.yield_requested = False
        self.trap_ceiling: int | None = None
        self.on_halt: Callable[["Machine"], bool] | None = None
        #: Remote XFER hook (see repro.net.shard): a callable
        #: ``stub(meta, kind, return_pc) -> bool`` consulted at the top
        #: of the shared call path.  Returning True means the call was
        #: diverted to another machine: the stub has collected the
        #: argument record (through the uncounted state-access paths, so
        #: the caller's modelled meters are untouched) and parked a
        #: request in :attr:`remote_pending`; the machine yields so the
        #: scheduler can block the calling process on the reply.
        self.remote_stub: Callable | None = None
        #: The request record the remote stub parked (consumed by the
        #: scheduler when it blocks the calling process).
        self.remote_pending: dict | None = None
        #: Trap handlers: kind -> callable(machine, kind, detail).
        self.trap_handlers: dict[TrapKind, Callable] = {}
        #: Trap contexts: kind -> procedure descriptor word.  When set,
        #: a trap is an XFER to that context (the paper's mechanism).
        self.trap_contexts: dict[TrapKind, int] = {}
        #: Observability event sink (repro.obs).  None means disabled —
        #: every instrumentation point is a single ``is None`` check, and
        #: emission never touches the modelled meters.
        self.tracer = None

        # Decode cache: pc -> the run that starts there (_decode_run).
        self._decode_cache: dict[int, tuple] = {}
        self._code_epoch = self.code.epoch
        # Call-site linkage cache (host-side; see LinkageCache): shares
        # the epoch discipline with the decode cache.
        self.linkage_cache: LinkageCache | None = (
            LinkageCache(self.counter, self.memory.traffic)
            if self.config.host_linkage_cache
            else None
        )
        # Epoch-bump subscribers: every host-side cache of code-derived
        # state registers an invalidation callback here, so the
        # code-swapping services hit them all through one hook.  The
        # linkage cache subscribes; the JIT code cache (repro.jit) does
        # too when installed.
        self._epoch_subscribers: list[Callable[[], None]] = []
        if self.linkage_cache is not None:
            self._epoch_subscribers.append(self.linkage_cache.invalidate)
        #: The largest frame whose allocation a call defers (section 7.1:
        #: its locals fit a bank); -1 when no frame's is.
        self._deferrable_frame_words = (
            self.config.bank_words + LOCALS_BASE
            if self.config.deferred_allocation and self.banks is not None
            else -1
        )
        # Built last: the call handlers hold the linkage cache.
        self._dispatch, self._simple = self._build_dispatch()
        #: Optional execution engine (repro.jit.JitEngine).  When set and
        #: active, ``run()`` and the scheduler's slices delegate to it;
        #: ``step()`` is always the interpreter (the engine's own
        #: deoptimization primitive).
        self.engine = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def start(self, module: str | None = None, proc: str | None = None, *args: int) -> None:
        """Set up the root activation of a procedure (default: the entry).

        The root frame is always materialized, with a NIL return link, so
        that the final RETURN halts the machine through the general
        scheme.  The evaluation stack starts empty: a previous run's
        results are dropped, uncounted, as a process switch-out or halt
        drops them.  A run abandoned mid-way (its step budget ran out)
        leaves return-stack entries and banks behind; they are flushed
        into their frames first, the fallback a process switch-out takes,
        so the new root's final RETURN halts instead of resuming the old
        activation.  After a halt or a switch-out nothing is left to flush.
        """
        self.stack.clear()
        if self.rstack is not None and len(self.rstack):
            self._flush_return_stack("start", self.rstack.take_all())
        if self.banks is not None:
            self.banks.flush_all()
        if module is None:
            meta = self.image.entry
        else:
            assert proc is not None
            meta = self.image.proc_meta(module, proc)
        linked = self.image.instance_of(meta.module)
        frame = FrameState(proc=meta, gf=linked.gf_address, fsi=meta.fsi)
        self._materialize(frame)
        self.memory.poke(frame.address + FRAME_RETURN_LINK, 0)  # loader write
        frame.code_base = linked.code_base

        self.frame = frame
        self.gf = linked.gf_address
        self.cb = linked.code_base
        self.pc = meta.entry_address + 1
        self.halted = False
        self.return_context = None

        if self.banks is not None:
            self.banks.begin(frame)
        self._pass_arguments(list(args), frame)
        if self.tracer is not None:
            self.tracer.emit(
                "machine.begin", meta.qualified_name, args=list(args)
            )

    def run(self, max_steps: int | None = None) -> list[int]:
        """Execute until HALT / final return; returns the result stack.

        *max_steps* is a budget for **this call**: a resumed machine
        (scheduler yield, REPL-style re-run) gets the full allowance
        again rather than a budget shrunken by steps already executed.
        ``config.step_limit`` remains the cumulative backstop over the
        machine's whole life.  Either one running out raises
        :class:`~repro.errors.StepLimitExceeded`.

        With a JIT engine installed (``repro.jit.install_jit``) and
        eligible to run — no tracer attached — execution is delegated
        to compiled blocks instead; meters and state are bit-identical
        either way.
        """
        limit = self.config.step_limit
        ceiling = limit if max_steps is None else min(limit, self.steps + max_steps)
        if self._run_until(ceiling):
            raise StepLimitExceeded(max_steps if ceiling < limit else limit)
        return self.results()

    def _run_until(self, ceiling: int) -> bool:
        """Execute until HALT, a yield, or ``steps`` reaches *ceiling*.

        The one execution primitive under :meth:`run` and the
        scheduler's time slices: compiled blocks when an engine is
        installed and active, else :meth:`_interpret`.  Returns True
        when it stopped at the budget — neither halted nor yielding —
        and raises nothing of its own: budgets are the caller's policy.
        """
        engine = self.engine
        if engine is not None and engine.active():
            return engine.run_until(ceiling)
        return self._interpret(ceiling)

    def _interpret(self, ceiling: int) -> bool:
        """The interpreter's fetch-decode-dispatch loop; see :meth:`_run_until`.

        Each decode-cache entry is a run (:meth:`_decode_run`): the
        simple instructions from a pc on, then its end, the first
        instruction that is not simple.  With no tracer attached and the
        run and its end under *ceiling*, the loop counts their DECODEs
        and steps in one update each, calls the simple handlers with
        ``pc`` set before each, then calls the end's; a fault among the
        simple ones first takes back what did not execute
        (:meth:`_take_back`), so every reader sees what single steps
        leave.  Otherwise the per-step code executes the run's first
        instruction alone: it serves :meth:`step`, tracers and runs that
        do not fit.  (A tracer attached mid-loop by a trap handler stops
        the batching at once, and sees ``machine.step`` events from the
        next call.)
        """
        cache_get = self._decode_cache.get
        code = self.code
        counts = self.counter.counts
        decode_event = Event.DECODE
        tracer = self.tracer
        trace_steps = tracer is not None and getattr(tracer, "trace_steps", False)

        while not self.halted:
            steps = self.steps
            if steps >= ceiling:
                return True
            if self._code_epoch != code.epoch:
                self.invalidate_linkage()  # clears in place; locals stay valid
            entry = cache_get(self.pc)
            if entry is None:
                entry = self._decode_run(self.pc)
            run, size, handler, instruction, next_pc = entry
            try:
                if (
                    steps + size <= ceiling
                    and self.tracer is None
                ):
                    counts[decode_event] += size
                    self.steps = steps + size
                    try:
                        for run_handler, run_instruction, run_next in run:
                            self.pc = run_next
                            run_handler(run_instruction, run_next)
                    except BaseException:
                        self._take_back(run, size)
                        raise
                else:
                    if run:
                        handler, instruction, next_pc = run[0]
                    counts[decode_event] += 1
                    self.steps = steps + 1
                    if trace_steps:
                        tracer.emit("machine.step", instruction.op.name, pc=self.pc)
                self.pc = next_pc
                handler(instruction, next_pc)
            except TrapTransfer:
                pass  # control is already in the trap context
            except EvalStackOverflow as fault:
                self._surface_trap(TrapKind.STACK_OVERFLOW, str(fault))
            except HeapExhausted as fault:
                self._surface_trap(TrapKind.RESOURCE_EXHAUSTED, str(fault))
            except (AllocationError, MemoryFault) as fault:
                self._surface_trap(TrapKind.STORAGE_FAULT, str(fault))
            if self.yield_requested:
                break
        return False

    def _decode_run(self, pc: int) -> tuple:
        """Decode the run at *pc* into the decode cache and return it:
        ``(run, size, handler, instruction, next_pc)``, where *run* holds
        ``(handler, instruction, next_pc)`` for each simple instruction
        from *pc* on, the rest describe its end (the first instruction
        whose handler is not simple) and *size* counts both.  Decoding
        ahead stops at a byte that does not decode, and the instruction
        before it ends the run: the bad byte faults when it is executed,
        as always.  Decode is still charged per executed instruction.
        """
        buffer = self.code.buffer
        dispatch = self._dispatch
        simple = self._simple
        run = []
        at = pc
        while True:
            try:
                instruction = decode(buffer, at)
            except DecodeError:
                if not run:
                    raise
                end = run.pop()
                break
            end = (dispatch[instruction.op], instruction, at + instruction.length)
            if end[0] not in simple:
                break
            run.append(end)
            at = end[2]
        entry = (tuple(run), len(run) + 1, *end)
        self._decode_cache[pc] = entry
        return entry

    def _take_back(self, run: tuple, size: int) -> None:
        """Uncount the DECODEs and steps that a batched run counted for
        the instructions after the one that faulted (``self.pc`` is that
        one's next pc), its end included."""
        executed = 1
        for _, _, after in run:
            if after == self.pc:
                break
            executed += 1
        self.counter.counts[Event.DECODE] -= size - executed
        self.steps -= size - executed

    def call(self, module: str, proc: str, *args: int) -> list[int]:
        """Convenience: start + run; returns the (signed) result values."""
        self.start(module, proc, *args)
        return self.run()

    def results(self) -> list[int]:
        """The evaluation stack as signed values (results after a halt)."""
        return [to_signed(word) for word in self.stack.contents()]

    def step(self) -> None:
        """Fetch, decode, and execute one instruction on the interpreter
        (the JIT engine's deoptimization primitive)."""
        if self.halted:
            raise MachineHalted("step() on a halted machine")
        self._interpret(self.steps + 1)

    def _surface_trap(self, kind: TrapKind, detail: str) -> None:
        """Convert a host-level fault into a modelled trap.

        Resource exhaustion and storage corruption must surface through
        the paper's own mechanism — an XFER to a trap context, a host
        handler, or a clean :class:`~repro.errors.TrapError` with exact
        (kind, pc, proc) diagnostics — never as a raw Python exception
        from deep inside an instruction handler.  If dispatching the
        trap *itself* fails (the trap context needs a frame and the
        arena is gone), the TrapError is raised directly rather than
        looping.
        """
        try:
            self.trap(kind, detail)
        except TrapTransfer:
            pass
        except (AllocationError, MemoryFault) as nested:
            raise TrapError(
                kind.value,
                f"{detail} (trap dispatch failed: {nested})",
                pc=self.pc,
                proc=self._proc_label(),
            ) from nested

    def _proc_label(self) -> str:
        frame = self.frame
        return frame.proc.qualified_name if frame is not None else ""

    def invalidate_linkage(self) -> None:
        """Drop all host-side caches of code-derived state.

        Called whenever the code space's epoch bumps, and explicitly by
        the code-swapping services (:func:`repro.interp.services.
        relocate_module`, :func:`~repro.interp.services.
        replace_procedure`) — the same "unusual event" fallback
        discipline as the IFU return stack.  Clears in place so hoisted
        references in the fused run loop stay valid.

        This is the single shared epoch-bump hook: every cache of
        code-derived state (linkage cache, JIT code cache, ...) is a
        subscriber, so a relocate/replace can never leave one of them
        stale while flushing another.
        """
        self._decode_cache.clear()
        self._code_epoch = self.code.epoch
        for invalidate in self._epoch_subscribers:
            invalidate()

    def on_epoch_bump(self, callback: Callable[[], None]) -> None:
        """Subscribe *callback* to code-space epoch bumps.

        Called (via :meth:`invalidate_linkage`) whenever the code space
        changes — module relocation, procedure replacement, segment
        growth.  Used by host-side caches keyed on code layout."""
        if callback not in self._epoch_subscribers:
            self._epoch_subscribers.append(callback)

    def attach_tracer(self, tracer) -> None:
        """Route observability events from every mechanism to *tracer*.

        Propagates the sink to the return stack, the bank file, and the
        frame allocators, and binds tracers that want the machine's
        meters as timestamps (see :mod:`repro.obs.tracer`).  Attaching
        mid-``run()`` puts the interpreter on single steps at once, and
        ``machine.step`` events start with the next ``run()``/``step()``.
        Tracing never changes the modelled meters — emission only
        *reads* the cycle counter.  A ``trace_steps`` tracer sees every
        instruction as a ``machine.step`` event (the dynamic opcode
        histogram); every tracer sees each transfer as an ``xfer.*``
        event.  An installed engine first charges what its compiled
        code left pending, so the tracer reads exact meters.
        """
        if self.engine is not None:
            self.engine.charge()
        bind = getattr(tracer, "bind", None)
        if bind is not None:
            bind(self)
        self.tracer = tracer
        if self.rstack is not None:
            self.rstack.tracer = tracer
        if self.bankfile is not None:
            self.bankfile.tracer = tracer
        if self.image.av_heap is not None:
            self.image.av_heap.tracer = tracer
        if self.image.first_fit is not None:
            self.image.first_fit.tracer = tracer

    def detach_tracer(self) -> None:
        """Disconnect the event sink everywhere (tracing fully off)."""
        self.tracer = None
        if self.rstack is not None:
            self.rstack.tracer = None
        if self.bankfile is not None:
            self.bankfile.tracer = None
        if self.image.av_heap is not None:
            self.image.av_heap.tracer = None
        if self.image.first_fit is not None:
            self.image.first_fit.tracer = None

    def report(self) -> dict:
        """Aggregate statistics for benchmark tables."""
        data: dict = {
            "steps": self.steps,
            "cycles": self.counter.cycles,
            "memory_references": self.counter.memory_references,
            "fetch": self.fetch.summary(),
            "deferred_frames": self.deferred_frames,
        }
        if self.rstack is not None:
            data["return_stack_hit_rate"] = self.rstack.stats.hit_rate
        if self.linkage_cache is not None:
            data["linkage_cache"] = self.linkage_cache.stats()
        if self.bankfile is not None:
            data["bank_overflow_rate"] = self.bankfile.stats.overflow_rate
        if self.image.av_heap is not None:
            data["alloc"] = self.image.av_heap.stats.summary()
        elif self.image.first_fit is not None:
            data["alloc"] = self.image.first_fit.stats.summary()
        return data

    # ------------------------------------------------------------------
    # Frame lifecycle
    # ------------------------------------------------------------------

    def _materialize(self, frame: FrameState) -> None:
        """Give *frame* its memory representation (idempotent).

        Allocates from the configured allocator and stores the
        globalFrame component (section 5.3: "the global frame address is
        saved in its globalFrame component").
        """
        if frame.address is not None:
            return
        words = frame.proc.frame_words
        if self.image.first_fit is not None:
            address = self.image.first_fit.allocate(words)
        elif self.fast_frames is not None:
            address, _ = self.fast_frames.allocate(words)
        else:
            assert self.image.av_heap is not None
            address = self.image.av_heap.allocate(frame.fsi, requested_words=words)
        frame.address = address
        self.memory.write(address + FRAME_GLOBAL, frame.gf)
        self.frames.by_address[address] = frame

    # ------------------------------------------------------------------
    # Bank plumbing
    # ------------------------------------------------------------------

    def _spill_bank(self, bank: Bank) -> None:
        """Write a bank's (dirty) words into its frame — the section 7.1
        overflow path.  Materializes the frame if allocation was deferred
        ("defer allocating the frame until a register bank must be
        flushed out")."""
        frame = bank.frame
        assert isinstance(frame, FrameState)
        self._materialize(frame)
        pairs = self.bankfile.spill_words(bank)
        if pairs:
            self.counter.record(Event.REGISTER_READ, len(pairs))
        base = frame.address + LOCALS_BASE
        limit = frame.proc.local_words
        for index, value in pairs:
            if index < limit:
                self.memory.write(base + index, value)

    def _fill_bank(self, bank: Bank, frame: FrameState) -> None:
        """Load a frame's first words into a bank — the underflow path."""
        assert frame.address is not None, "cannot fill from a deferred frame"
        count = min(self.config.bank_words, frame.proc.local_words)
        values = self.memory.read_block(frame.address + LOCALS_BASE, count)
        self.bankfile.fill(bank, values)
        self.counter.record(Event.REGISTER_WRITE, len(values))

    def _flush_flagged(self, frame: FrameState) -> None:
        """FLAG_FLUSH policy: leaving a flagged frame spills and releases
        its bank, so memory is authoritative while control is away."""
        if (
            self.banks is not None
            and frame.flagged
            and self.config.pointer_policy is PointerPolicy.FLAG_FLUSH
        ):
            bank = self.banks.bank_of(frame)
            if bank is not None:
                self._spill_bank(bank)
                bank.release()
                if self.banks.lbank is bank:
                    self.banks.lbank = None

    # ------------------------------------------------------------------
    # Context words and code bases
    # ------------------------------------------------------------------

    def _context_word(self, frame: FrameState) -> int:
        """The 16-bit context word denoting *frame* (materializes it)."""
        self._materialize(frame)
        return frame.address

    def _current_code_base(self) -> int:
        """The CB register, fetched lazily from the global frame."""
        if self.cb < 0:
            self.cb = self.memory.read(self.gf + GF_CODE_BASE)
            if self.frame is not None:
                self.frame.code_base = self.cb
        return self.cb

    def _code_base_of(self, frame: FrameState, cached: int = -1) -> int:
        if cached >= 0:
            return cached
        if frame.code_base >= 0:
            return frame.code_base
        cb = self.memory.read(frame.gf + GF_CODE_BASE)
        frame.code_base = cb
        return cb

    # ------------------------------------------------------------------
    # Return stack plumbing
    # ------------------------------------------------------------------

    def _flush_entry(self, victim: ReturnStackEntry, callee: FrameState) -> None:
        """Write one deferred linkage to memory (the section 6 rule):
        "the frame pointer LF goes into the returnLink component of the
        next higher frame, and the PC goes into the PC component of LF"."""
        caller = victim.frame
        assert isinstance(caller, FrameState)
        self._materialize(caller)
        self._materialize(callee)
        self.memory.write(callee.address + FRAME_RETURN_LINK, caller.address)
        cb = self._code_base_of(caller, victim.cb)
        self.memory.write(caller.address + FRAME_PC, to_word(victim.pc - cb))

    def _flush_return_stack(self, reason: str, victims: list[ReturnStackEntry]) -> None:
        """Flush *victims* (oldest first); the callee of each is the next
        victim, or the oldest surviving entry, or the running frame."""
        if not victims:
            return
        remaining = self.rstack.entries() if self.rstack is not None else ()
        for index, victim in enumerate(victims):
            if index + 1 < len(victims):
                callee = victims[index + 1].frame
            elif remaining:
                callee = remaining[0].frame
            else:
                callee = self.frame
            self._flush_entry(victim, callee)
        self.rstack.note_flush(reason, len(victims))

    # ------------------------------------------------------------------
    # Calls, returns, transfers
    # ------------------------------------------------------------------

    def _pass_arguments(self, args: list[int], callee: FrameState) -> None:
        """Apply the argument convention for an explicit argument list.

        COPY: push onto the stack; the prologue's stores do the rest.
        RENAME: the words go straight into the callee's bank (or frame) —
        they are "the first few local variables" already.
        """
        if self.config.arg_convention is ArgConvention.COPY:
            for value in args:
                self.stack.push(value)
            return
        self._install_renamed_arguments(args, callee)

    def _install_renamed_arguments(self, args: list[int], callee: FrameState) -> None:
        bank = self.banks.bank_of(callee) if self.banks is not None else None
        for index, value in enumerate(args):
            if bank is not None and index < bank.size:
                bank.words[index] = to_word(value)
                bank.dirty.add(index)
            else:
                self._materialize(callee)
                self.memory.write(callee.address + LOCALS_BASE + index, value)

    def _do_call(self, resolved: ResolvedTarget, kind: TransferKind, return_pc: int) -> None:
        """The shared call path for EFC / LFC / DFC / SDFC.

        Its per-transfer steps run inline: the IFU's fast/slow tally, the
        callee's frame, the return-stack entry and its overflow flush, or
        the general scheme's linkage writes.  What it calls is the frame
        records, the allocator, the bank manager and the memory.
        """
        meta = self.image.procs_by_entry.get(resolved.entry_address)
        if meta is None:
            raise InvalidContext(
                f"call target {resolved.entry_address:#x} is not a procedure entry"
            )
        stub = self.remote_stub
        if stub is not None and stub(meta, kind, return_pc):
            # Diverted to a remote machine: the stub consumed the
            # argument record and parked a request; nothing local — no
            # transfer charge, no frame — happens here.  ``self.pc`` is
            # already ``return_pc``, so when the reply's result words
            # are loaded onto the saved stack the process resumes as if
            # an ordinary call had just returned.
            return
        caller = self.frame
        fast = kind in FAST_CALLS
        bucket = self.fetch.fast if fast else self.fetch.slow
        bucket[kind] = bucket.get(kind, 0) + 1
        self.counter.counts[Event.FAST_TRANSFER if fast else Event.SLOW_TRANSFER] += 1

        # Collect the argument record under RENAME (the stack bank's
        # contents are about to become the callee's locals).
        args: list[int] = []
        if self.config.arg_convention is ArgConvention.RENAME:
            slots = self.stack._slots
            args = slots[:]
            slots.clear()

        # The callee's frame; its allocation is deferred when its locals
        # fit a bank (section 7.1).
        callee = FrameState(proc=meta, gf=resolved.gf_address, fsi=resolved.fsi)
        if resolved.code_base >= 0:
            callee.code_base = resolved.code_base
        if meta.frame_words > self._deferrable_frame_words:
            self._materialize(callee)

        rstack = self.rstack
        entry: ReturnStackEntry | None = None
        if caller is not None:
            if caller.flagged:
                self._flush_flagged(caller)
            if rstack is not None:
                entries = rstack._entries
                if len(entries) >= rstack.depth:
                    self._flush_return_stack("overflow", rstack.overflow_victims())
                entry = ReturnStackEntry(frame=caller, pc=return_pc, cb=self.cb)
                entries.append(entry)  # ReturnStack.push, with room made
                rstack.stats.pushes += 1
            else:
                # General scheme: save the caller's PC and write the
                # return link now (sections 4-5).
                cb = self.cb if self.cb >= 0 else self._code_base_of(caller)
                self.memory.write(caller.address + FRAME_PC, return_pc - cb)

        if self.banks is not None:
            caller_bank = self.banks.on_call(callee, arg_words=len(args))
            if entry is not None:
                entry.bank = caller_bank
        if args:
            # The renamed stack bank is the callee's Lbank now, and the
            # record fits it: the stack is no deeper than a bank.
            self.banks.lbank.words[: len(args)] = args

        if rstack is None:
            # EXTERNALCALL "stores it automatically in the returnLink
            # component of the newly allocated frame" (section 5.1).
            link = 0 if caller is None else caller.address
            self.memory.write(callee.address + FRAME_RETURN_LINK, link)

        self.return_context = caller
        self.frame = callee
        self.gf = resolved.gf_address
        self.cb = callee.code_base
        self.pc = resolved.entry_address + 1
        tracer = self.tracer
        if tracer is not None:
            tracer.emit(
                "xfer.call",
                meta.qualified_name,
                source="<start>" if caller is None else caller.proc.qualified_name,
                transfer=kind.value,
                fast=fast,
                words=meta.frame_words,
                deferred=callee.address is None,
            )

    def _resolve_external(self, lv_index: int) -> ResolvedTarget:
        linked = self.image.by_gf[self.gf]
        if self.config.linkage is LinkageKind.SIMPLE:
            return resolve_external_wide(self.memory, self.code, linked.lv, lv_index)
        return resolve_external_mesa(
            self.memory, self.code, self.image.gft, linked.lv, lv_index
        )

    def _op_return(self) -> None:
        """RET: a return-stack hit resumes the caller from IFU registers;
        a miss takes the general scheme, through the frame in memory.
        The IFU tally and the free are inline."""
        current = self.frame
        if current.retained and self.banks is not None:
            # A retained frame survives its return: make its memory image
            # current (spill its bank) so later references see live values.
            bank = self.banks.bank_of(current)
            if bank is not None:
                self._spill_bank(bank)
        entry = self.rstack.pop() if self.rstack is not None else None
        if entry is not None:
            dest = entry.frame
            assert isinstance(dest, FrameState)
            if dest.freed:
                raise DanglingFrame(f"return to freed frame {dest!r}")
            bucket, event = self.fetch.fast, Event.FAST_TRANSFER
        else:
            bucket, event = self.fetch.slow, Event.SLOW_TRANSFER
        bucket[TransferKind.RETURN] = bucket.get(TransferKind.RETURN, 0) + 1
        self.counter.counts[event] += 1
        if entry is None:
            assert current.address is not None, "a slow return needs a materialized frame"
            link = self.memory.read(current.address + FRAME_RETURN_LINK)
        if not current.retained:
            # RETURN "frees the current local frame (unless it is
            # retained)".  A deferred frame never existed in memory:
            # section 7.1's "95% of the time there will be no allocation".
            current.freed = True
            if current.address is None:
                self.deferred_frames += 1
            else:
                self.frames.by_address.pop(current.address, None)
                self._frame_heap.free(current.address)
        tracer = self.tracer
        if entry is not None:
            if self.banks is not None:
                bank = entry.bank if isinstance(entry.bank, Bank) else None
                self.banks.on_return(dest, bank)
            self.frame = dest
            self.pc = entry.pc
            self.gf = dest.gf
            self.cb = entry.cb if entry.cb >= 0 else dest.code_base
            self.return_context = None
            if tracer is not None:
                tracer.emit(
                    "xfer.return",
                    current.proc.qualified_name,
                    target=dest.proc.qualified_name,
                    fast=True,
                )
            return

        # General scheme (section 5.1): RETURN "does returnContext := NIL;
        # XFER[LF.returnLink] after freeing the current frame".
        self.return_context = None
        if link == 0:
            if self.banks is not None:
                self.banks.end()
            if tracer is not None:
                tracer.emit(
                    "xfer.return",
                    current.proc.qualified_name,
                    target="<halt>",
                    fast=False,
                )
            self._halt()
            return
        dest = self.frames.by_address.get(link)
        if dest is None:
            raise InvalidContext(f"return link {link:#x} is not a live frame")
        if dest.freed:
            raise DanglingFrame(f"return to freed frame {dest!r}")
        self._resume_from_memory(dest)
        if self.banks is not None:
            self.banks.on_return(dest, None)
        if tracer is not None:
            tracer.emit(
                "xfer.return",
                current.proc.qualified_name,
                target=dest.proc.qualified_name,
                fast=False,
            )

    def _resume_from_memory(self, dest: FrameState) -> None:
        """The general transfer-in: PC, GF and CB from the frame image.

        Section 5.3: "When transferring into a context, the code base is
        recovered from the global frame and added to the PC component to
        get the next instruction address."
        """
        pc_rel = self.memory.read(dest.address + FRAME_PC)
        gf = self.memory.read(dest.address + FRAME_GLOBAL)
        cb = self.memory.read(gf + GF_CODE_BASE)
        dest.code_base = cb
        self.frame = dest
        self.gf = gf
        self.cb = cb
        self.pc = cb + pc_rel
        if dest.stashed_stack:
            # Restore the parked residue under the incoming record.
            record = self.stack.contents()
            self.counter.record(Event.MEMORY_READ, len(dest.stashed_stack))
            self.stack.load(dest.stashed_stack + record)
            dest.stashed_stack = ()

    def _suspend_current(self, next_pc: int) -> FrameState:
        """Save the running context for a general XFER out of it."""
        current = self.frame
        self._materialize(current)
        self._flush_flagged(current)
        cb = self._current_code_base()
        self.memory.write(current.address + FRAME_PC, to_word(next_pc - cb))
        return current

    def _op_xf(self, next_pc: int) -> None:
        """The general XFER: pop a context word and transfer to it.

        "any XFER other than a simple call or return" is one of the
        unusual events, so the return stack is flushed first.
        """
        word = self.stack.pop()
        if self.rstack is not None and len(self.rstack):
            self._flush_return_stack("xfer", self.rstack.take_all())
        current = self._suspend_current(next_pc)
        self.return_context = current

        if word == 0:
            raise InvalidContext("XFER to NIL")
        if is_descriptor(word):
            if self.config.linkage is LinkageKind.SIMPLE:
                raise InvalidContext(
                    "packed descriptors do not exist under SIMPLE linkage"
                )
            resolved = resolve_descriptor(self.memory, self.code, self.image.gft, word)
            meta = self.image.procs_by_entry.get(resolved.entry_address)
            if meta is None:
                raise InvalidContext(f"descriptor {word:#06x} resolves outside any procedure")
            self.fetch.record(TransferKind.XFER, False, self.counter)
            rename = self.config.arg_convention is ArgConvention.RENAME
            args: list[int] = []
            if rename:
                args = list(self.stack.contents())
                self.stack.clear()
            callee = FrameState(proc=meta, gf=resolved.gf_address, fsi=resolved.fsi)
            callee.code_base = resolved.code_base
            self._materialize(callee)  # XFER-created contexts get no rstack entry
            if self.banks is not None:
                self.banks.on_call(callee, arg_words=len(args))
            if rename and args:
                self._install_renamed_arguments(args, callee)
            self.memory.write(callee.address + FRAME_RETURN_LINK, current.address)
            self.frame = callee
            self.gf = resolved.gf_address
            self.cb = resolved.code_base
            self.pc = resolved.first_instruction
            if self.tracer is not None:
                self.tracer.emit(
                    "xfer.xfer",
                    meta.qualified_name,
                    source=current.proc.qualified_name,
                    descriptor=True,
                )
            return

        dest = self.frames.at(word)
        if dest is None:
            raise InvalidContext(f"XFER target {word:#06x} is not a live frame")
        if dest.freed:
            raise DanglingFrame(f"XFER to freed frame {dest!r}")
        self.fetch.record(TransferKind.XFER, False, self.counter)
        self._resume_from_memory(dest)
        if self.banks is not None:
            self.banks.on_resume(dest)
        if self.tracer is not None:
            self.tracer.emit(
                "xfer.xfer",
                dest.proc.qualified_name,
                source=current.proc.qualified_name,
                descriptor=False,
            )

    def _halt(self) -> None:
        if self.on_halt is not None and self.on_halt(self):
            return
        self.halted = True
        if self.tracer is not None:
            self.tracer.emit("machine.halt")

    # ------------------------------------------------------------------
    # Traps
    # ------------------------------------------------------------------

    def trap(self, kind: TrapKind, detail: str = "") -> None:
        """Dispatch a trap: XFER to a trap context, call a host handler,
        or raise :class:`TrapError`.

        Trap contexts realize the paper's mechanism ("instructions which
        combine an XFER with other operations, to support traps"): the
        faulting context is suspended at the *following* instruction, any
        evaluation-stack residue is parked on its frame, and the trap
        context receives a one-word record (the trap code).  Its RETURN
        resumes the faulting context with the handler's result record on
        the stack — for DIVIDE_BY_ZERO that word simply takes the place
        of the quotient.
        """
        self.trap_count += 1
        if self.trap_ceiling is not None and self.trap_count > self.trap_ceiling:
            self.yield_requested = True
        if self.tracer is not None:
            self.tracer.emit(
                "xfer.trap",
                kind.value,
                pc=self.pc,
                proc=self.frame.proc.qualified_name if self.frame is not None else "<none>",
                detail=detail,
                code=TRAP_CODES[kind],
            )
        word = self.trap_contexts.get(kind)
        if word is not None:
            self._trap_xfer(word, kind)
            raise TrapTransfer()
        handler = self.trap_handlers.get(kind)
        if handler is not None:
            if self.engine is not None:
                self.engine.charge()  # the host handler may read the meters
            handler(self, kind, detail)
            return
        raise TrapError(kind.value, detail, pc=self.pc, proc=self._proc_label())

    def set_trap_context(self, kind: TrapKind, module: str, proc: str) -> None:
        """Register ``module.proc`` as the trap context for *kind*.

        The procedure should take one argument (the trap code) and
        return one result (which replaces the faulting operation's
        value).  Requires a tabled linkage (packed descriptors).
        """
        if self.config.linkage is LinkageKind.SIMPLE:
            raise InvalidContext("trap contexts need packed descriptors (I2+)")
        linked = self.image.instance_of(module)
        procedure = linked.module.procedure_named(proc)
        from repro.mesa.descriptor import ENTRIES_PER_BIAS, pack_descriptor

        slot, code = divmod(procedure.ev_index, ENTRIES_PER_BIAS)
        self.trap_contexts[kind] = pack_descriptor(linked.env_indices[slot], code)

    def _trap_xfer(self, word: int, kind: TrapKind) -> None:
        """Park the stack residue on the faulting frame and XFER."""
        leftovers = self.stack.contents()
        self.stack.clear()
        if leftovers:
            # The residue is part of the state vector; it goes to storage.
            self.counter.record(Event.MEMORY_WRITE, len(leftovers))
            self.frame.stashed_stack = leftovers
        self.stack.push(TRAP_CODES[kind])
        self.stack.push(word)
        self._op_xf(self.pc)  # self.pc is already the following instruction

    # ------------------------------------------------------------------
    # Pointer dereferencing (section 7.4)
    # ------------------------------------------------------------------

    def _deref_read(self, address: int) -> int:
        if self.banks is not None and self.config.pointer_policy is PointerPolicy.DIVERT:
            self.divert_stats.references_checked += 1
            if self.image.frame_region.contains(address):
                self.divert_stats.region_hits += 1
                hit = divert_lookup(self.bankfile, address, self._shadow_base)
                if hit is not None:
                    bank, index = hit
                    self.divert_stats.diversions += 1
                    return self.bankfile.read(bank, index)
        return self.memory.read(address)

    def _deref_write(self, address: int, value: int) -> None:
        if self.banks is not None and self.config.pointer_policy is PointerPolicy.DIVERT:
            self.divert_stats.references_checked += 1
            if self.image.frame_region.contains(address):
                self.divert_stats.region_hits += 1
                hit = divert_lookup(self.bankfile, address, self._shadow_base)
                if hit is not None:
                    bank, index = hit
                    self.divert_stats.diversions += 1
                    self.bankfile.write(bank, index, value)
                    return
        self.memory.write(address, value)

    def _shadow_base(self, bank: Bank) -> int | None:
        frame = bank.frame
        if not isinstance(frame, FrameState) or frame.address is None:
            return None
        return frame.address + LOCALS_BASE

    # ------------------------------------------------------------------
    # Dispatch table
    # ------------------------------------------------------------------

    def _build_dispatch(self) -> tuple[dict, frozenset]:
        """One handler per opcode, ``handler(instruction, next_pc)``, and
        the set of the simple instructions' handlers.

        Each simple instruction (immediates, locals, globals,
        arithmetic, comparisons, stack operations) and each jump is one
        closure over the counter's counts, the evaluation stack's slots
        and the memory's words, region index and traffic, so it runs in
        one Python call.  It makes the bounds checks and counts of
        :class:`EvalStack`, :class:`Memory` and :class:`BankFile` inline,
        in their order; when a stack check fails it calls the stack's own
        method, which raises as it always has.  Stack, bank and memory
        slots hold 16-bit words (each writer masks), so a word moves
        between them as is.  No simple handler transfers control, traps,
        yields or halts, so a straight line of them runs as one batch
        (:meth:`_interpret`).  A call handler replays a linkage-cache hit
        inline.  Call handlers and RET reach :meth:`_do_call` and
        :meth:`_op_return` through the instance, where a test may rebind
        them.
        """
        machine = self
        counts = self.counter.counts
        REG_READ, REG_WRITE = Event.REGISTER_READ, Event.REGISTER_WRITE
        MEM_READ, MEM_WRITE, JUMP = Event.MEMORY_READ, Event.MEMORY_WRITE, Event.JUMP
        stack = self.stack
        slots, depth, push, pop = stack._slots, stack.depth, stack.push, stack.pop
        memory = self.memory
        words, regions, names = memory._words, memory._index, memory._names
        traffic, size = memory.traffic, memory.size
        banks = self.banks
        code = self.code
        cache = self.linkage_cache
        cached = None if cache is None else cache._entries

        # Each of LI, LL, SL and EFC has eight short forms whose opcode
        # implies the operand, then a form that carries it (LIN1, just
        # before LI0, implies -1).  One handler serves a whole family.
        li0, ll0, sl0, efc0 = int(Op.LI0), int(Op.LL0), int(Op.SL0), int(Op.EFC0)

        def constant(i, n):
            word = i.op - li0
            if word > 7:
                word = i.operand
            word &= WORD_MASK
            if len(slots) >= depth:
                push(word)
            counts[REG_WRITE] += 1
            slots.append(word)

        def load_local(i, n):
            index = i.op - ll0
            if index > 7:
                index = i.operand
            frame = machine.frame
            bank = None if banks is None else banks.lbank
            if bank is not None and bank.frame is frame and index < bank.size:
                counts[REG_READ] += 1
                value = bank.words[index]
            else:
                if frame.address is None:
                    machine._materialize(frame)
                address = frame.address + LOCALS_BASE + index
                if not 0 <= address < size:
                    raise MemoryFault(address, size)
                counts[MEM_READ] += 1
                name = names[regions[address]]
                traffic[name] = traffic.get(name, 0) + 1
                value = words[address]
            if len(slots) >= depth:
                push(value)
            counts[REG_WRITE] += 1
            slots.append(value)

        def store_local(i, n):
            if not slots:
                pop()
            counts[REG_READ] += 1
            value = slots.pop()
            index = i.op - sl0
            if index > 7:
                index = i.operand
            frame = machine.frame
            bank = None if banks is None else banks.lbank
            if bank is not None and bank.frame is frame and index < bank.size:
                counts[REG_WRITE] += 1
                bank.words[index] = value
                bank.dirty.add(index)
                return
            if frame.address is None:
                machine._materialize(frame)
            address = frame.address + LOCALS_BASE + index
            if not 0 <= address < size:
                raise MemoryFault(address, size)
            counts[MEM_WRITE] += 1
            name = names[regions[address]]
            traffic[name] = traffic.get(name, 0) + 1
            words[address] = value

        def load_global(i, n):
            address = machine.gf + GF_HEADER_WORDS + i.operand
            if not 0 <= address < size:
                raise MemoryFault(address, size)
            counts[MEM_READ] += 1
            name = names[regions[address]]
            traffic[name] = traffic.get(name, 0) + 1
            value = words[address]
            if len(slots) >= depth:
                push(value)
            counts[REG_WRITE] += 1
            slots.append(value)

        def store_global(i, n):
            if not slots:
                pop()
            counts[REG_READ] += 1
            value = slots.pop()
            address = machine.gf + GF_HEADER_WORDS + i.operand
            if not 0 <= address < size:
                raise MemoryFault(address, size)
            counts[MEM_WRITE] += 1
            name = names[regions[address]]
            traffic[name] = traffic.get(name, 0) + 1
            words[address] = value

        def binary(fn, bias=0, mask=WORD_MASK):
            """Pop b, then a; push ``fn(a, b)``.  The 16-bit results of
            ADD, SUB and MUL do not depend on reading the operands
            signed; the comparisons read them signed by flipping the
            sign bit (*bias*), and the shifts take *b*'s low four bits."""

            def handler(i, n):
                if len(slots) < 2:
                    pop()
                    pop()
                counts[REG_READ] += 2
                counts[REG_WRITE] += 1
                b = slots.pop()
                slots[-1] = fn(slots[-1] ^ bias, (b & mask) ^ bias) & WORD_MASK

            return handler

        def unary(fn):
            def handler(i, n):
                if not slots:
                    pop()
                counts[REG_READ] += 1
                counts[REG_WRITE] += 1
                slots[-1] = fn(slots[-1]) & WORD_MASK

            return handler

        def signed(fn):
            """DIV and MOD, through the methods that carry the trap."""

            def handler(i, n):
                b = pop()
                a = pop()
                push(fn(to_signed(a), to_signed(b)))

            return handler

        def dup(i, n):
            if not slots or len(slots) >= depth:
                stack.dup()
                return
            counts[REG_READ] += 1
            counts[REG_WRITE] += 1
            slots.append(slots[-1])

        def drop(i, n):
            if not slots:
                pop()
            counts[REG_READ] += 1
            slots.pop()

        def exch(i, n):
            if len(slots) < 2:
                stack.exch()
                return
            counts[REG_READ] += 2
            counts[REG_WRITE] += 2
            slots[-1], slots[-2] = slots[-2], slots[-1]

        def jump_to(i, n):
            counts[JUMP] += 1
            machine.pc = n + i.operand

        def branch(on_zero):
            def handler(i, n):
                if not slots:
                    pop()
                counts[REG_READ] += 1
                if (slots.pop() == 0) is on_zero:
                    counts[JUMP] += 1
                    machine.pc = n + i.operand

            return handler

        def call_site(kind, resolve, lazy_cb=False):
            """A call handler.  The site is its end address plus GF (the
            same code byte run from another module instance resolves
            through another LV).  ``resolve(i, n)`` walks the tables on
            a linkage-cache miss; a hit replays what
            :meth:`LinkageCache.lookup` replays, in its order."""

            def handler(i, n):
                if lazy_cb and machine.cb < 0:
                    # Outside the cached region: whether the CB fetch
                    # charges a read depends on machine state, not on
                    # the site, so memoizing it would skew the metrics.
                    machine._current_code_base()
                if cached is None:
                    resolved = resolve(i, n)
                else:
                    key = (n, machine.gf)
                    entry = cached.get(key)
                    if entry is None:
                        cache.misses += 1
                        before = cache.begin()
                        resolved = resolve(i, n)
                        cache.store(key, resolved, before)
                    else:
                        cache.hits += 1
                        resolved, events, regions_touched = entry
                        for event, times in events:
                            counts[event] += times
                        for region, references in regions_touched:
                            traffic[region] = traffic.get(region, 0) + references
                machine._do_call(resolved, kind, n)

            return handler

        def resolve_external(i, n):
            index = i.op - efc0
            return machine._resolve_external(index if index < 8 else i.operand)

        external = call_site(TransferKind.EXTERNAL_CALL, resolve_external)
        if_zero, if_nonzero = branch(True), branch(False)

        # The simple instructions.
        simple: dict[Op, Callable] = {
            # Immediates.
            Op.LIN1: constant,
            Op.LIB: constant,
            Op.LIW: constant,
            # Locals.
            Op.LLB: load_local,
            Op.SLB: store_local,
            # Globals.
            Op.LG: load_global,
            Op.SG: store_global,
            # Arithmetic.
            Op.NEG: unary(operator.neg),
            Op.NOT: unary(operator.invert),
            Op.SHL: binary(operator.lshift, mask=15),
            Op.SHR: binary(operator.rshift, mask=15),
            # Stack manipulation.
            Op.DUP: dup,
            Op.POP: drop,
            Op.EXCH: exch,
        }
        for op, fn in (
            (Op.ADD, operator.add), (Op.SUB, operator.sub), (Op.MUL, operator.mul),
            (Op.AND, operator.and_), (Op.OR, operator.or_), (Op.XOR, operator.xor),
        ):
            simple[op] = binary(fn)
        # Comparisons (signed).
        for op, fn in (
            (Op.EQ, operator.eq), (Op.NE, operator.ne), (Op.LT, operator.lt),
            (Op.LE, operator.le), (Op.GT, operator.gt), (Op.GE, operator.ge),
        ):
            simple[op] = binary(fn, bias=0x8000)
        for index in range(8):
            simple[Op(li0 + index)] = constant
            simple[Op(ll0 + index)] = load_local
            simple[Op(sl0 + index)] = store_local

        table: dict[Op, Callable] = {
            **simple,
            Op.NOOP: lambda i, n: None,
            Op.HALT: lambda i, n: machine._halt(),
            Op.BRK: lambda i, n: machine.trap(TrapKind.BREAKPOINT),
            # Locals.
            Op.LLA: self._op_lla,
            # Globals.
            Op.LGA: lambda i, n: push(machine.gf + GF_HEADER_WORDS + i.operand),
            # Indirect.
            Op.RD: lambda i, n: push(machine._deref_read(pop())),
            Op.WR: self._op_wr,
            # Arithmetic.
            Op.DIV: signed(self._signed_div),
            Op.MOD: signed(self._signed_mod),
            # Jumps.
            Op.JB: jump_to,
            Op.JW: jump_to,
            Op.JZB: if_zero,
            Op.JZW: if_zero,
            Op.JNZB: if_nonzero,
            Op.JNZW: if_nonzero,
            # Transfers.
            Op.EFCB: external,
            Op.LFC: call_site(
                TransferKind.LOCAL_CALL,
                lambda i, n: resolve_local(memory, code, machine.gf, machine.cb, i.operand),
                lazy_cb=True,
            ),
            Op.DFC: call_site(
                TransferKind.DIRECT_CALL, lambda i, n: resolve_direct(code, i.operand)
            ),
            Op.SDFC: call_site(
                TransferKind.SHORT_DIRECT_CALL, lambda i, n: resolve_direct(code, n + i.operand)
            ),
            Op.RET: lambda i, n: machine._op_return(),
            Op.XF: lambda i, n: machine._op_xf(n),
            Op.LRC: self._op_lrc,
            Op.LLC: lambda i, n: push(machine._context_word(machine.frame)),
            Op.YIELD: self._op_yield,
            Op.OUT: lambda i, n: machine.output.append(to_signed(pop())),
            # Storage management (section 4).
            Op.RETAIN: self._op_retain,
            Op.ALOC: lambda i, n: push(machine._allocate_record(pop())),
            Op.FREE: lambda i, n: machine._op_free(pop()),
        }
        for index in range(8):
            table[Op(efc0 + index)] = external
        return table, frozenset(simple.values())

    # -- small handlers -------------------------------------------------------

    def _signed_div(self, a: int, b: int) -> int:
        if b == 0:
            self.trap(TrapKind.DIVIDE_BY_ZERO)
            return 0
        quotient = abs(a) // abs(b)
        return quotient if (a >= 0) == (b >= 0) else -quotient

    def _signed_mod(self, a: int, b: int) -> int:
        if b == 0:
            self.trap(TrapKind.DIVIDE_BY_ZERO)
            return 0
        return a - self._signed_div(a, b) * b

    def _op_wr(self, instruction, next_pc: int) -> None:
        address = self.stack.pop()
        value = self.stack.pop()
        self._deref_write(address, value)

    def _op_lla(self, instruction, next_pc: int) -> None:
        """Take the address of a local (section 7.4).

        Under AVOID this is outlawed; otherwise it materializes the frame
        (C1: "this operation can do the allocation") and, under
        FLAG_FLUSH, flags the frame for flush-on-leave (C2).
        """
        if self.config.use_banks and self.config.pointer_policy is PointerPolicy.AVOID:
            self.trap(TrapKind.POINTER_TO_LOCAL, "pointers to locals are outlawed")
            return
        frame = self.frame
        self._materialize(frame)
        if self.config.pointer_policy is PointerPolicy.FLAG_FLUSH:
            frame.flagged = True
        self.stack.push(frame.address + LOCALS_BASE + instruction.operand)

    def _op_lrc(self, instruction, next_pc: int) -> None:
        rc = self.return_context
        if rc is None:
            self.stack.push(0)
        elif isinstance(rc, FrameState):
            self.stack.push(self._context_word(rc))
        else:
            self.stack.push(rc)

    def _op_yield(self, instruction, next_pc: int) -> None:
        """Request a process switch; a scheduler (if any) acts on it."""
        self.yield_requested = True

    def _op_retain(self, instruction, next_pc: int) -> None:
        """Mark the running frame retained (section 4): its RETURN will
        not free it, and "other methods ... are needed to determine when
        a retained frame can be safely freed" — here, an explicit FREE.

        The frame is materialized and flagged so its memory image stays
        current whenever control is elsewhere (the retained frame's whole
        point is to be referenced from outside its activation).
        """
        frame = self.frame
        self._materialize(frame)
        frame.retained = True
        frame.flagged = True  # flush-on-leave keeps the image current
        if self.config.pointer_policy is PointerPolicy.AVOID and self.config.use_banks:
            # Retention implies outside references; AVOID forbids them.
            self.trap(TrapKind.POINTER_TO_LOCAL, "RETAIN under the AVOID policy")

    def _allocate_record(self, words: int) -> int:
        """ALOC: a long argument record, "treated like local frames for
        the purposes of allocation" (section 4) — same heap, one
        reference, freed by its receiver with FREE."""
        if words <= 0:
            raise InvalidContext(f"record of {words} words")
        if self.image.first_fit is not None:
            return self.image.first_fit.allocate(words)
        assert self.image.av_heap is not None
        return self.image.av_heap.allocate_words(words)

    def _op_free(self, pointer: int) -> None:
        """FREE: release a record or a retained frame by pointer."""
        frame = self.frames.at(pointer)
        if frame is not None:
            if frame is self.frame:
                raise InvalidContext("FREE of the running frame")
            if frame.freed:
                raise DanglingFrame(f"FREE of already-freed frame {frame!r}")
            if self.banks is not None:
                self.banks.release_frame_bank(frame)
            frame.retained = False
            frame.freed = True
            self.frames.forget(frame)
            self._frame_heap.free(pointer)
            return
        if self.image.first_fit is not None:
            self.image.first_fit.free(pointer)
            return
        assert self.image.av_heap is not None
        self.image.av_heap.free(pointer)
