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
:class:`~repro.machine.costs.CycleCounter`: memory reads/writes are
charged by the :class:`~repro.machine.memory.Memory` and
:class:`~repro.isa.program.CodeSpace`, register traffic by the
:class:`~repro.machine.evalstack.EvalStack` and
:class:`~repro.banks.bankfile.BankFile`, decodes and jumps here.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.banks.bankfile import Bank, BankFile
from repro.banks.deferred import FastFrameStack
from repro.banks.pointers import DivertStats, PointerPolicy, divert_lookup
from repro.banks.renaming import BankManager
from repro.errors import (
    AllocationError,
    DanglingFrame,
    EvalStackOverflow,
    HeapExhausted,
    InvalidContext,
    MachineHalted,
    MemoryFault,
    StepLimitExceeded,
    TrapError,
)
from repro.ifu.ifu import FetchStats, TransferKind
from repro.ifu.returnstack import ReturnStack, ReturnStackEntry
from repro.interp.frames import (
    FRAME_GLOBAL,
    FRAME_PC,
    FRAME_RETURN_LINK,
    LOCALS_BASE,
    FrameState,
    FrameTable,
    ProcMeta,
)
from repro.interp.image import ProgramImage
from repro.interp.machineconfig import ArgConvention, FrameAllocatorKind, LinkageKind
from repro.interp.traps import TRAP_CODES, TrapKind, TrapTransfer
from repro.isa.instruction import decode
from repro.isa.opcodes import Op
from repro.machine.costs import Event
from repro.machine.evalstack import EvalStack
from repro.machine.memory import to_signed, to_word
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

        self._dispatch = self._build_dispatch()
        # Decode cache: programs are static between code-space epochs, so
        # each pc decodes once.  Entries are (instruction, handler,
        # next_pc) triples so the run loop skips the dispatch-table
        # lookup and length arithmetic too.  (A
        # simulation shortcut, not machine state: decode is still charged
        # per executed instruction.)
        self._decode_cache: dict[int, tuple] = {}
        self._code_epoch = self.code.epoch
        # Call-site linkage cache (host-side; see LinkageCache): shares
        # the epoch discipline with the decode cache.
        self.linkage_cache: LinkageCache | None = (
            LinkageCache(self.counter) if self.config.host_linkage_cache else None
        )
        # Epoch-bump subscribers: every host-side cache of code-derived
        # state registers an invalidation callback here, so the
        # code-swapping services hit them all through one hook.  The
        # linkage cache subscribes; the JIT code cache (repro.jit) does
        # too when installed.
        self._epoch_subscribers: list[Callable[[], None]] = []
        if self.linkage_cache is not None:
            self._epoch_subscribers.append(self.linkage_cache.invalidate)
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
        drops them.
        """
        self.stack.clear()
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

        The dispatch table, decode cache, and counter are hoisted into
        locals.  (A tracer attached mid-loop by a trap handler takes
        effect at the next call.)
        """
        # The code buffer is a live bytearray (growing it preserves
        # identity), so holding it is safe; epoch changes are still
        # checked every iteration.  The per-step DECODE charge is
        # applied directly to the counter's counts/cycles through its bound
        # charge table — exactly what CycleCounter.record does, minus the
        # call per step.
        dispatch = self._dispatch
        cache = self._decode_cache
        cache_get = cache.get
        buffer = self.code.buffer
        code = self.code
        counter = self.counter
        counts = counter.counts
        decode_event = Event.DECODE
        decode_charge = counter.charges[decode_event]
        tracer = self.tracer
        trace_steps = tracer is not None and getattr(tracer, "trace_steps", False)

        while not self.halted:
            if self.steps >= ceiling:
                return True
            if self._code_epoch != code.epoch:
                self.invalidate_linkage()  # clears in place; locals stay valid
            pc = self.pc
            pair = cache_get(pc)
            if pair is None:
                instruction = decode(buffer, pc)
                pair = (instruction, dispatch[instruction.op], pc + instruction.length)
                cache[pc] = pair
            instruction, handler, next_pc = pair
            counts[decode_event] += 1
            counter.cycles += decode_charge
            self.steps += 1
            if trace_steps:
                tracer.emit("machine.step", instruction.op.name, pc=pc)
            self.pc = next_pc
            try:
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
        mid-``run()`` takes effect on the next ``run()``/``step()``.
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
            frame.address = self.image.first_fit.allocate(words)
        elif self.fast_frames is not None:
            frame.address, _ = self.fast_frames.allocate(words)
        else:
            assert self.image.av_heap is not None
            frame.address = self.image.av_heap.allocate(frame.fsi, requested_words=words)
        self.memory.write(frame.address + FRAME_GLOBAL, frame.gf)
        self.frames.register(frame)

    def _new_frame(self, meta: ProcMeta, resolved: ResolvedTarget) -> FrameState:
        """Create the callee's frame, deferring allocation when allowed."""
        frame = FrameState(proc=meta, gf=resolved.gf_address, fsi=resolved.fsi)
        if resolved.code_base >= 0:
            frame.code_base = resolved.code_base
        deferrable = (
            self.config.deferred_allocation
            and self.banks is not None
            and meta.local_words <= self.config.bank_words
        )
        if not deferrable:
            self._materialize(frame)
        return frame

    def _free_frame(self, frame: FrameState) -> None:
        """RETURN's free: "it frees the current local frame (unless it is
        retained)".  A deferred frame simply never existed in memory —
        section 7.1's "95% of the time there will be no allocation at
        all"."""
        if frame.retained:
            return
        frame.freed = True
        if frame.address is None:
            self.deferred_frames += 1
            return
        self.frames.forget(frame)
        if self.image.first_fit is not None:
            self.image.first_fit.free(frame.address)
        elif self.fast_frames is not None:
            self.fast_frames.free(frame.address)
        else:
            assert self.image.av_heap is not None
            self.image.av_heap.free(frame.address)

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
    # Local variable access (the hot path of section 5 / 7)
    # ------------------------------------------------------------------

    def _current_bank(self) -> Bank | None:
        if self.banks is None:
            return None
        bank = self.banks.lbank
        if bank is not None and bank.frame is self.frame:
            return bank
        return None

    def _local_read(self, index: int) -> int:
        bank = self._current_bank()
        if bank is not None and index < bank.size:
            return self.bankfile.read(bank, index)
        frame = self.frame
        if frame.address is None:
            self._materialize(frame)
        return self.memory.read(frame.address + LOCALS_BASE + index)

    def _local_write(self, index: int, value: int) -> None:
        bank = self._current_bank()
        if bank is not None and index < bank.size:
            self.bankfile.write(bank, index, value)
            return
        frame = self.frame
        if frame.address is None:
            self._materialize(frame)
        self.memory.write(frame.address + LOCALS_BASE + index, value)

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

    def _ensure_return_stack_room(self) -> None:
        if self.rstack is not None and self.rstack.full:
            victims = self.rstack.overflow_victims()
            self._flush_return_stack("overflow", victims)

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
        """The shared call path for EFC / LFC / DFC / SDFC."""
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
        fast = FetchStats.call_is_fast(kind)
        self.fetch.record(kind, fast, self.counter)

        # Collect the argument record under RENAME (the stack bank's
        # contents are about to become the callee's locals).
        rename = self.config.arg_convention is ArgConvention.RENAME
        args: list[int] = []
        if rename:
            args = list(self.stack.contents())
            self.stack.clear()

        callee = self._new_frame(meta, resolved)

        entry: ReturnStackEntry | None = None
        if caller is not None:
            self._flush_flagged(caller)
            if self.rstack is not None:
                self._ensure_return_stack_room()
                entry = ReturnStackEntry(frame=caller, pc=return_pc, cb=self.cb)
                self.rstack.push(entry)
            else:
                # General scheme: save the caller's PC and write the
                # return link now (sections 4-5).
                cb = self._code_base_of(caller, self.cb)
                self.memory.write(caller.address + FRAME_PC, to_word(return_pc - cb))

        if self.banks is not None:
            caller_bank = self.banks.on_call(callee, arg_words=len(args))
            if entry is not None:
                entry.bank = caller_bank

        if rename and args:
            self._install_renamed_arguments(args, callee)

        if self.rstack is None:
            # EXTERNALCALL "stores it automatically in the returnLink
            # component of the newly allocated frame" (section 5.1).
            link = 0 if caller is None else self._context_word(caller)
            self.memory.write(callee.address + FRAME_RETURN_LINK, link)

        self.return_context = caller
        self.frame = callee
        self.gf = resolved.gf_address
        self.cb = resolved.code_base if resolved.code_base >= 0 else -1
        if self.cb < 0 and callee.code_base >= 0:
            self.cb = callee.code_base
        self.pc = resolved.first_instruction
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

    def _op_external_call(self, lv_index: int, next_pc: int) -> None:
        # The call site is identified by its end address (next_pc) plus
        # the current global frame: the same code byte executed from a
        # different module instance resolves through a different LV.
        cache = self.linkage_cache
        if cache is None:
            resolved = self._resolve_external(lv_index)
        else:
            key = (next_pc, self.gf)
            resolved = cache.lookup(key)
            if resolved is None:
                before = cache.begin()
                resolved = self._resolve_external(lv_index)
                cache.store(key, resolved, before)
        self._do_call(resolved, TransferKind.EXTERNAL_CALL, next_pc)

    def _op_local_call(self, ev_index: int, next_pc: int) -> None:
        # The lazy CB fetch stays *outside* the cached region: whether it
        # charges a read depends on machine state (was CB discovered?),
        # not on the call site, so memoizing it would skew the metrics.
        code_base = self._current_code_base()
        cache = self.linkage_cache
        if cache is None:
            resolved = resolve_local(
                self.memory, self.code, self.gf, code_base, ev_index
            )
        else:
            key = (next_pc, self.gf)
            resolved = cache.lookup(key)
            if resolved is None:
                before = cache.begin()
                resolved = resolve_local(
                    self.memory, self.code, self.gf, code_base, ev_index
                )
                cache.store(key, resolved, before)
        self._do_call(resolved, TransferKind.LOCAL_CALL, next_pc)

    def _op_direct_call(self, target: int, next_pc: int, short: bool) -> None:
        cache = self.linkage_cache
        if cache is None:
            resolved = resolve_direct(self.code, target)
        else:
            key = (next_pc, self.gf)
            resolved = cache.lookup(key)
            if resolved is None:
                before = cache.begin()
                resolved = resolve_direct(self.code, target)
                cache.store(key, resolved, before)
        kind = TransferKind.SHORT_DIRECT_CALL if short else TransferKind.DIRECT_CALL
        self._do_call(resolved, kind, next_pc)

    def _prepare_return_of(self, current: FrameState) -> None:
        """A retained frame survives its return: make its memory image
        current (spill its bank) so later references see live values."""
        if current.retained and self.banks is not None:
            bank = self.banks.bank_of(current)
            if bank is not None:
                self._spill_bank(bank)

    def _op_return(self) -> None:
        current = self.frame
        self._prepare_return_of(current)
        entry = self.rstack.pop() if self.rstack is not None else None
        if entry is not None:
            dest = entry.frame
            assert isinstance(dest, FrameState)
            if dest.freed:
                raise DanglingFrame(f"return to freed frame {dest!r}")
            self.fetch.record(TransferKind.RETURN, True, self.counter)
            self._free_frame(current)
            if self.banks is not None:
                bank = entry.bank if isinstance(entry.bank, Bank) else None
                self.banks.on_return(dest, bank)
            self.frame = dest
            self.pc = entry.pc
            self.gf = dest.gf
            self.cb = entry.cb if entry.cb >= 0 else dest.code_base
            self.return_context = None
            tracer = self.tracer
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
        self.fetch.record(TransferKind.RETURN, False, self.counter)
        assert current.address is not None, "a slow return needs a materialized frame"
        link = self.memory.read(current.address + FRAME_RETURN_LINK)
        self._free_frame(current)
        self.return_context = None
        tracer = self.tracer
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
        dest = self.frames.at(link)
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
            callee = self._new_frame(meta, resolved)
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

    def _build_dispatch(self) -> dict:
        table: dict[Op, Callable] = {}

        def d(op: Op, handler: Callable) -> None:
            table[op] = handler

        d(Op.NOOP, lambda i, n: None)
        d(Op.HALT, lambda i, n: self._halt())
        d(Op.BRK, lambda i, n: self.trap(TrapKind.BREAKPOINT))

        # Immediates.
        d(Op.LIN1, lambda i, n: self.stack.push(0xFFFF))
        for value in range(8):
            d(Op(int(Op.LI0) + value), lambda i, n, v=value: self.stack.push(v))
        d(Op.LIB, lambda i, n: self.stack.push(i.operand))
        d(Op.LIW, lambda i, n: self.stack.push(i.operand))

        # Locals.
        for index in range(8):
            d(Op(int(Op.LL0) + index), lambda i, n, x=index: self.stack.push(self._local_read(x)))
            d(Op(int(Op.SL0) + index), lambda i, n, x=index: self._local_write(x, self.stack.pop()))
        d(Op.LLB, lambda i, n: self.stack.push(self._local_read(i.operand)))
        d(Op.SLB, lambda i, n: self._local_write(i.operand, self.stack.pop()))
        d(Op.LLA, self._op_lla)

        # Globals.
        d(Op.LG, lambda i, n: self.stack.push(self.memory.read(self.gf + GF_HEADER_WORDS + i.operand)))
        d(Op.SG, lambda i, n: self.memory.write(self.gf + GF_HEADER_WORDS + i.operand, self.stack.pop()))
        d(Op.LGA, lambda i, n: self.stack.push(self.gf + GF_HEADER_WORDS + i.operand))

        # Indirect.
        d(Op.RD, lambda i, n: self.stack.push(self._deref_read(self.stack.pop())))
        d(Op.WR, self._op_wr)

        # Arithmetic.
        d(Op.ADD, lambda i, n: self._binary(lambda a, b: a + b))
        d(Op.SUB, lambda i, n: self._binary(lambda a, b: a - b))
        d(Op.MUL, lambda i, n: self._binary(lambda a, b: a * b))
        d(Op.DIV, lambda i, n: self._binary(self._signed_div))
        d(Op.MOD, lambda i, n: self._binary(self._signed_mod))
        d(Op.NEG, lambda i, n: self.stack.push(-to_signed(self.stack.pop())))
        d(Op.AND, lambda i, n: self._binary(lambda a, b: a & b, signed=False))
        d(Op.OR, lambda i, n: self._binary(lambda a, b: a | b, signed=False))
        d(Op.XOR, lambda i, n: self._binary(lambda a, b: a ^ b, signed=False))
        d(Op.NOT, lambda i, n: self.stack.push(~self.stack.pop()))
        d(Op.SHL, lambda i, n: self._binary(lambda a, b: a << (b & 15), signed=False))
        d(Op.SHR, lambda i, n: self._binary(lambda a, b: a >> (b & 15), signed=False))

        # Comparisons (signed).
        d(Op.EQ, lambda i, n: self._compare(lambda a, b: a == b))
        d(Op.NE, lambda i, n: self._compare(lambda a, b: a != b))
        d(Op.LT, lambda i, n: self._compare(lambda a, b: a < b))
        d(Op.LE, lambda i, n: self._compare(lambda a, b: a <= b))
        d(Op.GT, lambda i, n: self._compare(lambda a, b: a > b))
        d(Op.GE, lambda i, n: self._compare(lambda a, b: a >= b))

        # Stack manipulation.
        d(Op.DUP, lambda i, n: self.stack.dup())
        d(Op.POP, lambda i, n: self.stack.pop())
        d(Op.EXCH, lambda i, n: self.stack.exch())

        # Jumps.
        d(Op.JB, self._op_jump)
        d(Op.JW, self._op_jump)
        d(Op.JZB, lambda i, n: self._op_cond_jump(i, n, want_zero=True))
        d(Op.JZW, lambda i, n: self._op_cond_jump(i, n, want_zero=True))
        d(Op.JNZB, lambda i, n: self._op_cond_jump(i, n, want_zero=False))
        d(Op.JNZW, lambda i, n: self._op_cond_jump(i, n, want_zero=False))

        # Transfers.
        for index in range(8):
            d(Op(int(Op.EFC0) + index), lambda i, n, x=index: self._op_external_call(x, n))
        d(Op.EFCB, lambda i, n: self._op_external_call(i.operand, n))
        d(Op.LFC, lambda i, n: self._op_local_call(i.operand, n))
        d(Op.DFC, lambda i, n: self._op_direct_call(i.operand, n, short=False))
        d(Op.SDFC, lambda i, n: self._op_direct_call(n + i.operand, n, short=True))
        d(Op.RET, lambda i, n: self._op_return())
        d(Op.XF, lambda i, n: self._op_xf(n))
        d(Op.LRC, self._op_lrc)
        d(Op.LLC, lambda i, n: self.stack.push(self._context_word(self.frame)))

        d(Op.YIELD, self._op_yield)
        d(Op.OUT, lambda i, n: self.output.append(to_signed(self.stack.pop())))

        # Storage management (section 4).
        d(Op.RETAIN, self._op_retain)
        d(Op.ALOC, lambda i, n: self.stack.push(self._allocate_record(self.stack.pop())))
        d(Op.FREE, lambda i, n: self._op_free(self.stack.pop()))
        return table

    # -- small handlers -------------------------------------------------------

    def _binary(self, fn, signed: bool = True) -> None:
        b = self.stack.pop()
        a = self.stack.pop()
        if signed:
            result = fn(to_signed(a), to_signed(b))
        else:
            result = fn(a, b)
        self.stack.push(result)

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

    def _compare(self, fn) -> None:
        b = to_signed(self.stack.pop())
        a = to_signed(self.stack.pop())
        self.stack.push(1 if fn(a, b) else 0)

    def _op_jump(self, instruction, next_pc: int) -> None:
        self.counter.record(Event.JUMP)
        self.pc = next_pc + instruction.operand

    def _op_cond_jump(self, instruction, next_pc: int, want_zero: bool) -> None:
        value = self.stack.pop()
        taken = (value == 0) if want_zero else (value != 0)
        if taken:
            self.counter.record(Event.JUMP)
            self.pc = next_pc + instruction.operand

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
            self._free_frame(frame)
            return
        if self.image.first_fit is not None:
            self.image.first_fit.free(pointer)
            return
        assert self.image.av_heap is not None
        self.image.av_heap.free(pointer)
