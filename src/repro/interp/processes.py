"""Multiple processes over one machine (sections 1, 3, 6, 7).

The paper's model needs no special cases for processes: each process is
just a chain of contexts, and a process switch is an XFER that happens to
land in another chain.  What the *implementations* owe processes is the
fallback discipline: a switch is one of the "unusual" events, so the
return stack is flushed and "all the banks are flushed into storage"
(section 7.1) before the other process's state is loaded.

:class:`Scheduler` is a cooperative round-robin scheduler with optional
preemption by instruction quantum.  A process yields explicitly with the
``YIELD`` instruction, or is preempted when its quantum expires; its full
machine state (frame, PC, evaluation stack) is saved to a process record
(charged as memory traffic — the state vector lives in storage), and the
next runnable process is restored.

Because frames live in a heap rather than a stack, every process's
frames share one arena with no per-process reservation — exactly the
storage-allocation advantage the introduction claims over contiguous-
stack architectures.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import attrgetter

from repro.errors import InterpreterError, StepLimitExceeded, TrapError
from repro.interp.frames import FrameState, FRAME_PC
from repro.interp.machine import Machine
from repro.machine.costs import Event
from repro.machine.memory import to_word


class ProcessStatus(enum.Enum):
    READY = "ready"
    RUNNING = "running"
    DONE = "done"
    #: Suspended awaiting a remote reply (repro.net): the process made a
    #: Remote XFER and leaves the rotation until :meth:`Scheduler.unblock`
    #: delivers the result words onto its saved evaluation stack.
    BLOCKED = "blocked"
    #: Quarantined: the process took an unhandled trap (or stormed past
    #: its trap quota) and was removed from the rotation so it cannot
    #: wedge the scheduler.  Its ``fault`` field records the diagnostics.
    FAULTED = "faulted"


@dataclass
class Process:
    """One process: an entry point plus saved machine state."""

    pid: int
    module: str
    proc: str
    args: tuple[int, ...]
    status: ProcessStatus = ProcessStatus.READY
    started: bool = False
    #: Saved state while not running.
    frame: FrameState | None = None
    pc: int = 0
    gf: int = 0
    cb: int = -1
    stack: tuple[int, ...] = ()
    #: Result stack after completion.
    results: list[int] = field(default_factory=list)
    #: Instructions executed by this process.
    steps: int = 0
    #: Traps dispatched while this process was running (handled or not).
    traps: int = 0
    #: Diagnostics when status is FAULTED: trap kind, pc, proc, detail.
    fault: dict | None = None
    #: The outstanding remote request while status is BLOCKED (the dict
    #: the machine's remote stub parked in ``machine.remote_pending``).
    remote: dict | None = None


_pid = attrgetter("pid")


@dataclass
class SwitchStats:
    """Process-switch accounting (they are XFERs, and slow ones)."""

    switches: int = 0
    preemptions: int = 0
    yields: int = 0
    #: Processes quarantined (unhandled trap or trap-storm quota).
    quarantines: int = 0
    #: Processes suspended on a remote call (repro.net).
    blocks: int = 0


class Scheduler:
    """Round-robin over processes sharing one machine.

    Parameters
    ----------
    machine:
        The machine to schedule on.  The scheduler takes over its run
        loop; use :meth:`run` instead of ``machine.run``.
    quantum:
        Instructions per time slice; 0 disables preemption (switches
        happen only on YIELD and process completion).
    trap_quota:
        Traps a process may dispatch within one time slice before it is
        quarantined as a trap storm; 0 disables the quota.  Unhandled
        traps always quarantine, quota or not.
    """

    def __init__(self, machine: Machine, quantum: int = 0, trap_quota: int = 0) -> None:
        self.machine = machine
        self.quantum = quantum
        self.trap_quota = trap_quota
        #: The process table in pid order.  A pid names one process for
        #: the scheduler's life: :meth:`discard` never renumbers the rest.
        self.processes: list[Process] = []
        self.current: Process | None = None
        self.stats = SwitchStats()
        self._next_pid = 0
        #: Round-robin position: the pid the next scan starts at.
        self._rotor = 0
        #: machine.steps minus the running process's steps (per slice).
        self._steps_base = 0

    def spawn(self, module: str, proc: str, *args: int) -> Process:
        """Create a READY process running ``module.proc(*args)``."""
        process = Process(
            pid=self._next_pid, module=module, proc=proc, args=tuple(args)
        )
        self._next_pid += 1
        self.processes.append(process)
        return process

    def discard(self, process: Process) -> bool:
        """Drop *process* from the table if it is there (a shard reaps
        a handed-off process this way); True if it was."""
        processes = self.processes
        index = bisect_left(processes, process.pid, key=_pid)
        if index < len(processes) and processes[index] is process:
            del processes[index]
            return True
        return False

    def run(self, max_steps: int | None = None) -> list[Process]:
        """Run until no process is READY; returns them with results.

        *max_steps* defaults to ``config.scheduler_max_steps`` — one
        knob shared by serving loops and tests — and counts steps over
        this call: the step after the last allowed one raises
        :class:`StepLimitExceeded`.  The machine's lifetime
        ``config.step_limit`` does not apply here.  The loop also
        returns (rather than spinning) when every remaining process is
        BLOCKED on a remote reply; the caller (a :class:`repro.net`
        shard pump) delivers replies and calls :meth:`run` again.

        A process runs in slices of the machine's own execution loop
        (compiled blocks when a JIT engine is active), each ending at a
        halt, a yield, the process's next quantum boundary or the step
        budget, so the scheduler acts at exactly the instruction a
        per-step loop would.
        """
        if max_steps is None:
            max_steps = self.machine.config.scheduler_max_steps
        machine = self.machine
        machine.on_halt = self._on_halt
        quantum = self.quantum
        total = 0
        try:
            while True:
                process = self._next_ready()
                if process is None:
                    break
                self._switch_in(process)
                slice_start_traps = machine.trap_count
                if self.trap_quota:
                    machine.trap_ceiling = slice_start_traps + self.trap_quota
                while True:
                    start_steps = machine.steps
                    start_traps = machine.trap_count
                    self._steps_base = start_steps - process.steps
                    ceiling = start_steps + max_steps + 1 - total
                    if quantum:
                        ceiling = min(
                            ceiling, start_steps + quantum - process.steps % quantum
                        )
                    try:
                        machine._run_until(ceiling)
                    except TrapError as fault:
                        # The faulting instruction and its trap do not
                        # count towards the process.
                        executed = machine.steps - start_steps - 1
                        process.steps += executed
                        total += executed
                        process.traps += machine.trap_count - start_traps - 1
                        self._quarantine(
                            process,
                            trap=fault.trap,
                            pc=fault.pc,
                            proc=fault.proc,
                            detail=fault.detail,
                        )
                        break
                    executed = machine.steps - start_steps
                    process.steps += executed
                    total += executed
                    if total > max_steps:
                        raise StepLimitExceeded(max_steps)
                    process.traps += machine.trap_count - start_traps
                    slice_traps = machine.trap_count - slice_start_traps
                    if self.trap_quota and slice_traps > self.trap_quota:
                        self._quarantine(
                            process,
                            trap="trap_storm",
                            pc=machine.pc,
                            proc=process.proc,
                            detail=(
                                f"{slice_traps} traps in one slice "
                                f"(quota {self.trap_quota})"
                            ),
                        )
                        break
                    if machine.halted:
                        break  # the slice completed the process
                    if machine.yield_requested:
                        machine.yield_requested = False
                        pending = machine.remote_pending
                        if pending is not None:
                            machine.remote_pending = None
                            self._block(process, pending)
                        else:
                            self.stats.yields += 1
                            self._switch_out(process, reason="yield")
                        break
                    # Otherwise the slice stopped at a quantum boundary
                    # (the budget raised above): preempt if another
                    # process is ready, else run the next quantum.
                    if self._another_ready(process):
                        self.stats.preemptions += 1
                        self._switch_out(process, reason="preempt")
                        break
                if machine.halted and self.current is process:
                    # _on_halt marked it DONE and captured results.
                    machine.halted = False
                    self.current = None
        finally:
            machine.on_halt = None
            machine.trap_ceiling = None
            machine.halted = True
        return self.processes

    # -- internals ------------------------------------------------------------

    def _next_ready(self) -> Process | None:
        """Round-robin: scan from just past the last scheduled process,
        wrapping to pid 0 after the newest one."""
        processes = self.processes
        count = len(processes)
        start = bisect_left(processes, self._rotor, key=_pid)
        for offset in range(count):
            process = processes[(start + offset) % count]
            if process.status is ProcessStatus.READY:
                following = process.pid + 1
                self._rotor = following if following < self._next_pid else 0
                return process
        return None

    def _another_ready(self, current: Process) -> bool:
        return any(
            p is not current and p.status is ProcessStatus.READY for p in self.processes
        )

    def _switch_in(self, process: Process) -> None:
        machine = self.machine
        self.stats.switches += 1
        self.current = process
        process.status = ProcessStatus.RUNNING
        if not process.started:
            process.started = True
            machine.start(process.module, process.proc, *process.args)
            process.frame = machine.frame
            self._emit_switch("sched.switch_in", process, fresh=True)
            return
        # Restore: the state vector is read back from storage.
        machine.counter.record(Event.MEMORY_READ, len(process.stack) + 2)
        machine.stack.load(process.stack)
        machine.frame = process.frame
        machine.gf = process.gf
        machine.cb = process.cb
        machine.pc = process.pc
        machine.return_context = None
        machine.halted = False
        if machine.banks is not None:
            machine.banks.on_resume(process.frame)
        self._emit_switch("sched.switch_in", process, fresh=False)

    def _emit_switch(self, kind: str, process: Process, **extra) -> None:
        """Emit a scheduler event carrying the saved/restored state vector.

        The payload (pc, gf, cb, evaluation-stack words, current frame)
        is exactly what :meth:`_switch_out` writes to the process record
        and :meth:`_switch_in` reads back, so a switch-out/switch-in pair
        for the same process must carry identical state — the round-trip
        the preemption tests assert through the trace.
        """
        tracer = self.machine.tracer
        if tracer is None:
            return
        frame = process.frame
        tracer.emit(
            kind,
            f"p{process.pid}",
            pid=process.pid,
            proc=f"{process.module}.{process.proc}",
            frame=frame.proc.qualified_name if frame is not None else "<none>",
            pc=process.pc,
            gf=process.gf,
            cb=process.cb,
            stack=list(process.stack),
            steps=process.steps,
            **extra,
        )

    def _switch_out(self, process: Process, reason: str = "switch") -> None:
        """Suspend: flush everything, save the state vector to storage.

        "As usual, when life gets complicated because of a process
        switch, trap or whatever, we fall back to the general scheme:
        all the banks are flushed into storage."
        """
        machine = self.machine
        if machine.rstack is not None and len(machine.rstack):
            machine._flush_return_stack("process", machine.rstack.take_all())
        if machine.banks is not None:
            machine.banks.flush_all()
        current = machine.frame
        machine._materialize(current)
        cb = machine._current_code_base()
        machine.memory.write(current.address + FRAME_PC, to_word(machine.pc - cb))
        # The state vector (stack contents + registers) goes to storage.
        stack = machine.stack.contents()
        machine.counter.record(Event.MEMORY_WRITE, len(stack) + 2)
        machine.stack.clear()
        process.frame = current
        process.pc = machine.pc
        process.gf = machine.gf
        process.cb = machine.cb
        process.stack = stack
        process.status = ProcessStatus.READY
        self.current = None
        self._emit_switch("sched.switch_out", process, reason=reason)

    def _block(self, process: Process, pending: dict) -> None:
        """Suspend a process on an outstanding remote call.

        The machine's remote stub already consumed the argument record
        through the uncounted paths; the ordinary switch-out discipline
        (flush return stack and banks, save the state vector as memory
        traffic) applies unchanged — a Remote XFER pays exactly one
        modelled process switch on the calling shard.
        """
        self._switch_out(process, reason="remote")
        process.status = ProcessStatus.BLOCKED
        process.remote = pending
        self.stats.blocks += 1
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.emit(
                "sched.block",
                f"p{process.pid}",
                pid=process.pid,
                proc=f"{process.module}.{process.proc}",
                target=f"{pending.get('module')}.{pending.get('proc')}",
            )

    def unblock(self, process: Process, results: list[int]) -> None:
        """Deliver a remote reply: result words land on the saved stack.

        The words join the process's saved state vector directly (not
        through counted pushes): transporting them is wire traffic,
        metered by the net layer, and the ordinary switch-in charge
        already covers reading the now-longer state vector back from
        storage — exactly what a local call's results would have cost
        sitting on the stack across a switch.
        """
        if process.status is not ProcessStatus.BLOCKED:
            raise SchedulerError(
                f"unblock of p{process.pid} which is {process.status.value}, "
                "not blocked"
            )
        process.stack = process.stack + tuple(to_word(value) for value in results)
        process.remote = None
        process.status = ProcessStatus.READY
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.emit(
                "sched.unblock",
                f"p{process.pid}",
                pid=process.pid,
                proc=f"{process.module}.{process.proc}",
                results=list(results),
            )

    def fault_blocked(self, process: Process, fault: dict) -> None:
        """A remote call failed: quarantine the blocked caller.

        Unlike :meth:`_quarantine` the process is not running, so there
        is no machine state to clean up — its chain is simply abandoned
        with the remote fault recorded in its diagnostics.
        """
        if process.status is not ProcessStatus.BLOCKED:
            raise SchedulerError(
                f"fault_blocked of p{process.pid} which is "
                f"{process.status.value}, not blocked"
            )
        process.status = ProcessStatus.FAULTED
        process.fault = dict(fault)
        process.remote = None
        self.stats.quarantines += 1
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.emit(
                "sched.fault",
                f"p{process.pid}",
                pid=process.pid,
                proc=f"{process.module}.{process.proc}",
                trap=fault.get("trap", "remote"),
                pc=fault.get("pc", -1),
                fault_proc=fault.get("proc", ""),
                detail=fault.get("detail", ""),
            )

    def _quarantine(
        self, process: Process, trap: str, pc: int, proc: str, detail: str
    ) -> None:
        """Remove a faulted process from the rotation, cleanly.

        The faulting chain is abandoned: evaluation-stack residue is
        discarded, any return-stack entries for it are dropped (their
        contents are dead — no stores), and its banks are released
        without spilling ("the contents of the bank are unimportant").
        The machine is left runnable so the remaining processes keep
        their turns — one trap-storming process cannot wedge the
        scheduler.
        """
        machine = self.machine
        process.status = ProcessStatus.FAULTED
        process.fault = {"trap": trap, "pc": pc, "proc": proc, "detail": detail}
        self.stats.quarantines += 1
        machine.stack.clear()
        if machine.rstack is not None and len(machine.rstack):
            victims = machine.rstack.take_all()
            machine.rstack.note_flush("quarantine", len(victims))
        if machine.banks is not None:
            for bank in machine.bankfile:
                bank.release()
            machine.banks.lbank = None
            machine.banks.sbank = None
        machine.halted = False
        machine.yield_requested = False
        self.current = None
        tracer = machine.tracer
        if tracer is not None:
            tracer.emit(
                "sched.fault",
                f"p{process.pid}",
                pid=process.pid,
                proc=f"{process.module}.{process.proc}",
                trap=trap,
                pc=pc,
                fault_proc=proc,
                detail=detail,
            )

    def _on_halt(self, machine: Machine) -> bool:
        """A process's outermost RETURN: record results, mark DONE."""
        process = self.current
        if process is None:
            return False
        process.status = ProcessStatus.DONE
        process.results = machine.results()
        machine.stack.clear()
        tracer = machine.tracer
        if tracer is not None:
            tracer.emit(
                "sched.done",
                f"p{process.pid}",
                pid=process.pid,
                proc=f"{process.module}.{process.proc}",
                # Mid-slice: the steps before this halting instruction.
                steps=machine.steps - self._steps_base - 1,
                results=list(process.results),
            )
        # The halting return already released the root's bank and the
        # stack bank (BankManager.end).
        return False  # let machine.halted go True; run() rotates


def run_processes(machine: Machine, specs: list[tuple[str, str, tuple[int, ...]]], quantum: int = 0) -> list[Process]:
    """Convenience: spawn and run a list of (module, proc, args) processes."""
    scheduler = Scheduler(machine, quantum=quantum)
    for module, proc, args in specs:
        scheduler.spawn(module, proc, *args)
    return scheduler.run()


class SchedulerError(InterpreterError):
    """Raised for inconsistent scheduler usage."""
