"""Exception hierarchy for the Fast Procedure Calls reproduction.

Every error raised by the library derives from :class:`ReproError`, so a
caller can catch one type to handle anything that goes wrong in the
simulator, the compiler, or the allocators.  The sub-hierarchies mirror the
package layout: machine-level faults, encoding/assembly errors, allocation
failures, transfer (XFER) errors, and compiler diagnostics.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


# ---------------------------------------------------------------------------
# Machine substrate
# ---------------------------------------------------------------------------


class MachineError(ReproError):
    """Base class for faults raised by the simulated machine."""


class MemoryFault(MachineError):
    """An access touched an address outside the simulated memory."""

    def __init__(self, address: int, size: int) -> None:
        super().__init__(f"address {address:#x} outside memory of {size} words")
        self.address = address
        self.size = size


class WordRangeError(MachineError):
    """A value did not fit in a 16-bit machine word."""

    def __init__(self, value: int) -> None:
        super().__init__(f"value {value} does not fit in a 16-bit word")
        self.value = value


class EvalStackOverflow(MachineError):
    """The evaluation stack exceeded its configured depth.

    The Mesa architecture keeps the evaluation stack small (it must fit in
    processor registers); overflow is a hard fault the compiler must avoid
    by spilling, so the simulator treats it as an error rather than growing
    the stack.
    """


class EvalStackUnderflow(MachineError):
    """A pop was attempted on an empty evaluation stack."""


# ---------------------------------------------------------------------------
# Encoding / ISA
# ---------------------------------------------------------------------------


class EncodingError(ReproError):
    """Base class for errors in the instruction encoding layer."""


class DecodeError(EncodingError):
    """Decoding an instruction stream failed at a known byte offset.

    Carries ``offset`` so that tooling over untrusted bytes (the static
    checker, the fuzz harness) can report exactly where decode went
    wrong instead of guessing from a message string.
    """

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(message)
        self.offset = offset


class UnknownOpcode(DecodeError):
    """Decode hit a byte that is not a defined opcode."""

    def __init__(self, byte: int, pc: int) -> None:
        super().__init__(f"unknown opcode {byte:#04x} at pc={pc:#x}", pc)
        self.byte = byte
        self.pc = pc


class OperandRangeError(EncodingError):
    """An instruction operand does not fit its encoded field."""


class TruncatedInstruction(DecodeError, OperandRangeError):
    """An instruction's operand bytes run past the end of the stream.

    Subclasses :class:`OperandRangeError` for backward compatibility
    (callers historically caught that for truncation) and
    :class:`DecodeError` so the offset is structured, not textual.
    """

    def __init__(self, op_name: str, pc: int, needed: int, available: int) -> None:
        DecodeError.__init__(
            self,
            f"{op_name} at pc={pc:#x} needs {needed} byte(s) but only "
            f"{available} remain",
            pc,
        )
        self.op_name = op_name
        self.needed = needed
        self.available = available


class AssemblyError(EncodingError):
    """The assembler rejected a symbolic program (bad label, operand...)."""


class LinkError(EncodingError):
    """The linker could not bind an external reference."""


# ---------------------------------------------------------------------------
# Allocation
# ---------------------------------------------------------------------------


class AllocationError(ReproError):
    """Base class for frame-heap failures."""


class HeapExhausted(AllocationError):
    """The heap (or the software allocator behind it) is out of space."""


class FrameSizeError(AllocationError):
    """A requested frame size has no size class, or an fsi is invalid."""


class DoubleFree(AllocationError):
    """A frame was freed twice, or a free hit an address never allocated."""

    def __init__(self, address: int) -> None:
        super().__init__(f"free of {address:#x} which is not allocated")
        self.address = address


# ---------------------------------------------------------------------------
# Control transfer
# ---------------------------------------------------------------------------


class TransferError(ReproError):
    """Base class for XFER-level errors."""


class InvalidContext(TransferError):
    """An XFER destination is not a valid context (NIL, freed, garbage)."""


class ReturnFromReturn(TransferError):
    """A RETURN executed while returnContext is NIL (paper section 4:
    'an attempt to return from this return would be an error')."""


class DanglingFrame(TransferError):
    """A transfer targeted a frame that has already been freed."""


# ---------------------------------------------------------------------------
# Interpreter
# ---------------------------------------------------------------------------


class InterpreterError(ReproError):
    """Base class for interpreter-loop failures."""


class StepLimitExceeded(InterpreterError):
    """Execution ran past the configured instruction budget."""

    def __init__(self, limit: int) -> None:
        super().__init__(f"execution exceeded step limit of {limit}")
        self.limit = limit


class MachineHalted(InterpreterError):
    """An operation was attempted on a machine that has halted."""


class TrapError(InterpreterError):
    """A trap occurred with no registered handler for it.

    Carries the exact diagnostics the chaos harness pins down: ``pc``
    (the address of the instruction *after* the faulting one, i.e. where
    a trap context would resume) and ``proc`` (the qualified name of the
    procedure whose frame was running).  ``pc`` is -1 and ``proc`` empty
    when the machine had no running context to attribute the trap to.
    """

    def __init__(self, trap: str, detail: str = "", pc: int = -1, proc: str = "") -> None:
        message = f"unhandled trap {trap!r}"
        if detail:
            message += f": {detail}"
        if pc >= 0:
            message += f" (pc {pc:#06x}"
            if proc:
                message += f" in {proc}"
            message += ")"
        super().__init__(message)
        self.trap = trap
        self.detail = detail
        self.pc = pc
        self.proc = proc


# ---------------------------------------------------------------------------
# Remote XFER (repro.net)
# ---------------------------------------------------------------------------


class NetError(ReproError):
    """Base class for Remote XFER and serving-layer failures."""


class WireError(NetError):
    """A wire message could not be encoded, decoded, or validated."""


class TruncatedFrameError(WireError):
    """A byte stream ended mid-frame: the peer closed with unterminated
    bytes still buffered.

    Raised instead of silently discarding the partial frame — a
    truncated transfer record is data loss, and the reader must surface
    it so the retry/dedup discipline (or the operator) can act on it.
    Carries ``buffered``, the number of orphaned bytes.
    """

    def __init__(self, buffered: int, preview: str = "") -> None:
        message = (
            f"peer closed mid-frame: {buffered} unterminated byte(s) buffered"
        )
        if preview:
            message += f" (frame starts {preview!r})"
        super().__init__(message)
        self.buffered = buffered


class RouteError(NetError):
    """A request could not be routed (unknown shard, bad placement)."""


class LostRequest(NetError):
    """A remote call exhausted its retries without a reply."""

    def __init__(self, request_id: int, attempts: int, target: str) -> None:
        super().__init__(
            f"request {request_id} to {target} lost after {attempts} attempt(s)"
        )
        self.request_id = request_id
        self.attempts = attempts
        self.target = target


# ---------------------------------------------------------------------------
# Compiler
# ---------------------------------------------------------------------------


class CompileError(ReproError):
    """Base class for compiler diagnostics; carries a source position."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        location = f" at line {line}, column {column}" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class LexError(CompileError):
    """The lexer met a character it cannot tokenize."""


class ParseError(CompileError):
    """The parser met an unexpected token."""


class SemanticError(CompileError):
    """Name resolution or type checking failed."""
