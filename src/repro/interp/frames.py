"""Frame state: the machine-level context (section 4's frame case).

The natural implementation "represents a context by a pointer to a record
whose components are the elements of a local frame".  Our in-memory
layout, in words from the frame pointer:

====  ==========================================================
0     returnLink — the caller's context word (or NIL)
1     globalFrame — address of the owning module instance's GF
2     PC — the saved program counter, relative to the code base
3..   arguments, locals, temporaries
====  ==========================================================

A :class:`FrameState` is the *machine's* handle on a frame, which may be
richer than the memory image at any instant: under implementation I4 the
first words may live in a register bank, the linkage words may live in
the IFU return stack, and — with deferred allocation — the memory image
may not exist at all (``address is None``).  The invariant: flushing
(:meth:`repro.interp.machine.Machine` owns that) always reconstructs the
exact section 4 memory representation, which is the paper's "orderly
fallback position".
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Word offsets within a frame.
FRAME_RETURN_LINK = 0
FRAME_GLOBAL = 1
FRAME_PC = 2
LOCALS_BASE = 3


@dataclass(frozen=True)
class ProcMeta:
    """Link-time metadata about one procedure, keyed by entry address."""

    module: str
    name: str
    entry_address: int  # absolute address of the fsi byte
    arg_count: int
    result_count: int
    frame_words: int  # header + locals, as the compiler computed it
    fsi: int
    ev_index: int

    @property
    def qualified_name(self) -> str:
        return f"{self.module}.{self.name}"

    @property
    def local_words(self) -> int:
        return self.frame_words - LOCALS_BASE


@dataclass
class FrameState:
    """A live activation as the machine tracks it.

    ``address`` is the frame pointer in memory, or None while allocation
    is deferred (section 7.1).  ``code_base`` may be -1 when entered via
    DIRECTCALL and never yet suspended (it is then recovered from the
    global frame on demand, one counted read).
    """

    proc: ProcMeta
    gf: int
    fsi: int
    address: int | None = None
    code_base: int = -1
    #: True when a pointer to a local exists (section 7.4 FLAG_FLUSH).
    flagged: bool = False
    #: True once freed — transfers to it then raise DanglingFrame.
    freed: bool = False
    #: True if the frame is retained (not freed by RETURN).
    retained: bool = False
    #: Evaluation-stack words parked while a trap context runs on this
    #: frame's behalf; re-pushed under the record when it resumes.
    stashed_stack: tuple = ()

    @property
    def deferred(self) -> bool:
        return self.address is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = "deferred" if self.address is None else f"@{self.address:#x}"
        return f"FrameState({self.proc.qualified_name} {where})"


@dataclass
class FrameTable:
    """Maps frame memory addresses to their :class:`FrameState`.

    Context words in memory are bare addresses; the machine needs to get
    back to the Python-side state they denote.  (On the real machine this
    table does not exist — the address *is* the state; it is simulation
    bookkeeping, never counted.)
    """

    by_address: dict[int, FrameState] = field(default_factory=dict)

    def register(self, frame: FrameState) -> None:
        assert frame.address is not None
        self.by_address[frame.address] = frame

    def forget(self, frame: FrameState) -> None:
        if frame.address is not None:
            self.by_address.pop(frame.address, None)

    def at(self, address: int) -> FrameState | None:
        return self.by_address.get(address)
