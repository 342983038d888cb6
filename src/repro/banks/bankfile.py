"""The register bank file (section 7.1).

    "We suppose that the processor has a small number of register banks
    (say 4-8) of some modest fixed size (say 16 words).  Each of these
    banks can hold the first 16 words of some local frame. ...  When the
    frame is freed, the shadowing register bank is also marked free, and
    can then be used to shadow a newly created frame; its contents are
    unimportant, and never need to be saved in storage."

A bank here is a small word array with a role (free, local-frame shadow,
or evaluation-stack holder), the frame it shadows, and a dirty-word set.
Reads and writes are charged as register events (one cycle, versus two
for a cache access — the section 7.3 argument).  Spilling and filling are
decided by :class:`repro.banks.renaming.BankManager`; the bank file just
keeps the registers and the statistics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.machine.costs import CycleCounter, Event
from repro.machine.memory import WORD_MASK, to_word

#: Paper defaults: 4-8 banks of 16 words.
DEFAULT_BANKS = 4
DEFAULT_BANK_WORDS = 16

_READ = Event.REGISTER_READ
_WRITE = Event.REGISTER_WRITE


class BankRole(enum.Enum):
    """What a bank currently holds (the S / L labels of Figure 3)."""

    FREE = "free"
    LOCAL = "local"  # shadows the first words of some frame
    STACK = "stack"  # holds the evaluation stack


@dataclass
class BankStats:
    """Counters behind the section 7.1 claims (benchmark C7).

    An *overflow* is a new-frame XFER that found no free bank and had to
    write the oldest bank out; an *underflow* is an XFER into a frame
    whose bank had been reclaimed, forcing a reload.  The paper:
    "Fragmentary Mesa statistics indicate that with 4 banks it happens on
    less than 5% of XFERs; and [4] reports that with 4-8 banks the rate
    is less than 1%."
    """

    assignments: int = 0
    releases: int = 0
    overflows: int = 0
    underflows: int = 0
    words_spilled: int = 0
    words_filled: int = 0
    #: XFERs observed (calls + returns + general transfers) — denominator.
    xfers: int = 0

    @property
    def overflow_rate(self) -> float:
        """(overflows + underflows) / xfers, the section 7.1 statistic."""
        if self.xfers == 0:
            return 0.0
        return (self.overflows + self.underflows) / self.xfers


def _frame_label(frame: object | None) -> str:
    """A human-readable name for the frame a bank shadows (trace data)."""
    proc = getattr(frame, "proc", None)
    if proc is not None:
        return proc.qualified_name
    return "<stack>" if frame is None else str(frame)


class Bank:
    """One register bank: a fixed-size word array plus bookkeeping."""

    def __init__(self, bank_id: int, size: int) -> None:
        self.id = bank_id
        self.size = size
        self.words = [0] * size
        self.role = BankRole.FREE
        #: The FrameState this bank shadows (role LOCAL), else None.
        self.frame: object | None = None
        #: Indices written since the last spill/assignment.
        self.dirty: set[int] = set()
        #: Assignment sequence number, for oldest-first victim selection.
        self.assigned_at = -1

    def rebind(self, role: BankRole, frame: object | None, seq: int) -> None:
        """Reassign the bank; contents are *not* cleared (renaming relies
        on the old stack contents becoming the new frame's locals)."""
        self.role = role
        self.frame = frame
        self.assigned_at = seq

    def release(self) -> None:
        """Mark free; "its contents are unimportant"."""
        self.role = BankRole.FREE
        self.frame = None
        self.dirty.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Bank({self.id}, {self.role.value}, frame={self.frame})"


class BankFile:
    """The set of banks, with counted register access.

    The manager asks for free banks and victims; ``read``/``write`` are
    the data path used by local-variable instructions when the frame is
    shadowed.
    """

    def __init__(
        self,
        banks: int = DEFAULT_BANKS,
        bank_words: int = DEFAULT_BANK_WORDS,
        counter: CycleCounter | None = None,
        track_dirty: bool = True,
    ) -> None:
        if banks < 3:
            raise ValueError(
                f"need at least 3 banks (current L, current S, one spare), got {banks}"
            )
        if bank_words <= 0:
            raise ValueError(f"bank_words must be positive, got {bank_words}")
        self.counter = counter or CycleCounter()
        self.bank_words = bank_words
        self.track_dirty = track_dirty
        self.stats = BankStats()
        #: Observability sink (repro.obs); None disables emission.
        self.tracer = None
        self._banks = [Bank(i, bank_words) for i in range(banks)]
        self._seq = 0

    def __len__(self) -> int:
        return len(self._banks)

    def __iter__(self):
        return iter(self._banks)

    def bank(self, bank_id: int) -> Bank:
        return self._banks[bank_id]

    # -- assignment ------------------------------------------------------------

    def next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def acquire_free(self, role: BankRole, frame: object | None = None) -> Bank | None:
        """Take a free bank, or None if all are busy (overflow condition)."""
        for bank in self._banks:
            if bank.role is BankRole.FREE:
                bank.rebind(role, frame, self.next_seq())
                bank.dirty.clear()
                self.stats.assignments += 1
                return bank
        return None

    def oldest(self, exclude: set[int]) -> Bank:
        """The least recently assigned busy bank not in *exclude*.

        Section 7.1: "the contents of the oldest bank is written out into
        the frame."
        """
        candidates = [
            bank
            for bank in self._banks
            if bank.role is not BankRole.FREE and bank.id not in exclude
        ]
        if not candidates:
            raise RuntimeError("no spillable bank; file too small for exclusions")
        return min(candidates, key=lambda bank: bank.assigned_at)

    # -- the register data path --------------------------------------------------

    def read(self, bank: Bank, index: int) -> int:
        """Counted register read of one shadowed word."""
        counter = self.counter
        counter.counts[_READ] += 1
        counter.cycles += counter.charges[_READ]
        return bank.words[index]

    def write(self, bank: Bank, index: int, value: int) -> None:
        """Counted register write of one shadowed word."""
        counter = self.counter
        counter.counts[_WRITE] += 1
        counter.cycles += counter.charges[_WRITE]
        bank.words[index] = value & WORD_MASK
        bank.dirty.add(index)

    # -- spill support -------------------------------------------------------------

    def spill_words(self, bank: Bank) -> list[tuple[int, int]]:
        """(index, value) pairs the machine must write to the frame.

        With dirty tracking only written words go out; without it, every
        word does (the ablation the paper mentions: "It may be worthwhile
        to keep track of which registers have been written").  The dirty
        set is cleared — the bank now matches memory.
        """
        if self.track_dirty:
            pairs = [(index, bank.words[index]) for index in sorted(bank.dirty)]
        else:
            pairs = list(enumerate(bank.words))
        bank.dirty.clear()
        self.stats.words_spilled += len(pairs)
        self.counter.record(Event.BANK_FLUSH)
        if self.tracer is not None:
            self.tracer.emit(
                "bank.spill", frame=_frame_label(bank.frame), bank=bank.id,
                words=len(pairs),
            )
        return pairs

    def fill(self, bank: Bank, values: list[int]) -> None:
        """Load words (already read from memory by the machine) into the bank."""
        for index, value in enumerate(values):
            bank.words[index] = to_word(value)
        bank.dirty.clear()
        self.stats.words_filled += len(values)
        self.counter.record(Event.BANK_LOAD)
        if self.tracer is not None:
            self.tracer.emit(
                "bank.fill", frame=_frame_label(bank.frame), bank=bank.id,
                words=len(values),
            )
