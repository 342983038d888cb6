"""The bounded evaluation stack (section 4, section 5.2).

Mesa is a stack machine: expression operands, arguments, and results live on
a small evaluation stack that the implementation keeps in processor
registers.  Because it must fit in registers, its depth is a hard limit —
the compiler guarantees expressions fit, and the simulator faults on
overflow rather than growing, exactly as the hardware would trap.

Section 4: "Each context must leave the arguments or results on the stack
or in the working registers before doing an XFER operation."  Argument
records too large for the stack are heap-allocated with a pointer passed
instead (handled by the interpreter, not here).
"""

from __future__ import annotations

from repro.errors import EvalStackOverflow, EvalStackUnderflow
from repro.machine.costs import CycleCounter, Event
from repro.machine.memory import WORD_MASK, to_word

#: Default stack depth; the Mesa machines used a small register-resident
#: stack of around a dozen words.
DEFAULT_DEPTH = 16

_READ = Event.REGISTER_READ
_WRITE = Event.REGISTER_WRITE


class EvalStack:
    """A fixed-depth stack of 16-bit words with counted register access.

    Each push and pop records a register write / read on the shared
    counter: the stack lives in registers in every implementation, and in
    I4 it shares the register banks (see :mod:`repro.banks.renaming`).
    The charge is applied inline through the counter's bound ``charges``.
    """

    def __init__(self, depth: int = DEFAULT_DEPTH, counter: CycleCounter | None = None) -> None:
        if depth <= 0:
            raise ValueError(f"stack depth must be positive, got {depth}")
        self.depth = depth
        self.counter = counter or CycleCounter()
        self._slots: list[int] = []

    def push(self, value: int) -> None:
        """Push a word; faults with :class:`EvalStackOverflow` when full."""
        slots = self._slots
        if len(slots) >= self.depth:
            raise EvalStackOverflow(f"push onto full stack of depth {self.depth}")
        counter = self.counter
        counter.counts[_WRITE] += 1
        counter.cycles += counter.charges[_WRITE]
        slots.append(value & WORD_MASK)

    def pop(self) -> int:
        """Pop a word; faults with :class:`EvalStackUnderflow` when empty."""
        slots = self._slots
        if not slots:
            raise EvalStackUnderflow("pop from empty evaluation stack")
        counter = self.counter
        counter.counts[_READ] += 1
        counter.cycles += counter.charges[_READ]
        return slots.pop()

    def top(self) -> int:
        """Read the top word without popping (counted as a register read)."""
        slots = self._slots
        if not slots:
            raise EvalStackUnderflow("top of empty evaluation stack")
        counter = self.counter
        counter.counts[_READ] += 1
        counter.cycles += counter.charges[_READ]
        return slots[-1]

    def dup(self) -> None:
        """Duplicate the top word."""
        self.push(self.top())

    def exch(self) -> None:
        """Exchange the top two words."""
        b = self.pop()
        a = self.pop()
        self.push(b)
        self.push(a)

    def clear(self) -> None:
        """Discard all contents (used when flushing state on a fallback)."""
        self._slots.clear()

    def contents(self) -> tuple[int, ...]:
        """Uncounted snapshot, bottom first — for tests and state saving."""
        return tuple(self._slots)

    def load(self, values: tuple[int, ...] | list[int]) -> None:
        """Uncounted bulk restore — for process-switch state reload."""
        if len(values) > self.depth:
            raise EvalStackOverflow(f"restoring {len(values)} words into depth {self.depth}")
        self._slots = [to_word(v) for v in values]

    def __len__(self) -> int:
        return len(self._slots)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EvalStack({list(self._slots)!r}, depth={self.depth})"
