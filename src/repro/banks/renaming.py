"""Stack-bank renaming (section 7.2, Figure 3).

    "after the arguments have been loaded on the stack, the bank holding
    the stack can be renamed to be the shadower for the local frame of
    the called procedure.  As a consequence, the arguments will
    automatically appear as the first few local variables, without any
    actual data movement.  Thus on a call the pattern is:

        (top of return stack).Lbank := current Lbank
        current Lbank := stack
        stack := newly assigned bank

    On a return, the stack should remain as it is, and the current frame
    should be freed:

        free current Lbank
        current Lbank := (top of return stack).Lbank

    Thus the banks are not used in last-in first-out order."

:class:`BankManager` executes exactly that pattern.  It does not touch
memory itself: the interpreter supplies ``spill`` and ``fill`` callbacks
that move words between a bank and its frame (counted), so that the
manager stays a pure policy object.  Its state is two registers, the
current Lbank and Sbank, beside each bank's role, frame and assignment
number; Figure 3 is those two registers read after each event
(:func:`figure3`), without a full machine.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.banks.bankfile import Bank, BankFile, BankRole


class BankManager:
    """Tracks the current local bank and stack bank, per Figure 3.

    Parameters
    ----------
    banks:
        The bank file.
    spill:
        ``spill(bank)`` — write the bank's (dirty) words into the frame it
        shadows, materializing the frame if its allocation was deferred.
        Only ever called for LOCAL-role banks.
    fill:
        ``fill(bank, frame)`` — load the frame's first words from memory
        into the bank (an *underflow*: "If an XFER is done to a frame
        which doesn't have a shadowing bank, a free bank is assigned and
        loaded from the frame").
    """

    def __init__(
        self,
        banks: BankFile,
        spill: Callable[[Bank], None],
        fill: Callable[[Bank, object], None],
    ) -> None:
        self.banks = banks
        self._spill = spill
        self._fill = fill
        self.lbank: Bank | None = None
        self.sbank: Bank | None = None

    # -- lifecycle ----------------------------------------------------------------

    def begin(self, root_frame: object) -> None:
        """Assign banks for the first context: one L, one S."""
        self.lbank = self._acquire(BankRole.LOCAL, root_frame)
        self.sbank = self._acquire(BankRole.STACK, None)

    def end(self) -> None:
        """The halting return: the root frame is freed, so its bank and
        the stack bank are released, and a later run on the machine does
        not begin with two stale banks."""
        for bank in (self.lbank, self.sbank):
            if bank is not None:
                bank.release()
        self.lbank = None
        self.sbank = None

    def on_call(self, callee_frame: object, arg_words: int = 0) -> Bank | None:
        """The call pattern; returns the *caller's* Lbank for the return stack.

        The stack bank (holding the just-loaded arguments) is renamed to
        shadow *callee_frame* — zero data movement — and a fresh bank
        becomes the stack.  *arg_words* says how many stack words became
        locals; they are live in registers but not yet in memory, so they
        start dirty from the frame's point of view.  After a flush there
        is no stack bank: one is acquired first, as :meth:`on_resume`
        does, so the callee always gets a bank.
        """
        self.banks.stats.xfers += 1
        if self.sbank is None:
            self.sbank = self._acquire(BankRole.STACK, None)
        caller_lbank = self.lbank
        self.lbank = self.sbank
        self.lbank.rebind(BankRole.LOCAL, callee_frame, self.banks.next_seq())
        self.lbank.dirty.update(range(min(arg_words, self.lbank.size)))
        self.sbank = self._acquire(BankRole.STACK, None)
        return caller_lbank

    def on_return(self, caller_frame: object, caller_bank: Bank | None) -> None:
        """The return pattern: free current L, restore the caller's.

        If the caller's bank was reclaimed in the meantime (or the return
        came through the general scheme and no bank is known), this is an
        *underflow*: a free bank is assigned and filled from the frame.
        The stack bank stays put — the results ride it back to the caller.
        """
        self.banks.stats.xfers += 1
        if self.lbank is not None:
            self.lbank.release()
            self.banks.stats.releases += 1
        if caller_bank is not None and caller_bank.frame is caller_frame:
            self.lbank = caller_bank
        else:
            # The return-stack entry may have been flushed while the bank
            # survived; only a truly bankless frame is an underflow.
            existing = self.bank_of(caller_frame)
            if existing is not None:
                self.lbank = existing
            else:
                self.banks.stats.underflows += 1
                self.lbank = self._acquire(BankRole.LOCAL, caller_frame)
                self._fill(self.lbank, caller_frame)

    def on_resume(self, frame: object) -> None:
        """General XFER into a frame context (coroutine, process switch).

        The frame gets a shadowing bank (underflow fill if none), and a
        fresh stack bank is assigned.
        """
        self.banks.stats.xfers += 1
        existing = self.bank_of(frame)
        if existing is not None:
            self.lbank = existing
        else:
            self.banks.stats.underflows += 1
            self.lbank = self._acquire(BankRole.LOCAL, frame)
            self._fill(self.lbank, frame)
        if self.sbank is None or self.sbank.role is not BankRole.STACK:
            self.sbank = self._acquire(BankRole.STACK, None)

    def flush_all(self) -> None:
        """The fallback: "all the banks are flushed into storage"."""
        for bank in self.banks:
            if bank.role is BankRole.LOCAL:
                self._spill(bank)
                bank.release()
            elif bank.role is BankRole.STACK:
                bank.release()
        self.lbank = None
        self.sbank = None

    def release_frame_bank(self, frame: object) -> None:
        """Free the bank shadowing *frame* (the frame was freed)."""
        bank = self.bank_of(frame)
        if bank is not None:
            bank.release()
            self.banks.stats.releases += 1

    def bank_of(self, frame: object) -> Bank | None:
        """The bank currently shadowing *frame*, if any."""
        for bank in self.banks:
            if bank.role is BankRole.LOCAL and bank.frame is frame:
                return bank
        return None

    # -- internals ----------------------------------------------------------------

    def _acquire(self, role: BankRole, frame: object | None) -> Bank:
        """Get a bank, spilling the oldest if none is free (an overflow)."""
        bank = self.banks.acquire_free(role, frame)
        if bank is not None:
            return bank
        self.banks.stats.overflows += 1
        exclude = set()
        if self.lbank is not None:
            exclude.add(self.lbank.id)
        if self.sbank is not None:
            exclude.add(self.sbank.id)
        victim = self.banks.oldest(exclude)
        if victim.role is BankRole.LOCAL:
            self._spill(victim)
        victim.release()
        bank = self.banks.acquire_free(role, frame)
        assert bank is victim
        return bank


def figure3(banks: BankFile | None = None) -> list[tuple[str, int, int]]:
    """Figure 3's eight rows: ``(event, lbank, sbank)`` after each of
    begin X, call A, return, call B, call C, return, call D, return,
    with banks numbered from 1 as the figure numbers them.

    A bare manager over *banks* (four 16-word banks by default) runs the
    sequence, and each row reads its two registers; spills and fills
    move nothing, as Figure 3 draws no memory.
    """
    if banks is None:
        banks = BankFile(4, 16)
    manager = BankManager(banks, spill=lambda bank: None, fill=lambda bank, frame: None)
    x, a, b, c, d = (object() for _ in "XABCD")
    rows = []

    def row(event: str) -> None:
        rows.append((event, manager.lbank.id + 1, manager.sbank.id + 1))

    manager.begin(x)
    row("begin X")
    caller = manager.on_call(a)
    row("call A")
    manager.on_return(x, caller)
    row("return")
    manager.on_call(b)
    row("call B")
    caller = manager.on_call(c)
    row("call C")
    manager.on_return(b, caller)
    row("return")
    caller = manager.on_call(d)
    row("call D")
    manager.on_return(b, caller)
    row("return")
    return rows
