"""Unit tests for the register bank file (section 7.1)."""

import pytest

from repro.banks.bankfile import Bank, BankFile, BankRole
from repro.machine.costs import CycleCounter, Event


def test_needs_three_banks():
    with pytest.raises(ValueError):
        BankFile(banks=2)
    with pytest.raises(ValueError):
        BankFile(banks=4, bank_words=0)


def test_acquire_and_release():
    banks = BankFile(4)
    taken = [banks.acquire_free(BankRole.LOCAL, frame=i) for i in range(4)]
    assert all(isinstance(bank, Bank) for bank in taken)
    assert banks.acquire_free(BankRole.LOCAL) is None  # all busy
    taken[1].release()
    again = banks.acquire_free(BankRole.STACK)
    assert again is taken[1]
    assert again.role is BankRole.STACK


def test_read_write_counted_as_registers():
    counter = CycleCounter()
    banks = BankFile(4, 16, counter)
    bank = banks.acquire_free(BankRole.LOCAL)
    banks.write(bank, 3, 77)
    assert banks.read(bank, 3) == 77
    assert counter.count(Event.REGISTER_WRITE) == 1
    assert counter.count(Event.REGISTER_READ) == 1
    assert counter.count(Event.MEMORY_READ) == 0


def test_words_wrap_to_16_bits():
    banks = BankFile(4)
    bank = banks.acquire_free(BankRole.LOCAL)
    banks.write(bank, 0, -1)
    assert banks.read(bank, 0) == 0xFFFF


def test_dirty_tracking_limits_spills():
    """"keep track of which registers have been written, to avoid the
    cost of dumping registers which have never been written"."""
    banks = BankFile(4, 16)
    bank = banks.acquire_free(BankRole.LOCAL)
    banks.write(bank, 2, 22)
    banks.write(bank, 5, 55)
    pairs = banks.spill_words(bank)
    assert pairs == [(2, 22), (5, 55)]
    # Spilling clears the dirty set.
    assert banks.spill_words(bank) == []


def test_spill_without_dirty_tracking_dumps_all():
    banks = BankFile(4, 8, track_dirty=False)
    bank = banks.acquire_free(BankRole.LOCAL)
    banks.write(bank, 1, 11)
    pairs = banks.spill_words(bank)
    assert len(pairs) == 8


def test_fill_loads_and_clears_dirty():
    banks = BankFile(4, 8)
    bank = banks.acquire_free(BankRole.LOCAL)
    banks.write(bank, 0, 1)
    banks.fill(bank, [7, 8, 9])
    assert bank.words[:3] == [7, 8, 9]
    assert not bank.dirty
    assert banks.stats.words_filled == 3


def test_oldest_selection_excludes():
    banks = BankFile(4)
    first = banks.acquire_free(BankRole.LOCAL, "a")
    second = banks.acquire_free(BankRole.LOCAL, "b")
    third = banks.acquire_free(BankRole.STACK)
    assert banks.oldest(exclude=set()) is first
    assert banks.oldest(exclude={first.id}) is second
    assert banks.oldest(exclude={first.id, second.id}) is third


def test_oldest_with_everything_excluded():
    banks = BankFile(3)
    a = banks.acquire_free(BankRole.LOCAL)
    with pytest.raises(RuntimeError):
        banks.oldest(exclude={a.id})


def test_rebind_keeps_contents():
    """Renaming relies on rebind NOT clearing the words: the old stack
    contents become the new frame's first locals."""
    banks = BankFile(4)
    bank = banks.acquire_free(BankRole.STACK)
    bank.words[0] = 42
    bank.rebind(BankRole.LOCAL, "frame", banks.next_seq())
    assert bank.words[0] == 42
    assert bank.role is BankRole.LOCAL


def test_release_clears_binding():
    """"its contents are unimportant, and never need to be saved" — but
    the binding must go."""
    banks = BankFile(4)
    bank = banks.acquire_free(BankRole.LOCAL, "f")
    bank.dirty.add(3)
    bank.release()
    assert bank.role is BankRole.FREE
    assert bank.frame is None
    assert not bank.dirty


def test_overflow_rate_property():
    banks = BankFile(4)
    assert banks.stats.overflow_rate == 0.0
    banks.stats.xfers = 100
    banks.stats.overflows = 3
    banks.stats.underflows = 2
    assert banks.stats.overflow_rate == 0.05
