"""Tests for stack-bank renaming — including the exact Figure 3 rows."""

from repro.banks.bankfile import Bank, BankFile, BankRole
from repro.banks.renaming import BankManager, figure3


class Frame:
    """A stand-in activation."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return self.name


def manager_with_log(banks=4, bank_words=16):
    file = BankFile(banks, bank_words)
    # Banks are rebound after a spill, so log the *frame* at spill time.
    spilled: list[object] = []
    filled: list[tuple[Bank, object]] = []
    manager = BankManager(
        file,
        spill=lambda bank: spilled.append(bank.frame),
        fill=lambda bank, frame: filled.append((bank, frame)),
    )
    return manager, file, spilled, filled


def test_figure_3_exact_assignment_sequence():
    """Reproduce Figure 3: begin X, call A, return, call B, call C,
    return, call D, return, with 4 banks, reading the manager's two
    registers after each event.

    Paper (1-indexed): Lbank = 1,2,1,3,2,3,4,3 and Sbank = 2,3,3,2,4,4,2,2.
    Our banks are 0-indexed, so expect L = 0,1,0,2,1,2,3,2 and
    S = 1,2,2,1,3,3,1,1.
    """
    manager, _, spilled, _ = manager_with_log(banks=4)
    x, a, b, c, d = (Frame(n) for n in "XABCD")
    rows = []

    def read():
        rows.append((manager.lbank.id, manager.sbank.id))

    manager.begin(x)
    read()
    bank_x = manager.lbank
    caller_a = manager.on_call(a)
    read()
    manager.on_return(x, caller_a)
    read()
    manager.on_call(b)
    read()
    caller_c = manager.on_call(c)
    read()
    manager.on_return(b, caller_c)
    read()
    caller_d = manager.on_call(d)
    read()
    manager.on_return(b, caller_d)
    read()

    lbanks, sbanks = (list(column) for column in zip(*rows))
    assert lbanks == [0, 1, 0, 2, 1, 2, 3, 2]
    assert sbanks == [1, 2, 2, 1, 3, 3, 1, 1]
    # Bank 1 (paper's bank 1) holds X's frame throughout.
    assert bank_x.frame is x
    # Nothing was ever spilled: four banks suffice for this pattern.
    assert spilled == []


def test_figure3_driver_prints_the_papers_rows():
    """``figure3()``, which ``repro verify`` and F3 print, numbers banks
    from 1 as the figure does."""
    assert figure3() == [
        ("begin X", 1, 2),
        ("call A", 2, 3),
        ("return", 1, 3),
        ("call B", 3, 2),
        ("call C", 2, 4),
        ("return", 3, 4),
        ("call D", 4, 2),
        ("return", 3, 2),
    ]


def test_renaming_moves_no_data():
    """Section 7.2: "the arguments will automatically appear as the
    first few local variables, without any actual data movement"."""
    manager, file, _, _ = manager_with_log()
    root = Frame("root")
    manager.begin(root)
    # Load two arguments onto the stack bank.
    sbank = manager.sbank
    sbank.words[0] = 111
    sbank.words[1] = 222
    callee = Frame("callee")
    manager.on_call(callee, arg_words=2)
    # The same physical bank, now the callee's local bank.
    assert manager.lbank is sbank
    assert manager.lbank.frame is callee
    assert manager.lbank.words[:2] == [111, 222]
    # The argument words are dirty (live in registers, not yet in memory).
    assert {0, 1} <= manager.lbank.dirty


def test_overflow_spills_oldest_local_bank():
    manager, file, spilled, _ = manager_with_log(banks=3)
    root = Frame("root")
    manager.begin(root)
    manager.on_call(Frame("a"))  # uses the last free bank for the stack
    manager.on_call(Frame("b"))  # no free bank: spill the oldest (root's)
    assert file.stats.overflows == 1
    assert spilled == [root]


def test_return_after_spill_is_an_underflow():
    manager, file, spilled, filled = manager_with_log(banks=3)
    frames = [Frame(f"f{i}") for i in range(4)]
    manager.begin(frames[0])
    callers = [None]
    for frame in frames[1:]:
        callers.append(manager.on_call(frame))
    assert file.stats.overflows > 0
    # Return down the chain: eventually we reach a frame whose bank was
    # reclaimed, forcing a fill.
    for index in range(len(frames) - 1, 0, -1):
        manager.on_return(frames[index - 1], callers[index])
    assert file.stats.underflows > 0
    assert any(frame is frames[0] for _, frame in filled)


def test_on_return_finds_surviving_bank_without_entry():
    """A flushed return-stack entry loses the bank pointer, but if the
    bank itself survived the return must not count as an underflow."""
    manager, file, _, filled = manager_with_log(banks=4)
    root = Frame("root")
    manager.begin(root)
    manager.on_call(Frame("leaf"))
    manager.on_return(root, None)  # no caller_bank hint
    assert file.stats.underflows == 0
    assert manager.lbank.frame is root
    assert not filled


def test_on_resume_existing_bank():
    manager, file, _, filled = manager_with_log(banks=4)
    a, b = Frame("a"), Frame("b")
    manager.begin(a)
    manager.on_call(b)
    # Coroutine-style resume of a, whose bank is still assigned.
    manager.on_resume(a)
    assert manager.lbank.frame is a
    assert file.stats.underflows == 0
    assert not filled


def test_on_resume_without_bank_fills():
    manager, file, _, filled = manager_with_log(banks=4)
    a = Frame("a")
    manager.begin(a)
    stranger = Frame("stranger")
    manager.on_resume(stranger)
    assert manager.lbank.frame is stranger
    assert file.stats.underflows == 1
    assert filled and filled[0][1] is stranger


def test_flush_all_spills_locals_and_frees_everything():
    manager, file, spilled, _ = manager_with_log(banks=4)
    a = Frame("a")
    manager.begin(a)
    manager.on_call(Frame("b"))
    manager.flush_all()
    assert manager.lbank is None and manager.sbank is None
    assert all(bank.role is BankRole.FREE for bank in file)
    assert len(spilled) == 2  # both local banks


def test_a_call_after_a_flush_gives_the_callee_a_bank():
    """A flush leaves no stack bank: the call acquires one and renames
    it, so the callee never runs without a bank."""
    manager, file, _, _ = manager_with_log(banks=4)
    manager.begin(Frame("a"))
    manager.flush_all()
    callee = Frame("b")
    assert manager.on_call(callee, arg_words=1) is None  # the caller's bank was flushed
    assert manager.lbank.frame is callee
    assert manager.lbank.dirty == {0}
    assert manager.sbank.role is BankRole.STACK
    assert file.stats.overflows == 0


def test_release_frame_bank():
    manager, file, _, _ = manager_with_log()
    a = Frame("a")
    manager.begin(a)
    manager.release_frame_bank(a)
    assert manager.bank_of(a) is None


def test_bank_of():
    manager, _, _, _ = manager_with_log()
    a = Frame("a")
    manager.begin(a)
    assert manager.bank_of(a) is manager.lbank
    assert manager.bank_of(Frame("x")) is None
