"""Property tests: BankManager invariants under random event streams.

Whatever interleaving of calls, returns, resumes, and flushes occurs,
the bank file must satisfy:

* at most one bank shadows any given frame;
* the current Lbank (when set) shadows the current frame, and a call
  always sets it: the callee is shadowed even after a flush;
* the current Sbank (when set) has the STACK role;
* free banks carry no frame binding;
* spilled banks always belonged to LOCAL frames (stack contents are
  never written to storage as such).
"""

from hypothesis import given, settings, strategies as st

from repro.banks.bankfile import BankFile, BankRole
from repro.banks.renaming import BankManager


class Frame:
    counter = 0

    def __init__(self):
        Frame.counter += 1
        self.id = Frame.counter

    def __repr__(self):
        return f"F{self.id}"


def check_invariants(manager: BankManager, current_frame) -> None:
    seen_frames = []
    for bank in manager.banks:
        if bank.role is BankRole.FREE:
            assert bank.frame is None
        if bank.role is BankRole.LOCAL:
            assert bank.frame is not None
            assert all(bank.frame is not other for other in seen_frames)
            seen_frames.append(bank.frame)
        if bank.role is BankRole.STACK:
            assert bank.frame is None
    if manager.lbank is not None and current_frame is not None:
        assert manager.lbank.frame is current_frame
    if manager.sbank is not None:
        assert manager.sbank.role is BankRole.STACK


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=3, max_value=8),
    st.lists(st.integers(min_value=0, max_value=99), min_size=1, max_size=80),
)
def test_invariants_hold_under_random_streams(banks, choices):
    file = BankFile(banks, 8)
    spilled_roles = []
    manager = BankManager(
        file,
        spill=lambda bank: spilled_roles.append(bank.role),
        fill=lambda bank, frame: None,
    )
    root = Frame()
    manager.begin(root)
    chain = [(root, None)]
    suspended: list[list] = []
    current = root
    for choice in choices:
        action = choice % 5
        if action in (0, 1):  # call (weighted: calls dominate)
            frame = Frame()
            caller_bank = manager.on_call(frame)
            assert manager.lbank is not None and manager.lbank.frame is frame
            chain[-1] = (chain[-1][0], caller_bank)
            chain.append((frame, None))
            current = frame
        elif action == 2:  # return (if possible)
            if len(chain) > 1:
                chain.pop()
                caller, bank = chain[-1]
                manager.on_return(caller, bank)
                current = caller
        elif action == 3:  # the fallback: flush every bank
            manager.flush_all()
            assert all(bank.role is BankRole.FREE for bank in file)
        else:  # coroutine switch
            suspended.append(chain)
            if len(suspended) > 1 and choice % 2:
                chain = suspended.pop(0)
            else:
                chain = [(Frame(), None)]
            manager.on_resume(chain[-1][0])
            current = chain[-1][0]
        check_invariants(manager, current)
    # Only LOCAL banks are ever spilled.
    assert all(role is BankRole.LOCAL for role in spilled_roles)
    # Final full flush leaves everything free.
    manager.flush_all()
    assert all(bank.role is BankRole.FREE for bank in file)
