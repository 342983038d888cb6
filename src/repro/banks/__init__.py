"""Fast local variables and parameters (section 7, implementation I4).

The processor has "a small number of register banks (say 4-8) of some
modest fixed size (say 16 words)", each able to shadow the first words of
a local frame:

* :mod:`repro.banks.bankfile` — the banks themselves, with dirty-word
  tracking ("keep track of which registers have been written, to avoid
  the cost of dumping registers which have never been written");
* :mod:`repro.banks.renaming` — the stack-bank renaming of section 7.2
  and Figure 3, which makes argument passing "essentially free";
* :mod:`repro.banks.deferred` — the free-frame stack and deferred frame
  allocation of section 7.1 ("95% of the time there will be no
  allocation at all");
* :mod:`repro.banks.pointers` — the section 7.4 policies for pointers to
  local variables (avoidance, flagged frames, reference diversion).
"""

from repro.banks.bankfile import Bank, BankFile, BankRole, BankStats
from repro.banks.deferred import FastFrameStack
from repro.banks.pointers import PointerPolicy, divert_lookup
from repro.banks.renaming import BankManager

__all__ = [
    "Bank",
    "BankFile",
    "BankManager",
    "BankRole",
    "BankStats",
    "FastFrameStack",
    "PointerPolicy",
    "divert_lookup",
]
