"""Fetch-speed classification: is this transfer as fast as a jump?

Section 6's headline: calls and returns "can be as fast as unconditional
jumps at least 95% of the time".  The operational meaning: the IFU can
compute the next fetch address without waiting for data memory.

* ``DIRECTCALL`` / ``SHORTDIRECTCALL`` — yes: the target is a literal (or
  PC-relative) operand, "the IFU can treat a DIRECTCALL just like an
  unconditional jump".
* A return with a **return-stack hit** — yes: the PC comes out of IFU
  registers.
* ``EXTERNALCALL`` / ``LOCALCALL`` — no: the target address emerges only
  after the table reads of Figure 1.
* A return-stack **miss**, and any general ``XFER`` — no: the PC comes
  from the frame in memory.

:class:`FetchStats` tallies transfers along those lines; benchmark C5
reads the jump-speed fraction off it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.machine.costs import CycleCounter, Event


class TransferKind(enum.Enum):
    """The dynamic classification of a control transfer."""

    EXTERNAL_CALL = "external_call"
    LOCAL_CALL = "local_call"
    DIRECT_CALL = "direct_call"
    SHORT_DIRECT_CALL = "short_direct_call"
    RETURN = "return"
    XFER = "xfer"  # general transfer (coroutines, traps)
    PROCESS_SWITCH = "process_switch"

    # Identity hash, as for Event: every call and return indexes a
    # FetchStats bucket (and the JIT's call cells) by a member.
    __hash__ = object.__hash__


#: Call kinds whose target the IFU knows without data reads.
FAST_CALLS = frozenset({TransferKind.DIRECT_CALL, TransferKind.SHORT_DIRECT_CALL})


@dataclass
class FetchStats:
    """Per-run tally of transfers, split fast (jump-speed) vs slow."""

    fast: dict[TransferKind, int] = field(default_factory=dict)
    slow: dict[TransferKind, int] = field(default_factory=dict)

    def record(
        self,
        kind: TransferKind,
        fast: bool,
        counter: CycleCounter | None = None,
    ) -> None:
        """Tally one transfer; optionally count it on the cycle counter."""
        bucket = self.fast if fast else self.slow
        bucket[kind] = bucket.get(kind, 0) + 1
        if counter is not None:
            counter.counts[Event.FAST_TRANSFER if fast else Event.SLOW_TRANSFER] += 1

    @staticmethod
    def call_is_fast(kind: TransferKind) -> bool:
        """Whether a call of *kind* fetches at jump speed."""
        return kind in FAST_CALLS

    # -- derived metrics -----------------------------------------------------

    def total(self) -> int:
        return sum(self.fast.values()) + sum(self.slow.values())

    def total_fast(self) -> int:
        return sum(self.fast.values())

    @property
    def jump_speed_fraction(self) -> float:
        """The C5 number: fraction of all transfers fetched at jump speed."""
        total = self.total()
        return self.total_fast() / total if total else 0.0

    def calls_and_returns(self) -> int:
        """Transfers that are simple calls or returns (the paper's universe)."""
        keys = {
            TransferKind.EXTERNAL_CALL,
            TransferKind.LOCAL_CALL,
            TransferKind.DIRECT_CALL,
            TransferKind.SHORT_DIRECT_CALL,
            TransferKind.RETURN,
        }
        return sum(count for kind, count in self.fast.items() if kind in keys) + sum(
            count for kind, count in self.slow.items() if kind in keys
        )

    @property
    def call_return_jump_speed_fraction(self) -> float:
        """Jump-speed fraction restricted to simple calls and returns.

        This is the claim as the paper states it: "simple Pascal-style
        calls and returns can be ... as fast as unconditional jumps at
        least 95% of the time" — coroutine and process transfers are
        outside the claim's universe.
        """
        keys = {
            TransferKind.EXTERNAL_CALL,
            TransferKind.LOCAL_CALL,
            TransferKind.DIRECT_CALL,
            TransferKind.SHORT_DIRECT_CALL,
            TransferKind.RETURN,
        }
        universe = self.calls_and_returns()
        if universe == 0:
            return 0.0
        fast = sum(count for kind, count in self.fast.items() if kind in keys)
        return fast / universe

    def summary(self) -> dict[str, float]:
        """Plain-dict summary for report tables."""
        return {
            "transfers": float(self.total()),
            "fast": float(self.total_fast()),
            "jump_speed_fraction": self.jump_speed_fraction,
            "call_return_jump_speed_fraction": self.call_return_jump_speed_fraction,
        }
