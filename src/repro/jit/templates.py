"""Per-opcode templates and classification tables for the block compiler.

Every opcode is classified one of three ways:

* **inline** — the compiler knows a host-Python template that replays
  the opcode's exact semantics *and* exact meter charges (the charge
  schedule is additive, so per-op charges are accumulated at compile
  time, and each block exit counts their sum with one hit on its
  exit-table slot).
* **tail** — the opcode ends a compiled block and is executed through
  the interpreter's own handler (control transfers, storage
  management, anything whose charge schedule is data-dependent).
  Call sites and returns may additionally get a specialized fast path
  from :mod:`repro.jit.calls`.
* **deopt** — the opcode is inline in principle but this machine
  configuration makes it data-dependent (diverted RD/WR, banked local
  beyond the bank window), so the template is an unconditional
  deoptimization to the interpreter.

The tables below are consumed by :mod:`repro.jit.compile`; expression
templates use ``{a}``/``{b}`` for the popped operands.
"""

from __future__ import annotations

from repro.banks.pointers import PointerPolicy
from repro.check.effects import FIXED_EFFECTS, SHORT_LOCAL_SLOTS
from repro.isa.opcodes import CALL_OPS, Op

#: Opcodes that unconditionally end a compiled block and run through the
#: interpreter's dispatch handler.  RD/WR join this set when the machine
#: diverts pointers through the bank file (see :func:`tail_ops`).
BASE_TAIL_OPS: frozenset[Op] = frozenset(
    {
        Op.HALT,
        Op.BRK,
        Op.LLA,  # materializes the frame; address depends on allocation
        Op.RET,
        Op.XF,
        Op.LRC,
        Op.LLC,
        Op.YIELD,
        Op.RETAIN,
        Op.ALOC,
        Op.FREE,
        *CALL_OPS,
    }
)

#: Conditional jumps and their taken-sense (True: jump when zero).
COND_JUMPS: dict[Op, bool] = {
    Op.JZB: True,
    Op.JZW: True,
    Op.JNZB: False,
    Op.JNZW: False,
}

#: Unconditional jumps.
UNCOND_JUMPS: frozenset[Op] = frozenset({Op.JB, Op.JW})

#: Constant pushed by each immediate opcode (LIB/LIW push their operand).
PUSH_CONST: dict[Op, int] = {
    Op.LIN1: 0xFFFF,
    Op.LI0: 0,
    Op.LI1: 1,
    Op.LI2: 2,
    Op.LI3: 3,
    Op.LI4: 4,
    Op.LI5: 5,
    Op.LI6: 6,
    Op.LI7: 7,
}

#: Local-variable index for the short load/store forms (LLB/SLB use
#: their operand byte): the verifier's slots, split by whether the
#: opcode pushes the local or pops into it.
LOCAL_LOAD: dict[Op, int] = {
    op: slot for op, slot in SHORT_LOCAL_SLOTS.items() if FIXED_EFFECTS[op] == (0, 1)
}
LOCAL_STORE: dict[Op, int] = {
    op: slot for op, slot in SHORT_LOCAL_SLOTS.items() if FIXED_EFFECTS[op] == (1, 0)
}

#: Unsigned/modular binary ops: the 16-bit result is congruent to the
#: host-int result, so signed decode + re-encode folds to one mask.
BINARY_MODULAR: dict[Op, str] = {
    Op.ADD: "({a} + {b}) & 65535",
    Op.SUB: "({a} - {b}) & 65535",
    Op.MUL: "({a} * {b}) & 65535",
    Op.AND: "{a} & {b}",
    Op.OR: "{a} | {b}",
    Op.XOR: "{a} ^ {b}",
    Op.SHL: "({a} << ({b} & 15)) & 65535",
    Op.SHR: "{a} >> ({b} & 15)",
}

#: Comparisons on decoded signed values.
COMPARE_SIGNED: dict[Op, str] = {
    Op.LT: "<",
    Op.LE: "<=",
    Op.GT: ">",
    Op.GE: ">=",
}

#: Comparisons where signed decode is order-preserving on raw words.
COMPARE_RAW: dict[Op, str] = {Op.EQ: "==", Op.NE: "!="}

#: Stack effect of each inline opcode: (words needed on entry, net
#: depth delta), from the verifier's (pops, pushes), so the block entry
#: guard checks exactly the effects it proved.  Tail opcodes are absent
#: — the interpreter handles their stack traffic (including underflow
#: semantics) itself.
STACK_EFFECTS: dict[Op, tuple[int, int]] = {
    op: (pops, pushes - pops)
    for op, (pops, pushes) in FIXED_EFFECTS.items()
    if op not in BASE_TAIL_OPS
}


def tail_ops(config) -> frozenset[Op]:
    """The tail-opcode set for one machine configuration.

    With register banks and the DIVERT pointer policy, RD/WR may route
    through the bank file with data-dependent charges, so they cannot
    be inlined and end the block instead.
    """
    tails = BASE_TAIL_OPS
    if config.bank_count > 0 and config.pointer_policy is PointerPolicy.DIVERT:
        tails = tails | {Op.RD, Op.WR}
    return tails


__all__ = [
    "BASE_TAIL_OPS",
    "BINARY_MODULAR",
    "COMPARE_RAW",
    "COMPARE_SIGNED",
    "COND_JUMPS",
    "LOCAL_LOAD",
    "LOCAL_STORE",
    "PUSH_CONST",
    "STACK_EFFECTS",
    "UNCOND_JUMPS",
    "tail_ops",
]
