"""Opcode definitions for the Mesa-like stack bytecode.

Encoding philosophy (section 5): "It uses instructions which are one, two
or three bytes long; about two-thirds of the instructions compiled for a
large sample of source programs occupy a single byte.  The encoding uses a
stack ... and is heavily optimized for references to local variables."

Accordingly the most common operations get dedicated one-byte opcodes:
loads/stores of the first eight locals, small immediates, arithmetic,
comparisons, and the eight statically most frequent external calls per
module (``EFC0``-``EFC7``).  The byte-length census benchmark (C2 in
DESIGN.md) measures the resulting distribution.

The four-byte ``DFC`` is the deliberate exception: section 6 trades those
extra bytes for jump-speed instruction fetch ("The call instruction is
larger: four bytes instead of one, for a 24-bit program address space").
"""

from __future__ import annotations

import enum


class OperandKind(enum.Enum):
    """How an instruction's operand bytes are interpreted."""

    NONE = "none"  # no operand bytes
    U8 = "u8"  # one unsigned byte
    S8 = "s8"  # one signed byte (PC-relative jumps)
    U16 = "u16"  # two bytes, unsigned, big-endian
    S16 = "s16"  # two bytes, signed, big-endian (SHORTDIRECTCALL)
    A24 = "a24"  # three bytes, unsigned code address (DIRECTCALL)


#: Operand byte counts per kind.
_OPERAND_BYTES: dict[OperandKind, int] = {
    OperandKind.NONE: 0,
    OperandKind.U8: 1,
    OperandKind.S8: 1,
    OperandKind.U16: 2,
    OperandKind.S16: 2,
    OperandKind.A24: 3,
}

#: The full opcode table: (name, operand kind, one-line description).
#: Byte values are assigned by position, so the order is part of the
#: encoding and must not be rearranged once programs are serialized.
_TABLE: list[tuple[str, OperandKind, str]] = [
    ("NOOP", OperandKind.NONE, "do nothing"),
    ("HALT", OperandKind.NONE, "stop the machine; the stack holds results"),
    ("BRK", OperandKind.NONE, "breakpoint trap"),
    # -- immediates ---------------------------------------------------------
    ("LIN1", OperandKind.NONE, "push -1"),
    ("LI0", OperandKind.NONE, "push 0"),
    ("LI1", OperandKind.NONE, "push 1"),
    ("LI2", OperandKind.NONE, "push 2"),
    ("LI3", OperandKind.NONE, "push 3"),
    ("LI4", OperandKind.NONE, "push 4"),
    ("LI5", OperandKind.NONE, "push 5"),
    ("LI6", OperandKind.NONE, "push 6"),
    ("LI7", OperandKind.NONE, "push 7"),
    ("LIB", OperandKind.U8, "push unsigned byte literal"),
    ("LIW", OperandKind.U16, "push 16-bit literal"),
    # -- local variables (frame-relative, the hot path of section 5) --------
    ("LL0", OperandKind.NONE, "push local 0"),
    ("LL1", OperandKind.NONE, "push local 1"),
    ("LL2", OperandKind.NONE, "push local 2"),
    ("LL3", OperandKind.NONE, "push local 3"),
    ("LL4", OperandKind.NONE, "push local 4"),
    ("LL5", OperandKind.NONE, "push local 5"),
    ("LL6", OperandKind.NONE, "push local 6"),
    ("LL7", OperandKind.NONE, "push local 7"),
    ("LLB", OperandKind.U8, "push local n"),
    ("SL0", OperandKind.NONE, "pop into local 0"),
    ("SL1", OperandKind.NONE, "pop into local 1"),
    ("SL2", OperandKind.NONE, "pop into local 2"),
    ("SL3", OperandKind.NONE, "pop into local 3"),
    ("SL4", OperandKind.NONE, "pop into local 4"),
    ("SL5", OperandKind.NONE, "pop into local 5"),
    ("SL6", OperandKind.NONE, "pop into local 6"),
    ("SL7", OperandKind.NONE, "pop into local 7"),
    ("SLB", OperandKind.U8, "pop into local n"),
    ("LLA", OperandKind.U8, "push the address of local n (section 7.4)"),
    # -- global variables ----------------------------------------------------
    ("LG", OperandKind.U8, "push global n of the current module instance"),
    ("SG", OperandKind.U8, "pop into global n"),
    ("LGA", OperandKind.U8, "push the address of global n"),
    # -- indirect memory -----------------------------------------------------
    ("RD", OperandKind.NONE, "pop address, push memory word at it"),
    ("WR", OperandKind.NONE, "pop address, pop value, store value at address"),
    # -- arithmetic / logic ---------------------------------------------------
    ("ADD", OperandKind.NONE, "pop b, pop a, push a + b"),
    ("SUB", OperandKind.NONE, "pop b, pop a, push a - b"),
    ("MUL", OperandKind.NONE, "pop b, pop a, push a * b"),
    ("DIV", OperandKind.NONE, "pop b, pop a, push a div b (signed, trap on 0)"),
    ("MOD", OperandKind.NONE, "pop b, pop a, push a mod b (signed, trap on 0)"),
    ("NEG", OperandKind.NONE, "negate the top of stack"),
    ("AND", OperandKind.NONE, "bitwise and"),
    ("OR", OperandKind.NONE, "bitwise or"),
    ("XOR", OperandKind.NONE, "bitwise xor"),
    ("NOT", OperandKind.NONE, "bitwise complement"),
    ("SHL", OperandKind.NONE, "pop count, pop value, push value << count"),
    ("SHR", OperandKind.NONE, "pop count, pop value, push value >> count (logical)"),
    # -- comparisons (signed; push 1 or 0) -------------------------------------
    ("EQ", OperandKind.NONE, "push a == b"),
    ("NE", OperandKind.NONE, "push a != b"),
    ("LT", OperandKind.NONE, "push a < b (signed)"),
    ("LE", OperandKind.NONE, "push a <= b (signed)"),
    ("GT", OperandKind.NONE, "push a > b (signed)"),
    ("GE", OperandKind.NONE, "push a >= b (signed)"),
    # -- stack manipulation ----------------------------------------------------
    ("DUP", OperandKind.NONE, "duplicate the top of stack"),
    ("POP", OperandKind.NONE, "discard the top of stack"),
    ("EXCH", OperandKind.NONE, "exchange the top two stack words"),
    # -- jumps (PC-relative to the following instruction) ----------------------
    ("JB", OperandKind.S8, "jump by signed byte offset"),
    ("JW", OperandKind.S16, "jump by signed word offset"),
    ("JZB", OperandKind.S8, "pop; jump if zero"),
    ("JNZB", OperandKind.S8, "pop; jump if nonzero"),
    ("JZW", OperandKind.S16, "pop; long jump if zero"),
    ("JNZW", OperandKind.S16, "pop; long jump if nonzero"),
    # -- control transfers -------------------------------------------------------
    ("EFC0", OperandKind.NONE, "external call, link vector index 0"),
    ("EFC1", OperandKind.NONE, "external call, link vector index 1"),
    ("EFC2", OperandKind.NONE, "external call, link vector index 2"),
    ("EFC3", OperandKind.NONE, "external call, link vector index 3"),
    ("EFC4", OperandKind.NONE, "external call, link vector index 4"),
    ("EFC5", OperandKind.NONE, "external call, link vector index 5"),
    ("EFC6", OperandKind.NONE, "external call, link vector index 6"),
    ("EFC7", OperandKind.NONE, "external call, link vector index 7"),
    ("EFCB", OperandKind.U8, "external call, link vector index n"),
    ("LFC", OperandKind.U8, "local call, entry vector index n (same module)"),
    ("DFC", OperandKind.A24, "DIRECTCALL to an absolute code address (section 6)"),
    ("SDFC", OperandKind.S16, "SHORTDIRECTCALL, PC-relative (section 6, D1)"),
    ("RET", OperandKind.NONE, "free the frame; XFER to the return link"),
    ("XF", OperandKind.NONE, "pop a context word; general transfer (section 3)"),
    ("LRC", OperandKind.NONE, "push the returnContext register as a context word"),
    ("LLC", OperandKind.NONE, "push the current context (local frame) word"),
    # -- processes / misc ----------------------------------------------------------
    ("YIELD", OperandKind.NONE, "voluntary process switch (scheduler XFER)"),
    ("OUT", OperandKind.NONE, "pop a word and append it to the machine output"),
    # -- storage management (section 4: retained frames, long records) -----------
    ("RETAIN", OperandKind.NONE, "mark the current frame retained (RETURN won't free it)"),
    ("ALOC", OperandKind.NONE, "pop a word count; allocate a record from the frame heap, push its pointer"),
    ("FREE", OperandKind.NONE, "pop a pointer; free the record or retained frame it denotes"),
]

Op = enum.IntEnum("Op", [(name, index) for index, (name, _, _) in enumerate(_TABLE)])
Op.__doc__ = """Opcode byte values; ``int(op)`` is the encoded byte."""

#: Operand kind of each opcode.
OPERAND_KINDS: dict[Op, OperandKind] = {
    Op[name]: kind for name, kind, _ in _TABLE
}

#: One-line description of each opcode (used by the disassembler).
DESCRIPTIONS: dict[Op, str] = {Op[name]: doc for name, _, doc in _TABLE}

#: The one-byte external-call opcodes, in index order (section 5.1: "There
#: are a number of one-byte opcodes, so that the (statically) most
#: frequently called procedures in a module can be called in a single
#: byte").
SHORT_EFC_OPS: tuple[Op, ...] = (
    Op.EFC0,
    Op.EFC1,
    Op.EFC2,
    Op.EFC3,
    Op.EFC4,
    Op.EFC5,
    Op.EFC6,
    Op.EFC7,
)

#: Opcodes that transfer control to another context.
CALL_OPS: frozenset[Op] = frozenset(
    {*SHORT_EFC_OPS, Op.EFCB, Op.LFC, Op.DFC, Op.SDFC}
)

#: All control-transfer opcodes (calls, return, general XFER, YIELD).
TRANSFER_OPS: frozenset[Op] = frozenset({*CALL_OPS, Op.RET, Op.XF, Op.YIELD})

#: The conditional/unconditional jump opcodes.
JUMP_OPS: frozenset[Op] = frozenset(
    {Op.JB, Op.JW, Op.JZB, Op.JNZB, Op.JZW, Op.JNZW}
)


#: Encoded length in bytes of each opcode's instruction, opcode included
#: (keyed by the int-valued ``Op``, so a lookup hashes in C).
_LENGTHS: dict[Op, int] = {
    op: 1 + _OPERAND_BYTES[kind] for op, kind in OPERAND_KINDS.items()
}


def operand_bytes(op: Op) -> int:
    """Number of operand bytes following the opcode byte."""
    return _LENGTHS[op] - 1


def instruction_length(op: Op) -> int:
    """Total encoded length in bytes, opcode included."""
    return _LENGTHS[op]


def is_call(op: Op) -> bool:
    """True if *op* calls a procedure (allocates a new context)."""
    return op in CALL_OPS


def is_transfer(op: Op) -> bool:
    """True if *op* is any control transfer (call, return, XFER, yield)."""
    return op in TRANSFER_OPS


def short_local_op(base: Op, index: int, limit: int = 8) -> Op | None:
    """Map an index to a one-byte short form (LL0.., SL0.., LI0.., EFC0..).

    Returns None when *index* is out of the short range and the long
    (two-byte) form must be used instead.
    """
    if 0 <= index < limit:
        return Op(int(base) + index)
    return None
