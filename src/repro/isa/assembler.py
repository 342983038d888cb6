"""A symbolic assembler for procedure bodies.

The compiler's code generator (and hand-written tests and examples) build
procedure bodies through this class rather than concatenating raw bytes:
it handles labels, PC-relative jump displacements, and automatic jump
sizing (short one-byte displacement forms where they reach, word forms
where they don't — the encoding's space economy depends on short forms
being used whenever possible).

Jump displacements are relative to the address *after* the jump
instruction, the usual convention for byte-coded machines.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AssemblyError
from repro.isa.instruction import Instruction, encode
from repro.isa.opcodes import Op, instruction_length

#: Short-form jump -> long-form jump, for automatic widening.
_WIDEN: dict[Op, Op] = {Op.JB: Op.JW, Op.JZB: Op.JZW, Op.JNZB: Op.JNZW}

_S8_RANGE = (-0x80, 0x7F)
_S16_RANGE = (-0x8000, 0x7FFF)


@dataclass
class Label:
    """A position in the body being assembled; bound by :meth:`Assembler.bind`."""

    name: str
    offset: int | None = None

    @property
    def bound(self) -> bool:
        return self.offset is not None


@dataclass
class _Fixed:
    """An already-encoded instruction (no label involvement)."""

    instruction: Instruction

    def length(self) -> int:
        return self.instruction.length


@dataclass
class _Jump:
    """A jump to a label; starts short and widens if the span demands it."""

    op: Op
    target: Label
    widened: bool = False

    def current_op(self) -> Op:
        return _WIDEN[self.op] if self.widened else self.op

    def length(self) -> int:
        return instruction_length(self.current_op())


@dataclass
class _Bind:
    """A label binding point (zero length)."""

    label: Label

    def length(self) -> int:
        return 0


class Assembler:
    """Accumulates instructions and labels; :meth:`assemble` produces bytes.

    Typical use::

        asm = Assembler()
        top = asm.new_label("top")
        asm.bind(top)
        asm.emit(Op.LL0)
        asm.emit(Op.LI1)
        asm.emit(Op.SUB)
        asm.emit(Op.SL0)
        asm.jump(Op.JNZB, top)
        asm.emit(Op.RET)
        body = asm.assemble()
    """

    def __init__(self) -> None:
        self._items: list[_Fixed | _Jump | _Bind] = []
        self._labels: list[Label] = []

    def new_label(self, name: str = "") -> Label:
        """Create an (unbound) label."""
        label = Label(name or f"L{len(self._labels)}")
        self._labels.append(label)
        return label

    def bind(self, label: Label) -> None:
        """Bind *label* to the current position."""
        if any(isinstance(item, _Bind) and item.label is label for item in self._items):
            raise AssemblyError(f"label {label.name!r} bound twice")
        self._items.append(_Bind(label))

    def emit(self, op: Op, operand: int = 0) -> None:
        """Append one non-jump instruction."""
        if op in _WIDEN:
            raise AssemblyError(f"use jump() for {op.name}, not emit()")
        self._items.append(_Fixed(Instruction(op, operand)))

    def jump(self, op: Op, target: Label) -> None:
        """Append a jump to *target*; the short/long form is chosen later.

        *op* must be a short-form jump opcode (JB, JZB, JNZB); the
        assembler widens it to the word form automatically when the
        displacement does not fit a signed byte.
        """
        if op not in _WIDEN:
            raise AssemblyError(f"{op.name} is not a sizable jump opcode")
        self._items.append(_Jump(op, target))

    def emit_instruction(self, instruction: Instruction) -> None:
        """Append a pre-built instruction (no label resolution)."""
        self._items.append(_Fixed(instruction))

    def assemble(self) -> bytes:
        """Resolve labels and jump sizes; return the body bytes.

        Sizing iterates to a fixpoint: every pass lays out the items with
        the current short/long choices, then widens any short jump whose
        displacement overflows a signed byte.  Widening only ever grows
        instructions, so the iteration terminates.
        """
        for _ in range(len(self._items) + 2):
            offsets = self._layout()
            if not self._widen_pass(offsets):
                return self._encode(offsets)
        raise AssemblyError("jump sizing failed to converge")  # pragma: no cover

    # -- internals ---------------------------------------------------------------

    def _layout(self) -> list[int]:
        """Offsets of each item under current size choices; binds labels."""
        offsets: list[int] = []
        position = 0
        for item in self._items:
            offsets.append(position)
            if isinstance(item, _Bind):
                item.label.offset = position
            position += item.length()
        return offsets

    def _displacement(self, item: _Jump, offset: int) -> int:
        if not item.target.bound:
            raise AssemblyError(f"jump to unbound label {item.target.name!r}")
        return item.target.offset - (offset + item.length())

    def _widen_pass(self, offsets: list[int]) -> bool:
        """Widen overflowing short jumps; return True if anything changed."""
        changed = False
        for item, offset in zip(self._items, offsets, strict=True):
            if isinstance(item, _Jump) and not item.widened:
                displacement = self._displacement(item, offset)
                if not _S8_RANGE[0] <= displacement <= _S8_RANGE[1]:
                    item.widened = True
                    changed = True
        return changed

    def _encode(self, offsets: list[int]) -> bytes:
        body = bytearray()
        for item, offset in zip(self._items, offsets, strict=True):
            if isinstance(item, _Bind):
                continue
            if isinstance(item, _Jump):
                displacement = self._displacement(item, offset)
                low, high = _S16_RANGE if item.widened else _S8_RANGE
                if not low <= displacement <= high:
                    raise AssemblyError(
                        f"jump displacement {displacement} exceeds even the "
                        "word form"
                    )
                body.extend(encode(Instruction(item.current_op(), displacement)))
            else:
                body.extend(encode(item.instruction))
        return bytes(body)


def assemble(items: list[Instruction]) -> bytes:
    """Encode a straight-line sequence (no labels) to bytes."""
    body = bytearray()
    for instruction in items:
        body.extend(encode(instruction))
    return bytes(body)


def load_local(index: int) -> Instruction:
    """The shortest load-local form for *index* (LL0..LL7 or LLB n)."""
    if 0 <= index < 8:
        return Instruction(Op(int(Op.LL0) + index))
    return Instruction(Op.LLB, index)


def store_local(index: int) -> Instruction:
    """The shortest store-local form for *index* (SL0..SL7 or SLB n)."""
    if 0 <= index < 8:
        return Instruction(Op(int(Op.SL0) + index))
    return Instruction(Op.SLB, index)


def load_immediate(value: int) -> Instruction:
    """The shortest push-literal form for *value*."""
    if value == -1:
        return Instruction(Op.LIN1)
    if 0 <= value <= 7:
        return Instruction(Op(int(Op.LI0) + value))
    if 0 <= value <= 0xFF:
        return Instruction(Op.LIB, value)
    return Instruction(Op.LIW, value & 0xFFFF)


def external_call(lv_index: int) -> Instruction:
    """The shortest external-call form (EFC0..EFC7 or EFCB n).

    Section 5.1: one-byte opcodes cover the most frequent targets; "a
    single opcode with a one byte address field allows 256 procedures to
    be called in two bytes".
    """
    if 0 <= lv_index < 8:
        return Instruction(Op(int(Op.EFC0) + lv_index))
    return Instruction(Op.EFCB, lv_index)
