"""Global frame layout and placement (section 5.1).

A module instance's global frame holds, "in addition to the global
variables of the instance, ... the code base; this is an application of
point (3) above" (several table entries sharing a common part).  Our
layout, in words from the frame base:

====  =======================================================
word  contents
====  =======================================================
0     code base (byte address of the module's code segment)
1     link vector base (word address of this module's LV)
2     module instance id (diagnostics; a real GF has a flag word)
3..   global variables
====  =======================================================

Global frames are quad-aligned inside a dedicated region so that GFT
entries have their two bias bits free.
"""

from __future__ import annotations

from repro.errors import LinkError
from repro.machine.memory import Memory
from repro.mesa.tables import GF_ALIGNMENT

#: Header words before the globals.
GF_HEADER_WORDS = 3

#: Header field offsets.
GF_CODE_BASE = 0
GF_LINK_VECTOR = 1
GF_MODULE_ID = 2


class GlobalFrameBuilder:
    """Places global frames, quad-aligned, inside a memory region.

    The builder is a link-time object: placement writes use the uncounted
    loader interface.  Run-time access to a placed frame goes through the
    counted helpers below.
    """

    def __init__(self, memory: Memory, base: int, words: int) -> None:
        self.memory = memory
        self.base = base
        self.limit = base + words
        self._cursor = _align_up(base, GF_ALIGNMENT)

    def place(self, code_base: int, lv_base: int, module_id: int, global_words: int) -> int:
        """Allocate and initialize one global frame; returns its address."""
        size = GF_HEADER_WORDS + global_words
        address = self._cursor
        if address + size > self.limit:
            raise LinkError(
                f"global frame region exhausted placing {size} words at "
                f"{address:#x}"
            )
        self._cursor = _align_up(address + size, GF_ALIGNMENT)
        self.memory.poke(address + GF_CODE_BASE, code_base)
        self.memory.poke(address + GF_LINK_VECTOR, lv_base)
        self.memory.poke(address + GF_MODULE_ID, module_id)
        for offset in range(global_words):
            self.memory.poke(address + GF_HEADER_WORDS + offset, 0)
        return address


def read_code_base(memory: Memory, gf_address: int) -> int:
    """Run-time counted read of a global frame's code base."""
    return memory.read(gf_address + GF_CODE_BASE)


def _align_up(value: int, alignment: int) -> int:
    remainder = value % alignment
    return value if remainder == 0 else value + alignment - remainder
