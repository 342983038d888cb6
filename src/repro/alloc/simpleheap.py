"""A conventional first-fit heap, for implementation I1 and long records.

Section 4 says only that "the frame is allocated from a heap"; this module
supplies that unremarkable heap so the I1-versus-I2 comparison has a fair,
measured baseline.  It is a classic boundary-tag-free first-fit allocator
with an in-memory free list, so its (much larger) memory-reference cost is
observed by the cycle counter, not assumed.

Layout
------
* A free block is ``[size, next, ...dead words]`` starting at its base.
* An allocated block is ``[size, ...body]``; the returned pointer addresses
  the body, so the size header sits at ``pointer - 1`` (same convention as
  the AV heap, letting the two interoperate for long argument records).
* Pointers are even-aligned for the context-tag trick: block bases are odd
  and body sizes are rounded up to odd, so every split tail starts odd too.
* ``free`` pushes onto the free-list head; adjacent-block coalescing runs
  as a deferred sweep (``coalesce``), which keeps per-free cost honest for
  the comparison while still bounding fragmentation in long runs.
"""

from __future__ import annotations

from repro.alloc.stats import AllocationStats
from repro.errors import DoubleFree, HeapExhausted
from repro.machine.costs import Event
from repro.machine.memory import WORD_MASK, Memory

#: Minimum words in a block body (a free block needs a next-pointer word;
#: bodies are kept odd-sized for alignment, so the minimum is 3).
MIN_BODY_WORDS = 3

#: Header words per block (the size word).
HEADER_WORDS = 1

_READ = Event.MEMORY_READ
_WRITE = Event.MEMORY_WRITE


class SimpleHeap:
    """First-fit heap over an arena inside the simulated memory.

    The free list head lives in memory at *head_base*, so list traversal
    is counted memory traffic, exactly as it would be on the machine.
    """

    def __init__(self, memory: Memory, head_base: int, arena_base: int, arena_words: int) -> None:
        self.memory = memory
        self.head_base = head_base
        # Block bases are odd so body pointers come out even.
        base = arena_base if arena_base % 2 == 1 else arena_base + 1
        self.arena_base = base
        usable = arena_base + arena_words - base
        if usable < HEADER_WORDS + MIN_BODY_WORDS:
            raise ValueError("arena too small for even one block")
        if usable % 2 == 1:  # body = usable - header must come out odd
            usable -= 1
        self.arena_limit = base + usable
        self.stats = AllocationStats()
        #: Observability sink (repro.obs); None disables emission.
        self.tracer = None
        self._live: dict[int, int] = {}
        # One giant free block.
        memory.poke(base, usable - HEADER_WORDS)  # body size
        memory.poke(base + 1, 0)  # next
        memory.poke(head_base, base)

    # -- public API ----------------------------------------------------------

    def allocate(self, words: int) -> int:
        """First-fit allocate a *words*-word body; return the body pointer.

        When the head block fits with no tail worth splitting off (a
        frame reusing the block the last one freed), its three reads and
        one write cannot fault, and they run inline with the statistics
        updates.
        """
        if words <= 0:
            raise ValueError(f"allocation size must be positive, got {words}")
        if words < MIN_BODY_WORDS:
            words = MIN_BODY_WORDS
        if words % 2 == 0:
            words += 1  # odd bodies keep split-tail bases odd, pointers even
        memory = self.memory
        store = memory._words
        head_base = self.head_base
        block = store[head_base]  # inside memory: the constructor set it
        if 0 < block < memory.size - 1 and (
            words <= store[block] < words + HEADER_WORDS + MIN_BODY_WORDS
        ):
            words = store[block]
            counts = memory.counter.counts
            counts[_READ] += 3
            counts[_WRITE] += 1
            traffic, names, regions = memory.traffic, memory._names, memory._index
            for address in (head_base, block, block + 1, head_base):
                name = names[regions[address]]
                traffic[name] = traffic.get(name, 0) + 1
            store[head_base] = store[block + 1]
        else:
            block, words = self._first_fit(words)
        pointer = block + HEADER_WORDS
        self._live[pointer] = words
        # AllocationStats.on_reuse, then on_allocate (class 0).
        stats = self.stats
        stats.free_list_words -= words + HEADER_WORDS
        stats.allocations += 1
        stats.live_requested_words += words
        stats.live_block_words += words + HEADER_WORDS
        stats.total_requested_words += words
        stats.total_block_words += words + HEADER_WORDS
        per_class = stats.per_class_allocations
        per_class[0] = per_class.get(0, 0) + 1
        footprint = stats.live_block_words + stats.free_list_words
        if footprint > stats.high_water_words:
            stats.high_water_words = footprint
        if self.tracer is not None:
            self.tracer.emit(
                "alloc.frame", "first_fit", pointer=pointer, words=words,
            )
        return pointer

    def _first_fit(self, words: int) -> tuple[int, int]:
        """Walk the free list, counted, for the first block of *words*
        and unlink it, splitting off a tail worth keeping; returns the
        block and the body words it grants."""
        prev_addr = self.head_base
        block = self.memory.read(self.head_base)
        while block != 0:
            size = self.memory.read(block)
            if size >= words:
                next_block = self.memory.read(block + 1)
                remainder = size - words
                if remainder < HEADER_WORDS + MIN_BODY_WORDS:
                    self.memory.write(prev_addr, next_block)
                    return block, size
                # Split: tail becomes a new free block.
                tail = block + HEADER_WORDS + words
                self.memory.write(tail, remainder - HEADER_WORDS)
                self.memory.write(tail + 1, next_block)
                self.memory.write(prev_addr, tail)
                self.memory.write(block, words)
                return block, words
            prev_addr = block + 1
            block = self.memory.read(block + 1)
        raise HeapExhausted(f"no free block of {words} words")

    def free(self, pointer: int) -> None:
        """Return the block at *pointer* to the free list (no size needed).

        A live pointer lies inside memory (``allocate`` read the word at
        it), so the read and two writes cannot fault: they run inline
        with the statistics updates.
        """
        if pointer not in self._live:
            raise DoubleFree(pointer)
        words = self._live.pop(pointer)
        memory = self.memory
        counts = memory.counter.counts
        counts[_READ] += 1
        counts[_WRITE] += 2
        traffic, names, regions = memory.traffic, memory._names, memory._index
        for address in (self.head_base, pointer, self.head_base):
            name = names[regions[address]]
            traffic[name] = traffic.get(name, 0) + 1
        store = memory._words
        store[pointer] = store[self.head_base]
        store[self.head_base] = (pointer - HEADER_WORDS) & WORD_MASK
        # AllocationStats.on_free.
        stats = self.stats
        stats.frees += 1
        stats.live_requested_words -= words
        stats.live_block_words -= words + HEADER_WORDS
        stats.free_list_words += words + HEADER_WORDS
        if self.tracer is not None:
            self.tracer.emit(
                "alloc.free", "first_fit", pointer=pointer, words=words,
            )

    def is_live(self, pointer: int) -> bool:
        """True if *pointer* is a currently allocated body."""
        return pointer in self._live

    def owns(self, address: int) -> bool:
        """True if *address* lies inside this heap's arena."""
        return self.arena_base <= address < self.arena_limit

    def coalesce(self) -> int:
        """Merge adjacent free blocks; return how many merges happened.

        Runs Python-side over a sorted snapshot (this is maintenance, not a
        per-operation cost the paper compares), then rebuilds the in-memory
        list with uncounted writes.
        """
        blocks: list[tuple[int, int]] = []
        node = self.memory.peek(self.head_base)
        while node != 0:
            blocks.append((node, self.memory.peek(node)))
            node = self.memory.peek(node + 1)
        blocks.sort()
        merged: list[tuple[int, int]] = []
        merges = 0
        for base, size in blocks:
            if merged and merged[-1][0] + HEADER_WORDS + merged[-1][1] == base:
                prev_base, prev_size = merged[-1]
                merged[-1] = (prev_base, prev_size + HEADER_WORDS + size)
                merges += 1
            else:
                merged.append((base, size))
        # Rebuild the list (loader writes).
        previous = self.head_base
        for base, size in merged:
            self.memory.poke(previous, base)
            self.memory.poke(base, size)
            previous = base + 1
        self.memory.poke(previous, 0)
        return merges

    def free_words(self) -> int:
        """Total body words currently on the free list (uncounted walk)."""
        total = 0
        node = self.memory.peek(self.head_base)
        while node != 0:
            total += self.memory.peek(node)
            node = self.memory.peek(node + 1)
        return total
