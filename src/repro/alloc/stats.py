"""Allocation accounting: fragmentation and traffic measurements.

Section 5.3 quantifies the AV heap: "This scheme wastes only 10% of the
space in fragmentation, plus space allocated to frames of sizes not
currently in demand."  This module measures both terms:

* **internal fragmentation** — requested words versus size-class words,
  integrated over the time each frame is live;
* **idle free-list space** — words sitting on free lists of classes with no
  current demand;

plus the event counts the fast heap is judged by (allocations, frees,
software-allocator traps, memory references per operation).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class AllocationStats:
    """Mutable accumulator updated by the heaps on every operation."""

    allocations: int = 0
    frees: int = 0
    #: Traps to the software allocator (empty free list).
    replenishments: int = 0
    #: Bounded-retry promotions: allocations granted a frame from a larger
    #: size class because the arena was full (graceful degradation).
    promotions: int = 0
    #: Words currently live, as requested by callers.
    live_requested_words: int = 0
    #: Words currently live, as rounded up to size classes (incl. headers).
    live_block_words: int = 0
    #: Words currently parked on free lists.
    free_list_words: int = 0
    #: High-water mark of live_block_words + free_list_words.
    high_water_words: int = 0
    #: Time-integrated waste: sum over allocations of (block - requested),
    #: weighted by nothing (a per-allocation average); the live ratio below
    #: gives the instantaneous picture.
    total_requested_words: int = 0
    total_block_words: int = 0
    #: Per-size-class allocation counts, for the "sizes not in demand" term.
    per_class_allocations: dict[int, int] = field(default_factory=dict)

    def on_allocate(self, fsi: int, requested: int, block: int) -> None:
        """Record one allocation of *requested* words in a *block*-word block."""
        self.allocations += 1
        self.live_requested_words += requested
        self.live_block_words += block
        self.total_requested_words += requested
        self.total_block_words += block
        self.per_class_allocations[fsi] = self.per_class_allocations.get(fsi, 0) + 1
        self._update_high_water()

    def on_free(self, requested: int, block: int) -> None:
        """Record one free returning a block to its free list.

        The block's words move from the live set to a free list, so the
        footprint, and with it the high-water mark, cannot change.
        """
        self.frees += 1
        self.live_requested_words -= requested
        self.live_block_words -= block
        self.free_list_words += block

    def on_reuse(self, block: int) -> None:
        """Record a block leaving a free list to satisfy an allocation."""
        self.free_list_words -= block

    def on_replenish(self, blocks: int, block_words: int) -> None:
        """Record a software-allocator trap creating *blocks* new blocks."""
        self.replenishments += 1
        self.free_list_words += blocks * block_words
        self._update_high_water()

    def _update_high_water(self) -> None:
        footprint = self.live_block_words + self.free_list_words
        if footprint > self.high_water_words:
            self.high_water_words = footprint

    # -- derived metrics ----------------------------------------------------

    @property
    def live_fragmentation(self) -> float:
        """Instantaneous internal fragmentation of live frames, in [0, 1).

        This is the paper's "wastes only 10% of the space" number: the
        fraction of live block space not holding requested data.
        """
        if self.live_block_words == 0:
            return 0.0
        return 1.0 - self.live_requested_words / self.live_block_words

    @property
    def lifetime_fragmentation(self) -> float:
        """Per-allocation average internal fragmentation, in [0, 1)."""
        if self.total_block_words == 0:
            return 0.0
        return 1.0 - self.total_requested_words / self.total_block_words

    @property
    def idle_free_fraction(self) -> float:
        """Fraction of the total footprint parked on free lists.

        The paper's second waste term: "space allocated to frames of sizes
        not currently in demand".
        """
        footprint = self.live_block_words + self.free_list_words
        if footprint == 0:
            return 0.0
        return self.free_list_words / footprint

    @property
    def trap_rate(self) -> float:
        """Fraction of allocations that trapped to the software allocator."""
        if self.allocations == 0:
            return 0.0
        return self.replenishments / self.allocations

    def summary(self) -> dict[str, float]:
        """Plain-dict summary for reports and benchmark tables."""
        return {
            "allocations": float(self.allocations),
            "frees": float(self.frees),
            "replenishments": float(self.replenishments),
            "promotions": float(self.promotions),
            "live_fragmentation": self.live_fragmentation,
            "lifetime_fragmentation": self.lifetime_fragmentation,
            "idle_free_fraction": self.idle_free_fraction,
            "trap_rate": self.trap_rate,
            "high_water_words": float(self.high_water_words),
        }
