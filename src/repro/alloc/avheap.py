"""The allocation-vector frame heap of section 5.3 (Figure 2).

    "An element of AV is the head of a list of free frames of that size
    ...  Each frame has an extra word which holds its frame size index, so
    that the size need not be specified when it is freed.  Only three
    memory references are required to allocate a frame (fetch list head
    from AV, fetch next pointer from first node, store it into list head),
    and four to free it.  If the free list is empty there is a trap to a
    software allocator which creates more frames of the desired size."

The heap lives entirely inside the simulated :class:`~repro.machine.memory.
Memory`, so the three-reference / four-reference costs are *measured*, not
asserted: the Figure 2 benchmark reads them off the cycle counter.

Layout
------
* ``AV[fsi]`` at ``av_base + fsi`` holds the head frame pointer of the free
  list for size class *fsi* (0 means empty).
* A frame block is ``1 + class_size`` words: one header word holding the
  fsi, then the frame body.  The *frame pointer* handed out points at the
  body, so the header sits at ``pointer - 1``.
* Frame pointers are even-aligned: the low bit of a context word
  distinguishes frame pointers (0) from packed procedure descriptors (1),
  see :mod:`repro.mesa.descriptor`.
* A free frame stores its free-list ``next`` pointer in body word 0 (the
  body is dead while the frame is free).

The software allocator is modelled as a bump allocator over an arena
region; each trap is charged as one ``ALLOCATOR_TRAP`` event (the paper
leaves its cost abstract — "creates more frames"; section 7.1 models the
general scheme as about five times the fast path, which the default
charge reproduces at the whole-call level).
"""

from __future__ import annotations

from repro.alloc.sizing import SizeLadder
from repro.alloc.stats import AllocationStats
from repro.errors import DoubleFree, FrameSizeError, HeapExhausted
from repro.machine.costs import Event
from repro.machine.memory import Memory

#: Words of overhead per frame block (the fsi header word).
FRAME_OVERHEAD_WORDS = 1

#: How many frames the software allocator creates per trap.  Creating a few
#: at a time amortizes traps, as a real software allocator would.
DEFAULT_REPLENISH_BATCH = 4

#: Bounded retry when the arena is full: how many larger size classes the
#: software allocator probes for a free frame to promote before giving up
#: and surfacing RESOURCE_EXHAUSTED.  Small on purpose — promotion wastes
#: the size difference as internal fragmentation, so an unbounded search
#: would trade a clean trap for creeping waste.
PROMOTION_LIMIT = 3


class AVHeap:
    """The fast frame heap: an allocation vector of per-class free lists.

    Parameters
    ----------
    memory:
        The simulated store; the AV and the arena both live in it.
    ladder:
        The size-class ladder shared with the compiler.
    av_base:
        Word address of the allocation vector (``len(ladder)`` words).
    arena_base, arena_words:
        The region the software allocator carves new frames from.
    replenish_batch:
        Frames created per software-allocator trap.
    """

    def __init__(
        self,
        memory: Memory,
        ladder: SizeLadder,
        av_base: int,
        arena_base: int,
        arena_words: int,
        replenish_batch: int = DEFAULT_REPLENISH_BATCH,
    ) -> None:
        if replenish_batch <= 0:
            raise ValueError(f"replenish_batch must be positive, got {replenish_batch}")
        self.memory = memory
        self.ladder = ladder
        self.av_base = av_base
        self.arena_base = arena_base
        self.arena_limit = arena_base + arena_words
        self.replenish_batch = replenish_batch
        self.stats = AllocationStats()
        #: Observability sink (repro.obs); None disables emission.
        self.tracer = None
        # Bump pointer for the software allocator.  Frame pointers must be
        # even, and the header occupies pointer-1, so blocks start odd.
        self._bump = arena_base if arena_base % 2 == 1 else arena_base + 1
        # Python-side validation state (not part of the machine's cost):
        # live frame pointer -> requested words, for stats and double-free
        # detection.
        self._live: dict[int, int] = {}
        self._known: set[int] = set()
        # Zero the AV (loader-style, uncounted).
        for fsi in range(len(ladder)):
            memory.poke(av_base + fsi, 0)

    # -- public API ----------------------------------------------------------

    def allocate(self, fsi: int, requested_words: int | None = None) -> int:
        """Allocate a frame of size class *fsi*; return its frame pointer.

        *requested_words* is the size the program actually needs (defaults
        to the full class size); it only feeds fragmentation statistics.
        The counted cost of the fast path is exactly three memory
        references, per the paper.
        """
        class_words = self.ladder.size_of(fsi)
        if requested_words is None:
            requested_words = class_words
        if requested_words > class_words:
            raise FrameSizeError(
                f"request of {requested_words} words exceeds class {fsi} "
                f"size {class_words}"
            )
        grant_fsi = fsi
        head = self.memory.read(self.av_base + fsi)  # ref 1: fetch list head
        if head == 0:
            try:
                self._replenish(fsi)
            except HeapExhausted:
                # Bounded retry (section 5.3's software allocator doing its
                # best): promote the request to a nearby larger class that
                # still has a free frame.  Only reached when the arena is
                # full, so the fast path's three-reference cost and the
                # normal trap path are untouched.
                grant_fsi, head = self._promote(fsi)
                class_words = self.ladder.size_of(grant_fsi)
            else:
                head = self.memory.read(self.av_base + fsi)
        next_frame = self.memory.read(head)  # ref 2: fetch next pointer
        self.memory.write(self.av_base + grant_fsi, next_frame)  # ref 3: store head
        self.stats.on_reuse(class_words + FRAME_OVERHEAD_WORDS)
        self.stats.on_allocate(
            grant_fsi, requested_words, class_words + FRAME_OVERHEAD_WORDS
        )
        self._live[head] = requested_words
        if self.tracer is not None:
            self.tracer.emit(
                "alloc.frame", "avheap", pointer=head, fsi=grant_fsi,
                words=requested_words, class_words=class_words,
            )
        return head

    def allocate_words(self, words: int) -> int:
        """Allocate the smallest class holding *words* (compiler-side helper)."""
        return self.allocate(self.ladder.fsi_for(words), requested_words=words)

    def free(self, frame: int) -> None:
        """Return *frame* to its free list.

        The size need not be supplied: the fsi header at ``frame - 1`` is
        read back, making the counted cost exactly four memory references.
        """
        if frame not in self._live:
            raise DoubleFree(frame)
        requested = self._live.pop(frame)
        fsi = self.memory.read(frame - 1)  # ref 1: fetch fsi header
        if not 0 <= fsi < len(self.ladder):
            raise FrameSizeError(f"corrupt fsi header {fsi} on frame {frame:#x}")
        head = self.memory.read(self.av_base + fsi)  # ref 2: fetch list head
        self.memory.write(frame, head)  # ref 3: link node
        self.memory.write(self.av_base + fsi, frame)  # ref 4: store list head
        class_words = self.ladder.size_of(fsi)
        self.stats.on_free(requested, class_words + FRAME_OVERHEAD_WORDS)
        if self.tracer is not None:
            self.tracer.emit(
                "alloc.free", "avheap", pointer=frame, fsi=fsi, words=requested,
            )

    def fsi_of(self, frame: int) -> int:
        """Uncounted read of a live frame's size-class index."""
        return self.memory.peek(frame - 1)

    def host_carve(self, fsi: int, requested_words: int | None = None) -> int:
        """Carve one live frame straight from the arena, uncounted.

        Migration adopting a foreign process (:mod:`repro.net.migrate`)
        needs backing store for the incoming frames on the target shard.
        That relocation is host work, not machine work — the paper's
        machine never executes it — so the carve uses the loader
        interface throughout: no memory references, no allocator trap,
        and no replenish statistics.  The block still gets a real fsi
        header so a later (counted) ``free`` works unchanged.
        """
        class_words = self.ladder.size_of(fsi)
        if requested_words is None:
            requested_words = class_words
        if requested_words > class_words:
            raise FrameSizeError(
                f"request of {requested_words} words exceeds class {fsi} "
                f"size {class_words}"
            )
        block_words = class_words + FRAME_OVERHEAD_WORDS
        if self._bump + block_words > self.arena_limit:
            raise HeapExhausted(
                f"frame arena exhausted carving class {fsi} for adoption"
            )
        base = self._bump
        self._bump += block_words
        if self._bump % 2 == 0:  # keep the next block's pointer even
            self._bump += 1
        pointer = base + FRAME_OVERHEAD_WORDS
        self.memory.poke(base, fsi)  # permanent fsi header
        self._known.add(pointer)
        self._live[pointer] = requested_words
        self.stats.on_allocate(fsi, requested_words, block_words)
        if self.tracer is not None:
            self.tracer.emit(
                "alloc.carve", "avheap", pointer=pointer, fsi=fsi,
                words=requested_words, class_words=class_words,
            )
        return pointer

    def note_requested(self, frame: int, requested_words: int) -> None:
        """Adjust a live frame's requested size, without memory traffic.

        Used by the processor-resident free-frame stack of section 7.1
        (:class:`repro.banks.deferred.FastFrameStack`): frames parked
        there stay allocated from the heap's point of view and are handed
        out again without touching the AV, so only the fragmentation
        accounting needs updating.
        """
        if frame not in self._live:
            raise DoubleFree(frame)
        old = self._live[frame]
        self._live[frame] = requested_words
        self.stats.live_requested_words += requested_words - old
        self.stats.total_requested_words += requested_words - old

    def is_live(self, frame: int) -> bool:
        """True if *frame* is currently allocated (validation helper)."""
        return frame in self._live

    def owns(self, address: int) -> bool:
        """True if *address* lies inside this heap's arena."""
        return self.arena_base <= address < self.arena_limit

    def free_list_length(self, fsi: int) -> int:
        """Walk (uncounted) the free list of class *fsi* and count nodes."""
        count = 0
        node = self.memory.peek(self.av_base + fsi)
        while node != 0:
            count += 1
            node = self.memory.peek(node)
        return count

    # -- software allocator ----------------------------------------------------

    def _replenish(self, fsi: int) -> None:
        """Trap: carve *replenish_batch* new frames of class *fsi*.

        Charged as one ALLOCATOR_TRAP event; the carving writes use the
        uncounted loader interface because their cost is folded into the
        trap charge (the paper treats the software allocator as a black
        box roughly 5x the fast path).
        """
        class_words = self.ladder.size_of(fsi)
        block_words = class_words + FRAME_OVERHEAD_WORDS
        self.memory.counter.record(Event.ALLOCATOR_TRAP)
        created = 0
        for _ in range(self.replenish_batch):
            if self._bump + block_words > self.arena_limit:
                break
            base = self._bump
            self._bump += block_words
            if self._bump % 2 == 0:  # keep the next block's pointer even
                self._bump += 1
            pointer = base + FRAME_OVERHEAD_WORDS
            self.memory.poke(base, fsi)  # permanent fsi header
            # Push onto the free list (loader writes).
            self.memory.poke(pointer, self.memory.peek(self.av_base + fsi))
            self.memory.poke(self.av_base + fsi, pointer)
            self._known.add(pointer)
            created += 1
        if created == 0:
            raise HeapExhausted(
                f"frame arena exhausted replenishing class {fsi} "
                f"({class_words} words)"
            )
        self.stats.on_replenish(created, block_words)
        if self.tracer is not None:
            self.tracer.emit(
                "alloc.trap", "avheap", fsi=fsi, created=created,
                class_words=class_words,
            )

    def _promote(self, fsi: int) -> tuple[int, int]:
        """Probe up to PROMOTION_LIMIT larger classes for a free frame.

        Each probe is a counted AV read (the software allocator walking
        the vector).  The granted frame keeps its own (larger) fsi header,
        so a later :meth:`free` returns it to the list it came from and
        the heap stays consistent.  Raises :class:`HeapExhausted` when no
        candidate class has a free frame either.
        """
        for candidate in range(fsi + 1, min(len(self.ladder), fsi + 1 + PROMOTION_LIMIT)):
            head = self.memory.read(self.av_base + candidate)
            if head != 0:
                self.stats.promotions += 1
                if self.tracer is not None:
                    self.tracer.emit(
                        "alloc.promote", "avheap",
                        requested_fsi=fsi, granted_fsi=candidate, pointer=head,
                    )
                return candidate, head
        raise HeapExhausted(
            f"frame arena exhausted and no free frame within "
            f"{PROMOTION_LIMIT} classes above {fsi}"
        )
