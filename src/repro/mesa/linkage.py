"""Call-target resolution: the indirection chains of Figure 1.

Each function here performs one linkage discipline's run-time lookups,
through the *counted* memory interfaces, and reports how many levels of
table indirection it traversed.  The F1 benchmark calls these directly to
regenerate Figure 1's accounting; the interpreter calls them to execute
calls.

The chains:

========================  =============================================
discipline                levels (reads)
========================  =============================================
EXTERNALCALL (I2, §5.1)   LV -> GFT -> GF(code base) -> EV      (4)
LOCALCALL   (I2, §5.1)    EV                                    (1)
EXTERNALCALL (I1, §4)     wide LV (entry, gf)                   (2)
DIRECTCALL  (I3, §6)      none - GF and fsi are at the target   (0)
========================  =============================================

Every discipline then reads the frame-size byte at the procedure's entry
(it is the first byte of the procedure, section 5.1) before allocating
the frame.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.program import CodeSpace, DFC_HEADER_BYTES
from repro.machine.costs import CycleCounter, Event
from repro.machine.memory import Memory
from repro.mesa.descriptor import effective_entry_index, unpack_descriptor
from repro.mesa.globalframe import read_code_base
from repro.mesa.tables import GlobalFrameTable, LinkVector, WideLinkVector


@dataclass(frozen=True)
class ResolvedTarget:
    """Everything a call needs about its destination procedure.

    ``entry_address`` is the absolute code address of the procedure's fsi
    byte; execution starts at ``entry_address + 1``.  ``code_base`` is -1
    when the discipline did not need to discover it (DIRECTCALL leaves it
    to be fetched lazily from the global frame if the context is ever
    suspended).  ``levels`` counts table indirections, the Figure 1
    metric.
    """

    gf_address: int
    code_base: int
    entry_address: int
    fsi: int
    levels: int

    @property
    def first_instruction(self) -> int:
        """Absolute code address of the procedure's first instruction."""
        return self.entry_address + 1


def resolve_descriptor(
    memory: Memory,
    code: CodeSpace,
    gft: GlobalFrameTable,
    descriptor: int,
) -> ResolvedTarget:
    """Resolve a packed procedure descriptor (I2): GFT -> GF -> EV.

    Three counted reads plus the fsi byte; callers that fetched the
    descriptor from a link vector add one more level (Figure 1's four).
    """
    env, code_index = unpack_descriptor(descriptor)
    gf_address, bias = gft.read_entry(env)  # read 1: GFT entry
    code_base = read_code_base(memory, gf_address)  # read 2: code base in GF
    ev_index = effective_entry_index(code_index, bias)
    offset = code.read_ev_entry(code_base, ev_index)  # read 3: EV entry
    entry = code_base + offset
    fsi = code.read_byte(entry)  # the frame-size byte (section 5.3)
    return ResolvedTarget(
        gf_address=gf_address,
        code_base=code_base,
        entry_address=entry,
        fsi=fsi,
        levels=3,
    )


def resolve_external_mesa(
    memory: Memory,
    code: CodeSpace,
    gft: GlobalFrameTable,
    lv: LinkVector,
    index: int,
) -> ResolvedTarget:
    """The full EXTERNALCALL chain of Figure 1: LV -> GFT -> GF -> EV."""
    descriptor = lv.read_entry(index)  # read 0: the link vector
    target = resolve_descriptor(memory, code, gft, descriptor)
    return ResolvedTarget(
        gf_address=target.gf_address,
        code_base=target.code_base,
        entry_address=target.entry_address,
        fsi=target.fsi,
        levels=target.levels + 1,
    )


def resolve_local(
    memory: Memory,
    code: CodeSpace,
    gf_address: int,
    code_base: int,
    ev_index: int,
) -> ResolvedTarget:
    """LOCALCALL (section 5.1): same environment, one EV indirection.

    "A call to a procedure in the same module is handled by a LOCALCALL n
    instruction ... it keeps the same environment and code base, and has
    only one level of indirection."
    """
    offset = code.read_ev_entry(code_base, ev_index)
    entry = code_base + offset
    fsi = code.read_byte(entry)
    return ResolvedTarget(
        gf_address=gf_address,
        code_base=code_base,
        entry_address=entry,
        fsi=fsi,
        levels=1,
    )


def resolve_external_wide(
    memory: Memory,
    code: CodeSpace,
    lv: WideLinkVector,
    index: int,
) -> ResolvedTarget:
    """I1's external call: the wide link vector holds full addresses."""
    entry, gf_address = lv.read_entry(index)  # two counted reads
    fsi = code.read_byte(entry)
    return ResolvedTarget(
        gf_address=gf_address,
        code_base=-1,  # I1 keeps absolute PCs; no code base needed
        entry_address=entry,
        fsi=fsi,
        levels=2,
    )


class LinkageCache:
    """Host-side memoization of call-site resolution (a simulation
    speedup, never a modelled mechanism).

    Call targets are overwhelmingly static — the link vector, GFT, EV
    and DIRECTCALL headers only change under the explicit code-swapping
    services — so a call site's :class:`ResolvedTarget` can be computed
    once and replayed.  To keep the paper metrics bit-identical, the
    first (miss) resolution records which counter events the table walk
    charged and which memory regions it touched, and every hit replays
    exactly those charges and that traffic without touching the tables.

    Invalidation follows the same "unusual event" discipline as the IFU
    return stack: any code-space epoch bump (relocation, procedure
    replacement, segment growth) empties the cache, and
    :mod:`repro.interp.services` also invalidates explicitly.
    """

    def __init__(self, counter: CycleCounter, traffic: dict[str, int]) -> None:
        self.counter = counter
        #: The memory's per-region reference counts (``Memory.traffic``).
        self.traffic = traffic
        #: key -> (target, the walk's (event, times) pairs, its
        #: (region, references) pairs).
        self._entries: dict[
            tuple[int, int],
            tuple[
                ResolvedTarget,
                tuple[tuple[Event, int], ...],
                tuple[tuple[str, int], ...],
            ],
        ] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: tuple[int, int]) -> ResolvedTarget | None:
        """Return the cached target for *key*, replaying its modelled
        charges, or None on a miss (the caller resolves and stores)."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        resolved, charges, regions = entry
        counts = self.counter.counts
        for event, times in charges:
            counts[event] += times
        traffic = self.traffic
        for region, references in regions:
            traffic[region] = traffic.get(region, 0) + references
        return resolved

    def begin(self) -> tuple[dict[Event, int], dict[str, int]]:
        """Snapshot the counter and the traffic before a miss's real
        table walk."""
        return dict(self.counter.counts), dict(self.traffic)

    def store(
        self,
        key: tuple[int, int],
        resolved: ResolvedTarget,
        before: tuple[dict[Event, int], dict[str, int]],
    ) -> None:
        """Memoize *resolved* along with the events the walk charged and
        the walk's region traffic, computed once here rather than on
        every hit."""
        counts = self.counter.counts
        seen_counts, seen_traffic = before
        charges = tuple(
            (event, counts[event] - seen)
            for event, seen in seen_counts.items()
            if counts[event] != seen
        )
        regions = tuple(
            (region, references - seen_traffic.get(region, 0))
            for region, references in self.traffic.items()
            if references != seen_traffic.get(region, 0)
        )
        self._entries[key] = (resolved, charges, regions)

    def invalidate(self) -> None:
        """Drop everything (code epoch bump or an explicit service)."""
        if self._entries:
            self._entries.clear()
        self.invalidations += 1

    def stats(self) -> dict[str, int]:
        """Host-side effectiveness counters (not paper metrics)."""
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
        }


def resolve_direct(code: CodeSpace, target_address: int, counted: bool = False) -> ResolvedTarget:
    """DIRECTCALL (section 6): GF and fsi are stored at the target.

    "at p is stored the global frame address GF and the frame size fsi,
    immediately followed by the first instruction" — zero table levels.
    The IFU streams over the header exactly as it streams instructions
    ("it converts GF and fsi into instructions of the form
    SETGLOBALFRAME GF and ALLOCATEFRAME fsi"), so by default the header
    bytes are *uncounted* IFU fetches, not data references; pass
    ``counted=True`` to model a machine without that IFU trick.
    """
    if counted:
        gf_address = code.read_word(target_address)
        fsi = code.read_byte(target_address + 2)
    else:
        high = code.fetch_byte(target_address)
        low = code.fetch_byte(target_address + 1)
        gf_address = (high << 8) | low
        fsi = code.fetch_byte(target_address + 2)
    return ResolvedTarget(
        gf_address=gf_address,
        code_base=-1,  # fetched lazily from the GF only if ever suspended
        entry_address=target_address + DFC_HEADER_BYTES - 1,
        fsi=fsi,
        levels=0,
    )
