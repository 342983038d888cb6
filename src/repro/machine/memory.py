"""Word-addressed simulated memory with access counting and named regions.

The Mesa machines the paper targets are 16-bit word machines; the main data
space (MDS) is 64K words.  This module models that store.  Two features
matter for the reproduction:

* **Access counting.**  Every read and write is reported to a shared
  :class:`~repro.machine.costs.CycleCounter`, because the paper's
  comparisons (Figure 1's levels of indirection, section 5.3's "three
  memory references to allocate", section 7.3's bandwidth argument) are
  stated in memory references.

* **Named regions.**  Section 7.4 suggests "confining frames to a fixed
  frame region of the address space" so that most storage references can be
  proven not to touch a shadowed frame.  Regions give the simulator (and
  the pointers-to-locals machinery in :mod:`repro.banks.pointers`) that
  fixed geography.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from repro.errors import MemoryFault, UnwritableMemory, WordRangeError
from repro.machine.costs import CycleCounter, Event

#: Size of the main data space, in 16-bit words (64K, as on the Mesa machines).
MDS_WORDS = 1 << 16

#: Mask for a 16-bit machine word.
WORD_MASK = 0xFFFF


def to_word(value: int) -> int:
    """Truncate a Python int to a 16-bit word (two's complement wrap)."""
    return value & WORD_MASK


def from_signed(value: int) -> int:
    """Encode a signed Python int in [-32768, 32767] as a 16-bit word."""
    if not -0x8000 <= value <= 0x7FFF:
        raise WordRangeError(value)
    return value & WORD_MASK


def to_signed(word: int) -> int:
    """Interpret a 16-bit word as a signed two's-complement value."""
    word &= WORD_MASK
    return word - 0x10000 if word >= 0x8000 else word


@dataclass(frozen=True)
class Region:
    """A named, half-open address range ``[base, base + size)``.

    Regions never overlap; :meth:`Memory.add_region` enforces that.  A
    region can be marked read-only (used for tables that, per section 5,
    "cannot be changed" once linked, when the caller wants that checked).
    """

    name: str
    base: int
    size: int
    writable: bool = True

    @property
    def limit(self) -> int:
        """One past the last address in the region."""
        return self.base + self.size

    def contains(self, address: int) -> bool:
        """Return True if *address* falls inside this region."""
        return self.base <= address < self.limit


class Memory:
    """A flat array of 16-bit words with counted, region-aware access.

    Parameters
    ----------
    size:
        Number of words; defaults to the 64K-word Mesa MDS.
    counter:
        Shared cycle counter; every :meth:`read` / :meth:`write` records a
        ``MEMORY_READ`` / ``MEMORY_WRITE`` event on it.  If omitted a
        private counter is created (handy in unit tests).
    """

    def __init__(self, size: int = MDS_WORDS, counter: CycleCounter | None = None) -> None:
        if size <= 0:
            raise ValueError(f"memory size must be positive, got {size}")
        self.size = size
        self.counter = counter or CycleCounter()
        self._words = [0] * size
        self._regions: list[Region] = []
        # Region lookup without a call per region: bases in ascending
        # order and the matching (limit, region) pairs, for a bisect.
        self._bases: list[int] = []
        self._spans: list[tuple[int, Region]] = []
        #: Counted references per region name ("" for unmapped addresses) —
        #: the attribution behind section 7.3's bandwidth argument.
        self.traffic: dict[str, int] = {}

    # -- region bookkeeping -------------------------------------------------

    def add_region(self, name: str, base: int, size: int, writable: bool = True) -> Region:
        """Register a named region; raises ``ValueError`` on any overlap."""
        if base < 0 or base + size > self.size:
            raise ValueError(f"region {name!r} [{base}, {base + size}) outside memory")
        if size <= 0:
            raise ValueError(f"region {name!r} must have positive size")
        candidate = Region(name=name, base=base, size=size, writable=writable)
        for existing in self._regions:
            if candidate.base < existing.limit and existing.base < candidate.limit:
                raise ValueError(f"region {name!r} overlaps region {existing.name!r}")
        self._regions.append(candidate)
        ordered = sorted(self._regions, key=lambda region: region.base)
        self._bases = [region.base for region in ordered]
        self._spans = [(region.limit, region) for region in ordered]
        return candidate

    def region_named(self, name: str) -> Region:
        """Look up a region by name; raises ``KeyError`` if absent."""
        for region in self._regions:
            if region.name == name:
                return region
        raise KeyError(name)

    def region_of(self, address: int) -> Region | None:
        """Return the region containing *address*, or None."""
        index = bisect_right(self._bases, address) - 1
        if index >= 0:
            limit, region = self._spans[index]
            if address < limit:
                return region
        return None

    @property
    def regions(self) -> tuple[Region, ...]:
        """All registered regions, in registration order."""
        return tuple(self._regions)

    # -- counted access -----------------------------------------------------

    def read(self, address: int) -> int:
        """Read one word, recording a MEMORY_READ event."""
        self._check(address)
        self.counter.record(Event.MEMORY_READ)
        self._attribute(address)
        return self._words[address]

    def write(self, address: int, value: int) -> None:
        """Write one word, recording a MEMORY_WRITE event."""
        self._check(address)
        region = self.region_of(address)
        if region is not None and not region.writable:
            raise UnwritableMemory(address, region.name)
        self.counter.record(Event.MEMORY_WRITE)
        name = region.name if region is not None else ""
        self.traffic[name] = self.traffic.get(name, 0) + 1
        self._words[address] = to_word(value)

    def _attribute(self, address: int) -> None:
        region = self.region_of(address)
        name = region.name if region is not None else ""
        self.traffic[name] = self.traffic.get(name, 0) + 1

    def traffic_fraction(self, name: str) -> float:
        """Fraction of counted references that touched region *name*."""
        total = sum(self.traffic.values())
        return self.traffic.get(name, 0) / total if total else 0.0

    def read_block(self, address: int, count: int) -> list[int]:
        """Read *count* consecutive words (counted as *count* reads)."""
        return [self.read(address + i) for i in range(count)]

    def write_block(self, address: int, values: list[int]) -> None:
        """Write consecutive words (counted as one write per word)."""
        for i, value in enumerate(values):
            self.write(address + i, value)

    # -- uncounted (setup / inspection) access ------------------------------

    def peek(self, address: int) -> int:
        """Read without counting — for tests, dumps, and loader setup."""
        self._check(address)
        return self._words[address]

    def poke(self, address: int, value: int) -> None:
        """Write without counting or write-protection — for loader setup."""
        self._check(address)
        self._words[address] = to_word(value)

    def poke_block(self, address: int, values: list[int]) -> None:
        """Uncounted block write for loaders."""
        for i, value in enumerate(values):
            self.poke(address + i, value)

    def _check(self, address: int) -> None:
        if not 0 <= address < self.size:
            raise MemoryFault(address, self.size)

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = ", ".join(r.name for r in self._regions) or "no regions"
        return f"Memory({self.size} words; {names})"
