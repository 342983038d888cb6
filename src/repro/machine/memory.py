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

from dataclasses import dataclass

from repro.errors import MemoryFault, WordRangeError
from repro.machine.costs import CycleCounter, Event

#: Size of the main data space, in 16-bit words (64K, as on the Mesa machines).
MDS_WORDS = 1 << 16

#: Mask for a 16-bit machine word.
WORD_MASK = 0xFFFF

#: Most regions one memory can hold: its region index keeps one byte per
#: word, and byte 0 means "unmapped".
MAX_REGIONS = 255

_READ = Event.MEMORY_READ
_WRITE = Event.MEMORY_WRITE


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

    Regions never overlap; :meth:`Memory.add_region` enforces that.
    """

    name: str
    base: int
    size: int

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

    A counted access is the machine's commonest event, so it is charged
    inline: the bounds check, the count, the cycles (through the
    counter's bound ``charges``) and the traffic bump take no call.  The
    region of an address is one byte of a per-word region index.
    """

    def __init__(self, size: int = MDS_WORDS, counter: CycleCounter | None = None) -> None:
        if size <= 0:
            raise ValueError(f"memory size must be positive, got {size}")
        self.size = size
        self.counter = counter or CycleCounter()
        self._words = [0] * size
        self._regions: list[Region] = []
        #: One byte per word: 0 for an unmapped address, else 1 + the
        #: position in ``_regions`` of the region that holds it.
        self._index = bytearray(size)
        #: Region name per index byte (0: unmapped).
        self._names: list[str] = [""]
        #: Counted references per region name ("" for unmapped addresses) —
        #: the attribution behind section 7.3's bandwidth argument.
        self.traffic: dict[str, int] = {}

    # -- region bookkeeping -------------------------------------------------

    def add_region(self, name: str, base: int, size: int) -> Region:
        """Register a named region; raises ``ValueError`` on any overlap."""
        if base < 0 or base + size > self.size:
            raise ValueError(f"region {name!r} [{base}, {base + size}) outside memory")
        if size <= 0:
            raise ValueError(f"region {name!r} must have positive size")
        candidate = Region(name=name, base=base, size=size)
        for existing in self._regions:
            if candidate.base < existing.limit and existing.base < candidate.limit:
                raise ValueError(f"region {name!r} overlaps region {existing.name!r}")
        if len(self._regions) >= MAX_REGIONS:
            raise ValueError(f"region {name!r}: a memory holds at most {MAX_REGIONS} regions")
        self._regions.append(candidate)
        self._names.append(name)
        self._index[base : candidate.limit] = bytes((len(self._regions),)) * size
        return candidate

    def region_named(self, name: str) -> Region:
        """Look up a region by name; raises ``KeyError`` if absent."""
        for region in self._regions:
            if region.name == name:
                return region
        raise KeyError(name)

    def region_of(self, address: int) -> Region | None:
        """Return the region containing *address*, or None."""
        if not 0 <= address < self.size:
            return None
        slot = self._index[address]
        return self._regions[slot - 1] if slot else None

    @property
    def regions(self) -> tuple[Region, ...]:
        """All registered regions, in registration order."""
        return tuple(self._regions)

    # -- counted access -----------------------------------------------------

    def read(self, address: int) -> int:
        """Read one word, recording a MEMORY_READ event."""
        if not 0 <= address < self.size:
            raise MemoryFault(address, self.size)
        counter = self.counter
        counter.counts[_READ] += 1
        counter.cycles += counter.charges[_READ]
        name = self._names[self._index[address]]
        traffic = self.traffic
        traffic[name] = traffic.get(name, 0) + 1
        return self._words[address]

    def write(self, address: int, value: int) -> None:
        """Write one word, recording a MEMORY_WRITE event."""
        if not 0 <= address < self.size:
            raise MemoryFault(address, self.size)
        counter = self.counter
        counter.counts[_WRITE] += 1
        counter.cycles += counter.charges[_WRITE]
        name = self._names[self._index[address]]
        traffic = self.traffic
        traffic[name] = traffic.get(name, 0) + 1
        self._words[address] = value & WORD_MASK

    def traffic_fraction(self, name: str) -> float:
        """Fraction of counted references that touched region *name*."""
        total = sum(self.traffic.values())
        return self.traffic.get(name, 0) / total if total else 0.0

    def read_block(self, address: int, count: int) -> list[int]:
        """Read *count* consecutive words (counted as *count* reads).

        Words before a faulting address are counted, as if read one by one.
        """
        size = self.size
        counter = self.counter
        counts = counter.counts
        cycles = counter.charges[_READ]
        index = self._index
        names = self._names
        traffic = self.traffic
        for target in range(address, address + count):
            if not 0 <= target < size:
                raise MemoryFault(target, size)
            counts[_READ] += 1
            counter.cycles += cycles
            name = names[index[target]]
            traffic[name] = traffic.get(name, 0) + 1
        return self._words[address : address + count]

    def write_block(self, address: int, values: list[int]) -> None:
        """Write consecutive words (counted as one write per word).

        Words before a faulting address are written and counted, as if
        written one by one.
        """
        size = self.size
        counter = self.counter
        counts = counter.counts
        cycles = counter.charges[_WRITE]
        index = self._index
        names = self._names
        traffic = self.traffic
        words = self._words
        for target, value in enumerate(values, address):
            if not 0 <= target < size:
                raise MemoryFault(target, size)
            counts[_WRITE] += 1
            counter.cycles += cycles
            name = names[index[target]]
            traffic[name] = traffic.get(name, 0) + 1
            words[target] = value & WORD_MASK

    # -- uncounted (setup / inspection) access ------------------------------

    def peek(self, address: int) -> int:
        """Read without counting — for tests, dumps, and loader setup."""
        if not 0 <= address < self.size:
            raise MemoryFault(address, self.size)
        return self._words[address]

    def poke(self, address: int, value: int) -> None:
        """Write without counting — for loader setup."""
        if not 0 <= address < self.size:
            raise MemoryFault(address, self.size)
        self._words[address] = value & WORD_MASK

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = ", ".join(r.name for r in self._regions) or "no regions"
        return f"Memory({self.size} words; {names})"
