"""Unit tests for the word-addressed memory."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import MemoryFault, WordRangeError
from repro.machine.costs import CostModel, CycleCounter, Event
from repro.machine.memory import MAX_REGIONS, Memory, from_signed, to_signed, to_word


def test_read_write_roundtrip(memory):
    memory.write(100, 0x1234)
    assert memory.read(100) == 0x1234


def test_write_truncates_to_word(memory):
    memory.write(5, 0x12345)
    assert memory.read(5) == 0x2345


def test_reads_and_writes_are_counted(memory, counter):
    memory.write(1, 2)
    memory.read(1)
    memory.read(1)
    assert counter.count(Event.MEMORY_WRITE) == 1
    assert counter.count(Event.MEMORY_READ) == 2


def test_peek_poke_uncounted(memory, counter):
    memory.poke(7, 99)
    assert memory.peek(7) == 99
    assert counter.memory_references == 0


def test_out_of_range_faults(memory):
    with pytest.raises(MemoryFault):
        memory.read(memory.size)
    with pytest.raises(MemoryFault):
        memory.write(-1, 0)


def test_block_access(memory, counter):
    memory.write_block(10, [1, 2, 3])
    assert memory.read_block(10, 3) == [1, 2, 3]
    assert counter.count(Event.MEMORY_WRITE) == 3
    assert counter.count(Event.MEMORY_READ) == 3


def test_regions_no_overlap(memory):
    memory.add_region("a", 0, 100)
    with pytest.raises(ValueError):
        memory.add_region("b", 50, 100)
    memory.add_region("b", 100, 50)
    assert memory.region_named("b").base == 100


def test_region_lookup(memory):
    region = memory.add_region("frames", 1000, 500)
    assert memory.region_of(1000) is region
    assert memory.region_of(1499) is region
    assert memory.region_of(1500) is None
    assert region.contains(1200)


def test_region_named_missing(memory):
    with pytest.raises(KeyError):
        memory.region_named("nope")


def test_region_bounds_checking(memory):
    with pytest.raises(ValueError):
        memory.add_region("x", memory.size - 1, 2)
    with pytest.raises(ValueError):
        memory.add_region("x", 0, 0)


def test_invalid_size():
    with pytest.raises(ValueError):
        Memory(0)


# -- word conversions -------------------------------------------------------


def test_signed_conversions():
    assert to_signed(0xFFFF) == -1
    assert to_signed(0x7FFF) == 0x7FFF
    assert to_signed(0x8000) == -0x8000
    assert from_signed(-1) == 0xFFFF


def test_from_signed_range():
    with pytest.raises(WordRangeError):
        from_signed(0x8000)
    with pytest.raises(WordRangeError):
        from_signed(-0x8001)


@given(st.integers(min_value=-0x8000, max_value=0x7FFF))
def test_signed_roundtrip(value):
    assert to_signed(from_signed(value)) == value


@given(st.integers())
def test_to_word_always_16_bits(value):
    assert 0 <= to_word(value) <= 0xFFFF


def test_traffic_attribution(memory):
    memory.add_region("frames", 100, 50)
    memory.add_region("tables", 200, 10)
    memory.write(110, 1)
    memory.read(110)
    memory.read(205)
    memory.read(10)  # unmapped
    assert memory.traffic == {"frames": 2, "tables": 1, "": 1}
    assert memory.traffic_fraction("frames") == 0.5


def test_traffic_ignores_uncounted_access(memory):
    memory.add_region("frames", 100, 50)
    memory.poke(110, 3)
    memory.peek(110)
    assert memory.traffic == {}
    assert memory.traffic_fraction("frames") == 0.0


# -- counted access against a region-scan oracle -------------------------------


@st.composite
def _layouts(draw):
    """A memory size and non-overlapping regions."""
    size = draw(st.integers(min_value=8, max_value=200))
    regions = []
    cursor = draw(st.integers(min_value=0, max_value=8))
    for number in range(draw(st.integers(min_value=0, max_value=6))):
        length = draw(st.integers(min_value=1, max_value=40))
        if cursor + length > size:
            break
        regions.append((f"r{number}", cursor, length))
        cursor += length + draw(st.integers(min_value=0, max_value=8))
    return size, regions


_ACCESSES = st.lists(
    st.tuples(
        st.sampled_from(("read", "write", "read_block", "write_block")),
        # Negative, unmapped and past-the-end addresses all occur.
        st.integers(min_value=-20, max_value=240),
        st.integers(min_value=0, max_value=5),  # block length
        st.integers(min_value=-(1 << 20), max_value=1 << 20),  # value
    ),
    max_size=40,
)


@given(_layouts(), _ACCESSES)
def test_counted_access_matches_region_oracle(layout, accesses):
    """Each counted access moves the counts, cycles, traffic and words, or
    raises, exactly as word-by-word access through a region scan would."""
    size, spans = layout
    counter = CycleCounter(CostModel().with_charges(memory_read=3, memory_write=5))
    memory = Memory(size, counter)
    for name, base, length in spans:
        memory.add_region(name, base, length)

    def region_at(address):
        for region in memory.regions:
            if region.contains(address):
                return region
        return None

    words = [0] * size
    traffic: dict[str, int] = {}
    reads = writes = 0
    for kind, address, length, value in accesses:
        writing = kind.startswith("write")
        targets = range(address, address + (length if kind.endswith("block") else 1))
        expected_error = None
        for target in targets:
            assert memory.region_of(target) is region_at(target)
            if not 0 <= target < size:
                expected_error = MemoryFault
                break
            region = region_at(target)
            name = region.name if region is not None else ""
            traffic[name] = traffic.get(name, 0) + 1
            if writing:
                writes += 1
                words[target] = value & 0xFFFF
            else:
                reads += 1
        try:
            if kind == "read":
                got = [memory.read(address)]
            elif kind == "write":
                memory.write(address, value)
            elif kind == "read_block":
                got = memory.read_block(address, length)
            else:
                memory.write_block(address, [value] * length)
        except MemoryFault as error:
            assert type(error) is expected_error
        else:
            assert expected_error is None
            if not writing:
                assert got == [words[target] for target in targets]
        assert counter.count(Event.MEMORY_READ) == reads
        assert counter.count(Event.MEMORY_WRITE) == writes
        assert counter.cycles == 3 * reads + 5 * writes
        assert list(memory.traffic.items()) == list(traffic.items())
    assert [memory.peek(address) for address in range(size)] == words


def test_region_index_holds_at_most_max_regions():
    memory = Memory(MAX_REGIONS + 1)
    for base in range(MAX_REGIONS):
        memory.add_region(f"r{base}", base, 1)
    assert memory.region_of(MAX_REGIONS - 1).name == f"r{MAX_REGIONS - 1}"
    with pytest.raises(ValueError):
        memory.add_region("one-too-many", MAX_REGIONS, 1)


def test_compiled_pointer_access_reads_the_same_region_index():
    """The JIT's inline RD/WR attribute traffic through the memory's own
    region index, so a region added after the JIT was installed counts
    exactly as it does on the interpreter."""
    from repro.jit import install_jit
    from tests.conftest import build

    source = [
        """
MODULE Main;
PROCEDURE main(): INT;
VAR p: INT;
BEGIN
  p := 8;
  ^p := 7;
  RETURN ^p + 1;
END;
END.
"""
    ]
    traffic = []
    for engine in ("interp", "jit"):
        machine = build(source, preset="i2")
        if engine == "jit":
            install_jit(machine)
        machine.memory.add_region("late", 0, 16)
        machine.start()
        assert machine.run() == [8]
        traffic.append(dict(machine.memory.traffic))
    assert traffic[0]["late"] == 2
    assert traffic[1] == traffic[0]
