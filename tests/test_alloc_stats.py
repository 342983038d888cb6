"""Unit tests for allocation statistics (fragmentation accounting)."""

from hypothesis import given, settings, strategies as st

from repro.alloc.stats import AllocationStats


def test_initial_state():
    stats = AllocationStats()
    assert stats.live_fragmentation == 0.0
    assert stats.lifetime_fragmentation == 0.0
    assert stats.idle_free_fraction == 0.0
    assert stats.trap_rate == 0.0


def test_fragmentation_math():
    stats = AllocationStats()
    stats.on_replenish(1, 10)
    stats.on_reuse(10)
    stats.on_allocate(fsi=0, requested=8, block=10)
    assert stats.live_fragmentation == 1 - 8 / 10
    assert stats.lifetime_fragmentation == 1 - 8 / 10


def test_free_moves_words_to_free_lists():
    stats = AllocationStats()
    stats.on_replenish(1, 10)
    stats.on_reuse(10)
    stats.on_allocate(0, 8, 10)
    stats.on_free(8, 10)
    assert stats.live_block_words == 0
    assert stats.free_list_words == 10
    assert stats.idle_free_fraction == 1.0


def test_high_water_tracks_footprint():
    stats = AllocationStats()
    stats.on_replenish(2, 10)
    assert stats.high_water_words == 20
    stats.on_reuse(10)
    stats.on_allocate(0, 10, 10)
    assert stats.high_water_words == 20
    stats.on_replenish(2, 12)
    assert stats.high_water_words == 10 + 10 + 24


def test_trap_rate():
    stats = AllocationStats()
    stats.on_replenish(4, 8)
    for _ in range(4):
        stats.on_reuse(8)
        stats.on_allocate(0, 8, 8)
    assert stats.trap_rate == 0.25


def test_per_class_counts():
    stats = AllocationStats()
    for fsi in (1, 1, 2):
        stats.on_allocate(fsi, 4, 8)
    assert stats.per_class_allocations == {1: 2, 2: 1}


def test_summary_keys():
    stats = AllocationStats()
    summary = stats.summary()
    assert {"allocations", "live_fragmentation", "idle_free_fraction", "trap_rate"} <= set(summary)


_OPERATION = st.one_of(
    st.tuples(st.just("replenish"), st.integers(1, 4), st.integers(1, 40)),
    st.tuples(st.just("reuse_allocate"), st.integers(0, 5), st.integers(1, 40)),
    st.tuples(st.just("allocate"), st.integers(0, 5), st.integers(1, 40)),
    st.tuples(st.just("free"), st.integers(0, 1000), st.just(0)),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_OPERATION, max_size=60))
def test_high_water_is_the_largest_footprint_seen(operations):
    """After every operation the mark is the largest footprint so far.

    A free moves a block from the live set to a free list, and a reuse
    then allocate moves it back, so neither can move the footprint; the
    JIT's inline call cells leave the mark alone on exactly those paths.
    """
    stats = AllocationStats()
    live: list[tuple[int, int]] = []
    largest = 0
    for kind, a, b in operations:
        if kind == "replenish":
            stats.on_replenish(a, b)
        elif kind == "reuse_allocate":
            stats.on_reuse(b)
            stats.on_allocate(a, b - 1, b)
            live.append((b - 1, b))
        elif kind == "allocate":  # a bare allocate, as host_carve makes
            stats.on_allocate(a, b - 1, b)
            live.append((b - 1, b))
        elif live:
            stats.on_free(*live.pop(a % len(live)))
        largest = max(largest, stats.live_block_words + stats.free_list_words)
        assert stats.high_water_words == largest
