"""Set-associative cache array with LRU replacement."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CacheConfig
from repro.cache.base import LRU_SHIFT, SetAssociativeCache, line_dirty, line_state


def small_cache(ways=2, sets=4, line=64):
    return SetAssociativeCache(
        CacheConfig(size_bytes=ways * sets * line, line_bytes=line, ways=ways,
                    round_trip_latency=1, mshr_entries=4)
    )


class TestBasics:
    def test_miss_then_hit(self):
        c = small_cache()
        assert c.lookup(100) is None
        c.insert(100)
        assert c.lookup(100) is not None

    def test_line_granularity(self):
        c = small_cache()
        c.insert(128)
        assert c.lookup(128 + 63) is not None
        assert c.lookup(128 + 64) is None

    def test_line_addr(self):
        c = small_cache()
        assert c.line_addr(130) == 128
        assert c.line_addr(64) == 64

    def test_hit_miss_counters(self):
        c = small_cache()
        c.lookup(0)
        c.insert(0)
        c.lookup(0)
        assert c.misses == 1
        assert c.hits == 1

    def test_peek_does_not_touch(self):
        c = small_cache()
        c.insert(0)
        hits = c.hits
        assert c.peek(0) is not None
        assert c.hits == hits


class TestLru:
    def test_evicts_least_recently_used(self):
        c = small_cache(ways=2, sets=1)
        c.insert(0)
        c.insert(64)
        c.lookup(0)          # 0 is now MRU
        victim = c.insert(128)
        assert victim is not None
        assert victim[0] == 64

    def test_insert_refreshes_existing(self):
        c = small_cache(ways=2, sets=1)
        c.insert(0)
        c.insert(64)
        c.insert(0)          # refresh, no eviction
        victim = c.insert(128)
        assert victim[0] == 64

    def test_refresh_preserves_dirty(self):
        c = small_cache()
        c.insert(0, dirty=True)
        c.insert(0, dirty=False)
        assert line_dirty(c.peek(0))


class TestInvalidate:
    def test_removes_line(self):
        c = small_cache()
        c.insert(0)
        line = c.invalidate(0)
        assert line is not None
        assert c.peek(0) is None

    def test_absent_returns_none(self):
        c = small_cache()
        assert c.invalidate(0) is None


class TestState:
    def test_state_stored(self):
        c = small_cache()
        c.insert(0, state="M", dirty=True)
        line = c.peek(0)
        assert line_state(line) == "M"
        assert line_dirty(line)

    def test_resident_lines(self):
        c = small_cache()
        c.insert(0)
        c.insert(64)
        assert c.resident_lines() == 2


class TestDetStateIncremental:
    """The incrementally maintained det_state words must always equal
    the full tag-array walk (``det_state_scan``) they replaced."""

    def test_fresh_cache(self):
        c = small_cache()
        assert c.det_state() == c.det_state_scan()

    def test_mediated_mutators_keep_words_consistent(self):
        c = small_cache()
        c.insert(0, state="S")
        c.insert(64, state="S", dirty=True)
        c.set_line_state(0, "M")
        assert c.det_state() == c.det_state_scan()
        c.set_line_dirty(0)
        assert c.det_state() == c.det_state_scan()
        c.set_line_dirty(64, False)
        assert c.det_state() == c.det_state_scan()
        assert line_state(c.peek(0)) == "M"
        assert line_dirty(c.peek(0))
        assert not line_dirty(c.peek(64))

    @settings(max_examples=50)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(
                    ["lookup", "insert", "insert_dirty", "insert_m",
                     "invalidate", "state", "dirty", "clean"]
                ),
                st.integers(0, 1023),
            ),
            min_size=1,
            max_size=120,
        )
    )
    def test_random_ops_match_scan(self, ops):
        c = small_cache(ways=2, sets=2)
        for op, addr in ops:
            if op == "lookup":
                c.lookup(addr)
            elif op == "insert":
                c.insert(addr)
            elif op == "insert_dirty":
                c.insert(addr, dirty=True)
            elif op == "insert_m":
                c.insert(addr, state="M", dirty=True)
            elif op == "invalidate":
                c.invalidate(addr)
            elif op == "state":
                c.set_line_state(addr, "E")
            elif op == "dirty":
                c.set_line_dirty(addr)
            else:
                c.set_line_dirty(addr, False)
            assert c.det_state() == c.det_state_scan()
            line = c.peek(addr)
            if op == "state" and line is not None:
                assert line_state(line) == "E"
            for cache_set in c._sets:  # dict order is LRU-stamp order
                stamps = [packed >> LRU_SHIFT for packed in cache_set.values()]
                assert stamps == sorted(stamps)


@settings(max_examples=50)
@given(st.lists(st.integers(0, 4095), min_size=1, max_size=200))
def test_capacity_and_contents_match_reference(addresses):
    """Property: occupancy bounded; contents match a reference LRU model."""
    ways, sets, line = 2, 4, 64
    c = small_cache(ways=ways, sets=sets, line=line)
    reference = {s: [] for s in range(sets)}  # per-set MRU-last lists
    for addr in addresses:
        la = addr - addr % line
        s = (la // line) % sets
        if c.lookup(la) is None:
            c.insert(la)
            if la in reference[s]:
                reference[s].remove(la)
            reference[s].append(la)
            if len(reference[s]) > ways:
                reference[s].pop(0)
        else:
            reference[s].remove(la)
            reference[s].append(la)
    for s in range(sets):
        for la in reference[s]:
            assert c.peek(la) is not None
        assert list(c._sets[s]) == reference[s]  # LRU first, MRU last
    assert c.resident_lines() == sum(len(v) for v in reference.values())


class TestFill:
    """``fill`` writes the same tag store as one ``insert`` per line."""

    @settings(max_examples=50)
    @given(
        st.lists(st.tuples(st.sampled_from(["insert", "insert_m", "fill"]),
                           st.integers(0, 1023), st.integers(0, 600)),
                 min_size=1, max_size=30)
    )
    def test_fill_matches_insert_by_insert(self, ops):
        fast, ref = small_cache(ways=2, sets=2), small_cache(ways=2, sets=2)
        for op, addr, nbytes in ops:
            if op == "fill":
                start = fast.line_addr(addr)
                stop = addr + nbytes
                while start < stop:
                    start = fast.fill(start, stop)
                    if start < stop:
                        assert fast.insert(start) is not None
                        start += 64
                for line in range(ref.line_addr(addr), stop, 64):
                    ref.insert(line)
            else:
                for cache in (fast, ref):
                    cache.insert(addr, state="M" if op == "insert_m" else "S",
                                 dirty=op == "insert_m")
            assert [list(s.items()) for s in fast._sets] == \
                [list(s.items()) for s in ref._sets]
            assert fast.det_state() == ref.det_state() == fast.det_state_scan()

    def test_stops_at_first_full_set(self):
        c = small_cache(ways=1, sets=2)
        c.insert(64)
        assert c.fill(0, 256) == 128   # 0 -> set 0, 64 refreshed, 128 set 0 full
        assert c.resident_lines() == 2
        assert c.fill(256, 256) == 256
