"""Memory hierarchy: latencies, MSHR merging, coherence, criticality flow."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CacheConfig, DramConfig, SystemConfig
from repro.cache.base import SetAssociativeCache, line_dirty, line_state
from repro.cache.hierarchy import MemoryHierarchy
from repro.dram.controller import MemorySystem
from repro.sched.frfcfs import FrFcfsScheduler
from repro.sim.events import EventQueue


class Harness:
    """Hierarchy + memory + clock, steppable cycle by cycle."""

    def __init__(self, config=None):
        self.config = config or SystemConfig(cores=2)
        self.events = EventQueue()
        self.memory = MemorySystem(self.config.dram, lambda c: FrFcfsScheduler())
        self.hier = MemoryHierarchy(self.config, self.memory, self.events)
        self.now = 0
        self.hier.bind_clock(lambda: self.now)

    def run(self, cycles):
        for _ in range(cycles):
            self.events.run_due(self.now)
            self.memory.step(self.now)
            self.now += 1

    def load(self, core, addr, pc=1, critical=False, magnitude=0):
        done = []
        handle = self.hier.load(
            core, pc, addr, critical, magnitude,
            lambda _tag, c: done.append(c), self.now, 0,
        )
        return handle, done

    def complete(self, done, limit=20_000):
        start = self.now
        while not done and self.now < start + limit:
            self.run(1)
        assert done, "load never completed"
        return done[0]


class TestLoadLatencies:
    def test_l1_hit_latency(self):
        h = Harness()
        h.hier.prewarm(0, [(0, 4096, 1)])
        _handle, done = h.load(0, 100)
        t = h.complete(done)
        assert t == h.config.l1d.round_trip_latency

    def test_l2_hit_latency(self):
        h = Harness()
        h.hier.prewarm(0, [(0, 4096, 2)])  # L2 only
        _handle, done = h.load(0, 100)
        t = h.complete(done)
        assert t == h.config.l2.round_trip_latency

    def test_dram_load_slower_than_l2(self):
        h = Harness()
        _handle, done = h.load(0, 1 << 22)
        t = h.complete(done)
        assert t > h.config.l2.round_trip_latency
        assert h.hier.stats.dram_loads == 1

    def test_handle_marks_dram(self):
        h = Harness()
        handle, done = h.load(0, 1 << 22)
        h.complete(done)
        assert handle.went_to_dram
        assert handle.txn is not None


class TestMshrMerging:
    def test_same_line_loads_merge(self):
        h = Harness()
        _h1, d1 = h.load(0, 1 << 22)
        _h2, d2 = h.load(0, (1 << 22) + 8)
        h.complete(d1)
        h.complete(d2)
        assert h.hier.stats.dram_loads == 1  # one fill serves both

    def test_merged_critical_load_raises_txn_urgency(self):
        h = Harness()
        h1, d1 = h.load(0, 1 << 22, critical=False)
        h.run(40)  # let it reach the DRAM queue
        h2, d2 = h.load(0, (1 << 22) + 8, critical=True, magnitude=99)
        assert h1.txn is not None
        assert h1.txn.critical
        assert h1.txn.magnitude == 99
        h.complete(d1)
        h.complete(d2)

    def test_l1_mshr_full_rejects(self):
        import dataclasses

        from repro.config import L1D_DEFAULT

        cfg = SystemConfig(
            cores=2, l1d=dataclasses.replace(L1D_DEFAULT, mshr_entries=2)
        )
        h = Harness(cfg)
        assert h.load(0, 1 << 22)[0] is not None
        assert h.load(0, (1 << 22) + 4096)[0] is not None
        assert h.load(0, (1 << 22) + 8192)[0] is None  # full -> replay


class TestCriticalityPropagation:
    def test_annotation_reaches_txn(self):
        h = Harness()
        handle, done = h.load(0, 1 << 23, pc=42, critical=True, magnitude=321)
        h.run(40)
        assert handle.txn is not None
        assert handle.txn.critical
        assert handle.txn.magnitude == 321
        assert handle.txn.pc == 42
        h.complete(done)

    def test_latency_stats_split_by_class(self):
        h = Harness()
        _h1, d1 = h.load(0, 1 << 23, critical=True, magnitude=5)
        _h2, d2 = h.load(0, 2 << 23, critical=False)
        h.complete(d1)
        h.complete(d2)
        s = h.hier.stats
        assert s.crit_latency.count == 1
        assert s.noncrit_latency.count == 1
        assert s.mean_latency(True) > 0

    def test_per_pc_latency_recorded(self):
        h = Harness()
        _h1, d1 = h.load(0, 1 << 23, pc=77)
        h.complete(d1)
        assert 77 in h.hier.stats.pc_latency


class TestStoresAndCoherence:
    def test_store_hit_dirties_line(self):
        h = Harness()
        h.hier.prewarm(0, [(0, 4096, 1)])
        h.hier.store(0, 100, h.now)
        line = h.hier.l1[0].peek(96)
        assert line_state(line) == "M"
        assert line_dirty(line)

    def test_store_upgrade_invalidates_remote_sharer(self):
        h = Harness()
        h.hier.prewarm(0, [(0, 4096, 1)])
        h.hier.prewarm(1, [(0, 4096, 1)])
        h.hier.store(0, 100, h.now)
        assert h.hier.l1[1].peek(96) is None
        assert h.hier.stats.invalidations >= 1

    def test_store_miss_rfo_fetches_line(self):
        h = Harness()
        h.hier.store(0, 1 << 22, h.now)
        h.run(2_000)
        line = h.hier.l1[0].peek(1 << 22)
        assert line is not None
        assert line_state(line) == "M"

    def test_load_after_remote_modified_gets_shared_copy(self):
        h = Harness()
        h.hier.prewarm(0, [(0, 4096, 1)])
        h.hier.store(0, 100, h.now)
        _handle, done = h.load(1, 100)
        h.complete(done)
        assert line_state(h.hier.l1[0].peek(96)) == "S"
        assert h.hier.l1[1].peek(96) is not None
        assert h.hier.stats.interventions >= 1

    def test_store_buffer_backpressure_signal(self):
        h = Harness()
        assert h.hier.can_accept_store(0)


class TestWritebacks:
    def test_dirty_l2_eviction_writes_to_dram(self):
        import dataclasses

        from repro.config import L2_DEFAULT

        tiny_l2 = dataclasses.replace(
            L2_DEFAULT, size_bytes=2 * 64 * 8, ways=2  # 8 sets, 2 ways
        )
        cfg = SystemConfig(cores=2, l2=tiny_l2)
        h = Harness(cfg)
        # Dirty a line, then stream enough lines through its set to evict.
        h.hier.store(0, 0, h.now)
        h.run(2_000)
        for k in range(1, 6):
            _handle, done = h.load(0, k * 8 * 64 * 2)  # same set (8 sets)
            h.complete(done)
        h.run(4_000)
        assert h.hier.stats.writebacks >= 1


class TestPrewarm:
    def test_level1_fills_both_levels(self):
        h = Harness()
        h.hier.prewarm(0, [(0, 1024, 1)])
        assert h.hier.l1[0].peek(0) is not None
        assert h.hier.l2.peek(0) is not None

    def test_level2_fills_l2_only(self):
        h = Harness()
        h.hier.prewarm(0, [(0, 1024, 2)])
        assert h.hier.l1[0].peek(0) is None
        assert h.hier.l2.peek(0) is not None


def reference_prewarm(hier, core, ranges):
    """Prewarm one line at a time: an ``insert`` per line and the
    hierarchy's own eviction handlers, in range order."""
    for base, nbytes, level in ranges:
        for line64 in range(
            hier.l2.line_addr(base), base + nbytes, hier.config.l2.line_bytes
        ):
            victim = hier.l2.insert(line64, state="S", dirty=False)
            if victim is not None:
                hier._evict_l2_line(*victim)
        if level <= 1:
            l1 = hier.l1[core]
            for line32 in range(
                l1.line_addr(base), base + nbytes, hier.config.l1d.line_bytes
            ):
                victim = l1.insert(line32, state="S", dirty=False)
                if victim is not None:
                    hier._evict_l1_line(core, *victim)
                hier._dir[line32] = hier._dir.get(line32, 0) | 1 << core


def tiny_config():
    """Three cores, 4-set 2-way L1s and an 8-set 2-way L2: prewarm ranges
    of a few hundred bytes already evict at both levels."""
    return SystemConfig(
        cores=3,
        l1d=CacheConfig(size_bytes=4 * 2 * 32, line_bytes=32, ways=2,
                        round_trip_latency=3, mshr_entries=4),
        l2=CacheConfig(size_bytes=8 * 2 * 64, line_bytes=64, ways=2,
                       round_trip_latency=32, mshr_entries=8),
    )


def hierarchy_view(hier):
    """Everything prewarm may touch, with each set's lines in LRU order."""
    caches = [*hier.l1, hier.l2]
    return {
        "tag_stores": [[list(s.items()) for s in c._sets] for c in caches],
        "det_state": [c.det_state() for c in caches],
        "det_state_scan": [c.det_state_scan() for c in caches],
        "directory": list(hier._dir.items()),
        "hier_det_state": hier.det_state(),
        "writebacks": hier.stats.writebacks,
        "invalidations": hier.stats.invalidations,
        "memory": [ch.det_state() for ch in hier.memsys.channels],
    }


PREWARM_CALLS = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 3000), st.integers(1, 1500),
              st.sampled_from([1, 2])),
    min_size=1, max_size=8,
)


class TestPrewarmDifferential:
    """The one-pass prewarm equals the insert-by-insert reference."""

    def test_overlapping_ranges_evict_at_both_levels(self):
        fast, ref = Harness(tiny_config()), Harness(tiny_config())
        evicted = []
        for name in ("_evict_l1_line", "_evict_l2_line"):
            handler = getattr(fast.hier, name)
            setattr(fast.hier, name,
                    lambda *a, _n=name, _h=handler: evicted.append(_n) or _h(*a))
        calls = [
            (0, [(0, 512, 1), (256, 1024, 2), (130, 384, 1)]),
            (1, [(256, 640, 1), (0, 2048, 2)]),
            (2, [(70, 300, 1), (1000, 512, 1), (0, 96, 1)]),
            (0, [(0, 1024, 1)]),
        ]
        for core, ranges in calls:
            fast.hier.prewarm(core, ranges)
            reference_prewarm(ref.hier, core, ranges)
            assert hierarchy_view(fast.hier) == hierarchy_view(ref.hier)
        assert {"_evict_l1_line", "_evict_l2_line"} <= set(evicted)

    @settings(max_examples=60, deadline=None)
    @given(calls=PREWARM_CALLS, stores=st.lists(st.tuples(st.integers(0, 2),
                                                   st.integers(0, 1500)),
                                         max_size=12))
    def test_random_ranges_and_dirty_lines(self, calls, stores):
        """Random prewarm calls, with store hits inside the range just
        warmed so that Modified and dirty lines are refreshed and evicted
        by the calls after it."""
        fast, ref = Harness(tiny_config()), Harness(tiny_config())
        for i, (core, base, nbytes, level) in enumerate(calls):
            fast.hier.prewarm(core, [(base, nbytes, level)])
            reference_prewarm(ref.hier, core, [(base, nbytes, level)])
            assert hierarchy_view(fast.hier) == hierarchy_view(ref.hier)
            for store_core, offset in stores[i::len(calls)]:
                addr = base + offset % nbytes
                if fast.hier.l1[store_core].peek(addr) is not None:
                    fast.hier.store(store_core, addr, fast.now)
                    ref.hier.store(store_core, addr, ref.now)
            assert hierarchy_view(fast.hier) == hierarchy_view(ref.hier)


def test_default_parallel_machine_prewarms_without_insert(monkeypatch):
    """On the paper's 8-core machine no set fills during prewarm, so every
    line goes in through ``fill`` and ``insert`` is never called; the
    directory holds one sharer bitmask per line, not a set object."""
    from repro.sim.system import System
    from repro.workloads.parallel import PARALLEL_APP_NAMES, parallel_traces

    calls = []
    original = SetAssociativeCache.insert

    def counting_insert(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(SetAssociativeCache, "insert", counting_insert)
    config = SystemConfig.parallel_default()
    for app in PARALLEL_APP_NAMES:
        system = System(config, parallel_traces(app, config.cores, 200, seed=1))
        assert calls == [], app
        hier = system.hierarchy
        assert hier.l2.resident_lines() > 0
        assert all(l1.resident_lines() > 0 for l1 in hier.l1)
        assert {type(mask) for mask in hier._dir.values()} == {int}
