"""Two-level cache hierarchy with MSI coherence, feeding the DRAM model.

Timing model (CPU cycles), chosen to reproduce the paper's uncontended
round trips (Table 1/3: dL1 3 cycles, L2 32 cycles):

* L1 hit: ``l1.round_trip_latency``.
* L1 miss -> L2 hit: L1 latency + request traversal + response traversal =
  ``l1_rt + l2_rt`` total.
* L2 miss: adds DRAM queueing/service plus the L2 response traversal.

Coherence is MSI with an inclusive shared L2 and a full-map directory at
L1-line granularity: loads fetch Shared copies; stores upgrade or
read-for-ownership, invalidating remote sharers; a remote Modified copy is
written back to the L2 (with an intervention penalty) before a new sharer
is granted.  Dirty L2 victims become DRAM write transactions.

Criticality flows through this module untouched: the annotation attached at
load issue is copied onto the DRAM transaction (Section 3.2's widened
on-chip address bus), and merged MSHR requests take the maximum magnitude.
"""

from __future__ import annotations

from repro.cache.base import SetAssociativeCache, line_dirty, line_state
from repro.cache.mshr import MshrFile
from repro.cache.prefetcher import StreamPrefetcher
from repro.config import SystemConfig
from repro.dram.transaction import Transaction
from repro.telemetry.registry import LatencyHistogram

#: Extra CPU cycles when a remote L1 holds the line Modified.
INTERVENTION_PENALTY = 12
#: Retry interval for structural hazards (full MSHR / full DRAM queue).
RETRY_INTERVAL = 4


class LoadAccess:
    """Handle returned to the core for each accepted load.

    ``txn`` is filled in if/when the load reaches the DRAM queue, letting
    the naive forwarding mechanism (Section 5.1) promote it in place.
    ``tag`` is the requester's name for the load, handed back to its
    completion callback.
    """

    __slots__ = ("core", "pc", "address", "issue_cycle", "critical", "magnitude",
                 "tag", "txn", "went_to_dram")

    def __init__(self, core, pc, address, issue_cycle, critical, magnitude, tag):
        self.core = core
        self.pc = pc
        self.address = address
        self.issue_cycle = issue_cycle
        self.critical = critical
        self.magnitude = magnitude
        self.tag = tag
        self.txn = None
        self.went_to_dram = False


class HierarchyStats:
    """Aggregate counters the experiments consume."""

    def __init__(self):
        self.loads = 0
        self.l1_load_hits = 0
        self.l2_load_hits = 0
        self.dram_loads = 0
        self.stores = 0
        self.writebacks = 0
        self.interventions = 0
        self.invalidations = 0
        self.prefetches_issued = 0
        self.prefetches_useful = 0
        # L2-miss (DRAM-serviced) load latency distributions, split by
        # issue-time criticality — Figure 6's quantity plus its tails.
        # `total`/`count` are exact, so means are bit-identical to the
        # sum/count pairs these replace.
        self.crit_latency = LatencyHistogram()
        self.noncrit_latency = LatencyHistogram()
        # Per-static-PC DRAM-load latency distribution.
        self.pc_latency: dict[int, LatencyHistogram] = {}

    def mean_latency(self, critical: bool) -> float:
        return (self.crit_latency if critical else self.noncrit_latency).mean

    @property
    def l2_demand_accesses(self) -> int:
        return self.l2_load_hits + self.dram_loads

    @property
    def l2_hit_rate(self) -> float:
        total = self.l2_demand_accesses
        return self.l2_load_hits / total if total else 0.0


class MemoryHierarchy:
    """Private L1Ds + shared L2 + directory, bridging cores to DRAM."""

    def __init__(self, config: SystemConfig, memsys, events):
        self.config = config
        self.memsys = memsys
        self.events = events
        self.l1 = [SetAssociativeCache(config.l1d) for _ in range(config.cores)]
        self.l1_mshr = [MshrFile(config.l1d.mshr_entries) for _ in range(config.cores)]
        self.l2 = SetAssociativeCache(config.l2)
        self.l2_mshr = MshrFile(config.l2.mshr_entries)
        self.prefetcher = StreamPrefetcher(config.prefetcher, config.l2.line_bytes)
        self._prefetched_lines: set[int] = set()
        # Directory: L1-line address -> bitmask of the cores holding a
        # copy (bit ``c`` for core ``c``).  A mask that drops to zero
        # through a coherence action keeps its key; only an L1 eviction
        # of the last sharer or an L2 back-invalidation deletes it.
        self._dir: dict[int, int] = {}
        self.stats = HierarchyStats()
        self._l1_line = config.l1d.line_bytes
        self._l2_line = config.l2.line_bytes
        self._l1_hit_lat = config.l1d.round_trip_latency
        self._l2_half = config.l2.round_trip_latency // 2
        # Per-core count of stores awaiting an L1 MSHR (the post-commit
        # store buffer).  When it fills, the core must stall commit.
        self._store_backlog = [0] * config.cores
        self.store_buffer_entries = 12
        # Installed by System: wakes a core whose quiescent state this
        # module invalidates from the event domain (store-buffer drains,
        # an outstanding load turning out to be DRAM-bound).  See
        # OutOfOrderCore.skip_plan.
        self._wake_core = lambda core: None
        # Event-trace recorder (attached by System under REPRO_TRACE=1);
        # None during construction/prewarm, so those never record.
        self.trace = None

    def _trace_cache(self, kind: str, core: int, line_addr: int) -> None:
        if self.trace is not None:
            self.trace.cache_event(self._now(), kind, core, line_addr)

    # ------------------------------------------------------------------ loads

    def load(self, core, pc, address, critical, magnitude, callback, now, tag):
        """Issue a load.  Returns a :class:`LoadAccess`, or None if the L1
        MSHR file is full (the core must replay the load).  When the data
        arrives, ``callback(tag, cycle)`` runs."""
        stats = self.stats
        handle = LoadAccess(core, pc, address, now, critical, magnitude, tag)
        if self.l1[core].lookup(address) is not None:
            stats.loads += 1
            stats.l1_load_hits += 1
            done = now + self._l1_hit_lat
            self.events.schedule(done, lambda: callback(tag, done))
            return handle

        line32 = address - address % self._l1_line
        mshr = self.l1_mshr[core]
        entry = mshr.get(line32)
        if entry is not None:
            stats.loads += 1
            entry.waiters.append((handle, callback))
            l2_entry = self.l2_mshr.get(line32 - line32 % self._l2_line)
            if l2_entry is not None and l2_entry.txn is not None:
                handle.txn = l2_entry.txn
                handle.went_to_dram = True
            if critical:
                self._bump_criticality(line32, magnitude)
            return handle
        entry = mshr.allocate(line32)
        if entry is None:
            return None
        stats.loads += 1
        entry.waiters.append((handle, callback))
        t_l2 = now + self._l1_hit_lat + max(0, self._l2_half - self._l1_hit_lat)
        self.events.schedule(
            t_l2,
            lambda: self._access_l2(core, line32, critical, magnitude,
                                    is_rfo=False, pc=pc),
        )
        return handle

    # ------------------------------------------------------------------ stores

    def can_accept_store(self, core) -> bool:
        """False when the core's store buffer is full (commit must stall)."""
        return self._store_backlog[core] < self.store_buffer_entries

    def store(self, core, address, now, _retry=False) -> None:
        """Retire a store (called at commit; buffered, non-blocking)."""
        stats = self.stats
        if not _retry:
            stats.stores += 1
        l1 = self.l1[core]
        line = l1.lookup(address)
        line32 = address - address % self._l1_line
        if line is not None:
            if _retry:
                self._store_backlog[core] -= 1
                self._wake_core(core)
            if line_state(line) == "M":
                l1.set_line_dirty(line32)
                return
            # Upgrade S -> M: invalidate remote sharers.
            self._invalidate_remote(core, line32)
            l1.set_line_state(line32, "M")
            l1.set_line_dirty(line32)
            return
        # Write-allocate: read-for-ownership through the miss path.
        mshr = self.l1_mshr[core]
        entry = mshr.get(line32)
        if entry is not None:
            if _retry:
                self._store_backlog[core] -= 1
                self._wake_core(core)
            entry.rfo = True
            return
        entry = mshr.allocate(line32)
        if entry is None:
            # Hold the store in the core's store buffer and retry; the
            # buffer's occupancy gates commit via can_accept_store().
            if not _retry:
                self._store_backlog[core] += 1
            self.events.schedule(
                now + RETRY_INTERVAL,
                lambda: self.store(core, address, now + RETRY_INTERVAL, _retry=True),
            )
            return
        if _retry:
            self._store_backlog[core] -= 1
            self._wake_core(core)
        entry.rfo = True
        t_l2 = now + self._l1_hit_lat + max(0, self._l2_half - self._l1_hit_lat)
        self.events.schedule(
            t_l2, lambda: self._access_l2(core, line32, False, 0, is_rfo=True)
        )

    # -------------------------------------------------------------- L2 access

    def _access_l2(self, core, line32, critical, magnitude, is_rfo, pc=0) -> None:
        now = self._now()
        line64 = line32 - line32 % self._l2_line
        hit = self.l2.lookup(line64) is not None
        self._train_prefetcher(line64, is_miss=not hit)
        if hit:
            if line64 in self._prefetched_lines:
                self._prefetched_lines.discard(line64)
                self.stats.prefetches_useful += 1
            penalty = self._resolve_remote_copies(core, line64, is_rfo)
            if not is_rfo:
                self.stats.l2_load_hits += 1
            done = now + self._l2_half + penalty
            self.events.schedule(
                done, lambda: self._fill_l1_and_respond(core, line32, is_rfo, done, None)
            )
            return
        # L2 miss -> DRAM.
        entry = self.l2_mshr.get(line64)
        if entry is not None:
            entry.waiters.append((core, line32, is_rfo))
            if critical and entry.txn is not None:
                entry.txn.critical = True
                if magnitude > entry.txn.magnitude:
                    entry.txn.magnitude = magnitude
            return
        entry = self.l2_mshr.allocate(line64)
        if entry is None:
            self.events.schedule(
                now + RETRY_INTERVAL,
                lambda: self._access_l2(core, line32, critical, magnitude, is_rfo),
            )
            return
        entry.waiters.append((core, line32, is_rfo))
        txn = self.memsys.make_transaction(
            line64,
            is_write=False,
            core=core,
            pc=pc,
            critical=critical,
            magnitude=magnitude,
            callback=lambda dram_done: self._dram_fill(line64, dram_done),
        )
        entry.txn = txn
        self._mark_handles_dram(core, line32, txn)
        self._enqueue_with_retry(txn)

    def _bump_criticality(self, line32, magnitude) -> None:
        """A critical load merged into an outstanding miss: raise urgency."""
        entry = self.l2_mshr.get(line32 - line32 % self._l2_line)
        if entry is not None and entry.txn is not None:
            txn = entry.txn
            txn.critical = True
            if magnitude > txn.magnitude:
                txn.magnitude = magnitude

    def _mark_handles_dram(self, core, line32, txn) -> None:
        entry = self.l1_mshr[core].get(line32)
        if entry is None:
            return
        for handle, _cb in entry.waiters:
            handle.txn = txn
            handle.went_to_dram = True
        self._wake_core(core)

    def _enqueue_with_retry(self, txn) -> None:
        if not self.memsys.try_enqueue(txn, self._now()):
            self.events.schedule(
                self._now() + RETRY_INTERVAL, lambda: self._enqueue_with_retry(txn)
            )

    # ----------------------------------------------------------- DRAM return

    def _dram_fill(self, line64, dram_done) -> None:
        cpu_done = self.memsys.dram_to_cpu(dram_done)
        self.events.schedule(cpu_done, lambda: self._install_l2_fill(line64, cpu_done))

    def _install_l2_fill(self, line64, now) -> None:
        entry = self.l2_mshr.release(line64)
        self._trace_cache("l2_fill", -1, line64)
        victim = self.l2.insert(line64, state="S", dirty=False)
        if victim is not None:
            self._evict_l2_line(*victim)
        respond_at = now + self._l2_half
        for core, line32, is_rfo in entry.waiters:
            self.events.schedule(
                respond_at,
                lambda c=core, l=line32, r=is_rfo: self._fill_l1_and_respond(
                    c, l, r, respond_at, line64
                ),
            )
        if entry.waiters:
            self.stats.dram_loads += 1

    def _fill_l1_and_respond(self, core, line32, is_rfo, now, from_dram_line) -> None:
        mshr = self.l1_mshr[core]
        entry = mshr.get(line32)
        rfo = is_rfo or (entry is not None and entry.rfo)
        if rfo:
            self._invalidate_remote(core, line32)
        state = "M" if rfo else "S"
        victim = self.l1[core].insert(line32, state=state, dirty=rfo)
        if victim is not None:
            self._evict_l1_line(core, *victim)
        directory = self._dir
        directory[line32] = directory.get(line32, 0) | 1 << core
        if entry is not None:
            released = mshr.release(line32)
            for handle, callback in released.waiters:
                if handle.went_to_dram:
                    latency = now - handle.issue_cycle
                    stats = self.stats
                    if handle.critical:
                        stats.crit_latency.record(latency)
                    else:
                        stats.noncrit_latency.record(latency)
                    hist = stats.pc_latency.get(handle.pc)
                    if hist is None:
                        hist = stats.pc_latency[handle.pc] = LatencyHistogram()
                    hist.record(latency)
                callback(handle.tag, now)

    # ----------------------------------------------------------- coherence

    def _resolve_remote_copies(self, core, line64, is_rfo) -> int:
        """Handle remote L1 copies on an L2 hit; returns extra latency."""
        penalty = 0
        directory = self._dir
        for line32 in range(line64, line64 + self._l2_line, self._l1_line):
            sharers = directory.get(line32)
            if not sharers:
                continue
            remote = sharers & ~(1 << core)
            while remote:
                bit = remote & -remote
                remote ^= bit
                other = bit.bit_length() - 1
                other_l1 = self.l1[other]
                other_line = other_l1.peek(line32)
                if other_line is None:
                    sharers ^= bit
                    continue
                if line_state(other_line) == "M":
                    # Writeback to L2, downgrade (or invalidate on RFO).
                    self.l2.set_line_dirty(line64)
                    penalty = INTERVENTION_PENALTY
                    self.stats.interventions += 1
                    if is_rfo:
                        other_l1.invalidate(line32)
                        sharers ^= bit
                        self.stats.invalidations += 1
                        self._trace_cache("inval", other, line32)
                    else:
                        other_l1.set_line_state(line32, "S")
                        other_l1.set_line_dirty(line32, False)
                elif is_rfo:
                    other_l1.invalidate(line32)
                    sharers ^= bit
                    self.stats.invalidations += 1
                    self._trace_cache("inval", other, line32)
            directory[line32] = sharers
        return penalty

    def _invalidate_remote(self, core, line32) -> None:
        sharers = self._dir.get(line32)
        if not sharers:
            return
        remote = sharers & ~(1 << core)
        while remote:
            bit = remote & -remote
            remote ^= bit
            other = bit.bit_length() - 1
            other_line = self.l1[other].invalidate(line32)
            if other_line is not None:
                if line_state(other_line) == "M":
                    self.l2.set_line_dirty(line32)
                self.stats.invalidations += 1
                self._trace_cache("inval", other, line32)
        self._dir[line32] = sharers & 1 << core

    # ------------------------------------------------------------- evictions

    def _evict_l1_line(self, core, line_addr, line) -> None:
        sharers = self._dir.get(line_addr)
        if sharers is not None:
            sharers &= ~(1 << core)
            if sharers:
                self._dir[line_addr] = sharers
            else:
                del self._dir[line_addr]
        if line_dirty(line) or line_state(line) == "M":
            self.l2.set_line_dirty(line_addr)

    def _evict_l2_line(self, line64, line) -> None:
        dirty = line_dirty(line)
        # Inclusive L2: back-invalidate every covered L1 line everywhere.
        for line32 in range(line64, line64 + self._l2_line, self._l1_line):
            sharers = self._dir.pop(line32, 0)
            while sharers:
                bit = sharers & -sharers
                sharers ^= bit
                core = bit.bit_length() - 1
                l1line = self.l1[core].invalidate(line32)
                if l1line is not None:
                    if line_state(l1line) == "M" or line_dirty(l1line):
                        dirty = True
                    self.stats.invalidations += 1
                    self._trace_cache("inval", core, line32)
        self._prefetched_lines.discard(line64)
        if dirty:
            self._trace_cache("dirty_evict", -1, line64)
            self._writeback(line64)

    def _writeback(self, line64) -> None:
        self.stats.writebacks += 1
        txn = self.memsys.make_transaction(line64, is_write=True)
        self._enqueue_with_retry(txn)

    # ------------------------------------------------------------ prefetching

    def _train_prefetcher(self, line64, is_miss) -> None:
        for address in self.prefetcher.observe(line64, is_miss):
            target = address - address % self._l2_line
            if self.l2.peek(target) is not None or self.l2_mshr.get(target) is not None:
                continue
            entry = self.l2_mshr.allocate(target)
            if entry is None:
                return
            txn = self.memsys.make_transaction(
                target,
                is_write=False,
                core=-1,
                is_prefetch=True,
                callback=lambda dram_done, t=target: self._dram_fill(t, dram_done),
            )
            entry.txn = txn
            self._prefetched_lines.add(target)
            self.stats.prefetches_issued += 1
            self._enqueue_with_retry(txn)

    def prewarm(self, core: int, ranges) -> None:
        """Pre-populate caches per a trace's ``prewarm`` hints.

        Models the paper's fast-forward warmup: level-1 ranges are installed
        in the owning core's L1 (Shared) and in the L2; level-2 ranges go to
        the L2 only.  Each range is one :meth:`SetAssociativeCache.fill`
        pass per level that writes lines straight into sets with room; a
        line whose set is full takes the ordinary insert-and-evict path.
        The tag stores, their LRU order, the directory and the det-state
        words come out exactly as if every line were inserted one at a
        time, and every System builds them cold.
        """
        l2 = self.l2
        l1 = self.l1[core]
        l1_line = self._l1_line
        l2_line = self._l2_line
        directory = self._dir
        sharer = directory.get
        bit = 1 << core
        for base, nbytes, level in ranges:
            end = base + nbytes
            line64 = base - base % l2_line
            while line64 < end:
                line64 = l2.fill(line64, end)
                if line64 < end:
                    self._evict_l2_line(*l2.insert(line64))
                    line64 += l2_line
            if level > 1:
                continue
            line32 = base - base % l1_line
            while line32 < end:
                stop = l1.fill(line32, end)
                # Sharers before the victim path: the victim may be a
                # line this chunk just filled.
                for line in range(line32, stop, l1_line):
                    directory[line] = sharer(line, 0) | bit
                if stop >= end:
                    break
                self._evict_l1_line(core, *l1.insert(stop))
                directory[stop] = sharer(stop, 0) | bit
                line32 = stop + l1_line

    # -------------------------------------------------------------- telemetry

    def register_metrics(self, registry, prefix: str = "hier") -> None:
        """Register this hierarchy's instruments under ``prefix``.

        The latency histograms are the live stats objects, so recording
        stays a single method call; everything marked ``sampled`` is
        event-driven (updated only at stepped cycles) and therefore
        window-constant, as the interval sampler requires.
        """
        stats = self.stats
        registry.histogram(f"{prefix}.crit_latency", stats.crit_latency)
        registry.histogram(f"{prefix}.noncrit_latency", stats.noncrit_latency)
        registry.gauge(f"{prefix}.loads", lambda: stats.loads, sampled=True)
        registry.gauge(f"{prefix}.dram_loads",
                       lambda: stats.dram_loads, sampled=True)
        registry.gauge(f"{prefix}.l1_load_hits", lambda: stats.l1_load_hits)
        registry.gauge(f"{prefix}.l2_load_hits", lambda: stats.l2_load_hits)
        registry.gauge(f"{prefix}.writebacks", lambda: stats.writebacks)
        registry.gauge(f"{prefix}.prefetches_issued",
                       lambda: stats.prefetches_issued)
        registry.gauge(f"{prefix}.l2_mshr_occupancy",
                       lambda: len(self.l2_mshr), sampled=True)
        # Epoch-resolved criticality latency: sampling cumulative
        # count/total lets consumers difference adjacent samples into
        # per-epoch means (histograms themselves are never sampled).
        registry.gauge(f"{prefix}.crit_latency_count",
                       lambda: stats.crit_latency.count, sampled=True)
        registry.gauge(f"{prefix}.crit_latency_total",
                       lambda: stats.crit_latency.total, sampled=True)
        registry.gauge(f"{prefix}.noncrit_latency_count",
                       lambda: stats.noncrit_latency.count, sampled=True)
        registry.gauge(f"{prefix}.noncrit_latency_total",
                       lambda: stats.noncrit_latency.total, sampled=True)

    def det_state(self) -> list[int]:
        """Architectural state words for the determinism hash-chain.

        Directory, prefetch bookkeeping, store backlogs, and MSHR files
        change only inside load/store/event handlers — all of which run
        at stepped cycles — so everything here is constant during
        quiescent fast-forward windows.  Set contents are reduced to
        order-insensitive aggregates (sizes); dict iteration in the MSHR
        views is insertion-ordered and hence deterministic.
        """
        values = [
            len(self._dir),
            len(self._prefetched_lines),
            sum(self._store_backlog),
        ]
        for mshr in self.l1_mshr:
            values.extend(mshr.det_state())
        values.extend(self.l2_mshr.det_state())
        for cache in self.l1:
            values.extend(cache.det_state())
        values.extend(self.l2.det_state())
        return values

    # ------------------------------------------------------------------ clock

    def bind_clock(self, clock_fn) -> None:
        """Install the closure returning the current CPU cycle."""
        self._now = clock_fn

    def bind_core_waker(self, wake_fn) -> None:
        """Install the per-core wake callback used by cycle skipping."""
        self._wake_core = wake_fn
