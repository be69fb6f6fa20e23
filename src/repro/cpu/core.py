"""Cycle-stepped out-of-order core (paper Table 1 machine).

Modeled structure, per cycle:

* **Dispatch** — in order, up to ``fetch_width`` per cycle, gated by ROB
  space, load/store-queue entries (allocated at dispatch, freed at commit),
  and branch-misprediction refill stalls (resolve + 9-cycle penalty).
* **Execute** — an instruction issues once all producers have completed;
  per-type functional-unit slots bound issues per cycle (2 INT / 2 FP /
  2 branch / 2 load ports / 2 store ports).  Non-memory latencies are
  fixed; loads go to the cache hierarchy and complete when data returns.
* **Commit** — in order, up to ``commit_width`` per cycle.  An incomplete
  load at the ROB head *blocks* commit: this is the event the Commit Block
  Predictor observes (block start) and measures (stall length, written back
  at the blocked load's commit).

The core reports three things to its criticality provider: annotations for
issued loads, block starts, and blocked-commit stall times — plus direct-
consumer counts for the CLPT comparator.
"""

from __future__ import annotations

from repro.config import CoreConfig
from repro.cpu.instruction import (
    BRANCH,
    DC_LOAD,
    DC_MISP_BRANCH,
    DC_STORE,
    FP,
    INT,
    LOAD,
    STORE,
)
from repro.core.provider import CriticalityProvider, NaiveForwardingProvider

_UNKNOWN = -1


def _by_itype(values: dict[int, int]) -> tuple[int, ...]:
    """``values`` as a tuple indexed by itype (0 where absent)."""
    return tuple(values.get(itype, 0) for itype in (INT, FP, BRANCH, LOAD, STORE))


class CoreStats:
    """Per-core counters for Figures 1/6/9 and predictor studies."""

    def __init__(self):
        self.committed = 0
        self.cycles = 0
        self.loads = 0
        self.blocking_loads = 0
        self.blocking_dram_loads = 0
        self.blocked_cycles = 0
        self.blocked_dram_cycles = 0
        self.total_block_stall = 0
        self.lq_full_cycles = 0
        self.sq_full_cycles = 0
        self.rob_full_cycles = 0
        self.dispatch_stall_cycles = 0
        self.critical_loads_sent = 0

    @property
    def ipc(self) -> float:
        return self.committed / self.cycles if self.cycles else 0.0


class OutOfOrderCore:
    """One core executing one trace against the shared hierarchy."""

    def __init__(
        self,
        core_id: int,
        config: CoreConfig,
        trace,
        hierarchy,
        provider: CriticalityProvider | None = None,
        events=None,
    ):
        self.core_id = core_id
        self.config = config
        self.trace = trace
        self.hierarchy = hierarchy
        self.provider = provider if provider is not None else CriticalityProvider()
        if isinstance(self.provider, NaiveForwardingProvider) and events is not None:
            self.provider.bind_defer(events.schedule)
        self._n = len(trace)
        self._ptr = 0
        # The ROB always holds the consecutive trace indices
        # [_ptr - _rob_len, _ptr), so the entry for index ``i`` lives at the
        # fixed ring position ``i % rob_entries`` of every in-flight column
        # below — no head pointer, no index map, no per-entry object.
        cap = config.rob_entries
        self._rob_len = 0
        # Earliest cycle the entry may issue: the cycle after dispatch,
        # raised to each producer's completion.
        self._ready = [0] * cap
        # In-flight producers the entry still waits on.
        self._pending = [0] * cap
        # Trace indices of the entry's in-flight consumers, woken on its
        # completion; the lists are reused, emptied at each completion.
        self._waiters: list[list[int]] = [[] for _ in range(cap)]
        # Loads only (reset when the load commits): direct-consumer count,
        # as CLPT tracks at rename time, and the hierarchy's LoadAccess.
        self._consumers = [0] * cap
        self._handle: list = [None] * cap
        # Cycle the ROB-head load began blocking commit on DRAM (-1: not
        # blocking); only the head can block, so one scalar serves.
        self._head_block_start = -1
        self._complete: list[int] = [_UNKNOWN] * self._n
        # Per-cycle wake lists (trace indices) for deterministic-latency
        # completions.
        self._wake: dict[int, list[int]] = {}
        # Loads (trace indices) scheduled to access the cache at a cycle.
        self._load_issue: dict[int, list[int]] = {}
        # Functional-unit reservation, indexed by itype: cycle -> issues
        # booked, against each type's per-cycle capacity.
        self._fu_booked: list[dict[int, int]] = [{} for _ in range(5)]
        self._fu_caps = _by_itype({
            INT: config.int_units,
            FP: config.fp_units,
            BRANCH: config.branch_units,
            LOAD: config.load_ports,
            STORE: config.store_ports,
        })
        # Fixed execution latency by itype (loads complete when the
        # hierarchy answers).
        self._latency = _by_itype({
            INT: config.int_latency,
            FP: config.fp_latency,
            BRANCH: config.branch_latency,
            STORE: 1,
        })
        self._lq_used = 0
        self._sq_used = 0
        # Trace index of the unresolved mispredicted branch fetch waits on
        # (-1: none).
        self._fetch_blocker = -1
        self._fetch_resume = 0
        self._itypes = trace.itypes
        self._pcs = trace.pcs
        self._addrs = trace.addrs
        self._dclass = trace.dispatch_classes()
        # Hot-path copies of per-run-constant configuration (attribute
        # loads off ``self`` are cheaper than two-level ``config`` reads
        # in the per-cycle stages).
        self._fetch_width = config.fetch_width
        self._commit_width = config.commit_width
        self._rob_entries = config.rob_entries
        self._lq_entries = config.load_queue_entries
        self._sq_entries = config.store_queue_entries
        self._misp_penalty = config.branch_mispredict_penalty
        self.stats = CoreStats()
        self.done = False
        # Cycle-skipping state (see skip_plan): while quiescent the system
        # may stop stepping this core until ``skip_until``; the per-cycle
        # stat increments it owes are settled lazily by flush_skip.
        self.skip_until = 0
        self._quiet_deltas = None
        self._quiet_from = 0
        # Hysteresis: after skip_plan says "can progress", don't re-plan for
        # a few cycles.  Purely a throughput knob — skipping fewer cycles is
        # always bit-identical, so this can't change results.
        self.plan_defer = 0
        # Duck-typed providers without next_tick_cycle have unknown tick
        # semantics; such cores are never skipped (skip_plan bails).
        self._next_tick = getattr(self.provider, "next_tick_cycle", None)
        # Event-trace recorder (attached by System under REPRO_TRACE=1).
        self.tracer = None

    # --------------------------------------------------------------- helpers

    def _rob_occupancy(self) -> int:
        return self._rob_len

    # ----------------------------------------------------------- completions

    def _complete_at(self, idx: int, cycle: int) -> None:
        """Mark trace index ``idx`` complete at ``cycle`` and wake its
        dependents.  Also the hierarchy's load-done callback (``idx`` is
        the load's tag)."""
        self.skip_until = 0  # completions can unblock commit/dispatch
        self._complete[idx] = cycle
        if idx == self._fetch_blocker:
            self._fetch_blocker = -1
            self._fetch_resume = cycle + self._misp_penalty
        cap = self._rob_entries
        waiters = self._waiters[idx % cap]
        if waiters:
            ready = self._ready
            pending = self._pending
            for dep in waiters:
                pos = dep % cap
                if cycle > ready[pos]:
                    ready[pos] = cycle
                left = pending[pos] - 1
                pending[pos] = left
                if left == 0:
                    self._schedule_execute(dep, ready[pos])
            waiters.clear()

    def _schedule_execute(self, idx: int, earliest: int) -> None:
        """Book a functional unit of ``idx``'s type at the first cycle at or
        after ``earliest`` with one free, then queue ``idx`` to access the
        cache that cycle (a load) or to complete after its latency."""
        itype = self._itypes[idx]
        booked = self._fu_booked[itype]
        cap = self._fu_caps[itype]
        issue = earliest
        used = booked.get(issue, 0)
        while used >= cap:
            issue += 1
            used = booked.get(issue, 0)
        booked[issue] = used + 1
        if itype == LOAD:
            buckets = self._load_issue
        else:
            issue += self._latency[itype]
            buckets = self._wake
        bucket = buckets.get(issue)
        if bucket is None:
            buckets[issue] = [idx]
        else:
            bucket.append(idx)

    # ---------------------------------------------------------------- stages

    def _do_load_issues(self, now: int, issuing: list[int]) -> None:
        hierarchy = self.hierarchy
        provider = self.provider
        core_id = self.core_id
        stats = self.stats
        tracer = self.tracer
        pcs = self._pcs
        addrs = self._addrs
        handles = self._handle
        cap = self._rob_entries
        done = self._complete_at
        for idx in issuing:
            pc = pcs[idx]
            critical, magnitude = provider.annotate(pc)
            handle = hierarchy.load(
                core_id, pc, addrs[idx], critical, magnitude, done, now, idx
            )
            if handle is None:
                # L1 MSHRs full: replay next cycle through a fresh port slot.
                self._schedule_execute(idx, now + 1)
                continue
            handles[idx % cap] = handle
            if critical:
                stats.critical_loads_sent += 1
                if tracer is not None:
                    tracer.prediction(now, core_id, pc, magnitude)
            stats.loads += 1

    def _do_commit(self, now: int) -> None:
        stats = self.stats
        cap = self._rob_entries
        complete = self._complete
        itypes = self._itypes
        pcs = self._pcs
        handles = self._handle
        consumers = self._consumers
        provider = self.provider
        hierarchy = self.hierarchy
        core_id = self.core_id
        tracer = self.tracer
        committed = 0
        width = self._commit_width
        rob_len = self._rob_len
        head = self._ptr - rob_len
        while committed < width and rob_len:
            done_cycle = complete[head]
            itype = itypes[head]
            if done_cycle == _UNKNOWN or done_cycle > now:
                if itype == LOAD:
                    # Only long-latency (DRAM-serviced) loads count as
                    # ROB-head blockers — the Runahead/CLEAR criterion the
                    # CBP is built on.  Short L1/L2-hit head stalls are not
                    # criticality events.
                    handle = handles[head % cap]
                    dram_bound = handle is not None and handle.went_to_dram
                    if self._head_block_start < 0 and dram_bound:
                        self._head_block_start = now
                        stats.blocking_loads += 1
                        stats.blocking_dram_loads += 1
                        provider.on_block_start(pcs[head], now, handle.txn)
                    stats.blocked_cycles += 1
                    if dram_bound:
                        stats.blocked_dram_cycles += 1
                break
            if itype == STORE and not hierarchy.can_accept_store(core_id):
                # Store buffer full: commit stalls until it drains.
                stats.sq_full_cycles += 1
                break
            if itype == LOAD:
                pc = pcs[head]
                pos = head % cap
                block_start = self._head_block_start
                if block_start >= 0:
                    stall = now - block_start
                    stats.total_block_stall += stall
                    if tracer is not None:
                        tracer.block_episode(block_start, core_id, pc, stall)
                    provider.on_blocked_commit(pc, stall, now)
                    self._head_block_start = -1
                provider.on_load_consumers(pc, consumers[pos])
                consumers[pos] = 0
                handles[pos] = None
                self._lq_used -= 1
            elif itype == STORE:
                self._sq_used -= 1
                hierarchy.store(core_id, self._addrs[head], now)
            head += 1
            rob_len -= 1
            committed += 1
        stats.committed += committed
        self._rob_len = rob_len

    def _do_dispatch(self, now: int) -> None:
        if self._fetch_blocker >= 0 or now < self._fetch_resume:
            self.stats.dispatch_stall_cycles += 1
            return
        cap = self._rob_entries
        stats = self.stats
        fetch_width = self._fetch_width
        itypes = self._itypes
        dclass = self._dclass
        trace = self.trace
        dep1 = trace.dep1
        dep2 = trace.dep2
        complete = self._complete
        ready_col = self._ready
        pending_col = self._pending
        waiters = self._waiters
        consumers = self._consumers
        n = self._n
        lq_used = self._lq_used
        lq_entries = self._lq_entries
        sq_used = self._sq_used
        sq_entries = self._sq_entries
        dispatched = 0
        counted_lq_full = False
        ptr = self._ptr
        rob_len = self._rob_len
        # Constant across the loop: dispatch grows ptr and rob_len together.
        # A producer p < first has committed, so its completion is known;
        # a producer p >= first is in flight at ring position p % cap.
        first = ptr - rob_len
        while dispatched < fetch_width and ptr < n:
            if rob_len >= cap:
                stats.rob_full_cycles += 1
                break
            cls = dclass[ptr]
            if cls == DC_LOAD and lq_used >= lq_entries:
                if not counted_lq_full:
                    stats.lq_full_cycles += 1
                    counted_lq_full = True
                break
            if cls == DC_STORE and sq_used >= sq_entries:
                break
            # The two producer operands, unrolled (dep1 then dep2): an
            # in-flight producer takes this index as a waiter; a completed
            # one bounds the issue cycle.
            ready = now + 1
            pending = 0
            p = ptr - dep1[ptr]
            if 0 <= p < ptr:
                done = complete[p]
                if p >= first:
                    if itypes[p] == LOAD:
                        consumers[p % cap] += 1
                    if done == _UNKNOWN:
                        waiters[p % cap].append(ptr)
                        pending = 1
                    elif done > ready:
                        ready = done
                elif done > ready:
                    ready = done
            p = ptr - dep2[ptr]
            if 0 <= p < ptr:
                done = complete[p]
                if p >= first:
                    if itypes[p] == LOAD:
                        consumers[p % cap] += 1
                    if done == _UNKNOWN:
                        waiters[p % cap].append(ptr)
                        pending += 1
                    elif done > ready:
                        ready = done
                elif done > ready:
                    ready = done
            pos = ptr % cap
            ready_col[pos] = ready
            pending_col[pos] = pending
            rob_len += 1
            if cls == DC_LOAD:
                lq_used += 1
            elif cls == DC_STORE:
                sq_used += 1
            if not pending:
                self._schedule_execute(ptr, ready)
            ptr += 1
            dispatched += 1
            if cls == DC_MISP_BRANCH:
                # Fetch stalls until the branch resolves, plus the refill
                # penalty (applied when the branch completes).
                self._fetch_blocker = ptr - 1
                break
        self._ptr = ptr
        self._rob_len = rob_len
        self._lq_used = lq_used
        self._sq_used = sq_used

    # ------------------------------------------------------------------ step

    def step(self, now: int) -> None:
        """Advance one CPU cycle."""
        if self.done:
            return
        wake = self._wake.pop(now, None)
        if wake:
            for idx in wake:
                self._complete_at(idx, now)
        issuing = self._load_issue.pop(now, None)
        if issuing:
            self._do_load_issues(now, issuing)
        self._do_commit(now)
        self._do_dispatch(now)
        self.provider.tick(now)
        if now & 16383 == 0 and now:
            self._prune_fu_bookings(now)
        self.stats.cycles = now + 1
        if self._ptr >= self._n and not self._rob_len:
            self.done = True

    # -------------------------------------------------------- cycle skipping

    def skip_plan(self, now: int):
        """Classify the core's state after cycle ``now`` for fast-forwarding.

        Returns ``None`` when the core could make progress at ``now + 1``
        (the system must keep stepping cycle by cycle), otherwise a pair
        ``(wake, deltas)``:

        * ``wake`` — earliest future cycle at which stepping this core might
          change its state (``None`` = only external events can wake it);
        * ``deltas`` — the per-cycle stat increments the naive loop would
          apply while the state holds, as a tuple ``(blocked, blocked_dram,
          sq_full, dispatch_stall, rob_full, lq_full)``.

        The classification mirrors :meth:`step` exactly; anything uncertain
        returns ``None`` so skipping stays conservative (and therefore
        bit-identical to the cycle-by-cycle loop).
        """
        next_tick = self._next_tick
        if next_tick is None:
            return None  # provider tick semantics unknown: never skip
        blocked = blocked_dram = sq_full = stall = rob_full = lq_full = 0
        head_done = -1

        rob_len = self._rob_len
        if rob_len:
            head = self._ptr - rob_len
            done_cycle = self._complete[head]
            itype = self._itypes[head]
            if done_cycle == _UNKNOWN or done_cycle > now:
                head_done = done_cycle
                if itype == LOAD:
                    handle = self._handle[head % self._rob_entries]
                    dram_bound = handle is not None and handle.went_to_dram
                    if dram_bound and self._head_block_start < 0:
                        # First blocked cycle not yet accounted: step it.
                        return None
                    blocked = 1
                    if dram_bound:
                        blocked_dram = 1
            elif itype == STORE and not self.hierarchy.can_accept_store(
                self.core_id
            ):
                sq_full = 1
            else:
                return None  # head commits next cycle

        fetch_resume = 0
        if self._fetch_blocker >= 0:
            stall = 1
        elif now + 1 < self._fetch_resume:
            fetch_resume = self._fetch_resume
            stall = 1
        elif self._ptr < self._n:
            if rob_len >= self._rob_entries:
                rob_full = 1
            else:
                itype = self._itypes[self._ptr]
                if itype == LOAD and self._lq_used >= self._lq_entries:
                    lq_full = 1
                elif (
                    itype == STORE
                    and self._sq_used >= self._sq_entries
                ):
                    pass  # dispatch stalls silently on a full store queue
                else:
                    return None  # dispatch proceeds next cycle

        # Quiescent: gather the cycles at which stepping could matter again.
        wake = None
        if self._wake:
            wake = min(self._wake)
        if self._load_issue:
            first = min(self._load_issue)
            if wake is None or first < wake:
                wake = first
        if head_done > now and (wake is None or head_done < wake):
            wake = head_done
        if fetch_resume and (wake is None or fetch_resume < wake):
            wake = fetch_resume
        tick = next_tick(now)
        if tick is not None:
            tick = max(tick, now + 1)
            if wake is None or tick < wake:
                wake = tick
        return wake, (blocked, blocked_dram, sq_full, stall, rob_full, lq_full)

    def begin_skip(self, plan, now: int, forever: int) -> None:
        """Enter the quiescent state ``skip_plan`` classified at ``now``."""
        wake, deltas = plan
        self._quiet_deltas = deltas
        self._quiet_from = now + 1
        self.skip_until = wake if wake is not None else forever

    def wake_skip(self) -> None:
        """External state change: the core must be stepped again."""
        self.skip_until = 0

    def flush_skip(self, now: int) -> None:
        """Settle the stat increments owed for cycles skipped before ``now``."""
        deltas = self._quiet_deltas
        self._quiet_deltas = None
        self.skip_until = 0
        skipped = now - self._quiet_from
        if deltas is None or skipped <= 0:
            return
        blocked, blocked_dram, sq_full, stall, rob_full, lq_full = deltas
        stats = self.stats
        if blocked:
            stats.blocked_cycles += skipped
        if blocked_dram:
            stats.blocked_dram_cycles += skipped
        if sq_full:
            stats.sq_full_cycles += skipped
        if stall:
            stats.dispatch_stall_cycles += skipped
        if rob_full:
            stats.rob_full_cycles += skipped
        if lq_full:
            stats.lq_full_cycles += skipped
        stats.cycles = now

    def _prune_fu_bookings(self, now: int) -> None:
        """Drop functional-unit reservations for cycles already past."""
        for itype, booked in enumerate(self._fu_booked):
            if len(booked) > 64:
                self._fu_booked[itype] = {
                    c: n for c, n in booked.items() if c > now
                }

    # -------------------------------------------------------------- telemetry

    def register_metrics(self, registry, prefix: str) -> None:
        """Register this core's instruments under ``prefix``.

        Sampled gauges change only inside :meth:`step` or completion
        events — never during a quiescent fast-forward window — so the
        interval sampler's stream is skip-invariant.  Lazily-settled
        per-cycle stall counters (``blocked_cycles`` et al.) must never
        be sampled and are exposed unsampled only.
        """
        stats = self.stats
        registry.gauge(f"{prefix}.committed",
                       lambda: stats.committed, sampled=True)
        registry.gauge(f"{prefix}.loads", lambda: stats.loads, sampled=True)
        registry.gauge(f"{prefix}.critical_loads_sent",
                       lambda: stats.critical_loads_sent, sampled=True)
        registry.gauge(f"{prefix}.rob_occupancy",
                       self._rob_occupancy, sampled=True)
        registry.gauge(f"{prefix}.blocking_dram_loads",
                       lambda: stats.blocking_dram_loads)
        registry.gauge(f"{prefix}.blocked_dram_cycles",
                       lambda: stats.blocked_dram_cycles)

    # -------------------------------------------------------------- inspection

    def det_state(self) -> tuple[int, ...]:
        """Architectural state words for the determinism hash-chain.

        Every field is constant while the core is quiescent (they only
        change inside :meth:`step` or in completion events, both of which
        end a fast-forward window), so skip and naive runs sample
        identical values.  Statistics counters are excluded — they are
        settled lazily by :meth:`flush_skip`.
        """
        rob_len = self._rob_len
        return (
            1 if self.done else 0,
            self.stats.committed,
            self._ptr,
            rob_len,
            self._ptr - rob_len if rob_len else -1,
            self._lq_used,
            self._sq_used,
            self._fetch_resume,
            self._fetch_blocker,
        )

    def rob_occupancy(self) -> int:
        return self._rob_occupancy()

    @property
    def instructions_remaining(self) -> int:
        return self._n - self._ptr
