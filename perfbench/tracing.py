"""Traced run: spans around each layer's public entry points, from outside.

:func:`installed` patches wrappers onto ``repro`` classes and module
attributes for the length of a traced pass and restores the originals
afterwards, so untraced passes run the program's own code unchanged.
Nothing here feeds back into the simulation: a traced pass must produce
the same result fingerprints as an untraced one, and the benchmark
checks that it does.

Every wrapped call is a span.  Fine-grained entry points (a core step, a
cache access, a scheduler decision: many per simulated cycle) are folded
into per-name totals when they close, because keeping millions of span
records would cost more memory than the simulation.  Coarse entry points
(trace build, ``System`` construction and run, engine and experiment
operations) are also kept whole as :class:`Span` records.  Both use the
same arithmetic: a span's self time is its duration minus the part of it
covered by its child spans (:func:`self_times`).
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from typing import NamedTuple

class Span(NamedTuple):
    id: int
    name: str
    start: int  # ns
    end: int  # ns
    parent: int | None
    sim: int | None  # one id per simulation


def self_times(spans) -> dict[str, int]:
    """Self time in ns per span name.

    A span's self time is its duration minus the part of that interval
    its child spans cover.  Children of one span may overlap if they ran
    in parallel, so the covered part is the union of their intervals,
    clipped to the parent.
    """
    children = defaultdict(list)
    for span in spans:
        children[span.parent].append(span)
    out: dict[str, int] = defaultdict(int)
    for span in spans:
        covered = _union_length(
            (max(c.start, span.start), min(c.end, span.end))
            for c in children[span.id]
        )
        out[span.name] += (span.end - span.start) - covered
    return dict(out)


def _union_length(intervals) -> int:
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Tracer:
    """In-memory spans, per-name totals and counters for one traced run."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        # name -> [calls, total_ns, self_ns]; wrappers hold these lists,
        # so they are zeroed in place, never replaced.
        self.totals: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        self.counters: dict[str, int] = defaultdict(int)
        self.spans: list[Span] = []
        self.stack: list[list[int]] = []  # open spans: [child_ns]
        self.kept: list[int] = []  # ids of open kept spans
        self.sim: int | None = None
        self._seq = 0
        self._seen_traces: dict[int, object] = {}

    # -- span bookkeeping -------------------------------------------------

    def new_id(self) -> int:
        self._seq += 1
        return self._seq

    def open(self) -> list[int]:
        frame = [0]
        self.stack.append(frame)
        return frame

    def close(self, name_totals: list[int], frame: list[int], dur: int) -> None:
        self.stack.pop()
        name_totals[0] += 1
        name_totals[1] += dur
        name_totals[2] += dur - frame[0]
        if self.stack:
            self.stack[-1][0] += dur

    def note_traces(self, traces) -> None:
        """Count instructions generated, once per distinct trace object."""
        for trace in traces:
            if id(trace) not in self._seen_traces:
                self._seen_traces[id(trace)] = trace
                self.counters["workloads.generated_instr"] += len(trace)

    def new_pass(self) -> None:
        """Forget trace identities: the trace cache is cleared per pass."""
        self._seen_traces.clear()

    # -- wrappers ---------------------------------------------------------

    def wrap(self, fn, name: str, keep: bool = False, sim: bool = False,
             after=None):
        """Wrap ``fn`` as a span named ``name``.

        ``keep`` records the span whole; ``sim`` opens a new simulation id
        for it; ``after(result)`` runs on each return value.
        """
        rec = self.totals[name]
        clock = self.clock
        tracer = self

        if not keep:
            stack = self.stack

            @functools.wraps(fn)
            def folded(*args, **kwargs):
                frame = [0]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - start
                    stack.pop()
                    rec[0] += 1
                    rec[1] += dur
                    rec[2] += dur - frame[0]
                    if stack:
                        stack[-1][0] += dur

            return folded

        @functools.wraps(fn)
        def kept(*args, **kwargs):
            span_id = tracer.new_id()
            parent = tracer.kept[-1] if tracer.kept else None
            outer_sim = tracer.sim
            if sim:
                tracer.sim = span_id
            tracer.kept.append(span_id)
            frame = tracer.open()
            start = clock()
            try:
                value = fn(*args, **kwargs)
                if after is not None:
                    after(value)
                return value
            finally:
                end = clock()
                tracer.close(rec, frame, end - start)
                tracer.kept.pop()
                tracer.spans.append(
                    Span(span_id, name, start, end, parent, tracer.sim)
                )
                tracer.sim = outer_sim

        return kept


class _Patches:
    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _subclasses(cls):
    seen = []
    todo = [cls]
    while todo:
        klass = todo.pop()
        if klass not in seen:
            seen.append(klass)
            todo.extend(klass.__subclasses__())
    return seen


#: Public provider hooks the core calls (the ``core`` layer).
_PROVIDER_HOOKS = (
    "annotate", "on_block_start", "on_blocked_commit", "on_load_consumers",
    "tick",
)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install ``tracer``'s wrappers on every layer for a ``with`` block."""
    import repro.analysis.detchain as detchain
    import repro.core  # noqa: F401  (registers the criticality schedulers)
    import repro.core.fields  # noqa: F401
    import repro.experiments.common as common
    import repro.experiments.fig3 as fig3
    import repro.sched.registry  # noqa: F401  (registers every scheduler)
    import repro.sim.engine as engine
    import repro.sim.runner as runner
    from repro.cache.hierarchy import MemoryHierarchy
    from repro.core.provider import CriticalityProvider
    from repro.cpu.core import OutOfOrderCore
    from repro.dram.controller import ChannelController, MemorySystem
    from repro.sched.base import Scheduler
    from repro.sim.events import EventQueue
    from repro.sim.system import System

    patches = _Patches()
    wrap = tracer.wrap

    def patch(owner, attr, name, **kw):
        if attr in owner.__dict__:
            patches.set(owner, attr, wrap(owner.__dict__[attr], name, **kw))

    # workloads: trace builders, as the runners look them up.
    for attr in ("parallel_traces", "bundle_traces"):
        patch(runner, attr, f"workloads.{attr}", keep=True,
              after=tracer.note_traces)
    # sim: one span per simulation, System construction and loop, events.
    for attr in ("run_parallel_workload", "run_application_alone",
                 "run_multiprogrammed_workload"):
        patch(runner, attr, f"sim.{attr}", keep=True, sim=True)
    patch(System, "__init__", "sim.System.__init__", keep=True)
    patch(System, "run", "sim.System.run", keep=True)
    patch(EventQueue, "run_due", "sim.EventQueue.run_due")
    # cpu, cache, dram
    for attr in ("step", "step_window"):
        patch(OutOfOrderCore, attr, f"cpu.OutOfOrderCore.{attr}")
    for attr in ("load", "store"):
        patch(MemoryHierarchy, attr, f"cache.MemoryHierarchy.{attr}")
    for attr in ("step", "step_event", "step_window"):
        patch(MemorySystem, attr, f"dram.MemorySystem.{attr}")
    for attr in ("step", "enqueue"):
        patch(ChannelController, attr, f"dram.ChannelController.{attr}")
    # sched: every Scheduler.select implementation.
    for cls in _subclasses(Scheduler):
        patch(cls, "select", f"sched.{cls.__name__}.select")
    # core: criticality providers (CBP, CLPT, ...).
    for cls in _subclasses(CriticalityProvider):
        for attr in _PROVIDER_HOOKS:
            patch(cls, attr, f"core.{cls.__name__}.{attr}")
    # analysis: determinism-chain snapshots and folds.
    patch(detchain, "snapshot", "analysis.snapshot")
    patch(detchain.DetChain, "sample", "analysis.DetChain.sample")

    # engine: keys, code hash, disk cache, the runs it hands out.
    def load_hit(value):
        if value is not None:
            tracer.counters["engine.load_hits"] += 1

    patch(engine, "spec_key", "engine.spec_key", keep=True)
    patch(engine, "code_version", "engine.code_version", keep=True)
    patch(engine, "load_cached", "engine.load_cached", keep=True,
          after=load_hit)
    patch(engine, "store_cached", "engine.store_cached", keep=True)
    patch(engine, "run_many", "engine.run_many", keep=True)
    patch(engine, "run_one", "engine.run_one", keep=True)
    # experiments: the figure, its prefetch and the run memo.
    patch(fig3, "run", "experiments.fig3.run", keep=True)
    patch(fig3, "prefetch_runs", "experiments.prefetch_runs", keep=True)
    patch(common, "cached_run", "experiments.cached_run", keep=True)
    patch(common, "run_one_cached", "engine.run_one_cached", keep=True)
    try:
        yield tracer
    finally:
        patches.restore()


# --------------------------------------------------------------- metrics

#: Per-layer metrics: name -> unit.  Values are per pass over the
#: workload's input set; a layer a workload does not use reads 0.
LAYER_METRICS = {
    "workloads.trace_s": "s",
    "workloads.ns_per_instr": "ns",
    "workloads.used_ratio": "ratio",
    "sim.build_s": "s",
    "sim.ns_per_cycle": "ns",
    "sim.loop_self_s": "s",
    "sim.events_self_s": "s",
    "sim.visited_ratio": "ratio",
    "cpu.step_calls": "count",
    "cpu.self_s": "s",
    "cpu.ns_per_instr": "ns",
    "cache.accesses": "count",
    "cache.self_s": "s",
    "cache.ns_per_access": "ns",
    "cache.l2_hit_ratio": "ratio",
    "dram.step_calls": "count",
    "dram.enqueues": "count",
    "dram.self_s": "s",
    "dram.ns_per_step": "ns",
    "dram.row_hit_ratio": "ratio",
    "dram.queue_wait_cycles": "cycles",
    "sched.selects": "count",
    "sched.self_s": "s",
    "sched.ns_per_select": "ns",
    "core.provider_calls": "count",
    "core.self_s": "s",
    "analysis.snapshots": "count",
    "analysis.self_s": "s",
    "engine.spec_key_s": "s",
    "engine.code_version_s": "s",
    "engine.cache_store_s": "s",
    "engine.cache_load_s": "s",
    "engine.cache_hit_ratio": "ratio",
    "experiments.memo_hit_ratio": "ratio",
    "experiments.serial_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, results, passes: int, overhead_ratio: float) -> dict[str, float]:
    """Per-layer metrics of ``passes`` traced passes that produced ``results``."""
    totals = tracer.totals

    def calls(prefix):
        return sum(v[0] for k, v in totals.items() if k.startswith(prefix))

    def total_ns(prefix):
        return sum(v[1] for k, v in totals.items() if k.startswith(prefix))

    def self_ns(prefix):
        return sum(v[2] for k, v in totals.items() if k.startswith(prefix))

    cycles = sum(r.cycles for r in results)
    committed = sum(sum(r.committed) for r in results)
    generated = tracer.counters["workloads.generated_instr"]
    hier = [r.hierarchy for r in results]
    chans = [c for r in results for c in r.channels]
    waits = [h for c in chans for h in (c.crit_wait, c.noncrit_wait)]

    step_calls = calls("dram.ChannelController.step")
    accesses = calls("cache.")
    selects = calls("sched.")
    load_calls = calls("engine.load_cached")
    memo_calls = calls("experiments.cached_run")
    memo_misses = calls("engine.run_one_cached")
    s = 1e-9 / passes  # ns totals -> seconds per pass
    per = 1.0 / passes

    values = {
        "workloads.trace_s": total_ns("workloads.") * s,
        "workloads.ns_per_instr": _ratio(total_ns("workloads."), generated),
        "workloads.used_ratio": _ratio(committed, generated),
        "sim.build_s": total_ns("sim.System.__init__") * s,
        "sim.ns_per_cycle": _ratio(total_ns("sim.System.run"), cycles),
        "sim.loop_self_s": self_ns("sim.System.run") * s,
        "sim.events_self_s": self_ns("sim.EventQueue.run_due") * s,
        "sim.visited_ratio": _ratio(calls("dram.MemorySystem.step"), cycles),
        "cpu.step_calls": calls("cpu.") * per,
        "cpu.self_s": self_ns("cpu.") * s,
        "cpu.ns_per_instr": _ratio(self_ns("cpu."), committed),
        "cache.accesses": accesses * per,
        "cache.self_s": self_ns("cache.") * s,
        "cache.ns_per_access": _ratio(self_ns("cache."), accesses),
        "cache.l2_hit_ratio": _ratio(
            sum(h.l2_load_hits for h in hier),
            sum(h.l2_load_hits + h.dram_loads for h in hier),
        ),
        "dram.step_calls": step_calls * per,
        "dram.enqueues": calls("dram.ChannelController.enqueue") * per,
        "dram.self_s": self_ns("dram.") * s,
        "dram.ns_per_step": _ratio(self_ns("dram."), step_calls),
        "dram.row_hit_ratio": _ratio(
            sum(c.row_hit_reads for c in chans),
            sum(c.reads_done for c in chans),
        ),
        "dram.queue_wait_cycles": _ratio(
            sum(h.total for h in waits), sum(h.count for h in waits)
        ),
        "sched.selects": selects * per,
        "sched.self_s": self_ns("sched.") * s,
        "sched.ns_per_select": _ratio(self_ns("sched."), selects),
        "core.provider_calls": calls("core.") * per,
        "core.self_s": self_ns("core.") * s,
        "analysis.snapshots": calls("analysis.snapshot") * per,
        "analysis.self_s": self_ns("analysis.") * s,
        "engine.spec_key_s": total_ns("engine.spec_key") * s,
        "engine.code_version_s": total_ns("engine.code_version") * s,
        "engine.cache_store_s": total_ns("engine.store_cached") * s,
        "engine.cache_load_s": total_ns("engine.load_cached") * s,
        "engine.cache_hit_ratio": _ratio(
            tracer.counters["engine.load_hits"], load_calls
        ),
        "experiments.memo_hit_ratio": _ratio(
            memo_calls - memo_misses, memo_calls
        ),
        "experiments.serial_s": (
            total_ns("experiments.fig3.run")
            - total_ns("experiments.prefetch_runs")
        ) * s,
        "trace.overhead_ratio": overhead_ratio,
    }
    return values
