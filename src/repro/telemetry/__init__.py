"""Telemetry spine: metric registry, interval sampler, event trace.

One :class:`Telemetry` bundle is built per simulated
:class:`~repro.sim.system.System` from the environment:

* the :class:`~repro.telemetry.registry.MetricRegistry` is always on —
  registration is a handful of dict inserts at construction and the
  instruments either alias state the simulator already keeps (gauges,
  histograms replacing old sum/count pairs) or count events it already
  counts, so the hot loop carries no new work when sampling and tracing
  are off;
* ``REPRO_SAMPLE_EVERY=N`` turns on the skip-aware
  :class:`~repro.telemetry.sampler.IntervalSampler` (0 = off, default);
* ``REPRO_TRACE=1`` turns on the bounded
  :class:`~repro.telemetry.trace.TraceRecorder`
  (capacity ``REPRO_TRACE_CAP``);
* ``REPRO_STREAM_DIR=<dir>`` attaches the
  :class:`~repro.telemetry.stream.StreamWriter`, spilling every trace
  event and sampled row to JSONL segments on disk during the run.

:func:`config_fingerprint` digests those knobs for the engine's cache
key so runs cached under one telemetry config are never replayed as
another's.
"""

from __future__ import annotations

from repro.telemetry import stream as stream_mod
from repro.telemetry import trace as trace_mod
from repro.telemetry.registry import (
    Counter,
    Gauge,
    LatencyHistogram,
    MetricRegistry,
)
from repro.telemetry.sampler import IntervalSampler, interval as sample_interval

__all__ = [
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "MetricRegistry",
    "IntervalSampler",
    "TraceRecorder",
    "StreamWriter",
    "Telemetry",
    "config_fingerprint",
]

TraceRecorder = trace_mod.TraceRecorder
StreamWriter = stream_mod.StreamWriter


def config_fingerprint() -> dict:
    """Environment-derived telemetry config, folded into engine cache keys.

    Sampling and tracing change what a ``SimResult`` carries (not the
    simulated outcome), so two runs under different telemetry configs
    must not share a cache slot.  The streaming knobs
    (``REPRO_STREAM_DIR`` & friends) are deliberately **excluded**:
    streaming only changes where telemetry additionally lands on disk,
    never what the run computes or what the result carries, so a
    streamed and an unstreamed run may share a cache slot (like the
    engine selection).  The host-side observability knobs (``REPRO_PERF``,
    ``REPRO_FLEET_DIR``) are excluded for the same reason: perf
    counters land on the ``host_perf`` side channel (host timing, like
    ``wall_seconds``, is never part of the cached outcome) and the
    fleet registry only indexes where streams land.
    """
    return {
        "sample_every": sample_interval(),
        "trace": trace_mod.enabled(),
        "trace_cap": trace_mod.capacity() if trace_mod.enabled() else 0,
    }


class Telemetry:
    """Per-system bundle of registry + optional sampler/trace/stream."""

    __slots__ = ("registry", "sampler", "trace", "stream")

    def __init__(
        self,
        registry: MetricRegistry | None = None,
        sampler: IntervalSampler | None = None,
        trace: TraceRecorder | None = None,
        stream: StreamWriter | None = None,
    ):
        self.registry = registry if registry is not None else MetricRegistry()
        self.sampler = sampler
        self.trace = trace
        self.stream = stream
        if stream is not None:
            if trace is not None:
                trace.writer = stream
            if sampler is not None:
                sampler.emit = stream.sample

    @classmethod
    def from_env(cls) -> "Telemetry":
        every = sample_interval()
        return cls(
            registry=MetricRegistry(),
            sampler=IntervalSampler(every) if every else None,
            trace=TraceRecorder() if trace_mod.enabled() else None,
            stream=StreamWriter.from_env(),
        )

    def bind_sampler(self) -> None:
        """Freeze the sampled-instrument set (after all registrations)."""
        if self.sampler is not None:
            self.sampler.bind(self.registry.sampled_items())

    def begin_stream(self, label: str) -> None:
        """Open the stream directory (after ``bind_sampler``)."""
        if self.stream is not None:
            names = (
                list(self.sampler.series) if self.sampler is not None else []
            )
            self.stream.begin(label, names)
