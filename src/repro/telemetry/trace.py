"""Opt-in event trace: bounded ring buffer + Chrome ``trace_event`` export.

Enabled with ``REPRO_TRACE=1`` (capacity ``REPRO_TRACE_CAP``, default
65536 events, drop-oldest).  Four event families are recorded, all at
cycles the fast-forwarding loop provably steps, so the trace stream is
bit-identical between skip and no-skip runs:

* DRAM commands (ACT/PRE/READ/WRITE/REF) from every channel controller;
* ROB-head block episodes (a DRAM-bound load stalling commit, measured
  start -> commit);
* CBP criticality predictions attached to issued loads;
* cache-hierarchy events: L2 fills from DRAM, dirty L2 evictions
  (writebacks), and coherence invalidations of remote L1 copies.

Raw events are compact tuples on ``SimResult.trace_events``; exporters
render them as JSONL or as Chrome ``trace_event`` JSON
(``python -m repro trace app --out timeline.json``), one process lane
per channel and per core, one thread lane per bank — loadable in
Perfetto / ``chrome://tracing``.
"""

from __future__ import annotations

import json
import os
from collections import deque

from repro.util import env_int

#: Raw-event tags (first tuple element).
CMD, BLOCK, PRED, CACHE = "cmd", "block", "pred", "cache"

#: Cache-event kinds (third element of a ``CACHE`` tuple).
CACHE_KINDS = ("l2_fill", "dirty_evict", "inval")

_DEFAULT_CAP = 65536


def enabled() -> bool:
    return os.environ.get("REPRO_TRACE", "") not in ("", "0")


def capacity() -> int:
    return env_int("REPRO_TRACE_CAP", _DEFAULT_CAP, 1)


class TraceRecorder:
    """Bounded drop-oldest ring buffer of simulator events.

    All timestamps are CPU cycles (DRAM-domain recorders convert at the
    call site), so every lane shares one time axis.

    When a streaming ``writer`` (:class:`repro.telemetry.stream.
    StreamWriter`) is attached, every event is also spilled to disk
    *before* the ring applies its drop-oldest policy, so the stream is
    always a superset of the ring and never loses events to wrapping.
    """

    __slots__ = ("events", "capacity", "dropped", "writer")

    def __init__(self, cap: int | None = None, writer=None):
        self.capacity = cap if cap is not None else capacity()
        self.events: deque = deque(maxlen=self.capacity)
        self.dropped = 0
        self.writer = writer

    def _push(self, event: tuple) -> None:
        if self.writer is not None:
            self.writer.event(event)
        if len(self.events) == self.capacity:
            self.dropped += 1
        self.events.append(event)

    # -- recording hooks ----------------------------------------------------

    def command(self, ts, channel, rank, bank, kind, row, dur) -> None:
        """One DRAM command executed (ts/dur already in CPU cycles)."""
        self._push((CMD, ts, channel, rank, bank, kind, row, dur))

    def block_episode(self, start, core, pc, dur) -> None:
        """A DRAM-bound load blocked the ROB head for ``dur`` cycles."""
        self._push((BLOCK, start, core, pc, dur))

    def prediction(self, ts, core, pc, magnitude) -> None:
        """The criticality provider flagged an issued load as critical."""
        self._push((PRED, ts, core, pc, magnitude))

    def cache_event(self, ts, kind, core, line_addr) -> None:
        """A cache-hierarchy event (see :data:`CACHE_KINDS`).

        ``core`` is the affected L1's core for invalidations and -1 for
        L2-level events (fills, evictions).
        """
        if kind not in CACHE_KINDS:
            raise ValueError(f"unknown cache event kind {kind!r}")
        self._push((CACHE, ts, kind, core, line_addr))


# ------------------------------------------------------------------ export


def event_dict(event: tuple) -> dict:
    """One raw tuple -> its uniform dict (the JSONL record shape)."""
    tag = event[0]
    if tag == CMD:
        _, ts, channel, rank, bank, kind, row, dur = event
        return {"type": "dram_command", "ts": ts, "channel": channel,
                "rank": rank, "bank": bank, "kind": kind, "row": row,
                "dur": dur}
    if tag == BLOCK:
        _, ts, core, pc, dur = event
        return {"type": "rob_block", "ts": ts, "core": core, "pc": pc,
                "dur": dur}
    if tag == PRED:
        _, ts, core, pc, magnitude = event
        return {"type": "cbp_prediction", "ts": ts, "core": core,
                "pc": pc, "magnitude": magnitude}
    if tag == CACHE:
        _, ts, kind, core, line_addr = event
        return {"type": "cache_event", "ts": ts, "kind": kind,
                "core": core, "line": line_addr}
    raise ValueError(f"unknown trace event tag {tag!r}")


def _event_dicts(events):
    """Raw tuples -> uniform dicts (shared by JSONL and Chrome export)."""
    for event in events:
        yield event_dict(event)


def to_jsonl(events) -> str:
    """One JSON object per raw event, newline-delimited."""
    return "".join(
        json.dumps(d, sort_keys=True) + "\n" for d in _event_dicts(events)
    )


def _chrome_record(d: dict, named_pids: dict, named_tids: dict) -> dict:
    """One event dict -> its Chrome record; updates the lane name maps."""
    kind = d["type"]
    if kind == "dram_command":
        pid = 1 + d["channel"]
        tid = d["rank"] * 32 + d["bank"]
        named_pids.setdefault(pid, f"DRAM channel {d['channel']}")
        named_tids.setdefault(
            (pid, tid), f"rank {d['rank']} bank {d['bank']}"
        )
        return {
            "name": f"{d['kind']} row={d['row']}", "cat": "dram", "ph": "X",
            "ts": d["ts"], "dur": max(1, d["dur"]), "pid": pid, "tid": tid,
            "args": {"kind": d["kind"], "row": d["row"]},
        }
    if kind == "rob_block":
        pid = 1000 + d["core"]
        named_pids.setdefault(pid, f"core {d['core']}")
        named_tids.setdefault((pid, 0), "ROB head")
        return {
            "name": f"ROB block pc={d['pc']:#x}", "cat": "core", "ph": "X",
            "ts": d["ts"], "dur": max(1, d["dur"]), "pid": pid, "tid": 0,
            "args": {"pc": d["pc"], "stall": d["dur"]},
        }
    if kind == "cbp_prediction":
        pid = 1000 + d["core"]
        named_pids.setdefault(pid, f"core {d['core']}")
        named_tids.setdefault((pid, 1), "CBP predictions")
        return {
            "name": f"critical pc={d['pc']:#x}", "cat": "cbp", "ph": "i",
            "ts": d["ts"], "pid": pid, "tid": 1, "s": "t",
            "args": {"pc": d["pc"], "magnitude": d["magnitude"]},
        }
    if kind == "cache_event":
        pid = 2000
        tid = CACHE_KINDS.index(d["kind"])
        lane = ("L2 fills", "dirty evictions",
                "coherence invalidations")[tid]
        named_pids.setdefault(pid, "cache hierarchy")
        named_tids.setdefault((pid, tid), lane)
        return {
            "name": f"{d['kind']} line={d['line']:#x}", "cat": "cache",
            "ph": "i", "ts": d["ts"], "pid": pid, "tid": tid, "s": "t",
            "args": {"kind": d["kind"], "core": d["core"],
                     "line": d["line"]},
        }
    raise ValueError(f"unknown trace event type {kind!r}")


def _metadata_records(named_pids: dict, named_tids: dict) -> list[dict]:
    metadata: list[dict] = []
    for pid, name in sorted(named_pids.items()):
        metadata.append({"name": "process_name", "ph": "M", "pid": pid,
                         "tid": 0, "args": {"name": name}})
    for (pid, tid), name in sorted(named_tids.items()):
        metadata.append({"name": "thread_name", "ph": "M", "pid": pid,
                         "tid": tid, "args": {"name": name}})
    return metadata


def _other_data(label: str, dropped: int) -> dict:
    other = {"source": label, "clock": "cpu-cycles",
             "truncated": dropped > 0}
    if dropped:
        other["dropped_events"] = dropped
    return other


def to_chrome_trace(events, label: str = "repro", dropped: int = 0) -> dict:
    """Chrome ``trace_event`` document (JSON-serialisable dict).

    Lanes: pid ``1 + channel`` per DRAM channel (tid = rank*32 + bank),
    pid ``1000 + core`` per core (tid 0 = ROB, tid 1 = CBP), and
    pid ``2000`` for the shared cache hierarchy (tid 0 = L2 fills,
    tid 1 = dirty evictions, tid 2 = coherence invalidations).
    Timestamps are CPU cycles rendered as microseconds (1 cycle ==
    1 "us"), which Perfetto displays fine and keeps the numbers
    readable.

    ``dropped`` is the ring's drop-oldest count: when non-zero, the
    document carries ``otherData.truncated = true`` so a partial window
    is never silently presented as the whole run (stream the run via
    ``REPRO_STREAM_DIR`` to capture every event instead).
    """
    named_pids: dict[int, str] = {}
    named_tids: dict[tuple[int, int], str] = {}
    trace_events = [
        _chrome_record(d, named_pids, named_tids) for d in _event_dicts(events)
    ]
    return {
        "traceEvents": _metadata_records(named_pids, named_tids)
        + trace_events,
        "displayTimeUnit": "ms",
        "otherData": _other_data(label, dropped),
    }


class ChromeTraceWriter:
    """Incremental Chrome ``trace_event`` writer for streamed traces.

    Emits the same document schema as :func:`to_chrome_trace`, but one
    record at a time into an open file handle, so arbitrarily long
    streamed traces finalize in bounded memory: lane-name metadata is
    accumulated while events are appended and written on
    :meth:`finalize` (Chrome/Perfetto accept metadata anywhere in the
    stream).
    """

    def __init__(self, fh, label: str = "repro"):
        self._fh = fh
        self._label = label
        self._named_pids: dict[int, str] = {}
        self._named_tids: dict[tuple[int, int], str] = {}
        self._count = 0
        self._fh.write('{"traceEvents": [')

    def add(self, record: dict) -> None:
        """Append one event dict (the :func:`event_dict` shape)."""
        chrome = _chrome_record(record, self._named_pids, self._named_tids)
        prefix = ",\n" if self._count else "\n"
        self._fh.write(prefix + json.dumps(chrome, sort_keys=True))
        self._count += 1

    def finalize(self, dropped: int = 0) -> None:
        """Write lane metadata and close the document."""
        for meta in _metadata_records(self._named_pids, self._named_tids):
            prefix = ",\n" if self._count else "\n"
            self._fh.write(prefix + json.dumps(meta, sort_keys=True))
            self._count += 1
        self._fh.write("\n], ")
        self._fh.write('"displayTimeUnit": "ms", "otherData": ')
        self._fh.write(json.dumps(_other_data(self._label, dropped),
                                  sort_keys=True))
        self._fh.write("}\n")


_VALID_PHASES = {"X", "i", "M"}


def validate_chrome_trace(doc) -> list[str]:
    """Schema check used by CI and tests; returns a list of problems."""
    problems: list[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["missing traceEvents list"]
    if not events:
        problems.append("traceEvents is empty")
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        if not isinstance(event.get("name"), str) or not event.get("name"):
            problems.append(f"{where}: missing name")
        ph = event.get("ph")
        if ph not in _VALID_PHASES:
            problems.append(f"{where}: bad phase {ph!r}")
            continue
        if not isinstance(event.get("pid"), int) or not isinstance(
            event.get("tid"), int
        ):
            problems.append(f"{where}: pid/tid must be integers")
        if ph == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, int) or ts < 0:
            problems.append(f"{where}: bad ts {ts!r}")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, int) or dur < 0:
                problems.append(f"{where}: bad dur {dur!r}")
        if ph == "i" and event.get("s") not in ("t", "p", "g"):
            problems.append(f"{where}: instant event missing scope")
    return problems
