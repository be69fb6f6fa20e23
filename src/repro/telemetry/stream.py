"""Streaming trace/metrics writer: spill telemetry to disk *during* a run.

The in-memory trace ring (:mod:`repro.telemetry.trace`) drops its oldest
events once ``REPRO_TRACE_CAP`` is exceeded, and the interval sampler's
series only reach the user when the run returns.  For long-horizon runs
(the paper's Table-4 mixes run hundreds of millions of cycles) that
means silent event loss and zero mid-run visibility.  This module adds
a buffered, skip-aware **streaming writer**:

* ``REPRO_STREAM_DIR=<dir>`` enables it; every trace event and every
  interval sample is appended to JSONL *segment* files in that directory
  as it is recorded, so a run of unbounded length loses nothing even
  when the ring wraps.
* Segments are sealed — flushed, ``fsync``'d, and recorded in an
  atomically-replaced ``MANIFEST.json`` — either when they reach
  ``REPRO_STREAM_SEGMENT`` records or at periodic flush points folded on
  the **virtual cycle axis** (``REPRO_STREAM_FLUSH_EVERY`` CPU cycles),
  exactly like the determinism hash-chain and the interval sampler.
  Both triggers are pure functions of the (mode-invariant) record stream
  and the virtual clock, so the streamed bytes are bit-identical across
  skip / no-skip / fresh-subprocess runs.
* A crash (or ``SIGKILL``) can tear at most the *active* segment — the
  one file per stream not yet listed in the manifest.  Everything the
  manifest names parses clean; readers either refuse the torn tail with
  a clear error (the default for exports) or salvage the complete lines
  (``--allow-torn``, and the tolerant tailing used by ``repro watch``).

Streamed event lines are byte-identical to
:func:`repro.telemetry.trace.to_jsonl` output, so the post-run ring is
always a suffix of the streamed stream (the differential oracle in
``tests/test_stream_differential.py`` pins this).  Sample lines carry
``{"cycle": C, "values": [...]}`` rows aligned with the manifest's
``series`` name list, at full resolution — streaming never decimates,
only the bounded in-memory copy does.

The stream directory is deliberately **excluded** from the engine's
cache key (like the skip setting): streaming changes where telemetry
lands, never what the simulation computes.  A cache-replayed run writes
a ``status: "cache-replay"`` manifest instead of a stream so that
``repro watch`` can degrade gracefully.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.telemetry import trace as trace_mod
from repro.util import atomicio, env_int

MANIFEST_NAME = "MANIFEST.json"

_DEFAULT_SEGMENT_RECORDS = 8192
_DEFAULT_FLUSH_EVERY = 65536  # CPU cycles between virtual-axis flush points

#: Stream kinds and their segment-file prefixes.
KINDS = ("events", "samples")


class StreamError(ValueError):
    """A stream directory is missing, corrupt, or unusable."""


class TornTailError(StreamError):
    """The stream's unsealed tail is torn (writer crashed or is live)."""


# ------------------------------------------------------------- environment


def stream_dir() -> str | None:
    """Stream directory from ``REPRO_STREAM_DIR`` (None = disabled)."""
    raw = os.environ.get("REPRO_STREAM_DIR", "")
    return raw or None


def enabled() -> bool:
    return stream_dir() is not None


def segment_records() -> int:
    """Records per segment before an automatic seal (count-pure)."""
    return env_int("REPRO_STREAM_SEGMENT", _DEFAULT_SEGMENT_RECORDS, 1)


def flush_every() -> int:
    """Virtual-cycle flush cadence in CPU cycles."""
    return env_int("REPRO_STREAM_FLUSH_EVERY", _DEFAULT_FLUSH_EVERY, 1)


# ------------------------------------------------------------------ writer


class _ActiveSegment:
    """One open, not-yet-sealed segment file."""

    __slots__ = ("path", "fh", "count", "nbytes", "last_cycle")

    def __init__(self, path: Path):
        self.path = path
        self.fh = open(path, "w")
        self.count = 0
        self.nbytes = 0
        self.last_cycle = 0


class StreamWriter:
    """Incremental JSONL spiller for trace events and sampled series.

    One writer serves one simulation run.  All methods are cheap enough
    for the recording hot paths: an ``event()`` is one dict build, one
    ``json.dumps``, and one buffered ``write``; sealing (fsync + manifest
    replace) happens only at segment boundaries.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        segment_cap: int | None = None,
        flush_cycles: int | None = None,
    ):
        self.directory = Path(directory)
        self.segment_cap = (
            segment_cap if segment_cap is not None else segment_records()
        )
        self.flush_cycles = (
            flush_cycles if flush_cycles is not None else flush_every()
        )
        self.next_flush = self.flush_cycles
        self._active: dict[str, _ActiveSegment | None] = {k: None for k in KINDS}
        self._next_index = {k: 0 for k in KINDS}
        self._sealed: dict[str, list[dict]] = {k: [] for k in KINDS}
        self._totals = {k: 0 for k in KINDS}
        self.label: str | None = None
        self.series: list[str] = []
        self.status = "running"
        self._closed = False

    @classmethod
    def from_env(cls) -> "StreamWriter | None":
        directory = stream_dir()
        if directory:
            return cls(directory)
        # No explicit stream directory, but a fleet root
        # (REPRO_FLEET_DIR): allocate a run directory under it so every
        # run of a sweep streams — and registers — automatically.
        from repro.telemetry import fleet

        root = fleet.fleet_root()
        if root:
            return cls(fleet.RunRegistry(root).allocate())
        return None

    # -- lifecycle ----------------------------------------------------------

    def begin(self, label: str, series: list[str] | None = None) -> None:
        """Create/clear the stream directory and write the first manifest."""
        self.label = label
        self.series = list(series or [])
        self.directory.mkdir(parents=True, exist_ok=True)
        for stale in self._stream_files():
            stale.unlink()
        self._write_manifest()
        # Fleet registration (REPRO_FLEET_DIR): index this stream in the
        # run registry so `repro watch <root>` can find it.  Imported
        # lazily — fleet depends on this module for manifest reading.
        from repro.telemetry import fleet

        root = fleet.fleet_root()
        if root:
            fleet.RunRegistry(root).register(self.directory, label)

    def _stream_files(self):
        for kind in KINDS:
            yield from sorted(self.directory.glob(f"{kind}-*.jsonl"))
        for name in (MANIFEST_NAME, "timeline.json"):
            path = self.directory / name
            if path.exists():
                yield path

    # -- recording ----------------------------------------------------------

    def event(self, event: tuple) -> None:
        """Spill one raw trace-ring tuple (same bytes as ``to_jsonl``)."""
        record = trace_mod.event_dict(event)
        line = json.dumps(record, sort_keys=True) + "\n"
        self._append("events", line, record["ts"])

    def sample(self, cycle: int, values: list) -> None:
        """Spill one interval-sampler row (aligned with ``self.series``)."""
        line = json.dumps(
            {"cycle": cycle, "values": list(values)}, sort_keys=True
        ) + "\n"
        self._append("samples", line, cycle)

    def _append(self, kind: str, line: str, cycle: int) -> None:
        active = self._active[kind]
        if active is None:
            index = self._next_index[kind]
            self._next_index[kind] = index + 1
            active = _ActiveSegment(
                self.directory / f"{kind}-{index:06d}.jsonl"
            )
            self._active[kind] = active
        active.fh.write(line)
        active.count += 1
        active.nbytes += len(line)
        active.last_cycle = cycle
        if active.count >= self.segment_cap:
            self._seal(kind)
            self._write_manifest()

    # -- sealing ------------------------------------------------------------

    def _seal(self, kind: str) -> bool:
        """Make the active segment durable; returns True if one was sealed."""
        active = self._active[kind]
        if active is None or active.count == 0:
            return False
        active.fh.flush()
        os.fsync(active.fh.fileno())
        active.fh.close()
        self._sealed[kind].append({
            "file": active.path.name,
            "count": active.count,
            "bytes": active.nbytes,
            "last_cycle": active.last_cycle,
        })
        self._totals[kind] += active.count
        self._active[kind] = None
        return True

    def flush_upto(self, limit: int) -> None:
        """Seal at every due flush point in ``[next_flush, limit)``.

        Flush points live on the virtual cycle axis, so the skipping loop
        calls this with its fast-forward target and the records buffered
        at each due point are exactly what the naive loop would have
        buffered — segment boundaries come out bit-identical either way.
        """
        if self.next_flush >= limit:
            return
        sealed = False
        while self.next_flush < limit:
            for kind in KINDS:
                sealed = self._seal(kind) or sealed
            self.next_flush += self.flush_cycles
        if sealed:
            self._write_manifest()

    def finalize(self, cycles: int, trace_dropped: int = 0) -> None:
        """Seal everything and mark the stream complete."""
        if self._closed:
            return
        self._closed = True
        for kind in KINDS:
            self._seal(kind)
        self.status = "complete"
        self._write_manifest(cycles=cycles, trace_dropped=trace_dropped)

    def abort(self) -> None:
        """Failure cleanup: drop the torn tail, mark the stream failed.

        Sealed segments are durable evidence and stay; the unsealed
        active files (whose contents never reached a manifest) are
        removed so a failed run leaves no ambiguous half-written tail.
        """
        if self._closed:
            return
        self._closed = True
        self.status = "failed"
        for kind in KINDS:
            active = self._active[kind]
            if active is None:
                continue
            self._active[kind] = None
            try:
                active.fh.close()
                active.path.unlink()
            # abort() runs on the failure path; a second error here must
            # not mask the original exception
            # repro-lint: disable=EXC002 best-effort failure cleanup
            except OSError:
                pass
        try:
            self._write_manifest()
        # repro-lint: disable=EXC002 best-effort failure cleanup
        except OSError:
            pass

    # -- manifest -----------------------------------------------------------

    def _manifest(self, cycles: int | None = None, trace_dropped: int = 0):
        return {
            "version": 1,
            "status": self.status,
            "label": self.label,
            "series": list(self.series),
            "segment_records": self.segment_cap,
            "flush_every": self.flush_cycles,
            "events": {
                "segments": list(self._sealed["events"]),
                "total": self._totals["events"],
            },
            "samples": {
                "segments": list(self._sealed["samples"]),
                "total": self._totals["samples"],
            },
            "cycles": cycles,
            "trace_dropped": trace_dropped,
        }

    def _write_manifest(self, cycles: int | None = None,
                        trace_dropped: int = 0) -> None:
        write_manifest(
            self.directory, self._manifest(cycles, trace_dropped)
        )


def write_manifest(directory: str | os.PathLike, manifest: dict) -> None:
    """Atomically replace ``MANIFEST.json`` (write, fsync, rename)."""
    atomicio.write_json(Path(directory) / MANIFEST_NAME, manifest)


def write_cache_replay_manifest(directory: str | os.PathLike,
                                label: str | None = None) -> None:
    """Mark a stream directory as satisfied from the engine result cache.

    A cache hit never re-simulates, so there is nothing to stream; the
    marker lets ``repro watch`` explain that instead of waiting forever.
    Existing stream data (from the original, uncached run) is preserved.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    existing = read_manifest(directory, missing_ok=True)
    if existing is not None and existing.get("status") == "complete":
        return  # a finished stream already lives here; keep it
    write_manifest(directory, {
        "version": 1,
        "status": "cache-replay",
        "label": label,
        "series": [],
        "events": {"segments": [], "total": 0},
        "samples": {"segments": [], "total": 0},
        "cycles": None,
        "trace_dropped": 0,
    })


# ------------------------------------------------------------------ reader


def read_manifest(directory: str | os.PathLike,
                  missing_ok: bool = False) -> dict | None:
    """Load ``MANIFEST.json``; None when absent and ``missing_ok``."""
    path = Path(directory) / MANIFEST_NAME
    try:
        text = path.read_text()
    except FileNotFoundError:
        if missing_ok:
            return None
        raise StreamError(
            f"no stream manifest at {path} (is this a REPRO_STREAM_DIR?)"
        ) from None
    try:
        manifest = json.loads(text)
    except ValueError:
        raise StreamError(
            f"stream manifest {path} is not valid JSON; the directory is "
            f"corrupt (manifest writes are atomic, so this was not a crash)"
        ) from None
    if not isinstance(manifest, dict) or "status" not in manifest:
        raise StreamError(f"stream manifest {path} has no status field")
    return manifest


def _sealed_names(manifest: dict, kind: str) -> list[str]:
    return [s["file"] for s in manifest.get(kind, {}).get("segments", [])]


def segment_paths(directory: str | os.PathLike, kind: str) -> list[Path]:
    """All on-disk segment files of ``kind``, in stream order.

    A directory that does not exist (yet) simply has no segments —
    ``Path.glob`` would raise ``FileNotFoundError`` on some Python
    versions, which turned ``repro watch <not-yet-created-dir>`` into a
    traceback instead of a "waiting…" placeholder.
    """
    try:
        return sorted(Path(directory).glob(f"{kind}-*.jsonl"))
    except OSError:
        return []


def iter_records(
    directory: str | os.PathLike,
    kind: str = "events",
    manifest: dict | None = None,
    tolerant: bool = False,
):
    """Yield parsed records from every segment of ``kind``, in order.

    Sealed segments (listed in the manifest) must parse completely —
    corruption there is a hard :class:`StreamError` since they were
    fsync'd behind an atomic manifest update.  The *active* tail segment
    may be torn: with ``tolerant`` its complete lines are salvaged and a
    broken final line is skipped; otherwise tearing raises
    :class:`TornTailError`.
    """
    directory = Path(directory)
    if manifest is None:
        manifest = read_manifest(directory)
    sealed = set(_sealed_names(manifest, kind))
    for path in segment_paths(directory, kind):
        is_sealed = path.name in sealed
        with open(path) as fh:
            text = fh.read()
        lines = text.split("\n")
        trailing = lines.pop()  # "" iff the file ends with a newline
        for lineno, line in enumerate(lines, start=1):
            try:
                yield json.loads(line)
            except ValueError:
                if is_sealed:
                    raise StreamError(
                        f"sealed segment {path.name} line {lineno} is not "
                        f"valid JSON — the stream directory is corrupt"
                    ) from None
                if tolerant:
                    return
                raise TornTailError(
                    f"segment {path.name} line {lineno} is torn (the "
                    f"writing run crashed or is still live)"
                ) from None
        if trailing:
            if is_sealed:
                raise StreamError(
                    f"sealed segment {path.name} does not end with a "
                    f"newline — the stream directory is corrupt"
                )
            if not tolerant:
                raise TornTailError(
                    f"segment {path.name} ends mid-record (the writing "
                    f"run crashed or is still live)"
                )
            return


def read_samples(
    directory: str | os.PathLike,
    manifest: dict | None = None,
    tolerant: bool = True,
) -> tuple[list[int], dict[str, list]]:
    """Sampled series from the stream: ``(cycles, {name: values})``.

    Unlike ``SimResult.timeseries`` this is the *full-resolution* stream
    (streaming never decimates).  Series names come from the manifest.
    """
    if manifest is None:
        manifest = read_manifest(directory)
    names = list(manifest.get("series", []))
    cycles: list[int] = []
    series: dict[str, list] = {name: [] for name in names}
    for record in iter_records(directory, "samples", manifest, tolerant):
        values = record.get("values", [])
        if len(values) != len(names):
            raise StreamError(
                f"sample row at cycle {record.get('cycle')} has "
                f"{len(values)} values for {len(names)} series"
            )
        cycles.append(record["cycle"])
        for name, value in zip(names, values):
            series[name].append(value)
    return cycles, series


class StreamTail:
    """Incremental reader: each :meth:`poll` yields newly-complete lines.

    Tracks a byte offset per segment file, so repeated polling of a live
    stream is O(new data), not O(stream).  A partial final line (being
    written right now, or torn by a crash) is buffered until its newline
    arrives and never yielded incomplete.
    """

    def __init__(self, directory: str | os.PathLike, kind: str = "events"):
        self.directory = Path(directory)
        self.kind = kind
        self._offsets: dict[str, int] = {}
        self._partial: dict[str, str] = {}

    def poll(self) -> list[str]:
        lines: list[str] = []
        for path in segment_paths(self.directory, self.kind):
            name = path.name
            offset = self._offsets.get(name, 0)
            try:
                with open(path) as fh:
                    fh.seek(offset)
                    chunk = fh.read()
            except OSError:
                continue  # segment vanished mid-poll (writer cleanup)
            if not chunk:
                continue
            self._offsets[name] = offset + len(chunk)
            chunk = self._partial.pop(name, "") + chunk
            parts = chunk.split("\n")
            tail = parts.pop()
            if tail:
                self._partial[name] = tail
            lines.extend(part for part in parts if part)
        return lines


# ----------------------------------------------------------- finalization


def finalize_chrome(
    directory: str | os.PathLike,
    out_path: str | os.PathLike,
    label: str | None = None,
    allow_torn: bool = False,
) -> dict:
    """Convert a streamed event log into one Chrome ``trace_event`` file.

    Produces the same schema as the post-run exporter
    (:func:`repro.telemetry.trace.to_chrome_trace`) but builds it
    incrementally from the JSONL segments, so arbitrarily long streams
    finalize in bounded memory.  Returns a summary dict.

    By default refuses a stream whose manifest is not ``complete``
    (crashed or still-running writer) — pass ``allow_torn`` to export
    only the durable prefix.
    """
    directory = Path(directory)
    manifest = read_manifest(directory)
    status = manifest.get("status")
    if status == "cache-replay":
        raise StreamError(
            f"stream at {directory} is a cache-replay marker: the run was "
            f"satisfied from the result cache and streamed nothing "
            f"(rerun with --no-cache to stream a fresh simulation)"
        )
    if status != "complete" and not allow_torn:
        raise TornTailError(
            f"stream at {directory} is not finalized (status {status!r}): "
            f"the writing run is still live or crashed mid-segment; pass "
            f"--allow-torn to export only the fsync'd sealed segments"
        )
    if label is None:
        label = manifest.get("label") or "repro"
    dropped = manifest.get("trace_dropped") or 0
    count = 0
    with open(out_path, "w") as fh:
        writer = trace_mod.ChromeTraceWriter(fh, label=label)
        for record in iter_records(
            directory, "events", manifest, tolerant=allow_torn
        ):
            writer.add(record)
            count += 1
        writer.finalize(dropped=dropped)
    return {"events": count, "dropped": dropped, "status": status,
            "label": label}
