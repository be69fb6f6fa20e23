"""``repro bench``: a declarative host-performance regression harness.

The engine work (skip windows, quiet-window jumps) is justified by
wall clock, and wall clock regresses silently: a refactor that doubles
event-queue churn still passes every correctness test.
This module pins it the same way determinism is pinned — measure,
record, compare:

* a **suite** of paper-like cells (workload x scheduler x engine), each
  run ``repeats`` times in-process with ``REPRO_PERF=1``;
* each cell records its wall-clock samples, cycles/second, the
  perf-counter snapshot (:mod:`repro.telemetry.perfcounters`), and a
  digest of the result fingerprint — so a bench record doubles as a
  cross-engine identity check;
* records are schema-versioned ``BENCH_<n>.json`` files carrying
  machine/python/git metadata, and ``repro bench --compare OLD NEW``
  flags per-cell slowdowns beyond a noise threshold with exit code 1.

Comparison uses the **min** of the repeats (the least-noisy location
statistic for wall clock: noise on a quiet machine is one-sided), a
relative threshold, and a small absolute floor so microsecond jitter on
tiny cells never pages anyone.

Everything here is host-side observability: bench runs go through the
ordinary runner (fingerprints and det-chains are untouched), timestamps
come from :mod:`repro.util.hostclock`, and nothing feeds back into
simulated state.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from repro.util import atomicio, hostclock

SCHEMA_VERSION = 1

#: Default noise threshold: a cell must be >25% slower to regress.
DEFAULT_THRESHOLD = 0.25

#: Absolute floor (seconds): deltas under this are never regressions.
ABSOLUTE_FLOOR_SECONDS = 0.02

#: ``BENCH_<n>.json`` numbering starts here (earlier numbers belong to
#: the repo's other artifact series).
FIRST_INDEX = 8


@dataclass(frozen=True)
class BenchCell:
    """One benchmarked configuration."""

    name: str
    workload: str  # parallel app, or bundle name for kind="alone"
    scheduler: str
    engine: str
    cbp: int = 0  # CBP criticality-provider entries (0 = no provider)
    quick: bool = False  # part of the --quick subset
    kind: str = "parallel"  # "parallel" (8-thread app) or "alone"
    slot: int = 0  # bundle slot for kind="alone"


#: The default suite: both engines on the same baseline cell (the
#: engine-speedup story), paper-relevant scheduler cells on the default
#: engine, and a single-application alone cell (a weighted-speedup
#: denominator) on both engines — the memory-intensive mcf slot of the
#: RFGI bundle is where whole-machine quiet windows are longest, so it
#: is where skipping earns its wall-clock claim.  ``quick`` marks the
#: CI smoke subset.
SUITE = (
    BenchCell("fft/fr-fcfs/naive", "fft", "fr-fcfs", "naive", quick=True),
    BenchCell("fft/fr-fcfs/fast", "fft", "fr-fcfs", "fast", quick=True),
    BenchCell("radix/par-bs/fast", "radix", "par-bs", "fast", quick=True),
    BenchCell(
        "radix/casras-crit/fast", "radix", "casras-crit", "fast",
        cbp=64, quick=True,
    ),
    BenchCell("ocean/tcm/fast", "ocean", "tcm", "fast"),
    BenchCell("mg/crit-casras/fast", "mg", "crit-casras", "fast", cbp=64),
    BenchCell(
        "RFGI.mcf-alone/par-bs/naive", "RFGI", "par-bs", "naive",
        kind="alone", slot=1, quick=True,
    ),
    BenchCell(
        "RFGI.mcf-alone/par-bs/fast", "RFGI", "par-bs", "fast",
        kind="alone", slot=1, quick=True,
    ),
)


def _cells(names: str | None, quick: bool) -> list[BenchCell]:
    if names:
        wanted = {n.strip() for n in names.split(",") if n.strip()}
        chosen = [c for c in SUITE if c.name in wanted]
        unknown = wanted - {c.name for c in chosen}
        if unknown:
            known = ", ".join(c.name for c in SUITE)
            raise ValueError(
                f"unknown bench cells {sorted(unknown)}; known: {known}"
            )
        return chosen
    if quick:
        return [c for c in SUITE if c.quick]
    return list(SUITE)


# ------------------------------------------------------------------ running


def _run_cell_once(cell: BenchCell, instructions: int, seed: int):
    from repro.config import SimScale
    from repro.sim.runner import run_application_alone, run_parallel_workload

    scale = SimScale(
        instructions_per_core=instructions,
        warmup_instructions=max(200, instructions // 10),
        seed=seed,
    )
    spec = ("cbp", {"entries": cell.cbp}) if cell.cbp else None
    if cell.kind == "alone":
        return run_application_alone(
            cell.workload,
            cell.slot,
            scheduler=cell.scheduler,
            provider_spec=spec,
            scale=scale,
        )
    return run_parallel_workload(
        cell.workload,
        scheduler=cell.scheduler,
        provider_spec=spec,
        scale=scale,
    )


def _fingerprint_digest(result) -> str:
    from repro.sim.stats import result_fingerprint

    return hashlib.sha256(
        repr(result_fingerprint(result)).encode()
    ).hexdigest()[:16]


def _git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
    # bench records must not require a git checkout to exist
    # repro-lint: disable=EXC002 metadata is best-effort
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _metadata() -> dict:
    return {
        "created_unix": hostclock.walltime(),
        "machine": platform.platform(),
        "processor": platform.processor() or None,
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "git_commit": _git_commit(),
    }


def run_suite(
    repeats: int = 3,
    instructions: int = 8_000,
    seed: int = 1,
    quick: bool = False,
    cells: str | None = None,
    progress=None,
) -> dict:
    """Run the suite and return a schema-versioned bench record."""
    chosen = _cells(cells, quick)
    saved = {
        name: os.environ.get(name)
        for name in ("REPRO_ENGINE", "REPRO_PERF", "REPRO_STREAM_DIR",
                     "REPRO_FLEET_DIR", "REPRO_VERIFY_SKIP")
    }
    record_cells = []
    try:
        # Bench runs are timing measurements: no streaming, no fleet
        # registration, no verify double-runs — just the engine under
        # test with the perf counters on.
        os.environ["REPRO_PERF"] = "1"
        for name in ("REPRO_STREAM_DIR", "REPRO_FLEET_DIR",
                     "REPRO_VERIFY_SKIP"):
            os.environ.pop(name, None)
        for cell in chosen:
            os.environ["REPRO_ENGINE"] = cell.engine
            walls = []
            result = None
            for _ in range(max(1, repeats)):
                result = _run_cell_once(cell, instructions, seed)
                walls.append(result.wall_seconds)
            best = min(walls)
            record_cells.append({
                "name": cell.name,
                "workload": cell.workload,
                "scheduler": cell.scheduler,
                "engine": cell.engine,
                "kind": cell.kind,
                "slot": cell.slot,
                "cbp": cell.cbp,
                "cycles": result.cycles,
                "wall_seconds": [round(w, 6) for w in walls],
                "best_wall_seconds": round(best, 6),
                "cycles_per_second": round(
                    result.cycles / best if best else 0.0, 1
                ),
                "fingerprint": _fingerprint_digest(result),
                "host_perf": result.host_perf,
            })
            if progress is not None:
                progress(record_cells[-1])
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
    return {
        "schema": "repro-bench",
        "version": SCHEMA_VERSION,
        "repeats": max(1, repeats),
        "instructions": instructions,
        "seed": seed,
        "quick": quick,
        "metadata": _metadata(),
        "cells": record_cells,
    }


# ------------------------------------------------------------ record files


def next_record_path(directory: str | os.PathLike = ".") -> Path:
    """The next free ``BENCH_<n>.json`` path (numbering from 8)."""
    directory = Path(directory)
    taken = []
    for path in directory.glob("BENCH_*.json"):
        stem = path.stem.split("_", 1)[1]
        if stem.isdigit():
            taken.append(int(stem))
    index = max(taken, default=FIRST_INDEX - 1) + 1
    return directory / f"BENCH_{max(index, FIRST_INDEX)}.json"


def save_record(record: dict, path: str | os.PathLike) -> None:
    """Write a bench record atomically (tmp + fsync + replace)."""
    atomicio.write_json(path, record)


def load_record(path: str | os.PathLike) -> dict:
    with open(path) as fh:
        record = json.load(fh)
    problems = validate_record(record)
    if problems:
        raise ValueError(
            f"{path} is not a valid bench record: " + "; ".join(problems)
        )
    return record


def validate_record(record) -> list[str]:
    """Schema problems in a parsed record ([] = valid)."""
    problems = []
    if not isinstance(record, dict):
        return ["record is not a JSON object"]
    if record.get("schema") != "repro-bench":
        problems.append(f"schema is {record.get('schema')!r},"
                        f" expected 'repro-bench'")
    if record.get("version") != SCHEMA_VERSION:
        problems.append(f"version is {record.get('version')!r}, "
                        f"expected {SCHEMA_VERSION}")
    metadata = record.get("metadata")
    if not isinstance(metadata, dict):
        problems.append("missing metadata object")
    else:
        for key in ("machine", "python", "created_unix"):
            if key not in metadata:
                problems.append(f"metadata.{key} missing")
    cells = record.get("cells")
    if not isinstance(cells, list) or not cells:
        problems.append("cells must be a non-empty list")
        return problems
    for i, cell in enumerate(cells):
        if not isinstance(cell, dict):
            problems.append(f"cells[{i}] is not an object")
            continue
        for key in ("name", "engine", "wall_seconds",
                    "best_wall_seconds", "cycles", "fingerprint"):
            if key not in cell:
                problems.append(f"cells[{i}].{key} missing")
        walls = cell.get("wall_seconds")
        if isinstance(walls, list) and not walls:
            problems.append(f"cells[{i}].wall_seconds is empty")
    return problems


# --------------------------------------------------------------- comparing


def compare_records(
    old: dict, new: dict, threshold: float = DEFAULT_THRESHOLD
) -> dict:
    """Per-cell regression report between two bench records.

    A cell regresses when its best (min) wall clock grows by more than
    ``threshold`` relatively *and* :data:`ABSOLUTE_FLOOR_SECONDS`
    absolutely.  Fingerprint changes and cells present on only one side
    are warnings, not regressions — they mean the suites measured
    different things, which the caller should know but which is not a
    slowdown.
    """
    old_cells = {c["name"]: c for c in old.get("cells", [])}
    new_cells = {c["name"]: c for c in new.get("cells", [])}
    rows, warnings = [], []
    for name in old_cells.keys() - new_cells.keys():
        warnings.append(f"cell {name!r} is in OLD but not NEW")
    for name in new_cells.keys() - old_cells.keys():
        warnings.append(f"cell {name!r} is in NEW but not OLD")
    if (old.get("instructions"), old.get("seed")) != (
        new.get("instructions"), new.get("seed")
    ):
        warnings.append(
            "records were taken at different scales "
            f"(instructions/seed {old.get('instructions')}/{old.get('seed')}"
            f" vs {new.get('instructions')}/{new.get('seed')}); wall-clock"
            " comparison is not apples-to-apples"
        )
    for name in sorted(old_cells.keys() & new_cells.keys()):
        before = min(old_cells[name]["wall_seconds"])
        after = min(new_cells[name]["wall_seconds"])
        ratio = after / before if before else 0.0
        regressed = (
            after - before > ABSOLUTE_FLOOR_SECONDS
            and after > before * (1.0 + threshold)
        )
        if old_cells[name]["fingerprint"] != new_cells[name]["fingerprint"]:
            warnings.append(
                f"cell {name!r} changed its result fingerprint — the two "
                f"records did not simulate the same thing"
            )
        rows.append({
            "name": name,
            "old_seconds": round(before, 6),
            "new_seconds": round(after, 6),
            "ratio": round(ratio, 3),
            "regressed": regressed,
        })
    return {
        "threshold": threshold,
        "cells": rows,
        "warnings": warnings,
        "regressions": [r["name"] for r in rows if r["regressed"]],
        "ok": not any(r["regressed"] for r in rows),
    }


# --------------------------------------------------------------------- CLI


def _print_cell(cell: dict) -> None:
    walls = ", ".join(f"{w:.3f}" for w in cell["wall_seconds"])
    print(f"  {cell['name']:<26} {cell['best_wall_seconds']:>8.3f}s "
          f"({cell['cycles_per_second']:>12,.0f} cyc/s)  runs: [{walls}]")


def _print_comparison(report: dict) -> None:
    print(f"bench comparison (threshold {report['threshold']:.0%} "
          f"+ {ABSOLUTE_FLOOR_SECONDS:.2f}s floor):")
    for row in report["cells"]:
        verdict = "REGRESSED" if row["regressed"] else "ok"
        print(f"  {row['name']:<26} {row['old_seconds']:>8.3f}s -> "
              f"{row['new_seconds']:>8.3f}s  x{row['ratio']:<5} {verdict}")
    for warning in report["warnings"]:
        print(f"  warning: {warning}")
    if report["ok"]:
        print("no regressions.")
    else:
        names = ", ".join(report["regressions"])
        print(f"REGRESSION in: {names}")


def main(args) -> int:
    """Entry point for ``python -m repro bench``."""
    if args.compare:
        old_path, new_path = args.compare
        report = compare_records(
            load_record(old_path), load_record(new_path),
            threshold=args.threshold,
        )
        _print_comparison(report)
        return 0 if report["ok"] else 1

    repeats = args.repeats if args.repeats is not None else (
        2 if args.quick else 3
    )
    instructions = args.instructions if args.instructions is not None else (
        3_000 if args.quick else 8_000
    )
    mode = "quick suite" if args.quick else "suite"
    print(f"bench {mode}: {repeats} repeat(s) x "
          f"{instructions:,} instructions/core")
    record = run_suite(
        repeats=repeats,
        instructions=instructions,
        seed=args.seed,
        quick=args.quick,
        cells=args.cells,
        progress=_print_cell,
    )
    out = Path(args.out) if args.out else next_record_path()
    save_record(record, out)
    print(f"bench record -> {out}")
    return 0
