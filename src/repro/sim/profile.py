"""Profiler-driven hot-path reporting: ``python -m repro profile``.

Two observation modes over the same workload:

* **cProfile attribution** (the default): run one simulation under
  :mod:`cProfile` and fold the per-function ``tottime`` into a
  per-component report (core model, DRAM, caches, scheduler, telemetry,
  determinism chain, engine loop), plus the top-N functions.  This is
  the measurement engine work is gated on — "where do the cycles go"
  is answered by data, not assertion.
* **engine comparison** (``--engines all`` or ``--engines A,B,...``):
  run the same workload once per engine *without* the profiler and
  report wall clock, cycles/second, and speedup over the naive
  reference (or the first engine listed when naive is absent).
  ``all`` enumerates every registered engine.  The runs must also
  agree on the determinism chain and result fingerprint, so the
  comparison doubles as a cheap cross-engine identity check.
* **perf counters** (``--counters``): run once with ``REPRO_PERF=1``
  and render the :mod:`repro.telemetry.perfcounters` snapshot — engine
  internals (event pushes/pops, visited cycles, skip windows) plus
  per-phase wall-clock attribution, without cProfile's overhead.

Wall-clock reads in this module are observability only — they go
through :mod:`repro.util.hostclock` and are reported, never fed back
into simulated state.
"""

from __future__ import annotations

import cProfile
import json
import pstats

from repro.config import SimScale
from repro.util import hostclock

#: Maps source-path fragments to report components, first match wins.
#: Order matters: the engine loop lives in sim/ but so do stats/report
#: helpers, and detchain is the interesting part of analysis/.
_COMPONENTS = (
    ("repro/cpu/", "core-model"),
    ("repro/core/", "criticality"),
    ("repro/dram/", "dram"),
    ("repro/cache/", "cache"),
    ("repro/sched/", "scheduler"),
    ("repro/telemetry/", "telemetry"),
    ("repro/analysis/detchain", "det-chain"),
    ("repro/analysis/", "analysis"),
    ("repro/sim/system", "engine-loop"),
    ("repro/sim/events", "engine-loop"),
    ("repro/sim/", "engine-other"),
    ("repro/workloads/", "workload-gen"),
)


def _component(path: str) -> str:
    normalized = path.replace("\\", "/")
    for fragment, component in _COMPONENTS:
        if fragment in normalized:
            return component
    if "repro/" in normalized:
        return "repro-other"
    return "python/stdlib"


def _run_workload(args):
    from repro.sim.runner import run_parallel_workload

    scale = SimScale(
        instructions_per_core=args.instructions,
        warmup_instructions=max(200, args.instructions // 10),
        seed=args.seed,
    )
    spec = ("cbp", {"entries": args.cbp}) if args.cbp else None
    return run_parallel_workload(
        args.app, scheduler=args.scheduler, provider_spec=spec, scale=scale
    )


def profile_run(args) -> dict:
    """Profile one run; returns the report dict (also printed by the CLI)."""
    profiler = cProfile.Profile()
    start = hostclock.now()
    profiler.enable()
    result = _run_workload(args)
    profiler.disable()
    wall = hostclock.now() - start

    stats = pstats.Stats(profiler)
    components: dict[str, float] = {}
    rows = []
    total = 0.0
    for (path, line, name), (cc, nc, tottime, cumtime, _) in stats.stats.items():
        total += tottime
        component = _component(path)
        components[component] = components.get(component, 0.0) + tottime
        rows.append(
            {
                "function": f"{path.replace(chr(92), '/').split('/')[-1]}"
                            f":{line}({name})",
                "component": component,
                "calls": nc,
                "tottime": tottime,
                "cumtime": cumtime,
            }
        )
    rows.sort(key=lambda r: r["tottime"], reverse=True)
    return {
        "label": result.label,
        "engine": args.engine or "default",
        "cycles": result.cycles,
        "wall_seconds": round(wall, 4),
        "cycles_per_second": round(result.cycles / wall if wall else 0.0, 1),
        "profile_seconds": round(total, 4),
        "components": {
            k: round(v, 4)
            for k, v in sorted(
                components.items(), key=lambda kv: kv[1], reverse=True
            )
        },
        "top_functions": [
            {**row, "tottime": round(row["tottime"], 4),
             "cumtime": round(row["cumtime"], 4)}
            for row in rows[: args.top]
        ],
    }


def compare_engines(args) -> dict:
    """Run the workload once per requested engine (no profiler) and
    cross-check det-chains/fingerprints while comparing wall clocks.

    ``--engines all`` enumerates every registered loop implementation
    (:data:`repro.sim.system.ENGINES`) instead of a hand-maintained
    list, so new engines join the comparison automatically.  Speedups
    are reported against the ``naive`` run when present (the reference
    implementation), falling back to the first engine listed.
    """
    import os

    from repro.sim.stats import result_fingerprint
    from repro.sim.system import ENGINES

    if args.engines.strip() in ("all", "*"):
        engines = list(ENGINES)
    else:
        engines = [e.strip() for e in args.engines.split(",") if e.strip()]
    runs = []
    saved = os.environ.get("REPRO_ENGINE")
    try:
        for engine in engines:
            os.environ["REPRO_ENGINE"] = engine
            start = hostclock.now()
            result = _run_workload(args)
            wall = hostclock.now() - start
            runs.append(
                {
                    "engine": engine,
                    "wall_seconds": round(wall, 4),
                    "cycles": result.cycles,
                    "cycles_per_second": round(
                        result.cycles / wall if wall else 0.0, 1
                    ),
                    "det_chain": result.det_chain,
                    "fingerprint": result_fingerprint(result),
                }
            )
    finally:
        if saved is None:
            os.environ.pop("REPRO_ENGINE", None)
        else:
            os.environ["REPRO_ENGINE"] = saved

    reference = next((r for r in runs if r["engine"] == "naive"), runs[0])
    for run in runs:
        run["speedup"] = round(
            reference["wall_seconds"] / run["wall_seconds"], 2
        ) if run["wall_seconds"] else 0.0
        run["identical"] = (
            run["det_chain"] == reference["det_chain"]
            and run["fingerprint"] == reference["fingerprint"]
        )
    report = {
        "label": f"{args.app}/{args.scheduler}",
        "runs": [
            {k: v for k, v in run.items() if k != "fingerprint"}
            for run in runs
        ],
        "identical": all(run["identical"] for run in runs),
    }
    return report


def counters_run(args) -> dict:
    """Run once with the perf counters on and report the snapshot."""
    import os

    saved = os.environ.get("REPRO_PERF")
    os.environ["REPRO_PERF"] = "1"
    try:
        result = _run_workload(args)
    finally:
        if saved is None:
            os.environ.pop("REPRO_PERF", None)
        else:
            os.environ["REPRO_PERF"] = saved
    return {
        "label": result.label,
        "engine": args.engine or "default",
        "cycles": result.cycles,
        "wall_seconds": round(result.wall_seconds, 4),
        "cycles_per_second": round(result.cycles_per_second, 1),
        "host_perf": result.host_perf,
    }


def _print_counters(report: dict) -> None:
    from repro.telemetry.perfcounters import render

    print(f"{report['label']} [{report['engine']}]: "
          f"{report['cycles']:,} cycles in {report['wall_seconds']:.2f}s "
          f"({report['cycles_per_second']:,.0f} cycles/s)")
    print()
    print(render(report["host_perf"], report["wall_seconds"]))


def _print_profile(report: dict) -> None:
    print(f"{report['label']} [{report['engine']}]: "
          f"{report['cycles']:,} cycles in {report['wall_seconds']:.2f}s "
          f"({report['cycles_per_second']:,.0f} cycles/s)")
    print("\nper-component attribution (profiled tottime):")
    total = report["profile_seconds"] or 1.0
    for component, seconds in report["components"].items():
        share = 100.0 * seconds / total
        bar = "#" * max(1, int(share / 2)) if seconds else ""
        print(f"  {component:<14} {seconds:>8.3f}s  {share:>5.1f}%  {bar}")
    print("\ntop functions by tottime:")
    for row in report["top_functions"]:
        print(f"  {row['tottime']:>8.3f}s  {row['calls']:>9,}x  "
              f"[{row['component']}] {row['function']}")


def _print_comparison(report: dict) -> None:
    print(f"{report['label']}: engine comparison")
    print(f"  {'engine':<8} {'wall':>8} {'cycles/s':>12} {'speedup':>8}  identical")
    for run in report["runs"]:
        print(f"  {run['engine']:<8} {run['wall_seconds']:>7.2f}s "
              f"{run['cycles_per_second']:>12,.0f} {run['speedup']:>7.2f}x  "
              f"{'yes' if run['identical'] else 'NO — DIVERGED'}")
    if not report["identical"]:
        print("engine comparison FAILED: results diverged")


def main(args) -> int:
    """Entry point for ``python -m repro profile``."""
    import os

    os.environ.setdefault("REPRO_NO_CACHE", "1")
    if args.engine:
        os.environ["REPRO_ENGINE"] = args.engine
    if args.engines:
        report = compare_engines(args)
        _print_comparison(report)
    elif getattr(args, "counters", False):
        report = counters_run(args)
        _print_counters(report)
    else:
        report = profile_run(args)
        _print_profile(report)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"\nreport -> {args.json}")
    return 0 if report.get("identical", True) else 1
