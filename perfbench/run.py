"""The repository benchmark: figure time and simulation throughput.

Run from the repository root::

    python3 perfbench/run.py --workload parallel-8t --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload

``--trace 0`` prints the end-to-end metrics, timed in reference seconds
(see ``speed.py``); ``--trace 1`` runs untraced and traced passes
alternately and prints the per-layer metrics, timed as measured.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A record of the run (options in effect, code
version, every number, and the traced run's spans) is written under
``.perfbench/results/``.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("parallel-8t", "fig-sweep")

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "sim_instr_per_s": "instr/s",
    "run_s_p50": "s",
    "run_s_tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--instructions", type=int, default=None,
                        help="instructions per core (self-tests shrink it)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.instructions is not None and args.instructions < 1:
        parser.error("--instructions must be at least 1")
    return args


def clean_environment(cache_dir: str) -> None:
    """Measure what a user runs: no ``REPRO_*`` knob but scratch and jobs.

    ``REPRO_JOBS=1`` keeps every timed simulation in this process, where
    the host-speed probes run; the naive references still use a pool.
    """
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["REPRO_CACHE_DIR"] = cache_dir
    os.environ["REPRO_JOBS"] = "1"


def import_program():
    """Import ``repro`` from this checkout's ``src``, or exit non-zero."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import repro from {src}: {exc}")
    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"perfbench: repro was imported from {repro.__file__}, not {src}")


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
        text=True, timeout=30, check=False,
    )
    return done.stdout.strip() or "unknown"


def peak_rss_mb() -> float:
    """Peak resident set of this process, where all timed work runs, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(samples) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``.  With ten samples or fewer no such
    percentile exists; the slowest sample stands in, at percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(passes, peak_rss) -> tuple[dict, dict]:
    """End-to-end metric values (medians over the passes) and side notes."""
    runs = [w for p in passes for w in p.run_walls]
    value, level = tail(runs)
    wall = statistics.median(p.wall for p in passes)
    metrics = {
        "wall_s": wall,
        "cpu_s": statistics.median(p.cpu for p in passes),
        "sim_instr_per_s": statistics.median(p.committed for p in passes) / wall,
        "run_s_p50": statistics.median(runs),
        "run_s_tail": value,
        "setup_s": statistics.median(s for p in passes for s in p.setup),
        "peak_rss_mb": peak_rss,
    }
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    errs = [p.paper_err for p in passes if p.paper_err is not None]
    notes = {
        "pass_walls": [round(p.wall, 4) for p in passes],
        "raw_pass_walls": [round(p.raw_wall, 4) for p in passes],
        "sim_cycles": sum(r.cycles for r in passes[0].results),
        "passes": len(passes),
        "runs": len(runs),
        "run_s_tail_percentile": round(level, 2),
        "setup_samples": sum(len(p.setup) for p in passes),
        "fail_ratio": failed / attempted if attempted else 0.0,
    }
    if errs:
        notes["paper_err"] = errs[0]
    return metrics, notes


def check_passes(workload, passes) -> None:
    """Compute the naive-engine references of the cells run, then check
    every pass."""
    from workloads import references, verify

    cells = list(dict.fromkeys(c for p in passes for c, _ in p.unchecked))
    reference = references(cells, workload.jobs)
    for done in passes:
        verify(done, reference)


def timed_run(workloads, seconds) -> dict:
    """Untraced passes, rotated round-robin across ``workloads``.

    Each pass first takes its set-up samples, so set-up is sampled across
    the run like the passes, and runs under a host-speed ``Sampler``.  The
    pass count is fixed work, the same on every commit.
    """
    from speed import Probe, Sampler

    probe = Probe()

    planned = {
        w.name: max(1, round(seconds / w.nominal_pass_s)) for w in workloads
    }
    done = {w.name: [] for w in workloads}
    for i in range(max(planned.values())):
        for w in workloads:
            if i < planned[w.name]:
                done[w.name].append(
                    w.run_pass(setup=True, clock=Sampler(probe), index=i)
                )
    peak = peak_rss_mb()
    out = {}
    for w in workloads:
        check_passes(w, done[w.name])
        metrics, notes = end_to_end(done[w.name], peak)
        out[w.name] = {"metrics": metrics, "units": END_TO_END,
                       "passes": done[w.name], "notes": notes}
    return out


def traced_run(workloads, seconds) -> dict:
    """Untraced and traced passes alternately; per-layer metrics."""
    from tracing import LAYER_METRICS, Tracer, installed, layer_metrics, self_times

    out = {}
    for w in workloads:
        tracer = Tracer()
        pairs = max(1, round(seconds / (3 * w.nominal_pass_s)))
        plain, traced = [], []
        for i in range(pairs):
            plain.append(w.run_pass(index=i))
            tracer.new_pass()
            traced.append(w.run_pass(around=lambda: installed(tracer), index=i))
        overhead = statistics.median(p.wall for p in traced) / statistics.median(
            p.wall for p in plain
        )
        results = [r for p in traced for r in p.results]
        metrics = layer_metrics(tracer, results, len(traced), overhead)
        passes = plain + traced
        check_passes(w, passes)
        attempted = sum(p.attempted for p in passes)
        failed = sum(p.failed for p in passes)
        run_total = tracer.totals["sim.System.run"][1]
        cpu_cache = sum(
            v[2] for k, v in tracer.totals.items()
            if k.startswith(("cpu.", "cache."))
        )
        notes = {
            "pairs": pairs,
            "fail_ratio": failed / attempted if attempted else 0.0,
            "cpu_cache_share_of_run": cpu_cache / run_total if run_total else 0.0,
            "kept_spans": len(tracer.spans),
            "kept_self_s": {
                k: v / 1e9 for k, v in sorted(self_times(tracer.spans).items())
            },
        }
        out[w.name] = {"metrics": metrics, "units": LAYER_METRICS,
                       "passes": passes, "notes": notes, "spans": tracer.spans}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    jobs = len(os.sched_getaffinity(0))
    state = ROOT / ".perfbench"
    state.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=state)
    try:
        clean_environment(os.path.join(workdir, "cache"))
        import_program()
        import workloads as wl

        instructions = args.instructions or wl.FIGURE_INSTRUCTIONS
        chosen = [
            wl.make(name, args.seed, instructions, jobs, workdir) for name in names
        ]
        if args.trace:
            outcome = traced_run(chosen, args.seconds)
        else:
            outcome = timed_run(chosen, args.seconds)
        return report(args, names, instructions, jobs, outcome, state)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(args, names, instructions, jobs, outcome, state) -> int:
    import repro.sim.engine as engine

    options = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "instructions_per_core": instructions,
        "reference_jobs": jobs,
        "engine": "default",
        "environment": {k: v for k, v in os.environ.items() if k.startswith("REPRO_")},
        "commit": git_commit(),
        "code_version": engine.code_version(),
        "python": sys.version.split()[0],
    }
    print(f"options: {json.dumps(options, sort_keys=True)}")
    metrics_out = {}
    attempted = failed = 0
    record = {"options": options, "workloads": {}}
    for name in names:
        done = outcome[name]
        metrics, units, notes = done["metrics"], done["units"], done["notes"]
        attempted += sum(p.attempted for p in done["passes"])
        failed += sum(p.failed for p in done["passes"])
        print(f"== {name} ==")
        for metric, value in metrics.items():
            print(f"  {metric:<28} {value:>16.6g} {units[metric]}")
            key = metric if len(names) == 1 else f"{name}.{metric}"
            metrics_out[key] = {"value": value, "unit": units[metric]}
        print(f"  {'fail_ratio':<28} {notes['fail_ratio']:>16.6g} ratio")
        if "paper_err" in notes:
            print(f"  {'paper_err':<28} {notes['paper_err']:>16.6g} speedup")
        for key, value in notes.items():
            if key not in ("fail_ratio", "paper_err", "kept_self_s"):
                print(f"  ({key}: {value})")
        record["workloads"][name] = {
            "metrics": metrics,
            "notes": notes,
            "spans": [span._asdict() for span in done.get("spans", ())],
        }
    results = state / "results"
    results.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True, default=str))
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics_out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
