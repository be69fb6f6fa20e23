"""Benchmark harness support.

Each bench regenerates one paper figure/table via the experiment modules,
times the full regeneration, prints the rows, and persists them under
``benchmarks/results/`` so EXPERIMENTS.md can be assembled from a bench
run.  Scale knobs: REPRO_INSTRUCTIONS (default 12000), REPRO_SEEDS
(default 1), REPRO_APPS (subset of parallel apps).
"""

from __future__ import annotations

import json
import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def run_and_report(benchmark, run_fn, **kwargs):
    """Time one full experiment regeneration and persist its table.

    Alongside each table, a ``<id>.metrics.jsonl`` records the engine's
    per-run observability (wall seconds, simulated cycles/sec, and whether
    each run was simulated or served from the disk cache).  A run served
    from the experiments' in-process memo (a baseline an earlier figure
    already fetched) records nothing: memo hits no longer appear as
    ``disk`` metrics.
    """
    from repro.sim import engine

    engine.clear_metrics()
    result = benchmark.pedantic(
        lambda: run_fn(**kwargs), rounds=1, iterations=1, warmup_rounds=0
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    text = result.table()
    (RESULTS_DIR / f"{result.experiment_id}.txt").write_text(text + "\n")
    metrics = engine.last_metrics
    if metrics:
        path = RESULTS_DIR / f"{result.experiment_id}.metrics.jsonl"
        path.write_text("".join(json.dumps(m) + "\n" for m in metrics))
        simulated = [m for m in metrics if m["source"] == "run"]
        cached = len(metrics) - len(simulated)
        wall = sum(m["wall_s"] for m in simulated)
        print(
            f"\n[engine] {len(simulated)} simulated ({wall:.1f}s wall), "
            f"{cached} cache hits"
        )
    print("\n" + text)
    return result
