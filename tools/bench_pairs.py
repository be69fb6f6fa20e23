"""Paired benchmark comparison of two checkouts.

Usage::

    python tools/bench_pairs.py --parent DIR --change DIR \\
        --workload parallel-8t --pairs 10 --seed-base 11

Pair ``i`` runs ``perfbench/run.py --workload W --seed S+i --trace 0`` in
both checkouts, the parent first in even pairs and the change first in
odd ones, so drift on the host lands on both sides alike.  For every
end-to-end metric of the change's ``BENCHMARK.json`` it prints each
side's median and quartiles, how many pairs the change won, and a
verdict:

* ``better``: the change won at least 9 of every 10 pairs and its median
  beats the parent's by more than the parent's interquartile range;
* ``worse``: the change's median is worse than the parent's by more
  than the metric's relative bound;
* ``flat``: neither.

The last line of standard output is the whole comparison as JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` cuts them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(parent: list[float], change: list[float], better: str,
            bound: float | None = None) -> dict:
    """Judge one metric over paired runs (``parent[i]`` with ``change[i]``).

    ``better`` is ``"lower"`` or ``"higher"``; ``bound`` is the largest
    tolerated relative worsening of the median.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, non-zero number of runs per side")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gain = sign * (p_med - c_med)
    iqr = p_q3 - p_q1
    if wins >= math.ceil(0.9 * len(parent)) and gain > iqr:
        verdict = "better"
    elif bound is not None and -gain > bound * abs(p_med):
        verdict = "worse"
    else:
        verdict = "flat"
    return {
        "parent": (p_q1, p_med, p_q3),
        "change": (c_q1, c_med, c_q3),
        "wins": wins,
        "pairs": len(parent),
        "gain": gain,
        "parent_iqr": iqr,
        "verdict": verdict,
    }


def run_bench(checkout: Path, workload: str, seed: int) -> dict:
    """One ``perfbench/run.py --trace 0`` run at the benchmark's own run
    length; its final JSON object."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"bench_pairs: {checkout} seed {seed} failed:\n{done.stderr}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    runs = {"parent": [], "change": []}
    failed = {"parent": 0, "change": 0}
    for i in range(args.pairs):
        seed = args.seed_base + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            record = run_bench(getattr(args, side), args.workload, seed)
            values = {k: v["value"] for k, v in record["metrics"].items()}
            runs[side].append(values)
            failed[side] += record["failed"]
            print(f"pair {i + 1}/{args.pairs} seed {seed} {side}: "
                  + " ".join(f"{m['name']}={values[m['name']]:.4g}"
                             for m in metrics), flush=True)

    results = {}
    print(f"\n{args.workload}, {args.pairs} pairs, seeds {args.seed_base}-"
          f"{args.seed_base + args.pairs - 1}; failed runs: parent "
          f"{failed['parent']}, change {failed['change']}\n")
    print("| metric | parent q1 / median / q3 | change q1 / median / q3 "
          "| wins | parent IQR | verdict |")
    print("|---|---|---|---|---|---|")
    for metric in metrics:
        name = metric["name"]
        result = compare([r[name] for r in runs["parent"]],
                         [r[name] for r in runs["change"]],
                         metric["better"], metric.get("bound"))
        results[name] = result
        p, c = result["parent"], result["change"]
        print(f"| `{name}` | {p[0]:.4g} / {p[1]:.4g} / {p[2]:.4g} "
              f"| {c[0]:.4g} / {c[1]:.4g} / {c[2]:.4g} "
              f"| {result['wins']}/{result['pairs']} "
              f"| {result['parent_iqr']:.3g} | {result['verdict']} |")
    print(json.dumps({"workload": args.workload, "failed": failed,
                      "metrics": results}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
