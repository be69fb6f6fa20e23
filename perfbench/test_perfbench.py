"""Self-tests of the benchmark.  Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOAD_NAMES, tail  # noqa: E402
from speed import REFERENCE_S, Probe, RawClock, Sampler  # noqa: E402
from tracing import Span, Tracer, _union_length, self_times  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


# ------------------------------------------------------- self-time arithmetic


def test_self_times_of_a_synthetic_span_tree():
    # root [0, 100) holds a [10, 40) and b [50, 90); a holds c [15, 25).
    spans = [
        Span(1, "root", 0, 100, None, 1),
        Span(2, "a", 10, 40, 1, 1),
        Span(3, "c", 15, 25, 2, 1),
        Span(4, "b", 50, 90, 1, 1),
    ]
    assert self_times(spans) == {"root": 30, "a": 20, "c": 10, "b": 40}


def test_overlapping_children_count_once():
    # Two children that ran in parallel overlap in [30, 50).
    spans = [
        Span(1, "run_many", 0, 100, None, None),
        Span(2, "worker", 10, 50, 1, 2),
        Span(3, "worker", 30, 80, 1, 3),
    ]
    assert self_times(spans) == {"run_many": 30, "worker": 90}


def test_union_length():
    assert _union_length([]) == 0
    assert _union_length([(0, 10), (5, 15), (20, 30), (30, 30)]) == 25


def test_online_totals_match_offline_self_times():
    ticks = iter(range(0, 10_000, 7))
    tracer = Tracer(clock=lambda: next(ticks))

    def leaf():
        return 1

    traced_leaf = tracer.wrap(leaf, "leaf", keep=True)

    def middle():
        return traced_leaf() + traced_leaf()

    traced_middle = tracer.wrap(middle, "middle", keep=True)

    def top():
        return traced_middle() + traced_leaf()

    assert tracer.wrap(top, "top", keep=True, sim=True)() == 3
    offline = self_times(tracer.spans)
    online = {name: rec[2] for name, rec in tracer.totals.items()}
    assert online == offline
    assert tracer.totals["leaf"][0] == 3
    assert {span.sim for span in tracer.spans} == {tracer.spans[-1].id}


def test_folded_spans_feed_their_parent():
    ticks = iter(range(0, 1000, 5))
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap(lambda: None, "inner")
    outer = tracer.wrap(lambda: inner(), "outer", keep=True)
    outer()
    calls, total, own = tracer.totals["outer"]
    assert (calls, tracer.totals["inner"][0]) == (1, 1)
    assert own == total - tracer.totals["inner"][1]
    assert [span.name for span in tracer.spans] == ["outer"]


def test_tail_is_the_sample_with_ten_beyond_it():
    assert tail(range(1, 21)) == (10, 50.0)
    assert tail([1.0, 4.0] + [3.0] * 5) == (4.0, 100.0)
    value, level = tail(range(100))
    assert (value, level) == (89, 90.0)


# ------------------------------------------------------ reference seconds


def _sampler(starts, slowdown):
    """A sampler whose probes at ``starts`` ran ``slowdown`` times slower
    than the reference, in wall and CPU time."""
    sampler = Sampler(probe=None)
    sampler.starts = list(starts)
    for times in (sampler.walls, sampler.cpus):
        for kernel, ref in REFERENCE_S.items():
            times[kernel] = [ref * slowdown] * len(starts)
    return sampler


def test_reference_seconds_remove_probes_and_scale_by_speed():
    sampler = _sampler([0.1, 0.2, 0.3, 5.0], slowdown=2.0)
    probe_s = 2.0 * sum(REFERENCE_S.values())
    # Three probes fall in [0, 1): their time is removed, the rest halved.
    assert sampler.reference(0.0, 1.0) == pytest.approx((1.0 - 3 * probe_s) / 2)
    # CPU time: only the probes' CPU time comes off what was used.
    assert sampler.reference(0.0, 1.0, 0.5, cpu=True) == pytest.approx(
        (0.5 - 3 * probe_s) / 2
    )
    # A window without probes is scaled by the speed over all of them.
    assert sampler.reference(2.0, 3.0) == pytest.approx(0.5)


def test_raw_clock_converts_nothing():
    clock = RawClock()
    with clock.running():
        pass
    assert clock.reference(1.0, 3.5) == 2.5
    assert clock.reference(1.0, 3.5, 0.7, cpu=True) == 0.7


def test_sampler_samples_both_kernels_and_restores_the_timer():
    import signal
    import time

    sampler = Sampler(Probe(), interval=0.005)
    with sampler.running():
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.starts) >= 5
    assert all(len(t) == len(sampler.starts) for t in sampler.walls.values())
    assert sampler.reference(sampler.starts[0], sampler.starts[-1]) > 0


# ------------------------------------------------------------------- smoke


def _run(*args, cwd=ROOT, timeout=300):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_run_prints_every_metric(workload, trace):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace, "--instructions", "600")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {m: result["metrics"][m]["unit"] for m in result["metrics"]} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert "fail_ratio" in done.stdout


def test_benchmark_json_names_runnable_workloads():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(WORKLOAD_NAMES)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "parallel-8t", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path, timeout=180)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
