"""Runner convenience helpers."""

import gc

import pytest

from repro.cache.base import SetAssociativeCache
from repro.config import SimScale
from repro.cpu.core import OutOfOrderCore
from repro.sim.runner import parallel_average_speedup, run_parallel_workload
from repro.workloads.synthetic import clear_trace_cache

TINY = SimScale(instructions_per_core=700, warmup_instructions=100)


@pytest.fixture(autouse=True)
def _fresh():
    clear_trace_cache()
    yield
    clear_trace_cache()


class TestParallelAverageSpeedup:
    def test_shape(self):
        out = parallel_average_speedup(
            ("radix",), "casras-crit",
            provider_spec=("cbp", {"entries": 64}), scale=TINY,
        )
        assert set(out) == {"per_app", "average"}
        assert set(out["per_app"]) == {"radix"}
        assert out["average"] == out["per_app"]["radix"]
        assert out["average"] > 0.5

    def test_self_comparison_is_unity(self):
        out = parallel_average_speedup(("radix",), "fr-fcfs", scale=TINY)
        assert out["average"] == pytest.approx(1.0)

    def test_empty_apps(self):
        out = parallel_average_speedup((), "fr-fcfs", scale=TINY)
        assert out["average"] == 0.0


def _models_left_after(app, provider_spec=None, scale=TINY):
    """Cores and caches of a finished run still alive with GC off."""

    def model_objects():
        return [
            o for o in gc.get_objects()
            if isinstance(o, (OutOfOrderCore, SetAssociativeCache))
        ]

    gc.collect()
    before = model_objects()  # held, so their ids stay taken
    known = {id(o) for o in before}
    gc.disable()
    try:
        result = run_parallel_workload(app, provider_spec=provider_spec, scale=scale)
        left = [o for o in model_objects() if id(o) not in known]
    finally:
        gc.enable()
    assert sum(result.committed) > 0
    return left


class TestRelease:
    @pytest.mark.parametrize("provider_spec", [None, ("naive", {})])
    def test_finished_system_is_freed_without_a_collection(self, provider_spec):
        """No reference cycle keeps a finished run's cores or caches
        alive: they go with the last reference, not at a gen-2 pass."""
        assert _models_left_after("fft", provider_spec) == []

    @pytest.mark.parametrize("app, seed", [("swim", 1), ("fft", 2)])
    def test_misses_in_flight_at_the_end_do_not_keep_caches_alive(self, app, seed):
        """These runs end with misses still in the MSHRs (swim) and also
        in the DRAM read queue (fft, seed 2); their transactions and L1
        waiters call back into the hierarchy."""
        scale = SimScale(instructions_per_core=700, warmup_instructions=100,
                         seed=seed)
        assert _models_left_after(app, scale=scale) == []
