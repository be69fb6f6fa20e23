"""Cross-engine differential oracle: naive vs fast.

The two loop implementations in :mod:`repro.sim.system` must be
bit-identical — same determinism chain, same result fingerprint, and
byte-identical streamed telemetry segments on disk.  This module holds
the ``fast`` engine to that for every registered scheduler, with the
runtime purity checker (``REPRO_VERIFY_EFFECTS``) re-verifying the
certified hooks its skip decisions call, and pins the ``max_cycles`` cap
path (a capped run breaks out of the loop mid-flight, and a cap inside a
quiet window must clamp the jump exactly).

The satellite regressions ride along: the shared-kwargs aliasing fix in
``make_provider_factory``, the stall guard in ``_fold_telemetry``, and
the exit-2 CLI errors for an unknown ``REPRO_ENGINE``, a bad numeric
knob or an unknown app.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config import SimScale, SystemConfig
from repro.sched.registry import SCHEDULERS
from repro.sim.stats import result_fingerprint
from repro.sim.system import ENGINES, System, make_provider_factory
from repro.workloads.parallel import PARALLEL_APP_NAMES, parallel_traces

SCALE = SimScale(instructions_per_core=400, warmup_instructions=0, seed=11)

_SRC = str(Path(__file__).resolve().parent.parent / "src")


def _provider_for(scheduler: str):
    if "crit" in scheduler or scheduler == "minimalist":
        return ("cbp", {"entries": 64})
    return None


def _make_system(scheduler="fr-fcfs"):
    config = SystemConfig.parallel_default()
    traces = parallel_traces(
        "fft", config.cores, SCALE.instructions_per_core, seed=SCALE.seed
    )
    return System(
        config, traces, scheduler=scheduler,
        provider_spec=_provider_for(scheduler),
    )


def _stream_digest(directory) -> dict[str, str]:
    """Name -> sha256 of every streamed segment file (raw on-disk bytes)."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(Path(directory).glob("*.jsonl"))
    }


@pytest.fixture
def telemetry_on(monkeypatch):
    monkeypatch.setenv("REPRO_SAMPLE_EVERY", "64")
    monkeypatch.setenv("REPRO_TRACE", "1")
    monkeypatch.setenv("REPRO_NO_CACHE", "1")


def _naive_vs_fast(tmp_path, monkeypatch, scheduler, verify_effects):
    """Run naive and fast on one scheduler; assert det-chain, fingerprint
    and streamed segment bytes agree.  ``verify_effects`` turns the
    runtime effect checker on for the fast leg only."""
    results = {}
    digests = {}
    for engine in ENGINES:
        stream_dir = tmp_path / engine
        monkeypatch.setenv("REPRO_STREAM_DIR", str(stream_dir))
        if engine == "fast" and verify_effects:
            monkeypatch.setenv("REPRO_VERIFY_EFFECTS", "1")
            monkeypatch.setenv("REPRO_VERIFY_EFFECTS_EVERY", "5")
        else:
            monkeypatch.delenv("REPRO_VERIFY_EFFECTS", raising=False)
        results[engine] = _make_system(scheduler).run(engine=engine)
        digests[engine] = _stream_digest(stream_dir)
    naive, fast = results["naive"], results["fast"]
    assert naive.det_chain == fast.det_chain
    assert result_fingerprint(naive) == result_fingerprint(fast)
    assert digests["naive"], "streaming produced no segments"
    assert digests["naive"] == digests["fast"]


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_fast_engine_bit_identical_for_every_scheduler(
    telemetry_on, tmp_path, monkeypatch, scheduler
):
    """Det-chain, fingerprint, and streamed bytes: fast == naive, on the
    production path (no effect checker attached)."""
    _naive_vs_fast(tmp_path, monkeypatch, scheduler, verify_effects=False)


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_fast_engine_bit_identical_under_verified_effects(
    telemetry_on, tmp_path, monkeypatch, scheduler
):
    """The same identity with the runtime effect checker on for the fast
    leg, so every purity certificate its skip decisions lean on is
    re-verified while the identity is proven."""
    _naive_vs_fast(tmp_path, monkeypatch, scheduler, verify_effects=True)


class TestMaxCyclesCap:
    """``hit_max_cycles`` runs must stay differential-clean: the cap
    ``break`` leaves the loop between fold points, which previously had
    no coverage against telemetry folding."""

    CAP = 500  # the uncapped fft run at this scale takes ~730 cycles

    def _run(self, engine, stream_dir, monkeypatch):
        monkeypatch.setenv("REPRO_STREAM_DIR", str(stream_dir))
        return _make_system().run(max_cycles=self.CAP, engine=engine)

    def test_capped_runs_identical_across_engines(
        self, telemetry_on, tmp_path, monkeypatch
    ):
        results = {}
        digests = {}
        for engine in ENGINES:
            stream_dir = tmp_path / engine
            results[engine] = self._run(engine, stream_dir, monkeypatch)
            digests[engine] = _stream_digest(stream_dir)
        reference = results["naive"]
        assert reference.hit_max_cycles, "cap too high to exercise the break"
        assert reference.cycles == self.CAP
        assert reference.sample_cycles, "sampler produced nothing under cap"
        fast = results["fast"]
        assert fast.hit_max_cycles
        assert fast.det_chain == reference.det_chain
        assert fast.sample_cycles == reference.sample_cycles
        assert fast.timeseries == reference.timeseries
        assert result_fingerprint(fast) == result_fingerprint(reference)
        assert digests["fast"] == digests["naive"]

    @pytest.mark.parametrize("cap", (257, 500))
    def test_cap_inside_a_window(self, telemetry_on, cap):
        """A max_cycles cap must clamp quiet-window jumps exactly,
        including caps that land mid-stride on no fold boundary (257 is
        prime)."""
        naive = _make_system().run(max_cycles=cap, engine="naive")
        fast = _make_system().run(max_cycles=cap, engine="fast")
        assert naive.hit_max_cycles and fast.hit_max_cycles
        assert naive.cycles == fast.cycles == cap
        assert result_fingerprint(naive) == result_fingerprint(fast)

    def test_cap_on_detchain_boundary(self, monkeypatch):
        """A cap landing exactly on a chain-sample cycle must fold the
        same number of checkpoints in every engine."""
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        monkeypatch.setenv("REPRO_DETCHAIN_EVERY", "128")
        cap = 256  # multiple of the chain interval, below run length
        results = [
            _make_system().run(max_cycles=cap, engine=engine)
            for engine in ENGINES
        ]
        assert all(r.hit_max_cycles for r in results)
        chains = {r.det_chain for r in results}
        checkpoints = {len(r.det_checkpoints) for r in results}
        assert len(chains) == 1
        assert len(checkpoints) == 1

    def test_chain_samples_inside_quiet_windows(self, monkeypatch):
        """With a short, odd chain interval, sample points fall inside
        quiet-window jumps (the longest jumps of this run, up to 10
        cycles, come late, so the cap sits just below run end on a chain
        sample cycle); the fast loop must fold exactly the checkpoints
        naive folds."""
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        monkeypatch.setenv("REPRO_DETCHAIN_EVERY", "7")
        cap = 7 * 100  # a chain sample cycle that is no fold boundary
        naive = _make_system().run(max_cycles=cap, engine="naive")
        fast = _make_system().run(max_cycles=cap, engine="fast")
        assert naive.hit_max_cycles and fast.hit_max_cycles
        assert naive.det_checkpoints, "chain folded no checkpoints"
        assert fast.det_checkpoints == naive.det_checkpoints
        assert fast.det_chain == naive.det_chain


def test_incremental_det_state_matches_scan_after_real_run():
    """After a coherence-heavy run, every cache's incrementally
    maintained det_state words equal the full tag-array walk."""
    system = _make_system("crit-casras")
    system.run(engine="fast")
    caches = list(system.hierarchy.l1) + [system.hierarchy.l2]
    for cache in caches:
        assert cache.det_state() == cache.det_state_scan()


def test_incremental_det_state_matches_scan_after_capped_run():
    """A cap stops the fast loop mid-flight, with fills and coherence
    traffic still outstanding; the incremental det_state words must
    already equal the full walk at that point."""
    system = _make_system("crit-casras")
    result = system.run(max_cycles=257, engine="fast")
    assert result.hit_max_cycles
    caches = list(system.hierarchy.l1) + [system.hierarchy.l2]
    for cache in caches:
        assert cache.det_state() == cache.det_state_scan()


class TestEngineSelection:
    def test_registered_engines(self):
        assert ENGINES == ("naive", "fast")

    def test_resolve_engine_defaults_to_fast(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert System.resolve_engine(None) == "fast"
        assert System.resolve_engine("naive") == "naive"

    def test_resolve_engine_reads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "naive")
        assert System.resolve_engine(None) == "naive"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            System.resolve_engine("warp")

    @pytest.mark.parametrize(
        "knobs, argv, expected",
        [
            pytest.param({"REPRO_ENGINE": name}, ["run", "fft"],
                         [repr(name), *ENGINES], id=name)
            for name in ("evnt", "event")
        ] + [
            pytest.param({"REPRO_DETCHAIN_EVERY": "-5"}, ["run", "fft"],
                         ["REPRO_DETCHAIN_EVERY", "-5"], id="detchain"),
            pytest.param({"REPRO_INSTRUCTIONS": "abc"},
                         ["experiment", "fig1"],
                         ["REPRO_INSTRUCTIONS", "'abc'"], id="instructions"),
            pytest.param({"REPRO_JOBS": "x"},
                         ["experiment", "fig3", "--no-cache"],
                         ["REPRO_JOBS", "'x'"], id="jobs"),
            pytest.param({}, ["run", "nosuchapp"],
                         ["invalid choice", "'nosuchapp'",
                          *PARALLEL_APP_NAMES], id="app"),
        ],
    )
    def test_unknown_env_engine_fails_cleanly_on_the_cli(
        self, knobs, argv, expected
    ):
        """A bad REPRO_ENGINE (a typo, or a retired engine name left in
        a shell), a bad numeric knob and an unknown app all get the same
        treatment as a bad --engine: exit code 2 and one error line
        naming the bad input, no traceback.  A knob error is that one
        line; argparse prints its usage first."""
        env = dict(os.environ, REPRO_NO_CACHE="1", **knobs)
        env["PYTHONPATH"] = _SRC + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        if knobs:
            assert len(lines) == 1, proc.stderr
        else:
            assert lines[0].startswith("usage:"), proc.stderr
        for text in expected:
            assert text in lines[-1]

    def test_engine_not_part_of_cache_key(self):
        from repro.sim.engine import RunSpec, spec_key

        base = RunSpec(kind="parallel", workload="fft", scale=SCALE)
        pinned = RunSpec(
            kind="parallel", workload="fft", scale=SCALE, engine="naive"
        )
        assert spec_key(base) == spec_key(pinned)


class TestProviderFactoryAliasing:
    """`make_provider_factory` must not share one kwargs dict across
    cores: a provider mutating a mutable kwarg would leak state."""

    def test_list_kwarg_not_aliased(self, monkeypatch):
        # Route through the ("kind", kwargs) path with a stand-in class
        # that keeps a mutable kwarg, the shape of the original bug.
        from repro.core import provider as provider_mod

        class FakeCbp:
            def __init__(self, entries=0, history=None):
                self.entries = entries
                self.history = history if history is not None else []

        monkeypatch.setattr(provider_mod, "CbpProvider", FakeCbp)
        factory = make_provider_factory(
            ("cbp", {"entries": 4, "history": []})
        )
        a, b = factory(0), factory(1)
        a.history.append("core0-private")
        assert b.history == [], "kwargs dict aliased across cores"

    def test_separate_instances_per_core(self):
        factory = make_provider_factory(("cbp", {"entries": 16}))
        assert factory(0) is not factory(1)


class TestFoldTelemetryStallGuard:
    """A stream whose flush_upto never advances must raise, not hang."""

    class _StalledStream:
        next_flush = 100

        def flush_upto(self, limit):  # never advances next_flush
            pass

    def test_stalled_stream_raises_with_cycle(self):
        system = _make_system()
        with pytest.raises(RuntimeError, match="stalled at cycle 100"):
            system._fold_telemetry(None, self._StalledStream(), 1_000)

    def test_advancing_fake_stream_is_fine(self):
        class Advancing:
            next_flush = 100

            def flush_upto(self, limit):
                self.next_flush = limit + 100

        system = _make_system()
        stream = Advancing()
        system._fold_telemetry(None, stream, 1_000)
        assert stream.next_flush >= 1_000
