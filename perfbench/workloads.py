"""The benchmark's workloads, driven through ``repro``'s public API.

Each workload turns ``--seed`` into a fixed input set of simulations
("cells") and runs passes over it.  A pass can first take one set-up
sample of each set-up unit, so set-up samples are spread over the run
like the passes.  Every simulated result of a pass is checked against
the ``naive``-engine reference of its cell, which is computed outside the
timed passes.  The README beside this file records why each workload was
chosen.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import math
import os
import shutil
import statistics
import tempfile
import time
import traceback
from dataclasses import dataclass, field

import repro.experiments.common as common
import repro.experiments.fig3 as fig3
import repro.sim.engine as engine
import repro.sim.runner as runner
from repro.config import SimScale, SystemConfig
from repro.core.cbp import CbpMetric
from repro.sim.engine import RunSpec
from repro.sim.stats import result_fingerprint
from repro.sim.system import System
from repro.workloads.parallel import parallel_traces
from repro.workloads.synthetic import clear_trace_cache
from speed import RawClock

#: The figures' trace length per core (``repro experiment`` default).
FIGURE_INSTRUCTIONS = 12_000

#: fig3's 64-entry Binary CBP, the paper's headline configuration.
CBP64 = ("cbp", {"entries": 64, "metric": CbpMetric.BINARY})

#: The paper's average fig3 speedup for that configuration.
PAPER_CBP64_SPEEDUP = 1.065


def trace_seed(seed: int, cell: int) -> int:
    """The trace seed of the ``cell``-th cell of a run with ``seed``.

    Every cell draws its own traces: at 12,000 instructions a run's host
    cost swings by 10-30% with the trace seed, so a run averages over as
    many distinct traces as it has cells.
    """
    return seed * 100 + 4 * cell


def figure_scale(instructions: int, seed: int) -> SimScale:
    """The scale ``repro.experiments`` uses: 10% warm-up on top."""
    return SimScale(
        instructions_per_core=instructions,
        warmup_instructions=max(500, instructions // 10),
        seed=seed,
    )


def digest(result) -> str:
    return hashlib.sha256(repr(result_fingerprint(result)).encode()).hexdigest()


def check(result, reference: str) -> str | None:
    """Why ``result`` fails the correctness check, or None if it passes."""
    if result.hit_max_cycles:
        return "hit max_cycles"
    if digest(result) != reference:
        return "fingerprint differs from the naive engine"
    return None


@dataclass(frozen=True, eq=False)
class Cell:
    """One simulation of a parallel app.

    Cells compare and hash by identity: each is one entry of an input set.
    """

    workload: str
    scheduler: str
    scale: SimScale
    provider: tuple | None = None

    @property
    def label(self) -> str:
        crit = ""
        if self.provider is not None:
            kind, kwargs = self.provider
            crit = f"+{kind}{kwargs.get('entries', '')}"
        return f"{self.workload}/{self.scheduler}{crit}/s{self.scale.seed}"

    def spec(self, engine_name: str | None = None) -> RunSpec:
        return RunSpec(
            kind="parallel", workload=self.workload, scheduler=self.scheduler,
            provider_spec=self.provider, scale=self.scale, engine=engine_name,
        )

    def run(self):
        """The user-facing call: the public parallel-workload runner."""
        return runner.run_parallel_workload(
            self.workload, self.scheduler, self.provider, scale=self.scale
        )

    def set_up(self) -> System:
        """What a run does before its first cycle: build traces, a System."""
        instructions = (
            self.scale.instructions_per_core + self.scale.warmup_instructions
        )
        config = SystemConfig.parallel_default()
        traces = parallel_traces(
            self.workload, config.cores, instructions, seed=self.scale.seed
        )
        return System(
            config, traces, scheduler=self.scheduler,
            provider_spec=self.provider, label=self.label,
        )


@dataclass
class Pass:
    """One timed pass over a workload's input set.

    Times are in the pass clock's seconds (reference seconds when timed,
    see ``speed``); ``raw_wall`` is the pass's wall time as measured.
    ``run_walls`` holds one entry per simulation, ``setup`` one set-up
    sample per set-up unit, if the pass took them.  ``unchecked`` holds
    the (cell, result) pairs ``verify`` has yet to check.
    """

    wall: float
    cpu: float
    raw_wall: float
    run_walls: list[float] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)
    results: list = field(default_factory=list, repr=False)
    unchecked: list = field(default_factory=list, repr=False)
    committed: int = 0
    attempted: int = 0
    failed: int = 0
    paper_err: float | None = None


def references(cells, jobs: int) -> dict:
    """``naive``-engine fingerprint digests of ``cells``, on the pool."""
    results = engine.run_many(
        [cell.spec("naive") for cell in cells], jobs=jobs, cache=False
    )
    return {cell: digest(r) for cell, r in zip(cells, results)}


def report_failure(label: str, why: str) -> None:
    print(f"FAIL {label}: {why}", flush=True)


def verify(done: Pass, reference: dict) -> None:
    """Check the results of ``done`` against the naive-engine ``reference``."""
    for cell, result in done.unchecked:
        why = check(result, reference[cell])
        if why:
            done.failed += 1
            report_failure(cell.label, why)
    done.unchecked.clear()


class InProcess:
    """A workload whose cells run one after another in this process."""

    name = ""
    #: Planned host seconds per pass, set-up samples included; the pass
    #: count is ``--seconds`` divided by this, so run length is fixed
    #: work, the same on every commit.
    nominal_pass_s = 1.0

    def __init__(self, seed: int, instructions: int, jobs: int):
        self.seed = seed
        self.jobs = jobs
        self.cells = self.make_cells(seed, instructions)

    def make_cells(self, seed: int, instructions: int) -> list[Cell]:
        raise NotImplementedError

    def setup_samples(self) -> list[tuple[float, float]]:
        """Cold trace build + ``System`` construction of every cell."""
        samples = []
        for cell in self.cells:
            clear_trace_cache()
            gc.collect()
            start = time.perf_counter()
            cell.set_up()
            samples.append((start, time.perf_counter()))
        return samples

    def run_pass(self, around=contextlib.nullcontext, setup=False,
                 clock=RawClock(), index=0) -> Pass:
        """Run every cell once; ``around()`` brackets only the timed part.

        With ``setup``, one set-up sample of each cell is taken first.
        ``clock`` runs through the pass and converts its times.  Every
        pass runs the same cells, whatever its ``index``.
        """
        outcomes = []
        with clock.running():
            samples = self.setup_samples() if setup else []
            # Every pass pays the same set-up: no traces or runs carried over.
            clear_trace_cache()
            common.clear_run_cache()
            gc.collect()
            with around():
                cpu0 = time.process_time()
                start = time.perf_counter()
                for cell in self.cells:
                    t0 = time.perf_counter()
                    try:
                        result, error = cell.run(), None
                    except Exception:  # a failing run is counted, not fatal
                        result, error = None, traceback.format_exc(limit=3)
                    outcomes.append((cell, result, error, t0, time.perf_counter()))
                end = time.perf_counter()
                cpu = time.process_time() - cpu0
        clear_trace_cache()
        done = Pass(
            clock.reference(start, end), clock.reference(start, end, cpu, cpu=True),
            end - start, setup=[clock.reference(*s) for s in samples],
            attempted=len(outcomes),
        )
        for cell, result, error, t0, t1 in outcomes:
            done.run_walls.append(clock.reference(t0, t1))
            if error:
                done.failed += 1
                report_failure(cell.label, error)
            else:
                done.unchecked.append((cell, result))
                done.results.append(result)
                done.committed += sum(result.committed)
        return done


class Parallel8T(InProcess):
    """The paper's 8-core machine: core and cache models dominate."""

    name = "parallel-8t"
    nominal_pass_s = 12.5
    APPS = ("fft", "swim", "mg")

    def make_cells(self, seed, instructions):
        runs = [
            (app, scheduler, provider)
            for app in self.APPS
            for scheduler, provider in (("fr-fcfs", None), ("crit-casras", CBP64))
        ]
        return [
            Cell(app, scheduler, figure_scale(instructions, trace_seed(seed, i)),
                 provider)
            for i, (app, scheduler, provider) in enumerate(runs)
        ]


@dataclass(eq=False)
class Figure:
    """One fig3 input set: the cells a one-seed fig3 simulates."""

    seed: int
    baselines: dict  # app -> Cell
    variants: dict  # (algorithm, config label, app) -> Cell
    cells: list
    keys: dict  # engine.spec_key -> Cell


class FigSweep:
    """A cold regeneration of fig3 through the engine's disk cache and the
    experiments' memo: figure time end to end, in this process.

    Passes take turns over ``FIGURES`` figures, each on its own trace
    seed: all eleven runs of a one-seed fig3 share one trace, whose host
    cost swings by about 10% with its seed.
    """

    name = "fig-sweep"
    nominal_pass_s = 24.0
    FIGURES = 2
    APPS = ("fft",)
    ALGORITHMS = ("crit-casras", "casras-crit")
    #: fig3's configurations, by row label.
    CONFIGS = {
        "CLPT-Binary": ("clpt", {"ranked": False}),
        **{
            f"Binary CBP {'unlimited' if n is None else n}": (
                "cbp", {"entries": n, "metric": CbpMetric.BINARY}
            )
            for n in (64, 256, 1024, None)
        },
    }

    def __init__(self, seed: int, instructions: int, jobs: int, workdir: str):
        self.jobs = jobs
        self.workdir = workdir
        if instructions != FIGURE_INSTRUCTIONS:
            # fig3 reads its scale from the environment; only the
            # self-tests shrink it.
            os.environ["REPRO_INSTRUCTIONS"] = str(instructions)
        self.figures = [
            self._figure(trace_seed(seed, i)) for i in range(self.FIGURES)
        ]

    def _figure(self, seed: int) -> Figure:
        scale = common.experiment_scale(seed)
        baselines = {app: Cell(app, "fr-fcfs", scale) for app in self.APPS}
        variants = {
            (alg, label, app): Cell(app, alg, scale, provider)
            for alg in self.ALGORITHMS
            for label, provider in self.CONFIGS.items()
            for app in self.APPS
        }
        cells = list(baselines.values()) + list(variants.values())
        keys = {engine.spec_key(cell.spec()): cell for cell in cells}
        return Figure(seed, baselines, variants, cells, keys)

    def _fresh_cache(self) -> str:
        path = tempfile.mkdtemp(prefix="cache-", dir=self.workdir)
        os.environ["REPRO_CACHE_DIR"] = path
        return path

    def _cold(self) -> None:
        """Forget everything a fresh ``repro experiment`` process would not have."""
        common.clear_run_cache()
        clear_trace_cache()
        getattr(engine, "_CODE_VERSION_CACHE", {}).clear()

    def setup_samples(self, fig: Figure) -> list[tuple[float, float]]:
        """Cold code hashing + a run's trace build and System."""
        samples = []
        for cell in fig.cells:
            self._cold()
            gc.collect()
            start = time.perf_counter()
            engine.code_version()
            cell.set_up()
            samples.append((start, time.perf_counter()))
        return samples

    def run_pass(self, around=contextlib.nullcontext, setup=False,
                 clock=RawClock(), index=0) -> Pass:
        """Regenerate fig3 cold; ``around()`` brackets only the timed part.

        Pass ``index`` of a run draws figure ``index`` modulo ``FIGURES``.
        With ``setup``, the set-up samples are taken first.  ``clock``
        runs through the pass and converts its times.
        """
        fig = self.figures[index % len(self.figures)]
        cache = self._fresh_cache()
        try:
            with clock.running():
                samples = self.setup_samples(fig) if setup else []
                self._cold()
                gc.collect()
                with around():
                    cpu0 = time.process_time()
                    start = time.perf_counter()
                    try:
                        figure = fig3.run(apps=self.APPS, seeds=(fig.seed,))
                        error = None
                    except Exception:
                        figure, error = None, traceback.format_exc(limit=3)
                    end = time.perf_counter()
                    cpu = time.process_time() - cpu0
            done = Pass(
                clock.reference(start, end),
                clock.reference(start, end, cpu, cpu=True), end - start,
                setup=[clock.reference(*s) for s in samples],
                attempted=len(fig.cells) + 1,
            )
            return self._checked(fig, done, figure, error, cache)
        finally:
            shutil.rmtree(cache, ignore_errors=True)

    def _checked(self, fig, done, figure, error, cache) -> Pass:
        """Check the figure and its cached results; fill in ``done``."""
        if error:
            done.failed = done.attempted
            report_failure("fig3", error)
            return done
        found = {
            name[:-4] for name in os.listdir(cache) if name.endswith(".pkl")
        }
        results = {}
        for key in sorted(found - set(fig.keys)):
            done.failed += 1
            report_failure("fig3", f"simulated an unexpected run {key[:12]}")
        for key, cell in fig.keys.items():
            result = engine.load_cached(key) if key in found else None
            if result is None:
                done.failed += 1
                report_failure(cell.label, "missing from the cache")
            else:
                done.unchecked.append((cell, result))
                results[cell] = result
                done.results.append(result)
                # A run's own wall, converted at the figure's mean rate.
                done.run_walls.append(
                    result.wall_seconds * done.wall / done.raw_wall
                )
                done.committed += sum(result.committed)
        why = self._rows_mismatch(fig, figure.rows, results)
        if why:
            done.failed += 1
            report_failure("fig3 rows", why)
        done.paper_err = self._paper_err(fig, results)
        return done

    @staticmethod
    def _speedup(fig, results, alg, label, app) -> float:
        base = results[fig.baselines[app]]
        return base.cycles / results[fig.variants[(alg, label, app)]].cycles

    def _rows_mismatch(self, fig, rows, results) -> str | None:
        """Why fig3's rows differ from rows rebuilt from the checked results."""
        expected = {
            (alg, label) for alg in self.ALGORITHMS for label in self.CONFIGS
        }
        got = {(row["algorithm"], row["config"]) for row in rows}
        if got != expected:
            return f"row set {sorted(got)} is not {sorted(expected)}"
        try:
            for row in rows:
                key = (row["algorithm"], row["config"])
                speedups = [
                    self._speedup(fig, results, *key, app) for app in self.APPS
                ]
                rebuilt = dict(zip(self.APPS, speedups))
                rebuilt["Average"] = sum(speedups) / len(speedups)
                for column, value in rebuilt.items():
                    if not math.isclose(row[column], value, rel_tol=1e-12):
                        return f"{key} {column}: {row[column]!r} != {value!r}"
        except KeyError as missing:
            return f"no checked result for {missing}"
        return None

    def _paper_err(self, fig, results) -> float | None:
        try:
            speedups = [
                self._speedup(fig, results, alg, "Binary CBP 64", app)
                for alg in self.ALGORITHMS
                for app in self.APPS
            ]
        except KeyError:
            return None
        return abs(statistics.mean(speedups) - PAPER_CBP64_SPEEDUP)


WORKLOADS = {w.name: w for w in (Parallel8T, FigSweep)}


def make(name: str, seed: int, instructions: int, jobs: int, workdir: str):
    cls = WORKLOADS[name]
    if cls is FigSweep:
        return cls(seed, instructions, jobs, workdir)
    return cls(seed, instructions, jobs)
