"""``repro bench``: record schema, comparison semantics, CLI exit codes."""

from __future__ import annotations

import json

import pytest

from repro import bench


@pytest.fixture(scope="module")
def record(tmp_path_factory):
    """One real (tiny) suite run, shared across the module's tests."""
    return bench.run_suite(
        repeats=2, instructions=600, seed=3,
        cells="fft/fr-fcfs/fast,fft/fr-fcfs/naive",
    )


class TestRunSuite:
    def test_record_is_schema_valid(self, record):
        assert bench.validate_record(record) == []

    def test_cells_carry_measurements(self, record):
        assert {c["name"] for c in record["cells"]} == {
            "fft/fr-fcfs/fast", "fft/fr-fcfs/naive",
        }
        for cell in record["cells"]:
            assert len(cell["wall_seconds"]) == 2
            assert cell["best_wall_seconds"] == pytest.approx(
                min(cell["wall_seconds"])
            )
            assert cell["cycles"] > 0
            assert cell["host_perf"]["counters"]["visited_cycles"] > 0

    def test_engines_agree_on_fingerprint(self, record):
        """The bench doubles as an identity check: the same cell on two
        engines must digest to the same result fingerprint."""
        digests = {c["fingerprint"] for c in record["cells"]}
        assert len(digests) == 1

    def test_metadata(self, record):
        metadata = record["metadata"]
        assert metadata["machine"]
        assert metadata["python"]
        assert metadata["created_unix"] > 0

    def test_env_is_restored(self, record, monkeypatch):
        import os

        monkeypatch.setenv("REPRO_ENGINE", "naive")
        monkeypatch.setenv("REPRO_FLEET_DIR", "/tmp/should-survive")
        bench.run_suite(repeats=1, instructions=300,
                        cells="fft/fr-fcfs/fast")
        assert os.environ["REPRO_ENGINE"] == "naive"
        assert os.environ["REPRO_FLEET_DIR"] == "/tmp/should-survive"

    def test_unknown_cell_is_an_error(self):
        with pytest.raises(ValueError, match="unknown bench cells"):
            bench.run_suite(repeats=1, cells="not-a-cell")

    def test_quick_subset_is_nonempty_and_proper(self):
        quick = bench._cells(None, quick=True)
        full = bench._cells(None, quick=False)
        assert quick
        assert len(quick) < len(full)
        assert {c.name for c in quick} <= {c.name for c in full}


class TestRecordFiles:
    def test_save_load_roundtrip(self, record, tmp_path):
        path = tmp_path / "BENCH_8.json"
        bench.save_record(record, path)
        assert bench.load_record(path) == json.loads(path.read_text())

    def test_numbering_starts_at_8_and_advances(self, tmp_path):
        assert bench.next_record_path(tmp_path).name == "BENCH_8.json"
        (tmp_path / "BENCH_11.json").write_text("{}")
        assert bench.next_record_path(tmp_path).name == "BENCH_12.json"

    def test_load_rejects_invalid(self, tmp_path):
        path = tmp_path / "BENCH_9.json"
        path.write_text(json.dumps({"schema": "nope"}))
        with pytest.raises(ValueError, match="not a valid bench record"):
            bench.load_record(path)

    def test_validate_flags_missing_cell_fields(self, record):
        broken = json.loads(json.dumps(record))
        del broken["cells"][0]["fingerprint"]
        problems = bench.validate_record(broken)
        assert any("fingerprint" in p for p in problems)


def _doctor(record, factor: float) -> dict:
    slowed = json.loads(json.dumps(record))
    for cell in slowed["cells"]:
        cell["wall_seconds"] = [w * factor for w in cell["wall_seconds"]]
        cell["best_wall_seconds"] = min(cell["wall_seconds"])
    return slowed


class TestCompare:
    def test_self_compare_is_clean(self, record):
        report = bench.compare_records(record, record)
        assert report["ok"]
        assert report["regressions"] == []
        assert not report["warnings"]

    def test_injected_slowdown_regresses(self, record):
        report = bench.compare_records(record, _doctor(record, 3.0))
        assert not report["ok"]
        assert set(report["regressions"]) == {
            c["name"] for c in record["cells"]
        }

    def test_speedup_is_not_a_regression(self, record):
        report = bench.compare_records(record, _doctor(record, 0.2))
        assert report["ok"]

    def test_absolute_floor_swallows_micro_jitter(self, record):
        """A 2x blowup on a sub-floor cell is noise, not a page."""
        tiny_old = json.loads(json.dumps(record))
        for cell in tiny_old["cells"]:
            cell["wall_seconds"] = [0.001, 0.001]
            cell["best_wall_seconds"] = 0.001
        report = bench.compare_records(tiny_old, _doctor(tiny_old, 2.0))
        assert report["ok"]

    def test_missing_cells_warn_not_fail(self, record):
        partial = json.loads(json.dumps(record))
        partial["cells"] = partial["cells"][:1]
        report = bench.compare_records(record, partial)
        assert report["ok"]
        assert any("OLD but not NEW" in w for w in report["warnings"])

    def test_fingerprint_mismatch_warns(self, record):
        changed = json.loads(json.dumps(record))
        changed["cells"][0]["fingerprint"] = "deadbeefdeadbeef"
        report = bench.compare_records(record, changed)
        assert any("fingerprint" in w for w in report["warnings"])

    def test_scale_mismatch_warns(self, record):
        other = json.loads(json.dumps(record))
        other["instructions"] = 999_999
        report = bench.compare_records(record, other)
        assert any("different scales" in w for w in report["warnings"])


class TestCli:
    def _args(self, **overrides):
        import argparse

        defaults = dict(
            quick=True, repeats=1, instructions=300, seed=1,
            cells="fft/fr-fcfs/fast", out=None, compare=None,
            threshold=0.25,
        )
        defaults.update(overrides)
        return argparse.Namespace(**defaults)

    def test_run_writes_record(self, tmp_path, capsys):
        out = tmp_path / "BENCH_8.json"
        assert bench.main(self._args(out=str(out))) == 0
        assert bench.validate_record(json.loads(out.read_text())) == []
        assert "bench record" in capsys.readouterr().out

    def test_compare_exit_codes(self, record, tmp_path, capsys):
        old = tmp_path / "old.json"
        bench.save_record(record, old)
        slow = tmp_path / "slow.json"
        bench.save_record(_doctor(record, 3.0), slow)
        assert bench.main(self._args(compare=(str(old), str(old)))) == 0
        assert bench.main(self._args(compare=(str(old), str(slow)))) == 1
        assert "REGRESSED" in capsys.readouterr().out
