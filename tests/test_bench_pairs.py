"""Statistics of ``tools/bench_pairs.py`` (no benchmark is run)."""

import importlib.util
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", REPO / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("bench_pairs", bench_pairs)
_spec.loader.exec_module(bench_pairs)
compare = bench_pairs.compare

PARENT = [0.120, 0.118, 0.122, 0.121, 0.119, 0.125, 0.117, 0.123, 0.120, 0.121]


def test_quartiles_match_statistics_module():
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_clear_gain_is_better():
    change = [p - 0.02 for p in PARENT]
    result = compare(PARENT, change, "lower")
    assert result["wins"] == 10
    assert result["gain"] == pytest.approx(0.02)
    assert result["verdict"] == "better"


def test_nine_of_ten_wins_suffice_but_eight_do_not():
    change = [p - 0.02 for p in PARENT]
    change[0] = PARENT[0] + 0.001
    assert compare(PARENT, change, "lower")["verdict"] == "better"
    change[1] = PARENT[1] + 0.001
    result = compare(PARENT, change, "lower")
    assert result["wins"] == 8
    assert result["verdict"] == "flat"


def test_gain_inside_parent_iqr_is_not_better():
    iqr = compare(PARENT, PARENT, "lower")["parent_iqr"]
    change = [p - iqr / 2 for p in PARENT]
    result = compare(PARENT, change, "lower")
    assert result["wins"] == 10
    assert result["verdict"] == "flat"


def test_higher_is_better_metrics():
    change = [p + 0.02 for p in PARENT]
    assert compare(PARENT, change, "higher")["verdict"] == "better"
    assert compare(PARENT, change, "lower")["wins"] == 0


def test_worse_beyond_bound():
    change = [p * 1.3 for p in PARENT]
    assert compare(PARENT, change, "lower", bound=0.25)["verdict"] == "worse"
    change = [p * 1.1 for p in PARENT]
    assert compare(PARENT, change, "lower", bound=0.25)["verdict"] == "flat"


def test_rejects_unpaired_input():
    with pytest.raises(ValueError):
        compare([1.0, 2.0], [1.0], "lower")
    with pytest.raises(ValueError):
        compare([1.0], [1.0], "faster")
