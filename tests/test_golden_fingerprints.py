"""Golden result digests: a cross-commit guard on the simulated machine.

The naive-vs-fast differentials compare two loops that share one core,
cache and DRAM model, so a change to a model that alters behaviour passes
them.  These digests were recorded from the code as it stood before the
struct-of-arrays core rewrite; any change to what the machine computes
(core timing, cache state, DRAM scheduling, predictor training, trace
generation) changes at least one of them.

A digest is the SHA-256 of ``repr(result_fingerprint(result))``.  A change
that is *meant* to alter results must update the table below and say why
in its change log.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.config import SimScale
from repro.core.cbp import CbpMetric
from repro.sim.runner import (
    run_application_alone,
    run_multiprogrammed_workload,
    run_parallel_workload,
)
from repro.sim.stats import result_fingerprint

SCALE = SimScale(instructions_per_core=2_000, warmup_instructions=0, seed=1)

_BINARY_CBP_64 = ("cbp", {"entries": 64, "metric": CbpMetric.BINARY})

#: Knobs that change what a fingerprint contains (chain interval,
#: sampled series, event trace); cleared so the digests hold under any
#: CI environment.
_FINGERPRINT_KNOBS = (
    "REPRO_DETCHAIN_EVERY",
    "REPRO_SAMPLE_EVERY",
    "REPRO_TRACE",
    "REPRO_TRACE_CAP",
)

CASES = {
    "fft/fr-fcfs": lambda: run_parallel_workload("fft", "fr-fcfs", scale=SCALE),
    "fft/crit-casras/cbp64-binary": lambda: run_parallel_workload(
        "fft", "crit-casras", _BINARY_CBP_64, scale=SCALE
    ),
    "swim/fr-fcfs": lambda: run_parallel_workload("swim", "fr-fcfs", scale=SCALE),
    "swim/crit-casras/cbp64-binary": lambda: run_parallel_workload(
        "swim", "crit-casras", _BINARY_CBP_64, scale=SCALE
    ),
    "mg/fr-fcfs": lambda: run_parallel_workload("mg", "fr-fcfs", scale=SCALE),
    "mg/crit-casras/cbp64-binary": lambda: run_parallel_workload(
        "mg", "crit-casras", _BINARY_CBP_64, scale=SCALE
    ),
    # CLPT ranks by the direct-consumer counts the core gathers at
    # dispatch, so this case pins that count too.
    "mg/casras-crit/clpt-ranked": lambda: run_parallel_workload(
        "mg", "casras-crit", ("clpt", {"ranked": True}), scale=SCALE
    ),
    "RFGI/par-bs/cbp64": lambda: run_multiprogrammed_workload(
        "RFGI", "par-bs", ("cbp", {"entries": 64}), scale=SCALE
    ),
    "RFGI[1]/alone": lambda: run_application_alone("RFGI", 1, scale=SCALE),
}

GOLDEN = {
    "fft/fr-fcfs": (
        "7f8b83e707a3dc532380cacdda81c925"
        "f0fc076ddcb6524b6cc5c3832e6065a5"
    ),
    "fft/crit-casras/cbp64-binary": (
        "93214939b8c127c90a1da7db0a08ba27"
        "c9f0ab10ca0b55ee7a284c7847027255"
    ),
    "swim/fr-fcfs": (
        "1b3ba648577212bf6f1e81c2bd50d693"
        "0a3d82dba8f3de57010a9670c687b666"
    ),
    "swim/crit-casras/cbp64-binary": (
        "220679b83812e4803f7ccb85d8f4722d"
        "95885780b8598d088bc0ce2204fcf2e4"
    ),
    "mg/fr-fcfs": (
        "edc8ea9d480ecd5e8c4140aa970734e1"
        "169a30dded5b20e8f49d46609a486bb9"
    ),
    "mg/crit-casras/cbp64-binary": (
        "a9ba4f07b54cc9d57eb33aa25d26ef63"
        "33e08bccfa9379068b8a334796719d0f"
    ),
    "mg/casras-crit/clpt-ranked": (
        "c211704d635fc60c4aab31171e00725e"
        "bd729fdb81429ee7eb3d1847191ccb3a"
    ),
    "RFGI/par-bs/cbp64": (
        "1b4be7ba0638b6fc98eb67d847295f3d"
        "566b02bb893062df96ff43cffb889dc8"
    ),
    "RFGI[1]/alone": (
        "d66c75ef0b376ff85992588e43879263"
        "bb06889c42b4e9ffa2ba59e0801b9ae7"
    ),
}


def digest(result) -> str:
    return hashlib.sha256(repr(result_fingerprint(result)).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_result_matches_golden_digest(case, monkeypatch):
    for knob in _FINGERPRINT_KNOBS:
        monkeypatch.delenv(knob, raising=False)
    assert digest(CASES[case]()) == GOLDEN[case]
