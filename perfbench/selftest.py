"""Self-tests of the benchmark, run explicitly from the repository root::

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

Every workload runs at a tiny size, traced and untraced, and must print
exactly the metrics ``BENCHMARK.json`` names; a wrong count planted in
the serve store must fail the correctness check.
"""

from __future__ import annotations

import math
import os
import shutil

import pytest

from repro.lab import ExperimentSpec, ResultStore
from repro.lab.store import LabRecord

from .bench import execute, measure, metric_catalog
from .checks import binomial_p_value, percentile
from .workloads import WORK, WORKLOADS, deepen_fields, hit_key, make


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_run_prints_the_catalog(name: str, traced: bool) -> None:
    report = execute(name, seed=3, seconds=0.3, traced=traced, size="tiny")
    result = report["result"]
    kind = "per_layer" if traced else "end_to_end"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], report["lines"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert {m: v["unit"] for m, v in result["metrics"].items()} == metric_catalog()[kind]
    if traced:
        assert any(line.startswith(f"ledger ({name})") for line in report["lines"])
        assert any(line.startswith(f"prediction ({name})") for line in report["lines"])
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


class _Tampered:
    """A workload whose store is altered after the fixture is copied in."""

    def __init__(self, inner, tamper) -> None:
        self._inner = inner
        self._tamper = tamper

    def prepare(self, store) -> None:
        self._inner.prepare(store)
        self._tamper(ResultStore(store), self._inner.size)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _serve_failures(tamper) -> list:
    workload = make("serve", 5, "tiny")
    work = WORK / f"selftest-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        measured = measure(_Tampered(workload, tamper), work, "tampered", 0.5, traced=False)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return workload.check(measured.phase, measured.stats)


def test_wrong_fixture_count_fails_the_check() -> None:
    def tamper(store: ResultStore, size) -> None:
        for i in range(size.keys):  # a later record at the same depth wins
            fields, _ = hit_key(i, size)
            spec = ExperimentSpec(**fields, trials=size.depth)
            held = store.deepest(spec.key)
            store.append(LabRecord(key=spec.key, spec=spec.to_dict(), trials=held.trials,
                                   accepted=held.trials - held.accepted, backend="batched"))

    failures = _serve_failures(tamper)
    assert any(f.startswith("hit ") for f in failures), failures
    # The tamper wrote through the store's links into the fixture, so the
    # next run must find the fixture changed and rebuild it.
    workload = make("serve", 5, "tiny")
    fields, word = hit_key(0, workload.size)
    spec = ExperimentSpec(**fields, trials=workload.size.depth)
    held = ResultStore(workload.fixture()).deepest(spec.key)
    assert held.accepted == (spec.trials if workload.accepts[word] else 0)


def test_wrong_deepen_count_fails_the_check() -> None:
    def tamper(store: ResultStore, size) -> None:
        for j in range(size.deepen_keys):
            spec = ExperimentSpec(**deepen_fields(j), trials=size.deepen_base)
            held = store.deepest(spec.key)
            wrong = held.accepted - 1 if held.accepted else 1
            store.append(LabRecord(key=spec.key, spec=spec.to_dict(), trials=held.trials,
                                   accepted=wrong, backend="batched"))

    failures = _serve_failures(tamper)
    assert any(f.startswith("deepen key") for f in failures), failures


def test_binomial_p_value_matches_direct_sum() -> None:
    n, p = 30, 0.37
    pmf = [math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(n + 1)]
    for observed in (0, 5, 11, 20, 30):
        direct = sum(q for q in pmf if q <= pmf[observed] * (1 + 1e-9))
        assert binomial_p_value(observed, n, p) == pytest.approx(min(1.0, direct), rel=1e-9)


def test_percentile_is_nearest_rank() -> None:
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 99) == 99
    assert percentile([7.0], 95) == 7.0
