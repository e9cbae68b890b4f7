"""Telemetry never changes the statistics.

The load-bearing property of the whole subsystem: instrumented runs are
byte-identical to uninstrumented ones, on every backend, in every trace
mode.  Telemetry consults no randomness and feeds nothing back into
execution — these tests are the enforcement.
"""

import concurrent.futures
from concurrent.futures.process import BrokenProcessPool

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import member
from repro.engine import ExecutionEngine, available_backends
from repro.obs import get_recorder, get_registry, set_trace_mode, span
from repro.obs.spans import _NULL_SPAN


@pytest.fixture(autouse=True)
def _clean_telemetry():
    set_trace_mode(None)
    get_recorder().drain()
    get_registry().reset()
    yield
    set_trace_mode(None)
    get_recorder().drain()
    get_registry().reset()


def _engine(backend):
    return ExecutionEngine(backend)


class TestCountInvariance:
    @given(
        seed=st.integers(0, 2**32 - 1),
        trials=st.integers(1, 24),
        recognizer=st.sampled_from(
            ["quantum", "classical-blockwise", "classical-full"]
        ),
    )
    @settings(max_examples=10, deadline=None)
    def test_trace_mode_never_changes_counts(self, seed, trials, recognizer):
        """off / summary / full produce byte-identical counts per backend."""
        import numpy as np

        word = member(1, np.random.default_rng(seed))
        for backend in available_backends():
            counts = {}
            for mode in ("off", "summary", "full"):
                set_trace_mode(mode)
                get_recorder().drain()
                counts[mode] = _engine(backend).estimate_acceptance(
                    word, trials, rng=seed, recognizer=recognizer
                ).accepted
            assert counts["off"] == counts["summary"] == counts["full"], (
                backend,
                recognizer,
            )

    def test_all_backends_agree_while_fully_traced(self):
        """The engine seeding contract survives full tracing."""
        import numpy as np

        word = member(1, np.random.default_rng(5))
        set_trace_mode("full")
        accepted = {
            backend: _engine(backend)
            .estimate_acceptance(word, 40, rng=5)
            .accepted
            for backend in available_backends()
        }
        assert len(set(accepted.values())) == 1, accepted


class TestOffModeOverhead:
    """``REPRO_TRACE=off`` must stay counter-increments-only."""

    def test_span_is_allocation_free(self):
        set_trace_mode("off")
        assert span("engine.run", trials=1) is _NULL_SPAN

    def test_engine_run_records_no_spans_off_mode(self):
        import numpy as np

        set_trace_mode("off")
        word = member(1, np.random.default_rng(0))
        _engine("batched").estimate_acceptance(word, 10, rng=0)
        assert len(get_recorder()) == 0
        doc = get_registry().snapshot()
        assert not any(k.startswith("span.seconds") for k in doc["histograms"])
        # The always-on layer metrics still exist (they are the cheap,
        # bounded part the off-mode guarantee allows).
        assert doc["counters"]["span.calls{name=engine.run}"] == 1
        assert any(k.startswith("engine.run.seconds") for k in doc["histograms"])

    def test_full_mode_records_the_engine_span_tree(self):
        import numpy as np

        set_trace_mode("full")
        get_recorder().drain()
        word = member(1, np.random.default_rng(0))
        _engine("batched").estimate_acceptance(word, 10, rng=0)
        events = get_recorder().drain()
        names = [e["name"] for e in events]
        assert "engine.run" in names and "engine.backend.count" in names
        run_id = next(e["id"] for e in events if e["name"] == "engine.run")
        backend_event = next(
            e for e in events if e["name"] == "engine.backend.count"
        )
        assert backend_event["parent"] == run_id


class TestLayerMetrics:
    def test_engine_run_metrics_per_backend(self):
        import numpy as np

        word = member(1, np.random.default_rng(1))
        _engine("batched").estimate_acceptance(word, 30, rng=1)
        reg = get_registry()
        assert (
            reg.counter(
                "engine.run.trials", backend="batched", recognizer="quantum"
            ).value
            == 30
        )
        assert (
            reg.histogram(
                "engine.run.seconds", backend="batched", recognizer="quantum"
            ).count
            == 1
        )
        assert (
            reg.histogram(
                "engine.trial.seconds", backend="batched", recognizer="quantum"
            ).count
            == 1
        )

    def test_pool_degradation_counted_once(self, monkeypatch):
        import numpy as np

        class _ExplodingPool:
            def __init__(self, max_workers=None):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable):
                raise BrokenProcessPool("a child process terminated abruptly")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _ExplodingPool)
        word = member(1, np.random.default_rng(0))
        ExecutionEngine(
            "multiprocess", processes=2, shard_trials=True
        ).estimate_acceptance(word, 20, rng=3)
        degradations = get_registry().counters_with_prefix("engine.degradations")
        assert degradations == {
            "engine.degradations{backend=multiprocess,to=inline}": 1
        }

    def test_lab_runs_counted_by_source(self, tmp_path):
        from repro.lab import ExperimentSpec, Orchestrator

        orch = Orchestrator(tmp_path)
        spec = ExperimentSpec(family="member", k=1, trials=20, seed=3)
        orch.run(spec)
        orch.run(spec)
        orch.run(spec.with_trials(30))
        reg = get_registry()
        assert reg.counter("lab.runs", source="fresh").value == 1
        assert reg.counter("lab.runs", source="cache").value == 1
        assert reg.counter("lab.runs", source="deepened").value == 1
        assert reg.counter("lab.trials_executed").value == 30
        assert reg.histogram("lab.store.scan.seconds").count == 3
        assert reg.histogram("lab.store.append.seconds").count == 2

    def test_core_tiling_counts_tiles(self):
        from repro.core.tiling import tile_bounds

        list(tile_bounds(10, 3))
        assert get_registry().counter("core.tiles").value == 4
