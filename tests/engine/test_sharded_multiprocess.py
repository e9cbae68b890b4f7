"""Trial-sharded multiprocess: the one pool path, held to batched parity.

``MultiprocessBackend(shard_trials=True)`` and its explicit-seed entry
point ``count_accepted_from_seeds`` split one word's per-trial seeds
into contiguous shards, one per worker.  The counts must be
seed-identical to the ``batched`` and ``sequential`` backends for every
recognizer and word flavour; single-worker and deterministic runs must
never touch a pool; pool failures must degrade inline; and each call
must be observed exactly once, however it fans out.
"""

import concurrent.futures
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.analysis.sweep import acceptance_sweep
from repro.core import intersecting_nonmember, malformed_nonmember, member
from repro.engine import (
    ExecutionBackend,
    ExecutionEngine,
    MultiprocessBackend,
    available_backends,
    get_backend,
    trial_seed_plan,
)
from repro.engine.multiprocess import _shard_bounds, _workers_for
from repro.obs import get_registry

RECOGNIZERS = ["quantum", "classical-blockwise", "classical-full"]
RANDOMIZED = ["quantum", "classical-blockwise"]

WORDS = {
    "member": member(1, np.random.default_rng(0)),
    "intersecting": intersecting_nonmember(1, 2, np.random.default_rng(1)),
    "member2": member(2, np.random.default_rng(2)),
    "x_drift": malformed_nonmember(1, "x_drift", np.random.default_rng(3)),
}


def _sharded(processes=2, **options):
    return ExecutionEngine(
        "multiprocess", processes=processes, shard_trials=True, **options
    )


def _forbid_pool(monkeypatch, why):
    def no_pool(*a, **kw):  # pragma: no cover - must not be reached
        raise AssertionError(why)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)


class _ExplodingPool:
    """Stands in for ProcessPoolExecutor; every map dies like an OOM kill."""

    def __init__(self, max_workers=None):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable):
        raise BrokenProcessPool("a child process terminated abruptly")


@pytest.fixture
def clean_registry():
    get_registry().reset()
    yield get_registry()
    get_registry().reset()


class TestShardBounds:
    @pytest.mark.parametrize("total,workers", [(10, 3), (3, 8), (1, 1), (100, 7)])
    def test_bounds_are_contiguous_non_empty_and_cover(self, total, workers):
        bounds = _shard_bounds(total, workers)
        assert bounds[0][0] == 0 and bounds[-1][1] == total
        assert all(hi > lo for lo, hi in bounds)
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
        assert len(bounds) == min(total, workers)

    def test_unset_processes_is_cpu_bounded(self):
        import os

        assert _workers_for(None, 1) == 1
        assert _workers_for(None, 10_000) == (os.cpu_count() or 1)
        assert _workers_for(3, 10_000) == 3


class TestShardedParity:
    @pytest.mark.parametrize("label", sorted(WORDS))
    @pytest.mark.parametrize("recognizer", RECOGNIZERS)
    def test_counts_match_batched_and_sequential(self, label, recognizer):
        word = WORDS[label]
        got = _sharded().estimate_acceptance(word, 60, rng=7, recognizer=recognizer)
        batched = ExecutionEngine("batched").estimate_acceptance(
            word, 60, rng=7, recognizer=recognizer
        )
        seq = ExecutionEngine("sequential").estimate_acceptance(
            word, 60, rng=7, recognizer=recognizer
        )
        assert got.accepted == batched.accepted == seq.accepted
        assert got.backend == "multiprocess"

    @pytest.mark.parametrize("recognizer", RECOGNIZERS)
    def test_single_worker_runs_inline(self, recognizer, monkeypatch):
        _forbid_pool(monkeypatch, "single-worker sharding reached the pool")
        word = WORDS["intersecting"]
        got = _sharded(processes=1).estimate_acceptance(
            word, 40, rng=5, recognizer=recognizer
        )
        plain = ExecutionEngine("batched").estimate_acceptance(
            word, 40, rng=5, recognizer=recognizer
        )
        assert got.accepted == plain.accepted

    @pytest.mark.parametrize("lo,hi", [(0, 60), (13, 60), (0, 13)])
    def test_explicit_seed_slices_match_inline(self, lo, hi):
        """Deepening continuations (plan slices) fan out identically."""
        word = WORDS["intersecting"]
        plan = trial_seed_plan(9, 60)
        pool = get_backend("multiprocess", processes=2)
        inline = get_backend("batched")
        assert pool.count_accepted_from_seeds(
            word, plan[lo:hi], "quantum"
        ) == inline.count_accepted_from_seeds(word, plan[lo:hi], "quantum")

    @pytest.mark.parametrize("recognizer", RECOGNIZERS)
    def test_slices_sum_to_whole(self, recognizer):
        word = WORDS["intersecting"]
        plan = trial_seed_plan(5, 60)
        pool = get_backend("multiprocess", processes=2)
        whole = get_backend("batched").count_accepted_from_seeds(
            word, plan, recognizer
        )
        split = sum(
            pool.count_accepted_from_seeds(word, plan[lo:hi], recognizer)
            for lo, hi in [(0, 21), (21, 45), (45, 60)]
        )
        assert whole == split

    @pytest.mark.parametrize("recognizer", RECOGNIZERS)
    def test_run_many_matches_batched(self, recognizer):
        words = [WORDS["intersecting"], WORDS["member"], WORDS["member2"]]
        got = _sharded().run_many(words, 30, rng=11, recognizer=recognizer)
        plain = ExecutionEngine("batched").run_many(
            words, 30, rng=11, recognizer=recognizer
        )
        assert [e.accepted for e in got] == [e.accepted for e in plain]

    @pytest.mark.parametrize("recognizer", RECOGNIZERS)
    def test_budget_threads_to_workers(self, recognizer):
        word = WORDS["intersecting"]
        budgeted = _sharded(max_batch_bytes=2048).estimate_acceptance(
            word, 60, rng=9, recognizer=recognizer
        )
        plain = ExecutionEngine("batched").estimate_acceptance(
            word, 60, rng=9, recognizer=recognizer
        )
        assert budgeted.accepted == plain.accepted

    def test_deterministic_recognizer_skips_the_pool(self, monkeypatch):
        _forbid_pool(monkeypatch, "deterministic recognizer reached the pool")
        backend = MultiprocessBackend(processes=4, shard_trials=True)
        count = backend.count_accepted(
            WORDS["intersecting"],
            40,
            np.random.default_rng(3),
            recognizer="classical-full",
        )
        assert count in (0, 40)


class TestShardedDegradation:
    @pytest.mark.parametrize("recognizer", RANDOMIZED)
    def test_broken_pool_falls_back_inline_from_seeds(self, recognizer, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _ExplodingPool)
        word = WORDS["member"]
        plan = trial_seed_plan(9, 50)
        pool = get_backend("multiprocess", processes=2)
        inline = get_backend("batched")
        assert pool.count_accepted_from_seeds(
            word, plan, recognizer
        ) == inline.count_accepted_from_seeds(word, plan, recognizer)

    @pytest.mark.parametrize("error", [OSError, PermissionError])
    @pytest.mark.parametrize("entry", ["count_accepted", "from_seeds"])
    def test_pool_creation_refused_falls_back_inline(self, error, entry, monkeypatch):
        def refuse(*a, **kw):
            raise error("no semaphores in this sandbox")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        word = WORDS["intersecting"]
        pool = MultiprocessBackend(processes=2, shard_trials=True)
        inline = get_backend("batched")
        if entry == "count_accepted":
            got = pool.count_accepted(word, 50, np.random.default_rng(4))
            want = inline.count_accepted(word, 50, np.random.default_rng(4))
        else:
            plan = trial_seed_plan(4, 50)
            got = pool.count_accepted_from_seeds(word, plan, "quantum")
            want = inline.count_accepted_from_seeds(word, plan, "quantum")
        assert got == want

    def test_seed_path_degradation_counted_once(self, clean_registry, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _ExplodingPool)
        pool = get_backend("multiprocess", processes=2)
        pool.count_accepted_from_seeds(
            WORDS["member"], trial_seed_plan(3, 20), "quantum"
        )
        assert clean_registry.counters_with_prefix("engine.degradations") == {
            "engine.degradations{backend=multiprocess,to=inline}": 1
        }


class TestObservedOncePerCall:
    """Both sharded entry points share one fan-out helper; the call is
    observed by the entry point, exactly once, whatever the fan-out."""

    @pytest.mark.parametrize("recognizer", RECOGNIZERS)
    @pytest.mark.parametrize("entry", ["count_accepted", "from_seeds"])
    def test_one_call_counted(self, entry, recognizer, clean_registry):
        word = WORDS["intersecting"]
        pool = MultiprocessBackend(processes=2, shard_trials=True)
        if entry == "count_accepted":
            pool.count_accepted(
                word, 30, np.random.default_rng(1), recognizer=recognizer
            )
        else:
            pool.count_accepted_from_seeds(
                word, trial_seed_plan(1, 30), recognizer
            )
        labels = dict(backend="multiprocess", recognizer=recognizer)
        assert clean_registry.counter("engine.backend.calls", **labels).value == 1
        assert clean_registry.counter("engine.backend.trials", **labels).value == 30
        shards = clean_registry.counters_with_prefix("engine.backend.shards")
        if recognizer == "classical-full":
            assert shards == {}  # decided once, inline
        else:
            assert shards == {"engine.backend.shards{backend=multiprocess}": 2}

    @pytest.mark.parametrize("recognizer", RECOGNIZERS)
    def test_empty_slice_is_neither_run_nor_observed(
        self, recognizer, clean_registry, monkeypatch
    ):
        _forbid_pool(monkeypatch, "empty shard reached the pool")
        pool = MultiprocessBackend(processes=2, shard_trials=True)
        plan = trial_seed_plan(9, 8)
        assert pool.count_accepted_from_seeds(WORDS["member"], plan[8:], recognizer) == 0
        assert clean_registry.counters_with_prefix("engine.backend.calls") == {}


class _NoSeedsBackend(ExecutionBackend):
    """An inner backend that can only run from a parent generator."""

    name = "no-seeds"

    def count_accepted(self, word, trials, rng, factory=None, recognizer="quantum"):
        return 0


class TestRegistration:
    @pytest.mark.parametrize("name", available_backends())
    def test_engine_resolves_every_registered_name(self, name):
        engine = ExecutionEngine(name)
        assert engine.backend_name == name
        est = engine.estimate_acceptance(WORDS["member"], 10, rng=1)
        assert est.backend == name and est.accepted == 10

    def test_unknown_backend_error_lists_registered_names(self):
        with pytest.raises(ValueError) as err:
            get_backend("tpu")
        message = str(err.value)
        assert "tpu" in message
        for name in available_backends():
            assert name in message

    def test_cannot_nest_a_sharded_pool(self):
        with pytest.raises(ValueError, match="nest"):
            MultiprocessBackend(inner=MultiprocessBackend(shard_trials=True))

    def test_sharding_needs_a_seed_capable_inner(self):
        with pytest.raises(ValueError, match="cannot be sharded"):
            MultiprocessBackend(inner=_NoSeedsBackend(), shard_trials=True)
        # Without sharding the same inner is fine.
        assert MultiprocessBackend(inner=_NoSeedsBackend()).shard_trials is False


class TestDownstreamPlumbing:
    def test_acceptance_sweep_through_a_sharded_pool(self):
        pairs = sorted(WORDS.items())
        pool = MultiprocessBackend(processes=2, shard_trials=True)
        swept = acceptance_sweep(pairs, trials=30, rng=5, backend=pool)
        base = acceptance_sweep(pairs, trials=30, rng=5, backend="batched")
        assert [est.accepted for _, est in swept] == [
            est.accepted for _, est in base
        ]

    def test_orchestrator_runs_multiprocess_spec(self, tmp_path):
        from repro.lab import ExperimentSpec, Orchestrator

        def spec(backend):
            return ExperimentSpec(
                family="member", k=1, word=WORDS["member"], recognizer="quantum",
                backend=backend, trials=25, seed=3,
            )

        got = Orchestrator(str(tmp_path / "pool-store")).run(spec("multiprocess"))
        base = Orchestrator(str(tmp_path / "batched-store")).run(spec("batched"))
        assert got.source == "fresh"
        assert got.estimate.accepted == base.estimate.accepted
