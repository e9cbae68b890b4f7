"""Multiprocess degradation paths: broken pools fall back inline.

A worker killed mid-flight (OOM, sandbox reaping) surfaces as
``BrokenProcessPool`` from the pool's result iterator; restricted
environments raise ``OSError``/``PermissionError`` at pool creation.
All of them must degrade to inline execution with identical counts
instead of crashing the sweep.  Empty seed lists never reach a pool,
and the inner backend may be given by name or as an instance.
"""

import concurrent.futures
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.core import intersecting_nonmember, member
from repro.engine import (
    BatchedDenseBackend,
    ExecutionEngine,
    MultiprocessBackend,
    get_backend,
    trial_seed_plan,
)

RECOGNIZERS = ["quantum", "classical-blockwise", "classical-full"]


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
def broken_pool(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _ExplodingPool)


class TestBrokenPoolFallback:
    def test_word_fanout_falls_back_inline(self, broken_pool):
        words = [
            member(1, np.random.default_rng(1)),
            intersecting_nonmember(1, 2, np.random.default_rng(2)),
        ]
        mp = ExecutionEngine("multiprocess", processes=2)
        seq = ExecutionEngine("sequential")
        assert [e.accepted for e in mp.run_many(words, 40, rng=3)] == [
            e.accepted for e in seq.run_many(words, 40, rng=3)
        ]

    def test_sharded_trials_fall_back_inline(self, broken_pool):
        word = intersecting_nonmember(1, 1, np.random.default_rng(4))
        sharded = ExecutionEngine("multiprocess", processes=2, shard_trials=True)
        plain = ExecutionEngine("batched")
        a = sharded.estimate_acceptance(word, 50, rng=9)
        b = plain.estimate_acceptance(word, 50, rng=9)
        assert a.accepted == b.accepted

    def test_classical_recognizers_survive_broken_pool(self, broken_pool):
        word = member(1, np.random.default_rng(5))
        mp = ExecutionEngine("multiprocess", processes=2, shard_trials=True)
        for rec in ("classical-blockwise", "classical-full"):
            est = mp.estimate_acceptance(word, 30, rng=2, recognizer=rec)
            assert est.accepted == 30


class TestShardConfiguration:
    def test_single_process_sharding_runs_inline(self):
        word = member(1, np.random.default_rng(0))
        inline = ExecutionEngine("multiprocess", processes=1, shard_trials=True)
        plain = ExecutionEngine("batched")
        assert (
            inline.estimate_acceptance(word, 25, rng=6).accepted
            == plain.estimate_acceptance(word, 25, rng=6).accepted
        )

    def test_run_many_single_word_uses_trial_sharding(self):
        word = intersecting_nonmember(1, 2, np.random.default_rng(7))
        sharded = ExecutionEngine("multiprocess", processes=2, shard_trials=True)
        plain = ExecutionEngine("batched")
        assert [e.accepted for e in sharded.run_many([word], 45, rng=8)] == [
            e.accepted for e in plain.run_many([word], 45, rng=8)
        ]

    def test_more_workers_than_trials(self):
        word = member(1, np.random.default_rng(9))
        sharded = ExecutionEngine("multiprocess", processes=8, shard_trials=True)
        assert sharded.estimate_acceptance(word, 3, rng=1).accepted == 3

    def test_factory_still_rejected(self):
        backend = MultiprocessBackend(shard_trials=True)
        with pytest.raises(ValueError, match="seeds, not closures"):
            backend.count_accepted(
                "1#00#", 5, np.random.default_rng(0), factory=lambda g: None
            )


class TestEmptySeedListIsANoOp:
    """``count_accepted_from_seeds(word, [])`` — the legal empty
    continuation ``trial_seed_plan(seed, n)[n:]`` — returns 0 accepted
    on every backend instead of raising."""

    @pytest.mark.parametrize("backend", ["sequential", "batched", "multiprocess"])
    @pytest.mark.parametrize("recognizer", RECOGNIZERS)
    def test_empty_slice_counts_zero(self, backend, recognizer):
        word = intersecting_nonmember(1, 2, np.random.default_rng(1))
        b = get_backend(backend)
        plan = trial_seed_plan(9, 8)
        assert b.count_accepted_from_seeds(word, plan[8:], recognizer) == 0
        assert b.count_accepted_from_seeds(word, [], recognizer) == 0

    def test_empty_slice_never_reaches_a_pool(self, monkeypatch):
        def no_pool(*a, **kw):  # pragma: no cover - must not be reached
            raise AssertionError("empty shard reached the pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        backend = get_backend("multiprocess", processes=4)
        assert backend.count_accepted_from_seeds("1#00#", [], "quantum") == 0


class TestInnerBackendResolution:
    def test_instance_inner_without_budget_still_works(self):
        """A configured backend *instance* as inner must keep working
        when no budget is set (get_backend rejects options alongside
        instances)."""
        word = intersecting_nonmember(1, 2, np.random.default_rng(1))
        mp = MultiprocessBackend(inner=BatchedDenseBackend(), processes=1)
        plain = get_backend("batched")
        plan = trial_seed_plan(9, 20)
        assert mp.count_accepted_from_seeds(
            word, plan, "quantum"
        ) == plain.count_accepted_from_seeds(word, plan, "quantum")

    @pytest.mark.parametrize("removed", ["gpu", "sharedmem"])
    def test_removed_backend_names_are_unknown_inners(self, removed):
        with pytest.raises(ValueError, match="unknown backend"):
            MultiprocessBackend(inner=removed)
