"""Backend parity: every engine backend returns identical statistics.

The engine's seeding contract says switching backend is purely a
throughput decision — for a fixed seed, the sequential, batched-dense
and multiprocess backends must produce the *same acceptance counts*,
because the batched path replicates the sequential path's random draws
generator for generator.
"""

import numpy as np
import pytest

from repro.core import (
    QuantumOnlineRecognizer,
    intersecting_nonmember,
    malformed_nonmember,
    member,
)
from repro.core.quantum_recognizer import sample_acceptance_batch
from repro.engine import (
    AcceptanceEstimate,
    BatchedDenseBackend,
    ExecutionEngine,
    MultiprocessBackend,
    SequentialBackend,
    available_backends,
    get_backend,
)
from repro.rng import spawn
from repro.streaming import run_online


def _words(k: int):
    return {
        "member": member(k, np.random.default_rng(10 + k)),
        "intersect_t1": intersecting_nonmember(k, 1, np.random.default_rng(20 + k)),
        "intersect_big": intersecting_nonmember(
            k, 1 << (2 * k), np.random.default_rng(30 + k)
        ),
        "x_drift": malformed_nonmember(k, "x_drift", np.random.default_rng(40 + k)),
        "truncated": malformed_nonmember(k, "truncated", np.random.default_rng(50 + k)),
    }


class TestSequentialBatchedParity:
    @pytest.mark.parametrize("k", [1, 2])
    def test_identical_counts_on_every_word_flavour(self, k):
        seq = SequentialBackend()
        bat = BatchedDenseBackend()
        for label, word in _words(k).items():
            trials = 120
            a = seq.count_accepted(word, trials, np.random.default_rng(99))
            b = bat.count_accepted(word, trials, np.random.default_rng(99))
            assert a == b, f"{label}: sequential {a} != batched {b}"

    def test_per_trial_decisions_match_sequential_runs(self):
        """Not just the counts: the batched path reproduces each trial."""
        word = intersecting_nonmember(2, 2, np.random.default_rng(5))
        trials = 60
        batched = sample_acceptance_batch(word, trials, rng=1234)
        parent = np.random.default_rng(1234)
        for i, child in enumerate(spawn(parent, trials)):
            result = run_online(QuantumOnlineRecognizer(rng=child), word)
            assert bool(batched[i]) == result.accepted, f"trial {i} diverged"

    def test_member_words_always_accepted(self):
        word = member(1, np.random.default_rng(0))
        accepted = sample_acceptance_batch(word, 50, rng=0)
        assert accepted.all()  # perfect completeness survives batching

    def test_malformed_words_never_accepted(self):
        word = malformed_nonmember(1, "bad_header", np.random.default_rng(0))
        assert not sample_acceptance_batch(word, 50, rng=0).any()


class TestEngineApi:
    def test_available_backends(self):
        assert {"sequential", "batched", "multiprocess"} <= set(available_backends())

    @pytest.mark.parametrize("name", ["warp-drive", "gpu", "sharedmem"])
    def test_unknown_backend_rejected(self, name):
        """Removed backends are unknown names; the error lists the others."""
        with pytest.raises(ValueError, match=f"unknown backend {name!r}") as err:
            ExecutionEngine(name)
        for registered in available_backends():
            assert registered in str(err.value)

    def test_backend_instance_passes_through(self):
        backend = SequentialBackend()
        assert get_backend(backend) is backend

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            ExecutionEngine("batched").estimate_acceptance("1#00#", 0)

    def test_batched_rejects_custom_factory(self):
        with pytest.raises(ValueError, match="custom factory"):
            ExecutionEngine("batched").estimate_acceptance(
                "1#", 5, factory=lambda g: QuantumOnlineRecognizer(rng=g)
            )

    def test_estimate_fields(self):
        word = member(1, np.random.default_rng(3))
        est = ExecutionEngine("batched").estimate_acceptance(word, 25, rng=8)
        assert isinstance(est, AcceptanceEstimate)
        assert est.word_length == len(word)
        assert est.trials == 25
        assert est.backend == "batched"
        assert est.accepted == 25 and est.probability == 1.0
        assert est.trials_per_second > 0

    def test_run_many_matches_per_word_spawn(self):
        """run_many == spawning one child per word and running each alone."""
        words = [member(1, np.random.default_rng(i)) for i in range(2)]
        words.append(intersecting_nonmember(1, 1, np.random.default_rng(7)))
        engine = ExecutionEngine("batched")
        together = [e.accepted for e in engine.run_many(words, 80, rng=11)]
        children = spawn(np.random.default_rng(11), len(words))
        alone = [
            engine.estimate_acceptance(w, 80, rng=c).accepted
            for w, c in zip(words, children)
        ]
        assert together == alone


class TestMultiprocessBackend:
    def test_counts_match_sequential(self):
        words = [
            member(1, np.random.default_rng(1)),
            intersecting_nonmember(1, 2, np.random.default_rng(2)),
        ]
        mp = ExecutionEngine("multiprocess", inner="batched", processes=2)
        seq = ExecutionEngine("sequential")
        assert [e.accepted for e in mp.run_many(words, 90, rng=5)] == [
            e.accepted for e in seq.run_many(words, 90, rng=5)
        ]

    def test_inline_fallback_matches(self):
        words = [member(1, np.random.default_rng(1))]
        inline = ExecutionEngine("multiprocess", processes=1)
        pooled = ExecutionEngine("multiprocess", processes=2)
        assert [e.accepted for e in inline.run_many(words, 40, rng=3)] == [
            e.accepted for e in pooled.run_many(words, 40, rng=3)
        ]

    def test_cannot_nest_itself(self):
        with pytest.raises(ValueError):
            MultiprocessBackend(inner="multiprocess")

    def test_cannot_nest_itself_given_as_instance(self):
        """The guard checks the resolved inner backend, not its name."""
        with pytest.raises(ValueError, match="nest"):
            MultiprocessBackend(inner=MultiprocessBackend(processes=2), processes=2)
