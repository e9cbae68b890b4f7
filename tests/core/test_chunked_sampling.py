"""Tiling parity: chunked sampler runs are byte-identical to untiled.

The memory-bounded tiling axis (``max_batch_bytes`` / ``chunk_trials``)
splits a trial batch into contiguous tiles decided sequentially.  Each
trial's decision depends only on its own child seed, so the
concatenated decisions must equal the untiled run exactly — for every
chunk size, every recognizer, and both seeding modes (parent rng and
explicit trial seeds).  Tiling must not repeat per-call work either:
``fingerprint_prime`` and each distinct A3 iteration count are derived
once per sampler call however many tiles it splits into.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.a2_fingerprint as a2_mod
import repro.core.classical_recognizer as classical_mod
import repro.core.quantum_recognizer as quantum_mod
from repro.core import intersecting_nonmember, member
from repro.core.classical_recognizer import (
    sample_blockwise_acceptance_batch,
    sample_full_storage_acceptance_batch,
)
from repro.core.quantum_recognizer import sample_acceptance_batch
from repro.core.tiling import resolve_chunk_trials, tile_bounds
from repro.engine import ExecutionEngine, get_backend, trial_seed_plan
from repro.quantum.grover import marked_probabilities, marked_probability
from repro.quantum.registers import A3Registers

SAMPLERS = {
    "quantum": sample_acceptance_batch,
    "classical-blockwise": sample_blockwise_acceptance_batch,
    "classical-full": sample_full_storage_acceptance_batch,
}


@pytest.fixture(scope="module")
def words():
    return {
        "member": member(1, np.random.default_rng(0)),
        "intersecting": intersecting_nonmember(1, 2, np.random.default_rng(1)),
    }


class TestTilingHelpers:
    def test_tile_bounds_cover_range_contiguously(self):
        bounds = list(tile_bounds(10, 3))
        assert bounds == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_tile_bounds_empty_range(self):
        assert list(tile_bounds(0, 4)) == []

    def test_resolve_explicit_chunk_wins_when_smaller(self):
        assert resolve_chunk_trials(100, max_batch_bytes=10**9, chunk_trials=7) == 7

    def test_resolve_budget_converts_to_trials(self):
        assert resolve_chunk_trials(100, max_batch_bytes=160, bytes_per_trial=16) == 10

    def test_resolve_budget_respects_floor(self):
        assert (
            resolve_chunk_trials(
                100, max_batch_bytes=200, bytes_per_trial=10, floor_bytes=100
            )
            == 10
        )

    def test_tiny_budget_still_progresses_one_trial(self):
        assert resolve_chunk_trials(100, max_batch_bytes=1, bytes_per_trial=64) == 1

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            resolve_chunk_trials(10, chunk_trials=0)
        with pytest.raises(ValueError):
            resolve_chunk_trials(10, max_batch_bytes=0)


class TestChunkedParity:
    @pytest.mark.parametrize("recognizer", sorted(SAMPLERS))
    @settings(max_examples=20, deadline=None)
    @given(chunk=st.integers(min_value=1, max_value=97), seed=st.integers(0, 2**16))
    def test_chunked_counts_match_untiled(self, words, recognizer, chunk, seed):
        sampler = SAMPLERS[recognizer]
        word = words["intersecting"]
        untiled = sampler(word, 61, np.random.default_rng(seed))
        tiled = sampler(word, 61, np.random.default_rng(seed), chunk_trials=chunk)
        np.testing.assert_array_equal(untiled, tiled)

    @pytest.mark.parametrize("recognizer", sorted(SAMPLERS))
    @pytest.mark.parametrize("budget", [1, 512, 4096, 1 << 20])
    def test_byte_budget_counts_match_untiled(self, words, recognizer, budget):
        sampler = SAMPLERS[recognizer]
        for word in words.values():
            untiled = sampler(word, 50, np.random.default_rng(7))
            tiled = sampler(
                word, 50, np.random.default_rng(7), max_batch_bytes=budget
            )
            np.testing.assert_array_equal(untiled, tiled)

    @pytest.mark.parametrize("recognizer", sorted(SAMPLERS))
    def test_chunked_explicit_seed_plan(self, words, recognizer):
        """Tiling composes with explicit trial seeds (the shard path)."""
        sampler = SAMPLERS[recognizer]
        word = words["intersecting"]
        plan = trial_seed_plan(11, 40)
        whole = sampler(word, 40, None, trial_seeds=plan)
        tiled = sampler(word, 40, None, trial_seeds=plan, chunk_trials=9)
        np.testing.assert_array_equal(whole, tiled)

    @pytest.mark.parametrize("recognizer", sorted(SAMPLERS))
    def test_chunk_and_budget_compose(self, words, recognizer):
        """Both tiling knobs at once still decide every trial identically."""
        sampler = SAMPLERS[recognizer]
        for word in words.values():
            base = sampler(word, 41, np.random.default_rng(3))
            tiled = sampler(
                word,
                41,
                np.random.default_rng(3),
                chunk_trials=7,
                max_batch_bytes=1024,
            )
            np.testing.assert_array_equal(base, tiled)

    @pytest.mark.parametrize("recognizer", sorted(SAMPLERS))
    def test_int_seed_matches_seeded_generator(self, words, recognizer):
        sampler = SAMPLERS[recognizer]
        for word in words.values():
            np.testing.assert_array_equal(
                sampler(word, 60, 11), sampler(word, 60, np.random.default_rng(11))
            )

    @pytest.mark.parametrize("recognizer", sorted(SAMPLERS))
    def test_seed_plan_reproduces_parent_rng_run(self, words, recognizer):
        """``trial_seed_plan(seed, n)`` is exactly the per-trial seeding
        a parent-rng run uses — the contract lab deepening relies on."""
        sampler = SAMPLERS[recognizer]
        for word in words.values():
            parent = sampler(word, 45, np.random.default_rng(21))
            planned = sampler(word, 45, None, trial_seeds=trial_seed_plan(21, 45))
            np.testing.assert_array_equal(parent, planned)

    @pytest.mark.parametrize("recognizer", sorted(SAMPLERS))
    def test_zero_trials_is_empty(self, words, recognizer):
        out = SAMPLERS[recognizer](words["member"], 0, None, trial_seeds=[])
        assert out.dtype == bool and out.size == 0


class TestBackendBudgetThreading:
    @pytest.mark.parametrize(
        "recognizer", ["quantum", "classical-blockwise", "classical-full"]
    )
    def test_budgeted_batched_backend_matches_unbudgeted(self, words, recognizer):
        word = words["intersecting"]
        plain = ExecutionEngine("batched").estimate_acceptance(
            word, 80, rng=3, recognizer=recognizer
        )
        budgeted = ExecutionEngine(
            "batched", max_batch_bytes=2048, chunk_trials=13
        ).estimate_acceptance(word, 80, rng=3, recognizer=recognizer)
        assert budgeted.accepted == plain.accepted

    def test_budgeted_seed_slices_still_shard(self, words):
        word = words["intersecting"]
        plan = trial_seed_plan(5, 60)
        plain = get_backend("batched")
        tiled = get_backend("batched", max_batch_bytes=1024)
        whole = plain.count_accepted_from_seeds(word, plan, "quantum")
        split = sum(
            tiled.count_accepted_from_seeds(word, plan[lo:hi], "quantum")
            for lo, hi in [(0, 23), (23, 44), (44, 60)]
        )
        assert whole == split

    def test_sequential_accepts_and_ignores_budget(self, words):
        word = words["intersecting"]
        a = ExecutionEngine("sequential").estimate_acceptance(word, 25, rng=4)
        b = ExecutionEngine(
            "sequential", max_batch_bytes=1024
        ).estimate_acceptance(word, 25, rng=4)
        assert a.accepted == b.accepted

    def test_multiprocess_threads_budget_to_workers(self, words):
        word = words["intersecting"]
        plain = ExecutionEngine("batched").estimate_acceptance(word, 60, rng=8)
        budgeted = ExecutionEngine(
            "multiprocess", processes=2, shard_trials=True, max_batch_bytes=4096
        ).estimate_acceptance(word, 60, rng=8)
        assert budgeted.accepted == plain.accepted


class TestMarkedProbabilities:
    def test_marked_probabilities_bit_identical_to_per_row(self):
        """The engine's coins compare against these exact floats."""
        regs = A3Registers(2)
        rng = np.random.default_rng(5)
        batch = rng.normal(size=(8, regs.dimension)) + 1j * rng.normal(
            size=(8, regs.dimension)
        )
        batched = marked_probabilities(batch, regs)
        rows = np.array([marked_probability(batch[i], regs) for i in range(8)])
        assert (batched == rows).all()


class TestPerCallCaching:
    def _counting_prime(self, monkeypatch):
        from repro.mathx.primes import fingerprint_prime

        calls = []

        def counted(k):
            calls.append(k)
            return fingerprint_prime(k)

        monkeypatch.setattr(quantum_mod, "fingerprint_prime", counted)
        monkeypatch.setattr(classical_mod, "fingerprint_prime", counted)
        monkeypatch.setattr(a2_mod, "fingerprint_prime", counted)
        return calls

    def test_quantum_prime_derived_once_across_tiles(self, words, monkeypatch):
        calls = self._counting_prime(monkeypatch)
        sample_acceptance_batch(
            words["intersecting"], 40, np.random.default_rng(0), chunk_trials=3
        )
        assert calls == [1]  # one call for ~14 tiles

    def test_blockwise_prime_derived_once_across_tiles(self, words, monkeypatch):
        calls = self._counting_prime(monkeypatch)
        # a member word: the intersecting one is rejected by the chunk
        # matcher before any per-trial randomness (or prime) is needed.
        sample_blockwise_acceptance_batch(
            words["member"], 40, np.random.default_rng(0), chunk_trials=3
        )
        assert calls == [1]

    def test_fingerprint_prime_is_memoized(self):
        from repro.mathx.primes import fingerprint_prime

        before = fingerprint_prime.cache_info().hits
        val = fingerprint_prime(3)
        assert fingerprint_prime(3) == val
        assert fingerprint_prime.cache_info().hits > before

    def test_detection_cache_never_revisits_a_j(self, monkeypatch):
        """Across tiles, each distinct j is evolved at most once."""
        from repro.core.quantum_recognizer import batched_a3_detection

        seen: set[int] = set()

        def recording(k, blocks, js):
            for j in np.asarray(js).tolist():
                assert j not in seen, f"j={j} evolved twice"
                seen.add(j)
            return batched_a3_detection(k, blocks, js)

        monkeypatch.setattr(quantum_mod, "batched_a3_detection", recording)
        word = member(2, np.random.default_rng(2))
        base = sample_acceptance_batch(word, 50, np.random.default_rng(9))
        seen.clear()
        tiled = sample_acceptance_batch(word, 50, np.random.default_rng(9), chunk_trials=4)
        np.testing.assert_array_equal(base, tiled)
        assert seen  # the wrapper really intercepted the tiled run

    def test_state_batch_floor_re_resolves_tile(self, words, monkeypatch):
        """When the first resolution lands at tile >= m = 2^k rows, the
        sampler re-resolves with the saturated state batch as a fixed
        floor — the second call must carry floor_bytes = m * state_row
        and drop the per-trial state_row term."""
        from repro.core.tiling import resolve_chunk_trials

        calls = []

        def recording(trials, max_batch_bytes=None, chunk_trials=None,
                      bytes_per_trial=1, floor_bytes=0):
            calls.append(
                {"bytes_per_trial": bytes_per_trial, "floor_bytes": floor_bytes}
            )
            return resolve_chunk_trials(
                trials, max_batch_bytes, chunk_trials, bytes_per_trial, floor_bytes
            )

        monkeypatch.setattr(quantum_mod, "resolve_chunk_trials", recording)
        word = words["intersecting"]  # k = 1: m = 2, state_row = 256
        base = sample_acceptance_batch(word, 40, np.random.default_rng(2))
        calls.clear()
        tiled = sample_acceptance_batch(
            word, 40, np.random.default_rng(2), max_batch_bytes=1000
        )
        np.testing.assert_array_equal(base, tiled)
        assert len(calls) == 2
        state_row = 16 << (2 * 1 + 2)
        assert calls[0]["bytes_per_trial"] > state_row  # per-trial + state row
        assert calls[1]["floor_bytes"] == 2 * state_row  # m saturated rows
        assert calls[1]["bytes_per_trial"] < state_row  # per-trial only

    def test_tiny_budget_skips_re_resolution(self, words, monkeypatch):
        """A budget too small to reach m rows resolves exactly once."""
        from repro.core.tiling import resolve_chunk_trials

        calls = []

        def recording(*args, **kwargs):
            calls.append(args)
            return resolve_chunk_trials(*args, **kwargs)

        monkeypatch.setattr(quantum_mod, "resolve_chunk_trials", recording)
        sample_acceptance_batch(
            words["intersecting"], 10, np.random.default_rng(2), max_batch_bytes=1
        )
        assert len(calls) == 1
