"""Theorem 3.4's machine: A1 || A2 || A3 in O(log n) space.

The recognizer runs the three procedures in parallel on the stream and
accepts iff all three output 1:

* members of L_DISJ are accepted with probability 1 (every procedure is
  perfectly complete);
* non-members are rejected with probability >= 1/4: malformed words are
  killed by A1 (deterministically); well-formed words with inconsistent
  copies are killed by A2 (probability > 1 - 2^{-2k} > 1/4); well-formed
  consistent words with an intersection are killed by A3 (probability
  >= 1/4, the BBHT bound).

Besides the runnable recognizer, this module provides the *exact*
acceptance probability (no sampling): A1 is deterministic, A2's pass
probability is a root count over F_p, and A3's detection probability is
an exact state-vector average over the 2^k iteration counts.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..quantum.grover import marked_probabilities, marked_probability
from ..quantum.operators import (
    RxOperator,
    SkOperator,
    UkOperator,
    VxOperator,
    WxOperator,
    initial_phi,
)
from ..quantum.registers import A3Registers
from ..quantum.state import BatchedStateVector, StateVector
from ..rng import ensure_rng, resolve_trial_seeds, spawn
from ..streaming.combinators import ParallelComposition
from ..mathx.primes import fingerprint_prime
from .a1_format import A1FormatCheck
from .a2_fingerprint import A2FingerprintCheck, a2_passes_at_points
from .a3_grover import A3GroverProcedure
from .language import parse_condition_i
from .tiling import resolve_chunk_trials, tile_bounds


class QuantumOnlineRecognizer(ParallelComposition):
    """The composed machine of Theorem 3.4 (accepts = "in L_DISJ").

    One run = one pass over the stream; the decision is a genuine sample
    (A2's random t, A3's random j and measurement).  Space = sum of the
    three procedures' metered space: O(log n) classical bits plus
    2k + 2 qubits.
    """

    def __init__(self, rng=None, forced_j: Optional[int] = None) -> None:
        parent = ensure_rng(rng)
        r1, r2 = spawn(parent, 2)
        self.a1 = A1FormatCheck()
        self.a2 = A2FingerprintCheck(rng=r1)
        self.a3 = A3GroverProcedure(rng=r2, forced_j=forced_j)
        super().__init__(
            "quantum-online-recognizer",
            [self.a1, self.a2, self.a3],
            combiner=lambda outs: 1 if all(bool(o) for o in outs) else 0,
        )


# ---------------------------------------------------------------------------
# Exact (sampling-free) analysis
# ---------------------------------------------------------------------------


def exact_a3_detection_for_blocks(k: int, blocks: list[str], j: int) -> float:
    """Exact Pr[b = 1] of A3's final measurement for a fixed j.

    Replays A3's evolution over an arbitrary block sequence (the blocks
    need not satisfy conditions (ii)/(iii)), using the vectorized
    operators; deterministic given j.
    """
    regs = A3Registers(k)
    vec = initial_phi(regs)
    uk = UkOperator(regs)
    sk = SkOperator(regs)
    for b, s in enumerate(blocks):
        r, typ = b // 3, b % 3
        if r < j:
            if typ in (0, 2):
                vec = VxOperator(regs, s).apply(vec)
            else:
                vec = WxOperator(regs, s).apply(vec)
            if typ == 2:
                vec = uk.apply(vec)
                vec = sk.apply(vec)
                vec = uk.apply(vec)
        elif r == j:
            if typ == 0:
                vec = VxOperator(regs, s).apply(vec)
            elif typ == 1:
                vec = RxOperator(regs, s).apply(vec)
    return marked_probability(vec, regs)


def exact_a3_output_one_probability(word: str) -> float:
    """Exact Pr[A3 outputs 1] on a condition-(i) word (averaged over j).

    All 2^k iteration counts evolve as one state batch (bit-identical
    to, and much faster than, 2^k calls to
    :func:`exact_a3_detection_for_blocks`).
    """
    parsed = parse_condition_i(word)
    if parsed is None:
        raise ValueError("word does not satisfy condition (i)")
    k, blocks = parsed
    js = np.arange(1 << k, dtype=np.int64)
    return 1.0 - float(np.mean(batched_a3_detection(k, blocks, js)))


def exact_a2_pass_probability(word: str, max_k: int = 3) -> float:
    """Exact Pr_t[A2 outputs 1] on a condition-(i) word.

    Enumerates every evaluation point t in F_p (one batched Horner
    sweep), so it is limited to small k (p < 2^{4k+1}; the default cap
    k <= 3 keeps the enumeration under ~10^7 modular operations).
    """
    parsed = parse_condition_i(word)
    if parsed is None:
        raise ValueError("word does not satisfy condition (i)")
    k, blocks = parsed
    if k > max_k:
        raise ValueError(f"exact A2 enumeration capped at k <= {max_k}")
    p = fingerprint_prime(k)
    ok = a2_passes_at_points(k, blocks, np.arange(p, dtype=np.int64))
    return float(np.count_nonzero(ok)) / p


# ---------------------------------------------------------------------------
# Batched trial execution (the engine's dense backend)
# ---------------------------------------------------------------------------


def batched_a3_detection(k: int, blocks: list[str], js) -> np.ndarray:
    """Exact Pr[b = 1] of A3's final measurement for each j in *js*.

    The batched counterpart of :func:`exact_a3_detection_for_blocks`:
    one ``(J, 2^{2k+2})`` state batch is evolved through the block
    sequence via the operators' leading batch axis, with per-row masks
    selecting which trajectories a block still drives (row ``i`` is live
    through round ``js[i]``).  Operators are built once per distinct
    block string.  Row ``i`` undergoes float-for-float the same
    operation sequence as a sequential run with ``j = js[i]``, so the
    returned probabilities are bit-identical to the per-trial path.
    """
    regs = A3Registers(k)
    js = np.asarray(js, dtype=np.int64)
    if js.ndim != 1 or js.size == 0:
        raise ValueError("js must be a non-empty 1-D array")
    if np.any((js < 0) | (js >= (1 << k))):
        raise ValueError(f"every j must lie in [0, 2^{k})")
    states = BatchedStateVector.broadcast(
        StateVector(initial_phi(regs), check=False), js.size
    )
    batch = states.amplitudes
    uk = UkOperator(regs)
    sk = SkOperator(regs)
    vx: dict[str, VxOperator] = {}
    wx: dict[str, WxOperator] = {}
    rx: dict[str, RxOperator] = {}

    def masked(mask: np.ndarray, *ops) -> None:
        if not mask.any():
            return
        sub = batch[mask]
        for op in ops:
            sub = op.apply(sub)
        batch[mask] = sub

    for b, s in enumerate(blocks):
        r, typ = b // 3, b % 3
        running = js > r    # rows still inside full Grover iterations
        closing = js == r   # rows in repetition j + 1 (the V/R finish)
        if typ == 0:
            # x block: V_x for running and closing rows alike.
            op = vx.get(s) or vx.setdefault(s, VxOperator(regs, s))
            masked(running | closing, op)
        elif typ == 1:
            # y block: W_y while iterating, R_y at the finish.
            masked(running, wx.get(s) or wx.setdefault(s, WxOperator(regs, s)))
            masked(closing, rx.get(s) or rx.setdefault(s, RxOperator(regs, s)))
        else:
            # z block: V_z then the diffusion closes a full iteration.
            masked(running, vx.get(s) or vx.setdefault(s, VxOperator(regs, s)), uk, sk, uk)
    # Exact Pr[l = 1] per row; the l qubit is "the last qubit" of step 5.
    return marked_probabilities(batch, regs)


def _decide_quantum_tile(
    k: int,
    blocks: list[str],
    p: int,
    m: int,
    seeds: list[int],
    detection_cache: dict[int, float],
) -> np.ndarray:
    """Accept decisions for one tile of trials, from explicit child seeds.

    *detection_cache* memoizes A3's per-``j`` detection probability
    across tiles: the value depends only on ``(blocks, j)`` and the
    batched evolution is row-independent, so each of the at-most-2^k
    distinct counts is evolved once per word however many tiles the run
    is split into (only scalars are retained, so the cache never eats
    into the byte budget).
    """
    n = len(seeds)
    ts = np.empty(n, dtype=np.int64)
    js = np.empty(n, dtype=np.int64)
    coins = np.empty(n, dtype=np.float64)
    for i, seed in enumerate(seeds):
        r1, r2 = spawn(np.random.default_rng(seed), 2)
        ts[i] = r1.integers(0, p)
        js[i] = r2.integers(0, m)
        coins[i] = r2.random()
    a2_ok = a2_passes_at_points(k, blocks, ts, p=p)
    unique_js, inverse = np.unique(js, return_inverse=True)
    missing = [int(j) for j in unique_js if int(j) not in detection_cache]
    if missing:
        probs = batched_a3_detection(k, blocks, np.asarray(missing, dtype=np.int64))
        detection_cache.update(zip(missing, (float(q) for q in probs)))
    detection = np.array([detection_cache[int(j)] for j in unique_js])[inverse]
    a3_ok = ~(coins < detection)  # b = 1 (intersection seen) rejects
    return a2_ok & a3_ok


def sample_acceptance_batch(
    word: str,
    trials: int,
    rng=None,
    trial_seeds=None,
    max_batch_bytes: Optional[int] = None,
    chunk_trials: Optional[int] = None,
) -> np.ndarray:
    """Per-trial accept decisions of the recognizer, computed batched.

    Draw-for-draw equivalent to ``trials`` sequential runs of
    :class:`QuantumOnlineRecognizer` driven by
    :func:`repro.streaming.acceptance_probability_by_sampling` with the
    same seed: the same child generators are spawned and consulted in
    the same order (A2's t, A3's j, A3's measurement coin), A2 is
    evaluated for all trials in one Horner sweep, and A3's detection
    probabilities are evolved once per *distinct* j as a state batch.
    *trial_seeds* (one child seed per trial, as
    :func:`repro.rng.spawn_seeds` would produce) overrides the spawn so
    shards of one word's trials can run in other processes.

    *max_batch_bytes* / *chunk_trials* tile the trials into contiguous
    chunks decided sequentially (see :mod:`repro.core.tiling`): each
    trial's decision depends only on its own child seed, so the
    concatenated decisions are byte-identical to the untiled run while
    the working set stays within the budget.  Returns a boolean array
    of length *trials*.
    """
    seeds = resolve_trial_seeds(trials, rng, trial_seeds)
    if trials == 0:
        return np.zeros(0, dtype=bool)
    parsed = parse_condition_i(word)
    if parsed is None:
        # A1 rejects deterministically; no per-trial randomness can
        # change the (all-False) outcome.
        return np.zeros(trials, dtype=bool)
    k, blocks = parsed
    p = fingerprint_prime(k)
    m = 1 << k
    # Working-set model: ts/js/coins plus A2's per-distinct-block
    # fingerprint sweeps scale with the tile; the (J, 2^{2k+2})
    # complex128 state batch has one row per distinct j in the tile,
    # capped at the 2^k possible iteration counts whatever the tile.
    state_row = 16 << (2 * k + 2)
    per_trial = 48 + 8 * len(set(blocks))
    tile = resolve_chunk_trials(
        trials, max_batch_bytes, chunk_trials, per_trial + state_row
    )
    if tile >= m:
        # The state batch saturates at 2^k rows: treat it as a fixed
        # floor and let the per-trial arrays spend the rest.
        tile = resolve_chunk_trials(
            trials, max_batch_bytes, chunk_trials, per_trial, m * state_row
        )
    detection_cache: dict[int, float] = {}
    if tile >= trials:
        return _decide_quantum_tile(k, blocks, p, m, seeds, detection_cache)
    out = np.empty(trials, dtype=bool)
    for lo, hi in tile_bounds(trials, tile):
        out[lo:hi] = _decide_quantum_tile(k, blocks, p, m, seeds[lo:hi], detection_cache)
    return out


def exact_acceptance_probability(word: str, max_k_for_a2: int = 3) -> float:
    """Exact Pr[the recognizer accepts *word*] — no sampling anywhere.

    * malformed words: 0 (A1 is deterministic);
    * condition-(i) words: Pr[A2 passes] * Pr[A3 outputs 1] (the two
      procedures' randomness is independent).
    """
    parsed = parse_condition_i(word)
    if parsed is None:
        return 0.0
    p_a2 = exact_a2_pass_probability(word, max_k=max_k_for_a2)
    p_a3 = exact_a3_output_one_probability(word)
    return p_a2 * p_a3
