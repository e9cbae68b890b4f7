"""Classical recognizers for L_DISJ.

* :class:`BlockwiseClassicalRecognizer` — Proposition 3.7's machine:
  decompose x into 2^k chunks of 2^k bits; in repetition r hold chunk r
  of x in memory and match it against chunk r of y.  Combined with the
  classical A1/A2 checks this recognizes L_DISJ with bounded error in
  ``O(2^k) = O(n^{1/3})`` measured bits — tight against Theorem 3.6.

* :class:`FullStorageClassicalRecognizer` — the naive machine that
  stores x and y outright: deterministic, zero error, Theta(n^{2/3})
  bits of storage (the strings have length n^{2/3} relative to the full
  repeated input).  The baseline the paper's introduction says is
  impossible "when the length of the string is far beyond the capacity
  of the memory".

Besides the streamed machines, this module provides their *batched*
counterparts for the execution engine's dense backend: the word's
blocks are bit-packed into a ``(B, n)`` uint8 matrix (and uint64 lanes
for whole-block work), A1 is decided once by the offline reference
parser, A2's per-trial fingerprints come out of one modular-Horner
sweep (:func:`repro.core.a2_fingerprint.a2_passes_at_points`), and the
chunk matcher / full-storage comparisons collapse to a handful of NumPy
reductions.  Trial randomness is drawn generator-for-generator like the
streamed machines, so acceptance decisions are identical, only faster.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..mathx.primes import fingerprint_prime
from ..rng import resolve_trial_seeds, spawn
from ..streaming.algorithm import OnlineAlgorithm
from ..streaming.combinators import ParallelComposition
from .a1_format import A1FormatCheck
from .a2_fingerprint import A2FingerprintCheck, a2_passes_at_points
from .language import parse_condition_i
from .structure import BlockStreamParser, block_type, round_index
from .tiling import resolve_chunk_trials, tile_bounds


class _BlockwiseCore(OnlineAlgorithm):
    """The chunk-matching half of Proposition 3.7 (assumes (i)-(iii)).

    Chunk r of a string s (r = 0 .. 2^k - 1) is s[r*2^k : (r+1)*2^k].
    During repetition r the machine stores chunk r of the x block and
    compares it against chunk r of the y block; all other positions
    stream past unexamined.  One chunk register of 2^k bits dominates
    the measured space.
    """

    def __init__(self, budget_bits=None) -> None:
        super().__init__("blockwise-core", budget_bits=budget_bits)
        self.parser = BlockStreamParser(self.workspace, prefix="bw")
        self.parser.subscribe(self)
        self._chunk_bits = 0

    def on_header(self, k: int) -> None:
        ws = self.workspace
        self._chunk_bits = 1 << k
        ws.alloc("bw.chunk", self._chunk_bits)
        ws.alloc("bw.hit", 1)  # intersection found

    def on_block_bit(self, block: int, position: int, bit: int) -> None:
        ws = self.workspace
        r = round_index(block)
        typ = block_type(block)
        c = self._chunk_bits
        lo, hi = r * c, (r + 1) * c
        if not lo <= position < hi:
            return
        offset = position - lo
        if typ == "x":
            chunk = ws.get("bw.chunk")
            if bit:
                chunk |= 1 << offset
            else:
                chunk &= ~(1 << offset)
            ws.set("bw.chunk", chunk)
        elif typ == "y":
            if bit and (ws.get("bw.chunk") >> offset) & 1:
                ws.set("bw.hit", 1)
        # z blocks: nothing (their consistency is A2's job).

    def feed(self, symbol: str) -> None:
        self.parser.feed(symbol)

    def finish(self) -> int:
        self.parser.finish()
        if "bw.hit" not in self.workspace:
            return 0
        return 0 if self.workspace.get("bw.hit") else 1


class BlockwiseClassicalRecognizer(ParallelComposition):
    """Proposition 3.7: A1 || A2 || chunk matching, O(n^{1/3}) bits.

    Perfectly complete (members always accepted); non-members are
    rejected with probability > 1 - 2^{-2k}: malformed words by A1,
    inconsistent words by A2, intersecting words by the (deterministic)
    chunk matcher, since under conditions (ii)/(iii) every index is
    examined in exactly one repetition.
    """

    def __init__(self, rng=None) -> None:
        from ..rng import ensure_rng, spawn

        parent = ensure_rng(rng)
        (r1,) = spawn(parent, 1)
        self.a1 = A1FormatCheck()
        self.a2 = A2FingerprintCheck(rng=r1)
        self.core = _BlockwiseCore()
        super().__init__(
            "blockwise-classical-recognizer",
            [self.a1, self.a2, self.core],
            combiner=lambda outs: 1 if all(bool(o) for o in outs) else 0,
        )


class FullStorageClassicalRecognizer(OnlineAlgorithm):
    """Store x and y outright; deterministic and exact, Theta(2^{2k}) bits.

    Repetition 0 records x and y (and checks z = x); later repetitions
    are compared bit-by-bit against the stored strings, so all of
    conditions (i)-(iii) and the disjointness predicate are decided with
    zero error — at a space cost exponentially larger than the quantum
    recognizer's.
    """

    def __init__(self, budget_bits=None) -> None:
        super().__init__("full-storage-recognizer", budget_bits=budget_bits)
        self.parser = BlockStreamParser(self.workspace, prefix="fs")
        self.parser.subscribe(self)
        self._n = 0

    def on_header(self, k: int) -> None:
        ws = self.workspace
        self._n = 1 << (2 * k)
        ws.alloc("fs.x", self._n)
        ws.alloc("fs.y", self._n)
        ws.alloc("fs.ok", 1)
        ws.set("fs.ok", 1)

    def on_block_bit(self, block: int, position: int, bit: int) -> None:
        ws = self.workspace
        typ = block_type(block)
        r = round_index(block)
        if r == 0 and typ == "x":
            val = ws.get("fs.x")
            ws.set("fs.x", val | (1 << position) if bit else val & ~(1 << position))
            return
        if r == 0 and typ == "y":
            val = ws.get("fs.y")
            ws.set("fs.y", val | (1 << position) if bit else val & ~(1 << position))
            return
        reference = "fs.y" if typ == "y" else "fs.x"
        if ((ws.get(reference) >> position) & 1) != bit:
            ws.set("fs.ok", 0)

    def feed(self, symbol: str) -> None:
        self.parser.feed(symbol)

    def finish(self) -> int:
        ok = self.parser.finish()
        if "fs.ok" not in self.workspace:
            return 0
        if not ok or not self.workspace.get("fs.ok"):
            return 0
        x = self.workspace.get("fs.x")
        y = self.workspace.get("fs.y")
        return 0 if (x & y) else 1


# ---------------------------------------------------------------------------
# Batched trial execution (the engine's dense backend, classical side)
# ---------------------------------------------------------------------------


def block_bit_matrix(blocks: Sequence[str]) -> np.ndarray:
    """Bit-pack equal-length blocks into a ``(B, n)`` uint8 0/1 matrix."""
    data = "".join(blocks).encode("ascii")
    mat = np.frombuffer(data, dtype=np.uint8).reshape(len(blocks), -1)
    return (mat - ord("0")).astype(np.uint8)


def pack_bits_u64(mat: np.ndarray) -> np.ndarray:
    """Pack a ``(B, n)`` 0/1 matrix into ``(B, ceil(n/64))`` uint64 lanes.

    Whole-block equality and intersection tests then run 64 positions
    per machine word instead of one byte per position.
    """
    rows, n = mat.shape
    lane_bytes = 8 * ((n + 63) // 64)
    packed = np.packbits(mat, axis=1, bitorder="little")
    if packed.shape[1] < lane_bytes:
        packed = np.pad(packed, ((0, 0), (0, lane_bytes - packed.shape[1])))
    return np.ascontiguousarray(packed).view(np.uint64)


def blockwise_chunk_match(k: int, blocks: Sequence[str]) -> bool:
    """The chunk matcher's verdict, vectorized (True = no intersection seen).

    Replays :class:`_BlockwiseCore` on a condition-(i) block sequence:
    in repetition r only positions ``[r*2^k, (r+1)*2^k)`` are examined,
    against that repetition's own x block — one diagonal slice of the
    ``(2^k, 2^k, 2^k)`` chunk tensor and one AND-reduction, instead of a
    per-bit Python loop.
    """
    mat = block_bit_matrix(blocks)
    reps = 1 << k
    chunk = 1 << k
    rounds = np.arange(reps)
    x_chunks = mat[0::3].reshape(reps, reps, chunk)[rounds, rounds]
    y_chunks = mat[1::3].reshape(reps, reps, chunk)[rounds, rounds]
    return not np.bitwise_and(x_chunks, y_chunks).any()


def full_storage_accepts(word: str) -> bool:
    """The full-storage baseline's (deterministic) decision, vectorized.

    Equivalent to streaming *word* through
    :class:`FullStorageClassicalRecognizer`: reject unless the word has
    the condition-(i) shape, every x/z block equals repetition 0's x,
    every y block equals repetition 0's y, and x, y are disjoint.  All
    block comparisons run over uint64 lanes.
    """
    parsed = parse_condition_i(word)
    if parsed is None:
        return False
    _, blocks = parsed
    lanes = pack_bits_u64(block_bit_matrix(blocks))
    x, y = lanes[0], lanes[1]
    consistent = (
        bool((lanes[0::3] == x).all())
        and bool((lanes[1::3] == y).all())
        and bool((lanes[2::3] == x).all())
    )
    return consistent and not np.bitwise_and(x, y).any()


def _decide_blockwise_tile(
    k: int, blocks: Sequence[str], p: int, seeds: Sequence[int]
) -> np.ndarray:
    """A2 verdicts for one tile of trials, from explicit child seeds."""
    ts = np.empty(len(seeds), dtype=np.int64)
    for i, seed in enumerate(seeds):
        (r1,) = spawn(np.random.default_rng(seed), 1)
        ts[i] = r1.integers(0, p)
    return a2_passes_at_points(k, list(blocks), ts, p=p)


def sample_blockwise_acceptance_batch(
    word: str,
    trials: int,
    rng=None,
    trial_seeds: Optional[Sequence[int]] = None,
    max_batch_bytes: Optional[int] = None,
    chunk_trials: Optional[int] = None,
) -> np.ndarray:
    """Per-trial accept decisions of Proposition 3.7's machine, batched.

    Draw-for-draw equivalent to ``trials`` sequential runs of
    :class:`BlockwiseClassicalRecognizer` with the same seed: the same
    child generator is spawned per trial and consulted in the same
    order (A2's evaluation point t), A2 is evaluated for all trials in
    one Horner sweep, and the deterministic A1/chunk-matching verdicts
    are computed once and broadcast.  *trial_seeds* (one child seed per
    trial, as :func:`repro.rng.spawn_seeds` would produce) overrides the
    spawn so shards of one word's trials can run in other processes.
    *max_batch_bytes* / *chunk_trials* tile the trials into contiguous
    chunks decided sequentially with byte-identical counts (see
    :mod:`repro.core.tiling`).  Returns a boolean array of length
    *trials*.
    """
    seeds = resolve_trial_seeds(trials, rng, trial_seeds)
    if trials == 0:
        return np.zeros(0, dtype=bool)
    parsed = parse_condition_i(word)
    if parsed is None:
        # A1 rejects deterministically; no per-trial randomness matters.
        return np.zeros(trials, dtype=bool)
    k, blocks = parsed
    if not blockwise_chunk_match(k, blocks):
        # The chunk matcher is deterministic, so the per-trial points
        # can never flip the (all-False) outcome — skip drawing them.
        return np.zeros(trials, dtype=bool)
    p = fingerprint_prime(k)
    # Working set per trial: the ts array plus A2's per-distinct-block
    # fingerprint sweeps and verdict masks.
    per_trial = 24 + 8 * len(set(blocks))
    tile = resolve_chunk_trials(trials, max_batch_bytes, chunk_trials, per_trial)
    if tile >= trials:
        return _decide_blockwise_tile(k, blocks, p, seeds)
    out = np.empty(trials, dtype=bool)
    for lo, hi in tile_bounds(trials, tile):
        out[lo:hi] = _decide_blockwise_tile(k, blocks, p, seeds[lo:hi])
    return out


def sample_full_storage_acceptance_batch(
    word: str,
    trials: int,
    rng=None,
    trial_seeds: Optional[Sequence[int]] = None,
    max_batch_bytes: Optional[int] = None,
    chunk_trials: Optional[int] = None,
) -> np.ndarray:
    """Per-trial accept decisions of the full-storage baseline, batched.

    The machine is deterministic, so one vectorized decision
    (:func:`full_storage_accepts`) is broadcast across the trials and
    *rng* is never consulted — no per-trial children are spawned (at
    one million trials that loop alone costs seconds for a decision
    made in microseconds), so unlike the randomized samplers the
    parent's spawn counter is left untouched.  Explicit *trial_seeds*
    are still validated so the sampler stays shard-compatible, and the
    tiling knobs are accepted (and validated) for signature parity with
    the randomized samplers — the broadcast output array is the whole
    working set, so there is nothing to tile.
    """
    if trial_seeds is not None:
        resolve_trial_seeds(trials, rng, trial_seeds)
    elif trials < 0:
        raise ValueError("trials must be non-negative")
    resolve_chunk_trials(trials, max_batch_bytes, chunk_trials)
    if trials == 0:
        return np.zeros(0, dtype=bool)
    return np.full(trials, full_storage_accepts(word), dtype=bool)
