"""Correctness oracles and the small statistics the benchmark reports.

Everything here runs outside the timed regions.  The oracles are the
paper's exact acceptance probabilities, so a count that every backend
gets wrong in the same way still fails the binomial test.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.core.classical_recognizer import blockwise_chunk_match, full_storage_accepts
from repro.core.language import parse_condition_i
from repro.core.quantum_recognizer import (
    exact_a2_pass_probability,
    exact_a3_output_one_probability,
    exact_acceptance_probability,
)

#: A count fails the oracle test when its two-sided binomial p-value is
#: below this.  With a few hundred tests per run, a correct program fails
#: a run with probability below 1e-3.
MIN_P_VALUE = 1e-6

#: Largest k at which A2's pass probability is enumerated exactly.
EXACT_A2_MAX_K = 3


def _copies_agree(blocks: Sequence[str]) -> bool:
    """Every x and z block equals the first x, every y block the first y."""
    x, y = blocks[0], blocks[1]
    return (
        all(b == x for b in blocks[0::3])
        and all(b == y for b in blocks[1::3])
        and all(b == x for b in blocks[2::3])
    )


def exact_probability(word: str, recognizer: str) -> float:
    """The exact probability that *recognizer* accepts *word*.

    Quantum: :func:`exact_acceptance_probability` up to k = 3; above it,
    only for well-formed words whose copies agree, where A2 passes surely
    and the answer is :func:`exact_a3_output_one_probability`.
    Classical-blockwise: A1 and the chunk matcher are deterministic, so
    the answer is A2's pass probability when both pass and 0 otherwise.
    Raises ``ValueError`` for a word no oracle covers.
    """
    if recognizer == "classical-full":
        return 1.0 if full_storage_accepts(word) else 0.0
    parsed = parse_condition_i(word)
    if parsed is None:
        return 0.0
    k, blocks = parsed
    if recognizer == "quantum":
        if k <= EXACT_A2_MAX_K:
            return exact_acceptance_probability(word, max_k_for_a2=EXACT_A2_MAX_K)
        if _copies_agree(blocks):
            return exact_a3_output_one_probability(word)
    elif recognizer == "classical-blockwise":
        if not blockwise_chunk_match(k, blocks):
            return 0.0
        if k <= EXACT_A2_MAX_K:
            return exact_a2_pass_probability(word, max_k=EXACT_A2_MAX_K)
        if _copies_agree(blocks):
            return 1.0
    raise ValueError(f"no exact oracle for a k={k} {recognizer} word")


def binomial_p_value(successes: int, trials: int, p: float) -> float:
    """Two-sided exact binomial p-value (the outcomes no likelier than observed).

    >>> binomial_p_value(5, 10, 0.5)
    1.0
    >>> binomial_p_value(9, 10, 1.0), binomial_p_value(10, 10, 1.0)
    (0.0, 1.0)
    """
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    if p <= 0.0:
        return 1.0 if successes == 0 else 0.0
    if p >= 1.0:
        return 1.0 if successes == trials else 0.0
    i = np.arange(trials, dtype=np.float64)
    steps = np.log(trials - i) - np.log(i + 1.0) + math.log(p) - math.log1p(-p)
    log_pmf = np.concatenate(([trials * math.log1p(-p)], trials * math.log1p(-p) + np.cumsum(steps)))
    observed = log_pmf[successes]
    tail = log_pmf[log_pmf <= observed + 1e-9 * max(1.0, abs(observed))]
    return float(min(1.0, np.exp(tail).sum()))


def oracle_failures(
    results: Iterable[Tuple[str, str, int, int]], words: Dict[str, str]
) -> List[str]:
    """Binomial-test ``(label, recognizer, trials, accepted)`` against the oracle.

    *words* maps each label to its word; probabilities are computed once
    per (word, recognizer).
    """
    cache: Dict[Tuple[str, str], float] = {}
    failures = []
    for label, recognizer, trials, accepted in results:
        ident = (words[label], recognizer)
        if ident not in cache:
            cache[ident] = exact_probability(words[label], recognizer)
        p = cache[ident]
        p_value = binomial_p_value(accepted, trials, p)
        if p_value < MIN_P_VALUE:
            failures.append(
                f"{label}: {accepted}/{trials} accepted, exact p={p:.6f}, "
                f"binomial p-value {p_value:.3g} < {MIN_P_VALUE:g}"
            )
    return failures


def count_digest(records: Iterable[Tuple[str, int, int]]) -> str:
    """SHA-256 over sorted ``(key, trials, accepted)``: the seeding contract's witness."""
    lines = sorted(f"{key} {trials} {accepted}" for key, trials, accepted in records)
    return hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with q% of samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb(pid: str = "self") -> float:
    """A process's peak resident set (``VmHWM``) in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")
