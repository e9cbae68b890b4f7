"""The dense batched backend: all trials advance per NumPy call.

Delegates to the core layer's batch paths, one per recognizer:

* ``quantum`` — :func:`repro.core.quantum_recognizer.sample_acceptance_batch`:
  A1 is decided once, A2's fingerprints for every trial's evaluation
  point come out of one modular-Horner sweep, and A3's quantum register
  is promoted to a ``(J, 2^{2k+2})`` batch — one row per distinct
  iteration count — evolved through the operators' leading batch axis.
* ``classical-blockwise`` —
  :func:`repro.core.classical_recognizer.sample_blockwise_acceptance_batch`:
  the same A1/A2 vectorization plus the Proposition 3.7 chunk matcher
  collapsed to one bit-matrix diagonal AND-reduction.
* ``classical-full`` —
  :func:`repro.core.classical_recognizer.sample_full_storage_acceptance_batch`:
  the deterministic baseline decided once over packed uint64 lanes and
  broadcast across trials.

Trial randomness is drawn generator-for-generator like the sequential
backend, so the acceptance counts are identical, only faster.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

import numpy as np

from .api import ExecutionBackend, register_backend, validate_recognizer
from .telemetry import observe_backend_call


def _batch_sampler(recognizer: str) -> Callable[..., np.ndarray]:
    validate_recognizer(recognizer)
    if recognizer == "quantum":
        from ..core.quantum_recognizer import sample_acceptance_batch

        return sample_acceptance_batch
    if recognizer == "classical-blockwise":
        from ..core.classical_recognizer import sample_blockwise_acceptance_batch

        return sample_blockwise_acceptance_batch
    from ..core.classical_recognizer import sample_full_storage_acceptance_batch

    return sample_full_storage_acceptance_batch


@register_backend
class BatchedDenseBackend(ExecutionBackend):
    """Vectorized trials for the stock recognizers.

    *max_batch_bytes* / *chunk_trials* bound the dense working set: the
    samplers split the trial batch into contiguous tiles decided
    sequentially (see :mod:`repro.core.tiling`), with counts
    byte-identical to the untiled run — a fixed memory budget serves
    any depth.
    """

    name = "batched"

    def __init__(
        self,
        max_batch_bytes: Optional[int] = None,
        chunk_trials: Optional[int] = None,
    ) -> None:
        self.max_batch_bytes = max_batch_bytes
        self.chunk_trials = chunk_trials

    def count_accepted(
        self,
        word: str,
        trials: int,
        rng: np.random.Generator,
        factory: Optional[Callable[[np.random.Generator], Any]] = None,
        recognizer: str = "quantum",
    ) -> int:
        if factory is not None:
            raise ValueError(
                "the batched backend vectorizes the stock recognizers "
                "themselves and cannot run a custom factory; use backend="
                "'sequential' for arbitrary algorithms"
            )
        sampler = _batch_sampler(recognizer)
        with observe_backend_call(
            self.name,
            recognizer,
            trials,
            max_batch_bytes=self.max_batch_bytes,
            chunk_trials=self.chunk_trials,
        ):
            return int(
                np.count_nonzero(
                    sampler(
                        word,
                        trials,
                        rng,
                        max_batch_bytes=self.max_batch_bytes,
                        chunk_trials=self.chunk_trials,
                    )
                )
            )

    def count_accepted_from_seeds(
        self,
        word: str,
        seeds: Sequence[int],
        recognizer: str = "quantum",
    ) -> int:
        """Accepted count for explicit per-trial child seeds (sharding).

        An empty seed list — e.g. the continuation of an experiment
        already at its requested depth — is a 0-accepted no-op.
        """
        sampler = _batch_sampler(recognizer)
        with observe_backend_call(
            self.name,
            recognizer,
            len(seeds),
            max_batch_bytes=self.max_batch_bytes,
            chunk_trials=self.chunk_trials,
        ):
            return int(
                np.count_nonzero(
                    sampler(
                        word,
                        len(seeds),
                        None,
                        trial_seeds=seeds,
                        max_batch_bytes=self.max_batch_bytes,
                        chunk_trials=self.chunk_trials,
                    )
                )
            )
