"""Batched execution engine for acceptance-probability experiments.

See :mod:`repro.engine.api` for the contract.  Importing this package
registers the three stock backends:

* ``sequential`` — per-trial streaming passes (reference semantics);
* ``batched``    — ``(B, 2^n)`` state batches + one Horner sweep,
  optionally tiled under a ``max_batch_bytes`` memory budget;
* ``multiprocess`` — word-level fan-out over a process pool, or
  trial-level fan-out of one word with ``shard_trials=True``.

Orthogonal to the backend axis, every backend samples any of the stock
recognizers (``recognizer="quantum" | "classical-blockwise" |
"classical-full"`` — see :data:`repro.engine.api.RECOGNIZERS`): the
backend is the *how*, the recognizer the *what*.

The seeding contract makes backends interchangeable: same seed, same
acceptance counts — switching backend is purely a throughput decision.
"""

from .api import (
    AcceptanceEstimate,
    ExecutionBackend,
    ExecutionEngine,
    RECOGNIZERS,
    available_backends,
    get_backend,
    register_backend,
    trial_seed_plan,
    validate_recognizer,
)
from .sequential import SequentialBackend
from .batched import BatchedDenseBackend
from .multiprocess import MultiprocessBackend

__all__ = [
    "AcceptanceEstimate",
    "ExecutionBackend",
    "ExecutionEngine",
    "RECOGNIZERS",
    "available_backends",
    "get_backend",
    "register_backend",
    "trial_seed_plan",
    "validate_recognizer",
    "SequentialBackend",
    "BatchedDenseBackend",
    "MultiprocessBackend",
]
