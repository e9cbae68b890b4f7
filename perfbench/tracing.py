"""Spans recorded from outside the program, and their fold into self time.

:func:`install` replaces the public entry points of each layer with
timing wrappers, at the binding each caller actually uses: the
orchestrator calls ``trial_seed_plan`` through its own module global,
the samplers call ``a2_passes_at_points`` and ``batched_a3_detection``
through theirs, and methods are looked up on their classes.  Every call
becomes one span ``(id, parent, request, name, start, end, units)``;
a span opened with no parent on its thread starts a new request, and
its descendants share that request's id.  Spans stay in memory until
:func:`fold` reduces them to per-name totals and per-layer self time.
"""

from __future__ import annotations

import functools
import itertools
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Span-name prefix -> the module layer it times.
LAYER_OF = {
    "client": "service.client",
    "orchestrator": "lab.orchestrator",
    "store": "lab.store",
    "spec": "lab.spec",
    "engine": "engine",
    "rng": "rng",
    "core": "core",
}

Span = Tuple[int, Optional[int], int, str, float, float, Any]


class Recorder:
    """Collects spans from any number of threads."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)

    def timed(self, name: str, fn: Callable, units: Optional[Callable] = None) -> Callable:
        """*fn* wrapped to record one span per call.

        *units* maps ``(args, result)`` to the span's work: a count, a
        ``(count, bytes)`` pair, or a label under which the span's calls
        and time are also totalled.  It runs only when *fn* returns.
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(recorder._local, "stack", None)
            if stack is None:
                stack = recorder._local.stack = []
            parent = stack[-1] if stack else None
            span_id = next(recorder._ids)
            request = parent[1] if parent else next(recorder._requests)
            stack.append((span_id, request))
            work = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if units is not None:
                    work = units(args, result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                recorder.spans.append(
                    (span_id, parent[0] if parent else None, request, name, start, end, work)
                )

        return wrapper


def _seed_count(args: Tuple, result: Any) -> int:
    return len(result)


def _trial_count(args: Tuple, result: Any) -> int:
    return len(args[2])  # (self, word, seeds, ...)


def _point_count(args: Tuple, result: Any) -> int:
    return len(result)


def _a3_batch(args: Tuple, result: Any) -> Tuple[int, int]:
    k, rows = args[0], len(result)
    return rows, rows * 16 << (2 * k + 2)  # complex128 (J, 2^{2k+2}) state batch


def _source(args: Tuple, result: Any) -> str:
    return result.source


def _targets() -> List[Tuple[Any, str, str, Optional[Callable]]]:
    """``(owner, attribute, span name, units)`` for every wrapped entry point."""
    from repro.core import classical_recognizer, quantum_recognizer
    from repro.engine.batched import BatchedDenseBackend
    from repro.lab import orchestrator
    from repro.lab.spec import ExperimentSpec
    from repro.lab.store import ResultStore
    from repro.service.client import ServiceClient

    return [
        (ServiceClient, "query", "client.query", None),
        (orchestrator.Orchestrator, "run", "orchestrator.run", _source),
        (orchestrator.Orchestrator, "run_to_precision", "orchestrator.precision", None),
        (ResultStore, "deepest", "store.deepest", None),
        (ResultStore, "checkpoints", "store.checkpoints", None),
        (ResultStore, "append", "store.append", None),
        (ExperimentSpec, "key", "spec.key", None),
        (ExperimentSpec, "resolve_word", "spec.resolve_word", None),
        (orchestrator, "trial_seed_plan", "rng.seed_plan", _seed_count),
        (BatchedDenseBackend, "count_accepted_from_seeds", "engine.count", _trial_count),
        (quantum_recognizer, "sample_acceptance_batch", "core.sampler", None),
        (classical_recognizer, "sample_blockwise_acceptance_batch", "core.sampler", None),
        (classical_recognizer, "sample_full_storage_acceptance_batch", "core.sampler", None),
        (quantum_recognizer, "a2_passes_at_points", "core.a2_sweep", _point_count),
        (classical_recognizer, "a2_passes_at_points", "core.a2_sweep", _point_count),
        (quantum_recognizer, "batched_a3_detection", "core.a3_evolve", _a3_batch),
    ]


@contextmanager
def install(recorder: Recorder) -> Iterator[Recorder]:
    """Wrap every target for the duration of the block, then restore it."""
    saved = []
    try:
        for owner, attr, name, units in _targets():
            original = vars(owner)[attr]
            if isinstance(original, property):
                wrapped: Any = property(recorder.timed(name, original.fget, units))
            else:
                wrapped = recorder.timed(name, original, units)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def empty_entry() -> Dict[str, Any]:
    """A fold entry for a name that recorded no span."""
    return {"calls": 0, "total_s": 0.0, "self_s": 0.0, "units": 0,
            "bytes": 0, "max_bytes": 0, "labels": {}}


def fold(spans: List[Span]) -> Dict[str, Any]:
    """Per-name totals and per-layer self time of a span list (JSON-ready).

    A span's self time is its duration minus its children's; children
    run on the parent's thread inside its interval, so they never
    overlap.  ``root_s`` sums the spans that have no parent.
    """
    child_s: Dict[int, float] = defaultdict(float)
    for span_id, parent, _request, _name, start, end, _work in spans:
        if parent is not None:
            child_s[parent] += end - start
    names: Dict[str, Dict[str, Any]] = {}
    layers: Dict[str, float] = defaultdict(float)
    root_s = 0.0
    for span_id, parent, _request, name, start, end, work in spans:
        entry = names.setdefault(name, empty_entry())
        own = (end - start) - child_s[span_id]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += own
        if isinstance(work, str):
            count, total = entry["labels"].get(work, (0, 0.0))
            entry["labels"][work] = (count + 1, total + end - start)
        elif isinstance(work, tuple):
            entry["units"] += work[0]
            entry["bytes"] += work[1]
            entry["max_bytes"] = max(entry["max_bytes"], work[1])
        elif work is not None:
            entry["units"] += work
        layers[LAYER_OF[name.split(".", 1)[0]]] += own
        if parent is None:
            root_s += end - start
    return {"names": names, "layers": dict(layers), "root_s": root_s,
            "requests": len({span[2] for span in spans})}


def merge(*folds: Dict[str, Any]) -> Dict[str, Any]:
    """Sum folds taken in different processes."""
    names: Dict[str, Dict[str, Any]] = {}
    layers: Counter = Counter()
    for part in folds:
        for name, entry in part["names"].items():
            into = names.setdefault(name, empty_entry())
            for field in ("calls", "total_s", "self_s", "units", "bytes"):
                into[field] += entry[field]
            into["max_bytes"] = max(into["max_bytes"], entry["max_bytes"])
            for label, (count, total) in entry["labels"].items():
                held = into["labels"].get(label, (0, 0.0))
                into["labels"][label] = (held[0] + count, held[1] + total)
        layers.update(part["layers"])
    return {"names": names, "layers": dict(layers)}
