"""Engine-layer instrumentation: one helper, every backend.

:func:`observe_backend_call` is the single pattern all three backends
wrap their counting entry points in — a static-named span (so traces
show which backend decided which trials), per-``(backend, recognizer)``
call/trial counters, and a latency histogram observed only on success
(a raised call records the attempt, not a bogus duration).  Keeping it
in one place keeps the metric catalog coherent: every backend emits
the *same* names with the *same* labels, so dashboards and the bench
harness can sweep ``backend=`` values without special cases.

:func:`count_degradation` records the silent-slow-path events — the
pool backend falling back inline — as monotonic
counters a fleet operator can alert on (surfaced by the service's
``stats``/``metrics`` ops).  The degradation paths themselves are
count-preserving by construction; the counter only makes them visible.

Telemetry never changes counts: nothing here consults randomness, and
the hypothesis tests in ``tests/obs`` pin instrumented runs
byte-identical to uninstrumented ones on every backend.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

from ..obs import clock, get_registry, span


@contextmanager
def observe_backend_call(
    backend: str, recognizer: str, trials: int, **attrs: Any
) -> Iterator[None]:
    """Wrap one backend counting call in spans + counters + latency.

    *trials* is the number of engine trials the call will decide
    (``len(seeds)`` on the explicit-seeds path); extra ``**attrs`` ride
    on the span in full-trace mode (shard counts, byte budgets).
    """
    registry = get_registry()
    registry.counter(
        "engine.backend.calls", backend=backend, recognizer=recognizer
    ).inc()
    if trials > 0:
        registry.counter(
            "engine.backend.trials", backend=backend, recognizer=recognizer
        ).inc(trials)
    start = clock.perf_counter()
    with span(
        "engine.backend.count",
        backend=backend,
        recognizer=recognizer,
        trials=trials,
        **attrs,
    ):
        yield
    registry.histogram(
        "engine.backend.seconds", backend=backend, recognizer=recognizer
    ).observe(clock.perf_counter() - start)


def count_degradation(backend: str, to: str) -> None:
    """Record one degradation event: *backend* ran on its *to* fallback."""
    get_registry().counter("engine.degradations", backend=backend, to=to).inc()


def count_shards(backend: str, shards: int) -> None:
    """Record a fan-out's shard count (sum over calls; calls are counted
    separately, so the mean fan-out is recoverable)."""
    if shards > 0:
        get_registry().counter("engine.backend.shards", backend=backend).inc(shards)
