"""The batched execution engine: one API, pluggable trial backends.

The experiments' hot path is always the same shape — estimate the
recognizer's acceptance probability on each word of a list by running
many independent randomized trials.  The engine owns that loop and lets
the *how* vary per backend:

* ``sequential`` — one streaming pass per trial, exactly today's
  per-trial semantics (:mod:`repro.engine.sequential`);
* ``batched`` — all trials of a word advance together as ``(B, 2^n)``
  state batches and one modular-Horner sweep
  (:mod:`repro.engine.batched`);
* ``multiprocess`` — the word list (or, with ``shard_trials=True``,
  one word's trials) fans out over a process pool, each worker running
  one of the in-process backends (:mod:`repro.engine.multiprocess`).

Seeding is part of the API contract: ``run_many`` derives one child
seed per word with :func:`repro.rng.spawn_seeds`, in word order, and
every backend replicates the per-trial draw order of the sequential
path — so for a fixed seed all backends return *identical* acceptance
counts, and the batched/multiprocess backends are pure speedups.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type, Union

import numpy as np

from ..analysis.bounds import binomial_stderr, wilson_interval
from ..obs import get_registry, span
from ..rng import RngLike, ensure_rng, spawn_seeds

#: Recognizer names every backend understands (the *what* to sample;
#: the backend is the *how*).  "quantum" is Theorem 3.4's machine,
#: "classical-blockwise" Proposition 3.7's, "classical-full" the
#: full-storage baseline.
RECOGNIZERS = ("quantum", "classical-blockwise", "classical-full")

#: Recognizers whose machines consult no randomness at all.  No backend
#: spawns per-trial children for these, so a parent generator shared
#: across successive calls is left in the same spawn state whatever the
#: backend — the seeding contract holds call-for-call, not just
#: call-by-call.
DETERMINISTIC_RECOGNIZERS = frozenset({"classical-full"})


def trial_seed_plan(rng: RngLike, trials: int) -> List[int]:
    """The per-trial child seeds an unsharded single-word run would draw.

    For a parent seed *rng*, every backend derives trial *i*'s child
    generator from ``spawn_seeds(parent, trials)[i]`` — this function is
    that list, exposed as a public API.  Two contracts hang off it:

    * **sharding** — any contiguous slice ``plan[lo:hi]`` fed to a
      backend's ``count_accepted_from_seeds`` runs exactly trials
      ``lo..hi`` of the unsharded run (the multiprocess backend's
      ``shard_trials`` path is built on this);
    * **resumption** — because ``SeedSequence`` children depend only on
      the parent entropy and the child index, ``trial_seed_plan(seed,
      more)[done:]`` is the exact continuation of a run that stopped
      after ``done`` trials: counts merged across the boundary are
      identical to one fresh ``more``-trial run.  ``repro.lab`` deepens
      cached experiments through this.

    Deterministic recognizers (:data:`DETERMINISTIC_RECOGNIZERS`) never
    consult their child generators, so for them the plan is a valid —
    if unused — slicing vocabulary: feeding any slice of it still
    produces the right counts.

    Args:
        rng: anything :func:`repro.rng.ensure_rng` accepts — an int
            seed, a ``Generator``, a ``SeedSequence``, or ``None`` for
            the library default.  Generators must be SeedSequence-based
            (``numpy.random.default_rng``) or ``TypeError`` is raised;
            a generator that has already spawned children yields a
            *different* plan than its seed would (the spawn counter has
            advanced), so pass the seed itself when you need the
            resumption contract.
        trials: plan length; ``0`` is legal (an empty plan),
            negative raises ``ValueError``.

    Plans are prefix-stable — a shorter plan from the same seed is a
    prefix of a longer one, which is exactly the resumption contract:

    >>> trial_seed_plan(7, 4) == trial_seed_plan(7, 9)[:4]
    True
    >>> trial_seed_plan(7, 0)
    []
    """
    if trials < 0:
        raise ValueError("trials must be non-negative")
    return spawn_seeds(ensure_rng(rng), trials)


def validate_recognizer(recognizer: str) -> str:
    """Reject unknown recognizer names with a helpful message."""
    if recognizer not in RECOGNIZERS:
        raise ValueError(
            f"unknown recognizer {recognizer!r}; available: {', '.join(RECOGNIZERS)}"
        )
    return recognizer


@dataclass(frozen=True)
class AcceptanceEstimate:
    """Result of sampling one word's acceptance probability.

    ``elapsed_s`` is wall-clock time attributed to this word: the
    measured time for a single :meth:`ExecutionEngine.estimate_acceptance`
    call, or the batch total amortized evenly across words for
    :meth:`ExecutionEngine.run_many` (so summing ``elapsed_s`` over a
    sweep recovers its wall-clock, including under the multiprocess
    backend, where per-word time is not individually observable).
    """

    word_length: int
    trials: int
    accepted: int
    backend: str
    elapsed_s: float = 0.0
    recognizer: str = "quantum"

    @property
    def probability(self) -> float:
        """Empirical acceptance frequency."""
        return self.accepted / self.trials

    @property
    def stderr(self) -> float:
        """Standard error of :attr:`probability` (plug-in binomial)."""
        return binomial_stderr(self.accepted, self.trials)

    @property
    def wilson95(self) -> Tuple[float, float]:
        """Wilson 95% score interval for the acceptance probability.

        Stays informative at the boundary frequencies (0 or all trials
        accepted), where :attr:`stderr` degenerates to zero.
        """
        return wilson_interval(self.accepted, self.trials)

    @property
    def trials_per_second(self) -> float:
        """Throughput; 0.0 when the timing is below clock resolution.

        (Never ``inf``: benchmark records serialize estimates to JSON,
        where ``Infinity`` is not a legal literal.)
        """
        return self.trials / self.elapsed_s if self.elapsed_s > 0 else 0.0


class ExecutionBackend(ABC):
    """One strategy for running the trials of an acceptance experiment.

    Subclasses implement :meth:`count_accepted` (one word, many trials)
    and may override :meth:`count_accepted_many` when they can do better
    than a word loop (the multiprocess backend fans it out).
    """

    #: Registry key; subclasses set it and register via register_backend.
    name: str = "abstract"

    @abstractmethod
    def count_accepted(
        self,
        word: str,
        trials: int,
        rng: np.random.Generator,
        factory: Optional[Callable[[np.random.Generator], Any]] = None,
        recognizer: str = "quantum",
    ) -> int:
        """Number of accepting trials among *trials* runs on *word*.

        *recognizer* picks the machine to sample (see
        :data:`RECOGNIZERS`); *factory* (child generator -> algorithm)
        overrides it with an arbitrary algorithm — backends that
        vectorize the recognizers themselves reject custom factories.
        """

    def count_accepted_many(
        self,
        words: Sequence[str],
        trials: int,
        rng: np.random.Generator,
        factory: Optional[Callable[[np.random.Generator], Any]] = None,
        recognizer: str = "quantum",
    ) -> List[int]:
        """Accepted counts per word; one spawned child seed per word."""
        seeds = spawn_seeds(rng, len(words))
        return [
            self.count_accepted(
                word, trials, np.random.default_rng(seed), factory, recognizer
            )
            for word, seed in zip(words, seeds)
        ]


_BACKENDS: Dict[str, Type[ExecutionBackend]] = {}


def register_backend(cls: Type[ExecutionBackend]) -> Type[ExecutionBackend]:
    """Class decorator adding a backend to the ``get_backend`` registry."""
    if cls.name in _BACKENDS:
        raise ValueError(f"backend {cls.name!r} registered twice")
    _BACKENDS[cls.name] = cls
    return cls


def available_backends() -> List[str]:
    """Registered backend names, stable order."""
    return sorted(_BACKENDS)


BackendSpec = Union[str, ExecutionBackend]


def get_backend(spec: BackendSpec = "batched", **options: Any) -> ExecutionBackend:
    """Resolve a backend name (or pass an instance through)."""
    if isinstance(spec, ExecutionBackend):
        if options:
            raise ValueError("options only apply when resolving by name")
        return spec
    try:
        cls = _BACKENDS[spec]
    except KeyError:
        raise ValueError(
            f"unknown backend {spec!r}; registered backends: "
            f"{', '.join(available_backends())}"
        ) from None
    return cls(**options)


class ExecutionEngine:
    """Front door: estimate acceptance probabilities through a backend.

    Args:
        backend: a registry name (``"sequential"``, ``"batched"``,
            ``"multiprocess"``) or a configured
            :class:`ExecutionBackend` instance.  ``**options`` go to
            the named backend's constructor (e.g.
            ``max_batch_bytes=``, ``shard_trials=``) and are rejected
            alongside an instance.

    Seeding semantics: the ``rng`` passed to each call is the *parent*
    of the per-trial (and, for :meth:`run_many`, per-word) child
    streams, derived via ``SeedSequence`` spawning — so a fixed seed
    gives identical acceptance counts on every backend, and switching
    backend is purely a throughput decision.

    Failure modes: unknown backend or recognizer names raise
    ``ValueError`` at construction / call time; the process-pool
    backend degrades *inline* (same counts, no parallelism) when pools
    are unavailable rather than raising.

    >>> from repro.core import member
    >>> import numpy as np
    >>> word = member(1, np.random.default_rng(0))
    >>> est = ExecutionEngine("batched").estimate_acceptance(word, trials=200, rng=7)
    >>> est.accepted, est.probability   # members are accepted w.p. 1
    (200, 1.0)
    >>> seq = ExecutionEngine("sequential").estimate_acceptance(word, trials=200, rng=7)
    >>> est.accepted == seq.accepted    # the seeding contract
    True
    """

    def __init__(self, backend: BackendSpec = "batched", **options: Any) -> None:
        self.backend = get_backend(backend, **options)

    @property
    def backend_name(self) -> str:
        return self.backend.name

    def _observe_run(self, recognizer: str, total_trials: int, elapsed: float) -> None:
        """Fold one engine run into the registry (cost calibration data).

        ``engine.run.seconds`` is the per-call latency distribution;
        ``engine.trial.seconds`` the per-trial amortized cost — the
        measured cost-per-trial the bench harness exports per
        ``(recognizer, backend)`` for the ROADMAP's sweep planner.
        """
        registry = get_registry()
        registry.counter(
            "engine.run.calls", backend=self.backend.name, recognizer=recognizer
        ).inc()
        registry.histogram(
            "engine.run.seconds", backend=self.backend.name, recognizer=recognizer
        ).observe(elapsed)
        if total_trials > 0:
            registry.counter(
                "engine.run.trials", backend=self.backend.name, recognizer=recognizer
            ).inc(total_trials)
            registry.histogram(
                "engine.trial.seconds",
                backend=self.backend.name,
                recognizer=recognizer,
            ).observe(elapsed / total_trials)

    def estimate_acceptance(
        self,
        word: str,
        trials: int,
        rng=None,
        factory: Optional[Callable[[np.random.Generator], Any]] = None,
        recognizer: str = "quantum",
    ) -> AcceptanceEstimate:
        """Sample *trials* independent runs on one word."""
        if trials <= 0:
            raise ValueError("trials must be positive")
        validate_recognizer(recognizer)
        gen = ensure_rng(rng)
        label = "custom" if factory is not None else recognizer
        start = time.perf_counter()
        with span(
            "engine.run",
            backend=self.backend.name,
            recognizer=label,
            trials=trials,
            words=1,
        ):
            accepted = self.backend.count_accepted(
                word, trials, gen, factory, recognizer
            )
        elapsed = time.perf_counter() - start
        self._observe_run(label, trials, elapsed)
        return AcceptanceEstimate(
            word_length=len(word),
            trials=trials,
            accepted=accepted,
            backend=self.backend.name,
            elapsed_s=elapsed,
            # A custom factory replaces the stock machine, so the
            # estimate must not claim a named recognizer ran.
            recognizer=label,
        )

    def run_many(
        self,
        words: Sequence[str],
        trials: int,
        rng=None,
        factory: Optional[Callable[[np.random.Generator], Any]] = None,
        recognizer: str = "quantum",
    ) -> List[AcceptanceEstimate]:
        """Sample every word of a list; per-word seeds spawn in order."""
        if trials <= 0:
            raise ValueError("trials must be positive")
        validate_recognizer(recognizer)
        gen = ensure_rng(rng)
        label = "custom" if factory is not None else recognizer
        start = time.perf_counter()
        with span(
            "engine.run",
            backend=self.backend.name,
            recognizer=label,
            trials=trials,
            words=len(words),
        ):
            counts = self.backend.count_accepted_many(
                words, trials, gen, factory, recognizer
            )
        elapsed = time.perf_counter() - start
        self._observe_run(label, trials * len(words), elapsed)
        per_word = elapsed / len(words) if words else 0.0
        return [
            AcceptanceEstimate(
                word_length=len(word),
                trials=trials,
                accepted=count,
                backend=self.backend.name,
                elapsed_s=per_word,
                recognizer=label,
            )
            for word, count in zip(words, counts)
        ]
