"""The three workloads: ``sweep``, ``kernel`` and ``serve``.

Each workload makes its inputs from the workload seed, runs closed-loop
operations against a fresh store, and keeps what it saw in a
:class:`Phase`.  Three kinds of operation are timed as their caller
sees them:

* **hit** - a run answered from a checkpoint at exactly the requested
  depth;
* **deepen** - a run that extends a stored checkpoint;
* **fresh** - a run on a key with nothing stored.

``sweep`` and ``kernel`` are the researcher at a terminal: everything
runs in this process through :class:`repro.lab.Orchestrator`, and each
finished cell is read back from the store.  ``serve`` is the service:
two closed-loop clients send everything over the wire to a service
process.

Tail percentiles are sized by one rule: a run holds at least 10 samples
beyond each one it reports, so at least 1000 hits (p99) and 200 deepens
(p95).  ``sweep`` falls short on deepens: they are its precision rounds,
about 21 a pass, so 5 passes give about 105.

``--seconds`` scales the amount of work, not a deadline: ``sweep`` runs
a pass per 3 s of it, ``kernel`` one per 15 s and ``serve`` 300
operations per client per second.  Both sides of a comparison then do
the same work for a seed, whatever their speed.  Rates and percentiles are
pooled over the whole run.  Correctness is checked after the timed
region.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.classical_recognizer import full_storage_accepts
from repro.engine import ExecutionEngine
from repro.lab import ExperimentSpec, LabRunResult, Orchestrator, ResultStore, shard_prefix
from repro.lab.store import LabRecord
from repro.rng import ensure_rng, spawn
from repro.service import ProtocolError, ServiceClient, ServiceError

from .checks import count_digest, oracle_failures
from .server import CLIENT_TIMEOUT_S, ROOT, WARM_SEED, ServerProcess, child_env, warm_spec

#: Scratch directory of every run, inside the checkout.
WORK = ROOT / ".perfbench-work"

#: Upper bound of the integer trial seeds drawn.
SEED_SPACE = 2**31

#: Errors that make one operation fail without stopping the run.
OP_ERRORS = (OSError, ProtocolError, ServiceError)

#: Latency charged to a failed operation, in milliseconds.
FAILED_MS = CLIENT_TIMEOUT_S * 1000.0

#: Read-backs per ``sweep`` or ``kernel`` run.  1000 would put 10 samples
#: beyond the nearest-rank p99, but with 1000 ``sweep``'s ``hit_p99_ms``
#: spread by 0.20 of its median over 5 seeds; in-process reads cost
#: 0.1-1.2 ms, so 5000 cost little.
HIT_SAMPLES = 5000

#: Deepens per run: 10 samples lie beyond the nearest-rank p95.
DEEPEN_SAMPLES = 200


@dataclass
class Phase:
    """What one timed run of a workload saw; latencies in milliseconds."""

    wall_s: float = 0.0
    engine_s: float = 0.0  # time in operations that execute engine trials
    trials: int = 0  # engine trials executed
    ops: int = 0  # operations completed
    attempted: int = 0
    failed: int = 0
    hit_ms: List[float] = field(default_factory=list)
    deepen_ms: List[float] = field(default_factory=list)
    rounds: List[Tuple[str, int, int]] = field(default_factory=list)  # (family, trials, accepted)
    done: List[Tuple[ExperimentSpec, LabRunResult]] = field(default_factory=list)  # finished cells
    first_pass: int = 0  # cells finished in the first pass
    deepens: int = 0  # deepen queries answered
    deepened: Dict[int, Tuple[int, int]] = field(default_factory=dict)  # serve key -> (trials, accepted)
    failures: List[str] = field(default_factory=list)

    def book(self, samples: List[float], ms: float, ok: bool = True) -> None:
        """Count one operation and keep its latency."""
        samples.append(ms)
        self.attempted += 1
        self.ops += ok
        self.failed += not ok

    def note_run(self, spec: ExperimentSpec, result: LabRunResult, seconds: float) -> None:
        """Book one orchestrator run made in this process."""
        if result.source == "cache":
            self.book(self.hit_ms, seconds * 1000.0)
            return
        self.trials += result.trials_executed
        self.engine_s += seconds
        self.rounds.append((spec.family, result.estimate.trials, result.estimate.accepted))
        self.book(self.deepen_ms if result.source == "deepened" else [], seconds * 1000.0)

    def note_failure(self, samples: List[float], what: str, exc: Exception) -> None:
        """Book a failed operation: it is charged the client timeout."""
        self.book(samples, FAILED_MS, ok=False)
        self.failures.append(f"{what} failed: {type(exc).__name__}: {exc}")

    def hit(self, client: ServiceClient, spec: ExperimentSpec, expected: int) -> None:
        """One exact-depth query over the wire that must be served from cache."""
        start = perf_counter()
        try:
            result = client.query(spec)
        except OP_ERRORS as exc:
            self.note_failure(self.hit_ms, f"hit {spec.describe()}", exc)
            return
        self.book(self.hit_ms, (perf_counter() - start) * 1000.0)
        if (result.source, result.trials, result.accepted) != ("cache", spec.trials, expected):
            self.failures.append(
                f"hit {spec.describe()} at {spec.trials}: got {result.source} "
                f"{result.accepted}/{result.trials}, expected cache {expected}/{spec.trials}"
            )

    def absorb(self, other: "Phase") -> None:
        """Add another client's operations to this phase."""
        for name in ("trials", "ops", "attempted", "failed", "deepens"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.hit_ms += other.hit_ms
        self.deepen_ms += other.deepen_ms
        self.deepened.update(other.deepened)
        self.failures += other.failures


class _TimedOrchestrator(Orchestrator):
    """An orchestrator that books every run, precision rounds included."""

    def __init__(self, store: Path, phase: Phase) -> None:
        super().__init__(store)
        self._phase = phase

    def run(self, spec: ExperimentSpec) -> LabRunResult:
        start = perf_counter()
        result = super().run(spec)
        self._phase.note_run(spec, result, perf_counter() - start)
        return result


# ---------------------------------------------------------------------------
# sweep and kernel: the researcher's runs and read-backs, in process
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    """One experiment of a pass: a word, a recognizer and its depth ladder.

    A ladder of one depth is a fresh run to that depth (or, with a
    precision target, the starting depth); each further depth deepens.
    """

    family: str
    k: int
    t: int
    recognizer: str
    ladder: Tuple[int, ...]
    word_seed: int = 0


@dataclass(frozen=True)
class LocalSize:
    cells: Tuple[Cell, ...]
    target_halfwidth: Optional[float]  # None: run each ladder; else run_to_precision
    hit_samples: int  # read-backs per run, at least this many
    pass_s: float  # --seconds / pass_s passes run, at least 1


def sweep_cells(ks: Sequence[int], replicas: int, start: int) -> Tuple[Cell, ...]:
    """k x {member, intersecting t=1, t=2, malformed x_drift} x recognizers x replicas."""
    return tuple(
        Cell(family, k, t, recognizer, (start,), replica)
        for k in ks
        for family, t in (("member", 2), ("intersecting", 1), ("intersecting", 2), ("x_drift", 2))
        for recognizer in ("quantum", "classical-blockwise")
        for replica in range(replicas)
    )


def ladder(start: int, top: int, deepens: int) -> Tuple[int, ...]:
    """A fresh run at *start*, then *deepens* near-equal steps up to *top*."""
    return tuple(start + round((top - start) * i / deepens) for i in range(deepens + 1))


def kernel_cells(big: int, small: int, trials: int, top: int, deepens: int) -> Tuple[Cell, ...]:
    """Quantum words at the largest k at *trials*, then three ladders to *top*.

    The ladders, quantum at k - 1 and classical-blockwise at k, share
    *deepens* deepens between them.
    """
    rungs = ladder(trials, top, -(-deepens // 3))
    return (
        Cell("member", big, 2, "quantum", (trials,)),
        Cell("intersecting", big, 1, "quantum", (trials,)),
        Cell("member", small, 2, "quantum", rungs),
        Cell("intersecting", small, 2, "quantum", rungs),
        Cell("member", big, 2, "classical-blockwise", rungs),
    )


SIZES: Dict[str, Dict[str, LocalSize]] = {
    "full": {
        "sweep": LocalSize(sweep_cells((2, 3), 3, 1000), 0.01, HIT_SAMPLES, 3.0),
        "kernel": LocalSize(kernel_cells(6, 5, 1000, 4000, DEEPEN_SAMPLES), None,
                            HIT_SAMPLES, 15.0),
    },
    "tiny": {
        "sweep": LocalSize(sweep_cells((1,), 1, 100), 0.05, 16, 0.1),
        "kernel": LocalSize(kernel_cells(3, 2, 100, 200, 6), None, 10, 0.1),
    },
}


class LocalWorkload:
    """``sweep`` and ``kernel``: runs and read-backs in this process.

    Words do not depend on the workload seed (a cell's word seed is its
    replica index), so every run computes the same table, as a researcher
    rerunning it would.  The workload seed sets the trial seeds; each
    pass draws new ones, so every pass runs fresh keys and does the same
    work.  Seeded words changed which cells need precision rounds, and
    with it the deepen tail, from seed to seed.
    After each run of a cell (each ladder step; with a precision target,
    the whole precision loop) the researcher refreshes the table: the
    pass's cells finished so far at their final depth and the current
    cell at its new depth are read back, and the refresh is repeated as
    often as it takes to reach ``hit_samples`` reads in the run (once on
    ``sweep``, 7 times on ``kernel``).  So reads are spread over the
    whole run: taken in a few short bursts, the p99 of these 0.1 ms
    reads moved by a third between identical runs with the host's noise
    of the moment.  The reads stay in this process, as ``repro lab`` reads do:
    sent to a service process, sub-millisecond reads took 0.33 ms in one
    run and 0.44 ms in the next on 2 vCPUs, by where the scheduler put
    the two processes' threads; ``serve`` measures that path.
    """

    remote = False  # runs without a service process

    def __init__(self, seed: int, size: LocalSize) -> None:
        self.size = size
        self._seeds = ensure_rng(seed)

    def prepare(self, store: Path) -> None:
        store.mkdir(parents=True)

    def _steps(self, cell: Cell) -> int:
        """Results :meth:`_run_cell` yields for *cell*."""
        return 1 if self.size.target_halfwidth is not None else len(cell.ladder)

    def _run_cell(self, orchestrator: Orchestrator, cell: Cell, spec: ExperimentSpec,
                  phase: Phase) -> Iterator[LabRunResult]:
        """Run *cell*, yielding each ladder step's result (with a precision
        target, only the final one)."""
        try:
            if self.size.target_halfwidth is not None:
                yield orchestrator.run_to_precision(spec, self.size.target_halfwidth).final
                return
            for depth in cell.ladder:
                yield orchestrator.run(spec.with_trials(depth))
        except (RuntimeError, ValueError, OSError) as exc:
            phase.note_failure(phase.deepen_ms, spec.describe(), exc)

    def _read_back(self, orchestrator: Orchestrator, spec: ExperimentSpec,
                   final: LabRunResult, phase: Phase) -> None:
        """Read a finished cell back; it must come from the store unchanged."""
        depth, expected = final.estimate.trials, final.estimate.accepted
        try:
            result = orchestrator.run(spec.with_trials(depth))
        except (RuntimeError, ValueError, OSError) as exc:
            phase.note_failure(phase.hit_ms, f"read {spec.describe()}", exc)
            return
        if (result.source, result.estimate.accepted) != ("cache", expected):
            phase.failures.append(
                f"read {spec.describe()} at {depth}: got {result.source} "
                f"{result.estimate.accepted}/{result.estimate.trials}, "
                f"expected cache {expected}/{depth}"
            )

    def drive(self, server: Optional[ServerProcess], store: Path, seconds: float) -> Phase:
        phase = Phase()
        orchestrator = _TimedOrchestrator(store, phase)
        passes = max(1, round(seconds / self.size.pass_s))
        table_reads = sum(self._steps(cell) * (i + 1) for i, cell in enumerate(self.size.cells))
        refreshes = -(-self.size.hit_samples // (passes * table_reads))
        start = perf_counter()
        for _ in range(passes):
            (gen,) = spawn(self._seeds, 1)
            done = []
            for cell in self.size.cells:
                spec = ExperimentSpec(
                    family=cell.family, k=cell.k, t=cell.t, word_seed=cell.word_seed,
                    recognizer=cell.recognizer, trials=cell.ladder[0],
                    seed=int(gen.integers(0, SEED_SPACE)),
                )
                final = None
                for final in self._run_cell(orchestrator, cell, spec, phase):
                    for _ in range(refreshes):
                        for read, result in done + [(spec, final)]:
                            self._read_back(orchestrator, read, result, phase)
                if final is not None:
                    done.append((spec, final))
            phase.done += done
            phase.first_pass = phase.first_pass or len(done)
        phase.wall_s = perf_counter() - start
        return phase

    def check(self, phase: Phase, stats: Dict[str, int]) -> List[str]:
        failures = list(phase.failures)
        for family, trials, accepted in phase.rounds:
            if family == "member" and accepted != trials:
                failures.append(f"a member was rejected: {accepted}/{trials} accepted")
        finals, words = [], {}
        for spec, final in phase.done:
            label = f"{spec.describe()}@{final.estimate.trials}"
            finals.append((label, spec.recognizer, final.estimate.trials, final.estimate.accepted))
            words[label] = spec.resolve_word()
        failures += oracle_failures(finals, words)
        return failures

    def digest(self, phase: Phase) -> str:
        return count_digest((final.key, final.estimate.trials, final.estimate.accepted)
                            for _, final in phase.done[:phase.first_pass])


# ---------------------------------------------------------------------------
# serve: two closed-loop clients over the wire against a preloaded store
# ---------------------------------------------------------------------------

#: Seed of the fixture keys' popularity ranking (see :class:`ServeWorkload`).
RANKING_SEED = 20060606

#: Word families of the fixture's cache-hit keys (family, t).
HIT_FAMILIES = (("member", 2), ("intersecting", 1), ("intersecting", 2),
                ("x_drift", 2), ("y_drift", 2))


@dataclass(frozen=True)
class ServeSize:
    keys: int  # cache-hit keys in the fixture
    words: int  # distinct words among them
    depth: int  # the one checkpoint of every hit key
    deepen_keys: int
    deepen_base: int  # fixture depth of the deepen keys
    deepen_step: int
    deepen_every: int  # one operation in each block of this many deepens
    clients: int
    zipf_s: float  # hit popularity ~ 1 / rank^zipf_s (an assumption, see README)
    ops_per_s: float  # nominal operations per client-second


SERVE_SIZES = {
    "full": ServeSize(20000, 200, 1000, 20, 1000, 200, 20, 2, 1.0, 300.0),
    "tiny": ServeSize(40, 10, 100, 4, 100, 50, 5, 2, 1.0, 100.0),
}


def hit_key(i: int, size: ServeSize) -> Tuple[Dict[str, object], int]:
    """Fixture hit key *i*: its spec fields and its word index.

    The keys are classical-full experiments at k=2, whose counts are
    exact without sampling: every trial accepts or none does.
    """
    word = i % size.words
    family, t = HIT_FAMILIES[word % len(HIT_FAMILIES)]
    fields = dict(family=family, k=2, t=t, word_seed=word // len(HIT_FAMILIES),
                  recognizer="classical-full", seed=i // size.words)
    return fields, word


def deepen_fields(j: int) -> Dict[str, object]:
    """Spec fields of deepen key *j*: a quantum k=2 member or intersecting word."""
    family = "member" if j % 2 == 0 else "intersecting"
    return dict(family=family, k=2, t=1, word_seed=1000 + j, recognizer="quantum",
                seed=1000 + j)


def word_accepts(size: ServeSize) -> List[bool]:
    """Whether the full-storage recognizer accepts each fixture word."""
    accepts = [False] * size.words
    for i in range(size.words):
        fields, word = hit_key(i, size)
        accepts[word] = full_storage_accepts(ExperimentSpec(**fields).resolve_word())
    return accepts


def fixture_path(size_name: str) -> Path:
    """Where the serve fixture of this size, program and generator is kept.

    The name hashes the program's sources and this module, so a changed
    program or fixture generator gets a fixture of its own.
    """
    digest = hashlib.sha256(size_name.encode("ascii"))
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")) + [Path(__file__)]:
        digest.update(path.read_bytes())
    return WORK / f"fixture-{size_name}-{digest.hexdigest()[:16]}"


def manifest(root: Path) -> Dict[str, List[int]]:
    """Size and modification time of every file under *root*."""
    files = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            stat = path.stat()
            files[str(path.relative_to(root))] = [stat.st_size, stat.st_mtime_ns]
    return files


def build_fixture(root: Path, size: ServeSize) -> None:
    """Write the serve fixture store: every hit key plus the deepen keys.

    Hit counts come from :func:`full_storage_accepts`; deepen keys hold a
    batched engine run at ``deepen_base``.  Records go in with
    ``ResultStore.append_many`` and the store is then compacted, so keyed
    reads start from the per-shard indexes.
    """
    accepts = word_accepts(size)
    words: Dict[int, str] = {}
    records = []
    for i in range(size.keys):
        fields, word = hit_key(i, size)
        if word not in words:
            words[word] = ExperimentSpec(**fields).resolve_word()
        key = ExperimentSpec(word=words[word], recognizer=fields["recognizer"],
                             seed=fields["seed"]).key
        records.append(LabRecord(
            key=key, spec=ExperimentSpec(**fields, trials=size.depth).to_dict(),
            trials=size.depth, accepted=size.depth if accepts[word] else 0, backend="batched",
        ))
    engine = ExecutionEngine("batched")
    for j in range(size.deepen_keys):
        spec = ExperimentSpec(**deepen_fields(j), trials=size.deepen_base)
        accepted = engine.estimate_acceptance(
            spec.resolve_word(), size.deepen_base, rng=spec.seed
        ).accepted
        records.append(LabRecord(key=spec.key, spec=spec.to_dict(), trials=size.deepen_base,
                                 accepted=accepted, backend="batched"))
    store = ResultStore(root)
    store.append_many(records)
    store.compact()


class ServeWorkload:
    """``serve``: hits and deepens from closed-loop clients, all over the wire.

    The workload seed sets the op mix: where in each block of
    ``deepen_every`` operations the deepen falls, the order in which a
    client deepens its own keys, and which key each hit draws.  The
    fixture and its popularity ranking do not depend on the seed: a
    seeded ranking decided whether the hottest keys shared a shard with
    a deepen key, whose appends every hit there must scan, and so moved
    hit latency by more than the benchmark's bounds from seed to seed.
    """

    remote = True  # runs against a service process

    def __init__(self, seed: int, size: ServeSize, size_name: str) -> None:
        self.seed = seed
        self.size = size
        self.size_name = size_name
        self.accepts = word_accepts(size)

    def fixture(self) -> Path:
        """The built fixture, exactly as it was built; built when missing.

        The build runs in a child process, so neither its time nor its
        memory reaches a metric of this process.  A built fixture is kept
        between runs next to a manifest of its files, because compaction
        is fsync-bound; one whose files no longer match the manifest is
        rebuilt.
        """
        fixture = fixture_path(self.size_name)
        listed = fixture.with_name(fixture.name + ".manifest.json")
        if fixture.exists() and listed.exists():
            if json.loads(listed.read_text()) == manifest(fixture):
                return fixture
        shutil.rmtree(fixture, ignore_errors=True)
        tmp = fixture.with_name(f"{fixture.name}.tmp{os.getpid()}")
        subprocess.run(
            [sys.executable, "-m", "perfbench.workloads", str(tmp), self.size_name],
            cwd=ROOT, env=child_env(), check=True,
        )
        listed.write_text(json.dumps(manifest(tmp)))
        os.rename(tmp, fixture)
        return fixture

    def prepare(self, store: Path) -> None:
        """Lay the fixture out in *store*.

        Only the shards of the deepen keys and of the warm-up query are
        written during a run, so only they are copied; every other file
        is a hard link into the fixture.  Deleting a run's store then frees just the copies:
        on a disk mounted with ``discard``, deleting a file with data
        costs about 10 ms, so deleting a full copy took 8 s.  Should the
        program write to a linked file, the manifest check of the next
        run finds the fixture changed and rebuilds it.
        """
        keys = [ExperimentSpec(**deepen_fields(j)).key for j in range(self.size.deepen_keys)]
        written = {shard_prefix(key) for key in keys + [warm_spec(WARM_SEED).key]}

        def place(src: str, dst: str) -> None:
            if Path(src).parent.name in written:
                shutil.copy2(src, dst)
            else:
                os.link(src, dst)

        shutil.copytree(self.fixture(), store, copy_function=place)

    def _client(self, server: ServerProcess, index: int, ops: int, gen: np.random.Generator,
                perm: np.ndarray, cdf: np.ndarray) -> Phase:
        size = self.size
        phase = Phase()
        mine = [int(j) for j in gen.permutation(list(range(index, size.deepen_keys, size.clients)))]
        depth = {j: size.deepen_base for j in mine}
        with server.client() as client:
            for op in range(ops):
                block, slot = divmod(op, size.deepen_every)
                if slot == 0:
                    deepen_slot = int(gen.integers(size.deepen_every))
                if slot == deepen_slot:
                    self._deepen(client, mine[block % len(mine)], depth, phase)
                    continue
                rank = min(int(np.searchsorted(cdf, gen.random(), side="right")), size.keys - 1)
                fields, word = hit_key(int(perm[rank]), size)
                phase.hit(client, ExperimentSpec(**fields, trials=size.depth),
                          size.depth if self.accepts[word] else 0)
        return phase

    def _deepen(self, client: ServiceClient, j: int, depth: Dict[int, int], phase: Phase) -> None:
        old = depth[j]
        spec = ExperimentSpec(**deepen_fields(j), trials=old + self.size.deepen_step)
        start = perf_counter()
        try:
            result = client.query(spec)
        except OP_ERRORS as exc:
            phase.note_failure(phase.deepen_ms, f"deepen {spec.describe()}", exc)
            return
        phase.book(phase.deepen_ms, (perf_counter() - start) * 1000.0)
        phase.deepens += 1
        phase.trials += result.trials_executed
        depth[j] = spec.trials
        phase.deepened[j] = (result.trials, result.accepted)
        if (result.source, result.base_trials, result.trials) != ("deepened", old, spec.trials):
            phase.failures.append(
                f"deepen {spec.describe()} to {spec.trials}: got {result.source} "
                f"from {result.base_trials} to {result.trials}"
            )

    def drive(self, server: ServerProcess, store: Path, seconds: float) -> Phase:
        size = self.size
        ops = max(size.deepen_every, round(seconds * size.ops_per_s))
        client_gens = spawn(ensure_rng(self.seed), size.clients)
        perm = ensure_rng(RANKING_SEED).permutation(size.keys)
        weights = 1.0 / np.arange(1, size.keys + 1) ** size.zipf_s
        cdf = np.cumsum(weights) / weights.sum()
        phase = Phase()
        start = perf_counter()
        with ThreadPoolExecutor(size.clients) as pool:
            futures = [pool.submit(self._client, server, c, ops, client_gens[c], perm, cdf)
                       for c in range(size.clients)]
            for future in futures:
                phase.absorb(future.result())
        phase.wall_s = phase.engine_s = perf_counter() - start  # any operation may deepen
        return phase

    def check(self, phase: Phase, stats: Dict[str, int]) -> List[str]:
        failures = list(phase.failures)
        engine = ExecutionEngine("batched")
        for j, (trials, accepted) in sorted(phase.deepened.items()):
            spec = ExperimentSpec(**deepen_fields(j), trials=trials)
            fresh = engine.estimate_acceptance(spec.resolve_word(), trials, rng=spec.seed)
            if fresh.accepted != accepted:
                failures.append(f"deepen key {j} at {trials}: served {accepted}, "
                                f"a fresh run gives {fresh.accepted}")
        if stats["engine_runs"] != phase.deepens:
            failures.append(f"service ran the engine {stats['engine_runs']} times "
                            f"for {phase.deepens} deepens")
        return failures

    def digest(self, phase: Phase) -> str:
        return count_digest((f"deepen-{j}", trials, accepted)
                            for j, (trials, accepted) in phase.deepened.items())


def make(name: str, seed: int, size_name: str = "full"):
    """The workload called *name*, with inputs made from *seed*."""
    if name == "serve":
        return ServeWorkload(seed, SERVE_SIZES[size_name], size_name)
    return LocalWorkload(seed, SIZES[size_name][name])


WORKLOADS = ("sweep", "kernel", "serve")


if __name__ == "__main__":
    build_fixture(Path(sys.argv[1]), SERVE_SIZES[sys.argv[2]])
