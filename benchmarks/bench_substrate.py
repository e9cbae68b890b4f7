"""Substrate performance benchmarks (pytest-benchmark kernels).

Not paper experiments — these time the simulation kernels themselves so
regressions in the vectorized hot paths (state-vector ops, the
Walsh-Hadamard diffusion, exact distribution propagation, streaming
throughput) are visible.  The HPC-guide disciplines (contiguous
complex128 buffers, views over copies, no per-amplitude Python loops)
are what these numbers reflect.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.machines import disjointness_machine
from repro.machines.distributions import acceptance_probability
from repro.quantum import A3Registers, GroverA3
from repro.quantum.operators import UkOperator, VxOperator, initial_phi


@pytest.mark.parametrize("k", [3, 5, 7])
def test_statevector_grover_iteration(benchmark, k):
    """One full Grover iteration at 2k+2 qubits (up to 65536 amplitudes)."""
    n = 1 << (2 * k)
    rng = np.random.default_rng(k)
    x = "".join(rng.choice(list("01"), n))
    y = "".join(rng.choice(list("01"), n))
    g = GroverA3(k, x, y)
    vec = initial_phi(g.regs)

    def iterate():
        return g.iterate(vec.copy())

    out = benchmark(iterate)
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("k", [4, 6, 8])
def test_walsh_hadamard_diffusion(benchmark, k):
    regs = A3Registers(k)
    vec = initial_phi(regs)
    op = UkOperator(regs)

    def apply():
        return op.apply(vec)

    out = benchmark(apply)
    assert out.size == regs.dimension


def test_vx_permutation_throughput(benchmark):
    k = 7
    regs = A3Registers(k)
    rng = np.random.default_rng(0)
    x = "".join(rng.choice(list("01"), regs.string_length))
    op = VxOperator(regs, x)
    vec = initial_phi(regs)

    out = benchmark(lambda: op.apply(vec))
    assert out.size == regs.dimension


def test_exact_propagation_throughput(benchmark):
    machine = disjointness_machine(6)
    word = "101010#010101"

    result = benchmark(lambda: acceptance_probability(machine, word))
    assert result == 1


def test_streaming_throughput(benchmark):
    """Symbols/second through the full quantum recognizer (k = 2)."""
    from repro.core import QuantumOnlineRecognizer, member
    from repro.streaming import run_online

    word = member(2, np.random.default_rng(0))

    def one_pass():
        return run_online(QuantumOnlineRecognizer(rng=1), word).symbols

    assert benchmark(one_pass) == len(word)


def test_fingerprint_streaming_throughput(benchmark):
    from repro.mathx.modular import StreamingPolynomialEvaluator
    from repro.mathx.primes import fingerprint_prime

    p = fingerprint_prime(4)
    bits = np.random.default_rng(0).integers(0, 2, size=4096).tolist()

    def stream():
        ev = StreamingPolynomialEvaluator(12345, p)
        ev.feed_bits(bits)
        return ev.value

    assert benchmark(stream) >= 0


#: Where the engine throughput record lands (repo root, tracked per PR).
ENGINE_RECORD = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def _bench_trials() -> int:
    """Trial count for the engine benchmarks.

    ``REPRO_BENCH_TRIALS`` shrinks the run to a smoke test (CI runs one
    per PR so schema breakage and gross regressions surface early);
    below 500 trials the speedup gates are skipped — fixed overheads
    dominate and the ratios are meaningless — but seed parity and the
    record schema are still enforced.
    """
    import os

    return int(os.environ.get("REPRO_BENCH_TRIALS", "1000"))


#: Append-only per-run history next to the record, so the perf
#: trajectory (speedups, regressions) is trackable across PRs instead
#: of each PR overwriting the previous numbers.
ENGINE_HISTORY = ENGINE_RECORD.with_name("BENCH_history.jsonl")


def _lint_summary() -> dict:
    """Whole-program lint stats for the live src tree, via the
    in-process checker — the history line records that the tree was
    invariant-clean (file rules *and* the cross-module analyses) when
    the numbers were taken, plus the size and cost of the call graph
    the project pass built.  All-``None`` when the tree layout makes
    linting impossible (no silent zero)."""
    try:
        from repro.lint import lint_paths, registered_rules

        report = lint_paths(
            [str(ENGINE_RECORD.parent / "src" / "repro")], project=True
        )
    except (ImportError, ValueError, OSError):
        return {
            "lint_rules": None,
            "lint_violations": None,
            "lint_project_rules": None,
            "lint_project_violations": None,
            "lint_call_graph_edges": None,
            "lint_analysis_seconds": None,
        }
    stats = report.project or {}
    project_rules = [
        rule_id
        for rule_id, cls in registered_rules().items()
        if cls.scope == "project" and rule_id in report.rules
    ]
    return {
        "lint_rules": len(report.rules),
        "lint_violations": len(report.findings),
        "lint_project_rules": len(project_rules),
        "lint_project_violations": len(
            [f for f in report.findings if f.scope == "project"]
        ),
        "lint_call_graph_edges": (
            stats.get("call_edges", 0) + stats.get("ref_edges", 0)
        ),
        "lint_analysis_seconds": round(
            stats.get("build_seconds", 0.0) + stats.get("check_seconds", 0.0),
            6,
        ),
    }


def _bench_commit():
    """Short git head for history lines; ``None`` outside a checkout."""
    import subprocess

    try:
        return (
            subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                capture_output=True,
                text=True,
                cwd=ENGINE_RECORD.parent,
                timeout=10,
            ).stdout.strip()
            or None
        )
    except Exception:  # repro-lint: disable=broad-except -- probe boundary: any git failure (missing repo, missing binary, timeout) just means "commit unknown"
        return None


def _append_history(record: dict) -> None:
    """One compact JSON line per full bench run, appended forever."""
    from repro.obs.clock import wall_time

    commit = _bench_commit()
    entry = {
        "timestamp": round(wall_time(), 1),
        "commit": commit,
        "trials": record["trials"],
        "batched_speedup_over_sequential": {
            recognizer: section["batched_speedup_over_sequential"]
            for recognizer, section in record["recognizers"].items()
        },
        "sharded_speedup_over_sequential": record["multiprocess_sharded"][
            "speedup_over_sequential"
        ],
        "chunked_slowdown_over_unchunked": record["chunked"][
            "slowdown_over_unchunked"
        ],
        "lab_deepen_to_2x_seconds": record["lab"]["deepen_to_2x_seconds"],
        "service_cached_queries_per_second": record["service"][
            "cached_queries_per_second"
        ],
    }
    entry.update(_lint_summary())
    # Per-layer latency percentiles and per-(recognizer, backend) trial
    # costs, read from the telemetry registry the bench run populated.
    telemetry = record.get("telemetry", {})
    entry["telemetry"] = {
        "cost_per_trial_seconds": {
            recognizer: {
                backend: section["cost_per_trial_seconds"]
                for backend, section in backends.items()
            }
            for recognizer, backends in telemetry.get("engine_run", {}).items()
        },
        "layers": {
            layer: {"p50": stats["p50_seconds"], "p95": stats["p95_seconds"]}
            for layer, stats in telemetry.get("layers", {}).items()
        },
    }
    with open(ENGINE_HISTORY, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True, allow_nan=False) + "\n")


def _write_engine_record(record: dict, smoke: bool) -> None:
    """Serialize the throughput record, rejecting non-finite numbers.

    ``allow_nan=False`` turns a stray ``inf``/``nan`` (e.g. a throughput
    computed from a sub-resolution timing) into a test failure instead
    of an unparseable ``Infinity`` literal in ``BENCH_engine.json``.
    Smoke runs validate the serialization but keep the tracked record's
    (and the history log's) full-size numbers.
    """
    payload = json.dumps(record, indent=2, allow_nan=False) + "\n"
    if not smoke:
        ENGINE_RECORD.write_text(payload)
        _append_history(record)


def test_engine_backend_throughput():
    """Words/sec and trials/sec per engine backend and recognizer.

    An acceptance sweep at k = 2 over member / intersecting words, run
    through every backend with the same seed — once per recognizer
    (quantum, classical-blockwise, classical-full).  Asserts the seeding
    contract (identical counts on every backend, including the
    trial-sharded multiprocess path), the batched backend's >= 10x
    speedup on the quantum recognizer and >= 5x on the classical ones,
    then writes ``BENCH_engine.json`` so the perf trajectory is tracked
    across PRs.
    """
    from repro.core import intersecting_nonmember, member
    from repro.engine import RECOGNIZERS, ExecutionEngine, available_backends
    from repro.obs import get_registry

    # Start from a clean registry so the telemetry section reflects
    # exactly this bench run (the registry is process-global and other
    # benchmark tests may have touched it).
    registry = get_registry()
    registry.reset()

    trials = _bench_trials()
    smoke = trials < 500
    words = [
        member(2, np.random.default_rng(0)),
        member(2, np.random.default_rng(1)),
        intersecting_nonmember(2, 1, np.random.default_rng(2)),
        intersecting_nonmember(2, 4, np.random.default_rng(3)),
    ]
    record = {
        "experiment": "engine acceptance sweep",
        "k": 2,
        "trials": trials,
        "words": len(words),
        "backends": {},
        "recognizers": {},
    }
    gates = {
        "quantum": 10.0,
        "classical-blockwise": 5.0,
        "classical-full": 5.0,
    }
    for recognizer in RECOGNIZERS:
        section = record["recognizers"][recognizer] = {"backends": {}}
        counts = {}
        raw_seconds = {}
        for name in available_backends():
            engine = ExecutionEngine(name)
            start = time.perf_counter()
            estimates = engine.run_many(words, trials, rng=2006, recognizer=recognizer)
            elapsed = time.perf_counter() - start
            counts[name] = [est.accepted for est in estimates]
            raw_seconds[name] = elapsed
            section["backends"][name] = {
                "seconds": round(elapsed, 4),
                "words_per_second": round(len(words) / elapsed, 2),
                "trials_per_second": round(len(words) * trials / elapsed, 1),
                "accepted": counts[name],
            }

        # The trial-sharded multiprocess path obeys the same contract.
        sharded = ExecutionEngine("multiprocess", processes=2, shard_trials=True)
        sharded_count = sharded.estimate_acceptance(
            words[0], trials, rng=2006, recognizer=recognizer
        ).accepted
        unsharded_count = ExecutionEngine("batched").estimate_acceptance(
            words[0], trials, rng=2006, recognizer=recognizer
        ).accepted
        # Own key, not a backends entry: the per-backend schema
        # (seconds/words_per_second/trials_per_second/accepted) stays
        # uniform for consumers tracking the perf trajectory.
        section["sharded_check"] = {
            "word": 0,
            "accepted": sharded_count,
            "matches_unsharded": sharded_count == unsharded_count,
        }
        assert sharded_count == unsharded_count, recognizer

        # The seeding contract: backend choice never changes the statistics.
        for name in available_backends():
            assert counts[name] == counts["sequential"], (recognizer, name)

        # Raw timings for the ratio: the rounded "seconds" fields
        # quantize millisecond-scale runs enough to distort the gate.
        speedup = raw_seconds["sequential"] / raw_seconds["batched"]
        section["batched_speedup_over_sequential"] = round(speedup, 1)
        if not smoke:
            assert speedup >= gates[recognizer], (
                f"{recognizer}: batched speedup only {speedup:.1f}x "
                f"(gate {gates[recognizer]:.0f}x)"
            )

    # Back-compat top-level view: the quantum recognizer's numbers.
    quantum = record["recognizers"]["quantum"]
    record["backends"] = quantum["backends"]
    record["batched_speedup_over_sequential"] = quantum[
        "batched_speedup_over_sequential"
    ]

    # The pool backend: one word's trials sharded over two processes.
    # Gates: counts seed-identical to batched (always) and a real
    # speedup over the sequential reference (full runs only — at smoke
    # sizes the pool start-up dominates).
    start = time.perf_counter()
    pool_est = ExecutionEngine(
        "multiprocess", processes=2, shard_trials=True
    ).estimate_acceptance(words[0], trials, rng=2006)
    pool_s = time.perf_counter() - start
    start = time.perf_counter()
    seq_est = ExecutionEngine("sequential").estimate_acceptance(
        words[0], trials, rng=2006
    )
    seq_s = time.perf_counter() - start
    start = time.perf_counter()
    batched_est = ExecutionEngine("batched").estimate_acceptance(
        words[0], trials, rng=2006
    )
    batched_s = time.perf_counter() - start
    assert pool_est.accepted == batched_est.accepted == seq_est.accepted
    record["multiprocess_sharded"] = {
        "processes": 2,
        "trials": trials,
        "seconds": round(pool_s, 4),
        "trials_per_second": round(trials / pool_s, 1),
        "accepted": pool_est.accepted,
        "matches_batched": pool_est.accepted == batched_est.accepted,
        "speedup_over_sequential": round(seq_s / pool_s, 1),
    }
    if not smoke:
        assert seq_s / pool_s >= 2.0, (
            f"sharded multiprocess speedup only {seq_s / pool_s:.1f}x over "
            "sequential (gate 2x)"
        )

    # Chunked (memory-bounded) vs unchunked batched execution.  Gates:
    # byte-identical counts (always) and bounded tiling overhead (full
    # runs only).
    budget = 64 * 1024
    # The unchunked reference is the batched run the pool parity
    # check just timed — same word, trials and seed, no need to re-run.
    unchunked, unchunked_s = batched_est, batched_s
    start = time.perf_counter()
    chunked = ExecutionEngine(
        "batched", max_batch_bytes=budget
    ).estimate_acceptance(words[0], trials, rng=2006)
    chunked_s = time.perf_counter() - start
    assert chunked.accepted == unchunked.accepted, "chunked counts drifted"
    slowdown = chunked_s / unchunked_s
    record["chunked"] = {
        "max_batch_bytes": budget,
        "trials": trials,
        "seconds": round(chunked_s, 4),
        "unchunked_seconds": round(unchunked_s, 4),
        "accepted": chunked.accepted,
        "matches_unchunked": chunked.accepted == unchunked.accepted,
        "slowdown_over_unchunked": round(slowdown, 2),
    }
    if not smoke:
        assert slowdown <= 3.0, (
            f"chunked execution {slowdown:.2f}x slower than unchunked "
            "(gate 3x)"
        )

    # The lab store: the same experiment run cold (executes everything),
    # warm (pure cache hit, zero engine trials) and deepened to 2x
    # (executes only the second half, counts seed-identical to a fresh
    # 2x run).  Records the amortization the store buys repeat sweeps.
    import tempfile

    from repro.lab import ExperimentSpec, Orchestrator

    with tempfile.TemporaryDirectory() as tmp:
        orchestrator = Orchestrator(tmp)
        spec = ExperimentSpec(
            family="intersecting", k=2, t=1, word_seed=2, trials=trials, seed=2006
        )
        t0 = time.perf_counter()
        cold = orchestrator.run(spec)
        cold_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = orchestrator.run(spec)
        warm_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        deep = orchestrator.run(spec.with_trials(2 * trials))
        deep_s = time.perf_counter() - t0
        fresh_2x = ExecutionEngine("batched").estimate_acceptance(
            spec.resolve_word(), 2 * trials, rng=2006
        )
        assert warm.source == "cache" and warm.trials_executed == 0
        assert cold.estimate.accepted == warm.estimate.accepted
        assert deep.source == "deepened" and deep.trials_executed == trials
        assert deep.estimate.accepted == fresh_2x.accepted, "deepening drifted"
        record["lab"] = {
            "trials": trials,
            "cold_seconds": round(cold_s, 4),
            "warm_seconds": round(warm_s, 4),
            "deepen_to_2x_seconds": round(deep_s, 4),
            "warm_trials_executed": warm.trials_executed,
            "deepened_matches_fresh_2x": deep.estimate.accepted == fresh_2x.accepted,
        }

    # The acceptance service: N identical concurrent clients must cost
    # exactly one engine execution (request coalescing), with counts
    # byte-identical to one direct orchestrator run, and precision mode
    # must stop at a checkpoint meeting the target half-width having
    # executed only seed-plan-suffix trials.  These are correctness
    # gates, asserted at every size; throughput is recorded alongside.
    import threading

    from repro.analysis.bounds import wilson_halfwidth
    from repro.service import ServiceClient, ServiceThread

    with tempfile.TemporaryDirectory() as tmp:
        with ServiceThread(Path(tmp) / "svc", workers=2) as svc:
            spec = ExperimentSpec(
                family="intersecting", k=2, t=1, word_seed=2, trials=trials, seed=2006
            )
            n_clients = 8
            results = [None] * n_clients
            barrier = threading.Barrier(n_clients)

            def hammer(i):
                with ServiceClient(port=svc.port) as client:
                    barrier.wait()
                    results[i] = client.query(spec)

            threads = [
                threading.Thread(target=hammer, args=(i,)) for i in range(n_clients)
            ]
            start = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            burst_s = time.perf_counter() - start

            with ServiceClient(port=svc.port) as client:
                stats = client.stats()
            direct = Orchestrator(Path(tmp) / "direct").run(spec)
            assert stats["engine_runs"] == 1, (
                f"coalescing gate: {n_clients} identical concurrent queries "
                f"cost {stats['engine_runs']} engine runs (want 1)"
            )
            assert stats["trials_executed"] == trials
            assert {r.accepted for r in results} == {direct.estimate.accepted}, (
                "service counts drifted from the direct orchestrator run"
            )

            # Sustained throughput over distinct cached-then-served keys:
            # one pass populates, a second is pure cache traffic.
            n_distinct = 8
            distinct = [
                ExperimentSpec(
                    family="intersecting", k=2, t=1, word_seed=2,
                    trials=trials, seed=3000 + i,
                )
                for i in range(n_distinct)
            ]
            with ServiceClient(port=svc.port) as client:
                for s in distinct:  # populate
                    client.query(s)
                start = time.perf_counter()
                for s in distinct:  # pure cache traffic
                    client.query(s)
                cached_s = time.perf_counter() - start

            # Precision mode on a fresh key: target chosen to force at
            # least one deepening round beyond the starting depth.
            target = 0.02
            with ServiceClient(port=svc.port) as client:
                precise = client.query(
                    family="intersecting", k=2, t=1, word_seed=2,
                    trials=trials, seed=4006,
                    target_halfwidth=target,
                )
            assert precise.halfwidth <= target
            assert wilson_halfwidth(precise.accepted, precise.trials) <= target
            assert precise.trials_executed == precise.trials, (
                "precision rounds re-ran trials instead of extending the "
                "seed-plan suffix"
            )

            record["service"] = {
                "clients": n_clients,
                "trials": trials,
                "engine_runs": stats["engine_runs"],
                "coalesced": stats["coalesced"],
                "burst_seconds": round(burst_s, 4),
                "matches_direct": True,
                "cached_queries_per_second": round(n_distinct / cached_s, 1),
                "precision": {
                    "target_halfwidth": target,
                    "halfwidth": round(precise.halfwidth, 5),
                    "trials": precise.trials,
                    "rounds": precise.rounds,
                },
            }

    # The telemetry section: what the instrumented layers measured while
    # the sections above ran.  ``engine_run`` derives exact per-trial
    # costs (histogram sum over trial counter — both exact, not bucket
    # estimates) per (recognizer, backend); ``layers`` records latency
    # percentiles for the store and service paths the run exercised.
    engine_run = {}
    for recognizer, section in record["recognizers"].items():
        per_backend = engine_run[recognizer] = {}
        for name in section["backends"]:
            hist = registry.histogram(
                "engine.run.seconds", backend=name, recognizer=recognizer
            ).to_dict()
            ran = registry.counter(
                "engine.run.trials", backend=name, recognizer=recognizer
            ).value
            per_backend[name] = {
                "runs": hist["count"],
                "p50_seconds": hist["p50"],
                "p95_seconds": hist["p95"],
                "cost_per_trial_seconds": (
                    round(hist["sum"] / ran, 9) if ran else None
                ),
            }
    layers = {}
    for layer, hist in (
        (
            "lab.store.scan.seconds",
            registry.histogram("lab.store.scan.seconds").to_dict(),
        ),
        (
            "lab.store.append.seconds",
            registry.histogram("lab.store.append.seconds").to_dict(),
        ),
    ):
        layers[layer] = {
            "count": hist["count"],
            "p50_seconds": hist["p50"],
            "p95_seconds": hist["p95"],
        }
    query_ops = registry.histogram("service.op.seconds", op="query").to_dict()
    layers["service.op.seconds{op=query}"] = {
        "count": query_ops["count"],
        "p50_seconds": query_ops["p50"],
        "p95_seconds": query_ops["p95"],
    }
    record["telemetry"] = {"engine_run": engine_run, "layers": layers}
    assert all(
        section["runs"] > 0
        for per_backend in engine_run.values()
        for section in per_backend.values()
    ), "instrumentation gap: a swept backend recorded no engine.run spans"

    _write_engine_record(record, smoke)


def _bench_store_keys() -> int:
    """Key count for the fleet-scale store benchmark.

    ``REPRO_BENCH_STORE_KEYS`` shrinks the run to a smoke test; below
    10 000 keys the latency gates are skipped (fixed per-shard costs
    dominate) but the lease-safety and count invariants are still
    enforced, and nothing is written to the tracked record.
    """
    import os

    return int(os.environ.get("REPRO_BENCH_STORE_KEYS", "100000"))


def _write_store_record(section: dict, smoke: bool) -> None:
    """Merge the ``store`` section into the tracked engine record and
    append one ``kind: store`` history line.  Read-modify-write so a
    store-only rerun never clobbers the engine numbers (and vice versa:
    the engine bench rewrites the whole record, so full runs execute it
    first)."""
    if smoke:
        json.dumps(section, allow_nan=False)  # schema check only
        return
    from repro.obs.clock import wall_time

    document = {}
    if ENGINE_RECORD.exists():
        document = json.loads(ENGINE_RECORD.read_text(encoding="utf-8"))
    document["store"] = section
    ENGINE_RECORD.write_text(
        json.dumps(document, indent=2, allow_nan=False) + "\n"
    )
    entry = {
        "kind": "store",
        "timestamp": round(wall_time(), 1),
        "commit": _bench_commit(),
    }
    entry.update(section)
    with ENGINE_HISTORY.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True, allow_nan=False) + "\n")


def test_store_fleet_scale(tmp_path):
    """The sharded ResultStore at fleet scale: 10^5 keys.

    Measures bulk seeding, full compaction, ``status()``, and sampled
    keyed reads, then exercises the eviction-vs-lease rule at scale.
    Gates (full scale only):

    - ``lab status`` on the compacted store is sub-second and served
      from the per-shard indexes alone (zero full-file scans);
    - sampled ``deepest()`` reads on the compacted store cost zero
      full-file scans (index lookup + seek only).

    Always enforced, smoke included: eviction never drops a leased key,
    and the store accounts for every seeded experiment.
    """
    from repro.lab import ResultStore
    from repro.lab.store import LabRecord
    from repro.obs.metrics import get_registry

    keys = _bench_store_keys()
    smoke = keys < 10_000
    store = ResultStore(tmp_path / "store")
    records = [
        LabRecord(
            key=f"bench-{i:06d}",
            spec={"bench": i},
            trials=100,
            accepted=i % 101,
            backend="bench",
            elapsed_s=0.0,
        )
        for i in range(keys)
    ]

    start = time.perf_counter()
    assert store.append_many(records) == keys
    seed_seconds = time.perf_counter() - start

    start = time.perf_counter()
    store.compact()
    compact_seconds = time.perf_counter() - start

    start = time.perf_counter()
    status = store.status()
    status_seconds = time.perf_counter() - start
    assert status.experiments == keys and status.checkpoints == keys
    assert status.active_leases == 0 and status.legacy_records == 0

    registry = get_registry()

    def scan_total() -> int:
        return sum(registry.counters_with_prefix("lab.store.file_scans").values())

    sample = [records[i] for i in range(0, keys, max(1, keys // 100))]
    scans_before = scan_total()
    start = time.perf_counter()
    for record in sample:
        served = store.deepest(record.key)
        assert served is not None and served.accepted == record.accepted
    read_seconds = time.perf_counter() - start
    keyed_read_scans = scan_total() - scans_before

    leased = [records[i].key for i in range(0, keys, max(1, keys // 50))][:50]
    for key in leased:
        assert store.claim(key, "bench-owner", ttl_s=3600.0)
    start = time.perf_counter()
    evicted = store.evict(ttl_seconds=0.0)
    evict_seconds = time.perf_counter() - start

    # The two invariants that hold at every scale: leases pin their
    # keys through an evict-everything pass, and nothing else survives.
    assert set(leased).isdisjoint(evicted)
    assert len(evicted) == keys - len(leased)
    for key in leased:
        assert store.deepest(key) is not None

    if not smoke:
        assert status.source == "index"
        assert status_seconds < 1.0, (
            f"lab status took {status_seconds:.3f}s on {keys} keys"
        )
        assert keyed_read_scans == 0, (
            f"{keyed_read_scans} full-file scans on indexed keyed reads"
        )

    _write_store_record(
        {
            "keys": keys,
            "shards": status.shards,
            "indexed_shards": status.indexed_shards,
            "seed_seconds": round(seed_seconds, 6),
            "compact_seconds": round(compact_seconds, 6),
            "status_seconds": round(status_seconds, 6),
            "status_source": status.source,
            "keyed_reads": len(sample),
            "keyed_read_avg_seconds": round(read_seconds / len(sample), 9),
            "keyed_read_file_scans": keyed_read_scans,
            "leased": len(leased),
            "evicted": len(evicted),
            "evict_seconds": round(evict_seconds, 6),
        },
        smoke,
    )
