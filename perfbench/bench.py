"""One benchmark invocation: set up, measure, check, report.

:func:`execute` returns the result document that ``run.py`` prints as
its last line.  The metric names and units come from ``BENCHMARK.json``
at the repository root, and a run whose metrics differ from that list
is an error, so the file and the program cannot drift apart.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from repro.lab import ExperimentSpec, Orchestrator
from repro.obs import get_registry

from .checks import peak_rss_mb, percentile
from .server import ROOT, WARM_SEED, ServerProcess, time_setup, warm_query
from .tracing import LAYER_OF, Recorder, empty_entry, fold, install, merge
from .workloads import WORK, Phase, make

#: Service launches timed per run; ``setup_s`` is their median.
SETUP_RUNS = 11

#: Pings timed after a traced run; ``wire.ping_ms`` is their median.
PINGS = 200

INDEX_COUNTERS = "lab.store.index."

#: Ledger rows, in stack order.
LEDGER = ("service.client", "service.server") + tuple(
    layer for layer in LAYER_OF.values() if not layer.startswith("service.")
)


@dataclass
class Measured:
    """A timed phase plus what the service and the processes reported."""

    phase: Phase
    stats: Dict[str, int]  # service counters accrued during the phase
    rss_mb: float = 0.0
    ping_ms: float = 0.0
    fold: Optional[Dict[str, Any]] = None  # bench-side spans (traced only)
    server_fold: Optional[Dict[str, Any]] = None
    index: Tuple[int, int] = (0, 0)  # store index (hits, misses) where the store is read


def metric_catalog() -> Dict[str, Dict[str, str]]:
    """``{"end_to_end" | "per_layer": {name: unit}}`` from ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def _index_counts(counters: Dict[str, int]) -> Tuple[int, int]:
    return (counters.get(INDEX_COUNTERS + "hits", 0), counters.get(INDEX_COUNTERS + "misses", 0))


def measure(workload: Any, work: Path, tag: str, seconds: float, traced: bool) -> Measured:
    """Run *workload* for *seconds* on a fresh store, remote ones against a fresh service."""
    store = work / f"store-{tag}"
    workload.prepare(store)
    # Write back what preparing dirtied, so the run's first fsyncs do not pay for it.
    os.sync()
    recorder = Recorder()
    if not workload.remote:
        index_before = _index_counts(get_registry().counters_with_prefix(INDEX_COUNTERS))
        with install(recorder) if traced else nullcontext():
            phase = workload.drive(None, store, seconds)
        index_after = _index_counts(get_registry().counters_with_prefix(INDEX_COUNTERS))
        measured = Measured(phase=phase, stats={"engine_runs": 0, "coalesced": 0},
                            rss_mb=peak_rss_mb())
        if traced:
            measured.fold = fold(recorder.spans)
            measured.server_fold = dict(fold([]), index={})
            measured.index = (index_after[0] - index_before[0], index_after[1] - index_before[1])
        return measured
    fold_path = work / f"fold-{tag}.json" if traced else None
    with ServerProcess(store, work / f"server-{tag}.log", fold_path) as server:
        with server.client() as client:
            warm_query(client, WARM_SEED)
            before = client.stats()
        with install(recorder) if traced else nullcontext():
            phase = workload.drive(server, store, seconds)
        rss_mb = peak_rss_mb() + server.peak_rss_mb()
        with server.client() as client:
            pings = []
            for _ in range(PINGS if traced else 0):
                start = perf_counter()
                client.ping()
                pings.append((perf_counter() - start) * 1000.0)
            after = client.stats()
        server.stop()
        measured = Measured(
            phase=phase,
            stats={name: after[name] - before[name] for name in ("engine_runs", "coalesced")},
            rss_mb=rss_mb,
        )
        if traced:
            measured.ping_ms = statistics.median(pings)
            measured.fold = fold(recorder.spans)
            measured.server_fold = server.fold()
            measured.index = _index_counts(measured.server_fold["index"])
    return measured


def end_to_end(measured: Measured, setup_s: float) -> Dict[str, float]:
    phase = measured.phase
    return {
        "setup_s": setup_s,
        "trials_per_s": phase.trials / phase.engine_s,
        "hit_p50_ms": percentile(phase.hit_ms, 50),
        "hit_p99_ms": percentile(phase.hit_ms, 99),
        "deepen_p50_ms": percentile(phase.deepen_ms, 50),
        "deepen_p95_ms": percentile(phase.deepen_ms, 95),
        "queries_per_s": phase.ops / phase.wall_s,
        "peak_rss_mb": measured.rss_mb,
        "ok_share": 1.0 - phase.failed / phase.attempted,
    }


def _mean_ms(entry: Dict[str, Any], part: str = "total_s") -> float:
    """Milliseconds per call of a fold entry (0 when it was never called)."""
    return 1000.0 * entry[part] / entry["calls"] if entry["calls"] else 0.0


def per_layer(
    name: str, plain: Measured, traced: Measured
) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics of the traced phase, and the self-time ledger lines."""
    both = merge(traced.fold, traced.server_fold)
    names = both["names"]

    def entry(span: str) -> Dict[str, Any]:
        return names.get(span) or empty_entry()

    sources = entry("orchestrator.run")["labels"]
    trials = entry("engine.count")["units"]
    seeds = entry("rng.seed_plan")["units"]
    server_hits = traced.server_fold["names"].get("orchestrator.run", empty_entry())["labels"]
    server_hit_ms = (1000.0 * server_hits["cache"][1] / server_hits["cache"][0]
                     if "cache" in server_hits else 0.0)
    hits, misses = traced.index
    client = traced.fold["names"].get("client.query", empty_entry())

    # The client's query time, split: server-side spans are that process's
    # roots; the wire is charged at the idle ping; dispatch is the rest.
    layers = dict(both["layers"])
    wire_s = traced.ping_ms / 1000.0 * client["calls"]
    layers["service.client"] = wire_s
    layers["service.server"] = client["self_s"] - traced.server_fold["root_s"] - wire_s
    if name == "serve":
        denominator, basis = client["total_s"], "client busy time"
    else:
        denominator, basis = traced.phase.wall_s, "wall time"
    share = {layer: 100.0 * layers.get(layer, 0.0) / denominator for layer in LEDGER}

    plain_e2e = end_to_end(plain, 0.0)
    traced_e2e = end_to_end(traced, 0.0)
    primary = "queries_per_s" if name == "serve" else "trials_per_s"
    metrics: Dict[str, float] = {
        "rng.seed_plan_ms": _mean_ms(entry("rng.seed_plan")),
        "rng.seeds_materialized": seeds,
        "rng.seed_waste_ratio": seeds / trials if trials else 0.0,
        "core.sampler_ms": _mean_ms(entry("core.sampler")),
        "core.draws_self_ms": _mean_ms(entry("core.sampler"), "self_s"),
        "core.a2_sweep_ms": _mean_ms(entry("core.a2_sweep")),
        "core.a2_points": entry("core.a2_sweep")["units"],
        "core.a3_evolve_ms": _mean_ms(entry("core.a3_evolve")),
        "core.a3_rows": entry("core.a3_evolve")["units"],
        "core.a3_state_bytes": entry("core.a3_evolve")["max_bytes"],
        "engine.count_ms": _mean_ms(entry("engine.count")),
        "engine.calls": entry("engine.count")["calls"],
        "orchestrator.self_ms": _mean_ms(entry("orchestrator.run"), "self_s"),
        "orchestrator.rounds": entry("orchestrator.run")["calls"],
        "orchestrator.sources.cache": sources.get("cache", (0, 0.0))[0],
        "orchestrator.sources.deepened": sources.get("deepened", (0, 0.0))[0],
        "orchestrator.sources.fresh": sources.get("fresh", (0, 0.0))[0],
        "store.deepest_ms": _mean_ms(entry("store.deepest")),
        "store.checkpoints_ms": _mean_ms(entry("store.checkpoints")),
        "store.append_ms": _mean_ms(entry("store.append")),
        "store.index_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "spec.key_us": 1000.0 * _mean_ms(entry("spec.key")),
        "spec.resolve_word_us": 1000.0 * _mean_ms(entry("spec.resolve_word")),
        "service.orchestrator_ms": server_hit_ms,
        "service.overhead_ms": (statistics.fmean(traced.phase.hit_ms) - server_hit_ms
                                if server_hit_ms else 0.0),
        "service.engine_runs": traced.stats["engine_runs"],
        "service.coalesced": traced.stats["coalesced"],
        "wire.ping_ms": traced.ping_ms,
        "trace.overhead_pct": 100.0 * (plain_e2e[primary] / traced_e2e[primary] - 1.0),
    }
    metrics.update({f"self_pct.{layer}": share[layer] for layer in LEDGER})

    requests = traced.fold["requests"] + traced.server_fold["requests"]
    lines = [f"ledger ({name}): self time per layer over {requests} traced requests, "
             f"share of {basis} {denominator:.3f} s"
             + ("; wire and service.server split the client's query time at the idle ping"
                if name == "serve" else "")]
    for layer in LEDGER:
        lines.append(f"  {layer:<18} {1000.0 * layers.get(layer, 0.0):12.1f} ms "
                     f"{share[layer]:6.1f} %")
    rest = 100.0 - sum(share.values())
    lines.append(f"  {'(untraced code)':<18} {rest * denominator * 10.0:12.1f} ms {rest:6.1f} %")
    lines.append(f"tracing overhead: {primary} {plain_e2e[primary]:.6g} untraced, "
                 f"{traced_e2e[primary]:.6g} traced ({metrics['trace.overhead_pct']:+.1f} %)")
    for metric in traced_e2e:
        if metric != "setup_s":
            lines.append(f"  traced - untraced {metric}: "
                         f"{traced_e2e[metric] - plain_e2e[metric]:+.6g}")
    lines += _predictions(name, names, traced.phase.engine_s, traced_e2e, metrics)
    return metrics, lines


def _predictions(name: str, names: Dict[str, Any], run_s: float,
                 traced_e2e: Dict[str, float], metrics: Dict[str, float]) -> List[str]:
    """The shares the workloads were designed around, checked against the trace.

    *run_s* is the time of the in-process orchestrator runs, the work the
    ``sweep`` and ``kernel`` shares were predicted for.
    """

    def pct(span: str, part: str = "total_s") -> float:
        return 100.0 * names.get(span, {}).get(part, 0.0) / run_s

    if name == "sweep":
        measured = pct("rng.seed_plan") + pct("core.sampler", "self_s")
        claim = "rng + core.draws_self >= 80 % of the in-process run time"
        holds, detail = measured >= 80.0, f"{measured:.1f} %"
    elif name == "kernel":
        measured = pct("core.a3_evolve") + pct("core.a2_sweep")
        claim = "core.a3_evolve + core.a2_sweep >= 80 % of the in-process run time"
        holds, detail = measured >= 80.0, f"{measured:.1f} %"
    else:
        deepest, hit = metrics["store.deepest_ms"], traced_e2e["hit_p50_ms"]
        claim = "store.deepest is about 0.15 ms of a roughly 0.5 ms hit"
        holds = 0.075 <= deepest <= 0.3 and 0.25 <= hit <= 1.0
        detail = f"store.deepest {deepest:.3f} ms per call, traced hit p50 {hit:.3f} ms"
    verdict = "holds" if holds else "does not hold"
    return [f"prediction ({name}): {claim}: {verdict} ({detail})"]


def _warm_in_process(work: Path) -> None:
    """Load the engine path of this process before anything is timed."""
    orchestrator = Orchestrator(work / "warm-store")
    for recognizer in ("quantum", "classical-blockwise"):
        orchestrator.run(ExperimentSpec(family="member", k=1, trials=50, recognizer=recognizer))


def execute(name: str, seed: int, seconds: float, traced: bool,
            size: str = "full") -> Dict[str, Any]:
    """Run workload *name* once and return the result document.

    The run's stores are deleted before it returns, and the deletion is
    written to disk, so every run starts from the same disk state and
    none pays for an earlier one's cleanup.  Only the serve fixture is
    kept between runs.
    """
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        return _execute(name, seed, seconds, traced, size, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        os.sync()


def _execute(name: str, seed: int, seconds: float, traced: bool, size: str,
             work: Path) -> Dict[str, Any]:
    catalog = metric_catalog()
    lines: List[str] = []
    _warm_in_process(work)
    if traced:
        plain_workload, traced_workload = make(name, seed, size), make(name, seed, size)
        plain = measure(plain_workload, work, "plain", seconds, traced=False)
        result = measure(traced_workload, work, "traced", seconds, traced=True)
        values, lines = per_layer(name, plain, result)
        checked = [(plain_workload, plain), (traced_workload, result)]
        kind = "per_layer"
    else:
        setup = [time_setup(work / "setup-store", work / "setup.log", WARM_SEED + 1 + i)
                 for i in range(SETUP_RUNS)]
        workload = make(name, seed, size)
        result = measure(workload, work, "plain", seconds, traced=False)
        values = end_to_end(result, statistics.median(setup))
        checked = [(workload, result)]
        kind = "end_to_end"
    failures = []
    digests = []
    for workload, measured in checked:
        failures += workload.check(measured.phase, measured.stats)
        digests.append(workload.digest(measured.phase))
        lines.append(f"count digest (key/trials/accepted): {digests[-1]}")
    if len(set(digests)) > 1:  # the same seed must give the same counts
        failures.append(f"untraced and traced runs of seed {seed} disagree: "
                        f"count digests {digests[0]} and {digests[1]}")
    units = catalog[kind]
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} disagree with "
                           f"BENCHMARK.json {kind}")
    for failure in failures[:20]:
        lines.append(f"CHECK FAILED: {failure}")
    if len(failures) > 20:
        lines.append(f"CHECK FAILED: ... {len(failures) - 20} more")
    for metric, unit in units.items():
        lines.append(f"{metric} = {values[metric]:.6g} {unit}")
    return {
        "lines": lines,
        "result": {
            "correct": not failures,
            "attempted": sum(m.phase.attempted for _, m in checked),
            "failed": sum(m.phase.failed for _, m in checked),
            "metrics": {metric: {"value": values[metric], "unit": unit}
                        for metric, unit in units.items()},
        },
    }
