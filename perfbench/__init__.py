"""The repository benchmark: the engine -> lab -> service stack, end to end.

Run one workload from the repository root::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` runs the workload untraced and then traced, and prints the
per-layer metrics with a self-time ledger.  See ``perfbench/README.md``.
"""
