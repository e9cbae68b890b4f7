"""Traced service launcher: ``python -m perfbench.launcher --fold FILE ...``.

Installs the benchmark's timing wrappers (:mod:`perfbench.tracing`) in
this process, then serves exactly as ``repro serve`` does.  When the
service stops it writes the span fold and the store-index counters to
``--fold`` as JSON.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
from pathlib import Path

from repro.obs import get_registry
from repro.service import AcceptanceService

from .tracing import Recorder, fold, install


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fold", type=Path, required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()

    recorder = Recorder()
    with install(recorder):
        service = AcceptanceService(
            args.store, host=args.host, port=args.port, workers=args.workers
        )

        async def serve() -> None:
            host, port = await service.start()
            print(f"traced repro service listening on {host}:{port}", flush=True)
            await service.wait_stopped()

        asyncio.run(serve())
    document = fold(recorder.spans)
    document["index"] = get_registry().counters_with_prefix("lab.store.index.")
    tmp = args.fold.with_suffix(".tmp")
    tmp.write_text(json.dumps(document))
    os.replace(tmp, args.fold)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
