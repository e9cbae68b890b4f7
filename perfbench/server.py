"""Start, time and stop the acceptance service as a child process.

Untraced runs start the program's own ``python -m repro serve``; traced
runs start :mod:`perfbench.launcher`, which installs the benchmark's
timing wrappers in the server process first.  Both print the same
``listening on host:port`` line, which is how the port is found.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, Optional

from repro.lab import ExperimentSpec
from repro.service import ServiceClient
from repro.service.protocol import ProtocolError, ServiceError

from .checks import peak_rss_mb

ROOT = Path(__file__).resolve().parent.parent

#: Worker threads of the service: the CLI default.
WORKERS = 2

#: Socket timeout of every benchmark client, and the latency charged to
#: an operation that fails (a failure misses every latency limit).
CLIENT_TIMEOUT_S = 60.0

#: Seconds to wait for a server to start or to stop before killing it.
PROCESS_TIMEOUT_S = 30.0

#: Trial seed of the warm-up query each measured service answers first.
WARM_SEED = 7_000_000


def child_env() -> Dict[str, str]:
    """The environment of every child: the checkout's ``src`` and root importable."""
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


class ServerProcess:
    """One service child process; a context manager that always reaps it.

    *fold_path* selects the traced launcher, which writes its span fold
    there when the service stops.
    """

    def __init__(self, store: Path, log: Path, fold_path: Optional[Path] = None) -> None:
        self.store = store
        self.fold_path = fold_path
        self.log = log
        self.port = 0
        self.started_s = 0.0
        self._proc: Optional[subprocess.Popen] = None
        self._log_file = None

    def __enter__(self) -> "ServerProcess":
        if self.fold_path is None:
            cmd = [sys.executable, "-m", "repro", "serve"]
        else:
            cmd = [sys.executable, "-m", "perfbench.launcher", "--fold", str(self.fold_path)]
        cmd += ["--host", "127.0.0.1", "--port", "0", "--store", str(self.store),
                "--workers", str(WORKERS)]
        self._log_file = open(self.log, "w", encoding="utf-8")
        self.started_s = perf_counter()
        started = False
        try:
            self._proc = subprocess.Popen(
                cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                stderr=self._log_file, text=True,
            )
            line = self._proc.stdout.readline()
            if "listening on" not in line:
                raise RuntimeError(f"service failed to start: {self.log.read_text()[-2000:]}")
            self.port = int(line.split("listening on", 1)[1].split()[0].rsplit(":", 1)[1])
            started = True
        finally:
            if not started:
                self.__exit__()
        return self

    def client(self) -> ServiceClient:
        return ServiceClient(port=self.port, timeout=CLIENT_TIMEOUT_S)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(str(self._proc.pid))

    def stop(self) -> None:
        """Ask the service to shut down and wait for the process to exit."""
        if self._proc is None or self._proc.poll() is not None:
            return
        with self.client() as client:
            client.shutdown()
        self._proc.wait(PROCESS_TIMEOUT_S)

    def fold(self) -> Dict[str, Any]:
        """The traced launcher's span fold; only valid after :meth:`stop`."""
        return json.loads(self.fold_path.read_text())

    def __exit__(self, *exc: Any) -> None:
        proc = self._proc
        try:
            if proc is not None and proc.poll() is None:
                try:
                    self.stop()
                except (OSError, ProtocolError, ServiceError, subprocess.TimeoutExpired):
                    proc.kill()
                    proc.wait(PROCESS_TIMEOUT_S)
        finally:
            if proc is not None and proc.stdout is not None:
                proc.stdout.close()
            if self._log_file is not None:
                self._log_file.close()


def warm_spec(seed: int) -> ExperimentSpec:
    """A small experiment whose fresh run loads the engine path of a server."""
    return ExperimentSpec(family="member", k=1, trials=200, seed=seed)


def warm_query(client: ServiceClient, seed: int) -> None:
    client.query(warm_spec(seed))


def time_setup(store: Path, log: Path, seed: int) -> float:
    """Seconds from starting a service process to its first answered query.

    Covers interpreter start, imports, service launch and the warm-up
    query's engine run.
    """
    with ServerProcess(store, log) as server:
        with server.client() as client:
            warm_query(client, seed)
        return perf_counter() - server.started_s
