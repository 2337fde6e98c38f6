"""Subprocess replica management for the cluster harness.

A *replica* here is one real ``python -m repro serve --http`` process —
its own interpreter, its own sockets, its own die pool — so killing one
with SIGKILL is a true process death (no in-process shortcut could fake
the half-open sockets and connection resets the router must survive).

:class:`ReplicaProcess` wraps one such process: spawn, readiness wait
(polling ``/healthz``), SIGKILL, graceful SIGINT drain, and restart on
the *same* port (the front end's ``ThreadingHTTPServer`` inherits
``allow_reuse_address``, so the rebind succeeds while the killed
process's connections linger in TIME_WAIT).  stderr is captured to a
temp file and surfaced on failure — a replica that dies on boot must
explain itself.

:class:`ClusterHarness` stands up the whole topology — N replicas of
the same ``build_demo_server`` build (same ``--seed``, so every replica
serves **bit-identical** outputs: the property that makes router
failover and hedging safe), a :class:`~.directory.ReplicaDirectory`
over them and a :class:`~.router.ClusterRouter` in front — and tears
it all down deterministically.  The chaos bench and the CLI
``serve --cluster N`` both build on it.
"""

from __future__ import annotations

import os
import pathlib
import signal
import socket
import subprocess
import sys
import tempfile
import time
from typing import Callable, Dict, List, Optional, Sequence

from ..client import TRANSPORT_ERRORS, HttpClient
from ..routes import HEALTHZ
from .directory import ReplicaDirectory
from .router import ClusterRouter, RoutingPolicy

#: default bound on one replica's boot (build_demo_server is ~tens of
#: milliseconds; the bound is interpreter start + imports + bind)
READY_TIMEOUT_S = 60.0


def free_port(host: str = "127.0.0.1") -> int:
    """An ephemeral port, pre-allocated by a momentary bind.

    The port must be known *before* the replica process exists (the
    directory's membership is fixed at construction), so bind-to-0,
    read the assignment, close.  The tiny window in which another
    process could steal it is acceptable for a loopback test harness.
    """
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, 0))
        return sock.getsockname()[1]


def _repro_pythonpath() -> str:
    """PYTHONPATH that makes ``python -m repro`` resolve to *this* tree."""
    import repro
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    existing = os.environ.get("PYTHONPATH")
    return src if not existing else f"{src}{os.pathsep}{existing}"


class ReplicaProcess:
    """One ``python -m repro serve --http`` backend process."""

    def __init__(self, name: str, port: int, *, host: str = "127.0.0.1",
                 models: int = 2, workers: int = 1, seed: int = 0,
                 deadline_ms: float = 0.0):
        self.name = name
        self.host = host
        self.port = port
        self.models = models
        self.workers = workers
        self.seed = seed
        self.deadline_ms = deadline_ms
        self.proc: Optional[subprocess.Popen] = None
        self.spawns = 0
        self._stderr_path: Optional[str] = None

    @property
    def argv(self) -> List[str]:
        return [sys.executable, "-m", "repro", "serve",
                "--http", str(self.port), "--http-host", self.host,
                "--models", str(self.models),
                "--workers", str(self.workers),
                "--seed", str(self.seed),
                "--deadline-ms", str(self.deadline_ms)]

    def spawn(self) -> "ReplicaProcess":
        if self.alive:
            raise RuntimeError(f"replica {self.name} already running")
        env = dict(os.environ, PYTHONPATH=_repro_pythonpath())
        fd, self._stderr_path = tempfile.mkstemp(
            prefix=f"forms-replica-{self.name}-", suffix=".log")
        stderr = os.fdopen(fd, "wb")
        try:
            self.proc = subprocess.Popen(
                self.argv, env=env, stdout=subprocess.DEVNULL, stderr=stderr,
                start_new_session=True)
        finally:
            stderr.close()
        self.spawns += 1
        return self

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def stderr_tail(self, lines: int = 20) -> str:
        if self._stderr_path is None:
            return ""
        try:
            text = pathlib.Path(self._stderr_path).read_text(
                encoding="utf-8", errors="replace")
        except OSError:
            return ""
        return "\n".join(text.splitlines()[-lines:])

    def wait_ready(self, timeout: float = READY_TIMEOUT_S) -> None:
        """Poll ``/healthz`` until the replica answers 200."""
        client = HttpClient(self.host, self.port, timeout=2.0)
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if not self.alive:
                raise RuntimeError(
                    f"replica {self.name} died during boot "
                    f"(exit {self.proc.returncode}):\n{self.stderr_tail()}")
            try:
                status, _ = client.request("GET", HEALTHZ)
            except TRANSPORT_ERRORS:
                time.sleep(0.05)
                continue
            if status == 200:
                return
            time.sleep(0.05)
        raise TimeoutError(
            f"replica {self.name} not ready on port {self.port} within "
            f"{timeout:.0f}s:\n{self.stderr_tail()}")

    def kill(self) -> None:
        """SIGKILL — the chaos primitive: no drain, no goodbye, half-open
        connections left for the router to discover."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()

    def interrupt(self) -> None:
        """SIGINT — the graceful path: the serve loop drains and exits."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)

    def wait_exit(self, timeout: float = READY_TIMEOUT_S) -> Optional[int]:
        if self.proc is None:
            return None
        return self.proc.wait(timeout=timeout)

    def restart(self, timeout: float = READY_TIMEOUT_S) -> "ReplicaProcess":
        """Spawn again on the same port and wait until ready."""
        if self.alive:
            raise RuntimeError(f"replica {self.name} still running")
        self.close()   # reap + drop the old stderr file
        self.spawn()
        self.wait_ready(timeout)
        return self

    def close(self) -> None:
        """Kill (if needed), reap, and remove the stderr capture."""
        self.kill()
        self.proc = None
        if self._stderr_path is not None:
            try:
                os.unlink(self._stderr_path)
            except OSError:
                pass
            self._stderr_path = None


# ---------------------------------------------------------------------------
class ClusterHarness:
    """N subprocess replicas + directory + router, as one context.

    ``with ClusterHarness(3) as harness:`` boots three replicas of the
    identical demo build, waits for all of them, starts the health
    prober and the router, and yields; exit drains the router and kills
    every replica.  ``harness.kill(name)`` / ``harness.restart(name)``
    are the chaos controls.
    """

    def __init__(self, replicas: int = 2, *, models: int = 2,
                 workers: int = 1, seed: int = 0, deadline_ms: float = 0.0,
                 host: str = "127.0.0.1", router_port: int = 0,
                 policy: Optional[RoutingPolicy] = None,
                 replication: int = 2,
                 suspect_after: int = 1, down_after: int = 3,
                 probe_interval_s: float = 0.1,
                 log: Optional[Callable[[str], None]] = None,
                 directory_kwargs: Optional[Dict] = None):
        if replicas < 1:
            raise ValueError("a cluster needs at least one replica")
        self.replicas: Dict[str, ReplicaProcess] = {}
        for i in range(replicas):
            name = f"replica-{i}"
            self.replicas[name] = ReplicaProcess(
                name, free_port(host), host=host, models=models,
                workers=workers, seed=seed, deadline_ms=deadline_ms)
        self.directory = ReplicaDirectory(
            {name: (proc.host, proc.port)
             for name, proc in self.replicas.items()},
            replication=replication, suspect_after=suspect_after,
            down_after=down_after, probe_interval_s=probe_interval_s,
            log=log, **(directory_kwargs or {}))
        self.router = ClusterRouter(self.directory, policy=policy,
                                    host=host, port=router_port, log=log)
        self.log = log

    # -- lifecycle ----------------------------------------------------------
    def start(self, timeout: float = READY_TIMEOUT_S) -> "ClusterHarness":
        try:
            for proc in self.replicas.values():
                proc.spawn()
            for proc in self.replicas.values():
                proc.wait_ready(timeout)
            self.router.start()
        except BaseException:
            self.close()
            raise
        return self

    def close(self) -> None:
        self.router.shutdown()
        for proc in self.replicas.values():
            proc.close()

    def __enter__(self) -> "ClusterHarness":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- chaos controls -----------------------------------------------------
    def kill(self, name: str) -> None:
        if self.log is not None:
            self.log(f"chaos: SIGKILL {name}")
        self.replicas[name].kill()

    def restart(self, name: str, timeout: float = READY_TIMEOUT_S) -> None:
        if self.log is not None:
            self.log(f"chaos: restart {name}")
        self.replicas[name].restart(timeout)

    def client(self, **kwargs) -> HttpClient:
        """A wire client aimed at the router's front door."""
        return HttpClient(self.router.host, self.router.port, **kwargs)

    def names(self) -> Sequence[str]:
        return list(self.replicas)
