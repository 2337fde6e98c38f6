"""Replica membership, health and placement for the cluster router.

The directory answers two questions the router asks on every request:

* **who is alive?** — a background prober polls each replica's
  ``GET /healthz`` and folds the answers (plus the router's own
  request outcomes, via :meth:`ReplicaDirectory.report_success` /
  :meth:`~ReplicaDirectory.report_failure`) into a three-state health
  machine: ``up`` -> ``suspect`` (after ``suspect_after`` consecutive
  failures) -> ``down`` (after ``down_after``), with any success
  snapping straight back to ``up``.  A PR-6 ``degraded`` die state
  (HTTP 200) keeps the replica ``up`` — it is serving correctly, just
  worth an operator's look; a *draining* replica (HTTP 503) counts as
  a failure — no new work should land there.
* **who should serve model M?** — consistent hashing on the model id
  over a :class:`HashRing` of virtual nodes (sha256, never Python's
  per-process-salted ``hash``), so placement is stable across router
  restarts and moves only ``1/N`` of the keys when a replica joins or
  leaves.  ``replication`` preferred replicas per model; because the
  demo replicas are homogeneous (every replica serves every model),
  :meth:`ReplicaDirectory.candidates` spills past the preferred set to
  any live replica unless ``strict_placement`` pins it.

Everything is lock-protected and snapshot-readable (``/v1/cluster``
serves :meth:`ReplicaDirectory.snapshot` verbatim).
"""

from __future__ import annotations

import bisect
import hashlib
import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..client import TRANSPORT_ERRORS, HttpClient
from ..routes import HEALTHZ

#: replica health states (the /v1/cluster wire vocabulary)
REPLICA_UP = "up"
REPLICA_SUSPECT = "suspect"
REPLICA_DOWN = "down"


def _ring_hash(key: str) -> int:
    """Stable 64-bit ring position (sha256 prefix — process-independent,
    unlike the builtin salted ``hash``)."""
    return int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:8],
                          "big")


class HashRing:
    """Consistent hashing over replica names with virtual nodes.

    ``vnodes`` points per replica smooth the arc lengths so load skew
    shrinks as ``1/sqrt(vnodes)``; :meth:`preferred` walks clockwise
    from the key's position collecting *distinct* replicas, which is
    exactly the failover order — replica ``k+1`` is where the keys of a
    dead replica ``k`` land.
    """

    def __init__(self, names: Sequence[str], *, vnodes: int = 64):
        if not names:
            raise ValueError("HashRing needs at least one replica")
        if len(set(names)) != len(names):
            raise ValueError("replica names must be unique")
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = vnodes
        points: List[Tuple[int, str]] = []
        for name in names:
            for v in range(vnodes):
                points.append((_ring_hash(f"{name}#{v}"), name))
        points.sort()
        self._points = points
        self._hashes = [point for point, _ in points]
        self._names = list(names)

    def preferred(self, key: str, count: int) -> List[str]:
        """The first ``count`` *distinct* replicas clockwise of ``key``."""
        count = min(count, len(self._names))
        start = bisect.bisect(self._hashes, _ring_hash(key))
        chosen: List[str] = []
        for i in range(len(self._points)):
            name = self._points[(start + i) % len(self._points)][1]
            if name not in chosen:
                chosen.append(name)
                if len(chosen) == count:
                    break
        return chosen


class ReplicaState:
    """Mutable health + accounting of one replica (guarded by the
    directory's lock)."""

    __slots__ = ("name", "host", "port", "state", "consecutive_failures",
                 "probes", "probe_failures", "attempts", "failures",
                 "last_healthz", "transitions")

    def __init__(self, name: str, host: str, port: int):
        self.name = name
        self.host = host
        self.port = port
        self.state = REPLICA_UP
        self.consecutive_failures = 0
        self.probes = 0
        self.probe_failures = 0
        self.attempts = 0          # proxied request attempts
        self.failures = 0          # ... that failed retryably
        self.last_healthz: Optional[Dict] = None
        self.transitions = 0       # up/suspect/down edges (flap gauge)

    def as_dict(self) -> Dict:
        return {
            "name": self.name,
            "host": self.host,
            "port": self.port,
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "probes": self.probes,
            "probe_failures": self.probe_failures,
            "attempts": self.attempts,
            "failures": self.failures,
            "transitions": self.transitions,
            "last_healthz": self.last_healthz,
        }


class ReplicaDirectory:
    """Health-checked membership + consistent-hash placement.

    Parameters
    ----------
    replicas:
        ``{name: (host, port)}`` — the backend :class:`HttpFrontend`
        addresses.  Membership is fixed for the directory's lifetime
        (kill/restart of a *known* replica is the supported churn).
    replication:
        Preferred replicas per model (the hot-model knob); capped at the
        replica count.
    suspect_after / down_after:
        Consecutive-failure thresholds of the health machine.  One
        success resets to ``up`` from either state.
    probe_interval_s:
        Background ``/healthz`` poll period (:meth:`start`); probing can
        also be driven synchronously via :meth:`probe_once` (tests, and
        the router's pre-flight).
    probe_timeout_s:
        Socket timeout of one probe round trip.
    strict_placement:
        Refuse to spill beyond the ``replication`` preferred replicas —
        for heterogeneous clusters where only the preferred set holds
        the model's dies.  The homogeneous demo default spills to any
        live replica before giving up.
    client_factory:
        ``(host, port, timeout) -> client`` hook (tests inject scripted
        probes).
    """

    def __init__(self, replicas: Dict[str, Tuple[str, int]], *,
                 replication: int = 2, vnodes: int = 64,
                 suspect_after: int = 1, down_after: int = 3,
                 probe_interval_s: float = 0.2,
                 probe_timeout_s: float = 2.0,
                 strict_placement: bool = False,
                 client_factory: Optional[Callable] = None,
                 log: Optional[Callable[[str], None]] = None):
        if not replicas:
            raise ValueError("a cluster needs at least one replica")
        if replication < 1:
            raise ValueError("replication must be >= 1")
        if not 1 <= suspect_after <= down_after:
            raise ValueError("need 1 <= suspect_after <= down_after")
        if probe_interval_s <= 0 or probe_timeout_s <= 0:
            raise ValueError("probe intervals/timeouts must be > 0")
        self.replication = min(replication, len(replicas))
        self.suspect_after = suspect_after
        self.down_after = down_after
        self.probe_interval_s = probe_interval_s
        self.probe_timeout_s = probe_timeout_s
        self.strict_placement = strict_placement
        self.log = log
        self._client_factory = (client_factory if client_factory is not None
                                else HttpClient)
        self._lock = threading.Lock()
        self._replicas: Dict[str, ReplicaState] = {
            name: ReplicaState(name, host, port)
            for name, (host, port) in replicas.items()}
        self.ring = HashRing(list(replicas), vnodes=vnodes)
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- membership ---------------------------------------------------------
    def names(self) -> List[str]:
        return list(self._replicas)

    def replica(self, name: str) -> ReplicaState:
        return self._replicas[name]

    def endpoint(self, name: str) -> Tuple[str, int]:
        replica = self._replicas[name]
        return replica.host, replica.port

    # -- health machine -----------------------------------------------------
    def _apply_outcome(self, name: str, ok: bool) -> None:
        """One success/failure observation -> state edge (lock held)."""
        replica = self._replicas[name]
        before = replica.state
        if ok:
            replica.consecutive_failures = 0
            replica.state = REPLICA_UP
        else:
            replica.consecutive_failures += 1
            if replica.consecutive_failures >= self.down_after:
                replica.state = REPLICA_DOWN
            elif replica.consecutive_failures >= self.suspect_after:
                replica.state = REPLICA_SUSPECT
        if replica.state != before:
            replica.transitions += 1
            if self.log is not None:
                self.log(f"replica {name}: {before} -> {replica.state}")

    def report_success(self, name: str) -> None:
        """Fold one successful proxied attempt into the health machine."""
        with self._lock:
            self._replicas[name].attempts += 1
            self._apply_outcome(name, True)

    def report_failure(self, name: str) -> None:
        """Fold one retryable proxied-attempt failure in."""
        with self._lock:
            replica = self._replicas[name]
            replica.attempts += 1
            replica.failures += 1
            self._apply_outcome(name, False)

    # -- probing ------------------------------------------------------------
    def _probe(self, replica: ReplicaState) -> Tuple[bool, Optional[Dict]]:
        """One ``GET /healthz`` round trip (no lock held).

        200 (``ok`` *or* ``degraded``) is healthy; 503 is a draining
        replica — alive, but refusing work, so a routing failure.
        """
        client = self._client_factory(replica.host, replica.port,
                                      self.probe_timeout_s)
        try:
            status, payload = client.request("GET", HEALTHZ)
        except TRANSPORT_ERRORS:
            return False, None
        return status == 200, payload if isinstance(payload, dict) else None

    def probe_once(self) -> Dict[str, str]:
        """Probe every replica once; returns ``{name: state}`` after."""
        with self._lock:
            targets = list(self._replicas.values())
        outcomes = [(replica.name, *self._probe(replica))
                    for replica in targets]
        with self._lock:
            for name, ok, payload in outcomes:
                replica = self._replicas[name]
                replica.probes += 1
                if not ok:
                    replica.probe_failures += 1
                if payload is not None:
                    replica.last_healthz = payload
                self._apply_outcome(name, ok)
            return {name: replica.state
                    for name, replica in self._replicas.items()}

    def start(self) -> "ReplicaDirectory":
        """Launch the background prober (idempotent)."""
        if self._thread is None:
            self._thread = threading.Thread(target=self._probe_loop,
                                            name="forms-cluster-probe",
                                            daemon=True)
            self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def _probe_loop(self) -> None:
        while not self._stop.wait(self.probe_interval_s):
            self.probe_once()

    # -- placement ----------------------------------------------------------
    def placement(self, model: Optional[str]) -> List[str]:
        """The ``replication`` preferred replicas of ``model`` (hash
        order = failover order); ``None`` keys the default placement."""
        return self.ring.preferred(model if model is not None else "",
                                   self.replication)

    def candidates(self, model: Optional[str]) -> List[str]:
        """Routable replicas for ``model``, best first.

        Preferred ``up`` replicas in ring order, then preferred
        ``suspect`` ones (they get a chance before spilling — one
        success snaps them back to ``up``), then — unless
        ``strict_placement`` — the remaining ``up`` and ``suspect``
        replicas in ring order.  ``down`` replicas are never returned;
        an empty list means ``cluster_unavailable``.
        """
        preferred = self.placement(model)
        rest = [name for name in
                self.ring.preferred(model if model is not None else "",
                                    len(self._replicas))
                if name not in preferred]
        with self._lock:
            states = {name: replica.state
                      for name, replica in self._replicas.items()}
        ordered = [name for name in preferred
                   if states[name] == REPLICA_UP]
        ordered += [name for name in preferred
                    if states[name] == REPLICA_SUSPECT]
        if not self.strict_placement:
            ordered += [name for name in rest if states[name] == REPLICA_UP]
            ordered += [name for name in rest
                        if states[name] == REPLICA_SUSPECT]
        return ordered

    # -- introspection ------------------------------------------------------
    def snapshot(self) -> Dict:
        """The ``/v1/cluster`` directory view: config, per-replica health
        and counters, and the up/suspect/down tally."""
        with self._lock:
            replicas = {name: replica.as_dict()
                        for name, replica in self._replicas.items()}
        counts = {REPLICA_UP: 0, REPLICA_SUSPECT: 0, REPLICA_DOWN: 0}
        for info in replicas.values():
            counts[info["state"]] += 1
        return {
            "replicas": replicas,
            "counts": counts,
            "replication": self.replication,
            "strict_placement": self.strict_placement,
            "suspect_after": self.suspect_after,
            "down_after": self.down_after,
            "probe_interval_s": self.probe_interval_s,
        }
