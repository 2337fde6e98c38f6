"""Per-request and server-wide serving statistics.

:class:`RequestStats` is the receipt attached to every served request:
where its latency went (queue wait vs service), which batch it rode in,
which model and priority class it belonged to, and the exact slice of the
shared engines' :class:`~repro.reram.engine.EngineStats` its tile
accounted for (conversions, scheduled/skipped jobs and pairs — see
:func:`repro.runtime.infer_tiles`).

:class:`ServerStats` is the one store of every served-side count —
completions, sheds, failures, faults, batches — held once under one
lock.  ``GET /v1/stats`` (:meth:`~ServerStats.snapshot`), ``GET
/v1/usage`` (:meth:`~ServerStats.usage`) and ``GET /metrics`` (the
families :meth:`~ServerStats.expose` registers) are three reads of it.

Every aggregation is guarded against empty and zero-duration windows: a
snapshot taken before any request completes (or before wall time has
measurably advanced) returns zeros, never a division-by-zero or an
empty-percentile crash — the admission controller polls these gauges from
the submit path, where a crash would reject traffic.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import MetricsRegistry, instrument


def _percentile(values: Sequence[float], q: float) -> float:
    """``np.percentile`` with the empty-window guard (empty -> 0.0)."""
    if not len(values):
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _mean(values: Sequence[float]) -> float:
    if not len(values):
        return 0.0
    return float(np.asarray(values, dtype=np.float64).mean())


@dataclass(frozen=True)
class RequestStats:
    """Accounting of one served request.

    ``latency_s`` is enqueue to completion; ``queue_wait_s`` is enqueue to
    batch dispatch; ``service_s`` is the wall clock of the batch dispatch
    the request rode in (shared with its batch mates — tiles of one batch
    run concurrently, so per-request service time is not separable).
    ``engine_stats`` is this request's exact slice of the shared engines'
    merged stats.  ``model`` / ``priority_class`` name the tenant and the
    SLA class the request was served under (the single-model FIFO server
    uses ``"default"`` for both); ``deadline_s`` is the relative deadline
    it carried, if any.
    """

    request_id: int
    batch_id: int
    batch_size: int
    queue_wait_s: float
    service_s: float
    latency_s: float
    engine_stats: Dict[str, int]
    model: str = "default"
    priority_class: str = "default"
    deadline_s: Optional[float] = None
    #: recovery receipt — present only when this request's batch rode a die
    #: fault: which die was quarantined, how it was diagnosed, what the
    #: [29]-style remap planner said, and how many dispatch retries the
    #: batch took before completing (bit-identically) on the restored die.
    recovery: Optional[Dict] = None
    #: cross-process trace id (the wire's ``X-Request-Id``): the same
    #: string in the router's log, the replica's receipt and the caller's
    #: error body — always populated (the server mints one when the
    #: caller passes none), so every receipt is queryable at
    #: ``GET /v1/trace/<id>``.
    trace_id: Optional[str] = None
    #: the request's span tree (see ``docs/observability.md``): where the
    #: latency went — queue wait, batch ride, per-tile dispatch, and (with
    #: engine profiling armed) per-layer engine tiers.  ``None`` when the
    #: server runs with tracing disabled.
    spans: Optional[List[Dict]] = None

    def as_dict(self) -> Dict:
        return {
            "request_id": self.request_id,
            "batch_id": self.batch_id,
            "batch_size": self.batch_size,
            "queue_wait_s": self.queue_wait_s,
            "service_s": self.service_s,
            "latency_s": self.latency_s,
            "engine_stats": dict(self.engine_stats),
            "model": self.model,
            "priority_class": self.priority_class,
            "deadline_s": self.deadline_s,
            "recovery": (dict(self.recovery)
                         if self.recovery is not None else None),
            "trace_id": self.trace_id,
            "spans": self.spans,
        }


@dataclass(frozen=True)
class ServedResult:
    """What :meth:`repro.serving.InferenceServer.submit` returns."""

    output: np.ndarray
    stats: RequestStats


#: the latency / queue-wait distributions keep the most recent ``WINDOW``
#: entries (overall and per group); every count is exact over the lifetime
WINDOW = 4096

#: one ``/v1/usage`` cell, zeroed
_USAGE_ZERO = {"requests": 0, "sheds": 0, "macs": 0, "die_seconds": 0.0}

#: the unlabelled counter families and the count each one reads
_COUNTER_FAMILIES = (
    ("forms_requests_failed_total", "requests_failed"),
    ("forms_requests_recovered_total", "requests_recovered"),
    ("forms_faults_detected_total", "faults_detected"),
    ("forms_fault_recoveries_total", "fault_recoveries"),
    ("forms_batches_total", "batches_formed"),
)


class _Window:
    """Sliding latency / queue-wait window of one group."""

    __slots__ = ("latencies", "queue_waits")

    def __init__(self):
        self.latencies: Deque[float] = deque(maxlen=WINDOW)
        self.queue_waits: Deque[float] = deque(maxlen=WINDOW)

    def append(self, stats: RequestStats) -> None:
        self.latencies.append(stats.latency_s)
        self.queue_waits.append(stats.queue_wait_s)


_EMPTY_WINDOW = _Window()


class ServerStats:
    """The one store of the served side: every count once, three reads.

    The server makes one call per event: :meth:`record_batch` per
    dispatched batch, :meth:`record_request` per completed request,
    :meth:`record_shed` per shed request, :meth:`record_failure` per
    failed batch, :meth:`record_fault_detected` per checksum trip and
    :meth:`record_recovery` per completed quarantine→re-program cycle.

    The counts are *cells*: completed requests, ``macs`` and
    ``die_seconds`` per (model, class), and sheds per (model, class,
    reason), beside the failed, fault, recovery and batch counters.
    Every total — ``per_class``, ``per_model``, ``shed_by_reason``,
    :meth:`usage` — is a sum over the cells under the same lock, so
    usage == served + shed holds by construction.  Three reads render
    them: :meth:`snapshot` (``GET /v1/stats``), :meth:`usage`
    (``GET /v1/usage``) and the families :meth:`expose` registers
    (``GET /metrics``).

    The latency/queue-wait *distributions* are kept in sliding windows
    of the most recent :data:`WINDOW` entries, so a long-running server
    neither grows without bound nor pays more than O(window) per
    snapshot.  All reductions go through the empty/zero-duration-window
    guards (see the module docstring).  The lock is re-entrant, so one
    caller may hold it across several reads of the same instant.
    """

    def __init__(self):
        self._lock = threading.RLock()
        self._started = time.monotonic()
        #: (model, class) -> [requests, macs, die_seconds]
        self._served: Dict[Tuple[str, str], List] = {}
        #: (model, class, reason) -> sheds
        self._shed: Dict[Tuple[str, str, str], int] = {}
        self.requests_failed = 0
        self.faults_detected = 0
        self.fault_recoveries = 0
        self.requests_recovered = 0
        self.batches_formed = 0
        self.batch_size_sum = 0
        self.batch_size_max = 0
        self.busy_s = 0.0
        self._all = _Window()
        self._by_class: Dict[str, _Window] = {}
        self._by_model: Dict[str, _Window] = {}
        # until exposed, the histograms observe into no-op instruments
        self.expose(MetricsRegistry(enabled=False))

    def expose(self, metrics: MetricsRegistry) -> None:
        """Render this store on ``metrics`` (``GET /metrics``): the counter
        families and the occupancy gauge read the cells at collect time;
        the three histograms are observed as batches and requests are
        recorded."""
        self._h_batch_size = instrument(metrics, "forms_batch_size")
        self._h_batch_size.labels()   # reported at zero before any batch
        self._h_latency = instrument(metrics,
                                     "forms_request_latency_seconds")
        self._h_queue_wait = instrument(metrics, "forms_queue_wait_seconds")
        instrument(metrics, "forms_requests_completed_total",
                   source=self._completed_cells)
        instrument(metrics, "forms_requests_shed_total",
                   source=self._shed_cells)
        instrument(metrics, "forms_occupancy",
                   source=lambda: {(): self.occupancy()})
        for name, count in _COUNTER_FAMILIES:
            instrument(metrics, name,
                       source=lambda count=count: {(): getattr(self, count)})

    # ------------------------------------------------------------------
    def record_batch(self, size: int, service_s: float) -> None:
        with self._lock:
            self.batches_formed += 1
            self.batch_size_sum += size
            self.batch_size_max = max(self.batch_size_max, size)
            self.busy_s += service_s
        self._h_batch_size.observe(size)

    def record_request(self, stats: RequestStats) -> None:
        """Count one completed request: its (model, class) cell bills
        the receipt's ``macs`` and the batch's full service time."""
        key = (stats.model, stats.priority_class)
        with self._lock:
            cell = self._served.get(key)
            if cell is None:
                cell = self._served[key] = [0, 0, 0.0]
            cell[0] += 1
            cell[1] += int(stats.engine_stats.get("macs", 0))
            cell[2] += float(stats.service_s)
            self.requests_recovered += stats.recovery is not None
            self._all.append(stats)
            for groups, name in ((self._by_class, stats.priority_class),
                                 (self._by_model, stats.model)):
                window = groups.get(name)
                if window is None:
                    window = groups[name] = _Window()
                window.append(stats)
        self._h_latency.labels(*key).observe(stats.latency_s)
        self._h_queue_wait.labels(
            stats.priority_class).observe(stats.queue_wait_s)

    def record_shed(self, receipt) -> None:
        """Count one shed request (a :class:`~repro.serving.scheduler.
        ShedReceipt`) in its (model, class, reason) cell."""
        key = (receipt.model, receipt.priority_class, receipt.reason)
        with self._lock:
            self._shed[key] = self._shed.get(key, 0) + 1

    def record_failure(self, count: int = 1) -> None:
        with self._lock:
            self.requests_failed += count

    def record_fault_detected(self) -> None:
        """Count one checksum detection (a die tripped its guard)."""
        with self._lock:
            self.faults_detected += 1

    def record_recovery(self) -> None:
        """Count one completed quarantine→re-program cycle (a request
        that rode a recovered batch is counted by :meth:`record_request`
        from its receipt's ``recovery`` block)."""
        with self._lock:
            self.fault_recoveries += 1

    # ------------------------------------------------------------------
    def _completed_cells(self) -> Dict[Tuple[str, str], int]:
        with self._lock:
            return {key: cell[0] for key, cell in self._served.items()}

    def _shed_cells(self) -> Dict[Tuple[str, str, str], int]:
        with self._lock:
            return dict(self._shed)

    def _groups(self, axis: int, windows: Dict[str, _Window]) -> Dict:
        """Per-model (``axis`` 0) or per-class (1) sums of the cells plus
        that group's window; caller holds the lock."""
        counts: Dict[str, List[int]] = {}
        for key, cell in self._served.items():
            counts.setdefault(key[axis], [0, 0])[0] += cell[0]
        for key, sheds in self._shed.items():
            counts.setdefault(key[axis], [0, 0])[1] += sheds
        out = {}
        for name, (completed, shed) in counts.items():
            window = windows.get(name, _EMPTY_WINDOW)
            out[name] = {
                "completed": completed,
                "shed": shed,
                "latency_p50_s": _percentile(window.latencies, 50),
                "latency_p95_s": _percentile(window.latencies, 95),
                "queue_wait_p95_s": _percentile(window.queue_waits, 95),
            }
        return out

    def latency_percentile(self, q: float) -> float:
        """The ``q``-th latency percentile (0-100) over completed requests."""
        with self._lock:
            return _percentile(self._all.latencies, q)

    def occupancy(self) -> float:
        """Fraction of wall time since server start the dispatch path was
        busy (0.0 until wall time has measurably advanced) — the
        admission gauge."""
        with self._lock:
            elapsed = time.monotonic() - self._started
            return self.busy_s / elapsed if elapsed > 0 else 0.0

    def snapshot(self, queue_depth: Optional[int] = None) -> Dict:
        """One consistent JSON-ready view of everything recorded so far."""
        with self._lock:
            elapsed = time.monotonic() - self._started
            completed = sum(cell[0] for cell in self._served.values())
            shed_by_reason: Dict[str, int] = {}
            for (_, _, reason), sheds in self._shed.items():
                shed_by_reason[reason] = shed_by_reason.get(reason, 0) + sheds
            latencies = self._all.latencies
            snap = {
                "requests_completed": completed,
                "requests_failed": self.requests_failed,
                "requests_shed": sum(shed_by_reason.values()),
                "shed_by_reason": shed_by_reason,
                "faults_detected": self.faults_detected,
                "fault_recoveries": self.fault_recoveries,
                "requests_recovered": self.requests_recovered,
                "batches_formed": self.batches_formed,
                "mean_batch_size": (self.batch_size_sum / self.batches_formed
                                    if self.batches_formed else 0.0),
                "max_batch_size": self.batch_size_max,
                "elapsed_s": elapsed,
                "occupancy": self.busy_s / elapsed if elapsed > 0 else 0.0,
                "throughput_rps": completed / elapsed if elapsed > 0 else 0.0,
                "latency_p50_s": _percentile(latencies, 50),
                "latency_p95_s": _percentile(latencies, 95),
                "latency_max_s": float(max(latencies)) if latencies else 0.0,
                "queue_wait_mean_s": _mean(self._all.queue_waits),
                "queue_wait_p95_s": _percentile(self._all.queue_waits, 95),
                "per_class": self._groups(1, self._by_class),
                "per_model": self._groups(0, self._by_model),
            }
        if queue_depth is not None:
            snap["queue_depth"] = queue_depth
        return snap

    def usage(self) -> Dict:
        """The ``GET /v1/usage`` body, summed from the same cells:
        ``{"by_model": {model: {class: cell}}, "totals": cell}`` with
        ``requests``, ``sheds``, ``macs`` and ``die_seconds`` per cell."""
        with self._lock:
            cells = {key: {"requests": requests, "sheds": 0, "macs": macs,
                           "die_seconds": die_seconds}
                     for key, (requests, macs, die_seconds)
                     in self._served.items()}
            for (model, cls, _), sheds in self._shed.items():
                cells.setdefault((model, cls), dict(_USAGE_ZERO))[
                    "sheds"] += sheds
        by_model: Dict[str, Dict] = {}
        totals = dict(_USAGE_ZERO)
        for (model, cls), cell in sorted(cells.items()):
            by_model.setdefault(model, {})[cls] = cell
            for name in totals:
                totals[name] += cell[name]
        return {"by_model": by_model, "totals": totals}
