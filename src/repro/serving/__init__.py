"""Multi-tenant, SLA-scheduled request serving over the parallel runtime.

The "traffic" layer of the stack, grown from the PR-3 batch server into a
multiplexed one: several in-situ networks share one
:class:`~repro.runtime.WorkerPool` and one :class:`~repro.reram.DieCache`
(:class:`ModelRegistry` — FORMS's programmed dies are the scarce
resource, so identical weight codes across tenants program one die), and
an SLA scheduler replaces the FIFO batcher: requests carry a priority
class and an optional deadline, dispatch is strict class precedence with
earliest-deadline-first inside a class, overdue requests are **shed**
with an explicit receipt (:class:`RequestShed` / :class:`ShedReceipt` —
never a hang, never dispatched), and an :class:`AdmissionController`
throttles intake from the occupancy/queue-depth gauges.

Callers still submit **single images**; every batch dispatches as one
tile per request on the shared pool, so a served request stays
**bit-identical** to a standalone single-image call at any batch
composition, worker count, tenant mix and scheduling outcome (shedding
one class never perturbs survivors), read noise included.

Components
----------
* :class:`ModelRegistry` / :class:`RegisteredModel` — the tenant table:
  register/unregister/warm-up, per-model request shapes, die-reuse stats.
* :class:`SlaPolicy` / :class:`PriorityClass` / :class:`SlaQueue` — the
  scheduling policy and the multi-class queue behind the dispatch loop;
  :meth:`SlaPolicy.fifo` is the degenerate single-class policy the
  classic FIFO server runs on.
* :class:`AdmissionController` — intake throttle on the
  :class:`ServerStats` gauges.
* :class:`InferenceServer` — the facade: ``submit(image, model=...,
  priority=..., deadline_s=...)`` / ``submit_async`` / ``submit_many``,
  graceful draining ``shutdown``, and ``from_model(...)`` lowering a
  float model through :func:`repro.reram.build_insitu_network`.
* :class:`Batcher` — the dispatch loop draining the :class:`SlaQueue`.
* The wire (protocol reference in ``docs/serving.md``), one
  implementation in four layers: :mod:`repro.serving.wire` (codecs,
  envelopes, :data:`ERROR_CODES`, the exception -> error-reply map) →
  :mod:`repro.serving.routes` (the one ``(method, path)`` table —
  ``POST /v1/infer``, ``/v1/infer_batch``, ``GET /v1/models``,
  ``/v1/stats``, ``/healthz``, … — over a replica or router backend) →
  two shells that only move bytes → :mod:`repro.serving.client`
  (:class:`HttpClient`, the other end of the same codecs).
* :class:`HttpFrontend` (:mod:`repro.serving.http`) — the threaded
  shell: std-lib ``ThreadingHTTPServer``, one thread per connection,
  draining shutdown.
* :class:`AsyncFrontend` (:mod:`repro.serving.aio`) — the asyncio
  shell: thousands of multiplexed connections bridged onto
  ``submit_async`` with one ``run_in_executor`` hop per request,
  server-sent-event streaming (``POST /v1/infer_batch?stream=1``,
  event types :data:`STREAM_EVENTS`), and connection-count /
  inflight-bytes backpressure through
  :meth:`AdmissionController.admit_transport` — transport refusals are
  :data:`TRANSPORT_SCOPE` shed receipts, accounted like queue sheds.
  The SLA policy's ``weighted_fair`` mode (deficit-round-robin with
  aging over the class ``weight``s) keeps bulk progressing under
  interactive saturation; ``strict`` keeps the historical precedence.
* :class:`ClusterRouter` / :class:`ReplicaDirectory` /
  :class:`ClusterHarness` (:mod:`repro.serving.cluster`) — the sharded
  cluster over N replica front ends (the router is the route table's
  second backend, on the threaded shell): consistent-hash placement,
  health-checked failover and hedging, scatter/gather batches,
  ``cluster_unavailable`` receipts, and the subprocess kill/restart
  chaos harness behind ``python -m repro serve --cluster N``.
* :class:`ServerStats` / :class:`RequestStats` — the one store of
  served-side counts, read three ways (``/v1/stats``: p50/p95 latency
  overall and per class / per model, shed counts by reason, batch mix,
  occupancy, fault detections and recoveries; ``/v1/usage``: per-tenant
  requests, sheds, macs and die-seconds; the ``/metrics`` counters) and
  the per-request receipt (queue wait, batch ridden,
  model, class, the exact per-request slice of the shared engines'
  merged ``EngineStats``, and — after a die recovery — the recovery
  receipt).
* :class:`~repro.obs.Observability` (re-exported from :mod:`repro.obs`)
  — the telemetry bundle every server and router carries by default:
  the ``/metrics`` Prometheus exposition, the ``/v1/trace/<id>`` span
  ring and the opt-in engine profiler — all read-only w.r.t. numerics (``docs/observability.md``).
* :class:`DieHealthRegistry` — per-die health states
  (``healthy`` / ``quarantined`` / ``reprogramming``) behind the
  ``/healthz`` die-pool summary; driven by the dispatch path's online
  fault recovery (checksum detection via
  :class:`~repro.reram.faults.DieGuard`, quarantine, re-program through
  the shared die cache, bounded batch retry — ``detect_faults=True`` on
  the server; scripted chaos via
  :class:`~repro.reram.faults.FaultInjector`).  Retry-exhausted batches
  shed with :data:`SHED_FAULT_RECOVERY` receipts.

``python -m repro serve`` is the entry point: what it serves is decided
in :mod:`repro.serving.demo` (not imported here — import it explicitly),
which runs the self-checking in-process demo, the ``--http`` server and
the ``--cluster`` router over one build.  Served latency and goodput are
measured by ``benchmarks/e2e/run.py``.
"""

from ..obs import Observability
from ..obs.trace import new_trace_id
from .aio import TRANSPORT_SCOPE, AsyncFrontend
from .client import HttpClient, HttpError, WireResult
from .cluster import (ClusterHarness, ClusterRouter, ReplicaDirectory,
                      ReplicaProcess, RoutingPolicy)
from .health import (DIE_HEALTHY, DIE_QUARANTINED, DIE_REPROGRAMMING,
                     DieHealthRegistry)
from .http import HttpFrontend
from .queue import Batcher, QueueClosed
from .registry import ModelRegistry, RegisteredModel
from .scheduler import (SHED_ADMISSION, SHED_DEADLINE, SHED_FAULT_RECOVERY,
                        SHED_LATENCY_BOUND, SLA_MODE_STRICT,
                        SLA_MODE_WEIGHTED_FAIR, SLA_MODES,
                        AdmissionController, PriorityClass, RequestShed,
                        ShedReceipt, SlaPolicy, SlaQueue, SlaRequest)
from .server import DEFAULT_MODEL, InferenceServer
from .stats import RequestStats, ServedResult, ServerStats
from .wire import (DEFAULT_RETRY_AFTER_S, ERROR_CODES, STREAM_EVENTS,
                   WireFormatError, iter_sse_events)

__all__ = [
    "AdmissionController", "AsyncFrontend", "Batcher", "ClusterHarness",
    "ClusterRouter",
    "DEFAULT_MODEL", "DEFAULT_RETRY_AFTER_S",
    "DIE_HEALTHY", "DIE_QUARANTINED", "DIE_REPROGRAMMING",
    "DieHealthRegistry", "ERROR_CODES",
    "HttpClient", "HttpError", "HttpFrontend", "InferenceServer",
    "ModelRegistry", "Observability", "PriorityClass",
    "QueueClosed",
    "RegisteredModel", "ReplicaDirectory", "ReplicaProcess",
    "RequestShed", "RequestStats", "RoutingPolicy",
    "SHED_ADMISSION", "SHED_DEADLINE", "SHED_FAULT_RECOVERY",
    "SHED_LATENCY_BOUND",
    "SLA_MODES", "SLA_MODE_STRICT", "SLA_MODE_WEIGHTED_FAIR",
    "STREAM_EVENTS", "ServedResult",
    "ServerStats", "ShedReceipt", "SlaPolicy", "SlaQueue", "SlaRequest",
    "TRANSPORT_SCOPE", "WireFormatError", "WireResult", "iter_sse_events",
    "new_trace_id",
]
