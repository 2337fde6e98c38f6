"""End-to-end observability: metrics and request tracing.

The telemetry substrate of the serving stack (PR 9), spanning every
layer — engine tiers, the tile runtime, the SLA server, the HTTP front
end and the cluster router — under one hard rule: **observability is
read-only with respect to numerics**.  Instruments time and count; they
never touch an operand, so the bit-exactness contract survives with
tracing and metrics armed (proven by the backend-equivalence
differential matrix in ``tests/obs/``).

* :mod:`repro.obs.metrics` — lock-cheap :class:`MetricsRegistry`
  (counters / gauges / fixed-bucket histograms with labels), Prometheus
  text exposition (``GET /metrics``), strict parser for the tests;
* :mod:`repro.obs.catalog` — :data:`METRIC_CATALOG`, the declarative
  table of every default-wiring metric (check_docs gates its
  documentation);
* :mod:`repro.obs.trace` — span-tree request tracing keyed on the wire
  ``x-request-id`` (:class:`SpanRecorder`, thread-local :func:`bind`,
  bounded :class:`TraceRing` behind ``GET /v1/trace/<id>``);
* :mod:`repro.obs.profile` — opt-in :class:`EngineProfiler`: per-tier
  wall-time histograms inside ``matvec_int`` dispatch;
* :mod:`repro.obs.observability` — the :class:`Observability` bundle a
  server carries.

Counts live in the serving stores (``ServerStats`` also renders
``GET /v1/usage``); ``/metrics`` reads them through sourced families.

Operator reference: ``docs/observability.md``.
"""

from .catalog import METRIC_CATALOG, instrument, metric_names
from .metrics import (BATCH_SIZE_BUCKETS, ENGINE_BUCKETS_S,
                      LATENCY_BUCKETS_S, PROMETHEUS_CONTENT_TYPE,
                      MetricsRegistry, parse_prometheus_text)
from .observability import Observability
from .profile import EngineProfiler
from .trace import (SpanRecorder, TraceRing, active_recorder, bind,
                    new_trace_id, record_event, span_dict)

__all__ = [
    "BATCH_SIZE_BUCKETS", "ENGINE_BUCKETS_S", "LATENCY_BUCKETS_S",
    "METRIC_CATALOG", "MetricsRegistry", "Observability",
    "EngineProfiler", "PROMETHEUS_CONTENT_TYPE", "SpanRecorder",
    "TraceRing", "active_recorder", "bind", "instrument",
    "metric_names", "new_trace_id", "parse_prometheus_text",
    "record_event", "span_dict",
]
