"""The metric catalog: every instrument the default wiring registers.

One declarative table, three consumers:

* the serving/router wiring registers instruments *from* it
  (:func:`instrument`), so a metric cannot exist without a catalog row;
* ``scripts/check_docs.py`` introspects it and fails the check set if
  any name is missing from ``docs/observability.md`` — the exported
  surface and its documentation cannot drift;
* ``docs/observability.md`` is generated to match it (name / type /
  labels / help).

Counter and gauge rows that count what a store already holds
(``ServerStats``, ``RouterStats``, die health, ``EngineStats``, the
asyncio shell's sockets) are registered with a *source* read at collect
time; the rest are incremented at their one record site.  Histogram rows
observe on the hot path.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from .metrics import (BATCH_SIZE_BUCKETS, ENGINE_BUCKETS_S,
                      LATENCY_BUCKETS_S, MetricsRegistry, Source)


def _spec(name: str, kind: str, labels: Tuple[str, ...], help_text: str,
          buckets: Sequence[float] = ()) -> Dict:
    return {"name": name, "kind": kind, "labels": labels,
            "help": help_text, "buckets": tuple(buckets)}


#: every metric name the default server + router wiring exports
METRIC_CATALOG: Tuple[Dict, ...] = (
    # -- server: request lifecycle (read from ServerStats) ---------------
    _spec("forms_requests_completed_total", "counter", ("model", "class"),
          "Requests served to completion, by tenant model and SLA class."),
    _spec("forms_requests_shed_total", "counter",
          ("model", "class", "reason"),
          "Requests refused with a shed receipt, by shed reason."),
    _spec("forms_requests_failed_total", "counter", (),
          "Requests that failed with an unexpected error."),
    _spec("forms_requests_recovered_total", "counter", (),
          "Requests completed only after an online die-fault recovery."),
    _spec("forms_faults_detected_total", "counter", (),
          "Die faults detected by the checksum guards."),
    _spec("forms_fault_recoveries_total", "counter", (),
          "Online die re-program recoveries completed."),
    _spec("forms_batches_total", "counter", (),
          "Batches dispatched to the worker pool."),
    _spec("forms_batch_size", "histogram", (),
          "Requests coalesced per dispatched batch (the batch mix).",
          BATCH_SIZE_BUCKETS),
    _spec("forms_request_latency_seconds", "histogram", ("model", "class"),
          "End-to-end request latency: enqueue to completion.",
          LATENCY_BUCKETS_S),
    _spec("forms_queue_wait_seconds", "histogram", ("class",),
          "Queue wait: enqueue to batch dispatch.", LATENCY_BUCKETS_S),
    # -- server: gauges read from the stack's own state -----------------
    _spec("forms_queue_depth", "gauge", (),
          "Requests waiting in the SLA queue right now."),
    _spec("forms_occupancy", "gauge", (),
          "Dispatch-loop busy fraction since server start."),
    _spec("forms_die_health", "gauge", ("state",),
          "Dies per health state (healthy / quarantined / reprogramming)."),
    _spec("forms_engine_counter", "gauge", ("model", "counter"),
          "Per-model EngineStats totals summed over layers (conversions, "
          "macs, cycles_fed, jobs/pairs scheduled and skipped)."),
    # -- engine profiling (opt-in) --------------------------------------
    _spec("forms_engine_profile_seconds", "histogram",
          ("model", "layer", "tier"),
          "Opt-in per-MVM wall time of matvec_int, by dispatch-ladder "
          "rung (dense_noise / analog / exact / integer).",
          ENGINE_BUCKETS_S),
    # -- async front end ------------------------------------------------
    _spec("forms_async_connections", "gauge", (),
          "Sockets open on the asyncio front end right now."),
    _spec("forms_async_inflight_bytes", "gauge", (),
          "Request-body bytes resident in the asyncio front end right now."),
    _spec("forms_streams_total", "counter", ("outcome",),
          "SSE streams opened on POST /v1/infer_batch?stream=1, by "
          "terminal outcome (completed / aborted)."),
    _spec("forms_stream_events_total", "counter", ("type",),
          "Server-sent events emitted on the streaming path, by event "
          "type (result / shed / done)."),
    # -- cluster router -------------------------------------------------
    _spec("forms_router_events_total", "counter", ("event",),
          "Router lifecycle totals: requests, attempts, failovers, "
          "hedges_fired, hedges_won, unavailable, batch_items, "
          "batch_items_unavailable."),
    _spec("forms_router_replicas", "gauge", ("state",),
          "Cluster replicas per health state (up / suspect / down)."),
)

_BY_NAME: Dict[str, Dict] = {spec["name"]: spec for spec in METRIC_CATALOG}


def metric_names() -> Tuple[str, ...]:
    """Every catalogued metric name (the check_docs rule-7 surface)."""
    return tuple(spec["name"] for spec in METRIC_CATALOG)


def instrument(metrics: MetricsRegistry, name: str,
               source: Optional[Source] = None):
    """Register (idempotently) and return the catalogued family, read
    from ``source`` at collect time when one is given."""
    spec = _BY_NAME.get(name)
    if spec is None:
        raise KeyError(f"metric {name!r} is not in METRIC_CATALOG — add a "
                       "catalog row (and docs/observability.md entry) first")
    if spec["kind"] == "counter":
        return metrics.counter(name, spec["help"], labels=spec["labels"],
                               source=source)
    if spec["kind"] == "gauge":
        return metrics.gauge(name, spec["help"], labels=spec["labels"],
                             source=source)
    return metrics.histogram(name, spec["help"], labels=spec["labels"],
                             buckets=spec["buckets"])
