"""The cluster router: one wire-protocol process over N replicas.

:class:`ClusterRouter` speaks the PR-5 wire protocol (``docs/serving.md``)
on the front and fans out to backend :class:`~repro.serving.http.
HttpFrontend` replicas on the back, so a caller cannot tell a cluster
from a single front end — same endpoints, same envelopes, same error
codes, plus one: ``cluster_unavailable`` (503) when no live replica can
serve a model, an explicit receipt where a naive proxy would hang or
500.

Routing of ``POST /v1/infer``:

* the :class:`~.directory.ReplicaDirectory` supplies the candidate list
  (consistent-hash preferred replicas first, live spill after);
* each attempt gets its own socket timeout
  (:attr:`RoutingPolicy.attempt_timeout_s`);
* **failover** — a connection error, a 503 ``shutting_down`` or a 503
  ``die_fault`` moves to the next candidate after a capped-exponential
  backoff.  This is safe *because inference is pure*: re-executing a
  tile on another replica of the same seed produces the identical bits
  (the bench asserts it), unlike the single client's never-retry-POST
  rule where the transport cannot know the request is idempotent;
* any other answer — success, ``shed`` (the replica is alive and
  explicitly refusing), a 4xx — is **authoritative** and passes through
  unchanged;
* **hedging** (:attr:`RoutingPolicy.hedge_delay_s`) — optionally fire
  the same request at the next candidate when the first answer has not
  arrived within the delay, and take whichever authoritative answer
  lands first: the classic tail-latency trade of duplicate work for a
  bounded p99, again safe only because the work is idempotent.

``POST /v1/infer_batch`` is scatter/gather: items round-robin across
the candidates as sub-batches, each shard fails over independently, and
the gathered reply carries **per-item receipts** in request order — a
served result, the replica's shed receipt, or a ``cluster_unavailable``
receipt for items whose every candidate died (mixed outcomes use 207,
exactly like a partially-shed single-replica batch).

``GET /v1/cluster`` exposes the directory snapshot, the routing policy,
the router's own counters and a best-effort live ``/v1/stats`` of every
replica.  ``GET /metrics`` is the router's *own* Prometheus exposition
(routing events, replica health tally — scrape the replicas separately
for serving metrics), and ``GET /v1/trace/<id>`` returns the stored
routing decision (a ``router.route`` span whose children are the
``attempt`` spans) for a request id — the same id the chosen replica
stores its serving span tree under, so one id yields both halves of the
story.  The id the shell adopted is *forwarded* to the chosen replica,
so one trace id follows a request through router log, replica receipt
and error body.

The router is not a server of its own: it is the second backend of the
route table (:mod:`repro.serving.routes` — the first is a replica's
:class:`~repro.serving.routes.ReplicaBackend`) running on the same
threaded shell as :class:`~repro.serving.http.HttpFrontend`, so verbs,
query strings, body bounds, the error envelope and the drain order are
that shell's, not a copy of them.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ...obs import Observability, instrument, span_dict
from .. import routes, wire
from ..client import TRANSPORT_ERRORS, HttpClient
from ..http import ThreadedShell
from ..routes import INFER, INFER_BATCH, Request
from ..wire import (DEFAULT_MAX_BODY_BYTES, DEFAULT_RETRY_AFTER_S, Reply,
                    WireFormatError, error_body)
from .directory import ReplicaDirectory

#: 503 codes that mean "this replica cannot take the work right now,
#: another one can" — the failover set.  ``shed`` is deliberately NOT
#: here: a shed is an admission decision by a live replica and passes
#: through as the authoritative answer.
RETRYABLE_503_CODES = ("shutting_down", "die_fault")


@dataclass(frozen=True)
class RoutingPolicy:
    """The router's failover/hedging knobs (``/v1/cluster`` echoes them).

    ``attempt_timeout_s`` bounds one proxied round trip;
    ``max_attempts`` bounds the failover loop (candidates are retried
    cyclically when fewer than ``max_attempts`` are live);
    ``backoff_s``/``backoff_cap_s`` shape the capped-exponential pause
    between sequential attempts; ``hedge_delay_s`` (``None`` = off)
    fires a duplicate attempt at the next candidate when the first has
    not answered within the delay.
    """

    attempt_timeout_s: float = 30.0
    max_attempts: int = 3
    backoff_s: float = 0.01
    backoff_cap_s: float = 0.1
    hedge_delay_s: Optional[float] = None

    def __post_init__(self):
        if self.attempt_timeout_s <= 0:
            raise ValueError("attempt_timeout_s must be > 0")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff_s / backoff_cap_s must be >= 0")
        if self.hedge_delay_s is not None and self.hedge_delay_s < 0:
            raise ValueError("hedge_delay_s must be >= 0 (or None)")

    def backoff_delay(self, attempt: int) -> float:
        """Pause before firing attempt ``attempt`` (1-based retry)."""
        return min(self.backoff_cap_s, self.backoff_s * (2 ** (attempt - 1)))

    def as_dict(self) -> Dict:
        return {
            "attempt_timeout_s": self.attempt_timeout_s,
            "max_attempts": self.max_attempts,
            "backoff_s": self.backoff_s,
            "backoff_cap_s": self.backoff_cap_s,
            "hedge_delay_s": self.hedge_delay_s,
        }


#: the router's lifecycle counters, in ``/v1/stats`` order
ROUTER_EVENTS = ("requests",                 # front-door requests routed
                 "attempts",                 # proxied attempts fired
                 "failovers",                # retryable outcomes moved on
                 "hedges_fired",
                 "hedges_won",               # hedge beat the primary
                 "unavailable",              # cluster_unavailable receipts
                 "batch_items",              # scatter/gather items routed
                 "batch_items_unavailable")


class RouterStats:
    """Thread-safe router-level counters: ``/v1/stats`` and
    ``/v1/cluster`` serve :meth:`snapshot`, and
    ``forms_router_events_total`` reads it at collect time."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counts = dict.fromkeys(ROUTER_EVENTS, 0)

    def record(self, **deltas: int) -> None:
        with self._lock:
            for name, delta in deltas.items():
                self._counts[name] += delta

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counts)


def _unavailable_error(model: Optional[str], attempts: int) -> Dict:
    """The ``cluster_unavailable`` receipt body."""
    which = f"model {model!r}" if model is not None else "the default model"
    return error_body(
        "cluster_unavailable",
        f"no live replica could serve {which} "
        f"({attempts} attempt(s) exhausted)",
        model=model, attempts=attempts)


def _model_of(payload: Dict) -> Optional[str]:
    """The routing key of a POST envelope."""
    model = payload.get("model")
    if model is not None and not isinstance(model, str):
        raise WireFormatError(400, "invalid_request",
                              "'model' must be a string")
    return model


# ---------------------------------------------------------------------------
class ClusterRouter(ThreadedShell):
    """Wire-protocol front door over a :class:`ReplicaDirectory`.

    The router owns the directory's probe loop by default
    (``own_directory=True``): :meth:`start` starts probing,
    :meth:`shutdown` stops it (replicas are not touched — their
    lifecycle belongs to whoever spawned them).  Use as a context
    manager, exactly like :class:`~repro.serving.http.HttpFrontend`.

    ``client_factory`` is the ``(host, port, timeout) -> client`` hook
    the proxied attempts go through (tests inject scripted replicas).
    """

    thread_name = "forms-cluster-router"

    def __init__(self, directory: ReplicaDirectory, *,
                 policy: Optional[RoutingPolicy] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
                 retry_after_s: Optional[float] = DEFAULT_RETRY_AFTER_S,
                 own_directory: bool = True,
                 client_factory: Optional[Callable] = None,
                 log: Optional[Callable[[str], None]] = None,
                 obs: Optional[Observability] = None):
        self.extra_get = {"/v1/cluster": self.cluster_snapshot}
        super().__init__(routes.build_table(self), host, port,
                         max_body_bytes=max_body_bytes,
                         retry_after_s=retry_after_s, log=log)
        self.directory = directory
        self.policy = policy if policy is not None else RoutingPolicy()
        self.own_directory = own_directory
        self.stats = RouterStats()
        self.obs = obs if obs is not None else Observability()
        self._wire_obs()
        self._client_factory = (client_factory if client_factory is not None
                                else HttpClient)

    def _wire_obs(self) -> None:
        """The router's ``/metrics`` page: both families read live state
        at collect time — :meth:`RouterStats.snapshot` and the
        directory's up/suspect/down tally — so the routing hot loop
        carries no instrumentation at all."""
        metrics = self.obs.metrics
        instrument(metrics, "forms_router_events_total",
                   source=self.stats.snapshot)
        instrument(metrics, "forms_router_replicas",
                   source=lambda: self.directory.snapshot()["counts"])

    # -- lifecycle hooks of the shell -----------------------------------------
    def _on_start(self) -> None:
        if self.own_directory:
            self.directory.start()

    def _drain_backend(self, timeout: Optional[float]) -> None:
        if self.own_directory:
            self.directory.stop()

    # -- GET side of the route-table backend ----------------------------------
    def metrics_text(self) -> str:
        """``GET /metrics``: the router's own Prometheus exposition (the
        replicas each serve their own — scrape all of them)."""
        return self.obs.metrics.render()

    def trace(self, trace_id: str) -> Optional[Dict]:
        """The stored routing trace for ``trace_id`` (``None`` on miss)."""
        return self.obs.traces.get(trace_id)

    def healthz(self, draining: bool) -> Reply:
        counts = self.directory.snapshot()["counts"]
        return routes.healthz_reply(
            draining, counts["up"] != len(self.directory.names()),
            role="router", replicas=counts)

    def models(self) -> Reply:
        """Forward ``/v1/models`` to the first live replica and graft the
        router's placement map on."""
        outcome = self.proxy_get("/v1/models")
        if outcome is None:
            return 503, _unavailable_error(None, 0)
        status, payload = outcome
        if status == 200 and isinstance(payload, dict):
            models = payload.get("models")
            names = (list(models) if isinstance(models, (dict, list))
                     else [])
            payload["placement"] = {name: self.directory.placement(name)
                                    for name in names}
        return status, payload

    # -- one proxied attempt ------------------------------------------------
    def _attempt(self, name: str, method: str, path: str,
                 body: Optional[Dict],
                 trace_id: Optional[str], *,
                 spans: Optional[List[Dict]] = None,
                 hedge: bool = False) -> Tuple[str, int, Dict]:
        """One round trip to replica ``name``.

        Returns ``("ok", status, payload)`` for an authoritative answer
        (passed through unchanged) or ``("retry", status, payload)``
        for a failover-able outcome; health reporting happens here.
        With ``spans`` an ``attempt`` span (replica, outcome, status,
        hedge flag) is appended — list.append is atomic, so concurrent
        hedged attempts share one list safely.
        """
        start = time.perf_counter()

        def record(kind: str, status: int) -> None:
            if spans is not None:
                spans.append(span_dict(
                    "attempt", time.perf_counter() - start,
                    replica=name, outcome=kind, status=status, hedge=hedge))

        host, port = self.directory.endpoint(name)
        client = self._client_factory(host, port,
                                      self.policy.attempt_timeout_s)
        headers = ({"X-Request-Id": trace_id}
                   if trace_id is not None else None)
        try:
            if headers is not None:
                status, payload = client.request(method, path, body, headers)
            else:
                status, payload = client.request(method, path, body)
        except TRANSPORT_ERRORS as exc:
            self.directory.report_failure(name)
            record("retry", 0)
            return ("retry", 0,
                    error_body("cluster_unavailable",
                               f"replica {name}: {exc}", replica=name))
        code = None
        if isinstance(payload, dict):
            error = payload.get("error")
            if isinstance(error, dict):
                code = error.get("code")
        if status == 503 and code in RETRYABLE_503_CODES:
            self.directory.report_failure(name)
            record("retry", status)
            return "retry", status, payload
        self.directory.report_success(name)
        record("ok", status)
        return "ok", status, payload

    def _proxy(self, plan: List[str], method: str, path: str,
               body: Optional[Dict], trace_id: Optional[str], *,
               hedge_delay_s: Optional[float] = None,
               spans: Optional[List[Dict]] = None
               ) -> Optional[Tuple[int, Dict]]:
        """Failover (and optionally hedge) ``body`` across ``plan``.

        Fires attempts in plan order; a retryable outcome moves on after
        the policy backoff.  With ``hedge_delay_s`` a second candidate
        is fired when the first answer is that late, and the first
        *authoritative* answer wins (a straggler thread parks its result
        in the queue and dies — daemon, harmless).  Returns ``None``
        when every attempt came back retryable: the caller's
        ``cluster_unavailable``.
        """
        results: "queue.SimpleQueue" = queue.SimpleQueue()
        inflight = 0
        fired = 0

        def fire(name: str, hedge: bool) -> None:
            nonlocal inflight, fired
            inflight += 1
            fired += 1
            self.stats.record(attempts=1, hedges_fired=int(hedge))

            def attempt_thread():
                results.put((hedge, self._attempt(name, method, path, body,
                                                  trace_id, spans=spans,
                                                  hedge=hedge)))
            threading.Thread(target=attempt_thread,
                             name="forms-router-attempt",
                             daemon=True).start()

        fire(plan[0], hedge=False)
        answered = False
        while inflight:
            timeout = None
            if (not answered and hedge_delay_s is not None
                    and fired < len(plan) and inflight == 1):
                timeout = hedge_delay_s
            try:
                hedge, (kind, status, payload) = results.get(timeout=timeout)
            except queue.Empty:
                fire(plan[fired], hedge=True)
                continue
            inflight -= 1
            answered = True
            if kind == "ok":
                self.stats.record(hedges_won=int(hedge))
                return status, payload
            self.stats.record(failovers=1)
            if inflight == 0 and fired < len(plan):
                time.sleep(self.policy.backoff_delay(fired))
                fire(plan[fired], hedge=False)
        return None

    def _plan(self, model: Optional[str]) -> List[str]:
        """The attempt schedule: candidates cycled up to ``max_attempts``."""
        candidates = self.directory.candidates(model)
        if not candidates:
            return []
        return [candidates[i % len(candidates)]
                for i in range(self.policy.max_attempts)]

    # -- routing ------------------------------------------------------------
    def proxy_get(self, path: str) -> Optional[Tuple[int, Dict]]:
        """Forward one GET to the first answering live replica."""
        plan = self._plan(None)
        if not plan:
            return None
        return self._proxy(plan, "GET", path, None, None)

    def infer(self, request: Request, payload: Dict) -> Reply:
        """Route one ``POST /v1/infer`` envelope; returns
        ``(status, reply)`` ready for the wire.

        With tracing on, the routing decision is stored in the router's
        trace ring under the same ``trace_id`` the replica stores its
        span tree under: a ``router.route`` span whose children are the
        ``attempt`` spans (replica, outcome, hedge flag).  An attempt
        still in flight when the answer lands (a losing hedge) may miss
        the snapshot — the stored trace is the *decision*, not the
        stragglers.
        """
        model, trace_id = _model_of(payload), request.trace_id
        self.stats.record(requests=1)
        spans: Optional[List[Dict]] = [] if self.obs.tracing else None
        start = time.perf_counter()
        plan = self._plan(model)
        outcome = self._proxy(plan, "POST", INFER, payload, trace_id,
                              hedge_delay_s=self.policy.hedge_delay_s,
                              spans=spans) if plan else None
        if outcome is None:
            self.stats.record(unavailable=1)
            self._store_trace(trace_id, model, spans, start,
                              outcome="unavailable")
            return 503, _unavailable_error(model, len(plan))
        self._store_trace(trace_id, model, spans, start, outcome="ok",
                          status=outcome[0])
        return outcome

    def _store_trace(self, trace_id: str, model: Optional[str],
                     spans: Optional[List[Dict]], start: float,
                     **attrs) -> None:
        if spans is None:
            return
        route = span_dict("router.route", time.perf_counter() - start,
                          start_s=0.0, children=list(spans), **attrs)
        self.obs.traces.put({"trace_id": trace_id, "role": "router",
                             "model": model, "spans": [route]})

    def infer_batch(self, request: Request, payload: Dict) -> Reply:
        """Scatter one ``/v1/infer_batch`` envelope, gather per-item
        receipts in request order."""
        model, trace_id = _model_of(payload), request.trace_id
        self.stats.record(requests=1)
        key, raw = routes.batch_inputs(request, payload)
        self.stats.record(batch_items=len(raw))
        candidates = self.directory.candidates(model)
        if not candidates:
            self.stats.record(unavailable=1,
                              batch_items_unavailable=len(raw))
            return 503, _unavailable_error(model, 0)

        # scatter: item i starts at candidate i % k; a shard is the
        # group of items sharing a starting candidate, and each shard
        # fails over independently along its own rotation of the list
        shards: Dict[int, List[int]] = {}
        for index in range(len(raw)):
            shards.setdefault(index % len(candidates), []).append(index)
        passthrough = {k: payload[k]
                       for k in ("model", "priority", "deadline_ms")
                       if k in payload}
        items: List[Optional[Dict]] = [None] * len(raw)
        outcomes: "queue.SimpleQueue" = queue.SimpleQueue()

        def route_shard(offset: int, indices: List[int]) -> None:
            rotation = (candidates[offset:] + candidates[:offset])
            plan = [rotation[i % len(rotation)]
                    for i in range(self.policy.max_attempts)]
            body = dict(passthrough)
            body[key] = [raw[i] for i in indices]
            outcomes.put((indices,
                          self._proxy(plan, "POST", INFER_BATCH, body,
                                      trace_id)))

        for offset, indices in shards.items():
            threading.Thread(target=route_shard, args=(offset, indices),
                             name="forms-router-shard", daemon=True).start()
        for _ in range(len(shards)):
            indices, outcome = outcomes.get()
            if outcome is None:
                # every candidate of this shard died: explicit per-item
                # receipts, never a dropped index
                self.stats.record(batch_items_unavailable=len(indices))
                for i in indices:
                    entry = _unavailable_error(model,
                                               self.policy.max_attempts)
                    entry["error"]["index"] = i
                    wire.mark_error(entry, trace_id, None)
                    items[i] = entry
                continue
            status, reply = outcome
            results = (reply.get("results")
                       if isinstance(reply, dict) else None)
            if isinstance(results, list) and len(results) == len(indices):
                for i, item in zip(indices, results):
                    items[i] = item
                continue
            # an envelope-level replica error (e.g. invalid_input at one
            # item): attribute it to every item of the shard, remapping
            # the replica's shard-relative index to the caller's
            error = (reply.get("error")
                     if isinstance(reply, dict) else None)
            error = error if isinstance(error, dict) else {
                "code": "internal", "message": f"replica answered {status}"}
            shard_index = error.get("index")
            for position, i in enumerate(indices):
                entry = dict(error)
                if isinstance(shard_index, int) \
                        and 0 <= shard_index < len(indices):
                    entry["index"] = indices[shard_index]
                    entry["at_fault"] = position == shard_index
                entry.setdefault("trace_id", trace_id)
                items[i] = {"error": entry}
        return wire.batch_reply(items)

    # -- introspection ------------------------------------------------------
    def stats_snapshot(self) -> Dict:
        """``GET /v1/stats``: router counters + per-replica attempt
        accounting (no fan-out; cheap enough for tight polling)."""
        directory = self.directory.snapshot()
        return {"role": "router", "router": self.stats.snapshot(),
                "replicas": directory["replicas"],
                "counts": directory["counts"]}

    def cluster_snapshot(self) -> Dict:
        """``GET /v1/cluster``: the full operator view — directory state,
        routing policy, router counters and a best-effort live
        ``/v1/stats`` fetch from every replica."""
        directory = self.directory.snapshot()
        replica_stats: Dict[str, Dict] = {}
        for name in self.directory.names():
            host, port = self.directory.endpoint(name)
            client = self._client_factory(
                host, port, self.directory.probe_timeout_s)
            try:
                status, payload = client.request("GET", "/v1/stats")
            except TRANSPORT_ERRORS as exc:
                replica_stats[name] = {"unreachable": str(exc)}
            else:
                replica_stats[name] = (payload if status == 200
                                       else {"status": status,
                                             "body": payload})
        return {"role": "router", "directory": directory,
                "policy": self.policy.as_dict(),
                "router": self.stats.snapshot(),
                "replica_stats": replica_stats}
