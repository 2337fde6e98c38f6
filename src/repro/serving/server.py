"""The SLA-scheduled inference server over the ``repro.runtime`` executor.

:class:`InferenceServer` is the "traffic" front end of the stack: callers
submit *single images* — optionally naming a registered model, a priority
class and a per-request deadline — and the server coalesces concurrent
submissions into batches under the :class:`~repro.serving.scheduler.
SlaPolicy` in force, dispatching each batch through
:func:`repro.runtime.infer_tiles` on the shared
:class:`~repro.runtime.WorkerPool` — one tile per request, so every
worker chews on a different request of the batch and deep batches
pipeline through different layers concurrently.

Multi-tenancy and scheduling
----------------------------
The server fronts a :class:`~repro.serving.registry.ModelRegistry`
(several in-situ networks over one pool and one
:class:`~repro.reram.DieCache`) and an
:class:`~repro.serving.scheduler.SlaQueue`: strict class precedence,
earliest-deadline-first within a class, per-class coalescing knobs,
deadline/latency-bound shedding (an explicit
:class:`~repro.serving.scheduler.ShedReceipt` via
:class:`~repro.serving.scheduler.RequestShed`, never a hang) and an
optional :class:`~repro.serving.scheduler.AdmissionController` that
refuses intake from the occupancy/queue-depth gauges before the queue
melts down.

The classic single-model FIFO server is the degenerate configuration —
``InferenceServer(network)`` wraps the network in a private registry and
runs :meth:`SlaPolicy.fifo`: one class, no deadlines, no shedding, the
same ``max_batch`` / ``max_wait_s`` semantics as always.

Bit-identity guarantee
----------------------
A served result is **bit-identical** to a direct single-image
``run_network_serial`` call on the same image through the same model —
at any batch composition, arrival order, worker count, tenant mix and
scheduling outcome (shedding other requests never perturbs survivors).
Three properties of the lower layers make this structural (see
``repro/runtime/network.py``):

* one tile per request: batching never changes the quantization grid an
  image sees, because the engines are called per image exactly as in the
  serial path;
* worker-count invariance of the tiled executor (ordered merge, no
  cross-tile floating-point accumulation);
* per-job keyed read-noise substreams: a noisy engine draws each job's
  noise from (input digest, plane, bit, fragment), so *which batch* a
  request rode in — or which requests were shed around it — cannot
  change its noise.

``tests/serving/`` asserts the guarantee end to end, read noise included.

Per-request stats
-----------------
Each result carries a :class:`~repro.serving.stats.RequestStats`: queue
wait, the batch it rode in, its model and priority class, and the exact
slice of the shared engines' :class:`~repro.reram.engine.EngineStats` its
tile accounted for (summing the slices over requests reproduces the
engines' merged totals — tested).
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import Future, InvalidStateError
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..obs import (EngineProfiler, Observability, SpanRecorder, instrument,
                   new_trace_id, span_dict)
from ..reram import DieCache
from ..reram.faults import DieFaultDetected, DieGuard, FaultInjector
from ..runtime import WorkerPool, infer_tiles
from .health import (DIE_HEALTHY, DIE_QUARANTINED, DIE_REPROGRAMMING,
                     DieHealthRegistry)
from .queue import Batcher
from .registry import ModelRegistry, RegisteredModel
from .scheduler import (SHED_ADMISSION, SHED_FAULT_RECOVERY,
                        AdmissionController, RequestShed, ShedReceipt,
                        SlaPolicy, SlaQueue, SlaRequest)
from .stats import RequestStats, ServedResult, ServerStats

#: the model name a single-model server registers its network under
DEFAULT_MODEL = "default"


class InferenceServer:
    """SLA-scheduled single-image inference over shared in-situ networks.

    Parameters
    ----------
    model:
        A callable network (typically the in-situ model returned by
        :func:`repro.reram.build_insitu_network`) — the single-model
        convenience path; it is registered as ``"default"`` in a private
        :class:`~repro.serving.registry.ModelRegistry`.  Mutually
        exclusive with ``registry``.
    registry:
        A caller-owned :class:`~repro.serving.registry.ModelRegistry` —
        the multi-tenant path.  The registry (and its pool) is borrowed:
        left open at shutdown.
    policy / admission:
        The :class:`~repro.serving.scheduler.SlaPolicy` scheduling the
        queue (default: :meth:`SlaPolicy.fifo` built from ``max_batch`` /
        ``max_wait_s``) and an optional
        :class:`~repro.serving.scheduler.AdmissionController`.
    max_batch / max_wait_s:
        The FIFO coalescing knobs — used only to build the default
        policy; ignored when ``policy`` is given (each class carries its
        own knobs).
    workers / pool:
        Pool configuration for the private registry of the single-model
        path.  With ``registry`` the pool travels with the registry and
        these must be left unset.
    detect_faults / guard_coverage:
        With ``detect_faults=True`` every registered model's engines are
        armed with :class:`~repro.reram.faults.DieGuard` checksum guards
        (sensitivity-weighted audit placement at ``guard_coverage``): each
        MVM audits the programmed die's sentinel sums and fails fast on a
        mismatch, which the dispatch path turns into quarantine + online
        re-program + bounded retry (see :meth:`_dispatch`).  The per-die
        states are tracked in :attr:`die_health` either way.
    fault_injector / max_fault_retries:
        An optional :class:`~repro.reram.faults.FaultInjector` consulted
        at every dispatch boundary (scripted chaos scenarios), and the
        number of quarantine/re-program/retry rounds one batch may consume
        before its requests are shed with :data:`~repro.serving.scheduler.
        SHED_FAULT_RECOVERY` receipts — shed explicitly, never served
        wrong, never left hanging.

    Use as a context manager, or call :meth:`shutdown` — in-flight and
    queued requests are drained before the server stops (queued requests
    remain subject to deadline/latency-bound shedding while draining).
    """

    def __init__(self, model=None, *, registry: Optional[ModelRegistry] = None,
                 policy: Optional[SlaPolicy] = None,
                 admission: Optional[AdmissionController] = None,
                 max_batch: int = 8, max_wait_s: float = 0.002,
                 workers: Optional[int] = None,
                 pool: Optional[WorkerPool] = None,
                 backend: Optional[str] = None,
                 detect_faults: bool = False,
                 guard_coverage: float = 1.0,
                 fault_injector: Optional[FaultInjector] = None,
                 max_fault_retries: int = 2,
                 obs: Optional[Observability] = None):
        if max_fault_retries < 0:
            raise ValueError("max_fault_retries must be >= 0")
        if (model is None) == (registry is None):
            raise ValueError("pass exactly one of model= or registry=")
        if registry is not None and (workers is not None or pool is not None
                                     or backend is not None):
            raise ValueError("workers/pool/backend travel with the registry; "
                             "configure them on the ModelRegistry")
        if registry is None:
            # private registry: closed at shutdown (ModelRegistry.close
            # leaves a borrowed ``pool`` open, so ownership is safe)
            self.registry = ModelRegistry(pool=pool, workers=workers,
                                          backend=backend)
            self.registry.register_network(DEFAULT_MODEL, model)
            self._owns_registry = True
        else:
            self.registry = registry
            self._owns_registry = False
        if getattr(self.registry.pool, "backend", "thread") == "process":
            if detect_faults:
                if self._owns_registry:
                    self.registry.close()
                raise ValueError(
                    "detect_faults=True requires a thread-backend pool: die "
                    "guards instrument live engine objects and are not "
                    "shipped to process-backend workers (use "
                    "backend='thread')")
            # worker spawn costs about a second: pay it here (before the
            # stats clock starts), not inside the first dispatch, where it
            # is charged to the first requests and sheds what queued
            # behind them
            self.registry.pool.start()
        self.policy = (policy if policy is not None
                       else SlaPolicy.fifo(max_batch=max_batch,
                                           max_wait_s=max_wait_s))
        self.admission = admission
        #: the one store of served-side counts behind ``GET /v1/stats``,
        #: ``GET /v1/usage`` and the counts of ``GET /metrics``
        self.stats = ServerStats()
        #: the server's observability bundle (metrics registry behind
        #: ``GET /metrics``, trace ring behind ``GET /v1/trace/<id>``);
        #: default-on — pass ``Observability.disabled()`` for the
        #: bare-metal shape
        self.obs = obs if obs is not None else Observability()
        self.profiler: Optional[EngineProfiler] = None
        self.queue = SlaQueue(self.policy, on_shed=self.record_shed)
        self._ids = itertools.count()
        self._batch_ids = itertools.count()
        self._shutdown_lock = threading.Lock()
        self._shut_down = False
        # --- online fault tolerance -----------------------------------
        self.die_health = DieHealthRegistry()
        self._wire_obs()
        self.fault_injector = fault_injector
        self.max_fault_retries = max_fault_retries
        self._guards: Dict[Tuple[str, str], DieGuard] = {}
        self._engine_ids: Dict[int, Tuple[str, str]] = {}
        for name in self.registry.names():
            entry = self.registry.get(name)
            for layer in entry.engines:
                self.die_health.attach(entry.name, layer)
            if detect_faults:
                self.arm_model(name, coverage=guard_coverage)
        if self.obs.profile_engines:
            self.arm_profiling()
        # the SLA queue carries its per-class coalescing knobs in the
        # policy, so the batcher needs none of its own
        self.batcher = Batcher(self.queue, self._dispatch)
        self.batcher.start()

    def _wire_obs(self) -> None:
        """Expose the stats store on the metrics registry and register
        the server's own gauges as sources read at collect time (queue
        depth, die health states, per-model
        :class:`~repro.reram.engine.EngineStats` totals)."""
        metrics = self.obs.metrics
        self.stats.expose(metrics)
        instrument(metrics, "forms_queue_depth",
                   source=lambda: {(): self.queue.depth})
        instrument(metrics, "forms_die_health", source=self.die_health.counts)
        instrument(metrics, "forms_engine_counter",
                   source=self._engine_counters)

    def _engine_counters(self) -> Dict[Tuple[str, str], int]:
        totals: Dict[Tuple[str, str], int] = {}
        for name in self.registry.names():
            entry = self.registry.get(name)
            for engine in entry.engines.values():
                for key, value in engine.stats.as_dict().items():
                    totals[(entry.name, key)] = (
                        totals.get((entry.name, key), 0) + value)
        return totals

    def record_shed(self, receipt: ShedReceipt) -> None:
        """The single shed record site — queue, admission, fault and
        transport sheds alike: one count in the stats store and (when
        tracing) a one-span shed trace under the request's id."""
        self.stats.record_shed(receipt)
        if self.obs.tracing and receipt.trace_id:
            self.obs.traces.put({
                "trace_id": receipt.trace_id,
                "request_id": receipt.request_id,
                "model": receipt.model,
                "class": receipt.priority_class,
                "shed_reason": receipt.reason,
                "spans": [span_dict("shed", receipt.queue_wait_s,
                                    start_s=0.0, reason=receipt.reason)],
            })

    # ------------------------------------------------------------------
    @classmethod
    def from_model(cls, model, config, device, *, adc=None,
                   activation_bits: int = 16,
                   die_cache: Optional[DieCache] = None,
                   policy: Optional[SlaPolicy] = None,
                   admission: Optional[AdmissionController] = None,
                   max_batch: int = 8, max_wait_s: float = 0.002,
                   workers: Optional[int] = None,
                   pool: Optional[WorkerPool] = None,
                   backend: Optional[str] = None,
                   detect_faults: bool = False,
                   guard_coverage: float = 1.0,
                   fault_injector: Optional[FaultInjector] = None,
                   max_fault_retries: int = 2,
                   obs: Optional[Observability] = None,
                   **engine_kwargs) -> "InferenceServer":
        """Build the in-situ network and serve it.

        Convenience constructor: lowers ``model`` through
        :func:`repro.reram.build_insitu_network` into a private
        single-model registry with a shared :class:`~repro.reram.DieCache`
        (created if not given), so a server rebuilt across sweep points —
        or several servers over the same weights — reuses programmed
        dies.  The engines dict and the cache stay reachable as
        ``server.engines`` / ``server.die_cache``.
        """
        registry = ModelRegistry(die_cache=die_cache, pool=pool,
                                 workers=workers, backend=backend)
        try:
            registry.register(DEFAULT_MODEL, model, config, device, adc=adc,
                              activation_bits=activation_bits,
                              **engine_kwargs)
            server = cls(registry=registry, policy=policy,
                         admission=admission, max_batch=max_batch,
                         max_wait_s=max_wait_s, detect_faults=detect_faults,
                         guard_coverage=guard_coverage,
                         fault_injector=fault_injector,
                         max_fault_retries=max_fault_retries, obs=obs)
        except BaseException:
            registry.close()
            raise
        # the private registry is an implementation detail here: the
        # server owns it (and thereby the pool, unless ``pool`` was
        # borrowed — ModelRegistry.close leaves a borrowed pool open)
        server._owns_registry = True
        return server

    # ------------------------------------------------------------------
    # single-model conveniences (the pre-registry surface, kept working)
    @property
    def pool(self) -> WorkerPool:
        return self.registry.pool

    @property
    def die_cache(self) -> DieCache:
        return self.registry.die_cache

    @property
    def model(self):
        """The sole registered network (multi-tenant servers: use
        ``server.registry.get(name).network``)."""
        return self.registry.get(None).network

    @property
    def engines(self) -> Dict:
        """The sole registered model's engines dict (may be empty when
        the server was handed a bare callable)."""
        return self.registry.get(None).engines

    # ------------------------------------------------------------------
    def arm_model(self, name: Optional[str] = None,
                  coverage: float = 1.0) -> int:
        """Arm checksum guards on one model's engines (idempotent).

        Snapshots the healthy code planes, records the per-fragment
        sentinel sums and attaches a
        :class:`~repro.reram.faults.DieGuard` to every in-situ engine of
        the model.  Returns the number of dies now guarded.  Models
        registered after construction can be armed here; bare-callable
        networks have no dies and arm zero guards.
        """
        entry = self.registry.get(name)
        for layer, engine in entry.engines.items():
            key = (entry.name, layer)
            self.die_health.attach(entry.name, layer)
            if key in self._guards:
                continue
            guard = DieGuard(engine, coverage=coverage)
            engine.guard = guard
            self._guards[key] = guard
            self._engine_ids[id(engine)] = key
        return sum(1 for key in self._guards if key[0] == entry.name)

    def arm_profiling(self, name: Optional[str] = None) -> EngineProfiler:
        """Arm opt-in per-tier MVM profiling on one model (or all).

        Every subsequent ``matvec_int`` dispatch of the armed engines
        records its wall time into the
        ``forms_engine_profile_seconds{model,layer,tier}`` histogram and
        contributes per-layer ``engine`` spans to request traces.
        Timing only — armed engines compute bit-identical results.
        Idempotent; returns the server's :class:`EngineProfiler`.
        """
        if self.profiler is None:
            self.profiler = EngineProfiler(self.obs.metrics)
        names = self.registry.names() if name is None else [name]
        for model_name in names:
            entry = self.registry.get(model_name)
            self.profiler.arm(entry.engines, model=entry.name)
        return self.profiler

    # ------------------------------------------------------------------
    def submit_async(self, image: np.ndarray, *,
                     model: Optional[str] = None,
                     priority: Optional[str] = None,
                     deadline_s: Optional[float] = None,
                     trace_id: Optional[str] = None) -> Future:
        """Enqueue one image; the future resolves to a
        :class:`ServedResult` — or raises
        :class:`~repro.serving.scheduler.RequestShed` if the request was
        shed (deadline expired in queue, class latency bound hit, or
        refused at admission).

        ``model`` defaults to the sole registered model; ``priority``
        defaults to the policy's lowest-precedence class; ``deadline_s``
        is a relative latency budget — the request is shed, never
        dispatched, once it has been queued that long.  ``trace_id`` (the
        wire's ``X-Request-Id``) rides through to the served or shed
        receipt so one id traces the request across processes; in-process
        callers that pass none get one minted here, so
        :attr:`RequestStats.trace_id` is always populated and every
        request is queryable at ``GET /v1/trace/<id>``.
        """
        image = np.asarray(image)
        if image.ndim < 1:
            raise ValueError("image must be at least 1-D (no batch axis)")
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be > 0 (or None)")
        if trace_id is None:
            trace_id = new_trace_id()
        with self._shutdown_lock:
            if self._shut_down:
                raise RuntimeError("server is shut down")
            # resolve + validate at the offending request, not at batch
            # stacking where failures would hit innocent batch mates
            entry = self.registry.get(model)
            self.registry.pin_shape(entry, image.shape)
            rank = self.policy.rank_of(priority)
            cls = self.policy.classes[rank]
            request_id = next(self._ids)
            if self.admission is not None and not self.admission.admit(
                    self.queue.depth, self.stats.occupancy()):
                receipt = ShedReceipt(
                    request_id=request_id, model=entry.name,
                    priority_class=cls.name, reason=SHED_ADMISSION,
                    queue_wait_s=0.0, deadline_s=deadline_s,
                    trace_id=trace_id)
                self.record_shed(receipt)
                refused: Future = Future()
                refused.set_exception(RequestShed(receipt))
                return refused
            request = SlaRequest(
                request_id=request_id, image=image, model=entry.name,
                class_rank=rank, priority_class=cls.name,
                deadline_t=(time.monotonic() + deadline_s
                            if deadline_s is not None else None),
                deadline_s=deadline_s, entry=entry, trace_id=trace_id)
            self.queue.put(request)
        return request.future

    def submit(self, image: np.ndarray, timeout: Optional[float] = None,
               **kwargs) -> ServedResult:
        """Serve one image, blocking until its batch completes (raises
        :class:`RequestShed` if it is shed instead)."""
        return self.submit_async(image, **kwargs).result(timeout)

    def submit_many(self, images: Iterable[np.ndarray],
                    timeout: Optional[float] = None,
                    **kwargs) -> List[ServedResult]:
        """Enqueue every image first, then wait — they may share batches."""
        futures = [self.submit_async(image, **kwargs) for image in images]
        return [future.result(timeout) for future in futures]

    # ------------------------------------------------------------------
    def server_stats(self) -> Dict:
        """Operational snapshot (see :meth:`ServerStats.snapshot`)."""
        return self.stats.snapshot(queue_depth=self.queue.depth)

    def registry_stats(self) -> Dict:
        """Structural snapshot of the tenant registry (die reuse etc.)."""
        return self.registry.stats()

    def metrics_text(self) -> str:
        """The Prometheus text exposition behind ``GET /metrics`` (the
        sourced families read live state as they render)."""
        return self.obs.metrics.render()

    def usage_snapshot(self) -> Dict:
        """Per-(model, class) usage accounting behind ``GET /v1/usage``
        (see :meth:`ServerStats.usage`)."""
        return self.stats.usage()

    def trace(self, trace_id: str) -> Optional[Dict]:
        """The stored span tree for one request id (``None`` if unknown
        or already evicted from the bounded ring)."""
        return self.obs.traces.get(trace_id)

    def shutdown(self, timeout: Optional[float] = None) -> None:
        """Drain queued and in-flight requests, then stop.

        New submissions are refused immediately; everything already
        accepted is served (or shed, if its deadline expires while the
        drain is in progress).  Idempotent.  A server-owned registry
        (single-model path, ``from_model``) is closed once the batcher
        has drained; if ``timeout`` expires first it is left open so the
        background drain can still complete (closing the pool would fail
        accepted requests with a pool error) — a caller-owned registry
        is always left open.
        """
        with self._shutdown_lock:
            if self._shut_down:
                return
            self._shut_down = True
            self.queue.close()
        self.batcher.join(timeout)
        if self._owns_registry and not self.batcher.is_alive():
            self.registry.close()

    def __enter__(self) -> "InferenceServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    def _dispatch(self, batch: List[SlaRequest]) -> None:
        """Run one coalesced batch: one tile per request, shared pool.

        The scheduler guarantees every request of a batch targets the
        same model, so one network forward serves them all.  The entry
        was resolved (and pinned on the request) at submit time, so an
        unregister between submit and dispatch cannot fail the batch.

        Fault recovery: a :class:`~repro.reram.faults.DieFaultDetected`
        escaping the forward (a checksum guard tripped before the faulty
        die could compute anything) quarantines the die, re-programs the
        replacement through the shared die cache and retries the whole
        batch — up to ``max_fault_retries`` rounds, after which every
        request is shed with an explicit ``fault_recovery`` receipt.
        Requests that complete across a recovery carry the recovery
        receipt on their :class:`RequestStats` and are bit-identical to a
        fault-free forward (the restored die *is* the healthy die).
        Dispatch boundaries are also where a configured
        :class:`~repro.reram.faults.FaultInjector` applies scripted chaos
        — the only point where no MVMs are in flight, so die mutation is
        race-free.
        """
        dispatch_t = time.monotonic()
        batch_id = next(self._batch_ids)
        entry = batch[0].entry
        tiles = [slice(i, i + 1) for i in range(len(batch))]
        tracing = self.obs.tracing
        recorders = ([SpanRecorder() for _ in batch] if tracing else None)
        recovery: Optional[Dict] = None
        retries = 0
        try:
            if self.fault_injector is not None:
                self.fault_injector.on_dispatch(self)
            stacked = np.stack([request.image for request in batch])
            while True:
                try:
                    results = infer_tiles(entry.network, stacked, tiles,
                                          pool=self.pool, collect_stats=True,
                                          span_recorders=recorders)
                    break
                except DieFaultDetected as fault:
                    self.stats.record_fault_detected()
                    if retries >= self.max_fault_retries:
                        self._shed_batch_fault(batch, fault, dispatch_t,
                                               recovery)
                        return
                    retries += 1
                    recovery = self._recover_die(fault, retries, recovery)
        except BaseException:
            self.stats.record_failure(len(batch))
            raise  # the batcher fails this batch's futures

        done_t = time.monotonic()
        service_s = done_t - dispatch_t
        self.stats.record_batch(len(batch), service_s)
        for index, (request, (output, engine_stats)) in enumerate(
                zip(batch, results)):
            queue_wait_s = dispatch_t - request.enqueue_t
            latency_s = done_t - request.enqueue_t
            spans: Optional[List[Dict]] = None
            if tracing:
                # the span tree of the receipt: offsets are relative to
                # enqueue, tile/engine children come from the runtime's
                # recorder (duration-only when stitched across processes)
                spans = [span_dict(
                    "request", latency_s, start_s=0.0, children=[
                        span_dict("queue_wait", queue_wait_s, start_s=0.0),
                        span_dict("batch", service_s, start_s=queue_wait_s,
                                  batch_id=batch_id, batch_size=len(batch),
                                  children=recorders[index].spans),
                    ])]
            stats = RequestStats(
                request_id=request.request_id,
                batch_id=batch_id,
                batch_size=len(batch),
                queue_wait_s=queue_wait_s,
                service_s=service_s,
                latency_s=latency_s,
                engine_stats=engine_stats.as_dict(),
                model=request.model,
                priority_class=request.priority_class,
                deadline_s=request.deadline_s,
                recovery=recovery,
                trace_id=request.trace_id,
                spans=spans,
            )
            self.stats.record_request(stats)
            if tracing and request.trace_id:
                self.obs.traces.put({
                    "trace_id": request.trace_id,
                    "request_id": request.request_id,
                    "model": request.model,
                    "class": request.priority_class,
                    "spans": spans,
                })
            # a client may have cancelled its future (e.g. a timed-out
            # submit); that must not poison its batch mates
            if not request.future.done():
                try:
                    request.future.set_result(ServedResult(output[0], stats))
                except InvalidStateError:   # cancelled between check and set
                    pass

    # ------------------------------------------------------------------
    def _recover_die(self, fault: DieFaultDetected, retries: int,
                     prior: Optional[Dict]) -> Dict:
        """Quarantine -> diagnose -> plan -> re-program -> back to healthy.

        Runs on the batcher thread between dispatch attempts.  Returns the
        JSON-ready recovery receipt attached to every request of the
        retried batch.  An unguarded engine (fault raised by a guard the
        server does not own) re-raises: there is no healthy reference to
        restore from, so the batch must fail loudly instead.
        """
        engine = fault.engine
        model, layer = self._engine_ids.get(
            id(engine), (getattr(engine, "name", "?"), "?"))
        guard = self._guards.get((model, layer))
        if guard is None:
            guard = getattr(engine, "guard", None)
        if guard is None:
            raise fault
        detail = ", ".join(f"{plane}: fragments "
                           f"{np.asarray(frags).tolist()}"
                           for plane, frags in fault.fragments.items())
        self.die_health.mark(model, layer, DIE_QUARANTINED,
                             detail=f"checksum mismatch ({detail})")
        masks = guard.diagnose(engine)
        plans = guard.plan_remap(engine)
        self.die_health.mark(model, layer, DIE_REPROGRAMMING)
        restore = guard.restore(engine, die_cache=self.die_cache)
        self.die_health.mark(model, layer, DIE_HEALTHY,
                             detail="replacement die programmed")
        self.stats.record_recovery()
        receipt = {
            "model": model,
            "layer": layer,
            "detected_planes": list(fault.planes),
            "faulty_fragments": {plane: np.asarray(frags).tolist()
                                 for plane, frags in fault.fragments.items()},
            "stuck_cells": {plane: int((mask != 0).sum())
                            for plane, mask in masks.items()},
            "mitigation": {plane: {
                "baseline_impact": plan.baseline_impact,
                "planned_impact": plan.planned_impact,
                "impact_reduction": plan.impact_reduction,
            } for plane, plan in plans.items()},
            "reprogram": restore,
            "retries": retries,
        }
        if prior is not None:
            receipt["prior_recoveries"] = (
                prior.get("prior_recoveries", 0) + 1)
        return receipt

    def _shed_batch_fault(self, batch: List[SlaRequest],
                          fault: DieFaultDetected, dispatch_t: float,
                          recovery: Optional[Dict]) -> None:
        """Retry budget exhausted: shed the batch with explicit receipts.

        The die stays quarantined (recovery could not hold), every future
        resolves exceptionally with a ``fault_recovery``
        :class:`ShedReceipt` — never a silent wrong answer, never a hung
        future — and the batcher keeps serving other models.
        """
        model, layer = self._engine_ids.get(id(fault.engine), ("?", "?"))
        self.die_health.mark(model, layer, DIE_QUARANTINED,
                             detail="retry budget exhausted")
        for request in batch:
            receipt = ShedReceipt(
                request_id=request.request_id, model=request.model,
                priority_class=request.priority_class,
                reason=SHED_FAULT_RECOVERY,
                queue_wait_s=dispatch_t - request.enqueue_t,
                deadline_s=request.deadline_s,
                trace_id=request.trace_id)
            self.record_shed(receipt)
            if not request.future.done():
                try:
                    request.future.set_exception(RequestShed(receipt))
                except InvalidStateError:
                    pass
