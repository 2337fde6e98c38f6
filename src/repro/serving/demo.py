"""Self-contained serving demos: synthetic traffic against small networks.

Backs both ``python -m repro serve`` and ``scripts/serve_demo.py`` in two
shapes:

* :func:`run_demo` — the single-model FIFO demo (the PR-3 path): drives
  the shared Poisson harness (:func:`repro.perf.serving.drive_poisson`,
  the same build/serve/verify path ``benchmarks/bench_serving.py``
  records with) and prints per-request receipts plus the operational
  snapshot;
* :func:`run_multitenant_demo` — the two-model, two-class SLA demo:
  drives :func:`repro.perf.multitenant.drive_mixed_traffic` (interactive
  class with per-request deadlines on a small model, bulk class with a
  latency bound on a heavier one, both on one shared pool), prints
  per-class latency/shed summaries and the registry's die-reuse stats,
  and additionally *proves* cross-model die dedup by registering a
  replica tenant over identical weights and asserting cache hits;
* :func:`run_chaos_demo` — the fault-recovery demo (``--chaos``): drives
  :func:`repro.perf.chaos.drive_chaos` — scripted stuck-at faults
  flipped onto live dies mid-traffic, checksum detection, quarantine +
  online re-program through the shared die cache, bounded batch retry —
  and prints the injected scenario, the recovery receipts and the
  die-health summary; every completed request is asserted bit-identical
  to the *pre-fault* serial forward and every future must resolve;
* :func:`run_http_server` / :func:`run_http_demo` — the same demo
  servers behind the :class:`~repro.serving.HttpFrontend` (``--http``):
  either serve until interrupted (the curl-walkthrough mode of
  ``docs/serving.md``) or replay ``requests`` self-checking requests
  *over the wire* — concurrent client threads, mixed classes when
  ``models=2``, every decoded response asserted bit-identical to the
  in-process serial forward — then drain and exit (``--http-demo``, the
  CI smoke);
* :func:`run_cluster_server` / :func:`run_cluster_demo` — the same wire
  protocol through a :class:`~repro.serving.cluster.ClusterRouter` over
  N subprocess replicas (``--cluster N``): serve until interrupted, or
  the self-checking failover smoke (``--http-demo``) that SIGKILLs and
  restarts a replica mid-traffic and asserts bit-identity, documented
  receipts and zero hung requests end to end.

Both demos are self-checking: every served output is asserted
bit-identical to a direct single-image serial forward (per tenant) in
the drivers before any summary is printed — the demos double as
end-to-end smokes of the serving contract.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np


def run_demo(requests: int = 16, rate_rps: float = 200.0,
             max_batch: int = 4, max_wait_ms: float = 2.0,
             workers: Optional[int] = None, backend: Optional[str] = None,
             seed: int = 0,
             print_fn: Optional[Callable[[str], None]] = print) -> Dict:
    """Serve ``requests`` Poisson arrivals and return the stats snapshot."""
    from ..perf.serving import drive_poisson

    say = print_fn if print_fn is not None else (lambda line: None)
    say(f"serving {requests} requests at ~{rate_rps:.0f} rps "
        f"(max_batch={max_batch}, max_wait={max_wait_ms:.1f} ms)")
    driven = drive_poisson(rate_rps, requests, max_batch=max_batch,
                           max_wait_ms=max_wait_ms, workers=workers,
                           backend=backend, seed=seed)
    results, snapshot = driven["results"], driven["snapshot"]
    say("bit-identity vs serial single-image forward: OK")

    for served in results[: min(8, len(results))]:
        s = served.stats
        say(f"  request {s.request_id:3d}: batch {s.batch_id} "
            f"(size {s.batch_size}), queue {s.queue_wait_s * 1e3:6.2f} ms, "
            f"latency {s.latency_s * 1e3:6.2f} ms, "
            f"{s.engine_stats['conversions']} conversions")
    if len(results) > 8:
        say(f"  ... {len(results) - 8} more")
    say(f"batches formed: {snapshot['batches_formed']} "
        f"(mean size {snapshot['mean_batch_size']:.2f}), "
        f"p50 latency {snapshot['latency_p50_s'] * 1e3:.2f} ms, "
        f"p95 {snapshot['latency_p95_s'] * 1e3:.2f} ms, "
        f"occupancy {snapshot['occupancy']:.2f}, "
        f"throughput {snapshot['throughput_rps']:.1f} rps")
    return snapshot


def run_multitenant_demo(requests: int = 32, rate_rps: float = 400.0,
                         deadline_ms: Optional[float] = 50.0,
                         workers: Optional[int] = None,
                         backend: Optional[str] = None, seed: int = 0,
                         print_fn: Optional[Callable[[str], None]] = print
                         ) -> Dict:
    """Two tenants, two SLA classes, one pool — and prove the dedup.

    Returns the server stats snapshot.  Raises if any served output
    deviates from its tenant's serial single-image forward, or if the
    replica-tenant registration fails to hit the shared die cache.
    """
    from ..perf.multitenant import (BATCH_MODEL, FAST_MODEL,
                                    drive_mixed_traffic, tenant_models)
    from ..reram import (ADCSpec, DeviceSpec, DieCache, ReRAMDevice,
                         paper_adc_bits)
    from ..serving import ModelRegistry

    say = print_fn if print_fn is not None else (lambda line: None)
    say(f"serving {requests} mixed-class requests at ~{rate_rps:.0f} rps "
        f"(interactive deadline "
        f"{'none' if deadline_ms is None else f'{deadline_ms:.0f} ms'}; "
        f"models '{FAST_MODEL}' + '{BATCH_MODEL}' on one pool)")
    driven = drive_mixed_traffic(rate_rps, requests, deadline_ms=deadline_ms,
                                 workers=workers, backend=backend, seed=seed)
    say("bit-identity vs per-tenant serial forwards: OK")

    snapshot = driven["snapshot"]
    for name, group in sorted(snapshot["per_class"].items()):
        say(f"  class {name:12s} completed {group['completed']:3d}, "
            f"shed {group['shed']:3d}, "
            f"p50 {group['latency_p50_s'] * 1e3:7.2f} ms, "
            f"p95 {group['latency_p95_s'] * 1e3:7.2f} ms")
    for receipt in [r for r in driven["sheds"] if r is not None][:4]:
        say(f"  shed request {receipt.request_id:3d}: {receipt.reason} "
            f"({receipt.priority_class}) after "
            f"{receipt.queue_wait_s * 1e3:.1f} ms")
    cache = driven["registry"]["die_cache"]
    say(f"die cache: {cache['hits']} hits / {cache['misses']} misses, "
        f"{cache['unique_dies']} unique dies for "
        f"{driven['registry']['engines_total']} engines")

    # cross-model dedup, proven: a replica tenant over identical weights
    # must program zero new dies
    models, config, _ = tenant_models(seed=seed)
    shared = DieCache()
    device = ReRAMDevice(DeviceSpec(), 0.0)
    adc = ADCSpec(bits=paper_adc_bits(config.fragment_size))
    with ModelRegistry(workers=1, die_cache=shared) as registry:
        registry.register(FAST_MODEL, models[FAST_MODEL], config, device,
                          adc=adc, activation_bits=12)
        misses_before = shared.misses
        registry.register(f"{FAST_MODEL}-replica", models[FAST_MODEL],
                          config, device, adc=adc, activation_bits=12)
        stats = registry.stats()
    if shared.misses != misses_before or stats["die_cache"]["hits"] == 0:
        raise AssertionError("replica tenant re-programmed dies — "
                             "cross-model dedup broken")
    say(f"cross-model die dedup: replica tenant registered with "
        f"{stats['die_cache']['hits']} cache hits, 0 new dies — OK")
    return snapshot


def run_chaos_demo(requests: int = 24, rate_rps: float = 400.0,
                   workers: Optional[int] = None, seed: int = 0,
                   print_fn: Optional[Callable[[str], None]] = print
                   ) -> Dict:
    """Break dies under live traffic and prove the recovery, end to end.

    Returns the server stats snapshot.  The driver
    (:func:`repro.perf.chaos.drive_chaos`) raises if any completed
    request deviates from its tenant's pre-fault serial forward, any
    future fails to resolve within the bounded wait, or any injected
    stuck-at fault goes undetected or unrecovered.
    """
    from ..perf.chaos import drive_chaos
    from ..perf.multitenant import BATCH_MODEL, FAST_MODEL

    say = print_fn if print_fn is not None else (lambda line: None)
    say(f"chaos: serving {requests} mixed-class requests at "
        f"~{rate_rps:.0f} rps while scripted die faults land on "
        f"'{FAST_MODEL}' and '{BATCH_MODEL}'")
    driven = drive_chaos(rate_rps, requests, workers=workers, seed=seed)

    for entry in driven["injected"]:
        if entry["kind"] == "stuck_at":
            say(f"  dispatch {entry['dispatch']:3d}: stuck-at fault on "
                f"die {entry['model']}/{entry['layer']} "
                f"({entry['stuck_cells_total']} cells flipped)")
        else:
            say(f"  dispatch {entry['dispatch']:3d}: {entry['kind']} event")
    snapshot = driven["snapshot"]
    say(f"detected {snapshot['faults_detected']} faults, recovered "
        f"{snapshot['fault_recoveries']} dies; "
        f"{snapshot['requests_recovered']} requests rode a recovered "
        f"batch to completion")
    for result in driven["recovered"][:3]:
        rec = result.stats.recovery
        mitigation = next(iter(rec["mitigation"].values()), None)
        reduction = (f", planner impact reduction "
                     f"{mitigation['impact_reduction']:.0%}"
                     if mitigation else "")
        say(f"  receipt (request {result.stats.request_id:3d}): die "
            f"{rec['model']}/{rec['layer']} quarantined -> re-programmed "
            f"({'cache hit' if rec['reprogram']['via_die_cache'] else 'direct'}"
            f"), batch retried x{rec['retries']}{reduction}")
    counts = driven["health"]["counts"]
    say(f"die health: {counts['healthy']} healthy, "
        f"{counts['quarantined']} quarantined, "
        f"{counts['reprogramming']} re-programming "
        f"({driven['health']['recoveries']} lifetime recoveries)")
    completed = sum(result is not None for result in driven["served"])
    say(f"bit-identity of all {completed} completed requests vs pre-fault "
        f"serial forwards: OK (zero hung futures)")
    return snapshot


# ---------------------------------------------------------------------------
# HTTP front end over the demo servers
def build_demo_server(models: int = 1, *,
                      deadline_ms: Optional[float] = 50.0,
                      max_batch: int = 4, max_wait_ms: float = 2.0,
                      workers: Optional[int] = None, seed: int = 0,
                      activation_bits: int = 12, die_cache=None,
                      obs=None, sla_mode: str = "strict"):
    """Stand up the demo :class:`~repro.serving.InferenceServer`, idle.

    The traffic-free sibling of the drive functions: builds exactly the
    network(s) the in-process demos serve — the perf suite's post-ReLU
    CNN for ``models=1``, the ``fast``/``batch`` tenant pair under the
    two-class SLA policy for ``models=2`` — and returns ``(server,
    traffic)`` where ``traffic`` describes how to aim synthetic requests
    at it: ``traffic["images"]`` is the demo image pool and
    ``traffic["cases"]`` one ``(model, priority, deadline_ms)`` submit
    template per class (a single entry of ``None``s for the FIFO shape).
    The caller owns the server (``shutdown`` closes its registry/pool).
    ``sla_mode`` picks the cross-class arbitration (``strict`` keeps the
    historical precedence, ``weighted_fair`` switches to
    deficit-round-robin over the class weights) — scheduling only, never
    the bits.
    """
    from ..reram import ADCSpec, DeviceSpec, ReRAMDevice, paper_adc_bits

    if models not in (1, 2):
        raise ValueError("the demo serves 1 or 2 models")
    device = ReRAMDevice(DeviceSpec(), 0.0)
    if models == 1:
        from ..perf.suite import _post_relu_network
        from .server import InferenceServer
        model, config, images = _post_relu_network(seed=seed)
        adc = ADCSpec(bits=paper_adc_bits(config.fragment_size))
        policy = None
        if sla_mode != "strict":
            from .scheduler import PriorityClass, SlaPolicy
            policy = SlaPolicy((PriorityClass(
                "default", max_batch=max_batch,
                max_wait_s=max_wait_ms / 1e3),), mode=sla_mode)
        server = InferenceServer.from_model(
            model, config, device, adc=adc,
            activation_bits=activation_bits, max_batch=max_batch,
            max_wait_s=max_wait_ms / 1e3, workers=workers,
            die_cache=die_cache, obs=obs, policy=policy)
        traffic = {"images": images,
                   "cases": [(None, None, None)],
                   "interactive_fraction": 1.0}
        return server, traffic
    from ..perf.multitenant import (BATCH_MODEL, BULK, FAST_MODEL,
                                    INTERACTIVE, mixed_policy,
                                    tenant_models)
    from .registry import ModelRegistry
    from .server import InferenceServer
    tenants, config, images = tenant_models(seed=seed)
    adc = ADCSpec(bits=paper_adc_bits(config.fragment_size))
    registry = ModelRegistry(workers=workers, die_cache=die_cache)
    try:
        for name, model in tenants.items():
            registry.register(name, model, config, device, adc=adc,
                              activation_bits=activation_bits)
        server = InferenceServer(registry=registry,
                                 policy=mixed_policy(mode=sla_mode),
                                 obs=obs)
    except BaseException:
        registry.close()
        raise
    server._owns_registry = True    # the demo's registry dies with the server
    traffic = {"images": images,
               "cases": [(FAST_MODEL, INTERACTIVE, deadline_ms),
                         (BATCH_MODEL, BULK, None)],
               "interactive_fraction": 0.4}
    return server, traffic


def run_http_demo(requests: int = 16, rate_rps: float = 200.0,
                  models: int = 1, *, host: str = "127.0.0.1", port: int = 0,
                  deadline_ms: Optional[float] = 50.0,
                  max_batch: int = 4, max_wait_ms: float = 2.0,
                  workers: Optional[int] = None, seed: int = 0, obs=None,
                  use_async: bool = False, sla_mode: str = "strict",
                  print_fn: Optional[Callable[[str], None]] = print) -> Dict:
    """Drive the demo server *over the wire* and verify every bit.

    Replays ``requests`` open-loop Poisson arrivals as concurrent
    ``POST /v1/infer`` calls (mixed classes and alternating JSON /
    base64 encodings when ``models=2``), asserts every decoded response
    bit-identical to the in-process serial single-image forward of its
    tenant, prints the wire-side operational snapshot, then drains the
    front end and confirms the port actually closed.  Returns the
    ``/v1/stats`` snapshot.  Raises on any numeric deviation or any
    failure other than an explicit shed receipt.

    Doubles as the observability wire smoke: before the drain it scrapes
    ``/metrics`` (and runs the strict Prometheus-text parser over it),
    fetches ``/v1/usage`` (asserting the billed request/shed totals match
    the wire outcomes) and replays one served request's span tree from
    ``/v1/trace/<id>`` — skipped for the parts an explicit ``obs``
    bundle disables.

    ``use_async=True`` runs the same replay through the
    :class:`~repro.serving.aio.AsyncFrontend` instead (identical wire
    protocol — the plan, assertions and drain proof are unchanged) and
    additionally exercises the SSE path: one
    ``POST /v1/infer_batch?stream=1`` whose per-item ``result`` events
    are asserted bit-identical to the serial forwards and whose billed
    requests are included in the ``/v1/usage`` cross-check.
    ``sla_mode`` selects the scheduler arbitration
    (``strict`` / ``weighted_fair``).
    """
    from ..obs import parse_prometheus_text
    from ..perf.http import replay_http_open_loop
    from ..perf.serving import poisson_arrival_offsets
    from ..runtime import run_network_serial
    from .client import HttpClient, WireResult
    from .http import HttpFrontend

    say = print_fn if print_fn is not None else (lambda line: None)
    server, traffic = build_demo_server(models, deadline_ms=deadline_ms,
                                        max_batch=max_batch,
                                        max_wait_ms=max_wait_ms,
                                        workers=workers, seed=seed, obs=obs,
                                        sla_mode=sla_mode)
    images, cases = traffic["images"], traffic["cases"]
    rng = np.random.default_rng(seed)
    image_idx = rng.integers(0, images.shape[0], size=requests)
    interactive = rng.random(requests) < traffic["interactive_fraction"]
    arrival_offsets = poisson_arrival_offsets(rng, rate_rps, requests)

    plan: List[Tuple[np.ndarray, Dict]] = []
    assignments: List[Tuple[Optional[str], int]] = []
    for i in range(requests):
        model, priority, deadline = cases[0 if interactive[i] else -1]
        kwargs: Dict = {"binary": bool(i % 2)}   # exercise both encodings
        if model is not None:
            kwargs.update(model=model, priority=priority)
            if deadline is not None:
                kwargs["deadline_ms"] = deadline
        plan.append((images[image_idx[i]], kwargs))
        assignments.append((model, int(image_idx[i])))

    with server:
        if use_async:
            from .aio import AsyncFrontend
            frontend = AsyncFrontend(server, host=host, port=port,
                                     owns_server=True).start()
        else:
            frontend = HttpFrontend(server, host=host, port=port,
                                    owns_server=True).start()
        client = HttpClient.for_frontend(frontend)
        say(f"{'asyncio' if use_async else 'http'} front end on "
            f"{frontend.url} — replaying {requests} "
            f"requests at ~{rate_rps:.0f} rps over the wire "
            f"({models} model(s), sla_mode={sla_mode}, "
            f"health: {client.healthz()['status']})")
        outcomes, open_loop_s = replay_http_open_loop(client, plan,
                                                      arrival_offsets)
        # the SSE exercise: stream a small batch and keep the events —
        # bit-identity is checked against the serial refs further down,
        # and the streamed requests are billed into /v1/usage like any
        # other, so the totals cross-check below covers them too
        stream_events: List[Tuple[str, Dict]] = []
        stream_model = cases[0][0]
        if use_async:
            stream_kwargs: Dict = {}
            if stream_model is not None:
                stream_kwargs.update(model=stream_model,
                                     priority=cases[0][1])
            stream_idx = [int(i) for i in image_idx[:3]]
            stream_events = list(client.infer_batch_stream(
                [images[i] for i in stream_idx], binary=True,
                **stream_kwargs))
        snapshot = client.stats()
        # observability wire smoke, while the socket is still up: the
        # exposition must survive the strict parser, and one served
        # request's span tree must come back from the trace ring
        exposition = (parse_prometheus_text(client.metrics())
                      if server.obs.metrics.enabled else None)
        usage = client.usage()
        traced = None
        if server.obs.tracing:
            for outcome in outcomes:
                if outcome["error"] is None:
                    tid = outcome["result"].stats.get("trace_id")
                    if tid:
                        traced = (tid, client.trace(tid))
                        break
        # serial references while the networks are still reachable
        names = {model for model, _ in assignments}
        if use_async:
            names.add(stream_model)
        serial = {model: run_network_serial(
                      server.registry.get(model).network, images, tile_size=1)
                  for model in names}
        frontend.shutdown()

    served = shed = 0
    for i, outcome in enumerate(outcomes):
        model, img = assignments[i]
        if outcome["error"] is not None:
            # only an explicit shed receipt is an acceptable outcome;
            # transport-level exceptions carry no .code and must fail
            if getattr(outcome["error"], "code", None) != "shed":
                raise AssertionError(
                    f"request {i} failed over the wire: {outcome['error']}")
            shed += 1
            continue
        served += 1
        if not np.array_equal(outcome["result"].output, serial[model][img]):
            raise AssertionError(
                f"request {i} ({model or 'default'}): decoded HTTP output "
                "!= in-process serial forward")
    say(f"bit-identity of all {served} served responses vs in-process "
        f"serial forwards: OK ({shed} shed with receipts)")
    stream_served = stream_shed = 0
    if use_async:
        if not stream_events or stream_events[-1][0] != "done":
            raise AssertionError("SSE stream did not end with a 'done' "
                                 f"event: {[e for e, _ in stream_events]}")
        for event, data in stream_events[:-1]:
            if event == "shed":
                stream_shed += 1
                continue
            if event != "result":
                raise AssertionError(f"unexpected SSE event {event!r}")
            stream_served += 1
            decoded = WireResult.from_body(data)
            ref = serial[stream_model][stream_idx[data["index"]]]
            if not np.array_equal(decoded.output, ref):
                raise AssertionError(
                    f"SSE item {data['index']}: streamed output != "
                    "in-process serial forward")
        done = stream_events[-1][1]
        if (done["completed"], done["shed"]) != (stream_served, stream_shed):
            raise AssertionError(
                f"SSE 'done' claimed {done}; the stream carried "
                f"{stream_served} results / {stream_shed} sheds")
        say(f"SSE stream: {stream_served} result events bit-identical, "
            f"{stream_shed} shed, terminal 'done' consistent — OK")
        served += stream_served
        shed += stream_shed
    totals = usage["totals"]
    if (totals["requests"], totals["sheds"]) != (served, shed):
        raise AssertionError(
            f"/v1/usage billed {totals['requests']} requests / "
            f"{totals['sheds']} sheds; the wire saw {served} / {shed}")
    obs_bits = [f"/v1/usage billed {totals['requests']} requests, "
                f"{totals['macs']} macs"]
    if exposition is not None:
        obs_bits.insert(0, f"/metrics parsed clean "
                           f"({len(exposition)} families)")
    if traced is not None:
        tid, record = traced
        root = record["spans"][0]
        obs_bits.append(f"/v1/trace/{tid[:8]}… returned a "
                        f"{root['name']!r} span with "
                        f"{len(root.get('children', []))} children")
    say(f"observability: {'; '.join(obs_bits)} — OK")
    say(f"wire snapshot: p50 {snapshot['latency_p50_s'] * 1e3:.2f} ms, "
        f"p95 {snapshot['latency_p95_s'] * 1e3:.2f} ms, "
        f"mean batch {snapshot['mean_batch_size']:.2f}, "
        f"occupancy {snapshot['occupancy']:.2f}, "
        f"{requests / open_loop_s:.1f} rps over the wire")
    for name, group in sorted(snapshot.get("per_class", {}).items()):
        say(f"  class {name:12s} completed {group['completed']:3d}, "
            f"shed {group['shed']:3d}, "
            f"p95 {group['latency_p95_s'] * 1e3:7.2f} ms")
    # the drain proof: the socket must actually be gone
    try:
        client.healthz()
    except OSError:
        say("drain: port closed, all handlers finished — OK")
    else:
        raise AssertionError("front end still answering after shutdown")
    return snapshot


def run_http_server(models: int = 1, *, host: str = "127.0.0.1",
                    port: int = 8100,
                    deadline_ms: Optional[float] = 50.0,
                    max_batch: int = 4, max_wait_ms: float = 2.0,
                    workers: Optional[int] = None, seed: int = 0, obs=None,
                    use_async: bool = False, sla_mode: str = "strict",
                    print_fn: Optional[Callable[[str], None]] = print,
                    ready: Optional[Callable] = None,
                    stop: Optional[threading.Event] = None) -> Dict:
    """Serve the demo model(s) over HTTP until interrupted.

    The operator mode behind ``python -m repro serve --http PORT``: binds
    the front end (the threaded :class:`~repro.serving.HttpFrontend`, or
    the asyncio :class:`~repro.serving.aio.AsyncFrontend` with
    ``use_async=True`` — same wire protocol plus SSE streaming), prints
    the curl lines of the ``docs/serving.md`` walkthrough, and blocks
    until Ctrl-C (or ``stop`` is set — the test hook; ``ready`` receives
    the live frontend once bound).  Draining shutdown on the way out;
    returns the final stats snapshot.
    """
    from .http import HttpFrontend

    say = print_fn if print_fn is not None else (lambda line: None)
    server, traffic = build_demo_server(models, deadline_ms=deadline_ms,
                                        max_batch=max_batch,
                                        max_wait_ms=max_wait_ms,
                                        workers=workers, seed=seed, obs=obs,
                                        sla_mode=sla_mode)
    stop = stop if stop is not None else threading.Event()
    with server:
        if use_async:
            from .aio import AsyncFrontend
            frontend = AsyncFrontend(server, host=host, port=port,
                                     owns_server=True, log=say).start()
        else:
            frontend = HttpFrontend(server, host=host, port=port,
                                    owns_server=True, log=say).start()
        shape = list(traffic["images"].shape[1:])
        say(f"serving {server.registry.names()} on {frontend.url} "
            f"({'asyncio' if use_async else 'threaded'} front end, "
            f"sla_mode={sla_mode}, request shape {shape}; "
            f"Ctrl-C drains and exits)")
        say("try:")
        say(f"  curl -s {frontend.url}/healthz")
        say(f"  curl -s {frontend.url}/v1/models")
        model, priority, deadline = traffic["cases"][0]
        envelope = "\\\"input\\\": [[...]]" if model is None else (
            f"\\\"model\\\": \\\"{model}\\\", \\\"priority\\\": "
            f"\\\"{priority}\\\", \\\"input\\\": [[...]]")
        say(f"  curl -s -X POST {frontend.url}/v1/infer "
            f"-H 'Content-Type: application/json' -d '{{{envelope}}}'")
        if use_async:
            say(f"  curl -sN -X POST "
                f"'{frontend.url}/v1/infer_batch?stream=1' "
                f"-H 'Content-Type: application/json' "
                f"-d '{{\"inputs\": [[[...]], [[...]]]}}'")
        say(f"  curl -s {frontend.url}/v1/stats")
        if server.obs.metrics.enabled:
            say(f"  curl -s {frontend.url}/metrics")
        say(f"  curl -s {frontend.url}/v1/usage")
        if ready is not None:
            ready(frontend)
        try:
            while not stop.wait(0.2):
                pass
        except KeyboardInterrupt:
            say("interrupt: draining")
        frontend.shutdown()
        # snapshot after the drain so requests served during it count
        snapshot = server.server_stats()
        say("drained; front end closed")
    return snapshot


def run_cluster_server(replicas: int = 2, *, host: str = "127.0.0.1",
                       port: int = 8100, workers: int = 1, seed: int = 0,
                       replication: int = 2,
                       hedge_delay_s: Optional[float] = None,
                       print_fn: Optional[Callable[[str], None]] = print,
                       ready: Optional[Callable] = None,
                       stop: Optional[threading.Event] = None) -> Dict:
    """Serve the demo models through a replica cluster until interrupted.

    The operator mode behind ``python -m repro serve --cluster N --http
    PORT``: boots ``replicas`` subprocess replicas of the identical demo
    build (bit-identical outputs — the property failover relies on),
    a health-probing directory and a
    :class:`~repro.serving.cluster.ClusterRouter` on ``port``, prints
    the cluster walkthrough curl lines, and blocks until Ctrl-C (or
    ``stop`` — the test hook; ``ready`` receives the live harness).
    Returns the final ``/v1/cluster`` snapshot.
    """
    from .client import HttpClient
    from .cluster import ClusterHarness, RoutingPolicy

    say = print_fn if print_fn is not None else (lambda line: None)
    stop = stop if stop is not None else threading.Event()
    policy = RoutingPolicy(hedge_delay_s=hedge_delay_s)
    with ClusterHarness(replicas, seed=seed, workers=workers,
                        replication=replication, policy=policy,
                        router_port=port, host=host, log=None) as harness:
        router = harness.router
        backends = ", ".join(f"{name}:{proc.port}"
                             for name, proc in harness.replicas.items())
        say(f"cluster router on {router.url} over {replicas} replica(s) "
            f"({backends}; replication={replication}; Ctrl-C drains and "
            f"exits)")
        say("try:")
        say(f"  curl -s {router.url}/healthz")
        say(f"  curl -s {router.url}/v1/cluster")
        say(f"  curl -s -X POST {router.url}/v1/infer "
            f"-H 'Content-Type: application/json' "
            f"-d '{{\"model\": \"fast\", \"priority\": \"interactive\", "
            f"\"input\": [[...]]}}'")
        if ready is not None:
            ready(harness)
        try:
            while not stop.wait(0.2):
                pass
        except KeyboardInterrupt:
            say("interrupt: draining")
        client = HttpClient(router.host, router.port)
        _, snapshot = client.request("GET", "/v1/cluster")
    say("drained; router and replicas closed")
    return snapshot


def run_cluster_demo(requests: int = 16, rate_rps: float = 200.0,
                     replicas: int = 2, *, workers: int = 1, seed: int = 0,
                     replication: int = 2,
                     hedge_delay_s: Optional[float] = None,
                     print_fn: Optional[Callable[[str], None]] = print
                     ) -> Dict:
    """Kill a replica under live routed traffic and prove the failover.

    The self-checking cluster smoke behind ``--cluster N --http 0
    --http-demo``: drives :func:`repro.perf.cluster.drive_cluster_chaos`
    — open-loop Poisson ``POST /v1/infer`` arrivals through the router
    while the interactive tenant's primary replica is SIGKILLed and
    restarted mid-run — and prints the failover accounting.  The driver
    raises if any completed response deviates from the parent's serial
    single-image forward, any request hangs, any failure is not a
    documented receipt, or the killed replica fails to rejoin.  Returns
    the final ``/v1/cluster`` snapshot.
    """
    from ..perf.cluster import drive_cluster_chaos

    say = print_fn if print_fn is not None else (lambda line: None)
    say(f"cluster chaos: {requests} requests at ~{rate_rps:.0f} rps "
        f"through a router over {replicas} replica(s), SIGKILL + restart "
        f"mid-traffic")
    driven = drive_cluster_chaos(rate_rps, requests, replicas=replicas,
                                 replication=replication,
                                 hedge_delay_s=hedge_delay_s,
                                 workers=workers, seed=seed)
    for entry in driven["kill_log"]:
        say(f"  t={entry['at_s'] * 1e3:7.1f} ms: {entry['action']} "
            f"{entry['replica']}")
    router = driven["cluster"]["router"]
    counts = driven["cluster"]["directory"]["counts"]
    say(f"completed {driven['completed']}/{requests} "
        f"(receipts: {driven['shed_codes'] or 'none'}); "
        f"{router['failovers']} failovers, "
        f"{router['hedges_fired']} hedges fired "
        f"({router['hedges_won']} won), "
        f"{router['unavailable']} unavailable receipts")
    say(f"replicas after restart: {counts['up']} up, "
        f"{counts['suspect']} suspect, {counts['down']} down")
    say(f"bit-identity of all {driven['completed']} completed responses "
        f"vs serial forwards: OK (zero hung requests; trace ids echoed)")
    return driven["cluster"]


def run_http_cli(args) -> int:
    """The shared ``--http`` dispatch of ``python -m repro serve`` and
    ``scripts/serve_demo.py`` (one copy, so the two entry points cannot
    drift): resolves the deadline, coerces the model count, prints the
    FIFO-knobs note for the SLA shape, and runs either the self-checking
    wire demo (``--http-demo``) or the serve-until-interrupted server —
    single-process by default, the replica cluster with ``--cluster N``.
    """
    from ..obs import Observability

    cluster = getattr(args, "cluster", None)
    if cluster is not None:
        hedge = (args.hedge_ms / 1e3 if getattr(args, "hedge_ms", None)
                 is not None else None)
        knobs = dict(replicas=cluster,
                     workers=(args.workers if args.workers is not None
                              else 1),
                     seed=args.seed,
                     replication=getattr(args, "cluster_replication", 2),
                     hedge_delay_s=hedge)
        if args.http_demo:
            run_cluster_demo(requests=args.requests, rate_rps=args.rate,
                             **knobs)
        else:
            run_cluster_server(host=args.http_host, port=args.http, **knobs)
        return 0
    deadline = (args.deadline_ms if args.deadline_ms is not None
                and args.deadline_ms > 0 else None)
    classes = (args.priority_classes if args.priority_classes is not None
               else args.models)
    models = 2 if (args.models > 1 or classes > 1) else 1
    if models > 1 and (args.max_batch, args.max_wait_ms) != (4, 2.0):
        print("note: --max-batch/--max-wait-ms are FIFO knobs; the SLA "
              "demo's classes carry their own coalescing budgets "
              "(ignored here)")
    # --no-metrics / --trace-ring shape the single-process server's
    # Observability bundle (the cluster's subprocess replicas boot their
    # own defaults — the flags do not reach across the fork)
    obs = Observability(metrics=not getattr(args, "no_metrics", False),
                        trace_ring=getattr(args, "trace_ring", 256))
    knobs = dict(models=models, host=args.http_host, port=args.http,
                 deadline_ms=deadline, max_batch=args.max_batch,
                 max_wait_ms=args.max_wait_ms, workers=args.workers,
                 seed=args.seed, obs=obs,
                 use_async=getattr(args, "use_async", False),
                 sla_mode=getattr(args, "sla_mode", "strict"))
    if args.http_demo:
        run_http_demo(requests=args.requests, rate_rps=args.rate, **knobs)
    else:
        run_http_server(**knobs)
    return 0
