"""What ``python -m repro serve`` serves: the demo build and its three modes.

The module owns one decision — which models the demo server carries —
and the three ways to run them:

* :func:`post_relu_network`, :func:`tenant_models`, :func:`mixed_policy`
  — the FORMS-shaped demo CNNs (pruned filters, polarized weights) and
  the canonical two-class SLA policy.  ``repro.perf.suite`` and the
  tests import them from here, so the dependency runs harness ->
  product;
* :func:`build_demo_server` — the idle demo
  :class:`~repro.serving.InferenceServer` for ``models=1`` (one network,
  FIFO) or ``models=2`` (the ``fast``/``batch`` tenant pair under
  :func:`mixed_policy`); every cluster replica boots this build, which
  is what makes replicas bit-identical;
* :func:`run_demo` — the in-process demo: open-loop Poisson arrivals
  against the build, every served output asserted bit-identical to the
  serial single-image forward, then receipts, the per-class summary and
  one request's span tree;
* :func:`run_http_server` / :func:`run_cluster_server` — the two
  serve-until-interrupted operator modes (``--http PORT``, ``--cluster
  N``) behind the curl walkthrough of ``docs/serving.md``.

Measurement lives elsewhere: ``benchmarks/e2e/run.py`` is the one
benchmark, and it builds its own models.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from ..core.pipeline import FORMSConfig
from ..core.polarization import compute_signs, project_polarization
from ..nn import (Conv2d, Flatten, Linear, ReLU, Sequential,
                  compressible_layers, set_init_seed)
from ..reram import ADCSpec, DeviceSpec, ReRAMDevice, paper_adc_bits
from ..runtime import run_network_serial
from .aio import AsyncFrontend
from .client import HttpClient
from .cluster import ClusterHarness, RoutingPolicy
from .http import HttpFrontend
from .registry import ModelRegistry
from .scheduler import PriorityClass, RequestShed, SlaPolicy
from .server import InferenceServer
from .stats import ServedResult

#: tenant and class names of the two-model demo
INTERACTIVE = "interactive"
BULK = "bulk"
FAST_MODEL = "fast"
BATCH_MODEL = "batch"

_FRAGMENT = 8


def _polarize(model, config) -> None:
    """Project every compressible layer onto its fragment-polarized set."""
    for _, layer in compressible_layers(model):
        geometry = config.geometry_for(layer)
        weight = layer.weight.data.astype(np.float64)
        layer.weight.data[...] = project_polarization(
            weight, geometry, compute_signs(weight, geometry))


def post_relu_network(seed: int = 0, *, init_seed: Optional[int] = None):
    """A FORMS-shaped small CNN: pruned filters, polarized weights.

    Random weights stand in for training, but the *structure* is the real
    post-pipeline one: crossbar-aware filter pruning (dead output channels
    => silent downstream input fragments) followed by fragment
    polarization, which is what makes whole-network activation blocks
    sparse in exactly the way the scheduler exploits.  Returns ``(model,
    config, images)``; ``seed`` draws the pruning and the eight post-ReLU
    images, ``init_seed`` (default: ``seed``) the initial weights.
    """
    set_init_seed(seed if init_seed is None else init_seed)
    model = Sequential(Conv2d(1, 8, 3, padding=1), ReLU(),
                       Conv2d(8, 8, 3, padding=1), ReLU(),
                       Flatten(), Linear(8 * 16 * 16, 10))
    rng = np.random.default_rng(seed + 7)
    for layer in (model._modules["0"], model._modules["2"]):
        dead = rng.permutation(layer.weight.data.shape[0])[5:]
        layer.weight.data[dead] = 0.0
        if layer.bias is not None:
            layer.bias.data[dead] = 0.0
    config = FORMSConfig(fragment_size=_FRAGMENT)
    _polarize(model, config)
    images = np.maximum(0.0, rng.normal(size=(8, 1, 16, 16)) - 0.8)
    return model, config, images


def tenant_models(seed: int = 0):
    """Two FORMS-shaped tenants with opposed serving profiles.

    ``fast`` is a one-conv CNN (the interactive tenant: cheap forward,
    latency is all that matters); ``batch`` is :func:`post_relu_network`
    at its own init seed (the bulk tenant: heavier forward, throughput
    via coalescing).  Both are fragment-polarized on the same
    :class:`~repro.core.pipeline.FORMSConfig` and share one 16x16 input
    shape, so one image pool drives both.  Returns ``(models, config,
    images)``.
    """
    set_init_seed(seed)
    fast = Sequential(Conv2d(1, 4, 3, padding=1), ReLU(),
                      Flatten(), Linear(4 * 16 * 16, 10))
    batch, config, images = post_relu_network(seed, init_seed=seed + 100)
    _polarize(fast, config)
    return {FAST_MODEL: fast, BATCH_MODEL: batch}, config, images


def mixed_policy(*, interactive_max_batch: int = 2,
                 interactive_max_wait_ms: float = 0.5,
                 bulk_max_batch: int = 8, bulk_max_wait_ms: float = 4.0,
                 bulk_shed_after_ms: Optional[float] = 150.0,
                 mode: str = "strict",
                 interactive_weight: float = 4.0, bulk_weight: float = 1.0):
    """The canonical two-class policy of the two-model demo.

    ``mode="weighted_fair"`` switches the cross-class arbitration to
    deficit-round-robin over the class weights (interactive still gets
    the lion's share via ``interactive_weight``, but bulk can no longer
    be starved outright); the default keeps strict precedence.
    """
    return SlaPolicy((
        PriorityClass(INTERACTIVE, max_batch=interactive_max_batch,
                      max_wait_s=interactive_max_wait_ms / 1e3,
                      weight=interactive_weight),
        PriorityClass(BULK, max_batch=bulk_max_batch,
                      max_wait_s=bulk_max_wait_ms / 1e3,
                      shed_after_s=(bulk_shed_after_ms / 1e3
                                    if bulk_shed_after_ms is not None
                                    else None),
                      weight=bulk_weight),
    ), mode=mode)


def build_demo_server(models: int = 1, *,
                      deadline_ms: Optional[float] = 50.0,
                      max_batch: int = 4, max_wait_ms: float = 2.0,
                      workers: Optional[int] = None,
                      backend: Optional[str] = None, seed: int = 0,
                      activation_bits: int = 12, die_cache=None,
                      obs=None, sla_mode: str = "strict"):
    """Stand up the demo :class:`~repro.serving.InferenceServer`, idle.

    Builds :func:`post_relu_network` for ``models=1`` or the
    :func:`tenant_models` pair under :func:`mixed_policy` for
    ``models=2`` and returns ``(server, traffic)``, where ``traffic``
    describes how to aim synthetic requests at it: ``traffic["images"]``
    is the demo image pool, ``traffic["cases"]`` one ``(model, priority,
    deadline_ms)`` submit template per class (a single entry of
    ``None``s for the FIFO shape) and ``traffic["interactive_fraction"]``
    the share of requests that take ``cases[0]``.  The caller owns the
    server (``shutdown`` closes its registry/pool).  ``sla_mode`` picks
    the cross-class arbitration (``strict`` / ``weighted_fair``) —
    scheduling only, never the bits.
    """
    if models not in (1, 2):
        raise ValueError("the demo serves 1 or 2 models")
    device = ReRAMDevice(DeviceSpec(), 0.0)
    adc = ADCSpec(bits=paper_adc_bits(_FRAGMENT))
    if models == 1:
        model, config, images = post_relu_network(seed=seed)
        policy = None
        if sla_mode != "strict":
            policy = SlaPolicy((PriorityClass(
                "default", max_batch=max_batch,
                max_wait_s=max_wait_ms / 1e3),), mode=sla_mode)
        server = InferenceServer.from_model(
            model, config, device, adc=adc,
            activation_bits=activation_bits, max_batch=max_batch,
            max_wait_s=max_wait_ms / 1e3, workers=workers, backend=backend,
            die_cache=die_cache, obs=obs, policy=policy)
        return server, {"images": images, "cases": [(None, None, None)],
                        "interactive_fraction": 1.0}
    tenants, config, images = tenant_models(seed=seed)
    registry = ModelRegistry(workers=workers, backend=backend,
                             die_cache=die_cache)
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
    return server, {"images": images,
                    "cases": [(FAST_MODEL, INTERACTIVE, deadline_ms),
                              (BATCH_MODEL, BULK, None)],
                    "interactive_fraction": 0.4}


def _span_lines(span: Dict, depth: int = 0) -> List[str]:
    """One indented line per span of a ``/v1/trace`` tree."""
    label = "  " * depth + span["name"]
    lines = [f"    {label:<24s}{span['duration_s'] * 1e3:8.2f} ms"]
    for child in span.get("children", ()):
        lines.extend(_span_lines(child, depth + 1))
    return lines


def run_demo(requests: int = 16, rate_rps: float = 200.0, models: int = 1, *,
             print_fn: Optional[Callable[[str], None]] = print,
             **build) -> Dict:
    """Serve ``requests`` Poisson arrivals in process and check every bit.

    Builds the demo server (``build`` goes to :func:`build_demo_server`),
    submits open-loop arrivals at ``rate_rps`` — with ``models=2`` a mix
    of interactive requests carrying the deadline and bulk ones — and
    raises ``AssertionError`` unless every served output is bit-identical
    to the serial single-image forward of its model.  Prints the first
    receipts (served or shed), the per-class summary and one served
    request's span tree; returns the server stats snapshot.
    """
    say = print_fn if print_fn is not None else (lambda line: None)
    server, traffic = build_demo_server(models, **build)
    images, cases = traffic["images"], traffic["cases"]
    rng = np.random.default_rng(build.get("seed", 0))
    image_idx = rng.integers(0, images.shape[0], size=requests)
    interactive = rng.random(requests) < traffic["interactive_fraction"]
    arrivals = np.cumsum(rng.exponential(1.0 / rate_rps, size=requests))
    with server:
        say(f"serving {requests} requests at ~{rate_rps:.0f} rps to "
            f"{server.registry.names()} on {server.pool.workers} "
            f"{server.pool.backend} worker(s)")
        start = time.monotonic()
        futures = []
        for i in range(requests):
            delay = start + arrivals[i] - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            model, priority, deadline = cases[0 if interactive[i] else -1]
            futures.append((model, server.submit_async(
                images[image_idx[i]], model=model, priority=priority,
                deadline_s=deadline / 1e3 if deadline else None)))
        outcomes = []
        for model, future in futures:
            try:
                outcomes.append(future.result())
            except RequestShed as exc:
                outcomes.append(exc.receipt)
        snapshot = server.server_stats()
        serial = {model: run_network_serial(
                      server.registry.get(model).network, images, tile_size=1)
                  for model, _, _ in cases}
        served = [o for o in outcomes if isinstance(o, ServedResult)]
        trace = server.trace(served[0].stats.trace_id) if served else None

    for i, ((model, _), outcome) in enumerate(zip(futures, outcomes)):
        if isinstance(outcome, ServedResult) and not np.array_equal(
                outcome.output, serial[model][image_idx[i]]):
            raise AssertionError(
                f"request {i} ({model or 'default'}): served output != "
                "serial single-image forward")
    say(f"bit-identity of {len(served)} served outputs vs serial "
        f"single-image forwards: OK ({requests - len(served)} shed)")
    for outcome in outcomes[:8]:
        if isinstance(outcome, ServedResult):
            s = outcome.stats
            say(f"  request {s.request_id:3d}: batch {s.batch_id} "
                f"(size {s.batch_size}), queue {s.queue_wait_s * 1e3:6.2f} "
                f"ms, latency {s.latency_s * 1e3:6.2f} ms, "
                f"{s.engine_stats['conversions']} conversions")
        else:
            say(f"  request {outcome.request_id:3d}: shed, {outcome.reason} "
                f"({outcome.priority_class}) after "
                f"{outcome.queue_wait_s * 1e3:.1f} ms")
    if requests > 8:
        say(f"  ... {requests - 8} more")
    for name, group in sorted(snapshot["per_class"].items()):
        say(f"class {name:12s} completed {group['completed']:3d}, "
            f"shed {group['shed']:3d}, "
            f"p50 {group['latency_p50_s'] * 1e3:7.2f} ms, "
            f"p95 {group['latency_p95_s'] * 1e3:7.2f} ms")
    say(f"batches formed: {snapshot['batches_formed']} "
        f"(mean size {snapshot['mean_batch_size']:.2f}), "
        f"occupancy {snapshot['occupancy']:.2f}, "
        f"throughput {snapshot['throughput_rps']:.1f} rps")
    if trace is not None:
        say(f"trace {trace['trace_id']} (request {trace['request_id']}):")
        for line in _span_lines(trace["spans"][0]):
            say(line)
    return snapshot


def _serve_until_stopped(stop: Optional[threading.Event],
                         say: Callable[[str], None]) -> None:
    """Block until Ctrl-C or ``stop`` (the test hook) is set."""
    stop = stop if stop is not None else threading.Event()
    try:
        while not stop.wait(0.2):
            pass
    except KeyboardInterrupt:
        say("interrupt: draining")


def run_http_server(models: int = 1, *, host: str = "127.0.0.1",
                    port: int = 8100, use_async: bool = False,
                    print_fn: Optional[Callable[[str], None]] = print,
                    ready: Optional[Callable] = None,
                    stop: Optional[threading.Event] = None,
                    **build) -> Dict:
    """Serve the demo model(s) over HTTP until interrupted.

    The operator mode behind ``python -m repro serve --http PORT``: binds
    the front end (the threaded :class:`~repro.serving.HttpFrontend`, or
    the asyncio :class:`~repro.serving.aio.AsyncFrontend` with
    ``use_async=True`` — same wire protocol plus SSE streaming) over
    :func:`build_demo_server` (which takes ``build``), prints the curl
    lines of the ``docs/serving.md`` walkthrough, and blocks until
    Ctrl-C (or ``stop`` is set — the test hook; ``ready`` receives the
    live frontend once bound).  Draining shutdown on the way out;
    returns the final stats snapshot.
    """
    say = print_fn if print_fn is not None else (lambda line: None)
    server, traffic = build_demo_server(models, **build)
    with server:
        shell = AsyncFrontend if use_async else HttpFrontend
        frontend = shell(server, host=host, port=port, owns_server=True,
                         log=say).start()
        shape = list(traffic["images"].shape[1:])
        say(f"serving {server.registry.names()} on {frontend.url} "
            f"({'asyncio' if use_async else 'threaded'} front end, "
            f"sla_mode={server.policy.mode}, request shape {shape}; "
            f"Ctrl-C drains and exits)")
        say("try:")
        say(f"  curl -s {frontend.url}/healthz")
        say(f"  curl -s {frontend.url}/v1/models")
        model, priority, _ = traffic["cases"][0]
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
        _serve_until_stopped(stop, say)
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
    say = print_fn if print_fn is not None else (lambda line: None)
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
            f"-d '{{\"model\": \"{FAST_MODEL}\", \"priority\": "
            f"\"{INTERACTIVE}\", \"input\": [[...]]}}'")
        if ready is not None:
            ready(harness)
        _serve_until_stopped(stop, say)
        client = HttpClient(router.host, router.port)
        _, snapshot = client.request("GET", "/v1/cluster")
    say("drained; router and replicas closed")
    return snapshot
