"""HTTP serving benchmark: the open-loop Poisson curve, over the wire.

:mod:`repro.perf.serving` measures the in-process serving stack —
arrivals call ``submit_async`` directly, so its latency numbers stop at
the queue.  This module measures the same open-loop Poisson scenario
through the :class:`~repro.serving.http.HttpFrontend`: every arrival is
a real ``POST /v1/infer`` over a socket on its own client thread, so the
recorded latency is end to end — connect, serialize, parse, queue,
schedule, dispatch, respond — the number the ROADMAP's "heavy traffic"
budget actually means.

Records are the fourth named curve in ``BENCH_engine.json``
(``serving_http_r*``; they share the ``"serving"`` record kind and the
:func:`repro.perf.serving.merge_serving_records` merge path, so engine,
``serving_poisson_*`` and ``serving_multitenant_*`` entries are
preserved).  Results carry both views of each point: the client-side
round-trip percentiles (wire included) and the server-side snapshot
(queue + dispatch only), so the transport's cost is directly readable as
the difference against the paired ``serving_poisson_*`` record at the
same offered rate.

Every point asserts — before anything is recorded — that each decoded
HTTP output is **bit-identical** to a direct serial single-image forward
through the same network: the transport must be numerics-invisible (the
suite's rule; ``tests/serving/test_http.py`` extends the assertion to
read noise and in-process ``submit`` equality).
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .serving import SERVING_RECORD_KIND

#: meta tag distinguishing wire-driven records from in-process ones
HTTP_TRANSPORT = "http"


def http_record_name(rate_rps: float) -> str:
    rate = f"{rate_rps:g}".replace(".", "p")
    return f"serving_http_r{rate}"


def replay_http_open_loop(client, plan: Sequence[Tuple[np.ndarray, Dict]],
                          arrival_offsets: Sequence[float],
                          join_timeout_s: Optional[float] = None
                          ) -> Tuple[List[Dict], float]:
    """Fire one open-loop arrival schedule of ``POST /v1/infer`` calls.

    ``plan`` is one ``(image, infer_kwargs)`` pair per request;
    ``arrival_offsets[i]`` is request *i*'s arrival time relative to the
    replay start.  Each request runs on its own thread and is issued on
    schedule regardless of earlier completions — the open-loop rule: a
    slow server shows up as queueing delay, not as a throttled offered
    rate.  Returns ``(outcomes, open_loop_s)`` where each outcome is
    ``{"latency_s", "result", "error"}`` in request order (``result`` a
    :class:`~repro.serving.client.WireResult`; ``error`` an unraised
    :class:`~repro.serving.client.HttpError` for protocol-level failures
    or the raw exception for transport-level ones — connection reset,
    timeout; exactly one of the two fields is ``None``).

    With ``join_timeout_s`` the join is *bounded*: a load thread still
    running once the shared budget (counted from the last scheduled
    arrival) runs out raises ``AssertionError`` — the chaos points'
    "zero hung requests" proof, where an unbounded join would turn a
    hang into a hung benchmark.
    """
    if len(plan) != len(arrival_offsets):
        raise ValueError("plan and arrival_offsets must align")
    outcomes: List[Optional[Dict]] = [None] * len(plan)
    start = time.monotonic()

    def fire(index: int, image: np.ndarray, kwargs: Dict,
             offset: float) -> None:
        delay = start + offset - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        sent = time.monotonic()
        result = error = None
        try:
            result = client.infer(image, **kwargs)
        except Exception as exc:   # noqa: BLE001 — a dead load thread
            error = exc            # must report, not silently drop, the
            #                        request (the consumers decide whether
            #                        a given error fails the whole run)
        outcomes[index] = {"latency_s": time.monotonic() - sent,
                           "result": result, "error": error}

    threads = [threading.Thread(target=fire, args=(i, image, kwargs, offset),
                                name=f"forms-http-load-{i}", daemon=True)
               for i, ((image, kwargs), offset)
               in enumerate(zip(plan, arrival_offsets))]
    for thread in threads:
        thread.start()
    if join_timeout_s is None:
        for thread in threads:
            thread.join()
    else:
        deadline = (start + (arrival_offsets[-1] if len(arrival_offsets)
                             else 0.0) + join_timeout_s)
        for i, thread in enumerate(threads):
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
            if thread.is_alive():
                raise AssertionError(
                    f"request {i} hung: no response or error within "
                    f"{join_timeout_s:.0f}s of the last arrival")
    return outcomes, time.monotonic() - start   # type: ignore[return-value]


def drive_http_poisson(rate_rps: float, requests: int, *,
                       max_batch: int = 8, max_wait_ms: float = 2.0,
                       workers: Optional[int] = None, seed: int = 0,
                       activation_bits: int = 12, binary: bool = False,
                       die_cache=None) -> Dict:
    """Serve one open-loop Poisson process over HTTP and verify numerics.

    The wire twin of :func:`repro.perf.serving.drive_poisson`: the same
    FORMS-shaped demo network, the same arrival statistics (same seed
    discipline), but every request crosses a real socket through a fresh
    :class:`~repro.serving.HttpFrontend` on an ephemeral port.  Every
    decoded output is asserted bit-identical to a direct serial
    single-image forward.  ``binary`` selects the base64-``.npy`` payload
    encoding over nested JSON arrays (both are byte-exact on the wire).

    Returns ``{"results", "latencies_s", "snapshot", "open_loop_s",
    "workers", "port"}`` — ``latencies_s`` are the client-side round
    trips, ``snapshot`` the server-side stats.
    """
    from ..runtime import run_network_serial
    from ..serving import HttpClient, HttpFrontend
    from ..serving.demo import build_demo_server
    from .serving import poisson_arrival_offsets

    if rate_rps <= 0:
        raise ValueError(f"rate_rps must be > 0, got {rate_rps}")
    if requests < 1:
        raise ValueError(f"requests must be >= 1, got {requests}")
    # the same server build_demo_server(models=1) stands up for the CLI
    # demos — one construction site, so the bench and the demos cannot
    # drift onto different networks
    server, traffic = build_demo_server(
        1, max_batch=max_batch, max_wait_ms=max_wait_ms, workers=workers,
        seed=seed, activation_bits=activation_bits, die_cache=die_cache)
    images = traffic["images"]
    rng = np.random.default_rng(seed)
    image_idx = rng.integers(0, images.shape[0], size=requests)
    arrival_offsets = poisson_arrival_offsets(rng, rate_rps, requests)
    plan = [(images[i], {"binary": binary}) for i in image_idx]

    with server:
        with HttpFrontend(server) as frontend:
            client = HttpClient.for_frontend(frontend)
            outcomes, open_loop_s = replay_http_open_loop(
                client, plan, arrival_offsets)
            port = frontend.port
        snapshot = server.server_stats()
        resolved_workers = server.pool.workers
        serial = run_network_serial(server.model, images, tile_size=1)

    # the single-model FIFO server never sheds: any error fails the point
    for i, outcome in enumerate(outcomes):
        if outcome["error"] is not None:
            raise AssertionError(
                f"request {i} failed over the wire: {outcome['error']}")
        if not np.array_equal(outcome["result"].output,
                              serial[image_idx[i]]):
            raise AssertionError(
                f"request {i}: decoded HTTP output != serial single-image "
                "forward — the transport leaked into the numerics")
    return {
        "results": [outcome["result"] for outcome in outcomes],
        "latencies_s": [outcome["latency_s"] for outcome in outcomes],
        "snapshot": snapshot,
        "open_loop_s": open_loop_s,
        "workers": resolved_workers,
        "port": port,
    }


def run_http_point(rate_rps: float, requests: int = 32, *,
                   max_batch: int = 8, max_wait_ms: float = 2.0,
                   workers: Optional[int] = None, seed: int = 0,
                   activation_bits: int = 12, binary: bool = False,
                   die_cache=None) -> Dict:
    """Measure one HTTP arrival-rate point and return its record.

    Drives :func:`drive_http_poisson` (bit-identity asserted there) and
    packages both latency views as one ``"serving"`` record named
    ``serving_http_r<rate>`` (schema in ``benchmarks/README.md``):
    ``rtt_*`` fields are client-side round trips (transport included),
    ``latency_*`` fields the server-side enqueue-to-completion window —
    their gap is the wire's cost at that load.
    """
    driven = drive_http_poisson(rate_rps, requests, max_batch=max_batch,
                                max_wait_ms=max_wait_ms, workers=workers,
                                seed=seed, activation_bits=activation_bits,
                                binary=binary, die_cache=die_cache)
    snapshot = driven["snapshot"]
    rtts = np.asarray(driven["latencies_s"], dtype=np.float64)
    batch_sizes = [result.stats["batch_size"] for result in driven["results"]]
    return {
        "name": http_record_name(rate_rps),
        "kind": SERVING_RECORD_KIND,
        "results": {
            "offered_rate_rps": rate_rps,
            "throughput_rps": requests / driven["open_loop_s"],
            "rtt_p50_s": float(np.percentile(rtts, 50)),
            "rtt_p95_s": float(np.percentile(rtts, 95)),
            "rtt_max_s": float(rtts.max()),
            "latency_p50_s": snapshot["latency_p50_s"],
            "latency_p95_s": snapshot["latency_p95_s"],
            "latency_max_s": snapshot["latency_max_s"],
            "transport_overhead_p50_s": float(
                np.percentile(rtts, 50) - snapshot["latency_p50_s"]),
            "queue_wait_mean_s": snapshot["queue_wait_mean_s"],
            "queue_wait_p95_s": snapshot["queue_wait_p95_s"],
            "batches_formed": snapshot["batches_formed"],
            "mean_batch_size": snapshot["mean_batch_size"],
            "max_batch_size": snapshot["max_batch_size"],
            "occupancy": snapshot["occupancy"],
        },
        "meta": {
            "transport": HTTP_TRANSPORT,
            "encoding": "npy_b64" if binary else "json",
            "requests": requests,
            "max_batch": max_batch,
            "max_wait_ms": max_wait_ms,
            "workers": driven["workers"],
            "seed": seed,
            "activation_bits": activation_bits,
            "mean_request_batch_size": float(np.mean(batch_sizes)),
            "bit_identical_to_serial": True,
        },
    }
