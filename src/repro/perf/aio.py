"""Async serving benchmark: connection scale on the asyncio front end.

:mod:`repro.perf.http` measures the threaded front end with one client
thread per in-flight request — a shape that cannot reach thousands of
concurrent sockets (the thread stack alone forbids it).  This module
measures what :class:`~repro.serving.aio.AsyncFrontend` exists for:
**hundreds of simultaneously open connections multiplexed onto one
event loop**, each carrying a real ``POST /v1/infer``.  The load
generator is itself asyncio (one task per connection on one client
loop), so a single CPU drives the whole sweep.

The driver opens *all* connections before the first request fires
(an :class:`asyncio.Barrier` across the connection tasks), so the
server provably holds the full connection count at once —
``AsyncFrontend.peak_connections`` is asserted against the target
before anything is recorded.  Requests then depart on an open-loop
Poisson schedule per connection, keep-alive, so the sockets stay
resident for the duration.

Records are the ``serving_async_r*`` curve in ``BENCH_engine.json``
(kind ``"serving"``, merged through
:func:`repro.perf.serving.merge_serving_records` like every serving
curve).  Every point asserts — before anything is recorded — that each
decoded response is **bit-identical** to a direct serial single-image
forward and that every failure is an explicit shed receipt
(``code == "shed"`` with a documented reason): connection scale must
never leak into the numerics, and pressure must never fail silently.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from .serving import SERVING_RECORD_KIND

#: meta tag distinguishing asyncio-driven records from threaded-http ones
ASYNC_TRANSPORT = "asyncio"


def async_record_name(rate_rps: float) -> str:
    rate = f"{rate_rps:g}".replace(".", "p")
    return f"serving_async_r{rate}"


async def _http_roundtrip(reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter,
                          path: str, body: bytes
                          ) -> Tuple[int, Dict[str, str], bytes]:
    """One keep-alive ``POST`` on an already-open client connection."""
    writer.write(b"POST " + path.encode("ascii") + b" HTTP/1.1\r\n"
                 b"Host: bench\r\n"
                 b"Content-Type: application/json\r\n"
                 b"Content-Length: " + str(len(body)).encode("ascii") +
                 b"\r\n\r\n" + body)
    await writer.drain()
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed the connection mid-request")
    status = int(status_line.split()[1])
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0"))
    payload = await reader.readexactly(length) if length else b""
    return status, headers, payload


async def _run_connections(host: str, port: int,
                           plan: List[Tuple[bytes, float]],
                           outcomes: List[Optional[Dict]]) -> int:
    """One task per connection: connect, rendezvous, fire on schedule.

    Returns the number of connections that were simultaneously open at
    the rendezvous (== ``len(plan)`` unless a connect failed, which
    raises).  The barrier is the point: every socket is open before any
    request departs, so the server's ``peak_connections`` gauge must
    read the full count.
    """
    barrier = asyncio.Barrier(len(plan))

    async def one(index: int, body: bytes, offset: float) -> None:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            async with barrier:   # all sockets open before any request
                start = time.monotonic()
            delay = start + offset - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            sent = time.monotonic()
            status, _, payload = await _http_roundtrip(
                reader, writer, "/v1/infer", body)
            outcomes[index] = {"latency_s": time.monotonic() - sent,
                               "status": status,
                               "body": json.loads(payload.decode("utf-8"))}
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):   # pragma: no cover
                pass

    async with asyncio.TaskGroup() as group:
        for index, (body, offset) in enumerate(plan):
            group.create_task(one(index, body, offset))
    return len(plan)


def drive_async_connections(rate_rps: float, connections: int, *,
                            max_batch: int = 8, max_wait_ms: float = 2.0,
                            workers: Optional[int] = None, seed: int = 0,
                            activation_bits: int = 12, binary: bool = False,
                            die_cache=None,
                            max_connections: Optional[int] = None,
                            max_inflight_bytes: Optional[int] = None) -> Dict:
    """Hold ``connections`` sockets open at once and verify every bit.

    Builds the canonical demo server (the same
    :func:`~repro.serving.demo.build_demo_server` network every serving
    bench drives), fronts it with an
    :class:`~repro.serving.aio.AsyncFrontend`, opens ``connections``
    keep-alive sockets *simultaneously* (barrier rendezvous), then fires
    one ``POST /v1/infer`` per connection on an open-loop Poisson
    schedule at ``rate_rps``.

    Asserts before returning: ``frontend.peak_connections >=
    connections`` (the scale claim, measured server-side), every 200
    response bit-identical to the serial single-image forward, and
    every non-200 a documented shed receipt (``code == "shed"``) —
    anything else raises.  ``max_connections`` /
    ``max_inflight_bytes`` arm the transport backpressure, making
    admission sheds an *expected* outcome rather than a failure.

    Returns ``{"outcomes", "served", "shed", "latencies_s",
    "peak_connections", "snapshot", "open_loop_s", "workers", "port"}``.
    """
    from ..runtime import run_network_serial
    from ..serving import WireResult
    from ..serving.aio import AsyncFrontend
    from ..serving.demo import build_demo_server
    from ..serving.wire import encode_array
    from .serving import poisson_arrival_offsets

    if rate_rps <= 0:
        raise ValueError(f"rate_rps must be > 0, got {rate_rps}")
    if connections < 1:
        raise ValueError(f"connections must be >= 1, got {connections}")

    server, traffic = build_demo_server(
        1, max_batch=max_batch, max_wait_ms=max_wait_ms, workers=workers,
        seed=seed, activation_bits=activation_bits, die_cache=die_cache)
    images = traffic["images"]
    rng = np.random.default_rng(seed)
    image_idx = rng.integers(0, images.shape[0], size=connections)
    arrival_offsets = poisson_arrival_offsets(rng, rate_rps, connections)

    plan: List[Tuple[bytes, float]] = []
    for i in range(connections):
        image = images[image_idx[i]]
        envelope = ({"input_b64": encode_array(np.asarray(image))}
                    if binary else {"input": image.tolist()})
        plan.append((json.dumps(envelope).encode("utf-8"),
                     float(arrival_offsets[i])))

    outcomes: List[Optional[Dict]] = [None] * connections
    with server:
        frontend = AsyncFrontend(server, owns_server=True,
                                 max_connections=max_connections,
                                 max_inflight_bytes=max_inflight_bytes
                                 ).start()
        port = frontend.port
        start = time.monotonic()
        asyncio.run(_run_connections(frontend.host, port, plan, outcomes))
        open_loop_s = time.monotonic() - start
        peak = frontend.peak_connections
        snapshot = server.server_stats()
        resolved_workers = server.pool.workers
        serial = run_network_serial(server.model, images, tile_size=1)
        frontend.shutdown()

    if peak < connections:
        raise AssertionError(
            f"front end saw at most {peak} simultaneous connections; the "
            f"driver promised {connections} — the rendezvous failed")
    served = shed = 0
    latencies: List[float] = []
    for i, outcome in enumerate(outcomes):
        if outcome is None:   # pragma: no cover — TaskGroup would raise
            raise AssertionError(f"connection {i} left no outcome")
        latencies.append(outcome["latency_s"])
        if outcome["status"] == 200:
            result = WireResult.from_body(outcome["body"])
            if not np.array_equal(result.output, serial[image_idx[i]]):
                raise AssertionError(
                    f"connection {i}: decoded output != serial single-image "
                    "forward — connection scale leaked into the numerics")
            served += 1
            continue
        error = outcome["body"].get("error", {})
        if error.get("code") != "shed" or "receipt" not in error:
            raise AssertionError(
                f"connection {i} failed without a shed receipt: "
                f"HTTP {outcome['status']} {error}")
        shed += 1
    return {"outcomes": outcomes, "served": served, "shed": shed,
            "latencies_s": latencies, "peak_connections": peak,
            "snapshot": snapshot, "open_loop_s": open_loop_s,
            "workers": resolved_workers, "port": port}


def run_async_point(rate_rps: float, connections: int = 64, *,
                    max_batch: int = 8, max_wait_ms: float = 2.0,
                    workers: Optional[int] = None, seed: int = 0,
                    activation_bits: int = 12, binary: bool = False,
                    die_cache=None,
                    max_connections: Optional[int] = None,
                    max_inflight_bytes: Optional[int] = None) -> Dict:
    """Measure one async connection-scale point and return its record.

    Drives :func:`drive_async_connections` (peak-connection and
    bit-identity assertions live there) and packages both latency views
    as one ``"serving"`` record named ``serving_async_r<rate>``:
    ``rtt_*`` are client-side round trips through the event loop,
    ``latency_*`` the server-side queue window, and
    ``peak_connections`` the proven simultaneous-socket count.
    """
    driven = drive_async_connections(
        rate_rps, connections, max_batch=max_batch,
        max_wait_ms=max_wait_ms, workers=workers, seed=seed,
        activation_bits=activation_bits, binary=binary,
        die_cache=die_cache, max_connections=max_connections,
        max_inflight_bytes=max_inflight_bytes)
    snapshot = driven["snapshot"]
    rtts = np.asarray(driven["latencies_s"], dtype=np.float64)
    return {
        "name": async_record_name(rate_rps),
        "kind": SERVING_RECORD_KIND,
        "results": {
            "offered_rate_rps": rate_rps,
            "throughput_rps": driven["served"] / driven["open_loop_s"],
            "peak_connections": driven["peak_connections"],
            "requests_completed": driven["served"],
            "requests_shed": driven["shed"],
            "rtt_p50_s": float(np.percentile(rtts, 50)),
            "rtt_p95_s": float(np.percentile(rtts, 95)),
            "rtt_max_s": float(rtts.max()),
            "latency_p50_s": snapshot["latency_p50_s"],
            "latency_p95_s": snapshot["latency_p95_s"],
            "queue_wait_p95_s": snapshot["queue_wait_p95_s"],
            "batches_formed": snapshot["batches_formed"],
            "mean_batch_size": snapshot["mean_batch_size"],
            "max_batch_size": snapshot["max_batch_size"],
            "occupancy": snapshot["occupancy"],
        },
        "meta": {
            "transport": ASYNC_TRANSPORT,
            "encoding": "npy_b64" if binary else "json",
            "connections": connections,
            "max_batch": max_batch,
            "max_wait_ms": max_wait_ms,
            "workers": driven["workers"],
            "seed": seed,
            "activation_bits": activation_bits,
            "transport_caps": {"max_connections": max_connections,
                               "max_inflight_bytes": max_inflight_bytes},
            "sheds_documented_receipts": True,
            "bit_identical_to_serial": True,
        },
    }
