"""The asyncio shell of the wire protocol: thousands of connections.

The threaded shell (:mod:`repro.serving.http`) spends one OS thread per
connection — fine for tens of clients, hopeless for the ROADMAP's
"millions of users" shape where most connections are *idle* (queued
behind the SLA scheduler, or holding a stream open).  This module serves
the **same wire protocol** from a single std-lib ``asyncio`` event loop:

* it decides nothing about a request: route resolution, body bounds,
  JSON and envelope validation, the error map and every response body
  come from :mod:`repro.serving.routes` / :mod:`repro.serving.wire` —
  the very functions the threaded shell calls — so the two front ends
  answer alike by construction, and
  ``tests/serving/test_route_conformance.py`` walks the route table on
  both (and on the cluster router) to keep it so;
* :func:`repro.serving.routes.run` — parse, decode and the blocking
  :meth:`~repro.serving.server.InferenceServer.submit_async` calls (the
  submit takes the server's shutdown lock and touches the registry) —
  runs in **one** ``run_in_executor`` hop per request, then
  ``asyncio.wrap_future`` awaits the resulting futures without blocking
  the loop: ten thousand pending requests cost ten thousand coroutines,
  not ten thousand threads;
* ``POST /v1/infer_batch?stream=1`` answers as a **server-sent event
  stream** (``Content-Type: text/event-stream``): one event per item *in
  resolution order* (each carries its request-order ``index``), a
  terminal ``done`` summary, then the connection closes.  The event
  types are :data:`~repro.serving.wire.STREAM_EVENTS` — documented in
  ``docs/serving.md`` and enforced by ``scripts/check_docs.py``;
* **transport backpressure** rides the same
  :class:`~repro.serving.scheduler.AdmissionController` that throttles
  queue intake: ``max_connections`` refuses new sockets,
  ``max_inflight_bytes`` refuses a request body whose declared length
  would push the resident payload bytes past the cap.  Every refusal is a
  documented :class:`~repro.serving.scheduler.ShedReceipt` (reason
  ``admission``, model/class :data:`TRANSPORT_SCOPE`) routed through
  the server's single shed-record site, so ``/metrics``, ``/v1/stats``
  and ``/v1/usage`` account transport sheds exactly like queue sheds.

Bit-identity is untouched: the front end moves bytes and dict keys; a
decoded response is bit-identical to the in-process ``submit`` result
and the serial single-image forward at any worker count, noise on or
off, JSON or base64 (``tests/serving/test_aio.py``).

Lifecycle mirrors the threaded front end: the event loop runs on one
background thread, :meth:`AsyncFrontend.start` /
:meth:`AsyncFrontend.shutdown` (drain semantics: refuse new work,
resolve or shed everything accepted, close the port), context-manager
support, ``owns_server`` deciding whether shutdown drains the inference
server too.  The end-to-end benchmark's ``serve_async_stream`` workload
(``benchmarks/e2e/``) measures it under streamed batches.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from typing import Dict, List, Optional, Tuple

from ..obs import instrument
from ..obs.trace import span_dict
from . import routes, wire
from .routes import Pending, Request, Shell
from .scheduler import (SHED_ADMISSION, AdmissionController, RequestShed,
                        ShedReceipt)
from .wire import (DEFAULT_MAX_BODY_BYTES, DEFAULT_RETRY_AFTER_S,
                   STREAM_EVENTS, WireFormatError)

#: model / priority-class label on transport-level shed receipts (a
#: connection or body refused before any model was named)
TRANSPORT_SCOPE = "transport"

_REASONS = {
    200: "OK", 207: "Multi-Status", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 411: "Length Required",
    413: "Payload Too Large", 500: "Internal Server Error",
    503: "Service Unavailable",
}

#: asyncio stream-reader buffer limit: bounds a single header *line*
#: (an unbounded request line would buffer arbitrarily); bodies are
#: read with ``readexactly`` and bounded by ``max_body_bytes`` instead
_READER_LIMIT = 1 << 16


class _Conn:
    """Per-connection state: the writer (for drain-time closes) and
    whether a request is currently being handled (idle connections are
    closed outright at drain; busy ones finish their response first)."""

    __slots__ = ("writer", "busy")

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        self.busy = False


def _head(status: int, headers: List[Tuple[str, str]], close: bool) -> bytes:
    lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
             "Server: forms-serving-aio/1"]
    lines += [f"{name}: {value}" for name, value in headers]
    lines.append("Connection: close" if close else "Connection: keep-alive")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


class AsyncFrontend(Shell):
    """The asyncio front end over one :class:`InferenceServer`.

    Same constructor surface as the threaded
    :class:`~repro.serving.http.HttpFrontend` (host/port,
    ``max_body_bytes``, ``retry_after_s``, ``owns_server``, ``log``)
    plus the transport backpressure knobs:

    ``max_connections`` / ``max_inflight_bytes``:
        When either is given, the front end builds a dedicated
        :class:`~repro.serving.scheduler.AdmissionController` carrying
        just the transport caps.  When neither is given, the *server's*
        admission controller is consulted (``admit_transport`` admits
        everything on an unconfigured controller) — so one controller
        can own both the queue-intake and the transport policy.

    The listening socket, all connection handlers and the SSE streams
    run on one event loop on one daemon thread; :meth:`start` /
    :meth:`shutdown` present the same synchronous lifecycle as the
    threaded front end, so demos, benchmarks and tests drive either
    interchangeably.
    """

    def __init__(self, server, host: str = "127.0.0.1", port: int = 0, *,
                 max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
                 retry_after_s: Optional[float] = DEFAULT_RETRY_AFTER_S,
                 owns_server: bool = False, log=None,
                 max_connections: Optional[int] = None,
                 max_inflight_bytes: Optional[int] = None):
        super().__init__(routes.build_table(routes.ReplicaBackend(server)),
                         max_body_bytes, retry_after_s, log)
        self.server = server
        self.owns_server = owns_server
        if max_connections is not None or max_inflight_bytes is not None:
            self.admission = AdmissionController(
                max_connections=max_connections,
                max_inflight_bytes=max_inflight_bytes)
        else:
            self.admission = getattr(server, "admission", None)
        self._requested = (host, port)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._aio_server: Optional[asyncio.AbstractServer] = None
        self._started = threading.Event()
        self._start_error: Optional[BaseException] = None
        self._sockname: Tuple[str, int] = (host, port)
        # loop-thread-only state, read cross-thread by the gauge sources
        # (plain int reads are atomic under the GIL)
        self._conns: set = set()
        self._inflight_bytes = 0
        self.peak_connections = 0
        metrics = server.obs.metrics
        instrument(metrics, "forms_async_connections",
                   source=lambda: {(): len(self._conns)})
        instrument(metrics, "forms_async_inflight_bytes",
                   source=lambda: {(): self._inflight_bytes})
        self._m_streams = instrument(metrics, "forms_streams_total")
        self._m_events = instrument(metrics, "forms_stream_events_total")

    @property
    def host(self) -> str:
        return self._sockname[0]

    @property
    def port(self) -> int:
        return self._sockname[1]

    @property
    def connections(self) -> int:
        """Open sockets right now (a racy gauge, like queue depth)."""
        return len(self._conns)

    def _log(self, line: str) -> None:
        if self.log is not None:
            self.log(line)

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> "AsyncFrontend":
        if self._thread is not None:
            raise RuntimeError("frontend already started")
        self._thread = threading.Thread(target=self._run_loop,
                                        name="forms-aio", daemon=True)
        self._thread.start()
        self._started.wait()
        if self._start_error is not None:
            error, self._start_error = self._start_error, None
            self._thread.join()
            raise error
        return self

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            host, port = self._requested
            self._aio_server = loop.run_until_complete(asyncio.start_server(
                self._handle_connection, host, port, limit=_READER_LIMIT))
            self._sockname = \
                self._aio_server.sockets[0].getsockname()[:2]
        except BaseException as exc:   # surface bind errors to start()
            self._start_error = exc
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_forever()
        finally:
            # resolve any still-pending callbacks, then free the loop
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True))
            loop.close()

    def shutdown(self, timeout: Optional[float] = None) -> None:
        """Drain and stop.  Idempotent; same order as the threaded end:
        (1) flip :attr:`draining` so new POSTs answer 503
        ``"shutting_down"``; (2) drain the owned inference server — every
        accepted request resolves (served or shed with a receipt), so
        handlers and streams blocked on futures finish with real bytes,
        never a wedged socket; (3) close the listener, close idle
        keep-alive connections, wait out busy handlers, stop the loop."""
        if self._shut_down:
            return
        self._shut_down = True
        self._draining = True
        if self.owns_server:
            self.server.shutdown(timeout)
        loop, thread = self._loop, self._thread
        if loop is None or thread is None:
            return
        bound = timeout if timeout is not None else 10.0
        if thread.is_alive():
            drain = asyncio.run_coroutine_threadsafe(
                self._drain_async(bound), loop)
            try:
                drain.result(bound + 1.0)
            except Exception:   # noqa: BLE001 — shutdown must not raise
                pass
            loop.call_soon_threadsafe(loop.stop)
        thread.join(bound)

    async def _drain_async(self, timeout: float) -> None:
        if self._aio_server is not None:
            self._aio_server.close()
            await self._aio_server.wait_closed()
        # idle keep-alive connections are parked in readline() waiting
        # for a request that will never come — close them outright;
        # busy ones flush their in-flight response first
        for conn in list(self._conns):
            if not conn.busy:
                conn.writer.close()
        deadline = time.monotonic() + timeout
        while self._conns and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        for conn in list(self._conns):   # stragglers: abort, never hang
            conn.writer.close()

    # -- socket reads and writes ---------------------------------------------
    async def _reply(self, writer: asyncio.StreamWriter, request: Request,
                     status: int, body) -> None:
        data, headers = wire.render(status, body, request.trace_id,
                                    self.retry_after_s)
        writer.write(_head(status, headers, request.close) + data)
        await writer.drain()

    async def _read_request(self, reader: asyncio.StreamReader
                            ) -> Optional[Tuple[List[str], Dict[str, str]]]:
        """Parse one request head; ``None`` means EOF / unparseable."""
        try:
            line = await reader.readline()
        except (ValueError, ConnectionError, asyncio.LimitOverrunError):
            return None
        if not line:
            return None
        parts = line.decode("latin-1").split()
        headers: Dict[str, str] = {}
        while True:
            try:
                hline = await reader.readline()
            except (ValueError, ConnectionError, asyncio.LimitOverrunError):
                return None
            if hline in (b"\r\n", b"\n", b""):
                break
            name, sep, value = hline.decode("latin-1").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        return parts, headers

    def _admit_transport(self, request: Request, declared: int,
                         detail: str) -> None:
        """Raise the :class:`RequestShed` of a transport-level admission
        refusal when the caps are hit with ``declared`` more body bytes.

        The receipt rides the server's single shed-record site
        (:meth:`~repro.serving.server.InferenceServer.record_shed`), so
        ``/v1/stats``, ``/v1/usage`` and ``forms_requests_shed_total``
        count transport sheds under :data:`TRANSPORT_SCOPE` exactly like
        queue sheds — "sheds only as documented receipts" includes
        backpressure.
        """
        if self.admission is None or self.admission.admit_transport(
                len(self._conns), self._inflight_bytes + declared):
            return
        receipt = ShedReceipt(
            request_id=-1, model=TRANSPORT_SCOPE,
            priority_class=TRANSPORT_SCOPE, reason=SHED_ADMISSION,
            queue_wait_s=0.0, trace_id=request.trace_id)
        self.server.record_shed(receipt)
        self._log(f"transport shed: {detail} at {len(self._conns)} open, "
                  f"{self._inflight_bytes} bytes in flight")
        raise RequestShed(receipt)

    # -- connection loop -----------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        opening = Request("", "/", None)
        try:
            self._admit_transport(opening, 0, "connection refused")
        except RequestShed as exc:
            # refused before reading a byte: answer 503 shed and close
            # (our client reads the early response instead of the pipe)
            try:
                await self._reply(writer, opening,
                                  *routes.refuse(opening, exc))
            except (ConnectionError, OSError):
                pass
            writer.close()
            return
        conn = _Conn(writer)
        self._conns.add(conn)
        self.peak_connections = max(self.peak_connections, len(self._conns))
        try:
            while True:
                head = await self._read_request(reader)
                if head is None:
                    break
                conn.busy = True
                try:
                    keep = await self._dispatch(reader, writer, head)
                finally:
                    conn.busy = False
                if not keep or self._draining:
                    break
        except (ConnectionError, OSError):
            pass   # client went away; accepted work still resolves
        finally:
            self._conns.discard(conn)
            writer.close()

    async def _dispatch(self, reader, writer, head) -> bool:
        """Serve one request; returns whether to keep the connection."""
        parts, headers = head
        supplied_id = headers.get("x-request-id")
        try:
            if len(parts) != 3:
                request = Request("", "/", supplied_id)
                await self._reply(writer, request, *routes.refuse(
                    request, WireFormatError(400, "invalid_request",
                                             "unparseable request line")))
                return False
            request = Request(parts[0], parts[1], supplied_id,
                              can_stream=True)
            request.close = headers.get("connection", "").lower() == "close"
            await self._serve(reader, writer, request,
                              headers.get("content-length"))
        except (ConnectionError, OSError):
            return False
        self._log(f"{request.method} {request.path}")
        return not request.close

    async def _serve(self, reader, writer, request: Request,
                     length_header: Optional[str]) -> None:
        held = 0
        try:
            try:
                handler, length = routes.admit(
                    self.table, request, length_header, self.max_body_bytes)
                body = None
                if length is not None:
                    # refuse before buffering the body — the whole point
                    # of the inflight-bytes bound: the check charges the
                    # *declared* length, so a body that would push
                    # residency past the cap never gets read
                    self._admit_transport(request, length,
                                          f"body of {length} bytes refused")
                    try:
                        body = await reader.readexactly(length)
                    except asyncio.IncompleteReadError as exc:
                        body = exc.partial
                    wire.whole_body(body, length)
            except (WireFormatError, RequestShed) as exc:
                await self._reply(writer, request,
                                  *routes.refuse(request, exc))
                return
            held = length or 0
            self._inflight_bytes += held
            loop = asyncio.get_running_loop()
            reply = await loop.run_in_executor(
                None, routes.run, handler, request, body, self.draining)
            if isinstance(reply, Pending):
                futures = [asyncio.wrap_future(f) for f in reply.futures]
                if request.stream and reply.item is not None:
                    await self._stream(writer, request, futures, reply.item)
                    return
                reply = routes.finish(reply, await asyncio.gather(
                    *futures, return_exceptions=True))
            await self._reply(writer, request, *reply)
        finally:
            self._inflight_bytes -= held

    # -- the SSE streaming path ----------------------------------------------
    async def _write_event(self, writer, event: str, body: Dict) -> None:
        assert event in STREAM_EVENTS, f"undocumented event type {event!r}"
        data = json.dumps(body)
        writer.write(f"event: {event}\ndata: {data}\n\n".encode("utf-8"))
        await writer.drain()
        self._m_events.labels(event).inc()

    async def _stream(self, writer, request: Request,
                      futures: List[asyncio.Future], item) -> None:
        """Emit one SSE event per item *as it resolves* plus a ``done``.

        Events carry the request-order ``index`` so an out-of-order
        resolution is still attributable; a shed item is an event, not a
        dropped stream.  A client that disconnects mid-stream aborts the
        emission only — the enqueued work still resolves server-side
        (receipts and all), so a torn stream never strands a future.
        """
        start = time.perf_counter()
        request.close = True   # SSE has no Content-Length: close delimits
        writer.write(_head(200, [("Content-Type", "text/event-stream"),
                                 ("X-Request-Id", request.trace_id),
                                 ("Cache-Control", "no-store")], True))
        await writer.drain()

        async def resolve(index: int, future: asyncio.Future):
            try:
                return index, item(await future)
            except Exception as exc:   # noqa: BLE001 — an event, not a tear
                return index, wire.error_reply(exc)[1]

        tasks = [asyncio.ensure_future(resolve(index, future))
                 for index, future in enumerate(futures)]
        served = shed = 0
        outcome = "completed"
        try:
            for task in asyncio.as_completed(tasks):
                index, body = await task
                body["index"] = index
                if "error" in body:
                    wire.mark_error(body, request.trace_id,
                                    self.retry_after_s)
                    await self._write_event(writer, "shed", body)
                    shed += 1
                else:
                    await self._write_event(writer, "result", body)
                    served += 1
            await self._write_event(writer, "done",
                                    {"completed": served, "shed": shed})
        except (ConnectionError, OSError):
            outcome = "aborted"
            # drain: the futures resolve regardless
            await asyncio.gather(*tasks, return_exceptions=True)
            raise
        finally:
            self._m_streams.labels(outcome).inc()
            obs = self.server.obs
            if obs.tracing:
                obs.traces.put({
                    "trace_id": f"{request.trace_id}.stream",
                    "stream": {"outcome": outcome, "completed": served,
                               "shed": shed, "items": len(futures)},
                    "spans": [span_dict(
                        "stream", time.perf_counter() - start,
                        start_s=0.0, outcome=outcome, items=len(futures),
                        completed=served, shed=shed)],
                })
