"""The threaded shell of the wire protocol, and :class:`HttpFrontend`.

A std-lib ``ThreadingHTTPServer`` — one handler thread per connection —
that only moves bytes: it reads a request line, headers and a bounded
body off the socket, asks :mod:`repro.serving.routes` what the request
means, settles any scheduler futures with ``.result()`` on the handler
thread, and writes the reply :func:`repro.serving.wire.render` prepared.
Endpoints, encodings and the error contract are the table's and the
codecs' (``docs/serving.md``); nothing in this module knows a path.

Two front ends run on this shell: :class:`HttpFrontend` over one
:class:`~repro.serving.server.InferenceServer`, and the
:class:`~repro.serving.cluster.ClusterRouter` over a replica directory.
It cannot stream — ``POST /v1/infer_batch?stream=1`` is a 400
``invalid_request`` here (the asyncio shell, :mod:`repro.serving.aio`,
serves it).

Bit-identity over the wire
--------------------------
The transport is **numerics-invisible**: a decoded ``POST /v1/infer``
output is bit-identical to the in-process ``submit`` result for the same
image — at any worker count, read noise on or off, JSON or base64
encoding (``tests/serving/test_http.py``).  The front end never touches
the image values; it only moves bytes and dict keys.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from . import routes, wire
from .routes import Pending, Request, Shell
# benchmarks/e2e/report.py (frozen by BENCHMARK.json) imports these four
# codecs from this module; their home is repro.serving.wire
from .wire import (DEFAULT_MAX_BODY_BYTES, DEFAULT_RETRY_AFTER_S,  # noqa: F401
                   decode_array_b64, decode_input, encode_array, result_body)


def _settle(future):
    """A future's outcome as a value: its result, or what it raised."""
    try:
        return future.result()
    except Exception as exc:   # noqa: BLE001 — routes.finish maps it
        return exc


class _Handler(BaseHTTPRequestHandler):
    """One request: socket in, :mod:`~repro.serving.routes`, socket out."""

    protocol_version = "HTTP/1.1"
    server_version = "forms-serving/1"

    def __getattr__(self, name: str):
        # the std-lib dispatches on ``do_<VERB>`` and answers an HTML 501
        # when the attribute is missing; every verb goes through the
        # table instead, which answers unknown ones with a JSON 405
        if name.startswith("do_"):
            return self._serve
        raise AttributeError(name)

    def log_message(self, format, *args):   # noqa: A002 — stdlib signature
        log = self.server.shell.log
        if log is not None:
            log(f"{self.address_string()} {format % args}")

    def _serve(self) -> None:
        shell: ThreadedShell = self.server.shell
        with shell._track():
            request = Request(self.command, self.path,
                              self.headers.get("X-Request-Id"))
            try:
                handler, length = routes.admit(
                    shell.table, request,
                    self.headers.get("Content-Length"), shell.max_body_bytes)
                body = None if length is None else \
                    wire.whole_body(self.rfile.read(length), length)
            except wire.WireFormatError as exc:
                reply = routes.refuse(request, exc)
            else:
                reply = routes.run(handler, request, body, shell.draining)
                if isinstance(reply, Pending):
                    reply = routes.finish(
                        reply, [_settle(f) for f in reply.futures])
            data, headers = wire.render(*reply, request.trace_id,
                                        shell.retry_after_s)
            self.send_response(reply[0])
            for name, value in headers:
                self.send_header(name, value)
            if request.close:
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(data)


class _Httpd(ThreadingHTTPServer):
    daemon_threads = True
    # handler threads are tracked by ThreadedShell._track, not joined here
    block_on_close = False
    shell: "ThreadedShell"


class _Tracked:
    """Context manager counting one in-flight request on a shell."""

    __slots__ = ("shell",)

    def __init__(self, shell: "ThreadedShell"):
        self.shell = shell

    def __enter__(self) -> "_Tracked":
        with self.shell._inflight_lock:
            self.shell._inflight += 1
        return self

    def __exit__(self, *exc_info) -> None:
        with self.shell._inflight_lock:
            self.shell._inflight -= 1
            self.shell._inflight_lock.notify_all()


# ---------------------------------------------------------------------------
class ThreadedShell(Shell):
    """The accept loop, the handler threads and the drain.

    ``host`` / ``port`` are the bind address; ``port=0`` picks an
    ephemeral port, readable back from :attr:`port` / :attr:`url`.
    Subclasses say what sits behind the table and override
    :meth:`_on_start` / :meth:`_drain_backend`.
    """

    thread_name = "forms-http"

    def __init__(self, table, host: str, port: int, *, max_body_bytes: int,
                 retry_after_s: Optional[float], log):
        super().__init__(table, max_body_bytes, retry_after_s, log)
        self._inflight = 0
        self._inflight_lock = threading.Condition()
        self._httpd = _Httpd((host, port), _Handler)
        self._httpd.shell = self

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    def _track(self) -> _Tracked:
        """Count one in-flight request (the drain barrier)."""
        return _Tracked(self)

    def _on_start(self) -> None:
        """Hook: runs before the accept loop starts."""

    def _drain_backend(self, timeout: Optional[float]) -> None:
        """Hook: step (2) of :meth:`shutdown`."""

    def start(self):
        if self._thread is not None:
            raise RuntimeError("frontend already started")
        self._on_start()
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        name=self.thread_name, daemon=True)
        self._thread.start()
        return self

    def shutdown(self, timeout: Optional[float] = None) -> None:
        """Drain and stop.  Idempotent.

        Order matters: (1) flip :attr:`draining` so new ``POST``s are
        refused with 503 ``"shutting_down"``; (2) drain the backend
        (:meth:`_drain_backend` — an owned inference server serves, or
        sheds with receipts, every already-accepted request, so
        in-flight handlers blocked on futures complete with real
        responses, never a wedged socket); (3) stop the accept loop and
        wait out remaining handler threads.
        """
        if self._shut_down:
            return
        self._shut_down = True
        self._draining = True
        self._drain_backend(timeout)
        if self._thread is not None:
            # stdlib shutdown() blocks on serve_forever's acknowledgment,
            # so it must only run when the accept loop actually ran
            self._httpd.shutdown()
            self._thread.join(timeout)
        with self._inflight_lock:
            self._inflight_lock.wait_for(
                lambda: self._inflight == 0,
                timeout=timeout if timeout is not None else 5.0)
        self._httpd.server_close()


class HttpFrontend(ThreadedShell):
    """The threaded HTTP front end over one :class:`InferenceServer`.

    ``owns_server=True`` hands the server's lifecycle to the front end:
    :meth:`shutdown` drains it (the CLI path).  The default borrows it —
    the owner keeps submitting in-process alongside the wire (the
    test/benchmark path) and a borrowed server is left running.  The
    remaining parameters are :class:`ThreadedShell`'s and
    :class:`~repro.serving.routes.Shell`'s.
    """

    def __init__(self, server, host: str = "127.0.0.1", port: int = 0, *,
                 max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
                 retry_after_s: Optional[float] = DEFAULT_RETRY_AFTER_S,
                 owns_server: bool = False, log=None):
        super().__init__(
            routes.build_table(routes.ReplicaBackend(server)), host, port,
            max_body_bytes=max_body_bytes, retry_after_s=retry_after_s,
            log=log)
        self.server = server
        self.owns_server = owns_server

    def _drain_backend(self, timeout: Optional[float]) -> None:
        if self.owns_server:
            self.server.shutdown(timeout)
