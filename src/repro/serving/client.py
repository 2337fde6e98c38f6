"""The client end of the wire protocol (``docs/serving.md``).

:class:`HttpClient` speaks to any front end — threaded, asyncio or the
cluster router — through the same codecs the server side uses
(:mod:`repro.serving.wire`).  It lives apart from the shells so the
cluster's directory and replica harness can probe and proxy without
importing a server.
"""

from __future__ import annotations

import json
import threading
import time
from http.client import HTTPConnection, HTTPException
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .wire import (decode_array_b64, encode_array, interned_keys,
                   iter_sse_events)

#: what a failed round trip through :meth:`HttpClient.request` can raise
#: when the far end dies mid-exchange: connection errors (``OSError``,
#: including ``RemoteDisconnected``), protocol tears (``HTTPException``
#: — truncated status line after a SIGKILL) and partial-body JSON decode
#: failures (``ValueError``).  The cluster's failover classification
#: treats every one of these as "this replica, right now" — retryable.
TRANSPORT_ERRORS = (OSError, HTTPException, ValueError)


class HttpError(RuntimeError):
    """An error response of the wire protocol, decoded.

    ``status`` is the HTTP status, ``code`` the structured error code
    (one of :data:`~repro.serving.wire.ERROR_CODES`), ``payload`` the
    full ``"error"`` object — for ``code == "shed"`` it carries the
    ``receipt``.
    """

    def __init__(self, status: int, payload: Dict):
        error = payload.get("error", {}) if isinstance(payload, dict) else {}
        code = error.get("code", "internal")
        super().__init__(f"HTTP {status} [{code}]: "
                         f"{error.get('message', payload)}")
        self.status = status
        self.code = code
        self.payload = error

    @property
    def receipt(self) -> Optional[Dict]:
        return self.payload.get("receipt")


class WireResult:
    """A served response, decoded: the wire twin of
    :class:`~repro.serving.stats.ServedResult` (``stats`` is the receipt
    dict rather than a :class:`RequestStats`)."""

    __slots__ = ("output", "stats")

    def __init__(self, output: np.ndarray, stats: Dict):
        self.output = output
        self.stats = stats

    @classmethod
    def from_body(cls, body: Dict) -> "WireResult":
        if "output_b64" in body:
            output = decode_array_b64(body["output_b64"])
        else:
            output = np.asarray(body["output"], dtype=np.float64)
        return cls(output, body.get("stats", {}))


def _encode(image, binary: bool):
    image = np.asarray(image)
    return encode_array(image) if binary else image.tolist()


def _envelope(key: str, value, binary: bool, model: Optional[str],
              priority: Optional[str], deadline_ms: Optional[float]) -> Dict:
    """A POST body: the encoded image(s) under ``key`` (``key + "_b64"``
    when ``binary``) plus whichever SLA fields were given."""
    body: Dict = {f"{key}_b64" if binary else key: value}
    if model is not None:
        body["model"] = model
    if priority is not None:
        body["priority"] = priority
    if deadline_ms is not None:
        body["deadline_ms"] = deadline_ms
    return body


class HttpClient:
    """Minimal std-lib client for the wire protocol.

    One short-lived connection per call — safe to share one client
    across threads (the load generator and the smoke tests do).  Every
    non-2xx response raises :class:`HttpError` carrying the structured
    code, except the per-item errors inside an ``infer_batch`` response,
    which are returned in place.

    Retry policy
    ------------
    With ``retries > 0`` the *idempotent GETs* (``/healthz``,
    ``/v1/stats``, ``/v1/models``, ``/metrics``, ``/v1/usage``,
    ``/v1/trace/<id>``) are retried on connection errors — and, for all
    but ``/healthz``, on HTTP 503 — with capped
    exponential backoff and deterministic seeded jitter
    (``backoff_seed``; two clients built with the same seed sleep the
    same schedule, keeping chaos runs replayable).  A retried 503
    carrying the server's ``Retry-After`` hint sleeps that long instead
    of the computed backoff (the server knows its own drain/shed
    horizon).  ``/healthz`` never retries a 503: a draining server
    answers 503 *with a valid body*, which callers must see
    immediately.  POSTs are never retried — the server may have
    executed a request whose response was lost, and re-submitting
    inference is the caller's policy decision, not the transport's.
    The default ``retries=0`` keeps the historical fail-fast behaviour.
    """

    def __init__(self, host: str, port: int, timeout: float = 60.0, *,
                 retries: int = 0, backoff_s: float = 0.05,
                 backoff_cap_s: float = 1.0,
                 backoff_seed: Optional[int] = None):
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if backoff_s < 0 or backoff_cap_s < 0:
            raise ValueError("backoff_s / backoff_cap_s must be >= 0")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.backoff_s = backoff_s
        self.backoff_cap_s = backoff_cap_s
        self._backoff_rng = np.random.default_rng(backoff_seed)
        self._backoff_lock = threading.Lock()

    @classmethod
    def for_frontend(cls, frontend, timeout: float = 60.0,
                     **kwargs) -> "HttpClient":
        return cls(frontend.host, frontend.port, timeout, **kwargs)

    def backoff_delay(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (0-based): exponential from
        ``backoff_s``, capped at ``backoff_cap_s``, jittered into
        [0.5, 1.5) of the base by the seeded stream."""
        base = min(self.backoff_cap_s, self.backoff_s * (2 ** attempt))
        with self._backoff_lock:
            jitter = 0.5 + self._backoff_rng.random()
        return base * jitter

    # -- plumbing -----------------------------------------------------------
    def request(self, method: str, path: str, body: Optional[Dict] = None,
                extra_headers: Optional[Dict] = None) -> Tuple[int, Dict]:
        """One round trip; returns ``(status, decoded JSON)`` untouched."""
        connection = HTTPConnection(self.host, self.port,
                                    timeout=self.timeout)
        try:
            data = (json.dumps(body).encode("utf-8")
                    if body is not None else None)
            headers = {"Content-Type": "application/json",
                       "Connection": "close"}
            if extra_headers:
                headers.update(extra_headers)
            try:
                connection.request(method, path, body=data, headers=headers)
            except (BrokenPipeError, ConnectionResetError):
                # the server refused mid-send (e.g. 413 on an oversized
                # body, answered without reading it) and closed its end;
                # the error response is usually already in our receive
                # buffer — read it instead of surfacing the pipe error.
                # But when http.client already tore the socket down there
                # is nothing to read: surface the connection error (a
                # bare getresponse() would die on the closed socket)
                if connection.sock is None:
                    raise
            response = connection.getresponse()
            raw = response.read()
            return response.status, json.loads(
                raw.decode("utf-8"), object_pairs_hook=interned_keys)
        finally:
            connection.close()

    def request_text(self, method: str, path: str) -> Tuple[int, str]:
        """One raw round trip returning the body *undecoded* — the
        ``/metrics`` path, whose 200 body is Prometheus text, not JSON.
        (Separate from :meth:`request` so scripted-transport tests can
        patch the two independently.)"""
        connection = HTTPConnection(self.host, self.port,
                                    timeout=self.timeout)
        try:
            connection.request(method, path,
                               headers={"Connection": "close"})
            response = connection.getresponse()
            return response.status, response.read().decode("utf-8")
        finally:
            connection.close()

    def _post(self, path: str, body: Dict,
              trace_id: Optional[str]) -> Tuple[int, Dict]:
        # the positional 3-argument call is kept for unheadered requests:
        # tests (and chaos harnesses) monkey-patch ``request`` with
        # scripted transports speaking exactly that signature
        if trace_id is not None:
            return self.request("POST", path, body,
                                {"X-Request-Id": trace_id})
        return self.request("POST", path, body)

    @staticmethod
    def _retry_after(payload) -> Optional[float]:
        """The server's ``Retry-After`` hint, read from the JSON mirror
        (``error.retry_after_s`` — this client decodes bodies, not
        headers); ``None`` when absent or unusable."""
        if not isinstance(payload, dict):
            return None
        error = payload.get("error")
        if not isinstance(error, dict):
            return None
        hint = error.get("retry_after_s")
        if isinstance(hint, (int, float)) and not isinstance(hint, bool) \
                and hint >= 0:
            return float(hint)
        return None

    def _get(self, path: str, *, ok: Tuple[int, ...] = (200,),
             retry_statuses: Tuple[int, ...] = (503,), once=None):
        """GET with the idempotent retry policy (see the class docstring).

        Retries connection-level errors always; HTTP statuses only when
        listed in ``retry_statuses``.  After the last attempt the final
        outcome surfaces unchanged: the connection error, an
        :class:`HttpError` for a status outside ``ok``, or the payload.
        """
        for attempt in range(self.retries + 1):
            last_attempt = attempt == self.retries
            server_hint = None
            try:
                status, payload = (once or self.request)("GET", path)
            except OSError:
                if last_attempt:
                    raise
            else:
                if status not in retry_statuses or last_attempt:
                    if status not in ok:
                        raise HttpError(status, payload)
                    return payload
                server_hint = self._retry_after(payload)
            time.sleep(server_hint if server_hint is not None
                       else self.backoff_delay(attempt))
        raise AssertionError("unreachable")   # pragma: no cover

    # -- endpoints ----------------------------------------------------------
    def infer(self, image: np.ndarray, *, model: Optional[str] = None,
              priority: Optional[str] = None,
              deadline_ms: Optional[float] = None,
              binary: bool = False,
              trace_id: Optional[str] = None) -> WireResult:
        """``POST /v1/infer``; raises :class:`HttpError` on any failure
        (``code "shed"`` carries the receipt).  ``trace_id`` travels as
        the ``X-Request-Id`` header and comes back in the receipt."""
        body = _envelope("input", _encode(image, binary), binary, model,
                         priority, deadline_ms)
        status, payload = self._post("/v1/infer", body, trace_id)
        if status != 200:
            raise HttpError(status, payload)
        return WireResult.from_body(payload)

    def infer_batch(self, images, *, model: Optional[str] = None,
                    priority: Optional[str] = None,
                    deadline_ms: Optional[float] = None,
                    binary: bool = False,
                    trace_id: Optional[str] = None
                    ) -> List[Union[WireResult, HttpError]]:
        """``POST /v1/infer_batch``; per-item results in request order —
        a :class:`WireResult` for served items, an (unraised)
        :class:`HttpError` for shed ones.  Raises on envelope-level
        failures (malformed request, unknown model, all items shed)."""
        body = _envelope("inputs", [_encode(i, binary) for i in images],
                         binary, model, priority, deadline_ms)
        # 503 with a "results" envelope is the every-item-shed case: the
        # per-item receipts are the payload, so decode rather than raise
        status, payload = self._post("/v1/infer_batch", body, trace_id)
        if status not in (200, 207, 503) or "results" not in payload:
            raise HttpError(status, payload)
        return [HttpError(503, item) if "error" in item
                else WireResult.from_body(item)
                for item in payload["results"]]

    def infer_batch_stream(self, images, *, model: Optional[str] = None,
                           priority: Optional[str] = None,
                           deadline_ms: Optional[float] = None,
                           binary: bool = False,
                           trace_id: Optional[str] = None):
        """``POST /v1/infer_batch?stream=1`` against the *async* front
        end: a generator of ``(event, data)`` tuples as the server emits
        them — ``("result", {..., "index": i})`` / ``("shed", {...,
        "index": i})`` per item in resolution order, then one terminal
        ``("done", {"completed": n, "shed": m})``.  Raises
        :class:`HttpError` on envelope-level failures (the server
        answers plain JSON before switching to the event stream)."""
        body = _envelope("inputs", [_encode(i, binary) for i in images],
                         binary, model, priority, deadline_ms)
        connection = HTTPConnection(self.host, self.port,
                                    timeout=self.timeout)
        try:
            headers = {"Content-Type": "application/json",
                       "Connection": "close"}
            if trace_id is not None:
                headers["X-Request-Id"] = trace_id
            connection.request("POST", "/v1/infer_batch?stream=1",
                               body=json.dumps(body).encode("utf-8"),
                               headers=headers)
            response = connection.getresponse()
            content_type = response.getheader("Content-Type") or ""
            if response.status != 200 \
                    or "text/event-stream" not in content_type:
                raise HttpError(response.status,
                                json.loads(response.read().decode("utf-8")))
            yield from iter_sse_events(response)
        finally:
            connection.close()

    def stats(self) -> Dict:
        return self._get("/v1/stats")

    def models(self) -> Dict:
        return self._get("/v1/models")

    def healthz(self) -> Dict:
        """Liveness probe — returns the body for both 200 and 503
        (draining) so operators can poll it during a drain.  Retries
        connection errors only: a 503 here is a *valid* draining body,
        not a transient to paper over."""
        return self._get("/healthz", ok=(200, 503), retry_statuses=())

    # -- observability endpoints -------------------------------------------
    def _metrics_once(self, method: str, path: str) -> Tuple[int, object]:
        status, text = self.request_text(method, path)
        if status == 200:
            return status, text
        try:
            return status, json.loads(text)
        except ValueError:
            return status, {"error": {"code": "internal", "message": text}}

    def metrics(self) -> str:
        """``GET /metrics`` — the raw Prometheus text exposition (the one
        non-JSON body of the protocol; parse with
        :func:`repro.obs.parse_prometheus_text`)."""
        return self._get("/metrics", once=self._metrics_once)

    def usage(self) -> Dict:
        """``GET /v1/usage`` — the per-(model, class) usage snapshot."""
        return self._get("/v1/usage")

    def trace(self, trace_id: str) -> Dict:
        """``GET /v1/trace/<id>`` — one stored trace record; raises
        :class:`HttpError` (``code "not_found"``) once evicted: a 404 is
        a definitive answer and surfaces immediately."""
        return self._get(f"/v1/trace/{trace_id}")
