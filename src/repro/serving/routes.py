"""What a request means: the one route table behind every front end.

The threaded shell (:mod:`repro.serving.http`, which also carries the
cluster router) and the asyncio shell (:mod:`repro.serving.aio`) parse a
request line and headers off their sockets and hand them here.  This
module owns every decision that does not depend on how the bytes moved:

* the request target is split **once**, in :class:`Request` — the path
  selects the route, the query string is ignored except for documented
  flags (``?stream=1``);
* :func:`build_table` lays the ``(method, path) -> handler`` table over
  a **backend** — :class:`ReplicaBackend` (one
  :class:`~repro.serving.server.InferenceServer`) or the
  :class:`~repro.serving.cluster.ClusterRouter` (directory + proxy);
* :func:`admit` resolves the route (404 ``not_found`` / 405
  ``method_not_allowed`` — any verb other than GET/POST is a 405) and
  validates ``Content-Length`` before a body byte is read;
* :func:`run` executes the handler — draining refusal, JSON parsing,
  envelope validation, the exception -> error-reply map — and returns
  either a ready reply or a :class:`Pending` (futures plus a ``finish``
  callback), which the shell settles its own way (``.result()`` on a
  handler thread, ``wrap_future`` on the event loop, or SSE frames per
  item) before :func:`finish` builds the reply.

A shell therefore only reads and writes sockets; it cannot answer a
request differently from the other shell because it never decides what
the answer is (``tests/serving/test_route_conformance.py`` walks the
table on all three front ends).

Backend interface
-----------------
``healthz(draining) -> Reply``, ``stats_snapshot() -> dict``,
``models() -> Reply``, ``metrics_text() -> str``,
``trace(trace_id) -> dict | None``, ``infer(request, payload)`` /
``infer_batch(request, payload)`` ``-> Reply | Pending`` and
``extra_get`` — ``{path: snapshot callable}`` for the GETs only that
backend has (``/v1/usage`` on a replica, ``/v1/cluster`` on the router).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Union
from urllib.parse import parse_qs, urlsplit

from . import wire
from .scheduler import RequestShed
from .wire import Reply, WireFormatError

INFER = "/v1/infer"
INFER_BATCH = "/v1/infer_batch"
HEALTHZ = "/healthz"
#: a table path ending in "/" is a prefix route; the rest of the request
#: path reaches the handler as ``request.tail``
TRACE = "/v1/trace/"

Handler = Callable[["Request", Optional[Dict]], Union[Reply, "Pending"]]
Table = Dict[Tuple[str, str], Handler]


class Request:
    """One request as the table sees it: verb, split target, trace id."""

    __slots__ = ("method", "path", "query", "trace_id", "can_stream",
                 "tail", "draining", "close")

    def __init__(self, method: str, target: str, supplied_id: Optional[str],
                 *, can_stream: bool = False):
        split = urlsplit(target)
        self.method = method
        self.path = split.path
        self.query = split.query
        self.trace_id = wire.adopt_trace_id(supplied_id)
        #: whether the shell serving this request can answer as SSE
        self.can_stream = can_stream
        self.tail = ""
        self.draining = False
        #: the shell closes the connection after replying
        self.close = False

    @property
    def stream(self) -> bool:
        return parse_qs(self.query).get("stream", ["0"])[-1] \
            in ("1", "true", "yes")


class Pending:
    """A POST waiting on scheduler futures.

    The shell settles ``futures`` (each outcome a result or the
    exception the future raised) and passes the outcomes, in order, to
    :func:`finish`.  ``item`` is set on a streamable batch: it maps one
    outcome onto that item's response body, so the SSE path can emit
    items as they resolve.
    """

    __slots__ = ("futures", "finish", "item")

    def __init__(self, futures: List, finish: Callable[[List], Reply],
                 item: Optional[Callable] = None):
        self.futures = futures
        self.finish = finish
        self.item = item


# ---------------------------------------------------------------------------
def build_table(backend) -> Table:
    """The wire protocol's routes over one backend."""
    table: Table = {
        ("GET", HEALTHZ):
            lambda request, _: backend.healthz(request.draining),
        ("GET", "/v1/stats"): lambda request, _: (200, backend.stats_snapshot()),
        ("GET", "/v1/models"): lambda request, _: backend.models(),
        ("GET", "/metrics"): lambda request, _: (200, backend.metrics_text()),
        ("GET", TRACE): lambda request, _: _trace(backend, request.tail),
        ("POST", INFER): backend.infer,
        ("POST", INFER_BATCH): backend.infer_batch,
    }
    for path, snapshot in backend.extra_get.items():
        table["GET", path] = \
            lambda request, _, snapshot=snapshot: (200, snapshot())
    return table


def _trace(backend, trace_id: str) -> Reply:
    record = backend.trace(trace_id)
    if record is None:
        raise WireFormatError(
            404, "not_found",
            f"no stored trace for id {trace_id!r} (never seen, evicted "
            f"from the ring, or tracing is disabled)")
    return 200, record


def healthz_reply(draining: bool, degraded: bool, **fields) -> Reply:
    """The ``/healthz`` body: 503 only while draining — a degraded
    backend is alive and serving, just worth an operator's look."""
    status = "draining" if draining else "degraded" if degraded else "ok"
    return (503 if draining else 200,
            {"status": status, "draining": draining, **fields})


def admit(table: Table, request: Request, length_header: Optional[str],
          max_body_bytes: int) -> Tuple[Handler, Optional[int]]:
    """Everything decidable before a body byte is read: the route and,
    for a POST, the declared body length (``None`` for a GET)."""
    path = request.path
    if request.method not in ("GET", "POST"):
        raise WireFormatError(
            405, "method_not_allowed",
            f"method {request.method!r} is not part of the protocol")
    if ("GET", path) not in table and ("POST", path) not in table:
        prefix = next((p for _, p in table
                       if p.endswith("/") and path.startswith(p)), None)
        if prefix is None:
            raise WireFormatError(404, "not_found", f"unknown path {path!r}")
        request.tail, path = path[len(prefix):], prefix
    handler = table.get((request.method, path))
    if handler is None:
        other = "POST" if request.method == "GET" else "GET"
        raise WireFormatError(405, "method_not_allowed",
                              f"{request.path} requires {other}")
    if request.method == "GET":
        return handler, None
    return handler, wire.body_length(length_header, max_body_bytes)


def refuse(request: Request, exc: BaseException) -> Reply:
    """The reply to a request refused before :func:`run`.  A refused
    POST (or unknown verb) may leave its body unread, so the connection
    cannot be reused."""
    request.close = request.close or request.method != "GET"
    return wire.error_reply(exc)


def run(handler: Handler, request: Request, body: Optional[bytes],
        draining: bool) -> Union[Reply, Pending]:
    """Execute one admitted request.  Never raises: every failure comes
    back as the documented error reply."""
    request.draining = draining
    try:
        if body is None:
            return handler(request, None)
        if draining:
            raise WireFormatError(503, "shutting_down",
                                  "draining; request refused")
        return handler(request, wire.parse_object(body))
    except Exception as exc:   # noqa: BLE001 — the wire must answer
        return wire.error_reply(exc)


def finish(pending: Pending, outcomes: List) -> Reply:
    """The reply to a :class:`Pending` whose futures have all settled."""
    try:
        return pending.finish(outcomes)
    except Exception as exc:   # noqa: BLE001 — the wire must answer
        return wire.error_reply(exc)


def batch_inputs(request: Request, payload: Dict) -> Tuple[str, List]:
    """The ``/v1/infer_batch`` envelope, stream flag included:
    ``(key, items)`` where ``key`` is whichever of ``"inputs"`` /
    ``"inputs_b64"`` the caller used."""
    if request.stream and not request.can_stream:
        raise WireFormatError(
            400, "invalid_request",
            "?stream=1 is served by the asyncio front end only")
    has_json, has_b64 = "inputs" in payload, "inputs_b64" in payload
    key = "inputs_b64" if has_b64 else "inputs"
    raw = payload.get(key)
    if has_json == has_b64 or not isinstance(raw, list) or not raw:
        raise WireFormatError(
            400, "invalid_request",
            "pass exactly one non-empty list: 'inputs' (nested JSON "
            "arrays) or 'inputs_b64' (base64 .npy strings)")
    return key, raw


# ---------------------------------------------------------------------------
class ReplicaBackend:
    """One :class:`~repro.serving.server.InferenceServer` behind the
    table (a replica, in the cluster's terms)."""

    def __init__(self, server):
        self.server = server
        self.stats_snapshot = server.server_stats
        self.metrics_text = server.metrics_text
        self.trace = server.trace
        self.extra_get = {"/v1/usage": server.usage_snapshot}

    def healthz(self, draining: bool) -> Reply:
        fields = {"models": self.server.registry.names()}
        # die-pool health summary — additive: existing clients keyed on
        # status/draining/models are untouched
        health = getattr(self.server, "die_health", None)
        if health is not None:
            fields["dies"] = health.counts()
        return healthz_reply(draining,
                             health is not None and health.degraded, **fields)

    def models(self) -> Reply:
        return 200, self.server.registry_stats()

    def _submit_kwargs(self, request: Request, payload: Dict) -> Dict:
        """Validate and map the request envelope onto ``submit_async``
        kwargs.

        Pre-resolves the model and the priority class so the two distinct
        failure modes get distinct error codes (``unknown_model`` 404 vs
        ``unknown_priority`` 400) instead of one opaque 400.
        """
        model = payload.get("model")
        if model is not None and not isinstance(model, str):
            raise WireFormatError(400, "invalid_request",
                                  "'model' must be a string")
        priority = payload.get("priority")
        if priority is not None and not isinstance(priority, str):
            raise WireFormatError(400, "invalid_request",
                                  "'priority' must be a string")
        deadline_ms = payload.get("deadline_ms")
        if deadline_ms is not None:
            if not isinstance(deadline_ms, (int, float)) \
                    or isinstance(deadline_ms, bool) or deadline_ms <= 0:
                raise WireFormatError(400, "invalid_request",
                                      "'deadline_ms' must be a number > 0")
        try:
            self.server.registry.get(model)
        except KeyError as exc:
            raise WireFormatError(404, "unknown_model", str(exc.args[0]))
        except ValueError as exc:
            # a multi-tenant registry needs an explicit name
            raise WireFormatError(400, "invalid_request", str(exc))
        try:
            self.server.policy.rank_of(priority)
        except KeyError as exc:
            raise WireFormatError(400, "unknown_priority", str(exc.args[0]))
        return {
            "model": model,
            "priority": priority,
            "deadline_s": deadline_ms / 1e3 if deadline_ms is not None else None,
            "trace_id": request.trace_id,
        }

    def infer(self, request: Request, payload: Dict) -> Pending:
        image, binary = wire.decode_input(payload)
        kwargs = self._submit_kwargs(request, payload)
        try:
            future = self.server.submit_async(image, **kwargs)
        except ValueError as exc:
            # image-shape pin mismatch / degenerate image — the one
            # validation submit_async owns that _submit_kwargs cannot
            raise WireFormatError(400, "invalid_input", str(exc))

        def finish(outcomes: List) -> Reply:
            if isinstance(outcomes[0], BaseException):
                raise outcomes[0]
            return 200, wire.result_body(outcomes[0], binary)
        return Pending([future], finish)

    def infer_batch(self, request: Request, payload: Dict) -> Pending:
        """Every item is enqueued before any is waited on, so they may
        coalesce into shared batches."""
        key, raw = batch_inputs(request, payload)
        binary = key == "inputs_b64"
        decode = wire.decode_array_b64 if binary else wire.decode_array_json
        images = [decode(item) for item in raw]
        kwargs = self._submit_kwargs(request, payload)
        futures = []
        for index, image in enumerate(images):
            try:
                futures.append(self.server.submit_async(image, **kwargs))
            except (ValueError, RuntimeError) as exc:
                if isinstance(exc, ValueError):   # e.g. a shape mismatch
                    exc = WireFormatError(400, "invalid_input", str(exc))
                refusal = wire.error_reply(exc)
                refusal[1]["error"].update(
                    message=f"inputs[{index}]: {exc}", index=index)
                # never strand what was already enqueued: the shell
                # still settles the earlier items before this answers
                return Pending(futures, lambda outcomes: refusal)

        def item(outcome) -> Dict:
            if isinstance(outcome, RequestShed):
                return wire.shed_body(outcome)
            if isinstance(outcome, BaseException):
                raise outcome
            return wire.result_body(outcome, binary)
        return Pending(
            futures,
            lambda outcomes: wire.batch_reply([item(o) for o in outcomes]),
            item)


# ---------------------------------------------------------------------------
class Shell:
    """What every front end carries besides its sockets: the table, the
    body/retry limits and the draining flag.

    ``max_body_bytes`` bounds a request body (a longer ``Content-Length``
    is refused with 413 before the body is read).  ``retry_after_s`` is
    the ``Retry-After`` hint attached (as a header and as the
    ``"retry_after_s"`` body mirror) to every 503 response — shed,
    ``shutting_down``, ``die_fault`` and the draining ``/healthz`` body;
    ``None`` disables the hint.  ``log`` is an optional callable
    receiving one access-log line per request.

    Subclasses provide ``host`` / ``port`` / ``start`` / ``shutdown``;
    use as a context manager or call those two explicitly.
    """

    def __init__(self, table: Table, max_body_bytes: int,
                 retry_after_s: Optional[float], log):
        if max_body_bytes < 1:
            raise ValueError("max_body_bytes must be >= 1")
        if retry_after_s is not None and retry_after_s < 0:
            raise ValueError("retry_after_s must be >= 0 (or None)")
        self.table = table
        self.max_body_bytes = max_body_bytes
        self.retry_after_s = retry_after_s
        self.log = log
        self._draining = False
        self._shut_down = False
        self._thread = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def draining(self) -> bool:
        return self._draining

    def __enter__(self):
        if self._thread is None:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
