"""The wire protocol's data layer: codecs, envelopes, the error contract.

Everything here is a pure function of bytes and dicts — no socket, no
server.  :mod:`repro.serving.routes` decides what a request *means* with
these pieces, the two shells (:mod:`~repro.serving.http`,
:mod:`~repro.serving.aio`) move the bytes, and
:mod:`~repro.serving.client` is the other end of the same codecs, so
the two ends of the wire cannot drift apart.  Protocol reference:
``docs/serving.md``.

Payload encodings
-----------------
Images travel either as nested JSON arrays (``"input"`` — decoded as
float64; Python's ``repr``-based JSON float serialization round-trips
every finite float64 exactly, so JSON is *not* a lossy channel here) or
as base64 of ``.npy`` bytes (``"input_b64"`` — any dtype, byte-exact).
The response mirrors the request's encoding (``"output"`` vs
``"output_b64"``).

Error contract
--------------
Every failure is a structured JSON body ``{"error": {"code": ...,
"message": ...}}`` with a stable machine-readable ``code``
(:data:`ERROR_CODES`; the full table lives in ``docs/serving.md``).
:func:`error_reply` is the one map from an exception onto that shape.  A
shed or admission-refused request returns 503 with ``code "shed"`` and
the full :class:`~repro.serving.scheduler.ShedReceipt`; a request
arriving while a front end drains returns 503 ``"shutting_down"``.
Request bodies are bounded (``max_body_bytes``, 413 past it, read no
further).

Every 503 carries a ``Retry-After`` header (fractional seconds) plus a
``"retry_after_s"`` mirror inside the error object, which the client's
retry loop honors over its computed backoff.  Every request adopts (or
mints) an ``X-Request-Id``: echoed as a response header, injected into
error bodies as ``"trace_id"`` (:func:`render` does both) and threaded
through the scheduler into served/shed receipts — one id traces a
request across the router, the replica and the receipt.
"""

from __future__ import annotations

import base64
import io
import json
import re
import sys
import threading
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..obs import PROMETHEUS_CONTENT_TYPE
from ..obs.trace import new_trace_id
from ..reram.faults import DieFaultDetected
from .queue import QueueClosed
from .scheduler import RequestShed

#: default request-body bound (bytes) — far above any demo image, far
#: below anything that could exhaust the container
DEFAULT_MAX_BODY_BYTES = 8 << 20

#: default ``Retry-After`` hint (seconds) attached to 503 responses —
#: small, because a shed or a drain is a *moment*, not an outage; the
#: header carries fractional decimal seconds (a documented deviation
#: from RFC 9110's integer seconds: every consumer here is our own
#: client or the router, and sub-second backoff is the useful range)
DEFAULT_RETRY_AFTER_S = 0.25

#: accepted shape of a client-supplied ``X-Request-Id``: printable
#: ASCII, bounded — anything else is replaced by a generated id rather
#: than rejected (tracing must never fail a request)
TRACE_ID_RE = re.compile(r"^[\x21-\x7e]{1,128}$")

#: structured error codes of the wire protocol (documented in
#: docs/serving.md — keep the two in lockstep; tests assert membership)
ERROR_CODES = (
    "malformed_json",     # 400: body is not valid UTF-8 JSON / not an object
    "invalid_request",    # 400: JSON is fine but the envelope is not
    "invalid_input",      # 400: image undecodable or wrong shape
    "unknown_model",      # 404: "model" names no registered tenant
    "unknown_priority",   # 400: "priority" names no class of the policy
    "length_required",    # 411: POST without Content-Length
    "body_too_large",     # 413: Content-Length past max_body_bytes
    "not_found",          # 404: unknown path
    "method_not_allowed",  # 405: wrong verb for a known path
    "shed",               # 503: shed/admission-refused (carries a receipt)
    "shutting_down",      # 503: the front end is draining
    "die_fault",          # 503: a die fault escaped the recovery path
    #                       (checksum tripped and no healthy reference was
    #                       available to restore from — the request failed
    #                       loudly instead of being answered wrong)
    "cluster_unavailable",  # 503: every replica that could serve the model
    #                       is down (emitted by the ClusterRouter, never by
    #                       a single front end — an explicit receipt, not a
    #                       hang or a silent 500)
    "internal",           # 500: dispatch failure (batcher error)
)

#: the server-sent event types of the streaming path, in emission order
#: (``result`` / ``shed`` interleave in resolution order; exactly one
#: terminal ``done``).  check_docs.py fails the check set if any of
#: these is missing from docs/serving.md.
STREAM_EVENTS = ("result", "shed", "done")

#: what a route hands back for the wire: ``(status, body)`` — a dict is
#: sent as JSON, a str as the Prometheus text exposition
Reply = Tuple[int, Union[Dict, str]]


class WireFormatError(ValueError):
    """A request that cannot be mapped onto a submission.

    Carries the HTTP ``status``, the structured error ``code`` and any
    ``extra`` fields of the error object the front end should answer
    with.
    """

    def __init__(self, status: int, code: str, message: str, **extra):
        super().__init__(message)
        self.status = status
        self.code = code
        self.extra = extra


# ---------------------------------------------------------------------------
# payload codecs — shared by the routes and HttpClient
def encode_array(array: np.ndarray) -> str:
    """Base64 of the array's ``.npy`` serialization (byte-exact)."""
    buffer = io.BytesIO()
    np.save(buffer, np.ascontiguousarray(array), allow_pickle=False)
    return base64.b64encode(buffer.getvalue()).decode("ascii")


#: ``np.load`` parses the ``.npy`` header with ``ast.literal_eval``, which
#: is not thread-safe on CPython 3.11: concurrent decodes on the front
#: ends' worker threads can fail with "AST constructor recursion depth
#: mismatch".  One lock serialises the load; the base64 decode stays
#: concurrent.
_NPY_LOAD_LOCK = threading.Lock()


def decode_array_b64(data: str) -> np.ndarray:
    try:
        raw = base64.b64decode(data, validate=True)
        with _NPY_LOAD_LOCK:
            return np.load(io.BytesIO(raw), allow_pickle=False)
    except Exception as exc:
        raise WireFormatError(400, "invalid_input",
                              f"undecodable base64 .npy payload: {exc}")


def decode_array_json(obj) -> np.ndarray:
    """Nested JSON lists -> float64 (the wire's canonical numeric dtype)."""
    try:
        array = np.asarray(obj, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise WireFormatError(400, "invalid_input",
                              f"input is not a numeric array: {exc}")
    if array.dtype != np.float64:   # pragma: no cover — asarray guarantees
        raise WireFormatError(400, "invalid_input", "input must be numeric")
    return array


def decode_input(payload: Dict, *, key: str = "input") -> Tuple[np.ndarray, bool]:
    """Extract one image from a request envelope.

    Returns ``(array, binary)`` where ``binary`` records which encoding
    the caller used (the response mirrors it).
    """
    key_b64 = f"{key}_b64"
    has_json, has_b64 = key in payload, key_b64 in payload
    if has_json == has_b64:
        raise WireFormatError(
            400, "invalid_request",
            f"pass exactly one of {key!r} (nested JSON array) or "
            f"{key_b64!r} (base64 .npy)")
    if has_b64:
        if not isinstance(payload[key_b64], str):
            raise WireFormatError(400, "invalid_request",
                                  f"{key_b64!r} must be a base64 string")
        return decode_array_b64(payload[key_b64]), True
    return decode_array_json(payload[key]), False


def result_body(result, binary: bool) -> Dict:
    """A :class:`~repro.serving.stats.ServedResult` as a response dict."""
    body: Dict = {"stats": result.stats.as_dict()}
    if binary:
        body["output_b64"] = encode_array(result.output)
    else:
        body["output"] = result.output.tolist()
    return body


def interned_keys(pairs: List[Tuple[str, object]]) -> Dict:
    """``json`` ``object_pairs_hook`` that interns every key.

    A client holding many decoded receipts then shares one copy of each
    ``stats`` key string across all of them instead of one per receipt;
    decoded values are unchanged.
    """
    return {sys.intern(key): value for key, value in pairs}


def iter_sse_events(fp):
    """Parse server-sent events off a file-like of bytes lines.

    Yields ``(event, data)`` with ``data`` JSON-decoded — the async
    front end's streaming path emits exactly one JSON object per event
    (types in :data:`STREAM_EVENTS`).  Shared by
    :meth:`HttpClient.infer_batch_stream` and the async load generator
    so every consumer reads the frames one way.
    """
    event, data_lines = None, []
    for raw in fp:
        line = raw.decode("utf-8").rstrip("\n").rstrip("\r")
        if not line:
            if event is not None:
                yield event, json.loads("\n".join(data_lines),
                                        object_pairs_hook=interned_keys)
            event, data_lines = None, []
            continue
        field, _, value = line.partition(":")
        if value.startswith(" "):
            value = value[1:]
        if field == "event":
            event = value
        elif field == "data":
            data_lines.append(value)


# ---------------------------------------------------------------------------
# request envelope
def adopt_trace_id(supplied: Optional[str]) -> str:
    """The caller's ``X-Request-Id``, or a minted one.

    An unusable supplied id (non-printable, overlong) is replaced,
    never refused: tracing is diagnostics, not validation.
    """
    if supplied is not None and TRACE_ID_RE.match(supplied):
        return supplied
    return new_trace_id()


def body_length(header: Optional[str], max_body_bytes: int) -> int:
    """Validate a POST's ``Content-Length`` against the body bound.

    Runs before a body byte is read: past the bound the request is
    refused unread (the connection cannot be reused afterwards).
    """
    if header is None:
        raise WireFormatError(411, "length_required",
                              "POST requires a Content-Length header")
    try:
        length = int(header)
        if length < 0:
            raise ValueError
    except ValueError:
        raise WireFormatError(400, "invalid_request",
                              "Content-Length is not a non-negative integer")
    if length > max_body_bytes:
        raise WireFormatError(
            413, "body_too_large",
            f"request body of {length} bytes exceeds the "
            f"{max_body_bytes}-byte bound", max_body_bytes=max_body_bytes)
    return length


def whole_body(body: bytes, length: int) -> bytes:
    """``body`` if the peer sent all ``length`` declared bytes."""
    if len(body) != length:
        raise WireFormatError(400, "invalid_request", "truncated request body")
    return body


def parse_object(body: bytes) -> Dict:
    """A request body as the JSON object every POST envelope is."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireFormatError(400, "malformed_json",
                              f"request body is not valid JSON: {exc}")
    if not isinstance(payload, dict):
        raise WireFormatError(400, "malformed_json",
                              "request body must be a JSON object")
    return payload


# ---------------------------------------------------------------------------
# response envelope
def error_body(code: str, message: str, **extra) -> Dict:
    assert code in ERROR_CODES, f"undocumented error code {code!r}"
    error = {"code": code, "message": message}
    error.update(extra)
    return {"error": error}


def shed_body(exc: RequestShed) -> Dict:
    return error_body("shed", str(exc), reason=exc.receipt.reason,
                      receipt=exc.receipt.as_dict())


def error_reply(exc: BaseException) -> Reply:
    """The one map from a failure onto ``(status, error body)``."""
    if isinstance(exc, WireFormatError):
        return exc.status, error_body(exc.code, str(exc), **exc.extra)
    if isinstance(exc, RequestShed):
        return 503, shed_body(exc)
    if isinstance(exc, QueueClosed):
        return 503, error_body("shutting_down", str(exc))
    if isinstance(exc, DieFaultDetected):
        # before the RuntimeError arm: DieFaultDetected IS a RuntimeError,
        # and this one deserves its own code — detection fired but the
        # recovery path could not serve the request (e.g. an unguarded
        # engine tripped)
        return 503, error_body("die_fault", str(exc))
    if isinstance(exc, RuntimeError):
        if "shut down" in str(exc):
            return 503, error_body("shutting_down", str(exc))
        return 500, error_body("internal", str(exc))
    return 500, error_body("internal", f"{type(exc).__name__}: {exc}")


def batch_reply(items: List[Dict]) -> Reply:
    """Per-item bodies in request order -> the 200/207/503 envelope
    (all served / mixed / every item an error receipt)."""
    shed = sum("error" in item for item in items)
    completed = len(items) - shed
    status = 200 if shed == 0 else (503 if completed == 0 else 207)
    return status, {"results": items, "completed": completed, "shed": shed}


def mark_error(body: Dict, trace_id: str,
               retry_after_s: Optional[float]) -> None:
    """Inject ``trace_id`` and the ``retry_after_s`` mirror of the
    ``Retry-After`` header into an error object, so std-lib clients
    (which decode bodies, not headers) can honor the hint."""
    error = body.get("error")
    if isinstance(error, dict):
        if retry_after_s is not None:
            error.setdefault("retry_after_s", retry_after_s)
        error.setdefault("trace_id", trace_id)


def render(status: int, body: Union[Dict, str], trace_id: str,
           retry_after_s: Optional[float]
           ) -> Tuple[bytes, List[Tuple[str, str]]]:
    """A reply as ``(payload bytes, headers)``, ready for either shell."""
    retry_after = retry_after_s if status == 503 else None
    if isinstance(body, str):
        data, content_type = body.encode("utf-8"), PROMETHEUS_CONTENT_TYPE
    else:
        mark_error(body, trace_id, retry_after)
        data, content_type = json.dumps(body).encode("utf-8"), \
            "application/json"
    headers = [("Content-Type", content_type),
               ("Content-Length", str(len(data))),
               ("X-Request-Id", trace_id)]
    if retry_after is not None:
        headers.append(("Retry-After", f"{retry_after:g}"))
    return data, headers
