"""Every documented error path of the wire protocol, end to end.

Each malformed/hostile request must come back as the documented status +
structured code (``docs/serving.md``) — and must never wedge the server:
after every error case a well-formed request still succeeds.  The whole
contract runs on both shells: every test class here is the threaded
case, and its ``...Asyncio`` twin at the bottom of the file re-runs the
same methods against :class:`AsyncFrontend`.  Fast fake networks keep
these deterministic; the real-engine numerics live in ``test_http.py``.
"""

import http.client
import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.nn.tensor import Tensor
from repro.serving import (ERROR_CODES, AdmissionController, AsyncFrontend,
                           HttpClient, HttpError, HttpFrontend,
                           InferenceServer, ModelRegistry)
from repro.serving.wire import decode_array_b64, encode_array

IMAGE = np.arange(4.0)


def toy_network(tensor):
    return Tensor(tensor.data.reshape(tensor.data.shape[0], -1) * 2.0)


class OnThreaded:
    """The shell a test class runs on (the twins override it)."""
    FRONTEND = HttpFrontend


@pytest.fixture()
def frontend(request):
    registry = ModelRegistry(workers=1)
    registry.register_network("toy", toy_network, image_shape=(4,))
    server = InferenceServer(registry=registry)
    fe = request.cls.FRONTEND(server, max_body_bytes=64 * 1024).start()
    try:
        yield fe
    finally:
        fe.shutdown()
        server.shutdown()
        registry.close()


@pytest.fixture()
def client(frontend):
    return HttpClient.for_frontend(frontend)


def read_all(raw: socket.socket) -> str:
    chunks = []
    while True:
        chunk = raw.recv(65536)
        if not chunk:
            break
        chunks.append(chunk)
    return b"".join(chunks).decode("utf-8", "replace")


def raw_post(frontend, path, body: bytes, headers=None):
    """A POST bypassing the client's JSON plumbing (for broken bodies)."""
    connection = http.client.HTTPConnection(frontend.host, frontend.port,
                                            timeout=10.0)
    try:
        default = {"Content-Type": "application/json",
                   "Content-Length": str(len(body)), "Connection": "close"}
        default.update(headers or {})
        connection.putrequest("POST", path)
        for name, value in default.items():
            connection.putheader(name, value)
        connection.endheaders()
        if body:
            connection.send(body)
        response = connection.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        connection.close()


def assert_error(status, payload, want_status, want_code):
    assert status == want_status
    assert payload["error"]["code"] == want_code
    assert want_code in ERROR_CODES
    assert payload["error"]["message"]


def assert_still_serving(client):
    """The non-wedging clause: a good request after every bad one."""
    result = client.infer(IMAGE)
    np.testing.assert_array_equal(result.output, IMAGE * 2.0)


class TestMalformedRequests(OnThreaded):
    def test_malformed_json(self, frontend, client):
        status, payload = raw_post(frontend, "/v1/infer", b"{not json!")
        assert_error(status, payload, 400, "malformed_json")
        assert_still_serving(client)

    def test_non_object_body(self, frontend, client):
        status, payload = raw_post(frontend, "/v1/infer", b"[1, 2, 3]")
        assert_error(status, payload, 400, "malformed_json")
        assert_still_serving(client)

    def test_missing_input(self, client):
        status, payload = client.request("POST", "/v1/infer", {"model": "toy"})
        assert_error(status, payload, 400, "invalid_request")
        assert_still_serving(client)

    def test_both_encodings_at_once(self, client):
        status, payload = client.request(
            "POST", "/v1/infer",
            {"input": [1.0], "input_b64": encode_array(IMAGE)})
        assert_error(status, payload, 400, "invalid_request")

    def test_undecodable_b64(self, client):
        status, payload = client.request("POST", "/v1/infer",
                                         {"input_b64": "@@not-base64@@"})
        assert_error(status, payload, 400, "invalid_input")
        assert_still_serving(client)

    def test_non_numeric_input(self, client):
        status, payload = client.request("POST", "/v1/infer",
                                         {"input": ["a", "b"]})
        assert_error(status, payload, 400, "invalid_input")
        assert_still_serving(client)

    def test_bad_deadline(self, client):
        for deadline in (-1.0, 0, "soon", True):
            status, payload = client.request(
                "POST", "/v1/infer", {"input": IMAGE.tolist(),
                                      "deadline_ms": deadline})
            assert_error(status, payload, 400, "invalid_request")
        assert_still_serving(client)


class TestRoutingErrors(OnThreaded):
    def test_wrong_shape(self, client):
        status, payload = client.request(
            "POST", "/v1/infer", {"input": np.zeros((3, 3)).tolist()})
        assert_error(status, payload, 400, "invalid_input")
        assert "shape" in payload["error"]["message"]
        assert_still_serving(client)

    def test_unknown_model(self, client):
        with pytest.raises(HttpError) as caught:
            client.infer(IMAGE, model="ghost")
        assert caught.value.status == 404
        assert caught.value.code == "unknown_model"
        assert_still_serving(client)

    def test_unknown_priority(self, client):
        with pytest.raises(HttpError) as caught:
            client.infer(IMAGE, priority="platinum")
        assert caught.value.status == 400
        assert caught.value.code == "unknown_priority"
        assert_still_serving(client)

    def test_unknown_path_and_method(self, client):
        status, payload = client.request("GET", "/v2/infer")
        assert_error(status, payload, 404, "not_found")
        status, payload = client.request("GET", "/v1/infer")
        assert_error(status, payload, 405, "method_not_allowed")
        status, payload = client.request("POST", "/v1/stats",
                                         {"input": IMAGE.tolist()})
        assert_error(status, payload, 405, "method_not_allowed")
        assert_still_serving(client)


class TestBodyBounds(OnThreaded):
    def test_oversized_body_refused_unread(self, frontend, client):
        huge = {"input": np.zeros(130 * 1024).tolist()}   # ~> 64 KiB bound
        status, payload = client.request("POST", "/v1/infer", huge)
        assert_error(status, payload, 413, "body_too_large")
        assert payload["error"]["max_body_bytes"] == frontend.max_body_bytes
        assert_still_serving(client)

    def test_missing_content_length(self, frontend, client):
        with socket.create_connection((frontend.host, frontend.port),
                                      timeout=10.0) as raw:
            raw.sendall(b"POST /v1/infer HTTP/1.1\r\n"
                        b"Host: x\r\nConnection: close\r\n\r\n")
            response = read_all(raw)
        assert " 411 " in response.splitlines()[0]
        assert "length_required" in response
        assert_still_serving(client)

    def test_truncated_body(self, frontend, client):
        body = json.dumps({"input": IMAGE.tolist()}).encode()
        with socket.create_connection((frontend.host, frontend.port),
                                      timeout=10.0) as raw:
            raw.sendall(b"POST /v1/infer HTTP/1.1\r\nHost: x\r\n"
                        b"Content-Type: application/json\r\n"
                        + f"Content-Length: {len(body) + 64}\r\n".encode()
                        + b"Connection: close\r\n\r\n" + body)
            raw.shutdown(socket.SHUT_WR)
            response = read_all(raw)
        assert " 400 " in response.splitlines()[0]
        assert "invalid_request" in response
        assert_still_serving(client)


class TestBatchEndpointErrors(OnThreaded):
    def test_empty_inputs(self, client):
        status, payload = client.request("POST", "/v1/infer_batch",
                                         {"inputs": []})
        assert_error(status, payload, 400, "invalid_request")

    def test_both_encodings_at_once(self, client):
        status, payload = client.request(
            "POST", "/v1/infer_batch",
            {"inputs": [IMAGE.tolist()],
             "inputs_b64": [encode_array(IMAGE)]})
        assert_error(status, payload, 400, "invalid_request")
        assert_still_serving(client)

    def test_bad_item_mid_batch_drains_earlier_items(self, client):
        """inputs[1] has the wrong shape: the envelope fails with the
        item's index, the already-enqueued inputs[0] is drained (not
        stranded), and the server keeps serving."""
        status, payload = client.request(
            "POST", "/v1/infer_batch",
            {"inputs": [IMAGE.tolist(), np.zeros((2, 2)).tolist()]})
        assert_error(status, payload, 400, "invalid_input")
        assert payload["error"]["index"] == 1
        assert_still_serving(client)

    def test_batch_with_unknown_model(self, client):
        status, payload = client.request(
            "POST", "/v1/infer_batch",
            {"inputs": [IMAGE.tolist()], "model": "ghost"})
        assert_error(status, payload, 404, "unknown_model")
        assert_still_serving(client)


class TestShedOverTheWire(OnThreaded):
    def make_slow_frontend(self, *, admission=None, delay=0.35):
        registry = ModelRegistry(workers=1)

        def slow(tensor):
            time.sleep(delay)
            return toy_network(tensor)

        registry.register_network("slow", slow, image_shape=(4,))
        server = InferenceServer(registry=registry, max_batch=1,
                                 max_wait_s=0.0, admission=admission)
        return self.FRONTEND(server, owns_server=True).start()

    def test_deadline_shed_carries_receipt(self):
        frontend = self.make_slow_frontend()
        client = HttpClient.for_frontend(frontend)
        try:
            blocker = threading.Thread(target=lambda: client.infer(IMAGE))
            blocker.start()
            time.sleep(0.1)        # the slow batch holds the dispatch loop
            with pytest.raises(HttpError) as caught:
                client.infer(IMAGE, deadline_ms=30.0)
            blocker.join(timeout=5.0)
        finally:
            frontend.shutdown()
        assert caught.value.status == 503
        assert caught.value.code == "shed"
        receipt = caught.value.receipt
        assert receipt["reason"] == "deadline"
        assert receipt["deadline_s"] == pytest.approx(0.03)
        assert receipt["queue_wait_s"] >= 0.0

    def test_admission_refusal_is_immediate(self):
        frontend = self.make_slow_frontend(
            admission=AdmissionController(max_queue_depth=1))
        client = HttpClient.for_frontend(frontend)
        try:
            threads = [threading.Thread(
                target=lambda: client.request(
                    "POST", "/v1/infer", {"input": IMAGE.tolist()}))
                for _ in range(3)]
            for thread in threads:
                thread.start()
            # dispatch busy + one queued => depth >= 1
            waited = time.monotonic() + 5.0
            while (frontend.server.queue.depth < 1
                   and time.monotonic() < waited):
                time.sleep(0.005)
            started = time.monotonic()
            with pytest.raises(HttpError) as caught:
                client.infer(IMAGE)
            refusal_s = time.monotonic() - started
            for thread in threads:
                thread.join(timeout=10.0)
        finally:
            frontend.shutdown()
        assert caught.value.code == "shed"
        assert caught.value.receipt["reason"] == "admission"
        assert refusal_s < 0.2     # refused at intake, not after queueing


class TestMidShutdown(OnThreaded):
    def test_request_arriving_mid_drain(self):
        registry = ModelRegistry(workers=1)

        def slow(tensor):
            time.sleep(0.4)
            return toy_network(tensor)

        registry.register_network("slow", slow, image_shape=(4,))
        server = InferenceServer(registry=registry, max_batch=1,
                                 max_wait_s=0.0)
        frontend = self.FRONTEND(server, owns_server=True).start()
        client = HttpClient.for_frontend(frontend)
        inflight = {}

        def first():
            inflight["result"] = client.infer(IMAGE)

        worker = threading.Thread(target=first)
        worker.start()
        time.sleep(0.1)
        closer = threading.Thread(target=frontend.shutdown)
        closer.start()
        time.sleep(0.1)
        with pytest.raises(HttpError) as caught:
            client.infer(IMAGE)
        assert caught.value.status == 503
        assert caught.value.code == "shutting_down"
        worker.join(timeout=5.0)
        closer.join(timeout=5.0)
        # the in-flight request drained to a real, exact response
        np.testing.assert_array_equal(inflight["result"].output, IMAGE * 2.0)


# the same contract on the asyncio shell
for _cls in (TestMalformedRequests, TestRoutingErrors, TestBodyBounds,
             TestBatchEndpointErrors, TestShedOverTheWire, TestMidShutdown):
    globals()[f"{_cls.__name__}Asyncio"] = type(
        f"{_cls.__name__}Asyncio", (_cls,), {"FRONTEND": AsyncFrontend})


def test_docs_cover_every_endpoint_and_error_code():
    """docs/serving.md is the wire-protocol reference: every shipped
    endpoint and every structured error code must appear in it."""
    import pathlib
    guide = (pathlib.Path(__file__).resolve().parents[2]
             / "docs" / "serving.md").read_text(encoding="utf-8")
    for endpoint in ("GET /healthz", "GET /v1/models", "GET /v1/stats",
                     "POST /v1/infer", "POST /v1/infer_batch"):
        assert endpoint in guide, f"docs/serving.md misses {endpoint}"
    for code in ERROR_CODES:
        assert f"`{code}`" in guide, f"docs/serving.md misses code {code}"


def test_npy_roundtrip_is_byte_exact():
    for array in (np.random.default_rng(0).normal(size=(3, 5)),
                  np.arange(6, dtype=np.int32).reshape(2, 3)):
        again = decode_array_b64(encode_array(array))
        assert again.dtype == array.dtype
        np.testing.assert_array_equal(again, array)
