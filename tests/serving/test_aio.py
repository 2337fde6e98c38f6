"""The asyncio front end's core contract: same wire, same bits, plus SSE.

The :class:`~repro.serving.aio.AsyncFrontend` speaks the exact protocol
of the threaded front end (both shells ask the same route table what a
request means), so the acceptance matrix is the same: a decoded ``POST /v1/infer``
response must be **bit-identical** to the in-process
``InferenceServer.submit`` result and to the serial single-image
forward — at any worker count, read noise on and off, JSON or base64
payloads.  On top of that, the async-only surfaces: SSE streaming
(``POST /v1/infer_batch?stream=1``), connection-count and
inflight-byte transport backpressure (explicit ``transport``-scoped
shed receipts), and the multiplexed keep-alive connection handling.
"""

import socket
import threading

import numpy as np
import pytest

from repro.nn.tensor import Tensor
from repro.serving.demo import post_relu_network as _post_relu_network
from repro.reram import ADCSpec, DeviceSpec, ReRAMDevice, paper_adc_bits
from repro.reram.nonideal import ReadNoise
from repro.reram import NonidealEngine
from repro.runtime import run_network_serial
from repro.serving import (STREAM_EVENTS, TRANSPORT_SCOPE, AsyncFrontend,
                           HttpClient, HttpError, InferenceServer,
                           ModelRegistry, PriorityClass, SlaPolicy,
                           WireResult)

WORKER_COUNTS = (1, 3)


@pytest.fixture(scope="module")
def network_case():
    model, config, images = _post_relu_network()
    device = ReRAMDevice(DeviceSpec(), 0.0)
    adc = ADCSpec(bits=paper_adc_bits(config.fragment_size))
    return model, config, images, device, adc


def make_server(network_case, *, noise=False, **kwargs):
    model, config, images, device, adc = network_case
    build = dict(adc=adc, activation_bits=12)
    if noise:
        spec = DeviceSpec()
        build["engine_cls"] = NonidealEngine
        build["read_noise"] = ReadNoise.for_fragment(
            config.fragment_size, spec.g_max, spec.read_voltage,
            relative_sigma=0.05, seed=3)
    return InferenceServer.from_model(model, config, device,
                                      **build, **kwargs)


class TestAsyncWireBitIdentity:
    """The acceptance matrix, through the event loop: workers x
    {ideal, read noise} x {json, b64}, decoded async-wire output ==
    in-process submit == serial single-image forward."""

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("noise", [False, True],
                             ids=["ideal", "read_noise"])
    @pytest.mark.parametrize("binary", [False, True], ids=["json", "b64"])
    def test_infer_matrix(self, network_case, workers, noise, binary):
        images = network_case[2][:3]
        decoded = []
        with make_server(network_case, noise=noise, workers=workers,
                         max_batch=4, max_wait_s=0.02) as server:
            with AsyncFrontend(server) as frontend:
                client = HttpClient.for_frontend(frontend)
                for image in images:
                    wire = client.infer(image, binary=binary)
                    inproc = server.submit(image)
                    np.testing.assert_array_equal(wire.output, inproc.output)
                    decoded.append(wire.output)
            serial = run_network_serial(server.model, images, tile_size=1)
        for output, reference in zip(decoded, serial):
            np.testing.assert_array_equal(output, reference)

    def test_infer_batch_equals_submit_many(self, network_case):
        images = network_case[2]
        with make_server(network_case, workers=2, max_batch=4,
                         max_wait_s=0.05) as server:
            with AsyncFrontend(server) as frontend:
                client = HttpClient.for_frontend(frontend)
                wire = client.infer_batch(images)
                inproc = server.submit_many(images)
        assert len(wire) == len(inproc)
        for wired, direct in zip(wire, inproc):
            np.testing.assert_array_equal(wired.output, direct.output)

    def test_keep_alive_reuses_one_connection(self, network_case):
        """Several requests down one raw socket — the multiplexing the
        front end exists for — all bit-exact."""
        images = network_case[2][:3]
        with make_server(network_case, workers=1, max_batch=4,
                         max_wait_s=0.01) as server:
            with AsyncFrontend(server) as frontend:
                import json as jsonlib
                sock = socket.create_connection((frontend.host,
                                                 frontend.port), timeout=10)
                try:
                    fp = sock.makefile("rb")
                    outputs = []
                    for image in images:
                        body = jsonlib.dumps(
                            {"input": image.tolist()}).encode()
                        sock.sendall(
                            b"POST /v1/infer HTTP/1.1\r\nHost: t\r\n"
                            b"Content-Type: application/json\r\n"
                            b"Content-Length: %d\r\n\r\n" % len(body) + body)
                        status = fp.readline().split()[1]
                        assert status == b"200"
                        length = None
                        while True:
                            line = fp.readline()
                            if line in (b"\r\n", b""):
                                break
                            if line.lower().startswith(b"content-length:"):
                                length = int(line.split(b":")[1])
                        payload = jsonlib.loads(fp.read(length))
                        outputs.append(WireResult.from_body(payload).output)
                finally:
                    sock.close()
            serial = run_network_serial(server.model, images, tile_size=1)
        for output, reference in zip(outputs, serial):
            np.testing.assert_array_equal(output, reference)


class TestSseStreaming:
    @pytest.mark.parametrize("binary", [False, True], ids=["json", "b64"])
    def test_stream_bit_identical_and_complete(self, network_case, binary):
        images = network_case[2][:4]
        with make_server(network_case, workers=2, max_batch=4,
                         max_wait_s=0.02) as server:
            with AsyncFrontend(server) as frontend:
                client = HttpClient.for_frontend(frontend)
                events = list(client.infer_batch_stream(images,
                                                        binary=binary))
            serial = run_network_serial(server.model, images, tile_size=1)
        assert events[-1][0] == "done"
        assert events[-1][1] == {"completed": len(images), "shed": 0}
        results = [event for event in events[:-1]]
        assert all(event == "result" for event, _ in results)
        # every index exactly once, each item bit-exact vs serial
        indices = sorted(data["index"] for _, data in results)
        assert indices == list(range(len(images)))
        for _, data in results:
            decoded = WireResult.from_body(data)
            np.testing.assert_array_equal(decoded.output,
                                          serial[data["index"]])

    def test_stream_event_types_are_documented(self, network_case):
        """Every event type the stream can emit is in STREAM_EVENTS —
        the catalog check_docs pins to docs/serving.md."""
        images = network_case[2][:2]
        with make_server(network_case, workers=1) as server:
            with AsyncFrontend(server) as frontend:
                client = HttpClient.for_frontend(frontend)
                events = list(client.infer_batch_stream(images))
        assert {event for event, _ in events} <= set(STREAM_EVENTS)

    def test_stream_shed_items_are_events_not_errors(self):
        """A shed inside a stream is a ``shed`` event with a receipt;
        the stream still terminates with a consistent ``done``."""
        registry = ModelRegistry(workers=1)
        registry.register_network(
            "toy", lambda t: Tensor(t.data.reshape(t.data.shape[0], -1)))
        policy = SlaPolicy((PriorityClass("only", max_batch=2,
                                          max_wait_s=0.001),))
        with registry, InferenceServer(registry=registry,
                                       policy=policy) as server:
            with AsyncFrontend(server) as frontend:
                client = HttpClient.for_frontend(frontend)
                events = list(client.infer_batch_stream(
                    np.ones((3, 4)), model="toy", priority="only",
                    deadline_ms=1e-6))   # already overdue: all shed
        kinds = [event for event, _ in events]
        assert kinds[-1] == "done"
        sheds = [data for event, data in events if event == "shed"]
        assert sheds, "an overdue deadline must shed"
        for data in sheds:
            assert data["error"]["code"] == "shed"
            assert "receipt" in data["error"]
            assert "index" in data
        done = events[-1][1]
        assert done["shed"] == len(sheds)
        assert done["completed"] == len(events) - 1 - len(sheds)

    def test_stream_on_threaded_frontend_is_invalid_request(self,
                                                            network_case):
        """The threaded shell cannot stream: ``?stream=1`` is refused
        as 400 ``invalid_request`` (docs/serving.md §10), not served as
        a plain batch and not a 404."""
        from repro.serving import HttpFrontend
        images = network_case[2][:2]
        with make_server(network_case, workers=1) as server:
            with HttpFrontend(server) as frontend:
                client = HttpClient.for_frontend(frontend)
                with pytest.raises(HttpError) as err:
                    list(client.infer_batch_stream(images))
        assert err.value.status == 400
        assert err.value.code == "invalid_request"


class TestTransportBackpressure:
    def _toy_frontend(self, **caps):
        registry = ModelRegistry(workers=1)
        registry.register_network(
            "toy", lambda t: Tensor(t.data.reshape(t.data.shape[0], -1)))
        server = InferenceServer(registry=registry)
        frontend = AsyncFrontend(server, owns_server=True, **caps).start()
        return frontend, server

    def test_connection_cap_sheds_with_receipt(self):
        frontend, server = self._toy_frontend(max_connections=2)
        holders = [socket.create_connection((frontend.host, frontend.port),
                                            timeout=5) for _ in range(2)]
        try:
            client = HttpClient.for_frontend(frontend)
            client.retries = 0
            with pytest.raises(HttpError) as err:
                client.stats()
            assert err.value.status == 503
            assert err.value.code == "shed"
            receipt = err.value.receipt
            assert receipt["reason"] == "admission"
            assert receipt["model"] == TRANSPORT_SCOPE
            assert receipt["priority_class"] == TRANSPORT_SCOPE
            # the refusal is billed like any shed
            assert server.stats.snapshot()["requests_shed"] >= 1
        finally:
            for sock in holders:
                sock.close()
            frontend.shutdown()

    def test_connection_cap_recovers_after_release(self):
        frontend, server = self._toy_frontend(max_connections=2)
        try:
            holder = socket.create_connection(
                (frontend.host, frontend.port), timeout=5)
            holder.close()
            client = HttpClient.for_frontend(frontend)
            result = client.infer(np.ones(4), model="toy")
            np.testing.assert_array_equal(result.output, np.ones(4))
        finally:
            frontend.shutdown()

    def test_inflight_bytes_cap_sheds_posts(self):
        frontend, server = self._toy_frontend(max_inflight_bytes=1)
        try:
            client = HttpClient.for_frontend(frontend)
            client.retries = 0
            # GETs carry no body: they pass the byte cap
            assert client.healthz()["status"] == "ok"
            with pytest.raises(HttpError) as err:
                client.infer(np.ones((64, 64)), model="toy")
            assert err.value.status == 503
            assert err.value.code == "shed"
            assert err.value.receipt["model"] == TRANSPORT_SCOPE
        finally:
            frontend.shutdown()

    def test_peak_connections_gauge(self):
        frontend, server = self._toy_frontend()
        try:
            socks = [socket.create_connection(
                (frontend.host, frontend.port), timeout=5)
                for _ in range(5)]
            # the accept loop races the asserts: wait until all are seen
            deadline = 50
            while frontend.peak_connections < 5 and deadline:
                threading.Event().wait(0.01)
                deadline -= 1
            assert frontend.peak_connections >= 5
            assert "forms_async_connections" in \
                HttpClient.for_frontend(frontend).metrics()
            for sock in socks:
                sock.close()
        finally:
            frontend.shutdown()


class TestAsyncOperationalEndpoints:
    def test_trace_roundtrip(self, network_case):
        with make_server(network_case, workers=1) as server:
            with AsyncFrontend(server) as frontend:
                client = HttpClient.for_frontend(frontend)
                result = client.infer(network_case[2][0],
                                      trace_id="req-aio-trace-1")
                assert result.stats["trace_id"] == "req-aio-trace-1"
                record = client.trace("req-aio-trace-1")
                assert record["spans"][0]["name"] == "request"

    def test_shutdown_is_idempotent_and_closes_port(self, network_case):
        with make_server(network_case, workers=1) as server:
            frontend = AsyncFrontend(server).start()
            client = HttpClient.for_frontend(frontend)
            assert client.healthz()["status"] == "ok"
            frontend.shutdown()
            frontend.shutdown()
            with pytest.raises(OSError):
                client.healthz()
            # borrowed server: still serving in-process
            result = server.submit(network_case[2][0])
            assert result.output is not None
