"""The HTTP front end's core contract: the transport is numerics-invisible.

A decoded ``POST /v1/infer`` response must be **bit-identical** to the
in-process ``InferenceServer.submit`` result for the same image — at any
worker count, read noise on and off, JSON or base64 payload encoding —
and to the direct serial single-image forward those are contracted to
equal.  Plus: batch coalescing over the wire, multi-tenant routing with
SLA classes, the operational endpoints, and the draining shutdown.
"""

import threading
import time

import numpy as np
import pytest

from repro.nn.tensor import Tensor
from repro.serving.demo import post_relu_network as _post_relu_network
from repro.reram import ADCSpec, DeviceSpec, ReRAMDevice, paper_adc_bits
from repro.reram.nonideal import ReadNoise
from repro.reram import NonidealEngine
from repro.runtime import run_network_serial
from repro.serving import (HttpClient, HttpError, HttpFrontend,
                           InferenceServer, ModelRegistry, PriorityClass,
                           SlaPolicy)

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


class TestWireBitIdentity:
    """The acceptance matrix: workers x {ideal, read noise}, both
    encodings, decoded wire output == in-process submit == serial."""

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("noise", [False, True],
                             ids=["ideal", "read_noise"])
    def test_infer_equals_inprocess_submit(self, network_case, workers,
                                           noise):
        images = network_case[2][:4]
        decoded = []
        with make_server(network_case, noise=noise, workers=workers,
                         max_batch=4, max_wait_s=0.02) as server:
            with HttpFrontend(server) as frontend:
                client = HttpClient.for_frontend(frontend)
                for i, image in enumerate(images):
                    binary = bool(i % 2)   # alternate json / base64 .npy
                    wire = client.infer(image, binary=binary)
                    inproc = server.submit(image)
                    np.testing.assert_array_equal(wire.output, inproc.output)
                    decoded.append(wire.output)
            serial = run_network_serial(server.model, images, tile_size=1)
        # and both equal the serial single-image contract reference
        for output, reference in zip(decoded, serial):
            np.testing.assert_array_equal(output, reference)

    @pytest.mark.parametrize("binary", [False, True], ids=["json", "b64"])
    def test_infer_equals_serial_both_encodings(self, network_case, binary):
        images = network_case[2][:3]
        with make_server(network_case, workers=2,
                         max_batch=4, max_wait_s=0.02) as server:
            with HttpFrontend(server) as frontend:
                client = HttpClient.for_frontend(frontend)
                outputs = [client.infer(image, binary=binary).output
                           for image in images]
            serial = run_network_serial(server.model, images, tile_size=1)
        for output, reference in zip(outputs, serial):
            np.testing.assert_array_equal(output, reference)

    def test_infer_batch_equals_submit_many(self, network_case):
        images = network_case[2]
        with make_server(network_case, workers=2, max_batch=4,
                         max_wait_s=0.05) as server:
            with HttpFrontend(server) as frontend:
                client = HttpClient.for_frontend(frontend)
                wire = client.infer_batch(images)
                inproc = server.submit_many(images)
        assert len(wire) == len(inproc)
        for wired, direct in zip(wire, inproc):
            np.testing.assert_array_equal(wired.output, direct.output)

    def test_infer_batch_coalesces(self, network_case):
        """Batch-endpoint requests are enqueued before any is waited on,
        so they may ride shared batches (receipts prove it)."""
        images = network_case[2]
        with make_server(network_case, workers=1, max_batch=8,
                         max_wait_s=0.1) as server:
            with HttpFrontend(server) as frontend:
                client = HttpClient.for_frontend(frontend)
                results = client.infer_batch(images)
        sizes = [result.stats["batch_size"] for result in results]
        assert max(sizes) > 1

    def test_receipt_travels_with_the_result(self, network_case):
        image = network_case[2][0]
        with make_server(network_case, workers=1) as server:
            with HttpFrontend(server) as frontend:
                wire = HttpClient.for_frontend(frontend).infer(image)
        stats = wire.stats
        assert stats["batch_size"] >= 1
        assert stats["latency_s"] >= stats["queue_wait_s"] >= 0.0
        assert stats["engine_stats"]["conversions"] > 0
        assert stats["model"] == "default"


# ---------------------------------------------------------------------------
# lightweight two-tenant fixture: deterministic fake networks make the
# routing/scheduling semantics fast to exercise (numerics are trivially
# exact; the heavy bit-identity matrix above covers the real engines)
def linear_network(scale, shift):
    def network(tensor):
        return Tensor(tensor.data.reshape(tensor.data.shape[0], -1)
                      * scale + shift)
    return network


@pytest.fixture()
def two_tenant_frontend():
    registry = ModelRegistry(workers=2)
    registry.register_network("fast", linear_network(2.0, 1.0))
    registry.register_network("batch", linear_network(-3.0, 0.5))
    policy = SlaPolicy((
        PriorityClass("interactive", max_batch=2, max_wait_s=0.001),
        PriorityClass("bulk", max_batch=8, max_wait_s=0.004),
    ))
    server = InferenceServer(registry=registry, policy=policy)
    frontend = HttpFrontend(server).start()
    try:
        yield frontend, server
    finally:
        frontend.shutdown()
        server.shutdown()
        registry.close()


class TestMultiTenantOverTheWire:
    def test_routing_and_classes(self, two_tenant_frontend):
        frontend, server = two_tenant_frontend
        client = HttpClient.for_frontend(frontend)
        image = np.arange(6.0)
        fast = client.infer(image, model="fast", priority="interactive",
                            deadline_ms=5000.0)
        bulk = client.infer(image, model="batch", priority="bulk")
        np.testing.assert_array_equal(fast.output, image * 2.0 + 1.0)
        np.testing.assert_array_equal(bulk.output, image * -3.0 + 0.5)
        assert fast.stats["priority_class"] == "interactive"
        assert fast.stats["deadline_s"] == pytest.approx(5.0)
        assert bulk.stats["model"] == "batch"

    def test_concurrent_mixed_class_clients(self, two_tenant_frontend):
        """Many client threads, both tenants and classes interleaved —
        every decoded output equals its tenant's in-process forward."""
        frontend, server = two_tenant_frontend
        client = HttpClient.for_frontend(frontend)
        rng = np.random.default_rng(11)
        images = rng.normal(size=(16, 6))
        cases = [("fast", "interactive", 2.0, 1.0),
                 ("batch", "bulk", -3.0, 0.5)]
        outcomes = [None] * len(images)

        def fire(i):
            model, priority, scale, shift = cases[i % 2]
            result = client.infer(images[i], model=model, priority=priority,
                                  binary=bool(i % 3 == 0))
            outcomes[i] = (result.output, images[i] * scale + shift,
                           result.stats["model"], model)

        threads = [threading.Thread(target=fire, args=(i,))
                   for i in range(len(images))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for output, expected, served_as, wanted in outcomes:
            np.testing.assert_array_equal(output, expected)
            assert served_as == wanted
        snapshot = client.stats()
        assert snapshot["requests_completed"] >= len(images)
        assert set(snapshot["per_class"]) == {"interactive", "bulk"}

    def test_models_endpoint(self, two_tenant_frontend):
        frontend, _ = two_tenant_frontend
        payload = HttpClient.for_frontend(frontend).models()
        assert sorted(payload["models"]) == ["batch", "fast"]
        assert "die_cache" in payload and "workers" in payload

    def test_stats_endpoint_shape(self, two_tenant_frontend):
        frontend, _ = two_tenant_frontend
        client = HttpClient.for_frontend(frontend)
        client.infer(np.ones(4), model="fast")
        snapshot = client.stats()
        for key in ("requests_completed", "requests_shed", "shed_by_reason",
                    "latency_p50_s", "latency_p95_s", "occupancy",
                    "queue_depth", "per_class", "per_model"):
            assert key in snapshot
        assert snapshot["requests_completed"] >= 1

    def test_healthz(self, two_tenant_frontend):
        frontend, _ = two_tenant_frontend
        payload = HttpClient.for_frontend(frontend).healthz()
        assert payload["status"] == "ok"
        assert payload["draining"] is False
        assert sorted(payload["models"]) == ["batch", "fast"]


# ---------------------------------------------------------------------------
class TestDrainingShutdown:
    def make_slow_frontend(self, delay=0.4):
        registry = ModelRegistry(workers=1)

        def slow(tensor):
            time.sleep(delay)
            return Tensor(tensor.data.reshape(tensor.data.shape[0], -1) * 2.0)

        registry.register_network("slow", slow)
        server = InferenceServer(registry=registry, max_batch=1,
                                 max_wait_s=0.0)
        return HttpFrontend(server, owns_server=True).start(), server

    def test_inflight_completes_new_refused(self):
        frontend, server = self.make_slow_frontend()
        client = HttpClient.for_frontend(frontend)
        image = np.ones(4)
        inflight = {}

        def first():
            inflight["result"] = client.infer(image)

        worker = threading.Thread(target=first)
        worker.start()
        time.sleep(0.15)           # r1 is dispatching inside the batch
        closer = threading.Thread(target=frontend.shutdown)
        closer.start()
        time.sleep(0.1)            # drain flag is up, server still draining
        assert frontend.draining
        with pytest.raises(HttpError) as refused:
            client.infer(image)
        assert refused.value.status == 503
        assert refused.value.code == "shutting_down"
        worker.join(timeout=5.0)
        closer.join(timeout=5.0)
        # the in-flight request was served, bit-exactly, during the drain
        np.testing.assert_array_equal(inflight["result"].output, image * 2.0)
        # and the socket is actually gone
        with pytest.raises(OSError):
            client.healthz()

    def test_healthz_reports_draining(self):
        frontend, server = self.make_slow_frontend(delay=0.5)
        client = HttpClient.for_frontend(frontend)
        threading.Thread(target=lambda: client.infer(np.ones(4)),
                         daemon=True).start()
        time.sleep(0.15)
        closer = threading.Thread(target=frontend.shutdown)
        closer.start()
        time.sleep(0.1)
        payload = client.healthz()     # GETs stay answerable while draining
        assert payload["status"] == "draining"
        assert payload["draining"] is True
        closer.join(timeout=5.0)

    def test_shutdown_is_idempotent(self):
        frontend, server = self.make_slow_frontend(delay=0.0)
        frontend.shutdown()
        frontend.shutdown()            # second call is a no-op, no raise

    def test_borrowed_server_survives_frontend(self):
        """owns_server=False: the wire closes, in-process serving goes on."""
        registry = ModelRegistry(workers=1)
        registry.register_network("toy", linear_network(2.0, 0.0))
        with registry, InferenceServer(registry=registry) as server:
            frontend = HttpFrontend(server).start()
            HttpClient.for_frontend(frontend).infer(np.ones(3))
            frontend.shutdown()
            result = server.submit(np.ones(3))     # still alive
            np.testing.assert_array_equal(result.output, np.ones(3) * 2.0)
