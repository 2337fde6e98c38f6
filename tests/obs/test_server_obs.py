"""Server-level observability: traces, usage metering, metrics, profiler.

The in-process half of the PR's wiring: every ``submit`` is traceable
(ids are minted when absent), receipts carry span trees whose shape is
pinned here, ``/v1/usage`` bills what the engines actually did
(``macs = conversions x fragment_size``), the scrape reflects the
traffic, and the opt-in engine profiler attributes MVM time to dispatch
tiers — all against both the fake-network tenants (fast, semantics) and
a real in-situ server (billing, profiling).
"""

import time

import numpy as np
import pytest

from repro.nn.tensor import Tensor
from repro.obs import Observability, parse_prometheus_text
from repro.serving.demo import post_relu_network as _post_relu_network
from repro.reram import ADCSpec, DeviceSpec, ReRAMDevice, paper_adc_bits
from repro.serving import (SHED_DEADLINE, InferenceServer, ModelRegistry,
                           PriorityClass, RequestShed, SlaPolicy)


def linear_network(scale, shift):
    def network(tensor):
        return Tensor(tensor.data.reshape(tensor.data.shape[0], -1)
                      * scale + shift)
    return network


@pytest.fixture()
def server():
    registry = ModelRegistry(workers=2)
    registry.register_network("fast", linear_network(2.0, 1.0))
    registry.register_network("batch", linear_network(-3.0, 0.5))
    policy = SlaPolicy((
        PriorityClass("interactive", max_batch=2, max_wait_s=0.001),
        PriorityClass("bulk", max_batch=8, max_wait_s=0.004),
    ))
    with registry, InferenceServer(registry=registry,
                                   policy=policy) as server:
        yield server


class TestTraceLifecycle:
    def test_submit_mints_a_trace_id(self, server):
        result = server.submit(np.ones(4), model="fast")
        trace_id = result.stats.trace_id
        assert trace_id is not None and len(trace_id) == 32
        record = server.trace(trace_id)
        assert record["trace_id"] == trace_id
        assert record["model"] == "fast"

    def test_explicit_trace_id_rides_through(self, server):
        result = server.submit(np.ones(4), model="fast",
                               trace_id="caller-chosen-id")
        assert result.stats.trace_id == "caller-chosen-id"
        assert server.trace("caller-chosen-id") is not None

    def test_span_tree_shape(self, server):
        result = server.submit(np.ones(4), model="fast",
                               priority="interactive")
        (root,) = result.stats.spans
        assert root["name"] == "request"
        assert root["start_s"] == 0.0
        queue_wait, batch = root["children"]
        assert queue_wait["name"] == "queue_wait"
        assert batch["name"] == "batch"
        assert batch["attrs"]["batch_size"] == result.stats.batch_size
        assert batch["attrs"]["batch_id"] == result.stats.batch_id
        # the runtime contributed the per-tile dispatch span
        (tile,) = batch["children"]
        assert tile["name"] == "tile"
        assert tile["duration_s"] <= batch["duration_s"] * 1.5
        # durations nest sanely: the request covers wait + ride
        assert root["duration_s"] >= queue_wait["duration_s"]
        # and the stored trace carries the same tree
        stored = server.trace(result.stats.trace_id)
        assert stored["spans"] == result.stats.spans

    def test_ring_eviction_bounds_storage(self):
        registry = ModelRegistry(workers=1)
        registry.register_network("fast", linear_network(1.0, 0.0))
        with registry, InferenceServer(
                registry=registry,
                obs=Observability(trace_ring=2)) as server:
            ids = [server.submit(np.ones(3)).stats.trace_id
                   for _ in range(4)]
            assert server.trace(ids[0]) is None      # evicted
            assert server.trace(ids[-1]) is not None


class TestShedObservability:
    def make_slow_server(self, obs=None):
        registry = ModelRegistry(workers=1)

        def slow(tensor):
            time.sleep(0.15)
            return Tensor(tensor.data.reshape(tensor.data.shape[0], -1))

        registry.register_network("slow", slow)
        return registry, InferenceServer(registry=registry, max_batch=1,
                                         max_wait_s=0.0, obs=obs)

    def test_shed_is_metered_traced_and_counted(self):
        registry, server = self.make_slow_server()
        with registry, server:
            blocker = server.submit_async(np.ones(4))
            time.sleep(0.05)     # blocker is mid-dispatch (EDF would
            # otherwise pop the deadlined victim first, not shed it)
            victim = server.submit_async(np.ones(4), deadline_s=0.01)
            with pytest.raises(RequestShed) as shed:
                victim.result(timeout=10.0)
            blocker.result(timeout=10.0)
            receipt = shed.value.receipt
            assert receipt.reason == SHED_DEADLINE
            assert receipt.trace_id is not None
            # usage billed the shed against the tenant
            usage = server.usage_snapshot()
            assert usage["totals"]["sheds"] == 1
            assert usage["totals"]["requests"] == 1
            # the trace ring stored the shed's one-span story
            record = server.trace(receipt.trace_id)
            assert record["shed_reason"] == SHED_DEADLINE
            assert record["spans"][0]["name"] == "shed"
            # and the scrape shows the labelled shed counter
            families = parse_prometheus_text(server.metrics_text())
            samples = families["forms_requests_shed_total"]["samples"]
            ((_, labels), value), = samples.items()
            assert dict(labels)["reason"] == SHED_DEADLINE
            assert value == 1


class TestMetricsWiring:
    def test_scrape_reflects_traffic(self, server):
        for _ in range(3):
            server.submit(np.ones(4), model="fast", priority="interactive")
        families = parse_prometheus_text(server.metrics_text())
        completed = families["forms_requests_completed_total"]["samples"]
        key = ("forms_requests_completed_total",
               (("class", "interactive"), ("model", "fast")))
        assert completed[key] == 3
        # pull gauges and pre-touched zero families are present
        assert "forms_queue_depth" in families
        assert "forms_occupancy" in families
        assert families["forms_batches_total"]["samples"][
            ("forms_batches_total", ())] >= 1
        # the latency histogram counted every completion
        latency = families["forms_request_latency_seconds"]["samples"]
        assert latency[("forms_request_latency_seconds_count",
                        (("class", "interactive"),
                         ("model", "fast")))] == 3

    def test_disabled_obs_is_silent_but_serves(self, server):
        registry = ModelRegistry(workers=1)
        registry.register_network("fast", linear_network(2.0, 1.0))
        with registry, InferenceServer(
                registry=registry, obs=Observability.disabled()) as quiet:
            result = quiet.submit(np.ones(4))
            np.testing.assert_array_equal(result.output, np.ones(4) * 3.0)
            assert quiet.metrics_text() == ""
            assert result.stats.trace_id is not None    # ids still mint
            assert quiet.trace(result.stats.trace_id) is None
            assert result.stats.spans is None


@pytest.fixture(scope="module")
def real_server():
    model, config, images = _post_relu_network()
    device = ReRAMDevice(DeviceSpec(), 0.0)
    adc = ADCSpec(bits=paper_adc_bits(config.fragment_size))
    with InferenceServer.from_model(model, config, device, adc=adc,
                                    activation_bits=12, workers=1,
                                    max_batch=4,
                                    max_wait_s=0.02) as server:
        yield server, config, images


class TestUsageBilling:
    def test_macs_equal_conversions_times_fragment(self, real_server):
        server, config, images = real_server
        results = server.submit_many(images[:3])
        for result in results:
            stats = result.stats.engine_stats
            assert stats["macs"] == \
                stats["conversions"] * config.fragment_size
            assert stats["macs"] > 0

    def test_usage_totals_sum_the_receipts(self, real_server):
        server, config, images = real_server
        before = server.usage_snapshot()["totals"]
        results = server.submit_many(images[:4])
        after = server.usage_snapshot()["totals"]
        assert after["requests"] - before["requests"] == 4
        assert after["macs"] - before["macs"] == \
            sum(r.stats.engine_stats["macs"] for r in results)
        assert after["die_seconds"] > before["die_seconds"]


class TestEngineProfiling:
    def test_profiler_attributes_tiers_and_spans(self, real_server):
        server, config, images = real_server
        profiler = server.arm_profiling()
        assert server.arm_profiling() is profiler     # idempotent
        result = server.submit(images[0])
        families = parse_prometheus_text(server.metrics_text())
        samples = families["forms_engine_profile_seconds"]["samples"]
        counts = {labels: value
                  for (name, labels), value in samples.items()
                  if name == "forms_engine_profile_seconds_count"}
        assert counts, "no profiled MVMs landed in the histogram"
        for labels, value in counts.items():
            assert dict(labels)["tier"] in ("exact", "integer", "analog",
                                            "dense", "dense_noise")
            assert value >= 1
        # profiled engine spans appear under the trace's tile span
        (root,) = result.stats.spans
        tile = root["children"][1]["children"][0]
        engine_spans = tile.get("children", [])
        assert engine_spans and all(span["name"] == "engine"
                                    for span in engine_spans)
        assert all("tier" in span["attrs"] for span in engine_spans)
