"""The serving contract, end to end.

A served request must be **bit-identical** to a direct single-image
``run_network_serial`` call on the same image — at any batch composition,
submission interleaving and worker count, with and without read noise —
and the per-request engine-stats slices must sum exactly to the shared
engines' merged totals.
"""

import threading

import numpy as np
import pytest

from repro.serving.demo import post_relu_network as _post_relu_network
from repro.reram import ADCSpec, DeviceSpec, ReRAMDevice, paper_adc_bits
from repro.reram.nonideal import ReadNoise
from repro.reram import NonidealEngine
from repro.runtime import run_network_serial
from repro.serving import InferenceServer

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


def serial_reference(server, images):
    """Direct serial single-image forwards through the *same* network."""
    return run_network_serial(server.model, images, tile_size=1)


class TestBitIdentity:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("noise", [False, True],
                             ids=["ideal", "read_noise"])
    def test_served_equals_serial(self, network_case, workers, noise):
        """The acceptance matrix: >=2 worker counts x {ideal, noisy}."""
        images = network_case[2]
        with make_server(network_case, noise=noise, workers=workers,
                         max_batch=4, max_wait_s=0.05) as server:
            results = server.submit_many(images)
            serial = serial_reference(server, images)
        for i, served in enumerate(results):
            np.testing.assert_array_equal(served.output, serial[i])

    def test_interleaved_submissions_from_threads(self, network_case):
        """Concurrent single-image submissions, arbitrary arrival order."""
        images = network_case[2]
        outputs = {}
        with make_server(network_case, workers=3, max_batch=3,
                         max_wait_s=0.02) as server:

            def client(i):
                outputs[i] = server.submit(images[i]).output

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(images.shape[0])]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            serial = serial_reference(server, images)
        for i in range(images.shape[0]):
            np.testing.assert_array_equal(outputs[i], serial[i])

    def test_batch_composition_is_irrelevant(self, network_case):
        """max_batch=1 (no coalescing) and max_batch=8 (everything rides
        together) produce identical bits."""
        images = network_case[2]
        with make_server(network_case, workers=2, max_batch=1,
                         max_wait_s=0.0) as singles:
            lone = [r.output for r in singles.submit_many(images)]
        with make_server(network_case, workers=2, max_batch=8,
                         max_wait_s=0.1) as coalesced:
            ganged = coalesced.submit_many(images)
        assert max(r.stats.batch_size for r in ganged) > 1
        for a, b in zip(lone, ganged):
            np.testing.assert_array_equal(a, b.output)

    def test_noisy_serving_is_batch_invariant(self, network_case):
        """Read noise is keyed per (input, job): which batch a request
        rode in cannot change its noise draw."""
        images = network_case[2][:4]
        with make_server(network_case, noise=True, workers=1,
                         max_batch=1, max_wait_s=0.0) as singles:
            lone = [r.output for r in singles.submit_many(images)]
        with make_server(network_case, noise=True, workers=3,
                         max_batch=4, max_wait_s=0.1) as coalesced:
            ganged = [r.output for r in coalesced.submit_many(images)]
        for a, b in zip(lone, ganged):
            np.testing.assert_array_equal(a, b)


class TestStatsConsistency:
    def test_request_slices_sum_to_engine_totals(self, network_case):
        """Per-request engine-stats slices partition the merged totals."""
        images = network_case[2]
        with make_server(network_case, workers=3, max_batch=4,
                         max_wait_s=0.02) as server:
            results = server.submit_many(images)
            totals = {}
            for engine in server.engines.values():
                for key, value in engine.stats.as_dict().items():
                    totals[key] = totals.get(key, 0) + value
        summed = {}
        for served in results:
            for key, value in served.stats.engine_stats.items():
                summed[key] = summed.get(key, 0) + value
        assert summed == totals

    def test_slices_match_serial_single_image_stats(self, network_case):
        """Each request's slice equals the stats of a standalone serial
        single-image forward on a fresh, identical network."""
        model, config, images, device, adc = network_case
        images = images[:3]
        with make_server(network_case, workers=3, max_batch=3,
                         max_wait_s=0.05) as server:
            results = server.submit_many(images)
        from repro.reram.inference import build_insitu_network
        for i, served in enumerate(results):
            net, engines = build_insitu_network(model, config, device,
                                                adc=adc, activation_bits=12)
            run_network_serial(net, images[i:i + 1], tile_size=1)
            standalone = {}
            for engine in engines.values():
                for key, value in engine.stats.as_dict().items():
                    standalone[key] = standalone.get(key, 0) + value
            assert served.stats.engine_stats == standalone

    def test_request_receipts_are_coherent(self, network_case):
        images = network_case[2]
        with make_server(network_case, workers=2, max_batch=4,
                         max_wait_s=0.02) as server:
            results = server.submit_many(images)
            snapshot = server.server_stats()
        assert snapshot["requests_completed"] == images.shape[0]
        assert snapshot["requests_failed"] == 0
        assert snapshot["batches_formed"] >= 1
        ids = [r.stats.request_id for r in results]
        assert sorted(ids) == list(range(images.shape[0]))
        for served in results:
            s = served.stats
            assert s.latency_s >= s.queue_wait_s >= 0.0
            assert s.latency_s >= s.service_s >= 0.0
            assert 1 <= s.batch_size <= 4
            assert s.engine_stats["conversions"] > 0


class TestLifecycle:
    def test_shutdown_drains_and_refuses(self, network_case):
        images = network_case[2]
        server = make_server(network_case, workers=2, max_batch=8,
                             max_wait_s=0.2)
        futures = [server.submit_async(image) for image in images]
        server.shutdown()
        for future in futures:
            assert future.result(timeout=5.0).output.shape[-1] == 10
        with pytest.raises(RuntimeError, match="shut down"):
            server.submit(images[0])
        server.shutdown()  # idempotent

    def test_borrowed_pool_left_open(self, network_case):
        from repro.runtime import WorkerPool
        images = network_case[2][:2]
        with WorkerPool(2) as pool:
            with make_server(network_case, pool=pool,
                             max_wait_s=0.0) as server:
                server.submit_many(images)
            assert pool.map(lambda x: x + 1, [1, 2]) == [2, 3]

    def test_cancelled_future_does_not_poison_batch_mates(self, network_case):
        """A client cancelling its pending future must not fail the other
        requests riding the same batch."""
        images = network_case[2][:4]
        with make_server(network_case, workers=1, max_batch=4,
                         max_wait_s=0.5) as server:
            victim = server.submit_async(images[0])
            cancelled = victim.cancel()
            mates = [server.submit_async(image) for image in images[1:]]
            serial = serial_reference(server, images)
            for i, future in enumerate(mates, start=1):
                np.testing.assert_array_equal(
                    future.result(timeout=5.0).output, serial[i])
        if not cancelled:   # raced the batcher: the victim was served
            np.testing.assert_array_equal(
                victim.result(timeout=5.0).output, serial[0])

    def test_rejects_scalar_image(self, network_case):
        with make_server(network_case, workers=1,
                         max_wait_s=0.0) as server:
            with pytest.raises(ValueError):
                server.submit_async(np.float64(3.0))

    def test_shape_mismatch_rejected_at_submit(self, network_case):
        """A malformed request is rejected at submit time and never
        reaches a batch where it would fail innocent batch mates."""
        images = network_case[2][:2]
        with make_server(network_case, workers=1, max_batch=4,
                         max_wait_s=0.2) as server:
            good = server.submit_async(images[0])
            with pytest.raises(ValueError, match="shape"):
                server.submit_async(images[1][..., :-1])
            serial = serial_reference(server, images[:1])
            np.testing.assert_array_equal(good.result(timeout=5.0).output,
                                          serial[0])

    def test_die_cache_shared_across_servers(self, network_case):
        from repro.reram import DieCache
        cache = DieCache()
        with make_server(network_case, workers=1, max_wait_s=0.0,
                         die_cache=cache):
            pass
        misses = cache.misses
        assert misses > 0
        with make_server(network_case, workers=1, max_wait_s=0.0,
                         die_cache=cache):
            pass
        assert cache.misses == misses
        assert cache.hits >= misses
