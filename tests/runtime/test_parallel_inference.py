"""Tiled whole-network inference: worker-count invariance, end to end.

The contract under test: for a fixed tiling, the ``repro.runtime`` executor
produces bit-identical outputs and identical merged engine stats at any
worker count — against the serial path, against dense-kernel engines, and
against the cycle-by-cycle reference loop; with and without read noise.
"""

import numpy as np
import pytest

from repro.serving.demo import post_relu_network as _post_relu_network
from repro.reram import ADCSpec, DeviceSpec, ReRAMDevice, paper_adc_bits
from repro.reram.inference import build_insitu_network
from repro.reram.nonideal import ReadNoise
from repro.reram.nonideal_engine import NonidealEngine
from repro.runtime import (WorkerPool, attach_pool, detach_pool,
                           evaluate_tiled, infer_tiled, infer_tiles,
                           iter_tiles, run_network_serial)


@pytest.fixture(scope="module")
def network_case():
    model, config, images = _post_relu_network()
    device = ReRAMDevice(DeviceSpec(), 0.0)
    adc = ADCSpec(bits=paper_adc_bits(config.fragment_size))
    return model, config, images, device, adc


def build(network_case, **kwargs):
    model, config, images, device, adc = network_case
    net, engines = build_insitu_network(model, config, device, adc=adc,
                                        activation_bits=12, **kwargs)
    return net, engines, images


class TestWorkerCountInvariance:
    def test_outputs_bit_identical_across_worker_counts(self, network_case):
        net, _, images = build(network_case)
        serial = run_network_serial(net, images, tile_size=2)
        for workers in (1, 2, 4):
            out = infer_tiled(net, images, workers=workers, tile_size=2)
            np.testing.assert_array_equal(out, serial)

    def test_sparse_equals_dense_engines(self, network_case):
        sparse_net, _, images = build(network_case)
        dense_net, dense_engines, _ = build(network_case)
        for engine in dense_engines.values():
            engine.matvec_int = engine.matvec_int_dense
        np.testing.assert_array_equal(
            infer_tiled(sparse_net, images, workers=4, tile_size=2),
            run_network_serial(dense_net, images, tile_size=2))

    def test_matches_reference_loop_end_to_end(self, network_case):
        """Whole-network outputs equal the cycle-by-cycle oracle's."""
        net, engines, images = build(network_case)
        ref_net, ref_engines, _ = build(network_case)
        for engine in ref_engines.values():
            engine.matvec_int = engine.matvec_int_reference
        out = infer_tiled(net, images, workers=4, tile_size=2)
        ref = run_network_serial(ref_net, images, tile_size=2)
        np.testing.assert_array_equal(out, ref)

    def test_stats_identical_across_worker_counts(self, network_case):
        def totals(engines):
            return {name: (e.stats.conversions, e.stats.saturated,
                           e.stats.cycles_fed, e.stats.jobs_scheduled,
                           e.stats.jobs_skipped, e.stats.pairs_scheduled,
                           e.stats.pairs_skipped)
                    for name, e in engines.items()}

        net1, engines1, images = build(network_case)
        infer_tiled(net1, images, workers=1, tile_size=2)
        net4, engines4, _ = build(network_case)
        infer_tiled(net4, images, workers=4, tile_size=2)
        assert totals(engines1) == totals(engines4)

    def test_noisy_network_worker_invariant(self, network_case):
        """Keyed noise substreams make even noisy inference invariant."""
        model, config, images, device, adc = network_case

        def noisy_net():
            spec = DeviceSpec()
            noise = ReadNoise.for_fragment(config.fragment_size, spec.g_max,
                                           spec.read_voltage,
                                           relative_sigma=0.05, seed=3)
            net, _ = build_insitu_network(
                model, config, device, adc=adc, activation_bits=12,
                engine_cls=NonidealEngine, read_noise=noise)
            return net

        images_small = images[:4]
        serial = infer_tiled(noisy_net(), images_small, workers=1,
                             tile_size=1)
        pooled = infer_tiled(noisy_net(), images_small, workers=4,
                             tile_size=1)
        np.testing.assert_array_equal(pooled, serial)


class TestRuntimeGlue:
    def test_attach_detach_pool(self, network_case):
        net, engines, images = build(network_case)
        expected = run_network_serial(net, images, tile_size=8)
        with WorkerPool(3) as pool:
            attach_pool(engines, pool)
            assert all(e.pool is pool for e in engines.values())
            out = run_network_serial(net, images, tile_size=8)
            detach_pool(engines)
        assert all(e.pool is None for e in engines.values())
        np.testing.assert_array_equal(out, expected)

    def test_tile_and_pool_fanout_compose(self, network_case):
        """Layer-level fan-out inside tile-level fan-out must not deadlock
        (re-entrant maps run inline) and must not change bits."""
        net, engines, images = build(network_case)
        expected = run_network_serial(net, images, tile_size=2)
        with WorkerPool(2) as pool:
            attach_pool(engines, pool)
            out = infer_tiled(net, images, pool=pool, tile_size=2)
            detach_pool(engines)
        np.testing.assert_array_equal(out, expected)

    def test_evaluate_tiled(self, network_case):
        net, _, images = build(network_case)

        class TinySet:
            def __init__(self, images):
                self.images = images
                logits = run_network_serial(net, images, tile_size=4)
                self.labels = np.argmax(logits, axis=1)

        dataset = TinySet(images)
        assert evaluate_tiled(net, dataset, workers=2, tile_size=4) == 1.0

    def test_infer_tiled_validates(self, network_case):
        net, _, images = build(network_case)
        with pytest.raises(ValueError):
            infer_tiled(net, images, tile_size=0)
        with pytest.raises(ValueError):
            infer_tiled(net, images[:0])


class TestInferTiles:
    """The tile-shape-agnostic entry point the serving layer builds on."""

    def test_ragged_tiles_match_serial_per_tile(self, network_case):
        net, _, images = build(network_case)
        ref_net, _, _ = build(network_case)
        tiles = [slice(0, 1), slice(1, 4), slice(4, 6), slice(6, 8)]
        outputs = infer_tiles(net, images, tiles, workers=3)
        assert len(outputs) == len(tiles)
        for tile, out in zip(tiles, outputs):
            np.testing.assert_array_equal(
                out, run_network_serial(ref_net, images[tile],
                                        tile_size=images[tile].shape[0]))

    def test_integer_tiles_equal_single_image_slices(self, network_case):
        net, _, images = build(network_case)
        by_int = infer_tiles(net, images, [0, 2], workers=2)
        by_slice = infer_tiles(net, images, [slice(0, 1), slice(2, 3)],
                               workers=2)
        for a, b in zip(by_int, by_slice):
            np.testing.assert_array_equal(a, b)

    def test_iter_tiles_round_trip(self, network_case):
        net, _, images = build(network_case)
        tiles = iter_tiles(images.shape[0], 3)
        assert [t.start for t in tiles] == [0, 3, 6]
        np.testing.assert_array_equal(
            np.concatenate(infer_tiles(net, images, tiles, workers=2)),
            infer_tiled(net, images, workers=2, tile_size=3))

    def test_collect_stats_slices_sum_to_totals(self, network_case):
        """Per-tile stats scopes partition the engines' merged stats."""
        net, engines, images = build(network_case)
        tiles = [slice(i, i + 1) for i in range(images.shape[0])]
        results = infer_tiles(net, images, tiles, workers=4,
                              collect_stats=True)
        totals = {}
        for engine in engines.values():
            for key, value in engine.stats.as_dict().items():
                totals[key] = totals.get(key, 0) + value
        summed = {}
        for _, stats in results:
            for key, value in stats.as_dict().items():
                summed[key] = summed.get(key, 0) + value
        assert summed == totals
        outputs = [out for out, _ in results]
        serial_net, _, _ = build(network_case)
        np.testing.assert_array_equal(
            np.concatenate(outputs),
            run_network_serial(serial_net, images, tile_size=1))

    def test_validates_empty_tiles(self, network_case):
        net, _, images = build(network_case)
        with pytest.raises(ValueError):
            infer_tiles(net, images, [])
