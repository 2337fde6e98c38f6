"""Sparse CSR job scheduler equivalence and accounting.

``matvec_int`` schedules the activation block's nonzero structure
(each distinct live (fragment, drive pattern) read once on the analog
rung, one telescoped matmul plus a clip residue on the ideal one); these
tests pin it bit-exact against both the
retained dense bit-plane kernel (``matvec_int_dense``) and the
cycle-by-cycle oracle (``matvec_int_reference``) across mapping schemes,
tiers, edge-case inputs and worker counts — plus the keyed read-noise
substreams that make even noisy engines bit-exact across paths.
"""

import numpy as np
import pytest

import repro.reram.engine as engine_mod
from repro.core import FragmentGeometry, QuantizationSpec
from repro.core.polarization import compute_signs, project_polarization
from repro.perf.suite import make_post_relu_inputs
from repro.reram import (ADCSpec, DeviceSpec, EngineStats, InSituLayerEngine,
                         ReRAMDevice, build_engine)
from repro.reram.mapping import infer_signs, map_layer
from repro.reram.nonideal import CellIV, ReadNoise, WireModel
from repro.reram import NonidealEngine
from repro.runtime import WorkerPool

SCHEMES = ("forms", "isaac_offset", "dual")
QSPEC = QuantizationSpec(8, 2)


def polarized_case(shape, m, seed=0, qmax=127):
    rng = np.random.default_rng(seed)
    geom = FragmentGeometry(shape, m)
    w = rng.normal(size=shape)
    signs = compute_signs(w, geom)
    w = project_polarization(w, geom, signs)
    levels = np.clip(np.rint(w * qmax / (np.abs(w).max() + 1e-9)),
                     -qmax, qmax).astype(np.int64)
    return geom.matrix(levels), geom


def ideal_device():
    return ReRAMDevice(DeviceSpec(), variation_sigma=0.0)


def sparse_block(geom, m, positions=24, bits=12, seed=3):
    return make_post_relu_inputs(geom, positions=positions, bits=bits,
                                 fragment_size=m, seed=seed)


class TestSparseEqualsReference:
    """Bit-exactness of the CSR scheduler vs dense kernel and oracle."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("adc_bits", [None, 3])
    def test_post_relu_block(self, scheme, adc_bits):
        levels, geom = polarized_case((4, 2, 3, 3), 4, seed=1)
        x = sparse_block(geom, 4)
        adc = ADCSpec(bits=adc_bits) if adc_bits else None
        engine = build_engine(levels, geom, QSPEC,
                              ideal_device(), scheme=scheme,
                              adc=adc, activation_bits=12)
        out = engine.matvec_int(x)
        np.testing.assert_array_equal(out, engine.matvec_int_dense(x))
        np.testing.assert_array_equal(out, engine.matvec_int_reference(x))

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_analog_variation_tier(self, scheme):
        levels, geom = polarized_case((4, 2, 3, 3), 4, seed=2)
        x = sparse_block(geom, 4)
        device = ReRAMDevice(DeviceSpec(), variation_sigma=0.1, seed=5)
        engine = build_engine(levels, geom, QSPEC, device,
                              scheme=scheme,
                              activation_bits=12)
        out = engine.matvec_int(x)
        np.testing.assert_array_equal(out, engine.matvec_int_dense(x))
        np.testing.assert_array_equal(out, engine.matvec_int_reference(x))

    def test_irdrop_tier(self):
        levels, geom = polarized_case((4, 2, 3, 3), 4, seed=4)
        x = sparse_block(geom, 4)
        mapped = map_layer(levels, geom, QSPEC, scheme="forms",
                           signs=infer_signs(levels, geom))
        engine = NonidealEngine(
            mapped, ideal_device(), activation_bits=12,
            wire=WireModel(r_wire_ohm=10.0),
            cell_iv=CellIV(nonlinearity=2.5))
        out = engine.matvec_int(x)
        np.testing.assert_array_equal(out, engine.matvec_int_dense(x))
        np.testing.assert_array_equal(out, engine.matvec_int_reference(x))

    def test_all_zero_input(self):
        levels, geom = polarized_case((4, 2, 3, 3), 4, seed=6)
        engine = build_engine(levels, geom, QSPEC, ideal_device(),
                              activation_bits=8)
        x = np.zeros((geom.rows, 5), dtype=np.int64)
        np.testing.assert_array_equal(engine.matvec_int(x),
                                      np.zeros((geom.cols, 5)))
        np.testing.assert_array_equal(engine.matvec_int(x),
                                      engine.matvec_int_reference(x))
        assert engine.stats.cycles_fed == 0

    def test_single_nonzero_input(self):
        levels, geom = polarized_case((4, 2, 3, 3), 4, seed=7)
        engine = build_engine(levels, geom, QSPEC,
                              ideal_device(), adc=ADCSpec(bits=3),
                              activation_bits=10)
        x = np.zeros((geom.rows, 6), dtype=np.int64)
        x[geom.rows - 1, 3] = 0b1011010101
        out = engine.matvec_int(x)
        np.testing.assert_array_equal(out, engine.matvec_int_reference(x))
        assert out[:, [0, 1, 2, 4, 5]].any() == False  # noqa: E712
        assert engine.stats.pairs_skipped > 0

    def test_1d_input(self):
        levels, geom = polarized_case((4, 2, 3, 3), 4, seed=8)
        engine = build_engine(levels, geom, QSPEC,
                              ideal_device(),
                              activation_bits=8)
        x = np.zeros(geom.rows, dtype=np.int64)
        x[::3] = 200
        np.testing.assert_array_equal(engine.matvec_int(x),
                                      engine.matvec_int_reference(x))

    def test_hybrid_fallback_matches(self):
        """A many-fragment, few-position block (a classifier head on a
        small batch) runs the same distinct-read pass as any other block:
        no dense fallback, and still the oracle's bits."""
        levels, geom = polarized_case((4, 32, 3, 3), 4, seed=9)
        assert geom.fragments_per_column >= 64
        x = sparse_block(geom, 4, positions=3)
        device = ReRAMDevice(DeviceSpec(), variation_sigma=0.1, seed=5)
        engine = build_engine(levels, geom, QSPEC, device,
                              activation_bits=12)
        assert engine.dispatch_tier() == "analog"
        out = engine.matvec_int(x)
        np.testing.assert_array_equal(out, engine.matvec_int_reference(x))
        np.testing.assert_array_equal(out, engine.matvec_int_dense(x))

    def test_chunked_kernel_identical(self, monkeypatch):
        """The chunk budget is a pure memory knob on the sparse path too."""
        levels, geom = polarized_case((4, 2, 3, 3), 4, seed=10)
        x = sparse_block(geom, 4)
        engine = build_engine(levels, geom, QSPEC,
                              ideal_device(), adc=ADCSpec(bits=3),
                              activation_bits=12)
        expected = engine.matvec_int(x)
        monkeypatch.setattr(engine_mod, "FUSED_KERNEL_MAX_ELEMENTS", 1)
        np.testing.assert_array_equal(engine.matvec_int(x), expected)


class TestWorkerInvariance:
    """Pooled in-layer fan-out: identical bits and stats at any width."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_integer_tier(self, workers):
        levels, geom = polarized_case((4, 2, 3, 3), 4, seed=11)
        x = sparse_block(geom, 4)
        engine = build_engine(levels, geom, QSPEC,
                              ideal_device(), adc=ADCSpec(bits=3),
                              activation_bits=12)
        serial = engine.matvec_int(x)
        serial_stats = (engine.stats.conversions, engine.stats.saturated,
                        engine.stats.pairs_scheduled)
        with WorkerPool(workers) as pool:
            pooled_engine = build_engine(
                levels, geom, QSPEC, ideal_device(), adc=ADCSpec(bits=3),
                activation_bits=12)
            pooled = pooled_engine.matvec_int(x, pool=pool)
        np.testing.assert_array_equal(pooled, serial)
        assert (pooled_engine.stats.conversions,
                pooled_engine.stats.saturated,
                pooled_engine.stats.pairs_scheduled) == serial_stats

    @pytest.mark.parametrize("workers", [1, 4])
    def test_noisy_engine(self, workers, monkeypatch):
        """Read noise rides keyed substreams: worker-count invariant."""
        monkeypatch.setattr(engine_mod, "FUSED_KERNEL_MAX_ELEMENTS",
                            64)  # force many chunks
        levels, geom = polarized_case((4, 2, 3, 3), 4, seed=12)
        x = sparse_block(geom, 4, positions=9)
        mapped = map_layer(levels, geom, QSPEC, scheme="forms",
                           signs=infer_signs(levels, geom))
        spec = DeviceSpec()

        def noisy_engine():
            noise = ReadNoise.for_fragment(4, spec.g_max, spec.read_voltage,
                              relative_sigma=0.2, seed=13)
            return NonidealEngine(mapped, ReRAMDevice(spec, 0.0),
                                  activation_bits=12, read_noise=noise)

        serial = noisy_engine().matvec_int(x)
        with WorkerPool(workers) as pool:
            pooled = noisy_engine().matvec_int(x, pool=pool)
        np.testing.assert_array_equal(pooled, serial)

    def test_engine_pool_attribute(self):
        levels, geom = polarized_case((4, 2, 3, 3), 4, seed=14)
        x = sparse_block(geom, 4)
        engine = build_engine(levels, geom, QSPEC,
                              ideal_device(), adc=ADCSpec(bits=3),
                              activation_bits=12)
        expected = engine.matvec_int(x)
        with WorkerPool(3) as pool:
            engine.pool = pool
            np.testing.assert_array_equal(engine.matvec_int(x), expected)
        engine.pool = None


def distinct_live_reads(engine, x):
    """Distinct (fragment, drive pattern) pairs among a block's live reads,
    counted straight from its bit-planes."""
    stacked = engine._prepare(x)                   # (n_frag, m, positions)
    seen = set()
    for bit in range(int(stacked.max()).bit_length()):
        planes = (stacked >> bit) & 1
        for f, p in zip(*np.nonzero(planes.any(axis=1))):
            seen.add((f, planes[f, :, p].tobytes()))
    return len(seen)


def analog_engine(levels, geom, scheme, physics, **kwargs):
    mapped = map_layer(levels, geom, QSPEC, scheme=scheme,
                       signs=infer_signs(levels, geom)
                       if scheme == "forms" else None)
    if physics == "irdrop":
        return InSituLayerEngine(mapped, ideal_device(),
                                 wire=WireModel(r_wire_ohm=10.0),
                                 cell_iv=CellIV(nonlinearity=2.5), **kwargs)
    return InSituLayerEngine(
        mapped, ReRAMDevice(DeviceSpec(), variation_sigma=0.1, seed=5),
        **kwargs)


class TestDistinctReads:
    """The analog rung converts each distinct (fragment, drive pattern)
    read once per MVM and books it once per hardware read."""

    @pytest.mark.parametrize("physics", ["variation", "irdrop"])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_each_distinct_read_evaluated_once(self, scheme, physics,
                                               monkeypatch):
        levels, geom = polarized_case((4, 4, 3, 3), 4, seed=40)
        rng = np.random.default_rng(41)
        palette = rng.integers(0, 1 << 8, size=(geom.rows, 3))
        palette[rng.random(palette.shape) < 0.3] = 0
        x = palette[:, rng.integers(0, 3, size=20)]   # columns repeat
        engine = analog_engine(levels, geom, scheme, physics,
                               activation_bits=8)
        assert engine.dispatch_tier() == "analog"
        evaluated = []
        job_currents = InSituLayerEngine._job_currents

        def spy(self, conductance, drive, noise_keys=None):
            evaluated.append(conductance.shape[0] * drive.shape[-1])
            return job_currents(self, conductance, drive, noise_keys)

        monkeypatch.setattr(InSituLayerEngine, "_job_currents", spy)
        out = engine.matvec_int(x)
        monkeypatch.undo()
        n_planes = len(engine._plane_terms)
        assert sum(evaluated) == distinct_live_reads(engine, x) * n_planes
        np.testing.assert_array_equal(out, engine.matvec_int_reference(x))

    def test_saturation_booked_per_read(self):
        """One saturating pattern per fragment, repeated over every bit and
        position: each of its hardware reads clips and is counted."""
        levels, geom = polarized_case((4, 2, 3, 3), 4, seed=43)
        x = np.full((geom.rows, 9), (1 << 6) - 1)  # every row, every bit
        engine = build_engine(
            levels, geom, QSPEC,
            ReRAMDevice(DeviceSpec(), variation_sigma=0.1, seed=44),
            adc=ADCSpec(bits=3), activation_bits=6)
        assert engine.dispatch_tier() == "analog"
        out = engine.matvec_int(x)
        fused = engine.stats.as_dict()
        engine.stats = EngineStats()
        np.testing.assert_array_equal(out, engine.matvec_int_reference(x))
        assert fused["saturated"] > 0
        assert fused["conversions"] == engine.stats.conversions
        assert fused["saturated"] == engine.stats.saturated

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("m,scheme,physics", [
        (16, "forms", "variation"),
        (32, "forms", "irdrop"),
        (8, "dual", "variation"),
    ])
    def test_chunking_and_workers_change_nothing(self, m, scheme, physics,
                                                 workers, monkeypatch):
        levels, geom = polarized_case((4, 8, 3, 3), m, seed=45)
        x = sparse_block(geom, m, positions=16)
        engine = analog_engine(levels, geom, scheme, physics,
                               activation_bits=12)
        expected = engine.matvec_int(x)
        stats = engine.stats.as_dict()
        np.testing.assert_array_equal(expected,
                                      engine.matvec_int_reference(x))
        monkeypatch.setattr(engine_mod, "FUSED_KERNEL_MAX_ELEMENTS", 1)
        chunked = analog_engine(levels, geom, scheme, physics,
                                activation_bits=12)
        with WorkerPool(workers) as pool:
            out = chunked.matvec_int(x, pool=pool)
        np.testing.assert_array_equal(out, expected)
        assert chunked.stats.as_dict() == stats


class TestNoiseKeyedSubstreams:
    def test_noisy_fused_equals_reference_bitwise(self):
        """The new anchor: per-job keyed noise makes even noisy engines
        bit-exact between the production kernel and the reference loop."""
        levels, geom = polarized_case((4, 2, 3, 3), 4, seed=15)
        x = sparse_block(geom, 4, positions=7)
        mapped = map_layer(levels, geom, QSPEC, scheme="forms",
                           signs=infer_signs(levels, geom))
        spec = DeviceSpec()

        def engine():
            noise = ReadNoise.for_fragment(4, spec.g_max, spec.read_voltage,
                              relative_sigma=0.3, seed=16)
            return NonidealEngine(mapped, ReRAMDevice(spec, 0.0),
                                  activation_bits=12, read_noise=noise)

        np.testing.assert_array_equal(engine().matvec_int(x),
                                      engine().matvec_int_reference(x))

    def test_noise_differs_across_input_blocks(self):
        """Keys include the input digest: different blocks, different noise."""
        spec = DeviceSpec()
        noise = ReadNoise.for_fragment(4, spec.g_max, spec.read_voltage,
                                       relative_sigma=0.3, seed=17)
        currents = np.zeros((2, 3, 2, 2))
        a = noise.apply_jobs(currents, [(1, 0, 0, 0), (1, 0, 1, 0)])
        b = noise.apply_jobs(currents, [(2, 0, 0, 0), (2, 0, 1, 0)])
        assert not np.array_equal(a, b)
        # ... and identical keys reproduce identical draws.
        c = noise.apply_jobs(currents, [(1, 0, 0, 0), (1, 0, 1, 0)])
        np.testing.assert_array_equal(a, c)

    def test_key_count_mismatch_raises(self):
        noise = ReadNoise(relative_sigma=0.1, full_scale_a=1.0, seed=1)
        with pytest.raises(ValueError):
            noise.apply_jobs(np.zeros((3, 2)), [(0,)])


class TestStatsAccounting:
    def test_conversions_match_reference_on_sparse_block(self):
        levels, geom = polarized_case((4, 2, 3, 3), 4, seed=18)
        x = sparse_block(geom, 4)
        sparse = build_engine(levels, geom, QSPEC,
                              ideal_device(), adc=ADCSpec(bits=3),
                              activation_bits=12)
        ref = build_engine(levels, geom, QSPEC, ideal_device(),
                           adc=ADCSpec(bits=3), activation_bits=12)
        sparse.matvec_int(x)
        ref.matvec_int_reference(x)
        assert sparse.stats.conversions == ref.stats.conversions
        assert sparse.stats.saturated == ref.stats.saturated
        assert sparse.stats.cycles_fed == ref.stats.cycles_fed

    def test_pair_accounting_consistent(self):
        levels, geom = polarized_case((4, 2, 3, 3), 4, seed=19)
        x = sparse_block(geom, 4)
        engine = build_engine(levels, geom, QSPEC,
                              ideal_device(), adc=ADCSpec(bits=3),
                              activation_bits=12)
        engine.matvec_int(x)
        stats = engine.stats
        total_pairs = stats.pairs_scheduled + stats.pairs_skipped
        n_planes = len(engine._plane_terms)
        assert total_pairs == stats.cycles_fed * x.shape[1] * n_planes * \
            geom.fragments_per_column
        assert 0.0 < stats.pair_skip_fraction < 1.0
        assert stats.pair_skip_fraction >= stats.skip_fraction

    def test_merge_is_thread_safe(self):
        import threading
        from repro.reram import EngineStats
        total = EngineStats()
        part = EngineStats()
        part.conversions = 1
        part.pairs_scheduled = 2

        def hammer():
            for _ in range(2000):
                total.merge(part)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert total.conversions == 8000
        assert total.pairs_scheduled == 16000

