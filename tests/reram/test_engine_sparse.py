"""Sparse CSR job scheduler equivalence and accounting.

``matvec_int`` now schedules the activation block's nonzero structure
(per-fragment live-bits x live-positions grids, with a telescoped
no-clip shortcut per task); these tests pin it bit-exact against both the
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
from repro.reram import ADCSpec, DeviceSpec, ReRAMDevice, build_engine
from repro.reram.mapping import infer_signs, map_layer
from repro.reram.nonideal import CellIV, ReadNoise, WireModel
from repro.reram.nonideal_engine import NonidealEngine
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


@pytest.fixture
def force_sparse(monkeypatch):
    """Disable the hybrid small-task fallback so the CSR path always runs."""
    monkeypatch.setattr(engine_mod, "SPARSE_MIN_TASK_ELEMENTS", 0)


@pytest.mark.usefixtures("force_sparse")
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

    def test_hybrid_fallback_matches(self, monkeypatch):
        """The small-task dense fallback is a pure executor choice."""
        levels, geom = polarized_case((4, 2, 3, 3), 4, seed=9)
        x = sparse_block(geom, 4, positions=3)
        always = build_engine(levels, geom, QSPEC,
                              ideal_device(), adc=ADCSpec(bits=3),
                              activation_bits=12)
        expected = always.matvec_int(x)
        monkeypatch.setattr(engine_mod, "SPARSE_MIN_TASK_ELEMENTS", 1 << 30)
        hybrid = build_engine(levels, geom, QSPEC, ideal_device(),
                              adc=ADCSpec(bits=3), activation_bits=12)
        np.testing.assert_array_equal(hybrid.matvec_int(x), expected)

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


@pytest.mark.usefixtures("force_sparse")
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


@pytest.mark.usefixtures("force_sparse")
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

