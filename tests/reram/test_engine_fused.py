"""Fused bit-plane kernel equivalence — the retained oracle earns its keep.

``matvec_int`` runs one rung of the dispatch ladder ``TIERS`` (read-noise
dense grid, analog kernel, exact matmul, integer kernel); every rung must
stay bit-exact against the original cycle-by-cycle loop retained as
``matvec_int_reference``.  These tests pin
that equivalence across mapping schemes, geometries (odd/padded row counts),
input shapes, ADC sizings, the analog IR-drop path, and the signed
decomposition used by whole-network inference — plus the DieCache and the
negative-rail saturation accounting that rode along in the same change.
"""

import numpy as np
import pytest

import repro.reram.engine as engine_mod
from repro.core import FragmentGeometry, QuantizationSpec
from repro.core.polarization import compute_signs, project_polarization
from repro.reram import (TIERS, ADCSpec, DeviceSpec, DieCache,
                         InSituLayerEngine, ReRAMDevice, build_engine)
from repro.reram.inference import _signed_matvec
from repro.reram.mapping import infer_signs, map_layer
from repro.reram.nonideal import CellIV, ReadNoise, WireModel
from repro.reram.nonideal_engine import NonidealEngine

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


def noise_engine(mapped):
    spec = DeviceSpec()
    noise = ReadNoise.for_fragment(4, spec.g_max, spec.read_voltage,
                                   relative_sigma=0.2, seed=3)
    return NonidealEngine(mapped, ideal_device(), activation_bits=10,
                          read_noise=noise)


#: one engine per rung of the dispatch ladder, built from a mapped layer
RUNG_CASES = {
    "dense_noise": noise_engine,
    "analog": lambda mapped: InSituLayerEngine(
        mapped, ReRAMDevice(DeviceSpec(), 0.1, seed=5), activation_bits=10),
    "exact": lambda mapped: InSituLayerEngine(
        mapped, ideal_device(), activation_bits=10),
    "integer": lambda mapped: InSituLayerEngine(
        mapped, ideal_device(), adc=ADCSpec(bits=3), activation_bits=10),
}


class TestDispatchLadder:
    @pytest.mark.parametrize("tier", [name for name, _, _ in TIERS])
    def test_every_rung_matches_reference(self, tier, monkeypatch):
        """Each rung: output and stats of the oracle, on both executors.

        A rung added to ``TIERS`` without a ``RUNG_CASES`` entry fails
        here.  The block keeps every (bit, fragment, position) live, so
        the skip counters of all paths agree with the oracle's.
        """
        monkeypatch.setattr(engine_mod, "SPARSE_MIN_TASK_ELEMENTS", 0)
        levels, geom = polarized_case((4, 2, 3, 3), 4, seed=30)
        mapped = map_layer(levels, geom, QSPEC, scheme="forms",
                           signs=infer_signs(levels, geom))
        rng = np.random.default_rng(31)
        x = rng.integers(0, 2 ** 10, size=(geom.rows, 7))
        x[rng.random(x.shape) < 0.5] = 0
        x[::geom.fragment_size] = 2 ** 10 - 1   # one full row per fragment
        fused, ref, dense = (RUNG_CASES[tier](mapped) for _ in range(3))
        assert fused.dispatch_tier() == tier
        out = fused.matvec_int(x)
        np.testing.assert_array_equal(out, ref.matvec_int_reference(x))
        assert fused.stats.as_dict() == ref.stats.as_dict()
        np.testing.assert_array_equal(dense.matvec_int_dense(x), out)


class TestFusedEqualsReference:
    """Bit-exactness of the fused kernel vs the retained per-bit loop."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("shape,m", [
        ((4, 2, 3, 3), 4),    # rows=18: not a multiple of m -> padded rows
        ((6, 3, 3, 3), 8),    # rows=27, odd row count, padded
        ((8, 16), 4),         # linear layer, exact multiple
    ])
    def test_exact_adc(self, scheme, shape, m):
        levels, geom = polarized_case(shape, m)
        rng = np.random.default_rng(1)
        x = rng.integers(0, 2 ** 12, size=(geom.rows, 9))
        engine = build_engine(levels, geom, QSPEC, ideal_device(),
                              scheme=scheme, activation_bits=12)
        np.testing.assert_array_equal(engine.matvec_int(x),
                                      engine.matvec_int_reference(x))
        np.testing.assert_array_equal(engine.matvec_int(x), levels.T @ x)

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("adc_bits", [2, 3])   # worst fragment sum is 12
    def test_clipping_adc(self, scheme, adc_bits):
        """Integer-kernel tier: undersized ADCs clip identically."""
        levels, geom = polarized_case((4, 2, 3, 3), 4, seed=2)
        rng = np.random.default_rng(3)
        x = rng.integers(0, 2 ** 10, size=(geom.rows, 7))
        engine = build_engine(levels, geom, QSPEC, ideal_device(),
                              scheme=scheme, adc=ADCSpec(bits=adc_bits),
                              activation_bits=10)
        fused = engine.matvec_int(x)
        fused_sat = engine.stats.saturated
        np.testing.assert_array_equal(fused, engine.matvec_int_reference(x))
        # both paths count the same clipped conversions
        assert engine.stats.saturated == 2 * fused_sat
        assert fused_sat > 0

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_1d_input(self, scheme):
        levels, geom = polarized_case((4, 2, 3, 3), 4, seed=4)
        rng = np.random.default_rng(5)
        x = rng.integers(0, 2 ** 8, size=geom.rows)
        engine = build_engine(levels, geom, QSPEC, ideal_device(),
                              scheme=scheme, activation_bits=8)
        np.testing.assert_array_equal(engine.matvec_int(x),
                                      engine.matvec_int_reference(x))

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_analog_tier_with_variation(self, scheme):
        """Variation forces the float path; fused == reference on one die."""
        levels, geom = polarized_case((4, 2, 3, 3), 4, seed=6)
        rng = np.random.default_rng(7)
        x = rng.integers(0, 2 ** 8, size=(geom.rows, 5))
        device = ReRAMDevice(DeviceSpec(), variation_sigma=0.1, seed=8)
        engine = build_engine(levels, geom, QSPEC, device, scheme=scheme,
                              activation_bits=8)
        assert not engine._signal_path_ideal()
        np.testing.assert_array_equal(engine.matvec_int(x),
                                      engine.matvec_int_reference(x))

    def test_irdrop_tier(self):
        """Deterministic IR drop + nonlinear cells: batched == per-fragment."""
        levels, geom = polarized_case((4, 2, 3, 3), 4, seed=9)
        rng = np.random.default_rng(10)
        x = rng.integers(0, 2 ** 8, size=(geom.rows, 6))
        mapped = map_layer(levels, geom, QSPEC, scheme="forms",
                           signs=infer_signs(levels, geom))
        engine = NonidealEngine(mapped, ideal_device(), activation_bits=8,
                                wire=WireModel(r_wire_ohm=10.0),
                                cell_iv=CellIV(nonlinearity=2.5))
        np.testing.assert_array_equal(engine.matvec_int(x),
                                      engine.matvec_int_reference(x))

    def test_sparse_inputs_mask_fragments(self):
        """Fragment-level zero-skipping drops jobs but never changes results."""
        levels, geom = polarized_case((4, 2, 3, 3), 4, seed=11)
        x = np.zeros((geom.rows, 4), dtype=np.int64)
        x[0, :] = 0b101   # only fragment 0 live, only bits 0 and 2
        engine = build_engine(levels, geom, QSPEC, ideal_device(),
                              activation_bits=8)
        np.testing.assert_array_equal(engine.matvec_int(x), levels.T @ x)
        assert engine.stats.cycles_fed == 3
        assert engine.stats.jobs_skipped > 0

    def test_chunked_kernel_identical(self, monkeypatch):
        """Job chunking is a pure memory knob: any chunk size, same bits."""
        import repro.reram.engine as engine_mod
        levels, geom = polarized_case((4, 2, 3, 3), 4, seed=12)
        rng = np.random.default_rng(13)
        x = rng.integers(0, 2 ** 10, size=(geom.rows, 8))
        device = ReRAMDevice(DeviceSpec(), variation_sigma=0.0)
        engine = build_engine(levels, geom, QSPEC, device,
                              adc=ADCSpec(bits=3), activation_bits=10)
        expected = engine.matvec_int(x)
        monkeypatch.setattr(engine_mod, "FUSED_KERNEL_MAX_ELEMENTS", 1)
        np.testing.assert_array_equal(engine.matvec_int(x), expected)


class TestSignedMatvec:
    def test_signed_activations_match_two_pass(self):
        """The fused positions-axis concatenation equals two separate passes."""
        levels, geom = polarized_case((4, 2, 3, 3), 4, seed=14)
        rng = np.random.default_rng(15)
        cols = rng.normal(size=(geom.rows, 6))
        engine = build_engine(levels, geom, QSPEC, ideal_device(),
                              activation_bits=12)
        fused = _signed_matvec(engine, cols, weight_scale=0.5)

        qmax = (1 << engine.activation_bits) - 1
        positive = np.maximum(cols, 0.0)
        negative = np.maximum(-cols, 0.0)
        top = float(max(positive.max(initial=0.0), negative.max(initial=0.0)))
        scale = top / qmax
        pos_int = np.clip(np.rint(positive / scale), 0, qmax).astype(np.int64)
        neg_int = np.clip(np.rint(negative / scale), 0, qmax).astype(np.int64)
        two_pass = (engine.matvec_int_reference(pos_int)
                    - engine.matvec_int_reference(neg_int)
                    ).astype(np.float64) * 0.5 * scale
        np.testing.assert_allclose(fused, two_pass)

    def test_unsigned_activations_single_pass(self):
        """All-positive columns never pay for a negative pass."""
        levels, geom = polarized_case((4, 2, 3, 3), 4, seed=16)
        rng = np.random.default_rng(17)
        cols = np.abs(rng.normal(size=(geom.rows, 5)))
        engine = build_engine(levels, geom, QSPEC, ideal_device(),
                              activation_bits=8)
        _signed_matvec(engine, cols, weight_scale=1.0)
        assert engine.stats.cycles_fed <= engine.activation_bits


class TestSaturationRails:
    def test_negative_rail_counted(self):
        """Read noise drives conversions below zero: underflow is saturation."""
        levels, geom = polarized_case((4, 2, 3, 3), 4, seed=18)
        mapped = map_layer(levels, geom, QSPEC, scheme="forms",
                           signs=infer_signs(levels, geom))
        spec = DeviceSpec()
        noise = ReadNoise.for_fragment(4, spec.g_max, spec.read_voltage,
                                       relative_sigma=0.5, seed=19)
        engine = NonidealEngine(mapped, ReRAMDevice(spec, 0.0),
                                activation_bits=8, read_noise=noise)
        x = np.ones((geom.rows, 8), dtype=np.int64)  # tiny sums near code 0
        engine.matvec_int(x)
        assert engine.stats.saturated > 0

    def test_noise_pedestal_on_silent_fragments(self):
        """Zero-skip masking must not drop noisy conversions: with read
        noise, silent fragments still contribute a rectified pedestal, so
        the fused path feeds the full job grid and matches the reference
        distribution (not just the live-fragment subset)."""
        levels, geom = polarized_case((4, 2, 3, 3), 4, seed=27)
        mapped = map_layer(levels, geom, QSPEC, scheme="forms",
                           signs=infer_signs(levels, geom))
        spec = DeviceSpec()

        def noisy_engine(seed):
            noise = ReadNoise.for_fragment(4, spec.g_max, spec.read_voltage,
                                           relative_sigma=0.3, seed=seed)
            return NonidealEngine(mapped, ReRAMDevice(spec, 0.0),
                                  activation_bits=8, read_noise=noise)

        x = np.zeros((geom.rows, 200), dtype=np.int64)
        x[0, :] = 255   # one live fragment, many silent ones
        fused_engine = noisy_engine(1)
        ref_engine = noisy_engine(1)
        fused = fused_engine.matvec_int(x).astype(np.float64)
        ref = ref_engine.matvec_int_reference(x).astype(np.float64)
        assert fused_engine.stats.jobs_skipped == 0
        assert fused_engine.stats.conversions == ref_engine.stats.conversions
        # Same analog model: means agree (different RNG draw order, so not
        # bitwise — but the silent-fragment pedestal must be present).
        assert abs(fused.mean() - ref.mean()) / abs(ref.mean()) < 0.1

    def test_adc_saturation_fraction_counts_both_rails(self):
        adc = ADCSpec(bits=3)  # codes 0..7
        frac = adc.saturation_fraction(np.array([-2.0, 1.0, 9.0, 3.0]))
        assert frac == 0.5

    def test_digitize_matches_convert(self):
        adc = ADCSpec(bits=3)
        analog = np.array([-2.4, -0.2, 0.4, 6.6, 7.4, 11.0])
        digital, saturated = adc.digitize(analog)
        np.testing.assert_array_equal(digital, adc.convert(analog))
        assert saturated == 2  # -2.4 underflows and 11 overflows; 7.4 rounds to 7


class TestDieCache:
    def test_identical_codes_share_a_die(self):
        levels, geom = polarized_case((4, 2, 3, 3), 4, seed=20)
        device = ReRAMDevice(DeviceSpec(), variation_sigma=0.2, seed=21)
        cache = DieCache()
        first = build_engine(levels, geom, QSPEC, device, die_cache=cache)
        second = build_engine(levels, geom, QSPEC, device, die_cache=cache)
        assert cache.hits == 1 and cache.misses == 1
        assert first.conductance["main"] is second.conductance["main"]
        rng = np.random.default_rng(22)
        x = rng.integers(0, 2 ** 8, size=(geom.rows, 3))
        np.testing.assert_array_equal(first.matvec_int(x),
                                      second.matvec_int(x))

    def test_uncached_noisy_dies_differ(self):
        """Control: without the cache every engine programs a fresh die."""
        levels, geom = polarized_case((4, 2, 3, 3), 4, seed=20)
        device = ReRAMDevice(DeviceSpec(), variation_sigma=0.2, seed=21)
        first = build_engine(levels, geom, QSPEC, device)
        second = build_engine(levels, geom, QSPEC, device)
        assert not np.array_equal(first.conductance["main"],
                                  second.conductance["main"])

    def test_different_devices_never_share(self):
        levels, geom = polarized_case((4, 2, 3, 3), 4, seed=20)
        cache = DieCache()
        a = ReRAMDevice(DeviceSpec(), variation_sigma=0.2, seed=1)
        b = ReRAMDevice(DeviceSpec(), variation_sigma=0.2, seed=2)
        build_engine(levels, geom, QSPEC, a, die_cache=cache)
        build_engine(levels, geom, QSPEC, b, die_cache=cache)
        assert cache.misses == 2 and cache.hits == 0

    def test_unseeded_noisy_device_keys_by_identity(self):
        levels, geom = polarized_case((4, 2, 3, 3), 4, seed=20)
        cache = DieCache()
        a = ReRAMDevice(DeviceSpec(), variation_sigma=0.2)
        b = ReRAMDevice(DeviceSpec(), variation_sigma=0.2)
        build_engine(levels, geom, QSPEC, a, die_cache=cache)
        build_engine(levels, geom, QSPEC, a, die_cache=cache)
        build_engine(levels, geom, QSPEC, b, die_cache=cache)
        assert cache.hits == 1 and cache.misses == 2

    def test_lru_eviction(self):
        levels, geom = polarized_case((4, 2, 3, 3), 4, seed=20)
        other, _ = polarized_case((4, 2, 3, 3), 4, seed=23)
        device = ideal_device()
        cache = DieCache(maxsize=1)
        build_engine(levels, geom, QSPEC, device, die_cache=cache)
        build_engine(other, geom, QSPEC, device, die_cache=cache)
        assert len(cache) == 1
        build_engine(levels, geom, QSPEC, device, die_cache=cache)
        assert cache.misses == 3  # evicted, so re-programmed

    def test_eviction_reproduces_noisy_die(self):
        """A seeded noisy die is a pure function of (seed, codes): evicting
        and re-programming must yield the identical conductances."""
        levels, geom = polarized_case((4, 2, 3, 3), 4, seed=20)
        other, _ = polarized_case((4, 2, 3, 3), 4, seed=23)
        device = ReRAMDevice(DeviceSpec(), variation_sigma=0.2, seed=31)
        cache = DieCache(maxsize=1)
        first = build_engine(levels, geom, QSPEC, device, die_cache=cache)
        build_engine(other, geom, QSPEC, device, die_cache=cache)  # evicts
        again = build_engine(levels, geom, QSPEC, device, die_cache=cache)
        assert cache.misses == 3
        np.testing.assert_array_equal(first.conductance["main"],
                                      again.conductance["main"])


class TestStatsAccounting:
    def test_fused_stats_match_reference(self):
        """cycles/conversions accounting is identical across paths."""
        levels, geom = polarized_case((4, 2, 3, 3), 4, seed=24)
        rng = np.random.default_rng(25)
        x = rng.integers(0, 2 ** 8, size=(geom.rows, 5))
        fused = build_engine(levels, geom, QSPEC, ideal_device(),
                             activation_bits=8)
        ref = build_engine(levels, geom, QSPEC, ideal_device(),
                           activation_bits=8)
        fused.matvec_int(x)
        ref.matvec_int_reference(x)
        assert fused.stats.cycles_fed == ref.stats.cycles_fed
        assert fused.stats.conversions == ref.stats.conversions
        assert fused.stats.saturated == ref.stats.saturated == 0

    def test_skip_fraction_zero_for_dense(self):
        levels, geom = polarized_case((4, 2, 3, 3), 4, seed=26)
        engine = build_engine(levels, geom, QSPEC, ideal_device(),
                              activation_bits=4)
        x = np.full((geom.rows, 2), 15, dtype=np.int64)  # every bit live
        engine.matvec_int(x)
        assert engine.stats.skip_fraction == 0.0
        assert engine.stats.jobs_scheduled > 0
