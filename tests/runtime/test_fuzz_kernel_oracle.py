"""Seeded fuzz: the fused kernel equals the cycle oracle on every backend.

~50 randomized engine configurations — shape, fragment size, weight/cell/
activation bit-widths, sparsity, position-tile count — drawn from one
pinned RNG (:data:`FUZZ_SEED`), each asserting the fused ``matvec_int``
bit-identical to ``matvec_int_reference``, with the fused side executed
serially or fanned out over thread / process pools in round-robin.  About
half the draws (``meta["check_dense"]``) also assert the dense executor,
``matvec_int_dense``, against the same oracle.  A failing draw prints its full configuration, so it replays
from the seed alone.

A ``hypothesis`` case drives one fragment's rows at full scale under an
ADC that fragment overflows, on every mapping scheme, so the ideal rung's
clip-residue correction runs at every drawn shape; its own draws leave
the seeded fuzz's RNG stream untouched.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fragments import FragmentGeometry
from repro.core.quantization import QuantizationSpec
from repro.reram import ADCSpec, DeviceSpec, ReRAMDevice
from repro.reram.engine import InSituLayerEngine
from repro.reram.mapping import infer_signs, map_layer
from repro.runtime import WorkerPool, shared_memory_available
from repro.runtime.probes import run_engine_mvm

pytestmark = pytest.mark.skipif(
    not shared_memory_available()[0],
    reason=f"shared memory unavailable: {shared_memory_available()[1]}")

FUZZ_SEED = 0xF0125
N_CONFIGS = 51          # divisible by the 3-backend round-robin
BACKENDS = ("serial", "thread", "process")


@pytest.fixture(scope="module")
def pools():
    with WorkerPool(2, backend="thread") as threads, \
            WorkerPool(2, backend="process") as procs:
        yield {"thread": threads, "process": procs}


def test_fuzz_fused_kernel_matches_reference(random_engine_case, pools):
    rng = np.random.default_rng(FUZZ_SEED)
    for i in range(N_CONFIGS):
        engine, x_int, meta = random_engine_case(rng)
        n_tiles = int(rng.integers(1, 5))
        backend = BACKENDS[i % len(BACKENDS)]
        expected = engine.matvec_int_reference(x_int)
        if backend == "serial":
            out = engine.matvec_int(x_int)
        else:
            # fan position tiles out: per-position results are independent,
            # so any tiling must reassemble to the oracle bits
            tiles = [t for t in np.array_split(x_int, n_tiles, axis=1)
                     if t.shape[1]]
            outs = pools[backend].map(run_engine_mvm,
                                      [(engine, t) for t in tiles])
            out = np.concatenate(outs, axis=1)
        np.testing.assert_array_equal(
            out, expected,
            err_msg=f"draw {i} on backend={backend!r} tiles={n_tiles}: "
                    f"{meta}")
        if meta["check_dense"]:
            np.testing.assert_array_equal(
                engine.matvec_int_dense(x_int), expected,
                err_msg=f"draw {i} dense executor: {meta}")


@given(scheme=st.sampled_from(("forms", "isaac_offset", "dual")),
       fragment_size=st.sampled_from((2, 4, 8)),
       rows=st.integers(3, 24), cols=st.integers(1, 9),
       cell_bits=st.sampled_from((1, 2)),
       activation_bits=st.sampled_from((4, 8, 12)),
       positions=st.integers(1, 12), seed=st.integers(0, 2 ** 16))
@settings(max_examples=40, deadline=None)
def test_clip_residue_matches_reference(scheme, fragment_size, rows, cols,
                                        cell_bits, activation_bits,
                                        positions, seed):
    rng = np.random.default_rng(seed)
    geometry = FragmentGeometry((cols, rows), fragment_size, "w")
    levels = rng.integers(-127, 128, size=(rows, cols))
    # polarize each fragment (the FORMS single-signed-fragment property)
    padded = np.vstack([levels, np.zeros((geometry.padded_rows - rows, cols),
                                         dtype=levels.dtype)])
    stack = padded.reshape(-1, fragment_size, cols)
    stack = np.abs(stack) * np.where(stack.sum(axis=1, keepdims=True) >= 0,
                                     1, -1)
    levels = stack.reshape(geometry.padded_rows, cols)[:rows]
    mapped = map_layer(levels, geometry,
                       QuantizationSpec(weight_bits=8, cell_bits=cell_bits),
                       scheme=scheme, signs=infer_signs(levels, geometry))
    x = rng.integers(0, 2 ** activation_bits, size=(rows, positions))
    x[rng.random(x.shape) < 0.5] = 0
    hot = int(rng.integers(0, geometry.fragments_per_column))
    x[hot * fragment_size:(hot + 1) * fragment_size] = 2 ** activation_bits - 1
    # an ADC one bit short of the hot fragment's largest column sum
    hot_sum = max(int(codes[hot].sum(axis=0).max(initial=0))
                  for codes in mapped.code_planes.values())
    adc = ADCSpec(bits=max(1, hot_sum.bit_length() - 1))
    engine, oracle = (InSituLayerEngine(mapped, ReRAMDevice(DeviceSpec(), 0.0),
                                        adc=adc,
                                        activation_bits=activation_bits)
                      for _ in range(2))
    assert engine.dispatch_tier() == "integer"
    np.testing.assert_array_equal(engine.matvec_int(x),
                                  oracle.matvec_int_reference(x))
    assert engine.stats.conversions == oracle.stats.conversions
    assert engine.stats.saturated == oracle.stats.saturated
    if hot_sum > adc.max_code:     # the hot fragment's full-scale bits clip
        assert engine.stats.saturated > 0
