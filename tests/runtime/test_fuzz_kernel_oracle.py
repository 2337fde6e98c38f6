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
clip-residue correction runs at every drawn shape; a second one salts
several fragments at the same positions, plus one whose headroom fits the
ADC and is never bounded.  Their own draws leave the seeded fuzz's RNG
stream untouched.
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


@given(scheme=st.sampled_from(("forms", "isaac_offset", "dual")),
       fragment_size=st.sampled_from((2, 4, 8)),
       n_hot=st.integers(2, 4), cols=st.integers(1, 9),
       activation_bits=st.sampled_from((4, 8, 12)),
       positions=st.integers(1, 12), seed=st.integers(0, 2 ** 16))
@settings(max_examples=40, deadline=None)
def test_clip_residue_several_hot_fragments(scheme, fragment_size, n_hot,
                                            cols, activation_bits,
                                            positions, seed):
    """Two or more fragments clip at the same positions, so their
    residues land on one output column; a cool fragment whose largest
    column sum fits the ADC is salted too, skipped by the bound, and
    must still be exact."""
    rng = np.random.default_rng(seed)
    # fragments: n_hot salted hot ones, one hot one fed random inputs,
    # and the cool one last
    n_frag = n_hot + 2
    rows = n_frag * fragment_size
    geometry = FragmentGeometry((cols, rows), fragment_size, "w")
    # |level| in [96, 127]: slice codes of 2 or 3 above the low slices, so
    # each hot column sum lies in [2, 3] x fragment_size, with fragment
    # signs alternating (all positive under the offset bias, where a
    # negative level stores a small code)
    levels = rng.integers(96, 128, size=(n_frag, fragment_size, cols))
    if scheme != "isaac_offset":
        levels *= np.where(np.arange(n_frag) % 2, -1, 1)[:, None, None]
    # the cool fragment stores code 1 at most: its column sum is at most
    # fragment_size, inside the ADC chosen below
    levels[-1] = -127 if scheme == "isaac_offset" else rng.integers(
        0, 2, size=(fragment_size, cols))
    levels = levels.reshape(rows, cols)
    mapped = map_layer(levels, geometry,
                       QuantizationSpec(weight_bits=8, cell_bits=2),
                       scheme=scheme, signs=infer_signs(levels, geometry))
    col_sums = [max(int(codes[f].sum(axis=0).max(initial=0))
                    for codes in mapped.code_planes.values())
                for f in range(n_frag)]
    # one bit short of the smallest salted fragment's largest column sum
    adc = ADCSpec(bits=min(col_sums[:n_hot]).bit_length() - 1)
    assert col_sums[-1] <= adc.max_code < min(col_sums[:n_hot])
    x = rng.integers(0, 2 ** activation_bits, size=(rows, positions))
    x[rng.random(x.shape) < 0.5] = 0
    salted = rng.random(positions) < 0.6
    salted[0] = True
    full = 2 ** activation_bits - 1
    x[:n_hot * fragment_size, salted] = full
    x[-fragment_size:, salted] = full
    engine, oracle = (InSituLayerEngine(mapped, ReRAMDevice(DeviceSpec(), 0.0),
                                        adc=adc,
                                        activation_bits=activation_bits)
                      for _ in range(2))
    assert engine.dispatch_tier() == "integer"
    clip_f = np.flatnonzero(
        engine._ideal_constants().frag_headroom > adc.max_code)
    assert set(range(n_hot)) <= set(clip_f) and n_frag - 1 not in clip_f
    np.testing.assert_array_equal(engine.matvec_int(x),
                                  oracle.matvec_int_reference(x))
    assert engine.stats.conversions == oracle.stats.conversions
    assert engine.stats.saturated == oracle.stats.saturated
    assert engine.stats.saturated > 0
