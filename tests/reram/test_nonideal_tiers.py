"""The non-ideal engine tiers against oracles that share no code with them.

* the GEMM-form :func:`first_order_currents` against a pure-Python loop that
  walks every wire segment (``hypothesis`` over shapes, wires and cells);
* IR-drop and variation forwards of the benchmark's ``bulk`` network against
  SHA-1 digests and ``EngineStats`` recorded on the commit *before* the
  kernels were rewritten ("simulated statistics identical");
* row-keyed read noise: invariant under path, worker count and chunk
  packing, statistically the specified Gaussian, and at most
  ``planes x bits`` generator constructions per MVM.
"""

import hashlib
import importlib.util
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.reram.engine as engine_mod
from repro.core.quantization import QuantizationSpec
from repro.perf.suite import make_polarized_layer, make_post_relu_inputs
from repro.reram import DeviceSpec, DieCache, ReRAMDevice
from repro.reram.inference import build_insitu_network
from repro.reram.mapping import infer_signs, map_layer
from repro.reram.nonideal import (CellIV, ReadNoise, WireModel,
                                  first_order_currents)
from repro.reram import NonidealEngine
from repro.runtime import WorkerPool, run_network_serial

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


# ---------------------------------------------------------------------------
# IR-drop kernel vs a segment-by-segment loop
# ---------------------------------------------------------------------------

def segment_loop_currents(g, v, wire, cell_iv):
    """Column currents of one ``rows x cols`` crossbar, one drive vector.

    Plain Python floats and loops: charge every wire segment with the
    ideal current it carries, walk from the driver (word line) and to the
    sense amplifier (bit line) adding one segment's drop at a time.
    """
    rows, cols = len(g), len(g[0])
    ideal = [[v[i] * g[i][j] for j in range(cols)] for i in range(rows)]
    effective = [[v[i]] * cols for i in range(rows)]
    for i in range(rows):
        # segment 0 is the driver; segment j (j >= 1) joins columns j-1 and j
        drop = 0.0
        for j in range(cols):
            carried = sum(ideal[i][j:])
            drop += (wire.r_driver_ohm if j == 0 else wire.r_wire_ohm) * carried
            effective[i][j] -= drop
    for j in range(cols):
        # the last segment is the sense amplifier; the one above it joins
        # rows i and i+1 and carries every cell at or above row i
        lift = 0.0
        for i in reversed(range(rows)):
            carried = sum(ideal[k][j] for k in range(i + 1))
            lift += (wire.r_sense_ohm if i == rows - 1
                     else wire.r_wire_ohm) * carried
            effective[i][j] -= lift
    k = cell_iv.nonlinearity if cell_iv is not None else 0.0

    def cell(conductance, dv):
        if k == 0.0:
            return conductance * dv
        return (conductance * cell_iv.v_read
                * math.sinh(k * dv / cell_iv.v_read) / math.sinh(k))

    return [sum(cell(g[i][j], effective[i][j]) for i in range(rows))
            for j in range(cols)]


def loop_oracle(conductance, v_in, wire, cell_iv):
    """:func:`segment_loop_currents` over leading axes and drive batches."""
    squeeze = v_in.ndim == conductance.ndim - 1
    v = v_in[..., None] if squeeze else v_in
    lead = conductance.shape[:-2]
    out = np.empty(lead + (conductance.shape[-1], v.shape[-1]))
    for index in np.ndindex(*lead):
        for b in range(v.shape[-1]):
            out[index + (slice(None), b)] = segment_loop_currents(
                conductance[index].tolist(), v[index + (slice(None), b)].tolist(),
                wire, cell_iv)
    return out[..., 0] if squeeze else out


@st.composite
def crossbar_cases(draw):
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    batch = draw(st.one_of(st.none(), st.integers(1, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    conductance = rng.uniform(1e-7, 1e-5, size=lead + (rows, cols))
    v_shape = lead + (rows,) + (() if batch is None else (batch,))
    # bit-serial drives (0 / v_read) or arbitrary analog levels
    v_in = (0.3 * rng.integers(0, 2, size=v_shape) if draw(st.booleans())
            else rng.uniform(-0.1, 0.4, size=v_shape))
    positive = st.floats(0.01, 20.0)
    wire = WireModel(r_wire_ohm=draw(st.one_of(st.just(0.0), positive)),
                     r_driver_ohm=draw(positive), r_sense_ohm=draw(positive))
    cell_iv = draw(st.sampled_from(
        [None, CellIV(0.0), CellIV(2.0), CellIV(3.0, v_read=0.25)]))
    return conductance, v_in, wire, cell_iv


class TestFirstOrderAgainstSegmentLoop:
    @given(crossbar_cases())
    @settings(max_examples=60, deadline=None)
    def test_matches_loop_to_1e12(self, case):
        conductance, v_in, wire, cell_iv = case
        got = first_order_currents(conductance, v_in, wire, cell_iv=cell_iv)
        want = loop_oracle(conductance, v_in, wire, cell_iv)
        assert got.shape == want.shape
        scale = np.abs(want).max() or 1.0
        assert np.abs(got - want).max() <= 1e-12 * scale

    def test_engine_sized_job_batch(self):
        """The shape the engines feed: many fragments, cols x slices wide."""
        rng = np.random.default_rng(5)
        conductance = rng.uniform(1e-7, 1e-5, size=(5, 8, 32))
        v_in = 0.3 * rng.integers(0, 2, size=(5, 8, 9))
        wire, cell_iv = WireModel(5.0), CellIV(2.0)
        got = first_order_currents(conductance, v_in, wire, cell_iv=cell_iv)
        want = loop_oracle(conductance, v_in, wire, cell_iv)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


# ---------------------------------------------------------------------------
# Simulated statistics identical to the pre-rewrite commit
# ---------------------------------------------------------------------------

#: per (engine configuration, input kind) and layer of ``bulk``: SHA-1 over
#: every ``matvec_int`` output of the forward below, and the engine's
#: ``EngineStats.as_dict()`` values after it (in ``COUNTERS`` order) —
#: recorded at commit ba3f13f (cumsum/flip IR-drop chain, ``optimize=True``
#: contractions, per-job noise generators).
COUNTERS = ("conversions", "saturated", "cycles_fed", "jobs_scheduled",
            "jobs_skipped", "pairs_scheduled", "pairs_skipped", "macs")
PINNED = {
    ("irdrop", "sparse"): {
        "0": ("e08a3fe4d7a0a20742158d26426c0db465f677ac",
              (589824, 0, 36, 72, 0, 9096, 9336, 4718592)),
        "2": ("3c6ea08f94eb041f83f59a22622ace1e5123de61",
              (2654208, 0, 36, 308, 16, 45759, 37185, 21233664)),
        "5": ("bf4975f4bcb739313029d9c0acb2034b7193463e",
              (368640, 0, 36, 4289, 4927, 4289, 4927, 2949120)),
    },
    ("irdrop", "dense"): {
        "0": ("194d5309200cfbbc6af5bdd3e779500959ba9f0f",
              (589824, 0, 36, 72, 0, 18432, 0, 4718592)),
        "2": ("188d7c186eaad33a84b5dc96fe7731bc1e744773",
              (2654208, 0, 36, 249, 75, 40605, 42339, 21233664)),
        "5": ("73149c23c4ce240a5b01114e7c58166af0f2b72b",
              (368640, 7, 36, 3936, 5280, 3936, 5280, 2949120)),
    },
    ("variation", "sparse"): {
        "0": ("7b7f05f92708150e8fe26e01f9e1403edf35cf61",
              (589824, 0, 36, 72, 0, 9096, 9336, 4718592)),
        "2": ("7aa63fc437fd910376945aee583ffe17e26e7554",
              (2654208, 0, 36, 312, 12, 46206, 36738, 21233664)),
        "5": ("9ecb092054da65390535481737e7a0f3cd2ae964",
              (368640, 3, 36, 4310, 4906, 4310, 4906, 2949120)),
    },
    ("variation", "dense"): {
        "0": ("d2fb65feca94ada8c5673397034e32ecb6b3fed5",
              (589824, 0, 36, 72, 0, 18432, 0, 4718592)),
        "2": ("45efeace497ed756b76a1f79b2589440509e507d",
              (2654208, 0, 36, 261, 63, 40222, 42722, 21233664)),
        "5": ("0eb3a85a1cb524431f5f73766db2b40cf850c12f",
              (368640, 11, 36, 4105, 5111, 4105, 5111, 2949120)),
    },
}


@pytest.fixture(scope="module")
def e2e_models():
    """``benchmarks/e2e/models.py``: the frozen ``bulk`` network and the
    lowering keywords of the ``offline_nonideal`` workload."""
    spec = importlib.util.spec_from_file_location(
        "e2e_models", REPO_ROOT / "benchmarks" / "e2e" / "models.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pinned_images(kind, image_shape):
    """Three post-ReLU-shaped (about 80 % zeros) or three dense images."""
    noise = np.random.default_rng(2024).normal(size=(3,) + image_shape)
    return np.maximum(0.0, noise - 0.8) if kind == "sparse" else np.abs(noise)


class TestStatisticsIdenticalToParent:
    @pytest.mark.parametrize("config,kind", sorted(PINNED))
    def test_bulk_layers_match_pinned_digests(self, e2e_models, config, kind):
        models, forms_config = e2e_models.build_models(0)
        if config == "irdrop":
            device = e2e_models.ideal_device()
            physics = dict(engine_cls=NonidealEngine, wire=WireModel(5.0),
                           cell_iv=CellIV(2.0))
        else:
            device, physics = ReRAMDevice(DeviceSpec(), 0.1, seed=3), {}
        network, engines = build_insitu_network(
            models["bulk"], forms_config, device, die_cache=DieCache(),
            **e2e_models.lowering_kwargs(), **physics)
        digests = {}
        for name, engine in engines.items():
            digest = digests[name] = hashlib.sha1()

            def recording(x, pool=None, inner=engine.matvec_int,
                          digest=digest):
                out = inner(x, pool)
                digest.update(np.ascontiguousarray(out).tobytes())
                return out
            engine.matvec_int = recording
        run_network_serial(network,
                           pinned_images(kind, e2e_models.IMAGE_SHAPE),
                           tile_size=1)
        pinned = PINNED[config, kind]
        assert sorted(engines) == sorted(pinned)
        for name, (outputs, counters) in pinned.items():
            assert digests[name].hexdigest() == outputs, name
            want = dict(zip(COUNTERS, counters))
            got = engines[name].stats.as_dict()
            if kind == "dense":
                # The parent ran near-dense analog blocks on the dense
                # kernel, which books every position of a live job as
                # scheduled; the CSR scheduler that runs them now books the
                # live ones.  The split is finer, the total is the same.
                for stats in (want, got):
                    stats["pairs"] = (stats.pop("pairs_scheduled")
                                      + stats.pop("pairs_skipped"))
            assert got == want, name


# ---------------------------------------------------------------------------
# Row-keyed read noise
# ---------------------------------------------------------------------------

QSPEC = QuantizationSpec(8, 2)
NOISE_BITS = 10


def noisy_engine(scheme="forms"):
    levels, geom = make_polarized_layer((4, 2, 3, 3), 4, seed=31)
    signs = infer_signs(levels, geom) if scheme == "forms" else None
    mapped = map_layer(levels, geom, QSPEC, scheme=scheme, signs=signs)
    spec = DeviceSpec()
    noise = ReadNoise.for_fragment(4, spec.g_max, spec.read_voltage,
                                   relative_sigma=0.2, seed=32)
    engine = NonidealEngine(mapped, ReRAMDevice(spec, 0.0),
                            activation_bits=NOISE_BITS, read_noise=noise)
    x = make_post_relu_inputs(geom, positions=6, bits=NOISE_BITS,
                              fragment_size=4, seed=33)
    return engine, x


class TestRowKeyedReadNoise:
    def test_invariant_under_path_workers_and_chunk_packing(self,
                                                            monkeypatch):
        engine, x = noisy_engine()
        fused = engine.matvec_int(x)
        np.testing.assert_array_equal(
            fused, noisy_engine()[0].matvec_int_reference(x))
        for workers in (1, 4):
            with WorkerPool(workers) as pool:
                np.testing.assert_array_equal(
                    fused, noisy_engine()[0].matvec_int(x, pool=pool))
        monkeypatch.setattr(engine_mod, "FUSED_KERNEL_MAX_ELEMENTS", 1)
        one_job_per_chunk = noisy_engine()[0]
        np.testing.assert_array_equal(fused, one_job_per_chunk.matvec_int(x))
        assert one_job_per_chunk.stats.as_dict() == engine.stats.as_dict()

    def test_job_noise_is_its_block_of_the_row_stream(self):
        noise = ReadNoise(relative_sigma=0.1, full_scale_a=2.0, seed=3)
        row = [(7, 0, 4, f) for f in range(6)]
        whole = noise.apply_jobs(np.zeros((6, 5, 3)), row)
        np.testing.assert_array_equal(
            noise.apply_jobs(np.zeros((3, 5, 3)), row[2:5]), whole[2:5])
        np.testing.assert_array_equal(
            noise.apply_jobs(np.zeros((2, 5, 3)), [row[4], row[1]]),
            whole[[4, 1]])

    def test_sample_moments_and_fragment_independence(self):
        noise = ReadNoise(relative_sigma=0.05, full_scale_a=3.0, seed=11)
        sigma = 0.05 * 3.0
        keys = [(99, plane, bit, f) for plane in range(2)
                for bit in range(4) for f in range(8)]
        draw = noise.apply_jobs(np.zeros((len(keys), 50, 40)), keys)
        n = draw.size
        assert abs(draw.mean()) < 5 * sigma / math.sqrt(n)
        assert abs(draw.std() / sigma - 1.0) < 5 / math.sqrt(2 * n)
        # two fragments of one row (adjacent blocks of one stream)
        a, b = draw[0].ravel(), draw[1].ravel()
        assert abs(np.corrcoef(a, b)[0, 1]) < 5 / math.sqrt(a.size)
        # ... and the same fragment of two rows
        c = draw[8].ravel()
        assert abs(np.corrcoef(a, c)[0, 1]) < 5 / math.sqrt(a.size)

    @pytest.mark.parametrize("scheme,planes", [("forms", 1), ("dual", 2)])
    def test_at_most_planes_times_bits_generators_per_mvm(self, monkeypatch,
                                                          scheme, planes):
        engine, x = noisy_engine(scheme)
        assert engine.mapped.geometry.fragments_per_column > 1
        calls = []
        inner = ReadNoise.substream

        def counting(self, key):
            calls.append(tuple(int(part) for part in key))
            return inner(self, key)
        monkeypatch.setattr(ReadNoise, "substream", counting)
        engine.matvec_int(x)
        bits = int(x.max()).bit_length()
        assert len(calls) == len(set(calls)) == planes * bits
        calls.clear()
        engine.matvec_int_reference(x)
        assert len(calls) == len(set(calls)) == planes * bits
