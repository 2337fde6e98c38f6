"""The cross-backend differential matrix: serial == thread == process.

The tentpole proof of the process tier: for every cell of
{serial, thread, process} x workers {1, 2} (workers 4 under ``slow``)
x {ideal, read-noise} x {sparse, dense} executor, tiled whole-network
inference produces

* bit-identical outputs, tile by tile,
* identical per-tile ``StatsScope`` aggregates (``collect_stats=True``),
* identical merged per-engine ``EngineStats`` totals,

against the serial workers=1 baseline.  Read noise is the hard cell: it
only passes because :class:`repro.reram.nonideal.ReadNoise` keys its
substreams on (input digest, plane, bit, fragment) — never on thread or
process identity — so the proof covers the determinism contract end to
end, not just the ideal-arithmetic path.

The executor axis: ``sparse`` runs ``matvec_int`` (the rung
``dispatch_tier()`` picks), ``dense`` pins every engine to
``matvec_int_dense``, the perf suite's baseline.  Read noise already
forces the dense grid, so on the noise cells both run one executor.
"""

import numpy as np
import pytest

from repro.serving.demo import post_relu_network as _post_relu_network
from repro.reram import (ADCSpec, DeviceSpec, DieCache, ReRAMDevice,
                         paper_adc_bits)
from repro.reram.inference import build_insitu_network
from repro.reram.nonideal import ReadNoise
from repro.reram.nonideal_engine import NonidealEngine
from repro.runtime import (WorkerPool, infer_tiles, iter_tiles,
                           shared_memory_available)

pytestmark = pytest.mark.skipif(
    not shared_memory_available()[0],
    reason=f"shared memory unavailable: {shared_memory_available()[1]}")

BACKENDS = ("serial", "thread", "process")
TILE_SIZE = 2


@pytest.fixture(scope="module")
def case():
    model, config, images = _post_relu_network()
    device = ReRAMDevice(DeviceSpec(), 0.0)
    adc = ADCSpec(bits=paper_adc_bits(config.fragment_size))
    # one die cache across every cell's build: programming is deterministic,
    # so sharing dies is invisible to the bits and saves most of the setup
    return model, config, images, device, adc, DieCache(maxsize=None)


def build(case, *, noise: bool, sparse: bool):
    model, config, images, device, adc, die_cache = case
    kwargs = {}
    if noise:
        spec = DeviceSpec()
        kwargs.update(
            engine_cls=NonidealEngine,
            read_noise=ReadNoise.for_fragment(
                config.fragment_size, spec.g_max, spec.read_voltage,
                relative_sigma=0.05, seed=3))
    net, engines = build_insitu_network(model, config, device, adc=adc,
                                        activation_bits=12,
                                        die_cache=die_cache, **kwargs)
    if not sparse:
        for engine in engines.values():
            engine.matvec_int = engine.matvec_int_dense
    return net, engines, images


def engine_totals(engines):
    return {name: (e.stats.conversions, e.stats.saturated, e.stats.cycles_fed,
                   e.stats.jobs_scheduled, e.stats.jobs_skipped,
                   e.stats.pairs_scheduled, e.stats.pairs_skipped)
            for name, e in engines.items()}


@pytest.fixture(scope="module")
def pools():
    """Module-scoped pools: pay each backend's spawn cost once."""
    opened = {}
    for backend in BACKENDS:
        for workers in (1, 2, 4):
            opened[backend, workers] = WorkerPool(workers, backend=backend)
    yield opened
    for pool in opened.values():
        pool.close()


@pytest.fixture(scope="module")
def baselines(case):
    """Serial workers=1 ground truth per (noise, sparse) variant."""
    truth = {}
    for noise in (False, True):
        for sparse in (True, False):
            net, engines, images = build(case, noise=noise, sparse=sparse)
            tiles = list(iter_tiles(images.shape[0], TILE_SIZE))
            results = infer_tiles(net, images, tiles, workers=1,
                                  collect_stats=True)
            truth[noise, sparse] = (
                [out for out, _ in results],
                [stats.as_dict() for _, stats in results],
                engine_totals(engines))
    return truth


def assert_cell(case, pools, baselines, backend, workers, noise, sparse):
    want_outs, want_scopes, want_totals = baselines[noise, sparse]
    net, engines, images = build(case, noise=noise, sparse=sparse)
    tiles = list(iter_tiles(images.shape[0], TILE_SIZE))
    results = infer_tiles(net, images, tiles, pool=pools[backend, workers],
                          collect_stats=True)
    label = f"{backend} w{workers} noise={noise} sparse={sparse}"
    assert len(results) == len(want_outs)
    for i, ((out, _), want) in enumerate(zip(results, want_outs)):
        np.testing.assert_array_equal(out, want,
                                      err_msg=f"{label}: tile {i} diverged")
    assert [stats.as_dict() for _, stats in results] == want_scopes, \
        f"{label}: per-tile stats scopes diverged"
    assert engine_totals(engines) == want_totals, \
        f"{label}: merged engine stats diverged"


@pytest.mark.parametrize("sparse", (True, False), ids=("sparse", "dense"))
@pytest.mark.parametrize("noise", (False, True), ids=("ideal", "noise"))
@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_matrix(case, pools, baselines, backend, workers, noise,
                        sparse):
    assert_cell(case, pools, baselines, backend, workers, noise, sparse)


@pytest.mark.slow
@pytest.mark.parametrize("sparse", (True, False), ids=("sparse", "dense"))
@pytest.mark.parametrize("noise", (False, True), ids=("ideal", "noise"))
@pytest.mark.parametrize("backend", ("thread", "process"))
def test_backend_matrix_w4(case, pools, baselines, backend, noise, sparse):
    assert_cell(case, pools, baselines, backend, 4, noise, sparse)


def test_explicit_backend_argument_owns_a_pool(case, baselines):
    """``infer_tiles(..., workers=2, backend="process")`` without a pool."""
    want_outs, _, _ = baselines[False, True]
    net, _, images = build(case, noise=False, sparse=True)
    tiles = list(iter_tiles(images.shape[0], TILE_SIZE))
    outs = infer_tiles(net, images, tiles, workers=2, backend="process")
    for out, want in zip(outs, want_outs):
        np.testing.assert_array_equal(out, want)
