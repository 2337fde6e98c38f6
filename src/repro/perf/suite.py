"""The engine perf-tracking suite behind ``benchmarks/run_perf_suite.py``.

Micro-benchmarks pair the production path against a retained baseline so
speedups are *recorded*, not asserted from memory:

* ``mvm_<scheme>_16bit_128pos`` — the headline: a 128-row / 16-column /
  128-position layer MVM with 16-bit activations, fused engine
  (:meth:`~repro.reram.engine.InSituLayerEngine.matvec_int`) versus the
  retained cycle-by-cycle oracle (:meth:`matvec_int_reference`), checked
  bit-equal before timing;
* ``..._clipadc`` / ``..._variation`` / ``..._irdrop`` — the same MVM down
  the other engine paths (the ``integer`` rung's clip residue under a
  clipping ADC, full analog path with device variation, batched
  first-order IR drop);
* ``mvm_forms_16bit_128pos_sparse`` / ``..._sparse_irdrop`` — the live-grid
  scheduler on a post-ReLU-structured activation block (>= 50% zero
  bit-planes) versus the retained dense bit-plane kernel
  (:meth:`matvec_int_dense`), which always runs the float signal path;
* ``insitu_network_batch8_w{1,4}`` — whole-network inference (the demo
  CNN of :func:`repro.serving.demo.post_relu_network`) through the
  ``repro.runtime`` tiled executor at 1 and 4 workers versus the serial
  full-batch forward on ``matvec_int_dense`` engines (the float signal
  path);
* ``signed_matvec_mixed`` — the signed decomposition of
  :func:`repro.reram.inference._signed_matvec` (one fused positions-axis
  call) versus the seed's two sequential reference passes;
* ``die_cache_rebuild`` — engine re-construction across a sweep with and
  without the shared :class:`~repro.reram.engine.DieCache`;
* ``im2col_lenet_batch8`` — unpaired wall-clock trajectory of the
  ``sliding_window_view`` im2col lowering.

Every result lands in ``BENCH_engine.json`` (schema documented in
``benchmarks/README.md``) so subsequent PRs inherit a perf trajectory.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import sys
from typing import Dict, List, Optional

import numpy as np

from ..core import FragmentGeometry, QuantizationSpec
from ..core.polarization import compute_signs, project_polarization
from ..nn import functional as F
from ..reram import (ADCSpec, DeviceSpec, DieCache, InSituLayerEngine,
                     ReRAMDevice, build_engine)
from ..reram.engine import FUSED_KERNEL_MAX_ELEMENTS
from ..reram.inference import _signed_matvec
from ..reram.nonideal import CellIV, WireModel
from ..serving.demo import post_relu_network
from .instrument import EngineMeter, time_callable

BENCH_SCHEMA = "forms-perf-suite/v1"

#: the acceptance micro-benchmark and its floor
HEADLINE_BENCH = "mvm_forms_16bit_128pos"
HEADLINE_MIN_SPEEDUP = 5.0

_LAYER_SHAPE = (16, 8, 4, 4)   # conv weight -> 128-row x 16-col matrix
_FRAGMENT = 8
_POSITIONS = 128
_ACTIVATION_BITS = 16
_QSPEC = QuantizationSpec(8, 2)


def make_polarized_layer(shape=_LAYER_SHAPE, fragment_size=_FRAGMENT,
                         seed: int = 0, qmax: int = 127):
    """Random fragment-polarized integer levels + geometry (FORMS-mappable)."""
    rng = np.random.default_rng(seed)
    geometry = FragmentGeometry(shape, fragment_size)
    weights = rng.normal(size=shape)
    signs = compute_signs(weights, geometry)
    weights = project_polarization(weights, geometry, signs)
    levels = np.clip(np.rint(weights * qmax / (np.abs(weights).max() + 1e-9)),
                     -qmax, qmax).astype(np.int64)
    return geometry.matrix(levels), geometry


def _inputs(geometry: FragmentGeometry, positions: int = _POSITIONS,
            bits: int = _ACTIVATION_BITS, seed: int = 1) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << bits, size=(geometry.rows, positions))


def make_post_relu_inputs(geometry: FragmentGeometry,
                          positions: int = _POSITIONS,
                          bits: int = _ACTIVATION_BITS,
                          fragment_size: int = _FRAGMENT,
                          seed: int = 1) -> np.ndarray:
    """Activation block shaped like a post-ReLU layer of a FORMS network.

    Three kinds of structure a trained, pruned network actually produces:

    * **dead channels** — upstream filter pruning (the paper's own
      crossbar-aware structured pruning) zeroes whole input channels, so
      entire fragments of the im2col block are silent;
    * **heavy-tailed magnitudes** — most live channels are quiet (high
      bit-planes never fire), a few carry the distribution's tail;
    * **elementwise ReLU zeros and dead spatial patches** — all-zero
      im2col positions.

    The result has >= 50% all-zero (bit-plane, fragment) jobs and ~2/3
    zero (job, position) pairs — the workload the sparse scheduler exists
    for (`EngineStats.skip_fraction` / `pair_skip_fraction` of a run
    record the realized fractions).
    """
    rng = np.random.default_rng(seed)
    qmax = (1 << bits) - 1
    rows = geometry.rows
    n_frag = -(-rows // fragment_size)
    frag_kind = rng.choice(3, size=n_frag, p=[0.3, 0.58, 0.12])
    scale = np.where(frag_kind == 2, 6000.0, 30.0)
    scale[frag_kind == 0] = 0.0                    # pruned upstream channels
    row_scale = np.repeat(scale, fragment_size)[:rows]
    x = rng.exponential(scale=1.0, size=(rows, positions)) * row_scale[:, None]
    x *= rng.random(x.shape) > 0.55                # elementwise ReLU zeros
    x[:, rng.random(positions) < 0.3] = 0.0        # dead im2col patches
    return np.clip(np.rint(x), 0, qmax).astype(np.int64)


def _paired_record(name: str, fused_fn, reference_fn, repeats: int,
                   meta: Optional[Dict] = None,
                   engine=None) -> Dict:
    """Time a production/baseline pair and package one JSON record."""
    fused = time_callable(fused_fn, name=f"{name}.fused", repeats=repeats)
    reference = time_callable(reference_fn, name=f"{name}.reference",
                              repeats=repeats)
    record = {
        "name": name,
        "kind": "paired",
        "fused": fused.to_record(),
        "reference": reference.to_record(),
        "speedup": fused.speedup_vs(reference),
        "meta": meta or {},
    }
    if engine is not None:
        meter = EngineMeter([engine])
        fused_fn()
        record["engine_stats_per_call"] = meter.delta()
    return record


def bench_mvm(scheme: str = "forms", repeats: int = 3,
              adc: Optional[ADCSpec] = None, variation: float = 0.0,
              suffix: str = "") -> Dict:
    """Fused vs reference MVM on the headline layer, one engine tier."""
    levels, geometry = make_polarized_layer()
    x = _inputs(geometry)
    device = ReRAMDevice(DeviceSpec(), variation_sigma=variation, seed=7)
    engine = build_engine(levels, geometry, _QSPEC, device, scheme=scheme,
                          adc=adc, activation_bits=_ACTIVATION_BITS)
    if variation == 0.0:
        fused_out = engine.matvec_int(x)
        ref_out = engine.matvec_int_reference(x)
        if not np.array_equal(fused_out, ref_out):
            raise AssertionError(f"fused != reference on scheme {scheme!r}")
    name = f"mvm_{scheme}_16bit_{_POSITIONS}pos{suffix}"
    return _paired_record(
        name, lambda: engine.matvec_int(x),
        lambda: engine.matvec_int_reference(x), repeats,
        meta={"scheme": scheme, "rows": geometry.rows, "cols": geometry.cols,
              "positions": _POSITIONS, "activation_bits": _ACTIVATION_BITS,
              "fragment_size": _FRAGMENT, "variation_sigma": variation,
              "adc_bits": engine.adc.bits},
        engine=engine)


def bench_mvm_irdrop(repeats: int = 3) -> Dict:
    """The analog tier with batched first-order IR drop + nonlinear cells."""
    levels, geometry = make_polarized_layer()
    x = _inputs(geometry)
    from ..reram.mapping import infer_signs, map_layer
    mapped = map_layer(levels, geometry, _QSPEC, scheme="forms",
                       signs=infer_signs(levels, geometry))
    engine = InSituLayerEngine(mapped, ReRAMDevice(DeviceSpec(), 0.0),
                               activation_bits=_ACTIVATION_BITS,
                               wire=WireModel(r_wire_ohm=5.0),
                               cell_iv=CellIV(nonlinearity=2.0))
    fused_out = engine.matvec_int(x)
    ref_out = engine.matvec_int_reference(x)
    if not np.array_equal(fused_out, ref_out):
        raise AssertionError("IR-drop fused != reference")
    return _paired_record(
        f"mvm_forms_16bit_{_POSITIONS}pos_irdrop",
        lambda: engine.matvec_int(x),
        lambda: engine.matvec_int_reference(x), repeats,
        meta={"scheme": "forms", "wire_ohm": 5.0, "nonlinearity": 2.0},
        engine=engine)


def bench_mvm_sparse(repeats: int = 3) -> Dict:
    """CSR job scheduler vs the dense bit-plane kernel, post-ReLU block.

    The ``integer`` rung (the paper's clipping 4-bit ADC sizing): one
    telescoped matmul over the live positions plus the clip residue; the
    dense path (``matvec_int_dense``) runs the float signal path and masks
    whole (bit-plane, fragment) jobs only.
    Both are asserted bit-equal to the cycle-by-cycle reference before
    timing.
    """
    levels, geometry = make_polarized_layer()
    x = make_post_relu_inputs(geometry)
    device = ReRAMDevice(DeviceSpec(), 0.0)
    engine = build_engine(levels, geometry, _QSPEC, device, scheme="forms",
                          adc=ADCSpec(bits=4),
                          activation_bits=_ACTIVATION_BITS)
    sparse_out = engine.matvec_int(x)
    if not np.array_equal(sparse_out, engine.matvec_int_dense(x)):
        raise AssertionError("sparse != dense kernel")
    if not np.array_equal(sparse_out, engine.matvec_int_reference(x)):
        raise AssertionError("sparse != cycle-by-cycle reference")
    # one clean-call stats snapshot for the workload-shape metadata
    from ..reram import EngineStats
    engine.stats = EngineStats()
    engine.matvec_int(x)
    return _paired_record(
        f"mvm_forms_16bit_{_POSITIONS}pos_sparse",
        lambda: engine.matvec_int(x),
        lambda: engine.matvec_int_dense(x), repeats,
        meta={"scheme": "forms", "adc_bits": 4,
              "positions": _POSITIONS,
              "activation_bits": _ACTIVATION_BITS,
              "zero_plane_fraction": engine.stats.skip_fraction,
              "pair_skip_fraction": engine.stats.pair_skip_fraction,
              "zero_element_fraction": float((x == 0).mean())},
        engine=engine)


def bench_mvm_sparse_irdrop(repeats: int = 3) -> Dict:
    """The sparse scheduler on the analog IR-drop tier (same block)."""
    levels, geometry = make_polarized_layer()
    x = make_post_relu_inputs(geometry)
    from ..reram.mapping import infer_signs, map_layer
    mapped = map_layer(levels, geometry, _QSPEC, scheme="forms",
                       signs=infer_signs(levels, geometry))
    engine = InSituLayerEngine(mapped, ReRAMDevice(DeviceSpec(), 0.0),
                               activation_bits=_ACTIVATION_BITS,
                               wire=WireModel(r_wire_ohm=5.0),
                               cell_iv=CellIV(nonlinearity=2.0))
    sparse_out = engine.matvec_int(x)
    if not np.array_equal(sparse_out, engine.matvec_int_dense(x)):
        raise AssertionError("sparse != dense on the IR-drop tier")
    return _paired_record(
        f"mvm_forms_16bit_{_POSITIONS}pos_sparse_irdrop",
        lambda: engine.matvec_int(x),
        lambda: engine.matvec_int_dense(x), repeats,
        meta={"scheme": "forms", "wire_ohm": 5.0, "nonlinearity": 2.0},
        engine=engine)


def bench_insitu_network(workers: int, repeats: int = 3,
                         tile_size: int = 2,
                         backend: Optional[str] = None) -> Dict:
    """Whole-network inference: tiled runtime at N workers vs serial dense.

    The reference is the pre-runtime production path — one serial
    full-batch forward through dense-kernel engines.  The fused side runs
    the same network on sparse-scheduler engines with batch tiles fanned
    out over a ``repro.runtime`` worker pool on ``backend``.  Outputs are
    asserted bit-identical to a serial dense run of the identical tiling
    before timing (the tiling — not the worker count or backend — is the
    numerical configuration).
    """
    from ..reram import paper_adc_bits
    from ..reram.inference import build_insitu_network
    from ..runtime import WorkerPool, infer_tiled, run_network_serial
    from ..nn import Tensor

    model, config, images = post_relu_network()
    device = ReRAMDevice(DeviceSpec(), 0.0)
    adc = ADCSpec(bits=paper_adc_bits(_FRAGMENT))
    sparse_net, sparse_engines = build_insitu_network(
        model, config, device, adc=adc, activation_bits=_ACTIVATION_BITS)
    dense_net, dense_engines = build_insitu_network(
        model, config, device, adc=adc, activation_bits=_ACTIVATION_BITS)
    for engine in dense_engines.values():
        engine.matvec_int = engine.matvec_int_dense

    with WorkerPool(workers, backend=backend) as pool:
        fused_out = infer_tiled(sparse_net, images, pool=pool,
                                tile_size=tile_size)
        serial_same_tiling = run_network_serial(dense_net, images,
                                                tile_size=tile_size)
        if not np.array_equal(fused_out, serial_same_tiling):
            raise AssertionError(
                "tiled sparse runtime != serial dense (same tiling)")
        record = _paired_record(
            f"insitu_network_batch{images.shape[0]}_w{workers}",
            lambda: infer_tiled(sparse_net, images, pool=pool,
                                tile_size=tile_size),
            lambda: dense_net(Tensor(images)).data, repeats,
            meta={"workers": workers, "tile_size": tile_size,
                  "backend": pool.backend, "batch": int(images.shape[0]),
                  "layers": len(sparse_engines),
                  "adc_bits": adc.bits,
                  "activation_bits": _ACTIVATION_BITS})
    meter = EngineMeter(sparse_engines.values())
    infer_tiled(sparse_net, images, workers=1, tile_size=tile_size)
    record["engine_stats_per_call"] = meter.delta()
    return record


def bench_signed_matvec(repeats: int = 3) -> Dict:
    """Signed decomposition: one fused call vs two sequential passes."""
    levels, geometry = make_polarized_layer(seed=3)
    rng = np.random.default_rng(4)
    cols = rng.normal(size=(geometry.rows, _POSITIONS // 2))
    device = ReRAMDevice(DeviceSpec(), 0.0)
    engine = build_engine(levels, geometry, _QSPEC, device,
                          activation_bits=_ACTIVATION_BITS)

    def seed_style() -> np.ndarray:
        qmax = (1 << engine.activation_bits) - 1
        positive = np.maximum(cols, 0.0)
        negative = np.maximum(-cols, 0.0)
        top = float(max(positive.max(initial=0.0), negative.max(initial=0.0)))
        scale = top / qmax if top > 0.0 else 1.0
        pos_int = np.clip(np.rint(positive / scale), 0, qmax).astype(np.int64)
        out = engine.matvec_int_reference(pos_int).astype(np.float64)
        neg_int = np.clip(np.rint(negative / scale), 0, qmax).astype(np.int64)
        out -= engine.matvec_int_reference(neg_int).astype(np.float64)
        return out * scale

    fused_out = _signed_matvec(engine, cols, 1.0)
    if not np.allclose(fused_out, seed_style()):
        raise AssertionError("fused signed matvec != two-pass reference")
    return _paired_record(
        "signed_matvec_mixed", lambda: _signed_matvec(engine, cols, 1.0),
        seed_style, repeats,
        meta={"positions_per_sign": _POSITIONS // 2})


def bench_die_cache(repeats: int = 3, engines_per_sweep: int = 6) -> Dict:
    """Engine re-construction across a sweep, with and without DieCache."""
    levels, geometry = make_polarized_layer(seed=5)
    device = ReRAMDevice(DeviceSpec(), variation_sigma=0.1, seed=11)

    def rebuild_uncached():
        for _ in range(engines_per_sweep):
            build_engine(levels, geometry, _QSPEC, device,
                         activation_bits=_ACTIVATION_BITS)

    cache = DieCache()

    def rebuild_cached():
        for _ in range(engines_per_sweep):
            build_engine(levels, geometry, _QSPEC, device,
                         activation_bits=_ACTIVATION_BITS, die_cache=cache)

    record = _paired_record("die_cache_rebuild", rebuild_cached,
                            rebuild_uncached, repeats,
                            meta={"engines_per_sweep": engines_per_sweep,
                                  "variation_sigma": 0.1})
    record["meta"]["cache_hits"] = cache.hits
    record["meta"]["cache_misses"] = cache.misses
    return record


def bench_im2col(repeats: int = 3) -> Dict:
    """Unpaired trajectory record for the im2col lowering."""
    rng = np.random.default_rng(6)
    x = rng.normal(size=(8, 16, 32, 32))
    timing = time_callable(lambda: F.im2col(x, 5, 5, stride=1, padding=2),
                           name="im2col_lenet_batch8", repeats=repeats)
    return {"name": "im2col_lenet_batch8", "kind": "single",
            "fused": timing.to_record(), "reference": None, "speedup": None,
            "meta": {"input": list(x.shape), "kernel": 5, "padding": 2}}


def _suite_plan(smoke: bool, repeats: int, backend: Optional[str] = None):
    """The single source of truth: ordered (name, runner) pairs."""
    plan = [(f"mvm_{scheme}_16bit_{_POSITIONS}pos",
             lambda scheme=scheme: bench_mvm(scheme, repeats=repeats))
            for scheme in ("forms", "isaac_offset", "dual")]
    plan += [
        (f"mvm_forms_16bit_{_POSITIONS}pos_clipadc",
         lambda: bench_mvm("forms", repeats=repeats, adc=ADCSpec(bits=4),
                           suffix="_clipadc")),
        (f"mvm_forms_16bit_{_POSITIONS}pos_sparse",
         lambda: bench_mvm_sparse(repeats=repeats)),
        ("insitu_network_batch8_w1",
         lambda: bench_insitu_network(1, repeats=repeats, backend=backend)),
        ("insitu_network_batch8_w4",
         lambda: bench_insitu_network(4, repeats=repeats, backend=backend)),
        ("signed_matvec_mixed", lambda: bench_signed_matvec(repeats=repeats)),
        ("die_cache_rebuild", lambda: bench_die_cache(repeats=repeats)),
    ]
    if not smoke:
        plan += [
            (f"mvm_forms_16bit_{_POSITIONS}pos_variation",
             lambda: bench_mvm("forms", repeats=repeats, variation=0.1,
                               suffix="_variation")),
            (f"mvm_forms_16bit_{_POSITIONS}pos_irdrop",
             lambda: bench_mvm_irdrop(repeats=repeats)),
            (f"mvm_forms_16bit_{_POSITIONS}pos_sparse_irdrop",
             lambda: bench_mvm_sparse_irdrop(repeats=repeats)),
            ("im2col_lenet_batch8", lambda: bench_im2col(repeats=repeats)),
        ]
    return plan


def default_suite(smoke: bool = True) -> List[str]:
    """Names of the benchmarks a run will include."""
    return [name for name, _ in _suite_plan(smoke, repeats=1)]


def run_suite(smoke: bool = True, repeats: Optional[int] = None,
              backend: Optional[str] = None) -> Dict:
    """Run the suite and return the JSON payload (see benchmarks/README.md).

    ``backend`` selects the ``repro.runtime`` execution tier of the
    multi-worker benches (and is recorded in the host metadata, so a
    payload always says which tier produced its worker-scaling points).
    """
    from ..runtime import resolve_backend

    if repeats is None:
        repeats = 3 if smoke else 7
    backend = resolve_backend(backend)
    records: List[Dict] = []
    for name, runner in _suite_plan(smoke, repeats, backend=backend):
        record = runner()
        if record["name"] != name:
            raise AssertionError(
                f"suite plan out of sync: {record['name']!r} != {name!r}")
        records.append(record)

    headline = next(r for r in records if r["name"] == HEADLINE_BENCH)
    host = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "fused_kernel_max_elements": FUSED_KERNEL_MAX_ELEMENTS,
        "backend": backend,
    }
    if (os.cpu_count() or 1) <= 1:
        host["parallelism_note"] = (
            "single-core host: the multi-worker points (w4 vs w1) measure "
            "dispatch overhead, not scaling — w4 >= w1 is not expected here")
    return {
        "schema": BENCH_SCHEMA,
        "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "mode": "smoke" if smoke else "full",
        "host": host,
        "records": records,
        "criteria": {
            "headline_bench": HEADLINE_BENCH,
            "min_speedup": HEADLINE_MIN_SPEEDUP,
            "measured_speedup": headline["speedup"],
            "pass": headline["speedup"] >= HEADLINE_MIN_SPEEDUP,
        },
    }


def write_payload(path, payload: Dict) -> None:
    """Write a BENCH payload to ``path`` (engine records only)."""
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
