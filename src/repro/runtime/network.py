"""Parallel whole-network in-situ inference.

:func:`repro.reram.inference.build_insitu_network` produces a model whose
conv/linear layers run on crossbar engines; this module executes that model
over a batch of inputs with the batch split into *tiles* and the tiles
fanned out across a :class:`~repro.runtime.executor.WorkerPool`.  Tiles are
independent end to end (a feedforward network has no cross-image state), so
tile-level parallelism is also pipeline parallelism: while one worker's
tile occupies layer 3's engine, another tile drives layer 1 — different
layers of the network genuinely run concurrently.

Numerical contract (the determinism contract)
---------------------------------------------
Downstream layers — most prominently :mod:`repro.serving`, which promises
its clients that a batched request is bit-identical to a single-image call
— rely on three properties of this module, all asserted in
``tests/runtime/`` and ``tests/serving/``:

* The **tiling is the numerical configuration**: activation quantization
  picks its scale per engine call, so a different tiling can quantize a
  tile on a (slightly) different grid.  Fix the tile boundaries and
  results are reproducible.  (This is why the serving layer dispatches
  one tile per request: each image keeps the quantization grid of a
  standalone call, no matter which batch it rode in.)
* The **worker count is not**: for a fixed tiling, outputs and engine
  stats are bit-identical at any worker count — including 1 and the
  no-pool serial path, which run the identical code minus the threads.
  Two mechanisms make this structural rather than statistical:
  **ordered merge** — :meth:`WorkerPool.map` returns results in item
  order and kernels accumulate into per-call stats locals merged under
  the engine's stats lock, so neither outputs nor counters depend on
  completion order; and **keyed noise substreams** —
  :class:`repro.reram.nonideal.ReadNoise` draws each job's noise from a
  substream keyed on (input digest, plane, bit, fragment), not on draw
  order, so even *noisy* inference is worker-count invariant.
* **Per-thread stats attribution**: an engine commits each call's stats
  once, on the thread that issued the call, which is what lets
  :func:`infer_tiles` (via :class:`repro.reram.StatsScope`) hand back an
  exact per-tile — and hence per-request — slice of the merged stats.

Engines may be shared freely across tiles — kernel calls accumulate stats
in per-call locals and merge under the stats lock.  The same holds
*across models*: the multi-tenant serving layer
(:mod:`repro.serving.registry`) runs several independent networks' tiles
on one pool, and because no state is shared between engines of different
models (the shared :class:`~repro.reram.DieCache` hands out read-only
programmed planes), which tenants co-occupy the pool — and in what order
the SLA scheduler interleaves them — can never change any tile's bits.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..nn.tensor import Tensor
from ..obs.trace import SpanRecorder, bind as _bind_recorder
from ..reram import EngineStats, StatsScope
from .executor import _WORKER_THREAD_PREFIX, WorkerPool


def _engine_list(engines) -> List:
    if hasattr(engines, "values"):
        return list(engines.values())
    return list(engines)


def collect_engines(model) -> Dict[str, object]:
    """Every crossbar engine reachable from ``model``, keyed by module name.

    The same traversal (and the same keys) as
    :func:`repro.reram.inference.build_insitu_network`'s engines dict —
    the process backend uses it to merge worker-side per-engine stats
    back into the caller's engine objects.
    """
    engines: Dict[str, object] = {}
    if hasattr(model, "named_modules"):
        for name, module in model.named_modules():
            engine = getattr(module, "engine", None)
            if engine is not None:
                engines[name] = engine
    return engines


def attach_pool(engines, pool: Optional[WorkerPool]) -> None:
    """Point every engine's in-layer chunk fan-out at ``pool``.

    Layer-level parallelism: one big MVM's independent job chunks spread
    across the workers.  Composes safely with tile-level fan-out on the
    same pool (a map issued from a worker runs inline), but for many small
    tiles the tile-level fan-out alone is usually the better schedule.
    """
    for engine in _engine_list(engines):
        engine.pool = pool


def detach_pool(engines) -> None:
    """Restore serial in-layer execution on every engine."""
    attach_pool(engines, None)


def iter_tiles(batch: int, tile_size: int) -> List[slice]:
    """The uniform tiling: ``batch`` split into ``tile_size``-image slices."""
    if tile_size < 1:
        raise ValueError("tile_size must be >= 1")
    return [slice(start, min(start + tile_size, batch))
            for start in range(0, batch, tile_size)]


_tiles = iter_tiles


def _normalize_tile(tile):
    if isinstance(tile, (int, np.integer)):
        return slice(int(tile), int(tile) + 1)
    return tile


def _process_tile_task(task, *, shipment, collect_spans=False):
    """Run one tile in a process worker (module-level: must pickle).

    The model and its engines arrive via the shipment (deserialized once
    per worker); the images array rides the plane-aware pickle, so every
    task attaches the same shared-memory batch.  Returns the tile output
    plus two stats views: per-engine counter deltas (exact — a worker
    runs one task at a time on one thread) for the parent's merge, and
    the scope aggregate for ``collect_stats`` callers.  With
    ``collect_spans`` a fourth element rides along: the tile's finished
    span dict (duration plus worker pid — ``perf_counter`` offsets are
    not comparable across processes, so only durations cross the
    boundary), which the parent stitches into the caller's recorder.
    """
    from .process import load_shipment

    tile, images = task
    model = load_shipment(shipment)
    engines = collect_engines(model)
    before = {name: engine.stats.as_dict() for name, engine in engines.items()}
    recorder = SpanRecorder() if collect_spans else None
    start = time.perf_counter()
    with _bind_recorder(recorder), StatsScope() as scope:
        out = model(Tensor(images[_normalize_tile(tile)])).data
    deltas = {}
    for name, engine in engines.items():
        after = engine.stats.as_dict()
        deltas[name] = {key: after[key] - before[name][key] for key in after}
    if not collect_spans:
        return out, deltas, scope.stats.as_dict()
    recorder.close_span("tile", time.perf_counter() - start,
                        backend="process", pid=os.getpid())
    return out, deltas, scope.stats.as_dict(), recorder.spans


def _infer_tiles_process(model, images, tiles, pool, collect_stats,
                         span_recorders=None):
    """The process-backend tile fan-out: ship once, run tiles, merge stats.

    The deterministic contract is preserved structurally: ``pool.map`` is
    ordered and eager-error on every backend, each tile's bits depend only
    on the shipped planes and the shared images (both byte-exact copies of
    the caller's arrays), and the per-engine counter deltas merge into the
    caller's engines in tile order — integer merges commute, so the totals
    equal the serial run's no matter how tiles landed on workers.
    Worker-side tile spans (when ``span_recorders`` is given) come back
    with the results and are stitched into each tile's recorder here, on
    the caller's side.
    """
    engines = collect_engines(model)
    version = tuple(getattr(engine, "_swap_epoch", 0)
                    for engine in engines.values())
    # The model itself is the memo key: one shipment serves every batch
    # until a die swap bumps an engine's epoch.
    shipment = pool.ship(model, version=version)
    collect_spans = span_recorders is not None
    run = functools.partial(_process_tile_task, shipment=shipment,
                            collect_spans=collect_spans)
    raw = pool.map(run, [(tile, images) for tile in tiles])
    results = []
    for index, row in enumerate(raw):
        if collect_spans:
            out, deltas, scope_counters, spans = row
            recorder = span_recorders[index]
            if recorder is not None:
                for span in spans:
                    recorder.add_span(span)
        else:
            out, deltas, scope_counters = row
        for name, counters in deltas.items():
            engines[name].stats.merge(EngineStats(**counters))
        if collect_stats:
            results.append((out, EngineStats(**scope_counters)))
        else:
            results.append(out)
    return results


def infer_tiles(model, images: np.ndarray, tiles: Sequence,
                *, workers: Optional[int] = None,
                pool: Optional[WorkerPool] = None,
                collect_stats: bool = False,
                backend: Optional[str] = None,
                span_recorders: Optional[Sequence] = None):
    """Run ``model`` over explicit batch tiles fanned out on workers.

    The tile-shape-agnostic entry point: ``tiles`` is any sequence of
    indexers into the batch axis of ``images`` — slices (possibly ragged),
    index arrays, single integers — and each tile is one engine-call unit.
    Returns the list of per-tile output arrays *in tile order* (not
    concatenated: callers like :mod:`repro.serving` slice results back out
    per request).

    With ``collect_stats=True`` each tile's forward pass runs inside a
    :class:`repro.reram.StatsScope`, and the return value is a list of
    ``(output, EngineStats)`` pairs — the exact slice of every shared
    engine's merged stats attributable to that tile.  The slices are exact
    because engines commit each call's stats on the calling thread and one
    tile runs entirely on one worker thread (see the module docstring).

    ``pool`` (if given) is borrowed and left open; otherwise a pool of
    ``workers`` on ``backend`` is created for the call.  On a
    process-backend pool the model ships to the workers once (planes in
    shared memory) and worker-side per-engine stats merge back into the
    caller's engines — outputs and merged stats are bit-identical to the
    thread and serial schedules (``tests/runtime/
    test_backend_equivalence.py``).

    ``span_recorders`` (optional, aligned with ``tiles``; entries may be
    ``None``) collects one timed ``tile`` span per tile into each
    :class:`repro.obs.SpanRecorder` — on the serial/thread schedules the
    recorder is bound on the executing thread (so armed engine profilers
    contribute per-layer children), on the process schedule the worker's
    finished spans return with the results and are stitched here.
    Tracing is read-only: it never touches an operand, and the traced
    and untraced schedules produce byte-identical outputs
    (``tests/obs/test_obs_determinism.py``).
    """
    images = np.asarray(images)
    if images.ndim < 1 or images.shape[0] == 0:
        raise ValueError("images must carry at least one batch entry")
    tiles = list(tiles)
    if not tiles:
        raise ValueError("tiles must name at least one tile")
    if span_recorders is not None:
        span_recorders = list(span_recorders)
        if len(span_recorders) != len(tiles):
            raise ValueError(
                f"span_recorders must align with tiles: "
                f"{len(span_recorders)} recorder(s) for {len(tiles)} tile(s)")

    def run_tile(tile) -> np.ndarray:
        return model(Tensor(images[_normalize_tile(tile)])).data

    def run_tile_scoped(tile) -> Tuple[np.ndarray, EngineStats]:
        with StatsScope() as scope:
            out = run_tile(tile)
        return out, scope.stats

    run_one = run_tile_scoped if collect_stats else run_tile

    def dispatch(active_pool):
        backend_label = getattr(active_pool, "backend", "thread")
        if (backend_label == "process"
                and active_pool.workers > 1 and len(tiles) > 1
                and not threading.current_thread().name.startswith(
                    _WORKER_THREAD_PREFIX)):
            return _infer_tiles_process(model, images, tiles, active_pool,
                                        collect_stats,
                                        span_recorders=span_recorders)

        def run_tile_traced(item):
            tile, recorder = item
            if recorder is None:
                return run_one(tile)
            start = time.perf_counter()
            with _bind_recorder(recorder):
                result = run_one(tile)
            recorder.close_span("tile", time.perf_counter() - start,
                                backend=backend_label)
            return result

        if span_recorders is not None:
            return active_pool.map(run_tile_traced,
                                   list(zip(tiles, span_recorders)))
        return active_pool.map(run_one, tiles)

    if pool is not None:
        return dispatch(pool)
    with WorkerPool(workers, backend=backend) as owned:
        return dispatch(owned)


def infer_tiled(model, images: np.ndarray, *, workers: Optional[int] = None,
                tile_size: int = 1, pool: Optional[WorkerPool] = None,
                backend: Optional[str] = None) -> np.ndarray:
    """Run ``model`` over ``images`` with batch tiles fanned out on workers.

    ``images`` is the usual ``(batch, ...)`` input array; returns the
    concatenated ``(batch, ...)`` output array.  ``pool`` (if given) is
    borrowed and left open; otherwise a pool of ``workers`` on ``backend``
    is created for the call.  ``workers=1`` (or a 1-image batch) is the
    serial baseline — the identical code path minus the workers.
    """
    images = np.asarray(images)
    if images.ndim < 1 or images.shape[0] == 0:
        raise ValueError("images must carry at least one batch entry")
    outputs = infer_tiles(model, images,
                          iter_tiles(images.shape[0], tile_size),
                          workers=workers, pool=pool, backend=backend)
    return np.concatenate(outputs, axis=0)


def run_network_serial(model, images: np.ndarray, *,
                       tile_size: int = 1) -> np.ndarray:
    """The serial reference schedule: same tiling, no pool, one thread."""
    images = np.asarray(images)
    outputs = [model(Tensor(images[tile])).data
               for tile in _tiles(images.shape[0], tile_size)]
    return np.concatenate(outputs, axis=0)


def evaluate_tiled(model, dataset, *, workers: Optional[int] = None,
                   tile_size: int = 8,
                   backend: Optional[str] = None) -> float:
    """Classification accuracy of ``model`` on ``dataset`` via tiled fan-out.

    ``dataset`` follows the ``repro.nn.data`` convention (``images`` /
    ``labels`` arrays).  The serving-shaped entry point: one call, whole
    test set, all workers busy.
    """
    logits = infer_tiled(model, dataset.images, workers=workers,
                         tile_size=tile_size, backend=backend)
    predictions = np.argmax(logits, axis=1)
    return float((predictions == dataset.labels).mean())
