"""FORMS (ISCA 2021) reproduction.

Fine-grained polarized ReRAM-based in-situ computation for mixed-signal DNN
acceleration: the ADMM co-design framework (:mod:`repro.core`), the numpy DNN
training substrate (:mod:`repro.nn`), the ReRAM device/crossbar simulator
(:mod:`repro.reram`), the accelerator architecture model (:mod:`repro.arch`),
the parallel execution runtime (:mod:`repro.runtime`), the batching
request-queue serving layer (:mod:`repro.serving`), the engine
micro-benchmark suite (:mod:`repro.perf`), and the checked experiment
registry (:mod:`repro.analysis`, run by ``python -m repro <name>``).

Runtime architecture
--------------------
The simulation stack splits scheduling from execution:

* **Scheduler** — :meth:`repro.reram.engine.InSituLayerEngine.matvec_int`
  runs the first rung of one ordered table, :data:`repro.reram.engine.
  TIERS` (``dense_noise``, ``analog``, ``integer``), whose predicate
  holds.  The ``analog`` and ``integer`` rungs schedule the *nonzero
  structure* of each activation block (per-fragment ``live bits x live
  positions`` grids; the per-fragment OR of the activation bits is the
  complete structure).  All-zero bit-planes, silent fragments and silent
  positions are never materialized; on the ``analog`` rung each distinct
  (fragment, drive pattern) read runs the signal path once per MVM, and
  on the ``integer`` rung the block
  telescopes into one value-level GEMM and only the (fragment, position)
  pairs whose clip bound exceeds the ADC are expanded.  The dense
  bit-plane kernel
  (:meth:`matvec_int_dense`) and the cycle-by-cycle loop
  (:meth:`matvec_int_reference`) are retained as the scheduling baseline
  and the bit-exactness oracle.
* **Executor** — :class:`repro.runtime.WorkerPool` fans out independent
  work at three grains: job chunks within one MVM (``engine.pool`` /
  ``matvec_int(..., pool=...)``), batch tiles across a whole-network
  forward (:func:`repro.runtime.infer_tiled` — tiles pipeline through
  different layers concurrently), and sweep points across DSE/ablation
  grids (:func:`repro.runtime.parallel_map`, with a shared
  :class:`repro.reram.DieCache` deduplicating die programming).
* **Determinism** — results and engine stats are bit-identical at any
  worker count: kernels accumulate into per-worker stats locals merged
  under a lock, and read noise draws from substreams keyed by
  (input digest, plane, bit-plane, fragment) rather than draw order.

* **Serving** — :class:`repro.serving.InferenceServer` coalesces
  single-image requests into batches under a latency budget and dispatches
  one tile per request on the shared pool, so a served result is
  bit-identical to a standalone single-image call at any batch
  composition, with per-request latency and engine-stats receipts.

``benchmarks/run_perf_suite.py`` records each fused engine path against
its retained reference to ``BENCH_engine.json``; end-to-end performance
(offline throughput, served latency and goodput, the per-layer budget)
is measured by ``benchmarks/e2e/run.py`` against ``BENCHMARK.json``.
``scripts/checks.sh`` gates changes on the fast tier-1 tests, the perf
floor on both backends, a docs-coverage check, the six end-to-end
workloads at a quarter length and the twelve fast experiment checks.
"""

__version__ = "1.3.0"

__all__ = ["nn", "core", "reram", "arch", "analysis", "runtime",
           "serving", "perf", "__version__"]
