"""Worker-pool executor for independent simulation jobs.

A thin, deterministic wrapper over two interchangeable execution tiers:

* ``backend="thread"`` — :class:`concurrent.futures.ThreadPoolExecutor`.
  Threads are the default pool for this stack: the hot kernels are NumPy
  contractions that release the GIL, engine state (conductance planes,
  code planes, constants) is read-only at run time and shared for free,
  and the engines' stats discipline (per-worker locals, locked merge at
  join) makes concurrent calls safe.
* ``backend="process"`` — a ``spawn``-context
  :class:`concurrent.futures.ProcessPoolExecutor` for the parts of the
  stack the GIL does serialize (scheduler bookkeeping, Python-level
  glue).  Tasks must be picklable (module-level functions or
  ``functools.partial`` — closures stay on the thread backend); large
  arrays are externalized into a :class:`~repro.runtime.shared.
  SharedPlanePool` so conductance planes and activation batches cross
  the process boundary as zero-copy shared-memory views, never as
  per-task pickles.  See :mod:`repro.runtime.process`.

Three properties the callers rely on, identical on both backends:

* **Ordered results** — :meth:`WorkerPool.map` returns results in item
  order regardless of completion order.
* **Eager errors** — the first worker exception propagates to the caller
  (remaining futures are cancelled where possible).
* **Re-entrancy** — a ``map`` issued *from inside* a worker runs inline
  instead of deadlocking on the pool's own capacity (thread workers) or
  double-spawning a process tree (process workers), so layer-level
  fan-out composes with tile-level fan-out without a worker budget
  negotiation.

The determinism contract
------------------------
The pool is deliberately *boring*: it never reorders, samples, batches or
retries.  Everything that makes parallel inference bit-identical to serial
inference lives in the layers around it, but the pool's ordered map is the
keystone — downstream consumers (:func:`repro.runtime.infer_tiled`, the
:mod:`repro.serving` batcher) index results positionally, and the engines'
stats discipline (per-call locals, locked **ordered merge** into integer
counters on the calling thread) plus :class:`repro.reram.nonideal.
ReadNoise`'s **per-job keyed substreams** do the rest.  Integer-counter
merges commute, so stats are worker-count invariant even though the merge
*order* is not; outputs are invariant because no floating-point
accumulation ever crosses tiles.  A ``WorkerPool(1)`` (or a single-item
map, or a re-entrant map) short-circuits to inline execution — the serial
and pooled paths are the identical code, which is what makes the contract
structural rather than a test hope.  The backend choice sits *under* that
contract: ``tests/runtime/test_backend_equivalence.py`` asserts serial,
thread and process runs are indistinguishable to the bits (outputs and
merged stats) at every tested worker count, read noise on or off.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")
R = TypeVar("R")

#: environment override of the default worker count
WORKERS_ENV = "FORMS_WORKERS"

#: environment override of the default backend
BACKEND_ENV = "FORMS_BACKEND"

#: the execution tiers ``WorkerPool`` can run on.  ``serial`` is the
#: explicit no-pool spelling (always inline); ``thread`` and ``process``
#: are the two real pools.
BACKENDS = ("serial", "thread", "process")

_WORKER_THREAD_PREFIX = "forms-worker"


def resolve_workers(workers: Optional[int] = None) -> int:
    """Worker count in effect: explicit > ``FORMS_WORKERS`` > CPU count."""
    if workers is not None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        return workers
    env = os.environ.get(WORKERS_ENV, "").strip()
    if env:
        value = int(env)
        if value < 1:
            raise ValueError(f"{WORKERS_ENV} must be >= 1, got {value}")
        return value
    return os.cpu_count() or 1


def resolve_backend(backend: Optional[str] = None) -> str:
    """Backend in effect: explicit > ``FORMS_BACKEND`` > ``"thread"``."""
    if backend is None:
        env = os.environ.get(BACKEND_ENV, "").strip().lower()
        backend = env or "thread"
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}")
    return backend


class WorkerPool:
    """A fixed-size worker pool with ordered, eager-error mapping.

    ``workers=1`` (or mapping a single item) short-circuits to inline
    execution — the serial path and the pooled path run the identical
    code, which is what makes "bit-identical at any worker count" a
    structural property rather than a test hope.

    ``backend`` selects the execution tier (see :data:`BACKENDS`).  The
    process backend degrades gracefully rather than failing the run:
    when shared memory is unavailable it falls back to threads (with a
    warning), and when constructed *inside* a process worker it runs
    inline — ``requested_backend`` keeps the ask, ``backend`` reports
    what is actually in effect, and ``fallback_reason`` says why they
    differ.
    """

    def __init__(self, workers: Optional[int] = None,
                 backend: Optional[str] = None):
        self.workers = resolve_workers(workers)
        self.requested_backend = resolve_backend(backend)
        self.fallback_reason: Optional[str] = None
        effective = self.requested_backend
        if effective == "process" and self.workers > 1:
            from .process import process_backend_available

            ok, reason = process_backend_available()
            if not ok:
                if reason == "already inside a process-backend worker":
                    # Re-entrancy: never spawn a process tree from a worker.
                    effective = "serial"
                    self.fallback_reason = reason + "; running inline"
                else:
                    effective = "thread"
                    self.fallback_reason = (
                        f"process backend unavailable ({reason}); "
                        "falling back to threads")
                    warnings.warn("WorkerPool: " + self.fallback_reason,
                                  RuntimeWarning, stacklevel=2)
        self.backend = effective
        self._executor: Optional[ThreadPoolExecutor] = None
        self._process_executor = None
        self.plane_pool = None
        self._shipments = {}
        self._ship_seq = 0
        if self.workers > 1:
            if effective == "thread":
                self._executor = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix=_WORKER_THREAD_PREFIX)
            elif effective == "process":
                from .shared import SharedPlanePool

                self.plane_pool = SharedPlanePool()

    # ------------------------------------------------------------------
    @property
    def supports_closures(self) -> bool:
        """Whether ``map`` accepts closures/lambdas (thread + inline tiers).

        The process backend pickles tasks, so callers that fan out local
        closures (the engines' in-layer chunk fan-out, ad-hoc sweep
        lambdas) must check this and stay inline or on threads.
        """
        return not (self.backend == "process" and self.workers > 1)

    def _run_inline(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        return [fn(item) for item in items]

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Apply ``fn`` to every item, returning results in item order."""
        items = list(items)
        if (self.workers <= 1 or len(items) <= 1 or self.backend == "serial"
                or threading.current_thread().name.startswith(
                    _WORKER_THREAD_PREFIX)):
            return self._run_inline(fn, items)
        if self.backend == "process":
            return self._map_process(fn, items)
        if self._executor is None:  # closed pool: keep the inline contract
            return self._run_inline(fn, items)
        futures = [self._executor.submit(fn, item) for item in items]
        return self._gather(futures)

    @staticmethod
    def _gather(futures) -> List:
        """Ordered collection with eager first-error propagation."""
        results: List = []
        error: Optional[BaseException] = None
        for future in futures:
            if error is not None:
                future.cancel()
                continue
            try:
                results.append(future.result())
            except BaseException as exc:  # noqa: BLE001 — re-raised below
                error = exc
        if error is not None:
            raise error
        return results

    # ------------------------------------------------------------------
    # Process tier
    # ------------------------------------------------------------------
    def start(self) -> "WorkerPool":
        """Spawn the process workers now instead of inside the first ``map``.

        A spawned worker is a fresh interpreter that imports the
        simulator before it takes a task — about a second, which
        otherwise lands on whoever maps first (for a server: its first
        requests).  Returns once every worker has been launched and the
        pool has answered one task per worker.  The other backends'
        workers cost nothing to start, so this is a no-op there.
        """
        if self.backend == "process" and self.workers > 1:
            # any picklable no-op does: the work is the spawn
            self.map(abs, range(self.workers))
        return self

    def _ensure_process_executor(self):
        if self._process_executor is None:
            from .process import make_process_executor

            self._process_executor = make_process_executor(self.workers)
        return self._process_executor

    def _map_process(self, fn, items) -> List:
        from .process import dumps_planes, invoke_payload

        executor = self._ensure_process_executor()
        try:
            payloads = [dumps_planes((fn, item), self.plane_pool)
                        for item in items]
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            raise TypeError(
                "backend='process' tasks must be picklable: use module-level "
                "functions or functools.partial (closures and lambdas run "
                "on backend='thread' only)") from exc
        futures = [executor.submit(invoke_payload, payload)
                   for payload in payloads]
        return self._gather(futures)

    def ship(self, obj, version=0) -> "Shipment":
        """Pickle ``obj`` once into shared memory for every future task.

        Returns a :class:`repro.runtime.process.Shipment` whose token
        workers use to deserialize the object once per process (see
        :func:`repro.runtime.process.load_shipment`).  Re-shipping the
        same object with the same ``version`` is free; a changed version
        (e.g. after an online die swap bumped an engine's epoch) ships a
        fresh copy under a new token.
        """
        if self.backend != "process" or self.plane_pool is None:
            raise RuntimeError("ship() requires an open process-backend pool "
                               "with workers > 1")
        from .process import Shipment, dumps_planes

        key = id(obj)
        cached = self._shipments.get(key)
        if cached is not None and cached[0] == version:
            return cached[1]
        data = dumps_planes(obj, self.plane_pool)
        handle = self.plane_pool.register_bytes(data)
        self._ship_seq += 1
        shipment = Shipment(token=f"{os.getpid()}:{id(self):x}:{self._ship_seq}",
                            payload=handle)
        # Keep a reference to obj so its id() cannot be recycled while the
        # memo entry is alive.
        self._shipments[key] = (version, shipment, obj)
        return shipment

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Graceful shutdown: drain workers, then unlink shared memory."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._process_executor is not None:
            self._process_executor.shutdown(wait=True)
            self._process_executor = None
        if self.plane_pool is not None:
            self.plane_pool.close()
            self.plane_pool = None
        self._shipments.clear()

    def terminate(self) -> None:
        """Hard shutdown: kill worker processes, drop queued work, unlink.

        The Ctrl-C path: callers that caught :class:`KeyboardInterrupt`
        (or need a wedged worker gone) call this instead of :meth:`close`.
        Shared-memory cleanup still runs — interruption must not leak
        ``/dev/shm`` segments.
        """
        if self._process_executor is not None:
            processes = list(
                getattr(self._process_executor, "_processes", {}).values())
            self._process_executor.shutdown(wait=False, cancel_futures=True)
            for proc in processes:
                if proc.is_alive():
                    proc.terminate()
            # The executor's management thread reaps the same children, so
            # a join here can lose the waitpid race and return before the
            # exit code is stored: poll until every worker reads as dead.
            deadline = time.monotonic() + 5.0
            for proc in processes:
                while proc.is_alive() and time.monotonic() < deadline:
                    time.sleep(0.001)
            self._process_executor = None
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        if self.plane_pool is not None:
            self.plane_pool.close()
            self.plane_pool = None
        self._shipments.clear()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def parallel_map(fn: Callable[[T], R], items: Iterable[T],
                 workers: Optional[int] = None,
                 pool: Optional[WorkerPool] = None,
                 backend: Optional[str] = None) -> List[R]:
    """One-shot ordered parallel map (borrows ``pool`` or builds its own).

    The convenience entry point for sweep drivers: DSE grids, ablation
    sweeps and benchmark fan-outs call this with their per-point evaluator;
    a shared :class:`~repro.reram.engine.DieCache` inside the evaluator
    then deduplicates die programming across the concurrent points.
    ``backend`` selects the execution tier when the call owns its pool
    (process-backend evaluators must be picklable — module-level functions
    or ``functools.partial``, not closures).
    """
    items = list(items)
    if pool is not None:
        return pool.map(fn, items)
    with WorkerPool(workers, backend=backend) as owned:
        return owned.map(fn, items)
