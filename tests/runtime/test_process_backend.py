"""Process-backend mechanics: spawn, ship, fall back, clean up.

The mechanical half of the differential proof (the numerics half lives in
``test_backend_equivalence.py``): worker placement, eager error and
KeyboardInterrupt propagation, closure rejection, graceful fallback when
shared memory is unavailable, nested re-entrancy, per-process die caches
that re-program bit-identical dies, engine pickling that never carries a
lock, and — the leak contract — every ``forms_shm_*`` segment unlinked on
close *and* on terminate.
"""

import glob
import pickle
from functools import partial

import numpy as np
import pytest

from repro.reram import DeviceSpec, DieCache, ReRAMDevice
from repro.runtime import (WorkerPool, parallel_map, process_backend_available,
                           resolve_backend, shared_memory_available)
from repro.runtime import probes
from repro.runtime.process import load_shipment
from repro.runtime.shared import SEGMENT_PREFIX, attach_bytes

pytestmark = pytest.mark.skipif(
    not shared_memory_available()[0],
    reason=f"shared memory unavailable: {shared_memory_available()[1]}")


def shm_segments():
    return glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*")


@pytest.fixture(scope="module")
def process_pool():
    """One spawn cost for the whole module; leak check at teardown."""
    with WorkerPool(2, backend="process") as pool:
        assert pool.backend == "process"
        yield pool
    assert shm_segments() == []


class TestBackendResolution:
    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("FORMS_BACKEND", "process")
        assert resolve_backend("thread") == "thread"
        assert resolve_backend(None) == "process"

    def test_default_is_thread(self, monkeypatch):
        monkeypatch.delenv("FORMS_BACKEND", raising=False)
        assert resolve_backend() == "thread"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            WorkerPool(2, backend="fork")

    def test_serial_backend_never_builds_executors(self):
        with WorkerPool(4, backend="serial") as pool:
            assert pool.map(probes.square, [1, 2, 3]) == [1, 4, 9]
            assert pool._executor is None
            assert pool._process_executor is None
            assert pool.plane_pool is None

    def test_fallback_to_thread_when_shm_unavailable(self, monkeypatch):
        import repro.runtime.process as process_mod
        monkeypatch.setattr(process_mod, "process_backend_available",
                            lambda: (False, "probe says no"))
        with pytest.warns(RuntimeWarning, match="falling back to threads"):
            pool = WorkerPool(2, backend="process")
        try:
            assert pool.requested_backend == "process"
            assert pool.backend == "thread"
            assert "probe says no" in pool.fallback_reason
            # closures are fine on the fallback tier
            assert pool.map(lambda v: v + 1, [1, 2]) == [2, 3]
        finally:
            pool.close()

    def test_single_worker_process_pool_runs_inline(self):
        with WorkerPool(1, backend="process") as pool:
            pids = [pid for pid, _ in pool.map(probes.pid_square, [1, 2])]
        import os
        assert set(pids) == {os.getpid()}


    def test_start_spawns_the_workers_before_the_first_map(self):
        with WorkerPool(2, backend="process") as pool:
            assert pool._process_executor is None     # lazy by default
            assert pool.start() is pool
            assert len(pool._process_executor._processes) == 2
        with WorkerPool(2, backend="thread") as pool:
            assert pool.start() is pool               # nothing to spawn
            assert pool._process_executor is None


class TestProcessMapContract:
    def test_ordered_results_across_workers(self, process_pool):
        items = list(range(16))
        assert process_pool.map(probes.square, items) == [i * i for i in items]

    def test_work_spreads_over_worker_processes(self, process_pool):
        import os
        run = partial(probes.pid_sleep_echo, delay=0.4)
        tagged = process_pool.map(run, [0, 1, 2, 3])
        assert [v for _, v in tagged] == [0, 1, 2, 3]
        pids = {pid for pid, _ in tagged}
        assert os.getpid() not in pids
        assert len(pids) == 2, "4 x 0.4s tasks must occupy both workers"

    def test_eager_error_propagation(self, process_pool):
        with pytest.raises(ValueError, match="probe failure on 2"):
            process_pool.map(partial(probes.fail_on, trigger=2), range(8))
        # the pool survives a failed map
        assert process_pool.map(probes.square, [3]) == [9]

    def test_keyboard_interrupt_propagates(self, process_pool):
        with pytest.raises(KeyboardInterrupt):
            process_pool.map(partial(probes.interrupt_on, trigger=1),
                             range(4))
        assert process_pool.map(probes.square, [5, 6]) == [25, 36]

    def test_closures_rejected_with_guidance(self, process_pool):
        local = 3
        with pytest.raises(TypeError, match="functools.partial"):
            process_pool.map(lambda v: v + local, [1, 2])

    def test_supports_closures_property(self, process_pool):
        assert not process_pool.supports_closures
        with WorkerPool(2, backend="thread") as threads:
            assert threads.supports_closures
        with WorkerPool(1, backend="process") as inline:
            assert inline.supports_closures

    def test_nested_process_map_runs_inline_in_worker(self, process_pool):
        import os
        results = process_pool.map(probes.nested_square_map, [10, 20])
        for pid, _ in results:
            assert pid != os.getpid()
        assert [nested for _, nested in results] == \
            [[100, 121, 144], [400, 441, 484]]

    def test_map_from_forms_worker_thread_runs_inline(self, process_pool):
        """Thread-tier re-entrancy still applies to a process pool."""
        import threading
        out = []

        def issue():
            out.append(process_pool.map(probes.square, [2, 3]))

        t = threading.Thread(target=issue, name="forms-worker-reentry")
        t.start()
        t.join()
        assert out == [[4, 9]]


class TestPerProcessDieCache:
    def test_worker_caches_are_per_process(self, process_pool):
        import os
        run = partial(probes.pid_sleep_echo, delay=0.3)
        process_pool.map(run, [0, 1, 2, 3])  # warm both workers
        infos = process_pool.map(probes.worker_cache_info, range(4))
        for pid, _cache_id, _entries in infos:
            assert pid != os.getpid()

    def test_worker_cache_reprograms_identical_bits(self, process_pool):
        """Fresh per-process caches are invisible to the numbers: a die
        programmed in a worker is bit-identical to the parent's."""
        rng = np.random.default_rng(42)
        device = ReRAMDevice(DeviceSpec(), 0.1, seed=7)
        codes = rng.integers(0, 4, size=(3, 8, 4), dtype=np.int64)
        local = DieCache().get_or_program(device, codes)
        (pid, plane), = process_pool.map(probes.program_via_worker_cache,
                                         [(device, codes)])
        np.testing.assert_array_equal(plane, local)

    def test_die_cache_pickles_to_fresh_empty_cache(self):
        rng = np.random.default_rng(0)
        device = ReRAMDevice(DeviceSpec(), 0.0)
        cache = DieCache(maxsize=17)
        cache.get_or_program(device, rng.integers(0, 4, size=(2, 4, 4)))
        assert len(cache) == 1
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.maxsize == 17
        assert len(clone) == 0 and clone.hits == 0 and clone.misses == 0
        # the fresh lock works (a pickled threading.Lock would have raised
        # at dumps time; this asserts the clone is fully functional too)
        clone.get_or_program(device, rng.integers(0, 4, size=(2, 4, 4)))
        assert len(clone) == 1


class TestEnginePickling:
    def test_engine_roundtrip_matches_original(self, random_engine_case):
        rng = np.random.default_rng(99)
        engine, x_int, meta = random_engine_case(rng)
        expected = engine.matvec_int(x_int)
        clone = pickle.loads(pickle.dumps(engine))
        assert clone.pool is None and clone.guard is None
        np.testing.assert_array_equal(clone.matvec_int(x_int), expected,
                                      err_msg=str(meta))

    def test_engine_stats_pickle_drops_lock(self):
        from repro.reram.engine import EngineStats
        stats = EngineStats()
        stats.merge(EngineStats(conversions=3, cycles_fed=5))
        clone = pickle.loads(pickle.dumps(stats))
        assert clone.conversions == 3 and clone.cycles_fed == 5
        clone.merge(EngineStats(conversions=1))  # fresh lock must work
        assert clone.conversions == 4


class TestShipments:
    def test_ship_memoizes_by_object_and_version(self, process_pool):
        payload = {"planes": np.zeros((4, 4))}
        first = process_pool.ship(payload, version=0)
        assert process_pool.ship(payload, version=0) is first
        bumped = process_pool.ship(payload, version=1)
        assert bumped is not first
        assert bumped.token != first.token

    def test_ship_requires_process_backend(self):
        with WorkerPool(2, backend="thread") as pool:
            with pytest.raises(RuntimeError, match="process-backend"):
                pool.ship(object())

    def test_shipment_loads_in_parent_too(self, process_pool):
        obj = {"k": np.arange(5)}
        shipment = process_pool.ship(obj, version=0)
        loaded = load_shipment(shipment)
        np.testing.assert_array_equal(loaded["k"], obj["k"])
        assert load_shipment(shipment) is loaded  # token-cached

    def test_network_ships_once_across_batches(self, process_pool):
        """Every batch of one network reuses the first batch's shipment:
        one memo entry, no new segments, unchanged outputs."""
        from repro.reram import ADCSpec, paper_adc_bits
        from repro.reram.inference import build_insitu_network
        from repro.runtime import infer_tiles, iter_tiles
        from repro.serving.demo import post_relu_network

        model, config, images = post_relu_network()
        net, _ = build_insitu_network(
            model, config, ReRAMDevice(DeviceSpec(), 0.0),
            adc=ADCSpec(bits=paper_adc_bits(config.fragment_size)),
            activation_bits=12)
        tiles = list(iter_tiles(images.shape[0], 2))
        expected = infer_tiles(net, images, tiles, workers=1)
        memo_before = len(process_pool._shipments)
        segments = None
        for _ in range(4):
            outs = infer_tiles(net, images, tiles, pool=process_pool)
            for out, want in zip(outs, expected):
                np.testing.assert_array_equal(out, want)
            if segments is None:
                segments = set(process_pool.plane_pool.segment_names())
            assert set(process_pool.plane_pool.segment_names()) == segments
        assert len(process_pool._shipments) == memo_before + 1


class TestCleanup:
    """Leak checks are delta-based: the module-scoped pool is still open
    here and legitimately holds its own shipment segments."""

    def test_close_unlinks_every_segment(self):
        before = set(shm_segments())
        pool = WorkerPool(2, backend="process")
        big = np.arange(131072, dtype=np.float64)  # over the 64 KiB floor
        pool.map(probes.square, [1, 2])
        shipment = pool.ship({"plane": big}, version=0)
        assert pool.plane_pool.segment_names(), \
            "shipping a >64KiB array must create segments"
        pool.close()
        with pytest.raises(FileNotFoundError):
            attach_bytes(shipment.payload)
        assert set(shm_segments()) == before

    def test_terminate_unlinks_and_kills(self):
        before = set(shm_segments())
        pool = WorkerPool(2, backend="process")
        pool.map(probes.square, [1, 2, 3])  # force spawn
        executor = pool._process_executor
        procs = list(getattr(executor, "_processes", {}).values())
        assert procs
        pool.terminate()
        for proc in procs:
            assert not proc.is_alive()
        assert set(shm_segments()) == before

    def test_double_close_is_idempotent(self):
        before = set(shm_segments())
        pool = WorkerPool(2, backend="process")
        pool.map(probes.square, [1, 2])
        pool.close()
        pool.close()
        assert set(shm_segments()) == before


class TestParallelMapBackend:
    def test_parallel_map_process_roundtrip(self):
        before = set(shm_segments())
        out = parallel_map(probes.square, range(6), workers=2,
                           backend="process")
        assert out == [i * i for i in range(6)]
        assert set(shm_segments()) == before

    def test_process_backend_available_reports(self):
        ok, reason = process_backend_available()
        assert ok, reason
