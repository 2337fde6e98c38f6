"""ServerStats aggregation and RequestStats receipts."""

import threading

import numpy as np
import pytest

from repro.serving import (SHED_ADMISSION, SHED_DEADLINE, SHED_LATENCY_BOUND,
                           RequestStats, ServerStats, ShedReceipt)
from repro.serving.stats import WINDOW


def receipt(i, latency, wait=0.0, model="default", cls="default"):
    return RequestStats(request_id=i, batch_id=0, batch_size=1,
                        queue_wait_s=wait, service_s=latency - wait,
                        latency_s=latency, engine_stats={"conversions": 10},
                        model=model, priority_class=cls)


def shed(i, reason=SHED_DEADLINE, model="default", cls="default"):
    return ShedReceipt(request_id=i, model=model, priority_class=cls,
                       reason=reason, queue_wait_s=0.01, deadline_s=0.05)


class TestServerStats:
    def test_percentiles_match_numpy(self):
        stats = ServerStats()
        latencies = [0.001 * (i + 1) for i in range(20)]
        for i, latency in enumerate(latencies):
            stats.record_request(receipt(i, latency))
        snap = stats.snapshot()
        assert snap["latency_p50_s"] == float(np.percentile(latencies, 50))
        assert snap["latency_p95_s"] == float(np.percentile(latencies, 95))
        assert snap["latency_max_s"] == max(latencies)
        assert stats.latency_percentile(50) == snap["latency_p50_s"]

    def test_batch_mix_and_occupancy(self):
        stats = ServerStats()
        stats.record_batch(2, 0.010)
        stats.record_batch(4, 0.030)
        snap = stats.snapshot()
        assert snap["batches_formed"] == 2
        assert snap["mean_batch_size"] == 3.0
        assert snap["max_batch_size"] == 4
        # occupancy = busy_s / wall_s; the wall clock here is artificial,
        # so only the bookkeeping (busy time accumulated) is asserted
        assert snap["occupancy"] * snap["elapsed_s"] == pytest.approx(0.040)

    def test_queue_wait_aggregates(self):
        stats = ServerStats()
        for i, wait in enumerate([0.001, 0.003]):
            stats.record_request(receipt(i, wait + 0.01, wait=wait))
        snap = stats.snapshot(queue_depth=5)
        assert snap["queue_wait_mean_s"] == 0.002
        assert snap["queue_depth"] == 5
        assert snap["requests_completed"] == 2

    def test_empty_snapshot_is_zeroed(self):
        snap = ServerStats().snapshot()
        assert snap["requests_completed"] == 0
        assert snap["latency_p50_s"] == 0.0
        assert snap["throughput_rps"] == 0.0
        assert snap["mean_batch_size"] == 0.0
        assert "queue_depth" not in snap

    def test_distribution_window_is_bounded(self):
        """Counters stay exact; percentile memory is capped at WINDOW."""
        stats = ServerStats()
        total = WINDOW + 42
        for i in range(total):
            stats.record_request(receipt(i, 0.001 * (i + 1)))
        snap = stats.snapshot()
        assert snap["requests_completed"] == total
        assert len(stats._all.latencies) == WINDOW
        # percentiles now reflect the most recent WINDOW requests only
        recent = [0.001 * (i + 1) for i in range(42, total)]
        assert snap["latency_p50_s"] == float(np.percentile(recent, 50))

    def test_failures_counted(self):
        stats = ServerStats()
        stats.record_failure(3)
        assert stats.snapshot()["requests_failed"] == 3

    def test_receipt_as_dict_round_trips(self):
        r = receipt(7, 0.02, wait=0.005)
        d = r.as_dict()
        assert d["request_id"] == 7
        assert d["latency_s"] == 0.02
        assert d["engine_stats"] == {"conversions": 10}
        assert d["model"] == "default"
        assert d["priority_class"] == "default"
        assert d["deadline_s"] is None
        d["engine_stats"]["conversions"] = 0   # copy, not a view
        assert r.engine_stats["conversions"] == 10


class TestGroupedStats:
    def test_per_class_and_per_model_percentiles(self):
        stats = ServerStats()
        hi = [0.001 * (i + 1) for i in range(10)]
        lo = [0.010 * (i + 1) for i in range(10)]
        for i, latency in enumerate(hi):
            stats.record_request(receipt(i, latency, cls="hi", model="fast"))
        for i, latency in enumerate(lo):
            stats.record_request(receipt(100 + i, latency, cls="lo",
                                         model="batch"))
        snap = stats.snapshot()
        assert snap["per_class"]["hi"]["completed"] == 10
        assert snap["per_class"]["hi"]["latency_p50_s"] == float(
            np.percentile(hi, 50))
        assert snap["per_class"]["lo"]["latency_p95_s"] == float(
            np.percentile(lo, 95))
        assert snap["per_model"]["fast"]["completed"] == 10
        assert snap["per_model"]["batch"]["latency_p50_s"] == float(
            np.percentile(lo, 50))

    def test_shed_accounting(self):
        stats = ServerStats()
        stats.record_shed(shed(0, SHED_DEADLINE, cls="hi", model="fast"))
        stats.record_shed(shed(1, SHED_LATENCY_BOUND, cls="lo",
                               model="batch"))
        stats.record_shed(shed(2, SHED_LATENCY_BOUND, cls="lo",
                               model="batch"))
        snap = stats.snapshot()
        assert snap["requests_shed"] == 3
        assert snap["shed_by_reason"] == {SHED_DEADLINE: 1,
                                          SHED_LATENCY_BOUND: 2}
        assert snap["per_class"]["hi"]["shed"] == 1
        assert snap["per_class"]["lo"]["shed"] == 2
        assert snap["per_model"]["batch"]["shed"] == 2
        # shed-only groups still produce guarded (zero) percentiles
        assert snap["per_class"]["lo"]["latency_p95_s"] == 0.0

    def test_empty_and_zero_duration_windows_are_guarded(self):
        """The satellite guard: a snapshot taken before any request
        completes — or a shed-only / empty group — must return zeros,
        never divide by zero or reduce an empty array."""
        stats = ServerStats()
        snap = stats.snapshot(queue_depth=0)
        assert snap["latency_p50_s"] == 0.0
        assert snap["latency_p95_s"] == 0.0
        assert snap["latency_max_s"] == 0.0
        assert snap["queue_wait_mean_s"] == 0.0
        assert snap["queue_wait_p95_s"] == 0.0
        assert snap["occupancy"] == 0.0
        assert snap["throughput_rps"] == 0.0
        assert snap["mean_batch_size"] == 0.0
        assert snap["per_class"] == {}
        assert snap["per_model"] == {}
        assert stats.latency_percentile(95) == 0.0
        assert stats.occupancy() == 0.0
        # a shed recorded before any completion: groups exist, but their
        # distributions are empty — still no crash
        stats.record_shed(shed(0))
        snap = stats.snapshot()
        assert snap["per_class"]["default"]["latency_p50_s"] == 0.0
        assert snap["per_class"]["default"]["queue_wait_p95_s"] == 0.0

    def test_group_windows_are_bounded(self):
        stats = ServerStats()
        total = WINDOW + 16
        for i in range(total):
            stats.record_request(receipt(i, 0.001 * (i + 1), cls="hi"))
        snap = stats.snapshot()
        assert snap["per_class"]["hi"]["completed"] == total
        recent = [0.001 * (i + 1) for i in range(16, total)]
        assert snap["per_class"]["hi"]["latency_p50_s"] == float(
            np.percentile(recent, 50))


class TestConcurrentMutation:
    """ServerStats under fire: N threads mutate while a reader snapshots.

    ``/v1/stats``, ``/v1/usage`` and ``/metrics`` all read this one store
    from outside the batcher thread, so its one-lock design is
    load-bearing for more than the dispatch loop.  Invariants pinned:
    snapshots are internally consistent (the shed total always equals the
    sum of its by-reason and per-class decompositions, even mid-burst),
    the usage rendering of the same instant agrees with the snapshot
    (usage == served + shed by construction) and the monotone counters
    never move backwards between successive reads.
    """

    THREADS = 6
    PER_THREAD = 300
    REASONS = (SHED_DEADLINE, SHED_LATENCY_BOUND, SHED_ADMISSION)

    def test_snapshots_stay_consistent_and_monotone(self):
        stats = ServerStats()
        start = threading.Barrier(self.THREADS + 1)

        def writer(worker_id):
            cls = f"class-{worker_id % 2}"
            start.wait()
            for i in range(self.PER_THREAD):
                stats.record_request(receipt(worker_id * 1000 + i,
                                             0.002 + 0.0001 * i, cls=cls,
                                             model=f"m{worker_id % 3}"))
                stats.record_shed(shed(worker_id * 1000 + i,
                                       self.REASONS[i % 3], cls=cls,
                                       model=f"m{worker_id % 3}"))
                stats.record_batch(2, 0.001)

        threads = [threading.Thread(target=writer, args=(i,))
                   for i in range(self.THREADS)]
        for thread in threads:
            thread.start()
        start.wait()
        previous = {"requests_completed": 0, "requests_shed": 0,
                    "batches_formed": 0}
        snapshots = 0
        while any(thread.is_alive() for thread in threads):
            with stats._lock:     # re-entrant: two reads of one instant
                snap = stats.snapshot(queue_depth=0)
                usage = stats.usage()
            snapshots += 1
            assert usage["totals"]["requests"] == snap["requests_completed"]
            assert usage["totals"]["sheds"] == snap["requests_shed"]
            for key, floor in previous.items():
                assert snap[key] >= floor, f"{key} moved backwards"
                previous[key] = snap[key]
            # one lock guards every decomposition, so each snapshot's
            # totals must agree with their own breakdowns exactly
            assert snap["requests_shed"] == \
                sum(snap["shed_by_reason"].values())
            assert snap["requests_shed"] == \
                sum(group["shed"] for group in snap["per_class"].values())
            assert snap["requests_completed"] == \
                sum(group["completed"]
                    for group in snap["per_class"].values())
        for thread in threads:
            thread.join()
        total = self.THREADS * self.PER_THREAD
        final = stats.snapshot()
        assert snapshots >= 1
        assert final["requests_completed"] == total
        assert final["requests_shed"] == total
        assert final["batches_formed"] == total
        assert sorted(final["shed_by_reason"]) == sorted(set(self.REASONS))
        assert final["max_batch_size"] == 2
        assert final["occupancy"] * final["elapsed_s"] == pytest.approx(
            total * 0.001)
