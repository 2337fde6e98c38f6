"""The ``GET /v1/usage`` rendering of the stats store (``ServerStats.usage``).

Usage is not a meter of its own: it sums the same (model, class) cells
that ``/v1/stats`` and ``/metrics`` read, so these tests drive the store
through its record calls and check the usage body.
"""

import threading

from repro.serving import RequestStats, ServerStats, ShedReceipt


def served(stats, model, cls, macs=0, service_s=0.0):
    stats.record_request(RequestStats(
        request_id=0, batch_id=0, batch_size=1, queue_wait_s=0.0,
        service_s=service_s, latency_s=service_s,
        engine_stats={"macs": macs}, model=model, priority_class=cls))


def shed(stats, model, cls, reason="deadline"):
    stats.record_shed(ShedReceipt(request_id=0, model=model,
                                  priority_class=cls, reason=reason,
                                  queue_wait_s=0.0))


class TestUsageMeter:
    def test_empty_snapshot(self):
        snap = ServerStats().usage()
        assert snap == {"by_model": {},
                        "totals": {"requests": 0, "sheds": 0, "macs": 0,
                                   "die_seconds": 0.0}}

    def test_requests_accumulate_per_cell(self):
        stats = ServerStats()
        served(stats, "fast", "interactive", macs=100, service_s=0.5)
        served(stats, "fast", "interactive", macs=50, service_s=0.25)
        served(stats, "fast", "bulk", macs=10, service_s=0.1)
        served(stats, "batch", "bulk", macs=1, service_s=0.01)
        snap = stats.usage()
        cell = snap["by_model"]["fast"]["interactive"]
        assert cell == {"requests": 2, "sheds": 0, "macs": 150,
                        "die_seconds": 0.75}
        assert snap["by_model"]["fast"]["bulk"]["requests"] == 1
        assert snap["totals"]["requests"] == 4
        assert snap["totals"]["macs"] == 161
        assert snap["totals"]["die_seconds"] == 0.86

    def test_sheds_count_separately_from_requests(self):
        stats = ServerStats()
        shed(stats, "fast", "interactive", reason="deadline")
        shed(stats, "fast", "interactive", reason="admission")
        snap = stats.usage()
        cell = snap["by_model"]["fast"]["interactive"]
        assert cell["sheds"] == 2 and cell["requests"] == 0
        assert snap["totals"]["sheds"] == 2

    def test_snapshot_is_a_copy(self):
        stats = ServerStats()
        served(stats, "fast", "bulk", macs=5)
        snap = stats.usage()
        snap["by_model"]["fast"]["bulk"]["macs"] = 0
        snap["totals"]["requests"] = 99
        fresh = stats.usage()
        assert fresh["by_model"]["fast"]["bulk"]["macs"] == 5
        assert fresh["totals"]["requests"] == 1

    def test_concurrent_recording_loses_nothing(self):
        stats = ServerStats()
        threads_n, per_thread = 8, 400

        def writer(i):
            model = f"m{i % 2}"
            for _ in range(per_thread):
                served(stats, model, "default", macs=3, service_s=0.001)
                shed(stats, model, "default")

        threads = [threading.Thread(target=writer, args=(i,))
                   for i in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        totals = stats.usage()["totals"]
        expected = threads_n * per_thread
        assert totals["requests"] == expected
        assert totals["sheds"] == expected
        assert totals["macs"] == expected * 3
        snap = stats.snapshot()
        assert totals["requests"] == snap["requests_completed"]
        assert totals["sheds"] == snap["requests_shed"]
