"""Checks of the benchmark's own arithmetic; run explicitly, not by tier-1:

    python3 benchmarks/e2e/selftest.py

Covers the percentile-eligibility rule, open-loop pacing and lateness
against a fake clock, span self-time, median-of-segments aggregation,
seeded generation, the leak counters, and that ``BENCHMARK.json`` names
exactly the metrics and workloads the command prints (that last check runs
the real command for two seconds, traced and untraced).
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import unittest

import run                       # puts src/ and this directory on sys.path
import measure
import workloads
from drivers import SERVED, SHED, Op, Section
import report


class FakeClock:
    """A clock that only moves when slept on, or when a send takes time."""

    def __init__(self):
        self.now = 100.0
        self.slept = []

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.slept.append(seconds)
        self.now += seconds


class Eligibility(unittest.TestCase):
    def test_ten_samples_beyond(self):
        self.assertEqual(measure.samples_beyond(200, 95), 10)
        self.assertEqual(measure.samples_beyond(199, 95), 9)
        self.assertEqual(measure.samples_beyond(1000, 99), 10)
        self.assertEqual(measure.samples_beyond(999, 99), 9)
        self.assertEqual(measure.samples_beyond(240, 95), 12)
        self.assertEqual(measure.samples_beyond(50, 80), 10)


class OpenLoop(unittest.TestCase):
    def test_sends_at_due_times_and_never_skips(self):
        clock = FakeClock()
        sent = []

        def send(index):
            sent.append((index, clock.now))
            if index == 1:
                clock.now += 0.5          # a stall inside the program

        due = [0.0, 0.1, 0.2, 0.3, 1.0]
        start, started, ended = measure.run_open_loop(
            due, send, clock=clock, sleep=clock.sleep)
        self.assertEqual([index for index, _ in sent], [0, 1, 2, 3, 4])
        late = [began - (start + offset)
                for began, offset in zip(started, due)]
        # 2 and 3 were due during the stall: sent at once, 0.4 and 0.3 late;
        # 4 was due after it and is on time again (no drift carried over)
        for got, want in zip(late, [0.0, 0.0, 0.4, 0.3, 0.0]):
            self.assertAlmostEqual(got, want)
        self.assertAlmostEqual(ended[1] - started[1], 0.5)
        self.assertAlmostEqual(sum(clock.slept), 0.1 + 0.4)

    def test_rtt_counts_from_due_time(self):
        op = Op(ref_t=10.0, done_t=10.25, key=0, cls="c", outcome=SERVED,
                images=1, send_t=10.2)
        self.assertAlmostEqual(op.rtt_s, 0.25)     # not 0.05

    def test_schedule_holds_count_and_window(self):
        rng = workloads.stream(3, "w", "s")
        due = measure.poisson_schedule(rng, 50, 2.0, 0.5)
        self.assertEqual(len(due), 50)
        self.assertTrue((due >= 2.0).all() and (due < 2.5).all())
        self.assertTrue((due[1:] >= due[:-1]).all())


class Spans(unittest.TestCase):
    def test_self_time(self):
        self.assertAlmostEqual(measure.self_time(0, 10, [(1, 3), (5, 6)]), 7)
        # overlapping children count once; children are clipped to the span
        self.assertAlmostEqual(measure.self_time(0, 10, [(1, 4), (3, 6)]), 5)
        self.assertAlmostEqual(measure.self_time(2, 8, [(0, 3), (7, 12)]), 4)
        self.assertAlmostEqual(measure.self_time(0, 1, []), 1)

    def test_sum_check(self):
        receipt = {"queue_wait_s": 0.002, "service_s": 0.006,
                   "latency_s": 0.008}
        good = Op(ref_t=0.0, done_t=0.011, key=0, cls="c", outcome=SERVED,
                  images=1, receipt=receipt)
        self.assertFalse(report.sum_check_fails(good))
        torn = dict(receipt, service_s=0.004)   # 2 ms nobody accounts for
        bad = Op(ref_t=0.0, done_t=0.011, key=0, cls="c", outcome=SERVED,
                 images=1, receipt=torn)
        self.assertTrue(report.sum_check_fails(bad))


class Segments(unittest.TestCase):
    def test_split(self):
        self.assertEqual(measure.split_segments(12, 5),
                         [(0, 3), (3, 6), (6, 8), (8, 10), (10, 12)])
        with self.assertRaises(ValueError):
            measure.split_segments(3, 5)

    def test_median_resists_one_burst(self):
        calm = measure.median_of_segments([10.0, 10.2, 9.9, 10.1, 10.0])
        burst = measure.median_of_segments([10.0, 10.2, 9.9, 10.1, 30.0])
        self.assertAlmostEqual(calm["value"], 10.0)
        self.assertAlmostEqual(burst["value"], 10.1)
        self.assertGreater(burst["q3"], calm["q3"])

    def test_spread_is_quartile_distance_over_median(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        self.assertAlmostEqual(measure.spread(values), (8.25 - 2.75) / 5.5)

    def test_closed_loop_aggregation(self):
        class Closed:
            open_loop, segments, tail_percentile = False, 2, 50

            def limit_s(self, op):
                return 0.15

            def counts_for_rtt(self, op):
                return op.outcome == SERVED

        ops = [Op(ref_t=t, done_t=t + 0.1, key=0, cls="c", outcome=SERVED,
                  images=4, correct=True) for t in (0.0, 0.1, 0.2, 0.3)]
        ops[3].done_t = 0.5                      # late: 0.2 s > limit
        ops.append(Op(ref_t=0.5, done_t=0.6, key=0, cls="c", outcome=SHED,
                      images=4, receipt={"reason": "deadline"}))
        ops.append(Op(ref_t=0.6, done_t=0.7, key=0, cls="c", outcome=SERVED,
                      images=4, correct=True))
        section = Section(ops, start=0.0, end=0.7)
        out = report.end_to_end(Closed(), section)
        # segment 1: three served ops in 0.3 s; segment 2: served-late, shed,
        # served in 0.4 s -> 8 correct images, 1 of 3 ops within the limit
        self.assertAlmostEqual(out["images_per_s"]["value"],
                               (12 / 0.3 + 8 / 0.4) / 2)
        self.assertAlmostEqual(out["goodput_rps"]["value"],
                               (3 / 0.3 + 1 / 0.4) / 2)
        self.assertAlmostEqual(out["ok_share"]["value"], (1.0 + 1 / 3) / 2)
        attempted, failed, _ = report.tally([section])
        self.assertEqual((attempted, failed), (6, 0))   # a receipted shed
        ops[4].receipt = {}                             # ... without one
        self.assertEqual(report.tally([section])[1], 1)


class Generation(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        params = workloads.load_config()["workloads"]["serve_inproc_overload"]
        one = workloads.open_loop_plan(5, "serve_inproc_overload", params,
                                       2.0, 5, 0)
        two = workloads.open_loop_plan(5, "serve_inproc_overload", params,
                                       2.0, 5, 0)
        other = workloads.open_loop_plan(6, "serve_inproc_overload", params,
                                         2.0, 5, 0)
        self.assertTrue((one[0] == two[0]).all() and one[2] == two[2])
        self.assertFalse((one[0] == other[0]).all())

    def test_every_window_holds_the_same_count_and_mix(self):
        params = workloads.load_config()["workloads"]["serve_inproc_overload"]
        due, _, classes = workloads.open_loop_plan(
            9, "serve_inproc_overload", params, 2.0, 5, 0)
        lead = params["lead_in_s"]
        per_window = int(round(params["rate_rps"] * 0.4))
        for index in range(5):
            lo = lead + 0.4 * index
            inside = [cls for at, cls in zip(due, classes)
                      if lo <= at < lo + 0.4]
            self.assertEqual(len(inside), per_window)
            self.assertEqual(inside.count("interactive"),
                             int(round(0.4 * per_window)))


class Leaks(unittest.TestCase):
    def test_counts_threads_and_fds(self):
        before = measure.leak_snapshot()
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        handle = open(__file__)
        try:
            delta = measure.leaks_since(before, settle_s=0.05)
            self.assertEqual((delta["threads"], delta["fds"]), (1, 1))
        finally:
            handle.close()
            stop.set()
            thread.join(5)
        self.assertFalse(thread.is_alive())
        delta = measure.leaks_since(before)
        self.assertEqual((delta["threads"], delta["fds"]), (0, 0))


class Contract(unittest.TestCase):
    """BENCHMARK.json against what the command prints."""

    @classmethod
    def setUpClass(cls):
        cls.contract = run.load_contract()

    def test_workloads_match_config_and_drivers(self):
        import drivers
        names = [row["name"] for row in self.contract["workloads"]]
        self.assertEqual(sorted(names), sorted(drivers.WORKLOADS))
        self.assertEqual(sorted(names),
                         sorted(workloads.load_config()["workloads"]))

    def test_shape(self):
        self.assertEqual(set(self.contract),
                         {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"})
        self.assertEqual(self.contract["paths"], ["benchmarks/e2e"])
        bounds = {row["name"]: row["bound"]
                  for row in self.contract["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertTrue(all(0 < bound <= 0.25 for bound in bounds.values()))
        self.assertEqual(sorted(report.SERVING_METRICS),
                         sorted(row["name"] for row in self.contract["per_layer"]
                                if row["name"].split(".")[0] in
                                ("queue", "batch", "sched", "server", "http",
                                 "aio", "obs")))

    def command(self, trace: int) -> dict:
        done = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload",
             "serve_http_single", "--seed", "1", "--seconds", "2",
             "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, timeout=170, cwd=run.ROOT)
        self.assertEqual(done.returncode, 0, done.stdout[-2000:])
        return json.loads(done.stdout.strip().splitlines()[-1]), done.stdout

    def test_untraced_line_names_every_end_to_end_metric(self):
        line, text = self.command(0)
        self.assertEqual(set(line), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertEqual(list(line["metrics"]),
                         [row["name"] for row in self.contract["end_to_end"]])
        for row in self.contract["end_to_end"]:
            self.assertEqual(line["metrics"][row["name"]]["unit"], row["unit"])
            self.assertNotEqual(line["metrics"][row["name"]]["value"], 0)
            self.assertIn(row["name"], text)
        self.assertTrue(line["correct"])

    def test_traced_line_names_every_per_layer_metric(self):
        line, text = self.command(1)
        self.assertEqual(list(line["metrics"]),
                         [row["name"] for row in self.contract["per_layer"]])
        # http.* is printed for this workload, aio.* is not
        self.assertIn("http.transport_ms_p50", text.split("\n{")[0])
        self.assertNotIn("aio.transport_ms_p50", text.split("\n{")[0])


if __name__ == "__main__":
    unittest.main()
