"""MetricsRegistry units: instruments, exposition, parser, thread safety.

The registry is the substrate of ``GET /metrics``; these tests pin its
contracts in isolation — counter monotonicity, sourced families,
histogram bucketing, the render/parse round trip (the same strict parser
the wire smoke uses), the disabled no-op shape, and snapshot-consistent
reads under concurrent mutation.
"""

import threading

import pytest

from repro.obs import (MetricsRegistry, parse_prometheus_text)
from repro.obs.metrics import NULL_CHILD


class TestCounter:
    def test_inc_accumulates_per_label(self):
        reg = MetricsRegistry()
        counter = reg.counter("requests_total", "requests", labels=("model",))
        counter.labels("a").inc()
        counter.labels("a").inc(2)
        counter.labels("b").inc(5)
        families = parse_prometheus_text(reg.render())
        samples = families["requests_total"]["samples"]
        assert samples[("requests_total", (("model", "a"),))] == 3
        assert samples[("requests_total", (("model", "b"),))] == 5

    def test_negative_inc_raises(self):
        counter = MetricsRegistry().counter("c_total")
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1)

    def test_label_arity_is_checked(self):
        counter = MetricsRegistry().counter("c_total", labels=("a", "b"))
        with pytest.raises(ValueError, match="expected labels"):
            counter.labels("only-one")


class TestGauge:
    def test_set_and_inc(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("depth")
        gauge.set(4.0)
        gauge.inc(-1.5)          # gauges go both ways
        samples = parse_prometheus_text(reg.render())["depth"]["samples"]
        assert samples[("depth", ())] == 2.5

    def test_source_reads_at_collect_time(self):
        """A sourced family keeps no value of its own: every render calls
        the source, for unlabelled (``()``) and labelled keys alike."""
        reg = MetricsRegistry()
        live = {"value": 1.0}
        reg.gauge("live", source=lambda: {(): live["value"]})
        reg.counter("events_total", labels=("event",),
                    source=lambda: {"hit": live["value"] * 2,
                                    ("miss",): 3})
        families = parse_prometheus_text(reg.render())
        assert families["live"]["samples"][("live", ())] == 1.0
        live["value"] = 9.0
        families = parse_prometheus_text(reg.render())
        assert families["live"]["samples"][("live", ())] == 9.0
        events = families["events_total"]["samples"]
        assert events[("events_total", (("event", "hit"),))] == 18.0
        assert events[("events_total", (("event", "miss"),))] == 3.0

    def test_disabled_registry_never_calls_a_source(self):
        def source():
            raise AssertionError("a disabled registry read its source")

        reg = MetricsRegistry(enabled=False)
        reg.gauge("live", source=source)
        assert reg.render() == ""


class TestHistogram:
    def test_bucketing_is_cumulative_with_inf(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat_seconds", buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.005, 0.05, 0.5, 5.0):
            hist.observe(value)
        samples = parse_prometheus_text(reg.render())["lat_seconds"]["samples"]

        def bucket(le):
            return samples[("lat_seconds_bucket", (("le", le),))]

        assert bucket("0.01") == 2
        assert bucket("0.1") == 3
        assert bucket("1") == 4        # integral bounds render bare
        assert bucket("+Inf") == 5
        assert samples[("lat_seconds_count", ())] == 5
        assert samples[("lat_seconds_sum", ())] == pytest.approx(5.56)

    def test_boundary_lands_in_its_le_bucket(self):
        """``le`` is an inclusive upper bound: observe(b) counts in b."""
        reg = MetricsRegistry()
        hist = reg.histogram("h_seconds", buckets=(1.0, 2.0))
        hist.observe(1.0)
        samples = parse_prometheus_text(reg.render())["h_seconds"]["samples"]
        assert samples[("h_seconds_bucket", (("le", "1"),))] == 1

    def test_unsorted_buckets_raise(self):
        with pytest.raises(ValueError, match="increasing"):
            MetricsRegistry().histogram("h", buckets=(1.0, 0.5))


class TestRegistration:
    def test_idempotent_same_shape(self):
        reg = MetricsRegistry()
        first = reg.counter("c_total", labels=("x",))
        assert reg.counter("c_total", labels=("x",)) is first

    def test_conflicting_reregistration_raises(self):
        reg = MetricsRegistry()
        reg.counter("c_total")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("c_total")
        with pytest.raises(ValueError, match="already registered"):
            reg.counter("c_total", labels=("model",))

    def test_invalid_names_raise(self):
        reg = MetricsRegistry()
        for bad in ("", "9starts_with_digit", "has-dash", "has space"):
            with pytest.raises(ValueError, match="invalid metric name"):
                reg.counter(bad)


class TestDisabledRegistry:
    def test_instruments_are_shared_noops(self):
        reg = MetricsRegistry(enabled=False)
        counter = reg.counter("c_total", labels=("model",))
        assert counter.labels("a") is NULL_CHILD
        # every instrument method is callable and does nothing
        counter.inc()
        reg.gauge("g").set(4.0)
        reg.histogram("h_seconds").observe(0.1)
        assert reg.render() == ""

    def test_empty_exposition_parses_to_nothing(self):
        assert parse_prometheus_text(MetricsRegistry(enabled=False)
                                     .render()) == {}


class TestParserStrictness:
    def test_sample_without_type_raises(self):
        with pytest.raises(ValueError, match="no # TYPE"):
            parse_prometheus_text("orphan 3\n")

    def test_noncumulative_buckets_raise(self):
        text = ("# TYPE h histogram\n"
                'h_bucket{le="1"} 5\n'
                'h_bucket{le="+Inf"} 3\n'
                "h_count 3\n")
        with pytest.raises(ValueError, match="not cumulative"):
            parse_prometheus_text(text)

    def test_missing_inf_bucket_raises(self):
        text = ("# TYPE h histogram\n"
                'h_bucket{le="1"} 5\n'
                "h_count 5\n")
        with pytest.raises(ValueError, match=r"\+Inf"):
            parse_prometheus_text(text)

    def test_count_disagreeing_with_inf_raises(self):
        text = ("# TYPE h histogram\n"
                'h_bucket{le="+Inf"} 5\n'
                "h_count 4\n")
        with pytest.raises(ValueError, match="_count"):
            parse_prometheus_text(text)

    def test_duplicate_sample_raises(self):
        text = "# TYPE c counter\nc 1\nc 2\n"
        with pytest.raises(ValueError, match="duplicate sample"):
            parse_prometheus_text(text)

    def test_label_escaping_round_trips(self):
        reg = MetricsRegistry()
        reg.counter("c_total", labels=("path",)).labels('a"b\\c\nd').inc()
        samples = parse_prometheus_text(reg.render())["c_total"]["samples"]
        ((_, labels),) = samples.keys()
        assert dict(labels)["path"] == 'a"b\\c\nd'


class TestConcurrentScrapes:
    def test_every_scrape_is_internally_consistent(self):
        """N writer threads hammer a counter and a histogram while the
        main thread scrapes: every exposition parses (the parser enforces
        cumulative buckets and ``_count == +Inf``), and the counter never
        moves backwards between scrapes."""
        reg = MetricsRegistry()
        counter = reg.counter("ops_total", labels=("worker",))
        hist = reg.histogram("op_seconds", buckets=(0.1, 1.0))
        threads_n, per_thread = 8, 500
        start = threading.Barrier(threads_n + 1)

        def writer(worker_id):
            child = counter.labels(str(worker_id))
            start.wait()
            for i in range(per_thread):
                child.inc()
                hist.observe(0.05 * (1 + i % 3))

        threads = [threading.Thread(target=writer, args=(i,))
                   for i in range(threads_n)]
        for thread in threads:
            thread.start()
        start.wait()
        previous_total = 0.0
        while any(thread.is_alive() for thread in threads):
            families = parse_prometheus_text(reg.render())   # parser checks
            samples = families.get("ops_total", {}).get("samples", {})
            total = sum(samples.values())
            assert total >= previous_total, "counter total moved backwards"
            previous_total = total
        for thread in threads:
            thread.join()
        families = parse_prometheus_text(reg.render())
        assert sum(families["ops_total"]["samples"].values()) \
            == threads_n * per_thread
        assert families["op_seconds"]["samples"][("op_seconds_count", ())] \
            == threads_n * per_thread
