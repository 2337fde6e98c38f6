"""``HttpClient`` retry policy: idempotent GETs only, deterministic.

The contract: with ``retries > 0`` the idempotent GETs — ``/v1/stats``,
``/v1/models``, ``/healthz``, ``/metrics``, ``/v1/usage`` and
``/v1/trace/<id>`` — retry connection errors (and, for all but
``healthz``, HTTP 503) with capped exponential backoff and seeded
jitter — same seed, same sleep schedule.  ``healthz`` never retries a
503 (a draining body must surface immediately), a trace 404 is a
definitive answer (evicted ≠ transient), POSTs are never retried, and
the default ``retries=0`` keeps the historical fail-fast behaviour byte
for byte.
"""

import numpy as np
import pytest

from repro.serving.demo import post_relu_network as _post_relu_network
from repro.reram import ADCSpec, DeviceSpec, ReRAMDevice, paper_adc_bits
from repro.serving import (HttpClient, HttpError, HttpFrontend,
                           InferenceServer)

STATS_BODY = {"queue_depth": 0}
DRAIN_BODY = {"status": "draining", "error": {"code": "draining"}}


def make_client(**kwargs):
    kwargs.setdefault("backoff_s", 1e-4)   # keep real sleeps negligible
    return HttpClient("localhost", 1, **kwargs)


class ScriptedTransport:
    """Stands in for ``HttpClient.request``: plays back a scripted
    sequence of ``(status, payload)`` responses or exception instances,
    recording every call."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = []

    def __call__(self, method, path, body=None):
        self.calls.append((method, path))
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def scripted(client, *outcomes):
    transport = ScriptedTransport(outcomes)
    client.request = transport
    return transport


class TestConnectionErrorRetry:
    def test_stats_retries_connection_errors_then_succeeds(self):
        client = make_client(retries=2)
        transport = scripted(client, ConnectionResetError(),
                             ConnectionRefusedError(), (200, STATS_BODY))
        assert client.stats() == STATS_BODY
        assert transport.calls == [("GET", "/v1/stats")] * 3

    def test_models_and_healthz_also_retry_connection_errors(self):
        for call, path in ((lambda c: c.models(), "/v1/models"),
                           (lambda c: c.healthz(), "/healthz")):
            client = make_client(retries=1)
            transport = scripted(client, ConnectionResetError(),
                                 (200, STATS_BODY))
            assert call(client) == STATS_BODY
            assert transport.calls == [("GET", path)] * 2

    def test_exhausted_budget_raises_the_last_error(self):
        client = make_client(retries=2)
        transport = scripted(client, ConnectionResetError(),
                             ConnectionResetError(), ConnectionResetError())
        with pytest.raises(OSError):
            client.stats()
        assert len(transport.calls) == 3

    def test_default_zero_retries_fails_fast(self):
        client = make_client()
        transport = scripted(client, ConnectionResetError())
        with pytest.raises(OSError):
            client.stats()
        assert len(transport.calls) == 1


class TestStatusRetry:
    def test_stats_retries_503_then_returns_recovered_body(self):
        client = make_client(retries=2)
        transport = scripted(client, (503, DRAIN_BODY), (200, STATS_BODY))
        assert client.stats() == STATS_BODY
        assert len(transport.calls) == 2

    def test_stats_503_surfaces_after_budget(self):
        client = make_client(retries=1)
        scripted(client, (503, DRAIN_BODY), (503, DRAIN_BODY))
        with pytest.raises(HttpError) as info:
            client.stats()
        assert info.value.status == 503

    def test_healthz_never_retries_503(self):
        """A draining server answers 503 *with a valid body* — callers
        must see it on the first round trip, not after a backoff."""
        client = make_client(retries=3)
        transport = scripted(client, (503, DRAIN_BODY))
        assert client.healthz() == DRAIN_BODY
        assert len(transport.calls) == 1

    def test_non_retryable_status_surfaces_immediately(self):
        client = make_client(retries=3)
        transport = scripted(client, (404, {"error": {"code": "not_found"}}))
        with pytest.raises(HttpError) as info:
            client.stats()
        assert info.value.status == 404
        assert len(transport.calls) == 1


class ScriptedTextTransport:
    """Stands in for ``HttpClient.request_text`` (the raw-text sibling
    the ``/metrics`` exposition travels on): plays back scripted
    ``(status, text)`` responses or exceptions."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = []

    def __call__(self, method, path):
        self.calls.append((method, path))
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def scripted_text(client, *outcomes):
    transport = ScriptedTextTransport(outcomes)
    client.request_text = transport
    return transport


EXPOSITION = "# TYPE forms_requests_total counter\n"
USAGE_BODY = {"totals": {"requests": 3, "sheds": 0}}
TRACE_BODY = {"trace_id": "req-1", "spans": [{"name": "request"}]}
DRAIN_503 = (503, {"error": {"code": "shutting_down"}})


class TestObservabilityGetsRetry:
    """The allowlist extension: /metrics, /v1/usage and /v1/trace/<id>
    are idempotent reads and retry exactly like /v1/stats."""

    def test_usage_retries_connection_errors_then_succeeds(self):
        client = make_client(retries=2)
        transport = scripted(client, ConnectionResetError(),
                             (200, USAGE_BODY))
        assert client.usage() == USAGE_BODY
        assert transport.calls == [("GET", "/v1/usage")] * 2

    def test_usage_retries_503_then_returns_recovered_body(self):
        client = make_client(retries=2)
        transport = scripted(client, DRAIN_503, (200, USAGE_BODY))
        assert client.usage() == USAGE_BODY
        assert len(transport.calls) == 2

    def test_trace_retries_connection_and_503(self):
        client = make_client(retries=3)
        transport = scripted(client, ConnectionResetError(), DRAIN_503,
                             (200, TRACE_BODY))
        assert client.trace("req-1") == TRACE_BODY
        assert transport.calls == [("GET", "/v1/trace/req-1")] * 3

    def test_trace_404_is_definitive_no_retry(self):
        """An evicted trace is an answer, not a transient: surface the
        404 on the first round trip."""
        client = make_client(retries=3)
        transport = scripted(client,
                             (404, {"error": {"code": "not_found"}}))
        with pytest.raises(HttpError) as info:
            client.trace("req-gone")
        assert info.value.status == 404
        assert len(transport.calls) == 1

    def test_metrics_retries_connection_errors_then_succeeds(self):
        client = make_client(retries=2)
        transport = scripted_text(client, ConnectionResetError(),
                                  (200, EXPOSITION))
        assert client.metrics() == EXPOSITION
        assert transport.calls == [("GET", "/metrics")] * 2

    def test_metrics_retries_503_honoring_the_server_hint(self,
                                                          monkeypatch):
        client = make_client(retries=2)
        hinted = (503, '{"error": {"code": "shutting_down", '
                       '"retry_after_s": 0.05}}')
        scripted_text(client, hinted, (200, EXPOSITION))
        sleeps = []
        from repro.serving import client as http_module
        monkeypatch.setattr(http_module.time, "sleep", sleeps.append)
        assert client.metrics() == EXPOSITION
        assert sleeps == [0.05]

    def test_metrics_exhausted_503_raises(self):
        client = make_client(retries=1)
        text_503 = (503, '{"error": {"code": "shutting_down"}}')
        transport = scripted_text(client, text_503, text_503)
        with pytest.raises(HttpError) as info:
            client.metrics()
        assert info.value.status == 503
        assert len(transport.calls) == 2

    def test_metrics_non_json_error_text_is_wrapped(self):
        client = make_client(retries=0)
        scripted_text(client, (500, "exposition exploded"))
        with pytest.raises(HttpError) as info:
            client.metrics()
        assert info.value.status == 500
        assert "exposition exploded" in str(info.value)

    def test_metrics_zero_retries_fails_fast(self):
        client = make_client()
        transport = scripted_text(client, ConnectionResetError())
        with pytest.raises(OSError):
            client.metrics()
        assert len(transport.calls) == 1


class TestPostsNeverRetried:
    def test_infer_fails_fast_even_with_retries(self, ):
        client = make_client(retries=5)
        transport = scripted(client, ConnectionResetError())
        with pytest.raises(OSError):
            client.infer(np.zeros((1, 4, 4), dtype=np.int64))
        assert len(transport.calls) == 1
        assert transport.calls[0][0] == "POST"


class TestBackoffSchedule:
    def test_exponential_capped_and_jittered(self):
        client = HttpClient("localhost", 1, retries=8, backoff_s=0.05,
                            backoff_cap_s=0.4, backoff_seed=0)
        delays = [client.backoff_delay(attempt) for attempt in range(8)]
        for attempt, delay in enumerate(delays):
            base = min(0.4, 0.05 * 2 ** attempt)
            assert 0.5 * base <= delay < 1.5 * base
        assert max(delays) < 0.4 * 1.5   # the cap holds under max jitter

    def test_same_seed_same_schedule(self):
        a = [make_client(backoff_seed=42).backoff_delay(i) for i in range(6)]
        b = [make_client(backoff_seed=42).backoff_delay(i) for i in range(6)]
        assert a == b

    def test_different_seeds_diverge(self):
        a = [make_client(backoff_seed=1).backoff_delay(i) for i in range(6)]
        b = [make_client(backoff_seed=2).backoff_delay(i) for i in range(6)]
        assert a != b

    def test_validation(self):
        with pytest.raises(ValueError):
            HttpClient("localhost", 1, retries=-1)
        with pytest.raises(ValueError):
            HttpClient("localhost", 1, backoff_s=-0.1)
        with pytest.raises(ValueError):
            HttpClient("localhost", 1, backoff_cap_s=-1.0)


class TestAgainstRealFrontend:
    def test_retrying_client_behaves_normally_on_a_healthy_server(self):
        """retries > 0 is purely additive: stats / models / healthz and
        inference against a live front end look exactly like retries=0."""
        model, config, images = _post_relu_network()
        device = ReRAMDevice(DeviceSpec(), 0.0)
        adc = ADCSpec(bits=paper_adc_bits(config.fragment_size))
        server = InferenceServer.from_model(model, config, device, adc=adc,
                                            activation_bits=12)
        with server:
            with HttpFrontend(server) as frontend:
                client = HttpClient.for_frontend(frontend, retries=2,
                                                 backoff_s=0.001,
                                                 backoff_seed=7)
                assert client.healthz()["status"] == "ok"
                assert client.stats()["requests_completed"] == 0
                baseline = server.submit(images[0])
                wire = client.infer(images[0])
                np.testing.assert_array_equal(wire.output, baseline.output)
                host, port = frontend.host, frontend.port
        # the frontend is gone: connection errors are retried, then raised
        dead = HttpClient(host, port, timeout=5.0, retries=2,
                          backoff_s=0.001)
        with pytest.raises(OSError):
            dead.stats()
