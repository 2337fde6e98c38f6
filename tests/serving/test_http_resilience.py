"""Resilience plumbing of the HTTP layer: Retry-After, trace ids, drains.

Three contracts, all client-visible:

* every 503 carries a ``Retry-After`` header (``%g`` seconds) plus the
  ``"retry_after_s"`` JSON mirror inside the error object, and the
  retrying client sleeps the server's hint instead of its own backoff;
* every response echoes an ``X-Request-Id`` — the caller's when valid,
  a freshly minted one otherwise — and the id rides the scheduler into
  receipts (``stats["trace_id"]``) and error bodies (``error.trace_id``);
* a draining shutdown racing concurrent ``POST /v1/infer_batch``
  submissions resolves every request within a bounded wait: served
  bit-exactly or refused with a documented receipt, never a hang.

The first two are properties of the shared reply path, so their classes
run on both shells (the ``...Asyncio`` twins re-run the same methods
against :class:`AsyncFrontend`).
"""

import http.client
import json
import threading
import time

import numpy as np
import pytest

from repro.nn.tensor import Tensor
from repro.serving import (DEFAULT_RETRY_AFTER_S, AsyncFrontend, HttpClient,
                           HttpError, HttpFrontend, InferenceServer,
                           ModelRegistry, new_trace_id)
from repro.serving.wire import TRACE_ID_RE


def linear_network(scale, shift):
    def network(tensor):
        return Tensor(tensor.data.reshape(tensor.data.shape[0], -1)
                      * scale + shift)
    return network


def make_frontend(*, delay=0.0, frontend_cls=HttpFrontend,
                  **frontend_kwargs):
    registry = ModelRegistry(workers=1)

    def network(tensor):
        if delay:
            time.sleep(delay)
        return Tensor(tensor.data.reshape(tensor.data.shape[0], -1) * 2.0)

    registry.register_network("toy", network)
    server = InferenceServer(registry=registry, max_batch=2, max_wait_s=0.0)
    return frontend_cls(server, owns_server=True,
                        **frontend_kwargs).start()


def raw_request(frontend, method, path, *, body=None, headers=None):
    """One raw round trip exposing the response *headers* (HttpClient
    decodes bodies only)."""
    connection = http.client.HTTPConnection(frontend.host, frontend.port,
                                            timeout=10.0)
    try:
        payload = None if body is None else json.dumps(body).encode()
        base = {"Content-Type": "application/json"} if payload else {}
        base.update(headers or {})
        connection.request(method, path, body=payload, headers=base)
        response = connection.getresponse()
        decoded = json.loads(response.read().decode())
        return response.status, dict(response.getheaders()), decoded
    finally:
        connection.close()


class TestRetryAfterHeader:
    FRONTEND = HttpFrontend

    def test_503_carries_header_and_json_mirror(self):
        frontend = make_frontend(frontend_cls=self.FRONTEND)
        try:
            frontend._draining = True   # deterministic 503, socket still up
            status, headers, payload = raw_request(
                frontend, "POST", "/v1/infer", body={"input": [1.0]})
        finally:
            frontend._draining = False
            frontend.shutdown()
        assert status == 503
        assert payload["error"]["code"] == "shutting_down"
        assert headers["Retry-After"] == f"{DEFAULT_RETRY_AFTER_S:g}"
        assert payload["error"]["retry_after_s"] == DEFAULT_RETRY_AFTER_S

    def test_hint_is_configurable(self):
        frontend = make_frontend(frontend_cls=self.FRONTEND,
                                 retry_after_s=1.5)
        try:
            frontend._draining = True
            status, headers, payload = raw_request(
                frontend, "POST", "/v1/infer", body={"input": [1.0]})
        finally:
            frontend._draining = False
            frontend.shutdown()
        assert status == 503
        assert headers["Retry-After"] == "1.5"
        assert payload["error"]["retry_after_s"] == 1.5

    def test_hint_is_disableable(self):
        frontend = make_frontend(frontend_cls=self.FRONTEND,
                                 retry_after_s=None)
        try:
            frontend._draining = True
            status, headers, payload = raw_request(
                frontend, "POST", "/v1/infer", body={"input": [1.0]})
        finally:
            frontend._draining = False
            frontend.shutdown()
        assert status == 503
        assert "Retry-After" not in headers
        assert "retry_after_s" not in payload["error"]

    def test_success_carries_no_hint(self):
        frontend = make_frontend(frontend_cls=self.FRONTEND)
        try:
            status, headers, _ = raw_request(frontend, "GET", "/healthz")
        finally:
            frontend.shutdown()
        assert status == 200
        assert "Retry-After" not in headers

    def test_validation(self):
        with pytest.raises(ValueError):
            make_frontend(frontend_cls=self.FRONTEND, retry_after_s=-0.1)


class ScriptedTransport:
    """Plays back scripted ``(status, payload)`` / exception outcomes
    through the 3-positional ``HttpClient.request`` signature."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = []

    def __call__(self, method, path, body=None):
        self.calls.append((method, path))
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


class TestClientHonorsRetryAfter:
    HINTED = (503, {"error": {"code": "shutting_down",
                              "retry_after_s": 0.07}})
    BARE = (503, {"error": {"code": "shutting_down"}})
    OK = (200, {"queue_depth": 0})

    @staticmethod
    def fresh_client():
        return HttpClient("localhost", 1, retries=3, backoff_s=1e-3,
                          backoff_cap_s=1e-3, backoff_seed=0)

    def retrying_client(self, monkeypatch, *outcomes):
        client = self.fresh_client()
        client.request = ScriptedTransport(outcomes)
        sleeps = []
        from repro.serving import client as client_module
        monkeypatch.setattr(client_module.time, "sleep", sleeps.append)
        return client, sleeps

    def test_server_hint_replaces_computed_backoff(self, monkeypatch):
        client, sleeps = self.retrying_client(monkeypatch,
                                              self.HINTED, self.OK)
        assert client.stats() == self.OK[1]
        assert sleeps == [0.07]

    def test_without_hint_the_backoff_schedule_applies(self, monkeypatch):
        client, sleeps = self.retrying_client(monkeypatch,
                                              self.BARE, self.OK)
        assert client.stats() == self.OK[1]
        # same seed, fresh jitter stream -> the schedule's first draw
        assert sleeps == [self.fresh_client().backoff_delay(0)]

    def test_junk_hints_are_ignored(self, monkeypatch):
        for junk in (True, -1.0, "soon", None):
            hinted = (503, {"error": {"code": "shutting_down",
                                      "retry_after_s": junk}})
            client, sleeps = self.retrying_client(monkeypatch,
                                                  hinted, self.OK)
            client.stats()
            assert sleeps == [self.fresh_client().backoff_delay(0)]


class TestTraceIdPropagation:
    FRONTEND = HttpFrontend

    def test_valid_supplied_id_is_echoed(self):
        frontend = make_frontend(frontend_cls=self.FRONTEND)
        try:
            _, headers, _ = raw_request(frontend, "GET", "/healthz",
                                        headers={"X-Request-Id": "req-42"})
        finally:
            frontend.shutdown()
        assert headers["X-Request-Id"] == "req-42"

    def test_missing_or_invalid_id_gets_minted(self):
        frontend = make_frontend(frontend_cls=self.FRONTEND)
        try:
            _, bare, _ = raw_request(frontend, "GET", "/healthz")
            _, junk, _ = raw_request(frontend, "GET", "/healthz",
                                     headers={"X-Request-Id": "has space"})
        finally:
            frontend.shutdown()
        for headers in (bare, junk):
            minted = headers["X-Request-Id"]
            assert TRACE_ID_RE.match(minted)
        assert junk["X-Request-Id"] != "has space"

    def test_receipt_carries_the_trace_id(self):
        frontend = make_frontend(frontend_cls=self.FRONTEND)
        try:
            client = HttpClient.for_frontend(frontend)
            result = client.infer(np.ones(4), trace_id="trace-receipt-1")
            np.testing.assert_array_equal(result.output, np.ones(4) * 2.0)
            assert result.stats["trace_id"] == "trace-receipt-1"
        finally:
            frontend.shutdown()

    def test_error_body_carries_the_trace_id(self):
        frontend = make_frontend(frontend_cls=self.FRONTEND)
        try:
            status, headers, payload = raw_request(
                frontend, "GET", "/v1/nope",
                headers={"X-Request-Id": "trace-err-7"})
        finally:
            frontend.shutdown()
        assert status == 404
        assert payload["error"]["trace_id"] == "trace-err-7"
        assert headers["X-Request-Id"] == "trace-err-7"

    def test_minted_ids_are_unique_and_wellformed(self):
        minted = {new_trace_id() for _ in range(64)}
        assert len(minted) == 64
        for trace in minted:
            assert TRACE_ID_RE.match(trace)


class TestRetryAfterHeaderAsyncio(TestRetryAfterHeader):
    FRONTEND = AsyncFrontend


class TestTraceIdPropagationAsyncio(TestTraceIdPropagation):
    FRONTEND = AsyncFrontend


class TestDrainRacingBatchSubmissions:
    def test_every_concurrent_batch_resolves(self):
        """Threads hammer ``/v1/infer_batch`` while the front end drains:
        each call either serves every item bit-exactly or surfaces a
        documented refusal — and all of them resolve in bounded time."""
        frontend = make_frontend(delay=0.05)
        client = HttpClient.for_frontend(frontend)
        images = np.ones((3, 4))
        outcomes = [None] * 8
        started = threading.Barrier(len(outcomes) + 1)

        def submit(i):
            started.wait()
            time.sleep(0.01 * i)   # spread submissions across the drain
            try:
                outcomes[i] = client.infer_batch(images)
            except (HttpError, OSError) as exc:
                outcomes[i] = exc

        threads = [threading.Thread(target=submit, args=(i,))
                   for i in range(len(outcomes))]
        for thread in threads:
            thread.start()
        started.wait()
        time.sleep(0.03)           # let some batches reach the scheduler
        frontend.shutdown()
        deadline = time.monotonic() + 30.0
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
            assert not thread.is_alive(), "a batch submission hung"

        served = 0
        for outcome in outcomes:
            assert outcome is not None
            if isinstance(outcome, OSError) \
                    and not isinstance(outcome, HttpError):
                continue           # socket already closed: a clean refusal
            if isinstance(outcome, HttpError):
                assert outcome.status == 503
                assert outcome.code in ("shutting_down", "shed")
                continue
            for item in outcome:   # a served batch: all items, bit-exact
                assert not isinstance(item, HttpError)
                np.testing.assert_array_equal(item.output, np.ones(4) * 2.0)
            served += 1
        assert served >= 1, "the drain refused even the in-flight batch"
