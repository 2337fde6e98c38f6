"""Drain races on the asyncio front end: streams and batches never hang.

The async mirror of ``test_http_resilience.py``'s drain race, with the
surface only the event loop has: SSE streams.  Concurrent
``POST /v1/infer_batch`` submissions — plain and ``?stream=1`` — race
``shutdown()``; every one must resolve within a bounded wait as exactly
one of

* **served bit-exactly** (a full batch body, or a stream whose
  ``result`` events carry the exact bytes and whose ``done`` tallies
  them),
* a **clean refusal** (the socket is already gone: ``OSError``, or the
  stream tears mid-flight: truncated event iterator), or
* a **documented 503** (``shutting_down`` / ``shed`` with a receipt),

and never a hang.  (The Retry-After and X-Request-Id contracts run on
both shells from ``test_http_resilience.py``.)
"""

import threading
import time

import numpy as np
import pytest

from repro.nn.tensor import Tensor
from repro.serving import (AsyncFrontend, HttpClient, HttpError,
                           InferenceServer, ModelRegistry)


def make_frontend(*, delay=0.0, **frontend_kwargs):
    registry = ModelRegistry(workers=1)

    def network(tensor):
        if delay:
            time.sleep(delay)
        return Tensor(tensor.data.reshape(tensor.data.shape[0], -1) * 2.0)

    registry.register_network("toy", network)
    server = InferenceServer(registry=registry, max_batch=2, max_wait_s=0.0)
    return AsyncFrontend(server, owns_server=True,
                         **frontend_kwargs).start()


class TestDrainRacingStreamsAndBatches:
    def test_every_concurrent_submission_resolves(self):
        """Plain batches and SSE streams hammer the front end while it
        drains: every call resolves as served-bit-exact, clean refusal,
        or documented 503 — bounded wait, no hangs."""
        frontend = make_frontend(delay=0.05)
        client = HttpClient.for_frontend(frontend)
        images = np.ones((3, 4))
        outcomes = [None] * 10
        started = threading.Barrier(len(outcomes) + 1)

        def submit(i):
            started.wait()
            time.sleep(0.01 * i)   # spread submissions across the drain
            try:
                if i % 2:          # odd slots stream, even slots batch
                    outcomes[i] = ("stream",
                                   list(client.infer_batch_stream(images)))
                else:
                    outcomes[i] = ("batch", client.infer_batch(images))
            except (HttpError, OSError) as exc:
                outcomes[i] = ("error", exc)

        threads = [threading.Thread(target=submit, args=(i,))
                   for i in range(len(outcomes))]
        for thread in threads:
            thread.start()
        started.wait()
        time.sleep(0.03)           # let some work reach the scheduler
        frontend.shutdown()
        deadline = time.monotonic() + 30.0
        for i, thread in enumerate(threads):
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
            assert not thread.is_alive(), f"submission {i} hung"

        served = 0
        for outcome in outcomes:
            assert outcome is not None
            kind, value = outcome
            if kind == "error":
                if isinstance(value, HttpError):
                    assert value.status == 503
                    assert value.code in ("shutting_down", "shed")
                else:
                    assert isinstance(value, OSError)   # socket gone
                continue
            if kind == "batch":
                for item in value:
                    assert not isinstance(item, HttpError)
                    np.testing.assert_array_equal(item.output,
                                                  np.ones(4) * 2.0)
                served += 1
                continue
            # a stream: every result event bit-exact; if the stream ran
            # to completion its done must tally the events
            events = value
            results = [data for event, data in events if event == "result"]
            for data in results:
                np.testing.assert_array_equal(
                    np.asarray(data["output"], dtype=np.float64),
                    np.ones(4) * 2.0)
            if events and events[-1][0] == "done":
                done = events[-1][1]
                sheds = sum(1 for event, _ in events if event == "shed")
                assert done == {"completed": len(results), "shed": sheds}
                served += 1
            # a truncated stream (no done) is a clean refusal: the
            # server tore the connection during the drain — the work
            # itself still resolved server-side
        assert served >= 1, "the drain refused even the in-flight work"

    def test_stream_opened_before_drain_completes_bit_exact(self):
        """A stream whose items are already queued when shutdown() lands
        still emits every result — the drain resolves all futures, and
        SSE handlers flush before the loop stops."""
        frontend = make_frontend(delay=0.08)
        client = HttpClient.for_frontend(frontend)
        images = np.ones((4, 4))
        collected = {}

        def stream():
            collected["events"] = list(client.infer_batch_stream(images))

        worker = threading.Thread(target=stream)
        worker.start()
        time.sleep(0.1)            # items enqueued, stream head written
        frontend.shutdown()
        worker.join(timeout=30.0)
        assert not worker.is_alive(), "the stream hung through the drain"
        events = collected["events"]
        assert events[-1][0] == "done"
        results = [data for event, data in events if event == "result"]
        assert len(results) == len(images)
        for data in results:
            np.testing.assert_array_equal(
                np.asarray(data["output"], dtype=np.float64),
                np.ones(4) * 2.0)

    def test_new_work_refused_while_draining(self):
        frontend = make_frontend(delay=0.2)
        client = HttpClient.for_frontend(frontend)
        client.retries = 0
        blocker = threading.Thread(
            target=lambda: client.infer(np.ones(4)))
        blocker.start()
        time.sleep(0.08)           # the blocker is dispatching
        closer = threading.Thread(target=frontend.shutdown)
        closer.start()
        time.sleep(0.05)
        assert frontend.draining
        with pytest.raises((HttpError, OSError)) as err:
            client.infer(np.ones(4))
        if isinstance(err.value, HttpError):
            assert err.value.status == 503
            assert err.value.code in ("shutting_down", "shed")
        blocker.join(timeout=10.0)
        closer.join(timeout=10.0)
        assert not blocker.is_alive() and not closer.is_alive()
        with pytest.raises(OSError):
            client.healthz()       # the port is actually gone
