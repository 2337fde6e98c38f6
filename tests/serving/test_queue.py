"""Batcher dispatch-loop semantics over the FIFO policy's queue.

(The queue's own coalescing semantics — FIFO order, ``max_batch`` cap,
the oldest request's ``max_wait_s`` budget, close/drain — are asserted
on :class:`SlaQueue` in ``test_scheduler.py``.)
"""

import numpy as np
import pytest

from repro.serving import Batcher, SlaPolicy, SlaQueue, SlaRequest


def fifo_queue(**knobs):
    return SlaQueue(SlaPolicy.fifo(**knobs))


def make_request(i=0):
    return SlaRequest(request_id=i, image=np.zeros(2), model="m",
                      class_rank=0, priority_class="default")


class TestBatcher:
    def test_dispatch_receives_coalesced_batches(self):
        queue = fifo_queue(max_batch=3, max_wait_s=0.01)
        seen = []

        def dispatch(batch):
            seen.append([r.request_id for r in batch])
            for request in batch:
                request.future.set_result(None)

        batcher = Batcher(queue, dispatch)
        requests = [make_request(i) for i in range(7)]
        for request in requests:
            queue.put(request)
        batcher.start()
        for request in requests:
            request.future.result(timeout=5.0)
        queue.close()
        batcher.join(timeout=5.0)
        assert [i for batch in seen for i in batch] == list(range(7))
        assert all(len(batch) <= 3 for batch in seen)

    def test_dispatch_error_fails_batch_not_server(self):
        queue = fifo_queue(max_batch=1, max_wait_s=0.0)
        calls = []

        def dispatch(batch):
            calls.append(len(batch))
            if len(calls) == 1:
                raise RuntimeError("boom")
            for request in batch:
                request.future.set_result("ok")

        batcher = Batcher(queue, dispatch)
        first, second = make_request(0), make_request(1)
        queue.put(first)
        queue.put(second)
        batcher.start()
        with pytest.raises(RuntimeError, match="boom"):
            first.future.result(timeout=5.0)
        assert second.future.result(timeout=5.0) == "ok"
        queue.close()
        batcher.join(timeout=5.0)

    def test_validates_parameters(self):
        """The coalescing knobs live in the policy now, and so does
        their validation."""
        with pytest.raises(ValueError):
            fifo_queue(max_batch=0)
        with pytest.raises(ValueError):
            fifo_queue(max_wait_s=-0.1)
