"""SLA scheduler semantics: precedence, EDF, shedding, admission.

Pure scheduling tests — no engines, no networks: requests here are bare
:class:`SlaRequest` objects, so every ordering/shedding property is
asserted directly against the queue.
"""

import math
import threading
import time

import numpy as np
import pytest

from repro.serving import (SHED_ADMISSION, SHED_DEADLINE, SHED_LATENCY_BOUND,
                           AdmissionController, PriorityClass, QueueClosed,
                           RequestShed, ShedReceipt, SlaPolicy, SlaQueue,
                           SlaRequest)

TWO_CLASS = SlaPolicy((PriorityClass("hi", max_batch=4, max_wait_s=0.0),
                       PriorityClass("lo", max_batch=4, max_wait_s=0.0)))


def make_request(request_id, *, model="m", rank=0, policy=TWO_CLASS,
                 deadline_t=None, deadline_s=None, enqueue_t=None):
    cls = policy.classes[rank]
    request = SlaRequest(request_id=request_id, image=np.zeros(2),
                         model=model, class_rank=rank,
                         priority_class=cls.name, deadline_t=deadline_t,
                         deadline_s=deadline_s)
    if enqueue_t is not None:
        request.enqueue_t = enqueue_t
    return request


def drain_ids(queue):
    ids = []
    while True:
        batch = queue.get_batch()
        if batch is None:
            return ids
        ids.append([r.request_id for r in batch])


class TestPolicy:
    def test_fifo_policy_is_single_class(self):
        policy = SlaPolicy.fifo(max_batch=3, max_wait_s=0.01)
        assert policy.names == ["default"]
        assert policy.classes[0].max_batch == 3
        assert policy.classes[0].shed_after_s is None
        assert policy.rank_of(None) == 0
        assert policy.rank_of("default") == 0

    def test_rank_of(self):
        assert TWO_CLASS.rank_of("hi") == 0
        assert TWO_CLASS.rank_of("lo") == 1
        assert TWO_CLASS.rank_of(None) == 1   # default: lowest precedence
        with pytest.raises(KeyError, match="unknown priority class"):
            TWO_CLASS.rank_of("nope")

    def test_validation(self):
        with pytest.raises(ValueError):
            SlaPolicy(())
        with pytest.raises(ValueError, match="duplicate"):
            SlaPolicy((PriorityClass("a"), PriorityClass("a")))
        with pytest.raises(ValueError):
            PriorityClass("a", max_batch=0)
        with pytest.raises(ValueError):
            PriorityClass("a", max_wait_s=-1.0)
        with pytest.raises(ValueError):
            PriorityClass("a", shed_after_s=0.0)
        with pytest.raises(ValueError):
            PriorityClass("")


class TestOrdering:
    def test_strict_class_precedence(self):
        queue = SlaQueue(TWO_CLASS)
        queue.put(make_request(0, rank=1))
        queue.put(make_request(1, rank=1))
        queue.put(make_request(2, rank=0))
        queue.close()
        # the hi-class request heads the first batch; same-model lo
        # requests ride along in eligibility order
        assert drain_ids(queue) == [[2, 0, 1]]

    def test_head_precedence_without_riders(self):
        """Different models never share a batch: lo-class requests of
        another model wait for the next batch."""
        queue = SlaQueue(TWO_CLASS)
        queue.put(make_request(0, rank=1, model="b"))
        queue.put(make_request(1, rank=0, model="a"))
        queue.close()
        assert drain_ids(queue) == [[1], [0]]

    def test_edf_within_class(self):
        queue = SlaQueue(TWO_CLASS)
        now = time.monotonic()
        queue.put(make_request(0, deadline_t=now + 30.0))
        queue.put(make_request(1, deadline_t=now + 10.0))
        queue.put(make_request(2, deadline_t=now + 20.0))
        queue.close()
        assert drain_ids(queue) == [[1, 2, 0]]

    def test_deadlined_requests_precede_fifo_peers(self):
        queue = SlaQueue(TWO_CLASS)
        queue.put(make_request(0))                                # no deadline
        queue.put(make_request(1, deadline_t=time.monotonic() + 30.0))
        queue.close()
        assert drain_ids(queue) == [[1, 0]]

    def test_fifo_special_case_matches_request_queue(self):
        """Under SlaPolicy.fifo the queue is the classic FIFO batcher."""
        policy = SlaPolicy.fifo(max_batch=2, max_wait_s=0.0)
        queue = SlaQueue(policy)
        for i in range(5):
            queue.put(make_request(i, policy=policy, rank=0))
        queue.close()
        assert drain_ids(queue) == [[0, 1], [2, 3], [4]]

    def test_max_batch_of_one_means_no_riders(self):
        policy = SlaPolicy.fifo(max_batch=1, max_wait_s=0.0)
        queue = SlaQueue(policy)
        for i in range(3):
            queue.put(make_request(i, policy=policy, rank=0))
        queue.close()
        assert drain_ids(queue) == [[0], [1], [2]]

    def test_full_batch_returns_without_waiting(self):
        policy = SlaPolicy.fifo(max_batch=4, max_wait_s=10.0)
        queue = SlaQueue(policy)
        for i in range(4):
            queue.put(make_request(i, policy=policy, rank=0))
        start = time.monotonic()
        assert len(queue.get_batch()) == 4
        assert time.monotonic() - start < 1.0

    def test_late_arrivals_join_within_budget(self):
        policy = SlaPolicy.fifo(max_batch=8, max_wait_s=0.5)
        queue = SlaQueue(policy)
        queue.put(make_request(0, policy=policy))

        def late_put():
            time.sleep(0.02)
            queue.put(make_request(1, policy=policy))

        threading.Thread(target=late_put).start()
        batch = queue.get_batch()
        assert [r.request_id for r in batch] == [0, 1]

    def test_lone_request_released_at_budget(self):
        policy = SlaPolicy.fifo(max_batch=8, max_wait_s=0.05)
        queue = SlaQueue(policy)
        queue.put(make_request(0, policy=policy))
        start = time.monotonic()
        batch = queue.get_batch()
        assert [r.request_id for r in batch] == [0]
        assert time.monotonic() - start < 1.0

    def test_max_batch_caps_riders(self):
        policy = SlaPolicy((PriorityClass("hi", max_batch=2, max_wait_s=0.0),
                            PriorityClass("lo", max_batch=8, max_wait_s=0.0)))
        queue = SlaQueue(policy)
        for i in range(4):
            queue.put(make_request(i, rank=1, policy=policy))
        queue.put(make_request(9, rank=0, policy=policy))
        queue.close()
        # head class 'hi' caps the batch at 2; the rest drain as 'lo'
        assert drain_ids(queue) == [[9, 0], [1, 2, 3]]


class TestShedding:
    def test_expired_deadline_is_shed_not_dispatched(self):
        queue = SlaQueue(TWO_CLASS)
        expired = make_request(0, deadline_t=time.monotonic() - 0.01,
                               deadline_s=0.01)
        live = make_request(1)
        queue.put(expired)
        queue.put(live)
        queue.close()
        assert drain_ids(queue) == [[1]]
        with pytest.raises(RequestShed) as info:
            expired.future.result(timeout=0)
        receipt = info.value.receipt
        assert receipt.reason == SHED_DEADLINE
        assert receipt.request_id == 0
        assert receipt.priority_class == "hi"
        assert receipt.model == "m"
        assert receipt.deadline_s == 0.01
        assert receipt.queue_wait_s >= 0.0

    def test_latency_bound_shed(self):
        policy = SlaPolicy((PriorityClass("only", max_batch=1,
                                          max_wait_s=0.0,
                                          shed_after_s=0.01),))
        queue = SlaQueue(policy)
        stale = make_request(0, policy=policy,
                             enqueue_t=time.monotonic() - 1.0)
        queue.put(stale)
        queue.close()
        assert drain_ids(queue) == []
        with pytest.raises(RequestShed) as info:
            stale.future.result(timeout=0)
        assert info.value.receipt.reason == SHED_LATENCY_BOUND

    def test_on_shed_callback_receives_receipt(self):
        receipts = []
        queue = SlaQueue(TWO_CLASS, on_shed=receipts.append)
        queue.put(make_request(0, deadline_t=time.monotonic() - 1.0))
        queue.close()
        assert queue.get_batch() is None
        assert len(receipts) == 1
        assert isinstance(receipts[0], ShedReceipt)
        assert receipts[0].reason == SHED_DEADLINE

    def test_near_expiry_head_dispatches_instead_of_coalescing(self):
        """When waiting out the coalescing budget would cross the head's
        deadline, the batch releases immediately — a servable head is
        dispatched, not held until it must be shed."""
        policy = SlaPolicy((PriorityClass("only", max_batch=8,
                                          max_wait_s=10.0),))
        queue = SlaQueue(policy)
        queue.put(make_request(0, policy=policy,
                               deadline_t=time.monotonic() + 0.05))
        queue.put(make_request(1, policy=policy))
        start = time.monotonic()
        batch = queue.get_batch()
        assert time.monotonic() - start < 5.0
        assert [r.request_id for r in batch] == [0, 1]
        assert not batch[0].future.done()   # served path, not shed

    def test_close_refuses_put_but_drains(self):
        queue = SlaQueue(TWO_CLASS)
        queue.put(make_request(0))
        queue.close()
        with pytest.raises(QueueClosed):
            queue.put(make_request(1))
        assert drain_ids(queue) == [[0]]

    def test_close_wakes_blocked_getter(self):
        queue = SlaQueue(TWO_CLASS)
        result = {}

        def getter():
            result["batch"] = queue.get_batch()

        thread = threading.Thread(target=getter)
        thread.start()
        time.sleep(0.02)
        queue.close()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert result["batch"] is None

    def test_put_validates_rank(self):
        queue = SlaQueue(TWO_CLASS)
        rogue = SlaRequest(request_id=0, image=np.zeros(2), model="m",
                           class_rank=5, priority_class="ghost")
        with pytest.raises(ValueError, match="class_rank"):
            queue.put(rogue)

    def test_depth_gauges(self):
        queue = SlaQueue(TWO_CLASS)
        queue.put(make_request(0, rank=0))
        queue.put(make_request(1, rank=1))
        queue.put(make_request(2, rank=1))
        assert queue.depth == 3
        assert queue.depth_of("hi") == 1
        assert queue.depth_of("lo") == 2


class TestAdmissionController:
    def test_queue_depth_threshold(self):
        admission = AdmissionController(max_queue_depth=3)
        assert admission.admit(2, 0.0)
        assert not admission.admit(3, 0.0)
        assert not admission.admit(10, 0.0)

    def test_occupancy_needs_backlog(self):
        """High occupancy with an empty queue is a healthy saturated
        server — only occupancy *plus* backlog refuses."""
        admission = AdmissionController(max_occupancy=0.9)
        assert admission.admit(0, 0.99)
        assert not admission.admit(1, 0.99)
        assert admission.admit(1, 0.5)

    def test_unconfigured_admits_everything(self):
        admission = AdmissionController()
        assert admission.admit(10_000, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_queue_depth=0)
        with pytest.raises(ValueError):
            AdmissionController(max_occupancy=1.5)
        with pytest.raises(ValueError):
            AdmissionController(min_queue_depth=-1)

    def test_shed_receipt_round_trips(self):
        receipt = ShedReceipt(request_id=3, model="m", priority_class="hi",
                              reason=SHED_ADMISSION, queue_wait_s=0.0,
                              deadline_s=0.05)
        d = receipt.as_dict()
        assert d["reason"] == SHED_ADMISSION
        assert d["request_id"] == 3
        assert d["deadline_s"] == 0.05
        assert "admission" in str(RequestShed(receipt))
