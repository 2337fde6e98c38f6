"""SLA-aware request scheduling: priority classes, deadlines, shedding.

A FIFO batcher has exactly one scheduling rule — oldest first, one
coalescing deadline.  This module makes scheduling a *policy*:

* every request carries a **priority class** and an optional per-request
  **deadline**; the dispatch loop always serves the oldest *eligible*
  request first — earliest-deadline-first within a class.  *Across*
  classes the policy ``mode`` decides: ``strict`` (the default) is
  strict class precedence — a nonempty higher class always wins, so
  sustained saturation of a high class starves the low ones by design;
  ``weighted_fair`` is deficit-round-robin with aging — each class earns
  credit in proportion to its ``weight`` (scaled up the longer its head
  has waited), one unit of credit buys one dispatched request, and the
  next batch head comes from the first credit-positive class in
  round-robin order — so every class makes bounded progress under any
  saturating mix;
* a request that cannot be served inside its bound is **shed**, never
  dispatched and never left hanging: its future resolves exceptionally
  with :class:`RequestShed` carrying an explicit :class:`ShedReceipt`
  (which request, which class, why, and how long it waited).  Two bounds
  apply: the request's own deadline and the class-level latency bound
  ``shed_after_s``;
* an :class:`AdmissionController` throttles *intake* from the
  :class:`~repro.serving.stats.ServerStats` occupancy and queue-depth
  gauges, so a melting-down queue refuses new work up front instead of
  accepting requests it will only shed later.

The single-model FIFO server is the degenerate policy —
:meth:`SlaPolicy.fifo` builds one class with no deadlines and no
shedding, under which :meth:`SlaQueue.get_batch` is the classic FIFO
coalescing queue (the oldest request anchors the ``max_wait_s`` budget,
so it is a true latency budget; a full ``max_batch`` releases
immediately).

Batching across classes
-----------------------
Class precedence picks the batch *head*; the rest of the batch is filled
with queued requests **of the head's model** in the same eligibility
order, capped at the head class's ``max_batch``.  Riders never change who
is served first — one tile per request means batch mates run as parallel
tiles, not ahead of the head — they only recover throughput that strict
one-class batches would waste.  A latency-sensitive class keeps its
``max_batch`` small so its batches never grow service time under load.

Scheduling never touches the numerics: which batch a request rides, which
requests are shed around it, and in what order batches form are all
invisible to the served bits (one tile per request + keyed noise
substreams — the serving determinism contract).
"""

from __future__ import annotations

import math
import threading
import time
from bisect import insort
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .queue import QueueClosed

#: cross-class arbitration modes of :class:`SlaPolicy`
SLA_MODE_STRICT = "strict"               # strict class precedence
SLA_MODE_WEIGHTED_FAIR = "weighted_fair"  # deficit-round-robin with aging
SLA_MODES = (SLA_MODE_STRICT, SLA_MODE_WEIGHTED_FAIR)

#: shed reasons carried by :class:`ShedReceipt`
SHED_DEADLINE = "deadline"           # the request's own deadline expired
SHED_LATENCY_BOUND = "latency_bound"  # the class's shed_after_s bound hit
SHED_ADMISSION = "admission"         # refused at intake by the controller
SHED_FAULT_RECOVERY = "fault_recovery"  # die fault persisted past the
#                                         dispatch retry budget (the batch
#                                         is shed with receipts instead of
#                                         served wrong or left hanging)


@dataclass(frozen=True)
class PriorityClass:
    """One service class of an :class:`SlaPolicy`.

    ``max_batch`` / ``max_wait_s`` are the coalescing knobs for batches
    this class heads (the FIFO server's knobs, now per class);
    ``shed_after_s`` is the class latency bound: a request still queued
    that long past enqueue is shed instead of dispatched.  ``weight`` is
    the class's share under :data:`SLA_MODE_WEIGHTED_FAIR` — a class
    with weight 4 earns credit four times as fast as a class with
    weight 1 (ignored under :data:`SLA_MODE_STRICT`, where position in
    the policy tuple is everything).
    """

    name: str
    max_batch: int = 8
    max_wait_s: float = 0.002
    shed_after_s: Optional[float] = None
    weight: float = 1.0

    def __post_init__(self):
        if not self.name:
            raise ValueError("priority class needs a non-empty name")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_wait_s < 0:
            raise ValueError("max_wait_s must be >= 0")
        if self.shed_after_s is not None and self.shed_after_s <= 0:
            raise ValueError("shed_after_s must be > 0 (or None)")
        if not self.weight > 0:
            raise ValueError("weight must be > 0")


@dataclass(frozen=True)
class SlaPolicy:
    """An ordered tuple of priority classes, highest precedence first.

    ``mode`` picks the cross-class arbitration: :data:`SLA_MODE_STRICT`
    (precedence by tuple order — may starve low classes under sustained
    high-class saturation, by design) or
    :data:`SLA_MODE_WEIGHTED_FAIR` (deficit-round-robin over the class
    weights, with credit earned faster the longer a class's head has
    waited — ``aging_s`` is the head wait that doubles the earn rate, so
    no class waits unboundedly).  Either way, scheduling stays invisible
    to the served numerics: the mode changes only *when* a request
    dispatches, never the bits it produces.
    """

    classes: Tuple[PriorityClass, ...]
    mode: str = SLA_MODE_STRICT
    aging_s: float = 0.05

    def __post_init__(self):
        classes = tuple(self.classes)
        object.__setattr__(self, "classes", classes)
        if not classes:
            raise ValueError("policy needs at least one priority class")
        names = [cls.name for cls in classes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate priority class names in {names}")
        if self.mode not in SLA_MODES:
            raise ValueError(f"unknown SLA mode {self.mode!r}; "
                             f"choose from {list(SLA_MODES)}")
        if not self.aging_s > 0:
            raise ValueError("aging_s must be > 0")

    @classmethod
    def fifo(cls, max_batch: int = 8,
             max_wait_s: float = 0.002) -> "SlaPolicy":
        """The degenerate single-class policy of the FIFO server."""
        return cls((PriorityClass("default", max_batch=max_batch,
                                  max_wait_s=max_wait_s),))

    @property
    def names(self) -> List[str]:
        return [cls.name for cls in self.classes]

    def rank_of(self, name: Optional[str]) -> int:
        """Class index for ``name``; ``None`` means lowest precedence."""
        if name is None:
            return len(self.classes) - 1
        for rank, cls in enumerate(self.classes):
            if cls.name == name:
                return rank
        raise KeyError(f"unknown priority class {name!r}; "
                       f"policy defines {self.names}")


@dataclass
class SlaRequest:
    """One enqueued image with its SLA envelope.

    ``deadline_t`` is the absolute (monotonic-clock) expiry used by the
    scheduler; ``deadline_s`` is the relative budget the caller asked for,
    kept for the receipt.  ``entry`` is an opaque slot for whatever the
    submitter resolved ``model`` to (the server stores the
    :class:`~repro.serving.registry.RegisteredModel` here, so dispatch
    never re-resolves the name — an unregister between submit and
    dispatch cannot fail an accepted request).  ``future`` is what the
    :class:`~repro.serving.queue.Batcher` resolves or fails.
    """

    request_id: int
    image: np.ndarray
    model: str
    class_rank: int
    priority_class: str
    deadline_t: Optional[float] = None
    deadline_s: Optional[float] = None
    entry: object = None
    trace_id: Optional[str] = None
    enqueue_t: float = field(default_factory=time.monotonic)
    future: Future = field(default_factory=Future)

    def sort_key(self) -> Tuple[float, float, int]:
        """EDF within a class; FIFO among requests without deadlines."""
        deadline = math.inf if self.deadline_t is None else self.deadline_t
        return (deadline, self.enqueue_t, self.request_id)


@dataclass(frozen=True)
class ShedReceipt:
    """Why a request was rejected instead of served.

    ``reason`` is one of :data:`SHED_DEADLINE` (the request's own deadline
    expired in queue), :data:`SHED_LATENCY_BOUND` (its class's
    ``shed_after_s`` bound hit) or :data:`SHED_ADMISSION` (refused at
    intake).  ``queue_wait_s`` is how long it sat before being shed
    (0 for admission rejections).
    """

    request_id: int
    model: str
    priority_class: str
    reason: str
    queue_wait_s: float
    deadline_s: Optional[float] = None
    trace_id: Optional[str] = None

    def as_dict(self) -> Dict:
        return {
            "request_id": self.request_id,
            "model": self.model,
            "priority_class": self.priority_class,
            "reason": self.reason,
            "queue_wait_s": self.queue_wait_s,
            "deadline_s": self.deadline_s,
            "trace_id": self.trace_id,
        }


class RequestShed(RuntimeError):
    """A request was shed; ``receipt`` says which, by whom and why."""

    def __init__(self, receipt: ShedReceipt):
        super().__init__(
            f"request {receipt.request_id} ({receipt.model!r}, class "
            f"{receipt.priority_class!r}) shed: {receipt.reason} after "
            f"{receipt.queue_wait_s * 1e3:.2f} ms in queue")
        self.receipt = receipt


class AdmissionController:
    """Intake throttle driven by the server's operational gauges.

    Admission is decided *before* a request is queued, from the two
    signals :class:`~repro.serving.stats.ServerStats` already maintains:

    * ``max_queue_depth`` — refuse when that many requests are already
      waiting (the queue is past the point where more intake only turns
      into deadline sheds);
    * ``max_occupancy`` — refuse when the dispatch path has been busy at
      least that fraction of wall time *and* at least ``min_queue_depth``
      requests are queued (high occupancy with an empty queue is a
      healthy saturated server, not a meltdown).

    The async front end adds two *transport* gauges, checked by
    :meth:`admit_transport` before a connection or body is even read:

    * ``max_connections`` — refuse new connections past this many open
      sockets (each open connection holds parser/buffer state);
    * ``max_inflight_bytes`` — refuse new request bodies while this many
      decoded payload bytes are already in flight (bounds resident
      memory under thousands of slow streams).

    All thresholds are optional; an unconfigured controller admits
    everything.
    """

    def __init__(self, max_queue_depth: Optional[int] = None,
                 max_occupancy: Optional[float] = None,
                 min_queue_depth: int = 1,
                 max_connections: Optional[int] = None,
                 max_inflight_bytes: Optional[int] = None):
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1 (or None)")
        if max_occupancy is not None and not 0.0 < max_occupancy <= 1.0:
            raise ValueError("max_occupancy must be in (0, 1] (or None)")
        if min_queue_depth < 0:
            raise ValueError("min_queue_depth must be >= 0")
        if max_connections is not None and max_connections < 1:
            raise ValueError("max_connections must be >= 1 (or None)")
        if max_inflight_bytes is not None and max_inflight_bytes < 1:
            raise ValueError("max_inflight_bytes must be >= 1 (or None)")
        self.max_queue_depth = max_queue_depth
        self.max_occupancy = max_occupancy
        self.min_queue_depth = min_queue_depth
        self.max_connections = max_connections
        self.max_inflight_bytes = max_inflight_bytes

    def admit(self, queue_depth: int, occupancy: float) -> bool:
        """Whether a new request should be accepted right now."""
        if (self.max_queue_depth is not None
                and queue_depth >= self.max_queue_depth):
            return False
        if (self.max_occupancy is not None
                and occupancy >= self.max_occupancy
                and queue_depth >= self.min_queue_depth):
            return False
        return True

    def admit_transport(self, connections: int, inflight_bytes: int) -> bool:
        """Whether the transport should take on more work right now.

        ``connections`` counts *already-open* sockets (a new accept is
        refused when the count has reached ``max_connections``);
        ``inflight_bytes`` counts request-payload bytes currently
        resident (a new body is refused once the gauge is at or past
        ``max_inflight_bytes``).
        """
        if (self.max_connections is not None
                and connections >= self.max_connections):
            return False
        if (self.max_inflight_bytes is not None
                and inflight_bytes >= self.max_inflight_bytes):
            return False
        return True


class SlaQueue:
    """Thread-safe multi-class priority queue with SLA-aware extraction.

    One sorted pending list per priority class (EDF order, FIFO among
    undeadlined peers).  :meth:`get_batch` picks the head by strict class
    precedence, sheds anything whose deadline or class latency bound
    expired (resolving its future with :class:`RequestShed` — shed
    requests are *never* dispatched), coalesces same-model requests under
    the head class's ``max_batch`` / ``max_wait_s``, and returns ``None``
    only when closed and drained.

    ``on_shed`` (if given) is called with each :class:`ShedReceipt` —
    the server wires it to ``InferenceServer.record_shed``.
    """

    def __init__(self, policy: SlaPolicy,
                 on_shed: Optional[Callable[[ShedReceipt], None]] = None):
        self.policy = policy
        self._pending: List[List[SlaRequest]] = [[] for _ in policy.classes]
        self._cond = threading.Condition()
        self._closed = False
        self._on_shed = on_shed
        # weighted_fair state: per-class DRR credit and the round-robin
        # pointer (both untouched under strict mode)
        self._deficits: List[float] = [0.0] * len(policy.classes)
        self._rr = 0

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Requests currently waiting, all classes (a racy gauge)."""
        with self._cond:
            return sum(len(pending) for pending in self._pending)

    def depth_of(self, class_name: str) -> int:
        rank = self.policy.rank_of(class_name)
        with self._cond:
            return len(self._pending[rank])

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    def put(self, request: SlaRequest) -> None:
        if not 0 <= request.class_rank < len(self.policy.classes):
            raise ValueError(f"class_rank {request.class_rank} outside "
                             f"policy with {len(self.policy.classes)} classes")
        with self._cond:
            if self._closed:
                raise QueueClosed("request queue is closed")
            insort(self._pending[request.class_rank], request,
                   key=SlaRequest.sort_key)
            self._cond.notify_all()

    def close(self) -> None:
        """Refuse new :meth:`put` calls; queued requests stay drainable
        (and still subject to deadline/latency-bound shedding)."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    # ------------------------------------------------------------------
    def _expiry_t(self, request: SlaRequest, cls: PriorityClass) -> float:
        expiry = math.inf
        if request.deadline_t is not None:
            expiry = request.deadline_t
        if cls.shed_after_s is not None:
            expiry = min(expiry, request.enqueue_t + cls.shed_after_s)
        return expiry

    def _shed_locked(self, request: SlaRequest, reason: str,
                     now: float) -> None:
        receipt = ShedReceipt(
            request_id=request.request_id, model=request.model,
            priority_class=request.priority_class, reason=reason,
            queue_wait_s=now - request.enqueue_t,
            deadline_s=request.deadline_s, trace_id=request.trace_id)
        if not request.future.done():
            try:
                request.future.set_exception(RequestShed(receipt))
            except InvalidStateError:
                pass  # cancelled between check and set
        if self._on_shed is not None:
            self._on_shed(receipt)

    def _sweep_expired_locked(self, now: float) -> None:
        """Shed every queued request whose bound has already passed."""
        for rank, pending in enumerate(self._pending):
            cls = self.policy.classes[rank]
            keep = []
            for request in pending:
                if self._expiry_t(request, cls) > now:
                    keep.append(request)
                    continue
                deadline_hit = (request.deadline_t is not None
                                and request.deadline_t <= now)
                bound = (request.enqueue_t + cls.shed_after_s
                         if cls.shed_after_s is not None else math.inf)
                reason = (SHED_DEADLINE
                          if deadline_hit and request.deadline_t <= bound
                          else SHED_LATENCY_BOUND)
                self._shed_locked(request, reason, now)
            self._pending[rank] = keep

    def _head_locked(self, now: float) -> Optional[SlaRequest]:
        if self.policy.mode == SLA_MODE_WEIGHTED_FAIR:
            return self._drr_head_locked(now)
        for pending in self._pending:
            if pending:
                return pending[0]
        return None

    def _drr_head_locked(self, now: float) -> Optional[SlaRequest]:
        """Deficit-round-robin with aging: the ``weighted_fair`` head.

        One unit of credit buys one dispatched request.  An idle class
        forfeits its credit (classic DRR — no saving up while absent).
        When no backlogged class can afford a dispatch, every backlogged
        class earns ``weight * (1 + head_wait / aging_s)`` — the aging
        term grows a waiting class's earn rate linearly with its head's
        queue time, so however small its weight, its wait to the next
        grant is bounded.  The head comes from the first credit-positive
        class at or after the round-robin pointer, EDF within the class.
        """
        nonempty = [rank for rank, pending in enumerate(self._pending)
                    if pending]
        if not nonempty:
            return None
        for rank in range(len(self._pending)):
            if not self._pending[rank]:
                self._deficits[rank] = 0.0
        while not any(self._deficits[rank] >= 1.0 for rank in nonempty):
            for rank in nonempty:
                cls = self.policy.classes[rank]
                wait = max(0.0, now - self._pending[rank][0].enqueue_t)
                self._deficits[rank] += cls.weight * (
                    1.0 + wait / self.policy.aging_s)
        for offset in range(len(self._pending)):
            rank = (self._rr + offset) % len(self._pending)
            if self._pending[rank] and self._deficits[rank] >= 1.0:
                self._rr = (rank + 1) % len(self._pending)
                return self._pending[rank][0]
        return None  # unreachable: the refill loop guarantees a winner

    def _next_expiry_locked(self) -> float:
        expiry = math.inf
        for rank, pending in enumerate(self._pending):
            cls = self.policy.classes[rank]
            for request in pending:
                expiry = min(expiry, self._expiry_t(request, cls))
        return expiry

    def _same_model_locked(self, head: SlaRequest,
                           limit: int) -> List[SlaRequest]:
        """Queued requests of the head's model in eligibility order.

        Matches on the resolved ``entry`` as well as the name, so a
        tenant unregistered and re-registered under the same name
        between two submits never mixes generations in one batch.

        The head is seeded first: under strict precedence it is the
        first match anyway, but under weighted-fair arbitration a
        low-class head can win the round while higher-class requests of
        the same model sit queued — coalescing in eligibility order
        alone would fill the batch with those riders and evict the very
        request the credit was spent on.
        """
        out: List[SlaRequest] = [head]
        for pending in self._pending:
            for request in pending:
                if len(out) >= limit:
                    return out
                if (request is not head and request.model == head.model
                        and request.entry is head.entry):
                    out.append(request)
        return out

    def _remove_locked(self, batch: Sequence[SlaRequest]) -> None:
        chosen = {id(request) for request in batch}
        for rank, pending in enumerate(self._pending):
            self._pending[rank] = [request for request in pending
                                   if id(request) not in chosen]
        if self.policy.mode == SLA_MODE_WEIGHTED_FAIR:
            # each dispatched request bills one credit to its own class
            # (riders too — a free rider would let a heavy class consume
            # pool time it never paid for).  The floor bounds the debt a
            # class can accrue by riding, so the refill loop stays short.
            for request in batch:
                rank = request.class_rank
                floor = -float(self.policy.classes[rank].max_batch)
                self._deficits[rank] = max(self._deficits[rank] - 1.0, floor)

    # ------------------------------------------------------------------
    def get_batch(self) -> Optional[List[SlaRequest]]:
        """Extract the next batch under the policy (``None`` = drained).

        Selection: shed everything expired, pick the head (cross-class
        arbitration per ``policy.mode`` — strict precedence or
        deficit-round-robin — EDF within the class), then coalesce queued requests
        of the head's model — in the same eligibility order — until the
        head class's ``max_batch`` is full or the head's ``max_wait_s``
        budget (anchored on its enqueue time, clamped by its own expiry)
        runs out.  Requests of other models stay queued for the next
        batch.  Blocks while the queue is empty and open.
        """
        with self._cond:
            while True:
                now = time.monotonic()
                self._sweep_expired_locked(now)
                head = self._head_locked(now)
                if head is None:
                    if self._closed:
                        return None
                    self._cond.wait()
                    continue
                cls = self.policy.classes[head.class_rank]
                release_t = head.enqueue_t + cls.max_wait_s
                if self._expiry_t(head, cls) < release_t:
                    # waiting out the coalescing budget would cross the
                    # head's expiry: dispatch now with what is in hand
                    # rather than shed a head that can still be served
                    release_t = now
                batch = self._same_model_locked(head, cls.max_batch)
                if (len(batch) >= cls.max_batch or now >= release_t
                        or self._closed):
                    self._remove_locked(batch)
                    return batch
                timeout = min(release_t, self._next_expiry_locked()) - now
                self._cond.wait(timeout=max(timeout, 0.0))
