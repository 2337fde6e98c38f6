"""The dispatch loop between a request queue and the batch executor.

:class:`Batcher` drains a queue batch by batch on one daemon thread,
hands each batch to a dispatch callback, and — on a dispatch error —
fails every request in the batch so no caller hangs.  The queue is
:class:`repro.serving.scheduler.SlaQueue`, whose ``get_batch()`` carries
the per-class coalescing knobs (FIFO is the single-class
:meth:`~repro.serving.scheduler.SlaPolicy.fifo` policy); the batcher is
independent of what a "request" is beyond its ``future`` attribute.
"""

from __future__ import annotations

import threading
from concurrent.futures import InvalidStateError
from typing import Callable, List, Optional


class QueueClosed(RuntimeError):
    """Raised by a queue's ``put`` after its ``close``."""


class Batcher:
    """The dispatch loop: queue -> coalesced batches -> ``dispatch``.

    ``dispatch(batch)`` receives the list of requests of one batch and is
    responsible for resolving each request's ``future``.  If it raises
    instead, the batcher fails every *unresolved* future in the batch with
    that exception — a dispatch error never strands a caller — and keeps
    serving subsequent batches.

    ``queue.get_batch()`` returns the next coalesced batch, or ``None``
    once the queue is closed and drained — the loop's termination signal.
    """

    def __init__(self, queue, dispatch: Callable[[List], None]):
        self.queue = queue
        self.dispatch = dispatch
        self._thread: Optional[threading.Thread] = None

    def run(self) -> None:
        """Serve until the queue is closed and drained."""
        while True:
            batch = self.queue.get_batch()
            if batch is None:
                return
            try:
                self.dispatch(batch)
            except BaseException as exc:  # noqa: BLE001 — forwarded to callers
                for request in batch:
                    if not request.future.done():
                        try:
                            request.future.set_exception(exc)
                        except InvalidStateError:
                            pass  # cancelled between check and set: the
                            # loop (and the batcher thread) must survive

    def start(self) -> threading.Thread:
        """Run the loop on a daemon thread; returns the thread for join."""
        if self._thread is not None:
            raise RuntimeError("batcher already started")
        self._thread = threading.Thread(target=self.run,
                                        name="forms-batcher", daemon=True)
        self._thread.start()
        return self._thread

    def join(self, timeout: Optional[float] = None) -> None:
        if self._thread is not None:
            self._thread.join(timeout)

    def is_alive(self) -> bool:
        """Whether the dispatch loop is still running (False if never
        started)."""
        return self._thread is not None and self._thread.is_alive()
