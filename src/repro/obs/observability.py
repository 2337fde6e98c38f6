"""The per-server observability bundle: metrics + traces.

One :class:`Observability` object travels with one
:class:`~repro.serving.InferenceServer` (or one
:class:`~repro.serving.ClusterRouter`) and owns its two read-side
stores:

* ``metrics`` — the :class:`~repro.obs.metrics.MetricsRegistry` behind
  ``GET /metrics``;
* ``traces`` — the :class:`~repro.obs.trace.TraceRing` behind
  ``GET /v1/trace/<id>``.

Counts are not kept here: the server's
:class:`~repro.serving.stats.ServerStats` (behind ``GET /v1/stats`` and
``GET /v1/usage``) and the router's ``RouterStats`` register their
families on ``metrics`` with a *source*, so a scrape reads the one store
at collect time.

``Observability.disabled()`` is the ``--no-metrics`` shape: the
registry hands out no-op instruments, the ring drops every put, and
the serving hot path skips span assembly entirely.
"""

from __future__ import annotations

from .metrics import MetricsRegistry
from .trace import TraceRing


class Observability:
    """Metrics registry + trace ring for one serving entity."""

    def __init__(self, *, metrics: bool = True, tracing: bool = True,
                 trace_ring: int = 256, profile_engines: bool = False):
        self.metrics = MetricsRegistry(enabled=metrics)
        self.traces = TraceRing(trace_ring if tracing else 0)
        self.profile_engines = profile_engines

    @classmethod
    def disabled(cls) -> "Observability":
        """Everything off: no-op instruments, zero-capacity ring."""
        return cls(metrics=False, tracing=False, trace_ring=0)

    @property
    def tracing(self) -> bool:
        return self.traces.capacity > 0
