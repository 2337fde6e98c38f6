"""Opt-in engine profiling: per-tier wall time inside ``matvec_int``.

Arm a :class:`EngineProfiler` on a model's engines and every MVM
dispatch records its wall time into the
``forms_engine_profile_seconds{model,layer,tier}`` histogram and (when
a :class:`~repro.obs.trace.SpanRecorder` is bound on the dispatching
thread) an ``engine`` span — so traces show *which tier served which
layer* and the BENCH story can attribute latency to kernel vs
scheduling vs transport.

The tier label is the rung of the engine's dispatch ladder
(:data:`repro.reram.engine.TIERS`) that
:meth:`~repro.reram.engine.InSituLayerEngine.dispatch_tier` picks and
``matvec_int`` runs — one decision, so the label is the executor that
was timed (inside the ``analog`` and ``integer`` rungs, blocks too small
to amortize a sparse task run that rung on the dense executor).
Profiling is read-only with respect
to numerics — it brackets the dispatch with ``perf_counter()`` and
touches no operand — and it never crosses into process-backend workers
(the ``profile`` attribute is dropped from the engine's pickled state,
like the pool and the guard), so worker-process MVMs are simply
unprofiled rather than differently computed.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping

from .catalog import instrument
from .metrics import MetricsRegistry
from .trace import record_event


class EngineProfiler:
    """Per-(model, layer, tier) MVM wall-time recorder.

    One profiler serves any number of engines; :meth:`arm` tags each
    engine with its model/layer identity and installs the hook.  The
    hot-path cost when armed is two ``perf_counter()`` calls, one dict
    lookup and one histogram observe per MVM; disarmed engines
    (``engine.profile is None``) pay a single attribute read.
    """

    def __init__(self, metrics: MetricsRegistry, *, trace: bool = True):
        self._hist = instrument(metrics, "forms_engine_profile_seconds")
        self._names: Dict[int, tuple] = {}
        self._trace = trace

    def arm(self, engines: Mapping[str, object],
            model: str = "default") -> None:
        for layer, engine in engines.items():
            self._names[id(engine)] = (str(model), str(layer))
            engine.profile = self

    def disarm(self, engines: Iterable[object]) -> None:
        for engine in engines:
            engine.profile = None
            self._names.pop(id(engine), None)

    def record(self, engine, tier: str, duration_s: float) -> None:
        model, layer = self._names.get(id(engine), ("?", "?"))
        self._hist.labels(model, layer, tier).observe(duration_s)
        if self._trace:
            record_event("engine", duration_s, layer=layer, tier=tier)
