"""Engine micro-benchmark instrumentation and the fused-vs-reference suite.

Two modules, and nothing outside this package under ``src/repro/``
imports either (the dependency runs harness -> product):

* :mod:`repro.perf.instrument` — reusable wall-clock timing
  (:func:`time_callable`) and engine conversion-count metering
  (:class:`EngineMeter`) with no dependency on what is being measured;
* :mod:`repro.perf.suite` — the micro-benchmark definitions behind
  ``benchmarks/run_perf_suite.py``, which records each fused engine
  path against its retained reference to ``BENCH_engine.json`` at the
  repo root.

End-to-end performance — offline throughput, served latency and
goodput, the per-layer budget — is measured by ``benchmarks/e2e/run.py``
against ``BENCHMARK.json``, not here.
"""

from .instrument import EngineMeter, TimingResult, time_callable
from .suite import BENCH_SCHEMA, default_suite, run_suite, write_payload

__all__ = [
    "TimingResult", "time_callable", "EngineMeter",
    "BENCH_SCHEMA", "default_suite", "run_suite", "write_payload",
]
