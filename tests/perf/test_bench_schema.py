"""BENCH_engine.json schema: the backend metadata of an engine-suite run.

``run_suite`` records which ``repro.runtime`` backend produced its
multi-worker points — a ``backend`` host field, per-record backend meta
on the multi-worker benches, and a ``parallelism_note`` on single-core
hosts only.
"""

import os

import pytest

from repro.perf.suite import bench_insitu_network, run_suite


@pytest.fixture(scope="module")
def smoke_payload():
    return run_suite(smoke=True, repeats=1, backend="process")


def test_host_records_backend_and_core_note(smoke_payload):
    host = smoke_payload["host"]
    assert host["backend"] == "process"
    if (os.cpu_count() or 1) <= 1:
        assert "single-core" in host["parallelism_note"]
    else:
        assert "parallelism_note" not in host


def test_network_bench_meta_carries_backend():
    record = bench_insitu_network(2, repeats=1, backend="process")
    assert record["meta"]["backend"] == "process"
    assert record["meta"]["workers"] == 2
