"""Observability is read-only w.r.t. numerics: the differential matrix.

For every backend in {serial, thread, process} x {ideal, read-noise},
the same images served three ways —

* a server with the default-armed observability bundle (metrics +
  tracing + usage metering) *and* the opt-in engine profiler armed,
* a server with :meth:`~repro.obs.Observability.disabled`,
* the serial single-image forward (the repo-wide contract reference) —

produce **byte-identical** outputs, and identical per-request
``EngineStats`` receipts.  This is the PR's acceptance proof that
instruments time and count but never touch an operand: the hard cell is
read noise, whose substreams are keyed on data (input digest, plane,
bit, fragment), never on timing or identity — so a span bracket or a
histogram observe cannot shift a single sample.
"""

import numpy as np
import pytest

from repro.obs import Observability
from repro.serving.demo import post_relu_network as _post_relu_network
from repro.reram import (ADCSpec, DeviceSpec, DieCache, ReRAMDevice,
                         paper_adc_bits)
from repro.reram.nonideal import ReadNoise
from repro.reram import NonidealEngine
from repro.runtime import (WorkerPool, run_network_serial,
                           shared_memory_available)
from repro.serving import InferenceServer

pytestmark = pytest.mark.skipif(
    not shared_memory_available()[0],
    reason=f"shared memory unavailable: {shared_memory_available()[1]}")

BACKENDS = ("serial", "thread", "process")


@pytest.fixture(scope="module")
def case():
    model, config, images = _post_relu_network()
    device = ReRAMDevice(DeviceSpec(), 0.0)
    adc = ADCSpec(bits=paper_adc_bits(config.fragment_size))
    # one die cache across every cell: programming is deterministic, so
    # shared dies are invisible to the bits and save most of the setup
    return model, config, images, device, adc, DieCache(maxsize=None)


@pytest.fixture(scope="module")
def pools():
    opened = {backend: WorkerPool(2, backend=backend)
              for backend in BACKENDS}
    yield opened
    for pool in opened.values():
        pool.close()


def make_server(case, pool, *, noise, obs):
    model, config, images, device, adc, die_cache = case
    kwargs = {}
    if noise:
        spec = DeviceSpec()
        kwargs.update(
            engine_cls=NonidealEngine,
            read_noise=ReadNoise.for_fragment(
                config.fragment_size, spec.g_max, spec.read_voltage,
                relative_sigma=0.05, seed=3))
    return InferenceServer.from_model(
        model, config, device, adc=adc, activation_bits=12,
        die_cache=die_cache, pool=pool, max_batch=4, max_wait_s=0.02,
        obs=obs, **kwargs)


@pytest.fixture(scope="module")
def baselines(case):
    """Serial single-image forwards per noise variant (the contract)."""
    model, config, images, device, adc, die_cache = case
    truth = {}
    for noise in (False, True):
        server = make_server(case, None, noise=noise,
                             obs=Observability.disabled())
        with server:
            truth[noise] = run_network_serial(server.model, images,
                                              tile_size=1)
    return truth


@pytest.mark.parametrize("noise", (False, True), ids=("ideal", "noise"))
@pytest.mark.parametrize("backend", BACKENDS)
def test_armed_equals_disabled_equals_serial(case, pools, baselines,
                                             backend, noise):
    images = case[2]
    outputs, receipts = {}, {}
    for mode, obs in (("armed", Observability()),
                      ("off", Observability.disabled())):
        with make_server(case, pools[backend], noise=noise,
                         obs=obs) as server:
            if mode == "armed":
                server.arm_profiling()   # the deepest hooks, on
            results = server.submit_many(images)
            outputs[mode] = [r.output for r in results]
            receipts[mode] = [r.stats.engine_stats for r in results]
            if mode == "armed":
                # the instruments did observe the traffic...
                assert server.usage_snapshot()["totals"]["requests"] \
                    == len(images)
    label = f"{backend} noise={noise}"
    for i, reference in enumerate(baselines[noise]):
        # ...while every output stayed byte-identical, armed or not
        np.testing.assert_array_equal(
            outputs["armed"][i], reference,
            err_msg=f"{label}: armed diverged from serial at {i}")
        np.testing.assert_array_equal(
            outputs["off"][i], reference,
            err_msg=f"{label}: disabled diverged from serial at {i}")
    assert receipts["armed"] == receipts["off"], \
        f"{label}: per-request EngineStats receipts diverged"


def test_tracing_off_vs_on_single_server_path(case):
    """The cheapest regression guard: one server, tracing toggled via the
    ring capacity, identical bits (exercises the spans=None dispatch
    branch against the recorder-armed one)."""
    images = case[2][:3]
    with make_server(case, None, noise=True,
                     obs=Observability(trace_ring=0)) as quiet:
        untraced = [r.output for r in quiet.submit_many(images)]
    with make_server(case, None, noise=True,
                     obs=Observability()) as loud:
        traced = [r.output for r in loud.submit_many(images)]
    for a, b in zip(untraced, traced):
        np.testing.assert_array_equal(a, b)
