"""Live die-fault recovery through the serving stack, end to end.

The acceptance contract: a stuck-at fault flipped onto a live die
mid-traffic is detected by the checksum guards, the die is quarantined
and re-programmed through the shared die cache, the batch retries, and
every completed request is **bit-identical to the pre-fault serial
forward** while carrying an explicit recovery receipt.  A fault that
outlives the retry budget sheds the batch with ``fault_recovery``
receipts — never a silent wrong answer, never a hung future — and
``shutdown`` racing a recovery drains cleanly instead of deadlocking.
"""

import threading
import time

import numpy as np
import pytest

from repro.obs import parse_prometheus_text
from repro.serving.demo import post_relu_network as _post_relu_network
from repro.reram import (ADCSpec, DeviceSpec, DieCache, ReRAMDevice,
                         paper_adc_bits)
from repro.reram.faults import (FaultEvent, FaultInjector,
                                InjectedDispatchError)
from repro.runtime import run_network_serial
from repro.serving import (DIE_HEALTHY, DIE_QUARANTINED, InferenceServer,
                           ModelRegistry, RequestShed, SHED_FAULT_RECOVERY)
from repro.serving.demo import mixed_policy, tenant_models
from repro.serving.routes import ReplicaBackend

RESULT_TIMEOUT_S = 30.0   # bounded waits: a timeout IS a hung future


@pytest.fixture(scope="module")
def network_case():
    model, config, images = _post_relu_network()
    device = ReRAMDevice(DeviceSpec(), 0.0)
    adc = ADCSpec(bits=paper_adc_bits(config.fragment_size))
    return model, config, images, device, adc


def make_server(network_case, **kwargs):
    model, config, images, device, adc = network_case
    kwargs.setdefault("detect_faults", True)
    kwargs.setdefault("max_batch", 4)
    kwargs.setdefault("max_wait_s", 0.01)
    return InferenceServer.from_model(model, config, device, adc=adc,
                                      activation_bits=12, **kwargs)


def stuck_at(at_dispatch=0, **kwargs):
    kwargs.setdefault("sa0_rate", 0.05)
    kwargs.setdefault("sa1_rate", 0.02)
    return FaultEvent("stuck_at", at_dispatch=at_dispatch, **kwargs)


class TestRecoveryEndToEnd:
    def test_recovered_requests_bit_identical_with_receipts(
            self, network_case):
        images = network_case[2]
        injector = FaultInjector([stuck_at(at_dispatch=0)], seed=5)
        with make_server(network_case, fault_injector=injector) as server:
            serial = run_network_serial(server.model, images, tile_size=1)
            futures = [server.submit_async(images[i % images.shape[0]])
                       for i in range(8)]
            results = [f.result(timeout=RESULT_TIMEOUT_S) for f in futures]
            snapshot = server.server_stats()
            health = server.die_health.snapshot()

        assert snapshot["faults_detected"] >= 1
        assert snapshot["fault_recoveries"] >= 1
        assert snapshot["requests_recovered"] >= 1
        assert injector.pending == []
        recovered = [r for r in results if r.stats.recovery is not None]
        assert recovered, "the first dispatch rode the injected fault"
        for result in recovered:
            rec = result.stats.recovery
            assert rec["retries"] >= 1
            assert rec["detected_planes"] == ["main"] or rec["detected_planes"]
            assert rec["reprogram"]["via_die_cache"] is True
            assert sum(rec["stuck_cells"].values()) > 0
        # the whole point: recovery restored the exact pre-fault die
        for i, result in enumerate(results):
            np.testing.assert_array_equal(
                result.output, serial[i % images.shape[0]])
        # recovery completed: every die back to healthy, round trip counted
        assert all(state == DIE_HEALTHY
                   for state in health["dies"].values())
        assert health["recoveries"] >= 1
        transitions = [(e["from"], e["to"]) for e in health["events"]]
        assert ("healthy", "quarantined") in transitions
        assert ("reprogramming", "healthy") in transitions

    def test_receipt_serializes(self, network_case):
        images = network_case[2]
        injector = FaultInjector([stuck_at(at_dispatch=0)], seed=5)
        with make_server(network_case, fault_injector=injector) as server:
            result = server.submit_async(images[0]).result(
                timeout=RESULT_TIMEOUT_S)
        import json
        payload = result.stats.as_dict()
        assert payload["recovery"] is not None
        json.dumps(payload)   # receipts travel over the wire

    def test_retry_budget_exhaustion_sheds_with_receipts(self,
                                                         network_case):
        """max_fault_retries=0: the fault is detected, never recovered —
        every request sheds explicitly, no future hangs."""
        images = network_case[2]
        injector = FaultInjector([stuck_at(at_dispatch=0)], seed=5)
        with make_server(network_case, fault_injector=injector,
                         max_fault_retries=0) as server:
            futures = [server.submit_async(images[0]) for _ in range(3)]
            receipts = []
            for future in futures:
                with pytest.raises(RequestShed) as info:
                    future.result(timeout=RESULT_TIMEOUT_S)
                receipts.append(info.value.receipt)
            snapshot = server.server_stats()
            health = server.die_health.snapshot()
        assert all(r.reason == SHED_FAULT_RECOVERY for r in receipts)
        assert snapshot["shed_by_reason"][SHED_FAULT_RECOVERY] == 3
        assert snapshot["faults_detected"] >= 1
        assert snapshot["fault_recoveries"] == 0
        # the die stays quarantined: recovery could not hold
        assert DIE_QUARANTINED in health["dies"].values()

    def test_clean_traffic_records_no_fault_activity(self, network_case):
        images = network_case[2]
        with make_server(network_case) as server:
            serial = run_network_serial(server.model, images, tile_size=1)
            result = server.submit_async(images[0]).result(
                timeout=RESULT_TIMEOUT_S)
            snapshot = server.server_stats()
        np.testing.assert_array_equal(result.output, serial[0])
        assert result.stats.recovery is None
        assert snapshot["faults_detected"] == 0
        assert snapshot["fault_recoveries"] == 0

    def test_injector_without_guards_fails_loud_not_wrong(self,
                                                          network_case):
        """detect_faults=False + injected fault: outputs would be wrong,
        so this configuration is on the operator — but nothing hangs and
        the log shows what landed."""
        images = network_case[2]
        injector = FaultInjector([stuck_at(at_dispatch=0)], seed=5)
        with make_server(network_case, detect_faults=False,
                         fault_injector=injector) as server:
            result = server.submit_async(images[0]).result(
                timeout=RESULT_TIMEOUT_S)
        assert result is not None
        assert injector.log()[0]["stuck_cells_total"] > 0

    def test_validation(self, network_case):
        with pytest.raises(ValueError):
            make_server(network_case, max_fault_retries=-1)

    def test_recoveries_count_reprogram_cycles_on_every_surface(
            self, network_case):
        """Two dies flipped before one batch: the first forward trips
        layer 0, the retry trips layer 2, the second retry completes.
        That is one recovered request with ``retries == 2`` and two
        re-program cycles — and ``/v1/stats``, ``/healthz`` and
        ``/metrics`` must all read the same two."""
        images = network_case[2]
        injector = FaultInjector([stuck_at(layer="0"), stuck_at(layer="2")],
                                 seed=5)
        with make_server(network_case, fault_injector=injector,
                         guard_coverage=1.0, max_batch=1) as server:
            result = server.submit_async(images[0]).result(
                timeout=RESULT_TIMEOUT_S)
            stats = server.server_stats()
            _, healthz = ReplicaBackend(server).healthz(False)
            families = parse_prometheus_text(server.metrics_text())
        assert result.stats.recovery["retries"] == 2
        assert stats["requests_recovered"] == 1
        assert stats["fault_recoveries"] == 2
        assert healthz["dies"]["recoveries"] == 2
        assert families["forms_fault_recoveries_total"]["samples"][
            ("forms_fault_recoveries_total", ())] == 2


class TestTwoTenantChaos:
    def test_scripted_faults_on_both_tenants_and_a_crashed_dispatch(self):
        """Both tenants on one registry and one shared die cache lose a
        die mid-burst, one dispatch stalls and one crashes: every
        completed request equals the *pre-fault* serial forward, every
        flipped die is detected and recovered, only the crashed batch
        fails, and every future resolves."""
        models, config, images = tenant_models(seed=0)
        device = ReRAMDevice(DeviceSpec(), 0.0)
        adc = ADCSpec(bits=paper_adc_bits(config.fragment_size))
        registry = ModelRegistry(workers=2, die_cache=DieCache())
        for name, model in models.items():
            registry.register(name, model, config, device, adc=adc,
                              activation_bits=12)
        # the oracle, taken before any fault exists
        serial = {name: run_network_serial(registry.get(name).network,
                                           images, tile_size=1)
                  for name in models}
        injector = FaultInjector([
            stuck_at(at_dispatch=1, model="batch"),
            FaultEvent("delay", at_dispatch=2, delay_s=0.002),
            stuck_at(at_dispatch=4, model="fast"),
            FaultEvent("crash", at_dispatch=6)], seed=0)
        # one request per dispatch and no latency bound: twelve dispatches
        # whatever order the scheduler picks, so every event comes due,
        # each flipped tenant dispatches again after its flip, and the
        # only permitted failure is the scripted crash
        policy = mixed_policy(interactive_max_batch=1, bulk_max_batch=1,
                              bulk_shed_after_ms=None)
        plan = [("fast", "interactive") if i % 2 else ("batch", "bulk")
                for i in range(12)]
        with registry, InferenceServer(registry=registry, policy=policy,
                                       detect_faults=True,
                                       fault_injector=injector) as server:
            futures = [server.submit_async(images[i % 8], model=model,
                                           priority=priority)
                       for i, (model, priority) in enumerate(plan)]
            served, crashed = {}, []
            for i, future in enumerate(futures):
                try:    # bounded wait: a timeout here IS a hung future
                    served[i] = future.result(timeout=RESULT_TIMEOUT_S)
                except InjectedDispatchError:
                    crashed.append(i)
            snapshot = server.server_stats()
            health = server.die_health.snapshot()

        for i, result in served.items():
            np.testing.assert_array_equal(result.output,
                                          serial[plan[i][0]][i % 8])
        assert len(crashed) == 1 and snapshot["requests_failed"] == 1
        # dispatch 6 died; the server went on to serve 7..11
        assert ({result.stats.batch_id for result in served.values()}
                == set(range(12)) - {6})
        assert injector.pending == []
        flips = [entry for entry in injector.log()
                 if entry.get("stuck_cells_total", 0) > 0]
        assert {entry["model"] for entry in flips} == {"fast", "batch"}
        assert snapshot["faults_detected"] >= len(flips)
        assert snapshot["fault_recoveries"] >= len(flips)
        assert any(result.stats.recovery is not None
                   for result in served.values())
        assert all(state == DIE_HEALTHY for state in health["dies"].values())


class TestShutdownRace:
    def test_shutdown_racing_recovery_never_deadlocks(self, network_case):
        """Satellite: shutdown() while a die re-program is in flight on
        the batcher thread must wait the recovery out (or shed with
        receipts) — every future resolves, join() returns."""
        images = network_case[2]
        injector = FaultInjector([stuck_at(at_dispatch=0)], seed=5)
        server = make_server(network_case, fault_injector=injector)
        try:
            serial = run_network_serial(server.model, images, tile_size=1)
            futures = [server.submit_async(images[i % images.shape[0]])
                       for i in range(6)]
            # shut down from a second thread while the first dispatch is
            # (deterministically) inside the fault-recovery path
            closer = threading.Thread(target=server.shutdown)
            closer.start()
            closer.join(timeout=RESULT_TIMEOUT_S)
            assert not closer.is_alive(), "shutdown deadlocked"
            outcomes = []
            for i, future in enumerate(futures):
                try:
                    outcomes.append(future.result(timeout=RESULT_TIMEOUT_S))
                except RequestShed as exc:
                    # acceptable: drained with an explicit receipt
                    assert exc.receipt.reason
                    outcomes.append(None)
            for i, result in enumerate(outcomes):
                if result is not None:
                    np.testing.assert_array_equal(
                        result.output, serial[i % images.shape[0]])
            assert not server.batcher.is_alive()
        finally:
            server.shutdown()
