"""Whole-replica chaos: SIGKILL subprocess replicas under live traffic.

The heavyweight end of the cluster suite (real ``python -m repro serve``
subprocesses behind a real router socket): a replica dies mid-request
and the caller never notices — every completed answer bit-identical to
the parent's serial forward, every failure a documented receipt, every
request resolved in bounded time, and the restarted replica rejoins.
Request counts are kept small.
"""

import threading
import time

import numpy as np

from repro.runtime import run_network_serial
from repro.serving import ERROR_CODES
from repro.serving.cluster import ClusterHarness
from repro.serving.demo import (BATCH_MODEL, BULK, FAST_MODEL, INTERACTIVE,
                                build_demo_server)

#: what a routed request may get instead of an answer while replicas die:
#: a live replica's shed, or the router's every-candidate-is-down receipt
RECEIPT_CODES = {"shed", "cluster_unavailable"}
assert RECEIPT_CODES <= set(ERROR_CODES)

#: bounded wait proving "zero hung requests", counted from the last
#: arrival: generous against restart jitter, tiny against an actual hang
RESOLVE_TIMEOUT_S = 120.0


class TestSubprocessCluster:
    def test_boot_serve_kill_restart(self):
        """The harness lifecycle by hand: spawn, serve through the
        router, SIGKILL a replica, keep serving, restart, rejoin."""
        server, traffic = build_demo_server(2, workers=1, seed=0,
                                            deadline_ms=None)
        image = traffic["images"][0]
        serial = run_network_serial(server.registry.get(FAST_MODEL).network,
                                    image[None], tile_size=1)[0]
        server.shutdown()

        with ClusterHarness(2, seed=0, probe_interval_s=0.1) as harness:
            client = harness.client(timeout=60.0)
            before = client.infer(image, model=FAST_MODEL)
            np.testing.assert_array_equal(before.output, serial)

            victim = harness.directory.placement(FAST_MODEL)[0]
            harness.kill(victim)
            after = client.infer(image, model=FAST_MODEL)   # failover
            np.testing.assert_array_equal(after.output, serial)

            harness.restart(victim)
            assert harness.directory.probe_once()[victim] == "up"
            again = client.infer(image, model=FAST_MODEL)
            np.testing.assert_array_equal(again.output, serial)

    def test_drive_cluster_chaos_contract(self):
        """Eight open-loop Poisson arrivals through the router while the
        interactive tenant's primary replica is SIGKILLed and restarted
        mid-run: bit-identity, documented receipts, zero hung requests,
        rejoin."""
        requests, rate_rps, seed = 8, 200.0, 0
        # the oracle: the same deterministic build the replicas boot from,
        # forwarded serially here before any chaos exists
        server, traffic = build_demo_server(2, workers=1, seed=seed,
                                            deadline_ms=None)
        images = traffic["images"]
        serial = {name: run_network_serial(
                      server.registry.get(name).network, images, tile_size=1)
                  for name in (FAST_MODEL, BATCH_MODEL)}
        server.shutdown()

        rng = np.random.default_rng(seed)
        image_idx = rng.integers(0, images.shape[0], size=requests)
        plan = [(FAST_MODEL, INTERACTIVE) if interactive
                else (BATCH_MODEL, BULK)
                for interactive in rng.random(requests) < 0.4]
        arrivals = np.concatenate(
            [[0.0], np.cumsum(rng.exponential(1.0 / rate_rps, requests - 1))])
        outcomes = [None] * requests
        actions = []

        with ClusterHarness(2, seed=seed) as harness:
            client = harness.client()
            # kill the replica actually serving the interactive tenant —
            # the failover we claim to survive, not a cold spare
            victim = harness.directory.placement(FAST_MODEL)[0]
            start = time.monotonic()

            def fire(i):
                time.sleep(max(0.0, start + arrivals[i] - time.monotonic()))
                model, priority = plan[i]
                try:
                    outcomes[i] = client.infer(
                        images[image_idx[i]], model=model, priority=priority,
                        binary=bool(i % 2), trace_id=f"cluster-{seed}-{i}")
                except Exception as exc:   # noqa: BLE001 — classified below
                    outcomes[i] = exc

            def kill_and_restart():
                # early in the arrival window, so traffic is in flight
                time.sleep(max(0.0, start + 0.4 * arrivals[-1]
                               - time.monotonic()))
                harness.kill(victim)
                actions.append("kill")
                harness.restart(victim)
                actions.append("restart")

            threads = [threading.Thread(target=fire, args=(i,), daemon=True)
                       for i in range(requests)]
            threads.append(threading.Thread(target=kill_and_restart,
                                            daemon=True))
            for thread in threads:
                thread.start()
            deadline = start + arrivals[-1] + RESOLVE_TIMEOUT_S
            for thread in threads:
                thread.join(timeout=max(0.0, deadline - time.monotonic()))
                assert not thread.is_alive(), \
                    "a request (or the kill/restart) hung"
            # the rejoin proof: one probe round sees every replica again
            states = harness.directory.probe_once()
            status, cluster = client.request("GET", "/v1/cluster")

        completed = 0
        for i, outcome in enumerate(outcomes):
            if isinstance(outcome, Exception):
                # transport errors carry no .code and must fail here
                assert getattr(outcome, "code", None) in RECEIPT_CODES, \
                    f"request {i} failed outside the receipts: {outcome!r}"
                continue
            completed += 1
            np.testing.assert_array_equal(
                outcome.output, serial[plan[i][0]][image_idx[i]],
                err_msg=f"request {i}: failover leaked into the numerics")
            assert outcome.stats.get("trace_id") == f"cluster-{seed}-{i}"
        assert completed >= 1
        assert actions == ["kill", "restart"]
        assert all(state == "up" for state in states.values())
        assert status == 200
        assert cluster["router"]["attempts"] >= requests
        assert all(info["state"] == "up" for info in
                   cluster["directory"]["replicas"].values())
