"""Seeded fuzz: the fused kernel equals the cycle oracle on every backend.

~50 randomized engine configurations — shape, fragment size, weight/cell/
activation bit-widths, sparsity, position-tile count — drawn from one
pinned RNG (:data:`FUZZ_SEED`), each asserting the fused ``matvec_int``
bit-identical to ``matvec_int_reference``, with the fused side executed
serially or fanned out over thread / process pools in round-robin.  About
half the draws (``meta["check_dense"]``) also assert the dense executor,
``matvec_int_dense``, against the same oracle.  A failing draw prints its full configuration, so it replays
from the seed alone.
"""

import numpy as np
import pytest

from repro.runtime import WorkerPool, shared_memory_available
from repro.runtime.probes import run_engine_mvm

pytestmark = pytest.mark.skipif(
    not shared_memory_available()[0],
    reason=f"shared memory unavailable: {shared_memory_available()[1]}")

FUZZ_SEED = 0xF0125
N_CONFIGS = 51          # divisible by the 3-backend round-robin
BACKENDS = ("serial", "thread", "process")


@pytest.fixture(scope="module")
def pools():
    with WorkerPool(2, backend="thread") as threads, \
            WorkerPool(2, backend="process") as procs:
        yield {"thread": threads, "process": procs}


def test_fuzz_fused_kernel_matches_reference(random_engine_case, pools):
    rng = np.random.default_rng(FUZZ_SEED)
    for i in range(N_CONFIGS):
        engine, x_int, meta = random_engine_case(rng)
        n_tiles = int(rng.integers(1, 5))
        backend = BACKENDS[i % len(BACKENDS)]
        expected = engine.matvec_int_reference(x_int)
        if backend == "serial":
            out = engine.matvec_int(x_int)
        else:
            # fan position tiles out: per-position results are independent,
            # so any tiling must reassemble to the oracle bits
            tiles = [t for t in np.array_split(x_int, n_tiles, axis=1)
                     if t.shape[1]]
            outs = pools[backend].map(run_engine_mvm,
                                      [(engine, t) for t in tiles])
            out = np.concatenate(outs, axis=1)
        np.testing.assert_array_equal(
            out, expected,
            err_msg=f"draw {i} on backend={backend!r} tiles={n_tiles}: "
                    f"{meta}")
        if meta["check_dense"]:
            np.testing.assert_array_equal(
                engine.matvec_int_dense(x_int), expected,
                err_msg=f"draw {i} dense executor: {meta}")
