"""Shared fixtures for the test suite.

The expensive fixtures (trained models) are session-scoped; everything
downstream clones them rather than retraining.
"""

import numpy as np
import pytest

from repro.nn import Adam, LeNet5, evaluate, fit, set_init_seed, synthetic_mnist
from repro.nn.data import make_synthetic


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def mnist_small():
    """A small synthetic MNIST split shared across tests."""
    return synthetic_mnist(train_size=192, test_size=96, seed=7)


@pytest.fixture(scope="session")
def trained_lenet(mnist_small):
    """A LeNet-5 trained well above chance on the small MNIST stand-in."""
    train_set, test_set = mnist_small
    set_init_seed(7)
    model = LeNet5(num_classes=10, in_channels=1, image_size=16)
    fit(model, train_set, Adam(model.parameters(), lr=1e-3), epochs=4,
        batch_size=32, seed=7)
    accuracy = evaluate(model, test_set).accuracy
    assert accuracy > 0.5, f"fixture model failed to train ({accuracy:.2f})"
    return model


@pytest.fixture()
def tiny_dataset():
    """A fresh 3-class dataset for fast training tests."""
    return make_synthetic("tiny", num_classes=3, channels=1, size=8,
                          train_size=96, test_size=48, seed=11)


def make_random_engine_case(rng):
    """One randomized in-situ engine + integer inputs, for oracle fuzzing.

    Draws (shape, fragment size, weight/cell/activation bit-widths,
    sparsity, whether to also check the dense executor) from ``rng`` and
    returns ``(engine, x_int, meta)``
    where ``meta`` is the drawn configuration — include it in assertion
    messages so a failing draw is reproducible from the pinned seed.

    The weight levels are fragment-polarized (the FORMS single-signed-
    fragment property ``map_layer`` enforces), so every draw is a valid
    FORMS mapping.
    """
    from repro.core.fragments import FragmentGeometry
    from repro.core.quantization import QuantizationSpec
    from repro.reram import DeviceSpec, ReRAMDevice
    from repro.reram.engine import InSituLayerEngine
    from repro.reram.mapping import infer_signs, map_layer

    fragment_size = int(rng.choice([2, 4, 8]))
    rows = int(rng.integers(3, 25))
    cols = int(rng.integers(1, 10))
    weight_bits = int(rng.choice([4, 6, 8]))
    cell_bits = int(rng.choice([1, 2]))
    activation_bits = int(rng.choice([4, 8, 12]))
    sparsity = float(rng.uniform(0.0, 0.9))
    check_dense = bool(rng.integers(0, 2))
    positions = int(rng.integers(1, 20))

    geometry = FragmentGeometry((cols, rows), fragment_size, "w")
    qmax = 2 ** (weight_bits - 1) - 1
    levels = rng.integers(-qmax, qmax + 1, size=(rows, cols))
    levels[rng.random((rows, cols)) < sparsity] = 0
    # polarize each fragment to the FORMS single-signed property
    padded = np.vstack([levels,
                        np.zeros((geometry.padded_rows - rows, cols),
                                 dtype=levels.dtype)])
    stack = padded.reshape(-1, fragment_size, cols)
    signs = np.where(stack.sum(axis=1, keepdims=True) >= 0, 1, -1)
    levels = (np.abs(stack) * signs).reshape(geometry.padded_rows,
                                             cols)[:rows]

    spec = QuantizationSpec(weight_bits=weight_bits, cell_bits=cell_bits)
    mapped = map_layer(levels, geometry, spec, scheme="forms",
                       signs=infer_signs(levels, geometry))
    engine = InSituLayerEngine(mapped, ReRAMDevice(DeviceSpec(), 0.0),
                               activation_bits=activation_bits)
    x_int = rng.integers(0, 2 ** activation_bits, size=(rows, positions))
    meta = dict(rows=rows, cols=cols, fragment_size=fragment_size,
                weight_bits=weight_bits, cell_bits=cell_bits,
                activation_bits=activation_bits, sparsity=round(sparsity, 3),
                check_dense=check_dense, positions=positions)
    return engine, x_int, meta


@pytest.fixture(scope="session")
def random_engine_case():
    """Factory fixture: ``random_engine_case(rng)`` -> (engine, x, meta)."""
    return make_random_engine_case
