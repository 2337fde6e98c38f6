"""Quickstart: train a model, run the FORMS pipeline, map it to ReRAM.

This walks the full FORMS story end to end in under a minute:

1. train LeNet-5 on the synthetic MNIST stand-in;
2. run the three-phase ADMM optimization (crossbar-aware pruning, fragment
   polarization, ReRAM-customized quantization);
3. inspect the compression report (the Table I quantities);
4. map one layer onto simulated ReRAM crossbars and verify the bit-serial
   in-situ computation matches the digital integer result exactly.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.analysis import render_kv
from repro.core import (ADMMConfig, CrossbarShape, FORMSConfig, FORMSPipeline,
                        activation_to_int)
from repro.nn import (Adam, LeNet5, evaluate, fit, set_init_seed,
                      synthetic_mnist)
from repro.nn import functional as F
from repro.reram import DeviceSpec, ReRAMDevice, build_engine


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Train a baseline model.
    # ------------------------------------------------------------------
    set_init_seed(0)
    train_set, test_set = synthetic_mnist(train_size=512, test_size=256)
    model = LeNet5(num_classes=10, in_channels=1, image_size=16)
    print("training LeNet-5 on synthetic MNIST ...")
    fit(model, train_set, Adam(model.parameters(), lr=1e-3), epochs=6,
        batch_size=32)
    baseline_acc = evaluate(model, test_set).accuracy
    print(f"baseline accuracy: {baseline_acc:.3f}\n")

    # ------------------------------------------------------------------
    # 2. FORMS optimization: prune -> polarize -> quantize (paper Fig. 1).
    # ------------------------------------------------------------------
    admm = ADMMConfig(iterations=2, epochs_per_iteration=1, retrain_epochs=3)
    config = FORMSConfig(
        fragment_size=8,                 # the paper's headline design point
        policy="w",                      # W-major polarization
        weight_bits=8, cell_bits=2,      # four 2-bit cells per weight
        crossbar=CrossbarShape(32, 32),  # scaled with the model
        filter_keep=0.5, shape_keep=0.5,
        prune_admm=admm, polarize_admm=admm, quantize_admm=admm,
    )
    print("running FORMS ADMM pipeline ...")
    result = FORMSPipeline(config).optimize(model, train_set, test_set)
    print(render_kv("phase accuracies", result.phase_accuracies.items()))
    print()
    print(render_kv("compression report", result.compression.summary().items()))
    print(f"\naccuracy drop: {result.accuracy_drop * 100:+.2f}% "
          f"(negative = improved, as in the paper's MNIST rows)\n")

    # ------------------------------------------------------------------
    # 3. Map the first conv layer onto simulated crossbars and compute on it.
    # ------------------------------------------------------------------
    name, artifacts = next(iter(result.layers.items()))
    geometry = artifacts.geometry
    print(f"mapping layer {name!r}: {geometry.describe()}")
    levels = geometry.matrix(artifacts.int_weights)

    layer = model.features[0]
    images = test_set.images[:4]
    cols = F.im2col(images, layer.kernel_size, layer.kernel_size,
                    layer.stride, layer.padding)
    x_int, x_scale = activation_to_int(np.abs(cols), bits=8)

    device = ReRAMDevice(DeviceSpec(cell_bits=2), variation_sigma=0.0)
    engine = build_engine(levels, geometry, config.quant_spec(), device,
                          scheme="forms", signs=artifacts.signs,
                          activation_bits=8)
    in_situ = engine.matvec_int(x_int)
    digital = levels.T @ x_int
    exact = np.array_equal(in_situ, digital)
    print(f"in-situ result equals digital integer matmul: {exact}")
    print(f"input cycles fed (of 8): {engine.stats.cycles_fed} "
          f"(zero-skipping saved {8 - engine.stats.cycles_fed})")
    assert exact, "ideal crossbar computation must be exact"

    # With device variation the same computation degrades gracefully.
    noisy_device = ReRAMDevice(DeviceSpec(cell_bits=2), variation_sigma=0.1, seed=1)
    noisy_engine = build_engine(levels, geometry, config.quant_spec(),
                                noisy_device, scheme="forms",
                                signs=artifacts.signs, activation_bits=8)
    noisy = noisy_engine.matvec_int(x_int)
    rel_err = np.abs(noisy - digital).mean() / (np.abs(digital).mean() + 1e-12)
    print(f"relative error at sigma=0.1 device variation: {rel_err:.3%}")


if __name__ == "__main__":
    main()
