"""The two benchmark networks, frozen here so refactors elsewhere cannot
move the workload.

``fast`` (1 conv + linear) and ``bulk`` (2 pruned convs + linear) serve
16x16 single-channel inputs, are fragment-polarized at fragment size 8 and
lower onto engines with the paper's ADC width and 12-bit activations —
the shapes ``repro.perf.multitenant.tenant_models`` has used since PR 4,
re-stated rather than imported because ROADMAP items 1-2 delete that module.
"""

from __future__ import annotations

import numpy as np

from repro.core.pipeline import FORMSConfig
from repro.core.polarization import compute_signs, project_polarization
from repro.nn import (Conv2d, Flatten, Linear, ReLU, Sequential,
                      compressible_layers, set_init_seed)
from repro.reram import ADCSpec, DeviceSpec, ReRAMDevice, paper_adc_bits

IMAGE_SHAPE = (1, 16, 16)
FRAGMENT_SIZE = 8
ACTIVATION_BITS = 12
#: output channels left alive in each ``bulk`` conv (crossbar-aware pruning)
_LIVE_CHANNELS = 5


def build_models(seed: int):
    """``({"fast": model, "bulk": model}, config)`` for one model seed."""
    set_init_seed(seed)
    fast = Sequential(Conv2d(1, 4, 3, padding=1), ReLU(),
                      Flatten(), Linear(4 * 16 * 16, 10))
    set_init_seed(seed + 100)
    bulk = Sequential(Conv2d(1, 8, 3, padding=1), ReLU(),
                      Conv2d(8, 8, 3, padding=1), ReLU(),
                      Flatten(), Linear(8 * 16 * 16, 10))
    rng = np.random.default_rng(seed + 7)
    for layer in (bulk._modules["0"], bulk._modules["2"]):
        dead = rng.permutation(layer.weight.data.shape[0])[_LIVE_CHANNELS:]
        layer.weight.data[dead] = 0.0
        if layer.bias is not None:
            layer.bias.data[dead] = 0.0
    config = FORMSConfig(fragment_size=FRAGMENT_SIZE)
    for model in (fast, bulk):
        for _, layer in compressible_layers(model):
            geometry = config.geometry_for(layer)
            weight = layer.weight.data.astype(np.float64)
            layer.weight.data[...] = project_polarization(
                weight, geometry, compute_signs(weight, geometry))
    return {"fast": fast, "bulk": bulk}, config


def ideal_device() -> ReRAMDevice:
    return ReRAMDevice(DeviceSpec(), 0.0)


def lowering_kwargs() -> dict:
    """The ``build_insitu_network`` / ``registry.register`` keywords every
    workload lowers with: paper ADC bits, 12-bit activations."""
    return {"adc": ADCSpec(bits=paper_adc_bits(FRAGMENT_SIZE)),
            "activation_bits": ACTIVATION_BITS}
