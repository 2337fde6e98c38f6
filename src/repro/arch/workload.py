"""Network workload extraction for the performance model.

A :class:`NetworkWorkload` captures, per compressible layer: the dense and
live (post-pruning) matrix dimensions, the MAC count, the number of
output positions per image, and the measured effective-input-cycle (EIC)
statistics of *real activations* flowing through the layer.

Activations are quantized to the accelerator's fixed-point input format with
one **network-global scale** — ISAAC/FORMS feed a fixed 16-bit fixed-point
format whose binary point does not move per layer, so layers whose
activations are small relative to the network maximum have many leading zero
bits.  This is precisely the headroom input zero-skipping converts into
skipped cycles (paper Fig. 8's per-layer EIC differences).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.fragments import FragmentGeometry
from ..core.zero_skip import EICStats, layer_eic_stats
from ..nn import functional as F
from ..nn.data import Dataset
from ..nn.layers import Conv2d, Linear, Module, compressible_layers
from ..nn.tensor import Tensor, no_grad


@dataclass
class LayerWorkload:
    """Per-layer quantities consumed by the performance model."""

    name: str
    kind: str                      # "conv" | "linear"
    rows: int                      # dense matrix rows (weights per filter)
    cols: int                      # dense matrix cols (filters)
    live_rows: int
    live_cols: int
    positions_per_image: int       # output pixels (1 for linear layers)
    eic_stats: Dict[int, EICStats] = field(default_factory=dict)

    @property
    def dense_macs_per_image(self) -> int:
        return self.rows * self.cols * self.positions_per_image

    @property
    def live_macs_per_image(self) -> int:
        return self.live_rows * self.live_cols * self.positions_per_image

    def average_eic(self, fragment_size: int, total_bits: int) -> float:
        """Average EIC at ``fragment_size``; falls back to ``total_bits``
        (no skipping possible) when stats were not collected."""
        stats = self.eic_stats.get(fragment_size)
        if stats is None:
            return float(total_bits)
        return stats.average


@dataclass
class NetworkWorkload:
    """All layers of one network on one dataset."""

    network: str
    dataset: str
    layers: List[LayerWorkload]
    activation_bits: int = 16

    @property
    def total_dense_macs(self) -> int:
        return sum(layer.dense_macs_per_image for layer in self.layers)

    @property
    def total_live_macs(self) -> int:
        return sum(layer.live_macs_per_image for layer in self.layers)

    @property
    def prune_ratio(self) -> float:
        return self.total_dense_macs / max(self.total_live_macs, 1)

    def average_eic(self, fragment_size: int) -> float:
        """MAC-weighted average EIC across layers."""
        weights = [layer.live_macs_per_image for layer in self.layers]
        total = sum(weights) or 1
        return sum(layer.average_eic(fragment_size, self.activation_bits) * w
                   for layer, w in zip(self.layers, weights)) / total


def _capture_layer_inputs(model: Module, images: np.ndarray) -> Dict[str, np.ndarray]:
    """Run a forward pass recording each compressible layer's input array."""
    captured: Dict[str, np.ndarray] = {}
    layers = compressible_layers(model)
    originals = [(layer, layer.forward) for _, layer in layers]

    def make_recorder(name: str, layer, original):
        def recorder(x: Tensor) -> Tensor:
            captured[name] = x.data
            return original(x)
        return recorder

    try:
        for name, layer in layers:
            object.__setattr__(layer, "forward", make_recorder(name, layer, layer.forward))
        model.eval()
        with no_grad():
            model(Tensor(images))
    finally:
        for layer, original in originals:
            object.__setattr__(layer, "forward", original)
        model.train()
    return captured


def _layer_input_matrix(layer, x: np.ndarray) -> np.ndarray:
    """im2col the captured input into the layer's (rows, positions) matrix."""
    if isinstance(layer, Conv2d):
        return F.im2col(x, layer.kernel_size, layer.kernel_size,
                        layer.stride, layer.padding)
    return np.asarray(x).T  # Linear: (in_features, batch)


def extract_workload(model: Module, dataset: Dataset,
                     fragment_sizes: Sequence[int] = (4, 8, 16),
                     activation_bits: int = 16, sample_images: int = 8,
                     policy: str = "w",
                     network: Optional[str] = None) -> NetworkWorkload:
    """Build a :class:`NetworkWorkload` by tracing ``model`` on real data.

    ``sample_images`` images are pushed through the network; each layer's
    im2col input matrix is quantized with the network-global 16-bit scale and
    reduced to EIC statistics at each requested fragment size, with the
    polarization policy's input permutation applied first (weights and inputs
    are co-ordered, Sec. III-B).
    """
    images = dataset.images[:sample_images]
    captured = _capture_layer_inputs(model, images)

    # Network-global fixed-point scale (post-ReLU magnitudes).
    global_max = max((float(np.abs(x).max()) for x in captured.values()),
                     default=1.0) or 1.0
    qmax = 2 ** activation_bits - 1
    scale = global_max / qmax

    layers: List[LayerWorkload] = []
    for name, layer in compressible_layers(model):
        x = captured[name]
        matrix = _layer_input_matrix(layer, x)
        ints = np.clip(np.rint(np.abs(matrix) / scale), 0, qmax).astype(np.int64)
        geometry_shape = tuple(layer.weight.shape)
        weight_matrix = layer.weight.data.reshape(geometry_shape[0], -1).T
        live_rows = int((np.abs(weight_matrix).sum(axis=1) > 0).sum())
        live_cols = int((np.abs(weight_matrix).sum(axis=0) > 0).sum())
        positions = matrix.shape[1] // len(images) if len(images) else matrix.shape[1]
        workload = LayerWorkload(
            name=name,
            kind="conv" if isinstance(layer, Conv2d) else "linear",
            rows=weight_matrix.shape[0], cols=weight_matrix.shape[1],
            live_rows=max(live_rows, 1), live_cols=max(live_cols, 1),
            positions_per_image=max(positions, 1),
        )
        for m in fragment_sizes:
            geometry = FragmentGeometry(geometry_shape, m, policy) \
                if isinstance(layer, Conv2d) else None
            ordered = ints
            if geometry is not None:
                perm = geometry.input_permutation()
                if perm is not None:
                    ordered = ints[perm]
            workload.eic_stats[m] = layer_eic_stats(ordered, m, activation_bits)
        layers.append(workload)

    return NetworkWorkload(network=network or type(model).__name__,
                           dataset=dataset.name, layers=layers,
                           activation_bits=activation_bits)


def transfer_measurements(target: NetworkWorkload,
                          source: NetworkWorkload) -> NetworkWorkload:
    """Graft measured compression ratios and EIC statistics onto a workload.

    The FPS experiments (Figs. 13/14) evaluate *full-size* network dimensions
    — a dense full-width VGG-16/ResNet traced without training — while the
    per-layer keep ratios and activation EIC distributions are *measured* on
    the scaled models we actually train.  Layers are matched
    by relative depth, so topologies with different block counts still map
    sensibly.

    Returns a new workload; ``target`` is not modified.
    """
    if not source.layers:
        raise ValueError("source workload has no layers")
    n_src = len(source.layers)
    n_tgt = len(target.layers)
    mapped: List[LayerWorkload] = []
    for i, layer in enumerate(target.layers):
        j = round(i * (n_src - 1) / max(n_tgt - 1, 1)) if n_tgt > 1 else 0
        src = source.layers[j]
        row_keep = src.live_rows / src.rows
        col_keep = src.live_cols / src.cols
        mapped.append(LayerWorkload(
            name=layer.name,
            kind=layer.kind,
            rows=layer.rows, cols=layer.cols,
            live_rows=max(1, int(round(layer.rows * row_keep))),
            live_cols=max(1, int(round(layer.cols * col_keep))),
            positions_per_image=layer.positions_per_image,
            eic_stats=dict(src.eic_stats),
        ))
    return NetworkWorkload(network=target.network, dataset=source.dataset,
                           layers=mapped, activation_bits=source.activation_bits)


def trace_dimensions(model: Module, channels: int, image_size: int,
                     network: Optional[str] = None,
                     activation_bits: int = 16) -> NetworkWorkload:
    """Dimensions-only workload from an (untrained) model at full input size.

    Runs a single dummy image through the network to obtain true per-layer
    matrix shapes and output-position counts; EIC statistics are left empty
    (attach measured ones with :func:`transfer_measurements`).
    """
    dummy = np.zeros((1, channels, image_size, image_size), dtype=np.float32)
    captured = _capture_layer_inputs(model, dummy)
    layers: List[LayerWorkload] = []
    for name, layer in compressible_layers(model):
        matrix = _layer_input_matrix(layer, captured[name])
        weight_matrix = layer.weight.data.reshape(layer.weight.shape[0], -1).T
        layers.append(LayerWorkload(
            name=name,
            kind="conv" if isinstance(layer, Conv2d) else "linear",
            rows=weight_matrix.shape[0], cols=weight_matrix.shape[1],
            live_rows=weight_matrix.shape[0], live_cols=weight_matrix.shape[1],
            positions_per_image=max(matrix.shape[1], 1),
        ))
    return NetworkWorkload(network=network or type(model).__name__,
                           dataset=f"{image_size}x{image_size}",
                           layers=layers, activation_bits=activation_bits)
