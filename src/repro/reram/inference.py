"""Full-network in-situ inference (the system view of paper Figs. 10-12).

The variation study (:mod:`repro.reram.variation`) uses the fast
effective-weight shortcut; this module runs the *real thing*: every conv and
linear layer of a model executes on its own bit-serial crossbar engine —
im2col, activation quantization, bit-serial DAC cycles, per-fragment ADC
conversion, shift-and-add and sign-indicator accumulation — while the
digital-domain layers (BatchNorm, ReLU, pooling) run unchanged.

Usage::

    insitu, engines = build_insitu_network(model, config, device)
    accuracy = evaluate(insitu, test_set).accuracy      # whole net on ReRAM
    total_cycles = sum(e.stats.cycles_fed for e in engines.values())

Signed activations (the un-ReLU'd network input) are handled by linearity:
``x = x+ - x-`` feeds the crossbar twice and subtracts digitally — and since
post-ReLU layers have an all-zero negative part, the engine's zero-skipping
finishes that pass in a single detection cycle.

With ideal devices and exact ADC sizing, in-situ accuracy equals the
quantized digital model's accuracy up to the activation-quantization error
(tested); the engine's physics keywords (faults, IR drop, read noise) run
whole-network inference under the non-idealities of
:mod:`repro.reram.nonideal`.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Type

import numpy as np

from ..core.fragments import FragmentGeometry
from ..core.pipeline import FORMSConfig, LayerArtifacts, collect_layer_artifacts
from ..nn import functional as F
from ..nn.layers import Conv2d, Linear, Module
from ..nn.tensor import Tensor
from .converters import ADCSpec
from .device import ReRAMDevice
from .engine import DieCache, InSituLayerEngine
from .mapping import map_layer
from .variation import clone_model


def _signed_matvec(engine: InSituLayerEngine, cols: np.ndarray,
                   weight_scale: float) -> np.ndarray:
    """Engine MVM for real-valued (possibly signed) im2col columns.

    Quantizes the positive and negative parts to the engine's activation
    grid with a shared scale, runs both through the crossbars, and
    recombines digitally.  Both passes are concatenated along the positions
    axis so the engine evaluates them in one fused ``matvec_int`` call
    (positions are independent in the analog math, so this is exact); a
    post-ReLU layer has an all-zero negative part and skips the second half
    entirely — the engine's zero detection then costs nothing.

    Accounting note: ``EngineStats`` describes this *fused* schedule — both
    polarities ride one bit-serial pass, so ``cycles_fed`` counts the
    shared schedule (the max of the two bit depths, like any other batch of
    positions) and ``conversions`` covers both position sets, rather than
    the two sequential passes the pre-fusion engine made.
    """
    qmax = (1 << engine.activation_bits) - 1
    top = float(max(cols.max(initial=0.0), -cols.min(initial=0.0)))
    scale = top / qmax if top > 0.0 else 1.0
    # x / scale is sign-symmetric, so the negative part's codes are the
    # positive codes of -(x / scale): one division, one rint/clip.  The
    # block splits exactly when max(-x, 0) has a nonzero entry: NaN fails
    # ``>= 0``, -0.0 passes it.
    split = not (cols >= 0).all()
    q = cols / scale
    if split:
        q = np.concatenate([q, -q], axis=1)
    np.rint(q, out=q)
    np.clip(q, 0, qmax, out=q)
    out = engine.matvec_int(q.astype(np.int64)).astype(np.float64)
    if split:
        out = out[:, :cols.shape[1]] - out[:, cols.shape[1]:]
    return out * weight_scale * scale


class InSituConv2d(Module):
    """Drop-in replacement executing a Conv2d on a crossbar engine."""

    def __init__(self, layer: Conv2d, engine: InSituLayerEngine,
                 geometry: FragmentGeometry, weight_scale: float):
        super().__init__()
        self.kernel_size = layer.kernel_size
        self.stride = layer.stride
        self.padding = layer.padding
        self.out_channels = layer.out_channels
        self._bias = layer.bias.data.copy() if layer.bias is not None else None
        self.engine = engine
        self.geometry = geometry
        self.weight_scale = weight_scale

    def forward(self, x: Tensor) -> Tensor:
        data = x.data
        batch, _, height, width = data.shape
        out_h = F.conv_output_size(height, self.kernel_size, self.stride,
                                   self.padding)
        out_w = F.conv_output_size(width, self.kernel_size, self.stride,
                                   self.padding)
        cols = F.im2col(data, self.kernel_size, self.kernel_size,
                        self.stride, self.padding)
        perm = self.geometry.input_permutation()
        if perm is not None:
            cols = cols[perm]
        out = _signed_matvec(self.engine, cols, self.weight_scale)
        if self._bias is not None:
            out = out + self._bias.reshape(-1, 1)
        out = out.reshape(self.out_channels, out_h, out_w,
                          batch).transpose(3, 0, 1, 2)
        return Tensor(out.astype(data.dtype))


class InSituLinear(Module):
    """Drop-in replacement executing a Linear layer on a crossbar engine."""

    def __init__(self, layer: Linear, engine: InSituLayerEngine,
                 geometry: FragmentGeometry, weight_scale: float):
        super().__init__()
        self.out_features = layer.out_features
        self._bias = layer.bias.data.copy() if layer.bias is not None else None
        self.engine = engine
        self.geometry = geometry
        self.weight_scale = weight_scale

    def forward(self, x: Tensor) -> Tensor:
        cols = x.data.T                                   # (in, N)
        perm = self.geometry.input_permutation()
        if perm is not None:
            cols = cols[perm]
        out = _signed_matvec(self.engine, cols, self.weight_scale)
        if self._bias is not None:
            out = out + self._bias.reshape(-1, 1)
        return Tensor(out.T.astype(x.data.dtype))


def _replace_module(root: Module, path: str, replacement: Module) -> None:
    parts = path.split(".")
    parent = root
    for part in parts[:-1]:
        parent = parent._modules[part]
    setattr(parent, parts[-1], replacement)   # registers in _modules too


def build_insitu_network(model: Module, config: FORMSConfig,
                         device: ReRAMDevice, scheme: str = "forms",
                         adc: Optional[ADCSpec] = None,
                         activation_bits: int = 16,
                         engine_cls: Type[InSituLayerEngine] = InSituLayerEngine,
                         artifacts: Optional[Dict[str, LayerArtifacts]] = None,
                         die_cache: Optional[DieCache] = None,
                         **engine_kwargs
                         ) -> Tuple[Module, Dict[str, InSituLayerEngine]]:
    """Clone ``model`` with every conv/linear layer running on a crossbar.

    Returns ``(insitu_model, engines)``; the engines dict exposes per-layer
    :class:`~repro.reram.engine.EngineStats` (conversions, saturation,
    cycles fed) after inference runs.  ``engine_kwargs`` select the
    physics — ``fault_model``, ``wire`` + ``cell_iv``, ``read_noise`` of
    :class:`~repro.reram.engine.InSituLayerEngine`; ``engine_cls``
    constructs the engines with the same signature.  Pass a shared
    :class:`~repro.reram.engine.DieCache` when rebuilding the network across
    sweep points so identical ``(codes, device)`` pairs reuse one programmed
    die instead of re-programming per engine.

    The returned model composes with the ``repro.runtime`` executor: run a
    batch through :func:`repro.runtime.infer_tiled` to fan batch tiles (and
    thereby different layers of different tiles) across workers, or attach
    a :class:`repro.runtime.WorkerPool` to the engines
    (:func:`repro.runtime.attach_pool`) to spread one large MVM's job
    chunks.
    """
    insitu = clone_model(model)
    if artifacts is None:
        artifacts = collect_layer_artifacts(model, config)
    spec = config.quant_spec()
    engines: Dict[str, InSituLayerEngine] = {}
    layers = {name: module for name, module in insitu.named_modules()}
    for name, art in artifacts.items():
        layer = layers[name]
        geometry = art.geometry
        levels = geometry.matrix(art.int_weights)
        signs = art.signs if scheme == "forms" else None
        mapped = map_layer(levels, geometry, spec, scheme=scheme, signs=signs)
        engine = engine_cls(mapped, device, adc=adc,
                            activation_bits=activation_bits,
                            die_cache=die_cache, **engine_kwargs)
        if isinstance(layer, Conv2d):
            wrapper: Module = InSituConv2d(layer, engine, geometry, art.scale)
        elif isinstance(layer, Linear):
            wrapper = InSituLinear(layer, engine, geometry, art.scale)
        else:
            raise TypeError(f"layer {name!r} is neither Conv2d nor Linear")
        _replace_module(insitu, name, wrapper)
        engines[name] = engine
    return insitu, engines


def total_cycles_fed(engines: Dict[str, InSituLayerEngine]) -> int:
    """Bit-serial cycles actually fed across all layers (post zero-skip)."""
    return sum(engine.stats.cycles_fed for engine in engines.values())
