"""The FORMS optimization framework (paper Fig. 1/4).

``FORMSPipeline`` drives the three ADMM phases in the paper's order:

1. **crossbar-aware structured pruning** — filter + filter-shape pruning with
   keep counts snapped to crossbar granularity;
2. **fragment polarization** — same-sign fragments under the chosen mapping
   policy, signs re-estimated every M epochs;
3. **ReRAM-customized quantization** — weights snapped to a grid matching the
   cell resolution.

Constraints from earlier phases remain enforced in later ones (the pruned
structure is frozen into a mask; polarization signs keep projecting), so the
final model is feasible for *all* selected constraint sets simultaneously.
Each phase ends with a hard projection and masked fine-tune (ADMM-NN style).

The result object carries everything the hardware layer needs: fragment
geometry, fragment signs, integer weight levels and the per-layer scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..nn.data import Dataset
from ..nn.layers import Conv2d, Linear, Module, compressible_layers
from ..nn.trainer import evaluate
from .admm import (ADMMConfig, ADMMReport, ADMMTrainer, Constraint,
                   PolarizationConstraint, QuantizationConstraint,
                   StructuredPruningConstraint)
from .compression import (CompressionReport, CrossbarShape,
                          model_compression_report)
from .fragments import FragmentGeometry
from .polarization import SignRule, compute_signs, is_polarized
from .pruning import PruningSpec, structured_mask
from .quantization import QuantizationSpec, layer_scale, quantize_to_int


class FrozenMaskConstraint(Constraint):
    """Keeps a previously-pruned structure fixed during later phases."""

    def __init__(self, mask: np.ndarray):
        self.mask = mask.astype(bool)

    def project(self, weight: np.ndarray) -> np.ndarray:
        return np.where(self.mask, weight, 0.0)

    def describe(self) -> str:
        live = int(self.mask.sum())
        return f"frozen-mask({live}/{self.mask.size} live)"


@dataclass
class FORMSConfig:
    """Configuration of the full optimization flow.

    The paper's headline design point is ``fragment_size=8``, W-major policy
    on ImageNet / C-major on CIFAR, 8-bit weights on 2-bit cells, 16-bit
    activations, 128x128 crossbars.  Scaled-down experiments shrink
    ``crossbar`` together with the models (:mod:`repro.analysis.presets`).
    """

    fragment_size: int = 8
    policy: str = "w"
    sign_rule: SignRule = "sum"
    sign_refresh_every: int = 1          # the paper's M
    weight_bits: int = 8
    cell_bits: int = 2
    activation_bits: int = 16
    crossbar: CrossbarShape = field(default_factory=CrossbarShape)
    crossbar_aware: bool = True
    filter_keep: float = 0.6
    shape_keep: float = 0.6
    per_layer_keep: Dict[str, Dict[str, float]] = field(default_factory=dict)
    prune_first_conv: bool = False       # first layer is tiny & fragile
    prune_last_filters: bool = False     # last layer's filters are the classes
    baseline_bits: int = 32
    # Phase toggles — used by ablations ("polarization only", "pruning only").
    do_prune: bool = True
    do_polarize: bool = True
    do_quantize: bool = True
    #: when resuming from an already-pruned model with do_prune=False, freeze
    #: its zero structure so later phases cannot regrow pruned weights
    freeze_existing_structure: bool = False
    prune_admm: ADMMConfig = field(default_factory=ADMMConfig)
    polarize_admm: ADMMConfig = field(default_factory=ADMMConfig)
    quantize_admm: ADMMConfig = field(default_factory=lambda: ADMMConfig(iterations=2))

    def quant_spec(self) -> QuantizationSpec:
        return QuantizationSpec(self.weight_bits, self.cell_bits)

    def geometry_for(self, layer) -> FragmentGeometry:
        return FragmentGeometry(tuple(layer.weight.shape), self.fragment_size, self.policy)


@dataclass
class LayerArtifacts:
    """Hardware-facing description of one optimized layer."""

    name: str
    geometry: FragmentGeometry
    signs: np.ndarray            # (fragments_per_column, cols), +1/-1
    scale: float                 # weight quantization scale
    int_weights: np.ndarray      # integer levels, original weight shape
    mask: np.ndarray             # surviving-weight mask (bool)

    @property
    def is_feasible(self) -> bool:
        return is_polarized(self.int_weights.astype(np.float64), self.geometry)


@dataclass
class FORMSResult:
    """Everything produced by :meth:`FORMSPipeline.optimize`."""

    model: Module
    config: FORMSConfig
    baseline_accuracy: float
    phase_accuracies: Dict[str, float] = field(default_factory=dict)
    phase_reports: Dict[str, ADMMReport] = field(default_factory=dict)
    compression: Optional[CompressionReport] = None
    layers: Dict[str, LayerArtifacts] = field(default_factory=dict)

    @property
    def final_accuracy(self) -> float:
        if not self.phase_accuracies:
            return self.baseline_accuracy
        return list(self.phase_accuracies.values())[-1]

    @property
    def accuracy_drop(self) -> float:
        """Positive = lost accuracy (paper's "Acc. Drop" column)."""
        return self.baseline_accuracy - self.final_accuracy


class FORMSPipeline:
    """Multi-step ADMM optimization producing a ReRAM-ready model."""

    def __init__(self, config: FORMSConfig):
        self.config = config

    # ------------------------------------------------------------------
    def _pruning_spec(self, name: str, layer) -> PruningSpec:
        cfg = self.config
        keep = cfg.per_layer_keep.get(name, {})
        filter_keep = keep.get("filter_keep", cfg.filter_keep)
        shape_keep = keep.get("shape_keep", cfg.shape_keep)
        geometry = cfg.geometry_for(layer)
        is_first_conv = isinstance(layer, Conv2d) and layer.weight.shape[1] <= 3
        is_classifier = isinstance(layer, Linear)
        if is_first_conv and not cfg.prune_first_conv:
            filter_keep, shape_keep = 1.0, 1.0
        if is_classifier and not cfg.prune_last_filters:
            filter_keep = 1.0  # never prune class outputs
        if cfg.crossbar_aware:
            row_gran = min(cfg.crossbar.rows, max(geometry.rows, 1))
            cells = cfg.quant_spec().cells_per_weight
            col_gran = min(max(cfg.crossbar.cols // cells, 1), max(geometry.cols, 1))
            # Snapping at full crossbar granularity is meaningless for layers
            # smaller than one crossbar; fall back to fragment granularity.
            if geometry.rows < cfg.crossbar.rows:
                row_gran = cfg.fragment_size
            if geometry.cols < col_gran:
                col_gran = 1
        else:
            row_gran = col_gran = 1
        return PruningSpec(filter_keep=filter_keep, shape_keep=shape_keep,
                           row_granularity=row_gran, col_granularity=col_gran)

    # ------------------------------------------------------------------
    def optimize(self, model: Module, train_set: Dataset,
                 test_set: Dataset, seed: int = 0,
                 verbose: bool = False) -> FORMSResult:
        """Run the enabled phases and collect hardware artifacts."""
        cfg = self.config
        result = FORMSResult(model=model, config=cfg,
                             baseline_accuracy=evaluate(model, test_set).accuracy)
        layers = dict(compressible_layers(model))
        carried: Dict[str, List[Constraint]] = {name: [] for name in layers}
        if not cfg.do_prune and cfg.freeze_existing_structure:
            for name, layer in layers.items():
                carried[name] = [FrozenMaskConstraint(
                    structured_mask(layer.weight.data, cfg.geometry_for(layer)))]

        if cfg.do_prune:
            constraints = {
                name: carried[name] + [StructuredPruningConstraint(
                    cfg.geometry_for(layer), self._pruning_spec(name, layer))]
                for name, layer in layers.items()
            }
            report = self._run_phase(model, constraints, cfg.prune_admm,
                                     train_set, test_set, seed, verbose)
            result.phase_reports["prune"] = report
            result.phase_accuracies["prune"] = report.final_test_accuracy
            # Freeze the pruned structure for the remaining phases.
            for name, layer in layers.items():
                carried[name] = [FrozenMaskConstraint(
                    structured_mask(layer.weight.data, cfg.geometry_for(layer)))]

        if cfg.do_polarize:
            polar = {name: PolarizationConstraint(
                cfg.geometry_for(layer), cfg.sign_rule, cfg.sign_refresh_every)
                for name, layer in layers.items()}
            constraints = {name: carried[name] + [polar[name]] for name in layers}
            report = self._run_phase(model, constraints, cfg.polarize_admm,
                                     train_set, test_set, seed + 1, verbose)
            result.phase_reports["polarize"] = report
            result.phase_accuracies["polarize"] = report.final_test_accuracy
            for name in layers:
                carried[name] = carried[name] + [polar[name]]

        if cfg.do_quantize:
            constraints = {name: carried[name] + [QuantizationConstraint(cfg.quant_spec())]
                           for name in layers}
            report = self._run_phase(model, constraints, cfg.quantize_admm,
                                     train_set, test_set, seed + 2, verbose)
            result.phase_reports["quantize"] = report
            result.phase_accuracies["quantize"] = report.final_test_accuracy

        result.layers = collect_layer_artifacts(model, cfg)
        result.compression = model_compression_report(
            model, cfg.fragment_size, cfg.policy, cfg.quant_spec(),
            crossbar=cfg.crossbar, baseline_bits=cfg.baseline_bits,
            cell_bits=cfg.cell_bits)
        return result

    def _run_phase(self, model: Module, constraints, admm_cfg: ADMMConfig,
                   train_set, test_set, seed: int, verbose: bool) -> ADMMReport:
        trainer = ADMMTrainer(model, constraints, admm_cfg)
        run_report = trainer.run(train_set, test_set=test_set, seed=seed, verbose=verbose)
        final_report = trainer.finalize(train_set, test_set=test_set, seed=seed, verbose=verbose)
        run_report.retrain_history = final_report.retrain_history
        run_report.final_test_accuracy = final_report.final_test_accuracy
        run_report.violations.extend(final_report.violations)
        return run_report


def collect_layer_artifacts(model: Module, config: FORMSConfig) -> Dict[str, LayerArtifacts]:
    """Extract geometry, signs, scales and integer levels per layer.

    Valid on any model; for un-polarized models the sign arrays are the sum
    rule's best guess (used by the ISAAC/PRIME baseline mappings that do not
    need them).
    """
    spec = config.quant_spec()
    artifacts: Dict[str, LayerArtifacts] = {}
    for name, layer in compressible_layers(model):
        geometry = config.geometry_for(layer)
        weight = layer.weight.data.astype(np.float64)
        scale = layer_scale(weight, spec)
        artifacts[name] = LayerArtifacts(
            name=name,
            geometry=geometry,
            signs=compute_signs(weight, geometry, config.sign_rule),
            scale=scale,
            int_weights=quantize_to_int(weight, spec, scale),
            mask=weight != 0.0,
        )
    return artifacts
