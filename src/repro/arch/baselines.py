"""Recorded baseline accelerators (paper Table V rows taken from literature).

The FORMS paper compares against DaDianNao, TPU, WAX and SIMBA using numbers
from their respective papers, normalized to ISAAC; we record the same
normalized values (they cannot be derived from first principles inside this
repo, and the paper does not attempt to either).  ISAAC, PUMA and FORMS rows
are *computed* by :mod:`repro.arch.perf` instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class RecordedBaseline:
    """Throughput efficiency of a published accelerator, normalized to ISAAC."""

    name: str
    gops_per_mm2_rel: float
    gops_per_w_rel: float
    gops_per_w_rel_range: Optional[Tuple[float, float]] = None
    note: str = ""

    def gops_per_w_display(self) -> str:
        if self.gops_per_w_rel_range:
            lo, hi = self.gops_per_w_rel_range
            return f"{lo:g}-{hi:g}"
        return f"{self.gops_per_w_rel:g}"


#: Table V reference rows (normalized to ISAAC = 1.0).
RECORDED_BASELINES: Dict[str, RecordedBaseline] = {
    "ISAAC": RecordedBaseline("ISAAC", 1.0, 1.0),
    "DaDianNao": RecordedBaseline("DaDianNao", 0.13, 0.45),
    "PUMA": RecordedBaseline("PUMA", 0.70, 0.79),
    "TPU": RecordedBaseline("TPU", 0.08, 0.48),
    "WAX": RecordedBaseline(
        "WAX", 0.33, 2.3,
        note="trades throughput for power efficiency (0.2 GHz)"),
    "SIMBA": RecordedBaseline(
        "SIMBA", 0.34, 1.29, gops_per_w_rel_range=(0.08, 2.5),
        note="0.48 V / 0.52 GHz operating point; efficiency range published"),
}

#: Paper Table V FORMS/optimized rows — printed next to the measured rows by
#: ``python -m repro table5``, whose check holds the polarization-only rows
#: to them (:mod:`repro.analysis.registry`); never fed back into the model.
PAPER_TABLE5: Dict[str, Tuple[float, float]] = {
    "ISAAC": (1.0, 1.0),
    "DaDianNao": (0.13, 0.45),
    "PUMA": (0.70, 0.79),
    "TPU": (0.08, 0.48),
    "WAX": (0.33, 2.3),
    "SIMBA": (0.34, 1.29),
    "FORMS (polarization only, 8)": (0.54, 0.61),
    "FORMS (polarization only, 16)": (0.77, 0.84),
    "Pruned/Quantized-ISAAC": (26.4, 26.61),
    "Pruned/Quantized-PUMA": (18.67, 21.07),
    "FORMS (full optimization, 8)": (36.02, 27.73),
    "FORMS (full optimization, 16)": (39.48, 51.26),
}

#: Paper Figs. 13/14 FPS speedups over ISAAC-32 (reference values only).
#: Keyed by (network, dataset); values ordered as the six plotted stacks:
#: (PQ-ISAAC, PQ-PUMA, FORMS-8 no-skip, FORMS-16 no-skip,
#:  FORMS-8 full, FORMS-16 full).
PAPER_FPS_SPEEDUPS: Dict[Tuple[str, str], Tuple[float, ...]] = {
    ("VGG16", "cifar100"): (25.875, 21.69, 14.12, 20.08, 59.28, 50.54),
    ("ResNet18", "cifar100"): (35.14, 5.29, 19.18, 27.26, 53.23, 55.48),
    ("ResNet50", "cifar100"): (30.665, 5.91, 16.74, 23.79, 25.27, 34.30),
    ("ResNet18", "imagenet"): (7.485, 4.85, 4.09, 5.81, 10.72, 11.20),
    ("ResNet50", "imagenet"): (11.18, 8.30, 7.10, 10.67, 17.76, 21.09),
}

#: The paper's headline claims (reference values only).
PAPER_CLAIMS = {
    "fps_speedup_over_optimized_isaac": (1.12, 2.4),
    "isaac_speedup_from_framework": (10.7, 377.9),
    "area_efficiency_vs_isaac": 1.50,
    "power_efficiency_vs_isaac": 1.93,
}
