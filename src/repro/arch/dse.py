"""Design-space exploration (paper Sec. IV-C).

The paper reports two DSE outcomes without showing the sweep: "we performed
design space exploration to find the best size of crossbar arrays, ADCs,
DACs, and eDRAM storage", and "through design space explorations, we find
that 2-bit ReRAM cells delivers a better energy-efficiency than other number
of bits per cell (e.g., 4-bit, 8-bit)".  This module rebuilds that sweep on
top of the component catalog so both outcomes are regenerable
(``python -m repro dse`` and ``python -m repro crossbar_size``).

A :class:`DesignPoint` fixes fragment size, bits per cell, weight precision
and ADC provisioning; :func:`evaluate_design` rolls it into a full chip and
reports cost, peak throughput, and two feasibility signals the paper argues
from:

* **ADC sizing** — more bits per cell raise the fragment's worst-case
  partial sum, and ADC cost grows exponentially with resolution.  Two
  sizing rules are supported: ``"exact"`` (cover the worst-case sum —
  :func:`repro.reram.converters.required_adc_bits`) and ``"paper"`` (the
  published typical-case sizing, one bit lower at 2-bit cells).
* **Variation margin** — adjacent conductance levels sit
  ``(g_max - g_min)/(levels - 1)`` apart; lognormal device variation with
  parameter ``sigma`` blurs each level by about ``sigma * g``.  The margin
  in sigmas collapses as ``1/(2**cell_bits - 1)`` — the "more rigorous
  hardware fabrication" cost of denser cells.  Designs under
  ``MIN_LEVEL_MARGIN_SIGMAS`` are flagged infeasible.

With exact ADC sizing, 2-bit cells maximize GOPs/W outright; with the
paper's optimistic sizing, the variation margin is what rules out 4/8-bit
cells.  Either way the published conclusion — 2-bit cells — survives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..reram.converters import required_adc_bits
from .chip import ChipDesign
from .components import (CROSSBAR_COLS, CROSSBAR_ROWS, CROSSBARS_PER_MCU,
                         FORMS_ADC_FREQ_HZ, ComponentSpec, default_adc_model,
                         forms_mcu_components)
from .mcu import MCUDesign
from .perf import AcceleratorConfig, PeakThroughput, peak_throughput
from .tile import TileDesign

#: minimum separation (in sigmas of conductance variation) between adjacent
#: levels for programming to be considered manufacturable
MIN_LEVEL_MARGIN_SIGMAS = 3.0

ADC_RULES = ("exact", "paper")


@dataclass(frozen=True)
class DesignPoint:
    """One candidate FORMS configuration in the design space."""

    fragment_size: int = 8
    cell_bits: int = 2
    weight_bits: int = 8
    activation_bits: int = 16
    adcs_per_crossbar: int = 4
    tiles: int = 168
    adc_rule: str = "exact"
    crossbar_rows: int = CROSSBAR_ROWS
    crossbar_cols: int = CROSSBAR_COLS

    def __post_init__(self):
        if self.fragment_size < 1:
            raise ValueError("fragment_size must be >= 1")
        if self.cell_bits < 1:
            raise ValueError("cell_bits must be >= 1")
        if self.weight_bits < self.cell_bits:
            raise ValueError("weight_bits must be >= cell_bits")
        if self.crossbar_rows < self.fragment_size or self.crossbar_cols < 1:
            raise ValueError("crossbar must be at least one fragment tall")
        if self.crossbar_rows % self.fragment_size:
            raise ValueError("fragment_size must divide crossbar_rows")
        if (self.adcs_per_crossbar < 1
                or self.crossbar_cols % self.adcs_per_crossbar):
            raise ValueError("adcs_per_crossbar must divide the column count")
        if self.adc_rule not in ADC_RULES:
            raise ValueError(f"adc_rule must be one of {ADC_RULES}")

    @property
    def adc_bits(self) -> int:
        if self.adc_rule == "exact":
            return required_adc_bits(self.fragment_size, self.cell_bits)
        # The paper sizes one bit below the worst case at every published
        # point (3/4/5 bits at m = 4/8/16 with 2-bit cells); generalize that
        # one-bit optimism to other cell widths.
        return max(1, required_adc_bits(self.fragment_size, self.cell_bits) - 1)

    @property
    def adc_frequency_hz(self) -> float:
        """SAR sample rate: one internal cycle per bit, anchored at 4-bit/2.1 GS/s."""
        return FORMS_ADC_FREQ_HZ * 4.0 / self.adc_bits

    @property
    def cells_per_weight(self) -> int:
        return -(-self.weight_bits // self.cell_bits)

    @property
    def conductance_levels(self) -> int:
        return 2 ** self.cell_bits

    def level_margin_sigmas(self, sigma: float = 0.1,
                            on_off_ratio: float = 100.0) -> float:
        """Separation between adjacent levels in units of variation sigma.

        Levels are uniformly spaced over ``[g_min, g_max]``; lognormal
        variation blurs a level at conductance ``g`` by roughly
        ``sigma * g``, worst at ``g_max``.
        """
        if sigma <= 0:
            return float("inf")
        step_fraction = (1.0 - 1.0 / on_off_ratio) / (self.conductance_levels - 1)
        return step_fraction / sigma

    def describe(self) -> str:
        label = (f"m={self.fragment_size} cell={self.cell_bits}b "
                 f"w={self.weight_bits}b adc={self.adc_bits}b"
                 f"@{self.adc_frequency_hz / 1e9:.2f}GHz")
        if (self.crossbar_rows, self.crossbar_cols) != (CROSSBAR_ROWS,
                                                        CROSSBAR_COLS):
            label += f" xbar={self.crossbar_rows}x{self.crossbar_cols}"
        return label


def design_mcu(point: DesignPoint) -> MCUDesign:
    """MCU bill of materials for an arbitrary design point.

    Reuses the published FORMS constants for everything except the ADC bank,
    which is priced through the calibrated scaling model at the point's
    resolution and sample rate.  Off-reference crossbar dimensions scale the
    per-row (DAC, S&H) and per-cell (array) component costs linearly.
    """
    adc_count = CROSSBARS_PER_MCU * point.adcs_per_crossbar
    model = default_adc_model()
    adc = ComponentSpec(
        "ADC",
        model.power_mw(point.adc_bits, point.adc_frequency_hz) * adc_count,
        model.area_mm2(point.adc_bits) * adc_count,
        adc_count,
        (("resolution_bits", point.adc_bits),
         ("frequency_hz", point.adc_frequency_hz)),
    )
    # Swap the ADC row of the published fragment-8 BOM for the custom bank;
    # the remaining rows scale with the crossbar geometry.
    row_scale = point.crossbar_rows / CROSSBAR_ROWS
    cell_scale = (point.crossbar_rows * point.crossbar_cols
                  / (CROSSBAR_ROWS * CROSSBAR_COLS))
    rest = []
    for component in forms_mcu_components(8):
        if component.name == "ADC":
            continue
        if component.name in ("DAC", "S&H"):
            scale = row_scale
        elif component.name == "crossbar array":
            scale = cell_scale
        else:
            scale = 1.0
        rest.append(ComponentSpec(component.name,
                                  component.power_mw * scale,
                                  component.area_mm2 * scale,
                                  max(1, int(round(component.count * scale))),
                                  component.params))
    return MCUDesign(
        name=f"DSE({point.describe()})",
        components=[adc] + rest,
        crossbar_rows=point.crossbar_rows,
        crossbar_cols=point.crossbar_cols,
        adcs_per_crossbar=point.adcs_per_crossbar,
        adc_bits=point.adc_bits,
        adc_frequency_hz=point.adc_frequency_hz,
        rows_per_activation=point.fragment_size,
        fragment_size=point.fragment_size,
    )


def design_chip(point: DesignPoint) -> ChipDesign:
    """Full chip for a design point (FORMS digital unit and tile layout)."""
    tile = TileDesign(
        name=f"DSE({point.describe()})",
        mcu=design_mcu(point),
        digital_power_mw=53.05,
        digital_area_mm2=0.2425,
        edram_kb=128,
        bus_bits=512,
    )
    return ChipDesign(name=tile.name, tile=tile, tiles=point.tiles)


@dataclass
class DesignEvaluation:
    """Cost/performance/feasibility of one design point."""

    point: DesignPoint
    power_w: float
    area_mm2: float
    gops: float
    adc_power_fraction: float
    level_margin_sigmas: float
    weight_capacity: int = 0     # weights the chip can hold resident

    @property
    def gops_per_w(self) -> float:
        return self.gops / self.power_w

    @property
    def gops_per_mm2(self) -> float:
        return self.gops / self.area_mm2

    @property
    def weights_per_mm2(self) -> float:
        """Storage density — what larger crossbars buy (peripherals amortize)."""
        return self.weight_capacity / self.area_mm2

    @property
    def variation_feasible(self) -> bool:
        return self.level_margin_sigmas >= MIN_LEVEL_MARGIN_SIGMAS


def evaluate_design(point: DesignPoint, variation_sigma: float = 0.1,
                    average_eic: Optional[float] = None) -> DesignEvaluation:
    """Evaluate one design point end to end (chip roll-up + peak throughput)."""
    chip = design_chip(point)
    config = AcceleratorConfig(
        name=chip.name, chip=chip, scheme="forms",
        weight_bits=point.weight_bits, cell_bits=point.cell_bits,
        activation_bits=point.activation_bits,
        zero_skip=average_eic is not None,
    )
    peak = peak_throughput(config, average_eic=average_eic)
    mcu = chip.tile.mcu
    adc_power = next(c.power_mw for c in mcu.components if c.name == "ADC")
    weights_per_crossbar = (point.crossbar_rows * point.crossbar_cols
                            // point.cells_per_weight)
    return DesignEvaluation(
        point=point,
        power_w=chip.power_w,
        area_mm2=chip.area_mm2,
        gops=peak.gops,
        adc_power_fraction=adc_power / mcu.power_mw,
        level_margin_sigmas=point.level_margin_sigmas(variation_sigma),
        weight_capacity=chip.crossbars * weights_per_crossbar,
    )


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def sweep(points: Iterable[DesignPoint], variation_sigma: float = 0.1,
          workers: Optional[int] = None,
          backend: Optional[str] = None) -> List[DesignEvaluation]:
    """Evaluate design points, fanned out across ``workers`` when > 1.

    Points are independent analytic roll-ups, so the fan-out is trivially
    safe; results come back in point order regardless of worker count (or
    ``backend`` — the evaluator is a module-level partial, so the grid
    runs unchanged on the process tier).
    """
    from functools import partial

    from ..runtime import parallel_map
    if workers is None or workers <= 1:
        return [evaluate_design(p, variation_sigma) for p in points]
    return parallel_map(partial(evaluate_design,
                                variation_sigma=variation_sigma),
                        points, workers=workers, backend=backend)


def cell_bits_sweep(fragment_size: int = 8,
                    options: Sequence[int] = (1, 2, 4, 8),
                    adc_rule: str = "exact",
                    variation_sigma: float = 0.1,
                    workers: Optional[int] = None,
                    backend: Optional[str] = None) -> List[DesignEvaluation]:
    """The Sec. IV-C cell-density sweep at a fixed fragment size."""
    points = [DesignPoint(fragment_size=fragment_size, cell_bits=c,
                          weight_bits=max(8, c), adc_rule=adc_rule)
              for c in options]
    return sweep(points, variation_sigma, workers=workers, backend=backend)


def fragment_sweep(cell_bits: int = 2,
                   options: Sequence[int] = (4, 8, 16, 32),
                   adc_rule: str = "exact",
                   variation_sigma: float = 0.1,
                   workers: Optional[int] = None,
                   backend: Optional[str] = None) -> List[DesignEvaluation]:
    """Fragment-size sweep at fixed cell density."""
    points = [DesignPoint(fragment_size=m, cell_bits=cell_bits,
                          adc_rule=adc_rule) for m in options]
    return sweep(points, variation_sigma, workers=workers, backend=backend)


@dataclass
class CrossbarSizeEvaluation:
    """One crossbar-size design point with its analog-feasibility signal."""

    evaluation: DesignEvaluation
    analog_error: float

    #: a fragment read losing more than this fraction of its signal is
    #: considered analog-infeasible (roughly one 4-bit-ADC LSB of 16 levels)
    MAX_ANALOG_ERROR = 0.0625

    @property
    def size(self) -> int:
        return self.evaluation.point.crossbar_rows

    @property
    def analog_feasible(self) -> bool:
        return self.analog_error <= self.MAX_ANALOG_ERROR


def _evaluate_crossbar_size(size: int, fragment_size: int, cell_bits: int,
                            adc_rule: str, wire, seed: int
                            ) -> CrossbarSizeEvaluation:
    """One size point of :func:`crossbar_size_sweep` (module-level so the
    sweep's partial pickles onto the process backend)."""
    from ..reram.nonideal import CellIV, fragment_read_error

    point = DesignPoint(fragment_size=fragment_size, cell_bits=cell_bits,
                        adc_rule=adc_rule, crossbar_rows=size,
                        crossbar_cols=size)
    error = fragment_read_error(size, fragment_size, wire=wire,
                                cell_iv=CellIV(), seed=seed)
    return CrossbarSizeEvaluation(
        evaluation=evaluate_design(point), analog_error=error)


def crossbar_size_sweep(options: Sequence[int] = (64, 128, 256, 512),
                        fragment_size: int = 8, cell_bits: int = 2,
                        adc_rule: str = "paper",
                        wire=None, seed: int = 0,
                        workers: Optional[int] = None,
                        backend: Optional[str] = None
                        ) -> List[CrossbarSizeEvaluation]:
    """The "best size of crossbar arrays" exploration (Sec. IV-C).

    Square crossbars at each size: larger arrays amortize the constant
    per-MCU blocks over more weights (density and efficiency rise), but the
    bit-line grows with the row count and every fragment read degrades with
    it (:func:`repro.reram.nonideal.fragment_read_error`).  The published
    128x128 choice is where density gains meet the analog error wall.
    Sizes are independent (the analog-error solve dominates at 512 rows),
    so they fan out across ``workers`` when > 1.
    """
    from functools import partial

    from ..reram.nonideal import WireModel
    from ..runtime import parallel_map

    wire = wire or WireModel()
    evaluate_size = partial(_evaluate_crossbar_size,
                            fragment_size=fragment_size, cell_bits=cell_bits,
                            adc_rule=adc_rule, wire=wire, seed=seed)
    if workers is None or workers <= 1:
        return [evaluate_size(size) for size in options]
    return parallel_map(evaluate_size, options, workers=workers,
                        backend=backend)


def best_energy_efficiency(evaluations: Sequence[DesignEvaluation],
                           require_feasible: bool = True) -> DesignEvaluation:
    """The GOPs/W winner, optionally restricted to variation-feasible points."""
    pool = [e for e in evaluations if e.variation_feasible] if require_feasible \
        else list(evaluations)
    if not pool:
        raise ValueError("no feasible design points to choose from")
    return max(pool, key=lambda e: e.gops_per_w)


def pareto_front(evaluations: Sequence[DesignEvaluation],
                 objectives: Tuple[str, ...] = ("gops_per_w", "gops_per_mm2")
                 ) -> List[DesignEvaluation]:
    """Non-dominated subset under the given to-maximize objectives."""
    if not objectives:
        raise ValueError("need at least one objective")
    scores = np.array([[getattr(e, obj) for obj in objectives]
                       for e in evaluations])
    front = []
    for i, candidate in enumerate(evaluations):
        dominated = ((scores >= scores[i]).all(axis=1)
                     & (scores > scores[i]).any(axis=1)).any()
        if not dominated:
            front.append(candidate)
    return front
