"""Iso-area performance model: FPS, peak throughput, efficiency.

This is the model behind Table V and Figs. 13/14.  Inputs: a chip design
(crossbar budget, timing, power, area), a mapping configuration (scheme,
weight bits, pruned structure, zero-skipping) and a measured
:class:`~repro.arch.workload.NetworkWorkload`.

Model structure and its assumptions:

* **Weight-stationary pipelined execution** (paper Fig. 12 / ISAAC): each
  layer owns crossbars holding its weights; images stream through; steady-
  state FPS is set by the slowest layer.
* **Crossbar counting**: a layer's live (pruned) matrix is tiled onto
  128x128 crossbars at ``cells_per_weight`` cells each, doubled for
  dual-crossbar schemes — via :func:`repro.core.compression.crossbars_for_matrix`.
* **Replication**: spare crossbars replicate bottleneck layers.  A greedy
  allocator raises the replication of whichever layer currently dominates
  latency until the budget is spent.  Replication per layer is capped by the
  tile-bus bandwidth (``2 * bus_bits / activation_bits`` input streams); the
  paper makes exactly this caveat for pruned ISAAC/PUMA ("if interconnects
  can provide enough bandwidth") and doubles FORMS' bus width.
* **Pass timing**: coarse designs (ISAAC/PUMA) convert each column once per
  input bit: ``bits x columns_per_adc / f_adc``.  Fine-grained FORMS converts
  each *fragment* once per input bit, i.e. ``row_groups`` times more
  conversions, at 4x the ADC count and 1.75x the clock; zero-skipping
  replaces the 16 input bits by each layer's measured average EIC.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..core.compression import CrossbarShape, crossbars_for_matrix
from .chip import ChipDesign, forms_chip, isaac_chip
from .workload import LayerWorkload, NetworkWorkload


@dataclass(frozen=True)
class AcceleratorConfig:
    """One evaluated accelerator configuration (a bar in Figs. 13/14)."""

    name: str
    chip: ChipDesign
    scheme: str = "isaac_offset"     # crossbar-copy scheme for signed weights
    weight_bits: int = 16
    cell_bits: int = 2
    activation_bits: int = 16
    use_pruned_structure: bool = False
    zero_skip: bool = False

    @property
    def cells_per_weight(self) -> int:
        return -(-self.weight_bits // self.cell_bits)

    @property
    def fragment_size(self) -> int:
        return self.chip.tile.mcu.fragment_size

    @property
    def is_fine_grained(self) -> bool:
        return self.fragment_size > 0

    #: input streams sustainable per bus bit-lane; calibrated so pruned ISAAC
    #: saturates near the paper's largest observed speedups (~200x on the
    #: most compressed CIFAR-10 models) while FORMS' 512-bit bus doubles the
    #: ceiling — the interconnect caveat the paper attaches to its
    #: pruned-ISAAC/PUMA rows.
    streams_per_lane: int = 8

    def replication_cap(self) -> int:
        """Bandwidth-limited replication per layer (input streams)."""
        return max(1, self.streams_per_lane * self.chip.tile.bus_bits
                   // self.activation_bits)


# ---------------------------------------------------------------------------
# Per-layer quantities
# ---------------------------------------------------------------------------

def layer_crossbars(layer: LayerWorkload, config: AcceleratorConfig,
                    crossbar: Optional[CrossbarShape] = None) -> int:
    """Crossbars needed to hold one copy of the layer's weights."""
    crossbar = crossbar or CrossbarShape(config.chip.tile.mcu.crossbar_rows,
                                         config.chip.tile.mcu.crossbar_cols)
    rows = layer.live_rows if config.use_pruned_structure else layer.rows
    cols = layer.live_cols if config.use_pruned_structure else layer.cols
    # Only the copy count differs between schemes here; FORMS and ISAAC both
    # store one copy, PRIME-style dual mapping stores two.
    scheme = "dual" if config.scheme == "dual" else "forms"
    return crossbars_for_matrix(rows, cols, crossbar, config.cells_per_weight,
                                scheme=scheme)


def layer_input_bits(layer: LayerWorkload, config: AcceleratorConfig) -> float:
    """Input bit-cycles fed per MVM pass (EIC average when zero-skipping)."""
    if config.zero_skip and config.is_fine_grained:
        return min(layer.average_eic(config.fragment_size, config.activation_bits),
                   float(config.activation_bits))
    return float(config.activation_bits)


def layer_pass_time_s(layer: LayerWorkload, config: AcceleratorConfig) -> float:
    """Time for the layer's crossbars to absorb one input vector.

    Vertically-stacked crossbars work in parallel, so the pass time depends
    on the rows covered by one crossbar, not the whole layer height.
    """
    mcu = config.chip.tile.mcu
    bits = layer_input_bits(layer, config)
    rows = layer.live_rows if config.use_pruned_structure else layer.rows
    rows_in_crossbar = min(rows, mcu.crossbar_rows)
    if config.is_fine_grained:
        row_groups = -(-rows_in_crossbar // mcu.rows_per_activation)
    else:
        row_groups = 1
    return row_groups * bits * mcu.cycle_time_s


def layer_time_per_image_s(layer: LayerWorkload, config: AcceleratorConfig,
                           replication: float = 1.0) -> float:
    """Per-image latency contribution of one layer at a given replication."""
    return layer.positions_per_image * layer_pass_time_s(layer, config) / replication


# ---------------------------------------------------------------------------
# Replication allocation
# ---------------------------------------------------------------------------

def allocate_replication(workload: NetworkWorkload, config: AcceleratorConfig) -> Dict[str, float]:
    """Distribute the crossbar budget across layers to minimize the bottleneck.

    Every layer gets at least one (possibly fractional) copy; spare budget is
    spent greedily on the current bottleneck layer, honoring the bandwidth
    cap.  When the model does not fit the chip even once, replication factors
    drop below 1 (time-multiplexed weights — the dense 32-bit baselines),
    scaling all layers by the same deficit factor.
    """
    costs = {layer.name: layer_crossbars(layer, config) for layer in workload.layers}
    total_cost = sum(costs.values())
    budget = config.chip.crossbars
    cap = config.replication_cap()
    if total_cost >= budget:
        # Does not fit: uniform fractional residency.
        fraction = budget / total_cost
        return {name: fraction for name in costs}

    replication = {layer.name: 1.0 for layer in workload.layers}
    remaining = budget - total_cost
    times = {layer.name: layer_time_per_image_s(layer, config) for layer in workload.layers}

    def bottleneck() -> Optional[str]:
        candidates = [(times[l.name] / replication[l.name], l.name)
                      for l in workload.layers if replication[l.name] < cap]
        if not candidates:
            return None
        return max(candidates)[1]

    while True:
        name = bottleneck()
        if name is None or costs[name] > remaining:
            break
        replication[name] += 1.0
        remaining -= costs[name]
    return replication


# ---------------------------------------------------------------------------
# Network-level results
# ---------------------------------------------------------------------------

@dataclass
class PerfResult:
    """Performance of one configuration on one workload."""

    config_name: str
    workload_name: str
    fps: float
    bottleneck_layer: str
    crossbars_used: float
    replication: Dict[str, float] = field(default_factory=dict)
    dense_macs_per_image: int = 0
    chip_power_w: float = 0.0
    chip_area_mm2: float = 0.0

    @property
    def effective_gops(self) -> float:
        """Dense-model-equivalent GOP/s delivered (2 ops per MAC)."""
        return 2.0 * self.dense_macs_per_image * self.fps / 1e9

    @property
    def gops_per_mm2(self) -> float:
        return self.effective_gops / self.chip_area_mm2

    @property
    def gops_per_w(self) -> float:
        return self.effective_gops / self.chip_power_w


def network_performance(workload: NetworkWorkload,
                        config: AcceleratorConfig) -> PerfResult:
    """Steady-state pipelined FPS of ``workload`` on ``config``."""
    replication = allocate_replication(workload, config)
    worst_time = 0.0
    worst_name = ""
    for layer in workload.layers:
        t = layer_time_per_image_s(layer, config, replication[layer.name])
        if t > worst_time:
            worst_time, worst_name = t, layer.name
    used = sum(layer_crossbars(l, config) * replication[l.name]
               for l in workload.layers)
    return PerfResult(
        config_name=config.name,
        workload_name=f"{workload.network}/{workload.dataset}",
        fps=1.0 / worst_time if worst_time > 0 else float("inf"),
        bottleneck_layer=worst_name,
        crossbars_used=used,
        replication=replication,
        dense_macs_per_image=workload.total_dense_macs,
        chip_power_w=config.chip.power_w,
        chip_area_mm2=config.chip.area_mm2,
    )


@dataclass
class PeakThroughput:
    """Nominal peak rates for Table V."""

    config_name: str
    gops: float
    gops_per_mm2: float
    gops_per_w: float


def peak_throughput(config: AcceleratorConfig,
                    effective_ops_factor: float = 1.0,
                    average_eic: Optional[float] = None) -> PeakThroughput:
    """Peak nominal throughput of a configuration (Table V).

    Every crossbar streams MVMs back-to-back: ops = 2 x (weights stored per
    crossbar) per full pass.  ``effective_ops_factor`` converts stored-weight
    ops into dense-model-equivalent ops for pruned configurations (the
    paper's "effective peak"); ``average_eic`` enables zero-skipping in the
    pass time.
    """
    mcu = config.chip.tile.mcu
    copies = 2 if config.scheme == "dual" else 1
    weight_cols = mcu.crossbar_cols // config.cells_per_weight
    weights_per_crossbar = mcu.crossbar_rows * weight_cols / copies
    bits = float(config.activation_bits)
    if average_eic is not None and config.zero_skip and config.is_fine_grained:
        bits = min(average_eic, bits)
    pass_time = mcu.full_mvm_time_s(bits)
    ops_per_s = config.chip.crossbars * 2.0 * weights_per_crossbar / pass_time
    ops_per_s *= effective_ops_factor
    gops = ops_per_s / 1e9
    return PeakThroughput(
        config_name=config.name,
        gops=gops,
        gops_per_mm2=gops / config.chip.area_mm2,
        gops_per_w=gops / config.chip.power_w,
    )


# ---------------------------------------------------------------------------
# Standard configurations (the bars of Figs. 13/14 and rows of Table V)
# ---------------------------------------------------------------------------

def isaac32_config(tiles: int = 168) -> AcceleratorConfig:
    """The normalization baseline: dense ISAAC with 32-bit weights."""
    return AcceleratorConfig(name="ISAAC-32", chip=isaac_chip(tiles),
                             scheme="isaac_offset", weight_bits=32)


def isaac16_config(tiles: int = 168) -> AcceleratorConfig:
    """Original ISAAC (16-bit weights), Table V's unit row."""
    return AcceleratorConfig(name="ISAAC", chip=isaac_chip(tiles),
                             scheme="isaac_offset", weight_bits=16)


def pruned_quantized_isaac_config(weight_bits: int = 8,
                                  tiles: int = 168) -> AcceleratorConfig:
    return AcceleratorConfig(name="Pruned/Quantized-ISAAC", chip=isaac_chip(tiles),
                             scheme="isaac_offset", weight_bits=weight_bits,
                             use_pruned_structure=True)


def puma_config(weight_bits: int = 16, pruned: bool = False,
                tiles: int = 168) -> AcceleratorConfig:
    """PUMA modelled as a dual-crossbar coarse-grained design."""
    name = "Pruned/Quantized-PUMA" if pruned else "PUMA"
    return AcceleratorConfig(name=name, chip=isaac_chip(tiles), scheme="dual",
                             weight_bits=weight_bits, use_pruned_structure=pruned)


def forms_config(fragment_size: int = 8, weight_bits: int = 8,
                 pruned: bool = True, zero_skip: bool = True,
                 name: Optional[str] = None, tiles: int = 168) -> AcceleratorConfig:
    """FORMS at a fragment size; toggles give the ablation stacks."""
    if name is None:
        tags = []
        if pruned:
            tags.append("PQP")
        if zero_skip:
            tags.append("ZS")
        name = f"FORMS-{fragment_size}" + (f" ({'+'.join(tags)})" if tags else "")
    return AcceleratorConfig(name=name, chip=forms_chip(fragment_size, tiles),
                             scheme="forms", weight_bits=weight_bits,
                             use_pruned_structure=pruned, zero_skip=zero_skip)


def pressure_matched_tiles(workload: NetworkWorkload, pressure: float = 4.0,
                           reference: Optional[AcceleratorConfig] = None) -> int:
    """Tile count that oversubscribes the dense 32-bit baseline by ``pressure``.

    The paper's full-size chip holds its full-size dense models only
    fractionally (a dense 32-bit VGG-16 wants several times ISAAC's crossbar
    budget); our scaled-down models would otherwise fit trivially and mask
    every compression benefit.  Matching the *pressure* — dense crossbar
    demand over chip budget — restores the paper's operating point.
    """
    if pressure <= 0:
        raise ValueError("pressure must be positive")
    reference = reference or isaac32_config(tiles=1)
    demand = sum(layer_crossbars(layer, reference) for layer in workload.layers)
    per_tile = reference.chip.tile.crossbars
    tiles = max(1, int(round(demand / (pressure * per_tile))))
    return tiles
