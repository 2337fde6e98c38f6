"""Study drivers beyond the paper's own tables: ablations, extensions and
validations of the mechanisms the paper argues from.

Same contract as :mod:`repro.analysis.experiments`: each driver takes an
:class:`ExperimentScale` and a seed and returns an :class:`ExperimentTable`
whose ``extras`` carry what :mod:`repro.analysis.registry` checks.  The
analytic sweeps (``cell_bits``, ``crossbar_size``, ``ir_drop``,
``event_pipeline``) ignore the scale; the rest train LeNet-5 / VGG-16 at it.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..arch import (MeshNoC, analyze_traffic, extract_workload, forms_config,
                    inference_energy, isaac16_config, layer_crossbars,
                    network_performance, place_layers,
                    zero_skip_energy_saving)
from ..arch.components import default_adc_model
from ..arch.dse import cell_bits_sweep, crossbar_size_sweep
from ..arch.event_pipeline import (EventPipeline, MultiLayerPipeline,
                                   layer_stage_spec)
from ..arch.workload import trace_dimensions, transfer_measurements
from ..core import (MitigationConfig, compute_signs, fault_tolerance_study,
                    project_polarization, required_bits_with_tinyadc)
from ..core.quantization import activation_to_int
from ..core.tinyadc import project_fragment_sparsity
from ..core.zero_skip import eic_matrix
from ..nn import (Tensor, build_model, compressible_layers, evaluate,
                  set_init_seed)
from ..nn import functional as F
from ..reram import (ADCSpec, DeviceSpec, DieCache, ReRAMDevice, build_engine,
                     build_insitu_network, paper_adc_bits, required_adc_bits,
                     total_cycles_fed)
from ..reram.nonideal import LINEAR_CELL, CellIV, WireModel, ir_drop_study
from ..reram.variation import clone_model
from .experiments import (ExperimentTable, forms_config_for,
                          optimize_baseline, train_baseline)
from .presets import ExperimentScale

#: array sizes of the crossbar-size sweep
CROSSBAR_SIZES = (64, 128, 256, 512)
#: rows active per conversion in the IR-drop study (FORMS 4/8/16 .. ISAAC 64)
IRDROP_GRANULARITIES = (4, 8, 16, 32, 64)
#: TinyADC nonzeros-per-fragment bounds, fragment 8
TINYADC_FRAGMENT = 8
TINYADC_KS = (8, 6, 4, 2)
#: fragment sizes replayed through the event-driven pipeline
PIPELINE_FRAGMENTS = (4, 8, 16, 128)
PIPELINE_POSITIONS = 600
#: (SA0, SA1) stuck-at rates of the fault-tolerance study
FAULT_RATES = ((0.002, 0.0002), (0.01, 0.001), (0.05, 0.005))


def cell_bits(scale: ExperimentScale, seed: int) -> ExperimentTable:
    """Sec. IV-C bits-per-cell sweep under both ADC sizing rules.

    The paper's conclusion: 2-bit cells win GOPs/W; under its typical-case
    sizing 4-bit cells look marginally better on raw efficiency but fall
    below the 3-sigma level-separation margin.
    """
    rows = []
    evaluations = {}
    for rule in ("exact", "paper"):
        for ev in cell_bits_sweep(adc_rule=rule, variation_sigma=0.1):
            rows.append([rule, ev.point.cell_bits, ev.point.adc_bits,
                         ev.gops_per_w, ev.gops_per_mm2,
                         ev.adc_power_fraction * 100.0,
                         ev.level_margin_sigmas, ev.variation_feasible])
            evaluations[(rule, ev.point.cell_bits)] = ev
    table = ExperimentTable(
        "Ablation: bits per cell (fragment 8, sigma=0.1 variation)",
        ["ADC rule", "cell bits", "ADC bits", "GOPs/W", "GOPs/mm2",
         "ADC power %", "level margin (sigma)", "feasible"],
        rows)
    table.extras["evaluations"] = evaluations
    return table


def crossbar_size(scale: ExperimentScale, seed: int) -> ExperimentTable:
    """Sec. IV-C array-size sweep: density rises with size, and so does the
    analog error of a fragment read, which crosses the one-LSB budget
    between 128 and 256 rows."""
    results = crossbar_size_sweep(options=CROSSBAR_SIZES, seed=seed)
    rows = [[f"{r.size}x{r.size}", r.evaluation.gops_per_w,
             r.evaluation.weights_per_mm2 / 1e6, r.analog_error * 100.0,
             r.analog_feasible] for r in results]
    table = ExperimentTable(
        "Ablation: crossbar array size (fragment 8, 2-bit cells)",
        ["crossbar", "GOPs/W", "density (Mweights/mm2)",
         "fragment-read error %", "analog feasible"],
        rows)
    table.extras["results"] = results
    return table


def ir_drop(scale: ExperimentScale, seed: int) -> ExperimentTable:
    """IR-drop MVM error vs rows active per conversion (Secs. I, II-C, IV-B).

    One 64x8 crossbar with wire parasitics, read a fragment at a time or in
    larger groups.  The linear-cell column is the superposition control:
    without cell nonlinearity, granularity is irrelevant.
    """
    nonlinear, linear = (
        ir_drop_study(rows=64, cols=8,
                      active_row_options=list(IRDROP_GRANULARITIES),
                      wire=WireModel(r_wire_ohm=2.5), cell_iv=cell, seed=seed)
        for cell in (CellIV(nonlinearity=2.0), LINEAR_CELL))
    rows = [[nl.active_rows, nl.relative_error * 100.0,
             li.relative_error * 100.0] for nl, li in zip(nonlinear, linear)]
    table = ExperimentTable(
        "Ablation: IR-drop MVM error vs rows active per conversion "
        "(64x8 crossbar, r_wire=2.5 Ohm)",
        ["active rows", "error % (nonlinear cells)", "error % (linear cells)"],
        rows)
    table.extras["nonlinear"] = {p.active_rows: p.relative_error
                                 for p in nonlinear}
    table.extras["linear"] = {p.active_rows: p.relative_error for p in linear}
    return table


def adc_bits(scale: ExperimentScale, seed: int) -> ExperimentTable:
    """ADC resolution vs fragment size on real activations.

    LeNet-5's second conv layer at the paper's sizing (one bit under the
    worst-case fragment sum) and at the exact sizing, both reading the same
    programmed die.
    """
    baseline = train_baseline("lenet5", "mnist", scale, seed=seed)
    die_cache = DieCache()
    device = ReRAMDevice(DeviceSpec(), 0.0)
    rows = []
    cases = {}
    for fragment in (4, 8, 16):
        config = forms_config_for(scale, "mnist", fragment_size=fragment)
        result = optimize_baseline(baseline, config, seed=seed)
        # second conv layer of LeNet carries the most accumulation
        name, art = list(result.layers.items())[1]
        levels = art.geometry.matrix(art.int_weights)
        layer = dict(compressible_layers(result.model))[name]
        x = result.model.features[0:3](
            Tensor(baseline.test_set.images[:8])).data
        cols = F.im2col(x, layer.kernel_size, layer.kernel_size,
                        layer.stride, layer.padding)
        x_int, _ = activation_to_int(np.abs(cols), bits=8)
        expected = levels.T @ x_int
        for label, bits in (("paper", paper_adc_bits(fragment)),
                            ("exact", required_adc_bits(fragment, 2))):
            engine = build_engine(levels, art.geometry, config.quant_spec(),
                                  device, adc=ADCSpec(bits=bits),
                                  activation_bits=8, die_cache=die_cache)
            out = engine.matvec_int(x_int)
            error = float(np.abs(out - expected).sum()
                          / (np.abs(expected).sum() + 1e-12))
            saturation = engine.stats.saturation_fraction
            rows.append([fragment, label, bits, saturation * 100.0,
                         error * 100.0])
            cases[(fragment, label)] = {"saturation": saturation,
                                        "error": error}
    table = ExperimentTable(
        "Ablation: ADC resolution vs fragment size (LeNet-5 conv2, real activations)",
        ["fragment", "sizing", "ADC bits", "saturation %", "output error %"],
        rows)
    table.extras["cases"] = cases
    return table


def sign_rule(scale: ExperimentScale, seed: int) -> ExperimentTable:
    """The paper's sum sign rule (Eq. 2) vs the L2-optimal rule: projection
    distance before retraining and accuracy after it."""
    baseline = train_baseline("vgg16", "cifar10", scale, seed=seed)
    rows = []
    extras = {}
    for rule in ("sum", "l2"):
        config = replace(forms_config_for(scale, "cifar10", do_prune=False,
                                          do_quantize=False), sign_rule=rule)
        distance = 0.0
        total = 0.0
        for _, layer in compressible_layers(baseline.model):
            geometry = config.geometry_for(layer)
            w = layer.weight.data.astype(np.float64)
            projected = project_polarization(
                w, geometry, compute_signs(w, geometry, rule))
            distance += float(((w - projected) ** 2).sum())
            total += float((w ** 2).sum())
        result = optimize_baseline(baseline, config, seed=seed)
        rows.append([rule, np.sqrt(distance / total) * 100.0,
                     result.final_accuracy * 100.0])
        extras[rule] = {"distance": distance, "accuracy": result.final_accuracy}
    table = ExperimentTable(
        "Ablation: polarization sign rule (VGG-16 / CIFAR-10, fragment 8)",
        ["sign rule", "projection distance (% of ||W||)", "final accuracy %"],
        rows)
    table.extras.update(extras)
    return table


def tinyadc(scale: ExperimentScale, seed: int) -> ExperimentTable:
    """TinyADC's nonzeros-per-fragment bound composed with FORMS fragments,
    priced through the calibrated ADC model; accuracy after projection
    only (no retraining — the pessimistic bound)."""
    baseline = train_baseline("lenet5", "mnist", scale, seed=seed)
    config = forms_config_for(scale, "mnist", fragment_size=TINYADC_FRAGMENT)
    model = optimize_baseline(baseline, config, seed=seed).model
    base_accuracy = evaluate(model, baseline.test_set).accuracy
    adc_model = default_adc_model()
    dense_power = adc_model.power_mw(
        required_bits_with_tinyadc(TINYADC_FRAGMENT, config.cell_bits), 2.1e9)
    rows = []
    cases = {}
    for k in TINYADC_KS:
        sparse = clone_model(model)
        for _, layer in compressible_layers(sparse):
            layer.weight.data[...] = project_fragment_sparsity(
                layer.weight.data, config.geometry_for(layer), k)
        accuracy = evaluate(sparse, baseline.test_set).accuracy
        bits = required_bits_with_tinyadc(k, config.cell_bits)
        power_ratio = adc_model.power_mw(bits, 2.1e9) / dense_power
        rows.append([k, bits, power_ratio, accuracy * 100.0,
                     (base_accuracy - accuracy) * 100.0])
        cases[k] = {"bits": bits, "power_ratio": power_ratio,
                    "accuracy": accuracy}
    table = ExperimentTable(
        "Ablation: TinyADC sparsity bound k per fragment "
        f"(fragment {TINYADC_FRAGMENT}, LeNet-5, projection only)",
        ["k (nonzeros)", "ADC bits", "ADC power vs dense",
         "accuracy %", "accuracy drop %"],
        rows)
    table.extras["cases"] = cases
    table.extras["base_accuracy"] = base_accuracy
    return table


def energy_noc(scale: ExperimentScale, seed: int) -> ExperimentTable:
    """Per-inference energy split and mesh-link utilization on a full-size
    VGG-16, ISAAC vs FORMS-8 with and without zero-skipping (Sec. IV-B,
    Fig. 10)."""
    baseline = train_baseline("vgg16", "cifar100", scale, seed=seed)
    measured = extract_workload(baseline.model, baseline.test_set,
                                fragment_sizes=(4, 8, 16),
                                sample_images=scale.sample_images)
    set_init_seed(seed + 5)
    full = build_model("vgg16", 100, 3, 32, width_mult=1.0)
    workload = transfer_measurements(
        trace_dimensions(full, 3, 32, network="VGG16"), measured)
    rows = []
    extras = {}
    for config in (isaac16_config(),
                   forms_config(8, pruned=False, zero_skip=False,
                                name="FORMS-8 (no skip)"),
                   forms_config(8, pruned=False, zero_skip=True,
                                name="FORMS-8 (skip)")):
        perf = network_performance(workload, config)
        mesh = MeshNoC.for_tiles(config.chip.tiles)
        demands = {l.name: layer_crossbars(l, config) for l in workload.layers}
        placements = place_layers(workload, mesh, demands,
                                  crossbars_per_tile=config.chip.tile.crossbars)
        traffic = analyze_traffic(workload, mesh, placements)
        energy = inference_energy(workload, config, perf=perf,
                                  noc_energy_j=traffic.energy_j)
        saving = zero_skip_energy_saving(workload, config)
        rows.append([config.name,
                     energy.analog_j * 1e3, energy.digital_j * 1e3,
                     energy.static_j * 1e3, energy.noc_j * 1e3,
                     energy.total_j * 1e3, saving * 100.0,
                     traffic.aggregate_utilization(perf.fps) * 100.0,
                     traffic.max_link_utilization(perf.fps) * 100.0])
        extras[config.name] = {"energy": energy, "saving": saving}
    table = ExperimentTable(
        "Extension: per-inference energy (mJ) and NoC utilization, VGG-16",
        ["config", "analog mJ", "digital mJ", "static mJ", "NoC mJ",
         "total mJ", "zero-skip saving %", "mesh util %", "hotspot util %"],
        rows)
    table.extras.update(extras)
    return table


def _synthetic_activations(seed: int) -> np.ndarray:
    """Post-ReLU-shaped 16-bit activations: mostly small, rarely large."""
    rng = np.random.default_rng(seed)
    shape = (256, PIPELINE_POSITIONS)
    magnitudes = rng.lognormal(mean=3.0, sigma=1.6, size=shape)
    values = np.where(rng.random(shape) < 0.45, 0.0, magnitudes)
    return np.clip(values, 0, 2 ** 16 - 1).astype(np.int64)


def event_pipeline(scale: ExperimentScale, seed: int) -> ExperimentTable:
    """The analytic initiation interval of Figs. 13/14 (mean EIC) against the
    event-driven 22-stage pipeline replaying the actual per-position EIC
    sequence, per fragment size and for a bottlenecked 3-layer chain."""
    activations = _synthetic_activations(seed)
    spec = layer_stage_spec()
    rows = []
    extras = {}
    for fragment in PIPELINE_FRAGMENTS:
        # one row group feeds serially per conversion: its per-position EIC
        # sequence is the feed-phase duration the pipeline sees
        per_position = eic_matrix(activations, fragment)[0]
        stats = EventPipeline(spec, per_position).run()
        analytic = float(per_position.mean())
        simulated = stats.steady_interval
        rows.append([fragment, analytic, simulated,
                     100.0 * abs(simulated - analytic) / analytic,
                     stats.makespan])
        extras[fragment] = {"analytic": analytic, "simulated": simulated}
    feeds = [eic_matrix(activations, m)[0] for m in (4, 128, 8)]
    chain = MultiLayerPipeline([(spec, f) for f in feeds],
                               buffer_capacity=8).run()
    extras["chain"] = {"interval": chain[-1].steady_interval,
                       "bottleneck": max(float(f.mean()) for f in feeds)}
    table = ExperimentTable(
        "Validation: event-driven pipeline vs analytic initiation interval "
        f"({PIPELINE_POSITIONS} positions, 16-bit inputs)",
        ["fragment", "analytic interval", "simulated interval",
         "mismatch %", "makespan (cycles)"],
        rows)
    table.extras.update(extras)
    return table


def fault_tolerance(scale: ExperimentScale, seed: int) -> ExperimentTable:
    """Stuck-at faults with the [29]-style mitigations (column remapping +
    differential fragment encoding) on paired dies (Sec. V-E)."""
    baseline = train_baseline("lenet5", "mnist", scale, seed=seed)
    config = forms_config_for(scale, "mnist", fragment_size=8)
    model = optimize_baseline(baseline, config, seed=seed).model
    points = fault_tolerance_study(model, config, baseline.test_set,
                                   fault_rates=list(FAULT_RATES), runs=3,
                                   seed=seed, mitigation=MitigationConfig())
    rows = [[p.sa0_rate, p.sa1_rate, p.unmitigated_mean * 100.0,
             p.mitigated_mean * 100.0, p.accuracy_recovered * 100.0]
            for p in points]
    table = ExperimentTable(
        "Extension: stuck-at faults with [29]-style mitigation "
        "(LeNet-5, FORMS-8, 3 dies per rate)",
        ["SA0 rate", "SA1 rate", "unmitigated acc %", "mitigated acc %",
         "recovered %"],
        rows, floatfmt=".3g")
    table.extras["points"] = points
    return table


def insitu_validation(scale: ExperimentScale, seed: int) -> ExperimentTable:
    """Whole-network in-situ inference of a FORMS-optimized LeNet-5 on the
    bit-serial engine vs the digital model, on an ideal and a noisy die."""
    baseline = train_baseline("lenet5", "mnist", scale, seed=seed)
    config = forms_config_for(scale, "mnist", fragment_size=8)
    model = optimize_baseline(baseline, config, seed=seed).model
    digital_acc = evaluate(model, baseline.test_set).accuracy
    rows = []
    extras = {}
    for label, sigma in (("ideal die", 0.0), ("noisy die (sigma=0.1)", 0.1)):
        device = ReRAMDevice(DeviceSpec(), variation_sigma=sigma,
                             seed=seed + 1)
        insitu, engines = build_insitu_network(model, config, device,
                                               activation_bits=16)
        accuracy = evaluate(insitu, baseline.test_set).accuracy
        cycles = total_cycles_fed(engines)
        conversions = sum(e.stats.conversions for e in engines.values())
        saturated = sum(e.stats.saturated for e in engines.values())
        rows.append([label, digital_acc * 100.0, accuracy * 100.0,
                     cycles, 100.0 * saturated / max(conversions, 1)])
        extras[label] = {"accuracy": accuracy, "cycles": cycles,
                         "engines": len(engines)}
    extras["digital_accuracy"] = digital_acc
    extras["batches"] = -(-len(baseline.test_set) // 64)
    table = ExperimentTable(
        "Validation: whole-network in-situ inference (LeNet-5, FORMS-8)",
        ["die", "digital acc %", "in-situ acc %", "bit-serial cycles",
         "ADC saturation %"],
        rows)
    table.extras.update(extras)
    return table
