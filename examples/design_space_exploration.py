"""Design-space exploration: fragment size vs throughput, power and area.

Reproduces the architect's-eye view behind the paper's Sec. IV-C choices:
sweep the fragment size (which fixes ADC resolution and SAR sampling rate),
build the corresponding FORMS chip, and evaluate peak efficiency and
pipelined FPS on a full-size VGG-16 workload.  Shows why the paper picks
fragments of 8/16: smaller fragments skip more zeros but burn row-group
sequencing; larger ones need exponentially costlier ADCs and polarize worse.

Run:  python examples/design_space_exploration.py
"""

from repro.analysis import render_table
from repro.arch import (AcceleratorConfig, extract_workload, forms_chip,
                        isaac16_config, isaac32_config, network_performance,
                        peak_throughput)
from repro.arch.workload import trace_dimensions, transfer_measurements
from repro.nn import (Adam, build_model, fit, set_init_seed, synthetic_cifar100)
from repro.reram.converters import paper_adc_bits


def main() -> None:
    # ------------------------------------------------------------------
    # Measured ingredients: train + trace a scaled VGG-16 for EIC stats.
    # ------------------------------------------------------------------
    set_init_seed(2)
    train_set, test_set = synthetic_cifar100(train_size=256, test_size=128)
    scaled = build_model("vgg16", train_set.num_classes, 3,
                         train_set.image_size, width_mult=0.25)
    print("training scaled VGG-16 for activation statistics ...")
    fit(scaled, train_set, Adam(scaled.parameters(), lr=1e-3), epochs=4,
        batch_size=32)
    fragment_sizes = (4, 8, 16, 32)
    measured = extract_workload(scaled, test_set,
                                fragment_sizes=fragment_sizes, sample_images=4)

    # Full-size dimensions with the measured EIC grafted on
    # (repro.arch.workload.transfer_measurements).
    full = build_model("vgg16", 100, 3, 32, width_mult=1.0)
    workload = transfer_measurements(trace_dimensions(full, 3, 32, network="VGG16"),
                                     measured)

    # ------------------------------------------------------------------
    # Sweep fragment sizes.
    # ------------------------------------------------------------------
    isaac = isaac16_config()
    isaac_peak = peak_throughput(isaac)
    isaac_fps = network_performance(workload, isaac32_config()).fps

    rows = []
    for m in fragment_sizes:
        chip = forms_chip(m)
        config = AcceleratorConfig(f"FORMS-{m}", chip, "forms", weight_bits=8,
                                   use_pruned_structure=False, zero_skip=True)
        peak = peak_throughput(config, average_eic=workload.average_eic(m))
        perf = network_performance(workload, config)
        rows.append([
            m,
            paper_adc_bits(m),
            chip.tile.mcu.adc_frequency_hz / 1e9,
            chip.power_w,
            chip.area_mm2,
            workload.average_eic(m),
            peak.gops_per_mm2 / isaac_peak.gops_per_mm2,
            peak.gops_per_w / isaac_peak.gops_per_w,
            perf.fps / isaac_fps,
        ])
    print()
    print(render_table(
        ["fragment", "ADC bits", "ADC GS/s", "chip W", "chip mm2",
         "avg EIC", "peak/mm2 vs ISAAC", "peak/W vs ISAAC", "FPS vs ISAAC-32"],
        rows, title="FORMS design space (dense 8-bit VGG-16, zero-skip on)",
        floatfmt=".3g"))
    print("\nReading: fragment 4 skips the most zeros (lowest EIC) but pays "
          "32 sequential row-groups per crossbar; fragment 32 needs a 6-bit "
          "ADC whose cost grows exponentially.  Fragments 8-16 are the sweet "
          "spot — the paper's chosen design points.")


if __name__ == "__main__":
    main()
