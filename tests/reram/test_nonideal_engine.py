"""Non-ideal engine tests: each physics knob degrades output attributably."""

import numpy as np
import pytest

from repro.core.fragments import FragmentGeometry
from repro.core.quantization import QuantizationSpec
from repro.reram import DeviceSpec, NonidealEngine, ReRAMDevice
from repro.reram.mapping import infer_signs, map_layer
from repro.reram.nonideal import CellIV, FaultModel, ReadNoise, WireModel


def output_error(engine, reference, x_int) -> float:
    """Relative L1 error of ``engine`` against a reference engine's output."""
    noisy = engine.matvec_int(x_int).astype(np.float64)
    exact = reference.matvec_int(x_int).astype(np.float64)
    denom = np.abs(exact).sum()
    return float(np.abs(noisy - exact).sum() / denom) if denom else 0.0


@pytest.fixture(scope="module")
def mapped_layer():
    rng = np.random.default_rng(0)
    geometry = FragmentGeometry((8, 2, 3, 3), 4, "w")   # 18 rows x 8 cols
    levels = rng.integers(-20, 21, size=(geometry.rows, geometry.cols))
    # polarize each fragment to the FORMS property
    stack_rows = geometry.padded_rows
    padded = np.vstack([levels,
                        np.zeros((stack_rows - geometry.rows, geometry.cols),
                                 dtype=levels.dtype)])
    stack = padded.reshape(-1, geometry.fragment_size, geometry.cols)
    signs = np.where(stack.sum(axis=1, keepdims=True) >= 0, 1, -1)
    stack = np.abs(stack) * signs
    levels = stack.reshape(stack_rows, geometry.cols)[:geometry.rows]
    spec = QuantizationSpec(weight_bits=8, cell_bits=2)
    mapped = map_layer(levels, geometry, spec, scheme="forms",
                       signs=infer_signs(levels, geometry))
    return mapped, geometry


@pytest.fixture(scope="module")
def test_inputs(mapped_layer):
    _, geometry = mapped_layer
    rng = np.random.default_rng(1)
    return rng.integers(0, 200, size=(geometry.rows, 12))


def exact_engine(mapped):
    return NonidealEngine(mapped, ReRAMDevice(DeviceSpec(), 0.0),
                          activation_bits=8)


class TestExactness:
    def test_all_knobs_off_is_bit_exact(self, mapped_layer, test_inputs):
        mapped, _ = mapped_layer
        engine = exact_engine(mapped)
        out = engine.matvec_int(test_inputs)
        # Independent reference: the parent class path.
        from repro.reram.engine import InSituLayerEngine
        reference = InSituLayerEngine(mapped, ReRAMDevice(DeviceSpec(), 0.0),
                                      activation_bits=8)
        np.testing.assert_array_equal(out, reference.matvec_int(test_inputs))

    def test_zero_fault_rate_is_exact(self, mapped_layer, test_inputs):
        mapped, _ = mapped_layer
        engine = NonidealEngine(mapped, ReRAMDevice(DeviceSpec(), 0.0),
                                activation_bits=8,
                                fault_model=FaultModel(0.0, 0.0, seed=0))
        assert engine.fault_fraction == 0.0
        assert output_error(engine, exact_engine(mapped), test_inputs) == 0.0


class TestFaults:
    def test_faults_perturb_output(self, mapped_layer, test_inputs):
        mapped, _ = mapped_layer
        engine = NonidealEngine(mapped, ReRAMDevice(DeviceSpec(), 0.0),
                                activation_bits=8,
                                fault_model=FaultModel(0.1, 0.02, seed=2))
        assert engine.fault_fraction > 0.05
        assert output_error(engine, exact_engine(mapped), test_inputs) > 0.0

    def test_error_grows_with_fault_rate(self, mapped_layer, test_inputs):
        mapped, _ = mapped_layer
        reference = exact_engine(mapped)
        errors = []
        for rate in (0.01, 0.05, 0.25):
            per_seed = []
            for seed in range(3):
                engine = NonidealEngine(
                    mapped, ReRAMDevice(DeviceSpec(), 0.0), activation_bits=8,
                    fault_model=FaultModel(rate, rate / 10, seed=seed))
                per_seed.append(output_error(engine, reference, test_inputs))
            errors.append(np.mean(per_seed))
        assert errors[0] < errors[2]


class TestIRDrop:
    def test_wire_requires_cell_iv(self, mapped_layer):
        mapped, _ = mapped_layer
        with pytest.raises(ValueError):
            NonidealEngine(mapped, ReRAMDevice(DeviceSpec(), 0.0),
                           wire=WireModel())

    def test_ir_drop_perturbs_output(self, mapped_layer, test_inputs):
        mapped, _ = mapped_layer
        engine = NonidealEngine(mapped, ReRAMDevice(DeviceSpec(), 0.0),
                                activation_bits=8,
                                wire=WireModel(r_wire_ohm=20.0),
                                cell_iv=CellIV(nonlinearity=3.0))
        error = output_error(engine, exact_engine(mapped), test_inputs)
        assert error > 0.0

    def test_error_grows_with_wire_resistance(self, mapped_layer, test_inputs):
        mapped, _ = mapped_layer
        reference = exact_engine(mapped)
        errors = []
        for r_wire in (1.0, 50.0):
            engine = NonidealEngine(mapped, ReRAMDevice(DeviceSpec(), 0.0),
                                    activation_bits=8,
                                    wire=WireModel(r_wire_ohm=r_wire),
                                    cell_iv=CellIV(nonlinearity=3.0))
            errors.append(output_error(engine, reference, test_inputs))
        assert errors[0] <= errors[1]

    def test_tiny_parasitics_round_to_exact(self, mapped_layer, test_inputs):
        # ADC rounding absorbs sub-LSB analog error.
        mapped, _ = mapped_layer
        engine = NonidealEngine(
            mapped, ReRAMDevice(DeviceSpec(), 0.0), activation_bits=8,
            wire=WireModel(r_wire_ohm=1e-4, r_driver_ohm=1e-4,
                           r_sense_ohm=1e-4),
            cell_iv=CellIV(nonlinearity=0.0))
        assert output_error(engine, exact_engine(mapped), test_inputs) == 0.0


class TestReadNoise:
    def test_noise_perturbs_output(self, mapped_layer, test_inputs):
        mapped, _ = mapped_layer
        spec = DeviceSpec()
        noise = ReadNoise.for_fragment(4, spec.g_max, spec.read_voltage,
                                       relative_sigma=0.05, seed=3)
        engine = NonidealEngine(mapped, ReRAMDevice(spec, 0.0),
                                activation_bits=8, read_noise=noise)
        assert output_error(engine, exact_engine(mapped), test_inputs) > 0.0

    def test_small_noise_absorbed_by_adc(self, mapped_layer, test_inputs):
        mapped, _ = mapped_layer
        spec = DeviceSpec()
        noise = ReadNoise.for_fragment(4, spec.g_max, spec.read_voltage,
                                       relative_sigma=1e-6, seed=3)
        engine = NonidealEngine(mapped, ReRAMDevice(spec, 0.0),
                                activation_bits=8, read_noise=noise)
        assert output_error(engine, exact_engine(mapped), test_inputs) == 0.0


class TestCombined:
    def test_all_knobs_together(self, mapped_layer, test_inputs):
        mapped, _ = mapped_layer
        spec = DeviceSpec()
        engine = NonidealEngine(
            mapped, ReRAMDevice(spec, variation_sigma=0.05, seed=4),
            activation_bits=8,
            fault_model=FaultModel(0.01, 0.001, seed=4),
            wire=WireModel(r_wire_ohm=5.0),
            cell_iv=CellIV(nonlinearity=2.0),
            read_noise=ReadNoise.for_fragment(4, spec.g_max,
                                              spec.read_voltage,
                                              relative_sigma=0.01, seed=4))
        error = output_error(engine, exact_engine(mapped), test_inputs)
        assert 0.0 < error < 1.0    # degraded but not garbage
