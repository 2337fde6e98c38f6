"""Crossbar non-ideality tests: IR drop, stuck-at faults, read noise."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reram.nonideal import (FAULT_NONE, FAULT_SA0, FAULT_SA1,
                                  LINEAR_CELL, CellIV, FaultModel,
                                  IRDropPoint, ReadNoise, WireModel,
                                  first_order_currents, ideal_currents,
                                  ir_drop_study, solve_ir_drop)


def random_conductance(rows, cols, seed=0, g_min=1e-7, g_max=1e-5):
    rng = np.random.default_rng(seed)
    return rng.uniform(g_min, g_max, size=(rows, cols))


class TestWireModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            WireModel(r_wire_ohm=-1.0)
        with pytest.raises(ValueError):
            WireModel(r_driver_ohm=0.0)
        with pytest.raises(ValueError):
            WireModel(r_sense_ohm=0.0)


class TestCellIV:
    def test_validation(self):
        with pytest.raises(ValueError):
            CellIV(nonlinearity=-1.0)
        with pytest.raises(ValueError):
            CellIV(v_read=0.0)

    def test_calibrated_at_read_voltage(self):
        # The chord calibration: I(v_read) == g * v_read for any k.
        for k in (0.0, 1.0, 2.0, 4.0):
            iv = CellIV(nonlinearity=k, v_read=0.3)
            g = np.array([1e-6, 5e-6])
            np.testing.assert_allclose(iv.current(g, 0.3), g * 0.3)

    def test_sublinear_current_below_read_voltage(self):
        iv = CellIV(nonlinearity=2.0, v_read=0.3)
        g = 1e-5
        half = float(iv.current(g, 0.15))
        assert half < g * 0.15   # superlinear I-V loses more than linear

    def test_linear_cell_is_ohmic(self):
        g = np.array([1e-6, 1e-5])
        dv = np.array([0.1, 0.25])
        np.testing.assert_allclose(LINEAR_CELL.current(g, dv), g * dv)

    def test_secant_conductance_limit(self):
        iv = CellIV(nonlinearity=2.0, v_read=0.3)
        g = np.array([1e-5])
        at_zero = iv.effective_conductance(g, np.array([0.0]))
        expected = g * 2.0 / np.sinh(2.0)
        np.testing.assert_allclose(at_zero, expected)

    def test_odd_symmetry(self):
        iv = CellIV(nonlinearity=2.0)
        g = np.array([1e-5])
        forward = iv.current(g, np.array([0.2]))
        backward = iv.current(g, np.array([-0.2]))
        np.testing.assert_allclose(forward, -backward)


class TestExactSolver:
    def test_negligible_parasitics_match_ideal(self):
        g = random_conductance(16, 4)
        v = np.full(16, 0.3)
        wire = WireModel(r_wire_ohm=1e-6, r_driver_ohm=1e-6, r_sense_ohm=1e-6)
        np.testing.assert_allclose(solve_ir_drop(g, v, wire),
                                   ideal_currents(g, v), rtol=1e-6)

    def test_zero_wire_resistance_shortcut(self):
        g = random_conductance(8, 3)
        v = np.full(8, 0.3)
        wire = WireModel(r_wire_ohm=0.0)
        np.testing.assert_allclose(solve_ir_drop(g, v, wire),
                                   ideal_currents(g, v))

    def test_parasitics_attenuate_current(self):
        g = random_conductance(32, 4)
        v = np.full(32, 0.3)
        actual = solve_ir_drop(g, v, WireModel(r_wire_ohm=5.0))
        ideal = ideal_currents(g, v)
        assert (actual < ideal).all()
        assert (actual > 0).all()

    def test_error_monotone_in_wire_resistance(self):
        g = random_conductance(32, 4)
        v = np.full(32, 0.3)
        ideal = ideal_currents(g, v)
        errors = []
        for r in (0.5, 2.0, 8.0):
            actual = solve_ir_drop(g, v, WireModel(r_wire_ohm=r))
            errors.append(np.mean((ideal - actual) / ideal))
        assert errors[0] < errors[1] < errors[2]

    def test_batch_inputs(self):
        g = random_conductance(16, 4)
        v = np.column_stack([np.full(16, 0.3), np.zeros(16)])
        out = solve_ir_drop(g, v)
        assert out.shape == (4, 2)
        np.testing.assert_allclose(out[:, 1], 0.0, atol=1e-15)
        single = solve_ir_drop(g, v[:, 0])
        np.testing.assert_allclose(out[:, 0], single)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            solve_ir_drop(np.ones(4), np.ones(4))
        with pytest.raises(ValueError):
            solve_ir_drop(np.ones((4, 2)), np.ones(5))

    def test_inactive_rows_contribute_nothing(self):
        g = random_conductance(16, 4)
        v = np.zeros(16)
        np.testing.assert_allclose(solve_ir_drop(g, v), 0.0, atol=1e-18)


class TestFirstOrderModel:
    def test_agrees_with_exact_solver(self):
        g = random_conductance(32, 8)
        v = np.full(32, 0.3)
        wire = WireModel(r_wire_ohm=2.5)
        exact = solve_ir_drop(g, v, wire)
        approx = first_order_currents(g, v, wire)
        np.testing.assert_allclose(approx, exact, rtol=0.02)

    def test_first_order_attenuates(self):
        g = random_conductance(32, 8)
        v = np.full(32, 0.3)
        out = first_order_currents(g, v, WireModel(r_wire_ohm=2.5))
        assert (out < ideal_currents(g, v)).all()

    def test_batch_shape(self):
        g = random_conductance(16, 4)
        v = np.column_stack([np.full(16, 0.3)] * 3)
        assert first_order_currents(g, v).shape == (4, 3)

    @given(st.integers(min_value=2, max_value=24),
           st.integers(min_value=1, max_value=6))
    @settings(max_examples=20, deadline=None)
    def test_never_exceeds_ideal(self, rows, cols):
        g = random_conductance(rows, cols, seed=rows * 31 + cols)
        v = np.full(rows, 0.3)
        out = first_order_currents(g, v, WireModel(r_wire_ohm=1.0))
        assert (out <= ideal_currents(g, v) + 1e-18).all()


class TestNonlinearSolver:
    def test_nonlinear_reduces_current_versus_linear(self):
        g = random_conductance(32, 4)
        v = np.full(32, 0.3)
        wire = WireModel(r_wire_ohm=2.5)
        linear = solve_ir_drop(g, v, wire)
        nonlinear = solve_ir_drop(g, v, wire, cell_iv=CellIV(nonlinearity=2.0))
        assert (nonlinear < linear).all()

    def test_nonlinear_without_parasitics_is_exactly_calibrated(self):
        # All cells at exactly v_read: the chord calibration makes the
        # nonlinear result equal the ideal one.
        g = random_conductance(16, 4)
        v = np.full(16, 0.3)
        wire = WireModel(r_wire_ohm=1e-9, r_driver_ohm=1e-9, r_sense_ohm=1e-9)
        out = solve_ir_drop(g, v, wire, cell_iv=CellIV(nonlinearity=2.0))
        np.testing.assert_allclose(out, ideal_currents(g, v), rtol=1e-6)

    def test_fixed_point_converges(self):
        g = random_conductance(32, 4)
        v = np.full(32, 0.3)
        loose = solve_ir_drop(g, v, cell_iv=CellIV(), tolerance=1e-6)
        tight = solve_ir_drop(g, v, cell_iv=CellIV(), tolerance=1e-12)
        np.testing.assert_allclose(loose, tight, rtol=1e-5)


class TestIRDropStudy:
    def test_fine_grained_beats_coarse(self):
        # The paper's qualitative claim: smaller active-row groups suffer
        # less error for the same total dot product (nonlinear cells).
        points = ir_drop_study(rows=64, cols=4,
                               active_row_options=[4, 16, 64], seed=1)
        errors = {p.active_rows: p.relative_error for p in points}
        assert errors[4] < errors[16] < errors[64]

    def test_linear_cells_obey_superposition(self):
        # The counterpoint documented in the module: with linear cells the
        # summed per-group reads equal the all-rows read exactly, so the
        # error is independent of granularity.
        points = ir_drop_study(rows=32, cols=4, active_row_options=[4, 32],
                               cell_iv=LINEAR_CELL, seed=1)
        errors = [p.relative_error for p in points]
        assert errors[0] == pytest.approx(errors[1], rel=1e-9)

    def test_errors_are_positive_and_small(self):
        points = ir_drop_study(rows=32, cols=4, active_row_options=[8, 32])
        for p in points:
            assert 0 < p.relative_error < 0.5
            assert p.actual_current_a < p.ideal_current_a

    def test_first_order_solver_agrees(self):
        exact = ir_drop_study(rows=32, cols=4, active_row_options=[8, 32],
                              solver="exact")
        approx = ir_drop_study(rows=32, cols=4, active_row_options=[8, 32],
                               solver="first_order")
        for pe, pa in zip(exact, approx):
            assert pa.relative_error == pytest.approx(pe.relative_error,
                                                      rel=0.15)

    def test_validation(self):
        with pytest.raises(ValueError):
            ir_drop_study(rows=64, active_row_options=[7])
        with pytest.raises(ValueError):
            ir_drop_study(solver="spice")

    def test_point_fields(self):
        (point,) = ir_drop_study(rows=16, cols=2, active_row_options=[16])
        assert isinstance(point, IRDropPoint)
        assert point.active_rows == 16


class TestFaultModel:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultModel(sa0_rate=-0.1)
        with pytest.raises(ValueError):
            FaultModel(sa0_rate=0.6, sa1_rate=0.6)

    def test_sample_statistics(self):
        model = FaultModel(sa0_rate=0.05, sa1_rate=0.02, seed=0)
        mask = model.sample((1000, 100))
        assert np.mean(mask == FAULT_SA0) == pytest.approx(0.05, abs=0.005)
        assert np.mean(mask == FAULT_SA1) == pytest.approx(0.02, abs=0.005)
        assert np.mean(mask == FAULT_NONE) == pytest.approx(0.93, abs=0.005)

    def test_zero_rates_yield_no_faults(self):
        model = FaultModel(sa0_rate=0.0, sa1_rate=0.0, seed=0)
        assert (model.sample((50, 50)) == FAULT_NONE).all()

    def test_apply_to_codes(self):
        codes = np.array([[1, 2], [3, 0]])
        mask = np.array([[FAULT_SA0, FAULT_NONE], [FAULT_SA1, FAULT_SA0]])
        out = FaultModel.apply_to_codes(codes, mask, levels=4)
        np.testing.assert_array_equal(out, [[0, 2], [3, 0]])
        # original untouched
        assert codes[0, 0] == 1

    def test_apply_shape_mismatch(self):
        with pytest.raises(ValueError):
            FaultModel.apply_to_codes(np.zeros((2, 2)), np.zeros((3, 2)), 4)

    def test_seeded_reproducibility(self):
        a = FaultModel(sa0_rate=0.1, seed=42).sample((20, 20))
        b = FaultModel(sa0_rate=0.1, seed=42).sample((20, 20))
        np.testing.assert_array_equal(a, b)


class TestReadNoise:
    def test_zero_sigma_is_identity(self):
        noise = ReadNoise(relative_sigma=0.0, full_scale_a=1e-4)
        currents = np.array([1e-5, 2e-5])
        np.testing.assert_array_equal(
            noise.apply_jobs(currents[None], np.zeros((1, 2)))[0], currents)

    def test_noise_statistics(self):
        noise = ReadNoise(relative_sigma=0.01, full_scale_a=1e-4, seed=0)
        out = noise.apply_jobs(np.zeros((1, 200000)), np.zeros((1, 2)))[0]
        assert out.std() == pytest.approx(1e-6, rel=0.02)
        assert out.mean() == pytest.approx(0.0, abs=1e-8)

    def test_for_fragment_full_scale(self):
        noise = ReadNoise.for_fragment(fragment_size=8, g_max=1e-5,
                                       read_voltage=0.3)
        assert noise.full_scale_a == pytest.approx(8 * 1e-5 * 0.3)

    def test_snr(self):
        noise = ReadNoise(relative_sigma=0.01, full_scale_a=1.0)
        assert noise.snr_db(1.0) == pytest.approx(40.0)
        assert ReadNoise(relative_sigma=0.0).snr_db(1.0) == float("inf")
        with pytest.raises(ValueError):
            noise.snr_db(0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ReadNoise(relative_sigma=-0.1)
        with pytest.raises(ValueError):
            ReadNoise(full_scale_a=0.0)
