"""Experiment driver tests.

Hardware-only tables (III/IV/V structure) run at full fidelity; training-based
drivers run at a deliberately tiny scale — these tests check plumbing and
qualitative shape, not paper-level numbers (the benchmarks do that at FAST+).
"""

import numpy as np
import pytest

pytestmark = pytest.mark.slow  # Training-based experiment drivers

from repro.analysis import (DATASET_KEEP, FAST, ExperimentScale,
                            compression_rows, eic_experiment, forms_config_for,
                            fps_experiment, fps_stack_configs, table3, table4,
                            table5, table6, train_baseline)
from repro.analysis.experiments import _spread_indices
from repro.arch import PAPER_TABLE5
from repro.core import CrossbarShape

TINY = ExperimentScale(
    name="tiny", train_size=200, test_size=80, baseline_epochs=4,
    width_mult=0.3, depth_scale=0.4, admm_iterations=1, admm_epochs=1,
    retrain_epochs=1, sample_images=2, variation_runs=2,
    crossbar=CrossbarShape(16, 16))


class TestHardwareTables:
    def test_table3_structure(self):
        table = table3(8)
        assert "ADC" in table.rendered
        assert "sign indicator" in table.rendered
        assert len(table.rows) == 7

    def test_table3_other_fragment_sizes(self):
        """ADC-law interpolation: fragment 4's 3-bit bank is smaller than
        fragment 16's 5-bit bank."""
        def adc_area(fragment):
            return [r for r in table3(fragment).rows if r[0] == "ADC"][0][2]
        assert adc_area(4) < adc_area(16)

    def test_table4_chip_totals(self):
        table = table4()
        totals = [r for r in table.rows if r[0] == "chip total"][0]
        assert totals[1] == pytest.approx(66360.8, rel=1e-3)
        assert totals[3] == pytest.approx(65808.08, rel=1e-3)

    def test_table4_extras(self):
        table = table4()
        assert table.extras["forms"]["crossbars"] == 16128


class TestScalePresets:
    def test_fast_admm_config(self):
        admm = FAST.admm()
        assert admm.iterations == FAST.admm_iterations

    def test_scaled_override(self):
        scaled = FAST.scaled(train_size=10)
        assert scaled.train_size == 10
        assert scaled.baseline_epochs == FAST.baseline_epochs

    def test_dataset_keep_ordering(self):
        # pruning aggressiveness mirrors the paper: CIFAR-10 > CIFAR-100 > ImageNet
        assert DATASET_KEEP["cifar10"] < DATASET_KEEP["cifar100"] < DATASET_KEEP["imagenet"]


class TestTrainingDrivers:
    @pytest.fixture(scope="class")
    def baseline(self):
        return train_baseline("lenet5", "mnist", TINY, seed=1)

    def test_train_baseline(self, baseline):
        assert baseline.accuracy > 0.2
        assert baseline.dataset_name == "mnist"

    def test_compression_rows_shape(self, baseline):
        rows = compression_rows(baseline, TINY, fragment_sizes=(4, 8), seed=1)
        assert len(rows) == 2
        for row in rows:
            assert row[3] in (4, 8)
            assert row[5] > 1.0  # crossbar reduction

    def test_forms_config_for_toggles(self):
        config = forms_config_for(TINY, "cifar10", do_prune=False)
        assert not config.do_prune and config.do_polarize

    def test_eic_experiment_shape(self):
        table = eic_experiment("lenet5", "mnist", fragment_sizes=(4, 16),
                               scale=TINY, seed=1)
        assert len(table.rows) == 2
        merged = table.extras["merged_stats"]
        assert merged[4].average <= merged[16].average + 1e-9

    def test_table5_rows_complete(self):
        table = table5(TINY, seed=1)
        names = [row[0] for row in table.rows]
        assert "ISAAC" in names
        assert any("full optimization, 8" in n for n in names)
        assert len(table.rows) == len(PAPER_TABLE5)

    def test_fps_experiment_columns(self):
        table = fps_experiment((("lenet5", "mnist"),), scale=TINY, seed=1)
        assert len(table.headers) == len(fps_stack_configs())  # name + 6 stacks
        speedups = table.extras["speedups"]["lenet5/mnist"]
        assert all(v > 0 for v in speedups.values())

    def test_table6_shape(self):
        table = table6(TINY, seed=1, dataset_names=("mnist",),
                       model_name="lenet5")
        assert len(table.rows) == 1
        assert len(table.rows[0]) == 5  # dataset + 4 variants


class TestHelpers:
    def test_spread_indices(self):
        assert _spread_indices(10, 3) == [0, 4, 9]
        assert _spread_indices(2, 3) == [0, 1]
