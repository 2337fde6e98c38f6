"""Evaluation harness: one driver per paper table/figure, plus rendering.

``table1`` .. ``table6``, ``fragment_size_sweep`` (Fig. 6), ``eic_experiment``
(Fig. 8) and ``fig13``/``fig14`` each return an :class:`ExperimentTable`
whose ``rendered`` field reproduces the paper artifact at the configured
:class:`ExperimentScale` (FAST for tests and the check gate,
STANDARD/FULL for deeper runs); :mod:`.studies` holds the ablation,
extension and validation drivers.  :data:`EXPERIMENTS` is the one registry
of both, each entry with the check its table must pass.
"""

from .experiments import (DATASET_KEEP, TRACE_IMAGE_SIZE, BaselineRun,
                          ExperimentTable, compression_rows, dataset_for,
                          eic_experiment, fig13, fig14, forms_config_for,
                          fps_experiment, fps_stack_configs, fps_workload,
                          fragment_size_sweep, optimize_baseline, table1,
                          table2, table3, table4, table5, table6,
                          train_baseline)
from .figures import (bar_chart, grouped_bar_chart, histogram, line_chart,
                      sparkline)
from .presets import (FAST, FIG13_WORKLOADS, FIG14_WORKLOADS, FULL, SCALES,
                      STANDARD, TABLE1_WORKLOADS, TABLE2_WORKLOADS,
                      ExperimentScale)
from .registry import EXPERIMENTS, Experiment, Violation
from .report import (DEFAULT_ARTIFACTS, ReportSection, generate_report,
                     write_report)
from .tables import render_kv, render_table

__all__ = [
    "ExperimentScale", "FAST", "STANDARD", "FULL", "SCALES",
    "TABLE1_WORKLOADS", "TABLE2_WORKLOADS", "FIG13_WORKLOADS", "FIG14_WORKLOADS",
    "ExperimentTable", "BaselineRun", "train_baseline", "dataset_for",
    "forms_config_for", "optimize_baseline", "compression_rows",
    "table1", "table2", "table3", "table4", "table5", "table6",
    "fragment_size_sweep", "eic_experiment", "fps_experiment", "fps_workload",
    "fps_stack_configs", "fig13", "fig14",
    "DATASET_KEEP", "TRACE_IMAGE_SIZE",
    "render_table", "render_kv",
    "bar_chart", "grouped_bar_chart", "line_chart", "histogram", "sparkline",
    "generate_report", "write_report", "ReportSection", "DEFAULT_ARTIFACTS",
    "EXPERIMENTS", "Experiment", "Violation",
]
