"""CLI runner tests: the experiment registry, its checks and ``serve``."""

import copy

import pytest

from repro import cli
from repro.analysis import (EXPERIMENTS, Experiment, ExperimentTable,
                            Violation, table3, table4, table5)
from repro.analysis.registry import (PAPER, check_table3, check_table4,
                                     check_table5)
from repro.arch import extract_workload
from repro.cli import build_parser, run
from repro.nn import build_model, load_dataset, set_init_seed


class TestParser:
    def test_all_experiments_registered(self):
        for name in ("table1", "table2", "table3", "table4", "table5",
                     "table6", "fig6", "fig8", "fig13", "fig14"):
            assert name in EXPERIMENTS

    def test_parser_defaults(self):
        args = build_parser().parse_args(["table3"])
        assert args.scale == "fast"
        assert args.seed == 0

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table99"])


class TestRun:
    def test_hardware_table_runs(self, capsys, tmp_path):
        code = run(["table3", "--out", str(tmp_path)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "Table III" in captured
        assert (tmp_path / "table3.txt").exists()

    def test_table4_runs(self, capsys):
        assert run(["table4"]) == 0
        assert "chip total" in capsys.readouterr().out


class TestAblationCommands:
    def test_registered(self):
        assert "dse" in EXPERIMENTS
        assert "irdrop" in EXPERIMENTS

    def test_every_experiment_has_description(self):
        for name, entry in EXPERIMENTS.items():
            assert callable(entry.driver), name
            assert entry.description, name
            assert callable(entry.check), name

    def test_dse_runs_and_saves(self, capsys, tmp_path):
        assert run(["dse", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "cell bits" in out
        assert (tmp_path / "dse.txt").read_text().strip()

    def test_irdrop_errors_monotone(self, capsys):
        assert run(["irdrop"]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines()
                 if line and line[0].isdigit()]
        errors = [float(line.split()[1]) for line in lines]  # nonlinear
        assert len(errors) == 5
        assert errors == sorted(errors)

    def test_out_directory_created(self, tmp_path):
        target = tmp_path / "nested" / "dir"
        assert run(["table3", "--out", str(target)]) == 0
        assert (target / "table3.txt").exists()


class TestChecks:
    """Every entry's check runs after its table; a violation exits 1."""

    @pytest.mark.parametrize("name", ("table3", "table4", "dse", "irdrop",
                                      "crossbar_size", "event_pipeline"))
    def test_fast_entries_pass_their_checks(self, name, capsys):
        assert run([name]) == 0
        assert "check: ok" in capsys.readouterr().out

    def test_failing_check_fails_all_but_runs_every_entry(self, monkeypatch,
                                                          capsys):
        broken = Experiment(
            lambda scale, seed: ExperimentTable("doctored", ["x"], [[1]]),
            "an entry whose claim fails",
            lambda table: [Violation("x stays below 1", 1.0, "< 1")])
        monkeypatch.setattr(cli, "EXPERIMENTS", {
            "a_broken": broken, "table3": EXPERIMENTS["table3"],
            "table4": EXPERIMENTS["table4"]})
        assert run(["all"]) == 1
        captured = capsys.readouterr()
        assert ("VIOLATED [shape] x stays below 1: measured 1, bound < 1"
                in captured.out)
        assert "Table III" in captured.out and "chip total" in captured.out
        assert "a_broken" in captured.err

    @staticmethod
    def _doctor(table, row_name, column, value):
        doctored = copy.deepcopy(table)
        row = next(r for r in doctored.rows if r[0] == row_name)
        row[column] = value
        return doctored

    def test_table3_check_flags_doctored_adc_power(self):
        real = table3(8)
        assert check_table3(real) == []
        [violation] = check_table3(self._doctor(real, "ADC", 1, 16.0))
        assert violation.kind == PAPER
        assert violation.measured == 16.0
        assert "15.2" in violation.bound

    def test_table4_check_flags_doctored_chip_total(self):
        real = table4(8)
        assert check_table4(real) == []
        [violation] = check_table4(self._doctor(real, "chip total", 2, 95.0))
        assert violation.kind == PAPER
        assert "FORMS chip area" in violation.claim

    def test_table5_tolerance_flags_doctored_polarization_row(self):
        # the polarization-only rows do not depend on the reference
        # workload, so an untrained network stands in for the trained one
        set_init_seed(0)
        _, test_set = load_dataset("mnist", train_size=8, test_size=8)
        model = build_model("lenet5", 10, 1, test_set.image_size,
                            width_mult=0.3)
        real = table5(reference_workload=extract_workload(
            model, test_set, sample_images=2))
        paper = [v for v in check_table5(real) if v.kind == PAPER]
        assert paper == []
        name = "FORMS (polarization only, 8)"
        doctored = self._doctor(real, name, 1, 0.2)
        flagged = [v for v in check_table5(doctored) if v.kind == PAPER]
        assert [v.claim for v in flagged] == [f"{name} GOPs/s/mm2 vs paper"]
        assert flagged[0].measured == 0.2


class TestServe:
    """``python -m repro serve`` in process: the one serving entry point."""

    def test_single_model_demo_checks_every_bit(self, capsys):
        assert run(["serve", "--requests", "4"]) == 0
        out = capsys.readouterr().out
        assert "bit-identity of 4 served outputs" in out
        assert "trace " in out          # one request's span tree

    def test_two_model_demo_without_deadline(self, capsys):
        assert run(["serve", "--models", "2", "--requests", "6",
                    "--deadline-ms", "0"]) == 0
        out = capsys.readouterr().out
        # no count here: bulk requests may be shed on a loaded host
        assert "served outputs vs serial single-image forwards: OK" in out
        assert "class bulk" in out and "class interactive" in out

    @pytest.mark.parametrize("flags", (["--chaos"], ["--http-demo"],
                                       ["--priority-classes", "2"]))
    def test_removed_flags_are_parser_errors(self, flags, capsys):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["serve"] + flags)
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
