"""CLI runner tests."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, run


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
        for name, (driver, description) in EXPERIMENTS.items():
            assert callable(driver)
            assert description

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
        errors = [float(line.split()[-1]) for line in lines]
        assert len(errors) == 5
        assert errors == sorted(errors)

    def test_out_directory_created(self, tmp_path):
        target = tmp_path / "nested" / "dir"
        assert run(["table3", "--out", str(target)]) == 0
        assert (target / "table3.txt").exists()


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
