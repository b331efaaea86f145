"""Tests for repro.cli."""

import argparse
from pathlib import Path

import pytest

from repro.arch.dsl import serialize_topology
from repro.arch.templates import amba_like
from repro.cli import build_parser, main


@pytest.fixture()
def arch_file(tmp_path):
    path = tmp_path / "amba.soc"
    path.write_text(serialize_topology(amba_like()))
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_size_file_requires_budget(self, arch_file, capsys):
        # --budget is only optional with --scenario (the scenario's
        # declared default applies); architecture files must pass one.
        assert main(["size", arch_file]) == 2
        assert "--budget" in capsys.readouterr().err

    def test_policy_choices(self):
        args = build_parser().parse_args(
            ["simulate", "a.soc", "--budget", "8", "--policy", "uniform"]
        )
        assert args.policy == "uniform"
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["simulate", "a.soc", "--budget", "8", "--policy", "zzz"]
            )


class TestCommands:
    def test_inspect(self, arch_file, capsys):
        assert main(["inspect", arch_file]) == 0
        out = capsys.readouterr().out
        assert "clusters:" in out
        assert "cpu" in out

    def test_size(self, arch_file, capsys):
        assert main(["size", arch_file, "--budget", "14"]) == 0
        out = capsys.readouterr().out
        assert "# allocation" in out
        assert "expected loss rate" in out
        sizes = [
            int(line.split()[1])
            for line in out.splitlines()
            if line and not line.startswith("#")
        ]
        assert sum(sizes) == 14

    def test_size_reports_converged_fixed_point(self, arch_file, capsys):
        assert main(["size", arch_file, "--budget", "14"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "# bridge fixed point: 3 iteration(s), converged"

    def test_size_reports_and_counts_unconverged_fixed_point(
        self, monkeypatch, capsys
    ):
        from repro import obs
        from repro.core import sizing

        class Capped(sizing.BufferSizer):
            # One fixed-point step cannot converge amba's bridge rates.
            def __init__(self, total_budget):
                super().__init__(total_budget, max_fixed_point_iterations=1)

        monkeypatch.setattr(sizing, "BufferSizer", Capped)
        obs.reset()
        obs.enable_metrics()
        try:
            assert main(["size", "--scenario", "amba", "--budget", "14"]) == 0
            counters = obs.registry().counters_snapshot()
        finally:
            obs.reset()
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == (
            "# bridge fixed point: 1 iteration(s), not converged"
        )
        assert counters["solver.fixed_point.unconverged"] == 1

    def test_simulate(self, arch_file, capsys):
        code = main([
            "simulate", arch_file, "--budget", "12",
            "--policy", "proportional", "--duration", "300",
            "--reps", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "mean total loss" in out

    def test_missing_file(self, capsys):
        assert main(["inspect", "/nonexistent/arch.soc"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_architecture(self, tmp_path, capsys):
        bad = tmp_path / "bad.soc"
        bad.write_text("soc x\nbogus\n")
        assert main(["inspect", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_simulate_rejects_non_finite_duration(self, arch_file, capsys):
        argv = ["simulate", arch_file, "--budget", "18", "--policy",
                "uniform", "--reps", "2", "--duration", "nan"]
        assert main(argv) == 2
        assert "error: duration" in capsys.readouterr().err

    def test_infeasible_budget(self, arch_file, capsys):
        assert main(["size", arch_file, "--budget", "1"]) == 2
        assert "error:" in capsys.readouterr().err


class TestRuntimeFlags:
    def test_flags_parse(self):
        args = build_parser().parse_args([
            "table1", "--jobs", "4", "--cache-dir", "/tmp/c",
            "--no-warm-start",
        ])
        assert args.jobs == 4
        assert args.cache_dir == "/tmp/c"
        assert args.no_warm_start is True

    def test_simulate_lacks_warm_start_flag(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["simulate", "a.soc", "--budget", "8", "--no-warm-start"]
            )

    def test_simulate_pooled_and_cached(self, arch_file, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        argv = [
            "simulate", arch_file, "--budget", "12",
            "--policy", "uniform", "--duration", "200", "--reps", "2",
            "--jobs", "2", "--cache-dir", cache_dir,
        ]
        assert main(argv) == 0
        pooled = capsys.readouterr().out
        # Serial, uncached run must report the same statistics.
        assert main([
            "simulate", arch_file, "--budget", "12",
            "--policy", "uniform", "--duration", "200", "--reps", "2",
        ]) == 0
        assert capsys.readouterr().out == pooled
        # Third run hits the populated cache and still agrees.
        assert main(argv) == 0
        assert capsys.readouterr().out == pooled

    def test_cache_max_mb_flag(self, arch_file, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        argv = [
            "simulate", arch_file, "--budget", "12",
            "--policy", "uniform", "--duration", "200", "--reps", "2",
            "--cache-dir", cache_dir, "--cache-max-mb", "64",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "mean total loss" in out
        # The bound without a directory is a config error, not a crash.
        assert main([
            "simulate", arch_file, "--budget", "12",
            "--policy", "uniform", "--duration", "200", "--reps", "2",
            "--cache-max-mb", "64",
        ]) == 2
        assert "cache" in capsys.readouterr().err


class TestScenariosListing:
    def test_families_show_grammar_and_resolvable_example(self, capsys):
        from repro import scenarios

        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        # Every parametric family states its parameter grammar and one
        # concrete member name that actually resolves.
        assert out.count("parameters: ") >= len(scenarios.families())
        for family in scenarios.families():
            assert family.grammar and family.grammar in out
            assert family.example
            spec = scenarios.get(family.example)
            assert spec.name == family.example  # canonical spelling
            assert f"example: {spec.name}" in out


class TestProgressFlag:
    def test_simulate_progress_lines_on_stderr(self, arch_file, capsys):
        assert main([
            "simulate", arch_file, "--budget", "12",
            "--policy", "uniform", "--duration", "200", "--reps", "2",
            "--progress",
        ]) == 0
        err = capsys.readouterr().err
        assert "progress: replication 0 done" in err
        assert "progress: replication 1 done" in err

    def test_table1_accepts_progress_rejects_dist(self, capsys):
        args = build_parser().parse_args(["table1", "--progress"])
        assert args.progress is True
        # The fleet runs whole cells through `dist run`; the local
        # commands have no broker flags.
        for command in (["table1"], ["figure3"], ["simulate", "a.soc"]):
            for flags in (["--dist", "broker:7070"], ["--authkey", "k"]):
                with pytest.raises(SystemExit) as excinfo:
                    build_parser().parse_args(command + flags)
                assert excinfo.value.code == 2
                assert "unrecognized arguments" in capsys.readouterr().err


class TestDistCli:
    def test_dist_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dist"])

    def test_serve_worker_run_flags_parse(self):
        args = build_parser().parse_args(
            ["dist", "serve", "--port", "0", "--lease-timeout", "2.5"]
        )
        assert args.port == 0 and args.lease_timeout == 2.5
        args = build_parser().parse_args([
            "dist", "worker", "host:7070",
            "--cache-dir", "/tmp/c", "--max-idle", "5",
        ])
        assert args.address == "host:7070"
        assert args.max_idle == 5.0
        args = build_parser().parse_args([
            "dist", "run", "--scenario", "amba", "--scenario", "fig1",
            "--budgets", "8,12", "--reps", "2", "--verify-local",
        ])
        assert args.scenario == ["amba", "fig1"]
        assert args.budgets == "8,12" and args.verify_local is True

    def test_worker_cache_bound_requires_dir(self, capsys):
        assert main([
            "dist", "worker", "127.0.0.1:1", "--cache-max-mb", "8",
        ]) == 2
        assert "--cache-dir" in capsys.readouterr().err

    def test_run_local_matrix_with_artifacts(self, tmp_path, capsys):
        # Without --dist the fleet driver runs the same job matrix on
        # the local path; --verify-local re-runs it serially and
        # asserts the bitwise-identity contract end to end.
        out_json = tmp_path / "fleet.json"
        assert main([
            "dist", "run", "--scenario", "single-bus-4",
            "--budgets", "8", "--reps", "2", "--duration", "100",
            "--jobs", "2", "--verify-local", "--json", str(out_json),
        ]) == 0
        captured = capsys.readouterr()
        # Status lines go to stderr (repro.obs.log); the table to stdout.
        assert "bitwise-identical" in captured.err
        assert "single-bus-4" in captured.out
        out = captured.out
        import json

        cells = json.loads(out_json.read_text())
        assert cells[0]["scenario"] == "single-bus-4"
        assert cells[0]["summary"]["__type__"] == "ReplicationSummary"

    def test_run_unknown_scenario_is_an_error(self, capsys):
        assert main([
            "dist", "run", "--scenario", "no-such", "--reps", "1",
        ]) == 2
        assert "unknown scenario" in capsys.readouterr().err


class TestDistCliValidation:
    def test_malformed_budgets_is_a_clean_error(self, capsys):
        assert main([
            "dist", "run", "--scenario", "single-bus-4",
            "--budgets", "8x,12", "--reps", "1",
        ]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "--budgets" in err


#: Every (command, option) pair the parser accepts, one per line.
CLI_OPTIONS = Path(__file__).with_name("cli_options.txt")


def _options(parser, command=()):
    """``(command, longest option string)`` of every parser option."""
    pairs = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                pairs += _options(sub, command + (name,))
        elif action.option_strings and not isinstance(
            action, argparse._HelpAction
        ):
            pairs.append(
                (" ".join(command), max(action.option_strings, key=len))
            )
    return pairs


class TestCliSurface:
    def test_options_match_the_committed_list(self):
        # An added or dropped flag must change tests/cli_options.txt
        # in the same change, so it is seen in review.
        walked = sorted(
            f"{command} {option}"
            for command, option in _options(build_parser())
        )
        assert walked == CLI_OPTIONS.read_text().splitlines()

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "a.soc", "--seed-scheme", "spawn"],
            ["dist", "run", "--seed-scheme", "legacy"],
            ["dist", "run", "--block-reps", "2"],
            ["dist", "run", "--on-broker-loss", "fail"],
            ["dist", "chaos", "--block-reps", "2"],
        ],
        ids=lambda argv: " ".join(argv[:-1]),
    )
    def test_removed_flags_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
