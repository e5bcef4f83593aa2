"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.command == "run"
        assert args.scale == "small"
        assert "LFSC" in args.policies

    def test_common_flags_after_subcommand(self):
        args = build_parser().parse_args(["fig2a", "--horizon", "50", "--plot"])
        assert args.horizon == 50
        assert args.plot

    def test_fig3_fractions(self):
        args = build_parser().parse_args(["fig3", "--alpha-fractions", "0.5", "0.9"])
        assert args.alpha_fractions == [0.5, 0.9]

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nope"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--horizon", "-3"],
            ["run", "--workers", "-1"],
            ["run", "--window", "-2"],
            ["run", "--trace-sample", "0"],
            ["replicate", "--seeds", "0"],
            ["fleet", "--shards", "0"],
            ["fleet", "--exchange-every", "0"],
            ["fleet", "--scns-per-tile", "0"],
            ["fleet", "--horizon", "0"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_bad_count_is_a_usage_error(self, argv, capsys):
        # A bad count fails in argparse (exit 2, naming the flag), before
        # any library validator could raise a traceback.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert argv[1] in capsys.readouterr().err


class TestMain:
    def test_run_prints_table(self, capsys):
        rc = main(["run", "--horizon", "20", "--workers", "1", "--policies", "Random", "LFSC"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Random" in out and "LFSC" in out
        assert "total_reward" in out

    def test_run_with_plot(self, capsys):
        rc = main(
            ["run", "--horizon", "15", "--workers", "1", "--policies", "Random", "--plot"]
        )
        assert rc == 0
        assert "a=Random" in capsys.readouterr().out

    def test_run_with_save(self, capsys, tmp_path):
        base = tmp_path / "cli_run"
        rc = main(
            [
                "run",
                "--horizon",
                "15",
                "--workers",
                "1",
                "--policies",
                "Random",
                "--save",
                str(base),
            ]
        )
        assert rc == 0
        assert base.with_suffix(".npz").exists()
        from repro.experiments.io import load_results

        loaded = load_results(base)
        assert "Random" in loaded

    def test_fig2a_small(self, capsys):
        rc = main(["fig2a", "--horizon", "15", "--workers", "1"])
        assert rc == 0
        assert "reward_vs_oracle" in capsys.readouterr().out

    def test_ratio_small(self, capsys):
        rc = main(["ratio", "--horizon", "15", "--workers", "1"])
        assert rc == 0
        assert "performance_ratio" in capsys.readouterr().out

    def test_seed_changes_results(self, capsys):
        main(["run", "--horizon", "15", "--workers", "1", "--policies", "Random", "--seed", "1"])
        out1 = capsys.readouterr().out
        main(["run", "--horizon", "15", "--workers", "1", "--policies", "Random", "--seed", "2"])
        out2 = capsys.readouterr().out
        assert out1 != out2


class TestReportCommand:
    def test_report_writes_markdown(self, capsys, tmp_path):
        out = tmp_path / "rep.md"
        rc = main(
            ["report", "--horizon", "15", "--workers", "1", "--out", str(out)]
        )
        assert rc == 0
        text = out.read_text()
        assert text.startswith("# EXPERIMENTS")
        assert "Shape-check summary" in text

    def test_report_emits_manifest_next_to_out(self, capsys, tmp_path):
        import json

        out = tmp_path / "rep.md"
        rc = main(["report", "--horizon", "15", "--workers", "1", "--out", str(out)])
        assert rc == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["kind"] == "report"
        assert manifest["config"]["horizon"] == 15

    def test_ablations_single_study(self, capsys):
        rc = main(["ablations", "--horizon", "15", "--workers", "1", "--study", "lagrangian"])
        assert rc == 0
        assert "LFSC-noLagrangian" in capsys.readouterr().out


class TestObservabilityCommands:
    def _run_with_trace(self, tmp_path, extra=()):
        trace = tmp_path / "trace.jsonl"
        rc = main(
            [
                "run",
                "--horizon",
                "12",
                "--workers",
                "1",
                "--policies",
                "LFSC",
                "--trace",
                str(trace),
                *extra,
            ]
        )
        assert rc == 0
        return trace

    def test_trace_flag_records_every_slot(self, capsys, tmp_path):
        from repro.obs.trace import read_trace, validate_record

        trace = self._run_with_trace(tmp_path)
        records = read_trace(trace)
        assert [r["t"] for r in records] == list(range(12))
        for r in records:
            validate_record(r)

    def test_trace_sample_thins_records(self, capsys, tmp_path):
        from repro.obs.trace import read_trace

        trace = self._run_with_trace(tmp_path, extra=["--trace-sample", "4"])
        assert [r["t"] for r in read_trace(trace)] == [0, 4, 8]

    def test_trace_subcommand_summarizes(self, capsys, tmp_path):
        trace = self._run_with_trace(tmp_path)
        capsys.readouterr()
        rc = main(["trace", str(trace), "--validate"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "schema OK" in out
        assert "12 records" in out
        assert "sim.select" in out  # span table present

    def test_trace_subcommand_reports_empty_file(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        rc = main(["trace", str(empty)])
        assert rc == 0
        assert "empty trace" in capsys.readouterr().out

    def test_manifest_dir_flag(self, capsys, tmp_path):
        import json

        rc = main(
            [
                "run",
                "--horizon",
                "12",
                "--workers",
                "1",
                "--policies",
                "Random",
                "--manifest-dir",
                str(tmp_path / "mdir"),
            ]
        )
        assert rc == 0
        manifest = json.loads((tmp_path / "mdir" / "manifest.json").read_text())
        assert manifest["kind"] == "run"
        assert manifest["config"]["seed"] is not None

    def test_save_emits_sidecar_manifest(self, capsys, tmp_path):
        import json

        base = tmp_path / "saved"
        rc = main(
            [
                "run",
                "--horizon",
                "12",
                "--workers",
                "1",
                "--policies",
                "Random",
                "--save",
                str(base),
            ]
        )
        assert rc == 0
        manifest = json.loads(base.with_suffix(".manifest.json").read_text())
        assert manifest["kind"] == "results"
        assert manifest["policies"] == ["Random"]

    def test_replicate_emits_manifest(self, capsys, tmp_path):
        import json

        mdir = tmp_path / "repl"
        rc = main(
            [
                "replicate",
                "--horizon",
                "12",
                "--workers",
                "1",
                "--seeds",
                "2",
                "--policies",
                "Random",
                "--manifest-dir",
                str(mdir),
            ]
        )
        assert rc == 0
        manifest = json.loads((mdir / "manifest.json").read_text())
        assert manifest["kind"] == "replication"
        assert len(manifest["seeds"]) == 2
        assert manifest["policies"] == ["Random"]

    def test_traced_run_matches_untraced(self, capsys, tmp_path):
        # The CLI trace path must not perturb results (bit-identity).
        main(["run", "--horizon", "12", "--workers", "1", "--policies", "LFSC"])
        plain = capsys.readouterr().out
        self._run_with_trace(tmp_path)
        traced = capsys.readouterr().out
        assert plain.splitlines()[:3] == traced.splitlines()[:3]


class TestUnifiedOptions:
    """The shared option group (declared once); the old aliases are gone."""

    RUN_COMMANDS = ("run", "fig2a", "fig2b", "fig2-violations", "ratio",
                    "fig3", "fig4", "ablations", "report", "replicate")

    def test_every_run_subcommand_shares_the_group(self):
        parser = build_parser()
        for command in self.RUN_COMMANDS:
            args = parser.parse_args([command])
            for dest in ("window", "trace",
                         "trace_sample", "manifest_dir", "no_oracle_cache"):
                assert hasattr(args, dest), f"{command} lacks --{dest}"

    def test_trace_subcommand_opts_out(self):
        args = build_parser().parse_args(["trace", "x.jsonl"])
        assert not hasattr(args, "window")

    def test_engine_flag_is_gone(self, capsys):
        # LFSC has one slot engine; the retired flag is a usage error.
        for command in ("run", "fleet"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--engine", "batched"])
            assert exc.value.code == 2, command
            assert "--engine" in capsys.readouterr().err
            with pytest.raises(SystemExit):
                main([command, "--help"])
            assert "--engine" not in capsys.readouterr().out

    def test_no_oracle_cache_flows_into_config(self):
        from repro.cli import _config_from_args

        args = build_parser().parse_args(["run", "--no-oracle-cache"])
        assert _config_from_args(args).oracle_cache is False
        args = build_parser().parse_args(["run"])
        assert _config_from_args(args).oracle_cache is True

    def test_removed_aliases_exit_with_usage_error(self, capsys):
        for argv in (["--trace-path", "t.jsonl"], ["--sample-every", "3"],
                     ["--result-transport", "pickle"], ["--transport", "pickle"]):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(["run", *argv])
            assert exc.value.code == 2, argv[0]
            assert argv[0] in capsys.readouterr().err

    def test_aliases_hidden_from_help(self):
        import io
        from contextlib import redirect_stdout

        buf = io.StringIO()
        with redirect_stdout(buf), pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--help"])
        text = buf.getvalue()
        assert "--trace-path" not in text
        assert "--result-transport" not in text
        assert "--transport" not in text
        assert "--trace" in text

    def test_gz_trace_via_cli(self, capsys, tmp_path):
        from repro.obs.trace import read_trace

        trace = tmp_path / "trace.jsonl.gz"
        rc = main(
            ["run", "--horizon", "8", "--workers", "1", "--policies", "Random",
             "--trace", str(trace)]
        )
        assert rc == 0
        with trace.open("rb") as fh:
            assert fh.read(2) == b"\x1f\x8b"
        assert [r["t"] for r in read_trace(trace)] == list(range(8))
