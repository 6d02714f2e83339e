"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        sub = next(
            a for a in parser._actions
            if hasattr(a, "choices") and a.choices
        )
        assert set(sub.choices) == {
            "table4", "table5", "fig6", "fig7", "fig8", "fig9", "fig10",
            "drop-model", "packaging", "awgr", "diagnose", "resilience",
            "trace", "zoo",
        }

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestCommands:
    def test_table4(self, capsys):
        assert main(["table4"]) == 0
        out = capsys.readouterr().out
        assert "Table IV" in out and "0.406" in out

    def test_table5_small(self, capsys):
        assert main(["table5", "--nodes", "16", "--packets", "5"]) == 0
        out = capsys.readouterr().out
        assert "1112" in out  # the m=4 gate count

    def test_fig8(self, capsys):
        assert main(["fig8"]) == 0
        out = capsys.readouterr().out
        assert "baldur" in out and "dragonfly" in out

    def test_fig9(self, capsys):
        assert main(["fig9"]) == 0
        assert "pessimistic" in capsys.readouterr().out

    def test_fig10(self, capsys):
        assert main(["fig10"]) == 0
        assert "interposer" in capsys.readouterr().out

    def test_drop_model_small(self, capsys):
        assert main(["drop-model", "--nodes", "64", "--trials", "1"]) == 0
        assert "drop_%" in capsys.readouterr().out

    def test_packaging(self, capsys):
        assert main(["packaging"]) == 0
        assert "cabinets" in capsys.readouterr().out

    def test_awgr(self, capsys):
        assert main(["awgr"]) == 0
        assert "awgr" in capsys.readouterr().out.lower()

    def test_diagnose_small(self, capsys):
        assert main([
            "diagnose", "--nodes", "32", "--stage", "1",
            "--switch", "3", "--probes", "120",
        ]) == 0
        assert "candidates" in capsys.readouterr().out

    def test_fig6_tiny(self, capsys):
        assert main([
            "fig6", "--nodes", "16", "--packets", "3",
            "--loads", "0.5",
        ]) == 0
        assert "average latency" in capsys.readouterr().out

    def test_fig7_tiny(self, capsys):
        assert main(["fig7", "--nodes", "16", "--packets", "3"]) == 0
        assert "ping_pong1" in capsys.readouterr().out

    def test_zoo_list(self, capsys):
        assert main(["zoo", "--list"]) == 0
        from repro.zoo import ARCHITECTURES

        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "baldur", "multibutterfly", "dragonfly", "fattree", "ideal",
        ] == list(ARCHITECTURES)
        assert "Contention-free lower bound" in lines[-1]  # ideal's docstring

    def test_zoo_sweep_tiny(self, capsys):
        assert main([
            "zoo", "--nodes", "16", "--packets", "3", "--loads", "0.5",
        ]) == 0
        out = capsys.readouterr().out
        assert "Architecture zoo" in out
        for name in ("baldur", "multibutterfly", "dragonfly", "fattree",
                     "ideal"):
            assert name in out

    def test_zoo_is_the_fig6_spec(self, tmp_path, capsys):
        # The zoo command is figure6_spec with one pattern: its --out
        # JSON is byte-identical to that sweep's canonical results.
        from repro.analysis.experiments import figure6_spec
        from repro.runner import run_sweep

        out = tmp_path / "zoo.json"
        assert main([
            "zoo", "--nodes", "16", "--packets", "3", "--loads", "0.5",
            "--no-cache", "--out", str(out),
        ]) == 0
        capsys.readouterr()
        sweep = run_sweep(figure6_spec(
            n_nodes=16, loads=(0.5,), patterns=("random_permutation",),
            packets_per_node=3, seed=0,
        ))
        assert out.read_text() == sweep.to_json()

    def test_resilience_small(self, capsys):
        assert main([
            "resilience", "--nodes", "16", "--packets", "3",
            "--failures", "0", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "Resilience sweep" in out
        assert "Degraded mode" in out
        assert "unmasked" in out and "masked" in out

    def test_resilience_chaos(self, capsys):
        assert main([
            "resilience", "--nodes", "16", "--packets", "3",
            "--failures", "1", "--mtbf", "200000", "--mttr", "50000",
        ]) == 0
        assert "chaos" in capsys.readouterr().out

    def test_trace_baldur_replays_a_flow(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        assert main([
            "trace", "--nodes", "16", "--packets", "5",
            "--load", "0.9", "--out", str(out),
        ]) == 0
        printed = capsys.readouterr().out
        assert "inject" in printed and "deliver" in printed
        assert "Tracer(" in printed
        lines = out.read_text().splitlines()
        assert lines  # exported JSONL is non-empty...
        import json
        assert all("type" in json.loads(line) for line in lines)

    def test_trace_electrical_with_metrics_export(self, tmp_path, capsys):
        metrics_out = tmp_path / "metrics.jsonl"
        assert main([
            "trace", "--network", "multibutterfly", "--nodes", "16",
            "--packets", "5", "--metrics-out", str(metrics_out),
        ]) == 0
        printed = capsys.readouterr().out
        assert "stage_arrival" in printed
        import json
        rows = [json.loads(line)
                for line in metrics_out.read_text().splitlines()]
        assert any(row["metric"] == "arrivals" for row in rows)

    def test_trace_unknown_pid_fails_cleanly(self, capsys):
        assert main([
            "trace", "--nodes", "16", "--packets", "2", "--pid", "999999",
        ]) != 0
        assert "no trace events" in capsys.readouterr().out

    @pytest.mark.parametrize("argv,message", [
        (["trace", "--network", "torus"],
         "unknown architecture 'torus' (known: baldur, "),
        (["diagnose", "--stage", "99"], "stage 99 out of range"),
        (["fig6", "--jobs", "0"], "jobs must be >= 1"),
    ], ids=["trace-network", "diagnose-stage", "fig6-jobs"])
    def test_configuration_error_is_one_line_and_exit_2(
        self, argv, message, capsys
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_fig6_multi_load_renders_ascii_plot(self, capsys):
        assert main([
            "fig6", "--nodes", "16", "--packets", "3",
            "--loads", "0.3", "0.8",
        ]) == 0
        out = capsys.readouterr().out
        assert "=baldur" in out  # plot legend
        assert "input load" in out


class TestFaultFlags:
    TINY = ["fig6", "--nodes", "16", "--packets", "3", "--loads", "0.5"]

    def test_sweep_flags_parse(self):
        args = build_parser().parse_args(self.TINY + [
            "--timeout", "30", "--deadline", "600",
            "--retries", "2", "--resume",
        ])
        assert args.timeout == 30.0
        assert args.deadline == 600.0
        assert args.retries == 2
        assert args.resume == "auto"  # bare --resume picks the default

    def test_resume_round_trip_is_byte_identical(self, tmp_path, capsys):
        journal = tmp_path / "fig6.journal.jsonl"
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert main(self.TINY + ["--resume", str(journal),
                                 "--out", str(out_a)]) == 0
        first = capsys.readouterr().out
        assert "resumed" not in first
        assert main(self.TINY + ["--resume", str(journal),
                                 "--out", str(out_b)]) == 0
        second = capsys.readouterr().out
        assert "20 resumed" in second  # warm run executed nothing
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_partial_failure_exits_1_and_reports(self, monkeypatch, capsys):
        import repro.runner.engine as engine

        real = engine._timed_execute

        def flaky(kind, params):
            if params.get("network") == "ideal":
                raise ValueError("injected CLI failure")
            return real(kind, params)

        # The patch lives in this process, so the sweep must run here too
        # (even under REPRO_JOBS=2).
        monkeypatch.setattr(engine, "_timed_execute", flaky)
        assert main(self.TINY + ["--jobs", "1"]) == 1
        captured = capsys.readouterr()
        assert "# FAILED" in captured.err
        assert "injected CLI failure" in captured.err
        assert "failed" in captured.out  # report line counts failures

    def test_total_failure_exits_2(self, monkeypatch, capsys):
        import repro.runner.engine as engine

        def doomed(kind, params):
            raise ValueError("nothing works")

        monkeypatch.setattr(engine, "_timed_execute", doomed)
        assert main(self.TINY + ["--jobs", "1"]) == 2
        assert "# FAILED" in capsys.readouterr().err
