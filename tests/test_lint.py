"""Tests for the repro.lint static analyzer.

Covers the engine (discovery, suppression, parse failures, registry),
each shipped rule against its fixture corpus under
``tests/lint_fixtures/`` (including the multi-file graph corpora for the
cross-module rules), the project graph builder, the SUPP-001 suppression
audit and STALE-001 allowlist audit, the reporters (including JSON
byte-determinism), and both CLI entry points -- plus the acceptance
gate: the real tree (``src``/``tests``/``benchmarks``/``examples``)
lints clean under every rule.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import (
    DEFAULT_EXCLUDED_DIRS,
    Finding,
    checkers,
    flow,
    module_name_for,
    registry,
    run_lint,
)
from repro.lint.cli import main as lint_main
from repro.lint.engine import (
    PARSE_RULE,
    CheckerRegistry,
    SourceFile,
    iter_source_files,
)
from repro.lint.graph import ProjectGraph
from repro.lint.report import render_json, render_text

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "tests" / "lint_fixtures"
SIM = FIXTURES / "src" / "repro" / "sim"
NETSIM = FIXTURES / "src" / "repro" / "netsim"
RUNNER = FIXTURES / "src" / "repro" / "runner"
SHARD = FIXTURES / "src" / "repro" / "shard"
BENCH = FIXTURES / "benchmarks"
GRAPH = FIXTURES / "graph"
GRAPH_CLEAN = FIXTURES / "graph_clean"

ALL_RULES = (
    "CLK-001", "DET-001", "FAST-001", "FLOAT-001", "FORK-001", "JSON-001",
    "MERGE-001", "RNG-001", "SEED-001", "SLOTS-001", "STALE-001", "SUPP-001",
)


def lint_fixture(path: Path, rule: str):
    """Lint one fixture file with a single rule selected."""
    return run_lint([path], select=[rule], exclude_dirs=())


class TestRuleFixtures:
    """Each rule flags its true positive and passes its clean snippet."""

    CASES = (
        ("RNG-001", SIM / "rng_bad.py", SIM / "rng_clean.py", 3),
        ("CLK-001", SIM / "clock_bad.py", SIM / "clock_clean.py", 3),
        ("DET-001", SIM / "det_bad.py", SIM / "det_clean.py", 2),
        ("SLOTS-001", NETSIM / "slots_bad.py", NETSIM / "slots_clean.py", 1),
        ("FAST-001", SIM / "fast_bad.py", SIM / "fast_clean.py", 4),
        ("JSON-001", RUNNER / "json_bad.py", RUNNER / "json_clean.py", 2),
        ("SEED-001", BENCH / "seed_bad.py", BENCH / "seed_clean.py", 3),
        ("MERGE-001", SHARD / "merge_bad.py", SHARD / "merge_clean.py", 3),
        ("FLOAT-001", SHARD / "float_bad.py", SHARD / "float_clean.py", 3),
    )

    @pytest.mark.parametrize(
        "rule,bad,clean,n_bad", CASES, ids=[c[0] for c in CASES]
    )
    def test_true_positive_and_clean(self, rule, bad, clean, n_bad):
        flagged = lint_fixture(bad, rule)
        assert flagged.exit_code == 1
        assert [f.rule for f in flagged.findings] == [rule] * n_bad

        ok = lint_fixture(clean, rule)
        assert ok.exit_code == 0
        assert ok.findings == []

    def test_clean_fixtures_clean_under_all_rules(self):
        # Clean snippets must not trip *any* rule, not just their own.
        for _, _, clean, _ in self.CASES:
            report = run_lint([clean], exclude_dirs=())
            assert report.findings == [], clean.name

    def test_findings_carry_fixture_module_names(self):
        # The src anchor inside lint_fixtures maps fixtures to repro.*
        # modules -- that is how module-scoped rules see them.
        report = lint_fixture(SIM / "rng_bad.py", "RNG-001")
        assert {f.module for f in report.findings} == {"repro.sim.rng_bad"}


class TestSuppression:
    def test_file_level_disable_silences_whole_file(self):
        report = lint_fixture(SIM / "suppress_file.py", "RNG-001")
        assert report.findings == []
        assert report.suppressed >= 1

    def test_line_level_disable_is_line_scoped(self):
        report = lint_fixture(SIM / "suppress_line.py", "RNG-001")
        # The annotated import line is silenced; the later use is not.
        assert [f.line for f in report.findings] == [7]
        assert report.suppressed == 1

    def test_disable_all_keyword(self, tmp_path):
        src = tmp_path / "src" / "repro" / "sim" / "mod.py"
        src.parent.mkdir(parents=True)
        src.write_text(
            "# repro-lint: disable=all\n"
            "import random\n"
        )
        report = run_lint([src], exclude_dirs=())
        assert report.findings == []
        assert report.suppressed >= 1


class TestEngine:
    def test_module_name_for(self):
        assert module_name_for(Path("src/repro/sim/core.py")) == (
            "repro.sim.core"
        )
        assert module_name_for(Path("src/repro/sim/__init__.py")) == (
            "repro.sim"
        )
        assert module_name_for(Path("tests/test_lint.py")) == (
            "tests.test_lint"
        )
        assert module_name_for(
            Path("tests/lint_fixtures/src/repro/netsim/slots_bad.py")
        ) == "repro.netsim.slots_bad"
        # Non-src anchors keep the anchor segment, so SEED-001's module
        # prefixes can target benchmarks/ and examples/ trees.
        assert module_name_for(
            Path("benchmarks/bench_ablation_topology.py")
        ) == "benchmarks.bench_ablation_topology"
        assert module_name_for(
            Path("tests/lint_fixtures/benchmarks/seed_bad.py")
        ) == "benchmarks.seed_bad"

    def test_parse_failure_becomes_finding(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def oops(:\n")
        report = run_lint([bad], exclude_dirs=())
        assert report.exit_code == 1
        assert [f.rule for f in report.findings] == [PARSE_RULE]

    def test_unknown_rule_raises(self):
        with pytest.raises(KeyError):
            run_lint([SIM / "rng_bad.py"], select=["NOPE-999"],
                     exclude_dirs=())

    def test_duplicate_registration_rejected(self):
        reg = CheckerRegistry()

        @reg.register("X-001", "first")
        def first(src):
            return iter(())

        with pytest.raises(ValueError):
            reg.register("X-001", "second")(first)

    def test_registry_ships_all_twelve_rules(self):
        assert tuple(r.id for r in registry.rules()) == ALL_RULES

    def test_every_rule_carries_a_rationale(self):
        # --explain renders the checker docstring; an empty rationale
        # means someone registered a checker without documenting it.
        for rule in registry.rules():
            assert rule.rationale, rule.id

    def test_fixture_dir_pruned_by_default(self):
        # Linting tests/ skips the deliberately-broken corpus...
        report = run_lint([REPO / "tests"])
        assert not any(
            "lint_fixtures" in f.path for f in report.findings
        )
        assert report.exit_code == 0
        # ...but naming the corpus directory explicitly opts back in
        # (pruning applies below the given roots, not to them).
        assert run_lint([FIXTURES]).n_files > 0

    def test_findings_sorted_deterministically(self):
        report = run_lint([FIXTURES], exclude_dirs=())
        keys = [(f.path, f.line, f.col, f.rule) for f in report.findings]
        assert keys == sorted(keys)


def graph_sources(root: Path):
    """Parse a multi-file fixture corpus into SourceFile objects."""
    return [
        SourceFile(path, module_name_for(path), path.read_text())
        for path in iter_source_files([root], exclude_dirs=())
    ]


class TestProjectGraph:
    """The cross-module symbol/call graph under the FORK-001 corpus."""

    def test_reachability_crosses_modules_and_aliases(self):
        # _execute_demo (entry point) -> helper -> ws.COUNTS write and
        # -> _bump -> record, through a module alias and a
        # function-level from-import.
        graph = ProjectGraph(graph_sources(GRAPH))
        assert graph.is_reachable("repro.runner.jobs", "_execute_demo")
        assert graph.is_reachable("repro.runner.jobs", "helper")
        assert graph.is_reachable("repro.runner.jobs", "_bump")
        assert graph.is_reachable("repro.workerstate", "record")

    def test_unreached_writer_is_not_reachable(self):
        # ``untouched`` writes COUNTS but no entry point reaches it:
        # reachability, not mere writing, is the hazard.
        graph = ProjectGraph(graph_sources(GRAPH))
        assert not graph.is_reachable("repro.workerstate", "untouched")

    def test_writers_of_sees_local_alias_and_global_forms(self):
        graph = ProjectGraph(graph_sources(GRAPH))
        writers = {
            (w.module, w.qualname)
            for w in graph.writers_of("repro.workerstate", "COUNTS")
        }
        assert writers == {
            ("repro.runner.jobs", "helper"),       # ws.COUNTS[...] = 1
            ("repro.workerstate", "record"),       # COUNTS.setdefault(...)
            ("repro.workerstate", "untouched"),    # COUNTS.clear()
        }
        assert graph.writers_of("repro.workerstate", "GONE") == []

    def test_fork_rule_flags_only_worker_reachable_writes(self):
        report = run_lint([GRAPH], select=["FORK-001"], exclude_dirs=())
        assert report.exit_code == 1
        flagged = [(f.module, f.line) for f in report.findings]
        assert flagged == [
            ("repro.runner.jobs", 18),
            ("repro.workerstate", 16),
            ("repro.workerstate", 17),
        ]

    def test_clean_corpus_passes_every_rule(self):
        report = run_lint([GRAPH_CLEAN], exclude_dirs=())
        assert report.findings == [], render_text(report)


class TestSuppressionAudit:
    """SUPP-001: unused suppression comments are findings themselves."""

    def test_unused_suppression_flagged_on_full_run(self):
        report = run_lint([SIM / "supp_bad.py"], exclude_dirs=())
        assert report.exit_code == 1
        assert [(f.rule, f.line) for f in report.findings] == [
            ("SUPP-001", 3)
        ]

    def test_used_suppressions_pass_the_audit(self):
        report = run_lint([SIM / "supp_clean.py"], exclude_dirs=())
        assert report.findings == []
        assert report.suppressed == 2

    def test_audit_skipped_under_select(self):
        # --select runs a subset: a suppression for an unselected rule
        # is trivially unused, so the audit only runs on full sweeps.
        report = run_lint(
            [SIM / "supp_bad.py"], select=["RNG-001"], exclude_dirs=()
        )
        assert report.findings == []

    def test_suppression_text_inside_strings_is_inert(self, tmp_path):
        # Tokenize-based parsing: a disable marker inside a string
        # literal neither suppresses anything nor trips the audit.
        src = tmp_path / "mod.py"
        src.write_text('MARKER = "# repro-lint: disable=all"\n')
        report = run_lint([src], exclude_dirs=())
        assert report.findings == []
        assert report.suppressed == 0


class TestStaleAllowlists:
    """STALE-001: audited allowlist entries must still match real code."""

    def test_fast_allowlist_entry_matching_a_site_is_live(self, monkeypatch):
        monkeypatch.setattr(
            checkers, "FAST_PATH_ALLOWLIST",
            frozenset({("repro.sim.fast_bad", "sneak")}),
        )
        report = run_lint(
            [SIM / "fast_bad.py"], select=["STALE-001"], exclude_dirs=()
        )
        assert report.findings == []

    def test_fast_allowlist_entry_without_a_site_is_stale(self, monkeypatch):
        monkeypatch.setattr(
            checkers, "FAST_PATH_ALLOWLIST",
            frozenset({("repro.sim.fast_bad", "vanished")}),
        )
        report = run_lint(
            [SIM / "fast_bad.py"], select=["STALE-001"], exclude_dirs=()
        )
        assert [f.rule for f in report.findings] == ["STALE-001"]
        assert "vanished" in report.findings[0].message

    def test_fork_allowlist_entry_with_writers_is_live(self, monkeypatch):
        monkeypatch.setattr(
            flow, "FORK_STATE_ALLOWLIST",
            frozenset({("repro.workerstate", "COUNTS")}),
        )
        report = run_lint([GRAPH], select=["STALE-001"], exclude_dirs=())
        assert report.findings == []

    def test_fork_allowlist_entry_without_writers_is_stale(self, monkeypatch):
        monkeypatch.setattr(
            flow, "FORK_STATE_ALLOWLIST",
            frozenset({("repro.workerstate", "GONE")}),
        )
        report = run_lint([GRAPH], select=["STALE-001"], exclude_dirs=())
        assert [(f.rule, f.module) for f in report.findings] == [
            ("STALE-001", "repro.workerstate")
        ]

    def test_real_allowlists_are_not_stale(self):
        # The shipped FAST/FORK allowlists must keep matching real code;
        # TestRealTreeClean implies this, but pin it by name too.
        report = run_lint(
            [REPO / "src"], select=["STALE-001"],
            exclude_dirs=DEFAULT_EXCLUDED_DIRS,
        )
        assert report.findings == [], render_text(report)


class TestRealTreeClean:
    def test_repro_lint_clean_on_shipped_tree(self):
        report = run_lint(
            [REPO / "src", REPO / "tests", REPO / "benchmarks",
             REPO / "examples"],
            exclude_dirs=DEFAULT_EXCLUDED_DIRS,
        )
        assert report.findings == [], render_text(report)
        assert report.n_files > 100


class TestDeterminism:
    def test_json_report_byte_identical_across_runs(self):
        # The versioned JSON report is a CI artifact; two sweeps of the
        # same tree must serialize to identical bytes.
        paths = [REPO / "src", REPO / "benchmarks"]
        first = render_json(run_lint(paths))
        second = render_json(run_lint(paths))
        assert first == second

    def test_perf_guard_passes_on_shipped_tree(self):
        # The CI wall-time guard: the whole-tree sweep stays inside the
        # (deliberately loose) budget and exits zero.
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        proc = subprocess.run(
            [sys.executable, str(REPO / "tools" / "lint_perf_guard.py")],
            capture_output=True, text=True, env=env, cwd=REPO,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "wall time" in proc.stdout


class TestReporters:
    def sample(self):
        return lint_fixture(RUNNER / "json_bad.py", "JSON-001")

    def test_text_report_lists_locations_and_summary(self):
        text = render_text(self.sample())
        assert "json_bad.py:8:4: JSON-001" in text
        assert "2 finding(s)" in text

    def test_text_report_clean(self):
        text = render_text(lint_fixture(RUNNER / "json_clean.py",
                                        "JSON-001"))
        assert text.startswith("clean:")

    def test_json_report_round_trips_and_is_nan_safe(self):
        payload = json.loads(render_json(self.sample()))
        assert payload["version"] == 1
        assert payload["summary"]["total"] == 2
        assert payload["summary"]["by_rule"] == {"JSON-001": 2}
        assert [f["rule"] for f in payload["findings"]] == ["JSON-001"] * 2
        assert payload["rules"][0]["id"] == "JSON-001"

    def test_finding_to_dict_round_trip(self):
        finding = self.sample().findings[0]
        assert Finding(**finding.to_dict()) == finding


class TestCli:
    def test_clean_run_exits_zero(self, capsys):
        assert lint_main([str(REPO / "src")]) == 0
        assert capsys.readouterr().out.startswith("clean:")

    def test_findings_exit_one_json(self, capsys):
        code = lint_main([
            str(RUNNER / "json_bad.py"), "--include-fixtures",
            "--format", "json",
        ])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["by_rule"]["JSON-001"] == 2

    def test_out_writes_report_file(self, tmp_path, capsys):
        out = tmp_path / "lint.json"
        code = lint_main([
            str(REPO / "src"), "--format", "json", "--out", str(out),
        ])
        assert code == 0
        assert json.loads(out.read_text())["summary"]["total"] == 0
        assert capsys.readouterr().out == ""

    def test_select_and_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        listed = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule in listed
        assert lint_main([str(REPO / "src"), "--select", "RNG-001"]) == 0

    def test_unknown_rule_and_missing_path_exit_two(self, capsys):
        assert lint_main([str(REPO / "src"), "--select", "NOPE-1"]) == 2
        assert lint_main(["does/not/exist"]) == 2
        err = capsys.readouterr().err
        assert "unknown rule" in err
        assert "not found" in err

    def test_explain_prints_rule_rationale(self, capsys):
        assert lint_main(["--explain", "SEED-001"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("SEED-001:")
        assert "derive_seed" in out

    def test_explain_unknown_rule_exits_two(self, capsys):
        assert lint_main(["--explain", "NOPE-999"]) == 2
        err = capsys.readouterr().err
        assert "unknown rule" in err
        assert "SEED-001" in err  # the listing names the known rules

    def test_no_paths_defaults_to_whole_tree(self, capsys, monkeypatch):
        # CI runs `repro-lint` bare; the default roots must cover the
        # benchmark and example trees, not just src/tests.
        monkeypatch.chdir(REPO)
        assert lint_main([]) == 0
        out = capsys.readouterr().out
        assert out.startswith("clean:")

    def test_repro_bench_lint_subcommand(self, capsys):
        from repro.cli import main as bench_main

        assert bench_main(["lint", str(REPO / "src")]) == 0
        assert capsys.readouterr().out.startswith("clean:")
