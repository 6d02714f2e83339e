"""Tests for the repro.lint static analyzer.

Covers the engine (discovery, suppression, parse failures, registry),
each shipped rule against its fixture corpus under
``tests/lint_fixtures/``, FORK-001 on the real tree, the SUPP-001
suppression audit and STALE-001 allowlist audit, the reporters
(including JSON byte-determinism), and the ``repro-lint`` CLI -- plus
the acceptance gate: the real tree
(``src``/``tests``/``benchmarks``/``examples``) lints clean under every
rule.
"""

from __future__ import annotations

import json
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
from repro.lint.engine import PARSE_RULE, CheckerRegistry
from repro.lint.report import render_json, render_text

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "tests" / "lint_fixtures"
SIM = FIXTURES / "src" / "repro" / "sim"
NETSIM = FIXTURES / "src" / "repro" / "netsim"
RUNNER = FIXTURES / "src" / "repro" / "runner"
SHARD = FIXTURES / "src" / "repro" / "shard"
BENCH = FIXTURES / "benchmarks"
TESTS = FIXTURES / "tests"

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
        ("RNG-001", TESTS / "rng_bad.py", TESTS / "rng_clean.py", 4),
        ("CLK-001", SIM / "clock_bad.py", SIM / "clock_clean.py", 3),
        ("DET-001", SIM / "det_bad.py", SIM / "det_clean.py", 2),
        ("SLOTS-001", NETSIM / "slots_bad.py", NETSIM / "slots_clean.py", 1),
        ("FAST-001", SIM / "fast_bad.py", SIM / "fast_clean.py", 4),
        ("JSON-001", RUNNER / "json_bad.py", RUNNER / "json_clean.py", 2),
        ("SEED-001", BENCH / "seed_bad.py", BENCH / "seed_clean.py", 3),
        ("MERGE-001", SHARD / "merge_bad.py", SHARD / "merge_clean.py", 3),
        ("FLOAT-001", SHARD / "float_bad.py", SHARD / "float_clean.py", 3),
        ("FORK-001", RUNNER / "fork_bad.py", RUNNER / "fork_clean.py", 4),
    )

    @pytest.mark.parametrize(
        "rule,bad,clean,n_bad", CASES,
        ids=[f"{c[0]}-tests" if c[1].parent == TESTS else c[0]
             for c in CASES],
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


class TestForkState:
    """FORK-001 checks every ``repro.*`` function, not a reachable subset."""

    def test_fixture_flags_each_write_form(self):
        report = lint_fixture(RUNNER / "fork_bad.py", "FORK-001")
        assert [(f.line, f.message.split()[0]) for f in report.findings] == [
            (15, "through_alias"),  # ws.COUNTS[...] = 1 through an alias
            (20, "rebind"),         # global _TOTAL; _TOTAL += 1
            (24, "record"),         # COUNTS.setdefault(...)
            (30, "local_import"),   # function-level from-import, .clear()
        ]

    def test_real_tree_has_exactly_three_writers(self, monkeypatch):
        # With the allowlist emptied, the shipped tree writes module state
        # in exactly three functions.  No worker entry point reaches
        # ``register``, so a reachability-based rule would miss it.
        monkeypatch.setattr(flow, "FORK_STATE_ALLOWLIST", frozenset())
        report = run_lint([REPO / "src"], select=["FORK-001"])
        writers = sorted(
            (f.module, f.message.split()[0]) for f in report.findings
        )
        assert writers == [
            ("repro.obs.artifacts", "clear"),
            ("repro.obs.artifacts", "register"),
            ("repro.runner.cache", "code_fingerprint"),
        ]


class TestProjectGraph:
    """Rules run over a whole multi-module project at once."""

    def test_clean_corpus_passes_every_rule(self):
        # Every clean twin in one sweep: the cross-file passes (FORK-001
        # writes through imports, the STALE-001 and SUPP-001 audits) see
        # all modules together rather than one file at a time.
        clean = sorted(FIXTURES.rglob("*_clean.py"))
        assert len(clean) >= len(TestRuleFixtures.CASES)
        report = run_lint(clean, exclude_dirs=())
        assert report.n_files == len(clean)
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
            frozenset({("repro.runner.fork_bad", "COUNTS")}),
        )
        report = run_lint(
            [RUNNER / "fork_bad.py"], select=["STALE-001"], exclude_dirs=()
        )
        assert report.findings == []

    def test_fork_allowlist_entry_without_writers_is_stale(self, monkeypatch):
        monkeypatch.setattr(
            flow, "FORK_STATE_ALLOWLIST",
            frozenset({("repro.runner.fork_bad", "GONE")}),
        )
        report = run_lint(
            [RUNNER / "fork_bad.py"], select=["STALE-001"], exclude_dirs=()
        )
        assert [(f.rule, f.module) for f in report.findings] == [
            ("STALE-001", "repro.runner.fork_bad")
        ]
        assert "GONE" in report.findings[0].message

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
            str(RUNNER / "json_bad.py"), "--format", "json",
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
