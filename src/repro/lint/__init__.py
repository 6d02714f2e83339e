"""``repro.lint``: determinism & invariant static analysis.

A small AST-walking analyzer purpose-built for this repro.  The engine
(:mod:`repro.lint.engine`) provides the checker registry, suppression
comments, and file discovery; every rule is a file rule, the syntactic
ones in :mod:`repro.lint.checkers` and the parallelism-safety ones in
:mod:`repro.lint.flow`; reporters in :mod:`repro.lint.report`; the
``repro-lint`` console script in :mod:`repro.lint.cli`.

See DESIGN.md section 11 for the architecture and rule catalog.
"""

from __future__ import annotations

from repro.lint.engine import (
    DEFAULT_EXCLUDED_DIRS,
    Finding,
    LintReport,
    Rule,
    SourceFile,
    iter_source_files,
    module_name_for,
    registry,
    run_lint,
)

# Importing the rule modules registers the built-in rules.
import repro.lint.checkers as checkers  # noqa: E402
import repro.lint.flow as flow  # noqa: E402

__all__ = [
    "DEFAULT_EXCLUDED_DIRS",
    "Finding",
    "LintReport",
    "Rule",
    "SourceFile",
    "checkers",
    "flow",
    "iter_source_files",
    "module_name_for",
    "registry",
    "run_lint",
]
