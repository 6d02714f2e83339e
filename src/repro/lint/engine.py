"""The ``repro.lint`` analysis engine: file discovery, parsing, suppression.

Every figure this repro produces depends on invariants the interpreter
cannot see: one sanctioned RNG stream (``repro.sim.rand``), no wall-clock
reads inside simulation code, an enumerable set of audited fast-path heap
pushes, and RFC 8259 JSON on every result file.  Runtime tests catch
violations late (after an expensive golden-figure diff); this engine
catches them at commit time by walking the AST of every source file
through a registry of repo-specific checkers (:mod:`repro.lint.checkers`).

Architecture (DESIGN.md section 11):

* :class:`SourceFile` -- one parsed file: path, derived dotted module
  name, AST, and its suppression table;
* :class:`CheckerRegistry` -- rule id -> checker function; checkers are
  plain generators ``(SourceFile) -> Iterator[Finding]`` registered
  with the :func:`checker` decorator, so adding a rule is one decorated
  function.  Every rule sees one file at a time and reports findings in
  that file only;
* :func:`run_lint` -- parses each discovered file, runs every checker
  on it, then the suppression audit (SUPP-001) on it, returning a
  :class:`LintReport` that the reporters in :mod:`repro.lint.report`
  render as text or JSON.

Suppression syntax: a ``# repro-lint: disable=RULE[,RULE...]`` comment on
its own line disables the listed rules (or ``all``) for the whole file; as
a trailing comment it disables them for that line only.  Comments are
recognised with the tokenizer, so the same text inside a string literal
is inert.  Every suppression must earn its keep: a comment that silences
nothing is itself a finding (SUPP-001) on full runs, so suppressions
cannot rot in place after the code they excused is gone.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

__all__ = [
    "CheckerRegistry",
    "Finding",
    "ImportMap",
    "LintReport",
    "PARSE_RULE",
    "Rule",
    "SourceFile",
    "Suppression",
    "checker",
    "iter_source_files",
    "module_name_for",
    "registry",
    "run_lint",
    "walk_with_qualname",
]

PARSE_RULE = "E-PARSE"
"""Pseudo-rule reported for files the ``ast`` module cannot parse."""

DEFAULT_EXCLUDED_DIRS = frozenset({
    "__pycache__",
    ".git",
    ".ruff_cache",
    ".mypy_cache",
    "build",
    "dist",
    # The checker test corpus contains deliberate violations; it is only
    # linted by tests/test_lint.py, which opts back in explicitly.
    "lint_fixtures",
})
"""Directory names skipped during discovery (see ``exclude_dirs``)."""

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_, \-]+)")


@dataclass(frozen=True)
class Rule:
    """Identity, one-line summary, and rationale of one registered checker.

    ``rationale`` is the checker function's docstring, surfaced by
    ``repro-lint --explain RULE`` so the "why" travels with the rule
    instead of living only in DESIGN.md.
    """

    id: str
    summary: str
    rationale: str = ""


@dataclass
class Suppression:
    """One ``# repro-lint: disable=...`` comment in a file.

    ``used`` flips to True the first time the comment actually silences
    a finding; comments still False after every checker has run are
    dead weight and reported by SUPP-001.
    """

    line: int
    rules: FrozenSet[str]
    file_level: bool
    used: bool = False

    def matches(self, rule: str, line: int) -> bool:
        """True if this comment disables ``rule`` at ``line``."""
        if "all" not in self.rules and rule not in self.rules:
            return False
        return self.file_level or line == self.line


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    module: str

    @property
    def location(self) -> str:
        """``path:line:col`` (the clickable prefix of the text report)."""
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe payload (one element of the JSON report)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "module": self.module,
        }


def _parse_suppressions(text: str) -> List[Suppression]:
    """Every suppression comment in ``text``, in source order.

    Comments are located with :mod:`tokenize` so the suppression syntax
    inside a string literal (e.g. a lint test writing fixture sources)
    never counts.  A comment on its own line (only whitespace before the
    ``#``) is file-level; a trailing comment is line-level.
    """
    suppressions: List[Suppression] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # ast.parse accepted the file, so this is unreachable in
        # practice; fall back to treating it as comment-free.
        return suppressions
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(token.string)
        if match is None:
            continue
        rules = frozenset(
            part.strip() for part in match.group(1).split(",")
            if part.strip()
        )
        if not rules:
            continue
        file_level = token.line[: token.start[1]].strip() == ""
        suppressions.append(Suppression(
            line=token.start[0], rules=rules, file_level=file_level,
        ))
    return suppressions


class SourceFile:
    """One parsed source file plus its per-file/per-line suppressions."""

    def __init__(self, path: Path, module: str, text: str):
        self.path = path
        self.module = module
        self.text = text
        self.tree: ast.Module = ast.parse(text, filename=str(path))
        self.suppressions: List[Suppression] = _parse_suppressions(text)

    def finding(
        self, rule: str, node: ast.AST, message: str
    ) -> Finding:
        """Build a :class:`Finding` for ``node`` (checker convenience)."""
        return Finding(
            rule=rule,
            path=str(self.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            module=self.module,
        )

    def suppressed(self, rule: str, line: int) -> bool:
        """True if ``rule`` is disabled for this file or this line.

        Marks every matching suppression comment as used, which is what
        the SUPP-001 audit keys on.
        """
        hit = False
        for suppression in self.suppressions:
            if suppression.matches(rule, line):
                suppression.used = True
                hit = True
        return hit


CheckerFn = Callable[[SourceFile], Iterator[Finding]]
"""A checker: one :class:`SourceFile` -> findings in that file."""

AUDIT_RULE = "SUPP-001"
"""The suppression audit: runs on each file after every other rule."""


class CheckerRegistry:
    """Plugin registry mapping rule ids to checker functions.

    Checkers self-register at import time via the :func:`checker`
    decorator; :func:`run_lint` consults the registry for the selected
    rule subset.
    """

    def __init__(self) -> None:
        self._checkers: Dict[str, Tuple[Rule, CheckerFn]] = {}

    def register(
        self, rule_id: str, summary: str
    ) -> Callable[[CheckerFn], CheckerFn]:
        """Decorator registering a checker under ``rule_id``."""

        def decorate(fn: CheckerFn) -> CheckerFn:
            if rule_id in self._checkers:
                raise ValueError(f"duplicate checker for rule {rule_id!r}")
            rationale = " ".join((fn.__doc__ or "").split())
            self._checkers[rule_id] = (Rule(rule_id, summary, rationale), fn)
            return fn

        return decorate

    def rules(self) -> List[Rule]:
        """Every registered rule, sorted by id."""
        return [self._checkers[key][0] for key in sorted(self._checkers)]

    def get(self, rule_id: str) -> Rule:
        """The :class:`Rule` for ``rule_id`` (KeyError when unknown)."""
        return self._checkers[rule_id][0]

    def items(
        self, select: Optional[Iterable[str]] = None
    ) -> List[Tuple[Rule, CheckerFn]]:
        """(rule, checker) pairs, restricted to ``select``."""
        if select is None:
            return [self._checkers[key] for key in sorted(self._checkers)]
        unknown = sorted(set(select) - set(self._checkers))
        if unknown:
            raise KeyError(f"unknown rule(s): {', '.join(unknown)}")
        return [self._checkers[key] for key in sorted(set(select))]


registry = CheckerRegistry()
"""The default registry (populated by importing :mod:`repro.lint.checkers`)."""

checker = registry.register
"""Decorator registering a checker in the default registry."""


# -- shared AST utilities used by checkers ----------------------------------


def walk_with_qualname(
    tree: ast.Module,
) -> Iterator[Tuple[ast.AST, str]]:
    """Yield every node with the dotted qualname of its enclosing scope.

    The qualname is built from enclosing class/function definitions
    (``""`` at module level, ``"Class.method"`` inside a method), which
    is what allowlists key on.
    """

    def visit(node: ast.AST, qual: str) -> Iterator[Tuple[ast.AST, str]]:
        for child in ast.iter_child_nodes(node):
            child_qual = qual
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
            ):
                child_qual = f"{qual}.{child.name}" if qual else child.name
            yield child, child_qual
            yield from visit(child, child_qual)

    yield tree, ""
    yield from visit(tree, "")


class ImportMap:
    """Alias resolution for one module's imports.

    Maps local names back to the dotted things they refer to, so checkers
    can recognise ``np.random.seed`` and ``from time import perf_counter``
    no matter how the import was spelled.
    """

    def __init__(self, tree: ast.Module):
        self.modules: Dict[str, str] = {}
        self.names: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    self.modules[local] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
                    if alias.asname is None and "." in alias.name:
                        # ``import numpy.random`` binds ``numpy`` locally
                        # but makes the submodule reachable through it.
                        self.modules[alias.name.split(".")[0]] = (
                            alias.name.split(".")[0]
                        )
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.level:
                    continue  # relative imports stay package-local
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.names[local] = f"{node.module}.{alias.name}"

    def resolve(self, node: ast.AST) -> Optional[str]:
        """The dotted source of an attribute/name chain, or ``None``.

        ``np.random.default_rng`` resolves to
        ``"numpy.random.default_rng"`` when ``np`` aliases ``numpy``;
        ``perf_counter`` resolves to ``"time.perf_counter"`` after
        ``from time import perf_counter``.
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = node.id
        if base in self.modules:
            parts.append(self.modules[base])
        elif base in self.names:
            parts.append(self.names[base])
        else:
            parts.append(base)
        return ".".join(reversed(parts))


# -- discovery ---------------------------------------------------------------


def module_name_for(path: Path) -> str:
    """Dotted module name derived from ``path``.

    Files under a ``src`` directory map to their import path
    (``src/repro/sim/core.py`` -> ``repro.sim.core``); anything else maps
    to its path parts relative to the last recognisable anchor (so test
    files become ``tests.test_x`` and benchmark scripts become
    ``benchmarks.bench_x``).  The fixture corpus exploits the anchors:
    ``tests/lint_fixtures/src/repro/netsim/x.py`` lints as module
    ``repro.netsim.x`` and ``tests/lint_fixtures/benchmarks/y.py`` as
    ``benchmarks.y``, which is how fixtures exercise module-scoped rules.
    """
    parts = list(path.with_suffix("").parts)
    for anchor in ("src", "benchmarks", "examples", "tests"):
        if anchor in parts:
            index = len(parts) - 1 - parts[::-1].index(anchor)
            tail = parts[index + 1:] if anchor == "src" else parts[index:]
            if tail:
                return ".".join(part for part in tail if part != "__init__") \
                    or tail[0]
    return parts[-1] if parts[-1] != "__init__" else ".".join(parts[-2:-1])


def iter_source_files(
    paths: Sequence[Path],
    exclude_dirs: Iterable[str] = DEFAULT_EXCLUDED_DIRS,
) -> Iterator[Path]:
    """Every ``.py`` file under ``paths``, pruning excluded directories."""
    excluded = set(exclude_dirs)
    for root in paths:
        root = Path(root)
        if root.is_file():
            yield root
            continue
        for path in sorted(root.rglob("*.py")):
            relative = path.relative_to(root)
            if any(part in excluded for part in relative.parts[:-1]):
                continue
            yield path


# -- execution ---------------------------------------------------------------


@dataclass
class LintReport:
    """The outcome of one :func:`run_lint` call."""

    findings: List[Finding] = field(default_factory=list)
    rules: List[Rule] = field(default_factory=list)
    n_files: int = 0
    suppressed: int = 0

    @property
    def exit_code(self) -> int:
        """0 when clean, 1 when any finding survived suppression."""
        return 1 if self.findings else 0

    def by_rule(self) -> Dict[str, int]:
        """Finding counts per rule id, sorted."""
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return {rule: counts[rule] for rule in sorted(counts)}


def run_lint(
    paths: Sequence[Path],
    select: Optional[Iterable[str]] = None,
    exclude_dirs: Iterable[str] = DEFAULT_EXCLUDED_DIRS,
) -> LintReport:
    """Run the registered checkers over ``paths`` and collect findings.

    Each discovered file is parsed (parse failures become ``E-PARSE``
    findings) and handed to every selected checker; a finding that a
    suppression comment covers is counted, not reported.  Then, on
    unrestricted runs only, the suppression audit (SUPP-001) runs on the
    same file: with most rules deselected, "unused" would misfire on
    every comment whose rule did not get a chance to consume it.  Audit
    findings bypass the suppression filter -- an unused ``disable=all``
    comment must not be able to suppress the report of its own
    unused-ness -- so the audit checker itself honours explicit SUPP-001
    mentions.

    ``select`` restricts to a subset of rule ids; ``exclude_dirs``
    replaces the default directory prune list (pass ``()`` to lint the
    fixture corpus).  Findings are sorted by (path, line, col, rule) so
    reports are deterministic.
    """
    checkers = registry.items(select)
    report = LintReport(rules=[rule for rule, _fn in checkers])
    rule_fns = [fn for rule, fn in checkers if rule.id != AUDIT_RULE]
    audit = registry.items([AUDIT_RULE])[0][1] if select is None else None
    for path in iter_source_files(paths, exclude_dirs):
        report.n_files += 1
        module = module_name_for(path)
        try:
            src = SourceFile(path, module, path.read_text(encoding="utf-8"))
        except (SyntaxError, UnicodeDecodeError, ValueError) as exc:
            line = getattr(exc, "lineno", None) or 1
            report.findings.append(Finding(
                rule=PARSE_RULE, path=str(path), line=line, col=0,
                message=f"cannot parse: {exc}", module=module,
            ))
            continue
        for fn in rule_fns:
            for finding in fn(src):
                if src.suppressed(finding.rule, finding.line):
                    report.suppressed += 1
                else:
                    report.findings.append(finding)
        if audit is not None:
            report.findings.extend(audit(src))

    report.findings.sort(
        key=lambda f: (f.path, f.line, f.col, f.rule)
    )
    return report
