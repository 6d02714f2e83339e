"""The flow-aware rule family: parallelism-safety over the project graph.

These rules machine-check the cross-module contracts that keep the
fork-worker runner (DESIGN.md section 7) and the sharded PDES engine
(section 14) byte-identical -- properties no single-file pass can see:

=========== ===============================================================
rule        contract it pins
=========== ===============================================================
SEED-001    every RNG construction's seed traces back to ``derive_seed``
FORK-001    no worker-reachable code writes module-level state
MERGE-001   merge/ledger/audit accumulation iterates in sorted order
FLOAT-001   no float accumulation over unordered collections in hot code
SUPP-001    every suppression comment actually suppresses something
STALE-001   every allowlist entry still matches a code site
=========== ===============================================================

SEED/FORK/STALE are ``"project"``-scope checkers running over the
:class:`~repro.lint.graph.ProjectGraph`; MERGE/FLOAT are single-file but
belong to the same parallelism-safety family; SUPP is the ``"audit"``
pass that runs after every other rule has consumed its suppressions.

Like the syntactic rules, these are deliberately heuristic: seed taint
follows assignments, call arguments and ``seed``-ish names rather than
types, and reachability is an over-approximation.  The escape hatches
are the audited allowlists (:data:`FORK_STATE_ALLOWLIST` here,
``FAST_PATH_ALLOWLIST`` in :mod:`repro.lint.checkers`) and the
``# repro-lint: disable=<rule>`` comment -- both of which are themselves
audited, by STALE-001 and SUPP-001.
"""

from __future__ import annotations

import ast
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.lint.engine import (
    Finding,
    SourceFile,
    checker,
    walk_with_qualname,
)
from repro.lint.checkers import (
    _in_packages,
    _set_locals,
    fast_path_sites,
)
from repro.lint.graph import ModuleIndex, ProjectGraph, _own_statements

__all__ = [
    "FLOAT_HOT_PREFIXES",
    "FORK_STATE_ALLOWLIST",
    "MERGE_SENSITIVE_FUNCTIONS",
    "SEED_MODULE_PREFIXES",
]

SEED_MODULE_PREFIXES = ("repro", "benchmarks", "examples")
"""Package prefixes where SEED-001 applies to *all* code.

Outside these, SEED-001 still applies to any function that is
worker-reachable (a test helper executed inside a shard would count).
"""

_RNG_CONSTRUCTORS = frozenset({
    "random.Random",
    "numpy.random.RandomState",
    "numpy.random.default_rng",
})
"""Callables that mint an RNG stream from a seed."""

_SANCTIONED_SEED_FNS = frozenset({"derive_seed", "shard_stream_seed"})
"""Functions whose return value is a sanctioned stream seed
(:func:`repro.sim.rand.derive_seed`,
:func:`repro.shard.runtime.shard_stream_seed`)."""

FORK_STATE_ALLOWLIST: FrozenSet[Tuple[str, str]] = frozenset({
    # Pure memo cache: the fingerprint is a function of the source tree
    # on disk, so a worker-local write can only lose a recomputation,
    # never change a result (see the audit comment at the site).
    ("repro.runner.cache", "_FINGERPRINT_CACHE"),
    # Process-local failure-artifact registry: each process exports its
    # own registered tracers on its own failures; the registry never
    # feeds results (see the audit comment at the site).
    ("repro.obs.artifacts", "_PENDING"),
})
"""(module, global_name) pairs FORK-001 accepts as fork-safe.

Growing this set is a deliberate act -- add the entry here *and* a
comment at the write site explaining why the state is fork-safe (e.g.
an idempotent memo, or deliberately process-local), mirroring
``FAST_PATH_ALLOWLIST``'s audit discipline.  STALE-001 flags entries
whose write site has since disappeared.
"""

MERGE_SENSITIVE_FUNCTIONS = frozenset({
    "_route",
    "_shard_absorb",
    "_shard_apply_notices",
    "_shard_export",
    "_shard_schedule_inbox",
    "audit",
})
"""Function names whose iteration order crosses shard/merge boundaries.

These are the section 14 merge surfaces: ledger export/absorb, message
plane application, router fan-in, and conservation audits.  MERGE-001
applies to any ``repro.*`` function with one of these names, and to
*every* function in ``repro.shard``.
"""

_MERGE_MODULE_PREFIXES = ("repro.shard",)

FLOAT_HOT_PREFIXES = (
    "repro.core",
    "repro.netsim",
    "repro.runner",
    "repro.shard",
    "repro.sim",
)
"""Modules where FLOAT-001 polices float accumulation order.

Covers the simulation kernel and -- per the shard engine's
associativity-preserving delay grouping contract -- the whole of
``repro.shard`` and ``repro.runner``.
"""


# -- shared helpers ----------------------------------------------------------


_UNORDERED_VIEW_ATTRS = frozenset({"items", "keys", "values"})


def _is_unordered_iter(expr: ast.expr, set_names: Set[str]) -> bool:
    """Syntactic 'iterating this is order-unstable' test.

    Dict views are insertion-ordered *within one process*, but insertion
    order is exactly what differs across shard arrival orders and fork
    schedules -- which is why the merge contracts demand ``sorted()``.
    """
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Name):
        return expr.id in set_names
    if isinstance(expr, ast.Call) and not expr.args:
        func = expr.func
        return (
            isinstance(func, ast.Attribute)
            and func.attr in _UNORDERED_VIEW_ATTRS
        )
    return False


def _scope_iterations(
    scope: ast.AST,
) -> Iterator[Tuple[ast.expr, Optional[ast.For]]]:
    """(iterated expression, enclosing For or None) for one scope."""
    for node in _own_statements(scope):
        if isinstance(node, ast.For):
            yield node.iter, node
        elif isinstance(
            node,
            (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp),
        ):
            for gen in node.generators:
                yield gen.iter, None


def _function_scopes(
    src: SourceFile,
) -> Iterator[Tuple[str, ast.AST]]:
    """(qualname, def node) for every function in ``src``."""
    for node, qual in walk_with_qualname(src.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield qual, node


# -- SEED-001 ----------------------------------------------------------------


def _seed_argument(call: ast.Call) -> Tuple[str, Optional[ast.expr]]:
    """('ok', expr) | ('missing', None) | ('opaque', None)."""
    if call.args:
        first = call.args[0]
        if isinstance(first, ast.Starred):
            return ("opaque", None)
        return ("ok", first)
    for kw in call.keywords:
        if kw.arg == "seed":
            return ("ok", kw.value)
        if kw.arg is None:
            return ("opaque", None)  # **kwargs splat
    return ("missing", None)


def _seed_is_clean(
    expr: ast.expr,
    index: ModuleIndex,
    assignments: Dict[str, List[ast.expr]],
    depth: int = 0,
) -> bool:
    """True when ``expr`` plausibly traces to a sanctioned seed.

    Clean: a ``derive_seed``/``shard_stream_seed`` call, anything whose
    name says "seed" (parameters, attributes, dict keys -- naming *is*
    the contract for values crossing function boundaries), an ``int()``
    wrapper around something clean, or a variable assigned something
    clean in this scope.  Everything else -- int literals, arithmetic,
    unrelated calls -- is dirty.
    """
    if depth > 6:
        return False
    if isinstance(expr, ast.Call):
        resolved = index.imports.resolve(expr.func) or ""
        final = resolved.rsplit(".", 1)[-1]
        if final in _SANCTIONED_SEED_FNS or "seed" in final.lower():
            return True
        if final == "int" and len(expr.args) == 1:
            return _seed_is_clean(
                expr.args[0], index, assignments, depth + 1
            )
        return False
    if isinstance(expr, ast.Name):
        if "seed" in expr.id.lower():
            return True
        return any(
            _seed_is_clean(value, index, assignments, depth + 1)
            for value in assignments.get(expr.id, [])
        )
    if isinstance(expr, ast.Attribute):
        return "seed" in expr.attr.lower()
    if isinstance(expr, ast.Subscript):
        key = expr.slice
        return (
            isinstance(key, ast.Constant)
            and isinstance(key.value, str)
            and "seed" in key.value.lower()
        )
    return False


def _scope_assignments(scope: ast.AST) -> Dict[str, List[ast.expr]]:
    assignments: Dict[str, List[ast.expr]] = {}
    for node in _own_statements(scope):
        value: Optional[ast.expr] = None
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            value, targets = node.value, node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            value, targets = node.value, [node.target]
        if value is None:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                assignments.setdefault(target.id, []).append(value)
    return assignments


def _check_seed_scope(
    index: ModuleIndex, scope: ast.AST
) -> Iterator[Finding]:
    src = index.source
    assignments = _scope_assignments(scope)
    seen_seed_names: Set[str] = set()
    for node in _own_statements(scope):
        if not isinstance(node, ast.Call):
            continue
        resolved = index.imports.resolve(node.func)
        if resolved not in _RNG_CONSTRUCTORS:
            continue
        kind, seed = _seed_argument(node)
        if kind == "opaque":
            continue
        if kind == "missing":
            yield src.finding(
                "SEED-001",
                node,
                f"{resolved}() constructed without a seed draws "
                "OS entropy; derive the seed via repro.sim.rand."
                "derive_seed(master_seed, name)",
            )
            continue
        assert seed is not None
        if not _seed_is_clean(seed, index, assignments):
            what = (
                "raw seed literal" if isinstance(seed, ast.Constant)
                else "seed expression"
            )
            yield src.finding(
                "SEED-001",
                seed,
                f"{what} feeding {resolved} does not trace to "
                "derive_seed/shard_stream_seed; use repro.sim.rand."
                "derive_seed(master_seed, name) so streams stay "
                "disjoint and reproducible",
            )
            continue
        if isinstance(seed, ast.Name):
            if seed.id in seen_seed_names:
                yield src.finding(
                    "SEED-001",
                    seed,
                    f"seed variable {seed.id!r} reused for a second "
                    "RNG construction; derive a distinct per-stream "
                    "seed via derive_seed(seed, name) instead of "
                    "sharing one value across streams",
                )
            seen_seed_names.add(seed.id)


@checker(
    "SEED-001",
    "RNG seed does not trace back to derive_seed/shard_stream_seed",
    scope="project",
)
def check_seed_taint(graph: ProjectGraph) -> Iterator[Finding]:
    """Every RNG stream must be minted from a derived seed.

    Stream disjointness (DESIGN.md sections 2 and 14) is what makes
    results independent of worker count and shard layout: ``derive_seed``
    hashes ``(master_seed, stream_name)`` so no two streams collide and
    any one stream can be reproduced in isolation.  A raw literal or a
    reused seed variable silently correlates streams -- the failure only
    shows up as statistically-impossible confidence intervals much
    later.  Applies to all repro/benchmarks/examples code plus anything
    worker-reachable.
    """
    for module in sorted(graph.modules):
        index = graph.modules[module]
        module_in_scope = _in_packages(module, SEED_MODULE_PREFIXES)
        if module_in_scope:
            yield from _check_seed_scope(index, index.source.tree)
        for qual, info in sorted(index.functions.items()):
            if module_in_scope or graph.is_reachable(module, qual):
                yield from _check_seed_scope(index, info.node)


# -- FORK-001 ----------------------------------------------------------------


@checker(
    "FORK-001",
    "worker-reachable code writes module-level state",
    scope="project",
)
def check_fork_state(graph: ProjectGraph) -> Iterator[Finding]:
    """No code reachable from a worker entry point may write a module
    global.

    Fork workers (DESIGN.md section 7) and shard processes (section 14)
    inherit module state at fork time and throw it away at exit: a
    module-level cache or latch written inside a worker is invisible to
    the parent and to sibling workers, so results silently depend on
    which process ran which job.  State written only at import time is
    fork-safe (every process replays it identically); state a worker
    writes must live on job/shard-local objects instead, or be
    explicitly audited into :data:`FORK_STATE_ALLOWLIST`.
    """
    for info in graph.reachable_functions():
        src = graph.source(info.module)
        for wmod, wname, node in info.global_writes:
            if (wmod, wname) in FORK_STATE_ALLOWLIST:
                continue
            yield src.finding(
                "FORK-001",
                node,
                f"{info.qualname} is worker-reachable but writes "
                f"module-level state {wmod}.{wname}; fork workers "
                "drop this write on exit -- keep worker state on "
                "job/shard-local objects, or audit the pair into "
                "repro.lint.flow.FORK_STATE_ALLOWLIST",
            )


# -- MERGE-001 ---------------------------------------------------------------


@checker(
    "MERGE-001",
    "merge/ledger/audit code iterates a dict/set without sorted()",
)
def check_merge_order(src: SourceFile) -> Iterator[Finding]:
    """Merge-surface iteration must be explicitly ordered.

    ``_shard_absorb``, message-plane application, and ``audit()``
    accumulation consume state assembled from *multiple* shard/worker
    processes; dict insertion order there reflects arrival order, and
    set order reflects hashing, neither of which is part of the
    determinism contract.  DESIGN.md section 14 requires merges to apply
    in sorted key order -- this rule makes that contract syntactic:
    iterate ``sorted(d.items())``, never ``d.items()``.
    """
    if not src.module.startswith("repro."):
        return
    whole_module = _in_packages(src.module, _MERGE_MODULE_PREFIXES)
    for qual, node in _function_scopes(src):
        name = qual.rsplit(".", 1)[-1]
        if not whole_module and name not in MERGE_SENSITIVE_FUNCTIONS:
            continue
        set_names = _set_locals(node)
        for it, _loop in _scope_iterations(node):
            if _is_unordered_iter(it, set_names):
                yield src.finding(
                    "MERGE-001",
                    it,
                    f"{name} feeds cross-shard merge/audit state but "
                    "iterates an unordered dict/set view; wrap the "
                    "iterable in sorted(...) so merge order is part "
                    "of the contract, not an accident of arrival",
                )


# -- FLOAT-001 ---------------------------------------------------------------


@checker(
    "FLOAT-001",
    "float accumulation over an unordered collection in a hot module",
)
def check_float_accumulation(src: SourceFile) -> Iterator[Finding]:
    """Float accumulation order must be pinned in hot modules.

    Float addition is not associative: ``sum()`` over a dict view or a
    set produces bit-different results under different insertion/hash
    orders, which breaks byte-identical results files and the shard
    engine's associativity-preserving delay grouping.  Accumulate over
    ``sorted(...)`` (or a list with pinned order) so the reduction tree
    is a function of the data, not of process history.
    """
    if not _in_packages(src.module, FLOAT_HOT_PREFIXES):
        return
    scopes: List[ast.AST] = [src.tree]
    scopes.extend(node for _qual, node in _function_scopes(src))
    for scope in scopes:
        set_names = _set_locals(scope)
        for node in _own_statements(scope):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "sum"
                and node.args
            ):
                arg = node.args[0]
                unordered = _is_unordered_iter(arg, set_names) or (
                    isinstance(arg, (ast.GeneratorExp, ast.ListComp))
                    and any(
                        _is_unordered_iter(gen.iter, set_names)
                        for gen in arg.generators
                    )
                )
                if unordered:
                    yield src.finding(
                        "FLOAT-001",
                        node,
                        "sum() over an unordered dict/set view is "
                        "order-sensitive for floats; sum over "
                        "sorted(...) to pin the reduction order",
                    )
            elif isinstance(node, ast.For) and _is_unordered_iter(
                node.iter, set_names
            ):
                for inner in ast.walk(node):
                    if isinstance(inner, ast.AugAssign) and isinstance(
                        inner.op, ast.Add
                    ):
                        yield src.finding(
                            "FLOAT-001",
                            inner,
                            "accumulating with += inside a loop over "
                            "an unordered dict/set view is "
                            "order-sensitive for floats; iterate "
                            "sorted(...) to pin the reduction order",
                        )


# -- SUPP-001 ----------------------------------------------------------------


@checker(
    "SUPP-001",
    "suppression comment that no longer suppresses anything",
    scope="audit",
)
def check_unused_suppressions(
    sources: Sequence[SourceFile],
) -> Iterator[Finding]:
    """Every ``# repro-lint: disable`` comment must still earn its keep.

    A suppression is a standing exception to a determinism contract;
    once the code it excused is gone, the comment becomes a latent hole
    the next edit silently falls into.  This audit runs after every
    other rule and flags comments that matched no finding.  Comments
    naming SUPP-001 itself are exempt (the one sanctioned way to keep a
    speculative suppression).  Skipped on ``--select`` runs, where most
    rules never got the chance to consume their comments.
    """
    for src in sources:
        for suppression in src.suppressions:
            if suppression.used or "SUPP-001" in suppression.rules:
                continue
            listed = ",".join(sorted(suppression.rules))
            yield Finding(
                rule="SUPP-001",
                path=str(src.path),
                line=suppression.line,
                col=0,
                message=(
                    f"suppression for {listed} matched no finding; "
                    "delete the stale comment (or list SUPP-001 to "
                    "keep it deliberately)"
                ),
                module=src.module,
            )


# -- STALE-001 ---------------------------------------------------------------


def _allowlist_location(
    graph: ProjectGraph, defining_module: str, list_name: str,
    fallback: ModuleIndex,
) -> Tuple[str, int, str]:
    """(path, line, module) pointing at the allowlist definition.

    Falls back to the stale entry's own module when the defining module
    is outside the linted path set (partial runs in tests).
    """
    index = graph.modules.get(defining_module)
    if index is not None and list_name in index.globals:
        return (
            str(index.source.path),
            index.globals[list_name],
            defining_module,
        )
    return (str(fallback.source.path), 1, fallback.module)


@checker(
    "STALE-001",
    "allowlist entry no longer matches any code site",
    scope="project",
)
def check_stale_allowlists(graph: ProjectGraph) -> Iterator[Finding]:
    """Audited allowlists must shrink when their sites disappear.

    ``FAST_PATH_ALLOWLIST`` and ``FORK_STATE_ALLOWLIST`` are standing
    permissions to bypass validation; an entry whose code site was
    refactored away is an invitation for new unaudited code to hide
    under an old audit.  An entry is stale when its module is in the
    linted tree but no candidate site (fast-path push / global write)
    matches it; entries whose module is outside the linted paths are
    left alone, so partial runs do not misfire.
    """
    from repro.lint import checkers as _checkers

    for module, qual in sorted(_checkers.FAST_PATH_ALLOWLIST):
        index = graph.modules.get(module)
        if index is None:
            continue
        sites = {q for q, _node in fast_path_sites(index.source)}
        if qual not in sites:
            path, line, mod = _allowlist_location(
                graph, "repro.lint.checkers", "FAST_PATH_ALLOWLIST", index
            )
            yield Finding(
                rule="STALE-001", path=path, line=line, col=0,
                message=(
                    f"FAST_PATH_ALLOWLIST entry ({module}, {qual}) "
                    "matches no fast-path push site; remove the stale "
                    "entry"
                ),
                module=mod,
            )
    for module, name in sorted(FORK_STATE_ALLOWLIST):
        index = graph.modules.get(module)
        if index is None:
            continue
        if not graph.writers_of(module, name):
            path, line, mod = _allowlist_location(
                graph, "repro.lint.flow", "FORK_STATE_ALLOWLIST", index
            )
            yield Finding(
                rule="STALE-001", path=path, line=line, col=0,
                message=(
                    f"FORK_STATE_ALLOWLIST entry ({module}, {name}) "
                    "matches no global-write site; remove the stale "
                    "entry"
                ),
                module=mod,
            )
