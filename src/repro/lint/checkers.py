"""The built-in single-file checkers (the syntactic half of the catalog).

Each checker is a generator ``(SourceFile) -> Iterator[Finding]``
registered with :func:`repro.lint.engine.checker`.  The six rules here
pin the determinism and invariant contracts documented in DESIGN.md;
the parallelism-safety rules (SEED/FORK/MERGE/FLOAT/SUPP/STALE) live in
:mod:`repro.lint.flow`.

========== ================================================================
rule       contract it pins
========== ================================================================
RNG-001    no process-global RNG: ``repro.*`` uses ``repro.sim.rand``
CLK-001    simulation code never reads the wall clock
DET-001    scheduling/arbitration never iterates an unordered ``set``
SLOTS-001  hot-module classes declare ``__slots__`` like their peers
FAST-001   unvalidated event-queue pushes stay on an audited allowlist
JSON-001   every ``json.dump(s)`` is NaN-safe (the PR 3 bug class)
========== ================================================================

Checkers are intentionally syntactic: they resolve import aliases (see
:class:`~repro.lint.engine.ImportMap`) but do no type inference, so a
determined author can evade them -- the point is to make accidental
violations loud, with ``# repro-lint: disable=<rule>`` as the explicit,
reviewable escape hatch.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Sequence, Set, Tuple

from repro.lint.engine import (
    Finding,
    ImportMap,
    SourceFile,
    checker,
    walk_with_qualname,
)

__all__ = [
    "FAST_PATH_ALLOWLIST",
    "HOT_CLOCK_PREFIXES",
    "SLOTS_MODULES",
    "fast_path_sites",
]

HOT_CLOCK_PREFIXES = (
    "repro.sim",
    "repro.core",
    "repro.netsim",
    "repro.electrical",
    "repro.zoo",
    "repro.shard",
)
"""Packages in which CLK-001 and DET-001 apply (the simulation core).

Wall-clock reads are allowed only in measurement/driver layers
(``repro.runner.engine``, ``repro.obs.profile``, the CLI) where they feed
reports, never simulation state.
"""

SLOTS_MODULES = (
    "repro.sim.core",
    "repro.core.baldur_network",
    "repro.shard.runtime",
    "repro.shard.plan",
)
"""Exact modules (plus the ``repro.netsim`` package) checked by SLOTS-001."""

FAST_PATH_ALLOWLIST = frozenset({
    # The kernel itself: the validated entry points.
    ("repro.sim.core", "Environment.schedule"),
    ("repro.sim.core", "Environment.schedule_at"),
    ("repro.sim.core", "Environment.schedule_batch"),
    ("repro.sim.core", "Environment.schedule_lane"),
    # PR 4's audited open-coded pushes (delays are sums of non-negative
    # model constants; see the inline safety comments at each site).
    ("repro.core.baldur_network", "BaldurNetwork._transmit"),
    ("repro.core.baldur_network", "BaldurNetwork._arrive_stage"),
    # The fused hop drain: the fast hop handler for plain runs and shard
    # workers (delays are the same model-constant sums as
    # _arrive_stage's; the hop-lane appends are now + one constant, so
    # sorted).
    ("repro.core.baldur_network", "BaldurNetwork._drain"),
})
"""(module, qualname) pairs allowed to bypass kernel delay validation.

Growing this set is a deliberate act: add the new call site here *and*
justify its delay bounds in a comment at the site, mirroring DESIGN.md
section 10's audit discipline.
"""

_SCHEDULING_ATTRS = frozenset({
    "schedule",
    "schedule_at",
    "schedule_batch",
    "schedule_lane",
    "heappush",
})
"""Calls that commit event order (DET-001's notion of 'feeds scheduling')."""


def _in_packages(module: str, prefixes: Sequence[str]) -> bool:
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in prefixes
    )


# -- RNG-001 -----------------------------------------------------------------


def _annotation_nodes(tree: ast.AST) -> Set[int]:
    """``id()``s of every node inside a type annotation.

    ``rng: np.random.Generator`` *names* the global-RNG type without
    touching global state, so RNG-001 must not flag annotation subtrees.
    """
    roots: List[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            for arg in (
                *arguments.posonlyargs,
                *arguments.args,
                *arguments.kwonlyargs,
                arguments.vararg,
                arguments.kwarg,
            ):
                if arg is not None and arg.annotation is not None:
                    roots.append(arg.annotation)
            if node.returns is not None:
                roots.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            roots.append(node.annotation)
    ids: Set[int] = set()
    for root in roots:
        ids.update(id(sub) for sub in ast.walk(root))
    return ids


_GLOBAL_RNG_CALLS = frozenset(
    [f"random.{name}" for name in (
        "betavariate choice choices expovariate gammavariate gauss "
        "getrandbits lognormvariate normalvariate paretovariate randbytes "
        "randint random randrange sample seed shuffle triangular uniform "
        "vonmisesvariate weibullvariate"
    ).split()]
    + [f"numpy.random.{name}" for name in
       "choice rand randint randn seed shuffle".split()]
)
"""Calls that draw from or reseed a process-global generator.

``random.getstate``/``setstate`` are left out: saving and restoring the
global state is how a test proves a simulation never touched it.
"""


def _global_rng_calls(src: SourceFile) -> Iterator[Finding]:
    """RNG-001 outside ``repro.*``: calls in :data:`_GLOBAL_RNG_CALLS`."""
    imports = ImportMap(src.tree)
    for node in ast.walk(src.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = imports.resolve(node.func)
        root = node.func
        while isinstance(root, ast.Attribute):
            root = root.value
        # A local that merely shares the name ``random`` resolves to
        # itself; only names bound by an import count.
        if resolved in _GLOBAL_RNG_CALLS and isinstance(root, ast.Name) and (
            root.id in imports.modules or root.id in imports.names
        ):
            yield src.finding(
                "RNG-001",
                node,
                f"{resolved}() uses the process-global RNG, which couples "
                "every test and run in the process; draw from a local "
                "random.Random(seed) / numpy default_rng(seed) instead",
            )


@checker(
    "RNG-001",
    "global random / numpy.random use outside repro.sim.rand",
)
def check_rng(src: SourceFile) -> Iterator[Finding]:
    """Flag stdlib/numpy global RNG use outside the sanctioned module.

    Reproducibility rests on every stochastic component drawing from a
    named stream derived via :func:`repro.sim.rand.derive_seed`; the
    module-global generators (``random.random``, ``numpy.random.seed``)
    are cross-cutting hidden state that any import can perturb.  In
    ``repro.*`` any use of ``random``/``numpy.random`` outside
    ``repro.sim.rand`` is flagged.  Tests, benchmarks and examples may
    build local ``random.Random(seed)`` instances, but a call that draws
    from or reseeds a process-global generator is flagged there too.
    """
    if _in_packages(src.module, ("tests", "benchmarks", "examples")):
        yield from _global_rng_calls(src)
        return
    if not src.module.startswith("repro.") or src.module == "repro.sim.rand":
        return
    imports = ImportMap(src.tree)
    annotations = _annotation_nodes(src.tree)
    seen: Set[Tuple[int, int]] = set()

    def flag(node: ast.AST, what: str) -> Iterator[Finding]:
        pos = (
            getattr(node, "lineno", 1), getattr(node, "col_offset", 0)
        )
        if pos not in seen:
            seen.add(pos)
            yield src.finding(
                "RNG-001",
                node,
                f"{what} uses the global RNG stream; draw from a named "
                "stream via repro.sim.rand.stream/numpy_stream instead",
            )

    for node in ast.walk(src.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith(
                    "numpy.random"
                ):
                    yield from flag(node, f"import {alias.name}")
        elif isinstance(node, ast.ImportFrom) and node.module in (
            "random", "numpy.random"
        ):
            yield from flag(node, f"from {node.module} import ...")
        elif isinstance(node, (ast.Attribute, ast.Name)):
            if id(node) in annotations:
                continue
            resolved = imports.resolve(node)
            if resolved is None:
                continue
            if resolved == "random" or resolved.startswith("random."):
                # Only flag names that actually came from an import of
                # the stdlib module (a local variable named ``random``
                # resolves to itself but was never imported).
                if "random" in imports.modules or resolved in (
                    imports.names.get(resolved.split(".")[-1], ""),
                ):
                    yield from flag(node, resolved)
            elif resolved == "numpy.random" or resolved.startswith(
                "numpy.random."
            ):
                yield from flag(node, resolved)


# -- CLK-001 -----------------------------------------------------------------

_WALL_CLOCK_CALLS = frozenset({
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
})


@checker(
    "CLK-001",
    "wall-clock read inside simulation code",
)
def check_clock(src: SourceFile) -> Iterator[Finding]:
    """Flag wall-clock reads inside the :data:`HOT_CLOCK_PREFIXES`
    packages.

    Simulation time is :attr:`Environment.now`; a wall-clock read in
    simulation code either leaks nondeterminism into results or silently
    measures the host instead of the model.  Measurement layers
    (``repro.obs.profile``, ``repro.runner``) are outside the banned set
    by construction.
    """
    if not _in_packages(src.module, HOT_CLOCK_PREFIXES):
        return
    imports = ImportMap(src.tree)
    seen: Set[Tuple[int, int]] = set()
    for node in ast.walk(src.tree):
        if isinstance(node, ast.ImportFrom) and node.module in (
            "time", "datetime"
        ):
            banned = [
                alias.name for alias in node.names
                if f"{node.module}.{alias.name}" in _WALL_CLOCK_CALLS
                or (node.module == "datetime"
                    and alias.name in ("datetime", "date"))
            ]
            if banned:
                yield src.finding(
                    "CLK-001",
                    node,
                    f"importing {', '.join(banned)} from {node.module} "
                    "inside simulation code; use Environment.now for "
                    "simulated time (wall clocks belong in "
                    "repro.obs.profile / repro.runner / the CLI)",
                )
        elif isinstance(node, (ast.Attribute, ast.Name)):
            resolved = imports.resolve(node)
            if resolved in _WALL_CLOCK_CALLS:
                pos = (node.lineno, node.col_offset)
                if pos in seen:
                    continue
                seen.add(pos)
                yield src.finding(
                    "CLK-001",
                    node,
                    f"{resolved} read inside simulation code; use "
                    "Environment.now (wall clocks belong in "
                    "repro.obs.profile / repro.runner / the CLI)",
                )


# -- DET-001 -----------------------------------------------------------------


def _scope_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """Nodes of ``scope`` without descending into nested function scopes.

    Nested functions are analyzed as scopes of their own; descending into
    them here would attribute their set iterations (or scheduling calls)
    to the enclosing scope and create cross-scope false positives.
    """
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def _set_locals(scope: ast.AST) -> Set[str]:
    """Names assigned a set-typed value anywhere in ``scope``."""
    names: Set[str] = set()
    for node in _scope_nodes(scope):
        if isinstance(node, ast.Assign):
            value = node.value
            if _is_set_expr(value, names):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        elif (
            isinstance(node, ast.AnnAssign)
            and node.value is not None
            and _is_set_expr(node.value, names)
            and isinstance(node.target, ast.Name)
        ):
            names.add(node.target.id)
    return names


def _is_set_expr(node: ast.AST, set_names: Set[str]) -> bool:
    """Syntactic 'this expression is a set' test (no type inference)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub)
    ):
        return _is_set_expr(node.left, set_names) or _is_set_expr(
            node.right, set_names
        )
    return False


@checker(
    "DET-001",
    "iteration over an unordered set feeding scheduling/arbitration",
)
def check_set_iteration(src: SourceFile) -> Iterator[Finding]:
    """Flag ``for``/comprehension iteration over sets in scopes that
    schedule events or arbitrate.

    Set iteration order is insertion-history- and hash-dependent; when
    the loop body (or the surrounding function) commits event order --
    ``env.schedule``, ``heappush``, ``Event.succeed`` -- the simulation
    result silently depends on it.  Iterate ``sorted(the_set)`` (or keep
    a list) instead.
    """
    if not _in_packages(src.module, HOT_CLOCK_PREFIXES):
        return
    scopes: List[ast.AST] = [src.tree]
    scopes.extend(
        node for node in ast.walk(src.tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    )
    flagged: Set[Tuple[int, int]] = set()
    for scope in scopes:
        schedules = any(
            (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _SCHEDULING_ATTRS
            )
            or (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "heappush"
            )
            for node in _scope_nodes(scope)
        )
        if not schedules:
            continue
        set_names = _set_locals(scope)
        iters: List[ast.expr] = []
        for node in _scope_nodes(scope):
            if isinstance(node, ast.For):
                iters.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                       ast.DictComp)
            ):
                iters.extend(gen.iter for gen in node.generators)
        for it in iters:
            if _is_set_expr(it, set_names):
                pos = (it.lineno, it.col_offset)
                if pos in flagged:
                    continue
                flagged.add(pos)
                yield src.finding(
                    "DET-001",
                    it,
                    "iterating an unordered set in a scope that "
                    "schedules events or arbitrates makes event order "
                    "hash-dependent; iterate sorted(...) or keep a list",
                )


# -- SLOTS-001 ---------------------------------------------------------------


def _declares_slots(cls: ast.ClassDef) -> bool:
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign):
            if any(
                isinstance(t, ast.Name) and t.id == "__slots__"
                for t in stmt.targets
            ):
                return True
        elif isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ) and stmt.target.id == "__slots__":
            return True
    return False


def _slots_exempt(cls: ast.ClassDef) -> bool:
    """Exceptions and dataclasses are exempt from SLOTS-001.

    Exception layouts are never hot-path, and ``@dataclass`` field
    storage predates usable ``slots=True`` on our floor Python.
    """
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = (
            target.attr if isinstance(target, ast.Attribute)
            else target.id if isinstance(target, ast.Name) else ""
        )
        if name == "dataclass":
            return True
    for base in cls.bases:
        name = (
            base.attr if isinstance(base, ast.Attribute)
            else base.id if isinstance(base, ast.Name) else ""
        )
        if name in ("Exception", "BaseException") or name.endswith(
            ("Error", "Exception", "Warning")
        ):
            return True
    return False


@checker(
    "SLOTS-001",
    "hot-module class missing __slots__ while module peers declare it",
)
def check_slots(src: SourceFile) -> Iterator[Finding]:
    """In hot modules, every class must opt into ``__slots__`` once any
    peer does.

    A single slot-less class in a hot module silently re-introduces a
    per-instance ``__dict__`` (and, as a base class, disables slot
    storage for subclasses), undoing PR 4's memory/attribute-speed work.
    """
    if src.module not in SLOTS_MODULES and not _in_packages(
        src.module, ("repro.netsim",)
    ):
        return
    classes = [
        node for node in src.tree.body if isinstance(node, ast.ClassDef)
    ]
    if not any(_declares_slots(cls) for cls in classes):
        return
    for cls in classes:
        if _declares_slots(cls) or _slots_exempt(cls):
            continue
        yield src.finding(
            "SLOTS-001",
            cls,
            f"class {cls.name} has no __slots__ but its module peers "
            "declare it; add __slots__ (or '__slots__ = ()' for "
            "attribute-less subclasses) to keep instances dict-free",
        )


# -- FAST-001 ----------------------------------------------------------------


def _is_lane(node: ast.AST, lane_names: Set[str]) -> bool:
    """Whether ``node`` names a kernel lane.

    Lanes are recognised by name -- an attribute or variable called
    ``lane`` or ``*_lane`` -- or by being bound from an ``env.lane()``
    call; hot-path code that unpacks a lane out of a tuple keeps the
    naming convention so this stays true.
    """
    if isinstance(node, ast.Attribute):
        ident = node.attr
    elif isinstance(node, ast.Name):
        ident = node.id
    else:
        return False
    return ident == "lane" or ident.endswith("_lane") or ident in lane_names


def _is_lane_append(node: ast.AST, lane_names: Set[str]) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "append"
        and _is_lane(node.value, lane_names)
    )


def _push_aliases(
    scope: ast.AST,
) -> Tuple[Set[str], Set[str], Set[str], Set[str]]:
    """Names bound to ``*._queue``, to ``heapq.heappush``, to ``*.lane()``
    and to a lane's ``append``."""
    bindings = [
        ([t.id for t in node.targets if isinstance(t, ast.Name)], node.value)
        for node in ast.walk(scope)
        if isinstance(node, ast.Assign)
    ]
    # Lanes first: an append alias may go through a lane alias.
    lanes: Set[str] = set()
    for targets, value in bindings:
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr == "lane"
        ):
            lanes.update(targets)
    queues: Set[str] = set()
    pushes: Set[str] = set()
    appends: Set[str] = set()
    for targets, value in bindings:
        if not isinstance(value, ast.Attribute):
            continue
        if value.attr == "_queue":
            queues.update(targets)
        elif value.attr == "heappush":
            pushes.update(targets)
        elif _is_lane_append(value, lanes):
            appends.update(targets)
    return queues, pushes, lanes, appends


def fast_path_sites(
    src: SourceFile,
) -> Iterator[Tuple[str, ast.Call]]:
    """Every open-coded push onto an event queue or kernel lane in ``src``:
    a ``heappush`` onto ``*._queue``, or an ``append`` onto a lane.

    Yields ``(qualname, call_node)``.  FAST-001 flags the sites missing from
    :data:`FAST_PATH_ALLOWLIST`; STALE-001 (``repro.lint.flow``) flags
    the allowlist entries matching none of these sites, so both rules
    share one definition of "site" and cannot drift.
    """
    imports = ImportMap(src.tree)
    # Conservative whole-file alias sets: a name bound to ``*._queue``,
    # ``heapq.heappush``, a lane or a lane's ``append`` anywhere marks it
    # suspect everywhere (no per-scope dataflow; over-flagging is the safe
    # direction here, and the escape hatch is the allowlist, not evasion).
    queue_names, push_names, lane_names, append_names = _push_aliases(
        src.tree
    )
    for node, qual in walk_with_qualname(src.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if _is_lane_append(func, lane_names) or (
            isinstance(func, ast.Name) and func.id in append_names
        ):
            yield qual, node
            continue
        is_push = imports.resolve(func) == "heapq.heappush" or (
            isinstance(func, ast.Name) and func.id in push_names
        )
        if not is_push or not node.args:
            continue
        target = node.args[0]
        onto_queue = (
            isinstance(target, ast.Attribute) and target.attr == "_queue"
        ) or (isinstance(target, ast.Name) and target.id in queue_names)
        if onto_queue:
            yield qual, node


@checker(
    "FAST-001",
    "unvalidated event-queue push outside the audited allowlist",
)
def check_fast_path(src: SourceFile) -> Iterator[Finding]:
    """Keep open-coded event pushes enumerable.

    A direct ``heappush(env._queue, ...)`` skips the kernel's
    NaN/negative-delay validation, and a direct ``lane.append(...)``
    also skips the tail guard that keeps a lane sorted; each such call
    site must be audited (delay provably finite and >= now; lane keys
    provably non-decreasing) and listed in :data:`FAST_PATH_ALLOWLIST`.
    Anything else should call ``Environment.schedule``/``schedule_at``/
    ``schedule_batch``/``schedule_lane``.
    """
    for qual, node in fast_path_sites(src):
        if (src.module, qual) in FAST_PATH_ALLOWLIST:
            continue
        yield src.finding(
            "FAST-001",
            node,
            "open-coded push onto an event queue or lane bypasses kernel "
            "validation; call schedule()/schedule_at()/schedule_lane() or "
            "add this audited site to "
            "repro.lint.checkers.FAST_PATH_ALLOWLIST",
        )


# -- JSON-001 ----------------------------------------------------------------


@checker(
    "JSON-001",
    "json.dump(s) without NaN protection",
)
def check_json_dump(src: SourceFile) -> Iterator[Finding]:
    """Every ``json.dump``/``json.dumps`` call must be NaN-safe.

    Python's ``json`` emits bare ``NaN``/``Infinity`` literals by
    default -- invalid RFC 8259 that other tools reject (the PR 3 cache
    bug class: a zero-delivery cell reports NaN latencies).  A call is
    compliant when it passes ``allow_nan=False`` (fail loudly) or
    serializes through ``json_safe``/``canonical_json`` (NaN -> null).
    """
    imports = ImportMap(src.tree)
    for node in ast.walk(src.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = imports.resolve(node.func)
        if resolved not in ("json.dump", "json.dumps"):
            continue
        safe = any(
            kw.arg == "allow_nan"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is False
            for kw in node.keywords
        )
        if not safe and node.args:
            payload = node.args[0]
            if isinstance(payload, ast.Call):
                fn = payload.func
                name = (
                    fn.attr if isinstance(fn, ast.Attribute)
                    else fn.id if isinstance(fn, ast.Name) else ""
                )
                safe = name in ("json_safe", "canonical_json")
        if not safe:
            yield src.finding(
                "JSON-001",
                node,
                f"{resolved} without allow_nan=False can emit invalid "
                "NaN/Infinity JSON; serialize via repro.runner.spec."
                "canonical_json/json_safe or pass allow_nan=False",
            )
