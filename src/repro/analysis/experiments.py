"""High-level experiment drivers that regenerate the paper's evaluation.

Each function reproduces one table or figure at a configurable scale.  The
paper's configuration is 1,024 nodes with 10,000 packets per node; pure-
Python packet simulation at that volume takes hours, so the defaults here
are scaled down (the latency/drop *shape* is stable well below the paper's
packet budget -- the benches print both the configuration used and the
paper's reference values).  Set ``n_nodes=1024, packets_per_node=10_000``
to run the full-paper configuration.

The figure/table drivers are thin layers over :mod:`repro.runner`: each
builds a declarative :class:`~repro.runner.SweepSpec` (``figure6_spec``
and friends, also used by the CLI and benches), runs it -- optionally in
parallel and against the on-disk result cache -- and reshapes the flat
job results into the nested structure the tables and plots consume.
Cell RNG seeds are derived per job from the root ``seed`` and the cell's
grid coordinates, so results are independent of worker count and of
which other cells run alongside.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro import constants as C
from repro.errors import ConfigurationError
from repro.netsim.stats import LatencyStats, StatsSummary
from repro.traffic import (
    bisection,
    group_permutation,
    hotspot,
    inject_open_loop,
    random_permutation,
    transpose,
)

__all__ = [
    "build_network",
    "NETWORK_NAMES",
    "FIG7_WORKLOADS",
    "pattern_destinations",
    "run_open_loop",
    "figure6",
    "figure6_spec",
    "reshape_figure6",
    "figure7",
    "figure7_spec",
    "figure7_ratios",
    "reshape_figure7",
    "table5",
    "table5_spec",
    "reshape_table5",
    "figure9_spec",
]

NETWORK_NAMES = ("baldur", "multibutterfly", "dragonfly", "fattree", "ideal")
"""The five networks compared throughout Sec. V."""

DEFAULT_UNTIL_NS = 50_000_000.0
"""Simulation horizon: saturated networks report the latency of whatever
they managed to deliver by this time, as in any fixed-horizon replay."""


def build_network(name: str, n_nodes: int, seed: int = 0):
    """Construct a Sec. V network by name.

    One hop to the :mod:`repro.zoo` table, whose builders construct the
    Table VI configurations -- pinned byte-identical by the goldens and
    the table↔hand-wired suite in ``tests/test_zoo.py``.
    """
    # Lazy import: the zoo pulls in every simulator package, and most
    # analysis imports (power tables, plotting) never build a network.
    from repro.zoo import build_network as zoo_build

    return zoo_build(name, n_nodes, seed=seed)


def pattern_destinations(pattern: str, n_nodes: int, seed: int = 0) -> Dict[int, int]:
    """Destination map for an open-loop pattern name."""
    if pattern == "random_permutation":
        return random_permutation(n_nodes, seed)
    if pattern == "transpose":
        return transpose(n_nodes)
    if pattern == "bisection":
        return bisection(n_nodes, seed)
    if pattern == "group_permutation":
        return group_permutation(n_nodes, seed)
    if pattern == "hotspot":
        return hotspot(n_nodes)
    raise ConfigurationError(f"unknown open-loop pattern {pattern!r}")


def run_open_loop(
    network_name: str,
    n_nodes: int,
    pattern: str,
    load: float,
    packets_per_node: int,
    seed: int = 0,
    until: float = DEFAULT_UNTIL_NS,
    tracer=None,
    metrics=None,
    shards: Optional[int] = None,
    shard_latency_ns: float = 0.0,
) -> LatencyStats:
    """One open-loop experiment cell (one point of Fig. 6).

    ``tracer``/``metrics`` optionally attach observability
    (:mod:`repro.obs`) before injection; both are passive and leave the
    returned stats byte-identical to an unobserved run.

    ``shards`` > 1 runs the cell on the sharded engine
    (:mod:`repro.shard`); ``shard_latency_ns`` is the extra inter-shard
    fiber delay added on cut links (DESIGN.md section 14).
    """
    net = build_network(network_name, n_nodes, seed)
    if tracer is not None:
        net.attach_tracer(tracer)
    if metrics is not None:
        net.attach_metrics(metrics)
    destinations = pattern_destinations(pattern, n_nodes, seed)
    inject_open_loop(net, destinations, load, packets_per_node, seed=seed)
    return net.run(until=until, shards=shards or 1,
                   shard_latency_ns=shard_latency_ns)


FIG7_WORKLOADS = (
    "hotspot", "ping_pong1", "ping_pong2",
    "AMG", "CrystalRouter", "MultiGrid", "FB",
)
"""Fig. 7 column order: synthetic patterns then the four HPC traces."""

FIG6_PATTERNS = (
    "random_permutation",
    "transpose",
    "bisection",
    "group_permutation",
)
"""Fig. 6 row order: the paper's four open-loop patterns."""


def figure6_spec(
    n_nodes: int = 128,
    loads: Iterable[float] = (0.1, 0.4, 0.7, 0.9),
    patterns: Iterable[str] = FIG6_PATTERNS,
    packets_per_node: int = 20,
    networks: Iterable[str] = NETWORK_NAMES,
    seed: int = 0,
    until: float = DEFAULT_UNTIL_NS,
    obs: Optional[Dict] = None,
    shards: Optional[int] = None,
    shard_latency_ns: float = 0.0,
):
    """The Fig. 6 grid as a declarative sweep spec.

    ``obs`` optionally enables per-cell observability (e.g. ``{"trace":
    True, "metrics": True}``, see :mod:`repro.runner.jobs`).  It is only
    added to the spec when set, so default specs -- and therefore job
    keys, cache entries, and golden results files -- are unchanged.
    ``shards`` follows the same rule: when set, every cell runs on the
    sharded engine (:mod:`repro.shard`) with that worker count.
    """
    from repro.runner import SweepSpec

    fixed = {
        "n_nodes": n_nodes,
        "packets_per_node": packets_per_node,
        "until": until,
    }
    if obs is not None:
        fixed["obs"] = dict(obs)
    if shards is not None:
        fixed["shards"] = shards
        fixed["shard_latency_ns"] = shard_latency_ns
    return SweepSpec(
        kind="open_loop",
        axes={
            "pattern": tuple(patterns),
            "network": tuple(networks),
            "load": tuple(loads),
        },
        fixed=fixed,
        root_seed=seed,
    )


def reshape_figure6(sweep) -> Dict[str, Dict[str, Dict[float, StatsSummary]]]:
    """``result[pattern][network][load] -> StatsSummary``."""
    return sweep.index(
        "pattern", "network", "load", value=StatsSummary.from_dict
    )


def figure6(
    n_nodes: int = 128,
    loads: Iterable[float] = (0.1, 0.4, 0.7, 0.9),
    patterns: Iterable[str] = FIG6_PATTERNS,
    packets_per_node: int = 20,
    networks: Iterable[str] = NETWORK_NAMES,
    seed: int = 0,
    until: float = DEFAULT_UNTIL_NS,
    jobs: Optional[int] = None,
    cache_dir=None,
    use_cache: bool = True,
    progress=None,
) -> Dict[str, Dict[str, Dict[float, StatsSummary]]]:
    """Fig. 6: average/tail latency vs. input load, per pattern x network.

    Returns ``result[pattern][network][load] -> StatsSummary``.  ``jobs``
    parallelizes the grid across worker processes; ``cache_dir`` reuses
    completed cells from the on-disk result cache.
    """
    from repro.runner import run_sweep

    sweep = run_sweep(
        figure6_spec(n_nodes, loads, patterns, packets_per_node,
                     networks, seed, until),
        jobs=jobs, cache_dir=cache_dir, use_cache=use_cache,
        progress=progress,
    )
    return reshape_figure6(sweep)


def figure7_spec(
    n_nodes: int = 128,
    packets_per_node: int = 20,
    ping_pong_rounds: int = 10,
    networks: Iterable[str] = NETWORK_NAMES,
    workloads: Iterable[str] = FIG7_WORKLOADS,
    seed: int = 0,
    until: float = DEFAULT_UNTIL_NS,
    hpc_kwargs: Optional[Dict[str, dict]] = None,
):
    """The Fig. 7 grid as a declarative sweep spec."""
    from repro.runner import SweepSpec

    return SweepSpec(
        kind="workload",
        axes={
            "workload": tuple(workloads),
            "network": tuple(networks),
        },
        fixed={
            "n_nodes": n_nodes,
            "packets_per_node": packets_per_node,
            "ping_pong_rounds": ping_pong_rounds,
            "until": until,
            "hpc_kwargs": hpc_kwargs or {},
        },
        root_seed=seed,
    )


def reshape_figure7(sweep) -> Dict[str, Dict[str, StatsSummary]]:
    """``result[workload][network] -> StatsSummary``."""
    return sweep.index("workload", "network", value=StatsSummary.from_dict)


def figure7_ratios(
    results: Dict[str, Dict[str, StatsSummary]],
    networks: Iterable[str] = NETWORK_NAMES,
    baseline: str = "baldur",
) -> Dict[str, Dict[str, float]]:
    """Average-latency ratios normalized to ``baseline``, skipping bad cells.

    A cell with no deliveries reports NaN average latency (e.g. a
    saturated electrical network at a short horizon); its ratio is
    meaningless, so such cells are *omitted* -- with a
    :class:`RuntimeWarning` naming them -- rather than propagated into
    tables and geomeans.  Cells absent from ``results`` entirely (a
    partial sweep where the job failed, timed out, or was quarantined)
    are treated the same way.  A workload whose baseline cell is
    unusable is dropped entirely.  Returns ``{workload: {network:
    ratio}}`` with ``ratio == 1.0`` for the baseline.
    """
    import math
    import warnings

    ratios: Dict[str, Dict[str, float]] = {}
    for workload, per_net in results.items():
        base_stats = per_net.get(baseline)
        base = (base_stats.average_latency if base_stats is not None
                else float("nan"))
        if not math.isfinite(base) or base <= 0:
            warnings.warn(
                f"fig7: skipping workload {workload!r}: {baseline} "
                f"average latency is {base} (no deliveries?)",
                RuntimeWarning,
                stacklevel=2,
            )
            continue
        row: Dict[str, float] = {}
        for name in networks:
            stats = per_net.get(name)
            avg = (stats.average_latency if stats is not None
                   else float("nan"))
            if not math.isfinite(avg) or avg <= 0:
                warnings.warn(
                    f"fig7: skipping cell ({workload!r}, {name!r}): "
                    f"average latency is {avg} (no deliveries?)",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            row[name] = avg / base
        ratios[workload] = row
    return ratios


def figure7(
    n_nodes: int = 128,
    packets_per_node: int = 20,
    ping_pong_rounds: int = 10,
    networks: Iterable[str] = NETWORK_NAMES,
    seed: int = 0,
    until: float = DEFAULT_UNTIL_NS,
    hpc_kwargs: Optional[Dict[str, dict]] = None,
    jobs: Optional[int] = None,
    cache_dir=None,
    use_cache: bool = True,
    progress=None,
) -> Dict[str, Dict[str, StatsSummary]]:
    """Fig. 7: hotspot, ping_pong1/2, and the four HPC workloads.

    Returns ``result[workload][network] -> StatsSummary``.  Normalize
    against the 'ideal' column to obtain the paper's normalized plots.
    """
    from repro.runner import run_sweep

    sweep = run_sweep(
        figure7_spec(n_nodes, packets_per_node, ping_pong_rounds,
                     networks, FIG7_WORKLOADS, seed, until, hpc_kwargs),
        jobs=jobs, cache_dir=cache_dir, use_cache=use_cache,
        progress=progress,
    )
    return reshape_figure7(sweep)


def table5_spec(
    n_nodes: int = 256,
    multiplicities: Iterable[int] = (1, 2, 3, 4, 5),
    load: float = C.HEAVY_INPUT_LOAD,
    packets_per_node: int = 30,
    seed: int = 0,
    until: float = DEFAULT_UNTIL_NS,
    shards: Optional[int] = None,
    shard_latency_ns: float = 0.0,
):
    """The Table V multiplicity sweep as a declarative spec.

    ``shards`` is only added to the spec when set (see
    :func:`figure6_spec`), keeping default job keys and goldens stable.
    """
    from repro.runner import SweepSpec

    fixed = {
        "n_nodes": n_nodes,
        "load": load,
        "packets_per_node": packets_per_node,
        "until": until,
    }
    if shards is not None:
        fixed["shards"] = shards
        fixed["shard_latency_ns"] = shard_latency_ns
    return SweepSpec(
        kind="table5",
        axes={"multiplicity": tuple(multiplicities)},
        fixed=fixed,
        root_seed=seed,
    )


def reshape_table5(sweep) -> List[dict]:
    """Table V rows in multiplicity order."""
    return sweep.results()


def table5(
    n_nodes: int = 256,
    multiplicities: Iterable[int] = (1, 2, 3, 4, 5),
    load: float = C.HEAVY_INPUT_LOAD,
    packets_per_node: int = 30,
    seed: int = 0,
    until: float = DEFAULT_UNTIL_NS,
    jobs: Optional[int] = None,
    cache_dir=None,
    use_cache: bool = True,
    progress=None,
) -> List[dict]:
    """Table V: gates / switch latency / drop rate per multiplicity.

    Drop rates come from the detailed simulator under the transpose
    pattern at the given load, matching the Table V methodology.
    """
    from repro.runner import run_sweep

    sweep = run_sweep(
        table5_spec(n_nodes, multiplicities, load, packets_per_node,
                    seed, until),
        jobs=jobs, cache_dir=cache_dir, use_cache=use_cache,
        progress=progress,
    )
    return reshape_table5(sweep)


def figure9_spec(scale: int = 2**20, cases: Optional[Iterable[str]] = None):
    """The Fig. 9 switch-power sensitivity sweep as a declarative spec."""
    from repro.power.sensitivity import SENSITIVITY_CASES
    from repro.runner import SweepSpec

    return SweepSpec(
        kind="sensitivity",
        axes={"case": tuple(cases if cases is not None else SENSITIVITY_CASES)},
        fixed={"scale": scale},
    )
