"""The six benchmark workloads and the two ways the harness executes them.

Every workload is a :class:`~repro.runner.SweepSpec` (built from
``--seed`` and nothing else) plus a storage mode:

* ``none`` -- ``run_sweep(spec, jobs=1)`` with no cache;
* ``cold`` -- every execution gets a fresh directory and runs with a
  result cache *and* a resume journal (all misses, all writes);
* ``warm`` -- the cache is filled once during set-up and every timed
  execution is served from it (all hits).

Untraced, a body is exactly one :func:`~repro.runner.run_sweep` call.
Traced, the harness walks ``spec.expand()`` itself and makes the same
public calls :mod:`repro.runner.jobs` and the serial engine make, with a
span around each, so the two must produce byte-equal cell results (the
``sim_digest`` check).  Either way ``net.run()`` audits the packet
conservation ledger and raises on a leak, which makes the cell a failure.
"""

from __future__ import annotations

import hashlib
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.analysis.experiments import (
    FIG6_PATTERNS,
    NETWORK_NAMES,
    build_network,
    figure6_spec,
    figure7_spec,
    pattern_destinations,
)
from repro.netsim.stats import StatsSummary
from repro.runner import (
    FaultPolicy,
    Job,
    ResultCache,
    SweepJournal,
    SweepSpec,
    canonical_json,
    run_sweep,
)
from repro.traffic import (
    HPC_WORKLOADS,
    inject_open_loop,
    ping_pong1_pairs,
    ping_pong2_pairs,
    replay_trace,
    run_ping_pong,
)
from spans import SpanRecorder

RECORD_FAILURES = FaultPolicy(on_error="record")
"""A failing cell becomes a counted failure, not an aborted benchmark."""

ELECTRICAL = ("multibutterfly", "dragonfly", "fattree", "ideal")


@dataclass
class Cell:
    """One finished grid point as the harness saw it."""

    key: str
    result: Optional[Dict[str, Any]]
    error: Optional[str] = None
    elapsed_s: float = 0.0
    cached: bool = False

    @property
    def failed(self) -> bool:
        """Not ok, or ok but nothing was delivered."""
        return self.result is None or not self.result.get("delivered")


@dataclass
class Rep:
    """One execution of a workload body."""

    wall_s: float
    cells: List[Cell] = field(default_factory=list)

    @property
    def packets(self) -> int:
        return sum(c.result["delivered"] for c in self.cells if not c.failed)

    @property
    def n_failed(self) -> int:
        return sum(c.failed for c in self.cells)

    @property
    def n_cached(self) -> int:
        return sum(c.cached for c in self.cells)

    @property
    def job_time_s(self) -> float:
        """Time the runner itself attributes to executing jobs."""
        return sum(c.elapsed_s for c in self.cells)

    def digest(self) -> str:
        """sha256 of the canonical JSON of every cell result, in order."""
        payload = [{"key": c.key, "result": c.result} for c in self.cells]
        return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


# -- untraced: one run_sweep call ------------------------------------------------


def run_untraced(
    spec: SweepSpec,
    cache_dir: Optional[Path] = None,
    journal: Optional[Path] = None,
) -> Rep:
    start = perf_counter()
    sweep = run_sweep(
        spec, jobs=1, cache_dir=cache_dir, resume=journal,
        policy=RECORD_FAILURES,
    )
    wall_s = perf_counter() - start
    return Rep(wall_s, [
        Cell(
            o.job.key, o.result if o.ok else None,
            error=None if o.ok else canonical_json(o.error),
            elapsed_s=o.elapsed_s, cached=o.cached,
        )
        for o in sweep.outcomes
    ])


# -- traced: the same public calls, one span each --------------------------------


def _run_span(net: Any, params: Mapping[str, Any]) -> str:
    """Span name of a network's run phase: the layer that does the work."""
    if params.get("shards") not in (None, 1):
        return "shard.run"
    return "core.run" if type(net).__module__.startswith("repro.core") \
        else "netsim.run"


def _summarize(rec: SpanRecorder, stats: Any) -> Dict[str, Any]:
    with rec.span("stats.summarize"):
        return dict(StatsSummary.from_stats(stats).to_dict())


def _traced_open_loop(
    rec: SpanRecorder, p: Mapping[str, Any]
) -> Dict[str, Any]:
    """Mirror of ``repro.runner.jobs._execute_open_loop`` (obs off)."""
    with rec.span("zoo.build"):
        net = build_network(p["network"], p["n_nodes"], p["seed"])
    with rec.span("traffic.inject"):
        destinations = pattern_destinations(
            p["pattern"], p["n_nodes"], p["seed"]
        )
        inject_open_loop(
            net, destinations, p["load"], p["packets_per_node"],
            seed=p["seed"],
        )
    with rec.span(_run_span(net, p)):
        stats = net.run(
            until=p["until"], shards=p.get("shards") or 1,
            shard_latency_ns=p.get("shard_latency_ns", 0.0),
        )
    return _summarize(rec, stats)


def _traced_workload(
    rec: SpanRecorder, p: Mapping[str, Any]
) -> Dict[str, Any]:
    """Mirror of ``repro.runner.jobs._execute_workload`` for the
    closed-loop kinds (ping-pong and HPC trace replay)."""
    workload, n_nodes, seed = p["workload"], p["n_nodes"], p["seed"]
    if workload in ("ping_pong1", "ping_pong2"):
        pairs_fn = (ping_pong1_pairs if workload == "ping_pong1"
                    else ping_pong2_pairs)
        with rec.span("zoo.build"):
            net = build_network(p["network"], n_nodes, seed)
        with rec.span("traffic.inject"):
            pairs = pairs_fn(n_nodes, seed)
        with rec.span(_run_span(net, p)):
            stats = run_ping_pong(
                net, pairs, rounds=p["ping_pong_rounds"], until=p["until"]
            )
    elif workload in HPC_WORKLOADS:
        with rec.span("traffic.trace_gen"):
            trace = HPC_WORKLOADS[workload](
                n_nodes, seed=seed, **dict(p.get("hpc_kwargs") or {})
            )
        with rec.span("zoo.build"):
            net = build_network(p["network"], n_nodes, seed)
        with rec.span(_run_span(net, p)):
            stats = replay_trace(net, trace, until=p["until"])
    else:
        raise ValueError(f"no traced mirror for workload {workload!r}")
    return _summarize(rec, stats)


TRACED_KINDS: Dict[
    str, Callable[[SpanRecorder, Mapping[str, Any]], Dict[str, Any]]
] = {
    "open_loop": _traced_open_loop,
    "workload": _traced_workload,
}


def run_traced(
    spec: SweepSpec,
    rec: SpanRecorder,
    cache_dir: Optional[Path] = None,
    journal: Optional[Path] = None,
) -> Rep:
    """The serial engine's loop, re-enacted from outside with spans."""
    cells: List[Cell] = []
    start = perf_counter()
    with rec.span("body"):
        with rec.span("runner.expand"):
            jobs: List[Job] = spec.expand()
        cache = ResultCache(cache_dir) if cache_dir is not None else None
        log: Optional[SweepJournal] = None
        if journal is not None:
            with rec.span("runner.journal"):
                log = SweepJournal(journal, spec)
                log.load()
                log.begin()
        try:
            for job in jobs:
                with rec.span("cell", cell=job.key):
                    cells.append(_traced_cell(rec, job, cache, log))
        finally:
            if log is not None:
                log.close()
    return Rep(perf_counter() - start, cells)


def _traced_cell(
    rec: SpanRecorder,
    job: Job,
    cache: Optional[ResultCache],
    log: Optional[SweepJournal],
) -> Cell:
    result: Optional[Dict[str, Any]] = None
    cache_key = ""
    if cache is not None:
        with rec.span("runner.cache_key"):
            cache_key = cache.job_cache_key(job)
        with rec.span("runner.cache_get"):
            result = cache.get(cache_key)
    if result is not None:
        cell = Cell(job.key, result, cached=True)
    else:
        began = perf_counter()
        try:
            result = TRACED_KINDS[job.kind](rec, job.params)
        except Exception as exc:  # a failed cell is counted, not fatal
            return Cell(job.key, None, error=f"{type(exc).__name__}: {exc}")
        cell = Cell(job.key, result, elapsed_s=perf_counter() - began)
        if cache is not None:
            with rec.span("runner.cache_put"):
                cache.put(cache_key, job, result)
    if log is not None:
        with rec.span("runner.journal"):
            log.record(job.key, result)
    return cell


# -- the workloads ------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    make_spec: Callable[[int, bool], SweepSpec]
    storage: str = "none"


def _fig6_baldur(seed: int, mini: bool) -> SweepSpec:
    return figure6_spec(
        n_nodes=64 if mini else 1024, networks=("baldur",),
        patterns=("transpose", "random_permutation"), loads=(0.7,),
        packets_per_node=5 if mini else 20, seed=seed,
    )


def _fig6_electrical(seed: int, mini: bool) -> SweepSpec:
    return figure6_spec(
        n_nodes=64 if mini else 1024, networks=ELECTRICAL,
        patterns=("transpose",), loads=(0.7,),
        packets_per_node=5 if mini else 20, seed=seed,
    )


def _fig7_closed(seed: int, mini: bool) -> SweepSpec:
    return figure7_spec(
        n_nodes=64 if mini else 1024, packets_per_node=5 if mini else 20,
        ping_pong_rounds=3 if mini else 12,
        workloads=("ping_pong1", "FB"),
        networks=("baldur", "multibutterfly", "dragonfly"), seed=seed,
    )


def _campaign(seed: int, mini: bool) -> SweepSpec:
    return figure6_spec(
        n_nodes=64, packets_per_node=5, networks=NETWORK_NAMES,
        patterns=FIG6_PATTERNS[:2] if mini else FIG6_PATTERNS,
        loads=(0.3, 0.7) if mini
        else (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
        seed=seed,
    )


def _shard_baldur(seed: int, mini: bool) -> SweepSpec:
    return figure6_spec(
        n_nodes=64 if mini else 4096, networks=("baldur",),
        patterns=("transpose",), loads=(0.7,),
        packets_per_node=5 if mini else 8, seed=seed,
        shards=2, shard_latency_ns=100.0,
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("fig6_baldur_1k", _fig6_baldur),
        Workload("fig6_electrical_1k", _fig6_electrical),
        Workload("fig7_closed_1k", _fig7_closed),
        Workload("campaign_small_cells", _campaign, storage="cold"),
        Workload("campaign_warm_cells", _campaign, storage="warm"),
        Workload("shard_baldur_4k", _shard_baldur),
    )
}


class BoundWorkload:
    """A workload bound to its generated inputs and its scratch space.

    ``rep()`` executes the body once untraced, ``rep(rec)`` once traced.
    Directory creation and removal stay outside the timed region; the
    cache fill of a ``warm`` workload happens here, i.e. during set-up.
    """

    def __init__(
        self, workload: Workload, seed: int, mini: bool, work_dir: Path
    ) -> None:
        self.storage = workload.storage
        self.spec = workload.make_spec(seed, mini)
        self.n_cells = len(self.spec.expand())
        self.work_dir = work_dir
        self._fresh = 0
        if self.storage == "warm":
            fill = run_untraced(self.spec, cache_dir=work_dir / "cache")
            if fill.n_failed or fill.n_cached:
                raise RuntimeError("cache fill did not execute every cell")

    def sizes(self) -> Dict[str, Any]:
        payload = self.spec.payload()
        return {"cells": self.n_cells, "storage": self.storage,
                "axes": payload["axes"], "fixed": payload["fixed"]}

    def rep(self, rec: Optional[SpanRecorder] = None) -> Rep:
        cache_dir: Optional[Path] = None
        journal: Optional[Path] = None
        if self.storage == "cold":
            self._fresh += 1
            scratch = self.work_dir / f"cold-{self._fresh}"
            cache_dir, journal = scratch / "cache", scratch / "journal.jsonl"
        elif self.storage == "warm":
            cache_dir = self.work_dir / "cache"
        try:
            if rec is None:
                return run_untraced(self.spec, cache_dir, journal)
            return run_traced(self.spec, rec, cache_dir, journal)
        finally:
            if self.storage == "cold":
                shutil.rmtree(scratch, ignore_errors=True)
