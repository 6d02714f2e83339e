"""Layer probes: one number per layer, measured from outside.

These run after the traced body, in every traced run, on inputs that do
not depend on which workload was asked for (only on ``--seed``), so the
same per-layer metric means the same thing in every run.  Each probe
times calls into a layer's public functions; exact counts come from the
kernel's own :class:`~repro.obs.KernelProfile`.

The anchor cell is the paper's Table V cell -- Baldur (m=4), 1,024
nodes, transpose, load 0.7 -- with the seed ``fig6_baldur_1k`` derives
for the same cell, so its drop rate is the one that workload simulates.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Any, Callable, Dict, List, Mapping, Optional

from bodies import ELECTRICAL, RECORD_FAILURES
from repro import constants
from repro.analysis.experiments import (
    FIG6_PATTERNS,
    NETWORK_NAMES,
    build_network,
    figure6_spec,
    pattern_destinations,
)
from repro.obs import MetricsRegistry, Tracer
from repro.power.sensitivity import SENSITIVITY_CASES
from repro.runner import SweepSpec, code_fingerprint, run_sweep
from repro.shard import run_sharded
from repro.sim import Environment
from repro.traffic import inject_open_loop

SRC_DIR = Path(__file__).resolve().parents[2] / "src"

TOP_CALLBACKS = (
    "BaldurNetwork._arrive_stage",
    "BaldurNetwork._deliver",
    "BaldurNetwork._inject",
    "BaldurNetwork._check_timeout",
)
"""The four hottest kernel callbacks of the anchor cell at the commit
that defined the benchmark; a fixed list, so the metric names are."""


def _nop() -> None:
    pass


def probe_sim(n_events: int) -> Dict[str, float]:
    """Raw event-kernel throughput on no-op callbacks."""
    env = Environment()
    schedule = env.schedule
    start = perf_counter()
    for i in range(n_events):
        schedule(float(i), _nop)
    schedule_s = perf_counter() - start
    start = perf_counter()
    env.run()
    dispatch_s = perf_counter() - start

    env = Environment()
    entries = [(float(i), _nop, ()) for i in range(n_events)]
    start = perf_counter()
    env.schedule_batch(entries)
    batch_s = perf_counter() - start
    env.run()
    return {
        "sim.schedule_ops_per_s": n_events / schedule_s,
        "sim.batch_schedule_ops_per_s": n_events / batch_s,
        "sim.dispatch_events_per_s": n_events / dispatch_s,
    }


class CellRun:
    """One open-loop cell executed phase by phase."""

    def __init__(
        self,
        params: Mapping[str, Any],
        observe: Optional[str] = None,
        run: Optional[Callable[[Any], Any]] = None,
    ) -> None:
        p = params
        start = perf_counter()
        net = build_network(p["network"], p["n_nodes"], p["seed"])
        self.build_s = perf_counter() - start
        self.profile = None
        if observe == "tracer":
            net.attach_tracer(Tracer())
        elif observe == "metrics":
            net.attach_metrics(MetricsRegistry())
        elif observe == "profile":
            self.profile = net.env.enable_profiling()
        inject_open_loop(
            net, pattern_destinations(p["pattern"], p["n_nodes"], p["seed"]),
            p["load"], p["packets_per_node"], seed=p["seed"],
        )
        start = perf_counter()
        self.stats = (run(net) if run is not None
                      else net.run(until=p["until"]))
        self.run_s = perf_counter() - start

    @property
    def pkts_per_s(self) -> float:
        return self.stats.delivered / self.run_s

    @property
    def events_per_pkt(self) -> float:
        return self.profile.events_dispatched / self.stats.delivered


def _anchor(seed: int, n_nodes: int, ppn: int, network: str = "baldur"):
    """Parameters of the transpose / load-0.7 cell of ``network``."""
    spec = figure6_spec(
        n_nodes=n_nodes, networks=(network,), patterns=("transpose",),
        loads=(0.7,), packets_per_node=ppn, seed=seed,
    )
    return spec.expand()[0].params


def probe_core_and_sim_counts(seed: int, n_nodes: int) -> Dict[str, float]:
    """The anchor cell: speed detached, exact counts under the profile."""
    p = _anchor(seed, n_nodes, 20)
    plain = CellRun(p)
    counted = CellRun(p, observe="profile")
    stats, profile = counted.stats, counted.profile
    callback_wall = sum(sorted(profile.wall_s.values()))
    drop_pct = 100.0 * stats.drop_rate
    out = {
        "zoo.build_s.baldur.n1024": plain.build_s,
        "core.run_pkts_per_s.n1024": plain.pkts_per_s,
        "core.drop_rate": stats.drop_rate,
        "core.retx_per_delivered": stats.retransmissions / stats.delivered,
        "core.model_drop_err_pp":
            abs(drop_pct - constants.PAPER_DROP_RATE_PCT[4]),
        "sim.events_per_delivered_pkt": counted.events_per_pkt,
        "sim.peak_heap_depth": profile.max_heap_depth,
    }
    for name in TOP_CALLBACKS:
        out[f"sim.callback_share.{name}"] = (
            profile.wall_s.get(name, 0.0) / callback_wall
        )
    out["obs.profile_overhead_x"] = counted.run_s / plain.run_s
    return out


def probe_obs(seed: int, n_nodes: int, repeats: int) -> Dict[str, float]:
    """Run-phase cost of each observer, attached over detached."""
    p = _anchor(seed, n_nodes, 20)
    modes = (None, "tracer", "metrics")
    runs: Dict[Optional[str], List[float]] = {m: [] for m in modes}
    for _ in range(repeats):
        for mode in modes:
            runs[mode].append(CellRun(p, observe=mode).run_s)
    base = median(runs[None])
    return {
        f"obs.{mode}_overhead_x": median(runs[mode]) / base
        for mode in modes if mode is not None
    }


def probe_sizes_and_shard(
    seed: int, small: int, mid: int, large: int, large_ppn: int
) -> Dict[str, float]:
    """The size cliff, and one large cell on one kernel, two worker
    processes, and two in-process shards."""
    tiny = [CellRun(_anchor(seed, small, 20)).pkts_per_s for _ in range(5)]
    p = _anchor(seed, large, large_ppn)

    def sharded(backend: str) -> Callable[[Any], Any]:
        return lambda net: run_sharded(
            net, 2, until=p["until"], shard_latency_ns=100.0,
            backend=backend,
        )

    single = CellRun(p)
    process2 = CellRun(p, run=sharded("process"))
    inline2 = CellRun(p, run=sharded("inline"))
    start = perf_counter()
    build_network("multibutterfly", mid, seed)
    mb_mid_s = perf_counter() - start
    start = perf_counter()
    build_network("multibutterfly", large, seed)
    mb_large_s = perf_counter() - start
    return {
        "core.run_pkts_per_s.n64": median(tiny),
        "core.run_pkts_per_s.n4096": single.pkts_per_s,
        "zoo.build_s.baldur.n4096": single.build_s,
        "zoo.build_s.multibutterfly.n1024": mb_mid_s,
        "zoo.build_s.multibutterfly.n4096": mb_large_s,
        "shard.run_s.single": single.run_s,
        "shard.run_s.process2": process2.run_s,
        "shard.run_s.inline2": inline2.run_s,
        "shard.speedup_vs_single": single.run_s / process2.run_s,
        "shard.window_overhead_x": inline2.run_s / single.run_s,
        "shard.ipc_overhead_s": (process2.run_s - inline2.run_s / 2.0),
    }


def probe_netsim(seed: int, n_nodes: int, ppn: int) -> Dict[str, float]:
    """Each buffered electrical simulator on its own transpose cell."""
    out: Dict[str, float] = {}
    for network in ELECTRICAL:
        p = _anchor(seed, n_nodes, ppn, network)
        out[f"netsim.run_s.{network}"] = CellRun(p).run_s
        out[f"netsim.events_per_delivered_pkt.{network}"] = (
            CellRun(p, observe="profile").events_per_pkt
        )
    return out


def _ms_per_job(spec: SweepSpec, **kwargs: Any) -> float:
    start = perf_counter()
    sweep = run_sweep(spec, policy=RECORD_FAILURES, **kwargs)
    wall_s = perf_counter() - start
    if not sweep.ok:
        raise RuntimeError(f"probe sweep failed: {sweep.failures()[0].error}")
    return 1e3 * wall_s / len(sweep.outcomes)


def probe_runner(
    seed: int, work_dir: Path, n_scales: int, loads: tuple
) -> Dict[str, float]:
    """Runner cost per job against a no-op job kind (Fig. 9 sensitivity
    cells, ~0.1 ms each), and the pool against serial on real cells."""
    grids = [
        figure6_spec(n_nodes=64, packets_per_node=5, networks=NETWORK_NAMES,
                     patterns=FIG6_PATTERNS, seed=seed + i,
                     loads=tuple(k / 10 for k in range(1, 10)))
        for i in range(4)
    ]
    start = perf_counter()
    for spec in grids:
        spec.expand()
    expand_s = perf_counter() - start

    fingerprints = []
    for _ in range(10):
        start = perf_counter()
        code_fingerprint()
        fingerprints.append(1e3 * (perf_counter() - start))

    noop = SweepSpec(
        kind="sensitivity",
        axes={"case": tuple(SENSITIVITY_CASES),
              "scale": tuple(2 ** k for k in range(4, 4 + n_scales)),
              "replica": (0, 1)},
        root_seed=seed,
    )
    cache, journal = work_dir / "noop-cache", work_dir / "noop.jsonl"
    out = {
        "runner.expand_s": expand_s,
        "runner.fingerprint_ms": median(fingerprints),
        "runner.noop_ms_per_job.serial": _ms_per_job(noop, jobs=1),
        "runner.noop_ms_per_job.cache_journal":
            _ms_per_job(noop, jobs=1, cache_dir=cache, resume=journal),
        "runner.noop_ms_per_job.cache_hit":
            _ms_per_job(noop, jobs=1, cache_dir=cache),
        "runner.noop_ms_per_job.resume":
            _ms_per_job(noop, jobs=1, resume=journal),
        "runner.noop_ms_per_job.pool2": _ms_per_job(noop, jobs=2),
    }

    cells = figure6_spec(
        n_nodes=64, packets_per_node=5, networks=NETWORK_NAMES,
        patterns=FIG6_PATTERNS, loads=loads, seed=seed,
    )
    start = perf_counter()
    serial = run_sweep(cells, jobs=1, policy=RECORD_FAILURES)
    serial_s = perf_counter() - start
    start = perf_counter()
    pooled = run_sweep(cells, jobs=2, policy=RECORD_FAILURES)
    pooled_s = perf_counter() - start
    if serial.to_json() != pooled.to_json():
        raise RuntimeError("jobs=2 and jobs=1 disagree")
    out["runner.pool_speedup"] = serial_s / pooled_s
    # What a pool worker sends back for one job: (result, wall time).
    out["runner.result_pickle_bytes_per_job"] = sum(
        len(pickle.dumps((o.result, 0.0))) for o in serial.outcomes
    ) / len(serial.outcomes)
    return out


def probe_cli(repeats: int) -> Dict[str, float]:
    """Cold start of the CLI and of ``import repro`` in a fresh process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR)

    def cold(*args: str) -> float:
        samples = []
        for _ in range(repeats):
            start = perf_counter()
            subprocess.run(
                [sys.executable, *args], env=env, check=True,
                stdout=subprocess.DEVNULL, timeout=60,
            )
            samples.append(perf_counter() - start)
        return median(samples)

    return {
        "cli.cold_start_s": cold("-m", "repro.cli", "--help"),
        "cli.import_s": cold("-c", "import repro"),
    }


def run_probes(seed: int, mini: bool, work_dir: Path) -> Dict[str, float]:
    """Every probe metric.  ``mini`` shrinks the inputs for the self-test
    (the metric names keep their paper-scale labels)."""
    out: Dict[str, float] = {}
    if mini:
        out.update(probe_sim(5_000))
        out.update(probe_core_and_sim_counts(seed, 64))
        out.update(probe_obs(seed, 32, 1))
        out.update(probe_sizes_and_shard(seed, 16, 32, 64, 4))
        out.update(probe_netsim(seed, 64, 2))
        out.update(probe_runner(seed, work_dir, 2, (0.5,)))
        out.update(probe_cli(1))
    else:
        out.update(probe_sim(200_000))
        out.update(probe_core_and_sim_counts(seed, 1024))
        out.update(probe_obs(seed, 256, 2))
        out.update(probe_sizes_and_shard(seed, 64, 1024, 4096, 3))
        out.update(probe_netsim(seed, 1024, 5))
        out.update(probe_runner(seed, work_dir, 20, (0.3, 0.6, 0.9)))
        out.update(probe_cli(3))
    return out
