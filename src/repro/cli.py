"""Command-line interface: regenerate any paper experiment from a shell.

Usage::

    python -m repro.cli table4
    python -m repro.cli table5 --nodes 256 --packets 30
    python -m repro.cli fig6 --nodes 128 --loads 0.3 0.7 0.9
    python -m repro.cli fig7 --nodes 128
    python -m repro.cli fig8
    python -m repro.cli fig9
    python -m repro.cli fig10
    python -m repro.cli drop-model --nodes 1024
    python -m repro.cli packaging
    python -m repro.cli awgr
    python -m repro.cli diagnose --nodes 64 --stage 2 --switch 13
    python -m repro.cli resilience --nodes 64 --packets 20
    python -m repro.cli trace --network baldur --nodes 64 --load 0.9
    python -m repro.cli zoo --list
    python -m repro.cli zoo --nodes 64 --networks baldur ideal

Sweep-backed commands (``table5``, ``fig6``, ``fig7``, ``fig9``,
``resilience``, ``zoo``) additionally accept:

* ``--jobs N``       -- run grid cells on N worker processes (default
  ``$REPRO_JOBS`` or 1); results are bit-identical to ``--jobs 1``;
* ``--cache-dir D``  -- reuse completed cells from the on-disk result
  cache under D (a warm rerun executes zero simulations);
* ``--no-cache``     -- ignore any cache and recompute everything;
* ``--out F``        -- also write the canonical results JSON to F;
* ``--progress``     -- stream per-job timing lines to stderr;
* ``--timeout S``    -- cancel any single cell still running after S
  seconds (reported as ``timeout``, other cells unaffected);
* ``--deadline S``   -- sweep-level wall-clock budget;
* ``--retries N``    -- retry failing cells up to N times (deterministic
  exponential backoff) before quarantining them;
* ``--resume [F]``   -- checkpoint completions to journal F (default
  ``repro-<command>.journal.jsonl``) and skip jobs already recorded
  there, so an interrupted campaign continues byte-identically.

``table5`` and ``zoo`` also accept:

* ``--shards N``     -- run each cell on the sharded multi-core engine
  with N worker kernels (see DESIGN.md section 14).  ``--shard-latency
  NS`` adds an inter-shard fiber delay on cut links to widen the
  lookahead window.  Only Baldur cells can shard; every other network
  refuses, so ``zoo --shards`` wants ``--networks baldur``.

Sweep commands run in record mode: a failing cell is reported on stderr
instead of aborting the grid, and the exit code is the partial-failure
contract -- 0 every cell ok, 1 some cells failed, 2 no cell produced a
result.  A configuration error (unknown network, out-of-range argument)
prints one ``error:`` line and exits 2.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.tables import format_latency_grid, format_table
from repro.errors import ConfigurationError

__all__ = ["main", "build_parser"]


def _progress_printer(event: dict) -> None:
    if "event" in event:
        # Structured engine event (serial fallback, retry, pool rebuild).
        detail = ", ".join(
            f"{k}={v}" for k, v in sorted(event.items()) if k != "event"
        )
        print(f"[engine] {event['event']}: {detail}", file=sys.stderr)
        return
    if event.get("status") not in (None, "ok"):
        status = event["status"]
    elif event["cached"]:
        status = "cached"
    else:
        status = f"{event['elapsed_s']:.2f}s"
    print(
        f"[{event['index'] + 1}/{event['total']}] {event['key']} ({status})",
        file=sys.stderr,
    )


def _sweep_kwargs(args) -> dict:
    """run_sweep keyword payload from the shared sweep CLI flags."""
    from repro.runner import FaultPolicy

    resume = args.resume
    if resume == "auto":
        resume = f"repro-{args.command}.journal.jsonl"
    return dict(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        progress=_progress_printer if args.progress else None,
        # Record mode: one poisoned cell yields a partial table and exit
        # code 1, never a lost grid (see DESIGN.md section 12).
        policy=FaultPolicy(
            job_timeout_s=args.timeout,
            deadline_s=args.deadline,
            max_attempts=1 + args.retries,
            on_error="record",
        ),
        resume=resume,
    )


def _finish_sweep(args, sweep) -> int:
    """Write ``--out``, print the execution report, return the exit code.

    Exit-code contract: 0 = every cell produced a result, 1 = partial
    failure (some cells failed/timed out/quarantined), 2 = total failure
    (no cell produced a result).
    """
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(sweep.to_json())
    for outcome in sweep.failures():
        error = outcome.error or {}
        print(
            f"# FAILED {outcome.job.key}: {outcome.status} "
            f"({error.get('type')}: {error.get('message')}; "
            f"attempts={error.get('attempts')})",
            file=sys.stderr,
        )
    print(f"# sweep: {sweep.report.describe()}")
    if sweep.ok:
        return 0
    return 1 if any(outcome.ok for outcome in sweep.outcomes) else 2


def _cmd_table4(args) -> None:
    from repro.tl.device import characterize_gate

    chars = characterize_gate()
    rows = [
        ["area (um^2)", 25.0, chars.area_um2],
        ["rise/fall (ps)", 7.3, chars.rise_fall_time_ps],
        ["delay (ps)", 1.93, chars.delay_ps],
        ["power (mW)", 0.406, chars.power_mw],
        ["data rate (Gbps)", 60.0, chars.data_rate_gbps],
    ]
    print(format_table(["metric", "paper", "measured"], rows,
                       title="Table IV -- TL gate characteristics"))


def _cmd_table5(args) -> None:
    from repro.analysis.experiments import reshape_table5, table5_spec
    from repro.runner import run_sweep

    sweep = run_sweep(
        table5_spec(n_nodes=args.nodes, packets_per_node=args.packets,
                    seed=args.seed, shards=args.shards,
                    shard_latency_ns=args.shard_latency),
        **_sweep_kwargs(args),
    )
    rows = reshape_table5(sweep)
    print(format_table(
        ["m", "gates", "latency_ns", "drop_%", "paper_drop_%"],
        [
            [r["multiplicity"], r["gates_per_switch"],
             r["switch_latency_ns"], r["drop_rate_pct"],
             r["paper_drop_rate_pct"]]
            for r in rows
        ],
        title=f"Table V -- multiplicity sweep ({args.nodes} nodes)",
    ))
    return _finish_sweep(args, sweep)


def _cmd_fig6(args) -> None:
    from repro.analysis.experiments import figure6_spec, reshape_figure6
    from repro.analysis.plotting import ascii_plot
    from repro.runner import run_sweep

    sweep = run_sweep(
        figure6_spec(
            n_nodes=args.nodes,
            loads=tuple(args.loads),
            packets_per_node=args.packets,
            seed=args.seed,
        ),
        **_sweep_kwargs(args),
    )
    results = reshape_figure6(sweep)
    for pattern, grid in results.items():
        print(format_latency_grid(
            grid, metric="average_latency",
            title=f"[{pattern}] average latency (ns)"))
        if len(args.loads) > 1:
            series = {
                network: {
                    load: stats.average_latency
                    for load, stats in per_load.items()
                }
                for network, per_load in grid.items()
            }
            print()
            print(ascii_plot(
                series, logy=True, xlabel="input load",
                ylabel="avg latency (ns)",
            ))
        print()
    return _finish_sweep(args, sweep)


def _cmd_fig7(args) -> None:
    from repro.analysis.experiments import (
        NETWORK_NAMES,
        figure7_ratios,
        figure7_spec,
        reshape_figure7,
    )
    from repro.runner import run_sweep

    sweep = run_sweep(
        figure7_spec(n_nodes=args.nodes, packets_per_node=args.packets,
                     seed=args.seed),
        **_sweep_kwargs(args),
    )
    results = reshape_figure7(sweep)
    # Cells without deliveries have no meaningful ratio; figure7_ratios
    # omits them (with a warning) and the table shows them as "-".
    ratios = figure7_ratios(results)
    nan = float("nan")
    rows = [
        [workload, *(
            ratios.get(workload, {}).get(name, nan)
            for name in NETWORK_NAMES
        )]
        for workload in results
    ]
    print(format_table(
        ["workload", *NETWORK_NAMES], rows,
        title=f"Fig. 7 -- avg latency normalized to Baldur "
        f"({args.nodes} nodes)",
    ))
    return _finish_sweep(args, sweep)


def _cmd_fig8(args) -> None:
    from repro.power.network_power import FIG8_SCALES, power_scaling_sweep

    sweep = power_scaling_sweep(list(FIG8_SCALES))
    networks = list(sweep)
    rows = [
        [f"{scale:,}", *(sweep[name][i].total for name in networks)]
        for i, scale in enumerate(FIG8_SCALES)
    ]
    print(format_table(["scale", *networks], rows,
                       title="Fig. 8 -- power per server node (W)"))


def _cmd_fig9(args) -> None:
    from repro.analysis.experiments import figure9_spec
    from repro.runner import run_sweep

    sweep = run_sweep(figure9_spec(), **_sweep_kwargs(args))
    per_case = sweep.index("case")
    networks = ("dragonfly", "fattree", "multibutterfly")
    rows = [
        [case, *(ratios[n] for n in networks)]
        for case, ratios in per_case.items()
    ]
    print(format_table(["case", *networks], rows,
                       title="Fig. 9 -- Baldur advantage (1M scale)"))
    return _finish_sweep(args, sweep)


def _cmd_fig10(args) -> None:
    from repro.cost.model import baldur_cost

    rows = []
    for n in (1024, 4096, 16384, 65536, 262144, 1048576):
        cost = baldur_cost(n)
        rows.append([f"{n:,}", cost.interposers, cost.total])
    print(format_table(["scale", "interposer_$", "total_$"], rows,
                       title="Fig. 10 -- Baldur cost per node (USD)"))


def _cmd_drop_model(args) -> None:
    from repro.core.drop_model import one_shot_drop_rate

    rows = [
        [m, 100 * one_shot_drop_rate(args.nodes, m, seed=args.seed,
                                     trials=args.trials)]
        for m in (1, 2, 3, 4, 5)
    ]
    print(format_table(
        ["multiplicity", "drop_%"], rows,
        title=f"Sec. IV-E -- worst-case drop rate ({args.nodes} nodes)",
    ))


def _cmd_packaging(args) -> None:
    from repro.cost.packaging import plan_packaging

    rows = []
    for n in (1024, 16384, 262144, 1048576):
        plan = plan_packaging(n)
        rows.append([f"{n:,}", plan.multiplicity, plan.total_interposers,
                     plan.cabinets, plan.cabinets_power_limited])
    print(format_table(
        ["scale", "m", "interposers", "cabinets", "power-only"], rows,
        title="Sec. IV-G -- packaging",
    ))


def _cmd_awgr(args) -> None:
    from repro.power.awgr import awgr_comparison

    report = awgr_comparison()
    rows = [[k, v] for k, v in report.items()]
    print(format_table(["metric", "value"], rows,
                       title="Sec. VII -- Baldur vs AWGR at 32 nodes"))


def _cmd_diagnose(args) -> None:
    from repro.core.diagnosis import run_diagnosis

    report = run_diagnosis(
        args.nodes, (args.stage, args.switch),
        n_probes=args.probes, seed=args.seed,
    )
    rows = [[k, str(v)] for k, v in report.items()]
    print(format_table(["field", "value"], rows,
                       title="Sec. IV-F -- fault diagnosis"))


def _cmd_resilience(args) -> None:
    from repro.analysis.resilience import (
        degraded_mode_comparison,
        resilience_spec,
    )
    from repro.faults import ChaosSchedule
    from repro.runner import run_sweep

    chaos = None
    if args.mtbf > 0:
        chaos = ChaosSchedule(
            mtbf_ns=args.mtbf,
            mttr_ns=args.mttr,
            horizon_ns=args.until,
            seed=args.seed,
        )
    sweep = run_sweep(
        resilience_spec(
            n_nodes=args.nodes,
            failure_counts=tuple(args.failures),
            load=args.load,
            packets_per_node=args.packets,
            seed=args.seed,
            until=args.until,
            chaos=chaos,
        ),
        **_sweep_kwargs(args),
    )
    rows = sweep.results()
    print(format_table(
        ["network", "k", "delivered", "drop_%", "given_up",
         "fault_drops", "avg_ns", "balance"],
        [
            [r["network"], r["k_failed"],
             f"{r['delivered']}/{r['injected']}",
             100 * r["drop_rate"], r["given_up"], r["fault_drops"],
             r["avg_latency_ns"], r["balance"]]
            for r in rows
        ],
        title=f"Resilience sweep ({args.nodes} nodes, load {args.load}"
        + (", chaos" if chaos else ", permanent fail-stop") + ")",
    ))
    print()

    cmp = degraded_mode_comparison(
        n_nodes=args.nodes,
        load=args.load,
        packets_per_node=args.packets,
        seed=args.seed,
        until=args.until,
    )
    fault = cmp["fault"]
    print(format_table(
        ["mode", "drop_%", "retransmissions", "given_up", "avg_ns",
         "tail_ns"],
        [
            [mode, 100 * row["drop_rate"], row["retransmissions"],
             row["given_up"], row["avg_latency_ns"],
             row["tail_latency_ns"]]
            for mode, row in (("unmasked", cmp["unmasked"]),
                              ("masked", cmp["masked"]))
        ],
        title=f"Degraded mode -- faulty switch (stage {fault['stage']}, "
        f"switch {fault['switch']})",
    ))
    return _finish_sweep(args, sweep)


def _cmd_zoo(args) -> int:
    """Architecture-zoo comparison sweep (or ``--list`` the table)."""
    if args.list:
        from repro.zoo import ARCHITECTURES

        for name, builder in ARCHITECTURES.items():
            print(f"{name}: {' '.join((builder.__doc__ or '').split())}")
        return 0

    from repro.analysis.experiments import figure6_spec, reshape_figure6
    from repro.runner import run_sweep
    from repro.zoo import ARCHITECTURES

    sweep = run_sweep(
        figure6_spec(
            n_nodes=args.nodes,
            loads=tuple(args.loads),
            patterns=(args.pattern,),
            packets_per_node=args.packets,
            networks=tuple(args.networks or ARCHITECTURES),
            seed=args.seed,
            shards=args.shards,
            shard_latency_ns=args.shard_latency,
        ),
        **_sweep_kwargs(args),
    )
    grid = reshape_figure6(sweep).get(args.pattern, {})
    print(format_latency_grid(
        grid, metric="average_latency",
        title=f"Architecture zoo -- average latency (ns), "
        f"{args.nodes} nodes, {args.pattern}"))
    print()
    print(format_latency_grid(
        grid, metric="tail_latency",
        title="Architecture zoo -- p99 latency (ns)"))
    return _finish_sweep(args, sweep)


def _cmd_trace(args) -> int:
    """Run one observed open-loop experiment and replay a flow's timeline."""
    from repro.analysis.experiments import (
        build_network,
        pattern_destinations,
    )
    from repro.obs import MetricsRegistry, Tracer, format_timeline
    from repro.traffic import inject_open_loop

    net = build_network(args.network, args.nodes, args.seed)
    tracer = Tracer(capacity=args.capacity)
    net.attach_tracer(tracer)
    metrics = None
    if args.metrics_out:
        metrics = MetricsRegistry(window_ns=args.window)
        net.attach_metrics(metrics)
    destinations = pattern_destinations(args.pattern, args.nodes, args.seed)
    inject_open_loop(net, destinations, args.load, args.packets,
                     seed=args.seed)
    net.run(until=args.until)

    pid = args.pid
    if pid is None:
        pid = tracer.pick_flow(src=args.src, dst=args.dst)
    flow = tracer.flow(pid) if pid is not None else []
    if not flow:
        print(f"# {tracer.describe()}")
        print(f"no trace events match the requested flow (pid={args.pid}, "
              f"src={args.src}, dst={args.dst})")
        return 1
    print(f"# {args.network}, {args.nodes} nodes, pattern "
          f"{args.pattern}, load {args.load} -- flow pid={pid}")
    for line in format_timeline(flow):
        print(line)
    print()
    print(f"# {tracer.describe()}")
    if metrics is not None:
        print(f"# {metrics.describe()}")
    if args.out:
        n = tracer.to_jsonl(args.out)
        print(f"# wrote {n} trace events to {args.out}")
    if args.metrics_out:
        n = metrics.to_jsonl(args.metrics_out)
        print(f"# wrote {n} metric samples to {args.metrics_out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate experiments from the Baldur paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, sweep=False, shardable=False, **extra):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        p.add_argument("--seed", type=int, default=0)
        if sweep:
            p.add_argument(
                "--jobs", type=int, default=None,
                help="worker processes (default: $REPRO_JOBS or 1)")
            p.add_argument(
                "--cache-dir", default=None,
                help="reuse completed cells from this result cache")
            p.add_argument(
                "--no-cache", action="store_true",
                help="ignore any cache and recompute every cell")
            p.add_argument(
                "--out", default=None,
                help="write canonical results JSON to this file")
            p.add_argument(
                "--progress", action="store_true",
                help="stream per-job timing lines to stderr")
            p.add_argument(
                "--timeout", type=float, default=None, metavar="S",
                help="cancel any cell still running after S seconds "
                     "(reported as 'timeout'; other cells unaffected)")
            p.add_argument(
                "--deadline", type=float, default=None, metavar="S",
                help="sweep-level wall-clock budget in seconds")
            p.add_argument(
                "--retries", type=int, default=0, metavar="N",
                help="retry a failing cell up to N times (deterministic "
                     "exponential backoff) before quarantining it")
            p.add_argument(
                "--resume", nargs="?", const="auto", default=None,
                metavar="F",
                help="checkpoint completions to journal F (default "
                     "repro-<command>.journal.jsonl) and skip cells "
                     "already recorded there")
        if shardable:
            p.add_argument(
                "--shards", type=int, default=None, metavar="N",
                help="run each cell on the sharded engine with N worker "
                     "kernels (DESIGN.md sec. 14)")
            p.add_argument(
                "--shard-latency", type=float, default=0.0, metavar="NS",
                dest="shard_latency",
                help="extra inter-shard fiber delay in ns on cut links "
                     "(widens the lookahead window; 0 keeps the physics)")
        for arg, kwargs in extra.items():
            p.add_argument(f"--{arg}", **kwargs)
        return p

    add("table4", _cmd_table4)
    add("table5", _cmd_table5, sweep=True, shardable=True,
        nodes=dict(type=int, default=128),
        packets=dict(type=int, default=20))
    fig6 = add("fig6", _cmd_fig6, sweep=True,
               nodes=dict(type=int, default=128),
               packets=dict(type=int, default=20))
    fig6.add_argument("--loads", type=float, nargs="+",
                      default=[0.3, 0.7, 0.9])
    add("fig7", _cmd_fig7, sweep=True,
        nodes=dict(type=int, default=128),
        packets=dict(type=int, default=20))
    zoo = add("zoo", _cmd_zoo, sweep=True, shardable=True,
              nodes=dict(type=int, default=64),
              packets=dict(type=int, default=20),
              pattern=dict(default="random_permutation"))
    zoo.add_argument("--list", action="store_true",
                     help="list the architecture table and exit")
    zoo.add_argument("--loads", type=float, nargs="+",
                     default=[0.1, 0.4, 0.7])
    zoo.add_argument("--networks", nargs="+", default=None,
                     help="architecture names to compare (default: every "
                          "--list entry)")
    trace = add(
        "trace", _cmd_trace,
        network=dict(default="baldur",
                     help="architecture name (see 'zoo --list')"),
        nodes=dict(type=int, default=64),
        pattern=dict(default="transpose"),
        load=dict(type=float, default=0.7),
        packets=dict(type=int, default=20),
        until=dict(type=float, default=50_000_000.0),
        src=dict(type=int, default=None,
                 help="restrict the replayed flow to this source node"),
        dst=dict(type=int, default=None,
                 help="restrict the replayed flow to this destination"),
        pid=dict(type=int, default=None,
                 help="replay exactly this packet id"),
        out=dict(default=None,
                 help="write the full trace as JSONL to this file"),
        window=dict(type=float, default=1000.0,
                    help="metrics aggregation window in ns"),
        capacity=dict(type=int, default=65536,
                      help="trace ring-buffer capacity (events)"))
    trace.add_argument(
        "--metrics-out", default=None,
        help="also collect per-switch metrics and write them as JSONL")
    add("fig8", _cmd_fig8)
    add("fig9", _cmd_fig9, sweep=True)
    add("fig10", _cmd_fig10)
    add("drop-model", _cmd_drop_model,
        nodes=dict(type=int, default=1024),
        trials=dict(type=int, default=3))
    add("packaging", _cmd_packaging)
    add("awgr", _cmd_awgr)
    add("diagnose", _cmd_diagnose,
        nodes=dict(type=int, default=64),
        stage=dict(type=int, default=2),
        switch=dict(type=int, default=13),
        probes=dict(type=int, default=200))
    resilience = add(
        "resilience", _cmd_resilience, sweep=True,
        nodes=dict(type=int, default=64),
        packets=dict(type=int, default=20),
        load=dict(type=float, default=0.3),
        mtbf=dict(type=float, default=0.0,
                  help="chaos MTBF in ns (<= 0 = permanent fail-stop)"),
        mttr=dict(type=float, default=100_000.0),
        until=dict(type=float, default=50_000_000.0))
    resilience.add_argument("--failures", type=int, nargs="+",
                            default=[0, 1, 2, 4])
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    try:
        status = args.fn(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if status is None else int(status)


if __name__ == "__main__":
    sys.exit(main())
