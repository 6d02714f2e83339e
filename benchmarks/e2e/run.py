"""Layered end-to-end benchmark: one command, every metric by name.

    python benchmarks/e2e/run.py [--workload NAME] [--seed S]
        [--seconds T] [--trace [0|1]] [--out FILE] [--trace-out FILE]

Each workload runs in fresh subprocesses, one at a time: ``SETUP_REPS``
of them perform the set-up (imports, spec construction, scratch dirs,
a 64-node miniature of the body as warm-up, the cache fill of the warm
workload) and the last one goes on to execute the body repeatedly for
``--seconds`` and report medians.  This parent process never imports
``repro``; it only spawns, collects, checks and prints.

With ``--trace 0`` (default) the last stdout line holds the end-to-end
metrics declared in ``BENCHMARK.json``; with ``--trace 1`` the body is
executed alternately untraced and traced (spans around every call into
a layer), the layer probes run, and the last line holds the per-layer
metrics.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional

from spans import format_self_time_table

_T0 = time.perf_counter()  # set-up time runs from here to the first body

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK_ROOT = HERE / "_work"
SETUP_REPS = 3
CHILD_TIMEOUT_S = 170


def load_benchmark() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile (the sample itself, never interpolated)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


# -- the workload subprocess ------------------------------------------------------


def child_main(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import bodies
    from spans import HARNESS_SPANS, SpanRecorder, durations, self_times

    workload = bodies.WORKLOADS[args.workload]
    work_dir = Path(args.work_dir)
    trace = bool(args.trace)

    # Set-up: warm-up on the 64-node miniature (lazy imports, first fork,
    # first cache/journal write), then bind the real inputs.
    warmup = bodies.BoundWorkload(workload, args.seed, True,
                                  work_dir / "warmup")
    warmup.rep()
    if trace:
        warmup.rep(SpanRecorder(args.workload))
    bound = bodies.BoundWorkload(workload, args.seed, args.mini, work_dir)
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}, allow_nan=False))
        return 0

    rec = SpanRecorder(args.workload)
    plain: List[bodies.Rep] = []
    traced: List[bodies.Rep] = []
    deadline = time.perf_counter() + args.seconds
    while True:
        plain.append(bound.rep())
        if trace:
            traced.append(bound.rep(rec))
        if time.perf_counter() >= deadline:
            break

    reps = plain + traced
    digests = sorted({rep.digest() for rep in reps})
    all_cached = all(rep.n_cached == len(rep.cells) for rep in reps)
    none_cached = not any(rep.n_cached for rep in reps)
    doc: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "mini": args.mini,
        "trace": trace,
        "sizes": bound.sizes(),
        "rep_wall_s": [rep.wall_s for rep in plain],
        "attempted": sum(len(rep.cells) for rep in reps),
        "failed": sum(rep.n_failed for rep in reps),
        "errors": sorted({c.error for rep in reps for c in rep.cells
                          if c.error})[:5],
        "sim_digest": digests[0],
        "digests_agree": len(digests) == 1,
        "storage_ok": all_cached if bound.storage == "warm" else none_cached,
        "setup_s": setup_s,
        "end_to_end": {
            "wall_s": median(rep.wall_s for rep in plain),
            "sim_pkts_per_s": median(rep.packets / rep.wall_s
                                     for rep in plain),
            "cells_per_s": median(len(rep.cells) / rep.wall_s
                                  for rep in plain),
        },
    }

    if trace:
        from probes import run_probes

        table = self_times(rec.spans)
        traced_wall = table["body"]["total_s"]

        def share(*names: str) -> float:
            return sum(table[n]["self_s"] for n in names
                       if n in table) / traced_wall

        cell_ms = [1e3 * d for d in durations(rec.spans, "cell")]
        per_layer = {
            "core.run_share": share("core.run"),
            "netsim.run_share": share("netsim.run"),
            "shard.run_share": share("shard.run"),
            "zoo.build_share": share("zoo.build"),
            "traffic.inject_share": share("traffic.inject"),
            "traffic.trace_gen_share": share("traffic.trace_gen"),
            "stats.summarize_share": share("stats.summarize"),
            "runner.cache_share": share("runner.cache_key",
                                        "runner.cache_get",
                                        "runner.cache_put"),
            "runner.journal_share": share("runner.journal"),
            "runner.self_share": median(
                (rep.wall_s - rep.job_time_s) / rep.wall_s for rep in plain
            ),
            "runner.cell_ms_p50": percentile(cell_ms, 50),
            "runner.cell_ms_p95": percentile(cell_ms, 95),
            "bench.trace_overhead_x":
                median(rep.wall_s for rep in traced)
                / median(rep.wall_s for rep in plain),
            "bench.unattributed_share": share(*HARNESS_SPANS),
        }
        per_layer.update(run_probes(args.seed, args.mini,
                                    work_dir / "probes"))
        doc["per_layer"] = per_layer
        doc["self_times"] = table
        doc["spans"] = rec.spans

    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    doc["end_to_end"]["peak_rss_mb"] = usage / 1024.0
    print(json.dumps(doc, allow_nan=False))
    return 0


# -- the parent: spawn, collect, check, print -------------------------------------


def spawn_child(args: argparse.Namespace, name: str, work_dir: Path,
                setup_only: bool) -> Dict[str, Any]:
    command = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work-dir", str(work_dir),
    ]
    if args.mini:
        command.append("--mini")
    if setup_only:
        command.append("--setup-only")
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        proc = subprocess.run(
            command, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        raise SystemExit(
            f"workload {name!r} subprocess exited {proc.returncode}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


def run_workload(args: argparse.Namespace, name: str) -> Dict[str, Any]:
    work_dir = WORK_ROOT / f"{name}-{os.getpid()}"
    setup_reps = 1 if args.mini else SETUP_REPS
    setups = [
        spawn_child(args, name, work_dir, setup_only=True)["setup_s"]
        for _ in range(setup_reps - 1)
    ]
    doc = spawn_child(args, name, work_dir, setup_only=False)
    setups.append(doc.pop("setup_s"))
    doc["setup_samples_s"] = setups
    doc["end_to_end"]["setup_s"] = median(setups)
    doc["correct"] = bool(
        doc["failed"] == 0 and doc["digests_agree"] and doc["storage_ok"]
    )
    return doc


def provenance(args: argparse.Namespace) -> Dict[str, Any]:
    def git(*argv: str) -> Optional[str]:
        try:
            out = subprocess.run(
                ["git", *argv], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            )
        except (OSError, subprocess.SubprocessError):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    status = git("status", "--porcelain")
    nproc = os.cpu_count() or 1
    load1 = os.getloadavg()[0]
    return {
        "commit": git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": nproc,
        "loadavg_1m": load1,
        "noisy_host": load1 > nproc / 2,
        "seed": args.seed,
        "seconds": args.seconds,
        "mini": args.mini,
    }


def result_line(bench: Dict[str, Any], doc: Dict[str, Any]) -> Dict[str, Any]:
    """The driver-facing object: exactly the declared metrics."""
    section = "per_layer" if doc["trace"] else "end_to_end"
    declared = {m["name"]: m["unit"] for m in bench[section]}
    measured = doc[section]
    if set(declared) != set(measured):
        odd = sorted(set(declared) ^ set(measured))
        raise SystemExit(f"metrics differ from BENCHMARK.json: {odd}")
    return {
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {
            name: {"value": measured[name], "unit": unit}
            for name, unit in declared.items()
        },
    }


def print_report(bench: Dict[str, Any], doc: Dict[str, Any],
                 reference: Dict[str, Any]) -> None:
    sizes = doc["sizes"]
    print(f"== {doc['workload']}: seed {doc['seed']}, {len(doc['rep_wall_s'])} "
          f"executions of {sizes['cells']} cells at "
          f"{sizes['fixed']['n_nodes']} nodes, storage {sizes['storage']}")
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    for section in ("end_to_end", "per_layer"):
        for name, value in doc.get(section, {}).items():
            print(f"  {name:<48} {value:>16.6g} {units[name]}")
    share = doc["failed"] / doc["attempted"]
    print(f"  ops_attempted {doc['attempted']}  ops_failed_share {share:g}")
    for error in doc["errors"]:
        print(f"  failed cell: {error}")
    line = f"  sim_digest {doc['sim_digest']}"
    expected = reference["digests"].get(doc["workload"])
    if not doc["mini"] and doc["seed"] == reference["seed"] and expected:
        matches = str(expected == doc["sim_digest"]).lower()
        line += f"  digest_matches_reference: {matches}"
    print(line)
    if not doc["digests_agree"]:
        print("  INCORRECT: executions of the same inputs (untraced and "
              "traced) produced different cell results")
    if not doc["storage_ok"]:
        print("  INCORRECT: cache hits where misses were expected, or "
              "the reverse")
    if doc["trace"]:
        print(format_self_time_table(doc["workload"], doc["self_times"]))


def write_trace(path: Path, docs: List[Dict[str, Any]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            for span in doc.get("spans", ()):
                fh.write(json.dumps({"type": "span", **span},
                                    allow_nan=False) + "\n")
            if "self_times" in doc:
                fh.write(json.dumps(
                    {"type": "self_time", "workload": doc["workload"],
                     "table": doc["self_times"]}, allow_nan=False) + "\n")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run one workload (default: all, in order)")
    parser.add_argument("--seed", type=int, default=0,
                        help="root_seed of every generated spec")
    parser.add_argument("--seconds", type=float,
                        default=float(bench["run_seconds"]),
                        help="how long each workload measures")
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1),
                        const=1, default=0,
                        help="1: traced run, per-layer metrics")
    parser.add_argument("--out", type=Path,
                        help="write provenance and all results as JSON")
    parser.add_argument("--trace-out", type=Path,
                        help="write spans and self-time tables as JSONL")
    parser.add_argument("--mini", action="store_true",
                        help="64-node miniatures (the self-test's size)")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--work-dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.bench = bench
    args.names = [args.workload] if args.workload else names
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    bench = args.bench
    reference = json.loads(
        (HERE / "reference.json").read_text(encoding="utf-8")
    )
    prov = provenance(args)
    print("provenance " + json.dumps(prov, allow_nan=False))
    if prov["noisy_host"]:
        print(f"warning: noisy_host -- 1-minute load {prov['loadavg_1m']:.2f}"
              f" exceeds nproc/2 = {prov['nproc'] / 2:g}")
    docs = []
    for name in args.names:
        doc = run_workload(args, name)
        docs.append(doc)
        print_report(bench, doc, reference)
        print(json.dumps(result_line(bench, doc), allow_nan=False),
              flush=True)
    if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
        WORK_ROOT.rmdir()
    if args.trace_out is not None:
        write_trace(args.trace_out, docs)
    for doc in docs:
        doc.pop("spans", None)
    if args.out is not None:
        args.out.write_text(json.dumps(
            {"provenance": prov, "results": docs}, allow_nan=False,
            indent=1) + "\n", encoding="utf-8")
    return 0 if all(doc["correct"] for doc in docs) else 1


if __name__ == "__main__":
    sys.exit(main())
