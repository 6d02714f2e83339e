"""Self-test of the end-to-end benchmark on 64-node miniatures.

    python -m pytest benchmarks/e2e -q

Not part of the tier-1 ``testpaths``.  It checks the harness, not the
simulators: that what the command prints is what ``BENCHMARK.json``
declares, that a traced execution reproduces the untraced cell results,
that a failing cell is counted, and that exact counts are exact.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for entry in (str(ROOT / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_mini(tmp_path, *extra):
    out = tmp_path / "out.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--mini", "--seconds", "0.2",
         "--out", str(out), *extra],
        stdout=subprocess.PIPE, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout
    lines = [json.loads(line) for line in proc.stdout.splitlines()
             if line.startswith("{")]
    return json.loads(out.read_text(encoding="utf-8")), lines


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return run_mini(tmp_path_factory.mktemp("untraced"))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("traced")
    doc, lines = run_mini(tmp, "--trace", "--trace-out", str(tmp / "t.jsonl"))
    records = [json.loads(line) for line in
               (tmp / "t.jsonl").read_text(encoding="utf-8").splitlines()]
    return doc, lines, records


def test_declared_names_are_well_formed():
    names = WORKLOADS + [
        m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]
    ]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert "setup_s" in {m["name"] for m in BENCH["end_to_end"]}


def check_result_lines(lines, section):
    declared = {m["name"]: m["unit"] for m in BENCH[section]}
    assert len(lines) == len(WORKLOADS)
    for line in lines:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True
        assert line["attempted"] >= 1 and line["failed"] == 0
        assert {k: v["unit"] for k, v in line["metrics"].items()} == declared


def test_untraced_prints_every_declared_end_to_end_metric(untraced):
    doc, lines = untraced
    assert [r["workload"] for r in doc["results"]] == WORKLOADS
    check_result_lines(lines, "end_to_end")
    for line in lines:
        assert all(m["value"] > 0 for m in line["metrics"].values())
    assert {"commit", "dirty", "python", "platform", "nproc", "loadavg_1m",
            "noisy_host", "seed"} <= set(doc["provenance"])


def test_traced_prints_every_declared_per_layer_metric(traced):
    doc, lines, _ = traced
    assert [r["workload"] for r in doc["results"]] == WORKLOADS
    check_result_lines(lines, "per_layer")


def test_traced_cells_equal_untraced_cells(untraced, traced):
    plain = {r["workload"]: r for r in untraced[0]["results"]}
    for result in traced[0]["results"]:
        # One digest over untraced and traced executions of one process,
        # and the same one the separate untraced run produced.
        assert result["digests_agree"]
        assert result["sim_digest"] == plain[result["workload"]]["sim_digest"]
        # net.run() audits the ledger; a leak would be a failed cell.
        assert result["failed"] == 0 and result["storage_ok"]


def test_workloads_separate_the_layers(traced):
    layers = {r["workload"]: r["per_layer"] for r in traced[0]["results"]}
    assert layers["fig6_baldur_1k"]["netsim.run_share"] == 0
    assert layers["fig6_baldur_1k"]["core.run_share"] > 0.5
    assert layers["fig6_electrical_1k"]["core.run_share"] == 0
    assert layers["fig6_electrical_1k"]["netsim.run_share"] > 0.5
    assert layers["shard_baldur_4k"]["shard.run_share"] > 0.5
    assert layers["campaign_warm_cells"]["runner.cache_share"] > 0.5
    assert layers["campaign_warm_cells"]["runner.self_share"] == 1.0
    for per_layer in layers.values():
        assert per_layer["bench.unattributed_share"] <= 0.10


def test_trace_out_holds_spans_and_self_time_tables(traced):
    records = traced[2]
    spans = [r for r in records if r["type"] == "span"]
    tables = [r for r in records if r["type"] == "self_time"]
    assert [t["workload"] for t in tables] == WORKLOADS
    assert {s["workload"] for s in spans} == set(WORKLOADS)
    for span in spans:
        assert span["end"] >= span["start"]
        assert span["parent"] is None or span["parent"] < span["id"]
        assert (span["name"] == "body") == (span["parent"] is None)
        assert span["name"] != "cell" or span["cell"]


def test_a_failed_cell_is_counted():
    import bodies
    from repro.analysis.experiments import figure6_spec
    from spans import SpanRecorder

    spec = figure6_spec(
        n_nodes=64, networks=("baldur", "no_such_network"),
        patterns=("transpose",), loads=(0.7,), packets_per_node=2,
    )
    for rep in (bodies.run_untraced(spec),
                bodies.run_traced(spec, SpanRecorder("selftest"))):
        assert len(rep.cells) == 2 and rep.n_failed == 1
        assert rep.cells[1].error and rep.cells[0].result["delivered"] > 0


def test_exact_counts_repeat_and_follow_the_seed():
    import probes

    exact = ("sim.events_per_delivered_pkt", "sim.peak_heap_depth",
             "core.drop_rate", "core.retx_per_delivered",
             "core.model_drop_err_pp")

    def counts(seed):
        out = probes.probe_core_and_sim_counts(seed, 64)
        return [out[name] for name in exact]

    assert counts(0) == counts(0)
    assert counts(0) != counts(1)
