"""Golden-figure regression tests.

Small-config runs of the Fig. 6 / Fig. 7 sweep drivers and the Fig. 8
power model are pinned against reference JSON committed under
``tests/golden/``.  Any change to simulator timing, routing, RNG
consumption order, power constants, or the sweep engine's seeding shows
up here as a diff against the golden numbers.

Regenerate (after an *intentional* model change) with::

    PYTHONPATH=src python tests/test_golden_figures.py --regen

and inspect the resulting git diff before committing it.
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

GOLDEN_DIR = Path(__file__).parent / "golden"

REL_TOL = 1e-9
"""Tight tolerance: results are deterministic, so anything beyond float
round-off (e.g. from a reordered summation) is a real behaviour change."""


# -- golden builders (shared by the tests and --regen) ---------------------------


def built_fig6():
    from repro.analysis.experiments import figure6_spec
    from repro.runner import run_sweep

    spec = figure6_spec(
        n_nodes=32,
        loads=(0.3, 0.7),
        patterns=("random_permutation", "transpose"),
        packets_per_node=5,
        seed=0,
    )
    return json.loads(run_sweep(spec).to_json())


def built_fig7():
    from repro.analysis.experiments import figure7_spec
    from repro.runner import run_sweep

    spec = figure7_spec(
        n_nodes=16, packets_per_node=4, ping_pong_rounds=2, seed=0
    )
    return json.loads(run_sweep(spec).to_json())


def built_fig8():
    from repro.power.network_power import FIG8_SCALES, power_scaling_sweep

    sweep = power_scaling_sweep(list(FIG8_SCALES))
    return {
        "scales": list(FIG8_SCALES),
        "networks": {
            name: [
                {**dataclasses.asdict(b), "total": b.total}
                for b in breakdowns
            ]
            for name, breakdowns in sweep.items()
        },
    }


GOLDEN = {
    "fig6.json": built_fig6,
    "fig7.json": built_fig7,
    "fig8.json": built_fig8,
}


# -- structural comparison -------------------------------------------------------


def assert_matches(actual, golden, path="$"):
    """Recursive equality with REL_TOL on floats and exact everything else."""
    if isinstance(golden, dict):
        assert isinstance(actual, dict), f"{path}: not a dict"
        assert sorted(actual) == sorted(golden), (
            f"{path}: keys {sorted(actual)} != {sorted(golden)}"
        )
        for key in golden:
            assert_matches(actual[key], golden[key], f"{path}.{key}")
    elif isinstance(golden, list):
        assert isinstance(actual, list), f"{path}: not a list"
        assert len(actual) == len(golden), f"{path}: length differs"
        for i, (a, g) in enumerate(zip(actual, golden)):
            assert_matches(a, g, f"{path}[{i}]")
    elif isinstance(golden, float):
        assert isinstance(actual, (int, float)), f"{path}: not a number"
        assert math.isclose(actual, golden, rel_tol=REL_TOL, abs_tol=1e-12), (
            f"{path}: {actual!r} != golden {golden!r}"
        )
    else:
        # ints, strings (incl. latency digests), bools, None: exact.
        assert actual == golden, f"{path}: {actual!r} != golden {golden!r}"


# -- the tests -------------------------------------------------------------------


def load_golden(name):
    path = GOLDEN_DIR / name
    assert path.exists(), (
        f"missing {path}; run PYTHONPATH=src python "
        "tests/test_golden_figures.py --regen"
    )
    return json.loads(path.read_text())


def test_fig6_matches_golden():
    assert_matches(built_fig6(), load_golden("fig6.json"))


def test_fig7_matches_golden():
    assert_matches(built_fig7(), load_golden("fig7.json"))


def test_fig8_matches_golden():
    assert_matches(built_fig8(), load_golden("fig8.json"))


def test_goldens_have_no_degenerate_results():
    """Guard the goldens themselves: every simulated cell delivered
    packets and measured a positive latency (a regenerated golden full of
    zeros would otherwise pass the comparison tests forever)."""
    for name in ("fig6.json", "fig7.json"):
        for entry in load_golden(name)["jobs"]:
            result = entry["result"]
            assert result["delivered"] > 0, entry["key"]
            assert result["avg_latency_ns"] > 0.0, entry["key"]
    fig8 = load_golden("fig8.json")
    for network, rows in fig8["networks"].items():
        for row in rows:
            assert row["total"] > 0.0, network


def regenerate():
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, builder in GOLDEN.items():
        path = GOLDEN_DIR / name
        path.write_text(
            json.dumps(builder(), sort_keys=True, indent=1, allow_nan=False)
            + "\n"
        )
        print(f"wrote {path}")


if __name__ == "__main__":
    if "--regen" not in sys.argv:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_figures.py --regen")
    regenerate()
