"""Property tests for the shard partition plans and the sharded engine.

Two invariant families (DESIGN.md section 14):

* **partition invariant** -- for the stage-cut plan at any shard count,
  each physical link is either intra-shard or appears in the boundary map
  exactly once (keyed by its ``iter_edges`` position), and the plan's
  lookahead equals the minimum boundary-edge delay;
* **ledger equivalence** -- on small uncontended cells, a sharded run's
  merged conservation ledger and latency multiset equal the single
  kernel's (under contention the per-shard RNG streams legitimately
  diverge, so equivalence is only claimed -- and tested -- drop-free).
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import build_network
from repro.traffic import inject_open_loop, transpose

SMALL = dict(max_examples=15, deadline=None)


def _recount_boundary(plan) -> None:
    """Re-derive the boundary map from first principles and compare."""
    plan.validate()
    edges = list(plan.iter_edges())
    boundary = plan.boundary()
    min_cut = math.inf
    for i, (u, v, delay) in enumerate(edges):
        crosses = plan.shard_of(u) != plan.shard_of(v)
        assert (i in boundary) == crosses
        if crosses:
            bu, bv, bdelay, su, sv = boundary[i]
            assert (bu, bv, bdelay) == (u, v, delay)
            assert su == plan.shard_of(u)
            assert sv == plan.shard_of(v)
            min_cut = min(min_cut, delay)
    # Exactly once: the map is keyed by edge position, so multiplicity
    # one per crossing edge is structural; the count must still agree.
    assert len(boundary) == sum(
        1 for u, v, _ in edges if plan.shard_of(u) != plan.shard_of(v)
    )
    assert plan.lookahead_ns == min_cut
    for shard in plan.host_shard:
        assert 0 <= shard < plan.n_shards


class TestPartitionInvariant:
    @settings(**SMALL)
    @given(
        n_nodes=st.sampled_from([8, 16, 32]),
        multiplicity=st.sampled_from([1, 2, 4]),
        n_shards=st.integers(min_value=1, max_value=5),
        cut_delay=st.sampled_from([0.0, 100.0]),
    )
    def test_multistage(self, n_nodes, multiplicity, n_shards, cut_delay):
        from repro.shard.plan import multistage_plan
        from repro.topology.butterfly import MultiButterflyTopology

        topo = MultiButterflyTopology(n_nodes, multiplicity, seed=0)
        plan = multistage_plan(
            topo, n_shards, link_delay_ns=100.0, switch_latency_ns=1.5,
            cut_delay_ns=cut_delay,
        )
        _recount_boundary(plan)


class TestLedgerEquivalence:
    @settings(**SMALL)
    @given(
        n_shards=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=10),
        packets_per_node=st.integers(min_value=1, max_value=3),
    )
    def test_merged_ledger_matches_single_kernel(
        self, n_shards, seed, packets_per_node
    ):
        def run(shards):
            net = build_network("baldur", 16, seed)
            inject_open_loop(
                net, transpose(16), 0.2, packets_per_node, seed=seed
            )
            stats = net.run(shards=shards)
            ledger = net.audit()
            return stats, ledger

        ref_stats, ref_ledger = run(1)
        stats, ledger = run(n_shards)
        assert ledger == ref_ledger
        assert stats.conservation() == ref_stats.conservation()
        assert sorted(stats.latencies) == sorted(ref_stats.latencies)
        assert stats.delivered == ref_stats.delivered > 0
