"""Tests for topology construction (butterfly, dragonfly, fat-tree)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.sim.rand import stream
from repro.topology import (
    DragonflyTopology,
    FatTreeTopology,
    IdealTopology,
    MultiButterflyTopology,
)


def list_form_wiring(topo):
    """Inter-stage wiring drawn from ``list`` copies of each sub-block:
    the O(N^2) construction the range-based build must reproduce."""
    rng = stream(topo.seed, "multibutterfly-wiring")
    m = topo.multiplicity
    wiring = []
    for stage in range(topo.n_stages - 1):
        switches_per_block = (topo.n_nodes >> stage) // 2
        stage_wiring = []
        for i in range(topo.switches_per_stage):
            per_direction = []
            for bit in (0, 1):
                candidates = list(topo._sub_block_switches(
                    stage, i // switches_per_block, bit))
                if not topo.randomize:
                    targets = [candidates[(i + k) % len(candidates)]
                               for k in range(m)]
                elif len(candidates) >= m:
                    targets = rng.sample(candidates, m)
                else:
                    targets = [rng.choice(candidates) for _ in range(m)]
                per_direction.append(targets)
            stage_wiring.append(tuple(per_direction))
        wiring.append(stage_wiring)
    return wiring


class TestMultiButterfly:
    @pytest.mark.parametrize("n_nodes,seeds", [
        (64, (0, 3, 11)), (1024, (0, 3, 11)), (4096, (0, 3)),
    ])
    @pytest.mark.parametrize("randomize", [True, False])
    def test_wiring_equals_list_form(self, n_nodes, seeds, randomize):
        for seed in seeds if randomize else seeds[:1]:
            topo = MultiButterflyTopology(n_nodes, multiplicity=4,
                                          seed=seed, randomize=randomize)
            assert topo.wiring[:-1] == list_form_wiring(topo)

    def test_stage_count(self):
        topo = MultiButterflyTopology(1024, multiplicity=4)
        assert topo.n_stages == 10
        assert topo.switches_per_stage == 512

    def test_total_switches(self):
        topo = MultiButterflyTopology(64)
        assert topo.total_switches == 6 * 32
        assert topo.switches_per_node == pytest.approx(3.0)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(TopologyError):
            MultiButterflyTopology(100)

    def test_rejects_tiny(self):
        with pytest.raises(TopologyError):
            MultiButterflyTopology(2)

    def test_rejects_bad_multiplicity(self):
        with pytest.raises(TopologyError):
            MultiButterflyTopology(64, multiplicity=0)

    def test_entry_switch(self):
        topo = MultiButterflyTopology(16)
        assert topo.entry_switch(0) == 0
        assert topo.entry_switch(5) == 2
        with pytest.raises(TopologyError):
            topo.entry_switch(16)

    def test_routing_bits_msb_first(self):
        topo = MultiButterflyTopology(16)
        assert topo.routing_bits(0b1010) == [1, 0, 1, 0]

    def test_routing_bit_bounds(self):
        topo = MultiButterflyTopology(16)
        with pytest.raises(TopologyError):
            topo.routing_bit(3, 4)

    def test_wiring_stays_in_sub_block(self):
        # Every wired target must lie in the sub-block selected by the bit.
        topo = MultiButterflyTopology(64, multiplicity=3, seed=7)
        n = topo.n_nodes
        for stage in range(topo.n_stages - 1):
            switches_per_block = (n >> stage) // 2
            sub = (n >> (stage + 1)) // 2
            for i in range(topo.switches_per_stage):
                block = i // switches_per_block
                for bit in (0, 1):
                    lo = (2 * block + bit) * sub
                    for target in topo.next_switches(stage, i, bit):
                        assert lo <= target < lo + sub

    def test_wiring_targets_distinct_when_possible(self):
        topo = MultiButterflyTopology(256, multiplicity=4, seed=1)
        targets = topo.next_switches(0, 0, 0)
        assert len(set(targets)) == 4

    def test_last_stage_reaches_hosts(self):
        topo = MultiButterflyTopology(16, multiplicity=2)
        last = topo.n_stages - 1
        assert topo.is_last_stage(last)
        assert topo.next_switches(last, 3, 0) == [6, 6]
        assert topo.next_switches(last, 3, 1) == [7, 7]

    @given(st.integers(0, 63), st.integers(0, 63))
    @settings(max_examples=40)
    def test_deterministic_path_delivers(self, src, dst):
        # Following the routing bits through the wiring must end at dst.
        topo = MultiButterflyTopology(64, multiplicity=2, seed=3)
        switch = topo.entry_switch(src)
        for stage in range(topo.n_stages):
            bit = topo.routing_bit(dst, stage)
            target = topo.next_switches(stage, switch, bit)[0]
            switch = target
        assert switch == dst  # final 'switch' value is the host id

    def test_deterministic_path_length(self):
        topo = MultiButterflyTopology(64, seed=0)
        assert len(topo.deterministic_path(0, 63)) == topo.n_stages

    def test_wiring_reproducible_by_seed(self):
        a = MultiButterflyTopology(64, 3, seed=5).wiring
        b = MultiButterflyTopology(64, 3, seed=5).wiring
        assert a == b

    def test_wiring_varies_with_seed(self):
        a = MultiButterflyTopology(256, 3, seed=1).wiring
        b = MultiButterflyTopology(256, 3, seed=2).wiring
        assert a != b


class TestDragonfly:
    def test_balanced_construction(self):
        topo = DragonflyTopology(p=4)
        assert topo.a == 8 and topo.h == 4
        assert topo.groups == 33
        assert topo.n_nodes == 4 * 8 * 33  # 1056

    def test_radix_matches_paper_1k(self):
        # Sec. VI-A: dragonfly radix ~16 at the 1K scale...
        topo = DragonflyTopology.for_nodes(1024)
        assert topo.radix in (15, 16)

    def test_radix_matches_paper_1m(self):
        # ... and ~96 at the 1M scale.
        topo = DragonflyTopology.for_nodes(1_000_000)
        assert 90 <= topo.radix <= 96
        assert topo.n_nodes >= 1_000_000

    def test_for_nodes_minimal(self):
        topo = DragonflyTopology.for_nodes(100)
        smaller = DragonflyTopology(topo.p - 1)
        assert smaller.n_nodes < 100

    def test_router_of_node_roundtrip(self):
        topo = DragonflyTopology(p=2)
        for node in range(0, topo.n_nodes, 7):
            group, local = topo.router_of_node(node)
            assert node in topo.nodes_of_router(group, local)

    def test_global_links_are_symmetric(self):
        topo = DragonflyTopology(p=2)
        for group in range(topo.groups):
            for local in range(topo.a):
                for link in range(topo.h):
                    peer = topo.global_peer(group, local, link)
                    back = topo.global_peer(
                        peer.peer_group, peer.peer_router, peer.peer_link
                    )
                    assert (back.peer_group, back.peer_router, back.peer_link) == (
                        group, local, link,
                    )

    def test_every_group_pair_connected(self):
        topo = DragonflyTopology(p=2)
        for g1 in range(topo.groups):
            reached = set()
            for local in range(topo.a):
                for link in range(topo.h):
                    reached.add(topo.global_peer(g1, local, link).peer_group)
            assert reached == set(range(topo.groups)) - {g1}

    def test_gateway_router_owns_channel(self):
        topo = DragonflyTopology(p=3)
        local, link = topo.gateway_router(0, 5)
        assert topo.global_peer(0, local, link).peer_group == 5

    def test_gateway_same_group_rejected(self):
        with pytest.raises(TopologyError):
            DragonflyTopology(p=2).gateway_router(1, 1)

    def test_minimal_hop_count(self):
        topo = DragonflyTopology(p=2)
        assert topo.minimal_hop_count(0, 1) == 0  # same router
        assert 1 <= topo.minimal_hop_count(0, topo.p * 2) <= 2  # same group
        far = topo.p * topo.a * 3  # another group
        assert 1 <= topo.minimal_hop_count(0, far) <= 3

    def test_invalid_p(self):
        with pytest.raises(TopologyError):
            DragonflyTopology(p=0)

    def test_describe(self):
        assert "dragonfly" in DragonflyTopology(2).describe()


class TestFatTree:
    def test_k16_hosts_1024(self):
        topo = FatTreeTopology(16)
        assert topo.n_nodes == 1024
        assert topo.radix == 16
        assert topo.n_switches == 16 * 16 + 64  # 320

    def test_k80_hosts_128k(self):
        # The Sec. II-A example: 128K nodes from 80-radix switches.
        assert FatTreeTopology(80).n_nodes == 128_000

    def test_k160_hosts_1m(self):
        assert FatTreeTopology(160).n_nodes == 1_024_000

    def test_odd_k_rejected(self):
        with pytest.raises(TopologyError):
            FatTreeTopology(15)

    def test_for_nodes(self):
        topo = FatTreeTopology.for_nodes(1000)
        assert topo.n_nodes >= 1000
        assert FatTreeTopology(topo.k - 2).n_nodes < 1000

    def test_locate_roundtrip(self):
        topo = FatTreeTopology(8)
        for host in range(topo.n_nodes):
            pod, edge, slot = topo.locate_host(host)
            assert topo.host_id(pod, edge, slot) == host

    def test_core_agg_connectivity(self):
        topo = FatTreeTopology(8)
        for agg in range(topo.half):
            for core in topo.cores_above_agg(agg):
                assert topo.agg_below_core(core) == agg

    def test_hop_counts(self):
        topo = FatTreeTopology(8)
        assert topo.minimal_hop_count(0, 0) == 0
        assert topo.minimal_hop_count(0, 1) == 1  # same edge
        assert topo.minimal_hop_count(0, topo.half) == 3  # same pod
        assert topo.minimal_hop_count(0, topo.n_nodes - 1) == 5

    def test_same_edge_same_pod(self):
        topo = FatTreeTopology(8)
        assert topo.same_edge(0, 1)
        assert topo.same_pod(0, topo.half * 2)
        assert not topo.same_pod(0, topo.n_nodes - 1)


class TestIdeal:
    def test_defaults(self):
        topo = IdealTopology(100)
        assert topo.latency_ns == 200.0

    def test_validation(self):
        with pytest.raises(TopologyError):
            IdealTopology(1)
        with pytest.raises(TopologyError):
            IdealTopology(10, latency_ns=0)
