"""Architecture-zoo tests: table↔hand-wired identity, rotor behaviour,
and name resolution.

The identity suite is the zoo's load-bearing guarantee: for every one of
the five Sec. V architectures, a table-built network must produce
**byte-identical** ``StatsSummary`` canonical JSON to the hand-wired
class on the fig6/fig7 golden cells.  Tolerances would hide drift; the
comparison is string equality on the serialized summary (including the
latency digest, i.e. trace equality).
"""

import pytest

from repro import constants as C
from repro import zoo
from repro.core.baldur_network import BaldurNetwork
from repro.electrical import (
    DragonflyNetwork,
    FatTreeNetwork,
    IdealNetwork,
    MultiButterflyNetwork,
)
from repro.errors import ConfigurationError, TopologyError
from repro.netsim.stats import StatsSummary
from repro.runner.spec import canonical_json
from repro.topology import RotorTopology
from repro.traffic import inject_open_loop, random_permutation, transpose
from repro.zoo.rotor import RotorNetwork

LEGACY = {
    "baldur": lambda n, seed: BaldurNetwork(
        n, multiplicity=C.BALDUR_MULTIPLICITY, seed=seed
    ),
    "multibutterfly": lambda n, seed: MultiButterflyNetwork(
        n, multiplicity=C.BALDUR_MULTIPLICITY, seed=seed
    ),
    "dragonfly": lambda n, seed: DragonflyNetwork(n, seed=seed),
    "fattree": lambda n, seed: FatTreeNetwork(n, seed=seed),
    "ideal": lambda n, seed: IdealNetwork(n),
}


def summary_json(network, pattern, load, n_nodes, packets_per_node, seed):
    """Run one open-loop cell and return canonical StatsSummary JSON."""
    if pattern == "transpose":
        destinations = transpose(n_nodes)
    else:
        destinations = random_permutation(n_nodes, seed)
    inject_open_loop(
        network, destinations, load, packets_per_node, seed=seed
    )
    stats = network.run(until=50_000_000.0)
    return canonical_json(StatsSummary.from_stats(stats).to_dict())


# -- registry↔legacy identity ---------------------------------------------------


@pytest.mark.parametrize("name", LEGACY)
@pytest.mark.parametrize(
    "pattern,load",
    [
        # The fig6 golden cells (32 nodes, 5 packets/node, seed 0) span
        # both patterns and both loads of tests/golden/fig6.json.
        ("random_permutation", 0.3),
        ("transpose", 0.7),
    ],
)
def test_registry_matches_legacy_on_golden_cells(name, pattern, load):
    n_nodes, packets, seed = 32, 5, 0
    via_zoo = summary_json(
        zoo.build_network(name, n_nodes, seed=seed),
        pattern, load, n_nodes, packets, seed,
    )
    via_legacy = summary_json(
        LEGACY[name](n_nodes, seed),
        pattern, load, n_nodes, packets, seed,
    )
    assert via_zoo == via_legacy


@pytest.mark.parametrize("name", LEGACY)
def test_registry_matches_legacy_fig7_scale(name):
    # The fig7 golden scale: 16 nodes, 4 packets/node, seed 0.
    n_nodes, packets, seed = 16, 4, 0
    via_zoo = summary_json(
        zoo.build_network(name, n_nodes, seed=seed),
        "random_permutation", 0.7, n_nodes, packets, seed,
    )
    via_legacy = summary_json(
        LEGACY[name](n_nodes, seed),
        "random_permutation", 0.7, n_nodes, packets, seed,
    )
    assert via_zoo == via_legacy


def test_experiments_build_network_goes_through_registry():
    from repro.analysis.experiments import build_network

    net = build_network("rotor", 16, seed=0)
    assert isinstance(net, RotorNetwork)


# -- the table ---------------------------------------------------------------------


def test_registered_architectures():
    assert tuple(zoo.ARCHITECTURES) == (
        "baldur", "multibutterfly", "dragonfly", "fattree", "ideal",
        "rotor",
    )


def test_every_builder_has_a_docstring():
    # The docstring is the builder's `repro-bench zoo --list` entry.
    for name, builder in zoo.ARCHITECTURES.items():
        assert (builder.__doc__ or "").strip(), name


def test_builder_params_override():
    net = zoo.build_network("rotor", 16, n_rotors=8)
    assert isinstance(net, RotorNetwork)
    assert net.n_rotors == 8


def test_non_string_name_rejected():
    for name in (42, None, {"architecture": "rotor"}):
        with pytest.raises(ConfigurationError, match="unknown architecture"):
            zoo.build_network(name, 16)


def test_unknown_architecture_lists_known_names():
    with pytest.raises(ConfigurationError, match="baldur.*rotor"):
        zoo.build_network("torus", 16)


# -- rotor topology --------------------------------------------------------------


def test_rotor_matchings_cover_every_pair_once_per_cycle():
    topo = RotorTopology(8, n_rotors=3)
    seen = set()
    for slot in range(topo.slots_per_cycle):
        for rotor in range(topo.n_rotors):
            m = topo.matching(rotor, slot)
            assert sorted(m) == list(range(8))  # a permutation
            for src, dst in enumerate(m):
                if dst != src:
                    assert (src, dst) not in seen
                    seen.add((src, dst))
    assert len(seen) == 8 * 7  # every ordered pair exactly once


def test_rotor_slots_until_matched_agrees_with_matchings():
    topo = RotorTopology(8, n_rotors=3)
    for src in range(8):
        for dst in range(8):
            if src == dst:
                continue
            for start in range(topo.slots_per_cycle):
                wait = topo.slots_until_matched(src, dst, start)
                slot = start + wait
                assert any(
                    topo.matching(r, slot)[src] == dst
                    for r in range(topo.n_rotors)
                )


def test_rotor_topology_validation():
    with pytest.raises(TopologyError):
        RotorTopology(1)
    with pytest.raises(TopologyError):
        RotorTopology(8, n_rotors=0)
    topo = RotorTopology(4, n_rotors=16)  # clamped to n-1
    assert topo.n_rotors == 3
    with pytest.raises(TopologyError):
        topo.matching(3, 0)
    with pytest.raises(TopologyError):
        topo.slots_until_matched(0, 0)


# -- rotor network ---------------------------------------------------------------


def test_rotor_delivers_everything_with_clean_audit():
    net = zoo.build_network("rotor", 16, seed=0)
    destinations = random_permutation(16, 3)
    inject_open_loop(net, destinations, 0.5, 10, seed=3)
    stats = net.run()  # run to completion: no horizon needed
    assert stats.delivered == stats.injected == 160
    assert stats.drops == 0
    assert net.queued_packets == 0
    net.audit()


def test_rotor_is_deterministic():
    def one_run():
        net = zoo.build_network("rotor", 16, seed=0)
        inject_open_loop(
            net, random_permutation(16, 5), 0.7, 8, seed=5
        )
        return canonical_json(
            StatsSummary.from_stats(net.run()).to_dict()
        )

    assert one_run() == one_run()


def test_rotor_unloaded_latency_matches_simulation():
    for dst in (1, 5, 15):
        net = zoo.build_network("rotor", 16, seed=0)
        packet = net.submit(0, dst, time=0.0)
        net.run()
        assert packet.latency == pytest.approx(
            net.unloaded_latency_ns(0, dst), rel=1e-12
        )


def test_rotor_single_hop():
    net = zoo.build_network("rotor", 16, seed=0)
    packet = net.submit(3, 11, time=0.0)
    net.run()
    assert packet.hops == 1  # direct: exactly one rotor traversal


def test_rotor_oversized_packet_rejected():
    net = zoo.build_network("rotor", 16, seed=0, slot_ns=10.0)
    net.submit(0, 1, time=0.0)
    with pytest.raises(ConfigurationError, match="wire"):
        net.run()


def test_rotor_mid_slot_arrival_uses_current_matching():
    # At t=0.5 the slot-0 matchings are live; offset-1 pairs go out
    # immediately instead of waiting a full cycle.
    net = zoo.build_network("rotor", 16, seed=0)
    packet = net.submit(0, 1, time=0.5)
    net.run()
    assert packet.deliver_time < net.topology.slots_per_cycle * net.slot_ns


def test_rotor_config_validation():
    with pytest.raises(ConfigurationError):
        RotorNetwork(16, slot_ns=0.0)
    with pytest.raises(ConfigurationError):
        RotorNetwork(16, reconfig_ns=-1.0)
    with pytest.raises(ConfigurationError):
        RotorNetwork(16, topology=RotorTopology(8))
