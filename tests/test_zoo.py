"""Architecture-zoo tests: table↔hand-wired identity and name resolution.

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
from repro.errors import ConfigurationError
from repro.netsim.stats import StatsSummary
from repro.runner.spec import canonical_json
from repro.traffic import inject_open_loop, random_permutation, transpose

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


def test_experiments_build_network_goes_through_registry(monkeypatch):
    from repro.analysis.experiments import build_network

    calls = []

    def probe(n_nodes, seed):
        calls.append((n_nodes, seed))
        return IdealNetwork(n_nodes)

    monkeypatch.setitem(zoo.ARCHITECTURES, "probe", probe)
    assert isinstance(build_network("probe", 16, seed=3), IdealNetwork)
    assert calls == [(16, 3)]


# -- the table ---------------------------------------------------------------------


def test_registered_architectures():
    assert tuple(zoo.ARCHITECTURES) == (
        "baldur", "multibutterfly", "dragonfly", "fattree", "ideal",
    )


def test_every_builder_has_a_docstring():
    # The docstring is the builder's `repro-bench zoo --list` entry.
    for name, builder in zoo.ARCHITECTURES.items():
        assert (builder.__doc__ or "").strip(), name


def test_builder_params_override():
    net = zoo.build_network("ideal", 16, latency_ns=50.0)
    assert isinstance(net, IdealNetwork)
    assert net.latency_ns == 50.0


def test_non_string_name_rejected():
    for name in (42, None, {"architecture": "ideal"}):
        with pytest.raises(ConfigurationError, match="unknown architecture"):
            zoo.build_network(name, 16)


def test_unknown_architecture_lists_known_names():
    with pytest.raises(ConfigurationError, match="baldur.*multibutterfly"):
        zoo.build_network("torus", 16)

