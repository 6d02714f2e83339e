"""The architecture table: name -> builder, the five Sec. V networks.

A builder is a pure function of ``(n_nodes, seed, **params)``: identical
arguments must yield a simulator whose run produces byte-identical
``StatsSummary`` JSON.  The five Sec. V builders construct the classes
and arguments of the paper's Table VI configurations; the fig6/fig7
goldens, ``test_determinism.py`` and the table↔hand-wired identity suite
in ``tests/test_zoo.py`` pin that.  A builder's docstring is its entry in
``repro-bench zoo --list``; table order is presentation order.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from repro import constants as C
from repro.core.baldur_network import BaldurNetwork
from repro.electrical import (
    DragonflyNetwork,
    FatTreeNetwork,
    IdealNetwork,
    MultiButterflyNetwork,
)
from repro.errors import ConfigurationError
from repro.netsim.network import NetworkSimulator

__all__ = ["ARCHITECTURES", "build_network"]


def _build_baldur(n_nodes: int, seed: int, **params: Any) -> NetworkSimulator:
    """The paper's all-optical multi-butterfly (Sec. III): bufferless
    tunable-laser 2x2 switch pairs, destination-tag steering over copies
    tried least-loaded first, contention drops to the retry path."""
    return BaldurNetwork(
        n_nodes,
        multiplicity=params.pop("multiplicity", C.BALDUR_MULTIPLICITY),
        seed=seed,
        **params,
    )


def _build_multibutterfly(
    n_nodes: int, seed: int, **params: Any
) -> NetworkSimulator:
    """Electrical baseline on the same multi-butterfly wiring: buffered
    VC/credit switches, destination-tag steering with a random copy
    chosen at injection."""
    return MultiButterflyNetwork(
        n_nodes,
        multiplicity=params.pop("multiplicity", C.BALDUR_MULTIPLICITY),
        seed=seed,
        **params,
    )


def _build_dragonfly(n_nodes: int, seed: int, **params: Any) -> NetworkSimulator:
    """Electrical dragonfly (Table VI): fully-connected router groups
    joined by global links, buffered switches, UGAL choice of minimal vs
    Valiant path by queue depth."""
    return DragonflyNetwork(n_nodes, seed=seed, **params)


def _build_fattree(n_nodes: int, seed: int, **params: Any) -> NetworkSimulator:
    """Electrical three-tier fat-tree (Table VI): folded Clos of buffered
    edge/aggregation/core switches, up*/down* routing with adaptive
    upward port choice."""
    return FatTreeNetwork(n_nodes, seed=seed, **params)


def _build_ideal(n_nodes: int, seed: int, **params: Any) -> NetworkSimulator:
    """Contention-free lower bound: a dedicated link per pair, so only
    serialization and wire delay remain.  Seed-free: nothing random to
    build."""
    return IdealNetwork(n_nodes, **params)


ARCHITECTURES: Dict[str, Callable[..., NetworkSimulator]] = {
    "baldur": _build_baldur,
    "multibutterfly": _build_multibutterfly,
    "dragonfly": _build_dragonfly,
    "fattree": _build_fattree,
    "ideal": _build_ideal,
}


def build_network(
    name: str, n_nodes: int, seed: int = 0, **params: Any
) -> NetworkSimulator:
    """Build the named architecture; ``params`` go to its builder."""
    builder = ARCHITECTURES.get(name) if isinstance(name, str) else None
    if builder is None:
        known = ", ".join(sorted(ARCHITECTURES))
        raise ConfigurationError(
            f"unknown architecture {name!r} (known: {known})"
        )
    return builder(n_nodes, seed, **params)
