"""Shard partition plans over the repo's topology objects.

A :class:`ShardPlan` answers three questions for the window engine:

* which shard owns each node (hosts always have an owner; Baldur's
  switches are owned stage-wise),
* what the conservative lookahead is (the minimum delay over all
  boundary-crossing edges — every cross-shard message generated at time
  ``t`` arrives no earlier than ``t + lookahead_ns``), and
* which physical links cross the cut (``iter_edges`` / ``boundary``),
  used by the partition-invariant property tests.

Edges are enumerated lazily: a 64k-endpoint Baldur instance has millions
of links and the engine itself only ever needs the ownership arrays and
the lookahead scalar.

Delays attached to edges are *lower bounds* on the modeled hop delay
(serialization time is load-dependent and strictly positive, so it is
excluded), which is exactly what a conservative lookahead needs.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro.errors import ConfigurationError

__all__ = [
    "Node",
    "PlanEdge",
    "ShardPlan",
    "block_shard",
    "multistage_plan",
]

Node = Tuple[Any, ...]
"""A plan node: ``("host", h)`` or ``("switch", stage, idx)``."""

PlanEdge = Tuple[Node, Node, float]
"""One directed physical link: ``(src_node, dst_node, min_delay_ns)``."""


def block_shard(index: int, count: int, n_shards: int) -> int:
    """Contiguous-block assignment: item ``index`` of ``count`` -> shard.

    ``index * n_shards // count`` keeps blocks contiguous and balanced to
    within one item, and is the single assignment rule used by every plan
    builder (hosts and stages both use it) so that the mapping is
    trivially deterministic and documented.
    """
    return index * n_shards // count


class ShardPlan:
    """A partition of one network's node/link graph into ``n_shards``."""

    __slots__ = (
        "kind",
        "n_shards",
        "n_nodes",
        "host_shard",
        "stage_shard",
        "lookahead_ns",
        "cut_delay_ns",
        "_edge_fn",
        "_node_fn",
    )

    def __init__(
        self,
        kind: str,
        n_shards: int,
        host_shard: List[int],
        lookahead_ns: float,
        edge_fn: Callable[[], Iterator[PlanEdge]],
        node_fn: Callable[[Node], int],
        stage_shard: List[int],
        cut_delay_ns: float = 0.0,
    ) -> None:
        if n_shards < 1:
            raise ConfigurationError(f"n_shards must be >= 1, got {n_shards}")
        if cut_delay_ns < 0 or not math.isfinite(cut_delay_ns):
            raise ConfigurationError(
                f"cut_delay_ns must be finite and >= 0, got {cut_delay_ns}"
            )
        self.kind = kind
        self.n_shards = n_shards
        self.n_nodes = len(host_shard)
        self.host_shard = host_shard
        self.stage_shard = stage_shard
        self.lookahead_ns = lookahead_ns
        self.cut_delay_ns = cut_delay_ns
        self._edge_fn = edge_fn
        self._node_fn = node_fn

    def shard_of(self, node: Node) -> int:
        """Owning shard of a plan node."""
        return self._node_fn(node)

    def iter_edges(self) -> Iterator[PlanEdge]:
        """Yield every physical link once (lazily; may be huge)."""
        return self._edge_fn()

    def boundary(self) -> Dict[int, Tuple[Node, Node, float, int, int]]:
        """Map edge index -> ``(u, v, delay, shard_u, shard_v)`` for every
        boundary-crossing edge.  Keyed by the edge's position in
        ``iter_edges()`` order so parallel links stay distinct."""
        out: Dict[int, Tuple[Node, Node, float, int, int]] = {}
        for i, (u, v, delay) in enumerate(self.iter_edges()):
            su = self._node_fn(u)
            sv = self._node_fn(v)
            if su != sv:
                out[i] = (u, v, delay, su, sv)
        return out

    def validate(self) -> None:
        """Check the plan's internal invariants (test/debug helper).

        * every edge endpoint is owned by a shard in range,
        * ``lookahead_ns`` equals the minimum boundary-edge delay (``inf``
          when nothing crosses), and
        * the lookahead is strictly positive whenever a boundary exists
          (a zero-lookahead plan cannot be executed conservatively).
        """
        min_cut = math.inf
        for u, v, delay in self.iter_edges():
            for node in (u, v):
                shard = self._node_fn(node)
                if not 0 <= shard < self.n_shards:
                    raise ConfigurationError(
                        f"plan {self.kind}: node {node!r} assigned to "
                        f"shard {shard} of {self.n_shards}"
                    )
            if delay < 0 or not math.isfinite(delay):
                raise ConfigurationError(
                    f"plan {self.kind}: edge {u!r}->{v!r} has bad delay {delay}"
                )
            if self._node_fn(u) != self._node_fn(v):
                min_cut = min(min_cut, delay)
        if min_cut != self.lookahead_ns:
            raise ConfigurationError(
                f"plan {self.kind}: lookahead {self.lookahead_ns} != "
                f"min boundary delay {min_cut}"
            )
        if min_cut is not math.inf and not min_cut > 0:
            raise ConfigurationError(
                f"plan {self.kind}: zero-lookahead boundary (min cut delay "
                f"{min_cut}); conservative windows would never advance"
            )


def multistage_plan(
    topology: Any,
    n_shards: int,
    *,
    link_delay_ns: float,
    switch_latency_ns: float,
    cut_delay_ns: float = 0.0,
) -> ShardPlan:
    """Stage-cut plan for Baldur's multi-butterfly fabric.

    Stages are split into ``n_shards`` contiguous blocks; hosts into
    matching contiguous blocks, so the first host block is co-resident
    with the first stages (injection is usually intra-shard) and the last
    host block with the last stages.  ``cut_delay_ns`` models extra fiber
    on the *cut* inter-stage hops only (e.g. the shards live in separate
    cabinets); the default 0.0 preserves the single-cabinet physics
    exactly, at the price of a lookahead of one switch latency.
    """
    n_nodes = int(topology.n_nodes)
    n_stages = int(topology.n_stages)
    sps = int(topology.switches_per_stage)
    wiring = topology.wiring
    host_shard = [block_shard(h, n_nodes, n_shards) for h in range(n_nodes)]
    stage_shard = [block_shard(s, n_stages, n_shards) for s in range(n_stages)]

    def node_fn(node: Node) -> int:
        if node[0] == "host":
            return host_shard[node[1]]
        if node[0] == "switch":
            return stage_shard[node[1]]
        raise ConfigurationError(f"unknown multistage plan node {node!r}")

    def edge_fn() -> Iterator[PlanEdge]:
        for h in range(n_nodes):
            yield ("host", h), ("switch", 0, topology.entry_switch(h)), link_delay_ns
        for s in range(n_stages):
            last = s == n_stages - 1
            stage_cut = (not last) and stage_shard[s] != stage_shard[s + 1]
            hop = switch_latency_ns + (cut_delay_ns if stage_cut else 0.0)
            for i in range(sps):
                for targets in wiring[s][i]:
                    for t in targets:
                        if last:
                            yield (
                                ("switch", s, i),
                                ("host", t),
                                switch_latency_ns + link_delay_ns,
                            )
                        else:
                            yield ("switch", s, i), ("switch", s + 1, t), hop

    # Lookahead: minimum over the crossing classes actually present.
    min_cut = math.inf
    if n_shards > 1:
        if any(host_shard[h] != stage_shard[0] for h in range(n_nodes)):
            min_cut = min(min_cut, link_delay_ns)
        if any(
            stage_shard[s] != stage_shard[s + 1] for s in range(n_stages - 1)
        ):
            min_cut = min(min_cut, switch_latency_ns + cut_delay_ns)
        last = n_stages - 1
        # Last-stage switch i feeds hosts listed in its wiring targets.
        if any(
            stage_shard[last] != host_shard[t]
            for i in range(sps)
            for targets in wiring[last][i]
            for t in targets
        ):
            min_cut = min(min_cut, switch_latency_ns + link_delay_ns)
    return ShardPlan(
        "baldur",
        n_shards,
        host_shard,
        min_cut,
        edge_fn,
        node_fn,
        stage_shard=stage_shard,
        cut_delay_ns=cut_delay_ns,
    )
