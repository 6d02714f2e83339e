"""Multi-butterfly topology with randomized inter-stage wiring (Sec. IV).

A radix-2 multi-stage network for N = 2^S nodes has S stages of N/2
switches.  Viewed as a sorting network, stage s narrows a packet's possible
destination by a factor of two: the rows are partitioned into *blocks* of
size N/2^s (rows sharing the top s destination bits), and a switch's output
direction d leads into the sub-block whose next destination bit is d.

With path multiplicity m, every (switch, direction) has m physical output
ports, and each port is wired to a *randomly chosen* switch of the correct
sub-block in the next stage.  This randomization provides the 'expansion'
property [14] that makes the network immune to worst-case permutations
[19].  The same construction serves both Baldur and the electrical
multi-butterfly baseline (they share the topology; only the switches
differ).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.errors import TopologyError
from repro.sim.rand import stream

__all__ = ["MultiButterflyTopology"]


class MultiButterflyTopology:
    """Randomized multi-butterfly wiring for ``n_nodes`` (a power of two).

    ``wiring[s][i][d]`` is the list of m next-stage switch indices reached
    by the m output ports of direction ``d`` of switch ``i`` in stage ``s``.
    The last stage connects to hosts instead (direction d of last-stage
    switch i reaches host ``2*i + d`` on all m ports).
    """

    def __init__(
        self,
        n_nodes: int,
        multiplicity: int = 1,
        seed: int = 0,
        randomize: bool = True,
    ):
        """``randomize=False`` builds a *structured* wiring (deterministic
        round-robin port targets) -- no expansion property.  Used by the
        ablation bench to quantify what the randomization buys
        (Sec. IV-E, [14], [19])."""
        if n_nodes < 4 or n_nodes & (n_nodes - 1):
            raise TopologyError(
                f"node count must be a power of two >= 4, got {n_nodes}"
            )
        if multiplicity < 1:
            raise TopologyError("multiplicity must be >= 1")
        self.n_nodes = n_nodes
        self.multiplicity = multiplicity
        self.seed = seed
        self.randomize = randomize
        self.n_stages = n_nodes.bit_length() - 1
        self.switches_per_stage = n_nodes // 2
        self.wiring = self._build_wiring()
        # Precomputed routing bits: bit_table[dst][stage] equals
        # routing_bit(dst, stage) without the per-call validation.  The
        # table is n_nodes x n_stages ints (a few KB at the largest sizes
        # simulated), and lets hot loops replace a method call + shifts
        # per hop with two list indexes.
        top = self.n_stages - 1
        self.bit_table: List[List[int]] = [
            [(dst >> (top - s)) & 1 for s in range(self.n_stages)]
            for dst in range(n_nodes)
        ]

    # -- construction --------------------------------------------------------

    def _sub_block_switches(self, stage: int, block: int, bit: int) -> range:
        """Switches of the next stage's sub-block selected by ``bit``.

        ``block`` indexes the stage's blocks (each of ``N >> stage`` rows).
        """
        next_switch_block = (self.n_nodes >> (stage + 1)) // 2
        target_block = 2 * block + bit
        start = target_block * next_switch_block
        return range(start, start + next_switch_block)

    def _build_wiring(self) -> List[List[Tuple[List[int], List[int]]]]:
        rng = stream(self.seed, "multibutterfly-wiring")
        m = self.multiplicity
        wiring: List[List[Tuple[List[int], List[int]]]] = []
        for stage in range(self.n_stages - 1):
            switches_per_block = (self.n_nodes >> stage) // 2
            stage_wiring = []
            for i in range(self.switches_per_stage):
                block = i // switches_per_block
                per_direction = []
                for bit in (0, 1):
                    # A range, not a list: random.sample/choice draw the
                    # same values from either, without an O(N) copy.
                    candidates = self._sub_block_switches(stage, block, bit)
                    if not self.randomize:
                        # Structured wiring: round-robin by switch index.
                        targets = [
                            candidates[(i + k) % len(candidates)]
                            for k in range(m)
                        ]
                    elif len(candidates) >= m:
                        targets = rng.sample(candidates, m)
                    else:
                        # Tiny sub-blocks near the output: reuse switches.
                        targets = [rng.choice(candidates) for _ in range(m)]
                    per_direction.append(targets)
                stage_wiring.append(tuple(per_direction))
            wiring.append(stage_wiring)
        # Last stage: direction d of switch i feeds host 2i + d on all ports.
        wiring.append(
            [
                ([2 * i] * m, [2 * i + 1] * m)
                for i in range(self.switches_per_stage)
            ]
        )
        return wiring

    # -- navigation -----------------------------------------------------------

    def entry_switch(self, node: int) -> int:
        """First-stage switch a host injects into."""
        self._check_node(node)
        return node // 2

    def routing_bit(self, dst: int, stage: int) -> int:
        """The routing bit consumed at ``stage`` (destination MSB first)."""
        self._check_node(dst)
        if not 0 <= stage < self.n_stages:
            raise TopologyError(f"stage {stage} out of range")
        return (dst >> (self.n_stages - 1 - stage)) & 1

    def routing_bits(self, dst: int) -> List[int]:
        """All routing bits for a packet headed to ``dst`` (one per stage)."""
        return [self.routing_bit(dst, s) for s in range(self.n_stages)]

    def next_switches(self, stage: int, switch: int, bit: int) -> Sequence[int]:
        """The m next-stage switches (or the host, at the last stage)
        reachable from (stage, switch) in direction ``bit``."""
        return self.wiring[stage][switch][bit]

    def is_last_stage(self, stage: int) -> bool:
        """True when ``stage`` connects to hosts."""
        return stage == self.n_stages - 1

    def deterministic_path(self, src: int, dst: int) -> List[int]:
        """Switch indices visited using port 0 everywhere (m=1 semantics).

        This is the deterministic testing path used for fault diagnosis
        (Sec. IV-F).
        """
        path = []
        switch = self.entry_switch(src)
        for stage in range(self.n_stages):
            path.append(switch)
            bit = self.routing_bit(dst, stage)
            switch = self.next_switches(stage, switch, bit)[0]
        return path

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.n_nodes:
            raise TopologyError(f"node {node} out of range [0, {self.n_nodes})")

    @property
    def total_switches(self) -> int:
        """Total 2x2 switches in the network."""
        return self.n_stages * self.switches_per_stage

    @property
    def switches_per_node(self) -> float:
        """Switches per server node (used by the power model)."""
        return self.total_switches / self.n_nodes
