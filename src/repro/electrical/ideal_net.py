"""The ideal reference network simulator (Table VI).

Infinite bandwidth and a flat packet latency: every packet is delivered
exactly ``latency_ns`` after creation, with no queueing anywhere.
"""

from __future__ import annotations

from repro import constants as C
from repro.netsim.network import NetworkSimulator
from repro.netsim.packet import Packet
from repro.topology.ideal import IdealTopology

__all__ = ["IdealNetwork"]


class IdealNetwork(NetworkSimulator):
    """Delivers every packet after a constant delay (200 ns by default)."""

    def __init__(
        self, n_nodes: int, latency_ns: float = C.IDEAL_PACKET_LATENCY_NS
    ):
        super().__init__(n_nodes)
        self.topology = IdealTopology(n_nodes, latency_ns)
        self.latency_ns = latency_ns

    def unloaded_latency_ns(
        self, src: int = 0, dst: int = 1,
        size_bytes: int = C.PACKET_SIZE_BYTES,
    ) -> float:
        """Analytic zero-load latency: the flat delay, by construction."""
        return self.latency_ns

    def _inject(self, packet: Packet) -> None:
        packet.inject_time = self.env.now
        if self.tracer is not None:
            self.tracer.record(self.env.now, "inject", packet)
        self.env.schedule(self.latency_ns, self._deliver, packet)

    def _deliver(self, packet: Packet) -> None:
        packet.deliver_time = self.env.now
        self._on_delivered(packet, self.env.now)
