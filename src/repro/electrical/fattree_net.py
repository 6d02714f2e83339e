"""Fat-tree baseline network with adaptive up-routing (Table VI, [17], [55]).

Switch port layouts (k-ary 3-level fat-tree):

* edge switch:  ports ``0..k/2-1`` down to hosts (10 ns),
                ports ``k/2..k-1`` up to the pod's aggregations (50 ns);
* aggregation:  ports ``0..k/2-1`` down to the pod's edges (50 ns),
                ports ``k/2..k-1`` up to its cores (100 ns);
* core:         ports ``0..k-1`` down to each pod's aggregation (100 ns).

Routing is adaptive on the way up (least-loaded valid up-port, per the
multi-rail fat-tree analysis [55]) and deterministic on the way down.
Up/down routing is deadlock-free, so packets spread across the 3 VCs for
buffer utilization.
"""

from __future__ import annotations

from typing import Tuple

from repro import constants as C
from repro.electrical.multibutterfly import SHARD_EXEC_UNSUPPORTED_REASON
from repro.netsim.network import NetworkSimulator
from repro.netsim.packet import Packet
from repro.netsim.switch import Host, Switch, VCBuffer
from repro.topology.fattree import FatTreeTopology

__all__ = ["FatTreeNetwork"]

LEVEL1_NS, LEVEL2_NS, LEVEL3_NS = C.FATTREE_LEVEL_DELAYS_NS


def _least_loaded_up(ports, half: int) -> int:
    """Least-loaded uplink among ports [half, 2*half), first-minimum."""
    best = half
    best_load = ports[half].queued_bytes
    for i in range(half + 1, 2 * half):
        load = ports[i].queued_bytes
        if load < best_load:
            best = i
            best_load = load
    return best


class FatTreeNetwork(NetworkSimulator):
    """Packet simulator for the 3-level full-bisection fat-tree."""

    _shard_exec_unsupported_reason = SHARD_EXEC_UNSUPPORTED_REASON

    def __init__(
        self,
        n_nodes: int,
        seed: int = 0,
        switch_latency_ns: float = C.ELECTRICAL_SWITCH_LATENCY_NS,
    ):
        topo = FatTreeTopology.for_nodes(n_nodes)
        super().__init__(n_nodes)
        self.topology = topo
        self.switch_latency_ns = switch_latency_ns
        k, half = topo.k, topo.half

        def new_switch(sid: int, level: str, pod: int, idx: int) -> Switch:
            switch = Switch(self.env, sid=sid, latency_ns=switch_latency_ns)
            switch.meta.update(level=level, pod=pod, index=idx)
            switch.route_fn = self._route
            return switch

        self.edges = [
            new_switch(p * half + e, "edge", p, e)
            for p in range(k)
            for e in range(half)
        ]
        base = k * half
        self.aggs = [
            new_switch(base + p * half + a, "agg", p, a)
            for p in range(k)
            for a in range(half)
        ]
        base += k * half
        self.cores = [
            new_switch(base + c, "core", -1, c) for c in range(topo.n_core)
        ]

        # Hosts (first n_nodes of the k^3/4 capacity).
        self.hosts = []
        for hid in range(n_nodes):
            pod, edge, _slot = topo.locate_host(hid)
            host = Host(self.env, hid, link_delay_ns=LEVEL1_NS)
            host.attach(self._edge(pod, edge), VCBuffer())
            host.on_deliver = self._on_delivered
            self.hosts.append(host)

        # Edge ports: down to hosts then up to aggs.
        for pod in range(k):
            for e in range(half):
                edge = self._edge(pod, e)
                for slot in range(half):
                    hid = topo.host_id(pod, e, slot)
                    port = edge.add_port(C.LINK_DATA_RATE_GBPS, LEVEL1_NS)
                    if hid < n_nodes:
                        port.connect_host(self.hosts[hid].deliver)
                for a in range(half):
                    port = edge.add_port(C.LINK_DATA_RATE_GBPS, LEVEL2_NS)
                    port.connect_switch(self._agg(pod, a), VCBuffer())

        # Aggregation ports: down to edges then up to cores.
        for pod in range(k):
            for a in range(half):
                agg = self._agg(pod, a)
                for e in range(half):
                    port = agg.add_port(C.LINK_DATA_RATE_GBPS, LEVEL2_NS)
                    port.connect_switch(self._edge(pod, e), VCBuffer())
                for core in topo.cores_above_agg(a):
                    port = agg.add_port(C.LINK_DATA_RATE_GBPS, LEVEL3_NS)
                    port.connect_switch(self.cores[core], VCBuffer())

        # Core ports: one down-link per pod.
        for c, core in enumerate(self.cores):
            a = topo.agg_below_core(c)
            for pod in range(k):
                port = core.add_port(C.LINK_DATA_RATE_GBPS, LEVEL3_NS)
                port.connect_switch(self._agg(pod, a), VCBuffer())

    def iter_switches(self):
        """Edge, aggregation, and core switches (fault-injection targets)."""
        return [*self.edges, *self.aggs, *self.cores]

    def unloaded_latency_ns(
        self, src: int, dst: int,
        size_bytes: int = C.PACKET_SIZE_BYTES,
    ) -> float:
        """Analytic zero-load latency of one packet from src to dst.

        Up/down routing fixes the hop count by pod locality: 1 switch
        (same edge), 3 (same pod), or 5 (via a core).  Each hop costs the
        switch pipeline plus its outgoing link; the host injection link
        and one final serialization complete the path.
        """
        src_pod, src_edge, _ = self.topology.locate_host(src)
        dst_pod, dst_edge, _ = self.topology.locate_host(dst)
        if (src_pod, src_edge) == (dst_pod, dst_edge):
            out_links = (LEVEL1_NS,)
        elif src_pod == dst_pod:
            out_links = (LEVEL2_NS, LEVEL2_NS, LEVEL1_NS)
        else:
            out_links = (LEVEL2_NS, LEVEL3_NS, LEVEL3_NS, LEVEL2_NS,
                         LEVEL1_NS)
        return (
            LEVEL1_NS
            + len(out_links) * self.switch_latency_ns
            + sum(out_links)
            + C.packet_serialization_ns(size_bytes)
        )

    def _edge(self, pod: int, e: int) -> Switch:
        return self.edges[pod * self.topology.half + e]

    def _agg(self, pod: int, a: int) -> Switch:
        return self.aggs[pod * self.topology.half + a]

    # -- routing --------------------------------------------------------------------

    def _route(self, switch: Switch, packet: Packet) -> Tuple[int, int]:
        topo = self.topology
        half = topo.half
        level = switch.meta["level"]
        dst_pod, dst_edge, dst_slot = topo.locate_host(packet.dst)

        if level == "edge":
            if switch.meta["pod"] == dst_pod and switch.meta["index"] == dst_edge:
                return dst_slot, packet.vc  # down to the host
            # Any aggregation works: first-minimum load scan over the
            # uplinks (ties -> lowest index, exactly like min()).
            return _least_loaded_up(switch.ports, half), packet.vc

        if level == "agg":
            if switch.meta["pod"] == dst_pod:
                return dst_edge, packet.vc  # down to the destination edge
            # Any core above this agg works.
            return _least_loaded_up(switch.ports, half), packet.vc

        # Core: deterministic down to the destination pod.
        return dst_pod, packet.vc

    def _inject(self, packet: Packet) -> None:
        packet.vc = packet.pid % C.ELECTRICAL_VIRTUAL_CHANNELS
        if self.tracer is not None:
            self.tracer.record(self.env.now, "inject", packet)
        self.hosts[packet.src].inject(packet, self.env.now)
