"""Dragonfly baseline network with UGAL adaptive routing (Table VI, [16]).

Router port layout (radix p + a-1 + h):

* ports ``0 .. p-1``            -- terminal links to hosts (10 ns);
* ports ``p .. p+a-2``          -- local links to the other a-1 routers of
  the group (10 ns intra-group, Table VI);
* ports ``p+a-1 .. p+a-1+h-1``  -- global links (100 ns inter-group).

Routing is UGAL-L [16]: at the source router the packet chooses between
the minimal path and a Valiant path through a random intermediate group by
comparing (queue depth x hop count) of the two candidate first hops.  The
chosen path is then source-routed.  The VC is incremented after each global
hop (paths take at most 2 global hops, hence the 3 VCs of Table VI -- this
is the standard dragonfly deadlock-avoidance discipline).

From ~83K nodes the intra-group links become optical (Sec. VI-A); that
affects only the power model, not the timing used here.
"""

from __future__ import annotations

from typing import List, Tuple

from repro import constants as C
from repro.electrical.multibutterfly import SHARD_EXEC_UNSUPPORTED_REASON
from repro.netsim.network import NetworkSimulator
from repro.netsim.packet import Packet
from repro.netsim.switch import Host, Switch, VCBuffer
from repro.sim.rand import stream
from repro.topology.dragonfly import DragonflyTopology

__all__ = ["DragonflyNetwork"]

UGAL_BIAS_BYTES = C.PACKET_SIZE_BYTES
"""UGAL-L bias toward the minimal path (one packet's worth of queue)."""


class DragonflyNetwork(NetworkSimulator):
    """Packet simulator for the dragonfly baseline."""

    _shard_exec_unsupported_reason = SHARD_EXEC_UNSUPPORTED_REASON

    def __init__(
        self,
        n_nodes: int,
        seed: int = 0,
        switch_latency_ns: float = C.ELECTRICAL_SWITCH_LATENCY_NS,
        adaptive: bool = True,
    ):
        topo = DragonflyTopology.for_nodes(n_nodes)
        super().__init__(n_nodes)
        self.topology = topo
        self.adaptive = adaptive
        self._rng = stream(seed, "dragonfly-valiant")

        # Routers.
        self.routers: List[Switch] = []
        for rid in range(topo.n_routers):
            router = Switch(self.env, sid=rid, latency_ns=switch_latency_ns)
            router.route_fn = self._route
            router.meta["group"] = rid // topo.a
            router.meta["local"] = rid % topo.a
            self.routers.append(router)

        # Hosts: only the first n_nodes terminals are populated (the
        # balanced construction rounds the node count up; Sec. VI-A notes
        # scales differ slightly between topologies).
        self.hosts: List[Host] = []
        for hid in range(n_nodes):
            group, local = topo.router_of_node(hid)
            host = Host(
                self.env,
                hid,
                link_delay_ns=C.DRAGONFLY_INTRA_GROUP_DELAY_NS,
            )
            host.attach(self.routers[topo.router_id(group, local)], VCBuffer())
            host.on_deliver = self._on_delivered
            self.hosts.append(host)

        # Router ports: terminals, locals, globals -- in that order.
        for rid, router in enumerate(self.routers):
            group, local = rid // topo.a, rid % topo.a
            for slot in range(topo.p):
                hid = rid * topo.p + slot
                port = router.add_port(
                    C.LINK_DATA_RATE_GBPS, C.DRAGONFLY_INTRA_GROUP_DELAY_NS
                )
                if hid < n_nodes:
                    port.connect_host(self.hosts[hid].deliver)
            for peer in range(topo.a):
                if peer == local:
                    continue
                port = router.add_port(
                    C.LINK_DATA_RATE_GBPS, C.DRAGONFLY_INTRA_GROUP_DELAY_NS
                )
                port.connect_switch(
                    self.routers[topo.router_id(group, peer)], VCBuffer()
                )
            for link in range(topo.h):
                peer = topo.global_peer(group, local, link)
                port = router.add_port(
                    C.LINK_DATA_RATE_GBPS, C.DRAGONFLY_INTER_GROUP_DELAY_NS
                )
                port.connect_switch(
                    self.routers[
                        topo.router_id(peer.peer_group, peer.peer_router)
                    ],
                    VCBuffer(),
                )

    def iter_switches(self):
        """All routers (fault-injection targets)."""
        return self.routers

    def unloaded_latency_ns(
        self, src: int, dst: int,
        size_bytes: int = C.PACKET_SIZE_BYTES,
    ) -> float:
        """Analytic zero-load latency of one packet from src to dst.

        At zero load UGAL-L always takes the minimal path (the Valiant
        candidate loses the queue comparison to the bias), so the latency
        is the injection link plus, for every router of the minimal
        path, its pipeline latency and outgoing link delay, plus one
        final serialization.
        """
        topo = self.topology
        group, local = topo.router_of_node(src)
        dst_group, _ = topo.router_of_node(dst)
        router = self.routers[topo.router_id(group, local)]
        ports, _vcs = self._path_ports(router.sid, dst, dst_group)
        total = C.DRAGONFLY_INTRA_GROUP_DELAY_NS  # host injection link
        for port_idx in ports:
            port = router.ports[port_idx]
            total += router.latency_ns + port.link_delay_ns
            router = port.target_switch  # None after the terminal port
        return total + C.packet_serialization_ns(size_bytes)

    # -- port arithmetic ---------------------------------------------------------

    def _terminal_port(self, dst: int) -> int:
        return dst % self.topology.p

    def _local_port(self, local: int, peer: int) -> int:
        p = self.topology.p
        return p + (peer if peer < local else peer - 1)

    def _global_port(self, link: int) -> int:
        return self.topology.p + self.topology.a - 1 + link

    # -- path construction ---------------------------------------------------------

    def _path_ports(
        self, router_id: int, dst: int, via_group: int
    ) -> Tuple[List[int], List[int]]:
        """Source-routed (ports, vcs) from ``router_id`` to host ``dst``
        passing through ``via_group`` (set via = dst group for minimal)."""
        topo = self.topology
        ports: List[int] = []
        vcs: List[int] = []
        vc = 0
        group, local = router_id // topo.a, router_id % topo.a
        dst_group, dst_local = topo.router_of_node(dst)
        groups = [g for g in (via_group, dst_group) if True]
        # Walk: current (group, local) until we reach dst_group.
        for target_group in groups:
            if group == target_group:
                continue
            gw_local, gw_link = topo.gateway_router(group, target_group)
            if local != gw_local:
                ports.append(self._local_port(local, gw_local))
                vcs.append(vc)
                local = gw_local
            peer = topo.global_peer(group, gw_local, gw_link)
            ports.append(self._global_port(gw_link))
            vc += 1  # VC escalates after each global hop
            vcs.append(vc)
            group, local = peer.peer_group, peer.peer_router
        if local != dst_local:
            ports.append(self._local_port(local, dst_local))
            vcs.append(vc)
        ports.append(self._terminal_port(dst))
        vcs.append(vc)
        return ports, vcs

    # -- routing --------------------------------------------------------------------

    def _route(self, router: Switch, packet: Packet) -> Tuple[int, int]:
        if packet.plan_ports is None:
            self._plan(router, packet)
        port = packet.plan_ports.pop(0)
        vc = packet.plan_vcs.pop(0)
        return port, vc

    def _plan(self, router: Switch, packet: Packet) -> None:
        """UGAL-L decision at the source router."""
        topo = self.topology
        rid = router.sid
        dst_group, _ = topo.router_of_node(packet.dst)
        min_ports, min_vcs = self._path_ports(rid, packet.dst, dst_group)
        choice = (min_ports, min_vcs)
        if self.adaptive and topo.groups > 2:
            src_group = rid // topo.a
            via = self._rng.randrange(topo.groups)
            while via in (src_group, dst_group):
                via = self._rng.randrange(topo.groups)
            val_ports, val_vcs = self._path_ports(rid, packet.dst, via)
            q_min = router.ports[min_ports[0]].load_bytes
            q_val = router.ports[val_ports[0]].load_bytes
            if q_min * len(min_ports) > (
                q_val * len(val_ports) + UGAL_BIAS_BYTES
            ):
                choice = (val_ports, val_vcs)
        packet.plan_ports = list(choice[0])
        packet.plan_vcs = list(choice[1])

    def _inject(self, packet: Packet) -> None:
        packet.vc = 0
        packet.plan_ports = None
        packet.plan_vcs = None
        if self.tracer is not None:
            self.tracer.record(self.env.now, "inject", packet)
        self.hosts[packet.src].inject(packet, self.env.now)
