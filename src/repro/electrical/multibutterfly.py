"""The electrical multi-butterfly baseline network (Table VI, Sec. II-A).

Same randomized multi-butterfly topology as Baldur (shared construction in
:mod:`repro.topology.butterfly`), but built from buffered electrical
switches: 90 ns switch latency, 24 KB buffer per port, 3 virtual channels,
and credit backpressure instead of packet drops.  Among the m ports of the
chosen output direction the least-loaded one is taken (the electrical
analogue of Baldur's path multiplicity).

Link delays: 100 ns host injection/ejection links (Table VI); inter-stage
links are intra-cabinet and modelled at 10 ns (the published 100 ns figure
is for the input/output links, cf. the Sec. V-B discussion of Baldur's
'100 ns per input/output link').
"""

from __future__ import annotations

from repro import constants as C
from repro.netsim.network import NetworkSimulator
from repro.netsim.packet import Packet
from repro.netsim.switch import Host, Switch, VCBuffer
from repro.topology.butterfly import MultiButterflyTopology

__all__ = ["MultiButterflyNetwork"]

INTER_STAGE_DELAY_NS = 10.0
"""Intra-cabinet stage-to-stage electrical link delay (model assumption)."""

SHARD_EXEC_UNSUPPORTED_REASON = (
    "buffered electrical switches propagate flow-control credits with "
    "zero simulated latency, so a conservative lookahead window "
    "across any cut would be empty"
)
"""Why no buffered electrical fabric runs sharded: ``VCBuffer.release``
wakes the upstream port at the same simulated time, so the conservative
lookahead across any cut through a credit loop is zero (DESIGN.md
section 14)."""


class MultiButterflyNetwork(NetworkSimulator):
    """Packet simulator for the electrical multi-butterfly."""

    _shard_exec_unsupported_reason = SHARD_EXEC_UNSUPPORTED_REASON

    def __init__(
        self,
        n_nodes: int,
        multiplicity: int = C.BALDUR_MULTIPLICITY,
        seed: int = 0,
        switch_latency_ns: float = C.ELECTRICAL_SWITCH_LATENCY_NS,
        link_delay_ns: float = C.MULTIBUTTERFLY_LINK_DELAY_NS,
    ):
        super().__init__(n_nodes)
        self.topology = MultiButterflyTopology(n_nodes, multiplicity, seed)
        self.multiplicity = multiplicity
        self.switch_latency_ns = switch_latency_ns
        self.link_delay_ns = link_delay_ns
        topo = self.topology

        # Build switches stage-major.
        self.switches = []
        for stage in range(topo.n_stages):
            for idx in range(topo.switches_per_stage):
                switch = Switch(
                    self.env,
                    sid=stage * topo.switches_per_stage + idx,
                    latency_ns=switch_latency_ns,
                )
                switch.meta["stage"] = stage
                switch.meta["index"] = idx
                switch.route_fn = self._route
                self.switches.append(switch)

        # Hosts and injection links (100 ns).
        self.hosts = []
        for hid in range(n_nodes):
            host = Host(
                self.env,
                hid,
                rate_gbps=C.LINK_DATA_RATE_GBPS,
                link_delay_ns=link_delay_ns,
            )
            entry = self._switch(0, topo.entry_switch(hid))
            buffer = VCBuffer()
            host.attach(entry, buffer)
            self.hosts.append(host)

        # Inter-stage wiring: m ports per direction, each to its own
        # downstream input buffer (10 ns links); last stage ejects to hosts
        # over 100 ns links.
        m = multiplicity
        for stage in range(topo.n_stages):
            last = topo.is_last_stage(stage)
            for idx in range(topo.switches_per_stage):
                switch = self._switch(stage, idx)
                for direction in (0, 1):
                    targets = topo.next_switches(stage, idx, direction)
                    if last:
                        port = switch.add_port(
                            C.LINK_DATA_RATE_GBPS, link_delay_ns
                        )
                        host = self.hosts[targets[0]]
                        port.connect_host(host.deliver)
                    else:
                        for target in targets:
                            port = switch.add_port(
                                C.LINK_DATA_RATE_GBPS, INTER_STAGE_DELAY_NS
                            )
                            port.connect_switch(
                                self._switch(stage + 1, target), VCBuffer()
                            )
            # Hook up delivery callbacks.
        for host in self.hosts:
            host.on_deliver = self._on_delivered

    def _switch(self, stage: int, idx: int) -> Switch:
        return self.switches[stage * self.topology.switches_per_stage + idx]

    def iter_switches(self):
        """All buffered switches, stage-major (fault-injection targets)."""
        return self.switches

    def unloaded_latency_ns(
        self, src: int = 0, dst: int = 1,
        size_bytes: int = C.PACKET_SIZE_BYTES,
    ) -> float:
        """Analytic zero-load end-to-end latency of one packet.

        Virtual cut-through: injection link + per-stage (switch pipeline
        + outgoing link) + one serialization of the last hop.  Stage-
        symmetric like Baldur, hence independent of (src, dst).
        """
        n = self.topology.n_stages
        return (
            2 * self.link_delay_ns
            + n * self.switch_latency_ns
            + (n - 1) * INTER_STAGE_DELAY_NS
            + C.packet_serialization_ns(size_bytes)
        )

    def _route(self, switch: Switch, packet: Packet):
        """Direction by routing bit; least-loaded port among the m copies."""
        stage = switch.meta["stage"]
        direction = self.topology.routing_bit(packet.dst, stage)
        if self.topology.is_last_stage(stage):
            return direction, packet.vc
        m = self.multiplicity
        base = direction * m
        ports = switch.ports
        # First-minimum scan (ties -> lowest index, exactly like min());
        # avoids a key-lambda call per candidate on the per-hop path.
        best = base
        best_load = ports[base].queued_bytes
        for i in range(base + 1, base + m):
            load = ports[i].queued_bytes
            if load < best_load:
                best = i
                best_load = load
        return best, packet.vc

    def _inject(self, packet: Packet) -> None:
        # Feed-forward topology: VCs never need to escalate, so spread
        # packets across the 3 partitions for full buffer utilization.
        packet.vc = packet.pid % C.ELECTRICAL_VIRTUAL_CHANNELS
        if self.tracer is not None:
            self.tracer.record(self.env.now, "inject", packet)
        self.hosts[packet.src].inject(packet, self.env.now)
