"""RotorNet-style packet simulator: rotor switches + matching-cycle scheduler.

The one zoo architecture that is not a Sec. V network: a
:class:`~repro.topology.rotor.RotorTopology` rotation schedule, direct
(single-hop) rotation routing, bufferless optical rotor crossbars, and a
slotted matching-cycle scheduler over the shared
:class:`~repro.netsim.network.NetworkSimulator` substrate.

Operation per slot of length ``slot_ns`` (followed by a ``reconfig_ns``
dark window while the rotors step to their next matching):

* each rotor applies its current matching; source ``src`` may transmit
  to exactly the destinations its rotor uplinks are matched to;
* packets wait in per-destination virtual output queues (VOQs) at the
  source until the rotation connects their pair -- there are no
  in-network buffers and no drops, so latency is dominated by the wait
  for the right matching (at most one full cycle);
* a transmission must finish within the slot (no spillover across a
  reconfiguration), so per-slot link capacity is ``slot_ns`` of wire
  time per uplink.

Everything is deterministic: the rotation is a fixed function of time,
queues are FIFO, and no RNG is consumed anywhere (seeds only shape the
injected workload).  The simulator is event-driven -- slot-boundary wake
events are scheduled only while traffic is queued, so an idle network
schedules nothing and :meth:`~repro.netsim.network.NetworkSimulator.run`
terminates like any other simulator.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Optional, Sequence, Tuple

from repro import constants as C
from repro.errors import ConfigurationError
from repro.netsim.network import NetworkSimulator
from repro.netsim.packet import Packet
from repro.shard.runtime import MSG_DELIVER
from repro.topology.rotor import RotorTopology

if TYPE_CHECKING:
    from repro.shard.plan import ShardPlan

__all__ = ["RotorNetwork"]

DEFAULT_SLOT_NS = 1000.0
"""Connected time per matching.  Real rotor switches hold matchings for
tens of microseconds; the model scales the slot down to the nanosecond
horizons of the Sec. V experiments while keeping the duty cycle."""

DEFAULT_RECONFIG_NS = 100.0
"""Dark window while the rotors step to the next matching (~90% duty
cycle, the RotorNet design point)."""


class RotorNetwork(NetworkSimulator):
    """Packet simulator for a RotorNet-style all-optical rotor fabric."""

    __slots__ = (
        "topology",
        "n_rotors",
        "slot_ns",
        "reconfig_ns",
        "link_delay_ns",
        "link_rate_gbps",
        "switch_latency_ns",
        "_period",
        "_hop_ns",
        "_voq",
        "_uplink_free_at",
        "_queued",
        "_wake_at",
    )

    def __init__(
        self,
        n_nodes: int,
        n_rotors: int = 4,
        slot_ns: float = DEFAULT_SLOT_NS,
        reconfig_ns: float = DEFAULT_RECONFIG_NS,
        link_delay_ns: float = C.BALDUR_LINK_DELAY_NS,
        link_rate_gbps: float = C.LINK_DATA_RATE_GBPS,
        switch_latency_ns: float = 0.0,
        topology: Optional[RotorTopology] = None,
    ) -> None:
        """Build a rotor network.

        ``topology`` accepts any rotation schedule exposing the
        :class:`~repro.topology.rotor.RotorTopology` interface
        (``n_rotors``, ``slots_per_cycle``, ``matching``); by default the
        round-robin construction is used.  ``slot_ns`` must fit at least
        one packet's serialization time at ``link_rate_gbps``.
        """
        super().__init__(n_nodes)
        if slot_ns <= 0 or reconfig_ns < 0:
            raise ConfigurationError(
                "slot_ns must be > 0 and reconfig_ns >= 0"
            )
        self.topology = topology or RotorTopology(n_nodes, n_rotors)
        if self.topology.n_nodes != n_nodes:
            raise ConfigurationError(
                "topology node count does not match the network"
            )
        self.n_rotors = self.topology.n_rotors
        self.slot_ns = slot_ns
        self.reconfig_ns = reconfig_ns
        self.link_delay_ns = link_delay_ns
        self.link_rate_gbps = link_rate_gbps
        self.switch_latency_ns = switch_latency_ns
        self._period = slot_ns + reconfig_ns
        # Source link + rotor passthrough + destination link; the last
        # byte lands one serialization time after the head (cut-through).
        self._hop_ns = 2 * link_delay_ns + switch_latency_ns
        # Per-source virtual output queues: _voq[src][dst] is the FIFO of
        # packets waiting for a matching to dst.
        self._voq: List[Dict[int, Deque[Packet]]] = [
            {} for _ in range(n_nodes)
        ]
        # Absolute time until which uplink (rotor * n_nodes + src) is
        # serializing; lazily clamped to the current slot start, so slot
        # turnover never needs to touch idle uplinks.
        self._uplink_free_at: List[float] = [0.0] * (
            self.n_rotors * n_nodes
        )
        self._queued = 0
        self._wake_at = -1.0

    # -- the matching-cycle clock -------------------------------------------

    def _slot_of(self, now: float) -> int:
        """The rotation slot containing ``now`` (float-robust floor)."""
        period = self._period
        slot = int(now / period)
        start = slot * period
        if now < start:
            slot -= 1
        elif now >= start + period:
            slot += 1
        return slot

    def _ensure_wake(self, now: float) -> None:
        """Arm a wake event at the next slot boundary, if none is armed."""
        next_start = (self._slot_of(now) + 1) * self._period
        if 0.0 <= self._wake_at <= next_start:
            return
        self.env.schedule_at(next_start, self._on_slot_wake)
        self._wake_at = next_start

    def _on_slot_wake(self) -> None:
        """Slot boundary: drain every VOQ the new matchings connect."""
        self._wake_at = -1.0
        if not self._queued:
            return
        now = self.env.now
        slot = self._slot_of(now)
        if now - slot * self._period < self.slot_ns:
            self._pump_all(slot)
        if self._queued:
            self._ensure_wake(now)

    def _pump_all(self, slot: int) -> None:
        matching = self.topology.matching
        voq = self._voq
        for rotor in range(self.n_rotors):
            dsts = matching(rotor, slot)
            for src in range(self.n_nodes):
                queues = voq[src]
                if not queues:
                    continue
                dst = dsts[src]
                if dst != src and dst in queues:
                    self._drain(rotor, src, dst, slot)

    def _drain(self, rotor: int, src: int, dst: int, slot: int) -> None:
        """Send VOQ[src][dst] packets over uplink (rotor, src) while the
        slot has wire time left."""
        queue = self._voq[src].get(dst)
        if not queue:
            return
        idx = rotor * self.n_nodes + src
        slot_start = slot * self._period
        slot_end = slot_start + self.slot_ns
        free = self._uplink_free_at[idx]
        if free < slot_start:
            free = slot_start
        now = self.env.now
        if free < now:
            free = now
        env = self.env
        rate = self.link_rate_gbps
        hop_ns = self._hop_ns
        tracer = self.tracer
        metrics = self.metrics
        # Sharded worker: the whole FIFO drains toward one destination, so
        # the ownership test hoists out of the loop.  The delivery delay
        # (tx + hop_ns > hop_ns) is bounded below by the plan lookahead.
        ctx = self._shard_ctx
        dest = -1 if ctx is None else ctx.host_shard[dst]
        cross = ctx is not None and dest != ctx.shard
        while queue:
            packet = queue[0]
            tx = packet.serialization_time_ns(rate)
            if free + tx > slot_end:
                break
            queue.popleft()
            self._queued -= 1
            packet.hops += 1
            if tracer is not None:
                tracer.record(
                    free, "stage_arrival", packet, switch=rotor, stage=slot
                )
            if metrics is not None:
                metrics.incr("rotor_tx", rotor, free)
            if cross:
                ctx.send(
                    dest,
                    (MSG_DELIVER, free + tx + hop_ns, packet.pid,
                     packet.src, packet.dst, packet.size_bytes,
                     packet.create_time, packet.is_ack, packet.acked_pid,
                     packet.hops),
                )
            else:
                env.schedule_at(free + tx + hop_ns, self._deliver, packet)
            free += tx
        self._uplink_free_at[idx] = free
        if not queue:
            del self._voq[src][dst]

    # -- injection and delivery ---------------------------------------------

    def _inject(self, packet: Packet) -> None:
        tx = packet.serialization_time_ns(self.link_rate_gbps)
        if tx > self.slot_ns:
            raise ConfigurationError(
                f"packet of {packet.size_bytes} B needs {tx} ns on the "
                f"wire but a matching slot is only {self.slot_ns} ns"
            )
        if self.tracer is not None:
            self.tracer.record(self.env.now, "inject", packet)
        src, dst = packet.src, packet.dst
        queues = self._voq[src]
        queue = queues.get(dst)
        if queue is None:
            queue = queues[dst] = deque()
        queue.append(packet)
        self._queued += 1
        now = self.env.now
        slot = self._slot_of(now)
        if now - slot * self._period < self.slot_ns:
            # Mid-slot arrival: if some rotor currently matches this pair
            # (the round-robin construction puts offset o on exactly one
            # rotor), the packet may go out in the remainder of the slot.
            offset = (dst - src) % self.n_nodes
            rotor = (offset - 1) % self.n_rotors
            position = (offset - 1) // self.n_rotors
            if (
                position < self.topology.slots_per_cycle
                and slot % self.topology.slots_per_cycle == position
            ):
                self._drain(rotor, src, dst, slot)
        if self._queued:
            self._ensure_wake(now)

    def _deliver(self, packet: Packet) -> None:
        packet.deliver_time = self.env.now
        self._on_delivered(packet, self.env.now)

    # -- sharded execution (repro.shard, DESIGN.md section 14) ----------------

    def shard_plan(
        self, n_shards: int, shard_latency_ns: float = 0.0
    ) -> "ShardPlan":
        """Host-cut partition.  Rotor switch state is a pure function of
        simulated time (no buffers, no RNG), so every worker replicates
        the rotation and only host state (VOQs, uplink serialization
        clocks) is partitioned; deliveries are scheduled end-to-end with
        at least ``2 * link_delay + switch_latency`` of delay, which is
        the lookahead.  ``shard_latency_ns`` does not apply."""
        from repro.shard.plan import host_plan

        return host_plan(
            self.n_nodes, n_shards, hop_delay_ns=self._hop_ns, kind="rotor"
        )

    def shard_recipe(self) -> Tuple[Any, Dict[str, Any]]:
        return (
            type(self),
            {
                "n_nodes": self.n_nodes,
                "n_rotors": self.n_rotors,
                "slot_ns": self.slot_ns,
                "reconfig_ns": self.reconfig_ns,
                "link_delay_ns": self.link_delay_ns,
                "link_rate_gbps": self.link_rate_gbps,
                "switch_latency_ns": self.switch_latency_ns,
                "topology": self.topology,
            },
        )

    def _shard_schedule_inbox(self, messages: Sequence[Any]) -> None:
        env = self.env
        for msg in messages:
            if msg[0] != MSG_DELIVER:  # pragma: no cover - protocol bug
                raise ConfigurationError(
                    f"unknown cross-shard message kind {msg[0]}"
                )
            (_kind, when, pid, src, dst, size_bytes,
             create_time, is_ack, acked_pid, hops) = msg
            packet = Packet(
                pid=pid,
                src=src,
                dst=dst,
                size_bytes=size_bytes,
                create_time=create_time,
                is_ack=is_ack,
                acked_pid=acked_pid,
            )
            packet.hops = hops
            env.schedule_at(when, self._deliver, packet)

    def _shard_export(self) -> Dict[str, Any]:
        payload = super()._shard_export()
        payload["queued"] = self._queued
        payload["uplink_free_at"] = self._uplink_free_at
        return payload

    def _shard_absorb(
        self,
        payloads: Sequence[Dict[str, Any]],
        plan: Any,
        until: Optional[float],
    ) -> None:
        super()._shard_absorb(payloads, plan, until)
        # Horizon leftovers: VOQ contents stay with the (discarded) worker
        # replicas -- the conservation ledger already counts them as
        # in-flight -- but the aggregate queue depth and the per-uplink
        # clocks (owner-only writes, so elementwise max) are merged for
        # reporting.
        self._queued = sum(p["queued"] for p in payloads)
        self._uplink_free_at = [
            max(p["uplink_free_at"][i] for p in payloads)
            for i in range(self.n_rotors * self.n_nodes)
        ]

    # -- reporting ------------------------------------------------------------

    def unloaded_latency_ns(
        self,
        src: int = 0,
        dst: int = 1,
        size_bytes: int = C.PACKET_SIZE_BYTES,
    ) -> float:
        """Analytic latency of a single packet submitted at ``t = 0``.

        Slot 0 starts at t = 0, so the packet waits whole periods until
        the first slot whose matchings connect (src, dst), transmits at
        that slot's start, and the last byte lands one hop plus one
        serialization later.  Unlike the stage-symmetric networks this
        *does* depend on the pair: the wait is the pair's position in the
        rotation.
        """
        wait_slots = self.topology.slots_until_matched(src, dst, 0)
        return (
            wait_slots * self._period
            + self._hop_ns
            + C.packet_serialization_ns(size_bytes, self.link_rate_gbps)
        )

    @property
    def queued_packets(self) -> int:
        """Packets currently waiting in source VOQs."""
        return self._queued

    def describe(self) -> str:
        """Human-readable configuration summary."""
        return (
            f"rotor nodes={self.n_nodes} rotors={self.n_rotors} "
            f"slots_per_cycle={self.topology.slots_per_cycle} "
            f"slot={self.slot_ns}ns reconfig={self.reconfig_ns}ns"
        )
