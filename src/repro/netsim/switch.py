"""Buffered electrical switch machinery (the CODES-equivalent substrate).

Models the electrical baseline networks of Table VI at packet granularity
with virtual-cut-through timing:

* every switch input link has a :class:`VCBuffer` (24 KB split across 3
  virtual channels) guarded by credits -- an upstream output port only
  starts transmitting when the downstream buffer has room, which produces
  real backpressure chains and saturation;
* every :class:`OutputPort` serializes one packet at a time at the link
  rate; the header reaches the next switch after the link delay and is
  routed after the 90 ns switch pipeline latency while the body is still
  streaming (cut-through), so unloaded end-to-end latency is
  ``sum(switch latency + link delay) + one serialization``;
* head-of-line blocking is modelled: a port whose head packet lacks
  downstream credit stalls until the downstream buffer drains.

Routing is pluggable per network: ``route(switch, packet) -> (port, vc)``.
Adaptive policies read :meth:`OutputPort.load_bytes`.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from repro import constants as C
from repro.errors import ConfigurationError
from repro.netsim.packet import Packet
from repro.sim import Environment

__all__ = ["VCBuffer", "OutputPort", "Switch", "Host"]


class VCBuffer:
    """Per-link input buffer with per-VC byte accounting and credit waiters.

    ``_waiters`` is ``None`` until an upstream port first stalls on this
    buffer's credit; :meth:`add_waiter` creates the list and
    :meth:`release` hands it over and resets it to ``None``.
    """

    __slots__ = ("capacity_per_vc", "n_vcs", "occupancy", "_waiters")

    def __init__(
        self,
        capacity_bytes: int = C.ELECTRICAL_BUFFER_PER_PORT_KB * 1024,
        n_vcs: int = C.ELECTRICAL_VIRTUAL_CHANNELS,
    ):
        if capacity_bytes <= 0 or n_vcs <= 0:
            raise ConfigurationError("buffer capacity and VCs must be positive")
        self.capacity_per_vc = capacity_bytes // n_vcs
        self.n_vcs = n_vcs
        self.occupancy = [0] * n_vcs
        self._waiters: Optional[List["OutputPort"]] = None

    def has_room(self, vc: int, size: int) -> bool:
        """True if ``size`` bytes fit in virtual channel ``vc``."""
        return self.occupancy[vc] + size <= self.capacity_per_vc

    def reserve(self, vc: int, size: int) -> None:
        """Claim buffer space (caller must have checked :meth:`has_room`)."""
        self.occupancy[vc] += size

    def release(self, vc: int, size: int, time: float) -> None:
        """Free buffer space and wake stalled upstream ports."""
        self.occupancy[vc] -= size
        if self.occupancy[vc] < 0:
            raise ConfigurationError("buffer released below zero")
        # A woken port that stalls again registers in a fresh list.
        waiters, self._waiters = self._waiters, None
        if waiters is not None:
            for port in waiters:
                port.try_start(time)

    def add_waiter(self, port: "OutputPort") -> None:
        """Register an upstream port stalled on this buffer's credit."""
        waiters = self._waiters
        if waiters is None:
            self._waiters = [port]
        elif port not in waiters:
            waiters.append(port)


class OutputPort:
    """One switch (or host NIC) output link with a FIFO and a serializer.

    ``queue`` is ``None`` until the first :meth:`enqueue` creates the
    FIFO: most ports of a large fabric never carry a packet, and an
    empty ``deque`` costs 760 bytes.
    """

    __slots__ = (
        "env",
        "rate_gbps",
        "link_delay_ns",
        "queue",
        "busy",
        "target_switch",
        "target_buffer",
        "deliver_fn",
        "queued_bytes",
        "stall_hook",
    )

    def __init__(
        self,
        env: Environment,
        rate_gbps: float,
        link_delay_ns: float,
    ):
        self.env = env
        self.rate_gbps = rate_gbps
        self.link_delay_ns = link_delay_ns
        # Queue entries: (packet, hold) where hold is a (buffer, vc, size)
        # triple recording the packet's input-buffer claim at this switch,
        # released once the packet has departed.  A plain tuple instead of
        # a per-packet release closure: this queue is touched on every hop
        # of every electrical network, and closure allocation was
        # measurable there.
        self.queue: Optional[
            Deque[Tuple[Packet, Optional[Tuple[VCBuffer, int, int]]]]
        ] = None
        self.busy = False
        self.target_switch: Optional["Switch"] = None
        self.target_buffer: Optional[VCBuffer] = None
        self.deliver_fn: Optional[Callable[[Packet, float], None]] = None
        self.queued_bytes = 0
        # Observability hook (installed by NetworkSimulator._install_obs):
        # stall_hook(packet) fires when the head packet lacks downstream
        # credit.  Passive -- must not touch port or buffer state.
        self.stall_hook: Optional[Callable[[Packet], None]] = None

    def connect_switch(self, switch: "Switch", buffer: VCBuffer) -> None:
        """Point this port at a downstream switch's input buffer."""
        self.target_switch = switch
        self.target_buffer = buffer

    def connect_host(self, deliver_fn: Callable[[Packet, float], None]) -> None:
        """Point this port at a host (infinite sink)."""
        self.deliver_fn = deliver_fn

    @property
    def load_bytes(self) -> int:
        """Bytes queued behind this port (the adaptive-routing signal)."""
        return self.queued_bytes

    def enqueue(
        self,
        packet: Packet,
        time: float,
        hold: Optional[Tuple[VCBuffer, int, int]] = None,
    ) -> None:
        """Add a packet to the port FIFO and start it if possible.

        ``hold`` is the packet's upstream input-buffer claim as a
        ``(buffer, vc, size)`` triple (None for host NIC injections);
        it is released when the packet finishes serializing out.
        """
        queue = self.queue
        if queue is None:
            queue = self.queue = deque()
        queue.append((packet, hold))
        self.queued_bytes += packet.size_bytes
        self.try_start(time)

    def try_start(self, time: float) -> None:
        """Begin serializing the head packet if the port and credit allow."""
        queue = self.queue
        if self.busy or not queue:
            return
        packet, _hold = queue[0]
        target_buffer = self.target_buffer
        if target_buffer is not None:
            if not target_buffer.has_room(packet.vc, packet.size_bytes):
                if self.stall_hook is not None:
                    self.stall_hook(packet)
                target_buffer.add_waiter(self)
                return
            target_buffer.reserve(packet.vc, packet.size_bytes)
        queue.popleft()
        self.queued_bytes -= packet.size_bytes
        self.busy = True
        tx_time = packet.serialization_time_ns(self.rate_gbps)
        env = self.env
        env.schedule(tx_time, self._on_sent, _hold)
        if self.target_switch is not None:
            env.schedule(
                self.link_delay_ns,
                self.target_switch.on_head_arrival,
                packet,
                target_buffer,
            )
        else:
            # Host delivery: the last byte lands after tx + link delay.
            env.schedule(
                tx_time + self.link_delay_ns, self._deliver, packet
            )

    def _on_sent(self, hold: Optional[Tuple[VCBuffer, int, int]]) -> None:
        now = self.env.now
        self.busy = False
        if hold is not None:
            buf, vc, size = hold
            buf.release(vc, size, now)
        self.try_start(now)

    def _deliver(self, packet: Packet) -> None:
        if self.deliver_fn is None:
            raise ConfigurationError("port has no host attached")
        self.deliver_fn(packet, self.env.now)


class Switch:
    """A buffered electrical switch with pluggable routing.

    ``route(switch, packet) -> (output port index, next vc)`` is supplied by
    the network that builds the switch.
    """

    __slots__ = (
        "env",
        "sid",
        "latency_ns",
        "ports",
        "route_fn",
        "meta",
        "fault_hook",
        "extra_latency_fn",
        "drop_fn",
        "arrival_hook",
    )

    def __init__(
        self,
        env: Environment,
        sid: int,
        latency_ns: float = C.ELECTRICAL_SWITCH_LATENCY_NS,
    ):
        self.env = env
        self.sid = sid
        self.latency_ns = latency_ns
        self.ports: List[OutputPort] = []
        self.route_fn: Optional[
            Callable[["Switch", Packet], Tuple[int, int]]
        ] = None
        self.meta: dict = {}
        # Fault-injection hooks (installed by NetworkSimulator.attach_faults):
        # fault_hook(switch, packet) -> True drops the packet at this switch,
        # extra_latency_fn(switch) widens the pipeline latency (slow-gate
        # drift), drop_fn(packet, switch) reports the terminal loss (with
        # its location, for per-switch attribution) to the network.
        self.fault_hook: Optional[Callable[["Switch", Packet], bool]] = None
        self.extra_latency_fn: Optional[Callable[["Switch"], float]] = None
        self.drop_fn: Optional[Callable[[Packet, "Switch"], None]] = None
        # Observability hook (installed by NetworkSimulator._install_obs):
        # arrival_hook(switch, packet) fires on every header arrival.
        # Passive -- must not touch switch, packet, or buffer state.
        self.arrival_hook: Optional[Callable[["Switch", Packet], None]] = None

    def add_port(self, rate_gbps: float, link_delay_ns: float) -> OutputPort:
        """Create and register a new output port."""
        port = OutputPort(self.env, rate_gbps, link_delay_ns)
        self.ports.append(port)
        return port

    def on_head_arrival(self, packet: Packet, in_buffer: VCBuffer) -> None:
        """A packet header has arrived; route it after the pipeline delay."""
        packet.hops += 1
        if self.arrival_hook is not None:
            self.arrival_hook(self, packet)
        latency = self.latency_ns
        if self.extra_latency_fn is not None:
            latency += self.extra_latency_fn(self)
        self.env.schedule(
            latency, self._route_and_enqueue, packet, in_buffer
        )

    def _route_and_enqueue(self, packet: Packet, in_buffer: VCBuffer) -> None:
        if self.fault_hook is not None and self.fault_hook(self, packet):
            # Fail-stop or corruption fault: discard the packet and free its
            # input-buffer hold so upstream credit is not leaked.
            if in_buffer is not None:
                in_buffer.release(packet.vc, packet.size_bytes, self.env.now)
            if self.drop_fn is not None:
                self.drop_fn(packet, self)
            return
        if self.route_fn is None:
            raise ConfigurationError(f"switch {self.sid} has no routing")
        port_idx, next_vc = self.route_fn(self, packet)
        hold = (
            (in_buffer, packet.vc, packet.size_bytes)
            if in_buffer is not None else None
        )
        packet.vc = next_vc
        self.ports[port_idx].enqueue(packet, self.env.now, hold)


class Host:
    """A server node: an injection NIC plus a delivery hook."""

    __slots__ = ("env", "hid", "nic", "on_deliver")

    def __init__(
        self,
        env: Environment,
        hid: int,
        rate_gbps: float = C.LINK_DATA_RATE_GBPS,
        link_delay_ns: float = 10.0,
    ):
        self.env = env
        self.hid = hid
        self.nic = OutputPort(env, rate_gbps, link_delay_ns)
        self.on_deliver: Optional[Callable[[Packet, float], None]] = None

    def attach(self, switch: Switch, buffer: VCBuffer) -> None:
        """Connect the NIC to this host's edge switch."""
        self.nic.connect_switch(switch, buffer)

    def inject(self, packet: Packet, time: float) -> None:
        """Queue a packet for transmission (called at its create time)."""
        packet.inject_time = time
        self.nic.enqueue(packet, time)

    def deliver(self, packet: Packet, time: float) -> None:
        """Called by the final switch port when the last byte arrives."""
        packet.deliver_time = time
        if self.on_deliver is not None:
            self.on_deliver(packet, time)
